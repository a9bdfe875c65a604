//! In-process datagram transport: addressed inboxes over std
//! channels, with every message crossing as serialized wire bytes.
//!
//! Sends assemble their frames into a buffer drawn from a shared
//! [`BufferPool`] and may coalesce several frames into one datagram
//! ([`RtNetwork::send_frames`]); receivers walk the batch with
//! [`Envelope::decode_all`], which parses `MessageData` payloads as
//! zero-copy handles into the delivery buffer, and hand the buffer back via
//! [`RtNetwork::recycle_envelope`].

use crate::error::SystemError;
use crate::host::{self, Adversary};
use crate::protocol::Wire;
use crate::rt::pool::BufferPool;
use asymshare_netsim::{FaultPlan, FaultStats, NodeId, SplitMix64};
use asymshare_obs::{Counter, EventSink, Histogram, Registry, Snapshot};
use bytes::Bytes;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::time::{Duration, Instant};

/// An installed [`FaultPlan`] and what realising it per datagram needs.
#[derive(Debug)]
struct FaultState {
    plan: FaultPlan,
    /// The plan's outage windows are read in seconds since this instant.
    installed: Instant,
    rng: Mutex<SplitMix64>,
    /// Deliveries held back by injected delay: (due, destination, envelope).
    held: Mutex<Vec<(Instant, u64, Envelope)>>,
    dropped: AtomicU64,
    corrupted: AtomicU64,
    delayed: AtomicU64,
}

impl FaultState {
    fn new(plan: FaultPlan) -> FaultState {
        FaultState {
            installed: Instant::now(),
            rng: Mutex::new(SplitMix64::new(plan.seed())),
            plan,
            held: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
            corrupted: AtomicU64::new(0),
            delayed: AtomicU64::new(0),
        }
    }
}

/// A delivered message: sender and destination addresses plus serialized
/// wire bytes. The destination matters to shared-queue receivers (the
/// reactor registers many peer addresses onto one completion queue and
/// routes each delivery by `to`); dedicated inboxes can ignore it.
#[derive(Debug, Clone)]
pub struct Envelope {
    /// Sender address.
    pub from: u64,
    /// Destination address.
    pub to: u64,
    /// Serialized [`Wire`] bytes.
    pub bytes: Bytes,
    /// When the datagram landed in the receiver's inbox — for one held
    /// back by injected jitter, when the delay queue released it.
    pub arrived: Instant,
}

impl Envelope {
    /// Decodes the first carried protocol message. A `MessageData` payload
    /// comes back as a zero-copy handle into this envelope's buffer.
    ///
    /// # Errors
    ///
    /// [`SystemError::BadMessage`] on malformed bytes.
    pub fn decode(&self) -> Result<Wire, SystemError> {
        Wire::decode_shared(&self.bytes, 0).map(|(wire, _)| wire)
    }

    /// Iterates over every frame in the envelope — sends may coalesce
    /// several into one datagram. `MessageData` payloads are zero-copy
    /// handles into the envelope's buffer. A malformed frame yields one
    /// `Err` and ends the iteration.
    pub fn decode_all(&self) -> FrameIter<'_> {
        FrameIter {
            bytes: &self.bytes,
            offset: 0,
        }
    }
}

/// Iterator over the coalesced frames of an [`Envelope`].
#[derive(Debug)]
pub struct FrameIter<'a> {
    bytes: &'a Bytes,
    offset: usize,
}

impl Iterator for FrameIter<'_> {
    type Item = Result<Wire, SystemError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.offset >= self.bytes.len() {
            return None;
        }
        match Wire::decode_shared(self.bytes, self.offset) {
            Ok((wire, consumed)) => {
                self.offset += consumed;
                Some(Ok(wire))
            }
            Err(e) => {
                self.offset = self.bytes.len();
                Some(Err(e))
            }
        }
    }
}

/// A mailbox handle for one address.
#[derive(Debug)]
pub struct Inbox {
    rx: Receiver<Envelope>,
}

impl Inbox {
    /// Receives the next message, waiting up to `timeout`.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Envelope> {
        self.rx.recv_timeout(timeout).ok()
    }

    /// Receives without blocking.
    pub fn try_recv(&self) -> Option<Envelope> {
        self.rx.try_recv().ok()
    }
}

/// Pre-resolved metric handles for the transport hot path: looked up once
/// at construction so `send_frames` never touches the registry's name maps.
/// With observability disabled every handle is inert (one branch per use).
#[derive(Debug, Clone, Default)]
struct TransportObs {
    metrics: Registry,
    events: EventSink,
    /// Datagrams handed to a registered inbox sender.
    sends: Counter,
    /// Wire bytes encoded into outgoing datagrams.
    send_bytes: Counter,
    /// Wire bytes that actually reached an inbox (immediate or delayed).
    recv_bytes: Counter,
    /// Sends addressed to an unregistered destination.
    send_failures: Counter,
    /// Frames coalesced per datagram.
    batch_frames: Histogram,
}

impl TransportObs {
    fn new(metrics: Registry, events: EventSink) -> TransportObs {
        TransportObs {
            sends: metrics.counter("rt.transport.sends"),
            send_bytes: metrics.counter("rt.transport.send_bytes"),
            recv_bytes: metrics.counter("rt.transport.recv_bytes"),
            send_failures: metrics.counter("rt.transport.send_failures"),
            batch_frames: metrics.histogram("rt.transport.batch_frames"),
            metrics,
            events,
        }
    }
}

/// The in-process network: a registry of address → inbox senders.
///
/// Cloning shares the registry (it is an `Arc` internally), so hosts and
/// clients can hold their own handles.
#[derive(Debug, Clone, Default)]
pub struct RtNetwork {
    inboxes: Arc<RwLock<HashMap<u64, Sender<Envelope>>>>,
    fault: Arc<RwLock<Option<FaultState>>>,
    pool: Arc<BufferPool>,
    obs: TransportObs,
}

impl RtNetwork {
    /// An empty network with observability disabled (the default: metric
    /// hooks cost one branch each).
    pub fn new() -> RtNetwork {
        RtNetwork::default()
    }

    /// An empty network recording into `metrics` and `events`. Hosts and
    /// download loops cloned from this handle share the same instruments.
    pub fn with_observability(metrics: Registry, events: EventSink) -> RtNetwork {
        RtNetwork {
            obs: TransportObs::new(metrics, events),
            ..RtNetwork::default()
        }
    }

    /// The metrics registry this network records into (disabled by default).
    pub fn metrics(&self) -> &Registry {
        &self.obs.metrics
    }

    /// The event sink this network records into (disabled by default).
    pub fn events(&self) -> &EventSink {
        &self.obs.events
    }

    /// A point-in-time copy of every metric, with the buffer-pool gauges
    /// (`rt.pool.*`) and the events the log's ring has dropped
    /// (`obs.dropped_events`) refreshed first.
    pub fn metrics_snapshot(&self) -> Snapshot {
        let metrics = &self.obs.metrics;
        if metrics.is_enabled() {
            let stats = self.pool.stats();
            metrics.gauge("rt.pool.hits").set(stats.hits as f64);
            metrics.gauge("rt.pool.misses").set(stats.misses as f64);
            metrics.gauge("rt.pool.recycled").set(stats.recycled as f64);
            metrics.gauge("rt.pool.dropped").set(stats.dropped as f64);
            metrics.gauge("rt.pool.capacity").set(stats.capacity as f64);
            metrics.gauge("rt.pool.idle").set(self.pool.idle() as f64);
            metrics
                .gauge("obs.dropped_events")
                .set(self.obs.events.dropped_events() as f64);
        }
        metrics.snapshot()
    }

    /// Registers `addr` and returns its inbox.
    ///
    /// # Panics
    ///
    /// Panics if the address is already registered.
    pub fn register(&self, addr: u64) -> Inbox {
        let (tx, rx) = channel();
        self.register_queue(addr, tx);
        Inbox { rx }
    }

    /// Registers `addr` onto an externally supplied sender, so many
    /// addresses can share one completion queue (the reactor's event loop
    /// blocks on a single receiver for every peer it hosts and routes each
    /// [`Envelope`] by its `to` field).
    ///
    /// # Panics
    ///
    /// Panics if the address is already registered.
    pub(crate) fn register_queue(&self, addr: u64, tx: Sender<Envelope>) {
        let mut inboxes = self.inboxes.write().unwrap_or_else(PoisonError::into_inner);
        let previous = inboxes.insert(addr, tx);
        assert!(previous.is_none(), "address {addr} already registered");
    }

    /// Removes an address (its inbox stops receiving).
    pub fn unregister(&self, addr: u64) {
        let mut inboxes = self.inboxes.write().unwrap_or_else(PoisonError::into_inner);
        inboxes.remove(&addr);
    }

    /// Whether `addr` currently has a registered inbox.
    pub fn is_registered(&self, addr: u64) -> bool {
        let inboxes = self.inboxes.read().unwrap_or_else(PoisonError::into_inner);
        inboxes.contains_key(&addr)
    }

    /// Installs a [`FaultPlan`] affecting every subsequent send; replaces
    /// any previous plan, discarding what its delay queue still holds, and
    /// resets its counters.
    /// A node of the plan is the address [`NodeId::new`] names. Link
    /// faults are realised per datagram, by
    /// [`send_frames`](Self::send_frames): a datagram from or to a node
    /// inside an outage window (seconds since this call) is dropped; then
    /// the sender's link faults apply in the order loss, corruption,
    /// delay. With no plan installed the transport draws no random
    /// numbers at all. A node's adversary strategy is its own behaviour,
    /// applied by the reactor's serving engine before anything is sent.
    ///
    /// Corruption touches only `MessageData` payload bytes, never framing
    /// or control messages — a flipped content bit surfaces as a
    /// per-message digest-authentication failure at the receiver, as link
    /// noise does under the paper's MD5 scheme, rather than as a parse
    /// error.
    pub fn install_faults(&self, plan: FaultPlan) {
        *self.fault.write().unwrap_or_else(PoisonError::into_inner) = Some(FaultState::new(plan));
    }

    /// The strategy the installed plan assigns to `addr`, with its seed.
    pub(crate) fn adversary_for(&self, addr: u64) -> Option<Adversary> {
        let guard = self.fault.read().unwrap_or_else(PoisonError::into_inner);
        host::adversary(&guard.as_ref()?.plan, NodeId::new(addr as usize))
    }

    /// Counters of faults realized so far (zero if no plan installed).
    pub fn fault_stats(&self) -> FaultStats {
        let guard = self.fault.read().unwrap_or_else(PoisonError::into_inner);
        match guard.as_ref() {
            Some(f) => FaultStats {
                dropped: f.dropped.load(Ordering::Relaxed),
                corrupted: f.corrupted.load(Ordering::Relaxed),
                delayed: f.delayed.load(Ordering::Relaxed),
            },
            None => FaultStats::default(),
        }
    }

    /// Delivers any fault-delayed messages whose due time has passed.
    /// Sends flush the queue opportunistically; hosts and download loops
    /// call this each tick so delayed traffic cannot wedge a quiet network.
    pub fn pump(&self) {
        let mut due = Vec::new();
        {
            let guard = self.fault.read().unwrap_or_else(PoisonError::into_inner);
            let Some(fault) = guard.as_ref() else {
                return;
            };
            let now = Instant::now();
            let mut held = fault.held.lock().expect("delay queue lock");
            let mut i = 0;
            while i < held.len() {
                if held[i].0 <= now {
                    due.push(held.swap_remove(i));
                } else {
                    i += 1;
                }
            }
        }
        // Deliver oldest-first so delayed traffic stays roughly ordered.
        due.sort_by_key(|(at, _, _)| *at);
        let inboxes = self.inboxes.read().unwrap_or_else(PoisonError::into_inner);
        let released = Instant::now();
        for (_, to, mut envelope) in due {
            if let Some(tx) = inboxes.get(&to) {
                self.obs.recv_bytes.add(envelope.bytes.len() as u64);
                envelope.arrived = released;
                let _ = tx.send(envelope);
            }
        }
    }

    /// The frame-buffer pool this network's sends draw from. Receivers hand
    /// spent envelopes back via [`recycle_envelope`](Self::recycle_envelope).
    pub fn buffer_pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Returns an envelope's buffer to the frame pool (a no-op while any
    /// payload handle sliced from the envelope is still alive).
    pub fn recycle_envelope(&self, envelope: Envelope) {
        self.pool.recycle_bytes(envelope.bytes);
    }

    /// Sends a wire message from `from` to `to`. Returns whether the
    /// destination was registered — `false` means the peer is gone and the
    /// caller should treat the connection as dead. (An injected fault may
    /// still drop or corrupt the payload of a `true` send, mirroring UDP:
    /// the address resolved, the datagram may not survive.)
    pub fn send(&self, from: u64, to: u64, wire: &Wire) -> bool {
        self.send_frames(from, to, std::slice::from_ref(wire))
    }

    /// Sends a coalesced batch of frames as one datagram; same contract as
    /// [`send`](Self::send). The delivered bytes are exactly the
    /// concatenation of each frame's individual encoding, so the on-wire
    /// layout is unchanged — batching only amortizes the per-send transport
    /// cost. Faults apply per *send*: a loss drops the whole datagram, a
    /// corruption flips one bit in one coded payload of the batch.
    pub fn send_frames(&self, from: u64, to: u64, frames: &[Wire]) -> bool {
        self.pump();
        if !self.is_registered(to) {
            self.obs.send_failures.inc();
            return false;
        }
        if frames.is_empty() {
            return true;
        }
        let total: usize = frames.iter().map(Wire::encoded_len).sum();
        self.obs.sends.inc();
        self.obs.send_bytes.add(total as u64);
        self.obs.batch_frames.record(frames.len() as u64);
        let mut buf = self.pool.acquire(total);
        for frame in frames {
            frame.encode_into(&mut buf);
        }
        let guard = self.fault.read().unwrap_or_else(PoisonError::into_inner);
        if let Some(fault) = guard.as_ref() {
            let plan = &fault.plan;
            let sender = NodeId::new(from as usize);
            let now = fault.installed.elapsed().as_secs_f64();
            if plan.node_down(sender, now) || plan.node_down(NodeId::new(to as usize), now) {
                self.lose(fault, from, to, buf);
                return true; // address resolved; an end is down
            }
            let link = plan.fault_for(sender);
            let mut rng = fault.rng.lock().expect("fault rng lock");
            if link.loss_prob > 0.0 && rng.next_f64() < link.loss_prob {
                drop(rng);
                self.lose(fault, from, to, buf);
                return true; // address resolved; datagram lost in transit
            }
            if link.corrupt_prob > 0.0
                && rng.next_f64() < link.corrupt_prob
                && corrupt_in_place(&mut buf, frames, &mut rng)
            {
                fault.corrupted.fetch_add(1, Ordering::Relaxed);
                self.obs.events.emit(
                    "rt.transport",
                    "corruption",
                    &[("peer", from.into()), ("to", to.into())],
                );
            }
            let delay_nanos = (link.jitter_secs * 1e9) as u64;
            if delay_nanos > 0 {
                let extra = Duration::from_nanos(rng.next_u64() % delay_nanos);
                drop(rng);
                if !extra.is_zero() {
                    fault.delayed.fetch_add(1, Ordering::Relaxed);
                    let bytes = Bytes::from(buf);
                    let due = Instant::now() + extra;
                    let envelope = Envelope {
                        from,
                        to,
                        bytes,
                        arrived: due,
                    };
                    let mut held = fault.held.lock().expect("delay queue lock");
                    held.push((due, to, envelope));
                    return true;
                }
            }
        }
        drop(guard);
        let bytes = Bytes::from(buf);
        let inboxes = self.inboxes.read().unwrap_or_else(PoisonError::into_inner);
        if let Some(tx) = inboxes.get(&to) {
            self.obs.recv_bytes.add(bytes.len() as u64);
            // A receiver gone since the lookup hands the envelope back.
            let _ = tx.send(Envelope {
                from,
                to,
                bytes,
                arrived: Instant::now(),
            });
        } else {
            self.pool.recycle_bytes(bytes);
        }
        true
    }

    /// Counts and reports a datagram the plan lost, and recycles its buffer.
    fn lose(&self, fault: &FaultState, from: u64, to: u64, buf: Vec<u8>) {
        fault.dropped.fetch_add(1, Ordering::Relaxed);
        self.obs.events.emit(
            "rt.transport",
            "drop",
            &[("peer", from.into()), ("to", to.into())],
        );
        self.pool.recycle(buf);
    }
}

/// Flips one bit inside one coded payload byte of the (possibly coalesced)
/// batch `buf`, the encoding of `frames` — never framing or control frames,
/// so the damage surfaces as a digest-authentication failure, not a parse
/// error. Mutates in place: corruption costs no extra copy. Returns
/// `false`, drawing no positional randoms, when the batch carries no
/// payload bytes.
fn corrupt_in_place(buf: &mut [u8], frames: &[Wire], rng: &mut SplitMix64) -> bool {
    let total: usize = frames.iter().map(coded_len).sum();
    if total == 0 {
        return false;
    }
    let mut target = (rng.next_u64() as usize) % total;
    let bit = 1u8 << (rng.next_u64() % 8);
    let mut end = 0usize;
    for frame in frames {
        // A coded payload is the tail of its frame.
        end += frame.encoded_len();
        let len = coded_len(frame);
        if target < len {
            buf[end - len + target] ^= bit;
            return true;
        }
        target -= len;
    }
    unreachable!("target lies within the batch's payload bytes")
}

/// Coded-payload bytes a frame carries — zero for control frames.
fn coded_len(frame: &Wire) -> usize {
    match frame {
        Wire::MessageData(msg) => msg.payload().len(),
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_between_addresses() {
        let net = RtNetwork::new();
        let inbox = net.register(7);
        net.send(1, 7, &Wire::FileRequest { file_id: 42 });
        let e = inbox.try_recv().expect("delivered");
        assert_eq!(e.from, 1);
        assert_eq!(e.decode().unwrap(), Wire::FileRequest { file_id: 42 });
    }

    #[test]
    fn send_to_unknown_address_reports_failure() {
        let net = RtNetwork::new();
        let delivered = net.send(
            1,
            999,
            &Wire::AuthResult {
                ok: true,
                ack: [0u8; 96],
            },
        );
        assert!(!delivered, "unknown destination is reported, not silent");
    }

    #[test]
    fn unregister_stops_delivery() {
        let net = RtNetwork::new();
        let inbox = net.register(5);
        net.unregister(5);
        net.send(
            1,
            5,
            &Wire::AuthResult {
                ok: true,
                ack: [0u8; 96],
            },
        );
        assert!(inbox.try_recv().is_none());
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn double_register_panics() {
        let net = RtNetwork::new();
        let _a = net.register(5);
        let _b = net.register(5);
    }

    #[test]
    fn handles_share_one_registry() {
        let net = RtNetwork::new();
        let clone = net.clone();
        let inbox = net.register(3);
        clone.send(2, 3, &Wire::StopTransmission { file_id: 1 });
        assert!(inbox.try_recv().is_some());
    }

    #[test]
    fn certain_loss_drops_payload_but_resolves_address() {
        let net = RtNetwork::new();
        let inbox = net.register(4);
        net.install_faults(FaultPlan::new(9).with_loss(1.0));
        assert!(net.send(1, 4, &Wire::FileRequest { file_id: 1 }));
        assert!(inbox.try_recv().is_none(), "payload lost in transit");
        assert_eq!(net.fault_stats().dropped, 1);
        net.install_faults(FaultPlan::new(9));
        assert!(net.send(1, 4, &Wire::FileRequest { file_id: 1 }));
        assert!(
            inbox.try_recv().is_some(),
            "healthy again under a clean plan"
        );
    }

    #[test]
    fn corruption_touches_only_data_payloads() {
        use asymshare_rlnc::{EncodedMessage, FileId, MessageId};
        let net = RtNetwork::new();
        let inbox = net.register(6);
        net.install_faults(FaultPlan::new(11).with_corruption(1.0));
        // Control frames pass through unharmed.
        net.send(1, 6, &Wire::FileRequest { file_id: 3 });
        let e = inbox.try_recv().unwrap();
        assert_eq!(e.decode().unwrap(), Wire::FileRequest { file_id: 3 });
        assert_eq!(net.fault_stats().corrupted, 0);
        // Data frames arrive parseable but with a flipped payload bit.
        let msg = EncodedMessage::new(FileId(3), MessageId(0), vec![0xAA; 32]);
        net.send(1, 6, &Wire::MessageData(msg.clone()));
        let e = inbox.try_recv().unwrap();
        let Wire::MessageData(got) = e.decode().expect("framing intact") else {
            panic!("still a data frame");
        };
        assert_eq!(got.file_id(), msg.file_id());
        assert_eq!(got.message_id(), msg.message_id());
        assert_ne!(got.payload(), msg.payload(), "one payload bit flipped");
        assert_eq!(net.fault_stats().corrupted, 1);
    }

    #[test]
    fn coalesced_frames_arrive_in_order() {
        use asymshare_rlnc::{EncodedMessage, FileId, MessageId};
        let net = RtNetwork::new();
        let inbox = net.register(9);
        let frames = vec![
            Wire::MessageData(EncodedMessage::new(FileId(1), MessageId(0), vec![1u8; 8])),
            Wire::MessageData(EncodedMessage::new(FileId(1), MessageId(1), vec![2u8; 8])),
            Wire::StopTransmission { file_id: 1 },
        ];
        assert!(net.send_frames(2, 9, &frames));
        let e = inbox.try_recv().expect("one datagram");
        let got: Vec<Wire> = e.decode_all().map(|f| f.unwrap()).collect();
        assert_eq!(got, frames);
        // The batch's bytes are the concatenation of individual encodings.
        let concat: Vec<u8> = frames.iter().flat_map(|f| f.encode().to_vec()).collect();
        assert_eq!(&e.bytes[..], &concat[..], "coalescing keeps wire layout");
    }

    #[test]
    fn batch_corruption_flips_one_payload_bit() {
        use asymshare_rlnc::{EncodedMessage, FileId, MessageId};
        let net = RtNetwork::new();
        let inbox = net.register(10);
        net.install_faults(FaultPlan::new(17).with_corruption(1.0));
        let frames = vec![
            Wire::FileRequest { file_id: 1 },
            Wire::MessageData(EncodedMessage::new(FileId(1), MessageId(0), vec![0u8; 64])),
            Wire::MessageData(EncodedMessage::new(FileId(1), MessageId(1), vec![0u8; 64])),
        ];
        assert!(net.send_frames(2, 10, &frames));
        let e = inbox.try_recv().unwrap();
        let mut flipped_payload_bits = 0u32;
        for (frame, sent) in e.decode_all().zip(&frames) {
            match (frame.unwrap(), sent) {
                (Wire::MessageData(got), Wire::MessageData(want)) => {
                    assert_eq!(got.file_id(), want.file_id(), "framing intact");
                    assert_eq!(got.message_id(), want.message_id());
                    flipped_payload_bits += got
                        .payload()
                        .iter()
                        .zip(want.payload())
                        .map(|(a, b)| (a ^ b).count_ones())
                        .sum::<u32>();
                }
                (got, want) => assert_eq!(&got, want, "control frames unharmed"),
            }
        }
        assert_eq!(flipped_payload_bits, 1, "exactly one bit, in a payload");
        assert_eq!(net.fault_stats().corrupted, 1);
    }

    #[test]
    fn control_only_batch_is_never_corrupted() {
        let net = RtNetwork::new();
        let inbox = net.register(11);
        net.install_faults(FaultPlan::new(17).with_corruption(1.0));
        let frames = vec![
            Wire::FileRequest { file_id: 1 },
            Wire::StopChunk {
                file_id: 1,
                chunk: 2,
            },
        ];
        assert!(net.send_frames(2, 11, &frames));
        let e = inbox.try_recv().unwrap();
        let got: Vec<Wire> = e.decode_all().map(|f| f.unwrap()).collect();
        assert_eq!(got, frames);
        assert_eq!(net.fault_stats().corrupted, 0);
    }

    #[test]
    fn recycled_envelope_buffer_is_reused() {
        let net = RtNetwork::new();
        let inbox = net.register(12);
        assert!(net.send(1, 12, &Wire::FileRequest { file_id: 1 }));
        let e = inbox.try_recv().unwrap();
        net.recycle_envelope(e);
        assert_eq!(net.buffer_pool().idle(), 1);
        assert!(net.send(1, 12, &Wire::FileRequest { file_id: 2 }));
        assert_eq!(net.buffer_pool().idle(), 0, "send drew from the pool");
        let e = inbox.try_recv().unwrap();
        assert_eq!(e.decode().unwrap(), Wire::FileRequest { file_id: 2 });
    }

    #[test]
    fn payload_handle_defers_buffer_recycling() {
        use asymshare_rlnc::{EncodedMessage, FileId, MessageId};
        let net = RtNetwork::new();
        let inbox = net.register(13);
        let msg = EncodedMessage::new(FileId(1), MessageId(0), vec![9u8; 32]);
        assert!(net.send(1, 13, &Wire::MessageData(msg)));
        let e = inbox.try_recv().unwrap();
        let Wire::MessageData(got) = e.decode().unwrap() else {
            panic!("data frame");
        };
        net.recycle_envelope(e);
        assert_eq!(
            net.buffer_pool().idle(),
            0,
            "payload handle still references the buffer"
        );
        drop(got);
        assert_eq!(net.buffer_pool().idle(), 0, "handle dropped too late");
    }

    #[test]
    fn observed_network_records_transport_metrics() {
        use asymshare_rlnc::{EncodedMessage, FileId, MessageId};
        let net = RtNetwork::with_observability(Registry::new(), EventSink::new());
        let inbox = net.register(20);
        let frames = vec![
            Wire::MessageData(EncodedMessage::new(FileId(1), MessageId(0), vec![1u8; 8])),
            Wire::StopTransmission { file_id: 1 },
        ];
        assert!(net.send_frames(2, 20, &frames));
        assert!(!net.send(2, 999, &Wire::FileRequest { file_id: 1 }));
        let e = inbox.try_recv().unwrap();
        let wire_len = e.bytes.len() as u64;
        net.recycle_envelope(e);
        let snap = net.metrics_snapshot();
        assert_eq!(snap.counter("rt.transport.sends"), Some(1));
        assert_eq!(snap.counter("rt.transport.send_bytes"), Some(wire_len));
        assert_eq!(snap.counter("rt.transport.recv_bytes"), Some(wire_len));
        assert_eq!(snap.counter("rt.transport.send_failures"), Some(1));
        let batches = snap.histogram("rt.transport.batch_frames").unwrap();
        assert_eq!((batches.count, batches.sum), (1, 2), "one 2-frame batch");
        assert_eq!(snap.gauge("rt.pool.recycled"), Some(1.0));
        assert_eq!(snap.gauge("rt.pool.idle"), Some(1.0));
    }

    #[test]
    fn default_network_snapshot_is_empty() {
        let net = RtNetwork::new();
        let inbox = net.register(21);
        assert!(net.send(1, 21, &Wire::FileRequest { file_id: 1 }));
        assert!(inbox.try_recv().is_some());
        assert!(!net.metrics().is_enabled());
        assert!(
            net.metrics_snapshot().is_empty(),
            "disabled path records nothing"
        );
    }

    #[test]
    fn faults_emit_peer_attributed_events() {
        use asymshare_rlnc::{EncodedMessage, FileId, MessageId};
        let net = RtNetwork::with_observability(Registry::new(), EventSink::new());
        let _inbox = net.register(30);
        net.install_faults(FaultPlan::new(9).with_loss(1.0));
        net.send(31, 30, &Wire::FileRequest { file_id: 1 });
        net.install_faults(FaultPlan::new(11).with_corruption(1.0));
        let msg = EncodedMessage::new(FileId(1), MessageId(0), vec![0xAA; 32]);
        net.send(32, 30, &Wire::MessageData(msg));
        let events = net.events().events();
        let drop = events
            .iter()
            .find(|e| e.kind == "drop")
            .expect("loss emits a drop event");
        assert_eq!(drop.component, "rt.transport");
        assert!(drop.fields.contains(&("peer", 31u64.into())));
        let corruption = events
            .iter()
            .find(|e| e.kind == "corruption")
            .expect("corruption emits an event");
        assert!(corruption.fields.contains(&("peer", 32u64.into())));
    }

    #[test]
    fn health_engine_scores_faulty_sender() {
        use asymshare_obs::health::{replay, HealthConfig};
        let net = RtNetwork::with_observability(Registry::new(), EventSink::new());
        let _inbox = net.register(40);
        let cfg = HealthConfig {
            warmup_windows: 2,
            ..HealthConfig::default()
        };
        let heartbeat = || net.events().emit("health", "window", &[]);
        let fold = || replay(&cfg, &net.events().events());
        assert_eq!(fold().score(41), None, "no traffic yet");
        // Clean warmup windows: peer 41 sends healthy traffic.
        for _ in 0..6 {
            for _ in 0..20 {
                net.events().emit(
                    "rt.download",
                    "window",
                    &[("peer", 41u64.into()), ("msgs", 20u64.into())],
                );
            }
            heartbeat();
        }
        assert_eq!(fold().score(41), Some(100.0));
        assert_eq!(fold().report().total_alerts, 0);
        // Then the link to 41 turns hostile: every send is dropped.
        net.install_faults(FaultPlan::new(5).with_loss(1.0));
        for _ in 0..4 {
            for _ in 0..30 {
                net.send(41, 40, &Wire::FileRequest { file_id: 1 });
            }
            heartbeat();
        }
        let engine = fold();
        let score = engine.score(41).expect("scored");
        assert!(score < 100.0, "drop burst must cost score, got {score}");
        let report = engine.report();
        assert_eq!(report.windows, 10);
        assert!(report.total_alerts >= 1, "{report:?}");
        // The report is derived, never written back into the log.
        assert!(net
            .events()
            .events()
            .iter()
            .all(|e| e.component != "health" || e.kind == "window"));
    }

    #[test]
    fn health_disabled_is_inert() {
        use asymshare_obs::health::{replay, HealthConfig, HealthReport};
        let net = RtNetwork::new();
        net.events().emit("health", "window", &[]);
        let report = replay(&HealthConfig::default(), &net.events().events()).report();
        assert_eq!(report, HealthReport::default());
    }

    #[test]
    fn delayed_messages_arrive_after_pump() {
        let net = RtNetwork::new();
        let inbox = net.register(8);
        net.install_faults(FaultPlan::new(13).with_jitter(0.005));
        net.send(1, 8, &Wire::FileRequest { file_id: 1 });
        std::thread::sleep(Duration::from_millis(10));
        net.pump();
        assert!(inbox.try_recv().is_some(), "held message flushed as due");
        assert_eq!(net.fault_stats().delayed, 1);
    }

    /// An envelope carries the instant it landed in the inbox — for a
    /// jitter-held one, when the delay queue released it — so a receiver
    /// that reaches it late still knows when it arrived.
    #[test]
    fn envelopes_carry_their_enqueue_time() {
        let net = RtNetwork::new();
        let inbox = net.register(9);
        let before = Instant::now();
        assert!(net.send(1, 9, &Wire::FileRequest { file_id: 1 }));
        let sent = Instant::now();
        std::thread::sleep(Duration::from_millis(20));
        let envelope = inbox.try_recv().expect("queued");
        assert!(before <= envelope.arrived && envelope.arrived <= sent);
        assert_eq!(envelope.clone().arrived, envelope.arrived);

        net.install_faults(FaultPlan::new(13).with_jitter(0.005));
        net.send(1, 9, &Wire::FileRequest { file_id: 2 });
        std::thread::sleep(Duration::from_millis(10));
        assert!(inbox.try_recv().is_none(), "held");
        let released = Instant::now();
        net.pump();
        let envelope = inbox.try_recv().expect("released by the pump");
        assert!(released <= envelope.arrived && envelope.arrived <= Instant::now());
    }

    #[test]
    fn outage_drops_datagrams_from_and_to_the_down_node() {
        let net = RtNetwork::new();
        let down = net.register(90);
        let up = net.register(91);
        net.install_faults(FaultPlan::new(1).with_outage(NodeId::new(90), 0.0, 0.3));
        assert!(
            net.send(90, 91, &Wire::FileRequest { file_id: 1 }),
            "address resolves"
        );
        assert!(net.send(91, 90, &Wire::FileRequest { file_id: 2 }));
        assert!(up.try_recv().is_none() && down.try_recv().is_none());
        assert_eq!(net.fault_stats().dropped, 2, "an outage drop is a drop");
        // The window is read in seconds since the plan was installed.
        std::thread::sleep(Duration::from_millis(350));
        assert!(net.send(90, 91, &Wire::FileRequest { file_id: 3 }));
        assert!(
            up.try_recv().is_some(),
            "the node is back once its window ends"
        );
    }
}
