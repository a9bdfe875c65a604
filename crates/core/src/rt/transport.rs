//! In-process datagram transport: addressed inboxes over crossbeam
//! channels, with every message crossing as serialized wire bytes.
//!
//! Sends assemble their frames into a buffer drawn from a shared
//! [`BufferPool`] and may coalesce several frames into one datagram
//! ([`RtNetwork::send_frames`]); receivers walk the batch with
//! [`Envelope::decode_all`], which parses `MessageData` payloads as
//! zero-copy handles into the delivery buffer, and hand the buffer back via
//! [`RtNetwork::recycle_envelope`].
//!
//! A sender may count its datagrams against a [`QueuedFrames`]: the frames
//! the transport has queued for the receiver (or holds for jitter delay)
//! that the receiver has not yet dropped — a socket's receive window, kept
//! where a socket keeps it.

use crate::error::SystemError;
use crate::protocol::{self, Wire};
use crate::rt::pool::BufferPool;
use asymshare_netsim::{
    adversary_draw, AdversaryStrategy, FaultPlan, FaultStats, NodeId, SplitMix64,
};
use asymshare_obs::health::{HealthConfig, HealthReport, HealthStream};
use asymshare_obs::{Counter, EventSink, Histogram, Registry, Snapshot};
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// An installed [`FaultPlan`] and what realising it per datagram needs.
#[derive(Debug)]
struct FaultState {
    plan: FaultPlan,
    /// The plan's outage windows are read in seconds since this instant.
    installed: Instant,
    rng: Mutex<SplitMix64>,
    /// Datagrams sent so far by each of the plan's adversaries: the
    /// per-address sequence their decisions are hashed from.
    adversary_sends: HashMap<u64, AtomicU64>,
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
            adversary_sends: plan
                .adversaries()
                .map(|(node, _)| (node as u64, AtomicU64::new(0)))
                .collect(),
            plan,
            held: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
            corrupted: AtomicU64::new(0),
            delayed: AtomicU64::new(0),
        }
    }
}

/// The frames one connection's datagrams hold at their receiver: counted
/// up when the transport queues a datagram for the receiver (or holds it
/// for jitter delay), down when the receiver drops it. A lost or withheld
/// datagram never counts, so a loss cannot leave the count stuck. Clones
/// share one count.
#[derive(Debug, Clone, Default)]
pub(crate) struct QueuedFrames(Arc<AtomicU32>);

impl QueuedFrames {
    /// Frames queued at the receiver right now.
    pub(crate) fn get(&self) -> u32 {
        self.0.load(Ordering::Acquire)
    }

    /// Counts `frames` until the returned token is dropped.
    fn hold(&self, frames: u32) -> Held {
        self.0.fetch_add(frames, Ordering::AcqRel);
        Held {
            count: self.clone(),
            frames,
        }
    }
}

/// One datagram's frames on its sender's [`QueuedFrames`], given back when
/// the envelope carrying it is dropped.
#[derive(Debug)]
struct Held {
    count: QueuedFrames,
    frames: u32,
}

impl Drop for Held {
    fn drop(&mut self) {
        self.count.0.fetch_sub(self.frames, Ordering::AcqRel);
    }
}

/// A delivered message: sender and destination addresses plus serialized
/// wire bytes. The destination matters to shared-queue receivers (the
/// reactor registers many peer addresses onto one completion queue and
/// routes each delivery by `to`); dedicated inboxes can ignore it.
#[derive(Debug)]
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
    /// The sender's count of this datagram's frames, if it keeps one.
    _held: Option<Held>,
}

/// A clone is the receiver's own copy of the bytes: the original alone
/// holds the sender's count.
impl Clone for Envelope {
    fn clone(&self) -> Envelope {
        Envelope {
            from: self.from,
            to: self.to,
            bytes: self.bytes.clone(),
            arrived: self.arrived,
            _held: None,
        }
    }
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
    registry: Arc<RwLock<HashMap<u64, Sender<Envelope>>>>,
    fault: Arc<RwLock<Option<FaultState>>>,
    pool: Arc<BufferPool>,
    obs: TransportObs,
    /// One mutex, so closing a window (drain + evaluate + emit) is atomic
    /// with respect to score reads from the download loop.
    health: Arc<Mutex<Option<HealthStream>>>,
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
    /// (`rt.pool.*`) refreshed first.
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
        }
        metrics.snapshot()
    }

    /// Installs a streaming [`HealthStream`] fed from this network's event
    /// sink. Meaningful only on a network built with
    /// [`with_observability`](Self::with_observability) — without an event
    /// stream the engine never sees a signal. Replaces any previous engine.
    ///
    /// Nothing evaluates automatically: call
    /// [`evaluate_health`](Self::evaluate_health) at your chosen cadence,
    /// or spawn a [`HealthMonitor`](crate::rt::HealthMonitor) to sample on
    /// a thread.
    pub fn enable_health(&self, cfg: HealthConfig) {
        *self.health.lock().expect("health lock") = Some(HealthStream::new(cfg, &self.obs.events));
    }

    /// Closes the current health window: drains every event emitted since
    /// the previous evaluation into the engine, runs the detector bank at
    /// the sink's current timeline instant, emits one `health`/`alert`
    /// event per raised alert plus a `health`/`window` heartbeat, and
    /// refreshes the `health.score.p{addr}` gauges. Returns the number of
    /// alerts raised (`None` when no engine is installed).
    pub fn evaluate_health(&self) -> Option<usize> {
        let mut guard = self.health.lock().expect("health lock");
        let h = guard.as_mut()?;
        let ts = self.obs.events.now_secs();
        Some(h.close_window(ts, &self.obs.events, &self.obs.metrics, &[]))
    }

    /// The health engine's current per-peer report (`None` unless
    /// [`enable_health`](Self::enable_health) was called).
    pub fn health_report(&self) -> Option<HealthReport> {
        self.health
            .lock()
            .expect("health lock")
            .as_ref()
            .map(|h| h.engine().report())
    }

    /// A peer address's current 0–100 health score, if the engine has
    /// scored it.
    pub fn health_score(&self, addr: u64) -> Option<f64> {
        self.health
            .lock()
            .expect("health lock")
            .as_ref()
            .and_then(|h| h.engine().score(addr))
    }

    /// Whether `addr` sits in the sick band (score strictly below
    /// [`HealthConfig::sick_score`]). `false` with no engine installed or
    /// for never-scored peers, so callers can consult it unconditionally.
    pub fn peer_is_sick(&self, addr: u64) -> bool {
        self.health
            .lock()
            .expect("health lock")
            .as_ref()
            .is_some_and(|h| h.engine().is_sick(addr))
    }

    /// Registers `addr` and returns its inbox.
    ///
    /// # Panics
    ///
    /// Panics if the address is already registered.
    pub fn register(&self, addr: u64) -> Inbox {
        let (tx, rx) = unbounded();
        let previous = self.registry.write().insert(addr, tx);
        assert!(previous.is_none(), "address {addr} already registered");
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
        let previous = self.registry.write().insert(addr, tx);
        assert!(previous.is_none(), "address {addr} already registered");
    }

    /// Removes an address (its inbox stops receiving).
    pub fn unregister(&self, addr: u64) {
        self.registry.write().remove(&addr);
    }

    /// Whether `addr` currently has a registered inbox.
    pub fn is_registered(&self, addr: u64) -> bool {
        self.registry.read().contains_key(&addr)
    }

    /// Installs a [`FaultPlan`] affecting every subsequent send; replaces
    /// any previous plan and resets its counters. A node of the plan is the
    /// address [`NodeId::new`] names. The plan is realised per datagram,
    /// by [`send_frames`](Self::send_frames): a datagram from or to a node
    /// inside an outage window (seconds since this call) is dropped; the
    /// sender's adversary strategy filters it; then the sender's link
    /// faults apply in the order loss, corruption, delay. With no plan
    /// installed the transport draws no random numbers at all.
    ///
    /// Corruption touches only `MessageData` payload bytes, never framing
    /// or control messages — a flipped content bit surfaces as a
    /// per-message digest-authentication failure at the receiver, as link
    /// noise does under the paper's MD5 scheme, rather than as a parse
    /// error. `InflateCredit` is inert at this layer: rt credit moves only
    /// inside signed `Feedback` reports the transport cannot forge, so
    /// inflation is modeled in the simulator, which owns the ledger
    /// (DESIGN.md §11).
    pub fn install_faults(&self, plan: FaultPlan) {
        *self.fault.write() = Some(FaultState::new(plan));
    }

    /// Removes the fault plan; messages still held in the delay queue are
    /// discarded (and their frames leave their senders' counts).
    pub fn clear_faults(&self) {
        *self.fault.write() = None;
    }

    /// Whether `addr` is currently quarantined by the health engine's
    /// attack attribution (a timed ban on the event-sink timeline).
    /// `false` with no engine installed, so callers can consult it
    /// unconditionally.
    pub fn peer_quarantined(&self, addr: u64) -> bool {
        self.health
            .lock()
            .expect("health lock")
            .as_ref()
            .is_some_and(|h| h.engine().is_quarantined(addr, self.obs.events.now_secs()))
    }

    /// When `addr`'s quarantine lifts on the event-sink timeline, if it
    /// has ever been quarantined.
    pub fn peer_quarantined_until(&self, addr: u64) -> Option<f64> {
        self.health
            .lock()
            .expect("health lock")
            .as_ref()
            .and_then(|h| h.engine().quarantined_until(addr))
    }

    /// Counters of faults realized so far (zero if no plan installed).
    pub fn fault_stats(&self) -> FaultStats {
        match self.fault.read().as_ref() {
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
            let guard = self.fault.read();
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
        let registry = self.registry.read();
        let released = Instant::now();
        for (_, to, mut envelope) in due {
            if let Some(tx) = registry.get(&to) {
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
    /// payload handle sliced from the envelope is still alive) and its
    /// frames to the sender's count.
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
        self.send_counted(from, to, frames, None)
    }

    /// [`send_frames`](Self::send_frames), counting the datagram's frames
    /// on `queued` while each delivered (or delay-held) copy waits at the
    /// receiver.
    pub(crate) fn send_counted(
        &self,
        from: u64,
        to: u64,
        frames: &[Wire],
        queued: Option<&QueuedFrames>,
    ) -> bool {
        self.pump();
        if !self.is_registered(to) {
            self.obs.send_failures.inc();
            return false;
        }
        if frames.is_empty() {
            return true;
        }
        let hold = || queued.map(|q| q.hold(frames.len() as u32));
        let total: usize = frames.iter().map(Wire::encoded_len).sum();
        self.obs.sends.inc();
        self.obs.send_bytes.add(total as u64);
        self.obs.batch_frames.record(frames.len() as u64);
        let mut buf = self.pool.acquire(total);
        for frame in frames {
            frame.encode_into(&mut buf);
        }
        let mut copies = 1usize;
        let guard = self.fault.read();
        if let Some(fault) = guard.as_ref() {
            let plan = &fault.plan;
            let sender = NodeId::new(from as usize);
            let now = fault.installed.elapsed().as_secs_f64();
            if plan.node_down(sender, now) || plan.node_down(NodeId::new(to as usize), now) {
                self.lose(fault, from, to, buf);
                return true; // address resolved; an end is down
            }
            // A Byzantine sender filters its own datagrams before the link's
            // faults apply. Nothing is counted or emitted here — a real
            // attacker does not announce itself; detection happens at the
            // receiver.
            if let Some(strategy) = plan.adversary_for(sender) {
                let seq = fault.adversary_sends[&from].fetch_add(1, Ordering::Relaxed);
                let salt = from.wrapping_mul(0x9E37_79B9).wrapping_add(seq);
                let draw = adversary_draw(plan.seed(), salt);
                match strategy {
                    AdversaryStrategy::SelectiveServe { serve_fraction } => {
                        // Withhold whole data-bearing datagrams; control
                        // frames pass so the peer still looks alive.
                        if payload_bytes(&buf) > 0 && draw >= serve_fraction {
                            self.pool.recycle(buf);
                            return true; // withheld: reads as silence, not error
                        }
                    }
                    AdversaryStrategy::Pollute { prob } => {
                        if draw < prob {
                            let mut rng = SplitMix64::new(
                                plan.seed() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                            );
                            corrupt_in_place(&mut buf, &mut rng);
                        }
                    }
                    AdversaryStrategy::Replay { prob } => {
                        // Serve the same coded bytes again: stale
                        // information dressed up as fresh service.
                        if payload_bytes(&buf) > 0 && draw < prob {
                            copies = 2;
                        }
                    }
                    // Inert on the wire (see `install_faults`).
                    AdversaryStrategy::InflateCredit { .. } => {}
                }
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
                && corrupt_in_place(&mut buf, &mut rng)
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
                    let mut held = fault.held.lock().expect("delay queue lock");
                    let due = Instant::now() + extra;
                    for _ in 0..copies {
                        held.push((
                            due,
                            to,
                            Envelope {
                                from,
                                to,
                                bytes: bytes.clone(),
                                arrived: due,
                                _held: hold(),
                            },
                        ));
                    }
                    return true;
                }
            }
        }
        drop(guard);
        let bytes = Bytes::from(buf);
        if let Some(tx) = self.registry.read().get(&to) {
            let arrived = Instant::now();
            for _ in 0..copies {
                self.obs.recv_bytes.add(bytes.len() as u64);
                // A receiver gone since the lookup hands the envelope back,
                // and dropping it gives its frames back.
                let _ = tx.send(Envelope {
                    from,
                    to,
                    bytes: bytes.clone(),
                    arrived,
                    _held: hold(),
                });
            }
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
/// frame batch in `buf` — never framing or control frames, so the damage
/// surfaces as a digest-authentication failure, not a parse error. Mutates
/// in place: corruption costs no extra copy. Returns `false`, drawing no
/// positional randoms, when the batch carries no payload bytes.
fn corrupt_in_place(buf: &mut [u8], rng: &mut SplitMix64) -> bool {
    let total = payload_bytes(buf);
    if total == 0 {
        return false;
    }
    let mut target = (rng.next_u64() as usize) % total;
    let bit = 1u8 << (rng.next_u64() % 8);
    let mut off = 0usize;
    while off < buf.len() {
        let Some((frame_len, span)) = protocol::scan_frame(&buf[off..]) else {
            break;
        };
        if let Some((payload_start, payload_len)) = span {
            if target < payload_len {
                buf[off + payload_start + target] ^= bit;
                return true;
            }
            target -= payload_len;
        }
        off += frame_len;
    }
    unreachable!("target lies within the batch's payload bytes")
}

/// Total coded-payload bytes across the (possibly coalesced) frame batch in
/// `buf` — zero for control-only batches.
fn payload_bytes(buf: &[u8]) -> usize {
    let mut total = 0usize;
    let mut off = 0usize;
    while off < buf.len() {
        let Some((frame_len, span)) = protocol::scan_frame(&buf[off..]) else {
            break;
        };
        if let Some((_, payload_len)) = span {
            total += payload_len;
        }
        off += frame_len;
    }
    total
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
        net.clear_faults();
        assert!(net.send(1, 4, &Wire::FileRequest { file_id: 1 }));
        assert!(inbox.try_recv().is_some(), "healthy again after clearing");
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

    fn data_frames(n: u64) -> Vec<Wire> {
        use asymshare_rlnc::{EncodedMessage, FileId, MessageId};
        (0..n)
            .map(|i| {
                Wire::MessageData(EncodedMessage::new(
                    FileId(1),
                    MessageId(i),
                    vec![i as u8; 16],
                ))
            })
            .collect()
    }

    #[test]
    fn queued_frames_count_a_delivery_until_the_receiver_drops_it() {
        let net = RtNetwork::new();
        let inbox = net.register(100);
        let queued = QueuedFrames::default();
        assert!(net.send_counted(1, 100, &data_frames(3), Some(&queued)));
        assert!(net.send_counted(1, 100, &data_frames(2), Some(&queued)));
        assert_eq!(queued.get(), 5, "both datagrams wait at the receiver");
        let first = inbox.try_recv().unwrap();
        let copy = first.clone();
        assert_eq!(queued.get(), 5, "receiving is not consuming");
        net.recycle_envelope(first);
        assert_eq!(queued.get(), 2, "recycling gives the frames back");
        drop(copy);
        assert_eq!(queued.get(), 2, "a clone carries no count");
        drop(inbox.try_recv().unwrap());
        assert_eq!(queued.get(), 0, "dropping gives them back too");
    }

    #[test]
    fn queued_frames_never_count_a_lost_or_withheld_datagram() {
        let net = RtNetwork::new();
        let inbox = net.register(101);
        let queued = QueuedFrames::default();
        net.install_faults(FaultPlan::new(9).with_loss(1.0));
        assert!(net.send_counted(1, 101, &data_frames(4), Some(&queued)));
        assert_eq!(queued.get(), 0, "a lost datagram never counts");
        net.install_faults(FaultPlan::new(5).with_adversary(
            NodeId::new(1),
            AdversaryStrategy::SelectiveServe {
                serve_fraction: 0.0,
            },
        ));
        assert!(net.send_counted(1, 101, &data_frames(4), Some(&queued)));
        assert_eq!(queued.get(), 0, "a withheld datagram never counts");
        assert!(inbox.try_recv().is_none());
    }

    #[test]
    fn queued_frames_count_each_replayed_copy() {
        let net = RtNetwork::new();
        let inbox = net.register(102);
        let queued = QueuedFrames::default();
        net.install_faults(
            FaultPlan::new(3)
                .with_adversary(NodeId::new(1), AdversaryStrategy::Replay { prob: 1.0 }),
        );
        assert!(net.send_counted(1, 102, &data_frames(3), Some(&queued)));
        assert_eq!(queued.get(), 6, "the original and its replay");
        drop(inbox.try_recv().unwrap());
        assert_eq!(queued.get(), 3);
        drop(inbox.try_recv().unwrap());
        assert_eq!(queued.get(), 0);
    }

    #[test]
    fn queued_frames_count_a_delay_held_datagram_until_it_is_dropped() {
        let net = RtNetwork::new();
        let inbox = net.register(103);
        let queued = QueuedFrames::default();
        net.install_faults(FaultPlan::new(13).with_jitter(0.005));
        assert!(net.send_counted(1, 103, &data_frames(2), Some(&queued)));
        assert_eq!(net.fault_stats().delayed, 1, "held for delay");
        assert_eq!(queued.get(), 2, "counted while held");
        std::thread::sleep(Duration::from_millis(10));
        net.pump();
        let e = inbox.try_recv().expect("flushed as due");
        assert_eq!(queued.get(), 2, "and while queued");
        net.recycle_envelope(e);
        assert_eq!(queued.get(), 0);
    }

    #[test]
    fn queued_frames_return_with_a_discarded_delay_queue_or_inbox() {
        let net = RtNetwork::new();
        let inbox = net.register(104);
        let queued = QueuedFrames::default();
        net.install_faults(FaultPlan::new(13).with_jitter(60.0));
        assert!(net.send_counted(1, 104, &data_frames(3), Some(&queued)));
        assert_eq!(net.fault_stats().delayed, 1);
        assert_eq!(queued.get(), 3);
        net.clear_faults();
        assert_eq!(queued.get(), 0, "clear_faults discards the held datagram");
        assert!(net.send_counted(1, 104, &data_frames(2), Some(&queued)));
        assert_eq!(queued.get(), 2);
        drop(inbox);
        assert_eq!(queued.get(), 0, "a dropped inbox drops what it queued");
    }

    #[test]
    fn queued_frames_ignore_uncounted_sends() {
        let net = RtNetwork::new();
        let _inbox = net.register(105);
        let queued = QueuedFrames::default();
        assert!(net.send_counted(1, 105, &data_frames(2), Some(&queued)));
        assert!(net.send(1, 105, &Wire::FileRequest { file_id: 1 }));
        assert!(net.send_frames(1, 105, &data_frames(3)));
        assert_eq!(queued.get(), 2);
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
        net.clear_faults();
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
        let net = RtNetwork::with_observability(Registry::new(), EventSink::new());
        let _inbox = net.register(40);
        net.enable_health(HealthConfig {
            warmup_windows: 2,
            ..HealthConfig::default()
        });
        assert_eq!(net.health_score(41), None, "no traffic yet");
        // Clean warmup windows: peer 41 sends healthy traffic.
        for _ in 0..6 {
            for _ in 0..20 {
                net.events().emit(
                    "rt.download",
                    "window",
                    &[("peer", 41u64.into()), ("msgs", 20u64.into())],
                );
            }
            assert_eq!(net.evaluate_health(), Some(0));
        }
        assert_eq!(net.health_score(41), Some(100.0));
        assert!(!net.peer_is_sick(41));
        // Then the link to 41 turns hostile: every send is dropped.
        net.install_faults(FaultPlan::new(5).with_loss(1.0));
        for _ in 0..4 {
            for _ in 0..30 {
                net.send(41, 40, &Wire::FileRequest { file_id: 1 });
            }
            net.evaluate_health();
        }
        let score = net.health_score(41).expect("scored");
        assert!(score < 100.0, "drop burst must cost score, got {score}");
        let report = net.health_report().expect("engine installed");
        assert!(report.total_alerts >= 1, "{report:?}");
        // Alerts were mirrored into the event stream.
        let alerts = net
            .events()
            .events()
            .iter()
            .filter(|e| e.component == "health" && e.kind == "alert")
            .count() as u64;
        assert_eq!(alerts, report.total_alerts);
    }

    #[test]
    fn health_disabled_is_inert() {
        let net = RtNetwork::new();
        assert_eq!(net.evaluate_health(), None);
        assert!(net.health_report().is_none());
        assert!(!net.peer_is_sick(1));
    }

    #[test]
    fn adversary_pollute_flips_payload_bits_silently() {
        use asymshare_rlnc::{EncodedMessage, FileId, MessageId};
        let net = RtNetwork::with_observability(Registry::new(), EventSink::new());
        let inbox = net.register(50);
        net.install_faults(
            FaultPlan::new(7)
                .with_adversary(NodeId::new(51), AdversaryStrategy::Pollute { prob: 1.0 }),
        );
        let msg = EncodedMessage::new(FileId(1), MessageId(0), vec![0x55; 48]);
        assert!(net.send(51, 50, &Wire::MessageData(msg.clone())));
        let e = inbox.try_recv().unwrap();
        let Wire::MessageData(got) = e.decode().expect("framing intact") else {
            panic!("still a data frame");
        };
        assert_ne!(got.payload(), msg.payload(), "payload polluted");
        // The attacker leaves no trace at the transport: no fault counters,
        // no corruption events — only the receiver's digest check can tell.
        assert_eq!(net.fault_stats(), FaultStats::default());
        assert!(net
            .events()
            .events()
            .iter()
            .all(|ev| ev.kind != "corruption"));
        // Control frames pass unharmed.
        net.send(51, 50, &Wire::FileRequest { file_id: 9 });
        let e = inbox.try_recv().unwrap();
        assert_eq!(e.decode().unwrap(), Wire::FileRequest { file_id: 9 });
    }

    #[test]
    fn adversary_replay_duplicates_data_datagrams() {
        use asymshare_rlnc::{EncodedMessage, FileId, MessageId};
        let net = RtNetwork::new();
        let inbox = net.register(60);
        net.install_faults(
            FaultPlan::new(3)
                .with_adversary(NodeId::new(61), AdversaryStrategy::Replay { prob: 1.0 }),
        );
        let msg = EncodedMessage::new(FileId(1), MessageId(4), vec![0xAB; 32]);
        assert!(net.send(61, 60, &Wire::MessageData(msg.clone())));
        let first = inbox.try_recv().expect("original");
        let second = inbox.try_recv().expect("replayed copy");
        assert_eq!(first.bytes, second.bytes, "identical stale bytes");
        assert!(inbox.try_recv().is_none());
        // Control frames are not replayed (nothing stale to re-serve).
        net.send(61, 60, &Wire::FileRequest { file_id: 2 });
        assert!(inbox.try_recv().is_some());
        assert!(inbox.try_recv().is_none());
    }

    #[test]
    fn adversary_selective_withholds_data_but_passes_control() {
        use asymshare_rlnc::{EncodedMessage, FileId, MessageId};
        let net = RtNetwork::new();
        let inbox = net.register(70);
        net.install_faults(FaultPlan::new(5).with_adversary(
            NodeId::new(71),
            AdversaryStrategy::SelectiveServe {
                serve_fraction: 0.0,
            },
        ));
        let msg = EncodedMessage::new(FileId(1), MessageId(0), vec![1u8; 16]);
        assert!(
            net.send(71, 70, &Wire::MessageData(msg)),
            "address resolves"
        );
        assert!(inbox.try_recv().is_none(), "data withheld");
        net.send(71, 70, &Wire::StopTransmission { file_id: 1 });
        assert!(inbox.try_recv().is_some(), "control still flows");
        net.clear_faults();
        let msg = EncodedMessage::new(FileId(1), MessageId(1), vec![2u8; 16]);
        assert!(net.send(71, 70, &Wire::MessageData(msg)));
        assert!(inbox.try_recv().is_some(), "honest again once cleared");
    }

    #[test]
    fn adversary_inflate_credit_is_inert_on_the_wire() {
        use asymshare_rlnc::{EncodedMessage, FileId, MessageId};
        let net = RtNetwork::new();
        let inbox = net.register(80);
        net.install_faults(FaultPlan::new(2).with_adversary(
            NodeId::new(81),
            AdversaryStrategy::InflateCredit { factor: 4.0 },
        ));
        let msg = EncodedMessage::new(FileId(1), MessageId(0), vec![9u8; 24]);
        assert!(net.send(81, 80, &Wire::MessageData(msg.clone())));
        let e = inbox.try_recv().unwrap();
        let Wire::MessageData(got) = e.decode().unwrap() else {
            panic!("data frame");
        };
        assert_eq!(got.payload(), msg.payload(), "bytes untouched");
        assert!(inbox.try_recv().is_none(), "no duplication either");
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
