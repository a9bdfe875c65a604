//! The event-loop reactor: many peers served by one worker thread, the
//! real-time driver of the serving engine the simulator also drives
//! ([`Host`](crate::host)).
//!
//! Every hosted address is registered onto one shared *completion queue*
//! ([`RtNetwork::register_queue`]), so one `recv` wakes the loop for any
//! inbound datagram and idle peers cost nothing but their state. A cycle
//! hands every queued [`Envelope`] to its peer's `Host::on_datagram`, then
//! drains each peer's token bucket into `Host::pass`, refunds the overflow
//! to the bucket and flushes the staged frames as coalesced datagrams. A
//! full window stages nothing — backpressure *is* the yield; no thread
//! ever blocks on a slow peer.
//!
//! A connection's window is what its user acknowledged: at most
//! [`WINDOW_FRAMES`] of its frames may be unacknowledged, counted by the
//! `Host` from the `Ack`s the user sends back, so nothing is read across
//! the transport. A user that stops reading stops acknowledging, and its
//! peers stop after one window. Windows start open; there is no depth to
//! earn. Observability is a tap here, never an input: the reactor emits
//! counters and events but reads none back, so a traced and an untraced
//! run pace their links by the same rules. A user that bans one of its
//! peers says so on the wire, with a `StopTransmission` for its own
//! connection; the peer keeps serving everyone else.
//!
//! Serving semantics (handshakes, sweep order, replacement queues, the
//! serve pass, the window, a Byzantine node's behaviour) are the `Host`'s,
//! which is what the sim-vs-reactor golden schedule test pins.

use super::limiter::TokenBucket;
use super::transport::{Envelope, RtNetwork};
use crate::host::{Grant, Host};
use crate::peer::Peer;
use crate::protocol::Wire;
use asymshare_crypto::chacha20::ChaChaRng;
use asymshare_obs::{Counter, EventSink, Histogram};
use std::collections::HashMap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Serve-side coalescing bound `B`: at most this many `MessageData` frames
/// share one datagram. Large enough to amortize per-send channel and fault
/// bookkeeping, small enough that one datagram never monopolizes a pass's
/// quota (with 32 KiB payloads, 8 frames ≈ 256 KiB ≈ one default burst).
pub const MAX_COALESCE: usize = 8;

/// The most frames a connection may have unacknowledged. Also each
/// peer's share of the [`BufferPool`](super::BufferPool) sizing.
const WINDOW_FRAMES: usize = 64;
/// Idle park duration, bounding scheduling latency when no traffic arrives
/// (an inbound datagram wakes the loop immediately).
const TICK: Duration = Duration::from_millis(1);
/// Fairness telemetry is time-gated so a sub-millisecond pass cadence does
/// not flood the event ring.
const SHARE_EMIT_EVERY: Duration = Duration::from_millis(250);
/// Free-list cap bounds for the window-derived pool sizing.
const POOL_MIN_SLOTS: usize = 32;
const POOL_MAX_SLOTS: usize = 4096;

/// A [`Reactor`]'s settings: none. The window and the idle tick are
/// constants; the type stays, as `ReactorConfig::default()`, only because
/// the benchmark harness names it.
#[derive(Debug, Clone, Default)]
pub struct ReactorConfig {}

/// Control-plane messages from the [`Reactor`] handle to its worker.
enum Ctrl {
    AddPeer {
        addr: u64,
        // Boxed: a Peer is hundreds of bytes and Shutdown carries nothing.
        peer: Box<Peer>,
        upload_bytes_per_sec: u64,
    },
    Shutdown,
}

/// One hosted peer.
struct Slot {
    addr: u64,
    host: Host,
    rng: ChaChaRng,
    bucket: TokenBucket,
    /// Per connection, the Eq.-2 grants not yet reported.
    granted: HashMap<u64, f64>,
    last_share_emit: Option<Instant>,
    /// The pass's grants, reused so a steady-state pass allocates nothing.
    grants: Vec<Grant>,
}

/// Pre-resolved observability handles for the worker (inert when the
/// network has no registry/sink attached).
struct WorkerObs {
    events: EventSink,
    served_frames: Counter,
    served_bytes: Counter,
    backpressure: Counter,
    coalesce_frames: Histogram,
    queue_depth: Histogram,
    pass_us: Histogram,
    passes: Counter,
}

impl WorkerObs {
    fn new(net: &RtNetwork) -> WorkerObs {
        let metrics = net.metrics();
        WorkerObs {
            events: net.events().clone(),
            served_frames: metrics.counter("rt.reactor.served_frames"),
            served_bytes: metrics.counter("rt.reactor.served_bytes"),
            backpressure: metrics.counter("rt.reactor.backpressure_yields"),
            coalesce_frames: metrics.histogram("rt.reactor.coalesce_frames"),
            queue_depth: metrics.histogram("rt.reactor.queue_depth"),
            pass_us: metrics.histogram("rt.reactor.pass_us"),
            passes: metrics.counter("rt.reactor.passes"),
        }
    }
}

/// An event-loop runtime hosting many [`Peer`]s on one worker thread (see
/// module docs). Dropping the handle shuts the worker down; prefer
/// [`shutdown`](Reactor::shutdown) to get the peers (and their final
/// ledgers) back.
pub struct Reactor {
    network: RtNetwork,
    ctrl: Sender<Ctrl>,
    ingress: Sender<Envelope>,
    handle: Option<JoinHandle<Vec<(u64, Peer)>>>,
    addrs: Vec<u64>,
}

impl std::fmt::Debug for Reactor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reactor")
            .field("peers", &self.addrs.len())
            .finish()
    }
}

impl Reactor {
    /// Spawns the worker (initially hosting no peers).
    pub fn new(network: &RtNetwork, _cfg: ReactorConfig) -> Reactor {
        let (ctrl, ctrl_rx) = channel::<Ctrl>();
        let (ingress, ingress_rx) = channel::<Envelope>();
        let net = network.clone();
        let handle = std::thread::Builder::new()
            .name("asymshare-reactor".to_owned())
            .spawn(move || run_worker(net, ctrl_rx, ingress_rx))
            .expect("spawn reactor worker thread");
        Reactor {
            network: network.clone(),
            ctrl,
            ingress,
            handle: Some(handle),
            addrs: Vec::new(),
        }
    }

    /// Hosts a peer at `addr`. `upload_bytes_per_sec` shapes the uplink
    /// through a token bucket (burst: a tenth of a second, at least
    /// 64 KiB).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is already registered on the network.
    pub fn add_peer(&mut self, addr: u64, peer: Peer, upload_bytes_per_sec: u64) {
        self.network.register_queue(addr, self.ingress.clone());
        let sent = self.ctrl.send(Ctrl::AddPeer {
            addr,
            peer: Box::new(peer),
            upload_bytes_per_sec,
        });
        assert!(sent.is_ok(), "reactor worker alive");
        self.addrs.push(addr);
        // Deep windows would thrash a fixed-size frame pool: one buffer is
        // held per datagram in flight, so size the free list from the sum of
        // per-peer windows (in datagrams, i.e. frames over the coalescing
        // bound), within sane bounds.
        let frames = self.addrs.len() * WINDOW_FRAMES;
        let cap = (frames / MAX_COALESCE).clamp(POOL_MIN_SLOTS, POOL_MAX_SLOTS);
        self.network.buffer_pool().set_capacity(cap);
    }

    /// Peers currently hosted.
    pub fn peer_count(&self) -> usize {
        self.addrs.len()
    }

    /// Stops the worker and returns every hosted peer (with its final
    /// ledger/store), sorted by address.
    ///
    /// # Panics
    ///
    /// Panics if the worker thread panicked.
    pub fn shutdown(mut self) -> Vec<(u64, Peer)> {
        let mut peers = self.stop().expect("reactor worker panicked");
        peers.sort_by_key(|(addr, _)| *addr);
        peers
    }

    /// Asks the worker to stop, joins it and unregisters the peers; the
    /// worker's peers, or `None` if it panicked (or was stopped before).
    fn stop(&mut self) -> Option<Vec<(u64, Peer)>> {
        let _ = self.ctrl.send(Ctrl::Shutdown);
        let peers = self.handle.take().and_then(|h| h.join().ok());
        for addr in self.addrs.drain(..) {
            self.network.unregister(addr);
        }
        peers
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The worker's event loop (see module docs for the cycle structure).
fn run_worker(
    net: RtNetwork,
    ctrl_rx: Receiver<Ctrl>,
    ingress_rx: Receiver<Envelope>,
) -> Vec<(u64, Peer)> {
    let mut slots: Vec<Slot> = Vec::new();
    let mut by_addr: HashMap<u64, usize> = HashMap::new();
    let obs = WorkerObs::new(&net);
    let mut idle = false;
    let mut shutdown = false;
    loop {
        shutdown |= apply_ctrl(&ctrl_rx, &mut slots, &mut by_addr);
        if shutdown {
            // The grants since the last report go out before the peers do.
            for slot in &mut slots {
                emit_shares(slot, &obs.events);
            }
            return slots.into_iter().map(|s| (s.addr, s.host.peer)).collect();
        }
        net.pump();
        let mut progressed = false;
        // Completion drain: park on the shared queue only when the
        // previous cycle was fully idle, so active serving never sleeps
        // and an idle reactor costs one parked thread.
        let mut next = if idle {
            ingress_rx.recv_timeout(TICK).ok()
        } else {
            ingress_rx.try_recv().ok()
        };
        while let Some(envelope) = next {
            progressed = true;
            if !by_addr.contains_key(&envelope.to) {
                // `add_peer` registers the address before its `AddPeer`
                // reaches the worker, so a datagram can overtake it; the
                // control message was sent first and is in the queue by now.
                shutdown |= apply_ctrl(&ctrl_rx, &mut slots, &mut by_addr);
            }
            if let Some(&i) = by_addr.get(&envelope.to) {
                deliver(&mut slots[i], &net, envelope);
            }
            next = ingress_rx.try_recv().ok();
        }
        let now = Instant::now();
        for slot in &mut slots {
            progressed |= pass(slot, &net, now, &obs);
        }
        idle = !progressed;
    }
}

/// Applies every queued control message; `true` once shutdown was asked.
fn apply_ctrl(
    ctrl_rx: &Receiver<Ctrl>,
    slots: &mut Vec<Slot>,
    by_addr: &mut HashMap<u64, usize>,
) -> bool {
    while let Ok(ctrl) = ctrl_rx.try_recv() {
        match ctrl {
            Ctrl::AddPeer {
                addr,
                peer,
                upload_bytes_per_sec,
            } => {
                let rate = upload_bytes_per_sec as f64;
                let mut nonce = [0u8; 12];
                nonce[..8].copy_from_slice(&addr.to_le_bytes());
                by_addr.insert(addr, slots.len());
                slots.push(Slot {
                    addr,
                    host: Host::new(*peer, MAX_COALESCE, WINDOW_FRAMES),
                    rng: ChaChaRng::new([0x7F; 32], nonce),
                    bucket: TokenBucket::new(rate, (rate * 0.1).max(65_536.0), Instant::now()),
                    granted: HashMap::new(),
                    last_share_emit: None,
                    grants: Vec::new(),
                });
            }
            Ctrl::Shutdown => return true,
        }
    }
    false
}

/// Hands one inbound datagram to a slot's host and sends the replies.
fn deliver(slot: &mut Slot, net: &RtNetwork, envelope: Envelope) {
    let (conn, mut replies) = (envelope.from, Vec::new());
    let frames = envelope.decode_all().map_while(Result::ok);
    slot.host
        .on_datagram(conn, frames, &mut slot.rng, &mut replies);
    if !replies.iter().all(|reply| net.send(slot.addr, conn, reply)) {
        // The user vanished mid-handshake.
        slot.host.disconnect(conn);
        slot.granted.remove(&conn);
    }
    net.recycle_envelope(envelope);
}

/// One serve pass over a slot: drain the bucket into the host's pass,
/// refund the overflow, and flush what was staged as coalesced datagrams.
/// Returns whether anything was sent.
fn pass(slot: &mut Slot, net: &RtNetwork, now: Instant, obs: &WorkerObs) -> bool {
    // `now` is the cycle's clock, shared by every slot so the token buckets
    // see one instant; the pass itself is timed from its own start, or slot
    // i's sample would count slots 0..i again.
    let pass_started = Instant::now();
    slot.host.set_adversary(net.adversary_for(slot.addr));
    let Slot {
        addr,
        host,
        bucket,
        granted,
        last_share_emit,
        grants,
        ..
    } = slot;
    let addr = *addr;
    // Every token the uplink has accrued moves into the pass; what the
    // connections may not keep goes back. The bucket is thus never
    // overdrawn, whatever a frame's length.
    let budget = bucket.drain(now);
    grants.clear();
    let overflow = host.pass(budget, bucket.burst(), grants);
    bucket.refund(overflow);
    let (mut served_any, mut yielded) = (false, false);
    for g in grants.iter() {
        *granted.entry(g.conn).or_default() += g.bytes;
        if g.full {
            // The user has a full window unacknowledged: yield.
            obs.backpressure.inc();
            yielded = true;
        }
        let staged = host.staged(g.conn);
        if staged.is_empty() {
            continue;
        }
        obs.served_frames.add(staged.len() as u64);
        let bytes: usize = staged.iter().map(Wire::encoded_len).sum();
        obs.served_bytes.add(bytes as u64);
        obs.queue_depth.record(staged.len() as u64);
        // Flush the submission queue as coalesced datagrams; a failed send
        // means the downloader deregistered: stop burning uplink on it.
        let alive = staged.chunks(MAX_COALESCE).all(|batch| {
            obs.coalesce_frames.record(batch.len() as u64);
            net.send_frames(addr, g.conn, batch)
        });
        staged.clear();
        served_any = true;
        if !alive {
            host.disconnect(g.conn);
            granted.remove(&g.conn);
        }
    }
    if obs.events.is_enabled()
        && last_share_emit.is_none_or(|t| now.duration_since(t) >= SHARE_EMIT_EVERY)
    {
        *last_share_emit = Some(now);
        emit_shares(slot, &obs.events);
    }
    // A pass that had nothing to stage is not a sample: on a shaped link
    // that is most passes, and they would drown the ones that did work.
    if served_any || yielded {
        obs.passes.inc();
        obs.pass_us
            .record(pass_started.elapsed().as_micros() as u64);
    }
    served_any
}

/// Reports, per connection, the bytes of Eq.-2 grant it received since
/// its last report.
fn emit_shares(slot: &mut Slot, events: &EventSink) {
    for (&conn, granted) in &mut slot.granted {
        if *granted > 0.0 {
            let budget = std::mem::take(granted);
            events.emit(
                "rt.reactor",
                "slot_share",
                &[
                    ("peer", slot.addr.into()),
                    ("conn", conn.into()),
                    ("budget_bytes", budget.into()),
                ],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::SystemError;
    use crate::identity::Identity;
    use crate::rt::transport::Inbox;
    use crate::rt::{download_file, download_file_with, DownloadOptions, FaultPlan};
    use crate::user::User;
    use asymshare_gf::{FieldKind, Gf2p32};
    use asymshare_obs::{EventSink, Registry};
    use asymshare_rlnc::{ChunkedEncoder, CodecError, DigestKind, FileId};

    fn build_file(
        owner: &Identity,
        n_peers: usize,
        len: usize,
    ) -> (
        Vec<Vec<asymshare_rlnc::EncodedMessage>>,
        asymshare_rlnc::FileManifest,
    ) {
        let data: Vec<u8> = (0..len).map(|i| (i * 59 % 251) as u8).collect();
        let mut enc = ChunkedEncoder::<Gf2p32>::with_chunk_size(
            FieldKind::Gf2p32,
            4,
            DigestKind::Md5,
            owner.coding_secret().clone(),
            FileId(6),
            &data,
            16 * 1024,
        )
        .unwrap();
        let batches = enc.encode_for_peers(n_peers).unwrap();
        (batches, enc.manifest().clone())
    }

    fn spawn_fleet(
        network: &RtNetwork,
        owner: &Identity,
        batches: Vec<Vec<asymshare_rlnc::EncodedMessage>>,
        base_addr: u64,
        seed_tag: u8,
        cfg: ReactorConfig,
    ) -> (Reactor, Vec<(u64, [u8; 64])>) {
        let mut reactor = Reactor::new(network, cfg);
        let mut peer_addrs = Vec::new();
        for (i, batch) in batches.into_iter().enumerate() {
            let identity = Identity::from_seed(&[b'x', seed_tag, i as u8]);
            let key = identity.public_key().to_bytes();
            let mut peer = Peer::new(identity, 1_000.0);
            peer.add_subscriber(owner.public_key().to_bytes());
            for m in batch {
                peer.store_mut().insert(m);
            }
            let addr = base_addr + i as u64;
            reactor.add_peer(addr, peer, 4 << 20);
            peer_addrs.push((addr, key));
        }
        (reactor, peer_addrs)
    }

    /// Hosts `n` more peers that subscribe to `owner` and store nothing.
    fn add_idle_peers(reactor: &mut Reactor, owner: &Identity, base_addr: u64, n: u64) {
        for i in 0..n {
            let identity = Identity::from_seed(&[b'i', b'd', i as u8]);
            let mut peer = Peer::new(identity, 1_000.0);
            peer.add_subscriber(owner.public_key().to_bytes());
            reactor.add_peer(base_addr + i, peer, 1 << 20);
        }
    }

    fn fault_seed() -> u64 {
        std::env::var("ASYMSHARE_FAULT_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(42)
    }

    #[test]
    fn reactor_download_from_three_peers() {
        let network = RtNetwork::new();
        let owner = Identity::from_seed(b"reactor-owner");
        let (batches, manifest) = build_file(&owner, 3, 96 * 1024);
        let (reactor, peer_addrs) =
            spawn_fleet(&network, &owner, batches, 900, 1, ReactorConfig::default());
        assert_eq!(reactor.peer_count(), 3);
        let mut user = User::<Gf2p32>::new(owner, manifest).unwrap();
        let data = download_file(
            &network,
            1,
            &mut user,
            &peer_addrs,
            peer_addrs[0].0,
            Duration::from_secs(30),
        )
        .expect("download completes");
        let expect: Vec<u8> = (0..96 * 1024).map(|i| (i * 59 % 251) as u8).collect();
        assert_eq!(data, expect);
        let peers = reactor.shutdown();
        assert_eq!(peers.len(), 3);
        assert_eq!(peers[0].0, 900, "peers come back sorted by address");
    }

    #[test]
    fn idle_hosted_peers_do_not_stall_serving() {
        let network = RtNetwork::new();
        let owner = Identity::from_seed(b"reactor-crowd");
        let (batches, manifest) = build_file(&owner, 3, 96 * 1024);
        let (mut reactor, peer_addrs) =
            spawn_fleet(&network, &owner, batches, 3000, 4, ReactorConfig::default());
        add_idle_peers(&mut reactor, &owner, 4000, 253);
        assert_eq!(reactor.peer_count(), 256);
        let mut user = User::<Gf2p32>::new(owner, manifest).unwrap();
        let data = download_file(
            &network,
            4,
            &mut user,
            &peer_addrs,
            peer_addrs[0].0,
            Duration::from_secs(30),
        )
        .expect("download completes");
        let expect: Vec<u8> = (0..96 * 1024).map(|i| (i * 59 % 251) as u8).collect();
        assert_eq!(data, expect);
        assert_eq!(reactor.shutdown().len(), 256);
    }

    #[test]
    fn datagram_racing_its_peers_registration_is_served() {
        // `add_peer` makes the address routable before the worker has the
        // peer; a commit sent straight away must still be answered.
        use crate::session::Prover;
        let owner = Identity::from_seed(b"reactor-race");
        let mut rng = ChaChaRng::new([0x52; 32], *b"reactor-race");
        for round in 0..200u64 {
            let network = RtNetwork::new();
            let inbox = network.register(1);
            let mut reactor = Reactor::new(&network, ReactorConfig::default());
            let mut peer = Peer::new(Identity::from_seed(b"reactor-race-peer"), 1_000.0);
            peer.add_subscriber(owner.public_key().to_bytes());
            let commit = Prover::new(owner.auth_keys().clone()).start(&mut rng);
            reactor.add_peer(7, peer, 1 << 20);
            assert!(network.send(1, 7, &commit));
            let reply = inbox.recv_timeout(Duration::from_secs(5));
            assert!(reply.is_some(), "round {round}: the commit was dropped");
            reactor.shutdown();
        }
    }

    /// Authenticates `user` with every peer and returns the file requests
    /// it would send next, unsent.
    fn handshake(
        network: &RtNetwork,
        inbox: &Inbox,
        my_addr: u64,
        user: &mut User<Gf2p32>,
        peer_addrs: &[(u64, [u8; 64])],
        rng: &mut ChaChaRng,
    ) -> Vec<(u64, Wire)> {
        for &(addr, key) in peer_addrs {
            assert!(network.send(my_addr, addr, &user.connect(addr, key, rng)));
        }
        let mut requests = Vec::new();
        while requests.len() < peer_addrs.len() {
            let envelope = inbox
                .recv_timeout(Duration::from_secs(10))
                .expect("handshake reply");
            let reply = envelope.decode().expect("one control frame");
            for (conn, wire) in user.on_message(envelope.from, reply, rng).unwrap() {
                if matches!(wire, Wire::FileRequest { .. }) {
                    requests.push((conn, wire));
                } else {
                    assert!(network.send(my_addr, conn, &wire));
                }
            }
        }
        requests
    }

    /// The benchmark's staged client loop in miniature: admit a datagram's
    /// frames, send the replies — the user's acks among them — and recycle
    /// the buffer.
    fn admit(
        network: &RtNetwork,
        my_addr: u64,
        user: &mut User<Gf2p32>,
        envelope: Envelope,
        rng: &mut ChaChaRng,
    ) {
        for frame in envelope.decode_all() {
            match user.on_message(envelope.from, frame.unwrap(), rng) {
                Ok(replies) => {
                    for (conn, reply) in replies {
                        network.send(my_addr, conn, &reply);
                    }
                }
                Err(SystemError::Codec(CodecError::DuplicateMessage { .. })) => {}
                Err(e) => panic!("{e}"),
            }
        }
        network.recycle_envelope(envelope);
    }

    fn receive_until_complete(
        network: &RtNetwork,
        inbox: &Inbox,
        my_addr: u64,
        user: &mut User<Gf2p32>,
        rng: &mut ChaChaRng,
    ) {
        while !user.is_complete() {
            let envelope = inbox
                .recv_timeout(Duration::from_secs(10))
                .expect("the peers keep serving");
            admit(network, my_addr, user, envelope, rng);
        }
    }

    #[test]
    fn a_user_that_stops_reading_holds_exactly_one_window() {
        let network = RtNetwork::with_observability(Registry::new(), EventSink::new());
        let owner = Identity::from_seed(b"reactor-hold");
        let len = 1 << 20;
        let (batches, manifest) = build_file(&owner, 1, len);
        let (reactor, peer_addrs) =
            spawn_fleet(&network, &owner, batches, 910, 2, ReactorConfig::default());
        let inbox = network.register(2);
        let mut user = User::<Gf2p32>::new(owner, manifest).unwrap();
        let mut rng = ChaChaRng::new([0x6B; 32], *b"reactor-hold");
        for (conn, request) in handshake(&network, &inbox, 2, &mut user, &peer_addrs, &mut rng) {
            assert!(network.send(2, conn, &request));
        }
        // The user stops reading: the peer fills one window, then yields.
        let counter = |name| network.metrics_snapshot().counter(name).unwrap_or(0);
        let deadline = Instant::now() + Duration::from_secs(10);
        while counter("rt.reactor.backpressure_yields") == 0 {
            assert!(Instant::now() < deadline, "the window never filled");
            std::thread::sleep(Duration::from_millis(5));
        }
        std::thread::sleep(Duration::from_millis(50));
        let held: Vec<Envelope> = std::iter::from_fn(|| inbox.try_recv()).collect();
        let frames = held
            .iter()
            .flat_map(Envelope::decode_all)
            .filter(|f| matches!(f, Ok(Wire::MessageData(_))))
            .count() as u64;
        let window = WINDOW_FRAMES as u64;
        assert_eq!(frames, window, "the user holds exactly one window");
        assert_eq!(counter("rt.reactor.served_frames"), window, "and no more");
        // Reading the inbox acks the window and reopens it; the fetch
        // completes.
        for envelope in held {
            admit(&network, 2, &mut user, envelope, &mut rng);
        }
        receive_until_complete(&network, &inbox, 2, &mut user, &mut rng);
        let expect: Vec<u8> = (0..len).map(|i| (i * 59 % 251) as u8).collect();
        assert_eq!(user.decode().unwrap(), expect);
        assert!(counter("rt.reactor.served_frames") > window);
        reactor.shutdown();
    }

    #[test]
    fn a_receive_reply_recycle_loop_completes_a_multi_chunk_fetch() {
        // A client that only sends what `User::on_message` returns — no
        // engine, no persist timer — reopens its windows: the user's
        // replies carry its acks.
        let network = RtNetwork::new();
        let owner = Identity::from_seed(b"reactor-staged");
        let len = 384 * 1024;
        let (batches, manifest) = build_file(&owner, 3, len);
        let (reactor, peer_addrs) =
            spawn_fleet(&network, &owner, batches, 970, 6, ReactorConfig::default());
        let inbox = network.register(7);
        let mut user = User::<Gf2p32>::new(owner, manifest).unwrap();
        let mut rng = ChaChaRng::new([0x5D; 32], *b"rt-download!");
        for (conn, request) in handshake(&network, &inbox, 7, &mut user, &peer_addrs, &mut rng) {
            assert!(network.send(7, conn, &request));
        }
        receive_until_complete(&network, &inbox, 7, &mut user, &mut rng);
        let expect: Vec<u8> = (0..len).map(|i| (i * 59 % 251) as u8).collect();
        assert_eq!(user.decode().unwrap(), expect);
        reactor.shutdown();
    }

    #[test]
    fn lossy_link_completes_with_observability_on() {
        let network = RtNetwork::with_observability(Registry::new(), EventSink::new());
        let owner = Identity::from_seed(b"reactor-lossy");
        // Coalescing packs the whole file into a handful of datagrams, so
        // the workload must be big (many datagrams) and the loss heavy for
        // the data path itself to observe drops under every CI fault seed.
        let (batches, manifest) = build_file(&owner, 3, 384 * 1024);
        let (reactor, peer_addrs) =
            spawn_fleet(&network, &owner, batches, 920, 3, ReactorConfig::default());
        network.install_faults(
            FaultPlan::new(fault_seed())
                .with_loss(0.25)
                .with_corruption(0.02),
        );
        let mut user = User::<Gf2p32>::new(owner, manifest).unwrap();
        let data = download_file_with(
            &network,
            3,
            &mut user,
            &peer_addrs,
            peer_addrs[0].0,
            DownloadOptions {
                timeout: Duration::from_secs(60),
                stall_timeout: Duration::from_millis(300),
                retry_backoff: Duration::from_millis(100),
                max_peer_retries: 10,
            },
        )
        .expect("download heals through loss and corruption");
        let expect: Vec<u8> = (0..384 * 1024).map(|i| (i * 59 % 251) as u8).collect();
        assert_eq!(data, expect);
        assert!(network.fault_stats().dropped > 0, "losses were injected");
        reactor.shutdown();
    }

    #[test]
    fn pool_capacity_tracks_window_limits() {
        let network = RtNetwork::new();
        let owner = Identity::from_seed(b"reactor-pool");
        assert_eq!(network.buffer_pool().capacity(), 32);
        let mut reactor = Reactor::new(&network, ReactorConfig::default());
        add_idle_peers(&mut reactor, &owner, 2000, 64);
        // 64 peers x 64-frame windows / 8-frame datagrams = 512 buffers.
        assert_eq!(network.buffer_pool().capacity(), 512);
        reactor.shutdown();
        assert!(!network.is_registered(2000), "shutdown unregisters peers");
    }

    /// `slot_share` reports the Eq.-2 grant a connection received since its
    /// last report, so over a run its `budget_bytes` add up to its share of
    /// what the bucket drained: alone on the peer, with a window that never
    /// fills, what it was sent plus the bank it held when it left (under a
    /// burst and a frame).
    #[test]
    fn slot_shares_add_up_to_each_connections_grant() {
        use asymshare_obs::Value;
        let network = RtNetwork::with_observability(Registry::new(), EventSink::new());
        let owner = Identity::from_seed(b"reactor-shares");
        let (batches, manifest) = build_file(&owner, 1, 256 * 1024);
        let (reactor, peer_addrs) =
            spawn_fleet(&network, &owner, batches, 960, 7, ReactorConfig::default());
        let served = || {
            let snapshot = network.metrics_snapshot();
            snapshot.counter("rt.reactor.served_bytes").unwrap_or(0) as f64
        };
        let mut sent = Vec::new();
        for user_addr in [20u64, 21] {
            let before = served();
            let mut user = User::<Gf2p32>::new(owner.clone(), manifest.clone()).unwrap();
            download_file(
                &network,
                user_addr,
                &mut user,
                &peer_addrs,
                peer_addrs[0].0,
                Duration::from_secs(30),
            )
            .expect("download completes");
            // The stop lands within the millisecond; nothing is sent after.
            std::thread::sleep(Duration::from_millis(100));
            sent.push((user_addr, served() - before));
        }
        reactor.shutdown();
        let burst = 65_536.0_f64.max(0.1 * f64::from(4u32 << 20));
        let frame = (4 * 1024 + 64) as f64;
        let log = network.events().events();
        for (conn, sent) in sent {
            let granted: f64 = log
                .iter()
                .filter(|e| e.component == "rt.reactor" && e.kind == "slot_share")
                .filter(|e| e.fields.contains(&("conn", Value::U64(conn))))
                .filter_map(
                    |e| match e.fields.iter().find(|(n, _)| *n == "budget_bytes") {
                        Some((_, Value::F64(bytes))) => Some(*bytes),
                        _ => None,
                    },
                )
                .sum();
            assert!(sent > 0.0);
            assert!(
                granted >= sent && granted <= sent + burst + frame,
                "connection {conn}: granted {granted} B in reports, sent {sent} B"
            );
        }
    }
}
