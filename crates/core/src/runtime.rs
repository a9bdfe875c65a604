//! The end-to-end simulated deployment: peers and users exchanging the real
//! wire protocol over the [`asymshare_netsim`] flow simulator.
//!
//! Every protocol byte rides a simulated flow: handshakes, file requests,
//! coded messages, stop-transmissions and signed feedback all contend for
//! the same asymmetric links, so download durations, init-phase costs and
//! allocation dynamics come out of one consistent model. Peers re-divide
//! their uplinks once per slot (1 s, like the paper's simulator) using the
//! Eq.-2 weights accumulated from their users' signed feedback.

use crate::error::SystemError;
use crate::fetch::{Fetch, Out};
use crate::host::{adversary, corrupt_message, Grant, Host};
use crate::identity::Identity;
use crate::peer::{KeyBytes, Peer};
use crate::protocol::Wire;
use crate::recovery::LadderConfig;
use crate::user::{SessionStats, User};
use asymshare_crypto::chacha20::ChaChaRng;
use asymshare_gf::{FieldKind, Gf2p32};
use asymshare_netsim::{
    Event, EventKind, FaultPlan, FaultStats, LinkSpeed, NodeId, SimNet, SimTime,
};
use asymshare_obs::{Counter, EventSink, Histogram, Registry, Snapshot, Value};
use asymshare_rlnc::{
    ChunkedEncoder, CodecError, DigestKind, EncodedMessage, FileId, FileManifest,
};
use std::collections::{BTreeMap, HashMap};

/// Base delay between replacement requests for the same `(conn, chunk)`,
/// simulated seconds (the ladder doubles it per consecutive request).
const REPL_BACKOFF_BASE_SECS: f64 = 0.5;

/// Allocation slot length in simulated seconds: the paper's simulator
/// re-divides every uplink once a second (§V).
pub const SLOT_SECS: f64 = 1.0;

/// The Eq.-2 credit every peer starts each party at, bytes.
pub const INITIAL_CREDIT_BYTES: f64 = 1_000.0;

/// Frames a connection may have unacknowledged: a sim flow carries one,
/// so downlink congestion back-pressures the serve pass instead of piling
/// flows up.
const WINDOW_FRAMES: usize = 2;

/// Runtime tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct RuntimeConfig {
    /// Slots between the user's feedback reports to its home peer.
    pub feedback_every_slots: u64,
    /// Pieces per chunk (`k`) used when encoding.
    pub k: usize,
    /// Chunk size in bytes (1 MB in the paper; tests use smaller).
    pub chunk_size: usize,
    /// Simulated seconds without progress on a connection before the
    /// downloader declares it stalled and starts recovery.
    pub stall_timeout_secs: f64,
    /// Base delay between recovery attempts on a stalled connection,
    /// seconds; doubles with each consecutive retry.
    pub retry_backoff_secs: f64,
    /// Consecutive fruitless recoveries before a connection is written off
    /// and its demand re-planned onto a surviving peer.
    pub max_peer_retries: u32,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            feedback_every_slots: 10,
            k: 8,
            chunk_size: asymshare_rlnc::CHUNK_SIZE,
            stall_timeout_secs: 10.0,
            retry_backoff_secs: 2.0,
            max_peer_retries: 3,
        }
    }
}

/// Handle to a registered participant (home peer + its user identity).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ParticipantId(pub usize);

/// Handle to a download session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SessionId(pub usize);

/// Outcome of a completed download.
#[derive(Debug, Clone)]
pub struct DownloadReport {
    /// The decoded file contents.
    pub data: Vec<u8>,
    /// Wall-clock duration in simulated seconds.
    pub duration_secs: f64,
    /// Mean goodput in kbps over the download.
    pub mean_rate_kbps: f64,
    /// Innovative messages absorbed.
    pub innovative: u64,
    /// Redundant messages received (parallelism overhead).
    pub redundant: u64,
    /// Bytes received per serving participant.
    pub per_peer_bytes: HashMap<usize, u64>,
    /// Fault/recovery counters accumulated by the session's user.
    pub stats: SessionStats,
    /// Deployment-wide metrics at report time (empty unless
    /// [`SimRuntime::enable_observability`] was called).
    pub metrics: Snapshot,
}

struct Participant {
    /// The peer's serving engine, which this runtime drives.
    host: Host,
    /// The peer identity's public key, as ledgers and handshakes name it.
    key: KeyBytes,
    node: NodeId,
    up_kbps: f64,
}

struct Session {
    /// The download's client engine: the user, its recovery ladder on
    /// simulated seconds, and what each connection delivered.
    fetch: Fetch,
    home: usize,
    remote_node: NodeId,
    // Conn id -> participant index. Ordered, so reports and trace spans
    // walk the connections the same way in every run.
    conns: BTreeMap<u64, usize>,
    started_at: SimTime,
    finished_at: Option<SimTime>,
    /// The error the engine ended the fetch with.
    failed: Option<SystemError>,
    /// Lifecycle instants for the trace timeline (filled only while the
    /// event sink is enabled; emitted as closed spans at completion).
    trace: SessionTrace,
}

/// Download→request→chunk→replacement lifecycle instants, reassembled into
/// nested spans when the session completes.
#[derive(Debug, Default)]
struct SessionTrace {
    conn_last: HashMap<u64, f64>,
    chunk_first: HashMap<u32, f64>,
    chunk_done: HashMap<u32, f64>,
    /// Served replacements: `(conn, chunk, requested_at, served_at)`.
    repl_spans: Vec<(u64, u32, f64, f64)>,
    spans_emitted: bool,
}

#[derive(Clone, Copy)]
enum Endpoint {
    ToPeer { participant: usize, conn: u64 },
    ToUser { session: usize, conn: u64 },
    StoreDeposit { participant: usize },
}

struct Pending {
    endpoint: Endpoint,
    wire: Wire,
}

/// Pre-resolved observability handles for the simulated deployment — inert
/// (single-branch no-ops) until [`SimRuntime::enable_observability`] swaps
/// in live instruments. Hooks are pure bookkeeping: they draw no randomness
/// and never touch simulated time, so an observed run's schedule is
/// byte-identical to an unobserved one.
#[derive(Debug, Clone, Default)]
struct SimObs {
    metrics: Registry,
    events: EventSink,
    /// Flows whose payload fault injection dropped in transit.
    drops: Counter,
    /// Data messages delivered with a corrupted payload.
    corruptions: Counter,
    /// Messages the user's digest check rejected.
    digest_rejections: Counter,
    /// Per-slot per-connection Eq.-2 budgets, bytes.
    alloc_budget_bytes: Histogram,
    /// Request-to-serve latency of digest-replacement round trips, µs.
    replacement_rtt_us: Histogram,
}

impl SimObs {
    fn enabled() -> SimObs {
        let metrics = Registry::new();
        SimObs {
            drops: metrics.counter("sim.deliver.drops"),
            corruptions: metrics.counter("sim.deliver.corruptions"),
            digest_rejections: metrics.counter("sim.deliver.digest_rejections"),
            alloc_budget_bytes: metrics.histogram("sim.alloc.budget_bytes"),
            replacement_rtt_us: metrics.histogram("sim.deliver.replacement_rtt_us"),
            metrics,
            events: EventSink::new(),
        }
    }
}

impl Session {
    /// The frame bytes the engine took from participant `p`, over every
    /// connection to it.
    fn peer_bytes(&self, p: usize) -> u64 {
        self.conns
            .iter()
            .filter(|&(_, &q)| q == p)
            .map(|(&conn, _)| self.fetch.tally(conn).bytes)
            .sum()
    }
}

/// The simulated deployment.
pub struct SimRuntime {
    cfg: RuntimeConfig,
    net: SimNet,
    participants: Vec<Participant>,
    sessions: Vec<Session>,
    pending: HashMap<u64, Pending>,
    next_tag: u64,
    next_conn: u64,
    slot: u64,
    rng: ChaChaRng,
    obs: SimObs,
    /// Scratch for the serve passes' grants, reused so a pass allocates
    /// nothing at steady state.
    grants: Vec<Grant>,
}

impl SimRuntime {
    /// A fresh deployment with the given configuration.
    pub fn new(cfg: RuntimeConfig) -> SimRuntime {
        SimRuntime {
            cfg,
            net: SimNet::new(),
            participants: Vec::new(),
            sessions: Vec::new(),
            pending: HashMap::new(),
            next_tag: 0,
            next_conn: 0,
            slot: 0,
            rng: ChaChaRng::new([0xE7; 32], *b"sim-runtime!"),
            obs: SimObs::default(),
            grants: Vec::new(),
        }
    }

    /// The configuration this deployment runs under.
    pub fn config(&self) -> &RuntimeConfig {
        &self.cfg
    }

    /// Turns on metrics and event tracing for this deployment. Events carry
    /// simulated timestamps and the hooks draw no randomness, so enabling
    /// observability never changes a seeded run's schedule. Every slot ends
    /// with its per-peer `window`/`balance` aggregates and a `health`/
    /// `window` heartbeat, the instants at which
    /// [`health::replay`](asymshare_obs::health::replay) closes a window.
    pub fn enable_observability(&mut self) {
        self.obs = SimObs::enabled();
    }

    /// The deployment's event log so far (empty unless observability is on).
    pub fn event_log(&self) -> Vec<asymshare_obs::Event> {
        self.obs.events.events()
    }

    /// The event log serialized as JSONL, one event per line.
    pub fn events_jsonl(&self) -> String {
        self.obs.events.to_jsonl()
    }

    /// A point-in-time copy of every deployment metric, with per-peer store
    /// bytes, per-session decode progress, network totals and the events
    /// the log's ring has dropped (`obs.dropped_events`) refreshed first.
    /// The Eq.-2 credit matrix is [`credit_matrix`](Self::credit_matrix).
    /// Empty unless [`enable_observability`](Self::enable_observability)
    /// was called.
    pub fn metrics_snapshot(&self) -> Snapshot {
        let metrics = &self.obs.metrics;
        if metrics.is_enabled() {
            for (i, p) in self.participants.iter().enumerate() {
                metrics
                    .gauge(&format!("sim.store.p{i}.bytes"))
                    .set(p.host.peer.store().total_bytes() as f64);
            }
            for (i, s) in self.sessions.iter().enumerate() {
                metrics
                    .gauge(&format!("sim.session.s{i}.progress"))
                    .set(s.fetch.user().progress());
                metrics
                    .gauge(&format!("sim.session.s{i}.rank"))
                    .set(s.fetch.user().independent_count() as f64);
            }
            let totals = self.net.totals();
            metrics
                .gauge("sim.net.flows_started")
                .set(totals.flows_started as f64);
            metrics
                .gauge("sim.net.flows_completed")
                .set(totals.flows_completed as f64);
            metrics
                .gauge("sim.net.flows_lost")
                .set(totals.flows_lost as f64);
            metrics
                .gauge("sim.net.flows_corrupted")
                .set(totals.flows_corrupted as f64);
            metrics
                .gauge("sim.net.bytes_delivered")
                .set(totals.bytes_delivered as f64);
            metrics
                .gauge("obs.dropped_events")
                .set(self.obs.events.dropped_events() as f64);
        }
        metrics.snapshot()
    }

    /// The Eq.-2 credit matrix: `matrix[i][j]` is peer `i`'s upload weight
    /// for participant `j`'s user key (initial credit plus bytes credited
    /// through signed feedback). Available with or without observability.
    pub fn credit_matrix(&self) -> Vec<Vec<f64>> {
        let keys: Vec<KeyBytes> = self.participants.iter().map(|p| p.key).collect();
        self.participants
            .iter()
            .map(|p| keys.iter().map(|k| p.host.peer.upload_weight(k)).collect())
            .collect()
    }

    /// Registers a participant: a home peer with the given identity and
    /// asymmetric link.
    pub fn add_participant(
        &mut self,
        identity: Identity,
        up: LinkSpeed,
        down: LinkSpeed,
    ) -> ParticipantId {
        let node = self.net.add_node(up, down);
        let key = identity.public_key().to_bytes();
        // A flow carries one frame.
        let peer = Peer::new(identity, INITIAL_CREDIT_BYTES);
        let mut host = Host::new(peer, 1, WINDOW_FRAMES);
        host.set_adversary(self.net.fault_plan().and_then(|plan| adversary(plan, node)));
        self.participants.push(Participant {
            host,
            key,
            node,
            up_kbps: up.as_kbps(),
        });
        let id = ParticipantId(self.participants.len() - 1);
        // Everyone subscribes everyone registered so far (the "system
        // subscribers" set); callers can add more via `peer_mut`.
        let keys: Vec<KeyBytes> = self.participants.iter().map(|p| p.key).collect();
        for p in &mut self.participants {
            for k in &keys {
                p.host.peer.add_subscriber(*k);
            }
        }
        id
    }

    /// Direct access to a participant's peer (e.g. to cap its store).
    pub fn peer_mut(&mut self, id: ParticipantId) -> &mut Peer {
        &mut self.participants[id.0].host.peer
    }

    /// Changes a participant's access link mid-simulation (the Fig. 8(b)
    /// capacity drop, or a full outage with a zero uplink). Takes effect on
    /// in-flight flows immediately and on allocation from the next slot.
    pub fn set_participant_link(&mut self, id: ParticipantId, up: LinkSpeed, down: LinkSpeed) {
        let node = self.participants[id.0].node;
        self.net.set_link(node, up, down);
        self.participants[id.0].up_kbps = up.as_kbps();
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.net.now()
    }

    /// Installs a deterministic fault plan (loss, corruption, jitter,
    /// outages, Byzantine strategies): link faults on the underlying
    /// network simulator, each adversary on its participant's `Host`,
    /// whose decisions hash off the plan's seed independently of the
    /// link-fault RNG, so adding an adversary never shifts honest faults.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        for p in &mut self.participants {
            p.host.set_adversary(adversary(&plan, p.node));
        }
        self.net.set_fault_plan(plan);
    }

    /// Removes any installed fault plan; subsequent traffic is clean.
    pub fn clear_fault_plan(&mut self) {
        for p in &mut self.participants {
            p.host.set_adversary(None);
        }
        self.net.clear_fault_plan();
    }

    /// Counters of faults injected since the plan was installed.
    pub fn fault_stats(&self) -> FaultStats {
        self.net.fault_stats()
    }

    /// The simulator node backing a participant — the handle fault plans
    /// and outages target.
    pub fn participant_node(&self, id: ParticipantId) -> NodeId {
        self.participants[id.0].node
    }

    /// Runs the paper's initialization phase: encodes `data` under the
    /// owner's secret and uploads one decodable batch per target peer over
    /// the owner's (slow) uplink. Returns the manifest and the simulated
    /// seconds the dissemination took.
    ///
    /// # Errors
    ///
    /// Codec errors from encoding.
    pub fn disseminate(
        &mut self,
        owner: ParticipantId,
        file_id: FileId,
        data: &[u8],
        targets: &[ParticipantId],
    ) -> Result<(FileManifest, f64), SystemError> {
        let secret = self.participants[owner.0]
            .host
            .peer
            .identity()
            .coding_secret()
            .clone();
        let mut enc = ChunkedEncoder::<Gf2p32>::with_chunk_size(
            FieldKind::Gf2p32,
            self.cfg.k,
            DigestKind::Md5,
            secret,
            file_id,
            data,
            self.cfg.chunk_size,
        )?;
        let start = self.net.now();
        let batches = enc.encode_for_peers(targets.len())?;
        for (target, batch) in targets.iter().zip(batches) {
            if target.0 == owner.0 {
                // Local deposit: no network transfer needed.
                for m in batch {
                    self.participants[target.0].host.peer.store_mut().insert(m);
                }
                continue;
            }
            for m in batch {
                self.deposit(owner.0, target.0, m);
            }
        }
        // Drain the upload phase to completion.
        while let Some(event) = self.net.step() {
            self.deliver(event);
        }
        let duration = (self.net.now() - start).as_secs();
        Ok((enc.manifest().clone(), duration))
    }

    /// Starts a remote download: the owner's user appears at a fresh remote
    /// node with the given link and contacts `peers` in parallel.
    ///
    /// # Errors
    ///
    /// Manifest/decoder errors.
    pub fn start_download(
        &mut self,
        owner: ParticipantId,
        manifest: FileManifest,
        remote_up: LinkSpeed,
        remote_down: LinkSpeed,
        peers: &[ParticipantId],
    ) -> Result<SessionId, SystemError> {
        let identity = self.participants[owner.0].host.peer.identity().clone();
        let user = User::<Gf2p32>::new(identity, manifest)?;
        let remote_node = self.net.add_node(remote_up, remote_down);
        let mut conns = BTreeMap::new();
        let mut keys = Vec::with_capacity(peers.len());
        for &pid in peers {
            let conn = self.next_conn;
            self.next_conn += 1;
            conns.insert(conn, pid.0);
            keys.push((conn, self.participants[pid.0].key));
        }
        let now = self.net.now();
        let ladder = LadderConfig {
            stall_secs: self.cfg.stall_timeout_secs,
            retry_backoff_secs: self.cfg.retry_backoff_secs,
            max_retries: self.cfg.max_peer_retries,
            replacement_base_secs: REPL_BACKOFF_BASE_SECS,
        };
        let mut out = Vec::new();
        let fetch = Fetch::new(user, &keys, ladder, now.as_secs(), &mut self.rng, &mut out);
        self.sessions.push(Session {
            fetch,
            home: owner.0,
            remote_node,
            conns,
            started_at: now,
            finished_at: None,
            failed: None,
            trace: SessionTrace::default(),
        });
        // The handshake commits.
        let session = self.sessions.len() - 1;
        self.carry_out(session, &mut out, now.as_secs());
        Ok(SessionId(session))
    }

    /// Advances the deployment by `slots` allocation slots.
    pub fn run_slots(&mut self, slots: u64) {
        for _ in 0..slots {
            self.slot += 1;
            self.heal_sessions();
            self.grant_slot();
            if self.slot.is_multiple_of(self.cfg.feedback_every_slots) {
                self.send_feedback_reports();
            }
            let deadline = self.net.now().advance(SLOT_SECS);
            while let Some(event) = self.net.step_until(deadline) {
                self.deliver(event);
            }
            self.report_window();
        }
    }

    /// Whether a session's download has decoded completely.
    pub fn session_complete(&self, session: SessionId) -> bool {
        self.sessions[session.0].fetch.user().is_complete()
    }

    /// Runs until the session completes or `max_slots` elapse.
    ///
    /// # Errors
    ///
    /// The error the session's engine ended the fetch with (every peer
    /// written off or refused, a protocol error on an authenticated
    /// connection), or [`SystemError::Codec`] with the real message counts
    /// if the deadline passes before completion.
    pub fn run_to_completion(
        &mut self,
        session: SessionId,
        max_slots: u64,
    ) -> Result<DownloadReport, SystemError> {
        for _ in 0..max_slots {
            self.run_slots(1);
            let s = &self.sessions[session.0];
            if s.failed.is_some() || s.fetch.user().is_complete() {
                return self.report(session);
            }
        }
        let user = self.sessions[session.0].fetch.user();
        Err(SystemError::Codec(CodecError::NotEnoughMessages {
            have: user.independent_count(),
            need: user.messages_needed(),
        }))
    }

    /// Builds the report for a completed session.
    ///
    /// # Errors
    ///
    /// The error the session's engine ended the fetch with; decoder errors
    /// when the session is incomplete.
    pub fn report(&mut self, session: SessionId) -> Result<DownloadReport, SystemError> {
        let now = self.net.now();
        let metrics = self.metrics_snapshot();
        let s = &mut self.sessions[session.0];
        if let Some(e) = &s.failed {
            return Err(e.clone());
        }
        let data = s.fetch.user().decode()?;
        let finished = *s.finished_at.get_or_insert(now);
        let duration = (finished - s.started_at).as_secs().max(1e-9);
        let per_peer_bytes: HashMap<usize, u64> = s
            .conns
            .values()
            .map(|&p| (p, s.peer_bytes(p)))
            .filter(|&(_, bytes)| bytes > 0)
            .collect();
        let total_bytes: u64 = per_peer_bytes.values().sum();
        let user = s.fetch.user();
        Ok(DownloadReport {
            duration_secs: duration,
            mean_rate_kbps: total_bytes as f64 * 8.0 / duration / 1_000.0,
            innovative: user.innovative_count(),
            redundant: user.redundant_count(),
            per_peer_bytes,
            stats: user.stats().clone(),
            metrics,
            data,
        })
    }

    /// A session's fault and recovery counters so far, whether or not its
    /// fetch succeeded.
    pub fn session_stats(&self, session: SessionId) -> &SessionStats {
        self.sessions[session.0].fetch.user().stats()
    }

    /// A session's download progress in `[0, 1]`.
    pub fn progress(&self, session: SessionId) -> f64 {
        self.sessions[session.0].fetch.user().progress()
    }

    /// Starts the flow carrying `wire` from `src` to `dst`, for `endpoint`.
    fn start_flow(&mut self, src: NodeId, dst: NodeId, endpoint: Endpoint, wire: Wire) {
        let size = wire.encoded_len().max(1) as u64;
        let tag = self.next_tag;
        self.next_tag += 1;
        self.pending.insert(tag, Pending { endpoint, wire });
        self.net.start_flow(src, dst, size, tag);
    }

    /// Starts the flow depositing a coded message from participant `from`
    /// with participant `to`.
    fn deposit(&mut self, from: usize, to: usize, msg: EncodedMessage) {
        let endpoint = Endpoint::StoreDeposit { participant: to };
        let (from, to) = (self.participants[from].node, self.participants[to].node);
        self.start_flow(from, to, endpoint, Wire::MessageData(msg));
    }

    /// Slot phase 1: every peer's `Host` divides one slot of its uplink
    /// per Eq. 2 and starts flows for what it staged. The overflow is
    /// dropped: a slot's capacity does not outlive it.
    fn grant_slot(&mut self) {
        for p_idx in 0..self.participants.len() {
            self.pass(p_idx, true);
        }
    }

    /// One `Host` pass over participant `p_idx`, granting a slot of its
    /// uplink at a slot boundary and nothing otherwise (an acknowledgement
    /// re-opens a window, and the deficits carry the rest of the slot).
    /// The boundary's grants become `slot_share` events; each staged frame
    /// becomes a bulk flow to its session's user.
    fn pass(&mut self, p_idx: usize, boundary: bool) {
        let mut grants = std::mem::take(&mut self.grants);
        grants.clear();
        let p = &mut self.participants[p_idx];
        let slot_bytes = p.up_kbps * 1_000.0 / 8.0 * SLOT_SECS;
        let budget = if boundary { slot_bytes } else { 0.0 };
        p.host.pass(budget, slot_bytes, &mut grants);
        let ts = self.net.now().as_secs();
        for g in &grants {
            let Some(s_idx) = self.session_of(g.conn) else {
                continue;
            };
            if boundary {
                self.obs.alloc_budget_bytes.record(g.bytes as u64);
                self.obs.events.emit_at(
                    ts,
                    "sim.alloc",
                    "slot_share",
                    &[
                        ("slot", self.slot.into()),
                        ("peer", p_idx.into()),
                        ("session", s_idx.into()),
                        ("conn", g.conn.into()),
                        ("weight", g.weight.into()),
                        ("share", g.share.into()),
                        ("budget_bytes", g.bytes.into()),
                    ],
                );
            }
            let p = &mut self.participants[p_idx];
            let mut staged = std::mem::take(p.host.staged(g.conn));
            let (from, to) = (p.node, self.sessions[s_idx].remote_node);
            let endpoint = Endpoint::ToUser {
                session: s_idx,
                conn: g.conn,
            };
            for wire in staged.drain(..) {
                self.start_flow(from, to, endpoint, wire);
            }
            *self.participants[p_idx].host.staged(g.conn) = staged;
        }
        self.grants = grants;
    }

    /// The session connection `conn` belongs to.
    fn session_of(&self, conn: u64) -> Option<usize> {
        self.sessions
            .iter()
            .position(|s| s.conns.contains_key(&conn))
    }

    /// Slot phase 2: users send signed feedback to their home peers.
    fn send_feedback_reports(&mut self) {
        let now_secs = self.net.now().as_secs() as u64;
        for s_idx in 0..self.sessions.len() {
            let user = self.sessions[s_idx].fetch.user_mut();
            if user.window_bytes().is_empty() {
                continue;
            }
            let report = user.make_feedback(now_secs, &mut self.rng);
            self.obs.events.emit_at(
                self.net.now().as_secs(),
                "sim.feedback",
                "report",
                &[
                    ("session", s_idx.into()),
                    ("entries", report.entries.len().into()),
                ],
            );
            let participant = self.sessions[s_idx].home;
            let remote = self.sessions[s_idx].remote_node;
            let home_node = self.participants[participant].node;
            let conn = u64::MAX - s_idx as u64; // dedicated feedback lane
            let endpoint = Endpoint::ToPeer { participant, conn };
            self.start_flow(remote, home_node, endpoint, Wire::Feedback(report));
        }
    }

    /// Routes a completed flow's payload to its destination state machine.
    ///
    /// Fault injection surfaces here: a [`EventKind::FlowLost`] flow spent
    /// its bytes on the links but delivers nothing, and a
    /// [`EventKind::FlowCorrupted`] data message reaches the user with a
    /// flipped payload bit so the digest check rejects it downstream.
    fn deliver(&mut self, event: Event) {
        let Some(Pending { endpoint, wire }) = self.pending.remove(&event.tag) else {
            return;
        };
        self.land(endpoint, wire, event.kind);
    }

    /// Hands a completed flow's payload to its destination.
    fn land(&mut self, endpoint: Endpoint, wire: Wire, kind: EventKind) {
        if kind == EventKind::FlowLost {
            // The payload is gone in transit: the network's view counts
            // it, the user sees nothing.
            self.obs.drops.inc();
            if let Endpoint::ToUser { session, conn } = endpoint {
                let fields = self.conn_fields(session, conn, &[]);
                let now = self.net.now().as_secs();
                self.obs.events.emit_at(now, "sim.deliver", "drop", &fields);
            }
            return;
        }
        let corrupted = kind == EventKind::FlowCorrupted;
        match endpoint {
            Endpoint::StoreDeposit { participant } => {
                // The depositing owner's transfer layer drops garbage.
                if let (false, Wire::MessageData(msg)) = (corrupted, wire) {
                    let peer = &mut self.participants[participant].host.peer;
                    peer.store_mut().insert(msg);
                }
            }
            Endpoint::ToPeer { participant, conn } => {
                if corrupted {
                    // Peers discard control frames that fail to parse.
                    return;
                }
                let mut replies = Vec::new();
                let acked = matches!(wire, Wire::Ack { .. });
                let host = &mut self.participants[participant].host;
                host.on_datagram(conn, [wire], &mut self.rng, &mut replies);
                // An ack may have opened the connection's window.
                if acked {
                    self.pass(participant, false);
                }
                // Find the session this connection belongs to (if any).
                let Some(s_idx) = self.session_of(conn) else {
                    return;
                };
                let (from, to) = (
                    self.participants[participant].node,
                    self.sessions[s_idx].remote_node,
                );
                let endpoint = Endpoint::ToUser {
                    session: s_idx,
                    conn,
                };
                for reply in replies {
                    self.start_flow(from, to, endpoint, reply);
                }
            }
            Endpoint::ToUser { session, conn } => {
                let wire = match (corrupted, wire) {
                    (true, Wire::MessageData(msg)) => match corrupt_message(&msg) {
                        Some(mangled) => {
                            self.obs.corruptions.inc();
                            let fields = self.conn_fields(session, conn, &[]);
                            let now = self.net.now().as_secs();
                            self.obs
                                .events
                                .emit_at(now, "sim.deliver", "corruption", &fields);
                            mangled
                        }
                        // Empty payload: nothing to flip, the frame
                        // silently evaporates (no stats change, keeping
                        // seeded replays identical).
                        None => return,
                    },
                    // A mangled control frame fails to parse: the user sees
                    // nothing.
                    (true, _) => return,
                    (false, wire) => wire,
                };
                if self.sessions[session].failed.is_some() {
                    return;
                }
                let ts = self.net.now().as_secs();
                if self.obs.events.is_enabled() {
                    let trace = &mut self.sessions[session].trace;
                    if let Wire::MessageData(msg) = &wire {
                        let chunk = FileManifest::chunk_of(msg.message_id());
                        trace.chunk_first.entry(chunk).or_insert(ts);
                    }
                    trace.conn_last.insert(conn, ts);
                }
                let was_complete = self.sessions[session].fetch.user().is_complete();
                let mut out = Vec::new();
                let s = &mut self.sessions[session];
                if let Err(e) =
                    s.fetch
                        .on_datagram(conn, &mut vec![wire], ts, &mut self.rng, &mut out)
                {
                    s.failed = Some(e);
                }
                self.carry_out(session, &mut out, ts);
                if !was_complete && self.sessions[session].fetch.user().is_complete() {
                    self.sessions[session].finished_at = Some(self.net.now());
                    if self.obs.events.is_enabled() {
                        self.emit_trace_spans(session);
                    }
                }
            }
        }
    }

    /// Per-slot self-healing pass: polls each unfinished session's engine
    /// and carries out what is due on the simulated wire.
    fn heal_sessions(&mut self) {
        let now = self.net.now().as_secs();
        let mut out = Vec::new();
        for s_idx in 0..self.sessions.len() {
            let session = &mut self.sessions[s_idx];
            if session.finished_at.is_some() || session.failed.is_some() {
                continue;
            }
            if let Err(e) = session.fetch.poll(now, &mut self.rng, &mut out) {
                session.failed = Some(e);
            }
            self.carry_out(s_idx, &mut out, now);
        }
    }

    /// Carries out, in order, what a session's engine asked for at `ts`,
    /// draining `out`: frames go to the peers, notes become `sim.deliver`
    /// and `sim.heal` events and trace marks.
    fn carry_out(&mut self, s_idx: usize, out: &mut Vec<Out>, ts: f64) {
        for item in out.drain(..) {
            match item {
                Out::Send(conn, wire) => self.send_to_peer(s_idx, conn, wire),
                note => self.note(s_idx, note, ts),
            }
        }
    }

    /// Turns one of a session's engine notes into its events and trace marks.
    fn note(&mut self, s_idx: usize, note: Out, ts: f64) {
        let events = self.obs.events.clone();
        let on = |conn, more: &[_]| self.conn_fields(s_idx, conn, more);
        let (component, kind, fields) = match note {
            Out::Send(..) | Out::Stale { .. } => return,
            Out::DigestReject {
                conn,
                chunk,
                replaced,
            } => {
                self.obs.digest_rejections.inc();
                let fields = on(conn, &[("chunk", chunk.into())]);
                if replaced {
                    events.emit_at(ts, "sim.deliver", "digest_reject", &fields);
                    ("sim.deliver", "replacement_request", fields)
                } else {
                    ("sim.deliver", "digest_reject", fields)
                }
            }
            Out::Duplicate { conn } => ("sim.deliver", "duplicate", on(conn, &[])),
            Out::Served {
                conn,
                chunk,
                requested,
                at,
            } => {
                if !events.is_enabled() {
                    return;
                }
                let rtt_us = ((at - requested) * 1e6).round();
                let fields = on(conn, &[("chunk", chunk.into()), ("rtt_us", rtt_us.into())]);
                self.obs.replacement_rtt_us.record(rtt_us as u64);
                let trace = &mut self.sessions[s_idx].trace;
                trace.repl_spans.push((conn, chunk, requested, at));
                ("sim.deliver", "replacement_served", fields)
            }
            // Chunk spans end when decoding did.
            Out::Ranked { chunk, .. } => {
                if events.is_enabled() {
                    let trace = &mut self.sessions[s_idx].trace;
                    trace.chunk_done.entry(chunk).or_insert(ts);
                }
                return;
            }
            Out::Retry { conn, attempt } => (
                "sim.heal",
                "retry",
                on(conn, &[("attempt", attempt.into())]),
            ),
            Out::WriteOff { conn } => ("sim.heal", "write_off", on(conn, &[])),
            // Nothing is passed over any more; the field keeps the log's
            // format.
            Out::Reassign { target } => {
                let fields = vec![
                    ("session", s_idx.into()),
                    ("target", target.into()),
                    ("deprioritized", 0usize.into()),
                ];
                ("sim.heal", "reassign", fields)
            }
            Out::Quarantine { conn, strategy } => (
                "sim.heal",
                "quarantine",
                on(conn, &[("strategy", strategy.into())]),
            ),
        };
        events.emit_at(ts, component, kind, &fields);
    }

    /// A session's connection as events name it — the participant behind
    /// it, the session, the connection — then `more`.
    fn conn_fields(
        &self,
        s_idx: usize,
        conn: u64,
        more: &[(&'static str, Value)],
    ) -> Vec<(&'static str, Value)> {
        let peer = self.sessions[s_idx].conns[&conn];
        let conn = [
            ("peer", peer.into()),
            ("session", s_idx.into()),
            ("conn", conn.into()),
        ];
        [&conn, more].concat()
    }

    /// Sends a control frame from a session's user to the peer behind
    /// `conn`.
    fn send_to_peer(&mut self, s_idx: usize, conn: u64, wire: Wire) {
        let Some(&p_idx) = self.sessions[s_idx].conns.get(&conn) else {
            return;
        };
        let (from, to) = (
            self.sessions[s_idx].remote_node,
            self.participants[p_idx].node,
        );
        let endpoint = Endpoint::ToPeer {
            participant: p_idx,
            conn,
        };
        self.start_flow(from, to, endpoint, wire);
    }

    /// Slot epilogue with observability on: the slot's per-peer aggregates
    /// as events, then a `health`/`window` heartbeat at the slot deadline,
    /// where [`health::replay`](asymshare_obs::health::replay) closes a
    /// window.
    fn report_window(&mut self) {
        if !self.obs.events.is_enabled() {
            return;
        }
        let ts = self.net.now().as_secs();
        // Data messages accepted per serving participant this slot.
        let mut msgs: BTreeMap<usize, u64> = BTreeMap::new();
        for session in &mut self.sessions {
            let conns = &session.conns;
            session.fetch.drain_window(|conn, n| {
                *msgs.entry(conns[&conn]).or_insert(0) += n;
            });
        }
        for (p_idx, n) in msgs {
            self.obs.events.emit_at(
                ts,
                "sim.deliver",
                "window",
                &[("peer", p_idx.into()), ("msgs", n.into())],
            );
        }
        self.emit_credit_balances(ts);
        self.obs
            .events
            .emit_at(ts, "health", "window", &[("slot", self.slot.into())]);
    }

    /// Emits one `sim.credit`/`balance` event per serving participant:
    /// `drift` is the credit the session's home peer has ledgered for that
    /// participant (Eq. 2, beyond the initial allowance) minus the wire
    /// bytes it actually delivered. Honest feedback lags deliveries, so
    /// drift sits at or below zero; a positive excursion means credit was
    /// claimed for bytes never served.
    fn emit_credit_balances(&mut self, ts: f64) {
        let mut drift: std::collections::BTreeMap<usize, f64> = std::collections::BTreeMap::new();
        for session in &self.sessions {
            let home = &self.participants[session.home].host.peer;
            for &p_idx in session.conns.values() {
                if p_idx == session.home {
                    continue;
                }
                let key = self.participants[p_idx].key;
                let credited = home.upload_weight(&key) - INITIAL_CREDIT_BYTES;
                let delivered = session.peer_bytes(p_idx) as f64;
                *drift.entry(p_idx).or_insert(0.0) += credited - delivered;
            }
        }
        for (p_idx, d) in drift {
            self.obs.events.emit_at(
                ts,
                "sim.credit",
                "balance",
                &[("peer", p_idx.into()), ("drift", d.into())],
            );
        }
    }

    /// Lays a completed session's lifecycle down as nested spans: one
    /// `download` root, a `request` child per connection, a `chunk` child
    /// per decoded chunk and a `replacement` child per served digest
    /// replacement. All events are stamped at the completion instant (the
    /// log stays monotonic) and carry explicit `start`/`dur_us` fields for
    /// the waterfall.
    fn emit_trace_spans(&mut self, s_idx: usize) {
        if self.sessions[s_idx].trace.spans_emitted {
            return;
        }
        self.sessions[s_idx].trace.spans_emitted = true;
        let ts = self.net.now().as_secs();
        let start = self.sessions[s_idx].started_at.as_secs();
        let events = self.obs.events.clone();
        let root = events.emit_span_at(
            ts,
            start,
            ts,
            "sim.trace",
            "download",
            None,
            &[("session", s_idx.into())],
        );
        let session = &self.sessions[s_idx];
        // Every connection was opened when the download started.
        for (&conn, &peer) in &session.conns {
            let t1 = session.trace.conn_last.get(&conn).copied().unwrap_or(start);
            events.emit_span_at(
                ts,
                start,
                t1,
                "sim.trace",
                "request",
                Some(root),
                &[("conn", conn.into()), ("peer", peer.into())],
            );
        }
        let mut chunks: Vec<u32> = session.trace.chunk_first.keys().copied().collect();
        chunks.sort_unstable();
        for chunk in chunks {
            let t0 = session.trace.chunk_first[&chunk];
            let t1 = session.trace.chunk_done.get(&chunk).copied().unwrap_or(ts);
            events.emit_span_at(
                ts,
                t0,
                t1,
                "sim.trace",
                "chunk",
                Some(root),
                &[("chunk", chunk.into())],
            );
        }
        for &(conn, chunk, t_req, t_served) in &session.trace.repl_spans {
            events.emit_span_at(
                ts,
                t_req,
                t_served,
                "sim.trace",
                "replacement",
                Some(root),
                &[("conn", conn.into()), ("chunk", chunk.into())],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asymshare_rlnc::MessageId;

    fn kbps(v: f64) -> LinkSpeed {
        LinkSpeed::kbps(v)
    }

    fn small_cfg() -> RuntimeConfig {
        RuntimeConfig {
            feedback_every_slots: 5,
            k: 4,
            chunk_size: 16 * 1024,
            ..RuntimeConfig::default()
        }
    }

    fn data(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 31 % 251) as u8).collect()
    }

    #[test]
    fn end_to_end_remote_access_beats_single_uplink() {
        let mut rt = SimRuntime::new(small_cfg());
        // 4 cable-modem peers: 256 kbps up, 3 Mbps down.
        let ids: Vec<ParticipantId> = (0..4u8)
            .map(|i| rt.add_participant(Identity::from_seed(&[b'p', i]), kbps(256.0), kbps(3000.0)))
            .collect();
        let payload = data(256 * 1024); // 256 KB home video snippet
        let (manifest, init_secs) = rt
            .disseminate(ids[0], FileId(1), &payload, &ids)
            .expect("dissemination");
        assert!(init_secs > 0.0, "uploading to 3 remote peers takes time");

        let session = rt
            .start_download(ids[0], manifest, kbps(256.0), kbps(3000.0), &ids)
            .expect("session");
        let report = rt
            .run_to_completion(session, 600)
            .expect("download completes");
        assert_eq!(report.data, payload);
        // Aggregated peers must beat any single 256 kbps uplink.
        assert!(
            report.mean_rate_kbps > 256.0 * 1.5,
            "aggregate rate {} kbps should be well above one uplink",
            report.mean_rate_kbps
        );
        assert!(
            report.per_peer_bytes.len() >= 3,
            "several peers contributed"
        );
    }

    #[test]
    fn download_duration_matches_aggregate_capacity() {
        let mut rt = SimRuntime::new(small_cfg());
        let ids: Vec<ParticipantId> = (0..3u8)
            .map(|i| {
                rt.add_participant(Identity::from_seed(&[b'q', i]), kbps(512.0), kbps(10_000.0))
            })
            .collect();
        let payload = data(64 * 1024);
        let (manifest, _) = rt.disseminate(ids[0], FileId(2), &payload, &ids).unwrap();
        let session = rt
            .start_download(ids[0], manifest, kbps(512.0), kbps(10_000.0), &ids)
            .unwrap();
        let report = rt.run_to_completion(session, 600).unwrap();
        // Ideal time: 64 KB × (k+overhead)/k over 3 × 512 kbps ≈ 0.35 s; with
        // slotting, handshakes and per-message granularity allow ~20x slack.
        assert!(
            report.duration_secs < 20.0,
            "duration {}s unreasonable",
            report.duration_secs
        );
        assert_eq!(report.data, payload);
    }

    #[test]
    fn feedback_builds_credit_at_home_peer() {
        let mut rt = SimRuntime::new(small_cfg());
        let ids: Vec<ParticipantId> = [b"A", b"B", b"C"]
            .iter()
            .map(|&seed| rt.add_participant(Identity::from_seed(seed), kbps(512.0), kbps(3000.0)))
            .collect();
        let (a, b, c) = (ids[0], ids[1], ids[2]);
        let payload = data(64 * 1024);
        let (manifest, _) = rt.disseminate(a, FileId(3), &payload, &ids).unwrap();
        let key = |rt: &SimRuntime, p: ParticipantId| rt.participants[p.0].key;
        let (b_key, c_key) = (key(&rt, b), key(&rt, c));
        let before = rt.participants[a.0].host.peer.upload_weight(&b_key);
        let session = rt
            .start_download(a, manifest, kbps(512.0), kbps(3000.0), &ids)
            .unwrap();
        let report = rt.run_to_completion(session, 600).unwrap();
        // Let the final feedback report flush.
        rt.run_slots(rt.cfg.feedback_every_slots + 2);
        let after = rt.participants[a.0].host.peer.upload_weight(&b_key);
        assert!(
            after > before,
            "A's ledger must credit B for served bytes ({before} -> {after})"
        );
        // Equal uplinks serve equal bytes and earn near-equal credit at home.
        let bytes: Vec<f64> = report.per_peer_bytes.values().map(|&v| v as f64).collect();
        assert_eq!(bytes.len(), 3, "every peer contributed");
        let jain = asymshare_alloc::jain_index(&bytes);
        assert!(jain >= 0.99, "byte Jain {jain:.3} over {bytes:?}");
        let other = rt.participants[a.0].host.peer.upload_weight(&c_key);
        assert!(
            after.min(other) >= 0.75 * after.max(other),
            "home credit {after} vs {other}"
        );
    }

    #[test]
    fn observability_records_without_perturbing_results() {
        let run = |observed: bool| {
            let mut rt = SimRuntime::new(small_cfg());
            if observed {
                rt.enable_observability();
            }
            let ids: Vec<ParticipantId> = (0..3u8)
                .map(|i| {
                    rt.add_participant(Identity::from_seed(&[b'o', i]), kbps(512.0), kbps(3000.0))
                })
                .collect();
            let payload = data(64 * 1024);
            let (manifest, _) = rt.disseminate(ids[0], FileId(7), &payload, &ids).unwrap();
            let session = rt
                .start_download(ids[0], manifest, kbps(512.0), kbps(3000.0), &ids)
                .unwrap();
            let report = rt.run_to_completion(session, 600).unwrap();
            (report, rt)
        };
        let (plain, _) = run(false);
        let (observed, rt) = run(true);
        // Observation is pure bookkeeping: the simulated outcome is identical.
        assert_eq!(plain.duration_secs, observed.duration_secs);
        assert_eq!(plain.per_peer_bytes, observed.per_peer_bytes);
        // The disabled run yields an empty snapshot; the enabled one carries
        // netsim totals and the ring's drop count.
        assert!(plain.metrics.is_empty());
        assert!(!observed.metrics.is_empty());
        assert!(observed.metrics.gauge("sim.net.bytes_delivered").unwrap() > 0.0);
        assert_eq!(observed.metrics.gauge("obs.dropped_events"), Some(0.0));
        // Credit matrix rows cover every participant pair.
        let matrix = rt.credit_matrix();
        assert_eq!(matrix.len(), 3);
        assert!(matrix.iter().all(|row| row.len() == 3));
        // Allocation decisions were traced.
        assert!(rt
            .event_log()
            .iter()
            .any(|e| e.component == "sim.alloc" && e.kind == "slot_share"));
        assert!(rt.events_jsonl().contains("\"component\": \"sim.alloc\""));
    }

    #[test]
    fn incomplete_download_times_out_with_error() {
        let mut rt = SimRuntime::new(small_cfg());
        let a = rt.add_participant(Identity::from_seed(b"A2"), kbps(256.0), kbps(3000.0));
        let b = rt.add_participant(Identity::from_seed(b"B2"), kbps(256.0), kbps(3000.0));
        let payload = data(256 * 1024);
        let (manifest, _) = rt.disseminate(a, FileId(4), &payload, &[a, b]).unwrap();
        let session = rt
            .start_download(a, manifest, kbps(256.0), kbps(3000.0), &[a, b])
            .unwrap();
        // 2 slots is nowhere near enough for 256 KB over 512 kbps aggregate.
        assert!(rt.run_to_completion(session, 2).is_err());
        assert!(rt.progress(session) < 1.0);
    }

    /// A data flow is sized by the frame it carries. The file's last chunk
    /// is an eighth of the others, so its messages are shorter than the
    /// first stored one; each must still go out (and be debited from the
    /// Eq.-2 deficit) at its own length.
    #[test]
    fn data_flows_carry_exactly_their_frames() {
        let cfg = small_cfg();
        let mut rt = SimRuntime::new(cfg);
        let owner = rt.add_participant(Identity::from_seed(b"tail"), kbps(256.0), kbps(3000.0));
        let payload = data(3 * cfg.chunk_size + cfg.chunk_size / 8);
        let (manifest, _) = rt
            .disseminate(owner, FileId(5), &payload, &[owner])
            .unwrap();
        let session = rt
            .start_download(owner, manifest, kbps(256.0), kbps(3000.0), &[owner])
            .unwrap();
        // `run_slots` by hand, reading each data flow before it is delivered.
        let (mut flow_bytes, mut frame_bytes, mut flows) = (0, 0, 0);
        for _ in 0..600 {
            if rt.session_complete(session) {
                break;
            }
            rt.slot += 1;
            rt.heal_sessions();
            rt.grant_slot();
            let deadline = rt.net.now().advance(SLOT_SECS);
            while let Some(event) = rt.net.step_until(deadline) {
                if let Some(Pending {
                    endpoint: Endpoint::ToUser { .. },
                    wire: Wire::MessageData(msg),
                }) = rt.pending.get(&event.tag)
                {
                    flow_bytes += event.bytes;
                    frame_bytes += Wire::message_data_frame_len(msg) as u64;
                    flows += 1;
                }
                rt.deliver(event);
            }
        }
        assert_eq!(rt.report(session).unwrap().data, payload);
        assert_eq!(flows, 4 * cfg.k, "one batch of k per chunk");
        assert_eq!(flow_bytes, frame_bytes, "flows sized by their frames");
    }

    #[test]
    fn corrupt_message_guards_empty_payloads() {
        // Empty payload: `% payload.len()` would divide by zero — the model
        // must decline to corrupt instead of panicking.
        let empty = EncodedMessage::new(FileId(1), MessageId(7), vec![]);
        assert_eq!(corrupt_message(&empty), None);

        // Non-empty payloads flip exactly one deterministic bit, seeded by
        // the message id.
        for id in [0u64, 1, 42, u64::MAX] {
            let payload = data(100);
            let msg = EncodedMessage::new(FileId(1), MessageId(id), payload.clone());
            let Some(Wire::MessageData(mangled)) = corrupt_message(&msg) else {
                panic!("non-empty payload must corrupt");
            };
            let expected_at = (id as usize).wrapping_mul(7919) % payload.len();
            let diffs: Vec<usize> = (0..payload.len())
                .filter(|&i| mangled.payload()[i] != payload[i])
                .collect();
            assert_eq!(diffs, vec![expected_at], "one bit at the seeded position");
            assert_eq!(
                mangled.payload()[expected_at],
                payload[expected_at] ^ 1,
                "low bit flipped"
            );
            // Deterministic: the same message corrupts identically.
            assert_eq!(corrupt_message(&msg), corrupt_message(&msg));
        }

        // A single-byte payload exercises the smallest legal modulus.
        let tiny = EncodedMessage::new(FileId(1), MessageId(3), vec![0xFF]);
        let Some(Wire::MessageData(m)) = corrupt_message(&tiny) else {
            panic!("single byte corrupts");
        };
        assert_eq!(m.payload()[0], 0xFE);
    }
}
