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
use crate::fetch::{Fetch, Out, Tally};
use crate::identity::Identity;
use crate::peer::{KeyBytes, Peer};
use crate::profile::{ProfileConfig, ProfileStore};
use crate::protocol::Wire;
use crate::recovery::{LadderConfig, LadderView};
use crate::serve::{self, ServePass};
use crate::user::{SessionStats, User};
use asymshare_crypto::chacha20::ChaChaRng;
use asymshare_gf::{FieldKind, Gf2p32};
use asymshare_netsim::{
    adversary_draw, AdversaryStrategy, Event, EventKind, FaultPlan, FaultStats, LinkSpeed, NodeId,
    SimNet, SimTime,
};
use asymshare_obs::health::{HealthConfig, HealthEngine, HealthReport, HealthStream};
use asymshare_obs::{Counter, EventSink, Gauge, Histogram, Registry, Snapshot, Value};
use asymshare_rlnc::{
    ChunkedEncoder, CodecError, DigestKind, EncodedMessage, FileId, FileManifest,
};
use std::collections::{BTreeMap, HashMap, HashSet};

/// Base delay between replacement requests for the same `(conn, chunk)`,
/// simulated seconds (the ladder doubles it per consecutive request).
const REPL_BACKOFF_BASE_SECS: f64 = 0.5;

/// Runtime tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct RuntimeConfig {
    /// Allocation slot length in seconds (paper: 1 s).
    pub slot_secs: f64,
    /// Slots between the user's feedback reports to its home peer.
    pub feedback_every_slots: u64,
    /// Initial Eq.-2 credit per party, bytes.
    pub initial_credit_bytes: f64,
    /// Pieces per chunk (`k`) used when encoding.
    pub k: usize,
    /// Chunk size in bytes (1 MB in the paper; tests use smaller).
    pub chunk_size: usize,
    /// One-way propagation delay on every transfer, seconds (default 0;
    /// set ~0.02–0.1 to model WAN RTTs — it mostly taxes the handshake).
    pub latency_secs: f64,
    /// Simulated seconds without progress on a connection before the
    /// downloader declares it stalled and starts recovery.
    pub stall_timeout_secs: f64,
    /// Base delay between recovery attempts on a stalled connection,
    /// seconds; doubles with each consecutive retry.
    pub retry_backoff_secs: f64,
    /// Consecutive fruitless recoveries before a connection is written off
    /// and its demand re-planned onto a surviving peer.
    pub max_peer_retries: u32,
    /// Steer chunk sizing and fetch planning from persisted peer profiles.
    /// Off by default so seeded schedules stay byte-identical; when on,
    /// dissemination picks the ladder rung the weakest target peer can
    /// sustain and downloads contact the fastest profiled peers first.
    pub adaptive_sizing: bool,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            slot_secs: 1.0,
            feedback_every_slots: 10,
            initial_credit_bytes: 1_000.0,
            k: 8,
            chunk_size: asymshare_rlnc::CHUNK_SIZE,
            latency_secs: 0.0,
            stall_timeout_secs: 10.0,
            retry_backoff_secs: 2.0,
            max_peer_retries: 3,
            adaptive_sizing: false,
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
    peer: Peer,
    /// The peer identity's public key, as ledgers and handshakes name it.
    key: KeyBytes,
    node: NodeId,
    up_kbps: f64,
    /// Per-connection bulk-send deficits (bytes granted and not yet sent).
    serve: ServePass,
    /// Number of bulk flows currently in flight per connection.
    inflight: HashMap<u64, usize>,
    /// Last data message sent per connection — the stale copy a replaying
    /// adversary re-serves instead of fresh coded messages.
    last_sent: HashMap<u64, EncodedMessage>,
    /// Per-connection adversary decision counter, so seeded draws replay
    /// identically without consuming the shared fault RNG.
    adv_seq: HashMap<u64, u64>,
}

struct Session {
    /// The download's client engine: the user, its recovery ladder on
    /// simulated seconds, and what each connection delivered.
    fetch: Fetch,
    home: usize,
    remote_node: NodeId,
    // Conn id -> participant index. Ordered: the slot driver iterates this
    // map to start flows, and flow-start order pairs each flow with the
    // fault plan's next RNG draws — hash order here would make seeded runs
    // diverge between runtime instances.
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

enum Endpoint {
    ToPeer { participant: usize, conn: u64 },
    ToUser { session: usize, conn: u64 },
    StoreDeposit { participant: usize },
}

struct Pending {
    endpoint: Endpoint,
    wire: Option<Wire>,
    msg: Option<asymshare_rlnc::EncodedMessage>,
    /// Marks a bulk data flow so completion clears the in-flight flag.
    bulk_from: Option<(usize, u64)>,
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
    /// Wall-clock microseconds per Eq.-2 allocation pass (phase 1 of a
    /// slot) — pure instrumentation, simulated time never observes it.
    alloc_pass_us: Histogram,
    /// Allocator throughput: slots per wall-clock second, from the last
    /// pass's duration.
    alloc_slots_per_sec: Gauge,
    /// Allocation passes completed.
    alloc_slots: Counter,
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
            alloc_pass_us: metrics.histogram("alloc.pass_us"),
            alloc_slots_per_sec: metrics.gauge("alloc.slots_per_sec"),
            alloc_slots: metrics.counter("alloc.slots"),
            replacement_rtt_us: metrics.histogram("sim.deliver.replacement_rtt_us"),
            metrics,
            events: EventSink::new(),
        }
    }
}

impl Session {
    /// What the engine tallied for participant `p`, over every connection
    /// to it.
    fn peer_tally(&self, p: usize) -> Tally {
        let mut sum = Tally::default();
        for (&conn, _) in self.conns.iter().filter(|&(_, &q)| q == p) {
            let t = self.fetch.tally(conn);
            (sum.msgs, sum.bytes, sum.drops) =
                (sum.msgs + t.msgs, sum.bytes + t.bytes, sum.drops + t.drops);
        }
        sum
    }
}

/// The health engine's verdicts as a session's recovery ladder reads them,
/// through the connection → participant map (nobody is banned or sick
/// without an engine).
struct SessionView<'a> {
    conns: &'a BTreeMap<u64, usize>,
    engine: Option<&'a HealthEngine>,
}

impl SessionView<'_> {
    fn verdict(&self, conn: u64, ask: impl Fn(&HealthEngine, u64) -> bool) -> bool {
        let pair = self.engine.zip(self.conns.get(&conn));
        pair.is_some_and(|(engine, &p)| ask(engine, p as u64))
    }
}

impl LadderView for SessionView<'_> {
    fn quarantined(&self, conn: u64, now: f64) -> bool {
        self.verdict(conn, |engine, p| engine.is_quarantined(p, now))
    }

    fn sick(&self, conn: u64) -> bool {
        self.verdict(conn, HealthEngine::is_sick)
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
    /// Streaming health analytics: the engine consumes the deployment's own
    /// event log through an incremental cursor and is evaluated once per
    /// allocation slot on simulated time.
    health: Option<HealthStream>,
    /// Scratch for the per-slot allocation pass: `(conn, session, weight)`
    /// triples, reused so slots allocate nothing at steady state.
    alloc_conns: Vec<(u64, usize, f64)>,
    /// `(session, chunk)` pairs the owner has already re-disseminated, so
    /// the starvation check reacts to each shortage at most once.
    redisseminated: HashSet<(usize, u32)>,
    /// Per-peer EWMA link profiles, fed one sample per (peer, session) at
    /// download completion. Always collected (pure bookkeeping — no
    /// randomness, no simulated time); only *consulted* for chunk sizing
    /// and fetch planning when [`RuntimeConfig::adaptive_sizing`] is set.
    profiles: ProfileStore,
    profile_cfg: ProfileConfig,
}

impl SimRuntime {
    /// A fresh deployment with the given configuration.
    pub fn new(cfg: RuntimeConfig) -> SimRuntime {
        let mut net = SimNet::new();
        net.set_propagation_delay(cfg.latency_secs);
        SimRuntime {
            cfg,
            net,
            participants: Vec::new(),
            sessions: Vec::new(),
            pending: HashMap::new(),
            next_tag: 0,
            next_conn: 0,
            slot: 0,
            rng: ChaChaRng::new([0xE7; 32], *b"sim-runtime!"),
            obs: SimObs::default(),
            health: None,
            alloc_conns: Vec::new(),
            redisseminated: HashSet::new(),
            profiles: ProfileStore::new(),
            profile_cfg: ProfileConfig::default(),
        }
    }

    /// The configuration this deployment runs under.
    pub fn config(&self) -> &RuntimeConfig {
        &self.cfg
    }

    /// The peer profiles accumulated from completed downloads so far.
    pub fn profiles(&self) -> &ProfileStore {
        &self.profiles
    }

    /// Mutable profile access — e.g. to seed warm profiles from a prior
    /// deployment before the first download.
    pub fn profiles_mut(&mut self) -> &mut ProfileStore {
        &mut self.profiles
    }

    /// Loads persisted peer profiles from `path` (missing file = cold
    /// start with an empty store).
    ///
    /// # Errors
    ///
    /// I/O or format errors other than "file not found".
    pub fn load_profiles(&mut self, path: &std::path::Path) -> std::io::Result<()> {
        self.profiles = ProfileStore::load(path)?;
        Ok(())
    }

    /// Persists the current peer profiles to `path` (write-temp-then-
    /// rename, so a crash never leaves a torn store).
    ///
    /// # Errors
    ///
    /// I/O errors from the write or rename.
    pub fn save_profiles(&self, path: &std::path::Path) -> std::io::Result<()> {
        self.profiles.save(path)
    }

    /// Turns on metrics and event tracing for this deployment. Events carry
    /// simulated timestamps and the hooks draw no randomness, so enabling
    /// observability never changes a seeded run's schedule.
    pub fn enable_observability(&mut self) {
        self.obs = SimObs::enabled();
    }

    /// Turns on streaming health analytics (implies
    /// [`enable_observability`](Self::enable_observability)): detectors are
    /// evaluated once per allocation slot on simulated time, alerts appear
    /// as `health`/`alert` events, per-peer scores as `health.score.p{i}`
    /// gauges, and the heal path deprioritizes sick peers during
    /// reassignment. Like every observability hook, the engine draws no
    /// randomness and never touches simulated time.
    pub fn enable_health(&mut self, cfg: HealthConfig) {
        if !self.obs.metrics.is_enabled() {
            self.enable_observability();
        }
        self.health = Some(HealthStream::new(cfg, &self.obs.events));
    }

    /// The health engine's current per-peer report (`None` unless
    /// [`enable_health`](Self::enable_health) was called).
    pub fn health_report(&self) -> Option<HealthReport> {
        self.health.as_ref().map(|h| h.engine().report())
    }

    /// A peer's current 0–100 health score, if the engine has scored it.
    pub fn health_score(&self, id: ParticipantId) -> Option<f64> {
        self.health
            .as_ref()
            .and_then(|h| h.engine().score(id.0 as u64))
    }

    /// The deployment's event log so far (empty unless observability is on).
    pub fn event_log(&self) -> Vec<asymshare_obs::Event> {
        self.obs.events.events()
    }

    /// The event log serialized as JSONL, one event per line.
    pub fn events_jsonl(&self) -> String {
        self.obs.events.to_jsonl()
    }

    /// A point-in-time copy of every deployment metric, with the per-peer
    /// Eq.-2 credit matrix (`sim.credit.p{i}.u{j}` — peer `i`'s ledger
    /// weight for participant `j`'s user key), per-peer store bytes,
    /// per-session decode progress, and network totals refreshed first.
    /// Empty unless [`enable_observability`](Self::enable_observability)
    /// was called.
    pub fn metrics_snapshot(&self) -> Snapshot {
        let metrics = &self.obs.metrics;
        if metrics.is_enabled() {
            let keys: Vec<KeyBytes> = self.participants.iter().map(|p| p.key).collect();
            for (i, p) in self.participants.iter().enumerate() {
                for (j, key) in keys.iter().enumerate() {
                    metrics
                        .gauge(&format!("sim.credit.p{i}.u{j}"))
                        .set(p.peer.upload_weight(key));
                }
                metrics
                    .gauge(&format!("sim.store.p{i}.bytes"))
                    .set(p.peer.store().total_bytes() as f64);
                if let Some(prof) = self.profiles.profile(&keys[i]) {
                    metrics
                        .gauge(&format!("sim.profile.p{i}.rung"))
                        .set(prof.rung() as f64);
                    metrics
                        .gauge(&format!("sim.profile.p{i}.kbps"))
                        .set(prof.throughput_bps().unwrap_or(0.0) * 8.0 / 1_000.0);
                }
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
            .map(|p| keys.iter().map(|k| p.peer.upload_weight(k)).collect())
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
        let peer = Peer::new(identity, self.cfg.initial_credit_bytes);
        self.participants.push(Participant {
            peer,
            key,
            node,
            up_kbps: up.as_kbps(),
            serve: ServePass::default(),
            inflight: HashMap::new(),
            last_sent: HashMap::new(),
            adv_seq: HashMap::new(),
        });
        let id = ParticipantId(self.participants.len() - 1);
        // Everyone subscribes everyone registered so far (the "system
        // subscribers" set); callers can add more via `peer_mut`.
        let keys: Vec<KeyBytes> = self.participants.iter().map(|p| p.key).collect();
        for p in &mut self.participants {
            for k in &keys {
                p.peer.add_subscriber(*k);
            }
        }
        id
    }

    /// Direct access to a participant's peer (e.g. to cap its store).
    pub fn peer_mut(&mut self, id: ParticipantId) -> &mut Peer {
        &mut self.participants[id.0].peer
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
    /// outages, Byzantine strategies) on the underlying network simulator.
    /// Adversary assignments are realized at the protocol layer here: their
    /// decisions hash off the plan's seed independently of the link-fault
    /// RNG, so adding an adversary never shifts honest faults.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.net.set_fault_plan(plan);
    }

    /// Removes any installed fault plan; subsequent traffic is clean.
    pub fn clear_fault_plan(&mut self) {
        self.net.clear_fault_plan();
    }

    /// The strategy the installed plan assigns to participant `p_idx`'s
    /// node, with the seed its decisions hash from.
    fn adversary(&self, p_idx: usize) -> Option<(AdversaryStrategy, u64)> {
        let plan = self.net.fault_plan()?;
        let strategy = plan.adversary_for(self.participants[p_idx].node)?;
        Some((strategy, plan.seed()))
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
            .peer
            .identity()
            .coding_secret()
            .clone();
        // Adaptive sizing: encode at the ladder rung the weakest profiled
        // target can sustain; the size rides the manifest, so downloaders
        // need no negotiation. With the flag off this is exactly the
        // configured size and the schedule is byte-identical to before.
        let chunk_size = if self.cfg.adaptive_sizing {
            let target_keys: Vec<KeyBytes> =
                targets.iter().map(|t| self.participants[t.0].key).collect();
            self.profiles
                .preferred_chunk_size(&target_keys, self.cfg.chunk_size)
        } else {
            self.cfg.chunk_size
        };
        let mut enc = ChunkedEncoder::<Gf2p32>::with_chunk_size(
            FieldKind::Gf2p32,
            self.cfg.k,
            DigestKind::Md5,
            secret,
            file_id,
            data,
            chunk_size,
        )?;
        let start = self.net.now();
        let batches = enc.encode_for_peers(targets.len())?;
        for (target, batch) in targets.iter().zip(batches) {
            if target.0 == owner.0 {
                // Local deposit: no network transfer needed.
                for m in batch {
                    self.participants[target.0].peer.store_mut().insert(m);
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
        let identity = self.participants[owner.0].peer.identity().clone();
        let user = User::<Gf2p32>::new(identity, manifest)?;
        let remote_node = self.net.add_node(remote_up, remote_down);
        // Adaptive planning: contact profiled-fastest peers first, so they
        // get the lowest conn ids and the earliest flow starts. Unprofiled
        // peers keep their caller-given order (or all of them do, when the
        // flag is off — preserving seeded schedules exactly).
        let planned: Vec<ParticipantId> = if self.cfg.adaptive_sizing {
            let keys: Vec<KeyBytes> = peers.iter().map(|p| self.participants[p.0].key).collect();
            self.profiles
                .plan_order(&keys)
                .into_iter()
                .map(|i| peers[i])
                .collect()
        } else {
            peers.to_vec()
        };
        let mut conns = BTreeMap::new();
        let mut keys = Vec::with_capacity(planned.len());
        for &pid in &planned {
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
            self.start_bulk_bursts();
            if self.slot.is_multiple_of(self.cfg.feedback_every_slots) {
                self.send_feedback_reports();
            }
            let deadline = self.net.now().advance(self.cfg.slot_secs);
            while let Some(event) = self.net.step_until(deadline) {
                self.deliver(event);
            }
            self.evaluate_health();
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
            .map(|&p| (p, s.peer_tally(p).bytes))
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

    /// A session's download progress in `[0, 1]`.
    pub fn progress(&self, session: SessionId) -> f64 {
        self.sessions[session.0].fetch.user().progress()
    }

    fn alloc_tag(&mut self, pending: Pending) -> u64 {
        let tag = self.next_tag;
        self.next_tag += 1;
        self.pending.insert(tag, pending);
        tag
    }

    /// Starts the flow of a control frame from `src` to `dst`, for
    /// `endpoint`.
    fn send_control(&mut self, src: NodeId, dst: NodeId, endpoint: Endpoint, wire: Wire) {
        let size = wire.encoded_len().max(1) as u64;
        let (wire, msg, bulk_from) = (Some(wire), None, None);
        let tag = self.alloc_tag(Pending {
            endpoint,
            wire,
            msg,
            bulk_from,
        });
        self.net.start_flow(src, dst, size, tag);
    }

    /// Starts the flow depositing a coded message from participant `from`
    /// with participant `to`.
    fn deposit(&mut self, from: usize, to: usize, msg: EncodedMessage) {
        let size = Wire::message_data_frame_len(&msg) as u64;
        let endpoint = Endpoint::StoreDeposit { participant: to };
        let (wire, msg, bulk_from) = (None, Some(msg), None);
        let tag = self.alloc_tag(Pending {
            endpoint,
            wire,
            msg,
            bulk_from,
        });
        let (from, to) = (self.participants[from].node, self.participants[to].node);
        self.net.start_flow(from, to, size, tag);
    }

    /// Slot phase 1: every peer re-divides its uplink per Eq. 2 and starts
    /// bulk message flows within the accumulated per-connection deficits.
    ///
    /// The connection list is persistent scratch (`alloc_conns`), so the
    /// per-slot pass allocates nothing at steady state; the arithmetic is
    /// untouched, keeping seeded schedules byte-identical.
    fn start_bulk_bursts(&mut self) {
        let pass_start = std::time::Instant::now();
        let mut conns = std::mem::take(&mut self.alloc_conns);
        for p_idx in 0..self.participants.len() {
            // Gather this peer's active serving connections and weights.
            conns.clear(); // (conn, session, weight)
            for (s_idx, session) in self.sessions.iter().enumerate() {
                if session.finished_at.is_some() {
                    continue;
                }
                for (&conn, &pid) in &session.conns {
                    if pid != p_idx {
                        continue;
                    }
                    if session.fetch.is_dead(conn) {
                        continue;
                    }
                    // A quarantined peer gets no Eq.-2 budget at all for
                    // the duration of its ban.
                    if self.health.as_ref().is_some_and(|h| {
                        h.engine()
                            .is_quarantined(pid as u64, self.net.now().as_secs())
                    }) {
                        continue;
                    }
                    let peer = &self.participants[p_idx].peer;
                    if peer.serving(conn).is_none() || !peer.has_pending(conn) {
                        continue;
                    }
                    let user_key = self.participants[session.home].key;
                    let w = self.participants[p_idx].peer.upload_weight(&user_key);
                    conns.push((conn, s_idx, w));
                }
            }
            if conns.is_empty() {
                continue;
            }
            let total_w: f64 = conns.iter().map(|c| c.2).sum();
            let cap_bytes_per_slot =
                self.participants[p_idx].up_kbps * 1_000.0 / 8.0 * self.cfg.slot_secs;
            let ts = self.net.now().as_secs();
            for &(conn, s_idx, w) in &conns {
                let share = serve::share(w, total_w);
                let budget = cap_bytes_per_slot * share;
                self.obs.alloc_budget_bytes.record(budget as u64);
                self.obs.events.emit_at(
                    ts,
                    "sim.alloc",
                    "slot_share",
                    &[
                        ("slot", self.slot.into()),
                        ("peer", p_idx.into()),
                        ("session", s_idx.into()),
                        ("conn", conn.into()),
                        ("weight", w.into()),
                        ("share", share.into()),
                        ("budget_bytes", budget.into()),
                    ],
                );
                // A slot's capacity does not outlive the bank: what exceeds
                // four slots' worth is forfeited, not handed on.
                self.participants[p_idx].serve.grant(
                    conn,
                    budget,
                    cap_bytes_per_slot.max(budget) * 4.0,
                );
                self.pump(p_idx, s_idx, conn);
            }
        }
        self.alloc_conns = conns;
        self.obs.alloc_slots.inc();
        let pass_us = pass_start.elapsed().as_micros() as u64;
        self.obs.alloc_pass_us.record(pass_us);
        self.obs
            .alloc_slots_per_sec
            .set(1e6 / pass_us.max(1) as f64);
    }

    /// Starts bulk message flows on one connection while the accumulated
    /// deficit covers them, keeping a bounded number in flight so downlink
    /// congestion applies back-pressure instead of piling up flows. Called
    /// at slot boundaries (after deficit refill) and on each bulk-flow
    /// completion (so the pipe never idles mid-slot).
    fn pump(&mut self, p_idx: usize, s_idx: usize, conn: u64) {
        const MAX_INFLIGHT: usize = 2;
        if self.sessions[s_idx].finished_at.is_some() {
            return;
        }
        let adversary = self.adversary(p_idx);
        // A selectively-serving adversary withholds the whole slot: the
        // Eq.-2 budget was granted (it has pending work), yet nothing
        // moves — the starvation signature the health engine attributes.
        if let Some((AdversaryStrategy::SelectiveServe { serve_fraction }, seed)) = adversary {
            let salt = self.slot.wrapping_mul(1_000_003).wrapping_add(conn);
            if adversary_draw(seed, salt) >= serve_fraction {
                return;
            }
        }
        loop {
            if *self.participants[p_idx].inflight.entry(conn).or_insert(0) >= MAX_INFLIGHT {
                break;
            }
            let Some(msg) = self.peek_next_size(p_idx, conn) else {
                break;
            };
            if !self.participants[p_idx].serve.try_send(conn, msg as f64) {
                break;
            }
            // A replaying adversary re-serves its previous message instead
            // of fresh ones: the frame is authentic (digest passes) but the
            // decoder has seen the id, so the bytes buy no progress.
            let mut message: Option<EncodedMessage> = None;
            if let Some((AdversaryStrategy::Replay { prob }, seed)) = adversary {
                let seq = {
                    let e = self.participants[p_idx].adv_seq.entry(conn).or_insert(0);
                    *e += 1;
                    *e
                };
                let salt = conn.wrapping_mul(0x9E37_79B9).wrapping_add(seq);
                if adversary_draw(seed, salt) < prob {
                    message = self.participants[p_idx].last_sent.get(&conn).cloned();
                }
            }
            let message = match message {
                Some(stale) => stale, // fresh queue does not advance
                None => {
                    let Some(m) = self.participants[p_idx].peer.next_message(conn) else {
                        break;
                    };
                    if matches!(adversary, Some((AdversaryStrategy::Replay { .. }, _))) {
                        self.participants[p_idx].last_sent.insert(conn, m.clone());
                    }
                    m
                }
            };
            // A polluting adversary tampers with the payload before it
            // leaves: the frame stays well-formed, so only the downstream
            // digest check can tell (no `corruption` event — the attacker
            // does not announce itself).
            let wire = match adversary {
                Some((AdversaryStrategy::Pollute { prob }, seed))
                    if adversary_draw(seed, message.message_id().0) < prob =>
                {
                    corrupt_message(&message).unwrap_or(Wire::MessageData(message))
                }
                _ => Wire::MessageData(message),
            };
            *self.participants[p_idx].inflight.get_mut(&conn).unwrap() += 1;
            let tag = self.alloc_tag(Pending {
                endpoint: Endpoint::ToUser {
                    session: s_idx,
                    conn,
                },
                wire: Some(wire),
                msg: None,
                bulk_from: Some((p_idx, conn)),
            });
            self.net.start_flow(
                self.participants[p_idx].node,
                self.sessions[s_idx].remote_node,
                msg as u64,
                tag,
            );
        }
    }

    fn peek_next_size(&self, p_idx: usize, conn: u64) -> Option<usize> {
        let peer = &self.participants[p_idx].peer;
        let file = peer.serving(conn)?;
        if !peer.has_pending(conn) {
            return None;
        }
        // All data messages of a chunked file share the per-chunk payload
        // size; approximate with the first pending message's wire size.
        let msgs = peer.store().messages(file);
        msgs.first().map(Wire::message_data_frame_len)
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
            self.send_control(remote, home_node, endpoint, Wire::Feedback(report));
        }
    }

    /// Routes a completed flow's payload to its destination state machine.
    ///
    /// Fault injection surfaces here: a [`EventKind::FlowLost`] flow spent
    /// its bytes on the links but delivers nothing, and a
    /// [`EventKind::FlowCorrupted`] data message reaches the user with a
    /// flipped payload bit so the digest check rejects it downstream.
    fn deliver(&mut self, event: Event) {
        let Some(pending) = self.pending.remove(&event.tag) else {
            return;
        };
        let refill = pending.bulk_from;
        if let Some((p_idx, conn)) = refill {
            let count = self.participants[p_idx].inflight.entry(conn).or_insert(1);
            *count = count.saturating_sub(1);
        }
        if event.kind == EventKind::FlowLost {
            // The payload is gone in transit; only the (omniscient)
            // user-side drop counter observes it.
            self.obs.drops.inc();
            if let Endpoint::ToUser { session, conn } = pending.endpoint {
                self.sessions[session].fetch.on_drop(conn, true);
                let fields = self.conn_fields(session, conn, &[]);
                let now = self.net.now().as_secs();
                self.obs.events.emit_at(now, "sim.deliver", "drop", &fields);
            }
            self.repump(refill);
            return;
        }
        let corrupted = event.kind == EventKind::FlowCorrupted;
        match pending.endpoint {
            Endpoint::StoreDeposit { participant } => {
                if corrupted {
                    // The depositing owner's transfer layer drops garbage.
                    self.repump(refill);
                    return;
                }
                if let Some(msg) = pending.msg {
                    self.participants[participant].peer.store_mut().insert(msg);
                }
            }
            Endpoint::ToPeer { participant, conn } => {
                if corrupted {
                    // Peers discard control frames that fail to parse.
                    self.repump(refill);
                    return;
                }
                let Some(wire) = pending.wire else { return };
                let replies = {
                    let peer = &mut self.participants[participant].peer;
                    peer.on_message(conn, wire, &mut self.rng)
                        .unwrap_or_default()
                };
                // Find the session this connection belongs to (if any).
                let Some(s_idx) = self
                    .sessions
                    .iter()
                    .position(|s| s.conns.contains_key(&conn))
                else {
                    return self.repump(refill);
                };
                for reply in replies {
                    let endpoint = Endpoint::ToUser {
                        session: s_idx,
                        conn,
                    };
                    let from = self.participants[participant].node;
                    let to = self.sessions[s_idx].remote_node;
                    self.send_control(from, to, endpoint, reply);
                }
            }
            Endpoint::ToUser { session, conn } => {
                let Some(wire) = pending.wire else {
                    self.repump(refill);
                    return;
                };
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
                        None => {
                            // Empty payload: nothing to flip, the frame
                            // silently evaporates (no stats change, keeping
                            // seeded replays identical).
                            self.repump(refill);
                            return;
                        }
                    },
                    (true, _) => {
                        // A mangled control frame fails to parse: the user
                        // sees nothing but a drop.
                        self.sessions[session].fetch.on_drop(conn, false);
                        self.repump(refill);
                        return;
                    }
                    (false, wire) => wire,
                };
                if self.sessions[session].failed.is_some() {
                    self.repump(refill);
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
                    self.record_session_profiles(session);
                    if self.obs.events.is_enabled() {
                        self.emit_trace_spans(session);
                    }
                }
            }
        }
        self.repump(refill);
    }

    /// Folds one transfer sample per serving participant into the profile
    /// store when a session completes: goodput = accepted bytes over the
    /// session's wall-clock, loss = in-transit drops over attempted data
    /// messages. Pure bookkeeping — draws no randomness and never touches
    /// simulated time — so collecting profiles perturbs nothing.
    fn record_session_profiles(&mut self, session: usize) {
        let s = &self.sessions[session];
        let finished = s.finished_at.unwrap_or_else(|| self.net.now());
        let duration = (finished - s.started_at).as_secs().max(1e-9);
        let mut peers: Vec<usize> = s.conns.values().copied().collect();
        peers.sort_unstable();
        peers.dedup();
        for p_idx in peers {
            let Tally {
                bytes, msgs, drops, ..
            } = s.peer_tally(p_idx);
            if msgs + drops == 0 {
                continue; // never served data; nothing to profile
            }
            let key = self.participants[p_idx].key;
            let mv = self.profiles.record_transfer(
                &self.profile_cfg,
                &key,
                bytes,
                duration,
                drops,
                msgs + drops,
                None, // the sim has no per-message RTT probe
            );
            if self.obs.events.is_enabled() {
                let rung = self.profiles.profile(&key).map_or(0, |p| p.rung());
                self.obs.events.emit_at(
                    self.net.now().as_secs(),
                    "sim.profile",
                    "transfer",
                    &[
                        ("peer", p_idx.into()),
                        ("session", session.into()),
                        ("rung", rung.into()),
                        ("move", (mv as usize).into()),
                    ],
                );
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
            let view = SessionView {
                conns: &session.conns,
                engine: self.health.as_ref().map(HealthStream::engine),
            };
            if let Err(e) = session.fetch.poll(now, &view, &mut self.rng, &mut out) {
                session.failed = Some(e);
            }
            self.carry_out(s_idx, &mut out, now);
        }
    }

    /// Carries out, in order, what a session's engine asked for at `ts`,
    /// draining `out`: frames go to the peers, notes become `sim.deliver`
    /// and `sim.heal` events and trace marks. After a ban's stop and
    /// re-plan, the owner checks the honest supply, which may start
    /// deposit flows of its own.
    fn carry_out(&mut self, s_idx: usize, out: &mut Vec<Out>, ts: f64) {
        let banned = out
            .iter()
            .any(|item| matches!(item, Out::Quarantine { .. }));
        for item in out.drain(..) {
            match item {
                Out::Send(conn, wire) => self.send_to_peer(s_idx, conn, wire),
                note => self.note(s_idx, note, ts),
            }
        }
        if banned {
            self.redisseminate_if_starved(s_idx, ts);
        }
    }

    /// Turns one of a session's engine notes into its events and trace marks.
    fn note(&mut self, s_idx: usize, note: Out, ts: f64) {
        let events = self.obs.events.clone();
        let on = |conn, more: &[_]| self.conn_fields(s_idx, conn, more);
        let (component, kind, fields) = match note {
            Out::Send(..) | Out::Stale { .. } | Out::BanLapsed { .. } => return,
            // A credit-inflating adversary claims `factor`× extra
            // contribution directly at the downloader's home ledger, on top
            // of whatever honest feedback will credit — the
            // served-vs-credited divergence the balance detector watches.
            Out::Accepted { conn, bytes } => {
                let p_idx = self.sessions[s_idx].conns[&conn];
                if let Some((AdversaryStrategy::InflateCredit { factor }, _)) =
                    self.adversary(p_idx)
                {
                    let (key, home) = (self.participants[p_idx].key, self.sessions[s_idx].home);
                    let ledger = &mut self.participants[home].peer;
                    ledger.credit_direct(key, factor * bytes as f64);
                }
                return;
            }
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
            Out::Reassign {
                target,
                deprioritized,
            } => {
                let fields = vec![
                    ("session", s_idx.into()),
                    ("target", target.into()),
                    ("deprioritized", deprioritized.into()),
                ];
                ("sim.heal", "reassign", fields)
            }
            Out::Quarantine { conn } => {
                let engine = self.health.as_ref().map(HealthStream::engine);
                let peer = self.sessions[s_idx].conns[&conn] as u64;
                let until = engine.and_then(|e| e.quarantined_until(peer));
                (
                    "sim.heal",
                    "quarantine",
                    on(conn, &[("until", until.unwrap_or(ts).into())]),
                )
            }
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
        self.send_control(from, to, endpoint, wire);
    }

    /// Slot epilogue with health analytics on: flush the slot's per-peer
    /// aggregates as events, feed the engine everything new in the log,
    /// and evaluate the detectors at the slot boundary. The evaluation
    /// instants are exact slot deadlines, so the same event log replayed
    /// against the same cadence reproduces the alert sequence bit for bit.
    fn evaluate_health(&mut self) {
        if self.health.is_none() {
            return;
        }
        let ts = self.net.now().as_secs();
        // Data messages accepted per serving participant this slot.
        let mut msgs: BTreeMap<usize, u64> = BTreeMap::new();
        for session in &mut self.sessions {
            let conns = &session.conns;
            session.fetch.drain_window(|conn, counts| {
                if counts.msgs > 0 {
                    *msgs.entry(conns[&conn]).or_insert(0) += counts.msgs;
                }
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
        if let Some(h) = &mut self.health {
            h.close_window(
                ts,
                &self.obs.events,
                &self.obs.metrics,
                &[("slot", self.slot.into())],
            );
        }
    }

    /// Owner re-dissemination: when the honest, live coded-message supply
    /// for an incomplete chunk has fallen below rank `k`, the owner
    /// deposits its own coded copies of that chunk with an honest serving
    /// peer (once per `(session, chunk)`), restoring decodability without
    /// trusting the quarantined source.
    fn redisseminate_if_starved(&mut self, s_idx: usize, ts: f64) {
        let file_id = FileId(self.sessions[s_idx].fetch.user().file_id());
        let k = self.cfg.k;
        let banned = |health: &Option<HealthStream>, p: usize| {
            health
                .as_ref()
                .is_some_and(|h| h.engine().is_quarantined(p as u64, ts))
        };
        let session = &self.sessions[s_idx];
        let mut honest: Vec<usize> = session
            .conns
            .iter()
            .filter(|(&c, _)| !session.fetch.is_dead(c))
            .map(|(_, &p)| p)
            .filter(|&p| !banned(&self.health, p))
            .collect();
        honest.sort_unstable();
        honest.dedup();
        if honest.is_empty() {
            return;
        }
        let mut supply: BTreeMap<u32, usize> = BTreeMap::new();
        for &p in &honest {
            for m in self.participants[p].peer.store().messages(file_id) {
                *supply
                    .entry(FileManifest::chunk_of(m.message_id()))
                    .or_insert(0) += 1;
            }
        }
        let user = session.fetch.user();
        let completed: HashSet<u32> = user.completed_chunks().into_iter().collect();
        let chunk_count = user.chunk_count();
        let home = session.home;
        for chunk in 0..chunk_count {
            if completed.contains(&chunk) || supply.get(&chunk).copied().unwrap_or(0) >= k {
                continue;
            }
            if !self.redisseminated.insert((s_idx, chunk)) {
                continue;
            }
            let msgs: Vec<EncodedMessage> = self.participants[home]
                .peer
                .store()
                .messages(file_id)
                .iter()
                .filter(|m| FileManifest::chunk_of(m.message_id()) == chunk)
                .cloned()
                .collect();
            let Some(&target) = honest.iter().find(|&&p| p != home) else {
                continue;
            };
            if msgs.is_empty() {
                continue;
            }
            self.obs.events.emit_at(
                ts,
                "sim.heal",
                "redisseminate",
                &[
                    ("session", s_idx.into()),
                    ("chunk", chunk.into()),
                    ("target", target.into()),
                    ("messages", msgs.len().into()),
                ],
            );
            for m in msgs {
                self.deposit(home, target, m);
            }
        }
    }

    /// Emits one `sim.credit`/`balance` event per serving participant:
    /// `drift` is the credit the session's home peer has ledgered for that
    /// participant (Eq. 2, beyond the initial allowance) minus the wire
    /// bytes it actually delivered. Honest feedback lags deliveries, so
    /// drift sits at or below zero; a positive excursion means credit was
    /// claimed for bytes never served — the inflation ROADMAP item 4 wants
    /// caught.
    fn emit_credit_balances(&mut self, ts: f64) {
        let mut drift: std::collections::BTreeMap<usize, f64> = std::collections::BTreeMap::new();
        for session in &self.sessions {
            let home = &self.participants[session.home].peer;
            for &p_idx in session.conns.values() {
                if p_idx == session.home {
                    continue;
                }
                let key = self.participants[p_idx].key;
                let credited = home.upload_weight(&key) - self.cfg.initial_credit_bytes;
                let delivered = session.peer_tally(p_idx).bytes as f64;
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

    /// Restarts a connection's bulk pipeline after one of its flows
    /// completed (remaining deficit permitting).
    fn repump(&mut self, refill: Option<(usize, u64)>) {
        let Some((p_idx, conn)) = refill else { return };
        let Some(s_idx) = self
            .sessions
            .iter()
            .position(|s| s.conns.contains_key(&conn))
        else {
            return;
        };
        self.pump(p_idx, s_idx, conn);
    }
}

/// The sim's corruption model: flips one payload bit of a data message, with
/// the position keyed off the message id so seeded replays stay identical.
/// Returns `None` for an empty payload — there is no bit to flip, and the
/// index computation (`% payload.len()`) would otherwise divide by zero.
fn corrupt_message(msg: &EncodedMessage) -> Option<Wire> {
    let mut payload = msg.payload().to_vec();
    if payload.is_empty() {
        return None;
    }
    let at = (msg.message_id().0 as usize).wrapping_mul(7919) % payload.len();
    payload[at] ^= 1;
    Some(Wire::MessageData(EncodedMessage::new(
        msg.file_id(),
        msg.message_id(),
        payload,
    )))
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
        let before = rt.participants[a.0].peer.upload_weight(&b_key);
        let session = rt
            .start_download(a, manifest, kbps(512.0), kbps(3000.0), &ids)
            .unwrap();
        let report = rt.run_to_completion(session, 600).unwrap();
        // Let the final feedback report flush.
        rt.run_slots(rt.cfg.feedback_every_slots + 2);
        let after = rt.participants[a.0].peer.upload_weight(&b_key);
        assert!(
            after > before,
            "A's ledger must credit B for served bytes ({before} -> {after})"
        );
        // Equal uplinks serve equal bytes and earn near-equal credit at home.
        let bytes: Vec<f64> = report.per_peer_bytes.values().map(|&v| v as f64).collect();
        assert_eq!(bytes.len(), 3, "every peer contributed");
        let jain = asymshare_alloc::jain_index(&bytes);
        assert!(jain >= 0.99, "byte Jain {jain:.3} over {bytes:?}");
        let other = rt.participants[a.0].peer.upload_weight(&c_key);
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
        // per-peer credit gauges and netsim totals.
        assert!(plain.metrics.is_empty());
        assert!(!observed.metrics.is_empty());
        assert!(observed.metrics.gauge("sim.net.bytes_delivered").unwrap() > 0.0);
        assert!(observed.metrics.gauge("sim.credit.p0.u0").is_some());
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
    fn propagation_delay_slows_small_downloads() {
        let run = |latency: f64| {
            let mut rt = SimRuntime::new(RuntimeConfig {
                latency_secs: latency,
                ..small_cfg()
            });
            let ids: Vec<ParticipantId> = (0..3u8)
                .map(|i| {
                    rt.add_participant(Identity::from_seed(&[b'l', i]), kbps(512.0), kbps(3000.0))
                })
                .collect();
            let payload = data(48 * 1024);
            let (manifest, _) = rt.disseminate(ids[0], FileId(9), &payload, &ids).unwrap();
            let session = rt
                .start_download(ids[0], manifest, kbps(512.0), kbps(3000.0), &ids)
                .unwrap();
            let report = rt.run_to_completion(session, 600).unwrap();
            assert_eq!(report.data, payload);
            report.duration_secs
        };
        let fast = run(0.0);
        let slow = run(0.25);
        assert!(
            slow > fast,
            "250 ms propagation delay must cost time ({slow:.2}s vs {fast:.2}s)"
        );
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
