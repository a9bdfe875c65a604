//! One workload, one process: set up (several times, for a steady
//! `setup_s`), warm up, run ops in a closed loop for the measured window,
//! check every output, and turn what happened into metrics.
//!
//! The untraced run yields the end-to-end metrics. The traced run turns the
//! network's observability on, opens spans around the calls into each layer
//! from here, replays one op's messages through single layers, and yields
//! the per-layer metrics.

use crate::metrics::{self, Def};
use crate::ops::{self, Outcome};
use crate::probes::{self, LayerProbes, ParProbe};
use crate::stats;
use crate::sys;
use crate::trace;
use crate::world::{self, Kind, Spec, World, BACKGROUND_BASE_ADDR, K, PEERS, USER_BASE_ADDR};
use asymshare::rt::{FaultStats, PoolStats};
use asymshare_obs::{EventSink, Registry, Snapshot};
use asymshare_rlnc::{EncodedMessage, FileId, FileManifest};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Set-ups per run, at least; `setup_s` is their median.
const SETUP_REPS_MIN: usize = 3;
const SETUP_REPS_MAX: usize = 101;
const SETUP_BUDGET_SECS: f64 = 1.0;
/// Discarded ops before the window opens (caches, lazy set-up, and on
/// `shaped` the token buckets' initial burst).
const WARMUP_OPS: usize = 3;
/// Ops one deployment serves before it is replaced (see
/// `Client::redeploy_if_due`).
const REDEPLOY_EVERY_OPS: u64 = 512;
/// Large enough that a traced run never evicts: the ring only allocates
/// what is actually emitted.
const SINK_CAPACITY: usize = 1 << 24;
/// Replay probes run on the chunks covering this much plaintext and scale
/// per-op numbers up, so probing a 32 MiB file takes a second, not ten.
const PROBE_PLAINTEXT: usize = 8 << 20;
/// The Eq.-2 share a 3:1-credit user should get beside one other user.
const FAIR_SHARE: f64 = 0.75;

const MIB: f64 = (1u64 << 20) as f64;

pub struct RunArgs {
    pub spec: &'static Spec,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub results_dir: PathBuf,
}

/// A number printed beside the metrics: `(name, value, unit)`.
pub type Info = (&'static str, f64, &'static str);

/// What one run measured.
pub struct Report {
    /// No op returned wrong bytes, and at least one op succeeded.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The contract's metrics for this mode, in vocabulary order.
    pub metrics: Vec<(&'static Def, f64)>,
    /// Reported beside them, not part of the result line.
    pub info: Vec<Info>,
    pub warnings: Vec<String>,
}

/// Values collected by name, emitted in the vocabulary's order.
#[derive(Default)]
struct Values(HashMap<&'static str, f64>);

impl Values {
    fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            metrics::find(name).is_some(),
            "{name} is not in the vocabulary"
        );
        // A ratio over an empty sample is 0 here, not NaN: JSON has no NaN.
        let value = if value.is_finite() { value } else { 0.0 };
        assert!(self.0.insert(name, value).is_none(), "{name} set twice");
    }

    fn ordered(&self, defs: &'static [Def]) -> Vec<(&'static Def, f64)> {
        defs.iter()
            .map(|d| {
                let v = self.0.get(d.name);
                (
                    d,
                    *v.unwrap_or_else(|| panic!("{} was not measured", d.name)),
                )
            })
            .collect()
    }
}

/// Counters read at the window's edges; metrics use the differences.
struct Edge {
    at: Instant,
    cpu: f64,
    faults: FaultStats,
    pool: PoolStats,
    snapshot: Snapshot,
    emitted: u64,
}

/// How the ops of the measured window were issued.
#[derive(Default)]
struct Tally {
    /// The product's path: `download_file_with`, or a publish.
    product: Vec<Outcome>,
    product_roots: Vec<u64>,
    /// Staged fetches (traced run of a staged fetch workload).
    staged: Vec<Outcome>,
    staged_roots: Vec<u64>,
}

impl Tally {
    fn all(&self) -> impl Iterator<Item = &Outcome> {
        self.product.iter().chain(&self.staged)
    }
}

/// Issues ops one after another, each on a fresh user address.
struct Client {
    spec: &'static Spec,
    seed: u64,
    /// The traced run's instruments; every deployment records into them.
    obs: Option<(Registry, EventSink)>,
    /// `None` only while a deployment is being replaced.
    world: Option<Arc<World>>,
    issued: u64,
    served_by_deployment: u64,
    /// Transport counters of deployments already torn down (each network
    /// counts from zero).
    retired_faults: FaultStats,
    retired_pool: PoolStats,
    /// The most recent successful publish, for the decode check.
    last_published: Option<world::Published>,
}

impl Client {
    fn world(&self) -> &World {
        self.world
            .as_deref()
            .expect("a deployment is up between ops")
    }

    fn sink(&self) -> Option<&EventSink> {
        self.obs.as_ref().map(|(_, sink)| sink)
    }

    fn next_addr(&mut self) -> u64 {
        self.issued += 1;
        USER_BASE_ADDR + self.issued
    }

    /// A hosted peer keeps every session it ever authenticated and scans
    /// them all on each serve pass, so op time would grow with the number
    /// of ops already run — and a run's median with its length. Replacing
    /// the deployment every `REDEPLOY_EVERY_OPS` ops, between ops, keeps
    /// the measurement stationary: any run of any length sees between 0 and
    /// that many stale sessions.
    fn redeploy_if_due(&mut self) {
        if self.spec.kind != Kind::Fetch
            || self.spec.background
            || self.served_by_deployment < REDEPLOY_EVERY_OPS
        {
            return;
        }
        (self.retired_faults, self.retired_pool) = self.transport_counts();
        self.served_by_deployment = 0;
        drop(self.world.take()); // tear down before building the next
        self.world = Some(Arc::new(world::build(
            self.spec,
            self.seed,
            self.obs.clone(),
        )));
    }

    /// Fault and pool counters of every deployment so far, this one
    /// included.
    fn transport_counts(&self) -> (FaultStats, PoolStats) {
        let mut faults = self.retired_faults;
        let mut pool = self.retired_pool;
        if let Some(deployed) = &self.world().deployment {
            let network = &deployed.hosted.network;
            let now = network.fault_stats();
            faults.dropped += now.dropped;
            faults.corrupted += now.corrupted;
            let now = network.buffer_pool().stats();
            pool.hits += now.hits;
            pool.misses += now.misses;
        }
        (faults, pool)
    }

    fn edge(&self) -> Edge {
        let (faults, pool) = self.transport_counts();
        Edge {
            at: Instant::now(),
            cpu: sys::cpu_seconds(),
            faults,
            pool,
            snapshot: self
                .world()
                .deployment
                .as_ref()
                .map(|d| d.hosted.network.metrics_snapshot())
                .unwrap_or_default(),
            emitted: self.sink().map_or(0, EventSink::total_emitted),
        }
    }

    /// One op down the product's own path; under an op span when traced.
    fn product(&mut self) -> (Outcome, Option<u64>) {
        self.redeploy_if_due();
        let op = self.sink().map(|s| s.span("bench", "op"));
        let root = op.as_ref().map(|s| s.id());
        let outcome = match self.spec.kind {
            Kind::Fetch => {
                let addr = self.next_addr();
                let deployed = self
                    .world()
                    .deployment
                    .as_ref()
                    .expect("fetch worlds are hosted");
                ops::product_fetch(
                    &deployed.hosted,
                    &deployed.file,
                    &deployed.file.data,
                    addr,
                    self.spec.options(),
                    op.as_ref(),
                )
            }
            Kind::Publish => {
                let (outcome, published) = ops::publish_op(self.world(), op.as_ref());
                if published.is_some() {
                    self.last_published = published;
                }
                outcome
            }
        };
        self.served_by_deployment += 1;
        (outcome, root)
    }

    /// One staged fetch under an op span (traced runs only).
    fn staged(&mut self, capture: Option<&mut Vec<EncodedMessage>>) -> (Outcome, u64) {
        self.redeploy_if_due();
        let addr = self.next_addr();
        let deployed = self
            .world()
            .deployment
            .as_ref()
            .expect("fetch worlds are hosted");
        let op = self
            .sink()
            .expect("staged fetches are traced")
            .span("bench", "op");
        let outcome = ops::staged_fetch(
            &deployed.hosted,
            &deployed.file,
            &deployed.file.data,
            addr,
            &op,
            capture,
        );
        self.served_by_deployment += 1;
        (outcome, op.id())
    }
}

/// The background user of `shaped`: fetches its own file in a loop until
/// told to stop, recording when each fetch ran.
fn background_loop(world: &World, stop: &AtomicBool) -> Vec<Outcome> {
    let deployed = world.deployment.as_ref().expect("fetch worlds are hosted");
    let file = deployed.background.as_ref().expect("a background file");
    let mut outcomes = Vec::new();
    let mut addr = BACKGROUND_BASE_ADDR;
    while !stop.load(Ordering::SeqCst) {
        addr += 1;
        outcomes.push(ops::product_fetch(
            &deployed.hosted,
            file,
            &file.data,
            addr,
            world.spec.options(),
            None,
        ));
    }
    outcomes
}

/// Bytes of `outcomes` delivered inside `[from, to]`, pro-rating a fetch
/// that straddles an edge by the time it spent inside (a shaped fetch
/// streams at a steady rate).
fn bytes_inside(outcomes: &[Outcome], from: Instant, to: Instant) -> f64 {
    outcomes
        .iter()
        .filter(|o| o.ok && !o.elapsed.is_zero())
        .map(|o| {
            let start = o.started.max(from);
            let end = (o.started + o.elapsed).min(to);
            let inside = end.saturating_duration_since(start).as_secs_f64();
            o.bytes as f64 * inside / o.elapsed.as_secs_f64()
        })
        .fold(0.0, |total, bytes| total + bytes) // `sum()` of nothing is -0.0
}

/// One timed set-up: generate data, publish, host peers.
fn timed_build(args: &RunArgs, obs: Option<(Registry, EventSink)>) -> (World, f64) {
    let started = Instant::now();
    let world = world::build(args.spec, args.seed, obs);
    let secs = started.elapsed().as_secs_f64();
    (world, secs)
}

/// The measured window, summarized: what both kinds of run report from.
struct Window {
    open: Edge,
    close: Edge,
    tally: Tally,
    /// What the background user of `shaped` fetched, window or not.
    background: Vec<Outcome>,
    /// Seconds between the edges.
    secs: f64,
    /// Verified plaintext bytes of the measured ops.
    ok_bytes: f64,
    /// Plaintext bytes the background user received inside the window.
    background_bytes: f64,
    /// Op times of the successful ops on the product's path, ms.
    product_ms: Vec<f64>,
}

impl Window {
    /// `(percentile, ms)` of the tail worth reporting (see `stats::tail`);
    /// the maximum, as percentile 100, when the sample is too small.
    fn tail(&self) -> (f64, f64) {
        match stats::tail(&self.product_ms) {
            Some((pct, ms)) => (f64::from(pct), ms),
            None => (100.0, self.product_ms.iter().copied().fold(0.0, f64::max)),
        }
    }
}

/// Warm-up, then ops back to back until `seconds` have passed. On a traced
/// staged workload every other op is a staged fetch, and the last warm-up
/// op's messages are kept in `captured` for the replay probes.
fn measure(
    client: &mut Client,
    seconds: f64,
    staged_fetch: bool,
    captured: &mut Vec<EncodedMessage>,
) -> (Window, bool) {
    let spec = client.spec;
    let stop = Arc::new(AtomicBool::new(false));
    let background = spec.background.then(|| {
        let world = Arc::clone(client.world.as_ref().expect("a deployment is up"));
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || background_loop(&world, &stop))
    });

    for i in 0..WARMUP_OPS {
        if staged_fetch && i > 0 {
            captured.clear();
            client.staged(Some(captured));
        } else {
            client.product();
        }
    }

    let mut tally = Tally::default();
    let mut first_publish_decodes = true;
    let open = client.edge();
    let mut i = 0u64;
    while open.at.elapsed().as_secs_f64() < seconds {
        if staged_fetch && i % 2 == 1 {
            let (outcome, root) = client.staged(None);
            tally.staged.push(outcome);
            tally.staged_roots.push(root);
        } else {
            let (outcome, root) = client.product();
            tally.product.push(outcome);
            tally.product_roots.extend(root);
        }
        if i == 0 && spec.kind == Kind::Publish {
            // Outside the op's timed span, inside the window: the decode
            // check costs wall time but no op time.
            first_publish_decodes = client
                .last_published
                .as_ref()
                .is_some_and(|p| ops::published_decodes(client.world(), p));
        }
        i += 1;
    }
    let close = client.edge();

    stop.store(true, Ordering::SeqCst);
    let background = background
        .map(|handle| handle.join().expect("background user panicked"))
        .unwrap_or_default();

    let window = Window {
        secs: close.at.duration_since(open.at).as_secs_f64(),
        ok_bytes: tally.all().map(|o| o.bytes as f64).sum(),
        background_bytes: bytes_inside(&background, open.at, close.at),
        product_ms: tally
            .product
            .iter()
            .filter(|o| o.ok)
            .map(|o| o.elapsed.as_secs_f64() * 1e3)
            .collect(),
        open,
        close,
        tally,
        background,
    };
    (window, first_publish_decodes)
}

pub fn run(args: &RunArgs) -> Report {
    let spec = args.spec;
    // Before anything spawns a thread: this probe edits the environment.
    let par = args.trace.then(|| probes::par_probe(args.seed));

    let obs = args
        .trace
        .then(|| (Registry::new(), EventSink::with_capacity(SINK_CAPACITY)));
    let (world, first_setup) = timed_build(args, obs.clone());
    let mut client = Client {
        spec,
        seed: args.seed,
        obs,
        world: Some(Arc::new(world)),
        issued: 0,
        served_by_deployment: 0,
        retired_faults: FaultStats::default(),
        retired_pool: PoolStats::default(),
        last_published: None,
    };
    let staged_fetch = args.trace && spec.staged && spec.kind == Kind::Fetch;
    let mut captured = Vec::new();
    let (window, first_publish_decodes) =
        measure(&mut client, args.seconds, staged_fetch, &mut captured);
    // Read before the extra set-ups of an untraced run can raise it.
    let peak_rss_mib = sys::peak_rss_mib();

    let tally = &window.tally;
    let mut warnings = Vec::new();
    let mut wrong_bytes =
        tally.all().any(|o| o.wrong_bytes) || window.background.iter().any(|o| o.wrong_bytes);
    if spec.kind == Kind::Publish {
        let last_decodes = client
            .last_published
            .as_ref()
            .is_some_and(|p| ops::published_decodes(client.world(), p));
        if !(first_publish_decodes && last_decodes) {
            warnings.push("a published file did not decode back to its bytes".to_owned());
            wrong_bytes = true;
        }
    }
    for o in tally.all().filter(|o| !o.ok) {
        warnings.push(format!(
            "op failed after {:.3} s: {}",
            o.elapsed.as_secs_f64(),
            o.error.as_deref().unwrap_or("unknown")
        ));
    }
    let attempted = tally.all().count() as u64;
    let failed = tally.all().filter(|o| !o.ok).count() as u64;

    let mut info = Vec::new();
    let metrics = if args.trace {
        let par = par.expect("traced runs probe par first");
        let values = per_layer(
            args,
            &client,
            &window,
            &par,
            captured,
            staged_fetch,
            &mut info,
            &mut warnings,
        );
        values.ordered(&metrics::PER_LAYER)
    } else {
        drop(client); // the extra set-ups start from nothing, as the first did
        let values = end_to_end(args, &window, first_setup, peak_rss_mib, &mut info);
        values.ordered(&metrics::END_TO_END)
    };
    Report {
        correct: !wrong_bytes && attempted > failed,
        attempted,
        failed,
        metrics,
        info,
        warnings,
    }
}

/// The untraced run's metrics. `setup_s` is a median of several set-ups:
/// the first was made before the window, the rest are made here, now that
/// nothing else is being measured. A set-up of milliseconds is repeated
/// until a second is spent, so its median is as steady as a slow one's.
fn end_to_end(
    args: &RunArgs,
    window: &Window,
    first_setup: f64,
    peak_rss_mib: f64,
    info: &mut Vec<Info>,
) -> Values {
    let mut setup_secs = vec![first_setup];
    while setup_secs.len() < SETUP_REPS_MIN
        || (setup_secs.len() < SETUP_REPS_MAX && setup_secs.iter().sum::<f64>() < SETUP_BUDGET_SECS)
    {
        let (world, secs) = timed_build(args, None);
        setup_secs.push(secs);
        drop(world);
    }

    let mut values = Values::default();
    values.set("setup_s", stats::median(&setup_secs));
    values.set("goodput_mbps", window.ok_bytes / 1e6 / window.secs);
    values.set("op_p50_ms", stats::median(&window.product_ms));
    values.set(
        "cpu_ms_per_mib",
        (window.close.cpu - window.open.cpu) * 1e3
            / ((window.ok_bytes + window.background_bytes) / MIB),
    );
    values.set("peak_rss_mib", peak_rss_mib);

    let (tail_pct, tail_ms) = window.tail();
    info.push(("client.op_tail_ms", tail_ms, "ms"));
    info.push(("client.op_tail_pct", tail_pct, "%"));
    info.push(("client.samples", window.product_ms.len() as f64, "count"));
    if args.spec.background {
        info.push((
            "client.background_mbps",
            window.background_bytes / 1e6 / window.secs,
            "MB/s",
        ));
    }
    values
}

/// The traced run's metrics, from its three sources: spans opened by the
/// benchmark, replay probes, and counts read at the window's edges.
#[allow(clippy::too_many_arguments)] // one call site; the pieces of one run
fn per_layer(
    args: &RunArgs,
    client: &Client,
    window: &Window,
    par: &ParProbe,
    captured: Vec<EncodedMessage>,
    staged_fetch: bool,
    info: &mut Vec<Info>,
    warnings: &mut Vec<String>,
) -> Values {
    let spec = args.spec;
    let world = client.world();
    let sink = client.sink().expect("traced runs have a sink");
    let (open, close, tally) = (&window.open, &window.close, &window.tally);
    let ops_n = tally.all().count().max(1) as f64;
    let mut values = Values::default();

    // Source 1: spans opened here around the calls into each layer.
    let events = sink.events();
    let spans = trace::spans_of(&events, "bench");
    let roots = if staged_fetch {
        &tally.staged_roots
    } else {
        &tally.product_roots
    };
    let breakdown = trace::breakdown(&spans, roots);

    // Source 2: replay probes over the messages one op received — the
    // last warm-up fetch where it was staged, else one peer's batch.
    let (owner, manifest, batch, encoder_new, encode, coded_bytes, manifest_bytes) =
        match (&world.deployment, &client.last_published) {
            (Some(d), _) => (
                &d.file.owner,
                &d.file.manifest,
                d.batch0.clone(),
                d.encoder_new,
                d.encode,
                d.coded_bytes,
                d.manifest_bytes,
            ),
            (None, Some(p)) => (
                &world.owner,
                &p.manifest,
                p.peers[0].store().messages(FileId(1)).to_vec(),
                p.encoder_new,
                p.encode,
                p.coded_bytes,
                p.manifest_bytes,
            ),
            (None, None) => panic!("no publish succeeded; nothing to probe"),
        };
    let received = if captured.is_empty() {
        batch.clone()
    } else {
        captured
    };
    let chunks = manifest.chunk_count();
    let probed_chunks = ((PROBE_PLAINTEXT / manifest.chunk_size()) as u32).clamp(1, chunks);
    let scale = f64::from(chunks) / f64::from(probed_chunks);
    let in_probe = |m: &EncodedMessage| FileManifest::chunk_of(m.message_id()) < probed_chunks;
    let received: Vec<EncodedMessage> = received.into_iter().filter(in_probe).collect();
    let batch: Vec<EncodedMessage> = batch.into_iter().filter(in_probe).collect();
    let probe = probes::layer_probes(owner, manifest, probed_chunks, &received, &batch);
    fill_probe_metrics(&mut values, &probe, par, scale);

    // Source 3: counts read at the boundary.
    let counter = |name: &str| -> f64 {
        let at = |s: &Snapshot| s.counter(name).unwrap_or(0) as f64;
        at(&close.snapshot) - at(&open.snapshot)
    };
    let hist = |name: &str| -> (f64, f64) {
        let at = |s: &Snapshot| {
            s.histogram(name)
                .map_or((0.0, 0.0), |h| (h.count as f64, h.sum as f64))
        };
        let (c1, s1) = at(&close.snapshot);
        let (c0, s0) = at(&open.snapshot);
        (c1 - c0, s1 - s0)
    };
    let (innovative, redundant) = tally.all().fold((0u64, 0u64), |(i, r), o| {
        (i + o.innovative, r + o.redundant)
    });
    let heal = |pick: fn(&Outcome) -> u64| tally.all().map(pick).sum::<u64>() as f64 / ops_n;
    let op_secs: f64 = tally.all().map(|o| o.elapsed.as_secs_f64()).sum();
    let staged_ms: Vec<f64> = tally
        .staged
        .iter()
        .filter(|o| o.ok)
        .map(|o| o.elapsed.as_secs_f64() * 1e3)
        .collect();
    let traced_p50 = stats::median(&window.product_ms);

    values.set("rlnc.encoder_new_ms", encoder_new.as_secs_f64() * 1e3);
    values.set(
        "rlnc.encode_mbps",
        coded_bytes as f64 / 1e6 / encode.as_secs_f64(),
    );
    values.set(
        "rlnc.manifest_bytes_per_mib",
        manifest_bytes as f64 / (manifest.total_len() as f64 / MIB),
    );
    values.set(
        "rlnc.decode_share",
        match (spec.kind, staged_fetch) {
            (Kind::Publish, _) => 0.0,
            (Kind::Fetch, true) => breakdown.share("rlnc.decode"),
            (Kind::Fetch, false) => probe.decode_ms_per_op * scale / traced_p50,
        },
    );
    values.set(
        "core.user.on_message_share",
        breakdown.share("core.user.on_message"),
    );
    values.set(
        "core.user.redundant_per_innovative",
        redundant as f64 / innovative as f64,
    );
    values.set("rt.recv_wait_share", breakdown.share("rt.recv_wait"));
    let (passes, pass_us) = hist("rt.reactor.pass_us");
    values.set("rt.reactor.pass_busy_share", pass_us / (window.secs * 1e6));
    values.set(
        "rt.reactor.frames_per_pass",
        counter("rt.reactor.served_frames") / passes,
    );
    let (datagrams, frames) = hist("rt.reactor.coalesce_frames");
    values.set("rt.reactor.coalesce_mean_frames", frames / datagrams);
    values.set(
        "rt.reactor.queue_depth_p95",
        close
            .snapshot
            .histogram("rt.reactor.queue_depth")
            .map_or(0.0, |h| h.percentile(0.95)),
    );
    values.set(
        "rt.reactor.backpressure_yields_per_op",
        counter("rt.reactor.backpressure_yields") / ops_n,
    );
    let hits = (close.pool.hits - open.pool.hits) as f64;
    let misses = (close.pool.misses - open.pool.misses) as f64;
    values.set("rt.pool.hit_rate", hits / (hits + misses));
    let all_bytes = window.ok_bytes + window.background_bytes;
    if spec.background {
        let link = PEERS as f64 * spec.peer_rate as f64;
        values.set(
            "rt.limiter.uplink_efficiency",
            all_bytes / (link * window.secs),
        );
        values.set(
            "rt.reactor.share_error",
            (window.ok_bytes / all_bytes - FAIR_SHARE).abs(),
        );
    } else {
        values.set("rt.limiter.uplink_efficiency", 0.0);
        values.set("rt.reactor.share_error", 0.0);
    }
    values.set(
        "rt.window.narrows_per_op",
        counter("rt.reactor.window_narrows") / ops_n,
    );
    values.set(
        "rt.transport.drops_per_op",
        (close.faults.dropped - open.faults.dropped) as f64 / ops_n,
    );
    values.set(
        "rt.transport.corrupted_per_op",
        (close.faults.corrupted - open.faults.corrupted) as f64 / ops_n,
    );
    values.set("rt.heal.retries_per_op", heal(|o| o.heal.retries));
    values.set("rt.heal.replacements_per_op", heal(|o| o.heal.replacements));
    values.set(
        "rt.heal.reassignments_per_op",
        heal(|o| o.heal.reassignments),
    );
    values.set(
        "rt.heal.digest_rejects_per_op",
        heal(|o| o.heal.digest_rejects),
    );
    values.set(
        "rt.heal.backoff_wait_share",
        tally.all().map(|o| o.heal.backoff_wait_us).sum::<u64>() as f64 / 1e6 / op_secs,
    );
    values.set("obs.traced_op_p50_ms", traced_p50);
    values.set(
        "obs.events_per_op",
        (close.emitted - open.emitted) as f64 / ops_n,
    );
    let dropped = sink.dropped_events();
    assert_eq!(
        dropped, 0,
        "the sink evicted events: the trace is not whole"
    );
    values.set("obs.dropped_events", dropped as f64);
    let (tail_pct, tail_ms) = window.tail();
    values.set("client.op_tail_ms", tail_ms);
    values.set("client.op_tail_pct", tail_pct);
    values.set("client.samples", window.product_ms.len() as f64);
    values.set("client.unattributed_share", breakdown.unattributed_share());
    let staged_vs_product = if staged_fetch {
        (stats::median(&staged_ms) / traced_p50 - 1.0) * 100.0
    } else {
        0.0
    };
    values.set("client.staged_vs_product_pct", staged_vs_product);
    values.set(
        "client.background_mbps",
        window.background_bytes / 1e6 / window.secs,
    );

    // Where each op's time went, for the reader of the run.
    let mut kinds: Vec<(&&str, &f64)> = breakdown.by_kind.iter().collect();
    kinds.sort_by(|a, b| b.1.partial_cmp(a.1).expect("finite self times"));
    for (kind, _) in kinds {
        info.push((kind, breakdown.share(kind), "share of op"));
    }

    if spec.faults.is_none() {
        for name in [
            "rt.heal.retries_per_op",
            "rt.heal.replacements_per_op",
            "rt.heal.reassignments_per_op",
            "rt.heal.digest_rejects_per_op",
            "rt.heal.backoff_wait_share",
        ] {
            if values.0[name] != 0.0 {
                warnings.push(format!("{name} = {} on a clean workload", values.0[name]));
            }
        }
    }
    if staged_vs_product > 10.0 {
        warnings.push(format!(
            "client.staged_vs_product_pct = {staged_vs_product:.1}: the staged fetch is not a faithful stand-in"
        ));
    }
    if spec.staged && breakdown.unattributed_share() >= 0.05 {
        warnings.push(format!(
            "client.unattributed_share = {:.3}: spans miss part of the op",
            breakdown.unattributed_share()
        ));
    }

    let path = args.results_dir.join(format!("trace_{}.jsonl", spec.name));
    let jsonl: String = events.iter().map(|e| e.to_json() + "\n").collect();
    if let Err(e) = std::fs::write(&path, jsonl) {
        warnings.push(format!("could not write {}: {e}", path.display()));
    }
    values
}

/// The replay probes' and the `par` probe's numbers under their names.
/// Per-op quantities were measured on a `1/scale` slice of the file.
fn fill_probe_metrics(values: &mut Values, probe: &LayerProbes, par: &ParProbe, scale: f64) {
    values.set("gf.axpy_mbps", probe.gf_axpy_mbps);
    values.set("crypto.md5_mbps", probe.md5_mbps);
    values.set("crypto.handshake_us", probe.handshake_us);
    values.set("crypto.coeff_row_ns", probe.coeff_row_ns);
    values.set("rlnc.verify_ms_per_op", probe.verify_ms_per_op * scale);
    values.set("rlnc.add_message_ns", probe.add_message_ns);
    values.set("rlnc.decode_mbps", probe.decode_mbps);
    values.set(
        "rlnc.decode_vs_roofline",
        probe.decode_mbps / (probe.gf_axpy_mbps / K as f64),
    );
    values.set("core.user.connect_us", probe.connect_us);
    values.set("core.wire.encode_ns_per_frame", probe.wire_encode_ns);
    values.set("core.wire.decode_ns_per_frame", probe.wire_decode_ns);
    values.set("core.peer.next_message_ns", probe.next_message_ns);
    values.set("core.store.insert_ns", probe.store_insert_ns);
    values.set("rt.transport.frame_ns", probe.transport_frame_ns);
    values.set(
        "rt.transport.allocs_per_frame",
        probe.transport_allocs_per_frame,
    );
    values.set("par.threads", par.threads as f64);
    values.set("par.decode_speedup", par.decode_speedup);
    values.set("par.encode_speedup", par.encode_speedup);
    values.set("alloc.allocate_into_ns_n2", probe.allocate_into_ns_n2);
    values.set("alloc.allocate_into_ns_n64", probe.allocate_into_ns_n64);
}
