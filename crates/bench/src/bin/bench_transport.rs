//! Committed transport-plane baseline: end-to-end rt serving throughput —
//! peer store → wire frames → in-process transport → parsed payload
//! handles at the receiver — written to `BENCH_transport.json` so data-plane
//! regressions show up as a diff against the checked-in numbers.
//!
//! This measures the *data plane*, not the codec (that is `bench_baseline`'s
//! job): three peers on one reactor worker, with effectively unshaped
//! uplinks, serve their full stock of pre-fabricated messages to a sink that
//! authenticates, requests the file, and parses every arriving
//! `MessageData` frame into a payload handle. Throughput is payload bytes
//! over wall time; a counting global allocator reports heap allocations and
//! allocated bytes per delivered message. The `scaling` block repeats the
//! workload with the reactor hosting 3, 128 and 512 peers (three serving,
//! the rest idle but *hosted*, as in a real swarm where most subscriptions
//! are quiet): an idle peer must cost the worker nothing. Run with
//! `--quick` for one sample, from the repo root:
//!
//! ```text
//! cargo run --release -p asymshare-bench --bin bench_transport
//! ```

use asymshare::rt::{HealthMonitor, Reactor, ReactorConfig, RtNetwork, WindowConfig};
use asymshare::{Identity, Peer, Prover, Wire};
use asymshare_crypto::chacha20::ChaChaRng;
use asymshare_gf::{FieldKind, Gf2p32};
use asymshare_obs::health::HealthConfig;
use asymshare_obs::{EventSink, Registry, Snapshot};
use asymshare_rlnc::{ChunkedEncoder, DigestKind, FileId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// `System` wrapped with atomic counters, so the bench can report
/// allocations per delivered message.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates directly to `System`; the counters are plain atomics.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// File size served by each peer (its full decodable batch).
const FILE_BYTES: usize = 8 << 20;
/// Chunk size; with k = 8 every message carries a 32 KiB payload.
const CHUNK_BYTES: usize = 256 << 10;
const K: usize = 8;
const PEERS: usize = 3;
/// Hosted-peer counts of the `scaling` block (`PEERS` of them serving).
const SCALES: [usize; 3] = [3, 128, 512];

const OUT_PATH: &str = "BENCH_transport.json";

/// Pre-refactor data plane (commit 13ca589: clone-per-serve, copy-per-frame,
/// `to_vec` on receive), measured by this same bench at that commit —
/// median of 5 samples: 1963 MB/s, 5.1 allocs and 164.9 KiB allocated per
/// delivered message. The committed "after" numbers must stay ≥ 2x this
/// rate.
const BASELINE_MB_PER_S: f64 = 1963.0;
const BASELINE_ALLOCS_PER_MSG: f64 = 5.1;

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    xs[xs.len() / 2]
}

/// Committed-throughput statistic. Successive in-process runs get steadily
/// faster (allocator reuse, page cache, branch history), so a median over
/// them overstates what a fresh single-sample `--quick` process can reach;
/// the minimum is both conservative and position-aligned with quick mode.
fn minimum(xs: Vec<f64>) -> f64 {
    xs.into_iter().fold(f64::INFINITY, f64::min)
}

struct Sample {
    mb_per_s: f64,
    allocs_per_msg: f64,
    alloc_kib_per_msg: f64,
}

/// A reactor tuned for an unshaped in-process link: a deep window floor and
/// a short retirement floor so AIMD slow-start never caps the measured data
/// plane (an 8 MiB stock is only 256 frames — on a real RTT the adaptive
/// floor is the point, here it would just measure the ramp).
fn bench_reactor_config() -> ReactorConfig {
    ReactorConfig {
        tick: Duration::from_micros(100),
        window: WindowConfig {
            min_frames: 256,
            max_frames: 512,
            retire_after: Duration::from_micros(100),
            ..WindowConfig::default()
        },
        ..ReactorConfig::default()
    }
}

/// Hosts `hosted` peers on one reactor — the first `batches.len()` hold a
/// batch each, the rest are idle — and streams every stocked message to a
/// sink.
fn run_once(
    owner: &Identity,
    batches: &[Vec<asymshare_rlnc::EncodedMessage>],
    network: RtNetwork,
    hosted: usize,
) -> (Sample, Snapshot) {
    let mut reactor = Reactor::new(&network, bench_reactor_config());
    for i in 0..hosted {
        let identity = Identity::from_seed(&[b'b', b't', (i % 251) as u8, (i / 251) as u8]);
        let mut peer = Peer::new(identity, 1_000.0);
        peer.add_subscriber(owner.public_key().to_bytes());
        for m in batches.get(i).into_iter().flatten() {
            peer.store_mut().insert(m.clone());
        }
        // Effectively unshaped: measure the data plane.
        reactor.add_peer(100 + i as u64, peer, u64::MAX / 2);
    }
    let peer_addrs: Vec<u64> = (0..batches.len()).map(|i| 100 + i as u64).collect();

    let my_addr = 1u64;
    let inbox = network.register(my_addr);
    let mut rng = ChaChaRng::new([0xB7; 32], *b"bench-transp");
    // Authenticate to every peer, then request the file from each.
    let mut provers: Vec<(u64, Prover)> = peer_addrs
        .iter()
        .map(|&addr| {
            let mut p = Prover::new(owner.auth_keys().clone());
            let commit = p.start(&mut rng);
            assert!(network.send(my_addr, addr, &commit));
            (addr, p)
        })
        .collect();
    let mut pending = provers.len();
    while pending > 0 {
        let envelope = inbox
            .recv_timeout(Duration::from_secs(5))
            .expect("handshake reply");
        let wire = envelope.decode().expect("parse");
        let (_, prover) = provers
            .iter_mut()
            .find(|(a, _)| *a == envelope.from)
            .expect("known peer");
        match wire {
            Wire::AuthChallenge { .. } => {
                let response = prover.on_challenge(&wire).expect("challenge");
                assert!(network.send(my_addr, envelope.from, &response));
            }
            Wire::AuthResult { ok, .. } => {
                assert!(ok, "peer accepted");
                pending -= 1;
            }
            other => panic!("unexpected handshake reply: {other:?}"),
        }
    }
    // Only request once every handshake is done, so the timed section below
    // measures a pure message stream.
    for &addr in &peer_addrs {
        assert!(network.send(my_addr, addr, &Wire::FileRequest { file_id: 7 }));
    }

    let expect_msgs: u64 = batches.iter().map(|b| b.len() as u64).sum();
    let expect_bytes: u64 = batches
        .iter()
        .flatten()
        .map(|m| m.payload().len() as u64)
        .sum();

    let allocs0 = ALLOCS.load(Ordering::Relaxed);
    let bytes0 = ALLOC_BYTES.load(Ordering::Relaxed);
    let t0 = Instant::now();
    let mut got_msgs = 0u64;
    let mut got_bytes = 0u64;
    // Per-peer message counts flushed as `rt.download`/`window` events every
    // 250 ms, as the real download loop does — the health engine's rate
    // denominators. Only touched when the network records events at all.
    let events = network.events().clone();
    let mut window_msgs: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    let mut window_flushed = t0;
    while got_msgs < expect_msgs {
        let envelope = inbox
            .recv_timeout(Duration::from_secs(10))
            .expect("message stream");
        // Serving coalesces up to MAX_COALESCE frames per datagram; walk
        // them all, each payload a zero-copy view into the envelope.
        let mut frames_here = 0u64;
        for frame in envelope.decode_all() {
            if let Wire::MessageData(msg) = frame.expect("parse frame") {
                got_msgs += 1;
                frames_here += 1;
                got_bytes += msg.payload().len() as u64;
            }
        }
        if events.is_enabled() {
            *window_msgs.entry(envelope.from).or_insert(0) += frames_here;
            if window_flushed.elapsed() >= Duration::from_millis(250) {
                for (&peer, &msgs) in &window_msgs {
                    events.emit(
                        "rt.download",
                        "window",
                        &[("peer", peer.into()), ("msgs", msgs.into())],
                    );
                }
                window_msgs.clear();
                window_flushed = Instant::now();
            }
        }
        network.recycle_envelope(envelope);
    }
    let elapsed = t0.elapsed().as_secs_f64();
    // Close the last partial window so short runs still score every peer.
    for (&peer, &msgs) in &window_msgs {
        events.emit(
            "rt.download",
            "window",
            &[("peer", peer.into()), ("msgs", msgs.into())],
        );
    }
    let allocs = ALLOCS.load(Ordering::Relaxed) - allocs0;
    let alloc_bytes = ALLOC_BYTES.load(Ordering::Relaxed) - bytes0;
    assert_eq!(got_bytes, expect_bytes, "every payload byte arrived");

    reactor.shutdown();
    let snapshot = network.metrics_snapshot();
    (
        Sample {
            mb_per_s: got_bytes as f64 / 1e6 / elapsed,
            allocs_per_msg: allocs as f64 / got_msgs as f64,
            alloc_kib_per_msg: alloc_bytes as f64 / 1024.0 / got_msgs as f64,
        },
        snapshot,
    )
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let samples = if quick { 1 } else { 5 };

    let owner = Identity::from_seed(b"bench-transport-owner");
    let data: Vec<u8> = (0..FILE_BYTES).map(|i| (i * 131 % 251) as u8).collect();
    let mut enc = ChunkedEncoder::<Gf2p32>::with_chunk_size(
        FieldKind::Gf2p32,
        K,
        DigestKind::Md5,
        owner.coding_secret().clone(),
        FileId(7),
        &data,
        CHUNK_BYTES,
    )
    .expect("encoder");
    let batches = enc.encode_for_peers(PEERS).expect("batches");
    let msgs: usize = batches.iter().map(Vec::len).sum();
    println!(
        "serving {PEERS} x {} MiB ({msgs} messages of {} KiB payload), {samples} sample(s)...",
        FILE_BYTES >> 20,
        (CHUNK_BYTES / K) >> 10,
    );

    // Discarded warmup runs: early passes through the data plane pay for
    // thread spawn, page faults, allocator growth and CPU frequency ramp,
    // which would otherwise dominate a --quick (single-sample) measurement.
    for _ in 0..3 {
        let _ = run_once(&owner, &batches, RtNetwork::new(), PEERS);
    }
    let runs: Vec<Sample> = (0..samples)
        .map(|_| run_once(&owner, &batches, RtNetwork::new(), PEERS).0)
        .collect();
    let mb_per_s = minimum(runs.iter().map(|s| s.mb_per_s).collect());
    let allocs_per_msg = median(runs.iter().map(|s| s.allocs_per_msg).collect());
    let alloc_kib_per_msg = median(runs.iter().map(|s| s.alloc_kib_per_msg).collect());

    // Observability overhead: alternate metrics-disabled and metrics-enabled
    // runs in ABBA order so the machine's monotonic warmup drift cancels out
    // of the comparison (cross-process numbers drift far more than the
    // effect being measured). The last enabled run's snapshot supplies the
    // queue/pool columns; bench_smoke gates overhead_pct at 5%.
    let observed_net = || RtNetwork::with_observability(Registry::new(), EventSink::new());
    let cycles = if quick { 2 } else { 5 };
    let mut disabled_runs = Vec::new();
    let mut observed_runs = Vec::new();
    let mut snapshot = None;
    for _ in 0..cycles {
        disabled_runs.push(
            run_once(&owner, &batches, RtNetwork::new(), PEERS)
                .0
                .mb_per_s,
        );
        observed_runs.push(run_once(&owner, &batches, observed_net(), PEERS).0.mb_per_s);
        let (s, snap) = run_once(&owner, &batches, observed_net(), PEERS);
        observed_runs.push(s.mb_per_s);
        snapshot = Some(snap);
        disabled_runs.push(
            run_once(&owner, &batches, RtNetwork::new(), PEERS)
                .0
                .mb_per_s,
        );
    }
    let snapshot = snapshot.expect("at least one observed run");
    let disabled_mb_per_s = median(disabled_runs);
    let observed_mb_per_s = median(observed_runs);
    let overhead_pct =
        ((disabled_mb_per_s - observed_mb_per_s) / disabled_mb_per_s * 100.0).max(0.0);
    let pool_hits = snapshot.gauge("rt.pool.hits").unwrap_or(0.0);
    let pool_misses = snapshot.gauge("rt.pool.misses").unwrap_or(0.0);
    let pool_hit_rate = pool_hits / (pool_hits + pool_misses).max(1.0);
    let coalesce = snapshot.histogram("rt.reactor.coalesce_frames");
    let coalesce_mean = coalesce.as_ref().map(|h| h.mean()).unwrap_or(0.0);
    let coalesce_p50 = coalesce.as_ref().map(|h| h.percentile(0.50)).unwrap_or(0.0);
    let coalesce_p95 = coalesce.as_ref().map(|h| h.percentile(0.95)).unwrap_or(0.0);
    let served_frames = snapshot.counter("rt.reactor.served_frames").unwrap_or(0);
    let sends = snapshot.counter("rt.transport.sends").unwrap_or(0);

    // Health-engine overhead: same ABBA discipline, but both sides run with
    // observability ON — the comparison isolates the cost of the streaming
    // detector bank (event cursor drain + evaluation on a sampling thread)
    // on top of the already-measured instrumentation cost.
    let mut plain_runs = Vec::new();
    let mut health_runs = Vec::new();
    let mut last_report = None;
    for _ in 0..cycles {
        plain_runs.push(run_once(&owner, &batches, observed_net(), PEERS).0.mb_per_s);
        let net = observed_net();
        let monitor =
            HealthMonitor::spawn(&net, HealthConfig::default(), Duration::from_millis(50));
        health_runs.push(run_once(&owner, &batches, net, PEERS).0.mb_per_s);
        last_report = Some(monitor.shutdown());
        plain_runs.push(run_once(&owner, &batches, observed_net(), PEERS).0.mb_per_s);
        let net = observed_net();
        let monitor =
            HealthMonitor::spawn(&net, HealthConfig::default(), Duration::from_millis(50));
        health_runs.push(run_once(&owner, &batches, net, PEERS).0.mb_per_s);
        monitor.shutdown();
    }
    let report = last_report.expect("at least one health run");
    let plain_mb_per_s = median(plain_runs);
    let health_mb_per_s = median(health_runs);
    let health_overhead_pct =
        ((plain_mb_per_s - health_mb_per_s) / plain_mb_per_s * 100.0).max(0.0);
    let min_score = report
        .peers
        .iter()
        .map(|p| p.score)
        .fold(100.0f64, f64::min);

    // Scaling: the same serving stock, growing hosted-peer count.
    let scaling: Vec<(usize, f64)> = SCALES
        .iter()
        .map(|&hosted| {
            let runs = (0..samples)
                .map(|_| {
                    run_once(&owner, &batches, RtNetwork::new(), hosted)
                        .0
                        .mb_per_s
                })
                .collect();
            (hosted, minimum(runs))
        })
        .collect();

    println!("  throughput: {mb_per_s:.0} MB/s (baseline {BASELINE_MB_PER_S:.0})");
    println!("  allocs/msg: {allocs_per_msg:.1} (baseline {BASELINE_ALLOCS_PER_MSG:.1})");
    println!("  alloc KiB/msg: {alloc_kib_per_msg:.1}");
    println!(
        "  metrics: disabled {disabled_mb_per_s:.0} vs observed {observed_mb_per_s:.0} MB/s \
         ({overhead_pct:.1}% overhead), pool hit rate {pool_hit_rate:.3}, \
         {coalesce_mean:.1} frames/datagram (p50 {coalesce_p50:.1}, p95 {coalesce_p95:.1})"
    );
    for (hosted, mb_per_s) in &scaling {
        println!("  {hosted:>4} hosted peers: {mb_per_s:.0} MB/s");
    }
    println!(
        "  health: plain {plain_mb_per_s:.0} vs engine-on {health_mb_per_s:.0} MB/s \
         ({health_overhead_pct:.1}% overhead), {} peer(s) scored, {} alert(s), min score {min_score:.1}",
        report.peers.len(),
        report.total_alerts
    );

    let json = format!(
        "{{\n  \"config\": {{\n    \"peers\": {PEERS},\n    \"file_bytes\": {FILE_BYTES},\n    \"chunk_bytes\": {CHUNK_BYTES},\n    \"k\": {K},\n    \"messages\": {msgs},\n    \"samples\": {samples},\n    \"statistic\": \"min of samples (throughput), median (allocs)\"\n  }},\n  \"before\": {{\n    \"mb_per_s\": {BASELINE_MB_PER_S:.0},\n    \"allocs_per_msg\": {BASELINE_ALLOCS_PER_MSG:.1}\n  }},\n  \"after\": {{\n    \"mb_per_s\": {mb_per_s:.0},\n    \"allocs_per_msg\": {allocs_per_msg:.1},\n    \"alloc_kib_per_msg\": {alloc_kib_per_msg:.1}\n  }},\n  \"metrics\": {{\n    \"disabled_mb_per_s\": {disabled_mb_per_s:.0},\n    \"observed_mb_per_s\": {observed_mb_per_s:.0},\n    \"overhead_pct\": {overhead_pct:.1},\n    \"pool_hit_rate\": {pool_hit_rate:.3},\n    \"coalesce_mean_frames\": {coalesce_mean:.1},\n    \"coalesce_p50_frames\": {coalesce_p50:.1},\n    \"coalesce_p95_frames\": {coalesce_p95:.1},\n    \"served_frames\": {served_frames},\n    \"transport_sends\": {sends}\n  }},\n  \"health\": {{\n    \"plain_mb_per_s\": {plain_mb_per_s:.0},\n    \"enabled_mb_per_s\": {health_mb_per_s:.0},\n    \"overhead_pct\": {health_overhead_pct:.1},\n    \"windows\": {},\n    \"peers_scored\": {},\n    \"alerts\": {},\n    \"min_score\": {min_score:.1}\n  }},\n  \"scaling\": [\n{}\n  ]\n}}\n",
        report.windows,
        report.peers.len(),
        report.total_alerts,
        scaling
            .iter()
            .map(|(hosted, mb_per_s)| format!(
                "    {{ \"peers\": {hosted}, \"mb_per_s\": {mb_per_s:.0} }}"
            ))
            .collect::<Vec<_>>()
            .join(",\n")
    );
    std::fs::write(OUT_PATH, json).expect("write transport baseline");
    println!("wrote {OUT_PATH}");
}
