//! One generated fault schedule, both runtimes: a seeded generator draws
//! loss, corruption, jitter, a per-node override, a peer kill and a
//! Byzantine peer; one [`Schedule`] becomes a `netsim::FaultPlan` for the
//! simulator and for the real-time transport alike, with the rt peers
//! hosted at their sim node indices, and both fetches are held to the same
//! invariants: the original bytes or a typed error, within the fetch's
//! bound, the original bytes whenever two honest, live peers remain, and
//! no ban without an adversary — at most one with one. The client's
//! Byzantine defense is always on; nothing here installs a health engine.
//!
//! The proptest shim does not shrink, so cases are drawn from a plain
//! `SplitMix64` keyed by `ASYMSHARE_FAULT_SEED` and every case prints its
//! schedule before it runs.

use asymshare::rt::{download_file_with, DownloadOptions, Reactor, ReactorConfig, RtNetwork};
use asymshare::{Identity, Peer, RuntimeConfig, SessionStats, SimRuntime, SystemError, User};
use asymshare_gf::{FieldKind, Gf2p32};
use asymshare_netsim::{AdversaryStrategy, FaultPlan, LinkFault, LinkSpeed, NodeId, SplitMix64};
use asymshare_rlnc::{
    ChunkedEncoder, CodecError, DigestKind, EncodedMessage, FileId, FileManifest,
};
use std::time::{Duration, Instant};

const FILE_LEN: usize = 128 * 1024;
const PEERS: usize = 4;
/// Schedules drawn per seed.
const DRAWS: usize = 6;
/// The sim fetch's bound, in one-second allocation slots.
const MAX_SLOTS: u64 = 600;
/// The rt fetch's budget; it must return within this plus a second.
const RT_TIMEOUT: Duration = Duration::from_secs(20);

/// CI sweeps this via the `ASYMSHARE_FAULT_SEED` matrix.
fn fault_seed() -> u64 {
    std::env::var("ASYMSHARE_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

/// A fault schedule in runtime-independent terms. Peer `i` is sim node `i`
/// and rt address `i`; peer 0 is the user's home; the kill instant counts
/// from the start of the download.
#[derive(Debug, Clone)]
struct Schedule {
    seed: u64,
    loss: f64,
    corruption: f64,
    jitter_secs: f64,
    node_fault: Option<(usize, LinkFault)>,
    kill: Option<(usize, f64)>,
    adversary: Option<(usize, AdversaryStrategy)>,
}

fn pick<T: Copy>(rng: &mut SplitMix64, options: &[T]) -> T {
    options[(rng.next_u64() % options.len() as u64) as usize]
}

fn peer(rng: &mut SplitMix64, from: usize) -> usize {
    from + (rng.next_u64() % (PEERS - from) as u64) as usize
}

impl Schedule {
    fn draw(rng: &mut SplitMix64) -> Schedule {
        let seed = rng.next_u64();
        let loss = pick(rng, &[0.0, 0.02, 0.05]);
        let corruption = pick(rng, &[0.0, 0.02]);
        let jitter_secs = pick(rng, &[0.0, 0.002]);
        let node_fault = pick(rng, &[false, true]).then(|| {
            let fault = LinkFault {
                loss_prob: pick(rng, &[0.1, 0.3]),
                corrupt_prob: pick(rng, &[0.0, 0.05]),
                jitter_secs: pick(rng, &[0.0, 0.002]),
            };
            (peer(rng, 0), fault)
        });
        let kill = pick(rng, &[false, true]).then(|| (peer(rng, 1), 0.5 + 1.5 * rng.next_f64()));
        let adversary = pick(rng, &[false, true]).then(|| {
            let strategy = pick(
                rng,
                &[
                    AdversaryStrategy::Pollute { prob: 0.5 },
                    AdversaryStrategy::Pollute { prob: 1.0 },
                    AdversaryStrategy::Replay { prob: 0.5 },
                    AdversaryStrategy::SelectiveServe {
                        serve_fraction: 0.3,
                    },
                ],
            );
            (peer(rng, 0), strategy)
        });
        Schedule {
            seed,
            loss,
            corruption,
            jitter_secs,
            node_fault,
            kill,
            adversary,
        }
    }

    /// The plan for a runtime whose download starts `epoch_secs` into the
    /// plan's clock; only the kill instant depends on it.
    fn plan(&self, epoch_secs: f64) -> FaultPlan {
        let mut plan = FaultPlan::new(self.seed)
            .with_loss(self.loss)
            .with_corruption(self.corruption)
            .with_jitter(self.jitter_secs);
        if let Some((peer, fault)) = self.node_fault {
            plan = plan.with_node_fault(NodeId::new(peer), fault);
        }
        if let Some((peer, at)) = self.kill {
            plan = plan.with_kill(NodeId::new(peer), epoch_secs + at);
        }
        if let Some((peer, strategy)) = self.adversary {
            plan = plan.with_adversary(NodeId::new(peer), strategy);
        }
        plan
    }

    /// Whether at least two peers are neither Byzantine nor killed.
    fn two_honest_live(&self) -> bool {
        let out = [self.kill.map(|k| k.0), self.adversary.map(|a| a.0)];
        (0..PEERS).filter(|p| !out.contains(&Some(*p))).count() >= 2
    }
}

fn identity(i: usize) -> Identity {
    Identity::from_seed(&[b'f', b's', i as u8])
}

fn file_bytes() -> Vec<u8> {
    (0..FILE_LEN).map(|i| (i * 43 % 251) as u8).collect()
}

/// One decodable batch per peer, coded under peer 0's (the owner's) secret.
fn stock() -> (Vec<Vec<EncodedMessage>>, FileManifest) {
    let mut enc = ChunkedEncoder::<Gf2p32>::with_chunk_size(
        FieldKind::Gf2p32,
        4,
        DigestKind::Md5,
        identity(0).coding_secret().clone(),
        FileId(28),
        &file_bytes(),
        16 * 1024,
    )
    .unwrap();
    let batches = enc.encode_for_peers(PEERS).unwrap();
    (batches, enc.manifest().clone())
}

/// The sim fetch, the simulated seconds it took, and its counters.
fn sim_fetch(
    schedule: &Schedule,
    batches: &[Vec<EncodedMessage>],
    manifest: &FileManifest,
) -> (Result<Vec<u8>, SystemError>, f64, SessionStats) {
    let mut sim = SimRuntime::new(RuntimeConfig {
        k: 4,
        chunk_size: 16 * 1024,
        stall_timeout_secs: 2.0,
        retry_backoff_secs: 0.5,
        ..RuntimeConfig::default()
    });
    let ids: Vec<_> = (0..PEERS)
        .map(|i| {
            let id =
                sim.add_participant(identity(i), LinkSpeed::kbps(128.0), LinkSpeed::kbps(3000.0));
            assert_eq!(sim.participant_node(id), NodeId::new(i), "peer i is node i");
            for m in &batches[i] {
                sim.peer_mut(id).store_mut().insert(m.clone());
            }
            id
        })
        .collect();
    let start = sim.now().as_secs();
    sim.set_fault_plan(schedule.plan(start));
    let session = sim
        .start_download(
            ids[0],
            manifest.clone(),
            LinkSpeed::kbps(128.0),
            LinkSpeed::kbps(20_000.0),
            &ids,
        )
        .unwrap();
    let outcome = sim
        .run_to_completion(session, MAX_SLOTS)
        .map(|report| report.data);
    let stats = sim.session_stats(session).clone();
    (outcome, sim.now().as_secs() - start, stats)
}

/// The rt fetch, the wall time it took, and its counters. The plan is
/// installed as the download starts, so the rt's epoch is zero.
fn rt_fetch(
    schedule: &Schedule,
    batches: &[Vec<EncodedMessage>],
    manifest: &FileManifest,
) -> (Result<Vec<u8>, SystemError>, Duration, SessionStats) {
    let network = RtNetwork::new();
    let mut reactor = Reactor::new(&network, ReactorConfig::default());
    let owner = identity(0);
    let mut peers = Vec::new();
    for (i, batch) in batches.iter().enumerate() {
        let identity = identity(i);
        let key = identity.public_key().to_bytes();
        let mut peer = Peer::new(identity, 1_000.0);
        peer.add_subscriber(owner.public_key().to_bytes());
        for m in batch {
            peer.store_mut().insert(m.clone());
        }
        reactor.add_peer(i as u64, peer, 16 * 1024);
        peers.push((i as u64, key));
    }
    let mut user = User::<Gf2p32>::new(owner, manifest.clone()).unwrap();
    network.install_faults(schedule.plan(0.0));
    let started = Instant::now();
    let outcome = download_file_with(
        &network,
        PEERS as u64, // the sim's remote node
        &mut user,
        &peers,
        0,
        DownloadOptions {
            timeout: RT_TIMEOUT,
            stall_timeout: Duration::from_millis(300),
            retry_backoff: Duration::from_millis(100),
            max_peer_retries: 3,
        },
    );
    let elapsed = started.elapsed();
    reactor.shutdown();
    (outcome, elapsed, user.stats().clone())
}

/// The original bytes, or a typed error only when fewer than two honest,
/// live peers remained; no ban without an adversary, and at most one —
/// the adversary's — with one.
fn check(
    runtime: &str,
    outcome: Result<Vec<u8>, SystemError>,
    stats: &SessionStats,
    schedule: &Schedule,
) {
    let bans = u64::from(schedule.adversary.is_some());
    assert!(
        stats.quarantines <= bans,
        "{runtime} banned {} peer(s) under {schedule:?}",
        stats.quarantines
    );
    match outcome {
        Ok(bytes) => assert!(
            bytes == file_bytes(),
            "{runtime} returned other bytes under {schedule:?}"
        ),
        Err(
            e @ (SystemError::AllPeersUnavailable { .. }
            | SystemError::Codec(CodecError::NotEnoughMessages { .. })),
        ) => assert!(
            !schedule.two_honest_live(),
            "{runtime} failed ({e}) with two honest, live peers under {schedule:?}"
        ),
        Err(e) => panic!("{runtime} failed with an unexpected error ({e}) under {schedule:?}"),
    }
}

#[test]
fn one_generated_plan_holds_on_both_runtimes() {
    let (batches, manifest) = stock();
    let mut rng = SplitMix64::new(fault_seed());
    for case in 0..DRAWS {
        let schedule = Schedule::draw(&mut rng);
        eprintln!("case {case}: {schedule:?}");

        let (outcome, secs, stats) = sim_fetch(&schedule, &batches, &manifest);
        eprintln!("case {case}: sim {} ban(s)", stats.quarantines);
        assert!(
            secs <= MAX_SLOTS as f64 + 1e-9,
            "sim ran {secs} s under {schedule:?}"
        );
        check("sim", outcome, &stats, &schedule);

        let (outcome, elapsed, stats) = rt_fetch(&schedule, &batches, &manifest);
        eprintln!(
            "case {case}: sim {secs:.1} s, rt {elapsed:.2?}, rt {} ban(s)",
            stats.quarantines
        );
        assert!(
            elapsed <= RT_TIMEOUT + Duration::from_secs(1),
            "rt returned after {elapsed:?} under {schedule:?}"
        );
        check("rt", outcome, &stats, &schedule);
    }
}
