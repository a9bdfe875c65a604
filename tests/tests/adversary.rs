//! Byzantine-peer defense integration: seeded adversary strategies must be
//! convicted by the client they attack, on its own evidence and with no
//! health engine installed, banned — a stop and a write-off — and routed
//! around so the download still completes, while honest runs under
//! ordinary loss, corruption, jitter and a slow link never lose a peer to a
//! ban (zero false positives). Observability, where a test turns it on, is
//! only there to read the verdicts back; the defense does not need it.

use asymshare::rt::{download_file, Reactor, ReactorConfig, RtNetwork};
use asymshare::{
    Identity, ParticipantId, Peer, RuntimeConfig, SimRuntime, User, INITIAL_CREDIT_BYTES,
};
use asymshare_gf::{FieldKind, Gf2p32};
use asymshare_netsim::{AdversaryStrategy, FaultPlan, LinkSpeed, NodeId};
use asymshare_obs::{Event, Value};
use asymshare_rlnc::{ChunkedEncoder, DigestKind, FileId};
use std::time::Duration;

fn kbps(v: f64) -> LinkSpeed {
    LinkSpeed::kbps(v)
}

fn cfg() -> RuntimeConfig {
    RuntimeConfig {
        k: 4,
        chunk_size: 16 * 1024,
        ..RuntimeConfig::default()
    }
}

fn payload(n: usize, salt: u8) -> Vec<u8> {
    (0..n).map(|i| ((i * 37) as u8) ^ salt).collect()
}

fn field_u64(e: &Event, name: &str) -> Option<u64> {
    e.fields
        .iter()
        .find(|(n, _)| *n == name)
        .and_then(|(_, v)| match v {
            Value::U64(v) => Some(*v),
            _ => None,
        })
}

fn field_str(e: &Event, name: &str) -> Option<String> {
    e.fields
        .iter()
        .find(|(n, _)| *n == name)
        .and_then(|(_, v)| match v {
            Value::Str(v) => Some(v.clone()),
            _ => None,
        })
}

/// CI sweeps this via the `ASYMSHARE_FAULT_SEED` matrix.
fn fault_seed() -> u64 {
    std::env::var("ASYMSHARE_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(11)
}

/// A seeded download served by the first `serving` of four participants,
/// where participant 3 — with a fat uplink, so its attack traffic is a
/// large share of what the user receives — turns Byzantine (if a strategy
/// is given) six slots in. `observe` records the event log. Returns the
/// finished runtime, the participants, the adversary, the instant the
/// attack began, and the session report.
fn adversary_scenario(
    strategy: Option<AdversaryStrategy>,
    seed: u64,
    salt: u8,
    serving: usize,
    observe: bool,
) -> (
    SimRuntime,
    Vec<ParticipantId>,
    ParticipantId,
    f64,
    asymshare::DownloadReport,
) {
    let mut rt = SimRuntime::new(cfg());
    if observe {
        rt.enable_observability();
    }
    let ids: Vec<_> = (0..4u8)
        .map(|i| {
            let up = if i == 3 { 512.0 } else { 128.0 };
            rt.add_participant(
                Identity::from_seed(&[b'v', salt, i]),
                kbps(up),
                kbps(3000.0),
            )
        })
        .collect();
    let data = payload(1536 * 1024, salt);
    let (manifest, _) = rt
        .disseminate(ids[0], FileId(90 + salt as u64), &data, &ids)
        .unwrap();
    let session = rt
        .start_download(ids[0], manifest, kbps(128.0), kbps(3000.0), &ids[..serving])
        .unwrap();
    // A clean phase: the client's evidence windows start on honest traffic.
    rt.run_slots(6);
    assert!(
        !rt.session_complete(session),
        "scenario bug: download finished before the attack phase began"
    );
    let evil = ids[3];
    let attack_start = rt.now().as_secs();
    if let Some(strategy) = strategy {
        let node = rt.participant_node(evil);
        rt.set_fault_plan(FaultPlan::new(seed).with_adversary(node, strategy));
    }
    let report = rt
        .run_to_completion(session, 7200)
        .expect("download completes despite the adversary");
    assert_eq!(report.data, data, "decoded bytes are authentic");
    (rt, ids, evil, attack_start, report)
}

/// The client's bans, in order: `(instant, peer, strategy)`.
fn bans(log: &[Event]) -> Vec<(f64, u64, String)> {
    log.iter()
        .filter(|e| e.component == "sim.heal" && e.kind == "quarantine")
        .map(|e| {
            let peer = field_u64(e, "peer").expect("a ban names its peer");
            let strategy = field_str(e, "strategy").expect("and its strategy");
            (e.ts, peer, strategy)
        })
        .collect()
}

/// A polluting peer is convicted of pollution, banned within a bounded
/// window, its demand re-planned, and the download still decodes
/// byte-identical data — the full ladder end to end. The same run with
/// observability off bans it the same way.
#[test]
fn pollution_is_attributed_quarantined_and_survived() {
    let pollute = Some(AdversaryStrategy::Pollute { prob: 0.9 });
    let (rt, _ids, evil, attack_start, report) = adversary_scenario(pollute, 11, 1, 4, true);
    let log = rt.event_log();
    let bans = bans(&log);
    assert_eq!(
        bans.iter()
            .map(|(_, p, s)| (*p, s.as_str()))
            .collect::<Vec<_>>(),
        [(evil.0 as u64, "pollute")],
        "only the polluter is banned, once"
    );
    let latency = bans[0].0 - attack_start;
    assert!(latency <= 10.0, "the ban took {latency:.1} s");
    assert_eq!(report.stats.quarantines, 1, "{:?}", report.stats);
    assert!(report.stats.reassignments >= 1, "{:?}", report.stats);
    // The pollution was visible at the digest layer (the rejected bytes
    // are debited from feedback credit — unit-tested in `user`/`peer`).
    assert!(report.stats.corruptions > 0, "{:?}", report.stats);
    assert!(
        log.iter().any(|e| {
            e.component == "sim.deliver"
                && e.kind == "digest_reject"
                && field_u64(e, "peer") == Some(evil.0 as u64)
        }),
        "pollution must surface as digest rejections"
    );
    let (_, _, _, _, dark) = adversary_scenario(pollute, 11, 1, 4, false);
    assert_eq!(dark.stats, report.stats, "the defense runs unobserved");
    assert_eq!(dark.duration_secs, report.duration_secs);
}

/// Credit is never minted: a home ledger grows only by its subscribers'
/// signed feedback, and a report credits each contributor at most the
/// bytes the user took from it that passed the digest check (rejected
/// bytes are debited). So with a polluter among the servers, every
/// contributor's credit above the initial grant stays within its verified
/// bytes — in the simulator, and in the real-time runtime, where the
/// user's feedback report is the only thing that can credit the home peer.
#[test]
fn credit_never_exceeds_verified_bytes() {
    let pollute = AdversaryStrategy::Pollute { prob: 0.9 };
    let salt = 2;
    let (rt, ids, _, _, report) = adversary_scenario(Some(pollute), 13, salt, 4, false);
    assert!(report.stats.corruptions > 0, "{:?}", report.stats);
    let home = &rt.credit_matrix()[ids[0].0];
    for (j, credit) in home.iter().enumerate() {
        let key = Identity::from_seed(&[b'v', salt, j as u8])
            .public_key()
            .to_bytes();
        let verified = report.stats.bytes_by_peer.get(&key).copied().unwrap_or(0);
        assert!(
            credit - INITIAL_CREDIT_BYTES <= verified as f64,
            "sim, participant {j}: {credit} credited, {verified} verified"
        );
    }
    assert!(home.iter().any(|&c| c > INITIAL_CREDIT_BYTES));

    // Two stocked peers serve, one of them polluting; the report goes to
    // an address the test reads and is applied to a home ledger here.
    let network = RtNetwork::new();
    let owner = Identity::from_seed(b"credit-owner");
    let data = payload(256 * 1024, 4);
    let mut enc = ChunkedEncoder::<Gf2p32>::with_chunk_size(
        FieldKind::Gf2p32,
        4,
        DigestKind::Md5,
        owner.coding_secret().clone(),
        FileId(94),
        &data,
        16 * 1024,
    )
    .unwrap();
    let mut reactor = Reactor::new(&network, ReactorConfig::default());
    let mut servers = Vec::new();
    for (addr, batch) in (6..).zip(enc.encode_for_peers(2).unwrap()) {
        let identity = Identity::from_seed(&[b's', addr as u8]);
        servers.push((addr, identity.public_key().to_bytes()));
        let mut server = Peer::new(identity, 1_000.0);
        server.add_subscriber(owner.public_key().to_bytes());
        for m in batch {
            server.store_mut().insert(m);
        }
        reactor.add_peer(addr, server, 1 << 20);
    }
    network.install_faults(FaultPlan::new(13).with_adversary(NodeId::new(6), pollute));
    let inbox = network.register(8);
    let mut user = User::<Gf2p32>::new(owner.clone(), enc.manifest().clone()).unwrap();
    let got = download_file(&network, 9, &mut user, &servers, 8, Duration::from_secs(30))
        .expect("the honest peer covers the file");
    assert_eq!(got, data);
    reactor.shutdown();
    let stats = user.stats();
    assert!(stats.corruptions > 0, "{stats:?}");
    let report = inbox
        .recv_timeout(Duration::from_secs(5))
        .expect("the feedback report reached the home address")
        .decode()
        .expect("one frame");
    let mut home = Peer::new(Identity::from_seed(b"credit-home"), INITIAL_CREDIT_BYTES);
    home.add_subscriber(owner.public_key().to_bytes());
    let mut rng = asymshare_crypto::chacha20::ChaChaRng::new([1; 32], [0; 12]);
    home.on_message(0, report, &mut rng)
        .expect("a signed report");
    for (addr, key) in &servers {
        let credit = home.upload_weight(key) - INITIAL_CREDIT_BYTES;
        let verified = stats.bytes_by_peer.get(key).copied().unwrap_or(0);
        assert!(
            credit <= verified as f64,
            "rt, peer {addr}: {credit} credited, {verified} verified"
        );
    }
    assert!(home.upload_weight(&servers[1].1) > INITIAL_CREDIT_BYTES);
}

/// A replaying peer re-serves stale coded messages; the client convicts
/// it of replay without any digest rejections to lean on.
#[test]
fn replayed_messages_are_detected() {
    let replay = Some(AdversaryStrategy::Replay { prob: 0.8 });
    let (rt, _ids, evil, _t0, report) = adversary_scenario(replay, 17, 3, 4, true);
    let log = rt.event_log();
    // The decoder saw (and cheaply rejected) duplicates from the adversary.
    assert!(
        log.iter().any(|e| {
            e.component == "sim.deliver"
                && e.kind == "duplicate"
                && field_u64(e, "peer") == Some(evil.0 as u64)
        }),
        "replay must surface as duplicate deliveries"
    );
    let bans: Vec<_> = bans(&log).into_iter().map(|(_, p, s)| (p, s)).collect();
    assert_eq!(bans, [(evil.0 as u64, "replay".to_owned())]);
    assert_eq!(report.stats.quarantines, 1);
}

/// Onset → ban, in one-second slots, at the default seed and at each seed
/// CI's byzantine job runs: pollute, replay, selective. The selective
/// readings are the known selective-serving gap — the client cannot see
/// the Eq.-2 budget its peer was granted, so a withheld share is told from
/// a slow link only by its silences — which stays open until signed
/// grants land (DESIGN.md §11).
const PINNED_SLOTS: [(u64, [f64; 3]); 4] = [
    (5, [2.0, 2.0, 9.0]),
    (11, [2.0, 2.0, 20.0]),
    (17, [2.0, 2.0, 6.0]),
    (83, [2.0, 2.0, 11.0]),
];

/// Ban latency and goodput under attack, per strategy. At any fault seed
/// the download keeps at least 0.8 of what the three honest peers alone
/// deliver, and only the adversary is ever banned. At each seed of
/// [`PINNED_SLOTS`] the slots from attack onset to the ban are pinned
/// exactly (the verdicts are a property of the rules, not of the machine),
/// and pollute, replay and selective are each banned.
#[test]
fn every_strategy_is_detected_and_outrun() {
    const SALT: u8 = 5;
    let seed = fault_seed();
    let (_, _, _, _, honest) = adversary_scenario(None, seed, SALT, 3, false);
    let pinned = PINNED_SLOTS.iter().find(|&&(s, _)| s == seed);
    let strategies = [
        AdversaryStrategy::Pollute { prob: 0.9 },
        AdversaryStrategy::Replay { prob: 0.8 },
        AdversaryStrategy::SelectiveServe {
            serve_fraction: 0.25,
        },
    ];
    for (i, strategy) in strategies.into_iter().enumerate() {
        let (rt, _, evil, attack_start, report) =
            adversary_scenario(Some(strategy), seed, SALT, 4, true);
        assert!(
            report.mean_rate_kbps >= 0.8 * honest.mean_rate_kbps,
            "{strategy:?}: goodput {:.1} kbps under the honest floor {:.1}",
            report.mean_rate_kbps,
            honest.mean_rate_kbps
        );
        let bans = bans(&rt.event_log());
        assert!(
            bans.iter()
                .all(|(_, p, s)| *p == evil.0 as u64 && s == strategy.name()),
            "{strategy:?}: {bans:?}"
        );
        assert_eq!(report.stats.quarantines, bans.len() as u64);
        if let Some((_, slots)) = pinned {
            let measured = bans
                .first()
                .map(|(ts, _, _)| (ts - attack_start) / asymshare::SLOT_SECS);
            assert_eq!(measured, Some(slots[i]), "seed {seed}, {strategy:?}");
        }
    }
}

mod zero_false_positives {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Honest seeded runs — loss, corruption up to 8 %, jitter, and one
        /// peer on an eighth of the others' uplink, with no health engine
        /// and no observability — never ban a peer, across random seeds
        /// and fault intensities. Attribution separates malice from
        /// ordinary bad luck and from a slow link.
        #[test]
        fn honest_loss_and_jitter_never_attributed(
            seed in 0u64..1_000,
            loss in 0.0f64..0.10,
            corruption in 0.0f64..0.08,
            jitter in 0.0f64..0.05,
        ) {
            let mut rt = SimRuntime::new(cfg());
            let ids: Vec<_> = (0..4u8)
                .map(|i| {
                    let up = if i == 3 { 32.0 } else { 256.0 };
                    rt.add_participant(Identity::from_seed(&[b'z', i]), kbps(up), kbps(3000.0))
                })
                .collect();
            let data = payload(128 * 1024, 9);
            let (manifest, _) = rt.disseminate(ids[0], FileId(77), &data, &ids).unwrap();
            rt.set_fault_plan(
                FaultPlan::new(seed)
                    .with_loss(loss)
                    .with_corruption(corruption)
                    .with_jitter(jitter),
            );
            let session = rt
                .start_download(ids[0], manifest, kbps(256.0), kbps(3000.0), &ids)
                .unwrap();
            let report = rt.run_to_completion(session, 3600).unwrap();
            prop_assert_eq!(&report.data, &data);
            prop_assert_eq!(report.stats.quarantines, 0, "{:?}", report.stats);
        }
    }
}
