//! Byzantine-peer defense integration: seeded adversary strategies must be
//! detected at line rate, attributed to the right strategy, quarantined by
//! the response ladder, and routed around so the download still completes —
//! while honest runs under ordinary loss and jitter never trip an attack
//! verdict (zero false positives).

use asymshare::{Identity, ParticipantId, RuntimeConfig, SimRuntime};
use asymshare_netsim::{AdversaryStrategy, FaultPlan, LinkSpeed};
use asymshare_obs::health::{HealthConfig, HealthEngine};
use asymshare_obs::stream::EventCursor;
use asymshare_obs::{Event, EventSink, Value};
use asymshare_rlnc::FileId;

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

/// Short warmup so the clean phase establishes baselines quickly; no score
/// recovery so the final report is a monotone record of the whole run.
fn detector_cfg() -> HealthConfig {
    HealthConfig {
        warmup_windows: 3,
        recovery_per_window: 0.0,
        ..HealthConfig::default()
    }
}

/// CI sweeps this via the `ASYMSHARE_FAULT_SEED` matrix.
fn fault_seed() -> u64 {
    std::env::var("ASYMSHARE_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(11)
}

/// A seeded download served by the first `serving` of four participants,
/// where participant 3 turns Byzantine (if a strategy is given) after the
/// detectors warm up on clean behavior. Returns the finished runtime, the
/// participants, the adversary, the instant the attack began, and the
/// session report.
fn adversary_scenario(
    strategy: Option<AdversaryStrategy>,
    seed: u64,
    salt: u8,
    serving: usize,
) -> (
    SimRuntime,
    Vec<ParticipantId>,
    ParticipantId,
    f64,
    asymshare::DownloadReport,
) {
    let mut rt = SimRuntime::new(cfg());
    rt.enable_health(detector_cfg());
    // Participant 3 — the future adversary — gets a fat uplink so its
    // attack traffic clears the engine's per-window evidence floors (e.g.
    // `attack_min_duplicates` for the replay verdict).
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
    // Clean phase: clear the detector warmup before the attack begins.
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

/// Attack events attributed to `peer`, in emission order.
fn attacks_against(log: &[Event], peer: u64) -> Vec<Event> {
    log.iter()
        .filter(|e| {
            e.component == "health" && e.kind == "attack" && field_u64(e, "peer") == Some(peer)
        })
        .cloned()
        .collect()
}

/// Whether the response ladder quarantined `peer` at any point.
fn was_quarantined(log: &[Event], peer: u64) -> bool {
    log.iter().any(|e| {
        e.component == "sim.heal" && e.kind == "quarantine" && field_u64(e, "peer") == Some(peer)
    })
}

/// A polluting peer is attributed, quarantined within a bounded window,
/// its demand re-planned, and the download still decodes byte-identical
/// data — the full response ladder end to end.
#[test]
fn pollution_is_attributed_quarantined_and_survived() {
    let (rt, ids, evil, attack_start, report) =
        adversary_scenario(Some(AdversaryStrategy::Pollute { prob: 0.9 }), 11, 1, 4);
    let log = rt.event_log();

    let attacks = attacks_against(&log, evil.0 as u64);
    assert!(!attacks.is_empty(), "pollution must raise attack verdicts");
    assert!(
        attacks
            .iter()
            .any(|e| field_str(e, "strategy").as_deref() == Some("pollute")),
        "verdicts name the pollute strategy: {attacks:?}"
    );
    // Line-rate detection: the first verdict lands within a bounded window
    // of the attack starting (warmup is already cleared, strikes take a
    // couple of evaluation windows).
    let first_verdict = attacks[0].ts;
    assert!(
        first_verdict - attack_start <= 60.0,
        "detection took {:.1}s",
        first_verdict - attack_start
    );

    // The response ladder fired: a quarantine event against the adversary,
    // tallied in the session stats, and the engine still reports the ban.
    assert!(
        was_quarantined(&log, evil.0 as u64),
        "the adversary must be quarantined"
    );
    assert!(report.stats.quarantines >= 1, "{:?}", report.stats);

    let health = rt.health_report().expect("health enabled");
    let entry = health
        .peers
        .iter()
        .find(|p| p.peer == evil.0 as u64)
        .expect("adversary scored");
    assert!(entry.attacks >= 1);
    // Honest peers carry no attack verdicts.
    for &id in &ids {
        if id == evil {
            continue;
        }
        assert!(
            attacks_against(&log, id.0 as u64).is_empty(),
            "honest peer {id:?} was falsely accused"
        );
    }
    // The pollution was visible at the digest layer (rejections counted;
    // the rejected bytes are debited from feedback credit — unit-tested in
    // `user`/`peer`), and the adversary's score fell out of the healthy
    // band.
    assert!(report.stats.corruptions > 0, "{:?}", report.stats);
    assert!(
        log.iter().any(|e| {
            e.component == "sim.deliver"
                && e.kind == "digest_reject"
                && field_u64(e, "peer") == Some(evil.0 as u64)
        }),
        "pollution must surface as digest rejections"
    );
    assert!(!entry.healthy, "the adversary must leave the healthy band");
}

/// A credit-inflating peer's claimed contribution diverges from what the
/// downloader actually accepted; the balance detector attributes it.
#[test]
fn credit_inflation_divergence_is_attributed() {
    let (rt, _ids, evil, _t0, _report) = adversary_scenario(
        Some(AdversaryStrategy::InflateCredit { factor: 4.0 }),
        13,
        2,
        4,
    );
    let log = rt.event_log();
    let attacks = attacks_against(&log, evil.0 as u64);
    assert!(
        attacks
            .iter()
            .any(|e| field_str(e, "strategy").as_deref() == Some("inflate_credit")),
        "inflated credit must be attributed: {attacks:?}"
    );
}

/// A replaying peer re-serves stale coded messages; the duplicate-rate
/// detector attributes it without any digest rejections to lean on.
#[test]
fn replayed_messages_are_detected() {
    let (rt, _ids, evil, _t0, _report) =
        adversary_scenario(Some(AdversaryStrategy::Replay { prob: 0.8 }), 17, 3, 4);
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
    let attacks = attacks_against(&log, evil.0 as u64);
    assert!(
        attacks
            .iter()
            .any(|e| field_str(e, "strategy").as_deref() == Some("replay")),
        "replay must be attributed: {attacks:?}"
    );
}

/// Detection latency and goodput under attack, per strategy. At any fault
/// seed every strategy is attributed and the download keeps at least 0.8
/// of what the three honest peers alone deliver. At the default seed the
/// slots from attack onset to the first verdict are pinned exactly —
/// detection delay is a property of the detectors, not of the machine —
/// and every adversary ends up quarantined. (Other seeds do not promise
/// the ban: at seed 83 a 25 % selective server draws two isolated
/// one-strike verdicts and the download finishes before a second strike.)
#[test]
fn every_strategy_is_detected_and_outrun() {
    const SALT: u8 = 5;
    let seed = fault_seed();
    let (_, _, _, _, honest) = adversary_scenario(None, seed, SALT, 3);
    let cases = [
        (AdversaryStrategy::Pollute { prob: 0.9 }, 1.0),
        (AdversaryStrategy::Replay { prob: 0.8 }, 1.0),
        (
            AdversaryStrategy::SelectiveServe {
                serve_fraction: 0.25,
            },
            3.0,
        ),
        (AdversaryStrategy::InflateCredit { factor: 4.0 }, 5.0),
    ];
    for (strategy, pinned_slots) in cases {
        let (rt, _, evil, attack_start, report) = adversary_scenario(Some(strategy), seed, SALT, 4);
        let log = rt.event_log();
        let attacks = attacks_against(&log, evil.0 as u64);
        assert!(!attacks.is_empty(), "{strategy:?} was never attributed");
        assert!(
            report.mean_rate_kbps >= 0.8 * honest.mean_rate_kbps,
            "{strategy:?}: goodput {:.1} kbps under the honest floor {:.1}",
            report.mean_rate_kbps,
            honest.mean_rate_kbps
        );
        if seed == 11 {
            let detection_slots = (attacks[0].ts - attack_start) / rt.config().slot_secs;
            assert_eq!(detection_slots, pinned_slots, "{strategy:?}");
            assert!(
                was_quarantined(&log, evil.0 as u64),
                "{strategy:?}: the adversary must be quarantined"
            );
        }
    }
}

/// Attack-verdict identity for the golden comparison: everything the
/// engine computes for a verdict.
type AttackKey = (f64, u64, String, String, u64);

/// Golden pin: replaying the sim's event log through the rt-style
/// sink/cursor/engine pipeline at the recorded evaluation instants must
/// reproduce the sim's attack-verdict sequence bit-exactly — attribution
/// is a pure function of (events, evaluation instants), which is what
/// makes sim and rt attack reports comparable at all.
#[test]
fn golden_attack_sequence_sim_vs_rt_replay() {
    let (rt, _ids, _evil, _t0, _report) =
        adversary_scenario(Some(AdversaryStrategy::Pollute { prob: 0.9 }), 11, 4, 4);
    let log = rt.event_log();

    let key = |ts: f64, e: &Event| -> AttackKey {
        (
            ts,
            field_u64(e, "peer").expect("attack has peer"),
            field_str(e, "strategy").expect("attack has strategy"),
            field_str(e, "detector").expect("attack has detector"),
            field_u64(e, "strikes").expect("attack has strikes"),
        )
    };
    let expected: Vec<AttackKey> = log
        .iter()
        .filter(|e| e.component == "health" && e.kind == "attack")
        .map(|e| key(e.ts, e))
        .collect();
    assert!(!expected.is_empty(), "the attack phase must raise verdicts");

    let sink = EventSink::new();
    let mut cursor = EventCursor::new(&sink);
    let mut engine = HealthEngine::new(detector_cfg());
    let mut replayed: Vec<AttackKey> = Vec::new();
    for e in &log {
        if e.component == "health" {
            if e.kind == "window" {
                for ev in cursor.drain() {
                    engine.observe_event(&ev);
                }
                let _ = engine.evaluate(e.ts);
                for a in engine.last_attacks() {
                    replayed.push((
                        a.ts,
                        a.peer,
                        a.strategy.to_owned(),
                        a.detector.to_owned(),
                        a.strikes as u64,
                    ));
                }
            }
            continue;
        }
        sink.emit_at(e.ts, e.component, e.kind, &e.fields);
    }
    assert_eq!(
        replayed, expected,
        "rt-style replay must pin the sim's attack sequence"
    );
    assert_eq!(engine.report(), rt.health_report().expect("health enabled"));
}

mod zero_false_positives {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Honest seeded runs — loss and jitter only, no adversary — must
        /// never trip an attack verdict or a quarantine, across random
        /// seeds and fault intensities. Attribution separates malice from
        /// ordinary bad luck.
        #[test]
        fn honest_loss_and_jitter_never_attributed(
            seed in 0u64..1_000,
            loss in 0.0f64..0.10,
            jitter in 0.0f64..0.05,
        ) {
            let mut rt = SimRuntime::new(cfg());
            rt.enable_health(detector_cfg());
            let ids: Vec<_> = (0..4u8)
                .map(|i| {
                    rt.add_participant(
                        Identity::from_seed(&[b'z', i]),
                        kbps(256.0),
                        kbps(3000.0),
                    )
                })
                .collect();
            let data = payload(128 * 1024, 9);
            let (manifest, _) = rt.disseminate(ids[0], FileId(77), &data, &ids).unwrap();
            rt.set_fault_plan(FaultPlan::new(seed).with_loss(loss).with_jitter(jitter));
            let session = rt
                .start_download(ids[0], manifest, kbps(256.0), kbps(3000.0), &ids)
                .unwrap();
            let report = rt.run_to_completion(session, 3600).unwrap();
            prop_assert_eq!(&report.data, &data);
            prop_assert_eq!(report.stats.quarantines, 0);
            let health = rt.health_report().expect("health enabled");
            for p in &health.peers {
                prop_assert_eq!(p.attacks, 0, "false attack verdict on peer {}", p.peer);
                prop_assert!(!p.quarantined, "false quarantine on peer {}", p.peer);
            }
            let log = rt.event_log();
            prop_assert!(
                log.iter().all(|e| e.kind != "attack" && e.kind != "quarantine"),
                "honest run emitted attack/quarantine events"
            );
        }
    }
}
