//! Observability integration: the deployment must report an Eq.-2 credit
//! matrix consistent with what was actually served, and the JSONL
//! event log must replay the self-healing sequence of a faulted download.

use asymshare::{Identity, RuntimeConfig, SimRuntime};
use asymshare_netsim::{FaultPlan, LinkSpeed};
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

/// A clean 5-peer download with observability on: the home peer's ledger
/// row (Eq. 2) must credit each contributor by no more than the wire bytes
/// that actually arrived from it.
#[test]
fn metrics_snapshot_credit_matrix_matches_eq2() {
    let mut rt = SimRuntime::new(cfg());
    rt.enable_observability();
    let peers: Vec<_> = (0..5u8)
        .map(|i| rt.add_participant(Identity::from_seed(&[b'c', i]), kbps(256.0), kbps(3000.0)))
        .collect();
    let data = payload(256 * 1024, 5);
    let (manifest, _) = rt.disseminate(peers[0], FileId(31), &data, &peers).unwrap();
    let session = rt
        .start_download(peers[0], manifest, kbps(256.0), kbps(3000.0), &peers)
        .unwrap();
    let report = rt.run_to_completion(session, 3600).unwrap();
    assert_eq!(report.data, data);
    // Let the final feedback window flush into the home peer's ledger.
    rt.run_slots(rt.config().feedback_every_slots + 2);

    let initial = asymshare::INITIAL_CREDIT_BYTES;
    let matrix = rt.credit_matrix();
    assert_eq!(matrix.len(), 5);
    assert!(matrix.iter().all(|row| row.len() == 5));
    // Eq. 2: weight = initial credit + fed-back accepted bytes. Credit can
    // never exceed the wire bytes delivered by that peer (rejected or
    // duplicate messages are not fed back).
    let mut credited = 0;
    for (&j, &delivered) in &report.per_peer_bytes {
        if j == 0 {
            continue;
        }
        let credit = matrix[0][j];
        assert!(credit >= initial, "peer {j}: credit below initial");
        assert!(
            credit - initial <= delivered as f64,
            "peer {j}: credit {credit} exceeds delivered {delivered}"
        );
        if credit > initial {
            credited += 1;
        }
    }
    assert!(credited >= 2, "several remote contributors earned credit");
    let snap = rt.metrics_snapshot();
    assert!(snap.gauge("sim.net.bytes_delivered").unwrap() > 0.0);
}

/// The peer-churn acceptance scenario with observability on: the event log
/// must replay the heal sequence — every retry, write-off, and
/// reassignment the stats counted, with write-off preceding reassignment.
#[test]
fn event_log_replays_heal_sequence() {
    let mut rt = SimRuntime::new(RuntimeConfig {
        stall_timeout_secs: 1.5,
        retry_backoff_secs: 0.5,
        max_peer_retries: 1,
        ..cfg()
    });
    rt.enable_observability();
    let peers: Vec<_> = (0..5u8)
        .map(|i| rt.add_participant(Identity::from_seed(&[b'y', i]), kbps(256.0), kbps(3000.0)))
        .collect();
    let data = payload(1024 * 1024, 10);
    let (manifest, _) = rt.disseminate(peers[0], FileId(21), &data, &peers).unwrap();
    let t0 = rt.now().as_secs();
    rt.set_fault_plan(
        FaultPlan::new(42)
            .with_loss(0.05)
            .with_kill(rt.participant_node(peers[3]), t0 + 3.0)
            .with_kill(rt.participant_node(peers[4]), t0 + 3.0),
    );
    let session = rt
        .start_download(peers[0], manifest, kbps(256.0), kbps(3000.0), &peers)
        .unwrap();
    let report = rt.run_to_completion(session, 3600).unwrap();
    assert_eq!(report.data, data, "decode must be exact despite churn");
    assert!(report.stats.retries >= 1 && report.stats.reassignments >= 1);

    let events = rt.event_log();
    let count = |comp: &str, kind: &str| {
        events
            .iter()
            .filter(|e| e.component == comp && e.kind == kind)
            .count() as u64
    };
    assert_eq!(count("sim.heal", "retry"), report.stats.retries);
    assert_eq!(count("sim.heal", "reassign"), report.stats.reassignments);
    assert!(count("sim.heal", "write_off") >= report.stats.reassignments);
    assert_eq!(
        count("sim.deliver", "replacement_request"),
        report.stats.replacements
    );
    assert!(count("sim.feedback", "report") >= 1);
    // A write-off always precedes the reassignment it triggers.
    let first_write_off = events
        .iter()
        .position(|e| e.component == "sim.heal" && e.kind == "write_off")
        .expect("at least one write-off");
    let first_reassign = events
        .iter()
        .position(|e| e.component == "sim.heal" && e.kind == "reassign")
        .expect("at least one reassignment");
    assert!(first_write_off < first_reassign);
    // Event timestamps are simulated time and never run backwards.
    assert!(events.windows(2).all(|w| w[0].ts <= w[1].ts));
    // The JSONL serialization carries one line per event.
    assert_eq!(rt.events_jsonl().lines().count(), events.len());
    // The drop counter saw every lost flow the log names as headed for the
    // user (plus any lost traffic to the peers).
    let snap = rt.metrics_snapshot();
    assert!(snap.counter("sim.deliver.drops").unwrap() >= count("sim.deliver", "drop"));
}
