//! Whole-system integration tests: every layer together, from finite-field
//! arithmetic up through the simulated deployment.

use asymshare::{Identity, RuntimeConfig, SimRuntime, SystemError};
use asymshare_netsim::{FaultPlan, LinkSpeed};
use asymshare_rlnc::FileId;

fn kbps(v: f64) -> LinkSpeed {
    LinkSpeed::kbps(v)
}

fn cfg() -> RuntimeConfig {
    RuntimeConfig {
        k: 4,
        chunk_size: 32 * 1024,
        ..RuntimeConfig::default()
    }
}

fn payload(n: usize, salt: u8) -> Vec<u8> {
    (0..n).map(|i| ((i * 37) as u8) ^ salt).collect()
}

/// The paper's headline scenario end to end: dissemination while idle, then
/// a remote download that beats the home uplink by aggregating peers.
#[test]
fn remote_access_beats_home_uplink() {
    let mut rt = SimRuntime::new(cfg());
    let peers: Vec<_> = (0..5u8)
        .map(|i| rt.add_participant(Identity::from_seed(&[b'f', i]), kbps(256.0), kbps(3000.0)))
        .collect();
    let data = payload(384 * 1024, 1);
    let (manifest, _) = rt.disseminate(peers[0], FileId(1), &data, &peers).unwrap();
    let session = rt
        .start_download(peers[0], manifest, kbps(256.0), kbps(3000.0), &peers)
        .unwrap();
    let report = rt.run_to_completion(session, 3600).unwrap();
    assert_eq!(report.data, data);
    let single_secs = data.len() as f64 * 8.0 / 256_000.0;
    assert!(
        single_secs / report.duration_secs > 2.0,
        "speedup {:.2} too small",
        single_secs / report.duration_secs
    );
}

/// A user can stream from a strict subset of peers when its home peer is
/// offline, as long as the subset holds k messages per chunk.
#[test]
fn download_without_home_peer() {
    let mut rt = SimRuntime::new(cfg());
    let peers: Vec<_> = (0..4u8)
        .map(|i| rt.add_participant(Identity::from_seed(&[b'g', i]), kbps(512.0), kbps(3000.0)))
        .collect();
    let data = payload(128 * 1024, 2);
    let (manifest, _) = rt.disseminate(peers[0], FileId(2), &data, &peers).unwrap();
    // Only peers 1..3 serve: the owner's home peer never participates.
    let serving = &peers[1..];
    let session = rt
        .start_download(peers[0], manifest, kbps(256.0), kbps(3000.0), serving)
        .unwrap();
    let report = rt.run_to_completion(session, 3600).unwrap();
    assert_eq!(report.data, data);
    assert!(!report.per_peer_bytes.contains_key(&0), "home peer idle");
}

/// Two users downloading concurrently share each peer's uplink; both finish
/// and both decode correctly.
#[test]
fn two_concurrent_downloads() {
    let mut rt = SimRuntime::new(cfg());
    let peers: Vec<_> = (0..4u8)
        .map(|i| rt.add_participant(Identity::from_seed(&[b'h', i]), kbps(512.0), kbps(5000.0)))
        .collect();
    let data_a = payload(96 * 1024, 3);
    let data_b = payload(96 * 1024, 4);
    let (man_a, _) = rt
        .disseminate(peers[0], FileId(10), &data_a, &peers)
        .unwrap();
    let (man_b, _) = rt
        .disseminate(peers[1], FileId(11), &data_b, &peers)
        .unwrap();
    let s_a = rt
        .start_download(peers[0], man_a, kbps(256.0), kbps(5000.0), &peers)
        .unwrap();
    let s_b = rt
        .start_download(peers[1], man_b, kbps(256.0), kbps(5000.0), &peers)
        .unwrap();
    rt.run_slots(600);
    assert!(
        rt.progress(s_a) >= 1.0 - 1e-9,
        "A incomplete: {}",
        rt.progress(s_a)
    );
    assert!(
        rt.progress(s_b) >= 1.0 - 1e-9,
        "B incomplete: {}",
        rt.progress(s_b)
    );
    assert_eq!(rt.report(s_a).unwrap().data, data_a);
    assert_eq!(rt.report(s_b).unwrap().data, data_b);
}

/// Peers storing only k' < k messages per file still jointly serve a full
/// decode (§III-D's storage-limited mode).
#[test]
fn partial_storage_peers_complement_each_other() {
    use asymshare::MessageStore;
    let mut rt = SimRuntime::new(cfg());
    let peers: Vec<_> = (0..4u8)
        .map(|i| rt.add_participant(Identity::from_seed(&[b'i', i]), kbps(512.0), kbps(3000.0)))
        .collect();
    // Every peer keeps at most 2 of the k = 4 messages per chunk. Capping
    // must happen before dissemination deposits arrive.
    for &p in &peers {
        let identity = rt.peer_mut(p).identity().clone();
        let credit = 1_000.0;
        *rt.peer_mut(p) =
            asymshare::Peer::new(identity, credit).with_store(MessageStore::with_per_file_cap(2));
        // Re-grant subscriptions wiped by the replacement.
    }
    // Re-subscribe everyone (replacement cleared the sets).
    let keys: Vec<_> = peers
        .iter()
        .map(|&p| rt.peer_mut(p).identity().public_key().to_bytes())
        .collect();
    for &p in &peers {
        for k in &keys {
            rt.peer_mut(p).add_subscriber(*k);
        }
    }
    // One chunk only (the cap is per file): each peer keeps 2 of its 4
    // batch messages, so 4 peers jointly hold 8 distinct candidates for the
    // chunk's k = 4 requirement.
    let data = payload(24 * 1024, 5);
    let (manifest, _) = rt.disseminate(peers[0], FileId(3), &data, &peers).unwrap();
    let session = rt
        .start_download(peers[0], manifest, kbps(256.0), kbps(3000.0), &peers)
        .unwrap();
    let report = rt.run_to_completion(session, 3600).unwrap();
    assert_eq!(report.data, data);
    assert!(
        report.per_peer_bytes.len() >= 2,
        "a single capped peer cannot serve a decode alone"
    );
}

/// Back-to-back downloads: credit earned by serving the first download
/// shifts the home peer's allocation for the second.
#[test]
fn served_bytes_become_allocation_credit() {
    let mut rt = SimRuntime::new(cfg());
    let a = rt.add_participant(Identity::from_seed(b"credA"), kbps(512.0), kbps(3000.0));
    let b = rt.add_participant(Identity::from_seed(b"credB"), kbps(512.0), kbps(3000.0));
    let c = rt.add_participant(Identity::from_seed(b"credC"), kbps(512.0), kbps(3000.0));
    let all = [a, b, c];
    let data = payload(128 * 1024, 6);
    let (manifest, _) = rt.disseminate(a, FileId(4), &data, &all).unwrap();
    let b_key = rt.peer_mut(b).identity().public_key().to_bytes();
    let c_key = rt.peer_mut(c).identity().public_key().to_bytes();
    let w_b_before = rt.peer_mut(a).upload_weight(&b_key);
    let w_c_before = rt.peer_mut(a).upload_weight(&c_key);
    let session = rt
        .start_download(a, manifest, kbps(256.0), kbps(3000.0), &all)
        .unwrap();
    rt.run_to_completion(session, 3600).unwrap();
    rt.run_slots(15); // flush the final feedback report
    assert!(
        rt.peer_mut(a).upload_weight(&b_key) > w_b_before
            && rt.peer_mut(a).upload_weight(&c_key) > w_c_before,
        "peers that served A's user must gain credit at A"
    );
}

/// Failure injection: one peer's uplink dies mid-download; the remaining
/// peers jointly hold enough distinct messages to finish anyway (the
/// geographic-robustness claim).
#[test]
fn download_survives_peer_outage() {
    let mut rt = SimRuntime::new(cfg());
    let peers: Vec<_> = (0..4u8)
        .map(|i| rt.add_participant(Identity::from_seed(&[b'j', i]), kbps(512.0), kbps(3000.0)))
        .collect();
    let data = payload(256 * 1024, 7);
    let (manifest, _) = rt.disseminate(peers[0], FileId(5), &data, &peers).unwrap();
    let session = rt
        .start_download(peers[0], manifest, kbps(256.0), kbps(3000.0), &peers)
        .unwrap();
    rt.run_slots(2);
    let before = rt.progress(session);
    assert!(before < 1.0, "outage must hit mid-download");
    // Peer 3 goes dark.
    rt.set_participant_link(peers[3], kbps(0.0), kbps(0.0));
    let report = rt.run_to_completion(session, 3600).unwrap();
    assert_eq!(report.data, data);
}

/// Failure injection: a peer's uplink degrades sharply (Fig. 8(b) at the
/// system level); the download still completes, just slower than with all
/// peers at full speed.
#[test]
fn download_adapts_to_capacity_drop() {
    let run = |drop: bool| {
        let mut rt = SimRuntime::new(cfg());
        let peers: Vec<_> = (0..3u8)
            .map(|i| rt.add_participant(Identity::from_seed(&[b'k', i]), kbps(512.0), kbps(3000.0)))
            .collect();
        let data = payload(768 * 1024, 8);
        let (manifest, _) = rt.disseminate(peers[0], FileId(6), &data, &peers).unwrap();
        let session = rt
            .start_download(peers[0], manifest, kbps(256.0), kbps(3000.0), &peers)
            .unwrap();
        rt.run_slots(2);
        if drop {
            rt.set_participant_link(peers[2], kbps(64.0), kbps(3000.0));
        }
        let report = rt.run_to_completion(session, 3600).unwrap();
        assert_eq!(report.data, data);
        report.duration_secs
    };
    let healthy = run(false);
    let degraded = run(true);
    assert!(
        degraded > healthy,
        "losing 448 kbps of uplink must cost time ({degraded:.1}s vs {healthy:.1}s)"
    );
}

// ---------------------------------------------------------------------------
// Seeded fault injection: the CI matrix exports ASYMSHARE_FAULT_SEED so the
// same scenarios replay under several deterministic fault schedules.
// ---------------------------------------------------------------------------

fn fault_seed() -> u64 {
    std::env::var("ASYMSHARE_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

/// A config with recovery knobs tight enough that stalls resolve within a
/// few simulated seconds instead of the production-scale defaults.
fn healing_cfg() -> RuntimeConfig {
    RuntimeConfig {
        stall_timeout_secs: 1.5,
        retry_backoff_secs: 0.5,
        max_peer_retries: 1,
        ..cfg()
    }
}

/// Random link loss eats flows in transit; the self-healing download
/// re-requests until the decoder is satisfied and still decodes exactly.
#[test]
fn fault_download_survives_lossy_links() {
    let mut rt = SimRuntime::new(healing_cfg());
    rt.enable_observability(); // draws no randomness: the run is unchanged
    let peers: Vec<_> = (0..4u8)
        .map(|i| rt.add_participant(Identity::from_seed(&[b'z', i]), kbps(256.0), kbps(3000.0)))
        .collect();
    let data = payload(256 * 1024, 9);
    let (manifest, _) = rt.disseminate(peers[0], FileId(20), &data, &peers).unwrap();
    rt.set_fault_plan(FaultPlan::new(fault_seed()).with_loss(0.05));
    let session = rt
        .start_download(peers[0], manifest, kbps(256.0), kbps(3000.0), &peers)
        .unwrap();
    let report = rt.run_to_completion(session, 3600).unwrap();
    assert_eq!(report.data, data);
    assert!(
        rt.fault_stats().dropped > 0,
        "5% loss must claim at least one flow: {:?}",
        rt.fault_stats()
    );
    let to_user = rt
        .event_log()
        .iter()
        .filter(|e| e.component == "sim.deliver" && e.kind == "drop")
        .count();
    assert!(to_user > 0, "some lost flow was headed for the user");
}

/// The acceptance scenario: 2 of 5 peers die mid-download under 5% link
/// loss. Stall detection retries the silent connections, writes them off,
/// re-plans their demand onto survivors, and the fetch decodes exactly.
#[test]
fn fault_peer_churn_reassigns_demand() {
    let mut rt = SimRuntime::new(healing_cfg());
    let peers: Vec<_> = (0..5u8)
        .map(|i| rt.add_participant(Identity::from_seed(&[b'y', i]), kbps(256.0), kbps(3000.0)))
        .collect();
    let data = payload(1024 * 1024, 10);
    let (manifest, _) = rt.disseminate(peers[0], FileId(21), &data, &peers).unwrap();
    let t0 = rt.now().as_secs();
    rt.set_fault_plan(
        FaultPlan::new(fault_seed())
            .with_loss(0.05)
            .with_kill(rt.participant_node(peers[3]), t0 + 3.0)
            .with_kill(rt.participant_node(peers[4]), t0 + 3.0),
    );
    let session = rt
        .start_download(peers[0], manifest, kbps(256.0), kbps(3000.0), &peers)
        .unwrap();
    let report = rt.run_to_completion(session, 3600).unwrap();
    assert_eq!(report.data, data, "decode must be exact despite churn");
    assert!(
        report.stats.reassignments >= 1,
        "dead peers' demand re-planned: {:?}",
        report.stats
    );
    assert!(
        report.stats.retries >= 1,
        "stalled connections retried before write-off: {:?}",
        report.stats
    );
}

/// Payload corruption flips bits in transit; the digest check rejects the
/// damaged messages and replacement requests fill the gaps.
#[test]
fn fault_corrupted_messages_are_replaced() {
    let mut rt = SimRuntime::new(healing_cfg());
    let peers: Vec<_> = (0..4u8)
        .map(|i| rt.add_participant(Identity::from_seed(&[b'x', i]), kbps(256.0), kbps(3000.0)))
        .collect();
    let data = payload(384 * 1024, 11);
    let (manifest, _) = rt.disseminate(peers[0], FileId(22), &data, &peers).unwrap();
    rt.set_fault_plan(FaultPlan::new(fault_seed()).with_corruption(0.08));
    let session = rt
        .start_download(peers[0], manifest, kbps(256.0), kbps(3000.0), &peers)
        .unwrap();
    let report = rt.run_to_completion(session, 3600).unwrap();
    assert_eq!(report.data, data, "corruption never reaches the decode");
    assert!(
        report.stats.corruptions >= 1,
        "the digest check caught damaged messages: {:?}",
        report.stats
    );
    assert!(
        report.stats.replacements >= 1,
        "damaged messages were re-requested: {:?}",
        report.stats
    );
}

/// When every serving peer dies the download reports a typed error with
/// the real message counts instead of hanging.
#[test]
fn fault_all_peers_dead_fails_gracefully() {
    let mut rt = SimRuntime::new(healing_cfg());
    let a = rt.add_participant(Identity::from_seed(b"deadA"), kbps(256.0), kbps(3000.0));
    let b = rt.add_participant(Identity::from_seed(b"deadB"), kbps(256.0), kbps(3000.0));
    let data = payload(256 * 1024, 12);
    let (manifest, _) = rt.disseminate(a, FileId(23), &data, &[a, b]).unwrap();
    let t0 = rt.now().as_secs();
    rt.set_fault_plan(
        FaultPlan::new(fault_seed())
            .with_kill(rt.participant_node(a), t0 + 0.5)
            .with_kill(rt.participant_node(b), t0 + 0.5),
    );
    let session = rt
        .start_download(a, manifest, kbps(256.0), kbps(3000.0), &[a, b])
        .unwrap();
    match rt.run_to_completion(session, 600) {
        Err(SystemError::AllPeersUnavailable { have, need }) => {
            assert!(have < need, "download cannot have finished: {have}/{need}");
        }
        other => panic!("expected AllPeersUnavailable, got {other:?}"),
    }
}

/// With fault injection disabled the runtime draws zero fault randomness:
/// the same scenario replays byte- and timing-identically with and without
/// a no-op plan installed.
#[test]
fn fault_disabled_plan_is_byte_identical() {
    let run = |noop_plan: bool| {
        let mut rt = SimRuntime::new(healing_cfg());
        let peers: Vec<_> = (0..3u8)
            .map(|i| rt.add_participant(Identity::from_seed(&[b'w', i]), kbps(512.0), kbps(3000.0)))
            .collect();
        let data = payload(192 * 1024, 13);
        let (manifest, _) = rt.disseminate(peers[0], FileId(24), &data, &peers).unwrap();
        if noop_plan {
            rt.set_fault_plan(FaultPlan::new(fault_seed()));
        }
        let session = rt
            .start_download(peers[0], manifest, kbps(256.0), kbps(3000.0), &peers)
            .unwrap();
        let report = rt.run_to_completion(session, 3600).unwrap();
        assert_eq!(report.data, data);
        report
    };
    let clean = run(false);
    let noop = run(true);
    assert_eq!(clean.data, noop.data);
    assert_eq!(
        clean.duration_secs, noop.duration_secs,
        "a no-op plan must not perturb timing"
    );
    assert_eq!(clean.innovative, noop.innovative);
    assert_eq!(clean.redundant, noop.redundant);
    assert_eq!(clean.per_peer_bytes, noop.per_peer_bytes);
}
