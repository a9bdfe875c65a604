//! Observability integration: the deployment must report an Eq.-2 credit
//! matrix consistent with what was actually served, and the JSONL
//! event log must replay the self-healing sequence of a faulted download.

use asymshare::rt::{download_file_with, DownloadOptions, Reactor, ReactorConfig, RtNetwork};
use asymshare::{Identity, Peer, RuntimeConfig, SimRuntime, User};
use asymshare_gf::{FieldKind, Gf2p32};
use asymshare_netsim::{FaultPlan, LinkSpeed, NodeId};
use asymshare_obs::{Event, EventSink, Registry, Value};
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
    // The network lost every flow the log names as headed for the user
    // (plus any lost traffic to the peers).
    let snap = rt.metrics_snapshot();
    assert!(snap.gauge("sim.net.flows_lost").unwrap() >= count("sim.deliver", "drop") as f64);
}

/// The kinds of the client log's lines: the `window` counts, what a
/// datagram brought, and what the recovery ladder did.
const CLIENT_KINDS: [&str; 10] = [
    "window",
    "digest_reject",
    "replacement_request",
    "replacement_served",
    "duplicate",
    "handshake_error",
    "retry",
    "write_off",
    "reassign",
    "quarantine",
];

fn field(event: &Event, name: &str) -> Option<u64> {
    event.fields.iter().find_map(|(n, v)| match v {
        Value::U64(x) if *n == name => Some(*x),
        _ => None,
    })
}

/// The client log's lines in `events`, under the driver's two components.
fn client_lines(events: &[Event], components: [&str; 2]) -> Vec<Event> {
    let client = |e: &&Event| components.contains(&e.component) && CLIENT_KINDS.contains(&e.kind);
    events.iter().filter(client).cloned().collect()
}

/// Every line of the client log names the peer it concerns, whichever
/// driver wrote it: the sim's the participant behind the connection (here
/// connection `i` is participant `i`), the rt's the peer's address. A
/// re-plan names the peer that took the demand.
#[test]
fn every_client_line_names_its_peer() {
    let mut sim = SimRuntime::new(RuntimeConfig {
        stall_timeout_secs: 1.5,
        retry_backoff_secs: 0.5,
        max_peer_retries: 1,
        ..cfg()
    });
    sim.enable_observability();
    let peers: Vec<_> = (0..4u8)
        .map(|i| sim.add_participant(Identity::from_seed(&[b'n', i]), kbps(256.0), kbps(3000.0)))
        .collect();
    let data = payload(256 * 1024, 12);
    let (manifest, _) = sim
        .disseminate(peers[0], FileId(22), &data, &peers)
        .unwrap();
    let t0 = sim.now().as_secs();
    sim.set_fault_plan(
        FaultPlan::new(7)
            .with_loss(0.05)
            .with_corruption(0.08)
            .with_kill(sim.participant_node(peers[3]), t0 + 3.0),
    );
    let session = sim
        .start_download(peers[0], manifest, kbps(256.0), kbps(3000.0), &peers)
        .unwrap();
    assert_eq!(sim.run_to_completion(session, 3600).unwrap().data, data);
    let lines = client_lines(&sim.event_log(), ["sim.deliver", "sim.heal"]);
    for kind in ["window", "digest_reject", "retry", "write_off", "reassign"] {
        assert!(lines.iter().any(|e| e.kind == kind), "no {kind} line");
    }
    for e in &lines {
        assert!(field(e, "peer").is_some(), "{e:?}");
        assert_eq!(field(e, "peer"), field(e, "conn"), "{e:?}");
        assert_eq!(field(e, "session"), Some(0), "{e:?}");
    }

    // The rt: three peers on a reactor, shaped so the fetch outlasts the
    // third one's death and write-off.
    let network = RtNetwork::with_observability(Registry::new(), EventSink::new());
    let owner = Identity::from_seed(b"names-owner");
    let mut enc = ChunkedEncoder::<Gf2p32>::with_chunk_size(
        FieldKind::Gf2p32,
        4,
        DigestKind::Md5,
        owner.coding_secret().clone(),
        FileId(23),
        &data,
        16 * 1024,
    )
    .unwrap();
    let mut reactor = Reactor::new(&network, ReactorConfig::default());
    let mut addrs = Vec::new();
    for (i, batch) in enc.encode_for_peers(3).unwrap().into_iter().enumerate() {
        let identity = Identity::from_seed(&[b'n', b'r', i as u8]);
        let key = identity.public_key().to_bytes();
        let mut peer = Peer::new(identity, 1_000.0);
        peer.add_subscriber(owner.public_key().to_bytes());
        for m in batch {
            peer.store_mut().insert(m);
        }
        reactor.add_peer(700 + i as u64, peer, 64 * 1024);
        addrs.push((700 + i as u64, key));
    }
    network.install_faults(
        FaultPlan::new(7)
            .with_corruption(0.2)
            .with_kill(NodeId::new(702), 0.3),
    );
    let mut user = User::<Gf2p32>::new(owner, enc.manifest().clone()).unwrap();
    let fetched = download_file_with(
        &network,
        7,
        &mut user,
        &addrs,
        700,
        DownloadOptions {
            timeout: Duration::from_secs(30),
            stall_timeout: Duration::from_millis(200),
            retry_backoff: Duration::from_millis(50),
            max_peer_retries: 1,
        },
    );
    reactor.shutdown();
    assert_eq!(fetched.unwrap(), data);
    let lines = client_lines(&network.events().events(), ["rt.download", "rt.heal"]);
    for kind in ["window", "digest_reject", "reassign"] {
        assert!(lines.iter().any(|e| e.kind == kind), "no {kind} line");
    }
    for e in &lines {
        let peer = field(e, "peer");
        assert!(addrs.iter().any(|&(a, _)| Some(a) == peer), "{e:?}");
    }
}

/// An rt fetch is traced as a sim one is, by the client engine: under the
/// fetch's `rt.download`/`download` span, one `request` per connection
/// (`conn` and `peer`, the address), one `chunk` per chunk and one
/// `replacement` per served round trip, each inside the download's span.
#[test]
fn an_rt_fetch_writes_the_download_span_tree() {
    let network = RtNetwork::with_observability(Registry::new(), EventSink::new());
    let owner = Identity::from_seed(b"trace-owner");
    let data = payload(256 * 1024, 13);
    let mut enc = ChunkedEncoder::<Gf2p32>::with_chunk_size(
        FieldKind::Gf2p32,
        4,
        DigestKind::Md5,
        owner.coding_secret().clone(),
        FileId(24),
        &data,
        16 * 1024,
    )
    .unwrap();
    let mut reactor = Reactor::new(&network, ReactorConfig::default());
    let mut addrs = Vec::new();
    for (i, batch) in enc.encode_for_peers(3).unwrap().into_iter().enumerate() {
        let identity = Identity::from_seed(&[b't', b'r', i as u8]);
        let key = identity.public_key().to_bytes();
        let mut peer = Peer::new(identity, 1_000.0);
        peer.add_subscriber(owner.public_key().to_bytes());
        for m in batch {
            peer.store_mut().insert(m);
        }
        reactor.add_peer(740 + i as u64, peer, 1 << 20);
        addrs.push((740 + i as u64, key));
    }
    network.install_faults(FaultPlan::new(7).with_loss(0.05).with_corruption(0.1));
    let chunks = u64::from(enc.manifest().chunk_count());
    let mut user = User::<Gf2p32>::new(owner, enc.manifest().clone()).unwrap();
    let fetched = download_file_with(
        &network,
        8,
        &mut user,
        &addrs,
        740,
        DownloadOptions {
            timeout: Duration::from_secs(30),
            stall_timeout: Duration::from_millis(200),
            retry_backoff: Duration::from_millis(50),
            max_peer_retries: 3,
        },
    );
    reactor.shutdown();
    assert_eq!(fetched.unwrap(), data);

    let events = network.events().events();
    let of = |kind: &str| -> Vec<&Event> {
        let mine = |e: &&Event| e.component == "rt.download" && e.kind == kind;
        events.iter().filter(mine).collect()
    };
    let download = of("download");
    assert_eq!(download.len(), 1);
    let root = field(download[0], "span");
    let start = |e: &Event| match e.fields.iter().find(|(n, _)| *n == "start") {
        Some((_, Value::F64(t))) => *t,
        _ => panic!("a span has a start: {e:?}"),
    };
    let end = |e: &Event| start(e) + field(e, "dur_us").unwrap() as f64 / 1e6;
    let (t0, t1) = (start(download[0]), end(download[0]));
    let under = |kind: &str| -> Vec<&Event> {
        let spans = of(kind);
        for e in &spans {
            assert_eq!(field(e, "parent"), root, "{e:?}");
            // Microsecond rounding of each end.
            assert!(start(e) >= t0 - 1e-6 && end(e) <= t1 + 1e-6, "{e:?}");
        }
        spans
    };
    let requests: Vec<_> = under("request")
        .iter()
        .map(|e| (field(e, "conn"), field(e, "peer")))
        .collect();
    let conns: Vec<_> = addrs.iter().map(|&(a, _)| (Some(a), Some(a))).collect();
    assert_eq!(requests, conns);
    let traced: Vec<_> = under("chunk").iter().map(|e| field(e, "chunk")).collect();
    assert_eq!(traced, (0..chunks).map(Some).collect::<Vec<_>>());
    let served = of("replacement_served").len();
    assert!(served > 0, "a corrupted frame's replacement was served");
    assert_eq!(under("replacement").len(), served);
}
