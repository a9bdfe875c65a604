//! Health-analytics integration: the report folded from a sim's event log
//! must reproduce the one the engine kept when it ran inside the runtime,
//! score faulty peers out of the healthy band, observing must not perturb
//! seeded runs, and the export surfaces (JSONL escaping, the `/metrics` +
//! `/health` listener) must round-trip faithfully.

use asymshare::{Identity, ParticipantId, RuntimeConfig, SimRuntime};
use asymshare_netsim::{FaultPlan, LinkFault, LinkSpeed};
use asymshare_obs::health::replay;
use asymshare_obs::{Event, Value};
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

/// A seeded download where one serving peer's uplink turns lossy and
/// corrupting mid-run, after the detectors' baselines have warmed up on
/// clean behavior. Returns the runtime (with its event log) and the faulty
/// participant.
fn faulty_scenario() -> (SimRuntime, Vec<ParticipantId>, ParticipantId) {
    let mut rt = SimRuntime::new(cfg());
    rt.enable_observability();
    let ids: Vec<_> = (0..4u8)
        .map(|i| rt.add_participant(Identity::from_seed(&[b'h', i]), kbps(128.0), kbps(3000.0)))
        .collect();
    let data = payload(384 * 1024, 7);
    let (manifest, _) = rt.disseminate(ids[0], FileId(41), &data, &ids).unwrap();
    let session = rt
        .start_download(ids[0], manifest, kbps(128.0), kbps(3000.0), &ids)
        .unwrap();
    // Clean phase: enough evaluated windows to clear warmup.
    rt.run_slots(6);
    assert!(
        !rt.session_complete(session),
        "scenario bug: download finished before the fault phase began"
    );
    let sick = ids[3];
    let node = rt.participant_node(sick);
    rt.set_fault_plan(FaultPlan::new(11).with_node_fault(
        node,
        LinkFault {
            loss_prob: 0.35,
            corrupt_prob: 0.25,
            jitter_secs: 0.0,
        },
    ));
    let report = rt
        .run_to_completion(session, 7200)
        .expect("download completes despite the lossy peer");
    assert_eq!(report.data, data);
    (rt, ids, sick)
}

/// The fold reproduces the report the engine kept when it ran inside the
/// runtime, evaluated at every slot boundary. That report was pinned with
/// a three-window warmup and no score recovery; once the detectors'
/// settings became constants, this JSON is the same log folded at them
/// (the code before, `replay(&HealthConfig::default(), ..)`): the same 11
/// windows and 3 alerts, all on peer 3, whose clean windows now restore
/// 1.5 each — 64.0 → 68.5, still under the healthy band's 70.
#[test]
fn fold_reproduces_the_in_runtime_report() {
    let (rt, _ids, _sick) = faulty_scenario();
    assert_eq!(
        replay(&rt.event_log()).to_json(),
        "{\"status\": \"sick\", \"windows\": 11, \"alerts\": 3, \"peers\": [\
         {\"peer\": 0, \"score\": 100.0, \"alerts\": 0, \"healthy\": true}, \
         {\"peer\": 1, \"score\": 100.0, \"alerts\": 0, \"healthy\": true}, \
         {\"peer\": 2, \"score\": 100.0, \"alerts\": 0, \"healthy\": true}, \
         {\"peer\": 3, \"score\": 68.5, \"alerts\": 3, \"healthy\": false}]}"
    );
}

/// The seeded lossy/corrupting peer must fall out of the healthy band
/// while the honest peers stay pristine.
#[test]
fn lossy_peer_scores_below_healthy_band() {
    let (rt, ids, sick) = faulty_scenario();
    let report = replay(&rt.event_log());
    assert!(report.windows > 0);
    assert!(!report.all_healthy(), "the faulty peer must be flagged");

    let health_of = |id: ParticipantId| report.peers.iter().find(|p| p.peer == id.0 as u64);
    let entry = health_of(sick).expect("faulty peer was scored");
    assert!(
        !entry.healthy && entry.score < 70.0,
        "faulty peer score {} should sit below the healthy band (70)",
        entry.score
    );
    assert!(entry.alerts > 0);
    for &id in &ids {
        if id == sick {
            continue;
        }
        if let Some(honest) = health_of(id) {
            assert!(
                honest.healthy && honest.score >= 70.0,
                "honest peer {id:?} score {} dropped below the healthy band",
                honest.score
            );
        }
    }
}

/// Observation must not perturb: the same seeded lossy run with
/// observability on — every slot's window aggregates and heartbeat, which
/// the health report is folded from — and entirely off must produce
/// byte-identical downloads, identical per-peer byte tallies, identical
/// fault/recovery counters, and identical simulated duration.
#[test]
fn health_engine_does_not_perturb_seeded_run() {
    let run = |observe: bool| {
        let mut rt = SimRuntime::new(cfg());
        if observe {
            rt.enable_observability();
        }
        let ids: Vec<_> = (0..4u8)
            .map(|i| rt.add_participant(Identity::from_seed(&[b'p', i]), kbps(256.0), kbps(3000.0)))
            .collect();
        let data = payload(128 * 1024, 3);
        let (manifest, _) = rt.disseminate(ids[0], FileId(42), &data, &ids).unwrap();
        rt.set_fault_plan(FaultPlan::new(3).with_loss(0.05));
        let session = rt
            .start_download(ids[0], manifest, kbps(256.0), kbps(3000.0), &ids)
            .unwrap();
        let report = rt.run_to_completion(session, 3600).unwrap();
        let now = rt.now().as_secs();
        (report, now)
    };
    let (with_health, now_health) = run(true);
    let (without, now_plain) = run(false);
    assert!(!with_health.metrics.is_empty() && without.metrics.is_empty());
    assert_eq!(with_health.data, without.data);
    assert_eq!(with_health.per_peer_bytes, without.per_peer_bytes);
    assert_eq!(with_health.stats, without.stats);
    assert_eq!(with_health.duration_secs, without.duration_secs);
    assert_eq!(with_health.innovative, without.innovative);
    assert_eq!(with_health.redundant, without.redundant);
    assert_eq!(now_health, now_plain);
}

/// End-to-end export surfaces: a real-time download on an observed
/// network, scraped live over HTTP — `/metrics` must render Prometheus
/// text with cumulative `le` buckets and the ring's drop count, `/health`
/// must report the verdict folded from the download's log, unknown paths
/// 404.
#[test]
fn metrics_listener_serves_live_rt_state() {
    use asymshare::rt::{
        download_file_with, DownloadOptions, MetricsServer, Reactor, ReactorConfig, RtNetwork,
    };
    use asymshare::{Peer, User};
    use asymshare_gf::{FieldKind, Gf2p32};
    use asymshare_obs::{EventSink, Registry};
    use asymshare_rlnc::{ChunkedEncoder, DigestKind};
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::time::Duration;

    fn http_get(addr: std::net::SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read response");
        let (head, body) = response.split_once("\r\n\r\n").expect("has body");
        (head.to_owned(), body.to_owned())
    }

    let network = RtNetwork::with_observability(Registry::new(), EventSink::new());
    let server = MetricsServer::spawn(&network, "127.0.0.1:0").expect("bind listener");

    let owner = Identity::from_seed(b"health-http-owner");
    let data = payload(128 * 1024, 11);
    let mut enc = ChunkedEncoder::<Gf2p32>::with_chunk_size(
        FieldKind::Gf2p32,
        4,
        DigestKind::Md5,
        owner.coding_secret().clone(),
        FileId(43),
        &data,
        16 * 1024,
    )
    .unwrap();
    let batches = enc.encode_for_peers(3).unwrap();
    let manifest = enc.manifest().clone();
    let mut reactor = Reactor::new(&network, ReactorConfig::default());
    let mut peer_addrs = Vec::new();
    for (i, batch) in batches.into_iter().enumerate() {
        let identity = Identity::from_seed(&[b'w', i as u8]);
        let key = identity.public_key().to_bytes();
        let mut peer = Peer::new(identity, 1_000.0);
        peer.add_subscriber(owner.public_key().to_bytes());
        for m in batch {
            peer.store_mut().insert(m);
        }
        let addr = 200 + i as u64;
        reactor.add_peer(addr, peer, 1 << 20);
        peer_addrs.push((addr, key));
    }

    let mut user = User::<Gf2p32>::new(owner, manifest).unwrap();
    let home = peer_addrs[0].0;
    let got = download_file_with(
        &network,
        1,
        &mut user,
        &peer_addrs,
        home,
        DownloadOptions::new(Duration::from_secs(30)),
    )
    .expect("download completes");
    assert_eq!(got, data);

    // The download's final flush closed a window, so the log's fold
    // scores the serving peers.
    let report = replay(&network.events().events());
    assert!(report.windows > 0, "the download must write heartbeats");
    assert!(!report.peers.is_empty(), "serving peers must be scored");
    assert!(report.all_healthy(), "clean run: every peer healthy");

    let (head, body) = http_get(server.addr(), "/metrics");
    assert!(head.starts_with("HTTP/1.1 200"), "got: {head}");
    assert!(
        body.contains("asymshare_rt_transport_recv_bytes"),
        "counter missing:\n{body}"
    );
    assert!(
        body.contains("_bucket{le=\""),
        "histogram le labels missing"
    );
    assert!(body.contains("le=\"+Inf\""), "+Inf bucket missing");
    assert!(
        body.contains("asymshare_obs_dropped_events 0\n"),
        "dropped-events gauge missing:\n{body}"
    );

    // Only a heartbeat changes the report, and the download wrote its
    // last: `/health` serves the same report.
    let (head, body) = http_get(server.addr(), "/health");
    assert!(head.starts_with("HTTP/1.1 200"), "got: {head}");
    assert_eq!(body, report.to_json());
    assert!(body.contains("\"status\": \"ok\""), "got: {body}");

    let (head, _) = http_get(server.addr(), "/nope");
    assert!(head.starts_with("HTTP/1.1 404"), "got: {head}");

    reactor.shutdown();
    server.shutdown();
}

// ---------------------------------------------------------------------------
// JSONL escaping: property-based round-trip through a minimal JSON parser
// ---------------------------------------------------------------------------

/// A deliberately small JSON value model: numbers keep their raw token so
/// u64-range integers survive without float rounding.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(String),
    Str(String),
    Obj(Vec<(String, Json)>),
    Arr(Vec<Json>),
}

/// Minimal recursive-descent JSON parser — independent of the emitter, so
/// the round-trip property actually checks conformance rather than
/// mirroring the writer's bugs.
fn parse_json(s: &str) -> Result<Json, String> {
    let chars: Vec<char> = s.chars().collect();
    let mut pos = 0usize;
    let value = parse_value(&chars, &mut pos)?;
    skip_ws(&chars, &mut pos);
    if pos != chars.len() {
        return Err(format!("trailing garbage at {pos}"));
    }
    Ok(value)
}

fn skip_ws(c: &[char], pos: &mut usize) {
    while *pos < c.len() && c[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn parse_value(c: &[char], pos: &mut usize) -> Result<Json, String> {
    skip_ws(c, pos);
    match c.get(*pos) {
        Some('{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(c, pos);
            if c.get(*pos) == Some(&'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(c, pos);
                let key = parse_string(c, pos)?;
                skip_ws(c, pos);
                if c.get(*pos) != Some(&':') {
                    return Err(format!("expected ':' at {pos}"));
                }
                *pos += 1;
                fields.push((key, parse_value(c, pos)?));
                skip_ws(c, pos);
                match c.get(*pos) {
                    Some(',') => *pos += 1,
                    Some('}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    other => return Err(format!("expected ',' or '}}', got {other:?}")),
                }
            }
        }
        Some('[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(c, pos);
            if c.get(*pos) == Some(&']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(c, pos)?);
                skip_ws(c, pos);
                match c.get(*pos) {
                    Some(',') => *pos += 1,
                    Some(']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    other => return Err(format!("expected ',' or ']', got {other:?}")),
                }
            }
        }
        Some('"') => Ok(Json::Str(parse_string(c, pos)?)),
        Some('t') if c[*pos..].starts_with(&['t', 'r', 'u', 'e']) => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some('f') if c[*pos..].starts_with(&['f', 'a', 'l', 's', 'e']) => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some('n') if c[*pos..].starts_with(&['n', 'u', 'l', 'l']) => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(d) if *d == '-' || d.is_ascii_digit() => {
            let start = *pos;
            while *pos < c.len() && matches!(c[*pos], '0'..='9' | '-' | '+' | '.' | 'e' | 'E') {
                *pos += 1;
            }
            let token: String = c[start..*pos].iter().collect();
            token
                .parse::<f64>()
                .map_err(|e| format!("bad number {token:?}: {e}"))?;
            Ok(Json::Num(token))
        }
        other => Err(format!("unexpected {other:?} at {pos}")),
    }
}

fn parse_string(c: &[char], pos: &mut usize) -> Result<String, String> {
    if c.get(*pos) != Some(&'"') {
        return Err(format!("expected '\"' at {pos}"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match c.get(*pos) {
            None => return Err("unterminated string".to_owned()),
            Some('"') => {
                *pos += 1;
                return Ok(out);
            }
            Some('\\') => {
                *pos += 1;
                match c.get(*pos) {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('/') => out.push('/'),
                    Some('n') => out.push('\n'),
                    Some('r') => out.push('\r'),
                    Some('t') => out.push('\t'),
                    Some('b') => out.push('\u{8}'),
                    Some('f') => out.push('\u{c}'),
                    Some('u') => {
                        let hex: String = c
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?
                            .iter()
                            .collect();
                        let code =
                            u32::from_str_radix(&hex, 16).map_err(|e| format!("bad \\u: {e}"))?;
                        out.push(char::from_u32(code).ok_or("surrogate in \\u escape")?);
                        *pos += 4;
                    }
                    other => return Err(format!("bad escape {other:?}")),
                }
                *pos += 1;
            }
            Some(&ch) => {
                if (ch as u32) < 0x20 {
                    return Err(format!("raw control char {:#x} in string", ch as u32));
                }
                out.push(ch);
                *pos += 1;
            }
        }
    }
}

/// Looks up a top-level field of a parsed event object.
fn obj_get<'a>(json: &'a Json, key: &str) -> Option<&'a Json> {
    match json {
        Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

mod escaping {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any string — control characters, quotes, backslashes, non-ASCII
        /// — stored in an event field must survive `Event::to_json` and
        /// parse back to the identical string, with no raw control bytes
        /// on the wire.
        #[test]
        fn event_json_string_round_trips(
            raw in proptest::collection::vec(any::<char>(), 0..48),
        ) {
            let s: String = raw.into_iter().collect();
            let event = Event {
                ts: 0.5,
                component: "t",
                kind: "k",
                fields: vec![("s", Value::Str(s.clone()))],
            };
            let line = event.to_json();
            let parsed = parse_json(&line)
                .unwrap_or_else(|e| panic!("emitted invalid JSON {line:?}: {e}"));
            prop_assert_eq!(obj_get(&parsed, "s"), Some(&Json::Str(s)));
            prop_assert_eq!(obj_get(&parsed, "component"), Some(&Json::Str("t".to_owned())));
        }

        /// Every `Value` variant round-trips: extreme integers keep their
        /// exact decimal token (no float rounding), finite floats re-parse
        /// to the same bits, bools and timestamps survive.
        #[test]
        fn event_json_values_round_trip(ts in any::<f64>(), x in any::<f64>()) {
            let event = Event {
                ts,
                component: "bench",
                kind: "values",
                fields: vec![
                    ("umax", Value::U64(u64::MAX)),
                    ("imin", Value::I64(i64::MIN)),
                    ("f", Value::F64(x)),
                    ("yes", Value::Bool(true)),
                ],
            };
            let line = event.to_json();
            let parsed = parse_json(&line)
                .unwrap_or_else(|e| panic!("emitted invalid JSON {line:?}: {e}"));
            prop_assert_eq!(obj_get(&parsed, "umax"), Some(&Json::Num(u64::MAX.to_string())));
            prop_assert_eq!(obj_get(&parsed, "imin"), Some(&Json::Num(i64::MIN.to_string())));
            let f_back = match obj_get(&parsed, "f") {
                Some(Json::Num(tok)) => tok.parse::<f64>().unwrap(),
                other => return Err(TestCaseError::fail(format!("f not a number: {other:?}"))),
            };
            prop_assert_eq!(f_back.to_bits(), x.to_bits());
            prop_assert_eq!(obj_get(&parsed, "yes"), Some(&Json::Bool(true)));
            let ts_back = match obj_get(&parsed, "ts") {
                Some(Json::Num(tok)) => tok.parse::<f64>().unwrap(),
                other => return Err(TestCaseError::fail(format!("ts not a number: {other:?}"))),
            };
            prop_assert_eq!(ts_back.to_bits(), ts.to_bits());
        }
    }
}
