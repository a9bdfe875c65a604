//! The sim driver of the recovery ladder is pinned byte for byte: the event
//! log and every serving peer's planned transfer schedule hash to the values
//! the two-copy implementation produced at commit fe55cf6 (ladder inlined in
//! `runtime.rs`), for three scenarios that walk every rung — stall → nudge →
//! write-off → re-plan → quarantine — at the three fault seeds of the CI
//! matrix. A control flow started in a different order draws
//! different fault randoms, so any change to *when* or *whom* the ladder
//! acts on moves these hashes. Four re-pins since: `churn`'s logs lost the
//! health engine's `health`/`attack` lines when attribution left it (the
//! rest of each log is byte-identical), `pollution` is banned by the
//! client's own rules instead of the engine's timed quarantine, every log
//! lost its `sim.profile` lines when peer profiles left the sim (each
//! event hash is the previous log's with exactly those lines removed), and
//! health became a fold over the log: every observed run now writes the
//! per-slot `window`/`balance` aggregates and `health`/`window` heartbeats
//! a health-enabled run wrote, minus the `health`/`alert` lines and each
//! heartbeat's `alerts` count (each event hash is the previous code's log
//! with the engine on, edited so). The schedule hashes did not move.
//! Fifth, the serve pass became the `Host` engine, which reads none of
//! the client's state: a connection the client wrote off or banned is
//! served until its `StopTransmission` lands, or for as long as its peer
//! lives (a write-off sends none). Each moved hash is the parent's code
//! with exactly its pass's `is_dead` skip removed: `churn`'s logs gain a
//! `slot_share` line per slot for each killed peer's written-off
//! connection (its flows stall, so nothing else moves), `lossy` at seed 5
//! keeps serving the live peer it wrote off in slot 4 (its flows draw
//! fault randoms, so the later draws re-pair), and `pollution` serves the
//! polluter in the slot of its ban until the stop lands (its frames are
//! dropped unread, but mark the trace spans, and its flows reorder the
//! re-disseminated deposits that finish together, so participant 1
//! plans another schedule).
//! Sixth, the owner no longer re-disseminates after a ban (it read the
//! client's verdicts and every peer's store, which no deployed owner
//! can), and the client no longer hears of frames the network lost.
//! `lossy` and `churn` keep their hashes; `lossy`'s assertion loses its
//! `stats.drops` conjunct. `pollution` depended on re-dissemination, so
//! it now disseminates to all three participants: participant 1 holds a
//! batch from the start, the code before never re-disseminates in it,
//! and its hashes are that code's for this scenario.
//! Seventh, a window became what the user acknowledged: one rule in the
//! `Host`, two frames in the sim where `MAX_INFLIGHT` was two flows. Every
//! coded frame the user takes now sends a `Wire::Ack` flow back, a quiet
//! downloading connection that took something gets its ack again after a
//! quarter of the stall timeout, a window reopens when an ack lands
//! instead of when a data flow ends (lost or not), and the pass reads no
//! session's `finished_at`. `pollution` installs no fault plan before its
//! adversary, so its logs move only where the pacing did: the acks' round
//! trips shift a frame between slot windows (its first differing line,
//! the 21st, is peer 2's `window` `msgs` 17 -> 16); its completion instant
//! (279.616) and its schedules are unchanged. Under `lossy` and `churn`
//! each ack is a flow that draws from the plan's fault stream, so from the
//! first data delivery the draws re-pair (first differing line: the 12th,
//! 24th and 7th of `lossy` at seeds 5, 17 and 83, the 11th, 23rd and 10th
//! of `churn`). Each scenario's assertions hold; every download completed
//! at the same slot or up to 4 s sooner; the schedules at seeds 5 and 17
//! are unchanged. Each new hash is the change's own log and schedules,
//! compared line by line with the parent's.

use asymshare::{Identity, ParticipantId, RuntimeConfig, SessionId, SimRuntime};
use asymshare_crypto::md5::Md5;
use asymshare_netsim::{AdversaryStrategy, FaultPlan, LinkSpeed};
use asymshare_rlnc::FileId;

const SEEDS: [u64; 3] = [5, 17, 83];

fn kbps(v: f64) -> LinkSpeed {
    LinkSpeed::kbps(v)
}

fn payload(n: usize, salt: u8) -> Vec<u8> {
    (0..n).map(|i| ((i * 37) as u8) ^ salt).collect()
}

fn cfg() -> RuntimeConfig {
    RuntimeConfig {
        k: 4,
        chunk_size: 16 * 1024,
        ..RuntimeConfig::default()
    }
}

fn healing_cfg() -> RuntimeConfig {
    RuntimeConfig {
        stall_timeout_secs: 1.5,
        retry_backoff_secs: 0.5,
        max_peer_retries: 1,
        ..cfg()
    }
}

fn participants(rt: &mut SimRuntime, tag: u8, ups: &[f64]) -> Vec<ParticipantId> {
    ups.iter()
        .enumerate()
        .map(|(i, &up)| {
            rt.add_participant(
                Identity::from_seed(&[b'R', tag, i as u8]),
                kbps(up),
                kbps(3000.0),
            )
        })
        .collect()
}

/// `(md5 of the event log, md5 of the transfer schedules)`. A deployment's
/// connection counter starts at 0, so the session's connection `i` is the
/// `i`-th peer it contacted.
fn pins(rt: &mut SimRuntime, contacted: &[ParticipantId]) -> (String, String) {
    let mut schedules = Vec::new();
    for (conn, &pid) in contacted.iter().enumerate() {
        let schedule = rt
            .peer_mut(pid)
            .transfer_schedule(conn as u64)
            .unwrap_or_default();
        schedules.extend_from_slice(&(schedule.len() as u64).to_le_bytes());
        for id in schedule {
            schedules.extend_from_slice(&id.0.to_le_bytes());
        }
    }
    (
        Md5::digest(rt.events_jsonl().as_bytes()).to_hex(),
        Md5::digest(&schedules).to_hex(),
    )
}

fn finish(
    rt: &mut SimRuntime,
    session: SessionId,
    data: &[u8],
    contacted: &[ParticipantId],
) -> (asymshare::SessionStats, (String, String)) {
    let report = rt
        .run_to_completion(session, 7200)
        .expect("download completes");
    assert_eq!(report.data, data, "decoded bytes are the original");
    (report.stats, pins(rt, contacted))
}

/// 5 % loss and 8 % corruption on every link: stalls are nudged, rejected
/// messages are re-requested through the limiter.
fn lossy(seed: u64) -> (String, String) {
    let mut rt = SimRuntime::new(healing_cfg());
    rt.enable_observability();
    let ids = participants(&mut rt, b'l', &[256.0; 4]);
    let data = payload(384 * 1024, 21);
    let (manifest, _) = rt.disseminate(ids[0], FileId(61), &data, &ids).unwrap();
    rt.set_fault_plan(FaultPlan::new(seed).with_loss(0.05).with_corruption(0.08));
    let session = rt
        .start_download(ids[0], manifest, kbps(256.0), kbps(3000.0), &ids)
        .unwrap();
    let (stats, pins) = finish(&mut rt, session, &data, &ids);
    assert!(stats.replacements > 0, "{stats:?}");
    pins
}

/// 2 of 5 peers die three seconds in, under 5 % loss: retried, written off,
/// their demand re-planned round-robin onto the survivors.
fn churn(seed: u64) -> (String, String) {
    let mut rt = SimRuntime::new(healing_cfg());
    rt.enable_observability();
    let ids = participants(&mut rt, b'c', &[256.0; 5]);
    let data = payload(1024 * 1024, 22);
    let (manifest, _) = rt.disseminate(ids[0], FileId(62), &data, &ids).unwrap();
    let t0 = rt.now().as_secs();
    rt.set_fault_plan(
        FaultPlan::new(seed)
            .with_loss(0.05)
            .with_kill(rt.participant_node(ids[3]), t0 + 3.0)
            .with_kill(rt.participant_node(ids[4]), t0 + 3.0),
    );
    let session = rt
        .start_download(ids[0], manifest, kbps(256.0), kbps(3000.0), &ids)
        .unwrap();
    let (stats, pins) = finish(&mut rt, session, &data, &ids);
    assert!(stats.retries > 0 && stats.reassignments > 0, "{stats:?}");
    pins
}

/// The file lives on all three participants; participant 2 starts
/// polluting six slots in. The download contacts participants 1 and 2, and
/// the client's ban re-plans participant 2's demand onto participant 1.
fn pollution(seed: u64) -> (String, String) {
    let mut rt = SimRuntime::new(RuntimeConfig {
        max_peer_retries: 8,
        ..cfg()
    });
    rt.enable_observability();
    let ids = participants(&mut rt, b'p', &[128.0, 128.0, 512.0]);
    let data = payload(1536 * 1024, 23);
    let (manifest, _) = rt.disseminate(ids[0], FileId(63), &data, &ids).unwrap();
    let contacted = [ids[1], ids[2]];
    let session = rt
        .start_download(ids[0], manifest, kbps(128.0), kbps(3000.0), &contacted)
        .unwrap();
    rt.run_slots(6);
    assert!(!rt.session_complete(session), "attack lands mid-download");
    let evil = rt.participant_node(ids[2]);
    rt.set_fault_plan(
        FaultPlan::new(seed).with_adversary(evil, AdversaryStrategy::Pollute { prob: 0.9 }),
    );
    let (stats, pins) = finish(&mut rt, session, &data, &contacted);
    assert!(
        stats.quarantines > 0 && stats.reassignments > 0,
        "{stats:?}"
    );
    pins
}

fn check(name: &str, scenario: fn(u64) -> (String, String), expected: [(&str, &str); 3]) {
    for (seed, want) in SEEDS.into_iter().zip(expected) {
        let (events, schedules) = scenario(seed);
        assert_eq!(
            (events.as_str(), schedules.as_str()),
            want,
            "{name}, fault seed {seed}: (event log, transfer schedules)"
        );
    }
}

#[test]
fn lossy_links_are_pinned() {
    check(
        "lossy",
        lossy,
        [
            (
                "d40207529630b5a37886f858a74235cc",
                "f931af5bd868e42cf705ffd39b927b9c",
            ),
            (
                "5f480ab645d8204380cc2236716fae6e",
                "d4f5ab75cc0531086a6c21d0bbcd9c13",
            ),
            (
                "fb4d2688da9100c02acdfbc2c5ef2423",
                "acfcf9147566310c56531dec05517c27",
            ),
        ],
    );
}

#[test]
fn churn_with_reassignment_is_pinned() {
    check(
        "churn",
        churn,
        [
            (
                "93273b2a94147166ce1fbfcef06c67db",
                "1f4a1ecb68316d03fd653d22e1b5294d",
            ),
            (
                "b8372d36e15cafea79ff5aa66eaae2bb",
                "1f4a1ecb68316d03fd653d22e1b5294d",
            ),
            (
                "84c6dc492ad3bbb9fd514b29c86f80d0",
                "1f4a1ecb68316d03fd653d22e1b5294d",
            ),
        ],
    );
}

#[test]
fn pollution_quarantine_is_pinned() {
    check(
        "pollution",
        pollution,
        [
            (
                "5af4467fbc6d1b2fcb5ecc600b7eaedb",
                "f8f79098583791e3e0ca32c49b5cb037",
            ),
            (
                "61db23d25893ba0b42d30fe96d31bec1",
                "f8f79098583791e3e0ca32c49b5cb037",
            ),
            (
                "b8fad59997e4ccb8442937b2eb3843d2",
                "f8f79098583791e3e0ca32c49b5cb037",
            ),
        ],
    );
}
