//! The threaded real-time runtime — the paper's §VI-A future work
//! ("implement the proposed system in a dynamic real-time environment").
//!
//! Peers exchange *serialized* wire messages over an in-process transport,
//! with token-bucket uplink shaping standing in for the physical link.
//! This exercises everything the simulated runtime does — handshakes,
//! Eq.-2 serving, chunk stops, feedback — plus real concurrency, real
//! (de)serialization on every hop, and wall-clock rate limiting.
//!
//! Two hosting runtimes share the same [`Peer`](crate::Peer) state
//! machine: the original thread-per-peer [`PeerHost`] (one blocking OS
//! thread per hosted peer) and the event-loop [`Reactor`], which serves
//! hundreds of peers per worker thread behind adaptive per-connection
//! in-flight windows ([`AdaptiveWindow`]). Prefer the reactor for any
//! fan-out beyond a handful of peers; `PeerHost` remains as the simple
//! baseline the benchmarks compare against.
//!
//! # Example
//!
//! ```rust,no_run
//! use asymshare::rt::{download_file, PeerHost, RtNetwork};
//! use asymshare::{Identity, Peer};
//! use std::time::Duration;
//!
//! let network = RtNetwork::new();
//! let identity = Identity::from_seed(b"peer");
//! let peer = Peer::new(identity, 1000.0);
//! let _host = PeerHost::spawn(&network, 1, peer, 1 << 20, Duration::from_millis(20));
//! // ... disseminate, then download_file(...) from a user thread.
//! ```

mod host;
mod limiter;
mod metrics_http;
mod monitor;
mod pool;
mod reactor;
mod transport;
mod window;

pub use host::{PeerHost, MAX_COALESCE};
pub use limiter::TokenBucket;
pub use metrics_http::MetricsServer;
pub use monitor::HealthMonitor;
pub use pool::{BufferPool, PoolStats};
pub use reactor::{Reactor, ReactorConfig};
pub use transport::{Envelope, FaultPlan, FaultStats, FrameIter, RtNetwork};
pub use window::{AdaptiveWindow, WindowConfig};

use crate::error::SystemError;
use crate::protocol::Wire;
use crate::user::{ConnStage, User};
use asymshare_crypto::chacha20::ChaChaRng;
use asymshare_gf::Gf2p32;
use asymshare_rlnc::{CodecError, FileManifest, MessageId};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Tuning knobs for the self-healing download loop.
#[derive(Debug, Clone)]
pub struct DownloadOptions {
    /// Overall wall-clock budget for the download.
    pub timeout: Duration,
    /// A peer silent for this long is considered stalled and recovered
    /// (re-request, then reconnect, then written off).
    pub stall_timeout: Duration,
    /// Base reconnect backoff; doubles per consecutive retry (capped at
    /// 8×), so a flapping peer is probed ever more gently.
    pub retry_backoff: Duration,
    /// Consecutive fruitless recovery attempts before a peer is declared
    /// dead and its demand re-planned onto the survivors.
    pub max_peer_retries: u32,
}

impl DownloadOptions {
    /// Defaults derived from the overall timeout: stall detection at an
    /// eighth of the budget (clamped to 100 ms – 2 s) and a base backoff
    /// of half the stall timeout.
    pub fn new(timeout: Duration) -> DownloadOptions {
        let stall_timeout = (timeout / 8).clamp(Duration::from_millis(100), Duration::from_secs(2));
        DownloadOptions {
            timeout,
            stall_timeout,
            retry_backoff: stall_timeout / 2,
            max_peer_retries: 3,
        }
    }
}

/// Per-peer health tracking for the self-healing loop.
struct PeerTrack {
    addr: u64,
    key: [u8; 64],
    last_activity: Instant,
    next_attempt: Instant,
    retries: u32,
    dead: bool,
}

/// Downloads the user's file by contacting `peers` in parallel over the
/// real-time transport, blocking the calling thread until the file decodes
/// or the timeout elapses. Sends the final signed feedback report to
/// `home_peer` before returning. Equivalent to [`download_file_with`] with
/// [`DownloadOptions::new`].
///
/// # Errors
///
/// Times out with [`SystemError::Codec`] (not-enough-messages, carrying the
/// real received/required counts) or surfaces protocol errors.
pub fn download_file(
    network: &RtNetwork,
    my_addr: u64,
    user: &mut User<Gf2p32>,
    peers: &[(u64, [u8; 64])],
    home_peer: u64,
    timeout: Duration,
) -> Result<Vec<u8>, SystemError> {
    download_file_with(
        network,
        my_addr,
        user,
        peers,
        home_peer,
        DownloadOptions::new(timeout),
    )
}

/// [`download_file`] with explicit self-healing knobs.
///
/// The loop survives lossy links, stalled or churned peers, and corrupted
/// messages: any peer silent past the stall deadline is re-requested or
/// reconnected with bounded exponential backoff; a peer that exhausts its
/// retries (or whose address deregisters) is written off and its demand
/// re-planned onto the survivors; a digest-rejected message triggers a
/// [`Wire::ReplacementRequest`] instead of silently shrinking the batch,
/// rate-limited per `(peer, chunk)` with bounded exponential backoff so a
/// polluting sender cannot provoke a request storm. When the network's
/// health engine quarantines a peer (see
/// [`RtNetwork::peer_quarantined`]), the loop stops its transmission,
/// re-plans its demand onto honest survivors, and pauses its stall clock
/// until the timed ban lapses — a Byzantine peer is excluded instead of
/// endlessly retried. Recovery actions are tallied in the user's
/// [`SessionStats`](crate::user::SessionStats).
///
/// # Errors
///
/// [`SystemError::AllPeersUnavailable`] when every peer is written off
/// before completion, [`SystemError::Codec`] (not-enough-messages) on
/// timeout, or fatal protocol errors.
pub fn download_file_with(
    network: &RtNetwork,
    my_addr: u64,
    user: &mut User<Gf2p32>,
    peers: &[(u64, [u8; 64])],
    home_peer: u64,
    options: DownloadOptions,
) -> Result<Vec<u8>, SystemError> {
    let inbox = network.register(my_addr);
    let mut rng = ChaChaRng::new([0x5D; 32], *b"rt-download!");
    let file_id = user.file_id();
    let started = Instant::now();
    // Observability: handles resolved once (inert when the network was not
    // built with `with_observability`); the span records the wall-clock
    // duration of the whole download, error paths included.
    let events = network.events().clone();
    let digest_rejections = network.metrics().counter("rt.download.digest_rejections");
    let replacement_rtt_us = network
        .metrics()
        .histogram("rt.download.replacement_rtt_us");
    let _download_span = events.span("rt.download", "download");
    // Chunks with an outstanding replacement request, for round-trip timing
    // (first request wins; resolved when any message of the chunk arrives).
    let mut pending_repl: std::collections::HashMap<u32, Instant> =
        std::collections::HashMap::new();
    // Per-peer message counts flushed a few times a second as
    // `rt.download`/`window` events — the health engine's rate
    // denominators. Idle (and with observability off, always empty).
    let mut window_msgs: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    let mut window_flushed = started;
    const WINDOW_FLUSH: Duration = Duration::from_millis(250);
    // Replacement-request rate limit per (peer, chunk): next allowed
    // instant plus how often the pair has fired; the backoff doubles per
    // repeat (capped at 32×) so a polluting peer cannot amplify each
    // rejected message into a fresh request.
    const REPL_BACKOFF_BASE: Duration = Duration::from_millis(100);
    let mut repl_limit: std::collections::HashMap<(u64, u32), (Instant, u32)> =
        std::collections::HashMap::new();
    // Peers currently serving a quarantine ban (response ladder state).
    let mut quarantined: std::collections::HashSet<u64> = std::collections::HashSet::new();
    // Connect to every peer; the connection id is the peer's address so
    // both sides key their session state consistently.
    let mut tracks: Vec<PeerTrack> = peers
        .iter()
        .map(|&(addr, key)| PeerTrack {
            addr,
            key,
            last_activity: started,
            next_attempt: started,
            retries: 0,
            dead: false,
        })
        .collect();
    for t in &mut tracks {
        let commit = user.connect(t.addr, t.key, &mut rng);
        if !network.send(my_addr, t.addr, &commit) {
            t.dead = true;
        }
    }
    let deadline = started + options.timeout;
    // Round-robin cursor for picking the survivor that absorbs a dead
    // peer's demand.
    let mut reassign_rr = 0usize;
    while !user.is_complete() {
        network.pump();
        if !window_msgs.is_empty() && window_flushed.elapsed() >= WINDOW_FLUSH {
            flush_windows(&mut window_msgs, &events);
            window_flushed = Instant::now();
        }
        let now = Instant::now();
        let remaining = deadline.saturating_duration_since(now);
        if remaining.is_zero() {
            return Err(SystemError::Codec(CodecError::NotEnoughMessages {
                have: user.independent_count(),
                need: user.messages_needed(),
            }));
        }
        // Adaptive poll: while no recovery action can possibly fire — every
        // live peer is quarantined (its window is closed), inside its retry
        // backoff, or simply not yet past its stall deadline — sleep toward
        // the earliest recovery deadline instead of busy re-polling at the
        // base cadence. An arriving datagram still wakes `recv_timeout`
        // immediately, so extending the sleep never delays real traffic.
        // Only the extra wall-clock spent honoring a backoff or a ban is
        // surfaced as `SessionStats::backoff_wait_us`; waiting on a slow but
        // healthy link is ordinary waiting.
        const BASE_POLL: Duration = Duration::from_millis(50);
        let (poll, backing_off) =
            heal_poll(&tracks, &quarantined, now, BASE_POLL, options.stall_timeout);
        let poll = poll.min(remaining);
        let wait_started = Instant::now();
        let received = inbox.recv_timeout(poll);
        if backing_off && poll > BASE_POLL {
            let extra = wait_started.elapsed().saturating_sub(BASE_POLL);
            user.stats_mut().backoff_wait_us += extra.as_micros() as u64;
        }
        if let Some(envelope) = received {
            if let Some(t) = tracks.iter_mut().find(|t| t.addr == envelope.from) {
                // Any traffic — even redundant re-sends — proves the peer
                // is alive, so its retry budget refills.
                t.last_activity = Instant::now();
                t.retries = 0;
            }
            // A serving peer coalesces several frames into one datagram;
            // each MessageData payload is a zero-copy handle into the
            // envelope's buffer, fed straight to the decoder.
            for frame in envelope.decode_all() {
                let wire = frame?;
                if let Wire::MessageData(msg) = &wire {
                    if events.is_enabled() {
                        *window_msgs.entry(envelope.from).or_insert(0) += 1;
                    }
                    // An arriving message closes any open replacement
                    // round-trip for its chunk (checked only while one is
                    // outstanding).
                    if !pending_repl.is_empty() {
                        let chunk = FileManifest::chunk_of(msg.message_id());
                        if let Some(t0) = pending_repl.remove(&chunk) {
                            let rtt = t0.elapsed().as_micros() as u64;
                            replacement_rtt_us.record(rtt);
                            events.emit(
                                "rt.download",
                                "replacement_served",
                                &[
                                    ("peer", envelope.from.into()),
                                    ("chunk", chunk.into()),
                                    ("rtt_us", rtt.into()),
                                ],
                            );
                        }
                    }
                }
                match user.on_message(envelope.from, wire, &mut rng) {
                    Ok(replies) => {
                        let mut lost = Vec::new();
                        for (conn, reply) in replies {
                            if !network.send(my_addr, conn, &reply) {
                                lost.push(conn);
                            }
                        }
                        for conn in lost {
                            write_off(user, &mut tracks, conn, &events);
                            reassign(
                                network,
                                my_addr,
                                user,
                                &tracks,
                                &mut reassign_rr,
                                file_id,
                                &events,
                            );
                        }
                    }
                    // Digest-rejected message: corrupted or tampered in
                    // transit. Ask the sender for a replacement from the
                    // same chunk — through the per-(peer, chunk) rate
                    // limiter — and move on. The rejected bytes never
                    // count toward the sender's feedback credit.
                    Err(SystemError::Codec(CodecError::AuthenticationFailed { id })) => {
                        digest_rejections.inc();
                        let chunk = FileManifest::chunk_of(MessageId(id));
                        events.emit(
                            "rt.download",
                            "digest_reject",
                            &[("peer", envelope.from.into()), ("chunk", chunk.into())],
                        );
                        let now = Instant::now();
                        let gate = repl_limit.entry((envelope.from, chunk)).or_insert((now, 0));
                        if now >= gate.0 {
                            gate.1 = gate.1.saturating_add(1);
                            gate.0 = now + REPL_BACKOFF_BASE * (1u32 << (gate.1 - 1).min(5));
                            user.stats_mut().replacements += 1;
                            events.emit(
                                "rt.download",
                                "replacement_request",
                                &[("peer", envelope.from.into()), ("chunk", chunk.into())],
                            );
                            pending_repl.entry(chunk).or_insert(now);
                            let request = Wire::ReplacementRequest { file_id, chunk };
                            if !network.send(my_addr, envelope.from, &request) {
                                write_off(user, &mut tracks, envelope.from, &events);
                                reassign(
                                    network,
                                    my_addr,
                                    user,
                                    &tracks,
                                    &mut reassign_rr,
                                    file_id,
                                    &events,
                                );
                            }
                        }
                    }
                    // A reconnect (or a replaying adversary) re-sent a
                    // message we already hold — harmless to the decoder,
                    // but the health engine's replay detector counts the
                    // per-peer duplicate rate.
                    Err(SystemError::Codec(CodecError::DuplicateMessage { .. })) => {
                        events.emit(
                            "rt.download",
                            "duplicate",
                            &[("peer", envelope.from.into())],
                        );
                    }
                    // Every other error (decoder parameters, protocol
                    // state, MITM) is genuine and must surface.
                    Err(e) => return Err(e),
                }
            }
            // The decoder copied what it needed; hand the buffer back.
            network.recycle_envelope(envelope);
        }
        if user.is_complete() {
            break;
        }
        if tracks
            .iter()
            .all(|t| user.stage(t.addr) == Some(ConnStage::Refused))
        {
            return Err(SystemError::AuthenticationRejected {
                context: "all peers refused".to_owned(),
            });
        }
        // Health pass: recover stalled peers, write off hopeless ones.
        let now = Instant::now();
        for i in 0..tracks.len() {
            let t = &tracks[i];
            if t.dead {
                continue;
            }
            if user.stage(t.addr) == Some(ConnStage::Refused) {
                // Authentication refusal is terminal; nothing to re-plan
                // because the peer never served a byte.
                tracks[i].dead = true;
                continue;
            }
            // Active response ladder: a peer the health engine has
            // quarantined is stopped once, its demand re-planned onto
            // honest survivors, and its stall clock paused — no retries
            // are burned probing a banned peer. When the timed ban
            // lapses, its sweep is restarted.
            let addr = t.addr;
            if network.peer_quarantined(addr) {
                if quarantined.insert(addr) {
                    user.stats_mut().quarantines += 1;
                    let until = network.peer_quarantined_until(addr).unwrap_or(0.0);
                    events.emit(
                        "rt.heal",
                        "quarantine",
                        &[("peer", addr.into()), ("until", until.into())],
                    );
                    network.send(my_addr, addr, &Wire::StopTransmission { file_id });
                    reassign(
                        network,
                        my_addr,
                        user,
                        &tracks,
                        &mut reassign_rr,
                        file_id,
                        &events,
                    );
                }
                let t = &mut tracks[i];
                t.last_activity = now;
                t.retries = 0;
                continue;
            }
            if quarantined.remove(&addr) {
                // Ban lapsed: probe the peer again with a fresh sweep
                // (it keeps earning quarantine back if it still attacks).
                if user.stage(addr) == Some(ConnStage::Downloading) {
                    let _ = network.send(my_addr, addr, &Wire::FileRequest { file_id })
                        && send_stops(network, my_addr, user, addr, file_id);
                }
                tracks[i].last_activity = now;
                continue;
            }
            let t = &tracks[i];
            if now.duration_since(t.last_activity) <= options.stall_timeout || now < t.next_attempt
            {
                continue;
            }
            if t.retries >= options.max_peer_retries {
                let addr = t.addr;
                write_off(user, &mut tracks, addr, &events);
                reassign(
                    network,
                    my_addr,
                    user,
                    &tracks,
                    &mut reassign_rr,
                    file_id,
                    &events,
                );
                continue;
            }
            let t = &mut tracks[i];
            t.retries += 1;
            // Bounded exponential backoff: 1×, 2×, 4×, capped at 8×.
            let factor = 1u32 << t.retries.min(3);
            t.next_attempt = now + options.retry_backoff * factor;
            user.stats_mut().retries += 1;
            events.emit(
                "rt.heal",
                "retry",
                &[("peer", t.addr.into()), ("attempt", t.retries.into())],
            );
            let delivered = if user.stage(t.addr) == Some(ConnStage::Downloading) {
                // The stream dried up or its messages were lost: restart
                // the peer's sweep (duplicates are rejected cheaply) and
                // re-declare the chunks we already hold.
                network.send(my_addr, t.addr, &Wire::FileRequest { file_id })
                    && send_stops(network, my_addr, user, t.addr, file_id)
            } else {
                // Handshake wedged (a control message was lost): tear the
                // connection down and re-run it from the commit.
                let (addr, key) = (t.addr, t.key);
                user.drop_conn(addr);
                let commit = user.connect(addr, key, &mut rng);
                network.send(my_addr, addr, &commit)
            };
            if !delivered {
                let addr = tracks[i].addr;
                write_off(user, &mut tracks, addr, &events);
                reassign(
                    network,
                    my_addr,
                    user,
                    &tracks,
                    &mut reassign_rr,
                    file_id,
                    &events,
                );
            }
        }
        if tracks.iter().all(|t| t.dead) {
            return Err(SystemError::AllPeersUnavailable {
                have: user.independent_count(),
                need: user.messages_needed(),
            });
        }
    }
    // Close the last partial health window before reporting back.
    flush_windows(&mut window_msgs, &events);
    // Final feedback to the home peer (the off-line informational update).
    // The window end doubles as the report's anti-replay counter on the
    // peer side (each accepted report must strictly advance it), so use
    // epoch microseconds rather than the download's elapsed seconds — two
    // quick successive downloads must not collide, and a replayed report
    // must never be accepted twice.
    let window_end = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_micros() as u64);
    let report = user.make_feedback(window_end, &mut rng);
    network.send(my_addr, home_peer, &Wire::Feedback(report));
    user.decode()
}

/// Picks the inbox poll duration for the self-healing loop: the base
/// cadence while any live, unbanned peer could need recovery right now,
/// otherwise the time until the earliest recovery deadline (a peer's stall
/// deadline or scheduled retry), capped at `cap` so lapsing quarantine
/// bans are still re-checked. With every live peer banned (windows
/// closed), the loop waits the full cap rather than spinning.
///
/// The flag says whether that wait honors a backoff — the earliest
/// deadline is a scheduled retry rather than a stall deadline, or only
/// quarantined peers are left — as opposed to ordinary waiting for a
/// healthy peer's next message.
fn heal_poll(
    tracks: &[PeerTrack],
    quarantined: &std::collections::HashSet<u64>,
    now: Instant,
    base: Duration,
    cap: Duration,
) -> (Duration, bool) {
    // Earliest recovery deadline, and whether a retry backoff set it.
    let mut next: Option<(Instant, bool)> = None;
    let mut banned = false;
    for t in tracks.iter().filter(|t| !t.dead) {
        if quarantined.contains(&t.addr) {
            // Banned: nothing to probe until the ban lapses (re-checked
            // at the cap).
            banned = true;
            continue;
        }
        // A recovery action fires once the peer is both past its stall
        // deadline and past its retry backoff.
        let stall_due = t.last_activity + cap;
        let due = stall_due.max(t.next_attempt);
        if due <= now {
            return (base, false);
        }
        if next.is_none_or(|(n, _)| due < n) {
            next = Some((due, t.next_attempt > stall_due));
        }
    }
    match next {
        Some((due, retry)) => (due.duration_since(now).clamp(base, cap), retry),
        None => (cap, banned),
    }
}

/// Emits the accumulated per-peer message counts as `rt.download`/`window`
/// events (peer order ascending, so logs are stable) and clears the map.
fn flush_windows(
    window_msgs: &mut std::collections::HashMap<u64, u64>,
    events: &asymshare_obs::EventSink,
) {
    if window_msgs.is_empty() {
        return;
    }
    let mut counts: Vec<(u64, u64)> = window_msgs.drain().collect();
    counts.sort_unstable();
    for (peer, msgs) in counts {
        events.emit(
            "rt.download",
            "window",
            &[("peer", peer.into()), ("msgs", msgs.into())],
        );
    }
}

/// Marks `addr` dead and forgets its connection state.
fn write_off(
    user: &mut User<Gf2p32>,
    tracks: &mut [PeerTrack],
    addr: u64,
    events: &asymshare_obs::EventSink,
) {
    user.drop_conn(addr);
    if let Some(t) = tracks.iter_mut().find(|t| t.addr == addr) {
        t.dead = true;
    }
    events.emit("rt.heal", "write_off", &[("peer", addr.into())]);
}

/// Re-plans a dead peer's demand onto the next live downloading survivor:
/// restarts that survivor's sweep so messages only the dead peer had sent
/// get re-covered, and re-declares completed chunks so the survivor skips
/// them.
fn reassign(
    network: &RtNetwork,
    my_addr: u64,
    user: &mut User<Gf2p32>,
    tracks: &[PeerTrack],
    rr: &mut usize,
    file_id: u64,
    events: &asymshare_obs::EventSink,
) {
    let live: Vec<u64> = tracks
        .iter()
        .filter(|t| !t.dead && user.stage(t.addr) == Some(ConnStage::Downloading))
        .map(|t| t.addr)
        .collect();
    if live.is_empty() {
        return;
    }
    // Quarantined peers are excluded from the re-plan pool outright (they
    // are under a timed ban); only if every survivor is banned does the
    // full live pool still serve, so the download cannot strand itself.
    let unbanned: Vec<u64> = live
        .iter()
        .copied()
        .filter(|&addr| !network.peer_quarantined(addr))
        .collect();
    let base = if unbanned.is_empty() {
        &live
    } else {
        &unbanned
    };
    // Deprioritize (never ban) survivors the health engine currently marks
    // sick; if every survivor is sick, the full pool still serves. With no
    // engine installed nobody is sick, so the round-robin is unchanged.
    let healthy: Vec<u64> = base
        .iter()
        .copied()
        .filter(|&addr| !network.peer_is_sick(addr))
        .collect();
    let pool = if healthy.is_empty() { base } else { &healthy };
    let deprioritized = (live.len() - pool.len()) as u64;
    let target = pool[*rr % pool.len()];
    *rr += 1;
    if network.send(my_addr, target, &Wire::FileRequest { file_id }) {
        let _ = send_stops(network, my_addr, user, target, file_id);
        user.stats_mut().reassignments += 1;
        events.emit(
            "rt.heal",
            "reassign",
            &[
                ("target", target.into()),
                ("deprioritized", deprioritized.into()),
            ],
        );
    }
}

/// Tells `addr` to skip every chunk the user has already decoded.
fn send_stops(
    network: &RtNetwork,
    my_addr: u64,
    user: &User<Gf2p32>,
    addr: u64,
    file_id: u64,
) -> bool {
    user.completed_chunks()
        .into_iter()
        .all(|chunk| network.send(my_addr, addr, &Wire::StopChunk { file_id, chunk }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::identity::Identity;
    use crate::peer::Peer;
    use asymshare_gf::FieldKind;
    use asymshare_rlnc::{ChunkedEncoder, DigestKind, FileId};

    fn build_file(
        owner: &Identity,
        n_peers: usize,
        len: usize,
    ) -> (
        Vec<Vec<asymshare_rlnc::EncodedMessage>>,
        asymshare_rlnc::FileManifest,
    ) {
        let data: Vec<u8> = (0..len).map(|i| (i * 41 % 251) as u8).collect();
        let mut enc = ChunkedEncoder::<Gf2p32>::with_chunk_size(
            FieldKind::Gf2p32,
            4,
            DigestKind::Md5,
            owner.coding_secret().clone(),
            FileId(5),
            &data,
            16 * 1024,
        )
        .unwrap();
        let batches = enc.encode_for_peers(n_peers).unwrap();
        (batches, enc.manifest().clone())
    }

    #[test]
    fn threaded_download_from_three_peers() {
        let network = RtNetwork::new();
        let owner = Identity::from_seed(b"rt-owner");
        let (batches, manifest) = build_file(&owner, 3, 96 * 1024);

        let mut hosts = Vec::new();
        let mut peer_addrs = Vec::new();
        for (i, batch) in batches.into_iter().enumerate() {
            let identity = Identity::from_seed(&[b'r', b't', i as u8]);
            let key = identity.public_key().to_bytes();
            let mut peer = Peer::new(identity, 1_000.0);
            peer.add_subscriber(owner.public_key().to_bytes());
            for m in batch {
                peer.store_mut().insert(m);
            }
            let addr = 100 + i as u64;
            hosts.push(PeerHost::spawn(
                &network,
                addr,
                peer,
                4 << 20, // 4 MB/s uplink so the test is fast
                Duration::from_millis(5),
            ));
            peer_addrs.push((addr, key));
        }

        let mut user = User::<Gf2p32>::new(owner, manifest).unwrap();
        let data = download_file(
            &network,
            1,
            &mut user,
            &peer_addrs,
            peer_addrs[0].0,
            Duration::from_secs(30),
        )
        .expect("download completes");
        let expect: Vec<u8> = (0..96 * 1024).map(|i| (i * 41 % 251) as u8).collect();
        assert_eq!(data, expect);
        for host in hosts {
            host.shutdown();
        }
    }

    #[test]
    fn clean_slow_link_accrues_no_backoff_wait() {
        // One healthy peer on a 48 KiB/s uplink: once the token bucket's
        // 64 KiB burst is spent, ~4 KiB messages arrive ~85 ms apart — over
        // the 50 ms base poll, so the loop's extended polls do wait, but on
        // the link, not on any retry backoff or ban.
        let network = RtNetwork::new();
        let owner = Identity::from_seed(b"rt-slow");
        let (batches, manifest) = build_file(&owner, 1, 128 * 1024);
        let identity = Identity::from_seed(b"rt-slow-peer");
        let key = identity.public_key().to_bytes();
        let mut peer = Peer::new(identity, 1_000.0);
        peer.add_subscriber(owner.public_key().to_bytes());
        for m in batches.into_iter().next().unwrap() {
            peer.store_mut().insert(m);
        }
        let host = PeerHost::spawn(&network, 150, peer, 48 << 10, Duration::from_millis(5));
        let mut user = User::<Gf2p32>::new(owner, manifest).unwrap();
        let started = Instant::now();
        download_file(
            &network,
            8,
            &mut user,
            &[(150, key)],
            150,
            Duration::from_secs(30),
        )
        .expect("download completes");
        assert!(
            started.elapsed() > Duration::from_millis(500),
            "the link was slow enough to wait on: {:?}",
            started.elapsed()
        );
        assert_eq!(user.stats().retries, 0, "{:?}", user.stats());
        assert_eq!(user.stats().backoff_wait_us, 0, "{:?}", user.stats());
        host.shutdown();
    }

    #[test]
    fn download_times_out_when_peers_lack_messages() {
        let network = RtNetwork::new();
        let owner = Identity::from_seed(b"rt-owner2");
        let (batches, manifest) = build_file(&owner, 1, 32 * 1024);
        // The peer stores only half of one batch: not enough to decode.
        let identity = Identity::from_seed(b"rt-partial");
        let key = identity.public_key().to_bytes();
        let mut peer = Peer::new(identity, 1_000.0);
        peer.add_subscriber(owner.public_key().to_bytes());
        for m in batches.into_iter().next().unwrap().into_iter().take(2) {
            peer.store_mut().insert(m);
        }
        let host = PeerHost::spawn(&network, 200, peer, 4 << 20, Duration::from_millis(5));
        let mut user = User::<Gf2p32>::new(owner, manifest).unwrap();
        let err = download_file(
            &network,
            2,
            &mut user,
            &[(200, key)],
            200,
            Duration::from_millis(600),
        )
        .unwrap_err();
        assert!(matches!(err, SystemError::Codec(_)));
        assert!(user.progress() > 0.0, "partial progress was made");
        host.shutdown();
    }

    /// The default fault seed for rt tests; CI sweeps a small matrix via
    /// `ASYMSHARE_FAULT_SEED` so flaky recovery logic cannot land silently.
    fn fault_seed() -> u64 {
        std::env::var("ASYMSHARE_FAULT_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(42)
    }

    #[test]
    fn download_survives_lossy_links() {
        let network = RtNetwork::new();
        let owner = Identity::from_seed(b"rt-lossy");
        let (batches, manifest) = build_file(&owner, 3, 96 * 1024);
        let mut hosts = Vec::new();
        let mut peer_addrs = Vec::new();
        for (i, batch) in batches.into_iter().enumerate() {
            let identity = Identity::from_seed(&[b'l', b'y', i as u8]);
            let key = identity.public_key().to_bytes();
            let mut peer = Peer::new(identity, 1_000.0);
            peer.add_subscriber(owner.public_key().to_bytes());
            for m in batch {
                peer.store_mut().insert(m);
            }
            let addr = 400 + i as u64;
            hosts.push(PeerHost::spawn(
                &network,
                addr,
                peer,
                4 << 20,
                Duration::from_millis(5),
            ));
            peer_addrs.push((addr, key));
        }
        network.install_faults(
            FaultPlan::new(fault_seed())
                .with_loss(0.05)
                .with_corruption(0.02),
        );
        let mut user = User::<Gf2p32>::new(owner, manifest).unwrap();
        let data = download_file_with(
            &network,
            4,
            &mut user,
            &peer_addrs,
            peer_addrs[0].0,
            DownloadOptions {
                timeout: Duration::from_secs(60),
                stall_timeout: Duration::from_millis(300),
                retry_backoff: Duration::from_millis(100),
                max_peer_retries: 10,
            },
        )
        .expect("download heals through loss and corruption");
        let expect: Vec<u8> = (0..96 * 1024).map(|i| (i * 41 % 251) as u8).collect();
        assert_eq!(data, expect);
        let faults = network.fault_stats();
        assert!(faults.dropped > 0, "losses were actually injected");
        for host in hosts {
            host.shutdown();
        }
    }

    #[test]
    fn download_survives_peer_churn_with_reassignment() {
        let network = RtNetwork::new();
        let owner = Identity::from_seed(b"rt-churn");
        // Must dwarf the hosts' aggregate token-bucket burst (5 × 64 KB)
        // so the kill lands while serving is still rate-limited.
        let (batches, manifest) = build_file(&owner, 5, 640 * 1024);
        let mut hosts = Vec::new();
        let mut peer_addrs = Vec::new();
        for (i, batch) in batches.into_iter().enumerate() {
            let identity = Identity::from_seed(&[b'c', b'h', i as u8]);
            let key = identity.public_key().to_bytes();
            let mut peer = Peer::new(identity, 1_000.0);
            peer.add_subscriber(owner.public_key().to_bytes());
            for m in batch {
                peer.store_mut().insert(m);
            }
            let addr = 500 + i as u64;
            hosts.push(PeerHost::spawn(
                &network,
                addr,
                peer,
                96 * 1024, // slow uplinks so the kill lands mid-download
                Duration::from_millis(5),
            ));
            peer_addrs.push((addr, key));
        }
        // Kill 2 of the 5 peers shortly after the download starts.
        let doomed: Vec<PeerHost> = hosts.drain(0..2).collect();
        let killer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(150));
            for host in doomed {
                host.shutdown();
            }
        });
        let mut user = User::<Gf2p32>::new(owner, manifest).unwrap();
        let data = download_file_with(
            &network,
            5,
            &mut user,
            &peer_addrs,
            peer_addrs[4].0,
            DownloadOptions {
                timeout: Duration::from_secs(60),
                stall_timeout: Duration::from_millis(200),
                retry_backoff: Duration::from_millis(100),
                max_peer_retries: 0,
            },
        )
        .expect("survivors cover the demand");
        killer.join().unwrap();
        let expect: Vec<u8> = (0..640 * 1024).map(|i| (i * 41 % 251) as u8).collect();
        assert_eq!(data, expect);
        assert!(
            user.stats().reassignments >= 1,
            "dead peers' demand was re-planned: {:?}",
            user.stats()
        );
        for host in hosts {
            host.shutdown();
        }
    }

    #[test]
    fn all_peers_dead_fails_gracefully() {
        let network = RtNetwork::new();
        let owner = Identity::from_seed(b"rt-dead");
        let (_batches, manifest) = build_file(&owner, 1, 16 * 1024);
        // Nobody is listening at either address.
        let mut user = User::<Gf2p32>::new(owner, manifest).unwrap();
        let err = download_file_with(
            &network,
            6,
            &mut user,
            &[(600, [1u8; 64]), (601, [2u8; 64])],
            600,
            DownloadOptions {
                timeout: Duration::from_secs(5),
                stall_timeout: Duration::from_millis(100),
                retry_backoff: Duration::from_millis(50),
                max_peer_retries: 1,
            },
        )
        .unwrap_err();
        assert!(
            matches!(err, SystemError::AllPeersUnavailable { .. }),
            "got {err}"
        );
    }

    #[test]
    fn timeout_reports_real_message_counts() {
        let network = RtNetwork::new();
        let owner = Identity::from_seed(b"rt-counts");
        let (batches, manifest) = build_file(&owner, 1, 32 * 1024);
        let identity = Identity::from_seed(b"rt-partial2");
        let key = identity.public_key().to_bytes();
        let mut peer = Peer::new(identity, 1_000.0);
        peer.add_subscriber(owner.public_key().to_bytes());
        for m in batches.into_iter().next().unwrap().into_iter().take(2) {
            peer.store_mut().insert(m);
        }
        let host = PeerHost::spawn(&network, 700, peer, 4 << 20, Duration::from_millis(5));
        let mut user = User::<Gf2p32>::new(owner, manifest).unwrap();
        let needed = user.messages_needed();
        let err = download_file(
            &network,
            7,
            &mut user,
            &[(700, key)],
            700,
            Duration::from_millis(600),
        )
        .unwrap_err();
        let SystemError::Codec(CodecError::NotEnoughMessages { have, need }) = err else {
            panic!("expected NotEnoughMessages, got {err}");
        };
        assert_eq!(need, needed, "real requirement, not a percentage");
        assert_eq!(have, 2, "exactly the two stored messages were counted");
        host.shutdown();
    }

    #[test]
    fn unauthorized_user_is_refused_by_all() {
        let network = RtNetwork::new();
        let owner = Identity::from_seed(b"rt-owner3");
        let stranger = Identity::from_seed(b"rt-stranger");
        let (batches, manifest) = build_file(&owner, 1, 16 * 1024);
        let identity = Identity::from_seed(b"rt-strict");
        let key = identity.public_key().to_bytes();
        let mut peer = Peer::new(identity, 1_000.0);
        peer.add_subscriber(owner.public_key().to_bytes()); // not the stranger
        for m in batches.into_iter().next().unwrap() {
            peer.store_mut().insert(m);
        }
        let host = PeerHost::spawn(&network, 300, peer, 1 << 20, Duration::from_millis(5));
        let mut user = User::<Gf2p32>::new(stranger, manifest).unwrap();
        let err = download_file(
            &network,
            3,
            &mut user,
            &[(300, key)],
            300,
            Duration::from_secs(5),
        )
        .unwrap_err();
        assert!(matches!(err, SystemError::AuthenticationRejected { .. }));
        host.shutdown();
    }
}
