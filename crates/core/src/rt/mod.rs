//! The real-time runtime — the paper's §VI-A future work ("implement the
//! proposed system in a dynamic real-time environment").
//!
//! Peers exchange *serialized* wire messages over an in-process transport,
//! with token-bucket uplink shaping standing in for the physical link.
//! This exercises everything the simulated runtime does — handshakes,
//! Eq.-2 serving, chunk stops, feedback — plus real concurrency, real
//! (de)serialization on every hop, and wall-clock rate limiting.
//!
//! Peers are hosted by the event-loop [`Reactor`]: one worker thread
//! drives the serving engine of hundreds of [`Peer`](crate::Peer)s, each
//! connection bounded by the frames its receiver still holds. The
//! client side is [`download_file_with`], a blocking loop on the caller's
//! thread that drives the client engine the simulator also drives
//! (per-frame bookkeeping and the recovery ladder), on wall seconds.
//!
//! # Example
//!
//! ```rust,no_run
//! use asymshare::rt::{download_file, Reactor, ReactorConfig, RtNetwork};
//! use asymshare::{Identity, Peer};
//!
//! let network = RtNetwork::new();
//! let mut reactor = Reactor::new(&network, ReactorConfig::default());
//! let peer = Peer::new(Identity::from_seed(b"peer"), 1000.0);
//! reactor.add_peer(1, peer, 1 << 20);
//! // ... disseminate, then download_file(...) from a user thread.
//! ```

mod limiter;
mod metrics_http;
mod pool;
mod reactor;
mod transport;

pub use asymshare_netsim::{FaultPlan, FaultStats};
pub use limiter::TokenBucket;
pub use metrics_http::MetricsServer;
pub use pool::{BufferPool, PoolStats};
pub use reactor::{Reactor, ReactorConfig, MAX_COALESCE};
pub use transport::{Envelope, FrameIter, RtNetwork};

use crate::error::SystemError;
use crate::fetch::{log, Fetch, Out};
use crate::protocol::Wire;
use crate::recovery::LadderConfig;
use crate::user::User;
use asymshare_crypto::chacha20::ChaChaRng;
use asymshare_gf::{block, Gf2p32};
use asymshare_obs::Value;
use asymshare_rlnc::{CodecError, SealedBlock};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::{Scope, ScopedJoinHandle};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Tuning knobs for the self-healing download loop.
#[derive(Debug, Clone)]
pub struct DownloadOptions {
    /// Overall wall-clock budget for the download.
    pub timeout: Duration,
    /// A peer silent for this long is considered stalled and recovered
    /// (re-request, then reconnect, then written off).
    pub stall_timeout: Duration,
    /// Base reconnect backoff; the first retry waits twice this, doubling
    /// per consecutive retry (capped at 8×), so a flapping peer is probed
    /// ever more gently.
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

/// The components of the client log's lines: what a datagram brought,
/// and what the recovery ladder did.
const CLIENT_LOG: (&str, &str) = ("rt.download", "rt.heal");

/// Base delay between replacement requests for the same `(peer, chunk)`,
/// wall seconds (the ladder doubles it per consecutive request).
const REPL_BACKOFF_BASE_SECS: f64 = 0.1;

/// A chunk's index and how its decode went.
type Decoded = (u32, Result<(), CodecError>);

/// Records `[start, end]`, on the sink's clock, as a `kind` span under the
/// download's.
fn emit_under(
    events: &asymshare_obs::EventSink,
    download: u64,
    kind: &'static str,
    (start, end): (f64, f64),
    fields: &[(&'static str, Value)],
) {
    events.emit_span_at(end, start, end, "rt.download", kind, Some(download), fields);
}

/// A sealed chunk and the slice of the output it decodes into: the two move
/// together, to the worker or through the client thread, and the chunk's
/// rows are freed when the job has run.
struct DecodeJob<'env> {
    chunk: u32,
    block: SealedBlock<Gf2p32>,
    out: &'env mut [u8],
    /// On the event sink's clock, which reads 0 when the sink is disabled.
    sealed_secs: f64,
}

impl DecodeJob<'_> {
    /// Decodes, and reports `rt.download`/`chunk_decoded` under `parent`.
    fn run(
        self,
        scratch: &mut block::Scratch,
        inline: bool,
        events: &asymshare_obs::EventSink,
        parent: u64,
    ) -> Decoded {
        let start = events.now_secs();
        let result = self.block.decode_into(self.out, scratch);
        let end = events.now_secs();
        let micros = |secs: f64| Value::from((secs * 1e6) as u64);
        let fields = [
            ("chunk", self.chunk.into()),
            ("queued_us", micros(start - self.sealed_secs)),
            ("decode_us", micros(end - start)),
            ("inline", inline.into()),
        ];
        emit_under(events, parent, "chunk_decoded", (start, end), &fields);
        (self.chunk, result)
    }
}

/// The thread draining the decode queue, and the queue's two ends: the
/// caller keeps the receiving one to share what is left once it is done
/// receiving. The worker holds the lock while it blocks in `recv`; the
/// caller locks only after dropping `jobs`, when `recv` returns at once.
struct DecodeWorker<'scope, 'env> {
    jobs: Sender<DecodeJob<'env>>,
    queue: Arc<Mutex<Receiver<DecodeJob<'env>>>>,
    thread: ScopedJoinHandle<'scope, Vec<Decoded>>,
}

/// Decodes chunks as they reach rank `k`, beside the receive loop where
/// that helps (DESIGN.md §12): the first chunk to complete while more of
/// the file is still to come starts one scoped worker, which decodes such
/// chunks in turn; the chunk that completes the file, whatever the worker
/// has not reached by then, and every chunk when
/// [`asymshare_par::max_threads`] is one, are decoded by the caller.
/// Dropping the pipeline drops the sender, which ends the worker's queue,
/// and the scope joins it: a fetch that fails leaves no thread behind.
struct DecodePipeline<'scope, 'env> {
    scope: &'scope Scope<'scope, 'env>,
    /// Each chunk's slice of the output, until its job takes it.
    slices: Vec<Option<&'env mut [u8]>>,
    worker: Option<DecodeWorker<'scope, 'env>>,
    /// Scratch and results of the chunks decoded on the caller's thread.
    scratch: block::Scratch,
    results: Vec<Decoded>,
    pipelined: bool,
    /// When the file-completing chunk was sealed.
    completed_secs: Option<f64>,
    events: asymshare_obs::EventSink,
    /// The whole download, error paths included; parent of the decodes.
    span: asymshare_obs::Span,
}

impl<'scope, 'env> DecodePipeline<'scope, 'env> {
    /// Takes a chunk sealed just now; `last` says it completed the file.
    fn submit(&mut self, chunk: u32, block: SealedBlock<Gf2p32>, last: bool) {
        let out = self.slices[chunk as usize].take();
        let job = DecodeJob {
            chunk,
            block,
            out: out.expect("a chunk is sealed once"),
            sealed_secs: self.events.now_secs(),
        };
        let parent = self.span.id();
        if last || !self.pipelined {
            if last {
                self.completed_secs.get_or_insert(job.sealed_secs);
            }
            let result = job.run(&mut self.scratch, true, &self.events, parent);
            return self.results.push(result);
        }
        let (scope, events) = (self.scope, &self.events);
        let worker = self.worker.get_or_insert_with(|| {
            let (jobs, queue) = channel::<DecodeJob<'env>>();
            let queue = Arc::new(Mutex::new(queue));
            let (events, theirs) = (events.clone(), queue.clone());
            let thread = scope.spawn(move || {
                let mut scratch = block::Scratch::new();
                let run = |job: DecodeJob<'env>| job.run(&mut scratch, false, &events, parent);
                let next = || theirs.lock().unwrap_or_else(PoisonError::into_inner).recv();
                std::iter::from_fn(|| next().ok()).map(run).collect()
            });
            DecodeWorker {
                jobs,
                queue,
                thread,
            }
        });
        if worker.jobs.send(job).is_err() {
            unreachable!("this pipeline holds the queue's receiving end");
        }
    }

    /// Decodes what `user` held complete before the fetch began, empties
    /// the queue alongside the worker, and reports
    /// `rt.download`/`decode_tail`: from the file-completing message to
    /// here, what of decoding was left on the blocking path.
    ///
    /// # Errors
    ///
    /// The lowest-indexed failing chunk's, as `ChunkedDecoder::decode`;
    /// [`CodecError::ChunkSealed`] for a chunk an earlier fetch sealed.
    fn finish(mut self, user: &mut User<Gf2p32>) -> Result<(), CodecError> {
        for index in 0..self.slices.len() as u32 {
            if self.slices[index as usize].is_some() {
                let block = user.seal_chunk(index);
                self.submit(index, block.ok_or(CodecError::ChunkSealed { index })?, true);
            }
        }
        let mut results = self.results;
        if let Some(worker) = self.worker {
            drop(worker.jobs);
            // Nothing left to receive: share the worker's backlog.
            let parent = self.span.id();
            let queue = &worker.queue;
            let next = || queue.lock().unwrap_or_else(PoisonError::into_inner).recv();
            while let Ok(job) = next() {
                results.push(job.run(&mut self.scratch, true, &self.events, parent));
            }
            let joined = worker.thread.join();
            results.extend(joined.unwrap_or_else(|panic| std::panic::resume_unwind(panic)));
        }
        let now = self.events.now_secs();
        let start = self.completed_secs.unwrap_or(now);
        let fields = [("us", (((now - start) * 1e6) as u64).into())];
        let download = self.span.id();
        emit_under(&self.events, download, "decode_tail", (start, now), &fields);
        results.sort_unstable_by_key(|&(chunk, _)| chunk);
        results.into_iter().try_for_each(|(_, result)| result)
    }
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
/// The real-time driver of the client engine the simulator also drives:
/// this loop owns the inbox, the wait, the decoders, the deadline and the
/// final feedback; the engine decides what each datagram (timed by when it
/// landed in the inbox) and each passing moment call for — re-requests,
/// re-handshakes and write-offs of silent peers with bounded backoff,
/// rate-limited [`Wire::ReplacementRequest`]s for rejected messages, and a
/// ban — a stop, then a write-off — for a peer its own evidence convicts of
/// pollution, replay or selective serving (DESIGN.md §11) — and counts it
/// in the user's [`SessionStats`](crate::user::SessionStats). The verdicts
/// are this fetch's alone: another user's fetch from the same peer judges
/// it afresh.
/// A protocol error on a connection that is not (yet) downloading costs
/// that connection (`rt.heal`/`handshake_error`), not the fetch.
///
/// Each chunk is sealed ([`User::seal_chunk`]) the moment it reaches rank
/// `k` and decoded into its slice of the returned buffer while the loop
/// receives the next ones; afterwards the session still counts every chunk
/// as complete but holds no rows, and [`User::decode`] says so.
///
/// # Errors
///
/// [`SystemError::AllPeersUnavailable`] when every peer is written off
/// before completion, [`SystemError::AuthenticationRejected`] when every
/// peer refused, [`SystemError::Codec`] (not-enough-messages) on timeout,
/// or a protocol error on an authenticated connection.
pub fn download_file_with(
    network: &RtNetwork,
    my_addr: u64,
    user: &mut User<Gf2p32>,
    peers: &[(u64, [u8; 64])],
    home_peer: u64,
    options: DownloadOptions,
) -> Result<Vec<u8>, SystemError> {
    let mut out = vec![0u8; user.manifest().total_len()];
    let chunk_size = user.manifest().chunk_size();
    let events = network.events();
    let fetched = std::thread::scope(|scope| {
        let decoders = DecodePipeline {
            scope,
            slices: out.chunks_mut(chunk_size).map(Some).collect(),
            worker: None,
            scratch: block::Scratch::new(),
            results: Vec::new(),
            pipelined: asymshare_par::max_threads() > 1,
            completed_secs: None,
            events: events.clone(),
            span: events.span("rt.download", "download"),
        };
        fetch(network, my_addr, user, peers, home_peer, options, decoders)
    });
    // The address is the fetch's while it runs, however it ends: the next
    // fetch from it registers it again.
    network.unregister(my_addr);
    fetched?;
    Ok(out)
}

/// The receive loop of [`download_file_with`]: every chunk goes to
/// `decoders` the moment it reaches rank `k`, and the file is whole in
/// their output when this returns `Ok`.
fn fetch(
    network: &RtNetwork,
    my_addr: u64,
    user: &mut User<Gf2p32>,
    peers: &[(u64, [u8; 64])],
    home_peer: u64,
    options: DownloadOptions,
    mut decoders: DecodePipeline<'_, '_>,
) -> Result<(), SystemError> {
    let inbox = network.register(my_addr);
    // Fresh per fetch: a commitment or signing nonce drawn twice gives the
    // secret key away.
    let mut rng = ChaChaRng::from_entropy();
    // The client log (inert when the network was not built with
    // `with_observability`) names a connection by its peer's address.
    let events = network.events().clone();
    // The engine's clock: seconds since the download started, which the
    // sink's clock read as `epoch`.
    let (started, epoch) = (Instant::now(), events.now_secs());
    let secs = |t: Instant| t.saturating_duration_since(started).as_secs_f64();
    let name = |conn: u64| vec![("peer", Value::from(conn))];
    // Carries out what the engine asked for, in order: frames go on the
    // wire (a send that fails reports the peer lost), a chunk at rank `k`
    // leaves the session for the decoders, and notes go to the log.
    let mut carry_out = |fetch: &mut Fetch<&mut User<Gf2p32>>, out: &mut Vec<Out>| {
        let ts = events.now_secs();
        for item in out.drain(..) {
            match item {
                Out::Send(conn, wire) => {
                    if !network.send(my_addr, conn, &wire) {
                        fetch.lost(conn);
                    }
                }
                Out::Ranked { chunk, last } => {
                    if let Some(block) = fetch.user_mut().seal_chunk(chunk) {
                        decoders.submit(chunk, block, last);
                    }
                }
                note => log(&events, ts, CLIENT_LOG, &note, name),
            }
        }
    };
    // Each peer's `window` line, then the `health`/`window` heartbeat at
    // which the report's fold over the log closes a window.
    let report_windows = |fetch: &mut Fetch<&mut User<Gf2p32>>| {
        fetch.log_window(&events, events.now_secs(), CLIENT_LOG.0, name);
        events.emit("health", "window", &[]);
    };
    let ladder = LadderConfig {
        stall_secs: options.stall_timeout.as_secs_f64(),
        retry_backoff_secs: options.retry_backoff.as_secs_f64(),
        max_retries: options.max_peer_retries,
        replacement_base_secs: REPL_BACKOFF_BASE_SECS,
    };
    // The connection id is the peer's address, so both sides key their
    // session state consistently.
    let mut out = Vec::new();
    let mut fetch = Fetch::new(user, peers, ladder, 0.0, &mut rng, &mut out);
    carry_out(&mut fetch, &mut out);
    let deadline = started + options.timeout;
    // The frames of the datagram in hand, drained by the engine.
    let mut frames: Vec<Wire> = Vec::new();
    let mut windows_reported = 0.0;
    while !fetch.user().is_complete() {
        network.pump();
        let now = Instant::now();
        if events.is_enabled() && secs(now) - windows_reported >= 0.25 {
            report_windows(&mut fetch);
            windows_reported = secs(now);
        }
        let remaining = deadline.saturating_duration_since(now);
        if remaining.is_zero() {
            return Err(SystemError::Codec(CodecError::NotEnoughMessages {
                have: fetch.user().independent_count(),
                need: fetch.user().messages_needed(),
            }));
        }
        // Adaptive poll: while no recovery action can fire, sleep toward the
        // earliest recovery deadline instead of re-polling at the base
        // cadence; an arriving datagram still wakes `recv_timeout` at once.
        // Only the extra wait spent honoring a backoff counts as
        // `SessionStats::backoff_wait_us`.
        const BASE_POLL: Duration = Duration::from_millis(50);
        let (wait, backing_off) = fetch.next_deadline(secs(now));
        let poll = Duration::from_secs_f64(wait).max(BASE_POLL).min(remaining);
        let wait_started = Instant::now();
        let received = inbox.recv_timeout(poll);
        if backing_off && poll > BASE_POLL {
            let extra = wait_started.elapsed().saturating_sub(BASE_POLL);
            fetch.user_mut().stats_mut().backoff_wait_us += extra.as_micros() as u64;
        }
        if let Some(envelope) = received {
            // A serving peer coalesces several frames into one datagram;
            // each MessageData payload is a zero-copy handle into the
            // envelope's buffer, fed straight to the decoder. A malformed
            // frame ends the datagram: the frames before it are processed,
            // then the error surfaces.
            let mut malformed = None;
            frames.extend(
                envelope
                    .decode_all()
                    .map_while(|frame| frame.map_err(|e| malformed = Some(e)).ok()),
            );
            // Timed by when it landed, not when the loop got to it.
            let at = secs(envelope.arrived);
            let result = fetch.on_datagram(envelope.from, &mut frames, at, &mut rng, &mut out);
            carry_out(&mut fetch, &mut out);
            result?;
            if let Some(e) = malformed {
                return Err(e);
            }
            // The decoder copied what it needed; hand the buffer back.
            network.recycle_envelope(envelope);
        }
        if fetch.user().is_complete() {
            break;
        }
        // Recovery pass: a send that fails reports the peer lost, which the
        // next poll of the same pass turns into its write-off and re-plan.
        let now = secs(Instant::now());
        loop {
            let result = fetch.poll(now, &mut rng, &mut out);
            let acted = !out.is_empty();
            carry_out(&mut fetch, &mut out);
            result?;
            if !acted {
                break;
            }
        }
    }
    // Flush the last partial window before reporting back, and lay the
    // download's timeline under its span.
    report_windows(&mut fetch);
    let root = (decoders.span.id(), epoch);
    fetch.log_trace(&events, events.now_secs(), CLIENT_LOG.0, root, Value::from);
    // Final feedback to the home peer (the off-line informational update).
    // The window end doubles as the report's anti-replay counter on the
    // peer side (each accepted report must strictly advance it), so use
    // epoch microseconds rather than the download's elapsed seconds — two
    // quick successive downloads must not collide, and a replayed report
    // must never be accepted twice.
    let window_end = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_micros() as u64);
    let report = fetch.user_mut().make_feedback(window_end, &mut rng);
    network.send(my_addr, home_peer, &Wire::Feedback(report));
    // Only now wait: what the worker still has queued is all that is left.
    Ok(decoders.finish(fetch.user_mut())?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::identity::Identity;
    use crate::peer::Peer;
    use asymshare_gf::FieldKind;
    use asymshare_netsim::{AdversaryStrategy, NodeId};
    use asymshare_rlnc::{ChunkedEncoder, DigestKind, EncodedMessage, FileId, FileManifest};

    fn build_file(
        owner: &Identity,
        n_peers: usize,
        len: usize,
    ) -> (Vec<Vec<EncodedMessage>>, asymshare_rlnc::FileManifest) {
        let mut enc = ChunkedEncoder::<Gf2p32>::with_chunk_size(
            FieldKind::Gf2p32,
            4,
            DigestKind::Md5,
            owner.coding_secret().clone(),
            FileId(5),
            &file_bytes(len),
            16 * 1024,
        )
        .unwrap();
        let batches = enc.encode_for_peers(n_peers).unwrap();
        (batches, enc.manifest().clone())
    }

    fn file_bytes(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 41 % 251) as u8).collect()
    }

    /// A peer subscribed to `owner`, stocked with `batch`, and its key.
    fn stocked_peer(
        owner: &Identity,
        seed: &[u8],
        batch: impl IntoIterator<Item = EncodedMessage>,
    ) -> (Peer, [u8; 64]) {
        let identity = Identity::from_seed(seed);
        let key = identity.public_key().to_bytes();
        let mut peer = Peer::new(identity, 1_000.0);
        peer.add_subscriber(owner.public_key().to_bytes());
        for m in batch {
            peer.store_mut().insert(m);
        }
        (peer, key)
    }

    /// One reactor hosting `batches[i]` at address `base + i`, every uplink
    /// shaped to `rate` bytes per second.
    fn host_fleet(
        network: &RtNetwork,
        owner: &Identity,
        batches: Vec<Vec<EncodedMessage>>,
        base: u64,
        tag: [u8; 2],
        rate: u64,
    ) -> (Reactor, Vec<(u64, [u8; 64])>) {
        let mut reactor = Reactor::new(network, ReactorConfig::default());
        let mut peer_addrs = Vec::new();
        for (i, batch) in batches.into_iter().enumerate() {
            let (peer, key) = stocked_peer(owner, &[tag[0], tag[1], i as u8], batch);
            let addr = base + i as u64;
            reactor.add_peer(addr, peer, rate);
            peer_addrs.push((addr, key));
        }
        (reactor, peer_addrs)
    }

    #[test]
    fn download_from_three_peers() {
        let network = RtNetwork::new();
        let owner = Identity::from_seed(b"rt-owner");
        let (batches, manifest) = build_file(&owner, 3, 96 * 1024);
        // 4 MB/s uplinks so the test is fast.
        let (reactor, peer_addrs) = host_fleet(&network, &owner, batches, 100, *b"rt", 4 << 20);

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
        assert_eq!(data, file_bytes(96 * 1024));
        reactor.shutdown();
    }

    /// A fetch holds its address only while it runs: one address fetches
    /// the file twice in a row (the failed fetches of
    /// `fetches_never_repeat_a_commitment` share one too).
    #[test]
    fn one_address_fetches_again_once_its_fetch_ends() {
        let network = RtNetwork::new();
        let owner = Identity::from_seed(b"rt-again");
        let (batches, manifest) = build_file(&owner, 2, 32 * 1024);
        let (reactor, peer_addrs) = host_fleet(&network, &owner, batches, 950, *b"ag", 4 << 20);
        for _ in 0..2 {
            let mut user = User::<Gf2p32>::new(owner.clone(), manifest.clone()).unwrap();
            let data = download_file(
                &network,
                5,
                &mut user,
                &peer_addrs,
                peer_addrs[0].0,
                Duration::from_secs(30),
            )
            .expect("download completes");
            assert_eq!(data, file_bytes(32 * 1024));
            assert!(!network.is_registered(5), "the fetch let its address go");
        }
        reactor.shutdown();
    }

    /// Each serve pass is timed from its own start. One worker runs its
    /// slots' passes one after another, so their durations cannot add up to
    /// more than the wall-clock they ran in — as they did when every slot
    /// measured from the cycle's shared clock and slot `i`'s sample counted
    /// slots `0..i` a second time. Eight peers stream their whole stores to
    /// a client that only counts frames and acks each datagram, as a user
    /// would, so serving is all that happens between the requests and the
    /// shutdown.
    #[test]
    fn pass_durations_add_up_to_at_most_the_wall_clock() {
        let network = RtNetwork::with_observability(
            asymshare_obs::Registry::new(),
            asymshare_obs::EventSink::new(),
        );
        let owner = Identity::from_seed(b"rt-pass");
        let (batches, manifest) = build_file(&owner, 8, 1 << 20);
        let stored: usize = batches.iter().map(Vec::len).sum();
        let mut reactor = Reactor::new(&network, ReactorConfig::default());
        let mut peer_addrs = Vec::new();
        for (i, batch) in batches.into_iter().enumerate() {
            let (peer, key) = stocked_peer(&owner, &[b'p', b'u', i as u8], batch);
            reactor.add_peer(300 + i as u64, peer, 1 << 30);
            peer_addrs.push((300 + i as u64, key));
        }
        // Authenticate every session, holding the file requests back.
        let inbox = network.register(3);
        let mut user = User::<Gf2p32>::new(owner, manifest).unwrap();
        let mut rng = ChaChaRng::new([0x3C; 32], *b"rt-pass-test");
        for &(addr, key) in &peer_addrs {
            assert!(network.send(3, addr, &user.connect(addr, key, &mut rng)));
        }
        let mut requests = Vec::new();
        while requests.len() < peer_addrs.len() {
            let envelope = inbox
                .recv_timeout(Duration::from_secs(10))
                .expect("handshake reply");
            let reply = envelope.decode().expect("one control frame");
            for (conn, wire) in user.on_message(envelope.from, reply, &mut rng).unwrap() {
                if matches!(wire, Wire::FileRequest { .. }) {
                    requests.push((conn, wire));
                } else {
                    assert!(network.send(3, conn, &wire));
                }
            }
        }
        let started = Instant::now();
        for (conn, request) in &requests {
            assert!(network.send(3, *conn, request));
        }
        let mut received = 0;
        let mut taken = std::collections::HashMap::new();
        while received < stored {
            let envelope = inbox
                .recv_timeout(Duration::from_secs(10))
                .expect("peers serve their whole stores");
            let ids: Vec<u64> = envelope
                .decode_all()
                .map(|frame| match frame {
                    Ok(Wire::MessageData(msg)) => msg.message_id().0,
                    other => panic!("a data frame, not {other:?}"),
                })
                .collect();
            received += ids.len();
            let taken = taken.entry(envelope.from).or_insert(0);
            *taken += ids.len() as u64;
            let ack = Wire::Ack {
                newest: ids[ids.len() - 1],
                taken: *taken,
            };
            assert!(network.send(3, envelope.from, &ack));
            network.recycle_envelope(envelope);
        }
        reactor.shutdown();
        let wall_us = started.elapsed().as_micros() as u64;
        let snapshot = network.metrics().snapshot();
        let passes = snapshot
            .histogram("rt.reactor.pass_us")
            .expect("the reactor recorded its passes");
        assert!(passes.count > 0);
        assert!(
            passes.sum <= wall_us,
            "{} passes took {} us of a {wall_us} us run",
            passes.count,
            passes.sum
        );
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
        let (reactor, peer_addrs) = host_fleet(&network, &owner, batches, 150, *b"sl", 48 << 10);
        let mut user = User::<Gf2p32>::new(owner, manifest).unwrap();
        let started = Instant::now();
        download_file(
            &network,
            8,
            &mut user,
            &peer_addrs,
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
        reactor.shutdown();
    }

    /// A reactor hosting one peer that stores only two messages of the
    /// file: not enough to decode.
    fn host_partial_peer(
        network: &RtNetwork,
        owner: &Identity,
        batches: Vec<Vec<EncodedMessage>>,
        addr: u64,
        seed: &[u8],
    ) -> (Reactor, [u8; 64]) {
        let stock = batches.into_iter().next().unwrap().into_iter().take(2);
        let (peer, key) = stocked_peer(owner, seed, stock);
        let mut reactor = Reactor::new(network, ReactorConfig::default());
        reactor.add_peer(addr, peer, 4 << 20);
        (reactor, key)
    }

    #[test]
    fn download_times_out_when_peers_lack_messages() {
        let network = RtNetwork::new();
        let owner = Identity::from_seed(b"rt-owner2");
        let (batches, manifest) = build_file(&owner, 1, 32 * 1024);
        let (reactor, key) = host_partial_peer(&network, &owner, batches, 200, b"rt-partial");
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
        reactor.shutdown();
    }

    /// A user that took `batch` from one in-memory peer, frame by frame,
    /// until the peer ran dry: complete, nothing sealed.
    fn fed_user(
        owner: &Identity,
        manifest: FileManifest,
        batch: Vec<EncodedMessage>,
    ) -> User<Gf2p32> {
        let mut rng = ChaChaRng::new([0x77; 32], *b"rt-fed-user!");
        let (mut peer, key) = stocked_peer(owner, b"rt-fed-peer", batch);
        let mut user = User::<Gf2p32>::new(owner.clone(), manifest).unwrap();
        let commit = user.connect(0, key, &mut rng);
        let challenge = peer.on_message(0, commit, &mut rng).unwrap().remove(0);
        let response = user.on_message(0, challenge, &mut rng).unwrap().remove(0);
        let result = peer.on_message(0, response.1, &mut rng).unwrap().remove(0);
        let request = user.on_message(0, result, &mut rng).unwrap().remove(0);
        peer.on_message(0, request.1, &mut rng).unwrap();
        while let Some(msg) = peer.next_message(0) {
            user.on_message(0, Wire::MessageData(msg), &mut rng)
                .unwrap();
        }
        assert!(user.is_complete());
        user
    }

    /// `(chunk, inline)` of every `rt.download`/`chunk_decoded` event.
    fn chunks_decoded(network: &RtNetwork) -> Vec<(u64, bool)> {
        let field = |event: &asymshare_obs::Event, name: &str| {
            let (_, value) = event.fields.iter().find(|(n, _)| *n == name).unwrap();
            value.clone()
        };
        network
            .events()
            .events()
            .iter()
            .filter(|e| e.component == "rt.download" && e.kind == "chunk_decoded")
            .map(|e| match (field(e, "chunk"), field(e, "inline")) {
                (asymshare_obs::Value::U64(chunk), asymshare_obs::Value::Bool(inline)) => {
                    (chunk, inline)
                }
                other => panic!("chunk_decoded fields: {other:?}"),
            })
            .collect()
    }

    /// Five whole chunks and one of 1001 bytes (k = 4: three 252-byte
    /// pieces and one cut to 245): each is sealed at rank `k` and decoded
    /// into its slice of the one output, by the worker while the loop is
    /// still receiving and by the caller for the last. The bytes are the
    /// file's, and what `User::decode` gives a second user that kept its
    /// rows.
    #[test]
    fn pipelined_fetch_equals_the_unsealed_decode() {
        const LEN: usize = 5 * 16 * 1024 + 1001;
        let network = RtNetwork::with_observability(
            asymshare_obs::Registry::new(),
            asymshare_obs::EventSink::new(),
        );
        let owner = Identity::from_seed(b"rt-pipeline");
        let (batches, manifest) = build_file(&owner, 3, LEN);
        let reference = fed_user(&owner, manifest.clone(), batches[0].clone())
            .decode()
            .unwrap();
        let (reactor, peer_addrs) = host_fleet(&network, &owner, batches, 1600, *b"pl", 1 << 30);
        let mut user = User::<Gf2p32>::new(owner, manifest).unwrap();
        let fetch = |user: &mut User<Gf2p32>, my_addr| {
            download_file(
                &network,
                my_addr,
                user,
                &peer_addrs,
                peer_addrs[0].0,
                Duration::from_secs(30),
            )
        };
        let data = fetch(&mut user, 16).expect("download completes");
        assert_eq!(data, file_bytes(LEN));
        assert_eq!(data, reference);

        let mut decoded = chunks_decoded(&network);
        decoded.sort_unstable();
        let chunks: Vec<u64> = decoded.iter().map(|&(chunk, _)| chunk).collect();
        assert_eq!(chunks, [0, 1, 2, 3, 4, 5], "each chunk decoded once");
        // The file-completing chunk is the caller's, with whatever the
        // worker had not reached by then — all six if the caller is all
        // there is.
        let inline = decoded.iter().filter(|&&(_, inline)| inline).count();
        let at_least = if asymshare_par::max_threads() > 1 {
            1
        } else {
            6
        };
        assert!(inline >= at_least, "{decoded:?}");
        // The product's own trace: every decode and the tail nest under
        // the download.
        let tree = asymshare_obs::stream::TraceTree::build(&network.events().events());
        let download = &tree.nodes()[tree.roots()[0]];
        assert_eq!(download.kind, "download");
        let kinds = |kind| {
            let children = download.children.iter();
            children.filter(|&&c| tree.nodes()[c].kind == kind).count()
        };
        assert_eq!((kinds("chunk_decoded"), kinds("decode_tail")), (6, 1));

        // The rows left with the fetch: the session still counts the
        // chunks, and neither it nor a second fetch can decode them again.
        assert_eq!(user.completed_chunks().len(), 6);
        let sealed = SystemError::Codec(CodecError::ChunkSealed { index: 0 });
        assert_eq!(user.decode(), Err(sealed.clone()));
        assert_eq!(fetch(&mut user, 15), Err(sealed));
        reactor.shutdown();
    }

    #[test]
    fn one_chunk_fetch_decodes_inline() {
        let network = RtNetwork::with_observability(
            asymshare_obs::Registry::new(),
            asymshare_obs::EventSink::new(),
        );
        let owner = Identity::from_seed(b"rt-one-chunk");
        let (batches, manifest) = build_file(&owner, 2, 16 * 1024);
        let (reactor, peer_addrs) = host_fleet(&network, &owner, batches, 1700, *b"oc", 1 << 30);
        let mut user = User::<Gf2p32>::new(owner, manifest).unwrap();
        let data = download_file(
            &network,
            17,
            &mut user,
            &peer_addrs,
            1700,
            Duration::from_secs(30),
        )
        .expect("download completes");
        assert_eq!(data, file_bytes(16 * 1024));
        assert_eq!(chunks_decoded(&network), [(0, true)], "no worker to start");
        reactor.shutdown();
    }

    /// Chunks that were complete before the fetch began never pass through
    /// its loop; it decodes what the session still holds.
    #[test]
    fn fetch_of_a_user_fed_beforehand_decodes_what_it_holds() {
        let network = RtNetwork::new();
        let owner = Identity::from_seed(b"rt-fed");
        let (batches, manifest) = build_file(&owner, 1, 40_001);
        let mut user = fed_user(&owner, manifest, batches.into_iter().next().unwrap());
        let data = download_file(&network, 18, &mut user, &[], 1800, Duration::from_secs(5))
            .expect("nothing left to receive");
        assert_eq!(data, file_bytes(40_001));
    }

    /// The peer lacks two messages of the last chunk, so the fetch times
    /// out with three chunks already sealed and handed over. The error is
    /// the timeout's, and it comes back on time: the worker was joined, not
    /// waited for.
    #[test]
    fn timed_out_fetch_joins_its_decode_worker() {
        let network = RtNetwork::new();
        let owner = Identity::from_seed(b"rt-join");
        let (batches, manifest) = build_file(&owner, 1, 64 * 1024);
        let mut stock = batches.into_iter().next().unwrap();
        stock.truncate(14);
        let (peer, key) = stocked_peer(&owner, b"rt-join-peer", stock);
        let mut reactor = Reactor::new(&network, ReactorConfig::default());
        reactor.add_peer(1900, peer, 1 << 30);
        let mut user = User::<Gf2p32>::new(owner, manifest).unwrap();
        let timeout = Duration::from_millis(600);
        let started = Instant::now();
        let err =
            download_file(&network, 19, &mut user, &[(1900, key)], 1900, timeout).unwrap_err();
        let elapsed = started.elapsed();
        assert_eq!(
            err,
            SystemError::Codec(CodecError::NotEnoughMessages { have: 14, need: 16 })
        );
        assert!(
            elapsed < timeout + Duration::from_millis(400),
            "returned after {elapsed:?}"
        );
        assert_eq!(user.completed_chunks(), [0, 1, 2]);
        assert_eq!(
            user.decode(),
            Err(SystemError::Codec(CodecError::ChunkSealed { index: 0 }))
        );
        reactor.shutdown();
    }

    /// Eight sealed chunks queued at once and `finish` called at once: the
    /// worker has a backlog when the caller seals the ragged last chunk and
    /// then shares what is left of the queue. Whichever of the two takes a
    /// chunk, it is decoded exactly once, into its own slice.
    #[test]
    fn a_shared_decode_backlog_decodes_each_chunk_once() {
        const LEN: usize = 8 * 16 * 1024 + 1001;
        let network = RtNetwork::with_observability(
            asymshare_obs::Registry::new(),
            asymshare_obs::EventSink::new(),
        );
        let owner = Identity::from_seed(b"rt-backlog");
        let (batches, manifest) = build_file(&owner, 1, LEN);
        let mut user = fed_user(&owner, manifest, batches.into_iter().next().unwrap());
        let mut out = vec![0u8; LEN];
        let events = network.events();
        std::thread::scope(|scope| {
            let mut pipeline = DecodePipeline {
                scope,
                slices: out.chunks_mut(16 * 1024).map(Some).collect(),
                worker: None,
                scratch: block::Scratch::new(),
                results: Vec::new(),
                pipelined: true,
                completed_secs: None,
                events: events.clone(),
                span: events.span("rt.download", "download"),
            };
            for chunk in 0..8 {
                let block = user.seal_chunk(chunk).expect("complete, not yet sealed");
                pipeline.submit(chunk, block, false);
            }
            pipeline.finish(&mut user)
        })
        .expect("every chunk decodes");
        assert_eq!(out, file_bytes(LEN));
        let mut chunks: Vec<u64> = chunks_decoded(&network).iter().map(|&(c, _)| c).collect();
        chunks.sort_unstable();
        assert_eq!(
            chunks,
            (0..9).collect::<Vec<u64>>(),
            "each chunk decoded once"
        );
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
        // Coalescing packs eight messages into a datagram, so the file must
        // be big and the faults heavy for every CI seed to realise them on
        // the data path: hundreds of sends, a quarter lost, a tenth
        // corrupted. The last chunk is short and its last piece cut, and
        // every chunk is sealed and decoded beside the loop while
        // replacements for the later ones are still being asked for.
        const LEN: usize = 1024 * 1024 + 1001;
        let (batches, manifest) = build_file(&owner, 3, LEN);
        let (reactor, peer_addrs) = host_fleet(&network, &owner, batches, 400, *b"ly", 4 << 20);
        network.install_faults(
            FaultPlan::new(fault_seed())
                .with_loss(0.25)
                .with_corruption(0.1),
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
        assert_eq!(data, file_bytes(LEN));
        assert_eq!(user.completed_chunks().len(), 65);
        assert_eq!(
            user.decode(),
            Err(SystemError::Codec(CodecError::ChunkSealed { index: 0 }))
        );
        let faults = network.fault_stats();
        assert!(faults.dropped > 0, "losses were actually injected");
        assert!(faults.corrupted > 0, "corruption was actually injected");
        assert!(
            user.stats().retries + user.stats().replacements > 0,
            "the ladder acted: {:?}",
            user.stats()
        );
        reactor.shutdown();
    }

    /// Downloads 1 MiB from three unshaped peers — datagrams of up to eight
    /// coded messages, hashed four at a time — while `sabotage` damages
    /// payloads in transit, and checks the books: the file is intact, each
    /// damaged message that could still reach a decoder was rejected alone
    /// and asked for again, nothing else was rejected, the health windows
    /// count no frame twice, and the feedback report debits exactly the
    /// rejected bytes.
    fn download_with_damaged_payloads(
        tag: [u8; 2],
        base: u64,
        sabotage: impl FnOnce(&RtNetwork, &[(u64, [u8; 64])]),
    ) {
        const LEN: usize = 1024 * 1024;
        let network = RtNetwork::with_observability(
            asymshare_obs::Registry::new(),
            asymshare_obs::EventSink::new(),
        );
        let owner = Identity::from_seed(&tag);
        let (batches, manifest) = build_file(&owner, 3, LEN);
        let frame_len = Wire::message_data_frame_len(&batches[0][0]) as u64;
        let (reactor, peer_addrs) = host_fleet(&network, &owner, batches, base, tag, 1 << 30);
        sabotage(&network, &peer_addrs);
        // The report goes to an address the test reads.
        let home = network.register(base + 50);
        let mut user = User::<Gf2p32>::new(owner, manifest).unwrap();
        let data = download_file(
            &network,
            base + 51,
            &mut user,
            &peer_addrs,
            base + 50,
            Duration::from_secs(60),
        )
        .expect("download heals through damaged payloads");
        assert_eq!(data, file_bytes(LEN));
        reactor.shutdown();

        let stats = user.stats();
        assert!(stats.corruptions > 0, "damage reached the digest check");
        assert!(stats.replacements > 0, "replacements were requested");
        let snapshot = network.metrics().snapshot();
        let datagrams = snapshot.histogram("rt.transport.batch_frames").unwrap();
        assert!(datagrams.sum > datagrams.count, "frames were coalesced");
        // Hashed iff it could still reach a decoder: the accepted, the
        // rejected, and replays of held ids — nothing more.
        let accepted = stats.bytes_by_peer.values().sum::<u64>() / frame_len;
        let hashed = user.hashed_count();
        assert!(
            (accepted + stats.corruptions..=accepted + stats.corruptions + stats.duplicates)
                .contains(&hashed),
            "{hashed} hashed, {accepted} accepted, {stats:?}"
        );
        // A `window` event's `msgs` are the coded frames the user took; a
        // digest reject or a duplicate is counted by its own event, so the
        // three add up to the coded frames that arrived.
        assert_eq!(network.events().dropped_events(), 0);
        let events = network.events().events();
        let count = |kind: &str| -> u64 {
            let of_kind = events
                .iter()
                .filter(|e| e.component == "rt.download" && e.kind == kind);
            of_kind
                .map(|e| match e.fields.iter().find(|(n, _)| *n == "msgs") {
                    Some((_, Value::U64(msgs))) => *msgs,
                    _ => 1,
                })
                .sum()
        };
        assert_eq!(count("digest_reject"), stats.corruptions);
        let arrived =
            user.innovative_count() + user.redundant_count() + stats.corruptions + stats.duplicates;
        assert_eq!(
            count("window") + count("digest_reject") + count("duplicate"),
            arrived,
            "{stats:?}"
        );
        // Credited iff hashed and accepted, less what was rejected.
        let report = std::iter::from_fn(|| home.try_recv())
            .find_map(|envelope| match envelope.decode() {
                Ok(Wire::Feedback(report)) => Some(report),
                _ => None,
            })
            .expect("the feedback report reached the home address");
        let debited: u64 = report
            .entries
            .iter()
            .map(|entry| stats.bytes_by_peer[&entry.contributor] - entry.bytes)
            .sum();
        assert_eq!(debited, stats.corruptions * frame_len);
    }

    #[test]
    fn corrupted_frames_in_coalesced_datagrams_are_rejected_alone() {
        download_with_damaged_payloads(*b"cz", 1400, |network, _| {
            network.install_faults(FaultPlan::new(fault_seed()).with_corruption(0.3));
        });
    }

    #[test]
    fn polluted_frames_in_coalesced_datagrams_are_rejected_alone() {
        download_with_damaged_payloads(*b"pz", 1500, |network, peers| {
            network.install_faults(FaultPlan::new(fault_seed()).with_adversary(
                NodeId::new(peers[1].0 as usize),
                AdversaryStrategy::Pollute { prob: 0.5 },
            ));
        });
    }

    /// A replacement round trip is closed by the peer that was asked, not
    /// by whichever peer next sends a message of the chunk: the health
    /// engine charges `replacement_served` RTTs to the peer it names.
    #[test]
    fn replacement_round_trips_are_charged_to_the_peer_asked() {
        let network = RtNetwork::with_observability(
            asymshare_obs::Registry::new(),
            asymshare_obs::EventSink::new(),
        );
        let owner = Identity::from_seed(b"rt-repl-owner");
        let (batches, manifest) = build_file(&owner, 3, 256 * 1024);
        let (reactor, peer_addrs) = host_fleet(&network, &owner, batches, 1100, *b"rp", 1 << 20);
        network.install_faults(FaultPlan::new(fault_seed()).with_adversary(
            NodeId::new(peer_addrs[1].0 as usize),
            AdversaryStrategy::Pollute { prob: 1.0 },
        ));
        let mut user = User::<Gf2p32>::new(owner, manifest).unwrap();
        let data = download_file(
            &network,
            11,
            &mut user,
            &peer_addrs,
            peer_addrs[0].0,
            Duration::from_secs(30),
        )
        .expect("the honest peers cover the file");
        assert_eq!(data, file_bytes(256 * 1024));
        reactor.shutdown();

        let u64_field = |event: &asymshare_obs::Event, name: &str| {
            let field = event.fields.iter().find(|(n, _)| *n == name);
            match field {
                Some((_, Value::U64(v))) => *v,
                other => panic!("{name} of {event:?}: {other:?}"),
            }
        };
        assert_eq!(network.events().dropped_events(), 0);
        let mut requested = std::collections::HashSet::new();
        let mut served = 0;
        for event in network.events().events() {
            if event.component != "rt.download" {
                continue;
            }
            let key = || (u64_field(&event, "peer"), u64_field(&event, "chunk"));
            match event.kind {
                "replacement_request" => {
                    requested.insert(key());
                }
                "replacement_served" => {
                    served += 1;
                    assert!(requested.contains(&key()), "unrequested: {event:?}");
                }
                _ => {}
            }
        }
        assert!(!requested.is_empty(), "the polluter's frames were rejected");
        assert!(
            requested.iter().all(|&(peer, _)| peer == peer_addrs[1].0),
            "only the polluter was asked: {requested:?}"
        );
        assert!(served > 0, "some round trip closed");
    }

    /// A polluter serving two users is banned by each of them on its own
    /// evidence, with observability off. The second user starts after the
    /// first has banned the peer and still receives its polluted frames
    /// until it convicts the peer itself: a ban is the banning client's
    /// stop, not a gate on the peer.
    #[test]
    fn each_user_bans_a_polluter_on_its_own_evidence() {
        const LEN: usize = 512 * 1024;
        let network = RtNetwork::new();
        let owner = Identity::from_seed(b"rt-two-users");
        let (batches, manifest) = build_file(&owner, 4, LEN);
        let mut reactor = Reactor::new(&network, ReactorConfig::default());
        let mut peers = Vec::new();
        for (i, batch) in batches.into_iter().enumerate() {
            let (peer, key) = stocked_peer(&owner, &[b't', b'u', i as u8], batch);
            let addr = 1600 + i as u64;
            // The polluter is the fastest of the four.
            reactor.add_peer(addr, peer, if i == 1 { 256 << 10 } else { 64 << 10 });
            peers.push((addr, key));
        }
        network.install_faults(
            FaultPlan::new(fault_seed())
                .with_adversary(NodeId::new(1601), AdversaryStrategy::Pollute { prob: 1.0 }),
        );
        for me in [16, 17] {
            let mut user = User::<Gf2p32>::new(owner.clone(), manifest.clone()).unwrap();
            let data = download_file(
                &network,
                me,
                &mut user,
                &peers,
                peers[0].0,
                Duration::from_secs(60),
            )
            .expect("the honest peers cover the file");
            assert_eq!(data, file_bytes(LEN));
            let stats = user.stats();
            assert_eq!(stats.quarantines, 1, "user {me}: {stats:?}");
            assert!(stats.corruptions >= 8, "user {me}: {stats:?}");
        }
        reactor.shutdown();
    }

    #[test]
    fn download_survives_peer_churn_with_reassignment() {
        let network = RtNetwork::new();
        let owner = Identity::from_seed(b"rt-churn");
        // Must dwarf the hosts' aggregate token-bucket burst (5 × 64 KB)
        // so the kill lands while serving is still rate-limited.
        let (mut batches, manifest) = build_file(&owner, 5, 640 * 1024);
        // Slow uplinks so the kill lands mid-download. The two doomed peers
        // live on a reactor of their own: shutting it down unregisters
        // their addresses, which is what a peer leaving looks like.
        let survivors = batches.split_off(2);
        let (doomed, mut peer_addrs) =
            host_fleet(&network, &owner, batches, 500, *b"cd", 96 * 1024);
        let (reactor, survivor_addrs) =
            host_fleet(&network, &owner, survivors, 502, *b"ch", 96 * 1024);
        peer_addrs.extend(survivor_addrs);
        // Kill 2 of the 5 peers shortly after the download starts.
        let killer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(150));
            doomed.shutdown();
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
        assert_eq!(data, file_bytes(640 * 1024));
        assert!(
            user.stats().reassignments >= 1,
            "dead peers' demand was re-planned: {:?}",
            user.stats()
        );
        reactor.shutdown();
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
        let (reactor, key) = host_partial_peer(&network, &owner, batches, 700, b"rt-partial2");
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
        reactor.shutdown();
    }

    /// The benchmark's finding at short stall timeouts: the acceptance of
    /// the first handshake is still queued when the ladder re-runs the
    /// handshake, and then arrives. The scripted peer below holds it back
    /// until it sees the second commit, so the order is forced, not timed.
    #[test]
    fn stale_handshake_reply_does_not_fail_the_fetch() {
        let network = RtNetwork::with_observability(
            asymshare_obs::Registry::new(),
            asymshare_obs::EventSink::new(),
        );
        let owner = Identity::from_seed(b"rt-stale");
        let (batches, manifest) = build_file(&owner, 1, 32 * 1024);
        let (mut peer, key) = stocked_peer(&owner, b"rt-stale-peer", batches.into_iter().flatten());
        let inbox = network.register(800);
        let net = network.clone();
        let scripted = std::thread::spawn(move || {
            let mut rng = ChaChaRng::new([0x51; 32], *b"stale-peer!!");
            let mut held: Option<Wire> = None;
            let mut commits = 0;
            while let Some(envelope) = inbox.recv_timeout(Duration::from_secs(10)) {
                let wire = envelope.decode().expect("one control frame");
                if matches!(wire, Wire::Feedback(_)) {
                    break;
                }
                // It serves all it has at once: its window is not under test.
                if matches!(wire, Wire::Ack { .. }) {
                    continue;
                }
                if matches!(wire, Wire::AuthCommit { .. }) {
                    commits += 1;
                    if let Some(stale) = held.take() {
                        net.send(800, envelope.from, &stale);
                    }
                }
                for reply in peer.on_message(envelope.from, wire, &mut rng).unwrap() {
                    if commits == 1 && matches!(reply, Wire::AuthResult { .. }) {
                        held = Some(reply);
                    } else {
                        net.send(800, envelope.from, &reply);
                    }
                }
                while let Some(msg) = peer.next_message(envelope.from) {
                    net.send(800, envelope.from, &Wire::MessageData(msg));
                }
            }
            commits
        });
        let mut user = User::<Gf2p32>::new(owner, manifest).unwrap();
        let data = download_file_with(
            &network,
            9,
            &mut user,
            &[(800, key)],
            800,
            DownloadOptions {
                timeout: Duration::from_secs(30),
                stall_timeout: Duration::from_millis(100),
                retry_backoff: Duration::from_millis(50),
                max_peer_retries: 3,
            },
        )
        .expect("the stale acceptance costs a retry, not the fetch");
        assert_eq!(data, file_bytes(32 * 1024));
        assert_eq!(scripted.join().unwrap(), 2, "the handshake ran twice");
        assert_eq!(user.stats().retries, 1, "{:?}", user.stats());
        assert!(network
            .events()
            .events()
            .iter()
            .any(|e| e.component == "rt.heal" && e.kind == "handshake_error"));
    }

    #[test]
    fn unauthorized_user_is_refused_by_all() {
        let network = RtNetwork::new();
        let owner = Identity::from_seed(b"rt-owner3");
        let stranger = Identity::from_seed(b"rt-stranger");
        let (batches, manifest) = build_file(&owner, 1, 16 * 1024);
        // The peer subscribes the owner, not the stranger.
        let (reactor, peer_addrs) = host_fleet(&network, &owner, batches, 300, *b"st", 1 << 20);
        let mut user = User::<Gf2p32>::new(stranger, manifest).unwrap();
        let err = download_file(
            &network,
            3,
            &mut user,
            &peer_addrs,
            300,
            Duration::from_secs(5),
        )
        .unwrap_err();
        assert!(matches!(err, SystemError::AuthenticationRejected { .. }));
        reactor.shutdown();
    }

    /// A fetch draws its nonces fresh. One commitment answered with two
    /// challenges gives the key away (`x = (s₁ − s₂)/(c₁ − c₂)`), so two
    /// fetches by one user, to an address that never answers, send no
    /// commitment twice, the re-handshakes' included.
    #[test]
    fn fetches_never_repeat_a_commitment() {
        let network = RtNetwork::new();
        let owner = Identity::from_seed(b"rt-nonces");
        let (_, manifest) = build_file(&owner, 1, 16 * 1024);
        let passive = network.register(900);
        let key = Identity::from_seed(b"rt-nonces-peer")
            .public_key()
            .to_bytes();
        let mut user = User::<Gf2p32>::new(owner, manifest).unwrap();
        let options = DownloadOptions {
            timeout: Duration::from_millis(400),
            stall_timeout: Duration::from_millis(50),
            retry_backoff: Duration::from_millis(10),
            max_peer_retries: 2,
        };
        let mut commitments = Vec::new();
        for fetch in 0..2 {
            let result =
                download_file_with(&network, 9, &mut user, &[(900, key)], 900, options.clone());
            assert!(result.is_err(), "nobody answered");
            let before = commitments.len();
            while let Some(envelope) = passive.try_recv() {
                if let Ok(Wire::AuthCommit { commitment, .. }) = envelope.decode() {
                    commitments.push(commitment);
                }
            }
            assert!(
                commitments.len() >= before + 2,
                "fetch {fetch} re-ran its handshake"
            );
        }
        let distinct: std::collections::HashSet<_> = commitments.iter().collect();
        assert_eq!(
            distinct.len(),
            commitments.len(),
            "a commitment was sent twice"
        );
    }
}
