//! One op of each kind, timed and checked: the product's own fetch
//! (`download_file_with`), the staged fetch the traced run uses to see
//! inside it, and one publish.

use crate::world::{self, Hosted, Owned, World, OP_TIMEOUT};
use asymshare::rt::{download_file_with, DownloadOptions};
use asymshare::{SystemError, User, Wire};
use asymshare_crypto::chacha20::ChaChaRng;
use asymshare_gf::Gf2p32;
use asymshare_obs::Span;
use asymshare_rlnc::{ChunkedDecoder, CodecError, EncodedMessage, FileId};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// The recovery actions of one fetch, copied out of its `SessionStats`
/// (which also holds a per-peer map: too heavy to keep for thousands of
/// ops without the harness's own memory showing up in `peak_rss_mib`).
#[derive(Debug, Clone, Copy, Default)]
pub struct Heal {
    pub retries: u64,
    pub replacements: u64,
    pub reassignments: u64,
    pub digest_rejects: u64,
    pub backoff_wait_us: u64,
}

/// What one op did.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The op returned the original bytes (fetch) or filled four stores
    /// (publish) within its timeout.
    pub ok: bool,
    /// The op returned bytes that differ from the original — never
    /// acceptable, unlike a timeout on a lossy link.
    pub wrong_bytes: bool,
    pub started: Instant,
    pub elapsed: Duration,
    /// Verified plaintext bytes delivered (0 when failed).
    pub bytes: u64,
    pub error: Option<String>,
    pub heal: Heal,
    pub innovative: u64,
    pub redundant: u64,
}

impl Outcome {
    fn new(started: Instant) -> Outcome {
        Outcome {
            ok: false,
            wrong_bytes: false,
            started,
            elapsed: Duration::ZERO,
            bytes: 0,
            error: None,
            heal: Heal::default(),
            innovative: 0,
            redundant: 0,
        }
    }

    /// Closes the op: compares what it produced with `expected` (under a
    /// `client.verify` span when traced) and stamps the elapsed time.
    fn finish(
        mut self,
        result: Result<Vec<u8>, String>,
        expected: &[u8],
        user: &User<Gf2p32>,
        op: Option<&Span>,
    ) -> Outcome {
        match result {
            Ok(bytes) => {
                let span = op.map(|s| s.child("client.verify"));
                let equal = bytes == expected;
                drop(span);
                self.elapsed = self.started.elapsed();
                if equal && self.elapsed <= OP_TIMEOUT {
                    self.ok = true;
                    self.bytes = bytes.len() as u64;
                } else if equal {
                    self.error = Some("slower than the op timeout".to_owned());
                } else {
                    self.wrong_bytes = true;
                    self.error = Some("fetched bytes differ from the original".to_owned());
                }
            }
            Err(e) => {
                self.elapsed = self.started.elapsed();
                self.error = Some(e);
            }
        }
        let stats = user.stats();
        self.heal = Heal {
            retries: stats.retries,
            replacements: stats.replacements,
            reassignments: stats.reassignments,
            digest_rejects: stats.corruptions,
            backoff_wait_us: stats.backoff_wait_us,
        };
        self.innovative = user.innovative_count();
        self.redundant = user.redundant_count();
        self
    }
}

/// The product's fetch: `download_file_with` call → bytes equal to
/// `expected`. With `op` set the call runs under a `core.download` span.
pub fn product_fetch(
    hosted: &Hosted,
    file: &Owned,
    expected: &[u8],
    addr: u64,
    options: DownloadOptions,
    op: Option<&Span>,
) -> Outcome {
    let mut user =
        User::<Gf2p32>::new(file.owner.clone(), file.manifest.clone()).expect("user session");
    let outcome = Outcome::new(Instant::now());
    let span = op.map(|s| s.child("core.download"));
    let result = download_file_with(
        &hosted.network,
        addr,
        &mut user,
        &hosted.peers,
        hosted.peers[0].0,
        options,
    )
    .map_err(|e| e.to_string());
    drop(span);
    let outcome = outcome.finish(result, expected, &user, op);
    hosted.network.unregister(addr);
    outcome
}

/// The client loop of `download_file_with` rewritten from the product's
/// public pieces, one child span of `op` per call into a layer. It does
/// not heal (no stall detection, no replacement requests), so it only runs
/// on clean links. `capture` collects every coded message received, for
/// the replay probes.
pub fn staged_fetch(
    hosted: &Hosted,
    file: &Owned,
    expected: &[u8],
    addr: u64,
    op: &Span,
    mut capture: Option<&mut Vec<EncodedMessage>>,
) -> Outcome {
    let network = &hosted.network;
    let mut user =
        User::<Gf2p32>::new(file.owner.clone(), file.manifest.clone()).expect("user session");
    let outcome = Outcome::new(Instant::now());
    let inbox = network.register(addr);
    let mut rng = ChaChaRng::new([0x5D; 32], *b"rt-download!");
    let deadline = outcome.started + OP_TIMEOUT;

    let result = (|| -> Result<Vec<u8>, String> {
        {
            let _span = op.child("core.user.connect");
            for &(peer, key) in &hosted.peers {
                let commit = user.connect(peer, key, &mut rng);
                if !network.send(addr, peer, &commit) {
                    return Err(format!("peer {peer} is not hosted"));
                }
            }
        }
        while !user.is_complete() {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err("staged fetch timed out".to_owned());
            }
            let envelope = {
                let _span = op.child("rt.recv_wait");
                inbox.recv_timeout(remaining.min(Duration::from_millis(50)))
            };
            let Some(envelope) = envelope else { continue };
            let frames = {
                let _span = op.child("core.wire.decode");
                envelope
                    .decode_all()
                    .collect::<Result<Vec<Wire>, SystemError>>()
                    .map_err(|e| e.to_string())?
            };
            let mut replies = Vec::new();
            {
                let _span = op.child("core.user.on_message");
                for wire in frames {
                    if let (Some(sink), Wire::MessageData(msg)) = (capture.as_deref_mut(), &wire) {
                        sink.push(msg.clone());
                    }
                    match user.on_message(envelope.from, wire, &mut rng) {
                        Ok(out) => replies.extend(out),
                        // A peer restarting its sweep re-sends; harmless.
                        Err(SystemError::Codec(CodecError::DuplicateMessage { .. })) => {}
                        Err(e) => return Err(e.to_string()),
                    }
                }
            }
            {
                // Replies, chunk stops and the final stop, plus handing
                // the datagram's buffer back to the pool.
                let _span = op.child("rt.send");
                for (conn, reply) in &replies {
                    network.send(addr, *conn, reply);
                }
                network.recycle_envelope(envelope);
            }
        }
        {
            let _span = op.child("core.user.feedback");
            let window_end = SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map_or(0, |d| d.as_micros() as u64);
            let report = user.make_feedback(window_end, &mut rng);
            network.send(addr, hosted.peers[0].0, &Wire::Feedback(report));
        }
        let _span = op.child("rlnc.decode");
        user.decode().map_err(|e| e.to_string())
    })();

    let outcome = outcome.finish(result, expected, &user, Some(op));
    drop(inbox);
    network.unregister(addr);
    outcome
}

/// One publish op: encoder construction → last store insert. Returns the
/// filled stores too, so the caller can decode from one of them.
pub fn publish_op(world: &World, op: Option<&Span>) -> (Outcome, Option<world::Published>) {
    let mut outcome = Outcome::new(Instant::now());
    let result = world::publish(
        &world.owner,
        1,
        &world.data,
        world.spec.chunk_bytes,
        &world.peer_ids,
        op,
    );
    outcome.elapsed = outcome.started.elapsed();
    match result {
        Ok(published) if outcome.elapsed <= OP_TIMEOUT => {
            outcome.ok = true;
            outcome.bytes = world.data.len() as u64;
            (outcome, Some(published))
        }
        Ok(_) => {
            outcome.error = Some("slower than the op timeout".to_owned());
            (outcome, None)
        }
        Err(e) => {
            outcome.error = Some(e);
            (outcome, None)
        }
    }
}

/// The publish correctness check: decode the file from peer 0's store
/// alone and compare it with what was published.
pub fn published_decodes(world: &World, published: &world::Published) -> bool {
    let Ok(mut decoder) = ChunkedDecoder::<Gf2p32>::new(
        published.manifest.clone(),
        world.owner.coding_secret().clone(),
    ) else {
        return false;
    };
    for message in published.peers[0].store().messages(FileId(1)) {
        if decoder.add_message(message.clone()).is_err() {
            return false;
        }
    }
    decoder.decode().is_ok_and(|bytes| bytes == world.data)
}
