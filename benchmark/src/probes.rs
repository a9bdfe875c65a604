//! Replay probes: coded messages of the workload's own file are pushed,
//! single-threaded, through one layer's public functions at a time, so each
//! layer gets a number that nothing else on the download path shares.
//!
//! Every probe repeats its batch a few times and reports the median, so
//! one scheduler hiccup on a shared box does not become the number.

use crate::stats::median;
use crate::sys;
use crate::world::{self, K};
use asymshare::rt::RtNetwork;
use asymshare::{Identity, Peer, Prover, User, Verifier, Wire};
use asymshare_alloc::{
    allocate_into, AllocScratch, AllocationInputs, ContributionLedger, RuleKind,
};
use asymshare_crypto::chacha20::ChaChaRng;
use asymshare_crypto::schnorr;
use asymshare_gf::{Field, FieldKind, Gf2p32};
use asymshare_rlnc::{
    BlockDecoder, ChunkedDecoder, ChunkedEncoder, DigestKind, EncodedMessage, FileId, FileManifest,
    MessageDigest, RowGenerator,
};
use std::hint::black_box;
use std::time::Instant;

const REPS: usize = 5;

/// Median seconds of `REPS` runs of `f` (after one discarded run).
fn time_median(mut f: impl FnMut()) -> f64 {
    f();
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// `par`'s contribution, measured by running the same encode and decode
/// under `ASYMSHARE_THREADS=1` and under the default.
#[derive(Debug, Clone, Copy)]
pub struct ParProbe {
    pub threads: usize,
    pub encode_speedup: f64,
    pub decode_speedup: f64,
}

/// Must run before the process spawns any thread: it sets and removes an
/// environment variable, which is only sound while single-threaded.
pub fn par_probe(seed: u64) -> ParProbe {
    const FILE: usize = 8 << 20;
    const CHUNK: usize = 1 << 20;
    let owner = world::identity(seed, "par-probe");
    let data = world::generate(seed, 3, FILE);
    let encode_and_decode = || -> (f64, f64) {
        let mut encoded = None;
        let encode = time_median(|| {
            let mut encoder = ChunkedEncoder::<Gf2p32>::with_chunk_size(
                FieldKind::Gf2p32,
                K,
                DigestKind::Md5,
                owner.coding_secret().clone(),
                FileId(3),
                &data,
                CHUNK,
            )
            .expect("probe encoder");
            let batches = encoder.encode_for_peers(2).expect("probe batches");
            encoded = Some((encoder.manifest().clone(), batches));
        });
        let (manifest, batches) = encoded.expect("the encode probe ran");
        let mut decoder = ChunkedDecoder::<Gf2p32>::new(manifest, owner.coding_secret().clone())
            .expect("probe decoder");
        for message in &batches[0] {
            decoder.add_message(message.clone()).expect("probe message");
        }
        let decode = time_median(|| {
            black_box(decoder.decode().expect("probe decode"));
        });
        (encode, decode)
    };
    std::env::set_var(asymshare_par::THREADS_ENV, "1");
    let (encode_one, decode_one) = encode_and_decode();
    std::env::remove_var(asymshare_par::THREADS_ENV);
    let (encode_all, decode_all) = encode_and_decode();
    ParProbe {
        threads: asymshare_par::max_threads(),
        encode_speedup: encode_one / encode_all,
        decode_speedup: decode_one / decode_all,
    }
}

/// What the replay probes measured (units in the field names).
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerProbes {
    pub gf_axpy_mbps: f64,
    pub md5_mbps: f64,
    pub handshake_us: f64,
    pub coeff_row_ns: f64,
    pub verify_ms_per_op: f64,
    pub add_message_ns: f64,
    pub decode_mbps: f64,
    pub decode_ms_per_op: f64,
    pub connect_us: f64,
    pub wire_encode_ns: f64,
    pub wire_decode_ns: f64,
    pub next_message_ns: f64,
    pub store_insert_ns: f64,
    pub transport_frame_ns: f64,
    pub transport_allocs_per_frame: f64,
    pub allocate_into_ns_n2: f64,
    pub allocate_into_ns_n64: f64,
}

/// Runs every replay probe over the first `chunks` chunks of the file.
/// `received` is what one fetch took in of them (redundant messages
/// included); `batch` is one peer's full stock of them.
pub fn layer_probes(
    owner: &Identity,
    manifest: &FileManifest,
    chunks: u32,
    received: &[EncodedMessage],
    batch: &[EncodedMessage],
) -> LayerProbes {
    let payload_bytes: usize = received.iter().map(|m| m.payload().len()).sum();
    let mut out = LayerProbes {
        gf_axpy_mbps: gf_axpy_mbps(),
        handshake_us: handshake_us(owner),
        connect_us: connect_us(owner, manifest),
        allocate_into_ns_n2: allocate_into_ns(2),
        allocate_into_ns_n64: allocate_into_ns(64),
        ..LayerProbes::default()
    };

    // crypto: the digest alone, over every received message.
    let secs = time_median(|| {
        for message in received {
            black_box(MessageDigest::compute(DigestKind::Md5, message));
        }
    });
    out.md5_mbps = payload_bytes as f64 / 1e6 / secs;

    // crypto: one keyed coefficient row per received message.
    let rows = RowGenerator::<Gf2p32>::new(owner.coding_secret().clone(), manifest.file_id(), K);
    let mut row = Vec::with_capacity(K);
    let secs = time_median(|| {
        for message in received {
            row.clear();
            rows.row_into(message.message_id(), &mut row);
            black_box(&row);
        }
    });
    out.coeff_row_ns = secs * 1e9 / received.len() as f64;

    // rlnc: digest lookup + compare, as the decoder does per message.
    let secs = time_median(|| {
        for message in received {
            black_box(manifest.auth().verify(message).is_ok());
        }
    });
    out.verify_ms_per_op = secs * 1e3;

    // rlnc: row + rank check + symbol copy, then the final inversion and
    // payload combination — chunk by chunk on this thread, no `par`.
    let fresh_decoders = || -> Vec<BlockDecoder<Gf2p32>> {
        (0..chunks)
            .map(|c| {
                BlockDecoder::new(
                    manifest.chunk_params(c).expect("chunk params"),
                    owner.coding_secret().clone(),
                    manifest.file_id(),
                    manifest.chunk_len(c).expect("chunk length"),
                )
            })
            .collect()
    };
    let mut fed = fresh_decoders();
    let mut add_samples = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let mut decoders = fresh_decoders();
        let t = Instant::now();
        for message in received {
            let chunk = FileManifest::chunk_of(message.message_id()) as usize;
            black_box(decoders[chunk].add_message(message.clone()).ok());
        }
        add_samples.push(t.elapsed().as_secs_f64());
        fed = decoders;
    }
    out.add_message_ns = median(&add_samples) * 1e9 / received.len() as f64;
    if fed.iter().all(BlockDecoder::is_complete) {
        let secs = time_median(|| {
            for decoder in &fed {
                black_box(decoder.decode().expect("probe decode"));
            }
        });
        let plaintext: usize = (0..chunks)
            .map(|c| manifest.chunk_len(c).expect("chunk length"))
            .sum();
        out.decode_mbps = plaintext as f64 / 1e6 / secs;
        out.decode_ms_per_op = secs * 1e3;
    }

    // core::wire: frame assembly into a warm buffer, and zero-copy parse.
    let mut buf = Vec::with_capacity(received.first().map_or(0, |m| m.wire_len() + 5));
    let frames: Vec<Wire> = received.iter().cloned().map(Wire::MessageData).collect();
    let secs = time_median(|| {
        for frame in &frames {
            buf.clear();
            frame.encode_into(&mut buf);
            black_box(&buf);
        }
    });
    out.wire_encode_ns = secs * 1e9 / frames.len() as f64;
    let encoded: Vec<_> = frames.iter().map(Wire::encode).collect();
    let secs = time_median(|| {
        for bytes in &encoded {
            black_box(Wire::decode_shared(bytes, 0).is_ok());
        }
    });
    out.wire_decode_ns = secs * 1e9 / encoded.len() as f64;

    out.next_message_ns = next_message_ns(owner, manifest.file_id(), batch);

    // core::store: a fresh store taking one peer's batch.
    let secs = time_median(|| {
        let mut peer = Peer::new(owner.clone(), 0.0);
        for message in batch {
            black_box(peer.store_mut().insert(message.clone()));
        }
    });
    out.store_insert_ns = secs * 1e9 / batch.len() as f64;

    let (frame_ns, allocs) = transport_frame(&frames);
    out.transport_frame_ns = frame_ns;
    out.transport_allocs_per_frame = allocs;
    out
}

/// The roofline: `Gf2p32::axpy_slice` over 128 KiB slabs, MB of input
/// slab per second.
fn gf_axpy_mbps() -> f64 {
    const SYMBOLS: usize = 32 * 1024; // 128 KiB of 4-byte symbols
    const CALLS: usize = 64;
    let x: Vec<Gf2p32> = (0..SYMBOLS)
        .map(|i| Gf2p32::from_u64(i as u64 * 2_654_435_761 + 1))
        .collect();
    let mut y = vec![Gf2p32::ZERO; SYMBOLS];
    let secs = time_median(|| {
        for call in 0..CALLS {
            let c = Gf2p32::from_u64(0x9E37_79B9 + call as u64);
            Gf2p32::axpy_slice(black_box(c), &x, &mut y);
        }
        black_box(&y);
    });
    (SYMBOLS * 4 * CALLS) as f64 / 1e6 / secs
}

/// One Schnorr identification plus the mutual-authentication ack:
/// `Prover::start` → `Verifier::on_commit` → `Prover::on_challenge` →
/// `Verifier::on_response`, then the peer signs and the user verifies.
fn handshake_us(owner: &Identity) -> f64 {
    const ROUNDS: usize = 8;
    let peer = world::identity(0, "handshake-probe-peer");
    let mut rng = ChaChaRng::new([0x48; 32], *b"probe-hshake");
    let secs = time_median(|| {
        for _ in 0..ROUNDS {
            let mut prover = Prover::new(owner.auth_keys().clone());
            let mut verifier = Verifier::new();
            let commit = prover.start(&mut rng);
            let challenge = verifier.on_commit(&commit, &mut rng).expect("commit");
            let response = prover.on_challenge(&challenge).expect("challenge");
            let who = verifier.on_response(&response).expect("response");
            // The product signs a 33-byte transcript of the response.
            let transcript = [0x5Au8; 33];
            let ack = peer.auth_keys().sign(&transcript, &mut rng);
            black_box(schnorr::verify(&peer.public_key(), &transcript, &ack));
            black_box(who);
        }
    });
    secs * 1e6 / ROUNDS as f64
}

/// `User::connect`: a fresh prover and its commitment.
fn connect_us(owner: &Identity, manifest: &FileManifest) -> f64 {
    const CONNS: u64 = 16;
    let mut user = User::<Gf2p32>::new(owner.clone(), manifest.clone()).expect("probe user");
    let mut rng = ChaChaRng::new([0x43; 32], *b"probe-conn!!");
    let key = owner.public_key().to_bytes();
    let secs = time_median(|| {
        for conn in 0..CONNS {
            black_box(user.connect(conn, key, &mut rng));
        }
    });
    secs * 1e6 / CONNS as f64
}

/// `Peer::next_message` draining a full sweep of `batch` on one
/// authenticated connection.
fn next_message_ns(owner: &Identity, file: FileId, batch: &[EncodedMessage]) -> f64 {
    let mut rng = ChaChaRng::new([0x4E; 32], *b"probe-nextms");
    let mut peer = Peer::new(world::identity(0, "next-message-probe-peer"), 0.0);
    peer.add_subscriber(owner.public_key().to_bytes());
    for message in batch {
        peer.store_mut().insert(message.clone());
    }
    let conn = 1;
    let mut prover = Prover::new(owner.auth_keys().clone());
    let commit = prover.start(&mut rng);
    let challenge = peer
        .on_message(conn, commit, &mut rng)
        .expect("commit")
        .remove(0);
    let response = prover.on_challenge(&challenge).expect("challenge");
    peer.on_message(conn, response, &mut rng).expect("response");
    let mut samples = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        // Each request restarts the sweep; planning it is not timed.
        peer.on_message(conn, Wire::FileRequest { file_id: file.0 }, &mut rng)
            .expect("file request");
        let t = Instant::now();
        let mut served = 0usize;
        while let Some(message) = peer.next_message(conn) {
            black_box(message);
            served += 1;
        }
        samples.push(t.elapsed().as_secs_f64() / served.max(1) as f64);
    }
    median(&samples) * 1e9
}

/// One datagram of up to eight frames through the transport and back:
/// `send_frames` → `try_recv` → `decode_all` → `recycle_envelope`, with the
/// allocation calls this thread made counted by the global allocator.
fn transport_frame(frames: &[Wire]) -> (f64, f64) {
    const DATAGRAMS: usize = 256;
    let network = RtNetwork::new();
    let inbox = network.register(1);
    let batch = &frames[..frames.len().min(8)];
    let mut allocs = 0u64;
    let secs = time_median(|| {
        let before = sys::thread_allocs();
        for _ in 0..DATAGRAMS {
            network.send_frames(2, 1, batch);
            let envelope = inbox.try_recv().expect("datagram delivered");
            for frame in envelope.decode_all() {
                black_box(frame.is_ok());
            }
            network.recycle_envelope(envelope);
        }
        allocs = sys::thread_allocs() - before;
    });
    let sent = (DATAGRAMS * batch.len()) as f64;
    (secs * 1e9 / sent, allocs as f64 / sent)
}

/// `rules::allocate_into` with a warm `AllocScratch`: one Eq.-2 split of
/// one peer's capacity among `n` users, all requesting.
fn allocate_into_ns(n: usize) -> f64 {
    const CALLS: usize = 4096;
    let mut ledger = ContributionLedger::new(n, 1.0);
    for j in 1..n {
        ledger.credit(j, 0, (j * 1000) as f64);
    }
    let requesting = vec![true; n];
    let declared = vec![1.0; n];
    let inputs = AllocationInputs {
        allocator: 0,
        capacity: 1000.0,
        requesting: &requesting,
        declared: &declared,
        ledger: &ledger,
    };
    let mut scratch = AllocScratch::new();
    let mut out = vec![0.0; n];
    let secs = time_median(|| {
        for _ in 0..CALLS {
            black_box(allocate_into(
                RuleKind::PeerWise,
                black_box(&inputs),
                &mut scratch,
                &mut out,
            ));
        }
    });
    secs * 1e9 / CALLS as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_produce_positive_numbers_on_a_small_file() {
        let owner = world::identity(1, "probe-test");
        let data = world::generate(1, 1, 96 * 1024);
        let published = world::publish(
            &owner,
            1,
            &data,
            32 * 1024,
            &world::peer_identities(1),
            None,
        )
        .expect("publish");
        let batch = published.peers[0].store().messages(FileId(1)).to_vec();
        let chunks = published.manifest.chunk_count();
        let p = layer_probes(&owner, &published.manifest, chunks, &batch, &batch);
        for (name, value) in [
            ("gf_axpy_mbps", p.gf_axpy_mbps),
            ("md5_mbps", p.md5_mbps),
            ("handshake_us", p.handshake_us),
            ("coeff_row_ns", p.coeff_row_ns),
            ("verify_ms_per_op", p.verify_ms_per_op),
            ("add_message_ns", p.add_message_ns),
            ("decode_mbps", p.decode_mbps),
            ("connect_us", p.connect_us),
            ("wire_encode_ns", p.wire_encode_ns),
            ("wire_decode_ns", p.wire_decode_ns),
            ("next_message_ns", p.next_message_ns),
            ("store_insert_ns", p.store_insert_ns),
            ("transport_frame_ns", p.transport_frame_ns),
            ("allocate_into_ns_n2", p.allocate_into_ns_n2),
            ("allocate_into_ns_n64", p.allocate_into_ns_n64),
        ] {
            assert!(value > 0.0 && value.is_finite(), "{name} = {value}");
        }
    }
}
