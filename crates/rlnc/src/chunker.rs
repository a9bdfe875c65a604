//! The 1 MB chunk pipeline (§III-D).
//!
//! Large files are split into 1 MB chunks, each encoded as an independent
//! coding block. This bounds `k` (decoding cost is `O(mk²)`), keeps the
//! fairness quantization error small, and lets audio/video be *streamed*:
//! the user decodes and plays chunk 0 while later chunks download.
//!
//! Message-ids are structured: the high 32 bits carry the chunk index, the
//! low 32 bits the per-chunk candidate id, so every chunk draws distinct
//! coefficient rows from the secret-keyed PRNG.

use crate::auth::{AuthManifest, DigestKind, MessageDigest};
use crate::decoder::{BlockDecoder, SealedBlock};
use crate::encoder::Encoder;
use crate::error::CodecError;
use crate::message::{EncodedMessage, FileId, MessageId};
use crate::params::CodingParams;
use asymshare_crypto::rng::SecretKey;
use asymshare_gf::{block, Field, FieldKind};

/// The standard chunk size: 1 MB.
pub const CHUNK_SIZE: usize = crate::params::MEGABYTE;

/// Largest `k` a manifest parsed from the wire may declare. Table I tops
/// out at 256; 65536 leaves generous headroom while keeping the per-chunk
/// decoder matrix (`O(k²)`) bounded against adversarial headers.
const MAX_WIRE_K: usize = 1 << 16;

/// Largest chunk size a manifest parsed from the wire may declare (4 MiB,
/// four times the paper's chunk): chunk decoders and symbol buffers are
/// sized from it before any message arrives.
const MAX_WIRE_CHUNK_SIZE: usize = 4 << 20;

/// Everything a downloader needs to fetch and decode a chunked file —
/// except the secret key, which travels separately (it *is* the privacy).
///
/// This is the "additional information about how such 1 MB files fit
/// together" plus the digest list the user "needs to carry" when the owning
/// peer is offline (§III-C, §III-D).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileManifest {
    file_id: FileId,
    total_len: usize,
    chunk_size: usize,
    field: FieldKind,
    k: usize,
    auth: AuthManifest,
}

impl FileManifest {
    /// The file id.
    pub fn file_id(&self) -> FileId {
        self.file_id
    }

    /// Total plaintext length in bytes.
    pub fn total_len(&self) -> usize {
        self.total_len
    }

    /// The chunk size this file was encoded at, in bytes. Carried by the
    /// manifest wire format, so the downloader needs no negotiation: it
    /// decodes at whatever size the owner encoded.
    pub fn chunk_size(&self) -> usize {
        self.chunk_size
    }

    /// Number of chunks. An empty file has zero chunks — there is no
    /// degenerate phantom chunk whose length would compute to zero.
    pub fn chunk_count(&self) -> u32 {
        self.total_len.div_ceil(self.chunk_size) as u32
    }

    /// Plaintext length of chunk `index`: full `chunk_size` for every chunk
    /// except a shorter final tail when `total_len` is not an exact
    /// multiple. Exact-multiple files get `chunk_size` for the last chunk
    /// too (never the degenerate `total_len % chunk_size == 0`).
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::ChunkOutOfRange`] for an invalid index (every
    /// index, for an empty file).
    pub fn chunk_len(&self, index: u32) -> Result<usize, CodecError> {
        let count = self.chunk_count();
        if index >= count {
            return Err(CodecError::ChunkOutOfRange { index, count });
        }
        let start = index as usize * self.chunk_size;
        Ok((self.total_len - start).min(self.chunk_size))
    }

    /// Coding parameters of chunk `index` (derived, not stored: both sides
    /// compute them identically from the manifest fields).
    ///
    /// # Errors
    ///
    /// Propagates [`CodecError::ChunkOutOfRange`] / parameter errors.
    pub fn chunk_params(&self, index: u32) -> Result<CodingParams, CodecError> {
        CodingParams::for_data_len(self.field, self.k, self.chunk_len(index)?)
    }

    /// Messages needed to decode the full file (`k` per chunk).
    pub fn messages_needed(&self) -> usize {
        self.k * self.chunk_count() as usize
    }

    /// The digest list.
    pub fn auth(&self) -> &AuthManifest {
        &self.auth
    }

    /// Serializes the full manifest (metadata + digest list) — everything a
    /// downloader needs besides the secret key.
    pub fn to_bytes(&self) -> Vec<u8> {
        let auth = self.auth.to_bytes();
        let mut out = Vec::with_capacity(8 + 8 + 8 + 1 + 8 + 8 + auth.len());
        out.extend_from_slice(b"ASYMSHR1"); // format magic + version
        out.extend_from_slice(&self.file_id.0.to_le_bytes());
        out.extend_from_slice(&(self.total_len as u64).to_le_bytes());
        out.extend_from_slice(&(self.chunk_size as u64).to_le_bytes());
        out.push(match self.field {
            FieldKind::Gf16 => 4,
            FieldKind::Gf256 => 8,
            FieldKind::Gf65536 => 16,
            FieldKind::Gf2p32 => 32,
        });
        out.extend_from_slice(&(self.k as u64).to_le_bytes());
        out.extend_from_slice(&(auth.len() as u64).to_le_bytes());
        out.extend_from_slice(&auth);
        out
    }

    /// Parses a manifest serialized by [`to_bytes`](Self::to_bytes).
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Malformed`] on bad magic, truncation, or
    /// invalid fields.
    pub fn from_bytes(buf: &[u8]) -> Result<Self, CodecError> {
        fn take<'a>(buf: &mut &'a [u8], n: usize, what: &str) -> Result<&'a [u8], CodecError> {
            if buf.len() < n {
                return Err(CodecError::Malformed {
                    reason: format!("truncated file manifest: {what}"),
                });
            }
            let (head, tail) = buf.split_at(n);
            *buf = tail;
            Ok(head)
        }
        fn u64_of(raw: &[u8]) -> u64 {
            u64::from_le_bytes(raw.try_into().expect("8 bytes"))
        }
        let mut buf = buf;
        if take(&mut buf, 8, "magic")? != b"ASYMSHR1" {
            return Err(CodecError::Malformed {
                reason: "bad manifest magic".to_owned(),
            });
        }
        let file_id = FileId(u64_of(take(&mut buf, 8, "file id")?));
        let total_len = u64_of(take(&mut buf, 8, "total length")?) as usize;
        let chunk_size = u64_of(take(&mut buf, 8, "chunk size")?) as usize;
        let field = match take(&mut buf, 1, "field")?[0] {
            4 => FieldKind::Gf16,
            8 => FieldKind::Gf256,
            16 => FieldKind::Gf65536,
            32 => FieldKind::Gf2p32,
            other => {
                return Err(CodecError::Malformed {
                    reason: format!("unknown field width {other}"),
                })
            }
        };
        let k = u64_of(take(&mut buf, 8, "k")?) as usize;
        let auth_len = u64_of(take(&mut buf, 8, "auth length")?) as usize;
        let auth = AuthManifest::from_bytes(take(&mut buf, auth_len, "auth manifest")?)?;
        if chunk_size == 0 || k == 0 {
            return Err(CodecError::Malformed {
                reason: "manifest with zero chunk size or k".to_owned(),
            });
        }
        // Adversarial-header hardening: every size below feeds an
        // allocation (chunk decoders, symbol buffers), so bound them to
        // what an honest encoder can produce *before* building anything.
        if total_len == 0 {
            return Err(CodecError::Malformed {
                reason: "manifest for an empty file".to_owned(),
            });
        }
        if chunk_size > MAX_WIRE_CHUNK_SIZE {
            return Err(CodecError::Malformed {
                reason: format!(
                    "manifest chunk size {chunk_size} exceeds maximum {MAX_WIRE_CHUNK_SIZE}"
                ),
            });
        }
        if k > MAX_WIRE_K {
            return Err(CodecError::Malformed {
                reason: format!("manifest k {k} exceeds maximum {MAX_WIRE_K}"),
            });
        }
        let count = total_len.div_ceil(chunk_size);
        if u32::try_from(count).is_err() {
            return Err(CodecError::Malformed {
                reason: format!("manifest implies {count} chunks (exceeds u32 range)"),
            });
        }
        // Cross-check the declared geometry: chunk_size · chunk_count must
        // cover total_len without overflowing (guaranteed for the derived
        // count, but the multiply is the overflow-prone path an adversary
        // aims at, so prove it with checked arithmetic).
        match chunk_size.checked_mul(count) {
            Some(span) if span >= total_len => {}
            _ => {
                return Err(CodecError::Malformed {
                    reason: "manifest chunk geometry does not cover total length".to_owned(),
                });
            }
        }
        if auth.file_id() != file_id {
            return Err(CodecError::Malformed {
                reason: "auth manifest file id mismatch".to_owned(),
            });
        }
        Ok(FileManifest {
            file_id,
            total_len,
            chunk_size,
            field,
            k,
            auth,
        })
    }

    /// Chunk index encoded in a message id (high 32 bits).
    pub fn chunk_of(msg_id: MessageId) -> u32 {
        (msg_id.0 >> 32) as u32
    }

    /// Builds a message id from chunk index and per-chunk candidate id.
    pub fn message_id(chunk: u32, candidate: u32) -> MessageId {
        MessageId(((chunk as u64) << 32) | candidate as u64)
    }
}

/// Encodes a whole file chunk-by-chunk, recording digests as it goes.
///
/// # Example
///
/// ```rust
/// use asymshare_crypto::rng::SecretKey;
/// use asymshare_gf::{FieldKind, Gf2p32};
/// use asymshare_rlnc::{ChunkedDecoder, ChunkedEncoder, DigestKind, FileId};
///
/// # fn main() -> Result<(), asymshare_rlnc::CodecError> {
/// let secret = SecretKey::from_passphrase("owner");
/// let file: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
///
/// let mut enc = ChunkedEncoder::<Gf2p32>::new(
///     FieldKind::Gf2p32, 8, DigestKind::Md5, secret.clone(), FileId(1), &file)?;
/// let per_peer = enc.encode_for_peers(3)?; // 3 peers, k messages per chunk each
/// let manifest = enc.manifest().clone();
///
/// let mut dec = ChunkedDecoder::<Gf2p32>::new(manifest, secret)?;
/// for msg in per_peer.into_iter().flatten() {
///     dec.add_message(msg)?;
///     if dec.is_complete() { break; }
/// }
/// assert_eq!(dec.decode()?, file);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ChunkedEncoder<F> {
    encoders: Vec<Encoder<F>>,
    manifest: FileManifest,
    /// Next candidate id per chunk (low 32 bits of the message id).
    next_candidate: Vec<u32>,
}

impl<F: Field> ChunkedEncoder<F> {
    /// Builds chunk encoders over `data` with `k` pieces per chunk.
    ///
    /// # Errors
    ///
    /// Propagates parameter validation errors (empty data, k = 0, field
    /// mismatch).
    pub fn new(
        field: FieldKind,
        k: usize,
        digest: DigestKind,
        secret: SecretKey,
        file_id: FileId,
        data: &[u8],
    ) -> Result<Self, CodecError> {
        Self::with_chunk_size(field, k, digest, secret, file_id, data, CHUNK_SIZE)
    }

    /// Like [`new`](Self::new) with an explicit chunk size (tests and
    /// benchmarks use small chunks; production uses [`CHUNK_SIZE`]).
    ///
    /// # Errors
    ///
    /// Propagates parameter validation errors.
    pub fn with_chunk_size(
        field: FieldKind,
        k: usize,
        digest: DigestKind,
        secret: SecretKey,
        file_id: FileId,
        data: &[u8],
        chunk_size: usize,
    ) -> Result<Self, CodecError> {
        if data.is_empty() {
            return Err(CodecError::InvalidParams {
                reason: "cannot encode an empty file".to_owned(),
            });
        }
        if chunk_size == 0 {
            return Err(CodecError::InvalidParams {
                reason: "chunk size must be positive".to_owned(),
            });
        }
        let manifest = FileManifest {
            file_id,
            total_len: data.len(),
            chunk_size,
            field,
            k,
            auth: AuthManifest::new(file_id, digest),
        };
        // Building an encoder copies the chunk into its padded pieces; chunks
        // are independent, so construction fans out across threads.
        let chunks: Vec<&[u8]> = data.chunks(chunk_size).collect();
        let encoders = asymshare_par::try_map(&chunks, |chunk| {
            let params = CodingParams::for_data_len(field, k, chunk.len())?;
            Encoder::new(params, secret.clone(), file_id, chunk)
        })?;
        debug_assert_eq!(encoders.len() as u32, manifest.chunk_count());
        let n = encoders.len();
        Ok(ChunkedEncoder {
            encoders,
            manifest,
            next_candidate: vec![0; n],
        })
    }

    /// The evolving manifest (records every message encoded so far).
    pub fn manifest(&self) -> &FileManifest {
        &self.manifest
    }

    /// Number of chunks.
    pub fn chunk_count(&self) -> u32 {
        self.encoders.len() as u32
    }

    /// Encodes one rank-checked batch of `count ≤ k` messages for chunk
    /// `index`, assigning globally unique message ids and recording digests.
    ///
    /// # Errors
    ///
    /// [`CodecError::ChunkOutOfRange`] or batch-size errors.
    pub fn encode_chunk_batch(
        &mut self,
        index: u32,
        count: usize,
    ) -> Result<Vec<EncodedMessage>, CodecError> {
        let Some(encoder) = self.encoders.get(index as usize) else {
            return Err(CodecError::ChunkOutOfRange {
                index,
                count: self.chunk_count(),
            });
        };
        let start = ((index as u64) << 32) | self.next_candidate[index as usize] as u64;
        let (batch, next) = encoder.encode_batch_from(start, count)?;
        self.next_candidate[index as usize] = (next & 0xffff_ffff) as u32;
        let digests = MessageDigest::compute_many(self.manifest.auth.kind(), &batch);
        for (msg, digest) in batch.iter().zip(digests) {
            self.manifest.auth.record_digest(msg.message_id(), digest);
        }
        Ok(batch)
    }

    /// The paper's dissemination set: for each of `n` peers, one batch of
    /// `k` messages per chunk (so each peer alone can serve a full decode).
    ///
    /// Runs in three phases: rank-checked admission per (chunk, peer) batch
    /// is sequential (candidate ids are consumed in order per chunk); the
    /// payload combination of each batch (one block of Eq. (1)) and the
    /// digests of its messages — hashed right after, four at a time, on the
    /// worker that produced them — fan out across threads; and the
    /// precomputed digests
    /// enter the manifest in the same deterministic order as the sequential
    /// implementation.
    ///
    /// # Errors
    ///
    /// Propagates batch errors.
    pub fn encode_for_peers(&mut self, n: usize) -> Result<Vec<Vec<EncodedMessage>>, CodecError> {
        let k = self.manifest.k;
        // Phase 1: plan every (chunk, peer) batch.
        let mut jobs: Vec<(u32, usize, Vec<MessageId>)> =
            Vec::with_capacity(self.encoders.len() * n);
        for (chunk, encoder) in self.encoders.iter().enumerate() {
            for peer in 0..n {
                let start = ((chunk as u64) << 32) | self.next_candidate[chunk] as u64;
                let (ids, next) = encoder.plan_batch(start, k)?;
                self.next_candidate[chunk] = (next & 0xffff_ffff) as u32;
                jobs.push((chunk as u32, peer, ids));
            }
        }
        // Phase 2: combine payloads and hash them, in parallel.
        let encoders = &self.encoders;
        let kind = self.manifest.auth.kind();
        let mut encoded: Vec<Vec<(EncodedMessage, MessageDigest)>> = vec![Vec::new(); jobs.len()];
        asymshare_par::for_each_slice_mut(&mut encoded, jobs.len(), |base, slots| {
            let mut scratch = block::Scratch::new();
            for (slot, (chunk, _, ids)) in slots.iter_mut().zip(&jobs[base..]) {
                let batch = encoders[*chunk as usize].encode_planned(ids, &mut scratch);
                let digests = MessageDigest::compute_many(kind, &batch);
                *slot = batch.into_iter().zip(digests).collect();
            }
        });
        // Phase 3: record the digests and regroup per peer.
        let mut per_peer = vec![Vec::new(); n];
        for ((_, peer, _), batch) in jobs.iter().zip(encoded) {
            per_peer[*peer].reserve(batch.len());
            for (msg, digest) in batch {
                self.manifest.auth.record_digest(msg.message_id(), digest);
                per_peer[*peer].push(msg);
            }
        }
        Ok(per_peer)
    }
}

/// Decodes a chunked file, verifying every message against the manifest.
#[derive(Debug)]
pub struct ChunkedDecoder<F> {
    manifest: FileManifest,
    chunks: Vec<BlockDecoder<F>>,
    /// Digests computed for offered messages so far.
    hashed: u64,
}

impl<F: Field> ChunkedDecoder<F> {
    /// A decoder driven by a manifest and the owner's secret.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::FieldMismatch`] when `F` disagrees with the
    /// manifest's declared field.
    pub fn new(manifest: FileManifest, secret: SecretKey) -> Result<Self, CodecError> {
        if manifest.field != F::KIND {
            return Err(CodecError::FieldMismatch {
                expected: manifest.field,
                got: F::KIND,
            });
        }
        let mut chunks = Vec::with_capacity(manifest.chunk_count() as usize);
        for index in 0..manifest.chunk_count() {
            let params = manifest.chunk_params(index)?;
            chunks.push(BlockDecoder::new(
                params,
                secret.clone(),
                manifest.file_id,
                manifest.chunk_len(index)?,
            ));
        }
        Ok(ChunkedDecoder {
            manifest,
            chunks,
            hashed: 0,
        })
    }

    /// Hashes `msgs` now — up to four at a time where neighbours have
    /// equally long payloads — and leaves each digest in its message, so that
    /// [`add_message`](Self::add_message) compares it against the manifest
    /// instead of hashing the message a second time. Purely a matter of
    /// *when* the hashing happens: a message is accepted or rejected
    /// exactly as if it had been offered without this call.
    pub fn prehash<'a>(&mut self, msgs: impl IntoIterator<Item = &'a mut EncodedMessage>) {
        let hashed = &mut self.hashed;
        crate::auth::digest_each(
            self.manifest.auth.kind(),
            msgs.into_iter(),
            |msg| msg,
            |msg, digest| {
                msg.cache_digest(digest);
                *hashed += 1;
            },
        );
    }

    /// How many offered messages have been hashed, by
    /// [`prehash`](Self::prehash) or by [`add_message`](Self::add_message)
    /// (which hashes a message only if its id is in the manifest and
    /// `prehash` has not already done so).
    pub fn hashed_count(&self) -> u64 {
        self.hashed
    }

    /// Offers a message: authenticates it, routes it to its chunk decoder.
    ///
    /// Returns `true` if the message was innovative for its chunk.
    ///
    /// # Errors
    ///
    /// [`CodecError::AuthenticationFailed`] for forged/corrupted messages,
    /// [`CodecError::ChunkOutOfRange`] for an impossible chunk index, plus
    /// the underlying decoder errors.
    pub fn add_message(&mut self, msg: EncodedMessage) -> Result<bool, CodecError> {
        self.manifest.auth.verify_counting(&msg, &mut self.hashed)?;
        let chunk = FileManifest::chunk_of(msg.message_id());
        let Some(decoder) = self.chunks.get_mut(chunk as usize) else {
            return Err(CodecError::ChunkOutOfRange {
                index: chunk,
                count: self.manifest.chunk_count(),
            });
        };
        decoder.add_message(msg)
    }

    /// Whether the chunk decoder that `id` routes to has already accepted a
    /// verified message with this id. Only verified messages reach a chunk
    /// decoder, so this never reports an id that was merely claimed by a
    /// forged message; an out-of-range chunk has seen nothing.
    pub fn has_seen(&self, id: MessageId) -> bool {
        self.chunks
            .get(FileManifest::chunk_of(id) as usize)
            .is_some_and(|decoder| decoder.has_seen(id))
    }

    /// Whether chunk `index` is decodable already (for streaming playback).
    ///
    /// # Errors
    ///
    /// [`CodecError::ChunkOutOfRange`] for an invalid index.
    pub fn chunk_complete(&self, index: u32) -> Result<bool, CodecError> {
        self.chunks
            .get(index as usize)
            .map(|d| d.is_complete())
            .ok_or(CodecError::ChunkOutOfRange {
                index,
                count: self.manifest.chunk_count(),
            })
    }

    /// Independent messages chunk `index` still lacks (zero once it is
    /// decodable).
    ///
    /// # Errors
    ///
    /// [`CodecError::ChunkOutOfRange`] for an invalid index.
    pub fn chunk_needed(&self, index: u32) -> Result<usize, CodecError> {
        self.chunks
            .get(index as usize)
            .map(|d| d.needed())
            .ok_or(CodecError::ChunkOutOfRange {
                index,
                count: self.manifest.chunk_count(),
            })
    }

    /// Moves the rows and payloads of chunk `index` out, to be decoded on
    /// another thread while this decoder takes the next chunks' messages,
    /// and freed once the plaintext is written. `None` unless the chunk is
    /// at rank `k` and still holds them: once per chunk.
    ///
    /// A sealed chunk stays complete — every accessor answers as before and
    /// [`add_message`](Self::add_message) still reports a replayed id — but
    /// [`decode`](Self::decode) returns [`CodecError::ChunkSealed`].
    pub fn seal_chunk(&mut self, index: u32) -> Option<SealedBlock<F>> {
        self.chunks.get_mut(index as usize)?.seal()
    }

    /// Whether every chunk is decodable.
    pub fn is_complete(&self) -> bool {
        self.chunks.iter().all(|d| d.is_complete())
    }

    /// Fraction of required independent messages received, in `[0, 1]`.
    pub fn progress(&self) -> f64 {
        self.independent_count() as f64 / self.manifest.messages_needed() as f64
    }

    /// Number of linearly independent messages received across all chunks.
    pub fn independent_count(&self) -> usize {
        self.chunks.iter().map(|d| d.rank()).sum()
    }

    /// Total independent messages required to decode the whole file.
    pub fn messages_needed(&self) -> usize {
        self.manifest.messages_needed()
    }

    /// The manifest this decoder was built from.
    pub fn manifest(&self) -> &FileManifest {
        &self.manifest
    }

    /// Decodes the whole file.
    ///
    /// Chunks are independent coding blocks, so the per-chunk matrix
    /// inversions and payload combinations run in parallel, each writing
    /// its own slice of the one output buffer; any error is reported for
    /// the lowest-indexed failing chunk, matching the sequential
    /// implementation.
    ///
    /// # Errors
    ///
    /// [`CodecError::NotEnoughMessages`] if any chunk is incomplete,
    /// [`CodecError::ChunkSealed`] if any was moved out by
    /// [`seal_chunk`](Self::seal_chunk).
    pub fn decode(&self) -> Result<Vec<u8>, CodecError> {
        let mut out = vec![0u8; self.manifest.total_len];
        let mut jobs: Vec<_> = self
            .chunks
            .iter()
            .zip(out.chunks_mut(self.manifest.chunk_size))
            .map(|(decoder, slice)| (decoder, slice, Ok(())))
            .collect();
        let n = jobs.len();
        asymshare_par::for_each_slice_mut(&mut jobs, n, |base, jobs| {
            let mut scratch = block::Scratch::new();
            for (index, (decoder, slice, result)) in (base as u32..).zip(jobs) {
                *result = if decoder.is_sealed() {
                    Err(CodecError::ChunkSealed { index })
                } else {
                    decoder.decode_into(slice, &mut scratch)
                };
            }
        });
        jobs.into_iter().try_for_each(|(_, _, result)| result)?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asymshare_gf::Gf2p32;

    fn secret() -> SecretKey {
        SecretKey::from_passphrase("chunker tests")
    }

    fn file(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 17 % 253) as u8).collect()
    }

    fn encoder(data: &[u8], chunk_size: usize) -> ChunkedEncoder<Gf2p32> {
        ChunkedEncoder::with_chunk_size(
            FieldKind::Gf2p32,
            4,
            DigestKind::Md5,
            secret(),
            FileId(11),
            data,
            chunk_size,
        )
        .unwrap()
    }

    #[test]
    fn multi_chunk_round_trip() {
        let data = file(10_000);
        let mut enc = encoder(&data, 4096); // 3 chunks: 4096 + 4096 + 1808
        assert_eq!(enc.chunk_count(), 3);
        let peers = enc.encode_for_peers(2).unwrap();
        let mut dec = ChunkedDecoder::<Gf2p32>::new(enc.manifest().clone(), secret()).unwrap();
        for msg in peers.into_iter().next().unwrap() {
            dec.add_message(msg).unwrap();
        }
        assert!(dec.is_complete());
        assert_eq!(dec.decode().unwrap(), data);
    }

    #[test]
    fn streaming_chunks_complete_in_order_of_arrival() {
        let data = file(8192);
        let mut enc = encoder(&data, 4096);
        let chunk0 = enc.encode_chunk_batch(0, 4).unwrap();
        let chunk1 = enc.encode_chunk_batch(1, 4).unwrap();
        let mut dec = ChunkedDecoder::<Gf2p32>::new(enc.manifest().clone(), secret()).unwrap();
        for m in chunk0 {
            dec.add_message(m).unwrap();
        }
        assert!(dec.chunk_complete(0).unwrap());
        assert!(!dec.chunk_complete(1).unwrap());
        assert!(dec.decode().is_err(), "full decode still blocked");
        for m in chunk1 {
            dec.add_message(m).unwrap();
        }
        assert_eq!(dec.decode().unwrap(), data);
    }

    #[test]
    fn parallel_peers_match_sequential_batches() {
        // The three-phase encode_for_peers must be byte-identical to the
        // naive chunk-by-chunk, peer-by-peer batch sequence, manifest
        // digests included.
        let data = file(6000);
        let mut par_enc = encoder(&data, 2048);
        let peers = par_enc.encode_for_peers(2).unwrap();
        let mut seq_enc = encoder(&data, 2048);
        let mut seq_peers = vec![Vec::new(); 2];
        for chunk in 0..seq_enc.chunk_count() {
            for msgs in seq_peers.iter_mut() {
                msgs.extend(seq_enc.encode_chunk_batch(chunk, 4).unwrap());
            }
        }
        assert_eq!(peers, seq_peers);
        assert_eq!(par_enc.manifest(), seq_enc.manifest());
        assert_eq!(
            par_enc.manifest().auth().to_bytes(),
            seq_enc.manifest().auth().to_bytes()
        );
    }

    #[test]
    fn tampered_message_rejected_before_decoding() {
        let data = file(4096);
        let mut enc = encoder(&data, 4096);
        let batch = enc.encode_chunk_batch(0, 4).unwrap();
        let mut dec = ChunkedDecoder::<Gf2p32>::new(enc.manifest().clone(), secret()).unwrap();
        let mut payload = batch[0].payload().to_vec();
        payload[0] ^= 0xFF;
        let forged = EncodedMessage::new(FileId(11), batch[0].message_id(), payload);
        assert!(matches!(
            dec.add_message(forged),
            Err(CodecError::AuthenticationFailed { .. })
        ));
        // The rejected message left no trace: its id is not "seen", so the
        // genuine message with that id is not mistaken for a replay.
        assert!(!dec.has_seen(batch[0].message_id()));
        // Genuine messages still work afterwards.
        for m in batch.iter().cloned() {
            dec.add_message(m).unwrap();
        }
        assert!(dec.has_seen(batch[0].message_id()));
        assert!(!dec.has_seen(FileManifest::message_id(9, 0)), "no chunk 9");
        assert_eq!(dec.decode().unwrap(), data);
    }

    #[test]
    fn injected_unknown_message_rejected() {
        let data = file(4096);
        let mut enc = encoder(&data, 4096);
        let _ = enc.encode_chunk_batch(0, 4).unwrap();
        let mut dec = ChunkedDecoder::<Gf2p32>::new(enc.manifest().clone(), secret()).unwrap();
        let injected = EncodedMessage::new(
            FileId(11),
            FileManifest::message_id(0, 999),
            vec![0u8; 1024],
        );
        assert!(matches!(
            dec.add_message(injected),
            Err(CodecError::AuthenticationFailed { .. })
        ));
    }

    /// Hashing a datagram's messages ahead of time changes when they are
    /// hashed and nothing else: every result, the count of digests
    /// computed and the decoded bytes equal the one-at-a-time feed, with a
    /// forgery, an unknown id and a shorter last-chunk payload in the mix.
    #[test]
    fn prehashed_feed_admits_and_hashes_like_plain_feed() {
        let data = file(10_000); // chunks of 4096 + 4096 + 1808 bytes
        let mut enc = encoder(&data, 4096);
        let mut msgs: Vec<EncodedMessage> = enc
            .encode_for_peers(1)
            .unwrap()
            .into_iter()
            .flatten()
            .collect();
        let mut forged = msgs[2].payload().to_vec();
        forged[100] ^= 1;
        msgs.insert(
            2,
            EncodedMessage::new(FileId(11), msgs[2].message_id(), forged),
        );
        let unknown = FileManifest::message_id(1, 999);
        msgs.insert(6, EncodedMessage::new(FileId(11), unknown, vec![0u8; 1024]));
        let feed = |prehash: bool| {
            let mut dec = ChunkedDecoder::<Gf2p32>::new(enc.manifest().clone(), secret()).unwrap();
            let mut results = Vec::new();
            for datagram in msgs.chunks(5) {
                let mut datagram = datagram.to_vec();
                if prehash {
                    dec.prehash(&mut datagram);
                }
                results.extend(datagram.into_iter().map(|m| dec.add_message(m)));
            }
            (results, dec.hashed_count(), dec.decode().unwrap())
        };
        let (results, hashed, decoded) = feed(true);
        assert_eq!(hashed, msgs.len() as u64, "prehash hashes all it is given");
        assert_eq!(
            results[2],
            Err(CodecError::AuthenticationFailed {
                id: msgs[2].message_id().0
            })
        );
        assert_eq!(
            results[6],
            Err(CodecError::AuthenticationFailed { id: unknown.0 })
        );
        assert_eq!(results.iter().filter(|r| r.is_err()).count(), 2);
        assert_eq!(decoded, data);
        let (plain_results, plain_hashed, plain_decoded) = feed(false);
        assert_eq!(plain_results, results);
        assert_eq!(
            plain_hashed,
            msgs.len() as u64 - 1,
            "an unknown id is never hashed"
        );
        assert_eq!(plain_decoded, data);
    }

    #[test]
    fn progress_reaches_one() {
        let data = file(4096);
        let mut enc = encoder(&data, 2048);
        let peers = enc.encode_for_peers(1).unwrap();
        let mut dec = ChunkedDecoder::<Gf2p32>::new(enc.manifest().clone(), secret()).unwrap();
        assert_eq!(dec.progress(), 0.0);
        for m in peers.into_iter().next().unwrap() {
            dec.add_message(m).unwrap();
        }
        assert!((dec.progress() - 1.0).abs() < 1e-12);
    }

    /// A decoder over 4096 + 4096 + 1808 bytes with chunk 0 sealed, chunk 1
    /// complete and still held, chunk 2 one message short; the file, the
    /// sealed block and chunk 0's messages.
    fn half_sealed() -> (
        ChunkedDecoder<Gf2p32>,
        Vec<u8>,
        SealedBlock<Gf2p32>,
        Vec<EncodedMessage>,
    ) {
        let data = file(10_000);
        let mut enc = encoder(&data, 4096);
        let msgs = enc.encode_for_peers(1).unwrap().remove(0);
        let mut dec = ChunkedDecoder::<Gf2p32>::new(enc.manifest().clone(), secret()).unwrap();
        assert!(dec.seal_chunk(0).is_none(), "nothing to seal at rank 0");
        for msg in &msgs[..11] {
            dec.add_message(msg.clone()).unwrap();
        }
        assert!(dec.seal_chunk(2).is_none(), "rank 3 of 4");
        assert!(dec.seal_chunk(3).is_none(), "no chunk 3");
        let sealed = dec.seal_chunk(0).expect("chunk 0 is at rank k");
        assert!(dec.seal_chunk(0).is_none(), "a chunk seals once");
        (dec, data, sealed, msgs[..4].to_vec())
    }

    #[test]
    fn sealed_block_decodes_to_its_chunk() {
        let (_, data, sealed, _) = half_sealed();
        let mut out = vec![0u8; 4096];
        sealed
            .decode_into(&mut out, &mut block::Scratch::new())
            .unwrap();
        assert_eq!(out, &data[..4096]);
        assert!(matches!(
            sealed.decode_into(&mut out[..4095], &mut block::Scratch::new()),
            Err(CodecError::InvalidParams { .. })
        ));
    }

    #[test]
    fn decode_of_a_half_sealed_decoder_names_the_lowest_sealed_chunk() {
        let (mut dec, _, _, _) = half_sealed();
        // Chunk 2 is incomplete too, but chunk 0's error comes first.
        assert_eq!(dec.decode(), Err(CodecError::ChunkSealed { index: 0 }));
        dec.seal_chunk(1).expect("chunk 1 is at rank k");
        assert_eq!(dec.decode(), Err(CodecError::ChunkSealed { index: 0 }));
    }

    #[test]
    fn progress_counts_a_sealed_chunk() {
        let (dec, _, _, _) = half_sealed();
        assert!((dec.progress() - 11.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn independent_count_counts_a_sealed_chunk() {
        let (dec, _, _, _) = half_sealed();
        assert_eq!(dec.independent_count(), 11);
        assert!(!dec.is_complete());
    }

    #[test]
    fn sealed_chunk_stays_complete_and_knows_a_replay() {
        let (mut dec, _, _, chunk0) = half_sealed();
        assert!(dec.chunk_complete(0).unwrap());
        assert_eq!(dec.chunk_needed(0).unwrap(), 0);
        assert!(dec.has_seen(chunk0[1].message_id()));
        assert_eq!(
            dec.add_message(chunk0[1].clone()),
            Err(CodecError::DuplicateMessage {
                id: chunk0[1].message_id().0
            })
        );
    }

    #[test]
    fn single_small_file_is_one_chunk() {
        let data = file(100);
        let enc = encoder(&data, 4096);
        assert_eq!(enc.chunk_count(), 1);
        assert_eq!(enc.manifest().chunk_len(0).unwrap(), 100);
        assert!(enc.manifest().chunk_len(1).is_err());
    }

    #[test]
    fn exact_multiple_chunk_lengths() {
        let data = file(8192);
        let enc = encoder(&data, 4096);
        assert_eq!(enc.chunk_count(), 2);
        assert_eq!(enc.manifest().chunk_len(0).unwrap(), 4096);
        assert_eq!(enc.manifest().chunk_len(1).unwrap(), 4096);
    }

    #[test]
    fn manifest_serialization_round_trips() {
        let data = file(5000);
        let mut enc = encoder(&data, 2048);
        let _ = enc.encode_for_peers(2).unwrap();
        let manifest = enc.manifest().clone();
        let bytes = manifest.to_bytes();
        let back = FileManifest::from_bytes(&bytes).unwrap();
        assert_eq!(back, manifest);
        // A decoder built from the deserialized manifest works identically.
        let mut dec = ChunkedDecoder::<Gf2p32>::new(back, secret()).unwrap();
        let mut enc2 = encoder(&data, 2048);
        for m in enc2
            .encode_for_peers(1)
            .unwrap()
            .into_iter()
            .next()
            .unwrap()
        {
            dec.add_message(m).unwrap();
        }
        assert_eq!(dec.decode().unwrap(), data);
    }

    #[test]
    fn manifest_rejects_corruption() {
        let data = file(256);
        let mut enc = encoder(&data, 2048);
        let _ = enc.encode_for_peers(1).unwrap();
        let bytes = enc.manifest().to_bytes();
        for cut in 0..bytes.len().min(60) {
            assert!(
                FileManifest::from_bytes(&bytes[..cut]).is_err(),
                "cut {cut}"
            );
        }
        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 1;
        assert!(FileManifest::from_bytes(&bad_magic).is_err());
    }

    #[test]
    fn message_id_layout() {
        let id = FileManifest::message_id(3, 77);
        assert_eq!(FileManifest::chunk_of(id), 3);
        assert_eq!(id.0 & 0xffff_ffff, 77);
    }

    #[test]
    fn field_mismatch_rejected() {
        let data = file(256);
        let enc = encoder(&data, 4096);
        let err = ChunkedDecoder::<asymshare_gf::Gf256>::new(enc.manifest().clone(), secret())
            .unwrap_err();
        assert!(matches!(err, CodecError::FieldMismatch { .. }));
    }

    /// A manifest constructed field-by-field (the encoder refuses empty
    /// data, so the degenerate lengths can only arise from a hand-built or
    /// wire-parsed manifest).
    fn raw_manifest(total_len: usize, chunk_size: usize) -> FileManifest {
        FileManifest {
            file_id: FileId(11),
            total_len,
            chunk_size,
            field: FieldKind::Gf2p32,
            k: 4,
            auth: AuthManifest::new(FileId(11), DigestKind::Md5),
        }
    }

    #[test]
    fn empty_file_has_zero_chunks() {
        // Regression: `.max(1)` used to report one phantom chunk for an
        // empty file, and its "length" was the degenerate 0 % chunk_size.
        let m = raw_manifest(0, 4096);
        assert_eq!(m.chunk_count(), 0);
        assert_eq!(m.messages_needed(), 0);
        let err = m.chunk_len(0).unwrap_err();
        assert!(matches!(
            err,
            CodecError::ChunkOutOfRange { index: 0, count: 0 }
        ));
    }

    #[test]
    fn single_exact_chunk_length() {
        // len == chunk_size: exactly one chunk of full length, never the
        // `total_len % chunk_size == 0` branch artifact.
        let m = raw_manifest(4096, 4096);
        assert_eq!(m.chunk_count(), 1);
        assert_eq!(m.chunk_len(0).unwrap(), 4096);
        assert!(m.chunk_len(1).is_err());
    }

    #[test]
    fn exact_multiple_last_chunk_is_full() {
        // len == n·chunk_size for several n: every chunk, including the
        // last, reports the full chunk size and they sum to the total.
        for n in 1..=5usize {
            let m = raw_manifest(n * 2048, 2048);
            assert_eq!(m.chunk_count() as usize, n);
            let mut sum = 0usize;
            for i in 0..m.chunk_count() {
                let len = m.chunk_len(i).unwrap();
                assert_eq!(len, 2048, "n={n} chunk {i}");
                sum += len;
            }
            assert_eq!(sum, n * 2048);
        }
    }

    #[test]
    fn chunk_lengths_always_sum_to_total() {
        for total in [1usize, 100, 2047, 2048, 2049, 4096, 5000, 10_000] {
            let m = raw_manifest(total, 2048);
            let sum: usize = (0..m.chunk_count()).map(|i| m.chunk_len(i).unwrap()).sum();
            assert_eq!(sum, total, "total {total}");
        }
    }

    fn wire_manifest_bytes() -> Vec<u8> {
        let data = file(5000);
        let mut enc = encoder(&data, 2048);
        let _ = enc.encode_for_peers(1).unwrap();
        enc.manifest().to_bytes()
    }

    /// Patches one little-endian u64 header field in serialized manifest
    /// bytes (offsets per `to_bytes`: file_id 8, total_len 16, chunk_size
    /// 24, k 33).
    fn patch_u64(bytes: &mut [u8], offset: usize, value: u64) {
        bytes[offset..offset + 8].copy_from_slice(&value.to_le_bytes());
    }

    #[test]
    fn decode_rejects_adversarial_headers() {
        let bytes = wire_manifest_bytes();
        assert!(FileManifest::from_bytes(&bytes).is_ok());

        // Zero total length.
        let mut b = bytes.clone();
        patch_u64(&mut b, 16, 0);
        assert!(FileManifest::from_bytes(&b).is_err());

        // Chunk size above the wire cap (a 2^63 chunk would size a single
        // allocation at half the address space).
        let mut b = bytes.clone();
        patch_u64(&mut b, 24, (MAX_WIRE_CHUNK_SIZE as u64) * 2);
        assert!(FileManifest::from_bytes(&b).is_err());
        let mut b = bytes.clone();
        patch_u64(&mut b, 24, u64::MAX);
        assert!(FileManifest::from_bytes(&b).is_err());

        // k beyond the wire cap (k² decoder matrix).
        let mut b = bytes.clone();
        patch_u64(&mut b, 33, u64::MAX);
        assert!(FileManifest::from_bytes(&b).is_err());

        // Geometry whose chunk count overflows u32: total_len u64::MAX
        // with a tiny (still under the cap) chunk size.
        let mut b = bytes.clone();
        patch_u64(&mut b, 16, u64::MAX);
        patch_u64(&mut b, 24, 64 << 10);
        assert!(FileManifest::from_bytes(&b).is_err());

        // The cap is inclusive: exactly 4 MiB with a sane total parses,
        // one byte more is refused by the cap itself.
        let mut b = bytes.clone();
        patch_u64(&mut b, 24, 4 << 20);
        assert!(FileManifest::from_bytes(&b).is_ok());
        let mut b = bytes.clone();
        patch_u64(&mut b, 24, (4 << 20) + 1);
        match FileManifest::from_bytes(&b) {
            Err(CodecError::Malformed { reason }) => {
                assert!(reason.contains("exceeds maximum"), "{reason}");
            }
            other => panic!("4 MiB + 1 chunk accepted: {other:?}"),
        }
    }

    mod adversarial {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// `from_bytes` faces attacker-controlled bytes: mutate a valid
            /// manifest at random positions — it must never panic, and any
            /// manifest it accepts must have bounded, self-consistent
            /// geometry (mirrors the `scan_frame` adversarial proptests).
            #[test]
            fn mutated_manifest_bytes_never_panic(
                flips in proptest::collection::vec((0usize..4096, any::<u8>()), 1..16),
                do_cut in any::<bool>(),
                cut in 0usize..4096,
            ) {
                let mut bytes = wire_manifest_bytes();
                for (pos, xor) in flips {
                    let len = bytes.len();
                    bytes[pos % len] ^= xor;
                }
                if do_cut {
                    bytes.truncate(cut % (bytes.len() + 1));
                }
                if let Ok(m) = FileManifest::from_bytes(&bytes) {
                    prop_assert!(m.total_len() > 0);
                    prop_assert!(m.chunk_size <= super::super::MAX_WIRE_CHUNK_SIZE);
                    prop_assert!(m.k <= super::super::MAX_WIRE_K);
                    let count = m.chunk_count();
                    let mut sum = 0usize;
                    for i in 0..count {
                        let len = m.chunk_len(i).unwrap();
                        prop_assert!(len >= 1 && len <= m.chunk_size);
                        sum += len;
                    }
                    prop_assert_eq!(sum, m.total_len());
                }
            }

            /// Raw random buffers (no valid prefix at all) are equally safe.
            #[test]
            fn random_manifest_bytes_never_panic(
                bytes in proptest::collection::vec(any::<u8>(), 0..512),
            ) {
                if let Ok(m) = FileManifest::from_bytes(&bytes) {
                    prop_assert!(m.total_len() > 0);
                    prop_assert!(m.chunk_size <= super::super::MAX_WIRE_CHUNK_SIZE);
                }
            }
        }
    }
}
