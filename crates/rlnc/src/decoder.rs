//! Block decoding: gather `k` independent messages, invert β, reconstruct.

use crate::coeffs::RowGenerator;
use crate::error::CodecError;
use crate::message::{EncodedMessage, FileId, MessageId};
use crate::params::CodingParams;
use asymshare_crypto::rng::SecretKey;
use asymshare_gf::linalg::{invert, Matrix, RankTracker};
use asymshare_gf::{block, Field};
use std::collections::HashSet;

/// Decodes one file (or chunk) from `k` independent encoded messages by
/// inverting the coefficient sub-matrix (§III-B: "multiplies this by the
/// inverse of the appropriate square sub-matrix of the coefficient matrix").
///
/// Messages may arrive from any peers in any order; duplicates and
/// linearly-dependent extras are detected and ignored so the caller can
/// simply stream messages in until [`is_complete`](Self::is_complete).
///
/// See the crate-level example for end-to-end usage.
#[derive(Debug, Clone)]
pub struct BlockDecoder<F> {
    rows: RowGenerator<F>,
    file_id: FileId,
    tracker: RankTracker<F>,
    /// The innovative messages so far; empty again once sealed.
    held: SealedBlock<F>,
    seen: HashSet<u64>,
}

/// The innovative messages of one coding block — all that decoding reads.
/// A [`BlockDecoder`] fills one; at rank `k`
/// [`ChunkedDecoder::seal_chunk`](crate::ChunkedDecoder::seal_chunk) moves
/// it out, to be decoded elsewhere and freed with this value.
#[derive(Debug, Clone)]
pub struct SealedBlock<F> {
    params: CodingParams,
    data_len: usize,
    /// Coefficient rows of the innovative messages, `rank × k` row-major.
    rows: Vec<F>,
    /// Their payloads in the same order, `payload_bytes` each.
    payloads: Vec<u8>,
}

impl<F: Field> BlockDecoder<F> {
    /// A decoder for `file_id` expecting `data_len` plaintext bytes.
    ///
    /// # Panics
    ///
    /// Panics if `params.field()` disagrees with `F` (constructing the
    /// decoder is always code-local, unlike the fallible wire paths).
    pub fn new(params: CodingParams, secret: SecretKey, file_id: FileId, data_len: usize) -> Self {
        assert_eq!(
            params.field(),
            F::KIND,
            "decoder field type must match parameters"
        );
        BlockDecoder {
            rows: RowGenerator::new(secret, file_id, params.k()),
            file_id,
            tracker: RankTracker::new(params.k()),
            held: SealedBlock {
                params,
                data_len,
                rows: Vec::new(),
                payloads: Vec::new(),
            },
            seen: HashSet::new(),
        }
    }

    /// Number of independent messages held so far.
    pub fn rank(&self) -> usize {
        self.tracker.rank()
    }

    /// Messages still needed before decoding is possible.
    pub fn needed(&self) -> usize {
        self.held.params.k() - self.tracker.rank()
    }

    /// Whether enough independent messages are held to decode.
    pub fn is_complete(&self) -> bool {
        self.tracker.is_full()
    }

    /// Whether a message with this id has already been offered (and passed
    /// the file and size checks) — a second one would be a
    /// [`CodecError::DuplicateMessage`].
    pub fn has_seen(&self, id: MessageId) -> bool {
        self.seen.contains(&id.0)
    }

    /// Offers a message to the decoder.
    ///
    /// Returns `true` if the message increased the decoder's rank (was
    /// *innovative*), `false` if it was a linearly dependent extra.
    ///
    /// # Errors
    ///
    /// * [`CodecError::WrongFile`] for a message of another file.
    /// * [`CodecError::PayloadSizeMismatch`] for a short/long payload.
    /// * [`CodecError::DuplicateMessage`] if this id was already offered.
    pub fn add_message(&mut self, msg: EncodedMessage) -> Result<bool, CodecError> {
        if msg.file_id() != self.file_id {
            return Err(CodecError::WrongFile {
                expected: self.file_id.0,
                got: msg.file_id().0,
            });
        }
        let params = self.held.params;
        if msg.payload().len() != params.payload_bytes() {
            return Err(CodecError::PayloadSizeMismatch {
                expected: params.payload_bytes(),
                got: msg.payload().len(),
            });
        }
        if !self.seen.insert(msg.message_id().0) {
            return Err(CodecError::DuplicateMessage {
                id: msg.message_id().0,
            });
        }
        if self.tracker.is_full() {
            return Ok(false);
        }
        let k = params.k();
        let rank = self.tracker.rank();
        self.rows.row_into(msg.message_id(), &mut self.held.rows);
        if !self.tracker.try_add(&self.held.rows[rank * k..]) {
            self.held.rows.truncate(rank * k);
            return Ok(false);
        }
        if rank == 0 {
            self.held.payloads.reserve_exact(k * params.payload_bytes());
        }
        self.held.payloads.extend_from_slice(msg.payload());
        Ok(true)
    }

    /// Whether [`seal`](Self::seal) has moved the messages out: full rank,
    /// and the rows that got it there gone.
    pub(crate) fn is_sealed(&self) -> bool {
        self.tracker.is_full() && self.held.rows.is_empty()
    }

    /// Moves the innovative messages out; `None` before rank `k` and after
    /// the first call. Rank and seen ids stay: the decoder is complete,
    /// takes nothing more and still knows a replay. Crate-private: only the
    /// chunk pipeline can name the chunk in the error a later decode gets.
    pub(crate) fn seal(&mut self) -> Option<SealedBlock<F>> {
        if !self.tracker.is_full() || self.is_sealed() {
            return None;
        }
        let emptied = SealedBlock {
            rows: Vec::new(),
            payloads: Vec::new(),
            ..self.held
        };
        Some(std::mem::replace(&mut self.held, emptied))
    }

    /// Reconstructs the original data.
    ///
    /// # Errors
    ///
    /// * [`CodecError::NotEnoughMessages`] before rank `k` is reached.
    /// * [`CodecError::SingularCoefficients`] if inversion fails (cannot
    ///   happen for rank-checked inputs; kept as defense in depth).
    pub fn decode(&self) -> Result<Vec<u8>, CodecError> {
        let mut out = vec![0u8; self.held.data_len];
        self.decode_into(&mut out, &mut block::Scratch::new())?;
        Ok(out)
    }

    /// Reconstructs the original data into `out`, which must be exactly
    /// the `data_len` bytes this decoder was built for. A caller decoding
    /// many chunks passes the same `scratch` to each.
    ///
    /// # Errors
    ///
    /// The errors of [`decode`](Self::decode), plus
    /// [`CodecError::InvalidParams`] for an `out` of the wrong length.
    pub fn decode_into(
        &self,
        out: &mut [u8],
        scratch: &mut block::Scratch,
    ) -> Result<(), CodecError> {
        self.held.decode_into(out, scratch)
    }
}

impl<F: Field> SealedBlock<F> {
    /// [`BlockDecoder::decode_into`] — this is its body.
    ///
    /// # Errors
    ///
    /// Those of [`BlockDecoder::decode_into`].
    pub fn decode_into(
        &self,
        out: &mut [u8],
        scratch: &mut block::Scratch,
    ) -> Result<(), CodecError> {
        let k = self.params.k();
        if out.len() != self.data_len {
            return Err(CodecError::InvalidParams {
                reason: format!(
                    "decode output of {} bytes for a chunk of {}",
                    out.len(),
                    self.data_len
                ),
            });
        }
        if self.rows.len() < k * k {
            return Err(CodecError::NotEnoughMessages {
                have: self.rows.len() / k,
                need: k,
            });
        }
        let beta = Matrix::from_flat(k, k, self.rows.clone());
        let inv = invert(&beta)
            .ok_or(CodecError::SingularCoefficients)?
            .into_flat();
        // X_j = Σ_i inv[j][i] · Y_i: the leading rows of β⁻¹ are one block
        // of Eq. (1) whose outputs are the pieces of `out`. Pieces that are
        // all padding are not computed; a piece cut short by `data_len` is
        // computed whole beside `out` and its head copied in.
        let piece_bytes = self.params.payload_bytes();
        let payloads: Vec<&[u8]> = self.payloads.chunks_exact(piece_bytes).collect();
        let mut whole = out.chunks_exact_mut(piece_bytes);
        let mut pieces: Vec<&mut [u8]> = whole.by_ref().collect();
        let cut = whole.into_remainder();
        let mut last = Vec::new();
        if !cut.is_empty() {
            last.resize(piece_bytes, 0);
            pieces.push(&mut last);
        }
        block::combine(&inv[..pieces.len() * k], &payloads, &mut pieces, scratch);
        cut.copy_from_slice(&last[..cut.len()]);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::Encoder;
    use asymshare_gf::{FieldKind, Gf16, Gf256, Gf2p32, Gf65536};

    fn secret() -> SecretKey {
        SecretKey::from_passphrase("decoder tests")
    }

    fn data(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 131 % 251) as u8).collect()
    }

    fn round_trip<F: Field>(field: FieldKind, k: usize, len: usize) {
        let params = CodingParams::for_data_len(field, k, len).unwrap();
        let payload = data(len);
        let enc = Encoder::<F>::new(params, secret(), FileId(9), &payload).unwrap();
        let msgs = enc.encode_batch(0, k).unwrap();
        let mut dec = BlockDecoder::<F>::new(params, secret(), FileId(9), len);
        for m in msgs {
            assert!(dec.add_message(m).unwrap());
        }
        assert!(dec.is_complete());
        assert_eq!(dec.decode().unwrap(), payload);
    }

    #[test]
    fn round_trips_all_fields() {
        round_trip::<Gf16>(FieldKind::Gf16, 4, 100);
        round_trip::<Gf256>(FieldKind::Gf256, 8, 1000);
        round_trip::<Gf65536>(FieldKind::Gf65536, 5, 333);
        round_trip::<Gf2p32>(FieldKind::Gf2p32, 8, 4096);
    }

    #[test]
    fn any_k_subset_from_two_batches_decodes() {
        let len = 200;
        let params = CodingParams::for_data_len(FieldKind::Gf2p32, 4, len).unwrap();
        let payload = data(len);
        let enc = Encoder::<Gf2p32>::new(params, secret(), FileId(1), &payload).unwrap();
        let batches = enc.encode_for_peers(2).unwrap();
        let all: Vec<_> = batches.into_iter().flatten().collect();
        // Mix messages from both batches: 2 from the first, 2 from the second.
        let mut dec = BlockDecoder::<Gf2p32>::new(params, secret(), FileId(1), len);
        for m in [&all[0], &all[1], &all[4], &all[5]] {
            dec.add_message(m.clone()).unwrap();
        }
        // Cross-batch mixes are independent w.h.p. in GF(2^32); decode works.
        assert!(dec.is_complete());
        assert_eq!(dec.decode().unwrap(), payload);
    }

    #[test]
    fn decode_before_complete_fails() {
        let params = CodingParams::for_data_len(FieldKind::Gf256, 4, 64).unwrap();
        let payload = data(64);
        let enc = Encoder::<Gf256>::new(params, secret(), FileId(1), &payload).unwrap();
        let msgs = enc.encode_batch(0, 4).unwrap();
        let mut dec = BlockDecoder::<Gf256>::new(params, secret(), FileId(1), 64);
        for m in msgs.into_iter().take(3) {
            dec.add_message(m).unwrap();
        }
        assert_eq!(dec.needed(), 1);
        assert!(matches!(
            dec.decode(),
            Err(CodecError::NotEnoughMessages { have: 3, need: 4 })
        ));
    }

    #[test]
    fn decode_into_requires_the_exact_length() {
        let len = 90; // 23-byte pieces: three whole, the fourth cut to 21
        let params = CodingParams::for_data_len(FieldKind::Gf256, 4, len).unwrap();
        assert_eq!(params.payload_bytes(), 23);
        let payload = data(len);
        let enc = Encoder::<Gf256>::new(params, secret(), FileId(1), &payload).unwrap();
        let mut dec = BlockDecoder::<Gf256>::new(params, secret(), FileId(1), len);
        for m in enc.encode_batch(0, 4).unwrap() {
            dec.add_message(m).unwrap();
        }
        let mut scratch = block::Scratch::new();
        for wrong in [0, len - 1, len + 1, params.capacity_bytes()] {
            let mut out = vec![0xEEu8; wrong];
            assert!(matches!(
                dec.decode_into(&mut out, &mut scratch),
                Err(CodecError::InvalidParams { .. })
            ));
            assert!(
                out.iter().all(|&b| b == 0xEE),
                "a rejected output is untouched"
            );
        }
        let mut out = vec![0xEEu8; len];
        dec.decode_into(&mut out, &mut scratch).unwrap();
        assert_eq!(out, payload);
    }

    #[test]
    fn duplicates_and_wrong_file_rejected() {
        let params = CodingParams::for_data_len(FieldKind::Gf256, 4, 64).unwrap();
        let payload = data(64);
        let enc = Encoder::<Gf256>::new(params, secret(), FileId(1), &payload).unwrap();
        let msgs = enc.encode_batch(0, 4).unwrap();
        let mut dec = BlockDecoder::<Gf256>::new(params, secret(), FileId(1), 64);
        dec.add_message(msgs[0].clone()).unwrap();
        assert!(matches!(
            dec.add_message(msgs[0].clone()),
            Err(CodecError::DuplicateMessage { .. })
        ));
        let foreign = EncodedMessage::new(FileId(2), MessageId(99), msgs[1].payload().to_vec());
        assert!(matches!(
            dec.add_message(foreign),
            Err(CodecError::WrongFile { .. })
        ));
        let short = EncodedMessage::new(FileId(1), MessageId(98), vec![0u8; 3]);
        assert!(matches!(
            dec.add_message(short),
            Err(CodecError::PayloadSizeMismatch { .. })
        ));
    }

    #[test]
    fn wrong_secret_decodes_to_garbage() {
        // The security property of §III-C: without the owner's secret the
        // coefficient rows are wrong and the "decoded" output is noise.
        let len = 128;
        let params = CodingParams::for_data_len(FieldKind::Gf2p32, 4, len).unwrap();
        let payload = data(len);
        let enc = Encoder::<Gf2p32>::new(params, secret(), FileId(1), &payload).unwrap();
        let msgs = enc.encode_batch(0, 4).unwrap();
        let attacker = SecretKey::from_passphrase("not the owner");
        let mut dec = BlockDecoder::<Gf2p32>::new(params, attacker, FileId(1), len);
        for m in msgs {
            dec.add_message(m).unwrap();
        }
        if dec.is_complete() {
            let got = dec.decode().unwrap();
            assert_ne!(got, payload, "wrong key must not reveal plaintext");
        }
    }

    #[test]
    fn extra_messages_after_completion_are_ignored() {
        let len = 64;
        let params = CodingParams::for_data_len(FieldKind::Gf256, 3, len).unwrap();
        let payload = data(len);
        let enc = Encoder::<Gf256>::new(params, secret(), FileId(1), &payload).unwrap();
        let batches = enc.encode_for_peers(2).unwrap();
        let mut dec = BlockDecoder::<Gf256>::new(params, secret(), FileId(1), len);
        for m in &batches[0] {
            assert!(dec.add_message(m.clone()).unwrap());
        }
        for m in &batches[1] {
            assert!(!dec.add_message(m.clone()).unwrap(), "already complete");
        }
        assert_eq!(dec.decode().unwrap(), payload);
    }
}
