//! Block decoding: gather `k` independent messages, invert β, reconstruct.

use crate::coeffs::RowGenerator;
use crate::error::CodecError;
use crate::message::{EncodedMessage, FileId, MessageId};
use crate::params::CodingParams;
use asymshare_crypto::rng::SecretKey;
use asymshare_gf::linalg::{invert, Matrix, RankTracker};
use asymshare_gf::{bytes as gfbytes, Field};
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
    params: CodingParams,
    rows: RowGenerator<F>,
    file_id: FileId,
    data_len: usize,
    tracker: RankTracker<F>,
    held: Vec<(MessageId, Vec<F>, Vec<F>)>, // (id, coefficient row, payload symbols)
    seen: HashSet<u64>,
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
            params,
            rows: RowGenerator::new(secret, file_id, params.k()),
            file_id,
            data_len,
            tracker: RankTracker::new(params.k()),
            held: Vec::with_capacity(params.k()),
            seen: HashSet::new(),
        }
    }

    /// Number of independent messages held so far.
    pub fn rank(&self) -> usize {
        self.tracker.rank()
    }

    /// Messages still needed before decoding is possible.
    pub fn needed(&self) -> usize {
        self.params.k() - self.tracker.rank()
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
        if msg.payload().len() != self.params.payload_bytes() {
            return Err(CodecError::PayloadSizeMismatch {
                expected: self.params.payload_bytes(),
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
        let row = self.rows.row(msg.message_id());
        if !self.tracker.try_add(&row) {
            return Ok(false);
        }
        let payload = gfbytes::symbols_from_bytes::<F>(msg.payload());
        self.held.push((msg.message_id(), row, payload));
        Ok(true)
    }

    /// Reconstructs the original data.
    ///
    /// # Errors
    ///
    /// * [`CodecError::NotEnoughMessages`] before rank `k` is reached.
    /// * [`CodecError::SingularCoefficients`] if inversion fails (cannot
    ///   happen for rank-checked inputs; kept as defense in depth).
    pub fn decode(&self) -> Result<Vec<u8>, CodecError> {
        let k = self.params.k();
        if self.held.len() < k {
            return Err(CodecError::NotEnoughMessages {
                have: self.held.len(),
                need: k,
            });
        }
        let mut flat = Vec::with_capacity(self.held.len() * k);
        for (_, row, _) in &self.held {
            flat.extend_from_slice(row);
        }
        let beta = Matrix::from_flat(self.held.len(), k, flat);
        let inv = invert(&beta).ok_or(CodecError::SingularCoefficients)?;
        // X_j = Σ_i inv[j][i] · Y_i, computed with the bulk kernel. One
        // m-symbol accumulator serves all k pieces.
        let m = self.params.m();
        let mut out = Vec::with_capacity(self.params.capacity_bytes());
        let mut piece = vec![F::ZERO; m];
        for j in 0..k {
            piece.fill(F::ZERO);
            for (i, (_, _, payload)) in self.held.iter().enumerate() {
                F::axpy_slice(inv.get(j, i), payload, &mut piece);
            }
            gfbytes::symbols_to_bytes_into(&piece, &mut out);
        }
        out.truncate(self.data_len);
        Ok(out)
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
