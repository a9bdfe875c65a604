//! The rank-checked encoder (paper Figure 2 and Equation (1)).

use crate::coeffs::RowGenerator;
use crate::error::CodecError;
use crate::message::{EncodedMessage, FileId, MessageId};
use crate::params::CodingParams;
use asymshare_crypto::rng::SecretKey;
use asymshare_gf::linalg::RankTracker;
use asymshare_gf::{block, bytes as gfbytes, Field};

/// Encodes one file (or 1 MB chunk) into secret-keyed coded messages.
///
/// The encoder holds the file as `k` pieces `X_1 … X_k` of packed symbols
/// and produces messages `Y_i = Σ_j β_ij · X_j`, a whole batch at a time
/// through [`block::combine`]. Batches are rank-checked: within a batch
/// every admitted row is linearly independent of the others, so a downloader
/// holding any full batch decodes with exactly `k` messages — the paper's
/// "testing generated rows for linear independence before encoding".
///
/// # Example
///
/// ```rust
/// use asymshare_crypto::rng::SecretKey;
/// use asymshare_gf::{FieldKind, Gf256};
/// use asymshare_rlnc::{CodingParams, Encoder, FileId};
///
/// let params = CodingParams::for_data_len(FieldKind::Gf256, 4, 100)?;
/// let encoder = Encoder::<Gf256>::new(params, SecretKey::from_passphrase("s"), FileId(1), &vec![7u8; 100])?;
/// let batch = encoder.encode_batch(0, 4)?;
/// assert_eq!(batch.len(), 4);
/// # Ok::<(), asymshare_rlnc::CodecError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Encoder<F> {
    params: CodingParams,
    rows: RowGenerator<F>,
    file_id: FileId,
    /// The data zero-padded to `k` pieces of `payload_bytes` each.
    padded: Vec<u8>,
    data_len: usize,
}

impl<F: Field> Encoder<F> {
    /// Builds an encoder over `data`.
    ///
    /// # Errors
    ///
    /// * [`CodecError::FieldMismatch`] if `params.field()` is not `F`.
    /// * [`CodecError::InvalidParams`] if `data` exceeds the parameters'
    ///   capacity or is empty.
    pub fn new(
        params: CodingParams,
        secret: SecretKey,
        file_id: FileId,
        data: &[u8],
    ) -> Result<Self, CodecError> {
        if params.field() != F::KIND {
            return Err(CodecError::FieldMismatch {
                expected: params.field(),
                got: F::KIND,
            });
        }
        if data.is_empty() {
            return Err(CodecError::InvalidParams {
                reason: "cannot encode an empty payload".to_owned(),
            });
        }
        if data.len() > params.capacity_bytes() {
            return Err(CodecError::InvalidParams {
                reason: format!(
                    "data of {} bytes exceeds capacity {} (m={}, k={})",
                    data.len(),
                    params.capacity_bytes(),
                    params.m(),
                    params.k()
                ),
            });
        }
        Ok(Encoder {
            params,
            rows: RowGenerator::new(secret, file_id, params.k()),
            file_id,
            padded: gfbytes::pad_to_symbols(data, params.payload_bytes(), params.k()),
            data_len: data.len(),
        })
    }

    /// The coding parameters.
    pub fn params(&self) -> CodingParams {
        self.params
    }

    /// The original (unpadded) data length in bytes.
    pub fn data_len(&self) -> usize {
        self.data_len
    }

    /// Combines the payloads of `ids` — one `ids.len() × k` block of
    /// Eq. (1) — without a rank check: the ids normally come from
    /// [`plan_batch`](Self::plan_batch). A caller encoding many batches
    /// passes the same `scratch` to each.
    pub(crate) fn encode_planned(
        &self,
        ids: &[MessageId],
        scratch: &mut block::Scratch,
    ) -> Vec<EncodedMessage> {
        let piece_bytes = self.params.payload_bytes();
        let mut coeffs = Vec::with_capacity(ids.len() * self.params.k());
        for &id in ids {
            self.rows.row_into(id, &mut coeffs);
        }
        let pieces: Vec<&[u8]> = self.padded.chunks_exact(piece_bytes).collect();
        let mut payloads = vec![vec![0u8; piece_bytes]; ids.len()];
        let mut outputs: Vec<&mut [u8]> = payloads.iter_mut().map(Vec::as_mut_slice).collect();
        block::combine(&coeffs, &pieces, &mut outputs, scratch);
        ids.iter()
            .zip(payloads)
            .map(|(&id, payload)| EncodedMessage::new(self.file_id, id, payload))
            .collect()
    }

    /// Runs the rank-checked admission of
    /// [`encode_batch`](Self::encode_batch) *without* combining payloads:
    /// returns the ids of `count` mutually independent rows drawn from
    /// `start_id` upward, plus the next unused candidate id.
    ///
    /// Admission only touches `k`-symbol coefficient rows, so it is cheap
    /// and inherently sequential (each batch starts where the previous one
    /// stopped); the expensive `m`-symbol payload combination for the
    /// planned ids can then fan out across threads.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::InvalidParams`] if `count > k`.
    pub fn plan_batch(
        &self,
        start_id: u64,
        count: usize,
    ) -> Result<(Vec<MessageId>, u64), CodecError> {
        if count > self.params.k() {
            return Err(CodecError::InvalidParams {
                reason: format!(
                    "batch of {count} mutually independent rows impossible with k = {}",
                    self.params.k()
                ),
            });
        }
        let mut tracker = RankTracker::new(self.params.k());
        let mut ids = Vec::with_capacity(count);
        let mut row = Vec::with_capacity(self.params.k());
        let mut id = start_id;
        while ids.len() < count {
            row.clear();
            self.rows.row_into(MessageId(id), &mut row);
            if tracker.try_add(&row) {
                ids.push(MessageId(id));
            }
            id += 1;
        }
        Ok((ids, id))
    }

    /// Encodes a batch of `count ≤ k` messages whose coefficient rows are
    /// mutually linearly independent, consuming candidate message-ids from
    /// `start_id` upward and skipping dependent candidates.
    ///
    /// Dependent candidates are astronomically rare in the wide fields
    /// (probability ≈ q^(rank−k) per draw) but routine in GF(2⁴) with small
    /// `k`; the skip loop makes the guarantee unconditional.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::InvalidParams`] if `count > k` (at most `k`
    /// rows can be mutually independent in a `k`-dimensional space).
    pub fn encode_batch(
        &self,
        start_id: u64,
        count: usize,
    ) -> Result<Vec<EncodedMessage>, CodecError> {
        Ok(self.encode_batch_inner(start_id, count)?.0)
    }

    /// Like [`encode_batch`](Self::encode_batch) but also returns the next
    /// unused candidate id, for callers generating several batches in
    /// sequence (one per peer).
    pub fn encode_batch_from(
        &self,
        start_id: u64,
        count: usize,
    ) -> Result<(Vec<EncodedMessage>, u64), CodecError> {
        self.encode_batch_inner(start_id, count)
    }

    fn encode_batch_inner(
        &self,
        start_id: u64,
        count: usize,
    ) -> Result<(Vec<EncodedMessage>, u64), CodecError> {
        let (ids, next) = self.plan_batch(start_id, count)?;
        Ok((self.encode_planned(&ids, &mut block::Scratch::new()), next))
    }

    /// Encodes the paper's full dissemination set: `n` batches of `k`
    /// messages each (`nk` total), one batch per peer, every batch
    /// independently decodable.
    ///
    /// Admission runs sequentially (batch `i + 1` draws candidate ids where
    /// batch `i` stopped); the payload combination — the `O(nk · m)` bulk of
    /// the work — fans out across threads, one batch per work item.
    ///
    /// # Errors
    ///
    /// Propagates batch errors (cannot occur for `count = k`).
    pub fn encode_for_peers(&self, n: usize) -> Result<Vec<Vec<EncodedMessage>>, CodecError> {
        let mut plans = Vec::with_capacity(n);
        let mut next_id = 0u64;
        for _ in 0..n {
            let (ids, next) = self.plan_batch(next_id, self.params.k())?;
            plans.push(ids);
            next_id = next;
        }
        let mut batches = vec![Vec::new(); n];
        asymshare_par::for_each_slice_mut(&mut batches, n, |base, batches| {
            let mut scratch = block::Scratch::new();
            for (batch, ids) in batches.iter_mut().zip(&plans[base..]) {
                *batch = self.encode_planned(ids, &mut scratch);
            }
        });
        Ok(batches)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asymshare_gf::{FieldKind, Gf16, Gf256};

    fn secret() -> SecretKey {
        SecretKey::from_passphrase("encoder tests")
    }

    fn data(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 31 % 251) as u8).collect()
    }

    #[test]
    fn payload_has_m_symbols() {
        let params = CodingParams::new(FieldKind::Gf256, 32, 4).unwrap();
        let enc = Encoder::<Gf256>::new(params, secret(), FileId(1), &data(100)).unwrap();
        let msg = &enc.encode_batch(0, 1).unwrap()[0];
        assert_eq!(msg.payload().len(), 32);
        assert_eq!(msg.file_id(), FileId(1));
    }

    #[test]
    fn encoding_is_deterministic() {
        let params = CodingParams::new(FieldKind::Gf256, 32, 4).unwrap();
        let e1 = Encoder::<Gf256>::new(params, secret(), FileId(1), &data(100)).unwrap();
        let e2 = Encoder::<Gf256>::new(params, secret(), FileId(1), &data(100)).unwrap();
        assert_eq!(
            e1.encode_batch(0, 4).unwrap(),
            e2.encode_batch(0, 4).unwrap()
        );
    }

    #[test]
    fn batch_rows_are_independent() {
        let params = CodingParams::new(FieldKind::Gf16, 8, 6).unwrap();
        let enc = Encoder::<Gf16>::new(params, secret(), FileId(3), &data(20)).unwrap();
        let batch = enc.encode_batch(0, 6).unwrap();
        assert_eq!(batch.len(), 6);
        let gen = RowGenerator::<Gf16>::new(secret(), FileId(3), 6);
        let mut tracker = RankTracker::new(6);
        for msg in &batch {
            assert!(tracker.try_add(&gen.row(msg.message_id())));
        }
    }

    #[test]
    fn sequential_batches_use_distinct_ids() {
        let params = CodingParams::new(FieldKind::Gf256, 16, 3).unwrap();
        let enc = Encoder::<Gf256>::new(params, secret(), FileId(1), &data(40)).unwrap();
        let batches = enc.encode_for_peers(4).unwrap();
        assert_eq!(batches.len(), 4);
        let mut ids: Vec<u64> = batches.iter().flatten().map(|m| m.message_id().0).collect();
        let before = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), before, "no id reuse across batches");
    }

    #[test]
    fn plan_then_encode_matches_batch() {
        // plan_batch + encode_planned (with a dirty, reused scratch) must
        // reproduce encode_batch_from exactly — this is the contract the
        // parallel chunker relies on.
        let params = CodingParams::new(FieldKind::Gf256, 16, 5).unwrap();
        let enc = Encoder::<Gf256>::new(params, secret(), FileId(7), &data(60)).unwrap();
        let (batch, next) = enc.encode_batch_from(0, 5).unwrap();
        let (ids, planned_next) = enc.plan_batch(0, 5).unwrap();
        assert_eq!(next, planned_next);
        let mut scratch = block::Scratch::new();
        enc.encode_planned(&ids[..2], &mut scratch);
        assert_eq!(enc.encode_planned(&ids, &mut scratch), batch);
        // A batch is its messages one at a time (the `r = 1` block).
        let singly: Vec<_> = ids
            .iter()
            .flat_map(|&id| enc.encode_planned(&[id], &mut scratch))
            .collect();
        assert_eq!(singly, batch);
    }

    #[test]
    fn oversized_plan_rejected() {
        let params = CodingParams::new(FieldKind::Gf256, 4, 2).unwrap();
        let enc = Encoder::<Gf256>::new(params, secret(), FileId(1), &data(8)).unwrap();
        assert!(enc.plan_batch(0, 3).is_err());
    }

    #[test]
    fn oversized_data_rejected() {
        let params = CodingParams::new(FieldKind::Gf256, 4, 2).unwrap(); // 8-byte capacity
        let err = Encoder::<Gf256>::new(params, secret(), FileId(1), &data(9)).unwrap_err();
        assert!(matches!(err, CodecError::InvalidParams { .. }));
    }

    #[test]
    fn field_mismatch_rejected() {
        let params = CodingParams::new(FieldKind::Gf2p32, 8, 2).unwrap();
        let err = Encoder::<Gf256>::new(params, secret(), FileId(1), &data(9)).unwrap_err();
        assert!(matches!(err, CodecError::FieldMismatch { .. }));
    }

    #[test]
    fn oversized_batch_rejected() {
        let params = CodingParams::new(FieldKind::Gf256, 4, 2).unwrap();
        let enc = Encoder::<Gf256>::new(params, secret(), FileId(1), &data(8)).unwrap();
        assert!(enc.encode_batch(0, 3).is_err());
    }

    #[test]
    fn zero_data_rejected() {
        let params = CodingParams::new(FieldKind::Gf256, 4, 2).unwrap();
        assert!(Encoder::<Gf256>::new(params, secret(), FileId(1), &[]).is_err());
    }
}
