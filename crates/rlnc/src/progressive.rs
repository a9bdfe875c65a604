//! Progressive (online) decoding by incremental Gauss–Jordan elimination.
//!
//! The block decoder inverts β once all `k` messages are in; this decoder
//! instead eliminates each message as it arrives, spreading the `O(mk²)`
//! work across the download so the file is ready the moment the last
//! innovative message lands — the property that makes the paper's streaming
//! mode (§III-D) practical on slow links.

use crate::coeffs::RowGenerator;
use crate::error::CodecError;
use crate::message::{EncodedMessage, FileId};
use crate::params::CodingParams;
use asymshare_crypto::rng::SecretKey;
use asymshare_gf::{bytes as gfbytes, Field};
use std::collections::HashSet;

/// An online decoder maintaining an augmented matrix `[β | Y]` in reduced
/// row-echelon form.
///
/// # Example
///
/// ```rust
/// use asymshare_crypto::rng::SecretKey;
/// use asymshare_gf::{FieldKind, Gf256};
/// use asymshare_rlnc::{CodingParams, Encoder, FileId, ProgressiveDecoder};
///
/// # fn main() -> Result<(), asymshare_rlnc::CodecError> {
/// let secret = SecretKey::from_passphrase("s");
/// let data = vec![42u8; 96];
/// let params = CodingParams::for_data_len(FieldKind::Gf256, 3, data.len())?;
/// let enc = Encoder::<Gf256>::new(params, secret.clone(), FileId(1), &data)?;
///
/// let mut dec = ProgressiveDecoder::<Gf256>::new(params, secret, FileId(1), data.len());
/// for msg in enc.encode_batch(0, 3)? {
///     dec.add_message(msg)?;
/// }
/// assert_eq!(dec.decode()?, data);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ProgressiveDecoder<F> {
    params: CodingParams,
    rows: RowGenerator<F>,
    file_id: FileId,
    data_len: usize,
    /// `echelon[c]` holds the reduced augmented row whose pivot is column
    /// `c`, once one exists.
    echelon: Vec<Option<Vec<F>>>,
    rank: usize,
    seen: HashSet<u64>,
    /// Reused augmented-row buffer: a non-innovative arrival hands its
    /// allocation back here instead of dropping it; an innovative one moves
    /// into `echelon` and the next arrival re-grows the scratch once.
    scratch: Vec<F>,
}

impl<F: Field> ProgressiveDecoder<F> {
    /// A decoder for `file_id` expecting `data_len` plaintext bytes.
    ///
    /// # Panics
    ///
    /// Panics if `params.field()` disagrees with `F`.
    pub fn new(params: CodingParams, secret: SecretKey, file_id: FileId, data_len: usize) -> Self {
        assert_eq!(
            params.field(),
            F::KIND,
            "decoder field type must match parameters"
        );
        ProgressiveDecoder {
            params,
            rows: RowGenerator::new(secret, file_id, params.k()),
            file_id,
            data_len,
            echelon: vec![None; params.k()],
            rank: 0,
            seen: HashSet::new(),
            scratch: Vec::new(),
        }
    }

    /// Independent messages absorbed so far.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Whether the decoder can already produce the file.
    pub fn is_complete(&self) -> bool {
        self.rank == self.params.k()
    }

    /// Offers a message; returns `true` if it was innovative.
    ///
    /// # Errors
    ///
    /// Same contract as [`BlockDecoder::add_message`](crate::BlockDecoder::add_message).
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
        if self.is_complete() {
            return Ok(false);
        }
        let k = self.params.k();
        // Augmented row [β_i | Y_i], built in the reused scratch buffer.
        let mut aug = std::mem::take(&mut self.scratch);
        aug.clear();
        self.rows.row_into(msg.message_id(), &mut aug);
        gfbytes::symbols_from_bytes_into::<F>(msg.payload(), &mut aug);

        // Reduce against every existing pivot — also those to the right of
        // where this row's own pivot will land (a zero coefficient makes
        // pivots appear out of column order; routine in GF(2⁴)). Basis rows
        // are zero in each other's pivot columns, so one pass suffices.
        for col in 0..k {
            if let Some(basis) = &self.echelon[col] {
                let f = aug[col];
                if f != F::ZERO {
                    F::axpy_slice(f, basis, &mut aug);
                    debug_assert_eq!(aug[col], F::ZERO);
                }
            }
        }
        if let Some(col) = aug[..k].iter().position(|&v| v != F::ZERO) {
            // New pivot: normalize, back-eliminate, store.
            let pinv = aug[col].inv();
            F::scale_slice(pinv, &mut aug);
            for other in self.echelon.iter_mut().flatten() {
                let f = other[col];
                if f != F::ZERO {
                    F::axpy_slice(f, &aug, other);
                }
            }
            self.echelon[col] = Some(aug);
            self.rank += 1;
            return Ok(true);
        }
        self.scratch = aug;
        Ok(false)
    }

    /// Extracts the reconstructed data.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::NotEnoughMessages`] before rank `k`.
    pub fn decode(&self) -> Result<Vec<u8>, CodecError> {
        let k = self.params.k();
        if self.rank < k {
            return Err(CodecError::NotEnoughMessages {
                have: self.rank,
                need: k,
            });
        }
        let mut out = Vec::with_capacity(self.params.capacity_bytes());
        for piece in 0..k {
            let row = self.echelon[piece]
                .as_ref()
                .expect("full rank implies every pivot present");
            // With full Gauss–Jordan the coefficient part of each stored row
            // is e_piece, so the payload part *is* X_piece.
            debug_assert!(row[..k]
                .iter()
                .enumerate()
                .all(|(c, &v)| (v == F::ONE) == (c == piece) && (v != F::ZERO) == (c == piece)));
            gfbytes::symbols_to_bytes_into(&row[k..], &mut out);
        }
        out.truncate(self.data_len);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoder::BlockDecoder;
    use crate::encoder::Encoder;
    use asymshare_gf::{FieldKind, Gf16, Gf2p32};

    fn secret() -> SecretKey {
        SecretKey::from_passphrase("progressive tests")
    }

    fn data(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 83 % 257) as u8).collect()
    }

    #[test]
    fn matches_block_decoder() {
        let len = 512;
        let params = CodingParams::for_data_len(FieldKind::Gf2p32, 8, len).unwrap();
        let payload = data(len);
        let enc = Encoder::<Gf2p32>::new(params, secret(), FileId(4), &payload).unwrap();
        let msgs = enc.encode_batch(0, 8).unwrap();

        let mut block = BlockDecoder::<Gf2p32>::new(params, secret(), FileId(4), len);
        let mut prog = ProgressiveDecoder::<Gf2p32>::new(params, secret(), FileId(4), len);
        for m in msgs {
            block.add_message(m.clone()).unwrap();
            prog.add_message(m).unwrap();
        }
        assert_eq!(block.decode().unwrap(), prog.decode().unwrap());
        assert_eq!(prog.decode().unwrap(), payload);
    }

    #[test]
    fn out_of_order_arrival_decodes() {
        let len = 96;
        let params = CodingParams::for_data_len(FieldKind::Gf16, 6, len).unwrap();
        let payload = data(len);
        let enc = Encoder::<Gf16>::new(params, secret(), FileId(2), &payload).unwrap();
        let mut msgs = enc.encode_batch(0, 6).unwrap();
        msgs.reverse();
        let mut dec = ProgressiveDecoder::<Gf16>::new(params, secret(), FileId(2), len);
        for m in msgs {
            dec.add_message(m).unwrap();
        }
        assert_eq!(dec.decode().unwrap(), payload);
    }

    #[test]
    fn rank_grows_monotonically() {
        let len = 64;
        let params = CodingParams::for_data_len(FieldKind::Gf2p32, 4, len).unwrap();
        let enc = Encoder::<Gf2p32>::new(params, secret(), FileId(1), &data(len)).unwrap();
        let msgs = enc.encode_batch(0, 4).unwrap();
        let mut dec = ProgressiveDecoder::<Gf2p32>::new(params, secret(), FileId(1), len);
        for (i, m) in msgs.into_iter().enumerate() {
            assert_eq!(dec.rank(), i);
            assert!(dec.add_message(m).unwrap());
        }
        assert!(dec.is_complete());
    }

    #[test]
    fn dependent_extra_is_not_innovative() {
        // Feed messages from a second batch after completion.
        let len = 64;
        let params = CodingParams::for_data_len(FieldKind::Gf2p32, 3, len).unwrap();
        let enc = Encoder::<Gf2p32>::new(params, secret(), FileId(1), &data(len)).unwrap();
        let batches = enc.encode_for_peers(2).unwrap();
        let mut dec = ProgressiveDecoder::<Gf2p32>::new(params, secret(), FileId(1), len);
        for m in &batches[0] {
            assert!(dec.add_message(m.clone()).unwrap());
        }
        assert!(!dec.add_message(batches[1][0].clone()).unwrap());
    }

    #[test]
    fn decode_too_early_errors() {
        let params = CodingParams::for_data_len(FieldKind::Gf2p32, 4, 64).unwrap();
        let dec = ProgressiveDecoder::<Gf2p32>::new(params, secret(), FileId(1), 64);
        assert!(matches!(
            dec.decode(),
            Err(CodecError::NotEnoughMessages { have: 0, need: 4 })
        ));
    }
}
