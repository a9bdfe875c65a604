//! Secret-keyed random linear coding — the data plane of *asymshare*.
//!
//! Implements §III of the paper: a file of `b` bits is split into `k` chunks
//! `X_1 … X_k`, each an `m`-vector over `F_q`, and encoded into messages
//!
//! ```text
//! Y_i = Σ_j β_ij · X_j
//! ```
//!
//! where each coefficient row `β_i` comes from a cryptographically strong
//! PRNG seeded with a hash of the message-id `i` and the owner's secret key.
//! Unlike classic network coding, the coefficients are **never shipped**:
//! they are the secret that makes stored messages opaque to the peers
//! holding them. Peers forward stored messages verbatim (zero compute), and
//! the owner's rank check at encode time guarantees that any `k` *distinct*
//! admitted messages decode the file exactly.
//!
//! # Quick start
//!
//! ```rust
//! use asymshare_crypto::rng::SecretKey;
//! use asymshare_gf::Gf2p32;
//! use asymshare_rlnc::{BlockDecoder, CodingParams, Encoder, FileId};
//!
//! # fn main() -> Result<(), asymshare_rlnc::CodecError> {
//! let secret = SecretKey::from_passphrase("home-peer secret");
//! let data = b"a home video the owner wants to fetch remotely".to_vec();
//! let params = CodingParams::for_data_len(asymshare_gf::FieldKind::Gf2p32, 4, data.len())?;
//!
//! let encoder = Encoder::<Gf2p32>::new(params, secret.clone(), FileId(7), &data)?;
//! let messages = encoder.encode_batch(0, params.k())?; // what peers would store
//!
//! let mut decoder = BlockDecoder::<Gf2p32>::new(params, secret, FileId(7), data.len());
//! for msg in messages {
//!     decoder.add_message(msg)?;
//! }
//! assert_eq!(decoder.decode()?, data);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod auth;
mod chunker;
mod coeffs;
mod decoder;
mod encoder;
mod error;
mod message;
mod params;
mod progressive;

pub use auth::{AuthManifest, DigestKind, MessageDigest};
pub use chunker::{ChunkedDecoder, ChunkedEncoder, FileManifest, CHUNK_SIZE};
pub use coeffs::RowGenerator;
pub use decoder::{BlockDecoder, SealedBlock};
pub use encoder::Encoder;
pub use error::CodecError;
pub use message::{EncodedMessage, FileId, MessageId};
pub use params::{table_one_entry, CodingParams, TableOneRow, MEGABYTE};
pub use progressive::ProgressiveDecoder;
