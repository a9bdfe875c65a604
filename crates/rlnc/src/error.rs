//! Codec error type.

use asymshare_gf::FieldKind;

/// Errors produced by the encoder, decoders and chunk pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The requested parameters cannot represent the data (e.g. `m` or `k`
    /// of zero, or a data length that exceeds `m·p·k` bits).
    InvalidParams {
        /// Human-readable reason.
        reason: String,
    },
    /// The decoder was asked to decode before it had `k` independent
    /// messages.
    NotEnoughMessages {
        /// Independent messages held.
        have: usize,
        /// Independent messages required (`k`).
        need: usize,
    },
    /// A message belonged to a different file than the decoder's.
    WrongFile {
        /// File the decoder was constructed for.
        expected: u64,
        /// File-id carried by the rejected message.
        got: u64,
    },
    /// A message's payload length disagrees with the coding parameters.
    PayloadSizeMismatch {
        /// Expected payload bytes (`m` symbols).
        expected: usize,
        /// Received payload bytes.
        got: usize,
    },
    /// The same message-id was offered twice.
    DuplicateMessage {
        /// The repeated id.
        id: u64,
    },
    /// A message failed digest authentication (forged or corrupted).
    AuthenticationFailed {
        /// The offending message id.
        id: u64,
    },
    /// The coefficient rows of the supplied messages are singular — only
    /// possible if messages were generated without the encoder's rank check
    /// (e.g. forged) or drawn from mismatched secrets.
    SingularCoefficients,
    /// A wire buffer could not be parsed.
    Malformed {
        /// Human-readable reason.
        reason: String,
    },
    /// A chunk index was out of range for the manifest.
    ChunkOutOfRange {
        /// Offending index.
        index: u32,
        /// Number of chunks in the file.
        count: u32,
    },
    /// The chunk's rows and payloads were moved out of the decoder by
    /// `ChunkedDecoder::seal_chunk`; it is complete, and whoever holds the
    /// sealed block decodes it.
    ChunkSealed {
        /// The sealed chunk.
        index: u32,
    },
    /// The manifest's declared field does not match the decoder's field
    /// type parameter.
    FieldMismatch {
        /// Field declared by the manifest/params.
        expected: FieldKind,
        /// Field of the attempted codec instantiation.
        got: FieldKind,
    },
}

impl core::fmt::Display for CodecError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CodecError::InvalidParams { reason } => {
                write!(f, "invalid coding parameters: {reason}")
            }
            CodecError::NotEnoughMessages { have, need } => {
                write!(
                    f,
                    "not enough independent messages: have {have}, need {need}"
                )
            }
            CodecError::WrongFile { expected, got } => {
                write!(
                    f,
                    "message for file {got} offered to decoder for file {expected}"
                )
            }
            CodecError::PayloadSizeMismatch { expected, got } => {
                write!(
                    f,
                    "payload size mismatch: expected {expected} bytes, got {got}"
                )
            }
            CodecError::DuplicateMessage { id } => write!(f, "duplicate message id {id}"),
            CodecError::AuthenticationFailed { id } => {
                write!(f, "message {id} failed digest authentication")
            }
            CodecError::SingularCoefficients => {
                write!(
                    f,
                    "coefficient matrix is singular for the supplied messages"
                )
            }
            CodecError::Malformed { reason } => write!(f, "malformed wire data: {reason}"),
            CodecError::ChunkOutOfRange { index, count } => {
                write!(
                    f,
                    "chunk index {index} out of range (file has {count} chunks)"
                )
            }
            CodecError::ChunkSealed { index } => {
                write!(f, "chunk {index} was sealed and is decoded elsewhere")
            }
            CodecError::FieldMismatch { expected, got } => {
                write!(
                    f,
                    "field mismatch: parameters declare {expected}, codec instantiated for {got}"
                )
            }
        }
    }
}

impl std::error::Error for CodecError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_concise() {
        let e = CodecError::NotEnoughMessages { have: 3, need: 8 };
        assert_eq!(
            e.to_string(),
            "not enough independent messages: have 3, need 8"
        );
    }

    #[test]
    fn implements_std_error() {
        fn takes_err<E: std::error::Error + Send + Sync + 'static>(_e: E) {}
        takes_err(CodecError::SingularCoefficients);
    }
}
