//! The wire protocol between users and peers (the paper's Figure 4(b)
//! time-line: challenge–response authentication, file request, message
//! stream, stop-transmission, and the user's periodic feedback to its home
//! peer).

use crate::error::SystemError;
use asymshare_crypto::chacha20::ChaChaRng;
use asymshare_crypto::schnorr::{self, KeyPair, PublicKey, Signature};
use asymshare_crypto::u256::U256;
use asymshare_rlnc::EncodedMessage;
use bytes::{Buf, BufMut, Bytes};

/// A protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum Wire {
    /// Prover → verifier: Schnorr commitment R (move 1 of Fig. 4(b)'s
    /// transmission "1").
    AuthCommit {
        /// Serialized commitment point.
        commitment: [u8; 64],
        /// The prover's claimed public key.
        claimed_key: [u8; 64],
    },
    /// Verifier → prover: random challenge scalar (transmission "2").
    AuthChallenge {
        /// Challenge scalar, canonical little-endian.
        challenge: [u8; 32],
    },
    /// Prover → verifier: response scalar s.
    AuthResponse {
        /// Response scalar, canonical little-endian.
        s: [u8; 32],
    },
    /// Verifier → prover: accept/reject (transmission "3"), countersigned
    /// by the peer. The signature over the prover's response binds the
    /// decision to this handshake and this peer key — the "authentication
    /// should go both ways" of §III-B, defeating man-in-the-middle and IP
    /// spoofing.
    AuthResult {
        /// Whether the verifier accepted.
        ok: bool,
        /// Schnorr signature by the peer over the handshake transcript
        /// (only meaningful when `ok` is true).
        ack: [u8; 96],
    },
    /// User → peer: start streaming messages of this file ("4" upstream).
    FileRequest {
        /// The requested file.
        file_id: u64,
    },
    /// Peer → user: one stored encoded message (transmissions "4").
    MessageData(EncodedMessage),
    /// User → peer: enough received, stop (transmission "5").
    StopTransmission {
        /// The file to stop.
        file_id: u64,
    },
    /// User → peer: one chunk of the file is fully decoded — skip its
    /// messages (§III-D treats each 1 MB chunk as a separate file, so stops
    /// are chunk-granular; this is what keeps parallel downloading's
    /// redundancy low).
    StopChunk {
        /// The file.
        file_id: u64,
        /// The completed chunk index.
        chunk: u32,
    },
    /// User → home peer: signed contribution report (the periodic feedback
    /// that lets the home peer run Eq. 2 on true received amounts).
    Feedback(FeedbackReport),
    /// User → peer: a message for this chunk failed digest authentication
    /// (tampered or corrupted in transit) — re-serve a message for the
    /// chunk instead of letting the batch silently shrink.
    ReplacementRequest {
        /// The file.
        file_id: u64,
        /// The chunk whose message was rejected.
        chunk: u32,
    },
    /// User → peer: what the user has taken on this connection, the
    /// serving peer's only view of its window (§III: the user tells each
    /// peer when to stop, and a peer knows only what the user sends back).
    Ack {
        /// Id of the newest coded frame taken.
        newest: u64,
        /// Coded frames taken since the connection opened — verified,
        /// rejected or surplus alike.
        taken: u64,
    },
}

/// One contributor's tally inside a feedback report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeedbackEntry {
    /// The contributing peer's public key.
    pub contributor: [u8; 64],
    /// Bytes that peer delivered to the reporting user in the window.
    pub bytes: u64,
}

/// A signed periodic feedback report.
#[derive(Debug, Clone, PartialEq)]
pub struct FeedbackReport {
    /// The reporting user's public key.
    pub reporter: [u8; 64],
    /// End of the reporting window, seconds of simulated/real time.
    pub window_end_secs: u64,
    /// Per-contributor byte tallies.
    pub entries: Vec<FeedbackEntry>,
    /// Schnorr signature over the canonical body.
    pub signature: Signature,
}

impl FeedbackReport {
    /// Builds and signs a report.
    pub fn sign(
        keys: &KeyPair,
        window_end_secs: u64,
        entries: Vec<FeedbackEntry>,
        rng: &mut ChaChaRng,
    ) -> FeedbackReport {
        let reporter = keys.public_key().to_bytes();
        let body = Self::body_bytes(&reporter, window_end_secs, &entries);
        let signature = keys.sign(&body, rng);
        FeedbackReport {
            reporter,
            window_end_secs,
            entries,
            signature,
        }
    }

    /// Verifies the signature against the embedded reporter key.
    pub fn verify(&self) -> Result<(), SystemError> {
        let Some(key) = PublicKey::from_bytes(&self.reporter) else {
            return Err(SystemError::BadFeedbackSignature);
        };
        let body = Self::body_bytes(&self.reporter, self.window_end_secs, &self.entries);
        if schnorr::verify(&key, &body, &self.signature) {
            Ok(())
        } else {
            Err(SystemError::BadFeedbackSignature)
        }
    }

    fn body_bytes(reporter: &[u8; 64], window_end_secs: u64, entries: &[FeedbackEntry]) -> Vec<u8> {
        let mut body = Vec::with_capacity(64 + 8 + entries.len() * 72);
        body.extend_from_slice(b"asymshare.feedback.v1");
        body.extend_from_slice(reporter);
        body.extend_from_slice(&window_end_secs.to_le_bytes());
        for e in entries {
            body.extend_from_slice(&e.contributor);
            body.extend_from_slice(&e.bytes.to_le_bytes());
        }
        body
    }
}

const TAG_AUTH_COMMIT: u8 = 1;
const TAG_AUTH_CHALLENGE: u8 = 2;
const TAG_AUTH_RESPONSE: u8 = 3;
const TAG_AUTH_RESULT: u8 = 4;
const TAG_FILE_REQUEST: u8 = 5;
pub(crate) const TAG_MESSAGE_DATA: u8 = 6;
const TAG_STOP: u8 = 7;
const TAG_FEEDBACK: u8 = 8;
const TAG_STOP_CHUNK: u8 = 9;
const TAG_REPLACEMENT: u8 = 10;
const TAG_ACK: u8 = 11;

fn need(buf: &[u8], n: usize, what: &str) -> Result<(), SystemError> {
    if buf.len() < n {
        Err(SystemError::BadMessage {
            reason: format!("truncated {what}: {} < {n} bytes", buf.len()),
        })
    } else {
        Ok(())
    }
}

impl Wire {
    /// Serializes to the wire format (1-byte tag + body).
    pub fn encode(&self) -> Bytes {
        let mut buf = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut buf);
        Bytes::from(buf)
    }

    /// Appends the wire form to `buf` without allocating intermediates.
    ///
    /// This is the frame-assembly primitive of the zero-copy data plane:
    /// [`Wire::MessageData`] writes its 5-byte framing and 16-byte message
    /// header directly into `buf`, then the payload bytes from the shared
    /// slice — the single payload copy of a send, into the transport's
    /// (pooled) frame buffer. Several frames appended to one buffer form a
    /// coalesced batch whose bytes equal the concatenation of individual
    /// [`encode`](Self::encode) outputs.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        match self {
            Wire::AuthCommit {
                commitment,
                claimed_key,
            } => {
                buf.put_u8(TAG_AUTH_COMMIT);
                buf.put_slice(commitment);
                buf.put_slice(claimed_key);
            }
            Wire::AuthChallenge { challenge } => {
                buf.put_u8(TAG_AUTH_CHALLENGE);
                buf.put_slice(challenge);
            }
            Wire::AuthResponse { s } => {
                buf.put_u8(TAG_AUTH_RESPONSE);
                buf.put_slice(s);
            }
            Wire::AuthResult { ok, ack } => {
                buf.put_u8(TAG_AUTH_RESULT);
                buf.put_u8(*ok as u8);
                buf.put_slice(ack);
            }
            Wire::FileRequest { file_id } => {
                buf.put_u8(TAG_FILE_REQUEST);
                buf.put_u64_le(*file_id);
            }
            Wire::MessageData(msg) => {
                buf.put_u8(TAG_MESSAGE_DATA);
                buf.put_u32_le(msg.wire_len() as u32);
                buf.put_u64_le(msg.file_id().0);
                buf.put_u64_le(msg.message_id().0);
                buf.put_slice(msg.payload());
            }
            Wire::StopTransmission { file_id } => {
                buf.put_u8(TAG_STOP);
                buf.put_u64_le(*file_id);
            }
            Wire::StopChunk { file_id, chunk } => {
                buf.put_u8(TAG_STOP_CHUNK);
                buf.put_u64_le(*file_id);
                buf.put_u32_le(*chunk);
            }
            Wire::ReplacementRequest { file_id, chunk } => {
                buf.put_u8(TAG_REPLACEMENT);
                buf.put_u64_le(*file_id);
                buf.put_u32_le(*chunk);
            }
            Wire::Ack { newest, taken } => {
                buf.put_u8(TAG_ACK);
                buf.put_u64_le(*newest);
                buf.put_u64_le(*taken);
            }
            Wire::Feedback(report) => {
                buf.put_u8(TAG_FEEDBACK);
                buf.put_slice(&report.reporter);
                buf.put_u64_le(report.window_end_secs);
                buf.put_u32_le(report.entries.len() as u32);
                for e in &report.entries {
                    buf.put_slice(&e.contributor);
                    buf.put_u64_le(e.bytes);
                }
                buf.put_slice(&report.signature.to_bytes());
            }
        }
    }

    /// Size of [`encode`](Self::encode)'s output in bytes — what the flow
    /// simulator charges the link for.
    pub fn encoded_len(&self) -> usize {
        1 + match self {
            Wire::AuthCommit { .. } => 128,
            Wire::AuthChallenge { .. } => 32,
            Wire::AuthResponse { .. } => 32,
            Wire::AuthResult { .. } => 97,
            Wire::FileRequest { .. } => 8,
            Wire::MessageData(msg) => 4 + msg.wire_len(),
            Wire::StopTransmission { .. } => 8,
            Wire::StopChunk { .. } => 12,
            Wire::ReplacementRequest { .. } => 12,
            Wire::Ack { .. } => 16,
            Wire::Feedback(report) => 64 + 8 + 4 + report.entries.len() * 72 + 96,
        }
    }

    /// Parses a message from its wire form. Trailing bytes after the first
    /// frame are ignored; use [`decode_prefix`](Self::decode_prefix) to walk
    /// a coalesced batch.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError::BadMessage`] on truncated or unknown input.
    pub fn decode(mut buf: &[u8]) -> Result<Wire, SystemError> {
        need(buf, 1, "tag")?;
        let tag = buf.get_u8();
        match tag {
            TAG_AUTH_COMMIT => {
                need(buf, 128, "auth commit")?;
                let mut commitment = [0u8; 64];
                let mut claimed_key = [0u8; 64];
                buf.copy_to_slice(&mut commitment);
                buf.copy_to_slice(&mut claimed_key);
                Ok(Wire::AuthCommit {
                    commitment,
                    claimed_key,
                })
            }
            TAG_AUTH_CHALLENGE => {
                need(buf, 32, "auth challenge")?;
                let mut challenge = [0u8; 32];
                buf.copy_to_slice(&mut challenge);
                Ok(Wire::AuthChallenge { challenge })
            }
            TAG_AUTH_RESPONSE => {
                need(buf, 32, "auth response")?;
                let mut s = [0u8; 32];
                buf.copy_to_slice(&mut s);
                Ok(Wire::AuthResponse { s })
            }
            TAG_AUTH_RESULT => {
                need(buf, 97, "auth result")?;
                let ok = buf.get_u8() != 0;
                let mut ack = [0u8; 96];
                buf.copy_to_slice(&mut ack);
                Ok(Wire::AuthResult { ok, ack })
            }
            TAG_FILE_REQUEST => {
                need(buf, 8, "file request")?;
                Ok(Wire::FileRequest {
                    file_id: buf.get_u64_le(),
                })
            }
            TAG_MESSAGE_DATA => {
                need(buf, 4, "message length")?;
                let len = buf.get_u32_le() as usize;
                need(buf, len, "message body")?;
                let msg = EncodedMessage::from_wire(&buf[..len]).map_err(|e| {
                    SystemError::BadMessage {
                        reason: format!("inner message: {e}"),
                    }
                })?;
                Ok(Wire::MessageData(msg))
            }
            TAG_STOP => {
                need(buf, 8, "stop")?;
                Ok(Wire::StopTransmission {
                    file_id: buf.get_u64_le(),
                })
            }
            TAG_STOP_CHUNK => {
                need(buf, 12, "stop chunk")?;
                Ok(Wire::StopChunk {
                    file_id: buf.get_u64_le(),
                    chunk: buf.get_u32_le(),
                })
            }
            TAG_REPLACEMENT => {
                need(buf, 12, "replacement request")?;
                Ok(Wire::ReplacementRequest {
                    file_id: buf.get_u64_le(),
                    chunk: buf.get_u32_le(),
                })
            }
            TAG_ACK => {
                need(buf, 16, "ack")?;
                Ok(Wire::Ack {
                    newest: buf.get_u64_le(),
                    taken: buf.get_u64_le(),
                })
            }
            TAG_FEEDBACK => {
                need(buf, 64 + 8 + 4, "feedback header")?;
                let mut reporter = [0u8; 64];
                buf.copy_to_slice(&mut reporter);
                let window_end_secs = buf.get_u64_le();
                let count = buf.get_u32_le() as usize;
                // `count` is untrusted: the body size must be computed with
                // checked math (`count * 72` overflows usize on 32-bit
                // targets) and rejected when it cannot fit the buffer.
                let body_len = count
                    .checked_mul(72)
                    .and_then(|n| n.checked_add(96))
                    .ok_or_else(|| SystemError::BadMessage {
                        reason: "feedback entry count overflows".to_owned(),
                    })?;
                need(buf, body_len, "feedback body")?;
                let mut entries = Vec::with_capacity(count);
                for _ in 0..count {
                    let mut contributor = [0u8; 64];
                    buf.copy_to_slice(&mut contributor);
                    let bytes = buf.get_u64_le();
                    entries.push(FeedbackEntry { contributor, bytes });
                }
                let signature =
                    Signature::from_bytes(&buf[..96]).ok_or_else(|| SystemError::BadMessage {
                        reason: "feedback signature".to_owned(),
                    })?;
                Ok(Wire::Feedback(FeedbackReport {
                    reporter,
                    window_end_secs,
                    entries,
                    signature,
                }))
            }
            other => Err(SystemError::BadMessage {
                reason: format!("unknown tag {other}"),
            }),
        }
    }

    /// Parses the first frame in `buf` and returns it with the number of
    /// bytes it occupied, for walking a coalesced batch of frames.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError::BadMessage`] on truncated or unknown input.
    pub fn decode_prefix(buf: &[u8]) -> Result<(Wire, usize), SystemError> {
        let wire = Wire::decode(buf)?;
        // `decode` reads exactly the declared layout, so the parsed value's
        // encoded length is the number of bytes consumed (pinned by the
        // round-trip tests below).
        let consumed = wire.encoded_len();
        Ok((wire, consumed))
    }

    /// Like [`decode_prefix`](Self::decode_prefix), but parses the frame at
    /// `offset` in a shared buffer: a [`Wire::MessageData`] frame's payload
    /// becomes a sub-slice handle into `buf`'s allocation instead of a copy,
    /// so a received datagram feeds the decoders without materializing any
    /// intermediate `Vec`.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError::BadMessage`] on truncated or unknown input.
    pub fn decode_shared(buf: &Bytes, offset: usize) -> Result<(Wire, usize), SystemError> {
        let frame = &buf[offset..];
        if frame.first() == Some(&TAG_MESSAGE_DATA) {
            let mut rd = &frame[1..];
            need(rd, 4, "message length")?;
            let len = rd.get_u32_le() as usize;
            need(rd, len, "message body")?;
            let body = buf.slice(offset + 5..offset + 5 + len);
            let msg =
                EncodedMessage::from_wire_shared(&body).map_err(|e| SystemError::BadMessage {
                    reason: format!("inner message: {e}"),
                })?;
            Ok((Wire::MessageData(msg), 5 + len))
        } else {
            Wire::decode_prefix(frame)
        }
    }

    /// Wire size of the `MessageData` frame carrying `msg` (tag + u32
    /// length + message), computed without constructing the variant.
    pub fn message_data_frame_len(msg: &EncodedMessage) -> usize {
        1 + 4 + msg.wire_len()
    }
}

/// The transcript a peer countersigns in its [`Wire::AuthResult`]: domain
/// tag, the user's response scalar, and the verdict byte. Binding to the
/// response (which itself depends on the fresh challenge) makes the
/// acknowledgement unreplayable.
pub fn auth_ack_transcript(response_s: &[u8; 32], ok: bool) -> Vec<u8> {
    let mut out = Vec::with_capacity(21 + 32 + 1);
    out.extend_from_slice(b"asymshare.peerack.v1");
    out.extend_from_slice(response_s);
    out.push(ok as u8);
    out
}

/// Converts a challenge scalar to/from its wire bytes.
pub fn challenge_to_bytes(c: &U256) -> [u8; 32] {
    c.to_le_bytes()
}

/// Parses a challenge scalar from wire bytes.
pub fn challenge_from_bytes(b: &[u8; 32]) -> U256 {
    U256::from_le_bytes(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use asymshare_rlnc::{FileId, MessageId};

    fn rng() -> ChaChaRng {
        ChaChaRng::new([3u8; 32], [0u8; 12])
    }

    fn round_trip(w: Wire) {
        let encoded = w.encode();
        assert_eq!(encoded.len(), w.encoded_len(), "declared length matches");
        assert_eq!(Wire::decode(&encoded).unwrap(), w);
    }

    #[test]
    fn all_variants_round_trip() {
        round_trip(Wire::AuthCommit {
            commitment: [7u8; 64],
            claimed_key: [9u8; 64],
        });
        round_trip(Wire::AuthChallenge {
            challenge: [1u8; 32],
        });
        round_trip(Wire::AuthResponse { s: [2u8; 32] });
        round_trip(Wire::AuthResult {
            ok: true,
            ack: [3u8; 96],
        });
        round_trip(Wire::AuthResult {
            ok: false,
            ack: [0u8; 96],
        });
        round_trip(Wire::FileRequest { file_id: 0xDEAD });
        round_trip(Wire::MessageData(EncodedMessage::new(
            FileId(1),
            MessageId(2),
            vec![0xAB; 100],
        )));
        round_trip(Wire::StopTransmission { file_id: 5 });
        round_trip(Wire::StopChunk {
            file_id: 5,
            chunk: 17,
        });
        round_trip(Wire::ReplacementRequest {
            file_id: 5,
            chunk: 17,
        });
        round_trip(Wire::Ack {
            newest: 1 << 40,
            taken: 9,
        });
        let keys = KeyPair::from_secret(U256::from_u64(1234));
        let report = FeedbackReport::sign(
            &keys,
            3600,
            vec![
                FeedbackEntry {
                    contributor: [4u8; 64],
                    bytes: 1_000_000,
                },
                FeedbackEntry {
                    contributor: [5u8; 64],
                    bytes: 42,
                },
            ],
            &mut rng(),
        );
        round_trip(Wire::Feedback(report));
    }

    #[test]
    fn decode_prefix_walks_coalesced_frames() {
        let frames = [
            Wire::FileRequest { file_id: 1 },
            Wire::MessageData(EncodedMessage::new(FileId(1), MessageId(2), vec![9u8; 10])),
            Wire::StopTransmission { file_id: 1 },
        ];
        let mut batch = Vec::new();
        for f in &frames {
            f.encode_into(&mut batch);
        }
        let shared = Bytes::from(batch.clone());
        let mut off = 0;
        for f in &frames {
            let (w, n) = Wire::decode_prefix(&batch[off..]).unwrap();
            assert_eq!(&w, f);
            let (ws, ns) = Wire::decode_shared(&shared, off).unwrap();
            assert_eq!(&ws, f);
            assert_eq!(n, ns);
            off += n;
        }
        assert_eq!(off, batch.len(), "batch fully consumed");
    }

    #[test]
    fn decode_shared_message_payload_views_buffer() {
        let msg = EncodedMessage::new(FileId(1), MessageId(2), vec![0xCD; 64]);
        let frame = Wire::MessageData(msg.clone()).encode();
        let (parsed, consumed) = Wire::decode_shared(&frame, 0).unwrap();
        assert_eq!(consumed, frame.len());
        let Wire::MessageData(got) = parsed else {
            panic!("expected MessageData");
        };
        assert_eq!(got, msg);
        assert_eq!(
            got.payload().as_ptr(),
            frame[5 + 16..].as_ptr(),
            "payload views the frame buffer"
        );
    }

    #[test]
    fn oversized_feedback_count_is_rejected() {
        // A feedback header whose declared entry count would overflow the
        // body-size arithmetic (count * 72) must be rejected, not wrapped
        // into a tiny bogus length.
        let mut frame = vec![0u8; 1 + 64 + 8 + 4 + 96];
        frame[0] = TAG_FEEDBACK;
        frame[73..77].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(Wire::decode(&frame).is_err(), "decode rejects");
        // A count that fits arithmetic but not the buffer is also rejected.
        frame[73..77].copy_from_slice(&1000u32.to_le_bytes());
        assert!(Wire::decode(&frame).is_err());
    }

    #[test]
    fn message_data_frame_len_matches_encoded_len() {
        let msg = EncodedMessage::new(FileId(1), MessageId(2), vec![1u8; 37]);
        assert_eq!(
            Wire::message_data_frame_len(&msg),
            Wire::MessageData(msg).encoded_len()
        );
    }

    #[test]
    fn truncated_inputs_rejected() {
        let w = Wire::FileRequest { file_id: 7 };
        let enc = w.encode();
        for cut in 0..enc.len() {
            assert!(Wire::decode(&enc[..cut]).is_err(), "cut at {cut}");
        }
        assert!(Wire::decode(&[99u8]).is_err(), "unknown tag");
    }

    #[test]
    fn feedback_signature_verifies_and_binds() {
        let keys = KeyPair::from_secret(U256::from_u64(777));
        let mut report = FeedbackReport::sign(
            &keys,
            100,
            vec![FeedbackEntry {
                contributor: [1u8; 64],
                bytes: 500,
            }],
            &mut rng(),
        );
        assert!(report.verify().is_ok());
        // Tamper with the tally: signature must fail.
        report.entries[0].bytes = 5_000_000;
        assert_eq!(report.verify(), Err(SystemError::BadFeedbackSignature));
    }

    #[test]
    fn feedback_with_wrong_reporter_key_fails() {
        let keys = KeyPair::from_secret(U256::from_u64(777));
        let other = KeyPair::from_secret(U256::from_u64(778));
        let mut report = FeedbackReport::sign(&keys, 100, vec![], &mut rng());
        report.reporter = other.public_key().to_bytes();
        assert!(report.verify().is_err());
    }

    #[test]
    fn challenge_bytes_round_trip() {
        let c = U256::from_u64(0xFEED_BEEF);
        assert_eq!(challenge_from_bytes(&challenge_to_bytes(&c)), c);
    }
}
