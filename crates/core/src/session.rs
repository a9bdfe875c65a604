//! Challenge–response authentication state machines (Fig. 4(b),
//! transmissions "1"–"3"), built on Schnorr identification.

use crate::error::SystemError;
use crate::protocol::{challenge_from_bytes, challenge_to_bytes, Wire};
use asymshare_crypto::chacha20::ChaChaRng;
use asymshare_crypto::schnorr::{CommitNonce, Identification, KeyPair, PublicKey};
use asymshare_crypto::u256::U256;

/// The prover side (a user proving its identity to a peer).
///
/// # Example
///
/// ```rust
/// use asymshare::{Prover, Verifier};
/// use asymshare_crypto::chacha20::ChaChaRng;
/// use asymshare_crypto::schnorr::KeyPair;
/// use asymshare_crypto::u256::U256;
///
/// let mut rng = ChaChaRng::new([1u8; 32], [0u8; 12]);
/// let keys = KeyPair::from_secret(U256::from_u64(42));
///
/// let mut prover = Prover::new(keys.clone());
/// let commit = prover.start(&mut rng);
///
/// let mut verifier = Verifier::new();
/// let challenge = verifier.on_commit(&commit, &mut rng).unwrap();
/// let response = prover.on_challenge(&challenge).unwrap();
/// let who = verifier.on_response(&response).unwrap();
/// assert_eq!(who, keys.public_key());
/// ```
#[derive(Debug)]
pub struct Prover {
    keys: KeyPair,
    nonce: Option<CommitNonce>,
}

impl Prover {
    /// A prover for the given key pair.
    pub fn new(keys: KeyPair) -> Prover {
        Prover { keys, nonce: None }
    }

    /// Move 1: produce the commitment message.
    pub fn start(&mut self, rng: &mut ChaChaRng) -> Wire {
        let (commitment, nonce) = Identification::commit(rng);
        self.nonce = Some(nonce);
        Wire::AuthCommit {
            commitment,
            claimed_key: self.keys.public_key().to_bytes(),
        }
    }

    /// Move 3: answer the verifier's challenge.
    ///
    /// # Errors
    ///
    /// [`SystemError::UnexpectedMessage`] if no commitment is outstanding or
    /// the message is not a challenge.
    pub fn on_challenge(&mut self, wire: &Wire) -> Result<Wire, SystemError> {
        let Wire::AuthChallenge { challenge } = wire else {
            return Err(SystemError::UnexpectedMessage {
                got: format!("{wire:?}"),
                expected: "AuthChallenge".to_owned(),
            });
        };
        let Some(nonce) = self.nonce.take() else {
            return Err(SystemError::UnexpectedMessage {
                got: "AuthChallenge".to_owned(),
                expected: "no outstanding commitment".to_owned(),
            });
        };
        let c = challenge_from_bytes(challenge);
        let s = Identification::respond(&self.keys, &nonce, &c);
        Ok(Wire::AuthResponse { s: s.to_le_bytes() })
    }
}

/// The verifier side (a peer checking a connecting user).
#[derive(Debug, Default)]
pub struct Verifier {
    pending: Option<PendingAuth>,
}

#[derive(Debug)]
struct PendingAuth {
    commitment: [u8; 64],
    claimed: PublicKey,
    challenge: U256,
}

impl Verifier {
    /// A fresh verifier.
    pub fn new() -> Verifier {
        Verifier::default()
    }

    /// Move 2: receive the commitment, emit a random challenge.
    ///
    /// # Errors
    ///
    /// [`SystemError::BadMessage`] for an off-curve or small-order claimed key and
    /// [`SystemError::UnexpectedMessage`] for a non-commit message.
    pub fn on_commit(&mut self, wire: &Wire, rng: &mut ChaChaRng) -> Result<Wire, SystemError> {
        let Wire::AuthCommit {
            commitment,
            claimed_key,
        } = wire
        else {
            return Err(SystemError::UnexpectedMessage {
                got: format!("{wire:?}"),
                expected: "AuthCommit".to_owned(),
            });
        };
        let Some(claimed) = PublicKey::from_bytes(claimed_key) else {
            return Err(SystemError::BadMessage {
                reason: "claimed key is not a curve point of large order".to_owned(),
            });
        };
        let challenge = Identification::challenge(rng);
        self.pending = Some(PendingAuth {
            commitment: *commitment,
            claimed,
            challenge,
        });
        Ok(Wire::AuthChallenge {
            challenge: challenge_to_bytes(&challenge),
        })
    }

    /// Move 4: check the response, returning the now-verified key.
    ///
    /// # Errors
    ///
    /// [`SystemError::AuthenticationRejected`] on a bad response,
    /// [`SystemError::UnexpectedMessage`] if no challenge is outstanding.
    pub fn on_response(&mut self, wire: &Wire) -> Result<PublicKey, SystemError> {
        let Wire::AuthResponse { s } = wire else {
            return Err(SystemError::UnexpectedMessage {
                got: format!("{wire:?}"),
                expected: "AuthResponse".to_owned(),
            });
        };
        let Some(pending) = self.pending.take() else {
            return Err(SystemError::UnexpectedMessage {
                got: "AuthResponse".to_owned(),
                expected: "no outstanding challenge".to_owned(),
            });
        };
        let s = U256::from_le_bytes(s);
        if Identification::verify(
            &pending.claimed,
            &pending.commitment,
            &pending.challenge,
            &s,
        ) {
            Ok(pending.claimed)
        } else {
            Err(SystemError::AuthenticationRejected {
                context: "schnorr response does not verify".to_owned(),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng(seed: u8) -> ChaChaRng {
        ChaChaRng::new([seed; 32], [0u8; 12])
    }

    fn keys(v: u64) -> KeyPair {
        KeyPair::from_secret(U256::from_u64(v))
    }

    #[test]
    fn honest_handshake_succeeds() {
        let mut r = rng(1);
        let kp = keys(7);
        let mut prover = Prover::new(kp.clone());
        let mut verifier = Verifier::new();
        let commit = prover.start(&mut r);
        let challenge = verifier.on_commit(&commit, &mut r).unwrap();
        let response = prover.on_challenge(&challenge).unwrap();
        assert_eq!(verifier.on_response(&response).unwrap(), kp.public_key());
    }

    #[test]
    fn imposter_claiming_foreign_key_fails() {
        let mut r = rng(2);
        let honest = keys(7);
        let imposter = keys(8);
        let mut prover = Prover::new(imposter);
        let mut verifier = Verifier::new();
        // Imposter claims the honest key in its commit.
        let Wire::AuthCommit { commitment, .. } = prover.start(&mut r) else {
            unreachable!()
        };
        let forged = Wire::AuthCommit {
            commitment,
            claimed_key: honest.public_key().to_bytes(),
        };
        let challenge = verifier.on_commit(&forged, &mut r).unwrap();
        let response = prover.on_challenge(&challenge).unwrap();
        assert!(matches!(
            verifier.on_response(&response),
            Err(SystemError::AuthenticationRejected { .. })
        ));
    }

    #[test]
    fn out_of_order_messages_rejected() {
        let mut r = rng(3);
        let mut prover = Prover::new(keys(7));
        // Challenge before commit.
        assert!(prover
            .on_challenge(&Wire::AuthChallenge { challenge: [0; 32] })
            .is_err());
        let mut verifier = Verifier::new();
        // Response before commit.
        assert!(verifier
            .on_response(&Wire::AuthResponse { s: [0; 32] })
            .is_err());
        // Wrong message types entirely.
        assert!(verifier
            .on_commit(&Wire::FileRequest { file_id: 1 }, &mut r)
            .is_err());
    }

    #[test]
    fn replayed_response_fails_fresh_challenge() {
        let mut r = rng(4);
        let kp = keys(7);
        let mut prover = Prover::new(kp.clone());
        let mut verifier = Verifier::new();
        let commit = prover.start(&mut r);
        let challenge = verifier.on_commit(&commit, &mut r).unwrap();
        let response = prover.on_challenge(&challenge).unwrap();
        assert!(verifier.on_response(&response).is_ok());
        // Replay the same commit+response against a new challenge.
        let _ = verifier.on_commit(&commit, &mut r).unwrap();
        assert!(verifier.on_response(&response).is_err());
    }

    #[test]
    fn bad_claimed_key_rejected_early() {
        let mut r = rng(5);
        let mut verifier = Verifier::new();
        let bad = Wire::AuthCommit {
            commitment: [1u8; 64],
            claimed_key: [0xFFu8; 64],
        };
        assert!(matches!(
            verifier.on_commit(&bad, &mut r),
            Err(SystemError::BadMessage { .. })
        ));
    }

    /// The identity (0, 1) is on the curve, but under it `s = r` answers
    /// every challenge: refused like an off-curve key.
    #[test]
    fn identity_claimed_key_rejected_early() {
        let mut claimed_key = [0u8; 64];
        claimed_key[32] = 1;
        let commit = Wire::AuthCommit {
            commitment: keys(3).public_key().to_bytes(),
            claimed_key,
        };
        assert!(matches!(
            Verifier::new().on_commit(&commit, &mut rng(6)),
            Err(SystemError::BadMessage { .. })
        ));
    }
}
