//! "Same bytes on the wire" as a test: one mutual handshake and one signed
//! feedback report, driven from a fixed `ChaChaRng`, hashed frame by frame
//! and compared with a constant computed at commit 1a53b94 — before the
//! group arithmetic under `schnorr` was replaced (fixed-base table, windowed
//! variable-base multiplication, addition-chain inversion). Scalars, nonces
//! and the order of RNG draws are part of the protocol's observable
//! behaviour; a faster multiplication must change none of them.

use asymshare::{FeedbackEntry, FeedbackReport, Identity, Peer, Prover, Wire};
use asymshare_crypto::chacha20::ChaChaRng;
use asymshare_crypto::sha256::Sha256;

/// SHA-256 over the encodings of commit, challenge, response, countersigned
/// result and feedback report, in that order, as 1a53b94 produced them.
const TRANSCRIPT_AT_1A53B94: &str =
    "9a376a55cea2b77bc7cb7e880125ee5faa8caa4991b0d2252d4776ba80448765";

#[test]
fn handshake_and_feedback_bytes_match_parent_commit() {
    let mut rng = ChaChaRng::new([0x5c; 32], [7u8; 12]);
    let user = Identity::from_seed(b"pin user");
    let home = Identity::from_seed(b"pin peer");
    let mut peer = Peer::new(home.clone(), 1.0);
    peer.add_subscriber(user.public_key().to_bytes());

    let mut prover = Prover::new(user.auth_keys().clone());
    let commit = prover.start(&mut rng);
    let challenge = peer
        .on_message(1, commit.clone(), &mut rng)
        .unwrap()
        .remove(0);
    let response = prover.on_challenge(&challenge).unwrap();
    let result = peer
        .on_message(1, response.clone(), &mut rng)
        .unwrap()
        .remove(0);
    assert!(matches!(result, Wire::AuthResult { ok: true, .. }));
    let entries = vec![FeedbackEntry {
        contributor: home.public_key().to_bytes(),
        bytes: 65_536,
    }];
    let report = FeedbackReport::sign(user.auth_keys(), 30, entries, &mut rng);
    report.verify().expect("own report verifies");

    let mut hash = Sha256::new();
    for wire in [commit, challenge, response, result, Wire::Feedback(report)] {
        hash.update(&wire.encode());
    }
    assert_eq!(hash.finalize().to_hex(), TRANSCRIPT_AT_1A53B94);
}
