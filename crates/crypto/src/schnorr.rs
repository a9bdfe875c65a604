//! Schnorr identification and signatures over the Ed25519 group — the
//! "classic public-key challenge response system" of the paper's §III-B.
//!
//! The interactive identification protocol (commit → challenge → respond)
//! is what a peer runs against a connecting user before serving messages
//! (transmission "1"/"2" in the paper's Figure 4(b)); the non-interactive
//! Fiat–Shamir signature variant authenticates asynchronous protocol
//! messages such as the user's periodic feedback to its home peer.
//!
//! # Example
//!
//! ```rust
//! use asymshare_crypto::chacha20::ChaChaRng;
//! use asymshare_crypto::schnorr::{Identification, KeyPair};
//!
//! let mut rng = ChaChaRng::new([1u8; 32], [0u8; 12]);
//! let keys = KeyPair::generate(&mut rng);
//!
//! // Prover side.
//! let (commitment, nonce) = Identification::commit(&mut rng);
//! // Verifier side.
//! let challenge = Identification::challenge(&mut rng);
//! // Prover side.
//! let response = Identification::respond(&keys, &nonce, &challenge);
//! // Verifier side.
//! assert!(Identification::verify(&keys.public_key(), &commitment, &challenge, &response));
//! ```

use std::collections::HashMap;
use std::sync::{Arc, LazyLock, Mutex, MutexGuard, PoisonError};

use crate::chacha20::ChaChaRng;
use crate::ed25519::{KeyTable, Point, L};
use crate::sha256::Sha256;
use crate::u256::U256;

const SIG_DOMAIN: &[u8] = b"asymshare.schnorr.sig.v1";

/// A Schnorr public key: a point on the Ed25519 curve together with its
/// canonical 64-byte encoding — the bytes it was parsed from or generated
/// with — so that serialising, hashing and comparing a key never costs a
/// field inversion.
#[derive(Debug, Clone, Copy)]
pub struct PublicKey {
    point: Point,
    bytes: [u8; 64],
}

impl PartialEq for PublicKey {
    /// Encodings are canonical, so equal points have equal bytes.
    fn eq(&self, other: &Self) -> bool {
        self.bytes == other.bytes
    }
}

impl Eq for PublicKey {}

impl PublicKey {
    /// Serializes to 64 bytes.
    pub fn to_bytes(self) -> [u8; 64] {
        self.bytes
    }

    /// Deserializes, rejecting off-curve points, non-canonical coordinates
    /// and points of small order (8·P = O), under which `c·P` takes at most
    /// eight values and a proof needs no secret: under the identity,
    /// `s = r` answers every challenge to `R = r·B`.
    pub fn from_bytes(bytes: &[u8]) -> Option<PublicKey> {
        let point = Point::from_bytes(bytes).filter(|p| !p.has_small_order())?;
        Some(PublicKey {
            point,
            bytes: bytes.try_into().expect("from_bytes accepted 64 bytes"),
        })
    }

    fn from_point(point: Point) -> PublicKey {
        PublicKey {
            point,
            bytes: point.to_bytes(),
        }
    }
}

/// A Schnorr key pair: secret scalar x mod ℓ and public point P = x·B.
#[derive(Clone)]
pub struct KeyPair {
    secret: U256,
    public: PublicKey,
}

impl core::fmt::Debug for KeyPair {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("KeyPair")
            .field("public", &self.public)
            .field("secret", &"..")
            .finish()
    }
}

impl KeyPair {
    /// Generates a key pair from the given entropy source.
    pub fn generate(rng: &mut ChaChaRng) -> KeyPair {
        let secret = random_scalar(rng);
        KeyPair::from_secret(secret)
    }

    /// Reconstructs a key pair from a stored secret scalar (reduced mod ℓ;
    /// zero is mapped to one to keep the key valid).
    pub fn from_secret(secret: U256) -> KeyPair {
        let mut secret = secret.reduce_mod(&L);
        if secret.is_zero() {
            secret = U256::ONE;
        }
        let public = PublicKey::from_point(Point::mul_base(&secret));
        KeyPair { secret, public }
    }

    /// The public key.
    pub fn public_key(&self) -> PublicKey {
        self.public
    }

    /// Signs `message` (Fiat–Shamir transform of the identification
    /// protocol, challenge bound to the public key and message).
    pub fn sign(&self, message: &[u8], rng: &mut ChaChaRng) -> Signature {
        let r = random_scalar(rng);
        let commitment = Point::mul_base(&r).to_bytes();
        let c = challenge_hash(&commitment, &self.public, message);
        let s = r.add_mod(&c.mul_mod(&self.secret, &L), &L);
        Signature { commitment, s }
    }
}

/// A Schnorr signature (R, s).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Signature {
    /// The commitment point R, serialized.
    pub commitment: [u8; 64],
    /// The response scalar s.
    pub s: U256,
}

impl Signature {
    /// Serializes to 96 bytes: R ‖ s.
    pub fn to_bytes(self) -> [u8; 96] {
        let mut out = [0u8; 96];
        out[..64].copy_from_slice(&self.commitment);
        out[64..].copy_from_slice(&self.s.to_le_bytes());
        out
    }

    /// Deserializes from [`to_bytes`](Self::to_bytes) form.
    pub fn from_bytes(bytes: &[u8]) -> Option<Signature> {
        if bytes.len() != 96 {
            return None;
        }
        let mut commitment = [0u8; 64];
        commitment.copy_from_slice(&bytes[..64]);
        Some(Signature {
            commitment,
            s: U256::from_le_bytes(&bytes[64..]),
        })
    }
}

/// Verifies a signature: s·B == R + c·P with c = H(R ‖ P ‖ m).
///
/// R is hashed as received: [`Point::from_bytes`] accepts only the canonical
/// encoding of an on-curve point, so the bytes that passed it are the bytes
/// re-serialising R would give.
pub fn verify(public: &PublicKey, message: &[u8], sig: &Signature) -> bool {
    let Some(big_r) = Point::from_bytes(&sig.commitment) else {
        return false;
    };
    let c = challenge_hash(&sig.commitment, public, message);
    group_equation_holds(public, big_r, &c, &sig.s)
}

/// Whether s < ℓ and s·B == R + c·P, compared projectively (no inversion).
fn group_equation_holds(public: &PublicKey, big_r: Point, c: &U256, s: &U256) -> bool {
    static KNOWN: LazyLock<KnownKeys> = LazyLock::new(KnownKeys::default);
    KNOWN.equation_holds(public, big_r, c, s)
}

/// How many keys [`KnownKeys`] remembers, sightings and tables together:
/// at most 64 × 64 KiB = 4 MiB of tables. A peer verifies its subscribers
/// and a user the peers it fetches from, far fewer than this.
const KNOWN_KEYS: usize = 64;

/// How many verifications under a key multiply by wNAF before one builds
/// the key's table (≈ 2.5–2.9 wNAF multiplications' worth of work): a key
/// seen once never pays for a build.
const WNAF_SIGHTINGS: u64 = 1;

/// The keys this process has verified under, least recently used first out
/// at [`KNOWN_KEYS`], each with its [`KeyTable`] once it has come back:
/// `c·P` is a walk over that table, at most 64 additions where wNAF takes
/// ≈ 253 doublings and 42 additions. A table is built outside the lock.
#[derive(Default)]
struct KnownKeys(Mutex<Sightings>);

#[derive(Default)]
struct Sightings {
    /// Counts lookups: a key's `used` is the count at its last one.
    clock: u64,
    keys: HashMap<[u8; 64], Sighting>,
}

struct Sighting {
    used: u64,
    count: u64,
    table: Option<Arc<KeyTable>>,
}

/// What a lookup found for `c·P`.
enum Known {
    Wnaf,
    Build,
    Table(Arc<KeyTable>),
}

impl KnownKeys {
    fn equation_holds(&self, public: &PublicKey, big_r: Point, c: &U256, s: &U256) -> bool {
        *s < L && Point::mul_base(s) == big_r.add(self.times(public, c))
    }

    /// `c·P` for the key `public`: the same point whichever way it is
    /// computed.
    fn times(&self, public: &PublicKey, c: &U256) -> Point {
        let table = match self.sight(public) {
            Known::Wnaf => return public.point.mul_scalar(c),
            Known::Table(table) => table,
            Known::Build => {
                let table = Arc::new(KeyTable::new(public.point));
                self.lock()
                    .keys
                    .entry(public.bytes)
                    .and_modify(|seen| seen.table = Some(Arc::clone(&table)));
                table
            }
        };
        table.mul(c).unwrap_or_else(|| public.point.mul_scalar(c))
    }

    /// Records a verification under `public` and says how to multiply.
    fn sight(&self, public: &PublicKey) -> Known {
        let mut sightings = self.lock();
        sightings.clock += 1;
        let used = sightings.clock;
        if !sightings.keys.contains_key(&public.bytes) && sightings.keys.len() >= KNOWN_KEYS {
            let oldest = sightings.keys.iter().min_by_key(|(_, seen)| seen.used);
            let oldest = *oldest.expect("a full map has keys").0;
            sightings.keys.remove(&oldest);
        }
        let seen = sightings.keys.entry(public.bytes).or_insert(Sighting {
            used,
            count: 0,
            table: None,
        });
        seen.used = used;
        seen.count += 1;
        match &seen.table {
            Some(table) => Known::Table(Arc::clone(table)),
            None if seen.count > WNAF_SIGHTINGS => Known::Build,
            None => Known::Wnaf,
        }
    }

    /// Every update leaves the map whole, so a panic elsewhere while the
    /// lock was held spoils nothing.
    fn lock(&self) -> MutexGuard<'_, Sightings> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

fn challenge_hash(commitment: &[u8; 64], public: &PublicKey, message: &[u8]) -> U256 {
    let digest = Sha256::digest_parts(&[SIG_DOMAIN, commitment, &public.bytes, message]);
    U256::from_le_bytes(&digest.0).reduce_mod(&L)
}

fn random_scalar(rng: &mut ChaChaRng) -> U256 {
    loop {
        let mut bytes = [0u8; 32];
        rng.fill_bytes(&mut bytes);
        let s = U256::from_le_bytes(&bytes).reduce_mod(&L);
        if !s.is_zero() {
            return s;
        }
    }
}

/// The interactive identification protocol, split into its four moves so the
/// networking layer can interleave them with transport messages.
#[derive(Debug)]
pub struct Identification;

/// A prover's ephemeral commitment nonce; must be used for exactly one run.
#[derive(Clone)]
pub struct CommitNonce(U256);

impl core::fmt::Debug for CommitNonce {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str("CommitNonce(..)")
    }
}

impl Identification {
    /// Prover move 1: pick nonce r, send commitment R = r·B.
    pub fn commit(rng: &mut ChaChaRng) -> ([u8; 64], CommitNonce) {
        let r = random_scalar(rng);
        (Point::mul_base(&r).to_bytes(), CommitNonce(r))
    }

    /// Verifier move 2: pick a random challenge scalar.
    pub fn challenge(rng: &mut ChaChaRng) -> U256 {
        random_scalar(rng)
    }

    /// Prover move 3: respond s = r + c·x mod ℓ.
    pub fn respond(keys: &KeyPair, nonce: &CommitNonce, challenge: &U256) -> U256 {
        nonce.0.add_mod(&challenge.mul_mod(&keys.secret, &L), &L)
    }

    /// Verifier move 4: accept iff s·B == R + c·P.
    pub fn verify(public: &PublicKey, commitment: &[u8; 64], challenge: &U256, s: &U256) -> bool {
        Point::from_bytes(commitment)
            .is_some_and(|big_r| group_equation_holds(public, big_r, challenge, s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng(seed: u8) -> ChaChaRng {
        ChaChaRng::new([seed; 32], [0u8; 12])
    }

    #[test]
    fn identification_accepts_honest_prover() {
        let mut r = rng(1);
        let keys = KeyPair::generate(&mut r);
        for _ in 0..4 {
            let (commitment, nonce) = Identification::commit(&mut r);
            let c = Identification::challenge(&mut r);
            let s = Identification::respond(&keys, &nonce, &c);
            assert!(Identification::verify(
                &keys.public_key(),
                &commitment,
                &c,
                &s
            ));
        }
    }

    #[test]
    fn identification_rejects_wrong_key() {
        let mut r = rng(2);
        let honest = KeyPair::generate(&mut r);
        let imposter = KeyPair::generate(&mut r);
        let (commitment, nonce) = Identification::commit(&mut r);
        let c = Identification::challenge(&mut r);
        // Imposter responds with its own secret but claims honest's identity.
        let s = Identification::respond(&imposter, &nonce, &c);
        assert!(!Identification::verify(
            &honest.public_key(),
            &commitment,
            &c,
            &s
        ));
    }

    #[test]
    fn identification_rejects_replayed_response_on_new_challenge() {
        let mut r = rng(3);
        let keys = KeyPair::generate(&mut r);
        let (commitment, nonce) = Identification::commit(&mut r);
        let c1 = Identification::challenge(&mut r);
        let s1 = Identification::respond(&keys, &nonce, &c1);
        let c2 = Identification::challenge(&mut r);
        assert_ne!(c1, c2);
        assert!(!Identification::verify(
            &keys.public_key(),
            &commitment,
            &c2,
            &s1
        ));
    }

    #[test]
    fn signature_round_trip() {
        let mut r = rng(4);
        let keys = KeyPair::generate(&mut r);
        let sig = keys.sign(b"feedback: received 12 messages", &mut r);
        assert!(verify(
            &keys.public_key(),
            b"feedback: received 12 messages",
            &sig
        ));
        assert!(!verify(
            &keys.public_key(),
            b"feedback: received 13 messages",
            &sig
        ));
    }

    #[test]
    fn signature_rejects_wrong_signer() {
        let mut r = rng(5);
        let a = KeyPair::generate(&mut r);
        let b = KeyPair::generate(&mut r);
        let sig = a.sign(b"msg", &mut r);
        assert!(!verify(&b.public_key(), b"msg", &sig));
    }

    #[test]
    fn signature_serialization_round_trips() {
        let mut r = rng(6);
        let keys = KeyPair::generate(&mut r);
        let sig = keys.sign(b"m", &mut r);
        let back = Signature::from_bytes(&sig.to_bytes()).expect("96 bytes");
        assert_eq!(sig, back);
        assert!(Signature::from_bytes(&[0u8; 95]).is_none());
    }

    #[test]
    fn tampered_signature_fails() {
        let mut r = rng(7);
        let keys = KeyPair::generate(&mut r);
        let mut sig = keys.sign(b"m", &mut r);
        sig.s = sig.s.add_mod(&U256::ONE, &L);
        assert!(!verify(&keys.public_key(), b"m", &sig));
    }

    #[test]
    fn public_key_round_trips() {
        let mut r = rng(8);
        let keys = KeyPair::generate(&mut r);
        let pk = keys.public_key();
        assert_eq!(PublicKey::from_bytes(&pk.to_bytes()), Some(pk));
    }

    #[test]
    fn from_secret_is_deterministic() {
        let k1 = KeyPair::from_secret(U256::from_u64(12345));
        let k2 = KeyPair::from_secret(U256::from_u64(12345));
        assert_eq!(k1.public_key(), k2.public_key());
        let k3 = KeyPair::from_secret(U256::ZERO); // degenerate input handled
        assert_eq!(k3.secret, U256::ONE);
    }

    /// The cost model, in field inversions (≈ 265 field multiplications
    /// each): a move inverts once per point it *serialises* and never to
    /// verify. Counts, not timings, so they hold on any machine.
    #[test]
    fn inversions_per_move_are_pinned() {
        use crate::fe25519::inv_calls;
        fn inversions<T>(f: impl FnOnce() -> T) -> (u64, T) {
            let before = inv_calls();
            let out = f();
            (inv_calls() - before, out)
        }
        let mut r = rng(10);
        // The fixed-base table's one-time build inverts once, on whichever
        // thread gets there first; have it over with.
        Point::mul_base(&U256::ONE);

        let (n, keys) = inversions(|| KeyPair::from_secret(U256::from_u64(77)));
        assert_eq!(n, 1, "KeyPair::from_secret serialises the public key once");
        let (n, pk) = inversions(|| keys.public_key().to_bytes());
        assert_eq!(n, 0, "PublicKey::to_bytes is a copy");
        let (n, parsed) = inversions(|| PublicKey::from_bytes(&pk));
        assert_eq!((n, parsed), (0, Some(keys.public_key())));

        let (n, (commitment, nonce)) = inversions(|| Identification::commit(&mut r));
        assert_eq!(n, 1, "commit serialises R");
        let c = Identification::challenge(&mut r);
        let (n, s) = inversions(|| Identification::respond(&keys, &nonce, &c));
        assert_eq!(n, 0);
        let (n, ok) =
            inversions(|| Identification::verify(&keys.public_key(), &commitment, &c, &s));
        assert_eq!(
            (n, ok),
            (0, true),
            "Identification::verify compares projectively"
        );

        let (n, sig) = inversions(|| keys.sign(b"m", &mut r));
        assert_eq!(n, 1, "sign serialises R once and hashes those bytes");
        let (n, ok) = inversions(|| verify(&keys.public_key(), b"m", &sig));
        assert_eq!((n, ok), (0, true), "verify hashes R and P as received");
    }

    /// `verify` hashes the commitment bytes it was handed, which is sound
    /// only because nothing but the canonical encoding of an on-curve point
    /// gets as far as the hash.
    #[test]
    fn non_canonical_or_off_curve_commitment_rejected() {
        let mut r = rng(11);
        let keys = KeyPair::generate(&mut r);
        let sig = keys.sign(b"m", &mut r);
        assert!(verify(&keys.public_key(), b"m", &sig));

        // The same point with x written as x + p (still below 2^256).
        let x = U256::from_le_bytes(&sig.commitment[..32]);
        let (x_plus_p, overflow) = x.overflowing_add(&crate::fe25519::P);
        assert!(!overflow);
        let mut alias = sig;
        alias.commitment[..32].copy_from_slice(&x_plus_p.to_le_bytes());
        assert!(Point::from_bytes(&alias.commitment).is_none());
        assert!(!verify(&keys.public_key(), b"m", &alias));

        let mut off_curve = sig;
        off_curve.commitment[0] ^= 1;
        assert!(!verify(&keys.public_key(), b"m", &off_curve));

        let (commitment, nonce) = Identification::commit(&mut r);
        let c = Identification::challenge(&mut r);
        let s = Identification::respond(&keys, &nonce, &c);
        let mut alias = commitment;
        let x = U256::from_le_bytes(&commitment[..32]);
        alias[..32].copy_from_slice(&x.overflowing_add(&crate::fe25519::P).0.to_le_bytes());
        assert!(Identification::verify(
            &keys.public_key(),
            &commitment,
            &c,
            &s
        ));
        assert!(!Identification::verify(&keys.public_key(), &alias, &c, &s));
    }

    #[test]
    fn public_key_bytes_are_the_points_own_serialisation() {
        let mut r = rng(12);
        let keys = KeyPair::generate(&mut r);
        let pk = keys.public_key();
        assert_eq!(pk.to_bytes(), pk.point.to_bytes());
        let parsed = PublicKey::from_bytes(&pk.to_bytes()).unwrap();
        assert_eq!(parsed.point, pk.point);
        assert_eq!(parsed.to_bytes(), parsed.point.to_bytes());
        assert_ne!(pk, KeyPair::generate(&mut r).public_key());
    }

    /// Under a small-order key `c·P` takes at most eight values, so a
    /// proof needs no secret; such keys are refused where they are parsed,
    /// while a key with a small-order component (mixed order) is kept.
    #[test]
    fn small_order_keys_are_refused() {
        let t = crate::ed25519::tests::order_eight();
        let mut r = rng(13);
        let (commitment, nonce) = Identification::commit(&mut r);
        let c = Identification::challenge(&mut r);
        // The forgery the refusal prevents: under the identity, s = r
        // answers any challenge.
        let identity = PublicKey::from_point(Point::identity());
        assert!(KnownKeys::default().equation_holds(
            &identity,
            Point::from_bytes(&commitment).unwrap(),
            &c,
            &nonce.0
        ));
        for small in [Point::identity(), t, t.double().double()] {
            assert_eq!(PublicKey::from_bytes(&small.to_bytes()), None);
        }
        let mixed = KeyPair::generate(&mut r).public_key().point.add(t);
        assert!(PublicKey::from_bytes(&mixed.to_bytes()).is_some());
    }

    /// A genuine proof and the same proof with `s`, `c` or `R` tampered:
    /// one verdict each, by wNAF and by the key's table.
    #[test]
    fn verdicts_are_the_same_before_and_after_a_keys_table() {
        let mut r = rng(14);
        let keys = KeyPair::generate(&mut r);
        let pk = keys.public_key();
        let (commitment, nonce) = Identification::commit(&mut r);
        let c = Identification::challenge(&mut r);
        let s = Identification::respond(&keys, &nonce, &c);
        let big_r = Point::from_bytes(&commitment).unwrap();
        let other_r = Point::from_bytes(&Identification::commit(&mut r).0).unwrap();
        let one_more = |v: &U256| v.add_mod(&U256::ONE, &L);
        let cases = [
            (big_r, c, s),
            (big_r, c, one_more(&s)),
            (big_r, one_more(&c), s),
            (other_r, c, s),
        ];
        // A fresh map per case: every check is a key's first, by wNAF.
        let before = cases.map(|(big_r, c, s)| {
            let known = KnownKeys::default();
            let verdict = known.equation_holds(&pk, big_r, &c, &s);
            assert!(known.lock().keys[&pk.bytes].table.is_none());
            verdict
        });
        assert_eq!(before, [true, false, false, false]);
        let known = KnownKeys::default();
        for _ in 0..=WNAF_SIGHTINGS {
            assert!(known.equation_holds(&pk, big_r, &c, &s));
        }
        assert!(known.lock().keys[&pk.bytes].table.is_some());
        let after = cases.map(|(big_r, c, s)| known.equation_holds(&pk, big_r, &c, &s));
        assert_eq!(after, before);
    }

    #[test]
    fn known_keys_never_exceed_their_capacity() {
        let mut r = rng(15);
        let known = KnownKeys::default();
        let keys: Vec<KeyPair> = (0..=KNOWN_KEYS as u64)
            .map(|secret| KeyPair::from_secret(U256::from_u64(secret + 2)))
            .collect();
        for keys in &keys {
            let (commitment, nonce) = Identification::commit(&mut r);
            let c = Identification::challenge(&mut r);
            let s = Identification::respond(keys, &nonce, &c);
            let big_r = Point::from_bytes(&commitment).unwrap();
            for _ in 0..=WNAF_SIGHTINGS {
                assert!(known.equation_holds(&keys.public_key(), big_r, &c, &s));
                assert!(known.lock().keys.len() <= KNOWN_KEYS);
            }
            assert!(known.lock().keys[&keys.public_key().bytes].table.is_some());
        }
        // The least recently used key made room for the last.
        let map = known.lock();
        assert_eq!(map.keys.len(), KNOWN_KEYS);
        assert!(!map.keys.contains_key(&keys[0].public_key().bytes));
    }

    #[test]
    fn oversized_response_scalar_rejected() {
        let mut r = rng(9);
        let keys = KeyPair::generate(&mut r);
        let (commitment, nonce) = Identification::commit(&mut r);
        let c = Identification::challenge(&mut r);
        let s = Identification::respond(&keys, &nonce, &c);
        // s + ℓ encodes the same residue but must be rejected as non-canonical.
        let (s_plus_l, overflow) = s.overflowing_add(&L);
        if !overflow {
            assert!(!Identification::verify(
                &keys.public_key(),
                &commitment,
                &c,
                &s_plus_l
            ));
        }
    }
}
