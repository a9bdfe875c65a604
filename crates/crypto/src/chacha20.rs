//! ChaCha20 block function (RFC 8439) used as a keyed, seekable PRNG.
//!
//! The paper draws coding coefficients from "a cryptographically strong
//! random number generator … seeded with a cryptographic hash of *i*, and a
//! secret key" (§III-A). [`ChaChaRng`] is that generator: keyed with 32
//! bytes, nonce-separated per message, and deterministic so that the file
//! owner can regenerate any coefficient row on demand (the β's are never
//! transmitted — they *are* the secret).

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;
use std::sync::{Mutex, OnceLock, PoisonError};

const CONSTANTS: [u32; 4] = [0x61707865, 0x3320646e, 0x79622d32, 0x6b206574];

#[inline]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

/// Computes one 64-byte ChaCha20 block for (key, counter, nonce).
pub fn block(key: &[u8; 32], counter: u32, nonce: &[u8; 12]) -> [u8; 64] {
    let mut state = [0u32; 16];
    state[..4].copy_from_slice(&CONSTANTS);
    for i in 0..8 {
        state[4 + i] =
            u32::from_le_bytes([key[i * 4], key[i * 4 + 1], key[i * 4 + 2], key[i * 4 + 3]]);
    }
    state[12] = counter;
    for i in 0..3 {
        state[13 + i] = u32::from_le_bytes([
            nonce[i * 4],
            nonce[i * 4 + 1],
            nonce[i * 4 + 2],
            nonce[i * 4 + 3],
        ]);
    }
    let mut working = state;
    for _ in 0..10 {
        quarter_round(&mut working, 0, 4, 8, 12);
        quarter_round(&mut working, 1, 5, 9, 13);
        quarter_round(&mut working, 2, 6, 10, 14);
        quarter_round(&mut working, 3, 7, 11, 15);
        quarter_round(&mut working, 0, 5, 10, 15);
        quarter_round(&mut working, 1, 6, 11, 12);
        quarter_round(&mut working, 2, 7, 8, 13);
        quarter_round(&mut working, 3, 4, 9, 14);
    }
    let mut out = [0u8; 64];
    for i in 0..16 {
        let word = working[i].wrapping_add(state[i]);
        out[i * 4..(i + 1) * 4].copy_from_slice(&word.to_le_bytes());
    }
    out
}

/// A deterministic keyed PRNG built on the ChaCha20 block function.
///
/// # Example
///
/// ```rust
/// use asymshare_crypto::chacha20::ChaChaRng;
///
/// let mut a = ChaChaRng::new([7u8; 32], [1u8; 12]);
/// let mut b = ChaChaRng::new([7u8; 32], [1u8; 12]);
/// assert_eq!(a.next_u64(), b.next_u64()); // same key+nonce => same stream
/// ```
#[derive(Debug, Clone)]
pub struct ChaChaRng {
    key: [u8; 32],
    nonce: [u8; 12],
    counter: u32,
    buffer: [u8; 64],
    offset: usize,
}

impl ChaChaRng {
    /// A generator for the given key and stream nonce.
    pub fn new(key: [u8; 32], nonce: [u8; 12]) -> Self {
        ChaChaRng {
            key,
            nonce,
            counter: 0,
            buffer: [0u8; 64],
            offset: 64,
        }
    }

    /// A generator on a key no other call gets, for nonces and challenges:
    /// the next 32 bytes of one process-wide stream, keyed once from the
    /// operating system's entropy (the random keys of std's `RandomState`).
    pub fn from_entropy() -> Self {
        static POOL: OnceLock<Mutex<ChaChaRng>> = OnceLock::new();
        let pool = POOL.get_or_init(|| {
            let state = RandomState::new();
            let mut key = [0u8; 32];
            for (i, word) in key.chunks_exact_mut(8).enumerate() {
                word.copy_from_slice(&state.hash_one(i).to_le_bytes());
            }
            Mutex::new(ChaChaRng::new(key, *b"from-entropy"))
        });
        let mut key = [0u8; 32];
        let mut pool = pool.lock().unwrap_or_else(PoisonError::into_inner);
        pool.fill_bytes(&mut key);
        ChaChaRng::new(key, [0; 12])
    }

    /// Fills `dest` with pseudorandom bytes.
    pub fn fill_bytes(&mut self, dest: &mut [u8]) {
        for byte in dest.iter_mut() {
            if self.offset == 64 {
                self.buffer = block(&self.key, self.counter, &self.nonce);
                self.counter = self
                    .counter
                    .checked_add(1)
                    .expect("ChaCha20 stream exhausted (256 GiB)");
                self.offset = 0;
            }
            *byte = self.buffer[self.offset];
            self.offset += 1;
        }
    }

    /// Next pseudorandom `u64`.
    pub fn next_u64(&mut self) -> u64 {
        let mut buf = [0u8; 8];
        self.fill_bytes(&mut buf);
        u64::from_le_bytes(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // RFC 8439 §2.3.2 test vector.
    #[test]
    fn rfc8439_block_vector() {
        let mut key = [0u8; 32];
        for (i, k) in key.iter_mut().enumerate() {
            *k = i as u8;
        }
        let nonce = [0, 0, 0, 0x09, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let out = block(&key, 1, &nonce);
        let expect_first16 = [
            0x10u8, 0xf1, 0xe7, 0xe4, 0xd1, 0x3b, 0x59, 0x15, 0x50, 0x0f, 0xdd, 0x1f, 0xa3, 0x20,
            0x71, 0xc4,
        ];
        assert_eq!(&out[..16], &expect_first16);
        let expect_last4 = [0xa2u8, 0x50, 0x3c, 0x4e];
        assert_eq!(&out[60..], &expect_last4);
    }

    #[test]
    fn streams_differ_by_nonce_and_key() {
        let mut a = ChaChaRng::new([1u8; 32], [0u8; 12]);
        let mut b = ChaChaRng::new([1u8; 32], [1u8; 12]);
        let mut c = ChaChaRng::new([2u8; 32], [0u8; 12]);
        let (x, y, z) = (a.next_u64(), b.next_u64(), c.next_u64());
        assert_ne!(x, y);
        assert_ne!(x, z);
        assert_ne!(y, z);
    }

    #[test]
    fn fill_is_prefix_consistent() {
        let mut a = ChaChaRng::new([9u8; 32], [3u8; 12]);
        let mut big = [0u8; 100];
        a.fill_bytes(&mut big);

        let mut b = ChaChaRng::new([9u8; 32], [3u8; 12]);
        let mut first = [0u8; 37];
        let mut rest = [0u8; 63];
        b.fill_bytes(&mut first);
        b.fill_bytes(&mut rest);
        assert_eq!(&big[..37], &first);
        assert_eq!(&big[37..], &rest);
    }
}
