//! MD5 (RFC 1321), implemented from the specification.
//!
//! The paper stores a 128-bit MD5 digest per encoded message for on-the-fly
//! authentication (§III-C); we implement MD5 faithfully for that role. MD5 is
//! cryptographically broken by modern standards — the sibling
//! [`sha256`](crate::sha256) module is offered as the drop-in stronger
//! alternative, and the message-authentication layer in `asymshare-rlnc` is
//! generic over the digest.
//!
//! # Example
//!
//! ```rust
//! use asymshare_crypto::md5::Md5;
//!
//! let digest = Md5::digest(b"abc");
//! assert_eq!(
//!     digest.to_hex(),
//!     "900150983cd24fb0d6963f7d28e17f72"
//! );
//! ```

/// A 128-bit MD5 digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Digest128(pub [u8; 16]);

impl Digest128 {
    /// Lowercase hex rendering.
    pub fn to_hex(&self) -> String {
        self.0.iter().map(|b| format!("{b:02x}")).collect()
    }
}

impl core::fmt::Display for Digest128 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl AsRef<[u8]> for Digest128 {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

const K: [u32; 64] = [
    0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee, 0xf57c0faf, 0x4787c62a, 0xa8304613, 0xfd469501,
    0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be, 0x6b901122, 0xfd987193, 0xa679438e, 0x49b40821,
    0xf61e2562, 0xc040b340, 0x265e5a51, 0xe9b6c7aa, 0xd62f105d, 0x02441453, 0xd8a1e681, 0xe7d3fbc8,
    0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed, 0xa9e3e905, 0xfcefa3f8, 0x676f02d9, 0x8d2a4c8a,
    0xfffa3942, 0x8771f681, 0x6d9d6122, 0xfde5380c, 0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70,
    0x289b7ec6, 0xeaa127fa, 0xd4ef3085, 0x04881d05, 0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665,
    0xf4292244, 0x432aff97, 0xab9423a7, 0xfc93a039, 0x655b59c3, 0x8f0ccc92, 0xffeff47d, 0x85845dd1,
    0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1, 0xf7537e82, 0xbd3af235, 0x2ad7d2bb, 0xeb86d391,
];

/// Streaming MD5 hasher.
///
/// # Example
///
/// ```rust
/// use asymshare_crypto::md5::Md5;
///
/// let mut h = Md5::new();
/// h.update(b"ab");
/// h.update(b"c");
/// assert_eq!(h.finalize(), Md5::digest(b"abc"));
/// ```
#[derive(Debug, Clone)]
pub struct Md5(Hasher<1>);

impl Default for Md5 {
    fn default() -> Self {
        Self::new()
    }
}

impl Md5 {
    /// A fresh hasher.
    pub fn new() -> Self {
        Md5(Hasher::new())
    }

    /// One-shot digest of `data`.
    pub fn digest(data: &[u8]) -> Digest128 {
        let mut h = Md5::new();
        h.update(data);
        h.finalize()
    }

    /// Absorbs more input.
    pub fn update(&mut self, data: &[u8]) {
        self.0.update([data]);
    }

    /// Finishes and returns the digest, consuming the hasher state.
    pub fn finalize(self) -> Digest128 {
        let [digest] = self.0.finalize();
        digest
    }
}

/// Four streaming MD5 hashers advanced in lockstep over four inputs of
/// equal length: every step of the compression function runs once on
/// registers that hold one 32-bit word per input. The release build lowers
/// the four words to four independent scalar chains, which the core runs
/// side by side. Lane `i` of the result is exactly [`Md5`]'s digest of
/// input `i`.
///
/// # Example
///
/// ```rust
/// use asymshare_crypto::md5::{Md5, Md5x4};
///
/// let mut h = Md5x4::new();
/// h.update([b"head", b"HEAD", b"hEAD", b"Head"]);
/// h.update([b"-one", b"-two", b"-3.0", b"-iv."]);
/// let digests = h.finalize();
/// assert_eq!(digests[1], Md5::digest(b"HEAD-two"));
/// assert_eq!(digests[3], Md5::digest(b"Head-iv."));
/// ```
#[derive(Debug, Clone)]
pub struct Md5x4(Hasher<4>);

impl Default for Md5x4 {
    fn default() -> Self {
        Self::new()
    }
}

impl Md5x4 {
    /// Four fresh hashers.
    pub fn new() -> Self {
        Md5x4(Hasher::new())
    }

    /// Absorbs the next piece of each input.
    ///
    /// # Panics
    ///
    /// Panics if the four pieces differ in length.
    pub fn update(&mut self, data: [&[u8]; 4]) {
        self.0.update(data);
    }

    /// Finishes and returns the four digests, in input order.
    pub fn finalize(self) -> [Digest128; 4] {
        self.0.finalize()
    }
}

/// `N` MD5 computations over inputs of equal length, sharing one block
/// position: the chaining state holds `N` words per register and the
/// unfilled-block tail is kept per lane at one common fill level.
#[derive(Debug, Clone)]
struct Hasher<const N: usize> {
    state: [Lanes<N>; 4],
    buffer: [[u8; 64]; N],
    buffered: usize,
    length_bytes: u64,
}

impl<const N: usize> Hasher<N> {
    fn new() -> Self {
        Hasher {
            state: [0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476].map(Lanes::splat),
            buffer: [[0u8; 64]; N],
            buffered: 0,
            length_bytes: 0,
        }
    }

    /// Compresses the (full) tail buffers as the next block of every lane.
    fn compress_buffer(&mut self) {
        compress(&mut self.state, self.buffer.each_ref().map(|b| &b[..]));
    }

    fn update(&mut self, mut data: [&[u8]; N]) {
        let len = data[0].len();
        assert!(
            data.iter().all(|lane| lane.len() == len),
            "lanes of unequal length"
        );
        self.length_bytes = self.length_bytes.wrapping_add(len as u64);
        if self.buffered > 0 {
            let take = (64 - self.buffered).min(len);
            for (buffer, lane) in self.buffer.iter_mut().zip(&mut data) {
                buffer[self.buffered..self.buffered + take].copy_from_slice(&lane[..take]);
                *lane = &lane[take..];
            }
            self.buffered += take;
            if self.buffered < 64 {
                return;
            }
            self.compress_buffer();
            self.buffered = 0;
        }
        // Whole blocks are compressed where they lie in the input.
        let tail = data[0].len() % 64;
        let whole = data[0].len() - tail;
        compress(&mut self.state, data.map(|lane| &lane[..whole]));
        for (buffer, lane) in self.buffer.iter_mut().zip(data) {
            buffer[..tail].copy_from_slice(&lane[whole..]);
        }
        self.buffered = tail;
    }

    fn finalize(mut self) -> [Digest128; N] {
        let bit_len = self.length_bytes.wrapping_mul(8).to_le_bytes();
        // `buffered < 64` always holds between calls, so the 0x80 fits.
        for buffer in &mut self.buffer {
            buffer[self.buffered] = 0x80;
            buffer[self.buffered + 1..].fill(0);
        }
        if self.buffered >= 56 {
            // No room left for the length: it goes in a block of its own.
            self.compress_buffer();
            self.buffer = [[0u8; 64]; N];
        }
        for buffer in &mut self.buffer {
            buffer[56..].copy_from_slice(&bit_len);
        }
        self.compress_buffer();
        core::array::from_fn(|lane| {
            let mut out = [0u8; 16];
            for (bytes, word) in out.chunks_exact_mut(4).zip(&self.state) {
                bytes.copy_from_slice(&word.0[lane].to_le_bytes());
            }
            Digest128(out)
        })
    }
}

/// One 32-bit word per lane. Every operation is element-wise. On the
/// baseline x86-64 target the release build does not vectorise `N = 4`:
/// `compress::<4>` is four interleaved scalar chains (`roll`/`addl`, no
/// `paddd`), and its gain over `N = 1`, the plain `u32` operation, is
/// instruction-level parallelism between chains that never wait on each
/// other.
#[derive(Debug, Clone, Copy)]
struct Lanes<const N: usize>([u32; N]);

impl<const N: usize> Lanes<N> {
    #[inline(always)]
    fn splat(word: u32) -> Self {
        Lanes([word; N])
    }

    #[inline(always)]
    fn zip(self, rhs: Self, op: impl Fn(u32, u32) -> u32) -> Self {
        Lanes(core::array::from_fn(|lane| op(self.0[lane], rhs.0[lane])))
    }

    #[inline(always)]
    fn wrapping_add(self, rhs: Self) -> Self {
        self.zip(rhs, u32::wrapping_add)
    }

    #[inline(always)]
    fn rotate_left(self, n: u32) -> Self {
        Lanes(self.0.map(|word| word.rotate_left(n)))
    }
}

impl<const N: usize> core::ops::BitAnd for Lanes<N> {
    type Output = Self;
    #[inline(always)]
    fn bitand(self, rhs: Self) -> Self {
        self.zip(rhs, |a, b| a & b)
    }
}

impl<const N: usize> core::ops::BitOr for Lanes<N> {
    type Output = Self;
    #[inline(always)]
    fn bitor(self, rhs: Self) -> Self {
        self.zip(rhs, |a, b| a | b)
    }
}

impl<const N: usize> core::ops::BitXor for Lanes<N> {
    type Output = Self;
    #[inline(always)]
    fn bitxor(self, rhs: Self) -> Self {
        self.zip(rhs, |a, b| a ^ b)
    }
}

impl<const N: usize> core::ops::Not for Lanes<N> {
    type Output = Self;
    #[inline(always)]
    fn not(self) -> Self {
        Lanes(self.0.map(|word| !word))
    }
}

// RFC 1321's four auxiliary functions F, G, H, I, in the forms with the
// shortest dependency chain on `b` (the value the previous step has only
// just produced).
#[inline(always)]
fn mix_f<const N: usize>(b: Lanes<N>, c: Lanes<N>, d: Lanes<N>) -> Lanes<N> {
    d ^ (b & (c ^ d))
}
#[inline(always)]
fn mix_g<const N: usize>(b: Lanes<N>, c: Lanes<N>, d: Lanes<N>) -> Lanes<N> {
    // The two terms never share a set bit, so `+` equals `|` and lets the
    // `!d & c` half be folded into the running sum before `b` is ready.
    (d & b).wrapping_add(!d & c)
}
#[inline(always)]
fn mix_h<const N: usize>(b: Lanes<N>, c: Lanes<N>, d: Lanes<N>) -> Lanes<N> {
    b ^ c ^ d
}
#[inline(always)]
fn mix_i<const N: usize>(b: Lanes<N>, c: Lanes<N>, d: Lanes<N>) -> Lanes<N> {
    c ^ (b | !d)
}

/// One MD5 step: `a = b + ((a + fn(b, c, d) + m + k) <<< s)`. The caller
/// rotates the roles of the four registers instead of moving their values.
macro_rules! step {
    ($func:ident, $a:ident, $b:ident, $c:ident, $d:ident, $m:expr, $s:literal, $k:expr) => {
        $a = $b.wrapping_add(
            $a.wrapping_add($m)
                .wrapping_add(Lanes::splat($k))
                .wrapping_add($func($b, $c, $d))
                .rotate_left($s),
        );
    };
}

/// Runs the compression function over every 64-byte block of the `N`
/// inputs in lockstep (their common length must be a multiple of 64),
/// reading the message words straight from the slices. All 64 steps are
/// written out with their shift amounts and message-word indices as
/// constants, so the chaining state stays in registers across steps and
/// across blocks. This is the only copy of the steps: [`Md5`] runs it at
/// one lane, [`Md5x4`] at four.
fn compress<const N: usize>(state: &mut [Lanes<N>; 4], blocks: [&[u8]; N]) {
    let len = blocks[0].len();
    debug_assert_eq!(len % 64, 0);
    debug_assert!(blocks.iter().all(|lane| lane.len() == len));
    let [mut a, mut b, mut c, mut d] = *state;
    for at in (0..len).step_by(64) {
        let block: [&[u8; 64]; N] = core::array::from_fn(|lane| {
            blocks[lane][at..at + 64].try_into().expect("64-byte block")
        });
        let m: [Lanes<N>; 16] = core::array::from_fn(|word| {
            Lanes(block.map(|bytes| {
                u32::from_le_bytes(bytes[word * 4..word * 4 + 4].try_into().expect("4 bytes"))
            }))
        });
        let (a0, b0, c0, d0) = (a, b, c, d);
        // Round 1.
        step!(mix_f, a, b, c, d, m[0], 7, K[0]);
        step!(mix_f, d, a, b, c, m[1], 12, K[1]);
        step!(mix_f, c, d, a, b, m[2], 17, K[2]);
        step!(mix_f, b, c, d, a, m[3], 22, K[3]);
        step!(mix_f, a, b, c, d, m[4], 7, K[4]);
        step!(mix_f, d, a, b, c, m[5], 12, K[5]);
        step!(mix_f, c, d, a, b, m[6], 17, K[6]);
        step!(mix_f, b, c, d, a, m[7], 22, K[7]);
        step!(mix_f, a, b, c, d, m[8], 7, K[8]);
        step!(mix_f, d, a, b, c, m[9], 12, K[9]);
        step!(mix_f, c, d, a, b, m[10], 17, K[10]);
        step!(mix_f, b, c, d, a, m[11], 22, K[11]);
        step!(mix_f, a, b, c, d, m[12], 7, K[12]);
        step!(mix_f, d, a, b, c, m[13], 12, K[13]);
        step!(mix_f, c, d, a, b, m[14], 17, K[14]);
        step!(mix_f, b, c, d, a, m[15], 22, K[15]);
        // Round 2.
        step!(mix_g, a, b, c, d, m[1], 5, K[16]);
        step!(mix_g, d, a, b, c, m[6], 9, K[17]);
        step!(mix_g, c, d, a, b, m[11], 14, K[18]);
        step!(mix_g, b, c, d, a, m[0], 20, K[19]);
        step!(mix_g, a, b, c, d, m[5], 5, K[20]);
        step!(mix_g, d, a, b, c, m[10], 9, K[21]);
        step!(mix_g, c, d, a, b, m[15], 14, K[22]);
        step!(mix_g, b, c, d, a, m[4], 20, K[23]);
        step!(mix_g, a, b, c, d, m[9], 5, K[24]);
        step!(mix_g, d, a, b, c, m[14], 9, K[25]);
        step!(mix_g, c, d, a, b, m[3], 14, K[26]);
        step!(mix_g, b, c, d, a, m[8], 20, K[27]);
        step!(mix_g, a, b, c, d, m[13], 5, K[28]);
        step!(mix_g, d, a, b, c, m[2], 9, K[29]);
        step!(mix_g, c, d, a, b, m[7], 14, K[30]);
        step!(mix_g, b, c, d, a, m[12], 20, K[31]);
        // Round 3.
        step!(mix_h, a, b, c, d, m[5], 4, K[32]);
        step!(mix_h, d, a, b, c, m[8], 11, K[33]);
        step!(mix_h, c, d, a, b, m[11], 16, K[34]);
        step!(mix_h, b, c, d, a, m[14], 23, K[35]);
        step!(mix_h, a, b, c, d, m[1], 4, K[36]);
        step!(mix_h, d, a, b, c, m[4], 11, K[37]);
        step!(mix_h, c, d, a, b, m[7], 16, K[38]);
        step!(mix_h, b, c, d, a, m[10], 23, K[39]);
        step!(mix_h, a, b, c, d, m[13], 4, K[40]);
        step!(mix_h, d, a, b, c, m[0], 11, K[41]);
        step!(mix_h, c, d, a, b, m[3], 16, K[42]);
        step!(mix_h, b, c, d, a, m[6], 23, K[43]);
        step!(mix_h, a, b, c, d, m[9], 4, K[44]);
        step!(mix_h, d, a, b, c, m[12], 11, K[45]);
        step!(mix_h, c, d, a, b, m[15], 16, K[46]);
        step!(mix_h, b, c, d, a, m[2], 23, K[47]);
        // Round 4.
        step!(mix_i, a, b, c, d, m[0], 6, K[48]);
        step!(mix_i, d, a, b, c, m[7], 10, K[49]);
        step!(mix_i, c, d, a, b, m[14], 15, K[50]);
        step!(mix_i, b, c, d, a, m[5], 21, K[51]);
        step!(mix_i, a, b, c, d, m[12], 6, K[52]);
        step!(mix_i, d, a, b, c, m[3], 10, K[53]);
        step!(mix_i, c, d, a, b, m[10], 15, K[54]);
        step!(mix_i, b, c, d, a, m[1], 21, K[55]);
        step!(mix_i, a, b, c, d, m[8], 6, K[56]);
        step!(mix_i, d, a, b, c, m[15], 10, K[57]);
        step!(mix_i, c, d, a, b, m[6], 15, K[58]);
        step!(mix_i, b, c, d, a, m[13], 21, K[59]);
        step!(mix_i, a, b, c, d, m[4], 6, K[60]);
        step!(mix_i, d, a, b, c, m[11], 10, K[61]);
        step!(mix_i, c, d, a, b, m[2], 15, K[62]);
        step!(mix_i, b, c, d, a, m[9], 21, K[63]);
        a = a.wrapping_add(a0);
        b = b.wrapping_add(b0);
        c = c.wrapping_add(c0);
        d = d.wrapping_add(d0);
    }
    *state = [a, b, c, d];
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Straight-line reference: RFC 1321's step loop with table-driven
    /// shifts and computed word indices, one block at a time, padding built
    /// in one buffer. Shares only `K` with the unrolled implementation.
    fn reference_md5(data: &[u8]) -> Digest128 {
        const S: [u32; 64] = [
            7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, //
            5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, //
            4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, //
            6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21,
        ];
        let mut padded = data.to_vec();
        padded.push(0x80);
        while padded.len() % 64 != 56 {
            padded.push(0);
        }
        padded.extend_from_slice(&(data.len() as u64).wrapping_mul(8).to_le_bytes());
        let mut state: [u32; 4] = [0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476];
        for block in padded.chunks_exact(64) {
            let mut m = [0u32; 16];
            for (i, word) in m.iter_mut().enumerate() {
                *word = u32::from_le_bytes([
                    block[i * 4],
                    block[i * 4 + 1],
                    block[i * 4 + 2],
                    block[i * 4 + 3],
                ]);
            }
            let [mut a, mut b, mut c, mut d] = state;
            for i in 0..64 {
                let (f, g) = match i / 16 {
                    0 => ((b & c) | (!b & d), i),
                    1 => ((d & b) | (!d & c), (5 * i + 1) % 16),
                    2 => (b ^ c ^ d, (3 * i + 5) % 16),
                    _ => (c ^ (b | !d), (7 * i) % 16),
                };
                let tmp = d;
                d = c;
                c = b;
                b = b.wrapping_add(
                    a.wrapping_add(f)
                        .wrapping_add(K[i])
                        .wrapping_add(m[g])
                        .rotate_left(S[i]),
                );
                a = tmp;
            }
            state[0] = state[0].wrapping_add(a);
            state[1] = state[1].wrapping_add(b);
            state[2] = state[2].wrapping_add(c);
            state[3] = state[3].wrapping_add(d);
        }
        let mut out = [0u8; 16];
        for (i, word) in state.iter().enumerate() {
            out[i * 4..(i + 1) * 4].copy_from_slice(&word.to_le_bytes());
        }
        Digest128(out)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The unrolled compress, the in-place block walk and the direct
        /// padding agree with the reference at every length that crosses
        /// the 55/56/64-byte padding edges up to four blocks, however the
        /// input is split across two `update` calls.
        #[test]
        fn unrolled_matches_reference_at_every_split(
            data in proptest::collection::vec(any::<u8>(), 0..=300),
        ) {
            let expect = reference_md5(&data);
            prop_assert_eq!(Md5::digest(&data), expect);
            for split in 0..=data.len() {
                let mut h = Md5::new();
                h.update(&data[..split]);
                h.update(&data[split..]);
                prop_assert_eq!(h.finalize(), expect, "len={} split={}", data.len(), split);
            }
        }
    }

    /// Every length 0..=300 once, deterministically (the proptest above
    /// samples lengths; this pins each one).
    #[test]
    fn unrolled_matches_reference_at_every_length() {
        let data: Vec<u8> = (0..300u32).map(|i| (i * 7 + 3) as u8).collect();
        for len in 0..=data.len() {
            assert_eq!(
                Md5::digest(&data[..len]),
                reference_md5(&data[..len]),
                "len={len}"
            );
        }
    }

    /// Four inputs of length `len` that differ from each other in every
    /// block, so a digest that lands in the wrong lane cannot pass.
    fn four_inputs(seed: &[u8], len: usize) -> [Vec<u8>; 4] {
        core::array::from_fn(|lane| {
            (0..len)
                .map(|i| seed[i % seed.len().max(1)] ^ (i as u8).wrapping_mul(lane as u8 * 2 + 1))
                .collect()
        })
    }

    fn digests_x4(inputs: &[Vec<u8>; 4], split: usize) -> [Digest128; 4] {
        let mut h = Md5x4::new();
        h.update(inputs.each_ref().map(|input| &input[..split]));
        h.update(inputs.each_ref().map(|input| &input[split..]));
        h.finalize()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Each lane of the four-lane hasher equals the one-lane hasher and
        /// the reference on that lane's own input, at every common length
        /// across the padding edges and every split into two `update`s.
        #[test]
        fn four_lanes_match_scalar_and_reference_at_every_split(
            seed in proptest::collection::vec(any::<u8>(), 1..=300),
            len in 0usize..=300,
        ) {
            let inputs = four_inputs(&seed, len);
            let expect = inputs.each_ref().map(|input| reference_md5(input));
            prop_assert_eq!(inputs.each_ref().map(|input| Md5::digest(input)), expect);
            for split in 0..=len {
                prop_assert_eq!(digests_x4(&inputs, split), expect, "len={} split={}", len, split);
            }
        }
    }

    #[test]
    fn four_lanes_match_reference_at_every_length() {
        for len in 0..=300 {
            let inputs = four_inputs(&[0x5A, 3, 0xC7], len);
            assert_eq!(
                digests_x4(&inputs, len / 3),
                inputs.each_ref().map(|input| reference_md5(input)),
                "len={len}"
            );
        }
    }

    /// A published vector holds in whichever lane carries it, beside three
    /// unrelated inputs of the same length.
    fn assert_vector_in_every_lane(input: &[u8], expect: &str) {
        for lane in 0..4 {
            let mut inputs = four_inputs(b"filler", input.len());
            inputs[lane] = input.to_vec();
            let got = digests_x4(&inputs, input.len() / 2);
            assert_eq!(got[lane].to_hex(), expect, "lane {lane}");
            let other = (lane + 1) % 4;
            assert_eq!(
                got[other],
                Md5::digest(&inputs[other]),
                "beside lane {lane}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "unequal length")]
    fn four_lanes_reject_unequal_lengths() {
        Md5x4::new().update([b"ab", b"ab", b"abc", b"ab"]);
    }

    // RFC 1321-era extended vector: one million repetitions of "a", fed in
    // uneven pieces so whole-block runs start at every buffer offset.
    #[test]
    fn million_a_vector() {
        let chunk = [b'a'; 1009];
        let mut h = Md5::new();
        let mut left = 1_000_000usize;
        while left > 0 {
            let n = left.min(chunk.len());
            h.update(&chunk[..n]);
            left -= n;
        }
        assert_eq!(h.finalize().to_hex(), "7707d6ae4e027c70eea2a935c2296f21");
        assert_vector_in_every_lane(&[b'a'; 1_000_000], "7707d6ae4e027c70eea2a935c2296f21");
    }

    // RFC 1321 appendix A.5 test suite.
    #[test]
    fn rfc1321_vectors() {
        let cases: [(&[u8], &str); 7] = [
            (b"", "d41d8cd98f00b204e9800998ecf8427e"),
            (b"a", "0cc175b9c0f1b6a831c399e269772661"),
            (b"abc", "900150983cd24fb0d6963f7d28e17f72"),
            (b"message digest", "f96b697d7cb7938d525a2f31aaf161d0"),
            (
                b"abcdefghijklmnopqrstuvwxyz",
                "c3fcd3d76192e4007dfb496cca67e13b",
            ),
            (
                b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
                "d174ab98d277d9f5a5611c2c9f419d9f",
            ),
            (
                b"12345678901234567890123456789012345678901234567890123456789012345678901234567890",
                "57edf4a22be3c955ac49da2e2107b67a",
            ),
        ];
        for (input, expect) in cases {
            assert_eq!(Md5::digest(input).to_hex(), expect);
            assert_vector_in_every_lane(input, expect);
        }
    }

    #[test]
    fn streaming_equals_one_shot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        for split in [0usize, 1, 63, 64, 65, 128, 999] {
            let mut h = Md5::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), Md5::digest(&data), "split={split}");
        }
    }

    #[test]
    fn block_boundary_lengths() {
        for len in [55usize, 56, 57, 63, 64, 65, 119, 120, 128] {
            let data = vec![0xABu8; len];
            // Compare against a per-byte streaming computation.
            let mut h = Md5::new();
            for b in &data {
                h.update(core::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), Md5::digest(&data), "len={len}");
        }
    }

    #[test]
    fn digest_display_is_hex() {
        assert_eq!(
            format!("{}", Md5::digest(b"abc")),
            "900150983cd24fb0d6963f7d28e17f72"
        );
    }
}
