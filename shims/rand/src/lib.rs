//! Offline stand-in for the `rand` crate (0.8 API subset).
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors the small slice of the `rand` 0.8 surface it actually uses:
//! [`Rng::gen_range`], [`Rng::gen_bool`], [`RngCore::fill_bytes`],
//! [`SeedableRng::seed_from_u64`] and [`rngs::StdRng`]. `StdRng` here is
//! xoshiro256++ seeded via SplitMix64 — deterministic for a given seed,
//! which is all the simulators and tests rely on. It is NOT the same
//! stream as upstream `StdRng` (ChaCha12) and must not be used for
//! cryptography; the workspace's own `asymshare-crypto` crate covers that.

#![forbid(unsafe_code)]

/// Low-level source of randomness.
pub trait RngCore {
    /// Next 32 random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let last = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&last[..rem.len()]);
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
}

/// User-facing sampling methods, blanket-implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Uniform sample from `range` (half-open or inclusive).
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        Self: Sized,
        R: SampleRange<T>,
    {
        range.sample_from(self)
    }

    /// Bernoulli draw with success probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!(
            (0.0..=1.0).contains(&p),
            "gen_bool probability {p} not in [0,1]"
        );
        unit_f64(self.next_u64()) < p
    }

    /// A value of a standard-distribution type.
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::standard_sample(self)
    }

    /// Fills `dest` with random data (alias of [`RngCore::fill_bytes`]).
    fn fill(&mut self, dest: &mut [u8])
    where
        Self: Sized,
    {
        self.fill_bytes(dest)
    }
}

impl<R: RngCore> Rng for R {}

/// Deterministic construction from seeds.
pub trait SeedableRng: Sized {
    /// Seed byte array type.
    type Seed: AsMut<[u8]> + Default;

    /// Construct from a full seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Construct from a `u64`, expanded with SplitMix64 (the upstream
    /// convention).
    fn seed_from_u64(state: u64) -> Self {
        let mut seed = Self::Seed::default();
        let mut sm = state;
        for chunk in seed.as_mut().chunks_mut(8) {
            let v = splitmix64(&mut sm).to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
        Self::from_seed(seed)
    }
}

/// Types sampleable from the "standard" distribution.
pub trait Standard {
    /// Draws one value.
    fn standard_sample<R: RngCore>(rng: &mut R) -> Self;
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn standard_sample<R: RngCore>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for u128 {
    fn standard_sample<R: RngCore>(rng: &mut R) -> Self {
        ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128
    }
}

impl Standard for bool {
    fn standard_sample<R: RngCore>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    fn standard_sample<R: RngCore>(rng: &mut R) -> Self {
        unit_f64(rng.next_u64())
    }
}

impl Standard for f32 {
    fn standard_sample<R: RngCore>(rng: &mut R) -> Self {
        unit_f64(rng.next_u64()) as f32
    }
}

/// Ranges a uniform sample can be drawn from.
pub trait SampleRange<T> {
    /// Draws one value from the range.
    fn sample_from<R: RngCore>(self, rng: &mut R) -> T;
}

macro_rules! impl_sample_range_int {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_from<R: RngCore>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample from empty range");
                let span = (self.end as u128).wrapping_sub(self.start as u128);
                let v = (rng.next_u64() as u128) % span;
                (self.start as u128).wrapping_add(v) as $t
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_from<R: RngCore>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample from empty range");
                let span = (hi as u128).wrapping_sub(lo as u128) + 1;
                let v = (rng.next_u64() as u128) % span;
                (lo as u128).wrapping_add(v) as $t
            }
        }
    )*};
}
impl_sample_range_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_sample_range_float {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_from<R: RngCore>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample from empty range");
                self.start + (self.end - self.start) * unit_f64(rng.next_u64()) as $t
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_from<R: RngCore>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                lo + (hi - lo) * unit_f64(rng.next_u64()) as $t
            }
        }
    )*};
}
impl_sample_range_float!(f32, f64);

/// Uniform in `[0, 1)` from 53 random bits.
fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Concrete generators.
pub mod rngs {
    use super::{splitmix64, RngCore, SeedableRng};

    /// The workspace's standard PRNG: xoshiro256++.
    ///
    /// Deterministic per seed; not cryptographic.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        type Seed = [u8; 32];

        fn from_seed(seed: Self::Seed) -> Self {
            let mut s = [0u64; 4];
            for (i, chunk) in seed.chunks_exact(8).enumerate() {
                s[i] = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            }
            if s == [0; 4] {
                // xoshiro must not start from the all-zero state.
                let mut sm = 0xDEAD_BEEF_u64;
                for slot in &mut s {
                    *slot = splitmix64(&mut sm);
                }
            }
            StdRng { s }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let [s0, s1, s2, s3] = self.s;
            let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
            let t = s1 << 17;
            let mut s = [s0, s1, s2, s3];
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            self.s = s;
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, RngCore, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut r = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let v = r.gen_range(10usize..20);
            assert!((10..20).contains(&v));
            let f = r.gen_range(-1.5f64..2.5);
            assert!((-1.5..2.5).contains(&f));
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut r = StdRng::seed_from_u64(2);
        assert!(!r.gen_bool(0.0));
        assert!(r.gen_bool(1.0));
    }

    #[test]
    fn fill_bytes_covers_tail() {
        let mut r = StdRng::seed_from_u64(3);
        let mut buf = [0u8; 13];
        r.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }
}
