//! The Ed25519 group: twisted Edwards curve −x² + y² = 1 + d·x²y² over
//! GF(2²⁵⁵ − 19), in extended homogeneous coordinates.
//!
//! Provides exactly what the Schnorr identification protocol needs: point
//! addition, doubling, scalar multiplication, and (de)serialization as an
//! uncompressed 64-byte (x, y) pair with an on-curve check.
//!
//! Scalar multiplication comes in three forms, two of them one walk:
//!
//! * [`Point::mul_base`] — `k·B` from a table of `j·16ⁱ·B` (i < 64,
//!   1 ≤ j ≤ 8) built once per process: the signed radix-16 digits of `k`
//!   select one entry per position, so a multiplication is at most 64 mixed
//!   additions and **no doublings**. Entries are kept affine in the
//!   (y+x, y−x, 2dxy) form, 96 bytes each, 48 KiB in all.
//! * `KeyTable::mul` — `k·P` for a point the caller multiplies often, by
//!   the same walk over the same 64 × 8 multiples of `P`, kept projective
//!   in the (Y+X, Y−X, 2Z, 2dT) form: 128 bytes each, 64 KiB, and no
//!   inversion to build.
//! * [`Point::mul_scalar`] — `k·P` for any point by width-5 wNAF: the eight
//!   odd multiples P, 3P, … 15P live on the stack, and the ≈ 253 doublings
//!   of a scalar below ℓ carry ≈ 42 additions (a sixth of the positions)
//!   where bit-at-a-time double-and-add carried ≈ 126. Doublings between
//!   additions skip the T coordinate.
//!
//! All index tables by, and branch on, digits of the scalar: like the
//! double-and-add they replace they are variable-time — adequate for the
//! simulated deployment this crate targets, *not* hardened against timing
//! channels.

use std::sync::OnceLock;

use crate::fe25519::Fe;
use crate::u256::U256;

/// The curve constant d = −121665/121666 mod p.
pub const D: U256 = U256::from_limbs([
    0x75eb_4dca_1359_78a3,
    0x0070_0a4d_4141_d8ab,
    0x8cc7_4079_7779_e898,
    0x5203_6cee_2b6f_fe73,
]);

const FE_D: Fe = Fe::from_reduced(D);

/// 2d mod p, the constant of the unified addition formulas.
const FE_2D: Fe = Fe::from_reduced(U256::from_limbs([
    0xebd6_9b94_26b2_f159,
    0x00e0_149a_8283_b156,
    0x198e_80f2_eef3_d130,
    0x2406_d9dc_56df_fce7,
]));

/// Order ℓ of the prime-order subgroup: 2²⁵² + 27742317777372353535851937790883648493.
pub const L: U256 = U256::from_limbs([
    0x5812_631a_5cf5_d3ed,
    0x14de_f9de_a2f7_9cd6,
    0x0000_0000_0000_0000,
    0x1000_0000_0000_0000,
]);

const BASE_X: U256 = U256::from_limbs([
    0xc956_2d60_8f25_d51a,
    0x692c_c760_9525_a7b2,
    0xc0a4_e231_fdd6_dc5c,
    0x2169_36d3_cd6e_53fe,
]);

const BASE_Y: U256 = U256::from_limbs([
    0x6666_6666_6666_6658,
    0x6666_6666_6666_6666,
    0x6666_6666_6666_6666,
    0x6666_6666_6666_6666,
]);

/// A point on the Ed25519 curve in extended coordinates (X : Y : Z : T),
/// with x = X/Z, y = Y/Z, T = XY/Z.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    x: Fe,
    y: Fe,
    z: Fe,
    t: Fe,
}

/// The outcome of an addition or doubling before the multiplications that
/// bring it back to one denominator: x = E/G, y = H/F. Three multiplications
/// give (X : Y : Z) — all a further doubling reads — and a fourth the T of
/// a [`Point`].
#[derive(Clone, Copy)]
struct Completed {
    e: Fe,
    f: Fe,
    g: Fe,
    h: Fe,
}

/// A point prepared as the right-hand side of an addition:
/// (Y+X, Y−X, 2Z, 2d·T).
#[derive(Clone, Copy)]
struct Cached {
    y_plus_x: Fe,
    y_minus_x: Fe,
    z2: Fe,
    t2d: Fe,
}

/// [`Cached`] for an affine point (Z = 1): (y+x, y−x, 2d·xy). Adding one
/// saves the Z multiplication — a "mixed" addition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Niels {
    y_plus_x: Fe,
    y_minus_x: Fe,
    xy2d: Fe,
}

/// `table[i][j − 1]` = j·16ⁱ·P for 1 ≤ j ≤ 8: what [`walk`] adds.
type Multiples<E> = [[E; 8]; 64];

/// `k·P` for one point `P` by [`walk`]ing its [`Multiples`], kept
/// projective: 64 KiB, built in 448 additions and 64 doublings with no
/// inversion, and at most 64 additions a multiplication.
pub(crate) struct KeyTable(Box<Multiples<Cached>>);

/// An entry of [`Multiples`]: what [`walk`] negates and adds.
trait Entry: Copy {
    fn neg(self) -> Self;
    fn add_to(&self, sum: Point) -> Completed;
}

/// Doubling (dbl-2008-hwcd, a = −1) of (X : Y : Z): four squarings.
fn double_xyz(x: Fe, y: Fe, z: Fe) -> Completed {
    let a = x.square();
    let b = y.square();
    let c2 = z.square();
    let c = c2 + c2;
    let d = a.neg(); // a_curve = -1
    let e = (x + y).square() - a - b;
    let g = d + b;
    Completed {
        e,
        f: g - c,
        g,
        h: d - b,
    }
}

impl Completed {
    const IDENTITY: Completed = Completed {
        e: Fe::ZERO,
        f: Fe::ONE,
        g: Fe::ONE,
        h: Fe::ONE,
    };

    /// Twice this point, without computing the T nothing would read.
    fn double(self) -> Completed {
        double_xyz(self.e * self.f, self.g * self.h, self.f * self.g)
    }

    fn extended(self) -> Point {
        Point {
            x: self.e * self.f,
            y: self.g * self.h,
            z: self.f * self.g,
            t: self.e * self.h,
        }
    }
}

impl Entry for Cached {
    /// The same point negated (x ↦ −x).
    fn neg(self) -> Cached {
        Cached {
            y_plus_x: self.y_minus_x,
            y_minus_x: self.y_plus_x,
            z2: self.z2,
            t2d: self.t2d.neg(),
        }
    }

    fn add_to(&self, sum: Point) -> Completed {
        sum.add_cached(self)
    }
}

impl Niels {
    const IDENTITY: Niels = Niels {
        y_plus_x: Fe::ONE,
        y_minus_x: Fe::ONE,
        xy2d: Fe::ZERO,
    };

    fn from_affine(x: Fe, y: Fe) -> Niels {
        Niels {
            y_plus_x: y + x,
            y_minus_x: y - x,
            xy2d: x * y * FE_2D,
        }
    }
}

impl Entry for Niels {
    /// The same point negated (x ↦ −x).
    fn neg(self) -> Niels {
        Niels {
            y_plus_x: self.y_minus_x,
            y_minus_x: self.y_plus_x,
            xy2d: self.xy2d.neg(),
        }
    }

    fn add_to(&self, sum: Point) -> Completed {
        sum.add_niels(self)
    }
}

impl Point {
    /// The group identity (0, 1).
    pub fn identity() -> Point {
        Point {
            x: Fe::ZERO,
            y: Fe::ONE,
            z: Fe::ONE,
            t: Fe::ZERO,
        }
    }

    /// The standard base point B (of order ℓ).
    pub fn base() -> Point {
        let x = Fe::from_reduced(BASE_X);
        let y = Fe::from_reduced(BASE_Y);
        Point {
            x,
            y,
            z: Fe::ONE,
            t: x * y,
        }
    }

    /// Constructs a point from affine coordinates, checking the curve
    /// equation −x² + y² = 1 + d·x²y².
    fn from_affine(x: Fe, y: Fe) -> Option<Point> {
        let x2 = x.square();
        let y2 = y.square();
        let lhs = y2 - x2;
        let rhs = Fe::ONE + FE_D * x2 * y2;
        if lhs == rhs {
            Some(Point {
                x,
                y,
                z: Fe::ONE,
                t: x * y,
            })
        } else {
            None
        }
    }

    /// Affine coordinates (x, y).
    fn to_affine(self) -> (Fe, Fe) {
        let zinv = self.z.inv();
        (self.x * zinv, self.y * zinv)
    }

    /// Serializes as 64 bytes: x ‖ y, both little-endian canonical.
    pub fn to_bytes(self) -> [u8; 64] {
        let (x, y) = self.to_affine();
        let mut out = [0u8; 64];
        out[..32].copy_from_slice(&x.to_le_bytes());
        out[32..].copy_from_slice(&y.to_le_bytes());
        out
    }

    /// Deserializes from [`to_bytes`](Self::to_bytes) form, verifying the
    /// point is on the curve. Returns `None` for off-curve or malformed
    /// encodings (this is the defense against forged public keys and
    /// commitments). Only canonical coordinates are accepted, so for every
    /// accepted encoding `from_bytes(b).to_bytes() == b`.
    pub fn from_bytes(bytes: &[u8]) -> Option<Point> {
        if bytes.len() != 64 {
            return None;
        }
        let x = U256::from_le_bytes(&bytes[..32]);
        let y = U256::from_le_bytes(&bytes[32..]);
        // Reject non-canonical encodings.
        if x >= crate::fe25519::P || y >= crate::fe25519::P {
            return None;
        }
        Point::from_affine(Fe::from_reduced(x), Fe::from_reduced(y))
    }

    fn cached(self) -> Cached {
        Cached {
            y_plus_x: self.y + self.x,
            y_minus_x: self.y - self.x,
            z2: self.z + self.z,
            t2d: self.t * FE_2D,
        }
    }

    /// Addition (add-2008-hwcd-3 unified formulas, a = −1) of a point given
    /// as Y₂+X₂, Y₂−X₂, 2d·T₂ and the product `zz` = 2·Z₁·Z₂.
    fn add_prepared(self, y_plus_x: Fe, y_minus_x: Fe, t2d: Fe, zz: Fe) -> Completed {
        let a = (self.y - self.x) * y_minus_x;
        let b = (self.y + self.x) * y_plus_x;
        let c = self.t * t2d;
        Completed {
            e: b - a,
            f: zz - c,
            g: zz + c,
            h: b + a,
        }
    }

    fn add_cached(self, rhs: &Cached) -> Completed {
        self.add_prepared(rhs.y_plus_x, rhs.y_minus_x, rhs.t2d, self.z * rhs.z2)
    }

    /// The mixed addition: Z₂ = 1 costs no multiplication.
    fn add_niels(self, rhs: &Niels) -> Completed {
        self.add_prepared(rhs.y_plus_x, rhs.y_minus_x, rhs.xy2d, self.z + self.z)
    }

    /// Point addition.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, rhs: Point) -> Point {
        self.add_cached(&rhs.cached()).extended()
    }

    /// Point doubling.
    pub fn double(self) -> Point {
        double_xyz(self.x, self.y, self.z).extended()
    }

    /// `k·B` for the base point, from the process-wide table of
    /// `j·16ⁱ·B`: one mixed addition per non-zero signed radix-16 digit of
    /// `k`, no doublings.
    pub fn mul_base(k: &U256) -> Point {
        // B has order ℓ < 2²⁵³, so reducing first keeps the walk's bound.
        let k = if *k >= L { k.reduce_mod(&L) } else { *k };
        walk(base_table(), &k)
    }

    /// Whether 8·P = O, i.e. P lies in the curve's torsion subgroup of
    /// order 8: three doublings. Such a point times any scalar takes at
    /// most eight values.
    pub(crate) fn has_small_order(self) -> bool {
        self.double().double().double() == Point::identity()
    }

    /// Scalar multiplication `k · self` by width-5 wNAF: one doubling per
    /// bit of `k`, one addition of an odd multiple ±P, ±3P, … ±15P per
    /// non-zero digit (on average every sixth position).
    pub fn mul_scalar(self, k: &U256) -> Point {
        let naf = wnaf5(k);
        let top = naf.iter().rposition(|&d| d != 0).map_or(0, |i| i + 1);
        let twice = self.double().cached();
        let mut multiple = self;
        let mut odd = [self.cached(); 8];
        for slot in &mut odd[1..] {
            multiple = multiple.add_cached(&twice).extended();
            *slot = multiple.cached();
        }
        let mut sum = Completed::IDENTITY;
        for &digit in naf[..top].iter().rev() {
            sum = sum.double();
            if digit != 0 {
                let entry = odd[digit.unsigned_abs() as usize / 2];
                let entry = if digit < 0 { entry.neg() } else { entry };
                sum = sum.extended().add_cached(&entry);
            }
        }
        sum.extended()
    }
}

impl PartialEq for Point {
    /// Projective equality (compares x/z and y/z without inversions).
    fn eq(&self, rhs: &Self) -> bool {
        self.x * rhs.z == rhs.x * self.z && self.y * rhs.z == rhs.y * self.z
    }
}

impl Eq for Point {}

/// The 64 digits of `k` in radix 16 recoded to −8 ≤ dᵢ < 8 (a digit of 8 or
/// more borrows 16 from the next); the last digit takes the final carry and
/// is at most 8 for `k` below 2²⁵⁵, which the caller ensures.
fn signed_radix16(k: &U256) -> [i8; 64] {
    debug_assert!(!k.bit(255), "scalar too large for 64 signed digits");
    let limbs = k.limbs();
    let mut digits = [0i8; 64];
    let mut carry = 0i8;
    for (i, digit) in digits.iter_mut().enumerate() {
        let nibble = ((limbs[i / 16] >> (4 * (i % 16))) & 15) as i8 + carry;
        carry = (nibble >= 8 && i < 63) as i8;
        *digit = nibble - 16 * carry;
    }
    digits
}

/// `k·P` from a table of P's multiples: one addition per non-zero signed
/// radix-16 digit of `k` (`k` < 2²⁵⁵), no doublings. Exact for every such
/// `k`, whatever the order of P.
fn walk<E: Entry>(table: &Multiples<E>, k: &U256) -> Point {
    let mut sum = Point::identity();
    for (row, digit) in table.iter().zip(signed_radix16(k)) {
        if digit != 0 {
            let entry = row[digit.unsigned_abs() as usize - 1];
            let entry = if digit < 0 { entry.neg() } else { entry };
            sum = entry.add_to(sum).extended();
        }
    }
    sum
}

/// The rows of [`Multiples`] of P, each multiple mapped by `entry`: 448
/// additions, and one doubling a row, since 16ⁱ⁺¹·P is twice the row's
/// last multiple 8·16ⁱ·P.
fn multiples<E>(p: Point, entry: impl Fn(Point) -> E) -> Vec<[E; 8]> {
    let mut rows = Vec::with_capacity(64);
    let mut power = p; // 16ⁱ·P
    for _ in 0..64 {
        let step = power.cached();
        let mut multiple = power;
        rows.push(core::array::from_fn(|j| {
            if j > 0 {
                multiple = multiple.add_cached(&step).extended();
            }
            entry(multiple)
        }));
        power = multiple.double();
    }
    rows
}

impl KeyTable {
    pub(crate) fn new(p: Point) -> KeyTable {
        let rows = multiples(p, Point::cached).into_boxed_slice();
        KeyTable(rows.try_into().ok().expect("multiples has 64 rows"))
    }

    /// Exactly `k·P`, not `(k mod ℓ)·P` (they differ when P has a torsion
    /// component); `None` for `k` ≥ 2²⁵⁵, which 64 signed digits cannot hold.
    pub(crate) fn mul(&self, k: &U256) -> Option<Point> {
        (!k.bit(255)).then(|| walk(&self.0, k))
    }
}

/// Width-5 non-adjacent form of `k`: every non-zero digit is odd, within
/// ±15, and followed by at least four zeros. A 256-bit scalar can carry
/// into a 257th digit.
fn wnaf5(k: &U256) -> [i8; 257] {
    let [k0, k1, k2, k3] = k.limbs();
    let limbs = [k0, k1, k2, k3, 0];
    let mut naf = [0i8; 257];
    let mut carry = 0u64;
    let mut pos = 0;
    while pos < naf.len() {
        let (limb, bit) = (pos / 64, pos % 64);
        let mut bits = limbs[limb] >> bit;
        if bit > 64 - 5 {
            bits |= limbs[limb + 1] << (64 - bit);
        }
        let window = carry + (bits & 31);
        if window & 1 == 0 {
            pos += 1;
            continue;
        }
        carry = (window >= 16) as u64;
        naf[pos] = window as i8 - 32 * carry as i8;
        pos += 5;
    }
    naf
}

/// The fixed-base table, built on first use (≈ 0.2 ms: 64 doublings, 448
/// additions, and one shared inversion to make all 512 entries affine).
fn base_table() -> &'static Multiples<Niels> {
    static TABLE: OnceLock<Multiples<Niels>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let points: Vec<Point> = multiples(Point::base(), |p| p).concat();
        // Montgomery's trick: invert the product of all Z, then peel one
        // factor at a time.
        let mut prefix = Vec::with_capacity(points.len());
        let mut product = Fe::ONE;
        for p in &points {
            prefix.push(product);
            product = product * p.z;
        }
        let mut inv = product.inv();
        let mut table = [[Niels::IDENTITY; 8]; 64];
        for (n, p) in points.iter().enumerate().rev() {
            let zinv = inv * prefix[n];
            inv = inv * p.z;
            table[n / 8][n % 8] = Niels::from_affine(p.x * zinv, p.y * zinv);
        }
        table
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The bit-at-a-time double-and-add that [`Point::mul_base`] and
    /// [`Point::mul_scalar`] replaced, kept as their oracle.
    fn double_and_add(p: Point, k: &U256) -> Point {
        let mut acc = Point::identity();
        let Some(high) = k.highest_bit() else {
            return acc;
        };
        for i in (0..=high).rev() {
            acc = acc.double();
            if k.bit(i) {
                acc = acc.add(p);
            }
        }
        acc
    }

    /// A point of order exactly 8: ℓ·Q for an on-curve Q whose torsion
    /// component has order 8 (half of all points), with Q found from
    /// y = 2, 3, … as x = √((y² − 1)/(d·y² + 1)). For p ≡ 5 (mod 8) a root
    /// of a square u is u^((p+3)/8), or that times √−1 = 2^((p−1)/4).
    pub(crate) fn order_eight() -> Point {
        let root_exp = U256::from_limbs([u64::MAX - 1, u64::MAX, u64::MAX, u64::MAX >> 4]);
        let i_exp = U256::from_limbs([u64::MAX - 4, u64::MAX, u64::MAX, u64::MAX >> 3]);
        let sqrt_minus_one = Fe::from_u64(2).pow(&i_exp);
        assert_eq!(sqrt_minus_one.square(), Fe::ONE.neg());
        (2..)
            .find_map(|y| {
                let y = Fe::from_u64(y);
                let u = (y.square() - Fe::ONE) * (FE_D * y.square() + Fe::ONE).inv();
                let r = u.pow(&root_exp);
                let x = if r.square() == u {
                    r
                } else {
                    r * sqrt_minus_one
                };
                let t = double_and_add(Point::from_affine(x, y)?, &L);
                (t.double().double() != Point::identity()).then_some(t)
            })
            .expect("half of all points have a torsion component of order 8")
    }

    fn edge_scalars() -> Vec<U256> {
        let l_minus_1 = L.overflowing_sub(&U256::ONE).0;
        vec![
            U256::ZERO,
            U256::ONE,
            U256::from_u64(15),
            U256::from_u64(16),
            l_minus_1,
            L,
            L.overflowing_add(&U256::ONE).0,
            U256::from_limbs([0, 0, 0, 1 << 60]), // 2^252
            U256::from_limbs([u64::MAX, u64::MAX, u64::MAX, u64::MAX >> 1]), // 2^255 − 1
            U256::from_limbs([u64::MAX; 4]),
            U256::from_limbs([0x8888_8888_8888_8888; 4]), // every digit borrows
            U256::from_limbs([0x7777_7777_7777_7777, 0, u64::MAX, 0x0fff_ffff_ffff_ffff]),
        ]
    }

    #[test]
    fn two_d_is_twice_d() {
        assert_eq!(FE_2D, FE_D + FE_D);
        assert_eq!(FE_D, Fe::from_u256(D));
    }

    #[test]
    fn fast_multiplications_match_double_and_add_at_the_edges() {
        let b = Point::base();
        let p = double_and_add(b, &U256::from_limbs([3, 1, 4, 1])); // not B
        let mixed = p.add(order_eight());
        let keys = [b, p, Point::identity(), mixed].map(|q| (q, KeyTable::new(q)));
        for k in edge_scalars() {
            let expect = double_and_add(b, &k);
            assert_eq!(Point::mul_base(&k), expect, "mul_base, k = {k}");
            assert_eq!(b.mul_scalar(&k), expect, "windowed k·B, k = {k}");
            assert_eq!(p.mul_scalar(&k), double_and_add(p, &k), "k·P, k = {k}");
            assert_eq!(
                Point::identity().mul_scalar(&k),
                Point::identity(),
                "k·O, k = {k}"
            );
            for (n, (q, table)) in keys.iter().enumerate() {
                let expect = (!k.bit(255)).then(|| double_and_add(*q, &k));
                assert_eq!(table.mul(&k), expect, "key walk {n}, k = {k}");
            }
        }
    }

    #[test]
    fn small_order_is_eight_times_the_identity() {
        let t = order_eight();
        let p = Point::mul_base(&U256::from_u64(99));
        for small in [
            Point::identity(),
            t,
            t.double(),
            t.double().double(),
            t.add(t.double()),
        ] {
            assert!(small.has_small_order());
        }
        for large in [Point::base(), p, p.add(t), p.add(t.double().double())] {
            assert!(!large.has_small_order());
        }
    }

    /// Every scalar with a single non-zero nibble, j·16ⁱ, against multiples
    /// built from `add` and `double` alone; for j ≤ 8 that multiple is also
    /// what the table must hold at (i, j).
    #[test]
    fn single_nibble_scalars_and_table_entries() {
        let table = base_table();
        let mut power = Point::base(); // 16ⁱ·B
        for i in 0..64 {
            let mut expect = Point::identity();
            for j in 1..16u64 {
                expect = expect.add(power);
                let mut limbs = [0u64; 4];
                limbs[i / 16] = j << (4 * (i % 16));
                let k = U256::from_limbs(limbs);
                assert_eq!(Point::mul_base(&k), expect, "mul_base({j}·16^{i})");
                assert_eq!(Point::base().mul_scalar(&k), expect, "{j}·16^{i}·B");
                if j <= 8 {
                    let (x, y) = expect.to_affine();
                    let entry = Niels::from_affine(x, y);
                    assert_eq!(table[i][j as usize - 1], entry, "table[{i}][{j}]");
                }
            }
            power = power.double().double().double().double();
        }
    }

    #[test]
    fn base_table_fits_64_kib() {
        assert_eq!(core::mem::size_of::<Niels>(), 96);
        assert!(core::mem::size_of::<Multiples<Niels>>() <= 64 << 10);
    }

    #[test]
    fn wnaf_digits_are_odd_small_and_sparse() {
        for k in edge_scalars() {
            let naf = wnaf5(&k);
            let mut last = None;
            for (i, &d) in naf.iter().enumerate() {
                if d != 0 {
                    assert!(d % 2 != 0 && d.unsigned_abs() <= 15, "digit {d} at {i}");
                    assert!(last.is_none_or(|l| i - l >= 5), "digits {last:?} and {i}");
                    last = Some(i);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn fast_multiplications_match_double_and_add(
            k in any::<[u8; 32]>(),
            r in any::<[u8; 32]>(),
        ) {
            let k = U256::from_le_bytes(&k);
            let b = Point::base();
            let expect = double_and_add(b, &k);
            prop_assert_eq!(Point::mul_base(&k), expect);
            prop_assert_eq!(b.mul_scalar(&k), expect);
            // A random point of the group, not only B.
            let p = double_and_add(b, &U256::from_le_bytes(&r));
            prop_assert_eq!(p.mul_scalar(&k), double_and_add(p, &k));
            // The key walk, on that point and on it plus an order-8 point,
            // for k with its top bit cleared.
            let [k0, k1, k2, k3] = k.limbs();
            let low = U256::from_limbs([k0, k1, k2, k3 & u64::MAX >> 1]);
            for q in [p, p.add(order_eight())] {
                prop_assert_eq!(KeyTable::new(q).mul(&low), Some(double_and_add(q, &low)));
            }
        }

        /// What lets `schnorr::verify` hash a commitment as received:
        /// an accepted encoding is the one `to_bytes` would produce.
        #[test]
        fn accepted_encodings_are_canonical(r in any::<[u8; 32]>()) {
            let bytes = Point::mul_base(&U256::from_le_bytes(&r)).to_bytes();
            let parsed = Point::from_bytes(&bytes).expect("own encoding");
            prop_assert_eq!(parsed.to_bytes(), bytes);
        }
    }

    #[test]
    fn base_point_is_on_curve() {
        let b = Point::base();
        let (x, y) = b.to_affine();
        assert!(Point::from_affine(x, y).is_some());
    }

    #[test]
    fn identity_laws() {
        let b = Point::base();
        let id = Point::identity();
        assert_eq!(b.add(id), b);
        assert_eq!(id.add(b), b);
        assert_eq!(id.double(), id);
    }

    #[test]
    fn double_matches_add() {
        let b = Point::base();
        assert_eq!(b.double(), b.add(b));
        let four = b.double().double();
        assert_eq!(four, b.add(b).add(b).add(b));
    }

    #[test]
    fn addition_commutes_and_associates() {
        let b = Point::base();
        let p2 = b.double();
        let p3 = p2.add(b);
        assert_eq!(b.add(p2), p2.add(b));
        assert_eq!(b.add(p2).add(p3), b.add(p2.add(p3)));
    }

    #[test]
    fn base_point_has_order_l() {
        let b = Point::base();
        let id = Point::identity();
        assert_eq!(b.mul_scalar(&L), id, "ℓ·B must be the identity");
        assert_ne!(b.mul_scalar(&U256::from_u64(1)), id);
    }

    #[test]
    fn scalar_mul_matches_repeated_addition() {
        let b = Point::base();
        let mut acc = Point::identity();
        for k in 0..8u64 {
            assert_eq!(b.mul_scalar(&U256::from_u64(k)), acc, "k={k}");
            acc = acc.add(b);
        }
    }

    #[test]
    fn scalar_mul_distributes() {
        // (a + b)·B == a·B + b·B
        let b = Point::base();
        let a = U256::from_u64(123_456_789);
        let c = U256::from_u64(987_654_321);
        let sum = a.add_mod(&c, &L);
        assert_eq!(b.mul_scalar(&sum), b.mul_scalar(&a).add(b.mul_scalar(&c)));
    }

    #[test]
    fn serialization_round_trips() {
        let p = Point::base().mul_scalar(&U256::from_u64(42));
        let bytes = p.to_bytes();
        let q = Point::from_bytes(&bytes).expect("valid encoding");
        assert_eq!(p, q);
    }

    #[test]
    fn off_curve_encoding_rejected() {
        let mut bytes = Point::base().to_bytes();
        bytes[0] ^= 1; // perturb x
        assert!(Point::from_bytes(&bytes).is_none());
        assert!(Point::from_bytes(&[0u8; 10]).is_none());
    }

    #[test]
    fn non_canonical_coordinate_rejected() {
        let mut bytes = [0u8; 64];
        // x = p (non-canonical zero), y = 1 → must be rejected even though
        // the reduced point (0, 1) is on the curve.
        bytes[..32].copy_from_slice(&crate::fe25519::P.to_le_bytes());
        bytes[32] = 1;
        assert!(Point::from_bytes(&bytes).is_none());
    }
}
