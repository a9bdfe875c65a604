//! Property-based tests: field axioms and linear-algebra invariants must
//! hold for all four fields used by the codec.

use asymshare_gf::linalg::{invert, rank, Matrix, RankTracker};
use asymshare_gf::{bytes, Field, Gf16, Gf256, Gf2p32, Gf65536};
use proptest::prelude::*;

fn arb_elem<F: Field>() -> impl Strategy<Value = F> {
    any::<u64>().prop_map(F::from_u64)
}

/// A seeded xorshift64 stream for tests that need many values per case.
fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut s = seed | 1;
    move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    }
}

macro_rules! field_axiom_suite {
    ($modname:ident, $field:ty) => {
        mod $modname {
            use super::*;
            type F = $field;

            proptest! {
                #[test]
                fn add_commutes(a in arb_elem::<F>(), b in arb_elem::<F>()) {
                    prop_assert_eq!(a + b, b + a);
                }

                #[test]
                fn mul_commutes(a in arb_elem::<F>(), b in arb_elem::<F>()) {
                    prop_assert_eq!(a * b, b * a);
                }

                #[test]
                fn add_associates(a in arb_elem::<F>(), b in arb_elem::<F>(), c in arb_elem::<F>()) {
                    prop_assert_eq!((a + b) + c, a + (b + c));
                }

                #[test]
                fn mul_associates(a in arb_elem::<F>(), b in arb_elem::<F>(), c in arb_elem::<F>()) {
                    prop_assert_eq!((a * b) * c, a * (b * c));
                }

                #[test]
                fn distributes(a in arb_elem::<F>(), b in arb_elem::<F>(), c in arb_elem::<F>()) {
                    prop_assert_eq!(a * (b + c), a * b + a * c);
                }

                #[test]
                fn additive_identity_and_inverse(a in arb_elem::<F>()) {
                    prop_assert_eq!(a + F::ZERO, a);
                    prop_assert_eq!(a + a, F::ZERO); // char 2: -a == a
                    prop_assert_eq!(-a, a);
                }

                #[test]
                fn multiplicative_identity(a in arb_elem::<F>()) {
                    prop_assert_eq!(a * F::ONE, a);
                    prop_assert_eq!(a * F::ZERO, F::ZERO);
                }

                #[test]
                fn nonzero_has_inverse(a in arb_elem::<F>()) {
                    prop_assume!(a != F::ZERO);
                    prop_assert_eq!(a * a.inv(), F::ONE);
                    prop_assert_eq!(a / a, F::ONE);
                }

                #[test]
                fn pow_adds_exponents(a in arb_elem::<F>(), e1 in 0u64..64, e2 in 0u64..64) {
                    prop_assert_eq!(a.pow(e1) * a.pow(e2), a.pow(e1 + e2));
                }

                #[test]
                fn lagrange(a in arb_elem::<F>()) {
                    prop_assume!(a != F::ZERO);
                    prop_assert_eq!(a.pow(F::ORDER - 1), F::ONE);
                }

                #[test]
                fn axpy_matches_scalar_loop(
                    c in arb_elem::<F>(),
                    xs in proptest::collection::vec(arb_elem::<F>(), 0..48),
                ) {
                    let ys: Vec<F> = xs.iter().map(|&x| x * x + F::ONE).collect();
                    let mut fast = ys.clone();
                    F::axpy_slice(c, &xs, &mut fast);
                    let slow: Vec<F> = ys.iter().zip(&xs).map(|(&y, &x)| y + c * x).collect();
                    prop_assert_eq!(fast, slow);
                }

                #[test]
                fn scale_matches_scalar_loop(
                    c in arb_elem::<F>(),
                    xs in proptest::collection::vec(arb_elem::<F>(), 0..48),
                ) {
                    prop_assume!(c != F::ZERO);
                    let mut fast = xs.clone();
                    F::scale_slice(c, &mut fast);
                    let slow: Vec<F> = xs.iter().map(|&x| x * c).collect();
                    prop_assert_eq!(fast, slow);
                }
            }

            /// The coefficients `axpy_slice`/`scale_slice` special-case and
            /// lengths on both sides of GF(2³²)'s split-table threshold.
            #[test]
            fn bulk_ops_match_per_symbol_at_edge_lengths() {
                let mut stream = xorshift(0x9E37_79B9_7F4A_7C15);
                let mut next = move || F::from_u64(stream());
                for len in [0usize, 1, 7, 63, 64, 65, 257] {
                    for c in [F::ZERO, F::ONE, next()] {
                        let xs: Vec<F> = (0..len).map(|_| next()).collect();
                        let ys: Vec<F> = (0..len).map(|_| next()).collect();

                        let mut got = ys.clone();
                        F::axpy_slice(c, &xs, &mut got);
                        let want: Vec<F> = ys.iter().zip(&xs).map(|(&y, &x)| y + c * x).collect();
                        assert_eq!(got, want, "axpy len={len} c={c:?}");

                        let mut got = ys.clone();
                        F::scale_slice(c, &mut got);
                        let want: Vec<F> = ys.iter().map(|&y| c * y).collect();
                        assert_eq!(got, want, "scale len={len} c={c:?}");
                    }
                }
            }
        }
    };
}

field_axiom_suite!(gf16, Gf16);
field_axiom_suite!(gf256, Gf256);
field_axiom_suite!(gf65536, Gf65536);
field_axiom_suite!(gf2p32, Gf2p32);

proptest! {
    /// Inverting a random nonsingular matrix and multiplying back yields the
    /// identity (GF(2^8), the middle of the field range).
    #[test]
    fn invert_round_trip_random(n in 1usize..8, seed in any::<u64>()) {
        let mut next = xorshift(seed);
        let rows: Vec<Vec<Gf256>> = (0..n)
            .map(|_| (0..n).map(|_| Gf256::from_u64(next())).collect())
            .collect();
        let m = Matrix::from_rows(&rows);
        if let Some(inv) = invert(&m) {
            prop_assert_eq!(m.mul_mat(&inv), Matrix::identity(n));
        } else {
            prop_assert!(rank(&m) < n);
        }
    }

    /// A rank tracker filled from random rows always agrees with batch rank.
    #[test]
    fn tracker_rank_equals_batch_rank(
        nrows in 1usize..10,
        ncols in 1usize..8,
        seed in any::<u64>(),
    ) {
        let mut next = xorshift(seed);
        let rows: Vec<Vec<Gf2p32>> = (0..nrows)
            .map(|_| (0..ncols).map(|_| Gf2p32::from_u64(next())).collect())
            .collect();
        let mut t = RankTracker::new(ncols);
        for row in &rows {
            t.try_add(row);
        }
        prop_assert_eq!(t.rank(), rank(&Matrix::from_rows(&rows)));
    }

    /// Byte <-> symbol packing round-trips for every field.
    #[test]
    fn packing_round_trips(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let mut d = data.clone();
        d.truncate(d.len() / 4 * 4); // align to the widest field
        prop_assert_eq!(bytes::symbols_to_bytes(&bytes::symbols_from_bytes::<Gf16>(&d)), d.clone());
        prop_assert_eq!(bytes::symbols_to_bytes(&bytes::symbols_from_bytes::<Gf256>(&d)), d.clone());
        prop_assert_eq!(bytes::symbols_to_bytes(&bytes::symbols_from_bytes::<Gf65536>(&d)), d.clone());
        prop_assert_eq!(bytes::symbols_to_bytes(&bytes::symbols_from_bytes::<Gf2p32>(&d)), d);
    }
}
