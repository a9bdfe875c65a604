//! User demand models: when does user `j` request bandwidth?
//!
//! The paper's analysis assumes iid Bernoulli demand `I_j(t) ~ Bern(γ_j)`;
//! its simulations also use saturated users (γ → 1, Fig. 5) and hour-long
//! duty-cycle sessions (Figs. 6–7). All three are modeled here.

use rand::Rng;

/// A user's demand process.
#[derive(Debug, Clone, PartialEq)]
pub enum Demand {
    /// Never requests (a pure contributor).
    Never,
    /// Requests every slot (γ = 1, the saturated regime of Corollary 1).
    Saturated,
    /// Requests each slot independently with probability γ.
    Bernoulli {
        /// Per-slot request probability γ ∈ [0, 1].
        gamma: f64,
    },
    /// Requests during explicit half-open slot windows `[start, end)`.
    Windows(Vec<(u64, u64)>),
    /// Saturated, but only from `start` onward (Fig. 8(a)'s latecomers).
    SaturatedFrom {
        /// First requesting slot.
        start: u64,
    },
}

impl Demand {
    /// Whether the user requests at `slot`.
    ///
    /// `rng` is only consulted by the Bernoulli variant, keeping the other
    /// schedules deterministic.
    pub fn requests<R: Rng>(&self, slot: u64, rng: &mut R) -> bool {
        match self {
            Demand::Never => false,
            Demand::Saturated => true,
            Demand::Bernoulli { gamma } => rng.gen_bool(gamma.clamp(0.0, 1.0)),
            Demand::Windows(windows) => windows.iter().any(|&(s, e)| slot >= s && slot < e),
            Demand::SaturatedFrom { start } => slot >= *start,
        }
    }
}

/// Samples `hours_on` distinct one-hour request windows out of `total_hours`
/// (the Figs. 6–7 workload: "users stream their home videos … for 12
/// randomly chosen hours in a day … in chunks of 1 hour").
pub fn random_hour_windows<R: Rng>(
    rng: &mut R,
    hours_on: usize,
    total_hours: usize,
    slots_per_hour: u64,
) -> Demand {
    assert!(
        hours_on <= total_hours,
        "cannot pick {hours_on} hours out of {total_hours}"
    );
    // Partial Fisher–Yates over hour indices.
    let mut hours: Vec<u64> = (0..total_hours as u64).collect();
    for i in 0..hours_on {
        let j = rng.gen_range(i..total_hours);
        hours.swap(i, j);
    }
    let mut picked: Vec<u64> = hours[..hours_on].to_vec();
    picked.sort_unstable();
    Demand::Windows(
        picked
            .into_iter()
            .map(|h| (h * slots_per_hour, (h + 1) * slots_per_hour))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn fixed_variants_are_deterministic() {
        let mut r = rng();
        assert!(!Demand::Never.requests(0, &mut r));
        assert!(Demand::Saturated.requests(123, &mut r));
        assert!(Demand::SaturatedFrom { start: 10 }.requests(10, &mut r));
        assert!(!Demand::SaturatedFrom { start: 10 }.requests(9, &mut r));
    }

    #[test]
    fn windows_are_half_open() {
        let d = Demand::Windows(vec![(10, 20), (30, 40)]);
        let mut r = rng();
        assert!(!d.requests(9, &mut r));
        assert!(d.requests(10, &mut r));
        assert!(d.requests(19, &mut r));
        assert!(!d.requests(20, &mut r));
        assert!(d.requests(35, &mut r));
        assert!(!d.requests(40, &mut r));
    }

    #[test]
    fn bernoulli_rate_is_close_to_gamma() {
        let d = Demand::Bernoulli { gamma: 0.3 };
        let mut r = rng();
        let hits = (0..20_000).filter(|&t| d.requests(t, &mut r)).count();
        let rate = hits as f64 / 20_000.0;
        assert!((rate - 0.3).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn random_hours_pick_exactly_requested_budget() {
        let mut r = rng();
        let d = random_hour_windows(&mut r, 12, 24, 3600);
        let Demand::Windows(w) = &d else {
            panic!("expected windows")
        };
        assert_eq!(w.len(), 12);
        // Disjoint, hour-aligned windows.
        for &(s, e) in w {
            assert_eq!(e - s, 3600);
            assert_eq!(s % 3600, 0);
        }
        let mut starts: Vec<u64> = w.iter().map(|&(s, _)| s).collect();
        starts.dedup();
        assert_eq!(starts.len(), 12, "windows are distinct");
    }

    #[test]
    fn random_hours_vary_with_seed() {
        let mut r1 = StdRng::seed_from_u64(1);
        let mut r2 = StdRng::seed_from_u64(2);
        let d1 = random_hour_windows(&mut r1, 12, 24, 3600);
        let d2 = random_hour_windows(&mut r2, 12, 24, 3600);
        assert_ne!(d1, d2);
    }

    #[test]
    #[should_panic(expected = "cannot pick")]
    fn too_many_hours_panics() {
        random_hour_windows(&mut rng(), 25, 24, 3600);
    }
}
