//! The Figure-1 catalog: asymmetric access links and representative file
//! sizes, plus the transfer-time arithmetic the figure plots.
//!
//! Figure 1 plots transmission time against size for four link directions
//! (dialup up/down, cable up/down) and annotates five representative
//! payloads, from an MP3 song to an hour of ATSC HDTV. The paper's headline
//! example: a 1-hour TV-resolution MPEG-2 home video (~1 GB) takes ~9 hours
//! up a cable modem but ~45 minutes down it.

/// An asymmetric access link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccessLink {
    /// Human-readable name.
    pub name: &'static str,
    /// Upload capacity, kbps.
    pub up_kbps: f64,
    /// Download capacity, kbps.
    pub down_kbps: f64,
}

/// Dialup modem: 28 kbps up, 56 kbps down (Fig. 1).
pub const DIALUP: AccessLink = AccessLink {
    name: "dialup modem",
    up_kbps: 28.0,
    down_kbps: 56.0,
};

/// Cable modem: 256 kbps up, 3 Mbps down (Fig. 1).
pub const CABLE: AccessLink = AccessLink {
    name: "cable modem",
    up_kbps: 256.0,
    down_kbps: 3_000.0,
};

/// A representative payload from Figure 1's annotations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PayloadExample {
    /// Annotation text.
    pub name: &'static str,
    /// Approximate size in bytes.
    pub bytes: u64,
}

const MB: u64 = 1 << 20;
const GB: u64 = 1 << 30;

/// Figure 1's five annotated payloads. The MPEG-2 hour is pinned at 1 GB by
/// the paper's own arithmetic (9 h at 256 kbps ⇔ 45 min at 3 Mbps ⇔ ~1 GB);
/// the others are the conventional sizes the figure's markers sit at.
pub const FIG1_PAYLOADS: [PayloadExample; 5] = [
    PayloadExample {
        name: "MP3 song",
        bytes: 5 * MB,
    },
    PayloadExample {
        name: "low-resolution home video",
        bytes: 50 * MB,
    },
    PayloadExample {
        name: "\"My Pictures\" folder",
        bytes: 300 * MB,
    },
    PayloadExample {
        name: "TV-resolution MPEG-2 home video (1 hour)",
        bytes: GB,
    },
    PayloadExample {
        name: "ATSC HDTV video (1 hour)",
        bytes: 10 * GB,
    },
];

/// Transfer time in seconds for `bytes` over a `kbps` link.
///
/// # Panics
///
/// Panics for a non-positive rate.
pub fn transfer_secs(bytes: u64, kbps: f64) -> f64 {
    assert!(kbps > 0.0, "rate must be positive");
    bytes as f64 * 8.0 / (kbps * 1_000.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_headline_arithmetic() {
        // ~9 hours up, ~45 minutes down for the 1 GB MPEG-2 hour.
        let mpeg2 = FIG1_PAYLOADS[3];
        let up_hours = transfer_secs(mpeg2.bytes, CABLE.up_kbps) / 3600.0;
        let down_minutes = transfer_secs(mpeg2.bytes, CABLE.down_kbps) / 60.0;
        assert!((up_hours - 9.32).abs() < 0.1, "up: {up_hours} h");
        assert!(
            (down_minutes - 47.7).abs() < 1.0,
            "down: {down_minutes} min"
        );
    }

    #[test]
    fn dialup_asymmetry_is_factor_two() {
        let t_up = transfer_secs(MB, DIALUP.up_kbps);
        let t_down = transfer_secs(MB, DIALUP.down_kbps);
        assert!((t_up / t_down - 2.0).abs() < 1e-9);
    }

    #[test]
    fn hdtv_upload_takes_about_four_days() {
        // Fig. 1's top-right region: 10 GB over 256 kbps ≈ 3.9 days.
        let days = transfer_secs(FIG1_PAYLOADS[4].bytes, CABLE.up_kbps) / 86_400.0;
        assert!((days - 3.88).abs() < 0.1, "{days} days");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_panics() {
        transfer_secs(1, 0.0);
    }
}
