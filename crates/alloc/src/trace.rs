//! Simulation traces: per-slot rate series and final ledgers.

use crate::ledger::ContributionLedger;
use crate::metrics;
use std::ops::Range;

/// The output of a [`SlotSimulator`](crate::SlotSimulator) run.
#[derive(Debug, Clone)]
pub struct SimTrace {
    downloads: Vec<Vec<f64>>,   // [user][slot] download rate, kbps
    uploads: Vec<Vec<f64>>,     // [peer][slot] contributed upload rate, kbps
    requesting: Vec<Vec<bool>>, // [user][slot]
    ledger: ContributionLedger,
}

impl SimTrace {
    pub(crate) fn new(
        downloads: Vec<Vec<f64>>,
        uploads: Vec<Vec<f64>>,
        requesting: Vec<Vec<bool>>,
        ledger: ContributionLedger,
    ) -> Self {
        SimTrace {
            downloads,
            uploads,
            requesting,
            ledger,
        }
    }

    /// Number of peers.
    pub fn peer_count(&self) -> usize {
        self.downloads.len()
    }

    /// Number of simulated slots.
    fn slot_count(&self) -> usize {
        self.downloads.first().map_or(0, Vec::len)
    }

    /// Per-slot download rate of user `j` (kbps).
    pub fn download_series(&self, j: usize) -> &[f64] {
        &self.downloads[j]
    }

    /// Per-slot upload contribution of peer `i` (kbps).
    pub fn upload_series(&self, i: usize) -> &[f64] {
        &self.uploads[i]
    }

    /// Whether user `j` was requesting at `slot`.
    pub fn was_requesting(&self, j: usize, slot: usize) -> bool {
        self.requesting[j][slot]
    }

    /// Download series smoothed with the paper's 10-second running average.
    pub fn smoothed_download(&self, j: usize, window: usize) -> Vec<f64> {
        metrics::smooth(&self.downloads[j], window)
    }

    /// Mean download rate of user `j` over a slot range.
    ///
    /// # Panics
    ///
    /// Panics on an empty or out-of-range slice.
    pub fn mean_download_rate(&self, j: usize, slots: Range<usize>) -> f64 {
        let window = &self.downloads[j][slots];
        assert!(!window.is_empty(), "empty averaging window");
        window.iter().sum::<f64>() / window.len() as f64
    }

    /// Mean download rate of user `j` counting only slots where it was
    /// actually requesting (the per-session rate plotted in Figs. 6–7).
    pub fn mean_rate_while_requesting(&self, j: usize, slots: Range<usize>) -> f64 {
        let mut sum = 0.0;
        let mut count = 0usize;
        for t in slots {
            if self.requesting[j][t] {
                sum += self.downloads[j][t];
                count += 1;
            }
        }
        if count == 0 {
            0.0
        } else {
            sum / count as f64
        }
    }

    /// The final contribution ledger.
    pub fn ledger(&self) -> &ContributionLedger {
        &self.ledger
    }

    /// Long-run time-averaged download rate `μ̄_j` over the whole run.
    pub fn long_run_rate(&self, j: usize) -> f64 {
        if self.slot_count() == 0 {
            return 0.0;
        }
        self.downloads[j].iter().sum::<f64>() / self.slot_count() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> SimTrace {
        SimTrace::new(
            vec![vec![1.0, 2.0, 3.0, 4.0], vec![4.0, 4.0, 4.0, 4.0]],
            vec![vec![0.0; 4], vec![0.0; 4]],
            vec![vec![true, true, false, false], vec![true; 4]],
            ContributionLedger::new(2, 0.0),
        )
    }

    #[test]
    fn dimensions() {
        let t = trace();
        assert_eq!(t.peer_count(), 2);
        assert_eq!(t.slot_count(), 4);
    }

    #[test]
    fn means() {
        let t = trace();
        assert_eq!(t.mean_download_rate(0, 0..4), 2.5);
        assert_eq!(t.mean_download_rate(0, 2..4), 3.5);
        assert_eq!(t.long_run_rate(1), 4.0);
    }

    #[test]
    fn requesting_filter() {
        let t = trace();
        // User 0 requested only in slots 0 and 1.
        assert_eq!(t.mean_rate_while_requesting(0, 0..4), 1.5);
        assert_eq!(t.mean_rate_while_requesting(1, 0..4), 4.0);
    }
}
