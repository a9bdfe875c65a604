//! Token-bucket uplink shaping for the real-time runtime.

use std::time::Instant;

/// A classic token bucket: `rate` bytes/second refill, `burst` bytes cap.
///
/// Time is passed in explicitly so tests can drive it deterministically.
///
/// # Example
///
/// ```rust
/// use asymshare::rt::TokenBucket;
/// use std::time::{Duration, Instant};
///
/// let t0 = Instant::now();
/// let mut bucket = TokenBucket::new(1000.0, 500.0, t0);
/// // A serve pass moves the whole balance out, spends what its frames
/// // cost, and hands the rest back.
/// assert_eq!(bucket.drain(t0), 500.0);
/// bucket.refund(100.0);
/// assert_eq!(bucket.available(t0), 100.0);
/// // Refilled at 1000 bytes/s, capped at the burst.
/// assert_eq!(bucket.available(t0 + Duration::from_secs(1)), 500.0);
/// ```
#[derive(Debug, Clone)]
pub struct TokenBucket {
    rate: f64,
    burst: f64,
    tokens: f64,
    last: Instant,
}

impl TokenBucket {
    /// A bucket refilling at `rate` bytes/s, holding at most `burst` bytes,
    /// starting full.
    ///
    /// # Panics
    ///
    /// Panics for non-positive rate or burst.
    pub fn new(rate: f64, burst: f64, now: Instant) -> TokenBucket {
        assert!(rate > 0.0 && burst > 0.0, "rate and burst must be positive");
        TokenBucket {
            rate,
            burst,
            tokens: burst,
            last: now,
        }
    }

    fn refill(&mut self, now: Instant) {
        let dt = now.saturating_duration_since(self.last).as_secs_f64();
        self.tokens = (self.tokens + dt * self.rate).min(self.burst);
        self.last = now;
    }

    /// Takes every token out of the bucket, returning how many there were.
    /// The caller spends them at its own granularity and [`refund`]s what
    /// it did not use, so the balance is never negative and bytes sent by
    /// time `t` never exceed `rate · t + burst`.
    ///
    /// [`refund`]: TokenBucket::refund
    pub fn drain(&mut self, now: Instant) -> f64 {
        self.refill(now);
        std::mem::take(&mut self.tokens)
    }

    /// Puts back `amount` tokens a [`drain`](TokenBucket::drain) took and
    /// the caller did not spend (still at most `burst` in the bucket).
    pub fn refund(&mut self, amount: f64) {
        self.tokens = (self.tokens + amount).min(self.burst);
    }

    /// The most tokens the bucket holds.
    pub fn burst(&self) -> f64 {
        self.burst
    }

    /// Tokens currently available.
    pub fn available(&mut self, now: Instant) -> f64 {
        self.refill(now);
        self.tokens
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn spends_and_refills() {
        let t0 = Instant::now();
        let mut b = TokenBucket::new(100.0, 100.0, t0);
        assert!((b.drain(t0) - 100.0).abs() < 1e-9);
        assert_eq!(b.available(t0), 0.0);
        let t1 = t0 + Duration::from_millis(500);
        assert!((b.available(t1) - 50.0).abs() < 1e-9);
        assert!((b.drain(t1) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn burst_caps_accumulation() {
        let t0 = Instant::now();
        let mut b = TokenBucket::new(100.0, 150.0, t0);
        let later = t0 + Duration::from_secs(60);
        assert!((b.available(later) - 150.0).abs() < 1e-9);
    }

    #[test]
    fn drained_tokens_come_back_only_by_refund_or_time() {
        let t0 = Instant::now();
        let mut b = TokenBucket::new(100.0, 100.0, t0);
        assert!((b.drain(t0) - 100.0).abs() < 1e-9);
        assert_eq!(b.drain(t0), 0.0, "nothing left, and never negative");
        b.refund(30.0);
        assert!((b.available(t0) - 30.0).abs() < 1e-9);
        b.refund(1_000.0);
        assert!((b.available(t0) - 100.0).abs() < 1e-9, "capped at burst");
        assert!((b.drain(t0) - 100.0).abs() < 1e-9);
        let t1 = t0 + Duration::from_millis(250);
        assert!((b.drain(t1) - 25.0).abs() < 1e-9);
    }

    #[test]
    fn a_drained_bucket_paces_frames_longer_than_its_burst() {
        use crate::serve::{self, ServePass};
        // Two connections, 3:1, sending 128 KiB frames against a 100 KB
        // burst at 1 MB/s, a pass every millisecond. Sent on bucket debt,
        // such frames left at 1.37 MB/s; drained into the serve pass, the
        // bytes out by time t never exceed rate * t + burst.
        let (rate, burst, frame) = (1e6, 1e5, 128.0 * 1024.0);
        let t0 = Instant::now();
        let mut bucket = TokenBucket::new(rate, burst, t0);
        let mut engine = ServePass::default();
        let mut sent = [0.0f64; 2];
        for ms in 0..=4_000u64 {
            let now = t0 + Duration::from_millis(ms);
            let budget = bucket.drain(now);
            let mut refund = 0.0;
            for (conn, weight) in [(0u64, 3.0), (1, 1.0)] {
                let share = serve::share(weight, 4.0);
                let cap = serve::bank_cap(burst, share, frame);
                refund += engine.grant(conn, budget * share, cap);
                while engine.try_send(conn, frame) {
                    sent[conn as usize] += frame;
                }
            }
            bucket.refund(refund);
            let allowed = rate * ms as f64 / 1e3 + burst;
            assert!(
                sent[0] + sent[1] <= allowed + 1e-6,
                "over the rate at {ms} ms"
            );
        }
        let accrued = rate * 4.0 + burst;
        assert!(sent[0] > accrued * 0.75 - frame && sent[0] <= accrued * 0.75 + 1e-6);
        assert!(sent[1] > accrued * 0.25 - frame && sent[1] <= accrued * 0.25 + 1e-6);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_panics() {
        TokenBucket::new(0.0, 1.0, Instant::now());
    }
}
