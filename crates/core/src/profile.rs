//! Persisted per-peer link profiles driving adaptive chunk sizing.
//!
//! The paper's Eq.-2 bandwidth sharing divides each slot's uplink fairly,
//! but a *message* is still the transfer quantum: a DSL-class uplink
//! moving 1 MB messages pays a huge granularity penalty (a slot's deficit
//! must cover a whole message before anything is sent) and loses a full
//! message's worth of uplink per dropped flow. This module implements the
//! size-ladder / per-peer-EWMA pattern (SNIPPETS.md Snippet 3, the-block
//! storage pipeline): each peer accumulates exponentially weighted
//! estimates of throughput, loss and (when measured) round-trip time, and
//! walks the [`ChunkLadder`] one rung at a time —
//!
//! * **steering** — after [`ProfileConfig::stable_transfers`] consecutive
//!   clean transfers, move one rung toward the size whose single-chunk
//!   transfer takes ≈ [`ProfileConfig::target_chunk_secs`] at the
//!   measured throughput;
//! * **upgrade gating** — upward moves additionally require a very clean
//!   link (loss below `loss_upgrade_max`, RTT below
//!   `rtt_upgrade_max_us`);
//! * **forced downgrade** — sustained loss above `loss_downgrade` (or RTT
//!   above `rtt_downgrade_us`) steps down immediately and resets the
//!   stability streak, without waiting for the streak.
//!
//! Profiles live in a [`ProfileStore`] keyed by peer public key, with a
//! versioned binary serialization ([`ProfileStore::to_bytes`]) so they
//! survive process restarts — a returning owner resumes from the rungs
//! the last session earned instead of re-probing from 1 MB.
//!
//! Everything here is pure integer/float bookkeeping over the samples it
//! is fed: no randomness, no clocks. Fed the same sample sequence, a
//! store replays the same rung trajectory bit-for-bit, which is what
//! `tests/tests/profile.rs` pins.

use crate::peer::KeyBytes;
use asymshare_rlnc::ChunkLadder;
use std::collections::BTreeMap;
use std::io;
use std::path::Path;

/// Tuning knobs for profile EWMAs and ladder moves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfileConfig {
    /// EWMA smoothing factor for throughput/RTT/loss samples, in `(0, 1]`.
    pub ewma_alpha: f64,
    /// Consecutive clean transfers required before a steering move.
    pub stable_transfers: u32,
    /// Smoothed loss fraction above which the ladder steps down
    /// immediately (forced downgrade).
    pub loss_downgrade: f64,
    /// Smoothed loss fraction a link must stay *under* to earn an upward
    /// move.
    pub loss_upgrade_max: f64,
    /// Smoothed RTT (µs) above which the ladder steps down immediately.
    pub rtt_downgrade_us: f64,
    /// Smoothed RTT (µs) a link must stay under to earn an upward move.
    pub rtt_upgrade_max_us: f64,
    /// Steering target: prefer the rung whose single-chunk transfer takes
    /// about this long at the measured throughput.
    pub target_chunk_secs: f64,
}

impl Default for ProfileConfig {
    fn default() -> ProfileConfig {
        ProfileConfig {
            ewma_alpha: 0.3,
            stable_transfers: 3,
            loss_downgrade: 0.02,
            loss_upgrade_max: 0.002,
            rtt_downgrade_us: 200_000.0,
            rtt_upgrade_max_us: 80_000.0,
            target_chunk_secs: 3.0,
        }
    }
}

/// The outcome of feeding one transfer sample to a profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LadderMove {
    /// No rung change this sample.
    Hold,
    /// One rung up (earned by a stable, clean streak).
    Up,
    /// One rung down (steering toward a smaller target).
    Down,
    /// One rung down forced by sustained loss or RTT inflation.
    ForcedDown,
}

/// One peer's smoothed link estimates and current ladder rung.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeerProfile {
    /// Smoothed goodput in bytes/sec (`None` until the first sample).
    throughput_bps: Option<f64>,
    /// Smoothed round-trip time in µs (only runtimes that measure RTT
    /// feed this; the sim steers on throughput and loss alone).
    rtt_us: Option<f64>,
    /// Smoothed loss fraction in `[0, 1]`.
    loss: f64,
    /// Current ladder rung (index into [`ChunkLadder::RUNGS`]).
    rung: u8,
    /// Consecutive clean transfers since the last rung move or loss event.
    stable: u32,
    /// Lifetime transfer samples folded in.
    transfers: u64,
}

impl Default for PeerProfile {
    fn default() -> PeerProfile {
        PeerProfile {
            throughput_bps: None,
            rtt_us: None,
            loss: 0.0,
            rung: ChunkLadder::DEFAULT_RUNG as u8,
            stable: 0,
            transfers: 0,
        }
    }
}

impl PeerProfile {
    /// Smoothed goodput estimate in bytes/sec.
    pub fn throughput_bps(&self) -> Option<f64> {
        self.throughput_bps
    }

    /// Smoothed RTT estimate in microseconds.
    pub fn rtt_us(&self) -> Option<f64> {
        self.rtt_us
    }

    /// Smoothed loss fraction.
    pub fn loss(&self) -> f64 {
        self.loss
    }

    /// Current ladder rung.
    pub fn rung(&self) -> usize {
        self.rung as usize
    }

    /// The chunk size at the current rung.
    pub fn chunk_size(&self) -> usize {
        ChunkLadder::size_at(self.rung as usize)
    }

    /// Lifetime transfer samples.
    pub fn transfers(&self) -> u64 {
        self.transfers
    }

    /// Consecutive clean transfers since the last move/loss event.
    pub fn stable_streak(&self) -> u32 {
        self.stable
    }

    fn ewma(prev: Option<f64>, sample: f64, alpha: f64) -> f64 {
        match prev {
            Some(p) => p + alpha * (sample - p),
            None => sample,
        }
    }

    /// Folds one completed transfer into the profile and applies the
    /// ladder rules (see module docs). `lost`/`total` count messages (or
    /// frames) attempted toward this peer; `rtt_us` is optional — the
    /// sim's client, the one collector, has no RTT probe and passes none.
    pub fn record_transfer(
        &mut self,
        cfg: &ProfileConfig,
        bytes: u64,
        secs: f64,
        lost: u64,
        total: u64,
        rtt_us: Option<f64>,
    ) -> LadderMove {
        self.transfers += 1;
        if secs > 0.0 && secs.is_finite() && bytes > 0 {
            self.throughput_bps = Some(Self::ewma(
                self.throughput_bps,
                bytes as f64 / secs,
                cfg.ewma_alpha,
            ));
        }
        if total > 0 {
            let frac = lost as f64 / total as f64;
            self.loss = Self::ewma(Some(self.loss), frac, cfg.ewma_alpha);
        }
        if let Some(rtt) = rtt_us {
            if rtt.is_finite() && rtt >= 0.0 {
                self.rtt_us = Some(Self::ewma(self.rtt_us, rtt, cfg.ewma_alpha));
            }
        }

        // Forced downgrade: a lossy or inflated link steps down now.
        let rtt_bad = self.rtt_us.is_some_and(|r| r > cfg.rtt_downgrade_us);
        if self.loss > cfg.loss_downgrade || rtt_bad {
            self.stable = 0;
            if self.rung > 0 {
                self.rung -= 1;
                return LadderMove::ForcedDown;
            }
            return LadderMove::Hold;
        }

        // Steering: one rung toward the throughput-derived target, only
        // after a full stable streak.
        self.stable += 1;
        if self.stable < cfg.stable_transfers {
            return LadderMove::Hold;
        }
        let Some(bps) = self.throughput_bps else {
            return LadderMove::Hold;
        };
        let target = ChunkLadder::rung_for_rate(bps, cfg.target_chunk_secs);
        let rung = self.rung as usize;
        if target > rung {
            let clean = self.loss < cfg.loss_upgrade_max
                && self.rtt_us.is_none_or(|r| r < cfg.rtt_upgrade_max_us);
            if clean {
                self.rung += 1;
                self.stable = 0;
                return LadderMove::Up;
            }
            LadderMove::Hold
        } else if target < rung {
            self.rung -= 1;
            self.stable = 0;
            LadderMove::Down
        } else {
            LadderMove::Hold
        }
    }
}

/// Magic + version for the persisted profile file.
const PROFILE_MAGIC: &[u8; 8] = b"ASYMPRF1";

/// A persistent map from peer public key to [`PeerProfile`].
///
/// Iteration order (and therefore serialization order and every
/// aggregate decision) follows the `BTreeMap` key order — deterministic
/// for a fixed set of peers, independent of insertion order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileStore {
    profiles: BTreeMap<KeyBytes, PeerProfile>,
}

impl ProfileStore {
    /// An empty store.
    pub fn new() -> ProfileStore {
        ProfileStore::default()
    }

    /// Number of profiled peers.
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// Whether no peer has been profiled yet.
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }

    /// The profile for `key`, if any transfer has been recorded.
    pub fn profile(&self, key: &KeyBytes) -> Option<&PeerProfile> {
        self.profiles.get(key)
    }

    /// Folds one transfer sample into `key`'s profile (creating it at the
    /// default rung on first contact).
    #[allow(clippy::too_many_arguments)]
    pub fn record_transfer(
        &mut self,
        cfg: &ProfileConfig,
        key: &KeyBytes,
        bytes: u64,
        secs: f64,
        lost: u64,
        total: u64,
        rtt_us: Option<f64>,
    ) -> LadderMove {
        self.profiles
            .entry(*key)
            .or_default()
            .record_transfer(cfg, bytes, secs, lost, total, rtt_us)
    }

    /// The chunk size to disseminate with for a set of target peers: the
    /// *minimum* of the targets' rung sizes, because one manifest serves
    /// them all and must fit the weakest uplink. Peers with no profile
    /// contribute `default_size` unchanged, so a fresh swarm behaves
    /// exactly like the static configuration.
    pub fn preferred_chunk_size(&self, targets: &[KeyBytes], default_size: usize) -> usize {
        targets
            .iter()
            .map(|key| {
                self.profiles
                    .get(key)
                    .map_or(default_size, PeerProfile::chunk_size)
            })
            .min()
            .unwrap_or(default_size)
    }

    /// Peers ordered for fetch planning: descending smoothed throughput,
    /// unprofiled peers last, ties broken by key so the order is
    /// deterministic. Returns indices into `peers`.
    pub fn plan_order(&self, peers: &[KeyBytes]) -> Vec<usize> {
        let mut order: Vec<usize> = (0..peers.len()).collect();
        order.sort_by(|&a, &b| {
            let bps = |i: usize| {
                self.profiles
                    .get(&peers[i])
                    .and_then(PeerProfile::throughput_bps)
                    .unwrap_or(-1.0)
            };
            bps(b)
                .partial_cmp(&bps(a))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| peers[a].cmp(&peers[b]))
        });
        order
    }

    /// Serializes every profile (versioned, little-endian, no external
    /// dependencies).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.profiles.len() * 96);
        out.extend_from_slice(PROFILE_MAGIC);
        out.extend_from_slice(&(self.profiles.len() as u64).to_le_bytes());
        for (key, p) in &self.profiles {
            out.extend_from_slice(key);
            out.push(p.rung);
            out.extend_from_slice(&p.stable.to_le_bytes());
            out.extend_from_slice(&p.transfers.to_le_bytes());
            out.extend_from_slice(&p.loss.to_bits().to_le_bytes());
            // Options encode as a presence byte + payload bits.
            match p.throughput_bps {
                Some(v) => {
                    out.push(1);
                    out.extend_from_slice(&v.to_bits().to_le_bytes());
                }
                None => {
                    out.push(0);
                    out.extend_from_slice(&[0u8; 8]);
                }
            }
            match p.rtt_us {
                Some(v) => {
                    out.push(1);
                    out.extend_from_slice(&v.to_bits().to_le_bytes());
                }
                None => {
                    out.push(0);
                    out.extend_from_slice(&[0u8; 8]);
                }
            }
        }
        out
    }

    /// Parses bytes produced by [`to_bytes`](Self::to_bytes).
    ///
    /// # Errors
    ///
    /// `InvalidData` on bad magic, truncation, or out-of-range fields
    /// (rungs are clamped to the ladder; non-finite floats rejected).
    pub fn from_bytes(buf: &[u8]) -> io::Result<ProfileStore> {
        fn bad(reason: &str) -> io::Error {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("profile store: {reason}"),
            )
        }
        fn take<'a>(buf: &mut &'a [u8], n: usize) -> io::Result<&'a [u8]> {
            if buf.len() < n {
                return Err(bad("truncated"));
            }
            let (head, tail) = buf.split_at(n);
            *buf = tail;
            Ok(head)
        }
        fn f64_of(raw: &[u8]) -> io::Result<f64> {
            let v = f64::from_bits(u64::from_le_bytes(raw.try_into().expect("8 bytes")));
            if v.is_finite() {
                Ok(v)
            } else {
                Err(bad("non-finite float"))
            }
        }
        let mut buf = buf;
        if take(&mut buf, 8)? != PROFILE_MAGIC {
            return Err(bad("bad magic"));
        }
        let count = u64::from_le_bytes(take(&mut buf, 8)?.try_into().expect("8 bytes"));
        // Each entry is at least 96 bytes; reject counts the buffer cannot
        // possibly hold before reserving anything.
        if count as usize > buf.len() / 96 {
            return Err(bad("entry count exceeds buffer"));
        }
        let mut profiles = BTreeMap::new();
        for _ in 0..count {
            let mut key = [0u8; 64];
            key.copy_from_slice(take(&mut buf, 64)?);
            let rung = take(&mut buf, 1)?[0];
            if rung as usize >= ChunkLadder::COUNT {
                return Err(bad("rung beyond ladder"));
            }
            let stable = u32::from_le_bytes(take(&mut buf, 4)?.try_into().expect("4 bytes"));
            let transfers = u64::from_le_bytes(take(&mut buf, 8)?.try_into().expect("8 bytes"));
            let loss = f64_of(take(&mut buf, 8)?)?;
            if !(0.0..=1.0).contains(&loss) {
                return Err(bad("loss outside [0, 1]"));
            }
            let tp_present = take(&mut buf, 1)?[0];
            let tp_raw = take(&mut buf, 8)?;
            let throughput_bps = match tp_present {
                0 => None,
                1 => Some(f64_of(tp_raw)?).filter(|v| *v >= 0.0),
                _ => return Err(bad("bad presence byte")),
            };
            let rtt_present = take(&mut buf, 1)?[0];
            let rtt_raw = take(&mut buf, 8)?;
            let rtt_us = match rtt_present {
                0 => None,
                1 => Some(f64_of(rtt_raw)?).filter(|v| *v >= 0.0),
                _ => return Err(bad("bad presence byte")),
            };
            profiles.insert(
                key,
                PeerProfile {
                    throughput_bps,
                    rtt_us,
                    loss,
                    rung,
                    stable,
                    transfers,
                },
            );
        }
        if !buf.is_empty() {
            return Err(bad("trailing bytes"));
        }
        Ok(ProfileStore { profiles })
    }

    /// Writes the store to `path` (atomic enough for a single writer:
    /// temp file + rename).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, self.to_bytes())?;
        std::fs::rename(&tmp, path)
    }

    /// Loads a store from `path`; a missing file is an empty store (first
    /// run), any other error propagates.
    ///
    /// # Errors
    ///
    /// Propagates filesystem and parse errors (except `NotFound`).
    pub fn load(path: &Path) -> io::Result<ProfileStore> {
        match std::fs::read(path) {
            Ok(bytes) => ProfileStore::from_bytes(&bytes),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(ProfileStore::new()),
            Err(e) => Err(e),
        }
    }

    /// Iterates `(key, profile)` in deterministic key order.
    pub fn iter(&self) -> impl Iterator<Item = (&KeyBytes, &PeerProfile)> {
        self.profiles.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(tag: u8) -> KeyBytes {
        let mut k = [0u8; 64];
        k[0] = tag;
        k
    }

    #[test]
    fn fresh_profile_starts_at_default_rung() {
        let p = PeerProfile::default();
        assert_eq!(p.rung(), ChunkLadder::DEFAULT_RUNG);
        assert_eq!(p.chunk_size(), asymshare_rlnc::CHUNK_SIZE);
        assert_eq!(p.transfers(), 0);
    }

    #[test]
    fn clean_fast_link_climbs_one_rung_per_streak() {
        let cfg = ProfileConfig::default();
        let mut p = PeerProfile::default();
        // 12.5 MB/s fiber: target is the 4 MiB top rung, two above default.
        let mut ups = 0;
        for i in 1..=9u64 {
            let mv = p.record_transfer(&cfg, 12_500_000, 1.0, 0, 100, None);
            if mv == LadderMove::Up {
                ups += 1;
            }
            // One move per full streak, never faster.
            assert!(ups <= i as u32 / cfg.stable_transfers);
        }
        assert_eq!(ups, 2, "two streaks of three → the two rungs to the top");
        assert_eq!(p.rung(), ChunkLadder::COUNT - 1);
        assert_eq!(p.chunk_size(), ChunkLadder::MAX);
    }

    #[test]
    fn slow_link_steps_down_toward_target() {
        let cfg = ProfileConfig::default();
        let mut p = PeerProfile::default();
        // 48 KB/s DSL uplink: target ≈ 128 KiB (rung 1) from the 1 MiB
        // default (rung 4).
        let mut downs = 0;
        for _ in 0..12 {
            if p.record_transfer(&cfg, 48_000, 1.0, 0, 100, None) == LadderMove::Down {
                downs += 1;
            }
        }
        assert_eq!(downs, 3);
        assert_eq!(p.chunk_size(), 128 << 10);
        // Parked at the target: no further moves.
        for _ in 0..6 {
            assert_eq!(
                p.record_transfer(&cfg, 48_000, 1.0, 0, 100, None),
                LadderMove::Hold
            );
        }
    }

    #[test]
    fn sustained_loss_forces_downgrades_and_resets_streak() {
        let cfg = ProfileConfig::default();
        let mut p = PeerProfile::default();
        // 10% loss blows through the 2% downgrade trigger immediately.
        assert_eq!(
            p.record_transfer(&cfg, 1_000_000, 1.0, 10, 100, None),
            LadderMove::ForcedDown
        );
        assert_eq!(p.rung(), ChunkLadder::DEFAULT_RUNG - 1);
        assert_eq!(p.stable_streak(), 0);
        // Keep losing: walk to the floor and hold there.
        for _ in 0..10 {
            p.record_transfer(&cfg, 1_000_000, 1.0, 10, 100, None);
        }
        assert_eq!(p.rung(), 0);
        assert_eq!(
            p.record_transfer(&cfg, 1_000_000, 1.0, 10, 100, None),
            LadderMove::Hold,
            "floor holds"
        );
    }

    #[test]
    fn loss_ewma_must_decay_before_upgrades_resume() {
        let cfg = ProfileConfig::default();
        let mut p = PeerProfile::default();
        for _ in 0..3 {
            p.record_transfer(&cfg, 12_500_000, 1.0, 50, 100, None);
        }
        assert!(p.rung() < ChunkLadder::DEFAULT_RUNG, "loss knocked it down");
        // Clean transfers decay the loss EWMA; upgrades resume only once
        // it sinks below the 0.2% gate, then streaks climb back up.
        let mut first_up = None;
        for i in 0..100 {
            if p.record_transfer(&cfg, 12_500_000, 1.0, 0, 100, None) == LadderMove::Up {
                first_up.get_or_insert(i);
            }
        }
        let first_up = first_up.expect("clean streaks eventually re-earn an upgrade");
        assert!(
            first_up >= 10,
            "the loss EWMA must decay first (first up at {first_up})"
        );
        assert_eq!(p.rung(), ChunkLadder::COUNT - 1, "fully recovered");
    }

    #[test]
    fn rtt_inflation_forces_downgrade() {
        let cfg = ProfileConfig::default();
        let mut p = PeerProfile::default();
        assert_eq!(
            p.record_transfer(&cfg, 1_000_000, 1.0, 0, 100, Some(500_000.0)),
            LadderMove::ForcedDown,
            "0.5 s RTT is far past the 200 ms trigger"
        );
    }

    #[test]
    fn degenerate_samples_are_ignored() {
        let cfg = ProfileConfig::default();
        let mut p = PeerProfile::default();
        p.record_transfer(&cfg, 0, 0.0, 0, 0, Some(f64::NAN));
        assert_eq!(p.throughput_bps(), None);
        assert_eq!(p.rtt_us(), None);
        assert_eq!(p.loss(), 0.0);
        assert_eq!(p.transfers(), 1);
    }

    #[test]
    fn store_round_trips_through_bytes() {
        let cfg = ProfileConfig::default();
        let mut store = ProfileStore::new();
        store.record_transfer(&cfg, &key(1), 12_500_000, 1.0, 0, 100, Some(40_000.0));
        store.record_transfer(&cfg, &key(2), 48_000, 1.0, 3, 100, None);
        for _ in 0..7 {
            store.record_transfer(&cfg, &key(1), 12_500_000, 1.0, 0, 100, Some(40_000.0));
        }
        let bytes = store.to_bytes();
        let back = ProfileStore::from_bytes(&bytes).unwrap();
        assert_eq!(back, store);
    }

    #[test]
    fn from_bytes_rejects_corruption() {
        let cfg = ProfileConfig::default();
        let mut store = ProfileStore::new();
        store.record_transfer(&cfg, &key(9), 1_000_000, 1.0, 0, 10, None);
        let bytes = store.to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                ProfileStore::from_bytes(&bytes[..cut]).is_err(),
                "cut {cut}"
            );
        }
        let mut bad = bytes.clone();
        bad[0] ^= 1;
        assert!(ProfileStore::from_bytes(&bad).is_err(), "bad magic");
        // Absurd entry count.
        let mut bad = bytes.clone();
        bad[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(ProfileStore::from_bytes(&bad).is_err(), "count bomb");
        // Rung beyond the ladder.
        let mut bad = bytes.clone();
        bad[16 + 64] = ChunkLadder::COUNT as u8;
        assert!(ProfileStore::from_bytes(&bad).is_err(), "bad rung");
    }

    #[test]
    fn save_load_round_trips_and_missing_file_is_empty() {
        let cfg = ProfileConfig::default();
        let dir = std::env::temp_dir().join("asymshare-profile-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("profiles-{}.bin", std::process::id()));
        let _ = std::fs::remove_file(&path);
        assert!(ProfileStore::load(&path).unwrap().is_empty());
        let mut store = ProfileStore::new();
        for _ in 0..5 {
            store.record_transfer(&cfg, &key(3), 256_000, 2.0, 1, 50, None);
        }
        store.save(&path).unwrap();
        let back = ProfileStore::load(&path).unwrap();
        assert_eq!(back, store);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn preferred_size_is_min_across_targets() {
        let cfg = ProfileConfig::default();
        let mut store = ProfileStore::new();
        // key(1) climbs to 2 MiB, key(2) sinks to 128 KiB.
        for _ in 0..6 {
            store.record_transfer(&cfg, &key(1), 12_500_000, 1.0, 0, 100, None);
        }
        for _ in 0..12 {
            store.record_transfer(&cfg, &key(2), 48_000, 1.0, 0, 100, None);
        }
        let one_mib = 1 << 20;
        assert!(store.profile(&key(1)).unwrap().chunk_size() > one_mib);
        assert_eq!(store.profile(&key(2)).unwrap().chunk_size(), 128 << 10);
        assert_eq!(
            store.preferred_chunk_size(&[key(1), key(2)], one_mib),
            128 << 10,
            "the weakest target bounds the shared manifest"
        );
        assert_eq!(
            store.preferred_chunk_size(&[key(1)], one_mib),
            store.profile(&key(1)).unwrap().chunk_size()
        );
        // Unprofiled targets contribute the static default.
        assert_eq!(
            store.preferred_chunk_size(&[key(1), key(7)], one_mib),
            one_mib
        );
        assert_eq!(store.preferred_chunk_size(&[], one_mib), one_mib);
    }

    #[test]
    fn plan_order_is_deterministic_and_throughput_sorted() {
        let cfg = ProfileConfig::default();
        let mut store = ProfileStore::new();
        store.record_transfer(&cfg, &key(1), 100_000, 1.0, 0, 10, None);
        store.record_transfer(&cfg, &key(2), 9_000_000, 1.0, 0, 10, None);
        let peers = [key(1), key(2), key(3)];
        assert_eq!(store.plan_order(&peers), vec![1, 0, 2]);
        // Ties (both unprofiled) break by key.
        let peers = [key(9), key(4)];
        assert_eq!(store.plan_order(&peers), vec![1, 0]);
    }

    #[test]
    fn identical_sample_sequences_replay_identical_trajectories() {
        let cfg = ProfileConfig::default();
        let samples: Vec<(u64, f64, u64, u64)> = (0..40)
            .map(|i| {
                let bytes = 100_000 + (i as u64 * 37_919) % 9_000_000;
                let lost = if i % 7 == 0 { 5 } else { 0 };
                (bytes, 1.0 + (i % 3) as f64 * 0.5, lost, 100)
            })
            .collect();
        let run = || {
            let mut p = PeerProfile::default();
            let mut trajectory = Vec::new();
            for &(bytes, secs, lost, total) in &samples {
                let mv = p.record_transfer(&cfg, bytes, secs, lost, total, None);
                trajectory.push((mv, p.rung()));
            }
            (trajectory, p)
        };
        let (t1, p1) = run();
        let (t2, p2) = run();
        assert_eq!(t1, t2);
        assert_eq!(p1, p2);
    }
}
