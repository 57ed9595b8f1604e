//! Per-cycle telemetry: which candidate won, the utilities measured, and
//! the decision-fraction accounting behind Fig. 17 and Fig. 18.

use libra_types::{trace::CandidateKind, Instant};

/// One completed control cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CycleRecord {
    /// When the cycle's decision was taken.
    pub at: Instant,
    /// Utility measured for `x_prev` during exploration (`None` when the
    /// exploration stage was ACK-starved and produced no feedback — an
    /// ACK-starved stage must not masquerade as a −∞ measurement).
    pub u_prev: Option<f64>,
    /// Utility measured for `x_cl` (`None` if feedback was missing or no
    /// classic CCA is configured — Clean-Slate Libra).
    pub u_classic: Option<f64>,
    /// Utility measured for `x_rl` (`None` if feedback was missing).
    pub u_learned: Option<f64>,
    /// The winning candidate applied as the next base rate.
    pub winner: CandidateKind,
    /// The winning rate in Mbps.
    pub rate_mbps: f64,
    /// Whether the cycle left exploration early (threshold trip).
    pub early_exit: bool,
}

impl CycleRecord {
    /// The best *finite* utility observed in this cycle (for Fig. 18's
    /// series). `None` when every candidate's measurement is missing or
    /// non-finite — a fully starved cycle has no best utility, rather
    /// than a −∞ one that would poison downstream normalization.
    pub fn best_utility(&self) -> Option<f64> {
        [self.u_prev, self.u_classic, self.u_learned]
            .into_iter()
            .flatten()
            .filter(|u| u.is_finite())
            .reduce(f64::max)
    }
}

/// Accumulated cycle log.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CycleLog {
    records: Vec<CycleRecord>,
}

impl CycleLog {
    /// Empty log.
    pub fn new() -> Self {
        CycleLog::default()
    }

    /// Append a record.
    pub fn push(&mut self, r: CycleRecord) {
        self.check_record(&r);
        self.records.push(r);
    }

    /// MI-accounting consistency (`checked-invariants` feature): cycle
    /// timestamps must be monotone nondecreasing, the applied rate must
    /// be finite and positive, and any utility that *is* reported must
    /// not be NaN (a starved stage reports `None`, never NaN).
    #[cfg(feature = "checked-invariants")]
    fn check_record(&self, r: &CycleRecord) {
        if let Some(last) = self.records.last() {
            assert!(
                r.at >= last.at,
                "cycle log time went backwards: {} < {}",
                r.at.as_secs_f64(),
                last.at.as_secs_f64()
            );
        }
        assert!(
            r.rate_mbps.is_finite() && r.rate_mbps > 0.0,
            "cycle record carries non-finite or non-positive rate: {}",
            r.rate_mbps
        );
        for (label, u) in [
            ("u_prev", r.u_prev),
            ("u_classic", r.u_classic),
            ("u_learned", r.u_learned),
        ] {
            if let Some(u) = u {
                assert!(!u.is_nan(), "cycle record {label} is NaN");
            }
        }
    }

    #[cfg(not(feature = "checked-invariants"))]
    #[inline(always)]
    fn check_record(&self, _r: &CycleRecord) {}

    /// All records.
    pub fn records(&self) -> &[CycleRecord] {
        &self.records
    }

    /// Cycles recorded.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Fraction of cycles won by each candidate:
    /// `(x_prev, x_rl, x_cl)` — Fig. 17's bars.
    pub fn fractions(&self) -> (f64, f64, f64) {
        if self.records.is_empty() {
            return (0.0, 0.0, 0.0);
        }
        let n = self.records.len() as f64;
        let count = |c| self.records.iter().filter(|r| r.winner == c).count() as f64 / n;
        (
            count(CandidateKind::Prev),
            count(CandidateKind::Learned),
            count(CandidateKind::Classic),
        )
    }

    /// `(seconds, best utility)` series, normalized to `[0, 1]` over the
    /// log — Fig. 18's y-axis. Cycles with no finite utility measurement
    /// (e.g. every stage ACK-starved during a link blackout) are skipped,
    /// so the series is always finite: an all-starved log yields an empty
    /// series instead of NaN points.
    pub fn normalized_utility_series(&self) -> Vec<(f64, f64)> {
        let pts: Vec<(f64, f64)> = self
            .records
            .iter()
            .filter_map(|r| r.best_utility().map(|u| (r.at.as_secs_f64(), u)))
            .collect();
        let (Some(lo), Some(hi)) = (
            pts.iter()
                .map(|&(_, u)| u)
                .fold(None, |m: Option<f64>, u| Some(m.map_or(u, |v| v.min(u)))),
            pts.iter()
                .map(|&(_, u)| u)
                .fold(None, |m: Option<f64>, u| Some(m.map_or(u, |v| v.max(u)))),
        ) else {
            return Vec::new();
        };
        debug_assert!(lo.is_finite() && hi.is_finite());
        let span = (hi - lo).max(1e-9);
        pts.into_iter().map(|(t, u)| (t, (u - lo) / span)).collect()
    }

    /// How often exploration exited early via the divergence threshold.
    pub fn early_exit_fraction(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records.iter().filter(|r| r.early_exit).count() as f64 / self.records.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(winner: CandidateKind, at_s: u64) -> CycleRecord {
        CycleRecord {
            at: Instant::from_secs(at_s),
            u_prev: Some(1.0),
            u_classic: Some(2.0),
            u_learned: Some(0.5),
            winner,
            rate_mbps: 10.0,
            early_exit: false,
        }
    }

    #[test]
    fn fractions_sum_to_one() {
        let mut log = CycleLog::new();
        log.push(rec(CandidateKind::Prev, 1));
        log.push(rec(CandidateKind::Classic, 2));
        log.push(rec(CandidateKind::Classic, 3));
        log.push(rec(CandidateKind::Learned, 4));
        let (p, r, c) = log.fractions();
        assert!((p - 0.25).abs() < 1e-12);
        assert!((r - 0.25).abs() < 1e-12);
        assert!((c - 0.5).abs() < 1e-12);
    }

    #[test]
    fn best_utility_takes_max() {
        let r = rec(CandidateKind::Classic, 1);
        assert_eq!(r.best_utility(), Some(2.0));
        let r2 = CycleRecord {
            u_classic: None,
            u_learned: None,
            ..r
        };
        assert_eq!(r2.best_utility(), Some(1.0));
    }

    #[test]
    fn best_utility_ignores_missing_and_non_finite() {
        // A fully starved cycle has no best utility at all.
        let starved = CycleRecord {
            u_prev: None,
            u_classic: None,
            u_learned: None,
            ..rec(CandidateKind::Prev, 1)
        };
        assert_eq!(starved.best_utility(), None);
        // Non-finite measurements never win (or poison) the max.
        let poisoned = CycleRecord {
            u_prev: Some(f64::NEG_INFINITY),
            u_classic: Some(0.25),
            u_learned: Some(f64::NAN),
            ..rec(CandidateKind::Classic, 2)
        };
        assert_eq!(poisoned.best_utility(), Some(0.25));
    }

    #[test]
    fn normalized_series_in_unit_range() {
        let mut log = CycleLog::new();
        for (i, w) in [
            CandidateKind::Prev,
            CandidateKind::Classic,
            CandidateKind::Learned,
        ]
        .iter()
        .enumerate()
        {
            let mut r = rec(*w, i as u64);
            r.u_prev = Some(i as f64 * 3.0);
            log.push(r);
        }
        let s = log.normalized_utility_series();
        assert_eq!(s.len(), 3);
        for (_, u) in &s {
            assert!((0.0..=1.0).contains(u));
        }
    }

    #[test]
    fn all_starved_log_yields_finite_empty_series() {
        // Regression: a log where every cycle was ACK-starved used to
        // normalize −∞ against −∞ and emit NaN points.
        let mut log = CycleLog::new();
        for i in 0..4 {
            log.push(CycleRecord {
                u_prev: None,
                u_classic: None,
                u_learned: None,
                ..rec(CandidateKind::Prev, i)
            });
        }
        assert!(log.normalized_utility_series().is_empty());
        // A single starved cycle between measured ones is skipped, not NaN.
        log.push(rec(CandidateKind::Classic, 5));
        let s = log.normalized_utility_series();
        assert_eq!(s.len(), 1);
        assert!(s.iter().all(|&(t, u)| t.is_finite() && u.is_finite()));
    }

    #[cfg(feature = "checked-invariants")]
    #[test]
    #[should_panic(expected = "non-finite")]
    fn checked_mode_rejects_nan_rate() {
        let mut log = CycleLog::new();
        let mut r = rec(CandidateKind::Prev, 1);
        r.rate_mbps = f64::NAN;
        log.push(r);
    }

    #[cfg(feature = "checked-invariants")]
    #[test]
    #[should_panic(expected = "time went backwards")]
    fn checked_mode_rejects_time_reversal() {
        let mut log = CycleLog::new();
        log.push(rec(CandidateKind::Prev, 5));
        log.push(rec(CandidateKind::Prev, 3));
    }

    #[test]
    fn empty_log_is_safe() {
        let log = CycleLog::new();
        assert_eq!(log.fractions(), (0.0, 0.0, 0.0));
        assert!(log.normalized_utility_series().is_empty());
        assert_eq!(log.early_exit_fraction(), 0.0);
    }
}
