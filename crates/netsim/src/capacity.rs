//! Time-varying link capacity.
//!
//! A [`CapacitySchedule`] is a piecewise-constant function from simulated
//! time to link rate — the same model Mahimahi derives from its
//! packet-delivery-opportunity traces. The bottleneck integrates the
//! schedule to find when a packet of a given size finishes serialization,
//! which handles zero-capacity outages (an LTE deep fade) naturally: the
//! packet simply waits for the next non-zero segment.

use libra_types::{Duration, Instant, Rate};

/// A piecewise-constant capacity profile.
///
/// Segment `i` holds rate `segments[i].1` from `segments[i].0` until the
/// next segment's start (the final segment holds forever). Segments are
/// sorted by start time and the first segment starts at time zero.
#[derive(Debug, Clone)]
pub struct CapacitySchedule {
    segments: Vec<(Instant, Rate)>,
}

impl CapacitySchedule {
    /// A constant-rate link.
    pub fn constant(rate: Rate) -> Self {
        CapacitySchedule {
            segments: vec![(Instant::ZERO, rate)],
        }
    }

    /// Build from explicit `(start, rate)` breakpoints. Breakpoints are
    /// sorted; a segment at time zero is synthesized (rate of the earliest
    /// breakpoint) if missing.
    pub fn from_segments(mut segments: Vec<(Instant, Rate)>) -> Self {
        assert!(!segments.is_empty(), "capacity schedule needs >= 1 segment");
        segments.sort_by_key(|s| s.0);
        if segments[0].0 != Instant::ZERO {
            let first_rate = segments[0].1;
            segments.insert(0, (Instant::ZERO, first_rate));
        }
        // Collapse duplicate start times, keeping the last entry.
        segments.dedup_by(|b, a| {
            if a.0 == b.0 {
                a.1 = b.1;
                true
            } else {
                false
            }
        });
        CapacitySchedule { segments }
    }

    /// The paper's *step scenario* (Fig. 2a): capacity changes every
    /// `period`, cycling through `rates`.
    pub fn step(rates: &[Rate], period: Duration, total: Duration) -> Self {
        assert!(!rates.is_empty());
        let mut segments = Vec::new();
        let mut t = Instant::ZERO;
        let mut i = 0usize;
        while t.nanos() < total.nanos() {
            segments.push((t, rates[i % rates.len()]));
            i += 1;
            t += period;
        }
        CapacitySchedule::from_segments(segments)
    }

    /// Overlay zero-capacity outage windows (e.g. fault-plan link flaps)
    /// onto this schedule: within each `[from, to)` window the rate is
    /// forced to zero, and at `to` the underlying schedule resumes.
    pub fn with_outages(&self, outages: &[(Instant, Instant)]) -> Self {
        if outages.is_empty() {
            return self.clone();
        }
        // Coalesced, so each resume point is genuinely outside every
        // outage.
        let windows = merge_outages(outages.iter().copied());
        let mut segments = Vec::new();
        for &(start, rate) in &self.segments {
            if windows.iter().any(|&(a, b)| a <= start && start < b) {
                // Breakpoint swallowed by an outage; the resume point below
                // restores the correct underlying rate.
                continue;
            }
            segments.push((start, rate));
        }
        for &(a, b) in &windows {
            segments.push((a, Rate::ZERO));
            if b != Instant::FAR_FUTURE {
                segments.push((b, self.rate_at(b)));
            }
        }
        CapacitySchedule::from_segments(segments)
    }

    /// Rate in force at `t`.
    pub fn rate_at(&self, t: Instant) -> Rate {
        match self.segments.binary_search_by_key(&t, |s| s.0) {
            Ok(i) => self.segments[i].1,
            Err(0) => self.segments[0].1,
            Err(i) => self.segments[i - 1].1,
        }
    }

    /// Index of the segment in force at `t`.
    fn segment_index(&self, t: Instant) -> usize {
        match self.segments.binary_search_by_key(&t, |s| s.0) {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) => i - 1,
        }
    }

    /// Index of the segment in force at `t`, starting the search at a
    /// cached `hint` index. Simulated time only moves forward, so the hot
    /// service loop advances linearly (amortized O(1)) instead of
    /// re-binary-searching per packet; a hint from the future (never the
    /// case in the service loop) falls back to the full search.
    fn segment_index_from(&self, hint: usize, t: Instant) -> usize {
        let mut idx = hint.min(self.segments.len() - 1);
        if self.segments[idx].0 > t {
            return self.segment_index(t);
        }
        while idx + 1 < self.segments.len() && self.segments[idx + 1].0 <= t {
            idx += 1;
        }
        idx
    }

    /// When does a transmission of `bytes`, starting at `start`, finish?
    ///
    /// Integrates the capacity forward from `start` until the required
    /// bits have been serialized. Returns [`Instant::FAR_FUTURE`] if the
    /// schedule can never deliver them (zero capacity to the end).
    pub fn service_finish(&self, start: Instant, bytes: u64) -> Instant {
        self.service_finish_inner(self.segment_index(start), start, bytes)
    }

    /// [`service_finish`](Self::service_finish) with a mutable segment
    /// cursor: `cursor` is the last segment index the caller saw and is
    /// updated to the segment in force at `start`. The simulation's
    /// service loop calls this with monotonically nondecreasing `start`
    /// times, so the lookup is amortized O(1). Results are bit-identical
    /// to the cursor-free path.
    pub fn service_finish_hinted(&self, cursor: &mut usize, start: Instant, bytes: u64) -> Instant {
        let idx = self.segment_index_from(*cursor, start);
        *cursor = idx;
        self.service_finish_inner(idx, start, bytes)
    }

    fn service_finish_inner(&self, start_idx: usize, start: Instant, bytes: u64) -> Instant {
        let mut remaining_bits = bytes as f64 * 8.0;
        if remaining_bits <= 0.0 {
            return start;
        }
        let mut idx = start_idx;
        let mut t = start;
        loop {
            let rate = self.segments[idx].1;
            let seg_end = self
                .segments
                .get(idx + 1)
                .map(|s| s.0)
                .unwrap_or(Instant::FAR_FUTURE);
            if !rate.is_zero() {
                let finish = t + Duration::from_secs_f64(remaining_bits / rate.bps());
                if finish <= seg_end || seg_end == Instant::FAR_FUTURE {
                    return finish;
                }
                // Serve what fits in this segment, carry the rest over.
                let seg_span = seg_end.saturating_since(t);
                remaining_bits -= rate.bps() * seg_span.as_secs_f64();
            }
            if seg_end == Instant::FAR_FUTURE {
                // Zero-rate final segment with bits left over.
                return Instant::FAR_FUTURE;
            }
            t = seg_end;
            idx += 1;
        }
    }

    /// Total bytes the link could carry between `a` and `b` — the
    /// denominator of link-utilization figures.
    pub fn capacity_bytes(&self, a: Instant, b: Instant) -> f64 {
        if b <= a {
            return 0.0;
        }
        let mut total_bits = 0.0;
        let mut idx = self.segment_index(a);
        let mut t = a;
        while t < b {
            let rate = self.segments[idx].1;
            let seg_end = self
                .segments
                .get(idx + 1)
                .map(|s| s.0)
                .unwrap_or(Instant::FAR_FUTURE);
            let span_end = seg_end.min(b);
            total_bits += rate.bps() * span_end.saturating_since(t).as_secs_f64();
            if seg_end >= b {
                break;
            }
            t = seg_end;
            idx += 1;
        }
        total_bits / 8.0
    }

    /// Mean capacity over `[a, b]`.
    pub fn mean_rate(&self, a: Instant, b: Instant) -> Rate {
        let span = b.saturating_since(a);
        if span.is_zero() {
            return self.rate_at(a);
        }
        Rate::from_bps(self.capacity_bytes(a, b) * 8.0 / span.as_secs_f64())
    }

    /// The breakpoints, for plotting capacity alongside throughput.
    pub fn segments(&self) -> &[(Instant, Rate)] {
        &self.segments
    }

    /// Sampled `(seconds, mbps)` series at `step` granularity up to `until`
    /// (for experiment output).
    pub fn series(&self, until: Instant, step: Duration) -> Vec<(f64, f64)> {
        let mut out = Vec::new();
        let mut t = Instant::ZERO;
        while t <= until {
            out.push((t.as_secs_f64(), self.rate_at(t).mbps()));
            t += step;
        }
        out
    }
}

/// The outages `windows` actually cause: empty and inverted windows
/// dropped, the rest sorted and overlapping or adjacent ones coalesced.
/// Both the capacity overlay and the link-flap count read this, so a
/// flap is counted once per outage the link really goes through.
pub(crate) fn merge_outages(
    windows: impl IntoIterator<Item = (Instant, Instant)>,
) -> Vec<(Instant, Instant)> {
    let mut sorted: Vec<(Instant, Instant)> = windows.into_iter().filter(|(a, b)| a < b).collect();
    sorted.sort();
    let mut merged: Vec<(Instant, Instant)> = Vec::new();
    for (a, b) in sorted {
        match merged.last_mut() {
            Some(last) if a <= last.1 => last.1 = last.1.max(b),
            _ => merged.push((a, b)),
        }
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mbps(x: f64) -> Rate {
        Rate::from_mbps(x)
    }

    #[test]
    fn constant_schedule() {
        let c = CapacitySchedule::constant(mbps(10.0));
        assert_eq!(c.rate_at(Instant::from_secs(5)), mbps(10.0));
        // 1500 bytes at 10 Mbps = 1.2 ms
        let f = c.service_finish(Instant::ZERO, 1500);
        assert!((f.as_secs_f64() - 0.0012).abs() < 1e-9);
    }

    #[test]
    fn step_schedule_lookup() {
        let c = CapacitySchedule::step(
            &[mbps(5.0), mbps(20.0)],
            Duration::from_secs(10),
            Duration::from_secs(40),
        );
        assert_eq!(c.rate_at(Instant::from_secs(3)), mbps(5.0));
        assert_eq!(c.rate_at(Instant::from_secs(10)), mbps(20.0));
        assert_eq!(c.rate_at(Instant::from_secs(25)), mbps(5.0));
        assert_eq!(c.rate_at(Instant::from_secs(999)), mbps(20.0));
    }

    #[test]
    fn service_spans_segments() {
        // 1 Mbps for 1 s, then 9 Mbps. 250 kB = 2 Mbit: 1 Mbit in the first
        // second, remaining 1 Mbit at 9 Mbps = 1/9 s.
        let c = CapacitySchedule::from_segments(vec![
            (Instant::ZERO, mbps(1.0)),
            (Instant::from_secs(1), mbps(9.0)),
        ]);
        let f = c.service_finish(Instant::ZERO, 250_000);
        assert!((f.as_secs_f64() - (1.0 + 1.0 / 9.0)).abs() < 1e-6);
    }

    #[test]
    fn service_waits_out_zero_capacity() {
        let c = CapacitySchedule::from_segments(vec![
            (Instant::ZERO, Rate::ZERO),
            (Instant::from_secs(2), mbps(8.0)),
        ]);
        // Nothing moves for 2 s, then 1500 bytes at 8 Mbps = 1.5 ms.
        let f = c.service_finish(Instant::ZERO, 1500);
        assert!((f.as_secs_f64() - 2.0015).abs() < 1e-9);
    }

    #[test]
    fn service_never_finishes_on_dead_link() {
        let c = CapacitySchedule::constant(Rate::ZERO);
        assert_eq!(c.service_finish(Instant::ZERO, 1), Instant::FAR_FUTURE);
    }

    #[test]
    fn capacity_bytes_integrates() {
        let c = CapacitySchedule::from_segments(vec![
            (Instant::ZERO, mbps(8.0)),
            (Instant::from_secs(1), mbps(16.0)),
        ]);
        // 1 s at 1 MB/s + 1 s at 2 MB/s
        let b = c.capacity_bytes(Instant::ZERO, Instant::from_secs(2));
        assert!((b - 3_000_000.0).abs() < 1.0);
        // Partial window inside one segment.
        let b2 = c.capacity_bytes(Instant::from_millis(500), Instant::from_millis(1500));
        assert!((b2 - (500_000.0 + 1_000_000.0)).abs() < 1.0);
        assert_eq!(
            c.capacity_bytes(Instant::from_secs(3), Instant::from_secs(3)),
            0.0
        );
    }

    #[test]
    fn mean_rate_weighted() {
        let c = CapacitySchedule::from_segments(vec![
            (Instant::ZERO, mbps(10.0)),
            (Instant::from_secs(1), mbps(30.0)),
        ]);
        let m = c.mean_rate(Instant::ZERO, Instant::from_secs(2));
        assert!((m.mbps() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn from_segments_sorts_and_fills_zero() {
        let c = CapacitySchedule::from_segments(vec![
            (Instant::from_secs(5), mbps(2.0)),
            (Instant::from_secs(1), mbps(7.0)),
        ]);
        assert_eq!(c.rate_at(Instant::ZERO), mbps(7.0));
        assert_eq!(c.rate_at(Instant::from_secs(6)), mbps(2.0));
    }

    #[test]
    fn outage_overlay_zeros_windows() {
        let c = CapacitySchedule::constant(mbps(10.0)).with_outages(&[
            (Instant::from_secs(2), Instant::from_secs(3)),
            (Instant::from_secs(5), Instant::from_secs(6)),
        ]);
        assert_eq!(c.rate_at(Instant::from_secs(1)), mbps(10.0));
        assert_eq!(c.rate_at(Instant::from_secs(2)), Rate::ZERO);
        assert_eq!(c.rate_at(Instant::from_millis(2999)), Rate::ZERO);
        assert_eq!(c.rate_at(Instant::from_secs(3)), mbps(10.0));
        assert_eq!(c.rate_at(Instant::from_millis(5500)), Rate::ZERO);
        assert_eq!(c.rate_at(Instant::from_secs(7)), mbps(10.0));
    }

    #[test]
    fn outage_overlay_preserves_underlying_steps() {
        // Underlying step at t=4 sits inside the outage [3, 5): after the
        // outage the post-step rate must be in force.
        let c = CapacitySchedule::from_segments(vec![
            (Instant::ZERO, mbps(10.0)),
            (Instant::from_secs(4), mbps(20.0)),
        ])
        .with_outages(&[(Instant::from_secs(3), Instant::from_secs(5))]);
        assert_eq!(c.rate_at(Instant::from_millis(3500)), Rate::ZERO);
        assert_eq!(c.rate_at(Instant::from_millis(4500)), Rate::ZERO);
        assert_eq!(c.rate_at(Instant::from_secs(5)), mbps(20.0));
    }

    #[test]
    fn outage_overlay_merges_overlaps() {
        let c = CapacitySchedule::constant(mbps(10.0)).with_outages(&[
            (Instant::from_secs(1), Instant::from_secs(3)),
            (Instant::from_secs(2), Instant::from_secs(4)),
        ]);
        assert_eq!(c.rate_at(Instant::from_millis(3500)), Rate::ZERO);
        assert_eq!(c.rate_at(Instant::from_secs(4)), mbps(10.0));
        // Empty overlay is a no-op.
        let c2 = CapacitySchedule::constant(mbps(10.0)).with_outages(&[]);
        assert_eq!(c2.rate_at(Instant::ZERO), mbps(10.0));
    }

    #[test]
    fn hinted_service_finish_matches_search() {
        let c = CapacitySchedule::step(
            &[mbps(5.0), mbps(0.0), mbps(20.0), mbps(2.0)],
            Duration::from_millis(700),
            Duration::from_secs(30),
        );
        let mut cursor = 0usize;
        // Monotone forward sweep: the cursor path must be bit-identical to
        // the binary-search path at every step.
        for i in 0..2000u64 {
            let t = Instant::from_millis(i * 14);
            let bytes = 1500 + (i % 7) * 300;
            let expect = c.service_finish(t, bytes);
            let got = c.service_finish_hinted(&mut cursor, t, bytes);
            assert_eq!(got, expect, "mismatch at t={t}");
        }
        // A stale (future) cursor still answers correctly for earlier times.
        let mut late = c.segments().len() - 1;
        assert_eq!(
            c.service_finish_hinted(&mut late, Instant::from_millis(10), 1500),
            c.service_finish(Instant::from_millis(10), 1500)
        );
    }

    #[test]
    fn series_sampling() {
        let c = CapacitySchedule::constant(mbps(4.0));
        let s = c.series(Instant::from_secs(1), Duration::from_millis(500));
        assert_eq!(s.len(), 3);
        assert!(s.iter().all(|&(_, m)| (m - 4.0).abs() < 1e-12));
    }
}
