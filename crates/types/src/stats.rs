//! Monitor-interval statistics and small statistics utilities.
//!
//! Rate-based and learning-based CCAs (and Libra's evaluation stage) consume
//! the network's feedback in *monitor intervals* (MIs): fixed spans over
//! which throughput, delay, delay gradient and loss are aggregated. The
//! [`MiTracker`] accumulates per-event data and closes into a [`MiStats`]
//! snapshot at each MI boundary.

use crate::events::{AckEvent, LossEvent, SendEvent};
use crate::time::{Duration, Instant};
use crate::units::Rate;

/// Aggregated statistics for one monitor interval.
#[derive(Debug, Clone, Copy)]
pub struct MiStats {
    /// MI start time.
    pub start: Instant,
    /// MI end time.
    pub end: Instant,
    /// Bytes handed to the network during the MI.
    pub sent_bytes: u64,
    /// Bytes acknowledged during the MI.
    pub acked_bytes: u64,
    /// Bytes declared lost during the MI.
    pub lost_bytes: u64,
    /// Number of ACKs received.
    pub acks: u32,
    /// Average sending rate over the MI.
    pub sending_rate: Rate,
    /// Average delivery (goodput) rate over the MI.
    pub delivery_rate: Rate,
    /// Mean of the RTT samples in the MI (zero if no ACKs).
    pub avg_rtt: Duration,
    /// Smallest RTT sample in the MI (zero if no ACKs).
    pub mi_min_rtt: Duration,
    /// Largest RTT sample in the MI (zero if no ACKs).
    pub mi_max_rtt: Duration,
    /// Connection-lifetime minimum RTT at MI close.
    pub min_rtt: Duration,
    /// Least-squares slope of RTT vs. time over the MI, in seconds of RTT
    /// per second of wall clock (dimensionless). This is the `d(RTT)/dt`
    /// term of the paper's utility function (Eq. 1).
    pub rtt_gradient: f64,
    /// Fraction of bytes lost: `lost / (lost + acked)`; zero if no traffic.
    pub loss_rate: f64,
}

impl MiStats {
    /// An all-zero snapshot for `start == end == t` (used when a controller
    /// must act before any feedback exists).
    pub fn empty(t: Instant) -> Self {
        MiStats {
            start: t,
            end: t,
            sent_bytes: 0,
            acked_bytes: 0,
            lost_bytes: 0,
            acks: 0,
            sending_rate: Rate::ZERO,
            delivery_rate: Rate::ZERO,
            avg_rtt: Duration::ZERO,
            mi_min_rtt: Duration::ZERO,
            mi_max_rtt: Duration::ZERO,
            min_rtt: Duration::ZERO,
            rtt_gradient: 0.0,
            loss_rate: 0.0,
        }
    }

    /// The MI length.
    pub fn duration(&self) -> Duration {
        self.end.saturating_since(self.start)
    }

    /// True when no ACK arrived during the MI — the "no ACK received"
    /// special case Libra handles explicitly (Sec. 3 of the paper).
    pub fn is_ack_starved(&self) -> bool {
        self.acks == 0
    }
}

/// Accumulates transport events between MI boundaries.
#[derive(Debug, Clone)]
pub struct MiTracker {
    start: Instant,
    sent_bytes: u64,
    acked_bytes: u64,
    lost_bytes: u64,
    acks: u32,
    rtt_sum_ns: u128,
    mi_min_rtt: Duration,
    mi_max_rtt: Duration,
    rtt_ols: OlsSums,
}

impl MiTracker {
    /// Start tracking a new MI at `start`.
    pub fn new(start: Instant) -> Self {
        MiTracker {
            start,
            sent_bytes: 0,
            acked_bytes: 0,
            lost_bytes: 0,
            acks: 0,
            rtt_sum_ns: 0,
            mi_min_rtt: Duration::MAX,
            mi_max_rtt: Duration::ZERO,
            rtt_ols: OlsSums::default(),
        }
    }

    /// Record a transmission.
    pub fn on_send(&mut self, ev: &SendEvent) {
        self.sent_bytes += ev.bytes;
    }

    /// Record an acknowledgement.
    pub fn on_ack(&mut self, ev: &AckEvent) {
        self.acked_bytes += ev.bytes;
        self.acks += 1;
        self.rtt_sum_ns += ev.rtt.nanos() as u128;
        self.mi_min_rtt = self.mi_min_rtt.min(ev.rtt);
        self.mi_max_rtt = self.mi_max_rtt.max(ev.rtt);
        let t = ev.now.saturating_since(self.start).as_secs_f64();
        self.rtt_ols.add(t, ev.rtt.as_secs_f64());
    }

    /// Record a loss.
    pub fn on_loss(&mut self, ev: &LossEvent) {
        self.lost_bytes += ev.bytes;
    }

    /// Close the MI at `end` and reset the tracker for the next interval.
    /// `min_rtt` is the connection-lifetime minimum RTT.
    ///
    /// The tracker is a fixed set of scalars, so neither feeding nor
    /// closing an MI touches the allocator however long the interval runs.
    pub fn close(&mut self, end: Instant, min_rtt: Duration) -> MiStats {
        let dur = end.saturating_since(self.start);
        let avg_rtt = if self.acks > 0 {
            Duration::from_nanos((self.rtt_sum_ns / self.acks as u128) as u64)
        } else {
            Duration::ZERO
        };
        let denom = self.acked_bytes + self.lost_bytes;
        let loss_rate = if denom > 0 {
            self.lost_bytes as f64 / denom as f64
        } else {
            0.0
        };
        let stats = MiStats {
            start: self.start,
            end,
            sent_bytes: self.sent_bytes,
            acked_bytes: self.acked_bytes,
            lost_bytes: self.lost_bytes,
            acks: self.acks,
            sending_rate: Rate::from_bytes_over(self.sent_bytes, dur),
            delivery_rate: Rate::from_bytes_over(self.acked_bytes, dur),
            avg_rtt,
            mi_min_rtt: if self.acks > 0 {
                self.mi_min_rtt
            } else {
                Duration::ZERO
            },
            mi_max_rtt: self.mi_max_rtt,
            min_rtt,
            rtt_gradient: self.rtt_ols.slope(),
            loss_rate,
        };
        self.start = end;
        self.sent_bytes = 0;
        self.acked_bytes = 0;
        self.lost_bytes = 0;
        self.acks = 0;
        self.rtt_sum_ns = 0;
        self.mi_min_rtt = Duration::MAX;
        self.mi_max_rtt = Duration::ZERO;
        self.rtt_ols = OlsSums::default();
        stats
    }

    /// The MI's start time.
    pub fn start(&self) -> Instant {
        self.start
    }
}

/// Running sums for the ordinary least-squares slope of RTT (y, seconds)
/// against time since MI start (x, seconds). Each sum is accumulated in
/// arrival order, so the result is bit-identical to four passes over a
/// buffered sample list.
#[derive(Debug, Clone, Copy, Default)]
struct OlsSums {
    n: u32,
    sx: f64,
    sy: f64,
    sxx: f64,
    sxy: f64,
}

impl OlsSums {
    fn add(&mut self, x: f64, y: f64) {
        self.n += 1;
        self.sx += x;
        self.sy += y;
        self.sxx += x * x;
        self.sxy += x * y;
    }

    /// The slope; zero with < 2 samples or a degenerate x-spread.
    fn slope(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        let nf = self.n as f64;
        let denom = nf * self.sxx - self.sx * self.sx;
        if denom.abs() < 1e-18 {
            return 0.0;
        }
        (nf * self.sxy - self.sx * self.sy) / denom
    }
}

/// Exponentially weighted moving average.
#[derive(Debug, Clone, Copy)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// `alpha` is the weight of the newest sample (0 < alpha ≤ 1).
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "EWMA alpha out of range");
        Ewma { alpha, value: None }
    }

    /// Fold in a sample; the first sample initializes the average.
    pub fn update(&mut self, sample: f64) -> f64 {
        let v = match self.value {
            None => sample,
            Some(prev) => prev + self.alpha * (sample - prev),
        };
        self.value = Some(v);
        v
    }

    /// Current average, or `None` before the first sample.
    pub fn get(&self) -> Option<f64> {
        self.value
    }

    /// Current average, or `default` before the first sample.
    pub fn get_or(&self, default: f64) -> f64 {
        self.value.unwrap_or(default)
    }
}

/// Welford's online mean/variance accumulator.
#[derive(Debug, Clone, Copy, Default)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Welford {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Welford {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Fold in a sample.
    pub fn update(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples seen.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (zero with no samples).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population standard deviation (zero with < 2 samples).
    pub fn std_dev(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / self.n as f64).sqrt()
        }
    }

    /// `max − min` (zero with no samples) — the paper's "Range" statistic
    /// in Tab. 6.
    pub fn range(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max - self.min
        }
    }

    /// Smallest sample (zero with no samples).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest sample (zero with no samples).
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }
}

/// Streaming quantile estimation with the P² algorithm (Jain & Chlamtac,
/// CACM 1985): five markers track the quantile in O(1) memory and O(1)
/// per-sample time, with parabolic interpolation between marker heights.
///
/// Used for per-flow p95 RTT so experiment runs never have to buffer the
/// full RTT sample stream.
#[derive(Debug, Clone, Copy)]
pub struct P2Quantile {
    /// Target quantile in (0, 1), e.g. 0.95.
    q: f64,
    /// Samples seen so far.
    n: u64,
    /// Marker heights (estimates of the 0, q/2, q, (1+q)/2, 1 quantiles).
    heights: [f64; 5],
    /// Actual marker positions (1-based sample ranks).
    positions: [f64; 5],
    /// Desired marker positions.
    desired: [f64; 5],
    /// Per-sample increments of the desired positions.
    increments: [f64; 5],
}

impl P2Quantile {
    /// An estimator for quantile `q` (clamped to (0, 1)).
    pub fn new(q: f64) -> Self {
        let q = q.clamp(1e-6, 1.0 - 1e-6);
        P2Quantile {
            q,
            n: 0,
            heights: [0.0; 5],
            positions: [1.0, 2.0, 3.0, 4.0, 5.0],
            desired: [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0],
            increments: [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0],
        }
    }

    /// A p95 estimator — the paper's tail-latency statistic.
    pub fn p95() -> Self {
        P2Quantile::new(0.95)
    }

    /// Samples seen so far.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Fold in one sample.
    pub fn update(&mut self, x: f64) {
        if self.n < 5 {
            // Bootstrap: collect the first five samples sorted.
            let i = self.n as usize;
            self.heights[i] = x;
            self.n += 1;
            if self.n == 5 {
                self.heights
                    .sort_unstable_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            }
            return;
        }
        self.n += 1;
        // Find the cell containing x and update the extremes.
        let k = if x < self.heights[0] {
            self.heights[0] = x;
            0
        } else if x < self.heights[1] {
            0
        } else if x < self.heights[2] {
            1
        } else if x < self.heights[3] {
            2
        } else if x <= self.heights[4] {
            3
        } else {
            self.heights[4] = x;
            3
        };
        for p in self.positions.iter_mut().skip(k + 1) {
            *p += 1.0;
        }
        for (d, inc) in self.desired.iter_mut().zip(self.increments) {
            *d += inc;
        }
        // Adjust the three interior markers toward their desired positions.
        for i in 1..4 {
            let d = self.desired[i] - self.positions[i];
            let right = self.positions[i + 1] - self.positions[i];
            let left = self.positions[i - 1] - self.positions[i];
            if (d >= 1.0 && right > 1.0) || (d <= -1.0 && left < -1.0) {
                let s = d.signum();
                let candidate = self.parabolic(i, s);
                self.heights[i] =
                    if self.heights[i - 1] < candidate && candidate < self.heights[i + 1] {
                        candidate
                    } else {
                        self.linear(i, s)
                    };
                self.positions[i] += s;
            }
        }
    }

    /// Piecewise-parabolic (P²) height prediction for marker `i` moved by `s`.
    fn parabolic(&self, i: usize, s: f64) -> f64 {
        let p = &self.positions;
        let h = &self.heights;
        // Marker positions are strictly increasing (adjust() only moves a
        // marker when it is more than one step from its neighbour), so
        // every denominator below is non-zero.
        debug_assert!(p[i - 1] < p[i] && p[i] < p[i + 1], "P2 markers collided");
        h[i] + s / (p[i + 1] - p[i - 1])
            * ((p[i] - p[i - 1] + s) * (h[i + 1] - h[i]) / (p[i + 1] - p[i])
                + (p[i + 1] - p[i] - s) * (h[i] - h[i - 1]) / (p[i] - p[i - 1]))
    }

    /// Linear fallback when the parabolic prediction is non-monotone.
    fn linear(&self, i: usize, s: f64) -> f64 {
        let j = (i as f64 + s) as usize;
        // Same invariant as parabolic(): neighbouring markers never share
        // a position when a move is attempted.
        debug_assert!(
            self.positions[j] != self.positions[i],
            "P2 markers collided"
        );
        self.heights[i]
            + s * (self.heights[j] - self.heights[i]) / (self.positions[j] - self.positions[i])
    }

    /// Current quantile estimate (exact for fewer than five samples;
    /// zero with no samples).
    pub fn get(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        if self.n < 5 {
            // Exact small-sample quantile by nearest rank.
            let mut v: Vec<f64> = self.heights[..self.n as usize].to_vec();
            v.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            let rank = ((self.q * self.n as f64).ceil() as usize).clamp(1, v.len());
            return v[rank - 1];
        }
        self.heights[2]
    }
}

/// Jain's fairness index: `(Σx)² / (n·Σx²)`, in `(0, 1]`; 1 is perfectly
/// fair. Returns 1.0 for empty or all-zero input (nothing to be unfair
/// about).
pub fn jain_index(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    let sum: f64 = xs.iter().sum();
    let sumsq: f64 = xs.iter().map(|x| x * x).sum();
    if sumsq <= 0.0 {
        return 1.0;
    }
    sum * sum / (xs.len() as f64 * sumsq)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::LossKind;
    use proptest::prelude::*;

    fn mk_ack(now_ms: u64, rtt_ms: u64, bytes: u64) -> AckEvent {
        AckEvent {
            now: Instant::from_millis(now_ms),
            seq: 0,
            bytes,
            rtt: Duration::from_millis(rtt_ms),
            min_rtt: Duration::from_millis(rtt_ms),
            srtt: Duration::from_millis(rtt_ms),
            sent_at: Instant::from_millis(now_ms.saturating_sub(rtt_ms)),
            delivered_at_send: 0,
            delivered: bytes,
            in_flight: 0,
            app_limited: false,
        }
    }

    #[test]
    fn tracker_aggregates_rates() {
        let mut t = MiTracker::new(Instant::ZERO);
        t.on_send(&SendEvent {
            now: Instant::from_millis(10),
            seq: 0,
            bytes: 125_000,
            in_flight: 125_000,
        });
        t.on_ack(&mk_ack(50, 40, 62_500));
        let s = t.close(Instant::from_millis(100), Duration::from_millis(40));
        // 125 kB sent over 100 ms = 10 Mbps; 62.5 kB acked = 5 Mbps.
        assert!((s.sending_rate.mbps() - 10.0).abs() < 1e-9);
        assert!((s.delivery_rate.mbps() - 5.0).abs() < 1e-9);
        assert_eq!(s.acks, 1);
        assert_eq!(s.avg_rtt, Duration::from_millis(40));
        assert!(!s.is_ack_starved());
    }

    #[test]
    fn tracker_loss_rate() {
        let mut t = MiTracker::new(Instant::ZERO);
        t.on_ack(&mk_ack(10, 5, 3000));
        t.on_loss(&LossEvent {
            now: Instant::from_millis(12),
            seq: 9,
            bytes: 1000,
            in_flight: 0,
            kind: LossKind::FastRetransmit,
        });
        let s = t.close(Instant::from_millis(20), Duration::from_millis(5));
        assert!((s.loss_rate - 0.25).abs() < 1e-12);
    }

    #[test]
    fn tracker_resets_after_close() {
        let mut t = MiTracker::new(Instant::ZERO);
        t.on_ack(&mk_ack(10, 5, 1000));
        let _ = t.close(Instant::from_millis(20), Duration::from_millis(5));
        let s2 = t.close(Instant::from_millis(40), Duration::from_millis(5));
        assert_eq!(s2.acks, 0);
        assert!(s2.is_ack_starved());
        assert_eq!(s2.start, Instant::from_millis(20));
    }

    #[test]
    fn rtt_gradient_positive_when_queue_builds() {
        let mut t = MiTracker::new(Instant::ZERO);
        // RTT climbing 10ms per 10ms of time => slope 1.0
        for i in 0..10u64 {
            t.on_ack(&mk_ack(10 * (i + 1), 10 * (i + 1), 1000));
        }
        let s = t.close(Instant::from_millis(120), Duration::from_millis(10));
        assert!((s.rtt_gradient - 1.0).abs() < 1e-9, "{}", s.rtt_gradient);
    }

    #[test]
    fn rtt_gradient_zero_with_flat_rtt() {
        let mut t = MiTracker::new(Instant::ZERO);
        for i in 0..10u64 {
            t.on_ack(&mk_ack(10 * (i + 1), 30, 1000));
        }
        let s = t.close(Instant::from_millis(120), Duration::from_millis(30));
        assert!(s.rtt_gradient.abs() < 1e-9);
    }

    /// The buffered four-pass OLS `MiTracker` used before it kept running
    /// sums: the reference the streaming form must match bit for bit.
    fn buffered_slope(samples: &[(f64, f64)]) -> f64 {
        let n = samples.len();
        if n < 2 {
            return 0.0;
        }
        let nf = n as f64;
        let sx: f64 = samples.iter().map(|s| s.0).sum();
        let sy: f64 = samples.iter().map(|s| s.1).sum();
        let sxx: f64 = samples.iter().map(|s| s.0 * s.0).sum();
        let sxy: f64 = samples.iter().map(|s| s.0 * s.1).sum();
        let denom = nf * sxx - sx * sx;
        if denom.abs() < 1e-18 {
            return 0.0;
        }
        (nf * sxy - sx * sy) / denom
    }

    /// Feed `(ack time, rtt)` nanosecond pairs through a tracker and
    /// return its gradient beside the buffered reference's.
    fn gradients(samples: &[(u64, u64)]) -> (u64, u64) {
        let mut t = MiTracker::new(Instant::ZERO);
        let mut buffered = Vec::new();
        for &(at, rtt) in samples {
            let mut ev = mk_ack(0, 0, 1000);
            ev.now = Instant::from_nanos(at);
            ev.rtt = Duration::from_nanos(rtt);
            t.on_ack(&ev);
            buffered.push((
                Duration::from_nanos(at).as_secs_f64(),
                Duration::from_nanos(rtt).as_secs_f64(),
            ));
        }
        let got = t
            .close(Instant::from_secs(100), Duration::ZERO)
            .rtt_gradient;
        (got.to_bits(), buffered_slope(&buffered).to_bits())
    }

    proptest! {
        #[test]
        fn streaming_gradient_is_bit_identical_to_buffered(
            samples in prop::collection::vec((0u64..20_000_000_000, 0u64..2_000_000_000), 0..200),
        ) {
            let (got, want) = gradients(&samples);
            prop_assert_eq!(got, want);
        }

        #[test]
        fn streaming_gradient_matches_on_degenerate_x(
            at in 0u64..20_000_000_000,
            rtts in prop::collection::vec(0u64..2_000_000_000, 0..50),
        ) {
            // Every ACK at the same instant: zero x-spread.
            let samples: Vec<(u64, u64)> = rtts.iter().map(|&r| (at, r)).collect();
            let (got, want) = gradients(&samples);
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn streaming_gradient_matches_with_few_samples() {
        for n in 0..=2 {
            let samples: Vec<(u64, u64)> =
                (0..n).map(|i| (i * 1_000_000, 30_000_000 + i)).collect();
            let (got, want) = gradients(&samples);
            assert_eq!(got, want, "{n} samples");
        }
    }

    #[test]
    fn ewma_converges() {
        let mut e = Ewma::new(0.5);
        assert_eq!(e.get(), None);
        e.update(10.0);
        assert_eq!(e.get(), Some(10.0));
        e.update(0.0);
        assert_eq!(e.get(), Some(5.0));
    }

    #[test]
    fn welford_matches_closed_form() {
        let mut w = Welford::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            w.update(x);
        }
        assert!((w.mean() - 5.0).abs() < 1e-12);
        assert!((w.std_dev() - 2.0).abs() < 1e-12);
        assert!((w.range() - 7.0).abs() < 1e-12);
        assert_eq!(w.count(), 8);
    }

    #[test]
    fn jain_bounds() {
        assert!((jain_index(&[5.0, 5.0, 5.0]) - 1.0).abs() < 1e-12);
        // One flow hogging everything among n flows → 1/n.
        assert!((jain_index(&[1.0, 0.0, 0.0, 0.0]) - 0.25).abs() < 1e-12);
        assert_eq!(jain_index(&[]), 1.0);
        assert_eq!(jain_index(&[0.0, 0.0]), 1.0);
    }

    #[test]
    fn p2_small_sample_exact() {
        let mut p = P2Quantile::p95();
        assert_eq!(p.get(), 0.0);
        p.update(10.0);
        assert_eq!(p.get(), 10.0);
        p.update(20.0);
        p.update(5.0);
        // Nearest-rank p95 of {5, 10, 20} is the 3rd value.
        assert_eq!(p.get(), 20.0);
    }

    #[test]
    fn p2_tracks_uniform_p95() {
        // Deterministic LCG samples over [0, 1000).
        let mut state = 12345u64;
        let mut p = P2Quantile::p95();
        for _ in 0..50_000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let x = (state >> 11) as f64 / (1u64 << 53) as f64 * 1000.0;
            p.update(x);
        }
        let est = p.get();
        assert!((est - 950.0).abs() < 15.0, "p95 estimate {est}");
    }

    #[test]
    fn p2_tracks_median_of_ramp() {
        let mut p = P2Quantile::new(0.5);
        for i in 0..10_001 {
            p.update(i as f64);
        }
        assert!((p.get() - 5000.0).abs() < 100.0, "median {}", p.get());
    }

    #[test]
    fn p2_monotone_bounds() {
        let mut p = P2Quantile::p95();
        for i in 0..1000 {
            p.update((i % 97) as f64);
        }
        let est = p.get();
        assert!((0.0..=96.0).contains(&est), "estimate {est} out of range");
    }

    #[test]
    fn empty_mi_stats() {
        let s = MiStats::empty(Instant::from_secs(1));
        assert!(s.is_ack_starved());
        assert_eq!(s.duration(), Duration::ZERO);
    }
}
