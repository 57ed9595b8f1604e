//! BBR v1 (Cardwell et al., CACM 2017): model-based congestion control
//! driven by windowed max-bandwidth and min-RTT estimates, with the
//! STARTUP → DRAIN → PROBE_BW (8-phase gain cycle) → PROBE_RTT state
//! machine. This is the classic CCA behind the paper's B-Libra.

use crate::filters::{WindowedMax, WindowedMin};
use libra_types::{AckEvent, CongestionControl, Duration, Instant, LossEvent, Rate};

const STARTUP_GAIN: f64 = 2.885; // 2/ln(2)
const DRAIN_GAIN: f64 = 1.0 / 2.885;
const CWND_GAIN: f64 = 2.0;
/// The PROBE_BW pacing-gain cycle; each phase lasts about one min-RTT.
pub const PROBE_BW_GAINS: [f64; 8] = [1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
const BW_WINDOW_RTTS: u64 = 10;
const MIN_RTT_WINDOW: Duration = Duration::from_secs(10);
const PROBE_RTT_DURATION: Duration = Duration::from_millis(200);
const STARTUP_GROWTH_TARGET: f64 = 1.25;
const STARTUP_FULL_BW_ROUNDS: u32 = 3;

/// BBR state-machine phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BbrMode {
    /// Exponential bandwidth search (gain 2.885).
    Startup,
    /// Drain the startup queue (gain 1/2.885).
    Drain,
    /// Steady-state probing around the bandwidth estimate.
    ProbeBw,
    /// Periodic window collapse to refresh the min-RTT estimate.
    ProbeRtt,
}

/// BBR v1.
pub struct Bbr {
    mss: u64,
    mode: BbrMode,
    max_bw: WindowedMax,  // bytes/sec
    min_rtt: WindowedMin, // seconds
    /// Externally injected base bandwidth (Libra's `set_rate`); acts as a
    /// fresh bandwidth estimate until organic samples replace it.
    forced_bw: Option<f64>,
    cycle_index: usize,
    cycle_start: Instant,
    full_bw: f64,
    full_bw_count: u32,
    probe_rtt_done: Option<Instant>,
    /// When the min-RTT estimate last decreased (ProbeRTT staleness clock).
    min_rtt_stamp: Instant,
    prior_cwnd: u64,
    srtt: Duration,
    last_now: Instant,
}

impl Bbr {
    /// Standard BBR with the given MSS.
    pub fn new(mss: u64) -> Self {
        Bbr {
            mss,
            mode: BbrMode::Startup,
            max_bw: WindowedMax::new(Duration::from_secs(1)),
            min_rtt: WindowedMin::new(MIN_RTT_WINDOW),
            forced_bw: None,
            cycle_index: 0,
            cycle_start: Instant::ZERO,
            full_bw: 0.0,
            full_bw_count: 0,
            probe_rtt_done: None,
            min_rtt_stamp: Instant::ZERO,
            prior_cwnd: 0,
            srtt: Duration::ZERO,
            last_now: Instant::ZERO,
        }
    }

    /// Current mode (for tests/telemetry).
    pub fn mode(&self) -> BbrMode {
        self.mode
    }

    /// Bandwidth estimate in bytes/sec.
    fn bw(&self) -> f64 {
        match (self.max_bw.get(), self.forced_bw) {
            (Some(organic), Some(forced)) => organic.max(forced),
            (Some(organic), None) => organic,
            (None, Some(forced)) => forced,
            // Nothing known yet: pace one initial window per assumed RTT.
            (None, None) => 10.0 * self.mss as f64 / 0.1,
        }
    }

    /// Min-RTT estimate.
    fn rtt(&self) -> Duration {
        self.min_rtt
            .get()
            .map(Duration::from_secs_f64)
            .unwrap_or(Duration::from_millis(100))
    }

    /// Bandwidth-delay product in bytes.
    fn bdp(&self) -> f64 {
        self.bw() * self.rtt().as_secs_f64()
    }

    fn pacing_gain(&self) -> f64 {
        match self.mode {
            BbrMode::Startup => STARTUP_GAIN,
            BbrMode::Drain => DRAIN_GAIN,
            BbrMode::ProbeBw => PROBE_BW_GAINS[self.cycle_index],
            BbrMode::ProbeRtt => 1.0,
        }
    }

    fn check_full_bw(&mut self) {
        let bw = self.bw();
        if bw >= self.full_bw * STARTUP_GROWTH_TARGET {
            self.full_bw = bw;
            self.full_bw_count = 0;
        } else {
            self.full_bw_count += 1;
        }
    }

    fn advance_cycle(&mut self, now: Instant, in_flight: u64) {
        let phase_len = self.rtt();
        let elapsed = now.saturating_since(self.cycle_start);
        let gain = PROBE_BW_GAINS[self.cycle_index];
        // Leave 1.25 only after a full phase; leave 0.75 as soon as the
        // excess queue is drained.
        let advance = if gain == 0.75 {
            elapsed >= phase_len || (in_flight as f64) <= self.bdp()
        } else {
            elapsed >= phase_len
        };
        if advance {
            self.cycle_index = (self.cycle_index + 1) % PROBE_BW_GAINS.len();
            self.cycle_start = now;
        }
    }

    fn maybe_enter_probe_rtt(&mut self, now: Instant) {
        if self.mode == BbrMode::ProbeRtt {
            return;
        }
        // Stale means no *new or equal* minimum arrived for a full window —
        // newer-but-larger samples keep the filter fresh without keeping
        // the estimate fresh, so track the stamp separately.
        let stale = now.saturating_since(self.min_rtt_stamp) > MIN_RTT_WINDOW;
        if stale {
            self.prior_cwnd = self.cwnd_bytes();
            self.mode = BbrMode::ProbeRtt;
            self.probe_rtt_done = Some(now + PROBE_RTT_DURATION);
        }
    }
}

impl CongestionControl for Bbr {
    fn name(&self) -> &'static str {
        "BBR"
    }

    fn on_ack(&mut self, ev: &AckEvent) {
        self.srtt = ev.srtt;
        self.last_now = ev.now;
        // Update the model.
        let prior_min = self.min_rtt.get();
        self.min_rtt.update(ev.now, ev.rtt.as_secs_f64());
        if prior_min.is_none_or(|m| ev.rtt.as_secs_f64() <= m) {
            self.min_rtt_stamp = ev.now;
        }
        let sample = ev.delivery_rate_sample().bytes_per_sec();
        if sample > 0.0 && !ev.app_limited {
            self.max_bw.set_window(self.rtt() * BW_WINDOW_RTTS);
            self.max_bw.update(ev.now, sample);
            // Organic samples retire a forced base once they exceed it.
            if let Some(forced) = self.forced_bw {
                if sample >= forced {
                    self.forced_bw = None;
                }
            }
        }
        // State machine.
        match self.mode {
            BbrMode::Startup => {
                self.check_full_bw();
                if self.full_bw_count >= STARTUP_FULL_BW_ROUNDS {
                    self.mode = BbrMode::Drain;
                }
            }
            BbrMode::Drain => {
                if (ev.in_flight as f64) <= self.bdp() {
                    self.mode = BbrMode::ProbeBw;
                    self.cycle_index = 2; // start in a cruise phase
                    self.cycle_start = ev.now;
                }
            }
            BbrMode::ProbeBw => {
                self.advance_cycle(ev.now, ev.in_flight);
            }
            BbrMode::ProbeRtt => {
                if self.probe_rtt_done.is_some_and(|t| ev.now >= t) {
                    self.probe_rtt_done = None;
                    self.mode = if self.full_bw_count >= STARTUP_FULL_BW_ROUNDS {
                        BbrMode::ProbeBw
                    } else {
                        BbrMode::Startup
                    };
                    self.cycle_start = ev.now;
                }
            }
        }
        self.maybe_enter_probe_rtt(ev.now);
    }

    fn on_loss(&mut self, _ev: &LossEvent) {
        // BBR v1 does not treat loss as a congestion signal.
    }

    /// No MI clock: every decision is taken per ACK and per loss.
    fn mi_duration(&self, _srtt: Duration) -> Duration {
        Duration::MAX
    }

    fn cwnd_bytes(&self) -> u64 {
        match self.mode {
            BbrMode::ProbeRtt => 4 * self.mss,
            _ => {
                let w = (CWND_GAIN * self.bdp()) as u64;
                w.max(4 * self.mss)
            }
        }
    }

    fn pacing_rate(&self) -> Option<Rate> {
        Some(Rate::from_bps(self.pacing_gain() * self.bw() * 8.0))
    }

    fn rate_estimate(&self, _srtt: Duration) -> Rate {
        // Libra evaluates BBR's *estimated fair rate*, not the transient
        // probing gain: use the bandwidth estimate itself.
        Rate::from_bps(self.bw() * 8.0)
    }

    fn set_rate(&mut self, rate: Rate, _srtt: Duration) {
        // Libra re-bases BBR: the injected rate becomes a fresh bandwidth
        // estimate (organic samples will replace it as they arrive).
        self.max_bw.reset();
        self.forced_bw = Some(rate.bytes_per_sec());
        if self.mode == BbrMode::Startup {
            // A re-base implies the search phase is over.
            self.mode = BbrMode::ProbeBw;
            self.full_bw_count = STARTUP_FULL_BW_ROUNDS;
            self.full_bw = rate.bytes_per_sec();
        }
        // Restart the gain cycle at the probing phase: the paper's B-Libra
        // inherits the *first three RTTs* of BBR's control loop (1.25×,
        // 0.75×, 1×) into Libra's exploration stage — they "embody the
        // main function of the bandwidth probing procedure" (Sec. 4.3).
        // Without this, exploration cruises at gain 1 and the classic
        // candidate can never discover bandwidth above x_prev.
        if self.mode == BbrMode::ProbeBw {
            self.cycle_index = 0;
            self.cycle_start = self.last_now;
        }
    }

    fn in_startup(&self) -> bool {
        self.mode == BbrMode::Startup
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ack(
        now_ms: u64,
        rtt_ms: u64,
        delivered_at_send: u64,
        delivered: u64,
        in_flight: u64,
    ) -> AckEvent {
        AckEvent {
            now: Instant::from_millis(now_ms),
            seq: 0,
            bytes: 1500,
            rtt: Duration::from_millis(rtt_ms),
            min_rtt: Duration::from_millis(rtt_ms),
            srtt: Duration::from_millis(rtt_ms),
            sent_at: Instant::from_millis(now_ms - rtt_ms),
            delivered_at_send,
            delivered,
            in_flight,
            app_limited: false,
        }
    }

    /// Feed ACKs implying a steady `mbps` delivery rate.
    fn feed_steady(bbr: &mut Bbr, mbps: f64, rtt_ms: u64, from_ms: u64, count: u64) -> u64 {
        let bytes_per_ms = mbps * 1e6 / 8.0 / 1e3;
        let mut delivered = (from_ms as f64 * bytes_per_ms) as u64;
        for k in 0..count {
            let now = from_ms + k;
            let at_send = ((now - rtt_ms) as f64 * bytes_per_ms) as u64;
            delivered = (now as f64 * bytes_per_ms) as u64;
            bbr.on_ack(&ack(now, rtt_ms, at_send, delivered, 50_000));
        }
        delivered
    }

    #[test]
    fn startup_exits_when_bw_plateaus() {
        let mut b = Bbr::new(1500);
        assert_eq!(b.mode(), BbrMode::Startup);
        feed_steady(&mut b, 10.0, 40, 50, 200);
        // Bandwidth stopped growing → Drain, then ProbeBW once inflight
        // is at/below BDP (we feed a large in_flight, so force it).
        assert_ne!(b.mode(), BbrMode::Startup, "should have left startup");
    }

    #[test]
    fn pacing_tracks_bandwidth_estimate() {
        let mut b = Bbr::new(1500);
        feed_steady(&mut b, 10.0, 40, 50, 300);
        // Reach ProbeBW by reporting small in_flight.
        b.on_ack(&ack(400, 40, 480_000, 500_000, 1500));
        let pr = b.pacing_rate().unwrap().mbps();
        // In ProbeBW, pacing gain ∈ [0.75, 1.25] around ~10 Mbps.
        assert!(pr > 6.0 && pr < 14.0, "pacing {pr}");
        // rate_estimate strips the gain.
        let est = b.rate_estimate(Duration::from_millis(40)).mbps();
        assert!((est - 10.0).abs() < 1.5, "estimate {est}");
    }

    #[test]
    fn cwnd_is_two_bdp() {
        let mut b = Bbr::new(1500);
        feed_steady(&mut b, 10.0, 40, 50, 300);
        b.on_ack(&ack(400, 40, 480_000, 500_000, 1500));
        // BDP = 10 Mbps × 40 ms = 50 kB → cwnd ≈ 100 kB.
        let w = b.cwnd_bytes() as f64;
        assert!((w - 100_000.0).abs() < 20_000.0, "cwnd {w}");
    }

    #[test]
    fn probe_bw_cycles_gains() {
        let mut b = Bbr::new(1500);
        feed_steady(&mut b, 10.0, 40, 50, 300);
        b.on_ack(&ack(400, 40, 480_000, 500_000, 1500));
        assert_eq!(b.mode(), BbrMode::ProbeBw);
        let mut seen = std::collections::HashSet::new();
        let mut delivered = 500_000u64;
        for k in 0..2000u64 {
            let now = 401 + k;
            delivered += 1250;
            b.on_ack(&ack(now, 40, delivered - 50_000, delivered, 40_000));
            let gain = b.pacing_gain();
            seen.insert((gain * 100.0) as i64);
        }
        assert!(seen.contains(&125), "never probed up: {seen:?}");
        assert!(seen.contains(&75), "never drained: {seen:?}");
        assert!(seen.contains(&100), "never cruised: {seen:?}");
    }

    #[test]
    fn loss_is_ignored() {
        let mut b = Bbr::new(1500);
        feed_steady(&mut b, 10.0, 40, 50, 200);
        let before = b.pacing_rate().unwrap();
        b.on_loss(&LossEvent {
            now: Instant::from_millis(300),
            seq: 0,
            bytes: 1500,
            in_flight: 10_000,
            kind: libra_types::LossKind::FastRetransmit,
        });
        assert_eq!(b.pacing_rate().unwrap(), before);
    }

    #[test]
    fn probe_rtt_collapses_cwnd() {
        let mut b = Bbr::new(1500);
        feed_steady(&mut b, 10.0, 40, 50, 300);
        // Push time past the 10 s min-RTT window without a new minimum
        // (RTT inflated to 60 ms so the old 40 ms min expires).
        let mut delivered = 500_000u64;
        for k in 0..220u64 {
            let now = 400 + k * 50;
            delivered += 1250 * 50;
            b.on_ack(&ack(now, 60, delivered - 75_000, delivered, 40_000));
            if b.mode() == BbrMode::ProbeRtt {
                break;
            }
        }
        assert_eq!(b.mode(), BbrMode::ProbeRtt);
        assert_eq!(b.cwnd_bytes(), 4 * 1500);
    }

    #[test]
    fn set_rate_rebases_estimate() {
        let mut b = Bbr::new(1500);
        feed_steady(&mut b, 10.0, 40, 50, 300);
        b.set_rate(Rate::from_mbps(4.0), Duration::from_millis(40));
        let est = b.rate_estimate(Duration::from_millis(40)).mbps();
        assert!((est - 4.0).abs() < 0.01, "est {est}");
        assert!(!b.in_startup());
        // Organic faster samples take over again.
        feed_steady(&mut b, 12.0, 40, 400, 300);
        let est2 = b.rate_estimate(Duration::from_millis(40)).mbps();
        assert!(est2 > 10.0, "est2 {est2}");
    }
}
