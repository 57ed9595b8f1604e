//! TCP Illinois (Liu et al., 2006): loss-based AIMD whose additive
//! increase α and multiplicative decrease β are functions of the average
//! queueing delay — large α / small β when the queue is empty, the
//! reverse near saturation. Another Sec. 7 "pluggable classic".

use crate::reno::AimdState;
use libra_types::{AckEvent, CongestionControl, Duration, Instant, LossEvent, LossKind, Rate};

const ALPHA_MAX: f64 = 10.0;
const ALPHA_MIN: f64 = 0.3;
const BETA_MIN: f64 = 0.125;
const BETA_MAX: f64 = 0.5;
/// Fraction of the maximum queueing delay below which α = α_max.
const D1_FRAC: f64 = 0.01;

/// TCP Illinois.
#[derive(Debug, Clone)]
pub struct Illinois {
    state: AimdState,
    min_rtt: Duration,
    max_rtt: Duration,
    // Per-round RTT averaging.
    rtt_sum_ns: u128,
    rtt_count: u32,
    round_end: Instant,
    alpha: f64,
    beta: f64,
}

impl Illinois {
    /// Standard Illinois with the given MSS.
    pub fn new(mss: u64) -> Self {
        Illinois {
            state: AimdState::new(mss),
            min_rtt: Duration::MAX,
            max_rtt: Duration::ZERO,
            rtt_sum_ns: 0,
            rtt_count: 0,
            round_end: Instant::ZERO,
            alpha: 1.0,
            beta: BETA_MAX,
        }
    }

    /// Current window in packets.
    pub fn cwnd_packets(&self) -> f64 {
        self.state.cwnd
    }

    /// Current additive-increase parameter.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Current multiplicative-decrease parameter.
    pub fn beta(&self) -> f64 {
        self.beta
    }

    fn update_params(&mut self) {
        if self.rtt_count == 0 || self.min_rtt == Duration::MAX {
            return;
        }
        let avg = Duration::from_nanos((self.rtt_sum_ns / self.rtt_count as u128) as u64);
        let da = avg.saturating_sub(self.min_rtt).as_secs_f64(); // current queueing delay
        let dm = self.max_rtt.saturating_sub(self.min_rtt).as_secs_f64(); // max observed
        if dm <= 0.0 {
            self.alpha = ALPHA_MAX;
            self.beta = BETA_MIN;
            return;
        }
        let d1 = D1_FRAC * dm;
        // α: α_max at low delay, decaying as κ1/(κ2 + da) beyond d1.
        self.alpha = if da <= d1 {
            ALPHA_MAX
        } else {
            // κ1, κ2 chosen so the curve is continuous at d1 and equals
            // α_min at dm (standard Illinois construction).
            let k1 = (dm - d1) * ALPHA_MAX * ALPHA_MIN / (ALPHA_MAX - ALPHA_MIN);
            let k2 = k1 / ALPHA_MAX - d1;
            (k1 / (k2 + da)).clamp(ALPHA_MIN, ALPHA_MAX)
        };
        // β: linear from β_min at 10 % of dm to β_max at 80 %.
        let lo = 0.1 * dm;
        let hi = 0.8 * dm;
        self.beta = if da <= lo {
            BETA_MIN
        } else if da >= hi {
            BETA_MAX
        } else {
            BETA_MIN + (BETA_MAX - BETA_MIN) * (da - lo) / (hi - lo)
        };
    }
}

impl Default for Illinois {
    fn default() -> Self {
        Illinois::new(1500)
    }
}

impl CongestionControl for Illinois {
    fn name(&self) -> &'static str {
        "Illinois"
    }

    fn on_ack(&mut self, ev: &AckEvent) {
        self.state.note_ack(ev);
        self.min_rtt = self.min_rtt.min(ev.rtt);
        self.max_rtt = self.max_rtt.max(ev.rtt);
        self.rtt_sum_ns += ev.rtt.nanos() as u128;
        self.rtt_count += 1;
        if ev.now >= self.round_end {
            self.update_params();
            self.rtt_sum_ns = 0;
            self.rtt_count = 0;
            self.round_end = ev.now + ev.srtt.max(Duration::from_millis(1));
        }
        let pkts = ev.bytes as f64 / self.state.mss as f64;
        if self.state.in_slow_start() {
            self.state.cwnd += pkts;
        } else {
            self.state.cwnd += self.alpha * pkts / self.state.cwnd;
        }
    }

    fn on_loss(&mut self, ev: &LossEvent) {
        match ev.kind {
            LossKind::FastRetransmit => {
                if self.state.should_reduce(ev.now) {
                    self.state.cwnd =
                        (self.state.cwnd * (1.0 - self.beta)).max(self.state.min_cwnd);
                    self.state.ssthresh = self.state.cwnd;
                }
            }
            LossKind::Timeout => {
                self.state.ssthresh = (self.state.cwnd / 2.0).max(self.state.min_cwnd);
                self.state.cwnd = self.state.min_cwnd;
            }
        }
    }

    /// No MI clock: every decision is taken per ACK and per loss.
    fn mi_duration(&self, _srtt: Duration) -> Duration {
        Duration::MAX
    }

    fn cwnd_bytes(&self) -> u64 {
        self.state.cwnd_bytes()
    }

    fn set_rate(&mut self, rate: Rate, srtt: Duration) {
        self.state.set_rate(rate, srtt);
    }

    fn in_startup(&self) -> bool {
        self.state.in_slow_start()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ack(now_ms: u64, rtt_ms: u64) -> AckEvent {
        AckEvent {
            now: Instant::from_millis(now_ms),
            seq: 0,
            bytes: 1500,
            rtt: Duration::from_millis(rtt_ms),
            min_rtt: Duration::from_millis(rtt_ms),
            srtt: Duration::from_millis(rtt_ms),
            sent_at: Instant::from_millis(now_ms.saturating_sub(rtt_ms)),
            delivered_at_send: 0,
            delivered: 0,
            in_flight: 0,
            app_limited: false,
        }
    }

    fn prime(ill: &mut Illinois) {
        // Establish min = 50 ms, max = 150 ms, then leave slow start.
        for k in 0..10 {
            ill.on_ack(&ack(k * 60, 50));
        }
        for k in 10..20 {
            ill.on_ack(&ack(k * 60, 150));
        }
        ill.on_loss(&LossEvent {
            now: Instant::from_secs(2),
            seq: 0,
            bytes: 1500,
            in_flight: 0,
            kind: LossKind::FastRetransmit,
        });
        assert!(!ill.in_startup());
    }

    #[test]
    fn alpha_high_when_delay_low() {
        let mut ill = Illinois::new(1500);
        prime(&mut ill);
        // Two rounds at base RTT → α should rise to α_max.
        for k in 0..20 {
            ill.on_ack(&ack(3000 + k * 60, 50));
        }
        assert!(
            (ill.alpha() - ALPHA_MAX).abs() < 1e-9,
            "alpha {}",
            ill.alpha()
        );
        assert!((ill.beta() - BETA_MIN).abs() < 1e-9, "beta {}", ill.beta());
    }

    #[test]
    fn alpha_low_when_delay_high() {
        let mut ill = Illinois::new(1500);
        prime(&mut ill);
        for k in 0..20 {
            ill.on_ack(&ack(3000 + k * 160, 150));
        }
        assert!(ill.alpha() < 1.0, "alpha {}", ill.alpha());
        assert!((ill.beta() - BETA_MAX).abs() < 1e-9, "beta {}", ill.beta());
    }

    #[test]
    fn growth_faster_at_low_delay() {
        let mut a = Illinois::new(1500);
        let mut b = Illinois::new(1500);
        prime(&mut a);
        prime(&mut b);
        let (wa0, wb0) = (a.cwnd_packets(), b.cwnd_packets());
        for k in 0..50 {
            a.on_ack(&ack(3000 + k * 60, 50)); // empty queue
            b.on_ack(&ack(3000 + k * 160, 150)); // full queue
        }
        assert!(
            a.cwnd_packets() - wa0 > 2.0 * (b.cwnd_packets() - wb0),
            "low-delay growth {} vs high-delay {}",
            a.cwnd_packets() - wa0,
            b.cwnd_packets() - wb0
        );
    }

    #[test]
    fn decrease_scales_with_beta() {
        let mut ill = Illinois::new(1500);
        prime(&mut ill);
        for k in 0..20 {
            ill.on_ack(&ack(3000 + k * 160, 150));
        }
        let w = ill.cwnd_packets();
        ill.on_loss(&LossEvent {
            now: Instant::from_secs(30),
            seq: 0,
            bytes: 1500,
            in_flight: 0,
            kind: LossKind::FastRetransmit,
        });
        assert!(
            (ill.cwnd_packets() - w * 0.5).abs() < 1e-6,
            "{} vs {}",
            ill.cwnd_packets(),
            w * 0.5
        );
    }
}
