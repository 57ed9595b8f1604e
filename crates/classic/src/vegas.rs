//! TCP Vegas (Brakmo & Peterson, 1995): the archetypal delay-based CCA.
//! Once per RTT it compares expected vs. actual throughput and nudges the
//! window to keep a small number of packets (α..β) queued.

use crate::reno::AimdState;
use libra_types::{AckEvent, CongestionControl, Duration, Instant, LossEvent, LossKind, Rate};

const ALPHA: f64 = 2.0; // lower bound on queued packets
const BETA: f64 = 4.0; // upper bound on queued packets

/// TCP Vegas.
#[derive(Debug, Clone)]
pub struct Vegas {
    state: AimdState,
    base_rtt: Duration,
    round_end: Instant,
    rtt_sum_ns: u128,
    rtt_samples: u32,
}

impl Vegas {
    /// Standard Vegas with the given MSS.
    pub fn new(mss: u64) -> Self {
        Vegas {
            state: AimdState::new(mss),
            base_rtt: Duration::MAX,
            round_end: Instant::ZERO,
            rtt_sum_ns: 0,
            rtt_samples: 0,
        }
    }

    /// Current window in packets.
    pub fn cwnd_packets(&self) -> f64 {
        self.state.cwnd
    }

    fn round_decision(&mut self) {
        if self.rtt_samples == 0 || self.base_rtt == Duration::MAX {
            return;
        }
        let avg_rtt = Duration::from_nanos((self.rtt_sum_ns / self.rtt_samples as u128) as u64);
        let base = self.base_rtt.as_secs_f64();
        let actual = avg_rtt.as_secs_f64().max(base);
        // diff = cwnd·(1 − base/actual): packets sitting in the queue.
        let diff = self.state.cwnd * (1.0 - base / actual);
        if self.state.in_slow_start() {
            // Vegas slows its slow start: stop doubling once queueing shows.
            if diff > ALPHA {
                self.state.ssthresh = self.state.cwnd;
            }
            return;
        }
        if diff < ALPHA {
            self.state.cwnd += 1.0;
        } else if diff > BETA {
            self.state.cwnd = (self.state.cwnd - 1.0).max(self.state.min_cwnd);
            // Keep ssthresh at/below the window so the decrement does not
            // bounce straight back through slow-start growth.
            self.state.ssthresh = self.state.ssthresh.min(self.state.cwnd);
        }
    }
}

impl Default for Vegas {
    fn default() -> Self {
        Vegas::new(1500)
    }
}

impl CongestionControl for Vegas {
    fn name(&self) -> &'static str {
        "Vegas"
    }

    fn on_ack(&mut self, ev: &AckEvent) {
        self.state.note_ack(ev);
        self.base_rtt = self.base_rtt.min(ev.rtt);
        self.rtt_sum_ns += ev.rtt.nanos() as u128;
        self.rtt_samples += 1;
        if self.state.in_slow_start() {
            self.state.cwnd += ev.bytes as f64 / self.state.mss as f64;
        }
        if ev.now >= self.round_end {
            self.round_decision();
            self.rtt_sum_ns = 0;
            self.rtt_samples = 0;
            self.round_end = ev.now + ev.srtt.max(Duration::from_millis(1));
        }
    }

    fn on_loss(&mut self, ev: &LossEvent) {
        match ev.kind {
            LossKind::FastRetransmit => {
                if self.state.should_reduce(ev.now) {
                    self.state.ssthresh = (self.state.cwnd * 0.75).max(self.state.min_cwnd);
                    self.state.cwnd = self.state.ssthresh;
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

    /// Drive Vegas out of slow start by showing queueing delay.
    fn leave_slow_start(v: &mut Vegas) {
        let mut t = 0;
        while v.in_startup() && t < 100_000 {
            // Inflated RTT (100 ms vs 50 ms base) signals queueing.
            v.on_ack(&ack(t, if t < 60 { 50 } else { 100 }));
            t += 10;
        }
        assert!(!v.in_startup());
    }

    #[test]
    fn grows_when_no_queueing() {
        let mut v = Vegas::new(1500);
        leave_slow_start(&mut v);
        let w = v.cwnd_packets();
        // Flat RTT at base → diff = 0 < α → +1 packet per round.
        let t0 = 200_000;
        for r in 0..5u64 {
            for k in 0..10 {
                v.on_ack(&ack(t0 + r * 50 + k, 50));
            }
        }
        assert!(
            v.cwnd_packets() > w,
            "should grow: {} vs {w}",
            v.cwnd_packets()
        );
    }

    #[test]
    fn shrinks_when_queue_builds() {
        let mut v = Vegas::new(1500);
        leave_slow_start(&mut v);
        let w = v.cwnd_packets();
        // RTT far above base → diff > β → −1 per round.
        let t0 = 200_000;
        for r in 0..5u64 {
            for k in 0..10 {
                v.on_ack(&ack(t0 + r * 200 + k, 200));
            }
        }
        assert!(
            v.cwnd_packets() < w,
            "should shrink: {} vs {w}",
            v.cwnd_packets()
        );
    }

    #[test]
    fn loss_reduces_window() {
        let mut v = Vegas::new(1500);
        leave_slow_start(&mut v);
        let w = v.cwnd_packets();
        v.on_loss(&LossEvent {
            now: Instant::from_secs(300),
            seq: 0,
            bytes: 1500,
            in_flight: 0,
            kind: LossKind::FastRetransmit,
        });
        assert!((v.cwnd_packets() - 0.75 * w).abs() < 1e-9);
    }

    #[test]
    fn slow_start_caps_on_queueing() {
        let mut v = Vegas::new(1500);
        assert!(v.in_startup());
        leave_slow_start(&mut v);
        // Window stopped growing exponentially once delay appeared.
        assert!(v.cwnd_packets() < 1000.0);
    }
}
