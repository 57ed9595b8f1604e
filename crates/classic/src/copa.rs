//! Copa (Arun & Balakrishnan, NSDI'18): delay-based control targeting the
//! rate `1/(δ·d_q)` where `d_q` is the measured queueing delay. The window
//! moves toward the target with a velocity that doubles while the
//! direction is consistent. This implementation covers the default mode
//! (no TCP-competitive switching) — the variant Pantheon runs by default.

use libra_types::{AckEvent, CongestionControl, Duration, Instant, LossEvent, LossKind, Rate};

const DELTA: f64 = 0.5; // default mode: target 2 packets of queueing

/// Copa congestion control.
#[derive(Debug, Clone)]
pub struct Copa {
    mss: u64,
    cwnd: f64, // packets
    min_rtt: Duration,
    srtt: Duration,
    /// RTT_standing: min RTT over the last srtt/2 (approximated with a
    /// short EWMA-free window over recent samples).
    standing_window: Vec<(Instant, Duration)>,
    velocity: f64,
    direction_up: bool,
    same_direction_count: u32,
    last_update: Instant,
    in_slow_start: bool,
    min_cwnd: f64,
}

impl Copa {
    /// Default-mode Copa with the given MSS.
    pub fn new(mss: u64) -> Self {
        Copa {
            mss,
            cwnd: 10.0,
            min_rtt: Duration::MAX,
            srtt: Duration::ZERO,
            standing_window: Vec::new(),
            velocity: 1.0,
            direction_up: true,
            same_direction_count: 0,
            last_update: Instant::ZERO,
            in_slow_start: true,
            min_cwnd: 2.0,
        }
    }

    /// Current window in packets.
    pub fn cwnd_packets(&self) -> f64 {
        self.cwnd
    }

    fn standing_rtt(&mut self, now: Instant) -> Duration {
        let horizon = self.srtt.mul_f64(0.5).max(Duration::from_millis(10));
        let cutoff = now - horizon;
        self.standing_window.retain(|&(t, _)| t >= cutoff);
        self.standing_window
            .iter()
            .map(|&(_, r)| r)
            .min()
            .unwrap_or(self.srtt)
    }
}

impl Default for Copa {
    fn default() -> Self {
        Copa::new(1500)
    }
}

impl CongestionControl for Copa {
    fn name(&self) -> &'static str {
        "Copa"
    }

    fn on_ack(&mut self, ev: &AckEvent) {
        self.srtt = ev.srtt;
        self.min_rtt = self.min_rtt.min(ev.rtt);
        self.standing_window.push((ev.now, ev.rtt));
        let standing = self.standing_rtt(ev.now);
        let dq = standing.saturating_sub(self.min_rtt).as_secs_f64();

        // Slow start: double per RTT until the target rate is exceeded.
        let current_rate = self.cwnd / self.srtt.as_secs_f64().max(1e-6); // pkts/s
        let target_rate = if dq > 1e-9 {
            1.0 / (DELTA * dq)
        } else {
            f64::INFINITY
        };
        if self.in_slow_start {
            if current_rate < target_rate {
                self.cwnd += ev.bytes as f64 / self.mss as f64;
                return;
            }
            self.in_slow_start = false;
        }

        // Velocity update once per RTT.
        if ev.now.saturating_since(self.last_update) >= self.srtt {
            let up = current_rate < target_rate;
            if up == self.direction_up {
                self.same_direction_count += 1;
                if self.same_direction_count >= 3 {
                    self.velocity = (self.velocity * 2.0).min(self.cwnd);
                }
            } else {
                self.velocity = 1.0;
                self.same_direction_count = 0;
                self.direction_up = up;
            }
            self.last_update = ev.now;
        }

        let step = (self.velocity / (DELTA * self.cwnd)) * (ev.bytes as f64 / self.mss as f64);
        if current_rate < target_rate {
            self.cwnd += step;
        } else {
            self.cwnd = (self.cwnd - step).max(self.min_cwnd);
        }
    }

    fn on_loss(&mut self, ev: &LossEvent) {
        // Copa reacts to loss only via timeouts (its delay signal handles
        // congestion); a timeout collapses the window.
        if ev.kind == LossKind::Timeout {
            self.cwnd = self.min_cwnd;
            self.in_slow_start = true;
            self.velocity = 1.0;
        }
    }

    /// No MI clock: every decision is taken per ACK and per loss.
    fn mi_duration(&self, _srtt: Duration) -> Duration {
        Duration::MAX
    }

    fn cwnd_bytes(&self) -> u64 {
        (self.cwnd.max(self.min_cwnd) * self.mss as f64) as u64
    }

    fn set_rate(&mut self, rate: Rate, srtt: Duration) {
        self.cwnd = (rate.bytes_in(srtt) as f64 / self.mss as f64).max(self.min_cwnd);
        self.in_slow_start = false;
        self.velocity = 1.0;
    }

    fn in_startup(&self) -> bool {
        self.in_slow_start
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

    #[test]
    fn slow_start_grows() {
        let mut c = Copa::new(1500);
        let w0 = c.cwnd_packets();
        for k in 0..10 {
            c.on_ack(&ack(k * 10, 50));
        }
        assert!(c.cwnd_packets() > w0);
        assert!(c.in_startup());
    }

    #[test]
    fn exits_slow_start_on_queueing() {
        let mut c = Copa::new(1500);
        // min_rtt = 50 ms; then heavy queueing (500 ms) with a small target.
        c.on_ack(&ack(0, 50));
        for k in 1..50 {
            c.on_ack(&ack(k * 10, 500));
        }
        assert!(!c.in_startup());
    }

    #[test]
    fn shrinks_under_persistent_queueing() {
        let mut c = Copa::new(1500);
        c.on_ack(&ack(0, 50));
        for k in 1..30 {
            c.on_ack(&ack(k * 10, 400));
        }
        let w = c.cwnd_packets();
        for k in 30..120 {
            c.on_ack(&ack(k * 10, 400));
        }
        assert!(c.cwnd_packets() < w, "{} vs {w}", c.cwnd_packets());
    }

    #[test]
    fn grows_when_queue_empty() {
        let mut c = Copa::new(1500);
        c.on_ack(&ack(0, 50));
        // Exit slow start artificially.
        c.set_rate(Rate::from_mbps(1.0), Duration::from_millis(50));
        let w = c.cwnd_packets();
        for k in 1..100 {
            c.on_ack(&ack(k * 10, 50)); // dq ≈ 0 → target ∞ → grow
        }
        assert!(c.cwnd_packets() > w);
    }

    #[test]
    fn velocity_accelerates_growth() {
        let mut c = Copa::new(1500);
        c.on_ack(&ack(0, 50));
        c.set_rate(Rate::from_mbps(1.0), Duration::from_millis(50));
        // Growth over consecutive RTTs accelerates once direction holds.
        let mut deltas = Vec::new();
        let mut prev = c.cwnd_packets();
        for round in 0..8u64 {
            for k in 0..5 {
                c.on_ack(&ack(1000 + round * 50 + k * 10, 50));
            }
            deltas.push(c.cwnd_packets() - prev);
            prev = c.cwnd_packets();
        }
        assert!(deltas.last().unwrap() > deltas.first().unwrap());
    }

    #[test]
    fn timeout_resets() {
        let mut c = Copa::new(1500);
        for k in 0..20 {
            c.on_ack(&ack(k * 10, 50));
        }
        c.on_loss(&LossEvent {
            now: Instant::from_secs(1),
            seq: 0,
            bytes: 1500,
            in_flight: 0,
            kind: LossKind::Timeout,
        });
        assert!((c.cwnd_packets() - 2.0).abs() < 1e-9);
    }
}
