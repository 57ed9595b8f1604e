//! CUBIC (RFC 8312): the Linux default and the classic CCA behind the
//! paper's C-Libra. Window growth follows a cubic function of time since
//! the last reduction, with the TCP-friendly region and fast convergence.

use libra_types::{AckEvent, CongestionControl, Duration, Instant, LossEvent, LossKind, Rate};

const C: f64 = 0.4; // cubic scaling constant (packets/sec³)
const BETA: f64 = 0.7; // multiplicative decrease factor

// HyStart++ (RFC 9406) parameters: exit slow start when a round's
// minimum RTT rises by clamp(last_min/8, 4ms, 16ms) over the previous
// round's minimum, after at least N_RTT_SAMPLE samples.
const HYSTART_MIN_SAMPLES: u32 = 8;
const HYSTART_MIN_ETA: f64 = 0.004;
const HYSTART_MAX_ETA: f64 = 0.016;

/// CUBIC congestion control.
#[derive(Debug, Clone)]
pub struct Cubic {
    mss: u64,
    cwnd: f64,     // packets
    ssthresh: f64, // packets
    w_max: f64,    // window before the last reduction
    k: f64,        // time (s) for the cubic to regain w_max
    epoch_start: Option<Instant>,
    tcp_cwnd: f64, // TCP-friendly (Reno-equivalent) window estimate
    srtt: Duration,
    recovery_until: Instant,
    min_cwnd: f64,
    fast_convergence: bool,
    hystart: bool,
    hy_round_end: Instant,
    hy_last_min: Option<f64>,
    hy_cur_min: f64,
    hy_samples: u32,
}

impl Cubic {
    /// Standard CUBIC with fast convergence enabled.
    pub fn new(mss: u64) -> Self {
        Cubic {
            mss,
            cwnd: 10.0,
            ssthresh: f64::INFINITY,
            w_max: 0.0,
            k: 0.0,
            epoch_start: None,
            tcp_cwnd: 0.0,
            srtt: Duration::ZERO,
            recovery_until: Instant::ZERO,
            min_cwnd: 2.0,
            fast_convergence: true,
            hystart: true,
            hy_round_end: Instant::ZERO,
            hy_last_min: None,
            hy_cur_min: f64::INFINITY,
            hy_samples: 0,
        }
    }

    /// Disable fast convergence (for ablations).
    pub fn without_fast_convergence(mut self) -> Self {
        self.fast_convergence = false;
        self
    }

    /// Disable the HyStart++ delay-based slow-start exit.
    pub fn without_hystart(mut self) -> Self {
        self.hystart = false;
        self
    }

    /// HyStart++: track per-round RTT minima during slow start and exit
    /// when the minimum rises materially — congestion is building before
    /// the first loss.
    fn hystart_update(&mut self, ev: &AckEvent) {
        let rtt = ev.rtt.as_secs_f64();
        self.hy_cur_min = self.hy_cur_min.min(rtt);
        self.hy_samples += 1;
        if ev.now < self.hy_round_end {
            return;
        }
        // Round boundary.
        if self.hy_samples >= HYSTART_MIN_SAMPLES {
            if let Some(last) = self.hy_last_min {
                let eta = (last / 8.0).clamp(HYSTART_MIN_ETA, HYSTART_MAX_ETA);
                if self.hy_cur_min >= last + eta {
                    // Delay rose a full threshold: leave slow start here.
                    self.ssthresh = self.cwnd;
                }
            }
            self.hy_last_min = Some(self.hy_cur_min);
        }
        self.hy_cur_min = f64::INFINITY;
        self.hy_samples = 0;
        self.hy_round_end = ev.now + ev.srtt.max(Duration::from_millis(1));
    }

    /// Current window in packets.
    pub fn cwnd_packets(&self) -> f64 {
        self.cwnd
    }

    /// The cubic window at elapsed time `t` seconds since epoch start.
    fn w_cubic(&self, t: f64) -> f64 {
        C * (t - self.k).powi(3) + self.w_max
    }

    fn begin_epoch(&mut self, now: Instant) {
        self.epoch_start = Some(now);
        if self.cwnd < self.w_max {
            self.k = ((self.w_max - self.cwnd) / C).cbrt();
        } else {
            self.k = 0.0;
            self.w_max = self.cwnd;
        }
        self.tcp_cwnd = self.cwnd;
    }

    fn reduce(&mut self, now: Instant) {
        let w = self.cwnd;
        self.w_max = if self.fast_convergence && w < self.w_max {
            // Fast convergence: release bandwidth for newcomers.
            w * (2.0 - BETA) / 2.0
        } else {
            w
        };
        self.cwnd = (w * BETA).max(self.min_cwnd);
        self.ssthresh = self.cwnd;
        self.epoch_start = None;
        self.recovery_until = now + self.srtt.max(Duration::from_millis(1));
    }
}

impl Default for Cubic {
    fn default() -> Self {
        Cubic::new(1500)
    }
}

impl CongestionControl for Cubic {
    fn name(&self) -> &'static str {
        "CUBIC"
    }

    fn on_ack(&mut self, ev: &AckEvent) {
        self.srtt = ev.srtt;
        let acked_pkts = ev.bytes as f64 / self.mss as f64;
        if self.cwnd < self.ssthresh {
            self.cwnd += acked_pkts;
            if self.hystart {
                self.hystart_update(ev);
            }
            return;
        }
        let now = ev.now;
        if self.epoch_start.is_none() {
            self.begin_epoch(now);
        }
        let t = now
            .saturating_since(self.epoch_start.expect("epoch set"))
            .as_secs_f64();
        let rtt = ev.srtt.as_secs_f64();
        // Target: where the cubic wants to be one RTT from now.
        let target = self.w_cubic(t + rtt).clamp(self.cwnd, 1.5 * self.cwnd);
        self.cwnd += (target - self.cwnd) / self.cwnd * acked_pkts;
        // TCP-friendly region (RFC 8312 §4.2): emulate Reno's AIMD average.
        self.tcp_cwnd += (3.0 * (1.0 - BETA) / (1.0 + BETA)) * acked_pkts / self.cwnd;
        if self.tcp_cwnd > self.cwnd {
            self.cwnd = self.tcp_cwnd;
        }
    }

    fn on_loss(&mut self, ev: &LossEvent) {
        match ev.kind {
            LossKind::FastRetransmit => {
                if ev.now >= self.recovery_until {
                    self.srtt = self.srtt.max(Duration::from_millis(1));
                    self.reduce(ev.now);
                }
            }
            LossKind::Timeout => {
                self.reduce(ev.now);
                self.cwnd = self.min_cwnd;
            }
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
        let pkts = (rate.bytes_in(srtt) as f64 / self.mss as f64).max(self.min_cwnd);
        self.cwnd = pkts;
        if self.ssthresh < pkts {
            self.ssthresh = pkts;
        }
        // The cubic epoch clock keeps running (this is how the kernel
        // behaves under external cwnd clamps, and how Orca drives CUBIC):
        // the window curve re-approaches its target from the new base, so
        // repeated re-basing does not strand growth at the origin.
    }

    fn in_startup(&self) -> bool {
        self.cwnd < self.ssthresh
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{ack, loss};

    #[test]
    fn slow_start_then_cubic_growth() {
        let mut c = Cubic::new(1500);
        for i in 0..10 {
            c.on_ack(&ack(i, 1500, 50));
        }
        assert!((c.cwnd_packets() - 20.0).abs() < 1e-9);
        assert!(c.in_startup());
    }

    #[test]
    fn loss_multiplies_by_beta() {
        let mut c = Cubic::new(1500);
        for i in 0..40 {
            c.on_ack(&ack(i, 1500, 50));
        }
        let w = c.cwnd_packets();
        c.on_loss(&loss(50, LossKind::FastRetransmit));
        assert!((c.cwnd_packets() - 0.7 * w).abs() < 1e-9);
        assert!(!c.in_startup());
    }

    #[test]
    fn cubic_concave_then_convex() {
        // After a reduction the window should grow quickly, plateau near
        // w_max, then accelerate past it.
        let mut c = Cubic::new(1500);
        for i in 0..90 {
            c.on_ack(&ack(i, 1500, 50));
        }
        c.on_loss(&loss(100, LossKind::FastRetransmit));
        let w_after_loss = c.cwnd_packets();
        let w_max = w_after_loss / 0.7;
        // Simulate 30 s of ACK clocking at ~cwnd per 50 ms RTT.
        let mut t_ms = 200u64;
        let mut crossed = None;
        while t_ms < 30_000 {
            let acks = c.cwnd_packets().round() as u64;
            for _ in 0..acks.max(1) {
                c.on_ack(&ack(t_ms, 1500, 50));
            }
            if crossed.is_none() && c.cwnd_packets() > w_max {
                crossed = Some(t_ms);
            }
            t_ms += 50;
        }
        let crossed = crossed.expect("cubic should regain w_max");
        // K = cbrt((w_max − 0.7·w_max)/0.4) = cbrt(0.75·w_max) seconds.
        let k_secs = (0.75 * w_max).cbrt();
        let crossed_secs = (crossed - 200) as f64 / 1000.0;
        assert!(
            (crossed_secs - k_secs).abs() < 0.5 * k_secs + 0.5,
            "regained w_max at {crossed_secs}s, K = {k_secs}s"
        );
        // And keeps growing (convex region).
        assert!(c.cwnd_packets() > w_max);
    }

    #[test]
    fn fast_convergence_shrinks_wmax() {
        let mut c = Cubic::new(1500);
        for i in 0..100 {
            c.on_ack(&ack(i, 1500, 50));
        }
        c.on_loss(&loss(150, LossKind::FastRetransmit));
        let w1 = c.w_max;
        // Second loss at a smaller window (before regaining w_max).
        c.on_loss(&loss(500, LossKind::FastRetransmit));
        assert!(c.w_max < w1, "fast convergence should lower w_max");
    }

    #[test]
    fn once_per_round_guard() {
        let mut c = Cubic::new(1500);
        for i in 0..40 {
            c.on_ack(&ack(i, 1500, 50));
        }
        c.on_loss(&loss(50, LossKind::FastRetransmit));
        let w = c.cwnd_packets();
        c.on_loss(&loss(55, LossKind::FastRetransmit));
        assert_eq!(c.cwnd_packets(), w);
    }

    #[test]
    fn timeout_collapses() {
        let mut c = Cubic::new(1500);
        for i in 0..40 {
            c.on_ack(&ack(i, 1500, 50));
        }
        c.on_loss(&loss(60, LossKind::Timeout));
        assert!((c.cwnd_packets() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn hystart_exits_slow_start_on_delay_rise() {
        let mut c = Cubic::new(1500);
        // Round 1: flat 50 ms RTT (establish last_min).
        let mut t = 0u64;
        for _ in 0..12 {
            c.on_ack(&ack(t, 1500, 50));
            t += 5;
        }
        assert!(c.in_startup());
        // Rounds with climbing RTT: 50 → 90 ms — HyStart should fire
        // before any loss.
        for round in 0..6u64 {
            for _ in 0..12 {
                c.on_ack(&ack(t, 1500, 50 + round * 8));
                t += 5;
            }
        }
        assert!(!c.in_startup(), "HyStart should have exited slow start");
    }

    #[test]
    fn hystart_stays_in_slow_start_with_flat_rtt() {
        let mut c = Cubic::new(1500);
        let mut t = 0u64;
        for _ in 0..100 {
            c.on_ack(&ack(t, 1500, 50));
            t += 5;
        }
        assert!(c.in_startup(), "flat RTT must not trigger HyStart");
    }

    #[test]
    fn hystart_can_be_disabled() {
        let mut c = Cubic::new(1500).without_hystart();
        let mut t = 0u64;
        for round in 0..8u64 {
            for _ in 0..12 {
                c.on_ack(&ack(t, 1500, 50 + round * 10));
                t += 5;
            }
        }
        assert!(c.in_startup(), "disabled HyStart leaves slow start alone");
    }

    #[test]
    fn set_rate_rebases_and_growth_continues() {
        let mut c = Cubic::new(1500);
        for i in 0..40 {
            c.on_ack(&ack(i, 1500, 50));
        }
        c.on_loss(&loss(50, LossKind::FastRetransmit)); // leave slow start
        c.set_rate(Rate::from_mbps(24.0), Duration::from_millis(100));
        // 24 Mbps × 100 ms = 300 kB = 200 packets.
        assert!((c.cwnd_packets() - 200.0).abs() < 0.01);
        // Growth continues from the new anchor.
        let w = c.cwnd_packets();
        for i in 0..200 {
            c.on_ack(&ack(1000 + i, 1500, 100));
        }
        assert!(c.cwnd_packets() > w);
    }
}
