//! TCP Westwood+: Reno-style growth with bandwidth-estimate-based backoff
//! (`ssthresh = bw_est × min_rtt` instead of half the window), which makes
//! it resilient to stochastic loss — one of the "other classic CCAs"
//! Sec. 7 suggests plugging into Libra.

use crate::reno::AimdState;
use libra_types::{
    AckEvent, CongestionControl, Duration, Ewma, Instant, LossEvent, LossKind, Rate,
};

/// TCP Westwood+.
#[derive(Debug, Clone)]
pub struct Westwood {
    state: AimdState,
    bw_est: Ewma, // bytes/sec
    min_rtt: Duration,
    last_ack: Instant,
    acked_since: u64,
}

impl Westwood {
    /// Standard Westwood+ with the given MSS.
    pub fn new(mss: u64) -> Self {
        Westwood {
            state: AimdState::new(mss),
            bw_est: Ewma::new(0.1),
            min_rtt: Duration::MAX,
            last_ack: Instant::ZERO,
            acked_since: 0,
        }
    }

    /// Current window in packets.
    pub fn cwnd_packets(&self) -> f64 {
        self.state.cwnd
    }

    /// Bandwidth estimate in bytes/sec.
    pub fn bandwidth_estimate(&self) -> f64 {
        self.bw_est.get_or(0.0)
    }
}

impl Default for Westwood {
    fn default() -> Self {
        Westwood::new(1500)
    }
}

impl CongestionControl for Westwood {
    fn name(&self) -> &'static str {
        "Westwood"
    }

    fn on_ack(&mut self, ev: &AckEvent) {
        self.state.note_ack(ev);
        self.min_rtt = self.min_rtt.min(ev.rtt);
        self.acked_since += ev.bytes;
        // Sample bandwidth roughly once per RTT.
        let since = ev.now.saturating_since(self.last_ack);
        if since >= ev.srtt.max(Duration::from_millis(10)) {
            if !since.is_zero() {
                let sample = self.acked_since as f64 / since.as_secs_f64();
                self.bw_est.update(sample);
            }
            self.acked_since = 0;
            self.last_ack = ev.now;
        }
        // Reno growth.
        if self.state.in_slow_start() {
            self.state.cwnd += ev.bytes as f64 / self.state.mss as f64;
        } else {
            self.state.cwnd += (ev.bytes as f64 / self.state.mss as f64) / self.state.cwnd;
        }
    }

    fn on_loss(&mut self, ev: &LossEvent) {
        let bw = self.bw_est.get_or(0.0);
        let ssthresh_pkts = if bw > 0.0 && self.min_rtt != Duration::MAX {
            (bw * self.min_rtt.as_secs_f64() / self.state.mss as f64).max(self.state.min_cwnd)
        } else {
            (self.state.cwnd / 2.0).max(self.state.min_cwnd)
        };
        match ev.kind {
            LossKind::FastRetransmit => {
                if self.state.should_reduce(ev.now) {
                    self.state.ssthresh = ssthresh_pkts;
                    self.state.cwnd = self.state.cwnd.min(ssthresh_pkts);
                }
            }
            LossKind::Timeout => {
                self.state.ssthresh = ssthresh_pkts;
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

    fn ack(now_ms: u64, rtt_ms: u64, bytes: u64) -> AckEvent {
        AckEvent {
            now: Instant::from_millis(now_ms),
            seq: 0,
            bytes,
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

    fn feed(w: &mut Westwood, ms: u64, count: u64, rtt: u64) {
        for k in 0..count {
            w.on_ack(&ack(ms + k * 10, rtt, 1500));
        }
    }

    #[test]
    fn bandwidth_estimate_converges() {
        let mut w = Westwood::new(1500);
        // 1500 B per 10 ms = 150 kB/s.
        feed(&mut w, 0, 200, 50);
        let bw = w.bandwidth_estimate();
        assert!((bw - 150_000.0).abs() < 30_000.0, "bw {bw}");
    }

    #[test]
    fn loss_sets_ssthresh_to_bdp() {
        let mut w = Westwood::new(1500);
        feed(&mut w, 0, 300, 50);
        let bw = w.bandwidth_estimate();
        w.on_loss(&LossEvent {
            now: Instant::from_secs(10),
            seq: 0,
            bytes: 1500,
            in_flight: 0,
            kind: LossKind::FastRetransmit,
        });
        let expect_pkts = bw * 0.05 / 1500.0;
        assert!(
            (w.cwnd_packets() - expect_pkts).abs() < 2.0 || w.cwnd_packets() < expect_pkts,
            "cwnd {} vs bdp {}",
            w.cwnd_packets(),
            expect_pkts
        );
    }

    #[test]
    fn repeated_losses_do_not_compound_below_bdp() {
        // Reno would halve on every round's loss; Westwood floors at the
        // bandwidth-estimate BDP, so back-to-back (cross-round) losses do
        // not drive the window toward zero.
        let mut w = Westwood::new(1500);
        feed(&mut w, 0, 300, 50);
        let bdp_pkts = w.bandwidth_estimate() * 0.05 / 1500.0;
        for k in 0..5u64 {
            w.on_loss(&LossEvent {
                now: Instant::from_secs(20 + k),
                seq: 0,
                bytes: 1500,
                in_flight: 0,
                kind: LossKind::FastRetransmit,
            });
        }
        assert!(
            // Floor of two packets, or within one packet of the BDP.
            w.cwnd_packets() + 1e-9 >= 2.0 || w.cwnd_packets() >= bdp_pkts - 1.0,
            "cwnd {} collapsed below bdp {}",
            w.cwnd_packets(),
            bdp_pkts
        );
    }
}
