//! DCTCP (Alizadeh et al., SIGCOMM'10): ECN-proportional congestion
//! control for datacenters — one of the network-specific classic CCAs
//! Sec. 7 proposes plugging into Libra ("leverage new properties, e.g.
//! ECN marking … address more challenges, e.g. incast and extremely low
//! RTT in datacenters").
//!
//! DCTCP maintains `α`, an EWMA of the fraction of ECN-marked bytes per
//! RTT, and on a marked round reduces `cwnd ← cwnd·(1 − α/2)`: a full
//! buffer excursion behaves like Reno, a single mark barely moves the
//! window — keeping queues at the marking threshold.

use crate::reno::AimdState;
use libra_types::{AckEvent, CongestionControl, Duration, Instant, LossEvent, LossKind, Rate};

const G: f64 = 1.0 / 16.0; // α's EWMA gain (RFC 8257 default)

/// DCTCP congestion control. Requires an ECN-marking queue
/// (`LinkConfig::ecn` in the simulator); without marks it behaves like
/// Reno without multiplicative decrease triggers other than loss.
#[derive(Debug, Clone)]
pub struct Dctcp {
    state: AimdState,
    alpha: f64,
    acked_bytes_round: u64,
    marked_bytes_round: u64,
    round_end: Instant,
    reduced_this_round: bool,
}

impl Dctcp {
    /// Standard DCTCP with the given MSS.
    pub fn new(mss: u64) -> Self {
        Dctcp {
            state: AimdState::new(mss),
            alpha: 1.0, // conservative start (RFC 8257 §4.2)
            acked_bytes_round: 0,
            marked_bytes_round: 0,
            round_end: Instant::ZERO,
            reduced_this_round: false,
        }
    }

    /// Current window in packets.
    pub fn cwnd_packets(&self) -> f64 {
        self.state.cwnd
    }

    /// The marked-fraction estimate α.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    fn end_round(&mut self, now: Instant, srtt: Duration) {
        if self.acked_bytes_round > 0 {
            let frac = self.marked_bytes_round as f64 / self.acked_bytes_round as f64;
            self.alpha = (1.0 - G) * self.alpha + G * frac;
        }
        self.acked_bytes_round = 0;
        self.marked_bytes_round = 0;
        self.reduced_this_round = false;
        self.round_end = now + srtt.max(Duration::from_micros(100));
    }
}

impl Default for Dctcp {
    fn default() -> Self {
        Dctcp::new(1500)
    }
}

impl CongestionControl for Dctcp {
    fn name(&self) -> &'static str {
        "DCTCP"
    }

    fn on_ack(&mut self, ev: &AckEvent) {
        self.state.note_ack(ev);
        self.acked_bytes_round += ev.bytes;
        if ev.now >= self.round_end {
            self.end_round(ev.now, ev.srtt);
        }
        // Reno-style growth between marks.
        let pkts = ev.bytes as f64 / self.state.mss as f64;
        if self.state.in_slow_start() {
            self.state.cwnd += pkts;
        } else {
            self.state.cwnd += pkts / self.state.cwnd;
        }
    }

    fn on_ecn(&mut self, ev: &AckEvent) {
        self.marked_bytes_round += ev.bytes;
        // Leave slow start on the first mark.
        if self.state.in_slow_start() {
            self.state.ssthresh = self.state.cwnd;
        }
        // One α-proportional reduction per round.
        if !self.reduced_this_round {
            self.reduced_this_round = true;
            self.state.cwnd = (self.state.cwnd * (1.0 - self.alpha / 2.0)).max(self.state.min_cwnd);
            self.state.ssthresh = self.state.cwnd;
        }
    }

    fn on_loss(&mut self, ev: &LossEvent) {
        match ev.kind {
            LossKind::FastRetransmit => {
                if self.state.should_reduce(ev.now) {
                    self.state.ssthresh = (self.state.cwnd / 2.0).max(self.state.min_cwnd);
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
    use crate::testutil::ack;

    fn ecn_ack(now_ms: u64, bytes: u64, srtt_ms: u64) -> AckEvent {
        ack(now_ms, bytes, srtt_ms)
    }

    #[test]
    fn grows_like_reno_without_marks() {
        let mut d = Dctcp::new(1500);
        let w0 = d.cwnd_packets();
        for k in 0..10 {
            d.on_ack(&ack(k, 1500, 10));
        }
        assert!((d.cwnd_packets() - (w0 + 10.0)).abs() < 1e-9);
        assert!(d.in_startup());
    }

    #[test]
    fn alpha_tracks_mark_fraction() {
        let mut d = Dctcp::new(1500);
        // Several rounds with exactly half the bytes marked.
        let mut t = 0u64;
        for _round in 0..60 {
            for k in 0..10u64 {
                let ev = ecn_ack(t + k, 1500, 10);
                d.on_ack(&ev);
                if k % 2 == 0 {
                    d.on_ecn(&ev);
                }
            }
            t += 11;
        }
        assert!((d.alpha() - 0.5).abs() < 0.1, "alpha {}", d.alpha());
    }

    #[test]
    fn light_marking_gives_gentle_reduction() {
        let mut d = Dctcp::new(1500);
        // Drive α low: many clean rounds.
        let mut t = 0u64;
        for _ in 0..80 {
            for k in 0..10u64 {
                d.on_ack(&ack(t + k, 1500, 10));
            }
            t += 11;
        }
        let alpha = d.alpha();
        assert!(alpha < 0.02, "alpha {alpha}");
        let w = d.cwnd_packets();
        let ev = ecn_ack(t, 1500, 10);
        d.on_ecn(&ev);
        // Reduction is α/2 ≈ nothing, unlike Reno's 50 %.
        assert!(d.cwnd_packets() > 0.98 * w, "{} vs {w}", d.cwnd_packets());
    }

    #[test]
    fn heavy_marking_approaches_reno() {
        let mut d = Dctcp::new(1500); // α starts at 1.0 and decays slowly
        for k in 0..20 {
            d.on_ack(&ack(k, 1500, 10));
        }
        let w = d.cwnd_packets();
        let alpha = d.alpha();
        assert!(alpha > 0.8, "alpha should still be near 1: {alpha}");
        let ev = ecn_ack(30, 1500, 10);
        d.on_ecn(&ev);
        // Reduction is exactly cwnd·(1 − α/2) — close to Reno's halving.
        let expect = w * (1.0 - alpha / 2.0);
        assert!((d.cwnd_packets() - expect).abs() < 1e-9);
        assert!(d.cwnd_packets() < 0.65 * w);
    }

    #[test]
    fn one_reduction_per_round() {
        let mut d = Dctcp::new(1500);
        for k in 0..20 {
            d.on_ack(&ack(k, 1500, 10));
        }
        let ev = ecn_ack(30, 1500, 10);
        d.on_ecn(&ev);
        let w = d.cwnd_packets();
        d.on_ecn(&ev);
        d.on_ecn(&ev);
        assert_eq!(d.cwnd_packets(), w, "no compounding within a round");
    }

    #[test]
    fn loss_still_halves() {
        let mut d = Dctcp::new(1500);
        for k in 0..20 {
            d.on_ack(&ack(k, 1500, 10));
        }
        let w = d.cwnd_packets();
        d.on_loss(&crate::testutil::loss(30, LossKind::FastRetransmit));
        assert!((d.cwnd_packets() - w / 2.0).abs() < 1e-9);
    }
}
