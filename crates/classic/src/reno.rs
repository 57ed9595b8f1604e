//! TCP NewReno: the canonical AIMD loss-based controller (RFC 6582
//! congestion behaviour, without the retransmission machinery — the
//! simulator handles detection).

use libra_types::{AckEvent, CongestionControl, Duration, Instant, LossEvent, LossKind, Rate};

/// Shared AIMD bookkeeping used by Reno-family controllers (Reno,
/// Westwood, Illinois, Vegas's loss reaction). Tracks slow start,
/// once-per-round loss reaction and window/ssthresh state in MSS-sized
/// floating-point units.
#[derive(Debug, Clone)]
pub(crate) struct AimdState {
    /// Congestion window in packets (fractional).
    pub cwnd: f64,
    /// Slow-start threshold in packets.
    pub ssthresh: f64,
    /// Segment size in bytes.
    pub mss: u64,
    /// Smoothed RTT from the last ACK.
    pub srtt: Duration,
    /// End of the current loss-recovery round: further losses until this
    /// time cause no additional reduction.
    pub recovery_until: Instant,
    /// Floor for the window.
    pub min_cwnd: f64,
}

impl AimdState {
    pub fn new(mss: u64) -> Self {
        AimdState {
            cwnd: 10.0, // RFC 6928 initial window
            ssthresh: f64::INFINITY,
            mss,
            srtt: Duration::ZERO,
            recovery_until: Instant::ZERO,
            min_cwnd: 2.0,
        }
    }

    pub fn in_slow_start(&self) -> bool {
        self.cwnd < self.ssthresh
    }

    pub fn note_ack(&mut self, ev: &AckEvent) {
        self.srtt = ev.srtt;
    }

    /// True if this loss should trigger a reduction (first loss in the
    /// round); arms the round guard when it fires.
    pub fn should_reduce(&mut self, now: Instant) -> bool {
        if now < self.recovery_until {
            return false;
        }
        self.recovery_until = now + self.srtt.max(Duration::from_millis(1));
        true
    }

    pub fn cwnd_bytes(&self) -> u64 {
        (self.cwnd.max(self.min_cwnd) * self.mss as f64) as u64
    }

    pub fn set_rate(&mut self, rate: Rate, srtt: Duration) {
        let bytes = rate.bytes_in(srtt).max(self.min_cwnd as u64 * self.mss);
        self.cwnd = bytes as f64 / self.mss as f64;
        if self.ssthresh < self.cwnd {
            self.ssthresh = self.cwnd;
        }
    }
}

/// TCP NewReno.
#[derive(Debug, Clone)]
pub struct NewReno {
    state: AimdState,
}

impl NewReno {
    /// Standard configuration with the given MSS.
    pub fn new(mss: u64) -> Self {
        NewReno {
            state: AimdState::new(mss),
        }
    }

    /// Current window in packets (for tests and telemetry).
    pub fn cwnd_packets(&self) -> f64 {
        self.state.cwnd
    }
}

impl Default for NewReno {
    fn default() -> Self {
        NewReno::new(1500)
    }
}

impl CongestionControl for NewReno {
    fn name(&self) -> &'static str {
        "NewReno"
    }

    fn on_ack(&mut self, ev: &AckEvent) {
        self.state.note_ack(ev);
        let s = &mut self.state;
        if s.in_slow_start() {
            s.cwnd += ev.bytes as f64 / s.mss as f64;
        } else {
            // 1 packet per cwnd of ACKed data.
            s.cwnd += (ev.bytes as f64 / s.mss as f64) / s.cwnd;
        }
    }

    fn on_loss(&mut self, ev: &LossEvent) {
        let s = &mut self.state;
        match ev.kind {
            LossKind::FastRetransmit => {
                if s.should_reduce(ev.now) {
                    s.ssthresh = (s.cwnd / 2.0).max(s.min_cwnd);
                    s.cwnd = s.ssthresh;
                }
            }
            LossKind::Timeout => {
                s.ssthresh = (s.cwnd / 2.0).max(s.min_cwnd);
                s.cwnd = s.min_cwnd;
                s.recovery_until = ev.now + s.srtt.max(Duration::from_millis(1));
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

    use crate::testutil::{ack, loss};

    #[test]
    fn slow_start_doubles_per_rtt() {
        let mut r = NewReno::new(1500);
        let w0 = r.cwnd_packets();
        // One window of ACKs.
        for i in 0..10 {
            r.on_ack(&ack(i, 1500, 50));
        }
        assert!((r.cwnd_packets() - 2.0 * w0).abs() < 1e-9);
        assert!(r.in_startup());
    }

    #[test]
    fn congestion_avoidance_adds_one_per_rtt() {
        let mut r = NewReno::new(1500);
        // Exit slow start via a loss.
        r.on_ack(&ack(0, 1500, 50));
        r.on_loss(&loss(1, LossKind::FastRetransmit));
        let w = r.cwnd_packets();
        assert!(!r.in_startup());
        let acks = w.round() as u64;
        for i in 0..acks {
            r.on_ack(&ack(100 + i, 1500, 50));
        }
        assert!(
            (r.cwnd_packets() - (w + 1.0)).abs() < 0.1,
            "{} vs {}",
            r.cwnd_packets(),
            w + 1.0
        );
    }

    #[test]
    fn loss_halves_once_per_round() {
        let mut r = NewReno::new(1500);
        for i in 0..20 {
            r.on_ack(&ack(i, 1500, 50));
        }
        let w = r.cwnd_packets();
        r.on_loss(&loss(25, LossKind::FastRetransmit));
        assert!((r.cwnd_packets() - w / 2.0).abs() < 1e-9);
        // Second loss in the same round: no further reduction.
        r.on_loss(&loss(30, LossKind::FastRetransmit));
        assert!((r.cwnd_packets() - w / 2.0).abs() < 1e-9);
        // After the round guard expires, reductions resume.
        r.on_loss(&loss(100, LossKind::FastRetransmit));
        assert!((r.cwnd_packets() - w / 4.0).abs() < 1e-9);
    }

    #[test]
    fn timeout_collapses_window() {
        let mut r = NewReno::new(1500);
        for i in 0..30 {
            r.on_ack(&ack(i, 1500, 50));
        }
        r.on_loss(&loss(40, LossKind::Timeout));
        assert!((r.cwnd_packets() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn set_rate_rebases_window() {
        let mut r = NewReno::new(1500);
        r.on_ack(&ack(0, 1500, 100));
        // 12 Mbps × 100 ms = 150 kB = 100 packets.
        r.set_rate(Rate::from_mbps(12.0), Duration::from_millis(100));
        assert!((r.cwnd_packets() - 100.0).abs() < 0.01);
        assert_eq!(r.cwnd_bytes(), 150_000);
        // ssthresh was raised so we do not slow-start wildly from there.
        assert!(!r.in_startup() || r.cwnd_packets() <= 100.0);
    }

    #[test]
    fn cwnd_never_below_floor() {
        let mut r = NewReno::new(1500);
        for k in 0..50 {
            r.on_loss(&loss(k * 1000, LossKind::Timeout));
        }
        assert!(r.cwnd_bytes() >= 2 * 1500);
    }
}
