//! Cross-traffic sources: unresponsive constant-bit-rate and on/off
//! senders used as background load in experiments (competing flows the
//! Sec. 4.1 discussion mentions among the dynamics Libra must react to).

use libra_types::{
    cca::rate_based_cwnd, AckEvent, CongestionControl, Duration, Instant, LossEvent, MiStats, Rate,
};

/// An unresponsive constant-bit-rate source (UDP-like): it ignores every
/// congestion signal and paces at a fixed rate.
pub struct CbrSource {
    rate: Rate,
    srtt: Duration,
}

impl CbrSource {
    /// A CBR source at `rate`.
    pub fn new(rate: Rate) -> Self {
        CbrSource {
            rate,
            srtt: Duration::from_millis(100),
        }
    }
}

impl CongestionControl for CbrSource {
    fn name(&self) -> &'static str {
        "CBR"
    }

    fn on_ack(&mut self, ev: &AckEvent) {
        self.srtt = ev.srtt;
    }

    fn on_loss(&mut self, _ev: &LossEvent) {}

    fn cwnd_bytes(&self) -> u64 {
        rate_based_cwnd(self.rate, self.srtt, 1500)
    }

    fn pacing_rate(&self) -> Option<Rate> {
        Some(self.rate)
    }
}

/// An on/off burst source: alternates between sending at `rate` for
/// `on` and silence for `off` — the classic model for interfering web
/// or video traffic.
pub struct OnOffSource {
    rate: Rate,
    on: Duration,
    off: Duration,
    srtt: Duration,
    now: Instant,
}

impl OnOffSource {
    /// Build with the given burst rate and on/off durations.
    pub fn new(rate: Rate, on: Duration, off: Duration) -> Self {
        assert!(!on.is_zero(), "on period must be positive");
        OnOffSource {
            rate,
            on,
            off,
            srtt: Duration::from_millis(100),
            now: Instant::ZERO,
        }
    }

    fn is_on(&self) -> bool {
        let period = (self.on + self.off).nanos().max(1);
        (self.now.nanos() % period) < self.on.nanos()
    }
}

impl CongestionControl for OnOffSource {
    fn name(&self) -> &'static str {
        "OnOff"
    }

    fn on_ack(&mut self, ev: &AckEvent) {
        self.srtt = ev.srtt;
        self.now = ev.now;
    }

    fn on_mi(&mut self, stats: &MiStats) {
        self.now = stats.end;
    }

    fn on_loss(&mut self, _ev: &LossEvent) {}

    fn mi_duration(&self, _srtt: Duration) -> Duration {
        // Tick fast enough to observe phase boundaries.
        self.on.min(self.off.max(Duration::from_millis(10))) / 2
    }

    fn cwnd_bytes(&self) -> u64 {
        rate_based_cwnd(self.rate, self.srtt, 1500)
    }

    fn pacing_rate(&self) -> Option<Rate> {
        if self.is_on() {
            Some(self.rate)
        } else {
            Some(Rate::ZERO)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{FlowConfig, LinkConfig, Simulation};

    #[test]
    fn cbr_holds_its_rate() {
        let link = LinkConfig::constant(Rate::from_mbps(20.0), Duration::from_millis(40), 1.0);
        let until = Instant::from_secs(10);
        let mut sim = Simulation::new(link, 1);
        sim.add_flow(FlowConfig::whole_run(
            Box::new(CbrSource::new(Rate::from_mbps(6.0))),
            until,
        ));
        let rep = sim.run(until);
        assert!((rep.flows[0].avg_goodput.mbps() - 6.0).abs() < 0.5);
    }

    #[test]
    fn cbr_squeezes_a_responsive_flow() {
        /// A minimal AIMD responder for the test.
        struct MiniAimd {
            cwnd: f64,
        }
        impl CongestionControl for MiniAimd {
            fn name(&self) -> &'static str {
                "mini-aimd"
            }
            fn on_ack(&mut self, ev: &AckEvent) {
                self.cwnd += ev.bytes as f64 / 1500.0 / self.cwnd;
            }
            fn on_loss(&mut self, _: &LossEvent) {
                self.cwnd = (self.cwnd / 2.0).max(2.0);
            }
            fn cwnd_bytes(&self) -> u64 {
                (self.cwnd * 1500.0) as u64
            }
        }
        let link = LinkConfig::constant(Rate::from_mbps(20.0), Duration::from_millis(40), 1.0);
        let until = Instant::from_secs(20);
        let mut sim = Simulation::new(link, 2);
        sim.add_flow(FlowConfig::whole_run(
            Box::new(MiniAimd { cwnd: 10.0 }),
            until,
        ));
        sim.add_flow(FlowConfig::whole_run(
            Box::new(CbrSource::new(Rate::from_mbps(12.0))),
            until,
        ));
        let rep = sim.run(until);
        // The unresponsive source keeps its 12 Mbps; AIMD takes the rest.
        assert!((rep.flows[1].avg_goodput.mbps() - 12.0).abs() < 1.0);
        assert!(rep.flows[0].avg_goodput.mbps() < 10.0);
    }

    #[test]
    fn on_off_source_alternates() {
        let link = LinkConfig::constant(Rate::from_mbps(50.0), Duration::from_millis(20), 1.0);
        let until = Instant::from_secs(10);
        let mut sim = Simulation::new(link, 3);
        sim.add_flow(FlowConfig::whole_run(
            Box::new(OnOffSource::new(
                Rate::from_mbps(10.0),
                Duration::from_secs(1),
                Duration::from_secs(1),
            )),
            until,
        ));
        let rep = sim.run(until);
        // Duty cycle 50 % → ~5 Mbps average.
        let g = rep.flows[0].avg_goodput.mbps();
        assert!((g - 5.0).abs() < 1.5, "goodput {g}");
        // The series must contain both busy and idle bins.
        let bins = &rep.flows[0].goodput_series;
        assert!(bins.points().any(|(_, v)| v > 8.0));
        assert!(bins
            .points()
            .filter(|&(t, _)| t > 1.0)
            .any(|(_, v)| v < 1.0));
    }
}
