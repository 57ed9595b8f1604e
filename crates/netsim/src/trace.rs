//! Trace generators: the workloads of the paper's evaluation.
//!
//! The paper drives its emulation with recorded Pantheon/DeepCC traces.
//! Those recordings are not redistributable, so this module synthesizes
//! traces with matched statistics (see DESIGN.md "Substitutions"):
//!
//! * **Wired** — constant-capacity links (12/24/48/96 Mbps).
//! * **LTE** — a mean-reverting (Ornstein–Uhlenbeck) capacity process in
//!   0–40 Mbps, parameterized per mobility scenario: *stationary* (slow,
//!   small swings), *walking* (moderate), *driving* (fast, deep fades).
//! * **Step** — the Fig. 2a step scenario (capacity jumps every 10 s).
//! * **WAN** — inter-/intra-continental Internet profiles: long RTTs,
//!   stochastic loss, ACK jitter and shallow policer-style buffers.

use crate::capacity::CapacitySchedule;
use crate::faults::FaultPlan;
use crate::loss::{GilbertElliott, LossProcess};
use crate::queue::EcnConfig;
use crate::queue::QueueConfig;
use crate::sim::LinkConfig;
use libra_types::{Bytes, DetRng, Duration, Instant, Rate};

/// LTE mobility scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LteScenario {
    /// Handset on a desk: slowly varying capacity around a high mean.
    Stationary,
    /// Pedestrian mobility: moderate variation.
    Walking,
    /// Vehicular mobility: fast variation with deep fades.
    Driving,
}

impl LteScenario {
    /// All scenarios, in the paper's LTE#1–#3 order.
    pub const ALL: [LteScenario; 3] = [
        LteScenario::Stationary,
        LteScenario::Walking,
        LteScenario::Driving,
    ];

    /// Table label.
    pub fn label(self) -> &'static str {
        match self {
            LteScenario::Stationary => "LTE-stationary",
            LteScenario::Walking => "LTE-walking",
            LteScenario::Driving => "LTE-driving",
        }
    }

    /// (mean Mbps, reversion rate 1/s, volatility Mbps/√s, fade probability per step)
    fn params(self) -> (f64, f64, f64, f64) {
        match self {
            LteScenario::Stationary => (24.0, 0.4, 3.0, 0.000),
            LteScenario::Walking => (18.0, 0.8, 6.0, 0.002),
            LteScenario::Driving => (14.0, 1.6, 10.0, 0.008),
        }
    }
}

/// Synthesize an LTE capacity trace: an OU process sampled at 100 ms,
/// clamped to `[0.5, 40]` Mbps, with occasional deep fades (a few hundred
/// ms near zero) for the mobile scenarios.
pub fn lte_trace(scenario: LteScenario, total: Duration, rng: &mut DetRng) -> CapacitySchedule {
    let (mean, theta, sigma, fade_p) = scenario.params();
    let dt = 0.1; // 100 ms sampling, like Mahimahi trace granularity
    let steps = (total.as_secs_f64() / dt).ceil() as usize + 1;
    let mut segments = Vec::with_capacity(steps);
    let mut x = mean;
    let mut fade_left = 0usize;
    for k in 0..steps {
        let t = Instant::ZERO + Duration::from_secs_f64(k as f64 * dt);
        if fade_left > 0 {
            fade_left -= 1;
            segments.push((t, Rate::from_mbps(0.5)));
            continue;
        }
        if rng.chance(fade_p) {
            fade_left = 2 + rng.uniform_u64(0, 4) as usize; // 200–500 ms fade
            segments.push((t, Rate::from_mbps(0.5)));
            continue;
        }
        x += theta * (mean - x) * dt + sigma * dt.sqrt() * rng.normal();
        x = x.clamp(0.5, 40.0);
        segments.push((t, Rate::from_mbps(x)));
    }
    CapacitySchedule::from_segments(segments)
}

/// The paper's Sec. 2 / Fig. 1 wired scenarios: constant capacity,
/// 30 ms minimum RTT, 150 KB buffer.
pub fn wired_link(mbps: f64) -> LinkConfig {
    LinkConfig::constant_with_buffer(
        Rate::from_mbps(mbps),
        Duration::from_millis(30),
        Bytes::from_kb(150),
    )
}

/// The paper's LTE scenarios: synthetic trace, 30 ms minimum RTT,
/// 150 KB buffer (matching Fig. 2b's setup).
pub fn lte_link(scenario: LteScenario, total: Duration, rng: &mut DetRng) -> LinkConfig {
    LinkConfig {
        capacity: lte_trace(scenario, total, rng),
        one_way_delay: Duration::from_millis(15),
        buffer: Bytes::from_kb(150),
        stochastic_loss: 0.0,
        ack_jitter: Duration::from_micros(500),
        loss_process: None,
        ecn: None,
        faults: FaultPlan::default(),
        queue: QueueConfig::Droptail,
    }
}

/// Fig. 2a's step scenario: capacity changes every 10 s, 80 ms minimum
/// RTT, 1 BDP buffer (sized for the mean rate).
pub fn step_link(total: Duration) -> LinkConfig {
    let rates = [
        Rate::from_mbps(20.0),
        Rate::from_mbps(5.0),
        Rate::from_mbps(15.0),
        Rate::from_mbps(10.0),
        Rate::from_mbps(25.0),
    ];
    let capacity = CapacitySchedule::step(&rates, Duration::from_secs(10), total);
    let mean = Rate::from_mbps(15.0);
    LinkConfig {
        capacity,
        one_way_delay: Duration::from_millis(40),
        buffer: Bytes::bdp(mean, Duration::from_millis(80)),
        stochastic_loss: 0.0,
        ack_jitter: Duration::ZERO,
        loss_process: None,
        ecn: None,
        faults: FaultPlan::default(),
        queue: QueueConfig::Droptail,
    }
}

/// WAN profile flavour for the live-Internet substitution (Fig. 16).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WanScenario {
    /// Long paths (e.g. Tokyo → US-East): 150–250 ms RTT, 1–3 % stochastic
    /// loss, jittery ACK path, shallow (policer-like) buffer.
    InterContinental,
    /// Short paths (e.g. Tokyo → Hong Kong): 30–60 ms RTT, light loss.
    IntraContinental,
}

impl WanScenario {
    /// Table label.
    pub fn label(self) -> &'static str {
        match self {
            WanScenario::InterContinental => "inter-continental",
            WanScenario::IntraContinental => "intra-continental",
        }
    }
}

/// Sample a WAN path: each draw is one emulated EC2 pair.
pub fn wan_link(scenario: WanScenario, total: Duration, rng: &mut DetRng) -> LinkConfig {
    match scenario {
        WanScenario::InterContinental => {
            let rtt_ms = rng.uniform_range(150.0, 250.0);
            let mean_mbps = rng.uniform_range(40.0, 80.0);
            let loss = rng.uniform_range(0.01, 0.03);
            let capacity = jittery_capacity(mean_mbps, 0.15, total, rng);
            LinkConfig {
                capacity,
                one_way_delay: Duration::from_secs_f64(rtt_ms / 2.0 / 1e3),
                // Shallow policer-style buffer: ~0.4 BDP.
                buffer: Bytes::new(
                    (Bytes::bdp(
                        Rate::from_mbps(mean_mbps),
                        Duration::from_secs_f64(rtt_ms / 1e3),
                    )
                    .get() as f64
                        * 0.4) as u64,
                ),
                stochastic_loss: loss,
                ack_jitter: Duration::from_millis(4),
                loss_process: None,
                ecn: None,
                faults: FaultPlan::default(),
                queue: QueueConfig::Droptail,
            }
        }
        WanScenario::IntraContinental => {
            let rtt_ms = rng.uniform_range(30.0, 60.0);
            let mean_mbps = rng.uniform_range(80.0, 120.0);
            let capacity = jittery_capacity(mean_mbps, 0.05, total, rng);
            LinkConfig {
                capacity,
                one_way_delay: Duration::from_secs_f64(rtt_ms / 2.0 / 1e3),
                buffer: Bytes::bdp(
                    Rate::from_mbps(mean_mbps),
                    Duration::from_secs_f64(rtt_ms / 1e3),
                ),
                stochastic_loss: 0.001,
                ack_jitter: Duration::from_millis(1),
                loss_process: None,
                ecn: None,
                faults: FaultPlan::default(),
                queue: QueueConfig::Droptail,
            }
        }
    }
}

/// Capacity that wobbles around a mean by ±`rel` (cross-traffic effect),
/// resampled every 500 ms.
fn jittery_capacity(
    mean_mbps: f64,
    rel: f64,
    total: Duration,
    rng: &mut DetRng,
) -> CapacitySchedule {
    let step = Duration::from_millis(500);
    let steps = (total.nanos() / step.nanos()) as usize + 1;
    let mut segments = Vec::with_capacity(steps);
    let mut t = Instant::ZERO;
    for _ in 0..steps {
        let f = 1.0 + rng.uniform_range(-rel, rel);
        segments.push((t, Rate::from_mbps(mean_mbps * f)));
        t += step;
    }
    CapacitySchedule::from_segments(segments)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lte_trace_in_bounds() {
        let mut rng = DetRng::new(1);
        let tr = lte_trace(LteScenario::Driving, Duration::from_secs(60), &mut rng);
        for &(_, r) in tr.segments() {
            assert!(r.mbps() >= 0.49 && r.mbps() <= 40.01, "{r}");
        }
        assert!(tr.segments().len() > 500);
    }

    #[test]
    fn lte_scenarios_differ_in_volatility() {
        let mut rng = DetRng::new(2);
        let total = Duration::from_secs(120);
        let measure = |s: LteScenario, rng: &mut DetRng| {
            let tr = lte_trace(s, total, rng);
            let rates: Vec<f64> = tr.segments().iter().map(|&(_, r)| r.mbps()).collect();
            let diffs: f64 = rates.windows(2).map(|w| (w[1] - w[0]).abs()).sum();
            diffs / rates.len() as f64
        };
        let st = measure(LteScenario::Stationary, &mut rng);
        let dr = measure(LteScenario::Driving, &mut rng);
        assert!(dr > 1.5 * st, "stationary {st}, driving {dr}");
    }

    #[test]
    fn lte_trace_deterministic() {
        let a = lte_trace(
            LteScenario::Walking,
            Duration::from_secs(10),
            &mut DetRng::new(9),
        );
        let b = lte_trace(
            LteScenario::Walking,
            Duration::from_secs(10),
            &mut DetRng::new(9),
        );
        assert_eq!(a.segments().len(), b.segments().len());
        for (x, y) in a.segments().iter().zip(b.segments()) {
            assert_eq!(x.0, y.0);
            assert_eq!(x.1, y.1);
        }
    }

    #[test]
    fn wired_link_matches_paper_setup() {
        let l = wired_link(48.0);
        assert_eq!(l.one_way_delay, Duration::from_millis(15));
        assert_eq!(l.buffer, Bytes::from_kb(150));
        assert_eq!(
            l.capacity.rate_at(Instant::from_secs(30)),
            Rate::from_mbps(48.0)
        );
    }

    #[test]
    fn step_link_capacity_changes_every_10s() {
        let l = step_link(Duration::from_secs(50));
        let r0 = l.capacity.rate_at(Instant::from_secs(5));
        let r1 = l.capacity.rate_at(Instant::from_secs(15));
        assert_ne!(r0, r1);
        assert_eq!(l.one_way_delay, Duration::from_millis(40));
    }

    #[test]
    fn wan_profiles_have_expected_shape() {
        let mut rng = DetRng::new(5);
        let inter = wan_link(
            WanScenario::InterContinental,
            Duration::from_secs(30),
            &mut rng,
        );
        let intra = wan_link(
            WanScenario::IntraContinental,
            Duration::from_secs(30),
            &mut rng,
        );
        assert!(inter.one_way_delay > intra.one_way_delay);
        assert!(inter.stochastic_loss > intra.stochastic_loss);
        let rtt_inter = inter.one_way_delay.as_millis_f64() * 2.0;
        assert!((150.0..=250.0).contains(&rtt_inter), "{rtt_inter}");
    }

    #[test]
    fn labels() {
        assert_eq!(LteScenario::Driving.label(), "LTE-driving");
        assert_eq!(WanScenario::InterContinental.label(), "inter-continental");
    }
}

/// GEO-satellite path (Sec. 7: "long RTT and high stochastic loss rate
/// in satellite networks"): ~600 ms RTT, 20 Mbps, bursty 2 % loss.
pub fn satellite_link(total: Duration, rng: &mut DetRng) -> LinkConfig {
    let capacity = {
        // Mild weather-driven wobble around 20 Mbps.
        let step = Duration::from_secs(2);
        let steps = (total.nanos() / step.nanos()) as usize + 1;
        let mut segments = Vec::with_capacity(steps);
        let mut t = Instant::ZERO;
        for _ in 0..steps {
            segments.push((
                t,
                Rate::from_mbps(20.0 * (1.0 + rng.uniform_range(-0.1, 0.1))),
            ));
            t += step;
        }
        CapacitySchedule::from_segments(segments)
    };
    LinkConfig {
        capacity,
        one_way_delay: Duration::from_millis(300),
        buffer: Bytes::bdp(Rate::from_mbps(20.0), Duration::from_millis(600)),
        stochastic_loss: 0.0,
        ack_jitter: Duration::from_millis(2),
        loss_process: Some(LossProcess::GilbertElliott(GilbertElliott::bursty(
            0.02, 15.0,
        ))),
        ecn: None,
        faults: FaultPlan::default(),
        queue: QueueConfig::Droptail,
    }
}

/// 5G mmWave-style path (Sec. 7: "abrupt fluctuation on available link
/// capacity in 5G scenarios"): capacity toggles between a high
/// line-of-sight mode and a much lower blocked mode.
pub fn fiveg_link(total: Duration, rng: &mut DetRng) -> LinkConfig {
    let mut segments = Vec::new();
    let mut t = Instant::ZERO;
    let mut blocked = false;
    while t.nanos() < total.nanos() {
        let rate = if blocked {
            Rate::from_mbps(rng.uniform_range(10.0, 30.0))
        } else {
            Rate::from_mbps(rng.uniform_range(150.0, 300.0))
        };
        segments.push((t, rate));
        // Dwell: LoS 1–4 s, blockage 0.2–1 s.
        let dwell = if blocked {
            rng.uniform_range(0.2, 1.0)
        } else {
            rng.uniform_range(1.0, 4.0)
        };
        t += Duration::from_secs_f64(dwell);
        blocked = !blocked;
    }
    LinkConfig {
        capacity: CapacitySchedule::from_segments(segments),
        one_way_delay: Duration::from_millis(10),
        buffer: Bytes::from_kb(750),
        stochastic_loss: 0.0,
        ack_jitter: Duration::from_micros(500),
        loss_process: None,
        ecn: None,
        faults: FaultPlan::default(),
        queue: QueueConfig::Droptail,
    }
}

/// LEO-constellation path (Starlink-style): low RTT for a satellite hop
/// (~25 ms one-way) but periodic **handover capacity cliffs** — every
/// `handover_period` the serving satellite changes, capacity collapses to
/// near zero for `outage`, then resumes at a freshly drawn level around
/// `mean_mbps`. Between handovers the rate wobbles mildly. The cliff
/// cadence is the defining hazard: a controller that has converged on the
/// pre-handover rate faces an instant, deep capacity drop.
pub fn leo_link(
    mean_mbps: f64,
    handover_period: Duration,
    outage: Duration,
    total: Duration,
    rng: &mut DetRng,
) -> LinkConfig {
    let mut segments = Vec::new();
    let mut t = Instant::ZERO;
    let wobble_step = Duration::from_millis(500);
    while t.nanos() < total.nanos() {
        // One serving-satellite dwell: a fresh beam capacity, mild wobble.
        let beam = mean_mbps * (1.0 + rng.uniform_range(-0.35, 0.35));
        let dwell_end = (t + handover_period).nanos().min(total.nanos());
        while t.nanos() < dwell_end {
            let f = 1.0 + rng.uniform_range(-0.08, 0.08);
            segments.push((t, Rate::from_mbps((beam * f).max(1.0))));
            t += wobble_step;
        }
        // Handover: the cliff — near-zero capacity for the outage window.
        t = Instant::from_nanos(dwell_end);
        if t.nanos() < total.nanos() && !outage.is_zero() {
            segments.push((t, Rate::from_mbps(0.1)));
            t += outage;
        }
    }
    LinkConfig {
        capacity: CapacitySchedule::from_segments(segments),
        one_way_delay: Duration::from_millis(25),
        buffer: Bytes::bdp(Rate::from_mbps(mean_mbps), Duration::from_millis(100)),
        stochastic_loss: 0.0,
        ack_jitter: Duration::from_millis(1),
        loss_process: None,
        ecn: None,
        faults: FaultPlan::default(),
        queue: QueueConfig::Droptail,
    }
}

/// Datacenter hop with DCTCP-style ECN step marking: 200 Mbps, 400 µs
/// RTT, marking threshold ≈ 20 packets (Sec. 7's ECN extension).
pub fn datacenter_link() -> LinkConfig {
    LinkConfig {
        capacity: CapacitySchedule::constant(Rate::from_mbps(200.0)),
        one_way_delay: Duration::from_micros(200),
        buffer: Bytes::new(150 * 1500), // deep switch buffer
        stochastic_loss: 0.0,
        ack_jitter: Duration::ZERO,
        loss_process: None,
        ecn: Some(EcnConfig {
            threshold: Bytes::new(20 * 1500),
        }),
        faults: FaultPlan::default(),
        queue: QueueConfig::Droptail,
    }
}

#[cfg(test)]
mod other_network_tests {
    use super::*;

    #[test]
    fn satellite_shape() {
        let mut rng = DetRng::new(1);
        let l = satellite_link(Duration::from_secs(30), &mut rng);
        assert_eq!(l.one_way_delay, Duration::from_millis(300));
        let lp = l.loss_process.as_ref().expect("bursty loss");
        assert!((lp.mean_loss() - 0.02).abs() < 1e-9);
    }

    #[test]
    fn fiveg_has_abrupt_swings() {
        let mut rng = DetRng::new(2);
        let l = fiveg_link(Duration::from_secs(30), &mut rng);
        let rates: Vec<f64> = (0..300)
            .map(|k| l.capacity.rate_at(Instant::from_millis(k * 100)).mbps())
            .collect();
        let hi = rates.iter().cloned().fold(f64::MIN, f64::max);
        let lo = rates.iter().cloned().fold(f64::MAX, f64::min);
        assert!(hi > 3.0 * lo, "hi {hi} lo {lo}");
    }

    #[test]
    fn leo_has_periodic_cliffs() {
        let mut rng = DetRng::new(3);
        let l = leo_link(
            40.0,
            Duration::from_secs(15),
            Duration::from_millis(300),
            Duration::from_secs(60),
            &mut rng,
        );
        // Cliffs land right after each 15 s handover boundary.
        let during = l
            .capacity
            .rate_at(Instant::from_millis(15_000 + 100))
            .mbps();
        assert!(during < 1.0, "handover outage missing: {during} Mbps");
        let after = l.capacity.rate_at(Instant::from_millis(16_000)).mbps();
        assert!(after > 5.0, "capacity never recovered: {after} Mbps");
        assert_eq!(l.one_way_delay, Duration::from_millis(25));
    }

    #[test]
    fn leo_is_deterministic() {
        let build = || {
            leo_link(
                40.0,
                Duration::from_secs(15),
                Duration::from_millis(300),
                Duration::from_secs(60),
                &mut DetRng::new(7),
            )
        };
        let (a, b) = (build(), build());
        assert_eq!(a.capacity.segments().len(), b.capacity.segments().len());
        for (x, y) in a.capacity.segments().iter().zip(b.capacity.segments()) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn datacenter_marks_ecn() {
        let l = datacenter_link();
        assert!(l.ecn.is_some());
        assert_eq!(l.one_way_delay, Duration::from_micros(200));
    }
}
