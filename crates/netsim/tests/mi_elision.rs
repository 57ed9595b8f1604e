//! Two transformations that must be unobservable, checked by one
//! harness over one scenario table: each twin run must produce
//! byte-for-byte the report of the bare run.
//!
//! **MI-clock elision.** A classic controller (whose `mi_duration` is
//! `Duration::MAX`, so the simulator schedules it no MI ticks and feeds
//! no `MiTracker`) must match itself wrapped in [`ForceMi`], which
//! answers `srtt` and so keeps the full tick → close → `on_mi` → pump
//! machinery running. The argument (DESIGN.md, "Scale-out event core"):
//! window, pacing rate and next-send time change only inside events that
//! already end in a pump, so a tick's pump has nothing to send, and
//! deleting ticks renumbers event sequence numbers without reordering
//! any surviving pair. The one theoretical exception — a tick landing on
//! the exact nanosecond of the same flow's pending pacer wake with
//! another flow's event sequenced between them — is what the tie-dense
//! synchronized incast below hunts for.
//!
//! **Inert fault plans.** A plan whose windows never open — zero-width
//! windows of every [`FaultKind`], or windows past the horizon — must
//! match no plan at all. A non-empty plan moves every ACK off the
//! in-order ACK lane onto the wheel's slots, so this also checks that
//! the two routes dispatch ACKs in the same order.

use libra_classic::{Bbr, Cubic, NewReno, Vegas};
use libra_netsim::{
    FaultKind, FaultPlan, FlowConfig, GilbertElliott, LinkConfig, QueueConfig, SimConfig,
    SimReport, Simulation,
};
use libra_types::{
    AckEvent, CongestionControl, Duration, Instant, LossEvent, MiStats, Rate, SendEvent,
    TraceEvent, Tracer,
};
use std::fmt::Write as _;

/// Forwards all sixteen trait methods to the wrapped controller, except
/// that it claims the trait-default one-sRTT monitor interval.
struct ForceMi<C>(C);

impl<C: CongestionControl + 'static> CongestionControl for ForceMi<C> {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn on_send(&mut self, ev: &SendEvent) {
        self.0.on_send(ev);
    }
    fn on_ack(&mut self, ev: &AckEvent) {
        self.0.on_ack(ev);
    }
    fn on_loss(&mut self, ev: &LossEvent) {
        self.0.on_loss(ev);
    }
    fn on_ecn(&mut self, ev: &AckEvent) {
        self.0.on_ecn(ev);
    }
    fn on_mi(&mut self, stats: &MiStats) {
        self.0.on_mi(stats);
    }
    fn mi_submit(&mut self, stats: &MiStats, policy_state: &mut Vec<f64>) -> bool {
        self.0.mi_submit(stats, policy_state)
    }
    fn mi_resolve(&mut self, stats: &MiStats, action: &[f64]) {
        self.0.mi_resolve(stats, action);
    }
    fn mi_duration(&self, srtt: Duration) -> Duration {
        srtt
    }
    fn cwnd_bytes(&self) -> u64 {
        self.0.cwnd_bytes()
    }
    fn pacing_rate(&self) -> Option<Rate> {
        self.0.pacing_rate()
    }
    fn rate_estimate(&self, srtt: Duration) -> Rate {
        self.0.rate_estimate(srtt)
    }
    fn set_rate(&mut self, rate: Rate, srtt: Duration) {
        self.0.set_rate(rate, srtt);
    }
    fn in_startup(&self) -> bool {
        self.0.in_startup()
    }
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        self.0.as_any()
    }
    fn attach_tracer(&mut self, tracer: Tracer) {
        self.0.attach_tracer(tracer);
    }
}

#[derive(Clone, Copy, Debug)]
enum Classic {
    Cubic,
    Bbr,
    NewReno,
    Vegas,
}

const CLASSICS: [Classic; 4] = [
    Classic::Cubic,
    Classic::Bbr,
    Classic::NewReno,
    Classic::Vegas,
];

impl Classic {
    fn build(self, force_mi: bool) -> Box<dyn CongestionControl> {
        fn wrap<C: CongestionControl + 'static>(c: C, force: bool) -> Box<dyn CongestionControl> {
            if force {
                Box::new(ForceMi(c))
            } else {
                Box::new(c)
            }
        }
        match self {
            Classic::Cubic => wrap(Cubic::new(1500), force_mi),
            Classic::Bbr => wrap(Bbr::new(1500), force_mi),
            Classic::NewReno => wrap(NewReno::new(1500), force_mi),
            Classic::Vegas => wrap(Vegas::new(1500), force_mi),
        }
    }
}

/// Byte-exact fingerprint of a report: integers in decimal, floats as
/// IEEE bit patterns.
fn fingerprint(report: &SimReport) -> String {
    let mut s = String::new();
    for f in &report.flows {
        let _ = write!(
            s,
            "flow[{} sent={} delivered={} acked={} lost={} goodput={:016x} \
             loss_frac={:016x} p95={:016x} ecn={} rtt_n={} rtt_mean={:016x}",
            f.id.0,
            f.sent_bytes,
            f.delivered_bytes,
            f.acked_packets,
            f.lost_packets,
            f.avg_goodput.mbps().to_bits(),
            f.loss_fraction.to_bits(),
            f.rtt_p95_ms.to_bits(),
            f.ecn_echoes,
            f.rtt_ms.count(),
            f.rtt_ms.mean().to_bits(),
        );
        for (t, v) in f.goodput_series.points().chain(f.rtt_series.points()) {
            let _ = write!(s, " {:016x}:{:016x}", t.to_bits(), v.to_bits());
        }
        s.push_str("];");
    }
    let l = &report.link;
    let _ = write!(
        s,
        "link[util={:016x} meanq={:016x} tail={} stoch={} admitted={} dropped={} \
         dequeued={} aqm={} residual={}]",
        l.utilization.to_bits(),
        l.mean_queue_bytes.to_bits(),
        l.tail_drops,
        l.stochastic_drops,
        l.queue_admitted_bytes,
        l.queue_dropped_bytes,
        l.queue_dequeued_bytes,
        l.queue_aqm_dropped_bytes,
        l.queue_residual_bytes,
    );
    s
}

/// The run a bare run is compared against.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Twin {
    /// The bare run itself.
    Bare,
    /// Every controller wrapped in [`ForceMi`].
    ForcedMi,
    /// The link's plan plus a zero-width window of every [`FaultKind`].
    ZeroWidthPlan,
    /// The link's plan plus a window of every [`FaultKind`] past `until`.
    LatePlan,
}

const TWINS: [Twin; 3] = [Twin::ForcedMi, Twin::ZeroWidthPlan, Twin::LatePlan];

/// One fault of every kind, each certain to act on any ACK it sees.
fn every_fault_kind() -> [FaultKind; 6] {
    [
        FaultKind::LinkFlap,
        FaultKind::Reorder {
            probability: 1.0,
            extra_delay: Duration::from_millis(5),
        },
        FaultKind::Duplicate { probability: 1.0 },
        FaultKind::AckCompression {
            flush_every: Duration::from_millis(4),
        },
        FaultKind::DelaySpike {
            extra: Duration::from_millis(20),
        },
        FaultKind::BurstLoss(GilbertElliott::new(1.0, 0.0, 1.0, 1.0)),
    ]
}

/// Extend `plan` with windows that never open before `until`.
fn add_inert_windows(plan: &mut FaultPlan, twin: Twin, until: Instant) {
    for (i, kind) in every_fault_kind().into_iter().enumerate() {
        let (from, to) = match twin {
            // Spread through the run, so each sits among live traffic.
            Twin::ZeroWidthPlan => {
                let at = Instant::from_nanos(until.nanos() / 7 * (i as u64 + 1));
                (at, at)
            }
            // A flap acts through the capacity schedule, which the run
            // only integrates up to `until`, so it may start there. The
            // other kinds act on packets leaving service, and a service
            // completion at exactly `until` still dispatches.
            Twin::LatePlan => {
                let from = match kind {
                    FaultKind::LinkFlap => until,
                    _ => until + Duration::from_nanos(1),
                };
                (from, until + Duration::from_secs(1))
            }
            Twin::Bare | Twin::ForcedMi => return,
        };
        plan.push(from, to, kind);
    }
}

/// One scenario: `flows` controllers of one kind, starts `stagger` apart.
struct Scenario {
    name: &'static str,
    link: fn() -> LinkConfig,
    flows: usize,
    stagger: Duration,
    secs: u64,
}

impl Scenario {
    fn run(&self, classic: Classic, twin: Twin, seed: u64, cfg: SimConfig) -> SimReport {
        let until = Instant::from_secs(self.secs);
        let mut link = (self.link)();
        add_inert_windows(&mut link.faults, twin, until);
        let mut sim = Simulation::with_config(link, seed, cfg);
        for i in 0..self.flows {
            sim.add_flow(FlowConfig::new(
                classic.build(twin == Twin::ForcedMi),
                Instant::ZERO + self.stagger * i as u64,
                until,
            ));
        }
        sim.run(until)
    }

    /// Bare ≡ every twin for every classic × seed (under
    /// `checked-invariants` each run also checks every pop against the
    /// wheel's reference heap).
    fn assert_twins_match(&self) {
        for classic in CLASSICS {
            for seed in [1u64, 42, 9001] {
                let bare = fingerprint(&self.run(classic, Twin::Bare, seed, SimConfig::default()));
                for twin in TWINS {
                    let got = fingerprint(&self.run(classic, twin, seed, SimConfig::default()));
                    assert_eq!(
                        bare, got,
                        "{}: {classic:?} diverged from its {twin:?} twin at seed {seed}",
                        self.name
                    );
                }
            }
        }
    }
}

const STAGGERED: Duration = Duration::from_millis(200);

#[test]
fn clean_droptail() {
    Scenario {
        name: "droptail",
        link: || LinkConfig::constant(Rate::from_mbps(48.0), Duration::from_millis(40), 1.0),
        flows: 4,
        stagger: STAGGERED,
        secs: 6,
    }
    .assert_twins_match();
}

#[test]
fn codel() {
    Scenario {
        name: "codel",
        link: || {
            LinkConfig::constant(Rate::from_mbps(24.0), Duration::from_millis(40), 4.0)
                .with_queue(QueueConfig::codel_default())
        },
        flows: 3,
        stagger: STAGGERED,
        secs: 6,
    }
    .assert_twins_match();
}

#[test]
fn jittered_lossy() {
    Scenario {
        name: "jitter+loss",
        link: || {
            let mut link =
                LinkConfig::constant(Rate::from_mbps(24.0), Duration::from_millis(60), 1.0);
            link.ack_jitter = Duration::from_millis(2);
            link.stochastic_loss = 0.005;
            link
        },
        flows: 3,
        stagger: STAGGERED,
        secs: 6,
    }
    .assert_twins_match();
}

#[test]
fn faulted() {
    Scenario {
        name: "faults",
        link: || {
            let faults = FaultPlan::default()
                .with(
                    Instant::from_secs(1),
                    Instant::from_secs(3),
                    FaultKind::Reorder {
                        probability: 0.1,
                        extra_delay: Duration::from_millis(8),
                    },
                )
                .with(
                    Instant::from_secs(2),
                    Instant::from_secs(4),
                    FaultKind::Duplicate { probability: 0.05 },
                )
                .with(
                    Instant::from_millis(4500),
                    Instant::from_millis(4900),
                    FaultKind::LinkFlap,
                );
            LinkConfig::constant(Rate::from_mbps(36.0), Duration::from_millis(40), 1.0)
                .with_faults(faults)
        },
        flows: 4,
        stagger: STAGGERED,
        secs: 6,
    }
    .assert_twins_match();
}

#[test]
fn synchronized_incast_256() {
    // Every flow starts at t = 0 on a 2 ms path: forced MI ticks, pacer
    // wakes and ACKs of different flows pile onto the same instants.
    Scenario {
        name: "incast",
        link: || LinkConfig::constant(Rate::from_mbps(400.0), Duration::from_millis(2), 4.0),
        flows: 256,
        stagger: Duration::ZERO,
        secs: 1,
    }
    .assert_twins_match();
}

#[test]
fn bare_classics_close_no_monitor_intervals() {
    let scenario = Scenario {
        name: "traced",
        link: || LinkConfig::constant(Rate::from_mbps(24.0), Duration::from_millis(40), 1.0),
        flows: 1,
        stagger: Duration::ZERO,
        secs: 4,
    };
    let mi_closes = |report: &SimReport| {
        report.flows[0]
            .trace
            .iter()
            .filter(|e| matches!(e, TraceEvent::MiClose { .. }))
            .count()
    };
    for classic in CLASSICS {
        let bare = scenario.run(classic, Twin::Bare, 3, SimConfig::traced());
        let forced = scenario.run(classic, Twin::ForcedMi, 3, SimConfig::traced());
        assert_eq!(mi_closes(&bare), 0, "{classic:?} closed an MI");
        assert!(
            mi_closes(&forced) > 10,
            "{classic:?}: ForceMi ran no MI clock"
        );
        assert_eq!(fingerprint(&bare), fingerprint(&forced));
    }
}
