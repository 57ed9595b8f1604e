//! Wheel-vs-heap scheduler equivalence: the hierarchical timer wheel
//! must reproduce the binary heap's `(at, seq)` pop order *exactly*.
//!
//! The heap is the wheel's shadow oracle (see `libra_netsim::wheel`):
//! compiled in under `checked-invariants`, it mirrors every push and
//! asserts on every pop. This file is gated on that feature so it can
//! never pass without the oracle. The in-crate `wheel` unit tests replay
//! synthetic event streams; this integration test replays whole
//! simulations — multi-flow, AQM, jitter, stochastic loss, fault
//! injection (ACKs off the in-order lane), synchronized incast — with
//! every pop of every run checked against the heap.
#![cfg(feature = "checked-invariants")]

use libra_netsim::{FaultKind, FaultPlan, FlowConfig, LinkConfig, QueueConfig, Simulation};
use libra_types::{AckEvent, CongestionControl, Duration, Instant, LossEvent, Rate};

/// A minimal AIMD responder: enough dynamics to exercise loss recovery,
/// RTO scheduling, and pacer wakes without pulling in a CCA crate.
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

/// Run the scenario with the oracle asserting each pop; the scenario must
/// also have moved traffic, so the oracle saw a real event stream.
fn run_checked(name: &str, link: LinkConfig, flows: usize, secs: u64, seed: u64) {
    let until = Instant::from_secs(secs);
    let mut sim = Simulation::new(link, seed);
    for i in 0..flows {
        // Staggered starts so flow activations interleave with steady
        // traffic (distinct timer-wheel levels get exercised).
        let start = Instant::ZERO + Duration::from_millis(200 * i as u64);
        sim.add_flow(FlowConfig::new(
            Box::new(MiniAimd { cwnd: 10.0 }),
            start,
            until,
        ));
    }
    let report = sim.run(until);
    assert!(report.link.delivered_bytes > 0, "{name}: nothing delivered");
}

fn assert_equivalent(name: &str, link: impl Fn() -> LinkConfig, flows: usize, secs: u64) {
    for seed in [1u64, 42, 9001] {
        run_checked(name, link(), flows, secs, seed);
    }
}

#[test]
fn clean_droptail_runs_are_identical() {
    assert_equivalent(
        "droptail",
        || LinkConfig::constant(Rate::from_mbps(48.0), Duration::from_millis(40), 1.0),
        4,
        8,
    );
}

#[test]
fn codel_runs_are_identical() {
    assert_equivalent(
        "codel",
        || {
            LinkConfig::constant(Rate::from_mbps(24.0), Duration::from_millis(40), 4.0)
                .with_queue(QueueConfig::codel_default())
        },
        3,
        8,
    );
}

#[test]
fn jittered_lossy_runs_are_identical() {
    // ACK jitter sends every ACK to the slots; stochastic loss adds
    // retransmission timers. Wheel and shadow heap must agree through it.
    assert_equivalent(
        "jitter+loss",
        || {
            let mut link =
                LinkConfig::constant(Rate::from_mbps(24.0), Duration::from_millis(60), 1.0);
            link.ack_jitter = Duration::from_millis(2);
            link.stochastic_loss = 0.005;
            link
        },
        3,
        8,
    );
}

#[test]
fn faulted_runs_are_identical() {
    // Reordering + duplication + a flap: the densest event soup the
    // simulator produces (held-back ACKs, duplicate deliveries, dead
    // link windows) — every one of those ACKs scheduled in the slots.
    assert_equivalent(
        "faults",
        || {
            let faults = FaultPlan::default()
                .with(
                    Instant::from_secs(2),
                    Instant::from_secs(4),
                    FaultKind::Reorder {
                        probability: 0.1,
                        extra_delay: Duration::from_millis(8),
                    },
                )
                .with(
                    Instant::from_secs(3),
                    Instant::from_secs(5),
                    FaultKind::Duplicate { probability: 0.05 },
                )
                .with(
                    Instant::from_secs(6),
                    Instant::from_millis(6400),
                    FaultKind::LinkFlap,
                );
            LinkConfig::constant(Rate::from_mbps(36.0), Duration::from_millis(40), 1.0)
                .with_faults(faults)
        },
        4,
        8,
    );
}

#[test]
fn incast_fan_in_is_identical() {
    // 64 synchronized flows on a short-RTT link: deep event-queue
    // occupancy with heavy same-instant ties, the regime where a
    // tie-break bug between wheel and shadow heap would surface first.
    for seed in [7u64, 77] {
        let link = LinkConfig::constant(Rate::from_mbps(400.0), Duration::from_millis(4), 0.5);
        run_checked("incast", link, 64, 3, seed);
    }
}
