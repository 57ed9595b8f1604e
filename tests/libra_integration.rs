//! End-to-end tests of the Libra framework itself: the full controller
//! over the simulator, across trace families and configurations.

use libra::core::Libra;
use libra::prelude::*;
use libra::types::CandidateKind;
use std::{cell::RefCell, rc::Rc};

fn agent(seed: u64) -> Rc<RefCell<PpoAgent>> {
    let mut rng = DetRng::new(seed);
    let mut a = PpoAgent::new(Libra::ppo_config(), &mut rng);
    a.set_eval(true);
    Rc::new(RefCell::new(a))
}

fn run(cca: Box<dyn CongestionControl>, link: LinkConfig, secs: u64, seed: u64) -> SimReport {
    let until = Instant::from_secs(secs);
    let mut sim = Simulation::new(link, seed);
    sim.add_flow(FlowConfig::whole_run(cca, until));
    sim.run(until)
}

fn wired(mbps: f64) -> LinkConfig {
    LinkConfig::constant(Rate::from_mbps(mbps), Duration::from_millis(40), 1.0)
}

#[test]
fn c_libra_fills_wired_link() {
    let rep = run(Box::new(Libra::c_libra(agent(1))), wired(24.0), 25, 1);
    assert!(rep.link.utilization > 0.7, "util {}", rep.link.utilization);
}

#[test]
fn b_libra_fills_wired_link() {
    let rep = run(Box::new(Libra::b_libra(agent(2))), wired(24.0), 25, 2);
    assert!(rep.link.utilization > 0.7, "util {}", rep.link.utilization);
}

#[test]
fn libra_survives_lte_variability() {
    let secs = 25;
    let mut rng = DetRng::new(3);
    let link = lte_link(LteScenario::Driving, Duration::from_secs(secs), &mut rng);
    let rep = run(Box::new(Libra::c_libra(agent(3))), link, secs, 3);
    assert!(rep.link.utilization > 0.4, "util {}", rep.link.utilization);
    assert!(rep.flows[0].rtt_ms.mean() < 400.0);
}

#[test]
fn cycle_log_records_decisions() {
    let rep = run(Box::new(Libra::c_libra(agent(4))), wired(24.0), 25, 4);
    let libra = rep.flows[0]
        .cca
        .as_any()
        .and_then(|a| a.downcast_ref::<Libra>())
        .expect("downcast");
    assert!(libra.cycles() > 10, "cycles {}", libra.cycles());
    let (p, r, c) = libra.log().fractions();
    assert!((p + r + c - 1.0).abs() < 1e-9, "fractions sum to 1");
    // Every record's winner has the max measured utility.
    for rec in libra.log().records() {
        // `u_prev` is `None` when the exploit stage got no feedback;
        // any measured candidate then beats it.
        let mut best = rec.u_prev.unwrap_or(f64::NEG_INFINITY);
        let mut who = CandidateKind::Prev;
        if let Some(u) = rec.u_classic {
            if u > best {
                best = u;
                who = CandidateKind::Classic;
            }
        }
        if let Some(u) = rec.u_learned {
            if u > best {
                who = CandidateKind::Learned;
            }
        }
        assert_eq!(rec.winner, who, "winner is argmax in {rec:?}");
    }
}

#[test]
fn latency_profile_reduces_delay_vs_throughput_profile() {
    let la = run(
        Box::new(Libra::c_libra(agent(5)).with_preference(Preference::Latency2)),
        wired(48.0),
        25,
        5,
    );
    let th = run(
        Box::new(Libra::c_libra(agent(5)).with_preference(Preference::Throughput2)),
        wired(48.0),
        25,
        5,
    );
    assert!(
        la.flows[0].rtt_ms.mean() <= th.flows[0].rtt_ms.mean() + 1.0,
        "La-2 {} ms vs Th-2 {} ms",
        la.flows[0].rtt_ms.mean(),
        th.flows[0].rtt_ms.mean()
    );
}

#[test]
fn libra_cheaper_than_pure_rl_per_simulated_second() {
    let libra = run(Box::new(Libra::c_libra(agent(6))), wired(48.0), 20, 6);
    let mut rng = DetRng::new(6);
    let mut a = PpoAgent::new(RlCcaConfig::libra_rl().ppo_config(), &mut rng);
    a.set_eval(true);
    let pure = RlCca::new(RlCcaConfig::libra_rl(), Rc::new(RefCell::new(a)));
    let pure_rep = run(Box::new(pure), wired(48.0), 20, 6);
    // Libra runs inference only in exploration (≈ half the MIs at k=1);
    // give slack for framework bookkeeping.
    let l = libra.flows[0].compute_ns as f64;
    let p = pure_rep.flows[0].compute_ns as f64;
    assert!(l < p, "libra {l} ns vs pure RL {p} ns");
}

#[test]
fn clean_slate_converges_but_underperforms_combined() {
    let cl = run(Box::new(Libra::clean_slate(agent(7))), wired(24.0), 25, 7);
    let cb = run(Box::new(Libra::c_libra(agent(7))), wired(24.0), 25, 7);
    assert!(cl.flows[0].delivered_bytes > 0);
    assert!(
        cb.link.utilization >= cl.link.utilization - 0.05,
        "combined {} vs clean-slate {}",
        cb.link.utilization,
        cl.link.utilization
    );
}

#[test]
fn two_libra_flows_share_fairly() {
    let until = Instant::from_secs(40);
    let mut sim = Simulation::new(wired(48.0), 8);
    sim.add_flow(FlowConfig::whole_run(
        Box::new(Libra::c_libra(agent(881))),
        until,
    ));
    sim.add_flow(FlowConfig::whole_run(
        Box::new(Libra::c_libra(agent(882))),
        until,
    ));
    let rep = sim.run(until);
    assert!(rep.jain_index() > 0.85, "jain {}", rep.jain_index());
}

#[test]
fn libra_does_not_starve_cubic() {
    let until = Instant::from_secs(40);
    let mut sim = Simulation::new(wired(48.0), 9);
    sim.add_flow(FlowConfig::whole_run(
        Box::new(Libra::c_libra(agent(9))),
        until,
    ));
    sim.add_flow(FlowConfig::whole_run(Box::new(Cubic::new(1500)), until));
    let rep = sim.run(until);
    let cubic_share = rep.flows[1].avg_goodput.mbps()
        / (rep.flows[0].avg_goodput.mbps() + rep.flows[1].avg_goodput.mbps());
    assert!(cubic_share > 0.2, "cubic got {cubic_share}");
}

#[test]
fn stochastic_loss_resilience_vs_plain_cubic() {
    let lossy = || {
        let mut link = wired(24.0);
        link.stochastic_loss = 0.05;
        link
    };
    let libra = run(Box::new(Libra::c_libra(agent(10))), lossy(), 25, 10);
    let cubic = run(Box::new(Cubic::new(1500)), lossy(), 25, 10);
    assert!(
        libra.link.utilization > cubic.link.utilization,
        "libra {} vs cubic {}",
        libra.link.utilization,
        cubic.link.utilization
    );
}

#[test]
fn step_scenario_tracks_capacity_changes() {
    let secs = 30;
    let link = step_link(Duration::from_secs(secs));
    let rep = run(Box::new(Libra::c_libra(agent(11))), link, secs, 11);
    assert!(rep.link.utilization > 0.55, "util {}", rep.link.utilization);
}

#[test]
fn trained_in_framework_weights_restore() {
    // Tiny training run, then reuse the weights in eval mode.
    let cfg = libra::core::quick_train_config(12);
    let small = libra::learned::TrainConfig {
        episodes: 4,
        episode_secs: 3,
        ..cfg
    };
    let result = libra::core::train_libra(libra::core::LibraVariant::Cubic, &small);
    let mut rng = DetRng::new(12);
    let mut restored = PpoAgent::from_weights(result.weights, &mut rng);
    restored.set_eval(true);
    let libra = Libra::c_libra(Rc::new(RefCell::new(restored)));
    let rep = run(Box::new(libra), wired(24.0), 10, 12);
    assert!(rep.flows[0].delivered_bytes > 0);
}
