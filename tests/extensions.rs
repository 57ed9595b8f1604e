//! Integration tests for the Sec. 7 extension substrates: ECN + DCTCP,
//! bursty loss, cross traffic, satellite and 5G scenarios.

use libra::classic::Dctcp;
use libra::core::{Libra, LibraParams};
use libra::netsim::{
    datacenter_link, fiveg_link, satellite_link, CbrSource, GilbertElliott, LossProcess,
    OnOffSource,
};
use libra::prelude::*;
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

#[test]
fn dctcp_keeps_datacenter_queue_at_threshold() {
    let rep = run(Box::new(Dctcp::new(1500)), datacenter_link(), 5, 1);
    let f = &rep.flows[0];
    assert!(f.ecn_echoes > 0, "ECN feedback must flow");
    assert!(rep.link.utilization > 0.7, "util {}", rep.link.utilization);
    // Mean RTT stays near propagation + threshold/rate:
    // 400 µs prop + 20 pkts × 60 µs ≈ 1.6 ms ≪ full-buffer (~9.4 ms).
    assert!(f.rtt_ms.mean() < 4.0, "rtt {} ms", f.rtt_ms.mean());
}

#[test]
fn cubic_bufferbloats_datacenter_where_dctcp_does_not() {
    let cubic = run(Box::new(Cubic::new(1500)), datacenter_link(), 5, 2);
    let dctcp = run(Box::new(Dctcp::new(1500)), datacenter_link(), 5, 2);
    assert!(
        dctcp.flows[0].rtt_ms.mean() < cubic.flows[0].rtt_ms.mean(),
        "dctcp {} vs cubic {}",
        dctcp.flows[0].rtt_ms.mean(),
        cubic.flows[0].rtt_ms.mean()
    );
}

#[test]
fn libra_over_dctcp_runs_in_datacenter() {
    let libra = Libra::with_classic(
        "D-Libra",
        Box::new(Dctcp::new(1500)),
        LibraParams::for_cubic(),
        agent(3),
    );
    let rep = run(Box::new(libra), datacenter_link(), 5, 3);
    assert!(rep.link.utilization > 0.5, "util {}", rep.link.utilization);
}

#[test]
fn satellite_path_is_survivable() {
    let mut rng = DetRng::new(4);
    let link = satellite_link(Duration::from_secs(40), &mut rng);
    for (seed, cca) in [
        (
            40u64,
            Box::new(Bbr::new(1500)) as Box<dyn CongestionControl>,
        ),
        (41, Box::new(Libra::b_libra(agent(41)))),
    ] {
        let rep = run(cca, link.clone(), 40, seed);
        assert!(rep.flows[0].delivered_bytes > 0);
        // RTT floor is 600 ms.
        assert!(rep.flows[0].rtt_ms.mean() >= 600.0);
    }
}

#[test]
fn westwood_beats_reno_on_satellite_bursty_loss() {
    let mut rng = DetRng::new(5);
    let link = satellite_link(Duration::from_secs(40), &mut rng);
    let ww = run(Box::new(Westwood::new(1500)), link.clone(), 40, 5);
    let rn = run(Box::new(NewReno::new(1500)), link, 40, 5);
    assert!(
        ww.link.utilization >= rn.link.utilization - 0.02,
        "westwood {} vs reno {}",
        ww.link.utilization,
        rn.link.utilization
    );
}

#[test]
fn fiveg_swings_do_not_break_libra() {
    let mut rng = DetRng::new(6);
    let link = fiveg_link(Duration::from_secs(20), &mut rng);
    let rep = run(Box::new(Libra::c_libra(agent(6))), link, 20, 6);
    assert!(rep.flows[0].delivered_bytes > 0);
    assert!(rep.link.utilization > 0.15, "util {}", rep.link.utilization);
}

#[test]
fn bursty_loss_process_hits_target_rate_in_sim() {
    let mut link = LinkConfig::constant(Rate::from_mbps(20.0), Duration::from_millis(40), 1.0);
    link.loss_process = Some(LossProcess::GilbertElliott(GilbertElliott::bursty(
        0.05, 15.0,
    )));
    // An aggressive fixed-window flow samples the loss process heavily.
    let rep = run(Box::new(Cubic::new(1500)), link, 30, 7);
    assert!(rep.link.stochastic_drops > 0);
}

#[test]
fn cross_traffic_squeezes_libra_but_it_recovers() {
    let link = LinkConfig::constant(Rate::from_mbps(24.0), Duration::from_millis(40), 1.0);
    let until = Instant::from_secs(30);
    let mut sim = Simulation::new(link, 8);
    sim.add_flow(FlowConfig::whole_run(
        Box::new(Libra::c_libra(agent(8))),
        until,
    ));
    // A CBR burst occupies 12 Mbps between 10 s and 20 s.
    sim.add_flow(FlowConfig::new(
        Box::new(CbrSource::new(Rate::from_mbps(12.0))),
        Instant::from_secs(10),
        Instant::from_secs(20),
    ));
    let rep = sim.run(until);
    let libra_flow = &rep.flows[0];
    let mean_in = |a: f64, b: f64| -> f64 {
        let pts: Vec<f64> = libra_flow
            .goodput_series
            .points()
            .filter(|&(t, _)| t >= a && t < b)
            .map(|(_, v)| v)
            .collect();
        pts.iter().sum::<f64>() / pts.len().max(1) as f64
    };
    let during = mean_in(12.0, 20.0);
    let after = mean_in(22.0, 30.0);
    assert!(during < 20.0, "must yield to cross traffic: {during}");
    assert!(after > during, "must recover after: {after} vs {during}");
}

#[test]
fn on_off_cross_traffic_is_periodic() {
    let link = LinkConfig::constant(Rate::from_mbps(30.0), Duration::from_millis(20), 1.0);
    let until = Instant::from_secs(12);
    let mut sim = Simulation::new(link, 9);
    sim.add_flow(FlowConfig::whole_run(
        Box::new(OnOffSource::new(
            Rate::from_mbps(8.0),
            Duration::from_secs(2),
            Duration::from_secs(2),
        )),
        until,
    ));
    let rep = sim.run(until);
    let g = rep.flows[0].avg_goodput.mbps();
    assert!((g - 4.0).abs() < 1.2, "duty-cycled goodput {g}");
}
