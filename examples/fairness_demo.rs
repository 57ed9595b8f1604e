//! Fairness and convergence demo (the Fig. 15 workload): three flows of
//! the same CCA join a 48 Mbps bottleneck 5 seconds apart; the demo
//! prints each flow's share over time and the final Jain index.
//!
//! ```sh
//! cargo run --release --example fairness_demo
//! ```

use libra::prelude::*;
use libra::types::jain_index;
use std::{cell::RefCell, rc::Rc};

fn agent(seed: u64) -> Rc<RefCell<PpoAgent>> {
    let mut rng = DetRng::new(seed);
    let mut a = PpoAgent::new(Libra::ppo_config(), &mut rng);
    a.set_eval(true);
    Rc::new(RefCell::new(a))
}

fn main() {
    let secs = 40;
    let until = Instant::from_secs(secs);
    let link = LinkConfig::constant(Rate::from_mbps(48.0), Duration::from_millis(100), 1.0);
    let mut sim = Simulation::new(link, 9);
    for i in 0..3u64 {
        let cca = Libra::c_libra(agent(100 + i));
        sim.add_flow(FlowConfig::new(
            Box::new(cca),
            Instant::from_secs(i * 5),
            until,
        ));
    }
    let report = sim.run(until);

    println!("=== three C-Libra flows, staggered entries (48 Mbps) ===");
    println!(
        "{:>5}  {:>8}  {:>8}  {:>8}",
        "t(s)", "flow1", "flow2", "flow3"
    );
    // Print 2-second snapshots of each flow's goodput.
    let value_at = |flow: usize, t: f64| -> f64 {
        report.flows[flow]
            .goodput_series
            .points()
            .filter(|&(ts, _)| (ts - t).abs() < 1.0)
            .map(|(_, v)| v)
            .sum::<f64>()
            / 10.0
    };
    let mut t = 2.0;
    while t < secs as f64 {
        println!(
            "{t:>5.0}  {:>8.2}  {:>8.2}  {:>8.2}",
            value_at(0, t),
            value_at(1, t),
            value_at(2, t)
        );
        t += 4.0;
    }
    // Fairness over the window where all three are active.
    let shares: Vec<f64> = report
        .flows
        .iter()
        .map(|f| {
            f.goodput_series
                .points()
                .filter(|&(ts, _)| ts > 12.0)
                .map(|(_, v)| v)
                .sum::<f64>()
        })
        .collect();
    println!(
        "\nJain fairness index (t > 12 s): {:.3}",
        jain_index(&shares)
    );
    println!("(1.000 = perfectly fair; the paper reports ≈0.99 for Libra)");
}
