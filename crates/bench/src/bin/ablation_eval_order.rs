//! Ablation for the Fig. 4 design claim: evaluating the *lower* candidate
//! rate first avoids the self-inflicted side effect (queue built by the
//! higher rate poisoning the second measurement). Runs C-Libra with both
//! orders over wired and LTE scenarios.

use libra_bench::{fig1_specs, BenchArgs, ModelStore, Table};
use libra_core::{EvalOrder, LibraParams, LibraVariant};
use libra_netsim::{FlowConfig, Simulation};
use libra_rl::PpoAgent;
use libra_types::Instant;
use std::cell::RefCell;
use std::rc::Rc;

fn main() {
    let args = BenchArgs::parse();
    let secs = args.scaled(30, 8);
    let trials = args.scaled(3, 1);
    let store = ModelStore::new(args.seed);
    let mut table = Table::new(
        "Ablation: evaluation order (Sec. 4.1, Fig. 4)",
        &["scenario", "order", "utilization", "avg delay (ms)", "loss"],
    );
    for scenario in fig1_specs(secs) {
        for (label, order) in [
            ("lower-first", EvalOrder::LowerFirst),
            ("higher-first", EvalOrder::HigherFirst),
        ] {
            let (mut u, mut d, mut l) = (0.0, 0.0, 0.0);
            for k in 0..trials {
                let weights = store.libra(LibraVariant::Cubic);
                let mut agent = PpoAgent::from_weights(weights, &mut store.agent_rng());
                agent.set_eval(true);
                let params = LibraParams {
                    eval_order: order,
                    ..LibraParams::for_cubic()
                };
                let libra =
                    LibraVariant::Cubic.build_with_params(params, Rc::new(RefCell::new(agent)));
                let until = Instant::from_secs(secs);
                let mut sim = Simulation::new(scenario.link(args.seed + k), args.seed + k);
                sim.add_flow(FlowConfig::whole_run(Box::new(libra), until));
                let rep = sim.run(until);
                u += rep.link.utilization;
                d += rep.flows[0].rtt_ms.mean();
                l += rep.flows[0].loss_fraction;
            }
            let n = trials as f64;
            table.row(vec![
                scenario.name.clone(),
                label.to_string(),
                format!("{:.3}", u / n),
                format!("{:.1}", d / n),
                format!("{:.4}", l / n),
            ]);
        }
    }
    table.emit("ablation_eval_order");
}
