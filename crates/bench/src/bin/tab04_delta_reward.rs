//! Tab. 4 — `r` vs. `Δr` reward: the difference form improves latency
//! and loss at similar throughput, and helps (but does not fix)
//! fairness — the observation that motivates the combined framework.

use libra_bench::{BenchArgs, ScenarioSpec, Table};
use libra_learned::{
    tail_means, train_rl_cca, EnvRanges, RewardSource, RewardSpec, RlCca, RlCcaConfig, TrainConfig,
};
use libra_netsim::{FlowConfig, Simulation};
use libra_rl::PpoAgent;
use libra_types::Instant;
use std::cell::RefCell;
use std::rc::Rc;

fn main() {
    let args = BenchArgs::parse();
    let episodes = args.scaled(200, 16) as usize;
    let env = EnvRanges::fixed(100.0, 100.0, 1250);
    let mut table = Table::new(
        "Tab. 4: r vs Δr",
        &[
            "setting",
            "throughput (Mbps)",
            "latency (ms)",
            "loss rate",
            "fairness",
        ],
    );
    for (name, use_delta) in [("r", false), ("Δr", true)] {
        let cfg = RlCcaConfig {
            name: "tab4",
            reward: RewardSource::Normalized(RewardSpec {
                use_delta,
                ..RewardSpec::default()
            }),
            ..RlCcaConfig::libra_rl()
        };
        let r = train_rl_cca(&cfg, &TrainConfig::new(episodes, env.clone(), args.seed));
        let tail = tail_means(&r.curve);
        // Fairness: two trained flows share a 100 Mbps link.
        let until = Instant::from_secs(args.scaled(30, 8));
        let link = ScenarioSpec::shared_constant(100.0).link(args.seed);
        let mut sim = Simulation::new(link, args.seed);
        for _ in 0..2 {
            let mut rng = libra_types::DetRng::new(args.seed + 77);
            let mut agent = PpoAgent::from_weights(r.weights.clone(), &mut rng);
            agent.set_eval(true);
            let cca = RlCca::new(cfg.clone(), Rc::new(RefCell::new(agent)));
            sim.add_flow(FlowConfig::whole_run(Box::new(cca), until));
        }
        let rep = sim.run(until);
        table.row(vec![
            name.to_string(),
            format!("{:.1}", 100.0 * tail.utilization),
            format!("{:.0}", tail.rtt_ms),
            format!("{:.2}%", 100.0 * tail.loss),
            format!("{:.3}", rep.jain_index()),
        ]);
    }
    table.emit("tab04_delta_reward");
}
