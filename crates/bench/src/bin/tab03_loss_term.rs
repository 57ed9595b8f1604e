//! Tab. 3 — Reward-function ablation: with vs. without the loss-rate
//! term. Without it the agent keeps pushing into a full queue (the
//! paper measures 37.5 % loss and ~2× latency).

use libra_bench::{BenchArgs, Table};
use libra_learned::{
    tail_means, train_rl_cca, EnvRanges, RewardSource, RewardSpec, RlCcaConfig, TrainConfig,
};

fn main() {
    let args = BenchArgs::parse();
    let episodes = args.scaled(200, 16) as usize;
    let env = EnvRanges::fixed(100.0, 100.0, 1250);
    let variants = [("with loss rate", true), ("w/o loss rate", false)];
    let mut table = Table::new(
        "Tab. 3: loss term in the reward",
        &["setting", "throughput (Mbps)", "latency (ms)", "loss rate"],
    );
    for (name, include_loss) in variants {
        let cfg = RlCcaConfig {
            name: "tab3",
            reward: RewardSource::Normalized(RewardSpec {
                include_loss,
                ..RewardSpec::default()
            }),
            ..RlCcaConfig::libra_rl()
        };
        let r = train_rl_cca(&cfg, &TrainConfig::new(episodes, env.clone(), args.seed));
        let tail = tail_means(&r.curve);
        table.row(vec![
            name.to_string(),
            format!("{:.1}", 100.0 * tail.utilization),
            format!("{:.0}", tail.rtt_ms),
            format!("{:.2}%", 100.0 * tail.loss),
        ]);
    }
    table.emit("tab03_loss_term");
}
