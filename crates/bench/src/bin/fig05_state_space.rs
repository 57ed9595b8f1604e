//! Fig. 5 — Reward curves (training episodes) for the state-space
//! designs of previous learning-based CCAs vs. Libra's (Sec. 4.2):
//! Aurora, RL-TCP, PCC, Remy, DRL-CC, Orca and Libra, trained in the
//! default environment (100 Mbps, 100 ms RTT, 1 BDP buffer).

use libra_bench::{series_csv, BenchArgs, Table};
use libra_learned::{
    config_for_state_space, tail_reward, train_rl_cca, EnvRanges, StateSpace, TrainConfig,
};

fn main() {
    let args = BenchArgs::parse();
    let episodes = args.scaled(240, 20) as usize;
    // The paper's Sec. 4.2 default environment.
    let env = EnvRanges::fixed(100.0, 100.0, 1250);
    let designs: Vec<(&'static str, StateSpace)> = vec![
        ("Aurora", StateSpace::aurora()),
        ("RL-TCP", StateSpace::rl_tcp()),
        ("PCC", StateSpace::pcc()),
        ("Remy", StateSpace::remy()),
        ("DRL-CC", StateSpace::drl_cc()),
        ("Orca", StateSpace::orca()),
        ("Libra", StateSpace::libra()),
    ];
    let mut table = Table::new(
        "Fig. 5: tail reward by state-space design (higher is better)",
        &["state space", "features", "tail reward"],
    );
    let mut series = Vec::new();
    let mut results: Vec<(&str, f64)> = Vec::new();
    for (name, state) in designs {
        let labels: Vec<&str> = state.features.iter().map(|f| f.label()).collect();
        let cfg = config_for_state_space(name, state.clone());
        let r = train_rl_cca(&cfg, &TrainConfig::new(episodes, env.clone(), args.seed));
        let tail = tail_reward(&r.curve);
        table.row(vec![
            name.to_string(),
            labels.join(""),
            format!("{tail:.2}"),
        ]);
        results.push((name, tail));
        // Smoothed reward curve (window of 8) for plotting.
        let pts: Vec<(f64, f64)> = r
            .curve
            .windows(8.min(r.curve.len().max(1)))
            .enumerate()
            .map(|(i, w)| {
                (
                    i as f64,
                    w.iter().map(|e| e.reward).sum::<f64>() / w.len() as f64,
                )
            })
            .collect();
        series.push((name.to_string(), pts));
    }
    table.emit("fig05_state_space");
    libra_bench::write_artifact("fig05_curves.csv", &series_csv(&series));
    let libra = results
        .iter()
        .find(|(n, _)| *n == "Libra")
        .expect("libra ran")
        .1;
    let best_other = results
        .iter()
        .filter(|(n, _)| *n != "Libra")
        .map(|(_, t)| *t)
        .fold(f64::NEG_INFINITY, f64::max);
    println!("Libra tail reward {libra:.2} vs best prior design {best_other:.2}");
}
