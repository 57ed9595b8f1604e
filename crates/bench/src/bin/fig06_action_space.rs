//! Fig. 6 — Reward curves for AIAD vs. MIMD action spaces at scale
//! factors 1, 5 and 10 (Sec. 4.2): MIMD learns faster and converges;
//! small-scale AIAD lags.

use libra_bench::{series_csv, BenchArgs, Table};
use libra_learned::{tail_reward, train_rl_cca, ActionSpace, EnvRanges, RlCcaConfig, TrainConfig};

fn main() {
    let args = BenchArgs::parse();
    let episodes = args.scaled(240, 20) as usize;
    let env = EnvRanges::fixed(100.0, 100.0, 1250);
    let designs: Vec<(&'static str, ActionSpace)> = vec![
        ("AIAD scale=1", ActionSpace::Aiad { scale: 1.0 }),
        ("AIAD scale=5", ActionSpace::Aiad { scale: 5.0 }),
        ("AIAD scale=10", ActionSpace::Aiad { scale: 10.0 }),
        ("MIMD scale=1", ActionSpace::MimdAurora { scale: 1.0 }),
        ("MIMD scale=5", ActionSpace::MimdAurora { scale: 5.0 }),
        ("MIMD scale=10", ActionSpace::MimdAurora { scale: 10.0 }),
    ];
    let mut table = Table::new(
        "Fig. 6: tail reward by action-space design",
        &["action space", "tail reward", "half-curve reward"],
    );
    let mut series = Vec::new();
    for (name, action) in designs {
        let cfg = RlCcaConfig {
            name: "fig6",
            action,
            ..RlCcaConfig::libra_rl()
        };
        let r = train_rl_cca(&cfg, &TrainConfig::new(episodes, env.clone(), args.seed));
        // Early-learning indicator: mean reward of the first half.
        let half = &r.curve[..r.curve.len() / 2];
        let half_mean = if half.is_empty() {
            0.0
        } else {
            half.iter().map(|e| e.reward).sum::<f64>() / half.len() as f64
        };
        table.row(vec![
            name.to_string(),
            format!("{:.2}", tail_reward(&r.curve)),
            format!("{half_mean:.2}"),
        ]);
        let pts: Vec<(f64, f64)> = r
            .curve
            .iter()
            .map(|e| (e.episode as f64, e.reward))
            .collect();
        series.push((name.to_string(), pts));
    }
    table.emit("fig06_action_space");
    libra_bench::write_artifact("fig06_curves.csv", &series_csv(&series));
}
