//! Tab. 2 — State ablation: reward/throughput/latency/loss deltas when
//! adding or removing Tab. 1 features from the baseline set
//! {(iv),(vi),(vii),(viii),(ix)}.

use libra_bench::{BenchArgs, Table};
use libra_learned::{
    config_for_state_space, tail_means, train_rl_cca, EnvRanges, Feature, StateSpace, TrainConfig,
};

fn main() {
    let args = BenchArgs::parse();
    let episodes = args.scaled(200, 16) as usize;
    let env = EnvRanges::fixed(100.0, 100.0, 1250);
    use Feature::*;
    // The paper's Tab. 2 rows: baseline ± feature groups.
    let variants: Vec<(&'static str, Vec<Feature>)> = vec![
        (
            "Baseline",
            vec![
                SendingRate,
                RttAndMinRtt,
                LossRate,
                LatencyGradient,
                DeliveryRate,
            ],
        ),
        (
            "-(vi)",
            vec![SendingRate, LossRate, LatencyGradient, DeliveryRate],
        ),
        (
            "+(i)(ii)",
            vec![
                AckInterarrivalEwma,
                SendInterarrivalEwma,
                SendingRate,
                RttAndMinRtt,
                LossRate,
                LatencyGradient,
                DeliveryRate,
            ],
        ),
        (
            "+(i)(ii)(iii)",
            vec![
                AckInterarrivalEwma,
                SendInterarrivalEwma,
                RttRatio,
                SendingRate,
                RttAndMinRtt,
                LossRate,
                LatencyGradient,
                DeliveryRate,
            ],
        ),
        (
            "+(ii)(iii)(v)-(iv)",
            vec![
                SendInterarrivalEwma,
                RttRatio,
                SentAckedRatio,
                RttAndMinRtt,
                LossRate,
                LatencyGradient,
                DeliveryRate,
            ],
        ),
        (
            "+(iii)",
            vec![
                RttRatio,
                SendingRate,
                RttAndMinRtt,
                LossRate,
                LatencyGradient,
                DeliveryRate,
            ],
        ),
        (
            "+(ii)",
            vec![
                SendInterarrivalEwma,
                SendingRate,
                RttAndMinRtt,
                LossRate,
                LatencyGradient,
                DeliveryRate,
            ],
        ),
        (
            "+(i)",
            vec![
                AckInterarrivalEwma,
                SendingRate,
                RttAndMinRtt,
                LossRate,
                LatencyGradient,
                DeliveryRate,
            ],
        ),
        (
            "-(ix)",
            vec![SendingRate, RttAndMinRtt, LossRate, LatencyGradient],
        ),
    ];
    let mut results = Vec::new();
    for (name, feats) in &variants {
        let cfg = config_for_state_space("tab2", StateSpace::new(feats.clone(), 8));
        let r = train_rl_cca(&cfg, &TrainConfig::new(episodes, env.clone(), args.seed));
        results.push((*name, tail_means(&r.curve)));
    }
    let base = &results[0].1;
    let (b_r, b_t, b_l, b_x) = (base.reward, base.utilization, base.rtt_ms, base.loss);
    let mut table = Table::new(
        "Tab. 2: deltas vs baseline {(iv),(vi),(vii),(viii),(ix)}",
        &["state", "Δreward", "Δthroughput", "Δlatency", "Δloss"],
    );
    let pct = |v: f64, b: f64| {
        if b.abs() < 1e-9 {
            "0.0%".to_string()
        } else {
            format!("{:+.1}%", 100.0 * (v - b) / b.abs())
        }
    };
    for (name, s) in &results {
        table.row(vec![
            name.to_string(),
            pct(s.reward, b_r),
            pct(s.utilization, b_t),
            pct(s.rtt_ms, b_l),
            pct(s.loss, b_x.max(1e-4)),
        ]);
    }
    table.emit("tab02_state_ablation");
}
