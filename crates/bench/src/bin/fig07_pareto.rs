//! Fig. 7 — The headline scatter: normalized average throughput vs.
//! average delay over (a) four wired and (b) four cellular traces for
//! the full CCA comparison set. Libra should sit in the top-right
//! (high throughput, low delay) Pareto region.

use libra_bench::{
    fig7_cellular_specs, fig7_wired_specs, run_figure, BenchArgs, Cca, ModelStore, RunMetrics,
    RunSpec, Table,
};

fn main() {
    let args = BenchArgs::parse();
    let secs = args.scaled(30, 8);
    let repeats = args.scaled(2, 1);
    let store = ModelStore::new(args.seed);
    let ccas = Cca::headline_set();
    let halves = [
        ("wired", fig7_wired_specs(secs)),
        ("cellular", fig7_cellular_specs(secs)),
    ];
    let base = args.seed * 131;
    let mut specs = Vec::new();
    for (_, scenarios) in &halves {
        for &cca in &ccas {
            for scenario in scenarios {
                specs.extend(
                    (base..base + repeats)
                        .map(|seed| RunSpec::single(cca, scenario.link(seed), secs, seed)),
                );
            }
        }
    }
    let slots = run_figure("fig07_pareto", &args, &store, specs);
    let mut slots = slots.as_slice();
    for (half, scenarios) in &halves {
        let mut table = Table::new(
            &format!("Fig. 7 ({half}): normalized avg throughput vs avg delay"),
            &["cca", "norm. throughput", "avg delay (ms)", "utilization"],
        );
        let mut rows = Vec::new();
        let mut failed = Vec::new();
        let mut best_tput = 0.0f64;
        for &cca in &ccas {
            let (runs, rest) = slots.split_at(scenarios.len() * repeats as usize);
            slots = rest;
            let Some(cells) = runs
                .chunks(repeats as usize)
                .map(RunMetrics::mean_of)
                .collect::<Option<Vec<_>>>()
            else {
                failed.push(cca.label());
                continue;
            };
            let mut tput = 0.0;
            let mut delay = 0.0;
            let mut util = 0.0;
            for m in &cells {
                tput += m.goodput_mbps;
                delay += m.avg_rtt_ms;
                util += m.utilization;
            }
            let n = scenarios.len() as f64;
            tput /= n;
            delay /= n;
            util /= n;
            best_tput = best_tput.max(tput);
            rows.push((cca.label(), tput, delay, util));
        }
        rows.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
        for (label, tput, delay, util) in &rows {
            table.row(vec![
                label.clone(),
                format!("{:.3}", tput / best_tput),
                format!("{delay:.1}"),
                format!("{util:.3}"),
            ]);
        }
        for label in failed {
            table.failed_row(label);
        }
        table.emit(&format!("fig07_{half}"));
    }
}
