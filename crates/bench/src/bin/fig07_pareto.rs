//! Fig. 7 — The headline scatter: normalized average throughput vs.
//! average delay over (a) four wired and (b) four cellular traces for
//! the full CCA comparison set. Libra should sit in the top-right
//! (high throughput, low delay) Pareto region.

use libra_bench::{
    fig7_cellular_specs, fig7_wired_specs, run_repeated, BenchArgs, Cca, ModelStore, Table,
};

fn main() {
    let args = BenchArgs::parse();
    let secs = args.scaled(30, 8);
    let repeats = args.scaled(2, 1);
    let store = ModelStore::new(args.seed);
    let ccas = Cca::headline_set();
    for (half, scenarios) in [
        ("wired", fig7_wired_specs(secs)),
        ("cellular", fig7_cellular_specs(secs)),
    ] {
        let mut table = Table::new(
            &format!("Fig. 7 ({half}): normalized avg throughput vs avg delay"),
            &["cca", "norm. throughput", "avg delay (ms)", "utilization"],
        );
        let mut rows = Vec::new();
        let mut best_tput = 0.0f64;
        for &cca in &ccas {
            let mut tput = 0.0;
            let mut delay = 0.0;
            let mut util = 0.0;
            for scenario in &scenarios {
                let (m, _) = run_repeated(
                    cca,
                    &store,
                    |seed| scenario.link(seed),
                    secs,
                    args.seed * 131,
                    repeats,
                );
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
        table.emit(&format!("fig07_{half}"));
    }
}
