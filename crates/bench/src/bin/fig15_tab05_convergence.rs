//! Fig. 15 + Tab. 5 — Convergence: three same-CCA flows start 5 s apart
//! on a 48 Mbps / 100 ms / 1 BDP link. Reports the third flow's
//! convergence time, post-convergence deviation and average throughput,
//! plus the per-flow throughput series.

use libra_bench::{
    convergence_stats, fairness_link, run_figure, series_csv, BenchArgs, Cca, ModelStore, RunSpec,
    Table,
};
use libra_types::{Duration, Preference};

fn main() {
    let args = BenchArgs::parse();
    let secs = args.scaled(50, 20);
    let store = ModelStore::new(args.seed);
    let ccas = [
        Cca::Bbr,
        Cca::Cubic,
        Cca::ModRl,
        Cca::Indigo,
        Cca::Proteus,
        Cca::Orca,
        Cca::CLibra(Preference::Default),
        Cca::BLibra(Preference::Default),
    ];
    let mut table = Table::new(
        "Tab. 5: convergence of the third flow (starts at 10 s)",
        &[
            "cca",
            "conv. time (s)",
            "thr. deviation (Mbps)",
            "avg throughput (Mbps)",
            "jain",
        ],
    );
    let specs: Vec<RunSpec> = ccas
        .iter()
        .map(|&cca| {
            RunSpec::staggered(
                cca,
                fairness_link(),
                3,
                Duration::from_secs(5),
                secs,
                args.seed,
            )
        })
        .collect();
    let slots = run_figure("fig15_tab05_convergence", &args, &store, specs);
    for (cca, slot) in ccas.iter().zip(&slots) {
        let Ok(rep) = slot else {
            table.failed_row(cca.label());
            continue;
        };
        let third = &rep.flows[2];
        let stats = convergence_stats(&third.goodput_series, 10.0, 5.0);
        table.row(vec![
            cca.label(),
            stats
                .time_s
                .map(|t| format!("{t:.1}"))
                .unwrap_or_else(|| "-".to_string()),
            format!("{:.2}", stats.deviation_mbps),
            format!("{:.1}", stats.avg_mbps),
            format!("{:.3}", rep.jain),
        ]);
        // Fig. 15 panels: per-flow series.
        let series: Vec<(String, Vec<(f64, f64)>)> = rep
            .flows
            .iter()
            .enumerate()
            .map(|(i, f)| (format!("flow{}", i + 1), f.goodput_series.clone()))
            .collect();
        libra_bench::write_artifact(
            &format!(
                "fig15_{}.csv",
                cca.label().replace([' ', '.'], "").to_lowercase()
            ),
            &series_csv(&series),
        );
    }
    table.emit("tab05_convergence");
}
