//! Fig. 2a — Throughput over the step scenario (capacity changes every
//! 10 s; 80 ms minimum RTT; 1 BDP buffer) for Proteus, Clean-Slate
//! Libra, Libra and Orca.

use libra_bench::{run_figure, series_csv, step_spec, BenchArgs, Cca, ModelStore, RunSpec, Table};
use libra_types::Preference;

fn main() {
    let args = BenchArgs::parse();
    let secs = args.scaled(50, 15);
    let store = ModelStore::new(args.seed);
    let scenario = step_spec(secs);
    let ccas = [
        Cca::Proteus,
        Cca::CleanSlateLibra,
        Cca::CLibra(Preference::Default),
        Cca::Orca,
    ];
    let mut series = Vec::new();
    let mut summary = Table::new(
        "Fig. 2a summary: step-scenario tracking",
        &["cca", "utilization", "avg delay (ms)", "loss"],
    );
    let specs = ccas
        .iter()
        .map(|&cca| RunSpec::single(cca, scenario.link(args.seed), secs, args.seed))
        .collect();
    let slots = run_figure("fig02a_step_scenario", &args, &store, specs);
    for (cca, slot) in ccas.iter().zip(&slots) {
        let Ok(rep) = slot else {
            summary.failed_row(cca.label());
            continue;
        };
        let f = &rep.flows[0];
        summary.row(vec![
            cca.label(),
            format!("{:.3}", rep.utilization),
            format!("{:.1}", f.rtt_mean_ms),
            format!("{:.3}", f.loss_fraction),
        ]);
        series.push((cca.label(), f.goodput_series.clone()));
    }
    // Capacity line for the plot.
    let link = scenario.link(args.seed);
    series.push((
        "capacity".to_string(),
        link.capacity.series(
            libra_types::Instant::from_secs(secs),
            libra_types::Duration::from_millis(500),
        ),
    ));
    summary.emit("fig02a_summary");
    libra_bench::write_artifact("fig02a_series.csv", &series_csv(&series));
}
