//! Fig. 2b — CDF of link utilization over repeated runs on an LTE
//! network (the safety-assurance motivation): Proteus, CUBIC, BBR, Libra
//! and Orca, 100 repeats in the paper.

use libra_bench::{
    lte_tmobile_spec, run_figure, series_csv, BenchArgs, Cca, ModelStore, RunSpec, Table,
};
use libra_types::Preference;

fn main() {
    let args = BenchArgs::parse();
    let secs = args.scaled(30, 8);
    let repeats = args.scaled(40, 6);
    let store = ModelStore::new(args.seed);
    let scenario = lte_tmobile_spec(secs);
    let ccas = [
        Cca::Proteus,
        Cca::Cubic,
        Cca::Bbr,
        Cca::CLibra(Preference::Default),
        Cca::Orca,
    ];
    let mut table = Table::new(
        "Fig. 2b: utilization distribution over repeated LTE runs",
        &["cca", "mean", "p10", "p90", "range"],
    );
    let mut series = Vec::new();
    let specs = ccas
        .iter()
        .flat_map(|&cca| {
            let scenario = &scenario;
            (args.seed..args.seed + repeats)
                .map(move |seed| RunSpec::single(cca, scenario.link(seed), secs, seed))
        })
        .collect();
    let slots = run_figure("fig02b_safety_cdf", &args, &store, specs);
    for (cca, runs) in ccas.iter().zip(slots.chunks(repeats as usize)) {
        let Ok(mut utils) = runs
            .iter()
            .map(|run| run.as_ref().map(|s| s.utilization))
            .collect::<Result<Vec<f64>, _>>()
        else {
            table.failed_row(cca.label());
            continue;
        };
        utils.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let n = utils.len();
        let q = |p: f64| utils[((n - 1) as f64 * p).round() as usize];
        table.row(vec![
            cca.label(),
            format!("{:.3}", utils.iter().sum::<f64>() / n as f64),
            format!("{:.3}", q(0.1)),
            format!("{:.3}", q(0.9)),
            format!("{:.3}", utils[n - 1] - utils[0]),
        ]);
        // CDF points.
        let cdf: Vec<(f64, f64)> = utils
            .iter()
            .enumerate()
            .map(|(i, &u)| (u, (i + 1) as f64 / n as f64))
            .collect();
        series.push((cca.label(), cdf));
    }
    table.emit("fig02b_safety");
    libra_bench::write_artifact("fig02b_cdf.csv", &series_csv(&series));
}
