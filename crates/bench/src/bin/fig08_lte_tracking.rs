//! Fig. 8 — Throughput-vs-time while following a varying LTE capacity
//! (user movement): C-Libra, B-Libra, Proteus, CUBIC, BBR, Orca.

use libra_bench::{run_figure, series_csv, BenchArgs, Cca, ModelStore, RunSpec, Table};
use libra_netsim::{lte_link, LteScenario};
use libra_types::{DetRng, Duration, Instant, Preference};

fn main() {
    let args = BenchArgs::parse();
    let secs = args.scaled(35, 10);
    let store = ModelStore::new(args.seed);
    let ccas = [
        Cca::CLibra(Preference::Default),
        Cca::BLibra(Preference::Default),
        Cca::Proteus,
        Cca::Cubic,
        Cca::Bbr,
        Cca::Orca,
    ];
    let link_for = |seed: u64| {
        let mut rng = DetRng::new(seed ^ 0xF18);
        lte_link(LteScenario::Driving, Duration::from_secs(secs), &mut rng)
    };
    let mut series = Vec::new();
    let mut table = Table::new(
        "Fig. 8: tracking a moving-user LTE trace",
        &["cca", "utilization", "avg delay (ms)"],
    );
    let specs = ccas
        .iter()
        .map(|&cca| RunSpec::single(cca, link_for(args.seed), secs, args.seed))
        .collect();
    let slots = run_figure("fig08_lte_tracking", &args, &store, specs);
    for (cca, slot) in ccas.iter().zip(&slots) {
        let Ok(rep) = slot else {
            table.failed_row(cca.label());
            continue;
        };
        table.row(vec![
            cca.label(),
            format!("{:.3}", rep.utilization),
            format!("{:.1}", rep.flows[0].rtt_mean_ms),
        ]);
        series.push((cca.label(), rep.flows[0].goodput_series.clone()));
    }
    series.push((
        "capacity".to_string(),
        link_for(args.seed)
            .capacity
            .series(Instant::from_secs(secs), Duration::from_millis(200)),
    ));
    table.emit("fig08_lte_tracking");
    libra_bench::write_artifact("fig08_series.csv", &series_csv(&series));
}
