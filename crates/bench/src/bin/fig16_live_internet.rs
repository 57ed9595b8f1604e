//! Fig. 16 — "Live Internet" (emulated WAN substitution; DESIGN.md):
//! normalized average throughput and delay on inter- and
//! intra-continental profiles for C-Libra, B-Libra, Proteus, BBR,
//! CUBIC and Orca. Libra is reported with its throughput- and
//! delay-oriented profiles, showing the flexibility span.

use libra_bench::{run_figure, wan_specs, BenchArgs, Cca, ModelStore, RunMetrics, RunSpec, Table};
use libra_types::Preference;

fn main() {
    let args = BenchArgs::parse();
    let secs = args.scaled(30, 8);
    let repeats = args.scaled(4, 1);
    let store = ModelStore::new(args.seed);
    let ccas = [
        Cca::CLibra(Preference::Throughput1),
        Cca::CLibra(Preference::Default),
        Cca::CLibra(Preference::Latency1),
        Cca::BLibra(Preference::Default),
        Cca::Proteus,
        Cca::Bbr,
        Cca::Cubic,
        Cca::Orca,
    ];
    let scenarios = wan_specs(secs);
    let base = args.seed * 17;
    let specs = scenarios
        .iter()
        .flat_map(|scenario| {
            ccas.iter().flat_map(move |&cca| {
                (base..base + repeats)
                    .map(move |seed| RunSpec::single(cca, scenario.link(seed), secs, seed))
            })
        })
        .collect();
    let slots = run_figure("fig16_live_internet", &args, &store, specs);
    let mut cells = slots.chunks(repeats as usize).map(RunMetrics::mean_of);
    for scenario in &scenarios {
        let mut rows = Vec::new();
        let mut best_tput = 0.0f64;
        let mut best_delay = f64::INFINITY;
        for &cca in &ccas {
            let cell = cells.next().expect("one cell per scenario × cca");
            if let Some(m) = cell {
                best_tput = best_tput.max(m.goodput_mbps);
                best_delay = best_delay.min(m.avg_rtt_ms);
            }
            rows.push((cca.label(), cell));
        }
        let mut table = Table::new(
            &format!("Fig. 16 ({}): normalized performance", scenario.name),
            &["cca", "norm. throughput", "norm. delay", "loss"],
        );
        for (label, cell) in rows {
            let Some(m) = cell else {
                table.failed_row(label);
                continue;
            };
            table.row(vec![
                label,
                format!("{:.3}", m.goodput_mbps / best_tput),
                format!("{:.3}", m.avg_rtt_ms / best_delay),
                format!("{:.3}", m.loss),
            ]);
        }
        table.emit(&format!("fig16_{}", scenario.name.replace('-', "_")));
    }
}
