//! Fig. 16 — "Live Internet" (emulated WAN substitution; DESIGN.md):
//! normalized average throughput and delay on inter- and
//! intra-continental profiles for C-Libra, B-Libra, Proteus, BBR,
//! CUBIC and Orca. Libra is reported with its throughput- and
//! delay-oriented profiles, showing the flexibility span.

use libra_bench::{run_repeated, wan_specs, BenchArgs, Cca, ModelStore, Table};
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
    for scenario in wan_specs(secs) {
        let mut rows = Vec::new();
        let mut best_tput = 0.0f64;
        let mut best_delay = f64::INFINITY;
        for &cca in &ccas {
            let (m, _) = run_repeated(
                cca,
                &store,
                |seed| scenario.link(seed),
                secs,
                args.seed * 17,
                repeats,
            );
            best_tput = best_tput.max(m.goodput_mbps);
            best_delay = best_delay.min(m.avg_rtt_ms);
            rows.push((cca.label(), m.goodput_mbps, m.avg_rtt_ms, m.loss));
        }
        let mut table = Table::new(
            &format!("Fig. 16 ({}): normalized performance", scenario.name),
            &["cca", "norm. throughput", "norm. delay", "loss"],
        );
        for (label, tput, delay, loss) in rows {
            table.row(vec![
                label,
                format!("{:.3}", tput / best_tput),
                format!("{:.3}", delay / best_delay),
                format!("{:.3}", loss),
            ]);
        }
        table.emit(&format!("fig16_{}", scenario.name.replace('-', "_")));
    }
}
