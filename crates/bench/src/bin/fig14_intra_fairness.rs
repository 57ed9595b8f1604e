//! Fig. 14 — Intra-protocol fairness: two flows of the same CCA share
//! the bottleneck; Libra's utility game gives a ~99 % Jain index.

use libra_bench::{fairness_link, run_figure, BenchArgs, Cca, ModelStore, RunSpec, Table};
use libra_types::{jain_index, Preference};

fn main() {
    let args = BenchArgs::parse();
    let secs = args.scaled(50, 12);
    let store = ModelStore::new(args.seed);
    let ccas = [
        Cca::Cubic,
        Cca::Bbr,
        Cca::Copa,
        Cca::Aurora,
        Cca::Proteus,
        Cca::ModRl,
        Cca::Orca,
        Cca::CLibra(Preference::Default),
        Cca::BLibra(Preference::Default),
    ];
    let mut table = Table::new(
        "Fig. 14: intra-protocol fairness (two same-CCA flows)",
        &["cca", "flow1 share", "flow2 share", "jain index"],
    );
    let specs = ccas
        .iter()
        .map(|&cca| RunSpec::pair(cca, cca, fairness_link(), secs, args.seed))
        .collect();
    let slots = run_figure("fig14_intra_fairness", &args, &store, specs);
    for (cca, slot) in ccas.iter().zip(&slots) {
        let Ok(rep) = slot else {
            table.failed_row(cca.label());
            continue;
        };
        let a = rep.flows[0].goodput_mbps;
        let b = rep.flows[1].goodput_mbps;
        let total = (a + b).max(1e-9);
        table.row(vec![
            cca.label(),
            format!("{:.3}", a / total),
            format!("{:.3}", b / total),
            format!("{:.3}", jain_index(&[a, b])),
        ]);
    }
    table.emit("fig14_intra_fairness");
}
