//! Fig. 13 — Inter-protocol fairness: each CCA under test shares a
//! 48 Mbps / 100 ms / 1 BDP link with one CUBIC flow. Libra must not
//! starve CUBIC (unlike Aurora-style pure-RL schemes).

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
        "Fig. 13: inter-protocol fairness vs CUBIC",
        &["cca under test", "test share", "cubic share", "jain index"],
    );
    let specs = ccas
        .iter()
        .map(|&cca| RunSpec::pair(cca, Cca::Cubic, fairness_link(), secs, args.seed))
        .collect();
    let slots = run_figure("fig13_inter_fairness", &args, &store, specs);
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
    table.emit("fig13_inter_fairness");
}
