//! Fig. 11 — Flexibility: the five utility profiles (Th-2, Th-1,
//! Default, La-1, La-2) for C-Libra and B-Libra:
//! (a/b) single flow on wired and cellular networks,
//! (c/d) bandwidth share when competing with one CUBIC flow.

use libra_bench::{
    fairness_link, fig1_specs, run_figure, BenchArgs, Cca, ModelStore, RunMetrics, RunSpec, Table,
};
use libra_types::Preference;

fn main() {
    let args = BenchArgs::parse();
    let secs = args.scaled(30, 8);
    let repeats = args.scaled(2, 1);
    let store = ModelStore::new(args.seed);
    // Every profile of both Libra flavours, in table-row order.
    let ccas: Vec<Cca> = Preference::ALL
        .into_iter()
        .flat_map(|pref| [Cca::CLibra(pref), Cca::BLibra(pref)])
        .collect();

    // (a)/(b): single flow across scenario families, then (c)/(d): one
    // pair run against CUBIC per profile — all in one sweep.
    let scenarios = fig1_specs(secs);
    let (wired, cellular): (Vec<_>, Vec<_>) = scenarios
        .into_iter()
        .partition(|s| s.name.starts_with("Wired"));
    let families = [("wired", wired), ("cellular", cellular)];
    let base = args.seed * 31;
    let mut specs = Vec::new();
    for (_, set) in &families {
        for &cca in &ccas {
            for scenario in set {
                specs.extend(
                    (base..base + repeats)
                        .map(|seed| RunSpec::single(cca, scenario.link(seed), secs, seed)),
                );
            }
        }
    }
    for &cca in &ccas {
        specs.push(RunSpec::pair(
            cca,
            Cca::Cubic,
            fairness_link(),
            secs,
            args.seed,
        ));
    }
    let slots = run_figure("fig11_flexibility", &args, &store, specs);
    let mut slots = slots.as_slice();

    for (tag, set) in &families {
        let mut table = Table::new(
            &format!("Fig. 11 ({tag}): single-flow preference profiles"),
            &["cca", "utilization", "avg delay (ms)"],
        );
        for &cca in &ccas {
            let (runs, rest) = slots.split_at(set.len() * repeats as usize);
            slots = rest;
            let Some(cells) = runs
                .chunks(repeats as usize)
                .map(RunMetrics::mean_of)
                .collect::<Option<Vec<_>>>()
            else {
                table.failed_row(cca.label());
                continue;
            };
            let mut util = 0.0;
            let mut delay = 0.0;
            for m in &cells {
                util += m.utilization;
                delay += m.avg_rtt_ms;
            }
            let n = set.len() as f64;
            table.row(vec![
                cca.label(),
                format!("{:.3}", util / n),
                format!("{:.1}", delay / n),
            ]);
        }
        table.emit(&format!("fig11_single_{tag}"));
    }

    // (c)/(d): aggressiveness against one CUBIC flow.
    let mut table = Table::new(
        "Fig. 11 (c/d): bandwidth share vs one CUBIC flow (0.5 = fair)",
        &["cca", "throughput ratio", "avg delay (ms)"],
    );
    for (cca, slot) in ccas.iter().zip(slots) {
        let Ok(rep) = slot else {
            table.failed_row(cca.label());
            continue;
        };
        let a = rep.flows[0].goodput_mbps;
        let b = rep.flows[1].goodput_mbps;
        let share = if a + b > 0.0 { a / (a + b) } else { 0.0 };
        table.row(vec![
            cca.label(),
            format!("{share:.3}"),
            format!("{:.1}", rep.flows[0].rtt_mean_ms),
        ]);
    }
    table.emit("fig11_vs_cubic");
}
