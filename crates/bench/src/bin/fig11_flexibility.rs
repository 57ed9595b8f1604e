//! Fig. 11 — Flexibility: the five utility profiles (Th-2, Th-1,
//! Default, La-1, La-2) for C-Libra and B-Libra:
//! (a/b) single flow on wired and cellular networks,
//! (c/d) bandwidth share when competing with one CUBIC flow.

use libra_bench::{
    fairness_link, fig1_specs, run_repeated, run_spec, BenchArgs, Cca, ModelStore, RunSpec, Table,
};
use libra_types::Preference;

fn main() {
    let args = BenchArgs::parse();
    let secs = args.scaled(30, 8);
    let repeats = args.scaled(2, 1);
    let store = ModelStore::new(args.seed);

    // (a)/(b): single flow across scenario families.
    let scenarios = fig1_specs(secs);
    let (wired, cellular): (Vec<_>, Vec<_>) = scenarios
        .into_iter()
        .partition(|s| s.name.starts_with("Wired"));
    for (tag, set) in [("wired", wired), ("cellular", cellular)] {
        let mut table = Table::new(
            &format!("Fig. 11 ({tag}): single-flow preference profiles"),
            &["cca", "utilization", "avg delay (ms)"],
        );
        for pref in Preference::ALL {
            for mk in [
                Cca::CLibra as fn(Preference) -> Cca,
                Cca::BLibra as fn(Preference) -> Cca,
            ] {
                let cca = mk(pref);
                let mut util = 0.0;
                let mut delay = 0.0;
                for scenario in &set {
                    let (m, _) = run_repeated(
                        cca,
                        &store,
                        |seed| scenario.link(seed),
                        secs,
                        args.seed * 31,
                        repeats,
                    );
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
        }
        table.emit(&format!("fig11_single_{tag}"));
    }

    // (c)/(d): aggressiveness against one CUBIC flow.
    let mut table = Table::new(
        "Fig. 11 (c/d): bandwidth share vs one CUBIC flow (0.5 = fair)",
        &["cca", "throughput ratio", "avg delay (ms)"],
    );
    for pref in Preference::ALL {
        for mk in [
            Cca::CLibra as fn(Preference) -> Cca,
            Cca::BLibra as fn(Preference) -> Cca,
        ] {
            let cca = mk(pref);
            let spec = RunSpec::pair(cca, Cca::Cubic, fairness_link(), secs, args.seed);
            let rep = run_spec(&store, &spec);
            let a = rep.flows[0].goodput_mbps;
            let b = rep.flows[1].goodput_mbps;
            let share = if a + b > 0.0 { a / (a + b) } else { 0.0 };
            table.row(vec![
                cca.label(),
                format!("{share:.3}"),
                format!("{:.1}", rep.flows[0].rtt_mean_ms),
            ]);
        }
    }
    table.emit("fig11_vs_cubic");
}
