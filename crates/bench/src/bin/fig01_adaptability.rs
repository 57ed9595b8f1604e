//! Fig. 1 — Adaptability under wired / cellular networks.
//!
//! Reproduces: link utilization and average delay for CUBIC, BBR, Orca,
//! Proteus and Libra over Wired#1–#3 (24/48/96 Mbps) and LTE#1–#3
//! (stationary/walking/driving), 30 ms minimum RTT, 150 KB buffer.

use libra_bench::{
    f1, f3, fig1_specs, run_figure, BenchArgs, Cca, ModelStore, RunMetrics, RunSpec, Table,
};
use libra_types::Preference;

fn main() {
    let args = BenchArgs::parse();
    let secs = args.scaled(30, 8);
    let repeats = args.scaled(3, 1);
    let store = ModelStore::new(args.seed);
    let ccas = [
        Cca::Cubic,
        Cca::Bbr,
        Cca::Orca,
        Cca::Proteus,
        Cca::CLibra(Preference::Default),
        Cca::BLibra(Preference::Default),
    ];
    let mut util = Table::new(
        "Fig. 1 (top): link utilization per scenario",
        &[
            "scenario", "CUBIC", "BBR", "Orca", "Proteus", "C-Libra", "B-Libra",
        ],
    );
    let mut delay = Table::new(
        "Fig. 1 (bottom): average delay (ms) per scenario",
        &[
            "scenario", "CUBIC", "BBR", "Orca", "Proteus", "C-Libra", "B-Libra",
        ],
    );
    let scenarios = fig1_specs(secs);
    let base = args.seed * 1000;
    let specs = scenarios
        .iter()
        .flat_map(|scenario| {
            ccas.iter().flat_map(move |&cca| {
                (base..base + repeats)
                    .map(move |seed| RunSpec::single(cca, scenario.link(seed), secs, seed))
            })
        })
        .collect();
    let slots = run_figure("fig01_adaptability", &args, &store, specs);
    let mut cells = slots.chunks(repeats as usize).map(RunMetrics::mean_of);
    for scenario in &scenarios {
        let mut urow = vec![scenario.name.clone()];
        let mut drow = vec![scenario.name.clone()];
        for _ in ccas {
            let cell = cells.next().expect("one cell per scenario × cca");
            urow.push(cell.map_or("—".into(), |m| f3(m.utilization)));
            drow.push(cell.map_or("—".into(), |m| f1(m.avg_rtt_ms)));
        }
        util.row(urow);
        delay.row(drow);
    }
    util.emit("fig01_utilization");
    delay.emit("fig01_delay");
}
