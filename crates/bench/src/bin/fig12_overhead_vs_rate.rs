//! Fig. 12 — CPU utilization vs. link rate (10–200 Mbps): classic CCAs
//! and Libra stay cheap; pure learned CCAs pay per-MI inference that
//! grows with the ACK/MI rate.

use libra_bench::{run_spec, BenchArgs, Cca, ModelStore, RunSpec, ScenarioSpec, Table};
use libra_types::Preference;

fn main() {
    let args = BenchArgs::parse();
    let secs = args.scaled(30, 8);
    let store = ModelStore::new(args.seed);
    let ccas = [
        Cca::Cubic,
        Cca::Bbr,
        Cca::CLibra(Preference::Default),
        Cca::BLibra(Preference::Default),
        Cca::Orca,
        Cca::Indigo,
        Cca::Copa,
        Cca::Proteus,
        Cca::Aurora,
    ];
    let rates: &[f64] = if args.quick {
        &[10.0, 50.0, 200.0]
    } else {
        &[10.0, 20.0, 30.0, 50.0, 100.0, 200.0]
    };
    let mut header = vec!["rate".to_string()];
    header.extend(ccas.iter().map(|c| c.label()));
    let hdr_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut table = Table::new(
        "Fig. 12: controller CPU (µs per simulated second) vs link rate",
        &hdr_refs,
    );
    for &mbps in rates {
        let mut row = vec![format!("{mbps:.0}Mbps")];
        for cca in ccas {
            let link = ScenarioSpec::eval_wired(mbps).link(args.seed);
            let spec = RunSpec::single(cca, link, secs, args.seed + mbps as u64);
            let cpu = run_spec(&store, &spec).headline().compute_us_per_s;
            row.push(format!("{cpu:.1}"));
        }
        table.row(row);
    }
    table.emit("fig12_overhead_vs_rate");
}
