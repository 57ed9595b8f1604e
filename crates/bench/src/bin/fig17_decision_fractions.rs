//! Fig. 17 — Fraction of control cycles won by each candidate
//! (`x_prev`, `x_rl`, `x_cl`) for C-Libra and B-Libra across the step,
//! cellular and wired scenarios — the "no single CCA wins everywhere"
//! deep dive.

use libra_bench::{lte_tmobile_spec, run, step_spec, BenchArgs, Cca, ModelStore, RunSpec, Table};
use libra_core::Libra;
use libra_netsim::{wired_link, SimConfig};
use libra_types::Preference;

fn main() {
    let args = BenchArgs::parse();
    let secs = args.scaled(40, 10);
    let trials = args.scaled(10, 2);
    let store = ModelStore::new(args.seed);
    for cca in [
        Cca::CLibra(Preference::Default),
        Cca::BLibra(Preference::Default),
    ] {
        let mut table = Table::new(
            &format!("Fig. 17 ({}): fraction of applied decisions", cca.label()),
            &["scenario", "x_prev", "x_rl", "x_cl", "cycles", "early-exit"],
        );
        for scenario_name in ["Step", "Cellular", "Wired"] {
            let (mut p, mut r, mut c, mut e) = (0.0, 0.0, 0.0, 0.0);
            let mut cycles = 0usize;
            for k in 0..trials {
                let link = match scenario_name {
                    "Step" => step_spec(secs).link(args.seed + k),
                    "Cellular" => lte_tmobile_spec(secs).link(args.seed + k),
                    _ => wired_link(48.0),
                };
                let spec = RunSpec::single(cca, link, secs, args.seed + k);
                let rep = run(&store, &spec, SimConfig::default());
                let libra = rep.flows[0]
                    .cca
                    .as_any()
                    .and_then(|a| a.downcast_ref::<Libra>())
                    .expect("flow 0 is a Libra instance");
                let (fp, fr, fc) = libra.log().fractions();
                p += fp;
                r += fr;
                c += fc;
                e += libra.log().early_exit_fraction();
                cycles += libra.log().len();
            }
            let n = trials as f64;
            table.row(vec![
                scenario_name.to_string(),
                format!("{:.3}", p / n),
                format!("{:.3}", r / n),
                format!("{:.3}", c / n),
                format!("{}", cycles / trials as usize),
                format!("{:.3}", e / n),
            ]);
        }
        table.emit(&format!(
            "fig17_{}",
            cca.label().to_lowercase().replace('-', "_")
        ));
    }
}
