//! Fig. 10 — Stochastic-loss sweep (0–10 %): link utilization. B-Libra
//! (loss-agnostic BBR inside) stays high; C-Libra recovers CUBIC's
//! erroneous reductions through the evaluation stage.

use libra_bench::{loss_sweep_link, run_figure, BenchArgs, Cca, ModelStore, RunSpec, Table};
use libra_types::Preference;

fn main() {
    let args = BenchArgs::parse();
    let secs = args.scaled(30, 8);
    let store = ModelStore::new(args.seed);
    let ccas = [
        Cca::Proteus,
        Cca::Bbr,
        Cca::Copa,
        Cca::Cubic,
        Cca::Orca,
        Cca::CLibra(Preference::Default),
        Cca::BLibra(Preference::Default),
    ];
    let losses: &[f64] = if args.quick {
        &[0.0, 0.04, 0.10]
    } else {
        &[0.0, 0.02, 0.04, 0.06, 0.08, 0.10]
    };
    let mut table = Table::new(
        "Fig. 10: link utilization vs stochastic loss",
        &[
            "loss", "Proteus", "BBR", "Copa", "CUBIC", "Orca", "C-Libra", "B-Libra",
        ],
    );
    let specs: Vec<RunSpec> = losses
        .iter()
        .flat_map(|&p| {
            ccas.iter().map(move |&cca| {
                RunSpec::single(
                    cca,
                    loss_sweep_link(p),
                    secs,
                    args.seed + (p * 100.0) as u64,
                )
            })
        })
        .collect();
    let slots = run_figure("fig10_loss_sweep", &args, &store, specs);
    for (&p, cells) in losses.iter().zip(slots.chunks(ccas.len())) {
        let mut row = vec![format!("{:.0}%", p * 100.0)];
        row.extend(cells.iter().map(|cell| match cell {
            Ok(summary) => format!("{:.3}", summary.headline().utilization),
            Err(_) => "—".into(),
        }));
        table.row(row);
    }
    table.emit("fig10_loss_sweep");
}
