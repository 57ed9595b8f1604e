//! Ablation for the Fig. 4 design claim: evaluating the *lower* candidate
//! rate first avoids the self-inflicted side effect (queue built by the
//! higher rate poisoning the second measurement). Runs C-Libra with both
//! orders over wired and LTE scenarios.

use libra_bench::{fig1_specs, run_figure, BenchArgs, Cca, ModelStore, Table};
use libra_core::{EvalOrder, LibraParams, LibraVariant};

fn main() {
    let args = BenchArgs::parse();
    let secs = args.scaled(30, 8);
    let trials = args.scaled(3, 1);
    let store = ModelStore::new(args.seed);
    let orders = [
        ("lower-first", EvalOrder::LowerFirst),
        ("higher-first", EvalOrder::HigherFirst),
    ];
    let scenarios = fig1_specs(secs);
    let specs = scenarios
        .iter()
        .flat_map(|scenario| {
            orders.iter().flat_map(move |&(_, eval_order)| {
                let cca = Cca::Libra {
                    variant: LibraVariant::Cubic,
                    classic: None,
                    params: LibraParams {
                        eval_order,
                        ..LibraParams::for_cubic()
                    },
                };
                (0..trials).map(move |k| scenario.to_run_spec(cca, args.seed + k))
            })
        })
        .collect();
    let slots = run_figure("ablation_eval_order", &args, &store, specs);
    let mut cells = slots.chunks(trials as usize);
    let mut table = Table::new(
        "Ablation: evaluation order (Sec. 4.1, Fig. 4)",
        &["scenario", "order", "utilization", "avg delay (ms)", "loss"],
    );
    for scenario in &scenarios {
        for (label, _) in orders {
            let runs = cells.next().expect("one cell per scenario × order");
            // Σ over the trials, in spec order; `None` if any failed.
            let sums = runs.iter().try_fold((0.0, 0.0, 0.0), |(u, d, l), run| {
                let m = run.as_ref().ok()?.headline();
                Some((u + m.utilization, d + m.avg_rtt_ms, l + m.loss))
            });
            let n = trials as f64;
            let mut row = vec![scenario.name.clone(), label.to_string()];
            row.extend(match sums {
                Some((u, d, l)) => [
                    format!("{:.3}", u / n),
                    format!("{:.1}", d / n),
                    format!("{:.4}", l / n),
                ],
                None => ["—".into(), "—".into(), "—".into()],
            });
            table.row(row);
        }
    }
    table.emit("ablation_eval_order");
}
