//! Fig. 19 + Tab. 7 — Parameter sensitivity of C-Libra: stage-duration
//! combinations `[explore, EI, exploit]` in RTTs, and the switching
//! threshold (0.1×–0.4×), over the wired and cellular scenario families.
//!
//! Every `(parameter point, scenario)` cell is one run of a tuned
//! C-Libra ([`Cca::Libra`]); both tables' runs go through one
//! `run_figure` sweep, and per-family sums are folded in spec order,
//! keeping output identical for any `LIBRA_JOBS`.

use libra_bench::{fig1_specs, run_figure, BenchArgs, Cca, ModelStore, SlotResult, Table};
use libra_core::{LibraParams, LibraVariant};

/// Σ (utilization, delay) over one family's runs, in spec order; `None`
/// if any of them failed.
fn family_sums(runs: &[SlotResult]) -> Option<(f64, f64)> {
    runs.iter().try_fold((0.0, 0.0), |(u, d), run| {
        let m = run.as_ref().ok()?.headline();
        Some((u + m.utilization, d + m.avg_rtt_ms))
    })
}

fn main() {
    let args = BenchArgs::parse();
    let secs = args.scaled(30, 8);
    let store = ModelStore::new(args.seed);
    let scenarios = fig1_specs(secs);
    let (wired, cellular): (Vec<_>, Vec<_>) = scenarios
        .into_iter()
        .partition(|s| s.name.starts_with("Wired"));
    let families = [&wired, &cellular];

    // Fig. 19: stage-duration combinations [k, EI, k].
    let combos: &[(f64, f64)] = &[
        (1.0, 0.5),
        (1.0, 1.0),
        (2.0, 0.5),
        (2.0, 1.0),
        (3.0, 0.5),
        (3.0, 1.0),
    ];
    // Tab. 7: switching thresholds.
    let fracs = [0.1, 0.2, 0.3, 0.4];
    let points = combos
        .iter()
        .map(|&(k, ei)| LibraParams {
            explore_rtts: k,
            ei_rtts: ei,
            exploit_rtts: k,
            ..LibraParams::for_cubic()
        })
        .chain(fracs.iter().map(|&frac| LibraParams {
            switch_frac: frac,
            ..LibraParams::for_cubic()
        }));
    // One run per (point, family, scenario), in that order.
    let specs = points
        .flat_map(|params| {
            let cca = Cca::Libra {
                variant: LibraVariant::Cubic,
                classic: None,
                params,
            };
            families
                .into_iter()
                .flatten()
                .map(move |s| s.to_run_spec(cca, args.seed))
        })
        .collect();
    let slots = run_figure("fig19_tab07_sensitivity", &args, &store, specs);
    // sums[point][family], folded in spec order.
    let sums: Vec<[Option<(f64, f64)>; 2]> = slots
        .chunks(wired.len() + cellular.len())
        .map(|runs| {
            let (w, c) = runs.split_at(wired.len());
            [family_sums(w), family_sums(c)]
        })
        .collect();
    let (fig19_sums, tab7_sums) = sums.split_at(combos.len());

    let mut fig19 = Table::new(
        "Fig. 19: C-Libra under different stage durations (util | delay ms)",
        &["duration [k, EI, k] (RTT)", "wired", "cellular"],
    );
    for (&(k, ei), cells) in combos.iter().zip(fig19_sums) {
        let mut row = vec![format!("[{k}, {ei}, {k}]")];
        row.extend(families.iter().zip(cells).map(|(set, cell)| {
            let n = set.len() as f64;
            cell.map_or("—".into(), |(u, d)| {
                format!("{:.3} | {:.1}", u / n, d / n)
            })
        }));
        fig19.row(row);
    }
    fig19.emit("fig19_durations");

    let mut tab7 = Table::new(
        "Tab. 7: C-Libra under different switching thresholds",
        &["configuration", "link utilization", "avg delay (ms)"],
    );
    for (family, (tag, set)) in [("Wired", &wired), ("Cellular", &cellular)]
        .into_iter()
        .enumerate()
    {
        for (&frac, cells) in fracs.iter().zip(tab7_sums) {
            let n = set.len() as f64;
            let (util, delay) = cells[family].map_or(("—".into(), "—".into()), |(u, d)| {
                (format!("{:.1}%", 100.0 * u / n), format!("{:.1}", d / n))
            });
            tab7.row(vec![format!("{tag}-{frac}x"), util, delay]);
        }
    }
    tab7.emit("tab07_thresholds");
}
