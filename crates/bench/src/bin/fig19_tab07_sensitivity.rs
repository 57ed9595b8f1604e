//! Fig. 19 + Tab. 7 — Parameter sensitivity of C-Libra: stage-duration
//! combinations `[explore, EI, exploit]` in RTTs, and the switching
//! threshold (0.1×–0.4×), over the wired and cellular scenario families.
//!
//! Every `(parameter point, scenario)` cell is an independent run, so
//! the whole grid fans out over the sweep workers; links are built
//! eagerly on the coordinator and per-family sums are folded in job
//! order, keeping output identical for any `LIBRA_JOBS`.

use libra_bench::{fig1_specs, parallel_map, BenchArgs, ModelStore, Table};
use libra_core::{LibraParams, LibraVariant};
use libra_netsim::{FlowConfig, Simulation};
use libra_rl::PpoAgent;
use libra_types::Instant;
use std::cell::RefCell;
use std::rc::Rc;

fn run_with_params(
    params: LibraParams,
    store: &ModelStore,
    link: libra_netsim::LinkConfig,
    secs: u64,
    seed: u64,
) -> (f64, f64) {
    let weights = store.libra(LibraVariant::Cubic);
    let mut agent = PpoAgent::from_weights(weights, &mut store.agent_rng());
    agent.set_eval(true);
    let libra = LibraVariant::Cubic.build_with_params(params, Rc::new(RefCell::new(agent)));
    let until = Instant::from_secs(secs);
    let mut sim = Simulation::new(link, seed);
    sim.add_flow(FlowConfig::whole_run(Box::new(libra), until));
    let rep = sim.run(until);
    (rep.link.utilization, rep.flows[0].rtt_ms.mean())
}

/// Fan a grid of `(params, family, link)` jobs out over the sweep
/// workers; returns per-job `(row, family, (util, delay))` in job order.
fn run_grid(
    store: &ModelStore,
    jobs: Vec<(usize, usize, LibraParams, libra_netsim::LinkConfig)>,
    secs: u64,
    seed: u64,
) -> Vec<(usize, usize, (f64, f64))> {
    parallel_map(jobs, |(row, family, params, link)| {
        (
            row,
            family,
            run_with_params(params, store, link, secs, seed),
        )
    })
}

fn main() {
    let args = BenchArgs::parse();
    let secs = args.scaled(30, 8);
    let store = ModelStore::new(args.seed);
    // Warm the one model every cell needs before fanning out.
    let _ = store.libra(LibraVariant::Cubic);
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
    let mut fig19 = Table::new(
        "Fig. 19: C-Libra under different stage durations (util | delay ms)",
        &["duration [k, EI, k] (RTT)", "wired", "cellular"],
    );
    let mut jobs = Vec::new();
    for (row, &(k, ei)) in combos.iter().enumerate() {
        let params = LibraParams {
            explore_rtts: k,
            ei_rtts: ei,
            exploit_rtts: k,
            ..LibraParams::for_cubic()
        };
        for (family, set) in families.iter().enumerate() {
            for s in set.iter() {
                jobs.push((row, family, params, s.link(args.seed)));
            }
        }
    }
    // sums[row][family] = (Σ util, Σ delay), folded in job order.
    let mut sums = vec![[(0.0, 0.0); 2]; combos.len()];
    for (row, family, (u, d)) in run_grid(&store, jobs, secs, args.seed) {
        sums[row][family].0 += u;
        sums[row][family].1 += d;
    }
    for (row, &(k, ei)) in combos.iter().enumerate() {
        let cells: Vec<String> = families
            .iter()
            .enumerate()
            .map(|(family, set)| {
                let n = set.len() as f64;
                let (u, d) = sums[row][family];
                format!("{:.3} | {:.1}", u / n, d / n)
            })
            .collect();
        fig19.row(vec![
            format!("[{k}, {ei}, {k}]"),
            cells[0].clone(),
            cells[1].clone(),
        ]);
    }
    fig19.emit("fig19_durations");

    // Tab. 7: switching thresholds.
    let mut tab7 = Table::new(
        "Tab. 7: C-Libra under different switching thresholds",
        &["configuration", "link utilization", "avg delay (ms)"],
    );
    let fracs = [0.1, 0.2, 0.3, 0.4];
    let mut jobs = Vec::new();
    for (row, &frac) in fracs.iter().enumerate() {
        let params = LibraParams {
            switch_frac: frac,
            ..LibraParams::for_cubic()
        };
        for (family, set) in families.iter().enumerate() {
            for s in set.iter() {
                jobs.push((row, family, params, s.link(args.seed)));
            }
        }
    }
    let mut sums = vec![[(0.0, 0.0); 2]; fracs.len()];
    for (row, family, (u, d)) in run_grid(&store, jobs, secs, args.seed) {
        sums[row][family].0 += u;
        sums[row][family].1 += d;
    }
    for (family, (tag, set)) in [("Wired", &wired), ("Cellular", &cellular)]
        .into_iter()
        .enumerate()
    {
        for (row, &frac) in fracs.iter().enumerate() {
            let n = set.len() as f64;
            let (u, d) = sums[row][family];
            tab7.row(vec![
                format!("{tag}-{frac}x"),
                format!("{:.1}%", 100.0 * u / n),
                format!("{:.1}", d / n),
            ]);
        }
    }
    tab7.emit("tab07_thresholds");
}
