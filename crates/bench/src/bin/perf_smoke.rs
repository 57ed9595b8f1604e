//! Performance smoke run: times a `full_report`-shaped sweep at 1 vs N
//! workers plus two single-run event-loop workloads, and writes the
//! numbers to `BENCH_netsim.json` in the current directory (the repo
//! root when launched through `scripts/bench.sh`).
//!
//! Schema: `{"<bench>": {"wall_ms": .., "sim_secs_per_sec": ..}, ...}`
//! plus a `"meta"` entry carrying the worker count and the sweep
//! speedup. Classic CCAs only — no training — so the timings measure
//! the simulator and the runner, not PPO.

use libra_bench::{
    parallel_map_with, run, run_sweep_supervised_with, run_sweep_with, run_with_agent,
    worker_count, BenchArgs, Cca, ModelStore, PolicyChaosSpec, RunSpec, SweepPolicy,
};
use libra_learned::RlCcaConfig;
use libra_netsim::{
    host_clock, lte_link, step_link, wired_link, LinkConfig, LteScenario, QueueConfig, SimConfig,
};
use libra_types::{DetRng, Duration, Preference};
use std::fmt::Write as _;

struct Bench {
    name: &'static str,
    wall_ms: f64,
    sim_secs_per_sec: f64,
}

fn timed<F: FnMut()>(sim_secs: f64, mut f: F) -> (f64, f64) {
    let start = host_clock::stamp();
    f();
    let wall = start.elapsed_secs_f64();
    (wall * 1e3, if wall > 0.0 { sim_secs / wall } else { 0.0 })
}

fn grid(secs: u64, seed: u64, repeats: u64) -> Vec<(Cca, LinkConfig, u64)> {
    let ccas = [
        Cca::NewReno,
        Cca::Cubic,
        Cca::Bbr,
        Cca::Vegas,
        Cca::Westwood,
        Cca::Illinois,
        Cca::Copa,
    ];
    type LinkFactory = Box<dyn Fn(u64) -> LinkConfig>;
    let families: Vec<LinkFactory> = vec![
        Box::new(|_| wired_link(24.0)),
        Box::new(|_| wired_link(96.0)),
        Box::new(move |s| {
            let mut rng = DetRng::new(s ^ 0xF00);
            lte_link(LteScenario::Walking, Duration::from_secs(secs), &mut rng)
        }),
        Box::new(move |_| step_link(Duration::from_secs(secs))),
    ];
    let mut jobs = Vec::new();
    for &cca in &ccas {
        for link_of in &families {
            for k in 0..repeats {
                let s = seed * 7 + k;
                jobs.push((cca, link_of(s), s));
            }
        }
    }
    jobs
}

fn main() {
    let args = BenchArgs::parse();
    let secs = args.scaled(10, 4);
    let repeats = args.scaled(2, 1);
    let store = ModelStore::ephemeral(args.seed);
    let mut benches: Vec<Bench> = Vec::new();
    let single = |link: LinkConfig| RunSpec::single(Cca::Cubic, link, secs, args.seed);
    let fleet = |cca, link, flows, stagger_ms, secs| {
        let stagger = Duration::from_millis(stagger_ms);
        RunSpec::staggered(cca, link, flows, stagger, secs, args.seed)
    };

    // Single-run event loop: one flow and a heavy eight-flow run.
    let (wall_ms, thr) = timed(secs as f64, || {
        run(&store, &single(wired_link(24.0)), SimConfig::default());
    });
    benches.push(Bench {
        name: "single_run_cubic",
        wall_ms,
        sim_secs_per_sec: thr,
    });
    let long_secs = args.scaled(60, 10);
    let (wall_ms, thr) = timed(long_secs as f64, || {
        let spec = fleet(Cca::Cubic, wired_link(96.0), 8, 1000, long_secs);
        run(&store, &spec, SimConfig::default());
    });
    benches.push(Bench {
        name: "eight_flow_run_cubic",
        wall_ms,
        sim_secs_per_sec: thr,
    });
    // Thousand-flow engine: 1000 cubic flows sharing one bottleneck,
    // starts spread over the first 10 s. The headline scale target for
    // the timer-wheel core + slab pool (floor: 25 sim-secs/sec).
    let tf_secs = args.scaled(20, 8);
    let (wall_ms, thr) = timed(tf_secs as f64, || {
        let spec = fleet(Cca::Cubic, wired_link(96.0), 1000, 10, tf_secs);
        run(&store, &spec, SimConfig::default());
    });
    benches.push(Bench {
        name: "thousand_flow",
        wall_ms,
        sim_secs_per_sec: thr,
    });
    // Incast fan-in: 256 synchronized flows into a fast short-RTT
    // bottleneck (the zoo's `zoo-incast-fanin-256` shape) — dense
    // same-instant event ties and deep queue occupancy.
    let incast_secs = args.scaled(10, 4);
    let (wall_ms, thr) = timed(incast_secs as f64, || {
        let link = LinkConfig::constant(
            libra_types::Rate::from_mbps(1000.0),
            Duration::from_millis(2),
            4.0,
        );
        let spec = fleet(Cca::Cubic, link, 256, 0, incast_secs);
        run(&store, &spec, SimConfig::default());
    });
    benches.push(Bench {
        name: "incast_fanin_256",
        wall_ms,
        sim_secs_per_sec: thr,
    });
    // The same fan-in sharded 8 ways over the supervised worker pool:
    // 8 independent 32-flow bottlenecks, index-ordered merge. Total
    // simulated time is secs × shards.
    let incast_plan = libra_bench::ShardPlan::fan_in(
        "incast-sharded",
        Cca::Cubic,
        &libra_bench::ScenarioSpec::new(
            "incast-shard",
            libra_bench::LinkSpec::Constant {
                mbps: 1000.0,
                rtt_ms: 2,
                bdp_mult: 4.0,
                loss: 0.0,
            },
            incast_secs,
        ),
        256,
        8,
        args.seed,
    );
    let shard_policy = SweepPolicy::default();
    let (wall_ms, thr) = timed((incast_secs * 8) as f64, || {
        libra_bench::run_sharded_with(&store, &incast_plan, worker_count().max(4), &shard_policy);
    });
    benches.push(Bench {
        name: "incast_sharded_8x32",
        wall_ms,
        sim_secs_per_sec: thr,
    });
    // Same single-flow run with structured tracing enabled: the delta
    // vs `single_run_cubic` prices event recording end-to-end.
    let (wall_ms, thr) = timed(secs as f64, || {
        run(&store, &single(wired_link(24.0)), SimConfig::traced());
    });
    benches.push(Bench {
        name: "single_run_cubic_traced",
        wall_ms,
        sim_secs_per_sec: thr,
    });
    // The identical run under CoDel and PIE: the delta vs
    // `single_run_cubic` prices the AQM control laws. Droptail keeps its
    // zero-cost fast path (the discipline dispatch is a static enum
    // match), so `single_run_cubic` itself is the hot-path pin; these two
    // bound the overhead the scenario zoo's AQM variants add.
    let (wall_ms, thr) = timed(secs as f64, || {
        let link = wired_link(24.0).with_queue(QueueConfig::codel_default());
        run(&store, &single(link), SimConfig::default());
    });
    benches.push(Bench {
        name: "single_run_cubic_codel",
        wall_ms,
        sim_secs_per_sec: thr,
    });
    let (wall_ms, thr) = timed(secs as f64, || {
        let link = wired_link(24.0).with_queue(QueueConfig::pie_default());
        run(&store, &single(link), SimConfig::default());
    });
    benches.push(Bench {
        name: "single_run_cubic_pie",
        wall_ms,
        sim_secs_per_sec: thr,
    });
    // Thousand-flow RL serving: a fleet of Aurora flows driving one
    // shared eval policy at the paper's network geometry (two 512-unit
    // hidden layers — `paper_eval_agent`, seed-initialized since
    // serving cost is weight-independent), MI ticks quantized to a
    // 10 ms grid so concurrent flows land on shared decision ticks.
    // The unbatched entry runs one matrix-vector forward per flow per
    // decision, re-streaming the ~2 MB weight matrices for every row;
    // the batched entry routes the same decisions through the shared
    // PolicyServer — one matrix-matrix forward per tick amortizes each
    // weight read across the whole batch, bit-identically (see
    // crates/bench/tests/policy_server.rs). The pair prices ROADMAP
    // item 2's batching win — `meta.policy_batch_speedup` must stay ≥2.
    let rl_secs = args.scaled(20, 6);
    let rl_flows = if args.quick { 200 } else { 1000 };
    let quantum = Duration::from_millis(10);
    let serve_cfg = RlCcaConfig::aurora();
    let serve_agent = libra_bench::paper_eval_agent(&serve_cfg, args.seed ^ 0x5E21);
    // Train/restore the singleton entry's agent outside the timers.
    let _ = Cca::CLibra(Preference::Default).shared_eval_agent(&store);
    let serve_spec = fleet(Cca::Aurora, wired_link(96.0), rl_flows, 10, rl_secs);
    let on_grid = || SimConfig::default().with_mi_quantum(quantum);
    let (rl_seq_ms, thr) = timed(rl_secs as f64, || {
        run_with_agent(&store, &serve_spec, on_grid(), &serve_agent);
    });
    benches.push(Bench {
        name: "thousand_flow_rl",
        wall_ms: rl_seq_ms,
        sim_secs_per_sec: thr,
    });
    let (rl_batch_ms, thr) = timed(rl_secs as f64, || {
        let spec = serve_spec.clone().with_batched();
        run_with_agent(&store, &spec, on_grid(), &serve_agent);
    });
    benches.push(Bench {
        name: "thousand_flow_rl_batched",
        wall_ms: rl_batch_ms,
        sim_secs_per_sec: thr,
    });
    let policy_batch_speedup = if rl_batch_ms > 0.0 {
        rl_seq_ms / rl_batch_ms
    } else {
        0.0
    };
    // One C-Libra flow through the server: the degenerate batch-of-one
    // pins the submit/resolve + dispatch overhead a singleton pays over
    // inline inference.
    let solo_libra = fleet(
        Cca::CLibra(Preference::Default),
        wired_link(24.0),
        1,
        0,
        secs,
    );
    let (wall_ms, thr) = timed(secs as f64, || {
        run(&store, &solo_libra.clone().with_batched(), on_grid());
    });
    benches.push(Bench {
        name: "single_run_libra_batched",
        wall_ms,
        sim_secs_per_sec: thr,
    });
    // The batched fleet again with the standard fault plan armed at the
    // policy boundary: every fault kind fires in its staggered window
    // (the transient weight corruption restores before the run ends).
    // The delta vs `thousand_flow_rl_batched` prices the armed injection
    // state plus the degradation ladder on affected flows —
    // `meta.fault_path_overhead` pins it; faults-off stays zero-cost by
    // construction (the server holds no injection state at all).
    let fault_plan = PolicyChaosSpec::standard(args.seed, rl_secs);
    let (rl_fault_ms, thr) = timed(rl_secs as f64, || {
        let spec = serve_spec.clone().with_policy_faults(fault_plan.clone());
        run_with_agent(&store, &spec, on_grid(), &serve_agent);
    });
    benches.push(Bench {
        name: "thousand_flow_rl_faulted",
        wall_ms: rl_fault_ms,
        sim_secs_per_sec: thr,
    });
    let fault_path_overhead = if rl_batch_ms > 0.0 {
        rl_fault_ms / rl_batch_ms
    } else {
        0.0
    };
    // One C-Libra flow with NaN actions forced the whole run: the first
    // decision already fails validation with no cached action to ride,
    // so the flow spends the entire run pinned to the classic CCA —
    // the fully-degraded floor of the ladder.
    let nan_plan = PolicyChaosSpec::new(args.seed).with("nan-action", 0, secs * 1000, 1.0);
    let (wall_ms, thr) = timed(secs as f64, || {
        let spec = solo_libra.clone().with_policy_faults(nan_plan.clone());
        run(&store, &spec, on_grid());
    });
    benches.push(Bench {
        name: "single_run_libra_degraded",
        wall_ms,
        sim_secs_per_sec: thr,
    });

    // full_report-shaped sweep, sequential vs parallel.
    let jobs = grid(secs, args.seed, repeats);
    let total_sim_secs = (jobs.len() as u64 * secs) as f64;
    let run_grid = |workers: usize| {
        parallel_map_with(grid(secs, args.seed, repeats), workers, |(cca, link, s)| {
            run(
                &store,
                &RunSpec::single(cca, link, secs, s),
                SimConfig::default(),
            );
        })
    };
    let workers = worker_count().max(4);
    eprintln!(
        "perf_smoke: {} jobs x {secs}s sim, 1 vs {workers} workers",
        jobs.len()
    );
    let (seq_ms, seq_thr) = timed(total_sim_secs, || {
        run_grid(1);
    });
    benches.push(Bench {
        name: "full_report_subset_1worker",
        wall_ms: seq_ms,
        sim_secs_per_sec: seq_thr,
    });
    let (par_ms, par_thr) = timed(total_sim_secs, || {
        run_grid(workers);
    });
    benches.push(Bench {
        name: "full_report_subset_parallel",
        wall_ms: par_ms,
        sim_secs_per_sec: par_thr,
    });
    let speedup = if par_ms > 0.0 { seq_ms / par_ms } else { 0.0 };

    // Supervised vs bare sweep on an identical spec list: prices panic
    // isolation, the claim engine, and armed watchdog budgets on the
    // clean path (no faults fire). The pair must stay within noise of
    // each other — supervision is meant to be free when nothing breaks.
    let sup_specs: Vec<RunSpec> = [Cca::Cubic, Cca::Bbr, Cca::Copa]
        .iter()
        .flat_map(|&cca| {
            (0..repeats.max(2))
                .map(move |k| RunSpec::single(cca, wired_link(24.0), secs, args.seed * 11 + k))
        })
        .collect();
    let sup_sim_secs = (sup_specs.len() as u64 * secs) as f64;
    let (bare_ms, bare_thr) = timed(sup_sim_secs, || {
        run_sweep_with(&store, sup_specs.clone(), workers);
    });
    benches.push(Bench {
        name: "sweep_pair_bare",
        wall_ms: bare_ms,
        sim_secs_per_sec: bare_thr,
    });
    let policy = SweepPolicy::default();
    let (sup_ms, sup_thr) = timed(sup_sim_secs, || {
        run_sweep_supervised_with(&store, sup_specs.clone(), workers, &policy, None, None);
    });
    benches.push(Bench {
        name: "sweep_pair_supervised",
        wall_ms: sup_ms,
        sim_secs_per_sec: sup_thr,
    });
    let supervised_overhead = if bare_ms > 0.0 { sup_ms / bare_ms } else { 0.0 };

    let mut json = String::from("{\n");
    for b in &benches {
        let _ = writeln!(
            json,
            "  \"{}\": {{\"wall_ms\": {:.1}, \"sim_secs_per_sec\": {:.1}}},",
            b.name, b.wall_ms, b.sim_secs_per_sec
        );
    }
    // Record the host's core count next to the speedup: on a 1-core
    // host the sweep cannot beat sequential no matter the worker count,
    // so a reader needs both numbers to interpret the ratio.
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let _ = writeln!(
        json,
        "  \"meta\": {{\"workers\": {workers}, \"jobs\": {}, \"available_cpus\": {cpus}, \"full_report_speedup\": {speedup:.2}, \"supervised_overhead\": {supervised_overhead:.2}, \"policy_batch_speedup\": {policy_batch_speedup:.2}, \"fault_path_overhead\": {fault_path_overhead:.2}}}\n}}",
        jobs.len()
    );
    let path = std::env::var("LIBRA_BENCH_OUT").unwrap_or_else(|_| "BENCH_netsim.json".into());
    match std::fs::write(&path, &json) {
        Ok(()) => eprintln!("[artifact] {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
    print!("{json}");
    eprintln!("perf_smoke: sweep speedup {speedup:.2}x at {workers} workers ({cpus} cpus)");
    eprintln!("perf_smoke: supervised/bare sweep wall ratio {supervised_overhead:.2}x");
    eprintln!("perf_smoke: policy-server batching speedup {policy_batch_speedup:.2}x");
    eprintln!("perf_smoke: fault-path wall overhead {fault_path_overhead:.2}x");
}
