//! The traced pass: the same workloads run again with every controller
//! and the policy server decorated and the counting allocator armed,
//! next to untraced reference iterations that price the tracing itself.
//!
//! Shares are of the traced wall time and sum to one by construction:
//! `netsim.self_share` is what the decorated layers leave over.

use crate::alloc;
use crate::estimate::quantile;
use crate::metrics::Board;
use crate::workloads::{
    ledger_balances, summary_digest, Fleet, Iteration, Kind, Layer, Policy, Probe, Sweep, Tally,
    SWEEP_WORKERS,
};
use libra_bench::{merged_slots_json, run_spec_budgeted, RunSummary, SweepPolicy};
use libra_core::Libra;
use libra_netsim::{FlowConfig, FlowReport, SimConfig, Simulation};
use libra_types::Instant;
use std::time::Instant as Wall;

/// Traced iterations per run, at most.
const TRACED_ITERATIONS: usize = 5;
/// Share of a fleet's traced pass spent on untraced reference
/// iterations; the decorated ones get the rest.
const REFERENCE_SHARE: f64 = 0.35;
/// Share of the sweep's traced pass each untraced sweep (two workers,
/// then one) may take; the solo passes are fixed work.
const SWEEP_SHARE: f64 = 0.15;
/// Above this the traced rows describe the tracing, not the program.
const MAX_OVERHEAD: f64 = 1.3;

/// Libra's own accounting, summed over the flows that run it.
#[derive(Default)]
struct LibraTotals {
    cycles: u64,
    rl_decisions: u64,
    guardrail_trips: u64,
    /// Cycle-weighted `(prev, rl, classic)` winner fractions.
    won: [f64; 3],
    logged: f64,
}

impl LibraTotals {
    fn add<'a>(&mut self, flows: impl IntoIterator<Item = &'a FlowReport>) {
        for flow in flows {
            let Some(libra) = flow.cca.as_any().and_then(|a| a.downcast_ref::<Libra>()) else {
                continue;
            };
            self.cycles += libra.cycles();
            self.rl_decisions += libra.rl_decisions();
            self.guardrail_trips += libra.guardrail_trips();
            let n = libra.log().len() as f64;
            let (prev, rl, classic) = libra.log().fractions();
            for (sum, frac) in self.won.iter_mut().zip([prev, rl, classic]) {
                *sum += frac * n;
            }
            self.logged += n;
        }
    }

    fn book(&self, board: &mut Board) {
        board.set("core.cycles", self.cycles as f64);
        board.set("core.rl_decisions", self.rl_decisions as f64);
        board.set("core.guardrail_trips", self.guardrail_trips as f64);
        let share = |sum: f64| {
            if self.logged > 0.0 {
                sum / self.logged
            } else {
                0.0
            }
        };
        board.set("core.frac_prev", share(self.won[0]));
        board.set("core.frac_rl", share(self.won[1]));
        board.set("core.frac_classic", share(self.won[2]));
    }
}

/// What a traced pass measured around the program, ready to be booked.
#[derive(Default)]
struct Traced {
    /// Traced iterations the accumulators cover.
    iterations: u64,
    /// Host nanoseconds of those iterations.
    wall_ns: f64,
    /// Nanoseconds inside the policy server's `evaluate`.
    policy_ns: f64,
    /// Per iteration: packets acknowledged, lost, dropped at the tail.
    acked: u64,
    lost: u64,
    tail_drops: u64,
    /// `FlowReport::compute_ns` summed over the covered iterations.
    compute_ns: u64,
    allocs: alloc::AllocCount,
}

/// Book the controller layers, the event core's remainder and the
/// allocation counts.
fn book_layers(probe: &Probe, t: &Traced, board: &mut Board) {
    let mut decorated_ns = t.policy_ns;
    let mut mi_calls = 0u64;
    for (layer, stats) in probe.layers() {
        let name = layer.name();
        let per_iter = |calls: u64| (calls / t.iterations) as f64;
        board.set(&format!("{name}.ack_calls"), per_iter(stats.ack.calls()));
        board.set(&format!("{name}.loss_calls"), per_iter(stats.loss.calls()));
        board.set(&format!("{name}.mi_calls"), per_iter(stats.mi.calls()));
        board.set(&format!("{name}.ack_ns"), stats.ack.mean_ns());
        board.set(&format!("{name}.mi_ns"), stats.mi.mean_ns());
        board.set(&format!("{name}.busy_share"), stats.busy_ns() / t.wall_ns);
        decorated_ns += stats.busy_ns();
        mi_calls += stats.mi.calls() / t.iterations;
    }
    board.set("rl.policy.busy_share", t.policy_ns / t.wall_ns);

    let self_share = 1.0 - decorated_ns / t.wall_ns;
    let acked = t.acked.max(1) as f64;
    board.set("netsim.pkts_acked", t.acked as f64);
    board.set("netsim.pkts_lost", t.lost as f64);
    board.set("netsim.tail_drops", t.tail_drops as f64);
    board.set("netsim.mi_per_pkt", mi_calls as f64 / acked);
    board.set("netsim.self_share", self_share);
    board.set(
        "netsim.self_ns_per_pkt",
        self_share * t.wall_ns / (acked * t.iterations as f64),
    );
    let pkts = acked * t.iterations as f64;
    board.set(
        "netsim.run.allocs_per_kpkt",
        t.allocs.allocs as f64 / (pkts / 1e3),
    );
    board.set(
        "netsim.run.alloc_bytes_per_pkt",
        t.allocs.bytes as f64 / pkts,
    );
    // `compute_ns` covers the same calls from one frame further in:
    // every controller callback, plus each flow's share of the policy
    // server's batches.
    if t.compute_ns > 0 {
        board.set("recon.compute", decorated_ns / t.compute_ns as f64);
    }
}

fn allocs_since(before: alloc::AllocCount) -> alloc::AllocCount {
    let now = alloc::count();
    alloc::AllocCount {
        allocs: now.allocs - before.allocs,
        bytes: now.bytes - before.bytes,
    }
}

fn book_overhead(traced_s: f64, plain_s: f64, board: &mut Board) {
    let ratio = traced_s / plain_s;
    board.set("trace.overhead_ratio", ratio);
    if ratio > MAX_OVERHEAD {
        eprintln!(
            "WARNING tracing overhead {ratio:.2} exceeds {MAX_OVERHEAD}: \
             the traced rows describe the tracing"
        );
    }
}

/// The traced pass of a fleet workload, inside `budget_s` host seconds.
pub fn trace_fleet(fleet: &Fleet, budget_s: f64, board: &mut Board, tally: &mut Tally) {
    // Untraced reference: one warm-up, then timed iterations.
    let (reference, ..) = fleet.iterate(None);
    tally.note(&reference, 1);
    let mut plain_s = f64::INFINITY;
    let t0 = Wall::now();
    loop {
        let (mut it, ..) = fleet.iterate(None);
        it.check_against(&reference.digests);
        tally.note(&it, 1);
        plain_s = plain_s.min(it.wall_s);
        if t0.elapsed().as_secs_f64() >= budget_s * REFERENCE_SHARE {
            break;
        }
    }

    let probe = Probe::default();
    let mut t = Traced {
        acked: reference.acked,
        allocs: alloc::count(),
        ..Traced::default()
    };
    let mut traced_s = f64::INFINITY;
    let mut ticks: Vec<f64> = Vec::new();
    let mut served = [0u64; 4];
    let mut libra = LibraTotals::default();
    let t0 = Wall::now();
    while (t.iterations as usize) < TRACED_ITERATIONS {
        alloc::arm();
        let (mut it, report, policy) = fleet.iterate(Some(&probe));
        alloc::disarm();
        // Bit-equal digests prove the decorators changed nothing.
        it.check_against(&reference.digests);
        if let Policy::Timed(timed) = &policy {
            let timed = timed.borrow();
            if timed.bad_actions() != 0 {
                it.failures
                    .push(format!("{} policy actions not finite", timed.bad_actions()));
            }
            ticks.extend(timed.tick_ns());
        }
        tally.note(&it, 1);
        traced_s = traced_s.min(it.wall_s);
        t.iterations += 1;
        t.wall_ns += it.wall_s * 1e9;
        t.compute_ns += report.flows.iter().map(|f| f.compute_ns).sum::<u64>();
        if t.iterations == 1 {
            // Exact counts: the same every iteration, read once.
            t.lost = report.flows.iter().map(|f| f.lost_packets).sum();
            t.tail_drops = report.link.tail_drops;
            served = policy.counters();
            libra.add(&report.flows);
        }
        if t0.elapsed().as_secs_f64() >= budget_s * (1.0 - REFERENCE_SHARE) {
            break;
        }
    }
    t.allocs = allocs_since(t.allocs);
    t.policy_ns = ticks.iter().sum();

    book_layers(&probe, &t, board);
    libra.book(board);
    book_overhead(traced_s, plain_s, board);

    let [batches, rows, max_batch, quarantines] = served;
    board.set("rl.policy.batches", batches as f64);
    board.set("rl.policy.rows", rows as f64);
    board.set("rl.policy.max_batch", max_batch as f64);
    board.set("rl.policy.quarantines", quarantines as f64);
    if rows > 0 {
        board.set("rl.policy.mean_batch", rows as f64 / batches as f64);
        board.set(
            "rl.policy.us_per_row",
            t.policy_ns / 1e3 / (rows * t.iterations) as f64,
        );
        ticks.sort_by(f64::total_cmp);
        board.set("rl.policy.tick_us_p50", quantile(&ticks, 0.5) / 1e3);
        board.set("rl.policy.tick_us_p99", quantile(&ticks, 0.99) / 1e3);
    }
}

/// After the drivers ran: does a driver's per-call cost land near what
/// the traced pass measured for the same call inside a run? A ratio
/// outside `[0.5, 2]` says the driver's operation stream is not the
/// workload's. Reported, never gated.
pub fn reconcile(kind: Kind, board: &mut Board) {
    let in_band = |name: &str, ratio: f64| {
        if ratio > 0.0 && !(0.5..=2.0).contains(&ratio) {
            eprintln!("WARNING {name} = {ratio:.2}: driver and traced run disagree");
        }
    };
    // `(row, driver's cost, traced cost of the same call)`. Only the two
    // CUBIC-only fleets have a classic layer the CUBIC driver can speak
    // for.
    let cubic_only = matches!(kind, Kind::ClassicFleet | Kind::IncastBurst);
    let pairs = [
        (
            "recon.classic",
            "classic.cubic.ack_ns",
            "classic.ack_ns",
            cubic_only,
        ),
        (
            "recon.policy",
            "rl.policy.evaluate.b32.us_per_row",
            "rl.policy.us_per_row",
            true,
        ),
    ];
    for (row, driver, traced, applies) in pairs {
        let (driver, traced) = (board.get(driver), board.get(traced));
        if applies && traced > 0.0 {
            board.set(row, driver / traced);
            in_band(row, driver / traced);
        }
    }
    in_band("recon.compute", board.get("recon.compute"));
}

/// The traced pass of the sweep workload. The supervised sweep builds
/// its own controllers, so attribution comes from running every spec
/// alone: once through `run_spec_budgeted` (job times), once built by
/// hand around a decorated controller (layer shares).
pub fn trace_sweep(sweep: &Sweep, budget_s: f64, board: &mut Board, tally: &mut Tally) {
    let jobs = sweep.specs.len() as u64;
    // Fastest of the sweeps that fit in the budget's share, with its
    // merged output and attempt counts.
    let best_of = |workers: usize, tally: &mut Tally, reference: &Iteration| {
        let t0 = Wall::now();
        let mut best: Option<(f64, String, Vec<u64>)> = None;
        loop {
            let (report, wall_s) = sweep.run(workers);
            let mut it = Sweep::summarize(&report, wall_s);
            it.check_against(&reference.digests);
            tally.note(&it, jobs);
            if best.as_ref().is_none_or(|b| wall_s < b.0) {
                best = Some((wall_s, merged_slots_json(&report), report.attempts));
            }
            if t0.elapsed().as_secs_f64() >= budget_s * SWEEP_SHARE {
                break;
            }
        }
        best.expect("at least one sweep ran")
    };

    // Untraced sweeps: a warm-up, then two workers, then one.
    let warm_up = sweep.iterate();
    tally.note(&warm_up, jobs);
    let (wall_2w, json_2w, attempts) = best_of(SWEEP_WORKERS, tally, &warm_up);
    let (wall_1w, json_1w, _) = best_of(1, tally, &warm_up);
    if json_1w != json_2w {
        tally.broke("merged sweep output differs between 1 and 2 workers");
    }

    // Every spec alone, as the sweep runs it; the faster of two passes.
    let budget = SweepPolicy::default().sim_budget;
    let mut solo_ms = vec![f64::INFINITY; sweep.specs.len()];
    let mut solo_digests = vec![0; sweep.specs.len()];
    for _ in 0..2 {
        for (job, spec) in sweep.specs.iter().enumerate() {
            let t0 = Wall::now();
            let summary = run_spec_budgeted(&sweep.store, spec, budget.clone());
            solo_ms[job] = solo_ms[job].min(t0.elapsed().as_secs_f64() * 1e3);
            solo_digests[job] = summary_digest(&summary);
        }
    }
    let solo_s: f64 = solo_ms.iter().sum::<f64>() / 1e3;
    if solo_digests != warm_up.digests {
        tally.broke("specs run alone digest differently from the sweep's slots");
    }

    // Every spec alone again, built by hand around a decorated
    // controller — what `run_spec` does for a single-flow spec.
    let probe = Probe::default();
    let mut t = Traced {
        iterations: 1,
        allocs: alloc::count(),
        ..Traced::default()
    };
    let mut libra = LibraTotals::default();
    let mut digests = Vec::with_capacity(sweep.specs.len());
    let mut failures = Vec::new();
    for (job, spec) in sweep.specs.iter().enumerate() {
        let until = Instant::from_secs(spec.secs);
        let cfg = SimConfig {
            budget: budget.clone(),
            ..SimConfig::default()
        };
        alloc::arm();
        let t0 = Wall::now();
        let mut sim = Simulation::with_config(spec.link.clone(), spec.seed, cfg);
        let cca = crate::timed::TimedCca::wrap(
            spec.cca.build(&sweep.store),
            probe.layer(Layer::of(spec.cca)),
        );
        sim.add_flow(FlowConfig::whole_run(cca, until));
        let report = sim.run(until);
        t.wall_ns += t0.elapsed().as_nanos() as f64;
        alloc::disarm();
        if !ledger_balances(&report) {
            failures.push(format!("job {job}: queue ledger does not balance"));
        }
        t.acked += report.flows[0].acked_packets;
        t.lost += report.flows[0].lost_packets;
        t.tail_drops += report.link.tail_drops;
        t.compute_ns += report.flows[0].compute_ns;
        libra.add(&report.flows);
        digests.push(summary_digest(&RunSummary::from_report(
            &spec.label,
            &report,
        )));
    }
    t.allocs = allocs_since(t.allocs);
    let mut decorated = Iteration {
        wall_s: t.wall_ns / 1e9,
        acked: t.acked,
        digests,
        failures,
    };
    // Bit-equal digests prove the decorators changed nothing.
    decorated.check_against(&warm_up.digests);
    tally.note(&decorated, jobs);

    book_layers(&probe, &t, board);
    libra.book(board);
    book_overhead(decorated.wall_s, solo_s, board);

    solo_ms.sort_by(f64::total_cmp);
    board.set("bench.sweep.jobs", jobs as f64);
    board.set("bench.sweep.failed", tally.failed as f64);
    board.set("bench.sweep.attempts", attempts.iter().sum::<u64>() as f64);
    board.set("bench.sweep.job_ms_p50", quantile(&solo_ms, 0.5));
    board.set("bench.sweep.job_ms_max", quantile(&solo_ms, 1.0));
    board.set(
        "bench.sweep.overhead_us_per_job",
        (wall_1w - solo_s) * 1e6 / jobs as f64,
    );
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cpus >= SWEEP_WORKERS {
        board.set("bench.sweep.speedup_2w", wall_1w / wall_2w);
        board.set(
            "bench.sweep.worker_util",
            solo_s / (SWEEP_WORKERS as f64 * wall_2w),
        );
    } else {
        eprintln!(
            "NOTE {cpus} cpu available: bench.sweep.speedup_2w and worker_util are unmeasured (0)"
        );
    }
}
