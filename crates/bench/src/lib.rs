// Production code must justify every potential panic site: unwraps are
// banned outside tests (audited sites use `expect` with an invariant
// message or handle the `None`/`Err` branch).
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

//! `libra-bench`: the experiment harness behind every table and figure of
//! the paper's evaluation.
//!
//! * [`registry`] — one factory per CCA in the comparison.
//! * [`models`] — trained-PPO-weight cache (`target/models/`).
//! * [`spec`] — the declarative, serde-round-trippable scenario corpus:
//!   the figures' named link recipes (wired, LTE, step, WAN, sweeps) and
//!   the zoo behind `scenario_registry` and the adversarial search.
//! * [`search`] — adversarial scenario search: seeded mutation of corpus
//!   specs toward low-utility / unfair / guardrail-tripping runs.
//! * [`policychaos`] — serde-round-trippable policy-boundary fault
//!   plans, compiled into `libra_types::PolicyFaultPlan` at run build.
//! * [`mod@run`] — the one run path: `RunSpec` (controller × link × flow
//!   layout × seed), `Workload::slots` (the one flow layout) and `run`
//!   (the one `Simulation` builder).
//! * [`summary`] — the serializable `RunSummary` of a finished run, its
//!   headline `RunMetrics`, and Tab. 5's convergence statistics.
//! * [`sweep`] — deterministic parallel fan-out of independent runs
//!   (`LIBRA_JOBS` workers, results merged in job order).
//! * [`supervisor`] — panic isolation, per-job budgets, bounded retries
//!   with deterministic backoff, and `Result`-shaped merged slots.
//! * [`journal`] — append-only JSONL checkpoint journal behind
//!   `--resume` (one flushed line per completed job).
//! * [`output`] — aligned tables + CSV artifacts (`target/experiments/`).
//!
//! Each figure/table has a binary (`fig01_adaptability`, …,
//! `fig19_tab07_sensitivity`, `appendix_equilibrium`) that regenerates
//! the corresponding rows/series; see DESIGN.md's experiment index and
//! EXPERIMENTS.md for paper-vs-measured results.

pub mod journal;
pub mod models;
pub mod output;
pub mod policychaos;
pub mod registry;
pub mod run;
pub mod search;
pub mod shard;
pub mod spec;
pub mod summary;
pub mod supervisor;
pub mod sweep;
pub mod tracing;

pub use journal::{fnv1a, journal_dir, spec_digest, Journal, JournalEntry};
pub use models::ModelStore;
pub use output::{f1, f3, pct, series_csv, write_artifact, Table};
pub use policychaos::{PolicyChaosEvent, PolicyChaosSpec};
pub use registry::Cca;
pub use run::{run, run_spec, run_spec_budgeted, FlowSlot, RunSpec, Workload, POLICY_QUANTUM};
pub use search::{
    evaluate_candidate, load_pins, objective_of, pin_failures, search, write_pin, Candidate,
    Objective, PinnedRegression, SearchConfig, SearchOutcome,
};
pub use shard::{run_sharded_with, shard_seed, ShardPlan, ShardedReport};
pub use spec::{
    buffer_sweep_link, cca_from_name, datacenter_spec, fairness_link, fig1_specs,
    fig7_cellular_specs, fig7_wired_specs, fiveg_spec, loss_sweep_link, lte_tmobile_spec,
    satellite_spec, step_spec, wan_specs, zoo_corpus, LinkSpec, LteKind, QueueSpec, ScenarioSpec,
    WorkloadSpec,
};
pub use summary::{convergence_stats, ConvergenceStats, FlowSummary, RunMetrics, RunSummary};
pub use supervisor::{
    merged_slots_json, run_sweep_supervised, run_sweep_supervised_with, slot_from_value,
    slot_to_value, FaultyScenario, SlotResult, SweepPolicy, SweepReport,
};
pub use sweep::{
    parallel_map, parallel_map_with, run_repeated, run_sweep, run_sweep_with, worker_count,
};
pub use tracing::{
    decision_timeline, merged_trace, stage_occupancy, stage_occupancy_table, trace_to_jsonl,
    validate_finite, ALL_STAGES,
};

/// Common CLI knobs for experiment binaries: `--quick` shrinks durations
/// and repeats so a full sweep finishes in seconds (used by CI and the
/// test suite); `--seed N` changes the master seed; `--resume` restores
/// completed jobs from the binary's journal under
/// `target/experiments/journal/` instead of re-running them.
#[derive(Debug, Clone, Copy)]
pub struct BenchArgs {
    /// Reduced-effort mode.
    pub quick: bool,
    /// Master seed.
    pub seed: u64,
    /// Resume from the binary's sweep journal.
    pub resume: bool,
}

impl BenchArgs {
    /// Parse from `std::env::args`.
    pub fn parse() -> Self {
        let mut args = BenchArgs {
            quick: false,
            seed: 1,
            resume: false,
        };
        let mut it = std::env::args().skip(1);
        while let Some(a) = it.next() {
            match a.as_str() {
                "--quick" => args.quick = true,
                "--resume" => args.resume = true,
                "--seed" => {
                    args.seed = it
                        .next()
                        .and_then(|s| s.parse().ok())
                        .expect("--seed needs an integer");
                }
                other => eprintln!("ignoring unknown argument {other}"),
            }
        }
        args
    }

    /// Scale a duration/repeat count down in quick mode.
    pub fn scaled(&self, full: u64, quick: u64) -> u64 {
        if self.quick {
            quick
        } else {
            full
        }
    }
}
