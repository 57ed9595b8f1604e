//! Chaos contracts for the fault-tolerant policy service.
//!
//! 1. **Survival**: under every [`libra_types::PolicyFaultKind`] a
//!    batched fleet finishes without panics, serializes a fully finite
//!    report, and every fault leaves a `PolicyFault` trace witness
//!    carrying the right kind label (`scripts/ci.sh` runs this under
//!    `checked-invariants`, so the wheel's reference heap checks every
//!    pop of every faulted run).
//! 2. **Ladder**: for the kinds that invalidate responses, every
//!    affected flow demonstrably lands on the degradation ladder
//!    (fallback / quarantine / guardrail trace witnesses) instead of
//!    absorbing garbage into its rate.
//! 3. **Determinism**: same-seed faulted sweeps are byte-identical at
//!    1 vs N workers, and a journal resume after a mid-line truncation
//!    reproduces the uninterrupted bytes — including the new fault
//!    counters, which must round-trip through the journal.
//! 4. **Inert plan**: a plan whose windows all open at or after the
//!    run's end is attached but idle, and serializes byte-identically to
//!    the same batched run with no plan.

use libra_bench::{
    merged_slots_json, merged_trace, run, run_spec, run_sweep_supervised_with, validate_finite,
    Cca, Journal, ModelStore, PolicyChaosSpec, RunSpec, RunSummary, SweepPolicy,
};
use libra_netsim::{LinkConfig, SimConfig};
use libra_types::{Duration, Preference, Rate, TraceEvent};
use std::collections::BTreeSet;

fn wired(mbps: f64) -> LinkConfig {
    LinkConfig::constant(Rate::from_mbps(mbps), Duration::from_millis(40), 1.0)
}

/// Every fault kind with the probability its window is armed at.
/// Deterministic kinds conventionally carry 1.0.
const KINDS: &[(&str, f64)] = &[
    ("response-drop", 1.0),
    ("response-delay", 1.0),
    ("nan-action", 1.0),
    ("wrong-dim", 1.0),
    ("stuck-action", 1.0),
    ("weight-corrupt", 1.0),
];

/// Kinds that make responses unusable at resolve time, so the ladder
/// (cached action or classic pin) must demonstrably engage. The
/// remaining kinds serve *valid-but-wrong* actions (stuck, delayed
/// arrivals that still resolve) where the witness is the `PolicyFault`
/// event itself.
const LADDER_KINDS: &[&str] = &["response-drop", "nan-action", "wrong-dim", "weight-corrupt"];

#[test]
fn every_fault_kind_survives() {
    let store = ModelStore::ephemeral(41);
    let secs = 4;
    for &(kind, probability) in KINDS {
        let plan = PolicyChaosSpec::new(77).with(kind, 500, 3500, probability);
        let libra = Cca::CLibra(Preference::Default);
        let spec = RunSpec::staggered(libra, wired(48.0), 6, Duration::from_millis(50), secs, 17)
            .with_policy_faults(plan);
        let report = run(&store, &spec, SimConfig::traced());
        let trace = merged_trace(&report);
        validate_finite(&trace).unwrap_or_else(|e| panic!("{kind}: non-finite trace value: {e}"));

        // Every injected fault leaves a correctly-labelled witness.
        let fault_flows: BTreeSet<u32> = trace
            .iter()
            .filter_map(|e| match e {
                TraceEvent::PolicyFault { flow, fault, .. } => {
                    assert_eq!(fault, kind, "{kind}: fault witness carries wrong label");
                    Some(*flow)
                }
                _ => None,
            })
            .collect();
        assert!(
            !fault_flows.is_empty(),
            "{kind}: armed window injected nothing"
        );

        // The serialized report is finite everywhere (a NaN action
        // absorbed into a rate would surface here as goodput NaN).
        let summary = RunSummary::from_report("chaos", &report);
        for f in &summary.flows {
            assert!(
                f.goodput_mbps.is_finite() && f.rtt_mean_ms.is_finite(),
                "{kind}: non-finite flow metrics in report"
            );
        }
        assert!(summary.jain.is_finite() && summary.utilization.is_finite());
        assert!(
            summary.policy_faults_injected >= fault_flows.len() as u64,
            "{kind}: fault counter lost injections"
        );
        for f in &report.flows {
            assert!(
                f.delivered_bytes > 0,
                "{kind}: {} starved under faults",
                f.name
            );
        }

        // Response-invalidating kinds: every affected flow lands on
        // the ladder (cached action, quarantine, or classic pin).
        if LADDER_KINDS.contains(&kind) {
            let laddered: BTreeSet<u32> = trace
                .iter()
                .filter_map(|e| match e {
                    TraceEvent::Fallback { flow, .. }
                    | TraceEvent::Quarantine { flow, .. }
                    | TraceEvent::Guardrail { flow, .. } => Some(*flow),
                    _ => None,
                })
                .collect();
            for flow in &fault_flows {
                assert!(
                    laddered.contains(flow),
                    "{kind}: flow {flow} was faulted but never \
                     rode the degradation ladder"
                );
            }
        }
    }
}

#[test]
fn inert_plan_matches_no_plan() {
    let store = ModelStore::ephemeral(44);
    let secs = 3;
    let end_ms = secs * 1000;
    let inert = KINDS
        .iter()
        .fold(PolicyChaosSpec::new(77), |plan, &(kind, probability)| {
            plan.with(kind, end_ms, end_ms + 1000, probability)
        });
    let base = RunSpec::staggered(
        Cca::CLibra(Preference::Default),
        wired(48.0),
        6,
        Duration::from_millis(50),
        secs,
        19,
    )
    .with_batched();
    let bare = run_spec(&store, &base);
    let idle = run_spec(&store, &base.clone().with_policy_faults(inert));
    assert_eq!(
        serde_json::to_string(&bare).expect("summary serializes"),
        serde_json::to_string(&idle).expect("summary serializes"),
        "an idle policy plan changed the run"
    );
}

fn faulted_specs(secs: u64) -> Vec<RunSpec> {
    let chaos = PolicyChaosSpec::standard(5, secs);
    vec![
        RunSpec::staggered(
            Cca::CLibra(Preference::Default),
            wired(48.0),
            6,
            Duration::from_millis(50),
            secs,
            21,
        )
        .with_policy_faults(chaos.clone()),
        RunSpec::staggered(
            Cca::Aurora,
            wired(96.0),
            4,
            Duration::from_millis(30),
            secs,
            22,
        )
        .with_policy_faults(chaos.clone()),
        RunSpec::fleet(
            Cca::CLibra(Preference::Default),
            vec![Cca::Cubic, Cca::Bbr],
            wired(48.0),
            secs,
            23,
        )
        .with_policy_faults(chaos),
    ]
}

#[test]
fn faulted_sweeps_are_byte_identical_across_worker_counts() {
    let store = ModelStore::ephemeral(42);
    let specs = faulted_specs(4);
    let sweep = |specs, workers| -> Vec<RunSummary> {
        run_sweep_supervised_with(&store, specs, workers, &SweepPolicy::default(), None, None)
            .slots
            .into_iter()
            .map(|slot| slot.expect("clean run"))
            .collect()
    };
    let one = sweep(specs.clone(), 1);
    let many = sweep(specs, 4);
    assert_eq!(one.len(), many.len());
    let mut injected = 0;
    for (a, b) in one.iter().zip(&many) {
        let ja = serde_json::to_string(a).expect("summary serializes");
        let jb = serde_json::to_string(b).expect("summary serializes");
        assert_eq!(
            ja, jb,
            "{}: faulted run diverged across worker counts",
            a.label
        );
        injected += a.policy_faults_injected;
    }
    assert!(
        injected > 0,
        "standard plan injected nothing across the sweep"
    );
}

#[test]
fn faulted_journal_resume_survives_midline_truncation() {
    let store = ModelStore::ephemeral(43);
    let policy = SweepPolicy::default();
    let jobs = faulted_specs(3);
    let name = format!("policy_chaos_test_{}", std::process::id());

    let mut journal = Journal::for_bin(&name, false).expect("journal opens");
    let path = journal.path().to_path_buf();
    let baseline = merged_slots_json(&run_sweep_supervised_with(
        &store,
        jobs.clone(),
        2,
        &policy,
        None,
        Some(&mut journal),
    ));
    drop(journal);
    assert!(
        baseline.contains("policy_faults_injected"),
        "fault counters missing from journaled slots"
    );

    // Kill the tail mid-line: the resume must skip the torn record,
    // re-run that job, and still merge to identical bytes.
    let text = std::fs::read_to_string(&path).expect("journal readable");
    assert!(text.len() > 10, "journal unexpectedly empty");
    std::fs::write(&path, &text[..text.len() - 10]).expect("journal truncatable");

    let mut journal = Journal::resume(&path).expect("truncated journal resumes");
    assert!(
        journal.len() < jobs.len(),
        "truncation should have torn the last record"
    );
    let resumed = merged_slots_json(&run_sweep_supervised_with(
        &store,
        jobs,
        2,
        &policy,
        None,
        Some(&mut journal),
    ));
    drop(journal);
    assert_eq!(
        baseline, resumed,
        "journal resume after mid-line truncation diverged"
    );
    let _ = std::fs::remove_file(&path);
}
