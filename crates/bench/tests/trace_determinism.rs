//! Structured-trace acceptance tests:
//!
//! 1. **Reconstruction** — a traced two-flow C-Libra run emits one
//!    `CycleDecision` event per `CycleLog` record with identical fields
//!    (winner, utilities, rate, early-exit), and no event in the stream
//!    carries a non-finite float.
//! 2. **Worker-count byte-identity** — the merged JSONL of a traced
//!    sweep is byte-identical for 1 vs N workers (index-ordered merge +
//!    the deterministic `(at_ns, source, emit order)` sort key).

use libra_bench::{
    run, run_sweep_supervised_with, trace_to_jsonl, validate_finite, Cca, ModelStore, RunSpec,
    SweepPolicy,
};
use libra_core::Libra;
use libra_netsim::{LinkConfig, SimConfig};
use libra_types::{CandidateKind, Duration, Preference, Rate, TraceEvent};

fn wired(mbps: f64) -> LinkConfig {
    LinkConfig::constant(Rate::from_mbps(mbps), Duration::from_millis(40), 1.0)
}

/// The fixed-seed two-flow C-Libra acceptance run: every cycle decision
/// in the trace must reconstruct its `CycleLog` record exactly.
#[test]
fn traced_run_reconstructs_cycle_log() {
    let store = ModelStore::ephemeral(9);
    let cca = Cca::CLibra(Preference::Default);
    let spec = RunSpec::pair(cca, cca, wired(24.0), 20, 77);
    let report = run(&store, &spec, SimConfig::traced());
    assert_eq!(report.flows.len(), 2);
    for (fi, flow) in report.flows.iter().enumerate() {
        assert_eq!(flow.trace_dropped, 0, "flow {fi}: ring buffer overflowed");
        validate_finite(&flow.trace).expect("non-finite value in trace");
        let libra = flow
            .cca
            .as_any()
            .and_then(|a| a.downcast_ref::<Libra>())
            .expect("downcast");
        let records = libra.log().records();
        assert!(records.len() > 10, "flow {fi}: too few cycles");
        let decisions: Vec<&TraceEvent> = flow
            .trace
            .iter()
            .filter(|e| matches!(e, TraceEvent::CycleDecision { .. }))
            .collect();
        assert_eq!(
            decisions.len(),
            records.len(),
            "flow {fi}: one decision event per cycle record"
        );
        for (rec, ev) in records.iter().zip(&decisions) {
            let TraceEvent::CycleDecision {
                flow: f,
                at_ns,
                candidates,
                u_prev,
                winner,
                rate_mbps,
                early_exit,
            } = ev
            else {
                unreachable!()
            };
            assert_eq!(*f, fi as u32);
            assert_eq!(*at_ns, rec.at.nanos());
            assert_eq!(*u_prev, rec.u_prev);
            assert_eq!(*winner, rec.winner);
            assert_eq!(*rate_mbps, rec.rate_mbps);
            assert_eq!(*early_exit, rec.early_exit);
            // Per-candidate measured utilities match the record's.
            let measured = |kind: CandidateKind| {
                candidates
                    .iter()
                    .find(|c| c.kind == kind)
                    .and_then(|c| c.utility)
            };
            assert_eq!(measured(CandidateKind::Classic), rec.u_classic);
            assert_eq!(measured(CandidateKind::Learned), rec.u_learned);
        }
    }
}

/// The merged JSONL of a traced sweep is byte-identical for any worker
/// count — the artifact a post-processing pipeline would consume.
#[test]
fn traced_sweep_jsonl_is_byte_identical_across_workers() {
    let specs = || {
        vec![
            RunSpec::pair(
                Cca::CLibra(Preference::Default),
                Cca::Cubic,
                wired(24.0),
                5,
                31,
            )
            .with_trace(),
            RunSpec::single(Cca::Cubic, wired(12.0), 5, 32).with_trace(),
        ]
    };
    let jsonl = |workers: usize| {
        let store = ModelStore::ephemeral(5);
        run_sweep_supervised_with(
            &store,
            specs(),
            workers,
            &SweepPolicy::default(),
            None,
            None,
        )
        .slots
        .iter()
        .map(|s| trace_to_jsonl(&s.as_ref().expect("clean run").trace))
        .collect::<Vec<_>>()
        .join("---\n")
    };
    let sequential = jsonl(1);
    assert!(!sequential.is_empty());
    assert!(sequential.contains('{'), "no events recorded");
    for workers in [2, 4] {
        assert_eq!(sequential, jsonl(workers), "diverged at workers={workers}");
    }
}
