//! Supervised sweep execution: panic isolation, per-job budgets,
//! bounded retries with deterministic backoff, and journaled
//! checkpoint-resume.
//!
//! The claim engine in [`crate::sweep`] fans jobs out and merges them in
//! job order, but neither retries nor checkpoints. This module wraps
//! each job in a per-attempt `catch_unwind`, classifies
//! whatever comes out into the [`JobError`] taxonomy, retries with
//! decorrelated-jitter backoff seeded from the job's own deterministic
//! RNG (so a rerun of the same campaign retries identically), and
//! merges `Result`-shaped slots so partial campaigns are first-class.
//! [`run_figure`] is the figure binaries' one entry point: each binary
//! runs its whole spec list as one journaled sweep.
//!
//! Failure classification is shared between real and injected faults: a
//! simulator watchdog aborts by panicking with a
//! [`BudgetTrip`](libra_netsim::BudgetTrip) payload, and the test-only
//! [`FaultyScenario`] hook injects the exact same payloads, so the
//! supervisor cannot special-case chaos.

use crate::journal::{spec_digest, Journal};
use crate::models::ModelStore;
use crate::run::{run_spec_budgeted, RunSpec};
use crate::summary::RunSummary;
use crate::sweep::{claim_map, warm_models, worker_count, JobVerdict};
use crate::BenchArgs;
use libra_netsim::{BudgetKind, BudgetTrip, SimBudget};
use libra_types::{DetRng, JobError, JobFailure};
use serde::{Serialize, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Mutex;

/// One merged slot of a supervised sweep: the run's summary, or the
/// typed failure that exhausted its retry budget.
pub type SlotResult = Result<RunSummary, JobFailure>;

/// Retry/budget policy for one supervised sweep.
#[derive(Debug, Clone)]
pub struct SweepPolicy {
    /// Maximum attempts per job (≥ 1); retries stop after this bound.
    pub max_attempts: u32,
    /// Backoff floor in milliseconds (also the first retry's minimum).
    pub backoff_base_ms: u64,
    /// Backoff ceiling in milliseconds.
    pub backoff_cap_ms: u64,
    /// Simulator watchdog budgets armed for every attempt.
    pub sim_budget: SimBudget,
    /// Per-job wall-clock budget in milliseconds (checked inside the
    /// simulator through the audited `netsim::host_clock` waiver).
    pub wall_budget_ms: Option<u64>,
}

impl Default for SweepPolicy {
    fn default() -> Self {
        SweepPolicy {
            max_attempts: 3,
            backoff_base_ms: 5,
            backoff_cap_ms: 250,
            sim_budget: SimBudget::standard(),
            wall_budget_ms: None,
        }
    }
}

impl SweepPolicy {
    /// The effective simulator budget for one attempt: the policy's
    /// watchdogs plus the per-job wall limit.
    fn effective_budget(&self) -> SimBudget {
        let mut budget = self.sim_budget.clone();
        if self.wall_budget_ms.is_some() {
            budget.wall_limit_ms = self.wall_budget_ms;
        }
        budget
    }
}

/// Deterministic fault injection for the chaos self-tests. Keyed by job
/// index: a job can panic or trip budgets on its first N attempts (so
/// retries converge), or kill its worker on the first claim (so the
/// lost-job path is exercised). Injected payloads are identical in type
/// to the real ones, keeping one classification path.
#[derive(Debug, Default)]
pub struct FaultyScenario {
    /// Job index → panic on attempts `1..=n`.
    panics: BTreeMap<usize, u32>,
    /// Job index → wall-deadline trip on attempts `1..=n`.
    deadlines: BTreeMap<usize, u32>,
    /// Job index → livelock budget trip on attempts `1..=n`.
    sim_budgets: BTreeMap<usize, u32>,
    /// Job indices whose first claim kills the claiming worker.
    kills: Mutex<BTreeSet<usize>>,
}

impl FaultyScenario {
    /// No injected faults.
    pub fn none() -> Self {
        FaultyScenario::default()
    }

    /// Panic on the first `attempts` attempts of job `idx`.
    pub fn panic_on(mut self, idx: usize, attempts: u32) -> Self {
        self.panics.insert(idx, attempts);
        self
    }

    /// Trip a wall-deadline on the first `attempts` attempts of job `idx`.
    pub fn deadline_on(mut self, idx: usize, attempts: u32) -> Self {
        self.deadlines.insert(idx, attempts);
        self
    }

    /// Trip a livelock budget on the first `attempts` attempts of job `idx`.
    pub fn sim_budget_on(mut self, idx: usize, attempts: u32) -> Self {
        self.sim_budgets.insert(idx, attempts);
        self
    }

    /// Kill the worker that first claims job `idx` (the claim engine
    /// must re-enqueue the job, not drop it).
    pub fn kill_worker_on(self, idx: usize) -> Self {
        self.kills.lock().expect("kill set poisoned").insert(idx);
        self
    }

    /// Whether the worker claiming `idx` must die (consumed: the
    /// re-enqueued claim proceeds normally).
    fn claims_kill(&self, idx: usize) -> bool {
        self.kills.lock().expect("kill set poisoned").remove(&idx)
    }

    /// Fire any fault configured for `(idx, attempt)`. Panics with the
    /// same payload types real failures produce.
    fn inject(&self, idx: usize, attempt: u32) {
        if self.panics.get(&idx).is_some_and(|&n| attempt <= n) {
            std::panic::panic_any(format!(
                "chaos: injected panic for job {idx} attempt {attempt}"
            ));
        }
        if self.deadlines.get(&idx).is_some_and(|&n| attempt <= n) {
            std::panic::panic_any(BudgetTrip {
                kind: BudgetKind::WallDeadline,
                at_ns: 0,
                limit: 0,
                detail: format!("chaos: injected deadline for job {idx}"),
            });
        }
        if self.sim_budgets.get(&idx).is_some_and(|&n| attempt <= n) {
            std::panic::panic_any(BudgetTrip {
                kind: BudgetKind::Livelock,
                at_ns: 0,
                limit: 0,
                detail: format!("chaos: injected livelock for job {idx}"),
            });
        }
    }
}

/// Install (once, process-wide) a panic hook that suppresses the
/// default "thread panicked" noise for payloads the supervisor catches
/// and classifies anyway: [`BudgetTrip`]s and `"chaos:"`-prefixed
/// injected messages. Every other panic falls through to the previous
/// hook untouched, so genuine failures keep their diagnostics.
pub fn silence_supervised_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let supervised = payload.is::<BudgetTrip>()
                || payload
                    .downcast_ref::<String>()
                    .is_some_and(|s| s.starts_with("chaos:"));
            if !supervised {
                prev(info);
            }
        }));
    });
}

/// Classify a caught panic payload into the [`JobError`] taxonomy.
/// Watchdog trips travel as [`BudgetTrip`] payloads (real and injected
/// alike); anything else is a plain panic.
pub(crate) fn classify_payload(payload: &(dyn std::any::Any + Send)) -> JobError {
    if let Some(trip) = payload.downcast_ref::<BudgetTrip>() {
        return match trip.kind {
            BudgetKind::WallDeadline => JobError::Deadline {
                limit_ms: trip.limit,
            },
            _ => JobError::SimBudget {
                diagnostic: trip.to_string(),
            },
        };
    }
    if let Some(s) = payload.downcast_ref::<String>() {
        return JobError::Panic { message: s.clone() };
    }
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        return JobError::Panic {
            message: (*s).to_string(),
        };
    }
    JobError::Panic {
        message: "non-string panic payload".into(),
    }
}

/// Run one job to a terminal verdict: up to `max_attempts` guarded
/// attempts with decorrelated-jitter backoff between them. The backoff
/// RNG is forked from the job's own seed, so a rerun of the same
/// campaign sleeps the same schedule — reruns are reproducible.
fn run_one(
    store: &ModelStore,
    spec: &RunSpec,
    idx: usize,
    policy: &SweepPolicy,
    chaos: Option<&FaultyScenario>,
) -> (SlotResult, u64) {
    let mut backoff_rng = DetRng::new(spec.seed).fork("supervisor-backoff");
    let mut prev_delay_ms = policy.backoff_base_ms;
    let mut last_error = JobError::Panic {
        message: "job never attempted".into(),
    };
    // Bounded by construction: `max_attempts` caps the retry loop.
    for attempt in 1..=policy.max_attempts.max(1) {
        if attempt > 1 {
            // Decorrelated jitter: uniform in [base, prev × 3), clamped
            // to the cap. Deterministic per (seed, attempt).
            let hi = prev_delay_ms.saturating_mul(3).clamp(
                policy.backoff_base_ms + 1,
                policy.backoff_cap_ms.max(policy.backoff_base_ms + 1),
            );
            let delay_ms = backoff_rng.uniform_u64(policy.backoff_base_ms, hi);
            prev_delay_ms = delay_ms;
            std::thread::sleep(std::time::Duration::from_millis(delay_ms));
        }
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if let Some(chaos) = chaos {
                chaos.inject(idx, attempt);
            }
            run_spec_budgeted(store, spec, policy.effective_budget())
        }));
        match outcome {
            Ok(summary) => return (Ok(summary), u64::from(attempt)),
            Err(payload) => last_error = classify_payload(payload.as_ref()),
        }
    }
    let attempts = u64::from(policy.max_attempts.max(1));
    (
        Err(JobFailure {
            error: last_error,
            attempts,
        }),
        attempts,
    )
}

/// Result of a supervised sweep: `Result`-shaped slots in spec order,
/// plus per-job attempt counts and whether each slot was restored from
/// a journal instead of run.
pub struct SweepReport {
    /// One slot per spec, in spec order.
    pub slots: Vec<SlotResult>,
    /// Attempts consumed per job (1 for first-try successes; journal
    /// restores carry the journaled count).
    pub attempts: Vec<u64>,
    /// Whether the slot was restored from the journal.
    pub restored: Vec<bool>,
}

impl SweepReport {
    /// Count of failed slots.
    pub fn failures(&self) -> usize {
        self.slots.iter().filter(|s| s.is_err()).count()
    }
}

/// Serialize one slot: `{"ok": <summary>}` or `{"err": <failure>}`.
pub fn slot_to_value(slot: &SlotResult) -> Value {
    match slot {
        Ok(summary) => Value::Object(vec![("ok".into(), summary.to_value())]),
        Err(failure) => Value::Object(vec![("err".into(), failure.to_value())]),
    }
}

/// Parse a slot serialized by [`slot_to_value`].
pub fn slot_from_value(v: &Value) -> Result<SlotResult, serde::DeError> {
    if let Some(ok) = v.get("ok") {
        return Ok(Ok(serde::Deserialize::from_value(ok)?));
    }
    if let Some(err) = v.get("err") {
        return Ok(Err(serde::Deserialize::from_value(err)?));
    }
    Err(serde::DeError::new("slot has neither `ok` nor `err`"))
}

/// The merged campaign output: a JSON array of slots in spec order.
/// Byte-deterministic for a fixed spec list, any worker count, with or
/// without an interruption/resume in between.
pub fn merged_slots_json(report: &SweepReport) -> String {
    let items: Vec<Value> = report.slots.iter().map(slot_to_value).collect();
    serde_json::to_string(&Value::Array(items)).unwrap_or_else(|e| {
        // Slot values contain no non-finite floats by construction, and
        // the writer is infallible on finite trees.
        unreachable_json(e)
    })
}

#[cold]
fn unreachable_json(e: serde_json::Error) -> String {
    // Audited: the slot tree is built from serializers that cannot
    // produce invalid values.
    // lint: allow(panic)
    panic!("slot serialization failed: {e}")
}

/// Fully-parameterized supervised sweep.
///
/// * `chaos` — test-only deterministic fault injection.
/// * `journal` — when present, every completed job is appended (and
///   flushed) as it lands, and entries already in the journal (matched
///   by job index, key, and config digest) are restored instead of run.
pub fn run_sweep_supervised_with(
    store: &ModelStore,
    specs: Vec<RunSpec>,
    workers: usize,
    policy: &SweepPolicy,
    chaos: Option<&FaultyScenario>,
    journal: Option<&mut Journal>,
) -> SweepReport {
    // Budget trips travel by panic; don't let the default hook spam
    // stderr for payloads this supervisor catches and classifies.
    silence_supervised_panics();
    // Warm the model cache before any fault can fire: training happens
    // under the store's lock, and a panic while holding it would poison
    // every subsequent job.
    warm_models(store, &specs);
    let n = specs.len();
    let digests: Vec<u64> = specs.iter().map(spec_digest).collect();
    let mut slots: Vec<Option<SlotResult>> = (0..n).map(|_| None).collect();
    let mut attempts: Vec<u64> = vec![0; n];
    let mut restored: Vec<bool> = vec![false; n];

    let mut journal = journal;
    if let Some(journal) = journal.as_deref_mut() {
        for (idx, entry) in journal.entries() {
            let idx = *idx as usize;
            if idx >= n
                || entry.key != specs[idx].label
                || entry.config_digest != format!("{:016x}", digests[idx])
            {
                continue; // stale or foreign entry; the job just re-runs
            }
            if let Ok(slot) = serde_json::from_str::<Value>(&entry.slot)
                .map_err(|e| serde::DeError::new(e.to_string()))
                .and_then(|v| slot_from_value(&v))
            {
                slots[idx] = Some(slot);
                attempts[idx] = entry.attempts;
                restored[idx] = true;
            }
        }
    }

    // Fan out only the jobs the journal did not cover. Jobs are bare
    // spec indices: workers borrow the resident `RunSpec` in place, so
    // a retry or re-enqueue never deep-clones a trace-carrying link.
    let pending: Vec<usize> = (0..n).filter(|&idx| slots[idx].is_none()).collect();
    let pending_idx = pending.clone();
    let specs_ref = &specs;
    let digests_ref = &digests;
    let results = claim_map(
        pending,
        workers,
        |_, &idx: &usize| {
            if chaos.is_some_and(|c| c.claims_kill(idx)) {
                return JobVerdict::Die;
            }
            let (slot, used) = run_one(store, &specs_ref[idx], idx, policy, chaos);
            JobVerdict::Done(match slot {
                Ok(summary) => Ok((summary, used)),
                Err(failure) => Err(failure),
            })
        },
        |pi, res| {
            // Coordinator-side checkpoint: flush the completed job
            // before the sweep moves on, so an interruption loses at
            // most the in-flight jobs.
            let idx = pending_idx[pi];
            if let Some(journal) = journal.as_deref_mut() {
                let (slot, used) = match res {
                    Ok((summary, used)) => (Ok(summary.clone()), *used),
                    Err(failure) => (Err(failure.clone()), failure.attempts),
                };
                journal.record(
                    idx as u64,
                    &specs_ref[idx].label,
                    digests_ref[idx],
                    used,
                    &slot,
                );
            }
        },
    );
    for (pi, res) in results.into_iter().enumerate() {
        let idx = pending_idx[pi];
        let (slot, used) = match res {
            Ok((summary, used)) => (Ok(summary), used),
            Err(failure) => {
                let used = failure.attempts;
                (Err(failure), used)
            }
        };
        slots[idx] = Some(slot);
        attempts[idx] = used;
    }
    SweepReport {
        slots: slots
            .into_iter()
            .map(|s| s.expect("supervised sweep fills every slot"))
            .collect(),
        attempts,
        restored,
    }
}

/// Run one figure binary's whole spec list as a single supervised,
/// journaled sweep: `name`'s journal (restored from when `args.resume`),
/// [`worker_count`] workers, the default [`SweepPolicy`]. Returns one
/// slot per spec, in spec order; a failed slot renders as `—`.
///
/// Call it once per binary with every spec built up front: opening a
/// second journal under the same name truncates the first.
pub fn run_figure(
    name: &str,
    args: &BenchArgs,
    store: &ModelStore,
    specs: Vec<RunSpec>,
) -> Vec<SlotResult> {
    let mut journal = match Journal::for_bin(name, args.resume) {
        Ok(j) => Some(j),
        Err(e) => {
            eprintln!("[journal] unavailable ({e}); running without checkpoints");
            None
        }
    };
    let report = run_sweep_supervised_with(
        store,
        specs,
        worker_count(),
        &SweepPolicy::default(),
        None,
        journal.as_mut(),
    );
    let restored = report.restored.iter().filter(|&&r| r).count();
    if restored > 0 {
        eprintln!(
            "[journal] restored {restored} of {} run(s) from the journal",
            report.slots.len()
        );
    }
    if report.failures() > 0 {
        eprintln!(
            "[journal] {} run(s) failed after retries; their cells show —",
            report.failures()
        );
    }
    report.slots
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Cca;
    use libra_netsim::LinkConfig;
    use libra_types::{Duration, Rate};

    fn quick_specs(n: u64) -> Vec<RunSpec> {
        let link = || LinkConfig::constant(Rate::from_mbps(12.0), Duration::from_millis(40), 1.0);
        (0..n)
            .map(|k| RunSpec::single(Cca::Cubic, link(), 2, 100 + k))
            .collect()
    }

    #[test]
    fn classify_maps_trip_kinds() {
        let wall = BudgetTrip {
            kind: BudgetKind::WallDeadline,
            at_ns: 0,
            limit: 7,
            detail: "x".into(),
        };
        assert_eq!(classify_payload(&wall), JobError::Deadline { limit_ms: 7 });
        let storm = BudgetTrip {
            kind: BudgetKind::EventStorm,
            at_ns: 0,
            limit: 9,
            detail: "y".into(),
        };
        assert!(matches!(
            classify_payload(&storm),
            JobError::SimBudget { .. }
        ));
        let s: String = "boom".into();
        assert_eq!(
            classify_payload(&s),
            JobError::Panic {
                message: "boom".into()
            }
        );
    }

    #[test]
    fn clean_supervised_sweep_matches_bare_sweep() {
        let store = ModelStore::ephemeral(1);
        let specs = quick_specs(4);
        let bare: Vec<RunSummary> = specs
            .iter()
            .map(|spec| crate::run::run_spec(&store, spec))
            .collect();
        let report =
            run_sweep_supervised_with(&store, specs, 2, &SweepPolicy::default(), None, None);
        assert_eq!(report.failures(), 0);
        assert!(report.attempts.iter().all(|&a| a == 1));
        for (slot, b) in report.slots.iter().zip(&bare) {
            let s = slot.as_ref().expect("clean run");
            assert_eq!(
                serde_json::to_string(&s.to_value()).expect("json"),
                serde_json::to_string(&b.to_value()).expect("json"),
            );
        }
    }

    #[test]
    fn backoff_schedule_is_deterministic_and_bounded() {
        let policy = SweepPolicy::default();
        let schedule = |seed: u64| {
            let mut rng = DetRng::new(seed).fork("supervisor-backoff");
            let mut prev = policy.backoff_base_ms;
            let mut out = Vec::new();
            for _ in 0..8 {
                let hi = prev.saturating_mul(3).clamp(
                    policy.backoff_base_ms + 1,
                    policy.backoff_cap_ms.max(policy.backoff_base_ms + 1),
                );
                let d = rng.uniform_u64(policy.backoff_base_ms, hi);
                prev = d;
                out.push(d);
            }
            out
        };
        assert_eq!(schedule(42), schedule(42));
        assert!(schedule(42)
            .iter()
            .all(|&d| (policy.backoff_base_ms..=policy.backoff_cap_ms).contains(&d)));
        assert_ne!(schedule(42), schedule(43), "seeds should decorrelate");
    }
}
