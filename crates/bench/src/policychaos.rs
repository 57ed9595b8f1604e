//! Serde-round-trippable policy-fault plans: the declarative form of
//! [`libra_types::PolicyFaultPlan`] that sweeps, chaos tests and pinned
//! regressions carry.
//!
//! [`PolicyFaultPlan`] itself lives in `libra-types` next to the
//! simulator boundary and is deliberately serde-free (it holds typed
//! [`Duration`]s and probability-carrying enum variants). This module is
//! the bench-side bridge: a flat `{seed, events: [{kind, from_ms,
//! to_ms, probability}]}` shape that round-trips through the vendored
//! serde, validates its labels eagerly, and compiles into the typed
//! plan at run-build time. Pin files under `tests/pinned/` embed this
//! spec, so a discovered policy-fault regression replays the identical
//! fault schedule forever.

use libra_types::{Instant, PolicyFaultKind, PolicyFaultPlan};
use serde::{Deserialize, Serialize};

/// One fault window in declarative form. `kind` is a
/// [`PolicyFaultKind::label`] string ("response-drop", "response-delay",
/// "nan-action", "wrong-dim", "weight-corrupt", "stuck-action");
/// `probability` is ignored by the two deterministic kinds
/// (weight-corrupt, stuck-action) and conventionally written as `1.0`
/// there.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicyChaosEvent {
    /// Fault-kind label (must match a [`PolicyFaultKind::label`]).
    pub kind: String,
    /// Window start, milliseconds of simulated time (inclusive).
    pub from_ms: u64,
    /// Window end, milliseconds of simulated time (exclusive).
    pub to_ms: u64,
    /// Per-response injection probability for the stochastic kinds.
    pub probability: f64,
}

/// A full declarative fault plan: the injection RNG seed plus the
/// fault windows. Compiles to [`PolicyFaultPlan`] via [`compile`].
///
/// [`compile`]: PolicyChaosSpec::compile
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicyChaosSpec {
    /// Seed of the dedicated injection RNG stream (never shared with
    /// the simulation RNG, so faults-off runs are byte-identical to
    /// plans that were never attached).
    pub seed: u64,
    /// Fault windows, applied independently.
    pub events: Vec<PolicyChaosEvent>,
}

impl PolicyChaosSpec {
    /// An empty plan under `seed` (compiles to a no-op).
    pub fn new(seed: u64) -> Self {
        PolicyChaosSpec {
            seed,
            events: Vec::new(),
        }
    }

    /// Append one window (builder style).
    pub fn with(mut self, kind: &str, from_ms: u64, to_ms: u64, probability: f64) -> Self {
        self.events.push(PolicyChaosEvent {
            kind: kind.to_string(),
            from_ms,
            to_ms,
            probability,
        });
        self
    }

    /// The default adversarial mix the chaos search and the report
    /// appendix use: every fault kind gets one window inside
    /// `[0, secs)`, staggered so the degradation ladder sees each
    /// shape both alone and stacked.
    pub fn standard(seed: u64, secs: u64) -> Self {
        let ms = secs * 1000;
        let w = |frac_from: u64, frac_to: u64| (ms * frac_from / 10, ms * frac_to / 10);
        let (drop_f, drop_t) = w(1, 4);
        let (delay_f, delay_t) = w(3, 6);
        let (nan_f, nan_t) = w(5, 8);
        let (dim_f, dim_t) = w(2, 5);
        let (stuck_f, stuck_t) = w(6, 8);
        let (corrupt_f, corrupt_t) = w(7, 9);
        PolicyChaosSpec::new(seed)
            .with("response-drop", drop_f, drop_t, 0.05)
            .with("response-delay", delay_f, delay_t, 0.05)
            .with("nan-action", nan_f, nan_t, 0.05)
            .with("wrong-dim", dim_f, dim_t, 0.05)
            .with("stuck-action", stuck_f, stuck_t, 1.0)
            .with("weight-corrupt", corrupt_f, corrupt_t, 1.0)
    }

    /// Check every event: known kind label, non-empty forward window
    /// whose end fits the `u64` nanosecond clock, probability in `[0, 1]`.
    pub fn validate(&self) -> Result<(), String> {
        for e in &self.events {
            kind_of(&e.kind, e.probability)?;
            if e.from_ms >= e.to_ms {
                return Err(format!(
                    "policy-chaos window [{}, {}) ms is empty",
                    e.from_ms, e.to_ms
                ));
            }
            // `from_ms < to_ms`, so this bounds both ends of the window.
            if e.to_ms.checked_mul(1_000_000).is_none() {
                return Err(format!(
                    "policy-chaos window end {} ms overflows the ns clock",
                    e.to_ms
                ));
            }
            if !(0.0..=1.0).contains(&e.probability) {
                return Err(format!(
                    "policy-chaos probability {} outside [0, 1]",
                    e.probability
                ));
            }
        }
        Ok(())
    }

    /// Compile into the typed plan the `PolicyServer` consumes.
    pub fn compile(&self) -> Result<PolicyFaultPlan, String> {
        self.validate()?;
        let mut plan = PolicyFaultPlan::new(self.seed);
        for e in &self.events {
            let kind = kind_of(&e.kind, e.probability)?;
            plan.push(
                Instant::from_millis(e.from_ms),
                Instant::from_millis(e.to_ms),
                kind,
            );
        }
        Ok(plan)
    }
}

fn kind_of(label: &str, probability: f64) -> Result<PolicyFaultKind, String> {
    Ok(match label {
        "response-drop" => PolicyFaultKind::ResponseDrop { probability },
        "response-delay" => PolicyFaultKind::ResponseDelay { probability },
        "nan-action" => PolicyFaultKind::NanAction { probability },
        "wrong-dim" => PolicyFaultKind::WrongDim { probability },
        "weight-corrupt" => PolicyFaultKind::WeightCorrupt,
        "stuck-action" => PolicyFaultKind::StuckAction,
        other => return Err(format!("unknown policy-fault kind {other:?}")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_round_trips_through_json() {
        let spec = PolicyChaosSpec::standard(9, 10);
        let json = serde_json::to_string(&spec).expect("serializes");
        let back: PolicyChaosSpec = serde_json::from_str(&json).expect("parses");
        assert_eq!(spec, back);
    }

    #[test]
    fn standard_mix_compiles_to_all_six_kinds() {
        let plan = PolicyChaosSpec::standard(3, 10)
            .compile()
            .expect("compiles");
        assert_eq!(plan.seed, 3);
        let labels: Vec<&str> = plan.events.iter().map(|e| e.kind.label()).collect();
        for expect in [
            "response-drop",
            "response-delay",
            "nan-action",
            "wrong-dim",
            "stuck-action",
            "weight-corrupt",
        ] {
            assert!(labels.contains(&expect), "missing {expect} in {labels:?}");
        }
    }

    #[test]
    fn unknown_kind_and_bad_windows_are_rejected() {
        let bad = PolicyChaosSpec::new(1).with("cosmic-ray", 0, 100, 0.5);
        assert!(bad.validate().is_err());
        let empty = PolicyChaosSpec::new(1).with("nan-action", 100, 100, 0.5);
        assert!(empty.validate().is_err());
        let p = PolicyChaosSpec::new(1).with("nan-action", 0, 100, 1.5);
        assert!(p.validate().is_err());
    }

    #[test]
    fn windows_past_the_ns_clock_are_rejected_not_wrapped() {
        let last_ms = u64::MAX / 1_000_000;
        let edge = PolicyChaosSpec::new(1).with("nan-action", 0, last_ms, 0.5);
        assert!(edge.compile().is_ok());
        for to_ms in [last_ms + 1, u64::MAX] {
            let over = PolicyChaosSpec::new(1).with("nan-action", 0, to_ms, 0.5);
            let err = over.validate().expect_err("window end overflows");
            assert!(err.contains("overflows"), "{err}");
            assert!(over.compile().is_err());
        }
    }

    #[test]
    fn empty_spec_compiles_to_a_noop_plan() {
        let plan = PolicyChaosSpec::new(7).compile().expect("compiles");
        assert!(plan.is_empty());
    }
}
