//! Deterministic fault injection for the policy-service boundary.
//!
//! The policy plane's fault kinds: a [`FaultPlan<PolicyFaultKind>`]
//! (the one generic schedule, shared with the link plane) schedules
//! windows over simulated time at the `PolicyService` boundary —
//! response drops, responses delayed past the resolve deadline,
//! NaN/inf-corrupted action vectors, wrong-dimension outputs, transient
//! weight corruption, and stuck (stale, repeated) actions. The serving
//! side is handed the injection seed when the plan is attached and
//! builds a dedicated [`crate::DetRng`] stream from it, so injection
//! never perturbs the simulation's RNG fork order and a faults-off run
//! is byte-identical to one with no plan attached.
//!
//! [`FaultPlan<PolicyFaultKind>`]: crate::FaultPlan
//!
//! Semantics at the policy server:
//!
//! - **ResponseDrop** clears the action with probability `probability`;
//!   the flow sees no answer this tick and falls onto its degradation
//!   ladder (last-good cached action, then classic-CCA pin).
//! - **ResponseDelay** models an answer arriving after the resolve
//!   deadline: with probability `probability` the (already computed)
//!   action is withheld, which at the resolve boundary is
//!   indistinguishable from a drop but is counted separately.
//! - **NanAction** overwrites the action elements with NaN/∞ with
//!   probability `probability`, exercising the resolve-side finiteness
//!   validation.
//! - **WrongDim** appends a spurious element with probability
//!   `probability`, producing an action of the wrong dimension.
//! - **WeightCorrupt** poisons the shared policy weights for the whole
//!   window (snapshotting first) and rolls them back when the window
//!   ends — the transient-corruption / hot-swap-gone-wrong case.
//! - **StuckAction** replays each flow's first in-window action for the
//!   rest of the window: the server looks alive but is serving stale
//!   decisions.

/// One kind of injectable policy-boundary fault.
#[derive(Debug, Clone)]
pub enum PolicyFaultKind {
    /// The response is dropped with probability `probability`.
    ResponseDrop {
        /// Per-response drop probability.
        probability: f64,
    },
    /// The response arrives after the resolve deadline with probability
    /// `probability` (functionally a miss; counted separately).
    ResponseDelay {
        /// Per-response late-arrival probability.
        probability: f64,
    },
    /// Action elements are overwritten with NaN/∞ with probability
    /// `probability`.
    NanAction {
        /// Per-response corruption probability.
        probability: f64,
    },
    /// The action gains a spurious extra element with probability
    /// `probability` (wrong output dimension).
    WrongDim {
        /// Per-response corruption probability.
        probability: f64,
    },
    /// Shared policy weights are poisoned for the whole window and
    /// restored from a snapshot when it ends.
    WeightCorrupt,
    /// Each flow's first in-window action is replayed for the rest of
    /// the window (stale, repeated decisions).
    StuckAction,
}

impl PolicyFaultKind {
    /// Stable lowercase label used in trace events and tables.
    pub fn label(&self) -> &'static str {
        match self {
            PolicyFaultKind::ResponseDrop { .. } => "response-drop",
            PolicyFaultKind::ResponseDelay { .. } => "response-delay",
            PolicyFaultKind::NanAction { .. } => "nan-action",
            PolicyFaultKind::WrongDim { .. } => "wrong-dim",
            PolicyFaultKind::WeightCorrupt => "weight-corrupt",
            PolicyFaultKind::StuckAction => "stuck-action",
        }
    }
}

/// Per-fault-type injection counters, kept by the policy server.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PolicyFaultReport {
    /// Responses dropped outright.
    pub dropped_responses: u64,
    /// Responses delayed past the resolve deadline.
    pub delayed_responses: u64,
    /// Actions corrupted with NaN/∞ elements.
    pub nan_actions: u64,
    /// Actions emitted with the wrong dimension.
    pub wrong_dim_actions: u64,
    /// Actions replaced by a stale in-window replay.
    pub stuck_actions: u64,
    /// Weight-corruption windows that poisoned the shared weights.
    pub weight_corruptions: u64,
    /// Snapshot rollbacks after a corruption window ended.
    pub weight_restores: u64,
}

impl PolicyFaultReport {
    /// Total fault activations across all types.
    pub fn total(&self) -> u64 {
        self.dropped_responses
            + self.delayed_responses
            + self.nan_actions
            + self.wrong_dim_actions
            + self.stuck_actions
            + self.weight_corruptions
            + self.weight_restores
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Duration, FaultEvent, FaultPlan, Instant};

    #[test]
    fn event_window_is_half_open() {
        let e = FaultEvent {
            from: Instant::from_secs(1),
            to: Instant::from_secs(2),
            kind: PolicyFaultKind::StuckAction,
        };
        assert!(!e.active_at(Instant::ZERO));
        assert!(e.active_at(Instant::from_secs(1)));
        assert!(e.active_at(Instant::from_millis(1999)));
        assert!(!e.active_at(Instant::from_secs(2)));
    }

    #[test]
    fn labels_are_stable() {
        let kinds = [
            PolicyFaultKind::ResponseDrop { probability: 0.5 },
            PolicyFaultKind::ResponseDelay { probability: 0.5 },
            PolicyFaultKind::NanAction { probability: 0.5 },
            PolicyFaultKind::WrongDim { probability: 0.5 },
            PolicyFaultKind::WeightCorrupt,
            PolicyFaultKind::StuckAction,
        ];
        let labels: Vec<_> = kinds.iter().map(|k| k.label()).collect();
        assert_eq!(
            labels,
            [
                "response-drop",
                "response-delay",
                "nan-action",
                "wrong-dim",
                "weight-corrupt",
                "stuck-action",
            ]
        );
    }

    #[test]
    fn window_train_builds_windows() {
        let plan = FaultPlan::none().train(
            Instant::from_secs(5),
            Duration::from_secs(1),
            Duration::from_secs(2),
            3,
            PolicyFaultKind::StuckAction,
        );
        assert_eq!(plan.events.len(), 3);
        assert_eq!(plan.events[1].from, Instant::from_secs(8));
        assert_eq!(plan.events[1].to, Instant::from_secs(9));
    }

    #[test]
    fn empty_plan_is_empty() {
        assert!(FaultPlan::<PolicyFaultKind>::none().is_empty());
        assert!(!FaultPlan::none()
            .with(
                Instant::ZERO,
                Instant::from_secs(1),
                PolicyFaultKind::WeightCorrupt
            )
            .is_empty());
    }

    #[test]
    fn report_totals_every_counter() {
        let r = PolicyFaultReport {
            dropped_responses: 1,
            delayed_responses: 2,
            nan_actions: 3,
            wrong_dim_actions: 4,
            stuck_actions: 5,
            weight_corruptions: 6,
            weight_restores: 7,
        };
        assert_eq!(r.total(), 28);
    }
}
