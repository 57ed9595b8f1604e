//! The shared policy server: one inference service for many flows.
//!
//! Per-flow serving runs one small matrix-vector product per decision —
//! the shape ROADMAP item 2 says a millions-of-users deployment cannot
//! afford. [`PolicyServer`] instead lets every flow in a decision tick
//! submit its state vector, composes the submissions into one matrix,
//! and runs a single matrix-matrix forward per layer
//! ([`PpoAgent::act_eval_batch`]), fanning the action rows back out.
//!
//! ## Determinism
//!
//! * **Composition order.** Requests arrive sorted by flow id and are
//!   gathered per agent group in that order (the index-ordered claim
//!   discipline of `sweep.rs`), so batch composition is a pure function
//!   of which flows ticked — never of arrival order or host timing.
//! * **Bit identity.** Registered agents must be in eval mode (checked
//!   at registration): eval actions are the actor mean, computed without
//!   RNG draws or agent mutation, and the batched kernel accumulates
//!   each output element in exactly the per-flow order — so every flow
//!   receives the bit-identical action it would have computed alone.
//! * **No threads.** Evaluation is synchronous inside the simulator's
//!   event loop; the server is plain single-threaded state.
//!
//! ## Robustness
//!
//! * **Quarantine.** A request whose state vector is non-finite or has
//!   the wrong dimension is *quarantined*: excluded from the shared
//!   forward pass (so it cannot poison the group), marked, and answered
//!   with an empty action — the resolve side's fallback sentinel. The
//!   rest of the batch is served exactly as if the bad request never
//!   arrived.
//! * **Fault injection.** An optional
//!   [`FaultPlan<PolicyFaultKind>`](FaultPlan), attached with its
//!   injection seed, injects boundary faults (drops, deadline
//!   misses, NaN/wrong-dim corruption, weight corruption with snapshot
//!   rollback, stuck replays) on a dedicated RNG stream. With no plan
//!   attached the injection path is a single `Option` check — faults-off
//!   serving is byte-identical to a server built before this subsystem
//!   existed.

use crate::ppo::PpoAgent;
use libra_nn::{BatchScratch, Matrix};
use libra_types::{
    DetRng, FaultPlan, PolicyFaultKind, PolicyFaultReport, PolicyRequest, PolicyService,
};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Flows sharing one eval-mode agent (typically all flows of a sweep arm
/// share weights; distinct CCAs land in distinct groups).
struct Group {
    agent: Rc<RefCell<PpoAgent>>,
    obs_dim: usize,
}

/// Runtime state for an attached fault plan: the dedicated RNG stream,
/// injection counters, and per-window caches.
struct FaultState {
    plan: FaultPlan<PolicyFaultKind>,
    rng: DetRng,
    report: PolicyFaultReport,
    /// `flow → first in-window action` for [`PolicyFaultKind::StuckAction`]
    /// replay; cleared whenever no stuck window is active.
    stuck: BTreeMap<u32, Vec<f64>>,
    /// True while a weight-corruption window has the shared weights
    /// poisoned (restored from snapshot when the window ends).
    corrupted: bool,
}

/// A synchronous, deterministic batched-inference service over one or
/// more shared eval-mode [`PpoAgent`]s. See the module docs for the
/// determinism contract.
#[derive(Default)]
pub struct PolicyServer {
    groups: Vec<Group>,
    /// `flow id → group index`, dense over registered flow ids.
    flow_group: Vec<Option<usize>>,
    /// Reused batch-composition buffers.
    obs: Matrix,
    acts: Matrix,
    scratch: BatchScratch,
    rows: Vec<usize>,
    // Serving statistics (deterministic: counts, not timings).
    batches: u64,
    rows_served: u64,
    max_batch: usize,
    quarantines: u64,
    faults: Option<Box<FaultState>>,
}

impl PolicyServer {
    /// An empty server; flows join via [`register`](Self::register).
    pub fn new() -> Self {
        PolicyServer::default()
    }

    /// Attach a fault plan (builder style). An empty plan attaches
    /// nothing, keeping the serving path identical to a plain server.
    pub fn with_faults(mut self, plan: FaultPlan<PolicyFaultKind>, seed: u64) -> Self {
        self.set_faults(plan, seed);
        self
    }

    /// Attach a fault plan whose injection draws come from a dedicated
    /// stream seeded with `seed` (never forked from the simulation, so
    /// attaching a plan cannot disturb the sim's RNG fork order). An
    /// empty plan detaches injection entirely.
    pub fn set_faults(&mut self, plan: FaultPlan<PolicyFaultKind>, seed: u64) {
        if plan.is_empty() {
            self.faults = None;
            return;
        }
        self.faults = Some(Box::new(FaultState {
            plan,
            rng: DetRng::new(seed),
            report: PolicyFaultReport::default(),
            stuck: BTreeMap::new(),
            corrupted: false,
        }));
    }

    /// Register `flow` to be served by `agent`. Agents are deduplicated
    /// by identity (`Rc::ptr_eq`), so a thousand flows sharing one
    /// weight set form a single batch group. The agent must already be
    /// in eval mode — training-mode action selection draws RNG and
    /// mutates the agent, which would make results depend on batch
    /// composition.
    pub fn register(&mut self, flow: u32, agent: &Rc<RefCell<PpoAgent>>) {
        assert!(
            agent.borrow().is_eval(),
            "policy server requires eval-mode agents (flow {flow})"
        );
        let group = match self.groups.iter().position(|g| Rc::ptr_eq(&g.agent, agent)) {
            Some(g) => g,
            None => {
                let obs_dim = agent.borrow().config().obs_dim;
                self.groups.push(Group {
                    agent: Rc::clone(agent),
                    obs_dim,
                });
                self.groups.len() - 1
            }
        };
        let idx = flow as usize;
        if idx >= self.flow_group.len() {
            self.flow_group.resize(idx + 1, None);
        }
        self.flow_group[idx] = Some(group);
    }

    /// Number of distinct agent groups.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Batched evaluations run so far.
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// Total flow requests served.
    pub fn rows_served(&self) -> u64 {
        self.rows_served
    }

    /// Largest single-group batch served (the batching win's witness).
    pub fn max_batch(&self) -> usize {
        self.max_batch
    }

    /// Requests quarantined for invalid state vectors.
    pub fn quarantines(&self) -> u64 {
        self.quarantines
    }

    /// Injection counters of the attached fault plan (all-zero when no
    /// plan is attached).
    pub fn fault_report(&self) -> PolicyFaultReport {
        self.faults.as_ref().map(|f| f.report).unwrap_or_default()
    }

    fn group_of(&self, flow: u32) -> usize {
        self.flow_group
            .get(flow as usize)
            .copied()
            .flatten()
            .expect("flow submitted a policy request without registering")
    }

    /// Enter/leave weight-corruption windows around the forward passes.
    /// Entering snapshots every group's weights and poisons them;
    /// leaving restores the snapshots (the `ModelStore`-style
    /// snapshot/rollback contract).
    fn manage_weight_windows(&mut self, now: libra_types::Instant) {
        let Some(faults) = self.faults.as_mut() else {
            return;
        };
        let corrupt_active = faults
            .plan
            .active(now)
            .any(|e| matches!(e.kind, PolicyFaultKind::WeightCorrupt));
        if corrupt_active && !faults.corrupted {
            for g in &self.groups {
                let mut agent = g.agent.borrow_mut();
                agent.snapshot_good();
                agent.map_actor_params(|_| f64::NAN);
                faults.report.weight_corruptions += 1;
            }
            faults.corrupted = true;
        } else if !corrupt_active && faults.corrupted {
            for g in &self.groups {
                if !g.agent.borrow_mut().validate_or_restore() {
                    faults.report.weight_restores += 1;
                }
            }
            faults.corrupted = false;
        }
    }

    /// Apply per-response faults after the forward passes, in batch
    /// (flow-id) order. RNG draws happen only inside active windows, so
    /// the stream — like netsim's link faults — is a pure function of
    /// the plan, its seed, and the deterministic request sequence.
    fn inject_response_faults(&mut self, batch: &mut [PolicyRequest]) {
        let Some(faults) = self.faults.as_mut() else {
            return;
        };
        let now = batch[0].at;
        let stuck_active = faults
            .plan
            .active(now)
            .any(|e| matches!(e.kind, PolicyFaultKind::StuckAction));
        if !stuck_active && !faults.stuck.is_empty() {
            faults.stuck.clear();
        }
        for req in batch.iter_mut() {
            if req.quarantined {
                continue;
            }
            if faults.corrupted {
                // The shared weights are poisoned: every served action is
                // already NaN. Label the response so reports can tell a
                // weight-corruption miss from a healthy decision.
                req.fault = Some("weight-corrupt");
            }
            // Overlapping stuck windows replay one cache: the arm runs
            // once per response, at the first stuck window's position.
            let mut stuck_done = false;
            for event in faults.plan.active(now) {
                match event.kind {
                    PolicyFaultKind::ResponseDrop { probability } => {
                        if faults.rng.chance(probability) {
                            req.action.clear();
                            req.fault = Some("response-drop");
                            faults.report.dropped_responses += 1;
                        }
                    }
                    PolicyFaultKind::ResponseDelay { probability } => {
                        if faults.rng.chance(probability) {
                            req.action.clear();
                            req.fault = Some("response-delay");
                            faults.report.delayed_responses += 1;
                        }
                    }
                    PolicyFaultKind::NanAction { probability } => {
                        if faults.rng.chance(probability) && !req.action.is_empty() {
                            for (j, a) in req.action.iter_mut().enumerate() {
                                *a = if j % 2 == 0 { f64::NAN } else { f64::INFINITY };
                            }
                            req.fault = Some("nan-action");
                            faults.report.nan_actions += 1;
                        }
                    }
                    PolicyFaultKind::WrongDim { probability } => {
                        if faults.rng.chance(probability) && !req.action.is_empty() {
                            req.action.push(0.0);
                            req.fault = Some("wrong-dim");
                            faults.report.wrong_dim_actions += 1;
                        }
                    }
                    PolicyFaultKind::StuckAction if !stuck_done => {
                        stuck_done = true;
                        if let Some(cached) = faults.stuck.get(&req.flow) {
                            req.action.clear();
                            req.action.extend_from_slice(cached);
                            req.fault = Some("stuck-action");
                            faults.report.stuck_actions += 1;
                        } else {
                            faults.stuck.insert(req.flow, req.action.clone());
                        }
                    }
                    PolicyFaultKind::StuckAction | PolicyFaultKind::WeightCorrupt => {}
                }
            }
        }
    }
}

impl PolicyService for PolicyServer {
    fn evaluate(&mut self, batch: &mut [PolicyRequest]) {
        debug_assert!(
            batch.windows(2).all(|w| w[0].flow < w[1].flow),
            "policy batch must be sorted by flow id"
        );
        if batch.is_empty() {
            return;
        }
        if self.faults.is_some() {
            self.manage_weight_windows(batch[0].at);
        }
        // Walk groups in index order; within a group, members keep the
        // batch slice's (flow-id) order — deterministic composition.
        for g in 0..self.groups.len() {
            self.rows.clear();
            let obs_dim = self.groups[g].obs_dim;
            for (i, req) in batch.iter_mut().enumerate() {
                if self.group_of(req.flow) != g {
                    continue;
                }
                // Quarantine before composition: a non-finite or
                // wrong-dimension state must not reach the shared
                // forward pass. The flow gets the empty-action fallback
                // sentinel; the rest of the group batches as usual.
                if req.state.len() != obs_dim || req.state.iter().any(|x| !x.is_finite()) {
                    req.quarantined = true;
                    req.action.clear();
                    self.quarantines += 1;
                    continue;
                }
                self.rows.push(i);
            }
            if self.rows.is_empty() {
                continue;
            }
            self.obs.reshape(self.rows.len(), obs_dim);
            {
                let flat = self.obs.as_mut_slice();
                for (k, &i) in self.rows.iter().enumerate() {
                    flat[k * obs_dim..(k + 1) * obs_dim].copy_from_slice(&batch[i].state);
                }
            }
            self.groups[g].agent.borrow().act_eval_batch(
                &self.obs,
                &mut self.acts,
                &mut self.scratch,
            );
            let act_dim = self.acts.cols();
            let acts = self.acts.as_slice();
            for (k, &i) in self.rows.iter().enumerate() {
                let req = &mut batch[i];
                req.action.clear();
                req.action
                    .extend_from_slice(&acts[k * act_dim..(k + 1) * act_dim]);
            }
            self.batches += 1;
            self.rows_served += self.rows.len() as u64;
            self.max_batch = self.max_batch.max(self.rows.len());
        }
        if self.faults.is_some() {
            self.inject_response_faults(batch);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PpoConfig;
    use libra_types::{Duration, Instant};

    fn eval_agent(seed: u64) -> Rc<RefCell<PpoAgent>> {
        let mut rng = DetRng::new(seed);
        let mut agent = PpoAgent::new(PpoConfig::new(4, 2), &mut rng);
        agent.set_eval(true);
        Rc::new(RefCell::new(agent))
    }

    fn req(flow: u32, state: Vec<f64>) -> PolicyRequest {
        PolicyRequest {
            flow,
            state,
            ..PolicyRequest::default()
        }
    }

    fn req_at(flow: u32, at: Instant, state: Vec<f64>) -> PolicyRequest {
        PolicyRequest {
            flow,
            at,
            state,
            ..PolicyRequest::default()
        }
    }

    #[test]
    fn batched_actions_match_per_flow_eval_act_bitwise() {
        let agent = eval_agent(11);
        let mut server = PolicyServer::new();
        for flow in 0..5u32 {
            server.register(flow, &agent);
        }
        assert_eq!(server.group_count(), 1);
        let mut batch: Vec<PolicyRequest> = (0..5u32)
            .map(|f| {
                req(
                    f,
                    (0..4).map(|i| (f as f64) * 0.3 - i as f64 * 0.7).collect(),
                )
            })
            .collect();
        server.evaluate(&mut batch);
        for r in &batch {
            let solo = agent.borrow_mut().act(&r.state);
            assert_eq!(solo.len(), r.action.len());
            for (a, b) in solo.iter().zip(&r.action) {
                assert_eq!(a.to_bits(), b.to_bits(), "flow {}", r.flow);
            }
        }
        assert_eq!(server.batches(), 1);
        assert_eq!(server.rows_served(), 5);
        assert_eq!(server.max_batch(), 5);
        assert_eq!(server.quarantines(), 0);
        assert_eq!(server.fault_report(), PolicyFaultReport::default());
    }

    #[test]
    fn distinct_agents_form_distinct_groups() {
        let a = eval_agent(1);
        let b = eval_agent(2);
        let mut server = PolicyServer::new();
        server.register(0, &a);
        server.register(1, &b);
        server.register(2, &a);
        assert_eq!(server.group_count(), 2);
        let mut batch = vec![
            req(0, vec![0.1; 4]),
            req(1, vec![0.2; 4]),
            req(2, vec![0.3; 4]),
        ];
        server.evaluate(&mut batch);
        // Every request got an action from its own group's agent.
        for (r, agent) in batch.iter().zip([&a, &b, &a]) {
            let solo = agent.borrow_mut().act(&r.state);
            assert_eq!(solo, r.action, "flow {}", r.flow);
        }
        assert_eq!(server.batches(), 2);
        assert_eq!(server.max_batch(), 2);
    }

    #[test]
    #[should_panic(expected = "eval-mode agents")]
    fn training_mode_agent_is_rejected() {
        let mut rng = DetRng::new(3);
        let agent = Rc::new(RefCell::new(PpoAgent::new(PpoConfig::new(4, 2), &mut rng)));
        PolicyServer::new().register(0, &agent);
    }

    #[test]
    #[should_panic(expected = "without registering")]
    fn unregistered_flow_is_rejected() {
        let agent = eval_agent(4);
        let mut server = PolicyServer::new();
        server.register(0, &agent);
        let mut batch = vec![req(0, vec![0.0; 4]), req(7, vec![0.0; 4])];
        server.evaluate(&mut batch);
    }

    /// Pre-fix poisoning shape, pinned at the kernel layer: a NaN row
    /// fed into the shared batched forward produces a NaN action row.
    /// Before quarantine existed, a single flow submitting a non-finite
    /// state was composed into the group matrix exactly like this — the
    /// shared pass happily served it garbage (and a wrong-dimension
    /// state aborted the whole batch). Quarantine keeps such rows out of
    /// the composition entirely.
    #[test]
    fn nan_state_poisons_shared_forward_without_quarantine() {
        let agent = eval_agent(21);
        let mut obs = Matrix::default();
        obs.reshape(2, 4);
        obs.as_mut_slice()[..4].copy_from_slice(&[0.1, 0.2, 0.3, 0.4]);
        obs.as_mut_slice()[4..].copy_from_slice(&[f64::NAN, 0.2, 0.3, 0.4]);
        let mut acts = Matrix::default();
        let mut scratch = BatchScratch::default();
        agent.borrow().act_eval_batch(&obs, &mut acts, &mut scratch);
        let a = acts.as_slice();
        let dim = acts.cols();
        assert!(
            a[..dim].iter().all(|x| x.is_finite()),
            "clean row stays clean"
        );
        assert!(a[dim..].iter().any(|x| x.is_nan()), "NaN row served NaN");
    }

    #[test]
    fn quarantine_isolates_invalid_state_from_the_group() {
        let agent = eval_agent(11);
        let build_server = |agent: &Rc<RefCell<PpoAgent>>| {
            let mut s = PolicyServer::new();
            for flow in 0..4u32 {
                s.register(flow, agent);
            }
            s
        };
        let state = |f: u32| -> Vec<f64> { (0..4).map(|i| f as f64 * 0.2 + i as f64).collect() };
        // Clean run: all four flows valid.
        let mut clean: Vec<PolicyRequest> = (0..4u32).map(|f| req(f, state(f))).collect();
        build_server(&agent).evaluate(&mut clean);
        // Dirty run: flow 1 submits NaN, flow 2 submits a wrong-dim state.
        let mut dirty = vec![
            req(0, state(0)),
            req(1, vec![f64::NAN; 4]),
            req(2, vec![0.5; 3]),
            req(3, state(3)),
        ];
        let mut server = build_server(&agent);
        server.evaluate(&mut dirty);
        assert!(dirty[1].quarantined && dirty[1].action.is_empty());
        assert!(dirty[2].quarantined && dirty[2].action.is_empty());
        assert_eq!(server.quarantines(), 2);
        // The healthy members are bitwise-identical to the clean run.
        for i in [0usize, 3] {
            assert!(!dirty[i].quarantined);
            assert_eq!(clean[i].action.len(), dirty[i].action.len());
            for (a, b) in clean[i].action.iter().zip(&dirty[i].action) {
                assert_eq!(a.to_bits(), b.to_bits(), "flow {i}");
            }
        }
    }

    #[test]
    fn response_drop_clears_actions_inside_window_only() {
        let agent = eval_agent(5);
        let plan = FaultPlan::none().with(
            Instant::from_secs(1),
            Instant::from_secs(2),
            PolicyFaultKind::ResponseDrop { probability: 1.0 },
        );
        let mut server = PolicyServer::new().with_faults(plan, 77);
        server.register(0, &agent);
        let mut before = vec![req_at(0, Instant::ZERO, vec![0.1; 4])];
        server.evaluate(&mut before);
        assert!(!before[0].action.is_empty() && before[0].fault.is_none());
        let mut inside = vec![req_at(0, Instant::from_millis(1500), vec![0.1; 4])];
        server.evaluate(&mut inside);
        assert!(inside[0].action.is_empty());
        assert_eq!(inside[0].fault, Some("response-drop"));
        let mut after = vec![req_at(0, Instant::from_secs(2), vec![0.1; 4])];
        server.evaluate(&mut after);
        assert!(!after[0].action.is_empty() && after[0].fault.is_none());
        assert_eq!(server.fault_report().dropped_responses, 1);
    }

    #[test]
    fn nan_and_wrong_dim_faults_corrupt_served_actions() {
        let agent = eval_agent(6);
        let w = Duration::from_secs(1);
        let plan = FaultPlan::none()
            .with(
                Instant::ZERO,
                Instant::ZERO + w,
                PolicyFaultKind::NanAction { probability: 1.0 },
            )
            .with(
                Instant::from_secs(5),
                Instant::from_secs(5) + w,
                PolicyFaultKind::WrongDim { probability: 1.0 },
            );
        let mut server = PolicyServer::new().with_faults(plan, 3);
        server.register(0, &agent);
        let mut nan = vec![req_at(0, Instant::ZERO, vec![0.1; 4])];
        server.evaluate(&mut nan);
        assert!(nan[0].action.iter().any(|x| !x.is_finite()));
        assert_eq!(nan[0].fault, Some("nan-action"));
        let mut wrong = vec![req_at(0, Instant::from_secs(5), vec![0.1; 4])];
        server.evaluate(&mut wrong);
        assert_eq!(wrong[0].fault, Some("wrong-dim"));
        assert_eq!(wrong[0].action.len(), 3); // act_dim 2 + spurious element
        let r = server.fault_report();
        assert_eq!((r.nan_actions, r.wrong_dim_actions), (1, 1));
    }

    #[test]
    fn overlapping_stuck_windows_replay_once_per_response() {
        let agent = eval_agent(7);
        let plan = FaultPlan::none()
            .with(
                Instant::ZERO,
                Instant::from_secs(10),
                PolicyFaultKind::StuckAction,
            )
            .with(
                Instant::ZERO,
                Instant::from_secs(8),
                PolicyFaultKind::StuckAction,
            );
        let mut server = PolicyServer::new().with_faults(plan, 1);
        server.register(0, &agent);
        let mut first = vec![req_at(0, Instant::ZERO, vec![0.1; 4])];
        server.evaluate(&mut first);
        assert!(first[0].fault.is_none(), "first in-window action is live");
        assert_eq!(server.fault_report().stuck_actions, 0);
        let mut later = vec![req_at(0, Instant::from_secs(4), vec![0.9; 4])];
        server.evaluate(&mut later);
        assert_eq!(later[0].fault, Some("stuck-action"));
        assert_eq!(later[0].action, first[0].action);
        assert_eq!(server.fault_report().stuck_actions, 1);
    }

    #[test]
    fn stuck_window_replays_first_in_window_action() {
        let agent = eval_agent(7);
        let plan = FaultPlan::none().with(
            Instant::ZERO,
            Instant::from_secs(10),
            PolicyFaultKind::StuckAction,
        );
        let mut server = PolicyServer::new().with_faults(plan, 1);
        server.register(0, &agent);
        let mut first = vec![req_at(0, Instant::ZERO, vec![0.1; 4])];
        server.evaluate(&mut first);
        assert!(first[0].fault.is_none(), "first in-window action is live");
        let live = first[0].action.clone();
        // Different state later in the window: the stale action returns.
        let mut later = vec![req_at(0, Instant::from_secs(4), vec![0.9; 4])];
        server.evaluate(&mut later);
        assert_eq!(later[0].fault, Some("stuck-action"));
        assert_eq!(later[0].action, live);
        // Outside the window the cache clears and decisions go live again.
        let mut out = vec![req_at(0, Instant::from_secs(11), vec![0.9; 4])];
        server.evaluate(&mut out);
        assert!(out[0].fault.is_none());
        assert_ne!(out[0].action, live);
        assert_eq!(server.fault_report().stuck_actions, 1);
    }

    #[test]
    fn weight_corruption_window_poisons_then_rolls_back() {
        let agent = eval_agent(8);
        let plan = FaultPlan::none().with(
            Instant::from_secs(1),
            Instant::from_secs(2),
            PolicyFaultKind::WeightCorrupt,
        );
        let mut server = PolicyServer::new().with_faults(plan, 2);
        server.register(0, &agent);
        let mut before = vec![req_at(0, Instant::ZERO, vec![0.1; 4])];
        server.evaluate(&mut before);
        let healthy = before[0].action.clone();
        let mut inside = vec![req_at(0, Instant::from_millis(1500), vec![0.1; 4])];
        server.evaluate(&mut inside);
        assert!(inside[0].action.iter().any(|x| x.is_nan()));
        assert_eq!(inside[0].fault, Some("weight-corrupt"));
        // Past the window: the snapshot is restored and actions recover
        // bitwise.
        let mut after = vec![req_at(0, Instant::from_secs(3), vec![0.1; 4])];
        server.evaluate(&mut after);
        assert!(after[0].fault.is_none());
        assert_eq!(after[0].action, healthy);
        let r = server.fault_report();
        assert_eq!((r.weight_corruptions, r.weight_restores), (1, 1));
        assert!(agent.borrow().weights_valid());
    }

    #[test]
    fn fault_injection_is_deterministic_under_the_plan_seed() {
        let run = |seed: u64| -> Vec<Option<&'static str>> {
            let agent = eval_agent(9);
            let plan = FaultPlan::none().with(
                Instant::ZERO,
                Instant::from_secs(60),
                PolicyFaultKind::ResponseDrop { probability: 0.5 },
            );
            let mut server = PolicyServer::new().with_faults(plan, seed);
            server.register(0, &agent);
            (0..64)
                .map(|t| {
                    let mut b = vec![req_at(0, Instant::from_millis(t * 100), vec![0.1; 4])];
                    server.evaluate(&mut b);
                    b[0].fault
                })
                .collect()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }
}
