//! The one run path: a [`RunSpec`] says *what* to run (controller × link
//! × flow layout × seed), [`Workload::slots`] is the one place that turns
//! a layout into flows, and [`run`] is the one builder that turns those
//! flows into a [`Simulation`]. Every figure binary, the sweep engine,
//! the supervisor, the search and the external benchmark go through it.

use crate::models::ModelStore;
use crate::policychaos::PolicyChaosSpec;
use crate::registry::Cca;
use crate::summary::RunSummary;
use libra_netsim::{FlowConfig, LinkConfig, SimBudget, SimConfig, SimReport, Simulation};
use libra_rl::{PolicyServer, PpoAgent};
use libra_types::{Duration, Instant};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// An eval-mode agent shared by every flow of one run that uses it.
type SharedAgent = Rc<RefCell<PpoAgent>>;

/// The flow layout of one run.
#[derive(Debug, Clone)]
pub enum Workload {
    /// One flow alone on the link.
    Single,
    /// The CCA under test vs. a competitor (flow 0 = under test).
    Pair {
        /// The competing controller (flow 1).
        competitor: Cca,
    },
    /// `flows` same-CCA flows, flow `i` starting at `i × stagger`.
    Staggered {
        /// Number of flows.
        flows: usize,
        /// Start offset between consecutive flows.
        stagger: Duration,
    },
    /// A heterogeneous competing fleet: flow 0 is the CCA under test,
    /// flows 1.. run `members` (e.g. Libra vs BBR+CUBIC+Copa).
    Fleet {
        /// The competing controllers, one flow each.
        members: Vec<Cca>,
    },
    /// Flow churn: the CCA under test runs as a whole-run elephant while
    /// `mice` short-lived `mouse`-CCA flows arrive and depart (mouse `i`
    /// alive on `[(i+1)·period, (i+1)·period + mouse_secs]`).
    Churn {
        /// The controller the short flows run.
        mouse: Cca,
        /// Number of short-lived flows.
        mice: usize,
        /// Lifetime of each mouse in seconds.
        mouse_secs: u64,
        /// Inter-arrival spacing between consecutive mice.
        period: Duration,
    },
}

/// One flow of a layout: which controller, and when it is alive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowSlot {
    /// The controller the flow runs.
    pub cca: Cca,
    /// First transmission time.
    pub start: Instant,
    /// Transmissions cease at this time.
    pub stop: Instant,
}

impl Workload {
    /// The flows of this layout for a run of `cca` ending at `until`, in
    /// `add_flow` order (slot `i` becomes flow `i`). Churn mice are
    /// clamped to the run, and mice that would start at or past its end
    /// are not added.
    pub fn slots(&self, cca: Cca, until: Instant) -> Vec<FlowSlot> {
        let whole = |cca| FlowSlot {
            cca,
            start: Instant::ZERO,
            stop: until,
        };
        match self {
            Workload::Single => vec![whole(cca)],
            Workload::Pair { competitor } => vec![whole(cca), whole(*competitor)],
            Workload::Staggered { flows, stagger } => (0..*flows as u64)
                .map(|i| FlowSlot {
                    cca,
                    start: Instant::ZERO + *stagger * i,
                    stop: until,
                })
                .collect(),
            Workload::Fleet { members } => std::iter::once(cca)
                .chain(members.iter().copied())
                .map(whole)
                .collect(),
            Workload::Churn {
                mouse,
                mice,
                mouse_secs,
                period,
            } => {
                let mice = (1..=*mice as u64)
                    .map(|i| Instant::ZERO + *period * i)
                    .take_while(|&start| start < until)
                    .map(|start| FlowSlot {
                        cca: *mouse,
                        start,
                        stop: (start + Duration::from_secs(*mouse_secs)).min(until),
                    });
                std::iter::once(whole(cca)).chain(mice).collect()
            }
        }
    }
}

/// One independent job of a sweep: everything needed to reproduce the
/// run, self-contained and `Send`.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Display label carried into the summary (scenario / sweep point).
    pub label: String,
    /// Controller under test.
    pub cca: Cca,
    /// Flow layout.
    pub workload: Workload,
    /// The bottleneck link (built eagerly on the coordinator — scenario
    /// builders are not `Sync`).
    pub link: LinkConfig,
    /// Simulated duration in seconds.
    pub secs: u64,
    /// Run seed.
    pub seed: u64,
    /// Record structured trace events (off by default; see
    /// [`RunSpec::with_trace`]).
    pub trace: bool,
    /// Route policy inference through a shared batched [`PolicyServer`]
    /// (MI ticks quantized to [`POLICY_QUANTUM`]; flows whose CCA has no
    /// trained agent run classic and never consult the server). Off by
    /// default — see [`RunSpec::with_batched`].
    pub batched: bool,
    /// Declarative policy-boundary fault plan, injected inside the
    /// shared server (implies `batched`). `None` by default — see
    /// [`RunSpec::with_policy_faults`].
    pub policy_faults: Option<PolicyChaosSpec>,
}

/// MI-tick quantum batched [`RunSpec`] runs use, so concurrent flows
/// land on shared decision ticks (the policy server's batching grid).
pub const POLICY_QUANTUM: Duration = Duration::from_millis(20);

impl RunSpec {
    fn new(
        label: String,
        cca: Cca,
        workload: Workload,
        link: LinkConfig,
        secs: u64,
        seed: u64,
    ) -> Self {
        RunSpec {
            label,
            cca,
            workload,
            link,
            secs,
            seed,
            trace: false,
            batched: false,
            policy_faults: None,
        }
    }

    /// A single-flow run.
    pub fn single(cca: Cca, link: LinkConfig, secs: u64, seed: u64) -> Self {
        RunSpec::new(cca.label(), cca, Workload::Single, link, secs, seed)
    }

    /// A two-flow run against `competitor`.
    pub fn pair(cca: Cca, competitor: Cca, link: LinkConfig, secs: u64, seed: u64) -> Self {
        let label = format!("{} vs {}", cca.label(), competitor.label());
        RunSpec::new(label, cca, Workload::Pair { competitor }, link, secs, seed)
    }

    /// A staggered same-CCA convergence run.
    pub fn staggered(
        cca: Cca,
        link: LinkConfig,
        flows: usize,
        stagger: Duration,
        secs: u64,
        seed: u64,
    ) -> Self {
        let workload = Workload::Staggered { flows, stagger };
        RunSpec::new(cca.label(), cca, workload, link, secs, seed)
    }

    /// A heterogeneous-fleet run: the CCA under test against one flow per
    /// member.
    pub fn fleet(cca: Cca, members: Vec<Cca>, link: LinkConfig, secs: u64, seed: u64) -> Self {
        let label = format!("{} vs fleet[{}]", cca.label(), members.len());
        RunSpec::new(label, cca, Workload::Fleet { members }, link, secs, seed)
    }

    /// A churn run: the CCA under test as the elephant, with `mice`
    /// short-lived `mouse` flows arriving every `period`.
    #[allow(clippy::too_many_arguments)]
    pub fn churn(
        cca: Cca,
        mouse: Cca,
        mice: usize,
        mouse_secs: u64,
        period: Duration,
        link: LinkConfig,
        secs: u64,
        seed: u64,
    ) -> Self {
        let label = format!("{} vs {} mice", cca.label(), mice);
        let workload = Workload::Churn {
            mouse,
            mice,
            mouse_secs,
            period,
        };
        RunSpec::new(label, cca, workload, link, secs, seed)
    }

    /// Replace the display label (builder style).
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// Enable structured trace recording for this run (builder style).
    /// The merged, time-ordered stream lands in [`RunSummary::trace`].
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Route this run's policy inference through a shared batched
    /// [`PolicyServer`] (builder style). MI ticks are quantized to
    /// [`POLICY_QUANTUM`]; flows without a trained agent run classic.
    pub fn with_batched(mut self) -> Self {
        self.batched = true;
        self
    }

    /// Attach a policy-boundary fault plan (builder style). Faults are
    /// injected inside the shared server, so this implies
    /// [`RunSpec::with_batched`].
    pub fn with_policy_faults(mut self, chaos: PolicyChaosSpec) -> Self {
        self.batched = true;
        self.policy_faults = Some(chaos);
        self
    }

    /// The flows of this run, in `add_flow` order.
    pub(crate) fn slots(&self) -> Vec<FlowSlot> {
        self.workload.slots(self.cca, Instant::from_secs(self.secs))
    }
}

/// Build and run `spec` under `cfg`.
///
/// Every model-backed CCA in the layout shares one eval-mode agent for
/// the run, inline or batched: eval inference never mutates the agent, so
/// shared and per-flow copies act bit-identically. A batched spec (or one
/// carrying a fault plan) additionally routes those flows through a
/// shared [`PolicyServer`] — classic flows never register — with the
/// fault plan armed before the first event, on `cfg.mi_quantum`'s tick
/// grid ([`POLICY_QUANTUM`] unless the caller set one). An inline spec
/// keeps whatever grid the caller asked for, which is how the
/// batched ≡ inline identity tests run the same quantized scenario both
/// ways.
pub fn run(store: &ModelStore, spec: &RunSpec, mut cfg: SimConfig) -> SimReport {
    let until = Instant::from_secs(spec.secs);
    let mut server = (spec.batched || spec.policy_faults.is_some()).then(PolicyServer::new);
    if let Some(server) = &mut server {
        cfg.mi_quantum = cfg.mi_quantum.or(Some(POLICY_QUANTUM));
        if let Some(chaos) = &spec.policy_faults {
            match chaos.compile() {
                Ok(plan) => server.set_faults(plan),
                // An invalid plan is a spec-authoring bug; the supervisor's
                // per-attempt guard converts this into a typed job failure.
                // lint: allow(panic)
                Err(e) => panic!("{}: invalid policy fault plan: {e}", spec.label),
            }
        }
    }
    let mut sim = Simulation::with_config(spec.link.clone(), spec.seed, cfg);
    let mut agents: BTreeMap<Cca, Option<SharedAgent>> = BTreeMap::new();
    for slot in spec.slots() {
        let agent = agents
            .entry(slot.cca)
            .or_insert_with(|| slot.cca.shared_eval_agent(store))
            .clone();
        let cca = match &agent {
            Some(agent) => slot.cca.build_shared(store, agent),
            None => slot.cca.build(store),
        };
        let id = sim.add_flow(FlowConfig::new(cca, slot.start, slot.stop));
        if let (Some(server), Some(agent)) = (&mut server, &agent) {
            server.register(id.0, agent);
        }
    }
    if let Some(server) = server {
        sim.attach_policy(Rc::new(RefCell::new(server)));
    }
    sim.run(until)
}

/// Execute one spec on the calling thread.
pub fn run_spec(store: &ModelStore, spec: &RunSpec) -> RunSummary {
    run_spec_budgeted(store, spec, SimBudget::default())
}

/// [`run_spec`] with watchdog budgets armed: a tripped budget aborts
/// the run by panicking with the [`libra_netsim::BudgetTrip`] as
/// payload, which the supervisor's per-attempt guard classifies into a
/// typed [`libra_types::JobFailure`].
pub fn run_spec_budgeted(store: &ModelStore, spec: &RunSpec, budget: SimBudget) -> RunSummary {
    let cfg = SimConfig {
        trace: spec.trace,
        budget,
        ..SimConfig::default()
    };
    RunSummary::from_report(&spec.label, &run(store, spec, cfg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use libra_types::Rate;

    fn wired(mbps: f64) -> LinkConfig {
        LinkConfig::constant(Rate::from_mbps(mbps), Duration::from_millis(40), 1.0)
    }

    fn slot(cca: Cca, start_s: u64, stop_s: u64) -> FlowSlot {
        FlowSlot {
            cca,
            start: Instant::from_secs(start_s),
            stop: Instant::from_secs(stop_s),
        }
    }

    fn layout(w: &Workload, until_s: u64) -> Vec<FlowSlot> {
        w.slots(Cca::Cubic, Instant::from_secs(until_s))
    }

    #[test]
    fn slots_lay_out_every_workload_kind() {
        let (cubic, bbr, vegas) = (Cca::Cubic, Cca::Bbr, Cca::Vegas);
        assert_eq!(layout(&Workload::Single, 9), vec![slot(cubic, 0, 9)]);
        let pair = Workload::Pair { competitor: bbr };
        assert_eq!(layout(&pair, 9), vec![slot(cubic, 0, 9), slot(bbr, 0, 9)]);
        let staggered = |flows| Workload::Staggered {
            flows,
            stagger: Duration::from_secs(2),
        };
        assert_eq!(
            layout(&staggered(3), 9),
            vec![slot(cubic, 0, 9), slot(cubic, 2, 9), slot(cubic, 4, 9)]
        );
        assert_eq!(layout(&staggered(0), 9), vec![]);
        let fleet = Workload::Fleet {
            members: vec![bbr, vegas, bbr],
        };
        assert_eq!(
            layout(&fleet, 9),
            vec![
                slot(cubic, 0, 9),
                slot(bbr, 0, 9),
                slot(vegas, 0, 9),
                slot(bbr, 0, 9)
            ]
        );
        let churn = |mice, mouse_secs, period_s| Workload::Churn {
            mouse: vegas,
            mice,
            mouse_secs,
            period: Duration::from_secs(period_s),
        };
        // Elephant first; mouse i alive on [(i+1)·period, +mouse_secs].
        assert_eq!(
            layout(&churn(2, 3, 4), 20),
            vec![slot(cubic, 0, 20), slot(vegas, 4, 7), slot(vegas, 8, 11)]
        );
        // The 8 s mouse is clamped to the 10 s run and the 12 s one is
        // never added; neither is one starting exactly at the end.
        assert_eq!(
            layout(&churn(5, 3, 4), 10),
            vec![slot(cubic, 0, 10), slot(vegas, 4, 7), slot(vegas, 8, 10)]
        );
        assert_eq!(
            layout(&churn(5, 3, 5), 10),
            vec![slot(cubic, 0, 10), slot(vegas, 5, 8)]
        );
        assert_eq!(layout(&churn(0, 3, 4), 10), vec![slot(cubic, 0, 10)]);
    }

    #[test]
    fn single_run_cubic_fills_wired_link() {
        let store = ModelStore::ephemeral(1);
        let link = LinkConfig::constant(Rate::from_mbps(24.0), Duration::from_millis(30), 1.0);
        let m = run_spec(&store, &RunSpec::single(Cca::Cubic, link, 15, 1)).headline();
        assert!(m.utilization > 0.8, "util {}", m.utilization);
        assert!(m.avg_rtt_ms >= 30.0);
        assert!(m.compute_us_per_s >= 0.0);
    }

    #[test]
    fn pair_run_reports_two_flows() {
        let store = ModelStore::ephemeral(2);
        let spec = RunSpec::pair(Cca::Cubic, Cca::Cubic, wired(20.0), 20, 3);
        let rep = run(&store, &spec, SimConfig::default());
        assert_eq!(rep.flows.len(), 2);
        assert!(rep.jain_index() > 0.6, "jain {}", rep.jain_index());
    }

    #[test]
    fn staggered_flows_start_in_order() {
        let store = ModelStore::ephemeral(3);
        let spec = RunSpec::staggered(Cca::Cubic, wired(20.0), 3, Duration::from_secs(5), 20, 4);
        let rep = run(&store, &spec, SimConfig::default());
        assert!(rep.flows[0].delivered_bytes > rep.flows[2].delivered_bytes);
    }

    #[test]
    fn fleet_run_reports_all_flows() {
        let store = ModelStore::ephemeral(4);
        let spec = RunSpec::fleet(Cca::Cubic, vec![Cca::Bbr, Cca::NewReno], wired(24.0), 15, 5);
        let rep = run(&store, &spec, SimConfig::default());
        assert_eq!(rep.flows.len(), 3);
        for f in &rep.flows {
            assert!(f.delivered_bytes > 0, "{} starved entirely", f.name);
        }
    }

    #[test]
    fn churn_mice_arrive_and_depart() {
        let store = ModelStore::ephemeral(5);
        let period = Duration::from_secs(4);
        let spec = RunSpec::churn(Cca::Cubic, Cca::Cubic, 3, 3, period, wired(24.0), 20, 6);
        let rep = run(&store, &spec, SimConfig::default());
        assert_eq!(rep.flows.len(), 4);
        // Every mouse moved bytes, but far fewer than the elephant.
        for f in &rep.flows[1..] {
            assert!(f.delivered_bytes > 0);
            assert!(f.delivered_bytes < rep.flows[0].delivered_bytes);
        }
        // Mouse 2 (starts at 12 s) is silent before its arrival.
        let early: f64 = rep.flows[3]
            .goodput_series
            .iter()
            .filter(|(t, _)| *t < 11.5)
            .map(|(_, v)| *v)
            .sum();
        assert_eq!(early, 0.0);
    }

    #[test]
    fn batched_runs_tick_on_the_policy_quantum_unless_the_caller_set_a_grid() {
        let store = ModelStore::ephemeral(6);
        let spec = RunSpec::fleet(
            Cca::Aurora,
            vec![Cca::Cubic, Cca::Aurora],
            wired(24.0),
            3,
            7,
        );
        let inline = run(
            &store,
            &spec,
            SimConfig::default().with_mi_quantum(POLICY_QUANTUM),
        );
        let served = run(&store, &spec.clone().with_batched(), SimConfig::default());
        let json = |r: &SimReport| {
            serde_json::to_string(&RunSummary::from_report("x", r)).expect("serialize")
        };
        assert_eq!(json(&inline), json(&served));
        let coarse = run(
            &store,
            &spec.with_batched(),
            SimConfig::default().with_mi_quantum(Duration::from_millis(100)),
        );
        assert_ne!(json(&coarse), json(&served), "caller's grid was ignored");
    }
}
