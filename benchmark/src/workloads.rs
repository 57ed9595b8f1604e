//! The four workloads: inputs made from the seed, one closed-loop
//! iteration (a fixed scenario simulated to completion), and the
//! correctness checks every iteration passes through.
//!
//! Everything is built from public functions of the crates. The
//! `run_single*` / `run_staggered*` / `run_pair*` helpers and
//! `SchedulerKind` are deliberately not used (see README.md).

use crate::timed::{LayerStats, TimedCca, TimedPolicy};
use libra_bench::{
    fnv1a, run_sweep_supervised_with, Cca, Journal, ModelStore, RunSpec, RunSummary, SweepPolicy,
    SweepReport,
};
use libra_classic::Cubic;
use libra_learned::{RlCca, RlCcaConfig};
use libra_netsim::{
    lte_link, step_link, wan_link, wired_link, FlowConfig, LinkConfig, LteScenario, SimConfig,
    SimReport, Simulation, WanScenario,
};
use libra_rl::{PolicyServer, PpoAgent, PpoConfig};
use libra_types::{CongestionControl, DetRng, Duration, Instant, PolicyService, Preference, Rate};
use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::time::Instant as Wall;

/// Seed of every model weight the workloads serve. Weights are part of
/// the program under test, not of the traffic: an untrained policy's
/// behaviour swings the simulated work by ±25 % from one weight seed to
/// the next, which would drown the host-time signal. `--seed` drives the
/// traffic instead: start and stop times, link traces, simulation seeds.
pub const MODEL_SEED: u64 = 0x5E21;

/// Workers of the traced pass's parallel sweep: fixed, so the speed-up
/// means the same on every host. The timed iterations run the sweep on
/// one worker: on a shared two-vCPU host a two-thread wall time swings
/// by 20 % for minutes at a time (see README.md), and a steady number
/// is worth more than a parallel one.
pub const SWEEP_WORKERS: usize = 2;

const MSS: u64 = 1500;
/// The three fleets must keep the bottleneck this busy.
const MIN_UTILIZATION: f64 = 0.95;

/// A seed-initialised agent in eval mode: serving cost does not depend
/// on what the weights are.
pub fn eval_agent(config: PpoConfig, seed: u64) -> PpoAgent {
    let mut agent = PpoAgent::new(config, &mut DetRng::new(seed));
    agent.set_eval(true);
    agent
}

/// Aurora's observation and action sizes at the paper's 2×512 geometry.
pub fn paper_sized_aurora() -> PpoConfig {
    let small = RlCcaConfig::aurora().ppo_config();
    PpoConfig::paper_sized(small.obs_dim, small.act_dim)
}

/// A workload's name on the command line and in `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// 1000 staggered CUBIC flows on a 96 Mbps wired link, 60 sim-s.
    ClassicFleet,
    /// 256 synchronized CUBIC flows into 1 Gbps / 2 ms, 10 sim-s.
    IncastBurst,
    /// 1000 Aurora flows sharing one 2×512 policy server, 5 sim-s.
    RlFleet,
    /// 80 single-flow jobs through the supervised sweep.
    ReportSweep,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 4] = [
        Kind::ClassicFleet,
        Kind::IncastBurst,
        Kind::RlFleet,
        Kind::ReportSweep,
    ];

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::ClassicFleet => "classic_fleet",
            Kind::IncastBurst => "incast_burst",
            Kind::RlFleet => "rl_fleet",
            Kind::ReportSweep => "report_sweep",
        }
    }

    /// Parse a name.
    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Which crate owns a controller — the layer its callbacks are booked to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `libra-classic`.
    Classic,
    /// `libra-learned`.
    Learned,
    /// `libra-core`.
    Core,
}

impl Layer {
    /// The layer's prefix in metric names.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Classic => "classic",
            Layer::Learned => "learned",
            Layer::Core => "core",
        }
    }

    /// The layer `cca`'s callbacks are booked to.
    pub fn of(cca: Cca) -> Layer {
        match cca {
            Cca::CleanSlateLibra | Cca::CLibra(_) | Cca::BLibra(_) => Layer::Core,
            Cca::NewReno
            | Cca::Cubic
            | Cca::Bbr
            | Cca::Vegas
            | Cca::Westwood
            | Cca::Illinois
            | Cca::Copa => Layer::Classic,
            _ => Layer::Learned,
        }
    }
}

/// The traced pass's accumulators, one per controller-owning crate.
#[derive(Default)]
pub struct Probe {
    classic: Rc<LayerStats>,
    learned: Rc<LayerStats>,
    core: Rc<LayerStats>,
}

impl Probe {
    /// The accumulator of `layer`.
    pub fn layer(&self, layer: Layer) -> &Rc<LayerStats> {
        match layer {
            Layer::Classic => &self.classic,
            Layer::Learned => &self.learned,
            Layer::Core => &self.core,
        }
    }

    /// Every layer with its accumulator.
    pub fn layers(&self) -> [(Layer, &LayerStats); 3] {
        [
            (Layer::Classic, &*self.classic),
            (Layer::Learned, &*self.learned),
            (Layer::Core, &*self.core),
        ]
    }
}

fn fnv_words(words: &[u64]) -> u64 {
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    fnv1a(&bytes)
}

/// Digest of a run's packet accounting: per-flow `[sent bytes, delivered
/// bytes, acked packets, lost packets]`, then the link's `[tail drops,
/// stochastic drops, utilisation bits]`.
fn packet_digest(flows: impl Iterator<Item = [u64; 4]>, link: [u64; 3]) -> u64 {
    let mut words: Vec<u64> = flows.flatten().collect();
    words.extend(link);
    fnv_words(&words)
}

/// [`packet_digest`] of a report. Identical to the digest of the summary
/// made from it.
pub fn report_digest(report: &SimReport) -> u64 {
    let l = &report.link;
    packet_digest(
        report.flows.iter().map(|f| {
            [
                f.sent_bytes,
                f.delivered_bytes,
                f.acked_packets,
                f.lost_packets,
            ]
        }),
        [l.tail_drops, l.stochastic_drops, l.utilization.to_bits()],
    )
}

/// [`packet_digest`] of a sweep slot's summary.
pub fn summary_digest(summary: &RunSummary) -> u64 {
    packet_digest(
        summary.flows.iter().map(|f| {
            [
                f.sent_bytes,
                f.delivered_bytes,
                f.acked_packets,
                f.lost_packets,
            ]
        }),
        [
            summary.tail_drops,
            summary.stochastic_drops,
            summary.utilization.to_bits(),
        ],
    )
}

/// The queue ledger every report must balance:
/// `admitted = dequeued + aqm_dropped + residual`.
pub fn ledger_balances(report: &SimReport) -> bool {
    let l = &report.link;
    l.queue_admitted_bytes
        == l.queue_dequeued_bytes + l.queue_aqm_dropped_bytes + l.queue_residual_bytes
}

/// What one iteration did, as far as the checks and metrics need it.
pub struct Iteration {
    /// Host seconds the iteration took.
    pub wall_s: f64,
    /// Packets acknowledged, summed over flows and jobs.
    pub acked: u64,
    /// One digest per job, in job order.
    pub digests: Vec<u64>,
    /// Jobs that failed a check, with the reason.
    pub failures: Vec<String>,
}

impl Iteration {
    /// Compare this iteration's digests with the reference iteration's;
    /// a differing job is a failed operation.
    pub fn check_against(&mut self, reference: &[u64]) {
        for (job, (got, want)) in self.digests.iter().zip(reference).enumerate() {
            if got != want {
                self.failures.push(format!(
                    "job {job}: digest {got:016x} differs from the reference {want:016x}"
                ));
            }
        }
        if self.digests.len() != reference.len() {
            self.failures.push(format!(
                "{} jobs, the reference had {}",
                self.digests.len(),
                reference.len()
            ));
        }
    }

    /// Jobs that failed, each counted once.
    pub fn failed_ops(&self, ops: u64) -> u64 {
        (self.failures.len() as u64).min(ops)
    }
}

/// Operations attempted and failed so far, with the reasons.
#[derive(Default)]
pub struct Tally {
    /// Simulation jobs run.
    pub attempted: u64,
    /// Jobs that panicked, erred, or failed a check.
    pub failed: u64,
    /// Checks of the run as a whole that failed.
    pub broken: u64,
}

impl Tally {
    /// Book one iteration of `ops` jobs.
    pub fn note(&mut self, it: &Iteration, ops: u64) {
        self.attempted += ops;
        self.failed += it.failed_ops(ops);
        for why in &it.failures {
            eprintln!("FAILED {why}");
        }
    }

    /// Book a failed whole-run check.
    pub fn broke(&mut self, why: &str) {
        eprintln!("FAILED {why}");
        self.broken += 1;
    }

    /// True while nothing failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.broken == 0
    }
}

/// The policy server a fleet run attached, plain or decorated.
pub enum Policy {
    /// A classic fleet: no server.
    None,
    /// The untraced pass.
    Plain(Rc<RefCell<PolicyServer>>),
    /// The traced pass.
    Timed(Rc<RefCell<TimedPolicy>>),
}

impl Policy {
    /// `(batches, rows, max_batch, quarantines)` of the wrapped server.
    pub fn counters(&self) -> [u64; 4] {
        let read = |s: &PolicyServer| {
            [
                s.batches(),
                s.rows_served(),
                s.max_batch() as u64,
                s.quarantines(),
            ]
        };
        match self {
            Policy::None => [0; 4],
            Policy::Plain(s) => read(&s.borrow()),
            Policy::Timed(t) => read(t.borrow().server()),
        }
    }
}

/// One of the three single-simulation workloads.
pub struct Fleet {
    link: LinkConfig,
    cfg: SimConfig,
    sim_seed: u64,
    /// `(start, stop)` of every flow.
    spans: Vec<(Instant, Instant)>,
    until: Instant,
    /// The RL fleet's shared eval-mode agent.
    agent: Option<Rc<RefCell<PpoAgent>>>,
}

impl Fleet {
    fn inputs(kind: Kind, seed: u64) -> Fleet {
        let mut rng = DetRng::new(seed).fork(kind.name());
        // Flow i starts at i·stagger plus a seed-drawn offset inside its
        // own stagger slot, so the fleet's shape is fixed and its phase
        // is not.
        let staggered = |n: u64, stagger_us: u64, until: Instant, rng: &mut DetRng| {
            (0..n)
                .map(|i| {
                    let at = i * stagger_us + rng.uniform_u64(0, stagger_us);
                    (Instant::from_micros(at), until)
                })
                .collect()
        };
        match kind {
            Kind::ClassicFleet => {
                let until = Instant::from_secs(60);
                Fleet {
                    link: wired_link(96.0),
                    cfg: SimConfig::default(),
                    sim_seed: seed,
                    spans: staggered(1000, 10_000, until, &mut rng),
                    until,
                    agent: None,
                }
            }
            Kind::IncastBurst => {
                // Every flow starts at exactly t = 0 — the same-instant
                // ties are the point — so the seed draws the stop times
                // instead, inside the last twentieth of the run.
                let until = Instant::from_secs(10);
                let spans = (0..256)
                    .map(|_| {
                        let stop = Instant::from_micros(rng.uniform_u64(9_500_000, 10_000_000));
                        (Instant::ZERO, stop)
                    })
                    .collect();
                Fleet {
                    link: LinkConfig::constant(
                        Rate::from_mbps(1000.0),
                        Duration::from_millis(2),
                        4.0,
                    ),
                    cfg: SimConfig::default(),
                    sim_seed: seed,
                    spans,
                    until,
                    agent: None,
                }
            }
            Kind::RlFleet => {
                let until = Instant::from_secs(5);
                let agent = eval_agent(paper_sized_aurora(), MODEL_SEED);
                Fleet {
                    link: wired_link(96.0),
                    cfg: SimConfig::default().with_mi_quantum(Duration::from_millis(10)),
                    sim_seed: seed,
                    spans: staggered(1000, 2_000, until, &mut rng),
                    until,
                    agent: Some(Rc::new(RefCell::new(agent))),
                }
            }
            Kind::ReportSweep => unreachable!("the sweep is not a fleet"),
        }
    }

    /// The crate owning this fleet's controllers.
    fn layer(&self) -> Layer {
        if self.agent.is_some() {
            Layer::Learned
        } else {
            Layer::Classic
        }
    }

    /// A ready-to-run simulation: flows added, policy server attached.
    /// With a `probe` every controller and the server are decorated.
    fn build(&self, probe: Option<&Probe>) -> (Simulation, Policy) {
        let mut sim = Simulation::with_config(self.link.clone(), self.sim_seed, self.cfg.clone());
        let mut server = self.agent.as_ref().map(|_| PolicyServer::new());
        for &(start, stop) in &self.spans {
            let cca: Box<dyn CongestionControl> = match &self.agent {
                Some(agent) => Box::new(RlCca::new(RlCcaConfig::aurora(), Rc::clone(agent))),
                None => Box::new(Cubic::new(MSS)),
            };
            let cca = match probe {
                Some(probe) => TimedCca::wrap(cca, probe.layer(self.layer())),
                None => cca,
            };
            let id = sim.add_flow(FlowConfig::new(cca, start, stop));
            if let (Some(server), Some(agent)) = (&mut server, &self.agent) {
                server.register(id.0, agent);
            }
        }
        let policy = match (server, probe) {
            (None, _) => Policy::None,
            (Some(server), None) => {
                let server = Rc::new(RefCell::new(server));
                let service: Rc<RefCell<dyn PolicyService>> = server.clone();
                sim.attach_policy(service);
                Policy::Plain(server)
            }
            (Some(server), Some(_)) => {
                let timed = Rc::new(RefCell::new(TimedPolicy::new(server)));
                let service: Rc<RefCell<dyn PolicyService>> = timed.clone();
                sim.attach_policy(service);
                Policy::Timed(timed)
            }
        };
        (sim, policy)
    }

    /// One iteration: build the simulation, run it to completion, check
    /// the report. Returns the report and server for the traced pass.
    pub fn iterate(&self, probe: Option<&Probe>) -> (Iteration, SimReport, Policy) {
        let t0 = Wall::now();
        let (sim, policy) = self.build(probe);
        let report = sim.run(self.until);
        let wall_s = t0.elapsed().as_secs_f64();

        let mut failures = Vec::new();
        if !ledger_balances(&report) {
            failures.push("queue ledger does not balance".to_string());
        }
        if report.link.utilization < MIN_UTILIZATION {
            failures.push(format!(
                "utilization {:.3} below {MIN_UTILIZATION}",
                report.link.utilization
            ));
        }
        let quarantines: u64 = report.flows.iter().map(|f| f.policy_quarantines).sum();
        if quarantines != 0 {
            failures.push(format!("{quarantines} policy quarantines"));
        }
        let [batches, rows, ..] = policy.counters();
        let iteration = Iteration {
            wall_s,
            acked: report.flows.iter().map(|f| f.acked_packets).sum(),
            // The server's counters ride in the digest, so a decorated
            // run must also serve the same rows in the same batches.
            digests: vec![fnv_words(&[report_digest(&report), batches, rows])],
            failures,
        };
        (iteration, report, policy)
    }
}

/// The sweep workload: what the figure binaries do.
pub struct Sweep {
    /// Trained-weight cache, warm.
    pub store: ModelStore,
    /// The 80 jobs.
    pub specs: Vec<RunSpec>,
    journal: PathBuf,
}

/// Simulated seconds of every sweep job.
const SWEEP_JOB_SECS: u64 = 10;

impl Sweep {
    fn inputs(seed: u64, scratch: &Path) -> Sweep {
        let ccas = [
            Cca::Cubic,
            Cca::Bbr,
            Cca::Aurora,
            Cca::Orca,
            Cca::CleanSlateLibra,
            Cca::CLibra(Preference::Default),
            Cca::CLibra(Preference::Throughput2),
            Cca::CLibra(Preference::Latency2),
            Cca::BLibra(Preference::Default),
            Cca::BLibra(Preference::Latency1),
        ];
        let total = Duration::from_secs(SWEEP_JOB_SECS);
        let mut root = DetRng::new(seed).fork(Kind::ReportSweep.name());
        let mut specs = Vec::with_capacity(ccas.len() * 8);
        for cca in ccas {
            for family in 0..4 {
                for k in 0..2 {
                    // Every job draws its own trace: eighty draws average
                    // the WAN family's 40–80 Mbps range out, two would not.
                    let mut rng = root.fork("link");
                    let link = match family {
                        0 => wired_link(24.0),
                        1 => lte_link(LteScenario::Walking, total, &mut rng),
                        2 => step_link(total),
                        _ => wan_link(WanScenario::InterContinental, total, &mut rng),
                    };
                    specs.push(RunSpec::single(
                        cca,
                        link,
                        SWEEP_JOB_SECS,
                        seed.wrapping_add(k),
                    ));
                }
            }
        }
        let store = ModelStore::ephemeral(MODEL_SEED);
        for cca in ccas {
            if cca.needs_model() {
                drop(cca.build(&store)); // trains into the store's cache
            }
        }
        Sweep {
            store,
            specs,
            journal: scratch.join(format!("sweep-journal-{}.jsonl", std::process::id())),
        }
    }

    /// Run every job through the supervised sweep with a fresh journal,
    /// as the figure binaries do. Returns the report and its wall time.
    pub fn run(&self, workers: usize) -> (SweepReport, f64) {
        let specs = self.specs.clone();
        let t0 = Wall::now();
        let mut journal = Journal::fresh(&self.journal).expect("journal file inside the checkout");
        let report = run_sweep_supervised_with(
            &self.store,
            specs,
            workers,
            &SweepPolicy::default(),
            None,
            Some(&mut journal),
        );
        (report, t0.elapsed().as_secs_f64())
    }

    /// One iteration: the whole sweep on one worker.
    pub fn iterate(&self) -> Iteration {
        let (report, wall_s) = self.run(1);
        Sweep::summarize(&report, wall_s)
    }

    /// Digest every slot of a finished sweep; a failed slot is a failed
    /// operation.
    pub fn summarize(report: &SweepReport, wall_s: f64) -> Iteration {
        let mut it = Iteration {
            wall_s,
            acked: 0,
            digests: Vec::with_capacity(report.slots.len()),
            failures: Vec::new(),
        };
        for (job, slot) in report.slots.iter().enumerate() {
            match slot {
                Ok(summary) => {
                    it.acked += summary.flows.iter().map(|f| f.acked_packets).sum::<u64>();
                    it.digests.push(summary_digest(summary));
                }
                Err(failure) => {
                    it.digests.push(0);
                    it.failures.push(format!("job {job}: {failure}"));
                }
            }
        }
        it
    }
}

impl Drop for Sweep {
    fn drop(&mut self) {
        // The journal is scratch; a run leaves nothing behind.
        let _ = std::fs::remove_file(&self.journal);
    }
}

/// A workload with its inputs built.
pub enum Workload {
    /// One simulation per iteration.
    Fleet(Fleet),
    /// Eighty jobs per iteration.
    Sweep(Sweep),
}

impl Workload {
    /// Set-up: make the inputs from `seed` and build one ready-to-run
    /// instance of everything an iteration needs (links, traces, agents,
    /// trained weights, specs, a simulation with its flows added).
    /// `scratch` is a directory inside the checkout for the journal.
    pub fn setup(kind: Kind, seed: u64, scratch: &Path) -> Workload {
        match kind {
            Kind::ReportSweep => Workload::Sweep(Sweep::inputs(seed, scratch)),
            _ => {
                let fleet = Fleet::inputs(kind, seed);
                drop(fleet.build(None));
                Workload::Fleet(fleet)
            }
        }
    }

    /// Simulation jobs per iteration — the unit `attempted` counts.
    pub fn ops(&self) -> u64 {
        match self {
            Workload::Fleet(_) => 1,
            Workload::Sweep(s) => s.specs.len() as u64,
        }
    }

    /// Simulated seconds per iteration, summed over jobs.
    pub fn sim_seconds(&self) -> f64 {
        match self {
            Workload::Fleet(f) => f.until.as_secs_f64(),
            Workload::Sweep(s) => (s.specs.len() as u64 * SWEEP_JOB_SECS) as f64,
        }
    }

    /// One untraced iteration.
    pub fn iterate(&self) -> Iteration {
        match self {
            Workload::Fleet(f) => f.iterate(None).0,
            Workload::Sweep(s) => s.iterate(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for kind in Kind::ALL {
            assert_eq!(Kind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(Kind::from_name("hit"), None);
    }

    #[test]
    fn controllers_are_booked_to_their_crates() {
        assert_eq!(Layer::of(Cca::Cubic), Layer::Classic);
        assert_eq!(Layer::of(Cca::Bbr), Layer::Classic);
        assert_eq!(Layer::of(Cca::Aurora), Layer::Learned);
        assert_eq!(Layer::of(Cca::Orca), Layer::Learned);
        assert_eq!(Layer::of(Cca::CleanSlateLibra), Layer::Core);
        assert_eq!(Layer::of(Cca::BLibra(Preference::Latency1)), Layer::Core);
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for kind in [Kind::ClassicFleet, Kind::IncastBurst, Kind::RlFleet] {
            let a = Fleet::inputs(kind, 7);
            let b = Fleet::inputs(kind, 7);
            let c = Fleet::inputs(kind, 8);
            assert_eq!(a.spans, b.spans, "{kind:?}");
            assert_ne!(a.spans, c.spans, "{kind:?}");
        }
    }

    /// A small decorated run must digest exactly as the plain one does:
    /// the decorators are transparent.
    #[test]
    fn digest_is_stable_and_decorators_are_transparent() {
        let mut fleet = Fleet::inputs(Kind::IncastBurst, 3);
        fleet.spans.truncate(8);
        fleet.until = Instant::from_millis(300);
        let (plain, report, _) = fleet.iterate(None);
        let (again, ..) = fleet.iterate(None);
        let probe = Probe::default();
        let (decorated, ..) = fleet.iterate(Some(&probe));
        assert_eq!(plain.digests, again.digests);
        assert_eq!(plain.digests, decorated.digests);
        assert!(plain.acked > 0);
        assert!(ledger_balances(&report));
        // The decorators saw exactly the packets the report counts.
        assert_eq!(probe.layer(Layer::Classic).ack.calls(), plain.acked);
        assert_eq!(probe.layer(Layer::Learned).ack.calls(), 0);

        let summary = RunSummary::from_report("x", &report);
        assert_eq!(summary_digest(&summary), report_digest(&report));
    }

    #[test]
    fn a_differing_digest_is_a_failed_operation() {
        let mut it = Iteration {
            wall_s: 1.0,
            acked: 1,
            digests: vec![1, 2, 3],
            failures: Vec::new(),
        };
        it.check_against(&[1, 2, 3]);
        assert_eq!(it.failed_ops(3), 0);
        it.check_against(&[1, 9, 3]);
        assert_eq!(it.failed_ops(3), 1);
    }
}
