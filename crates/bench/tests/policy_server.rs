//! Full-simulation contracts for the shared policy server (ROADMAP
//! item 2).
//!
//! 1. **Bit identity**: a fleet served through the batched
//!    `PolicyServer` must produce byte-for-byte the same report as the
//!    same fleet running per-flow inline inference — same MI quantum,
//!    same seeds, same weights. `RunSummary`'s serialization covers
//!    every flow and link metric but skips `compute_ns` (host
//!    wall-clock), which is exactly the fingerprint the identity
//!    contract is over.
//! 2. **Liveness**: the server actually composes multi-flow batches —
//!    quantized MI ticks land concurrent flows on shared decision
//!    instants, and every flow keeps making progress.

use libra_bench::{
    paper_eval_agent, run, run_with_agent, Cca, ModelStore, RunSpec, RunSummary, POLICY_QUANTUM,
};
use libra_learned::RlCcaConfig;
use libra_netsim::{FlowConfig, LinkConfig, SimConfig, SimReport, Simulation};
use libra_rl::PolicyServer;
use libra_types::{Duration, Instant, PolicyService, Preference, Rate};
use std::cell::RefCell;
use std::rc::Rc;

/// Debug builds simulate much slower; scale the fleet, not the physics.
#[cfg(debug_assertions)]
const FLOWS: usize = 24;
#[cfg(not(debug_assertions))]
const FLOWS: usize = 200;

fn wired(mbps: f64) -> LinkConfig {
    LinkConfig::constant(Rate::from_mbps(mbps), Duration::from_millis(40), 1.0)
}

fn on_grid() -> SimConfig {
    SimConfig::default().with_mi_quantum(POLICY_QUANTUM)
}

fn fingerprint(report: &SimReport) -> String {
    serde_json::to_string(&RunSummary::from_report("run", report)).unwrap()
}

#[test]
fn batched_run_matches_per_flow_run_byte_for_byte() {
    let store = ModelStore::ephemeral(9);
    for cca in [Cca::Aurora, Cca::CLibra(Preference::Default)] {
        let spec = RunSpec::staggered(cca, wired(48.0), FLOWS, Duration::from_millis(50), 6, 17);
        let solo = run(&store, &spec, on_grid());
        let batched = run(&store, &spec.with_batched(), on_grid());
        assert_eq!(
            fingerprint(&solo),
            fingerprint(&batched),
            "batched {cca:?} run diverged from per-flow inference"
        );
    }
}

/// The same identity over every model-backed controller on small
/// fleets: {1, 2, 3} flows staggered 500 ms over three link/seed points.
/// Orca is the member that matters — a window-based learned flow emits
/// the moment its decision resolves, scheduling a service completion
/// *earlier* than the event the MI gather popped one step too far, so a
/// gather that parks that event instead of handing it back to the queue
/// dispatches out of time order (a hard assert under
/// `checked-invariants`, a silent divergence otherwise).
#[test]
fn batched_matches_inline_on_small_fleets_of_every_learned_cca() {
    let store = ModelStore::ephemeral(9);
    let ccas = [
        Cca::Orca,
        Cca::Aurora,
        Cca::ModRl,
        Cca::CleanSlateLibra,
        Cca::CLibra(Preference::Default),
        Cca::BLibra(Preference::Default),
    ];
    for cca in ccas {
        for (mbps, seed) in [(6.0, 1), (24.0, 3), (96.0, 5)] {
            for flows in 1..=3 {
                let link =
                    LinkConfig::constant(Rate::from_mbps(mbps), Duration::from_millis(30), 1.0);
                let spec =
                    RunSpec::staggered(cca, link, flows, Duration::from_millis(500), 6, seed);
                let solo = run(&store, &spec, on_grid());
                let batched = run(&store, &spec.with_batched(), SimConfig::default());
                assert_eq!(
                    fingerprint(&solo),
                    fingerprint(&batched),
                    "{cca:?} x{flows} @ {mbps} Mbps seed {seed}: batched diverged from inline"
                );
            }
        }
    }
}

/// The same identity contract at the paper's full network geometry
/// (two 512-unit hidden layers): wide matrices drive the batched GEMM
/// through its vectorized kernel and every blocking/tail combination,
/// so this is the end-to-end check that the fast path is still
/// bit-identical to per-flow inference. The agent is seed-initialized
/// (`paper_eval_agent`) — identity must hold for *any* weights, and
/// untrained ones keep the test fast.
#[test]
fn paper_geometry_batched_run_matches_per_flow_run() {
    let store = ModelStore::ephemeral(0); // never consulted: the agent is supplied
    let agent = paper_eval_agent(&RlCcaConfig::aurora(), 31);
    let stagger = Duration::from_millis(50);
    let spec = RunSpec::staggered(Cca::Aurora, wired(48.0), FLOWS.min(64), stagger, 4, 19);
    let solo = run_with_agent(&store, &spec, on_grid(), &agent);
    let batched = run_with_agent(&store, &spec.with_batched(), on_grid(), &agent);
    assert_eq!(
        fingerprint(&solo),
        fingerprint(&batched),
        "paper-geometry batched run diverged from per-flow inference"
    );
}

#[test]
fn policy_server_serves_multi_flow_batches() {
    let store = ModelStore::ephemeral(10);
    let cca = Cca::Aurora;
    let agent = cca.shared_eval_agent(&store).expect("Aurora is trained");
    let until = Instant::from_secs(5);
    let mut sim = Simulation::with_config(
        wired(48.0),
        23,
        SimConfig::default().with_mi_quantum(Duration::from_millis(20)),
    );
    let mut server = PolicyServer::new();
    for _ in 0..16 {
        let id = sim.add_flow(FlowConfig::whole_run(
            cca.build_shared(&store, &agent),
            until,
        ));
        server.register(id.0, &agent);
    }
    let server = Rc::new(RefCell::new(server));
    let service: Rc<RefCell<dyn PolicyService>> = Rc::clone(&server) as _;
    sim.attach_policy(service);
    let report = sim.run(until);

    let s = server.borrow();
    assert_eq!(s.group_count(), 1, "one shared agent forms one group");
    assert!(s.batches() > 0, "no batched evaluations ran");
    assert!(
        s.max_batch() > 1,
        "flows never shared a decision tick (max batch {})",
        s.max_batch()
    );
    assert!(s.rows_served() >= s.batches());
    for f in &report.flows {
        assert!(f.delivered_bytes > 0, "{} starved under batching", f.name);
    }
}
