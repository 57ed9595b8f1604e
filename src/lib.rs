// Production code must justify every potential panic site: unwraps are
// banned outside tests (audited sites use `expect` with an invariant
// message or handle the `None`/`Err` branch).
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

//! # Libra — a unified congestion control framework
//!
//! A from-scratch Rust reproduction of *"A Unified Congestion Control
//! Framework for Diverse Application Preferences and Network Conditions"*
//! (CoNEXT 2021). Libra combines a classic congestion-control algorithm
//! (CUBIC or BBR) with a PPO-based learned one through a three-stage
//! control cycle — **explore → evaluate → exploit** — arbitrated by the
//! utility function
//!
//! ```text
//! u(x) = α·x^t − β·x·max(0, dRTT/dt) − γ·x·L
//! ```
//!
//! This facade re-exports the workspace crates:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`types`] | `libra-types` | time/rate units, the `CongestionControl` trait, utility function |
//! | [`netsim`] | `libra-netsim` | deterministic packet-level network simulator + trace generators |
//! | [`nn`] | `libra-nn` | dense NN substrate (MLP, Adam) |
//! | [`rl`] | `libra-rl` | PPO actor-critic |
//! | [`classic`] | `libra-classic` | CUBIC, BBR, Reno, Vegas, Westwood, Illinois, Copa |
//! | [`learned`] | `libra-learned` | Aurora, Orca, PCC Vivace/Proteus, Remy/Indigo/Sprout, RL formulations |
//! | [`core`] | `libra-core` | **Libra itself** (three-stage cycle, preferences, equilibrium analysis) |
//!
//! # Quickstart
//!
//! ```
//! use libra::prelude::*;
//! use std::{cell::RefCell, rc::Rc};
//!
//! // A deterministic 24 Mbps / 40 ms RTT dumbbell with a 1-BDP buffer.
//! let link = LinkConfig::constant(Rate::from_mbps(24.0), Duration::from_millis(40), 1.0);
//! let until = Instant::from_secs(10);
//! let mut sim = Simulation::new(link, 42);
//!
//! // C-Libra: CUBIC + a (here untrained, deterministic) RL component.
//! let mut rng = DetRng::new(7);
//! let mut agent = PpoAgent::new(Libra::ppo_config(), &mut rng);
//! agent.set_eval(true);
//! let libra = Libra::c_libra(Rc::new(RefCell::new(agent)));
//!
//! sim.add_flow(FlowConfig::whole_run(Box::new(libra), until));
//! let report = sim.run(until);
//! assert!(report.link.utilization > 0.5);
//! ```

pub use libra_classic as classic;
pub use libra_core as core;
pub use libra_learned as learned;
pub use libra_netsim as netsim;
pub use libra_nn as nn;
pub use libra_rl as rl;
pub use libra_types as types;

/// The most common imports in one place.
pub mod prelude {
    pub use libra_classic::{Bbr, Copa, Cubic, Illinois, NewReno, Vegas, Westwood};
    pub use libra_core::{Libra, LibraParams, LibraVariant};
    pub use libra_learned::{Orca, Pcc, Remy, RlCca, RlCcaConfig, Sprout};
    pub use libra_netsim::{
        lte_link, step_link, wan_link, wired_link, CapacitySchedule, FaultKind, FaultPlan,
        FaultReport, FlowConfig, GilbertElliott, LinkConfig, LteScenario, SimConfig, SimReport,
        Simulation, WanScenario,
    };
    pub use libra_rl::{PpoAgent, PpoConfig};
    pub use libra_types::{
        CongestionControl, DetRng, Duration, Instant, Preference, Rate, UtilityParams,
    };
}
