// Production code must justify every potential panic site: unwraps are
// banned outside tests (audited sites use `expect` with an invariant
// message or handle the `None`/`Err` branch).
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

//! A deterministic, packet-level, discrete-event network simulator — the
//! workspace's substitute for the paper's Mahimahi/Pantheon emulation.
//!
//! The topology is a dumbbell: any number of flows share one bottleneck
//! queue (droptail by default; see [`queue`]) feeding a (possibly
//! trace-driven) bottleneck link; ACKs return on an uncongested reverse
//! path with optional jitter. Everything is driven from a hierarchical
//! timer-wheel event queue (see [`wheel`]) with integer-nanosecond
//! timestamps, so a run is a pure function of `(configuration, seed)`.
//!
//! # Quick example
//!
//! ```
//! use libra_netsim::{FlowConfig, LinkConfig, Simulation};
//! use libra_types::{CongestionControl, Duration, Instant, Rate};
//!
//! // A fixed-rate "controller" for illustration.
//! struct Fixed(Rate);
//! impl CongestionControl for Fixed {
//!     fn name(&self) -> &'static str { "fixed" }
//!     fn on_ack(&mut self, _: &libra_types::AckEvent) {}
//!     fn on_loss(&mut self, _: &libra_types::LossEvent) {}
//!     fn cwnd_bytes(&self) -> u64 { u64::MAX / 2 }
//!     fn pacing_rate(&self) -> Option<Rate> { Some(self.0) }
//! }
//!
//! let link = LinkConfig::constant(Rate::from_mbps(10.0), Duration::from_millis(40), 1.0);
//! let until = Instant::from_secs(5);
//! let mut sim = Simulation::new(link, 42);
//! sim.add_flow(FlowConfig::whole_run(Box::new(Fixed(Rate::from_mbps(8.0))), until));
//! let report = sim.run(until);
//! assert!(report.link.utilization > 0.7);
//! ```

pub mod capacity;
pub mod cross_traffic;
pub mod faults;
pub mod host_clock;
pub mod loss;
pub mod mahimahi;
pub mod packet;
pub mod pool;
pub mod queue;
pub mod sender;
pub mod sim;
pub mod trace;
mod varint;
pub mod wheel;

#[cfg(test)]
#[path = "queue_law_tests.rs"]
mod aqm;

pub use capacity::CapacitySchedule;
pub use cross_traffic::{CbrSource, OnOffSource};
pub use faults::{FaultEvent, FaultKind, FaultPlan, FaultReport};
pub use loss::{GilbertElliott, LossProcess};
pub use mahimahi::{capacity_from_mahimahi, capacity_to_mahimahi, TraceError};
pub use packet::{AckPacket, FlowId, Packet};
pub use pool::{PacketHandle, PacketPool};
pub use queue::{AnyQueue, EcnConfig, Enqueue, QueueConfig, QueueCounters, QueueDiscipline};
pub use sender::{BinSeries, FlowSender, RttSeries};
pub use sim::{
    BudgetKind, BudgetTrip, FlowConfig, FlowReport, LinkConfig, LinkReport, SimBudget, SimConfig,
    SimReport, Simulation,
};
pub use trace::{
    datacenter_link, fiveg_link, leo_link, lte_link, lte_trace, satellite_link, step_link,
    wan_link, wired_link, LteScenario, WanScenario,
};
pub use wheel::{TimedEntry, TimerWheel};
