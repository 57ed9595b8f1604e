// Production code must justify every potential panic site: unwraps are
// banned outside tests (audited sites use `expect` with an invariant
// message or handle the `None`/`Err` branch).
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

//! Core vocabulary types shared by every crate in the Libra workspace.
//!
//! This crate deliberately has no knowledge of the simulator or of any
//! concrete congestion-control algorithm. It defines:
//!
//! * integer-nanosecond [`time`] arithmetic (deterministic event ordering —
//!   no floating-point drift),
//! * transport [`units`]: sending rates and byte counts,
//! * the [`cca::CongestionControl`] trait every algorithm implements,
//! * per-ACK / per-loss / per-send [`events`] delivered to algorithms,
//! * monitor-interval [`stats`] aggregation and general statistics helpers,
//! * the Libra/Vivace-style [`utility`] function of Eq. 1 of the paper and
//!   the application-preference profiles built on it,
//! * a seeded, forkable deterministic [`rng`],
//! * the [`job`] failure taxonomy used by supervised sweep execution,
//! * the one seed-deterministic fault schedule, [`faultplan`], shared by
//!   the link and policy fault planes,
//! * the [`policy`] service boundary and the [`policyfault`] kinds
//!   injected at it,
//! * structured decision [`trace`] events, sinks and the [`trace::Tracer`]
//!   handle threaded through controllers and the simulator.

pub mod cca;
pub mod events;
pub mod faultplan;
pub mod job;
pub mod policy;
pub mod policyfault;
pub mod rng;
pub mod stats;
pub mod time;
pub mod trace;
pub mod units;
pub mod utility;

pub use cca::CongestionControl;
pub use events::{AckEvent, LossEvent, LossKind, SendEvent};
pub use faultplan::{FaultEvent, FaultPlan};
pub use job::{JobError, JobFailure};
pub use policy::{PolicyRequest, PolicyService};
pub use policyfault::{PolicyFaultKind, PolicyFaultReport};
pub use rng::DetRng;
pub use stats::{jain_index, Ewma, MiStats, MiTracker, P2Quantile, Welford};
pub use time::{Duration, Instant};
pub use trace::{
    CandidateKind, CandidateSample, GuardrailStep, NoopSink, RingRecorder, TraceEvent, TraceSink,
    TraceStage, Tracer, LINK_FLOW,
};
pub use units::{Bytes, Rate};
pub use utility::{Preference, UtilityParams};
