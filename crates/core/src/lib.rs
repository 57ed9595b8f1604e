// Production code must justify every potential panic site: unwraps are
// banned outside tests (audited sites use `expect` with an invariant
// message or handle the `None`/`Err` branch).
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

//! `libra-core`: the paper's primary contribution — the Libra unified
//! congestion-control framework (CoNEXT'21).
//!
//! Libra combines a classic CCA (CUBIC or BBR) with a PPO-based learned
//! CCA through a three-stage control cycle — **explore**, **evaluate**,
//! **exploit** — arbitrated by the utility function of Eq. 1:
//!
//! ```text
//! u(x) = α·x^t − β·x·max(0, dRTT/dt) − γ·x·L
//! ```
//!
//! * [`Libra`] — the controller (C-Libra, B-Libra, Clean-Slate, or any
//!   classic CCA via [`Libra::with_classic`]): the adapter that feeds
//!   the live arms to the cycle.
//! * [`cycle`] — Alg. 1's explore → evaluate → exploit machine as a
//!   plain-data [`cycle::Cycle`].
//! * [`LibraParams`] — stage durations, EI length, switch threshold, and
//!   application-preference profiles.
//! * [`accounting`] — per-cycle telemetry (decision fractions, utilities).
//! * [`equilibrium`] — numeric verification of Theorem 4.1's unique fair
//!   Nash equilibrium.
//! * [`train`] — in-framework PPO training over randomized networks.
//!
//! # Quick example
//!
//! ```
//! use libra_core::{Libra, train::LibraVariant};
//! use libra_rl::PpoAgent;
//! use libra_types::DetRng;
//! use std::{cell::RefCell, rc::Rc};
//!
//! let mut rng = DetRng::new(42);
//! let agent = Rc::new(RefCell::new(PpoAgent::new(Libra::ppo_config(), &mut rng)));
//! let libra = Libra::c_libra(agent);
//! assert_eq!(libra_types::CongestionControl::name(&libra), "C-Libra");
//! ```

pub mod accounting;
pub mod cycle;
pub mod equilibrium;
pub mod libra;
pub mod params;
pub mod train;

pub use accounting::{CycleLog, CycleRecord};
pub use equilibrium::DroptailGame;
pub use libra::Libra;
pub use params::{EvalOrder, LibraParams};
pub use train::{quick_train_config, train_libra, LibraVariant};
