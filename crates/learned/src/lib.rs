// Production code must justify every potential panic site: unwraps are
// banned outside tests (audited sites use `expect` with an invariant
// message or handle the `None`/`Err` branch).
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

//! `libra-learned`: learning-based congestion control.
//!
//! This crate implements the paper's RL formulation study (Sec. 4.2) and
//! all learned baselines the evaluation compares against:
//!
//! * [`formulation`] — the state-space catalogue of Tab. 1, AIAD/MIMD
//!   action spaces (Fig. 6) and reward variants (Tab. 3/4).
//! * [`RlCca`] — the generic PPO-driven controller (Alg. 2); with the
//!   right formulation it is Libra's RL component, Aurora, or Mod. RL.
//! * [`ladder`] — the degradation ladder every `RlCca` action passes
//!   through: replay, reject, bench with backoff, re-probe.
//! * [`Pcc`] — PCC Vivace (online gradient ascent) and PCC Proteus.
//! * [`Orca`] — the prior classic+RL hybrid (DRL rescales CUBIC's cwnd).
//! * [`Remy`], [`Indigo`], [`Sprout`] — compact substitutes for the
//!   offline-synthesized baselines (see DESIGN.md "Substitutions").
//! * [`trainer`] — the randomized-environment PPO training loop.

pub mod formulation;
pub mod indigo;
pub mod ladder;
pub mod orca;
pub mod remy;
pub mod rl_cca;
pub mod sprout;
pub mod trainer;
pub mod vivace;

pub use formulation::{ActionSpace, Feature, MiObservation, RewardSpec, StateSpace};
pub use indigo::Indigo;
pub use ladder::{Ladder, Resolution};
pub use orca::Orca;
pub use remy::Remy;
pub use rl_cca::{RewardSource, RlCca, RlCcaConfig, SelfServe};
pub use sprout::Sprout;
pub use trainer::{
    config_for_state_space, tail_means, tail_reward, train_episodes, train_orca, train_rl_cca,
    EnvRanges, EpisodeLog, TailMeans, TrainConfig, TrainResult,
};
pub use vivace::{Pcc, PccFlavour};
