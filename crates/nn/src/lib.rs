// Production code must justify every potential panic site: unwraps are
// banned outside tests (audited sites use `expect` with an invariant
// message or handle the `None`/`Err` branch).
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

//! `libra-nn`: a minimal dense neural-network library — matrices, MLPs
//! with manual backprop, and the Adam optimizer.
//!
//! This is the substrate under [`libra-rl`]'s PPO implementation. It is
//! deliberately tiny: the networks the paper uses are two fully-connected
//! hidden layers, and everything here is plain `f64` math with no
//! dependencies beyond `serde` (for weight caching) and the workspace's
//! deterministic RNG.
//!
//! [`libra-rl`]: ../libra_rl/index.html

pub mod adam;
pub mod matrix;
pub mod mlp;
mod par;

pub use adam::Adam;
pub use matrix::Matrix;
pub use mlp::{Activation, BatchCache, BatchScratch, ForwardCache, Mlp, MlpGrad};
