//! Training Libra's RL component *inside* the framework.
//!
//! The paper trains the DRL agent with the sender running the full Libra
//! control loop over randomized emulated networks (Sec. 5
//! "Implementation"). Training inside the framework matters: the agent's
//! experience must include the cycle's rate resets (`x_prev` re-basing)
//! or its policy would assume unbroken control of the rate.

use crate::libra::Libra;
use crate::params::LibraParams;
use libra_classic::{Bbr, Cubic};
use libra_learned::trainer::{train_episodes, EnvRanges, TrainConfig, TrainResult};
use libra_rl::PpoAgent;
use libra_types::{CongestionControl, DetRng};
use std::cell::RefCell;
use std::rc::Rc;

/// Which classic CCA Libra wraps during training.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LibraVariant {
    /// C-Libra (CUBIC inside).
    Cubic,
    /// B-Libra (BBR inside).
    Bbr,
    /// Clean-Slate Libra (no classic CCA).
    CleanSlate,
}

impl LibraVariant {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            LibraVariant::Cubic => "C-Libra",
            LibraVariant::Bbr => "B-Libra",
            LibraVariant::CleanSlate => "CL-Libra",
        }
    }

    /// Build a Libra instance of this variant over a shared agent.
    pub fn build(self, agent: Rc<RefCell<PpoAgent>>) -> Libra {
        self.build_with_params(self.params(), agent)
    }

    /// Default cycle parameters for this variant.
    pub fn params(self) -> LibraParams {
        match self {
            LibraVariant::Bbr => LibraParams::for_bbr(),
            _ => LibraParams::for_cubic(),
        }
    }

    /// Build with explicit parameters (sensitivity sweeps).
    pub fn build_with_params(self, params: LibraParams, agent: Rc<RefCell<PpoAgent>>) -> Libra {
        let classic: Option<Box<dyn CongestionControl>> = match self {
            LibraVariant::Cubic => Some(Box::new(Cubic::new(1500))),
            LibraVariant::Bbr => Some(Box::new(Bbr::new(1500))),
            LibraVariant::CleanSlate => None,
        };
        Libra::new(self.label(), classic, params, agent)
    }
}

/// Train Libra's RL component inside the full framework over randomized
/// networks.
pub fn train_libra(variant: LibraVariant, cfg: &TrainConfig) -> TrainResult {
    let mut rng = DetRng::new(cfg.seed ^ 0x11B7A);
    let agent = PpoAgent::new(Libra::ppo_config(), &mut rng);
    let env_rng = rng.fork("libra-train-env");
    train_episodes(cfg, agent, rng, env_rng, |agent, _| {
        Box::new(variant.build(Rc::clone(agent)))
    })
}

/// A quick training configuration for tests and cold-cache benches.
pub fn quick_train_config(seed: u64) -> TrainConfig {
    TrainConfig {
        episode_secs: 6,
        ..TrainConfig::new(60, EnvRanges::quick(), seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn libra_trains_inside_framework() {
        let cfg = TrainConfig {
            episodes: 3,
            episode_secs: 3,
            env: EnvRanges::quick(),
            seed: 5,
            update_every: 2,
        };
        let r = train_libra(LibraVariant::Cubic, &cfg);
        assert_eq!(r.curve.len(), 3);
        assert!(r.curve.iter().all(|e| e.reward.is_finite()));
        // The framework must actually move data.
        assert!(r.curve.iter().any(|e| e.utilization > 0.05));
    }

    /// 64-bit FNV-1a (the digest the bench crate's golden tables use).
    fn fnv1a(s: &str) -> u64 {
        s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Libra's training-mode self-serve (`on_mi` sampling from the agent
    /// being updated, cycle resets included), pinned against the commit
    /// that recorded it. `Debug` prints every float round-trip exact.
    #[test]
    fn libra_training_is_pinned() {
        let cfg = TrainConfig {
            episodes: 6,
            ..quick_train_config(5)
        };
        let r = train_libra(LibraVariant::Cubic, &cfg);
        let got = fnv1a(&format!("{:?}{:?}", r.weights, r.curve));
        assert_eq!(
            got, 0xaaf6_dbba_d12c_f5df,
            "training digest drifted (got {got:#018x})"
        );
    }

    /// The other two variants' wrappers (B-Libra's 3-RTT stages, the
    /// classic-less cycle), pinned on a short run each.
    #[test]
    fn b_libra_and_clean_slate_training_is_pinned() {
        let cfg = TrainConfig {
            episodes: 3,
            episode_secs: 3,
            env: EnvRanges::quick(),
            seed: 8,
            update_every: 2,
        };
        for (variant, want) in [
            (LibraVariant::Bbr, 0x19b5_198c_ef08_f3cf),
            (LibraVariant::CleanSlate, 0x6325_dc93_1630_f5fc),
        ] {
            let r = train_libra(variant, &cfg);
            let got = fnv1a(&format!("{:?}{:?}", r.weights, r.curve));
            assert_eq!(
                got,
                want,
                "{} training digest drifted (got {got:#018x})",
                variant.label()
            );
        }
    }

    #[test]
    fn clean_slate_trains_too() {
        let cfg = TrainConfig {
            episodes: 2,
            episode_secs: 3,
            env: EnvRanges::quick(),
            seed: 6,
            update_every: 1,
        };
        let r = train_libra(LibraVariant::CleanSlate, &cfg);
        assert_eq!(r.curve.len(), 2);
    }

    #[test]
    fn variant_labels() {
        assert_eq!(LibraVariant::Cubic.label(), "C-Libra");
        assert_eq!(LibraVariant::Bbr.label(), "B-Libra");
        assert_eq!(LibraVariant::CleanSlate.label(), "CL-Libra");
    }
}
