//! Libra's tunable parameters and their paper defaults (Sec. 5 "Setup"
//! and Sec. 7 "How to choose Libra's parameters?").

use libra_types::{Preference, UtilityParams};

/// Which candidate goes first in the evaluation stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalOrder {
    /// The paper's design: lower rate first, minimizing the
    /// self-inflicted side effect of Fig. 4.
    LowerFirst,
    /// Ablation: higher rate first (suffers the Fig. 4 side effect).
    HigherFirst,
}

/// Configuration of a Libra controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LibraParams {
    /// Exploration-stage length in estimated RTTs (`k`): 1 for CUBIC-like
    /// CCAs, 3 for BBR (inheriting the first three gain-cycle RTTs).
    pub explore_rtts: f64,
    /// Evaluation-interval length in estimated RTTs (0.5 by default).
    pub ei_rtts: f64,
    /// Exploitation-stage length in estimated RTTs (matches `k`).
    pub exploit_rtts: f64,
    /// Early-exit threshold: leave exploration when
    /// `|x_cl − x_rl| ≥ switch_frac × x_prev` (0.3 by default, sized to
    /// cover BBR's ±0.25× probing).
    pub switch_frac: f64,
    /// The utility function of Eq. 1 used by the evaluation stage.
    pub utility: UtilityParams,
    /// Candidate evaluation order (ablation hook; the paper's design is
    /// lower-rate-first).
    pub eval_order: EvalOrder,
}

impl LibraParams {
    /// Defaults for a CUBIC-like underlying classic CCA: 1 RTT stages.
    pub fn for_cubic() -> Self {
        LibraParams {
            explore_rtts: 1.0,
            ei_rtts: 0.5,
            exploit_rtts: 1.0,
            switch_frac: 0.3,
            utility: UtilityParams::default(),
            eval_order: EvalOrder::LowerFirst,
        }
    }

    /// Defaults for BBR: 3-RTT exploration/exploitation (the first three
    /// RTTs of BBR's probing cycle carry the bandwidth search).
    pub fn for_bbr() -> Self {
        LibraParams {
            explore_rtts: 3.0,
            exploit_rtts: 3.0,
            ..LibraParams::for_cubic()
        }
    }

    /// Apply an application preference profile (Fig. 11's Th-1/…/La-2).
    pub fn with_preference(mut self, pref: Preference) -> Self {
        self.utility = pref.params();
        self
    }

    /// Exploration length in ticks (one tick = one EI).
    pub fn explore_ticks(&self) -> u32 {
        (self.explore_rtts / self.ei_rtts).round().max(1.0) as u32
    }

    /// Exploitation length in ticks.
    pub fn exploit_ticks(&self) -> u32 {
        (self.exploit_rtts / self.ei_rtts).round().max(2.0) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cubic_defaults_match_paper() {
        let p = LibraParams::for_cubic();
        assert_eq!(p.explore_rtts, 1.0);
        assert_eq!(p.ei_rtts, 0.5);
        assert_eq!(p.exploit_rtts, 1.0);
        assert_eq!(p.switch_frac, 0.3);
        assert_eq!(p.explore_ticks(), 2);
        assert_eq!(p.exploit_ticks(), 2);
    }

    #[test]
    fn bbr_defaults() {
        let p = LibraParams::for_bbr();
        assert_eq!(p.explore_rtts, 3.0);
        assert_eq!(p.explore_ticks(), 6);
        assert_eq!(p.exploit_ticks(), 6);
    }

    #[test]
    fn exploitation_always_covers_eval_feedback() {
        // The first two exploitation ticks absorb the candidates' ACKs, so
        // exploit_ticks ≥ 2 must hold for any sane configuration.
        for (e, ei) in [(1.0, 0.5), (0.5, 0.5), (1.0, 1.0), (3.0, 0.5)] {
            let p = LibraParams {
                exploit_rtts: e,
                ei_rtts: ei,
                ..LibraParams::for_cubic()
            };
            assert!(p.exploit_ticks() >= 2, "{e}/{ei}");
        }
    }

    #[test]
    fn preference_changes_utility() {
        let p = LibraParams::for_cubic().with_preference(Preference::Latency2);
        assert_eq!(p.utility.beta, 2700.0);
    }
}
