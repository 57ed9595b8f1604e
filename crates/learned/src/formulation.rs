//! The RL formulation zoo of Sec. 4.2: state-space features (Tab. 1),
//! action spaces (AIAD / MIMD) and reward variants (`r` vs `Δr`, with and
//! without the loss term).

use libra_types::{Duration, MiStats, Rate};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// The nine state candidates of Tab. 1. Each contributes one or two
/// normalized scalars to the feature vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Feature {
    /// (i) EWMA of the gap between sequential ACKs.
    AckInterarrivalEwma,
    /// (ii) EWMA of the gap between sequential packet sends.
    SendInterarrivalEwma,
    /// (iii) Ratio of most-recent to minimum RTT.
    RttRatio,
    /// (iv) Current sending rate.
    SendingRate,
    /// (v) Ratio between packets sent and acknowledged.
    SentAckedRatio,
    /// (vi) Current RTT and the minimum RTT (two scalars).
    RttAndMinRtt,
    /// (vii) Average loss rate.
    LossRate,
    /// (viii) Derivative of latency with respect to time.
    LatencyGradient,
    /// (ix) Average delivery rate.
    DeliveryRate,
}

impl Feature {
    /// Scalars this feature contributes.
    pub fn width(self) -> usize {
        match self {
            Feature::RttAndMinRtt => 2,
            _ => 1,
        }
    }

    /// Tab. 1 index label, e.g. "(iv)".
    pub fn label(self) -> &'static str {
        match self {
            Feature::AckInterarrivalEwma => "(i)",
            Feature::SendInterarrivalEwma => "(ii)",
            Feature::RttRatio => "(iii)",
            Feature::SendingRate => "(iv)",
            Feature::SentAckedRatio => "(v)",
            Feature::RttAndMinRtt => "(vi)",
            Feature::LossRate => "(vii)",
            Feature::LatencyGradient => "(viii)",
            Feature::DeliveryRate => "(ix)",
        }
    }
}

/// Per-MI measurements the feature extractor consumes — [`MiStats`] plus
/// the two ACK/send-gap EWMAs only the sender can maintain.
#[derive(Debug, Clone, Copy)]
pub struct MiObservation {
    /// Closed monitor-interval statistics.
    pub mi: MiStats,
    /// EWMA of inter-ACK gaps (feature i).
    pub ack_gap_ewma: Duration,
    /// EWMA of inter-send gaps (feature ii).
    pub send_gap_ewma: Duration,
    /// Running maximum throughput (normalizer, Alg. 2 line 6).
    pub x_max: Rate,
    /// Running minimum delay (normalizer, Alg. 2 line 6).
    pub d_min: Duration,
}

impl MiObservation {
    fn norm_rtt(&self) -> f64 {
        if self.d_min.is_zero() || self.mi.avg_rtt.is_zero() {
            1.0
        } else {
            self.mi.avg_rtt / self.d_min
        }
    }
}

/// A state-space design: a feature set plus a history length `h`
/// (the state vector is `⟨f_{t−h+1}, …, f_t⟩`, Sec. 4.2).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StateSpace {
    /// Ordered feature set.
    pub features: Vec<Feature>,
    /// History length `h`.
    pub history: usize,
}

impl StateSpace {
    /// Build from features and history.
    pub fn new(features: Vec<Feature>, history: usize) -> Self {
        assert!(history >= 1);
        assert!(!features.is_empty());
        StateSpace { features, history }
    }

    /// **Libra's state space** (Sec. 4.2): features (iv), (vii), (viii),
    /// (ix) with history 8.
    pub fn libra() -> Self {
        StateSpace::new(
            vec![
                Feature::SendingRate,
                Feature::LossRate,
                Feature::LatencyGradient,
                Feature::DeliveryRate,
            ],
            8,
        )
    }

    /// The Tab. 2 baseline: the Libra set plus (vi).
    pub fn tab2_baseline() -> Self {
        StateSpace::new(
            vec![
                Feature::SendingRate,
                Feature::RttAndMinRtt,
                Feature::LossRate,
                Feature::LatencyGradient,
                Feature::DeliveryRate,
            ],
            8,
        )
    }

    /// Aurora's published state: latency gradient, latency ratio,
    /// sent/acked ratio.
    pub fn aurora() -> Self {
        StateSpace::new(
            vec![
                Feature::LatencyGradient,
                Feature::RttRatio,
                Feature::SentAckedRatio,
            ],
            8,
        )
    }

    /// RL-TCP-style state (Kong et al.): gap EWMAs + RTT ratio + rate.
    pub fn rl_tcp() -> Self {
        StateSpace::new(
            vec![
                Feature::AckInterarrivalEwma,
                Feature::SendInterarrivalEwma,
                Feature::RttRatio,
                Feature::SendingRate,
            ],
            8,
        )
    }

    /// PCC-flavoured state: rate, loss, gradient.
    pub fn pcc() -> Self {
        StateSpace::new(
            vec![
                Feature::SendingRate,
                Feature::LossRate,
                Feature::LatencyGradient,
            ],
            8,
        )
    }

    /// Remy's observed state: both gap EWMAs and the RTT ratio.
    pub fn remy() -> Self {
        StateSpace::new(
            vec![
                Feature::AckInterarrivalEwma,
                Feature::SendInterarrivalEwma,
                Feature::RttRatio,
            ],
            8,
        )
    }

    /// DRL-CC-style state: rate, RTT pair, gradient, delivery rate.
    pub fn drl_cc() -> Self {
        StateSpace::new(
            vec![
                Feature::SendingRate,
                Feature::RttAndMinRtt,
                Feature::LatencyGradient,
                Feature::DeliveryRate,
            ],
            8,
        )
    }

    /// Orca's published state: send gap, rate, RTT pair, loss, delivery.
    pub fn orca() -> Self {
        StateSpace::new(
            vec![
                Feature::SendInterarrivalEwma,
                Feature::SendingRate,
                Feature::RttAndMinRtt,
                Feature::LossRate,
                Feature::DeliveryRate,
            ],
            8,
        )
    }

    /// Scalars per time step.
    pub fn step_width(&self) -> usize {
        self.features.iter().map(|f| f.width()).sum()
    }

    /// Total observation dimension (`step_width × history`).
    pub fn dim(&self) -> usize {
        self.step_width() * self.history
    }

    /// Write the observation vector — the last `history` steps, oldest
    /// first, missing ones zero-padded (cold start) — into a (reused)
    /// buffer.
    pub(crate) fn write_history(&self, steps: &VecDeque<Vec<f64>>, out: &mut Vec<f64>) {
        let w = self.step_width();
        let h = self.history;
        out.clear();
        out.reserve(w * h);
        for k in 0..h {
            match steps.get(steps.len().wrapping_sub(h - k)) {
                Some(step) => out.extend(step),
                None => out.extend(std::iter::repeat_n(0.0, w)),
            }
        }
    }

    /// Append the step for `obs` to `steps`, keeping the last `history`.
    /// Once the history is full, the step it evicts is refilled in place,
    /// so a decision allocates nothing.
    pub(crate) fn push_step(&self, steps: &mut VecDeque<Vec<f64>>, obs: &MiObservation) {
        let mut step = if steps.len() >= self.history {
            steps.pop_front()
        } else {
            None
        }
        .unwrap_or_default();
        self.extract_into(obs, &mut step);
        steps.push_back(step);
        while steps.len() > self.history {
            steps.pop_front();
        }
    }

    /// Write one step's normalized feature scalars into `out`, replacing
    /// its contents.
    pub fn extract_into(&self, obs: &MiObservation, out: &mut Vec<f64>) {
        out.clear();
        out.reserve(self.step_width());
        for f in &self.features {
            match f {
                Feature::AckInterarrivalEwma => {
                    // Normalize by the minimum RTT: ≈0 when ACKs stream in,
                    // ≈1 when one ACK per RTT.
                    let d = if obs.d_min.is_zero() {
                        0.0
                    } else {
                        obs.ack_gap_ewma / obs.d_min
                    };
                    out.push(d.min(10.0));
                }
                Feature::SendInterarrivalEwma => {
                    let d = if obs.d_min.is_zero() {
                        0.0
                    } else {
                        obs.send_gap_ewma / obs.d_min
                    };
                    out.push(d.min(10.0));
                }
                Feature::RttRatio => out.push(obs.norm_rtt().min(10.0)),
                Feature::SendingRate => out.push((obs.mi.sending_rate / obs.x_max).min(4.0)),
                Feature::SentAckedRatio => {
                    let r = if obs.mi.acked_bytes > 0 {
                        obs.mi.sent_bytes as f64 / obs.mi.acked_bytes as f64
                    } else if obs.mi.sent_bytes > 0 {
                        4.0
                    } else {
                        1.0
                    };
                    out.push(r.min(4.0));
                }
                Feature::RttAndMinRtt => {
                    out.push(obs.norm_rtt().min(10.0));
                    // Min RTT normalized against a 200 ms reference.
                    out.push((obs.d_min.as_secs_f64() / 0.2).min(5.0));
                }
                Feature::LossRate => out.push(obs.mi.loss_rate),
                Feature::LatencyGradient => out.push(obs.mi.rtt_gradient.clamp(-5.0, 5.0)),
                Feature::DeliveryRate => out.push((obs.mi.delivery_rate / obs.x_max).min(4.0)),
            }
        }
    }
}

/// Action-space designs evaluated in Fig. 6.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ActionSpace {
    /// Additive: `x ← x + a` Mbps, `a ∈ [−scale, scale]`.
    Aiad {
        /// Action bound in Mbps.
        scale: f64,
    },
    /// Aurora-style multiplicative: `x·(1+δa)` for `a ≥ 0`, `x/(1−δa)`
    /// otherwise, `a ∈ [−scale, scale]`, `δ = 0.025`.
    MimdAurora {
        /// Action bound.
        scale: f64,
    },
    /// Orca-style multiplicative: `x · 2^a`, `a ∈ [−bound, bound]`.
    MimdOrca {
        /// Exponent bound (Orca uses 2).
        bound: f64,
    },
}

impl ActionSpace {
    /// Libra's default action space (Sec. 4.2 chooses MIMD).
    pub fn libra_default() -> Self {
        ActionSpace::MimdOrca { bound: 1.0 }
    }

    /// Apply a raw (unclamped) agent output to the current rate.
    pub fn apply(self, rate: Rate, raw_action: f64) -> Rate {
        match self {
            ActionSpace::Aiad { scale } => {
                let a = raw_action.clamp(-scale, scale);
                Rate::from_mbps((rate.mbps() + a).max(0.0))
            }
            ActionSpace::MimdAurora { scale } => {
                let a = raw_action.clamp(-scale, scale);
                const DELTA: f64 = 0.025;
                if a >= 0.0 {
                    rate.scale(1.0 + DELTA * a)
                } else {
                    rate.scale(1.0 / (1.0 - DELTA * a))
                }
            }
            ActionSpace::MimdOrca { bound } => {
                let a = raw_action.clamp(-bound, bound);
                rate.scale(2f64.powf(a))
            }
        }
    }

    /// Label for experiment tables.
    pub fn label(self) -> String {
        match self {
            ActionSpace::Aiad { scale } => format!("AIAD(scale={scale})"),
            ActionSpace::MimdAurora { scale } => format!("MIMD-Aurora(scale={scale})"),
            ActionSpace::MimdOrca { bound } => format!("MIMD-Orca(bound={bound})"),
        }
    }
}

/// Reward-function design (Alg. 2 lines 2–3).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RewardSpec {
    /// Throughput weight `w1`.
    pub w1: f64,
    /// Delay weight `w2`.
    pub w2: f64,
    /// Loss weight `w3`.
    pub w3: f64,
    /// Use `Δr = r_t − r_{t−1}` instead of `r_t` (Tab. 4's winner).
    pub use_delta: bool,
    /// Include the loss term (Tab. 3's ablation).
    pub include_loss: bool,
}

impl Default for RewardSpec {
    /// The paper's weights: `w = (1, 0.5, 10)`, Δr, with loss.
    fn default() -> Self {
        RewardSpec {
            w1: 1.0,
            w2: 0.5,
            w3: 10.0,
            use_delta: true,
            include_loss: true,
        }
    }
}

impl RewardSpec {
    /// Raw reward `r_t = w1·x/x_max − w2·d/d_min − w3·L`.
    pub fn raw(&self, obs: &MiObservation) -> f64 {
        let x_norm = obs.mi.delivery_rate / obs.x_max;
        let d_norm = if obs.d_min.is_zero() || obs.mi.avg_rtt.is_zero() {
            1.0
        } else {
            obs.mi.avg_rtt / obs.d_min
        };
        let loss = if self.include_loss {
            obs.mi.loss_rate
        } else {
            0.0
        };
        self.w1 * x_norm - self.w2 * d_norm - self.w3 * loss
    }

    /// Final reward given the previous raw reward; returns
    /// `(reward, new_prev_raw)`.
    pub fn compute(&self, obs: &MiObservation, prev_raw: f64) -> (f64, f64) {
        let r = self.raw(obs);
        if self.use_delta {
            (r - prev_raw, r)
        } else {
            (r, r)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use libra_types::Instant;

    fn obs(rate_mbps: f64, deliv_mbps: f64, rtt_ms: u64, loss: f64) -> MiObservation {
        let mut mi = MiStats::empty(Instant::ZERO);
        mi.sending_rate = Rate::from_mbps(rate_mbps);
        mi.delivery_rate = Rate::from_mbps(deliv_mbps);
        mi.avg_rtt = Duration::from_millis(rtt_ms);
        mi.loss_rate = loss;
        mi.acks = 10;
        mi.sent_bytes = 10_000;
        mi.acked_bytes = 10_000;
        MiObservation {
            mi,
            ack_gap_ewma: Duration::from_millis(2),
            send_gap_ewma: Duration::from_millis(2),
            x_max: Rate::from_mbps(100.0),
            d_min: Duration::from_millis(50),
        }
    }

    #[test]
    fn dims_add_up() {
        assert_eq!(StateSpace::libra().step_width(), 4);
        assert_eq!(StateSpace::libra().dim(), 32);
        assert_eq!(StateSpace::tab2_baseline().step_width(), 6); // (vi) is 2-wide
        assert_eq!(StateSpace::orca().step_width(), 6);
    }

    #[test]
    fn extract_matches_width_and_normalization() {
        let ss = StateSpace::tab2_baseline();
        let mut v = vec![7.0; 9];
        ss.extract_into(&obs(50.0, 40.0, 100, 0.02), &mut v);
        assert_eq!(v.len(), ss.step_width());
        // (iv) = 50/100, (vi).0 = 100/50, (vii) = 0.02, (ix) = 40/100.
        assert!((v[0] - 0.5).abs() < 1e-12);
        assert!((v[1] - 2.0).abs() < 1e-12);
        assert!((v[3] - 0.02).abs() < 1e-12);
        assert!((v[5] - 0.4).abs() < 1e-12);
    }

    #[test]
    fn full_history_refills_the_evicted_step() {
        let ss = StateSpace::orca();
        let mut steps = VecDeque::new();
        for i in 0..ss.history {
            ss.push_step(&mut steps, &obs(10.0 + i as f64, 10.0, 40, 0.0));
        }
        let oldest = steps[0].as_ptr();
        let newest = obs(99.0, 10.0, 40, 0.0);
        ss.push_step(&mut steps, &newest);
        assert_eq!(steps.len(), ss.history);
        assert_eq!(steps.back().map(|s| s.as_ptr()), Some(oldest));
        let mut fresh = Vec::new();
        ss.extract_into(&newest, &mut fresh);
        assert_eq!(steps.back(), Some(&fresh));
    }

    #[test]
    fn extract_is_bounded() {
        // Degenerate inputs never produce unbounded features.
        let mut o = obs(100_000.0, 100_000.0, 10_000, 1.0);
        o.d_min = Duration::ZERO;
        for ss in [
            StateSpace::libra(),
            StateSpace::aurora(),
            StateSpace::rl_tcp(),
            StateSpace::remy(),
            StateSpace::drl_cc(),
            StateSpace::orca(),
            StateSpace::pcc(),
        ] {
            let mut v = Vec::new();
            ss.extract_into(&o, &mut v);
            for x in v {
                assert!(x.is_finite() && x.abs() <= 10.0, "{x}");
            }
        }
    }

    #[test]
    fn aiad_moves_additively() {
        let a = ActionSpace::Aiad { scale: 5.0 };
        let r = a.apply(Rate::from_mbps(10.0), 3.0);
        assert!((r.mbps() - 13.0).abs() < 1e-9);
        // Clamped at the scale.
        let r2 = a.apply(Rate::from_mbps(10.0), 100.0);
        assert!((r2.mbps() - 15.0).abs() < 1e-9);
        // Never negative.
        let r3 = a.apply(Rate::from_mbps(1.0), -5.0);
        assert_eq!(r3, Rate::ZERO);
    }

    #[test]
    fn mimd_aurora_symmetric() {
        let a = ActionSpace::MimdAurora { scale: 10.0 };
        let up = a.apply(Rate::from_mbps(10.0), 4.0);
        assert!((up.mbps() - 11.0).abs() < 1e-9); // ×(1+0.1)
        let dn = a.apply(up, -4.0);
        assert!((dn.mbps() - 10.0).abs() < 1e-9); // ÷(1+0.1)
    }

    #[test]
    fn mimd_orca_doubles_and_halves() {
        let a = ActionSpace::MimdOrca { bound: 2.0 };
        assert!((a.apply(Rate::from_mbps(8.0), 1.0).mbps() - 16.0).abs() < 1e-9);
        assert!((a.apply(Rate::from_mbps(8.0), -1.0).mbps() - 4.0).abs() < 1e-9);
        // Clamped to ±2 → at most ×4 / ÷4.
        assert!((a.apply(Rate::from_mbps(8.0), 99.0).mbps() - 32.0).abs() < 1e-9);
    }

    #[test]
    fn reward_prefers_throughput_and_penalizes_loss() {
        let spec = RewardSpec {
            use_delta: false,
            ..RewardSpec::default()
        };
        let good = spec.raw(&obs(50.0, 50.0, 50, 0.0));
        let lossy = spec.raw(&obs(50.0, 50.0, 50, 0.1));
        let slow = spec.raw(&obs(10.0, 10.0, 50, 0.0));
        assert!(good > lossy);
        assert!(good > slow);
    }

    #[test]
    fn delta_reward_flags_degradation() {
        // Throughput saturated, delay rising: r decreases, so Δr < 0 even
        // though r itself is still positive — the Sec. 4.2 argument.
        let spec = RewardSpec::default();
        let r1 = spec.raw(&obs(90.0, 90.0, 50, 0.0));
        let (dr, _) = spec.compute(&obs(90.0, 90.0, 80, 0.0), r1);
        assert!(dr < 0.0, "Δr = {dr}");
    }

    #[test]
    fn loss_ablation_removes_term() {
        let with = RewardSpec::default();
        let without = RewardSpec {
            include_loss: false,
            ..RewardSpec::default()
        };
        let o = obs(50.0, 50.0, 50, 0.37);
        assert!(without.raw(&o) > with.raw(&o));
    }

    #[test]
    fn labels_render() {
        assert_eq!(ActionSpace::Aiad { scale: 5.0 }.label(), "AIAD(scale=5)");
        assert_eq!(Feature::SendingRate.label(), "(iv)");
    }
}
