//! Rollout storage and generalized advantage estimation (GAE-λ).

/// One transition of an on-policy rollout.
#[derive(Debug, Clone)]
pub struct Transition {
    /// Observation at decision time.
    pub obs: Vec<f64>,
    /// Action taken.
    pub action: Vec<f64>,
    /// Log-probability of the action under the behaviour policy.
    pub logp: f64,
    /// Critic value estimate at decision time.
    pub value: f64,
    /// Reward received *after* this action.
    pub reward: f64,
    /// Whether the episode ended after this transition.
    pub done: bool,
}

/// Post-GAE training sample.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Observation.
    pub obs: Vec<f64>,
    /// Action.
    pub action: Vec<f64>,
    /// Behaviour log-probability.
    pub logp_old: f64,
    /// Normalized advantage.
    pub advantage: f64,
    /// Discounted return target for the critic.
    pub ret: f64,
}

/// An on-policy rollout buffer.
#[derive(Debug, Default)]
pub struct RolloutBuffer {
    transitions: Vec<Transition>,
}

impl RolloutBuffer {
    /// Empty buffer.
    pub const fn new() -> Self {
        RolloutBuffer {
            transitions: Vec::new(),
        }
    }

    /// Append one transition.
    pub fn push(&mut self, t: Transition) {
        self.transitions.push(t);
    }

    /// Stored transitions.
    pub fn len(&self) -> usize {
        self.transitions.len()
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.transitions.is_empty()
    }

    /// Discard everything.
    pub fn clear(&mut self) {
        self.transitions.clear();
    }

    /// Sum of rewards (for logging).
    pub fn total_reward(&self) -> f64 {
        self.transitions.iter().map(|t| t.reward).sum()
    }

    /// Compute GAE-λ advantages and returns, consuming the buffer into
    /// training samples. Advantages are normalized to zero mean / unit
    /// variance (when there is any variance).
    ///
    /// `last_value` bootstraps the value after the final transition when
    /// the rollout was truncated mid-episode (`done == false` at the end).
    pub fn finish(&mut self, gamma: f64, lambda: f64, last_value: f64) -> Vec<Sample> {
        let n = self.transitions.len();
        if n == 0 {
            return Vec::new();
        }
        let mut advantages = vec![0.0; n];
        let mut gae = 0.0;
        for i in (0..n).rev() {
            let t = &self.transitions[i];
            let next_value = if t.done {
                0.0
            } else if i + 1 < n {
                self.transitions[i + 1].value
            } else {
                last_value
            };
            let not_done = if t.done { 0.0 } else { 1.0 };
            let delta = t.reward + gamma * next_value * not_done - t.value;
            gae = delta + gamma * lambda * not_done * gae;
            advantages[i] = gae;
        }
        // Normalize advantages.
        let mean = advantages.iter().sum::<f64>() / n as f64;
        let var = advantages.iter().map(|a| (a - mean).powi(2)).sum::<f64>() / n as f64;
        let std = var.sqrt().max(1e-8);
        let samples = self
            .transitions
            .drain(..)
            .zip(advantages)
            .map(|(t, adv)| Sample {
                ret: adv + t.value, // return target = advantage + value
                obs: t.obs,
                action: t.action,
                logp_old: t.logp,
                advantage: (adv - mean) / std,
            })
            .collect();
        samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(reward: f64, value: f64, done: bool) -> Transition {
        Transition {
            obs: vec![0.0],
            action: vec![0.0],
            logp: 0.0,
            value,
            reward,
            done,
        }
    }

    #[test]
    fn single_terminal_transition() {
        let mut b = RolloutBuffer::new();
        b.push(t(1.0, 0.5, true));
        let s = b.finish(0.99, 0.95, 0.0);
        assert_eq!(s.len(), 1);
        // δ = r − V = 0.5; advantage normalizes to 0 (single sample).
        assert!((s[0].advantage - 0.0).abs() < 1e-9);
        assert!((s[0].ret - 1.0).abs() < 1e-9); // raw adv 0.5 + value 0.5
        assert!(b.is_empty());
    }

    #[test]
    fn gae_matches_hand_computation() {
        // Two steps, γ = λ = 1 for easy math, all values zero:
        // raw advantages = reward-to-go: [3, 2].
        let mut b = RolloutBuffer::new();
        b.push(t(1.0, 0.0, false));
        b.push(t(2.0, 0.0, true));
        let s = b.finish(1.0, 1.0, 0.0);
        let raw: Vec<f64> = s.iter().map(|x| x.ret).collect(); // ret = raw adv here
        assert!((raw[0] - 3.0).abs() < 1e-9);
        assert!((raw[1] - 2.0).abs() < 1e-9);
        // Normalized advantages are ±1 (σ over two samples 0.5 apart… check sign only).
        assert!(s[0].advantage > 0.0 && s[1].advantage < 0.0);
    }

    #[test]
    fn done_blocks_bootstrap() {
        // Episode boundary between the two transitions: the first episode's
        // advantage must not see the second's value/reward.
        let mut b = RolloutBuffer::new();
        b.push(t(1.0, 0.0, true));
        b.push(t(100.0, 0.0, true));
        let s = b.finish(0.99, 0.95, 0.0);
        assert!((s[0].ret - 1.0).abs() < 1e-9);
        assert!((s[1].ret - 100.0).abs() < 1e-9);
    }

    #[test]
    fn truncated_rollout_bootstraps_last_value() {
        let mut b = RolloutBuffer::new();
        b.push(t(0.0, 0.0, false));
        let s = b.finish(0.5, 1.0, 10.0);
        // δ = 0 + 0.5·10 − 0 = 5 → return 5.
        assert!((s[0].ret - 5.0).abs() < 1e-9);
    }

    #[test]
    fn total_reward_sums() {
        let mut b = RolloutBuffer::new();
        b.push(t(1.5, 0.0, false));
        b.push(t(-0.5, 0.0, true));
        assert!((b.total_reward() - 1.0).abs() < 1e-12);
        b.clear();
        assert_eq!(b.len(), 0);
    }
}
