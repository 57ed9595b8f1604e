//! Proximal Policy Optimization with a diagonal-Gaussian policy —
//! the learning algorithm of the paper's DRL component (Alg. 2 calls it
//! as `PPO(R(t), S_t)`).
//!
//! The actor MLP outputs action means; a state-independent learned
//! `log_std` vector provides exploration noise. The critic MLP estimates
//! state values for GAE. The update maximizes the clipped surrogate with
//! an entropy bonus and a squared-error value loss, using Adam and global
//! gradient-norm clipping — the stable-baselines recipe.

use crate::buffer::{RolloutBuffer, Sample, Transition};
use crate::config::PpoConfig;
use libra_nn::{Activation, Adam, BatchCache, BatchScratch, Matrix, Mlp, MlpGrad};
use libra_types::DetRng;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

const LOG_2PI: f64 = 1.837877066409345; // ln(2π)

/// Statistics from one PPO update (for reward-curve logging).
#[derive(Debug, Clone, Copy, Default)]
pub struct UpdateStats {
    /// Mean clipped-surrogate loss (lower is better for the optimizer).
    pub policy_loss: f64,
    /// Mean value loss.
    pub value_loss: f64,
    /// Mean policy entropy.
    pub entropy: f64,
    /// Fraction of samples whose ratio was clipped.
    pub clip_fraction: f64,
    /// Samples consumed.
    pub samples: usize,
}

/// Default L2-norm bound above which a weight set is treated as corrupt.
/// A healthy 2×32 Xavier-initialized actor-critic pair sits around norm
/// 10–30 and trained networks stay well under 10³; anything near 10⁶ is
/// a runaway update, not a policy.
pub const WEIGHT_NORM_BOUND: f64 = 1e6;

/// Serializable snapshot of an agent's learnable state.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PpoWeights {
    /// Configuration the weights were trained under.
    pub config: PpoConfig,
    actor: Mlp,
    critic: Mlp,
    log_std: Vec<f64>,
}

impl PpoWeights {
    /// Global L2 norm over every learnable parameter.
    pub fn l2_norm(&self) -> f64 {
        l2_norm(&self.actor, &self.critic, &self.log_std)
    }

    /// True when the networks and `log_std` have the sizes `config`
    /// implies, every parameter is finite and the global L2 norm stays
    /// under [`WEIGHT_NORM_BOUND`] — the corruption check run on load and
    /// after every PPO update. (A network whose layers disagree with its
    /// own sizes does not deserialise in the first place.)
    pub fn is_valid(&self) -> bool {
        self.actor.sizes() == self.config.actor_sizes()
            && self.critic.sizes() == self.config.critic_sizes()
            && self.log_std.len() == self.config.act_dim
            && self.actor.params_finite()
            && self.critic.params_finite()
            && self.log_std.iter().all(|x| x.is_finite())
            && self.l2_norm() <= WEIGHT_NORM_BOUND
    }
}

fn l2_norm(actor: &Mlp, critic: &Mlp, log_std: &[f64]) -> f64 {
    let a = actor.param_l2_norm();
    let c = critic.param_l2_norm();
    let s: f64 = log_std.iter().map(|x| x * x).sum();
    (a * a + c * c + s).sqrt()
}

/// The critic: a network, or, in a fresh agent that has not trained,
/// the init stream `new` left after drawing the actor. Drawn from that
/// stream on demand, it is bit for bit the critic an eager draw makes.
enum Critic {
    /// Not drawn yet: the post-actor init stream.
    Seed(DetRng),
    /// Drawn for training, or a snapshot's.
    Net(Mlp),
}

impl Critic {
    /// The network, drawn into a temporary if still a seed.
    fn net(&self, config: &PpoConfig) -> Cow<'_, Mlp> {
        match self {
            Critic::Seed(rng) => Cow::Owned(draw_critic(config, &mut rng.clone())),
            Critic::Net(net) => Cow::Borrowed(net),
        }
    }

    /// The network, drawn in place if still a seed.
    fn net_mut(&mut self, config: &PpoConfig) -> &mut Mlp {
        if let Critic::Seed(rng) = self {
            let net = draw_critic(config, rng);
            *self = Critic::Net(net);
        }
        match self {
            Critic::Net(net) => net,
            // Audited: a seed was replaced by its network just above.
            // lint: allow(panic)
            Critic::Seed(_) => unreachable!("critic drawn above"),
        }
    }
}

fn draw_critic(config: &PpoConfig, rng: &mut DetRng) -> Mlp {
    Mlp::new(&config.critic_sizes(), Activation::Tanh, rng)
}

/// What only training reads: optimiser state, reused gradient buffers,
/// the rollout and the pending transition. Built by the first
/// training-mode [`PpoAgent::act`]; an eval agent never has one.
struct Learner {
    actor_opt: Adam,
    critic_opt: Adam,
    log_std_m: Vec<f64>,
    log_std_v: Vec<f64>,
    log_std_t: u64,
    // Rewritten per minibatch.
    actor_grad: MlpGrad,
    critic_grad: MlpGrad,
    // Boxed: every agent, eval agents included, holds its `Option<Learner>`
    // inline, and the scratch would add 536 bytes to each.
    minibatch: Box<MinibatchScratch>,
    buffer: RolloutBuffer,
    // Pending transition: filled by `act`, completed by the next reward.
    pending: Option<(Vec<f64>, Vec<f64>, f64, f64)>, // (obs, action, logp, value)
}

/// A minibatch in the feature-major layout of the batched training
/// pass (one lane per sample), reused across minibatches.
#[derive(Default)]
struct MinibatchScratch {
    /// Observations, `obs_dim × lanes`.
    obs: Matrix,
    actor: BatchCache,
    critic: BatchCache,
    /// `d(loss)/d(mean)` of the lanes in `kept`, and `d(loss)/d(value)`.
    dmean: Matrix,
    dvalue: Matrix,
    /// Lanes that pass the actor a gradient, ascending.
    kept: Vec<usize>,
    /// One lane's action mean.
    mean: Vec<f64>,
}

impl Learner {
    /// The critic and the learner in `slot`, drawing and building them on
    /// first use.
    fn built<'a>(
        slot: &'a mut Option<Learner>,
        critic: &'a mut Critic,
        config: &PpoConfig,
        actor: &Mlp,
    ) -> (&'a mut Mlp, &'a mut Learner) {
        let critic = critic.net_mut(config);
        let learner = slot.get_or_insert_with(|| Learner::new(config, actor, critic));
        (critic, learner)
    }

    fn new(config: &PpoConfig, actor: &Mlp, critic: &Mlp) -> Self {
        Learner {
            actor_opt: Adam::new(config.lr),
            critic_opt: Adam::new(config.lr),
            log_std_m: vec![0.0; config.act_dim],
            log_std_v: vec![0.0; config.act_dim],
            log_std_t: 0,
            actor_grad: actor.zero_grad(),
            critic_grad: critic.zero_grad(),
            minibatch: Box::default(),
            buffer: RolloutBuffer::new(),
            pending: None,
        }
    }

    /// Restart every optimiser moment (after a weight restore: the
    /// moments may carry the same corruption).
    fn reset_moments(&mut self, config: &PpoConfig) {
        self.actor_opt = Adam::new(config.lr);
        self.critic_opt = Adam::new(config.lr);
        self.log_std_m = vec![0.0; config.act_dim];
        self.log_std_v = vec![0.0; config.act_dim];
        self.log_std_t = 0;
    }

    /// One clipped-surrogate step over `batch`: a batched forward of the
    /// actor and the critic over the whole minibatch, the per-sample
    /// ratio, clipping and `log_std` terms in sample order, then one
    /// batched backward per network. The actor's backward runs only the
    /// samples that pass it a gradient (`dlogp != 0`), gathered in sample
    /// order, exactly the samples the per-sample `Mlp::backward` ran.
    fn minibatch_step(
        &mut self,
        config: &PpoConfig,
        actor: &mut Mlp,
        critic: &mut Mlp,
        log_std: &mut [f64],
        batch: &[Sample],
    ) -> UpdateStats {
        let m = batch.len() as f64;
        let t = &mut self.minibatch;
        t.obs.reshape(config.obs_dim, batch.len());
        for (s, sample) in batch.iter().enumerate() {
            assert_eq!(sample.obs.len(), config.obs_dim, "obs dim mismatch");
            for (c, &x) in sample.obs.iter().enumerate() {
                t.obs.set(c, s, x);
            }
        }
        actor.forward_cached_batch(&t.obs, &mut t.actor);
        critic.forward_cached_batch(&t.obs, &mut t.critic);
        t.dmean.reshape(config.act_dim, batch.len());
        t.dvalue.reshape(1, batch.len());
        t.kept.clear();
        let mut log_std_grad = vec![0.0; config.act_dim];
        let mut stats = UpdateStats {
            samples: batch.len(),
            ..Default::default()
        };
        for (lane, s) in batch.iter().enumerate() {
            // ---- policy ----
            let out = t.actor.output();
            t.mean.clear();
            t.mean.extend((0..config.act_dim).map(|i| out.get(i, lane)));
            let mean = &t.mean;
            let (logp, entropy) = logp_and_entropy(log_std, mean, &s.action);
            let ratio = (logp - s.logp_old).exp();
            let clipped = ratio.clamp(1.0 - config.clip, 1.0 + config.clip);
            let surr1 = ratio * s.advantage;
            let surr2 = clipped * s.advantage;
            let use_unclipped = surr1 <= surr2;
            stats.policy_loss += -surr1.min(surr2) / m;
            stats.entropy += entropy / m;
            if (ratio - clipped).abs() > 1e-12 {
                stats.clip_fraction += 1.0 / m;
            }
            // d(-min(surr))/d(logp): only flows when the unclipped branch
            // is active (or the clipped one equals it).
            let dlogp = if use_unclipped {
                -ratio * s.advantage / m
            } else {
                0.0
            };
            if dlogp != 0.0 {
                for i in 0..mean.len() {
                    // d logp / d mean_i = (a_i − μ_i)/σ_i².
                    let var = (2.0 * log_std[i]).exp();
                    t.dmean.set(i, lane, dlogp * (s.action[i] - mean[i]) / var);
                    // d logp / d logσ_i = z² − 1.
                    let z2 = (s.action[i] - mean[i]).powi(2) / var;
                    log_std_grad[i] += dlogp * (z2 - 1.0);
                }
                t.kept.push(lane);
            }
            // Entropy bonus: d(−c·H)/d logσ = −c (mean-field, per sample).
            for g in log_std_grad.iter_mut() {
                *g += -config.ent_coef / m;
            }
            // ---- value ----
            let err = t.critic.output().get(0, lane) - s.ret;
            stats.value_loss += err * err / m;
            t.dvalue.set(0, lane, 2.0 * config.vf_coef * err / m);
        }
        t.actor.keep_lanes(&t.kept);
        t.dmean.keep_cols(&t.kept);
        actor.backward_batch(&mut t.actor, &t.dmean, &mut self.actor_grad);
        critic.backward_batch(&mut t.critic, &t.dvalue, &mut self.critic_grad);
        // Gradient clipping (actor and critic separately).
        for (net_grad, limit) in [
            (&mut self.actor_grad, config.max_grad_norm),
            (&mut self.critic_grad, config.max_grad_norm),
        ] {
            let norm = net_grad.l2_norm();
            if norm > limit {
                net_grad.scale(limit / norm);
            }
        }
        self.actor_opt.step(actor, &self.actor_grad);
        self.critic_opt.step(critic, &self.critic_grad);
        // Adam for the log_std vector (hand-rolled; 1-2 scalars).
        self.log_std_t += 1;
        let (b1, b2, eps) = (0.9, 0.999, 1e-8);
        let bc1 = 1.0 - b1f(b1, self.log_std_t);
        let bc2 = 1.0 - b1f(b2, self.log_std_t);
        for (i, &g) in log_std_grad.iter().enumerate() {
            self.log_std_m[i] = b1 * self.log_std_m[i] + (1.0 - b1) * g;
            self.log_std_v[i] = b2 * self.log_std_v[i] + (1.0 - b2) * g.powi(2);
            let mhat = self.log_std_m[i] / bc1;
            let vhat = self.log_std_v[i] / bc2;
            log_std[i] -= config.lr * mhat / (vhat.sqrt() + eps);
            // Keep exploration noise sane.
            log_std[i] = log_std[i].clamp(-1.8, 1.0);
        }
        stats
    }

    /// Complete the pending transition with `reward`.
    fn reward(&mut self, reward: f64, done: bool) {
        if let Some((obs, action, logp, value)) = self.pending.take() {
            self.buffer.push(Transition {
                obs,
                action,
                logp,
                value,
                reward,
                done,
            });
        }
    }
}

/// A PPO actor-critic agent. Eval reads only the actor, `log_std` and
/// the config; the critic stays a seed (or a snapshot's network), and
/// the optimisers and rollout stay unbuilt until the first
/// training-mode [`act`](Self::act).
pub struct PpoAgent {
    config: PpoConfig,
    actor: Mlp,
    critic: Critic,
    log_std: Vec<f64>,
    learner: Option<Learner>,
    rng: DetRng,
    eval_mode: bool,
    // Last weight set that passed validation; restored on corruption.
    last_good: Option<PpoWeights>,
    weight_restores: u64,
}

impl PpoAgent {
    /// Fresh agent with Xavier-initialized networks.
    pub fn new(config: PpoConfig, rng: &mut DetRng) -> Self {
        let mut net_rng = rng.fork("ppo-nets");
        let actor = Mlp::new(&config.actor_sizes(), Activation::Tanh, &mut net_rng);
        let log_std = vec![config.init_log_std; config.act_dim];
        PpoAgent::with_parts(config, actor, Critic::Seed(net_rng), log_std, rng)
    }

    fn with_parts(
        config: PpoConfig,
        actor: Mlp,
        critic: Critic,
        log_std: Vec<f64>,
        rng: &mut DetRng,
    ) -> Self {
        PpoAgent {
            actor,
            critic,
            log_std,
            learner: None,
            rng: rng.fork("ppo-explore"),
            eval_mode: false,
            last_good: None,
            weight_restores: 0,
            config,
        }
    }

    /// The agent's configuration.
    pub fn config(&self) -> &PpoConfig {
        &self.config
    }

    /// Total learnable parameters — actor, critic and `log_std`, built or
    /// not (the figures' memory-overhead proxy, not resident bytes).
    pub fn param_count(&self) -> usize {
        let critic = match &self.critic {
            Critic::Seed(_) => {
                let sizes = self.config.critic_sizes();
                sizes.windows(2).map(|io| io[0] * io[1] + io[1]).sum()
            }
            Critic::Net(net) => net.param_count(),
        };
        self.actor.param_count() + critic + self.log_std.len()
    }

    /// Switch between exploration (training) and deterministic (eval)
    /// action selection.
    pub fn set_eval(&mut self, eval: bool) {
        self.eval_mode = eval;
    }

    /// True when in deterministic mode.
    pub fn is_eval(&self) -> bool {
        self.eval_mode
    }

    /// Deliver the reward earned since the previous action. Must be called
    /// between [`act`](Self::act) calls while training.
    pub fn give_reward(&mut self, reward: f64, done: bool) {
        let Some(learner) = &mut self.learner else {
            return;
        };
        if self.eval_mode {
            learner.pending = None;
        } else {
            learner.reward(reward, done);
        }
    }

    /// Select an action for `obs`. In training mode the action is sampled
    /// and remembered; the following [`give_reward`](Self::give_reward)
    /// completes the transition. [`act_into`](Self::act_into) into fresh
    /// buffers.
    pub fn act(&mut self, obs: &[f64]) -> Vec<f64> {
        let (mut action, mut scratch) = (Vec::new(), Vec::new());
        self.act_into(obs, &mut action, &mut scratch);
        action
    }

    /// [`act`](Self::act) into caller-owned buffers. An eval-mode action
    /// is [`act_eval`](Self::act_eval)'s, allocation-free in steady
    /// state; a training-mode one is sampled around the mean, one normal
    /// draw per action dimension, and recorded as the pending transition.
    pub fn act_into(&mut self, obs: &[f64], out: &mut Vec<f64>, scratch: &mut Vec<f64>) {
        debug_assert_eq!(obs.len(), self.config.obs_dim, "obs dim mismatch");
        if self.eval_mode {
            return self.act_eval(obs, out, scratch);
        }
        // Training rollouts go through `forward_cached` — the same libm
        // arithmetic backprop differentiates — so trained weights stay a
        // pure function of the training config, independent of the
        // fast-activation inference path (`forward`/`forward_into`).
        let mean = self.actor.forward_cached(obs).output().to_vec();
        out.clear();
        for (i, &m) in mean.iter().enumerate() {
            let std = self.log_std[i].exp();
            out.push(m + std * self.rng.normal());
        }
        let (logp, _) = logp_and_entropy(&self.log_std, &mean, out);
        let (critic, learner) = Learner::built(
            &mut self.learner,
            &mut self.critic,
            &self.config,
            &self.actor,
        );
        let value = critic.forward_cached(obs).output()[0];
        // An un-rewarded pending transition (e.g. ACK starvation skipped a
        // reward) is completed with zero reward rather than dropped.
        learner.reward(0.0, false);
        learner.pending = Some((obs.to_vec(), out.clone(), logp, value));
    }

    /// Deterministic eval action into caller-owned buffers: the actor's
    /// mean for `obs`, computed through `&self` — no RNG draw, no pending
    /// transition, no mutation, and no allocation in steady state. It is
    /// eval-mode [`act`](Self::act)'s body.
    pub fn act_eval(&self, obs: &[f64], out: &mut Vec<f64>, scratch: &mut Vec<f64>) {
        debug_assert_eq!(obs.len(), self.config.obs_dim, "obs dim mismatch");
        self.actor.forward_into(obs, out, scratch);
    }

    /// Batched deterministic eval: one observation per row of `obs`, one
    /// action mean per row of `out`. Each row is bit-identical to
    /// [`act_eval`](Self::act_eval) on that row (see
    /// [`libra_nn::Matrix::matmat_t`] for the accumulation-order contract)
    /// — the kernel behind the shared policy server.
    pub fn act_eval_batch(&self, obs: &Matrix, out: &mut Matrix, scratch: &mut BatchScratch) {
        debug_assert_eq!(obs.cols(), self.config.obs_dim, "obs dim mismatch");
        self.actor.forward_batch_into(obs, out, scratch);
    }

    /// The rollout; empty before the learner is built.
    fn buffer(&self) -> &RolloutBuffer {
        static EMPTY: RolloutBuffer = RolloutBuffer::new();
        self.learner.as_ref().map_or(&EMPTY, |l| &l.buffer)
    }

    /// Transitions currently buffered.
    pub fn buffered(&self) -> usize {
        self.buffer().len()
    }

    /// Sum of buffered rewards (reward-curve logging).
    pub fn buffered_reward(&self) -> f64 {
        self.buffer().total_reward()
    }

    /// Run a PPO update over everything in the buffer, then clear it.
    /// `last_obs` bootstraps the value of a truncated rollout.
    pub fn update(&mut self, last_obs: Option<&[f64]>) -> UpdateStats {
        let Some(learner) = &mut self.learner else {
            return UpdateStats::default();
        };
        learner.pending = None;
        if learner.buffer.is_empty() {
            return UpdateStats::default();
        }
        // Guardrail: remember the pre-update weights so a corrupting
        // update (NaN rewards, exploding gradients) can be rolled back.
        if self.weights_valid() {
            self.snapshot_good();
        }
        let (critic, learner) = Learner::built(
            &mut self.learner,
            &mut self.critic,
            &self.config,
            &self.actor,
        );
        let config = &self.config;
        // Bootstrap value through the training-path forward (libm
        // activations), matching `act`'s value estimates.
        let last_value = last_obs.map_or(0.0, |o| critic.forward_cached(o).output()[0]);
        let mut samples = learner
            .buffer
            .finish(config.gamma, config.lambda, last_value);
        let n = samples.len();
        let mut stats = UpdateStats {
            samples: n,
            ..Default::default()
        };
        let mut batches = 0usize;
        for _ in 0..config.epochs {
            self.rng.shuffle(&mut samples);
            let mut i = 0;
            while i < n {
                let j = (i + config.minibatch).min(n);
                let s = learner.minibatch_step(
                    config,
                    &mut self.actor,
                    critic,
                    &mut self.log_std,
                    &samples[i..j],
                );
                stats.policy_loss += s.policy_loss;
                stats.value_loss += s.value_loss;
                stats.entropy += s.entropy;
                stats.clip_fraction += s.clip_fraction;
                batches += 1;
                i = j;
            }
        }
        if batches > 0 {
            let b = batches as f64;
            stats.policy_loss /= b;
            stats.value_loss /= b;
            stats.entropy /= b;
            stats.clip_fraction /= b;
        }
        // Post-update validation: a single poisoned minibatch must not
        // leave a NaN network deployed.
        self.validate_or_restore();
        stats
    }

    /// Snapshot the learnable state (a fresh agent's critic is drawn for
    /// it, from the stream `new` saved).
    pub fn weights(&self) -> PpoWeights {
        PpoWeights {
            config: self.config.clone(),
            actor: self.actor.clone(),
            critic: self.critic.net(&self.config).into_owned(),
            log_std: self.log_std.clone(),
        }
    }

    /// Restore an agent from a snapshot. The snapshot's critic waits for
    /// training; optimizer state starts fresh when it does.
    pub fn from_weights(w: PpoWeights, rng: &mut DetRng) -> Self {
        PpoAgent::with_parts(w.config, w.actor, Critic::Net(w.critic), w.log_std, rng)
    }

    /// Restore an agent from a snapshot, rejecting corrupt weights
    /// (shapes other than the config's, non-finite parameters or L2 norm
    /// above [`WEIGHT_NORM_BOUND`]) instead of silently deploying them.
    pub fn try_from_weights(w: PpoWeights, rng: &mut DetRng) -> Result<Self, String> {
        if !w.is_valid() {
            return Err(format!(
                "rejecting PPO weights: mis-shaped or non-finite parameters, or L2 norm {:.3e} > {:.1e}",
                w.l2_norm(),
                WEIGHT_NORM_BOUND
            ));
        }
        let mut agent = PpoAgent::from_weights(w, rng);
        agent.snapshot_good();
        Ok(agent)
    }

    /// Are the current learnable parameters finite with an L2 norm under
    /// [`WEIGHT_NORM_BOUND`]?
    pub fn weights_valid(&self) -> bool {
        let critic = self.critic.net(&self.config);
        self.actor.params_finite()
            && critic.params_finite()
            && self.log_std.iter().all(|x| x.is_finite())
            && l2_norm(&self.actor, &critic, &self.log_std) <= WEIGHT_NORM_BOUND
    }

    /// Record the current weights as the last-known-good snapshot.
    pub fn snapshot_good(&mut self) {
        self.last_good = Some(self.weights());
    }

    /// Validate the current weights ([`weights_valid`](Self::weights_valid));
    /// on corruption restore the last-known-good snapshot (if any).
    /// Returns `true` when the weights were already healthy.
    pub fn validate_or_restore(&mut self) -> bool {
        if self.weights_valid() {
            return true;
        }
        if let Some(w) = self.last_good.clone() {
            self.actor = w.actor;
            self.critic = Critic::Net(w.critic);
            self.log_std = w.log_std;
            // Optimizer moments may carry the same corruption; restart
            // them along with the weights.
            if let Some(learner) = &mut self.learner {
                learner.reset_moments(&self.config);
            }
            self.weight_restores += 1;
        }
        false
    }

    /// Times a corrupt weight set was rolled back to the last snapshot.
    pub fn weight_restores(&self) -> u64 {
        self.weight_restores
    }

    /// Corrupt/transform every actor parameter in place — the
    /// fault-injection hook robustness tests use to poison a policy.
    pub fn map_actor_params(&mut self, f: impl FnMut(f64) -> f64) {
        self.actor.map_params(f);
    }
}

fn logp_and_entropy(log_std: &[f64], mean: &[f64], action: &[f64]) -> (f64, f64) {
    let mut logp = 0.0;
    let mut ent = 0.0;
    for i in 0..mean.len() {
        let std = log_std[i].exp();
        let z = (action[i] - mean[i]) / std;
        logp += -0.5 * z * z - log_std[i] - 0.5 * LOG_2PI;
        ent += log_std[i] + 0.5 * (LOG_2PI + 1.0);
    }
    (logp, ent)
}

fn b1f(beta: f64, t: u64) -> f64 {
    beta.powi(t as i32)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 1-D bandit-like control problem: state is a target in [-1, 1],
    /// reward is −(action − target)². PPO should learn action ≈ target.
    fn train_target_tracking(episodes: usize, seed: u64) -> f64 {
        let mut rng = DetRng::new(seed);
        let config = PpoConfig {
            hidden: vec![16, 16],
            lr: 3e-3,
            minibatch: 32,
            ..PpoConfig::new(1, 1)
        };
        let mut agent = PpoAgent::new(config, &mut rng);
        let mut env_rng = DetRng::new(seed + 1);
        for _ in 0..episodes {
            for _ in 0..32 {
                let target = env_rng.uniform_range(-1.0, 1.0);
                let a = agent.act(&[target]);
                let reward = -(a[0] - target).powi(2);
                agent.give_reward(reward, true);
            }
            agent.update(None);
        }
        // Evaluate deterministically.
        agent.set_eval(true);
        let mut err = 0.0;
        for k in 0..20 {
            let target = -1.0 + k as f64 / 10.0;
            let a = agent.act(&[target]);
            err += (a[0] - target).abs();
        }
        err / 20.0
    }

    #[test]
    fn ppo_learns_target_tracking() {
        let err = train_target_tracking(120, 3);
        assert!(err < 0.25, "mean |action − target| = {err}");
    }

    #[test]
    fn eval_mode_is_deterministic() {
        let mut rng = DetRng::new(5);
        let mut agent = PpoAgent::new(PpoConfig::new(2, 1), &mut rng);
        agent.set_eval(true);
        let a = agent.act(&[0.1, 0.2]);
        let b = agent.act(&[0.1, 0.2]);
        assert_eq!(a, b);
        assert_eq!(agent.buffered(), 0); // eval mode records nothing
    }

    #[test]
    fn training_mode_explores() {
        let mut rng = DetRng::new(6);
        let mut agent = PpoAgent::new(PpoConfig::new(2, 1), &mut rng);
        let a = agent.act(&[0.1, 0.2]);
        agent.give_reward(0.0, false);
        let b = agent.act(&[0.1, 0.2]);
        agent.give_reward(0.0, true);
        assert_ne!(a, b, "sampled actions should differ");
        assert_eq!(agent.buffered(), 2);
    }

    #[test]
    fn unrewarded_pending_gets_zero_reward() {
        let mut rng = DetRng::new(7);
        let mut agent = PpoAgent::new(PpoConfig::new(1, 1), &mut rng);
        agent.act(&[0.0]);
        agent.act(&[0.0]); // no give_reward in between
        assert_eq!(agent.buffered(), 1);
        assert_eq!(agent.buffered_reward(), 0.0);
    }

    #[test]
    fn update_clears_buffer_and_reports() {
        let mut rng = DetRng::new(8);
        let mut agent = PpoAgent::new(PpoConfig::new(1, 1), &mut rng);
        for _ in 0..10 {
            agent.act(&[0.5]);
            agent.give_reward(1.0, false);
        }
        let stats = agent.update(Some(&[0.5]));
        assert_eq!(stats.samples, 10);
        assert_eq!(agent.buffered(), 0);
        assert!(stats.entropy.is_finite());
        // Empty update is a no-op.
        let empty = agent.update(None);
        assert_eq!(empty.samples, 0);
    }

    #[test]
    fn weights_round_trip_preserves_policy() {
        let mut rng = DetRng::new(9);
        let mut agent = PpoAgent::new(PpoConfig::new(2, 1), &mut rng);
        agent.set_eval(true);
        let before = agent.act(&[0.3, -0.3]);
        let json = serde_json::to_string(&agent.weights()).unwrap();
        let w: PpoWeights = serde_json::from_str(&json).unwrap();
        let mut rng2 = DetRng::new(1);
        let mut restored = PpoAgent::from_weights(w, &mut rng2);
        restored.set_eval(true);
        let after = restored.act(&[0.3, -0.3]);
        // serde_json may round the last ULP of an f64.
        for (a, b) in after.iter().zip(&before) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }

    #[test]
    fn corrupt_weights_are_rejected_on_load() {
        let mut rng = DetRng::new(11);
        let mut agent = PpoAgent::new(PpoConfig::new(2, 1), &mut rng);
        let good = agent.weights();
        assert!(good.is_valid());
        agent.map_actor_params(|_| f64::NAN);
        let bad = agent.weights();
        assert!(!bad.is_valid());
        let mut rng2 = DetRng::new(12);
        assert!(PpoAgent::try_from_weights(good, &mut rng2).is_ok());
        assert!(PpoAgent::try_from_weights(bad, &mut rng2).is_err());
    }

    /// Serialise a small agent's weights, apply `defect` to the JSON, and
    /// check the result is refused — a parse error, or weights that fail
    /// `is_valid` and that `try_from_weights` rejects — instead of
    /// deployed to panic on the first `act_eval`.
    fn assert_mis_shape_refused(defect: impl FnOnce(&str) -> String) {
        let mut rng = DetRng::new(16);
        let config = PpoConfig {
            hidden: vec![8, 8],
            ..PpoConfig::new(4, 1)
        };
        let json = serde_json::to_string(&PpoAgent::new(config, &mut rng).weights()).unwrap();
        let bad = defect(&json);
        assert_ne!(bad, json, "defect not applied");
        if let Ok(w) = serde_json::from_str::<PpoWeights>(&bad) {
            assert!(!w.is_valid());
            assert!(PpoAgent::try_from_weights(w, &mut rng).is_err());
        }
    }

    /// `json` without the first element of the first array after `key`.
    fn drop_first(json: &str, key: &str) -> String {
        let start = json.find(key).unwrap() + key.len();
        let comma = start + json[start..].find(',').unwrap();
        format!("{}{}", &json[..start], &json[comma + 1..])
    }

    #[test]
    fn weight_matrix_short_of_rows_x_cols_is_refused() {
        // The actor's first layer is the first `data` array in the file.
        assert_mis_shape_refused(|j| drop_first(j, "\"data\":["));
    }

    #[test]
    fn bias_short_of_rows_is_refused() {
        assert_mis_shape_refused(|j| drop_first(j, "\"b\":["));
    }

    #[test]
    fn layers_other_than_the_config_sizes_are_refused() {
        assert_mis_shape_refused(|j| j.replacen("\"obs_dim\":4", "\"obs_dim\":5", 1));
    }

    #[test]
    fn transposed_weight_matrix_is_refused() {
        assert_mis_shape_refused(|j| {
            j.replacen("\"rows\":8,\"cols\":4", "\"rows\":4,\"cols\":8", 1)
        });
    }

    #[test]
    fn log_std_other_than_act_dim_is_refused() {
        assert_mis_shape_refused(|j| j.replacen("\"log_std\":[", "\"log_std\":[0.0,", 1));
    }

    #[test]
    fn poisoned_agent_restores_last_good_snapshot() {
        let mut rng = DetRng::new(13);
        let mut agent = PpoAgent::new(PpoConfig::new(2, 1), &mut rng);
        agent.set_eval(true);
        let before = agent.act(&[0.2, -0.4]);
        agent.snapshot_good();
        agent.map_actor_params(|_| f64::INFINITY);
        assert!(!agent.weights_valid());
        assert!(!agent.validate_or_restore());
        assert_eq!(agent.weight_restores(), 1);
        assert!(agent.weights_valid());
        assert_eq!(agent.act(&[0.2, -0.4]), before);
    }

    #[test]
    fn poisoning_without_snapshot_stays_poisoned() {
        let mut rng = DetRng::new(14);
        let mut agent = PpoAgent::new(PpoConfig::new(1, 1), &mut rng);
        agent.set_eval(true);
        agent.map_actor_params(|_| f64::NAN);
        assert!(!agent.validate_or_restore());
        assert_eq!(agent.weight_restores(), 0, "nothing to restore from");
        assert!(agent.act(&[0.0])[0].is_nan());
    }

    #[test]
    fn update_rolls_back_corrupting_training_batch() {
        let mut rng = DetRng::new(15);
        let mut agent = PpoAgent::new(PpoConfig::new(1, 1), &mut rng);
        for _ in 0..8 {
            agent.act(&[0.5]);
            // A NaN reward poisons advantages and, through them, every
            // parameter the minibatch touches.
            agent.give_reward(f64::NAN, false);
        }
        agent.update(None);
        assert!(agent.weights_valid(), "rolled back");
        assert_eq!(agent.weight_restores(), 1);
        agent.set_eval(true);
        assert!(agent.act(&[0.5])[0].is_finite());
    }

    /// 64-bit FNV-1a over everything written to it, so a multi-megabyte
    /// `Debug` dump hashes without being built as one string.
    struct Fnv1a(u64);

    impl std::fmt::Write for Fnv1a {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            for b in s.bytes() {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
            Ok(())
        }
    }

    /// `(FNV-1a of the fresh agent's weights' Debug form, param_count)`.
    fn fresh_agent_digest(config: PpoConfig, seed: u64) -> (u64, usize) {
        use std::fmt::Write;
        let agent = PpoAgent::new(config, &mut DetRng::new(seed));
        let mut h = Fnv1a(0xcbf2_9ce4_8422_2325);
        write!(h, "{:?}", agent.weights()).unwrap();
        (h.0, agent.param_count())
    }

    /// A fresh agent's snapshot — actor, critic and `log_std` as `new`
    /// draws them — against the digest recorded before the critic and
    /// optimiser state became lazily built. `Debug` prints every float
    /// round-trip exact.
    #[test]
    fn fresh_agent_weights_are_pinned() {
        let cases = [
            (PpoConfig::new(24, 1), 0x2b72_aad4_ff5d_8a91u64, 11_651usize),
            (
                PpoConfig::paper_sized(24, 1),
                0xf70b_e7eb_b825_7e0e,
                551_939,
            ),
        ];
        for (config, want, want_params) in cases {
            let got = fresh_agent_digest(config.clone(), 21);
            assert_eq!(
                got,
                (want, want_params),
                "fresh-agent digest drifted for {:?} (got {:#018x})",
                config.hidden,
                got.0
            );
        }
    }

    /// Collect `steps` transitions from a fixed synthetic environment:
    /// observations and rewards drawn from `env`, an episode ending
    /// every 10 steps.
    fn synthetic_rollout(agent: &mut PpoAgent, env: &mut DetRng, steps: usize) {
        for t in 0..steps {
            let obs: Vec<f64> = (0..agent.config().obs_dim)
                .map(|_| env.uniform_range(-1.0, 1.0))
                .collect();
            agent.act(&obs);
            agent.give_reward(env.uniform_range(-1.0, 1.0), t % 10 == 9);
        }
    }

    /// `(FNV-1a of the weights' Debug form, clip fractions)` after two
    /// updates on [`synthetic_rollout`]s: 70 transitions (minibatches of
    /// 64 and 6), then 65 (64 and a one-sample minibatch). Before the
    /// first update the actor is scaled by 1.25, so its ratios leave the
    /// clip range and some samples pass no policy gradient.
    fn updated_agent_digest(config: PpoConfig) -> (u64, [f64; 2]) {
        use std::fmt::Write;
        let mut agent = PpoAgent::new(config, &mut DetRng::new(23));
        let mut env = DetRng::new(29);
        synthetic_rollout(&mut agent, &mut env, 70);
        agent.map_actor_params(|x| x * 1.25);
        let first = agent.update(None);
        synthetic_rollout(&mut agent, &mut env, 65);
        let last_obs = vec![0.25; agent.config().obs_dim];
        let second = agent.update(Some(&last_obs));
        assert_eq!((first.samples, second.samples), (70, 65));
        assert_eq!(agent.weight_restores(), 0);
        let mut h = Fnv1a(0xcbf2_9ce4_8422_2325);
        write!(h, "{:?}", agent.weights()).unwrap();
        (h.0, [first.clip_fraction, second.clip_fraction])
    }

    /// The weights after two PPO updates — partial last minibatches, a
    /// one-sample minibatch and clipped samples, at 2×64 and at 2×512
    /// (whose hidden-layer products cross the split threshold) —
    /// against digests recorded with the per-sample backward.
    #[test]
    fn update_is_pinned() {
        let cases = [
            (PpoConfig::new(24, 1), 0xa74a_5e6c_0522_9c0fu64),
            (PpoConfig::paper_sized(24, 1), 0x05cd_3308_d9b6_4787),
        ];
        for (config, want) in cases {
            let (got, clip) = updated_agent_digest(config.clone());
            assert!(
                clip.iter().all(|&c| c > 0.0 && c < 1.0),
                "{:?}: clip fractions {clip:?} should be strictly inside (0, 1)",
                config.hidden
            );
            assert_eq!(
                got, want,
                "update digest drifted for {:?} (got {got:#018x})",
                config.hidden
            );
        }
    }

    /// A sample whose observation is NaN has a NaN ratio, so it passes
    /// no policy gradient: a minibatch step moves the actor on the other
    /// samples and leaves it finite, and only the critic, which every
    /// sample trains, turns non-finite.
    #[test]
    fn nan_observation_passes_no_policy_gradient() {
        let config = PpoConfig::new(3, 1);
        let mut agent = PpoAgent::new(config.clone(), &mut DetRng::new(17));
        agent.act(&[0.0; 3]);
        let batch: Vec<Sample> = (0..6)
            .map(|i| Sample {
                obs: if i == 2 {
                    vec![f64::NAN; 3]
                } else {
                    vec![0.1 * i as f64 - 0.2; 3]
                },
                action: vec![0.1 * i as f64],
                logp_old: -0.5,
                advantage: if i % 2 == 0 { 0.8 } else { -0.6 },
                ret: 0.5,
            })
            .collect();
        let before = agent.actor.param_l2_norm();
        let (critic, learner) = Learner::built(
            &mut agent.learner,
            &mut agent.critic,
            &agent.config,
            &agent.actor,
        );
        learner.minibatch_step(
            &config,
            &mut agent.actor,
            critic,
            &mut agent.log_std,
            &batch,
        );
        assert!(!critic.params_finite(), "the NaN sample trains the critic");
        assert!(agent.actor.params_finite(), "and passes the actor nothing");
        assert_ne!(agent.actor.param_l2_norm(), before, "the others do");
    }

    #[test]
    fn param_count_includes_everything() {
        let mut rng = DetRng::new(10);
        let agent = PpoAgent::new(
            PpoConfig {
                hidden: vec![8],
                ..PpoConfig::new(4, 2)
            },
            &mut rng,
        );
        // actor: 4·8+8 + 8·2+2 = 58; critic: 4·8+8 + 8·1+1 = 49; log_std: 2.
        assert_eq!(agent.param_count(), 58 + 49 + 2);
    }
}
