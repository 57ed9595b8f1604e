//! Offline training of PPO-based controllers over randomized simulated
//! networks — the paper's training procedure (Sec. 5 "Implementation"):
//! each episode samples link capacity, RTT, buffer size and stochastic
//! loss from configured ranges and runs one fresh flow.

use crate::formulation::StateSpace;
use crate::orca::Orca;
use crate::rl_cca::{RlCca, RlCcaConfig};
use libra_netsim::{FaultPlan, FlowConfig, LinkConfig, Simulation};
use libra_rl::{PpoAgent, PpoConfig, PpoWeights};
use libra_types::{Bytes, CongestionControl, DetRng, Duration, Instant, Rate};
use std::cell::RefCell;
use std::rc::Rc;

/// Ranges the training environment samples from. Defaults follow the
/// paper: capacity 10–200 Mbps, RTT 10–200 ms, buffer 10 KB–5 MB, loss
/// 0–10 %.
#[derive(Debug, Clone)]
pub struct EnvRanges {
    /// Link capacity range in Mbps.
    pub capacity_mbps: (f64, f64),
    /// Minimum-RTT range in milliseconds.
    pub rtt_ms: (f64, f64),
    /// Buffer range in KB.
    pub buffer_kb: (u64, u64),
    /// Stochastic loss range.
    pub loss: (f64, f64),
}

impl Default for EnvRanges {
    fn default() -> Self {
        EnvRanges {
            capacity_mbps: (10.0, 200.0),
            rtt_ms: (10.0, 200.0),
            buffer_kb: (10, 5_000),
            loss: (0.0, 0.10),
        }
    }
}

impl EnvRanges {
    /// A narrower, faster-converging range for unit tests and quick
    /// benches (capacities a small agent explores quickly).
    pub fn quick() -> Self {
        EnvRanges {
            capacity_mbps: (8.0, 60.0),
            rtt_ms: (20.0, 80.0),
            buffer_kb: (30, 500),
            loss: (0.0, 0.02),
        }
    }

    /// One fixed loss-free link: every episode samples exactly this
    /// capacity, RTT and buffer. `fixed(100.0, 100.0, 1250)` is the
    /// paper's Sec. 4.2 default environment (1 BDP of buffer).
    pub fn fixed(capacity_mbps: f64, rtt_ms: f64, buffer_kb: u64) -> Self {
        EnvRanges {
            capacity_mbps: (capacity_mbps, capacity_mbps),
            rtt_ms: (rtt_ms, rtt_ms),
            buffer_kb: (buffer_kb, buffer_kb),
            loss: (0.0, 0.0),
        }
    }

    /// Sample one episode's link.
    pub fn sample(&self, rng: &mut DetRng) -> LinkConfig {
        let cap = Rate::from_mbps(rng.uniform_range(self.capacity_mbps.0, self.capacity_mbps.1));
        let rtt = Duration::from_secs_f64(rng.uniform_range(self.rtt_ms.0, self.rtt_ms.1) / 1e3);
        let buffer = Bytes::from_kb(rng.uniform_u64(self.buffer_kb.0, self.buffer_kb.1 + 1));
        let loss = rng.uniform_range(self.loss.0, self.loss.1);
        LinkConfig {
            capacity: libra_netsim::CapacitySchedule::constant(cap),
            one_way_delay: rtt / 2,
            buffer,
            stochastic_loss: loss,
            ack_jitter: Duration::ZERO,
            loss_process: None,
            ecn: None,
            faults: FaultPlan::default(),
            queue: libra_netsim::QueueConfig::Droptail,
        }
    }
}

/// Training loop configuration.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Number of training episodes.
    pub episodes: usize,
    /// Simulated seconds per episode.
    pub episode_secs: u64,
    /// Environment ranges.
    pub env: EnvRanges,
    /// Master seed.
    pub seed: u64,
    /// Run a PPO update every `update_every` episodes.
    pub update_every: usize,
}

impl TrainConfig {
    /// The training figures' and the model cache's recipe: `episodes`
    /// episodes of 8 simulated seconds over `env`, updating the agent
    /// every second episode.
    pub fn new(episodes: usize, env: EnvRanges, seed: u64) -> Self {
        TrainConfig {
            episodes,
            episode_secs: 8,
            env,
            seed,
            update_every: 2,
        }
    }
}

/// Per-episode log entry of a training run.
#[derive(Debug, Clone, Copy)]
pub struct EpisodeLog {
    /// Episode index.
    pub episode: usize,
    /// Sum of rewards the agent collected in the episode.
    pub reward: f64,
    /// Link utilization achieved.
    pub utilization: f64,
    /// Mean RTT in ms.
    pub rtt_ms: f64,
    /// Loss fraction.
    pub loss: f64,
}

/// Result of a training run: final weights plus the per-episode curve
/// (the data behind Fig. 5 and Fig. 6).
pub struct TrainResult {
    /// Trained weights.
    pub weights: PpoWeights,
    /// Per-episode reward curve.
    pub curve: Vec<EpisodeLog>,
}

/// The training loop every PPO-based controller trains through. Each
/// episode samples a link from `env_rng`, wraps the shared agent in the
/// controller `build` returns for that link, runs it as one flow on a
/// simulation seeded from `rng`, and logs the episode; the agent updates
/// every `cfg.update_every` episodes and once more at the end.
pub fn train_episodes(
    cfg: &TrainConfig,
    agent: PpoAgent,
    mut rng: DetRng,
    mut env_rng: DetRng,
    mut build: impl FnMut(&Rc<RefCell<PpoAgent>>, &LinkConfig) -> Box<dyn CongestionControl>,
) -> TrainResult {
    let agent = Rc::new(RefCell::new(agent));
    let until = Instant::from_secs(cfg.episode_secs);
    let mut curve = Vec::with_capacity(cfg.episodes);
    for episode in 0..cfg.episodes {
        let link = cfg.env.sample(&mut env_rng);
        let cca = build(&agent, &link);
        let mut sim = Simulation::new(link, rng.next_u64());
        let mut fc = FlowConfig::whole_run(cca, until);
        fc.measure_compute = false;
        sim.add_flow(fc);
        let report = sim.run(until);
        let reward = agent.borrow().buffered_reward();
        curve.push(EpisodeLog {
            episode,
            reward,
            utilization: report.link.utilization,
            rtt_ms: report.flows[0].rtt_ms.mean(),
            loss: report.flows[0].loss_fraction,
        });
        if (episode + 1) % cfg.update_every == 0 {
            agent.borrow_mut().update(None);
        }
    }
    agent.borrow_mut().update(None);
    let weights = agent.borrow().weights();
    TrainResult { weights, curve }
}

/// Train a fresh agent (drawn from `cfg.seed ^ salt`) inside the
/// controller `wrap` builds, starting each episode at a random fraction
/// of the link's capacity (Aurora's trick: exposing the agent to
/// mid/high-rate states from the start gives dense gradients and avoids
/// the timid local optimum at the rate floor).
fn train_from_random_rates(
    cfg: &TrainConfig,
    ppo: PpoConfig,
    salt: u64,
    wrap: impl Fn(Rc<RefCell<PpoAgent>>) -> Box<dyn CongestionControl>,
) -> TrainResult {
    let agent = PpoAgent::new(ppo, &mut DetRng::new(cfg.seed ^ salt));
    let mut rng = DetRng::new(cfg.seed);
    let env_rng = rng.fork("train-env");
    let mut init_rng = rng.fork("train-init");
    train_episodes(cfg, agent, rng, env_rng, |agent, link| {
        let mut cca = wrap(Rc::clone(agent));
        let capacity = link.capacity.rate_at(Instant::ZERO);
        cca.set_rate(
            capacity.scale(init_rng.uniform_range(0.2, 1.3)),
            link.one_way_delay * 2,
        );
        cca
    })
}

/// Train an [`RlCca`] formulation from scratch; returns weights and the
/// reward curve.
pub fn train_rl_cca(cca_cfg: &RlCcaConfig, cfg: &TrainConfig) -> TrainResult {
    train_from_random_rates(cfg, cca_cfg.ppo_config(), 0xA5A5, |agent| {
        Box::new(RlCca::new(cca_cfg.clone(), agent))
    })
}

/// Train an [`Orca`] agent from scratch.
pub fn train_orca(cfg: &TrainConfig) -> TrainResult {
    train_from_random_rates(cfg, Orca::ppo_config(), 0x5A5A, |agent| {
        Box::new(Orca::new(agent))
    })
}

/// Means of the last quarter of a training curve (at least one episode;
/// all zero for an empty curve) — the summary the state-space, loss-term
/// and reward-form tables report.
#[derive(Debug, Clone, Copy)]
pub struct TailMeans {
    /// Mean episode reward.
    pub reward: f64,
    /// Mean link utilization.
    pub utilization: f64,
    /// Mean of the episodes' mean RTTs, in ms.
    pub rtt_ms: f64,
    /// Mean loss fraction.
    pub loss: f64,
}

/// The [`TailMeans`] of `curve`.
pub fn tail_means(curve: &[EpisodeLog]) -> TailMeans {
    let n = (curve.len() / 4).max(1).min(curve.len());
    let tail = &curve[curve.len() - n..];
    let mean = |field: fn(&EpisodeLog) -> f64| {
        if n == 0 {
            0.0
        } else {
            tail.iter().map(field).sum::<f64>() / n as f64
        }
    };
    TailMeans {
        reward: mean(|e| e.reward),
        utilization: mean(|e| e.utilization),
        rtt_ms: mean(|e| e.rtt_ms),
        loss: mean(|e| e.loss),
    }
}

/// Smoothed tail reward of a curve (mean of the last quarter).
pub fn tail_reward(curve: &[EpisodeLog]) -> f64 {
    tail_means(curve).reward
}

/// Convenience: a generic RlCcaConfig for an arbitrary state space with
/// the Libra defaults otherwise (used by the Fig. 5 comparison).
pub fn config_for_state_space(name: &'static str, state: StateSpace) -> RlCcaConfig {
    RlCcaConfig {
        name,
        state,
        ..RlCcaConfig::libra_rl()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_sampling_in_ranges() {
        let ranges = EnvRanges::default();
        let mut rng = DetRng::new(1);
        for _ in 0..50 {
            let link = ranges.sample(&mut rng);
            let cap = link.capacity.rate_at(Instant::ZERO).mbps();
            assert!((10.0..=200.0).contains(&cap), "cap {cap}");
            let rtt = link.one_way_delay.as_millis_f64() * 2.0;
            assert!((9.9..=200.1).contains(&rtt), "rtt {rtt}");
            assert!(link.buffer.get() >= 10_000 && link.buffer.get() <= 5_000_000);
            assert!((0.0..=0.1).contains(&link.stochastic_loss));
        }
        let fixed = EnvRanges::fixed(100.0, 100.0, 1250);
        for _ in 0..5 {
            let link = fixed.sample(&mut rng);
            assert_eq!(link.capacity.rate_at(Instant::ZERO), Rate::from_mbps(100.0));
            assert_eq!(link.one_way_delay * 2, Duration::from_millis(100));
            assert_eq!(link.buffer, Bytes::from_kb(1250));
            assert_eq!(link.stochastic_loss, 0.0);
        }
    }

    #[test]
    fn short_training_runs_and_logs() {
        let cca = RlCcaConfig::libra_rl();
        let cfg = TrainConfig {
            episodes: 4,
            episode_secs: 2,
            env: EnvRanges::quick(),
            seed: 3,
            update_every: 2,
        };
        let result = train_rl_cca(&cca, &cfg);
        assert_eq!(result.curve.len(), 4);
        assert!(result.curve.iter().all(|e| e.reward.is_finite()));
        assert!(result.curve.iter().any(|e| e.utilization > 0.0));
    }

    #[test]
    fn orca_training_runs() {
        let cfg = TrainConfig {
            episodes: 2,
            episode_secs: 2,
            env: EnvRanges::quick(),
            seed: 4,
            update_every: 1,
        };
        let result = train_orca(&cfg);
        assert_eq!(result.curve.len(), 2);
    }

    #[test]
    fn training_is_deterministic() {
        let cca = RlCcaConfig::libra_rl();
        let cfg = TrainConfig {
            episodes: 3,
            episode_secs: 2,
            env: EnvRanges::quick(),
            seed: 9,
            update_every: 2,
        };
        let a = train_rl_cca(&cca, &cfg);
        let b = train_rl_cca(&cca, &cfg);
        for (x, y) in a.curve.iter().zip(&b.curve) {
            assert_eq!(x.reward, y.reward);
        }
    }

    /// 64-bit FNV-1a (the digest the bench crate's golden tables use).
    fn fnv1a(s: &str) -> u64 {
        s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Training is the one user of training-mode self-serve (`on_mi`
    /// sampling from the agent it is updating): pin the weights and the
    /// episode curve against the commit that recorded them, not just a
    /// run against itself. `Debug` prints every float round-trip exact.
    #[test]
    fn aurora_training_is_pinned() {
        let cfg = TrainConfig {
            episodes: 6,
            episode_secs: 4,
            env: EnvRanges::quick(),
            seed: 9,
            update_every: 2,
        };
        let r = train_rl_cca(&RlCcaConfig::aurora(), &cfg);
        let got = fnv1a(&format!("{:?}{:?}", r.weights, r.curve));
        assert_eq!(
            got, 0x330d_6d49_3d37_30dd,
            "training digest drifted (got {got:#018x})"
        );
    }

    /// Orca's wrapper and its random initial rate, pinned the same way.
    #[test]
    fn orca_training_is_pinned() {
        let cfg = TrainConfig {
            episodes: 4,
            episode_secs: 3,
            env: EnvRanges::quick(),
            seed: 4,
            update_every: 2,
        };
        let r = train_orca(&cfg);
        let got = fnv1a(&format!("{:?}{:?}", r.weights, r.curve));
        assert_eq!(
            got, 0x3291_eb64_507f_6c69,
            "training digest drifted (got {got:#018x})"
        );
    }

    #[test]
    fn tail_reward_math() {
        let curve: Vec<EpisodeLog> = (0..8)
            .map(|i| EpisodeLog {
                episode: i,
                reward: i as f64,
                utilization: i as f64 / 10.0,
                rtt_ms: 40.0 + i as f64,
                loss: i as f64 / 100.0,
            })
            .collect();
        // Last quarter = episodes 6,7 → mean 6.5.
        assert!((tail_reward(&curve) - 6.5).abs() < 1e-12);
        assert_eq!(tail_reward(&[]), 0.0);
        let m = tail_means(&curve);
        assert_eq!(m.reward, tail_reward(&curve));
        assert!((m.utilization - 0.65).abs() < 1e-12, "{m:?}");
        assert!((m.rtt_ms - 46.5).abs() < 1e-12, "{m:?}");
        assert!((m.loss - 0.065).abs() < 1e-12, "{m:?}");
        let empty = tail_means(&[]);
        assert_eq!(
            (empty.utilization, empty.rtt_ms, empty.loss),
            (0.0, 0.0, 0.0)
        );
    }
}
