//! Training smoke tests: PPO improves on the congestion-control task and
//! the full training loops are deterministic and serializable.

use libra::learned::{tail_reward, train_rl_cca, EnvRanges, RlCcaConfig, TrainConfig};
use libra::prelude::*;
use std::{cell::RefCell, rc::Rc};

fn quick(episodes: usize, seed: u64) -> TrainConfig {
    TrainConfig {
        episode_secs: 5,
        ..TrainConfig::new(episodes, EnvRanges::fixed(20.0, 50.0, 125), seed)
    }
}

#[test]
fn training_improves_reward_on_fixed_env() {
    // On a fixed 20 Mbps environment, an agent trained for 60 episodes
    // should out-reward its first episodes. (Generous margins: PPO on a
    // tiny budget is noisy, but the trend must be there.)
    let r = train_rl_cca(&RlCcaConfig::libra_rl(), &quick(60, 42));
    let early: f64 = r.curve[..10].iter().map(|e| e.reward).sum::<f64>() / 10.0;
    let late = tail_reward(&r.curve);
    assert!(late > early, "late reward {late} should beat early {early}");
}

#[test]
fn trained_weights_keep_the_link_busy() {
    let trained = train_rl_cca(&RlCcaConfig::libra_rl(), &quick(60, 47)).weights;
    let link = LinkConfig::constant(Rate::from_mbps(20.0), Duration::from_millis(50), 1.0);
    let until = Instant::from_secs(10);
    let mut sim = Simulation::new(link, 100);
    let mut rng = DetRng::new(100);
    let mut agent = PpoAgent::from_weights(trained, &mut rng);
    agent.set_eval(true);
    let cca = RlCca::new(RlCcaConfig::libra_rl(), Rc::new(RefCell::new(agent)));
    sim.add_flow(FlowConfig::whole_run(Box::new(cca), until));
    let util = sim.run(until).link.utilization;
    // A short-budget PPO run will not be optimal, but it must not have
    // collapsed into a near-zero-rate policy.
    assert!(util > 0.2, "trained policy utilization {util}");
}

#[test]
fn weights_json_round_trip_through_disk_format() {
    let r = train_rl_cca(&RlCcaConfig::libra_rl(), &quick(4, 9));
    let json = serde_json::to_string(&r.weights).expect("serialize");
    let back: libra::rl::PpoWeights = serde_json::from_str(&json).expect("deserialize");
    let mut rng1 = DetRng::new(1);
    let mut rng2 = DetRng::new(1);
    let mut a = PpoAgent::from_weights(r.weights, &mut rng1);
    let mut b = PpoAgent::from_weights(back, &mut rng2);
    a.set_eval(true);
    b.set_eval(true);
    let obs = vec![0.25; a.config().obs_dim];
    let (xa, xb) = (a.act(&obs), b.act(&obs));
    // serde_json may round the last ULP of an f64; behaviourally equal.
    for (va, vb) in xa.iter().zip(&xb) {
        assert!((va - vb).abs() < 1e-9, "{va} vs {vb}");
    }
}

#[test]
fn in_framework_training_reward_is_finite_and_deterministic() {
    let cfg = quick(6, 11);
    let a = libra::core::train_libra(libra::core::LibraVariant::Cubic, &cfg);
    let b = libra::core::train_libra(libra::core::LibraVariant::Cubic, &cfg);
    for (x, y) in a.curve.iter().zip(&b.curve) {
        assert!(x.reward.is_finite());
        assert_eq!(x.reward, y.reward, "training must be deterministic");
    }
}
