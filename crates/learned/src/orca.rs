//! Orca (Abbasloo et al., SIGCOMM'20): the prior classic+RL hybrid the
//! paper positions Libra against. A DRL agent periodically rescales the
//! base congestion window of an underlying CUBIC (`cwnd ← cwnd · 2^a`,
//! `a ∈ [−2, 2]`), while CUBIC continues its per-ACK updates in between.
//!
//! The failure mode the paper highlights (Fig. 2) is visible by
//! construction: a single bad agent output rescales the window by up to
//! 4× in either direction with no evaluation step to catch it.

use crate::formulation::{ActionSpace, MiObservation, RewardSpec, StateSpace};
use libra_classic::Cubic;
use libra_rl::{PpoAgent, PpoConfig};
use libra_types::{
    AckEvent, CongestionControl, Duration, Ewma, LossEvent, MiStats, Rate, SendEvent,
};
use std::cell::RefCell;
use std::rc::Rc;

/// Orca hybrid controller.
pub struct Orca {
    cubic: Cubic,
    agent: Rc<RefCell<PpoAgent>>,
    state: StateSpace,
    action: ActionSpace,
    reward: RewardSpec,
    history: std::collections::VecDeque<Vec<f64>>,
    /// The agent's input, rewritten from `history` at each decision.
    policy_state: Vec<f64>,
    /// The agent's output and its forward-pass scratch, reused across
    /// decisions.
    policy_action: Vec<f64>,
    scratch: Vec<f64>,
    x_max: Rate,
    d_min: Duration,
    prev_raw: f64,
    send_gap: Ewma,
    last_send_at: Option<libra_types::Instant>,
    srtt: Duration,
    decisions: u64,
}

impl Orca {
    /// Observation dimension Orca's agent needs.
    pub fn ppo_config() -> PpoConfig {
        PpoConfig::new(StateSpace::orca().dim(), 1)
    }

    /// Build over a shared agent (trained or fresh).
    pub fn new(agent: Rc<RefCell<PpoAgent>>) -> Self {
        assert_eq!(
            agent.borrow().config().obs_dim,
            StateSpace::orca().dim(),
            "agent/state dimension mismatch"
        );
        Orca {
            cubic: Cubic::new(1500),
            agent,
            state: StateSpace::orca(),
            action: ActionSpace::MimdOrca { bound: 2.0 },
            reward: RewardSpec {
                use_delta: false, // Orca uses the raw reward (Sec. 4.2)
                ..RewardSpec::default()
            },
            history: std::collections::VecDeque::new(),
            policy_state: Vec::new(),
            policy_action: Vec::new(),
            scratch: Vec::new(),
            x_max: Rate::from_mbps(10.0), // running max, floored at the training range's bottom
            d_min: Duration::ZERO,
            prev_raw: 0.0,
            send_gap: Ewma::new(0.2),
            last_send_at: None,
            srtt: Duration::ZERO,
            decisions: 0,
        }
    }

    /// Agent decisions taken (telemetry).
    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    /// The shared agent.
    pub fn agent(&self) -> Rc<RefCell<PpoAgent>> {
        Rc::clone(&self.agent)
    }
}

impl CongestionControl for Orca {
    fn name(&self) -> &'static str {
        "Orca"
    }

    fn on_send(&mut self, ev: &SendEvent) {
        if let Some(prev) = self.last_send_at {
            self.send_gap
                .update(ev.now.saturating_since(prev).as_secs_f64());
        }
        self.last_send_at = Some(ev.now);
        self.cubic.on_send(ev);
    }

    fn on_ack(&mut self, ev: &AckEvent) {
        self.srtt = ev.srtt;
        if self.d_min.is_zero() {
            self.d_min = ev.min_rtt;
        } else {
            self.d_min = self.d_min.min(ev.min_rtt);
        }
        self.cubic.on_ack(ev);
    }

    fn on_loss(&mut self, ev: &LossEvent) {
        self.cubic.on_loss(ev);
    }

    fn on_mi(&mut self, mi: &MiStats) {
        if mi.is_ack_starved() {
            return;
        }
        // Orca lets CUBIC finish slow start before the agent engages.
        if self.cubic.in_startup() {
            return;
        }
        self.x_max = self.x_max.max(mi.delivery_rate).max(mi.sending_rate);
        let obs = MiObservation {
            mi: *mi,
            ack_gap_ewma: Duration::ZERO,
            send_gap_ewma: Duration::from_secs_f64(self.send_gap.get_or(0.0)),
            x_max: self.x_max,
            d_min: self.d_min,
        };
        let (reward, raw) = self.reward.compute(&obs, self.prev_raw);
        self.prev_raw = raw;
        self.state.push_step(&mut self.history, &obs);
        self.state
            .write_history(&self.history, &mut self.policy_state);
        let mut agent = self.agent.borrow_mut();
        agent.give_reward(reward, false);
        agent.act_into(
            &self.policy_state,
            &mut self.policy_action,
            &mut self.scratch,
        );
        let a = self.policy_action[0];
        drop(agent);
        // Rescale CUBIC's base window: cwnd ← cwnd · 2^a, clamped to the
        // deployable range (repeated ×4 rescales would otherwise compound
        // into an astronomically large window).
        let srtt = self.srtt.max(Duration::from_millis(10));
        let current = self.cubic.rate_estimate(srtt);
        let rescaled = self
            .action
            .apply(current, a)
            .clamp(Rate::from_kbps(80.0), Rate::from_mbps(400.0));
        self.cubic.set_rate(rescaled, srtt);
        self.decisions += 1;
    }

    fn mi_duration(&self, srtt: Duration) -> Duration {
        // Orca's control interval is a couple of RTTs.
        (srtt * 2).max(Duration::from_millis(20))
    }

    fn cwnd_bytes(&self) -> u64 {
        self.cubic.cwnd_bytes()
    }

    fn set_rate(&mut self, rate: Rate, srtt: Duration) {
        self.cubic.set_rate(rate, srtt);
    }

    fn in_startup(&self) -> bool {
        self.cubic.in_startup()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use libra_types::{DetRng, Instant, LossKind};

    fn agent(seed: u64) -> Rc<RefCell<PpoAgent>> {
        let mut rng = DetRng::new(seed);
        Rc::new(RefCell::new(PpoAgent::new(Orca::ppo_config(), &mut rng)))
    }

    fn ack(now_ms: u64, rtt_ms: u64) -> AckEvent {
        AckEvent {
            now: Instant::from_millis(now_ms),
            seq: 0,
            bytes: 1500,
            rtt: Duration::from_millis(rtt_ms),
            min_rtt: Duration::from_millis(rtt_ms),
            srtt: Duration::from_millis(rtt_ms),
            sent_at: Instant::from_millis(now_ms.saturating_sub(rtt_ms)),
            delivered_at_send: 0,
            delivered: 0,
            in_flight: 0,
            app_limited: false,
        }
    }

    fn mi(rate_mbps: f64, rtt_ms: u64) -> MiStats {
        let mut s = MiStats::empty(Instant::from_millis(100));
        s.sending_rate = Rate::from_mbps(rate_mbps);
        s.delivery_rate = Rate::from_mbps(rate_mbps);
        s.avg_rtt = Duration::from_millis(rtt_ms);
        s.acks = 10;
        s.sent_bytes = 10_000;
        s.acked_bytes = 10_000;
        s
    }

    #[test]
    fn agent_idle_during_slow_start() {
        let mut o = Orca::new(agent(1));
        o.on_ack(&ack(10, 50));
        assert!(o.in_startup());
        o.on_mi(&mi(5.0, 50));
        assert_eq!(o.decisions(), 0);
    }

    #[test]
    fn agent_rescales_cubic_after_startup() {
        let mut o = Orca::new(agent(2));
        // Leave slow start via a loss.
        for k in 0..20 {
            o.on_ack(&ack(k, 50));
        }
        o.on_loss(&libra_types::LossEvent {
            now: Instant::from_millis(30),
            seq: 0,
            bytes: 1500,
            in_flight: 0,
            kind: LossKind::FastRetransmit,
        });
        assert!(!o.in_startup());
        let w0 = o.cwnd_bytes();
        o.on_mi(&mi(5.0, 50));
        assert_eq!(o.decisions(), 1);
        let w1 = o.cwnd_bytes();
        // Rescale bounded by 2^±2.
        let ratio = w1 as f64 / w0 as f64;
        assert!((0.2..=5.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn mi_interval_is_two_rtts() {
        let o = Orca::new(agent(3));
        assert_eq!(
            o.mi_duration(Duration::from_millis(50)),
            Duration::from_millis(100)
        );
    }

    #[test]
    fn ack_starvation_skips() {
        let mut o = Orca::new(agent(4));
        for k in 0..20 {
            o.on_ack(&ack(k, 50));
        }
        o.on_loss(&libra_types::LossEvent {
            now: Instant::from_millis(30),
            seq: 0,
            bytes: 1500,
            in_flight: 0,
            kind: LossKind::FastRetransmit,
        });
        o.on_mi(&MiStats::empty(Instant::from_secs(1)));
        assert_eq!(o.decisions(), 0);
    }
}
