//! The generic RL-based congestion controller: a PPO agent driven per
//! monitor interval with a configurable state space, action space and
//! reward — the paper's Alg. 2, and (with the appropriate formulation)
//! also Aurora and the Modified-RL benchmark.

use crate::formulation::{ActionSpace, MiObservation, RewardSpec, StateSpace};
use crate::ladder::{Ladder, Resolution};
use libra_rl::{PpoAgent, PpoConfig};
use libra_types::{
    cca::rate_based_cwnd, AckEvent, CongestionControl, Duration, Ewma, LossEvent, MiStats, Rate,
    SendEvent, UtilityParams,
};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// Reward source: the standard normalized reward of Alg. 2, or Eq. 1's
/// utility function directly (the "Modified RL" benchmark).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RewardSource {
    /// `r = w1·x/x_max − w2·d/d_min − w3·L` (optionally Δr).
    Normalized(RewardSpec),
    /// Eq. 1's utility value as the reward (Mod. RL).
    Utility(UtilityParams),
}

/// Configuration of an [`RlCca`].
#[derive(Debug, Clone)]
pub struct RlCcaConfig {
    /// Display name (the paper compares several formulations).
    pub name: &'static str,
    /// State-space design.
    pub state: StateSpace,
    /// Action-space design.
    pub action: ActionSpace,
    /// Reward design.
    pub reward: RewardSource,
    /// Decision interval in units of sRTT.
    pub mi_rtts: f64,
    /// Rate bounds.
    pub min_rate: Rate,
    /// Upper rate bound.
    pub max_rate: Rate,
    /// Initial rate.
    pub init_rate: Rate,
    /// Floor for the running throughput normalizer (Alg. 2's `x_max`).
    /// `x_max` starts here — the *bottom* of the paper's 10–200 Mbps
    /// training range — and rises with the observed delivery rate.
    /// Starting low keeps a real upward gradient in the reward
    /// (`x / x_max` can exceed 1 while the flow is still discovering the
    /// link); starting at the flow's own first rate pins the term at ~1
    /// and teaches timidity.
    pub norm_floor: Rate,
}

impl RlCcaConfig {
    /// Libra's RL component formulation (Sec. 4.2): Libra state space,
    /// MIMD action, Δr reward with loss, per-RTT decisions.
    pub fn libra_rl() -> Self {
        RlCcaConfig {
            name: "Libra-RL",
            state: StateSpace::libra(),
            action: ActionSpace::libra_default(),
            reward: RewardSource::Normalized(RewardSpec::default()),
            mi_rtts: 1.0,
            min_rate: Rate::from_kbps(80.0),
            max_rate: Rate::from_mbps(400.0),
            init_rate: Rate::from_mbps(2.0),
            norm_floor: Rate::from_mbps(10.0),
        }
    }

    /// Aurora's formulation: its own state space, Aurora-MIMD action and
    /// non-delta reward.
    pub fn aurora() -> Self {
        RlCcaConfig {
            name: "Aurora",
            state: StateSpace::aurora(),
            action: ActionSpace::MimdAurora { scale: 10.0 },
            reward: RewardSource::Normalized(RewardSpec {
                use_delta: false,
                ..RewardSpec::default()
            }),
            ..RlCcaConfig::libra_rl()
        }
    }

    /// The Modified-RL benchmark: Libra's formulation but rewarded by
    /// Eq. 1's utility directly (shows that the utility function alone,
    /// without the combined framework, lacks convergence guarantees).
    pub fn mod_rl() -> Self {
        RlCcaConfig {
            name: "Mod. RL",
            reward: RewardSource::Utility(UtilityParams::default()),
            ..RlCcaConfig::libra_rl()
        }
    }

    /// PPO geometry this formulation needs.
    pub fn ppo_config(&self) -> PpoConfig {
        PpoConfig::new(self.state.dim(), 1)
    }
}

/// A PPO-driven rate-based congestion controller.
///
/// The agent is shared via `Rc<RefCell<…>>` so a trainer (or Libra) can
/// keep updating/saving it while the simulator owns the controller.
pub struct RlCca {
    config: RlCcaConfig,
    agent: Rc<RefCell<PpoAgent>>,
    rate: Rate,
    history: VecDeque<Vec<f64>>,
    // Feature-normalization state (Alg. 2 line 6).
    x_max: Rate,
    d_min: Duration,
    prev_raw_reward: f64,
    // Gap EWMAs for features (i)/(ii).
    ack_gap: Ewma,
    send_gap: Ewma,
    last_ack_at: Option<libra_types::Instant>,
    last_send_at: Option<libra_types::Instant>,
    srtt: Duration,
    mss: u64,
    decisions: u64,
    in_slow_start: bool,
    ladder: Ladder,
    serve: SelfServe,
}

/// The buffers of a self-served MI decision — the state vector, the
/// action, and the forward pass's scratch — which a controller keeps
/// across decisions so that serving itself allocates nothing in steady
/// state.
#[derive(Default)]
pub struct SelfServe {
    state: Vec<f64>,
    action: Vec<f64>,
    scratch: Vec<f64>,
}

impl SelfServe {
    /// The self-served decision, derived: submit, then — if `cca` owes
    /// a decision — ask `agent` directly and resolve with its action.
    pub fn decide(
        &mut self,
        cca: &mut impl CongestionControl,
        agent: &RefCell<PpoAgent>,
        mi: &MiStats,
    ) {
        if cca.mi_submit(mi, &mut self.state) {
            let (action, scratch) = (&mut self.action, &mut self.scratch);
            agent.borrow_mut().act_into(&self.state, action, scratch);
            cca.mi_resolve(mi, &self.action);
        }
    }
}

impl RlCca {
    /// Wrap a shared agent. The agent's observation dimension must match
    /// the configured state space.
    pub fn new(config: RlCcaConfig, agent: Rc<RefCell<PpoAgent>>) -> Self {
        assert_eq!(
            agent.borrow().config().obs_dim,
            config.state.dim(),
            "agent/state dimension mismatch"
        );
        let rate = config.init_rate;
        let x_max = config.norm_floor;
        RlCca {
            config,
            agent,
            rate,
            history: VecDeque::new(),
            x_max,
            d_min: Duration::ZERO,
            prev_raw_reward: 0.0,
            ack_gap: Ewma::new(0.2),
            send_gap: Ewma::new(0.2),
            last_ack_at: None,
            last_send_at: None,
            srtt: Duration::ZERO,
            mss: 1500,
            decisions: 0,
            in_slow_start: true,
            ladder: Ladder::default(),
            serve: SelfServe::default(),
        }
    }

    /// Decisions made so far (telemetry).
    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    /// Actions the ladder rejected: invalid or missing, with no replay
    /// left. A rising count is the primary symptom of a corrupted
    /// network.
    pub fn invalid_actions(&self) -> u64 {
        self.ladder.invalid_actions()
    }

    /// The degradation ladder this arm's actions pass through.
    pub fn ladder(&self) -> &Ladder {
        &self.ladder
    }

    /// Report a decided cycle's measured utilities to the ladder: the
    /// regression streak and the backoff's recovery count (rungs 4–5).
    pub fn on_cycle(&mut self, u_learned: Option<f64>, u_classic: Option<f64>) {
        self.ladder.on_cycle(u_learned, u_classic);
    }

    /// One monitor interval on the bench. `None` while the backoff runs;
    /// `Some(restored)` when it has elapsed and this arm is re-probed and
    /// plays again, `restored` saying whether its agent's weights were
    /// corrupt and rolled back to the last good snapshot.
    pub fn tick_bench(&mut self) -> Option<bool> {
        self.ladder.tick_bench(&self.agent)
    }

    /// Access the shared agent.
    pub fn agent(&self) -> Rc<RefCell<PpoAgent>> {
        Rc::clone(&self.agent)
    }

    /// The controller's current rate decision.
    pub fn current_rate(&self) -> Rate {
        self.rate
    }

    fn observation(&self, mi: &MiStats) -> MiObservation {
        MiObservation {
            mi: *mi,
            ack_gap_ewma: Duration::from_secs_f64(self.ack_gap.get_or(0.0)),
            send_gap_ewma: Duration::from_secs_f64(self.send_gap.get_or(0.0)),
            x_max: self.x_max,
            d_min: self.d_min,
        }
    }

    /// Apply a policy action to the rate — the tail of a decision —
    /// through the degradation ladder ([`Ladder`]), and say which rung
    /// took it.
    pub fn resolve(&mut self, action: &[f64]) -> Resolution {
        // `Rate` would silently clamp NaN to zero, so the raw output is
        // validated by the ladder *before* conversion.
        let (resolution, applied) = self.ladder.resolve(action);
        if let Some(a) = applied {
            self.decisions += u64::from(resolution == Resolution::Applied);
            self.rate = self
                .config
                .action
                .apply(self.rate, a)
                .clamp(self.config.min_rate, self.config.max_rate);
        }
        resolution
    }
}

impl CongestionControl for RlCca {
    fn name(&self) -> &'static str {
        self.config.name
    }

    fn on_send(&mut self, ev: &SendEvent) {
        if let Some(prev) = self.last_send_at {
            self.send_gap
                .update(ev.now.saturating_since(prev).as_secs_f64());
        }
        self.last_send_at = Some(ev.now);
    }

    fn on_ack(&mut self, ev: &AckEvent) {
        if let Some(prev) = self.last_ack_at {
            self.ack_gap
                .update(ev.now.saturating_since(prev).as_secs_f64());
        }
        self.last_ack_at = Some(ev.now);
        self.srtt = ev.srtt;
        if self.d_min.is_zero() {
            self.d_min = ev.min_rtt;
        } else {
            self.d_min = self.d_min.min(ev.min_rtt);
        }
    }

    fn on_loss(&mut self, _ev: &LossEvent) {
        // Loss enters through the MI statistics.
    }

    /// Self-served decision: [`SelfServe::decide`] over this
    /// controller's own agent and buffers.
    fn on_mi(&mut self, mi: &MiStats) {
        let (mut serve, agent) = (std::mem::take(&mut self.serve), self.agent());
        serve.decide(self, &agent, mi);
        self.serve = serve;
    }

    /// The MI-close body (Alg. 2): bookkeeping up to the point where the
    /// policy is consulted. Returns `true` with the state vector in
    /// `policy_state` when a decision is owed; whoever serves it — the
    /// policy server, or [`on_mi`](CongestionControl::on_mi) above —
    /// completes the tick through
    /// [`mi_resolve`](CongestionControl::mi_resolve).
    fn mi_submit(&mut self, mi: &MiStats, policy_state: &mut Vec<f64>) -> bool {
        // No-ACK special case (Sec. 3): keep the same rate decision and
        // skip the agent entirely.
        if mi.is_ack_starved() {
            return false;
        }
        // Startup: double per MI until congestion shows (every deployment
        // of a rate-based learned CCA needs this bootstrap — the policy
        // is trained for steady-state control, not cold starts).
        if self.in_slow_start {
            let congested = mi.loss_rate > 0.0
                || mi.rtt_gradient > 0.05
                || (!mi.min_rtt.is_zero()
                    && mi.avg_rtt.as_secs_f64() > 1.25 * mi.min_rtt.as_secs_f64());
            if congested {
                self.in_slow_start = false;
                self.rate = self
                    .rate
                    .scale(0.5)
                    .clamp(self.config.min_rate, self.config.max_rate);
            } else {
                self.x_max = self.x_max.max(mi.delivery_rate).max(mi.sending_rate);
                self.rate = self
                    .rate
                    .scale(2.0)
                    .clamp(self.config.min_rate, self.config.max_rate);
                return false;
            }
        }
        // Alg. 2 line 6: x_max tracks the maximum observed throughput
        // (with the configured floor).
        self.x_max = self.x_max.max(mi.delivery_rate).max(mi.sending_rate);
        let obs = self.observation(mi);
        // Reward for the *previous* action.
        let reward = match self.config.reward {
            RewardSource::Normalized(spec) => {
                let (r, raw) = spec.compute(&obs, self.prev_raw_reward);
                self.prev_raw_reward = raw;
                r
            }
            RewardSource::Utility(params) => params.evaluate_mi(mi),
        };
        self.config.state.push_step(&mut self.history, &obs);
        // A degenerate MI can yield a non-finite reward (e.g. a zero-length
        // interval); feed the agent a neutral value rather than poisoning
        // its advantages.
        let reward = if reward.is_finite() { reward } else { 0.0 };
        self.config.state.write_history(&self.history, policy_state);
        self.agent.borrow_mut().give_reward(reward, false);
        true
    }

    fn mi_resolve(&mut self, _stats: &MiStats, action: &[f64]) {
        self.resolve(action);
    }

    fn mi_duration(&self, srtt: Duration) -> Duration {
        srtt.mul_f64(self.config.mi_rtts)
            .max(Duration::from_millis(5))
    }

    fn cwnd_bytes(&self) -> u64 {
        rate_based_cwnd(
            self.rate,
            self.srtt.max(Duration::from_millis(10)),
            self.mss,
        )
    }

    fn pacing_rate(&self) -> Option<Rate> {
        Some(self.rate)
    }

    fn set_rate(&mut self, rate: Rate, _srtt: Duration) {
        self.rate = rate.clamp(self.config.min_rate, self.config.max_rate);
        // A re-base means someone who knows better (Libra's cycle, the
        // trainer) placed us: skip the cold-start bootstrap.
        self.in_slow_start = false;
    }

    fn in_startup(&self) -> bool {
        self.in_slow_start
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use libra_types::{DetRng, Instant};

    fn agent_for(config: &RlCcaConfig, seed: u64) -> Rc<RefCell<PpoAgent>> {
        let mut rng = DetRng::new(seed);
        Rc::new(RefCell::new(PpoAgent::new(config.ppo_config(), &mut rng)))
    }

    fn mi(rate_mbps: f64, rtt_ms: u64, loss: f64) -> MiStats {
        let mut s = MiStats::empty(Instant::from_millis(100));
        s.sending_rate = Rate::from_mbps(rate_mbps);
        s.delivery_rate = Rate::from_mbps(rate_mbps * (1.0 - loss));
        s.avg_rtt = Duration::from_millis(rtt_ms);
        s.min_rtt = Duration::from_millis(40);
        s.loss_rate = loss;
        s.acks = 20;
        s.sent_bytes = 100_000;
        s.acked_bytes = 100_000;
        s
    }

    #[test]
    fn acts_on_mi_and_changes_rate_bounds() {
        let cfg = RlCcaConfig::libra_rl();
        let agent = agent_for(&cfg, 1);
        let mut cca = RlCca::new(cfg, agent);
        cca.set_rate(Rate::from_mbps(5.0), Duration::from_millis(50)); // skip startup
        let r0 = cca.current_rate();
        for k in 0..20 {
            cca.on_mi(&mi(5.0 + k as f64, 50, 0.0));
        }
        assert_eq!(cca.decisions(), 20);
        let r = cca.current_rate();
        assert!(r >= Rate::from_kbps(80.0) && r <= Rate::from_mbps(400.0));
        // With exploration noise the rate must have moved at least once.
        assert_ne!(r0, r);
    }

    #[test]
    fn ack_starved_mi_skips_decision() {
        let cfg = RlCcaConfig::libra_rl();
        let agent = agent_for(&cfg, 2);
        let mut cca = RlCca::new(cfg, agent);
        cca.on_mi(&mi(5.0, 50, 0.0));
        let d = cca.decisions();
        let starved = MiStats::empty(Instant::from_millis(200));
        let r_before = cca.current_rate();
        cca.on_mi(&starved);
        assert_eq!(cca.decisions(), d, "no decision while starved");
        assert_eq!(cca.current_rate(), r_before, "rate held");
    }

    #[test]
    fn rewards_accumulate_in_agent_buffer() {
        let cfg = RlCcaConfig::libra_rl();
        let agent = agent_for(&cfg, 3);
        let mut cca = RlCca::new(cfg, Rc::clone(&agent));
        cca.set_rate(Rate::from_mbps(10.0), Duration::from_millis(50)); // skip startup
        for _ in 0..5 {
            cca.on_mi(&mi(10.0, 50, 0.0));
        }
        // First act has no completed predecessor: 4 transitions buffered.
        assert_eq!(agent.borrow().buffered(), 4);
    }

    #[test]
    fn mod_rl_uses_utility_reward() {
        let cfg = RlCcaConfig::mod_rl();
        let agent = agent_for(&cfg, 4);
        let mut cca = RlCca::new(cfg, Rc::clone(&agent));
        cca.set_rate(Rate::from_mbps(10.0), Duration::from_millis(50)); // skip startup
        cca.on_mi(&mi(10.0, 50, 0.0));
        cca.on_mi(&mi(10.0, 50, 0.0));
        // Utility of 10 Mbps clean MI = 10^0.9 ≈ 7.94.
        let total = agent.borrow().buffered_reward();
        assert!((total - 10f64.powf(0.9)).abs() < 0.2, "reward {total}");
    }

    #[test]
    fn cwnd_tracks_rate() {
        let cfg = RlCcaConfig::libra_rl();
        let agent = agent_for(&cfg, 5);
        let mut cca = RlCca::new(cfg, agent);
        cca.set_rate(Rate::from_mbps(10.0), Duration::from_millis(50));
        // Feed an ACK to set srtt.
        cca.on_ack(&libra_types::AckEvent {
            now: Instant::from_millis(100),
            seq: 0,
            bytes: 1500,
            rtt: Duration::from_millis(50),
            min_rtt: Duration::from_millis(50),
            srtt: Duration::from_millis(50),
            sent_at: Instant::from_millis(50),
            delivered_at_send: 0,
            delivered: 1500,
            in_flight: 0,
            app_limited: false,
        });
        // 10 Mbps × 100 ms = 125 kB.
        assert_eq!(cca.cwnd_bytes(), 125_000);
        assert_eq!(cca.pacing_rate(), Some(Rate::from_mbps(10.0)));
    }

    #[test]
    fn history_padding_cold_start() {
        let cfg = RlCcaConfig::libra_rl();
        let agent = agent_for(&cfg, 6);
        let mut cca = RlCca::new(cfg, agent);
        // One observed MI: the state vector is mostly zero padding but has
        // the right dimension (exercised through on_mi without panic).
        cca.on_mi(&mi(5.0, 50, 0.0));
        let mut state = Vec::new();
        cca.config.state.write_history(&cca.history, &mut state);
        assert_eq!(state.len(), StateSpace::libra().dim());
    }

    #[test]
    fn startup_doubles_then_halts_on_congestion() {
        let cfg = RlCcaConfig::libra_rl();
        let agent = agent_for(&cfg, 8);
        let mut cca = RlCca::new(cfg, agent);
        assert!(libra_types::CongestionControl::in_startup(&cca));
        let r0 = cca.current_rate().mbps();
        cca.on_mi(&mi(5.0, 41, 0.0)); // no congestion → double
        assert!((cca.current_rate().mbps() - 2.0 * r0).abs() < 1e-9);
        assert_eq!(cca.decisions(), 0, "agent idle during startup");
        // Congested MI (loss): exit startup with a halved rate.
        let before = cca.current_rate().mbps();
        cca.on_mi(&mi(10.0, 80, 0.1));
        assert!(!libra_types::CongestionControl::in_startup(&cca));
        assert!(cca.current_rate().mbps() <= before, "backed off");
    }

    #[test]
    fn non_finite_actions_are_rejected_and_counted() {
        let cfg = RlCcaConfig::libra_rl();
        let agent = agent_for(&cfg, 9);
        agent.borrow_mut().map_actor_params(|_| f64::NAN);
        agent.borrow_mut().set_eval(true);
        let mut cca = RlCca::new(cfg, agent);
        cca.set_rate(Rate::from_mbps(5.0), Duration::from_millis(50)); // skip startup
        let r0 = cca.current_rate();
        for _ in 0..4 {
            cca.on_mi(&mi(5.0, 50, 0.0));
        }
        assert_eq!(cca.invalid_actions(), 4);
        assert_eq!(cca.decisions(), 0, "no decision applied");
        assert_eq!(cca.current_rate(), r0, "rate held through NaN actions");
    }

    #[test]
    fn submit_resolve_matches_inline_on_mi_bitwise() {
        let cfg = RlCcaConfig::libra_rl();
        let a = agent_for(&cfg, 10);
        a.borrow_mut().set_eval(true);
        let b = agent_for(&cfg, 10);
        b.borrow_mut().set_eval(true);
        let mut inline = RlCca::new(cfg.clone(), a);
        let mut split = RlCca::new(cfg, Rc::clone(&b));
        inline.set_rate(Rate::from_mbps(5.0), Duration::from_millis(50));
        split.set_rate(Rate::from_mbps(5.0), Duration::from_millis(50));
        let mut state = Vec::new();
        for k in 0..10 {
            let stats = mi(5.0 + k as f64, 50, if k == 3 { 0.02 } else { 0.0 });
            inline.on_mi(&stats);
            assert!(split.mi_submit(&stats, &mut state), "submitted");
            // Stand-in for the policy server: eval inference on the
            // submitted state, fed back through resolve.
            let action = b.borrow_mut().act(&state);
            split.mi_resolve(&stats, &action);
        }
        assert_eq!(inline.decisions(), split.decisions());
        assert_eq!(
            inline.current_rate().mbps().to_bits(),
            split.current_rate().mbps().to_bits(),
            "split path must be bit-identical to inline"
        );
    }

    #[test]
    fn stale_ladder_bridges_then_escalates() {
        let cfg = RlCcaConfig::libra_rl();
        let agent = agent_for(&cfg, 11);
        agent.borrow_mut().set_eval(true);
        let mut cca = RlCca::new(cfg, agent);
        cca.set_rate(Rate::from_mbps(5.0), Duration::from_millis(50));
        // One healthy decision caches a last-good action.
        let stats = mi(5.0, 50, 0.0);
        assert!(cca.mi_submit(&stats, &mut Vec::new()));
        assert_eq!(cca.resolve(&[0.05]), Resolution::Applied);
        assert_eq!(cca.decisions(), 1);
        // Missing responses (empty action) ride the cached action for
        // `REPLAY_LIMIT` ticks without counting as invalid…
        for _ in 0..crate::ladder::REPLAY_LIMIT {
            assert!(cca.mi_submit(&stats, &mut Vec::new()));
            assert_eq!(cca.resolve(&[]), Resolution::Replayed);
            assert_eq!(cca.invalid_actions(), 0);
        }
        // …then the staleness bound trips and rejections escalate.
        assert!(cca.mi_submit(&stats, &mut Vec::new()));
        assert_eq!(cca.resolve(&[]), Resolution::Rejected);
        assert_eq!(cca.invalid_actions(), 1);
        // A fresh valid action re-arms the ladder.
        assert!(cca.mi_submit(&stats, &mut Vec::new()));
        assert_eq!(cca.resolve(&[0.02]), Resolution::Applied);
        assert!(cca.mi_submit(&stats, &mut Vec::new()));
        assert_eq!(cca.resolve(&[f64::NAN]), Resolution::Replayed);
        assert_eq!(cca.invalid_actions(), 1);
    }

    #[test]
    fn empty_and_wrong_dim_actions_do_not_panic() {
        // Pre-ladder, an empty action slice (a dropped policy response)
        // hit `action[0]` and panicked; wrong-dimension outputs applied
        // their first element silently. Both now land on the ladder.
        let cfg = RlCcaConfig::libra_rl();
        let agent = agent_for(&cfg, 12);
        let mut cca = RlCca::new(cfg, agent);
        cca.set_rate(Rate::from_mbps(5.0), Duration::from_millis(50));
        let r0 = cca.current_rate();
        let stats = mi(5.0, 50, 0.0);
        cca.mi_resolve(&stats, &[]);
        cca.mi_resolve(&stats, &[0.1, 0.2]);
        assert_eq!(cca.decisions(), 0);
        assert_eq!(cca.invalid_actions(), 2, "nothing cached: escalate");
        assert_eq!(cca.current_rate(), r0, "rate held");
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dimension_mismatch_is_rejected() {
        let cfg = RlCcaConfig::libra_rl();
        let wrong = RlCcaConfig::aurora(); // different state dim
        let agent = agent_for(&wrong, 7);
        let _ = RlCca::new(cfg, agent);
    }
}
