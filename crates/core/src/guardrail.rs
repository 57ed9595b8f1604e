//! Runtime guardrails for the learned arm.
//!
//! Libra's three-stage cycle assumes the RL component produces *sane*
//! decisions — an assumption that breaks when a policy network is
//! corrupted (NaN weights, exploding updates) or simply loses to the
//! classic arm cycle after cycle. This module tracks those symptoms and
//! trips **degraded mode**: decisions pin to the classic CCA while the
//! RL arm is benched, with an exponentially backed-off re-probe schedule
//! deciding when to let it act again.
//!
//! ```text
//!            consecutive invalid actions ≥ N
//!            or consecutive utility regressions ≥ M
//!   HEALTHY ────────────────────────────────────────▶ DEGRADED
//!      ▲                                                │ backoff MIs
//!      │            re-probe (validate + restore        │ elapse
//!      └──────────── PPO weights, resume cycle) ◀───────┘
//! ```
//!
//! Each failed re-probe doubles the next backoff up to a ceiling; a few
//! fully healthy cycles reset it.

use libra_types::{Duration, Instant};

/// Tunables of the guardrail state machine. All durations are counted in
/// monitor intervals (MIs) so behaviour scales with the path RTT exactly
/// like the control cycle itself.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuardrailParams {
    /// Consecutive rejected (non-finite) RL actions that trip degraded
    /// mode.
    pub max_invalid_actions: u32,
    /// Consecutive cycles with the learned arm's measured utility below
    /// the classic arm's that trip degraded mode.
    pub max_utility_regressions: u32,
    /// Length of the first degraded period, in MIs.
    pub backoff_initial_mis: u32,
    /// Multiplier applied to the backoff after every trip.
    pub backoff_factor: u32,
    /// Ceiling on the backoff, in MIs.
    pub backoff_max_mis: u32,
    /// Fully healthy cycles after a re-probe before the backoff resets
    /// to its initial value.
    pub recovery_cycles: u32,
    /// L2-norm bound above which PPO weights count as corrupt (checked
    /// at every re-probe).
    pub weight_norm_bound: f64,
}

impl Default for GuardrailParams {
    fn default() -> Self {
        GuardrailParams {
            max_invalid_actions: 3,
            max_utility_regressions: 8,
            backoff_initial_mis: 8,
            backoff_factor: 2,
            backoff_max_mis: 256,
            recovery_cycles: 4,
            weight_norm_bound: libra_rl::WEIGHT_NORM_BOUND,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum State {
    Healthy,
    Degraded { mis_left: u32 },
}

/// The guardrail state machine; owned by [`crate::Libra`], one per flow.
#[derive(Debug)]
pub struct Guardrail {
    params: GuardrailParams,
    state: State,
    consecutive_invalid: u32,
    consecutive_regressions: u32,
    next_backoff_mis: u32,
    healthy_cycles: u32,
    trips: u64,
    reprobes: u64,
    degraded_since: Option<Instant>,
    degraded_total: Duration,
}

impl Guardrail {
    /// A healthy guardrail with the given tunables.
    pub fn new(params: GuardrailParams) -> Self {
        Guardrail {
            params,
            state: State::Healthy,
            consecutive_invalid: 0,
            consecutive_regressions: 0,
            next_backoff_mis: params.backoff_initial_mis.max(1),
            healthy_cycles: 0,
            trips: 0,
            reprobes: 0,
            degraded_since: None,
            degraded_total: Duration::ZERO,
        }
    }

    /// Is the RL arm currently benched?
    pub fn is_degraded(&self) -> bool {
        matches!(self.state, State::Degraded { .. })
    }

    /// Times degraded mode was entered.
    pub fn trips(&self) -> u64 {
        self.trips
    }

    /// Times the RL arm was re-probed after a degraded period.
    pub fn reprobes(&self) -> u64 {
        self.reprobes
    }

    /// Total time spent degraded, including a still-open episode up to
    /// `now`.
    pub fn degraded_time(&self, now: Instant) -> Duration {
        match self.degraded_since {
            Some(since) => self.degraded_total + now.saturating_since(since),
            None => self.degraded_total,
        }
    }

    /// Record `delta` rejected RL actions observed since the last call
    /// (see [`libra_learned::Resolution::Rejected`]); a clean interval
    /// resets the streak. Returns `true` when this tripped degraded mode.
    pub fn on_invalid_actions(&mut self, now: Instant, delta: u64) -> bool {
        if self.is_degraded() {
            return false;
        }
        if delta == 0 {
            self.consecutive_invalid = 0;
            return false;
        }
        self.consecutive_invalid = self
            .consecutive_invalid
            .saturating_add(delta.min(u32::MAX as u64) as u32);
        if self.consecutive_invalid < self.params.max_invalid_actions {
            return false;
        }
        self.trip(now);
        true
    }

    /// Record one completed control cycle's measured utilities. A cycle
    /// where the learned arm measurably loses to the classic arm counts
    /// toward the regression streak; a cycle where it holds its own
    /// resets the streak. Returns `true` when this tripped degraded mode.
    pub fn on_cycle(
        &mut self,
        now: Instant,
        u_learned: Option<f64>,
        u_classic: Option<f64>,
    ) -> bool {
        if self.is_degraded() {
            return false;
        }
        match (u_learned, u_classic) {
            (Some(l), Some(c)) if l < c => {
                self.consecutive_regressions += 1;
                if self.consecutive_regressions >= self.params.max_utility_regressions {
                    self.trip(now);
                    return true;
                }
            }
            (Some(_), Some(_)) => self.consecutive_regressions = 0,
            // Missing feedback is evidence of nothing.
            _ => {}
        }
        self.healthy_cycles += 1;
        if self.healthy_cycles >= self.params.recovery_cycles {
            self.next_backoff_mis = self.params.backoff_initial_mis.max(1);
        }
        false
    }

    /// Tick once per monitor interval while degraded. Returns `true`
    /// exactly when the backoff has elapsed and the RL arm should be
    /// re-probed.
    pub fn tick_degraded(&mut self, now: Instant) -> bool {
        let State::Degraded { mis_left } = &mut self.state else {
            return false;
        };
        if *mis_left > 1 {
            *mis_left -= 1;
            return false;
        }
        self.reprobes += 1;
        if let Some(since) = self.degraded_since.take() {
            self.degraded_total += now.saturating_since(since);
        }
        self.state = State::Healthy;
        self.consecutive_invalid = 0;
        self.consecutive_regressions = 0;
        self.healthy_cycles = 0;
        true
    }

    fn trip(&mut self, now: Instant) {
        self.trips += 1;
        self.state = State::Degraded {
            mis_left: self.next_backoff_mis,
        };
        self.next_backoff_mis = self
            .next_backoff_mis
            .saturating_mul(self.params.backoff_factor.max(1))
            .min(self.params.backoff_max_mis.max(1));
        self.degraded_since = Some(now);
        self.consecutive_invalid = 0;
        self.consecutive_regressions = 0;
        self.healthy_cycles = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(ms: u64) -> Instant {
        Instant::from_millis(ms)
    }

    #[test]
    fn invalid_action_streak_trips() {
        let mut g = Guardrail::new(GuardrailParams::default());
        assert!(!g.on_invalid_actions(at(10), 1));
        assert!(!g.on_invalid_actions(at(20), 1));
        assert!(!g.is_degraded());
        assert!(g.on_invalid_actions(at(30), 1), "the third rejection trips");
        assert!(g.is_degraded());
        assert!(!g.on_invalid_actions(at(40), 1), "already degraded");
        assert_eq!(g.trips(), 1);
    }

    #[test]
    fn clean_interval_resets_invalid_streak() {
        let mut g = Guardrail::new(GuardrailParams::default());
        g.on_invalid_actions(at(10), 2);
        g.on_invalid_actions(at(20), 0); // healthy MI
        g.on_invalid_actions(at(30), 2);
        assert!(!g.is_degraded(), "streak must reset on a clean interval");
    }

    #[test]
    fn regression_streak_trips_and_healthy_cycle_resets() {
        let params = GuardrailParams {
            max_utility_regressions: 3,
            ..GuardrailParams::default()
        };
        let mut g = Guardrail::new(params);
        g.on_cycle(at(10), Some(1.0), Some(2.0));
        g.on_cycle(at(20), Some(1.0), Some(2.0));
        g.on_cycle(at(30), Some(3.0), Some(2.0)); // learned wins: reset
        g.on_cycle(at(40), Some(1.0), Some(2.0));
        assert!(!g.on_cycle(at(50), Some(1.0), Some(2.0)));
        assert!(!g.is_degraded());
        assert!(
            g.on_cycle(at(60), Some(1.0), Some(2.0)),
            "the third regression trips"
        );
        assert!(g.is_degraded());
    }

    #[test]
    fn missing_feedback_is_neutral() {
        let params = GuardrailParams {
            max_utility_regressions: 2,
            ..GuardrailParams::default()
        };
        let mut g = Guardrail::new(params);
        g.on_cycle(at(10), Some(1.0), Some(2.0));
        g.on_cycle(at(20), None, Some(2.0));
        g.on_cycle(at(30), Some(1.0), None);
        assert!(!g.is_degraded(), "streak holds but does not grow");
        g.on_cycle(at(40), Some(1.0), Some(2.0));
        assert!(g.is_degraded());
    }

    #[test]
    fn backoff_doubles_per_trip_and_caps() {
        let params = GuardrailParams {
            max_invalid_actions: 1,
            backoff_initial_mis: 2,
            backoff_factor: 2,
            backoff_max_mis: 4,
            ..GuardrailParams::default()
        };
        let mut g = Guardrail::new(params);
        let mut now = 0;
        let mut degraded_lengths = Vec::new();
        for _ in 0..3 {
            now += 10;
            g.on_invalid_actions(at(now), 1);
            assert!(g.is_degraded());
            let mut ticks = 0;
            loop {
                now += 10;
                ticks += 1;
                if g.tick_degraded(at(now)) {
                    break;
                }
            }
            degraded_lengths.push(ticks);
        }
        assert_eq!(degraded_lengths, vec![2, 4, 4], "2 → 4 → capped at 4");
        assert_eq!(g.trips(), 3);
        assert_eq!(g.reprobes(), 3);
    }

    #[test]
    fn recovery_cycles_reset_the_backoff() {
        let params = GuardrailParams {
            max_invalid_actions: 1,
            backoff_initial_mis: 2,
            backoff_factor: 2,
            backoff_max_mis: 64,
            recovery_cycles: 2,
            ..GuardrailParams::default()
        };
        let mut g = Guardrail::new(params);
        g.on_invalid_actions(at(10), 1);
        while !g.tick_degraded(at(20)) {}
        // Two healthy cycles: backoff back to initial.
        g.on_cycle(at(30), Some(2.0), Some(1.0));
        g.on_cycle(at(40), Some(2.0), Some(1.0));
        g.on_invalid_actions(at(50), 1);
        let mut ticks = 0;
        while !g.tick_degraded(at(60)) {
            ticks += 1;
        }
        assert_eq!(ticks + 1, 2, "second episode back at the initial backoff");
    }

    #[test]
    fn degraded_time_accumulates_across_episodes() {
        let params = GuardrailParams {
            max_invalid_actions: 1,
            backoff_initial_mis: 1,
            ..GuardrailParams::default()
        };
        let mut g = Guardrail::new(params);
        assert_eq!(g.degraded_time(at(5)), Duration::ZERO);
        g.on_invalid_actions(at(10), 1);
        // Open episode counts up to `now`.
        assert_eq!(g.degraded_time(at(15)), Duration::from_millis(5));
        assert!(g.tick_degraded(at(20)));
        assert_eq!(g.degraded_time(at(100)), Duration::from_millis(10));
        // The second episode's backoff has doubled to two MIs.
        g.on_invalid_actions(at(110), 1);
        assert!(!g.tick_degraded(at(115)));
        assert!(g.tick_degraded(at(120)));
        assert_eq!(g.degraded_time(at(200)), Duration::from_millis(20));
    }

    #[test]
    fn observations_while_degraded_are_ignored() {
        let params = GuardrailParams {
            max_invalid_actions: 1,
            backoff_initial_mis: 4,
            ..GuardrailParams::default()
        };
        let mut g = Guardrail::new(params);
        g.on_invalid_actions(at(10), 1);
        assert_eq!(g.trips(), 1);
        g.on_invalid_actions(at(20), 5);
        g.on_cycle(at(30), Some(0.0), Some(9.0));
        assert_eq!(g.trips(), 1, "no double-tripping while already degraded");
    }
}
