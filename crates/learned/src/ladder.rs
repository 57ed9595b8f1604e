//! The degradation ladder: every defence between a learned arm's output
//! and the link, as one state machine per [`RlCca`](crate::RlCca).
//!
//! The arm's output is untrusted: a policy response may not arrive, may
//! have the wrong shape or be non-finite, and a policy that was fine in
//! training may lose to the classic arm cycle after cycle. The rungs:
//!
//! 1. a valid action (one finite value) is applied and cached as the
//!    last good one;
//! 2. a missing or invalid action replays the last good one, for up to
//!    [`REPLAY_LIMIT`] ticks in a row;
//! 3. past that, or with nothing cached, the action is rejected and
//!    counted;
//! 4. [`MAX_REJECTIONS`] rejections in a row, or [`MAX_REGRESSIONS`]
//!    decided cycles in a row where the learned arm scored below the
//!    classic one, bench the arm;
//! 5. a benched arm sits out [`BACKOFF_INITIAL_MIS`]·2ᵏ monitor
//!    intervals, capped at [`BACKOFF_MAX_MIS`], where `k` counts the trips
//!    since the backoff last reset; [`RECOVERY_CYCLES`] decided cycles
//!    after a trip or re-probe, won or lost, reset it;
//! 6. when the backoff has elapsed the arm is re-probed: its agent's
//!    weights are validated and, if corrupt, restored from the last
//!    good snapshot.
//!
//! ```text
//!            3 rejections in a row
//!            or 8 lost cycles in a row
//!   PLAYING ─────────────────────────────▶ BENCHED
//!      ▲                                     │ 8·2ᵏ MIs (≤ 256)
//!      │     re-probe: validate_or_restore   │ elapse
//!      └─────────────────────────────────────┘
//! ```
//!
//! Rungs 1–3 act on every resolve. Only an arbiter with another arm to
//! fall back to reads the bench: Libra reports each decided cycle
//! ([`RlCca::on_cycle`](crate::RlCca::on_cycle)), asks
//! [`Ladder::benched`], and while benched runs its classic arm and ticks
//! [`RlCca::tick_bench`](crate::RlCca::tick_bench) once per MI. A
//! standalone learned flow (Aurora, Mod. RL) has no such arbiter, so
//! nothing reads or ticks its bench.

use libra_rl::PpoAgent;
use std::cell::RefCell;

/// Missing or invalid responses in a row that replay the last good
/// action before rejections start.
pub const REPLAY_LIMIT: u8 = 8;
/// Rejected actions in a row that bench the arm.
pub const MAX_REJECTIONS: u8 = 3;
/// Decided cycles in a row with the learned arm's utility below the
/// classic arm's that bench the arm.
pub const MAX_REGRESSIONS: u8 = 8;
/// Length of the first bench, in monitor intervals.
pub const BACKOFF_INITIAL_MIS: u16 = 8;
/// Factor by which each trip lengthens the next bench.
pub const BACKOFF_FACTOR: u16 = 2;
/// Ceiling on a bench, in monitor intervals.
pub const BACKOFF_MAX_MIS: u16 = 256;
/// Decided cycles after a trip or re-probe that reset the backoff.
pub const RECOVERY_CYCLES: u8 = 4;

/// Which rung took a policy action ([`RlCca::resolve`](crate::RlCca::resolve)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resolution {
    /// A valid action, applied and cached as the last good one.
    Applied,
    /// A missing or invalid action bridged by replaying the last good one.
    Replayed,
    /// A missing or invalid action with no replay left; counted in
    /// [`Ladder::invalid_actions`].
    Rejected,
}

/// The ladder's state; owned by an [`RlCca`](crate::RlCca).
///
/// Packed into 32 bytes: every flow's `RlCca` carries one, and at 24
/// more bytes per flow a 1 000-flow Aurora fleet's peak RSS read ≈ 2 %
/// (0.2 MiB) higher, far more than the 24 kB themselves.
#[derive(Debug)]
pub struct Ladder {
    /// The last valid action (NaN before the first: a valid action is
    /// finite) and how many ticks in a row it has been replayed.
    last_good: f64,
    replayed: u8,
    rejections: u8,
    regressions: u8,
    /// Cycles decided since the last trip or re-probe, won or lost
    /// (saturating: only the first [`RECOVERY_CYCLES`] matter).
    cycles_played: u8,
    /// Monitor intervals left on the bench; 0 while the arm plays.
    bench_mis: u16,
    next_backoff_mis: u16,
    invalid_actions: u64,
    trips: u64,
}

impl Default for Ladder {
    fn default() -> Self {
        Ladder {
            last_good: f64::NAN,
            replayed: 0,
            rejections: 0,
            regressions: 0,
            cycles_played: 0,
            bench_mis: 0,
            next_backoff_mis: BACKOFF_INITIAL_MIS,
            invalid_actions: 0,
            trips: 0,
        }
    }
}

impl Ladder {
    /// Is the arm benched?
    pub fn benched(&self) -> bool {
        self.bench_mis > 0
    }

    /// Times the arm was benched.
    pub fn trips(&self) -> u64 {
        self.trips
    }

    /// Actions rejected (rung 3).
    pub fn invalid_actions(&self) -> u64 {
        self.invalid_actions
    }

    /// Rungs 1–4 for one policy response: the rung that took it and the
    /// action to apply (`None` when rejected).
    pub(crate) fn resolve(&mut self, action: &[f64]) -> (Resolution, Option<f64>) {
        // A NaN/inf action means the policy network is corrupt; a wrong
        // dimension or an empty slice means the serving boundary failed.
        let taken = match action {
            &[a] if a.is_finite() => {
                self.last_good = a;
                self.replayed = 0;
                (Resolution::Applied, Some(a))
            }
            _ if self.last_good.is_finite() && self.replayed < REPLAY_LIMIT => {
                self.replayed += 1;
                (Resolution::Replayed, Some(self.last_good))
            }
            _ => {
                self.invalid_actions += 1;
                (Resolution::Rejected, None)
            }
        };
        if !self.benched() {
            if taken.0 == Resolution::Rejected {
                self.rejections += 1;
                if self.rejections >= MAX_REJECTIONS {
                    self.bench();
                }
            } else {
                self.rejections = 0;
            }
        }
        taken
    }

    /// Rung 4's other trigger: one decided cycle's measured utilities.
    /// A cycle the learned arm measurably loses extends the regression
    /// streak, one it holds its own in ends it, and one with either
    /// measurement missing is evidence of nothing. Every cycle that does
    /// not bench the arm counts toward [`RECOVERY_CYCLES`], lost ones
    /// included.
    pub(crate) fn on_cycle(&mut self, u_learned: Option<f64>, u_classic: Option<f64>) {
        if self.benched() {
            return;
        }
        match (u_learned, u_classic) {
            (Some(l), Some(c)) if l < c => {
                self.regressions += 1;
                if self.regressions >= MAX_REGRESSIONS {
                    self.bench();
                    return;
                }
            }
            (Some(_), Some(_)) => self.regressions = 0,
            _ => {}
        }
        self.cycles_played = self.cycles_played.saturating_add(1);
        if self.cycles_played >= RECOVERY_CYCLES {
            self.next_backoff_mis = BACKOFF_INITIAL_MIS;
        }
    }

    /// One monitor interval on the bench. `None` while the backoff runs;
    /// `Some(restored)` when it has elapsed and the arm is re-probed
    /// (rung 6) and plays again, `restored` saying whether `agent`'s
    /// weights were corrupt and rolled back to its last good snapshot.
    pub(crate) fn tick_bench(&mut self, agent: &RefCell<PpoAgent>) -> Option<bool> {
        if self.bench_mis > 1 {
            self.bench_mis -= 1;
            return None;
        }
        self.bench_mis = 0;
        self.rejections = 0;
        self.regressions = 0;
        self.cycles_played = 0;
        let mut agent = agent.borrow_mut();
        let restores = agent.weight_restores();
        agent.validate_or_restore();
        Some(agent.weight_restores() > restores)
    }

    fn bench(&mut self) {
        self.trips += 1;
        self.bench_mis = self.next_backoff_mis;
        self.next_backoff_mis = (self.next_backoff_mis * BACKOFF_FACTOR).min(BACKOFF_MAX_MIS);
        self.rejections = 0;
        self.regressions = 0;
        self.cycles_played = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use libra_rl::PpoConfig;
    use libra_types::DetRng;

    fn agent() -> RefCell<PpoAgent> {
        RefCell::new(PpoAgent::new(PpoConfig::new(4, 1), &mut DetRng::new(1)))
    }

    fn reject(l: &mut Ladder, n: u8) {
        for _ in 0..n {
            assert_eq!(l.resolve(&[]).0, Resolution::Rejected);
        }
    }

    /// Ticks on the bench until the re-probe, the re-probing one included.
    fn sit_out(l: &mut Ladder, agent: &RefCell<PpoAgent>) -> u16 {
        let mut ticks = 1;
        while l.tick_bench(agent).is_none() {
            ticks += 1;
        }
        ticks
    }

    #[test]
    fn invalid_action_streak_trips() {
        let mut l = Ladder::default();
        reject(&mut l, MAX_REJECTIONS - 1);
        assert!(!l.benched());
        reject(&mut l, 1);
        assert!(l.benched(), "the third rejection in a row trips");
        reject(&mut l, 1);
        assert_eq!(l.trips(), 1, "already benched");
        assert_eq!(l.invalid_actions(), 4);
    }

    #[test]
    fn clean_interval_resets_invalid_streak() {
        let mut l = Ladder::default();
        reject(&mut l, 2);
        assert_eq!(l.resolve(&[0.1]), (Resolution::Applied, Some(0.1)));
        // A replay is not a rejection either.
        for _ in 0..REPLAY_LIMIT {
            assert_eq!(l.resolve(&[f64::NAN]), (Resolution::Replayed, Some(0.1)));
        }
        reject(&mut l, 2);
        assert!(!l.benched(), "streak must reset on a taken action");
    }

    #[test]
    fn replays_are_bounded_then_rejected() {
        let mut l = Ladder::default();
        l.resolve(&[0.3]);
        for _ in 0..REPLAY_LIMIT {
            assert_eq!(l.resolve(&[0.1, 0.2]), (Resolution::Replayed, Some(0.3)));
        }
        assert_eq!(l.resolve(&[]), (Resolution::Rejected, None));
        assert_eq!(l.invalid_actions(), 1);
    }

    #[test]
    fn regression_streak_trips_and_healthy_cycle_resets() {
        let mut l = Ladder::default();
        for _ in 0..MAX_REGRESSIONS - 1 {
            l.on_cycle(Some(1.0), Some(2.0));
        }
        l.on_cycle(Some(3.0), Some(2.0)); // learned wins: reset
        for _ in 0..MAX_REGRESSIONS - 1 {
            l.on_cycle(Some(1.0), Some(2.0));
        }
        assert!(!l.benched());
        l.on_cycle(Some(1.0), Some(2.0));
        assert!(l.benched(), "the eighth regression in a row trips");
    }

    #[test]
    fn missing_feedback_is_neutral() {
        let mut l = Ladder::default();
        for _ in 0..MAX_REGRESSIONS - 1 {
            l.on_cycle(Some(1.0), Some(2.0));
        }
        l.on_cycle(None, Some(2.0));
        l.on_cycle(Some(1.0), None);
        assert!(!l.benched(), "streak holds but does not grow");
        l.on_cycle(Some(1.0), Some(2.0));
        assert!(l.benched());
    }

    #[test]
    fn backoff_doubles_per_trip_and_caps() {
        let (mut l, agent) = (Ladder::default(), agent());
        let benches: Vec<u16> = (0..7)
            .map(|_| {
                reject(&mut l, MAX_REJECTIONS);
                sit_out(&mut l, &agent)
            })
            .collect();
        assert_eq!(benches, [8, 16, 32, 64, 128, 256, 256]);
        assert_eq!(l.trips(), 7);
    }

    #[test]
    fn recovery_cycles_reset_the_backoff() {
        let (mut l, agent) = (Ladder::default(), agent());
        reject(&mut l, MAX_REJECTIONS);
        sit_out(&mut l, &agent);
        for _ in 0..RECOVERY_CYCLES {
            l.on_cycle(Some(2.0), Some(1.0));
        }
        reject(&mut l, MAX_REJECTIONS);
        assert_eq!(sit_out(&mut l, &agent), BACKOFF_INITIAL_MIS);
    }

    /// The recovery rule as it stands: a lost cycle counts toward the
    /// reset like a won one. A regression trip needs eight lost cycles,
    /// the reset four, so every regression trip benches for the initial
    /// backoff, however often it recurs.
    #[test]
    fn lost_cycles_count_toward_recovery() {
        let (mut l, agent) = (Ladder::default(), agent());
        let benches: Vec<u16> = (0..3)
            .map(|_| {
                for _ in 0..MAX_REGRESSIONS {
                    l.on_cycle(Some(1.0), Some(2.0));
                }
                assert!(l.benched());
                sit_out(&mut l, &agent)
            })
            .collect();
        assert_eq!(benches, [BACKOFF_INITIAL_MIS; 3]);
    }

    #[test]
    fn observations_while_degraded_are_ignored() {
        let mut l = Ladder::default();
        reject(&mut l, MAX_REJECTIONS);
        reject(&mut l, 5);
        for _ in 0..MAX_REGRESSIONS {
            l.on_cycle(Some(0.0), Some(9.0));
        }
        assert_eq!(l.trips(), 1, "no double-tripping while already benched");
    }

    #[test]
    fn reprobe_restores_corrupt_weights() {
        let (mut l, agent) = (Ladder::default(), agent());
        reject(&mut l, MAX_REJECTIONS);
        agent.borrow_mut().snapshot_good();
        agent.borrow_mut().map_actor_params(|_| f64::NAN);
        assert_eq!(sit_out(&mut l, &agent), BACKOFF_INITIAL_MIS);
        assert!(!l.benched());
        assert!(agent.borrow().weights_valid());
        // Healthy weights: the next re-probe restores nothing.
        reject(&mut l, MAX_REJECTIONS);
        while l.benched() {
            assert_ne!(l.tick_bench(&agent), Some(true));
        }
    }
}
