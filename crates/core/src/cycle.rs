//! Alg. 1 as plain data: the three-stage control cycle, apart from the
//! arms it arbitrates.
//!
//! ```text
//!        ┌────────────── one control cycle ──────────────────┐
//!        │ EXPLORE (k RTT)   EVAL (2 EIs)    EXPLOIT (k RTT) │
//! rate:  │ classic from      x_lo then x_hi  x_prev          │
//!        │ base x_prev       (lower first)                   │
//!        │ RL acts per MI                                    │
//!        └───────────────────────────────────────────────────┘
//! ```
//!
//! * **Exploration** — the applied rate follows the classic CCA's per-ACK
//!   updates starting from the base rate `x_prev`; the RL component makes
//!   per-MI decisions as a backup. Exploration exits early when the two
//!   candidates diverge by more than `switch_frac × x_prev`.
//! * **Evaluation** — the two candidate rates are each applied for one
//!   evaluation interval, *lower rate first* to avoid the self-inflicted
//!   side effect of Fig. 4; the exploration stage's statistics are folded
//!   into `u(x_prev)`.
//! * **Exploitation** — the sender returns to `x_prev` while the
//!   candidates' ACKs arrive; the first two exploitation MIs carry the
//!   feedback of the two evaluation intervals (one RTT late), and at the
//!   end of the stage the candidate with the highest utility becomes the
//!   next cycle's base rate.
//!
//! [`Cycle`] holds only that machine. It never touches a controller: each
//! closed MI goes in with what the arms currently propose ([`Arms`]), and
//! out comes what the sender must do ([`CycleOutput`]). So a cycle can be
//! cloned, compared and driven through every input sequence without a
//! simulation; [`crate::Libra`] is the adapter that feeds it from live
//! arms.

use crate::accounting::{CycleLog, CycleRecord};
use crate::params::{EvalOrder, LibraParams};
use libra_types::trace::{CandidateKind, TraceStage};
use libra_types::{Instant, MiStats, Rate, UtilityParams};

/// RTT-gradient noise floor for the evaluation stage's utility inputs.
///
/// With β = 900, a measurement-noise gradient of ±0.002 already swings
/// the utility by more than the whole throughput term, turning candidate
/// selection into a coin flip (and, because the RL candidate can propose
/// ×½ while the classic proposes at most ×1.25, a coin flip is an
/// exponentially *collapsing* random walk). The kernel implementation
/// reads its gradient from the smoothed RTT, which denoises implicitly;
/// here small measured slopes are clamped to zero before Eq. 1. Real
/// congestion produces gradients of ≈(S−C)/C ≈ 0.1–0.3, far above the
/// floor.
pub const GRAD_NOISE_FLOOR: f64 = 0.01;

fn denoise_gradient(g: f64) -> f64 {
    if g.abs() < GRAD_NOISE_FLOOR {
        0.0
    } else {
        g
    }
}

/// Where the cycle stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Follow the classic CCA's startup (slow start / BBR STARTUP).
    Startup,
    /// Exploration; counts remaining EI-sized ticks.
    Explore { ticks_left: u32 },
    /// Evaluation; `index` is the candidate slot being applied.
    Eval { index: usize },
    /// Exploitation; `tick` counts from 0.
    Exploit { tick: u32 },
}

/// One evaluated candidate: who proposed it, at what rate, and what its
/// evaluation interval yielded.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slot {
    /// Which arm proposed the rate.
    pub kind: CandidateKind,
    /// The rate applied during its evaluation interval.
    pub rate: Rate,
    /// Whether that interval put data on the wire. Exploitation feedback
    /// for a candidate whose EI sent nothing (blackout, pacer stall)
    /// describes *other* traffic and is rejected, keeping the
    /// tick→slot mapping honest.
    pub sent: bool,
    /// Utility measured from its exploitation-stage feedback; `None`
    /// when the feedback was missing or non-finite.
    pub utility: Option<f64>,
}

impl Slot {
    const fn new(kind: CandidateKind, rate: Rate) -> Slot {
        Slot {
            kind,
            rate,
            sent: false,
            utility: None,
        }
    }
}

/// One evaluation's candidates — the RL arm's, and the classic arm's
/// unless the controller is Clean-Slate — in evaluation order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidates {
    slots: [Slot; 2],
    len: usize,
}

impl Candidates {
    const NONE: Candidates = Candidates {
        slots: [Slot::new(CandidateKind::Prev, Rate::ZERO); 2],
        len: 0,
    };

    /// The candidates in evaluation order.
    pub fn as_slice(&self) -> &[Slot] {
        &self.slots[..self.len]
    }
}

/// What the arms propose when an MI closes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arms {
    /// The classic arm's gain-stripped rate estimate; `None` for
    /// Clean-Slate Libra.
    pub x_cl: Option<Rate>,
    /// Whether the classic arm is still in its startup phase.
    pub classic_startup: bool,
    /// The RL arm's current rate (after this MI's action, if it acted).
    pub x_rl: Rate,
}

/// What one closed MI did to the cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CycleOutput {
    /// The rate the sender applies from now on; `None`: follow the
    /// classic arm (see [`Cycle::apply`]).
    pub apply: Option<Rate>,
    /// The stage the cycle moved into, if it moved. Entering
    /// exploration begins a cycle: both arms restart from
    /// [`Cycle::base`].
    pub entered: Option<TraceStage>,
    /// The decision, when this MI closed a cycle, with the candidates
    /// it weighed.
    pub decided: Option<(CycleRecord, Candidates)>,
}

/// Aggregate several exploration MIs into the statistics behind
/// `u(x_prev)`.
#[derive(Debug, Clone, Default, PartialEq)]
struct ExploreAgg {
    sent_bytes: u64,
    lost_bytes: u64,
    acked_bytes: u64,
    secs: f64,
    /// Σ gradient × duration; `secs` is its weight.
    grad_weighted: f64,
}

impl ExploreAgg {
    fn add(&mut self, mi: &MiStats) {
        let d = mi.duration().as_secs_f64();
        self.sent_bytes += mi.sent_bytes;
        self.lost_bytes += mi.lost_bytes;
        self.acked_bytes += mi.acked_bytes;
        self.secs += d;
        self.grad_weighted += mi.rtt_gradient * d;
    }

    fn utility(&self, params: &UtilityParams) -> Option<f64> {
        if self.acked_bytes == 0 || self.secs <= 0.0 {
            return None;
        }
        let rate_mbps = self.sent_bytes as f64 * 8.0 / self.secs / 1e6;
        let grad = denoise_gradient(self.grad_weighted / self.secs);
        let loss = self.lost_bytes as f64 / (self.acked_bytes + self.lost_bytes) as f64;
        Some(params.evaluate(rate_mbps, grad, loss))
    }
}

/// The explore → evaluate → exploit machine of Alg. 1.
#[derive(Debug, Clone, PartialEq)]
pub struct Cycle {
    params: LibraParams,
    stage: Stage,
    /// Whether the current evaluation began by the divergence rule.
    early_exit: bool,
    x_prev: Rate,
    /// This cycle's candidates, once it reaches evaluation.
    candidates: Candidates,
    u_prev: Option<f64>,
    explore: ExploreAgg,
    log: CycleLog,
}

impl Cycle {
    /// A cycle in startup, at Libra's 2 Mbps initial base rate.
    pub fn new(params: LibraParams) -> Cycle {
        Cycle {
            params,
            stage: Stage::Startup,
            early_exit: false,
            x_prev: Rate::from_mbps(2.0),
            candidates: Candidates::NONE,
            u_prev: None,
            explore: ExploreAgg::default(),
            log: CycleLog::new(),
        }
    }

    /// The cycle parameters.
    pub fn params(&self) -> &LibraParams {
        &self.params
    }

    /// The current stage.
    pub fn stage(&self) -> Stage {
        self.stage
    }

    /// The base rate `x_prev`.
    pub fn base(&self) -> Rate {
        self.x_prev
    }

    /// Place the base rate from outside (degraded mode tracking the
    /// classic arm, or a host re-base).
    pub fn set_base(&mut self, rate: Rate) {
        self.x_prev = rate;
    }

    /// Every completed cycle's record.
    pub fn log(&self) -> &CycleLog {
        &self.log
    }

    /// This cycle's candidates in evaluation order (none before
    /// evaluation).
    pub fn candidates(&self) -> &[Slot] {
        self.candidates.as_slice()
    }

    /// Whether the RL arm acts on this MI: only exploration consults it
    /// (the source of Libra's overhead reduction, Remark 5).
    pub fn queries_rl(&self) -> bool {
        matches!(self.stage, Stage::Explore { .. })
    }

    /// The rate the sender applies in the current stage: a candidate
    /// during evaluation, `x_prev` during exploitation, and `None` —
    /// follow the classic arm's own pacing — in startup and exploration.
    pub fn apply(&self) -> Option<Rate> {
        match self.stage {
            Stage::Startup | Stage::Explore { .. } => None,
            Stage::Eval { index } => Some(self.candidates.slots[index].rate),
            Stage::Exploit { .. } => Some(self.x_prev),
        }
    }

    /// Start a new cycle from the base rate: clear the last cycle's
    /// measurements and enter exploration. The caller re-bases the arms.
    pub fn begin(&mut self) {
        self.explore = ExploreAgg::default();
        self.candidates = Candidates::NONE;
        self.u_prev = None;
        self.early_exit = false;
        let ticks_left = self.params.explore_ticks();
        self.stage = Stage::Explore { ticks_left };
    }

    /// Advance by one closed MI, given what the arms propose now.
    pub fn advance(&mut self, mi: &MiStats, arms: Arms) -> CycleOutput {
        let mut entered = None;
        let mut decided = None;
        match self.stage {
            Stage::Startup => {
                let done = match arms.x_cl {
                    Some(_) => !arms.classic_startup,
                    None => !mi.is_ack_starved(),
                };
                if done {
                    self.x_prev = arms
                        .x_cl
                        .unwrap_or_else(|| mi.delivery_rate.max(Rate::from_mbps(1.0)));
                    self.begin();
                    entered = Some(TraceStage::Explore);
                }
            }
            Stage::Explore { ticks_left } => {
                // An ACK-starved MI carries no feedback for u(x_prev)
                // (Sec. 3's no-ACK rule).
                if !mi.is_ack_starved() {
                    self.explore.add(mi);
                }
                let th = self.x_prev.scale(self.params.switch_frac);
                let diverged = arms
                    .x_cl
                    .is_some_and(|x_cl| x_cl.abs_diff(arms.x_rl) >= th && !th.is_zero());
                if diverged || ticks_left <= 1 {
                    self.early_exit = diverged;
                    self.enter_eval(arms);
                    entered = Some(TraceStage::Eval);
                } else {
                    let ticks_left = ticks_left - 1;
                    self.stage = Stage::Explore { ticks_left };
                }
            }
            Stage::Eval { index } => {
                // This MI applied slot `index`; its feedback arrives during
                // exploitation. The index advances exactly once per
                // evaluation MI — also for a starved one, to keep the
                // positional tick→slot mapping.
                self.candidates.slots[index].sent = mi.sent_bytes > 0;
                if index + 1 < self.candidates.len {
                    self.stage = Stage::Eval { index: index + 1 };
                } else {
                    self.stage = Stage::Exploit { tick: 0 };
                    entered = Some(TraceStage::Exploit);
                }
            }
            Stage::Exploit { tick } => {
                // Exploitation MIs 0..n carry the candidates' feedback
                // (their ACKs arrive one RTT after the EIs); a non-finite
                // utility is missing feedback, not a value.
                let idx = tick as usize;
                let live = &mut self.candidates.slots[..self.candidates.len];
                if let Some(slot) = live.get_mut(idx).filter(|s| s.sent && !mi.is_ack_starved()) {
                    let u = self.params.utility.evaluate(
                        slot.rate.mbps(),
                        denoise_gradient(mi.rtt_gradient),
                        mi.loss_rate,
                    );
                    if u.is_finite() {
                        slot.utility = Some(u);
                    }
                }
                let next = tick + 1;
                if next >= self.params.exploit_ticks().max(self.candidates.len as u32) {
                    decided = Some((self.decide(mi.end), self.candidates));
                    self.begin();
                    entered = Some(TraceStage::Explore);
                } else {
                    self.stage = Stage::Exploit { tick: next };
                }
            }
        }
        CycleOutput {
            apply: self.apply(),
            entered,
            decided,
        }
    }

    fn enter_eval(&mut self, arms: Arms) {
        // A non-finite aggregate (degenerate inputs) is treated as
        // missing feedback, never stored: a starved or broken exploration
        // must not masquerade as a −∞ measurement.
        self.u_prev = self
            .explore
            .utility(&self.params.utility)
            .filter(|u| u.is_finite());
        let learned = Slot::new(CandidateKind::Learned, arms.x_rl);
        let (slots, len) = match arms.x_cl {
            None => ([learned; 2], 1),
            Some(x_cl) => {
                // Lower rate first (Sec. 4.1's evaluation-order
                // principle), x_rl first on a tie; the reverse order
                // exists only as an ablation. `total_cmp` keeps the order
                // well-defined for any rate.
                let classic = Slot::new(CandidateKind::Classic, x_cl);
                let cl_lower = x_cl.mbps().total_cmp(&arms.x_rl.mbps()).is_lt();
                let classic_first = match self.params.eval_order {
                    EvalOrder::LowerFirst => cl_lower,
                    EvalOrder::HigherFirst => !cl_lower,
                };
                if classic_first {
                    ([classic, learned], 2)
                } else {
                    ([learned, classic], 2)
                }
            }
        };
        self.candidates = Candidates { slots, len };
        self.stage = Stage::Eval { index: 0 };
    }

    fn decide(&mut self, at: Instant) -> CycleRecord {
        // Highest utility wins; missing feedback falls back to x_prev
        // (the Sec. 3 no-ACK rule). Ties keep x_prev (stability), then
        // the earlier-evaluated candidate. A NaN utility can never win:
        // `u > best` is false for NaN.
        let mut winner = (CandidateKind::Prev, self.x_prev);
        let mut best = self.u_prev.unwrap_or(f64::NEG_INFINITY);
        for s in self.candidates() {
            if let Some(u) = s.utility {
                if u > best {
                    best = u;
                    winner = (s.kind, s.rate);
                }
            }
        }
        let utility_of = |kind| self.candidates().iter().find(|s| s.kind == kind)?.utility;
        let record = CycleRecord {
            at,
            u_prev: self.u_prev,
            u_classic: utility_of(CandidateKind::Classic),
            u_learned: utility_of(CandidateKind::Learned),
            winner: winner.0,
            rate_mbps: winner.1.mbps(),
            early_exit: self.early_exit,
        };
        self.log.push(record);
        self.x_prev = winner.1.max(Rate::from_kbps(80.0));
        record
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The candidate-rate lattice, Mbps. At `x_prev = 10` the divergence
    /// threshold `0.3·x_prev` is exactly `10 − 7 = 13 − 10`, so the "at
    /// the threshold" case occurs; at 7 and 13 it falls between the gaps.
    const LATTICE: [f64; 3] = [7.0, 10.0, 13.0];

    /// Every MI lasts 1/8 s, so its byte count, the exploration
    /// aggregate's rate and its time-weighted gradient are exact in
    /// binary: `u(x_prev)` equals a candidate's utility bit for bit when
    /// both saw the same feedback at the same rate, and the tie rules are
    /// exercised, not just the strict ones.
    const MI_NS: u64 = 125_000_000;

    /// What one MI's ACKs said.
    #[derive(Debug, Clone, Copy)]
    enum Feedback {
        /// No ACK arrived and nothing was sent (a blackout).
        Starved,
        /// ACKs arrived: 20 % loss or none, and an RTT gradient.
        Acked { lossy: bool, grad: f64 },
    }

    /// Starved, or acked with loss 0 or > 0 and a gradient below, at or
    /// above the noise floor.
    fn feedback() -> Vec<Feedback> {
        let mut all = vec![Feedback::Starved];
        for lossy in [false, true] {
            for grad in [0.5, 1.0, 2.0] {
                let grad = grad * GRAD_NOISE_FLOOR;
                all.push(Feedback::Acked { lossy, grad });
            }
        }
        all
    }

    fn mbps(x: f64) -> Rate {
        Rate::from_mbps(x)
    }

    /// The MI closing at the end of tick `tick`, sent at `rate`.
    fn mi(tick: u64, rate: Rate, fb: Feedback) -> MiStats {
        let end = Instant::from_nanos((tick + 1) * MI_NS);
        let Feedback::Acked { lossy, grad } = fb else {
            return MiStats::empty(end);
        };
        let sent = (rate.bps() / 64.0) as u64;
        let lost = if lossy { sent / 5 } else { 0 };
        MiStats {
            start: Instant::from_nanos(tick * MI_NS),
            sent_bytes: sent,
            acked_bytes: sent - lost,
            lost_bytes: lost,
            acks: 8,
            sending_rate: rate,
            delivery_rate: rate,
            rtt_gradient: grad,
            loss_rate: lost as f64 / sent as f64,
            ..MiStats::empty(end)
        }
    }

    /// One exhaustive enumeration: a parameter set, with or without a
    /// classic arm, walked to a depth of two cycles.
    struct Walk {
        params: LibraParams,
        classic: bool,
        /// Cycle starts already walked, keyed by the cycles left and the
        /// state with its (write-only) log cleared, with the sequence
        /// count below them.
        walked: Vec<((u32, Cycle), u128)>,
        mi_closes: u64,
        at_threshold: u64,
        prev_ties: u64,
        candidate_ties: u64,
    }

    impl Walk {
        fn new(params: LibraParams, classic: bool) -> Walk {
            Walk {
                params,
                classic,
                walked: Vec::new(),
                mi_closes: 0,
                at_threshold: 0,
                prev_ties: 0,
                candidate_ties: 0,
            }
        }

        /// Every input sequence: a startup tick that leaves startup at a
        /// lattice rate, then two full cycles. Returns the sequence count.
        fn run(&mut self) -> u128 {
            let mut sequences = 0;
            for x in LATTICE.map(mbps) {
                let mut c = Cycle::new(self.params);
                let arms = Arms {
                    x_cl: self.classic.then_some(x),
                    classic_startup: true,
                    x_rl: x,
                };
                // Still in startup while the classic arm is (or, for
                // Clean-Slate, while the ACKs are missing).
                let stay = if self.classic {
                    mi(0, x, feedback()[1])
                } else {
                    mi(0, x, Feedback::Starved)
                };
                assert_eq!(c.advance(&stay, arms).entered, None);
                assert_eq!(c.stage(), Stage::Startup);
                let leave = Arms {
                    classic_startup: false,
                    ..arms
                };
                let out = self.close(&mut c, &mi(0, x, feedback()[1]), leave);
                assert_eq!(out.entered, Some(TraceStage::Explore));
                assert_eq!(c.base(), x);
                sequences += self.cycle_start(&c, 1, 2);
            }
            sequences
        }

        /// Sequences from a cycle that just began, with `cycles` cycles
        /// left to walk. A begun cycle's future depends on its state
        /// alone, so equal starts are walked once.
        fn cycle_start(&mut self, c: &Cycle, tick: u64, cycles: u32) -> u128 {
            let key = (
                cycles,
                Cycle {
                    log: CycleLog::new(),
                    ..c.clone()
                },
            );
            if let Some(&(_, n)) = self.walked.iter().find(|(k, _)| *k == key) {
                return n;
            }
            let n = self.from(c, tick, cycles);
            self.walked.push((key, n));
            n
        }

        /// Sequences from `c` in mid-cycle.
        fn from(&mut self, c: &Cycle, tick: u64, cycles: u32) -> u128 {
            let lattice = LATTICE.map(mbps);
            let mut n = 0;
            match c.stage() {
                Stage::Startup => unreachable!("walks start past startup"),
                Stage::Explore { .. } => {
                    // Ticks that only feed the exploration aggregate are
                    // collapsed: every exploration tick of one branch sees
                    // the same feedback and proposals, so the branch
                    // point is the tick that leaves exploration.
                    let x_cls = if self.classic {
                        lattice.map(Some).to_vec()
                    } else {
                        vec![None]
                    };
                    for fb in feedback() {
                        for &x_cl in &x_cls {
                            for x_rl in lattice {
                                let arms = Arms {
                                    x_cl,
                                    classic_startup: false,
                                    x_rl,
                                };
                                let mut next = c.clone();
                                let mut t = tick;
                                while next.queries_rl() {
                                    self.close(&mut next, &mi(t, c.base(), fb), arms);
                                    t += 1;
                                }
                                n += self.from(&next, t, cycles);
                            }
                        }
                    }
                }
                Stage::Eval { index } => {
                    let rate = c.candidates()[index].rate;
                    for fb in [Feedback::Starved, feedback()[1]] {
                        let mut next = c.clone();
                        self.close(&mut next, &mi(tick, rate, fb), self.idle_arms());
                        n += self.from(&next, tick + 1, cycles);
                    }
                }
                Stage::Exploit { .. } => {
                    for fb in feedback() {
                        let mut next = c.clone();
                        let out = self.close(&mut next, &mi(tick, c.base(), fb), self.idle_arms());
                        n += match out.decided {
                            None => self.from(&next, tick + 1, cycles),
                            Some(_) if cycles == 1 => 1,
                            Some(_) => self.cycle_start(&next, tick + 1, cycles - 1),
                        };
                    }
                }
            }
            n
        }

        /// Proposals fed outside exploration, where none may be read.
        fn idle_arms(&self) -> Arms {
            Arms {
                x_cl: self.classic.then_some(mbps(LATTICE[0])),
                classic_startup: false,
                x_rl: mbps(LATTICE[0]),
            }
        }

        /// Close one MI on `c` and check every rule that concerns it.
        fn close(&mut self, c: &mut Cycle, mi: &MiStats, arms: Arms) -> CycleOutput {
            self.mi_closes += 1;
            let before = c.clone();
            let out = c.advance(mi, arms);
            let after = &*c;

            // The RL arm is consulted only in exploration: anywhere else
            // the cycle reads neither proposal.
            assert_eq!(
                before.queries_rl(),
                matches!(before.stage, Stage::Explore { .. })
            );
            if !before.queries_rl() && before.stage != Stage::Startup {
                let mut other = before.clone();
                let moved = Arms {
                    x_cl: arms.x_cl.map(|x| x.scale(2.0)),
                    classic_startup: !arms.classic_startup,
                    x_rl: arms.x_rl.scale(3.0),
                };
                assert_eq!(
                    other.advance(mi, moved),
                    out,
                    "arms read outside exploration"
                );
                assert_eq!(&other, after);
            }

            // No applied rate is non-finite or zero; each stage applies
            // what Alg. 1 says.
            assert_eq!(out.apply, after.apply());
            for r in [after.base()].into_iter().chain(out.apply) {
                assert!(r.mbps().is_finite() && r.mbps() > 0.0, "applied {r:?}");
            }
            match after.stage {
                Stage::Startup | Stage::Explore { .. } => assert_eq!(out.apply, None),
                Stage::Eval { index } => {
                    assert_eq!(out.apply, Some(after.candidates()[index].rate))
                }
                Stage::Exploit { .. } => assert_eq!(out.apply, Some(after.base())),
            }

            if let Stage::Explore { ticks_left } = before.stage {
                self.check_explore(&before, ticks_left, arms, &out, after);
            }
            if let Some((record, candidates)) = &out.decided {
                self.check_decision(&before, record, candidates.as_slice(), after);
            }
            out
        }

        /// Early exit iff `|x_cl − x_rl| ≥ switch_frac·x_prev` with a
        /// non-zero threshold; the lower rate is evaluated first.
        fn check_explore(
            &mut self,
            before: &Cycle,
            ticks_left: u32,
            arms: Arms,
            out: &CycleOutput,
            after: &Cycle,
        ) {
            let threshold = self.params.switch_frac * before.base().mbps();
            let gap = arms.x_cl.map(|x| (x.mbps() - arms.x_rl.mbps()).abs());
            let diverged = gap.is_some_and(|g| g >= threshold && threshold != 0.0);
            if gap == Some(threshold) {
                self.at_threshold += 1;
            }
            let left = out.entered == Some(TraceStage::Eval);
            assert_eq!(left, diverged || ticks_left == 1);
            if !left {
                return;
            }
            assert_eq!(after.early_exit, diverged);
            assert_eq!(after.stage, Stage::Eval { index: 0 });
            let cands = after.candidates();
            let learned = Slot::new(CandidateKind::Learned, arms.x_rl);
            match arms.x_cl {
                None => assert_eq!(cands, [learned]),
                Some(x_cl) => {
                    let classic = Slot::new(CandidateKind::Classic, x_cl);
                    // Lower rate first, x_rl first on a tie; the ablation
                    // order is its mirror image.
                    let lower_first = if x_cl < arms.x_rl {
                        [classic, learned]
                    } else {
                        [learned, classic]
                    };
                    match self.params.eval_order {
                        EvalOrder::LowerFirst => assert_eq!(cands, lower_first),
                        EvalOrder::HigherFirst => {
                            assert_eq!(cands, [lower_first[1], lower_first[0]])
                        }
                    }
                }
            }
        }

        /// The next base is the argmax of the finite utilities; ties keep
        /// `x_prev`, then the earlier-evaluated candidate.
        fn check_decision(
            &mut self,
            before: &Cycle,
            record: &CycleRecord,
            cands: &[Slot],
            after: &Cycle,
        ) {
            let finite = |u: Option<f64>| u.filter(|u| u.is_finite());
            let best = std::iter::once(before.u_prev)
                .chain(cands.iter().map(|s| s.utility))
                .filter_map(finite)
                .reduce(f64::max);
            let winner = match best {
                None => (CandidateKind::Prev, before.base()),
                Some(b) if finite(before.u_prev) == Some(b) => (CandidateKind::Prev, before.base()),
                Some(b) => cands
                    .iter()
                    .find(|s| finite(s.utility) == Some(b))
                    .map(|s| (s.kind, s.rate))
                    .expect("the maximum is someone's"),
            };
            let at_best = std::iter::once(before.u_prev)
                .chain(cands.iter().map(|s| s.utility))
                .filter(|&u| best.is_some() && finite(u) == best)
                .count();
            if at_best > 1 {
                if finite(before.u_prev) == best {
                    self.prev_ties += 1;
                } else {
                    self.candidate_ties += 1;
                }
            }
            assert_eq!(record.winner, winner.0, "{record:?} from {cands:?}");
            assert_eq!(record.rate_mbps, winner.1.mbps());
            assert_eq!(after.base(), winner.1.max(Rate::from_kbps(80.0)));
            assert_eq!(record.u_prev, before.u_prev);
            assert_eq!(record.early_exit, before.early_exit);
            let u_of = |kind| {
                cands
                    .iter()
                    .find(|s| s.kind == kind)
                    .and_then(|s| s.utility)
            };
            assert_eq!(record.u_classic, u_of(CandidateKind::Classic));
            assert_eq!(record.u_learned, u_of(CandidateKind::Learned));
            assert_eq!(after.log().records().last(), Some(record));
            assert_eq!(after.log().len(), before.log().len() + 1);
            // A begun cycle carries nothing of the last one but its base.
            let mut fresh = Cycle::new(self.params);
            fresh.set_base(after.base());
            fresh.begin();
            assert_eq!(
                Cycle {
                    log: CycleLog::new(),
                    ..after.clone()
                },
                fresh
            );
        }
    }

    /// Alg. 1 over every input sequence to a depth of two cycles:
    /// candidate rates from a 3-value lattice, loss 0 or > 0, a gradient
    /// below, at or above [`GRAD_NOISE_FLOOR`], each MI acked or starved.
    #[test]
    fn alg1_holds_on_every_two_cycle_sequence() {
        let cubic = LibraParams::for_cubic();
        let walks = [
            ("C-Libra, lower first", cubic, true),
            (
                "C-Libra, higher first",
                LibraParams {
                    eval_order: EvalOrder::HigherFirst,
                    ..cubic
                },
                true,
            ),
            (
                "C-Libra, zero threshold",
                LibraParams {
                    switch_frac: 0.0,
                    ..cubic
                },
                true,
            ),
            ("Clean-Slate", cubic, false),
        ];
        for (label, params, classic) in walks {
            let mut walk = Walk::new(params, classic);
            let sequences = walk.run();
            println!(
                "alg1 {label}: {sequences} input sequences, {} MI closes run, \
                 {} at the threshold, {} ties with x_prev, {} between candidates",
                walk.mi_closes, walk.at_threshold, walk.prev_ties, walk.candidate_ties
            );
            // Per cycle: 7 feedbacks × the proposals for exploration
            // (x_cl × x_rl, or x_rl alone), acked or starved per
            // evaluation slot, 7 feedbacks per exploitation tick; two
            // cycles from each of 3 startup rates.
            let per_cycle: u128 = if classic { 7 * 9 * 4 } else { 7 * 3 * 2 } * 49;
            assert_eq!(sequences, 3 * per_cycle * per_cycle, "{label}");
            assert!(walk.prev_ties > 0, "{label}: no tie with x_prev exercised");
            if classic {
                assert!(
                    walk.candidate_ties > 0,
                    "{label}: no candidate tie exercised"
                );
                assert!(
                    walk.at_threshold > 0,
                    "{label}: threshold never met exactly"
                );
            }
        }
    }
}
