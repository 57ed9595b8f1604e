//! Pins the degradation ladder's observable behaviour on every kind of
//! learned arm: the three Libra variants, whose RL arm can be benched,
//! and a standalone Aurora flow, which nothing benches.
//!
//! Each arm runs a seeded sequence of monitor intervals against a toy
//! 20 Mbps link whose feedback lags the applied rate by two MIs (one
//! RTT at Libra's half-RTT evaluation intervals), so overshooting
//! candidates come back lossy. The sequence runs in phases:
//! self-served decisions; scripted actions drawn from valid, NaN, ±inf,
//! empty and wrong-dimension ones; a valid action followed by more
//! missing responses than the replay bound covers; long rejection
//! streaks; overshooting valid actions that make the learned candidate
//! lose cycle after cycle; and, last, a `snapshot_good` followed by NaN
//! weights, so that a re-probe restores them. Every submit outcome,
//! pacing rate, window, MI length and counter after every MI, plus the
//! whole ring-recorded trace, are folded into one FNV-1a digest per arm.
//! The digests were recorded from the two machines (`RlCca`'s replay
//! rung and Libra's guardrail) that the one ladder replaced; a changed
//! replay bound, trip threshold, backoff or recovery rule moves them.

use libra_core::Libra;
use libra_learned::{RlCca, RlCcaConfig};
use libra_rl::PpoAgent;
use libra_types::{
    AckEvent, CongestionControl, DetRng, Duration, Instant, LossEvent, LossKind, MiStats, Rate,
    SendEvent, Tracer,
};
use std::cell::RefCell;
use std::rc::Rc;

/// FNV-1a over the little-endian bytes of each folded word.
struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }
}

#[derive(Clone, Copy, Debug)]
enum Arm {
    CLibra,
    BLibra,
    CleanSlate,
    Aurora,
}

/// The controller under test, with the counters each kind exposes.
enum Under {
    Libra(Box<Libra>),
    Rl(Box<RlCca>),
}

impl Under {
    fn cc(&mut self) -> &mut dyn CongestionControl {
        match self {
            Under::Libra(l) => l.as_mut(),
            Under::Rl(r) => r.as_mut(),
        }
    }

    fn view(&self) -> &dyn CongestionControl {
        match self {
            Under::Libra(l) => l.as_ref(),
            Under::Rl(r) => r.as_ref(),
        }
    }

    /// `(trips, invalid actions, applied decisions, cycles)`.
    fn counters(&self) -> [u64; 4] {
        match self {
            Under::Libra(l) => [
                l.guardrail_trips(),
                l.rl_invalid_actions(),
                l.rl_decisions(),
                l.cycles(),
            ],
            Under::Rl(r) => [0, r.invalid_actions(), r.decisions(), 0],
        }
    }
}

/// How the actions of one phase are chosen.
#[derive(Clone, Copy, Debug)]
enum Phase {
    /// The arm serves itself (`on_mi`): its own agent's actions.
    SelfServed,
    /// Scripted actions, each drawn from every valid and invalid kind.
    Mixed,
    /// One valid action, then a dozen missing responses: past the
    /// replay bound, into rejections.
    LongStale,
    /// NaN actions only: a rejection streak.
    Rejecting,
    /// Large valid actions: the learned candidate overshoots the link
    /// and loses its cycles.
    Overshoot,
}

const PHASES: [Phase; 5] = [
    Phase::SelfServed,
    Phase::Mixed,
    Phase::LongStale,
    Phase::Rejecting,
    Phase::Overshoot,
];

const LINK_MBPS: f64 = 20.0;
const RTT_MS: u64 = 50;

/// The `asked`-th scripted action of a phase.
fn scripted_action(phase: Phase, asked: u32, rng: &mut DetRng) -> Vec<f64> {
    let valid = |rng: &mut DetRng| vec![rng.uniform() * 1.2 - 0.6];
    match phase {
        Phase::SelfServed => unreachable!("self-served phases take no script"),
        Phase::Mixed => match rng.uniform_u64(0, 10) {
            0..=4 => valid(rng),
            5 => vec![f64::NAN],
            6 => vec![if rng.chance(0.5) {
                f64::INFINITY
            } else {
                f64::NEG_INFINITY
            }],
            7 => Vec::new(),
            8 => vec![0.1, -0.2],
            _ => vec![rng.uniform() * 4.0 - 2.0],
        },
        Phase::LongStale => match asked % 14 {
            0 => valid(rng),
            _ => Vec::new(),
        },
        Phase::Rejecting => vec![f64::NAN],
        Phase::Overshoot => vec![1.0],
    }
}

/// The MI the toy link reports for a flow that paced at `sent` one RTT
/// ago: what exceeds the link is lost and queues.
fn feedback(start: Instant, end: Instant, sent: Rate, rng: &mut DetRng) -> MiStats {
    let rate = sent.mbps().max(0.1);
    let over = (rate / LINK_MBPS - 1.0).max(0.0);
    let loss = (over / (1.0 + over) + rng.uniform() * 0.002).min(0.9);
    let secs = end.saturating_since(start).as_secs_f64();
    let sent_bytes = (rate * 1e6 / 8.0 * secs) as u64;
    let rtt = Duration::from_micros(RTT_MS * 1000 + (over.min(2.0) * 20_000.0) as u64);
    let mut mi = MiStats::empty(start);
    mi.start = start;
    mi.end = end;
    mi.sent_bytes = sent_bytes;
    mi.acked_bytes = (sent_bytes as f64 * (1.0 - loss)) as u64;
    mi.lost_bytes = (sent_bytes as f64 * loss) as u64;
    mi.acks = 10;
    mi.sending_rate = Rate::from_mbps(rate);
    mi.delivery_rate = Rate::from_mbps(rate * (1.0 - loss));
    mi.avg_rtt = rtt;
    mi.mi_min_rtt = Duration::from_millis(RTT_MS);
    mi.mi_max_rtt = rtt;
    mi.min_rtt = Duration::from_millis(RTT_MS);
    mi.rtt_gradient = if over > 0.0 { 0.02 } else { 0.0 };
    mi.loss_rate = loss;
    mi
}

fn ack(now: Instant, seq: u64, delivered: u64) -> AckEvent {
    let rtt = Duration::from_millis(RTT_MS);
    AckEvent {
        now,
        seq,
        bytes: 1500,
        rtt,
        min_rtt: rtt,
        srtt: rtt,
        sent_at: now - rtt,
        delivered_at_send: delivered.saturating_sub(30_000),
        delivered,
        in_flight: 30_000,
        app_limited: false,
    }
}

/// Run one arm and return its digest.
fn digest(arm: Arm) -> u64 {
    let config = match arm {
        Arm::Aurora => RlCcaConfig::aurora(),
        _ => RlCcaConfig::libra_rl(),
    };
    let mut agent = PpoAgent::new(config.ppo_config(), &mut DetRng::new(41));
    agent.set_eval(true);
    let agent = Rc::new(RefCell::new(agent));
    let (tracer, recorder) = Tracer::ring(1 << 16, 0);
    let mut under = match arm {
        Arm::CLibra => Under::Libra(Box::new(Libra::c_libra(Rc::clone(&agent)))),
        Arm::BLibra => Under::Libra(Box::new(Libra::b_libra(Rc::clone(&agent)))),
        Arm::CleanSlate => Under::Libra(Box::new(Libra::clean_slate(Rc::clone(&agent)))),
        Arm::Aurora => Under::Rl(Box::new(RlCca::new(config, Rc::clone(&agent)))),
    };
    under.cc().attach_tracer(tracer);

    let mut rng = DetRng::new(41);
    let mut d = Fnv(0xcbf2_9ce4_8422_2325);
    let mut now = Instant::from_millis(RTT_MS);
    let (mut seq, mut delivered) = (0u64, 0u64);
    // Pacing rates of the last two MIs: the link answers one RTT late.
    let mut paced = [Rate::from_mbps(2.0); 2];
    let mut state = Vec::new();
    let mut self_action = Vec::new();

    // Round 0 is startup: a loss ends CUBIC's slow start and a re-base
    // BBR's (and the RL arm's). Random phases follow; then the weight
    // corruption a re-probe repairs, a rejection streak long enough to
    // back off to the cap twice, and a last self-served round.
    let mut rounds = vec![(Phase::SelfServed, 30)];
    for _ in 0..46 {
        let phase = PHASES[rng.uniform_u64(0, PHASES.len() as u64) as usize];
        rounds.push((phase, rng.uniform_u64(20, 60) as u32));
    }
    let corrupt_round = rounds.len();
    rounds.extend([
        (Phase::SelfServed, 400),
        (Phase::Rejecting, 1100),
        (Phase::SelfServed, 60),
    ]);
    for (round, &(phase, ticks)) in rounds.iter().enumerate() {
        if round == corrupt_round {
            agent.borrow_mut().snapshot_good();
            agent.borrow_mut().map_actor_params(|_| f64::NAN);
        }
        d.word(round as u64);
        let mut asked = 0;
        for tick in 0..ticks {
            if round == 0 && tick == 6 {
                under.cc().on_loss(&LossEvent {
                    now,
                    seq,
                    bytes: 1500,
                    in_flight: 30_000,
                    kind: LossKind::FastRetransmit,
                });
                under
                    .cc()
                    .set_rate(Rate::from_mbps(8.0), Duration::from_millis(RTT_MS));
            }
            let srtt = Duration::from_millis(RTT_MS);
            let len = under.view().mi_duration(srtt);
            d.word(len.nanos());
            let start = now;
            for _ in 0..3 {
                seq += 1;
                under.cc().on_send(&SendEvent {
                    now,
                    seq,
                    bytes: 1500,
                    in_flight: 30_000,
                });
                now += len / 4;
                delivered += 1500;
                under.cc().on_ack(&ack(now, seq, delivered));
            }
            now = start + len;
            let mi = if rng.chance(0.04) {
                MiStats::empty(now)
            } else {
                feedback(start, now, paced[0], &mut rng)
            };
            match phase {
                Phase::SelfServed => {
                    // `on_mi` itself, or the split path served inline by
                    // the same agent.
                    if rng.chance(0.5) {
                        under.cc().on_mi(&mi);
                        d.word(2);
                    } else {
                        let owed = under.cc().mi_submit(&mi, &mut state);
                        d.word(u64::from(owed));
                        if owed {
                            self_action = agent.borrow_mut().act(&state);
                            under.cc().mi_resolve(&mi, &self_action);
                        }
                    }
                }
                _ => {
                    let owed = under.cc().mi_submit(&mi, &mut state);
                    d.word(u64::from(owed));
                    if owed {
                        let action = scripted_action(phase, asked, &mut rng);
                        asked += 1;
                        under.cc().mi_resolve(&mi, &action);
                    }
                }
            }
            let rate = under.view().pacing_rate().unwrap_or(Rate::ZERO);
            paced = [paced[1], rate];
            d.word(rate.mbps().to_bits());
            d.word(under.view().cwnd_bytes());
            for c in under.counters() {
                d.word(c);
            }
        }
    }
    d.word(self_action.len() as u64);
    let recorder = recorder.borrow();
    d.word(recorder.dropped());
    for ev in recorder.events() {
        d.bytes(format!("{ev:?}").as_bytes());
    }
    let [trips, invalid, decisions, cycles] = under.counters();
    println!("{arm:?}: trips {trips}, invalid {invalid}, decisions {decisions}, cycles {cycles}");
    d.0
}

#[test]
fn every_arm_matches_its_pinned_digest() {
    let arms = [Arm::CLibra, Arm::BLibra, Arm::CleanSlate, Arm::Aurora];
    // In the order above.
    let pinned: [u64; 4] = [
        0xc28d_7279_6b73_82cd,
        0x751c_832e_3696_b89b,
        0xbe02_f9eb_1295_1167,
        0xf8aa_1083_c857_6507,
    ];
    let got = arms.map(digest);
    for (arm, g) in arms.iter().zip(got) {
        println!("{arm:?}: {g:#018x}");
    }
    assert_eq!(got, pinned);
}
