//! Property-based fuzzing of Libra's control-cycle state machine: random
//! (but time-ordered) MI sequences, including ACK-starved intervals, must
//! never wedge the cycle, produce non-finite rates, or leak utility
//! bookkeeping across cycles.

use libra::core::Libra;
use libra::prelude::*;
use libra::types::{AckEvent, LossEvent, LossKind, MiStats};
use proptest::prelude::*;
use std::{cell::RefCell, rc::Rc};

fn agent(seed: u64) -> Rc<RefCell<PpoAgent>> {
    let mut rng = DetRng::new(seed);
    let mut a = PpoAgent::new(Libra::ppo_config(), &mut rng);
    a.set_eval(true);
    Rc::new(RefCell::new(a))
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
        delivered: 1500,
        in_flight: 30_000,
        app_limited: false,
    }
}

fn mi(start_ms: u64, end_ms: u64, rate_mbps: f64, rtt_ms: u64, loss: f64, acks: u32) -> MiStats {
    let dur_s = (end_ms.saturating_sub(start_ms)) as f64 / 1e3;
    let sent = (rate_mbps * 1e6 / 8.0 * dur_s) as u64;
    MiStats {
        start: Instant::from_millis(start_ms),
        end: Instant::from_millis(end_ms),
        sent_bytes: sent,
        acked_bytes: (sent as f64 * (1.0 - loss)) as u64,
        lost_bytes: (sent as f64 * loss) as u64,
        acks,
        sending_rate: Rate::from_mbps(rate_mbps),
        delivery_rate: Rate::from_mbps(rate_mbps * (1.0 - loss)),
        avg_rtt: Duration::from_millis(rtt_ms),
        mi_min_rtt: Duration::from_millis(rtt_ms),
        mi_max_rtt: Duration::from_millis(rtt_ms),
        min_rtt: Duration::from_millis(40),
        rtt_gradient: 0.0,
        loss_rate: loss,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random MI tapes (rate, RTT, loss, occasional starvation) keep the
    /// cycle machinery sane for C-Libra, B-Libra and Clean-Slate.
    #[test]
    fn libra_cycle_survives_random_mi_tapes(
        tape in prop::collection::vec(
            (1.0f64..80.0, 40u64..200, 0.0f64..0.3, 0u32..40),
            20..150,
        ),
        variant in 0usize..3,
        seed in 0u64..50,
    ) {
        let mut libra = match variant {
            0 => Libra::c_libra(agent(seed)),
            1 => Libra::b_libra(agent(seed)),
            _ => Libra::clean_slate(agent(seed)),
        };
        // Warm up: ACKs plus a loss so CUBIC-style startup can end.
        for k in 0..30u64 {
            libra.on_ack(&ack(k * 5, 50));
        }
        libra.on_loss(&LossEvent {
            now: Instant::from_millis(160),
            seq: 0,
            bytes: 1500,
            in_flight: 0,
            kind: LossKind::FastRetransmit,
        });
        let mut t = 200u64;
        for (rate, rtt, loss, acks) in tape {
            let end = t + 25;
            libra.on_mi(&mi(t, end, rate, rtt, loss, acks));
            t = end;
            // Interleave a few ACKs so inner classics keep state.
            libra.on_ack(&ack(t, rtt));
            // Invariants.
            let est = libra.rate_estimate(Duration::from_millis(rtt));
            prop_assert!(est.bps().is_finite());
            let base = libra.base_rate();
            prop_assert!(base.bps().is_finite() && base.bps() >= 0.0);
            if let Some(p) = libra.pacing_rate() {
                prop_assert!(p.bps().is_finite());
            }
            prop_assert!(libra.cwnd_bytes() >= 1500);
        }
        // Any completed cycle left a coherent record.
        for rec in libra.log().records() {
            prop_assert!(rec.rate_mbps.is_finite() && rec.rate_mbps > 0.0);
            // `best_utility` never surfaces a non-finite value, and is
            // populated whenever any candidate was actually measured.
            prop_assert!(rec.best_utility().is_none_or(|u| u.is_finite()));
            prop_assert!(rec.best_utility().is_some() || rec.u_classic.is_none());
        }
        let (p, r, c) = libra.log().fractions();
        if !libra.log().is_empty() {
            prop_assert!((p + r + c - 1.0).abs() < 1e-9);
        }
    }

    /// Fully ACK-starved tapes (a dead network) never complete a cycle
    /// with a non-`x_prev` winner and never panic.
    #[test]
    fn starvation_only_tapes_hold_base_rate(
        n in 10usize..80,
        seed in 0u64..20,
    ) {
        let mut libra = Libra::c_libra(agent(seed));
        for k in 0..30u64 {
            libra.on_ack(&ack(k * 5, 50));
        }
        libra.on_loss(&LossEvent {
            now: Instant::from_millis(160),
            seq: 0,
            bytes: 1500,
            in_flight: 0,
            kind: LossKind::FastRetransmit,
        });
        // The first MI performs the one-time startup→cycle transition
        // (which legitimately re-bases x_prev onto the classic's rate);
        // hold the base constant from then on.
        let mut t = 200u64;
        libra.on_mi(&MiStats::empty(Instant::from_millis(t)));
        t += 25;
        let base_before = libra.base_rate();
        for _ in 0..n {
            libra.on_mi(&MiStats::empty(Instant::from_millis(t)));
            t += 25;
        }
        // With zero feedback every decided cycle must have kept x_prev.
        for rec in libra.log().records() {
            prop_assert_eq!(rec.winner, libra::types::CandidateKind::Prev);
        }
        prop_assert!(libra.base_rate().abs_diff(base_before) < Rate::from_kbps(1.0));
    }
}
