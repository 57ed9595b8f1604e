//! The congestion-control algorithm interface.
//!
//! Every algorithm in the workspace — classic (CUBIC, BBR, …), learned
//! (Aurora, Vivace, …) and Libra itself — implements [`CongestionControl`].
//! The simulator's sender owns one boxed controller per flow and:
//!
//! 1. calls [`on_send`](CongestionControl::on_send) /
//!    [`on_ack`](CongestionControl::on_ack) /
//!    [`on_loss`](CongestionControl::on_loss) as packets move,
//! 2. closes a monitor interval every
//!    [`mi_duration`](CongestionControl::mi_duration) and calls
//!    [`on_mi`](CongestionControl::on_mi) with the aggregated stats — or,
//!    with a policy service attached,
//!    [`mi_submit`](CongestionControl::mi_submit) then
//!    [`mi_resolve`](CongestionControl::mi_resolve) — (unless the scheme
//!    declares it has no MI clock),
//! 3. paces packets at [`pacing_rate`](CongestionControl::pacing_rate)
//!    (falling back to `cwnd / sRTT` for window-based schemes) while never
//!    exceeding [`cwnd_bytes`](CongestionControl::cwnd_bytes) in flight.
//!
//! Libra additionally treats its inner classic CCA as a subroutine: it
//! re-bases it with [`set_rate`](CongestionControl::set_rate) at the start
//! of each control cycle and reads back a candidate rate with
//! [`rate_estimate`](CongestionControl::rate_estimate), mirroring how the
//! kernel implementation converts `cwnd` to a pacing rate.

use crate::events::{AckEvent, LossEvent, SendEvent};
use crate::stats::MiStats;
use crate::time::Duration;
use crate::units::Rate;

/// A congestion-control algorithm driven by the simulator's sender.
pub trait CongestionControl {
    /// Human-readable algorithm name (used in experiment tables).
    fn name(&self) -> &'static str;

    /// A data packet was handed to the network.
    fn on_send(&mut self, _ev: &SendEvent) {}

    /// An acknowledgement arrived.
    fn on_ack(&mut self, ev: &AckEvent);

    /// A loss was detected.
    fn on_loss(&mut self, ev: &LossEvent);

    /// An ECN congestion-experienced echo arrived with this ACK.
    /// Default: ignore (most CCAs are ECN-oblivious; DCTCP reacts).
    fn on_ecn(&mut self, _ev: &AckEvent) {}

    /// A monitor interval closed and no policy service is attached: the
    /// scheme decides by itself. Window-based classics may ignore this;
    /// rate-based and learned schemes make their decisions here.
    ///
    /// Who implements what: a scheme with no servable policy (classics,
    /// PCC, Orca — which always queries its agent itself) implements
    /// `on_mi` and inherits
    /// [`mi_submit`](CongestionControl::mi_submit). A policy scheme
    /// (`RlCca`, `Libra`) implements `mi_submit` /
    /// [`mi_resolve`](CongestionControl::mi_resolve) and *derives*
    /// `on_mi` from them — submit, and if an action is owed, query its
    /// own agent with the submitted state and resolve — so the served
    /// and self-served forms are one operation sequence by construction.
    fn on_mi(&mut self, _stats: &MiStats) {}

    /// MI close with a policy service attached, submit half: run the MI
    /// bookkeeping and, if this tick needs a policy evaluation, write the
    /// state vector into `policy_state` and return `true` — the caller
    /// then owes exactly one
    /// [`mi_resolve`](CongestionControl::mi_resolve) with the policy
    /// output before the tick is complete. Returning `false` means the
    /// tick is already finished (no inference wanted this MI).
    ///
    /// The default — for schemes that implement only
    /// [`on_mi`](CongestionControl::on_mi) — calls it and owes nothing,
    /// so they take part in a served decision tick unchanged.
    fn mi_submit(&mut self, stats: &MiStats, _policy_state: &mut Vec<f64>) -> bool {
        self.on_mi(stats);
        false
    }

    /// Resolve half: apply `action` — the policy service's answer, or
    /// the scheme's own agent's when called from its derived
    /// [`on_mi`](CongestionControl::on_mi) — for the state written by
    /// the matching [`mi_submit`](CongestionControl::mi_submit).
    /// Default: nothing — schemes whose `mi_submit` never returns `true`
    /// are never resolved.
    fn mi_resolve(&mut self, _stats: &MiStats, _action: &[f64]) {}

    /// Length of this scheme's monitor interval given the current smoothed
    /// RTT. The default — one sRTT — matches most of the literature.
    ///
    /// [`Duration::MAX`] means "this scheme has no MI clock": it decides
    /// everything in its per-packet callbacks and its
    /// [`on_mi`](CongestionControl::on_mi) is a no-op, so the sender
    /// neither schedules MI ticks nor aggregates intervals for the flow.
    /// The sender asks once, when the flow is built, so a scheme answers
    /// `Duration::MAX` always or never (`Instant + Duration` saturates, so
    /// the value is also safe as an ordinary, never-reached interval).
    fn mi_duration(&self, srtt: Duration) -> Duration {
        srtt
    }

    /// Congestion window in bytes. Pure rate-based schemes return a large
    /// cap (the sender still enforces it to bound memory).
    fn cwnd_bytes(&self) -> u64;

    /// Pacing rate, if this scheme is rate-based. `None` means the sender
    /// derives pacing from `cwnd / sRTT`.
    fn pacing_rate(&self) -> Option<Rate> {
        None
    }

    /// The scheme's current sending-rate decision expressed as a rate —
    /// what Libra calls `x_cl` / `x_rl`. Defaults to the pacing rate, or
    /// `cwnd / sRTT` for window-based schemes.
    fn rate_estimate(&self, srtt: Duration) -> Rate {
        match self.pacing_rate() {
            Some(r) => r,
            None => {
                if srtt.is_zero() {
                    Rate::ZERO
                } else {
                    Rate::from_bytes_over(self.cwnd_bytes(), srtt)
                }
            }
        }
    }

    /// Re-base the scheme onto `rate` (Libra sets the winner of a control
    /// cycle as the new base sending rate; window-based schemes convert it
    /// to a cwnd via `rate × sRTT`). Default: ignore — standalone schemes
    /// are never re-based.
    fn set_rate(&mut self, _rate: Rate, _srtt: Duration) {}

    /// True while the scheme is in its startup phase (slow start /
    /// BBR-STARTUP). Libra delays engaging its control cycle until the
    /// underlying classic exits startup, as the kernel implementation does.
    fn in_startup(&self) -> bool {
        false
    }

    /// Downcast hook: controllers that expose post-run telemetry (Libra's
    /// cycle log, Orca's decision count) override this to return `self`.
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }

    /// Attach a structured-trace handle. Controllers that narrate their
    /// decisions (Libra's cycle/guardrail events) override this; the
    /// default ignores the tracer, so plain schemes stay trace-free.
    fn attach_tracer(&mut self, _tracer: crate::trace::Tracer) {}
}

/// A sensible in-flight cap for rate-based schemes: rate × 2·sRTT, floored
/// at 10 packets — mirrors Linux's pacing-based cwnd clamp.
pub fn rate_based_cwnd(rate: Rate, srtt: Duration, mss: u64) -> u64 {
    let two_rtt = srtt * 2;
    (rate.bytes_in(two_rtt)).max(10 * mss)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Instant;

    /// Minimal window-based controller used to exercise trait defaults.
    struct FixedWindow(u64);
    impl CongestionControl for FixedWindow {
        fn name(&self) -> &'static str {
            "fixed"
        }
        fn on_ack(&mut self, _: &AckEvent) {}
        fn on_loss(&mut self, _: &LossEvent) {}
        fn cwnd_bytes(&self) -> u64 {
            self.0
        }
    }

    /// Minimal rate-based controller.
    struct FixedRate(Rate);
    impl CongestionControl for FixedRate {
        fn name(&self) -> &'static str {
            "rate"
        }
        fn on_ack(&mut self, _: &AckEvent) {}
        fn on_loss(&mut self, _: &LossEvent) {}
        fn cwnd_bytes(&self) -> u64 {
            u64::MAX
        }
        fn pacing_rate(&self) -> Option<Rate> {
            Some(self.0)
        }
    }

    #[test]
    fn window_rate_estimate_is_cwnd_over_srtt() {
        let c = FixedWindow(600_000);
        let r = c.rate_estimate(Duration::from_millis(100));
        assert!((r.mbps() - 48.0).abs() < 1e-9, "{r}");
        assert_eq!(c.rate_estimate(Duration::ZERO), Rate::ZERO);
    }

    #[test]
    fn rate_based_estimate_is_pacing_rate() {
        let c = FixedRate(Rate::from_mbps(10.0));
        assert!((c.rate_estimate(Duration::from_millis(50)).mbps() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn default_mi_is_one_srtt() {
        let c = FixedWindow(1);
        assert_eq!(
            c.mi_duration(Duration::from_millis(80)),
            Duration::from_millis(80)
        );
    }

    #[test]
    fn rate_based_cwnd_floor() {
        // tiny rate → floor of 10 packets
        assert_eq!(
            rate_based_cwnd(Rate::from_kbps(1.0), Duration::from_millis(10), 1500),
            15_000
        );
        // 10 Mbps × 200 ms = 250 kB
        assert_eq!(
            rate_based_cwnd(Rate::from_mbps(10.0), Duration::from_millis(100), 1500),
            250_000
        );
        let _ = Instant::ZERO; // silence unused import in some cfg combos
    }
}
