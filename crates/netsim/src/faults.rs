//! Deterministic fault injection for the bottleneck link: the link
//! plane's kinds over the one generic schedule.
//!
//! A [`FaultPlan`] (`libra_types::FaultPlan<FaultKind>`, the schedule the
//! policy plane shares) lays composable fault windows over simulated
//! time: first-class link flaps (trains of down/up cycles),
//! packet-reordering windows, packet duplication, ACK
//! compression/batching, one-way-delay spikes, and Gilbert–Elliott
//! burst-loss episodes. Every fault draws from an RNG stream forked off
//! the simulation seed, so a run with a plan is exactly as reproducible
//! as one without; and every fault type increments a counter in
//! [`FaultReport`] so tests can assert the fault actually fired.
//!
//! Semantics at the simulator:
//!
//! - **LinkFlap** windows are overlaid on the capacity schedule as
//!   zero-rate segments before the run starts — packets in service wait
//!   the outage out exactly like a trace-driven blackout. Overlapping or
//!   adjacent flap windows merge into one outage and count as one flap.
//! - **Reorder** delays a packet's ACK by `extra_delay` with probability
//!   `probability`, so later packets' ACKs overtake it (exercising the
//!   sender's dup-ACK/reorder-window machinery).
//! - **Duplicate** delivers a second copy of the ACK shortly after the
//!   first; receivers must tolerate the duplicate.
//! - **AckCompression** quantizes ACK arrival times up to multiples of
//!   `flush_every`, batching ACKs into bursts (a cable/Wi-Fi uplink
//!   aggregation artifact).
//! - **DelaySpike** adds `extra` to the round trip of packets serviced
//!   during the window (a routing change or bufferbloat episode
//!   elsewhere on the path).
//! - **BurstLoss** runs a dedicated Gilbert–Elliott process over the
//!   window, on top of the link's base loss process.

use crate::loss::GilbertElliott;
use libra_types::{DetRng, Duration, Instant};

/// A link fault active on `[from, to)`.
pub type FaultEvent = libra_types::FaultEvent<FaultKind>;

/// A schedule of link faults attached to a [`crate::LinkConfig`].
pub type FaultPlan = libra_types::FaultPlan<FaultKind>;

/// One kind of injectable fault.
#[derive(Debug, Clone)]
pub enum FaultKind {
    /// The link is dead for the whole event window.
    LinkFlap,
    /// ACKs are delayed by `extra_delay` with probability `probability`,
    /// letting later ACKs overtake them.
    Reorder {
        /// Per-packet probability of being held back.
        probability: f64,
        /// How long a held-back ACK is delayed.
        extra_delay: Duration,
    },
    /// A second copy of the ACK arrives `1 ms` after the first with
    /// probability `probability`.
    Duplicate {
        /// Per-packet duplication probability.
        probability: f64,
    },
    /// ACK arrival times are rounded up to multiples of `flush_every`
    /// (measured from the window start), arriving in batches.
    AckCompression {
        /// Batch flush interval.
        flush_every: Duration,
    },
    /// Every round trip in the window is `extra` longer.
    DelaySpike {
        /// Added one-way delay.
        extra: Duration,
    },
    /// A Gilbert–Elliott burst-loss episode on top of the base loss
    /// process.
    BurstLoss(GilbertElliott),
}

impl FaultKind {
    /// Stable lowercase label used in trace events and tables.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::LinkFlap => "link-flap",
            FaultKind::Reorder { .. } => "reorder",
            FaultKind::Duplicate { .. } => "duplicate",
            FaultKind::AckCompression { .. } => "ack-compression",
            FaultKind::DelaySpike { .. } => "delay-spike",
            FaultKind::BurstLoss(_) => "burst-loss",
        }
    }
}

/// Per-fault-type counters, reported in [`crate::SimReport`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Link-flap outages that began within the simulated horizon.
    pub link_flaps: u64,
    /// ACKs held back by a reorder window.
    pub reordered_acks: u64,
    /// ACKs delivered twice.
    pub duplicated_acks: u64,
    /// ACKs whose arrival was quantized by an ACK-compression window.
    pub compressed_acks: u64,
    /// ACKs delayed by a delay-spike window.
    pub delay_spiked_acks: u64,
    /// Packets dropped by burst-loss episodes.
    pub burst_loss_drops: u64,
}

impl FaultReport {
    /// Total fault activations across all types.
    pub fn total(&self) -> u64 {
        self.link_flaps
            + self.reordered_acks
            + self.duplicated_acks
            + self.compressed_acks
            + self.delay_spiked_acks
            + self.burst_loss_drops
    }
}

/// Runtime state for a fault plan: mutable per-episode processes plus the
/// dedicated RNG stream. Owned by the simulation.
#[derive(Debug)]
pub(crate) struct FaultEngine {
    plan: FaultPlan,
    rng: DetRng,
    pub(crate) report: FaultReport,
}

/// How the ACK for a just-serviced packet is affected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct AckFate {
    /// Drop the packet entirely (burst loss).
    pub(crate) dropped: bool,
    /// Extra delay to add to the ACK arrival time.
    pub(crate) extra_delay: Duration,
    /// Schedule a second copy of the ACK this much after the first.
    pub(crate) duplicate_after: Option<Duration>,
}

impl AckFate {
    pub(crate) const CLEAN: AckFate = AckFate {
        dropped: false,
        extra_delay: Duration::ZERO,
        duplicate_after: None,
    };
}

impl FaultEngine {
    /// Build runtime state from a plan. Link-flap counting happens in the
    /// simulation's `finalize` (only flaps inside the simulated horizon
    /// count), so the report starts all-zero here.
    pub(crate) fn new(plan: &FaultPlan, rng: DetRng) -> Self {
        FaultEngine {
            plan: plan.clone(),
            rng,
            report: FaultReport::default(),
        }
    }

    /// Decide the fate of the ACK for a packet leaving service at `now`
    /// whose undisturbed arrival would be `ack_at`. Returns the fate and
    /// the (possibly shifted) arrival time.
    pub(crate) fn ack_fate(&mut self, now: Instant, ack_at: Instant) -> (AckFate, Instant) {
        if self.plan.is_empty() {
            return (AckFate::CLEAN, ack_at);
        }
        let mut fate = AckFate::CLEAN;
        let mut when = ack_at;
        // Each event type draws from the shared fault stream only while
        // its window is active, in schedule order — deterministic under
        // the run seed.
        for event in self.plan.active_mut(now) {
            match &mut event.kind {
                FaultKind::LinkFlap => {}
                FaultKind::Reorder {
                    probability,
                    extra_delay,
                } => {
                    if self.rng.chance(*probability) {
                        fate.extra_delay += *extra_delay;
                        when += *extra_delay;
                        self.report.reordered_acks += 1;
                    }
                }
                FaultKind::Duplicate { probability } => {
                    if self.rng.chance(*probability) {
                        fate.duplicate_after = Some(Duration::from_millis(1));
                        self.report.duplicated_acks += 1;
                    }
                }
                FaultKind::DelaySpike { extra } => {
                    fate.extra_delay += *extra;
                    when += *extra;
                    self.report.delay_spiked_acks += 1;
                }
                FaultKind::BurstLoss(ge) => {
                    if ge.drop(&mut self.rng) {
                        fate.dropped = true;
                        self.report.burst_loss_drops += 1;
                    }
                }
                FaultKind::AckCompression { .. } => {
                    // Applied last, below, so it also batches the delays
                    // added by reorder/spike windows.
                }
            }
        }
        if fate.dropped {
            return (fate, when);
        }
        for event in self.plan.active(now) {
            if let FaultKind::AckCompression { flush_every } = event.kind {
                if flush_every.is_zero() {
                    continue;
                }
                let offset = when.saturating_since(event.from).nanos();
                let step = flush_every.nanos();
                let rem = offset % step;
                if rem != 0 {
                    when += Duration::from_nanos(step - rem);
                    self.report.compressed_acks += 1;
                }
            }
        }
        (fate, when)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flap_train_builds_windows() {
        let plan = FaultPlan::none().train(
            Instant::from_secs(5),
            Duration::from_secs(1),
            Duration::from_secs(2),
            3,
            FaultKind::LinkFlap,
        );
        let w: Vec<_> = plan.events.iter().map(|e| (e.from, e.to)).collect();
        assert_eq!(w.len(), 3);
        assert_eq!(w[0], (Instant::from_secs(5), Instant::from_secs(6)));
        assert_eq!(w[1], (Instant::from_secs(8), Instant::from_secs(9)));
        assert_eq!(w[2], (Instant::from_secs(11), Instant::from_secs(12)));
    }

    #[test]
    fn event_window_is_half_open() {
        let e = FaultEvent {
            from: Instant::from_secs(1),
            to: Instant::from_secs(2),
            kind: FaultKind::LinkFlap,
        };
        assert!(!e.active_at(Instant::ZERO));
        assert!(e.active_at(Instant::from_secs(1)));
        assert!(!e.active_at(Instant::from_secs(2)));
    }

    #[test]
    fn delay_spike_shifts_every_ack_in_window() {
        let plan = FaultPlan::none().with(
            Instant::ZERO,
            Instant::from_secs(10),
            FaultKind::DelaySpike {
                extra: Duration::from_millis(50),
            },
        );
        let mut eng = FaultEngine::new(&plan, DetRng::new(1));
        let base = Instant::from_millis(100);
        let (fate, when) = eng.ack_fate(Instant::from_millis(60), base);
        assert!(!fate.dropped);
        assert_eq!(when, base + Duration::from_millis(50));
        assert_eq!(eng.report.delay_spiked_acks, 1);
        // Outside the window: untouched.
        let (fate2, when2) = eng.ack_fate(Instant::from_secs(11), base);
        assert_eq!((fate2, when2), (AckFate::CLEAN, base));
    }

    #[test]
    fn ack_compression_quantizes_up() {
        let plan = FaultPlan::none().with(
            Instant::ZERO,
            Instant::from_secs(1),
            FaultKind::AckCompression {
                flush_every: Duration::from_millis(10),
            },
        );
        let mut eng = FaultEngine::new(&plan, DetRng::new(2));
        let (_, when) = eng.ack_fate(Instant::from_millis(1), Instant::from_millis(13));
        assert_eq!(when, Instant::from_millis(20));
        // Already on a boundary: untouched, not counted.
        let before = eng.report.compressed_acks;
        let (_, when2) = eng.ack_fate(Instant::from_millis(2), Instant::from_millis(30));
        assert_eq!(when2, Instant::from_millis(30));
        assert_eq!(eng.report.compressed_acks, before);
    }

    #[test]
    fn burst_loss_drops_and_counts() {
        let plan = FaultPlan::none().with(
            Instant::ZERO,
            Instant::from_secs(1),
            FaultKind::BurstLoss(GilbertElliott::new(1.0, 0.0, 1.0, 1.0)),
        );
        let mut eng = FaultEngine::new(&plan, DetRng::new(3));
        let (fate, _) = eng.ack_fate(Instant::from_millis(5), Instant::from_millis(50));
        assert!(fate.dropped);
        assert_eq!(eng.report.burst_loss_drops, 1);
    }

    #[test]
    fn deterministic_under_same_seed() {
        let plan = FaultPlan::none().with(
            Instant::ZERO,
            Instant::from_secs(1),
            FaultKind::Reorder {
                probability: 0.5,
                extra_delay: Duration::from_millis(20),
            },
        );
        let run = |seed| {
            let mut eng = FaultEngine::new(&plan, DetRng::new(seed));
            (0..64)
                .map(|i| {
                    eng.ack_fate(Instant::from_millis(i), Instant::from_millis(i + 40))
                        .1
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }
}
