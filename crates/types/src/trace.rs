//! Structured decision tracing.
//!
//! Libra's contribution is the *decision* — which candidate rate wins each
//! explore→evaluate→exploit cycle and why. This module gives every layer a
//! common, low-overhead way to record those decisions as typed events:
//!
//! * [`TraceEvent`] — the closed event taxonomy: cycle-stage transitions,
//!   full cycle decisions (candidate set, ordered rates, measured
//!   utilities, winner, early-exit flag), guardrail transitions, RL
//!   invalid-action rejections, fault-plan windows, RTOs,
//!   fast-retransmits and monitor-interval closes.
//! * [`TraceSink`] — where events go. [`RingRecorder`] keeps the last `N`
//!   events in a preallocated ring; [`NoopSink`] discards them.
//! * [`Tracer`] — the cheap, clonable handle handed down to controllers
//!   and senders. A disabled tracer is a `None` inside: the emit path is
//!   one branch and the event is never even constructed
//!   (see [`Tracer::emit_with`]).
//!
//! Determinism: events carry integer-nanosecond timestamps from the
//! simulation clock and are recorded in emit order, so for a fixed seed
//! the stream is byte-for-byte reproducible — including across sweep
//! worker counts, because recorders are per-flow and per-run.

use serde::Serialize;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// A control-cycle stage, as seen by the tracer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum TraceStage {
    /// Underlying classic still in slow start; cycle not engaged.
    Startup,
    /// Exploration MIs measuring `u_prev`.
    Explore,
    /// Evaluation MIs measuring the ordered candidates.
    Eval,
    /// Exploitation MIs sending at the winner rate.
    Exploit,
    /// Guardrail-degraded operation (pinned to the classic candidate).
    Degraded,
}

impl TraceStage {
    /// Stable lowercase label used in tables and JSONL.
    pub fn label(self) -> &'static str {
        match self {
            TraceStage::Startup => "startup",
            TraceStage::Explore => "explore",
            TraceStage::Eval => "eval",
            TraceStage::Exploit => "exploit",
            TraceStage::Degraded => "degraded",
        }
    }
}

/// A guardrail state-machine transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum GuardrailStep {
    /// HEALTHY → DEGRADED (invalid-action or utility-regression streak).
    Trip,
    /// One degraded MI elapsed without re-probing.
    DegradedTick,
    /// Backoff expired; re-probing the learned member.
    Reprobe,
    /// Re-probe validated a weight restore; back to HEALTHY.
    Restore,
}

impl GuardrailStep {
    /// Stable lowercase label used in tables and JSONL.
    pub fn label(self) -> &'static str {
        match self {
            GuardrailStep::Trip => "trip",
            GuardrailStep::DegradedTick => "degraded-tick",
            GuardrailStep::Reprobe => "reprobe",
            GuardrailStep::Restore => "restore",
        }
    }
}

/// Which member a candidate rate came from: the controller's candidate
/// set, shared by its cycle log and its trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum CandidateKind {
    /// The incumbent rate `x_prev`.
    Prev,
    /// The classic member's proposal `x_cl`.
    Classic,
    /// The learned member's proposal `x_rl`.
    Learned,
}

impl CandidateKind {
    /// Stable table label.
    pub fn label(self) -> &'static str {
        match self {
            CandidateKind::Prev => "x_prev",
            CandidateKind::Classic => "x_cl",
            CandidateKind::Learned => "x_rl",
        }
    }
}

/// One candidate in a cycle decision: its origin, the rate that was
/// evaluated, and the utility measured for it (`None` when its evaluation
/// MI was ACK-starved and produced no feedback).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CandidateSample {
    /// Which member proposed this rate.
    pub kind: CandidateKind,
    /// The rate evaluated, in Mbps.
    pub rate_mbps: f64,
    /// Measured utility, if the evaluation MI produced feedback.
    pub utility: Option<f64>,
}

/// One structured trace event. Timestamps are integer nanoseconds of
/// simulated time; rates are Mbps. Every variant carries the flow id it
/// belongs to (`u32::MAX` marks link-level events).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum TraceEvent {
    /// The controller entered a control-cycle stage.
    StageEnter {
        /// Flow id.
        flow: u32,
        /// Simulated time, ns.
        at_ns: u64,
        /// The stage entered.
        stage: TraceStage,
    },
    /// A control cycle closed with a decision.
    CycleDecision {
        /// Flow id.
        flow: u32,
        /// Simulated time, ns.
        at_ns: u64,
        /// The candidate set in evaluation (lower-rate-first) order.
        candidates: Vec<CandidateSample>,
        /// Utility of the incumbent measured during exploration, if any.
        u_prev: Option<f64>,
        /// The winning candidate.
        winner: CandidateKind,
        /// The winning rate, Mbps.
        rate_mbps: f64,
        /// True when evaluation was cut short by the early-exit rule.
        early_exit: bool,
    },
    /// The guardrail state machine moved.
    Guardrail {
        /// Flow id.
        flow: u32,
        /// Simulated time, ns.
        at_ns: u64,
        /// Which transition fired.
        step: GuardrailStep,
    },
    /// The RL member proposed invalid actions that were rejected.
    RlInvalidActions {
        /// Flow id.
        flow: u32,
        /// Simulated time, ns.
        at_ns: u64,
        /// How many rejections this MI.
        count: u64,
    },
    /// A scheduled fault window (link-level; `flow == u32::MAX`).
    FaultWindow {
        /// Always `u32::MAX` — the fault belongs to the link.
        flow: u32,
        /// Window start, ns.
        at_ns: u64,
        /// Window end, ns.
        until_ns: u64,
        /// Fault-kind label (e.g. `link-flap`, `reorder`).
        fault: String,
    },
    /// A retransmission timeout fired.
    Rto {
        /// Flow id.
        flow: u32,
        /// Simulated time, ns.
        at_ns: u64,
        /// Packets declared lost by the timeout.
        packets: u64,
    },
    /// Dup-ACK/reorder-window loss detection fired.
    FastRetransmit {
        /// Flow id.
        flow: u32,
        /// Simulated time, ns.
        at_ns: u64,
        /// Packets declared lost.
        packets: u64,
    },
    /// A batched policy-server evaluation ran for a decision tick
    /// (link-level; `flow == u32::MAX`). Carries only deterministic
    /// fields — the batch's wall-clock latency is accounted to the
    /// member flows' `compute_ns` instead, keeping the trace stream
    /// byte-for-byte reproducible.
    PolicyBatch {
        /// Always [`LINK_FLOW`] — the batch spans flows.
        flow: u32,
        /// Simulated time of the decision tick, ns.
        at_ns: u64,
        /// Number of flow requests served in one batched forward pass.
        size: u32,
    },
    /// An injected policy-boundary fault touched this flow's response
    /// (see [`crate::PolicyFaultKind`]).
    PolicyFault {
        /// Flow id.
        flow: u32,
        /// Simulated time of the decision tick, ns.
        at_ns: u64,
        /// Fault-kind label (e.g. `response-drop`, `nan-action`).
        fault: String,
    },
    /// The policy server refused to batch this flow's request (invalid
    /// state vector) and served a fallback instead, protecting the rest
    /// of the batch group.
    Quarantine {
        /// Flow id.
        flow: u32,
        /// Simulated time of the decision tick, ns.
        at_ns: u64,
    },
    /// The resolve-side degradation ladder served stale last-good
    /// actions in place of missing/invalid policy responses.
    Fallback {
        /// Flow id.
        flow: u32,
        /// Simulated time, ns.
        at_ns: u64,
        /// How many stale ticks were served since the last report.
        ticks: u64,
    },
    /// A monitor interval closed.
    MiClose {
        /// Flow id.
        flow: u32,
        /// Simulated time, ns.
        at_ns: u64,
        /// Bytes acknowledged in the interval.
        acked_bytes: u64,
        /// Bytes declared lost in the interval.
        lost_bytes: u64,
        /// True when the interval saw no ACKs at all.
        ack_starved: bool,
    },
}

impl TraceEvent {
    /// The event's timestamp in nanoseconds.
    pub fn at_ns(&self) -> u64 {
        match *self {
            TraceEvent::StageEnter { at_ns, .. }
            | TraceEvent::CycleDecision { at_ns, .. }
            | TraceEvent::Guardrail { at_ns, .. }
            | TraceEvent::RlInvalidActions { at_ns, .. }
            | TraceEvent::FaultWindow { at_ns, .. }
            | TraceEvent::Rto { at_ns, .. }
            | TraceEvent::FastRetransmit { at_ns, .. }
            | TraceEvent::PolicyBatch { at_ns, .. }
            | TraceEvent::PolicyFault { at_ns, .. }
            | TraceEvent::Quarantine { at_ns, .. }
            | TraceEvent::Fallback { at_ns, .. }
            | TraceEvent::MiClose { at_ns, .. } => at_ns,
        }
    }

    /// The flow the event belongs to (`u32::MAX` = link-level).
    pub fn flow(&self) -> u32 {
        match *self {
            TraceEvent::StageEnter { flow, .. }
            | TraceEvent::CycleDecision { flow, .. }
            | TraceEvent::Guardrail { flow, .. }
            | TraceEvent::RlInvalidActions { flow, .. }
            | TraceEvent::FaultWindow { flow, .. }
            | TraceEvent::Rto { flow, .. }
            | TraceEvent::FastRetransmit { flow, .. }
            | TraceEvent::PolicyBatch { flow, .. }
            | TraceEvent::PolicyFault { flow, .. }
            | TraceEvent::Quarantine { flow, .. }
            | TraceEvent::Fallback { flow, .. }
            | TraceEvent::MiClose { flow, .. } => flow,
        }
    }
}

/// Where trace events go. Implementations must be cheap: the caller has
/// already paid the enabled check before constructing the event.
pub trait TraceSink {
    /// Record one event.
    fn emit(&mut self, ev: TraceEvent);
}

/// Discards every event. The default sink.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopSink;

impl TraceSink for NoopSink {
    fn emit(&mut self, _ev: TraceEvent) {}
}

/// A preallocated ring buffer keeping the most recent `capacity` events.
/// When full, the oldest event is evicted and counted in
/// [`dropped`](RingRecorder::dropped) so consumers can tell a complete
/// stream from a truncated one.
#[derive(Debug)]
pub struct RingRecorder {
    buf: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl RingRecorder {
    /// A recorder holding at most `capacity` events (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        RingRecorder {
            buf: VecDeque::with_capacity(capacity),
            capacity,
            dropped: 0,
        }
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been recorded (or everything drained).
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// How many events were evicted to make room.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Iterate the held events oldest-first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.buf.iter()
    }

    /// Remove and return every held event, oldest-first.
    pub fn drain(&mut self) -> Vec<TraceEvent> {
        self.buf.drain(..).collect()
    }
}

impl TraceSink for RingRecorder {
    fn emit(&mut self, ev: TraceEvent) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(ev);
    }
}

/// Flow id used for link-level events.
pub const LINK_FLOW: u32 = u32::MAX;

/// The handle emitters hold. Cloning is cheap (an `Option<Rc>` and a
/// `u32`); a default/`disabled` tracer costs one branch per emit site and
/// never constructs the event.
#[derive(Clone, Default)]
pub struct Tracer {
    sink: Option<Rc<RefCell<dyn TraceSink>>>,
    flow: u32,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.is_enabled())
            .field("flow", &self.flow)
            .finish()
    }
}

impl Tracer {
    /// The no-op tracer (same as `Tracer::default()`).
    pub fn disabled() -> Self {
        Tracer::default()
    }

    /// A tracer feeding `sink`, tagged with `flow`.
    pub fn new(sink: Rc<RefCell<dyn TraceSink>>, flow: u32) -> Self {
        Tracer {
            sink: Some(sink),
            flow,
        }
    }

    /// A tracer backed by a fresh [`RingRecorder`]; returns the recorder
    /// handle for reading the events back after the run.
    pub fn ring(capacity: usize, flow: u32) -> (Self, Rc<RefCell<RingRecorder>>) {
        let rec = Rc::new(RefCell::new(RingRecorder::new(capacity)));
        (Tracer::new(rec.clone(), flow), rec)
    }

    /// True when events will actually be recorded.
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// The flow id this tracer tags its events with.
    pub fn flow(&self) -> u32 {
        self.flow
    }

    /// Record `ev` if enabled.
    #[inline]
    pub fn emit(&self, ev: TraceEvent) {
        if let Some(sink) = &self.sink {
            sink.borrow_mut().emit(ev);
        }
    }

    /// Record the event built by `make` — called only when enabled, so the
    /// disabled path never allocates.
    #[inline]
    pub fn emit_with(&self, make: impl FnOnce() -> TraceEvent) {
        if let Some(sink) = &self.sink {
            sink.borrow_mut().emit(make());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at_ns: u64) -> TraceEvent {
        TraceEvent::StageEnter {
            flow: 0,
            at_ns,
            stage: TraceStage::Explore,
        }
    }

    #[test]
    fn ring_keeps_most_recent_and_counts_drops() {
        let mut r = RingRecorder::new(3);
        for t in 0..5 {
            r.emit(ev(t));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
        let held: Vec<u64> = r.events().map(|e| e.at_ns()).collect();
        assert_eq!(held, vec![2, 3, 4]);
        assert_eq!(r.drain().len(), 3);
        assert!(r.is_empty());
    }

    #[test]
    fn disabled_tracer_never_builds_the_event() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        let mut built = false;
        t.emit_with(|| {
            built = true;
            ev(0)
        });
        assert!(!built);
    }

    #[test]
    fn ring_tracer_records_in_order() {
        let (t, rec) = Tracer::ring(16, 7);
        assert!(t.is_enabled());
        assert_eq!(t.flow(), 7);
        t.emit(ev(1));
        t.emit_with(|| ev(2));
        let held: Vec<u64> = rec.borrow().events().map(|e| e.at_ns()).collect();
        assert_eq!(held, vec![1, 2]);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(TraceStage::Exploit.label(), "exploit");
        assert_eq!(GuardrailStep::DegradedTick.label(), "degraded-tick");
        assert_eq!(CandidateKind::Learned.label(), "x_rl");
    }

    #[test]
    fn events_serialize_without_panicking() {
        let e = TraceEvent::CycleDecision {
            flow: 0,
            at_ns: 5,
            candidates: vec![CandidateSample {
                kind: CandidateKind::Prev,
                rate_mbps: 10.0,
                utility: None,
            }],
            u_prev: Some(1.5),
            winner: CandidateKind::Prev,
            rate_mbps: 10.0,
            early_exit: false,
        };
        let v = serde::Serialize::to_value(&e);
        // Enum struct variants render as {"CycleDecision": {...}}.
        let s = format!("{v:?}");
        assert!(s.contains("CycleDecision"), "{s}");
    }

    #[test]
    fn policy_fault_events_carry_flow_and_time() {
        let events = [
            TraceEvent::PolicyFault {
                flow: 3,
                at_ns: 10,
                fault: "response-drop".to_string(),
            },
            TraceEvent::Quarantine { flow: 3, at_ns: 11 },
            TraceEvent::Fallback {
                flow: 3,
                at_ns: 12,
                ticks: 4,
            },
        ];
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.flow(), 3);
            assert_eq!(e.at_ns(), 10 + i as u64);
            let v = serde::Serialize::to_value(e);
            assert!(!format!("{v:?}").is_empty());
        }
    }
}
