//! The discrete-event simulation: a dumbbell topology with one bottleneck
//! link shared by any number of flows.
//!
//! Topology (the Mahimahi model):
//!
//! ```text
//! sender(s) ──► droptail queue ──► bottleneck (trace-driven rate)
//!                                        │  propagation delay
//!                                        ▼
//!                                    receiver ──► ACK path (delay + jitter)
//! ```
//!
//! Data packets from all flows share the FIFO queue; the link serializes
//! them at the (possibly time-varying) capacity; ACKs return on an
//! uncongested reverse path. Stochastic loss is applied at link egress so
//! a lost packet still consumed queue space and capacity.

use crate::capacity::{merge_outages, CapacitySchedule};
use crate::faults::{FaultEngine, FaultKind, FaultPlan, FaultReport};
use crate::loss::LossProcess;
use crate::packet::{AckPacket, FlowId, Packet};
use crate::pool::{PacketHandle, PacketPool};
use crate::queue::{AnyQueue, EcnConfig, Enqueue, QueueConfig, QueueDiscipline};
use crate::sender::{BinSeries, FlowSender, RttSeries};
use crate::wheel::{TimedEntry, TimerWheel};
use libra_types::{
    Bytes, CongestionControl, DetRng, Duration, Instant, PolicyRequest, PolicyService, Rate,
    RingRecorder, TraceEvent, TraceSink, Tracer, Welford, LINK_FLOW,
};
use std::cell::RefCell;
use std::rc::Rc;

/// Bottleneck-link configuration.
#[derive(Debug, Clone)]
pub struct LinkConfig {
    /// Capacity profile.
    pub capacity: CapacitySchedule,
    /// One-way propagation delay (minimum RTT = 2 × this).
    pub one_way_delay: Duration,
    /// Droptail buffer size in bytes.
    pub buffer: Bytes,
    /// Bernoulli stochastic loss probability applied at link egress.
    /// For bursty (Gilbert–Elliott) loss set [`LinkConfig::loss_process`]
    /// instead, which takes precedence when present.
    pub stochastic_loss: f64,
    /// Uniform jitter added to the ACK path, `[0, ack_jitter]`.
    pub ack_jitter: Duration,
    /// Optional explicit loss process (overrides `stochastic_loss`).
    pub loss_process: Option<LossProcess>,
    /// Optional ECN step-marking at the queue (DCTCP-style).
    pub ecn: Option<EcnConfig>,
    /// Scheduled fault injection (flaps, reordering, duplication, ACK
    /// compression, delay spikes, burst loss). Empty by default.
    pub faults: FaultPlan,
    /// Queue discipline at the bottleneck buffer (droptail by default;
    /// CoDel/PIE/token-bucket for the scenario zoo).
    pub queue: QueueConfig,
}

impl LinkConfig {
    /// A constant-rate link with the given RTT and a buffer of `bdp_mult`
    /// bandwidth-delay products — the most common experimental setup in
    /// the paper ("1 BDP buffer").
    pub fn constant(rate: Rate, min_rtt: Duration, bdp_mult: f64) -> Self {
        let bdp = Bytes::bdp(rate, min_rtt);
        LinkConfig {
            capacity: CapacitySchedule::constant(rate),
            one_way_delay: min_rtt / 2,
            buffer: Bytes::new(((bdp.get() as f64 * bdp_mult) as u64).max(3000)),
            stochastic_loss: 0.0,
            ack_jitter: Duration::ZERO,
            loss_process: None,
            ecn: None,
            faults: FaultPlan::default(),
            queue: QueueConfig::Droptail,
        }
    }

    /// Same, but with an explicit byte buffer (e.g. the paper's 150 KB).
    pub fn constant_with_buffer(rate: Rate, min_rtt: Duration, buffer: Bytes) -> Self {
        LinkConfig {
            capacity: CapacitySchedule::constant(rate),
            one_way_delay: min_rtt / 2,
            buffer,
            stochastic_loss: 0.0,
            ack_jitter: Duration::ZERO,
            loss_process: None,
            ecn: None,
            faults: FaultPlan::default(),
            queue: QueueConfig::Droptail,
        }
    }

    /// Attach a fault plan (builder style).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Swap the bottleneck queue discipline (builder style).
    pub fn with_queue(mut self, queue: QueueConfig) -> Self {
        self.queue = queue;
        self
    }
}

/// Simulation-level knobs that are not properties of the link.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Record structured trace events (cycle decisions, guardrail moves,
    /// RTOs, MI closes, fault windows). Off by default: the disabled path
    /// is a single branch per emit site and never constructs an event.
    pub trace: bool,
    /// Per-flow ring-recorder capacity; the oldest events are evicted
    /// (and counted) beyond this.
    pub trace_capacity: usize,
    /// Livelock/event-storm watchdog budgets. Inactive by default: the
    /// default hot loop carries a single boolean branch per pop.
    pub budget: SimBudget,
    /// Align decision ticks to a time grid: each flow's next MI tick is
    /// rounded *up* to the next multiple of this quantum, so the ticks of
    /// many flows land on the same instant and can share one batched
    /// policy inference. `None` (the default) keeps every tick exactly
    /// where the controller asked for it. Applied identically with and
    /// without an attached policy service, so batched and per-flow runs
    /// under the same quantum stay comparable.
    pub mi_quantum: Option<Duration>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            trace: false,
            trace_capacity: 65_536,
            budget: SimBudget::default(),
            mi_quantum: None,
        }
    }
}

impl SimConfig {
    /// Tracing enabled at the default capacity.
    pub fn traced() -> Self {
        SimConfig {
            trace: true,
            ..SimConfig::default()
        }
    }

    /// Watchdogs armed at the [`SimBudget::standard`] limits.
    pub fn supervised() -> Self {
        SimConfig {
            budget: SimBudget::standard(),
            ..SimConfig::default()
        }
    }

    /// Align decision ticks to a grid (builder style); see
    /// [`SimConfig::mi_quantum`].
    pub fn with_mi_quantum(mut self, quantum: Duration) -> Self {
        self.mi_quantum = Some(quantum);
        self
    }
}

/// Round `next` up to the next multiple of `quantum` (identity when it
/// already sits on the grid). A zero quantum is treated as "no grid".
fn quantize_mi(next: Instant, quantum: Duration) -> Instant {
    let q = quantum.nanos();
    if q == 0 {
        return next;
    }
    let n = next.nanos();
    let rem = n % q;
    if rem == 0 {
        next
    } else {
        Instant::from_nanos(n - rem + q)
    }
}

/// Watchdog budgets for one simulation run. Every limit is optional and
/// `None` by default, so an unsupervised run pays one branch per event
/// pop and can never trip. A healthy run at the paper's scales sits
/// orders of magnitude under the [`SimBudget::standard`] limits; a
/// livelocked or event-storming controller hits them in bounded time
/// instead of spinning forever.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimBudget {
    /// Maximum events dispatched inside any one sim-second.
    pub max_events_per_sim_sec: Option<u64>,
    /// Maximum outstanding events in the heap at any point.
    pub max_heap_events: Option<usize>,
    /// Maximum consecutive pops that do not advance the sim clock.
    pub max_zero_progress_pops: Option<u64>,
    /// Wall-clock budget for the whole run, in milliseconds. Reads go
    /// through the audited [`crate::host_clock`] waiver and are checked
    /// every few thousand pops, so enforcement granularity is coarse.
    pub wall_limit_ms: Option<u64>,
}

impl SimBudget {
    /// Generous production limits: far above anything a sane run needs
    /// (a saturated 100 Mbps link generates ~5 × 10⁴ events per
    /// sim-second; these trip at 5 × 10⁷), tight enough to bound a
    /// runaway controller. No wall limit — that is a per-job decision.
    pub fn standard() -> Self {
        SimBudget {
            max_events_per_sim_sec: Some(50_000_000),
            max_heap_events: Some(8_000_000),
            max_zero_progress_pops: Some(5_000_000),
            wall_limit_ms: None,
        }
    }

    /// Attach a wall-clock limit (builder style).
    pub fn with_wall_limit_ms(mut self, ms: u64) -> Self {
        self.wall_limit_ms = Some(ms);
        self
    }

    /// Whether any limit is armed.
    pub fn is_active(&self) -> bool {
        self.max_events_per_sim_sec.is_some()
            || self.max_heap_events.is_some()
            || self.max_zero_progress_pops.is_some()
            || self.wall_limit_ms.is_some()
    }
}

/// Which watchdog budget a run exceeded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetKind {
    /// Too many events dispatched inside one sim-second.
    EventStorm,
    /// The event heap outgrew its cap.
    HeapGrowth,
    /// Too many consecutive pops without the sim clock advancing.
    Livelock,
    /// The run exceeded its wall-clock budget.
    WallDeadline,
}

impl BudgetKind {
    /// Stable lower-case label for diagnostics.
    pub fn label(&self) -> &'static str {
        match self {
            BudgetKind::EventStorm => "event-storm",
            BudgetKind::HeapGrowth => "heap-growth",
            BudgetKind::Livelock => "livelock",
            BudgetKind::WallDeadline => "wall-deadline",
        }
    }
}

/// Diagnostic record of a tripped watchdog, returned by
/// [`Simulation::try_run`] (and carried as the panic payload by
/// [`Simulation::run`] so supervisors can downcast it). All fields
/// except a [`BudgetKind::WallDeadline`]'s timing are deterministic
/// functions of `(configuration, seed)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BudgetTrip {
    /// Which budget tripped.
    pub kind: BudgetKind,
    /// Sim time of the trip, in nanoseconds.
    pub at_ns: u64,
    /// The configured limit that was exceeded.
    pub limit: u64,
    /// Human-readable description (deterministic: no host readings).
    pub detail: String,
}

impl std::fmt::Display for BudgetTrip {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "sim budget trip [{}] at t={:.3}s: {}",
            self.kind.label(),
            self.at_ns as f64 / 1e9,
            self.detail
        )
    }
}

/// Per-flow experiment configuration.
pub struct FlowConfig {
    /// The congestion controller under test.
    pub cca: Box<dyn CongestionControl>,
    /// First transmission time.
    pub start: Instant,
    /// Transmissions cease at this time.
    pub stop: Instant,
    /// Segment size (default 1500).
    pub mss: u64,
    /// Whether to time controller callbacks (CPU-overhead metric).
    pub measure_compute: bool,
}

impl FlowConfig {
    /// A bulk flow running from `start` to `stop` with default MSS.
    pub fn new(cca: Box<dyn CongestionControl>, start: Instant, stop: Instant) -> Self {
        FlowConfig {
            cca,
            start,
            stop,
            mss: 1500,
            measure_compute: true,
        }
    }

    /// A bulk flow covering the whole experiment.
    pub fn whole_run(cca: Box<dyn CongestionControl>, until: Instant) -> Self {
        FlowConfig::new(cca, Instant::ZERO, until)
    }
}

/// Goodput-series bin width of every flow.
const METRICS_BIN: Duration = Duration::from_millis(100);

/// Wheel lane of [`Event::ServiceDone`]: at most one is pending, and each
/// is scheduled at or after the previous one's completion, under every
/// link, trace and fault plan.
const SERVICE_LANE: usize = 0;
/// Wheel lane of [`Event::AckArrive`]s while `acks_in_order` holds (no
/// fault plan, no ACK jitter): each is due one link completion plus
/// twice the one-way delay, so their due times never decrease. Jittered,
/// fault-shifted and duplicated ACKs take the slots.
const ACK_LANE: usize = 1;
/// Wheel lane of [`Event::PacerWake`]s due no earlier than the lane's
/// tail (`TimerWheel::lane_accepts`): a paced flow's wakes advance with
/// its pacing clock, so a single flow's always qualify; a wake of
/// another flow due sooner takes the slots.
const WAKE_LANE: usize = 2;
/// Wheel lane of [`Event::RtoCheck`]s, admitted by the same tail rule:
/// each flow keeps one pending check, re-armed later on every dispatch
/// (its first, scheduled at set-up, takes the slots).
const RTO_LANE: usize = 3;

#[derive(Debug)]
enum Event {
    FlowStart(FlowId),
    FlowStop(FlowId),
    PacerWake(FlowId),
    ServiceDone,
    AckArrive(AckPacket),
    MiTick(FlowId),
    RtoCheck(FlowId),
}

/// Results for one flow after a run.
pub struct FlowReport {
    /// Flow identity.
    pub id: FlowId,
    /// Controller name.
    pub name: &'static str,
    /// Configured start/stop.
    pub start: Instant,
    /// Configured stop.
    pub stop: Instant,
    /// Bytes handed to the network.
    pub sent_bytes: u64,
    /// Bytes acknowledged.
    pub delivered_bytes: u64,
    /// Packets acknowledged.
    pub acked_packets: u64,
    /// Packets declared lost.
    pub lost_packets: u64,
    /// Average goodput over the flow's configured lifetime.
    pub avg_goodput: Rate,
    /// RTT sample statistics (milliseconds).
    pub rtt_ms: Welford,
    /// Fraction of resolved packets that were lost.
    pub loss_fraction: f64,
    /// Goodput series: packets delivered per bin of absolute sim time,
    /// one varint per bin, moved from the sender at finalize;
    /// [`points`](BinSeries::points) yields `(seconds, Mbps)`.
    pub goodput_series: BinSeries,
    /// Sparse RTT series, packed `(Δ ns, RTT ns)` samples moved from the
    /// sender at finalize; [`points`](RttSeries::points) yields
    /// `(seconds, ms)`.
    pub rtt_series: RttSeries,
    /// Streaming P² estimate of the 95th-percentile RTT in milliseconds
    /// (0 when no RTT samples were observed).
    pub rtt_p95_ms: f64,
    /// ECN congestion echoes received.
    pub ecn_echoes: u64,
    /// Wall-clock nanoseconds spent inside the controller. A batched
    /// policy forward's wall time, which may be spread over two cores,
    /// is split evenly over the flows in the batch: this is elapsed
    /// time, not CPU time.
    pub compute_ns: u64,
    /// Policy responses touched by an injected boundary fault (0 without
    /// a policy fault plan).
    pub policy_faults: u64,
    /// Policy requests quarantined for invalid state vectors.
    pub policy_quarantines: u64,
    /// Structured trace events for this flow, in emit order (empty when
    /// tracing is disabled).
    pub trace: Vec<TraceEvent>,
    /// Events evicted from the flow's ring recorder (0 = complete stream).
    pub trace_dropped: u64,
    /// The controller itself, returned for post-run inspection.
    pub cca: Box<dyn CongestionControl>,
}

// `finalize` turns the senders into reports in their own buffer: std's
// in-place `collect` applies only when the two types share an alignment
// and a report is no larger than a sender. A `u128` in the sender (the
// MI tracker's RTT sum, before that state moved behind a box) once
// raised its alignment to 16, and every run's peak then held a second,
// fresh buffer of n reports while all n senders were still live.
const _: () = assert!(
    std::mem::align_of::<FlowSender>() == std::mem::align_of::<FlowReport>()
        && std::mem::size_of::<FlowReport>() <= std::mem::size_of::<FlowSender>()
);

/// The smallest count of senders whose bytes are a whole number of
/// reports (39 at 560 B per sender and 312 B per report): the period
/// `finalize` rounds the senders' capacity to.
const WHOLE_REPORT_SENDERS: usize = {
    let (sender, report) = (
        std::mem::size_of::<FlowSender>(),
        std::mem::size_of::<FlowReport>(),
    );
    let (mut a, mut b) = (sender, report);
    while b != 0 {
        (a, b) = (b, a % b);
    }
    report / a
};

/// Results for the bottleneck link.
#[derive(Debug, Clone)]
pub struct LinkReport {
    /// Bytes the capacity profile could have carried.
    pub capacity_bytes: f64,
    /// Bytes actually delivered to receivers (all flows).
    pub delivered_bytes: u64,
    /// `delivered / capacity` (clamped to [0, 1] against rounding).
    pub utilization: f64,
    /// Time-averaged queue occupancy in bytes.
    pub mean_queue_bytes: f64,
    /// Packets dropped by the queue discipline (tail, AQM early, and AQM
    /// head drops together).
    pub tail_drops: u64,
    /// Packets dropped by the stochastic loss process.
    pub stochastic_drops: u64,
    /// Bytes offered to (admitted into) the bottleneck queue.
    pub queue_admitted_bytes: u64,
    /// Bytes refused at enqueue (tail drop, PIE early drop, policer).
    pub queue_dropped_bytes: u64,
    /// Bytes dequeued into the link.
    pub queue_dequeued_bytes: u64,
    /// Bytes admitted and later shed from the head by an AQM control law
    /// (CoDel). Always zero for droptail.
    pub queue_aqm_dropped_bytes: u64,
    /// Bytes still sitting in the queue when the run ended.
    pub queue_residual_bytes: u64,
}

/// Results of one simulation run.
pub struct SimReport {
    /// Duration simulated.
    pub duration: Duration,
    /// One report per flow, in `add_flow` order.
    pub flows: Vec<FlowReport>,
    /// Link-level aggregates.
    pub link: LinkReport,
    /// Per-fault-type activation counters (all zero without a fault plan).
    pub faults: FaultReport,
    /// Link-level trace events (scheduled fault windows), tagged
    /// [`LINK_FLOW`]; empty when tracing is disabled.
    pub link_trace: Vec<TraceEvent>,
}

impl SimReport {
    /// Jain's fairness index over flow goodputs (allocation-free; same
    /// formula and edge cases as [`libra_types::jain_index`]).
    pub fn jain_index(&self) -> f64 {
        if self.flows.is_empty() {
            return 1.0;
        }
        let (mut sum, mut sumsq) = (0.0_f64, 0.0_f64);
        for f in &self.flows {
            let x = f.avg_goodput.mbps();
            sum += x;
            sumsq += x * x;
        }
        if sumsq <= 0.0 {
            return 1.0;
        }
        sum * sum / (self.flows.len() as f64 * sumsq)
    }

    /// Mean RTT across flows, weighted by sample counts.
    pub fn mean_rtt_ms(&self) -> f64 {
        let (mut sum, mut n) = (0.0, 0u64);
        for f in &self.flows {
            sum += f.rtt_ms.mean() * f.rtt_ms.count() as f64;
            n += f.rtt_ms.count();
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }
}

/// The simulation itself. Build with [`Simulation::new`], add flows, then
/// [`run`](Simulation::run).
pub struct Simulation {
    now: Instant,
    /// The event scheduler (under `checked-invariants` it checks every
    /// pop against a reference heap — see [`crate::wheel`]).
    events: TimerWheel<Event>,
    eseq: u64,
    // Link state.
    capacity: CapacitySchedule,
    queue: AnyQueue,
    /// Slab arena for every packet resident in the network (queued or in
    /// service); disciplines store 8-byte handles into it.
    pool: PacketPool,
    busy: bool,
    in_service: Option<PacketHandle>,
    one_way_delay: Duration,
    loss: LossProcess,
    ecn: Option<EcnConfig>,
    ack_jitter: Duration,
    loss_rng: DetRng,
    jitter_rng: DetRng,
    faults: FaultEngine,
    /// False when the fault plan is empty — lets the per-packet ACK path
    /// skip the fault engine entirely.
    faults_active: bool,
    /// The link-flap outages, merged as the capacity overlay sees them.
    flap_windows: Vec<(Instant, Instant)>,
    /// Cached capacity-segment index for the service loop. Service starts
    /// are monotone in time, so the segment advances amortized-O(1)
    /// instead of re-binary-searching the schedule per packet.
    cap_cursor: usize,
    // Flows.
    flows: Vec<FlowSender>,
    /// Scratch buffer for [`FlowSender::try_emit`], reused across pumps
    /// so the emit path never allocates.
    emit_scratch: Vec<Packet>,
    /// The lane gate: with no fault plan and no ACK jitter, ACKs are
    /// scheduled in due-time order and ride [`ACK_LANE`]. Either one can
    /// shift an ACK ahead of one scheduled before it, so each ACK then
    /// takes the slots — still one event per ACK.
    acks_in_order: bool,
    /// Shared batched-inference service for learned controllers. When
    /// attached, decision ticks go through the two-phase submit/resolve
    /// boundary and same-instant ticks share one forward pass.
    policy: Option<Rc<RefCell<dyn PolicyService>>>,
    /// Reused policy-request pool (inner buffers keep their capacity).
    policy_requests: Vec<PolicyRequest>,
    /// Reused gather buffer for one decision tick: each same-instant
    /// flow, and whether its controller is owed a policy action.
    mi_ticks: Vec<(FlowId, bool)>,
    // Tracing.
    cfg: SimConfig,
    /// One recorder per flow when tracing is on (index-aligned with
    /// `flows`); empty when tracing is off.
    recorders: Vec<Rc<RefCell<RingRecorder>>>,
    link_recorder: Option<Rc<RefCell<RingRecorder>>>,
    // Metrics.
    delivered_link_bytes: u64,
    stochastic_drops: u64,
}

impl Simulation {
    /// Create a simulation over `link`, seeded for determinism.
    pub fn new(link: LinkConfig, seed: u64) -> Self {
        Simulation::with_config(link, seed, SimConfig::default())
    }

    /// Like [`Simulation::new`], with explicit simulation-level knobs.
    pub fn with_config(link: LinkConfig, seed: u64, cfg: SimConfig) -> Self {
        let mut root = DetRng::new(seed);
        let flap_windows = merge_outages(
            link.faults
                .events
                .iter()
                .filter(|e| matches!(e.kind, FaultKind::LinkFlap))
                .map(|e| (e.from, e.to)),
        );
        let faults_active = !link.faults.is_empty();
        // Scheduled fault windows are known up front; record them once at
        // construction so the timeline shows what the link will do without
        // any per-packet tracing cost.
        let link_recorder = if cfg.trace && faults_active {
            let rec = Rc::new(RefCell::new(RingRecorder::new(cfg.trace_capacity)));
            {
                let mut r = rec.borrow_mut();
                for ev in &link.faults.events {
                    r.emit(TraceEvent::FaultWindow {
                        flow: LINK_FLOW,
                        at_ns: ev.from.nanos(),
                        until_ns: ev.to.nanos(),
                        fault: ev.kind.label().to_string(),
                    });
                }
            }
            Some(rec)
        } else {
            None
        };
        // Forked in a fixed order; the first three streams predate the AQM
        // layer, so droptail runs replay byte-identically. The AQM stream
        // only feeds PIE's early-drop coin flips.
        let loss_rng = root.fork("link-loss");
        let jitter_rng = root.fork("ack-jitter");
        let faults_rng = root.fork("faults");
        let aqm_rng = root.fork("aqm");
        let acks_in_order = !faults_active && link.ack_jitter.is_zero();
        Simulation {
            now: Instant::ZERO,
            events: TimerWheel::new(),
            eseq: 0,
            // Link-flap faults become zero-capacity windows on the schedule:
            // packets in service wait the outage out like a trace blackout.
            capacity: link.capacity.with_outages(&flap_windows),
            queue: AnyQueue::build(link.queue, link.buffer, aqm_rng),
            // Resident packets are bounded by buffer bytes / MSS plus the
            // one in service; pre-size for a typical BDP-scale buffer.
            pool: PacketPool::with_capacity(256),
            busy: false,
            in_service: None,
            one_way_delay: link.one_way_delay,
            loss: link
                .loss_process
                .unwrap_or_else(|| LossProcess::bernoulli(link.stochastic_loss)),
            ecn: link.ecn,
            ack_jitter: link.ack_jitter,
            loss_rng,
            jitter_rng,
            faults: FaultEngine::new(&link.faults, faults_rng),
            faults_active,
            flap_windows,
            cap_cursor: 0,
            flows: Vec::new(),
            emit_scratch: Vec::with_capacity(64),
            acks_in_order,
            policy: None,
            policy_requests: Vec::new(),
            mi_ticks: Vec::new(),
            cfg,
            recorders: Vec::new(),
            link_recorder,
            delivered_link_bytes: 0,
            stochastic_drops: 0,
        }
    }

    /// Attach a shared policy service (e.g. `libra_rl::PolicyServer`).
    /// Decision ticks then run through the two-phase submit/resolve
    /// boundary: every MI tick scheduled for the same instant submits its
    /// state first, the service evaluates all submissions in one batched
    /// forward pass, and each tick completes in the original dispatch
    /// order — byte-identical to per-flow inference (see
    /// [`Simulation::dispatch_mi_ticks`]). Evaluation is synchronous
    /// inside the event loop; no threads are involved.
    pub fn attach_policy(&mut self, policy: Rc<RefCell<dyn PolicyService>>) {
        self.policy = Some(policy);
    }

    /// Add a flow; returns its id.
    pub fn add_flow(&mut self, cfg: FlowConfig) -> FlowId {
        let id = FlowId(self.flows.len() as u32);
        let init_rtt = self.one_way_delay * 2;
        let mut sender = FlowSender::new(
            id,
            cfg.cca,
            cfg.mss,
            cfg.start,
            cfg.stop,
            init_rtt,
            METRICS_BIN,
        );
        sender.measure_compute = cfg.measure_compute;
        if self.cfg.trace {
            let (tracer, rec) = Tracer::ring(self.cfg.trace_capacity, id.0);
            // The controller and the transport share the flow's recorder,
            // so cycle decisions interleave with RTOs/MI closes in emit
            // order.
            sender.cca.attach_tracer(tracer.clone());
            sender.tracer = tracer;
            self.recorders.push(rec);
        }
        self.schedule(cfg.start, Event::FlowStart(id));
        self.schedule(cfg.stop, Event::FlowStop(id));
        // MI clock starts one init-RTT after the flow starts — for the
        // controllers that have one. A tick on a clockless flow would
        // close an interval nobody reads and end in a pump that cannot
        // send (window, pacing rate and next-send time only change inside
        // events that already pump), so it is never scheduled.
        if sender.has_mi_clock() {
            self.schedule(cfg.start + init_rtt, Event::MiTick(id));
        }
        // The flow's one pending RTO check: each dispatch schedules at
        // most one successor. The first takes the slots like every other
        // set-up event: filling the RTO lane here grows its ring buffer
        // between the flows' own allocations, which on 1000-flow fleets
        // moved `add_flow`'s cost by a third through glibc heap trimming.
        self.schedule_in_slots(cfg.start + Duration::from_millis(200), Event::RtoCheck(id));
        self.flows.push(sender);
        id
    }

    // Inlined into every caller: out of line, it reads the caller's
    // freshly written `Event` back with wider loads than the stores that
    // wrote it, a store-forwarding stall on every scheduled event.
    #[inline(always)]
    fn schedule(&mut self, at: Instant, event: Event) {
        self.eseq += 1;
        let entry = TimedEntry {
            at,
            seq: self.eseq,
            event,
        };
        // The two constant-delay kinds skip the slots: their due times
        // never decrease in schedule order (see `SERVICE_LANE`, `ACK_LANE`).
        // Pacer wakes and RTO checks do whenever they keep their lane
        // sorted (see `WAKE_LANE`, `RTO_LANE`).
        match entry.event {
            Event::ServiceDone => self.events.push_lane(SERVICE_LANE, entry),
            Event::AckArrive(_) if self.acks_in_order => self.events.push_lane(ACK_LANE, entry),
            Event::PacerWake(_) if self.events.lane_accepts(WAKE_LANE, at) => {
                self.events.push_lane(WAKE_LANE, entry)
            }
            Event::RtoCheck(_) if self.events.lane_accepts(RTO_LANE, at) => {
                self.events.push_lane(RTO_LANE, entry)
            }
            _ => self.events.push(entry),
        }
    }

    /// Schedule `event` into the wheel's slots, whatever its kind.
    fn schedule_in_slots(&mut self, at: Instant, event: Event) {
        self.eseq += 1;
        self.events.push(TimedEntry {
            at,
            seq: self.eseq,
            event,
        });
    }

    /// Run until `until`; consumes the simulation and returns the report.
    ///
    /// If a [`SimBudget`] watchdog trips, panics via
    /// `std::panic::panic_any` with the [`BudgetTrip`] as payload so a
    /// supervising `catch_unwind` can downcast and classify it. Callers
    /// that want the trip as a value use [`Simulation::try_run`].
    pub fn run(self, until: Instant) -> SimReport {
        match self.try_run(until) {
            Ok(report) => report,
            Err(trip) => std::panic::panic_any(trip),
        }
    }

    /// Like [`Simulation::run`], but a tripped watchdog budget aborts
    /// the run and comes back as `Err(BudgetTrip)` instead of a panic.
    // Audited taint barrier: the wall stamp only arms the watchdog
    // abort; it never enters the SimReport.
    // lint: allow(nondeterminism_taint)
    pub fn try_run(mut self, until: Instant) -> Result<SimReport, BudgetTrip> {
        let budget = self.cfg.budget.clone();
        let budget_active = budget.is_active();
        // Watchdog state: consecutive same-timestamp pops, events inside
        // the current sim-second, total pops (wall-check cadence), and
        // the wall stamp (taken only when a wall limit is armed).
        let mut zero_progress: u64 = 0;
        let mut window_sec: u64 = u64::MAX;
        let mut window_events: u64 = 0;
        let mut pops: u64 = 0;
        let wall_start = budget.wall_limit_ms.map(|_| crate::host_clock::stamp());
        while let Some(entry) = self.events.pop() {
            if entry.at > until {
                break;
            }
            debug_assert!(entry.at >= self.now, "event time went backwards");
            // `checked-invariants`: the monotonic-sim-clock promise is a
            // hard assert, not just a debug check — a backwards event
            // would silently corrupt every downstream time integral.
            #[cfg(feature = "checked-invariants")]
            assert!(entry.at >= self.now, "event time went backwards");
            if budget_active {
                if let Some(trip) = self.check_budget(
                    &budget,
                    entry.at,
                    &mut zero_progress,
                    &mut window_sec,
                    &mut window_events,
                    &mut pops,
                    wall_start.as_ref(),
                ) {
                    return Err(trip);
                }
            }
            self.now = entry.at;
            self.dispatch(entry.event, until);
            // `checked-invariants`: the packet-pool byte ledger must
            // balance after every event — every live slab byte is either
            // queued or in service, so a leak or double free trips here.
            #[cfg(feature = "checked-invariants")]
            {
                let in_service_bytes = self.in_service.map_or(0, |h| self.pool.get(h).bytes);
                assert_eq!(
                    self.pool.live_bytes(),
                    self.queue.occupied_bytes() + in_service_bytes,
                    "packet-pool byte ledger out of balance"
                );
            }
        }
        self.now = until;
        Ok(self.finalize(until))
    }

    /// One watchdog tick: update counters for the event about to be
    /// dispatched at `at` and return a trip if any armed limit is
    /// exceeded. Kept out of line so the unsupervised hot loop stays a
    /// single branch.
    #[allow(clippy::too_many_arguments)]
    fn check_budget(
        &self,
        budget: &SimBudget,
        at: Instant,
        zero_progress: &mut u64,
        window_sec: &mut u64,
        window_events: &mut u64,
        pops: &mut u64,
        wall_start: Option<&crate::host_clock::HostStamp>,
    ) -> Option<BudgetTrip> {
        *pops += 1;
        if at == self.now {
            *zero_progress += 1;
        } else {
            *zero_progress = 0;
        }
        if let Some(limit) = budget.max_zero_progress_pops {
            if *zero_progress > limit {
                return Some(BudgetTrip {
                    kind: BudgetKind::Livelock,
                    at_ns: at.nanos(),
                    limit,
                    detail: format!(
                        "{} consecutive events without the sim clock advancing (limit {limit})",
                        *zero_progress
                    ),
                });
            }
        }
        if let Some(limit) = budget.max_events_per_sim_sec {
            let sec = at.nanos() / 1_000_000_000;
            if sec != *window_sec {
                *window_sec = sec;
                *window_events = 0;
            }
            *window_events += 1;
            if *window_events > limit {
                return Some(BudgetTrip {
                    kind: BudgetKind::EventStorm,
                    at_ns: at.nanos(),
                    limit,
                    detail: format!("more than {limit} events inside sim-second {sec}"),
                });
            }
        }
        if let Some(limit) = budget.max_heap_events {
            if self.events.len() > limit {
                return Some(BudgetTrip {
                    kind: BudgetKind::HeapGrowth,
                    at_ns: at.nanos(),
                    limit: limit as u64,
                    detail: format!(
                        "{} outstanding events in the heap (limit {limit})",
                        self.events.len()
                    ),
                });
            }
        }
        if let (Some(limit_ms), Some(start)) = (budget.wall_limit_ms, wall_start) {
            // Wall reads are comparatively expensive and nondeterministic;
            // amortize them over 4096 pops (plus the very first, so a zero
            // budget trips immediately).
            if *pops & 0xFFF == 1 && start.elapsed_ms() > limit_ms as f64 {
                return Some(BudgetTrip {
                    kind: BudgetKind::WallDeadline,
                    at_ns: at.nanos(),
                    limit: limit_ms,
                    detail: format!("exceeded wall budget of {limit_ms} ms"),
                });
            }
        }
        None
    }

    fn dispatch(&mut self, event: Event, until: Instant) {
        match event {
            Event::FlowStart(id) => {
                self.flows[id.index()].activate(self.now);
                self.pump_flow(id);
            }
            Event::FlowStop(id) => {
                self.flows[id.index()].deactivate();
            }
            Event::PacerWake(id) => {
                let flow = &mut self.flows[id.index()];
                if flow.pending_wake.is_some_and(|t| t <= self.now) {
                    flow.pending_wake = None;
                }
                self.pump_flow(id);
            }
            Event::ServiceDone => {
                self.on_service_done();
            }
            Event::AckArrive(ack) => {
                let id = ack.flow;
                self.flows[id.index()].on_ack_packet(&ack, self.now);
                self.pump_flow(id);
            }
            Event::MiTick(id) => self.dispatch_mi_ticks(id, until),
            Event::RtoCheck(id) => {
                let fired = self.flows[id.index()].on_rto_check(self.now);
                let next = if fired {
                    self.now + self.flows[id.index()].rto()
                } else {
                    self.flows[id.index()].last_progress() + self.flows[id.index()].rto()
                };
                let next = next.max(self.now + Duration::from_millis(10));
                if next <= until {
                    self.schedule(next, Event::RtoCheck(id));
                }
                if fired {
                    self.pump_flow(id);
                }
            }
        }
    }

    /// One decision tick, the only MI-tick path: gather every `MiTick`
    /// scheduled for this exact instant, close all intervals and tick the
    /// controllers (phase 1, in pop order — with a [`PolicyService`]
    /// attached, learned controllers submit their state instead of
    /// deciding), serve the submissions, if any, in one batched forward
    /// pass (phase 2), then complete each tick — resolve, next-tick
    /// scheduling, pump — in the same pop order (phase 3). Without a
    /// service nothing is ever submitted and phase 2 never runs.
    ///
    /// ## Why this is byte-identical to dispatching the ticks one by one
    ///
    /// * The gather preserves pop order: same-instant events dispatch in
    ///   sequence-number order, and anything newly scheduled at the same
    ///   instant gets a *higher* sequence number than every gathered
    ///   tick, so pulling the run of `MiTick`s forward reorders nothing.
    ///   The one event popped too far is pushed back with its key intact.
    /// * Closing interval k+1 before completing tick k is safe because
    ///   `close_mi` and the controller's MI callback (`on_mi`, or
    ///   `mi_submit` when served) read only flow-local state — never the
    ///   queue or the link.
    /// * All `schedule()` calls (next ticks, pacer wakes, service
    ///   completions from pumping) still happen in exactly the order
    ///   one-by-one dispatch makes them, so every event gets the
    ///   identical sequence number.
    /// * Eval-mode batched inference is bit-identical to per-flow
    ///   inference (`libra-nn`'s `matmat_t` contract), so the resolved
    ///   actions match a self-serving controller's bit for bit.
    ///
    /// Wall-clock inference time is split evenly across the batch into
    /// the members' `compute_ns` (wall time is excluded from determinism
    /// guarantees); the `PolicyBatch` trace event carries only the
    /// deterministic batch size.
    // Audited taint barrier: the wall stamp feeds only compute_ns, the
    // one report field documented as a host measurement and excluded
    // from determinism guarantees.
    // lint: allow(nondeterminism_taint)
    fn dispatch_mi_ticks(&mut self, first: FlowId, until: Instant) {
        let mut ticks = std::mem::take(&mut self.mi_ticks);
        let mut requests = std::mem::take(&mut self.policy_requests);
        ticks.clear();
        ticks.push((first, false));
        while let Some(entry) = self.events.pop() {
            match entry.event {
                Event::MiTick(id) if entry.at == self.now => ticks.push((id, false)),
                _ => {
                    // Popped one too far: hand it back under its original
                    // `(at, seq)` key, so anything phase 3 schedules
                    // earlier than it still dispatches first. (A lane
                    // entry comes back through the slots; its lane stays
                    // sorted, so the order is exact either way.)
                    self.events.push(entry);
                    break;
                }
            }
        }
        // Phase 1: close every interval; served learned controllers submit
        // their state vectors into the reused request pool.
        let served = self.policy.is_some();
        let mut used = 0usize;
        for (id, owed) in ticks.iter_mut() {
            if requests.len() == used {
                requests.push(PolicyRequest::default());
            }
            let req = &mut requests[used];
            req.reset(id.0);
            req.at = self.now;
            *owed = self.flows[id.index()].mi_tick_submit(self.now, served, &mut req.state);
            if *owed {
                used += 1;
            }
        }
        // Phase 2: one batched forward pass over all submissions, sorted
        // by flow id (the policy service's composition contract).
        let mut share_ns = 0u64;
        if used > 0 {
            requests[..used].sort_unstable_by_key(|r| r.flow);
            let policy = Rc::clone(self.policy.as_ref().expect("batched tick without a policy"));
            let measure = ticks
                .iter()
                .any(|&(id, _)| self.flows[id.index()].measure_compute);
            let t0 = measure.then(crate::host_clock::stamp);
            policy.borrow_mut().evaluate(&mut requests[..used]);
            // The batch's cost amortizes across its members — that
            // amortization *is* the number the batched entries report.
            share_ns = t0.map_or(0, |t| t.elapsed_ns() / used as u64);
            let rep = requests[0].flow as usize;
            let at_ns = self.now.nanos();
            let size = used as u32;
            self.flows[rep]
                .tracer
                .emit_with(|| TraceEvent::PolicyBatch {
                    flow: LINK_FLOW,
                    at_ns,
                    size,
                });
        }
        // Phase 3: complete each tick in pop order.
        for &(id, owed) in &ticks {
            if owed {
                let row = requests[..used]
                    .binary_search_by_key(&id.0, |r| r.flow)
                    .expect("submitted flow missing from policy batch");
                let req = &requests[row];
                let at_ns = self.now.nanos();
                let flow = &mut self.flows[id.index()];
                // Harvest per-flow fault/quarantine marks before the
                // resolve consumes the (possibly fallback) action.
                if let Some(fault) = req.fault {
                    flow.policy_faults += 1;
                    flow.tracer.emit_with(|| TraceEvent::PolicyFault {
                        flow: id.0,
                        at_ns,
                        // Built only when tracing is on, once per fault.
                        // lint: allow(no-per-packet-alloc)
                        fault: fault.to_string(),
                    });
                }
                if req.quarantined {
                    flow.policy_quarantines += 1;
                    flow.tracer
                        .emit_with(|| TraceEvent::Quarantine { flow: id.0, at_ns });
                }
                flow.mi_tick_resolve(&req.action);
                if flow.measure_compute {
                    flow.compute_ns += share_ns;
                }
            }
            let mut next = self.flows[id.index()].mi_tick_finish(self.now);
            if let Some(q) = self.cfg.mi_quantum {
                next = quantize_mi(next, q);
            }
            if next <= until {
                self.schedule(next, Event::MiTick(id));
            }
            self.pump_flow(id);
        }
        self.mi_ticks = ticks;
        self.policy_requests = requests;
    }

    /// Let `id` emit whatever its pacer allows, feed the bottleneck, and
    /// schedule the next pacer wake.
    fn pump_flow(&mut self, id: FlowId) {
        // Borrow dance: `admit_packet` needs `&mut self`, so the scratch
        // buffer is temporarily moved out (both moves are pointer swaps).
        let mut scratch = std::mem::take(&mut self.emit_scratch);
        scratch.clear();
        let next_wake = self.flows[id.index()].try_emit(self.now, &mut scratch);
        for packet in scratch.drain(..) {
            self.admit_packet(packet);
        }
        self.emit_scratch = scratch;
        if let Some(wake) = next_wake {
            let flow = &mut self.flows[id.index()];
            // Skip if an earlier-or-equal wake is already queued.
            if flow.pending_wake.is_none_or(|t| t > wake) {
                flow.pending_wake = Some(wake);
                self.schedule(wake, Event::PacerWake(id));
            }
        }
    }

    fn admit_packet(&mut self, packet: Packet) {
        match self
            .queue
            .enqueue_with_ecn(packet, &mut self.pool, self.now.nanos(), self.ecn)
        {
            Enqueue::Dropped => {
                // Tail drop: silently vanishes; the sender finds out via
                // the reordering rule or RTO. (Refused packets never touch
                // the pool — the discipline allocates only on accept.)
            }
            Enqueue::Accepted => {
                if !self.busy {
                    self.start_service();
                }
            }
        }
    }

    fn start_service(&mut self) {
        debug_assert!(!self.busy);
        if let Some(handle) = self.queue.dequeue(&mut self.pool, self.now.nanos()) {
            let bytes = self.pool.get(handle).bytes;
            let finish = self
                .capacity
                .service_finish_hinted(&mut self.cap_cursor, self.now, bytes);
            self.busy = true;
            self.in_service = Some(handle);
            if finish != Instant::FAR_FUTURE {
                self.schedule(finish, Event::ServiceDone);
            }
            // A permanently dead link never completes service; packets pile
            // up in the queue and flows time out — exactly the blackout
            // behaviour we want.
        }
    }

    fn on_service_done(&mut self) {
        // Invariant: a ServiceDone event is only ever scheduled by
        // start_service, which sets `in_service` first.
        let handle = self.in_service.take().expect("service done without packet");
        let packet = self.pool.release(handle);
        self.busy = false;
        // Stochastic loss on the wire (after consuming capacity).
        if self.loss.drop(&mut self.loss_rng) {
            self.stochastic_drops += 1;
        } else {
            let jitter = if self.ack_jitter.is_zero() {
                Duration::ZERO
            } else {
                Duration::from_nanos(self.jitter_rng.uniform_u64(0, self.ack_jitter.nanos() + 1))
            };
            let ack_at = self.now + self.one_way_delay * 2 + jitter;
            // Active fault windows may drop the packet (burst loss), shift
            // the ACK (reorder / delay spike / compression), or duplicate
            // it. With an empty plan, skip the engine entirely — this is
            // per-packet work.
            let (fate, ack_at) = if self.faults_active {
                self.faults.ack_fate(self.now, ack_at)
            } else {
                (crate::faults::AckFate::CLEAN, ack_at)
            };
            if !fate.dropped {
                self.delivered_link_bytes += packet.bytes;
                let ack = AckPacket {
                    flow: packet.flow,
                    seq: packet.seq,
                    bytes: packet.bytes,
                    sent_at: packet.sent_at,
                    delivered_at_send: packet.delivered_at_send,
                    app_limited: packet.app_limited,
                    ecn: packet.ecn,
                };
                if let Some(after) = fate.duplicate_after {
                    self.schedule(ack_at + after, Event::AckArrive(ack));
                }
                self.schedule(ack_at, Event::AckArrive(ack));
            }
        }
        if !self.queue.is_empty() {
            self.start_service();
        }
    }

    fn finalize(mut self, until: Instant) -> SimReport {
        let capacity_bytes = self.capacity.capacity_bytes(Instant::ZERO, until);
        let mean_queue = self.queue.mean_occupancy(until.nanos());
        let counters = self.queue.counters();
        let link = LinkReport {
            capacity_bytes,
            delivered_bytes: self.delivered_link_bytes,
            utilization: if capacity_bytes > 0.0 {
                (self.delivered_link_bytes as f64 / capacity_bytes).min(1.0)
            } else {
                0.0
            },
            mean_queue_bytes: mean_queue,
            tail_drops: counters.drops,
            stochastic_drops: self.stochastic_drops,
            queue_admitted_bytes: counters.admitted_bytes,
            queue_dropped_bytes: counters.dropped_bytes,
            queue_dequeued_bytes: counters.dequeued_bytes,
            queue_aqm_dropped_bytes: counters.aqm_dropped_bytes,
            queue_residual_bytes: self.queue.occupied_bytes(),
        };
        let mut fault_report = self.faults.report;
        fault_report.link_flaps = self
            .flap_windows
            .iter()
            .filter(|&&(from, _)| from < until)
            .count() as u64;
        let recorders = self.recorders;
        // Collected in place: each report is written over the sender it is
        // built from (the alignment assertion above `LinkReport` keeps this
        // possible), then the buffer is cut to the reports' length. When
        // the buffer's bytes are not a whole number of reports, the
        // collect first cuts off the odd tail, a sliver smaller than one
        // report that glibc keeps in its thread cache and never merges
        // back. It splits the freed buffer from its neighbours, so the
        // next run's senders no longer fit there and the heap grows
        // (`classic_fleet` read 7.5 MiB peak RSS with the sliver, 5.3–5.5
        // without). Rounding the capacity to a whole number of reports,
        // where it has room, cuts off whole senders instead.
        let mut senders = self.flows;
        let whole = senders.len().div_ceil(WHOLE_REPORT_SENDERS) * WHOLE_REPORT_SENDERS;
        if whole <= senders.capacity() {
            senders.shrink_to(whole);
        }
        let mut flows: Vec<FlowReport> = senders
            .into_iter()
            .enumerate()
            .map(|(i, f)| {
                let span = f.stop.min(until).saturating_since(f.start);
                let (trace, trace_dropped) = match recorders.get(i) {
                    Some(rec) => {
                        let mut rec = rec.borrow_mut();
                        let dropped = rec.dropped();
                        (rec.drain(), dropped)
                    }
                    None => (Vec::new(), 0),
                };
                FlowReport {
                    id: f.id,
                    name: f.cca.name(),
                    start: f.start,
                    stop: f.stop,
                    sent_bytes: f.sent_packets * f.mss,
                    delivered_bytes: f.acked_packets * f.mss,
                    acked_packets: f.acked_packets,
                    lost_packets: f.lost_packets,
                    avg_goodput: f.avg_goodput(span),
                    rtt_ms: f.rtt_stats,
                    loss_fraction: f.loss_fraction(),
                    goodput_series: f.goodput_bins,
                    rtt_series: f.rtt_series,
                    rtt_p95_ms: f.rtt_p95.get(),
                    ecn_echoes: f.ecn_echoes,
                    compute_ns: f.compute_ns,
                    policy_faults: f.policy_faults,
                    policy_quarantines: f.policy_quarantines,
                    trace,
                    trace_dropped,
                    cca: f.cca,
                }
            })
            .collect();
        flows.shrink_to_fit();
        let link_trace = match self.link_recorder {
            Some(rec) => rec.borrow_mut().drain(),
            None => Vec::new(),
        };
        SimReport {
            duration: until.saturating_since(Instant::ZERO),
            flows,
            link,
            faults: fault_report,
            link_trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use libra_types::{AckEvent, LossEvent};

    /// Fixed-cwnd controller: fills the pipe if the window is big enough.
    struct Fixed(u64);
    impl CongestionControl for Fixed {
        fn name(&self) -> &'static str {
            "fixed"
        }
        fn on_ack(&mut self, _: &AckEvent) {}
        fn on_loss(&mut self, _: &LossEvent) {}
        fn cwnd_bytes(&self) -> u64 {
            self.0
        }
    }

    /// Fixed-rate controller.
    struct FixedRate(Rate);
    impl CongestionControl for FixedRate {
        fn name(&self) -> &'static str {
            "fixed-rate"
        }
        fn on_ack(&mut self, _: &AckEvent) {}
        fn on_loss(&mut self, _: &LossEvent) {}
        fn cwnd_bytes(&self) -> u64 {
            u64::MAX / 2
        }
        fn pacing_rate(&self) -> Option<Rate> {
            Some(self.0)
        }
    }

    fn run_single(
        cca: Box<dyn CongestionControl>,
        rate_mbps: f64,
        rtt_ms: u64,
        secs: u64,
    ) -> SimReport {
        let link = LinkConfig::constant(
            Rate::from_mbps(rate_mbps),
            Duration::from_millis(rtt_ms),
            1.0,
        );
        let until = Instant::from_secs(secs);
        let mut sim = Simulation::new(link, 1);
        sim.add_flow(FlowConfig::whole_run(cca, until));
        sim.run(until)
    }

    /// The goodput series' steady-state bins as `(bin centre, Mbps)`:
    /// every 100 ms bin from the second (the first holds the ACK clock's
    /// start-up, a round trip of silence) to the last one that ends by
    /// the run's 10 s.
    fn steady_bins(rep: &SimReport) -> Vec<(f64, f64)> {
        let pts: Vec<_> = rep.flows[0].goodput_series.points().collect();
        assert!(pts.len() >= 100, "{} bins", pts.len());
        pts[1..100].to_vec()
    }

    /// One 1500 B packet per 100 ms bin, in Mbps: the most a bin's
    /// goodput can differ from a fluid rate whose packets arrive evenly
    /// spaced, since a bin then holds the fluid count rounded down or up.
    const ONE_PACKET_PER_BIN_MBPS: f64 = 1500.0 * 8.0 / 0.1 / 1e6;

    #[test]
    fn big_window_fills_constant_link() {
        // 10 Mbps, 40 ms RTT → BDP = 50 kB. cwnd 2 BDP saturates the link.
        let rep = run_single(Box::new(Fixed(100_000)), 10.0, 40, 10);
        assert!(rep.link.utilization > 0.9, "util {}", rep.link.utilization);
        assert!(rep.flows[0].avg_goodput.mbps() > 9.0);
        // A saturated link delivers one packet per 1.2 ms service time,
        // and ACKs return a fixed 40 ms later, so every steady-state bin
        // carries C × bin = 125 000 B = 83⅓ packets: 83 or 84 of them,
        // within one packet of 10 Mbps.
        for (t, mbps) in steady_bins(&rep) {
            assert!(
                (mbps - 10.0).abs() < ONE_PACKET_PER_BIN_MBPS,
                "bin at {t} s: {mbps} Mbps"
            );
        }
    }

    #[test]
    fn tiny_window_underutilizes() {
        // 1 packet per RTT ≈ 0.3 Mbps on a 10 Mbps link.
        let rep = run_single(Box::new(Fixed(1500)), 10.0, 40, 10);
        assert!(rep.link.utilization < 0.1, "util {}", rep.link.utilization);
        // RTT stays at propagation (no queue).
        assert!((rep.flows[0].rtt_ms.mean() - 40.0).abs() < 3.0);
        // One packet per RTT, and the RTT is exactly 40 ms propagation
        // plus 1.2 ms serialization, so every steady-state bin carries
        // cwnd / RTT × bin = 1500 B × 100 / 41.2 = 2.43 packets: 2 or 3,
        // within one packet of 0.291 Mbps.
        let window_rate = 1500.0 * 8.0 / 0.0412 / 1e6;
        for (t, mbps) in steady_bins(&rep) {
            assert!(
                (mbps - window_rate).abs() < ONE_PACKET_PER_BIN_MBPS,
                "bin at {t} s: {mbps} Mbps, want {window_rate}"
            );
        }
    }

    #[test]
    fn rate_above_capacity_builds_queue_and_drops() {
        let rep = run_single(Box::new(FixedRate(Rate::from_mbps(20.0))), 10.0, 40, 10);
        assert!(rep.link.tail_drops > 0, "drops {}", rep.link.tail_drops);
        assert!(rep.flows[0].lost_packets > 0);
        // Queue is full most of the time → RTT ≈ prop + buffer/capacity
        //   = 40 ms + 50 kB / 10 Mbps = 80 ms.
        assert!(
            rep.flows[0].rtt_ms.mean() > 60.0,
            "rtt {}",
            rep.flows[0].rtt_ms.mean()
        );
        assert!(rep.link.utilization > 0.9);
        // Fluid arithmetic over T = 10 s: what was sent and neither
        // served (C·T) nor held by the full buffer at T was tail-dropped.
        // In 1500 B packets: 20 Mbps·T = 16 666⅔ sent, C·T = 8 333⅓
        // served, 50 kB = 33⅓ buffered, so 8 300 dropped. The simulator
        // counts each term in whole packets (sent; served or in service;
        // queued), each within one packet of its fluid value, so the
        // drops are within three packets of it.
        let fluid = (20e6 - 10e6) * 10.0 / 8.0 / 1500.0 - 50_000.0 / 1500.0;
        let drops = rep.link.tail_drops as f64;
        assert!((drops - fluid).abs() <= 3.0, "drops {drops}, fluid {fluid}");
        // Queue depth over time: the buffer fills at the net inflow of
        // 20 − 10 = 10 Mbps = 1.25 MB/s, then stays full. Full is a whole
        // number of packets, ⌊50 000 / 1 500⌋ = 33 = 49 500 B, reached
        // after 49 500 / 1.25 MB/s = 39.6 ms. The time average over
        // T = 10 s is the ramp's half-full mean for 39.6 ms and full
        // after: 49 500 · (1 − 0.0396 / (2 · 10)) = 49 402 B. Arrivals and
        // departures move the level one packet at a time, so it stays
        // within one packet of that.
        let full = (50_000 / 1500 * 1500) as f64;
        let fill_s = full / ((20e6 - 10e6) / 8.0);
        let fluid_queue = full * (1.0 - fill_s / (2.0 * 10.0));
        let mean_queue = rep.link.mean_queue_bytes;
        assert!(
            (mean_queue - fluid_queue).abs() <= 1500.0,
            "mean queue {mean_queue} B, fill-then-full {fluid_queue} B"
        );
    }

    #[test]
    fn stochastic_loss_reported() {
        let link = LinkConfig {
            stochastic_loss: 0.1,
            ..LinkConfig::constant(Rate::from_mbps(10.0), Duration::from_millis(40), 1.0)
        };
        let until = Instant::from_secs(10);
        let mut sim = Simulation::new(link, 3);
        sim.add_flow(FlowConfig::whole_run(Box::new(Fixed(100_000)), until));
        let rep = sim.run(until);
        assert!(rep.link.stochastic_drops > 0);
        let f = &rep.flows[0];
        // Around 10 % of packets lost.
        assert!(
            f.loss_fraction > 0.05 && f.loss_fraction < 0.2,
            "{}",
            f.loss_fraction
        );
    }

    #[test]
    fn two_flows_share_link() {
        let link = LinkConfig::constant(Rate::from_mbps(10.0), Duration::from_millis(40), 1.0);
        let until = Instant::from_secs(20);
        let mut sim = Simulation::new(link, 4);
        sim.add_flow(FlowConfig::whole_run(
            Box::new(FixedRate(Rate::from_mbps(4.0))),
            until,
        ));
        sim.add_flow(FlowConfig::whole_run(
            Box::new(FixedRate(Rate::from_mbps(4.0))),
            until,
        ));
        let rep = sim.run(until);
        assert!(rep.jain_index() > 0.99, "jain {}", rep.jain_index());
        assert!((rep.flows[0].avg_goodput.mbps() - 4.0).abs() < 0.5);
        assert!((rep.flows[1].avg_goodput.mbps() - 4.0).abs() < 0.5);
    }

    #[test]
    fn staggered_flow_starts_late() {
        let link = LinkConfig::constant(Rate::from_mbps(10.0), Duration::from_millis(40), 1.0);
        let until = Instant::from_secs(10);
        let mut sim = Simulation::new(link, 5);
        sim.add_flow(FlowConfig::whole_run(
            Box::new(FixedRate(Rate::from_mbps(2.0))),
            until,
        ));
        sim.add_flow(FlowConfig::new(
            Box::new(FixedRate(Rate::from_mbps(2.0))),
            Instant::from_secs(5),
            until,
        ));
        let storage = sim.flows[1].goodput_bins.closed.as_ptr();
        let rep = sim.run(until);
        // Late flow delivered roughly half of what the early one did.
        let r = rep.flows[1].delivered_bytes as f64 / rep.flows[0].delivered_bytes as f64;
        assert!((r - 0.5).abs() < 0.1, "ratio {r}");
        // Its goodput series is empty before 5 s.
        let early_bytes: f64 = rep.flows[1]
            .goodput_series
            .points()
            .filter(|(t, _)| *t < 4.5)
            .map(|(_, v)| v)
            .sum();
        assert_eq!(early_bytes, 0.0);
        // The report holds the sender's own bins: reserved for the whole
        // horizon, never reallocated during the run, moved (not copied)
        // at finalize.
        assert!(!rep.flows[1].goodput_series.closed.is_empty());
        assert_eq!(rep.flows[1].goodput_series.closed.as_ptr(), storage);
    }

    #[test]
    fn step_capacity_is_followed_by_aggressive_sender() {
        let caps = CapacitySchedule::step(
            &[Rate::from_mbps(5.0), Rate::from_mbps(15.0)],
            Duration::from_secs(5),
            Duration::from_secs(20),
        );
        let link = LinkConfig {
            capacity: caps,
            one_way_delay: Duration::from_millis(20),
            buffer: Bytes::from_kb(75),
            stochastic_loss: 0.0,
            ack_jitter: Duration::ZERO,
            loss_process: None,
            ecn: None,
            faults: FaultPlan::default(),
            queue: QueueConfig::Droptail,
        };
        let until = Instant::from_secs(20);
        let mut sim = Simulation::new(link, 6);
        sim.add_flow(FlowConfig::whole_run(
            Box::new(FixedRate(Rate::from_mbps(50.0))),
            until,
        ));
        let rep = sim.run(until);
        // Overdriving the link achieves ~full utilization with heavy loss.
        assert!(rep.link.utilization > 0.95);
        assert!(rep.flows[0].loss_fraction > 0.5);
    }

    #[test]
    fn conservation_packets_accounted() {
        let rep = run_single(Box::new(FixedRate(Rate::from_mbps(20.0))), 10.0, 40, 5);
        let f = &rep.flows[0];
        // Every sent packet is acked, lost, or still in flight/queue.
        let resolved = f.acked_packets + f.lost_packets;
        assert!(resolved <= f.sent_bytes / 1500);
        let outstanding = f.sent_bytes / 1500 - resolved;
        // Outstanding is bounded by queue + pipe (generous bound).
        assert!(outstanding < 200, "outstanding {outstanding}");
    }

    #[test]
    fn ack_jitter_does_not_break_accounting() {
        let link = LinkConfig {
            ack_jitter: Duration::from_millis(5),
            loss_process: None,
            ecn: None,
            ..LinkConfig::constant(Rate::from_mbps(10.0), Duration::from_millis(40), 1.0)
        };
        let until = Instant::from_secs(5);
        let mut sim = Simulation::new(link, 7);
        sim.add_flow(FlowConfig::whole_run(Box::new(Fixed(60_000)), until));
        let rep = sim.run(until);
        assert!(rep.flows[0].delivered_bytes > 0);
        assert!(rep.flows[0].rtt_ms.mean() >= 40.0);
    }

    #[test]
    fn determinism_same_seed_same_report() {
        let a = run_single(Box::new(FixedRate(Rate::from_mbps(9.0))), 10.0, 40, 5);
        let b = run_single(Box::new(FixedRate(Rate::from_mbps(9.0))), 10.0, 40, 5);
        assert_eq!(a.flows[0].delivered_bytes, b.flows[0].delivered_bytes);
        assert_eq!(a.flows[0].lost_packets, b.flows[0].lost_packets);
        assert_eq!(a.link.tail_drops, b.link.tail_drops);
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::faults::FaultEvent;
    use crate::loss::GilbertElliott;
    use libra_types::{AckEvent, LossEvent};

    struct Fixed(u64);
    impl CongestionControl for Fixed {
        fn name(&self) -> &'static str {
            "fixed"
        }
        fn on_ack(&mut self, _: &AckEvent) {}
        fn on_loss(&mut self, _: &LossEvent) {}
        fn cwnd_bytes(&self) -> u64 {
            self.0
        }
    }

    fn kitchen_sink_plan() -> FaultPlan {
        FaultPlan::none()
            .train(
                Instant::from_secs(2),
                Duration::from_millis(500),
                Duration::from_millis(1500),
                2,
                FaultKind::LinkFlap,
            )
            .with(
                Instant::from_secs(6),
                Instant::from_secs(8),
                FaultKind::Reorder {
                    probability: 0.3,
                    extra_delay: Duration::from_millis(30),
                },
            )
            .with(
                Instant::from_secs(8),
                Instant::from_secs(10),
                FaultKind::Duplicate { probability: 0.2 },
            )
            .with(
                Instant::from_secs(10),
                Instant::from_secs(12),
                FaultKind::AckCompression {
                    flush_every: Duration::from_millis(15),
                },
            )
            .with(
                Instant::from_secs(12),
                Instant::from_secs(14),
                FaultKind::DelaySpike {
                    extra: Duration::from_millis(40),
                },
            )
            .with(
                Instant::from_secs(14),
                Instant::from_secs(16),
                FaultKind::BurstLoss(GilbertElliott::bursty(0.2, 10.0)),
            )
    }

    fn run_with_plan(seed: u64) -> SimReport {
        let link = LinkConfig::constant(Rate::from_mbps(10.0), Duration::from_millis(40), 1.0)
            .with_faults(kitchen_sink_plan());
        let until = Instant::from_secs(18);
        let mut sim = Simulation::new(link, seed);
        sim.add_flow(FlowConfig::whole_run(Box::new(Fixed(100_000)), until));
        sim.run(until)
    }

    #[test]
    fn every_fault_type_fires_and_is_counted() {
        let rep = run_with_plan(11);
        let f = rep.faults;
        assert_eq!(f.link_flaps, 2, "flaps {f:?}");
        assert!(f.reordered_acks > 0, "reorder {f:?}");
        assert!(f.duplicated_acks > 0, "duplicate {f:?}");
        assert!(f.compressed_acks > 0, "compression {f:?}");
        assert!(f.delay_spiked_acks > 0, "spike {f:?}");
        assert!(f.burst_loss_drops > 0, "burst {f:?}");
        // The flow survives the whole gauntlet and keeps moving data.
        assert!(rep.flows[0].delivered_bytes > 0);
        assert!(rep.link.utilization > 0.2, "util {}", rep.link.utilization);
    }

    #[test]
    fn fault_runs_are_deterministic_per_seed() {
        let a = run_with_plan(11);
        let b = run_with_plan(11);
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.flows[0].delivered_bytes, b.flows[0].delivered_bytes);
        assert_eq!(a.flows[0].lost_packets, b.flows[0].lost_packets);
        let c = run_with_plan(12);
        assert!(
            c.faults != a.faults || c.flows[0].delivered_bytes != a.flows[0].delivered_bytes,
            "different seeds should perturb the run"
        );
    }

    #[test]
    fn flaps_only_count_inside_horizon() {
        let plan = FaultPlan::none().train(
            Instant::from_secs(2),
            Duration::from_millis(200),
            Duration::from_secs(20),
            4,
            FaultKind::LinkFlap,
        );
        let link = LinkConfig::constant(Rate::from_mbps(10.0), Duration::from_millis(40), 1.0)
            .with_faults(plan);
        let until = Instant::from_secs(10);
        let mut sim = Simulation::new(link, 1);
        sim.add_flow(FlowConfig::whole_run(Box::new(Fixed(50_000)), until));
        let rep = sim.run(until);
        // Flaps start at 2 s, 22.2 s, 42.4 s, 62.6 s — only the first is
        // inside the 10 s horizon.
        assert_eq!(rep.faults.link_flaps, 1);
    }

    #[test]
    fn empty_flap_windows_are_not_counted() {
        // Zero-width and inverted windows never take the link down (the
        // capacity overlay drops them), so only the real one counts.
        let flap = |from: u64, to: u64| FaultEvent {
            from: Instant::from_millis(from),
            to: Instant::from_millis(to),
            kind: FaultKind::LinkFlap,
        };
        let plan = FaultPlan {
            events: vec![flap(1000, 1000), flap(2000, 1500), flap(3000, 3200)],
        };
        let link = LinkConfig::constant(Rate::from_mbps(10.0), Duration::from_millis(40), 1.0)
            .with_faults(plan);
        let until = Instant::from_secs(5);
        let mut sim = Simulation::new(link, 1);
        sim.add_flow(FlowConfig::whole_run(Box::new(Fixed(50_000)), until));
        assert_eq!(sim.run(until).faults.link_flaps, 1);
    }

    #[test]
    fn merged_flap_windows_count_as_one_flap() {
        // Two overlapping windows and one adjacent to them take the link
        // down once: the overlay merges them into [1 s, 2.5 s).
        let plan = FaultPlan::none()
            .with(
                Instant::from_millis(1000),
                Instant::from_millis(1600),
                FaultKind::LinkFlap,
            )
            .with(
                Instant::from_millis(1400),
                Instant::from_millis(2000),
                FaultKind::LinkFlap,
            )
            .with(
                Instant::from_millis(2000),
                Instant::from_millis(2500),
                FaultKind::LinkFlap,
            );
        let link = LinkConfig::constant(Rate::from_mbps(10.0), Duration::from_millis(40), 1.0)
            .with_faults(plan);
        let until = Instant::from_secs(5);
        let mut sim = Simulation::new(link, 1);
        sim.add_flow(FlowConfig::whole_run(Box::new(Fixed(50_000)), until));
        assert_eq!(sim.run(until).faults.link_flaps, 1);
    }

    #[test]
    fn flap_blackout_reduces_delivery_then_recovers() {
        let clean = {
            let link = LinkConfig::constant(Rate::from_mbps(10.0), Duration::from_millis(40), 1.0);
            let until = Instant::from_secs(10);
            let mut sim = Simulation::new(link, 5);
            sim.add_flow(FlowConfig::whole_run(Box::new(Fixed(100_000)), until));
            sim.run(until)
        };
        let flapped = {
            let link = LinkConfig::constant(Rate::from_mbps(10.0), Duration::from_millis(40), 1.0)
                .with_faults(FaultPlan::none().train(
                    Instant::from_secs(3),
                    Duration::from_secs(2),
                    Duration::from_secs(1),
                    1,
                    FaultKind::LinkFlap,
                ));
            let until = Instant::from_secs(10);
            let mut sim = Simulation::new(link, 5);
            sim.add_flow(FlowConfig::whole_run(Box::new(Fixed(100_000)), until));
            sim.run(until)
        };
        assert!(flapped.flows[0].delivered_bytes < clean.flows[0].delivered_bytes);
        // Data still flows after the outage ends at 5 s.
        let post: f64 = flapped.flows[0]
            .goodput_series
            .points()
            .filter(|&(t, _)| t > 6.0)
            .map(|(_, v)| v)
            .sum();
        assert!(post > 0.0, "no traffic after the flap");
    }

    #[test]
    fn traced_run_records_transport_and_link_events() {
        let link = LinkConfig::constant(Rate::from_mbps(10.0), Duration::from_millis(40), 1.0)
            .with_faults(kitchen_sink_plan());
        let until = Instant::from_secs(18);
        let mut sim = Simulation::with_config(link, 11, SimConfig::traced());
        sim.add_flow(FlowConfig::whole_run(Box::new(Fixed(100_000)), until));
        let rep = sim.run(until);
        let trace = &rep.flows[0].trace;
        assert!(
            trace
                .iter()
                .any(|e| matches!(e, TraceEvent::MiClose { .. })),
            "no MI closes traced"
        );
        assert!(
            trace
                .iter()
                .any(|e| matches!(e, TraceEvent::FastRetransmit { .. })),
            "no fast-retransmits traced despite drops"
        );
        assert_eq!(rep.flows[0].trace_dropped, 0);
        // Emit order is time order for a single flow.
        assert!(trace.windows(2).all(|w| w[0].at_ns() <= w[1].at_ns()));
        // One link-level window per scheduled fault, tagged LINK_FLOW.
        assert_eq!(rep.link_trace.len(), kitchen_sink_plan().events.len());
        assert!(rep.link_trace.iter().all(|e| e.flow() == LINK_FLOW));
        // The default config records nothing.
        let link = LinkConfig::constant(Rate::from_mbps(10.0), Duration::from_millis(40), 1.0)
            .with_faults(kitchen_sink_plan());
        let mut sim = Simulation::new(link, 11);
        sim.add_flow(FlowConfig::whole_run(Box::new(Fixed(100_000)), until));
        let rep = sim.run(until);
        assert!(rep.flows[0].trace.is_empty());
        assert!(rep.link_trace.is_empty());
    }

    #[test]
    fn queue_byte_accounting_exposed_in_report() {
        let rep = run_with_plan(11);
        let l = &rep.link;
        assert!(l.queue_admitted_bytes > 0);
        assert_eq!(
            l.queue_admitted_bytes - l.queue_dequeued_bytes,
            l.queue_residual_bytes,
            "queue byte conservation violated"
        );
    }
}

#[cfg(test)]
mod robustness_tests {
    use super::*;
    use libra_types::{AckEvent, LossEvent};

    /// A hostile controller reporting an absurd window and rate.
    struct Absurd;
    impl CongestionControl for Absurd {
        fn name(&self) -> &'static str {
            "absurd"
        }
        fn on_ack(&mut self, _: &AckEvent) {}
        fn on_loss(&mut self, _: &LossEvent) {}
        fn cwnd_bytes(&self) -> u64 {
            u64::MAX / 4
        }
        fn pacing_rate(&self) -> Option<Rate> {
            Some(Rate::from_bps(1e18)) // an exabit per second
        }
    }

    #[test]
    fn absurd_controller_cannot_blow_up_the_simulator() {
        let link = LinkConfig::constant(Rate::from_mbps(10.0), Duration::from_millis(40), 1.0);
        let until = Instant::from_secs(2);
        let mut sim = Simulation::new(link, 1);
        sim.add_flow(FlowConfig::whole_run(Box::new(Absurd), until));
        // Must terminate quickly with bounded memory; the burst cap turns
        // the absurd rate into repeated bounded pumps.
        let t0 = crate::host_clock::stamp();
        let rep = sim.run(until);
        assert!(
            t0.elapsed_secs_f64() < 30.0,
            "took {:.1}s",
            t0.elapsed_secs_f64()
        );
        // Virtually everything was tail-dropped, the link stayed sane.
        assert!(rep.link.utilization <= 1.0);
        assert!(rep.link.tail_drops > 0);
    }

    /// Unwrap the `Err` side (`SimReport` has no `Debug`, so
    /// `expect_err` is unavailable).
    fn trip_of(result: Result<SimReport, BudgetTrip>, what: &str) -> BudgetTrip {
        match result {
            Ok(_) => panic!("{what}: expected a budget trip"),
            Err(trip) => trip,
        }
    }

    fn budget_run(budget: SimBudget) -> Result<SimReport, BudgetTrip> {
        let link = LinkConfig::constant(Rate::from_mbps(10.0), Duration::from_millis(40), 1.0);
        let until = Instant::from_secs(5);
        let cfg = SimConfig {
            budget,
            ..SimConfig::default()
        };
        let mut sim = Simulation::with_config(link, 1, cfg);
        sim.add_flow(FlowConfig::whole_run(Box::new(Absurd), until));
        sim.try_run(until)
    }

    #[test]
    fn inactive_budget_never_trips() {
        assert!(!SimBudget::default().is_active());
        let rep = match budget_run(SimBudget::default()) {
            Ok(rep) => rep,
            Err(trip) => panic!("no budget armed, yet tripped: {trip}"),
        };
        assert!(rep.link.utilization <= 1.0);
    }

    /// Well-behaved fixed-rate controller for the sane-run checks.
    struct Steady(Rate);
    impl CongestionControl for Steady {
        fn name(&self) -> &'static str {
            "steady"
        }
        fn on_ack(&mut self, _: &AckEvent) {}
        fn on_loss(&mut self, _: &LossEvent) {}
        fn cwnd_bytes(&self) -> u64 {
            u64::MAX / 2
        }
        fn pacing_rate(&self) -> Option<Rate> {
            Some(self.0)
        }
    }

    #[test]
    fn standard_budget_passes_a_sane_run() {
        let link = LinkConfig::constant(Rate::from_mbps(10.0), Duration::from_millis(40), 1.0);
        let until = Instant::from_secs(5);
        let mut sim = Simulation::with_config(link, 1, SimConfig::supervised());
        sim.add_flow(FlowConfig::whole_run(
            Box::new(Steady(Rate::from_mbps(8.0))),
            until,
        ));
        let rep = match sim.try_run(until) {
            Ok(rep) => rep,
            Err(trip) => panic!("sane run tripped the standard budget: {trip}"),
        };
        assert!(rep.link.utilization > 0.5);
    }

    #[test]
    fn event_storm_budget_trips_on_absurd_sender() {
        let budget = SimBudget {
            max_events_per_sim_sec: Some(1_000),
            ..SimBudget::default()
        };
        let trip = trip_of(budget_run(budget), "storm");
        assert_eq!(trip.kind, BudgetKind::EventStorm);
        assert_eq!(trip.limit, 1_000);
        assert!(trip.detail.contains("1000 events"), "{}", trip.detail);
        // Deterministic: same config, same trip.
        let again = trip_of(
            budget_run(SimBudget {
                max_events_per_sim_sec: Some(1_000),
                ..SimBudget::default()
            }),
            "storm rerun",
        );
        assert_eq!(again, trip);
    }

    #[test]
    fn heap_budget_trips_when_events_pile_up() {
        let budget = SimBudget {
            max_heap_events: Some(16),
            ..SimBudget::default()
        };
        let trip = trip_of(budget_run(budget), "heap growth");
        assert_eq!(trip.kind, BudgetKind::HeapGrowth);
        assert_eq!(trip.limit, 16);
    }

    #[test]
    fn zero_progress_budget_trips_on_same_timestamp_churn() {
        // Twenty flows all starting at t = 0 give twenty consecutive
        // pops that never advance the sim clock.
        let link = LinkConfig::constant(Rate::from_mbps(10.0), Duration::from_millis(40), 1.0);
        let until = Instant::from_secs(5);
        let cfg = SimConfig {
            budget: SimBudget {
                max_zero_progress_pops: Some(8),
                ..SimBudget::default()
            },
            ..SimConfig::default()
        };
        let mut sim = Simulation::with_config(link, 1, cfg);
        for _ in 0..20 {
            sim.add_flow(FlowConfig::whole_run(
                Box::new(Steady(Rate::from_mbps(0.1))),
                until,
            ));
        }
        let trip = trip_of(sim.try_run(until), "livelock");
        assert_eq!(trip.kind, BudgetKind::Livelock);
        assert_eq!(trip.limit, 8);
        assert_eq!(trip.at_ns, 0);
    }

    #[test]
    fn zero_wall_budget_trips_immediately() {
        let budget = SimBudget::default().with_wall_limit_ms(0);
        let trip = trip_of(budget_run(budget), "zero wall budget");
        assert_eq!(trip.kind, BudgetKind::WallDeadline);
        assert_eq!(trip.limit, 0);
    }

    #[test]
    fn run_panics_with_downcastable_trip() {
        let result = std::panic::catch_unwind(|| {
            let link = LinkConfig::constant(Rate::from_mbps(10.0), Duration::from_millis(40), 1.0);
            let until = Instant::from_secs(5);
            let cfg = SimConfig {
                budget: SimBudget {
                    max_events_per_sim_sec: Some(1_000),
                    ..SimBudget::default()
                },
                ..SimConfig::default()
            };
            let mut sim = Simulation::with_config(link, 1, cfg);
            sim.add_flow(FlowConfig::whole_run(Box::new(Absurd), until));
            sim.run(until)
        });
        let payload = match result {
            Ok(_) => panic!("run should panic on a tripped budget"),
            Err(payload) => payload,
        };
        let trip = payload
            .downcast_ref::<BudgetTrip>()
            .expect("payload should be a BudgetTrip");
        assert_eq!(trip.kind, BudgetKind::EventStorm);
    }
}
