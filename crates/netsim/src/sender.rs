//! Per-flow sender: pacing, windowing, RTT estimation, loss detection and
//! monitor-interval bookkeeping.
//!
//! The sender models a bulk transfer (it always has data). It drives one
//! boxed [`CongestionControl`] and translates the packet timeline into the
//! ACK/loss/MI callbacks of the trait — playing the role the TCP stack
//! plays for a kernel CCA module:
//!
//! * **Pacing**: packets leave at the controller's pacing rate (or
//!   `1.2 × cwnd / sRTT` for window-based schemes, Linux-style), never
//!   exceeding `cwnd` bytes in flight. The rate is read when a packet
//!   leaves and sets the gap to the next one; the window rate is built
//!   only then, from the cwnd read before the send (a pacer that is not
//!   yet due needs only to know the rate is not zero).
//! * **RTT estimation**: RFC 6298 smoothed RTT and variance, plus a
//!   connection-lifetime minimum.
//! * **Loss detection**: a packet is declared lost when three later
//!   packets have been ACKed (fast-retransmit emulation), or when nothing
//!   has been ACKed for a full RTO (timeout).
//! * **Monitor intervals**: an [`MiTracker`] aggregates each interval and
//!   the controller is ticked at its own `mi_duration` — unless that is
//!   `Duration::MAX` (the classics), in which case the flow has no MI
//!   clock and nothing is aggregated.
//!
//! Wall-clock time spent inside controller callbacks is accumulated into
//! `compute_ns` — the measurement behind the paper's CPU-overhead figures
//! (Fig. 2c and Fig. 12). MI-path callbacks are timed on every call;
//! per-packet callbacks are timed one call in [`COMPUTE_SAMPLE_EVERY`]
//! and credited that many times the reading, so the clock reads do not
//! dominate the thing they measure.

use crate::packet::{AckPacket, FlowId, Packet};
use crate::varint;
use libra_types::{
    AckEvent, CongestionControl, Duration, Instant, LossEvent, LossKind, MiTracker, P2Quantile,
    Rate, SendEvent, TraceEvent, Tracer, Welford,
};
use std::collections::VecDeque;
use std::num::NonZeroU64;

/// Packets ACKed beyond an outstanding one before it is declared lost.
const REORDER_WINDOW: u64 = 3;
/// Pacing gain applied to `cwnd / sRTT` for window-based schemes.
const WINDOW_PACING_GAIN: f64 = 1.2;
/// Hard cap on packets emitted per pump — bounds event-queue memory even
/// against a controller reporting an absurd window; the pacer re-wakes
/// immediately to continue.
const MAX_BURST_PER_CALL: usize = 4096;
/// Hard cap on unacknowledged packets the sender tracks — the analogue of
/// the kernel's tcp_mem limits. A controller demanding more is treated as
/// window-limited until ACKs (or loss detection) drain the backlog.
const MAX_OUTSTANDING: usize = 100_000;
/// Per-packet controller callbacks are timed one call in this many (per
/// flow and per callback kind, the first call always).
const COMPUTE_SAMPLE_EVERY: u32 = 64;
/// RTO bounds.
const MIN_RTO: Duration = Duration::from_millis(200);
const MAX_RTO: Duration = Duration::from_secs(10);

/// The per-packet controller callbacks, each with its own sampling
/// counter: sends and ACKs alternate in steady state, so one shared
/// counter with an even stride would only ever stamp one of them.
#[derive(Debug, Clone, Copy)]
enum PacketCallback {
    Send,
    Ack,
    Ecn,
    Loss,
}

/// One outstanding packet's slot: its send time as `ns + 1`, so `None`
/// (a slot ACKed or declared lost out of order) costs no tag. The bytes
/// are the flow's MSS for every packet, so the slot does not hold them.
type Slot = Option<NonZeroU64>;
const _: () = assert!(std::mem::size_of::<Slot>() == 8);

/// Outstanding-packet table specialised to the sender's access pattern:
/// sequence numbers are assigned contiguously, ACKs clear slots near the
/// front, and loss sweeps consume a prefix. A ring buffer of send times
/// indexed by `seq - base` replaces the old `BTreeMap<u64, _>`: every
/// insert/remove is O(1) with zero allocator traffic in steady state,
/// versus a node allocation and rebalancing walk per packet for the map —
/// one of the dominant costs on the per-ACK hot path at thousand-flow
/// scale.
///
/// Invariant: the front slot, when present, is always live (`Some`) — the
/// oldest outstanding packet — so `base` doubles as the oldest live
/// sequence and `slots.is_empty()` ⟺ no packets outstanding.
#[derive(Debug, Default)]
struct OutstandingWindow {
    /// Sequence number of `slots[0]`.
    base: u64,
    slots: VecDeque<Slot>,
    /// Count of live (unacked, not-yet-lost) entries.
    live: usize,
}

impl OutstandingWindow {
    fn len(&self) -> usize {
        self.live
    }

    fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Record a freshly sent packet. Sequences arrive contiguously (the
    /// sender allocates them with a counter), so this is always a
    /// push_back.
    fn insert(&mut self, seq: u64, sent_at: Instant) {
        if self.slots.is_empty() {
            self.base = seq;
        }
        debug_assert_eq!(
            seq,
            self.base + self.slots.len() as u64,
            "non-contiguous send sequence"
        );
        self.slots
            .push_back(Some(NonZeroU64::MIN.saturating_add(sent_at.nanos())));
        self.live += 1;
    }

    /// Clear the slot for `seq`, returning its send time if it was live.
    fn remove(&mut self, seq: u64) -> Option<Instant> {
        if seq < self.base {
            return None;
        }
        let idx = (seq - self.base) as usize;
        let slot = self.slots.get_mut(idx)?.take()?;
        self.live -= 1;
        self.trim();
        Some(Instant::from_nanos(slot.get() - 1))
    }

    /// Restore the front-is-live invariant after a removal.
    fn trim(&mut self) {
        while matches!(self.slots.front(), Some(None)) {
            self.slots.pop_front();
            self.base += 1;
        }
    }

    /// Pop the oldest live entry if its sequence is below `cutoff`
    /// (the reorder-loss sweep), returning that sequence.
    fn take_front_below(&mut self, cutoff: u64) -> Option<u64> {
        if self.base >= cutoff {
            return None;
        }
        self.slots.pop_front()??; // front is live by invariant
        let seq = self.base;
        self.base += 1;
        self.live -= 1;
        self.trim();
        Some(seq)
    }

    /// Write off everything outstanding (RTO). Returns the oldest live
    /// sequence and the live count. Must not be called when empty.
    fn flush(&mut self) -> (u64, u64) {
        debug_assert!(!self.is_empty());
        let n = self.live as u64;
        self.slots.clear();
        self.live = 0;
        (self.base, n)
    }
}

/// ACKed packets per fixed-width bin of absolute sim time: the flow's
/// goodput series. Every packet carries the flow's MSS, so a bin's bytes
/// are its count times `unit`. The time axis is implied by the bin
/// index, so a report carries the counts themselves, one LEB128 varint
/// per closed bin from bin 0 (a fleet flow's bin is one byte), and
/// [`points`](BinSeries::points) derives `(seconds, Mbps)` on read.
#[derive(Debug, Clone)]
pub struct BinSeries {
    bin: Duration,
    /// Bytes per counted packet: the flow's MSS.
    unit: u64,
    /// Counts of bins `0..open.0`, packed.
    pub(crate) closed: Vec<u8>,
    /// The bin the last ACK landed in, as `(index, end ns, count)`;
    /// before the first ACK, bin 0 with a zero count.
    open: (usize, u64, u32),
}

/// Upper bound on the preallocated bytes of a series — a guard against
/// a pathological stop time (e.g. `Instant::FAR_FUTURE` at a 100 ms
/// bin). Runs longer than the hint simply fall back to amortized growth.
const MAX_SERIES_PREALLOC: usize = 16_384;

impl BinSeries {
    /// A series of `unit`-byte packets with one byte per bin reserved up
    /// to sim time `until`, so a run whose bins stay below 128 packets
    /// never reallocates on the per-ACK path. Bins are indexed by
    /// absolute sim time, so the reservation runs from zero, not from the
    /// flow's start.
    fn with_horizon(bin: Duration, until: Instant, unit: u64) -> Self {
        let hint = (until.nanos() / bin.nanos().max(1) + 1).min(MAX_SERIES_PREALLOC as u64);
        BinSeries {
            bin,
            unit,
            closed: Vec::with_capacity(hint as usize),
            open: (0, bin.nanos(), 0),
        }
    }

    /// Count one packet ACKed at `t`. Sim time is monotone, so `t` never
    /// falls before the open bin (checked in debug builds and under
    /// `checked-invariants`); a later bin closes the open one and every
    /// bin skipped in between.
    fn count_ack(&mut self, t: Instant) {
        let (ns, width) = (t.nanos(), self.bin.nanos());
        #[cfg(any(debug_assertions, feature = "checked-invariants"))]
        assert!(ns / width >= self.open.0 as u64, "ACK into a closed bin");
        if ns >= self.open.1 {
            let (idx, closed) = ((ns / width) as usize, &mut self.closed);
            varint::push(closed, u64::from(self.open.2));
            closed.resize(closed.len() + idx - self.open.0 - 1, 0);
            self.open = (idx, (idx as u64 * width).saturating_add(width), 0);
        }
        self.open.2 += 1;
    }

    /// `(bin-center seconds, Mbps)` pairs, computed from the packets per
    /// bin on each read; bin `i` spans `[i·w, (i+1)·w)` of absolute sim
    /// time, so a late-starting flow's series leads with empty bins, and
    /// it ends at the last bin an ACK landed in. A bin's byte count is an
    /// integer below 2⁵³, so its `f64` is the one a running byte sum
    /// would hold.
    pub fn points(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        let w = self.bin.as_secs_f64();
        let open = (self.open.2 > 0).then_some(u64::from(self.open.2));
        let counts = varint::values(&self.closed).chain(open).enumerate();
        counts.map(move |(i, n)| ((i as f64 + 0.5) * w, (n * self.unit) as f64 * 8.0 / w / 1e6))
    }
}

/// The flow's sparse RTT samples, each packed as two LEB128 varints:
/// nanoseconds since the previous sample (since zero for the first) and
/// the RTT in nanoseconds. [`points`](RttSeries::points) yields the
/// `(seconds, ms)` pairs the nanoseconds convert to.
#[derive(Debug, Clone, Default)]
pub struct RttSeries {
    packed: Vec<u8>,
    /// Sim time of the last sample, in nanoseconds.
    last: u64,
}

impl RttSeries {
    /// Record an RTT sample taken at `now`, which is never before the
    /// previous sample's time.
    fn record_rtt(&mut self, now: Instant, rtt: Duration) {
        // The first sample reserves 64 bytes, about eight samples: growing
        // from `Vec`'s 8-byte minimum would take more allocator calls per
        // flow than the 16-byte pairs this series replaced did.
        let packed = &mut self.packed;
        packed.reserve(64usize.saturating_sub(packed.capacity()));
        varint::push(packed, now.nanos() - self.last);
        varint::push(packed, rtt.nanos());
        self.last = now.nanos();
    }

    /// `(seconds, ms)` pairs in sample order.
    pub fn points(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        let (mut vals, mut t) = (varint::values(&self.packed), 0);
        std::iter::from_fn(move || {
            t += vals.next()?;
            let rtt = Duration::from_nanos(vals.next()?);
            Some((Instant::from_nanos(t).as_secs_f64(), rtt.as_millis_f64()))
        })
    }
}

/// One flow's sending endpoint.
pub struct FlowSender {
    /// Flow identity.
    pub id: FlowId,
    /// The congestion controller under test.
    pub cca: Box<dyn CongestionControl>,
    /// Maximum segment size in bytes: the size of every packet the flow
    /// sends, fixed at construction, so bytes in flight, sent, delivered
    /// and lost are packet counts times it.
    pub(crate) mss: u64,
    /// First permitted transmission.
    pub start: Instant,
    /// Transmissions cease at this time (ACK processing continues).
    pub stop: Instant,
    active: bool,

    next_seq: u64,
    outstanding: OutstandingWindow,
    highest_acked: Option<u64>,

    srtt: Duration,
    rttvar: Duration,
    min_rtt: Duration,
    has_rtt: bool,
    init_rtt: Duration,

    next_send_time: Instant,
    last_progress: Instant,
    /// Earliest pacer wake currently sitting in the event queue, used to
    /// deduplicate wake events (without this, every pacing-limited pump
    /// would spawn an immortal chain of spurious wakes).
    pub pending_wake: Option<Instant>,

    tracker: MiTracker,
    /// False when the controller answered `Duration::MAX` for its MI
    /// length: no MI ticks are scheduled and `tracker` is never fed.
    has_mi_clock: bool,
    /// Calls seen per [`PacketCallback`] kind, for compute-time sampling.
    callback_calls: [u32; 4],
    /// Reused buffer for losses detected on the last ACK — returned by
    /// slice so the per-ACK hot path never allocates.
    last_losses: Vec<LossEvent>,
    /// Stats of a monitor interval whose decision is pending at the
    /// policy server (between `mi_tick_submit` and `mi_tick_resolve`).
    pending_mi: Option<libra_types::MiStats>,

    // ---- metrics ----
    /// Packets handed to the network.
    pub sent_packets: u64,
    /// Packets acknowledged.
    pub acked_packets: u64,
    /// Packets declared lost.
    pub lost_packets: u64,
    /// RTT sample statistics (milliseconds).
    pub rtt_stats: Welford,
    /// Streaming P² estimate of the 95th-percentile RTT (milliseconds).
    pub rtt_p95: P2Quantile,
    /// ACKed packets per time bin, one varint byte per bin reserved up
    /// to `stop`.
    pub goodput_bins: BinSeries,
    /// Sparse RTT series for plotting (one sample per 20 ACKs), packed.
    pub rtt_series: RttSeries,
    /// ECN-echo count received.
    pub ecn_echoes: u64,
    /// Nanoseconds of wall-clock compute spent inside the controller.
    pub compute_ns: u64,
    /// Policy responses touched by an injected boundary fault.
    pub policy_faults: u64,
    /// Policy requests quarantined for invalid state vectors.
    pub policy_quarantines: u64,
    /// Whether to measure controller compute time (tiny overhead).
    pub measure_compute: bool,
    /// Structured-trace handle for transport-level events (RTOs,
    /// fast-retransmits, MI closes). Disabled by default; the simulation
    /// installs a live tracer when tracing is enabled.
    pub tracer: Tracer,
}

impl FlowSender {
    /// Create a sender. `init_rtt` seeds RTO/MI clocks before the first
    /// RTT sample (the simulator passes twice the propagation delay).
    pub fn new(
        id: FlowId,
        cca: Box<dyn CongestionControl>,
        mss: u64,
        start: Instant,
        stop: Instant,
        init_rtt: Duration,
        metrics_bin: Duration,
    ) -> Self {
        let has_mi_clock = cca.mi_duration(init_rtt) != Duration::MAX;
        FlowSender {
            id,
            cca,
            mss,
            start,
            stop,
            active: false,
            next_seq: 0,
            outstanding: OutstandingWindow::default(),
            highest_acked: None,
            srtt: Duration::ZERO,
            rttvar: Duration::ZERO,
            min_rtt: Duration::MAX,
            has_rtt: false,
            init_rtt,
            next_send_time: Instant::ZERO,
            last_progress: start,
            pending_wake: None,
            tracker: MiTracker::new(start),
            has_mi_clock,
            callback_calls: [0; 4],
            last_losses: Vec::new(),
            pending_mi: None,
            sent_packets: 0,
            acked_packets: 0,
            lost_packets: 0,
            rtt_stats: Welford::new(),
            rtt_p95: P2Quantile::new(0.95),
            goodput_bins: BinSeries::with_horizon(metrics_bin, stop, mss),
            // One sample per 20 ACKs, grown on demand: an up-front
            // reservation per flow is mostly never used at fleet scale
            // (a flow in a thousand sees a few hundred ACKs).
            rtt_series: RttSeries::default(),
            ecn_echoes: 0,
            compute_ns: 0,
            policy_faults: 0,
            policy_quarantines: 0,
            measure_compute: true,
            tracer: Tracer::disabled(),
        }
    }

    /// Smoothed RTT, falling back to the initial estimate before the first
    /// sample.
    pub fn srtt(&self) -> Duration {
        if self.has_rtt {
            self.srtt
        } else {
            self.init_rtt
        }
    }

    /// Lifetime minimum RTT (initial estimate before the first sample).
    pub fn min_rtt(&self) -> Duration {
        if self.has_rtt {
            self.min_rtt
        } else {
            self.init_rtt
        }
    }

    /// Current retransmission timeout.
    pub fn rto(&self) -> Duration {
        // Before the first RTT sample, assume variance of half the initial
        // estimate (RFC 6298's K·srtt/2 bootstrap) — otherwise the timeout
        // lands exactly on the first ACK's arrival on long-RTT paths
        // (satellite) and wrongly flushes the window.
        let var = if self.has_rtt {
            self.rttvar
        } else {
            self.init_rtt / 2
        };
        let base = self.srtt() + var * 4;
        base.max(MIN_RTO).min(MAX_RTO)
    }

    /// Whether the controller runs a monitor-interval clock (its
    /// `mi_duration` is not `Duration::MAX`); asked once, at construction.
    pub fn has_mi_clock(&self) -> bool {
        self.has_mi_clock
    }

    /// Bytes currently in flight.
    pub fn in_flight(&self) -> u64 {
        self.outstanding.len() as u64 * self.mss
    }

    /// Whether the flow may currently transmit.
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Timestamp of the last forward progress (send or ACK).
    pub fn last_progress(&self) -> Instant {
        self.last_progress
    }

    /// Begin transmitting (FlowStart event).
    pub fn activate(&mut self, now: Instant) {
        self.active = true;
        self.last_progress = now;
        self.next_send_time = now;
    }

    /// Stop transmitting (FlowStop event).
    pub fn deactivate(&mut self) {
        self.active = false;
    }

    /// Run an MI-path callback (`on_mi` / `mi_submit` / `mi_resolve`),
    /// timing it into `compute_ns`.
    // Audited taint barrier: the wall stamp feeds only compute_ns, the
    // one report field documented as a host measurement and excluded
    // from determinism guarantees.
    // lint: allow(nondeterminism_taint)
    fn time_cca<R>(&mut self, f: impl FnOnce(&mut dyn CongestionControl) -> R) -> R {
        if self.measure_compute {
            let t0 = crate::host_clock::stamp();
            let r = f(self.cca.as_mut());
            self.compute_ns += t0.elapsed_ns();
            r
        } else {
            f(self.cca.as_mut())
        }
    }

    /// Run a per-packet callback, timing one call in
    /// [`COMPUTE_SAMPLE_EVERY`] of its kind and crediting `compute_ns`
    /// that many times the reading: an estimate, where a clock-read pair
    /// around every ~30 ns callback would mostly measure itself.
    // Audited taint barrier: as `time_cca` — the stamp feeds only
    // compute_ns, and the sampling counter is a plain call count.
    // lint: allow(nondeterminism_taint)
    fn time_cca_sampled(
        &mut self,
        kind: PacketCallback,
        f: impl FnOnce(&mut dyn CongestionControl),
    ) {
        if self.measure_compute {
            let calls = &mut self.callback_calls[kind as usize];
            let sampled = calls.is_multiple_of(COMPUTE_SAMPLE_EVERY);
            *calls = calls.wrapping_add(1);
            if sampled {
                let t0 = crate::host_clock::stamp();
                f(self.cca.as_mut());
                self.compute_ns += t0.elapsed_ns() * u64::from(COMPUTE_SAMPLE_EVERY);
                return;
            }
        }
        f(self.cca.as_mut());
    }

    /// Emit as many packets as window and pacing allow at `now`, appending
    /// them to the caller-owned `out` scratch buffer (the simulator reuses
    /// one per pump, so the hot path never allocates). Returns when to
    /// wake the pacer next, if pacing-limited.
    pub fn try_emit(&mut self, now: Instant, out: &mut Vec<Packet>) -> Option<Instant> {
        if !self.active || now >= self.stop {
            return None;
        }
        let mut emitted = 0usize;
        loop {
            let cwnd = self.cca.cwnd_bytes();
            if self.in_flight() + self.mss > cwnd {
                return None; // window-limited: an ACK will retrigger us
            }
            if self.outstanding.len() >= MAX_OUTSTANDING {
                return None; // memory-limited: ACK/loss will retrigger us
            }
            // The controller's rate, else (window-based schemes, once an
            // RTT sample exists) `WINDOW_PACING_GAIN × cwnd / sRTT`, which
            // is zero exactly when cwnd or sRTT is.
            let paced = self.cca.pacing_rate();
            if paced.is_none() && !self.has_rtt {
                // Unpaced initial burst.
                out.push(self.emit_packet(now));
                emitted += 1;
            } else {
                if paced.map_or(cwnd == 0 || self.srtt.is_zero(), Rate::is_zero) {
                    // Paused; a controller event will retrigger us.
                    return None;
                }
                if self.next_send_time > now {
                    return Some(self.next_send_time);
                }
                out.push(self.emit_packet(now));
                emitted += 1;
                // The window rate is built only for a packet that left, from
                // the cwnd read before it did.
                let rate = paced.unwrap_or_else(|| {
                    Rate::from_bytes_over(cwnd, self.srtt).scale(WINDOW_PACING_GAIN)
                });
                // Floor the pacing gap at 1 ns so an extreme rate can
                // never freeze the pacing clock in integer time.
                let gap = rate.transmit_time(self.mss).max(Duration::from_nanos(1));
                // `next_send_time ≤ now` here, so the clock restarts at now.
                self.next_send_time = now + gap;
            }
            // Safety valves: never emit more than one window per call, and
            // never more than MAX_BURST_PER_CALL packets (re-wake instead).
            if emitted > 1 + (cwnd / self.mss) as usize {
                return None;
            }
            if emitted >= MAX_BURST_PER_CALL {
                return Some(now + Duration::from_micros(1));
            }
        }
    }

    fn emit_packet(&mut self, now: Instant) -> Packet {
        let seq = self.next_seq;
        self.next_seq += 1;
        let p = Packet {
            flow: self.id,
            seq,
            bytes: self.mss,
            sent_at: now,
            delivered_at_send: self.acked_packets * self.mss,
            app_limited: false,
            ecn: false,
        };
        self.outstanding.insert(seq, now);
        self.sent_packets += 1;
        self.last_progress = now;
        let ev = SendEvent {
            now,
            seq,
            bytes: self.mss,
            in_flight: self.in_flight(),
        };
        if self.has_mi_clock {
            self.tracker.on_send(&ev);
        }
        self.time_cca_sampled(PacketCallback::Send, |cca| cca.on_send(&ev));
        p
    }

    fn update_rtt(&mut self, sample: Duration) {
        if !self.has_rtt {
            self.srtt = sample;
            self.rttvar = sample / 2;
            self.min_rtt = sample;
            self.has_rtt = true;
        } else {
            // RFC 6298 with α=1/8, β=1/4.
            let diff = if self.srtt > sample {
                self.srtt - sample
            } else {
                sample - self.srtt
            };
            self.rttvar = Duration::from_nanos((self.rttvar.nanos() * 3 + diff.nanos()) / 4);
            self.srtt = Duration::from_nanos((self.srtt.nanos() * 7 + sample.nanos()) / 8);
            self.min_rtt = self.min_rtt.min(sample);
        }
    }

    /// Process an arriving ACK; returns losses detected by the reordering
    /// rule (already reported to the controller). The slice borrows a
    /// buffer reused across ACKs — copy out anything that must outlive the
    /// next call.
    pub fn on_ack_packet(&mut self, ack: &AckPacket, now: Instant) -> &[LossEvent] {
        self.last_losses.clear();
        let Some(sent_at) = self.outstanding.remove(ack.seq) else {
            return &self.last_losses; // late/duplicate ACK for a seq already written off
        };
        self.acked_packets += 1;
        self.last_progress = now;

        let rtt = now.saturating_since(sent_at);
        self.update_rtt(rtt);
        self.rtt_stats.update(rtt.as_millis_f64());
        self.rtt_p95.update(rtt.as_millis_f64());
        self.goodput_bins.count_ack(now);
        // Keep the plotted RTT series sparse: one point per ~20 samples.
        if self.acked_packets % 20 == 1 {
            self.rtt_series.record_rtt(now, rtt);
        }

        self.highest_acked = Some(self.highest_acked.map_or(ack.seq, |h| h.max(ack.seq)));

        let ev = AckEvent {
            now,
            seq: ack.seq,
            bytes: self.mss,
            rtt,
            min_rtt: self.min_rtt,
            srtt: self.srtt,
            sent_at,
            delivered_at_send: ack.delivered_at_send,
            delivered: self.acked_packets * self.mss,
            in_flight: self.in_flight(),
            app_limited: ack.app_limited,
        };
        if self.has_mi_clock {
            self.tracker.on_ack(&ev);
        }
        self.time_cca_sampled(PacketCallback::Ack, |cca| cca.on_ack(&ev));
        if ack.ecn {
            self.ecn_echoes += 1;
            self.time_cca_sampled(PacketCallback::Ecn, |cca| cca.on_ecn(&ev));
        }
        self.check_controller_sanity();

        self.detect_reorder_losses(now);
        &self.last_losses
    }

    /// `checked-invariants`: after every ACK-path controller callback
    /// the CCA must report a positive window and a finite, non-negative
    /// pacing rate — the guardrail-layer contract promoted to a hard
    /// assert so a regression fails loudly in tests instead of
    /// poisoning pacing arithmetic downstream.
    #[cfg(feature = "checked-invariants")]
    fn check_controller_sanity(&self) {
        let cwnd = self.cca.cwnd_bytes();
        assert!(
            cwnd > 0,
            "{}: zero congestion window after controller callback",
            self.cca.name()
        );
        if let Some(rate) = self.cca.pacing_rate() {
            assert!(
                rate.bps().is_finite() && rate.bps() >= 0.0,
                "{}: non-finite pacing rate after controller callback",
                self.cca.name()
            );
        }
    }

    #[cfg(not(feature = "checked-invariants"))]
    #[inline(always)]
    fn check_controller_sanity(&self) {}

    /// Fast-retransmit emulation: outstanding packets more than
    /// [`REORDER_WINDOW`] below the highest ACKed sequence are lost.
    /// Detected losses accumulate into `last_losses` (cleared by the
    /// caller).
    fn detect_reorder_losses(&mut self, now: Instant) {
        let Some(high) = self.highest_acked else {
            return;
        };
        if high < REORDER_WINDOW {
            return;
        }
        let cutoff = high - REORDER_WINDOW;
        while let Some(seq) = self.outstanding.take_front_below(cutoff) {
            self.lost_packets += 1;
            let ev = LossEvent {
                now,
                seq,
                bytes: self.mss,
                in_flight: self.in_flight(),
                kind: LossKind::FastRetransmit,
            };
            if self.has_mi_clock {
                self.tracker.on_loss(&ev);
            }
            self.time_cca_sampled(PacketCallback::Loss, |cca| cca.on_loss(&ev));
            self.last_losses.push(ev);
        }
        if !self.last_losses.is_empty() {
            self.tracer.emit_with(|| TraceEvent::FastRetransmit {
                flow: self.id.0,
                at_ns: now.nanos(),
                packets: self.last_losses.len() as u64,
            });
        }
    }

    /// Handle an RTO expiry check. Returns true if a timeout fired.
    pub fn on_rto_check(&mut self, now: Instant) -> bool {
        if self.outstanding.is_empty() {
            return false;
        }
        if now.saturating_since(self.last_progress) < self.rto() {
            return false;
        }
        // Everything outstanding is written off; the controller sees one
        // timeout event (per-packet spam would overstate congestion).
        let (oldest, n) = self.outstanding.flush();
        let total = n * self.mss;
        self.lost_packets += n;
        self.last_progress = now;
        self.next_send_time = now;
        let ev = LossEvent {
            now,
            seq: oldest,
            bytes: total,
            in_flight: 0,
            kind: LossKind::Timeout,
        };
        if self.has_mi_clock {
            self.tracker.on_loss(&ev);
        }
        self.time_cca_sampled(PacketCallback::Loss, |cca| cca.on_loss(&ev));
        self.tracer.emit_with(|| TraceEvent::Rto {
            flow: self.id.0,
            at_ns: now.nanos(),
            packets: n,
        });
        true
    }

    /// Close the current monitor interval and emit its trace event.
    fn close_mi(&mut self, now: Instant) -> libra_types::MiStats {
        let min_rtt = self.min_rtt();
        let stats = self.tracker.close(now, min_rtt);
        // The MI close precedes whatever decision the controller takes on
        // it, so the trace reads cause-then-effect.
        self.tracer.emit_with(|| TraceEvent::MiClose {
            flow: self.id.0,
            at_ns: now.nanos(),
            acked_bytes: stats.acked_bytes,
            lost_bytes: stats.lost_bytes,
            ack_starved: stats.is_ack_starved(),
        });
        stats
    }

    /// When the next MI should fire after a tick at `now`.
    fn next_mi_at(&self, now: Instant) -> Instant {
        let srtt = self.srtt();
        let d = self.cca.mi_duration(srtt).max(Duration::from_millis(1));
        now + d
    }

    /// MI tick, phase 1: close the interval and tick the controller.
    /// With a policy service attached (`served`) the controller either
    /// completes the tick itself (classic CCAs, the trait default —
    /// returns `false`) or submits a policy request into `policy_state`
    /// (returns `true`); on `true` the interval's stats are stashed and
    /// the caller owes exactly one [`FlowSender::mi_tick_resolve`] before
    /// [`FlowSender::mi_tick_finish`]. Unserved, the controller decides
    /// in `on_mi` and nothing is ever owed.
    pub fn mi_tick_submit(
        &mut self,
        now: Instant,
        served: bool,
        policy_state: &mut Vec<f64>,
    ) -> bool {
        let stats = self.close_mi(now);
        let submitted = self.time_cca(|cca| {
            if served {
                cca.mi_submit(&stats, policy_state)
            } else {
                cca.on_mi(&stats);
                false
            }
        });
        if submitted {
            self.pending_mi = Some(stats);
        }
        submitted
    }

    /// MI tick, phase 2: feed the policy server's action back
    /// into the controller for the interval stashed by
    /// [`FlowSender::mi_tick_submit`].
    pub fn mi_tick_resolve(&mut self, action: &[f64]) {
        let stats = self
            .pending_mi
            .take()
            .expect("mi_tick_resolve without a submitted MI");
        self.time_cca(|cca| cca.mi_resolve(&stats, action));
    }

    /// MI tick, phase 3: schedule-side tail of the tick. Returns when
    /// the next MI should fire (the controller's decision is already
    /// applied, so `mi_duration` sees the post-decision state).
    pub fn mi_tick_finish(&mut self, now: Instant) -> Instant {
        // A submitted MI that is never resolved silently skips a decision:
        // checked in debug builds and, in release, under
        // `checked-invariants`.
        #[cfg(any(debug_assertions, feature = "checked-invariants"))]
        assert!(self.pending_mi.is_none(), "unresolved policy request");
        self.next_mi_at(now)
    }

    /// Average goodput between `start` and `end`.
    pub fn avg_goodput(&self, span: Duration) -> Rate {
        Rate::from_bytes_over(self.acked_packets * self.mss, span)
    }

    /// Fraction of packets lost among those resolved (acked or lost).
    pub fn loss_fraction(&self) -> f64 {
        let resolved = self.acked_packets + self.lost_packets;
        if resolved == 0 {
            0.0
        } else {
            self.lost_packets as f64 / resolved as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fixed-window controller for driving the sender in isolation.
    struct TestCca {
        cwnd: u64,
        acks: u32,
        losses: u32,
        mis: u32,
    }
    impl CongestionControl for TestCca {
        fn name(&self) -> &'static str {
            "test"
        }
        fn on_ack(&mut self, _: &AckEvent) {
            self.acks += 1;
        }
        fn on_loss(&mut self, _: &LossEvent) {
            self.losses += 1;
        }
        fn on_mi(&mut self, _: &libra_types::MiStats) {
            self.mis += 1;
        }
        fn cwnd_bytes(&self) -> u64 {
            self.cwnd
        }
    }

    fn sender(cwnd: u64) -> FlowSender {
        FlowSender::new(
            FlowId(0),
            Box::new(TestCca {
                cwnd,
                acks: 0,
                losses: 0,
                mis: 0,
            }),
            1500,
            Instant::ZERO,
            Instant::from_secs(100),
            Duration::from_millis(40),
            Duration::from_millis(100),
        )
    }

    fn ack_for(p: &Packet, _now: Instant) -> AckPacket {
        AckPacket {
            flow: p.flow,
            seq: p.seq,
            bytes: p.bytes,
            sent_at: p.sent_at,
            delivered_at_send: p.delivered_at_send,
            app_limited: p.app_limited,
            ecn: p.ecn,
        }
    }

    /// Test shim over the scratch-buffer API: collect one call's output.
    fn emit(s: &mut FlowSender, now: Instant) -> (Vec<Packet>, Option<Instant>) {
        let mut out = Vec::new();
        let wake = s.try_emit(now, &mut out);
        (out, wake)
    }

    #[test]
    fn initial_burst_fills_window() {
        let mut s = sender(10 * 1500);
        s.activate(Instant::ZERO);
        let (pkts, _) = emit(&mut s, Instant::ZERO);
        assert_eq!(pkts.len(), 10);
        assert_eq!(s.in_flight(), 15_000);
        // Window-limited now.
        let (pkts2, wake2) = emit(&mut s, Instant::from_millis(1));
        assert!(pkts2.is_empty());
        assert!(wake2.is_none());
    }

    #[test]
    fn ack_frees_window_and_sets_rtt() {
        let mut s = sender(2 * 1500);
        s.activate(Instant::ZERO);
        let (pkts, _) = emit(&mut s, Instant::ZERO);
        assert_eq!(pkts.len(), 2);
        let now = Instant::from_millis(50);
        let losses = s.on_ack_packet(&ack_for(&pkts[0], now), now);
        assert!(losses.is_empty());
        assert_eq!(s.srtt(), Duration::from_millis(50));
        assert_eq!(s.min_rtt(), Duration::from_millis(50));
        assert_eq!(s.in_flight(), 1500);
        assert_eq!(s.acked_packets, 1);
        // Paced now: emitting again yields a packet (credit available).
        let (pkts2, _) = emit(&mut s, now);
        assert_eq!(pkts2.len(), 1);
    }

    #[test]
    fn pacing_spaces_packets() {
        let mut s = sender(100 * 1500);
        s.activate(Instant::ZERO);
        let (pkts, _) = emit(&mut s, Instant::ZERO);
        assert_eq!(pkts.len(), 100, "initial burst fills the window");
        // Free half the window so the next emission is pacing-limited,
        // not window-limited.
        let now = Instant::from_millis(100);
        for p in &pkts[..50] {
            s.on_ack_packet(&ack_for(p, now), now);
        }
        // cwnd 150 kB, srtt 100 ms → pacing ≈ 1.2 × 12 Mbps.
        let (pkts2, wake) = emit(&mut s, now);
        // One packet immediately, then pacing-limited with a wake time.
        assert!(!pkts2.is_empty());
        let wake = wake.expect("pacing wake");
        assert!(wake > now);
        let gap = wake.saturating_since(now);
        // 1500 B at 14.4 Mbps ≈ 833 µs per packet — allow some slack for
        // multiple packets emitted in the call.
        assert!(gap < Duration::from_millis(10), "gap {gap}");
    }

    #[test]
    fn reorder_rule_declares_loss() {
        let mut s = sender(10 * 1500);
        s.activate(Instant::ZERO);
        let (pkts, _) = emit(&mut s, Instant::ZERO);
        // ACK 1,2,3,4 but never 0 → 0 is lost when 4 is ACKed (0 < 4-3+... cutoff=1).
        let mut losses = Vec::new();
        for (i, p) in pkts.iter().enumerate().skip(1).take(4) {
            let now = Instant::from_millis(10 * (i as u64 + 1));
            losses.extend_from_slice(s.on_ack_packet(&ack_for(p, now), now));
        }
        assert_eq!(losses.len(), 1);
        assert_eq!(losses[0].seq, 0);
        assert_eq!(losses[0].kind, LossKind::FastRetransmit);
        assert_eq!(s.lost_packets, 1);
    }

    #[test]
    fn rto_fires_and_flushes() {
        let mut s = sender(4 * 1500);
        s.activate(Instant::ZERO);
        let _ = emit(&mut s, Instant::ZERO);
        assert_eq!(s.in_flight(), 6000);
        // Nothing ACKed; RTO floor is 200 ms (srtt unknown → init 40 ms).
        assert!(!s.on_rto_check(Instant::from_millis(100)));
        assert!(s.on_rto_check(Instant::from_millis(500)));
        assert_eq!(s.in_flight(), 0);
        assert_eq!(s.lost_packets, 4);
        // Idempotent afterwards.
        assert!(!s.on_rto_check(Instant::from_millis(501)));
    }

    #[test]
    fn mi_tick_schedules_next() {
        let mut s = sender(4 * 1500);
        s.activate(Instant::ZERO);
        let at = Instant::from_millis(40);
        assert!(!s.mi_tick_submit(at, false, &mut Vec::new()));
        assert_eq!(s.mi_tick_finish(at), Instant::from_millis(80)); // init_rtt = 40 ms
    }

    /// A sender whose controller owes a policy decision on every MI.
    fn submitting_sender() -> FlowSender {
        struct Submits;
        impl CongestionControl for Submits {
            fn name(&self) -> &'static str {
                "submits"
            }
            fn on_ack(&mut self, _: &AckEvent) {}
            fn on_loss(&mut self, _: &LossEvent) {}
            fn mi_submit(&mut self, _: &libra_types::MiStats, _: &mut Vec<f64>) -> bool {
                true
            }
            fn cwnd_bytes(&self) -> u64 {
                15_000
            }
        }
        FlowSender::new(
            FlowId(0),
            Box::new(Submits),
            1500,
            Instant::ZERO,
            Instant::from_secs(100),
            Duration::from_millis(40),
            Duration::from_millis(100),
        )
    }

    #[test]
    fn served_submit_owes_exactly_one_resolve() {
        let mut s = submitting_sender();
        let at = Instant::from_millis(40);
        // Unserved, the controller is never asked to submit.
        assert!(!s.mi_tick_submit(at, false, &mut Vec::new()));
        assert_eq!(s.mi_tick_finish(at), Instant::from_millis(80));
        assert!(s.mi_tick_submit(at, true, &mut Vec::new()));
        s.mi_tick_resolve(&[0.0]);
        assert_eq!(s.mi_tick_finish(at), Instant::from_millis(80));
    }

    #[test]
    #[should_panic(expected = "without a submitted MI")]
    fn resolve_without_a_submit_panics() {
        submitting_sender().mi_tick_resolve(&[0.0]);
    }

    // Release builds without `checked-invariants` compile the check out.
    #[cfg(any(debug_assertions, feature = "checked-invariants"))]
    #[test]
    #[should_panic(expected = "unresolved policy request")]
    fn finish_with_an_unresolved_submit_panics() {
        let mut s = submitting_sender();
        let at = Instant::from_millis(40);
        assert!(s.mi_tick_submit(at, true, &mut Vec::new()));
        s.mi_tick_finish(at);
    }

    #[test]
    fn stop_time_halts_emission() {
        let mut s = sender(10 * 1500);
        s.activate(Instant::ZERO);
        s.stop = Instant::from_millis(10);
        let (pkts, _) = emit(&mut s, Instant::from_millis(20));
        assert!(pkts.is_empty());
    }

    #[test]
    fn late_ack_after_rto_is_ignored() {
        let mut s = sender(2 * 1500);
        s.activate(Instant::ZERO);
        let (pkts, _) = emit(&mut s, Instant::ZERO);
        assert!(s.on_rto_check(Instant::from_millis(500)));
        let before = s.acked_packets;
        let now = Instant::from_millis(600);
        let losses = s.on_ack_packet(&ack_for(&pkts[0], now), now);
        assert!(losses.is_empty());
        assert_eq!(s.acked_packets, before);
    }

    #[test]
    fn window_survives_resumed_sending_after_rto() {
        // After an RTO flush the deque is empty but next_seq keeps
        // counting; the window must re-anchor its base on the next send.
        let mut s = sender(2 * 1500);
        s.activate(Instant::ZERO);
        let _ = emit(&mut s, Instant::ZERO);
        assert!(s.on_rto_check(Instant::from_millis(500)));
        let now = Instant::from_millis(500);
        let (pkts, _) = emit(&mut s, now);
        assert_eq!(pkts.len(), 2);
        assert_eq!(pkts[0].seq, 2, "sequences continue after the flush");
        let later = Instant::from_millis(550);
        let losses = s.on_ack_packet(&ack_for(&pkts[0], later), later);
        assert!(losses.is_empty());
        assert_eq!(s.in_flight(), 1500);
    }

    #[test]
    fn out_of_order_acks_clear_mid_window_slots() {
        let mut s = sender(6 * 1500);
        s.activate(Instant::ZERO);
        let (pkts, _) = emit(&mut s, Instant::ZERO);
        assert_eq!(pkts.len(), 6);
        let now = Instant::from_millis(10);
        // ACK 2 then 0 then 1: holes open and close mid-window without
        // tripping the reorder rule (high=2 < cutoff threshold).
        for idx in [2usize, 0, 1] {
            let losses = s.on_ack_packet(&ack_for(&pkts[idx], now), now);
            assert!(losses.is_empty());
        }
        assert_eq!(s.in_flight(), 3 * 1500);
        // Duplicate ACK is a no-op.
        assert!(s.on_ack_packet(&ack_for(&pkts[1], now), now).is_empty());
        assert_eq!(s.in_flight(), 3 * 1500);
    }

    /// The ring against the `BTreeMap<seq, send time>` it replaced, over
    /// seeded random operation sequences: inserts; removes in order, out
    /// of order, duplicated and below the base; reorder sweeps; and RTO
    /// flushes. Every return value and `len()` must equal the map's, and
    /// the bytes the old per-slot sums produced (one MSS per packet) must
    /// equal the count times MSS the sender now derives them from.
    #[test]
    fn window_matches_btreemap_model() {
        use libra_types::DetRng;
        use std::collections::BTreeMap;
        const MSS: u64 = 1460;
        for seed in 0..32 {
            let mut rng = DetRng::new(seed);
            let mut ring = OutstandingWindow::default();
            let mut model: BTreeMap<u64, Instant> = BTreeMap::new();
            let mut next_seq = 0u64;
            // Byte totals kept the old way, one MSS added per packet.
            let (mut in_flight, mut acked, mut lost) = (0u64, 0u64, 0u64);
            for step in 0..3_000u64 {
                let now = Instant::from_nanos(step * 1_000 + rng.uniform_u64(0, 1_000));
                let oldest = model.keys().next().copied().unwrap_or(next_seq);
                match rng.uniform_u64(0, 100) {
                    0..40 if model.len() < 256 => {
                        ring.insert(next_seq, now);
                        model.insert(next_seq, now);
                        next_seq += 1;
                        in_flight += MSS;
                    }
                    0..55 => {
                        // In order, out of order, duplicate or below base.
                        let seq = if rng.chance(0.3) {
                            oldest
                        } else {
                            rng.uniform_u64(oldest.saturating_sub(3), next_seq + 2)
                        };
                        let got = ring.remove(seq);
                        assert_eq!(got, model.remove(&seq), "seed {seed} step {step} seq {seq}");
                        if got.is_some() {
                            in_flight -= MSS;
                            acked += MSS;
                        }
                    }
                    55..95 => {
                        let cutoff = rng.uniform_u64(oldest.saturating_sub(2), next_seq + 3);
                        loop {
                            let want = match model.first_key_value() {
                                Some((&k, _)) if k < cutoff => model.pop_first().map(|(k, _)| k),
                                _ => None,
                            };
                            let got = ring.take_front_below(cutoff);
                            assert_eq!(got, want, "seed {seed} step {step} cutoff {cutoff}");
                            if got.is_none() {
                                break;
                            }
                            in_flight -= MSS;
                            lost += MSS;
                        }
                    }
                    _ if !model.is_empty() => {
                        let (first, n) = ring.flush();
                        assert_eq!((first, n), (oldest, model.len() as u64));
                        assert_eq!(n * MSS, in_flight);
                        model.clear();
                        lost += in_flight;
                        in_flight = 0;
                    }
                    _ => {}
                }
                assert_eq!(ring.len(), model.len(), "seed {seed} step {step}");
                assert_eq!(ring.is_empty(), model.is_empty());
                assert_eq!(ring.len() as u64 * MSS, in_flight);
                assert_eq!(in_flight + acked + lost, next_seq * MSS);
            }
        }
    }

    /// The sender derives every byte total from a packet count: over
    /// seeded random ACK orders (drops, duplicates, reordering) and RTOs,
    /// bytes in flight are the outstanding count times MSS, each loss
    /// carries one MSS, and every packet sent is acknowledged, lost or
    /// still outstanding.
    #[test]
    fn sender_byte_totals_are_packet_counts_times_mss() {
        use libra_types::DetRng;
        const MSS: u64 = 1234;
        for seed in 0..16 {
            let mut rng = DetRng::new(seed);
            let mut s = FlowSender::new(
                FlowId(0),
                Box::new(TestCca {
                    cwnd: 40 * MSS,
                    acks: 0,
                    losses: 0,
                    mis: 0,
                }),
                MSS,
                Instant::ZERO,
                Instant::from_secs(100),
                Duration::from_millis(40),
                Duration::from_millis(100),
            );
            s.activate(Instant::ZERO);
            let mut now = Instant::ZERO;
            let mut pipe: Vec<Packet> = Vec::new();
            let mut fast_lost = 0u64;
            for _ in 0..400 {
                now += Duration::from_micros(rng.uniform_u64(1, 5_000));
                let mut out = Vec::new();
                s.try_emit(now, &mut out);
                pipe.extend(out.into_iter().filter(|_| !rng.chance(0.05)));
                for _ in 0..rng.uniform_u64(0, 4) {
                    if pipe.is_empty() {
                        break;
                    }
                    let i = rng.uniform_u64(0, pipe.len().min(4) as u64) as usize;
                    let p = if rng.chance(0.1) {
                        pipe[i]
                    } else {
                        pipe.remove(i)
                    };
                    for loss in s.on_ack_packet(&ack_for(&p, now), now) {
                        assert_eq!(loss.bytes, MSS);
                        fast_lost += 1;
                    }
                }
                if rng.chance(0.02) {
                    now += Duration::from_secs(1);
                    s.on_rto_check(now);
                }
                assert_eq!(s.in_flight(), s.outstanding.len() as u64 * MSS);
                assert_eq!(
                    s.sent_packets,
                    s.acked_packets + s.lost_packets + s.outstanding.len() as u64
                );
                let binned: u64 = s.goodput_bins.counts().sum();
                assert_eq!(binned, s.acked_packets);
            }
            assert!(s.acked_packets > 100 && fast_lost > 0, "seed {seed}");
        }
    }

    impl BinSeries {
        /// Packets per bin, from bin 0 to the last bin an ACK landed in.
        fn counts(&self) -> impl Iterator<Item = u64> + '_ {
            let open = (self.open.2 > 0).then_some(u64::from(self.open.2));
            varint::values(&self.closed).chain(open)
        }
    }

    fn bits(pts: impl IntoIterator<Item = (f64, f64)>) -> Vec<(u64, u64)> {
        pts.into_iter()
            .map(|(t, v)| (t.to_bits(), v.to_bits()))
            .collect()
    }

    #[test]
    fn bin_series_mbps() {
        // The reference keeps the formula the packet counts replaced: each
        // bin's bytes summed as an `f64`, one packet at a time, then bin
        // centre and Mbps in exactly this operation order (figure tables
        // and journals pin these bits).
        fn spelled_out(b: &BinSeries) -> Vec<(f64, f64)> {
            let w = b.bin.as_secs_f64();
            let mut out = Vec::new();
            for (i, n) in b.counts().enumerate() {
                let mut bytes = 0.0;
                for _ in 0..n {
                    bytes += b.unit as f64;
                }
                out.push(((i as f64 + 0.5) * w, bytes * 8.0 / w / 1e6));
            }
            out
        }

        let mut b =
            BinSeries::with_horizon(Duration::from_millis(100), Instant::from_secs(1), 1250);
        assert_eq!(b.points().count(), 0);
        for _ in 0..100 {
            b.count_ack(Instant::from_millis(50)); // 125 kB in first bin
        }
        let pts: Vec<_> = b.points().collect();
        assert_eq!(pts.len(), 1);
        assert!((pts[0].1 - 10.0).abs() < 1e-9); // 125 kB / 100 ms = 10 Mbps
        assert_eq!(bits(b.points()), bits(spelled_out(&b)));

        // Either side of a bin edge.
        for (ns, n) in [(99_999_999, 1), (100_000_000, 2), (250_000_000, 3)] {
            for _ in 0..n {
                b.count_ack(Instant::from_nanos(ns));
            }
        }
        assert_eq!(b.counts().collect::<Vec<_>>(), [101, 2, 3]);
        assert_eq!(bits(b.points()), bits(spelled_out(&b)));

        // A late start leads with empty bins at their own centres, and a
        // width that is not a power of two exercises the rounding.
        let mut late =
            BinSeries::with_horizon(Duration::from_millis(30), Instant::from_secs(1), 1500);
        late.count_ack(Instant::from_millis(95));
        late.count_ack(Instant::from_millis(119));
        late.count_ack(Instant::from_millis(119));
        late.count_ack(Instant::from_millis(120));
        assert_eq!(late.counts().collect::<Vec<_>>(), [0, 0, 0, 3, 1]);
        assert_eq!(bits(late.points()), bits(spelled_out(&late)));
        assert_eq!(late.points().count(), 5);
        assert!(late.points().take(3).all(|(_, mbps)| mbps == 0.0));
        let (t, mbps) = late.points().nth(3).expect("bin 3");
        assert!((t - 0.105).abs() < 1e-12 && (mbps - 1.2).abs() < 1e-9);

        // A bin far fuller than any 100 ms of a real link still reads the
        // running sum's bits.
        late.open.2 = 1 << 20;
        assert_eq!(bits(late.points()), bits(spelled_out(&late)));
    }

    // Release builds without `checked-invariants` compile the check out.
    #[cfg(any(debug_assertions, feature = "checked-invariants"))]
    #[test]
    #[should_panic(expected = "ACK into a closed bin")]
    fn counting_into_a_closed_bin_panics() {
        let mut b =
            BinSeries::with_horizon(Duration::from_millis(100), Instant::from_secs(1), 1250);
        b.count_ack(Instant::from_millis(150));
        b.count_ack(Instant::from_millis(50));
    }

    #[test]
    fn packed_series_read_back_the_spelled_out_bits() {
        // Goodput: counts at every varint length boundary, each closed by
        // the next bin's ACK, the last left open.
        let counts = [u32::MAX, 0, 127, 128, 16_383, 16_384, u32::MAX];
        let width = Duration::from_millis(100);
        let mut b = BinSeries::with_horizon(width, Instant::from_secs(60), 1500);
        for (i, &n) in counts.iter().enumerate() {
            b.count_ack(Instant::from_nanos(i as u64 * width.nanos()));
            b.open.2 = n;
        }
        assert_eq!(b.closed.len(), 5 + 1 + 1 + 2 + 2 + 3);
        let w = width.nanos() as f64 / 1e9;
        let spelled: Vec<_> = counts
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                let bytes = (u64::from(n) * 1500) as f64;
                ((i as f64 + 0.5) * w, bytes * 8.0 / w / 1e6)
            })
            .collect();
        assert_eq!(bits(b.points()), bits(spelled));

        // RTT: gaps and samples across the length boundaries up to
        // `MAX_RTO`, then one sample at a 60 s horizon.
        let mut at = 0;
        let samples: Vec<(u64, u64)> = [
            (0, 0),
            (127, 127),
            (128, 128),
            (16_383, 16_384),
            (1, MIN_RTO.nanos()),
            (MAX_RTO.nanos(), MAX_RTO.nanos()),
        ]
        .into_iter()
        .map(|(gap, rtt)| {
            at += gap;
            (at, rtt)
        })
        .chain([(Instant::from_secs(60).nanos(), MAX_RTO.nanos())])
        .collect();
        let mut rtts = RttSeries::default();
        for &(at, rtt) in &samples {
            rtts.record_rtt(Instant::from_nanos(at), Duration::from_nanos(rtt));
        }
        let spelled = samples
            .iter()
            .map(|&(at, rtt)| (at as f64 / 1e9, rtt as f64 / 1e6));
        assert_eq!(bits(rtts.points()), bits(spelled));
    }

    #[test]
    fn late_start_goodput_series_never_reallocates() {
        // Bins are indexed by absolute sim time: a flow alive 30 s → 60 s
        // needs 601 bins, not the 301 its lifetime spans, one byte each.
        let mut s = FlowSender::new(
            FlowId(0),
            Box::new(TestCca {
                cwnd: 15_000,
                acks: 0,
                losses: 0,
                mis: 0,
            }),
            1500,
            Instant::from_secs(30),
            Instant::from_secs(60),
            Duration::from_millis(40),
            Duration::from_millis(100),
        );
        let reserved = s.goodput_bins.closed.capacity();
        let storage = s.goodput_bins.closed.as_ptr();
        assert_eq!(reserved, 601);
        for ms in (30_000..=60_000u64).step_by(50) {
            s.goodput_bins.count_ack(Instant::from_millis(ms));
        }
        assert_eq!(s.goodput_bins.counts().count(), 601);
        assert_eq!(s.goodput_bins.closed.capacity(), reserved);
        assert_eq!(s.goodput_bins.closed.as_ptr(), storage);
    }

    #[test]
    fn clockless_controller_is_never_fed_to_the_tracker() {
        struct NoClock;
        impl CongestionControl for NoClock {
            fn name(&self) -> &'static str {
                "no-clock"
            }
            fn on_ack(&mut self, _: &AckEvent) {}
            fn on_loss(&mut self, _: &LossEvent) {}
            fn mi_duration(&self, _: Duration) -> Duration {
                Duration::MAX
            }
            fn cwnd_bytes(&self) -> u64 {
                15_000
            }
        }
        assert!(sender(15_000).has_mi_clock());
        let mut s = FlowSender::new(
            FlowId(0),
            Box::new(NoClock),
            1500,
            Instant::ZERO,
            Instant::from_secs(100),
            Duration::from_millis(40),
            Duration::from_millis(100),
        );
        assert!(!s.has_mi_clock());
        s.activate(Instant::ZERO);
        let (pkts, _) = emit(&mut s, Instant::ZERO);
        let now = Instant::from_millis(50);
        s.on_ack_packet(&ack_for(&pkts[0], now), now);
        let stats = s.close_mi(Instant::from_millis(60));
        assert_eq!((stats.sent_bytes, stats.acks), (0, 0));
        assert_eq!(s.acked_packets, 1);
    }

    #[test]
    fn per_packet_compute_time_is_sampled() {
        let mut s = sender(200 * 1500);
        s.activate(Instant::ZERO);
        let (pkts, _) = emit(&mut s, Instant::ZERO);
        assert_eq!(pkts.len(), 200);
        // 200 on_send calls, stamped at calls 0, 64, 128 and 192 only:
        // every credit is a whole multiple of the stride.
        assert_eq!(s.callback_calls[PacketCallback::Send as usize], 200);
        assert_eq!(s.compute_ns % u64::from(COMPUTE_SAMPLE_EVERY), 0);
        // With measurement off nothing is stamped or counted.
        let mut quiet = sender(10 * 1500);
        quiet.measure_compute = false;
        quiet.activate(Instant::ZERO);
        let _ = emit(&mut quiet, Instant::ZERO);
        assert_eq!(quiet.compute_ns, 0);
        assert_eq!(quiet.callback_calls, [0; 4]);
    }

    #[test]
    fn loss_fraction() {
        let mut s = sender(10 * 1500);
        s.activate(Instant::ZERO);
        let (pkts, _) = emit(&mut s, Instant::ZERO);
        for (i, p) in pkts.iter().enumerate().skip(1).take(4) {
            let now = Instant::from_millis(10 * (i as u64 + 1));
            s.on_ack_packet(&ack_for(p, now), now);
        }
        // 4 acked, 1 lost
        assert!((s.loss_fraction() - 0.2).abs() < 1e-12);
    }
}
