//! Steady-state allocation budget, measured rather than grepped: the
//! `no-per-packet-alloc` lint reads constructors and cannot see churn
//! such as a `mem::take` of a bucket per visited wheel slot.
//!
//! A run's allocations split into set-up (flows, series, slabs growing to
//! their high-water mark) and a per-packet remainder. Differencing a 20 s
//! run against the same run cut at 10 s cancels the set-up and leaves the
//! remainder, which must stay under 50 allocator calls per 1000 extra
//! delivered packets.
//!
//! The same allocator tracks live bytes and their high-water mark. Three
//! are bounded per flow: the bytes `add_flow` leaves live (each sender's
//! goodput bins are reserved there, for the whole horizon), the
//! high-water mark over `run`, and the bytes the returned report still
//! holds beyond what was live when `run` started. Finalize hands each
//! flow's preallocated goodput bins to the report as they are, so the
//! report keeps only its rows and RTT series. Both series are packed
//! varints (`BinSeries`, `RttSeries`), so these bounds also fail if
//! either falls back to a wider representation.
//! A per-flow copy of the series at finalize hides under the high-water
//! mark (finalize frees each flow's window as it goes) but not under the
//! retained bound.
//!
//! One test only: the counters are process-global.

use libra_classic::Cubic;
use libra_netsim::{FlowConfig, LinkConfig, Simulation};
use libra_testalloc::{arm, calls, live, peak, reset_peak};
use libra_types::{Duration, Instant, Rate};

#[global_allocator]
static GLOBAL: libra_testalloc::CountingAlloc = libra_testalloc::CountingAlloc;

const FLOWS: u64 = 64;

/// Live heap per flow after the `add_flow` calls. Each flow leaves
/// 1 433 B (1 497 B under `checked-invariants`), of which its 201 goodput
/// bins, one reserved varint byte each, are 201 B. Bins of one `u32`
/// each left 2 036 B (2 100 B), and bins that summed bytes as `f64`
/// 2 872 B (2 936 B).
const SETUP_BYTES_PER_FLOW: u64 = 1_600;

/// Heap high-water growth allowed per flow during `run`. The 20 s run
/// reaches 3 489 B per flow (3 681 B under `checked-invariants`: packet
/// slabs, windows, wheel and report). With `u32` bins and an RTT series
/// of `(f64, f64)` pairs it reached 4 896 B (5 088 B); with windows of
/// 24-byte `Option<(bytes, send time)>` slots, 6 220 B (6 412 B).
const PEAK_BYTES_PER_FLOW: u64 = 4_096;

/// Heap growth per flow still live in the report when `run` returns. The
/// 20 s run keeps 305 B per flow (241 B under `checked-invariants`):
/// report rows and the packed RTT series, net of the windows finalize
/// frees. An RTT series of `(f64, f64)` pairs kept 1 711 B (1 647 B),
/// and a finalize that rebuilt the 201-bin goodput series as
/// `(seconds, Mbps)` pairs 3 231 B.
const RETAINED_BYTES_PER_FLOW: u64 = 768;

/// What one run of [`run_counted`] measured.
struct Counted {
    /// Live bytes the `add_flow` calls left behind (senders, their
    /// windows and goodput bins, scheduled events).
    setup: u64,
    /// Allocator calls during `run`.
    allocs: u64,
    /// Packets delivered.
    pkts: u64,
    /// Live-heap high-water mark during `run` (the report included) over
    /// the live bytes when it started.
    peak_growth: u64,
    /// Live bytes when `run` returned (the report held) over the live
    /// bytes when it started.
    retained: u64,
}

/// 64 staggered CUBIC flows over a 96 Mbps / 40 ms bottleneck, built for
/// a 20 s horizon and run for `secs`.
fn run_counted(secs: u64) -> Counted {
    let horizon = Instant::from_secs(20);
    let link = LinkConfig::constant(Rate::from_mbps(96.0), Duration::from_millis(40), 1.0);
    let mut sim = Simulation::new(link, 7);
    let empty = live();
    for i in 0..FLOWS {
        sim.add_flow(FlowConfig::new(
            Box::new(Cubic::new(1500)),
            Instant::ZERO + Duration::from_millis(50 * i),
            horizon,
        ));
    }
    let before = calls();
    let started = live();
    reset_peak();
    arm(true);
    let report = sim.run(Instant::from_secs(secs));
    arm(false);
    Counted {
        setup: started - empty,
        allocs: calls() - before,
        pkts: report.flows.iter().map(|f| f.acked_packets).sum(),
        peak_growth: peak() - started,
        retained: live().saturating_sub(started),
    }
}

#[test]
fn steady_state_allocates_under_50_per_1000_packets() {
    let ten = run_counted(10);
    let twenty = run_counted(20);
    let extra_pkts = twenty.pkts - ten.pkts;
    assert!(extra_pkts > 50_000, "only {extra_pkts} extra packets");
    let extra_allocs = twenty.allocs.saturating_sub(ten.allocs);
    assert!(
        extra_allocs * 1000 <= 50 * extra_pkts,
        "{extra_allocs} allocations for {extra_pkts} extra packets \
         ({} in 10 s, {} in 20 s)",
        ten.allocs,
        twenty.allocs
    );
    for (secs, run) in [(10, &ten), (20, &twenty)] {
        let setup = run.setup / FLOWS;
        assert!(
            setup <= SETUP_BYTES_PER_FLOW,
            "{secs} s run: add_flow left {} B live, {setup} B per flow",
            run.setup
        );
        let peak = run.peak_growth / FLOWS;
        assert!(
            peak <= PEAK_BYTES_PER_FLOW,
            "{secs} s run: heap high-water grew {} B, {peak} B per flow",
            run.peak_growth
        );
        let retained = run.retained / FLOWS;
        assert!(
            retained <= RETAINED_BYTES_PER_FLOW,
            "{secs} s run: the report keeps {} B, {retained} B per flow",
            run.retained
        );
    }
}
