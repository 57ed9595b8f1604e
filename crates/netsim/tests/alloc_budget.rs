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
//! report keeps only its rows and RTT series.
//! A per-flow copy of the series at finalize hides under the high-water
//! mark (finalize frees each flow's window as it goes) but not under the
//! retained bound.
//!
//! One test only: the counters are process-global.

use libra_classic::Cubic;
use libra_netsim::{FlowConfig, LinkConfig, Simulation};
use libra_types::{Duration, Instant, Rate};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

// Statistics only: none publishes other data, so `Relaxed`.
static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus a call counter and a live-byte gauge.
struct CountingAlloc;

fn note() {
    if ARMED.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter never touches
// the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: the caller's `layout` obligations pass straight through.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        grow(layout.size());
        // SAFETY: as the signature's — `layout` is forwarded unchanged.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: the caller's `layout` obligations pass straight through.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        grow(layout.size());
        // SAFETY: as the signature's — `layout` is forwarded unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
    // `layout`; the caller guarantees `new_size` is valid.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        if new_size >= layout.size() {
            grow(new_size - layout.size());
        } else {
            shrink(layout.size() - new_size);
        }
        // SAFETY: as the signature's — all three are forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
    // `layout`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        // SAFETY: as the signature's — both are forwarded unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const FLOWS: u64 = 64;

/// Live heap per flow after the `add_flow` calls. Each flow leaves
/// 2 052 B (2 116 B under `checked-invariants`), of which its 201 goodput
/// bins, one `u32` packet count each, are 804 B. Bins that summed bytes
/// as `f64` left 2 872 B (2 936 B).
const SETUP_BYTES_PER_FLOW: u64 = 2_400;

/// Heap high-water growth allowed per flow during `run`. The 20 s run
/// reaches 4 832 B per flow (5 024 B under `checked-invariants`: packet
/// slabs, windows, wheel and report). Windows of 24-byte
/// `Option<(bytes, send time)>` slots reached 6 220 B (6 412 B); each
/// slot now holds only a send time, in 8 bytes.
const PEAK_BYTES_PER_FLOW: u64 = 5_632;

/// Heap growth per flow still live in the report when `run` returns. The
/// 20 s run keeps 1 695 B per flow (report rows and the RTT series); a
/// finalize that rebuilt the 201-bin goodput series as `(seconds, Mbps)`
/// pairs kept 3 231 B.
const RETAINED_BYTES_PER_FLOW: u64 = 2_400;

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
    let empty = LIVE.load(Ordering::Relaxed);
    for i in 0..FLOWS {
        sim.add_flow(FlowConfig::new(
            Box::new(Cubic::new(1500)),
            Instant::ZERO + Duration::from_millis(50 * i),
            horizon,
        ));
    }
    let before = ALLOCS.load(Ordering::Relaxed);
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    ARMED.store(true, Ordering::Relaxed);
    let report = sim.run(Instant::from_secs(secs));
    ARMED.store(false, Ordering::Relaxed);
    Counted {
        setup: live - empty,
        allocs: ALLOCS.load(Ordering::Relaxed) - before,
        pkts: report.flows.iter().map(|f| f.acked_packets).sum(),
        peak_growth: PEAK.load(Ordering::Relaxed) - live,
        retained: LIVE.load(Ordering::Relaxed).saturating_sub(live),
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
