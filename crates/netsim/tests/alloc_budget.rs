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
//! One test only: the counters are process-global.

use libra_classic::Cubic;
use libra_netsim::{FlowConfig, LinkConfig, Simulation};
use libra_types::{Duration, Instant, Rate};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

// Statistics only: neither publishes other data, so `Relaxed`.
static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus a call counter.
struct CountingAlloc;

fn note() {
    if ARMED.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter never touches
// the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: the caller's `layout` obligations pass straight through.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: as the signature's — `layout` is forwarded unchanged.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: the caller's `layout` obligations pass straight through.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: as the signature's — `layout` is forwarded unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
    // `layout`; the caller guarantees `new_size` is valid.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: as the signature's — all three are forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
    // `layout`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as the signature's — both are forwarded unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// 64 staggered CUBIC flows over a 96 Mbps / 40 ms bottleneck, built for
/// a 20 s horizon and run for `secs`; returns (allocator calls during
/// `run`, delivered packets).
fn run_counted(secs: u64) -> (u64, u64) {
    let horizon = Instant::from_secs(20);
    let link = LinkConfig::constant(Rate::from_mbps(96.0), Duration::from_millis(40), 1.0);
    let mut sim = Simulation::new(link, 7);
    for i in 0..64u64 {
        sim.add_flow(FlowConfig::new(
            Box::new(Cubic::new(1500)),
            Instant::ZERO + Duration::from_millis(50 * i),
            horizon,
        ));
    }
    let before = ALLOCS.load(Ordering::Relaxed);
    ARMED.store(true, Ordering::Relaxed);
    let report = sim.run(Instant::from_secs(secs));
    ARMED.store(false, Ordering::Relaxed);
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    (allocs, report.flows.iter().map(|f| f.acked_packets).sum())
}

#[test]
fn steady_state_allocates_under_50_per_1000_packets() {
    let (allocs_10, pkts_10) = run_counted(10);
    let (allocs_20, pkts_20) = run_counted(20);
    let extra_pkts = pkts_20 - pkts_10;
    assert!(extra_pkts > 50_000, "only {extra_pkts} extra packets");
    let extra_allocs = allocs_20.saturating_sub(allocs_10);
    assert!(
        extra_allocs * 1000 <= 50 * extra_pkts,
        "{extra_allocs} allocations for {extra_pkts} extra packets \
         ({allocs_10} in 10 s, {allocs_20} in 20 s)"
    );
}
