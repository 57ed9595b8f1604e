// Production code must justify every potential panic site: unwraps are
// banned outside tests (audited sites use `expect` with an invariant
// message or handle the `None`/`Err` branch).
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

//! A counting global allocator for the tests that measure allocation
//! (`netsim/tests/alloc_budget.rs`, `rl/tests/eval_footprint.rs`). A
//! test binary installs it with
//!
//! ```ignore
//! #[global_allocator]
//! static GLOBAL: libra_testalloc::CountingAlloc = libra_testalloc::CountingAlloc;
//! ```
//!
//! It tracks the live bytes and their high-water mark at all times, and
//! while [`arm`]ed also the allocator calls and the bytes they request.
//! The counters are process-global, so a binary that reads them holds
//! one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

// Statistics only: none publishes other data, so `Relaxed`.
static ARMED: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);
static REQUESTED: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus the counters of this crate.
pub struct CountingAlloc;

/// Start (`true`) or stop counting calls and requested bytes.
pub fn arm(on: bool) {
    ARMED.store(on, Ordering::Relaxed);
}

/// Allocator calls (`alloc`, `alloc_zeroed`, `realloc`) while armed.
pub fn calls() -> u64 {
    CALLS.load(Ordering::Relaxed)
}

/// Bytes requested while armed: each allocation's size, and each
/// `realloc`'s new size.
pub fn requested() -> u64 {
    REQUESTED.load(Ordering::Relaxed)
}

/// Bytes live now.
pub fn live() -> u64 {
    LIVE.load(Ordering::Relaxed)
}

/// The high-water mark of [`live`] since the last [`reset_peak`].
pub fn peak() -> u64 {
    PEAK.load(Ordering::Relaxed)
}

/// Restart the high-water mark from the bytes live now.
pub fn reset_peak() {
    PEAK.store(live(), Ordering::Relaxed);
}

fn note(requested: usize) {
    if ARMED.load(Ordering::Relaxed) {
        CALLS.fetch_add(1, Ordering::Relaxed);
        REQUESTED.fetch_add(requested as u64, Ordering::Relaxed);
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
// which upholds the `GlobalAlloc` contract; the counters never touch
// the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: the caller's `layout` obligations pass straight through.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        grow(layout.size());
        // SAFETY: as the signature's — `layout` is forwarded unchanged.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: the caller's `layout` obligations pass straight through.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        grow(layout.size());
        // SAFETY: as the signature's — `layout` is forwarded unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
    // `layout`; the caller guarantees `new_size` is valid.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
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
