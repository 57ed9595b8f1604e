//! A counting global allocator for the traced pass.
//!
//! Installed for the whole process (a global allocator cannot be swapped
//! at run time) but disarmed by default: the untraced pass pays one
//! relaxed load per allocation and counts nothing. The traced pass arms
//! it around its iterations, which turns the `no-per-packet-alloc` lint's
//! claim into a measured number.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

// Statistics only: none of these publishes other data, so `Relaxed`.
static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus two counters.
pub struct CountingAlloc;

fn note(size: usize) {
    if ARMED.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters never touch the
// returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` obligations pass straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with `layout`; the caller guarantees `new_size` is valid.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocations and bytes requested while armed, since process start.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct AllocCount {
    /// Calls to `alloc`, `alloc_zeroed` and `realloc`.
    pub allocs: u64,
    /// Bytes those calls asked for.
    pub bytes: u64,
}

/// Start counting.
pub fn arm() {
    ARMED.store(true, Ordering::Relaxed);
}

/// Stop counting; the totals stay readable.
pub fn disarm() {
    ARMED.store(false, Ordering::Relaxed);
}

/// The running totals.
pub fn count() -> AllocCount {
    AllocCount {
        allocs: ALLOCS.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;

    // One test, not two: the switch and the counters are process-global
    // and cargo runs tests on parallel threads, so an "off" test and an
    // "on" test would race. No other test arms the allocator; what other
    // tests allocate while this one has it armed only adds to the
    // counts, and the assertions are lower bounds.
    #[test]
    fn counts_only_while_armed() {
        disarm();
        let before = count();
        black_box(vec![0u8; 4096]);
        assert_eq!(count(), before, "disarmed allocator must not count");

        arm();
        let before = count();
        black_box(vec![0u8; 4096]);
        let mut v: Vec<u64> = Vec::with_capacity(4);
        v.extend(0..64); // forces at least one realloc
        black_box(&v);
        disarm();
        let after = count();
        assert!(after.allocs >= before.allocs + 3, "{before:?} → {after:?}");
        assert!(after.bytes >= before.bytes + 4096 + 64 * 8);
    }
}
