//! Parked helper threads for the large batched products.
//!
//! [`for_each_chunk`] runs `f(i, chunk)` once for every chunk of `out`,
//! on the calling thread and on whichever helpers join in. The helpers —
//! `available_parallelism() − 1` of them, so none on a one-core host —
//! start at the first call and park on a condvar between jobs. There is
//! one job slot: a caller publishes its job only when the slot is free
//! and otherwise runs every chunk itself, so concurrent callers never
//! queue behind one another. The caller and the helpers claim chunks
//! from one shared cursor, and each chunk is a disjoint `&mut` slice of
//! `out`, so which thread fills a chunk, and when, never reaches a
//! value: `f` alone decides every element of its chunk.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::*};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::{iter::Enumerate, slice::ChunksMut};

/// One caller's chunks and the function that fills each.
struct Job<'a> {
    /// The shared cursor: the next unclaimed chunk, with its index.
    chunks: Mutex<Enumerate<ChunksMut<'a, f64>>>,
    f: &'a (dyn Fn(usize, &mut [f64]) + Sync),
    /// Set by a helper that unwound out of `f`, its chunk unfilled.
    panicked: AtomicBool,
}

impl Job<'_> {
    /// Claim and fill chunks until none is left.
    fn drain(&self) {
        loop {
            let next = lock(&self.chunks).next();
            let Some((i, chunk)) = next else { return };
            (self.f)(i, chunk);
        }
    }
}

/// The published job, if any. `epoch` counts publications, so a helper
/// that has drained a job parks until the next one instead of rejoining.
struct Slot {
    job: Option<&'static Job<'static>>,
    epoch: u64,
}

static SLOT: Mutex<Slot> = Mutex::new(Slot {
    job: None,
    epoch: 0,
});
static WAKE: Condvar = Condvar::new();
/// Helpers that may still touch the published (or just unpublished)
/// job. Incremented only under the `SLOT` lock while a job is published,
/// so a caller that has since taken the lock sees the increment; each
/// helper's `Release` decrement, after its last write to the job's
/// chunks, pairs with the caller's `Acquire` load.
static ACTIVE: AtomicUsize = AtomicUsize::new(0);
/// How many helpers were spawned, once the first split asked.
static HELPERS: OnceLock<usize> = OnceLock::new();

/// Every update under these locks is one assignment or one iterator
/// step, valid at every point, so a poisoned guard is still sound.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Run `f(i, chunk)` for chunk `i` of `out.chunks_mut(len)`, every
/// chunk exactly once, spread over the caller and the free helpers, which
/// the first call spawns. Returns once every chunk is filled.
// Audited taint barrier: helper scheduling decides only which thread
// fills a chunk; every element is `f`'s function of its chunk index.
// lint: allow(nondeterminism_taint)
pub(crate) fn for_each_chunk(out: &mut [f64], len: usize, f: &(dyn Fn(usize, &mut [f64]) + Sync)) {
    let job = Job {
        chunks: Mutex::new(out.chunks_mut(len).enumerate()),
        f,
        panicked: AtomicBool::new(false),
    };
    let helpers = *HELPERS.get_or_init(|| {
        // A helper the host refuses to start is one fewer: its share of
        // the chunks falls to the callers.
        let mut helpers = 0;
        for _ in 1..std::thread::available_parallelism().map_or(1, |n| n.get()) {
            // lint: allow(threads)
            helpers += usize::from(std::thread::Builder::new().spawn(serve).is_ok());
        }
        helpers
    });
    let mut slot = lock(&SLOT);
    let finish = (helpers > 0 && slot.job.is_none()).then(|| {
        // SAFETY: the erased lifetime is never relied on. `Finish`
        // unpublishes the job and then waits until no helper is
        // registered, on return and on unwind alike; helpers register
        // only under this lock while the job is published and deregister
        // after their last use of it. So no helper reference outlives
        // `job`.
        slot.job = Some(unsafe { std::mem::transmute::<&Job, &'static Job<'static>>(&job) });
        slot.epoch += 1;
        WAKE.notify_all();
        Finish
    });
    drop(slot);
    job.drain();
    drop(finish);
    assert!(!job.panicked.into_inner(), "a helper panicked mid-chunk");
}

/// Unpublishes the caller's job and waits out the helpers still in it.
struct Finish;

impl Drop for Finish {
    fn drop(&mut self) {
        lock(&SLOT).job = None;
        // A helper still registered holds at most one chunk; yielding
        // rather than parking keeps the wait to about that chunk.
        while ACTIVE.load(Acquire) > 0 {
            std::thread::yield_now();
        }
    }
}

/// A helper's life: park until a job it has not drained is published,
/// register, drain it, deregister. Helpers are never joined: they park
/// for the life of the process, and a helper's panic reaches the caller
/// through `Job::panicked`.
fn serve() {
    let mut drained = 0;
    loop {
        let mut slot = lock(&SLOT);
        let job = loop {
            match slot.job {
                Some(job) if slot.epoch != drained => break job,
                _ => slot = WAKE.wait(slot).unwrap_or_else(PoisonError::into_inner),
            }
        };
        drained = slot.epoch;
        ACTIVE.fetch_add(1, Relaxed);
        drop(slot);
        let _registered = Registered(job);
        job.drain();
    }
}

/// A helper's registration in a job; dropping it (also on unwind) is the
/// helper's last touch of the job.
struct Registered(&'static Job<'static>);

impl Drop for Registered {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.panicked.store(true, Relaxed);
        }
        ACTIVE.fetch_sub(1, Release);
    }
}

/// Run `f` while the slot holds an empty job of its own, so every
/// [`for_each_chunk`] inside finds the helpers busy.
#[cfg(test)]
pub(crate) fn with_slot_taken<R>(f: impl FnOnce() -> R) -> R {
    fn nothing(_: usize, _: &mut [f64]) {}
    let empty: &'static Job<'static> = Box::leak(Box::new(Job {
        chunks: Mutex::new([].chunks_mut(1).enumerate()),
        f: &nothing,
        panicked: AtomicBool::new(false),
    }));
    loop {
        let mut slot = lock(&SLOT);
        if slot.job.is_none() {
            slot.job = Some(empty);
            slot.epoch += 1;
            break;
        }
        drop(slot);
        std::thread::yield_now();
    }
    let r = f();
    lock(&SLOT).job = None;
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::{self, ThreadId};

    /// Fill each chunk with its index; return the thread that filled it.
    fn fill(out: &mut [f64], chunk_len: usize) -> Vec<ThreadId> {
        let chunks = out.len().div_ceil(chunk_len);
        let who = Mutex::new(vec![None; chunks]);
        for_each_chunk(out, chunk_len, &|i, chunk| {
            chunk.iter_mut().for_each(|v| *v = i as f64);
            lock(&who)[i] = Some(thread::current().id());
        });
        let who = who.into_inner().expect("unpoisoned");
        who.into_iter()
            .map(|t| t.expect("every chunk ran"))
            .collect()
    }

    #[test]
    fn every_chunk_runs_exactly_once_including_the_partial_last() {
        for (len, chunk_len) in [(0, 4), (1, 4), (16, 4), (17, 4), (1000, 7)] {
            let mut out = vec![f64::NAN; len];
            let runs = AtomicUsize::new(0);
            for_each_chunk(&mut out, chunk_len, &|i, chunk| {
                runs.fetch_add(1, Relaxed);
                chunk.iter_mut().for_each(|v| *v = i as f64);
            });
            assert_eq!(runs.into_inner(), len.div_ceil(chunk_len));
            for (j, v) in out.iter().enumerate() {
                assert_eq!(*v, (j / chunk_len) as f64, "{len}/{chunk_len} at {j}");
            }
        }
    }

    #[test]
    fn a_caller_that_finds_the_slot_taken_runs_every_chunk_itself() {
        let me = thread::current().id();
        let who = with_slot_taken(|| fill(&mut vec![f64::NAN; 64], 1));
        assert!(
            who.iter().all(|&t| t == me),
            "a busy slot still handed out chunks"
        );
    }
}
