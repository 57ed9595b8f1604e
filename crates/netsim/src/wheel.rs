// Production code must justify every potential panic site: unwraps are
// banned outside tests (audited sites use `expect` with an invariant
// message or handle the `None`/`Err` branch).
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

//! Hierarchical timer wheel: the O(1)-amortized event scheduler behind
//! [`crate::Simulation`].
//!
//! # Why not a binary heap?
//!
//! The original event core pushed every event through one global
//! `BinaryHeap`. At single-digit flow counts that is fine; at O(1000)
//! concurrent flows the heap holds thousands of timers (pacer wakes, MI
//! ticks, RTO checks, in-flight ACKs) and every push/pop pays
//! `O(log n)` compares over a cache-hostile array. The wheel replaces
//! that with `O(1)` amortized insert/extract: an event lands in a slot
//! indexed by its timestamp bits, and extraction walks occupancy
//! bitmaps instead of sifting.
//!
//! # Layout
//!
//! Time is quantized into level-0 slots of `2^12` ns (~4.1 µs). Each of
//! the [`LEVELS`] levels holds [`SLOTS`] slots; the level of an event is
//! the **highest byte in which its slot number differs from the current
//! cursor** (a 256-ary radix trie on the slot number):
//!
//! ```text
//! level 0:  4.1 µs/slot   — next ~1 ms     (byte 0 of slot0 differs)
//! level 1:  1.05 ms/slot  — next ~268 ms   (byte 1 differs)
//! level 2:  268 ms/slot   — next ~68.7 s   (byte 2 differs)
//! level 3:  68.7 s/slot   — next ~4.9 h    (byte 3 differs)
//! overflow: calendar fallback (min-heap)   — anything farther
//! ```
//!
//! Insertion is a `xor` + `leading_zeros` + a list link. Extraction
//! drains a tiny *near-heap* holding only the current 4 µs slot; when it
//! empties, occupancy bitmaps find the next populated slot (the lowest
//! level with an occupied slot ahead of the cursor) and either dump it
//! into the near-heap (level 0) or cascade it down one level (levels
//! ≥ 1). Every event cascades at most `LEVELS - 1` times, so the
//! amortized cost per event is constant.
//!
//! # Lanes
//!
//! Beside the slots sit [`LANES`] FIFO *lanes* for event streams whose
//! due times (mostly) never decrease in push order: the simulator's
//! link completions, clean-path ACKs, pacer wakes and RTO checks, which
//! are most of its events. [`TimerWheel::push_lane`] appends to a lane:
//! no slab node, no cascade, no near-heap traffic. A stream that is
//! only usually in order asks [`TimerWheel::lane_accepts`] first: a due
//! time not below the lane's tail joins the lane, an earlier one takes
//! the slots. `pop` returns the smallest of the near-heap head and the
//! lane heads on the same `(at, seq)` key; each lane's head key is
//! cached beside the lanes (an empty lane's compares above every real
//! key), so `pop` reads no lane it does not pop.
//!
//! With most events on lanes, `pop` often finds the near-heap dry, so
//! the bitmap scan for the next occupied slot is memoised. Its inputs
//! change in three places only, and each drops the memo: `place` linking
//! a node into a slot, `place` pushing onto the overflow heap, and
//! `advance` moving the cursor.
//!
//! # Storage
//!
//! Every entry outside the lanes lives in one slab (`Vec<Node<E>>`) and
//! is named by its `u32` index; vacated nodes thread a free list, so the
//! slab's length is the resident high-water mark and steady state never
//! touches the allocator (nor do the lanes, ring buffers that keep their
//! capacity). A slot is the head index of an intrusive singly-linked
//! list through the nodes, so cascading a slot relinks indices and the
//! payload never moves between `push` and `pop`. The near and overflow
//! heaps hold 24-byte `(at, seq, index)` keys rather than whole entries.
//! (List order within a slot is LIFO and irrelevant: every slot entry
//! passes through the near-heap, which decides its pop order.)
//!
//! # Determinism
//!
//! Pop order is **exactly** the binary heap's `(at, seq)` order — the
//! property the pinned run digests depend on:
//!
//! * Slots partition time, and the cursor visits slots in increasing
//!   slot-number order (the radix-trie prefix rule guarantees a
//!   level-k slot is only entered once everything before it drained).
//! * Within a slot, the near-heap orders entries by the same
//!   `(at, seq)` key the global heap used.
//! * Overflow events differ from the cursor above byte 3, so they sort
//!   after every event resident in the wheel and are only consulted
//!   when the wheel is empty.
//! * A lane is sorted by `(at, seq)`: `seq` grows with every push and
//!   `at` never decreases along the lane (the tail rule of
//!   `lane_accepts`). So its head is its minimum,
//!   and the merged pop is the heap's order provided the wheel never
//!   cascades past a lane head: with the near-heap dry, a lane head in
//!   a slot *strictly* before the next occupied one precedes every
//!   wheel entry and pops without moving the cursor; otherwise the
//!   wheel advances to that slot and the heads are compared again.
//!
//! # The oracle
//!
//! Under the `checked-invariants` feature the wheel carries a keys-only
//! shadow `BinaryHeap` — the reference scheduler it replaced — that
//! mirrors every push (lane pushes included), and every pop asserts that
//! the wheel returned the shadow's `(at, seq)` minimum; a lane push that
//! would unsort its lane is a hard assert. A stale memoised slot scan
//! would pop a lane head past an earlier slot entry, so the oracle
//! covers the memo as well. Every suite `scripts/ci.sh`
//! runs with that feature (netsim, core, `policy_server`,
//! `policy_chaos`, the pinned `determinism` goldens,
//! `tests/wheel_equivalence.rs`) therefore checks each pop of each run
//! against the heap; the in-crate tests below also replay synthetic
//! streams, lanes included, against an explicit heap in every build.

use libra_types::Instant;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Log2 of the level-0 slot width in nanoseconds.
const GRAIN_BITS: u32 = 12;
/// Slots per level (one byte of the slot number per level).
const SLOTS: usize = 256;
/// Wheel levels; beyond them the overflow heap takes over.
const LEVELS: usize = 4;
/// Bitmap words per level (256 slots / 64 bits).
const WORDS: usize = SLOTS / 64;
/// FIFO lanes beside the slots (see "Lanes").
pub(crate) const LANES: usize = 4;

/// One scheduled event: the timestamp, the global schedule sequence
/// number (tie-break), and the payload.
#[derive(Debug)]
pub struct TimedEntry<E> {
    /// Due time.
    pub at: Instant,
    /// Schedule-order sequence number: the secondary sort key.
    pub seq: u64,
    /// The payload.
    pub event: E,
}

impl<E> PartialEq for TimedEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for TimedEntry<E> {}
impl<E> PartialOrd for TimedEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for TimedEntry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// End-of-list / empty-slot marker for slab indices.
const NIL: u32 = u32::MAX;

/// One slab cell: a resident entry (`event` is `Some`) linked into a slot
/// list, or a vacant cell (`event` is `None`) linked into the free list.
#[derive(Debug)]
struct Node<E> {
    at: Instant,
    seq: u64,
    next: u32,
    event: Option<E>,
}

/// Heap key naming a slab node; `seq` is unique, so the index never
/// decides an ordering.
type Key = Reverse<(Instant, u64, u32)>;

/// A lane head's `(at, seq)` packed as `at << 64 | seq`: heads compare
/// in `(at, seq)` order with one branch-free `u128` comparison.
#[inline]
fn head_key(at: Instant, seq: u64) -> u128 {
    (at.nanos() as u128) << 64 | seq as u128
}

/// Head key of an empty lane: above every real key, since `seq` never
/// reaches `u64::MAX`.
const EMPTY_LANE: u128 = u128::MAX;

/// A populated slot as `(abs, level, idx)` (see [`TimerWheel::next_slot`]).
type Slot = (u64, usize, usize);

/// The hierarchical timer wheel. Generic over the event payload so the
/// scheduler is testable without dragging the simulator in.
#[derive(Debug)]
pub struct TimerWheel<E> {
    /// Current level-0 slot number (`at.nanos() >> GRAIN_BITS`): all
    /// events in strictly earlier slots have been drained.
    cursor: u64,
    /// Slab of every resident entry plus the vacated cells awaiting reuse.
    nodes: Vec<Node<E>>,
    /// Head of the free list through `nodes`.
    free: u32,
    /// `LEVELS × SLOTS` list heads into `nodes`, flattened.
    slots: Vec<u32>,
    /// Occupancy bitmaps, one 256-bit map per level.
    occ: [[u64; WORDS]; LEVELS],
    /// Events inside the current level-0 slot, ordered by `(at, seq)`.
    near: BinaryHeap<Key>,
    /// Events beyond the wheel horizon (> ~4.9 h ahead): strictly later
    /// than everything in the wheel, so a plain min-heap suffices — the
    /// calendar-queue fallback for far-future timers.
    overflow: BinaryHeap<Key>,
    /// FIFO lanes, each sorted by `(at, seq)` (see "Lanes").
    lanes: [VecDeque<TimedEntry<E>>; LANES],
    /// Each lane's [`head_key`], [`EMPTY_LANE`] while it is empty, so
    /// `pop` compares heads without touching the lanes.
    heads: [u128; LANES],
    /// Memoised [`Self::next_slot`]; `None` when stale.
    next: Option<Option<Slot>>,
    /// Total resident events, lanes included.
    len: usize,
    /// The reference scheduler, keys only (see "The oracle").
    #[cfg(feature = "checked-invariants")]
    shadow: BinaryHeap<Reverse<(Instant, u64)>>,
}

impl<E> TimerWheel<E> {
    /// An empty wheel starting at t = 0.
    pub fn new() -> Self {
        TimerWheel {
            cursor: 0,
            nodes: Vec::new(),
            free: NIL,
            slots: vec![NIL; LEVELS * SLOTS],
            occ: [[0; WORDS]; LEVELS],
            near: BinaryHeap::with_capacity(64),
            overflow: BinaryHeap::new(),
            lanes: Default::default(),
            heads: [EMPTY_LANE; LANES],
            next: None,
            len: 0,
            #[cfg(feature = "checked-invariants")]
            shadow: BinaryHeap::new(),
        }
    }

    /// Resident event count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no event is resident.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn set_bit(&mut self, level: usize, idx: usize) {
        self.occ[level][idx / 64] |= 1u64 << (idx % 64);
    }

    #[inline]
    fn clear_bit(&mut self, level: usize, idx: usize) {
        self.occ[level][idx / 64] &= !(1u64 << (idx % 64));
    }

    /// Schedule an entry. O(1): a slab cell, radix math and a list link.
    pub fn push(&mut self, entry: TimedEntry<E>) {
        self.len += 1;
        #[cfg(feature = "checked-invariants")]
        self.shadow.push(Reverse((entry.at, entry.seq)));
        let node = Node {
            at: entry.at,
            seq: entry.seq,
            next: NIL,
            event: Some(entry.event),
        };
        let n = if self.free == NIL {
            assert!(self.nodes.len() < NIL as usize, "timer wheel slab is full");
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        } else {
            let n = self.free;
            self.free = self.nodes[n as usize].next;
            self.nodes[n as usize] = node;
            n
        };
        self.place(n);
    }

    /// Whether an entry due at `at` keeps lane `lane` sorted: the lane is
    /// empty or its last entry is due no later. Given a `seq` above every
    /// earlier push, such an entry may go to [`Self::push_lane`].
    #[inline]
    pub(crate) fn lane_accepts(&self, lane: usize, at: Instant) -> bool {
        self.lanes[lane].back().is_none_or(|b| b.at <= at)
    }

    /// Append an entry to FIFO lane `lane` (`< LANES`). O(1), and the
    /// entry never enters the slots. The caller promises the lane stays
    /// sorted: `(at, seq)` not below the lane's last entry — true of any
    /// stream whose due times never decrease in push order, since `seq`
    /// grows with every push. `checked-invariants` asserts it.
    pub(crate) fn push_lane(&mut self, lane: usize, entry: TimedEntry<E>) {
        let fifo = &mut self.lanes[lane];
        #[cfg(feature = "checked-invariants")]
        {
            assert!(
                fifo.back().is_none_or(|b| b <= &entry),
                "timer wheel lane push went backwards"
            );
            self.shadow.push(Reverse((entry.at, entry.seq)));
        }
        if fifo.is_empty() {
            self.heads[lane] = head_key(entry.at, entry.seq);
        }
        fifo.push_back(entry);
        self.len += 1;
    }

    /// Link resident node `n` where its due time belongs relative to the
    /// cursor: the near-heap, a wheel slot, or the overflow heap. The last
    /// two change what [`Self::next_slot`] finds, so they drop its memo.
    fn place(&mut self, n: u32) {
        let node = &self.nodes[n as usize];
        let key = Reverse((node.at, node.seq, n));
        let slot0 = node.at.nanos() >> GRAIN_BITS;
        if slot0 <= self.cursor {
            // Due inside the slot currently being drained (or, defensively,
            // in the past): the near-heap restores exact (at, seq) order.
            self.near.push(key);
            return;
        }
        self.next = None;
        let diff = slot0 ^ self.cursor;
        // Highest differing byte picks the level: the 256-ary radix rule.
        let level = ((63 - diff.leading_zeros()) / 8) as usize;
        if level >= LEVELS {
            self.overflow.push(key);
            return;
        }
        let idx = ((slot0 >> (8 * level)) & 0xFF) as usize;
        let head = &mut self.slots[level * SLOTS + idx];
        self.nodes[n as usize].next = *head;
        *head = n;
        self.set_bit(level, idx);
    }

    /// Extract the globally minimum `(at, seq)` entry. Amortized O(1).
    pub fn pop(&mut self) -> Option<TimedEntry<E>> {
        let (l, head) = self.lane_head();
        loop {
            if let Some(&Reverse((at, seq, n))) = self.near.peek() {
                if head < head_key(at, seq) {
                    return self.pop_lane(l);
                }
                self.near.pop();
                self.len -= 1;
                let node = &mut self.nodes[n as usize];
                let event = node
                    .event
                    .take()
                    .expect("near-heap key names a vacant node");
                node.next = self.free;
                self.free = n;
                #[cfg(feature = "checked-invariants")]
                self.check_shadow(at, seq);
                return Some(TimedEntry { at, seq, event });
            }
            // The near-heap is dry. Never cascade past a lane head: one
            // strictly before the next occupied slot precedes every wheel
            // entry, so it pops and the cursor stays put.
            let next = match self.next {
                Some(next) => next,
                None => *self.next.insert(self.next_slot()),
            };
            // The key's high half is the head's `at`.
            if head != EMPTY_LANE
                && next.is_none_or(|(abs, _, _)| (head >> 64) as u64 >> GRAIN_BITS < abs)
            {
                return self.pop_lane(l);
            }
            let (abs, level, idx) = next?;
            self.advance(abs, level, idx);
        }
    }

    /// The lane whose head has the smallest key, with that key
    /// ([`EMPTY_LANE`] when every lane is empty).
    #[inline]
    fn lane_head(&self) -> (usize, u128) {
        let (mut best, mut key) = (0, self.heads[0]);
        for (l, &k) in self.heads.iter().enumerate().skip(1) {
            if k < key {
                (best, key) = (l, k);
            }
        }
        (best, key)
    }

    /// Pop lane `lane`'s head, which `lane_head` named. The head key is
    /// refreshed first, so the popped entry moves straight into `pop`'s
    /// return value.
    fn pop_lane(&mut self, lane: usize) -> Option<TimedEntry<E>> {
        self.len -= 1;
        #[cfg(feature = "checked-invariants")]
        {
            let head = self.lanes[lane].front().map(|e| (e.at, e.seq));
            let (at, seq) = head.expect("lane_head named an empty lane");
            self.check_shadow(at, seq);
        }
        let fifo = &mut self.lanes[lane];
        self.heads[lane] = fifo.get(1).map_or(EMPTY_LANE, |e| head_key(e.at, e.seq));
        fifo.pop_front()
    }

    #[cfg(feature = "checked-invariants")]
    fn check_shadow(&mut self, at: Instant, seq: u64) {
        assert_eq!(
            self.shadow.pop(),
            Some(Reverse((at, seq))),
            "timer wheel popped out of the reference heap's order"
        );
    }

    /// The next populated slot after the cursor, as `(abs, level, idx)`:
    /// `abs` is the first level-0 slot number it covers. The lowest level
    /// with a hit wins: a level-k candidate keeps every byte of the
    /// cursor above k and raises byte k, so it lies beyond all of level
    /// k − 1's window. With the wheel's levels empty, the overflow heap's
    /// head is the candidate (`level == LEVELS`).
    fn next_slot(&self) -> Option<Slot> {
        for level in 0..LEVELS {
            let pos = ((self.cursor >> (8 * level)) & 0xFF) as usize;
            if let Some(idx) = self.next_occupied(level, pos) {
                let keep_mask = u64::MAX << (8 * (level + 1)); // bytes above k
                let abs = (self.cursor & keep_mask) | ((idx as u64) << (8 * level));
                return Some((abs, level, idx));
            }
        }
        self.overflow
            .peek()
            .map(|&Reverse((at, _, _))| (at.nanos() >> GRAIN_BITS, LEVELS, 0))
    }

    /// Move the cursor to the slot [`Self::next_slot`] found. Level 0
    /// slots dump straight into the near-heap; higher-level slots cascade
    /// one level down (splitting on the next byte of the slot number).
    /// Each event is relinked at most `LEVELS - 1` times in its life.
    fn advance(&mut self, abs: u64, level: usize, idx: usize) {
        self.cursor = abs;
        self.next = None;
        if level == LEVELS {
            // Wheel levels empty: pull the earliest overflow entry back
            // in (its slot is the cursor now), then re-home any other
            // overflow entries the jump brought inside the horizon.
            let key = self.overflow.pop().expect("next_slot peeked it");
            self.near.push(key);
            self.rehome_overflow();
            return;
        }
        let mut n = std::mem::replace(&mut self.slots[level * SLOTS + idx], NIL);
        self.clear_bit(level, idx);
        // Level 0: every node of the slot now lies at or before the
        // cursor, so `place` files it in the near-heap. Level ≥ 1 is the
        // cascade: `place` re-derives the level from the moved cursor, so
        // the slot's nodes split across levels < `level` or the near-heap.
        while n != NIL {
            let next = self.nodes[n as usize].next;
            self.place(n);
            n = next;
        }
    }

    /// After a cursor jump to an overflow entry, any remaining overflow
    /// entries that now share a 4-byte prefix with the cursor belong in
    /// the wheel proper.
    fn rehome_overflow(&mut self) {
        while let Some(&Reverse((at, _, n))) = self.overflow.peek() {
            let diff = (at.nanos() >> GRAIN_BITS) ^ self.cursor;
            if diff != 0 && ((63 - diff.leading_zeros()) / 8) as usize >= LEVELS {
                break; // still beyond the horizon (heap ⇒ the rest are too)
            }
            self.overflow.pop();
            self.place(n);
        }
    }

    /// First occupied slot index strictly greater than `pos` at `level`.
    #[inline]
    fn next_occupied(&self, level: usize, pos: usize) -> Option<usize> {
        let map = &self.occ[level];
        let mut word = pos / 64;
        // Mask off bits ≤ pos in the first word.
        let mut bits = map[word] & (u64::MAX << (pos % 64)) & !(1u64 << (pos % 64));
        loop {
            if bits != 0 {
                return Some(word * 64 + bits.trailing_zeros() as usize);
            }
            word += 1;
            if word >= WORDS {
                return None;
            }
            bits = map[word];
        }
    }
}

impl<E> Default for TimerWheel<E> {
    fn default() -> Self {
        TimerWheel::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use libra_types::DetRng;

    fn entry(at_ns: u64, seq: u64) -> TimedEntry<u64> {
        TimedEntry {
            at: Instant::from_nanos(at_ns),
            seq,
            event: seq,
        }
    }

    /// Drain both a wheel and a reference heap fed the same stream and
    /// require identical pop order.
    fn check_against_heap(times: Vec<u64>) {
        let mut wheel = TimerWheel::new();
        let mut heap: BinaryHeap<Reverse<TimedEntry<u64>>> = BinaryHeap::new();
        for (seq, t) in times.iter().enumerate() {
            wheel.push(entry(*t, seq as u64));
            heap.push(Reverse(entry(*t, seq as u64)));
        }
        let mut n = 0;
        while let Some(Reverse(want)) = heap.pop() {
            let got = wheel.pop().expect("wheel has as many events as heap");
            assert_eq!((got.at, got.seq), (want.at, want.seq), "pop #{n} diverged");
            n += 1;
        }
        assert!(wheel.pop().is_none());
        assert_eq!(wheel.len(), 0);
    }

    #[test]
    fn empty_wheel_pops_none() {
        let mut w: TimerWheel<u64> = TimerWheel::new();
        assert!(w.is_empty());
        assert!(w.pop().is_none());
    }

    #[test]
    fn orders_same_slot_by_seq() {
        check_against_heap(vec![100, 100, 100, 50, 50]);
    }

    #[test]
    fn orders_across_levels() {
        // One event per level plus overflow.
        check_against_heap(vec![
            1,                  // near/level 0
            5_000,              // level 0
            2_000_000,          // level 1
            900_000_000,        // level 2
            100_000_000_000,    // level 3
            50_000_000_000_000, // overflow (~13.9 h)
        ]);
    }

    #[test]
    fn random_streams_match_heap_order() {
        let mut rng = DetRng::new(0xA11CE);
        for scale in [1_000u64, 1_000_000, 10_000_000_000, u64::MAX / 2] {
            let times: Vec<u64> = (0..2_000).map(|_| rng.uniform_u64(0, scale)).collect();
            check_against_heap(times);
        }
    }

    #[test]
    fn interleaved_push_pop_matches_heap() {
        // Push while draining — the simulator's actual access pattern
        // (every dispatched event schedules successors at ≥ now).
        let mut rng = DetRng::new(7);
        let mut wheel = TimerWheel::new();
        let mut heap: BinaryHeap<Reverse<TimedEntry<u64>>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut push = |w: &mut TimerWheel<u64>, h: &mut BinaryHeap<_>, at: u64| {
            w.push(entry(at, seq));
            h.push(Reverse(entry(at, seq)));
            seq += 1;
        };
        for t in 0..64u64 {
            push(&mut wheel, &mut heap, t * 1000);
        }
        let mut now = 0u64;
        for _ in 0..50_000 {
            let Some(Reverse(want)) = heap.pop() else {
                break;
            };
            let got = wheel.pop().expect("wheel in sync");
            assert_eq!((got.at, got.seq), (want.at, want.seq));
            now = want.at.nanos();
            // Schedule 0–2 successors at or after `now`, at mixed scales.
            for _ in 0..rng.uniform_u64(0, 3) {
                let delta = match rng.uniform_u64(0, 4) {
                    0 => rng.uniform_u64(0, 1 << 12), // same slot
                    1 => rng.uniform_u64(0, 1 << 20), // level 0/1
                    2 => rng.uniform_u64(0, 1 << 30), // level 2
                    _ => rng.uniform_u64(0, 1 << 44), // level 3/overflow
                };
                push(&mut wheel, &mut heap, now + delta);
            }
        }
        // Drain the rest.
        while let Some(Reverse(want)) = heap.pop() {
            let got = wheel.pop().expect("wheel drains fully");
            assert_eq!((got.at, got.seq), (want.at, want.seq));
        }
        assert!(wheel.pop().is_none());
        let _ = now;
    }

    #[test]
    fn repushed_entry_and_earlier_pushes_match_heap_order() {
        // The decision-tick gather's access pattern: pop one entry too
        // far (the cursor jumps to its slot, possibly levels ahead), hand
        // it back under its original key, then schedule entries that are
        // due *before* it. Both must come out in global (at, seq) order.
        let mut rng = DetRng::new(0xB0B);
        for gap in [1u64 << 10, 1 << 16, 1 << 24, 1 << 34, 1 << 45] {
            let mut wheel = TimerWheel::new();
            let mut heap: BinaryHeap<Reverse<TimedEntry<u64>>> = BinaryHeap::new();
            let far: Vec<u64> = (0..8).map(|k| gap + k * (gap / 4 + 1)).collect();
            for (seq, t) in far.iter().enumerate() {
                wheel.push(entry(*t, seq as u64));
                heap.push(Reverse(entry(*t, seq as u64)));
            }
            let popped = wheel.pop().expect("resident");
            assert_eq!((popped.at.nanos(), popped.seq), (far[0], 0));
            wheel.push(popped);
            for seq in 8..40u64 {
                // Earlier than, equal to, and later than the re-pushed entry.
                let t = rng.uniform_u64(0, 2 * gap);
                wheel.push(entry(t, seq));
                heap.push(Reverse(entry(t, seq)));
            }
            while let Some(Reverse(want)) = heap.pop() {
                let got = wheel.pop().expect("wheel has as many events as heap");
                assert_eq!((got.at, got.seq), (want.at, want.seq), "gap {gap}");
            }
            assert!(wheel.pop().is_none());
        }
    }

    #[cfg(feature = "checked-invariants")]
    #[test]
    #[should_panic(expected = "reference heap's order")]
    fn shadow_heap_catches_a_corrupted_resident_key() {
        let mut wheel = TimerWheel::new();
        wheel.push(entry(2_000_000, 0));
        wheel.push(entry(3_000_000, 1));
        // Both sit in level-1 slots; the cascade re-derives the first
        // node's heap key from its (now wrong) due time.
        wheel.nodes[0].at = Instant::from_nanos(3_500_000);
        while wheel.pop().is_some() {}
    }

    /// A wheel and the reference heap fed the same pushes, the wheel's
    /// either into a lane or into the slots.
    struct Paired {
        wheel: TimerWheel<u64>,
        heap: BinaryHeap<Reverse<TimedEntry<u64>>>,
        seq: u64,
    }

    impl Paired {
        fn new() -> Self {
            Paired {
                wheel: TimerWheel::new(),
                heap: BinaryHeap::new(),
                seq: 0,
            }
        }

        /// Push at `at` into `lane` (`None`: the slots).
        fn push(&mut self, lane: Option<usize>, at: u64) {
            match lane {
                Some(l) => self.wheel.push_lane(l, entry(at, self.seq)),
                None => self.wheel.push(entry(at, self.seq)),
            }
            self.heap.push(Reverse(entry(at, self.seq)));
            self.seq += 1;
        }

        /// Pop both; they must agree. Returns the popped due time.
        fn pop(&mut self) -> Option<u64> {
            let want = self.heap.pop().map(|Reverse(e)| (e.at, e.seq));
            let got = self.wheel.pop().map(|e| (e.at, e.seq));
            assert_eq!(got, want, "wheel with lanes left the heap's order");
            assert_eq!(self.wheel.len(), self.heap.len());
            want.map(|(at, _)| at.nanos())
        }

        /// Push at `at` the way the simulator schedules a pacer wake or
        /// RTO check: into `lane` if it accepts `at`, else the slots.
        /// Returns whether the lane took it.
        fn offer(&mut self, lane: usize, at: u64) -> bool {
            let admitted = self.wheel.lane_accepts(lane, Instant::from_nanos(at));
            self.push(admitted.then_some(lane), at);
            admitted
        }

        fn drain(&mut self) {
            while self.pop().is_some() {}
        }
    }

    #[test]
    fn tail_admission_interleaved_with_slot_pushes_matches_heap() {
        // A push below a lane's tail must take the slots and still pop
        // first; one equal to the tail joins the lane behind it.
        let mut p = Paired::new();
        assert!(p.offer(2, 50_000));
        assert!(p.offer(2, 50_000));
        assert!(!p.offer(2, 49_999));
        assert!(!p.offer(2, 8_000));
        assert!(p.offer(3, 8_000));
        p.push(None, 50_000);
        p.drain();
        // The simulator's pattern: three flows per lane, each re-arming
        // at its own clock's next tick (≥ now), so most offers are in
        // order and some fall below the tail another flow set; beside
        // them slot pushes, and ties on `at` across all three.
        let mut rng = DetRng::new(0x7A11);
        for scale in [12u32, 20, 30] {
            let mut p = Paired::new();
            let mut clock = [[0u64; 3]; 2];
            let (mut admitted, mut rejected) = (0, 0);
            let mut now = 0;
            for _ in 0..20_000 {
                for _ in 0..rng.uniform_u64(0, 4) {
                    let bits = rng.uniform_u64(0, scale as u64 + 1);
                    let delta = rng.uniform_u64(0, 1 << bits) * rng.uniform_u64(0, 2);
                    let lane = rng.uniform_u64(0, 3) as usize;
                    if lane == 2 {
                        p.push(None, now + delta);
                        continue;
                    }
                    let flow = &mut clock[lane][rng.uniform_u64(0, 3) as usize];
                    *flow = (*flow).max(now) + delta;
                    match p.offer(lane + 2, *flow) {
                        true => admitted += 1,
                        false => rejected += 1,
                    }
                }
                match p.pop() {
                    Some(at) => now = at,
                    None => p.push(None, now + 1),
                }
            }
            p.drain();
            assert!(
                admitted > 2_000 && rejected > 2_000,
                "{admitted}/{rejected}"
            );
        }
    }

    #[test]
    fn push_before_the_memoised_next_slot_matches_heap() {
        // The near-heap runs dry while a lane holds entries, so `pop`
        // memoises the next occupied slot (5 ms, level 1). A slot push
        // due before it, still after the lane head, must drop the memo.
        let mut p = Paired::new();
        p.push(None, 5_000_000);
        for at in [10_000, 200_000, 400_000] {
            p.push(Some(0), at);
        }
        assert_eq!(p.pop(), Some(10_000));
        p.push(None, 100_000);
        assert_eq!(p.pop(), Some(100_000));
        p.drain();
        // Same with the levels empty and the memo "nothing anywhere": an
        // overflow push must drop it too.
        let far = 50_000_000_000_000u64; // beyond the wheel's horizon
        let mut p = Paired::new();
        p.push(Some(1), 1_000);
        p.push(Some(1), 2_000);
        assert_eq!(p.pop(), Some(1_000));
        p.push(None, far);
        p.drain();
    }

    #[test]
    fn lanes_interleaved_with_wheel_pushes_match_heap() {
        // The simulator's pattern: pop, then schedule successors at ≥ now
        // into the slots (any scale) and into the lanes (each lane
        // non-decreasing, equal due times included).
        let mut rng = DetRng::new(0x1A4E);
        for scale in [12u32, 20, 30, 46] {
            let mut p = Paired::new();
            let mut tail = [0u64; LANES];
            for t in 0..32u64 {
                p.push(None, t << (scale - 6));
            }
            let mut now = 0;
            for _ in 0..20_000 {
                for _ in 0..rng.uniform_u64(0, 4) {
                    let bits = rng.uniform_u64(0, scale as u64 + 1);
                    let delta = rng.uniform_u64(0, 1 << bits);
                    match rng.uniform_u64(0, 4) as usize {
                        LANES.. => p.push(None, now + delta),
                        l => {
                            // Half the lane pushes repeat the tail's time.
                            let at = tail[l].max(now) + delta * rng.uniform_u64(0, 2);
                            tail[l] = at;
                            p.push(Some(l), at);
                        }
                    }
                }
                match p.pop() {
                    Some(at) => now = at,
                    None => p.push(None, now + 1),
                }
            }
            p.drain();
        }
    }

    #[test]
    fn lane_and_wheel_ties_in_one_slot_break_on_seq() {
        // Same 4 µs slot, different nanoseconds: the wheel entry (slot 1)
        // is due first although the lane head shares its slot.
        let mut p = Paired::new();
        p.push(None, 5_000);
        p.push(Some(0), 6_000);
        p.push(Some(1), 4_500);
        p.drain();
        // Same nanosecond, across the near-heap, both lanes and a
        // level-1 slot: `seq` alone decides.
        for at in [7_000u64, 3_000_000] {
            let mut p = Paired::new();
            p.push(Some(1), at);
            p.push(None, at);
            p.push(Some(0), at);
            p.push(None, at);
            p.push(Some(1), at);
            p.push(Some(0), at);
            p.drain();
        }
        // The near-heap holds the slot's entries while a lane head ties
        // one of them on `at` with a lower `seq`.
        let mut p = Paired::new();
        p.push(None, 9_000);
        p.push(Some(0), 9_100);
        p.push(None, 9_100);
        p.push(None, 9_050);
        p.drain();
    }

    #[test]
    fn repushed_entry_with_lanes_non_empty_matches_heap() {
        // The decision-tick gather's pop-one-too-far push-back (see
        // `repushed_entry_and_earlier_pushes_match_heap_order`) while
        // both lanes hold entries before and after the re-pushed one;
        // the re-pushed entry may itself have come off a lane.
        let mut rng = DetRng::new(0x7A9E);
        for gap in [1u64 << 10, 1 << 16, 1 << 24, 1 << 34, 1 << 45] {
            for round in 0..4u64 {
                let mut p = Paired::new();
                let mut tail = [0u64; LANES];
                for k in 0..8u64 {
                    p.push(None, gap + k * (gap / 4 + 1));
                    for (l, t) in tail.iter_mut().enumerate() {
                        *t += rng.uniform_u64(0, gap / 2 + 2) * ((k + l as u64 + round) % 2);
                        p.push(Some(l), *t);
                    }
                }
                for _ in 0..round * 3 {
                    p.pop();
                }
                let popped = p.wheel.pop().expect("resident");
                let want = p.heap.pop().expect("resident").0;
                assert_eq!((popped.at, popped.seq), (want.at, want.seq));
                p.wheel.push(popped);
                p.heap.push(Reverse(want));
                let now = p.heap.peek().map_or(0, |Reverse(e)| e.at.nanos());
                for _ in 0..24 {
                    // Slots: earlier than, equal to and later than the
                    // re-pushed entry; lanes: onward from their tails.
                    match rng.uniform_u64(0, 3) as usize {
                        LANES.. => p.push(None, rng.uniform_u64(0, 2 * gap)),
                        l => {
                            tail[l] = tail[l].max(now) + rng.uniform_u64(0, gap);
                            p.push(Some(l), tail[l]);
                        }
                    }
                }
                p.drain();
            }
        }
    }

    #[test]
    fn overflow_entries_behind_lanes_match_heap() {
        // Only overflow-range entries in the slots' care: the lanes must
        // drain ahead of them, interleave where due times cross, and the
        // overflow re-homing must not disturb the lanes.
        let far = 50_000_000_000_000u64; // ~13.9 h, beyond the horizon
        let mut p = Paired::new();
        p.push(None, far + 7);
        p.push(None, far);
        p.push(None, 2 * far);
        for k in 0..6u64 {
            p.push(Some(0), k * far / 2);
            p.push(Some(1), far + k);
        }
        p.push(None, far + 1);
        for _ in 0..5 {
            p.pop();
        }
        p.push(None, far + 3);
        p.push(Some(1), far + 5);
        p.drain();
    }

    #[cfg(feature = "checked-invariants")]
    #[test]
    #[should_panic(expected = "lane push went backwards")]
    fn decreasing_lane_push_is_refused() {
        let mut wheel = TimerWheel::new();
        wheel.push_lane(1, entry(2_000, 0));
        wheel.push_lane(1, entry(1_999, 1));
    }

    #[test]
    fn far_future_overflow_rehomes() {
        let mut wheel = TimerWheel::new();
        // Three overflow-range events and nothing else.
        wheel.push(entry(60_000_000_000_000, 0)); // ~16.7 h
        wheel.push(entry(50_000_000_000_000, 1));
        wheel.push(entry(50_000_000_100_000, 2));
        assert_eq!(wheel.pop().map(|e| e.seq), Some(1));
        assert_eq!(wheel.pop().map(|e| e.seq), Some(2));
        assert_eq!(wheel.pop().map(|e| e.seq), Some(0));
        assert!(wheel.pop().is_none());
    }

    #[test]
    fn slab_length_is_the_resident_high_water_mark() {
        // 64 resident timers re-armed 10 000 times across every level:
        // vacated cells are reused, so the slab never outgrows the peak.
        let mut rng = DetRng::new(11);
        let mut wheel = TimerWheel::new();
        for i in 0..64u64 {
            wheel.push(entry(i * 7_000, i));
        }
        for seq in 64..10_064u64 {
            let e = wheel.pop().expect("resident timers");
            let delta = 1 + rng.uniform_u64(0, 1 << (12 + 6 * (seq % 5)));
            wheel.push(entry(e.at.nanos() + delta, seq));
        }
        assert_eq!(wheel.len(), 64);
        assert_eq!(wheel.nodes.len(), 64, "slab grew with total pushes");
    }

    /// Payload that counts its drops.
    struct Counted(std::rc::Rc<std::cell::Cell<u32>>);
    impl Drop for Counted {
        fn drop(&mut self) {
            self.0.set(self.0.get() + 1);
        }
    }

    #[test]
    fn payloads_drop_exactly_once_popped_or_resident() {
        let drops = std::rc::Rc::new(std::cell::Cell::new(0u32));
        let mut wheel = TimerWheel::new();
        // One per level, one overflow, and a reused cell.
        let times = [
            1u64,
            5_000,
            2_000_000,
            900_000_000,
            100_000_000_000,
            50_000_000_000_000,
        ];
        for (seq, at) in times.into_iter().enumerate() {
            wheel.push(TimedEntry {
                at: Instant::from_nanos(at),
                seq: seq as u64,
                event: Counted(drops.clone()),
            });
        }
        for popped in 1..=3 {
            drop(wheel.pop().expect("resident"));
            assert_eq!(drops.get(), popped);
        }
        wheel.push(TimedEntry {
            at: Instant::from_nanos(3_000_000),
            seq: 6,
            event: Counted(drops.clone()),
        });
        assert_eq!(drops.get(), 3, "push into a vacated cell dropped a payload");
        assert_eq!(wheel.len(), 4);
        drop(wheel);
        assert_eq!(drops.get(), 7);
    }

    #[test]
    fn len_tracks_residency() {
        let mut wheel = TimerWheel::new();
        for i in 0..100 {
            wheel.push(entry(i * 999, i));
        }
        assert_eq!(wheel.len(), 100);
        for left in (0..100usize).rev() {
            wheel.pop().expect("still resident");
            assert_eq!(wheel.len(), left);
        }
    }
}
