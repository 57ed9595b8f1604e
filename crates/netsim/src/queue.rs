//! The bottleneck queue: one byte-capacity FIFO, one byte ledger, and
//! the discipline as a control law over them.
//!
//! Droptail is the discipline Theorem 4.1 assumes and the default
//! everywhere. CoDel, PIE and a token-bucket policer exist so the
//! scenario zoo can probe Libra against the AQMs and policers real paths
//! deploy; each is a [`QueueConfig`] that selects a control law, not a
//! queue of its own. Every discipline keeps the same ledger, so a single
//! conservation identity holds for all of them:
//!
//! ```text
//! admitted_bytes == dequeued_bytes + aqm_dropped_bytes + resident_bytes
//! ```
//!
//! Drops that refuse a packet at enqueue (overflow, PIE early drop,
//! non-conforming policer arrivals) never enter the ledger; CoDel head
//! drops are the only post-admission losses. Under the
//! `checked-invariants` feature the identity (plus resident-sum
//! agreement and the monotonic-clock assert) is enforced after every
//! mutation.
//!
//! Resident packets live in the simulation's [`PacketPool`] slab; the
//! queue holds each one's 8-byte [`PacketHandle`] beside its enqueue
//! time, so enqueue/dequeue moves two machine words per packet no matter
//! how deep the backlog gets.
//!
//! Determinism: droptail, CoDel and the token bucket are pure functions
//! of the arrival/departure sequence. PIE draws its early-drop coin flips
//! from a [`DetRng`] forked off the simulation root, so runs remain pure
//! functions of `(config, seed)`.

use crate::packet::Packet;
use crate::pool::{PacketHandle, PacketPool};
use libra_types::{Bytes, DetRng, Duration, Rate};
use std::collections::VecDeque;

/// Which discipline the bottleneck buffer runs. Part of
/// [`crate::LinkConfig`]; defaults to [`QueueConfig::Droptail`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum QueueConfig {
    /// Byte-capacity FIFO with tail drop (the paper's model).
    #[default]
    Droptail,
    /// CoDel (RFC 8289): sojourn-time controlled drop-from-head.
    Codel {
        /// Acceptable standing sojourn time (RFC default 5 ms).
        target: Duration,
        /// Sliding window over which sojourn must stay above target
        /// before dropping starts (RFC default 100 ms).
        interval: Duration,
    },
    /// PIE (RFC 8033): probabilistic enqueue drop from a delay estimate.
    Pie {
        /// Target queueing delay (RFC default 15 ms).
        target: Duration,
        /// Drop-probability update period (RFC default 15 ms).
        update_period: Duration,
    },
    /// Ingress token-bucket policer in front of a FIFO: arrivals beyond
    /// `rate` (with `burst` credit) are dropped, conforming packets
    /// queue as usual.
    TokenBucket {
        /// Sustained conforming rate.
        rate: Rate,
        /// Bucket depth (burst credit) in bytes.
        burst: Bytes,
    },
}

impl QueueConfig {
    /// CoDel at the RFC 8289 defaults (5 ms target, 100 ms interval).
    pub fn codel_default() -> Self {
        QueueConfig::Codel {
            target: Duration::from_millis(5),
            interval: Duration::from_millis(100),
        }
    }

    /// PIE at the RFC 8033 defaults (15 ms target, 15 ms update period).
    pub fn pie_default() -> Self {
        QueueConfig::Pie {
            target: Duration::from_millis(15),
            update_period: Duration::from_millis(15),
        }
    }

    /// Short display label ("droptail", "codel", ...).
    pub fn label(&self) -> &'static str {
        match self {
            QueueConfig::Droptail => "droptail",
            QueueConfig::Codel { .. } => "codel",
            QueueConfig::Pie { .. } => "pie",
            QueueConfig::TokenBucket { .. } => "token-bucket",
        }
    }
}

/// ECN marking policy: packets admitted while the queue holds more than
/// `threshold` bytes get the CE mark (DCTCP-style step marking).
#[derive(Debug, Clone, Copy)]
pub struct EcnConfig {
    /// Marking threshold in bytes.
    pub threshold: Bytes,
}

/// Outcome of an enqueue attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Enqueue {
    /// The packet was admitted.
    Accepted,
    /// The buffer was full, or the control law refused the packet.
    Dropped,
}

/// Snapshot of the queue's drop/admission ledger, the same for every
/// discipline so [`crate::LinkReport`] can be filled without knowing
/// which one ran.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueCounters {
    /// Packets dropped by the discipline (tail, early, and head drops).
    pub drops: u64,
    /// Packets admitted into the buffer.
    pub admitted: u64,
    /// Packets CE-marked at admission.
    pub ecn_marks: u64,
    /// Bytes admitted into the buffer.
    pub admitted_bytes: u64,
    /// Bytes refused at enqueue (tail drop, PIE early drop, policer).
    pub dropped_bytes: u64,
    /// Bytes dequeued into the link.
    pub dequeued_bytes: u64,
    /// Packets admitted and later dropped from the head (CoDel).
    pub aqm_drops: u64,
    /// Bytes admitted and later dropped from the head (CoDel).
    pub aqm_dropped_bytes: u64,
}

/// The interface the bottleneck queue provides to the simulator's
/// service loop; [`AnyQueue`] implements it.
pub trait QueueDiscipline {
    /// Try to admit `packet` at `now_ns`, CE-marking per `ecn`. An
    /// accepted packet moves into `pool`; a refused one never touches
    /// the slab.
    fn enqueue_with_ecn(
        &mut self,
        packet: Packet,
        pool: &mut PacketPool,
        now_ns: u64,
        ecn: Option<EcnConfig>,
    ) -> Enqueue;
    /// Remove the next packet to serve at `now_ns` (applying any
    /// head-drop control law first). The returned handle stays live in
    /// the pool until the caller releases it.
    fn dequeue(&mut self, pool: &mut PacketPool, now_ns: u64) -> Option<PacketHandle>;
    /// Bytes currently resident.
    fn occupied_bytes(&self) -> u64;
    /// Packets currently resident.
    fn len(&self) -> usize;
    /// True when nothing is resident.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Time-averaged occupancy in bytes over `[0, now_ns]`.
    fn mean_occupancy(&mut self, now_ns: u64) -> f64;
    /// Current ledger snapshot.
    fn counters(&self) -> QueueCounters;
}

/// The bottleneck queue: a byte-limited FIFO of pooled packets and their
/// enqueue times, its ledger, and the control law of the configured
/// discipline.
#[derive(Debug)]
pub struct AnyQueue {
    packets: VecDeque<(PacketHandle, u64)>,
    capacity: u64,
    occupied: u64,
    stats: QueueCounters,
    /// Running integral of queue occupancy (byte·ns) for mean-occupancy
    /// reporting; updated lazily at each mutation.
    occupancy_integral: u128,
    last_change_ns: u64,
    law: Law,
}

/// What the disciplines do differently: the state of the law that
/// refuses arrivals (PIE, the policer) or drops from the head (CoDel).
#[derive(Debug)]
enum Law {
    Droptail,
    Codel(Codel),
    Pie(Pie),
    TokenBucket(Policer),
}

/// CoDel (RFC 8289): when head sojourn stays above `target` for a full
/// `interval` the queue enters a dropping state and sheds head packets
/// on an `interval/sqrt(count)` cadence until the standing delay falls
/// back under target.
#[derive(Debug)]
struct Codel {
    target_ns: u64,
    interval_ns: u64,
    /// When the head sojourn first exceeded target (`None` while below).
    first_above_ns: Option<u64>,
    /// Next scheduled drop while in the dropping state.
    drop_next_ns: u64,
    /// Drops this dropping episode (drives the control law).
    count: u64,
    dropping: bool,
}

/// PIE (RFC 8033, simplified): a drop probability updated every
/// `update_period` from the head sojourn's distance to `target` (and its
/// trend), applied as a Bernoulli early drop at enqueue. Coin flips come
/// from the simulation's deterministic RNG.
#[derive(Debug)]
struct Pie {
    target_ns: u64,
    update_ns: u64,
    next_update_ns: u64,
    drop_prob: f64,
    qdelay_old_ns: u64,
    rng: DetRng,
}

/// Ingress token-bucket policer: tokens refill at `rate` up to `burst`;
/// arrivals without enough credit are dropped before the buffer.
#[derive(Debug)]
struct Policer {
    bytes_per_sec: f64,
    burst: f64,
    tokens: f64,
    last_refill_ns: u64,
}

/// CoDel's `interval / sqrt(count)` control law. `count >= 1`.
fn codel_next_interval(interval_ns: u64, count: u64) -> u64 {
    (interval_ns as f64 / (count as f64).sqrt()) as u64
}

impl Codel {
    /// Whether to drop the head packet, enqueued at `enq_ns`, when it
    /// reaches the head at `now_ns` with `remaining` bytes behind it.
    fn drops_head(&mut self, now_ns: u64, enq_ns: u64, remaining: u64) -> bool {
        let sojourn = now_ns.saturating_sub(enq_ns);
        // Below target (or the backlog is under one MTU): the standing
        // queue is fine — reset the control law and deliver.
        if sojourn < self.target_ns || remaining < 1500 {
            self.first_above_ns = None;
            self.dropping = false;
            return false;
        }
        if self.dropping {
            if now_ns >= self.drop_next_ns {
                self.count += 1;
                self.drop_next_ns += codel_next_interval(self.interval_ns, self.count);
                return true;
            }
            return false;
        }
        match self.first_above_ns {
            None => {
                // First sighting above target: arm the interval timer.
                self.first_above_ns = Some(now_ns + self.interval_ns);
                false
            }
            Some(first_above) if now_ns < first_above => false,
            Some(_) => {
                // Sojourn stayed above target for a full interval:
                // enter the dropping state. Resume from the previous
                // episode's cadence if we left it recently (RFC 8289
                // §5.4 count decay), else restart at 1.
                self.dropping = true;
                self.count = if self.count > 2
                    && now_ns.saturating_sub(self.drop_next_ns) < 8 * self.interval_ns
                {
                    self.count - 2
                } else {
                    1
                };
                self.drop_next_ns = now_ns + codel_next_interval(self.interval_ns, self.count);
                true
            }
        }
    }
}

impl Pie {
    /// Run any due drop-probability updates (RFC 8033 §4.2 with the
    /// standard α = 0.125 /s, β = 1.25 /s gains and an idle decay);
    /// `head_enq_ns` is the head packet's enqueue time, `None` when the
    /// queue is empty.
    fn update_drop_prob(&mut self, now_ns: u64, head_enq_ns: Option<u64>) {
        while now_ns >= self.next_update_ns {
            let qdelay_ns = head_enq_ns
                .map(|enq| self.next_update_ns.saturating_sub(enq))
                .unwrap_or(0);
            let qdelay_s = qdelay_ns as f64 / 1e9;
            let target_s = self.target_ns as f64 / 1e9;
            let qdelay_old_s = self.qdelay_old_ns as f64 / 1e9;
            let mut p =
                self.drop_prob + 0.125 * (qdelay_s - target_s) + 1.25 * (qdelay_s - qdelay_old_s);
            if qdelay_ns == 0 && self.qdelay_old_ns == 0 {
                // Idle queue: decay toward zero instead of integrating the
                // (negative) target error forever.
                p *= 0.98;
            }
            self.drop_prob = p.clamp(0.0, 1.0);
            self.qdelay_old_ns = qdelay_ns;
            self.next_update_ns += self.update_ns;
            // Fast-forward through long idle gaps once fully decayed.
            if head_enq_ns.is_none() && self.drop_prob < 1e-12 {
                self.drop_prob = 0.0;
                if now_ns >= self.next_update_ns {
                    let missed = (now_ns - self.next_update_ns) / self.update_ns + 1;
                    self.next_update_ns += missed * self.update_ns;
                }
            }
        }
    }
}

impl AnyQueue {
    /// Build the configured discipline over a `buffer`-byte queue. `rng`
    /// feeds PIE's early-drop coin flips; the other disciplines are
    /// arrival-sequence deterministic and ignore it.
    pub fn build(cfg: QueueConfig, buffer: Bytes, rng: DetRng) -> AnyQueue {
        let law = match cfg {
            QueueConfig::Droptail => Law::Droptail,
            QueueConfig::Codel { target, interval } => Law::Codel(Codel {
                target_ns: target.nanos(),
                interval_ns: interval.nanos().max(1),
                first_above_ns: None,
                drop_next_ns: 0,
                count: 0,
                dropping: false,
            }),
            QueueConfig::Pie {
                target,
                update_period,
            } => {
                let update_ns = update_period.nanos().max(1);
                Law::Pie(Pie {
                    target_ns: target.nanos(),
                    update_ns,
                    next_update_ns: update_ns,
                    drop_prob: 0.0,
                    qdelay_old_ns: 0,
                    rng,
                })
            }
            // The bucket starts full.
            QueueConfig::TokenBucket { rate, burst } => {
                let burst = burst.get().max(1500) as f64;
                Law::TokenBucket(Policer {
                    bytes_per_sec: rate.bytes_per_sec(),
                    burst,
                    tokens: burst,
                    last_refill_ns: 0,
                })
            }
        };
        AnyQueue {
            packets: VecDeque::new(),
            capacity: buffer.get(),
            occupied: 0,
            stats: QueueCounters::default(),
            occupancy_integral: 0,
            last_change_ns: 0,
            law,
        }
    }

    fn advance_clock(&mut self, now_ns: u64) {
        debug_assert!(now_ns >= self.last_change_ns, "queue clock went backwards");
        #[cfg(feature = "checked-invariants")]
        assert!(now_ns >= self.last_change_ns, "queue clock went backwards");
        let span = now_ns.saturating_sub(self.last_change_ns);
        self.occupancy_integral += span as u128 * self.occupied as u128;
        self.last_change_ns = now_ns;
    }

    /// Byte-conservation invariant (`checked-invariants` feature): the
    /// ledger must balance — every admitted byte is dequeued, dropped
    /// from the head or still resident — and the occupancy counter must
    /// agree with the packets actually queued. Runs after every
    /// mutation; the O(len) resident sum is acceptable because the
    /// feature is a test/CI mode, never a bench mode.
    #[cfg(feature = "checked-invariants")]
    fn check(&self, pool: &PacketPool) {
        assert_eq!(
            self.stats.admitted_bytes,
            self.stats.dequeued_bytes + self.stats.aqm_dropped_bytes + self.occupied,
            "queue leaked bytes (admitted != dequeued + head-dropped + resident)"
        );
        let resident: u64 = self.packets.iter().map(|&(h, _)| pool.get(h).bytes).sum();
        assert_eq!(
            resident, self.occupied,
            "queue occupancy counter drifted from resident packets"
        );
    }

    #[cfg(not(feature = "checked-invariants"))]
    #[inline(always)]
    fn check(&self, _pool: &PacketPool) {}
}

impl QueueDiscipline for AnyQueue {
    /// Refuses the packet when it would overflow the buffer or the law
    /// refuses it; otherwise applies the ECN step mark and admits it.
    #[inline]
    fn enqueue_with_ecn(
        &mut self,
        mut packet: Packet,
        pool: &mut PacketPool,
        now_ns: u64,
        ecn: Option<EcnConfig>,
    ) -> Enqueue {
        self.advance_clock(now_ns);
        let bytes = packet.bytes;
        let fits = self.occupied + bytes <= self.capacity;
        let admit = match &mut self.law {
            Law::Droptail | Law::Codel(_) => fits,
            // PIE updates first, then draws its coin only for a packet
            // that fits; early drop keeps RFC 8033's burst protection
            // (never while fewer than two MTUs are queued).
            Law::Pie(pie) => {
                pie.update_drop_prob(now_ns, self.packets.front().map(|&(_, enq)| enq));
                fits && !(pie.drop_prob > 0.0
                    && self.occupied > 2 * bytes
                    && pie.rng.chance(pie.drop_prob))
            }
            // The policer refills first and spends tokens only on accept.
            Law::TokenBucket(tb) => {
                let span_ns = now_ns.saturating_sub(tb.last_refill_ns);
                tb.last_refill_ns = now_ns;
                tb.tokens = (tb.tokens + tb.bytes_per_sec * span_ns as f64 / 1e9).min(tb.burst);
                let conforms = fits && tb.tokens >= bytes as f64;
                if conforms {
                    tb.tokens -= bytes as f64;
                }
                conforms
            }
        };
        if !admit {
            self.stats.drops += 1;
            self.stats.dropped_bytes += bytes;
            self.check(pool);
            return Enqueue::Dropped;
        }
        if let Some(cfg) = ecn {
            if self.occupied > cfg.threshold.get() {
                packet.ecn = true;
                self.stats.ecn_marks += 1;
            }
        }
        self.occupied += bytes;
        self.stats.admitted += 1;
        self.stats.admitted_bytes += bytes;
        self.packets.push_back((pool.alloc(packet), now_ns));
        self.check(pool);
        Enqueue::Accepted
    }

    /// Pops the head; under CoDel, first drops heads per its law.
    #[inline]
    fn dequeue(&mut self, pool: &mut PacketPool, now_ns: u64) -> Option<PacketHandle> {
        self.advance_clock(now_ns);
        let h = match &mut self.law {
            Law::Droptail | Law::TokenBucket(_) => self.packets.pop_front()?.0,
            Law::Pie(pie) => {
                pie.update_drop_prob(now_ns, self.packets.front().map(|&(_, enq)| enq));
                self.packets.pop_front()?.0
            }
            Law::Codel(codel) => loop {
                let Some((h, enq_ns)) = self.packets.pop_front() else {
                    codel.dropping = false;
                    codel.first_above_ns = None;
                    return None;
                };
                let bytes = pool.get(h).bytes;
                if !codel.drops_head(now_ns, enq_ns, self.occupied - bytes) {
                    break h;
                }
                self.occupied -= bytes;
                self.stats.drops += 1;
                self.stats.aqm_drops += 1;
                self.stats.aqm_dropped_bytes += bytes;
                pool.release(h);
            },
        };
        let bytes = pool.get(h).bytes;
        self.occupied -= bytes;
        self.stats.dequeued_bytes += bytes;
        self.check(pool);
        Some(h)
    }

    #[inline]
    fn occupied_bytes(&self) -> u64 {
        self.occupied
    }

    #[inline]
    fn len(&self) -> usize {
        self.packets.len()
    }

    fn mean_occupancy(&mut self, now_ns: u64) -> f64 {
        self.advance_clock(now_ns);
        if now_ns == 0 {
            return self.occupied as f64;
        }
        self.occupancy_integral as f64 / now_ns as f64
    }

    fn counters(&self) -> QueueCounters {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use libra_types::Instant;

    fn pkt(flow: u32, seq: u64, bytes: u64) -> Packet {
        Packet {
            flow: crate::packet::FlowId(flow),
            seq,
            bytes,
            sent_at: Instant::ZERO,
            delivered_at_send: 0,
            app_limited: false,
            ecn: false,
        }
    }

    fn droptail(capacity: u64) -> AnyQueue {
        AnyQueue::build(QueueConfig::Droptail, Bytes::new(capacity), DetRng::new(0))
    }

    fn enqueue(q: &mut AnyQueue, p: Packet, pool: &mut PacketPool, now_ns: u64) -> Enqueue {
        q.enqueue_with_ecn(p, pool, now_ns, None)
    }

    #[test]
    fn fifo_order() {
        let mut pool = PacketPool::with_capacity(8);
        let mut q = droptail(10_000);
        enqueue(&mut q, pkt(0, 1, 1500), &mut pool, 0);
        enqueue(&mut q, pkt(0, 2, 1500), &mut pool, 10);
        let a = q.dequeue(&mut pool, 20).unwrap();
        assert_eq!(pool.release(a).seq, 1);
        let b = q.dequeue(&mut pool, 30).unwrap();
        assert_eq!(pool.release(b).seq, 2);
        assert!(q.dequeue(&mut pool, 40).is_none());
        assert_eq!(pool.live(), 0);
    }

    #[test]
    fn droptail_drops_when_full() {
        let mut pool = PacketPool::with_capacity(8);
        let mut q = droptail(3000);
        assert_eq!(
            enqueue(&mut q, pkt(0, 1, 1500), &mut pool, 0),
            Enqueue::Accepted
        );
        assert_eq!(
            enqueue(&mut q, pkt(0, 2, 1500), &mut pool, 0),
            Enqueue::Accepted
        );
        assert_eq!(
            enqueue(&mut q, pkt(0, 3, 1500), &mut pool, 0),
            Enqueue::Dropped
        );
        assert_eq!(q.counters().drops, 1);
        assert_eq!(q.counters().admitted, 2);
        assert_eq!(q.occupied_bytes(), 3000);
        assert_eq!(pool.live(), 2, "refused packets never enter the pool");
        // Draining frees space.
        let h = q.dequeue(&mut pool, 5).unwrap();
        pool.release(h);
        assert_eq!(
            enqueue(&mut q, pkt(0, 4, 1500), &mut pool, 6),
            Enqueue::Accepted
        );
    }

    #[test]
    fn byte_accounting_conserved() {
        let mut pool = PacketPool::with_capacity(32);
        let mut q = droptail(100_000);
        for s in 0..20 {
            enqueue(&mut q, pkt(0, s, 1000 + s * 10), &mut pool, s);
        }
        let mut total = 0;
        while let Some(h) = q.dequeue(&mut pool, 100) {
            total += pool.release(h).bytes;
        }
        let expect: u64 = (0..20u64).map(|s| 1000 + s * 10).sum();
        assert_eq!(total, expect);
        assert_eq!(q.occupied_bytes(), 0);
        assert_eq!(q.counters().admitted_bytes, expect);
        assert_eq!(q.counters().dequeued_bytes, expect);
        assert_eq!(q.counters().dropped_bytes, 0);
        assert_eq!(pool.live_bytes(), 0);
    }

    #[test]
    fn byte_counters_track_drops_and_inflight() {
        let mut pool = PacketPool::with_capacity(8);
        let mut q = droptail(3000);
        enqueue(&mut q, pkt(0, 1, 1500), &mut pool, 0);
        enqueue(&mut q, pkt(0, 2, 1500), &mut pool, 0);
        enqueue(&mut q, pkt(0, 3, 1500), &mut pool, 0); // dropped
        let h = q.dequeue(&mut pool, 5).unwrap();
        pool.release(h);
        let c = q.counters();
        assert_eq!(c.admitted_bytes, 3000);
        assert_eq!(c.dropped_bytes, 1500);
        assert_eq!(c.dequeued_bytes, 1500);
        assert_eq!(
            c.admitted_bytes - c.dequeued_bytes,
            q.occupied_bytes(),
            "enqueued - dequeued must equal in-flight"
        );
        assert_eq!(pool.live_bytes(), q.occupied_bytes());
    }

    #[cfg(feature = "checked-invariants")]
    #[test]
    #[should_panic(expected = "leaked bytes")]
    fn checked_mode_catches_ledger_drift() {
        let mut pool = PacketPool::with_capacity(8);
        let mut q = droptail(10_000);
        enqueue(&mut q, pkt(0, 1, 1500), &mut pool, 0);
        q.stats.admitted_bytes += 1; // corrupt the ledger
        q.dequeue(&mut pool, 1);
    }

    #[test]
    fn mean_occupancy_integrates() {
        let mut pool = PacketPool::with_capacity(8);
        let mut q = droptail(10_000);
        // 1500 bytes resident for the whole first half, empty after.
        enqueue(&mut q, pkt(0, 1, 1500), &mut pool, 0);
        let h = q.dequeue(&mut pool, 500).unwrap();
        pool.release(h);
        assert!((q.mean_occupancy(1000) - 750.0).abs() < 1e-9);
    }

    #[test]
    fn pie_drop_prob_decays_when_idle() {
        const MS: u64 = 1_000_000;
        let mut pool = PacketPool::with_capacity(4096);
        let mut q = AnyQueue::build(
            QueueConfig::pie_default(),
            Bytes::new(10_000_000),
            DetRng::new(1),
        );
        let drop_prob = |q: &AnyQueue| match &q.law {
            Law::Pie(pie) => pie.drop_prob,
            _ => unreachable!("built as PIE"),
        };
        let mut t = 0u64;
        for s in 0..2000u64 {
            t += MS / 4;
            q.enqueue_with_ecn(pkt(0, s, 1500), &mut pool, t, None);
            if s % 8 == 0 {
                if let Some(h) = q.dequeue(&mut pool, t) {
                    pool.release(h);
                }
            }
        }
        assert!(drop_prob(&q) > 0.0);
        while let Some(h) = q.dequeue(&mut pool, t) {
            pool.release(h);
        }
        assert_eq!(pool.live(), 0);
        // A long idle stretch decays the probability to zero.
        assert!(q.dequeue(&mut pool, t + 60_000 * MS).is_none());
        assert_eq!(drop_prob(&q), 0.0);
    }
}

#[cfg(test)]
mod ecn_tests {
    use super::*;
    use libra_types::Instant;

    fn pkt(seq: u64) -> Packet {
        Packet {
            flow: crate::packet::FlowId(0),
            seq,
            bytes: 1500,
            sent_at: Instant::ZERO,
            delivered_at_send: 0,
            app_limited: false,
            ecn: false,
        }
    }

    fn droptail(capacity: u64) -> AnyQueue {
        AnyQueue::build(QueueConfig::Droptail, Bytes::new(capacity), DetRng::new(0))
    }

    #[test]
    fn marks_above_threshold_only() {
        let mut pool = PacketPool::with_capacity(8);
        let mut q = droptail(30_000);
        let ecn = Some(EcnConfig {
            threshold: Bytes::new(3000),
        });
        for s in 0..6 {
            q.enqueue_with_ecn(pkt(s), &mut pool, 0, ecn);
        }
        // Occupancy at admit time: 0,1500,3000,4500,6000,7500 → marks for
        // packets admitted at 4500+ (occupied > 3000): seq 3,4,5.
        assert_eq!(q.counters().ecn_marks, 3);
        let marks: Vec<bool> = (0..6)
            .map(|_| {
                let h = q.dequeue(&mut pool, 1).unwrap();
                pool.release(h).ecn
            })
            .collect();
        assert_eq!(marks, vec![false, false, false, true, true, true]);
    }

    #[test]
    fn no_policy_never_marks() {
        let mut pool = PacketPool::with_capacity(8);
        let mut q = droptail(30_000);
        for s in 0..6 {
            q.enqueue_with_ecn(pkt(s), &mut pool, 0, None);
        }
        assert_eq!(q.counters().ecn_marks, 0);
    }
}
