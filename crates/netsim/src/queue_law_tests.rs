//! CoDel, PIE and token-bucket behaviour of the bottleneck queue
//! ([`crate::queue::AnyQueue`]), tested through its public interface.

#[cfg(test)]
mod tests {
    use crate::packet::{FlowId, Packet};
    use crate::pool::PacketPool;
    use crate::queue::{AnyQueue, Enqueue, QueueConfig, QueueCounters, QueueDiscipline};
    use libra_types::{Bytes, DetRng, Instant, Rate};

    fn pkt(seq: u64, bytes: u64) -> Packet {
        Packet {
            flow: FlowId(0),
            seq,
            bytes,
            sent_at: Instant::ZERO,
            delivered_at_send: 0,
            app_limited: false,
            ecn: false,
        }
    }

    const MS: u64 = 1_000_000;

    /// CoDel at the RFC 8289 defaults over a `capacity`-byte buffer.
    fn codel(capacity: Bytes) -> AnyQueue {
        AnyQueue::build(QueueConfig::codel_default(), capacity, DetRng::new(0))
    }

    fn ledger_balances(c: &QueueCounters, resident: u64) {
        assert_eq!(
            c.admitted_bytes,
            c.dequeued_bytes + c.aqm_dropped_bytes + resident,
            "ledger out of balance: {c:?} resident {resident}"
        );
    }

    #[test]
    fn codel_drops_from_head_under_standing_queue() {
        let mut pool = PacketPool::with_capacity(256);
        let mut q = codel(Bytes::new(1_000_000));
        // Build a standing queue: 200 packets at t=0, drain one per 10 ms
        // (slower than needed to clear sojourn), so head delay grows far
        // beyond target and stays there.
        for s in 0..200 {
            assert_eq!(
                q.enqueue_with_ecn(pkt(s, 1500), &mut pool, 0, None),
                Enqueue::Accepted
            );
        }
        let mut delivered = 0u64;
        for i in 0..150u64 {
            if let Some(h) = q.dequeue(&mut pool, (i + 1) * 10 * MS) {
                pool.release(h);
                delivered += 1;
            }
        }
        let c = q.counters();
        assert!(c.aqm_drops > 0, "standing queue never triggered CoDel");
        assert_eq!(c.admitted, 200);
        assert_eq!(delivered + c.aqm_drops, 200 - q.len() as u64);
        ledger_balances(&c, q.occupied_bytes());
        // Only the still-resident packets remain live in the pool.
        assert_eq!(pool.live(), q.len());
    }

    #[test]
    fn codel_idle_below_target_never_drops() {
        let mut pool = PacketPool::with_capacity(4);
        let mut q = codel(Bytes::new(1_000_000));
        // Enqueue/dequeue promptly: sojourn ~1 ms, never above target.
        for s in 0..100u64 {
            q.enqueue_with_ecn(pkt(s, 1500), &mut pool, s * 2 * MS, None);
            let h = q.dequeue(&mut pool, s * 2 * MS + MS).expect("just queued");
            pool.release(h);
        }
        let c = q.counters();
        assert_eq!(c.aqm_drops, 0);
        assert_eq!(c.drops, 0);
        ledger_balances(&c, 0);
        assert_eq!(pool.live(), 0);
    }

    #[test]
    fn codel_still_tail_drops_when_physically_full() {
        let mut pool = PacketPool::with_capacity(4);
        let mut q = codel(Bytes::new(3000));
        assert_eq!(
            q.enqueue_with_ecn(pkt(0, 1500), &mut pool, 0, None),
            Enqueue::Accepted
        );
        assert_eq!(
            q.enqueue_with_ecn(pkt(1, 1500), &mut pool, 0, None),
            Enqueue::Accepted
        );
        assert_eq!(
            q.enqueue_with_ecn(pkt(2, 1500), &mut pool, 0, None),
            Enqueue::Dropped
        );
        let c = q.counters();
        assert_eq!(c.drops, 1);
        assert_eq!(c.aqm_drops, 0);
        ledger_balances(&c, q.occupied_bytes());
        // Refused packets never touched the slab.
        assert_eq!(pool.live(), 2);
    }

    #[test]
    fn pie_early_drops_under_sustained_delay() {
        let mut pool = PacketPool::with_capacity(4096);
        let mut q = AnyQueue::build(
            QueueConfig::pie_default(),
            Bytes::new(10_000_000),
            DetRng::new(7),
        );
        // Arrivals far faster than departures: head sojourn grows without
        // bound, so drop_prob must rise and shed arrivals.
        let mut t = 0u64;
        let mut refused = 0u64;
        for s in 0..4000u64 {
            t += MS / 4; // 4 pkts/ms in
            if q.enqueue_with_ecn(pkt(s, 1500), &mut pool, t, None) == Enqueue::Dropped {
                refused += 1;
            }
            if s % 8 == 0 {
                if let Some(h) = q.dequeue(&mut pool, t) {
                    pool.release(h); // 1 pkt per 2 ms out
                }
            }
        }
        let c = q.counters();
        assert!(refused > 0, "PIE never early-dropped under standing delay");
        assert_eq!(c.drops, refused);
        assert_eq!(c.aqm_drops, 0, "PIE drops are pre-admission");
        ledger_balances(&c, q.occupied_bytes());
    }

    #[test]
    fn pie_is_seed_deterministic() {
        let run = |seed: u64| {
            let mut pool = PacketPool::with_capacity(4096);
            let mut q = AnyQueue::build(
                QueueConfig::pie_default(),
                Bytes::new(10_000_000),
                DetRng::new(seed),
            );
            let mut t = 0u64;
            let mut pattern = Vec::new();
            for s in 0..2000u64 {
                t += MS / 4;
                pattern.push(
                    q.enqueue_with_ecn(pkt(s, 1500), &mut pool, t, None) == Enqueue::Accepted,
                );
                if s % 8 == 0 {
                    if let Some(h) = q.dequeue(&mut pool, t) {
                        pool.release(h);
                    }
                }
            }
            pattern
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "different seeds should differ");
    }

    #[test]
    fn token_bucket_polices_rate() {
        // 12 Mbps policer = 1500 bytes per ms; bucket 2 MTUs deep.
        let mut pool = PacketPool::with_capacity(256);
        let mut q = AnyQueue::build(
            QueueConfig::TokenBucket {
                rate: Rate::from_mbps(12.0),
                burst: Bytes::new(3000),
            },
            Bytes::new(1_000_000),
            DetRng::new(0),
        );
        // Offer 4 packets per ms for 100 ms: only ~1/ms can conform.
        let mut accepted = 0u64;
        let mut t = 0u64;
        for s in 0..400u64 {
            t += MS / 4;
            if q.enqueue_with_ecn(pkt(s, 1500), &mut pool, t, None) == Enqueue::Accepted {
                accepted += 1;
            }
        }
        // 100 ms of credit + the initial burst, within one packet slack.
        assert!((100..=103).contains(&accepted), "accepted {accepted}");
        let c = q.counters();
        assert_eq!(c.admitted + c.drops, 400);
        ledger_balances(&c, q.occupied_bytes());
    }

    #[test]
    fn token_bucket_conforming_traffic_passes_untouched() {
        let mut pool = PacketPool::with_capacity(4);
        let mut q = AnyQueue::build(
            QueueConfig::TokenBucket {
                rate: Rate::from_mbps(12.0),
                burst: Bytes::new(3000),
            },
            Bytes::new(1_000_000),
            DetRng::new(0),
        );
        // 1 packet per 2 ms = 6 Mbps, half the policed rate.
        for s in 0..100u64 {
            let t = s * 2 * MS;
            assert_eq!(
                q.enqueue_with_ecn(pkt(s, 1500), &mut pool, t, None),
                Enqueue::Accepted
            );
            let h = q.dequeue(&mut pool, t + MS / 2).expect("just queued");
            pool.release(h);
        }
        assert_eq!(q.counters().drops, 0);
        assert_eq!(pool.live(), 0);
    }

    #[test]
    fn any_queue_builds_every_discipline() {
        let buffer = Bytes::new(150_000);
        for cfg in [
            QueueConfig::Droptail,
            QueueConfig::codel_default(),
            QueueConfig::pie_default(),
            QueueConfig::TokenBucket {
                rate: Rate::from_mbps(10.0),
                burst: Bytes::new(15_000),
            },
        ] {
            let mut pool = PacketPool::with_capacity(4);
            let mut q = AnyQueue::build(cfg, buffer, DetRng::new(3));
            assert!(q.is_empty());
            assert_eq!(
                q.enqueue_with_ecn(pkt(0, 1500), &mut pool, 0, None),
                Enqueue::Accepted
            );
            assert_eq!(q.occupied_bytes(), 1500);
            assert_eq!(q.len(), 1);
            let h = q
                .dequeue(&mut pool, 1_000_000)
                .expect("one packet is queued");
            let out = pool.release(h);
            assert_eq!(out.seq, 0);
            let c = q.counters();
            assert_eq!(c.admitted_bytes, 1500);
            assert_eq!(c.dequeued_bytes, 1500);
            assert!(q.mean_occupancy(2_000_000) > 0.0);
            assert_eq!(pool.live(), 0);
        }
    }

    #[test]
    #[should_panic(expected = "clock went backwards")]
    #[cfg(any(debug_assertions, feature = "checked-invariants"))]
    fn aqm_clock_must_be_monotone() {
        let mut pool = PacketPool::with_capacity(4);
        let mut q = codel(Bytes::new(10_000));
        q.enqueue_with_ecn(pkt(0, 1500), &mut pool, 1000, None);
        q.dequeue(&mut pool, 500);
    }
}
