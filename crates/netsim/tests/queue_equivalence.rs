//! Pins the bottleneck queue's observable behaviour under every
//! discipline, with ECN marking on and off.
//!
//! Each arm drives one queue through a seeded random sequence: single
//! arrivals of 40–1500 B at advancing times, bursts at one instant that
//! overflow the buffer, drains faster and slower than the arrivals, and
//! idle gaps (after a full drain) long enough for PIE's drop probability
//! to decay to zero. Every enqueue outcome, every dequeued `(seq, ecn)`,
//! each `counters()` snapshot and the bits of `mean_occupancy` are folded
//! into one FNV-1a digest per arm. The digests were recorded from the
//! queue before its disciplines shared one FIFO and one ledger; any
//! change in admission, marking, head drops, PIE's coin flips or the
//! occupancy integral moves them.

use libra_netsim::{
    AnyQueue, EcnConfig, Enqueue, FlowId, Packet, PacketPool, QueueConfig, QueueCounters,
    QueueDiscipline,
};
use libra_types::{Bytes, DetRng, Instant, Rate};

const US: u64 = 1_000;
const MS: u64 = 1_000_000;

/// FNV-1a over the little-endian bytes of each folded word.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn snapshot(&mut self, q: &mut AnyQueue, now: u64) {
        let c: QueueCounters = q.counters();
        for w in [
            c.drops,
            c.admitted,
            c.ecn_marks,
            c.admitted_bytes,
            c.dropped_bytes,
            c.dequeued_bytes,
            c.aqm_drops,
            c.aqm_dropped_bytes,
        ] {
            self.word(w);
        }
        self.word(q.occupied_bytes());
        self.word(q.len() as u64);
        self.word(q.mean_occupancy(now).to_bits());
    }
}

/// Run one arm and return its digest.
fn digest(cfg: QueueConfig, ecn: Option<EcnConfig>) -> u64 {
    let mut rng = DetRng::new(39);
    let mut q = AnyQueue::build(cfg, Bytes::new(60_000), DetRng::new(7));
    let mut pool = PacketPool::with_capacity(64);
    let mut d = Fnv(0xcbf2_9ce4_8422_2325);
    let mut now = 0u64;
    let mut seq = 0u64;
    let (mut p_arrive, mut drain_gap) = (0.3, 100 * US);

    let mut arrive = |q: &mut AnyQueue, pool: &mut PacketPool, rng: &mut DetRng, now: u64| {
        seq += 1;
        // Half the arrivals are full-sized, so the ECN threshold and
        // CoDel's one-MTU backlog are hit exactly, not only crossed.
        let bytes = if rng.chance(0.5) {
            1500
        } else {
            rng.uniform_u64(40, 1501)
        };
        let p = Packet {
            flow: FlowId(0),
            seq,
            bytes,
            sent_at: Instant::from_nanos(now),
            delivered_at_send: 0,
            app_limited: false,
            ecn: false,
        };
        let out = q.enqueue_with_ecn(p, pool, now, ecn);
        u64::from(out == Enqueue::Accepted)
    };
    let depart = |q: &mut AnyQueue, pool: &mut PacketPool, now: u64| match q.dequeue(pool, now) {
        Some(h) => {
            let p = pool.release(h);
            Some((p.seq, u64::from(p.ecn)))
        }
        None => None,
    };

    for op in 0..40_000u64 {
        if op % 500 == 0 {
            // A new phase: arrivals run below or above the drain rate,
            // and the link drains fast (short sojourns) or slowly
            // (sojourns far above every target).
            p_arrive = if rng.chance(0.5) { 0.3 } else { 0.6 };
            drain_gap = if rng.chance(0.5) {
                rng.uniform_u64(20 * US, 200 * US)
            } else {
                rng.uniform_u64(MS, 4 * MS)
            };
        }
        let roll = rng.uniform();
        if roll < p_arrive {
            now += rng.uniform_u64(0, 300 * US);
            let accepted = arrive(&mut q, &mut pool, &mut rng, now);
            d.word(accepted);
        } else if roll < p_arrive + 0.01 {
            // A burst at one instant, large enough to overflow.
            for _ in 0..rng.uniform_u64(10, 60) {
                let accepted = arrive(&mut q, &mut pool, &mut rng, now);
                d.word(accepted);
            }
        } else if roll < p_arrive + 0.012 {
            // The link drains the queue, then nothing arrives for up to
            // 30 s: PIE's probability decays and fast-forwards.
            while let Some((s, e)) = depart(&mut q, &mut pool, now) {
                d.word(s);
                d.word(e);
                now += drain_gap;
            }
            now += rng.uniform_u64(100 * MS, 30_000 * MS);
        } else {
            now += drain_gap;
            match depart(&mut q, &mut pool, now) {
                Some((s, e)) => {
                    d.word(s);
                    d.word(e);
                }
                None => d.word(u64::MAX),
            }
        }
        if op % 64 == 0 {
            d.snapshot(&mut q, now);
        }
    }
    d.snapshot(&mut q, now);
    assert_eq!(pool.live(), q.len(), "every live packet is queued");
    d.0
}

#[test]
fn every_discipline_matches_its_pinned_digest() {
    let disciplines = [
        QueueConfig::Droptail,
        QueueConfig::codel_default(),
        QueueConfig::pie_default(),
        QueueConfig::TokenBucket {
            rate: Rate::from_mbps(20.0),
            burst: Bytes::new(15_000),
        },
    ];
    let mark = Some(EcnConfig {
        threshold: Bytes::new(4500),
    });
    // (plain, ECN-marking) digest per discipline, in the order above.
    let pinned: [(u64, u64); 4] = [
        (0x338c_8c85_53c7_4065, 0x883e_aa12_d207_30c3),
        (0xecf3_c257_73b2_3923, 0x9bc4_8f81_335b_318f),
        (0x3dc2_c174_e809_99f3, 0xd296_4cfb_a039_34a0),
        (0x6e8a_5fe8_91e3_5ef2, 0x9fdd_a263_f0f8_ee9c),
    ];
    let got: Vec<(u64, u64)> = disciplines
        .iter()
        .map(|&cfg| (digest(cfg, None), digest(cfg, mark)))
        .collect();
    for (cfg, (plain, marked)) in disciplines.iter().zip(&got) {
        println!("{}: ({plain:#018x}, {marked:#018x})", cfg.label());
    }
    assert_eq!(got, pinned);
}
