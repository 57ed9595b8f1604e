//! Layer drivers: one tight loop of direct public calls per layer, so a
//! layer's cost can be read without the rest of the simulator around it
//! and reconciled with its share of a traced run.
//!
//! Every driver reports the fastest of [`REPS`] repetitions (interference
//! only ever adds time). Operation streams are fixed, not seeded: a
//! driver prices code, not traffic.

use crate::metrics::Board;
use crate::timed::CallStats;
use crate::workloads::{eval_agent, paper_sized_aurora};
use libra_bench::{slot_to_value, spec_digest, Cca, Journal, RunSpec, RunSummary, SlotResult};
use libra_classic::{Bbr, Cubic};
use libra_core::Libra;
use libra_learned::{RlCca, RlCcaConfig};
use libra_netsim::{
    lte_trace, wired_link, AckPacket, AnyQueue, Enqueue, FlowConfig, FlowId, FlowSender,
    LteScenario, Packet, PacketPool, QueueConfig, QueueDiscipline, SimReport, Simulation,
    TimedEntry, TimerWheel,
};
use libra_nn::{Activation, BatchScratch, Matrix, Mlp};
use libra_rl::{PolicyServer, PpoAgent, PpoConfig};
use libra_types::{
    AckEvent, Bytes, CongestionControl, DetRng, Duration, Instant, LossEvent, LossKind, MiStats,
    MiTracker, PolicyRequest, PolicyService, Rate, UtilityParams,
};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::hint::black_box;
use std::path::Path;
use std::rc::Rc;
use std::time::Instant as Wall;

/// Repetitions per driver; the fastest is reported.
const REPS: usize = 3;
/// Drivers that take a share of the time budget each.
const TIMED_DRIVERS: usize = 35;

/// One repetition: call `chunk` (a batch of operations, returning how
/// many) until `rep_s` seconds have passed; nanoseconds per operation.
fn rep_ns_per_op(rep_s: f64, mut chunk: impl FnMut() -> u64) -> f64 {
    let t0 = Wall::now();
    let mut ops = 0u64;
    loop {
        ops += chunk();
        if t0.elapsed().as_secs_f64() >= rep_s {
            break;
        }
    }
    t0.elapsed().as_nanos() as f64 / ops as f64
}

/// The fastest of [`REPS`] repetitions; `rep` may set up fresh state
/// each time.
fn best_of_reps(rep: impl FnMut() -> f64) -> f64 {
    std::iter::repeat_with(rep)
        .take(REPS)
        .fold(f64::INFINITY, f64::min)
}

/// Fastest nanoseconds per operation over [`REPS`] repetitions of
/// `rep_s` seconds, state carried across repetitions.
fn best_ns_per_op(rep_s: f64, mut chunk: impl FnMut() -> u64) -> f64 {
    best_of_reps(|| rep_ns_per_op(rep_s, &mut chunk))
}

/// Like [`best_ns_per_op`] for calls that sit between untimed
/// preparation: `step` times the calls of interest into the `CallStats`
/// it is handed, one span each, with the empty-span cost removed.
fn best_span_ns(rep_s: f64, mut step: impl FnMut(&CallStats)) -> f64 {
    best_of_reps(|| {
        let stats = CallStats::default();
        let t0 = Wall::now();
        while t0.elapsed().as_secs_f64() < rep_s {
            step(&stats);
        }
        stats.mean_ns()
    })
}

fn ack_event(i: u64, in_flight: u64) -> AckEvent {
    // One ACK per 100 µs on a 30 ms path, delivery accounting in step.
    let now = Instant::from_micros(30_000 + i * 100);
    AckEvent {
        now,
        seq: i,
        bytes: 1500,
        rtt: Duration::from_micros(30_000 + (i % 16) * 250),
        min_rtt: Duration::from_millis(30),
        srtt: Duration::from_millis(32),
        sent_at: now - Duration::from_millis(30),
        delivered_at_send: i.saturating_sub(300) * 1500,
        delivered: (i + 1) * 1500,
        in_flight,
        app_limited: false,
    }
}

fn loss_event(i: u64, in_flight: u64) -> LossEvent {
    LossEvent {
        now: Instant::from_micros(30_000 + i * 100),
        seq: i,
        bytes: 1500,
        in_flight,
        kind: LossKind::FastRetransmit,
    }
}

fn mi_stats(k: u64, rate_mbps: f64, rtt_ms: u64, loss: f64) -> MiStats {
    let start = Instant::from_millis(100 + k * 25);
    let sent = (rate_mbps * 1e6 / 8.0 * 0.025) as u64;
    MiStats {
        start,
        end: start + Duration::from_millis(25),
        sent_bytes: sent,
        acked_bytes: (sent as f64 * (1.0 - loss)) as u64,
        lost_bytes: (sent as f64 * loss) as u64,
        acks: 40,
        sending_rate: Rate::from_mbps(rate_mbps),
        delivery_rate: Rate::from_mbps(rate_mbps * (1.0 - loss)),
        avg_rtt: Duration::from_millis(rtt_ms),
        mi_min_rtt: Duration::from_millis(rtt_ms),
        mi_max_rtt: Duration::from_millis(rtt_ms + 2),
        min_rtt: Duration::from_millis(50),
        rtt_gradient: if k.is_multiple_of(7) { 0.01 } else { 0.0 },
        loss_rate: loss,
    }
}

/// A varied but fixed observation matrix (`rows × cols`).
fn observations(rows: usize, cols: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |r, c| {
        ((r * 31 + c * 7) % 17) as f64 / 17.0 - 0.5
    })
}

// ---------------------------------------------------------------- netsim

fn wheel_sparse(rep_s: f64) -> f64 {
    // 4096 resident timers; each pop re-arms one with a delta from the
    // mix a large fleet produces: pacer wakes, ACK arrivals, MI ticks,
    // RTO checks.
    let mut rng = DetRng::new(1);
    let deltas: Vec<u64> = (0..4096)
        .map(|i| match i % 4 {
            0 => 125_000,
            1 => 20_000_000,
            2 => rng.uniform_u64(40_000_000, 80_000_000),
            _ => rng.uniform_u64(200_000_000, 1_000_000_000),
        })
        .collect();
    let mut wheel: TimerWheel<u32> = TimerWheel::new();
    let mut seq = 0u64;
    for &d in &deltas {
        seq += 1;
        wheel.push(TimedEntry {
            at: Instant::from_nanos(d),
            seq,
            event: 0,
        });
    }
    best_ns_per_op(rep_s, || {
        for &d in &deltas {
            let e = wheel.pop().expect("resident timers");
            seq += 1;
            wheel.push(TimedEntry {
                at: e.at + Duration::from_nanos(d),
                seq,
                event: e.event,
            });
        }
        deltas.len() as u64
    })
}

fn wheel_burst(rep_s: f64) -> f64 {
    // 256 timers due at the same instant, each re-armed 2 ms out: every
    // pop resolves a 256-way tie by sequence number.
    let mut wheel: TimerWheel<u32> = TimerWheel::new();
    let mut seq = 0u64;
    for _ in 0..256 {
        seq += 1;
        wheel.push(TimedEntry {
            at: Instant::from_millis(2),
            seq,
            event: 0,
        });
    }
    best_ns_per_op(rep_s, || {
        for _ in 0..256 {
            let e = wheel.pop().expect("resident timers");
            seq += 1;
            wheel.push(TimedEntry {
                at: e.at + Duration::from_millis(2),
                seq,
                event: e.event,
            });
        }
        256
    })
}

fn packet(seq: u64, sent_at: Instant) -> Packet {
    Packet {
        flow: FlowId(0),
        seq,
        bytes: 1500,
        sent_at,
        delivered_at_send: 0,
        app_limited: false,
        ecn: false,
    }
}

fn queue(cfg: QueueConfig, rep_s: f64) -> f64 {
    // A 100 Mbps link (120 µs per packet) offered 150 Mbps: three
    // arrivals per two departures, into the paper's 150 KB buffer.
    let mut q = AnyQueue::build(cfg, Bytes::from_kb(150), DetRng::new(2));
    let mut pool = PacketPool::with_capacity(256);
    let mut now_ns = 0u64;
    let mut seq = 0u64;
    best_ns_per_op(rep_s, || {
        for _ in 0..256 {
            for step in 0..5 {
                if step == 2 || step == 4 {
                    now_ns += 120_000;
                    if let Some(h) = q.dequeue(&mut pool, now_ns) {
                        black_box(pool.release(h));
                    }
                } else {
                    seq += 1;
                    let p = packet(seq, Instant::from_nanos(now_ns));
                    if q.enqueue_with_ecn(p, &mut pool, now_ns, None) == Enqueue::Dropped {
                        black_box(seq);
                    }
                }
            }
        }
        256 * 3
    })
}

fn pool(rep_s: f64) -> f64 {
    // 640 live packets: release the oldest, allocate a new one, read it.
    let mut pool = PacketPool::with_capacity(256);
    let mut live: VecDeque<_> = (0..640)
        .map(|i| pool.alloc(packet(i, Instant::ZERO)))
        .collect();
    let mut seq = 640u64;
    best_ns_per_op(rep_s, || {
        for _ in 0..1024 {
            let old = live.pop_front().expect("live handles");
            black_box(pool.release(old));
            seq += 1;
            let h = pool.alloc(packet(seq, Instant::ZERO));
            black_box(pool.get(h).seq);
            live.push_back(h);
        }
        1024
    })
}

fn sender(lossy: bool, rep_s: f64) -> f64 {
    // A CUBIC sender against a pipe that holds 512 packets and returns
    // one ACK per 10 µs. The pipe overflowing is the only loss on the
    // clean path; the lossy path also loses every hundredth packet.
    const PIPE: usize = 512;
    // A fresh sender per repetition keeps its series from growing with
    // the time budget.
    let ns = best_of_reps(|| {
        let mut s = FlowSender::new(
            FlowId(0),
            Box::new(Cubic::new(1500)),
            1500,
            Instant::ZERO,
            Instant::from_secs(100_000),
            Duration::from_millis(30),
            Duration::from_millis(100),
        );
        s.activate(Instant::ZERO);
        let mut pipe: VecDeque<Packet> = VecDeque::with_capacity(PIPE + 64);
        let mut out = Vec::with_capacity(64);
        let mut now = Instant::ZERO;
        let mut emitted = 0u64;
        rep_ns_per_op(rep_s, || {
            let mut acks = 0;
            for _ in 0..256 {
                out.clear();
                s.try_emit(now, &mut out);
                for p in out.drain(..) {
                    emitted += 1;
                    let hole = pipe.len() >= PIPE || (lossy && emitted.is_multiple_of(100));
                    if !hole {
                        pipe.push_back(p);
                    }
                }
                match pipe.pop_front() {
                    Some(p) => {
                        now += Duration::from_micros(10);
                        let ack = AckPacket {
                            flow: p.flow,
                            seq: p.seq,
                            bytes: p.bytes,
                            sent_at: p.sent_at,
                            delivered_at_send: p.delivered_at_send,
                            app_limited: p.app_limited,
                            ecn: false,
                        };
                        black_box(s.on_ack_packet(&ack, now).len());
                        acks += 1;
                    }
                    None => {
                        // Everything in flight was a hole, or the pacer
                        // is waiting: let time pass and the RTO look.
                        now += Duration::from_millis(1);
                        s.on_rto_check(now);
                    }
                }
            }
            acks
        })
    });
    assert!(ns.is_finite(), "sender driver made no progress");
    ns
}

fn capacity(rep_s: f64) -> f64 {
    let total = Duration::from_secs(60);
    let trace = lte_trace(LteScenario::Walking, total, &mut DetRng::new(3));
    let wrap = Instant::from_secs(50);
    let mut cursor = 0usize;
    let mut t = Instant::ZERO;
    best_ns_per_op(rep_s, || {
        for _ in 0..1024 {
            t = trace.service_finish_hinted(&mut cursor, t, 1500);
            if t >= wrap {
                t = Instant::ZERO;
                cursor = 0;
            }
        }
        black_box(t);
        1024
    })
}

fn sim_fixed(rep_s: f64) -> f64 {
    // The cost a job pays whatever its length: construction, one flow,
    // an empty run, report finalisation.
    best_ns_per_op(rep_s, || {
        let mut sim = Simulation::new(wired_link(24.0), 4);
        sim.add_flow(FlowConfig::whole_run(
            Box::new(Cubic::new(1500)),
            Instant::ZERO,
        ));
        black_box(sim.run(Instant::ZERO).flows.len());
        1
    })
}

fn sim_add_flow(rep_s: f64) -> f64 {
    // Per flow, with the simulation's construction and drop amortised
    // over its thousand flows.
    let until = Instant::from_secs(60);
    best_ns_per_op(rep_s, || {
        let mut sim = Simulation::new(wired_link(96.0), 5);
        for i in 0..1000u64 {
            sim.add_flow(FlowConfig::new(
                Box::new(Cubic::new(1500)),
                Instant::from_millis(i * 10),
                until,
            ));
        }
        black_box(&sim);
        1000
    })
}

// --------------------------------------------------------------- classic

fn classic_ack(mut cca: impl CongestionControl, rep_s: f64) -> f64 {
    // A growing-window ACK stream with a loss every 2048 ACKs, so the
    // controller spends its time in congestion avoidance, as in a fleet.
    // One controller, so each call waits for the one before it — but its
    // state and code stay hot, which inside a run they do not.
    let mut i = 0u64;
    best_ns_per_op(rep_s, || {
        for _ in 0..2047 {
            i += 1;
            cca.on_ack(black_box(&ack_event(i, cca.cwnd_bytes())));
        }
        i += 1;
        cca.on_loss(&loss_event(i, cca.cwnd_bytes()));
        2047
    })
}

fn cubic_loss(rep_s: f64) -> f64 {
    // Losses arrive as they do behind a full droptail queue: a burst of
    // eight inside one window, 256 ACKs apart.
    let mut cubic = Cubic::new(1500);
    let mut i = 0u64;
    best_span_ns(rep_s, |stats| {
        for _ in 0..256 {
            i += 1;
            cubic.on_ack(&ack_event(i, cubic.cwnd_bytes()));
        }
        for _ in 0..8 {
            i += 1;
            let ev = loss_event(i, cubic.cwnd_bytes());
            stats.timed_call(|| cubic.on_loss(black_box(&ev)));
        }
    })
}

// ----------------------------------------------------------------- types

fn utility_eval(rep_s: f64) -> f64 {
    let params = UtilityParams::default();
    let mut acc = 0.0;
    let r = best_ns_per_op(rep_s, || {
        for k in 0..1024u32 {
            let x = 1.0 + f64::from(k % 97);
            acc += params.evaluate(
                black_box(x),
                0.001 * f64::from(k % 5),
                0.0005 * f64::from(k % 3),
            );
        }
        1024
    });
    black_box(acc);
    r
}

fn mitracker_ack(rep_s: f64) -> f64 {
    let mut tracker = MiTracker::new(Instant::ZERO);
    let mut i = 0u64;
    best_ns_per_op(rep_s, || {
        for _ in 0..16 {
            for _ in 0..64 {
                i += 1;
                tracker.on_ack(black_box(&ack_event(i, 30_000)));
            }
            let end = Instant::from_micros(30_000 + i * 100);
            black_box(tracker.close(end, Duration::from_millis(30)));
        }
        16 * 64
    })
}

// -------------------------------------------------------------------- nn

fn roof_gflops(rep_s: f64) -> f64 {
    // Eight independent multiply-add chains: the floating-point rate the
    // same build settings reach when nothing waits on memory or on a
    // single accumulator's latency.
    const CHAINS: usize = 8;
    const STEPS: u64 = 4096;
    let a = black_box(1.000_000_1_f64);
    let b = black_box(1e-9_f64);
    let mut acc = [0.5f64; CHAINS];
    let ns = best_ns_per_op(rep_s, || {
        for _ in 0..STEPS {
            for x in &mut acc {
                *x = *x * a + b;
            }
        }
        black_box(&mut acc);
        STEPS * CHAINS as u64 * 2
    });
    1.0 / ns
}

fn matvec_gflops(rep_s: f64) -> f64 {
    let w = observations(512, 512);
    let x: Vec<f64> = (0..512).map(|i| f64::from(i % 13) / 13.0).collect();
    let mut out = Vec::new();
    let ns = best_ns_per_op(rep_s, || {
        w.matvec_into(black_box(&x), &mut out);
        black_box(&out);
        1
    });
    (2 * 512 * 512) as f64 / ns
}

fn matmat_gflops(batch: usize, rep_s: f64) -> f64 {
    // `matmat_t` is the feature-major kernel `Mlp::forward_batch_into`
    // calls: activations are `dim × batch`.
    let w = observations(512, 512);
    let a_t = observations(512, batch);
    let mut out = Matrix::zeros(0, 0);
    let ns = best_ns_per_op(rep_s, || {
        w.matmat_t(black_box(&a_t), &mut out);
        black_box(&out);
        1
    });
    (2 * 512 * 512 * batch) as f64 / ns
}

fn mlp(hidden: usize, obs_dim: usize) -> Mlp {
    Mlp::new(
        &[obs_dim, hidden, hidden, 1],
        Activation::Tanh,
        &mut DetRng::new(6),
    )
}

fn mlp_single_us(net: &Mlp, rep_s: f64) -> f64 {
    let x: Vec<f64> = observations(1, net.sizes()[0]).as_slice().to_vec();
    let (mut out, mut scratch) = (Vec::new(), Vec::new());
    best_ns_per_op(rep_s, || {
        net.forward_into(black_box(&x), &mut out, &mut scratch);
        black_box(&out);
        1
    }) / 1e3
}

fn mlp_batch_us_per_row(net: &Mlp, batch: usize, rep_s: f64) -> f64 {
    let x = observations(batch, net.sizes()[0]);
    let mut out = Matrix::zeros(0, 0);
    let mut scratch = BatchScratch::new();
    best_ns_per_op(rep_s, || {
        net.forward_batch_into(black_box(&x), &mut out, &mut scratch);
        black_box(&out);
        batch as u64
    }) / 1e3
}

// -------------------------------------------------------------------- rl

fn act_eval_us(rep_s: f64) -> f64 {
    let agent = eval_agent(Libra::ppo_config(), 7);
    let obs: Vec<f64> = observations(1, agent.config().obs_dim).as_slice().to_vec();
    let (mut out, mut scratch) = (Vec::new(), Vec::new());
    best_ns_per_op(rep_s, || {
        agent.act_eval(black_box(&obs), &mut out, &mut scratch);
        black_box(&out);
        1
    }) / 1e3
}

fn act_eval_batch_us_per_row(agent: &PpoAgent, rep_s: f64) -> f64 {
    let obs = observations(32, agent.config().obs_dim);
    let mut out = Matrix::zeros(0, 0);
    let mut scratch = BatchScratch::new();
    best_ns_per_op(rep_s, || {
        agent.act_eval_batch(black_box(&obs), &mut out, &mut scratch);
        black_box(&out);
        32
    }) / 1e3
}

/// A server with `batch` flows registered to `agent`, and one request
/// per flow carrying a row of `obs`.
fn policy_batch(agent: &Rc<RefCell<PpoAgent>>, obs: &Matrix) -> (PolicyServer, Vec<PolicyRequest>) {
    let mut server = PolicyServer::new();
    let width = obs.cols();
    let requests = (0..obs.rows())
        .map(|flow| {
            server.register(flow as u32, agent);
            PolicyRequest {
                flow: flow as u32,
                state: obs.as_slice()[flow * width..(flow + 1) * width].to_vec(),
                ..PolicyRequest::default()
            }
        })
        .collect();
    (server, requests)
}

fn policy_evaluate_us_per_row(agent: &Rc<RefCell<PpoAgent>>, batch: usize, rep_s: f64) -> f64 {
    let obs = observations(batch, agent.borrow().config().obs_dim);
    let (mut server, mut requests) = policy_batch(agent, &obs);
    let ns = best_ns_per_op(rep_s, || {
        server.evaluate(black_box(&mut requests));
        batch as u64
    });
    assert!(
        requests
            .iter()
            .all(|r| r.action.len() == 1 && !r.quarantined),
        "policy driver served a bad action"
    );
    ns / 1e3
}

/// What the server adds per row around the forward pass: `evaluate`
/// minus `act_eval_batch` on the same 32 rows, with a one-unit hidden
/// layer so the forward pass does not bury the difference. Gathering and
/// scattering cost the same whatever the network's width.
fn gather_scatter_ns_per_row(rep_s: f64) -> f64 {
    let aurora = RlCcaConfig::aurora().ppo_config();
    let narrow = PpoConfig {
        hidden: vec![1],
        ..aurora
    };
    let agent = Rc::new(RefCell::new(eval_agent(narrow, 12)));
    let serve = policy_evaluate_us_per_row(&agent, 32, rep_s);
    let forward = act_eval_batch_us_per_row(&agent.borrow(), rep_s);
    (serve - forward) * 1e3
}

// --------------------------------------------------------------- learned

/// `(submit_ns, resolve_ns)` of an Aurora controller past its startup.
fn rlcca_submit_resolve(agent: &Rc<RefCell<PpoAgent>>, rep_s: f64) -> (f64, f64) {
    let mut best = (f64::INFINITY, f64::INFINITY);
    for _ in 0..REPS {
        let mut cca = RlCca::new(RlCcaConfig::aurora(), Rc::clone(agent));
        cca.set_rate(Rate::from_mbps(20.0), Duration::from_millis(50));
        let (submit, resolve) = (CallStats::default(), CallStats::default());
        let mut state = Vec::new();
        let mut k = 0u64;
        let t0 = Wall::now();
        while t0.elapsed().as_secs_f64() < rep_s {
            k += 1;
            let mi = mi_stats(k, 20.0, 55, 0.0);
            let wants = submit.timed_call(|| cca.mi_submit(black_box(&mi), &mut state));
            assert!(wants, "Aurora past startup must ask for an action");
            // Alternate small raises and cuts so the rate stays in range.
            let action = [if k.is_multiple_of(2) { 0.02 } else { -0.02 }];
            resolve.timed_call(|| cca.mi_resolve(&mi, black_box(&action)));
        }
        best = (best.0.min(submit.mean_ns()), best.1.min(resolve.mean_ns()));
    }
    best
}

// ------------------------------------------------------------------ core

/// `(mi_ns, ack_ns)` of C-Libra (2×64 policy) driven through whole
/// explore → evaluate → exploit cycles.
fn libra_mi_ack(rep_s: f64) -> (f64, f64) {
    let mut best = (f64::INFINITY, f64::INFINITY);
    let agent = Rc::new(RefCell::new(eval_agent(
        Libra::ppo_config(),
        MODEL_SEED_CORE,
    )));
    for _ in 0..REPS {
        let (mi_calls, ack_calls) = (CallStats::default(), CallStats::default());
        let mut cycles = 0;
        let mut decisions = 0;
        let t0 = Wall::now();
        while t0.elapsed().as_secs_f64() < rep_s {
            // A fresh controller every few thousand intervals keeps its
            // cycle log from growing with the time budget.
            let mut libra = Libra::c_libra(Rc::clone(&agent));
            // A loss ends CUBIC's slow start, which ends Libra's startup:
            // the next interval opens the first cycle.
            let mut i = 0u64;
            for _ in 0..20 {
                i += 1;
                libra.on_ack(&ack_event(i, 30_000));
            }
            libra.on_loss(&loss_event(i, 30_000));
            for k in 0..4096u64 {
                for _ in 0..8 {
                    i += 1;
                    let ev = ack_event(i, 30_000);
                    ack_calls.timed_call(|| libra.on_ack(black_box(&ev)));
                }
                let loss = if k % 11 == 0 { 0.01 } else { 0.0 };
                let mi = mi_stats(k, 18.0 + (k % 5) as f64, 52 + k % 4, loss);
                mi_calls.timed_call(|| libra.on_mi(black_box(&mi)));
            }
            cycles += libra.cycles();
            decisions += libra.rl_decisions();
        }
        assert!(
            cycles > 0 && decisions > 0,
            "Libra driver never completed a cycle ({cycles} cycles, {decisions} decisions)"
        );
        best = (
            best.0.min(mi_calls.mean_ns()),
            best.1.min(ack_calls.mean_ns()),
        );
    }
    best
}

/// Seed of the 2×64 policy the Libra driver serves.
const MODEL_SEED_CORE: u64 = 8;

// ----------------------------------------------------------------- bench

/// A real one-second CUBIC run: a report with its series filled in.
fn sample_report() -> (RunSpec, SimReport) {
    let spec = RunSpec::single(Cca::Cubic, wired_link(24.0), 1, 9);
    let until = Instant::from_secs(1);
    let mut sim = Simulation::new(spec.link.clone(), spec.seed);
    sim.add_flow(FlowConfig::whole_run(Box::new(Cubic::new(1500)), until));
    let report = sim.run(until);
    (spec, report)
}

fn journal_record_us(scratch: &Path, rep_s: f64) -> f64 {
    let (spec, report) = sample_report();
    let digest = spec_digest(&spec);
    let slot: SlotResult = Ok(RunSummary::from_report(&spec.label, &report));
    let path = scratch.join(format!("driver-journal-{}.jsonl", std::process::id()));
    // A fresh file per repetition bounds what a run writes.
    let ns = best_of_reps(|| {
        let mut journal = Journal::fresh(&path).expect("journal file inside the checkout");
        let mut job = 0u64;
        rep_ns_per_op(rep_s, || {
            journal.record(job, &spec.label, digest, 1, &slot);
            job += 1;
            1
        })
    });
    let _ = std::fs::remove_file(&path);
    ns / 1e3
}

fn summary_us(rep_s: f64) -> f64 {
    let (spec, report) = sample_report();
    best_ns_per_op(rep_s, || {
        let slot: SlotResult = Ok(RunSummary::from_report(&spec.label, black_box(&report)));
        let json = serde_json::to_string(&slot_to_value(&slot)).expect("finite summary");
        black_box(json.len());
        1
    }) / 1e3
}

fn spec_digest_us(rep_s: f64) -> f64 {
    // An LTE spec: the digest walks the whole capacity trace.
    let link = libra_netsim::lte_link(
        LteScenario::Walking,
        Duration::from_secs(10),
        &mut DetRng::new(10),
    );
    let spec = RunSpec::single(Cca::Cubic, link, 10, 10);
    best_ns_per_op(rep_s, || {
        black_box(spec_digest(black_box(&spec)));
        1
    }) / 1e3
}

/// Run every layer driver inside `budget_s` seconds and record the
/// results. `scratch` is a directory inside the checkout.
pub fn run_all(budget_s: f64, scratch: &Path, board: &mut Board) {
    let rep_s = budget_s / (TIMED_DRIVERS * REPS) as f64;

    board.set("netsim.wheel.sparse.ns_per_op", wheel_sparse(rep_s));
    board.set("netsim.wheel.burst.ns_per_op", wheel_burst(rep_s));
    board.set(
        "netsim.queue.droptail.ns_per_pkt",
        queue(QueueConfig::Droptail, rep_s),
    );
    board.set(
        "netsim.queue.codel.ns_per_pkt",
        queue(QueueConfig::codel_default(), rep_s),
    );
    board.set(
        "netsim.queue.pie.ns_per_pkt",
        queue(QueueConfig::pie_default(), rep_s),
    );
    board.set("netsim.pool.ns_per_cycle", pool(rep_s));
    board.set("netsim.sender.ns_per_ack", sender(false, rep_s));
    board.set("netsim.sender.lossy.ns_per_ack", sender(true, rep_s));
    board.set("netsim.capacity.ns_per_service", capacity(rep_s));
    board.set("netsim.sim.fixed_us", sim_fixed(rep_s) / 1e3);
    board.set("netsim.sim.add_flow_us", sim_add_flow(rep_s) / 1e3);

    board.set("classic.cubic.ack_ns", classic_ack(Cubic::new(1500), rep_s));
    board.set("classic.cubic.loss_ns", cubic_loss(rep_s));
    board.set("classic.bbr.ack_ns", classic_ack(Bbr::new(1500), rep_s));

    board.set("types.utility.eval_ns", utility_eval(rep_s));
    board.set("types.mitracker.ack_ns", mitracker_ack(rep_s));

    board.set("nn.roof.gflops", roof_gflops(rep_s));
    board.set("nn.matvec.512.gflops", matvec_gflops(rep_s));
    board.set("nn.matmat.512x32.gflops", matmat_gflops(32, rep_s));
    board.set("nn.matmat.512x256.gflops", matmat_gflops(256, rep_s));
    let paper = paper_sized_aurora();
    let small = mlp(64, Libra::ppo_config().obs_dim);
    let large = mlp(512, paper.obs_dim);
    board.set("nn.mlp.2x64.b1.us", mlp_single_us(&small, rep_s));
    board.set("nn.mlp.2x512.b1.us", mlp_single_us(&large, rep_s));
    board.set(
        "nn.mlp.2x512.b32.us_per_row",
        mlp_batch_us_per_row(&large, 32, rep_s),
    );
    board.set(
        "nn.mlp.2x512.b256.us_per_row",
        mlp_batch_us_per_row(&large, 256, rep_s),
    );
    let weights: usize = large.sizes().windows(2).map(|w| w[0] * w[1]).sum();
    board.set("nn.mlp.2x512.flop_per_row", (2 * weights) as f64);
    board.set(
        "nn.mlp.2x512.weight_bytes",
        (large.param_count() * 8) as f64,
    );

    board.set("rl.agent.act_eval.2x64.us", act_eval_us(rep_s));
    let agent = Rc::new(RefCell::new(eval_agent(paper, 11)));
    let batch_us = act_eval_batch_us_per_row(&agent.borrow(), rep_s);
    board.set("rl.agent.act_eval_batch.2x512.b32.us_per_row", batch_us);
    board.set(
        "rl.policy.evaluate.b1.us",
        policy_evaluate_us_per_row(&agent, 1, rep_s),
    );
    board.set(
        "rl.policy.evaluate.b32.us_per_row",
        policy_evaluate_us_per_row(&agent, 32, rep_s),
    );
    board.set(
        "rl.policy.gather_scatter_ns_per_row",
        gather_scatter_ns_per_row(rep_s),
    );

    let (submit_ns, resolve_ns) = rlcca_submit_resolve(&agent, rep_s);
    board.set("learned.rlcca.submit_ns", submit_ns);
    board.set("learned.rlcca.resolve_ns", resolve_ns);

    let (mi_ns, ack_ns) = libra_mi_ack(rep_s);
    board.set("core.libra.mi_ns", mi_ns);
    board.set("core.libra.ack_ns", ack_ns);

    board.set(
        "bench.journal.us_per_record",
        journal_record_us(scratch, rep_s),
    );
    board.set("bench.summary.us_per_report", summary_us(rep_s));
    board.set("bench.spec.digest_us", spec_digest_us(rep_s));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::PER_LAYER;

    /// Every driver runs (its internal asserts hold) and reports a
    /// positive number under the name the table lists.
    #[test]
    fn every_driver_reports_a_positive_number() {
        let mut board = Board::new(PER_LAYER);
        run_all(0.2, &crate::scratch_dir(), &mut board);
        let first = PER_LAYER
            .iter()
            .position(|(n, _)| *n == "netsim.wheel.sparse.ns_per_op")
            .expect("driver rows");
        for (name, _) in &PER_LAYER[first..] {
            assert!(board.get(name) > 0.0, "{name} = {}", board.get(name));
        }
    }
}
