//! Outside-in spans: decorators that time calls across a layer boundary
//! without touching the program.
//!
//! [`TimedCca`] wraps a boxed controller and forwards every
//! [`CongestionControl`] method; [`TimedPolicy`] wraps a
//! [`PolicyServer`]. Per-packet callbacks are counted always and timed
//! one call in [`SAMPLE_EVERY`]; monitor-interval and policy calls are
//! timed always. The cost of an empty span (one clock read pair) is
//! calibrated once and subtracted from every timed span.

use libra_rl::PolicyServer;
use libra_types::{
    AckEvent, CongestionControl, Duration, LossEvent, MiStats, PolicyRequest, PolicyService, Rate,
    SendEvent, Tracer,
};
use std::cell::Cell;
use std::rc::Rc;
use std::sync::OnceLock;
use std::time::Instant as Wall;

/// Per-packet callbacks are timed one call in this many.
pub const SAMPLE_EVERY: u64 = 64;

/// Nanoseconds an empty span reads: the clock-read cost every timed
/// span includes. Calibrated on first use as the fastest of several
/// batches, since interference only ever adds to it.
pub fn span_cost_ns() -> f64 {
    static COST: OnceLock<f64> = OnceLock::new();
    *COST.get_or_init(|| {
        const BATCH: u32 = 20_000;
        (0..8)
            .map(|_| {
                let mut total = 0u64;
                for _ in 0..BATCH {
                    let t0 = Wall::now();
                    total += std::hint::black_box(t0.elapsed().as_nanos() as u64);
                }
                total as f64 / f64::from(BATCH)
            })
            .fold(f64::INFINITY, f64::min)
    })
}

/// Call count and sampled time of one callback kind in one layer.
#[derive(Debug, Default)]
pub struct CallStats {
    calls: Cell<u64>,
    sampled: Cell<u64>,
    spans: Cell<u64>,
    raw_ns: Cell<u64>,
}

impl CallStats {
    /// Count one call; time it if it falls on the sampling grid.
    fn sampled_call<R>(&self, f: impl FnOnce() -> R) -> R {
        let n = self.calls.get();
        self.calls.set(n + 1);
        if n.is_multiple_of(SAMPLE_EVERY) {
            self.sampled.set(self.sampled.get() + 1);
            self.span(f)
        } else {
            f()
        }
    }

    /// Count one call and time it.
    pub fn timed_call<R>(&self, f: impl FnOnce() -> R) -> R {
        self.calls.set(self.calls.get() + 1);
        self.sampled.set(self.sampled.get() + 1);
        self.span(f)
    }

    /// Time `f` into this kind without counting a call (the second half
    /// of a two-phase call).
    fn span<R>(&self, f: impl FnOnce() -> R) -> R {
        let t0 = Wall::now();
        let r = f();
        self.raw_ns
            .set(self.raw_ns.get() + t0.elapsed().as_nanos() as u64);
        self.spans.set(self.spans.get() + 1);
        r
    }

    /// Exact number of calls.
    pub fn calls(&self) -> u64 {
        self.calls.get()
    }

    /// Mean nanoseconds per call over the timed calls, span cost removed.
    pub fn mean_ns(&self) -> f64 {
        if self.sampled.get() == 0 {
            return 0.0;
        }
        let net = self.raw_ns.get() as f64 - self.spans.get() as f64 * span_cost_ns();
        net.max(0.0) / self.sampled.get() as f64
    }

    /// Estimated nanoseconds spent in all calls.
    pub fn busy_ns(&self) -> f64 {
        self.mean_ns() * self.calls.get() as f64
    }
}

/// What the decorators saw of one layer (the crate owning the wrapped
/// controllers), summed over every flow that shares the handle.
#[derive(Debug, Default)]
pub struct LayerStats {
    /// `on_send`.
    pub send: CallStats,
    /// `on_ack`.
    pub ack: CallStats,
    /// `on_ecn`.
    pub ecn: CallStats,
    /// `on_loss`.
    pub loss: CallStats,
    /// Monitor-interval closes: `on_mi` and `mi_submit` count as calls,
    /// `mi_resolve` adds its time to the close it completes.
    pub mi: CallStats,
}

impl LayerStats {
    /// Estimated nanoseconds inside the layer's timed callbacks — the
    /// same set of calls `FlowReport::compute_ns` covers.
    pub fn busy_ns(&self) -> f64 {
        self.send.busy_ns()
            + self.ack.busy_ns()
            + self.ecn.busy_ns()
            + self.loss.busy_ns()
            + self.mi.busy_ns()
    }
}

/// A transparent timing decorator around a boxed controller.
pub struct TimedCca {
    inner: Box<dyn CongestionControl>,
    stats: Rc<LayerStats>,
}

impl TimedCca {
    /// Wrap `inner`, accumulating into the shared `stats`.
    pub fn wrap(
        inner: Box<dyn CongestionControl>,
        stats: &Rc<LayerStats>,
    ) -> Box<dyn CongestionControl> {
        Box::new(TimedCca {
            inner,
            stats: Rc::clone(stats),
        })
    }
}

// Every trait method is forwarded, defaulted ones included: a default
// left in place would silently replace the inner controller's override
// (the test below reads the trait's source to keep this list complete).
impl CongestionControl for TimedCca {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_send(&mut self, ev: &SendEvent) {
        let inner = &mut self.inner;
        self.stats.send.sampled_call(|| inner.on_send(ev));
    }

    fn on_ack(&mut self, ev: &AckEvent) {
        let inner = &mut self.inner;
        self.stats.ack.sampled_call(|| inner.on_ack(ev));
    }

    fn on_loss(&mut self, ev: &LossEvent) {
        let inner = &mut self.inner;
        self.stats.loss.sampled_call(|| inner.on_loss(ev));
    }

    fn on_ecn(&mut self, ev: &AckEvent) {
        let inner = &mut self.inner;
        self.stats.ecn.sampled_call(|| inner.on_ecn(ev));
    }

    fn on_mi(&mut self, stats: &MiStats) {
        let inner = &mut self.inner;
        self.stats.mi.timed_call(|| inner.on_mi(stats));
    }

    fn mi_submit(&mut self, stats: &MiStats, policy_state: &mut Vec<f64>) -> bool {
        let inner = &mut self.inner;
        self.stats
            .mi
            .timed_call(|| inner.mi_submit(stats, policy_state))
    }

    fn mi_resolve(&mut self, stats: &MiStats, action: &[f64]) {
        let inner = &mut self.inner;
        self.stats.mi.span(|| inner.mi_resolve(stats, action));
    }

    fn mi_duration(&self, srtt: Duration) -> Duration {
        self.inner.mi_duration(srtt)
    }

    fn cwnd_bytes(&self) -> u64 {
        self.inner.cwnd_bytes()
    }

    fn pacing_rate(&self) -> Option<Rate> {
        self.inner.pacing_rate()
    }

    fn rate_estimate(&self, srtt: Duration) -> Rate {
        self.inner.rate_estimate(srtt)
    }

    fn set_rate(&mut self, rate: Rate, srtt: Duration) {
        self.inner.set_rate(rate, srtt);
    }

    fn in_startup(&self) -> bool {
        self.inner.in_startup()
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        self.inner.as_any()
    }

    fn attach_tracer(&mut self, tracer: Tracer) {
        self.inner.attach_tracer(tracer);
    }
}

/// A transparent timing decorator around the shared policy server.
pub struct TimedPolicy {
    inner: PolicyServer,
    /// Raw nanoseconds of every `evaluate` call, in call order.
    tick_ns: Vec<u64>,
    bad_actions: u64,
}

impl TimedPolicy {
    /// Wrap a server whose flows are already registered.
    pub fn new(inner: PolicyServer) -> Self {
        TimedPolicy {
            inner,
            tick_ns: Vec::with_capacity(4096),
            bad_actions: 0,
        }
    }

    /// The wrapped server (for its exact serving counters).
    pub fn server(&self) -> &PolicyServer {
        &self.inner
    }

    /// Served actions that were empty or not finite.
    pub fn bad_actions(&self) -> u64 {
        self.bad_actions
    }

    /// Nanoseconds of each `evaluate` call, span cost removed.
    pub fn tick_ns(&self) -> Vec<f64> {
        let cost = span_cost_ns();
        self.tick_ns
            .iter()
            .map(|&ns| (ns as f64 - cost).max(0.0))
            .collect()
    }
}

impl PolicyService for TimedPolicy {
    fn evaluate(&mut self, batch: &mut [PolicyRequest]) {
        let t0 = Wall::now();
        self.inner.evaluate(batch);
        self.tick_ns.push(t0.elapsed().as_nanos() as u64);
        self.bad_actions += batch
            .iter()
            .filter(|req| req.action.is_empty() || req.action.iter().any(|a| !a.is_finite()))
            .count() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use libra_types::{Instant, LossKind};
    use std::cell::RefCell;

    /// Overrides all sixteen trait methods and records which ran.
    #[derive(Default)]
    struct Probe {
        seen: Rc<RefCell<Vec<&'static str>>>,
    }

    impl Probe {
        fn hit(&self, name: &'static str) {
            self.seen.borrow_mut().push(name);
        }
    }

    impl CongestionControl for Probe {
        fn name(&self) -> &'static str {
            self.hit("name");
            "probe"
        }
        fn on_send(&mut self, _: &SendEvent) {
            self.hit("on_send");
        }
        fn on_ack(&mut self, _: &AckEvent) {
            self.hit("on_ack");
        }
        fn on_loss(&mut self, _: &LossEvent) {
            self.hit("on_loss");
        }
        fn on_ecn(&mut self, _: &AckEvent) {
            self.hit("on_ecn");
        }
        fn on_mi(&mut self, _: &MiStats) {
            self.hit("on_mi");
        }
        fn mi_submit(&mut self, _: &MiStats, state: &mut Vec<f64>) -> bool {
            self.hit("mi_submit");
            state.push(4.5);
            true
        }
        fn mi_resolve(&mut self, _: &MiStats, _: &[f64]) {
            self.hit("mi_resolve");
        }
        fn mi_duration(&self, srtt: Duration) -> Duration {
            self.hit("mi_duration");
            srtt * 3
        }
        fn cwnd_bytes(&self) -> u64 {
            self.hit("cwnd_bytes");
            4242
        }
        fn pacing_rate(&self) -> Option<Rate> {
            self.hit("pacing_rate");
            Some(Rate::from_mbps(7.0))
        }
        fn rate_estimate(&self, _: Duration) -> Rate {
            self.hit("rate_estimate");
            Rate::from_mbps(9.0)
        }
        fn set_rate(&mut self, _: Rate, _: Duration) {
            self.hit("set_rate");
        }
        fn in_startup(&self) -> bool {
            self.hit("in_startup");
            true
        }
        fn as_any(&self) -> Option<&dyn std::any::Any> {
            self.hit("as_any");
            Some(self)
        }
        fn attach_tracer(&mut self, _: Tracer) {
            self.hit("attach_tracer");
        }
    }

    /// Names of the methods `trait CongestionControl` declares, read
    /// from its source so a method added later cannot go unnoticed.
    fn trait_methods() -> Vec<String> {
        let src = include_str!("../../crates/types/src/cca.rs");
        let body = src
            .split_once("pub trait CongestionControl {")
            .expect("trait header")
            .1;
        let body = body.split_once("\n}\n").expect("trait end").0;
        body.lines()
            .filter_map(|line| line.strip_prefix("    fn "))
            .map(|rest| {
                rest.split(|c: char| !(c.is_alphanumeric() || c == '_'))
                    .next()
                    .expect("method name")
                    .to_string()
            })
            .collect()
    }

    fn ack() -> AckEvent {
        AckEvent {
            now: Instant::from_millis(60),
            seq: 1,
            bytes: 1500,
            rtt: Duration::from_millis(50),
            min_rtt: Duration::from_millis(50),
            srtt: Duration::from_millis(50),
            sent_at: Instant::from_millis(10),
            delivered_at_send: 0,
            delivered: 1500,
            in_flight: 3000,
            app_limited: false,
        }
    }

    #[test]
    fn forwards_all_sixteen_methods() {
        let seen = Rc::new(RefCell::new(Vec::new()));
        let stats = Rc::new(LayerStats::default());
        let mut cca = TimedCca::wrap(
            Box::new(Probe {
                seen: Rc::clone(&seen),
            }),
            &stats,
        );
        let mi = MiStats::empty(Instant::from_millis(50));
        let srtt = Duration::from_millis(50);
        let loss = LossEvent {
            now: Instant::from_millis(70),
            seq: 2,
            bytes: 1500,
            in_flight: 1500,
            kind: LossKind::FastRetransmit,
        };
        let send = SendEvent {
            now: Instant::from_millis(5),
            seq: 0,
            bytes: 1500,
            in_flight: 1500,
        };
        let mut state = Vec::new();

        assert_eq!(cca.name(), "probe");
        cca.on_send(&send);
        cca.on_ack(&ack());
        cca.on_loss(&loss);
        cca.on_ecn(&ack());
        cca.on_mi(&mi);
        assert!(cca.mi_submit(&mi, &mut state));
        assert_eq!(state, vec![4.5]);
        cca.mi_resolve(&mi, &[0.5]);
        assert_eq!(cca.mi_duration(srtt), srtt * 3);
        assert_eq!(cca.cwnd_bytes(), 4242);
        assert_eq!(cca.pacing_rate(), Some(Rate::from_mbps(7.0)));
        assert_eq!(cca.rate_estimate(srtt), Rate::from_mbps(9.0));
        cca.set_rate(Rate::from_mbps(1.0), srtt);
        assert!(cca.in_startup());
        assert!(cca.as_any().is_some_and(|a| a.is::<Probe>()));
        cca.attach_tracer(Tracer::disabled());

        let mut forwarded = seen.borrow().clone();
        forwarded.sort_unstable();
        let mut declared = trait_methods();
        declared.sort_unstable();
        assert_eq!(declared.len(), 16, "{declared:?}");
        assert_eq!(forwarded, declared);

        // Counts are exact; the two-phase close counts once.
        assert_eq!(stats.send.calls(), 1);
        assert_eq!(stats.ack.calls(), 1);
        assert_eq!(stats.loss.calls(), 1);
        assert_eq!(stats.ecn.calls(), 1);
        assert_eq!(stats.mi.calls(), 2);
    }

    #[test]
    fn sampling_counts_every_call_and_times_one_in_sixty_four() {
        let stats = CallStats::default();
        for _ in 0..(3 * SAMPLE_EVERY + 1) {
            stats.sampled_call(|| std::hint::black_box(1 + 1));
        }
        assert_eq!(stats.calls(), 3 * SAMPLE_EVERY + 1);
        assert_eq!(stats.sampled.get(), 4);
        assert_eq!(stats.spans.get(), 4);
        assert!(stats.busy_ns() >= 0.0);
    }

    #[test]
    fn span_cost_is_calibrated_once_and_plausible() {
        let cost = span_cost_ns();
        assert!(cost > 0.0 && cost < 10_000.0, "span cost {cost} ns");
        assert_eq!(cost, span_cost_ns());
    }
}
