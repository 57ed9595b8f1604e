//! One fault schedule for every fault plane.
//!
//! A [`FaultPlan<K>`] is a list of half-open `[from, to)` windows over
//! simulated time, each carrying a plane-specific fault kind `K`: the
//! link plane schedules `libra_netsim::FaultKind`, the policy plane
//! [`crate::PolicyFaultKind`]. The plan is pure schedule. Each plane's
//! engine owns its kinds' semantics, its counters and the dedicated
//! [`crate::DetRng`] stream it is handed, and selects windows through
//! [`FaultPlan::active`] / [`FaultPlan::active_mut`]. Both visit the
//! windows open at `t` in schedule (insertion) order, which is the
//! order every injection draw follows, so a plan replays exactly under
//! its stream's seed.

use crate::{Duration, Instant};

/// A fault of kind `K` active on `[from, to)`.
#[derive(Debug, Clone)]
pub struct FaultEvent<K> {
    /// Window start (inclusive).
    pub from: Instant,
    /// Window end (exclusive).
    pub to: Instant,
    /// What happens inside the window.
    pub kind: K,
}

impl<K> FaultEvent<K> {
    /// Is the event active at `t`?
    pub fn active_at(&self, t: Instant) -> bool {
        self.from <= t && t < self.to
    }
}

/// A schedule of fault windows of kind `K`.
#[derive(Debug, Clone)]
pub struct FaultPlan<K> {
    /// The scheduled events, in schedule order.
    pub events: Vec<FaultEvent<K>>,
}

impl<K> Default for FaultPlan<K> {
    fn default() -> Self {
        FaultPlan { events: Vec::new() }
    }
}

impl<K> FaultPlan<K> {
    /// A plan with no faults.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// True when the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Add one event (builder style).
    pub fn with(mut self, from: Instant, to: Instant, kind: K) -> Self {
        self.push(from, to, kind);
        self
    }

    /// Add one event.
    pub fn push(&mut self, from: Instant, to: Instant, kind: K) {
        debug_assert!(from <= to, "fault window ends before it starts");
        self.events.push(FaultEvent { from, to, kind });
    }

    /// The events active at `t`, in schedule order.
    pub fn active(&self, t: Instant) -> impl Iterator<Item = &FaultEvent<K>> {
        self.events.iter().filter(move |e| e.active_at(t))
    }

    /// The events active at `t`, in schedule order, for kinds that
    /// advance per-window state in place (a burst-loss episode's
    /// Gilbert–Elliott chain).
    pub fn active_mut(&mut self, t: Instant) -> impl Iterator<Item = &mut FaultEvent<K>> {
        self.events.iter_mut().filter(move |e| e.active_at(t))
    }
}

impl<K: Clone> FaultPlan<K> {
    /// Append a train of `count` windows of `kind`: active for `active`,
    /// quiet for `quiet`, starting at `start`.
    pub fn train(
        mut self,
        start: Instant,
        active: Duration,
        quiet: Duration,
        count: usize,
        kind: K,
    ) -> Self {
        let mut t = start;
        for _ in 0..count {
            self.push(t, t + active, kind.clone());
            t += active + quiet;
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn active_scan_keeps_schedule_order() {
        let mut plan = FaultPlan::none()
            .with(Instant::from_secs(2), Instant::from_secs(4), 'a')
            .with(Instant::ZERO, Instant::from_secs(1), 'b')
            .with(Instant::from_secs(1), Instant::from_secs(3), 'c');
        let at = |plan: &FaultPlan<char>, s| {
            plan.active(Instant::from_secs(s))
                .map(|e| e.kind)
                .collect::<String>()
        };
        assert_eq!(at(&plan, 0), "b");
        assert_eq!(at(&plan, 2), "ac");
        assert_eq!(at(&plan, 4), "");
        for e in plan.active_mut(Instant::from_secs(2)) {
            e.kind = e.kind.to_ascii_uppercase();
        }
        assert_eq!(at(&plan, 2), "AC");
        assert_eq!(plan.events[1].kind, 'b');
    }
}
