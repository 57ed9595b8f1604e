// lint: allow-file(host_clock)
//! The workspace's single audited wall-clock access point.
//!
//! Everything the simulator computes must be a pure function of
//! `(configuration, seed)` — which is why `libra-lint`'s `host-clock`
//! rule bans `std::time::Instant`/`SystemTime` everywhere else. The one
//! legitimate use of the host clock is *measuring our own compute cost*
//! (the paper's CPU-overhead metric, Fig. 2c/Fig. 12, via `compute_ns`)
//! and bounding it (the wall-clock watchdog budget): those readings are
//! reported as telemetry or abort a run, never fed back into simulation
//! behaviour. Throughput numbers come from the standalone `benchmark/`
//! package, which times from outside.
//!
//! Keeping the access behind this module means the determinism audit is
//! one file long: any new wall-clock dependency has to either go through
//! [`stamp`] (and inherit this rationale) or argue with the lint gate.

/// An opaque wall-clock stamp; the only thing it can do is measure the
/// host time elapsed since it was taken.
#[derive(Debug, Clone, Copy)]
pub struct HostStamp(std::time::Instant);

/// Take a wall-clock stamp now.
#[inline]
pub fn stamp() -> HostStamp {
    HostStamp(std::time::Instant::now())
}

impl HostStamp {
    /// Nanoseconds of host time elapsed since the stamp was taken.
    #[inline]
    pub fn elapsed_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    /// Seconds (fractional) of host time elapsed since the stamp.
    #[inline]
    pub fn elapsed_secs_f64(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }

    /// Milliseconds (fractional) of host time elapsed since the stamp.
    #[inline]
    pub fn elapsed_ms(&self) -> f64 {
        self.elapsed_secs_f64() * 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elapsed_is_monotone_nonnegative() {
        let t0 = stamp();
        let a = t0.elapsed_ns();
        let b = t0.elapsed_ns();
        assert!(b >= a);
        assert!(t0.elapsed_secs_f64() >= 0.0);
        assert!(t0.elapsed_ms() >= 0.0);
    }
}
