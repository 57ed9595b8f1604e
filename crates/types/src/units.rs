//! Transport units: sending rates (bits/second) and byte counts.

use crate::time::Duration;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A data rate in bits per second.
///
/// Rates are stored as `f64` because congestion controllers constantly scale
/// them by fractional gains (CUBIC growth, BBR pacing gains, MIMD actions).
/// Construction clamps NaN and negative values to zero so that a buggy
/// controller can never poison the simulator's arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Rate(f64);

impl Rate {
    /// Zero rate (sender idle).
    pub const ZERO: Rate = Rate(0.0);

    /// Construct from bits per second.
    pub fn from_bps(bps: f64) -> Self {
        if bps.is_finite() && bps > 0.0 {
            Rate(bps)
        } else {
            Rate(0.0)
        }
    }

    /// Construct from kilobits per second.
    pub fn from_kbps(kbps: f64) -> Self {
        Rate::from_bps(kbps * 1e3)
    }

    /// Construct from megabits per second.
    pub fn from_mbps(mbps: f64) -> Self {
        Rate::from_bps(mbps * 1e6)
    }

    /// Bits per second.
    pub fn bps(self) -> f64 {
        self.0
    }

    /// Megabits per second (the paper reports rates in Mbps).
    pub fn mbps(self) -> f64 {
        self.0 / 1e6
    }

    /// Bytes per second.
    pub fn bytes_per_sec(self) -> f64 {
        self.0 / 8.0
    }

    /// True when the rate is exactly zero.
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }

    /// The time needed to serialize `bytes` at this rate.
    /// Returns [`Duration::MAX`] for a zero rate.
    pub fn transmit_time(self, bytes: u64) -> Duration {
        if self.is_zero() {
            return Duration::MAX;
        }
        Duration::from_secs_f64(bytes as f64 * 8.0 / self.0)
    }

    /// Bytes deliverable in `dur` at this rate, rounded down (the cast
    /// truncates, which is `floor` for a non-negative product).
    pub fn bytes_in(self, dur: Duration) -> u64 {
        (self.bytes_per_sec() * dur.as_secs_f64()) as u64
    }

    /// Average rate given a byte count over a span. Zero span gives zero.
    pub fn from_bytes_over(bytes: u64, dur: Duration) -> Rate {
        if dur.is_zero() {
            return Rate::ZERO;
        }
        Rate::from_bps(bytes as f64 * 8.0 / dur.as_secs_f64())
    }

    /// Multiplicative scaling that clamps negatives/NaN to zero.
    pub fn scale(self, gain: f64) -> Rate {
        Rate::from_bps(self.0 * gain)
    }

    /// Element-wise minimum.
    pub fn min(self, other: Rate) -> Rate {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// Element-wise maximum.
    pub fn max(self, other: Rate) -> Rate {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// Clamp into `[lo, hi]`.
    pub fn clamp(self, lo: Rate, hi: Rate) -> Rate {
        self.max(lo).min(hi)
    }

    /// `|self - other|` as a rate.
    pub fn abs_diff(self, other: Rate) -> Rate {
        Rate::from_bps((self.0 - other.0).abs())
    }
}

impl Add for Rate {
    type Output = Rate;
    fn add(self, rhs: Rate) -> Rate {
        Rate::from_bps(self.0 + rhs.0)
    }
}

impl Sub for Rate {
    type Output = Rate;
    /// Saturating at zero — rates are never negative.
    fn sub(self, rhs: Rate) -> Rate {
        Rate::from_bps(self.0 - rhs.0)
    }
}

impl Mul<f64> for Rate {
    type Output = Rate;
    fn mul(self, rhs: f64) -> Rate {
        self.scale(rhs)
    }
}

impl Div<f64> for Rate {
    type Output = Rate;
    fn div(self, rhs: f64) -> Rate {
        if rhs <= 0.0 || !rhs.is_finite() {
            Rate::ZERO
        } else {
            Rate::from_bps(self.0 / rhs)
        }
    }
}

impl Div for Rate {
    type Output = f64;
    /// Dimensionless ratio; zero denominator gives zero (callers treat this
    /// as "no signal" rather than an error).
    fn div(self, rhs: Rate) -> f64 {
        if rhs.0 == 0.0 {
            0.0
        } else {
            self.0 / rhs.0
        }
    }
}

impl fmt::Display for Rate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}Mbps", self.mbps())
    }
}

/// A byte count. Thin wrapper used where mixing up bytes with packets or
/// bits would be an easy mistake (buffer capacities, BDP computations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Bytes(u64);

impl Bytes {
    /// Zero bytes.
    pub const ZERO: Bytes = Bytes(0);

    /// Construct from a raw byte count.
    pub const fn new(n: u64) -> Self {
        Bytes(n)
    }

    /// Construct from kilobytes (1 KB = 1000 bytes, matching the paper's
    /// "150KB buffer" style figures).
    pub const fn from_kb(kb: u64) -> Self {
        Bytes(kb * 1_000)
    }

    /// Construct from megabytes.
    pub const fn from_mb(mb: u64) -> Self {
        Bytes(mb * 1_000_000)
    }

    /// Raw count.
    pub const fn get(self) -> u64 {
        self.0
    }

    /// The bandwidth-delay product for `rate` × `rtt`, rounded down to whole
    /// bytes (used to size "1 BDP" buffers).
    pub fn bdp(rate: Rate, rtt: Duration) -> Bytes {
        Bytes((rate.bytes_per_sec() * rtt.as_secs_f64()) as u64)
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.saturating_sub(rhs.0))
    }
}

impl Add for Bytes {
    type Output = Bytes;
    fn add(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for Bytes {
    fn add_assign(&mut self, rhs: Bytes) {
        *self = *self + rhs;
    }
}

impl Sub for Bytes {
    type Output = Bytes;
    fn sub(self, rhs: Bytes) -> Bytes {
        debug_assert!(self.0 >= rhs.0, "byte subtraction went negative");
        Bytes(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.2}MB", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.1}KB", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}B", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_construction_clamps() {
        assert_eq!(Rate::from_bps(-5.0), Rate::ZERO);
        assert_eq!(Rate::from_bps(f64::NAN), Rate::ZERO);
        assert!((Rate::from_mbps(12.0).bps() - 12e6).abs() < 1e-6);
        assert!((Rate::from_kbps(500.0).mbps() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn transmit_time_is_inverse_of_bytes_in() {
        let r = Rate::from_mbps(8.0); // 1 byte/us
        let t = r.transmit_time(1_000_000);
        assert!((t.as_secs_f64() - 1.0).abs() < 1e-9);
        assert_eq!(r.bytes_in(Duration::from_secs(1)), 1_000_000);
        assert_eq!(Rate::ZERO.transmit_time(1), Duration::MAX);
    }

    #[test]
    fn rate_from_bytes_over() {
        let r = Rate::from_bytes_over(1_250_000, Duration::from_secs(1));
        assert!((r.mbps() - 10.0).abs() < 1e-9);
        assert_eq!(Rate::from_bytes_over(100, Duration::ZERO), Rate::ZERO);
    }

    #[test]
    fn rate_arith_saturates() {
        let a = Rate::from_mbps(1.0);
        let b = Rate::from_mbps(3.0);
        assert_eq!(a - b, Rate::ZERO);
        assert!(((b - a).mbps() - 2.0).abs() < 1e-12);
        assert_eq!(a * -2.0, Rate::ZERO);
        assert_eq!(a / 0.0, Rate::ZERO);
        assert!((b / a - 3.0).abs() < 1e-12);
        assert_eq!(a / Rate::ZERO, 0.0);
    }

    #[test]
    fn bdp_matches_hand_computation() {
        // 48 Mbps × 100 ms = 600_000 bytes
        let bdp = Bytes::bdp(Rate::from_mbps(48.0), Duration::from_millis(100));
        assert_eq!(bdp.get(), 600_000);
    }

    #[test]
    fn bytes_display() {
        assert_eq!(format!("{}", Bytes::from_kb(150)), "150.0KB");
        assert_eq!(format!("{}", Bytes::new(42)), "42B");
        assert_eq!(format!("{}", Bytes::from_mb(5)), "5.00MB");
    }

    #[test]
    fn clamp_and_abs_diff() {
        let lo = Rate::from_mbps(1.0);
        let hi = Rate::from_mbps(10.0);
        assert_eq!(Rate::from_mbps(20.0).clamp(lo, hi), hi);
        assert_eq!(Rate::from_mbps(0.1).clamp(lo, hi), lo);
        assert!((Rate::from_mbps(4.0).abs_diff(Rate::from_mbps(7.0)).mbps() - 3.0).abs() < 1e-12);
    }
}
