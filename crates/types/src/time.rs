//! Integer-nanosecond simulated time.
//!
//! All simulator timestamps are nanoseconds since the start of the run,
//! stored in a `u64`. Integer time guarantees deterministic event ordering
//! (no floating-point rounding in comparisons) and gives a range of roughly
//! 584 simulated years, far beyond any experiment.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// `x.round() as u64` for every `f64`, bit for bit, without libm's
/// `round`: truncate, then add 1 when the exact fractional part is at
/// least one half. The saturating cast sends NaN and negatives to 0 and
/// anything at or above 2⁶⁴ to `u64::MAX`. Below 2⁵³ both `t as f64` and
/// `x - t` are exact; from 2⁵³ up `x` is an integer, so its fraction is
/// 0 (or, past 2⁶⁴, large against the saturated `t`).
#[inline]
fn round_u64(x: f64) -> u64 {
    let t = x as u64;
    if x - t as f64 >= 0.5 {
        t.saturating_add(1)
    } else {
        t
    }
}

/// A point in simulated time (nanoseconds since the start of the run).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Instant(u64);

/// A span of simulated time (nanoseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(u64);

impl Instant {
    /// The beginning of the simulation.
    pub const ZERO: Instant = Instant(0);
    /// A timestamp later than any event the simulator will ever schedule.
    pub const FAR_FUTURE: Instant = Instant(u64::MAX);

    /// Construct from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        Instant(ns)
    }

    /// Construct from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Instant(us * 1_000)
    }

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Instant(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        Instant(s * 1_000_000_000)
    }

    /// Raw nanoseconds since the start of the run.
    pub const fn nanos(self) -> u64 {
        self.0
    }

    /// Seconds since the start of the run, as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// `self - earlier`, saturating at zero if `earlier` is in the future.
    pub fn saturating_since(self, earlier: Instant) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }

    /// Checked duration since `earlier`; `None` if `earlier > self`.
    pub fn checked_since(self, earlier: Instant) -> Option<Duration> {
        self.0.checked_sub(earlier.0).map(Duration)
    }
}

impl Duration {
    /// Zero-length span.
    pub const ZERO: Duration = Duration(0);
    /// Largest representable span; used as "infinite" timeout sentinel.
    pub const MAX: Duration = Duration(u64::MAX);

    /// Construct from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        Duration(ns)
    }

    /// Construct from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Duration(us * 1_000)
    }

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Duration(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        Duration(s * 1_000_000_000)
    }

    /// Construct from fractional seconds. Negative inputs clamp to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        if s <= 0.0 || !s.is_finite() {
            return Duration::ZERO;
        }
        Duration(round_u64(s * 1e9))
    }

    /// Raw nanoseconds.
    pub const fn nanos(self) -> u64 {
        self.0
    }

    /// The span as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The span as fractional milliseconds (for reporting).
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// True when the span is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Scale by a non-negative float (used for RTT-relative intervals, e.g.
    /// "0.5 estimated RTTs"). Negative or NaN factors clamp to zero.
    pub fn mul_f64(self, factor: f64) -> Duration {
        if factor <= 0.0 || !factor.is_finite() {
            return Duration::ZERO;
        }
        Duration(round_u64(self.0 as f64 * factor))
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: Duration) -> Duration {
        Duration(self.0.saturating_sub(other.0))
    }

    /// Element-wise minimum.
    pub fn min(self, other: Duration) -> Duration {
        Duration(self.0.min(other.0))
    }

    /// Element-wise maximum.
    pub fn max(self, other: Duration) -> Duration {
        Duration(self.0.max(other.0))
    }
}

impl Add<Duration> for Instant {
    type Output = Instant;
    fn add(self, rhs: Duration) -> Instant {
        Instant(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<Duration> for Instant {
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub<Duration> for Instant {
    type Output = Instant;
    fn sub(self, rhs: Duration) -> Instant {
        Instant(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<Instant> for Instant {
    type Output = Duration;
    /// Panics in debug builds if `rhs` is later than `self`; saturates in
    /// release. Use [`Instant::checked_since`] when ordering is uncertain.
    fn sub(self, rhs: Instant) -> Duration {
        debug_assert!(self.0 >= rhs.0, "instant subtraction went negative");
        Duration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        debug_assert!(self.0 >= rhs.0, "duration subtraction went negative");
        Duration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for Duration {
    fn sub_assign(&mut self, rhs: Duration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for Duration {
    type Output = Duration;
    fn mul(self, rhs: u64) -> Duration {
        Duration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for Duration {
    type Output = Duration;
    fn div(self, rhs: u64) -> Duration {
        Duration(self.0 / rhs)
    }
}

impl Div for Duration {
    type Output = f64;
    /// The dimensionless ratio of two spans.
    fn div(self, rhs: Duration) -> f64 {
        self.0 as f64 / rhs.0 as f64
    }
}

impl fmt::Display for Instant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn assert_rounds_like_libm(x: f64) {
        assert_eq!(
            round_u64(x),
            x.round() as u64,
            "{x:e} ({:#018x})",
            x.to_bits()
        );
    }

    #[test]
    fn integer_round_matches_libm_at_the_boundaries() {
        let two = |e: i32| 2f64.powi(e);
        let mut xs = vec![
            0.0,
            0.5,
            1.5,
            2.5,
            0.49999999999999994,
            two(63),
            two(64),
            two(65),
            f64::MAX,
            f64::INFINITY,
            f64::MIN_POSITIVE,
            f64::from_bits(1),
            f64::from_bits(0x000f_ffff_ffff_ffff),
            1e9 * 0.123456789,
        ];
        for e in 51..=53 {
            for k in [
                two(e) - 2.0,
                two(e) - 1.0,
                two(e),
                two(e) + 1.0,
                two(e) + 2.0,
            ] {
                xs.push(k + 0.5);
            }
        }
        for x in xs {
            for y in [x, x.next_up(), x.next_down()] {
                assert_rounds_like_libm(y);
            }
        }
    }

    proptest! {
        #[test]
        fn integer_round_matches_libm_on_non_negative_bit_patterns(bits in 0u64..=i64::MAX as u64) {
            assert_rounds_like_libm(f64::from_bits(bits));
        }
    }

    #[test]
    fn constructors_agree() {
        assert_eq!(Instant::from_millis(1), Instant::from_micros(1000));
        assert_eq!(Instant::from_secs(2), Instant::from_millis(2000));
        assert_eq!(Duration::from_millis(1).nanos(), 1_000_000);
        assert_eq!(Duration::from_secs(1), Duration::from_millis(1000));
    }

    #[test]
    fn instant_arithmetic() {
        let t = Instant::from_millis(100);
        let d = Duration::from_millis(30);
        assert_eq!(t + d, Instant::from_millis(130));
        assert_eq!((t + d) - t, d);
        assert_eq!(t - d, Instant::from_millis(70));
    }

    #[test]
    fn saturating_since_clamps() {
        let a = Instant::from_millis(10);
        let b = Instant::from_millis(20);
        assert_eq!(a.saturating_since(b), Duration::ZERO);
        assert_eq!(b.saturating_since(a), Duration::from_millis(10));
        assert_eq!(a.checked_since(b), None);
    }

    #[test]
    fn duration_ratio_and_scale() {
        let d = Duration::from_millis(100);
        assert!((d / Duration::from_millis(50) - 2.0).abs() < 1e-12);
        assert_eq!(d.mul_f64(0.5), Duration::from_millis(50));
        assert_eq!(d.mul_f64(-1.0), Duration::ZERO);
        assert_eq!(d.mul_f64(f64::NAN), Duration::ZERO);
    }

    #[test]
    fn from_secs_f64_round_trips() {
        let d = Duration::from_secs_f64(0.123456789);
        assert!((d.as_secs_f64() - 0.123456789).abs() < 1e-9);
        assert_eq!(Duration::from_secs_f64(-3.0), Duration::ZERO);
    }

    #[test]
    fn display_picks_scale() {
        assert_eq!(format!("{}", Duration::from_secs(2)), "2.000s");
        assert_eq!(format!("{}", Duration::from_millis(5)), "5.000ms");
        assert_eq!(format!("{}", Duration::from_nanos(42)), "42ns");
    }

    #[test]
    fn min_max_helpers() {
        let a = Duration::from_millis(1);
        let b = Duration::from_millis(2);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
    }
}
