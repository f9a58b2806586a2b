//! Virtual time used by the whole protocol suite.
//!
//! The simulator advances a [`Time`] in nanoseconds, and the live backend
//! reads one off the wall clock (`gcs_live::WallClock`); protocols only ever
//! see these opaque instants and [`TimeDelta`] durations, which keeps them
//! runtime-agnostic.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant of virtual time, in nanoseconds since simulation start.
///
/// `Time` is totally ordered and only meaningful relative to other instants
/// from the same run.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(u64);

impl Time {
    /// The origin of virtual time.
    pub const ZERO: Time = Time(0);
    /// The greatest representable instant.
    pub const MAX: Time = Time(u64::MAX);

    /// Creates a time from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        Time(ns)
    }

    /// Creates a time from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Time(ms * 1_000_000)
    }

    /// Creates a time from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Time(us * 1_000)
    }

    /// Creates a time from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        Time(s * 1_000_000_000)
    }

    /// Raw nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This instant expressed in (truncated) milliseconds.
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// This instant expressed in fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Time elapsed since `earlier`, saturating at zero.
    pub fn since(self, earlier: Time) -> TimeDelta {
        TimeDelta(self.0.saturating_sub(earlier.0))
    }

    /// Saturating addition of a delta.
    pub fn saturating_add(self, d: TimeDelta) -> Time {
        Time(self.0.saturating_add(d.0))
    }
}

impl Add<TimeDelta> for Time {
    type Output = Time;
    fn add(self, rhs: TimeDelta) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign<TimeDelta> for Time {
    fn add_assign(&mut self, rhs: TimeDelta) {
        self.0 += rhs.0;
    }
}

impl Sub<Time> for Time {
    type Output = TimeDelta;
    fn sub(self, rhs: Time) -> TimeDelta {
        TimeDelta(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.3}ms", self.as_millis_f64())
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

/// A span of virtual time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TimeDelta(u64);

impl TimeDelta {
    /// The zero-length span.
    pub const ZERO: TimeDelta = TimeDelta(0);

    /// Creates a delta from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        TimeDelta(ns)
    }

    /// Creates a delta from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        TimeDelta(us * 1_000)
    }

    /// Creates a delta from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        TimeDelta(ms * 1_000_000)
    }

    /// Creates a delta from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        TimeDelta(s * 1_000_000_000)
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This span expressed in (truncated) milliseconds.
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// This span expressed in fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Multiplies the span by an integer factor, saturating.
    pub const fn saturating_mul(self, k: u64) -> TimeDelta {
        TimeDelta(self.0.saturating_mul(k))
    }

    /// Integer division of the span.
    pub const fn div(self, k: u64) -> TimeDelta {
        TimeDelta(self.0 / k)
    }
}

impl Add for TimeDelta {
    type Output = TimeDelta;
    fn add(self, rhs: TimeDelta) -> TimeDelta {
        TimeDelta(self.0 + rhs.0)
    }
}

impl Sub for TimeDelta {
    type Output = TimeDelta;
    fn sub(self, rhs: TimeDelta) -> TimeDelta {
        TimeDelta(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Debug for TimeDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

impl fmt::Display for TimeDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(Time::from_millis(5).as_nanos(), 5_000_000);
        assert_eq!(Time::from_secs(2).as_millis(), 2_000);
        assert_eq!(TimeDelta::from_micros(1_500).as_nanos(), 1_500_000);
    }

    #[test]
    fn arithmetic() {
        let t = Time::from_millis(10) + TimeDelta::from_millis(5);
        assert_eq!(t.as_millis(), 15);
        assert_eq!((t - Time::from_millis(5)).as_millis(), 10);
        // Saturating subtraction of a later instant yields zero.
        assert_eq!((Time::from_millis(1) - Time::from_millis(9)).as_nanos(), 0);
    }

    #[test]
    fn since_saturates() {
        let early = Time::from_millis(1);
        let late = Time::from_millis(4);
        assert_eq!(late.since(early).as_millis(), 3);
        assert_eq!(early.since(late), TimeDelta::ZERO);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!format!("{:?}", Time::ZERO).is_empty());
        assert!(!format!("{}", TimeDelta::from_millis(7)).is_empty());
    }
}
