//! Virtual time.
//!
//! Every experiment in this reproduction reports *virtual* (simulated)
//! seconds rather than wall-clock seconds: compute phases advance a rank's
//! clock by `volume / speed`, and messages advance the receiver's clock by
//! the link traversal cost. [`SimTime`] is a thin wrapper over `f64` seconds
//! that keeps the two kinds of time from being mixed up.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A point in (or duration of) virtual time, in seconds.
///
/// `SimTime` is totally ordered (NaN is rejected at construction in debug
/// builds) and supports the arithmetic needed by the timing model.
#[derive(Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct SimTime(f64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Creates a time from seconds.
    ///
    /// # Panics
    /// Panics in debug builds if `secs` is NaN or negative.
    #[inline]
    pub fn from_secs(secs: f64) -> Self {
        debug_assert!(!secs.is_nan(), "SimTime cannot be NaN");
        debug_assert!(secs >= 0.0, "SimTime cannot be negative: {secs}");
        SimTime(secs)
    }

    /// The value in seconds.
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// The later of two times.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The earlier of two times.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// True if this time is exactly zero.
    #[inline]
    pub(crate) fn is_zero(self) -> bool {
        self.0 == 0.0
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime::from_secs(self.0 - rhs.0)
    }
}

impl Mul<f64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn mul(self, rhs: f64) -> SimTime {
        SimTime::from_secs(self.0 * rhs)
    }
}

impl Div<f64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn div(self, rhs: f64) -> SimTime {
        SimTime::from_secs(self.0 / rhs)
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, Add::add)
    }
}

impl Eq for SimTime {}

#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for SimTime {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0
            .partial_cmp(&other.0)
            .expect("SimTime is never NaN by construction")
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(prec) = f.precision() {
            write!(f, "{:.*}", prec, self.0)
        } else {
            write!(f, "{}", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_zero() {
        assert!(SimTime::ZERO.is_zero());
        assert_eq!(SimTime::ZERO.as_secs(), 0.0);
    }

    #[test]
    fn arithmetic_roundtrip() {
        let a = SimTime::from_secs(1.5);
        let b = SimTime::from_secs(2.5);
        assert_eq!((a + b).as_secs(), 4.0);
        assert_eq!((b - a).as_secs(), 1.0);
        assert_eq!((a * 2.0).as_secs(), 3.0);
        assert_eq!((b / 2.0).as_secs(), 1.25);
    }

    #[test]
    fn max_min_pick_correct_operand() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(2.0);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(b.max(b), b);
    }

    #[test]
    fn ordering_is_total_on_constructed_values() {
        let mut v = [SimTime::from_secs(3.0),
            SimTime::from_secs(1.0),
            SimTime::from_secs(2.0)];
        v.sort();
        assert_eq!(v[0].as_secs(), 1.0);
        assert_eq!(v[2].as_secs(), 3.0);
    }

    #[test]
    fn sum_of_durations() {
        let total: SimTime = (1..=4).map(|i| SimTime::from_secs(i as f64)).sum();
        assert_eq!(total.as_secs(), 10.0);
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn negative_time_panics_in_debug() {
        let _ = SimTime::from_secs(-1.0);
    }

    #[test]
    fn display_respects_precision() {
        let t = SimTime::from_secs(1.23456);
        assert_eq!(format!("{t:.2}"), "1.23");
    }
}
