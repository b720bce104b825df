//! Virtual time for the discrete-event simulator.
//!
//! Time is kept as an integer count of **picoseconds** so that event ordering
//! is exact and platform-independent. A `u64` of picoseconds covers about
//! 213 days of virtual time, far beyond the longest experiment in the paper
//! (the String application runs for ~20,000 virtual seconds).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// A point in virtual time (picoseconds since simulation start).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of virtual time (picoseconds).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

pub const PS_PER_SEC: u64 = 1_000_000_000_000;

impl SimTime {
    pub const ZERO: SimTime = SimTime(0);

    /// Largest representable instant; useful as an "idle forever" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_SEC as f64
    }

    #[inline]
    pub fn from_secs_f64(s: f64) -> SimTime {
        SimTime(secs_to_ps(s))
    }

    /// Time elapsed since `earlier`. Panics in debug builds if `earlier` is
    /// in the future — elapsed time is never negative in a causal simulation.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        debug_assert!(self >= earlier, "SimTime::since: earlier is in the future");
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    pub const ZERO: SimDuration = SimDuration(0);

    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_SEC as f64
    }

    #[inline]
    pub fn from_secs_f64(s: f64) -> SimDuration {
        SimDuration(secs_to_ps(s))
    }

    /// Fallible conversion for untrusted input (`--faults` specs): `None`
    /// when `s` is negative, non-finite, or too large to represent in
    /// picoseconds — where [`from_secs_f64`](Self::from_secs_f64) panics.
    pub fn try_from_secs_f64(s: f64) -> Option<SimDuration> {
        if !(s >= 0.0 && s.is_finite()) {
            return None;
        }
        let ps = s * PS_PER_SEC as f64;
        (ps < u64::MAX as f64).then_some(SimDuration(ps as u64))
    }

    /// `us` whole microseconds, for calibrated constants.
    pub const fn from_micros(us: u64) -> SimDuration {
        SimDuration(us * (PS_PER_SEC / 1_000_000))
    }

    #[inline]
    pub fn from_micros_f64(us: f64) -> SimDuration {
        SimDuration::from_secs_f64(us * 1e-6)
    }

    /// Duration of `n` cycles of a clock running at `hz` cycles per second.
    #[inline]
    pub fn from_cycles(n: u64, hz: u64) -> SimDuration {
        // n / hz seconds = n * PS_PER_SEC / hz picoseconds. PS_PER_SEC/hz is
        // exact for the clock rates we model (33_333_333 Hz divides evenly
        // enough; the sub-picosecond truncation is irrelevant at scale).
        // The product fits a `u64` below 18 million cycles — every transfer
        // the machines price; past that, the same quotient in `u128`.
        SimDuration(match n.checked_mul(PS_PER_SEC) {
            Some(ps) => ps / hz,
            None => (n as u128 * PS_PER_SEC as u128 / hz as u128) as u64,
        })
    }

    #[inline]
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

fn secs_to_ps(s: f64) -> u64 {
    assert!(
        s >= 0.0 && s.is_finite(),
        "negative or non-finite time: {s}"
    );
    let ps = s * PS_PER_SEC as f64;
    assert!(ps < u64::MAX as f64, "virtual time overflow: {s} s");
    ps as u64
}

/// Saturates at [`SimTime::MAX`]: a run that gets there has outlived the
/// clock, and the simulator driver stops it with an error.
impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, d: SimDuration) {
        *self = *self + d;
    }
}

/// Saturates, as instants do: a sum of durations past the clock belongs to
/// a run the driver stops.
impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, d: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(d.0))
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, d: SimDuration) {
        *self = *self + d;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, d: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_sub(d.0).expect("SimDuration underflow"))
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, d: SimDuration) {
        *self = *self - d;
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.9}s", self.as_secs_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.9}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_secs() {
        let t = SimTime::from_secs_f64(1.5);
        assert_eq!(t.0, 1_500_000_000_000);
        assert!((t.as_secs_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn cycles_at_33mhz() {
        // 101 cycles at 33.333 MHz is ~3.03 microseconds.
        let d = SimDuration::from_cycles(101, 33_333_333);
        let s = d.as_secs_f64();
        assert!((s - 3.03e-6).abs() < 1e-8, "{s}");
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs_f64(1.0) + SimDuration::from_secs_f64(0.5);
        assert_eq!(t, SimTime::from_secs_f64(1.5));
        let d = t.since(SimTime::from_secs_f64(1.0));
        assert_eq!(d, SimDuration::from_secs_f64(0.5));
    }

    #[test]
    fn duration_sum() {
        let total: SimDuration = (1..=4).map(SimDuration).sum();
        assert_eq!(total, SimDuration(10));
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = SimDuration(1) - SimDuration(2);
    }

    #[test]
    fn micros() {
        assert_eq!(SimDuration::from_micros_f64(47.0), SimDuration(47_000_000));
        assert_eq!(SimDuration::from_micros(47), SimDuration(47_000_000));
        // The calibrated constants convert exactly as their seconds did.
        assert_eq!(
            SimDuration::from_micros(150),
            SimDuration::from_secs_f64(150e-6)
        );
    }
}
