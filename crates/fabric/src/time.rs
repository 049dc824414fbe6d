//! Exact simulation time and clock frequencies.
//!
//! All cross-clock-domain arithmetic in HIC happens in picoseconds stored in
//! a `u64`. Picoseconds are exact for every frequency the paper's platform
//! uses (400 MHz host → 2500 ps period, 100 MHz kernels/bus → 10000 ps) and
//! a `u64` of picoseconds covers ~213 days of simulated time — far beyond
//! any accelerator run we model.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Sub, SubAssign};

/// A point in (or span of) simulated time, in picoseconds.
///
/// `Time` is used both as an instant on the discrete-event timeline and as a
/// duration; the arithmetic is identical and a separate duration type would
/// double the API surface without catching real bugs in this codebase.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Time(pub u64);

impl Time {
    /// Time zero — the start of every simulation.
    pub const ZERO: Time = Time(0);

    /// Largest representable time; used as an "infinitely far" sentinel by
    /// event queues.
    pub const MAX: Time = Time(u64::MAX);

    /// Construct from picoseconds.
    pub const fn from_ps(ps: u64) -> Self {
        Time(ps)
    }

    /// Construct from nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        Time(ns * 1_000)
    }

    /// Construct from microseconds.
    pub const fn from_us(us: u64) -> Self {
        Time(us * 1_000_000)
    }

    /// Construct from milliseconds.
    pub const fn from_ms(ms: u64) -> Self {
        Time(ms * 1_000_000_000)
    }

    /// Raw picosecond count.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Time in seconds as a float (for energy computation).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// Saturating subtraction: `a.saturating_sub(b)` is zero when `b > a`.
    pub fn saturating_sub(self, rhs: Time) -> Time {
        Time(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition, `None` on overflow.
    pub fn checked_add(self, rhs: Time) -> Option<Time> {
        self.0.checked_add(rhs.0).map(Time)
    }

    /// The larger of two times.
    pub fn max(self, rhs: Time) -> Time {
        Time(self.0.max(rhs.0))
    }

    /// The smaller of two times.
    pub fn min(self, rhs: Time) -> Time {
        Time(self.0.min(rhs.0))
    }
}

impl Add for Time {
    type Output = Time;
    fn add(self, rhs: Time) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign for Time {
    fn add_assign(&mut self, rhs: Time) {
        self.0 += rhs.0;
    }
}

impl Sub for Time {
    type Output = Time;
    fn sub(self, rhs: Time) -> Time {
        Time(self.0 - rhs.0)
    }
}

impl SubAssign for Time {
    fn sub_assign(&mut self, rhs: Time) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Time {
    type Output = Time;
    fn mul(self, rhs: u64) -> Time {
        Time(self.0 * rhs)
    }
}

impl Sum for Time {
    fn sum<I: Iterator<Item = Time>>(iter: I) -> Time {
        iter.fold(Time::ZERO, Add::add)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ps = self.0;
        if ps == 0 {
            write!(f, "0")
        } else if ps.is_multiple_of(1_000_000_000) {
            write!(f, "{}ms", ps / 1_000_000_000)
        } else if ps.is_multiple_of(1_000_000) {
            write!(f, "{}us", ps / 1_000_000)
        } else if ps.is_multiple_of(1_000) {
            write!(f, "{}ns", ps / 1_000)
        } else {
            write!(f, "{}ps", ps)
        }
    }
}

/// A clock frequency, stored exactly in kilohertz.
///
/// Kilohertz granularity represents every frequency in the paper exactly
/// (345.8 MHz = 345 800 kHz, 874.2 MHz = 874 200 kHz) while keeping the
/// period computation in integer arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Frequency {
    khz: u64,
}

impl Frequency {
    /// Construct from megahertz.
    pub const fn from_mhz(mhz: u64) -> Self {
        Frequency { khz: mhz * 1_000 }
    }

    /// Construct from kilohertz (exact for fractional-MHz figures such as
    /// the 345.8 MHz bus Fmax of Table II).
    pub const fn from_khz(khz: u64) -> Self {
        Frequency { khz }
    }

    /// Frequency in MHz as a float (for reporting).
    pub fn as_mhz_f64(self) -> f64 {
        self.khz as f64 / 1e3
    }

    /// Frequency in kHz.
    pub const fn as_khz(self) -> u64 {
        self.khz
    }

    /// The clock period, rounded to the nearest picosecond.
    ///
    /// For the frequencies used by the simulated platform (integer divisors
    /// of 1 GHz) this is exact.
    pub fn period(self) -> Time {
        // period_ps = 1e12 / hz = 1e9 / khz
        Time((1_000_000_000 + self.khz / 2) / self.khz)
    }

    /// Time taken by `cycles` clock cycles at this frequency.
    pub fn cycles(self, cycles: u64) -> Time {
        Time(cycles * self.period().as_ps())
    }

    /// Number of whole cycles of this clock that fit in `t`, rounding up —
    /// i.e. the cycle count needed to *cover* a span of wall time.
    pub fn cycles_ceil(self, t: Time) -> u64 {
        let p = self.period().as_ps();
        t.as_ps().div_ceil(p)
    }
}

impl fmt::Display for Frequency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.khz.is_multiple_of(1_000) {
            write!(f, "{}MHz", self.khz / 1_000)
        } else {
            write!(f, "{:.1}MHz", self.as_mhz_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_clock_periods_are_exact() {
        assert_eq!(Frequency::from_mhz(400).period(), Time::from_ps(2_500));
        assert_eq!(Frequency::from_mhz(100).period(), Time::from_ps(10_000));
        assert_eq!(Frequency::from_mhz(150).period(), Time::from_ps(6_667));
    }

    #[test]
    fn cycles_to_time_and_back() {
        let f = Frequency::from_mhz(100);
        let t = f.cycles(1234);
        assert_eq!(t, Time::from_ns(12_340));
        assert_eq!(f.cycles_ceil(t), 1234);
        // A fraction of a period still costs a full cycle.
        assert_eq!(f.cycles_ceil(t + Time::from_ps(1)), 1235);
    }

    #[test]
    fn display_picks_the_coarsest_exact_unit() {
        assert_eq!(Time::from_ns(5).to_string(), "5ns");
        assert_eq!(Time::from_us(7).to_string(), "7us");
        assert_eq!(Time::from_ps(1_500).to_string(), "1500ps");
        assert_eq!(Time::ZERO.to_string(), "0");
        assert_eq!(Frequency::from_mhz(400).to_string(), "400MHz");
        assert_eq!(Frequency::from_khz(345_800).to_string(), "345.8MHz");
    }

    #[test]
    fn saturating_sub_clamps_at_zero() {
        assert_eq!(
            Time::from_ns(1).saturating_sub(Time::from_ns(2)),
            Time::ZERO
        );
        assert_eq!(
            Time::from_ns(3).saturating_sub(Time::from_ns(2)),
            Time::from_ns(1)
        );
    }

    #[test]
    fn sum_of_times() {
        let total: Time = (1..=4u64).map(Time::from_ns).sum();
        assert_eq!(total, Time::from_ns(10));
    }

    #[test]
    fn fractional_mhz_reporting() {
        let f = Frequency::from_khz(874_200);
        assert!((f.as_mhz_f64() - 874.2).abs() < 1e-9);
    }
}
