//! Simulated time: what [`Topology::cost`](crate::Topology::cost) prices
//! a transfer at. Nothing waits for it and nothing decides by it; it is
//! kept only for `benchmark/`, and goes with ROADMAP item 12.

use std::ops::Add;

/// A span of simulated time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// From nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// From microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_accessors() {
        assert_eq!(SimTime::from_micros(3).as_nanos(), 3_000);
        assert_eq!(SimTime::from_nanos(4).as_nanos(), 4);
        assert_eq!(SimTime::from_micros(1500).as_millis_f64(), 1.5);
        assert_eq!(
            SimTime::from_micros(10) + SimTime::from_nanos(4),
            SimTime::from_nanos(10_004)
        );
    }

    #[test]
    fn addition_saturates() {
        let huge = SimTime::from_nanos(u64::MAX);
        assert_eq!(huge + SimTime::from_nanos(1), huge);
    }
}
