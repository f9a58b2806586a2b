//! Wall-clock time for the live backend.

use std::time::{Duration, Instant};

use gcs_kernel::Time;

/// The live backend's clock: [`Time`] is real nanoseconds elapsed
/// since the clock's epoch (the moment the runtime started).
///
/// This is the whole virtual-time ↔ wall-clock mapping: an injection "at
/// `t`" happens when the wall clock reaches `epoch + t`, a timer armed for
/// `after` fires a real `after` later, and `run_until(t)` simply sleeps the
/// caller to the deadline while the member threads keep working.
#[derive(Clone, Copy, Debug)]
pub struct WallClock {
    epoch: Instant,
}

impl WallClock {
    /// A clock whose epoch is now.
    pub fn new() -> Self {
        WallClock {
            epoch: Instant::now(),
        }
    }

    /// Nanoseconds elapsed since the epoch, as a [`Time`].
    pub fn now(&self) -> Time {
        Time::from_nanos(self.epoch.elapsed().as_nanos() as u64)
    }

    /// Sleeps the calling thread until the clock reaches `t` (returns
    /// immediately if it already has).
    pub fn sleep_until(&self, t: Time) {
        let now = self.now();
        if t > now {
            std::thread::sleep(Duration::from_nanos(t.since(now).as_nanos()));
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotonic_and_sleeps() {
        let c = WallClock::new();
        let a = c.now();
        c.sleep_until(a.saturating_add(gcs_kernel::TimeDelta::from_millis(5)));
        let b = c.now();
        assert!(
            b.since(a).as_millis() >= 4,
            "slept ≈5ms: {:?} -> {:?}",
            a,
            b
        );
        // Sleeping to the past returns immediately.
        c.sleep_until(Time::ZERO);
        assert!(c.now() >= b);
    }
}
