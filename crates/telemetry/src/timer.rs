//! A drift-free [`Ticker`] for fixed-rate loops.

use std::time::{Duration, Instant};

/// Deadline-based fixed-rate ticker.
///
/// `thread::sleep(interval)` loops drift: each iteration sleeps the full
/// interval *after* however long the work took, so the effective rate
/// sags under load and any reported events/sec over-counts the wall
/// clock. A `Ticker` instead sleeps to an absolute grid
/// `start + i * interval`; work time eats into the sleep, not into the
/// schedule. When a tick's work overruns one or more grid points, the
/// missed points are *skipped* (counted in [`Ticker::missed`]) rather
/// than fired back-to-back — a late control loop should not burst to
/// catch up.
///
/// ```
/// use splice_telemetry::Ticker;
/// use std::time::Duration;
///
/// let mut ticker = Ticker::new(Duration::from_millis(1));
/// let mut ticks = 0u32;
/// while ticks < 3 {
///     ticker.wait();
///     ticks += 1;
/// }
/// assert!(ticker.elapsed() >= Duration::from_millis(3));
/// ```
#[derive(Debug)]
pub struct Ticker {
    start: Instant,
    interval: Duration,
    /// Index of the next grid point to wait for (1-based after `new`).
    next: u64,
    missed: u64,
}

impl Ticker {
    /// Start a ticker whose grid points are `now + i * interval` for
    /// `i = 1, 2, …`. A zero interval degenerates to "never sleep".
    pub fn new(interval: Duration) -> Ticker {
        Ticker {
            start: Instant::now(),
            interval,
            next: 1,
            missed: 0,
        }
    }

    /// Sleep until the next grid point and return its index (1-based).
    ///
    /// If that point is already in the past, skip forward to the first
    /// future grid point, accumulating the skipped count into
    /// [`Ticker::missed`], and return immediately.
    pub fn wait(&mut self) -> u64 {
        if self.interval.is_zero() {
            let i = self.next;
            self.next += 1;
            return i;
        }
        let elapsed = self.start.elapsed();
        // First grid point strictly after `elapsed`.
        let due = elapsed.as_nanos() / self.interval.as_nanos() + 1;
        let due = u64::try_from(due).unwrap_or(u64::MAX);
        if due > self.next {
            self.missed += due - self.next;
            self.next = due;
        }
        let deadline = self
            .interval
            .saturating_mul(u32::try_from(self.next).unwrap_or(u32::MAX));
        if let Some(sleep) = deadline.checked_sub(self.start.elapsed()) {
            std::thread::sleep(sleep);
        }
        let i = self.next;
        self.next += 1;
        i
    }

    /// Grid points skipped so far because the loop body overran them.
    pub fn missed(&self) -> u64 {
        self.missed
    }

    /// Wall time since the ticker was created.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticker_holds_the_grid_under_light_load() {
        let mut ticker = Ticker::new(Duration::from_millis(2));
        let mut last = 0u64;
        for _ in 0..5 {
            let tick = ticker.wait();
            assert!(tick > last, "grid indices advance: {tick} after {last}");
            last = tick;
        }
        // Scheduler preemption may skip grid points, but every observed
        // tick waits for its own deadline, so wall time covers the grid
        // up to the last index — work cannot shorten the schedule. Five
        // observed ticks mean at least 5 grid points (10ms) elapsed.
        assert!(last >= 5);
        assert!(ticker.elapsed() >= Duration::from_millis(10));
        assert_eq!(last, 5 + ticker.missed(), "skips are all accounted for");
    }

    #[test]
    fn ticker_skips_missed_grid_points_instead_of_bursting() {
        let mut ticker = Ticker::new(Duration::from_millis(1));
        ticker.wait();
        // Overrun ~5 grid points, then ask for the next tick: it must
        // land on a future grid index, not replay the missed ones.
        std::thread::sleep(Duration::from_millis(5));
        let tick = ticker.wait();
        assert!(tick >= 5, "tick index jumped past the overrun: {tick}");
        assert!(ticker.missed() >= 3, "missed {}", ticker.missed());
    }

    #[test]
    fn zero_interval_ticker_never_sleeps() {
        let mut ticker = Ticker::new(Duration::ZERO);
        assert_eq!(ticker.wait(), 1);
        assert_eq!(ticker.wait(), 2);
        assert_eq!(ticker.missed(), 0);
    }
}
