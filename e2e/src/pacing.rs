//! The open-loop generator: events are due on a fixed grid and are timed
//! from when they were *due*, not from when they were sent.
//!
//! `splice_telemetry::Ticker` is deliberately not used: it skips the
//! ticks it misses, which is right for a sampler and wrong for a load
//! generator — a skipped event is load the system never saw. Here a late
//! generator sends at once, every event is sent, and how late each went
//! out is reported.

use std::time::{Duration, Instant};

/// Due times `t0 + i * period`.
#[derive(Clone, Copy, Debug)]
pub struct Grid {
    /// When event 0 is due.
    pub t0: Instant,
    /// Spacing between due times.
    pub period: Duration,
}

impl Grid {
    /// A grid of `rate_hz` events per second starting at `t0`.
    pub fn at_rate(t0: Instant, rate_hz: u32) -> Grid {
        Grid {
            t0,
            period: Duration::from_secs_f64(1.0 / rate_hz as f64),
        }
    }

    /// When event `i` is due.
    pub fn due(&self, i: usize) -> Instant {
        self.t0 + self.period.mul_f64(i as f64)
    }
}

/// Send events `0..n` on `grid`: sleep until each is due, then call
/// `send(i)`. When `send` (or the scheduler) made the generator late the
/// next events go out back to back until it has caught up; none is
/// skipped and the grid does not shift. Returns how late each send began
/// (zero when on time).
pub fn pace(grid: &Grid, n: usize, mut send: impl FnMut(usize)) -> Vec<Duration> {
    let mut lateness = Vec::with_capacity(n);
    for i in 0..n {
        let due = grid.due(i);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        lateness.push(Instant::now().saturating_duration_since(due));
        send(i);
    }
    lateness
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A consumer that stalls once. Measured from due time, the events
    /// queued behind the stall carry it; measured from send time they
    /// would look instant. Every event is still sent, in order, and the
    /// generator says how late it ran. (Only lower bounds are asserted:
    /// a slow machine makes everything later, never earlier.)
    #[test]
    fn a_stall_raises_latency_from_due_time_and_nothing_is_skipped() {
        let period = Duration::from_millis(1);
        let stall = Duration::from_millis(15);
        let grid = Grid {
            t0: Instant::now() + Duration::from_millis(2),
            period,
        };
        let n = 40;
        let mut done: Vec<(usize, Instant)> = Vec::new();
        let lateness = pace(&grid, n, |i| {
            if i == 5 {
                std::thread::sleep(stall);
            }
            done.push((i, Instant::now()));
        });

        assert_eq!(lateness.len(), n);
        assert_eq!(
            done.iter().map(|&(i, _)| i).collect::<Vec<_>>(),
            (0..n).collect::<Vec<_>>(),
            "every event sent once, in order"
        );
        // Event 6 was due 1 ms into a 15 ms stall.
        let from_due = |i: usize| done[i].1.duration_since(grid.due(i));
        assert!(
            from_due(6) >= Duration::from_millis(12),
            "{:?}",
            from_due(6)
        );
        assert!(
            lateness[6] >= Duration::from_millis(12),
            "{:?}",
            lateness[6]
        );
        // The backlog drains back to back, so lateness shrinks by about a
        // period per event and the grid itself never moved.
        assert!(lateness[10] < lateness[6]);
        assert_eq!(grid.due(30) - grid.due(29), period);
        // Events before the stall were on the grid (sleep never wakes
        // early).
        assert!(done[3].1 >= grid.due(3));
    }
}
