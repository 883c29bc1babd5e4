//! Wall-clock timing for reports: [`Timer`].

use std::time::{Duration, Instant};

/// A simple stopwatch around [`Instant`].
#[derive(Debug, Clone, Copy)]
pub struct Timer {
    start: Instant,
}

impl Timer {
    /// Starts a new timer.
    pub fn start() -> Self {
        Timer {
            start: Instant::now(),
        }
    }

    /// Elapsed time since [`start`](Timer::start).
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Elapsed time in milliseconds as a float (for display and JSON).
    pub fn elapsed_ms(&self) -> f64 {
        self.elapsed().as_secs_f64() * 1e3
    }
}

impl Default for Timer {
    fn default() -> Self {
        Timer::start()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_measures_nonnegative() {
        let t = Timer::start();
        assert!(t.elapsed_ms() >= 0.0);
    }
}
