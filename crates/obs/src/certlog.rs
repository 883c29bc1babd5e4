//! Bounded event logs for solver optimality certificates.
//!
//! Branch-and-bound searches emit one event per node so an independent
//! checker can replay the tree; on pathological instances that log could
//! dwarf the problem itself. [`BoundedLog`] applies the same
//! drop-with-marker discipline as the `rtise-trace` ring buffers: events
//! past the cap are dropped but *counted*, so a consumer can always tell
//! a complete log (proof material) from a truncated one (no proof).

/// A capped append-only event log with an explicit drop counter.
///
/// Unlike a ring buffer, the *prefix* is kept and the tail is dropped:
/// certificate replay is a preorder walk, so a truncated suffix merely
/// ends the proof early, whereas a missing prefix would invalidate all of
/// it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundedLog<T> {
    events: Vec<T>,
    cap: usize,
    dropped: u64,
}

impl<T> BoundedLog<T> {
    /// An empty log holding at most `cap` events.
    pub fn new(cap: usize) -> Self {
        BoundedLog {
            events: Vec::new(),
            cap,
            dropped: 0,
        }
    }

    /// Appends `event`, or counts it as dropped once the cap is reached.
    pub fn push(&mut self, event: T) {
        if self.events.len() < self.cap {
            self.events.push(event);
        } else {
            self.dropped += 1;
        }
    }

    /// The retained event prefix.
    pub fn events(&self) -> &[T] {
        &self.events
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing was retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events dropped past the cap. Nonzero means the log is truncated
    /// and must not be treated as a complete proof.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Whether every pushed event was retained.
    pub fn is_complete(&self) -> bool {
        self.dropped == 0
    }

    /// Consumes the log into `(events, dropped)`.
    pub fn into_parts(self) -> (Vec<T>, u64) {
        (self.events, self.dropped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_prefix_and_counts_drops() {
        let mut log = BoundedLog::new(3);
        for i in 0..5 {
            log.push(i);
        }
        assert_eq!(log.events(), &[0, 1, 2]);
        assert_eq!(log.dropped(), 2);
        assert!(!log.is_complete());
        let (events, dropped) = log.into_parts();
        assert_eq!((events.len(), dropped), (3, 2));
    }

    #[test]
    fn complete_when_under_cap() {
        let mut log = BoundedLog::new(8);
        log.push("a");
        assert!(log.is_complete());
        assert_eq!(log.len(), 1);
        assert!(!log.is_empty());
    }
}
