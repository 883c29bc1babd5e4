//! Bounded event logs for solver optimality certificates.
//!
//! Branch-and-bound searches emit one event per node so an independent
//! checker can replay the tree; on pathological instances that log could
//! dwarf the problem itself. [`BoundedLog`] applies the same
//! drop-with-marker discipline as the `rtise-trace` ring buffers: events
//! past the cap are dropped but *counted*, so a consumer can always tell
//! a complete log (proof material) from a truncated one (no proof).
//! A finished log becomes a [`Certificate`], the one certificate type of
//! every branch-and-bound solver.

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

    /// Consumes the log into the certificate of a search that branched
    /// in `order`.
    pub fn into_certificate(self, order: Vec<usize>) -> Certificate<T> {
        Certificate {
            order,
            events: self.events,
            dropped: self.dropped,
        }
    }
}

/// A replayable optimality certificate of one certified branch-and-bound
/// search: the order the search branched in plus one event per node, in
/// preorder.
///
/// Each solver names its own instance (`IlpCertificate`,
/// `IseCertificate`, `RmsCertificate`) and documents what `order`
/// permutes and what its events `E` record; `rtise-check`'s `bnb`
/// analyzer replays all of them in one frame. A truncated log
/// (`dropped > 0`) proves nothing beyond its prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certificate<E> {
    /// `order[d]` is the original index of the item branched at depth
    /// `d` — a permutation of the problem's items.
    pub order: Vec<usize>,
    /// One event per recorded node, in preorder.
    pub events: Vec<E>,
    /// Events dropped past the recording cap (0 = complete log).
    pub dropped: u64,
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
        let cert = log.into_certificate(vec![1, 0]);
        assert_eq!(cert.events, [0, 1, 2]);
        assert_eq!(cert.dropped, 2);
        assert_eq!(cert.order, [1, 0]);
    }

    #[test]
    fn complete_when_under_cap() {
        let mut log = BoundedLog::new(8);
        log.push("a");
        let cert = log.into_certificate(Vec::new());
        assert_eq!((cert.events, cert.dropped), (vec!["a"], 0));
    }
}
