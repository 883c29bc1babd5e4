//! Deterministic work distribution for parallel solver cores.
//!
//! The branch-and-bound searches decompose an instance into a preorder
//! frontier of independent subtrees and farm those out to a small worker
//! pool. Two requirements shape the scheduler:
//!
//! * **Byte-identical output at any thread count.** Which subtrees exist,
//!   what each one computes, and how results merge must not depend on
//!   timing. Workers therefore claim subtree *indices in order* from a
//!   shared counter (the work deque), and the incumbent a subtree starts
//!   from is the fold of a **fixed window** of earlier results — never
//!   "whatever happens to be best right now".
//! * **Incumbent sharing.** Subtree `i` waits until every subtree
//!   `j < i - window` has published its result, then seeds its search
//!   from that completed prefix. Published slots are lock-free
//!   [`std::sync::OnceLock`] cells, so the wait is bounded and reads are
//!   cheap; the window (not a live atomic best) is what keeps the search
//!   tree — and with it every counter, histogram, trace event, and
//!   certificate — independent of the thread count.
//!
//! Deadlock freedom: claims are handed out in increasing order, so when a
//! worker waits on the prefix of index `i`, every incomplete smaller
//! index is owned by a worker that only waits on indices smaller still;
//! the chain bottoms out at indices below the window, which wait on
//! nothing.
//!
//! The process-wide [`set_threads`]/[`threads`] knob (0 = serial paths
//! untouched) is how binaries opt whole runs into the decomposed
//! searches; library callers that need explicit control set
//! `SearchOpts::threads` on a solver's configurable call instead and
//! leave the global alone (the driver and its options live in
//! `rtise_trace::bnb`).

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};

/// Process-wide parallel solver thread count; 0 disables the decomposed
/// code paths entirely.
static PAR_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Sets the process-wide solver thread count. `0` (the default) keeps
/// every solver on its historical serial code path; any `n >= 1` routes
/// eligible solves through the decomposed parallel search with `n`
/// workers. Output is byte-identical for every `n >= 1`.
pub fn set_threads(n: usize) {
    PAR_THREADS.store(n, Ordering::Relaxed);
}

/// The process-wide solver thread count; see [`set_threads`].
#[must_use]
pub fn threads() -> usize {
    PAR_THREADS.load(Ordering::Relaxed)
}

/// Process-wide pin for the thread count the solvers *size their
/// decomposition frontier for*; 0 sizes it from the actual worker count.
static FRONTIER_FOR: AtomicUsize = AtomicUsize::new(0);

/// Pins the thread count the decomposed searches size their frontier
/// depth for, independently of how many workers actually run. `0` (the
/// default) sizes the frontier from the solve's own worker count.
///
/// The search tree — and with it every counter, trace event, and
/// certificate — is a function of the frontier *depth*, not the worker
/// count, so two runs at different `--par-threads` values are
/// byte-identical exactly when they pin the same sizing. CI uses this to
/// prove identity at the depths chosen for 1, 2, and 4 workers.
pub fn set_frontier_for(n: usize) {
    FRONTIER_FOR.store(n, Ordering::Relaxed);
}

/// The pinned frontier-sizing thread count; see [`set_frontier_for`].
#[must_use]
pub fn frontier_for() -> usize {
    FRONTIER_FOR.load(Ordering::Relaxed)
}

/// Maps a worker count to a decomposition frontier depth: the shallowest
/// depth whose subtree capacity (`2^depth`, for a binary branching
/// search) covers `threads * WINDOW` subtrees — enough that every worker
/// stays busy while the completed-prefix window lags — clamped to
/// `[3, max_depth]`. Fewer workers get a shallower frontier, so
/// `--par-threads 2` no longer pays the 64-subtree decomposition built
/// for wide pools.
#[must_use]
pub fn frontier_depth(max_depth: usize, threads: usize) -> usize {
    let want = threads.max(1).saturating_mul(WINDOW);
    let mut d = 0usize;
    while d < 63 && (1usize << d) < want {
        d += 1;
    }
    d.clamp(3.min(max_depth), max_depth)
}

/// The frontier depth a solve engaging `threads` workers should use:
/// [`frontier_depth`] of the pinned sizing count when one is set
/// ([`set_frontier_for`]), of `threads` otherwise.
#[must_use]
pub fn sized_frontier_depth(max_depth: usize, threads: usize) -> usize {
    let pinned = frontier_for();
    frontier_depth(max_depth, if pinned > 0 { pinned } else { threads })
}

/// The completed-result prefix visible to one work item: results of
/// items `0..len`, all guaranteed published.
pub struct Completed<'a, R> {
    slots: &'a [OnceLock<R>],
    len: usize,
}

impl<'a, R> Completed<'a, R> {
    /// Number of visible results.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no results are visible yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The visible results, in item order.
    pub fn iter(&self) -> impl Iterator<Item = &'a R> + '_ {
        self.slots[..self.len]
            .iter()
            .map(|s| s.get().expect("prefix published before visibility"))
    }
}

/// How far behind the newest claimed item the visible result prefix may
/// lag: item `i` sees results `0..i.saturating_sub(WINDOW)`. Small
/// enough that good incumbents propagate quickly, large enough that up
/// to `WINDOW` workers run without waiting on each other.
pub const WINDOW: usize = 8;

/// Runs `f` over every item, on `threads` workers, each invocation
/// seeing the deterministic completed prefix `0..i - WINDOW` of earlier
/// results. Returns all results in item order. The result — including
/// which prefix each invocation observed — is byte-identical for every
/// `threads >= 1`; with `threads <= 1` no thread is spawned.
///
/// If `f` panics, every worker finishes or parks safely and the first
/// panic is resumed on the caller.
pub fn run_ordered<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send + Sync,
    F: Fn(usize, &T, Completed<'_, R>) -> R + Sync,
{
    let n = items.len();
    let slots: Vec<OnceLock<R>> = (0..n).map(|_| OnceLock::new()).collect();
    let threads = threads.clamp(1, n.max(1));
    if threads <= 1 {
        for (i, item) in items.iter().enumerate() {
            let visible = i.saturating_sub(WINDOW);
            let r = f(
                i,
                item,
                Completed {
                    slots: &slots,
                    len: visible,
                },
            );
            assert!(slots[i].set(r).is_ok(), "slot {i} published twice");
        }
    } else {
        let next = AtomicUsize::new(0);
        // Length of the contiguous published prefix, advanced under the
        // lock so waiters observe it monotonically.
        let published = Mutex::new(0usize);
        let cond = Condvar::new();
        let poisoned = AtomicBool::new(false);
        let panic_slot: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
        let worker = || loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n || poisoned.load(Ordering::Relaxed) {
                break;
            }
            let visible = i.saturating_sub(WINDOW);
            if visible > 0 {
                let mut done = published.lock().expect("publish lock");
                while *done < visible && !poisoned.load(Ordering::Relaxed) {
                    done = cond.wait(done).expect("publish lock");
                }
                if poisoned.load(Ordering::Relaxed) {
                    break;
                }
            }
            match catch_unwind(AssertUnwindSafe(|| {
                f(
                    i,
                    &items[i],
                    Completed {
                        slots: &slots,
                        len: visible,
                    },
                )
            })) {
                Ok(r) => {
                    assert!(slots[i].set(r).is_ok(), "slot {i} published twice");
                    let mut done = published.lock().expect("publish lock");
                    while *done < n && slots[*done].get().is_some() {
                        *done += 1;
                    }
                    cond.notify_all();
                }
                Err(payload) => {
                    poisoned.store(true, Ordering::Relaxed);
                    *panic_slot.lock().expect("panic slot") = Some(payload);
                    cond.notify_all();
                    break;
                }
            }
        };
        std::thread::scope(|s| {
            for _ in 1..threads {
                s.spawn(worker);
            }
            worker();
        });
        let payload = panic_slot.lock().expect("panic slot").take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("every slot published"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knob_round_trips_and_defaults_off() {
        // Other tests never touch the global knob, so observing the
        // default here is safe; restore it immediately regardless.
        assert_eq!(threads(), 0);
        set_threads(4);
        assert_eq!(threads(), 4);
        set_threads(0);
    }

    /// The adaptive frontier is monotone in the worker count, bounded by
    /// the solver's maximum, and genuinely shallower for small pools —
    /// the whole point of sizing it.
    #[test]
    fn frontier_depth_scales_with_the_worker_count() {
        assert_eq!(frontier_depth(6, 1), 3, "1 worker: 8 subtrees");
        assert_eq!(frontier_depth(6, 2), 4, "2 workers: 16 subtrees");
        assert_eq!(frontier_depth(6, 4), 5, "4 workers: 32 subtrees");
        assert_eq!(frontier_depth(6, 8), 6, "8 workers hit the cap");
        assert_eq!(frontier_depth(6, 1000), 6, "never past the cap");
        // The multi-way RMS search caps at 4; small pools still win.
        assert_eq!(frontier_depth(4, 1), 3);
        assert_eq!(frontier_depth(4, 4), 4);
        let mut last = 0;
        for t in 1..64 {
            let d = frontier_depth(6, t);
            assert!(d >= last, "depth must be monotone in threads");
            last = d;
        }
        assert_eq!(frontier_depth(2, 1), 2, "clamp floor respects max_depth");
    }

    /// The visible prefix each item observes is a pure function of its
    /// index — identical at any worker count.
    #[test]
    fn visible_prefix_is_thread_count_independent() {
        let items: Vec<u64> = (0..50).collect();
        let run = |threads| {
            run_ordered(&items, threads, |i, &item, prefix| {
                let seen: u64 = prefix.iter().sum();
                assert_eq!(prefix.len(), i.saturating_sub(WINDOW));
                item + seen
            })
        };
        let serial = run(1);
        for threads in [2, 4, 7] {
            assert_eq!(run(threads), serial, "threads = {threads}");
        }
    }

    #[test]
    fn results_come_back_in_item_order() {
        let items: Vec<usize> = (0..200).collect();
        let got = run_ordered(&items, 8, |i, &item, _| {
            // Uneven work so completion order scrambles.
            std::hint::black_box((0..(item % 7) * 100).sum::<usize>());
            i * 3
        });
        assert_eq!(got, (0..200).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single_item_runs() {
        let empty: Vec<u8> = Vec::new();
        assert!(run_ordered(&empty, 4, |_, _, _: Completed<'_, u8>| 0u8).is_empty());
        assert_eq!(run_ordered(&[7u8], 4, |_, &x, _| x + 1), vec![8]);
    }

    #[test]
    fn worker_panic_propagates_without_deadlock() {
        let items: Vec<usize> = (0..40).collect();
        let hit = std::panic::catch_unwind(|| {
            run_ordered(&items, 4, |i, _, _: Completed<'_, usize>| {
                assert!(i != 13, "boom");
                i
            })
        });
        assert!(hit.is_err());
    }
}
