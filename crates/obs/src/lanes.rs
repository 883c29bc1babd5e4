//! The one lane runner. Every place the workspace fans work out to
//! threads runs on [`lanes`]: the `reproduce` experiment pool, the fuzz
//! family sweep and the serve load test.
//!
//! * `jobs.clamp(1, n)` lanes (one when `n` is 0), each on a scoped thread
//!   of its own — even a single lane, so no lane records into a scope the
//!   caller entered — claim the indices `0..n` in order.
//! * Given a scope factory, lane `w` runs inside the scope `factory(w)`
//!   makes, and the labelled scopes come back in lane order.
//! * `on_ready(i, &result)` fires once per index, in index order, as soon
//!   as that result and every earlier one exist. It runs outside the
//!   runner's lock, one call at a time, so results stream while later
//!   indices still run.
//! * A panicking `on_ready` neither poisons nor stops the run: later
//!   indices still run and stream, and its first panic is re-raised once
//!   the run drains. A panicking `run` ends its lane, and is re-raised
//!   once the other lanes finish.

use crate::scope::Scope;
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// The default worker count: every available core.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Makes lane `w`'s scope and its label; see [`lanes`].
pub type LaneScope<'a> = &'a (dyn Fn(usize) -> (String, Scope) + Sync);

struct Emission<T> {
    slots: Vec<Option<T>>,
    next: usize,
    // Set while a lane runs `on_ready`: the flag, not the lock,
    // serializes the callback, so a panic in it cannot poison the lock.
    emitting: bool,
    panic: Option<Box<dyn Any + Send>>,
}

/// Runs `run(i)` for every `i` in `0..n` on `jobs.clamp(1, n)` lanes,
/// streaming each result to `on_ready` in index order; see the
/// [module docs](self). Returns the results in index order and each
/// lane's labelled scope in lane order (none without a scope factory).
pub fn lanes<T: Send>(
    jobs: usize,
    n: usize,
    scope: Option<LaneScope<'_>>,
    run: impl Fn(usize) -> T + Sync,
    on_ready: impl Fn(usize, &T) + Sync,
) -> (Vec<T>, Vec<(String, Scope)>) {
    let emission = Mutex::new(Emission {
        slots: (0..n).map(|_| None).collect(),
        next: 0,
        emitting: false,
        panic: None,
    });
    let lock = || emission.lock().unwrap_or_else(PoisonError::into_inner);
    let next_claim = AtomicUsize::new(0);
    let lane = |w: usize| {
        let scope = scope.map(|make| make(w));
        let guard = scope.as_ref().map(|(_, s)| s.enter());
        loop {
            let i = next_claim.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            let result = run(i);
            lock().slots[i] = Some(result);
            // Drain the finished prefix unless another lane is at it; each
            // result leaves its slot for the unlocked callback.
            loop {
                let mut em = lock();
                let idx = em.next;
                if em.emitting {
                    break;
                }
                let Some(ready) = em.slots.get_mut(idx).and_then(Option::take) else {
                    break;
                };
                em.emitting = true;
                drop(em);
                let emitted = catch_unwind(AssertUnwindSafe(|| on_ready(idx, &ready)));
                let mut em = lock();
                em.slots[idx] = Some(ready);
                // A panicked callback counts as emitted, or every later
                // index would stall behind it.
                em.next = idx + 1;
                em.emitting = false;
                if let Err(payload) = emitted {
                    em.panic.get_or_insert(payload);
                }
            }
        }
        drop(guard);
        scope
    };

    let (mut scopes, mut lane_panic) = (Vec::new(), None);
    std::thread::scope(|s| {
        let lane = &lane;
        let lanes: Vec<_> = (0..jobs.clamp(1, n.max(1)))
            .map(|w| s.spawn(move || lane(w)))
            .collect();
        for joined in lanes.into_iter().map(|handle| handle.join()) {
            match joined {
                Ok(scope) => scopes.extend(scope),
                Err(payload) => drop(lane_panic.get_or_insert(payload)),
            }
        }
    });
    let em = emission
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    if let Some(payload) = lane_panic.or(em.panic) {
        resume_unwind(payload);
    }
    let results = em
        .slots
        .into_iter()
        .map(|slot| slot.expect("every index ran"));
    (results.collect(), scopes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }

    /// Results stream strictly in index order even when later indices
    /// finish first, the returned vector matches what was streamed, and
    /// there are `jobs.clamp(1, n)` lanes, each with its labelled scope.
    #[test]
    fn results_stream_in_index_order() {
        for (jobs, n) in [(0, 5), (1, 5), (3, 5), (8, 5), (4, 1), (4, 0)] {
            let lanes_used = jobs.clamp(1, n.max(1));
            let emitted = Mutex::new(Vec::new());
            let (done, finished) = std::sync::mpsc::channel();
            let finished = Mutex::new(finished);
            let label = |w: usize| (format!("lane-{w}"), Scope::new());
            let later_first = |i: usize| {
                // With two lanes or more, index 0 finishes last.
                if i == 0 && lanes_used > 1 {
                    let finished = finished.lock().expect("mutex");
                    (1..n).for_each(|_| finished.recv().expect("a later index finished"));
                }
                crate::record("ran", 1);
                done.send(()).expect("the receiver outlives the run");
                i * 10
            };
            let ready = |i, result: &usize| emitted.lock().expect("mutex").push((i, *result));
            let (results, scopes) = lanes(jobs, n, Some(&label), later_first, ready);
            let expected: Vec<_> = (0..n).map(|i| (i, i * 10)).collect();
            assert_eq!(*emitted.lock().expect("mutex"), expected);
            assert!(results.iter().enumerate().all(|(i, r)| *r == i * 10));
            assert_eq!(results.len(), n);
            // One labelled scope per lane, holding the runs it made.
            let labels: Vec<_> = scopes.iter().map(|(label, _)| label.clone()).collect();
            let want: Vec<_> = (0..lanes_used).map(|w| format!("lane-{w}")).collect();
            assert_eq!(labels, want, "jobs {jobs}, n {n}");
            let ran = scopes
                .iter()
                .map(|(_, s)| s.counters().get("ran").map_or(0, |r| *r));
            assert_eq!(ran.sum::<u64>(), n as u64);
        }
    }

    /// A panicking `on_ready` must not poison the run: every other index
    /// still runs and streams, in order, and the panic reaches the caller
    /// only after the run drains. A panicking `run` reaches it too.
    #[test]
    fn panicking_on_ready_does_not_poison_the_run() {
        let emitted = Mutex::new(Vec::new());
        let ready = |i: usize, _: &usize| {
            emitted.lock().expect("mutex").push(i);
            assert_ne!(i, 1, "callback exploded on purpose");
        };
        let result = catch_unwind(AssertUnwindSafe(|| lanes(4, 4, None, |i| i, ready)));
        let payload = result.expect_err("the callback panic must reach the caller");
        let msg = payload.downcast_ref::<String>().expect("panic message");
        assert!(msg.contains("callback exploded"), "unexpected panic: {msg}");
        assert_eq!(*emitted.lock().expect("mutex"), vec![0, 1, 2, 3]);
        let exploding = |i| assert_ne!(i, 3, "run exploded");
        let result = catch_unwind(|| lanes(2, 6, None, exploding, |_, _| {}));
        let payload = result.expect_err("the run panic must reach the caller");
        let msg = payload.downcast_ref::<String>().expect("panic message");
        assert!(msg.contains("run exploded"), "unexpected panic: {msg}");
    }
}
