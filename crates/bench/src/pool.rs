//! The worker pool behind `reproduce --jobs N`.
//!
//! Experiments are claimed off a shared index by `jobs` scoped threads
//! and run with quiet output capture; finished outcomes land in
//! paper-ordered slots and are *streamed* to the caller's `on_ready`
//! callback as soon as every earlier experiment has also finished — the
//! harness prints clean, ordered reports while later experiments are
//! still running, and `--json`/`--check` consume results incrementally.
//!
//! With `jobs <= 1` the pool degenerates to the historical serial
//! harness: experiments echo their output live and `on_ready` fires
//! immediately after each one.

use crate::certify;
use crate::{run_observed_traced, RunReport};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Result of certifying one experiment's artifacts.
#[derive(Debug, Clone)]
pub enum CertOutcome {
    /// The certifier found nothing. `replays` counts the branch-and-bound
    /// optimality certificates replayed along the way, keyed by the
    /// `check.certb.*` counter names — a clean outcome with a non-zero
    /// count means the experiment's searches are *proven optimal*, not
    /// just structurally honest.
    Clean {
        /// `check.certb.*` counter deltas from the certification pass.
        replays: std::collections::BTreeMap<String, u64>,
    },
    /// Diagnostics were raised; the rendered report follows.
    Dirty(String),
    /// No certifier exists for this experiment id.
    Unavailable(String),
    /// The certifier itself panicked.
    Panicked(String),
}

/// One experiment's full outcome: the run report, plus the certification
/// verdict when `--check` asked for one (never present for failed runs —
/// there is nothing sound to certify after a panic).
#[derive(Debug, Clone)]
pub struct ExperimentOutcome {
    /// Captured run (output, wall time, scoped counter deltas).
    pub report: RunReport,
    /// Certification verdict, when requested and the run succeeded.
    pub certification: Option<CertOutcome>,
    /// The experiment's scope, when tracing was requested: its events are
    /// a root span named after the experiment wrapping every solver span
    /// and search-tree event it recorded.
    pub trace: Option<rtise_obs::Scope>,
}

impl ExperimentOutcome {
    /// Whether the run completed and (if certified) certified clean.
    pub fn is_ok(&self) -> bool {
        self.report.ok
            && !matches!(
                self.certification,
                Some(
                    CertOutcome::Dirty(_) | CertOutcome::Unavailable(_) | CertOutcome::Panicked(_)
                )
            )
    }
}

/// The default worker count: every available core.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

fn run_one(
    id: &str,
    quiet: bool,
    check: bool,
    trace_clock: Option<rtise_trace::Clock>,
) -> ExperimentOutcome {
    if !quiet {
        // Historical serial behavior: `=== id ===` header, live echo.
        println!("\n=== {id} ===");
    }
    let (mut report, trace) =
        run_observed_traced(id, quiet, trace_clock).expect("ids validated by caller");
    let certification = (check && report.ok).then(|| {
        let (outcome, counters) = certify_outcome(id);
        // Certification work lands in the experiment's counter map under
        // a `check.` prefix, so `--json` reports carry the replay counts
        // (`check.certb.ilp`, …) without disturbing the run's own keys.
        for (key, delta) in counters {
            *report.counters.entry(format!("check.{key}")).or_insert(0) += delta;
        }
        outcome
    });
    ExperimentOutcome {
        report,
        certification,
        trace,
    }
}

/// Certifies one experiment inside its own counter scope, returning the
/// verdict plus every counter the certification pass incremented.
fn certify_outcome(id: &str) -> (CertOutcome, std::collections::BTreeMap<String, u64>) {
    let scope = rtise_obs::Scope::new();
    let result = {
        let _guard = scope.enter();
        catch_unwind(AssertUnwindSafe(|| certify::certify(id)))
    };
    let counters = scope.counters();
    let outcome = match result {
        Ok(Ok(d)) if d.is_clean() => CertOutcome::Clean {
            replays: counters
                .iter()
                .filter(|(k, _)| k.starts_with("certb."))
                .map(|(k, v)| (format!("check.{k}"), *v))
                .collect(),
        },
        Ok(Ok(d)) => CertOutcome::Dirty(d.render()),
        Ok(Err(id)) => CertOutcome::Unavailable(id),
        Err(_) => CertOutcome::Panicked("certifier panicked".to_string()),
    };
    (outcome, counters)
}

/// Runs `ids` on `jobs` workers, streaming outcomes to `on_ready` in
/// paper (input) order, and returns all outcomes in the same order.
///
/// `on_ready(index, outcome)` fires exactly once per experiment, in
/// index order, as soon as the outcome *and all earlier ones* exist. It
/// runs outside the pool's internal lock (one callback at a time), so a
/// panicking callback cannot poison the pool: the remaining experiments
/// still run, later outcomes still stream, and the first panic payload is
/// re-raised to the caller once the pool drains. Every id must name a
/// real experiment — the harness validates ids up front (unknown ids are
/// a usage error with a suggestion, not a pool concern).
///
/// When `trace_clock` is `Some`, every experiment's own scope stores
/// events on that clock (surfaced as
/// [`ExperimentOutcome::trace`]); per-experiment scopes keep concurrent
/// workers' events apart, and the caller merges them in paper order so
/// the exported document is independent of `jobs`.
pub fn run_pool(
    ids: &[String],
    jobs: usize,
    check: bool,
    trace_clock: Option<rtise_trace::Clock>,
    on_ready: &(dyn Fn(usize, &ExperimentOutcome) + Sync),
) -> Vec<ExperimentOutcome> {
    if jobs <= 1 || ids.len() <= 1 {
        // Serial path: headers and output echo live, exactly like the
        // historical harness; `on_ready` callers should not re-print the
        // output (`RunReport::output` still carries it for reports).
        return ids
            .iter()
            .enumerate()
            .map(|(i, id)| {
                let outcome = run_one(id, false, check, trace_clock);
                on_ready(i, &outcome);
                outcome
            })
            .collect();
    }

    struct Emission {
        slots: Vec<Option<ExperimentOutcome>>,
        next_emit: usize,
        // Exactly one worker drains the ready prefix at a time; the flag
        // (not the mutex) serializes emission so `on_ready` itself runs
        // *outside* the lock — a panicking callback must not poison it
        // and take the other workers down with a lock-recovery abort.
        emitting: bool,
    }
    let emission = Mutex::new(Emission {
        slots: (0..ids.len()).map(|_| None).collect(),
        next_emit: 0,
        emitting: false,
    });
    let next_claim = AtomicUsize::new(0);
    // First `on_ready` panic, re-raised on the caller once every
    // experiment has run and every outcome has been offered for emission.
    let callback_panic: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
    let lock_emission = || {
        emission
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    };

    std::thread::scope(|s| {
        for _ in 0..jobs.min(ids.len()) {
            s.spawn(|| loop {
                let i = next_claim.fetch_add(1, Ordering::Relaxed);
                let Some(id) = ids.get(i) else { break };
                let outcome = run_one(id, true, check, trace_clock);
                lock_emission().slots[i] = Some(outcome);
                // Stream the now-contiguous finished prefix, in order,
                // taking each outcome out of its slot for the duration of
                // the (unlocked) callback and restoring it afterwards.
                loop {
                    let mut em = lock_emission();
                    if em.emitting {
                        break; // the current emitter will pick it up
                    }
                    let idx = em.next_emit;
                    let Some(ready) = em.slots.get_mut(idx).and_then(Option::take) else {
                        break;
                    };
                    em.emitting = true;
                    drop(em);
                    let emitted = catch_unwind(AssertUnwindSafe(|| on_ready(idx, &ready)));
                    let mut em = lock_emission();
                    em.slots[idx] = Some(ready);
                    // A panicking callback still counts as emitted —
                    // retrying it would panic forever and stall every
                    // later emission behind it.
                    em.next_emit = idx + 1;
                    em.emitting = false;
                    drop(em);
                    if let Err(payload) = emitted {
                        let mut first = callback_panic
                            .lock()
                            .unwrap_or_else(std::sync::PoisonError::into_inner);
                        first.get_or_insert(payload);
                    }
                }
            });
        }
    });

    if let Some(payload) = callback_panic
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
    {
        std::panic::resume_unwind(payload);
    }
    emission
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .slots
        .into_iter()
        .map(|slot| slot.expect("worker pool completed every claimed slot"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }

    /// Outcomes stream strictly in input order regardless of completion
    /// order, and the returned vector matches what was streamed.
    #[test]
    fn pool_streams_in_paper_order() {
        let ids: Vec<String> = ["fig3_2", "fig3_2", "fig3_2", "fig3_2"]
            .iter()
            .map(ToString::to_string)
            .collect();
        let seen = AtomicUsize::new(0);
        let outcomes = run_pool(&ids, 4, false, None, &|i, outcome| {
            assert_eq!(
                i,
                seen.fetch_add(1, Ordering::Relaxed),
                "out-of-order emission"
            );
            assert!(outcome.report.ok);
            assert!(!outcome.report.output.is_empty());
        });
        assert_eq!(seen.load(Ordering::Relaxed), ids.len());
        assert_eq!(outcomes.len(), ids.len());
        assert!(outcomes.iter().all(ExperimentOutcome::is_ok));
    }

    /// A panicking `on_ready` must not poison the pool: every other
    /// experiment still runs and streams (in order), and the panic is
    /// re-raised to the caller only after the pool drains.
    #[test]
    fn panicking_callback_does_not_poison_the_pool() {
        let ids: Vec<String> = ["fig3_2", "fig3_2", "fig3_2", "fig3_2"]
            .iter()
            .map(ToString::to_string)
            .collect();
        let emitted = Mutex::new(Vec::new());
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_pool(&ids, 4, false, None, &|i, _| {
                emitted.lock().expect("test mutex").push(i);
                if i == 1 {
                    panic!("callback exploded on purpose");
                }
            })
        }));
        let payload = result.expect_err("the callback panic must reach the caller");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .map(ToString::to_string)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .expect("panic payload is a string");
        assert!(msg.contains("callback exploded"), "unexpected panic: {msg}");
        // The panic at index 1 must not have cost indices 2 and 3 their
        // emission, nor broken the strict streaming order.
        assert_eq!(*emitted.lock().expect("test mutex"), vec![0, 1, 2, 3]);
    }
}
