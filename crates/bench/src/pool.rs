//! The experiment pool behind `reproduce --jobs N`: what running one
//! paper experiment means.
//!
//! The lanes, the in-order streaming to `on_ready` and the panic policy
//! are [`rtise_obs::lanes`]'s, shared with the fuzz sweep and the serve
//! load test. This module keeps the experiment-specific parts: running an
//! experiment with its output echoed live (one lane) or captured quietly
//! (several), certifying its artifacts under `--check`, and the outcome
//! types the harness prints and reports.

use crate::certify;
use crate::{run_observed_traced, RunReport};
use std::panic::{catch_unwind, AssertUnwindSafe};

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

/// Runs `ids` on `jobs` lanes of [`rtise_obs::lanes::lanes`] and returns
/// their outcomes in paper (input) order. The runner's contract holds:
/// `on_ready(index, outcome)` fires once per experiment, in index order,
/// and a panicking callback stops nothing and is re-raised once every
/// experiment has run. Ids must name real experiments; the harness
/// rejects unknown ones up front.
///
/// With one lane (`jobs <= 1` or a single id) experiments echo their
/// output live under a `=== id ===` header, like the historical serial
/// harness, so `on_ready` should not re-print it; with more, output is
/// captured quietly for the caller to replay. With `trace_clock`, each
/// experiment's own scope stores events on that clock
/// ([`ExperimentOutcome::trace`]), for the caller to merge in paper order.
pub fn run_pool(
    ids: &[String],
    jobs: usize,
    check: bool,
    trace_clock: Option<rtise_trace::Clock>,
    on_ready: &(dyn Fn(usize, &ExperimentOutcome) + Sync),
) -> Vec<ExperimentOutcome> {
    let quiet = jobs > 1 && ids.len() > 1;
    let run = |i: usize| run_one(&ids[i], quiet, check, trace_clock);
    rtise_obs::lanes::lanes(jobs, ids.len(), None, run, on_ready).0
}
