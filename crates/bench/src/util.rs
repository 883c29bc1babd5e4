//! Shared plumbing: the memo over the artifact store for the expensive
//! front-end steps every experiment reuses — configuration curves and the
//! Ch. 6 JPEG base problem.
//!
//! Both families go through one function, [`memoized`]. In-process, each
//! key owns an `Arc<OnceLock>` slot in its family's map, so concurrent
//! requesters of one artifact block on one computation instead of
//! serializing *all* generation behind a map-wide lock. On disk (opt-in
//! via [`set_cache_dir`]), finished artifacts persist across harness runs
//! in the sharded [`store`](mod@crate::store), keyed by the family's key
//! function ([`curvecache::options_key`], [`problemcache::options_key`]).
//!
//! Counter attribution is what keeps `reproduce --json` deterministic
//! across worker counts and cache states: the generation counters of an
//! artifact are captured in an isolated [`Scope`](rtise_obs::Scope)
//! (so the first requester is not specially charged) and *replayed* into
//! the scopes of every consumer via [`rtise_obs::attribute`] —
//! each experiment sees the same deltas whether it generated the
//! artifact, raced another worker for it, or read it back from disk.

use crate::curvecache;
use crate::problemcache::{self, ProblemKey};
use crate::store::{self, Artifact, Entry};
use rtise::ise::configs::ConfigCurve;
use rtise::reconfig::ReconfigProblem;
use rtise::select::task::{periods_for_utilization, TaskSpec};
use rtise::workbench::{reconfig_problem, task_curve, CurveOptions};
use rtise_obs::{Clock, Scope};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// One artifact family's memo: per store key, a slot holding the artifact
/// plus the counters and histograms its generation recorded.
type Memo<A> = Mutex<BTreeMap<String, Arc<OnceLock<Entry<A>>>>>;

static CURVES: Memo<ConfigCurve> = Mutex::new(BTreeMap::new());
static JPEG_PROBLEMS: Memo<ReconfigProblem> = Mutex::new(BTreeMap::new());

/// When set, each fresh curve/problem generation runs in a scope with
/// this clock, collected in [`GEN_TRACES`] keyed by artifact
/// (`curve/<kernel>`, `problem/jpeg`).
static GEN_TRACE_CLOCK: Mutex<Option<Clock>> = Mutex::new(None);
static GEN_TRACES: Mutex<Vec<(String, Scope)>> = Mutex::new(Vec::new());

static CACHE_DIR: Mutex<Option<PathBuf>> = Mutex::new(None);
static CACHE_HITS: AtomicU64 = AtomicU64::new(0);
static CACHE_MISSES: AtomicU64 = AtomicU64::new(0);
static CACHE_STORES: AtomicU64 = AtomicU64::new(0);
static OPTS_OVERRIDE: Mutex<Option<CurveOptions>> = Mutex::new(None);

/// Points the on-disk curve cache at `dir` (`None` disables it).
pub fn set_cache_dir(dir: Option<PathBuf>) {
    *CACHE_DIR.lock().expect("cache dir poisoned") = dir;
}

fn cache_dir() -> Option<PathBuf> {
    CACHE_DIR.lock().expect("cache dir poisoned").clone()
}

/// Disk-cache traffic since process start (or [`reset_cache_stats`]):
/// `(hits, misses, stores)`. In-process memo hits are not counted.
pub fn cache_stats() -> (u64, u64, u64) {
    (
        CACHE_HITS.load(Ordering::Relaxed),
        CACHE_MISSES.load(Ordering::Relaxed),
        CACHE_STORES.load(Ordering::Relaxed),
    )
}

/// Zeroes the [`cache_stats`] counters.
pub fn reset_cache_stats() {
    CACHE_HITS.store(0, Ordering::Relaxed);
    CACHE_MISSES.store(0, Ordering::Relaxed);
    CACHE_STORES.store(0, Ordering::Relaxed);
}

/// Overrides the curve options used by [`cached_curve`]. Test hook: the
/// cache-determinism tests swap in [`CurveOptions::fast`] so curve
/// generation stays debug-build cheap. Memo entries are keyed by options,
/// so overridden and default curves never alias.
pub fn set_curve_options_override(opts: Option<CurveOptions>) {
    *OPTS_OVERRIDE.lock().expect("opts override poisoned") = opts;
}

/// Drops every in-process memo — curves and the JPEG base problem; the
/// disk cache is untouched. Lets tests exercise cold-vs-warm disk
/// behavior within one process.
pub fn clear_curve_memo() {
    CURVES.lock().expect("curve memo poisoned").clear();
    JPEG_PROBLEMS.lock().expect("jpeg memo poisoned").clear();
}

/// Arms (or, with `None`, disarms) tracing of memoized curve/problem
/// generation. Generation always runs detached from the requesting
/// experiment's scope (per-experiment
/// traces must not depend on who wins the memo race); with a clock set
/// here each fresh generation's own scope also stores events,
/// retrievable via [`take_generation_traces`] as one extra track per
/// artifact. Clears any previously collected scopes.
pub fn set_generation_trace_clock(clock: Option<Clock>) {
    *GEN_TRACE_CLOCK.lock().expect("gen trace clock poisoned") = clock;
    GEN_TRACES.lock().expect("gen traces poisoned").clear();
}

/// Drains the generation scopes collected since
/// [`set_generation_trace_clock`], sorted by track name so the export
/// order never depends on which worker happened to generate what.
pub fn take_generation_traces() -> Vec<(String, Scope)> {
    let mut scopes = std::mem::take(&mut *GEN_TRACES.lock().expect("gen traces poisoned"));
    scopes.sort_by(|a, b| a.0.cmp(&b.0));
    scopes
}

/// Runs one fresh generation in a scope of its own — clocked while
/// [`set_generation_trace_clock`] is armed, with a span named `track` —
/// and files a clocked scope under `track`. Returns the artifact with
/// the counters and histograms it recorded.
fn generate<T>(track: String, f: impl FnOnce() -> T) -> Entry<T> {
    let scope = GEN_TRACE_CLOCK
        .lock()
        .expect("gen trace clock poisoned")
        .map_or_else(Scope::new, Scope::with_clock);
    let artifact = {
        let _guard = scope.enter();
        let _span = scope.clock().map(|_| rtise_trace::span(track.clone()));
        f()
    };
    let (counters, hists) = (scope.counters(), scope.hists());
    if scope.clock().is_some() {
        GEN_TRACES
            .lock()
            .expect("gen traces poisoned")
            .push((track, scope));
    }
    (artifact, counters, hists)
}

/// The artifact stored under `(tag, key)`, produced at most once per
/// process: the first requester of a key claims its slot in `memo`,
/// reads the store entry (when [`set_cache_dir`] is active) or runs
/// `make` on the generation track `<family>/<tag>`, and writes a fresh
/// artifact back. Every requester — first, racing or later — is charged
/// the generation counters and histograms via
/// [`attribute`](rtise_obs::attribute), identically on memo hits, disk
/// hits, and fresh generations.
fn memoized<A: Artifact + Clone>(
    memo: &Memo<A>,
    tag: &str,
    key: String,
    make: impl FnOnce() -> A,
) -> A {
    let slot = Arc::clone(
        memo.lock()
            .expect("artifact memo poisoned")
            .entry(key.clone())
            .or_default(),
    );
    // Produce outside the map lock: only requesters of *this* key wait.
    let (artifact, counters, hists) = slot.get_or_init(|| {
        // Detach from the requester's scopes: generation work is
        // attributed uniformly to every consumer, not specially to
        // whoever got here first, through counters and histograms.
        // Events detach too — generation spans would pin the work to the
        // racing winner and make per-experiment traces depend on
        // scheduling.
        let _iso = rtise_obs::isolate();
        let dir = cache_dir();
        if let Some(dir) = &dir {
            if let Some(entry) = store::load(dir, tag, &key) {
                CACHE_HITS.fetch_add(1, Ordering::Relaxed);
                return entry;
            }
            CACHE_MISSES.fetch_add(1, Ordering::Relaxed);
        }
        let (artifact, counters, hists) = generate(format!("{}/{tag}", A::FAMILY), make);
        if let Some(dir) = &dir {
            match store::store(dir, tag, &key, &artifact, &counters, &hists) {
                Ok(()) => {
                    CACHE_STORES.fetch_add(1, Ordering::Relaxed);
                }
                Err(e) => eprintln!(
                    "warning: could not write {} cache entry for {tag}: {e}",
                    A::FAMILY
                ),
            }
        }
        (artifact, counters, hists)
    });
    rtise_obs::attribute(counters);
    rtise_obs::attribute_hists(hists);
    artifact.clone()
}

fn curve_options() -> CurveOptions {
    OPTS_OVERRIDE
        .lock()
        .expect("opts override poisoned")
        .unwrap_or_else(CurveOptions::thorough)
}

/// Returns the configuration curve of a benchmark kernel together with
/// the solver counters its generation recorded, computing (or loading) it
/// at most once per process.
///
/// The caller's [`Scope`]s are charged the generation counters via
/// [`attribute`](rtise_obs::attribute) — identically on memo
/// hits, disk hits, and fresh computes.
///
/// # Panics
///
/// Panics if the kernel is unknown or fails validation — experiment inputs
/// are fixed, so this indicates a build problem, not a runtime condition.
pub fn cached_curve(name: &str) -> ConfigCurve {
    cached_curve_with(name, &curve_options())
}

/// [`cached_curve`] with explicit options instead of the process-global
/// override — `rtise-serve` resolves per-request option levels through
/// this, so concurrent requests at different levels never alias.
///
/// # Panics
///
/// Panics if the kernel is unknown or fails validation, as for
/// [`cached_curve`]; callers with untrusted kernel names validate first.
pub fn cached_curve_with(name: &str, opts: &CurveOptions) -> ConfigCurve {
    memoized(&CURVES, name, curvecache::options_key(name, opts), || {
        task_curve(name, *opts).unwrap_or_else(|e| panic!("curve for {name}: {e}"))
    })
}

/// The JPEG case-study base problem (Ch. 6 and the architecture-taxonomy
/// extension), memoized process-wide per option set — and, when
/// [`set_cache_dir`] is active, persisted across runs in the
/// [`problemcache`](crate::problemcache) family of the store — with the
/// same scoped-counter attribution as [`cached_curve`]. Callers clone and
/// then adjust `max_area` / `reconfig_cost`.
///
/// # Panics
///
/// Panics if the JPEG kernel fails to build — a build problem, as above.
pub fn cached_jpeg_problem() -> ReconfigProblem {
    cached_jpeg_problem_with(&curve_options())
}

/// [`cached_jpeg_problem`] with explicit options instead of the
/// process-global override (the `rtise-serve` entry point, as for
/// [`cached_curve_with`]).
///
/// # Panics
///
/// Panics if the JPEG kernel fails to build — a build problem, as above.
pub fn cached_jpeg_problem_with(opts: &CurveOptions) -> ReconfigProblem {
    let key = ProblemKey {
        kernel: "jpeg",
        n_versions: 4,
        max_area: 0,
        reconfig_cost: 0,
        opts: *opts,
    };
    memoized(
        &JPEG_PROBLEMS,
        key.kernel,
        problemcache::options_key(&key),
        || {
            reconfig_problem(
                key.kernel,
                key.n_versions,
                key.max_area,
                key.reconfig_cost,
                key.opts,
            )
            .expect("jpeg problem")
        },
    )
}

/// Task specs for a named set at initial utilization `u0`, using cached
/// curves.
pub fn specs_for(names: &[&str], u0: f64) -> Vec<TaskSpec> {
    specs_for_with(names, u0, &curve_options())
}

/// Task specs for the named kernels with explicit curve options instead
/// of the process-global override (the `rtise-serve` entry point, as for
/// [`cached_curve_with`]): one memoized curve per kernel, periods sized
/// so the *software* utilization is `u0`.
///
/// # Panics
///
/// Panics if a kernel is unknown, as for [`cached_curve_with`].
pub fn specs_for_with(names: &[impl AsRef<str>], u0: f64, opts: &CurveOptions) -> Vec<TaskSpec> {
    let curves: Vec<ConfigCurve> = names
        .iter()
        .map(|n| cached_curve_with(n.as_ref(), opts))
        .collect();
    let bases: Vec<u64> = curves.iter().map(|c| c.base_cycles).collect();
    let periods = periods_for_utilization(&bases, u0);
    curves
        .into_iter()
        .zip(periods)
        .map(|(c, p)| TaskSpec::new(c, p))
        .collect()
}
