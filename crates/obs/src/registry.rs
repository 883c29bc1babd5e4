//! Counter and histogram recording into the entered [`Scope`]s.
//!
//! Solvers publish per-call statistics under dotted keys
//! (`ilp.nodes_explored`, `select.edf.dp_cells`, …) via [`record`] and
//! [`observe`]; harnesses that need exact attribution bracket a region
//! of work with a [`Scope`] and read [`Scope::counters`] when the region
//! ends. This decouples *where* statistics are produced (deep inside a
//! solver) from *where* they are consumed (the `reproduce` binary, a
//! test) without threading a collector through every call chain.
//!
//! Recording is exact under concurrency: while a scope is entered on a
//! thread, every [`record`] on that thread lands in it, and nothing
//! recorded on other threads does. Clone a scope into a spawned worker
//! and [`enter`](Scope::enter) it there to extend it across threads.
//! With no scope entered a recording goes nowhere — there is no
//! process-wide view.
//!
//! Counters are monotone `u64` sums that saturate instead of wrapping.

use crate::hist::Hist;
use crate::scope::{for_each_active, Scope};
use std::collections::BTreeMap;

/// The name [`Scope`] had when counters had a scope type of their own.
/// Workspace code says `Scope`; the alias keeps code built outside the
/// workspace against these crates (the `e2ebench` probe) compiling.
///
/// ```
/// use rtise_obs::registry::{record, CounterScope};
///
/// let scope = CounterScope::new();
/// {
///     let _guard = scope.enter();
///     record("doc.example", 3);
/// }
/// assert_eq!(scope.counters()["doc.example"], 3);
/// ```
pub type CounterScope = Scope;

fn add_to(map: &mut BTreeMap<String, u64>, key: &str, delta: u64) {
    match map.get_mut(key) {
        Some(slot) => *slot = slot.saturating_add(delta),
        None => {
            map.insert(key.to_string(), delta);
        }
    }
}

fn hist_entry<'m>(map: &'m mut BTreeMap<String, Hist>, key: &str) -> &'m mut Hist {
    if !map.contains_key(key) {
        map.insert(key.to_string(), Hist::new());
    }
    map.get_mut(key).expect("inserted above")
}

/// Adds `delta` to counter `key` in every [`Scope`] entered on the
/// current thread. Creates counters at zero first if needed; saturates
/// instead of wrapping on overflow.
pub fn record(key: &str, delta: u64) {
    if delta == 0 {
        return;
    }
    for_each_active(|s| add_to(&mut s.counters.lock().expect("scope poisoned"), key, delta));
}

/// Adds `counters` to every [`Scope`] entered on the current thread.
/// This is how caches attribute previously-recorded work to a new
/// consumer: every scope that asks for the cached artifact is charged
/// the same, deterministic cost, whether the artifact was computed,
/// raced for, or read back from disk.
pub fn attribute(counters: &BTreeMap<String, u64>) {
    for_each_active(|s| {
        let mut map = s.counters.lock().expect("scope poisoned");
        for (key, &delta) in counters {
            if delta > 0 {
                add_to(&mut map, key, delta);
            }
        }
    });
}

/// Records one observation into histogram `key` of every [`Scope`]
/// entered on the current thread. The histogram analogue of [`record`].
pub fn observe(key: &str, value: u64) {
    for_each_active(|s| {
        hist_entry(&mut s.hists.lock().expect("scope poisoned"), key).observe(value)
    });
}

/// Merges a whole histogram into histogram `key` of every [`Scope`]
/// entered on the current thread. Solvers that accumulate a local
/// histogram per solve (cheap array bumps, no locks) publish it once
/// through this.
pub fn observe_hist(key: &str, h: &Hist) {
    if h.count() == 0 {
        return;
    }
    for_each_active(|s| hist_entry(&mut s.hists.lock().expect("scope poisoned"), key).merge(h));
}

/// The histogram analogue of [`attribute`]: merges `hists` into every
/// [`Scope`] entered on the current thread. Caches replay the
/// histograms captured when an artifact was first computed, so cold and
/// warm runs report identical per-consumer distributions.
pub fn attribute_hists(hists: &BTreeMap<String, Hist>) {
    for_each_active(|s| {
        let mut map = s.hists.lock().expect("scope poisoned");
        for (key, h) in hists {
            if h.count() > 0 {
                hist_entry(&mut map, key).merge(h);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lanes::lanes;
    use crate::scope::isolate;

    // Every test enters its own scope, so tests stay independent even
    // though cargo runs them concurrently in one process.

    #[test]
    fn add_and_snapshot() {
        let scope = Scope::new();
        let _g = scope.enter();
        record("test.registry.a", 2);
        record("test.registry.a", 3);
        assert_eq!(scope.counters()["test.registry.a"], 5);
    }

    #[test]
    fn zero_delta_creates_nothing() {
        let scope = Scope::new();
        let _g = scope.enter();
        record("test.registry.zero", 0);
        assert!(!scope.counters().contains_key("test.registry.zero"));
    }

    /// Counters and histograms of one scope fed from eight threads at
    /// once lose no update.
    #[test]
    fn concurrent_adds_do_not_lose_updates() {
        let scope = Scope::new();
        let clone = |_| (String::new(), scope.clone());
        let add = |_| {
            for _ in 0..1000 {
                record("test.registry.mt", 1);
                observe("test.registry.mt", 1);
            }
        };
        lanes(8, 8, Some(&clone), add, |_, _| {});
        assert_eq!(scope.counters()["test.registry.mt"], 8000);
        assert_eq!(scope.hists()["test.registry.mt"].count(), 8000);
    }

    #[test]
    fn scope_collects_only_its_own_thread() {
        let scope = Scope::new();
        let noise = std::thread::spawn(|| record("test.scope.own", 1_000));
        {
            let _g = scope.enter();
            record("test.scope.own", 3);
        }
        record("test.scope.own", 9); // after exit: not collected
        noise.join().expect("noise thread");
        assert_eq!(scope.counters()["test.scope.own"], 3);
    }

    #[test]
    fn nested_scopes_both_collect() {
        let outer = Scope::new();
        let inner = Scope::new();
        let _og = outer.enter();
        {
            let _ig = inner.enter();
            record("test.scope.nested", 4);
        }
        record("test.scope.nested", 2);
        assert_eq!(inner.counters()["test.scope.nested"], 4);
        assert_eq!(outer.counters()["test.scope.nested"], 6);
    }

    #[test]
    fn scope_extends_across_threads_via_clone() {
        let scope = Scope::new();
        let clone = |_| (String::new(), scope.clone());
        let add = |_| (0..500).for_each(|_| record("test.scope.fanout", 1));
        lanes(4, 4, Some(&clone), add, |_, _| {});
        assert_eq!(scope.counters()["test.scope.fanout"], 2000);
    }

    /// The stress shape of the parallel `reproduce` harness: N concurrent
    /// scopes, each fed by its own threads, all hammering the same key,
    /// plus one outer scope every thread also enters. Per-scope totals
    /// must be exact and the outer scope must hold the merged sum.
    #[test]
    fn scope_stress_exact_per_scope_and_merged_totals() {
        const SCOPES: usize = 4;
        const THREADS: usize = 4;
        const INCREMENTS: u64 = 1_000;
        let key = "test.scope.stress";
        let merged = Scope::new();
        let scopes: Vec<Scope> = (0..SCOPES).map(|_| Scope::new()).collect();
        let clone = |_| (String::new(), merged.clone());
        let add = |i: usize| {
            let _g = scopes[i % SCOPES].enter();
            (0..INCREMENTS).for_each(|_| record(key, 1));
        };
        let workers = SCOPES * THREADS;
        lanes(workers, workers, Some(&clone), add, |_, _| {});
        for scope in &scopes {
            assert_eq!(scope.counters()[key], THREADS as u64 * INCREMENTS);
        }
        assert_eq!(merged.counters()[key], workers as u64 * INCREMENTS);
    }

    #[test]
    fn attribute_charges_scopes_but_not_global() {
        let scope = Scope::new();
        let bystander = Scope::new();
        let mut cached = BTreeMap::new();
        cached.insert("test.scope.attr".to_string(), 11u64);
        cached.insert("test.scope.attr.zero".to_string(), 0u64);
        {
            let _g = scope.enter();
            attribute(&cached);
        }
        assert_eq!(scope.counters()["test.scope.attr"], 11);
        assert!(!scope.counters().contains_key("test.scope.attr.zero"));
        assert!(bystander.counters().is_empty(), "only entered scopes pay");
    }

    #[test]
    fn observe_feeds_global_and_scope_histograms() {
        let scope = Scope::new();
        {
            let _g = scope.enter();
            observe("test.hist.basic", 4);
            observe("test.hist.basic", 16);
        }
        observe("test.hist.basic", 99); // after exit: not collected
        let scoped = scope.hists();
        assert_eq!(scoped["test.hist.basic"].count(), 2);
        assert_eq!(scoped["test.hist.basic"].max(), 16);
    }

    #[test]
    fn observe_hist_merges_and_skips_empty() {
        let scope = Scope::new();
        let mut h = Hist::new();
        h.observe(7);
        h.observe(9);
        {
            let _g = scope.enter();
            observe_hist("test.hist.merge", &h);
            observe_hist("test.hist.merge.empty", &Hist::new());
        }
        assert_eq!(scope.hists()["test.hist.merge"].count(), 2);
        assert!(!scope.hists().contains_key("test.hist.merge.empty"));
    }

    #[test]
    fn attribute_hists_charges_scopes_but_not_global() {
        let scope = Scope::new();
        let bystander = Scope::new();
        let mut cached = BTreeMap::new();
        let mut h = Hist::new();
        h.observe(5);
        cached.insert("test.hist.attr".to_string(), h);
        cached.insert("test.hist.attr.empty".to_string(), Hist::new());
        {
            let _g = scope.enter();
            attribute_hists(&cached);
        }
        assert_eq!(scope.hists()["test.hist.attr"].count(), 1);
        assert!(!scope.hists().contains_key("test.hist.attr.empty"));
        assert!(bystander.hists().is_empty(), "only entered scopes pay");
    }

    #[test]
    fn isolation_detaches_then_restores() {
        let scope = Scope::new();
        let _g = scope.enter();
        record("test.scope.iso", 1);
        {
            let _iso = isolate();
            record("test.scope.iso", 100);
        }
        record("test.scope.iso", 2);
        assert_eq!(scope.counters()["test.scope.iso"], 3);
    }
}
