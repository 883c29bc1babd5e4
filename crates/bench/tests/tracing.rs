//! Integration tests for the tracing layer: under the virtual clock the
//! exported Chrome Trace document — merged span trees, search-tree
//! instants, prune-reason counts, timestamps — must be byte-identical
//! for `--jobs 1` and `--jobs 4`, and must pass the `rtise-check`
//! chrome-trace schema checker.
//!
//! Experiments used here (`fig3_2`, `fig4_1`, and `fig3_1` under the
//! fast-options override) are the debug-build-cheap ones — `cargo test`
//! runs unoptimized.

use rtise_bench::pool::run_pool;
use rtise_obs::json::Value;
use rtise_trace::Clock;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Serializes tests that touch the process-global harness configuration
/// (curve-options override, curve memo, generation trace clock).
static CONFIG_LOCK: Mutex<()> = Mutex::new(());

fn lock_config() -> std::sync::MutexGuard<'static, ()> {
    CONFIG_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `ids` on `jobs` workers with virtual-clock tracing and returns
/// the merged Chrome Trace document.
fn traced_run(ids: &[String], jobs: usize) -> Value {
    let outcomes = run_pool(ids, jobs, false, Some(Clock::Virtual), &|_, _| {});
    let scopes: Vec<(String, rtise_obs::Scope)> = outcomes
        .into_iter()
        .map(|o| {
            assert!(o.report.ok, "{} failed", o.report.id);
            let scope = o.trace.expect("tracing was requested");
            (o.report.id, scope)
        })
        .collect();
    rtise_trace::chrome::chrome_trace(&scopes)
}

/// Event-name counts of a document, keyed by name — prune reasons,
/// solver spans, incumbents, and the rest.
fn name_counts(doc: &Value) -> BTreeMap<String, u64> {
    let mut counts = BTreeMap::new();
    for e in doc
        .get("traceEvents")
        .and_then(Value::as_arr)
        .expect("traceEvents")
    {
        if e.get("ph").and_then(Value::as_str) == Some("E") {
            continue; // end events carry no name
        }
        let name = e.get("name").and_then(Value::as_str).expect("name");
        *counts.entry(name.to_string()).or_insert(0) += 1;
    }
    counts
}

/// Tentpole: the virtual-clock trace is byte-identical across worker
/// counts — same merged span trees, same search-tree events, same
/// timestamps — and schema-clean.
#[test]
fn virtual_clock_trace_is_deterministic_across_worker_counts() {
    let _config = lock_config();
    let ids: Vec<String> = ["fig3_2", "fig4_1", "fig3_2"]
        .iter()
        .map(ToString::to_string)
        .collect();
    let doc1 = traced_run(&ids, 1);
    let doc4 = traced_run(&ids, 4);

    let diags = rtise::check::trace::check_chrome_trace(&doc1);
    assert!(diags.is_clean(), "schema check failed:\n{diags}");

    assert_eq!(
        doc1.render_pretty(),
        doc4.render_pretty(),
        "--jobs 1 and --jobs 4 virtual-clock traces differ"
    );

    // The equality above is vacuous if instrumentation never fired:
    // demand solver spans and prune-reason events are actually present.
    let counts = name_counts(&doc1);
    assert!(
        counts.contains_key(rtise_trace::codes::ILP_SOLVE),
        "no ILP solve spans recorded: {counts:?}"
    );
    assert!(
        counts.contains_key(rtise_trace::codes::SELECT_RMS_SOLVE),
        "no RMS B&B solve spans recorded: {counts:?}"
    );
    let prunes: u64 = counts
        .iter()
        .filter(|(k, _)| k.contains(".prune."))
        .map(|(_, v)| v)
        .sum();
    assert!(prunes > 0, "no prune-reason events recorded: {counts:?}");

    // One track per experiment, named after it, in paper (input) order.
    let thread_names: Vec<&str> = doc1
        .get("traceEvents")
        .and_then(Value::as_arr)
        .expect("traceEvents")
        .iter()
        .filter(|e| e.get("ph").and_then(Value::as_str) == Some("M"))
        .map(|e| {
            e.get("args")
                .and_then(|a| a.get("name"))
                .and_then(Value::as_str)
                .expect("thread_name args")
        })
        .collect();
    assert_eq!(thread_names, ["fig3_2", "fig4_1", "fig3_2"]);
}

/// Fresh curve generation records into its own `curve/<kernel>` tracks,
/// detached from the experiment scopes, so per-experiment traces never
/// depend on who wins the memo race. A memoized re-run generates
/// nothing and therefore adds no tracks.
///
/// (fig3_1 is the one debug-cheap experiment built on `cached_curve`;
/// fast options keep the harvest small. The ISE B&B events those tracks
/// carry under thorough options are asserted by ci.sh on the release
/// artifact — fast options set `exact_threshold: 0`, so the debug-cheap
/// path never enters the exact solver.)
#[test]
fn curve_generation_traces_into_its_own_tracks() {
    let _config = lock_config();
    rtise_bench::set_curve_options_override(Some(rtise::workbench::CurveOptions::fast()));
    rtise_bench::set_generation_trace_clock(Some(Clock::Virtual));
    rtise_bench::clear_curve_memo();

    let report = rtise_bench::run_observed_with("fig3_1", true).expect("fig3_1");
    assert!(report.ok);
    let gen = rtise_bench::take_generation_traces();

    let names: Vec<&String> = gen.iter().map(|(n, _)| n).collect();
    assert!(
        names.iter().any(|n| n.starts_with("curve/")),
        "no generation tracks: {names:?}"
    );
    let doc = rtise_trace::chrome::chrome_trace(&gen);
    let diags = rtise::check::trace::check_chrome_trace(&doc);
    assert!(diags.is_clean(), "schema check failed:\n{diags}");
    let counts = name_counts(&doc);
    assert!(
        counts.keys().any(|k| k.starts_with("curve/")),
        "no curve generation root span: {counts:?}"
    );

    // The memo is warm now: a re-run generates nothing.
    let rerun = rtise_bench::run_observed_with("fig3_1", true).expect("fig3_1");
    assert!(rerun.ok);
    let warm = rtise_bench::take_generation_traces();
    assert!(
        warm.is_empty(),
        "memoized re-run produced generation tracks: {:?}",
        warm.iter().map(|(n, _)| n).collect::<Vec<_>>()
    );

    rtise_bench::set_generation_trace_clock(None);
    rtise_bench::set_curve_options_override(None);
    rtise_bench::clear_curve_memo();
}

/// Prune-reason counts embedded in the trace agree with the scoped
/// counters of an untraced run: tracing observes the search, it must not
/// change it.
#[test]
fn prune_counts_agree_with_untraced_counters() {
    let _config = lock_config();
    let ids: Vec<String> = vec!["fig3_2".to_string()];
    let doc = traced_run(&ids, 1);
    let counts = name_counts(&doc);

    let untraced = rtise_bench::run_observed_with("fig3_2", true).expect("fig3_2");
    assert!(untraced.ok);
    for (event, counter) in [
        (rtise_trace::codes::ILP_PRUNE_BOUND, "ilp.pruned_bound"),
        (
            rtise_trace::codes::ILP_PRUNE_INFEASIBLE,
            "ilp.pruned_infeasible",
        ),
    ] {
        let traced = counts.get(event).copied().unwrap_or(0);
        let counted = untraced.counters.get(counter).copied().unwrap_or(0);
        assert_eq!(
            traced, counted,
            "{event} events diverge from the {counter} counter"
        );
    }

    // The histograms embedded in the report describe the same search.
    assert!(
        untraced.hists.contains_key("ilp.depth"),
        "ILP depth histogram missing: {:?}",
        untraced.hists.keys().collect::<Vec<_>>()
    );
}
