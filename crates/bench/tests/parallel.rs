//! Integration tests for the parallel harness: scoped counter
//! attribution, JSON determinism across worker counts, cold/warm disk
//! cache behavior (including corruption recovery), and unknown-id
//! rejection.
//!
//! Experiments used here (`fig3_2`, `fig4_1`, and `fig3_1` under the
//! fast-options override) are the debug-build-cheap ones — `cargo test`
//! runs unoptimized.

use rtise_bench::pool::run_pool;
use rtise_obs::json::parse;
use std::process::Command;
use std::sync::Mutex;

/// Serializes tests that touch the process-global harness configuration
/// (cache dir, curve-options override, cache stats, curve memo).
static CONFIG_LOCK: Mutex<()> = Mutex::new(());

fn lock_config() -> std::sync::MutexGuard<'static, ()> {
    // A panicking test poisons the lock; later tests still hold it safely.
    CONFIG_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Satellite regression: two counter-heavy experiments running
/// concurrently must each report exactly the deltas of their serial runs
/// — the global-snapshot harness cross-attributed them.
#[test]
fn concurrent_counter_deltas_match_serial() {
    let _config = lock_config();
    let serial_fig3_2 = rtise_bench::run_observed_with("fig3_2", true).expect("fig3_2");
    let serial_fig4_1 = rtise_bench::run_observed_with("fig4_1", true).expect("fig4_1");
    assert!(serial_fig3_2.ok && serial_fig4_1.ok);
    // fig3_2 exercises the ILP + EDF/RMS selectors, fig4_1 the enumerator
    // — disjoint counter families, so cross-attribution is detectable.
    assert!(serial_fig3_2.counters.contains_key("ilp.solves"));
    assert!(serial_fig4_1
        .counters
        .contains_key("ise.enumerate.accepted"));

    let ids: Vec<String> = ["fig3_2", "fig4_1", "fig3_2", "fig4_1"]
        .iter()
        .map(ToString::to_string)
        .collect();
    let outcomes = run_pool(&ids, 4, false, None, &|_, _| {});
    for (id, outcome) in ids.iter().zip(&outcomes) {
        let serial = if id == "fig3_2" {
            &serial_fig3_2
        } else {
            &serial_fig4_1
        };
        assert!(outcome.report.ok, "{id} failed under the pool");
        assert_eq!(
            outcome.report.counters, serial.counters,
            "{id}: concurrent counter deltas diverge from the serial run"
        );
        assert_eq!(
            outcome.report.output, serial.output,
            "{id}: concurrent output diverges from the serial run"
        );
    }
}

fn reproduce(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .output()
        .expect("spawn reproduce")
}

/// Parses a report and drops the fields that legitimately vary between
/// runs (wall times and disk-cache traffic), as `trace canon` does.
fn canonical_report(path: &std::path::Path) -> String {
    let doc = parse(&std::fs::read_to_string(path).expect("read report")).expect("parse report");
    rtise_trace::view::canon_report(&doc, &[]).render_pretty()
}

/// Satellite: `reproduce --json` output (minus wall-time fields) is
/// byte-identical for `--jobs 1` and `--jobs 4`.
#[test]
fn json_report_is_deterministic_across_worker_counts() {
    let dir = std::env::temp_dir().join(format!("rtise-jobs-det-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let mut canonical = Vec::new();
    for jobs in ["1", "4"] {
        let path = dir.join(format!("report-jobs{jobs}.json"));
        let out = reproduce(&[
            "--no-cache",
            "--jobs",
            jobs,
            "--json",
            path.to_str().expect("utf-8 path"),
            "fig3_2",
            "fig4_1",
            "fig3_2",
        ]);
        assert!(out.status.success(), "jobs={jobs}: {out:?}");
        canonical.push(canonical_report(&path));
    }
    assert_eq!(
        canonical[0], canonical[1],
        "--jobs 1 and --jobs 4 reports differ beyond wall times"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Cold vs warm disk cache: identical counters and output, the warm run
/// actually hits the disk, and a corrupted entry recovers by recompute.
#[test]
fn disk_cache_is_transparent_and_corruption_safe() {
    let _config = lock_config();
    let dir = std::env::temp_dir().join(format!("rtise-curve-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = rtise::workbench::CurveOptions::fast();
    rtise_bench::set_curve_options_override(Some(opts));
    rtise_bench::set_cache_dir(Some(dir.clone()));
    rtise_bench::clear_curve_memo();
    rtise_bench::reset_cache_stats();

    // fig3_1 is the one debug-cheap experiment built on cached_curve.
    let cold = rtise_bench::run_observed_with("fig3_1", true).expect("fig3_1");
    assert!(cold.ok);
    assert_eq!(rtise_bench::cache_stats(), (0, 1, 1), "cold: miss + store");

    rtise_bench::clear_curve_memo();
    let warm = rtise_bench::run_observed_with("fig3_1", true).expect("fig3_1");
    assert_eq!(rtise_bench::cache_stats(), (1, 1, 1), "warm: disk hit");
    assert_eq!(warm.output, cold.output, "warm output diverges");
    assert_eq!(warm.counters, cold.counters, "warm counters diverge");
    assert_eq!(warm.hists, cold.hists, "warm histogram replay diverges");

    // Corrupt the entry on disk: the next cold read must warn, recompute,
    // and still produce the identical report.
    let entry = rtise_bench::store::entry_path::<rtise::ise::configs::ConfigCurve>(
        &dir,
        "g721_decode",
        &rtise_bench::curvecache::options_key("g721_decode", &opts),
    );
    let bytes = std::fs::read(&entry).expect("cache entry exists");
    std::fs::write(&entry, &bytes[..bytes.len() / 2]).expect("truncate entry");
    rtise_bench::clear_curve_memo();
    let recovered = rtise_bench::run_observed_with("fig3_1", true).expect("fig3_1");
    assert_eq!(
        rtise_bench::cache_stats(),
        (1, 2, 2),
        "corrupted entry must recompute and re-store"
    );
    assert_eq!(recovered.output, cold.output);
    assert_eq!(recovered.counters, cold.counters);

    rtise_bench::set_curve_options_override(None);
    rtise_bench::set_cache_dir(None);
    rtise_bench::clear_curve_memo();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Cold vs warm disk cache for the JPEG base problem: the warm run must
/// serve the identical problem from disk and replay the identical
/// generation counters into the caller's scope.
#[test]
fn jpeg_problem_disk_cache_is_transparent() {
    let _config = lock_config();
    let dir = std::env::temp_dir().join(format!("rtise-problem-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    rtise_bench::set_curve_options_override(Some(rtise::workbench::CurveOptions::fast()));
    rtise_bench::set_cache_dir(Some(dir.clone()));
    rtise_bench::clear_curve_memo();
    rtise_bench::reset_cache_stats();

    let scope = rtise_obs::Scope::new();
    let cold = {
        let _guard = scope.enter();
        rtise_bench::cached_jpeg_problem()
    };
    let cold_counters = scope.counters();
    let cold_hists = scope.hists();
    assert_eq!(rtise_bench::cache_stats(), (0, 1, 1), "cold: miss + store");

    rtise_bench::clear_curve_memo();
    let scope = rtise_obs::Scope::new();
    let warm = {
        let _guard = scope.enter();
        rtise_bench::cached_jpeg_problem()
    };
    assert_eq!(rtise_bench::cache_stats(), (1, 1, 1), "warm: disk hit");
    assert_eq!(warm.loops, cold.loops, "warm problem diverges");
    assert_eq!(warm.trace, cold.trace);
    assert_eq!(warm.max_area, cold.max_area);
    assert_eq!(warm.reconfig_cost, cold.reconfig_cost);
    assert_eq!(
        scope.counters(),
        cold_counters,
        "warm counter attribution diverges"
    );
    assert_eq!(
        scope.hists(),
        cold_hists,
        "warm histogram attribution diverges"
    );

    rtise_bench::set_curve_options_override(None);
    rtise_bench::set_cache_dir(None);
    rtise_bench::clear_curve_memo();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The JPEG problem memo is keyed by options like the curve memo: a
/// request under options A, then B, then A again reads A from the memo
/// instead of the store, returns the first problem, and charges the
/// caller the same generation counters as the first request.
#[test]
fn jpeg_problem_memo_keeps_every_option_set() {
    let _config = lock_config();
    let dir = std::env::temp_dir().join(format!("rtise-problem-memo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    rtise_bench::set_cache_dir(Some(dir.clone()));
    rtise_bench::clear_curve_memo();
    rtise_bench::reset_cache_stats();

    let a = rtise::workbench::CurveOptions::fast();
    let b = rtise::workbench::CurveOptions { n_budgets: 4, ..a };
    let mut calls = Vec::new();
    for opts in [a, b, a] {
        let scope = rtise_obs::Scope::new();
        let problem = {
            let _guard = scope.enter();
            rtise_bench::cached_jpeg_problem_with(&opts)
        };
        calls.push((problem, scope.counters(), scope.hists()));
    }
    assert_eq!(
        rtise_bench::cache_stats(),
        (0, 2, 2),
        "two generations and stores; the repeat of A is a memo hit"
    );
    let (first, third) = (&calls[0], &calls[2]);
    assert_eq!(third.0.loops, first.0.loops, "A's problem diverges");
    assert_eq!(third.0.trace, first.0.trace);
    assert_eq!(third.0.max_area, first.0.max_area);
    assert_eq!(third.0.reconfig_cost, first.0.reconfig_cost);
    assert_eq!(third.1, first.1, "A's attributed counters diverge");
    assert_eq!(third.2, first.2, "A's attributed histograms diverge");
    for (problem, counters, _) in &calls {
        assert!(!problem.loops.is_empty());
        assert!(
            !counters.is_empty(),
            "every caller is charged the generation"
        );
    }

    rtise_bench::set_cache_dir(None);
    rtise_bench::clear_curve_memo();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite: certificate emission is deterministic across worker counts
/// — a certified `--check` run merges its `check.certb.*` replay counters
/// into the report, and the canonical report (minus wall times) is
/// byte-identical for `--jobs 1` and `--jobs 4`.
#[test]
fn certified_report_is_deterministic_across_worker_counts() {
    let dir = std::env::temp_dir().join(format!("rtise-cert-det-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let mut canonical = Vec::new();
    for jobs in ["1", "4"] {
        let path = dir.join(format!("certified-jobs{jobs}.json"));
        let out = reproduce(&[
            "--check",
            "--no-cache",
            "--jobs",
            jobs,
            "--json",
            path.to_str().expect("utf-8 path"),
            "fig3_2",
            "fig4_1",
        ]);
        assert!(out.status.success(), "jobs={jobs}: {out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains("proven optimal by certificate replay"),
            "jobs={jobs}: no replay summary in stdout:\n{stdout}"
        );
        canonical.push(canonical_report(&path));
    }
    assert_eq!(
        canonical[0], canonical[1],
        "--jobs 1 and --jobs 4 certified reports differ beyond wall times"
    );
    // fig3_2's certifier replays both its ILP and RMS search certificates;
    // the counters must survive into the canonical (deterministic) report.
    for key in ["\"check.certb.ilp\"", "\"check.certb.rms\""] {
        assert!(
            canonical[0].contains(key),
            "certified report is missing {key}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite: artifacts served from a warm disk cache re-certify — the
/// reconfiguration solution built on a cache-loaded problem passes the
/// cost-model-aware net-gain re-walk for both `FullReload` and `Partial`.
#[test]
fn warm_cached_problem_recertifies_reconfig_net_gain() {
    let _config = lock_config();
    let dir = std::env::temp_dir().join(format!("rtise-warm-cert-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    rtise_bench::set_curve_options_override(Some(rtise::workbench::CurveOptions::fast()));
    rtise_bench::set_cache_dir(Some(dir.clone()));
    rtise_bench::clear_curve_memo();
    rtise_bench::reset_cache_stats();

    let _cold = rtise_bench::cached_jpeg_problem();
    assert_eq!(rtise_bench::cache_stats(), (0, 1, 1), "cold: miss + store");
    rtise_bench::clear_curve_memo();
    let mut p = rtise_bench::cached_jpeg_problem();
    assert_eq!(rtise_bench::cache_stats(), (1, 1, 1), "warm: disk hit");

    // Same shaping as the ext_arch experiment: a 35% fabric with a
    // full-reload penalty of 200 cycles.
    let full: u64 = p.loops.iter().map(|l| l.best().area).sum();
    let rho = 200u64;
    p.max_area = (full * 35 / 100).max(1);
    p.reconfig_cost = rho;

    use rtise::check::cert;
    use rtise::reconfig::{iterative_partition, net_gain_with, CostModel};
    let sol = iterative_partition(&p, 5);
    for cost in [
        CostModel::FullReload,
        CostModel::Partial {
            per_area_unit: (rho / p.max_area.max(1)).max(1),
        },
    ] {
        let d = cert::check_reconfig_solution_with_cost(
            &p,
            &sol,
            cost,
            Some(net_gain_with(&p, &sol, cost)),
        );
        assert!(
            d.is_clean(),
            "warm-cached problem failed {cost:?} re-certification: {}",
            d.render()
        );
    }

    rtise_bench::set_curve_options_override(None);
    rtise_bench::set_cache_dir(None);
    rtise_bench::clear_curve_memo();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite: unknown experiment ids exit 2 with a nearest-id suggestion
/// instead of silently shrinking the run.
#[test]
fn unknown_ids_are_rejected_with_a_suggestion() {
    let out = reproduce(&["tab42"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("tab42") && stderr.contains("tab4_2"),
        "stderr should suggest the nearest id: {stderr}"
    );

    // A typo anywhere in the list rejects the whole run up front.
    let out = reproduce(&["fig3_2", "no_such_experiment"]);
    assert_eq!(out.status.code(), Some(2));

    let out = reproduce(&["--definitely-not-a-flag"]);
    assert_eq!(out.status.code(), Some(2));
}

/// Satellite: `--jobs 0` is a usage error with an explicit hint, not a
/// silent fallback — exit 2, matching the unknown-id error style.
#[test]
fn jobs_zero_is_an_explicit_usage_error() {
    let out = reproduce(&["--jobs", "0", "fig3_2"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--jobs 0") && stderr.contains("--jobs 1"),
        "stderr should explain the mistake and hint at --jobs 1: {stderr}"
    );

    // Non-numeric worker counts stay rejected too.
    let out = reproduce(&["--jobs", "many"]);
    assert_eq!(out.status.code(), Some(2));
}

/// The command-line contract: every usage error exits 2, and the first
/// line of stderr names what was wrong.
#[test]
fn usage_errors_exit_2_and_name_the_flag() {
    for (args, named) in [
        (
            &["--definitely-not-a-flag"][..],
            "\"--definitely-not-a-flag\"",
        ),
        (&["fig3_2", "--json"], "--json requires a value"),
        (&["--jobs", "0", "fig3_2"], "--jobs 0"),
        (&["--trace-clock", "wall"], "--trace-clock"),
    ] {
        let out = reproduce(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        let first = stderr.lines().next().unwrap_or_default();
        assert!(first.contains(named), "{args:?}: {stderr}");
    }
}

/// The suggestion helper itself, on the exact typo from the issue.
#[test]
fn nearest_id_matches_expected_neighbors() {
    assert_eq!(rtise_bench::nearest_id("tab42"), "tab4_2");
    assert_eq!(rtise_bench::nearest_id("fig8_44"), "fig8_4");
}
