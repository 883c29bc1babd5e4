//! Regenerates the paper's tables and figures.
//!
//! Usage:
//!
//! ```text
//! reproduce                          # run every experiment in paper order
//! reproduce fig3_3 tab6_1            # run the named ones
//! reproduce --list                   # list experiment ids
//! reproduce --jobs 4                 # run experiments on 4 workers
//! reproduce --json out.json fig3_2   # also write a machine-readable report
//! reproduce --trace-out t.json       # export a chrome://tracing span trace
//! reproduce --trace-clock virtual    # deterministic trace timestamps
//! reproduce --check tab6_1           # also certify each experiment's artifacts
//! reproduce --cache-dir .cache       # persist curves somewhere specific
//! reproduce --no-cache               # disable the on-disk curve cache
//! ```
//!
//! Experiments run on a worker pool (`--jobs N`, defaulting to every
//! available core; `--jobs 1` reproduces the historical serial harness).
//! Reports always print in paper order — parallel runs buffer each
//! experiment's output and replay it as soon as its turn comes.
//! Configuration curves persist in a content-addressed on-disk cache
//! (default `target/curve-cache`), re-certified on load; corrupted
//! entries degrade to recomputation.
//!
//! Every experiment runs to completion even if an earlier one fails; the
//! harness prints per-experiment wall time and ends with an
//! `N ok / M failed` summary, exiting nonzero if anything failed.
//! Unknown experiment ids are rejected up front with exit code 2 and a
//! nearest-id suggestion.

use rtise_bench::pool::{run_pool, CertOutcome, ExperimentOutcome};
use std::path::PathBuf;
use std::sync::Mutex;

const USAGE: &str = "supported: --list, --jobs <n>, --json <path>, \
                     --trace-out <path>, --trace-clock <real|virtual>, --check, \
                     --cache-dir <dir>, --no-cache";

fn usage_error(msg: &str) -> ! {
    eprintln!("{msg} ({USAGE})");
    std::process::exit(2);
}

fn main() {
    let mut json_path: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut trace_clock = rtise_trace::Clock::Real;
    let mut check = false;
    let mut jobs: Option<usize> = None;
    let mut cache_dir: Option<PathBuf> = Some(PathBuf::from("target/curve-cache"));
    let mut ids: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--list" => {
                for (id, _) in rtise_bench::ALL {
                    println!("{id}");
                }
                return;
            }
            "--json" => match args.next() {
                Some(p) => json_path = Some(p),
                None => usage_error("--json requires a path argument"),
            },
            "--jobs" => match args.next().map(|n| n.parse::<usize>()) {
                Some(Ok(0)) => usage_error(
                    "--jobs 0 is not a worker count — did you mean --jobs 1 for the serial \
                     harness? (omit --jobs to use every core)",
                ),
                Some(Ok(n)) => jobs = Some(n),
                _ => usage_error("--jobs requires a worker count >= 1"),
            },
            "--cache-dir" => match args.next() {
                Some(p) => cache_dir = Some(PathBuf::from(p)),
                None => usage_error("--cache-dir requires a path argument"),
            },
            "--no-cache" => cache_dir = None,
            "--trace-out" => match args.next() {
                Some(p) => trace_out = Some(p),
                None => usage_error("--trace-out requires a path argument"),
            },
            "--trace-clock" => match args.next().as_deref() {
                Some("real") => trace_clock = rtise_trace::Clock::Real,
                Some("virtual") => trace_clock = rtise_trace::Clock::Virtual,
                _ => usage_error("--trace-clock requires `real` or `virtual`"),
            },
            "--check" => check = true,
            other if other.starts_with('-') => {
                usage_error(&format!("unknown flag {other:?}"));
            }
            other => ids.push(other.to_string()),
        }
    }
    if ids.is_empty() {
        ids = rtise_bench::ALL
            .iter()
            .map(|(id, _)| id.to_string())
            .collect();
    }

    // Reject unknown ids up front — a typo must not shrink the run (or,
    // worse, report an empty run as success).
    for id in &ids {
        if !rtise_bench::ALL.iter().any(|(name, _)| name == id) {
            eprintln!(
                "unknown experiment {id:?} — did you mean {:?}? (use --list to see all ids)",
                rtise_bench::nearest_id(id)
            );
            std::process::exit(2);
        }
    }

    rtise_bench::set_cache_dir(cache_dir);
    let jobs = jobs.unwrap_or_else(rtise_bench::pool::default_jobs);
    let parallel = jobs > 1 && ids.len() > 1;

    let total = rtise_obs::Timer::start();
    let failed = Mutex::new(0usize);
    let on_ready = |_: usize, outcome: &ExperimentOutcome| {
        let report = &outcome.report;
        let id = &report.id;
        // The serial path echoes output live under a `=== id ===` header;
        // replay buffered output the same way so parallel runs read
        // identically.
        if parallel {
            println!("\n=== {id} ===");
            for line in &report.output {
                println!("{line}");
            }
        }
        println!(
            "--- {id}: {} in {:.1} ms",
            if report.ok { "ok" } else { "FAILED" },
            report.wall_ms
        );
        match &outcome.certification {
            None => {}
            Some(CertOutcome::Clean { replays }) => {
                let replayed: u64 = replays.values().sum();
                if replayed > 0 {
                    println!(
                        "--- {id}: certified clean, {replayed} search(es) proven optimal \
                         by certificate replay"
                    );
                } else {
                    println!("--- {id}: certified clean");
                }
            }
            Some(CertOutcome::Dirty(rendered)) => {
                println!("--- {id}: CERTIFICATION FAILED");
                for line in rendered.lines() {
                    println!("    {line}");
                }
            }
            Some(CertOutcome::Unavailable(missing)) => {
                eprintln!("--- {id}: no certifier for {missing:?}");
            }
            Some(CertOutcome::Panicked(msg)) => println!("--- {id}: CERTIFIER PANICKED: {msg}"),
        }
        if !outcome.is_ok() {
            *failed.lock().expect("failure counter poisoned") += 1;
        }
    };

    let clock = trace_out.as_ref().map(|_| trace_clock);
    rtise_bench::set_generation_trace_clock(clock);
    let outcomes = run_pool(&ids, jobs, check, clock, &on_ready);
    let mut failed = failed.into_inner().expect("failure counter poisoned");
    let mut scopes: Vec<(String, rtise_obs::Scope)> = Vec::new();
    let mut reports = Vec::with_capacity(outcomes.len());
    for outcome in outcomes {
        if let Some(scope) = outcome.trace {
            scopes.push((outcome.report.id.clone(), scope));
        }
        reports.push(outcome.report);
    }
    // Memoized curve/problem generation traces into tracks of its own
    // (`curve/<kernel>`, `problem/jpeg`), appended after the experiments
    // in name order: which worker generated an artifact varies run to
    // run, but the track identity and its content do not. Cache hits
    // generate nothing, so a warm run simply has no generation tracks.
    scopes.extend(rtise_bench::take_generation_traces());

    if let Some(path) = trace_out {
        // Merge per-experiment scopes in paper order — one track each, so
        // the exported document is independent of the worker count.
        let doc = rtise_trace::chrome::chrome_trace(&scopes);
        let diags = rtise::check::trace::check_chrome_trace(&doc);
        if !diags.is_clean() {
            eprintln!("trace artifact failed the chrome-trace schema check:");
            for line in diags.render().lines() {
                eprintln!("    {line}");
            }
            failed += 1;
        }
        match std::fs::write(&path, doc.render_pretty()) {
            Ok(()) => {
                let events = doc
                    .get("traceEvents")
                    .and_then(rtise_obs::json::Value::as_arr)
                    .map_or(0, <[rtise_obs::json::Value]>::len);
                println!("wrote trace to {path} ({events} events)");
            }
            Err(e) => {
                eprintln!("failed to write {path}: {e}");
                failed += 1;
            }
        }
    }

    if let Some(path) = json_path {
        let doc = rtise_bench::report_json(&reports, total.elapsed_ms());
        match std::fs::write(&path, doc.render_pretty()) {
            Ok(()) => println!("wrote report to {path}"),
            Err(e) => {
                eprintln!("failed to write {path}: {e}");
                failed += 1;
            }
        }
    }

    let (hits, misses, stores) = rtise_bench::cache_stats();
    if hits + misses + stores > 0 {
        println!("curve cache: {hits} hits, {misses} misses, {stores} stores");
    }
    println!(
        "\n{} ok / {failed} failed ({:.1} ms total)",
        reports.iter().filter(|r| r.ok).count(),
        total.elapsed_ms()
    );
    if failed > 0 {
        std::process::exit(1);
    }
}
