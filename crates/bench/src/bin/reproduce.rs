//! Regenerates the paper's tables and figures: every experiment in paper
//! order, or the ids named as operands. The flags are [`FLAGS`]; README's
//! `reproduce` flag table explains each.
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
//! Usage errors exit 2 before anything runs: an unknown flag, a flag
//! without its value, `--jobs 0`, or an unknown experiment id (with a
//! nearest-id suggestion).

use rtise_bench::pool::{run_pool, CertOutcome, ExperimentOutcome};
use rtise_obs::args::Args;
use std::path::PathBuf;
use std::sync::Mutex;

const FLAGS: &str = "--list, --jobs N, --json PATH, --trace-out PATH, \
                     --trace-clock real|virtual, --check, --cache-dir DIR, --no-cache";

fn main() {
    let args = Args::parse("reproduce [FLAG]... [ID]...", FLAGS);
    if args.has("--list") {
        for (id, _) in rtise_bench::ALL {
            println!("{id}");
        }
        return;
    }
    let json_path = args.value("--json").map(str::to_string);
    let trace_out = args.value("--trace-out").map(PathBuf::from);
    let trace_clock = args
        .clock("--trace-clock")
        .unwrap_or(rtise_trace::Clock::Real);
    let check = args.has("--check");
    let jobs = args.jobs().unwrap_or_else(rtise_obs::lanes::default_jobs);
    let cache_dir = (!args.has("--no-cache"))
        .then(|| PathBuf::from(args.value("--cache-dir").unwrap_or("target/curve-cache")));
    let mut ids = args.operands().to_vec();
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
            args.fail(format!(
                "unknown experiment {id:?} — did you mean {:?}? (use --list to see all ids)",
                rtise_bench::nearest_id(id)
            ));
        }
    }

    rtise_bench::set_cache_dir(cache_dir);
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
        match rtise::check::trace::write_checked_trace(&path, &doc) {
            Ok(events) => println!("wrote trace to {} ({events} events)", path.display()),
            Err(e) => {
                eprintln!("{e}");
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
