//! Certificate-driven fuzzing campaign driver; its flags are [`FLAGS`].
//!
//! Runs `--iters` seeded cases per family, solves each instance with the
//! real pipeline, certifies every solution via `rtise-check`, and
//! cross-checks independent solvers against each other. Any failure is
//! greedily minimized and reported with a one-line repro command. Exits
//! 1 if any diagnostic was found, and 2 on a usage error (an unknown flag
//! or family, a flag without its value, `--jobs 0`).

use rtise_fuzz::{run, Family, FuzzConfig};
use rtise_obs::args::Args;
use std::path::PathBuf;
use std::process::ExitCode;

const FLAGS: &str = "--seed N, --iters N, --family NAME|all, --jobs N, --json PATH, \
                     --trace-out PATH, --list";

fn main() -> ExitCode {
    let families = Family::ALL.map(Family::name).join(", ");
    let args = Args::parse(
        &format!("fuzz [FLAG]...\nfamilies: {families} (default: all)"),
        FLAGS,
    );
    if let Some(extra) = args.operands().first() {
        args.fail(format!("unexpected argument {extra:?}"));
    }
    if args.has("--list") {
        for f in Family::ALL {
            println!("{}", f.name());
        }
        return ExitCode::SUCCESS;
    }
    let defaults = FuzzConfig::default();
    let trace_path = args.value("--trace-out").map(PathBuf::from);
    let cfg = FuzzConfig {
        seed: args.parsed("--seed").unwrap_or(defaults.seed),
        iters: args.parsed("--iters").unwrap_or(defaults.iters),
        families: match args.value("--family") {
            None | Some("all") => defaults.families,
            Some(name) => match Family::parse(name) {
                Some(f) => vec![f],
                None => args.fail(format!("unknown family {name:?} for --family")),
            },
        },
        jobs: args.jobs().unwrap_or(defaults.jobs),
        trace: trace_path.as_ref().map(|_| rtise_trace::Clock::Real),
    };
    let json_path = args.value("--json");

    let outcome = run(&cfg);
    println!(
        "fuzz seed={} iters={} jobs={} families={}",
        cfg.seed,
        cfg.iters,
        cfg.jobs,
        cfg.families
            .iter()
            .map(|f| f.name())
            .collect::<Vec<_>>()
            .join(",")
    );
    for s in &outcome.stats {
        println!(
            "  {:<9} {:>6} cases  {:>3} failure(s)  {:>9.1} inst/s",
            s.family.name(),
            s.cases,
            s.failures,
            s.rate
        );
    }
    for f in &outcome.failures {
        println!();
        println!("FAILURE [{}] {}: {}", f.family.name(), f.code, f.detail);
        println!(
            "  shrunk {} -> {} : {}",
            f.original_size, f.minimized_size, f.minimized
        );
        println!("  repro: {}", f.repro);
    }
    println!(
        "total {} cases, {} failure(s) in {:.1}s",
        outcome.cases,
        outcome.failures.len(),
        outcome.elapsed_ms / 1e3
    );

    if let Some(path) = json_path {
        let json = outcome.to_json().render_pretty();
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("cannot write report to {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("obs-JSON report written to {path}");
    }

    if let Some(path) = trace_path {
        let doc = rtise_trace::chrome::chrome_trace(&outcome.trace);
        if let Err(e) = rtise_check::trace::write_checked_trace(&path, &doc) {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
        println!("chrome trace written to {}", path.display());
    }

    if outcome.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
