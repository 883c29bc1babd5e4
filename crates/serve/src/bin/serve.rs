//! The exploration-service binary.
//!
//! Usage:
//!
//! ```text
//! serve --stdin                      # serve requests from stdin, responses to stdout
//! serve --listen 127.0.0.1:7878     # serve TCP connections
//! serve loadtest --seed 42 --requests 1000 --jobs 4
//!     [--clock real|virtual] [--cache-dir DIR] [--json PATH]
//!     [--trace-out PATH] [--min-hit-rate PCT]
//! ```
//!
//! Common flags: `--jobs <n>` (most requests computing at once, default
//! every core; the load test also runs that many client lanes),
//! `--cache-dir <dir>` (persist responses in the sharded artifact
//! store). The load test exits nonzero if any response fails independent
//! re-certification, the trace export is not schema-clean, or the hit
//! rate falls below `--min-hit-rate`.

use rtise_serve::loadtest::{self, LoadtestConfig};
use rtise_serve::server::{run_tcp, serve_lines, Server, ServerConfig};
use std::path::PathBuf;
use std::sync::Arc;

const USAGE: &str = "supported: --stdin | --listen <addr> | loadtest; flags: --jobs <n>, \
                     --cache-dir <dir>, --seed <n>, --requests <n>, --clock <real|virtual>, \
                     --json <path>, --trace-out <path>, --min-hit-rate <pct>";

fn usage_error(msg: &str) -> ! {
    eprintln!("{msg} ({USAGE})");
    std::process::exit(2);
}

#[derive(PartialEq)]
enum Mode {
    Stdin,
    Listen(String),
    Loadtest,
}

fn main() {
    let mut mode: Option<Mode> = None;
    let mut jobs: Option<usize> = None;
    let mut cache_dir: Option<PathBuf> = None;
    let mut seed = 42u64;
    let mut requests = 1000usize;
    let mut clock = rtise_trace::Clock::Virtual;
    let mut json_path: Option<PathBuf> = None;
    let mut trace_out: Option<PathBuf> = None;
    let mut min_hit_rate: Option<f64> = None;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--stdin" => mode = Some(Mode::Stdin),
            "--listen" => match args.next() {
                Some(addr) => mode = Some(Mode::Listen(addr)),
                None => usage_error("--listen requires an address argument"),
            },
            "loadtest" => mode = Some(Mode::Loadtest),
            "--jobs" => match args.next().map(|n| n.parse::<usize>()) {
                Some(Ok(0)) => usage_error(
                    "--jobs 0 would run nothing — did you mean --jobs 1 for one request at a \
                     time? (omit --jobs to use every core)",
                ),
                Some(Ok(n)) => jobs = Some(n),
                _ => usage_error("--jobs requires a count >= 1"),
            },
            "--cache-dir" => match args.next() {
                Some(p) => cache_dir = Some(PathBuf::from(p)),
                None => usage_error("--cache-dir requires a path argument"),
            },
            "--seed" => match args.next().map(|n| n.parse::<u64>()) {
                Some(Ok(n)) => seed = n,
                _ => usage_error("--seed requires an unsigned integer"),
            },
            "--requests" => match args.next().map(|n| n.parse::<usize>()) {
                Some(Ok(n)) if n > 0 => requests = n,
                _ => usage_error("--requests requires a positive count"),
            },
            "--clock" => match args.next().as_deref() {
                Some("real") => clock = rtise_trace::Clock::Real,
                Some("virtual") => clock = rtise_trace::Clock::Virtual,
                _ => usage_error("--clock requires `real` or `virtual`"),
            },
            "--json" => match args.next() {
                Some(p) => json_path = Some(PathBuf::from(p)),
                None => usage_error("--json requires a path argument"),
            },
            "--trace-out" => match args.next() {
                Some(p) => trace_out = Some(PathBuf::from(p)),
                None => usage_error("--trace-out requires a path argument"),
            },
            "--min-hit-rate" => match args.next().map(|n| n.parse::<f64>()) {
                Some(Ok(p)) if (0.0..=100.0).contains(&p) => min_hit_rate = Some(p),
                _ => usage_error("--min-hit-rate requires a percentage in 0..=100"),
            },
            other => usage_error(&format!("unknown argument {other:?}")),
        }
    }

    let jobs = jobs.unwrap_or_else(rtise_bench::pool::default_jobs);
    match mode {
        None => usage_error("pick a mode: --stdin, --listen <addr>, or loadtest"),
        Some(Mode::Stdin) => {
            let server = Server::new(ServerConfig { jobs, cache_dir });
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            if let Err(e) = serve_lines(&server, stdin.lock(), stdout.lock()) {
                eprintln!("serve: {e}");
                std::process::exit(1);
            }
        }
        Some(Mode::Listen(addr)) => {
            let server = Arc::new(Server::new(ServerConfig { jobs, cache_dir }));
            if let Err(e) = run_tcp(&addr, &server) {
                eprintln!("serve: {e}");
                std::process::exit(1);
            }
        }
        Some(Mode::Loadtest) => {
            let outcome = loadtest::run(&LoadtestConfig {
                seed,
                requests,
                jobs,
                cache_dir,
                trace_out,
                trace_clock: clock,
            });
            let mut failed = false;
            if outcome.certification_failures.is_empty() {
                println!("loadtest: all {requests} responses certified clean");
            } else {
                println!(
                    "loadtest: CERTIFICATION FAILED for {} response(s)",
                    outcome.certification_failures.len()
                );
                for f in outcome.certification_failures.iter().take(10) {
                    println!("    {f}");
                }
                failed = true;
            }
            if !outcome.trace_ok {
                failed = true;
            }
            println!("loadtest: hit rate {:.2}%", outcome.hit_rate_pct);
            if let Some(min) = min_hit_rate {
                if outcome.hit_rate_pct < min {
                    println!(
                        "loadtest: hit rate {:.2}% is below the required {min:.2}%",
                        outcome.hit_rate_pct
                    );
                    failed = true;
                }
            }
            match json_path {
                Some(path) => match std::fs::write(&path, outcome.report.render_pretty()) {
                    Ok(()) => println!("wrote report to {}", path.display()),
                    Err(e) => {
                        eprintln!("failed to write {}: {e}", path.display());
                        failed = true;
                    }
                },
                None => println!("{}", outcome.report.render_pretty()),
            }
            if failed {
                std::process::exit(1);
            }
        }
    }
}
