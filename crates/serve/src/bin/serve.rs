//! The exploration-service binary.
//!
//! Exactly one mode: `--stdin` (requests from stdin, responses to
//! stdout), `--listen ADDR` (TCP connections) or `loadtest` (seeded
//! traffic, a deterministic report); the flags are [`FLAGS`]. Common
//! flags: `--jobs <n>` (most requests computing at once, default every
//! core; the load test also runs that many client lanes),
//! `--cache-dir <dir>` (persist responses in the sharded artifact store).
//!
//! Under `--stdin` and on each connection, up to `--jobs` of the lines
//! already received compute at once, and answers leave in request order;
//! a lone line is answered on the thread that read it, as is a batch that
//! finds another reader's batch on the lanes. `--listen` serves at most
//! `MAX_CONNECTIONS` connections at once and drops one that is idle past
//! `READ_TIMEOUT` or stalled past `WRITE_TIMEOUT` (constants in
//! `rtise_serve::server`).
//!
//! The load test exits nonzero if any response fails independent
//! re-certification, the trace export is not schema-clean, or the hit
//! rate falls below `--min-hit-rate`. Usage errors (an unknown flag, a
//! flag without its value, `--jobs 0`, no mode or two) exit 2.

use rtise_obs::args::Args;
use rtise_serve::loadtest::{self, LoadtestConfig};
use rtise_serve::server::{run_tcp, serve_lines, Server, ServerConfig};
use std::path::PathBuf;
use std::sync::Arc;

const FLAGS: &str = "--stdin, --listen ADDR, --jobs N, --cache-dir DIR, --seed N, --requests N, \
                     --clock real|virtual, --json PATH, --trace-out PATH, --min-hit-rate PCT";

fn main() {
    let args = Args::parse("serve --stdin | --listen ADDR | loadtest [FLAG]...", FLAGS);
    if let Some(other) = args.operands().iter().find(|op| *op != "loadtest") {
        args.fail(format!("unknown argument {other:?}"));
    }
    let jobs = args.jobs().unwrap_or_else(rtise_obs::lanes::default_jobs);
    let cache_dir = args.value("--cache-dir").map(PathBuf::from);
    let seed = args.parsed("--seed").unwrap_or(42u64);
    let requests = match args.parsed::<usize>("--requests") {
        Some(0) => args.fail("--requests requires a positive count"),
        requests => requests.unwrap_or(1000),
    };
    let clock = args.clock("--clock").unwrap_or(rtise_trace::Clock::Virtual);
    let json_path = args.value("--json").map(PathBuf::from);
    let trace_out = args.value("--trace-out").map(PathBuf::from);
    let min_hit_rate = args.parsed::<f64>("--min-hit-rate").inspect(|pct| {
        if !(0.0..=100.0).contains(pct) {
            args.fail("--min-hit-rate requires a percentage in 0..=100");
        }
    });

    let loadtest = !args.operands().is_empty();
    match (args.has("--stdin"), args.value("--listen"), loadtest) {
        (true, None, false) => {
            let server = Server::new(ServerConfig { jobs, cache_dir });
            // Stdout, not its lock: a batch's answers are written from
            // its lanes.
            if let Err(e) = serve_lines(&server, std::io::stdin().lock(), std::io::stdout()) {
                eprintln!("serve: {e}");
                std::process::exit(1);
            }
        }
        (false, Some(addr), false) => {
            let server = Arc::new(Server::new(ServerConfig { jobs, cache_dir }));
            if let Err(e) = run_tcp(addr, &server) {
                eprintln!("serve: {e}");
                std::process::exit(1);
            }
        }
        (false, None, true) => {
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
        _ => args.fail("pick one mode: --stdin, --listen <addr>, or loadtest"),
    }
}
