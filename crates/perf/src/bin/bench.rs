//! Solver-kernel benchmark driver.
//!
//! ```text
//! bench [--smoke] [--seed N] [--out PATH] [--baseline PATH] [--factor X]
//!       [--trace-out PATH] [--list]
//! ```
//!
//! Sweeps every kernel pair over its input sizes, prints a summary table,
//! and writes the versioned BENCH JSON to `--out` (stdout otherwise).
//! With `--baseline`, compares the fresh run against a committed
//! `BENCH_N.json` and exits non-zero when any (kernel, size) point is more
//! than `--factor` (default 2.5) times slower. `--smoke` keeps the same
//! sweep but takes fewer samples, so CI can gate cheaply against a
//! full-mode baseline. `--trace-out` records a real-clock Chrome Trace of
//! the whole sweep — one track per kernel, solver search-tree events
//! included — schema-checked before it is written.

use std::process::ExitCode;

use rtise_perf::kernels::{run_kernel, sizes, KERNELS};
use rtise_perf::measure::MeasureOptions;
use rtise_perf::report;

fn usage() -> ! {
    eprintln!(
        "usage: bench [--smoke] [--seed N] [--out PATH] [--baseline PATH] [--factor X] \
         [--trace-out PATH] [--list]\n\
         kernels: {}",
        KERNELS.join(", ")
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut smoke = false;
    let mut seed = 5u64;
    let mut out_path: Option<String> = None;
    let mut baseline_path: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut factor = 2.5f64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--seed" => {
                let v = args.next().unwrap_or_else(|| usage());
                seed = v.parse().unwrap_or_else(|_| usage());
            }
            "--out" => out_path = Some(args.next().unwrap_or_else(|| usage())),
            "--baseline" => baseline_path = Some(args.next().unwrap_or_else(|| usage())),
            "--trace-out" => trace_path = Some(args.next().unwrap_or_else(|| usage())),
            "--factor" => {
                let v = args.next().unwrap_or_else(|| usage());
                factor = v.parse().unwrap_or_else(|_| usage());
                if !(factor.is_finite() && factor >= 1.0) {
                    usage();
                }
            }
            "--list" => {
                for k in KERNELS {
                    println!("{k} {:?}", sizes(k));
                }
                return ExitCode::SUCCESS;
            }
            _ => usage(),
        }
    }

    let (mode, m) = if smoke {
        ("smoke", MeasureOptions::smoke())
    } else {
        ("full", MeasureOptions::full())
    };
    println!(
        "bench mode={mode} seed={seed} warmup={} iters={}",
        m.warmup, m.iters
    );

    let mut results = Vec::new();
    let mut trace_scopes: Vec<(String, rtise_obs::Scope)> = Vec::new();
    for &kernel in KERNELS {
        let scope = trace_path
            .as_ref()
            .map(|_| rtise_obs::Scope::with_clock(rtise_trace::Clock::Real));
        let points = {
            let _guard = scope.as_ref().map(rtise_obs::Scope::enter);
            let _span = scope
                .as_ref()
                .map(|_| rtise_trace::span(kernel.to_string()));
            run_kernel(kernel, seed, &m)
        };
        for p in &points {
            println!(
                "  {kernel:<9} size {:>3}  ref {:>12.1} ns/op  opt {:>12.1} ns/op  \
                 p99 {:>12.1} ns/op  speedup {:>6.2}x",
                p.size, p.ref_ns_op, p.opt_ns_op, p.p99_ns_op, p.speedup
            );
        }
        results.push((kernel.to_string(), points));
        if let Some(s) = scope {
            trace_scopes.push((kernel.to_string(), s));
        }
    }

    let doc = report::build(mode, seed, &m, &results);
    if let Err(e) = report::validate(&doc) {
        eprintln!("generated report failed its own schema check: {e}");
        return ExitCode::FAILURE;
    }
    let rendered = doc.render_pretty() + "\n";
    match &out_path {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &rendered) {
                eprintln!("cannot write report to {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("BENCH report written to {path}");
        }
        None => print!("{rendered}"),
    }

    if let Some(path) = trace_path {
        let trace_doc = rtise_trace::chrome::chrome_trace(&trace_scopes);
        let diags = rtise_check::trace::check_chrome_trace(&trace_doc);
        if !diags.is_clean() {
            eprintln!("trace artifact failed the chrome-trace schema check:\n{diags}");
            return ExitCode::FAILURE;
        }
        if let Err(e) = std::fs::write(&path, trace_doc.render_pretty()) {
            eprintln!("cannot write trace to {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("chrome trace written to {path}");
    }

    if let Some(path) = baseline_path {
        let src = match std::fs::read_to_string(&path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cannot read baseline {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let baseline = match rtise_obs::json::parse(&src) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("baseline {path} is not valid JSON: {e:?}");
                return ExitCode::FAILURE;
            }
        };
        match report::compare(&doc, &baseline, factor) {
            Ok(regressions) if regressions.is_empty() => {
                println!("no regression beyond {factor}x vs {path}");
            }
            Ok(regressions) => {
                for r in &regressions {
                    eprintln!(
                        "REGRESSION {} size {}: {:.1} ns/op vs baseline {:.1} ns/op ({:.2}x > {factor}x)",
                        r.kernel, r.size, r.current_ns, r.baseline_ns, r.ratio
                    );
                }
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("baseline comparison failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    ExitCode::SUCCESS
}
