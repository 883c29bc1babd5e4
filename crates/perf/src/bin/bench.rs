//! Solver-kernel benchmark driver; its flags are [`FLAGS`].
//!
//! Sweeps every kernel pair over its input sizes, prints a summary table,
//! and writes the versioned BENCH JSON to `--out` (stdout otherwise).
//! With `--baseline`, compares the fresh run against a committed
//! `BENCH_N.json` and exits non-zero when any (kernel, size) point is more
//! than [`REGRESSION_FACTOR`]
//! (2.5) times slower, plus a 2 µs noise floor. `--smoke` keeps the same
//! sweep but takes fewer samples, so CI can gate cheaply against a
//! full-mode baseline. `--trace-out` records a real-clock Chrome Trace of
//! the whole sweep — one track per kernel, solver search-tree events
//! included — schema-checked before it is written. Usage errors (an
//! unknown flag, a flag without its value) exit 2.

use std::path::PathBuf;
use std::process::ExitCode;

use rtise_obs::args::Args;
use rtise_perf::kernels::{run_kernel, sizes, KERNELS};
use rtise_perf::measure::MeasureOptions;
use rtise_perf::report::{self, REGRESSION_FACTOR};

const FLAGS: &str = "--smoke, --seed N, --out PATH, --baseline PATH, --trace-out PATH, --list";

fn main() -> ExitCode {
    let args = Args::parse(
        &format!("bench [FLAG]...\nkernels: {}", KERNELS.join(", ")),
        FLAGS,
    );
    if let Some(extra) = args.operands().first() {
        args.fail(format!("unexpected argument {extra:?}"));
    }
    if args.has("--list") {
        for k in KERNELS {
            println!("{k} {:?}", sizes(k));
        }
        return ExitCode::SUCCESS;
    }
    let smoke = args.has("--smoke");
    let seed: u64 = args.parsed("--seed").unwrap_or(5);
    let out_path = args.value("--out");
    let baseline_path = args.value("--baseline");
    let trace_path = args.value("--trace-out").map(PathBuf::from);

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
        if let Err(e) = rtise_check::trace::write_checked_trace(&path, &trace_doc) {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
        println!("chrome trace written to {}", path.display());
    }

    if let Some(path) = baseline_path {
        let baseline = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read baseline {path}: {e}"))
            .and_then(|src| {
                let parsed = rtise_obs::json::parse(&src);
                parsed.map_err(|e| format!("baseline {path} is not valid JSON: {e:?}"))
            });
        let compared = baseline.and_then(|baseline| {
            report::compare(&doc, &baseline).map_err(|e| format!("baseline comparison failed: {e}"))
        });
        match compared {
            Ok(regressions) if regressions.is_empty() => {
                println!("no regression beyond {REGRESSION_FACTOR}x vs {path}");
            }
            Ok(regressions) => {
                for r in &regressions {
                    eprintln!(
                        "REGRESSION {} size {}: {:.1} ns/op vs baseline {:.1} ns/op ({:.2}x > {REGRESSION_FACTOR}x)",
                        r.kernel, r.size, r.current_ns, r.baseline_ns, r.ratio
                    );
                }
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    }

    ExitCode::SUCCESS
}
