//! Text tooling over trace and report artifacts.
//!
//! ```text
//! trace summary FILE   per-event-name roll-up of a chrome-trace file
//! trace flame FILE     indented text flamegraph of a chrome-trace file
//! trace canon FILE [--drop-output id,id,...]
//!                      canonicalize a `reproduce --json` report
//!                      (strip wall-clock fields) and print it
//! ```
//!
//! `summary`/`flame` read the Chrome Trace Event Format JSON written by
//! `reproduce --trace-out`, `fuzz --trace-out`, or `bench --trace-out`.
//! `canon` is the CI determinism gate: two canonicalized reports must
//! be byte-identical regardless of `--jobs`, cache state, or tracing.
//! `--drop-output` additionally strips the captured stdout of the named
//! experiments — the running-time tables print measured milliseconds,
//! which is wall-clock data like `wall_ms` itself. Usage errors (an
//! unknown command or flag, a flag without its value, `--drop-output`
//! outside `canon`) exit 2.

use rtise_obs::args::Args;
use rtise_obs::json::parse;
use rtise_trace::view;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = Args::parse("trace summary|flame|canon FILE", "--drop-output ID,...");
    let [cmd, path] = args.operands() else {
        args.fail("expected a command and a FILE");
    };
    if !matches!(cmd.as_str(), "summary" | "flame" | "canon") {
        args.fail(format!("unknown command {cmd:?}"));
    }
    let drop_output = args.value("--drop-output");
    if drop_output.is_some() && cmd != "canon" {
        args.fail("--drop-output applies to canon only");
    }
    let drop_output: Vec<&str> = drop_output
        .unwrap_or_default()
        .split(',')
        .filter(|s| !s.is_empty())
        .collect();
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"));
    let rendered = text.and_then(|text| {
        let doc = parse(&text).map_err(|e| e.to_string())?;
        match cmd.as_str() {
            "summary" => view::summary_lines(&doc).map(|lines| lines.join("\n") + "\n"),
            "flame" => view::flame_lines(&doc).map(|lines| lines.join("\n") + "\n"),
            _ => Ok(view::canon_report(&doc, &drop_output).render_pretty()),
        }
        .map_err(|e| format!("{path}: {e}"))
    });
    match rendered {
        Ok(out) => {
            print!("{out}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("trace: {e}");
            ExitCode::FAILURE
        }
    }
}
