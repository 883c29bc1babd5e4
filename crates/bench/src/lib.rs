//! # rtise-bench
//!
//! The experiment harness: one function per table/figure of the paper's
//! evaluation, each printing the same rows/series the paper reports (shape
//! reproduction — absolute numbers differ because the substrate is our
//! simulator, not the authors' Tensilica/Trimaran testbed).
//!
//! Run everything with `cargo run --release -p rtise-bench --bin reproduce`,
//! or name experiments: `reproduce fig3_3 tab6_1`.

pub mod capture;
pub mod certify;
pub mod ch3;
pub mod ch4;
pub mod ch5;
pub mod ch6;
pub mod ch7;
pub mod ch8;
pub mod curvecache;
pub mod ext;
pub mod pool;
pub mod problemcache;
pub mod store;
mod util;

pub use util::{
    cache_stats, cached_curve, cached_curve_with, cached_jpeg_problem, cached_jpeg_problem_with,
    clear_curve_memo, reset_cache_stats, set_cache_dir, set_curve_options_override,
    set_generation_trace_clock, specs_for_with, take_generation_traces,
};

/// All experiment ids in paper order.
pub const ALL: &[(&str, fn())] = &[
    ("fig3_1", ch3::fig3_1),
    ("fig3_2", ch3::fig3_2),
    ("fig3_3", ch3::fig3_3),
    ("fig3_4", ch3::fig3_4),
    ("fig4_1", ch4::fig4_1),
    ("tab4_2", ch4::tab4_2),
    ("fig4_4", ch4::fig4_4),
    ("tab5_1", ch5::tab5_1),
    ("fig5_3", ch5::fig5_3),
    ("fig5_4", ch5::fig5_4),
    ("fig5_5", ch5::fig5_5),
    ("fig5_6", ch5::fig5_6),
    ("tab6_1", ch6::tab6_1),
    ("fig6_8", ch6::fig6_8),
    ("tab6_2", ch6::tab6_2),
    ("fig6_10", ch6::fig6_10),
    ("tab7_1", ch7::tab7_1),
    ("fig7_4", ch7::fig7_4),
    ("tab7_2", ch7::tab7_2),
    ("fig8_4", ch8::fig8_4),
    ("ext_arch", ext::ext_arch),
    ("ext_ablation", ext::ext_ablation),
];

/// Outcome of one observed experiment run: wall time, captured output
/// lines, and the solver counters it incremented (collected through a
/// [`rtise_obs::Scope`], so concurrent experiments never see each other's
/// work).
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Experiment id.
    pub id: String,
    /// Whether the experiment completed without panicking.
    pub ok: bool,
    /// Wall-clock time of the run in milliseconds.
    pub wall_ms: f64,
    /// The experiment's printed result series, one entry per line.
    pub output: Vec<String>,
    /// Solver counters incremented during the run.
    pub counters: std::collections::BTreeMap<String, u64>,
    /// Solver histograms observed during the run (search depths, DP
    /// sizes). Deterministic: the search trees they describe are.
    pub hists: std::collections::BTreeMap<String, rtise_obs::Hist>,
}

impl RunReport {
    /// The report as a JSON value (`id`, `ok`, `wall_ms`, `counters`,
    /// `hists` when any were observed, `output`). Histograms are
    /// embedded as their percentile summaries
    /// ([`rtise_obs::Hist::summary_json`]), not raw buckets.
    pub fn to_json(&self) -> rtise_obs::json::Value {
        use rtise_obs::json::Value;
        let mut fields = vec![
            ("id".into(), Value::from(self.id.as_str())),
            ("ok".into(), Value::Bool(self.ok)),
            ("wall_ms".into(), Value::Num(self.wall_ms)),
            ("counters".into(), Value::from(&self.counters)),
        ];
        if !self.hists.is_empty() {
            fields.push((
                "hists".into(),
                Value::Obj(
                    self.hists
                        .iter()
                        .map(|(k, h)| (k.clone(), h.summary_json()))
                        .collect(),
                ),
            ));
        }
        fields.push((
            "output".into(),
            Value::Arr(
                self.output
                    .iter()
                    .map(|l| Value::from(l.as_str()))
                    .collect(),
            ),
        ));
        Value::Obj(fields)
    }
}

/// Runs one experiment by id, capturing output, wall time, and counter
/// deltas. A panicking experiment is reported with `ok = false` rather
/// than aborting the harness. With `quiet`, output is buffered into the
/// report without echoing to stdout, so a worker pool can run experiments
/// concurrently and replay each report in paper order.
///
/// Counters are collected through a thread-scoped [`rtise_obs::Scope`]
/// — the experiment's deltas are exactly its own work (plus
/// [attributed](rtise_obs::attribute) shares of
/// memoized artifacts), no matter what other experiments run concurrently
/// in the process.
///
/// # Errors
///
/// Returns the unknown id back to the caller.
pub fn run_observed_with(id: &str, quiet: bool) -> Result<RunReport, String> {
    run_observed_traced(id, quiet, None).map(|(report, _)| report)
}

/// Like [`run_observed_with`], but optionally tracing: when `trace_clock`
/// is `Some`, the experiment's scope stores events on that clock, wrapped
/// in a root span named after the experiment, and the populated scope is
/// returned alongside the report so the caller can merge scopes into a
/// Chrome Trace document.
///
/// # Errors
///
/// Returns the unknown id back to the caller.
pub fn run_observed_traced(
    id: &str,
    quiet: bool,
    trace_clock: Option<rtise_trace::Clock>,
) -> Result<(RunReport, Option<rtise_obs::Scope>), String> {
    let Some((_, f)) = ALL.iter().find(|(name, _)| *name == id) else {
        return Err(format!("unknown experiment {id:?}"));
    };
    capture::begin(quiet);
    let scope = trace_clock.map_or_else(rtise_obs::Scope::new, rtise_obs::Scope::with_clock);
    let timer = rtise_obs::Timer::start();
    let ok = {
        let _guard = scope.enter();
        let _span = trace_clock.map(|_| rtise_trace::span(id.to_string()));
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).is_ok()
    };
    let wall_ms = timer.elapsed_ms();
    let counters = scope.counters();
    let hists = scope.hists();
    let output = capture::take();
    Ok((
        RunReport {
            id: id.into(),
            ok,
            wall_ms,
            output,
            counters,
            hists,
        },
        trace_clock.map(|_| scope),
    ))
}

/// The closest known experiment id to `input` by edit distance — the
/// harness suggests it when rejecting an unknown id.
pub fn nearest_id(input: &str) -> &'static str {
    ALL.iter()
        .map(|(name, _)| *name)
        .min_by_key(|name| levenshtein(input, name))
        .expect("ALL is non-empty")
}

fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    // One rolling row of the classic DP.
    let mut row: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut diag = row[0];
        row[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = diag + usize::from(ca != cb);
            diag = row[j + 1];
            row[j + 1] = sub.min(diag + 1).min(row[j] + 1);
        }
    }
    row[b.len()]
}

/// The harness report document: total wall time, disk-cache traffic, and
/// one entry per experiment (see [`RunReport::to_json`]).
pub fn report_json(reports: &[RunReport], total_wall_ms: f64) -> rtise_obs::json::Value {
    use rtise_obs::json::Value;
    let (hits, misses, stores) = cache_stats();
    Value::obj(vec![
        ("total_wall_ms", Value::Num(total_wall_ms)),
        (
            "cache",
            Value::obj(vec![
                ("hits", hits.into()),
                ("misses", misses.into()),
                ("stores", stores.into()),
            ]),
        ),
        (
            "experiments",
            Value::Arr(reports.iter().map(RunReport::to_json).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    #[test]
    fn nearest_id_suggests_the_obvious_neighbor() {
        assert_eq!(super::nearest_id("tab42"), "tab4_2");
        assert_eq!(super::nearest_id("fig3_2"), "fig3_2");
        assert_eq!(super::nearest_id("ext_ablatoin"), "ext_ablation");
    }

    #[test]
    fn levenshtein_ground_truth() {
        assert_eq!(super::levenshtein("", "abc"), 3);
        assert_eq!(super::levenshtein("kitten", "sitting"), 3);
        assert_eq!(super::levenshtein("tab42", "tab4_2"), 1);
    }
}
