//! Layer 3: the fuzzing campaign driver.
//!
//! Runs `iters` cases per family, certifies every solution, minimizes any
//! failure and reports a one-line reproduction command. Progress and
//! throughput are reported as an obs-JSON tree: one child per family
//! with case/failure counters and an instances/sec gauge, plus the
//! solver-side counters (DP cells, B&B nodes, …) the campaign provoked.

use crate::minimize::minimize;
use crate::oracle::{Family, Instance};
use rtise_obs::json::Value;
use rtise_obs::{Rng, Scope, Timer};
use std::collections::BTreeMap;

/// Campaign configuration.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Campaign seed; case `i` of every family derives its own seed from
    /// it, and case 0 uses it verbatim.
    pub seed: u64,
    /// Cases per family.
    pub iters: u64,
    /// Families to drive.
    pub families: Vec<Family>,
    /// Worker threads per family (1 = serial). Case seeds derive from the
    /// case *index*, so any worker count runs the identical case set and
    /// reports failures in the identical (family, case-index) order.
    pub jobs: usize,
    /// When `Some`, every sweep lane's scope also stores solver spans and
    /// search-tree events on this clock, surfaced as
    /// [`FuzzOutcome::trace`]. Tracing never feeds the
    /// deterministic obs report — `--json` is identical with it on or off.
    pub trace: Option<rtise_trace::Clock>,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 0xDA7E_2007,
            iters: 100,
            families: Family::ALL.to_vec(),
            jobs: 1,
            trace: None,
        }
    }
}

/// A minimized failing case.
#[derive(Debug, Clone)]
pub struct FailureReport {
    /// Family the case belongs to.
    pub family: Family,
    /// Seed that regenerates the instance.
    pub case_seed: u64,
    /// Primary diagnostic code (stable `rtise-check` or `DIFF*` code).
    pub code: String,
    /// Evidence for the primary finding.
    pub detail: String,
    /// Structural size before/after shrinking.
    pub original_size: usize,
    /// Structural size after shrinking.
    pub minimized_size: usize,
    /// One-line description of the minimized instance.
    pub minimized: String,
    /// One-line command that regenerates the failing case.
    pub repro: String,
}

/// Per-family campaign statistics.
#[derive(Debug, Clone)]
pub struct FamilyStats {
    /// The family.
    pub family: Family,
    /// Cases run.
    pub cases: u64,
    /// Failing cases.
    pub failures: u64,
    /// Diagnostics across the failing cases.
    pub findings: u64,
    /// Instances per second.
    pub rate: f64,
    /// Wall time of the family's sweep and minimization, in milliseconds.
    pub wall_ms: f64,
}

impl FamilyStats {
    /// The family's node of the obs-JSON report: `name`, `wall_ms`,
    /// `counters` (`cases`, `failures`, and `findings` once anything
    /// failed) and the `instances_per_sec` gauge.
    fn to_json(&self) -> Value {
        let mut counters = BTreeMap::from([
            ("cases".to_string(), self.cases),
            ("failures".to_string(), self.failures),
        ]);
        if self.failures > 0 {
            counters.insert("findings".to_string(), self.findings);
        }
        report_node(
            self.family.name(),
            self.wall_ms,
            &counters,
            self.rate,
            Vec::new(),
        )
    }
}

/// One node of the obs-JSON report tree; `children` is omitted when
/// empty.
fn report_node(
    name: &str,
    wall_ms: f64,
    counters: &BTreeMap<String, u64>,
    rate: f64,
    children: Vec<Value>,
) -> Value {
    let mut fields = vec![
        ("name", name.into()),
        ("wall_ms", wall_ms.into()),
        ("counters", counters.into()),
        (
            "gauges",
            Value::obj(vec![("instances_per_sec", rate.into())]),
        ),
    ];
    if !children.is_empty() {
        fields.push(("children", Value::Arr(children)));
    }
    Value::obj(fields)
}

/// Result of a fuzzing campaign.
#[derive(Debug, Clone)]
pub struct FuzzOutcome {
    /// Total cases run.
    pub cases: u64,
    /// Per-family statistics.
    pub stats: Vec<FamilyStats>,
    /// Minimized failures, in discovery order.
    pub failures: Vec<FailureReport>,
    /// Solver counters the campaign provoked, sweeps and minimization
    /// alike.
    pub counters: BTreeMap<String, u64>,
    /// Campaign wall time in milliseconds.
    pub elapsed_ms: f64,
    /// Per-lane scopes (`family/wN`), present when [`FuzzConfig::trace`]
    /// asked for them — one Chrome Trace track per sweep lane, so
    /// concurrent workers' spans never interleave.
    pub trace: Vec<(String, Scope)>,
}

impl FuzzOutcome {
    /// Whether every case was certified clean.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }

    /// JSON form: the obs report plus a `failures` array, suitable for CI
    /// artifacts. The `report` tree's root carries the campaign totals
    /// and the solver counters under a `solver.` prefix; its children are
    /// the families.
    pub fn to_json(&self) -> Value {
        let mut counters: BTreeMap<String, u64> = self
            .counters
            .iter()
            .map(|(k, &v)| (format!("solver.{k}"), v))
            .collect();
        counters.insert("cases".to_string(), self.cases);
        counters.insert("failures".to_string(), self.failures.len() as u64);
        let rate = self.cases as f64 / (self.elapsed_ms / 1e3).max(1e-9);
        let families = self.stats.iter().map(FamilyStats::to_json).collect();
        let report = report_node("fuzz", self.elapsed_ms, &counters, rate, families);
        Value::obj(vec![
            ("cases", Value::Num(self.cases as f64)),
            ("elapsed_ms", Value::Num(self.elapsed_ms)),
            (
                "failures",
                Value::Arr(
                    self.failures
                        .iter()
                        .map(|f| {
                            Value::obj(vec![
                                ("family", Value::Str(f.family.name().to_string())),
                                ("case_seed", Value::Num(f.case_seed as f64)),
                                ("code", Value::Str(f.code.clone())),
                                ("detail", Value::Str(f.detail.clone())),
                                ("original_size", Value::Num(f.original_size as f64)),
                                ("minimized_size", Value::Num(f.minimized_size as f64)),
                                ("minimized", Value::Str(f.minimized.clone())),
                                ("repro", Value::Str(f.repro.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("report", report),
        ])
    }
}

/// Derives the seed of case `index`: case 0 *is* the campaign seed, so a
/// failure's `--seed <case_seed> --iters 1` command regenerates the exact
/// instance; later cases get decorrelated seeds through a SplitMix64 mix.
pub fn case_seed(seed: u64, index: u64) -> u64 {
    if index == 0 {
        seed
    } else {
        Rng::new(seed.wrapping_add(index)).next_u64()
    }
}

/// Cap on minimizer oracle invocations per failure.
const MAX_SHRINK_ATTEMPTS: u64 = 4_000;

/// A failing case as discovered by a (possibly parallel) sweep, before
/// minimization: `(case index, case seed, instance, findings, first code)`.
type RawFailure = (u64, u64, Instance, u64, String);

/// Sweeps one family's cases over `jobs` workers, returning the failing
/// cases sorted by case index plus each worker's lane scope, labelled
/// `family/wN`. Each case derives its seed from its index alone, and each
/// worker records into its own lane, which the caller attributes to the
/// campaign — so the case set, the failure order, and the counter totals
/// are all independent of the worker count (only per-case wall times
/// vary).
fn sweep_family(family: Family, cfg: &FuzzConfig) -> (Vec<RawFailure>, Vec<(String, Scope)>) {
    let run_case = |i: u64| -> Option<RawFailure> {
        let cs = case_seed(cfg.seed, i);
        let mut rng = Rng::new(cs);
        let instance = Instance::generate(family, &mut rng);
        let findings = instance.run();
        findings
            .first()
            .map(|f| (i, cs, instance, findings.len() as u64, f.code.clone()))
    };
    let jobs = cfg.jobs.max(1).min(cfg.iters.max(1) as usize);
    let next = std::sync::atomic::AtomicU64::new(0);
    let (mut found, lanes) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..jobs)
            .map(|w| {
                let (run_case, next) = (&run_case, &next);
                s.spawn(move || {
                    let lane = cfg.trace.map_or_else(Scope::new, Scope::with_clock);
                    let found = {
                        let _guard = lane.enter();
                        let _span = cfg
                            .trace
                            .map(|_| rtise_trace::span(family.name().to_string()));
                        let mut found = Vec::new();
                        loop {
                            let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            if i >= cfg.iters {
                                break found;
                            }
                            found.extend(run_case(i));
                        }
                    };
                    (found, (format!("{}/w{w}", family.name()), lane))
                })
            })
            .collect();
        let mut found = Vec::new();
        let mut lanes = Vec::new();
        for h in handles {
            let (f, lane) = h.join().expect("fuzz worker panicked");
            found.extend(f);
            lanes.push(lane);
        }
        (found, lanes)
    });
    found.sort_by_key(|f| f.0);
    (found, lanes)
}

/// Runs a fuzzing campaign.
pub fn run(cfg: &FuzzConfig) -> FuzzOutcome {
    let total_timer = Timer::start();
    // Scope the campaign so the solver-work counters in the report count
    // exactly what this campaign provoked, even when other campaigns or
    // tests run concurrently in the same process.
    let scope = Scope::new();
    let scope_guard = scope.enter();
    let mut stats = Vec::new();
    let mut failures = Vec::new();
    let mut trace = Vec::new();
    let mut cases = 0u64;
    for &family in &cfg.families {
        let fam_timer = Timer::start();
        cases += cfg.iters;
        let (found, lanes) = sweep_family(family, cfg);
        for (_, lane) in &lanes {
            rtise_obs::attribute(&lane.counters());
            rtise_obs::attribute_hists(&lane.hists());
        }
        if cfg.trace.is_some() {
            trace.extend(lanes);
        }
        // Minimization stays on this thread, in case-index order: failure
        // reports are byte-identical for every `--jobs` value.
        let mut findings = 0u64;
        let fam_failures = found.len() as u64;
        for (_, cs, instance, n_findings, code) in found {
            findings += n_findings;
            failures.push(minimize_failure(family, cs, instance, code));
        }
        let wall_ms = fam_timer.elapsed_ms();
        stats.push(FamilyStats {
            family,
            cases: cfg.iters,
            failures: fam_failures,
            findings,
            rate: cfg.iters as f64 / (wall_ms / 1e3).max(1e-9),
            wall_ms,
        });
    }
    drop(scope_guard);
    FuzzOutcome {
        cases,
        stats,
        failures,
        counters: scope.counters(),
        elapsed_ms: total_timer.elapsed_ms(),
        trace,
    }
}

fn minimize_failure(family: Family, cs: u64, instance: Instance, code: String) -> FailureReport {
    let original_size = instance.size();
    let min = minimize(
        instance,
        Instance::shrink,
        |i| i.run().iter().any(|f| f.code == code),
        MAX_SHRINK_ATTEMPTS,
    );
    let detail = min
        .instance
        .run()
        .into_iter()
        .find(|f| f.code == code)
        .map(|f| f.detail)
        .unwrap_or_default();
    FailureReport {
        family,
        case_seed: cs,
        code,
        detail,
        original_size,
        minimized_size: min.instance.size(),
        minimized: min.instance.describe(),
        repro: format!(
            "cargo run -p rtise-fuzz --bin fuzz -- --family {} --seed {cs} --iters 1",
            family.name()
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_zero_seed_is_the_campaign_seed() {
        assert_eq!(case_seed(7, 0), 7);
        assert_ne!(case_seed(7, 1), case_seed(7, 2));
        // A repro run (`--iters 1`) regenerates case i of the original
        // campaign as its case 0.
        assert_eq!(case_seed(case_seed(7, 3), 0), case_seed(7, 3));
    }

    #[test]
    fn campaigns_are_deterministic_and_clean_on_the_smoke_seed() {
        let cfg = FuzzConfig {
            seed: 7,
            iters: 8,
            families: Family::ALL.to_vec(),
            jobs: 1,
            trace: None,
        };
        let a = run(&cfg);
        let b = run(&cfg);
        assert!(a.is_clean(), "{:?}", a.failures);
        assert_eq!(a.cases, 8 * Family::ALL.len() as u64);
        assert_eq!(b.cases, a.cases);
        assert_eq!(b.failures.len(), a.failures.len());
        // The report carries per-family nodes with case counters.
        assert_eq!(a.stats.len(), Family::ALL.len());
        assert!(a.stats.iter().all(|s| s.cases == 8));
        let children = a.to_json();
        let children = children
            .get("report")
            .and_then(|r| r.get("children"))
            .and_then(Value::as_arr)
            .expect("family nodes");
        assert_eq!(children.len(), Family::ALL.len());
        for child in children {
            let cases = child.get("counters").and_then(|c| c.get("cases"));
            assert_eq!(cases.and_then(Value::as_f64), Some(8.0));
        }
    }

    /// `--jobs` must be invisible in everything but wall time: identical
    /// case set, failure list, and counter totals (campaign and
    /// per-family) for any worker count.
    #[test]
    fn worker_counts_do_not_change_the_outcome() {
        let mut cfg = FuzzConfig {
            seed: 0xF00D,
            iters: 12,
            families: Family::ALL.to_vec(),
            jobs: 1,
            trace: None,
        };
        let serial = run(&cfg);
        cfg.jobs = 4;
        let parallel = run(&cfg);
        assert_eq!(parallel.cases, serial.cases);
        assert_eq!(
            format!("{:?}", parallel.failures),
            format!("{:?}", serial.failures),
            "failure reports diverge across worker counts"
        );
        assert_eq!(
            parallel.counters, serial.counters,
            "campaign counter totals diverge across worker counts"
        );
        for (p, s) in parallel.stats.iter().zip(&serial.stats) {
            assert_eq!(p.family, s.family);
            assert_eq!(
                (p.cases, p.failures, p.findings),
                (s.cases, s.failures, s.findings),
                "family {} counters diverge across worker counts",
                p.family.name()
            );
        }
    }
}
