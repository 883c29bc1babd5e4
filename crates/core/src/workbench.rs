//! The end-to-end customization pipeline (Fig. 1.3): kernel → profile →
//! candidate identification → configuration curve → task specification.

use rtise_ir::hw::HwModel;
use rtise_ise::candidate::{harvest, HarvestOptions};
use rtise_ise::configs::ConfigCurve;
use rtise_ise::enumerate::EnumerateOptions;
use rtise_kernels::by_name;
use rtise_select::task::{periods_for_utilization, TaskSpec};
use std::fmt;

/// Tuning of the per-task curve generation.
#[derive(Debug, Clone, Copy)]
pub struct CurveOptions {
    /// Candidate-harvest options (port budget, caps, cold-block cutoff).
    pub harvest: HarvestOptions,
    /// Number of area budgets swept when building the curve.
    pub n_budgets: usize,
    /// Candidate-count threshold below which each budget is solved exactly.
    pub exact_threshold: usize,
}

impl CurveOptions {
    /// The full-quality settings used by the experiment harness.
    pub fn thorough() -> Self {
        CurveOptions {
            harvest: HarvestOptions::default(),
            n_budgets: 24,
            exact_threshold: 24,
        }
    }

    /// Reduced settings for unit tests and doc examples.
    pub fn fast() -> Self {
        CurveOptions {
            harvest: HarvestOptions {
                enumerate: EnumerateOptions {
                    max_candidates: 300,
                    max_nodes: 12,
                    ..EnumerateOptions::default()
                },
                top_per_block: 8,
                min_exec_count: 2,
            },
            n_budgets: 8,
            exact_threshold: 0,
        }
    }
}

impl Default for CurveOptions {
    fn default() -> Self {
        CurveOptions::thorough()
    }
}

/// Errors from the workbench pipeline.
#[derive(Debug)]
pub enum WorkbenchError {
    /// The named kernel does not exist in the suite.
    UnknownKernel(String),
    /// The kernel failed to execute or validate.
    Kernel(rtise_kernels::ValidateKernelError),
}

impl fmt::Display for WorkbenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkbenchError::UnknownKernel(n) => write!(f, "unknown kernel {n:?}"),
            WorkbenchError::Kernel(e) => write!(f, "kernel failed: {e}"),
        }
    }
}

impl std::error::Error for WorkbenchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WorkbenchError::UnknownKernel(_) => None,
            WorkbenchError::Kernel(e) => Some(e),
        }
    }
}

/// Builds the configuration curve of one benchmark kernel: run it
/// (validating against the reference), harvest custom-instruction
/// candidates from the profiled blocks, and sweep area budgets
/// (Fig. 3.1's staircase).
///
/// # Errors
///
/// See [`WorkbenchError`].
pub fn task_curve(name: &str, opts: CurveOptions) -> Result<ConfigCurve, WorkbenchError> {
    let kernel = by_name(name).ok_or_else(|| WorkbenchError::UnknownKernel(name.into()))?;
    let run = kernel.validate().map_err(WorkbenchError::Kernel)?;
    debug_assert_program_well_formed(&kernel.program, name);
    let hw = HwModel::default();
    let cands = harvest(&kernel.program, &run.block_counts, &hw, opts.harvest);
    debug_assert_candidates_legal(&kernel.program, &cands, &hw, &opts, name);
    let curve = ConfigCurve::generate(
        name,
        &cands,
        run.cycles,
        opts.n_budgets,
        opts.exact_threshold,
    );
    #[cfg(debug_assertions)]
    {
        let d = rtise_check::cert::check_curve(&curve);
        assert!(
            d.is_clean(),
            "workbench curve for {name} is defective:\n{d}"
        );
    }
    rtise_obs::record("workbench.curves", 1);
    Ok(curve)
}

/// Debug-build pipeline assertion: the kernel IR entering the pipeline
/// must pass the full well-formedness analysis. Compiled out in release
/// builds.
fn debug_assert_program_well_formed(program: &rtise_ir::cfg::Program, name: &str) {
    #[cfg(debug_assertions)]
    {
        let d = rtise_check::ir::check_program(program);
        assert!(d.is_clean(), "IR for {name} is ill-formed:\n{d}");
    }
    let _ = (program, name);
}

/// Debug-build pipeline assertion: every harvested candidate must pass
/// the independent legality and cost re-checks. Compiled out in release
/// builds.
fn debug_assert_candidates_legal(
    program: &rtise_ir::cfg::Program,
    cands: &[rtise_ise::CiCandidate],
    hw: &HwModel,
    opts: &CurveOptions,
    name: &str,
) {
    #[cfg(debug_assertions)]
    for (i, c) in cands.iter().enumerate() {
        let d = rtise_check::cert::check_ci_candidate(
            program,
            c,
            hw,
            opts.harvest.enumerate.max_in,
            opts.harvest.enumerate.max_out,
            i,
        );
        assert!(
            d.is_clean(),
            "harvested candidate {i} for {name} is illegal:\n{d}"
        );
    }
    let _ = (program, cands, hw, opts, name);
}

/// Builds [`TaskSpec`]s for the named kernels with periods derived from a
/// target initial utilization `u0` (the workload construction of §3.2).
///
/// # Errors
///
/// See [`WorkbenchError`].
pub fn task_specs(
    names: &[&str],
    u0: f64,
    opts: CurveOptions,
) -> Result<Vec<TaskSpec>, WorkbenchError> {
    let curves: Vec<ConfigCurve> = names
        .iter()
        .map(|n| task_curve(n, opts))
        .collect::<Result<_, _>>()?;
    let bases: Vec<u64> = curves.iter().map(|c| c.base_cycles).collect();
    let periods = periods_for_utilization(&bases, u0);
    Ok(curves
        .into_iter()
        .zip(periods)
        .map(|(curve, p)| TaskSpec::new(curve, p))
        .collect())
}

/// The `Max_Area` of a task set: the sum of the constituent tasks' maximum
/// configuration areas (§3.2).
pub fn max_area(specs: &[TaskSpec]) -> u64 {
    specs.iter().map(|s| s.curve.max_area()).sum()
}

/// Builds a Chapter 6 runtime-reconfiguration instance from a benchmark
/// kernel: detect its hot loops, record the loop-entry trace, and derive
/// per-loop CIS versions by sweeping `n_versions` area budgets over the
/// loop's candidate library (the flow of Fig. 6.3).
///
/// `max_area` is the fabric size per configuration and `reconfig_cost` the
/// per-reconfiguration cycle penalty.
///
/// # Errors
///
/// See [`WorkbenchError`].
pub fn reconfig_problem(
    name: &str,
    n_versions: usize,
    max_area: u64,
    reconfig_cost: u64,
    opts: CurveOptions,
) -> Result<rtise_reconfig::ReconfigProblem, WorkbenchError> {
    use rtise_reconfig::{CisVersion, HotLoop, ReconfigProblem};

    let kernel = by_name(name).ok_or_else(|| WorkbenchError::UnknownKernel(name.into()))?;
    let run = kernel
        .run_traced()
        .map_err(|e| WorkbenchError::Kernel(rtise_kernels::ValidateKernelError::Sim(e)))?;
    let trace_blocks = run.trace.as_ref().expect("trace enabled");
    let hw = HwModel::default();
    let cfg = rtise_ir::cfg::Cfg::analyze(&kernel.program);

    // Hot loops = innermost natural loops (an outer loop's block set
    // contains its inner loops, which would double-count gains) that take
    // at least 1 % of the application's execution time (§6.1's hot-loop
    // rule — cold loops cost partitioning time without paying for their
    // reconfigurations).
    let loop_cycles = |l: &rtise_ir::cfg::NaturalLoop| -> u64 {
        l.blocks
            .iter()
            .map(|&b| run.block_counts[b.0] * kernel.program.block(b).cost())
            .sum()
    };
    let hot_cutoff = run.cycles / 100;
    let loops: Vec<&rtise_ir::cfg::NaturalLoop> = cfg
        .loops()
        .iter()
        .filter(|l| {
            cfg.loops()
                .iter()
                .all(|other| other.header == l.header || !l.contains(other.header))
        })
        .filter(|l| loop_cycles(l) >= hot_cutoff)
        .collect();
    let mut hot = Vec::new();
    for l in &loops {
        // Candidate library restricted to this loop's blocks.
        let mut counts = vec![0u64; kernel.program.blocks.len()];
        for &b in &l.blocks {
            counts[b.0] = run.block_counts[b.0];
        }
        let cands = harvest(&kernel.program, &counts, &hw, opts.harvest);
        let curve = ConfigCurve::generate(
            format!("{name}:{}", kernel.program.block(l.header).name),
            &cands,
            run.cycles,
            n_versions,
            opts.exact_threshold,
        );
        #[cfg(debug_assertions)]
        {
            let d = rtise_check::cert::check_curve(&curve);
            assert!(
                d.is_clean(),
                "hot-loop curve {} is defective:\n{d}",
                curve.name
            );
        }
        let versions: Vec<CisVersion> = curve
            .points()
            .iter()
            .skip(1)
            .map(|p| CisVersion {
                area: p.area,
                gain: p.gain,
            })
            .collect();
        hot.push(HotLoop::new(curve.name.clone(), &versions));
    }

    // Loop-entry trace mapped to hot-loop indices.
    let entries = rtise_sim::loop_entry_trace(&kernel.program, trace_blocks);
    let trace: Vec<usize> = entries
        .iter()
        .filter_map(|h| loops.iter().position(|l| l.header == *h))
        .collect();

    let problem = ReconfigProblem {
        loops: hot,
        trace,
        max_area,
        reconfig_cost,
    };
    #[cfg(debug_assertions)]
    if let Err(e) = problem.validate() {
        panic!("workbench built an invalid reconfiguration problem for {name}: {e}");
    }
    Ok(problem)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curve_generation_produces_useful_tradeoffs() {
        let curve = task_curve("crc32", CurveOptions::fast()).expect("curve");
        assert!(curve.len() >= 2, "crc32 must have hardware configurations");
        assert!(curve.max_area() > 0);
        let best = curve.best_within(u64::MAX);
        assert!(best.cycles < curve.base_cycles);
        // The paper reports single-task gains in the 3.5–27 % range; ours
        // should at least achieve a nontrivial speedup.
        let speedup = curve.base_cycles as f64 / best.cycles as f64;
        assert!(speedup > 1.02, "speedup {speedup}");
    }

    #[test]
    fn unknown_kernel_is_reported() {
        assert!(matches!(
            task_curve("nope", CurveOptions::fast()),
            Err(WorkbenchError::UnknownKernel(_))
        ));
    }

    #[test]
    fn specs_hit_requested_initial_utilization() {
        let specs = task_specs(&["ndes", "fir"], 1.05, CurveOptions::fast()).expect("specs");
        let u0: f64 = specs.iter().map(|s| s.base_utilization()).sum();
        assert!((u0 - 1.05).abs() < 0.02, "u0 = {u0}");
        assert!(max_area(&specs) > 0);
    }
}
