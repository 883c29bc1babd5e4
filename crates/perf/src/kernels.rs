//! The benchmarked kernel pairs.
//!
//! Each kernel times its optimized entry point against a second path on an
//! identical batch of seeded instances from [`rtise_fuzz::gen`]: the
//! retained `*_reference` implementation where one exists, and the
//! certified call of the same search for `ise_bnb`, which has one
//! implementation. `miso` also has one implementation and times it on
//! both sides. A "size" is the
//! knob that dominates each kernel's work: task count for the
//! schedulability DPs, variable count for the ILP, DFG node count for
//! enumeration, candidate-pool size for the ISE knapsack.

use std::collections::BTreeMap;
use std::hint::black_box;

use rtise_fuzz::gen;
use rtise_ilp::{Cmp, Model};
use rtise_ir::{Dfg, HwModel};
use rtise_ise::{CiCandidate, ConfigCurve, EnumerateOptions, HarvestOptions};
use rtise_obs::Rng;
use rtise_select::TaskSpec;
use rtise_trace::bnb::SearchOpts;

use crate::measure::{median_ns, sample_ns, MeasureOptions};

/// Stable benchmark identifiers, in report order.
pub const KERNELS: &[&str] = &[
    "edf_dp",
    "rms_bnb",
    "ilp_bnb",
    "enumerate",
    "miso",
    "ise_bnb",
];

/// Instances measured together per (kernel, size): one timed sample solves
/// the whole batch, amortizing `Instant` overhead on microsecond kernels.
pub const BATCH: usize = 8;

/// Input-size sweep per kernel. The sweep is IDENTICAL in smoke and full
/// mode — only sample counts differ — so a smoke run is comparable
/// against a committed full-mode baseline. Unknown kernels sweep nothing.
pub fn sizes(kernel: &str) -> &'static [usize] {
    match kernel {
        "edf_dp" => &[2, 4, 8, 16],
        "rms_bnb" => &[4, 6, 8],
        "ilp_bnb" => &[8, 14, 20],
        "enumerate" => &[12, 24, 48],
        "miso" => &[12, 24, 48, 96],
        "ise_bnb" => &[8, 14, 20, 26],
        _ => &[],
    }
}

/// One measured point of a kernel's size sweep.
#[derive(Debug, Clone)]
pub struct SizePoint {
    /// The swept input-size knob (see module docs for its meaning).
    pub size: usize,
    /// Instances solved per timed sample.
    pub batch: usize,
    /// Median reference-path nanoseconds per instance.
    pub ref_ns_op: f64,
    /// Median optimized-path nanoseconds per instance.
    pub opt_ns_op: f64,
    /// Exact p50 of the optimized-path samples (ns per instance), from a
    /// [`rtise_obs::Hist`] over the raw sample vector.
    pub p50_ns_op: f64,
    /// Exact p99 of the optimized-path samples (ns per instance).
    pub p99_ns_op: f64,
    /// `ref_ns_op / opt_ns_op`.
    pub speedup: f64,
    /// Solver counter deltas from one optimized batch execution, captured
    /// in an isolated [`rtise_obs::Scope`].
    pub counters: BTreeMap<String, u64>,
}

/// Derives the input-generation seed for a (kernel, size) cell: FNV-1a
/// over the kernel name, mixed with the campaign seed and the size so
/// every cell draws an independent SplitMix64 stream.
fn cell_seed(seed: u64, kernel: &str, size: usize) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in kernel.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (size as u64).rotate_left(17)
}

/// Concatenates seeded draws of [`gen::task_set`] until exactly `n` tasks
/// are available. Keeps the fuzz distributions while pinning the size knob
/// the sweep varies.
fn task_set_exact(rng: &mut Rng, n: usize, max_points: usize) -> Vec<TaskSpec> {
    let opts = gen::TaskSetOptions {
        max_tasks: n,
        max_points,
        ..Default::default()
    };
    let mut out = Vec::new();
    while out.len() < n {
        out.extend(gen::task_set(rng, &opts));
    }
    out.truncate(n);
    out
}

/// Half of the total maximum area — the constrained-but-feasible regime
/// where the selection DPs do the most work.
fn mid_budget(specs: &[TaskSpec]) -> u64 {
    specs.iter().map(|s| s.curve.max_area()).sum::<u64>() / 2
}

/// Gate-count granularity for the EDF DP benchmark: the generator draws
/// toy area units (increments of 1..=12), where the dense grid is tiny
/// and the sparse DP has nothing to skip. Real curves carry areas in
/// cells/gates; scaling by a prime stretches the grid (the gcd step stays
/// 1 against the +1 budget below) without changing the staircase shape —
/// both paths still compute the identical selection.
const AREA_SCALE: u64 = 97;

/// Rescales generated curves to gate-count areas (see [`AREA_SCALE`]).
fn gate_scale(specs: Vec<TaskSpec>) -> Vec<TaskSpec> {
    specs
        .into_iter()
        .map(|s| {
            let pairs: Vec<(u64, u64)> = s
                .curve
                .points()
                .iter()
                .filter(|p| p.area > 0)
                .map(|p| (p.area * AREA_SCALE, p.cycles))
                .collect();
            TaskSpec::new(
                ConfigCurve::from_points(s.curve.name.clone(), s.curve.base_cycles, &pairs),
                s.period,
            )
        })
        .collect()
}

/// Keeps roughly every third term of each generated row ((var + row)
/// stride, deterministic): the sparse-column regime the optimized ILP
/// search targets. The generator's rows are dense — most variables in
/// most rows — which no sparse representation can beat. Senses and
/// right-hand sides are preserved; feasibility may change, which is fine,
/// any model is a valid benchmark input.
fn sparsify(dense: &Model) -> Model {
    let mut out = Model::new(dense.num_vars());
    out.set_objective(dense.sense(), dense.objective());
    for i in 0..dense.num_rows() {
        let (terms, cmp, rhs) = dense.row(i);
        let kept: Vec<(usize, i64)> = terms
            .iter()
            .copied()
            .filter(|&(v, _)| (v + i) % 3 == 0)
            .collect();
        match cmp {
            Cmp::Le => out.add_le(&kept, rhs),
            Cmp::Ge => out.add_ge(&kept, rhs),
            Cmp::Eq => out.add_eq(&kept, rhs),
        }
    }
    out
}

/// Redraws until the model has exactly `vars` binary variables (the
/// generator picks `1..=max_vars` uniformly, so this terminates fast),
/// then thins it to the sparse-column regime (see [`sparsify`]).
fn ilp_model_exact(rng: &mut Rng, vars: usize) -> Model {
    let opts = gen::IlpOptions {
        max_vars: vars,
        max_rows: vars,
        ..gen::IlpOptions::default()
    };
    loop {
        let m = gen::ilp_model(rng, &opts);
        if m.num_vars() == vars {
            return sparsify(&m);
        }
    }
}

/// Redraws until the DFG has at least `nodes` nodes (inputs included), so
/// the sweep's upper sizes actually exercise large blocks.
fn dfg_at_least(rng: &mut Rng, nodes: usize) -> Dfg {
    let opts = gen::DfgOptions {
        max_inputs: 4,
        max_ops: nodes,
        load_prob: 0.08,
    };
    loop {
        let g = gen::dfg(rng, &opts);
        if g.len() >= nodes {
            return g;
        }
    }
}

/// Port constraints for the enumeration benchmarks: the paper's 4-in/2-out
/// register-file budget with caps high enough that the candidate count is
/// driven by the DFG, not the caps.
fn bench_enumerate_options() -> EnumerateOptions {
    EnumerateOptions {
        max_in: 4,
        max_out: 2,
        max_candidates: 4096,
        max_nodes: 12,
    }
}

/// Harvests seeded programs until `n` candidates accumulate, then truncates
/// to exactly `n`. Returns the pool plus a half-total-area budget.
fn candidate_pool(rng: &mut Rng, n: usize) -> (Vec<CiCandidate>, u64) {
    let opts = HarvestOptions {
        enumerate: EnumerateOptions {
            max_in: 4,
            max_out: 2,
            max_candidates: 512,
            max_nodes: 8,
        },
        top_per_block: n,
        min_exec_count: 0,
    };
    let dfg_opts = gen::DfgOptions {
        max_inputs: 4,
        max_ops: 14,
        load_prob: 0.05,
    };
    let mut pool = Vec::new();
    while pool.len() < n {
        let (program, exec) = gen::program(rng, &dfg_opts, 3);
        pool.extend(rtise_ise::harvest(
            &program,
            &exec,
            &HwModel::default(),
            opts,
        ));
    }
    pool.truncate(n);
    let budget = pool.iter().map(|c| c.area).sum::<u64>() / 2;
    (pool, budget)
}

/// Times the reference and optimized closures (median over batch samples)
/// and captures the optimized path's counters from one extra execution
/// inside an isolated scope. The optimized samples also feed a
/// [`rtise_obs::Hist`], whose exact p50/p99 land in the point: sample
/// counts are far below the histogram's exact-storage cap, so the
/// percentiles are order statistics, not bucket midpoints.
fn measure_cell(
    size: usize,
    reference: &mut dyn FnMut(),
    optimized: &mut dyn FnMut(),
    m: &MeasureOptions,
) -> SizePoint {
    let ref_ns_op = median_ns(&sample_ns(reference, m)) / BATCH as f64;
    let opt_samples = sample_ns(optimized, m);
    let opt_ns_op = median_ns(&opt_samples) / BATCH as f64;
    let mut opt_hist = rtise_obs::Hist::new();
    for &s in &opt_samples {
        // Per-instance ns, clamped to 1 so percentiles stay positive even
        // on a degenerate sub-batch-granularity sample.
        opt_hist.observe((s / BATCH as u64).max(1));
    }
    let counters = {
        let _iso = rtise_obs::isolate();
        let scope = rtise_obs::Scope::new();
        let guard = scope.enter();
        optimized();
        drop(guard);
        scope.counters()
    };
    SizePoint {
        size,
        batch: BATCH,
        ref_ns_op,
        opt_ns_op,
        p50_ns_op: opt_hist.p50() as f64,
        p99_ns_op: opt_hist.p99() as f64,
        speedup: ref_ns_op / opt_ns_op.max(f64::MIN_POSITIVE),
        counters,
    }
}

/// Runs one (kernel, size) cell. Panics on an unknown kernel name; use
/// [`KERNELS`] to enumerate valid ones.
pub fn run_size(kernel: &str, size: usize, seed: u64, m: &MeasureOptions) -> SizePoint {
    let mut rng = Rng::new(cell_seed(seed, kernel, size));
    match kernel {
        "edf_dp" => {
            let inputs: Vec<(Vec<TaskSpec>, u64)> = (0..BATCH)
                .map(|_| {
                    let specs = gate_scale(task_set_exact(&mut rng, size, 8));
                    // +1 keeps the budget coprime to AREA_SCALE, pinning
                    // the dense grid step at 1.
                    let budget = mid_budget(&specs) + 1;
                    (specs, budget)
                })
                .collect();
            measure_cell(
                size,
                &mut || {
                    for (s, b) in &inputs {
                        let _ = black_box(rtise_select::edf::select_edf_dense_with_stats(
                            black_box(s),
                            black_box(*b),
                        ));
                    }
                },
                &mut || {
                    for (s, b) in &inputs {
                        let _ = black_box(rtise_select::edf::select_edf_with_stats(
                            black_box(s),
                            black_box(*b),
                        ));
                    }
                },
                m,
            )
        }
        "rms_bnb" => {
            let inputs: Vec<(Vec<TaskSpec>, u64)> = (0..BATCH)
                .map(|_| {
                    let specs = task_set_exact(&mut rng, size, 4);
                    let budget = mid_budget(&specs);
                    (specs, budget)
                })
                .collect();
            measure_cell(
                size,
                &mut || {
                    for (s, b) in &inputs {
                        let _ = black_box(rtise_select::rms::select_rms_reference_with_stats(
                            black_box(s),
                            black_box(*b),
                        ));
                    }
                },
                &mut || {
                    for (s, b) in &inputs {
                        let _ = black_box(rtise_select::rms::select_rms_with(
                            black_box(s),
                            black_box(*b),
                            SearchOpts::default(),
                        ));
                    }
                },
                m,
            )
        }
        "ilp_bnb" => {
            let models: Vec<Model> = (0..BATCH)
                .map(|_| ilp_model_exact(&mut rng, size))
                .collect();
            measure_cell(
                size,
                &mut || {
                    for model in &models {
                        let _ = black_box(black_box(model).solve_reference_with_stats());
                    }
                },
                &mut || {
                    for model in &models {
                        let _ = black_box(black_box(model).solve_with(SearchOpts::default()));
                    }
                },
                m,
            )
        }
        "enumerate" => {
            let dfgs: Vec<Dfg> = (0..BATCH).map(|_| dfg_at_least(&mut rng, size)).collect();
            let opts = bench_enumerate_options();
            measure_cell(
                size,
                &mut || {
                    for dfg in &dfgs {
                        let _ = black_box(rtise_ise::enumerate::enumerate_connected_reference(
                            black_box(dfg),
                            opts,
                        ));
                    }
                },
                &mut || {
                    for dfg in &dfgs {
                        let _ = black_box(rtise_ise::enumerate::enumerate_connected_with_stats(
                            black_box(dfg),
                            opts,
                        ));
                    }
                },
                m,
            )
        }
        // One implementation, timed on both sides: the points keep
        // tracking MaxMISO against the committed baselines.
        "miso" => {
            let dfgs: Vec<Dfg> = (0..BATCH).map(|_| dfg_at_least(&mut rng, size)).collect();
            let mut run = || {
                for dfg in &dfgs {
                    let _ = black_box(rtise_ise::maximal_miso(black_box(dfg)));
                }
            };
            measure_cell(size, &mut run.clone(), &mut run, m)
        }
        // The one ISE selection search, plain against certified: the
        // ratio is the cost of recording an optimality certificate.
        "ise_bnb" => {
            let pools: Vec<(Vec<CiCandidate>, u64)> =
                (0..BATCH).map(|_| candidate_pool(&mut rng, size)).collect();
            measure_cell(
                size,
                &mut || {
                    for (cands, budget) in &pools {
                        let _ = black_box(rtise_ise::branch_and_bound_with(
                            black_box(cands),
                            black_box(*budget),
                            SearchOpts::CERTIFIED,
                        ));
                    }
                },
                &mut || {
                    for (cands, budget) in &pools {
                        let _ = black_box(rtise_ise::branch_and_bound(
                            black_box(cands),
                            black_box(*budget),
                        ));
                    }
                },
                m,
            )
        }
        other => panic!("unknown benchmark kernel {other:?}"),
    }
}

/// Runs a kernel's whole size sweep.
pub fn run_kernel(kernel: &str, seed: u64, m: &MeasureOptions) -> Vec<SizePoint> {
    sizes(kernel)
        .iter()
        .map(|&s| run_size(kernel, s, seed, m))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The cheapest possible sampling: correctness of the plumbing, not
    /// the timings.
    fn tiny() -> MeasureOptions {
        MeasureOptions {
            warmup: 0,
            iters: 1,
        }
    }

    #[test]
    fn every_kernel_produces_a_complete_sweep() {
        for &kernel in KERNELS {
            let smallest = sizes(kernel)[0];
            let point = run_size(kernel, smallest, 1, &tiny());
            assert_eq!(point.size, smallest, "{kernel}");
            assert_eq!(point.batch, BATCH, "{kernel}");
            assert!(point.ref_ns_op > 0.0, "{kernel}");
            assert!(point.opt_ns_op > 0.0, "{kernel}");
            assert!(point.p50_ns_op > 0.0, "{kernel}");
            assert!(
                point.p99_ns_op >= point.p50_ns_op,
                "{kernel}: p99 below p50"
            );
            assert!(point.speedup > 0.0, "{kernel}");
        }
    }

    #[test]
    fn optimized_paths_publish_solver_counters() {
        for &kernel in &[
            "edf_dp",
            "rms_bnb",
            "ilp_bnb",
            "enumerate",
            "miso",
            "ise_bnb",
        ] {
            let point = run_size(kernel, sizes(kernel)[0], 1, &tiny());
            assert!(
                !point.counters.is_empty(),
                "{kernel} captured no counter deltas"
            );
        }
    }

    #[test]
    fn input_builders_pin_the_size_knob() {
        let mut rng = Rng::new(99);
        assert_eq!(task_set_exact(&mut rng, 7, 3).len(), 7);
        assert_eq!(ilp_model_exact(&mut rng, 9).num_vars(), 9);
        assert!(dfg_at_least(&mut rng, 24).len() >= 24);
        let (pool, budget) = candidate_pool(&mut rng, 11);
        assert_eq!(pool.len(), 11);
        assert!(budget <= pool.iter().map(|c| c.area).sum::<u64>());
    }

    #[test]
    fn cell_seeds_are_distinct_across_kernels_and_sizes() {
        let mut seen = std::collections::BTreeSet::new();
        for &kernel in KERNELS {
            for &size in sizes(kernel) {
                assert!(
                    seen.insert(cell_seed(5, kernel, size)),
                    "seed collision at {kernel}/{size}"
                );
            }
        }
    }
}
