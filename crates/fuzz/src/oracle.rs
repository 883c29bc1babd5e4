//! Layer 2: solve-and-certify oracles with differential cross-checks.
//!
//! Each [`Family`] pairs a generator from [`crate::gen`] with the real
//! solver pipeline and re-verifies the result through `rtise-check`.
//! Where an independent second opinion exists the oracle also runs a
//! differential check: the EDF dynamic program against a 0-1 ILP encoding
//! of the same instance, RMS branch-and-bound against exhaustive search,
//! intra-task branch-and-bound against subset enumeration, heuristics
//! against the certified optimum, and the exact Pareto sweep against a
//! brute-force subset front. Every optimized solver fast path is also
//! checked against its retained reference implementation (sparse EDF DP,
//! bitset enumeration, memoized RMS search, sparse ILP search).
//! Certificate violations keep their stable `rtise-check` codes;
//! differential mismatches get `DIFF*` codes local to this crate.

use crate::gen;
use rtise_check::cert;
use rtise_check::{Diagnostics, Severity};
use rtise_graphpart::{partition, Graph};
use rtise_ilp::{Model, Sense, SolveError};
use rtise_ir::HwModel;
use rtise_ise::{
    branch_and_bound, greedy_by_ratio, harvest, CiCandidate, ConfigCurve, HarvestOptions,
};
use rtise_obs::Rng;
use rtise_select::pareto::{eps_pareto, exact_pareto, Item, ParetoPoint};
use rtise_select::rms::SelectRmsError;
use rtise_select::task::{demand, spec_hyperperiod};
use rtise_select::{heuristics, select_edf, select_rms, Assignment, TaskSpec};
use rtise_trace::bnb::SearchOpts;
use std::fmt;

/// EDF DP optimum disagrees with the ILP optimum on the same instance.
pub const DIFF_EDF_ILP: &str = "DIFF001";
/// RMS branch-and-bound disagrees with exhaustive configuration search.
pub const DIFF_RMS_EXHAUSTIVE: &str = "DIFF002";
/// A heuristic beat the certified optimum (or broke the budget).
pub const DIFF_HEURISTIC: &str = "DIFF003";
/// Intra-task selection: greedy beat branch-and-bound, or branch-and-bound
/// disagrees with subset enumeration.
pub const DIFF_SELECTION: &str = "DIFF004";
/// Exact Pareto front disagrees with the brute-force subset front.
pub const DIFF_PARETO: &str = "DIFF005";
/// ILP solver outcome disagrees with exhaustive 0-1 search.
pub const DIFF_ILP_EXHAUSTIVE: &str = "DIFF006";
/// An optimized fast path disagrees with its retained reference
/// implementation (sparse EDF DP vs dense grid, bitset enumeration vs
/// generic growth, memoized vs plain RMS search, sparse vs dense ILP
/// search).
pub const DIFF_FAST_PATH: &str = "DIFF007";
/// Independent certificate replay refutes the solver's claimed optimum
/// (or infeasibility verdict). This is the sole optimality oracle above
/// `MAX_BRUTE_VARS` (12) variables, where exhaustive search is off the table.
pub const DIFF_CERT_REPLAY: &str = "DIFF008";
// DIFF009 (parallel solver core vs its serial twin) is retired with the
// parallel cores; the code is not reused, so old repros citing it stay
// unambiguous.
// DIFF010 (the Kernighan–Lin ISE generator vs the exact enumerator) is
// retired with the generator; the code is not reused.
/// A solver returned an error on an instance it must accept.
pub const SOLVE_ERROR: &str = "SOLVE001";

/// One oracle failure: a stable code (an `rtise-check` diagnostic code or
/// a `DIFF*`/`SOLVE*` code above) plus human-readable evidence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Stable code, used by the minimizer to decide reproduction.
    pub code: String,
    /// Evidence detail.
    pub detail: String,
}

impl Finding {
    fn new(code: &str, detail: impl Into<String>) -> Self {
        Finding {
            code: code.to_string(),
            detail: detail.into(),
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code, self.detail)
    }
}

fn push_diags(out: &mut Vec<Finding>, d: Diagnostics) {
    for diag in d.iter() {
        if diag.severity == Severity::Error {
            out.push(Finding {
                code: diag.code.as_str().to_string(),
                detail: format!("[{:?}] {}", diag.location, diag.message),
            });
        }
    }
}

/// A solver family the fuzzer can drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// MIMO enumeration, candidate costing, intra-task selection, curves.
    Cand,
    /// EDF dynamic program (Algorithm 1) + ILP differential.
    Edf,
    /// RMS branch-and-bound (Algorithm 2) + exhaustive differential.
    Rms,
    /// 0-1 ILP branch-and-bound + exhaustive differential.
    Ilp,
    /// Exact and ε-approximate Pareto fronts.
    Pareto,
    /// Multilevel k-way graph partitioning.
    Partition,
}

impl Family {
    /// Every family, in harness execution order.
    pub const ALL: [Family; 6] = [
        Family::Cand,
        Family::Edf,
        Family::Rms,
        Family::Ilp,
        Family::Pareto,
        Family::Partition,
    ];

    /// Stable lowercase name used by `--family` and reports.
    pub fn name(self) -> &'static str {
        match self {
            Family::Cand => "cand",
            Family::Edf => "edf",
            Family::Rms => "rms",
            Family::Ilp => "ilp",
            Family::Pareto => "pareto",
            Family::Partition => "partition",
        }
    }

    /// Parses a `--family` argument (`"all"` is handled by the caller).
    pub fn parse(s: &str) -> Option<Family> {
        Family::ALL.iter().copied().find(|f| f.name() == s)
    }
}

impl fmt::Display for Family {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A concrete generated instance: the unit the oracle runs and the
/// minimizer shrinks.
#[derive(Debug, Clone)]
pub enum Instance {
    /// Task set + area budget for the EDF family.
    Edf {
        /// Task specifications.
        specs: Vec<TaskSpec>,
        /// Area budget in cells.
        budget: u64,
    },
    /// Task set + area budget for the RMS family.
    Rms {
        /// Task specifications.
        specs: Vec<TaskSpec>,
        /// Area budget in cells.
        budget: u64,
    },
    /// A 0-1 ILP model.
    Ilp {
        /// The model.
        model: Model,
    },
    /// A Pareto instance.
    Pareto {
        /// Base (software-only) value.
        base: u64,
        /// Improvement items.
        items: Vec<Item>,
        /// ε for the approximate front.
        eps: f64,
    },
    /// A graph-partitioning instance.
    Partition {
        /// The weighted graph.
        graph: Graph,
        /// Number of parts.
        k: usize,
        /// Seed forwarded to the randomized partitioner.
        seed: u64,
    },
    /// A candidate-pipeline instance.
    Cand {
        /// The profiled program.
        program: rtise_ir::Program,
        /// Per-block execution counts.
        exec: Vec<u64>,
        /// Harvest envelope (ports, caps, pruning).
        opts: HarvestOptions,
        /// Area budget for the selection stage.
        budget: u64,
    },
}

impl Instance {
    /// Generates an instance of `family` from `rng` (deterministic per
    /// seed).
    pub fn generate(family: Family, rng: &mut Rng) -> Instance {
        match family {
            Family::Edf => {
                let specs = gen::task_set(rng, &gen::TaskSetOptions::default());
                let budget = gen::area_budget(rng, &specs);
                Instance::Edf { specs, budget }
            }
            Family::Rms => {
                let opts = gen::TaskSetOptions {
                    max_tasks: 4,
                    ..Default::default()
                };
                let specs = gen::task_set(rng, &opts);
                let budget = gen::area_budget(rng, &specs);
                Instance::Rms { specs, budget }
            }
            Family::Ilp => {
                // A third of the draws exceed the exhaustive-search cap
                // (20–40 variables), so every campaign exercises the
                // certificate-replay-only optimality path.
                let opts = if rng.gen_bool(1.0 / 3.0) {
                    gen::IlpOptions::large()
                } else {
                    gen::IlpOptions::default()
                };
                Instance::Ilp {
                    model: gen::ilp_model(rng, &opts),
                }
            }
            Family::Pareto => {
                let (base, items) = gen::pareto_items(rng, 10);
                let eps = [0.25, 0.5, 1.0, 2.0][rng.gen_range(0..4usize)];
                Instance::Pareto { base, items, eps }
            }
            Family::Partition => {
                let (graph, k) = gen::graph(rng, 40);
                Instance::Partition {
                    graph,
                    k,
                    seed: rng.next_u64(),
                }
            }
            Family::Cand => {
                let (program, exec) = gen::program(rng, &gen::DfgOptions::default(), 2);
                let opts = gen::harvest_options(rng);
                let budget = rng.gen_range(0..=300u64);
                Instance::Cand {
                    program,
                    exec,
                    opts,
                    budget,
                }
            }
        }
    }

    /// Which family this instance belongs to.
    pub fn family(&self) -> Family {
        match self {
            Instance::Edf { .. } => Family::Edf,
            Instance::Rms { .. } => Family::Rms,
            Instance::Ilp { .. } => Family::Ilp,
            Instance::Pareto { .. } => Family::Pareto,
            Instance::Partition { .. } => Family::Partition,
            Instance::Cand { .. } => Family::Cand,
        }
    }

    /// Structural size — what the minimizer drives toward zero.
    pub fn size(&self) -> usize {
        match self {
            Instance::Edf { specs, .. } | Instance::Rms { specs, .. } => {
                specs.iter().map(|s| s.curve.len()).sum()
            }
            Instance::Ilp { model } => model.num_vars() + model.num_rows(),
            Instance::Pareto { items, .. } => items.len(),
            Instance::Partition { graph, k, .. } => graph.len() + k,
            Instance::Cand { program, .. } => program.blocks.iter().map(|b| b.dfg.len()).sum(),
        }
    }

    /// One-line human description for failure reports.
    pub fn describe(&self) -> String {
        match self {
            Instance::Edf { specs, budget } | Instance::Rms { specs, budget } => {
                let tasks: Vec<String> = specs
                    .iter()
                    .map(|s| {
                        let pts: Vec<String> = s
                            .curve
                            .points()
                            .iter()
                            .map(|p| format!("({},{})", p.area, p.cycles))
                            .collect();
                        format!("P={} [{}]", s.period, pts.join(" "))
                    })
                    .collect();
                format!("budget={budget} tasks: {}", tasks.join("; "))
            }
            Instance::Ilp { model } => {
                format!(
                    "{} var(s), {} row(s), objective {:?}",
                    model.num_vars(),
                    model.num_rows(),
                    model.objective()
                )
            }
            Instance::Pareto { base, items, eps } => {
                let it: Vec<String> = items
                    .iter()
                    .map(|i| format!("(d{},a{})", i.delta, i.area))
                    .collect();
                format!("base={base} eps={eps} items: {}", it.join(" "))
            }
            Instance::Partition { graph, k, seed } => {
                format!("{} vertices, k={k}, seed={seed}", graph.len())
            }
            Instance::Cand {
                program,
                exec,
                opts,
                budget,
            } => format!(
                "{} block(s) ({} nodes), exec {:?}, ports {}/{}, budget={budget}",
                program.blocks.len(),
                self.size(),
                exec,
                opts.enumerate.max_in,
                opts.enumerate.max_out
            ),
        }
    }

    /// Runs the solve + certify + differential oracle for this instance.
    pub fn run(&self) -> Vec<Finding> {
        match self {
            Instance::Edf { specs, budget } => edf_findings(specs, *budget),
            Instance::Rms { specs, budget } => rms_findings(specs, *budget),
            Instance::Ilp { model } => ilp_findings(model),
            Instance::Pareto { base, items, eps } => pareto_findings(*base, items, *eps),
            Instance::Partition { graph, k, seed } => partition_findings(graph, *k, *seed),
            Instance::Cand {
                program,
                exec,
                opts,
                budget,
            } => cand_findings(program, exec, *opts, *budget),
        }
    }

    /// One-step shrink candidates: every instance obtained by dropping a
    /// single structural element (task, curve point, variable, row, item,
    /// vertex, block). The greedy minimizer walks these while the
    /// diagnostic reproduces.
    pub fn shrink(&self) -> Vec<Instance> {
        match self {
            Instance::Edf { specs, budget } => shrink_task_sets(specs, *budget, false),
            Instance::Rms { specs, budget } => shrink_task_sets(specs, *budget, true),
            Instance::Ilp { model } => shrink_ilp(model),
            Instance::Pareto { base, items, eps } => {
                let mut out = Vec::new();
                for i in 0..items.len() {
                    let mut it = items.clone();
                    it.remove(i);
                    out.push(Instance::Pareto {
                        base: *base,
                        items: it,
                        eps: *eps,
                    });
                }
                out
            }
            Instance::Partition { graph, k, seed } => shrink_partition(graph, *k, *seed),
            Instance::Cand {
                program,
                exec,
                opts,
                budget,
            } => {
                let mut out = Vec::new();
                if program.blocks.len() > 1 {
                    for b in (0..program.blocks.len()).rev() {
                        // Only the last block can be dropped without
                        // re-chaining terminators; dropping earlier blocks
                        // shifts ids, so re-point the previous jump.
                        let mut p = program.clone();
                        let mut e = exec.to_vec();
                        p.blocks.remove(b);
                        e.remove(b);
                        let n_left = p.blocks.len();
                        for (i, blk) in p.blocks.iter_mut().enumerate() {
                            blk.terminator = if i + 1 < n_left {
                                rtise_ir::Terminator::Jump(rtise_ir::BlockId(i + 1))
                            } else {
                                rtise_ir::Terminator::Return
                            };
                        }
                        out.push(Instance::Cand {
                            program: p,
                            exec: e,
                            opts: *opts,
                            budget: *budget,
                        });
                    }
                }
                out
            }
        }
    }
}

fn shrink_task_sets(specs: &[TaskSpec], budget: u64, rms: bool) -> Vec<Instance> {
    let wrap = |specs: Vec<TaskSpec>| {
        if rms {
            Instance::Rms { specs, budget }
        } else {
            Instance::Edf { specs, budget }
        }
    };
    let mut out = Vec::new();
    // Drop one task.
    for i in 0..specs.len() {
        let mut s = specs.to_vec();
        s.remove(i);
        out.push(wrap(s));
    }
    // Drop one hardware curve point of one task (index 0 is the software
    // point `from_points` always re-adds).
    for (i, spec) in specs.iter().enumerate() {
        for j in 1..spec.curve.len() {
            let pairs: Vec<(u64, u64)> = spec
                .curve
                .points()
                .iter()
                .enumerate()
                .skip(1)
                .filter(|&(idx, _)| idx != j)
                .map(|(_, p)| (p.area, p.cycles))
                .collect();
            let mut s = specs.to_vec();
            s[i] = TaskSpec::new(
                ConfigCurve::from_points(spec.curve.name.clone(), spec.curve.base_cycles, &pairs),
                spec.period,
            );
            out.push(wrap(s));
        }
    }
    out
}

fn shrink_ilp(model: &Model) -> Vec<Instance> {
    let mut out = Vec::new();
    // Drop one row.
    for skip in 0..model.num_rows() {
        let mut m = Model::new(model.num_vars());
        m.set_objective(model.sense(), model.objective());
        for r in 0..model.num_rows() {
            if r == skip {
                continue;
            }
            let (terms, cmp, rhs) = model.row(r);
            add_row(&mut m, terms, cmp, rhs);
        }
        out.push(Instance::Ilp { model: m });
    }
    // Drop one variable (reindexing the survivors).
    if model.num_vars() > 1 {
        for v in 0..model.num_vars() {
            let remap = |i: usize| if i > v { i - 1 } else { i };
            let mut m = Model::new(model.num_vars() - 1);
            let obj: Vec<i64> = model
                .objective()
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != v)
                .map(|(_, &c)| c)
                .collect();
            m.set_objective(model.sense(), &obj);
            for r in 0..model.num_rows() {
                let (terms, cmp, rhs) = model.row(r);
                let t: Vec<(usize, i64)> = terms
                    .iter()
                    .filter(|&&(i, _)| i != v)
                    .map(|&(i, c)| (remap(i), c))
                    .collect();
                add_row(&mut m, &t, cmp, rhs);
            }
            out.push(Instance::Ilp { model: m });
        }
    }
    out
}

fn add_row(m: &mut Model, terms: &[(usize, i64)], cmp: rtise_ilp::Cmp, rhs: i64) {
    match cmp {
        rtise_ilp::Cmp::Le => m.add_le(terms, rhs),
        rtise_ilp::Cmp::Ge => m.add_ge(terms, rhs),
        rtise_ilp::Cmp::Eq => m.add_eq(terms, rhs),
    }
}

fn shrink_partition(graph: &Graph, k: usize, seed: u64) -> Vec<Instance> {
    let mut out = Vec::new();
    if k > 1 {
        out.push(Instance::Partition {
            graph: graph.clone(),
            k: k - 1,
            seed,
        });
    }
    if graph.len() > 1 {
        for v in 0..graph.len() {
            let remap = |i: usize| if i > v { i - 1 } else { i };
            let weights: Vec<u64> = (0..graph.len())
                .filter(|&i| i != v)
                .map(|i| graph.vertex_weight(i))
                .collect();
            let mut g = Graph::new(weights);
            for u in 0..graph.len() {
                if u == v {
                    continue;
                }
                for &(w, wt) in graph.neighbors(u) {
                    if w == v || w <= u {
                        continue;
                    }
                    g.add_edge(remap(u), remap(w), wt);
                }
            }
            out.push(Instance::Partition {
                graph: g,
                k: k.min(graph.len() - 1).max(1),
                seed,
            });
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Family oracles
// ---------------------------------------------------------------------------

/// Cap on hyperperiods for the integer EDF/ILP differential; generated
/// period pools keep well under this, but shrunk instances inherit it.
const MAX_DIFF_HYPERPERIOD: u64 = 1 << 20;

/// EDF family: Algorithm 1 → certificate → ILP differential → heuristics
/// never beat the optimum.
pub fn edf_findings(specs: &[TaskSpec], budget: u64) -> Vec<Finding> {
    let mut out = Vec::new();
    let sel = match select_edf(specs, budget) {
        Ok(sel) => sel,
        Err(e) => {
            if !specs.is_empty() {
                out.push(Finding::new(
                    SOLVE_ERROR,
                    format!("select_edf failed on a non-empty set: {e}"),
                ));
            }
            return out;
        }
    };
    push_diags(&mut out, cert::check_edf_selection(specs, &sel, budget));
    for s in specs {
        push_diags(&mut out, cert::check_curve(&s.curve));
    }

    // Differential 1: the DP optimum must match a 0-1 ILP encoding of the
    // same instance (one-hot configuration choice, shared area budget,
    // integer demand objective) whenever the hyperperiod is exact.
    if let Some(h) = spec_hyperperiod(specs).filter(|&h| h <= MAX_DIFF_HYPERPERIOD) {
        let dp_demand = demand(specs, &sel.assignment.config, h);
        match ilp_optimum_demand(specs, budget, h) {
            Some(ilp_demand) if ilp_demand == dp_demand => {}
            Some(ilp_demand) => out.push(Finding::new(
                DIFF_EDF_ILP,
                format!("EDF DP demand {dp_demand} but ILP optimum {ilp_demand} (H={h})"),
            )),
            None => out.push(Finding::new(
                DIFF_EDF_ILP,
                "ILP encoding infeasible although the DP returned an assignment",
            )),
        }
    }

    // Differential 2: the sparse reachable-area DP must reproduce the
    // dense gcd-grid reference bit-identically, tie-breaks included
    // (stats legitimately differ: the paths materialize different state).
    let sparse = rtise_select::edf::select_edf_with_stats(specs, budget).map(|(s, _)| s);
    let dense = rtise_select::edf::select_edf_dense_with_stats(specs, budget).map(|(s, _)| s);
    if format!("{sparse:?}") != format!("{dense:?}") {
        out.push(Finding::new(
            DIFF_FAST_PATH,
            format!("sparse EDF DP {sparse:?} but dense reference {dense:?}"),
        ));
    }

    // Differential 3: no heuristic may beat the certified optimum.
    type HeuristicFn = fn(&[TaskSpec], u64) -> Assignment;
    let heuristic_fns: [(&str, HeuristicFn); 4] = [
        ("equal_area_split", heuristics::equal_area_split),
        (
            "smallest_deadline_first",
            heuristics::smallest_deadline_first,
        ),
        (
            "highest_reduction_first",
            heuristics::highest_reduction_first,
        ),
        ("highest_ratio_first", heuristics::highest_ratio_first),
    ];
    for (name, h) in heuristic_fns {
        let a = h(specs, budget);
        if a.total_area(specs) > budget {
            out.push(Finding::new(
                DIFF_HEURISTIC,
                format!("{name} spent {} > budget {budget}", a.total_area(specs)),
            ));
        } else if a.utilization(specs) < sel.utilization - 1e-9 {
            out.push(Finding::new(
                DIFF_HEURISTIC,
                format!(
                    "{name} reached U={} below the certified optimum U={}",
                    a.utilization(specs),
                    sel.utilization
                ),
            ));
        }
    }
    out
}

/// Encodes the EDF selection instance as a 0-1 ILP (minimize total demand
/// over the hyperperiod, one configuration per task, area within budget)
/// and returns the optimal demand, or `None` if the ILP claims
/// infeasibility.
fn ilp_optimum_demand(specs: &[TaskSpec], budget: u64, h: u64) -> Option<u128> {
    let n_vars: usize = specs.iter().map(|s| s.curve.len()).sum();
    let mut m = Model::new(n_vars);
    let mut obj = Vec::with_capacity(n_vars);
    let mut area_row = Vec::new();
    let mut base = 0usize;
    for s in specs {
        let w = h / s.period;
        let one_hot: Vec<(usize, i64)> = s
            .curve
            .points()
            .iter()
            .enumerate()
            .map(|(j, p)| {
                obj.push((p.cycles * w) as i64);
                if p.area > 0 {
                    area_row.push((base + j, p.area as i64));
                }
                (base + j, 1i64)
            })
            .collect();
        m.add_eq(&one_hot, 1);
        base += s.curve.len();
    }
    m.set_objective(Sense::Minimize, &obj);
    m.add_le(&area_row, budget as i64);
    m.solve().ok().map(|sol| sol.objective as u128)
}

/// RMS family: Algorithm 2 → certificate → exhaustive differential over
/// every configuration tuple, using the independent scheduling-points
/// re-test from `rtise-check`.
pub fn rms_findings(specs: &[TaskSpec], budget: u64) -> Vec<Finding> {
    let mut out = Vec::new();
    // Exhaustive reference: best utilization over schedulable,
    // budget-respecting tuples.
    let best = exhaustive_rms_optimum(specs, budget);
    match select_rms(specs, budget) {
        Ok(sel) => {
            push_diags(&mut out, cert::check_rms_selection(specs, &sel, budget));
            match best {
                Some(u) if (u - sel.utilization).abs() <= 1e-9 => {}
                Some(u) => out.push(Finding::new(
                    DIFF_RMS_EXHAUSTIVE,
                    format!(
                        "B&B reports U={}, exhaustive search says the optimum is U={u}",
                        sel.utilization
                    ),
                )),
                None => out.push(Finding::new(
                    DIFF_RMS_EXHAUSTIVE,
                    "B&B found a schedulable assignment but exhaustive search found none",
                )),
            }
        }
        Err(SelectRmsError::Unschedulable) => {
            if let Some(u) = best {
                out.push(Finding::new(
                    DIFF_RMS_EXHAUSTIVE,
                    format!("B&B claims unschedulable but exhaustive search found U={u}"),
                ));
            }
        }
        Err(e) => {
            if !specs.is_empty() {
                out.push(Finding::new(
                    SOLVE_ERROR,
                    format!("select_rms failed on a non-empty set: {e}"),
                ));
            }
        }
    }
    // Optimality-certificate replay: an independent walk of the recorded
    // search tree, re-deriving every bound and schedulability verdict.
    let (cert_res, rms_cert) =
        rtise_select::rms::select_rms_with(specs, budget, SearchOpts::CERTIFIED).certified();
    rtise_obs::record("fuzz.rms.cert_replay", 1);
    let claimed = match &cert_res {
        Ok(sel) => Some(Some(sel)),
        Err(SelectRmsError::Unschedulable) => Some(None),
        Err(_) => None,
    };
    if let Some(outcome) = claimed {
        let replay = rtise_check::bnb::check_rms_certificate(specs, budget, outcome, &rms_cert);
        if !replay.is_clean() {
            out.push(Finding::new(
                DIFF_CERT_REPLAY,
                format!("RMS certificate replay refutes the solver: {replay}"),
            ));
            push_diags(&mut out, replay);
        }
    }
    // Memoized search vs the plain reference search: identical results
    // *and* identical node/prune statistics (same search tree).
    let memo = rtise_select::rms::select_rms_with(specs, budget, SearchOpts::default());
    let memo = memo.result.map(|sel| (sel, memo.stats));
    let reference = rtise_select::rms::select_rms_reference_with_stats(specs, budget);
    if format!("{memo:?}") != format!("{reference:?}") {
        out.push(Finding::new(
            DIFF_FAST_PATH,
            format!("memoized RMS B&B {memo:?} but reference search {reference:?}"),
        ));
    }
    out
}

fn exhaustive_rms_optimum(specs: &[TaskSpec], budget: u64) -> Option<f64> {
    if specs.is_empty() {
        return None;
    }
    let mut best: Option<f64> = None;
    let mut idx = vec![0usize; specs.len()];
    loop {
        let a = Assignment {
            config: idx.clone(),
        };
        if a.total_area(specs) <= budget {
            let tasks: Vec<(u64, u64)> = idx
                .iter()
                .zip(specs)
                .map(|(&j, s)| (s.curve.points()[j].cycles, s.period))
                .collect();
            if cert::rms_exact_schedulable(&tasks) {
                let u = a.utilization(specs);
                best = Some(best.map_or(u, |b: f64| b.min(u)));
            }
        }
        let mut k = 0;
        loop {
            if k == specs.len() {
                return best;
            }
            idx[k] += 1;
            if idx[k] < specs[k].curve.len() {
                break;
            }
            idx[k] = 0;
            k += 1;
        }
    }
}

/// Largest ILP the exhaustive differential enumerates (2¹² assignments).
/// Above this, optimality is certified by replaying the solver's
/// branch-and-bound certificate instead of brute force.
const MAX_BRUTE_VARS: usize = 12;

/// ILP family: branch-and-bound → certificate → exhaustive 0-1 search
/// differential (including infeasibility claims). Every instance also
/// replays the search's optimality certificate; past `MAX_BRUTE_VARS`
/// variables the replay is the *only* optimality check, so the generator
/// deliberately draws instances on both sides of the cap.
pub fn ilp_findings(model: &Model) -> Vec<Finding> {
    let mut out = Vec::new();
    let brute = (model.num_vars() <= MAX_BRUTE_VARS).then(|| brute_force_ilp(model));
    let (result, bnb_cert) = model.solve_with(SearchOpts::CERTIFIED).certified();
    rtise_obs::record("fuzz.ilp.cert_replay", 1);
    if model.num_vars() > MAX_BRUTE_VARS {
        rtise_obs::record("fuzz.ilp.cert_replay_large", 1);
    }
    let claimed = match &result {
        Ok(sol) => Some(Some(sol)),
        Err(SolveError::Infeasible) => Some(None),
        Err(_) => None, // reported as SOLVE001 below; no optimality claim made
    };
    if let Some(outcome) = claimed {
        let replay = rtise_check::bnb::check_ilp_certificate(model, outcome, &bnb_cert);
        if !replay.is_clean() {
            out.push(Finding::new(
                DIFF_CERT_REPLAY,
                format!("certificate replay refutes the solver: {replay}"),
            ));
            push_diags(&mut out, replay);
        }
    }
    match result {
        Ok(sol) => {
            push_diags(&mut out, cert::check_ilp_solution(model, &sol));
            match brute {
                Some(Some(best)) if best == sol.objective => {}
                Some(Some(best)) => out.push(Finding::new(
                    DIFF_ILP_EXHAUSTIVE,
                    format!(
                        "solver objective {} but exhaustive optimum is {best}",
                        sol.objective
                    ),
                )),
                Some(None) => out.push(Finding::new(
                    DIFF_ILP_EXHAUSTIVE,
                    "solver returned a solution but exhaustive search finds no feasible point",
                )),
                None => {}
            }
        }
        Err(SolveError::Infeasible) => {
            if let Some(Some(best)) = brute {
                out.push(Finding::new(
                    DIFF_ILP_EXHAUSTIVE,
                    format!(
                        "solver claims infeasible but exhaustive search found objective {best}"
                    ),
                ));
            }
        }
        Err(e) => out.push(Finding::new(SOLVE_ERROR, format!("ILP solve failed: {e}"))),
    }
    // Sparse-column incremental search vs the dense reference search:
    // identical outcome and statistics (same branch decisions and prunes).
    let sparse = model.solve_with(SearchOpts::default());
    let sparse = sparse.result.map(|sol| (sol, sparse.stats));
    let dense = model.solve_reference_with_stats();
    if format!("{sparse:?}") != format!("{dense:?}") {
        out.push(Finding::new(
            DIFF_FAST_PATH,
            format!("sparse ILP search {sparse:?} but dense reference {dense:?}"),
        ));
    }
    out
}

fn brute_force_ilp(model: &Model) -> Option<i64> {
    let n = model.num_vars();
    let mut best: Option<i64> = None;
    for mask in 0u32..(1u32 << n) {
        let feasible = (0..model.num_rows()).all(|r| {
            let (terms, cmp, rhs) = model.row(r);
            let lhs: i64 = terms
                .iter()
                .filter(|&&(v, _)| mask & (1 << v) != 0)
                .map(|&(_, c)| c)
                .sum();
            match cmp {
                rtise_ilp::Cmp::Le => lhs <= rhs,
                rtise_ilp::Cmp::Ge => lhs >= rhs,
                rtise_ilp::Cmp::Eq => lhs == rhs,
            }
        });
        if !feasible {
            continue;
        }
        let obj: i64 = model
            .objective()
            .iter()
            .enumerate()
            .filter(|&(v, _)| mask & (1 << v) != 0)
            .map(|(_, &c)| c)
            .sum();
        best = Some(match (best, model.sense()) {
            (None, _) => obj,
            (Some(b), Sense::Maximize) => b.max(obj),
            (Some(b), Sense::Minimize) => b.min(obj),
        });
    }
    best
}

/// Largest item count the brute-force Pareto sweep enumerates (2¹⁰
/// subsets).
const MAX_BRUTE_ITEMS: usize = 10;

/// Pareto family: exact front → certificate → brute-force subset-front
/// differential, then the ε-approximate front checked as an ε-cover.
pub fn pareto_findings(base: u64, items: &[Item], eps: f64) -> Vec<Finding> {
    let mut out = Vec::new();
    let exact = exact_pareto(base, items);
    push_diags(&mut out, cert::check_pareto_front(&exact));
    if items.len() <= MAX_BRUTE_ITEMS {
        let brute = brute_force_pareto(base, items);
        if exact != brute {
            out.push(Finding::new(
                DIFF_PARETO,
                format!("exact front {exact:?} but brute-force subset front {brute:?}"),
            ));
        }
    }
    let approx = eps_pareto(base, items, eps);
    push_diags(&mut out, cert::check_eps_cover(&exact, &approx, eps));
    out
}

fn brute_force_pareto(base: u64, items: &[Item]) -> Vec<ParetoPoint> {
    let n = items.len();
    let mut points = Vec::with_capacity(1 << n);
    for mask in 0u32..(1u32 << n) {
        let mut cost = 0u64;
        let mut delta = 0u64;
        for (i, it) in items.iter().enumerate() {
            if mask & (1 << i) != 0 {
                cost += it.area;
                delta += it.delta;
            }
        }
        points.push(ParetoPoint {
            cost,
            value: base.saturating_sub(delta),
        });
    }
    rtise_select::pareto::pareto_filter(points)
}

/// Partition family: multilevel k-way partitioning → cut/balance
/// certificate with the claimed edge cut recounted.
pub fn partition_findings(graph: &Graph, k: usize, seed: u64) -> Vec<Finding> {
    let mut out = Vec::new();
    let p = partition(graph, k, seed);
    let cut = p.edge_cut(graph);
    push_diags(&mut out, cert::check_partitioning(graph, &p, Some(cut)));
    out
}

/// Candidate family: IR analysis → MIMO enumeration + costing → per
/// candidate certificates → greedy vs. branch-and-bound vs. exhaustive
/// selection → configuration-curve certificate.
pub fn cand_findings(
    program: &rtise_ir::Program,
    exec: &[u64],
    opts: HarvestOptions,
    budget: u64,
) -> Vec<Finding> {
    let mut out = Vec::new();
    push_diags(&mut out, rtise_check::ir::check_program(program));
    let hw = HwModel::default();
    let cands = harvest(program, exec, &hw, opts);
    for (i, c) in cands.iter().enumerate() {
        push_diags(
            &mut out,
            cert::check_ci_candidate(
                program,
                c,
                &hw,
                opts.enumerate.max_in,
                opts.enumerate.max_out,
                i,
            ),
        );
    }
    // Enumeration fast path vs generic reference, per block: the bitset
    // path, at every width, must match results and stats bit-identically.
    for block in &program.blocks {
        let fast = rtise_ise::enumerate::enumerate_connected_with_stats(&block.dfg, opts.enumerate);
        let slow = rtise_ise::enumerate::enumerate_connected_reference(&block.dfg, opts.enumerate);
        if fast != slow {
            out.push(Finding::new(
                DIFF_FAST_PATH,
                format!("bitset enumeration {fast:?} but generic reference {slow:?}"),
            ));
        }
    }
    let greedy = greedy_by_ratio(&cands, budget);
    push_diags(&mut out, cert::check_selection(&cands, &greedy, budget));
    let bnb = branch_and_bound(&cands, budget);
    push_diags(&mut out, cert::check_selection(&cands, &bnb, budget));
    // Optimality-certificate replay of the intra-task selection search.
    let (bnb_cert_sel, ise_cert) =
        rtise_ise::branch_and_bound_with(&cands, budget, SearchOpts::CERTIFIED).certified();
    rtise_obs::record("fuzz.ise.cert_replay", 1);
    let replay = rtise_check::bnb::check_ise_certificate(&cands, budget, &bnb_cert_sel, &ise_cert);
    if !replay.is_clean() {
        out.push(Finding::new(
            DIFF_CERT_REPLAY,
            format!("ISE certificate replay refutes the solver: {replay}"),
        ));
        push_diags(&mut out, replay);
    }
    if greedy.total_gain > bnb.total_gain {
        out.push(Finding::new(
            DIFF_SELECTION,
            format!(
                "greedy gain {} beats branch-and-bound gain {}",
                greedy.total_gain, bnb.total_gain
            ),
        ));
    }
    if cands.len() <= MAX_BRUTE_VARS {
        let best = exhaustive_selection_gain(&cands, budget);
        if best != bnb.total_gain {
            out.push(Finding::new(
                DIFF_SELECTION,
                format!(
                    "branch-and-bound gain {} but exhaustive optimum is {best}",
                    bnb.total_gain
                ),
            ));
        }
    }
    if !cands.is_empty() {
        let base: u64 = program
            .blocks
            .iter()
            .zip(exec)
            .map(|(b, &e)| b.cost() * e)
            .sum();
        let curve = ConfigCurve::generate("fuzz", &cands, base, 5, MAX_BRUTE_VARS);
        push_diags(&mut out, cert::check_curve(&curve));
    }
    out
}

fn exhaustive_selection_gain(cands: &[CiCandidate], budget: u64) -> u64 {
    let n = cands.len();
    let mut best = 0u64;
    for mask in 0u32..(1u32 << n) {
        let chosen: Vec<usize> = (0..n).filter(|&i| mask & (1 << i) != 0).collect();
        let area: u64 = chosen.iter().map(|&i| cands[i].area).sum();
        if area > budget {
            continue;
        }
        let conflict = chosen.iter().enumerate().any(|(x, &a)| {
            chosen[x + 1..]
                .iter()
                .any(|&b| cands[a].conflicts_with(&cands[b]))
        });
        if conflict {
            continue;
        }
        let gain: u64 = chosen.iter().map(|&i| cands[i].total_gain()).sum();
        best = best.max(gain);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_names_round_trip() {
        for f in Family::ALL {
            assert_eq!(Family::parse(f.name()), Some(f));
        }
        assert_eq!(Family::parse("nope"), None);
        assert_eq!(Family::parse("iter"), None);
    }

    #[test]
    fn every_family_runs_clean_on_a_seed_sample() {
        for f in Family::ALL {
            for seed in 0..12u64 {
                let mut rng = Rng::new(seed * 131 + 17);
                let inst = Instance::generate(f, &mut rng);
                let findings = inst.run();
                assert!(
                    findings.is_empty(),
                    "{f} seed {seed}: {:?} on {}",
                    findings,
                    inst.describe()
                );
            }
        }
    }

    #[test]
    fn shrink_only_proposes_smaller_instances() {
        for f in Family::ALL {
            let mut rng = Rng::new(42);
            let inst = Instance::generate(f, &mut rng);
            for s in inst.shrink() {
                assert!(
                    s.size() < inst.size(),
                    "{f}: shrink size {} !< {}",
                    s.size(),
                    inst.size()
                );
            }
        }
    }

    #[test]
    fn instances_regenerate_identically_per_seed() {
        for f in Family::ALL {
            let a = Instance::generate(f, &mut Rng::new(7));
            let b = Instance::generate(f, &mut Rng::new(7));
            assert_eq!(a.describe(), b.describe());
            assert_eq!(format!("{:?}", a.run()), format!("{:?}", b.run()));
        }
    }
}
