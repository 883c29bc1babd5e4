//! Layer 2: independent solution-certificate checkers.
//!
//! Every function here re-verifies a solver output *without reusing the
//! solver's code paths*: convexity, I/O counts, costs, demands, response
//! times, edge cuts and reconfiguration walks are all recomputed from
//! first principles against the problem data. A solver bug that fabricates
//! an illegal candidate, an over-budget selection, an unschedulable
//! "schedulable" claim or a dominated "Pareto" point is caught here even
//! if the solver's own accessors agree with it (the certifying-algorithms
//! discipline of the paper's §7.3 cross-checks, generalized).

use crate::diag::{Code, Diagnostics, Location};
use rtise_graphpart::{Graph, Partitioning, BALANCE_FACTOR};
use rtise_ilp::{Cmp, Model, Sense, Solution as IlpSolution};
use rtise_ir::cfg::Program;
use rtise_ir::dfg::Dfg;
use rtise_ir::hw::HwModel;
use rtise_ir::nodeset::NodeSet;
use rtise_ir::NodeId;
use rtise_ise::configs::ConfigCurve;
use rtise_ise::{CiCandidate, Selection};
use rtise_reconfig::rt::{RtProblem, RtSolution};
use rtise_reconfig::{CostModel, ReconfigProblem, Solution as ReconfigSolution};
use rtise_select::edf::EdfSelection;
use rtise_select::pareto::ParetoPoint;
use rtise_select::rms::RmsSelection;
use rtise_select::TaskSpec;
use std::collections::{HashMap, HashSet};

/// Relative tolerance for comparing reported floating-point utilizations
/// against their exact recomputation.
const UTIL_EPS: f64 = 1e-9;

// ---------------------------------------------------------------------------
// Independent graph primitives
// ---------------------------------------------------------------------------

/// Finds a witness for a convexity violation: an external node lying on a
/// data path that leaves `set` and re-enters it. Returns `None` when the
/// set is convex.
///
/// Independent recomputation: an external node breaks convexity iff it is
/// both reachable *from* a member (via consumer edges) and able to reach a
/// member (via operand edges).
pub fn convex_violation(dfg: &Dfg, set: &NodeSet) -> Option<NodeId> {
    let n = dfg.len();
    let members: Vec<NodeId> = set.iter().filter(|id| id.0 < n).collect();

    // External nodes reachable from the set, walking consumer edges.
    let mut desc = vec![false; n];
    let mut stack = members.clone();
    while let Some(v) = stack.pop() {
        for &c in dfg.consumers(v) {
            if !set.contains(c) && !desc[c.0] {
                desc[c.0] = true;
                stack.push(c);
            }
        }
    }

    // External nodes that reach the set, walking operand edges backwards.
    let mut anc = vec![false; n];
    let mut stack = members;
    while let Some(v) = stack.pop() {
        for &a in dfg.args(v) {
            if !set.contains(a) && !anc[a.0] {
                anc[a.0] = true;
                stack.push(a);
            }
        }
    }

    (0..n).find(|&i| desc[i] && anc[i]).map(NodeId)
}

/// Recomputes the distinct input/output operand counts of `set`: inputs
/// are distinct external non-constant producers, outputs are members whose
/// value is consumed outside the set.
pub fn io_count(dfg: &Dfg, set: &NodeSet) -> (usize, usize) {
    let mut inputs: HashSet<usize> = HashSet::new();
    let mut outputs = 0usize;
    for id in set.iter() {
        if id.0 >= dfg.len() {
            continue;
        }
        for &a in dfg.args(id) {
            if !set.contains(a) && dfg.kind(a) != rtise_ir::OpKind::Const {
                inputs.insert(a.0);
            }
        }
        if dfg.consumers(id).iter().any(|c| !set.contains(*c)) {
            outputs += 1;
        }
    }
    (inputs.len(), outputs)
}

/// Recomputes a candidate's silicon cost from the hardware model: total
/// area in cells, hardware cycles (critical combinational path normalized
/// to the clock, at least one cycle), and the software cycles of the
/// covered operations.
pub fn ci_cost(dfg: &Dfg, set: &NodeSet, hw: &HwModel) -> (u64, u64, u64) {
    let mut area = 0u64;
    let mut sw = 0u64;
    let mut depth: HashMap<usize, u64> = HashMap::new();
    let mut critical = 0u64;
    for id in set.iter() {
        if id.0 >= dfg.len() {
            continue;
        }
        let kind = dfg.kind(id);
        area += hw.area(kind);
        sw += kind.sw_latency();
        let arrive = dfg
            .args(id)
            .iter()
            .filter(|a| set.contains(**a))
            .map(|a| depth.get(&a.0).copied().unwrap_or(0))
            .max()
            .unwrap_or(0);
        let d = arrive + hw.latency_ps(kind);
        depth.insert(id.0, d);
        critical = critical.max(d);
    }
    let hw_cycles = if set.is_empty() {
        0
    } else {
        critical.div_ceil(hw.cycle_ps).max(1)
    };
    (area, hw_cycles, sw)
}

// ---------------------------------------------------------------------------
// Candidate legality (CANDxxx)
// ---------------------------------------------------------------------------

/// Checks that `set` is a legal custom-instruction candidate in `dfg`:
/// non-empty and in range (`CAND004`), every member CI-valid (`CAND001`),
/// convex (`CAND002`), and within the `(max_in, max_out)` port budget
/// (`CAND003`). `which` labels the reported locations.
pub fn check_candidate_set(
    dfg: &Dfg,
    set: &NodeSet,
    max_in: usize,
    max_out: usize,
    which: usize,
) -> Diagnostics {
    let mut d = Diagnostics::new();
    let loc = Location::Candidate(which);

    if set.is_empty() {
        d.error(Code::CAND004, loc, "candidate covers no nodes");
        return d;
    }
    let mut in_range = true;
    for id in set.iter() {
        if id.0 >= dfg.len() {
            d.error(
                Code::CAND004,
                loc.clone(),
                format!("node {} is outside the DFG ({} nodes)", id.0, dfg.len()),
            );
            in_range = false;
        }
    }
    if !in_range {
        return d;
    }

    for id in set.iter() {
        let kind = dfg.kind(id);
        if !kind.is_ci_valid() {
            d.error(
                Code::CAND001,
                loc.clone(),
                format!(
                    "node {} is a {kind}, which cannot enter a custom instruction",
                    id.0
                ),
            );
        }
    }
    if let Some(w) = convex_violation(dfg, set) {
        d.error(
            Code::CAND002,
            loc.clone(),
            format!(
                "not convex: external node {} lies on a path leaving and re-entering the candidate",
                w.0
            ),
        );
    }
    let (inputs, outputs) = io_count(dfg, set);
    if inputs > max_in || outputs > max_out {
        d.error(
            Code::CAND003,
            loc,
            format!("needs {inputs} input(s) / {outputs} output(s), budget is {max_in}/{max_out}"),
        );
    }
    d
}

/// Checks a costed [`CiCandidate`] against `program`: set legality in its
/// block plus cost agreement with the hardware model (`CAND005`).
pub fn check_ci_candidate(
    program: &Program,
    c: &CiCandidate,
    hw: &HwModel,
    max_in: usize,
    max_out: usize,
    which: usize,
) -> Diagnostics {
    let mut d = Diagnostics::new();
    if c.block.0 >= program.blocks.len() {
        d.error(
            Code::CAND004,
            Location::Candidate(which),
            format!("block {} is outside the program", c.block.0),
        );
        return d;
    }
    let dfg = &program.block(c.block).dfg;
    d.merge(check_candidate_set(dfg, &c.nodes, max_in, max_out, which));
    if !d.is_clean() {
        return d;
    }
    let (area, hw_cycles, sw_cycles) = ci_cost(dfg, &c.nodes, hw);
    if (c.area, c.hw_cycles, c.sw_cycles) != (area, hw_cycles, sw_cycles) {
        d.error(
            Code::CAND005,
            Location::Candidate(which),
            format!(
                "recorded (area, hw, sw) = ({}, {}, {}), hardware model gives ({area}, {hw_cycles}, {sw_cycles})",
                c.area, c.hw_cycles, c.sw_cycles
            ),
        );
    }
    d
}

// ---------------------------------------------------------------------------
// Intra-task selection and configuration curves
// ---------------------------------------------------------------------------

/// Checks an intra-task [`Selection`] over `cands`: chosen indices in
/// range and distinct (`CERT003`), pairwise conflict-free (`CERT001`),
/// totals matching recomputation (`CERT003`), and area within `budget`
/// (`CERT002`).
pub fn check_selection(cands: &[CiCandidate], sel: &Selection, budget: u64) -> Diagnostics {
    let mut d = Diagnostics::new();
    let mut seen: HashSet<usize> = HashSet::new();
    for &i in &sel.chosen {
        if i >= cands.len() {
            d.error(
                Code::CERT003,
                Location::Candidate(i),
                format!("chosen index {i} is outside the candidate list"),
            );
            return d;
        }
        if !seen.insert(i) {
            d.error(
                Code::CERT003,
                Location::Candidate(i),
                format!("candidate {i} chosen twice"),
            );
        }
    }
    for (a_pos, &a) in sel.chosen.iter().enumerate() {
        for &b in &sel.chosen[a_pos + 1..] {
            if cands[a].block == cands[b].block && cands[a].nodes.intersects(&cands[b].nodes) {
                d.error(
                    Code::CERT001,
                    Location::Candidate(b),
                    format!(
                        "candidates {a} and {b} overlap in block {}",
                        cands[a].block.0
                    ),
                );
            }
        }
    }
    let area: u64 = sel.chosen.iter().map(|&i| cands[i].area).sum();
    let gain: u64 = sel
        .chosen
        .iter()
        .map(|&i| cands[i].sw_cycles.saturating_sub(cands[i].hw_cycles) * cands[i].exec_count)
        .sum();
    if area != sel.total_area || gain != sel.total_gain {
        d.error(
            Code::CERT003,
            Location::Global,
            format!(
                "reported (gain, area) = ({}, {}), recomputed ({gain}, {area})",
                sel.total_gain, sel.total_area
            ),
        );
    }
    if area > budget {
        d.error(
            Code::CERT002,
            Location::Global,
            format!("selection area {area} exceeds budget {budget}"),
        );
    }
    d
}

/// Checks a configuration curve's staircase invariant (`CERT008`): starts
/// at the software point `(0, base_cycles)`, areas strictly ascending,
/// cycles strictly descending, and every point's gain equal to
/// `base_cycles - cycles`.
pub fn check_curve(curve: &ConfigCurve) -> Diagnostics {
    let mut d = Diagnostics::new();
    let pts = curve.points();
    if pts.is_empty() {
        d.error(Code::CERT008, Location::Global, "curve has no points");
        return d;
    }
    if pts[0].area != 0 || pts[0].cycles != curve.base_cycles {
        d.error(
            Code::CERT008,
            Location::Point(0),
            format!(
                "first point is ({}, {}), expected the software point (0, {})",
                pts[0].area, pts[0].cycles, curve.base_cycles
            ),
        );
    }
    for (i, p) in pts.iter().enumerate() {
        if p.cycles.saturating_add(p.gain) != curve.base_cycles.max(p.cycles) {
            d.error(
                Code::CERT008,
                Location::Point(i),
                format!(
                    "gain {} does not equal base {} minus cycles {}",
                    p.gain, curve.base_cycles, p.cycles
                ),
            );
        }
        if i > 0 {
            let prev = &pts[i - 1];
            if p.area <= prev.area {
                d.error(
                    Code::CERT008,
                    Location::Point(i),
                    format!(
                        "area {} does not increase over point {} ({})",
                        p.area,
                        i - 1,
                        prev.area
                    ),
                );
            }
            if p.cycles >= prev.cycles {
                d.error(
                    Code::CERT008,
                    Location::Point(i),
                    format!(
                        "cycles {} do not decrease over point {} ({}); the point is dominated",
                        p.cycles,
                        i - 1,
                        prev.cycles
                    ),
                );
            }
        }
    }
    d
}

// ---------------------------------------------------------------------------
// Exact schedulability re-tests
// ---------------------------------------------------------------------------

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

fn hyperperiod(tasks: &[(u64, u64)]) -> Option<u64> {
    if tasks.iter().any(|&(_, p)| p == 0) {
        return None;
    }
    tasks.iter().try_fold(1u64, |acc, &(_, p)| {
        let g = gcd(acc, p);
        (acc / g).checked_mul(p)
    })
}

/// Exact EDF schedulability of independent periodic tasks given as
/// `(wcet, period)` pairs, via the integer demand bound over the
/// hyperperiod: `Σ Cᵢ·(H/Pᵢ) ≤ H`. Returns `None` when the hyperperiod
/// overflows `u64` (caller falls back to a utilization bound) or when a
/// task has a zero period, for which no finite demand bound exists.
pub fn edf_exact_schedulable(tasks: &[(u64, u64)]) -> Option<bool> {
    let h = hyperperiod(tasks)?;
    let demand: u128 = tasks
        .iter()
        .map(|&(c, p)| c as u128 * (h / p) as u128)
        .sum();
    Some(demand <= h as u128)
}

/// Exact RMS schedulability via the scheduling-points test (Lehoczky,
/// Sha & Ding): task `i` (priorities by ascending period) is schedulable
/// iff some time `t = j·Pₖ ≤ Pᵢ` (k ≤ i) satisfies
/// `Σ_{k≤i} Cₖ·⌈t/Pₖ⌉ ≤ t`. This is an independent formulation of the
/// exact test the RMS selector applies (Theorem 1 of the paper).
///
/// A task with a zero period has no scheduling point at which its demand
/// could be met, so any set containing one is reported unschedulable
/// rather than dividing by zero.
pub fn rms_exact_schedulable(tasks: &[(u64, u64)]) -> bool {
    if tasks.iter().any(|&(_, p)| p == 0) {
        return false;
    }
    let mut sorted: Vec<(u64, u64)> = tasks.to_vec();
    sorted.sort_by_key(|&(_, p)| p);
    let periods: Vec<u64> = sorted.iter().map(|&(_, p)| p).collect();
    (0..sorted.len()).all(|i| {
        scheduling_points(&periods[..=i]).into_iter().any(|t| {
            let load: u128 = sorted[..=i]
                .iter()
                .map(|&(c, p)| c as u128 * t.div_ceil(p) as u128)
                .sum();
            load <= t as u128
        })
    })
}

/// The full-multiples scheduling points of the last task of `periods`
/// (positive periods in priority order, the tested task last): every
/// `t = j·Pₖ ≤ Pᵢ` of every period up to it, ascending and deduplicated.
/// Shared by [`rms_exact_schedulable`] and the RMS certificate replay.
pub(crate) fn scheduling_points(periods: &[u64]) -> Vec<u64> {
    let pi = periods.last().copied().unwrap_or(0);
    let mut points: Vec<u64> = periods
        .iter()
        .flat_map(|&pk| (1..=pi / pk).map(move |j| j * pk))
        .collect();
    points.sort_unstable();
    points.dedup();
    points
}

// ---------------------------------------------------------------------------
// Inter-task selection certificates (EDF / RMS)
// ---------------------------------------------------------------------------

fn check_assignment(
    specs: &[TaskSpec],
    config: &[usize],
    budget: u64,
    d: &mut Diagnostics,
) -> bool {
    if config.len() != specs.len() {
        d.error(
            Code::CERT012,
            Location::Global,
            format!(
                "assignment covers {} task(s), spec list has {}",
                config.len(),
                specs.len()
            ),
        );
        return false;
    }
    let mut ok = true;
    for (i, (&j, s)) in config.iter().zip(specs).enumerate() {
        if s.period == 0 {
            // `TaskSpec::new` rejects zero periods, but the field is
            // public; report the degenerate task instead of dividing by
            // zero in the utilization and demand re-tests below.
            d.error(
                Code::CERT012,
                Location::Task(i),
                "task has a zero period; utilization and demand are undefined",
            );
            ok = false;
        }
        if j >= s.curve.len() {
            d.error(
                Code::CERT012,
                Location::Task(i),
                format!(
                    "configuration {j} is outside the {}-point curve",
                    s.curve.len()
                ),
            );
            ok = false;
        }
    }
    if !ok {
        return false;
    }
    let area: u64 = config
        .iter()
        .zip(specs)
        .map(|(&j, s)| s.curve.points()[j].area)
        .sum();
    if area > budget {
        d.error(
            Code::CERT002,
            Location::Global,
            format!("assignment area {area} exceeds budget {budget}"),
        );
    }
    true
}

fn recomputed_utilization(specs: &[TaskSpec], config: &[usize]) -> f64 {
    config
        .iter()
        .zip(specs)
        .map(|(&j, s)| s.curve.points()[j].cycles as f64 / s.period as f64)
        .sum()
}

/// Certifies an EDF selection: assignment sanity and budget
/// (`CERT012`/`CERT002`), reported utilization (`CERT012`), and the
/// schedulability claim against the exact demand re-test (`CERT005`).
pub fn check_edf_selection(specs: &[TaskSpec], sel: &EdfSelection, budget: u64) -> Diagnostics {
    let mut d = Diagnostics::new();
    if !check_assignment(specs, &sel.assignment.config, budget, &mut d) {
        return d;
    }
    let util = recomputed_utilization(specs, &sel.assignment.config);
    if (util - sel.utilization).abs() > UTIL_EPS * util.max(1.0) {
        d.error(
            Code::CERT012,
            Location::Global,
            format!(
                "reported utilization {} but recomputed {util}",
                sel.utilization
            ),
        );
    }
    let tasks: Vec<(u64, u64)> = sel
        .assignment
        .config
        .iter()
        .zip(specs)
        .map(|(&j, s)| (s.curve.points()[j].cycles, s.period))
        .collect();
    let exact = edf_exact_schedulable(&tasks).unwrap_or(util <= 1.0 + UTIL_EPS);
    if exact != sel.schedulable {
        d.error(
            Code::CERT005,
            Location::Global,
            format!(
                "claims schedulable = {}, exact demand test says {exact}",
                sel.schedulable
            ),
        );
    }
    d
}

/// Certifies an RMS selection: assignment sanity and budget
/// (`CERT012`/`CERT002`), reported utilization (`CERT012`), and the
/// implicit schedulability claim against the exact scheduling-points
/// re-test (`CERT006` — `select_rms` only returns schedulable sets).
pub fn check_rms_selection(specs: &[TaskSpec], sel: &RmsSelection, budget: u64) -> Diagnostics {
    let mut d = Diagnostics::new();
    if !check_assignment(specs, &sel.assignment.config, budget, &mut d) {
        return d;
    }
    let util = recomputed_utilization(specs, &sel.assignment.config);
    if (util - sel.utilization).abs() > UTIL_EPS * util.max(1.0) {
        d.error(
            Code::CERT012,
            Location::Global,
            format!(
                "reported utilization {} but recomputed {util}",
                sel.utilization
            ),
        );
    }
    let tasks: Vec<(u64, u64)> = sel
        .assignment
        .config
        .iter()
        .zip(specs)
        .map(|(&j, s)| (s.curve.points()[j].cycles, s.period))
        .collect();
    if !rms_exact_schedulable(&tasks) {
        d.error(
            Code::CERT006,
            Location::Global,
            "selection fails the exact RMS scheduling-points re-test",
        );
    }
    d
}

// ---------------------------------------------------------------------------
// ILP certificates
// ---------------------------------------------------------------------------

/// Certifies an ILP solution against its model: dimension, every
/// constraint row re-evaluated, and the reported objective recomputed
/// (`CERT004`). Optimality cannot be certified without a dual — this
/// checks *feasibility and honesty*, which is what certificate checking
/// can guarantee.
pub fn check_ilp_solution(model: &Model, sol: &IlpSolution) -> Diagnostics {
    let mut d = Diagnostics::new();
    if sol.values.len() != model.num_vars() {
        d.error(
            Code::CERT004,
            Location::Global,
            format!(
                "solution has {} value(s), model has {} variable(s)",
                sol.values.len(),
                model.num_vars()
            ),
        );
        return d;
    }
    for i in 0..model.num_rows() {
        let (terms, cmp, rhs) = model.row(i);
        let lhs: i64 = terms
            .iter()
            .map(|&(v, c)| if sol.values[v] { c } else { 0 })
            .sum();
        let ok = match cmp {
            Cmp::Le => lhs <= rhs,
            Cmp::Ge => lhs >= rhs,
            Cmp::Eq => lhs == rhs,
        };
        if !ok {
            let op = match cmp {
                Cmp::Le => "<=",
                Cmp::Ge => ">=",
                Cmp::Eq => "==",
            };
            d.error(
                Code::CERT004,
                Location::Row(i),
                format!("row evaluates to {lhs} {op} {rhs}, which is false"),
            );
        }
    }
    let objective: i64 = model
        .objective()
        .iter()
        .zip(&sol.values)
        .map(|(&c, &x)| if x { c } else { 0 })
        .sum();
    if objective != sol.objective {
        let sense = match model.sense() {
            Sense::Minimize => "minimize",
            Sense::Maximize => "maximize",
        };
        d.error(
            Code::CERT004,
            Location::Global,
            format!(
                "reported objective {} ({sense}), recomputed {objective}",
                sol.objective
            ),
        );
    }
    d
}

// ---------------------------------------------------------------------------
// Pareto-front certificates
// ---------------------------------------------------------------------------

/// Certifies a claimed Pareto front (`CERT007`): points in strictly
/// ascending cost order and no point dominated by any other. Both axes
/// are minimized — `value` is remaining workload, `cost` is area — so a
/// valid front has strictly descending values.
pub fn check_pareto_front(front: &[ParetoPoint]) -> Diagnostics {
    let mut d = Diagnostics::new();
    for (i, p) in front.iter().enumerate() {
        if i > 0 {
            let prev = &front[i - 1];
            if p.cost <= prev.cost {
                d.error(
                    Code::CERT007,
                    Location::Point(i),
                    format!(
                        "cost {} does not increase over point {} ({})",
                        p.cost,
                        i - 1,
                        prev.cost
                    ),
                );
            }
        }
        for (j, q) in front.iter().enumerate() {
            if i != j
                && q.cost <= p.cost
                && q.value <= p.value
                && (q.cost, q.value) != (p.cost, p.value)
            {
                d.error(
                    Code::CERT007,
                    Location::Point(i),
                    format!(
                        "point ({}, {}) is dominated by point {j} ({}, {})",
                        p.cost, p.value, q.cost, q.value
                    ),
                );
                break;
            }
        }
    }
    d
}

/// Certifies an ε-Pareto cover claim (`CERT007`): every exact point must
/// be matched by an approximate point within a `(1+ε)` factor on *both*
/// minimized axes. The approximate front itself is also checked for
/// mutual non-dominance.
pub fn check_eps_cover(exact: &[ParetoPoint], approx: &[ParetoPoint], eps: f64) -> Diagnostics {
    let mut d = check_pareto_front(approx);
    for (i, e) in exact.iter().enumerate() {
        let covered = approx.iter().any(|a| {
            a.cost as f64 <= (1.0 + eps) * e.cost as f64 + 1e-9
                && a.value as f64 <= (1.0 + eps) * e.value as f64 + 1e-9
        });
        if !covered {
            d.error(
                Code::CERT007,
                Location::Point(i),
                format!(
                    "exact point ({}, {}) has no (1+{eps})-cover in the approximate front",
                    e.cost, e.value
                ),
            );
        }
    }
    d
}

// ---------------------------------------------------------------------------
// Graph-partition certificates
// ---------------------------------------------------------------------------

/// Certifies a k-way partitioning (`CERT009`): assignment dimensions and
/// part indices, balance within [`BALANCE_FACTOR`], and — when the caller
/// reports one — the claimed edge cut against an independent recount.
pub fn check_partitioning(g: &Graph, p: &Partitioning, claimed_cut: Option<u64>) -> Diagnostics {
    let mut d = Diagnostics::new();
    if p.assignment.len() != g.len() {
        d.error(
            Code::CERT009,
            Location::Global,
            format!(
                "assignment covers {} vertices, graph has {}",
                p.assignment.len(),
                g.len()
            ),
        );
        return d;
    }
    if p.k == 0 {
        d.error(
            Code::CERT009,
            Location::Global,
            "partitioning declares k = 0",
        );
        return d;
    }
    for (v, &part) in p.assignment.iter().enumerate() {
        if part >= p.k {
            d.error(
                Code::CERT009,
                Location::Vertex(v),
                format!("assigned to part {part}, but k = {}", p.k),
            );
            return d;
        }
    }

    // Balance: recomputed part weights against the partitioner's contract.
    let mut weights = vec![0u64; p.k];
    for v in 0..g.len() {
        weights[p.assignment[v]] += g.vertex_weight(v);
    }
    let total: u64 = weights.iter().sum();
    if total > 0 {
        let ideal = total as f64 / p.k as f64;
        let heaviest = weights.iter().copied().max().unwrap_or(0) as f64;
        // Integer vertex weights cannot always split evenly: one whole
        // vertex of slack on top of the contractual factor keeps the check
        // honest without rejecting optimal-but-chunky splits.
        let slack = (0..g.len()).map(|v| g.vertex_weight(v)).max().unwrap_or(0) as f64;
        if heaviest > ideal * BALANCE_FACTOR + slack {
            d.error(
                Code::CERT009,
                Location::Global,
                format!(
                    "heaviest part weighs {heaviest}, above {BALANCE_FACTOR}x the ideal {ideal:.1}"
                ),
            );
        }
    }

    // Independent edge-cut recount (each undirected edge once).
    if let Some(claimed) = claimed_cut {
        let mut cut = 0u64;
        for u in 0..g.len() {
            for &(v, w) in g.neighbors(u) {
                if u < v && p.assignment[u] != p.assignment[v] {
                    cut += w;
                }
            }
        }
        if cut != claimed {
            d.error(
                Code::CERT009,
                Location::Global,
                format!("claimed edge cut {claimed}, recount gives {cut}"),
            );
        }
    }
    d
}

// ---------------------------------------------------------------------------
// Reconfiguration certificates (Chapters 6 and 7)
// ---------------------------------------------------------------------------

/// Certifies a Chapter 6 reconfiguration solution under the default
/// full-reload cost model; see [`check_reconfig_solution_with_cost`].
pub fn check_reconfig_solution(
    problem: &ReconfigProblem,
    sol: &ReconfigSolution,
    claimed_net_gain: Option<i64>,
) -> Diagnostics {
    check_reconfig_solution_with_cost(problem, sol, CostModel::FullReload, claimed_net_gain)
}

/// Certifies a Chapter 6 reconfiguration solution: index sanity
/// (`CERT011`), per-configuration fabric area from an independent sum
/// (`CERT010`), and — when the caller reports one — the claimed net gain
/// against an independent trace walk (`CERT011`) under the given
/// [`CostModel`]: each switch charged at the flat reload cost, or, for
/// partial reconfiguration, per area cell of the *incoming* configuration.
pub fn check_reconfig_solution_with_cost(
    problem: &ReconfigProblem,
    sol: &ReconfigSolution,
    cost_model: CostModel,
    claimed_net_gain: Option<i64>,
) -> Diagnostics {
    let mut d = Diagnostics::new();
    let n = problem.loops.len();
    if sol.version.len() != n || sol.config.len() != n {
        d.error(
            Code::CERT011,
            Location::Global,
            format!(
                "solution covers {}/{} loop(s), problem has {n}",
                sol.version.len(),
                sol.config.len()
            ),
        );
        return d;
    }
    if let Err(e) = problem.validate() {
        d.error(
            Code::CERT011,
            Location::Global,
            format!("problem is invalid: {e}"),
        );
        return d;
    }
    for (i, (&v, l)) in sol.version.iter().zip(&problem.loops).enumerate() {
        if v >= l.versions().len() {
            d.error(
                Code::CERT011,
                Location::Loop(i),
                format!(
                    "version {v} is outside the {}-version table",
                    l.versions().len()
                ),
            );
            return d;
        }
    }

    // Independent per-configuration area sums.
    let mut per_cfg: HashMap<usize, u64> = HashMap::new();
    for (i, l) in problem.loops.iter().enumerate() {
        if sol.version[i] > 0 {
            *per_cfg.entry(sol.config[i]).or_default() += l.versions()[sol.version[i]].area;
        }
    }
    for (&cfg, &area) in &per_cfg {
        if area > problem.max_area {
            d.error(
                Code::CERT010,
                Location::Config(cfg),
                format!(
                    "configuration area {area} exceeds the fabric's {}",
                    problem.max_area
                ),
            );
        }
    }

    // Independent trace walk: find every configuration switch (initial
    // load free, software loops transparent), charge it under the cost
    // model, and rebuild the net gain.
    if let Some(claimed) = claimed_net_gain {
        let raw: u64 = sol
            .version
            .iter()
            .zip(&problem.loops)
            .map(|(&v, l)| l.versions()[v].gain)
            .sum();
        let mut loaded: Option<usize> = None;
        let mut switches = 0u64;
        let mut reconfig_cycles = 0u64;
        for &l in &problem.trace {
            if sol.version[l] == 0 {
                continue;
            }
            let cfg = sol.config[l];
            if loaded.is_some_and(|cur| cur != cfg) {
                switches += 1;
                reconfig_cycles += match cost_model {
                    CostModel::FullReload => problem.reconfig_cost,
                    CostModel::Partial { per_area_unit } => {
                        per_area_unit * per_cfg.get(&cfg).copied().unwrap_or(0)
                    }
                };
            }
            loaded = Some(cfg);
        }
        let net = raw as i64 - reconfig_cycles as i64;
        if net != claimed {
            d.error(
                Code::CERT011,
                Location::Global,
                format!(
                    "claimed net gain {claimed}, trace walk gives {net} under \
                     {cost_model:?} (raw {raw}, {switches} reconfiguration(s) \
                     costing {reconfig_cycles})"
                ),
            );
        }
    }
    d
}

/// Certifies a Chapter 7 real-time reconfiguration solution: index and
/// configuration-count sanity, per-configuration area (`CERT010`), and the
/// utilization/schedulability claims against an independent EDF job-walk
/// demand recomputation (`CERT011`).
pub fn check_rt_solution(problem: &RtProblem, sol: &RtSolution) -> Diagnostics {
    let mut d = Diagnostics::new();
    let n = problem.tasks.len();
    if sol.version.len() != n || sol.config.len() != n {
        d.error(
            Code::CERT011,
            Location::Global,
            format!(
                "solution covers {}/{} task(s), problem has {n}",
                sol.version.len(),
                sol.config.len()
            ),
        );
        return d;
    }
    for (i, (&v, t)) in sol.version.iter().zip(&problem.tasks).enumerate() {
        if v >= t.versions.len() {
            d.error(
                Code::CERT011,
                Location::Task(i),
                format!(
                    "version {v} is outside the {}-version table",
                    t.versions.len()
                ),
            );
            return d;
        }
    }

    let used: HashSet<usize> = sol
        .version
        .iter()
        .zip(&sol.config)
        .filter(|(&v, _)| v > 0)
        .map(|(_, &c)| c)
        .collect();
    if used.len() > problem.max_configs {
        d.error(
            Code::CERT011,
            Location::Global,
            format!(
                "uses {} configuration(s), problem allows {}",
                used.len(),
                problem.max_configs
            ),
        );
    }

    let mut per_cfg: HashMap<usize, u64> = HashMap::new();
    for (i, t) in problem.tasks.iter().enumerate() {
        if sol.version[i] > 0 {
            *per_cfg.entry(sol.config[i]).or_default() += t.versions[sol.version[i]].area;
        }
    }
    for (&cfg, &area) in &per_cfg {
        if area > problem.max_area {
            d.error(
                Code::CERT010,
                Location::Config(cfg),
                format!(
                    "configuration area {area} exceeds the fabric's {}",
                    problem.max_area
                ),
            );
        }
    }

    // Independent demand recomputation: per-task job cycles over the
    // hyperperiod plus reconfiguration switches along the deadline-ordered
    // job sequence (synchronous release, initial load free).
    let h = problem.hyperperiod();
    let job_cycles: u64 = problem
        .tasks
        .iter()
        .zip(&sol.version)
        .map(|(t, &v)| (t.base_wcet - t.versions[v].gain) * (h / t.period))
        .sum();
    let mut jobs: Vec<(u64, usize)> = Vec::new();
    for (i, t) in problem.tasks.iter().enumerate() {
        let mut deadline = t.period;
        while deadline <= h {
            jobs.push((deadline, i));
            deadline += t.period;
        }
    }
    jobs.sort_unstable();
    let mut loaded: Option<usize> = None;
    let mut switches = 0u64;
    for &(_, t) in &jobs {
        if sol.version[t] == 0 {
            continue;
        }
        let cfg = sol.config[t];
        if loaded.is_some_and(|cur| cur != cfg) {
            switches += 1;
        }
        loaded = Some(cfg);
    }
    let demand = job_cycles + switches * problem.reconfig_cost;
    let schedulable = demand <= h;
    let utilization = demand as f64 / h as f64;

    if schedulable != sol.schedulable {
        d.error(
            Code::CERT011,
            Location::Global,
            format!(
                "claims schedulable = {}, job-walk demand {demand} over hyperperiod {h} says {schedulable}",
                sol.schedulable
            ),
        );
    }
    if (utilization - sol.utilization).abs() > UTIL_EPS * utilization.max(1.0) {
        d.error(
            Code::CERT011,
            Location::Global,
            format!(
                "reported utilization {} but job-walk recomputation gives {utilization}",
                sol.utilization
            ),
        );
    }
    d
}

// ---------------------------------------------------------------------------
// Simulation gain accounting (Chapter 8 cross-check)
// ---------------------------------------------------------------------------

/// Certifies a pair of simulation cycle counts — a software run and a
/// customized run over the same input — against an independent per-block
/// gain-accounting walk (`CERT013`).
///
/// `cis` lists the deployed custom instructions as plain
/// `(block index, covered nodes, hardware cycles)` tuples;
/// `block_counts` is the execution profile (identical for both runs:
/// custom instructions re-time blocks, never re-route control flow). The
/// walk recomputes each block's cost from first principles — terminator
/// cost plus per-operation software latencies, with covered operations
/// replaced by their instruction's hardware cycles — and requires both
/// reported totals to equal `Σ cost(b) · counts(b)` exactly. Overlapping
/// instructions in one block make the accounting ill-defined and are
/// reported as `CERT001`.
pub fn check_sim_accounting(
    program: &Program,
    cis: &[(usize, NodeSet, u64)],
    block_counts: &[u64],
    sw_cycles: u64,
    customized_cycles: u64,
) -> Diagnostics {
    let mut d = Diagnostics::new();
    let nb = program.blocks.len();
    if block_counts.len() != nb {
        d.error(
            Code::CERT013,
            Location::Global,
            format!(
                "profile covers {} block(s), program has {nb}",
                block_counts.len()
            ),
        );
        return d;
    }
    let mut covered: Vec<NodeSet> = (0..nb).map(|b| program.blocks[b].dfg.empty_set()).collect();
    let mut hw_cost = vec![0u64; nb];
    for (which, &(b, ref nodes, cycles)) in cis.iter().enumerate() {
        if b >= nb {
            d.error(
                Code::CERT013,
                Location::Candidate(which),
                format!("custom instruction targets block {b} of {nb}"),
            );
            return d;
        }
        let dfg = &program.blocks[b].dfg;
        if nodes.iter().any(|id| id.0 >= dfg.len()) {
            d.error(
                Code::CERT013,
                Location::Candidate(which),
                format!(
                    "covered nodes fall outside block {b}'s {}-node DFG",
                    dfg.len()
                ),
            );
            return d;
        }
        if covered[b].intersects(nodes) {
            d.error(
                Code::CERT001,
                Location::Block(b),
                format!("custom instruction {which} overlaps an earlier one in block {b}"),
            );
            return d;
        }
        covered[b].union_with(nodes);
        hw_cost[b] += cycles;
    }
    let mut sw_total = 0u64;
    let mut cust_total = 0u64;
    for b in 0..nb {
        let bb = &program.blocks[b];
        let term = bb.terminator.cost();
        let mut sw_cost = term;
        let mut cust_cost = term + hw_cost[b];
        for id in bb.dfg.ids() {
            let lat = bb.dfg.kind(id).sw_latency();
            sw_cost += lat;
            if !covered[b].contains(id) {
                cust_cost += lat;
            }
        }
        sw_total += sw_cost * block_counts[b];
        cust_total += cust_cost * block_counts[b];
    }
    if sw_total != sw_cycles {
        d.error(
            Code::CERT013,
            Location::Global,
            format!(
                "software run reports {sw_cycles} cycle(s), gain-accounting walk \
                 gives {sw_total}"
            ),
        );
    }
    if cust_total != customized_cycles {
        d.error(
            Code::CERT013,
            Location::Global,
            format!(
                "customized run reports {customized_cycles} cycle(s), gain-accounting \
                 walk gives {cust_total}"
            ),
        );
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtise_ir::dfg::Operand;
    use rtise_ir::OpKind;
    use rtise_select::Assignment;

    fn diamond() -> Dfg {
        // a, b inputs; add = a+b; mul = add*a (member); ld = Load(add)
        // external; sub = mul - ld re-enters.
        let mut g = Dfg::new();
        let a = g.input(0);
        let b = g.input(1);
        let add = g.bin(OpKind::Add, a, b);
        let mul = g.bin(OpKind::Mul, add, a);
        let ld = g.un(OpKind::Load, add);
        let sub = g.bin(OpKind::Sub, mul, ld);
        g.output(0, sub);
        g
    }

    #[test]
    fn convexity_witness_matches_reference_check() {
        let g = diamond();
        // {add, sub} is non-convex: mul and ld both sit on re-entrant
        // paths. {add, mul} is convex.
        let bad: NodeSet = [NodeId(2), NodeId(5)].into_iter().collect();
        assert!(!g.is_convex(&bad));
        assert!(convex_violation(&g, &bad).is_some());
        let good: NodeSet = [NodeId(2), NodeId(3)].into_iter().collect();
        assert!(g.is_convex(&good));
        assert!(convex_violation(&g, &good).is_none());
    }

    #[test]
    fn io_counts_match_reference() {
        let g = diamond();
        let set: NodeSet = [NodeId(2), NodeId(3)].into_iter().collect();
        let (i, o) = io_count(&g, &set);
        let reference = g.io_counts(&set);
        assert_eq!((i, o), (reference.inputs, reference.outputs));
    }

    #[test]
    fn ci_cost_matches_hw_model() {
        let g = diamond();
        let hw = HwModel::default();
        let set: NodeSet = [NodeId(2), NodeId(3)].into_iter().collect();
        let (area, cycles, sw) = ci_cost(&g, &set, &hw);
        assert_eq!(area, hw.ci_area(&g, &set));
        assert_eq!(cycles, hw.ci_cycles(&g, &set));
        assert_eq!(sw, g.sw_latency(&set));
    }

    #[test]
    fn candidate_checks_flag_each_defect() {
        let g = diamond();
        // Contains a Load: CAND001.
        let with_load: NodeSet = [NodeId(4)].into_iter().collect();
        assert!(check_candidate_set(&g, &with_load, 4, 2, 0).has(Code::CAND001));
        // Non-convex: CAND002.
        let non_convex: NodeSet = [NodeId(2), NodeId(5)].into_iter().collect();
        assert!(check_candidate_set(&g, &non_convex, 4, 2, 0).has(Code::CAND002));
        // Port budget: CAND003 under a 1-input budget.
        let set: NodeSet = [NodeId(2), NodeId(3)].into_iter().collect();
        assert!(check_candidate_set(&g, &set, 1, 2, 0).has(Code::CAND003));
        // Empty: CAND004.
        assert!(check_candidate_set(&g, &g.empty_set(), 4, 2, 0).has(Code::CAND004));
        // Legal candidate: clean.
        assert!(check_candidate_set(&g, &set, 4, 2, 0).is_clean());
    }

    #[test]
    fn exact_tests_agree_with_rt_crate() {
        let sets: &[&[(u64, u64)]] = &[
            &[(1, 4), (2, 6), (3, 10)],
            &[(2, 4), (3, 6)],
            &[(1, 2), (1, 3), (1, 7)],
            &[(5, 10), (5, 11)],
        ];
        for tasks in sets {
            let periodic: Vec<rtise_rt::PeriodicTask> = tasks
                .iter()
                .map(|&(c, p)| rtise_rt::PeriodicTask::new("t", c, p))
                .collect();
            assert_eq!(
                edf_exact_schedulable(tasks).unwrap(),
                rtise_rt::edf_schedulable(&periodic),
                "EDF mismatch on {tasks:?}"
            );
            assert_eq!(
                rms_exact_schedulable(tasks),
                rtise_rt::rms_schedulable(&periodic),
                "RMS mismatch on {tasks:?}"
            );
        }
    }

    #[test]
    fn degenerate_task_sets_diagnose_instead_of_panicking() {
        // Zero periods must not divide by zero: the exact tests decline
        // (None / unschedulable) and the selection certifier reports
        // CERT012 on the offending task.
        assert_eq!(edf_exact_schedulable(&[(1, 0), (2, 4)]), None);
        assert!(!rms_exact_schedulable(&[(0, 0)]));
        // Zero WCETs are fine — an idle task set is trivially schedulable.
        assert_eq!(edf_exact_schedulable(&[(0, 3), (0, 7)]), Some(true));
        assert!(rms_exact_schedulable(&[(0, 3), (0, 7)]));

        let mut spec = TaskSpec::new(ConfigCurve::from_points("t", 100, &[(4, 60)]), 20);
        spec.period = 0;
        let sel = EdfSelection {
            assignment: Assignment { config: vec![0] },
            utilization: 0.0,
            schedulable: true,
        };
        let d = check_edf_selection(&[spec.clone()], &sel, 100);
        assert!(d.has(Code::CERT012), "{}", d.render());
        let rsel = RmsSelection {
            assignment: Assignment { config: vec![0] },
            utilization: 0.0,
        };
        let d = check_rms_selection(&[spec], &rsel, 100);
        assert!(d.has(Code::CERT012), "{}", d.render());
    }

    #[test]
    fn pareto_checks_catch_dominance() {
        let good = vec![
            ParetoPoint {
                cost: 0,
                value: 100,
            },
            ParetoPoint { cost: 5, value: 80 },
            ParetoPoint { cost: 9, value: 40 },
        ];
        assert!(check_pareto_front(&good).is_clean());
        let mut bad = good.clone();
        bad[2].value = 90; // dominated by point 1
        assert!(check_pareto_front(&bad).has(Code::CERT007));
    }

    #[test]
    fn fig_6_4_solutions_certify() {
        let problem = rtise_reconfig::model::fig_6_4_problem();
        let sol = rtise_reconfig::iterative_partition(&problem, 7);
        let d = check_reconfig_solution(&problem, &sol, Some(sol.net_gain(&problem)));
        assert!(d.is_clean(), "{d}");
        // Corrupt the claimed gain: CERT011.
        let d = check_reconfig_solution(&problem, &sol, Some(sol.net_gain(&problem) + 1));
        assert!(d.has(Code::CERT011));
    }

    #[test]
    fn curve_staircase_is_enforced() {
        let curve = ConfigCurve::from_points("t", 100, &[(4, 80), (9, 60)]);
        assert!(check_curve(&curve).is_clean());
    }

    #[test]
    fn ilp_solutions_certify() {
        let mut m = Model::new(3);
        m.set_objective(Sense::Maximize, &[60, 100, 120]);
        m.add_le(&[(0, 10), (1, 20), (2, 30)], 50);
        let sol = m.solve().expect("feasible");
        assert!(check_ilp_solution(&m, &sol).is_clean());
        let mut forged = sol.clone();
        forged.values = vec![true, true, true]; // violates the budget row
        let d = check_ilp_solution(&m, &forged);
        assert!(d.has(Code::CERT004));
    }

    #[test]
    fn candidate_cost_forgery_is_caught() {
        let mut p = Program::new("t", 2, 0);
        let g = {
            let mut g = Dfg::new();
            let a = g.input(0);
            let b = g.input(1);
            let s = g.bin(OpKind::Add, a, b);
            let m = g.node(OpKind::Mul, &[Operand::Node(s), Operand::Node(b)]);
            g.output(0, m);
            g
        };
        p.add_block(rtise_ir::cfg::BasicBlock {
            name: "main".into(),
            dfg: g,
            terminator: rtise_ir::cfg::Terminator::Return,
        });
        let hw = HwModel::default();
        let dfg = &p.block(rtise_ir::cfg::BlockId(0)).dfg;
        let nodes: NodeSet = [NodeId(2), NodeId(3)].into_iter().collect();
        let (area, hw_cycles, sw_cycles) = ci_cost(dfg, &nodes, &hw);
        let mut c = CiCandidate {
            block: rtise_ir::cfg::BlockId(0),
            nodes,
            area,
            hw_cycles,
            sw_cycles,
            exec_count: 10,
        };
        assert!(check_ci_candidate(&p, &c, &hw, 4, 2, 0).is_clean());
        c.area += 1;
        assert!(check_ci_candidate(&p, &c, &hw, 4, 2, 0).has(Code::CAND005));
    }
}
