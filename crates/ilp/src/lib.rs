//! # rtise-ilp
//!
//! An exact solver for 0–1 integer linear programs, built as the "optimal"
//! baseline the paper obtains from a commercial ILP solver (§7.3.1).
//!
//! The solver is a depth-first branch-and-bound over binary variables with
//! two prunings:
//!
//! * **feasibility** — for every constraint it tracks the best-case
//!   contribution still achievable from unassigned variables and abandons a
//!   branch as soon as a row can no longer be satisfied;
//! * **bounding** — the objective of any completion is bounded below by the
//!   current value plus the sum of all still-selectable negative
//!   coefficients; branches that cannot beat the incumbent are cut.
//!
//! All coefficients are `i64`; callers with rational data (e.g. processor
//! utilization) scale to a common denominator first, keeping arithmetic
//! exact. Problem sizes in this workspace are a few hundred binaries, well
//! within reach of an exact search.
//!
//! # Example
//!
//! A 0–1 knapsack: maximize value under a weight budget.
//!
//! ```
//! use rtise_ilp::{Model, Sense};
//!
//! let mut m = Model::new(3);
//! m.set_objective(Sense::Maximize, &[60, 100, 120]);
//! m.add_le(&[(0, 10), (1, 20), (2, 30)], 50);
//! let sol = m.solve()?;
//! assert_eq!(sol.objective, 220);
//! assert_eq!(sol.values, vec![false, true, true]);
//! # Ok::<(), rtise_ilp::SolveError>(())
//! ```

use rtise_obs::{BoundedLog, Certificate, Hist};
use rtise_trace::bnb::{SearchOpts, SearchOutput};
use rtise_trace::codes;
use std::fmt;

/// Optimization direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sense {
    /// Minimize the objective.
    Minimize,
    /// Maximize the objective.
    Maximize,
}

/// Comparison operator of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// `lhs <= rhs`
    Le,
    /// `lhs >= rhs`
    Ge,
    /// `lhs == rhs`
    Eq,
}

#[derive(Debug, Clone)]
struct Row {
    terms: Vec<(usize, i64)>,
    cmp: Cmp,
    rhs: i64,
}

/// Errors from [`Model::solve`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveError {
    /// No assignment satisfies all constraints.
    Infeasible,
    /// A constraint or objective referenced a variable outside the model.
    VarOutOfRange {
        /// The offending variable index.
        var: usize,
    },
    /// The node budget was exhausted before proving optimality.
    NodeLimit {
        /// The configured limit.
        limit: u64,
    },
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Infeasible => write!(f, "model is infeasible"),
            SolveError::VarOutOfRange { var } => write!(f, "variable {var} out of range"),
            SolveError::NodeLimit { limit } => {
                write!(f, "exceeded branch-and-bound node limit of {limit}")
            }
        }
    }
}

impl std::error::Error for SolveError {}

/// One branch-and-bound node of the search, in preorder.
///
/// The events reference the *normalized* problem: minimize sense, every
/// row rewritten as `<=` (a `Ge` row negated, an `Eq` row split into its
/// original and negated halves, in declaration order), variables permuted
/// by [`IlpCertificate`]'s `order`. A replayer re-deriving the same
/// normalization from the model can verify every decision without
/// trusting this solver's arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IlpCertEvent {
    /// The node was abandoned because normalized row `row` cannot be
    /// satisfied by any completion (the row is the infeasibility witness).
    PruneInfeasible {
        /// Index into the normalized `<=` row system.
        row: u32,
    },
    /// The node was abandoned because no completion can beat the
    /// incumbent objective.
    PruneBound,
    /// A full assignment was reached (depth = number of variables); the
    /// replayer updates its own incumbent if the leaf improves on it.
    Leaf,
    /// The node branched on the next variable, trying `first` before
    /// `!first` — together the two children cover the whole subspace.
    Branch {
        /// The assignment explored first.
        first: bool,
    },
}

/// A replayable optimality certificate of one certified [`Model::solve_with`]
/// call: `order[d]` is the original index of the variable branched at
/// depth `d` (a permutation of `0..num_vars`), plus one event per
/// explored node, preorder.
///
/// `rtise-check`'s `bnb` analyzer replays the log against the model and
/// independently confirms that every prune was justified, that branching
/// covered the full space, and hence that the returned solution (or the
/// infeasibility verdict) is optimal. A truncated log (`dropped > 0`)
/// proves nothing beyond its prefix.
pub type IlpCertificate = Certificate<IlpCertEvent>;

/// An optimal solution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Solution {
    /// Objective value in the model's original sense.
    pub objective: i64,
    /// Assignment of each binary variable.
    pub values: Vec<bool>,
    /// Branch-and-bound nodes explored (for running-time tables).
    pub nodes: u64,
}

/// Branch-and-bound statistics for one [`Model::solve_with`] call.
///
/// Invariants: `nodes_explored >= 1` for any model with at least one
/// search node, and `nodes_explored >= pruned_bound + pruned_infeasible`
/// (every pruning event consumes the node it fires at).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IlpStats {
    /// Search-tree nodes entered.
    pub nodes_explored: u64,
    /// Nodes abandoned because a constraint row became unsatisfiable.
    pub pruned_infeasible: u64,
    /// Nodes abandoned because no completion could beat the incumbent.
    pub pruned_bound: u64,
    /// Times a new best (incumbent) solution was recorded.
    pub incumbent_updates: u64,
}

/// A 0–1 integer linear program.
///
/// See the [crate-level example](crate).
#[derive(Debug, Clone)]
pub struct Model {
    n: usize,
    objective: Vec<i64>,
    sense: Sense,
    rows: Vec<Row>,
    node_limit: u64,
}

impl Model {
    /// Creates a model with `n` binary variables, objective 0, sense
    /// minimize.
    pub fn new(n: usize) -> Self {
        Model {
            n,
            objective: vec![0; n],
            sense: Sense::Minimize,
            rows: Vec::new(),
            node_limit: u64::MAX,
        }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.n
    }

    /// Number of constraints.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Read-only view of constraint row `i` as `(terms, cmp, rhs)`, for
    /// independent result certification (`rtise-check` re-evaluates every
    /// row against a claimed solution).
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_rows()`.
    pub fn row(&self, i: usize) -> (&[(usize, i64)], Cmp, i64) {
        let r = &self.rows[i];
        (&r.terms, r.cmp, r.rhs)
    }

    /// The objective coefficients.
    pub fn objective(&self) -> &[i64] {
        &self.objective
    }

    /// The optimization sense.
    pub fn sense(&self) -> Sense {
        self.sense
    }

    /// Sets the objective `sense (coeffs · x)`.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs.len() != num_vars()`.
    pub fn set_objective(&mut self, sense: Sense, coeffs: &[i64]) {
        assert_eq!(coeffs.len(), self.n, "objective length mismatch");
        self.sense = sense;
        self.objective = coeffs.to_vec();
    }

    /// Adds `terms · x <= rhs`.
    pub fn add_le(&mut self, terms: &[(usize, i64)], rhs: i64) {
        self.rows.push(Row {
            terms: terms.to_vec(),
            cmp: Cmp::Le,
            rhs,
        });
    }

    /// Adds `terms · x >= rhs`.
    pub fn add_ge(&mut self, terms: &[(usize, i64)], rhs: i64) {
        self.rows.push(Row {
            terms: terms.to_vec(),
            cmp: Cmp::Ge,
            rhs,
        });
    }

    /// Adds `terms · x == rhs`.
    pub fn add_eq(&mut self, terms: &[(usize, i64)], rhs: i64) {
        self.rows.push(Row {
            terms: terms.to_vec(),
            cmp: Cmp::Eq,
            rhs,
        });
    }

    /// Caps the number of branch-and-bound nodes before
    /// [`SolveError::NodeLimit`] is returned.
    pub fn set_node_limit(&mut self, limit: u64) {
        self.node_limit = limit;
    }

    /// Solves the model to proven optimality.
    ///
    /// # Errors
    ///
    /// [`SolveError::Infeasible`] when no assignment satisfies all rows,
    /// [`SolveError::VarOutOfRange`] on malformed input, or
    /// [`SolveError::NodeLimit`] if a limit was set and exhausted.
    pub fn solve(&self) -> Result<Solution, SolveError> {
        self.solve_with(SearchOpts::default()).result
    }

    /// [`Model::solve`] with [`SearchOpts`], additionally returning the
    /// branch-and-bound [`IlpStats`] (also on error, so aborted searches
    /// stay observable) and, when `opts.cert_cap` is set, a replayable
    /// [`IlpCertificate`]. The certificate is returned even on
    /// [`SolveError::Infeasible`] — a complete log whose every prune is
    /// justified *is* the infeasibility proof. Publishes `ilp.*` counters
    /// to the [`rtise_obs`] registry.
    pub fn solve_with(
        &self,
        opts: SearchOpts,
    ) -> SearchOutput<Result<Solution, SolveError>, IlpStats, IlpCertificate> {
        let mut log = opts.cert_cap.map(BoundedLog::new);
        let mut order = Vec::new();
        let span = rtise_trace::span(codes::ILP_SOLVE);
        let (result, stats, depth_hist) = match self.prepare() {
            Err(e) => (Err(e), IlpStats::default(), Hist::new()),
            Ok(prep) => {
                if log.is_some() {
                    order = prep.order.clone();
                }
                let (best, stats, hist) = search(&prep, self.node_limit, log.as_mut());
                (
                    best.and_then(|best| self.extract(&prep, best, stats)),
                    stats,
                    hist,
                )
            }
        };
        rtise_obs::record("ilp.solves", 1);
        rtise_obs::record("ilp.nodes_explored", stats.nodes_explored);
        rtise_obs::record("ilp.pruned_infeasible", stats.pruned_infeasible);
        rtise_obs::record("ilp.pruned_bound", stats.pruned_bound);
        rtise_obs::record("ilp.incumbent_updates", stats.incumbent_updates);
        rtise_obs::observe_hist("ilp.depth", &depth_hist);
        rtise_trace::summary(
            codes::ILP_SUMMARY,
            &[
                ("nodes", stats.nodes_explored),
                ("pruned_infeasible", stats.pruned_infeasible),
                ("pruned_bound", stats.pruned_bound),
                ("incumbents", stats.incumbent_updates),
            ],
        );
        drop(span);
        SearchOutput {
            result,
            stats,
            cert: log.map(|log| log.into_certificate(order)),
        }
    }

    /// Like [`Model::solve_with`]'s result and stats but using the original dense
    /// search that rescans every row at every node. Kept callable so
    /// differential tests and benchmarks can compare the sparse-column
    /// search against it; does not publish counters.
    ///
    /// # Errors
    ///
    /// Same as [`Model::solve`].
    #[doc(hidden)]
    pub fn solve_reference_with_stats(&self) -> Result<(Solution, IlpStats), SolveError> {
        let prep = self.prepare()?;
        let mut search = SearchReference {
            n: self.n,
            m: prep.rhs.len(),
            coeff: &prep.coeff,
            min_rem: &prep.min_rem,
            obj: &prep.obj_ordered,
            obj_min_rem: &prep.obj_min_rem,
            rhs: &prep.rhs,
            lhs: vec![0; prep.rhs.len()],
            assign: vec![false; self.n],
            best: None,
            stats: IlpStats::default(),
            node_limit: self.node_limit,
        };
        search.dfs(0, 0)?;
        let stats = search.stats;
        self.extract(&prep, search.best, stats)
            .map(|sol| (sol, stats))
    }

    /// Normalizes the model (minimize, all rows `<=`), orders variables by
    /// descending |objective|, and precomputes the per-depth suffix minima
    /// both searches prune with.
    fn prepare(&self) -> Result<Prepared, SolveError> {
        for (v, _) in self.rows.iter().flat_map(|r| r.terms.iter()) {
            if *v >= self.n {
                return Err(SolveError::VarOutOfRange { var: *v });
            }
        }

        // Normalize to minimize, all rows as `<=`.
        let obj: Vec<i64> = match self.sense {
            Sense::Minimize => self.objective.clone(),
            Sense::Maximize => self.objective.iter().map(|c| -c).collect(),
        };
        let mut le_rows: Vec<(Vec<(usize, i64)>, i64)> = Vec::new();
        for r in &self.rows {
            match r.cmp {
                Cmp::Le => le_rows.push((r.terms.clone(), r.rhs)),
                Cmp::Ge => le_rows.push((r.terms.iter().map(|&(v, c)| (v, -c)).collect(), -r.rhs)),
                Cmp::Eq => {
                    le_rows.push((r.terms.clone(), r.rhs));
                    le_rows.push((r.terms.iter().map(|&(v, c)| (v, -c)).collect(), -r.rhs));
                }
            }
        }

        // Variable order: largest |objective| first to find good incumbents
        // early.
        let mut order: Vec<usize> = (0..self.n).collect();
        order.sort_by_key(|&v| std::cmp::Reverse(obj[v].abs()));
        let mut pos = vec![0usize; self.n];
        for (i, &v) in order.iter().enumerate() {
            pos[v] = i;
        }

        // Dense coefficient matrix per row (problems here are small), and
        // suffix-minimum achievable contribution per (row, depth).
        let m = le_rows.len();
        let mut coeff = vec![vec![0i64; self.n]; m];
        for (ri, (terms, _)) in le_rows.iter().enumerate() {
            for &(v, c) in terms {
                coeff[ri][pos[v]] += c;
            }
        }
        let mut min_rem = vec![vec![0i64; self.n + 1]; m];
        for (ri, row) in coeff.iter().enumerate() {
            for d in (0..self.n).rev() {
                min_rem[ri][d] = min_rem[ri][d + 1] + row[d].min(0);
            }
        }
        let obj_ordered: Vec<i64> = order.iter().map(|&v| obj[v]).collect();
        let mut obj_min_rem = vec![0i64; self.n + 1];
        for d in (0..self.n).rev() {
            obj_min_rem[d] = obj_min_rem[d + 1] + obj_ordered[d].min(0);
        }
        let rhs: Vec<i64> = le_rows.iter().map(|(_, r)| *r).collect();
        Ok(Prepared {
            order,
            coeff,
            min_rem,
            obj_ordered,
            obj_min_rem,
            rhs,
        })
    }

    /// Maps an ordered incumbent back to original variable order and sense.
    fn extract(
        &self,
        prep: &Prepared,
        best: IlpBest,
        stats: IlpStats,
    ) -> Result<Solution, SolveError> {
        let Some((obj_val, ordered_assign)) = best else {
            return Err(SolveError::Infeasible);
        };
        let mut values = vec![false; self.n];
        for (d, &v) in prep.order.iter().enumerate() {
            values[v] = ordered_assign[d];
        }
        let objective = match self.sense {
            Sense::Minimize => obj_val,
            Sense::Maximize => -obj_val,
        };
        Ok(Solution {
            objective,
            values,
            nodes: stats.nodes_explored,
        })
    }
}

/// Output of [`Model::prepare`]: the normalized, variable-ordered problem.
struct Prepared {
    order: Vec<usize>,
    coeff: Vec<Vec<i64>>,
    min_rem: Vec<Vec<i64>>,
    obj_ordered: Vec<i64>,
    obj_min_rem: Vec<i64>,
    rhs: Vec<i64>,
}

/// An incumbent: the normalized objective and the ordered assignment.
type IlpBest = Option<(i64, Vec<bool>)>;

/// Runs the sparse-column search of one solve under `node_limit`. Each
/// ordered variable's column lists the rows it actually touches;
/// branching and the violated-row count only walk these.
fn search(
    prep: &Prepared,
    node_limit: u64,
    cert: Option<&mut BoundedLog<IlpCertEvent>>,
) -> (Result<IlpBest, SolveError>, IlpStats, Hist) {
    let n = prep.order.len();
    let mut cols: Vec<Vec<(usize, i64)>> = vec![Vec::new(); n];
    for (ri, row) in prep.coeff.iter().enumerate() {
        for (d, &c) in row.iter().enumerate() {
            if c != 0 {
                cols[d].push((ri, c));
            }
        }
    }
    // Rows already unsatisfiable at the root.
    let violated = (0..prep.rhs.len())
        .filter(|&ri| prep.min_rem[ri][0] > prep.rhs[ri])
        .count();
    let mut search = Search {
        n,
        cols: &cols,
        min_rem: &prep.min_rem,
        obj: &prep.obj_ordered,
        obj_min_rem: &prep.obj_min_rem,
        rhs: &prep.rhs,
        lhs: vec![0; prep.rhs.len()],
        violated,
        assign: vec![false; n],
        best: None,
        stats: IlpStats::default(),
        node_limit,
        depth_hist: Hist::new(),
        cert,
    };
    let outcome = search.dfs(0, 0);
    (
        outcome.map(|()| search.best),
        search.stats,
        search.depth_hist,
    )
}

/// The sparse-column search. A row's feasibility status
/// (`lhs + min_rem[depth] > rhs`) can only change when the branching
/// variable's column touches it — `lhs` moves with the chosen value and
/// `min_rem[depth+1]` differs from `min_rem[depth]` only for nonzero
/// coefficients — so `violated` is maintained incrementally over the
/// column and the per-node feasibility check is O(1). Prune decisions,
/// and therefore the search tree and stats, are identical to
/// [`SearchReference`] (debug builds assert the count at every node).
struct Search<'a> {
    n: usize,
    cols: &'a [Vec<(usize, i64)>],
    min_rem: &'a [Vec<i64>],
    obj: &'a [i64],
    obj_min_rem: &'a [i64],
    rhs: &'a [i64],
    lhs: Vec<i64>,
    violated: usize,
    assign: Vec<bool>,
    best: IlpBest,
    stats: IlpStats,
    node_limit: u64,
    /// Depth of every expanded node, published as the `ilp.depth`
    /// histogram after the solve. Kept outside [`IlpStats`] so the
    /// differential test against [`SearchReference`] stays a plain
    /// tuple comparison.
    depth_hist: Hist,
    /// Certificate event log, when the caller asked for one. Recording
    /// never changes prune decisions — the witness-row scan on an
    /// infeasible prune is the only extra work.
    cert: Option<&'a mut BoundedLog<IlpCertEvent>>,
}

impl Search<'_> {
    fn dfs(&mut self, depth: usize, cur_obj: i64) -> Result<(), SolveError> {
        self.stats.nodes_explored += 1;
        self.depth_hist.observe(depth as u64);
        if self.stats.nodes_explored > self.node_limit {
            return Err(SolveError::NodeLimit {
                limit: self.node_limit,
            });
        }
        #[cfg(debug_assertions)]
        {
            let recount = (0..self.min_rem.len())
                .filter(|&ri| self.lhs[ri] + self.min_rem[ri][depth] > self.rhs[ri])
                .count();
            debug_assert_eq!(
                self.violated, recount,
                "incremental violated-row count diverged at depth {depth}"
            );
        }
        // Feasibility pruning.
        if self.violated > 0 {
            self.stats.pruned_infeasible += 1;
            if let Some(cert) = &mut self.cert {
                let row = (0..self.min_rem.len())
                    .find(|&ri| self.lhs[ri] + self.min_rem[ri][depth] > self.rhs[ri])
                    .expect("positive violated count implies a violated row");
                cert.push(IlpCertEvent::PruneInfeasible { row: row as u32 });
            }
            if rtise_trace::enabled() {
                rtise_trace::instant_with(codes::ILP_PRUNE_INFEASIBLE, &[("depth", depth as u64)]);
            }
            return Ok(());
        }
        // Objective bound.
        if let Some((best, _)) = &self.best {
            if cur_obj + self.obj_min_rem[depth] >= *best {
                self.stats.pruned_bound += 1;
                if let Some(cert) = &mut self.cert {
                    cert.push(IlpCertEvent::PruneBound);
                }
                if rtise_trace::enabled() {
                    rtise_trace::instant_with(codes::ILP_PRUNE_BOUND, &[("depth", depth as u64)]);
                }
                return Ok(());
            }
        }
        if depth == self.n {
            if let Some(cert) = &mut self.cert {
                cert.push(IlpCertEvent::Leaf);
            }
            if self.best.as_ref().is_none_or(|(b, _)| cur_obj < *b) {
                self.best = Some((cur_obj, self.assign.clone()));
                self.stats.incumbent_updates += 1;
                if rtise_trace::enabled() {
                    rtise_trace::instant_with(codes::ILP_INCUMBENT, &[("depth", depth as u64)]);
                }
            }
            return Ok(());
        }
        // Branch on the objective-improving value first.
        let branch_order: [bool; 2] = if self.obj[depth] < 0 {
            [true, false]
        } else {
            [false, true]
        };
        if let Some(cert) = &mut self.cert {
            cert.push(IlpCertEvent::Branch {
                first: branch_order[0],
            });
        }
        for val in branch_order {
            self.assign[depth] = val;
            self.cross(depth, val, true);
            let next_obj = cur_obj + if val { self.obj[depth] } else { 0 };
            self.dfs(depth + 1, next_obj)?;
            self.cross(depth, val, false);
        }
        self.assign[depth] = false;
        Ok(())
    }

    /// Moves the violated-row count (and, for `val = true`, `lhs`) across
    /// the `depth → depth+1` boundary (`down`) or back (`!down`), touching
    /// only the branching variable's column.
    fn cross(&mut self, depth: usize, val: bool, down: bool) {
        let (from, to) = if down {
            (depth, depth + 1)
        } else {
            (depth + 1, depth)
        };
        for &(ri, c) in &self.cols[depth] {
            let was = self.lhs[ri] + self.min_rem[ri][from] > self.rhs[ri];
            if val {
                if down {
                    self.lhs[ri] += c;
                } else {
                    self.lhs[ri] -= c;
                }
            }
            let now = self.lhs[ri] + self.min_rem[ri][to] > self.rhs[ri];
            match (was, now) {
                (false, true) => self.violated += 1,
                (true, false) => self.violated -= 1,
                _ => {}
            }
        }
    }
}

/// The original dense search: rescans every row for feasibility and walks
/// every row on each branch update.
struct SearchReference<'a> {
    n: usize,
    m: usize,
    coeff: &'a [Vec<i64>],
    min_rem: &'a [Vec<i64>],
    obj: &'a [i64],
    obj_min_rem: &'a [i64],
    rhs: &'a [i64],
    lhs: Vec<i64>,
    assign: Vec<bool>,
    best: Option<(i64, Vec<bool>)>,
    stats: IlpStats,
    node_limit: u64,
}

impl SearchReference<'_> {
    fn dfs(&mut self, depth: usize, cur_obj: i64) -> Result<(), SolveError> {
        self.stats.nodes_explored += 1;
        if self.stats.nodes_explored > self.node_limit {
            return Err(SolveError::NodeLimit {
                limit: self.node_limit,
            });
        }
        // Feasibility pruning.
        for ri in 0..self.m {
            if self.lhs[ri] + self.min_rem[ri][depth] > self.rhs[ri] {
                self.stats.pruned_infeasible += 1;
                return Ok(());
            }
        }
        // Objective bound.
        if let Some((best, _)) = &self.best {
            if cur_obj + self.obj_min_rem[depth] >= *best {
                self.stats.pruned_bound += 1;
                return Ok(());
            }
        }
        if depth == self.n {
            if self.best.as_ref().is_none_or(|(b, _)| cur_obj < *b) {
                self.best = Some((cur_obj, self.assign.clone()));
                self.stats.incumbent_updates += 1;
            }
            return Ok(());
        }
        // Branch on the objective-improving value first.
        let branch_order: [bool; 2] = if self.obj[depth] < 0 {
            [true, false]
        } else {
            [false, true]
        };
        for val in branch_order {
            self.assign[depth] = val;
            if val {
                for ri in 0..self.m {
                    self.lhs[ri] += self.coeff[ri][depth];
                }
            }
            let next_obj = cur_obj + if val { self.obj[depth] } else { 0 };
            self.dfs(depth + 1, next_obj)?;
            if val {
                for ri in 0..self.m {
                    self.lhs[ri] -= self.coeff[ri][depth];
                }
            }
        }
        self.assign[depth] = false;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtise_obs::Rng;

    /// The default search's solution paired with its stats, in the shape
    /// [`Model::solve_reference_with_stats`] returns.
    fn with_stats(m: &Model) -> Result<(Solution, IlpStats), SolveError> {
        let out = m.solve_with(SearchOpts::default());
        out.result.map(|s| (s, out.stats))
    }

    /// Exhaustive reference solver for small models.
    fn brute(m: &Model) -> Option<(i64, Vec<bool>)> {
        let n = m.n;
        let mut best: Option<(i64, Vec<bool>)> = None;
        for mask in 0u64..(1 << n) {
            let x: Vec<bool> = (0..n).map(|i| mask >> i & 1 == 1).collect();
            let ok = m.rows.iter().all(|r| {
                let lhs: i64 = r.terms.iter().map(|&(v, c)| if x[v] { c } else { 0 }).sum();
                match r.cmp {
                    Cmp::Le => lhs <= r.rhs,
                    Cmp::Ge => lhs >= r.rhs,
                    Cmp::Eq => lhs == r.rhs,
                }
            });
            if !ok {
                continue;
            }
            let obj: i64 = (0..n).map(|i| if x[i] { m.objective[i] } else { 0 }).sum();
            let better = match (&best, m.sense) {
                (None, _) => true,
                (Some((b, _)), Sense::Minimize) => obj < *b,
                (Some((b, _)), Sense::Maximize) => obj > *b,
            };
            if better {
                best = Some((obj, x));
            }
        }
        best
    }

    #[test]
    fn knapsack_maximize() {
        let mut m = Model::new(4);
        m.set_objective(Sense::Maximize, &[10, 40, 30, 50]);
        m.add_le(&[(0, 5), (1, 4), (2, 6), (3, 3)], 10);
        let s = m.solve().expect("feasible");
        assert_eq!(s.objective, 90);
        assert_eq!(s.values, vec![false, true, false, true]);
    }

    #[test]
    fn equality_constraints() {
        // Exactly one of x0..x2, minimize cost.
        let mut m = Model::new(3);
        m.set_objective(Sense::Minimize, &[5, 3, 9]);
        m.add_eq(&[(0, 1), (1, 1), (2, 1)], 1);
        let s = m.solve().expect("feasible");
        assert_eq!(s.objective, 3);
        assert_eq!(s.values, vec![false, true, false]);
    }

    #[test]
    fn ge_constraints() {
        let mut m = Model::new(3);
        m.set_objective(Sense::Minimize, &[4, 7, 2]);
        m.add_ge(&[(0, 1), (1, 1), (2, 1)], 2);
        let s = m.solve().expect("feasible");
        assert_eq!(s.objective, 6); // x0 + x2
    }

    #[test]
    fn infeasible_detected() {
        let mut m = Model::new(2);
        m.add_ge(&[(0, 1), (1, 1)], 3);
        assert_eq!(m.solve(), Err(SolveError::Infeasible));
    }

    #[test]
    fn empty_model_is_trivially_optimal() {
        let m = Model::new(0);
        let s = m.solve().expect("trivial");
        assert_eq!(s.objective, 0);
        assert!(s.values.is_empty());
    }

    #[test]
    fn negative_objective_prefers_ones() {
        let mut m = Model::new(2);
        m.set_objective(Sense::Minimize, &[-5, -3]);
        let s = m.solve().expect("feasible");
        assert_eq!(s.objective, -8);
        assert_eq!(s.values, vec![true, true]);
    }

    #[test]
    fn var_out_of_range_reported() {
        let mut m = Model::new(2);
        m.add_le(&[(5, 1)], 1);
        assert_eq!(m.solve(), Err(SolveError::VarOutOfRange { var: 5 }));
    }

    #[test]
    fn node_limit_enforced() {
        let mut m = Model::new(20);
        let obj: Vec<i64> = (0..20).map(|i| -(i as i64)).collect();
        m.set_objective(Sense::Minimize, &obj);
        // Awkward parity constraint forces exploration.
        let terms: Vec<(usize, i64)> = (0..20).map(|i| (i, 1)).collect();
        m.add_eq(&terms, 10);
        m.set_node_limit(5);
        assert_eq!(m.solve(), Err(SolveError::NodeLimit { limit: 5 }));
    }

    #[test]
    fn duplicate_terms_accumulate() {
        // x0 + x0 <= 1 forbids x0 = 1.
        let mut m = Model::new(1);
        m.set_objective(Sense::Maximize, &[1]);
        m.add_le(&[(0, 1), (0, 1)], 1);
        let s = m.solve().expect("feasible");
        assert_eq!(s.objective, 0);
    }

    /// Builds the seeded random instance shared by the randomized tests.
    fn random_model(rng: &mut Rng) -> Model {
        let n = rng.gen_range(1..=10usize);
        let mut m = Model::new(n);
        let sense = if rng.gen_bool(0.5) {
            Sense::Minimize
        } else {
            Sense::Maximize
        };
        let obj: Vec<i64> = (0..n).map(|_| rng.gen_range(-20..=20i64)).collect();
        m.set_objective(sense, &obj);
        for _ in 0..rng.gen_range(0..4u32) {
            let mut terms: Vec<(usize, i64)> = Vec::new();
            for v in 0..n {
                if rng.gen_bool(0.7) {
                    terms.push((v, rng.gen_range(-10..=10i64)));
                }
            }
            let rhs = rng.gen_range(-10..=15i64);
            match rng.gen_range(0..3u32) {
                0 => m.add_le(&terms, rhs),
                1 => m.add_ge(&terms, rhs),
                _ => m.add_eq(&terms, rhs),
            }
        }
        m
    }

    #[test]
    fn random_instances_match_brute_force() {
        let mut rng = Rng::new(0x5eed);
        for case in 0..60 {
            let m = random_model(&mut rng);
            let want = brute(&m);
            match (m.solve(), want) {
                (Ok(s), Some((obj, _))) => {
                    assert_eq!(s.objective, obj, "case {case}: objective mismatch")
                }
                (Err(SolveError::Infeasible), None) => {}
                (got, want) => panic!("case {case}: got {got:?}, brute {want:?}"),
            }
        }
    }

    /// Any returned solution satisfies all constraints.
    #[test]
    fn solutions_are_feasible() {
        for seed in 0u64..500 {
            let mut rng = Rng::new(seed);
            let n = rng.gen_range(1..=8usize);
            let mut m = Model::new(n);
            let obj: Vec<i64> = (0..n).map(|_| rng.gen_range(-9..=9i64)).collect();
            m.set_objective(Sense::Minimize, &obj);
            let terms: Vec<(usize, i64)> = (0..n).map(|v| (v, rng.gen_range(-5..=5i64))).collect();
            m.add_le(&terms, rng.gen_range(0..=10i64));
            if let Ok(s) = m.solve() {
                for r in &m.rows {
                    let lhs: i64 = r
                        .terms
                        .iter()
                        .map(|&(v, c)| if s.values[v] { c } else { 0 })
                        .sum();
                    assert!(lhs <= r.rhs, "seed {seed}");
                }
            }
        }
    }

    #[test]
    fn stats_invariants_hold_on_random_instances() {
        let mut rng = Rng::new(0xabcd);
        for case in 0..60 {
            let m = random_model(&mut rng);
            let plain = m.solve();
            match with_stats(&m) {
                Ok((s, stats)) => {
                    // The optimum is identical with and without stats.
                    assert_eq!(plain.expect("plain agrees"), s, "case {case}");
                    assert!(stats.nodes_explored >= 1, "case {case}");
                    assert!(
                        stats.nodes_explored >= stats.pruned_bound + stats.pruned_infeasible,
                        "case {case}: {stats:?}"
                    );
                    assert!(stats.incumbent_updates >= 1, "case {case}");
                    assert_eq!(s.nodes, stats.nodes_explored, "case {case}");
                }
                Err(e) => assert_eq!(plain, Err(e), "case {case}"),
            }
        }
    }

    #[test]
    fn sparse_search_matches_the_dense_reference_exactly() {
        let mut rng = Rng::new(0x11f);
        for case in 0..120 {
            let m = random_model(&mut rng);
            // Identical solutions AND identical node/prune counts: the
            // incremental violated-row count must not change the tree.
            assert_eq!(
                with_stats(&m),
                m.solve_reference_with_stats(),
                "case {case}"
            );
        }
        // The node-limit abort fires at the same node too.
        let mut m = Model::new(20);
        let obj: Vec<i64> = (0..20).map(|i| -(i as i64)).collect();
        m.set_objective(Sense::Minimize, &obj);
        let terms: Vec<(usize, i64)> = (0..20).map(|i| (i, 1)).collect();
        m.add_eq(&terms, 10);
        m.set_node_limit(37);
        assert_eq!(with_stats(&m), m.solve_reference_with_stats());
    }

    #[test]
    fn stats_published_to_registry() {
        // A scope keeps the deltas exact even while other tests solve
        // ILPs concurrently.
        let scope = rtise_obs::Scope::new();
        let diff = {
            let _guard = scope.enter();
            let mut m = Model::new(3);
            m.set_objective(Sense::Maximize, &[2, 3, 4]);
            m.add_le(&[(0, 1), (1, 1), (2, 1)], 2);
            m.solve().expect("feasible");
            scope.counters()
        };
        assert_eq!(diff.get("ilp.solves"), Some(&1), "{diff:?}");
        assert!(
            diff.get("ilp.nodes_explored").is_some_and(|&v| v >= 1),
            "{diff:?}"
        );
    }
}
