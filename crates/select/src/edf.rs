//! Algorithm 1: optimal configuration selection under EDF.
//!
//! A bottom-up dynamic program: `Uᵢ(A)` is the minimum total utilization
//! of tasks `T₁..Tᵢ` within area `A`, recursively choosing the best
//! configuration of `Tᵢ` (Eq. 3.2/3.3 of the paper). Utilization is
//! minimized as the exact integer *demand* over the hyperperiod
//! (`Σ cyclesᵢ·(H/Pᵢ)`), avoiding floating-point ties.
//!
//! Two exact solvers share the recurrence. The classic dense grid walks
//! `budget/Δ + 1` slots per task, `Δ` the gcd of all configuration areas
//! and the budget — exact, but `Δ → 1` (coprime areas) degenerates to
//! `budget + 1` slots per task. The default sparse solver instead keeps,
//! per task prefix, only the dominance-pruned staircase of *reachable*
//! `(area, demand)` states; the dense row is the staircase sampled on the
//! grid, so both solvers pick bit-identical assignments (the sparse
//! backtrack replays the dense smallest-index tie-break). When a task's
//! sparse merge would touch more states than the dense row holds, the
//! solve falls back to the dense grid, which is cheaper there.

use crate::task::{demand, spec_hyperperiod, Assignment, TaskSpec};
use std::fmt;

/// Errors from [`select_edf`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SelectEdfError {
    /// The spec list is empty.
    NoTasks,
}

impl fmt::Display for SelectEdfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelectEdfError::NoTasks => write!(f, "task set is empty"),
        }
    }
}

impl std::error::Error for SelectEdfError {}

/// Result of the EDF selection.
#[derive(Debug, Clone, PartialEq)]
pub struct EdfSelection {
    /// Chosen configuration per task.
    pub assignment: Assignment,
    /// Minimum achievable utilization within the budget.
    pub utilization: f64,
    /// Whether the selected configuration set meets all deadlines
    /// (`U ≤ 1`).
    pub schedulable: bool,
}

/// Dynamic-program statistics for one [`select_edf_with_stats`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EdfDpStats {
    /// Area-grid step `Δ` (gcd of all configuration areas and the budget).
    /// Describes the dense grid even when the sparse solver ran.
    pub grid_step: u64,
    /// Dense grid slots per task row (`budget/Δ + 1`).
    pub grid_slots: u64,
    /// DP states materialized: staircase entries kept across all task rows
    /// on the sparse path, `slots × tasks` on the dense path (a fallback
    /// mid-solve adds both parts).
    pub dp_cells: u64,
    /// Candidate transitions evaluated while building the DP rows.
    pub transitions: u64,
}

/// Selects one configuration per task minimizing total utilization under
/// `area_budget`, optimal for EDF scheduling (Algorithm 1).
///
/// # Errors
///
/// See [`SelectEdfError`].
pub fn select_edf(specs: &[TaskSpec], area_budget: u64) -> Result<EdfSelection, SelectEdfError> {
    select_edf_with_stats(specs, area_budget).map(|(s, _)| s)
}

/// Like [`select_edf`], additionally returning [`EdfDpStats`] and
/// publishing `select.edf.*` counters to the [`rtise_obs`] registry.
///
/// # Errors
///
/// See [`SelectEdfError`].
pub fn select_edf_with_stats(
    specs: &[TaskSpec],
    area_budget: u64,
) -> Result<(EdfSelection, EdfDpStats), SelectEdfError> {
    if specs.is_empty() {
        return Err(SelectEdfError::NoTasks);
    }
    let span = rtise_trace::span(rtise_trace::codes::SELECT_EDF_SOLVE);
    let prep = Prep::new(specs, area_budget);
    let mut stats = prep.blank_stats();
    let (config, min_demand) = match solve_sparse(specs, area_budget, &prep, &mut stats) {
        Some(solved) => solved,
        None => {
            rtise_obs::record("select.edf.dense_fallbacks", 1);
            rtise_trace::instant(rtise_trace::codes::SELECT_EDF_DENSE_FALLBACK);
            solve_dense(specs, &prep, &mut stats)
        }
    };
    let selection = finalize(specs, &prep, config, min_demand);
    rtise_obs::record("select.edf.solves", 1);
    rtise_obs::record("select.edf.dp_cells", stats.dp_cells);
    rtise_obs::record("select.edf.transitions", stats.transitions);
    rtise_obs::observe("select.edf.dp_cells_per_solve", stats.dp_cells);
    rtise_trace::summary(
        rtise_trace::codes::SELECT_EDF_SUMMARY,
        &[
            ("grid_step", stats.grid_step),
            ("grid_slots", stats.grid_slots),
            ("dp_cells", stats.dp_cells),
            ("transitions", stats.transitions),
        ],
    );
    drop(span);
    Ok((selection, stats))
}

/// The dense gcd-grid reference solver. Kept callable so differential
/// tests and benchmarks can compare the sparse path against it; does not
/// publish counters.
///
/// # Errors
///
/// See [`SelectEdfError`].
#[doc(hidden)]
pub fn select_edf_dense_with_stats(
    specs: &[TaskSpec],
    area_budget: u64,
) -> Result<(EdfSelection, EdfDpStats), SelectEdfError> {
    if specs.is_empty() {
        return Err(SelectEdfError::NoTasks);
    }
    let prep = Prep::new(specs, area_budget);
    let mut stats = prep.blank_stats();
    let (config, min_demand) = solve_dense(specs, &prep, &mut stats);
    Ok((finalize(specs, &prep, config, min_demand), stats))
}

/// Shared solve context: demand weights and the dense-grid geometry.
struct Prep {
    weights: Vec<u128>,
    threshold: u128,
    hyperperiod: Option<u64>,
    step: u64,
    slots: usize,
}

impl Prep {
    fn new(specs: &[TaskSpec], area_budget: u64) -> Self {
        // Per-task demand weights: exact `H/Pᵢ` when the hyperperiod fits
        // in u64, else a 2⁴⁰ fixed-point fallback (relative rounding error
        // below 2⁻⁴⁰ per task — far under any configuration's utilization
        // step).
        let hyperperiod = spec_hyperperiod(specs);
        let (weights, threshold): (Vec<u128>, u128) = match hyperperiod {
            Some(h) => (
                specs.iter().map(|s| (h / s.period) as u128).collect(),
                h as u128,
            ),
            None => {
                const SCALE: u128 = 1 << 40;
                (
                    specs.iter().map(|s| SCALE / s.period as u128).collect(),
                    SCALE,
                )
            }
        };
        // Grid step: gcd of every configuration area and the budget.
        let mut step = area_budget;
        for s in specs {
            for p in s.curve.points() {
                step = gcd(step, p.area);
            }
        }
        let step = step.max(1);
        let slots = (area_budget / step) as usize + 1;
        Prep {
            weights,
            threshold,
            hyperperiod,
            step,
            slots,
        }
    }

    fn blank_stats(&self) -> EdfDpStats {
        EdfDpStats {
            grid_step: self.step,
            grid_slots: self.slots as u64,
            dp_cells: 0,
            transitions: 0,
        }
    }
}

/// Sparse reachable-area DP. Each row is the dominance-pruned staircase of
/// `(total area, minimal demand)` states — area ascending, demand strictly
/// descending — so `lookup(row, x)` equals the dense row sampled at grid
/// slot `x/Δ` (all reachable areas are multiples of `Δ`). Returns `None`
/// to request the dense fallback when a task's merge would materialize at
/// least as many candidate states as the dense row holds; transitions
/// already counted stay in `stats` and the dense pass adds its own.
fn solve_sparse(
    specs: &[TaskSpec],
    area_budget: u64,
    prep: &Prep,
    stats: &mut EdfDpStats,
) -> Option<(Vec<usize>, u128)> {
    // rows[i] = staircase after tasks `0..i`; rows[0] is the empty prefix.
    let mut rows: Vec<Vec<(u64, u128)>> = Vec::with_capacity(specs.len() + 1);
    rows.push(vec![(0, 0)]);
    for (s, &w) in specs.iter().zip(&prep.weights) {
        let prev = rows.last().expect("rows start non-empty");
        let pts = s.curve.points();
        if prev.len().saturating_mul(pts.len()) >= prep.slots {
            return None;
        }
        let mut cand: Vec<(u64, u128)> = Vec::with_capacity(prev.len() * pts.len());
        let mut transitions = 0;
        for &(a0, d0) in prev {
            for p in pts {
                if p.area > area_budget - a0 {
                    break; // points are ascending in area
                }
                transitions += 1;
                cand.push((a0 + p.area, d0.saturating_add(p.cycles as u128 * w)));
            }
        }
        stats.transitions += transitions;
        // Dominance prune: sort by (area, demand) and keep only entries
        // that strictly improve on the best demand seen so far.
        cand.sort_unstable();
        let mut stair: Vec<(u64, u128)> = Vec::with_capacity(cand.len());
        for (a, d) in cand {
            if stair.last().is_none_or(|&(_, ld)| d < ld) {
                stair.push((a, d));
            }
        }
        stats.dp_cells += stair.len() as u64;
        rows.push(stair);
    }

    // Backtrack from the full budget, replaying the dense smallest-index
    // tie-break: scan configurations in curve order and keep the first
    // strict improvement, exactly as the dense forward pass fills
    // `choice[i][a]`.
    let mut config = vec![0usize; specs.len()];
    let mut avail = area_budget;
    for (i, s) in specs.iter().enumerate().rev() {
        let prev = &rows[i];
        let w = prep.weights[i];
        let mut best = u128::MAX;
        let mut best_j = 0usize;
        for (j, p) in s.curve.points().iter().enumerate() {
            if p.area > avail {
                break;
            }
            let d = lookup(prev, avail - p.area).saturating_add(p.cycles as u128 * w);
            if d < best {
                best = d;
                best_j = j;
            }
        }
        config[i] = best_j;
        avail -= s.curve.points()[best_j].area;
    }
    let min_demand = lookup(rows.last().expect("rows non-empty"), area_budget);
    Some((config, min_demand))
}

/// Minimal demand reachable with total area ≤ `x`: the last staircase
/// entry at or below `x`. Every staircase holds `(0, ·)`, so the lookup
/// is total for `x ≥ 0`.
fn lookup(stair: &[(u64, u128)], x: u64) -> u128 {
    let idx = stair.partition_point(|&(a, _)| a <= x);
    stair[idx - 1].1
}

/// The dense gcd-grid DP (the original Algorithm 1 implementation).
fn solve_dense(specs: &[TaskSpec], prep: &Prep, stats: &mut EdfDpStats) -> (Vec<usize>, u128) {
    let (step, slots) = (prep.step, prep.slots);
    // dp[a] = minimal demand using tasks processed so far and area ≤ a·step;
    // choice[i][a] = configuration index chosen for task i at grid slot a.
    let mut dp: Vec<u128> = vec![0; slots];
    let mut choice: Vec<Vec<usize>> = Vec::with_capacity(specs.len());
    for (s, &w) in specs.iter().zip(&prep.weights) {
        let mut next = vec![u128::MAX; slots];
        let mut ch = vec![0usize; slots];
        for a in 0..slots {
            stats.dp_cells += 1;
            let avail = a as u64 * step;
            for (j, p) in s.curve.points().iter().enumerate() {
                if p.area > avail {
                    break; // points are ascending in area
                }
                stats.transitions += 1;
                let rest = ((avail - p.area) / step) as usize;
                let d = dp[rest].saturating_add(p.cycles as u128 * w);
                if d < next[a] {
                    next[a] = d;
                    ch[a] = j;
                }
            }
        }
        dp = next;
        choice.push(ch);
    }

    // Backtrack from the full budget.
    let mut config = vec![0usize; specs.len()];
    let mut slot = slots - 1;
    for (i, s) in specs.iter().enumerate().rev() {
        let j = choice[i][slot];
        config[i] = j;
        let used = s.curve.points()[j].area / step;
        slot -= used as usize;
    }
    (config, dp[slots - 1])
}

/// Builds the [`EdfSelection`] and decides schedulability from a solved
/// configuration vector.
fn finalize(specs: &[TaskSpec], prep: &Prep, config: Vec<usize>, min_demand: u128) -> EdfSelection {
    let assignment = Assignment { config };
    let total_demand: u128 = assignment
        .config
        .iter()
        .zip(specs)
        .zip(&prep.weights)
        .map(|((&j, s), &w)| s.curve.points()[j].cycles as u128 * w)
        .sum();
    debug_assert_eq!(total_demand, min_demand);
    let utilization = assignment.utilization(specs);
    // Exact integer test when the hyperperiod fits; the fixed-point
    // fallback truncates weights (underestimating demand), so decide
    // schedulability in floating point there.
    let schedulable = if let Some(h) = prep.hyperperiod {
        debug_assert_eq!(total_demand, demand(specs, &assignment.config, h));
        total_demand <= prep.threshold
    } else {
        utilization <= 1.0 + 1e-9
    };
    EdfSelection {
        utilization,
        schedulable,
        assignment,
    }
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtise_ise::configs::ConfigCurve;

    fn spec(name: &str, base: u64, period: u64, pts: &[(u64, u64)]) -> TaskSpec {
        TaskSpec::new(ConfigCurve::from_points(name, base, pts), period)
    }

    /// The motivating example of Fig. 3.2: T1(2,6)+cfg(7,1), T2(3,8)+cfg(6,2),
    /// T3(6,12)+cfg(4,5); budget 10.
    fn fig_3_2_specs() -> Vec<TaskSpec> {
        vec![
            spec("T1", 2, 6, &[(7, 1)]),
            spec("T2", 3, 8, &[(6, 2)]),
            spec("T3", 6, 12, &[(4, 5)]),
        ]
    }

    #[test]
    fn motivating_example_reaches_exactly_u_one() {
        let specs = fig_3_2_specs();
        let sw = Assignment::software(3).utilization(&specs);
        assert!(sw > 1.0, "task set starts unschedulable (U = {sw})");
        let sel = select_edf(&specs, 10).expect("select");
        // Optimal: customize T2 and T3 (areas 6 + 4 = 10), leave T1 in
        // software: U' = 2/6 + 2/8 + 5/12 = 1.
        assert_eq!(sel.assignment.config, vec![0, 1, 1]);
        assert!((sel.utilization - 1.0).abs() < 1e-12);
        assert!(sel.schedulable);
        assert_eq!(sel.assignment.total_area(&specs), 10);
    }

    #[test]
    fn zero_budget_keeps_software() {
        let specs = fig_3_2_specs();
        let sel = select_edf(&specs, 0).expect("select");
        assert_eq!(sel.assignment, Assignment::software(3));
        assert!(!sel.schedulable);
    }

    #[test]
    fn large_budget_takes_best_configs() {
        let specs = fig_3_2_specs();
        let sel = select_edf(&specs, 1000).expect("select");
        assert_eq!(sel.assignment.config, vec![1, 1, 1]);
        let u = 1.0 / 6.0 + 2.0 / 8.0 + 5.0 / 12.0;
        assert!((sel.utilization - u).abs() < 1e-12);
    }

    #[test]
    fn utilization_is_monotone_in_budget() {
        let specs = fig_3_2_specs();
        let mut prev = f64::INFINITY;
        for budget in 0..=20 {
            let sel = select_edf(&specs, budget).expect("select");
            assert!(sel.utilization <= prev + 1e-12, "budget {budget}");
            prev = sel.utilization;
        }
    }

    #[test]
    fn empty_task_set_is_an_error() {
        assert_eq!(select_edf(&[], 10), Err(SelectEdfError::NoTasks));
    }

    #[test]
    fn matches_exhaustive_on_random_instances() {
        use rtise_obs::Rng;
        let mut rng = Rng::new(31);
        for case in 0..50 {
            let n = rng.gen_range(1..=4usize);
            let specs: Vec<TaskSpec> = (0..n)
                .map(|i| {
                    let base = rng.gen_range(5..40u64);
                    let n_cfg = rng.gen_range(0..4usize);
                    let pts: Vec<(u64, u64)> = (0..n_cfg)
                        .map(|k| {
                            (
                                rng.gen_range(1..12u64) * (k as u64 + 1),
                                base.saturating_sub(rng.gen_range(1..=base)),
                            )
                        })
                        .collect();
                    spec(&format!("t{i}"), base, rng.gen_range(8..32u64), &pts)
                })
                .collect();
            let budget = rng.gen_range(0..30u64);
            let got = select_edf(&specs, budget).expect("select");
            // Exhaustive reference over all configuration tuples.
            let mut best = f64::INFINITY;
            let mut idx = vec![0usize; n];
            loop {
                let a = Assignment {
                    config: idx.clone(),
                };
                if a.total_area(&specs) <= budget {
                    best = best.min(a.utilization(&specs));
                }
                // Odometer increment.
                let mut k = 0;
                loop {
                    if k == n {
                        break;
                    }
                    idx[k] += 1;
                    if idx[k] < specs[k].curve.len() {
                        break;
                    }
                    idx[k] = 0;
                    k += 1;
                }
                if k == n {
                    break;
                }
            }
            assert!(
                (got.utilization - best).abs() < 1e-9,
                "case {case}: got {} want {best}",
                got.utilization
            );
        }
    }

    #[test]
    fn stats_describe_the_grid_and_do_not_change_the_result() {
        let specs = fig_3_2_specs();
        let plain = select_edf(&specs, 10).expect("select");
        let (sel, stats) = select_edf_with_stats(&specs, 10).expect("select");
        assert_eq!(plain, sel);
        // Areas 7, 6, 4 and budget 10 have gcd 1 → an 11-slot dense grid,
        // but the sparse path materializes only the reachable staircases:
        // {0,7} → {0,6,7} → {0,4,6,7,10}, i.e. 2 + 3 + 5 states.
        assert_eq!(stats.grid_step, 1);
        assert_eq!(stats.grid_slots, 11);
        assert_eq!(stats.dp_cells, 2 + 3 + 5);
        // Each staircase entry came from at least one evaluated transition.
        assert!(stats.transitions >= stats.dp_cells);
        // The dense reference solves the same instance with a full grid.
        let (dense, dstats) = select_edf_dense_with_stats(&specs, 10).expect("dense");
        assert_eq!(dense, sel);
        assert_eq!(dstats.dp_cells, 11 * 3);
    }

    #[test]
    fn coarse_grids_fall_back_to_the_dense_dp() {
        // Areas 4/8 and budget 8 share gcd 4 → only 3 dense slots; the
        // first task's 3-point merge already reaches that, so the sparse
        // path bails out and the dense DP runs.
        let specs = vec![
            spec("a", 9, 6, &[(4, 5), (8, 2)]),
            spec("b", 7, 8, &[(4, 3), (8, 1)]),
        ];
        let (sel, stats) = select_edf_with_stats(&specs, 8).expect("select");
        assert_eq!(stats.grid_step, 4);
        assert_eq!(stats.grid_slots, 3);
        assert_eq!(stats.dp_cells, 3 * 2, "dense accounting after fallback");
        let (dense, dstats) = select_edf_dense_with_stats(&specs, 8).expect("dense");
        assert_eq!(sel, dense);
        assert_eq!(stats, dstats);
    }

    #[test]
    fn sparse_and_dense_paths_agree_on_random_instances() {
        use rtise_obs::Rng;
        let mut rng = Rng::new(0x5EDF);
        for case in 0..120 {
            let n = rng.gen_range(1..=6usize);
            let specs: Vec<TaskSpec> = (0..n)
                .map(|i| {
                    let base = rng.gen_range(5..60u64);
                    let n_cfg = rng.gen_range(0..5usize);
                    let pts: Vec<(u64, u64)> = (0..n_cfg)
                        .map(|k| {
                            (
                                rng.gen_range(1..30u64) + 13 * k as u64,
                                base.saturating_sub(rng.gen_range(1..=base)),
                            )
                        })
                        .collect();
                    spec(&format!("t{i}"), base, rng.gen_range(4..40u64), &pts)
                })
                .collect();
            let budget = rng.gen_range(0..120u64);
            let (sparse, _) = select_edf_with_stats(&specs, budget).expect("sparse");
            let (dense, _) = select_edf_dense_with_stats(&specs, budget).expect("dense");
            // Bit-identical, including the chosen configuration indices
            // (tie-breaks must match, not just the utilization).
            assert_eq!(sparse, dense, "case {case}");
        }
    }
}
