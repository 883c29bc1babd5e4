//! Algorithm 2: branch-and-bound configuration selection under RMS.
//!
//! RMS needs more than utilization minimization: a lower-utilization choice
//! can be unschedulable while a higher one passes (§3.1.4). The search
//! assigns configurations in decreasing priority (increasing period) order,
//! checking only the newly added task with the exact test of Theorem 1 —
//! higher-priority tasks cannot be disturbed by adding a lower-priority
//! one. Pruning: (1) area budget, (2) per-task schedulability, (3) a lower
//! bound on achievable utilization versus the incumbent; configurations are
//! tried fastest-first to find good incumbents early.

use crate::task::{Assignment, TaskSpec};
use rtise_obs::{BoundedLog, Certificate, Hist};
use rtise_rt::{rms_task_schedulable, scheduling_points, PeriodicTask};
use rtise_trace::bnb::{SearchOpts, SearchOutput};
use std::fmt;

/// Errors from [`select_rms`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SelectRmsError {
    /// The spec list is empty.
    NoTasks,
    /// No configuration choice meets all deadlines within the budget.
    Unschedulable,
}

impl fmt::Display for SelectRmsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelectRmsError::NoTasks => write!(f, "task set is empty"),
            SelectRmsError::Unschedulable => {
                write!(f, "no schedulable configuration within the area budget")
            }
        }
    }
}

impl std::error::Error for SelectRmsError {}

/// One branch-and-bound event, in preorder.
///
/// A non-leaf node that is not bound-pruned records exactly one `Cfg*`
/// event per configuration of the task at its depth, fastest (highest
/// curve index) first — together the events enumerate every child, so a
/// replayer can confirm the branching covered the whole space. Leaves
/// (depth = task count) record nothing: the incumbent rule (strictly
/// smaller utilization) is deterministic and replayed independently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RmsCertEvent {
    /// The node was abandoned: even the best remaining configurations
    /// cannot beat the incumbent utilization.
    PruneBound,
    /// The configuration exceeded the remaining area budget.
    CfgArea,
    /// The configuration failed the exact per-task RMS test (Theorem 1).
    CfgUnsched,
    /// The configuration was feasible so far; the search recursed into it.
    CfgRecurse,
}

/// A replayable optimality certificate of one certified
/// [`select_rms_with`] call: `order[d]` is the spec index assigned at
/// depth `d` (a permutation of `0..specs.len()` in non-decreasing period,
/// i.e. priority, order), plus the events of [`RmsCertEvent`], preorder.
///
/// `rtise-check`'s `bnb` analyzer replays it, re-deriving the utilization
/// bound and the scheduling-point test from the task specs, and confirms
/// the returned [`RmsSelection`] is utilization-optimal within the budget
/// (or, when the search failed, that the whole space was refuted). A
/// truncated log (`dropped > 0`) proves nothing beyond its prefix.
pub type RmsCertificate = Certificate<RmsCertEvent>;

/// Result of the RMS selection.
#[derive(Debug, Clone, PartialEq)]
pub struct RmsSelection {
    /// Chosen configuration per task (original task order).
    pub assignment: Assignment,
    /// Utilization of the chosen configurations.
    pub utilization: f64,
}

/// Branch-and-bound statistics for one [`select_rms_with`] call.
///
/// Invariant: `nodes >= pruned_bound` and every configuration either
/// recursed, was pruned by area, or failed the schedulability test, so
/// `configs_tried = recursions + pruned_area + pruned_unschedulable`
/// (recursions are not counted separately here; the counters below are the
/// observable pruning events).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RmsBnbStats {
    /// Search-tree nodes entered.
    pub nodes: u64,
    /// Nodes cut by the utilization lower bound against the incumbent.
    pub pruned_bound: u64,
    /// Configurations skipped because they exceeded the area budget.
    pub pruned_area: u64,
    /// Configurations rejected by the exact per-task RMS test.
    pub pruned_unschedulable: u64,
    /// Exact schedulability tests run (Theorem 1).
    pub sched_tests: u64,
    /// Times a new best (incumbent) assignment was recorded.
    pub incumbent_updates: u64,
}

/// Selects one configuration per task minimizing total utilization such
/// that the whole set is RMS-schedulable within `area_budget`
/// (Algorithm 2).
///
/// # Errors
///
/// [`SelectRmsError::Unschedulable`] when even the fastest configurations
/// cannot meet all deadlines within the budget.
pub fn select_rms(specs: &[TaskSpec], area_budget: u64) -> Result<RmsSelection, SelectRmsError> {
    select_rms_with(specs, area_budget, SearchOpts::default()).result
}

/// [`select_rms`] with [`SearchOpts`], additionally returning
/// [`RmsBnbStats`] and, when `opts.cert_cap` is set, a replayable
/// [`RmsCertificate`] — returned even when the search fails, since a
/// complete log with no surviving leaf is an unschedulability proof.
/// Publishes `select.rms.*` counters to the [`rtise_obs`] registry (also
/// when the instance is unschedulable — failed searches are the
/// expensive ones).
pub fn select_rms_with(
    specs: &[TaskSpec],
    area_budget: u64,
    opts: SearchOpts,
) -> SearchOutput<Result<RmsSelection, SelectRmsError>, RmsBnbStats, RmsCertificate> {
    let mut log = opts.cert_cap.map(BoundedLog::new);
    if specs.is_empty() {
        return SearchOutput {
            result: Err(SelectRmsError::NoTasks),
            stats: RmsBnbStats::default(),
            cert: log.map(|log| log.into_certificate(Vec::new())),
        };
    }
    let t = rms_tables(specs);
    let span = rtise_trace::span(rtise_trace::codes::SELECT_RMS_SOLVE);
    let n = specs.len();
    let mut ctx = Ctx {
        specs,
        t: &t,
        budget: area_budget,
        cycles: vec![0; n],
        prefix: t.points.iter().map(|pts| vec![0; pts.len()]).collect(),
        config: vec![0; n],
        best: None,
        stats: RmsBnbStats::default(),
        depth_hist: Hist::new(),
        cert: log.as_mut(),
    };
    search(&mut ctx, 0, 0, 0.0);
    let Ctx {
        best,
        stats,
        depth_hist,
        ..
    } = ctx;
    rtise_obs::observe_hist("select.rms.depth", &depth_hist);
    rtise_trace::summary(
        rtise_trace::codes::SELECT_RMS_SUMMARY,
        &[
            ("nodes", stats.nodes),
            ("pruned_bound", stats.pruned_bound),
            ("pruned_area", stats.pruned_area),
            ("pruned_unschedulable", stats.pruned_unschedulable),
            ("sched_tests", stats.sched_tests),
            ("incumbents", stats.incumbent_updates),
        ],
    );
    drop(span);
    rtise_obs::record("select.rms.solves", 1);
    rtise_obs::record("select.rms.nodes", stats.nodes);
    rtise_obs::record("select.rms.pruned_bound", stats.pruned_bound);
    rtise_obs::record("select.rms.pruned_area", stats.pruned_area);
    rtise_obs::record(
        "select.rms.pruned_unschedulable",
        stats.pruned_unschedulable,
    );
    rtise_obs::record("select.rms.sched_tests", stats.sched_tests);
    SearchOutput {
        result: best
            .map(|(utilization, config)| RmsSelection {
                assignment: Assignment { config },
                utilization,
            })
            .ok_or(SelectRmsError::Unschedulable),
        stats,
        cert: log.map(|log| log.into_certificate(t.order)),
    }
}

/// Per-instance tables shared by every search over the same spec list:
/// the priority order, the utilization suffix bounds, and the Theorem 1
/// scheduling-point sets `Sᵢ₋₁(Pᵢ)` with the tested task's own `⌈t/Pᵢ⌉`
/// factors. Periods are fixed by the priority order — only the chosen
/// cycles vary across the search — so all of it is computed once per
/// solve instead of once per schedulability test.
struct RmsTables {
    order: Vec<usize>,
    suffix_bound: Vec<f64>,
    periods: Vec<u64>,
    points: Vec<Vec<u64>>,
    self_fac: Vec<Vec<u128>>,
}

fn rms_tables(specs: &[TaskSpec]) -> RmsTables {
    // Priority order: increasing period.
    let mut order: Vec<usize> = (0..specs.len()).collect();
    order.sort_by_key(|&i| specs[i].period);
    let suffix_bound = suffix_bounds(specs, &order);
    let periods: Vec<u64> = order.iter().map(|&i| specs[i].period).collect();
    let points: Vec<Vec<u64>> = (0..order.len())
        .map(|d| scheduling_points(&periods, d))
        .collect();
    let self_fac: Vec<Vec<u128>> = points
        .iter()
        .enumerate()
        .map(|(d, pts)| {
            pts.iter()
                .map(|&t| (t as u128).div_ceil(periods[d] as u128))
                .collect()
        })
        .collect();
    RmsTables {
        order,
        suffix_bound,
        periods,
        points,
        self_fac,
    }
}

/// An incumbent: utilization and the configuration per task.
type RmsBest = Option<(f64, Vec<usize>)>;

struct Ctx<'a> {
    specs: &'a [TaskSpec],
    t: &'a RmsTables,
    budget: u64,
    // Chosen cycles per depth (priority order) along the current path.
    cycles: Vec<u64>,
    // Per-depth scratch: higher-priority demand at each scheduling
    // point, filled once per node and shared by all sibling configs.
    prefix: Vec<Vec<u128>>,
    config: Vec<usize>,
    best: RmsBest,
    stats: RmsBnbStats,
    // Depth histogram outside `RmsBnbStats`, which the differential
    // test against the reference search compares by tuple equality.
    depth_hist: Hist,
    cert: Option<&'a mut BoundedLog<RmsCertEvent>>,
}

fn search(ctx: &mut Ctx<'_>, depth: usize, area: u64, util: f64) {
    ctx.stats.nodes += 1;
    ctx.depth_hist.observe(depth as u64);
    if depth == ctx.t.order.len() {
        if ctx.best.as_ref().is_none_or(|(b, _)| util < *b) {
            ctx.best = Some((util, ctx.config.clone()));
            ctx.stats.incumbent_updates += 1;
            if rtise_trace::enabled() {
                rtise_trace::instant_with(
                    rtise_trace::codes::SELECT_RMS_INCUMBENT,
                    &[("depth", depth as u64)],
                );
            }
        }
        return;
    }
    // Bounding: even with the best remaining configurations we cannot
    // beat the incumbent.
    if let Some((b, _)) = &ctx.best {
        if util + ctx.t.suffix_bound[depth] >= *b - 1e-15 {
            ctx.stats.pruned_bound += 1;
            if let Some(log) = ctx.cert.as_deref_mut() {
                log.push(RmsCertEvent::PruneBound);
            }
            if rtise_trace::enabled() {
                rtise_trace::instant_with(
                    rtise_trace::codes::SELECT_RMS_PRUNE_BOUND,
                    &[("depth", depth as u64)],
                );
            }
            return;
        }
    }
    let ti = ctx.t.order[depth];
    let spec = &ctx.specs[ti];
    // Memoize the response-time sum of the already-fixed
    // higher-priority tasks at every scheduling point: each sibling
    // configuration below only adds its own `⌈t/Pᵢ⌉·C` term.
    for k in 0..ctx.t.points[depth].len() {
        let t = ctx.t.points[depth][k] as u128;
        let mut s = 0u128;
        for j in 0..depth {
            s += t.div_ceil(ctx.t.periods[j] as u128) * ctx.cycles[j] as u128;
        }
        ctx.prefix[depth][k] = s;
    }
    // Fastest (minimum cycles) configuration first: better incumbents
    // earlier (§3.1.4). Points are area-ascending = cycles-descending,
    // so iterate in reverse.
    for j in (0..spec.curve.len()).rev() {
        let p = &spec.curve.points()[j];
        if area + p.area > ctx.budget {
            ctx.stats.pruned_area += 1;
            if let Some(log) = ctx.cert.as_deref_mut() {
                log.push(RmsCertEvent::CfgArea);
            }
            if rtise_trace::enabled() {
                rtise_trace::instant_with(
                    rtise_trace::codes::SELECT_RMS_PRUNE_AREA,
                    &[("depth", depth as u64)],
                );
            }
            continue;
        }
        ctx.stats.sched_tests += 1;
        let c = p.cycles as u128;
        let ok = ctx.t.points[depth]
            .iter()
            .enumerate()
            .any(|(k, &t)| ctx.prefix[depth][k] + ctx.t.self_fac[depth][k] * c <= t as u128);
        #[cfg(debug_assertions)]
        {
            let tasks: Vec<PeriodicTask> = (0..=depth)
                .map(|d| {
                    let s = &ctx.specs[ctx.t.order[d]];
                    let wcet = if d == depth { p.cycles } else { ctx.cycles[d] };
                    PeriodicTask::new(s.curve.name.clone(), wcet, s.period)
                })
                .collect();
            let sorted: Vec<&PeriodicTask> = tasks.iter().collect();
            debug_assert_eq!(
                ok,
                rms_task_schedulable(&sorted, depth),
                "memoized Theorem 1 test diverged at depth {depth}"
            );
        }
        if ok {
            if let Some(log) = ctx.cert.as_deref_mut() {
                log.push(RmsCertEvent::CfgRecurse);
            }
            ctx.config[ti] = j;
            ctx.cycles[depth] = p.cycles;
            search(
                ctx,
                depth + 1,
                area + p.area,
                util + p.cycles as f64 / spec.period as f64,
            );
        } else {
            ctx.stats.pruned_unschedulable += 1;
            if let Some(log) = ctx.cert.as_deref_mut() {
                log.push(RmsCertEvent::CfgUnsched);
            }
            if rtise_trace::enabled() {
                rtise_trace::instant_with(
                    rtise_trace::codes::SELECT_RMS_PRUNE_UNSCHED,
                    &[("depth", depth as u64)],
                );
            }
        }
    }
}

/// The original branch-and-bound that re-runs the full Theorem 1 test
/// (scheduling points included) for every candidate. Kept
/// callable so differential tests and benchmarks can compare the memoized
/// search against it; does not publish counters.
///
/// # Errors
///
/// Same as [`select_rms`].
#[doc(hidden)]
pub fn select_rms_reference_with_stats(
    specs: &[TaskSpec],
    area_budget: u64,
) -> Result<(RmsSelection, RmsBnbStats), SelectRmsError> {
    if specs.is_empty() {
        return Err(SelectRmsError::NoTasks);
    }
    let mut order: Vec<usize> = (0..specs.len()).collect();
    order.sort_by_key(|&i| specs[i].period);
    let suffix_bound = suffix_bounds(specs, &order);

    struct Ctx<'a> {
        specs: &'a [TaskSpec],
        order: &'a [usize],
        suffix_bound: &'a [f64],
        budget: u64,
        partial: Vec<PeriodicTask>,
        config: Vec<usize>,
        best: Option<(f64, Vec<usize>)>,
        stats: RmsBnbStats,
    }

    fn search(ctx: &mut Ctx<'_>, depth: usize, area: u64, util: f64) {
        ctx.stats.nodes += 1;
        if depth == ctx.order.len() {
            if ctx.best.as_ref().is_none_or(|(b, _)| util < *b) {
                ctx.best = Some((util, ctx.config.clone()));
                ctx.stats.incumbent_updates += 1;
            }
            return;
        }
        if let Some((b, _)) = &ctx.best {
            if util + ctx.suffix_bound[depth] >= *b - 1e-15 {
                ctx.stats.pruned_bound += 1;
                return;
            }
        }
        let ti = ctx.order[depth];
        let spec = &ctx.specs[ti];
        for j in (0..spec.curve.len()).rev() {
            let p = &spec.curve.points()[j];
            if area + p.area > ctx.budget {
                ctx.stats.pruned_area += 1;
                continue;
            }
            ctx.partial.push(PeriodicTask::new(
                spec.curve.name.clone(),
                p.cycles,
                spec.period,
            ));
            let sorted: Vec<&PeriodicTask> = ctx.partial.iter().collect();
            ctx.stats.sched_tests += 1;
            let ok = rms_task_schedulable(&sorted, depth);
            if ok {
                ctx.config[ti] = j;
                search(
                    ctx,
                    depth + 1,
                    area + p.area,
                    util + p.cycles as f64 / spec.period as f64,
                );
            } else {
                ctx.stats.pruned_unschedulable += 1;
            }
            ctx.partial.pop();
        }
    }

    let mut ctx = Ctx {
        specs,
        order: &order,
        suffix_bound: &suffix_bound,
        budget: area_budget,
        partial: Vec::new(),
        config: vec![0; specs.len()],
        best: None,
        stats: RmsBnbStats::default(),
    };
    search(&mut ctx, 0, 0, 0.0);
    let stats = ctx.stats;
    let (utilization, config) = ctx.best.ok_or(SelectRmsError::Unschedulable)?;
    Ok((
        RmsSelection {
            assignment: Assignment { config },
            utilization,
        },
        stats,
    ))
}

/// Per-depth lower bound on the utilization still to come: the sum over
/// remaining tasks of their best configuration, area ignored.
fn suffix_bounds(specs: &[TaskSpec], order: &[usize]) -> Vec<f64> {
    let best_u: Vec<f64> = specs
        .iter()
        .map(|s| {
            s.curve
                .points()
                .iter()
                .map(|p| p.cycles as f64 / s.period as f64)
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    let mut suffix_bound = vec![0.0; specs.len() + 1];
    for d in (0..specs.len()).rev() {
        suffix_bound[d] = suffix_bound[d + 1] + best_u[order[d]];
    }
    suffix_bound
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtise_ise::configs::ConfigCurve;
    use rtise_rt::{rms_schedulable, simulate_rms, SimOutcome};

    /// The default search's selection paired with its stats, in the
    /// shape [`select_rms_reference_with_stats`] returns.
    fn with_stats(
        specs: &[TaskSpec],
        budget: u64,
    ) -> Result<(RmsSelection, RmsBnbStats), SelectRmsError> {
        let out = select_rms_with(specs, budget, SearchOpts::default());
        out.result.map(|s| (s, out.stats))
    }

    fn spec(name: &str, base: u64, period: u64, pts: &[(u64, u64)]) -> TaskSpec {
        TaskSpec::new(ConfigCurve::from_points(name, base, pts), period)
    }

    fn fig_3_2_specs() -> Vec<TaskSpec> {
        vec![
            spec("T1", 2, 6, &[(7, 1)]),
            spec("T2", 3, 8, &[(6, 2)]),
            spec("T3", 6, 12, &[(4, 5)]),
        ]
    }

    #[test]
    fn motivating_example_schedulable_under_rms_too() {
        // U = 1 with harmonic-ish periods 6/8/12 is not RMS-schedulable in
        // general; verify whatever the selector returns is truly
        // schedulable.
        match select_rms(&fig_3_2_specs(), 17) {
            Ok(sel) => {
                let tasks = sel.assignment.to_tasks(&fig_3_2_specs());
                assert!(rms_schedulable(&tasks));
                assert_eq!(simulate_rms(&tasks), SimOutcome::AllDeadlinesMet);
            }
            Err(SelectRmsError::Unschedulable) => {
                // Acceptable outcome for a strict budget; widen and retry.
                let sel = select_rms(&fig_3_2_specs(), 1000).expect("wide budget");
                let tasks = sel.assignment.to_tasks(&fig_3_2_specs());
                assert!(rms_schedulable(&tasks));
            }
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn rms_may_need_more_area_than_edf() {
        // Construct a set where utilization ≤ 1 configs exist but only the
        // larger-area ones are RMS-schedulable.
        let specs = vec![
            spec("a", 3, 6, &[(5, 2)]),
            spec("b", 4, 10, &[(5, 3)]),
            spec("c", 1, 15, &[]),
        ];
        // All-software: U = 0.5+0.4+1/15 < 1, EDF fine, RMS fails (classic).
        let sw: Vec<_> = Assignment::software(3).to_tasks(&specs);
        assert!(!rms_schedulable(&sw));
        let sel = select_rms(&specs, 100).expect("feasible with CIs");
        let tasks = sel.assignment.to_tasks(&specs);
        assert!(rms_schedulable(&tasks));
        assert!(sel.assignment.total_area(&specs) > 0, "needs hardware");
    }

    #[test]
    fn unschedulable_within_budget_is_reported() {
        let specs = vec![spec("a", 10, 8, &[(50, 7)])];
        // Even the custom config does not fit the period without area.
        assert_eq!(select_rms(&specs, 0), Err(SelectRmsError::Unschedulable));
        // With area, config 1 fits (7 < 8).
        let sel = select_rms(&specs, 50).expect("feasible");
        assert_eq!(sel.assignment.config, vec![1]);
    }

    #[test]
    fn empty_task_set_is_an_error() {
        assert_eq!(select_rms(&[], 5), Err(SelectRmsError::NoTasks));
    }

    #[test]
    fn matches_exhaustive_on_random_instances() {
        use rtise_obs::Rng;
        let mut rng = Rng::new(77);
        for case in 0..40 {
            let n = rng.gen_range(1..=3usize);
            let specs: Vec<TaskSpec> = (0..n)
                .map(|i| {
                    let base = rng.gen_range(2..20u64);
                    let pts: Vec<(u64, u64)> = (0..rng.gen_range(0..3usize))
                        .map(|k| {
                            (
                                rng.gen_range(1..10u64) * (k as u64 + 1),
                                rng.gen_range(1..=base),
                            )
                        })
                        .collect();
                    spec(&format!("t{i}"), base, rng.gen_range(6..24u64), &pts)
                })
                .collect();
            let budget = rng.gen_range(0..20u64);
            // Exhaustive reference.
            let mut best: Option<f64> = None;
            let mut idx = vec![0usize; n];
            loop {
                let a = Assignment {
                    config: idx.clone(),
                };
                if a.total_area(&specs) <= budget {
                    let tasks = a.to_tasks(&specs);
                    if rms_schedulable(&tasks) {
                        let u = a.utilization(&specs);
                        if best.is_none_or(|b| u < b) {
                            best = Some(u);
                        }
                    }
                }
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
            match (select_rms(&specs, budget), best) {
                (Ok(sel), Some(b)) => assert!(
                    (sel.utilization - b).abs() < 1e-9,
                    "case {case}: got {} want {b}",
                    sel.utilization
                ),
                (Err(SelectRmsError::Unschedulable), None) => {}
                (got, want) => panic!("case {case}: got {got:?}, brute {want:?}"),
            }
        }
    }

    #[test]
    fn memoized_search_matches_the_reference_search_exactly() {
        use rtise_obs::Rng;
        let mut rng = Rng::new(0x2A5);
        for case in 0..100 {
            let n = rng.gen_range(1..=5usize);
            let specs: Vec<TaskSpec> = (0..n)
                .map(|i| {
                    let base = rng.gen_range(2..25u64);
                    let pts: Vec<(u64, u64)> = (0..rng.gen_range(0..4usize))
                        .map(|k| {
                            (
                                rng.gen_range(1..12u64) * (k as u64 + 1),
                                rng.gen_range(1..=base),
                            )
                        })
                        .collect();
                    spec(&format!("t{i}"), base, rng.gen_range(5..30u64), &pts)
                })
                .collect();
            let budget = rng.gen_range(0..25u64);
            // Same incumbents, same prune decisions: stats must be equal
            // too, not just the optimum.
            assert_eq!(
                with_stats(&specs, budget),
                select_rms_reference_with_stats(&specs, budget),
                "case {case}"
            );
        }
    }

    #[test]
    fn stats_invariants_and_identical_optimum() {
        let specs = fig_3_2_specs();
        for budget in [0u64, 10, 17, 1000] {
            let plain = select_rms(&specs, budget);
            match with_stats(&specs, budget) {
                Ok((sel, stats)) => {
                    assert_eq!(plain.expect("plain agrees"), sel, "budget {budget}");
                    assert!(stats.nodes >= 1);
                    assert!(stats.incumbent_updates >= 1);
                    assert!(stats.sched_tests >= stats.pruned_unschedulable);
                }
                Err(e) => assert_eq!(plain, Err(e), "budget {budget}"),
            }
        }
    }
}
