//! Custom-instruction selection under an area budget.
//!
//! Given a candidate library, selection picks a pairwise non-overlapping
//! subset maximizing total profiled gain subject to `Σ area ≤ budget`
//! (§2.3.2). Three algorithms:
//!
//! * [`greedy_by_ratio`] — the classic gain/area priority heuristic;
//! * [`branch_and_bound`] — exact search with fractional-knapsack bounding,
//!   for modest candidate counts (the optimum the heuristics are judged
//!   against);
//! * [`iterative_selection`] — the IS baseline of Pozzi et al. \[81\] used in
//!   the Chapter 5 comparison: repeatedly commit the single best remaining
//!   candidate and discard everything overlapping it.

use crate::candidate::CiCandidate;
use rtise_obs::{BoundedLog, Certificate, Hist};
use rtise_trace::bnb::{SearchOpts, SearchOutput};

/// One branch-and-bound decision node, in preorder.
///
/// Leaves (depth = library size) record no event — the replayer detects
/// them from its own depth counter; and incumbent updates record no event
/// either, because the incumbent rule is deterministic (better gain, or
/// equal gain at smaller area, at every node entry) and the replayer
/// reproduces it independently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IseCertEvent {
    /// The node was abandoned: the fractional-knapsack relaxation over the
    /// remaining candidates cannot beat the incumbent gain.
    PruneBound,
    /// The node branched on the next candidate in ratio order. `include`
    /// states whether the include child was explored — which the search
    /// does exactly when the candidate fits the remaining budget, conflicts
    /// with nothing on the stack, and has positive gain. The exclude child
    /// is always explored, so the two children cover the space.
    Expand {
        /// Whether the include child exists.
        include: bool,
    },
}

/// A replayable optimality certificate of one certified
/// [`branch_and_bound_with`] call: `order[d]` is the candidate index
/// branched at depth `d` (a permutation of `0..cands.len()` in descending
/// gain/area order), plus one event per decision node, preorder.
///
/// `rtise-check`'s `bnb` analyzer replays it with an exact-integer bound
/// (no floating point) and confirms the returned [`Selection`] is
/// gain-optimal under the budget. A truncated log (`dropped > 0`) proves
/// nothing beyond its prefix.
pub type IseCertificate = Certificate<IseCertEvent>;

/// Branch-and-bound statistics for one [`branch_and_bound_with`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IseBnbStats {
    /// Search-tree nodes entered.
    pub nodes: u64,
    /// Nodes cut by the fractional-knapsack bound against the incumbent.
    pub pruned_bound: u64,
    /// Times a new best (incumbent) selection was recorded.
    pub incumbent_updates: u64,
}

/// A selection outcome: indices into the candidate slice plus totals.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Selection {
    /// Indices of chosen candidates (into the input slice).
    pub chosen: Vec<usize>,
    /// Total cycles saved.
    pub total_gain: u64,
    /// Total area consumed, in cells.
    pub total_area: u64,
}

impl Selection {
    fn from_indices(cands: &[CiCandidate], chosen: Vec<usize>) -> Self {
        let total_gain = chosen.iter().map(|&i| cands[i].total_gain()).sum();
        let total_area = chosen.iter().map(|&i| cands[i].area).sum();
        Selection {
            chosen,
            total_gain,
            total_area,
        }
    }

    /// Whether the selection is pairwise conflict-free and within `budget`.
    pub fn is_valid(&self, cands: &[CiCandidate], budget: u64) -> bool {
        if self.total_area > budget {
            return false;
        }
        for (i, &a) in self.chosen.iter().enumerate() {
            for &b in &self.chosen[i + 1..] {
                if cands[a].conflicts_with(&cands[b]) {
                    return false;
                }
            }
        }
        true
    }
}

/// Greedy selection by descending gain/area ratio.
///
/// Zero-area candidates (pure logic folded into existing cells) rank first.
/// Candidates conflicting with an already-chosen one are skipped.
pub fn greedy_by_ratio(cands: &[CiCandidate], budget: u64) -> Selection {
    let mut order: Vec<usize> = (0..cands.len()).collect();
    order.sort_by(|&a, &b| {
        // gain_a/area_a > gain_b/area_b  <=>  gain_a*area_b > gain_b*area_a
        let ga = cands[a].total_gain() as u128 * cands[b].area.max(1) as u128;
        let gb = cands[b].total_gain() as u128 * cands[a].area.max(1) as u128;
        gb.cmp(&ga).then(cands[a].area.cmp(&cands[b].area))
    });
    let mut chosen: Vec<usize> = Vec::new();
    let mut area = 0u64;
    for i in order {
        let c = &cands[i];
        if c.total_gain() == 0 || area + c.area > budget {
            continue;
        }
        if chosen.iter().any(|&j| cands[j].conflicts_with(c)) {
            continue;
        }
        area += c.area;
        chosen.push(i);
    }
    chosen.sort_unstable();
    Selection::from_indices(cands, chosen)
}

/// Exact selection by branch-and-bound with a fractional-knapsack upper
/// bound.
///
/// Exponential in the worst case; intended for candidate libraries up to a
/// few dozen entries (the optimality reference in tests and the Chapter 3
/// per-task configuration generator at fine granularity).
///
/// Variables are ordered by descending gain density (gain/area) so the
/// fractional bound is tight. At every node the bound is one greedy scan
/// over the remaining candidates in that order: free (zero-area) gains
/// always count, non-free ones fill the remaining room whole until the
/// first misfit, which counts fractionally.
pub fn branch_and_bound(cands: &[CiCandidate], budget: u64) -> Selection {
    branch_and_bound_with(cands, budget, SearchOpts::default()).result
}

/// [`branch_and_bound`] with [`SearchOpts`], additionally returning
/// [`IseBnbStats`] and, when `opts.cert_cap` is set, a replayable
/// [`IseCertificate`] of the search tree. Publishes `ise.bnb.*` counters
/// to the [`rtise_obs`] registry.
pub fn branch_and_bound_with(
    cands: &[CiCandidate],
    budget: u64,
    opts: SearchOpts,
) -> SearchOutput<Selection, IseBnbStats, IseCertificate> {
    let mut log = opts.cert_cap.map(BoundedLog::new);
    let _span = rtise_trace::span(rtise_trace::codes::ISE_BNB_SOLVE);
    let order = ratio_order(cands);
    let mut ctx = Ctx {
        cands,
        order: &order,
        budget,
        best: Selection::default(),
        stack: Vec::new(),
        stats: IseBnbStats::default(),
        depth_hist: Hist::new(),
        cert: log.as_mut(),
    };
    dfs(&mut ctx, 0, 0, 0);
    let Ctx {
        best,
        stats,
        depth_hist,
        ..
    } = ctx;
    rtise_obs::record("ise.bnb.solves", 1);
    rtise_obs::record("ise.bnb.nodes", stats.nodes);
    rtise_obs::record("ise.bnb.pruned_bound", stats.pruned_bound);
    rtise_obs::record("ise.bnb.incumbent_updates", stats.incumbent_updates);
    rtise_obs::observe_hist("ise.bnb.depth", &depth_hist);
    rtise_trace::summary(
        rtise_trace::codes::ISE_BNB_SUMMARY,
        &[
            ("nodes", stats.nodes),
            ("pruned_bound", stats.pruned_bound),
            ("incumbents", stats.incumbent_updates),
        ],
    );
    SearchOutput {
        result: best,
        stats,
        cert: log.map(|log| log.into_certificate(order)),
    }
}

/// Candidate indices in descending gain/area order — the branching order
/// of the search and the order a certificate declares.
fn ratio_order(cands: &[CiCandidate]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..cands.len()).collect();
    order.sort_by(|&a, &b| {
        // gain_a/area_a > gain_b/area_b  <=>  gain_a*area_b > gain_b*area_a
        let ga = cands[a].total_gain() as u128 * cands[b].area.max(1) as u128;
        let gb = cands[b].total_gain() as u128 * cands[a].area.max(1) as u128;
        gb.cmp(&ga)
    });
    order
}

struct Ctx<'a> {
    cands: &'a [CiCandidate],
    order: &'a [usize],
    budget: u64,
    best: Selection,
    stack: Vec<usize>,
    stats: IseBnbStats,
    depth_hist: Hist,
    cert: Option<&'a mut BoundedLog<IseCertEvent>>,
}

fn dfs(ctx: &mut Ctx<'_>, depth: usize, area: u64, gain: u64) {
    ctx.stats.nodes += 1;
    ctx.depth_hist.observe(depth as u64);
    if gain > ctx.best.total_gain || (gain == ctx.best.total_gain && area < ctx.best.total_area) {
        let mut chosen = ctx.stack.clone();
        chosen.sort_unstable();
        ctx.best = Selection {
            chosen,
            total_gain: gain,
            total_area: area,
        };
        ctx.stats.incumbent_updates += 1;
        if rtise_trace::enabled() {
            rtise_trace::instant_with(
                rtise_trace::codes::ISE_BNB_INCUMBENT,
                &[("depth", depth as u64), ("gain", gain)],
            );
        }
    }
    if depth == ctx.order.len() {
        return;
    }
    if bound(ctx.cands, &ctx.order[depth..], ctx.budget - area, gain) <= ctx.best.total_gain as f64
    {
        ctx.stats.pruned_bound += 1;
        if let Some(cert) = &mut ctx.cert {
            cert.push(IseCertEvent::PruneBound);
        }
        if rtise_trace::enabled() {
            rtise_trace::instant_with(
                rtise_trace::codes::ISE_BNB_PRUNE_BOUND,
                &[("depth", depth as u64)],
            );
        }
        return;
    }
    let i = ctx.order[depth];
    let fits = area + ctx.cands[i].area <= ctx.budget;
    let conflict = ctx
        .stack
        .iter()
        .any(|&j| ctx.cands[j].conflicts_with(&ctx.cands[i]));
    let include = fits && !conflict && ctx.cands[i].total_gain() > 0;
    if let Some(cert) = &mut ctx.cert {
        cert.push(IseCertEvent::Expand { include });
    }
    if include {
        ctx.stack.push(i);
        dfs(
            ctx,
            depth + 1,
            area + ctx.cands[i].area,
            gain + ctx.cands[i].total_gain(),
        );
        ctx.stack.pop();
    }
    dfs(ctx, depth + 1, area, gain);
}

/// The fractional-knapsack bound: `gain` plus a greedy fill of `room`
/// by the remaining candidates `rest`, in gain-density order, ignoring
/// conflicts.
fn bound(cands: &[CiCandidate], rest: &[usize], mut room: u64, gain: u64) -> f64 {
    let mut b = gain as f64;
    let mut fractional_used = false;
    for &i in rest {
        let c = &cands[i];
        if c.area == 0 {
            // Free candidates always fit, regardless of where the greedy
            // fill stopped.
            b += c.total_gain() as f64;
        } else if !fractional_used {
            if c.area <= room {
                room -= c.area;
                b += c.total_gain() as f64;
            } else {
                b += c.total_gain() as f64 * room as f64 / c.area as f64;
                fractional_used = true;
            }
        }
    }
    b
}

/// The Iterative Selection (IS) baseline \[81\]: per iteration, commit the
/// single remaining candidate with maximum total gain (ties to smaller
/// area), then discard all candidates overlapping it; stop when the budget
/// or library is exhausted.
///
/// Returns the selection *and* the per-iteration prefix gains, which the
/// Chapter 5 speedup-vs-analysis-time comparison plots.
pub fn iterative_selection(cands: &[CiCandidate], budget: u64) -> (Selection, Vec<u64>) {
    let mut alive: Vec<bool> = cands.iter().map(|c| c.total_gain() > 0).collect();
    let mut chosen = Vec::new();
    let mut area = 0u64;
    let mut gains = Vec::new();
    let mut gain = 0u64;
    loop {
        let next = (0..cands.len())
            .filter(|&i| alive[i] && area + cands[i].area <= budget)
            .max_by(|&a, &b| {
                cands[a]
                    .total_gain()
                    .cmp(&cands[b].total_gain())
                    .then(cands[b].area.cmp(&cands[a].area))
            });
        let Some(i) = next else { break };
        alive[i] = false;
        for (j, a) in alive.iter_mut().enumerate() {
            if *a && cands[j].conflicts_with(&cands[i]) {
                *a = false;
            }
        }
        area += cands[i].area;
        gain += cands[i].total_gain();
        chosen.push(i);
        gains.push(gain);
    }
    chosen.sort_unstable();
    (Selection::from_indices(cands, chosen), gains)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtise_ir::cfg::BlockId;
    use rtise_ir::nodeset::NodeSet;

    /// A synthetic candidate covering `nodes` of `block` in a 64-node DFG.
    fn cand(block: usize, nodes: &[usize], area: u64, gain: u64, freq: u64) -> CiCandidate {
        let mut set = NodeSet::with_capacity(64);
        for &n in nodes {
            set.insert(rtise_ir::dfg::NodeId(n));
        }
        CiCandidate {
            block: BlockId(block),
            nodes: set,
            area,
            hw_cycles: 1,
            sw_cycles: 1 + gain,
            exec_count: freq,
        }
    }

    #[test]
    fn greedy_prefers_ratio() {
        let cands = vec![
            cand(0, &[0], 10, 5, 1), // ratio 0.5
            cand(0, &[1], 2, 3, 1),  // ratio 1.5
            cand(0, &[2], 4, 4, 1),  // ratio 1.0
        ];
        let s = greedy_by_ratio(&cands, 6);
        assert_eq!(s.chosen, vec![1, 2]);
        assert_eq!(s.total_gain, 7);
        assert!(s.is_valid(&cands, 6));
    }

    #[test]
    fn greedy_skips_conflicts() {
        let cands = vec![
            cand(0, &[0, 1], 2, 10, 1),
            cand(0, &[1, 2], 2, 9, 1), // overlaps the first
            cand(0, &[3], 2, 1, 1),
        ];
        let s = greedy_by_ratio(&cands, 10);
        assert_eq!(s.chosen, vec![0, 2]);
    }

    #[test]
    fn bnb_beats_greedy_on_knapsack_trap() {
        // Greedy takes the high-ratio small item and misses the optimum.
        let cands = vec![
            cand(0, &[0], 6, 10, 1), // ratio 1.67
            cand(0, &[1], 5, 8, 1),  // ratio 1.6
            cand(0, &[2], 5, 8, 1),  // ratio 1.6
        ];
        let g = greedy_by_ratio(&cands, 10);
        let e = branch_and_bound(&cands, 10);
        assert_eq!(g.total_gain, 10);
        assert_eq!(e.total_gain, 16);
        assert!(e.is_valid(&cands, 10));
    }

    #[test]
    fn bnb_respects_conflicts() {
        let cands = vec![
            cand(0, &[0, 1], 1, 10, 1),
            cand(0, &[1, 2], 1, 10, 1),
            cand(0, &[2, 3], 1, 10, 1),
        ];
        let e = branch_and_bound(&cands, 100);
        // Candidates 0 and 2 are disjoint; 1 conflicts with both.
        assert_eq!(e.chosen, vec![0, 2]);
        assert_eq!(e.total_gain, 20);
    }

    #[test]
    fn zero_budget_selects_only_free_candidates() {
        let cands = vec![cand(0, &[0], 0, 2, 1), cand(0, &[1], 1, 50, 1)];
        let s = branch_and_bound(&cands, 0);
        assert_eq!(s.chosen, vec![0]);
        assert_eq!(greedy_by_ratio(&cands, 0).chosen, vec![0]);
    }

    #[test]
    fn iterative_selection_reports_prefix_gains() {
        let cands = vec![
            cand(0, &[0, 1], 4, 10, 1),
            cand(0, &[2], 1, 6, 1),
            cand(0, &[1, 2], 1, 9, 1), // conflicts with both above
        ];
        let (s, gains) = iterative_selection(&cands, 100);
        assert_eq!(s.chosen, vec![0, 1]);
        assert_eq!(gains, vec![10, 16]);
        assert!(s.is_valid(&cands, 100));
    }

    #[test]
    fn all_selectors_agree_on_independent_items_with_large_budget() {
        let cands: Vec<CiCandidate> = (0..6)
            .map(|i| cand(i, &[0], 2, (i + 1) as u64, 1))
            .collect();
        let g = greedy_by_ratio(&cands, 100);
        let e = branch_and_bound(&cands, 100);
        let (is, _) = iterative_selection(&cands, 100);
        assert_eq!(g.total_gain, 21);
        assert_eq!(e.total_gain, 21);
        assert_eq!(is.total_gain, 21);
    }

    #[test]
    fn bnb_matches_exhaustive_on_random_instances() {
        use rtise_obs::Rng;
        // Two input families: fixed area/gain patterns over overlapping
        // node ranges, and drawn ones whose zero areas exercise the
        // free-candidate terms of the bound and whose repeated
        // gain/area ratios exercise ordering ties.
        let mut rng = Rng::new(17);
        let patterned: Vec<(Vec<CiCandidate>, u64)> = (0..40)
            .map(|_| {
                let n = rng.gen_range(1..=10usize);
                let cands: Vec<CiCandidate> = (0..n)
                    .map(|i| {
                        let lo = rng.gen_range(0..8usize);
                        let hi = lo + rng.gen_range(1..=3usize);
                        let nodes: Vec<usize> = (lo..hi).collect();
                        let block = i % 2;
                        let area = (i as u64 * 7 + 3) % 10;
                        let gain = (i as u64 * 5 + 1) % 15;
                        cand(block, &nodes, area, gain, 1)
                    })
                    .collect();
                (cands, rng.gen_range(0..25u64))
            })
            .collect();
        let mut rng = Rng::new(0xB0B);
        let drawn: Vec<(Vec<CiCandidate>, u64)> = (0..120)
            .map(|_| {
                let n = rng.gen_range(1..=14usize);
                let cands: Vec<CiCandidate> = (0..n)
                    .map(|i| {
                        let lo = rng.gen_range(0..12usize);
                        let hi = lo + rng.gen_range(1..=4usize);
                        let nodes: Vec<usize> = (lo..hi).collect();
                        let area = rng.gen_range(0..9u64);
                        let gain = rng.gen_range(0..20u64);
                        cand(i % 3, &nodes, area, gain, rng.gen_range(1..4u64))
                    })
                    .collect();
                (cands, rng.gen_range(0..30u64))
            })
            .collect();
        for (family, instances) in [("patterned", patterned), ("drawn", drawn)] {
            for (case, (cands, budget)) in instances.into_iter().enumerate() {
                let n = cands.len();
                let e = branch_and_bound(&cands, budget);
                assert!(e.is_valid(&cands, budget), "{family} case {case}");
                // Exhaustive reference.
                let mut best = 0u64;
                for mask in 0u32..(1 << n) {
                    let chosen: Vec<usize> = (0..n).filter(|i| mask >> i & 1 == 1).collect();
                    let sel = Selection {
                        total_gain: chosen.iter().map(|&i| cands[i].total_gain()).sum(),
                        total_area: chosen.iter().map(|&i| cands[i].area).sum(),
                        chosen,
                    };
                    if sel.is_valid(&cands, budget) {
                        best = best.max(sel.total_gain);
                    }
                }
                assert_eq!(e.total_gain, best, "{family} case {case}");
            }
        }
    }
}
