//! Algorithm 7: the spatial-partitioning dynamic program.
//!
//! Given a set of loops and an area budget, select one CIS version per loop
//! maximizing total gain. The DP runs over an area grid with step `Δ` = gcd
//! of all version areas, so the result is optimal. The paper's `Δ` also
//! divides the budget; since every selection's area is a multiple of the
//! areas' gcd, answering at the grid point below the budget picks the same
//! versions, and one table answers every budget up to the one it was
//! built for.

use crate::model::HotLoop;

/// Selects one version index per entry of `loops`, maximizing `Σ gain`
/// subject to `Σ area ≤ budget` (version 0 is always available at zero
/// cost). Returns `(versions, total_gain, total_area)`.
pub fn spatial_select(loops: &[&HotLoop], budget: u64) -> (Vec<usize>, u64, u64) {
    SpatialTable::build(loops, budget).select(budget)
}

/// The Algorithm 7 DP over one loop list, built once up to a largest
/// budget and answered for any budget up to it by backtracking.
pub(crate) struct SpatialTable<'a> {
    loops: Vec<&'a HotLoop>,
    step: u64,
    /// Largest budget the table answers; budgets past every loop's
    /// largest version buy nothing and are answered here too.
    cap: u64,
    useful: u64,
    /// `choice[i][a]`: the version of loop `i` in the best selection of
    /// loops `0..=i` within `a · step` area.
    choice: Vec<Vec<usize>>,
}

impl<'a> SpatialTable<'a> {
    /// Fills the DP for every budget up to `max_budget`.
    pub(crate) fn build(loops: &[&'a HotLoop], max_budget: u64) -> Self {
        // Budget beyond the sum of the largest versions buys nothing;
        // clamping keeps the DP grid bounded.
        let useful: u64 = loops
            .iter()
            .map(|l| l.versions().iter().map(|v| v.area).max().unwrap_or(0))
            .sum();
        let cap = max_budget.min(useful.max(1));
        let step = loops
            .iter()
            .flat_map(|l| l.versions())
            .fold(0, |g, v| gcd(g, v.area))
            .max(1);
        let slots = (cap / step) as usize + 1;

        let mut dp = vec![0u64; slots];
        let mut choice: Vec<Vec<usize>> = Vec::with_capacity(loops.len());
        for l in loops {
            let mut next = vec![0u64; slots];
            let mut ch = vec![0usize; slots];
            for a in 0..slots {
                let avail = a as u64 * step;
                for (j, v) in l.versions().iter().enumerate() {
                    if v.area > avail {
                        break; // versions ascend in area
                    }
                    let rest = ((avail - v.area) / step) as usize;
                    let g = dp[rest] + v.gain;
                    // Strict improvement keeps the software version on
                    // ties (j = 0 is visited first), minimizing area.
                    if g > next[a] {
                        next[a] = g;
                        ch[a] = j;
                    }
                }
            }
            dp = next;
            choice.push(ch);
        }
        SpatialTable {
            loops: loops.to_vec(),
            step,
            cap,
            useful,
            choice,
        }
    }

    /// The optimal selection within `budget`, as [`spatial_select`]
    /// returns it.
    ///
    /// # Panics
    ///
    /// Panics if `budget` is past the table: above the `max_budget` it
    /// was built for while that is below what every largest version needs.
    pub(crate) fn select(&self, budget: u64) -> (Vec<usize>, u64, u64) {
        let budget = budget.min(self.useful.max(1));
        assert!(
            budget <= self.cap,
            "budget {budget} past the table's {}",
            self.cap
        );
        let mut versions = vec![0usize; self.loops.len()];
        let mut slot = (budget / self.step) as usize;
        let mut total_area = 0;
        let mut total_gain = 0;
        for (i, l) in self.loops.iter().enumerate().rev() {
            let j = self.choice[i][slot];
            versions[i] = j;
            let v = l.versions()[j];
            total_area += v.area;
            total_gain += v.gain;
            slot -= (v.area / self.step) as usize;
        }
        (versions, total_gain, total_area)
    }
}

/// Like [`spatial_select`], but every loop must take a *hardware* version
/// (index ≥ 1). Returns `None` when the loops cannot all fit in `budget`.
///
/// Used by the exact exhaustive baseline: once the software set and the
/// configuration structure are fixed, reconfiguration counts are fixed too,
/// so maximizing raw gain per configuration is exactly net-gain-optimal.
pub fn spatial_select_hw(loops: &[&HotLoop], budget: u64) -> Option<(Vec<usize>, u64, u64)> {
    if loops.is_empty() {
        return Some((Vec::new(), 0, 0));
    }
    if loops.iter().any(|l| l.versions().len() < 2) {
        return None; // a loop without hardware versions cannot comply
    }
    let useful: u64 = loops
        .iter()
        .map(|l| l.versions().iter().map(|v| v.area).max().unwrap_or(0))
        .sum();
    let budget = budget.min(useful.max(1));
    let mut step = budget;
    for l in loops {
        for v in l.versions() {
            step = gcd(step, v.area);
        }
    }
    let step = step.max(1);
    let slots = (budget / step) as usize + 1;
    const NONE: u64 = u64::MAX;

    let mut dp = vec![0u64; slots];
    let mut choice: Vec<Vec<usize>> = Vec::with_capacity(loops.len());
    for l in loops {
        let mut next = vec![NONE; slots];
        let mut ch = vec![usize::MAX; slots];
        for a in 0..slots {
            let avail = a as u64 * step;
            for (j, v) in l.versions().iter().enumerate().skip(1) {
                if v.area > avail {
                    break;
                }
                let rest = ((avail - v.area) / step) as usize;
                if dp[rest] == NONE {
                    continue;
                }
                let g = dp[rest] + v.gain;
                if next[a] == NONE || g > next[a] {
                    next[a] = g;
                    ch[a] = j;
                }
            }
        }
        dp = next;
        choice.push(ch);
    }
    if dp[slots - 1] == NONE {
        // Some prefix could still be feasible at a lower slot, but the full
        // budget row dominates all others for a maximization DP whose
        // entries are monotone in `a`; NONE here means infeasible.
        return None;
    }
    let mut versions = vec![0usize; loops.len()];
    let mut slot = slots - 1;
    let mut total_area = 0;
    let mut total_gain = 0;
    for (i, l) in loops.iter().enumerate().rev() {
        let j = choice[i][slot];
        if j == usize::MAX {
            return None;
        }
        versions[i] = j;
        let v = l.versions()[j];
        total_area += v.area;
        total_gain += v.gain;
        slot -= (v.area / step) as usize;
    }
    Some((versions, total_gain, total_area))
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
    use crate::model::{fig_6_4_problem, CisVersion};

    /// One table answers every budget up to the one it was built for
    /// exactly as a table built for that budget alone, also where the
    /// budget is off the table's grid (areas scaled by 7).
    #[test]
    fn one_table_answers_every_budget_like_a_fresh_selection() {
        use crate::partition::synthetic_problem;
        for (n, seed) in [(1, 1), (3, 2), (5, 3)] {
            let p = synthetic_problem(n, seed);
            for scale in [1, 7] {
                let loops: Vec<HotLoop> = p
                    .loops
                    .iter()
                    .map(|l| {
                        let vs: Vec<CisVersion> = l.versions()[1..]
                            .iter()
                            .map(|v| CisVersion {
                                area: v.area * scale,
                                gain: v.gain,
                            })
                            .collect();
                        HotLoop::new(l.name.clone(), &vs)
                    })
                    .collect();
                let refs: Vec<&HotLoop> = loops.iter().collect();
                let max = 40 * scale * n as u64;
                let table = SpatialTable::build(&refs, max);
                for b in 0..=max {
                    assert_eq!(
                        table.select(b),
                        spatial_select(&refs, b),
                        "n {n}, scale {scale}, budget {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn selects_the_single_config_optimum_of_fig_6_4() {
        let p = fig_6_4_problem();
        let refs: Vec<&HotLoop> = p.loops.iter().collect();
        let (versions, gain, area) = spatial_select(&refs, 2048);
        // Solution (A): 160 + 230 + 493 = 883 within 2048 AU.
        assert_eq!(gain, 883);
        assert!(area <= 2048);
        assert_eq!(versions, vec![2, 1, 1]);
    }

    #[test]
    fn zero_budget_keeps_everything_software() {
        let p = fig_6_4_problem();
        let refs: Vec<&HotLoop> = p.loops.iter().collect();
        let (versions, gain, area) = spatial_select(&refs, 0);
        assert_eq!(versions, vec![0, 0, 0]);
        assert_eq!((gain, area), (0, 0));
    }

    #[test]
    fn unlimited_budget_takes_best_versions() {
        let p = fig_6_4_problem();
        let refs: Vec<&HotLoop> = p.loops.iter().collect();
        let (_, gain, _) = spatial_select(&refs, 1 << 40);
        assert_eq!(gain, 563 + 556 + 549);
    }

    #[test]
    fn matches_exhaustive_on_random_instances() {
        use rtise_obs::Rng;
        let mut rng = Rng::new(0x6a11);
        for case in 0..40 {
            let n = rng.gen_range(1..=5usize);
            let loops: Vec<HotLoop> = (0..n)
                .map(|i| {
                    let vs: Vec<CisVersion> = (0..rng.gen_range(0..4usize))
                        .map(|_| CisVersion {
                            area: rng.gen_range(1..20u64),
                            gain: rng.gen_range(1..30u64),
                        })
                        .collect();
                    HotLoop::new(format!("l{i}"), &vs)
                })
                .collect();
            let refs: Vec<&HotLoop> = loops.iter().collect();
            let budget = rng.gen_range(0..40u64);
            let (versions, gain, area) = spatial_select(&refs, budget);
            assert!(area <= budget);
            // Exhaustive reference.
            let mut best = 0u64;
            let mut idx = vec![0usize; n];
            loop {
                let a: u64 = idx
                    .iter()
                    .zip(&loops)
                    .map(|(&j, l)| l.versions()[j].area)
                    .sum();
                if a <= budget {
                    let g: u64 = idx
                        .iter()
                        .zip(&loops)
                        .map(|(&j, l)| l.versions()[j].gain)
                        .sum();
                    best = best.max(g);
                }
                let mut k = 0;
                loop {
                    if k == n {
                        break;
                    }
                    idx[k] += 1;
                    if idx[k] < loops[k].versions().len() {
                        break;
                    }
                    idx[k] = 0;
                    k += 1;
                }
                if k == n {
                    break;
                }
            }
            assert_eq!(gain, best, "case {case}");
            let _ = versions;
        }
    }
}
