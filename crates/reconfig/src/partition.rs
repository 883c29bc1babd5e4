//! Joint temporal/spatial partitioning algorithms (§6.3, §6.4).
//!
//! * [`iterative_partition`] — Algorithm 6: for every configuration count
//!   `k`, run the three phases (global spatial DP over `k·MaxA`, temporal
//!   k-way partitioning with and without the tentatively selected CIS
//!   versions, local spatial DP per configuration) and keep the best net
//!   gain.
//! * [`exhaustive_partition`] — enumerate every set partition of the loops
//!   (Bell-number many) with an optimal local spatial DP per cell; exact
//!   but infeasible beyond ~12 loops, exactly as the paper reports.
//! * [`greedy_partition`] — Algorithm 8: grow one configuration at a time,
//!   committing the most profitable (gain − added reconfiguration cost)
//!   version that still fits.

use crate::model::{HotLoop, ReconfigProblem, Solution};
use crate::spatial::{spatial_select, spatial_select_hw, SpatialTable};
use rtise_graphpart::{partition as kway, Graph};
use std::collections::HashMap;

/// Per-call memo of the Algorithm 7 DP: a cell's member loops (ascending
/// indices) → the versions `spatial_select` picks for them under `MaxA`.
type CellMemo = HashMap<Vec<usize>, Vec<usize>>;

/// Algorithm 6. Returns the best solution found across configuration
/// counts `1..=loops.len()` together with the chosen number of
/// configurations.
pub fn iterative_partition(problem: &ReconfigProblem, seed: u64) -> Solution {
    let n = problem.loops.len();
    let mut best = Solution::software(n);
    let mut best_net = best.net_gain(problem);
    let max_gain: u64 = problem.loops.iter().map(|l| l.best().gain).sum();
    let mut stagnant = 0usize;
    let mut cells = CellMemo::new();
    // Phase 1's DP, filled once for the largest virtual fabric any k
    // asks for.
    let refs: Vec<&HotLoop> = problem.loops.iter().collect();
    let global = SpatialTable::build(&refs, problem.max_area.saturating_mul(n.max(1) as u64));

    for k in 1..=n.max(1) {
        // Phase 1: global spatial partitioning over a virtual k·MaxA
        // fabric.
        let budget = problem.max_area.saturating_mul(k as u64);
        let (global_versions, global_gain, _) = global.select(budget);

        // Phase 2: temporal partitioning of the selected loops (vertex
        // weight = selected version area) and the CIS-agnostic variant
        // (unit weights); a few seeds each since the k-way partitioner is
        // randomized.
        let all_hw: Vec<usize> = problem
            .loops
            .iter()
            .map(|l| if l.versions().len() > 1 { 1 } else { 0 })
            .collect();
        let mut assignments = Vec::new();
        for round in 0..3u64 {
            let s = seed.wrapping_add(round.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            assignments.push(temporal(problem, &global_versions, k, s));
            assignments.push(temporal_unit(problem, &all_hw, k, s ^ 0x5bd1_e995));
        }

        // Phase 3: local spatial DP per configuration plus a refinement
        // polish; keep the best. The polish is quadratic-ish in n·k and
        // only pays off on small instances, so it is gated — large inputs
        // rely on the multilevel partitioner's own refinement.
        let mut improved_this_k = false;
        for assignment in assignments {
            let mut sol = local_spatial(problem, &assignment, k, &mut cells);
            if n * k <= 256 {
                polish(problem, &mut sol, k);
            }
            let net = sol.net_gain(problem);
            if net > best_net {
                best_net = net;
                best = sol;
                improved_this_k = true;
            }
        }
        if improved_this_k {
            stagnant = 0;
        } else {
            stagnant += 1;
            // Net gain as a function of k is near-unimodal (more
            // configurations buy gain until reconfiguration cost wins); a
            // long stagnation means the peak has passed.
            if stagnant >= 10 {
                break;
            }
        }

        // Termination: every loop already has its best version (§6.3.1).
        if global_gain == max_gain
            && best
                .version
                .iter()
                .zip(&problem.loops)
                .all(|(&v, l)| l.versions()[v].gain == l.best().gain)
        {
            break;
        }
    }
    best
}

/// K-way temporal partitioning of the loops selected by phase 1, with the
/// selected version areas as vertex weights and RCG transition counts as
/// edge weights.
fn temporal(
    problem: &ReconfigProblem,
    versions: &[usize],
    k: usize,
    seed: u64,
) -> Vec<Option<usize>> {
    let in_hw: Vec<bool> = versions.iter().map(|&v| v > 0).collect();
    let weights: Vec<u64> = (0..problem.loops.len())
        .map(|i| problem.loops[i].versions()[versions[i]].area.max(1))
        .collect();
    temporal_with_weights(problem, &in_hw, &weights, k, seed)
}

/// K-way temporal partitioning over all hardware-capable loops with unit
/// vertex weights (phase 2 variant that ignores CIS selection, §6.3.3).
fn temporal_unit(
    problem: &ReconfigProblem,
    versions: &[usize],
    k: usize,
    seed: u64,
) -> Vec<Option<usize>> {
    let in_hw: Vec<bool> = versions.iter().map(|&v| v > 0).collect();
    let weights = vec![1u64; problem.loops.len()];
    temporal_with_weights(problem, &in_hw, &weights, k, seed)
}

fn temporal_with_weights(
    problem: &ReconfigProblem,
    in_hw: &[bool],
    weights: &[u64],
    k: usize,
    seed: u64,
) -> Vec<Option<usize>> {
    let hw_loops: Vec<usize> = (0..problem.loops.len()).filter(|&i| in_hw[i]).collect();
    if hw_loops.is_empty() {
        return vec![None; problem.loops.len()];
    }
    let rcg = problem.rcg(in_hw);
    let vweights: Vec<u64> = hw_loops.iter().map(|&i| weights[i]).collect();
    let mut g = Graph::new(vweights);
    for (a_pos, &a) in hw_loops.iter().enumerate() {
        for (b_pos, &b) in hw_loops.iter().enumerate().skip(a_pos + 1) {
            if rcg[a][b] > 0 {
                g.add_edge(a_pos, b_pos, rcg[a][b]);
            }
        }
    }
    let part = kway(&g, k.min(hw_loops.len()), seed);
    let mut out = vec![None; problem.loops.len()];
    for (pos, &l) in hw_loops.iter().enumerate() {
        out[l] = Some(part.assignment[pos]);
    }
    out
}

/// Refinement polish after phase 3: hill-climb single-loop moves — switch a
/// loop's version (including to software) or move it to another
/// configuration — accepting any net-gain improvement, to a bounded
/// fixpoint. This plays the role of the uncoarsening refinement the paper
/// applies at each level.
///
/// Moves are scored in place. A loop's reconfiguration count depends only
/// on whether it is in software or in which configuration, not on its
/// hardware version, and [`placement_counts`] gets all `k + 1` of them in
/// one trace walk; raw gain and per-configuration areas are running
/// totals. A move fits only if every configuration is within `MaxA`
/// afterwards, as [`Solution::fits`] checks; the start itself may be over
/// budget.
fn polish(problem: &ReconfigProblem, sol: &mut Solution, k: usize) {
    let n = problem.loops.len();
    let max_area = problem.max_area;
    let net = |raw: u64, reconfigs: u64| raw as i64 - (reconfigs * problem.reconfig_cost) as i64;
    let version = |i: usize, j: usize| problem.loops[i].versions()[j];
    let mut area = vec![0u64; k];
    for i in (0..n).filter(|&i| sol.version[i] > 0) {
        area[sol.config[i]] += version(i, sol.version[i]).area;
    }
    let mut raw = sol.raw_gain(problem);
    let mut reconfigs = sol.reconfigurations(problem);
    for _pass in 0..4 {
        let mut improved = false;
        for i in 0..n {
            let base = net(raw, reconfigs);
            let (cur_v, cur_c) = (sol.version[i], sol.config[i]);
            let cur = version(i, cur_v);
            if cur_v > 0 {
                area[cur_c] -= cur.area;
            }
            let others_fit = area.iter().all(|&a| a <= max_area);
            let (in_sw, in_cfg) = placement_counts(problem, sol, i, k);
            let mut best: Option<(i64, usize, usize)> = None;
            for (cfg, &in_c) in in_cfg.iter().enumerate() {
                for (j, v) in problem.loops[i].versions().iter().enumerate() {
                    if j == cur_v && cfg == cur_c {
                        continue;
                    }
                    let fits = others_fit && (j == 0 || area[cfg] + v.area <= max_area);
                    if !fits {
                        continue;
                    }
                    let count = if j == 0 { in_sw } else { in_c };
                    let delta = net(raw - cur.gain + v.gain, count) - base;
                    if delta > 0 && best.is_none_or(|(b, _, _)| delta > b) {
                        best = Some((delta, j, cfg));
                    }
                }
            }
            if let Some((_, j, cfg)) = best {
                sol.version[i] = j;
                sol.config[i] = cfg;
                raw = raw - cur.gain + version(i, j).gain;
                reconfigs = if j == 0 { in_sw } else { in_cfg[cfg] };
                improved = true;
            }
            if sol.version[i] > 0 {
                area[sol.config[i]] += version(i, sol.version[i]).area;
            }
        }
        if !improved {
            break;
        }
    }
}

/// [`Solution::reconfigurations`] with loop `i` moved to software, and
/// with it in each configuration `0..k`, the rest of `sol` (hardware loops
/// in configurations below `k`) unchanged, from one trace walk.
///
/// With `i` left out, the hardware loops of the trace give the software
/// count. Each maximal run of `i` sits between the configurations `p`
/// before it and `q` after it (either may be absent). Placing `i` in `c`
/// replaces that run's `[p ≠ q]` transition with `[p ≠ c] + [c ≠ q]`, so
/// `count(c) = in_sw + #runs with p − #runs with p = c + #runs with q −
/// #runs with q = c − #runs with p ≠ q`.
fn placement_counts(
    problem: &ReconfigProblem,
    sol: &Solution,
    i: usize,
    k: usize,
) -> (u64, Vec<u64>) {
    let mut in_sw = 0u64;
    let (mut with_p, mut with_q, mut p_ne_q) = (0u64, 0u64, 0u64);
    let (mut p_is, mut q_is) = (vec![0u64; k], vec![0u64; k]);
    let mut loaded: Option<usize> = None;
    // `Some(p)` while a run of `i` is open.
    let mut open_run: Option<Option<usize>> = None;
    for &l in &problem.trace {
        if l == i {
            if open_run.is_none() {
                open_run = Some(loaded);
                if let Some(p) = loaded {
                    with_p += 1;
                    p_is[p] += 1;
                }
            }
            continue;
        }
        if sol.version[l] == 0 {
            continue;
        }
        let cfg = sol.config[l];
        if let Some(p) = open_run.take() {
            with_q += 1;
            q_is[cfg] += 1;
            p_ne_q += u64::from(p.is_some_and(|p| p != cfg));
        }
        if loaded.is_some_and(|cur| cur != cfg) {
            in_sw += 1;
        }
        loaded = Some(cfg);
    }
    let in_cfg = (0..k)
        .map(|c| in_sw + with_p - p_is[c] + with_q - q_is[c] - p_ne_q)
        .collect();
    (in_sw, in_cfg)
}

/// Phase 3: per configuration, re-select versions optimally under the real
/// `MaxA` budget. The k-way assignments of one [`iterative_partition`] call
/// share most of their cells, so each cell's DP answer is kept in `cells`.
fn local_spatial(
    problem: &ReconfigProblem,
    assignment: &[Option<usize>],
    k: usize,
    cells: &mut CellMemo,
) -> Solution {
    let n = problem.loops.len();
    let mut version = vec![0usize; n];
    let mut config = vec![0usize; n];
    for cfg in 0..k {
        let members: Vec<usize> = (0..n).filter(|&i| assignment[i] == Some(cfg)).collect();
        if members.is_empty() {
            continue;
        }
        if !cells.contains_key(&members) {
            let refs: Vec<&HotLoop> = members.iter().map(|&i| &problem.loops[i]).collect();
            let (vs, _, _) = spatial_select(&refs, problem.max_area);
            cells.insert(members.clone(), vs);
        }
        let vs = &cells[&members];
        for (pos, &i) in members.iter().enumerate() {
            version[i] = vs[pos];
            config[i] = cfg;
        }
    }
    Solution { version, config }
}

/// Exact exhaustive search: enumerate every software subset and every set
/// partition of the remaining loops into configurations (restricted growth
/// strings), with the optimal all-hardware spatial DP per cell. Once the
/// software set and configuration structure are fixed, the reconfiguration
/// count is fixed, so maximizing raw gain per cell is net-gain-optimal —
/// this makes the search a true optimum, at Bell(n+1) total work. A
/// cell's DP answer depends only on its loop subset, so it is computed
/// once per subset bitmask (at most 2^12 of them).
///
/// # Panics
///
/// Panics if there are more than 12 loops — beyond that the Bell number
/// makes the search intractable, exactly as the paper reports for its
/// exhaustive baseline (Fig. 6.8).
pub fn exhaustive_partition(problem: &ReconfigProblem) -> Solution {
    let n = problem.loops.len();
    assert!(n <= 12, "exhaustive search is intractable for {n} loops");
    let mut best = Solution::software(n);
    let mut best_net = best.net_gain(problem);
    if n == 0 {
        return best;
    }
    let mut cells: Vec<Option<Option<Vec<usize>>>> = vec![None; 1 << n];
    for sw_mask in 0u32..(1 << n) {
        let hw: Vec<usize> = (0..n).filter(|&i| sw_mask >> i & 1 == 0).collect();
        if hw.is_empty() {
            continue; // all-software already seeded
        }
        // Enumerate set partitions of `hw` via restricted growth strings.
        let m = hw.len();
        let mut rgs = vec![0usize; m];
        'partitions: loop {
            let k = rgs.iter().copied().max().unwrap_or(0) + 1;
            let mut version = vec![0usize; n];
            let mut config = vec![0usize; n];
            let mut feasible = true;
            for cell in 0..k {
                let members: Vec<usize> = (0..m).filter(|&p| rgs[p] == cell).collect();
                let mask = members.iter().fold(0usize, |mask, &p| mask | 1 << hw[p]);
                let answer = cells[mask].get_or_insert_with(|| {
                    let refs: Vec<&HotLoop> =
                        members.iter().map(|&p| &problem.loops[hw[p]]).collect();
                    spatial_select_hw(&refs, problem.max_area).map(|(vs, _, _)| vs)
                });
                match answer {
                    Some(vs) => {
                        for (pos, &p) in members.iter().enumerate() {
                            version[hw[p]] = vs[pos];
                            config[hw[p]] = cell;
                        }
                    }
                    None => {
                        feasible = false;
                        break;
                    }
                }
            }
            if feasible {
                let sol = Solution { version, config };
                let net = sol.net_gain(problem);
                if net > best_net {
                    best_net = net;
                    best = sol;
                }
            }
            // Next restricted growth string.
            let mut i = m;
            loop {
                if i == 1 {
                    break 'partitions;
                }
                i -= 1;
                let max_prefix = rgs[..i].iter().copied().max().unwrap_or(0);
                if rgs[i] <= max_prefix {
                    rgs[i] += 1;
                    for v in rgs[i + 1..].iter_mut() {
                        *v = 0;
                    }
                    break;
                }
                rgs[i] = 0;
            }
        }
    }
    best
}

/// Algorithm 8: greedy construction, one configuration at a time.
pub fn greedy_partition(problem: &ReconfigProblem) -> Solution {
    let n = problem.loops.len();
    let mut sol = Solution::software(n);
    let mut current_cfg = 0usize;
    let mut current_area = 0u64;
    let mut remaining: Vec<bool> = vec![true; n];

    loop {
        // Most profitable (loop, version) for the current configuration.
        let mut best: Option<(i64, usize, usize)> = None;
        let base_net = sol.net_gain(problem);
        #[allow(clippy::needless_range_loop)] // i indexes three parallel arrays
        for i in 0..n {
            if !remaining[i] {
                continue;
            }
            for (j, v) in problem.loops[i].versions().iter().enumerate().skip(1) {
                if current_area + v.area > problem.max_area {
                    continue;
                }
                let mut cand = sol.clone();
                cand.version[i] = j;
                cand.config[i] = current_cfg;
                let delta = cand.net_gain(problem) - base_net;
                if delta > 0 && best.as_ref().is_none_or(|(b, _, _)| delta > *b) {
                    best = Some((delta, i, j));
                }
            }
        }
        match best {
            Some((_, i, j)) => {
                sol.version[i] = j;
                sol.config[i] = current_cfg;
                current_area += problem.loops[i].versions()[j].area;
                remaining[i] = false;
            }
            None => {
                if current_area > 0 {
                    // Close this configuration and try a fresh one.
                    current_cfg += 1;
                    current_area = 0;
                } else {
                    return sol;
                }
            }
        }
        if remaining.iter().all(|r| !r) {
            return sol;
        }
    }
}

/// Generates a synthetic instance with `n` hot loops for the scalability
/// experiments (Table 6.1 / Fig. 6.8): 1–10 versions per loop, gains
/// 1 000–10 000, areas 1–100, a random trace, unit fabric of 100 area and
/// tunable reconfiguration cost.
pub fn synthetic_problem(n: usize, seed: u64) -> ReconfigProblem {
    use crate::model::CisVersion;
    // xorshift64* keeps this dependency-free and deterministic.
    let mut state = seed.max(1);
    let mut next = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_f491_4f6c_dd1d)
    };
    let loops: Vec<HotLoop> = (0..n)
        .map(|i| {
            let n_v = 1 + (next() % 10) as usize;
            let mut area = 0u64;
            let mut gain = 0u64;
            let vs: Vec<CisVersion> = (0..n_v)
                .map(|_| {
                    area += 1 + next() % 20;
                    gain += 1_000 + next() % 3_000;
                    CisVersion {
                        area: area.min(100),
                        gain,
                    }
                })
                .collect();
            HotLoop::new(format!("loop{i}"), &vs)
        })
        .collect();
    let trace: Vec<usize> = (0..(n * 12))
        .map(|_| (next() % n as u64) as usize)
        .collect();
    ReconfigProblem {
        loops,
        trace,
        max_area: 100,
        reconfig_cost: 800,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::fig_6_4_problem;

    #[test]
    fn iterative_finds_the_fig_6_4_optimum() {
        let p = fig_6_4_problem();
        let sol = iterative_partition(&p, 42);
        assert!(sol.fits(&p));
        assert_eq!(sol.net_gain(&p), 1173, "solution (C) is optimal");
    }

    #[test]
    fn exhaustive_confirms_the_fig_6_4_optimum() {
        let p = fig_6_4_problem();
        let sol = exhaustive_partition(&p);
        assert!(sol.fits(&p));
        assert_eq!(sol.net_gain(&p), 1173);
    }

    #[test]
    fn greedy_is_feasible_and_at_most_optimal() {
        let p = fig_6_4_problem();
        let sol = greedy_partition(&p);
        assert!(sol.fits(&p));
        assert!(sol.net_gain(&p) <= 1173);
        assert!(sol.net_gain(&p) >= 883, "greedy beats no-reconfiguration");
    }

    #[test]
    fn iterative_matches_exhaustive_on_small_synthetic_instances() {
        for seed in 0..8u64 {
            let p = synthetic_problem(5, seed + 1);
            let exact = exhaustive_partition(&p).net_gain(&p);
            let iter = iterative_partition(&p, seed).net_gain(&p);
            let greedy = greedy_partition(&p).net_gain(&p);
            assert!(iter <= exact, "seed {seed}");
            assert!(greedy <= exact, "seed {seed}");
            // The iterative algorithm should stay close to the optimum
            // (Fig. 6.8 reports near-exhaustive quality).
            assert!(
                iter as f64 >= exact as f64 * 0.9,
                "seed {seed}: iterative {iter} vs exact {exact}"
            );
        }
    }

    #[test]
    fn all_algorithms_respect_area_budgets() {
        for seed in 0..5u64 {
            let p = synthetic_problem(10, seed * 3 + 1);
            for sol in [iterative_partition(&p, seed), greedy_partition(&p)] {
                assert!(sol.fits(&p), "seed {seed}");
            }
        }
    }

    #[test]
    fn high_reconfig_cost_collapses_to_one_configuration() {
        let mut p = fig_6_4_problem();
        p.reconfig_cost = 1_000_000;
        let sol = iterative_partition(&p, 1);
        assert_eq!(sol.reconfigurations(&p), 0);
        assert_eq!(sol.net_gain(&p), 883, "single-configuration optimum");
    }

    #[test]
    fn zero_reconfig_cost_uses_best_versions_everywhere() {
        let mut p = fig_6_4_problem();
        p.reconfig_cost = 0;
        let sol = iterative_partition(&p, 1);
        assert_eq!(sol.net_gain(&p), 1668, "free reconfiguration");
    }

    /// The clone-and-walk polish that [`polish`] replaced: every candidate
    /// move is a cloned `Solution`, checked with `fits` and scored with a
    /// full `net_gain` trace walk.
    fn reference_polish(problem: &ReconfigProblem, sol: &mut Solution, k: usize) {
        let n = problem.loops.len();
        for _pass in 0..4 {
            let mut improved = false;
            for i in 0..n {
                let base = sol.net_gain(problem);
                let mut best: Option<(i64, usize, usize)> = None;
                for cfg in 0..k {
                    for j in 0..problem.loops[i].versions().len() {
                        if j == sol.version[i] && cfg == sol.config[i] {
                            continue;
                        }
                        let mut cand = sol.clone();
                        cand.version[i] = j;
                        cand.config[i] = cfg;
                        if !cand.fits(problem) {
                            continue;
                        }
                        let delta = cand.net_gain(problem) - base;
                        if delta > 0 && best.is_none_or(|(b, _, _)| delta > b) {
                            best = Some((delta, j, cfg));
                        }
                    }
                }
                if let Some((_, j, cfg)) = best {
                    sol.version[i] = j;
                    sol.config[i] = cfg;
                    improved = true;
                }
            }
            if !improved {
                break;
            }
        }
    }

    /// The exhaustive search without its per-subset memo: one
    /// `spatial_select_hw` run per cell of every partition.
    fn reference_exhaustive(problem: &ReconfigProblem) -> Solution {
        let n = problem.loops.len();
        let mut best = Solution::software(n);
        let mut best_net = best.net_gain(problem);
        for sw_mask in 0u32..(1 << n) {
            let hw: Vec<usize> = (0..n).filter(|&i| sw_mask >> i & 1 == 0).collect();
            if hw.is_empty() {
                continue;
            }
            let m = hw.len();
            let mut rgs = vec![0usize; m];
            'partitions: loop {
                let k = rgs.iter().copied().max().unwrap_or(0) + 1;
                let mut version = vec![0usize; n];
                let mut config = vec![0usize; n];
                let mut feasible = true;
                for cell in 0..k {
                    let members: Vec<usize> = (0..m).filter(|&p| rgs[p] == cell).collect();
                    let refs: Vec<&HotLoop> =
                        members.iter().map(|&p| &problem.loops[hw[p]]).collect();
                    match spatial_select_hw(&refs, problem.max_area) {
                        Some((vs, _, _)) => {
                            for (pos, &p) in members.iter().enumerate() {
                                version[hw[p]] = vs[pos];
                                config[hw[p]] = cell;
                            }
                        }
                        None => {
                            feasible = false;
                            break;
                        }
                    }
                }
                if feasible {
                    let sol = Solution { version, config };
                    let net = sol.net_gain(problem);
                    if net > best_net {
                        best_net = net;
                        best = sol;
                    }
                }
                let mut i = m;
                loop {
                    if i == 1 {
                        break 'partitions;
                    }
                    i -= 1;
                    let max_prefix = rgs[..i].iter().copied().max().unwrap_or(0);
                    if rgs[i] <= max_prefix {
                        rgs[i] += 1;
                        for v in rgs[i + 1..].iter_mut() {
                            *v = 0;
                        }
                        break;
                    }
                    rgs[i] = 0;
                }
            }
        }
        best
    }

    /// Synthetic instances over a grid of fabric areas and
    /// reconfiguration costs.
    fn seeded_instances(
        sizes: std::ops::RangeInclusive<usize>,
        seeds: u64,
    ) -> Vec<ReconfigProblem> {
        let mut out = Vec::new();
        for n in sizes {
            for seed in 1..=seeds {
                for max_area in [40, 100, 250] {
                    for reconfig_cost in [0, 50, 800, 3000] {
                        let mut p = synthetic_problem(n, seed * 31 + n as u64);
                        p.max_area = max_area;
                        p.reconfig_cost = reconfig_cost;
                        out.push(p);
                    }
                }
            }
        }
        out
    }

    /// Scoring moves in place accepts exactly the reference's moves: from
    /// random k-way assignments through the local spatial DP, and from
    /// random starts that break the area budget.
    #[test]
    fn polish_matches_the_reference_on_seeded_instances() {
        use rtise_obs::Rng;
        let mut rng = Rng::new(0x0090_1154);
        let mut over_budget_starts = 0;
        for p in seeded_instances(1..=8, 2) {
            let n = p.loops.len();
            let mut cells = CellMemo::new();
            for k in 1..=n {
                let mut starts = Vec::new();
                for _ in 0..3 {
                    let assignment: Vec<Option<usize>> = (0..n)
                        .map(|_| rng.gen_bool(0.8).then(|| rng.gen_range(0..k)))
                        .collect();
                    starts.push(local_spatial(&p, &assignment, k, &mut cells));
                }
                let random = Solution {
                    version: p
                        .loops
                        .iter()
                        .map(|l| rng.gen_range(0..l.versions().len()))
                        .collect(),
                    config: (0..n).map(|_| rng.gen_range(0..k)).collect(),
                };
                over_budget_starts += usize::from(!random.fits(&p));
                starts.push(random);
                for start in starts {
                    let (mut fast, mut slow) = (start.clone(), start);
                    polish(&p, &mut fast, k);
                    reference_polish(&p, &mut slow, k);
                    assert_eq!(
                        fast, slow,
                        "n {n}, k {k}, area {}, cost {}",
                        p.max_area, p.reconfig_cost
                    );
                }
            }
        }
        assert!(
            over_budget_starts > 100,
            "only {over_budget_starts} over-budget starts"
        );
    }

    /// One walk gives every placement's count that a walk of the moved
    /// solution gives.
    #[test]
    fn placement_counts_match_a_walk_per_placement() {
        use rtise_obs::Rng;
        let mut rng = Rng::new(0x0c0_4e75);
        for p in seeded_instances(1..=8, 2) {
            let n = p.loops.len();
            for k in 1..=n {
                let sol = Solution {
                    version: p
                        .loops
                        .iter()
                        .map(|l| rng.gen_range(0..l.versions().len()))
                        .collect(),
                    config: (0..n).map(|_| rng.gen_range(0..k)).collect(),
                };
                for i in 0..n {
                    let moved = |version: usize, config: usize| {
                        let mut m = sol.clone();
                        m.version[i] = version;
                        m.config[i] = config;
                        m.reconfigurations(&p)
                    };
                    let (in_sw, in_cfg) = placement_counts(&p, &sol, i, k);
                    assert_eq!(in_sw, moved(0, 0), "n {n}, k {k}, loop {i}");
                    let want: Vec<u64> = (0..k).map(|c| moved(1, c)).collect();
                    assert_eq!(in_cfg, want, "n {n}, k {k}, loop {i}");
                }
            }
        }
    }

    /// The per-subset memo returns the unmemoized search's whole solution,
    /// versions and configurations alike.
    #[test]
    fn exhaustive_matches_the_unmemoized_reference() {
        for p in seeded_instances(1..=6, 2) {
            assert_eq!(
                exhaustive_partition(&p),
                reference_exhaustive(&p),
                "n {}, area {}, cost {}",
                p.loops.len(),
                p.max_area,
                p.reconfig_cost
            );
        }
    }

    #[test]
    fn empty_problem_is_handled() {
        let p = ReconfigProblem {
            loops: vec![],
            trace: vec![],
            max_area: 100,
            reconfig_cost: 10,
        };
        let sol = iterative_partition(&p, 0);
        assert_eq!(sol.net_gain(&p), 0);
        let sol = exhaustive_partition(&p);
        assert_eq!(sol.net_gain(&p), 0);
    }
}
