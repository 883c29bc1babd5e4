//! Anytime iterative candidate generation past the enumeration wall.
//!
//! Exact connected-convex enumeration (§2.3.1) is worst-case exponential:
//! the bitset path takes DFGs of up to 1024 nodes, but on large blocks its
//! candidate and visited-shape caps cut it off long before the space is
//! exhausted, so exhaustive identification is out of reach. This module
//! implements the Kernighan–Lin-style iterative-improvement generator of
//! ISEGEN (Biswas et al.): instead of enumerating every feasible cut, it
//! *grows and reshapes* a small population of cuts under a gain-driven
//! move rule, which scales to thousands of nodes while staying fully
//! deterministic.
//!
//! The algorithm, per seed (seeds are gain-ranked single operations):
//!
//! 1. **Grow** a cluster greedily: repeatedly add the boundary node whose
//!    addition most improves the score, while it improves at all.
//! 2. **Improve** with up to [`IterativeOptions::max_passes`]
//!    Kernighan–Lin passes: every pass repeatedly commits the single best
//!    *toggle* (add a boundary node or remove a member — even when it
//!    temporarily worsens the score), locks the toggled node, and finally
//!    reverts to the best prefix of the committed move sequence. Toggling
//!    through downhill moves is what lets a pass escape local optima that
//!    defeat pure greedy growth.
//! 3. **Repair**: after every pass the working cut is replaced by its
//!    convex hull when that is still within the node budget, so
//!    non-convex intermediate shapes get pulled back to legality instead
//!    of being discarded.
//! 4. **Emit**: the cut's weakly-connected components (each convex
//!    component of a convex set is itself convex, with a subset of the
//!    parent's I/O) are certified with [`Dfg::is_feasible_ci`] and
//!    collected; duplicates are dropped globally.
//!
//! Every score evaluation draws on a global *move budget*, making the
//! generator anytime: a small budget returns quickly with the
//! best-so-far cuts, a large one converges. For a fixed
//! ([`IterativeOptions::seed`], budget) pair the output — candidate
//! list, [`IterStats`], and trace — is byte-identical on every run at
//! any thread count, because nothing here depends on timing or
//! addresses: ties break on a SplitMix64 hash of the node id.
//!
//! Emitted cuts are connected, convex, feasible and within
//! `max_nodes` — exactly the space the exact enumerator covers — so on
//! DFGs where exhaustive enumeration completes uncapped, the iterative
//! generator can never *beat* the certified optimum; the fuzz suite
//! tests that differentially.

use crate::enumerate::{convex_hull, EnumerateOptions};
use rtise_ir::dfg::{Dfg, NodeId};
use rtise_ir::hw::HwModel;
use rtise_ir::nodeset::NodeSet;
use std::collections::HashSet;

/// Options for [`iterative_candidates`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IterativeOptions {
    /// Port and size constraints plus the returned-candidate cap,
    /// shared with the exact enumerator.
    pub enumerate: EnumerateOptions,
    /// How many gain-ranked seed nodes start their own cluster.
    pub seeds: usize,
    /// Kernighan–Lin improvement passes per seed cluster.
    pub max_passes: usize,
    /// Global score-evaluation budget (the anytime knob): every toggle
    /// or growth evaluation costs one unit; at zero the generator stops
    /// and returns what it has.
    pub move_budget: u64,
    /// Deterministic tie-break seed.
    pub seed: u64,
}

impl Default for IterativeOptions {
    /// Defaults sized so the 22-kernel suite converges well inside the
    /// budget while a 2000-node DFG still finishes promptly.
    fn default() -> Self {
        IterativeOptions {
            enumerate: EnumerateOptions::default(),
            seeds: 48,
            max_passes: 4,
            move_budget: 20_000,
            seed: 0,
        }
    }
}

/// Statistics for one [`iterative_candidates_with_stats`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IterStats {
    /// Seed clusters processed.
    pub seeds: u64,
    /// Kernighan–Lin passes run.
    pub passes: u64,
    /// Score evaluations charged against the move budget.
    pub evaluated: u64,
    /// Toggle moves committed inside passes (before prefix revert).
    pub moves: u64,
    /// Working cuts replaced by their convex hull.
    pub repairs: u64,
    /// Seeds whose pass loop exited early for lack of improvement.
    pub plateau_exits: u64,
    /// Distinct feasible cuts collected before the candidate cap.
    pub emitted: u64,
    /// Candidates returned after gain-ranking and the cap.
    pub accepted: u64,
    /// Whether the move budget ran out before all seeds converged.
    pub hit_move_budget: bool,
}

/// Generates custom-instruction candidates by iterative improvement; the
/// anytime alternative where capped exact enumeration stops short.
///
/// Deterministic: output is a pure function of (`dfg`, `opts`).
pub fn iterative_candidates(dfg: &Dfg, opts: IterativeOptions) -> Vec<NodeSet> {
    iterative_candidates_with_stats(dfg, opts).0
}

/// Like [`iterative_candidates`], additionally returning [`IterStats`]
/// and publishing `ise.iterative.*` counters and `ise.iter.*` trace
/// events.
pub fn iterative_candidates_with_stats(
    dfg: &Dfg,
    opts: IterativeOptions,
) -> (Vec<NodeSet>, IterStats) {
    let _span = rtise_trace::span(rtise_trace::codes::ISE_ITER_SOLVE);
    let mut gen = Gen {
        dfg,
        hw: HwModel::default(),
        opts,
        budget: opts.move_budget,
        stats: IterStats::default(),
        depth: vec![0; dfg.len()],
        seen: HashSet::new(),
        out: Vec::new(),
    };
    gen.run();
    let Gen { mut out, stats, .. } = gen;
    // Gain-ranked, then smallest-first, then set order: a total order
    // independent of discovery order.
    out.sort_by(|a, b| {
        b.0.cmp(&a.0)
            .then(a.1.len().cmp(&b.1.len()))
            .then(a.1.cmp(&b.1))
    });
    out.truncate(opts.enumerate.max_candidates);
    let mut stats = stats;
    stats.accepted = out.len() as u64;
    rtise_obs::record("ise.iterative.calls", 1);
    rtise_obs::record("ise.iterative.seeds", stats.seeds);
    rtise_obs::record("ise.iterative.passes", stats.passes);
    rtise_obs::record("ise.iterative.moves", stats.moves);
    rtise_obs::record("ise.iterative.repairs", stats.repairs);
    rtise_obs::record("ise.iterative.plateau_exits", stats.plateau_exits);
    rtise_obs::record("ise.iterative.accepted", stats.accepted);
    rtise_trace::summary(
        rtise_trace::codes::ISE_ITER_SUMMARY,
        &[
            ("passes", stats.passes),
            ("moves", stats.moves),
            ("repairs", stats.repairs),
            ("plateaus", stats.plateau_exits),
            ("accepted", stats.accepted),
        ],
    );
    (out.into_iter().map(|(_, s)| s).collect(), stats)
}

/// SplitMix64 finalizer; the deterministic tie-break hash.
fn mix(seed: u64, x: u64) -> u64 {
    let mut z = seed.wrapping_add(x.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One candidate toggle under consideration in a pass.
struct Move {
    node: NodeId,
    /// Score of the cut *after* the toggle.
    score: i64,
    /// Additions win ties over removals (growth explores more space).
    is_removal: bool,
    /// Deterministic hash tie-break before the id itself.
    tie: u64,
}

impl Move {
    /// Whether `self` beats `other` under the total move order.
    fn beats(&self, other: &Move) -> bool {
        (self.score, !self.is_removal, other.tie, other.node.0)
            > (other.score, !other.is_removal, self.tie, self.node.0)
    }
}

struct Gen<'a> {
    dfg: &'a Dfg,
    hw: HwModel,
    opts: IterativeOptions,
    budget: u64,
    stats: IterStats,
    /// Scratch arrival-time table for the critical-path scorer. Never
    /// reset: member ids are visited ascending and every member's slot
    /// is rewritten before any same-evaluation read (args have smaller
    /// ids), so stale values are unobservable.
    depth: Vec<u64>,
    seen: HashSet<NodeSet>,
    out: Vec<(u64, NodeSet)>,
}

impl Gen<'_> {
    fn run(&mut self) {
        let opts = self.opts;
        // Gain-ranked seeds: real operations only, most software latency
        // first — the ops a custom instruction most wants to swallow.
        let mut seeds: Vec<NodeId> = self
            .dfg
            .ids()
            .filter(|&id| {
                let k = self.dfg.kind(id);
                k.is_ci_valid() && !k.is_pseudo()
            })
            .collect();
        seeds.sort_by_key(|&id| {
            (
                std::cmp::Reverse(self.dfg.kind(id).sw_latency()),
                mix(opts.seed, id.0 as u64),
                id.0,
            )
        });
        seeds.truncate(opts.seeds);

        for seed in seeds {
            if self.exhausted() {
                break;
            }
            self.stats.seeds += 1;
            let salt = mix(opts.seed, seed.0 as u64 ^ 0xD1F7);
            let mut cut = self.dfg.empty_set();
            cut.insert(seed);
            self.emit(&cut);
            self.grow(&mut cut, salt);
            self.repair(&mut cut);
            self.emit(&cut);
            let mut best = self.score(&cut);
            for _ in 0..opts.max_passes {
                if self.exhausted() {
                    break;
                }
                let moves = self.kl_pass(&mut cut, salt);
                self.stats.passes += 1;
                self.repair(&mut cut);
                self.emit(&cut);
                let now = self.score(&cut);
                rtise_trace::instant_with(
                    rtise_trace::codes::ISE_ITER_PASS,
                    &[("moves", moves), ("score", now.max(0) as u64)],
                );
                if now <= best {
                    self.stats.plateau_exits += 1;
                    rtise_trace::instant(rtise_trace::codes::ISE_ITER_PLATEAU);
                    break;
                }
                best = now;
            }
        }
        if self.budget == 0 {
            self.stats.hit_move_budget = true;
        }
    }

    fn exhausted(&self) -> bool {
        self.budget == 0
    }

    /// The move-rule objective: cycle gain of the cut, minus a penalty
    /// of 4 per port over budget. I/O violations are *soft* during
    /// improvement — a pass may move through an over-ported shape to
    /// reach a better legal one — and emission certifies legality.
    fn score(&mut self, cut: &NodeSet) -> i64 {
        self.stats.evaluated += 1;
        self.budget = self.budget.saturating_sub(1);
        if cut.is_empty() {
            return 0;
        }
        let sw = self.dfg.sw_latency(cut) as i64;
        let mut max_ps = 0u64;
        for id in cut.iter() {
            let arrive = self
                .dfg
                .args(id)
                .iter()
                .filter(|a| cut.contains(**a))
                .map(|a| self.depth[a.0])
                .max()
                .unwrap_or(0);
            self.depth[id.0] = arrive + self.hw.latency_ps(self.dfg.kind(id));
            max_ps = max_ps.max(self.depth[id.0]);
        }
        let hw_cycles = max_ps.div_ceil(self.hw.cycle_ps).max(1) as i64;
        let io = self.dfg.io_counts(cut);
        let excess = io.inputs.saturating_sub(self.opts.enumerate.max_in)
            + io.outputs.saturating_sub(self.opts.enumerate.max_out);
        sw - hw_cycles - 4 * excess as i64
    }

    /// Boundary nodes addable to `cut`: CI-valid non-pseudo args and
    /// consumers of members, in ascending id order.
    fn neighbours(&self, cut: &NodeSet) -> NodeSet {
        let mut nb = self.dfg.empty_set();
        for m in cut.iter() {
            for &p in self.dfg.args(m).iter().chain(self.dfg.consumers(m)) {
                if !cut.contains(p)
                    && self.dfg.kind(p).is_ci_valid()
                    && !self.dfg.kind(p).is_pseudo()
                {
                    nb.insert(p);
                }
            }
        }
        nb
    }

    /// Greedy seeding: add the best-scoring neighbour while any addition
    /// improves the score at all.
    fn grow(&mut self, cut: &mut NodeSet, salt: u64) {
        let mut cur = self.score(cut);
        while cut.len() < self.opts.enumerate.max_nodes && !self.exhausted() {
            let mut best: Option<Move> = None;
            for nb in self.neighbours(cut).iter() {
                if self.exhausted() {
                    break;
                }
                cut.insert(nb);
                let s = self.score(cut);
                cut.remove(nb);
                let m = Move {
                    node: nb,
                    score: s,
                    is_removal: false,
                    tie: mix(salt, nb.0 as u64),
                };
                if best.as_ref().is_none_or(|b| m.beats(b)) {
                    best = Some(m);
                }
            }
            match best {
                Some(m) if m.score > cur => {
                    cut.insert(m.node);
                    cur = m.score;
                }
                _ => break,
            }
        }
    }

    /// One Kernighan–Lin pass: commit up to `2 * max_nodes` best toggles
    /// (locking each toggled node), then revert to the best prefix of
    /// the move sequence. Returns the committed move count.
    fn kl_pass(&mut self, cut: &mut NodeSet, salt: u64) -> u64 {
        let start = self.score(cut);
        let mut locked = self.dfg.empty_set();
        let mut trail: Vec<NodeId> = Vec::new();
        let mut best_score = start;
        let mut best_prefix = 0usize;
        let max_moves = 2 * self.opts.enumerate.max_nodes;
        while trail.len() < max_moves && !self.exhausted() {
            let mut best: Option<Move> = None;
            if cut.len() < self.opts.enumerate.max_nodes {
                for nb in self.neighbours(cut).iter() {
                    if locked.contains(nb) || self.exhausted() {
                        continue;
                    }
                    cut.insert(nb);
                    let s = self.score(cut);
                    cut.remove(nb);
                    let m = Move {
                        node: nb,
                        score: s,
                        is_removal: false,
                        tie: mix(salt, nb.0 as u64),
                    };
                    if best.as_ref().is_none_or(|b| m.beats(b)) {
                        best = Some(m);
                    }
                }
            }
            if cut.len() > 1 {
                for node in cut.clone().iter() {
                    if locked.contains(node) || self.exhausted() {
                        continue;
                    }
                    cut.remove(node);
                    let s = self.score(cut);
                    cut.insert(node);
                    let m = Move {
                        node,
                        score: s,
                        is_removal: true,
                        tie: mix(salt, node.0 as u64),
                    };
                    if best.as_ref().is_none_or(|b| m.beats(b)) {
                        best = Some(m);
                    }
                }
            }
            let Some(m) = best else { break };
            cut.toggle(m.node);
            locked.insert(m.node);
            trail.push(m.node);
            self.stats.moves += 1;
            if m.score > best_score {
                best_score = m.score;
                best_prefix = trail.len();
            }
        }
        for &n in trail[best_prefix..].iter().rev() {
            cut.toggle(n);
        }
        trail.len() as u64
    }

    /// Pulls a non-convex working cut back to its convex hull when the
    /// hull is legal and fits; otherwise leaves the cut alone (emission
    /// filters infeasible components, and later removals may fix it).
    fn repair(&mut self, cut: &mut NodeSet) {
        if self.dfg.is_convex(cut) {
            return;
        }
        if let Some(hull) = convex_hull(self.dfg, cut, self.opts.enumerate.max_nodes) {
            *cut = hull;
            self.stats.repairs += 1;
            rtise_trace::instant(rtise_trace::codes::ISE_ITER_REPAIR);
        }
    }

    /// Certifies and collects every feasible weakly-connected component
    /// of the working cut. Components of a convex feasible set are
    /// convex with a subset of the parent's ports, so splitting never
    /// discards a legal cut — and keeps every emission inside the space
    /// the exact (connected) enumerator covers.
    fn emit(&mut self, cut: &NodeSet) {
        for comp in components(self.dfg, cut) {
            if comp.len() <= self.opts.enumerate.max_nodes
                && self.dfg.is_feasible_ci(
                    &comp,
                    self.opts.enumerate.max_in,
                    self.opts.enumerate.max_out,
                )
                && !self.seen.contains(&comp)
            {
                let gain = self.hw.ci_gain(self.dfg, &comp);
                self.seen.insert(comp.clone());
                self.out.push((gain, comp));
                self.stats.emitted += 1;
            }
        }
    }
}

/// Splits `cut` into weakly-connected components (data edges only).
fn components(dfg: &Dfg, cut: &NodeSet) -> Vec<NodeSet> {
    let mut comps = Vec::new();
    let mut visited = dfg.empty_set();
    for start in cut.iter() {
        if visited.contains(start) {
            continue;
        }
        let mut comp = dfg.empty_set();
        comp.insert(start);
        visited.insert(start);
        let mut stack = vec![start];
        while let Some(m) = stack.pop() {
            for &p in dfg.args(m).iter().chain(dfg.consumers(m)) {
                if cut.contains(p) && !visited.contains(p) {
                    visited.insert(p);
                    comp.insert(p);
                    stack.push(p);
                }
            }
        }
        comps.push(comp);
    }
    comps
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::enumerate_connected_with_stats;
    use rtise_ir::op::OpKind;
    use rtise_obs::Rng;

    /// A two-output diamond over a shared add.
    fn diamond() -> Dfg {
        let mut g = Dfg::new();
        let a = g.input(0);
        let b = g.input(1);
        let add = g.bin(OpKind::Add, a, b);
        let mul = g.bin_imm(OpKind::Mul, add, 3);
        let sub = g.bin_imm(OpKind::Sub, add, 1);
        let x = g.bin(OpKind::Xor, mul, sub);
        g.output(0, x);
        g
    }

    /// A random layered DAG of `n` real ops (same shape family the fuzz
    /// generators use).
    fn layered(n: usize, seed: u64) -> Dfg {
        let mut rng = Rng::new(seed);
        let mut g = Dfg::new();
        let mut pool: Vec<NodeId> = (0..4).map(|i| g.input(i)).collect();
        const KINDS: [OpKind; 5] = [
            OpKind::Add,
            OpKind::Sub,
            OpKind::Mul,
            OpKind::Xor,
            OpKind::And,
        ];
        while g.op_count() < n {
            let k = KINDS[rng.gen_range(0..KINDS.len())];
            let a = pool[rng.gen_range(0..pool.len())];
            let b = pool[rng.gen_range(0..pool.len())];
            pool.push(g.bin(k, a, b));
        }
        let last = *pool.last().unwrap();
        g.output(0, last);
        g
    }

    #[test]
    fn every_candidate_is_feasible_and_connected() {
        for seed in [1u64, 7, 42] {
            let g = layered(60, seed);
            let opts = IterativeOptions::default();
            let (cands, stats) = iterative_candidates_with_stats(&g, opts);
            assert!(!cands.is_empty(), "seed {seed}");
            assert_eq!(stats.accepted as usize, cands.len());
            let mut uniq = HashSet::new();
            for s in &cands {
                assert!(g.is_feasible_ci(s, opts.enumerate.max_in, opts.enumerate.max_out));
                assert!(s.len() <= opts.enumerate.max_nodes);
                assert_eq!(components(&g, s).len(), 1, "must be connected: {s:?}");
                assert!(uniq.insert(s.clone()), "duplicate emitted: {s:?}");
            }
        }
    }

    #[test]
    fn same_options_give_byte_identical_output() {
        let g = layered(80, 3);
        let opts = IterativeOptions::default();
        let (c1, s1) = iterative_candidates_with_stats(&g, opts);
        let (c2, s2) = iterative_candidates_with_stats(&g, opts);
        assert_eq!(c1, c2);
        assert_eq!(s1, s2);
    }

    /// The full trace — solve span, per-pass instants, plateau markers,
    /// summary — is part of the determinism contract: two runs with the
    /// same seed and budget produce byte-identical virtual-clock events.
    #[test]
    fn traces_are_byte_identical_per_seed_and_budget() {
        let g = layered(60, 5);
        let opts = IterativeOptions {
            move_budget: 2_000,
            ..IterativeOptions::default()
        };
        let run = || {
            let scope = rtise_obs::Scope::with_clock(rtise_trace::Clock::Virtual);
            {
                let _active = scope.enter();
                let _ = iterative_candidates(&g, opts);
            }
            (scope.events(), scope.dropped())
        };
        let first = run();
        assert!(
            first
                .0
                .iter()
                .any(|e| e.name == rtise_trace::codes::ISE_ITER_SOLVE),
            "trace should contain the iterative solve span"
        );
        assert_eq!(first, run());
    }

    #[test]
    fn never_beats_the_exact_optimum_on_small_graphs() {
        let hw = HwModel::default();
        for seed in 0..8u64 {
            let g = layered(20, seed * 11 + 1);
            // Cap candidate size so exhaustive enumeration stays fast;
            // both sides search the same bounded space.
            let opts = EnumerateOptions {
                max_candidates: 500_000,
                max_nodes: 8,
                ..EnumerateOptions::default()
            };
            let (exact, stats) = enumerate_connected_with_stats(&g, opts);
            assert!(
                !stats.hit_candidate_cap && !stats.hit_visited_cap,
                "exact must complete uncapped for the comparison to mean anything"
            );
            let exact_best = exact.iter().map(|s| hw.ci_gain(&g, s)).max().unwrap_or(0);
            let iter_opts = IterativeOptions {
                enumerate: opts,
                ..IterativeOptions::default()
            };
            let iter = iterative_candidates(&g, iter_opts);
            let iter_best = iter.iter().map(|s| hw.ci_gain(&g, s)).max().unwrap_or(0);
            assert!(
                iter_best <= exact_best,
                "seed {seed}: iterative {iter_best} beats certified optimum {exact_best}"
            );
        }
    }

    #[test]
    fn finds_the_full_diamond() {
        let g = diamond();
        let cands = iterative_candidates(&g, IterativeOptions::default());
        assert!(
            cands.iter().any(|s| s.len() == 4),
            "the whole diamond is the best cut: {cands:?}"
        );
    }

    #[test]
    fn scales_past_the_enumeration_wall() {
        let g = layered(600, 9);
        assert!(g.len() > 128);
        let opts = IterativeOptions::default();
        let (cands, stats) = iterative_candidates_with_stats(&g, opts);
        assert!(!cands.is_empty());
        assert!(stats.seeds >= 1);
        for s in &cands {
            assert!(g.is_feasible_ci(s, opts.enumerate.max_in, opts.enumerate.max_out));
        }
    }

    #[test]
    fn move_budget_makes_it_anytime() {
        let g = layered(200, 5);
        let tight = IterativeOptions {
            move_budget: 64,
            ..IterativeOptions::default()
        };
        let (cands, stats) = iterative_candidates_with_stats(&g, tight);
        assert!(stats.hit_move_budget);
        assert!(stats.evaluated <= 64 + 1, "budget bounds the work");
        // Still anytime: whatever was certified before exhaustion is kept.
        for s in &cands {
            assert!(g.is_feasible_ci(s, 4, 2));
        }
        // A zero budget returns immediately and empty-handed but sanely.
        let zero = IterativeOptions {
            move_budget: 0,
            ..IterativeOptions::default()
        };
        let (cands0, stats0) = iterative_candidates_with_stats(&g, zero);
        assert!(stats0.hit_move_budget);
        assert!(cands0.len() <= 1, "at most the first singleton: {cands0:?}");
    }

    #[test]
    fn different_seeds_are_both_valid() {
        let g = layered(100, 13);
        for s in [0u64, 1, 99] {
            let opts = IterativeOptions {
                seed: s,
                ..IterativeOptions::default()
            };
            for c in iterative_candidates(&g, opts) {
                assert!(g.is_feasible_ci(&c, 4, 2));
            }
        }
    }

    #[test]
    fn stats_and_counters_agree() {
        let _iso = rtise_obs::isolate();
        let scope = rtise_obs::Scope::new();
        let guard = scope.enter();
        let g = layered(60, 21);
        let (_, stats) = iterative_candidates_with_stats(&g, IterativeOptions::default());
        drop(guard);
        let counters = scope.counters();
        assert_eq!(counters.get("ise.iterative.calls"), Some(&1));
        assert_eq!(counters.get("ise.iterative.seeds"), Some(&stats.seeds));
        assert_eq!(
            counters.get("ise.iterative.accepted"),
            Some(&stats.accepted)
        );
        if stats.repairs > 0 {
            assert_eq!(counters.get("ise.iterative.repairs"), Some(&stats.repairs));
        }
        assert!(stats.emitted >= stats.accepted);
    }

    #[test]
    fn candidate_cap_is_respected() {
        let g = layered(150, 2);
        let opts = IterativeOptions {
            enumerate: EnumerateOptions {
                max_candidates: 5,
                ..EnumerateOptions::default()
            },
            ..IterativeOptions::default()
        };
        let (cands, stats) = iterative_candidates_with_stats(&g, opts);
        assert!(cands.len() <= 5);
        assert_eq!(stats.accepted as usize, cands.len());
    }

    #[test]
    fn components_split_is_exact() {
        let mut g = Dfg::new();
        let a = g.input(0);
        let b = g.input(1);
        let x = g.bin_imm(OpKind::Mul, a, 3);
        let y = g.bin_imm(OpKind::Mul, b, 5);
        g.output(0, x);
        g.output(1, y);
        let mut cut = g.empty_set();
        cut.insert(x);
        cut.insert(y);
        let comps = components(&g, &cut);
        assert_eq!(comps.len(), 2);
        assert!(comps.iter().all(|c| c.len() == 1));
    }
}
