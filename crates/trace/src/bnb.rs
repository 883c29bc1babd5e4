//! The subtree-parallel branch-and-bound driver shared by the ILP, ISE
//! selection, and RMS configuration searches, and the options and
//! output of their configurable entry points.
//!
//! A solver implements [`Subtrees`] — its node state, incumbent rule,
//! stats merge, certificate event type, and deepest frontier — and
//! [`run`] does the rest. With no worker engaged, or a tree no deeper
//! than the frontier, that is the plain serial search; otherwise it is
//! two phases:
//!
//! 1. **Walk.** The search runs serially from the root but stops at the
//!    frontier depth: internal nodes record stats, certificate events,
//!    and trace events exactly as the serial search would, while each
//!    node *reaching* the frontier is captured (uncounted, eventless)
//!    with the walk's incumbent at that point and its position in the
//!    walk's certificate log.
//! 2. **Subtrees.** Subtree 0 runs first on the caller's thread (warm
//!    start): it is the preorder-earliest region of the tree, so its best
//!    seeds every later subtree — without it the first
//!    [`rtise_obs::par::WINDOW`] subtrees would search with no incumbent
//!    and can overexpand explosively. The rest run on
//!    [`rtise_obs::par::run_ordered`], each seeded with the best of its
//!    captured incumbent, subtree 0's result, and the deterministic
//!    completed-prefix window. Every subtree searches under its own
//!    certificate log and its own virtual-clock scope, isolated
//!    from the caller's.
//!
//! The merge is a fixed preorder stitch, so the output is byte-identical
//! at any thread count for a fixed frontier depth:
//!
//! * incumbents fold as `pre_best_0, result_0, …, pre_best_k, result_k,
//!   walk best` under the solver's strict-improvement rule, which keeps
//!   the preorder-earliest attainer among ties. A search that updates its
//!   incumbent only at leaves below the frontier (ILP, RMS) captures no
//!   incumbent and ends its walk with none, so those terms are no-ops;
//! * stats merge in subtree index order after the walk's own;
//! * certificate events splice in at each subtree's recorded position in
//!   the walk's log, so the stitched log is the preorder walk of a valid
//!   (differently pruned, still optimality-proving) search tree — a prune
//!   justified against a subtree's weaker local incumbent is justified
//!   against a replayer's stronger one;
//! * captured trace events replay into the caller's scopes in subtree
//!   index order.

use crate::{Clock, Event};
use rtise_obs::par::{self, Completed};
use rtise_obs::{BoundedLog, Scope};

/// Default cap on certificate events per solve. Experiment-scale solves
/// explore well under a million nodes; anything past the cap is counted
/// as dropped instead of growing without bound.
pub const DEFAULT_CERT_CAP: usize = 1 << 22;

/// Options of a solver's configurable search call. The default is the
/// plain call: the process-wide thread knob, no certificate, and the
/// frontier depth sized from the thread count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchOpts {
    /// Worker threads. `None` reads [`rtise_obs::par::threads`]; `Some(0)`
    /// is the serial search; any `n >= 1` decomposes deep-enough
    /// instances into subtrees searched on `n` workers.
    pub threads: Option<usize>,
    /// Certificate event cap. `None` records no certificate; see
    /// [`DEFAULT_CERT_CAP`].
    pub cert_cap: Option<usize>,
    /// Frontier depth of the decomposed search. `None` sizes it from the
    /// thread count with [`rtise_obs::par::sized_frontier_depth`]. Output
    /// is byte-identical at any thread count for a fixed depth.
    pub frontier_depth: Option<usize>,
}

impl SearchOpts {
    /// The plain call plus a certificate capped at [`DEFAULT_CERT_CAP`].
    pub const CERTIFIED: SearchOpts = SearchOpts {
        threads: None,
        cert_cap: Some(DEFAULT_CERT_CAP),
        frontier_depth: None,
    };
}

/// What a configurable search call returns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchOutput<R, S, C> {
    /// The answer, as the plain call returns it.
    pub result: R,
    /// Search statistics, also for failed searches.
    pub stats: S,
    /// The replayable certificate, when [`SearchOpts::cert_cap`] asked
    /// for one.
    pub cert: Option<C>,
}

impl<R, S, C> SearchOutput<R, S, C> {
    /// The result and certificate of a search run with a certificate cap.
    ///
    /// # Panics
    ///
    /// Panics if the options set no [`SearchOpts::cert_cap`].
    pub fn certified(self) -> (R, C) {
        let cert = self.cert.expect("search options set a certificate cap");
        (self.result, cert)
    }
}

/// The solver-specific half of a subtree-parallel search; see the
/// [module docs](self).
pub trait Subtrees: Sync {
    /// Search state at a node: what a search resumes from.
    type Node: Clone + Sync;
    /// The incumbent; [`Default`] is "no incumbent".
    type Best: Clone + Default + Send + Sync;
    /// Search statistics.
    type Stats: Send + Sync;
    /// Certificate event.
    type Event: Copy + Send + Sync;
    /// Deepest frontier a `None` [`SearchOpts::frontier_depth`] is sized
    /// for.
    const MAX_FRONTIER_DEPTH: usize;

    /// Whether `cand` strictly improves on `cur` — the search's own
    /// incumbent rule.
    fn improves(cur: &Self::Best, cand: &Self::Best) -> bool;

    /// Adds `from` into `into`.
    fn merge_stats(into: &mut Self::Stats, from: &Self::Stats);

    /// Branching levels below the root; the search decomposes only when
    /// the tree is deeper than the frontier.
    fn height(&self) -> usize;

    /// The root node.
    fn root(&self) -> Self::Node;

    /// Searches the subtree rooted at `node`, at `depth`, from incumbent
    /// `seed`. With a `frontier`, each node at [`Frontier::depth`] is
    /// captured into it instead of searched.
    fn search(
        &self,
        node: Self::Node,
        depth: usize,
        seed: Self::Best,
        cert: Option<&mut BoundedLog<Self::Event>>,
        frontier: Option<&mut Frontier<Self::Node, Self::Best>>,
    ) -> (Self::Best, Self::Stats);
}

/// The nodes a walk captured at the frontier.
pub struct Frontier<N, B> {
    depth: usize,
    nodes: Vec<Captured<N, B>>,
}

struct Captured<N, B> {
    node: N,
    pre_best: B,
    cert_pos: usize,
}

impl<N, B: Clone> Frontier<N, B> {
    /// The depth at which the walk captures nodes.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Captures a node reaching the frontier: its resume state, the
    /// walk's incumbent at this point, and the length of the walk's
    /// certificate log so far (where the subtree's events splice in).
    pub fn capture(&mut self, node: N, best: &B, cert_pos: usize) {
        self.nodes.push(Captured {
            node,
            pre_best: best.clone(),
            cert_pos,
        });
    }
}

/// Everything one subtree search produced.
struct SubResult<B, S, E> {
    best: B,
    stats: S,
    events: Vec<E>,
    cert_dropped: u64,
    trace: Vec<Event>,
    trace_dropped: u64,
}

/// Searches the whole tree of `search` under `opts`, appending the
/// certificate to `cert` when given; returns the incumbent and stats.
/// The search runs on the calling thread when `opts` engage no worker or
/// the tree is no deeper than the frontier, and decomposes into subtrees
/// otherwise (see the [module docs](self)). A panic in any subtree
/// reaches the caller.
pub fn run<S: Subtrees>(
    search: &S,
    opts: &SearchOpts,
    cert: Option<&mut BoundedLog<S::Event>>,
) -> (S::Best, S::Stats) {
    let threads = opts.threads.unwrap_or_else(par::threads);
    let depth = opts
        .frontier_depth
        .unwrap_or_else(|| par::sized_frontier_depth(S::MAX_FRONTIER_DEPTH, threads));
    if threads == 0 || search.height() <= depth {
        return search.search(search.root(), 0, S::Best::default(), cert, None);
    }
    let cap = cert.as_ref().map(|log| log.cap());

    // The walk's log is physically bounded by the frontier size, so it
    // needs no cap.
    let mut frontier = Frontier {
        depth,
        nodes: Vec::new(),
    };
    let mut walk_log = cap.map(|_| BoundedLog::new(usize::MAX));
    let (walk_best, mut stats) = search.search(
        search.root(),
        0,
        S::Best::default(),
        walk_log.as_mut(),
        Some(&mut frontier),
    );
    let walk_events = walk_log.map_or(Vec::new(), |log| log.into_parts().0);
    let nodes = frontier.nodes;

    let trace_on = crate::enabled();
    let run_subtree = |c: &Captured<S::Node, S::Best>, seed: S::Best| {
        let scope = trace_on.then(|| Scope::with_clock(Clock::Virtual));
        let mut log = cap.map(BoundedLog::new);
        let (best, stats) = {
            // Detach from the caller's scopes first (subtree 0, and every
            // subtree with one worker, runs on the caller's thread) so
            // subtree events reach them exactly once, via the replay below.
            let _isolated = trace_on.then(rtise_obs::isolate);
            let _active = scope.as_ref().map(Scope::enter);
            search.search(c.node.clone(), depth, seed, log.as_mut(), None)
        };
        let (events, cert_dropped) = log.map_or((Vec::new(), 0), BoundedLog::into_parts);
        SubResult {
            best,
            stats,
            events,
            cert_dropped,
            trace: scope.as_ref().map_or_else(Vec::new, Scope::events),
            trace_dropped: scope.as_ref().map_or(0, Scope::dropped),
        }
    };
    let first = nodes.first().map(|c| run_subtree(c, c.pre_best.clone()));
    let rest = par::run_ordered(
        nodes.get(1..).unwrap_or(&[]),
        threads,
        |_, c, prefix: Completed<'_, SubResult<S::Best, S::Stats, S::Event>>| {
            let mut seed = c.pre_best.clone();
            for r in
                std::iter::once(first.as_ref().expect("frontier is non-empty")).chain(prefix.iter())
            {
                if S::improves(&seed, &r.best) {
                    seed = r.best.clone();
                }
            }
            run_subtree(c, seed)
        },
    );
    let results: Vec<_> = first.into_iter().chain(rest).collect();

    let mut best = S::Best::default();
    for (c, r) in nodes.iter().zip(&results) {
        for cand in [&c.pre_best, &r.best] {
            if S::improves(&best, cand) {
                best = cand.clone();
            }
        }
        S::merge_stats(&mut stats, &r.stats);
    }
    if S::improves(&best, &walk_best) {
        best = walk_best;
    }
    if trace_on {
        for r in &results {
            crate::replay(&r.trace, r.trace_dropped);
        }
    }
    if let Some(log) = cert {
        let mut prev = 0;
        for (c, r) in nodes.iter().zip(&results) {
            for &e in &walk_events[prev..c.cert_pos] {
                log.push(e);
            }
            prev = c.cert_pos;
            for &e in &r.events {
                log.push(e);
            }
            log.add_dropped(r.cert_dropped);
        }
        for &e in &walk_events[prev..] {
            log.push(e);
        }
    }
    (best, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy search: 0–1 knapsack over `(weight, value)` items whose
    /// selection must weigh within `[floor, cap]`, maximizing value. Like
    /// the ISE search it updates its incumbent at every node entry, so
    /// walk incumbents interleave with subtree ones in preorder; unlike
    /// any real solver it prunes only on weight, never against the
    /// incumbent, so its tree — stats and certificate included — is the
    /// serial tree at every frontier depth.
    struct Knapsack {
        items: Vec<(u64, u64)>,
        floor: u64,
        cap: u64,
        /// Panic entering a node at this depth whose selection does or
        /// does not hold item 0: inside subtree 0, or inside a later one.
        panic_at: Option<(usize, bool)>,
    }

    /// `(value, chosen items)`.
    type Best = Option<(u64, Vec<usize>)>;
    /// `(nodes, pruned)`.
    type Stats = (u64, u64);
    /// Certificate: one event per node, `false` = pruned.
    type Log<'a> = Option<&'a mut BoundedLog<bool>>;

    impl Knapsack {
        /// `(best, stats, certificate)` of the search on `threads`
        /// workers with the frontier at `depth`; 0 threads is serial.
        fn output(&self, threads: usize, depth: usize) -> (Best, Stats, Vec<bool>) {
            let opts = SearchOpts {
                threads: Some(threads),
                cert_cap: None,
                frontier_depth: Some(depth),
            };
            let mut log = BoundedLog::new(usize::MAX);
            let (best, stats) = run(self, &opts, Some(&mut log));
            (best, stats, log.into_parts().0)
        }
    }

    impl Subtrees for Knapsack {
        type Node = Vec<usize>;
        type Best = Best;
        type Stats = Stats;
        type Event = bool;
        const MAX_FRONTIER_DEPTH: usize = 6;

        fn improves(cur: &Best, cand: &Best) -> bool {
            cand.as_ref()
                .is_some_and(|(v, _)| cur.as_ref().is_none_or(|(b, _)| v > b))
        }

        fn merge_stats(into: &mut Stats, from: &Stats) {
            into.0 += from.0;
            into.1 += from.1;
        }

        fn height(&self) -> usize {
            self.items.len()
        }

        fn root(&self) -> Vec<usize> {
            Vec::new()
        }

        fn search(
            &self,
            stack: Vec<usize>,
            depth: usize,
            mut best: Best,
            mut cert: Log<'_>,
            mut frontier: Option<&mut Frontier<Vec<usize>, Best>>,
        ) -> (Best, Stats) {
            if let Some(f) = frontier.as_deref_mut().filter(|f| f.depth() == depth) {
                f.capture(stack, &best, cert.as_ref().map_or(0, |c| c.len()));
                return (best, (0, 0));
            }
            let at = Some((depth, stack.contains(&0)));
            assert!(self.panic_at != at, "boom at depth {depth}");
            let weight: u64 = stack.iter().map(|&i| self.items[i].0).sum();
            let rest: u64 = self.items[depth..].iter().map(|it| it.0).sum();
            let open = weight <= self.cap && weight + rest >= self.floor;
            if let Some(c) = cert.as_deref_mut() {
                c.push(open);
            }
            let mut stats = (1, u64::from(!open));
            if !open {
                return (best, stats);
            }
            if weight >= self.floor {
                let value = stack.iter().map(|&i| self.items[i].1).sum();
                let cand = Some((value, stack.clone()));
                if Self::improves(&best, &cand) {
                    best = cand;
                }
            }
            if depth < self.items.len() {
                let mut with = stack.clone();
                with.push(depth);
                for child in [with, stack] {
                    let (b, s) = self.search(
                        child,
                        depth + 1,
                        best,
                        cert.as_deref_mut(),
                        frontier.as_deref_mut(),
                    );
                    best = b;
                    Self::merge_stats(&mut stats, &s);
                }
            }
            (best, stats)
        }
    }

    /// Seeded instances with small weights and values, so selections tie
    /// often, plus one where every singleton ties and the include-first
    /// preorder reaches `{0}` first.
    fn instances() -> Vec<Knapsack> {
        let mut out: Vec<Knapsack> = (0..10u64)
            .map(|seed| {
                let mut rng = rtise_obs::Rng::new(seed);
                let n = 8 + seed as usize % 6;
                let items: Vec<(u64, u64)> = (0..n)
                    .map(|_| (rng.gen_range(1..=4u64), rng.gen_range(1..=3u64)))
                    .collect();
                let total: u64 = items.iter().map(|it| it.0).sum();
                Knapsack {
                    items,
                    floor: total / 4,
                    cap: total / 2,
                    panic_at: None,
                }
            })
            .collect();
        out.push(Knapsack {
            items: vec![(1, 1); 10],
            floor: 1,
            cap: 1,
            panic_at: None,
        });
        out
    }

    #[test]
    fn output_equals_the_serial_search_at_every_depth_and_thread_count() {
        for (case, k) in instances().iter().enumerate() {
            let serial = k.output(0, 0);
            assert!(serial.0.is_some(), "case {case}: no feasible selection");
            for depth in 1..k.items.len() {
                for threads in [1, 2, 4] {
                    let got = k.output(threads, depth);
                    assert_eq!(got, serial, "case {case} depth {depth} threads {threads}");
                }
            }
        }
        let ties = instances().pop().expect("the tie instance");
        assert_eq!(ties.output(0, 0).0, Some((1, vec![0])));
    }

    #[test]
    fn a_frontier_pruned_away_returns_the_walk_unchanged() {
        // Items 0 and 1 fit the cap together; the floor demands all the
        // weight. Every path is pruned by depth 3, so a frontier at 5
        // captures nothing and the walk's result, stats, and log stand.
        let k = Knapsack {
            items: vec![(2, 5), (2, 5), (2, 1), (2, 1), (2, 1), (2, 1), (2, 1)],
            floor: 14,
            cap: 4,
            panic_at: None,
        };
        let mut frontier = Frontier {
            depth: 5,
            nodes: Vec::new(),
        };
        let mut log = BoundedLog::new(usize::MAX);
        let (best, stats) = k.search(k.root(), 0, None, Some(&mut log), Some(&mut frontier));
        assert!(frontier.nodes.is_empty());
        let walk = (best, stats, log.into_parts().0);
        assert_eq!(walk, k.output(0, 0));
        for threads in [1, 2, 4] {
            assert_eq!(k.output(threads, 5), walk, "threads {threads}");
        }
    }

    #[test]
    fn a_panic_in_a_subtree_reaches_the_caller() {
        let mut k = instances().swap_remove(3);
        for in_subtree_0 in [true, false] {
            k.panic_at = Some((9, in_subtree_0));
            for threads in [1, 2, 4] {
                let hit =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| k.output(threads, 4)));
                assert!(hit.is_err(), "subtree 0: {in_subtree_0}, threads {threads}");
            }
        }
    }
}
