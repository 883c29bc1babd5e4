//! Custom-instruction candidate identification.
//!
//! Two enumerators from the literature surveyed in §2.3.1:
//!
//! * [`maximal_miso`] — the linear-time greedy of Alippi et al. that grows
//!   maximal multiple-input single-output patterns from each sink;
//! * [`enumerate_connected`] — connected convex MIMO subgraphs under
//!   input/output constraints, grown breadth-first from every seed node with
//!   convexity/feasibility pruning and a candidate cap (the scalable
//!   clustering-style alternative to full exponential enumeration).

use rtise_ir::dfg::Dfg;
use rtise_ir::nodeset::NodeSet;
use std::collections::HashSet;
use std::hash::Hasher;

/// Options for [`enumerate_connected`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnumerateOptions {
    /// Maximum input operands per candidate (register read ports).
    pub max_in: usize,
    /// Maximum output operands per candidate (register write ports).
    pub max_out: usize,
    /// Upper bound on distinct candidates returned per DFG; the growth
    /// frontier is truncated once reached (largest-first is not guaranteed,
    /// but seeds cover the whole block).
    pub max_candidates: usize,
    /// Maximum nodes per candidate; bounds the search depth.
    pub max_nodes: usize,
}

impl Default for EnumerateOptions {
    /// The paper's usual 4-input / 2-output budget with generous caps.
    fn default() -> Self {
        EnumerateOptions {
            max_in: 4,
            max_out: 2,
            max_candidates: 5_000,
            max_nodes: 24,
        }
    }
}

/// Largest DFG the bitset path handles: 1024 nodes, shapes of up to 16
/// words. Every suite block fits (des3's 584-node block is the largest);
/// past it, enumeration falls back to the generic walk.
pub const MAX_FAST_NODES: usize = fast::MAX_FAST_NODES;

/// Enumerates the maximal MISO pattern rooted at every sink of `dfg`.
///
/// Starting from each valid node, predecessors are absorbed as long as all
/// of their consumers already lie inside the pattern (so the pattern keeps a
/// single output) and they are valid; patterns that collapse to a single
/// trivial node are dropped. Input counts are *not* constrained here — the
/// caller filters with [`Dfg::io_counts`] if needed, mirroring MaxMISO.
pub fn maximal_miso(dfg: &Dfg) -> Vec<NodeSet> {
    let mut out: Vec<NodeSet> = Vec::new();
    let mut seen: HashSet<NodeSet> = HashSet::new();
    for root in dfg.ids() {
        if !dfg.kind(root).is_ci_valid() || dfg.kind(root).is_pseudo() {
            continue;
        }
        let mut set = dfg.empty_set();
        set.insert(root);
        // Grow upward to the (unique, monotone) fixpoint. A predecessor
        // becomes absorbable exactly when its last outside consumer joins
        // the pattern, and it is an argument of that consumer — so
        // re-examining only the arguments of newly added nodes visits
        // every absorption opportunity without rescanning the whole set.
        let mut worklist = vec![root];
        while let Some(m) = worklist.pop() {
            for &p in dfg.args(m) {
                if set.contains(p) || !dfg.kind(p).is_ci_valid() || dfg.kind(p).is_pseudo() {
                    continue;
                }
                // p may join only if every consumer of p is inside,
                // keeping the pattern single-output.
                if dfg.consumers(p).iter().all(|c| set.contains(*c)) {
                    set.insert(p);
                    worklist.push(p);
                }
            }
        }
        if set.len() >= 2 && seen.insert(set.clone()) {
            out.push(set);
        }
    }
    #[cfg(debug_assertions)]
    for set in &out {
        debug_assert!(dfg.is_convex(set));
        debug_assert!(dfg.io_counts(set).outputs <= 1);
    }
    rtise_obs::record("ise.miso.patterns", out.len() as u64);
    out
}

/// Enumeration statistics for one [`enumerate_connected_with_stats`] call.
///
/// Invariant: `generated == accepted + rejected_infeasible` — every shape
/// taken off the growth frontier is either kept as a candidate or rejected
/// by the I/O feasibility test (non-convex shapes never reach the
/// frontier: they are repaired to their convex hull or dropped at growth
/// time).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EnumerateStats {
    /// Shapes taken off the growth frontier and tested.
    pub generated: u64,
    /// Shapes kept as feasible candidates.
    pub accepted: u64,
    /// Shapes rejected by the input/output port constraints.
    pub rejected_infeasible: u64,
    /// Non-convex growths repaired to their convex hull and re-queued.
    pub convexity_repairs: u64,
    /// Non-convex growths dropped because the hull needed an invalid node
    /// or exceeded `max_nodes`.
    pub dropped_nonconvex: u64,
    /// Whether the `max_candidates` cap cut enumeration short.
    pub hit_candidate_cap: bool,
    /// Whether the visited-shapes work bound stopped further growth.
    pub hit_visited_cap: bool,
}

/// Enumerates connected convex subgraphs satisfying the I/O constraints.
///
/// Growth starts from every valid seed node and extends one adjacent valid
/// node at a time. A grown set is kept when it is feasible under
/// `opts.max_in`/`opts.max_out`; infeasible intermediate shapes are still
/// extended (adding a node can *reduce* the input count) until `max_nodes`.
/// Duplicates are removed globally.
///
/// The worst case is exponential (§2.3.1); `max_candidates` bounds the work,
/// trading completeness for the scalability of the clustering heuristics the
/// paper cites.
pub fn enumerate_connected(dfg: &Dfg, opts: EnumerateOptions) -> Vec<NodeSet> {
    enumerate_connected_with_stats(dfg, opts).0
}

/// Like [`enumerate_connected`], additionally returning [`EnumerateStats`]
/// and publishing `ise.enumerate.*` counters to the [`rtise_obs`]
/// registry.
///
/// DFGs of at most [`MAX_FAST_NODES`] nodes take the bitset path: shapes
/// live inline in 2 `u64` words up to 128 nodes and in 16 beyond (no
/// workload has blocks in between), the visited set is FNV-keyed over the raw words, and
/// convexity/port tests run on precomputed transitive masks. The bitset
/// path is differentially tested to produce bit-identical results and
/// stats to the generic walk, which answers for larger DFGs.
pub fn enumerate_connected_with_stats(
    dfg: &Dfg,
    opts: EnumerateOptions,
) -> (Vec<NodeSet>, EnumerateStats) {
    let (results, stats) = if dfg.len() <= fast::MAX_FAST_NODES {
        fast::enumerate(dfg, opts)
    } else {
        // The enumeration wall: count and trace every fall-through so
        // reports show when runs leave the bitset path instead of just
        // getting slow.
        rtise_obs::record("ise.enumerate.generic_path", 1);
        rtise_trace::instant_with(
            rtise_trace::codes::ISE_ENUM_GENERIC_PATH,
            &[("nodes", dfg.len() as u64)],
        );
        enumerate_connected_reference(dfg, opts)
    };
    rtise_obs::record("ise.enumerate.calls", 1);
    rtise_obs::record("ise.enumerate.generated", stats.generated);
    rtise_obs::record("ise.enumerate.accepted", stats.accepted);
    rtise_obs::record("ise.enumerate.rejected", stats.rejected_infeasible);
    rtise_obs::record("ise.enumerate.convexity_repairs", stats.convexity_repairs);
    (results, stats)
}

/// The generic (any-size) enumeration walk: the path past
/// [`MAX_FAST_NODES`], and the differential oracle and benchmark twin of
/// the bitset path. Does not publish counters.
#[doc(hidden)]
pub fn enumerate_connected_reference(
    dfg: &Dfg,
    opts: EnumerateOptions,
) -> (Vec<NodeSet>, EnumerateStats) {
    let mut stats = EnumerateStats::default();
    let mut results: Vec<NodeSet> = Vec::new();
    let mut visited: HashSet<NodeSet> = HashSet::new();
    let mut frontier: Vec<NodeSet> = Vec::new();
    // Total-work bound: the candidate cap limits *results*, but on very
    // large blocks the space of infeasible intermediate shapes dwarfs the
    // feasible ones; cap the explored shapes as well so enumeration stays
    // linear-ish in the cap (MaxMISO patterns cover huge blocks instead).
    let max_visited = opts.max_candidates.saturating_mul(24).max(4_096);

    for seed in dfg.ids() {
        let k = dfg.kind(seed);
        // Constants are absorbed as operands but never seed a candidate —
        // a hardwired immediate is not an instruction.
        if !k.is_ci_valid() || k.is_pseudo() || k == rtise_ir::op::OpKind::Const {
            continue;
        }
        let mut s = dfg.empty_set();
        s.insert(seed);
        if visited.insert(s.clone()) {
            frontier.push(s);
        }
    }

    while let Some(set) = frontier.pop() {
        stats.generated += 1;
        if dfg.is_feasible_ci(&set, opts.max_in, opts.max_out) {
            stats.accepted += 1;
            results.push(set.clone());
            if results.len() >= opts.max_candidates {
                stats.hit_candidate_cap = true;
                break;
            }
        } else {
            stats.rejected_infeasible += 1;
        }
        if set.len() >= opts.max_nodes || visited.len() >= max_visited {
            if visited.len() >= max_visited {
                stats.hit_visited_cap = true;
            }
            continue;
        }
        // Extend by every adjacent valid node (connectedness preserved).
        let mut neighbours = dfg.empty_set();
        for m in set.iter() {
            for &p in dfg.args(m) {
                if !set.contains(p) && dfg.kind(p).is_ci_valid() && !dfg.kind(p).is_pseudo() {
                    neighbours.insert(p);
                }
            }
            for &c in dfg.consumers(m) {
                if !set.contains(c) && dfg.kind(c).is_ci_valid() && !dfg.kind(c).is_pseudo() {
                    neighbours.insert(c);
                }
            }
        }
        for nb in neighbours.iter() {
            let mut grown = set.clone();
            grown.insert(nb);
            // Convexity can be repaired by further growth only through the
            // violating path's nodes, which are neighbours too — so prune
            // non-convex shapes immediately (the violating intermediate node
            // itself will be offered as an extension of a different branch).
            if !dfg.is_convex(&grown) {
                // Repair instead of dropping: absorb everything on the
                // violating paths if that keeps the size bounded.
                if let Some(repaired) = convex_hull(dfg, &grown, opts.max_nodes) {
                    stats.convexity_repairs += 1;
                    if visited.insert(repaired.clone()) {
                        frontier.push(repaired);
                    }
                } else {
                    stats.dropped_nonconvex += 1;
                }
                continue;
            }
            if visited.insert(grown.clone()) {
                frontier.push(grown);
            }
        }
    }
    (results, stats)
}

/// Bitset path for DFGs of at most [`MAX_FAST_NODES`] nodes.
///
/// Mirrors [`enumerate_connected_reference`] decision for decision: same
/// seeds, same LIFO frontier, same ascending-id neighbour order, same
/// accept/repair/drop logic — only the set representation changes, from
/// heap-allocated [`NodeSet`]s cloned per growth step to inline
/// `[u64; W]` words with precomputed adjacency and transitive
/// ancestor/descendant masks. `W` is chosen per DFG, so a small block
/// pays for two words, not sixteen.
mod fast {
    use super::{EnumerateOptions, EnumerateStats, FnvWords};
    use rtise_ir::dfg::{Dfg, NodeId};
    use rtise_ir::nodeset::NodeSet;
    use rtise_ir::op::OpKind;
    use std::collections::HashSet;
    use std::hash::BuildHasherDefault;

    /// Widest shape, in words; larger DFGs use the generic walk.
    const MAX_WORDS: usize = 16;
    /// Largest DFG the bitset path handles.
    pub(super) const MAX_FAST_NODES: usize = MAX_WORDS * 64;

    /// An inline node subset of a DFG of at most `64 * W` nodes.
    type Shape<const W: usize> = [u64; W];

    fn bit(id: usize) -> (usize, u64) {
        (id / 64, 1u64 << (id % 64))
    }

    fn contains<const W: usize>(s: &Shape<W>, id: usize) -> bool {
        let (w, m) = bit(id);
        s[w] & m != 0
    }

    fn insert<const W: usize>(s: &mut Shape<W>, id: usize) {
        let (w, m) = bit(id);
        s[w] |= m;
    }

    fn len<const W: usize>(s: &Shape<W>) -> usize {
        s.iter().map(|w| w.count_ones() as usize).sum()
    }

    fn is_empty<const W: usize>(s: &Shape<W>) -> bool {
        s.iter().all(|&w| w == 0)
    }

    fn union<const W: usize>(a: &Shape<W>, b: &Shape<W>) -> Shape<W> {
        std::array::from_fn(|i| a[i] | b[i])
    }

    fn minus<const W: usize>(a: &Shape<W>, b: &Shape<W>) -> Shape<W> {
        std::array::from_fn(|i| a[i] & !b[i])
    }

    fn is_subset<const W: usize>(a: &Shape<W>, b: &Shape<W>) -> bool {
        a.iter().zip(b).all(|(x, y)| x & !y == 0)
    }

    /// Iterates member ids in ascending order.
    fn iter_bits<const W: usize>(s: Shape<W>) -> impl Iterator<Item = usize> {
        (0..W).flat_map(move |w| {
            let mut bits = s[w];
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(w * 64 + b)
            })
        })
    }

    /// Per-node masks precomputed once per enumeration call.
    struct Masks<const W: usize> {
        n: usize,
        /// `is_ci_valid` nodes (hull members may be constants).
        valid: Shape<W>,
        /// Growable nodes: CI-valid and not pseudo.
        grow: Shape<W>,
        /// Adjacent growable nodes (args ∪ consumers, filtered by `grow`).
        adj: Vec<Shape<W>>,
        /// Non-constant direct arguments (for the input-port count).
        in_nc: Vec<Shape<W>>,
        /// All direct consumers (for the output-port count).
        out_any: Vec<Shape<W>>,
        /// Transitive ancestors, excluding the node itself.
        anc: Vec<Shape<W>>,
        /// Transitive descendants, excluding the node itself.
        desc: Vec<Shape<W>>,
    }

    impl<const W: usize> Masks<W> {
        fn build(dfg: &Dfg) -> Masks<W> {
            let n = dfg.len();
            debug_assert!(n <= W * 64);
            let mut m = Masks {
                n,
                valid: [0; W],
                grow: [0; W],
                adj: vec![[0; W]; n],
                in_nc: vec![[0; W]; n],
                out_any: vec![[0; W]; n],
                anc: vec![[0; W]; n],
                desc: vec![[0; W]; n],
            };
            for id in 0..n {
                let k = dfg.kind(NodeId(id));
                if k.is_ci_valid() {
                    insert(&mut m.valid, id);
                    if !k.is_pseudo() {
                        insert(&mut m.grow, id);
                    }
                }
            }
            for id in 0..n {
                // Ids are topological, so ancestor masks fold forward.
                for &a in dfg.args(NodeId(id)) {
                    m.anc[id] = union(&m.anc[id], &m.anc[a.0]);
                    insert(&mut m.anc[id], a.0);
                    if dfg.kind(a) != OpKind::Const {
                        insert(&mut m.in_nc[id], a.0);
                    }
                    if contains(&m.grow, a.0) {
                        insert(&mut m.adj[id], a.0);
                    }
                }
                for &c in dfg.consumers(NodeId(id)) {
                    insert(&mut m.out_any[id], c.0);
                    if contains(&m.grow, c.0) {
                        insert(&mut m.adj[id], c.0);
                    }
                }
            }
            for id in (0..n).rev() {
                for &c in dfg.consumers(NodeId(id)) {
                    m.desc[id] = union(&m.desc[id], &m.desc[c.0]);
                    insert(&mut m.desc[id], c.0);
                }
            }
            m
        }

        /// Union of a per-node mask over the members of `s`.
        fn fold(&self, s: &Shape<W>, table: &[Shape<W>]) -> Shape<W> {
            let mut acc = [0; W];
            for id in iter_bits(*s) {
                acc = union(&acc, &table[id]);
            }
            acc
        }

        /// Convexity via the mask identity: a set is non-convex exactly
        /// when some node outside it is both reachable from a member and
        /// an ancestor of a member (it then closes an escape path, which
        /// is what [`Dfg::is_convex`]'s forward/backward sweep detects).
        fn is_convex(&self, s: &Shape<W>) -> bool {
            let desc_u = self.fold(s, &self.desc);
            let anc_u = self.fold(s, &self.anc);
            let mut escape = desc_u;
            for i in 0..W {
                escape[i] &= anc_u[i] & !s[i];
            }
            escape == [0; W]
        }

        fn io_fits(&self, s: &Shape<W>, max_in: usize, max_out: usize) -> bool {
            let inputs = minus(&self.fold(s, &self.in_nc), s);
            if len(&inputs) > max_in {
                return false;
            }
            let mut outputs = 0usize;
            for id in iter_bits(*s) {
                if minus(&self.out_any[id], s) != [0; W] {
                    outputs += 1;
                }
            }
            outputs <= max_out
        }

        fn is_feasible(&self, s: &Shape<W>, max_in: usize, max_out: usize) -> bool {
            !is_empty(s)
                && is_subset(s, &self.valid)
                && self.io_fits(s, max_in, max_out)
                && self.is_convex(s)
        }

        /// Mask twin of [`super::convex_hull`]: iteratively absorbs every
        /// outside node that is both a descendant and an ancestor of the
        /// hull; `None` if the closure needs a CI-invalid node or grows
        /// past `max_nodes`.
        fn convex_hull(&self, s: &Shape<W>, max_nodes: usize) -> Option<Shape<W>> {
            let mut hull = *s;
            loop {
                let desc_u = self.fold(&hull, &self.desc);
                let anc_u = self.fold(&hull, &self.anc);
                let mut need = desc_u;
                for i in 0..W {
                    need[i] &= anc_u[i] & !hull[i];
                }
                if need == [0; W] {
                    return Some(hull);
                }
                if !is_subset(&need, &self.valid) {
                    return None;
                }
                hull = union(&hull, &need);
                if len(&hull) > max_nodes {
                    return None;
                }
            }
        }

        fn to_node_set(&self, s: &Shape<W>) -> NodeSet {
            NodeSet::from_words(self.n, &s[..self.n.div_ceil(64)])
        }
    }

    /// Runs the bitset enumeration on two words up to 128 nodes and on
    /// [`MAX_WORDS`] beyond; `dfg` must have at most [`MAX_FAST_NODES`]
    /// nodes. The suite's blocks are either ≤ 128 nodes or des3's 584, so
    /// a middle width would be compiled code no workload runs.
    pub(super) fn enumerate(dfg: &Dfg, opts: EnumerateOptions) -> (Vec<NodeSet>, EnumerateStats) {
        if dfg.len() <= 128 {
            enumerate_words::<2>(dfg, opts)
        } else {
            enumerate_words::<MAX_WORDS>(dfg, opts)
        }
    }

    // Kept out of line: with the widths inlined into the dispatch above,
    // the two-word path measured ~10% slower than a lone two-word copy.
    #[inline(never)]
    fn enumerate_words<const W: usize>(
        dfg: &Dfg,
        opts: EnumerateOptions,
    ) -> (Vec<NodeSet>, EnumerateStats) {
        let masks = Masks::<W>::build(dfg);
        let mut stats = EnumerateStats::default();
        let mut results: Vec<NodeSet> = Vec::new();
        let mut visited: HashSet<Shape<W>, BuildHasherDefault<FnvWords>> = HashSet::default();
        let mut frontier: Vec<Shape<W>> = Vec::new();
        let max_visited = opts.max_candidates.saturating_mul(24).max(4_096);

        for seed in 0..masks.n {
            if !contains(&masks.grow, seed) || dfg.kind(NodeId(seed)) == OpKind::Const {
                continue;
            }
            let mut s = [0; W];
            insert(&mut s, seed);
            if visited.insert(s) {
                frontier.push(s);
            }
        }

        while let Some(set) = frontier.pop() {
            stats.generated += 1;
            if masks.is_feasible(&set, opts.max_in, opts.max_out) {
                stats.accepted += 1;
                results.push(masks.to_node_set(&set));
                if results.len() >= opts.max_candidates {
                    stats.hit_candidate_cap = true;
                    break;
                }
            } else {
                stats.rejected_infeasible += 1;
            }
            if len(&set) >= opts.max_nodes || visited.len() >= max_visited {
                if visited.len() >= max_visited {
                    stats.hit_visited_cap = true;
                }
                continue;
            }
            let neighbours = minus(&masks.fold(&set, &masks.adj), &set);
            for nb in iter_bits(neighbours) {
                let mut grown = set;
                insert(&mut grown, nb);
                if !masks.is_convex(&grown) {
                    if let Some(repaired) = masks.convex_hull(&grown, opts.max_nodes) {
                        stats.convexity_repairs += 1;
                        if visited.insert(repaired) {
                            frontier.push(repaired);
                        }
                    } else {
                        stats.dropped_nonconvex += 1;
                    }
                    continue;
                }
                if visited.insert(grown) {
                    frontier.push(grown);
                }
            }
        }
        (results, stats)
    }
}

/// FNV-1a hasher specialized for hashing raw shape words: small state, no
/// allocation — the visited set is the hottest map in enumeration.
///
/// `Hash` for `[u64; W]` hands the shape over as one byte slice (after an
/// 8-byte length), so `write` folds it in 8 bytes at a time as words. An
/// FNV multiply only carries low bits upward, and hashbrown picks buckets
/// by the low bits, so `finish` folds the high half of a full 64×64-bit
/// product back into the low one.
#[derive(Clone)]
struct FnvWords(u64);

impl Default for FnvWords {
    fn default() -> Self {
        FnvWords(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for FnvWords {
    fn finish(&self) -> u64 {
        let product = u128::from(self.0) * 0x9e37_79b9_7f4a_7c15;
        (product >> 64) as u64 ^ product as u64
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.write_u64(u64::from_ne_bytes(word.try_into().expect("8-byte chunk")));
        }
        for &b in words.remainder() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn write_u64(&mut self, w: u64) {
        self.0 ^= w;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Pairs up disjoint feasible candidates into *disconnected* candidates
/// (two weakly-connected components in one custom instruction), the
/// instruction-level-parallelism extension of §2.3.1 \[81, 23, 36\]: inside
/// the CFU the components execute in parallel, so the combined hardware
/// latency is the maximum — not the sum — of the parts.
///
/// `connected` is a library of feasible candidates (e.g. from
/// [`enumerate_connected`]); pairs whose union is still feasible under
/// `opts` are returned, capped at `opts.max_candidates`.
pub fn enumerate_disconnected(
    dfg: &Dfg,
    connected: &[NodeSet],
    opts: EnumerateOptions,
) -> Vec<NodeSet> {
    let mut out = Vec::new();
    let mut seen: HashSet<NodeSet> = HashSet::new();
    'outer: for (i, a) in connected.iter().enumerate() {
        for b in &connected[i + 1..] {
            if a.intersects(b) {
                continue;
            }
            let mut union = a.clone();
            union.union_with(b);
            if union.len() > opts.max_nodes
                || !dfg.is_feasible_ci(&union, opts.max_in, opts.max_out)
            {
                continue;
            }
            // Require genuine disconnection: no data edge between the parts
            // (otherwise the pair is just a connected candidate again).
            let touching = a.iter().any(|n| {
                dfg.args(n).iter().any(|p| b.contains(*p))
                    || dfg.consumers(n).iter().any(|c| b.contains(*c))
            });
            if touching {
                continue;
            }
            if seen.insert(union.clone()) {
                out.push(union);
                if out.len() >= opts.max_candidates {
                    break 'outer;
                }
            }
        }
    }
    rtise_obs::record("ise.disconnected.pairs", out.len() as u64);
    out
}

/// The convex closure of `set`: adds every valid node lying on a path
/// between two members. Returns `None` if the closure needs an invalid node
/// or exceeds `max_nodes`.
fn convex_hull(dfg: &Dfg, set: &NodeSet, max_nodes: usize) -> Option<NodeSet> {
    let mut hull = set.clone();
    loop {
        // Nodes outside the hull reachable from it...
        let mut desc = dfg.empty_set();
        for id in dfg.ids() {
            let from_member = dfg.args(id).iter().any(|a| hull.contains(*a));
            let from_desc = dfg.args(id).iter().any(|a| desc.contains(*a));
            if !hull.contains(id) && (from_member || from_desc) {
                desc.insert(id);
            }
        }
        // ...that also reach back into the hull must be absorbed.
        let mut anc = dfg.empty_set();
        for id in dfg.ids().collect::<Vec<_>>().into_iter().rev() {
            let to_member = dfg.consumers(id).iter().any(|c| hull.contains(*c));
            let to_anc = dfg.consumers(id).iter().any(|c| anc.contains(*c));
            if !hull.contains(id) && (to_member || to_anc) {
                anc.insert(id);
            }
        }
        let mut need = desc;
        need.intersect_with(&anc);
        if need.is_empty() {
            return Some(hull);
        }
        for id in need.iter() {
            if !dfg.kind(id).is_ci_valid() {
                return None;
            }
            hull.insert(id);
        }
        if hull.len() > max_nodes {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtise_ir::op::OpKind;

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

    #[test]
    fn maxmiso_finds_the_full_diamond() {
        let g = diamond();
        let misos = maximal_miso(&g);
        // The maximal MISO rooted at xor covers all four ops.
        assert!(misos.iter().any(|s| s.len() == 4));
        for s in &misos {
            assert!(g.is_convex(s));
            assert!(g.io_counts(s).outputs <= 1, "{s:?}");
        }
    }

    #[test]
    fn maxmiso_respects_external_consumers() {
        // add feeds both mul and an Output: growing from mul must not absorb
        // add unless all of add's consumers are inside.
        let mut g = Dfg::new();
        let a = g.input(0);
        let add = g.bin_imm(OpKind::Add, a, 1);
        let mul = g.bin_imm(OpKind::Mul, add, 3);
        g.output(0, add);
        g.output(1, mul);
        let misos = maximal_miso(&g);
        for s in &misos {
            if s.contains(mul) {
                assert!(!s.contains(add), "add escapes through Output");
            }
        }
    }

    #[test]
    fn connected_enumeration_is_feasible_and_convex() {
        let g = diamond();
        let cands = enumerate_connected(&g, EnumerateOptions::default());
        assert!(!cands.is_empty());
        for s in &cands {
            assert!(g.is_feasible_ci(&s.clone(), 4, 2), "{s:?}");
        }
        // The full diamond is among them.
        assert!(cands.iter().any(|s| s.len() == 4));
    }

    #[test]
    fn enumeration_honours_io_constraints() {
        // A 6-input tree: with max_in = 2 only small pieces qualify.
        let mut g = Dfg::new();
        let ins: Vec<_> = (0..6).map(|i| g.input(i)).collect();
        let s0 = g.bin(OpKind::Add, ins[0], ins[1]);
        let s1 = g.bin(OpKind::Add, ins[2], ins[3]);
        let s2 = g.bin(OpKind::Add, ins[4], ins[5]);
        let t0 = g.bin(OpKind::Add, s0, s1);
        let t1 = g.bin(OpKind::Add, t0, s2);
        g.output(0, t1);
        let opts = EnumerateOptions {
            max_in: 2,
            ..EnumerateOptions::default()
        };
        let cands = enumerate_connected(&g, opts);
        for s in &cands {
            assert!(g.io_counts(s).inputs <= 2);
        }
        // The full tree (6 inputs) must be excluded.
        assert!(cands.iter().all(|s| s.len() < 5));
    }

    #[test]
    fn candidate_cap_limits_output() {
        // A wide block with many nodes explodes combinatorially; the cap
        // must hold.
        let mut g = Dfg::new();
        let mut prev = g.input(0);
        let other = g.input(1);
        for i in 0..20 {
            let k = if i % 2 == 0 { OpKind::Add } else { OpKind::Xor };
            prev = g.bin(k, prev, other);
        }
        g.output(0, prev);
        let opts = EnumerateOptions {
            max_candidates: 50,
            ..EnumerateOptions::default()
        };
        let cands = enumerate_connected(&g, opts);
        assert!(cands.len() <= 50);
        assert!(!cands.is_empty());
    }

    #[test]
    fn invalid_ops_never_appear_in_candidates() {
        let mut g = Dfg::new();
        let a = g.input(0);
        let x = g.bin_imm(OpKind::Add, a, 1);
        let ld = g.un(OpKind::Load, x);
        let y = g.bin_imm(OpKind::Mul, ld, 3);
        g.output(0, y);
        for s in enumerate_connected(&g, EnumerateOptions::default()) {
            assert!(!s.contains(ld));
        }
        for s in maximal_miso(&g) {
            assert!(!s.contains(ld));
        }
    }

    #[test]
    fn disconnected_pairs_execute_in_parallel() {
        use rtise_ir::hw::HwModel;
        // Two independent mul-mul chains.
        let mut g = Dfg::new();
        let a = g.input(0);
        let b = g.input(1);
        let m1 = g.bin_imm(OpKind::Mul, a, 3);
        let m2 = g.bin_imm(OpKind::Mul, m1, 5);
        let n1 = g.bin_imm(OpKind::Mul, b, 7);
        let n2 = g.bin_imm(OpKind::Mul, n1, 9);
        g.output(0, m2);
        g.output(1, n2);

        let connected = enumerate_connected(&g, EnumerateOptions::default());
        let pairs = enumerate_disconnected(&g, &connected, EnumerateOptions::default());
        assert!(!pairs.is_empty());
        // The full pair {m1,m2} ∪ {n1,n2} runs both chains in parallel.
        let full: Vec<_> = pairs.iter().filter(|p| p.len() >= 4).collect();
        assert!(!full.is_empty(), "expected the 4-op disconnected pair");
        let hw = HwModel::default();
        for p in full {
            // sw = 4 muls = 12 cycles; hw = one 2-mul chain = 1 cycle.
            assert_eq!(hw.ci_cycles(&g, p), 1);
            assert_eq!(hw.ci_gain(&g, p), 11, "parallelism beats the sum of parts");
        }
        // And every pair is feasible + genuinely disconnected.
        for p in &pairs {
            assert!(g.is_feasible_ci(p, 4, 2));
        }
    }

    #[test]
    fn disconnected_rejects_touching_components() {
        let g = diamond();
        let connected = enumerate_connected(&g, EnumerateOptions::default());
        let pairs = enumerate_disconnected(&g, &connected, EnumerateOptions::default());
        // The only disconnected pair in the diamond is the sibling set
        // {mul, sub}: every other combination shares a data edge.
        assert_eq!(pairs.len(), 1, "{pairs:?}");
        let pair = &pairs[0];
        assert_eq!(pair.len(), 2);
        let kinds: Vec<OpKind> = pair.iter().map(|n| g.kind(n)).collect();
        assert!(kinds.contains(&OpKind::Mul) && kinds.contains(&OpKind::Sub));
        // No data edge between the two members.
        for n in pair.iter() {
            assert!(!g.args(n).iter().any(|p| pair.contains(*p)));
        }
    }

    #[test]
    fn stats_account_for_every_generated_shape() {
        let g = diamond();
        let (cands, stats) = enumerate_connected_with_stats(&g, EnumerateOptions::default());
        assert_eq!(
            stats.generated,
            stats.accepted + stats.rejected_infeasible,
            "diamond: {stats:?}"
        );
        assert_eq!(stats.accepted as usize, cands.len());
        assert!(stats.generated >= 1);
        assert!(!stats.hit_candidate_cap && !stats.hit_visited_cap);
        // And with a tight cap the flag trips.
        let mut g = Dfg::new();
        let mut prev = g.input(0);
        let other = g.input(1);
        for i in 0..20 {
            let k = if i % 2 == 0 { OpKind::Add } else { OpKind::Xor };
            prev = g.bin(k, prev, other);
        }
        g.output(0, prev);
        let opts = EnumerateOptions {
            max_candidates: 10,
            ..EnumerateOptions::default()
        };
        let (cands, stats) = enumerate_connected_with_stats(&g, opts);
        assert_eq!(cands.len(), 10);
        assert!(stats.hit_candidate_cap);
        assert_eq!(stats.generated, stats.accepted + stats.rejected_infeasible);
    }

    #[test]
    fn stats_do_not_change_the_result() {
        let g = diamond();
        let plain = enumerate_connected(&g, EnumerateOptions::default());
        let (with_stats, _) = enumerate_connected_with_stats(&g, EnumerateOptions::default());
        assert_eq!(plain, with_stats);
    }

    #[test]
    fn fast_path_matches_reference_on_unit_graphs() {
        let mut graphs = vec![diamond()];
        // The 6-input tree and the wide 20-op block from the other tests.
        let mut g = Dfg::new();
        let ins: Vec<_> = (0..6).map(|i| g.input(i)).collect();
        let s0 = g.bin(OpKind::Add, ins[0], ins[1]);
        let s1 = g.bin(OpKind::Add, ins[2], ins[3]);
        let s2 = g.bin(OpKind::Add, ins[4], ins[5]);
        let t0 = g.bin(OpKind::Add, s0, s1);
        let t1 = g.bin(OpKind::Add, t0, s2);
        g.output(0, t1);
        graphs.push(g);
        let mut g = Dfg::new();
        let mut prev = g.input(0);
        let other = g.input(1);
        for i in 0..20 {
            let k = if i % 2 == 0 { OpKind::Add } else { OpKind::Xor };
            prev = g.bin(k, prev, other);
        }
        g.output(0, prev);
        graphs.push(g);
        for g in &graphs {
            for opts in [
                EnumerateOptions::default(),
                EnumerateOptions {
                    max_in: 2,
                    max_candidates: 10,
                    ..EnumerateOptions::default()
                },
            ] {
                let (fast, fast_stats) = enumerate_connected_with_stats(g, opts);
                let (slow, slow_stats) = enumerate_connected_reference(g, opts);
                assert_eq!(fast, slow);
                assert_eq!(fast_stats, slow_stats);
            }
        }
    }

    /// An `ops`-long chain of immediate adds: `ops` + 3 nodes (input,
    /// interned constant, output).
    fn chain(ops: usize) -> Dfg {
        let mut g = Dfg::new();
        let mut prev = g.input(0);
        for _ in 0..ops {
            prev = g.bin_imm(OpKind::Add, prev, 1);
        }
        g.output(0, prev);
        g
    }

    #[test]
    fn oversize_graphs_use_the_generic_path() {
        // Past MAX_FAST_NODES forces the generic path through the public
        // API.
        let g = chain(1040);
        assert!(g.len() > MAX_FAST_NODES);
        let opts = EnumerateOptions {
            max_candidates: 64,
            ..EnumerateOptions::default()
        };
        let (cands, stats) = enumerate_connected_with_stats(&g, opts);
        assert!(!cands.is_empty());
        assert_eq!(stats.generated, stats.accepted + stats.rejected_infeasible);
        assert!(!maximal_miso(&g).is_empty());
    }

    /// Crossing the enumeration wall is observable — the
    /// `ise.enumerate.generic_path` counter fires exactly when a DFG is
    /// too big for the bitset path, and never inside it, at any width.
    #[test]
    fn generic_path_fallback_is_counted() {
        let _iso = rtise_obs::isolate();
        // A 1043-node chain (past the wall), a 143-node chain (three
        // words, once past the old two-word wall) and the 8-node diamond.
        let big = chain(1040);
        let mid = chain(140);
        assert!(big.len() > MAX_FAST_NODES);
        assert!(mid.len() > 128);
        let opts = EnumerateOptions {
            max_candidates: 64,
            ..EnumerateOptions::default()
        };
        let scope = rtise_obs::Scope::new();
        let guard = scope.enter();
        let _ = enumerate_connected_with_stats(&mid, opts);
        let counters = scope.counters();
        assert_eq!(
            counters.get("ise.enumerate.generic_path"),
            None,
            "the 143-node chain takes the bitset path: {counters:?}"
        );
        let _ = enumerate_connected_with_stats(&big, opts);
        let _ = enumerate_connected_with_stats(&diamond(), opts);
        drop(guard);
        let counters = scope.counters();
        assert_eq!(
            counters.get("ise.enumerate.generic_path"),
            Some(&1),
            "one fallback for the 1043-node chain, none for the others: {counters:?}"
        );
        assert_eq!(counters.get("ise.enumerate.calls"), Some(&3));
    }

    #[test]
    fn backends_agree_where_they_overlap() {
        let g = diamond();
        let opts = EnumerateOptions::default();
        let exact = enumerate_connected(&g, opts);
        let (generic, _) = enumerate_connected_reference(&g, opts);
        assert_eq!(exact, generic, "bitset path is bit-identical to generic");
    }

    #[test]
    fn convex_hull_repairs_or_rejects() {
        let g = diamond();
        // {add, xor} is non-convex; its hull is the full diamond.
        let add = rtise_ir::dfg::NodeId(2);
        let xor = rtise_ir::dfg::NodeId(7);
        assert_eq!(g.kind(add), OpKind::Add);
        assert_eq!(g.kind(xor), OpKind::Xor);
        let mut s = g.empty_set();
        s.insert(add);
        s.insert(xor);
        let hull = convex_hull(&g, &s, 16).expect("repairable");
        assert_eq!(hull.len(), 4);
        assert!(g.is_convex(&hull));
        // With a load on the path, repair is impossible.
        let mut g2 = Dfg::new();
        let a = g2.input(0);
        let p = g2.bin_imm(OpKind::Add, a, 1);
        let ld = g2.un(OpKind::Load, p);
        let q = g2.bin_imm(OpKind::Mul, ld, 3);
        let r = g2.bin(OpKind::Add, q, p);
        g2.output(0, r);
        let mut bad = g2.empty_set();
        bad.insert(p);
        bad.insert(r);
        assert!(convex_hull(&g2, &bad, 16).is_none());
    }
}
