//! Layer 1: seeded random instance factories.
//!
//! Every generator takes a [`Rng`] and is fully deterministic for a fixed
//! seed: the same seed always yields the same task set, DFG, candidate
//! pool, ILP model, item list or graph, on every platform. Generators are
//! exported as a library API so property tests in other crates can reuse
//! the exact distributions the fuzz harness explores.

use rtise_graphpart::Graph;
use rtise_ilp::{Model, Sense};
use rtise_ir::{BasicBlock, BlockId, Dfg, NodeId, OpKind, Operand, Program, Terminator};
use rtise_ise::{ConfigCurve, EnumerateOptions, HarvestOptions};
use rtise_obs::Rng;
use rtise_select::pareto::Item;
use rtise_select::TaskSpec;

/// Tuning knobs for [`task_set`].
#[derive(Debug, Clone)]
pub struct TaskSetOptions {
    /// Maximum number of tasks (at least 1 is always generated).
    pub max_tasks: usize,
    /// Maximum hardware configuration points per task curve (the software
    /// point is always present).
    pub max_points: usize,
    /// Period pool. The default is a small near-harmonic set whose
    /// hyperperiod stays tiny, keeping the integer demand test and the
    /// ILP differential exact; widen it to explore overflow fallbacks.
    pub periods: Vec<u64>,
}

impl Default for TaskSetOptions {
    fn default() -> Self {
        TaskSetOptions {
            max_tasks: 5,
            max_points: 3,
            periods: vec![4, 5, 6, 8, 10, 12, 15, 20],
        }
    }
}

/// Generates a random task set with controllable utilization and period
/// spreads: base cycles are drawn up to twice the period, so per-task base
/// utilization ranges over (0, 2] and sets straddle the schedulability
/// boundary — the region where selection bugs live.
pub fn task_set(rng: &mut Rng, opts: &TaskSetOptions) -> Vec<TaskSpec> {
    let n = rng.gen_range(1..=opts.max_tasks.max(1));
    (0..n)
        .map(|i| {
            let period = opts.periods[rng.gen_range(0..opts.periods.len())];
            let base = rng.gen_range(1..=2 * period);
            let n_cfg = rng.gen_range(0..=opts.max_points);
            let mut area = 0u64;
            let pts: Vec<(u64, u64)> = (0..n_cfg)
                .map(|_| {
                    area += rng.gen_range(1..=12u64);
                    // Arbitrary cycle counts: `from_points` canonicalizes
                    // by dropping dominated configurations, so this also
                    // exercises the curve constructor.
                    (area, rng.gen_range(0..=base))
                })
                .collect();
            TaskSpec::new(
                ConfigCurve::from_points(format!("t{i}"), base, &pts),
                period,
            )
        })
        .collect()
}

/// Draws an area budget spanning zero (all-software) to slightly above the
/// total area of every task's largest configuration (unconstrained).
pub fn area_budget(rng: &mut Rng, specs: &[TaskSpec]) -> u64 {
    let total: u64 = specs.iter().map(|s| s.curve.max_area()).sum();
    rng.gen_range(0..=total + 5)
}

/// Tuning knobs for [`dfg`].
#[derive(Debug, Clone, Copy)]
pub struct DfgOptions {
    /// Maximum number of input slots.
    pub max_inputs: usize,
    /// Maximum number of operation nodes appended after the inputs.
    pub max_ops: usize,
    /// Probability that an operation is a `Load` (CI-illegal, exercising
    /// the enumerator's legality filter).
    pub load_prob: f64,
}

impl Default for DfgOptions {
    fn default() -> Self {
        DfgOptions {
            max_inputs: 4,
            max_ops: 18,
            load_prob: 0.12,
        }
    }
}

/// Binary operations drawn by [`dfg`] (all CI-valid).
const BIN_OPS: &[OpKind] = &[
    OpKind::Add,
    OpKind::Sub,
    OpKind::Mul,
    OpKind::And,
    OpKind::Or,
    OpKind::Xor,
    OpKind::Shl,
    OpKind::Shr,
    OpKind::Min,
    OpKind::Max,
];

/// Generates a random straight-line DFG: a DAG with legal op arities,
/// def-before-use by construction (operands are drawn from already-built
/// nodes), a sprinkle of immediates, unary ops, ternary selects and
/// CI-illegal `Load`s, and 1–2 distinct output slots.
pub fn dfg(rng: &mut Rng, opts: &DfgOptions) -> Dfg {
    let mut g = Dfg::new();
    let n_in = rng.gen_range(1..=opts.max_inputs.max(1));
    let mut pool: Vec<NodeId> = (0..n_in).map(|s| g.input(s)).collect();
    let n_ops = rng.gen_range(1..=opts.max_ops.max(1));
    for _ in 0..n_ops {
        let pick = |rng: &mut Rng, pool: &[NodeId]| pool[rng.gen_range(0..pool.len())];
        let a = pick(rng, &pool);
        let id = if rng.gen_bool(opts.load_prob) {
            g.un(OpKind::Load, a)
        } else if rng.gen_bool(0.15) {
            g.un(
                if rng.gen_bool(0.5) {
                    OpKind::Not
                } else {
                    OpKind::Abs
                },
                a,
            )
        } else if rng.gen_bool(0.08) {
            let b = pick(rng, &pool);
            let c = pick(rng, &pool);
            g.node(
                OpKind::Select,
                &[Operand::Node(a), Operand::Node(b), Operand::Node(c)],
            )
        } else {
            let kind = BIN_OPS[rng.gen_range(0..BIN_OPS.len())];
            if rng.gen_bool(0.2) {
                g.bin_imm(kind, a, rng.gen_range(-7..=7i64))
            } else {
                let b = pick(rng, &pool);
                g.bin(kind, a, b)
            }
        };
        pool.push(id);
    }
    let n_out = rng.gen_range(1..=2usize);
    for slot in 0..n_out {
        let v = pool[rng.gen_range(0..pool.len())];
        g.output(slot, v);
    }
    g
}

/// Generates a large layered DAG with roughly `ops` operation nodes; the
/// enumeration-width differential test pads it to exact sizes on both
/// sides of the bitset enumerator's 128- and 1024-node widths. Nodes are
/// appended in layers of 4–12; operands are drawn mostly
/// from the previous few layers (deep critical paths, high locality)
/// with occasional long-range edges, plus the same sprinkle of
/// immediates and CI-illegal `Load`s as [`dfg`]. Always well-formed.
pub fn large_dfg(rng: &mut Rng, ops: usize) -> Dfg {
    let mut g = Dfg::new();
    let n_in = rng.gen_range(4..=8usize);
    let mut pool: Vec<NodeId> = (0..n_in).map(|s| g.input(s)).collect();
    let mut built = 0usize;
    while built < ops.max(1) {
        let layer = rng.gen_range(4..=12usize).min(ops.max(1) - built);
        // Operands come from a trailing window (the last ~3 layers) most
        // of the time, anywhere otherwise.
        let window = pool.len().saturating_sub(36);
        let start = pool.len();
        for _ in 0..layer {
            let pick = |rng: &mut Rng, pool: &[NodeId]| {
                if rng.gen_bool(0.85) {
                    pool[rng.gen_range(window..start)]
                } else {
                    pool[rng.gen_range(0..start)]
                }
            };
            let a = pick(rng, &pool);
            let id = if rng.gen_bool(0.04) {
                g.un(OpKind::Load, a)
            } else if rng.gen_bool(0.1) {
                g.un(
                    if rng.gen_bool(0.5) {
                        OpKind::Not
                    } else {
                        OpKind::Abs
                    },
                    a,
                )
            } else {
                let kind = BIN_OPS[rng.gen_range(0..BIN_OPS.len())];
                if rng.gen_bool(0.15) {
                    g.bin_imm(kind, a, rng.gen_range(-7..=7i64))
                } else {
                    g.bin(kind, a, pick(rng, &pool))
                }
            };
            pool.push(id);
        }
        built += layer;
    }
    for slot in 0..rng.gen_range(1..=3usize) {
        let v = pool[rng.gen_range(pool.len().saturating_sub(16)..pool.len())];
        g.output(slot, v);
    }
    g
}

/// Generates a well-formed multi-block [`Program`] (blocks chained by
/// `Jump`, last block `Return`, every block reachable) plus a random
/// per-block execution-count profile.
pub fn program(rng: &mut Rng, opts: &DfgOptions, max_blocks: usize) -> (Program, Vec<u64>) {
    let n_blocks = rng.gen_range(1..=max_blocks.max(1));
    let mut blocks = Vec::with_capacity(n_blocks);
    let mut n_vars = 0usize;
    for b in 0..n_blocks {
        let g = dfg(rng, opts);
        n_vars = n_vars.max(opts.max_inputs.max(2));
        let terminator = if b + 1 < n_blocks {
            Terminator::Jump(BlockId(b + 1))
        } else {
            Terminator::Return
        };
        blocks.push(BasicBlock {
            name: format!("b{b}"),
            dfg: g,
            terminator,
        });
    }
    let mut p = Program::new("fuzz", n_vars, 64);
    for b in blocks {
        p.add_block(b);
    }
    let exec: Vec<u64> = (0..n_blocks).map(|_| rng.gen_range(1..=1000u64)).collect();
    (p, exec)
}

/// Draws a harvest configuration with randomized port envelopes and
/// pruning caps — the area/latency/port envelope of a candidate pool.
pub fn harvest_options(rng: &mut Rng) -> HarvestOptions {
    HarvestOptions {
        enumerate: EnumerateOptions {
            max_in: rng.gen_range(2..=5usize),
            max_out: rng.gen_range(1..=2usize),
            max_candidates: 300,
            max_nodes: 10,
        },
        top_per_block: rng.gen_range(4..=10usize),
        min_exec_count: 1,
    }
}

/// Tuning knobs for [`ilp_model`].
#[derive(Debug, Clone, Copy)]
pub struct IlpOptions {
    /// Minimum number of binary variables.
    pub min_vars: usize,
    /// Maximum number of binary variables.
    pub max_vars: usize,
    /// Maximum number of constraint rows (0 rows — pure objective — is a
    /// legal draw).
    pub max_rows: usize,
    /// Restrict draws to knapsack-shaped `≤` rows with non-negative
    /// weights. Large instances use this: signed `≥`/`=` rows (parity-like
    /// constraints) defeat the objective-suffix relaxation bound and blow
    /// the search up exponentially, while knapsack rows stay tractable.
    pub le_rows_only: bool,
}

impl Default for IlpOptions {
    fn default() -> Self {
        IlpOptions {
            min_vars: 1,
            max_vars: 10,
            max_rows: 6,
            le_rows_only: false,
        }
    }
}

impl IlpOptions {
    /// Instances past the fuzz oracle's exhaustive-search cap (12
    /// variables): optimality on these is certified exclusively by
    /// branch-and-bound certificate replay.
    pub fn large() -> Self {
        IlpOptions {
            min_vars: 20,
            max_vars: 40,
            max_rows: 6,
            le_rows_only: true,
        }
    }
}

/// Generates a knapsack-shaped 0-1 ILP: a random min/max objective,
/// mostly `≤` rows with non-negative weights and a right-hand side around
/// half the row weight (the binding region), plus occasional `≥`/`=` rows
/// with signed coefficients. Infeasible draws are legal — the oracle
/// cross-checks infeasibility claims against exhaustive search.
pub fn ilp_model(rng: &mut Rng, opts: &IlpOptions) -> Model {
    let lo = opts.min_vars.max(1);
    let n = rng.gen_range(lo..=opts.max_vars.max(lo));
    let mut m = Model::new(n);
    let obj: Vec<i64> = (0..n).map(|_| rng.gen_range(-9..=9i64)).collect();
    let sense = if rng.gen_bool(0.5) {
        Sense::Maximize
    } else {
        Sense::Minimize
    };
    m.set_objective(sense, &obj);
    let n_rows = rng.gen_range(0..=opts.max_rows);
    for _ in 0..n_rows {
        if opts.le_rows_only || rng.gen_bool(0.75) {
            let terms: Vec<(usize, i64)> = (0..n)
                .filter_map(|v| {
                    if rng.gen_bool(0.6) {
                        Some((v, rng.gen_range(0..=9i64)))
                    } else {
                        None
                    }
                })
                .collect();
            let weight: i64 = terms.iter().map(|&(_, c)| c).sum();
            m.add_le(&terms, rng.gen_range(0..=weight.max(1)));
        } else {
            let terms: Vec<(usize, i64)> = (0..n)
                .filter_map(|v| {
                    if rng.gen_bool(0.5) {
                        Some((v, rng.gen_range(-4..=4i64)))
                    } else {
                        None
                    }
                })
                .collect();
            let rhs = rng.gen_range(-4..=8i64);
            if rng.gen_bool(0.5) {
                m.add_ge(&terms, rhs);
            } else {
                m.add_eq(&terms, rhs);
            }
        }
    }
    m
}

/// Generates a Pareto instance: a base value and up to `max_items`
/// improvement items with random value deltas and areas (including
/// zero-delta and zero-area corner cases).
pub fn pareto_items(rng: &mut Rng, max_items: usize) -> (u64, Vec<Item>) {
    let base = rng.gen_range(20..=200u64);
    let n = rng.gen_range(0..=max_items);
    let items = (0..n)
        .map(|_| Item {
            delta: rng.gen_range(0..=30u64),
            area: rng.gen_range(0..=20u64),
        })
        .collect();
    (base, items)
}

/// Generates a random weighted graph (possibly disconnected, parallel
/// edge draws merged by [`Graph::add_edge`]) and a part count
/// `1 ≤ k ≤ min(4, |V|)`.
pub fn graph(rng: &mut Rng, max_vertices: usize) -> (Graph, usize) {
    let n = rng.gen_range(1..=max_vertices.max(1));
    let weights: Vec<u64> = (0..n).map(|_| rng.gen_range(1..=6u64)).collect();
    let mut g = Graph::new(weights);
    if n > 1 {
        let m = rng.gen_range(0..=2 * n);
        for _ in 0..m {
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            if u != v {
                g.add_edge(u, v, rng.gen_range(1..=9u64));
            }
        }
    }
    let k = rng.gen_range(1..=n.min(4));
    (g, k)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic_per_seed() {
        for seed in [0u64, 7, 0xDEAD_BEEF] {
            let mut a = Rng::new(seed);
            let mut b = Rng::new(seed);
            let ta = task_set(&mut a, &TaskSetOptions::default());
            let tb = task_set(&mut b, &TaskSetOptions::default());
            assert_eq!(ta.len(), tb.len());
            for (x, y) in ta.iter().zip(&tb) {
                assert_eq!(x.period, y.period);
                assert_eq!(x.curve.points(), y.curve.points());
            }
            let ma = ilp_model(&mut a, &IlpOptions::default());
            let mb = ilp_model(&mut b, &IlpOptions::default());
            assert_eq!(ma.num_vars(), mb.num_vars());
            assert_eq!(ma.num_rows(), mb.num_rows());
        }
    }

    #[test]
    fn generated_dfgs_are_well_formed() {
        let mut rng = Rng::new(99);
        for _ in 0..50 {
            let g = dfg(&mut rng, &DfgOptions::default());
            let d = rtise_check::ir::check_dfg(&g);
            assert!(d.is_clean(), "{}", d.render());
        }
    }

    #[test]
    fn generated_programs_are_well_formed() {
        let mut rng = Rng::new(123);
        for _ in 0..25 {
            let (p, exec) = program(&mut rng, &DfgOptions::default(), 2);
            assert_eq!(exec.len(), p.blocks.len());
            let d = rtise_check::ir::check_program(&p);
            assert!(d.is_clean(), "{}", d.render());
        }
    }

    #[test]
    fn large_dfgs_are_well_formed_and_past_the_wall() {
        let mut rng = Rng::new(0x1a26e);
        for ops in [500usize, 1000, 2000] {
            let g = large_dfg(&mut rng, ops);
            assert!(g.len() > ops, "{} nodes for {ops} ops", g.len());
            let d = rtise_check::ir::check_dfg(&g);
            assert!(d.is_clean(), "{}", d.render());
        }
        // Determinism: same seed, same graph.
        let a = large_dfg(&mut Rng::new(9), 600);
        let b = large_dfg(&mut Rng::new(9), 600);
        assert_eq!(a.len(), b.len());
        assert_eq!(
            rtise_check::ir::check_dfg(&a).render(),
            rtise_check::ir::check_dfg(&b).render()
        );
    }

    #[test]
    fn task_sets_have_positive_periods_and_canonical_curves() {
        let mut rng = Rng::new(5);
        for _ in 0..50 {
            for s in task_set(&mut rng, &TaskSetOptions::default()) {
                assert!(s.period > 0);
                let d = rtise_check::cert::check_curve(&s.curve);
                assert!(d.is_clean(), "{}", d.render());
            }
        }
    }
}
