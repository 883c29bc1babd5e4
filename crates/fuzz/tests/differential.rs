//! Seeded differential property tests for the solver fast paths.
//!
//! Each optimized kernel that keeps its original implementation as a
//! `*_reference` export (sparse EDF DP, memoized RMS search, sparse ILP
//! search, bitset enumeration) is paired with it here: ≥100 generated
//! instances per pair go through both, and the results must be
//! identical — for the search-based kernels identical *statistics* too,
//! pinning the whole search tree, not just the optimum. ISE selection has
//! one implementation; the fuzz oracle's exhaustive (`DIFF004`) and
//! certificate-replay (`DIFF008`) checks cover it. The instances come from
//! `rtise_fuzz::gen`, the same seeded factories the fuzz campaigns use, so
//! any failure here is reproducible by seed.

use rtise_fuzz::gen;
use rtise_ir::dfg::{Dfg, NodeId};
use rtise_ir::op::OpKind;
use rtise_ise::enumerate::{
    enumerate_connected_reference, enumerate_connected_with_stats, EnumerateOptions,
};
use rtise_obs::Rng;
use rtise_trace::bnb::SearchOpts;

const CASES: u64 = 120;

#[test]
fn sparse_edf_dp_matches_the_dense_reference() {
    for seed in 0..CASES {
        let mut rng = Rng::new(0xED_F0 + seed);
        let specs = gen::task_set(&mut rng, &gen::TaskSetOptions::default());
        let budget = gen::area_budget(&mut rng, &specs);
        let sparse = rtise_select::edf::select_edf_with_stats(&specs, budget).map(|(s, _)| s);
        let dense = rtise_select::edf::select_edf_dense_with_stats(&specs, budget).map(|(s, _)| s);
        // Selections are bit-identical (tie-breaks included); the stats
        // legitimately differ because the paths materialize different
        // amounts of DP state.
        assert_eq!(
            format!("{sparse:?}"),
            format!("{dense:?}"),
            "seed {seed}: sparse EDF DP diverges from the dense reference"
        );
    }
}

#[test]
fn memoized_rms_search_matches_the_reference() {
    let opts = gen::TaskSetOptions {
        max_tasks: 4,
        ..Default::default()
    };
    for seed in 0..CASES {
        let mut rng = Rng::new(0x4153 + seed);
        let specs = gen::task_set(&mut rng, &opts);
        let budget = gen::area_budget(&mut rng, &specs);
        let memo = rtise_select::rms::select_rms_with(&specs, budget, SearchOpts::default());
        let memo = memo.result.map(|sel| (sel, memo.stats));
        let reference = rtise_select::rms::select_rms_reference_with_stats(&specs, budget);
        // Results *and* node/prune statistics: the same search tree.
        assert_eq!(
            format!("{memo:?}"),
            format!("{reference:?}"),
            "seed {seed}: memoized RMS B&B diverges from the reference search"
        );
    }
}

#[test]
fn sparse_ilp_search_matches_the_dense_reference() {
    for seed in 0..CASES {
        let mut rng = Rng::new(0x11F + seed);
        let model = gen::ilp_model(&mut rng, &gen::IlpOptions::default());
        let sparse = model.solve_with(SearchOpts::default());
        let sparse = sparse.result.map(|sol| (sol, sparse.stats));
        let dense = model.solve_reference_with_stats();
        assert_eq!(
            format!("{sparse:?}"),
            format!("{dense:?}"),
            "seed {seed}: sparse ILP search diverges from the dense reference"
        );
    }
}

#[test]
fn bitset_enumeration_matches_the_generic_reference() {
    for seed in 0..CASES {
        let mut rng = Rng::new(0xE_4_0 + seed);
        let dfg = gen::dfg(&mut rng, &gen::DfgOptions::default());
        let opts = gen::harvest_options(&mut rng).enumerate;
        let fast = enumerate_connected_with_stats(&dfg, opts);
        let slow = enumerate_connected_reference(&dfg, opts);
        assert_eq!(
            fast, slow,
            "seed {seed}: bitset enumeration diverges from the generic path"
        );
    }
}

/// A seeded layered DFG of exactly `nodes` nodes: a [`gen::large_dfg`]
/// body, padded with a chain of adds that each also read a recent
/// operation, so the highest ids — the bits at the edge of the last shape
/// word — are growable operations wired into the body.
fn dfg_of_exactly(rng: &mut Rng, nodes: usize) -> Dfg {
    // large_dfg adds at most 8 inputs, 15 interned constants and 3
    // outputs to its operations.
    let mut g = gen::large_dfg(rng, nodes - 30);
    assert!(g.len() <= nodes, "{} nodes before padding", g.len());
    let ops: Vec<NodeId> = g.ids().filter(|&id| !g.kind(id).is_pseudo()).collect();
    let mut prev = *ops.last().expect("large_dfg builds operations");
    while g.len() < nodes {
        let other = ops[rng.gen_range(ops.len().saturating_sub(32)..ops.len())];
        prev = g.bin(OpKind::Add, prev, other);
    }
    g
}

/// The bitset path at both widths (2 and 16 words) and the generic
/// fall-back past 1024 nodes match the generic walk, results and stats:
/// on every block of every suite kernel at the fast curve options, and on
/// seeded DFGs on both sides of each width boundary. The generic walk
/// is slow in a debug build, so the cases run on two threads.
#[test]
fn every_enumeration_width_matches_the_generic_reference() {
    let fast = rtise::workbench::CurveOptions::fast().harvest.enumerate;
    let mut cases: Vec<(String, Dfg, EnumerateOptions)> = Vec::new();
    for kernel in rtise_kernels::suite() {
        for (b, block) in kernel.program.blocks.into_iter().enumerate() {
            cases.push((format!("{} block {b}", kernel.name), block.dfg, fast));
        }
    }
    let small = EnumerateOptions {
        max_in: 4,
        max_out: 2,
        max_candidates: 64,
        max_nodes: 6,
    };
    for boundary in [128usize, 1024] {
        for nodes in [boundary, boundary + 1] {
            let dfg = dfg_of_exactly(&mut Rng::new(0xB17_5E7 + nodes as u64), nodes);
            assert_eq!(dfg.len(), nodes);
            cases.push((format!("seeded {nodes}-node DFG"), dfg, small));
        }
    }
    std::thread::scope(|scope| {
        for lane in 0..2 {
            let cases = &cases;
            scope.spawn(move || {
                for (label, dfg, opts) in cases.iter().skip(lane).step_by(2) {
                    assert_eq!(
                        enumerate_connected_with_stats(dfg, *opts),
                        enumerate_connected_reference(dfg, *opts),
                        "{label} ({} nodes): bitset enumeration diverges from the generic path",
                        dfg.len()
                    );
                }
            });
        }
    });
}
