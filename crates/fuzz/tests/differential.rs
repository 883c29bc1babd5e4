//! Seeded differential property tests for the solver fast paths.
//!
//! Each optimized kernel that keeps its original implementation as a
//! `*_reference` export (sparse EDF DP, memoized RMS search, sparse ILP
//! search, bitset enumeration and MISO growth) is paired with it here:
//! ≥100 generated instances per pair go through both, and the results must
//! be identical — for the search-based kernels identical *statistics* too,
//! pinning the whole search tree, not just the optimum. ISE selection has
//! one implementation; the fuzz oracle's exhaustive (`DIFF004`) and
//! certificate-replay (`DIFF008`) checks cover it. The instances come from
//! `rtise_fuzz::gen`, the same seeded factories the fuzz campaigns use, so
//! any failure here is reproducible by seed.

use rtise_fuzz::gen;
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
        let fast = rtise_ise::enumerate::enumerate_connected_with_stats(&dfg, opts);
        let slow = rtise_ise::enumerate::enumerate_connected_reference(&dfg, opts);
        assert_eq!(
            fast, slow,
            "seed {seed}: bitset enumeration diverges from the generic path"
        );
        let miso_fast = rtise_ise::maximal_miso(&dfg);
        let miso_slow = rtise_ise::enumerate::maximal_miso_reference(&dfg);
        assert_eq!(
            miso_fast, miso_slow,
            "seed {seed}: bitset MISO growth diverges from the generic path"
        );
    }
}
