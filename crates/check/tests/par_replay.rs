//! The decomposed parallel branch-and-bound searches must still *prove*
//! optimality: their stitched certificates replay clean through the same
//! unmodified checkers as the serial logs, and are byte-identical at any
//! thread count. Instances are generated with the deterministic
//! [`rtise_obs::Rng`], so failures reproduce exactly.

use rtise_check::bnb::{check_ilp_certificate, check_ise_certificate, check_rms_certificate};
use rtise_ilp::{Model, Sense};
use rtise_ir::cfg::BlockId;
use rtise_ir::nodeset::NodeSet;
use rtise_ise::configs::ConfigCurve;
use rtise_ise::{branch_and_bound_with, CiCandidate};
use rtise_obs::Rng;
use rtise_select::rms::select_rms_with;
use rtise_select::TaskSpec;
use rtise_trace::bnb::SearchOpts;

/// A certified search on `threads` workers with the frontier at `depth`.
fn at(threads: usize, depth: usize) -> SearchOpts {
    SearchOpts {
        threads: Some(threads),
        frontier_depth: Some(depth),
        ..SearchOpts::CERTIFIED
    }
}

/// Random models deep enough that the ILP frontier decomposition
/// engages, mixing senses and row kinds; some are infeasible.
fn deep_model(rng: &mut Rng) -> Model {
    let n = rng.gen_range(7..=11usize);
    let mut m = Model::new(n);
    let sense = if rng.gen_bool(0.5) {
        Sense::Minimize
    } else {
        Sense::Maximize
    };
    let obj: Vec<i64> = (0..n).map(|_| rng.gen_range(-20..=20i64)).collect();
    m.set_objective(sense, &obj);
    for _ in 0..rng.gen_range(1..4u32) {
        let mut terms: Vec<(usize, i64)> = Vec::new();
        for v in 0..n {
            if rng.gen_bool(0.7) {
                terms.push((v, rng.gen_range(-10..=10i64)));
            }
        }
        let rhs = rng.gen_range(-10..=15i64);
        match rng.gen_range(0..3u32) {
            0 => m.add_le(&terms, rhs),
            1 => m.add_ge(&terms, rhs),
            _ => m.add_eq(&terms, rhs),
        }
    }
    m
}

/// The frontier depths the adaptive sizing actually picks for small
/// pools, deduplicated (byte-identity across thread counts holds per
/// *depth*, so each comparison pins one).
fn sized_depths(max_depth: usize) -> Vec<usize> {
    let mut depths: Vec<usize> = [1, 2, 4]
        .iter()
        .map(|&t| rtise_obs::par::frontier_depth(max_depth, t))
        .collect();
    depths.dedup();
    depths
}

#[test]
fn parallel_ilp_certificates_replay_clean_at_any_thread_count() {
    let mut rng = Rng::new(0x9a7_c3e7);
    for case in 0..40 {
        let m = deep_model(&mut rng);
        for depth in sized_depths(rtise_ilp::PAR_FRONTIER_DEPTH) {
            let base = m.solve_with(at(1, depth));
            let (res1, cert1) = base.clone().certified();
            assert_eq!(cert1.dropped, 0, "case {case}: log must be complete");
            let d = check_ilp_certificate(&m, res1.as_ref().ok(), &cert1);
            assert!(d.is_clean(), "case {case} depth {depth}: {d}");
            for threads in [2, 4] {
                let got = m.solve_with(at(threads, depth));
                assert_eq!(base, got, "case {case} depth {depth} threads {threads}");
            }
        }
    }
}

/// A synthetic candidate covering `nodes` of `block` in a 64-node DFG.
fn cand(block: usize, nodes: &[usize], area: u64, gain: u64) -> CiCandidate {
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
        exec_count: 1,
    }
}

/// Random libraries deep enough that the ISE frontier decomposition
/// engages, with zero-area candidates and ratio ties in the mix.
fn deep_library(rng: &mut Rng) -> (Vec<CiCandidate>, u64) {
    let n = rng.gen_range(7..=12usize);
    let cands: Vec<CiCandidate> = (0..n)
        .map(|i| {
            let lo = rng.gen_range(0..12usize);
            let hi = lo + rng.gen_range(1..=4usize);
            let nodes: Vec<usize> = (lo..hi).collect();
            cand(
                i % 3,
                &nodes,
                rng.gen_range(0..9u64),
                rng.gen_range(0..20u64),
            )
        })
        .collect();
    (cands, rng.gen_range(0..30u64))
}

#[test]
fn parallel_ise_certificates_replay_clean_at_any_thread_count() {
    let mut rng = Rng::new(0x15e_c3e7);
    for case in 0..40 {
        let (cands, budget) = deep_library(&mut rng);
        for depth in sized_depths(rtise_ise::select::PAR_FRONTIER_DEPTH) {
            let base = branch_and_bound_with(&cands, budget, at(1, depth));
            let (sel1, cert1) = base.clone().certified();
            assert_eq!(cert1.dropped, 0, "case {case}: log must be complete");
            let d = check_ise_certificate(&cands, budget, &sel1, &cert1);
            assert!(d.is_clean(), "case {case} depth {depth}: {d}");
            for threads in [2, 4] {
                let got = branch_and_bound_with(&cands, budget, at(threads, depth));
                assert_eq!(base, got, "case {case} depth {depth} threads {threads}");
            }
        }
    }
}

/// Random RMS task sets deep enough (more tasks than the RMS frontier
/// depth) that the parallel decomposition engages; some are
/// unschedulable within the budget.
fn deep_task_set(rng: &mut Rng) -> (Vec<TaskSpec>, u64) {
    let n = rng.gen_range(5..=8usize);
    let specs: Vec<TaskSpec> = (0..n)
        .map(|i| {
            let base = rng.gen_range(2..8u64);
            let pts: Vec<(u64, u64)> = (0..rng.gen_range(0..4usize))
                .map(|k| {
                    (
                        rng.gen_range(1..10u64) * (k as u64 + 1),
                        rng.gen_range(1..=base),
                    )
                })
                .collect();
            let curve = ConfigCurve::from_points(format!("t{i}"), base, &pts);
            TaskSpec::new(curve, rng.gen_range(16..60u64))
        })
        .collect();
    (specs, rng.gen_range(0..30u64))
}

#[test]
fn parallel_rms_certificates_replay_clean_at_any_thread_count() {
    let mut rng = Rng::new(0x435_c3e7);
    for case in 0..40 {
        let (specs, budget) = deep_task_set(&mut rng);
        for depth in sized_depths(rtise_select::rms::PAR_FRONTIER_DEPTH) {
            let base = select_rms_with(&specs, budget, at(1, depth));
            let (res1, cert1) = base.clone().certified();
            assert_eq!(cert1.dropped, 0, "case {case}: log must be complete");
            let d = check_rms_certificate(&specs, budget, res1.as_ref().ok(), &cert1);
            assert!(d.is_clean(), "case {case} depth {depth}: {d}");
            for threads in [2, 4] {
                let got = select_rms_with(&specs, budget, at(threads, depth));
                assert_eq!(base, got, "case {case} depth {depth} threads {threads}");
            }
        }
    }
}

/// The parallel log proves infeasibility too: a complete stitched log on
/// an infeasible model replays with no incumbent and no unjustified
/// prune.
#[test]
fn parallel_ilp_infeasibility_proofs_replay_clean() {
    let mut m = Model::new(8);
    m.set_objective(Sense::Minimize, &(0..8).map(|i| i - 4).collect::<Vec<_>>());
    let terms: Vec<(usize, i64)> = (0..8).map(|v| (v as usize, 1)).collect();
    m.add_ge(&terms, 9); // at most 8 ones available
    let opts = SearchOpts {
        threads: Some(4),
        ..SearchOpts::CERTIFIED
    };
    let (res, cert) = m.solve_with(opts).certified();
    assert!(res.is_err());
    let d = check_ilp_certificate(&m, None, &cert);
    assert!(d.is_clean(), "{d}");
}
