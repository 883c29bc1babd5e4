//! Property tests over seeded instances: every EDF selection must stay
//! within its area budget and pass independent certification by
//! `rtise-check`, and a large RMS selection must finish and replay clean
//! through its optimality certificate.

use rtise_check::bnb::check_rms_certificate;
use rtise_check::cert::check_edf_selection;
use rtise_check::diag::Severity;
use rtise_fuzz::gen::{self, TaskSetOptions};
use rtise_ise::configs::ConfigCurve;
use rtise_obs::Rng;
use rtise_select::rms::select_rms_with;
use rtise_select::task::periods_for_utilization;
use rtise_select::{select_edf, TaskSpec};
use rtise_trace::bnb::SearchOpts;

#[test]
fn seeded_edf_selections_fit_the_budget_and_certify_clean() {
    let opts = TaskSetOptions::default();
    for seed in 0..100u64 {
        let mut rng = Rng::new(0x5E1E_C7D0 ^ seed);
        let specs = gen::task_set(&mut rng, &opts);
        let budget = gen::area_budget(&mut rng, &specs);
        let sel = select_edf(&specs, budget).expect("generated task sets are non-empty");
        assert!(
            sel.assignment.total_area(&specs) <= budget,
            "seed {seed}: selection area {} exceeds budget {budget}",
            sel.assignment.total_area(&specs)
        );
        // The DP minimizes utilization, so whenever the all-software
        // configuration already fits the budget the result must be
        // schedulable or no configuration is (U > 1 everywhere); either
        // way the certificate checker must accept the claim verbatim.
        let d = check_edf_selection(&specs, &sel, budget);
        let errors: Vec<_> = d.iter().filter(|x| x.severity == Severity::Error).collect();
        assert!(errors.is_empty(), "seed {seed}: {errors:?}");
    }
}

/// 48 tasks shaped like a `select_rms` service request: 12 seeded kernel
/// curves repeated four times, with periods sized for 60 % software
/// utilization. The budget is 20 cells short of every task's largest
/// configuration, so area prunes fire while the tree stays small. The
/// Theorem 1 point set of the last task expands to 2^47 recursion leaves,
/// so this finishes only because the points are built level by level.
#[test]
fn large_rms_selection_finishes_and_certifies_clean() {
    let mut rng = Rng::new(0x48_7A5C);
    let curves: Vec<ConfigCurve> = (0..12)
        .map(|k| {
            let base = rng.gen_range(100..=2000u64);
            let mut area = 0u64;
            let pts: Vec<(u64, u64)> = (0..rng.gen_range(1..=3usize))
                .map(|_| {
                    area += rng.gen_range(1..=40u64);
                    (area, rng.gen_range(base / 4..base))
                })
                .collect();
            ConfigCurve::from_points(format!("k{k}"), base, &pts)
        })
        .collect();
    let curves: Vec<ConfigCurve> = (0..48).map(|i| curves[i % 12].clone()).collect();
    let bases: Vec<u64> = curves.iter().map(|c| c.base_cycles).collect();
    let specs: Vec<TaskSpec> = curves
        .into_iter()
        .zip(periods_for_utilization(&bases, 0.6))
        .map(|(c, p)| TaskSpec::new(c, p))
        .collect();
    let budget = specs.iter().map(|s| s.curve.max_area()).sum::<u64>() - 20;
    let out = select_rms_with(&specs, budget, SearchOpts::CERTIFIED);
    assert!(out.stats.pruned_area > 0, "{:?}", out.stats);
    let (res, cert) = out.certified();
    let sel = res.expect("60% software utilization is RMS-schedulable");
    assert_eq!(cert.dropped, 0, "certificate truncated");
    let d = check_rms_certificate(&specs, budget, Some(&sel), &cert);
    assert!(d.is_clean(), "{d}");
}
