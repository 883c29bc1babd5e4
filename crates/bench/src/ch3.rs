//! Chapter 3 experiments — the DATE 2007 paper's evaluation.

use crate::util::{cached_curve, specs_for};
use crate::{out, outp};
use rtise::fixtures::{TABLE_3_1, UTILIZATION_FACTORS_CH3};
use rtise::ir::hw::HwModel;
use rtise::ise::configs::ConfigCurve;
use rtise::rt::dvfs::{Policy, VoltageScaler};
use rtise::select::heuristics;
use rtise::select::rms::select_rms;
use rtise::select::select_edf;
use rtise::select::task::TaskSpec;
use rtise::select::Assignment;

/// Fig. 3.1 — application performance versus hardware area for the g721
/// decoding task's processor configurations.
pub fn fig3_1() {
    let curve = cached_curve("g721_decode");
    out!("{:>18} {:>16}", "area (adders)", "processor cycles");
    for p in curve.points() {
        out!(
            "{:>18} {:>16}",
            p.area.div_ceil(HwModel::CELLS_PER_ADDER),
            p.cycles
        );
    }
    out!(
        "-- {} configurations; max speedup {:.2}%",
        curve.len(),
        (curve.base_cycles - curve.best_within(u64::MAX).cycles) as f64 * 100.0
            / curve.base_cycles as f64
    );
}

/// The three-task motivating instance of Fig. 3.2 (shared with the
/// certification pass).
pub(crate) fn fig3_2_specs() -> Vec<TaskSpec> {
    vec![
        TaskSpec::new(ConfigCurve::from_points("T1", 2, &[(7, 1)]), 6),
        TaskSpec::new(ConfigCurve::from_points("T2", 3, &[(6, 2)]), 8),
        TaskSpec::new(ConfigCurve::from_points("T3", 6, &[(4, 5)]), 12),
    ]
}

/// Fig. 3.2 — the motivating example: four per-task heuristics versus the
/// optimal inter-task selection at area budget 10.
pub fn fig3_2() {
    let specs = fig3_2_specs();
    let show = |label: &str, a: &Assignment| {
        out!(
            "  ({label}) configs {:?}  U' = {:>6.4}  area {:>2}  {}",
            a.config,
            a.utilization(&specs),
            a.total_area(&specs),
            if a.utilization(&specs) <= 1.0 {
                "schedulable"
            } else {
                "NOT schedulable"
            }
        );
    };
    out!(
        "initial U = {:.4} (> 1, unschedulable); area budget 10",
        Assignment::software(3).utilization(&specs)
    );
    show("a", &heuristics::equal_area_split(&specs, 10));
    show("b", &heuristics::smallest_deadline_first(&specs, 10));
    show("c", &heuristics::highest_reduction_first(&specs, 10));
    show("d", &heuristics::highest_ratio_first(&specs, 10));
    let opt = select_edf(&specs, 10).expect("optimal");
    show("e*", &opt.assignment);
    // RMS branch-and-bound on the same instance (the paper's Algorithm 2
    // regime: a response-time test per node instead of the utilization
    // bound).
    match select_rms(&specs, 10) {
        Ok(rms) => show("rms", &rms.assignment),
        Err(e) => out!("  (rms) no solution: {e}"),
    }
    // Cross-check the EDF optimum against an explicit 0-1 ILP over the
    // hyperperiod demand (same model the reconfiguration chapters use).
    let ilp = ilp_cross_check(&specs, 10);
    show("ilp", &ilp);
    assert_eq!(
        ilp.utilization(&specs),
        opt.assignment.utilization(&specs),
        "ILP and DP must agree on the optimum"
    );
}

/// Builds the Fig. 3.2 selection as a 0-1 ILP: one variable per
/// (task, configuration), uniqueness rows, one area row, objective =
/// total demand over the hyperperiod. Shared with the certification pass.
pub(crate) fn fig3_2_ilp_model(specs: &[TaskSpec], budget: u64) -> rtise::ilp::Model {
    use rtise::ilp::{Model, Sense};
    use rtise::select::task::spec_hyperperiod;
    let h = spec_hyperperiod(specs).expect("small hyperperiod");
    let offsets: Vec<usize> = specs
        .iter()
        .scan(0usize, |acc, s| {
            let o = *acc;
            *acc += s.curve.len();
            Some(o)
        })
        .collect();
    let n_vars: usize = specs.iter().map(|s| s.curve.len()).sum();
    let mut m = Model::new(n_vars);
    let mut obj = vec![0i64; n_vars];
    let mut area = Vec::new();
    for (s, &o) in specs.iter().zip(&offsets) {
        let w = (h / s.period) as i64;
        for (j, p) in s.curve.points().iter().enumerate() {
            obj[o + j] = p.cycles as i64 * w;
            if p.area > 0 {
                area.push((o + j, p.area as i64));
            }
        }
        let ones: Vec<(usize, i64)> = (0..s.curve.len()).map(|j| (o + j, 1)).collect();
        m.add_eq(&ones, 1);
    }
    m.set_objective(Sense::Minimize, &obj);
    m.add_le(&area, budget as i64);
    m
}

/// Solves the Fig. 3.2 ILP and decodes the chosen configuration.
fn ilp_cross_check(specs: &[TaskSpec], budget: u64) -> Assignment {
    let m = fig3_2_ilp_model(specs, budget);
    let sol = m.solve().expect("fig3_2 ILP is feasible");
    let offsets: Vec<usize> = specs
        .iter()
        .scan(0usize, |acc, s| {
            let o = *acc;
            *acc += s.curve.len();
            Some(o)
        })
        .collect();
    let config: Vec<usize> = specs
        .iter()
        .zip(&offsets)
        .map(|(s, &o)| {
            (0..s.curve.len())
                .find(|&j| sol.values[o + j])
                .expect("uniqueness row")
        })
        .collect();
    Assignment { config }
}

/// Table 3.1 + Fig. 3.3 — utilization versus area for the six task sets
/// under EDF and RMS across initial utilizations.
pub fn fig3_3() {
    for (set_idx, names) in TABLE_3_1.iter().enumerate() {
        out!("task set {}: {names:?}", set_idx + 1);
        for &u0 in &UTILIZATION_FACTORS_CH3 {
            let specs = specs_for(names, u0);
            let max_area = rtise::workbench::max_area(&specs);
            outp!("  U0={u0:<5}");
            for pct in [0u64, 25, 50, 75, 100] {
                let budget = max_area * pct / 100;
                let edf = select_edf(&specs, budget).expect("edf");
                let rms = select_rms(&specs, budget);
                let rms_txt = match rms {
                    Ok(s) => format!("{:.3}", s.utilization),
                    Err(_) => "  -  ".into(),
                };
                outp!(
                    "  {pct:>3}%: E={:.3}{} R={rms_txt}",
                    edf.utilization,
                    if edf.schedulable { "" } else { "!" },
                );
            }
            out!();
        }
    }
    out!("(E = EDF utilization, ! = unschedulable, R = RMS, '-' = no RMS solution)");
}

/// Fig. 3.4 — area versus energy for task set 3 under EDF and RMS with
/// TM5400-style static voltage scaling.
pub fn fig3_4() {
    let names = TABLE_3_1[2];
    let scaler = VoltageScaler::tm5400();
    out!("task set 3: {names:?}");
    for &u0 in &[0.8, 1.0] {
        let specs = specs_for(&names, u0);
        let n = specs.len();
        let max_area = rtise::workbench::max_area(&specs);
        // Baseline: first schedulable solution without customization (or
        // the first schedulable customized one, per §3.2.2).
        let sw_u: f64 = specs.iter().map(|s| s.base_utilization()).sum();
        let sw_tasks = Assignment::software(n).to_tasks(&specs);
        let baseline = scaler
            .lowest_feasible(sw_u, Policy::Edf, n)
            .map(|lvl| scaler.energy(&sw_tasks, lvl));
        out!("  U0 = {u0}");
        out!(
            "  {:>6} {:>12} {:>14} {:>14}",
            "area%",
            "U(EDF)",
            "E-save EDF %",
            "E-save RMS %"
        );
        for pct in [0u64, 25, 50, 75, 100] {
            let budget = max_area * pct / 100;
            let edf = select_edf(&specs, budget).expect("edf");
            let tasks = edf.assignment.to_tasks(&specs);
            let edf_save = baseline
                .and_then(|base| {
                    scaler
                        .lowest_feasible(edf.utilization, Policy::Edf, n)
                        .map(|lvl| (1.0 - scaler.energy(&tasks, lvl) / base) * 100.0)
                })
                .map_or("-".into(), |s| format!("{s:.1}"));
            let rms_save = select_rms(&specs, budget)
                .ok()
                .and_then(|sel| {
                    let tasks = sel.assignment.to_tasks(&specs);
                    baseline.and_then(|base| {
                        scaler
                            .lowest_feasible(sel.utilization, Policy::Rms, n)
                            .map(|lvl| (1.0 - scaler.energy(&tasks, lvl) / base) * 100.0)
                    })
                })
                .map_or("-".into(), |s| format!("{s:.1}"));
            out!(
                "  {pct:>5}% {:>12.4} {edf_save:>14} {rms_save:>14}",
                edf.utilization
            );
        }
    }
    out!("(EDF scales deeper than RMS: exact vs Liu-Layland test, as in the paper)");
}
