//! Certification pass for `reproduce --check`: re-verifies the artifacts
//! behind every experiment with the independent checkers in `rtise-check`.
//!
//! Each experiment id maps to a certifier that rebuilds the experiment's
//! key solver outputs (selections, ILP solutions, Pareto fronts,
//! partitions, reconfiguration schedules) and runs them through the
//! certificate checkers — which recompute every claim from the problem
//! data rather than trusting solver code. A clean run returns an empty
//! [`Diagnostics`]; any finding means a solver, model, or experiment
//! harness bug.

use crate::util::{cached_curve, specs_for};
use crate::{ch3, ch4, ch7};
use rtise::check::{bnb as bnbchk, cert, ir as irchk, Code, Diagnostics, Location};
use rtise::fixtures::{EPSILONS_TABLE_4_2, TABLE_3_1, TABLE_4_1, TABLE_5_2};
use rtise::ir::hw::HwModel;
use rtise::ir::region::regions;
use rtise::kernels::by_name;
use rtise::mlgp::iterative::IterTask;
use rtise::mlgp::{customize_task_set, mlgp_partition, IterativeOptions, MlgpOptions};
use rtise::reconfig::partition::synthetic_problem;
use rtise::reconfig::rt::{solve_dp, solve_ilp, solve_static};
use rtise::reconfig::{
    exhaustive_partition, greedy_partition, iterative_partition, spatial_select, HotLoop,
    ReconfigProblem, Solution,
};
use rtise::select::pareto::{
    eps_pareto, eps_pareto_groups, exact_pareto, exact_pareto_groups, Item,
};
use rtise::select::rms::select_rms;
use rtise::select::select_edf;
use rtise::workbench::{reconfig_problem, CurveOptions};
use rtise_trace::bnb::SearchOpts;

/// Default candidate port budget (register read/write ports) used by the
/// harvest pipeline.
const MAX_IN: usize = 4;
const MAX_OUT: usize = 2;

/// Certifies the artifacts of one experiment id. Returns the merged
/// diagnostics (empty = certified clean).
///
/// # Errors
///
/// Returns the id back when it names no experiment.
pub fn certify(id: &str) -> Result<Diagnostics, String> {
    match id {
        "fig3_1" => Ok(certify_fig3_1()),
        "fig3_2" => Ok(certify_fig3_2()),
        "fig3_3" => Ok(certify_task_sets(&TABLE_3_1[0], 1.1)),
        "fig3_4" => Ok(certify_task_sets(&TABLE_3_1[2], 0.8)),
        "fig4_1" => Ok(certify_fig4_1()),
        "tab4_2" => Ok(certify_tab4_2()),
        "fig4_4" => Ok(certify_fig4_4()),
        "tab5_1" => Ok(certify_tab5_1()),
        "fig5_3" => Ok(certify_iterative_flow(&TABLE_5_2[0], 1.1)),
        "fig5_4" => Ok(certify_iterative_flow(&TABLE_5_2[1], 1.3)),
        "fig5_5" => Ok(certify_mlgp_partitions(&["jfdctint", "md5"])),
        "fig5_6" => Ok(certify_mlgp_partitions(&["blowfish", "sha"])),
        "tab6_1" => Ok(certify_synthetic_reconfig(&[5, 8], 0xbe11)),
        "fig6_8" => Ok(certify_synthetic_reconfig(&[6, 12], 0x6fae)),
        "tab6_2" => Ok(certify_jpeg_reconfig(&[(50, 1_000)])),
        "fig6_10" => Ok(certify_jpeg_reconfig(&[(50, 100), (100, 10_000)])),
        "tab7_1" => Ok(certify_rt(&[100], false)),
        "fig7_4" => Ok(certify_rt(&[40, 100], true)),
        "tab7_2" => Ok(certify_rt(&[80], true)),
        "fig8_4" => Ok(certify_fig8_4()),
        "ext_arch" => Ok(certify_ext_arch()),
        "ext_ablation" => Ok(certify_ext_ablation()),
        other => Err(other.to_string()),
    }
}

/// Fig. 3.1: the g721 configuration curve must be a strict staircase, and
/// a fast candidate harvest must produce only legal, honestly-costed
/// candidates whose branch-and-bound selection replays to proven
/// optimality.
fn certify_fig3_1() -> Diagnostics {
    let mut d = cert::check_curve(&cached_curve("g721_decode"));
    let kernel = by_name("crc32").expect("kernel");
    let run = kernel.validate().expect("profile");
    let hw = HwModel::default();
    let opts = CurveOptions::fast();
    let cands = rtise::ise::harvest(&kernel.program, &run.block_counts, &hw, opts.harvest);
    for (i, c) in cands.iter().enumerate() {
        d.merge(cert::check_ci_candidate(
            &kernel.program,
            c,
            &hw,
            opts.harvest.enumerate.max_in,
            opts.harvest.enumerate.max_out,
            i,
        ));
    }
    d.merge(certify_ise_selection(&cands));
    d
}

/// Runs the intra-task selection search at a binding budget and replays
/// its optimality certificate (`certb.ise`).
fn certify_ise_selection(cands: &[rtise::ise::CiCandidate]) -> Diagnostics {
    let budget: u64 = cands.iter().map(|c| c.area).sum::<u64>() / 3;
    let (sel, cert) =
        rtise::ise::branch_and_bound_with(cands, budget, SearchOpts::CERTIFIED).certified();
    let mut d = cert::check_selection(cands, &sel, budget);
    d.merge(bnbchk::check_ise_certificate(cands, budget, &sel, &cert));
    rtise::obs::record("certb.ise", 1);
    d
}

/// Fig. 3.2: the toy instance's EDF and RMS optima re-pass the exact
/// schedulability tests, the ILP cross-check solution satisfies every
/// row of its model, and both branch-and-bound searches replay to proven
/// optimality from their certificates.
fn certify_fig3_2() -> Diagnostics {
    let specs = ch3::fig3_2_specs();
    let budget = 10;
    let mut d = Diagnostics::new();
    match select_edf(&specs, budget) {
        Ok(sel) => d.merge(cert::check_edf_selection(&specs, &sel, budget)),
        Err(e) => d.error(
            Code::CERT005,
            Location::Global,
            format!("select_edf failed: {e}"),
        ),
    }
    if let Ok(sel) = select_rms(&specs, budget) {
        d.merge(cert::check_rms_selection(&specs, &sel, budget));
    }
    d.merge(certify_rms_optimality(&specs, budget));
    let m = ch3::fig3_2_ilp_model(&specs, budget);
    let (res, ilp_cert) = m.solve_with(SearchOpts::CERTIFIED).certified();
    match &res {
        Ok(sol) => {
            d.merge(cert::check_ilp_solution(&m, sol));
            d.merge(bnbchk::check_ilp_certificate(&m, Some(sol), &ilp_cert));
        }
        Err(e) => d.error(
            Code::CERT004,
            Location::Global,
            format!("ILP solve failed: {e}"),
        ),
    }
    rtise::obs::record("certb.ilp", 1);
    d
}

/// Replays the RMS search's optimality certificate (`certb.rms`): an
/// `Unschedulable` verdict is certified as a genuine infeasibility proof,
/// a selection as the true optimum.
fn certify_rms_optimality(specs: &[rtise::select::TaskSpec], budget: u64) -> Diagnostics {
    let (res, cert) =
        rtise::select::rms::select_rms_with(specs, budget, SearchOpts::CERTIFIED).certified();
    let d = bnbchk::check_rms_certificate(specs, budget, res.as_ref().ok(), &cert);
    rtise::obs::record("certb.rms", 1);
    d
}

/// Figs. 3.3/3.4: EDF and RMS selections across the area-budget sweep for
/// one representative task set and initial utilization.
fn certify_task_sets(names: &[&str], u0: f64) -> Diagnostics {
    let specs = specs_for(names, u0);
    let max_area = rtise::workbench::max_area(&specs);
    let mut d = Diagnostics::new();
    for pct in [0u64, 50, 100] {
        let budget = max_area * pct / 100;
        match select_edf(&specs, budget) {
            Ok(sel) => d.merge(cert::check_edf_selection(&specs, &sel, budget)),
            Err(e) => d.error(
                Code::CERT005,
                Location::Global,
                format!("select_edf failed at {pct}%: {e}"),
            ),
        }
        if let Ok(sel) = select_rms(&specs, budget) {
            d.merge(cert::check_rms_selection(&specs, &sel, budget));
        }
        d.merge(certify_rms_optimality(&specs, budget));
    }
    d
}

/// Fig. 4.1: the worked example's fronts are mutually non-dominated and
/// the crc32 staircase is well-formed.
fn certify_fig4_1() -> Diagnostics {
    let t1 = exact_pareto(
        10,
        &[Item { delta: 2, area: 30 }, Item { delta: 3, area: 60 }],
    );
    let mut d = cert::check_pareto_front(&t1);
    let t2: Vec<_> = [(0u64, 15u64), (10, 14), (30, 13), (50, 12), (80, 10)]
        .iter()
        .map(|&(cost, value)| rtise::select::pareto::ParetoPoint { cost, value })
        .collect();
    d.merge(cert::check_pareto_front(&exact_pareto_groups(&[t1, t2])));
    let curve = rtise::workbench::task_curve("crc32", CurveOptions::fast()).expect("crc32 curve");
    d.merge(cert::check_curve(&curve));
    d
}

/// Table 4.2: every ε-approximate inter-task front must (1+ε)-cover the
/// exact front for the first task set.
fn certify_tab4_2() -> Diagnostics {
    let specs = specs_for(TABLE_4_1[0], 1.0);
    let (groups, _) = ch4::groups_of(&specs);
    let exact = exact_pareto_groups(&groups);
    let mut d = cert::check_pareto_front(&exact);
    for &eps in &EPSILONS_TABLE_4_2 {
        d.merge(cert::check_eps_cover(
            &exact,
            &eps_pareto_groups(&groups, eps),
            eps,
        ));
    }
    d
}

/// Fig. 4.4: exact and approximate workload-area fronts for the g721
/// decoder, plus the inter-task fronts of task set 1.
fn certify_fig4_4() -> Diagnostics {
    let curve = cached_curve("g721_decode");
    let items = ch4::items_of(&curve);
    let exact = exact_pareto(curve.base_cycles, &items);
    let mut d = cert::check_pareto_front(&exact);
    for &eps in &[0.69, 3.0] {
        d.merge(cert::check_eps_cover(
            &exact,
            &eps_pareto(curve.base_cycles, &items, eps),
            eps,
        ));
    }
    let specs = specs_for(TABLE_4_1[0], 1.0);
    let (groups, _) = ch4::groups_of(&specs);
    let exact = exact_pareto_groups(&groups);
    d.merge(cert::check_pareto_front(&exact));
    for &eps in &[0.69, 3.0] {
        d.merge(cert::check_eps_cover(
            &exact,
            &eps_pareto_groups(&groups, eps),
            eps,
        ));
    }
    d
}

/// Table 5.1: every benchmark program passes the full IR well-formedness
/// analysis, and its region decompositions are valid.
fn certify_tab5_1() -> Diagnostics {
    let mut d = Diagnostics::new();
    for k in rtise::kernels::suite() {
        d.merge(irchk::check_program(&k.program));
        for block in &k.program.blocks {
            d.merge(irchk::check_regions(&block.dfg, &regions(&block.dfg)));
        }
    }
    d
}

/// Figs. 5.3/5.4: the iterative customization flow's selected custom
/// instructions are legal candidates and the claimed total area is the
/// sum of its parts.
fn certify_iterative_flow(names: &[&str], u0: f64) -> Diagnostics {
    let kernels: Vec<_> = names.iter().map(|n| by_name(n).expect("kernel")).collect();
    let wcets: Vec<u64> = kernels
        .iter()
        .map(|k| rtise::ir::wcet::analyze(&k.program).expect("wcet").wcet)
        .collect();
    let periods = rtise::select::task::periods_for_utilization(&wcets, u0);
    let tasks: Vec<IterTask<'_>> = kernels
        .iter()
        .zip(&periods)
        .map(|(k, &p)| IterTask {
            program: &k.program,
            period: p,
        })
        .collect();
    let hw = HwModel::default();
    let res =
        customize_task_set(&tasks, 1.0, &hw, IterativeOptions::default()).expect("iterative flow");

    let mut d = Diagnostics::new();
    let mut area = 0u64;
    for (i, ci) in res.selected.iter().enumerate() {
        let dfg = &kernels[ci.task].program.block(ci.block).dfg;
        d.merge(cert::check_candidate_set(
            dfg, &ci.nodes, MAX_IN, MAX_OUT, i,
        ));
        area += ci.area;
    }
    if area != res.total_area {
        d.error(
            Code::CERT003,
            Location::Global,
            format!(
                "iterative flow reports total area {}, parts sum to {area}",
                res.total_area
            ),
        );
    }
    d
}

/// Figs. 5.5/5.6: every custom instruction the MLGP generator emits over
/// the benchmarks' regions is a legal candidate.
fn certify_mlgp_partitions(names: &[&str]) -> Diagnostics {
    let hw = HwModel::default();
    let opts = MlgpOptions::default();
    let mut d = Diagnostics::new();
    for name in names {
        let k = by_name(name).expect("kernel");
        for block in &k.program.blocks {
            for region in regions(&block.dfg) {
                for (i, p) in mlgp_partition(&block.dfg, &region.nodes, &hw, opts)
                    .iter()
                    .enumerate()
                {
                    d.merge(cert::check_candidate_set(
                        &block.dfg,
                        p,
                        opts.max_in,
                        opts.max_out,
                        i,
                    ));
                }
            }
        }
    }
    d
}

fn certify_reconfig_solutions(p: &ReconfigProblem, with_exhaustive: bool) -> Diagnostics {
    let mut d = Diagnostics::new();
    let it = iterative_partition(p, 1);
    d.merge(cert::check_reconfig_solution(p, &it, Some(it.net_gain(p))));
    let gr = greedy_partition(p);
    d.merge(cert::check_reconfig_solution(p, &gr, Some(gr.net_gain(p))));
    if with_exhaustive {
        let ex = exhaustive_partition(p);
        d.merge(cert::check_reconfig_solution(p, &ex, Some(ex.net_gain(p))));
    }
    d
}

/// Table 6.1 / Fig. 6.8: partitioning solutions on the synthetic problems
/// (exhaustive included where the experiment runs it).
fn certify_synthetic_reconfig(sizes: &[usize], seed_base: u64) -> Diagnostics {
    let mut d = Diagnostics::new();
    for &n in sizes {
        let p = synthetic_problem(n, seed_base + n as u64);
        d.merge(certify_reconfig_solutions(&p, n <= 10));
    }
    d
}

/// The JPEG reconfiguration instance with fast curve options: the
/// certification pass checks solution structure, not absolute gains, so
/// the cheap harvest keeps `--check` interactive.
fn jpeg_problem_fast() -> ReconfigProblem {
    reconfig_problem("jpeg", 4, 0, 0, CurveOptions::fast()).expect("jpeg problem")
}

/// Table 6.2 / Fig. 6.10: JPEG case-study solutions across fabric sizes
/// and reconfiguration costs, including the static spatial baseline.
fn certify_jpeg_reconfig(settings: &[(u64, u64)]) -> Diagnostics {
    let base = jpeg_problem_fast();
    let full: u64 = base.loops.iter().map(HotLoop::best).map(|v| v.area).sum();
    let mut d = Diagnostics::new();
    for &(fabric_pct, rho) in settings {
        let mut p = base.clone();
        p.max_area = (full * fabric_pct / 100).max(1);
        p.reconfig_cost = rho;
        let static_sol = {
            let refs: Vec<&HotLoop> = p.loops.iter().collect();
            let (version, _, _) = spatial_select(&refs, p.max_area);
            Solution {
                version,
                config: vec![0; p.loops.len()],
            }
        };
        d.merge(cert::check_reconfig_solution(
            &p,
            &static_sol,
            Some(static_sol.net_gain(&p)),
        ));
        d.merge(certify_reconfig_solutions(&p, false));
    }
    d
}

/// Chapter 7: static, DP, and ILP multi-tasking reconfiguration solutions
/// re-pass the independent EDF job-walk demand recomputation.
fn certify_rt(pcts: &[u64], with_solvers: bool) -> Diagnostics {
    let mut d = Diagnostics::new();
    for &pct in pcts {
        let p = ch7::rt_problem(pct);
        d.merge(cert::check_rt_solution(&p, &solve_static(&p)));
        if with_solvers {
            d.merge(cert::check_rt_solution(&p, &solve_dp(&p, 11)));
            match solve_ilp(&p, 500_000_000) {
                Ok(sol) => d.merge(cert::check_rt_solution(&p, &sol)),
                Err(e) => d.error(
                    Code::CERT011,
                    Location::Global,
                    format!("solve_ilp failed at {pct}%: {e}"),
                ),
            }
        }
    }
    d
}

/// Fig. 8.4: the bio-monitoring customization's selected instructions are
/// legal, the programs they accelerate are well-formed, and the simulated
/// speedups re-pass an independent per-block gain-accounting walk — the
/// customized cycle counts are recomputed from block profiles and CI
/// latencies, never trusted from the simulator.
fn certify_fig8_4() -> Diagnostics {
    let hw = HwModel::default();
    let mut d = Diagnostics::new();
    for name in ["fir", "adpcm_encode"] {
        let kernel = by_name(name).expect("kernel");
        d.merge(irchk::check_program(&kernel.program));
        let wcet = rtise::ir::wcet::analyze(&kernel.program)
            .expect("wcet")
            .wcet;
        let tasks = [IterTask {
            program: &kernel.program,
            period: wcet,
        }];
        let res =
            customize_task_set(&tasks, 0.01, &hw, IterativeOptions::default()).expect("customize");
        let mut accounting = Vec::new();
        let mut cis = rtise::sim::CiMap::new();
        for (i, ci) in res.selected.iter().enumerate() {
            let dfg = &kernel.program.block(ci.block).dfg;
            d.merge(cert::check_candidate_set(
                dfg, &ci.nodes, MAX_IN, MAX_OUT, i,
            ));
            let cycles = hw.ci_cycles(dfg, &ci.nodes);
            accounting.push((ci.block.0, ci.nodes.clone(), cycles));
            cis.add(
                ci.block,
                rtise::sim::SelectedCi {
                    nodes: ci.nodes.clone(),
                    cycles,
                },
            );
        }
        let sw = kernel.validate().expect("reference run");
        let acc = rtise::sim::Simulator::new(&kernel.program)
            .expect("sim")
            .run_with_cis(&kernel.init_vars, &kernel.init_mem, &cis)
            .expect("accelerated run");
        d.merge(cert::check_sim_accounting(
            &kernel.program,
            &accounting,
            &sw.block_counts,
            sw.cycles,
            acc.cycles,
        ));
        rtise::obs::record("cert.sim_gain_walk", 1);
    }
    d
}

/// The architecture-taxonomy extension: every architecture variant's
/// schedule is structurally valid AND its net-gain claim is re-walked
/// under its own cost model — full-reload pricing for the temporal-only
/// variant, per-area pricing for partial reconfiguration.
fn certify_ext_arch() -> Diagnostics {
    let base = jpeg_problem_fast();
    let full: u64 = base.loops.iter().map(|l| l.best().area).sum();
    let mut d = Diagnostics::new();
    for &(fabric_pct, rho) in &[(35u64, 200u64), (70, 20_000)] {
        let mut p = base.clone();
        p.max_area = (full * fabric_pct / 100).max(1);
        p.reconfig_cost = rho;
        let static_sol = {
            let refs: Vec<&HotLoop> = p.loops.iter().collect();
            let (version, _, _) = spatial_select(&refs, p.max_area);
            Solution {
                version,
                config: vec![0; p.loops.len()],
            }
        };
        d.merge(cert::check_reconfig_solution(
            &p,
            &static_sol,
            Some(static_sol.net_gain(&p)),
        ));
        let it = iterative_partition(&p, 5);
        d.merge(cert::check_reconfig_solution(
            &p,
            &it,
            Some(it.net_gain(&p)),
        ));
        let temporal =
            rtise::reconfig::temporal_only_partition(&p, rtise::reconfig::CostModel::FullReload);
        d.merge(cert::check_reconfig_solution_with_cost(
            &p,
            &temporal,
            rtise::reconfig::CostModel::FullReload,
            Some(rtise::reconfig::net_gain_with(
                &p,
                &temporal,
                rtise::reconfig::CostModel::FullReload,
            )),
        ));
        // Partial reconfiguration: the experiment prices each switch by
        // the incoming configuration's area (see `ext::ext_arch`).
        let partial = rtise::reconfig::CostModel::Partial {
            per_area_unit: (rho / p.max_area.max(1)).max(1),
        };
        d.merge(cert::check_reconfig_solution_with_cost(
            &p,
            &it,
            partial,
            Some(rtise::reconfig::net_gain_with(&p, &it, partial)),
        ));
    }
    d
}

/// The ablation extension: MLGP partitions stay legal, graph partitions
/// re-verify against an independent edge-cut recount, and each rung of the
/// selection ladder (greedy, SA, GA) yields a consistent, in-budget
/// selection.
fn certify_ext_ablation() -> Diagnostics {
    let mut d = certify_mlgp_partitions(&["jfdctint"]);

    // Seeded random graphs through the graph partitioner.
    let mut rng = rtise::obs::Rng::new(0xab1a);
    for &(n, k) in &[(24usize, 2usize), (40, 4)] {
        let weights: Vec<u64> = (0..n).map(|_| rng.gen_range(1u64..10)).collect();
        let mut g = rtise::graphpart::Graph::new(weights);
        for v in 0..n {
            g.add_edge(v, (v + 1) % n, rng.gen_range(1u64..8));
            let u = rng.gen_range(0..n as u64) as usize;
            if u != v {
                g.add_edge(v, u, rng.gen_range(1u64..8));
            }
        }
        let p = rtise::graphpart::partition(&g, k, 7);
        d.merge(cert::check_partitioning(&g, &p, Some(p.edge_cut(&g))));
    }

    // Selection ladder on the crc32 library.
    let k = by_name("crc32").expect("kernel");
    let run = k.run().expect("profile");
    let hw = HwModel::default();
    let cands = rtise::ise::harvest(
        &k.program,
        &run.block_counts,
        &hw,
        rtise::ise::HarvestOptions::default(),
    );
    let budget: u64 = cands.iter().map(|c| c.area).sum::<u64>() / 3;
    d.merge(cert::check_selection(
        &cands,
        &rtise::ise::greedy_by_ratio(&cands, budget),
        budget,
    ));
    d.merge(cert::check_selection(
        &cands,
        &rtise::ise::simulated_annealing_select(&cands, budget, rtise::ise::SaOptions::default()),
        budget,
    ));
    d.merge(cert::check_selection(
        &cands,
        &rtise::ise::genetic_select(&cands, budget, rtise::ise::GaOptions::default()),
        budget,
    ));
    // The exact rung of the ladder, with its optimality certificate
    // replayed: the heuristics above may only ever trail this optimum.
    let (exact, ise_cert) =
        rtise::ise::branch_and_bound_with(&cands, budget, SearchOpts::CERTIFIED).certified();
    d.merge(cert::check_selection(&cands, &exact, budget));
    d.merge(bnbchk::check_ise_certificate(
        &cands, budget, &exact, &ise_cert,
    ));
    rtise::obs::record("certb.ise", 1);
    d
}
