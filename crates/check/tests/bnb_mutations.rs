//! Seeded mutation tests for the branch-and-bound certificate replayers:
//! corrupt verified-clean optimality certificates in eight distinct ways
//! and assert the documented `CERTB` code for each corruption class.
//! Instances are generated with the deterministic [`rtise_obs::Rng`], so
//! failures reproduce exactly.

use rtise_check::bnb::{check_ilp_certificate, check_ise_certificate, check_rms_certificate};
use rtise_check::Code;
use rtise_ilp::{IlpCertEvent, Model, Sense};
use rtise_ir::cfg::BlockId;
use rtise_ir::nodeset::NodeSet;
use rtise_ise::configs::ConfigCurve;
use rtise_ise::{branch_and_bound_with, CiCandidate, IseCertEvent};
use rtise_obs::Rng;
use rtise_select::rms::{select_rms_with, RmsCertEvent};
use rtise_select::TaskSpec;
use rtise_trace::bnb::SearchOpts;

/// A feasible knapsack whose root node always branches: distinct positive
/// gains (so the variable order is unambiguous), non-negative weights and
/// a non-negative budget (so row 0 is satisfiable at the root).
fn knapsack(rng: &mut Rng) -> Model {
    let n = rng.gen_range(5..=8usize);
    let mut m = Model::new(n);
    let gains: Vec<i64> = (0..n)
        .map(|i| rng.gen_range(1..=9i64) + 10 * i as i64)
        .collect();
    m.set_objective(Sense::Maximize, &gains);
    let terms: Vec<(usize, i64)> = (0..n).map(|v| (v, rng.gen_range(1..=6i64))).collect();
    m.add_le(&terms, rng.gen_range(4..=10i64));
    m
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

fn ise_library(rng: &mut Rng) -> (Vec<CiCandidate>, u64) {
    let n = rng.gen_range(6..=10usize);
    let cands: Vec<CiCandidate> = (0..n)
        .map(|i| {
            let lo = rng.gen_range(0..10usize);
            let hi = lo + rng.gen_range(1..=3usize);
            let nodes: Vec<usize> = (lo..hi).collect();
            cand(
                i % 3,
                &nodes,
                rng.gen_range(1..8u64),
                rng.gen_range(1..15u64),
            )
        })
        .collect();
    let budget = rng.gen_range(5..20u64);
    (cands, budget)
}

fn spec(name: &str, base: u64, period: u64, pts: &[(u64, u64)]) -> TaskSpec {
    TaskSpec::new(ConfigCurve::from_points(name, base, pts), period)
}

/// Schedulable in software at generous periods, with hardware points a
/// tight budget must reject — guaranteeing `CfgArea` events in the log.
fn rms_instance(rng: &mut Rng) -> (Vec<TaskSpec>, u64) {
    let specs = vec![
        spec("a", rng.gen_range(2..5u64), 50, &[(6, 1), (9, 1)]),
        spec("b", rng.gen_range(2..5u64), 60, &[(7, 1)]),
        spec("c", rng.gen_range(2..5u64), 70, &[(8, 2)]),
    ];
    (specs, 5)
}

/// Class 1 (`CERTB001`): drop the final recorded node — the replayed
/// branching declares a larger tree than the log contains.
#[test]
fn dropped_node_is_caught() {
    let mut rng = Rng::new(0xC0DE_1001);
    let m = knapsack(&mut rng);
    let (res, mut cert) = m.solve_with(SearchOpts::CERTIFIED).certified();
    let sol = res.expect("feasible");
    assert!(check_ilp_certificate(&m, Some(&sol), &cert).is_clean());
    cert.events.pop().expect("non-empty log");
    let d = check_ilp_certificate(&m, Some(&sol), &cert);
    assert!(d.has(Code::CERTB001), "expected CERTB001, got: {d}");
}

/// Class 2 (`CERTB001`): permute the declared variable order — the
/// events no longer describe the model's canonical search space.
#[test]
fn forged_variable_order_is_caught() {
    let mut rng = Rng::new(0xC0DE_1002);
    let m = knapsack(&mut rng);
    let (res, mut cert) = m.solve_with(SearchOpts::CERTIFIED).certified();
    let sol = res.expect("feasible");
    assert!(check_ilp_certificate(&m, Some(&sol), &cert).is_clean());
    cert.order.swap(0, 1);
    let d = check_ilp_certificate(&m, Some(&sol), &cert);
    assert!(d.has(Code::CERTB001), "expected CERTB001, got: {d}");
}

/// Class 3 (`CERTB002`): claim a bound prune at the root, where no
/// incumbent exists and the whole space is still open.
#[test]
fn inflated_bound_prune_is_caught() {
    let mut rng = Rng::new(0xC0DE_1003);
    let m = knapsack(&mut rng);
    let (res, mut cert) = m.solve_with(SearchOpts::CERTIFIED).certified();
    let sol = res.expect("feasible");
    assert!(matches!(cert.events[0], IlpCertEvent::Branch { .. }));
    cert.events[0] = IlpCertEvent::PruneBound;
    let d = check_ilp_certificate(&m, Some(&sol), &cert);
    assert!(d.has(Code::CERTB002), "expected CERTB002, got: {d}");
}

/// Class 4 (`CERTB003`): claim an infeasibility prune citing a witness
/// row that is still satisfiable.
#[test]
fn forged_infeasibility_witness_is_caught() {
    let mut rng = Rng::new(0xC0DE_1004);
    let m = knapsack(&mut rng);
    let (res, mut cert) = m.solve_with(SearchOpts::CERTIFIED).certified();
    let sol = res.expect("feasible");
    cert.events[0] = IlpCertEvent::PruneInfeasible { row: 0 };
    let d = check_ilp_certificate(&m, Some(&sol), &cert);
    assert!(d.has(Code::CERTB003), "expected CERTB003, got: {d}");
}

/// Class 5 (`CERTB003`): flip an `include` flag so the recorded branching
/// silently skips the include child of a viable candidate.
#[test]
fn skipped_branch_child_is_caught() {
    let mut rng = Rng::new(0xC0DE_1005);
    let (cands, budget) = ise_library(&mut rng);
    let (sel, mut cert) = branch_and_bound_with(&cands, budget, SearchOpts::CERTIFIED).certified();
    assert!(check_ise_certificate(&cands, budget, &sel, &cert).is_clean());
    let pos = cert
        .events
        .iter()
        .position(|e| matches!(e, IseCertEvent::Expand { include: true }))
        .expect("some include child in a positive-gain library");
    cert.events[pos] = IseCertEvent::Expand { include: false };
    let d = check_ise_certificate(&cands, budget, &sel, &cert);
    assert!(d.has(Code::CERTB003), "expected CERTB003, got: {d}");
}

/// Class 6 (`CERTB004`): rewrite a justified configuration prune as a
/// recursion — the certified path now claims an infeasible assignment
/// was explored as feasible.
#[test]
fn infeasible_recursion_is_caught() {
    let mut rng = Rng::new(0xC0DE_1006);
    let (specs, budget) = rms_instance(&mut rng);
    let (res, mut cert) = select_rms_with(&specs, budget, SearchOpts::CERTIFIED).certified();
    let sel = res.expect("software configurations are schedulable");
    assert!(check_rms_certificate(&specs, budget, Some(&sel), &cert).is_clean());
    let pos = cert
        .events
        .iter()
        .position(|e| matches!(e, RmsCertEvent::CfgArea | RmsCertEvent::CfgUnsched))
        .expect("the tight budget forces at least one configuration prune");
    cert.events[pos] = RmsCertEvent::CfgRecurse;
    let d = check_rms_certificate(&specs, budget, Some(&sel), &cert);
    assert!(d.has(Code::CERTB004), "expected CERTB004, got: {d}");
}

/// Class 7 (`CERTB005`): return a stale incumbent — a solution other
/// than the one the replayed search proves optimal.
#[test]
fn stale_incumbent_is_caught() {
    let mut rng = Rng::new(0xC0DE_1007);
    let (specs, budget) = rms_instance(&mut rng);
    let (res, cert) = select_rms_with(&specs, budget, SearchOpts::CERTIFIED).certified();
    let mut sel = res.expect("software configurations are schedulable");
    assert!(check_rms_certificate(&specs, budget, Some(&sel), &cert).is_clean());
    sel.utilization += 0.25;
    let d = check_rms_certificate(&specs, budget, Some(&sel), &cert);
    assert!(d.has(Code::CERTB005), "expected CERTB005, got: {d}");
}

/// Class 8 (`CERTB006`): cap the log below the tree size — the honest
/// verdict is "truncated, optimality NOT proven", never a clean pass.
#[test]
fn truncated_certificate_is_incomplete_not_clean() {
    let mut rng = Rng::new(0xC0DE_1008);
    let (cands, budget) = ise_library(&mut rng);
    let capped = SearchOpts { cert_cap: Some(2) };
    let (sel, cert) = branch_and_bound_with(&cands, budget, capped).certified();
    assert!(cert.dropped > 0, "a 2-event cap must truncate this search");
    let d = check_ise_certificate(&cands, budget, &sel, &cert);
    assert!(d.has(Code::CERTB006), "expected CERTB006, got: {d}");
    assert!(!d.is_clean());
}

/// The five forgeries every replayer's shared frame must reject, applied
/// to a clean certificate of each problem.
#[derive(Clone, Copy, Debug)]
enum Forgery {
    /// Cap the log at two events, counting the rest as dropped.
    Truncate,
    /// Swap the first two entries of the declared order.
    SwapOrder,
    /// Drop the last recorded event.
    PopEvent,
    /// Append a copy of the last recorded event.
    AppendEvent,
    /// Leave the log intact and forge the returned outcome instead.
    ForgeOutcome,
}

/// Applies a log forgery to a certificate's fields; `false` for
/// [`Forgery::ForgeOutcome`], which the caller applies to its outcome.
fn forge_log<E: Clone>(
    order: &mut [usize],
    events: &mut Vec<E>,
    dropped: &mut u64,
    forgery: Forgery,
) -> bool {
    match forgery {
        Forgery::Truncate => {
            assert!(events.len() > 2, "the clean log must outgrow the cap");
            *dropped = events.len() as u64 - 2;
            events.truncate(2);
        }
        Forgery::SwapOrder => order.swap(0, 1),
        Forgery::PopEvent => {
            events.pop().expect("non-empty log");
        }
        Forgery::AppendEvent => {
            let last = events.last().expect("non-empty log").clone();
            events.push(last);
        }
        Forgery::ForgeOutcome => return false,
    }
    true
}

fn forged_ilp(forgery: Forgery) -> rtise_check::Diagnostics {
    let m = knapsack(&mut Rng::new(0xC0DE_1009));
    let (res, mut cert) = m.solve_with(SearchOpts::CERTIFIED).certified();
    let mut sol = res.expect("feasible");
    assert!(check_ilp_certificate(&m, Some(&sol), &cert).is_clean());
    if !forge_log(
        &mut cert.order,
        &mut cert.events,
        &mut cert.dropped,
        forgery,
    ) {
        sol.objective += 1;
    }
    check_ilp_certificate(&m, Some(&sol), &cert)
}

fn forged_ise(forgery: Forgery) -> rtise_check::Diagnostics {
    let (cands, budget) = ise_library(&mut Rng::new(0xC0DE_100A));
    let (mut sel, mut cert) =
        branch_and_bound_with(&cands, budget, SearchOpts::CERTIFIED).certified();
    assert!(check_ise_certificate(&cands, budget, &sel, &cert).is_clean());
    if !forge_log(
        &mut cert.order,
        &mut cert.events,
        &mut cert.dropped,
        forgery,
    ) {
        sel.total_gain += 1;
    }
    check_ise_certificate(&cands, budget, &sel, &cert)
}

fn forged_rms(forgery: Forgery) -> rtise_check::Diagnostics {
    let (specs, budget) = rms_instance(&mut Rng::new(0xC0DE_100B));
    let (res, mut cert) = select_rms_with(&specs, budget, SearchOpts::CERTIFIED).certified();
    let mut sel = res.expect("software configurations are schedulable");
    assert!(check_rms_certificate(&specs, budget, Some(&sel), &cert).is_clean());
    if !forge_log(
        &mut cert.order,
        &mut cert.events,
        &mut cert.dropped,
        forgery,
    ) {
        sel.utilization += 0.25;
    }
    check_rms_certificate(&specs, budget, Some(&sel), &cert)
}

/// Class 9: the replay frame shared by all three problems — truncation
/// (`CERTB006`), the declared order, an exhausted log and leftover events
/// (`CERTB001`), and the outcome comparison (`CERTB005`) — each caught
/// with exactly one diagnostic whose code and rendered text are pinned.
#[test]
fn frame_forgeries_are_caught_with_exact_messages() {
    use Forgery::*;
    type Replay = fn(Forgery) -> rtise_check::Diagnostics;
    let forgeries = [Truncate, SwapOrder, PopEvent, AppendEvent, ForgeOutcome];
    let table: [(&str, Replay, [&str; 5]); 3] = [
        (
            "ilp",
            forged_ilp,
            [
                "CERTB006 [error] at -: certificate truncated: 53 event(s) dropped past the \
                 recording cap; optimality is NOT proven",
                "CERTB001 [error] at -: certificate variable order differs from the declared \
                 stable descending-|objective| permutation",
                "CERTB001 [error] at -: event log exhausted at depth 4: the recorded tree is \
                 smaller than the branching it declares",
                "CERTB001 [error] at -: 1 event(s) left over after the root subtree was fully \
                 replayed",
                "CERTB005 [error] at -: returned solution (objective 124) differs from the \
                 replayed optimum (objective 123)",
            ],
        ),
        (
            "ise",
            forged_ise,
            [
                "CERTB006 [error] at -: certificate truncated: 9 event(s) dropped past the \
                 recording cap; optimality is NOT proven",
                "CERTB001 [error] at -: certificate candidate order differs from the declared \
                 stable descending gain/area permutation",
                "CERTB001 [error] at -: event log exhausted at depth 1: the recorded tree is \
                 smaller than the branching it declares",
                "CERTB001 [error] at -: 1 event(s) left over after the root subtree was fully \
                 replayed",
                "CERTB005 [error] at -: returned selection (gain 50, area 12) differs from the \
                 replayed optimum (gain 49, area 12)",
            ],
        ),
        (
            "rms",
            forged_rms,
            [
                "CERTB006 [error] at -: certificate truncated: 4 event(s) dropped past the \
                 recording cap; optimality is NOT proven",
                "CERTB001 [error] at -: certificate task order differs from the declared \
                 stable non-decreasing-period permutation",
                "CERTB001 [error] at -: event log exhausted at depth 2: the recorded tree is \
                 smaller than the branching it declares",
                "CERTB001 [error] at -: 1 event(s) left over after the root subtree was fully \
                 replayed",
                "CERTB005 [error] at -: returned selection (utilization 0.38047619047619047) \
                 differs from the replayed optimum (utilization 0.13047619047619047)",
            ],
        ),
    ];
    let mut wrong = Vec::new();
    for (problem, replay, expected) in table {
        for (forgery, rendered) in forgeries.into_iter().zip(expected) {
            let d = replay(forgery);
            let codes: Vec<&str> = d.iter().map(|x| x.code.as_str()).collect();
            if codes != [&rendered[..8]] || d.render() != rendered {
                wrong.push(format!("{problem} {forgery:?}: {codes:?}\n  {d}"));
            }
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}
