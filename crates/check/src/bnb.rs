//! The `cert_bnb` analyzer: independent replay of branch-and-bound
//! optimality certificates.
//!
//! Each solver's search, run with a certificate cap
//! ([`rtise_ilp::Model::solve_with`], [`rtise_ise::branch_and_bound_with`],
//! [`rtise_select::select_rms_with`]), emits a compact preorder event
//! log. The replayers here walk that log while *re-deriving every
//! justification from the problem data* — relaxation bounds, feasibility
//! witnesses, schedulability tests, and the incumbent discipline — never
//! trusting the solver's arithmetic:
//!
//! * the replayer generates the children of every branch itself, so
//!   branching coverage of the full space is structural, not claimed;
//! * every prune event must be justified against the replayer's *own*
//!   incumbent and its *own* bound computation (exact integer arithmetic
//!   where the solver used floats);
//! * leaves update the replayer's incumbent under the solver's documented
//!   deterministic rule, and the returned solution must equal the final
//!   replayed incumbent.
//!
//! A clean replay therefore proves the returned solution optimal (or the
//! instance infeasible) assuming only that the event log reflects the
//! search that produced the answer — which is exactly what certifying a
//! search can establish. Replay does *not* need to show that explored
//! nodes were "correctly not pruned": exploring more than necessary never
//! loses optimality.
//!
//! Failures are reported as `CERTB001`–`CERTB006` diagnostics; a
//! truncated log (`dropped > 0`) yields `CERTB006` and no optimality
//! claim.
//!
//! # The replay frame
//!
//! The three certificates are one type, [`Certificate<E>`], replayed in
//! one frame written once over the event type `E`: the `CERTB006`
//! prologue; the problem re-derives its declared order and tables, and
//! any other declared order is `CERTB001`; its walk draws every event
//! from one cursor, which reports a log that ends early as `CERTB001`;
//! events left after the root subtree are `CERTB001`; and the claimed
//! outcome is compared with the replayed incumbent (`CERTB005`).
//!
//! A problem keeps only its rules, in its walk: branching, bounds,
//! leaves and the incumbent rule. So a new event kind (a symmetry event,
//! a new bound) is one new arm in one walk, and the frame is unchanged;
//! a record every certificate gains (the open nodes of a search stopped
//! at a work limit) is one new [`Certificate`] field and one new frame
//! step, before the outcome comparison, for all three problems.

use crate::diag::{Code, Diagnostics, Location};
use rtise_ilp::{Cmp, IlpCertEvent, IlpCertificate, Model, Sense, Solution as IlpSolution};
use rtise_ise::{CiCandidate, IseCertEvent, IseCertificate, Selection};
use rtise_obs::Certificate;
use rtise_select::rms::{RmsCertEvent, RmsCertificate, RmsSelection};
use rtise_select::TaskSpec;

/// Tolerance for the RMS utilization-bound justification; deliberately
/// looser than the solver's own `1e-15` so every float prune the solver
/// makes on honestly-computed utilizations is accepted, while a bound
/// inflated enough to hide a better solution is still rejected.
const RMS_BOUND_EPS: f64 = 1e-9;

// ---------------------------------------------------------------------------
// The replay frame
// ---------------------------------------------------------------------------

/// Stops a replay at the first broken justification: later events are
/// relative to solver state the replayer can no longer trust.
struct ReplayErr;

type ReplayResult = Result<(), ReplayErr>;

/// How one problem names, in the frame's messages, what it orders and
/// what its search returns.
struct Words {
    /// What the declared order permutes.
    item: &'static str,
    /// The rule that declares the order.
    rule: &'static str,
    /// What a search returns.
    outcome: &'static str,
    /// What a leaf must be to become the incumbent.
    leaf: &'static str,
    /// The claim of a search that returns nothing.
    refuted: &'static str,
}

/// The frame's cursor over a certificate's events, and the replay's
/// diagnostics.
struct Log<'a, E> {
    events: &'a [E],
    idx: usize,
    d: Diagnostics,
}

impl<E: Copy> Log<'_, E> {
    /// The event recorded for the next node, at `depth`.
    fn next(&mut self, depth: usize) -> Result<E, ReplayErr> {
        let Some(&event) = self.events.get(self.idx) else {
            return Err(self.fail(
                Code::CERTB001,
                Location::Global,
                format!(
                    "event log exhausted at depth {depth}: the recorded tree is \
                     smaller than the branching it declares"
                ),
            ));
        };
        self.idx += 1;
        Ok(event)
    }

    /// Reports a broken justification; the replay stops there.
    fn fail(&mut self, code: Code, location: Location, message: impl Into<String>) -> ReplayErr {
        self.d.error(code, location, message);
        ReplayErr
    }
}

/// Replays `cert` in the frame the module doc describes. `prepare`
/// re-derives the declared order and the problem's replay state, or
/// reports why there is no search space and returns `None`; `walk`
/// replays the root subtree; `judge` compares the claimed outcome with
/// the walked state's incumbent through [`compare_outcome`].
fn replay<'a, E: Copy, R>(
    cert: &'a Certificate<E>,
    words: &Words,
    prepare: impl FnOnce(&mut Diagnostics) -> Option<(Vec<usize>, R)>,
    walk: impl FnOnce(&mut R, &mut Log<'a, E>) -> ReplayResult,
    judge: impl FnOnce(R, &mut Diagnostics),
) -> Diagnostics {
    let mut log = Log {
        events: &cert.events,
        idx: 0,
        d: Diagnostics::new(),
    };
    if cert.dropped > 0 {
        log.fail(
            Code::CERTB006,
            Location::Global,
            format!(
                "certificate truncated: {} event(s) dropped past the recording cap; \
                 optimality is NOT proven",
                cert.dropped
            ),
        );
        return log.d;
    }
    let Some((order, mut state)) = prepare(&mut log.d) else {
        return log.d;
    };
    if cert.order != order {
        log.fail(
            Code::CERTB001,
            Location::Global,
            format!(
                "certificate {} order differs from the declared stable {} permutation",
                words.item, words.rule
            ),
        );
    } else if walk(&mut state, &mut log).is_ok() {
        let left = cert.events.len() - log.idx;
        if left > 0 {
            log.fail(
                Code::CERTB001,
                Location::Global,
                format!("{left} event(s) left over after the root subtree was fully replayed"),
            );
        } else {
            judge(state, &mut log.d);
        }
    }
    log.d
}

/// The frame's `CERTB005` step. The replay covered the whole space with
/// every prune justified, so the final replayed incumbent `optimum` IS
/// the optimum, and the `claimed` outcome must equal it; `None` on
/// either side means no leaf. `differs` describes a claim and an optimum
/// that disagree (`None` when they agree); `found` describes an optimum
/// the claim denies.
fn compare_outcome<C, B>(
    d: &mut Diagnostics,
    words: &Words,
    claimed: Option<C>,
    optimum: Option<B>,
    differs: impl FnOnce(C, &B) -> Option<(String, String)>,
    found: impl FnOnce(&B) -> String,
) {
    let message = match (claimed, optimum) {
        (Some(claim), Some(best)) => {
            let Some((claim, best)) = differs(claim, &best) else {
                return;
            };
            format!(
                "returned {} ({claim}) differs from the replayed optimum ({best})",
                words.outcome
            )
        }
        (Some(_), None) => format!(
            "a {} was returned, but the replayed search reached no {} leaf",
            words.outcome, words.leaf
        ),
        (None, Some(best)) => format!(
            "claimed {}, but the replayed search found a feasible leaf with {}",
            words.refuted,
            found(&best)
        ),
        // Every prune justified and no leaf reached: the refutation is
        // proven.
        (None, None) => return,
    };
    d.error(Code::CERTB005, Location::Global, message);
}

// ---------------------------------------------------------------------------
// ILP replay
// ---------------------------------------------------------------------------

const ILP: Words = Words {
    item: "variable",
    rule: "descending-|objective|",
    outcome: "solution",
    leaf: "feasible",
    refuted: "infeasible",
};

struct IlpReplay {
    /// The declared variable order.
    order: Vec<usize>,
    /// Dense normalized coefficients per row, variables in `order`.
    coeff: Vec<Vec<i64>>,
    rhs: Vec<i64>,
    /// Suffix-minimum achievable contribution per `(row, depth)`.
    min_rem: Vec<Vec<i64>>,
    obj: Vec<i64>,
    obj_min_rem: Vec<i64>,
    lhs: Vec<i64>,
    /// The current path's assignment, by original variable index.
    assign: Vec<bool>,
    best: Option<(i64, Vec<bool>)>,
}

impl IlpReplay {
    /// Re-derives the normalization the certificate is expressed in,
    /// returning the declared variable order with the replay tables.
    fn new(model: &Model, d: &mut Diagnostics) -> Option<(Vec<usize>, IlpReplay)> {
        let n = model.num_vars();
        let obj: Vec<i64> = match model.sense() {
            Sense::Minimize => model.objective().to_vec(),
            Sense::Maximize => model.objective().iter().map(|c| -c).collect(),
        };
        let mut le_rows: Vec<(Vec<(usize, i64)>, i64)> = Vec::new();
        for i in 0..model.num_rows() {
            let (terms, cmp, rhs) = model.row(i);
            if let Some(&(v, _)) = terms.iter().find(|&&(v, _)| v >= n) {
                d.error(
                    Code::CERTB001,
                    Location::Row(i),
                    format!("model row {i} references variable {v} of {n}"),
                );
                return None;
            }
            let negated = || (terms.iter().map(|&(v, c)| (v, -c)).collect(), -rhs);
            match cmp {
                Cmp::Le => le_rows.push((terms.to_vec(), rhs)),
                Cmp::Ge => le_rows.push(negated()),
                Cmp::Eq => {
                    le_rows.push((terms.to_vec(), rhs));
                    le_rows.push(negated());
                }
            }
        }
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&v| std::cmp::Reverse(obj[v].abs()));
        let mut pos = vec![0usize; n];
        for (i, &v) in order.iter().enumerate() {
            pos[v] = i;
        }
        let m = le_rows.len();
        let mut coeff = vec![vec![0i64; n]; m];
        for (ri, (terms, _)) in le_rows.iter().enumerate() {
            for &(v, c) in terms {
                coeff[ri][pos[v]] += c;
            }
        }
        let mut min_rem = vec![vec![0i64; n + 1]; m];
        for (ri, row) in coeff.iter().enumerate() {
            for depth in (0..n).rev() {
                min_rem[ri][depth] = min_rem[ri][depth + 1] + row[depth].min(0);
            }
        }
        let obj: Vec<i64> = order.iter().map(|&v| obj[v]).collect();
        let mut obj_min_rem = vec![0i64; n + 1];
        for depth in (0..n).rev() {
            obj_min_rem[depth] = obj_min_rem[depth + 1] + obj[depth].min(0);
        }
        let replay = IlpReplay {
            order: order.clone(),
            coeff,
            rhs: le_rows.iter().map(|&(_, r)| r).collect(),
            min_rem,
            obj,
            obj_min_rem,
            lhs: vec![0; m],
            assign: vec![false; n],
            best: None,
        };
        Some((order, replay))
    }

    fn walk(&mut self, log: &mut Log<IlpCertEvent>, depth: usize, cur_obj: i64) -> ReplayResult {
        match log.next(depth)? {
            IlpCertEvent::PruneInfeasible { row } => {
                let ri = row as usize;
                if ri >= self.rhs.len() {
                    return Err(log.fail(
                        Code::CERTB003,
                        Location::Row(ri),
                        format!(
                            "infeasibility witness row {ri} is outside the {}-row \
                             normalized system",
                            self.rhs.len()
                        ),
                    ));
                }
                if self.lhs[ri] + self.min_rem[ri][depth] <= self.rhs[ri] {
                    return Err(log.fail(
                        Code::CERTB003,
                        Location::Row(ri),
                        format!(
                            "prune at depth {depth} cites row {ri}, but its best-case \
                             completion {} <= rhs {} is still satisfiable",
                            self.lhs[ri] + self.min_rem[ri][depth],
                            self.rhs[ri]
                        ),
                    ));
                }
                Ok(())
            }
            IlpCertEvent::PruneBound => {
                let Some((best, _)) = &self.best else {
                    return Err(log.fail(
                        Code::CERTB002,
                        Location::Global,
                        format!("bound prune at depth {depth} with no incumbent to prune against"),
                    ));
                };
                if cur_obj + self.obj_min_rem[depth] < *best {
                    return Err(log.fail(
                        Code::CERTB002,
                        Location::Global,
                        format!(
                            "bound prune at depth {depth} unjustified: completion bound {} \
                             still beats incumbent {best}",
                            cur_obj + self.obj_min_rem[depth]
                        ),
                    ));
                }
                Ok(())
            }
            IlpCertEvent::Leaf => {
                if depth != self.order.len() {
                    return Err(log.fail(
                        Code::CERTB001,
                        Location::Global,
                        format!(
                            "leaf event at depth {depth}, but the model has {} variable(s)",
                            self.order.len()
                        ),
                    ));
                }
                if let Some(ri) = (0..self.rhs.len()).find(|&ri| self.lhs[ri] > self.rhs[ri]) {
                    return Err(log.fail(
                        Code::CERTB004,
                        Location::Row(ri),
                        format!(
                            "leaf assignment violates normalized row {ri}: {} > {}",
                            self.lhs[ri], self.rhs[ri]
                        ),
                    ));
                }
                if self.best.as_ref().is_none_or(|(b, _)| cur_obj < *b) {
                    self.best = Some((cur_obj, self.assign.clone()));
                }
                Ok(())
            }
            IlpCertEvent::Branch { first } => {
                if depth >= self.order.len() {
                    return Err(log.fail(
                        Code::CERTB001,
                        Location::Global,
                        format!(
                            "branch event at depth {depth}, but the model has only {} \
                             variable(s)",
                            self.order.len()
                        ),
                    ));
                }
                // Both children are generated by the replayer itself, in
                // the recorded order — coverage of the subspace is
                // structural, whatever value was tried first.
                for val in [first, !first] {
                    self.assign[self.order[depth]] = val;
                    if val {
                        for ri in 0..self.rhs.len() {
                            self.lhs[ri] += self.coeff[ri][depth];
                        }
                    }
                    let next_obj = cur_obj + if val { self.obj[depth] } else { 0 };
                    let r = self.walk(log, depth + 1, next_obj);
                    if val {
                        for ri in 0..self.rhs.len() {
                            self.lhs[ri] -= self.coeff[ri][depth];
                        }
                    }
                    r?;
                }
                self.assign[self.order[depth]] = false;
                Ok(())
            }
        }
    }
}

/// Replays an ILP branch-and-bound certificate against its model and the
/// claimed outcome (`Some(solution)` or `None` for an infeasibility
/// verdict), independently confirming optimality.
///
/// The normalization (minimize sense, `Ge` rows negated, `Eq` rows split
/// in declaration order, variables in stable descending-`|objective|`
/// order) is re-derived from the model per the documented
/// [`IlpCertificate`] convention; every bound and feasibility witness is
/// then recomputed in exact `i64` arithmetic.
pub fn check_ilp_certificate(
    model: &Model,
    solution: Option<&IlpSolution>,
    cert: &IlpCertificate,
) -> Diagnostics {
    replay(
        cert,
        &ILP,
        |d| IlpReplay::new(model, d),
        |replay, log| replay.walk(log, 0, 0),
        |replay, d| {
            compare_outcome(
                d,
                &ILP,
                solution,
                replay.best,
                |sol, (best_obj, values)| {
                    let objective = match model.sense() {
                        Sense::Minimize => *best_obj,
                        Sense::Maximize => -best_obj,
                    };
                    (sol.objective != objective || sol.values != *values).then(|| {
                        (
                            format!("objective {}", sol.objective),
                            format!("objective {objective}"),
                        )
                    })
                },
                |(best_obj, _)| format!("normalized objective {best_obj}"),
            );
        },
    )
}

// ---------------------------------------------------------------------------
// ISE replay
// ---------------------------------------------------------------------------

const ISE: Words = Words {
    item: "candidate",
    rule: "descending gain/area",
    outcome: "selection",
    leaf: "feasible",
    refuted: "infeasible",
};

struct IseReplay<'a> {
    cands: &'a [CiCandidate],
    order: Vec<usize>,
    budget: u64,
    stack: Vec<usize>,
    /// The incumbent: gain, area and the sorted chosen candidates.
    best: (u64, u64, Vec<usize>),
}

impl IseReplay<'_> {
    /// Floor of the exact fractional-knapsack relaxation over the
    /// candidates at order positions `depth..`, in `u128` integer
    /// arithmetic — the independent counterpart of the solver's float
    /// bound. Any integral completion's gain is at most this floor, so a
    /// prune is justified iff the floor cannot beat the incumbent.
    fn bound_floor(&self, depth: usize, area: u64, gain: u64) -> u128 {
        let mut int_total = gain as u128;
        let mut room = self.budget - area;
        let mut frac: Option<(u64, u64, u64)> = None;
        for &i in &self.order[depth..] {
            let c = &self.cands[i];
            if c.area == 0 {
                int_total += c.total_gain() as u128;
            } else if frac.is_none() {
                if c.area <= room {
                    room -= c.area;
                    int_total += c.total_gain() as u128;
                } else {
                    frac = Some((c.total_gain(), room, c.area));
                }
            }
        }
        int_total
            + frac
                .map(|(g, r, a)| g as u128 * r as u128 / a as u128)
                .unwrap_or(0)
    }

    fn walk(
        &mut self,
        log: &mut Log<IseCertEvent>,
        depth: usize,
        area: u64,
        gain: u64,
    ) -> ReplayResult {
        // The solver's deterministic incumbent rule, applied at every node
        // entry: better gain, or equal gain at strictly smaller area.
        let (best_gain, best_area, _) = self.best;
        if gain > best_gain || (gain == best_gain && area < best_area) {
            let mut chosen = self.stack.clone();
            chosen.sort_unstable();
            self.best = (gain, area, chosen);
        }
        if depth == self.order.len() {
            return Ok(());
        }
        match log.next(depth)? {
            IseCertEvent::PruneBound => {
                let floor = self.bound_floor(depth, area, gain);
                if floor > self.best.0 as u128 {
                    return Err(log.fail(
                        Code::CERTB002,
                        Location::Global,
                        format!(
                            "bound prune at depth {depth} unjustified: exact relaxation \
                             floor {floor} still beats incumbent gain {}",
                            self.best.0
                        ),
                    ));
                }
                Ok(())
            }
            IseCertEvent::Expand { include } => {
                let i = self.order[depth];
                let c = &self.cands[i];
                let fits = area + c.area <= self.budget;
                let conflict = self.stack.iter().any(|&j| self.cands[j].conflicts_with(c));
                let should_include = fits && !conflict && c.total_gain() > 0;
                if include != should_include {
                    return Err(log.fail(
                        Code::CERTB003,
                        Location::Candidate(i),
                        format!(
                            "expansion at depth {depth} records include = {include}, but \
                             candidate {i} (fits = {fits}, conflict = {conflict}, gain = {}) \
                             requires include = {should_include}",
                            c.total_gain()
                        ),
                    ));
                }
                if include {
                    self.stack.push(i);
                    let r = self.walk(log, depth + 1, area + c.area, gain + c.total_gain());
                    self.stack.pop();
                    r?;
                }
                self.walk(log, depth + 1, area, gain)
            }
        }
    }
}

/// Replays an intra-task selection branch-and-bound certificate against
/// the candidate library and budget, independently confirming that the
/// returned [`Selection`] is gain-optimal (ties by area).
///
/// The solver bounds with floats; the replay uses the floor of the exact
/// rational fractional-knapsack relaxation in `u128` arithmetic, which
/// accepts every honestly-computed float prune and rejects any prune that
/// would hide an integral improvement.
pub fn check_ise_certificate(
    cands: &[CiCandidate],
    budget: u64,
    sel: &Selection,
    cert: &IseCertificate,
) -> Diagnostics {
    let show = |&(gain, area, _): &(u64, u64, Vec<usize>)| format!("gain {gain}, area {area}");
    replay(
        cert,
        &ISE,
        |_| {
            let mut order: Vec<usize> = (0..cands.len()).collect();
            order.sort_by(|&a, &b| {
                let ga = cands[a].total_gain() as u128 * cands[b].area.max(1) as u128;
                let gb = cands[b].total_gain() as u128 * cands[a].area.max(1) as u128;
                gb.cmp(&ga)
            });
            let replay = IseReplay {
                cands,
                order: order.clone(),
                budget,
                stack: Vec::new(),
                best: (0, 0, Vec::new()),
            };
            Some((order, replay))
        },
        |replay, log| replay.walk(log, 0, 0, 0),
        |replay, d| {
            let claim = (sel.total_gain, sel.total_area, sel.chosen.clone());
            compare_outcome(
                d,
                &ISE,
                Some(claim),
                Some(replay.best),
                |claim, best| (claim != *best).then(|| (show(&claim), show(best))),
                show,
            );
        },
    )
}

// ---------------------------------------------------------------------------
// RMS replay
// ---------------------------------------------------------------------------

const RMS: Words = Words {
    item: "task",
    rule: "non-decreasing-period",
    outcome: "selection",
    leaf: "schedulable",
    refuted: "unschedulable",
};

struct RmsReplay<'a> {
    specs: &'a [TaskSpec],
    order: Vec<usize>,
    budget: u64,
    periods: Vec<u64>,
    /// Full-multiples scheduling points per depth: every `j·P_k ≤ P_i`
    /// with `k ≤ i` — the checker's own Theorem 1 formulation, a superset
    /// of the solver's reduced recursive set with an equivalent
    /// exists-a-point verdict.
    points: Vec<Vec<u64>>,
    suffix_bound: Vec<f64>,
    cycles: Vec<u64>,
    config: Vec<usize>,
    best: Option<(f64, Vec<usize>)>,
}

impl<'a> RmsReplay<'a> {
    /// Re-derives the priority order and the replay tables from the
    /// specs, or reports why the task set has no search space.
    fn new(
        specs: &'a [TaskSpec],
        budget: u64,
        searched: bool,
        d: &mut Diagnostics,
    ) -> Option<(Vec<usize>, RmsReplay<'a>)> {
        if specs.is_empty() {
            if searched {
                d.error(
                    Code::CERTB001,
                    Location::Global,
                    "empty task set admits no search tree",
                );
            }
            return None;
        }
        if specs.iter().any(|s| s.period == 0) {
            d.error(
                Code::CERTB001,
                Location::Global,
                "a task has a zero period; the search space is undefined",
            );
            return None;
        }
        let mut order: Vec<usize> = (0..specs.len()).collect();
        order.sort_by_key(|&i| specs[i].period);
        let periods: Vec<u64> = order.iter().map(|&i| specs[i].period).collect();
        let points = (1..=order.len())
            .map(|depth| crate::cert::scheduling_points(&periods[..depth]))
            .collect();
        // The per-depth utilization still achievable, area ignored — the
        // same lower bound the solver prunes with, recomputed from the
        // curves.
        let mut suffix_bound = vec![0.0; specs.len() + 1];
        for depth in (0..specs.len()).rev() {
            let s = &specs[order[depth]];
            let best_u = s
                .curve
                .points()
                .iter()
                .map(|p| p.cycles as f64 / s.period as f64)
                .fold(f64::INFINITY, f64::min);
            suffix_bound[depth] = suffix_bound[depth + 1] + best_u;
        }
        let replay = RmsReplay {
            specs,
            order: order.clone(),
            budget,
            periods,
            points,
            suffix_bound,
            cycles: vec![0; specs.len()],
            config: vec![0; specs.len()],
            best: None,
        };
        Some((order, replay))
    }

    /// The exact per-task RMS test for the task at `depth` running
    /// `cand_cycles`, with the higher-priority tasks fixed along the
    /// current replay path.
    fn schedulable(&self, depth: usize, cand_cycles: u64) -> bool {
        self.points[depth].iter().any(|&t| {
            let mut load = (t as u128).div_ceil(self.periods[depth] as u128) * cand_cycles as u128;
            for k in 0..depth {
                load += (t as u128).div_ceil(self.periods[k] as u128) * self.cycles[k] as u128;
            }
            load <= t as u128
        })
    }

    fn walk(
        &mut self,
        log: &mut Log<RmsCertEvent>,
        depth: usize,
        area: u64,
        util: f64,
    ) -> ReplayResult {
        if depth == self.order.len() {
            if self.best.as_ref().is_none_or(|(b, _)| util < *b) {
                self.best = Some((util, self.config.clone()));
            }
            return Ok(());
        }
        let first = log.next(depth)?;
        if first == RmsCertEvent::PruneBound {
            let Some((b, _)) = &self.best else {
                return Err(log.fail(
                    Code::CERTB002,
                    Location::Global,
                    format!("bound prune at depth {depth} with no incumbent to prune against"),
                ));
            };
            if util + self.suffix_bound[depth] < *b - RMS_BOUND_EPS {
                return Err(log.fail(
                    Code::CERTB002,
                    Location::Global,
                    format!(
                        "bound prune at depth {depth} unjustified: utilization bound {} \
                         still beats incumbent {b}",
                        util + self.suffix_bound[depth]
                    ),
                ));
            }
            return Ok(());
        }
        let ti = self.order[depth];
        let spec = &self.specs[ti];
        // One event per configuration, fastest first, the first of which
        // was already consumed above.
        for (cfg_pos, j) in (0..spec.curve.len()).rev().enumerate() {
            let ev = if cfg_pos == 0 {
                first
            } else {
                log.next(depth)?
            };
            let p = &spec.curve.points()[j];
            match ev {
                RmsCertEvent::PruneBound => {
                    return Err(log.fail(
                        Code::CERTB001,
                        Location::Task(ti),
                        format!(
                            "bound-prune event in the middle of depth {depth}'s \
                             configuration sweep"
                        ),
                    ));
                }
                RmsCertEvent::CfgArea => {
                    if area + p.area <= self.budget {
                        return Err(log.fail(
                            Code::CERTB003,
                            Location::Task(ti),
                            format!(
                                "area prune of configuration {j} unjustified: {} + {} \
                                 fits budget {}",
                                area, p.area, self.budget
                            ),
                        ));
                    }
                }
                RmsCertEvent::CfgUnsched => {
                    if area + p.area > self.budget {
                        return Err(log.fail(
                            Code::CERTB001,
                            Location::Task(ti),
                            format!(
                                "configuration {j} recorded as unschedulable but it \
                                 exceeds the budget; events are out of order"
                            ),
                        ));
                    }
                    if self.schedulable(depth, p.cycles) {
                        return Err(log.fail(
                            Code::CERTB003,
                            Location::Task(ti),
                            format!(
                                "schedulability prune of configuration {j} unjustified: \
                                 the exact scheduling-points test passes"
                            ),
                        ));
                    }
                }
                RmsCertEvent::CfgRecurse => {
                    if area + p.area > self.budget || !self.schedulable(depth, p.cycles) {
                        return Err(log.fail(
                            Code::CERTB004,
                            Location::Task(ti),
                            format!(
                                "configuration {j} was recursed into, but the replay \
                                 finds it over budget or unschedulable"
                            ),
                        ));
                    }
                    self.config[ti] = j;
                    self.cycles[depth] = p.cycles;
                    self.walk(
                        log,
                        depth + 1,
                        area + p.area,
                        util + p.cycles as f64 / spec.period as f64,
                    )?;
                }
            }
        }
        Ok(())
    }
}

/// Replays an RMS configuration-selection branch-and-bound certificate
/// against the task specs and budget, independently confirming that the
/// claimed outcome — `Some(selection)` or `None` for an unschedulability
/// verdict — is utilization-optimal.
///
/// Schedulability prunes are justified with the checker's own
/// full-multiples scheduling-points test (as in
/// [`crate::cert::rms_exact_schedulable`]); the utilization bound is
/// recomputed from the curves and accepted at a tolerance looser than the
/// solver's, so honest float prunes always pass.
pub fn check_rms_certificate(
    specs: &[TaskSpec],
    budget: u64,
    selection: Option<&RmsSelection>,
    cert: &RmsCertificate,
) -> Diagnostics {
    let searched = !cert.events.is_empty() || selection.is_some();
    replay(
        cert,
        &RMS,
        |d| RmsReplay::new(specs, budget, searched, d),
        |replay, log| replay.walk(log, 0, 0, 0.0),
        |replay, d| {
            compare_outcome(
                d,
                &RMS,
                selection,
                replay.best,
                |sel, (util, config)| {
                    (sel.assignment.config != *config
                        || (sel.utilization - util).abs() > RMS_BOUND_EPS * util.max(1.0))
                    .then(|| {
                        (
                            format!("utilization {}", sel.utilization),
                            format!("utilization {util}"),
                        )
                    })
                },
                |(util, _)| format!("utilization {util}"),
            );
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtise_ilp::SolveError;
    use rtise_trace::bnb::SearchOpts;

    #[test]
    fn ilp_feasible_and_infeasible_certificates_replay_clean() {
        let mut m = Model::new(4);
        m.set_objective(Sense::Maximize, &[10, 40, 30, 50]);
        m.add_le(&[(0, 5), (1, 4), (2, 6), (3, 3)], 10);
        let (res, cert) = m.solve_with(SearchOpts::CERTIFIED).certified();
        let sol = res.expect("feasible");
        assert!(cert.dropped == 0 && !cert.events.is_empty());
        let d = check_ilp_certificate(&m, Some(&sol), &cert);
        assert!(d.is_clean(), "{d}");

        let mut inf = Model::new(2);
        inf.add_ge(&[(0, 1), (1, 1)], 3);
        let (res, cert) = inf.solve_with(SearchOpts::CERTIFIED).certified();
        assert_eq!(res, Err(SolveError::Infeasible));
        let d = check_ilp_certificate(&inf, None, &cert);
        assert!(d.is_clean(), "{d}");
    }

    #[test]
    fn ilp_forged_solution_is_rejected_against_replay() {
        let mut m = Model::new(3);
        m.set_objective(Sense::Maximize, &[60, 100, 120]);
        m.add_le(&[(0, 10), (1, 20), (2, 30)], 50);
        let (res, cert) = m.solve_with(SearchOpts::CERTIFIED).certified();
        let mut sol = res.expect("feasible");
        sol.objective += 1;
        let d = check_ilp_certificate(&m, Some(&sol), &cert);
        assert!(d.has(Code::CERTB005), "{d}");
    }

    #[test]
    fn ilp_truncated_certificate_reports_incomplete() {
        let mut m = Model::new(6);
        m.set_objective(Sense::Maximize, &[3, 1, 4, 1, 5, 9]);
        m.add_le(&[(0, 2), (1, 3), (2, 1), (3, 4), (4, 2), (5, 3)], 7);
        let capped = SearchOpts { cert_cap: Some(4) };
        let (res, cert) = m.solve_with(capped).certified();
        let sol = res.expect("feasible: the cap only limits recording");
        assert!(cert.dropped > 0);
        let d = check_ilp_certificate(&m, Some(&sol), &cert);
        assert!(d.has(Code::CERTB006), "{d}");
    }
}
