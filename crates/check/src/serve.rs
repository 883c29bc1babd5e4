//! Serve-protocol response certification.
//!
//! `rtise-serve` answers design-space-exploration requests with
//! line-delimited JSON responses whose `result` payloads are
//! *self-contained*: a selection response embeds the task curves and
//! budget it was solved against, an ILP response embeds the full model,
//! a reconfiguration response embeds the problem. That makes every
//! response independently checkable — this module re-verifies a response
//! from first principles without trusting the server: structural shape
//! (`SRV001`/`SRV002`/`SRV005`), the FNV-1a content checksum (`SRV003`),
//! and the embedded result via the same certificate checkers
//! `reproduce --check` uses (`SRV004`, with the underlying `CERT…`
//! findings merged in as evidence).
//!
//! The serve load-test gates on this checker for every response, and the
//! artifact store re-runs it whenever a cached response is loaded from
//! disk.

use crate::cert;
use crate::diag::{Code, Diagnostics, Location};
use rtise_ilp::{Cmp, Model, Sense, Solution as IlpSolution};
use rtise_ise::configs::{ConfigCurve, ConfigPoint};
use rtise_obs::json::Value;
use rtise_obs::Fnv1a;
use rtise_reconfig::{CisVersion, HotLoop, ReconfigProblem, Solution as ReconfigSolution};
use rtise_select::edf::EdfSelection;
use rtise_select::rms::RmsSelection;
use rtise_select::{Assignment, TaskSpec};

/// The request kinds a response may declare.
pub const KINDS: [&str; 5] = ["curve", "select_edf", "select_rms", "ilp", "reconfig"];

/// The checksum a clean response must carry: FNV-1a over the kind, the
/// claimed work units, and the rendered result payload. The request id
/// is deliberately excluded so deduplicated and cached servings of the
/// same computation share one checksum.
#[must_use]
pub fn response_checksum(kind: &str, work: u64, result: &Value) -> u64 {
    rendered_checksum(kind, work, &result.render())
}

/// [`response_checksum`] of an already rendered result, hashed piece by
/// piece: `result` is the compact [`render`](Value::render) of the
/// result, for a caller that already holds it.
#[must_use]
pub fn rendered_checksum(kind: &str, work: u64, result: &str) -> u64 {
    let mut hasher = Fnv1a::new();
    for piece in [kind, &work.to_string()] {
        hasher.write(piece.as_bytes());
        hasher.write(b"|");
    }
    hasher.write(result.as_bytes());
    hasher.finish()
}

fn as_bool(v: &Value) -> Option<bool> {
    match v {
        Value::Bool(b) => Some(*b),
        _ => None,
    }
}

fn field_u64(d: &mut Diagnostics, doc: &Value, key: &str) -> Option<u64> {
    let v = doc.get(key).and_then(Value::as_u64);
    if v.is_none() {
        d.error(
            Code::SRV001,
            Location::Global,
            format!("required field {key:?} is missing or not an unsigned integer"),
        );
    }
    v
}

fn field_i64(d: &mut Diagnostics, doc: &Value, key: &str) -> Option<i64> {
    let v = doc
        .get(key)
        .and_then(Value::as_f64)
        .filter(|n| n.is_finite() && n.fract() == 0.0 && n.abs() < 9.0e15);
    if v.is_none() {
        d.error(
            Code::SRV001,
            Location::Global,
            format!("required field {key:?} is missing or not an integer"),
        );
    }
    v.map(|n| n as i64)
}

fn u64_arr(doc: &Value, key: &str) -> Option<Vec<u64>> {
    let mut out = Vec::new();
    for v in doc.get(key).and_then(Value::as_arr)? {
        out.push(v.as_u64()?);
    }
    Some(out)
}

/// Decodes an embedded curve payload `{kernel|name, base_cycles, points}`.
fn decode_curve(doc: &Value, name_key: &str) -> Result<ConfigCurve, String> {
    let name = doc
        .get(name_key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("curve {name_key} missing"))?;
    let base_cycles = doc
        .get("base_cycles")
        .and_then(Value::as_u64)
        .ok_or("curve base_cycles missing")?;
    let mut points = Vec::new();
    for p in doc
        .get("points")
        .and_then(Value::as_arr)
        .ok_or("curve points missing")?
    {
        let mut nums = [0u64; 3];
        for (slot, key) in nums.iter_mut().zip(["area", "cycles", "gain"]) {
            *slot = p
                .get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("curve point {key} missing"))?;
        }
        let selection = u64_arr(p, "selection")
            .ok_or("curve point selection missing")?
            .into_iter()
            .map(|i| i as usize)
            .collect();
        points.push(ConfigPoint {
            area: nums[0],
            cycles: nums[1],
            gain: nums[2],
            selection,
        });
    }
    Ok(ConfigCurve::from_saved(name, base_cycles, points))
}

/// Whether the decoded curve kept every payload point: `from_saved`
/// silently drops dominated points and appends a missing software point,
/// so a forged payload can normalize into a *valid* curve. Requiring the
/// staircase to round-trip catches that.
fn curve_round_trips(payload: &Value, curve: &ConfigCurve) -> bool {
    let Some(raw) = payload.get("points").and_then(Value::as_arr) else {
        return false;
    };
    let has_zero = raw
        .iter()
        .any(|p| p.get("area").and_then(Value::as_f64) == Some(0.0));
    curve.len() == raw.len() + usize::from(!has_zero)
}

fn check_curve_result(d: &mut Diagnostics, result: &Value) {
    match decode_curve(result, "kernel") {
        Ok(curve) => {
            if !curve_round_trips(result, &curve) {
                d.error(
                    Code::SRV004,
                    Location::Global,
                    "embedded curve does not survive staircase normalization \
                     (dominated or duplicate points)",
                );
                return;
            }
            let inner = cert::check_curve(&curve);
            if !inner.is_clean() {
                d.error(
                    Code::SRV004,
                    Location::Global,
                    "embedded curve fails independent staircase re-certification",
                );
                d.merge(inner);
            }
        }
        Err(e) => d.error(Code::SRV001, Location::Global, e),
    }
}

/// Rebuilds the task specs a selection response embeds; every curve is
/// re-certified on the way.
fn decode_specs(d: &mut Diagnostics, result: &Value) -> Option<Vec<TaskSpec>> {
    let Some(tasks) = result.get("tasks").and_then(Value::as_arr) else {
        d.error(Code::SRV001, Location::Global, "tasks array missing");
        return None;
    };
    let mut specs = Vec::new();
    for (i, t) in tasks.iter().enumerate() {
        let curve = match decode_curve(t, "name") {
            Ok(c) => c,
            Err(e) => {
                d.error(Code::SRV001, Location::Task(i), e);
                return None;
            }
        };
        let inner = cert::check_curve(&curve);
        if !curve_round_trips(t, &curve) || !inner.is_clean() {
            d.error(
                Code::SRV004,
                Location::Task(i),
                "embedded task curve fails staircase re-certification",
            );
            d.merge(inner);
            return None;
        }
        let Some(period) = t
            .get("period")
            .and_then(Value::as_f64)
            .filter(|n| n.is_finite() && *n > 0.0 && n.fract() == 0.0)
        else {
            d.error(Code::SRV001, Location::Task(i), "task period missing");
            return None;
        };
        specs.push(TaskSpec::new(curve, period as u64));
    }
    Some(specs)
}

fn decode_assignment(d: &mut Diagnostics, result: &Value, n_tasks: usize) -> Option<Assignment> {
    let Some(config) = u64_arr(result, "assignment") else {
        d.error(Code::SRV001, Location::Global, "assignment array missing");
        return None;
    };
    if config.len() != n_tasks {
        d.error(
            Code::SRV004,
            Location::Global,
            format!("assignment covers {} of {n_tasks} tasks", config.len()),
        );
        return None;
    }
    Some(Assignment {
        config: config.into_iter().map(|c| c as usize).collect(),
    })
}

/// Compares a claimed parts-per-million utilization against an
/// independent recomputation (±1 ppm for rounding).
fn check_utilization_ppm(d: &mut Diagnostics, claimed_ppm: u64, recomputed: f64) {
    let recomputed_ppm = (recomputed * 1.0e6).round() as i64;
    if (claimed_ppm as i64 - recomputed_ppm).abs() > 1 {
        d.error(
            Code::SRV004,
            Location::Global,
            format!(
                "claimed utilization {claimed_ppm} ppm, independent recomputation \
                 gives {recomputed_ppm} ppm"
            ),
        );
    }
}

fn check_select_edf_result(d: &mut Diagnostics, result: &Value) {
    let (Some(budget), Some(claimed_ppm)) = (
        field_u64(d, result, "budget"),
        field_u64(d, result, "utilization_ppm"),
    ) else {
        return;
    };
    let Some(schedulable) = result.get("schedulable").and_then(as_bool) else {
        d.error(Code::SRV001, Location::Global, "schedulable flag missing");
        return;
    };
    let Some(specs) = decode_specs(d, result) else {
        return;
    };
    let Some(assignment) = decode_assignment(d, result, specs.len()) else {
        return;
    };
    if assignment
        .config
        .iter()
        .zip(&specs)
        .any(|(&c, s)| c >= s.curve.points().len())
    {
        d.error(
            Code::SRV004,
            Location::Global,
            "assignment indexes a configuration beyond its curve",
        );
        return;
    }
    let utilization = assignment.utilization(&specs);
    check_utilization_ppm(d, claimed_ppm, utilization);
    let sel = EdfSelection {
        assignment,
        utilization,
        schedulable,
    };
    let inner = cert::check_edf_selection(&specs, &sel, budget);
    if !inner.is_clean() {
        d.error(
            Code::SRV004,
            Location::Global,
            "embedded EDF selection fails independent re-certification",
        );
        d.merge(inner);
    }
}

fn check_select_rms_result(d: &mut Diagnostics, result: &Value) {
    let (Some(budget), Some(claimed_ppm)) = (
        field_u64(d, result, "budget"),
        field_u64(d, result, "utilization_ppm"),
    ) else {
        return;
    };
    let Some(specs) = decode_specs(d, result) else {
        return;
    };
    let Some(assignment) = decode_assignment(d, result, specs.len()) else {
        return;
    };
    if assignment
        .config
        .iter()
        .zip(&specs)
        .any(|(&c, s)| c >= s.curve.points().len())
    {
        d.error(
            Code::SRV004,
            Location::Global,
            "assignment indexes a configuration beyond its curve",
        );
        return;
    }
    let utilization = assignment.utilization(&specs);
    check_utilization_ppm(d, claimed_ppm, utilization);
    let sel = RmsSelection {
        assignment,
        utilization,
    };
    let inner = cert::check_rms_selection(&specs, &sel, budget);
    if !inner.is_clean() {
        d.error(
            Code::SRV004,
            Location::Global,
            "embedded RMS selection fails independent re-certification",
        );
        d.merge(inner);
    }
}

fn check_ilp_result(d: &mut Diagnostics, result: &Value) {
    let Some(model_json) = result.get("model") else {
        d.error(Code::SRV001, Location::Global, "ilp model missing");
        return;
    };
    let Some(vars) = field_u64(d, model_json, "vars") else {
        return;
    };
    let n = vars as usize;
    let sense = match model_json.get("sense").and_then(Value::as_str) {
        Some("min") => Sense::Minimize,
        Some("max") => Sense::Maximize,
        _ => {
            d.error(Code::SRV001, Location::Global, "ilp sense missing");
            return;
        }
    };
    let Some(obj_arr) = model_json.get("objective").and_then(Value::as_arr) else {
        d.error(Code::SRV001, Location::Global, "ilp objective missing");
        return;
    };
    let mut objective = Vec::new();
    for c in obj_arr {
        let Some(c) = c
            .as_f64()
            .filter(|x| x.is_finite() && x.fract() == 0.0 && x.abs() < 9.0e15)
        else {
            d.error(Code::SRV001, Location::Global, "ilp objective malformed");
            return;
        };
        objective.push(c as i64);
    }
    if objective.len() != n {
        d.error(
            Code::SRV001,
            Location::Global,
            format!(
                "ilp objective has {} coefficients for {n} vars",
                objective.len()
            ),
        );
        return;
    }
    let mut model = Model::new(n);
    model.set_objective(sense, &objective);
    let Some(rows) = model_json.get("rows").and_then(Value::as_arr) else {
        d.error(Code::SRV001, Location::Global, "ilp rows missing");
        return;
    };
    for (r, row) in rows.iter().enumerate() {
        let Some(rhs) = row
            .get("rhs")
            .and_then(Value::as_f64)
            .filter(|x| x.is_finite() && x.fract() == 0.0 && x.abs() < 9.0e15)
            .map(|x| x as i64)
        else {
            d.error(Code::SRV001, Location::Row(r), "ilp row rhs missing");
            return;
        };
        let Some(term_arr) = row.get("terms").and_then(Value::as_arr) else {
            d.error(Code::SRV001, Location::Row(r), "ilp row terms missing");
            return;
        };
        let mut terms = Vec::new();
        for t in term_arr {
            let (Some(pair), 2) = (t.as_arr(), t.as_arr().map_or(0, <[Value]>::len)) else {
                d.error(Code::SRV001, Location::Row(r), "ilp term is not a pair");
                return;
            };
            let idx = pair[0].as_u64().map(|x| x as usize);
            let coeff = pair[1]
                .as_f64()
                .filter(|x| x.is_finite() && x.fract() == 0.0 && x.abs() < 9.0e15)
                .map(|x| x as i64);
            let (Some(idx), Some(coeff)) = (idx, coeff) else {
                d.error(Code::SRV001, Location::Row(r), "ilp term malformed");
                return;
            };
            if idx >= n {
                d.error(
                    Code::SRV001,
                    Location::Row(r),
                    format!("ilp term indexes var {idx} of {n}"),
                );
                return;
            }
            terms.push((idx, coeff));
        }
        match row.get("cmp").and_then(Value::as_str) {
            Some("le") => model.add_le(&terms, rhs),
            Some("ge") => model.add_ge(&terms, rhs),
            Some("eq") => model.add_eq(&terms, rhs),
            _ => {
                d.error(Code::SRV001, Location::Row(r), "ilp row cmp missing");
                return;
            }
        }
    }
    let _ = Cmp::Le; // row comparisons round-trip through the model above
    let (Some(objective_value), Some(values)) =
        (field_i64(d, result, "objective"), u64_arr(result, "values"))
    else {
        if result.get("values").is_none() {
            d.error(Code::SRV001, Location::Global, "ilp values missing");
        }
        return;
    };
    if values.len() != n || values.iter().any(|&v| v > 1) {
        d.error(
            Code::SRV001,
            Location::Global,
            "ilp values are not one 0/1 entry per variable",
        );
        return;
    }
    let sol = IlpSolution {
        objective: objective_value,
        values: values.into_iter().map(|v| v == 1).collect(),
        nodes: 0,
    };
    let inner = cert::check_ilp_solution(&model, &sol);
    if !inner.is_clean() {
        d.error(
            Code::SRV004,
            Location::Global,
            "embedded ILP solution fails independent row/objective re-certification",
        );
        d.merge(inner);
    }
}

fn check_reconfig_result(d: &mut Diagnostics, result: &Value) {
    let Some(problem_json) = result.get("problem") else {
        d.error(Code::SRV001, Location::Global, "reconfig problem missing");
        return;
    };
    let (Some(max_area), Some(reconfig_cost)) = (
        field_u64(d, problem_json, "max_area"),
        field_u64(d, problem_json, "reconfig_cost"),
    ) else {
        return;
    };
    let Some(loops_json) = problem_json.get("loops").and_then(Value::as_arr) else {
        d.error(Code::SRV001, Location::Global, "reconfig loops missing");
        return;
    };
    let mut loops = Vec::new();
    for (i, l) in loops_json.iter().enumerate() {
        let Some(name) = l.get("name").and_then(Value::as_str) else {
            d.error(Code::SRV001, Location::Loop(i), "loop name missing");
            return;
        };
        let mut versions = Vec::new();
        let Some(version_arr) = l.get("versions").and_then(Value::as_arr) else {
            d.error(Code::SRV001, Location::Loop(i), "loop versions missing");
            return;
        };
        for v in version_arr {
            let area = v.get("area").and_then(Value::as_u64);
            let gain = v.get("gain").and_then(Value::as_u64);
            let (Some(area), Some(gain)) = (area, gain) else {
                d.error(Code::SRV001, Location::Loop(i), "loop version malformed");
                return;
            };
            versions.push(CisVersion { area, gain });
        }
        loops.push(HotLoop::new(name, &versions));
    }
    let Some(trace) = u64_arr(problem_json, "trace") else {
        d.error(Code::SRV001, Location::Global, "reconfig trace missing");
        return;
    };
    let problem = ReconfigProblem {
        loops,
        trace: trace.into_iter().map(|t| t as usize).collect(),
        max_area,
        reconfig_cost,
    };
    if let Err(e) = problem.validate() {
        d.error(
            Code::SRV004,
            Location::Global,
            format!("embedded reconfiguration problem fails validation: {e}"),
        );
        return;
    }
    let (Some(version), Some(config)) = (u64_arr(result, "version"), u64_arr(result, "config"))
    else {
        d.error(
            Code::SRV001,
            Location::Global,
            "reconfig version/config arrays missing",
        );
        return;
    };
    let Some(net_gain) = field_i64(d, result, "net_gain") else {
        return;
    };
    let sol = ReconfigSolution {
        version: version.into_iter().map(|v| v as usize).collect(),
        config: config.into_iter().map(|c| c as usize).collect(),
    };
    let inner = cert::check_reconfig_solution(&problem, &sol, Some(net_gain));
    if !inner.is_clean() {
        d.error(
            Code::SRV004,
            Location::Global,
            "embedded reconfiguration solution fails independent trace-walk re-certification",
        );
        d.merge(inner);
    }
}

/// Certifies one serve response document from first principles.
///
/// Structural problems report `SRV001`/`SRV002`/`SRV005`, checksum
/// mismatches `SRV003`, and semantic failures of the embedded result
/// `SRV004` with the underlying `CERT…` findings merged in. A clean
/// error response (`ok: false` with a non-empty message) certifies
/// clean: refusing a malformed request is correct behavior.
#[must_use]
pub fn check_response(doc: &Value) -> Diagnostics {
    let result = doc.get("result").map(Value::render).unwrap_or_default();
    check_rendered_response(doc, &result)
}

/// [`check_response`] given `result`, the compact
/// [`render`](Value::render) of `doc`'s `result` member (the first, as
/// [`Value::get`] finds it), which the checksum is computed over instead
/// of a fresh render. `result` is not read when `doc` has no such member.
#[must_use]
pub fn check_rendered_response(doc: &Value, result: &str) -> Diagnostics {
    let mut d = Diagnostics::new();
    if !matches!(doc, Value::Obj(_)) {
        d.error(Code::SRV001, Location::Global, "response is not an object");
        return d;
    }
    if field_u64(&mut d, doc, "id").is_none() {
        return d;
    }
    let Some(ok) = doc.get("ok").and_then(as_bool) else {
        d.error(Code::SRV001, Location::Global, "ok flag missing");
        return d;
    };
    if !ok {
        // Error responses carry a message and nothing else of substance.
        match doc.get("error").and_then(Value::as_str) {
            Some(msg) if !msg.is_empty() => {}
            _ => d.error(
                Code::SRV005,
                Location::Global,
                "error response lacks a non-empty error message",
            ),
        }
        if doc.get("result").is_some() {
            d.error(
                Code::SRV005,
                Location::Global,
                "error response also carries a result payload",
            );
        }
        return d;
    }
    let Some(kind) = doc.get("kind").and_then(Value::as_str) else {
        d.error(Code::SRV001, Location::Global, "kind missing");
        return d;
    };
    if !KINDS.contains(&kind) {
        d.error(
            Code::SRV002,
            Location::Global,
            format!("unknown request kind {kind:?}"),
        );
        return d;
    }
    let Some(work) = field_u64(&mut d, doc, "work") else {
        return d;
    };
    let Some(result_doc) = doc.get("result") else {
        d.error(Code::SRV001, Location::Global, "result payload missing");
        return d;
    };
    let claimed = doc
        .get("checksum")
        .and_then(Value::as_str)
        .and_then(|s| u64::from_str_radix(s, 16).ok());
    let Some(claimed) = claimed else {
        d.error(Code::SRV001, Location::Global, "checksum missing");
        return d;
    };
    if claimed != rendered_checksum(kind, work, result) {
        d.error(
            Code::SRV003,
            Location::Global,
            "response checksum disagrees with the result payload",
        );
        return d;
    }
    match kind {
        "curve" => check_curve_result(&mut d, result_doc),
        "select_edf" => check_select_edf_result(&mut d, result_doc),
        "select_rms" => check_select_rms_result(&mut d, result_doc),
        "ilp" => check_ilp_result(&mut d, result_doc),
        "reconfig" => check_reconfig_result(&mut d, result_doc),
        _ => unreachable!("kind membership checked above"),
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    fn curve_result() -> Value {
        Value::obj(vec![
            ("kernel", "toy".into()),
            ("base_cycles", 100u64.into()),
            (
                "points",
                Value::Arr(vec![
                    Value::obj(vec![
                        ("area", 0u64.into()),
                        ("cycles", 100u64.into()),
                        ("gain", 0u64.into()),
                        ("selection", Value::Arr(vec![])),
                    ]),
                    Value::obj(vec![
                        ("area", 8u64.into()),
                        ("cycles", 70u64.into()),
                        ("gain", 30u64.into()),
                        ("selection", Value::Arr(vec![0u64.into()])),
                    ]),
                ]),
            ),
        ])
    }

    fn response(kind: &str, work: u64, result: Value) -> Value {
        let sum = response_checksum(kind, work, &result);
        Value::obj(vec![
            ("id", 7u64.into()),
            ("ok", Value::Bool(true)),
            ("kind", kind.into()),
            ("work", work.into()),
            ("result", result),
            ("checksum", format!("{sum:016x}").into()),
        ])
    }

    /// The streamed checksum hashes the bytes the joined string did, so
    /// responses certified before keep their checksums.
    #[test]
    fn response_checksum_hashes_kind_work_and_the_rendered_result() {
        let result = curve_result();
        let joined = format!("curve|42|{}", result.render());
        assert_eq!(
            response_checksum("curve", 42, &result),
            rtise_obs::fnv1a(joined.as_bytes())
        );
    }

    #[test]
    fn clean_curve_response_certifies_clean() {
        let d = check_response(&response("curve", 42, curve_result()));
        assert!(d.is_clean(), "{}", d.render());
    }

    #[test]
    fn clean_error_response_certifies_clean() {
        let doc = Value::obj(vec![
            ("id", 3u64.into()),
            ("ok", Value::Bool(false)),
            ("error", "unknown kernel \"nope\"".into()),
        ]);
        assert!(check_response(&doc).is_clean());
    }

    #[test]
    fn malformed_error_response_is_srv005() {
        let doc = Value::obj(vec![
            ("id", 3u64.into()),
            ("ok", Value::Bool(false)),
            ("error", "".into()),
        ]);
        assert!(check_response(&doc).has(Code::SRV005));
    }

    #[test]
    fn unknown_kind_is_srv002() {
        let d = check_response(&response("teleport", 1, curve_result()));
        assert!(d.has(Code::SRV002));
    }

    #[test]
    fn doctored_result_is_srv003() {
        let mut doc = response("curve", 42, curve_result());
        // Bump the work field without fixing the checksum.
        if let Value::Obj(pairs) = &mut doc {
            for (k, v) in pairs.iter_mut() {
                if k == "work" {
                    *v = 43u64.into();
                }
            }
        }
        assert!(check_response(&doc).has(Code::SRV003));
    }

    #[test]
    fn checksum_consistent_but_broken_staircase_is_srv004() {
        // A non-monotone staircase with a *recomputed* checksum: the
        // envelope is consistent, only the semantics are wrong.
        let mut result = curve_result();
        if let Value::Obj(pairs) = &mut result {
            for (k, v) in pairs.iter_mut() {
                if k == "points" {
                    if let Value::Arr(points) = v {
                        if let Value::Obj(p1) = &mut points[1] {
                            for (pk, pv) in p1.iter_mut() {
                                if pk == "cycles" {
                                    *pv = 101u64.into(); // worse than base at positive area
                                }
                            }
                        }
                    }
                }
            }
        }
        let d = check_response(&response("curve", 42, result));
        assert!(d.has(Code::SRV004), "{}", d.render());
    }

    #[test]
    fn missing_fields_are_srv001() {
        let doc = Value::obj(vec![("id", 1u64.into()), ("ok", Value::Bool(true))]);
        assert!(check_response(&doc).has(Code::SRV001));
        assert!(check_response(&Value::Arr(vec![])).has(Code::SRV001));
    }
}
