//! Request execution: turns a parsed [`Request`] into a self-contained,
//! checksummed response document.
//!
//! Every computation runs inside a [`Scope`] of its own, so the
//! response's `work` field is exactly the solver work the request caused
//! — including the [attributed](rtise_obs::attribute) share of
//! memoized curve/problem generation, which makes `work` deterministic
//! whether the artifact came from a memo, the disk store, or a fresh
//! computation. The response checksum covers `kind`, `work`, and the
//! rendered result (not the request id), so deduplicated and cached
//! servings share one certified document.

use crate::proto::{ReconfigReq, ReqKind, Request};
use rtise::check::serve::{check_rendered_response, rendered_checksum};
use rtise_bench::store::{Artifact, Decode};
use rtise_obs::json::{Node, Value};
use rtise_obs::Scope;

/// Replaces (or appends) a top-level field of a JSON object.
pub fn set_field(doc: &mut Value, key: &str, val: Value) {
    if let Value::Obj(pairs) = doc {
        if let Some(slot) = pairs.iter_mut().find(|(k, _)| k == key) {
            slot.1 = val;
        } else {
            pairs.push((key.to_string(), val));
        }
    }
}

fn push_field(doc: &mut Value, key: &str, val: Value) {
    if let Value::Obj(pairs) = doc {
        pairs.push((key.to_string(), val));
    }
}

/// Encodes a configuration curve with a caller-chosen name key
/// (`"kernel"` for curve results, `"name"` for embedded task curves) —
/// the same shape the artifact store persists and
/// [`rtise::check::serve`] re-certifies.
fn curve_json(curve: &rtise::ise::configs::ConfigCurve, name_key: &str) -> Value {
    Value::obj(vec![
        (name_key, curve.name.as_str().into()),
        ("base_cycles", curve.base_cycles.into()),
        (
            "points",
            Value::Arr(
                curve
                    .points()
                    .iter()
                    .map(|p| {
                        Value::obj(vec![
                            ("area", p.area.into()),
                            ("cycles", p.cycles.into()),
                            ("gain", p.gain.into()),
                            (
                                "selection",
                                Value::Arr(
                                    p.selection.iter().map(|&i| (i as u64).into()).collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn u64_arr(vals: impl IntoIterator<Item = u64>) -> Value {
    Value::Arr(vals.into_iter().map(Value::from).collect())
}

fn validate_kernels(kernels: &[String]) -> Result<(), String> {
    for k in kernels {
        if !rtise::kernels::names().any(|name| name == k) {
            return Err(format!(
                "unknown kernel {k:?} — use a suite kernel name (e.g. \"fir\")"
            ));
        }
    }
    Ok(())
}

/// Builds the task-set specs a selection request names: one memoized
/// curve per kernel, periods sized so the *software* utilization hits
/// `u0_pct` percent.
fn selection_specs(
    kernels: &[String],
    u0_pct: u64,
    level: crate::proto::Level,
) -> Result<Vec<rtise::select::TaskSpec>, String> {
    validate_kernels(kernels)?;
    if u0_pct == 0 {
        return Err("u0_pct must be positive".into());
    }
    Ok(rtise_bench::specs_for_with(
        kernels,
        u0_pct as f64 / 100.0,
        &level.options(),
    ))
}

fn specs_json(specs: &[rtise::select::TaskSpec]) -> Value {
    Value::Arr(
        specs
            .iter()
            .map(|s| {
                let mut t = curve_json(&s.curve, "name");
                push_field(&mut t, "period", s.period.into());
                t
            })
            .collect(),
    )
}

fn ppm(u: f64) -> u64 {
    (u * 1.0e6).round() as u64
}

fn compute(kind: &ReqKind) -> Result<Value, String> {
    match kind {
        ReqKind::Curve { kernel, level } => {
            validate_kernels(std::slice::from_ref(kernel))?;
            let curve = rtise_bench::cached_curve_with(kernel, &level.options());
            Ok(curve_json(&curve, "kernel"))
        }
        ReqKind::SelectEdf {
            kernels,
            u0_pct,
            budget,
            level,
        } => {
            let specs = selection_specs(kernels, *u0_pct, *level)?;
            let sel = rtise::select::select_edf(&specs, *budget).map_err(|e| e.to_string())?;
            Ok(Value::obj(vec![
                ("budget", (*budget).into()),
                ("tasks", specs_json(&specs)),
                (
                    "assignment",
                    u64_arr(sel.assignment.config.iter().map(|&c| c as u64)),
                ),
                ("utilization_ppm", ppm(sel.utilization).into()),
                ("schedulable", Value::Bool(sel.schedulable)),
            ]))
        }
        ReqKind::SelectRms {
            kernels,
            u0_pct,
            budget,
            level,
        } => {
            let specs = selection_specs(kernels, *u0_pct, *level)?;
            let sel = rtise::select::rms::select_rms(&specs, *budget).map_err(|e| e.to_string())?;
            Ok(Value::obj(vec![
                ("budget", (*budget).into()),
                ("tasks", specs_json(&specs)),
                (
                    "assignment",
                    u64_arr(sel.assignment.config.iter().map(|&c| c as u64)),
                ),
                ("utilization_ppm", ppm(sel.utilization).into()),
            ]))
        }
        ReqKind::Ilp { seed } => {
            let mut rng = rtise_obs::Rng::new(*seed);
            let model = rtise_fuzz::gen::ilp_model(
                &mut rng,
                &rtise_fuzz::gen::IlpOptions {
                    min_vars: 4,
                    max_vars: 10,
                    max_rows: 6,
                    le_rows_only: true,
                },
            );
            let sol = model
                .solve()
                .map_err(|e| format!("ilp solve failed: {e}"))?;
            let rows: Vec<Value> = (0..model.num_rows())
                .map(|i| {
                    let (terms, cmp, rhs) = model.row(i);
                    Value::obj(vec![
                        (
                            "cmp",
                            match cmp {
                                rtise::ilp::Cmp::Le => "le",
                                rtise::ilp::Cmp::Ge => "ge",
                                rtise::ilp::Cmp::Eq => "eq",
                            }
                            .into(),
                        ),
                        ("rhs", Value::Num(rhs as f64)),
                        (
                            "terms",
                            Value::Arr(
                                terms
                                    .iter()
                                    .map(|&(v, c)| {
                                        Value::Arr(vec![(v as u64).into(), Value::Num(c as f64)])
                                    })
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect();
            let model_json = Value::obj(vec![
                ("vars", (model.num_vars() as u64).into()),
                (
                    "sense",
                    match model.sense() {
                        rtise::ilp::Sense::Minimize => "min",
                        rtise::ilp::Sense::Maximize => "max",
                    }
                    .into(),
                ),
                (
                    "objective",
                    Value::Arr(
                        model
                            .objective()
                            .iter()
                            .map(|&c| Value::Num(c as f64))
                            .collect(),
                    ),
                ),
                ("rows", Value::Arr(rows)),
            ]);
            Ok(Value::obj(vec![
                ("seed", (*seed).into()),
                ("model", model_json),
                ("objective", Value::Num(sol.objective as f64)),
                ("values", u64_arr(sol.values.iter().map(|&b| u64::from(b)))),
            ]))
        }
        ReqKind::Reconfig(req) => {
            let (problem, partition_seed) = match req {
                ReconfigReq::Jpeg {
                    fabric_pct,
                    reconfig_cost,
                    level,
                } => {
                    if *fabric_pct == 0 || *fabric_pct > 100 {
                        return Err("fabric_pct must be in 1..=100".into());
                    }
                    let base = rtise_bench::cached_jpeg_problem_with(&level.options());
                    let full: u64 = base.loops.iter().map(|l| l.best().area).sum();
                    let mut p = base;
                    p.max_area = (full * fabric_pct / 100).max(1);
                    p.reconfig_cost = *reconfig_cost;
                    (p, 9)
                }
                ReconfigReq::Synthetic { n, seed } => {
                    if *n == 0 || *n > 12 {
                        return Err("synthetic n must be in 1..=12".into());
                    }
                    (
                        rtise::reconfig::partition::synthetic_problem(*n as usize, *seed),
                        *seed,
                    )
                }
            };
            let sol = rtise::reconfig::iterative_partition(&problem, partition_seed);
            let net_gain = sol.net_gain(&problem);
            Ok(Value::obj(vec![
                ("problem", Artifact::encode(&problem)),
                ("version", u64_arr(sol.version.iter().map(|&v| v as u64))),
                ("config", u64_arr(sol.config.iter().map(|&c| c as u64))),
                ("net_gain", Value::Num(net_gain as f64)),
            ]))
        }
    }
}

/// An `ok: false` response.
#[must_use]
pub fn error_response(id: u64, msg: &str) -> Value {
    Value::obj(vec![
        ("id", id.into()),
        ("ok", Value::Bool(false)),
        ("error", msg.into()),
    ])
}

/// Executes one request to a complete response document: the document
/// of [`execute_rendered`].
///
/// Never panics outward: a panicking computation becomes an `ok: false`
/// response, so one poisoned request cannot take its serving thread
/// down.
#[must_use]
pub fn execute(req: &Request) -> Value {
    execute_rendered(req).0
}

/// Executes one request to a complete response document and its compact
/// [`render`](Value::render), rendered once: a successful response is
/// rendered with a `null` checksum, the checksum is taken over the
/// `result` bytes of that render, and then written over the `null` in
/// both.
#[must_use]
pub fn execute_rendered(req: &Request) -> (Value, String) {
    let (work, result) = match outcome(req) {
        Ok(done) => done,
        Err(msg) => {
            let doc = error_response(req.id, &msg);
            let text = doc.render();
            return (doc, text);
        }
    };
    let kind = req.kind.name();
    let mut doc = Value::obj(vec![
        ("id", req.id.into()),
        ("ok", Value::Bool(true)),
        ("kind", kind.into()),
        ("work", work.into()),
        ("result", result),
        ("checksum", Value::Null),
    ]);
    let mut text = doc.render();
    let result = doc
        .member_range_around("result", text.len())
        .expect("the render of a document with a result");
    let sum: Value = format!("{:016x}", rendered_checksum(kind, work, &text[result])).into();
    text.truncate(text.len() - "null}".len());
    sum.render_into(&mut text);
    text.push('}');
    set_field(&mut doc, "checksum", sum);
    (doc, text)
}

/// Computes a request in a scope of its own: the work it charged and its
/// result, or the error message, a caught panic included.
fn outcome(req: &Request) -> Result<(u64, Value), String> {
    let scope = Scope::new();
    let outcome = {
        // The request's scope nests in whatever the caller has entered: a
        // traced load-test lane has entered only its trace scope here,
        // which receives the request span and its solver events.
        let _guard = scope.enter();
        let _span = rtise_trace::enabled().then(|| rtise_trace::span(req.kind.name()));
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| compute(&req.kind)))
    };
    match outcome {
        Ok(Ok(result)) => Ok((scope.counters().values().sum(), result)),
        Ok(Err(msg)) => Err(msg),
        Err(panic) => {
            let msg = panic
                .downcast_ref::<&str>()
                .map(ToString::to_string)
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "computation panicked".into());
            Err(format!("internal error: {msg}"))
        }
    }
}

/// A complete response document as an artifact-store entry (family
/// `response`), keyed by the request's [dedup key](crate::proto::dedup_key)
/// with the id normalized to 0. Decoding re-runs the full
/// [`check_response`](rtise::check::serve::check_response) certification
/// on the entry's tape, so a corrupted or forged store entry is evicted
/// and recomputed instead of served, and then builds the owned document.
/// The server's store hits decode the same entries into response slots
/// instead, building no document.
pub struct ResponseArtifact(pub Value);

impl Decode for ResponseArtifact {
    const FAMILY: &'static str = "response";

    fn decode(payload: Node<'_>) -> Result<Self, String> {
        certify_stored(payload)?;
        Ok(ResponseArtifact(payload.to_value()))
    }
}

impl Artifact for ResponseArtifact {
    fn encode(&self) -> Value {
        self.0.clone()
    }
}

/// Re-certifies a stored response from the node of its payload, whose
/// [`source`](Node::source) is the payload's render: the response
/// checksum is taken over the `result` bytes that node spans.
///
/// # Errors
///
/// The first line of the certifier's findings.
pub(crate) fn certify_stored(payload: Node<'_>) -> Result<(), String> {
    let result = payload.get("result").map_or("", Node::source);
    let d = check_rendered_response(payload, result);
    if d.is_clean() {
        Ok(())
    } else {
        Err(format!(
            "stored response fails re-certification: {}",
            d.render().lines().next().unwrap_or("(no detail)")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{parse, Level};
    use rtise::check::serve::check_response;

    fn run(line: &str) -> Value {
        execute(&parse(line).expect("request parses"))
    }

    #[test]
    fn curve_response_certifies_clean() {
        let resp = run(r#"{"id": 1, "kind": "curve", "kernel": "fir"}"#);
        let d = check_response(&resp);
        assert!(d.is_clean(), "{}", d.render());
        assert_eq!(resp.get("id").and_then(Value::as_f64), Some(1.0));
    }

    #[test]
    fn unknown_kernel_is_a_clean_error_response() {
        let resp = run(r#"{"id": 2, "kind": "curve", "kernel": "nope"}"#);
        assert!(check_response(&resp).is_clean());
        assert!(resp
            .get("error")
            .and_then(Value::as_str)
            .expect("error message")
            .contains("unknown kernel"));
    }

    #[test]
    fn every_kind_certifies_clean() {
        for line in [
            r#"{"id": 1, "kind": "select_edf", "kernels": ["fir", "crc32"], "u0_pct": 100, "budget": 128}"#,
            r#"{"id": 2, "kind": "select_rms", "kernels": ["fir"], "u0_pct": 60, "budget": 128}"#,
            r#"{"id": 3, "kind": "ilp", "seed": 5}"#,
            r#"{"id": 4, "kind": "reconfig", "problem": "synthetic", "n": 6, "seed": 3}"#,
        ] {
            let resp = run(line);
            let d = check_response(&resp);
            assert!(d.is_clean(), "{line}: {}", d.render());
        }
    }

    /// The render `execute_rendered` hands back is the document's, whose
    /// checksum certifies, for every kind and for error responses.
    #[test]
    fn the_executed_render_is_the_render_of_the_response() {
        for line in [
            r#"{"id": 1, "kind": "curve", "kernel": "crc32", "level": "fast"}"#,
            r#"{"id": 2, "kind": "select_edf", "kernels": ["fir", "crc32"], "u0_pct": 100, "budget": 128}"#,
            r#"{"id": 3, "kind": "select_rms", "kernels": ["fir"], "u0_pct": 60, "budget": 128}"#,
            r#"{"id": 4, "kind": "ilp", "seed": 5}"#,
            r#"{"id": 5, "kind": "reconfig", "problem": "synthetic", "n": 6, "seed": 3}"#,
            r#"{"id": 6, "kind": "curve", "kernel": "nope"}"#,
        ] {
            let req = parse(line).expect("request parses");
            let (doc, text) = execute_rendered(&req);
            assert_eq!(text, doc.render(), "{line}");
            assert!(check_response(&doc).is_clean(), "{line}");
        }
    }

    #[test]
    fn work_is_deterministic_and_id_independent() {
        let a = run(r#"{"id": 1, "kind": "ilp", "seed": 2}"#);
        let b = run(r#"{"id": 99, "kind": "ilp", "seed": 2}"#);
        assert_eq!(
            a.get("work").and_then(Value::as_f64),
            b.get("work").and_then(Value::as_f64)
        );
        assert_eq!(
            a.get("checksum").and_then(Value::as_str),
            b.get("checksum").and_then(Value::as_str),
            "checksum excludes the id"
        );
        assert!(a.get("work").and_then(Value::as_f64).unwrap_or(0.0) > 0.0);
    }

    #[test]
    fn level_reaches_the_curve_pipeline() {
        let fast = Level::Fast.options();
        let thorough = Level::Thorough.options();
        assert_ne!(format!("{fast:?}"), format!("{thorough:?}"));
    }
}
