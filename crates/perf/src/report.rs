//! The versioned BENCH JSON document: construction, schema validation,
//! and baseline comparison.
//!
//! The committed `BENCH_N.json` files form the repo's performance
//! trajectory; CI regenerates a smoke-mode document with the same sweep
//! and fails when any (kernel, size) point regresses past
//! [`REGRESSION_FACTOR`] (2.5x, plus a 2 µs noise floor). Both
//! sides of that comparison go through [`validate`] first, so a corrupted
//! or hand-doctored baseline is an error, never a silent pass.

use rtise_obs::json::Value;

use crate::kernels::SizePoint;
use crate::measure::MeasureOptions;

/// The format this crate writes. [`validate`] also accepts older
/// still-readable formats (v1, which lacks the per-point `p50_ns_op` /
/// `p99_ns_op` percentiles), so committed v1 baselines keep comparing
/// against fresh v2 runs — [`compare`] only consults `opt_ns_op`, present
/// in both.
pub const FORMAT_VERSION: u64 = 2;

/// Oldest format [`validate`] still accepts.
pub const MIN_FORMAT_VERSION: u64 = 1;

/// Rounds to 0.1 ns so committed baselines do not churn in meaningless
/// decimals.
fn round1(x: f64) -> f64 {
    (x * 10.0).round() / 10.0
}

fn point_json(p: &SizePoint) -> Value {
    Value::obj(vec![
        ("size", Value::from(p.size as u64)),
        ("batch", Value::from(p.batch as u64)),
        ("ref_ns_op", Value::Num(round1(p.ref_ns_op))),
        ("opt_ns_op", Value::Num(round1(p.opt_ns_op))),
        ("p50_ns_op", Value::Num(round1(p.p50_ns_op))),
        ("p99_ns_op", Value::Num(round1(p.p99_ns_op))),
        ("speedup", Value::Num((p.speedup * 100.0).round() / 100.0)),
        ("counters", Value::from(&p.counters)),
    ])
}

/// Builds the report document from per-kernel sweeps.
pub fn build(
    mode: &str,
    seed: u64,
    m: &MeasureOptions,
    results: &[(String, Vec<SizePoint>)],
) -> Value {
    Value::obj(vec![
        ("format", Value::from(FORMAT_VERSION)),
        ("suite", Value::from("rtise-perf")),
        ("mode", Value::from(mode)),
        ("seed", Value::from(seed)),
        ("warmup", Value::from(u64::from(m.warmup))),
        ("iters", Value::from(u64::from(m.iters))),
        (
            "kernels",
            Value::Arr(
                results
                    .iter()
                    .map(|(name, points)| {
                        Value::obj(vec![
                            ("name", Value::from(name.as_str())),
                            ("sizes", Value::Arr(points.iter().map(point_json).collect())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn field_f64(obj: &Value, key: &str, ctx: &str) -> Result<f64, String> {
    obj.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("{ctx}: missing or non-numeric {key:?}"))
}

/// Structural check of a BENCH document. Catches truncation, schema
/// drift, and nonsense values (non-positive timings, duplicate or
/// unsorted sweep points).
pub fn validate(doc: &Value) -> Result<(), String> {
    let format = field_f64(doc, "format", "report")? as u64;
    if !(MIN_FORMAT_VERSION..=FORMAT_VERSION).contains(&format) {
        return Err(format!(
            "report: unsupported format (want {MIN_FORMAT_VERSION}..={FORMAT_VERSION})"
        ));
    }
    if doc.get("suite").and_then(Value::as_str) != Some("rtise-perf") {
        return Err("report: suite is not \"rtise-perf\"".into());
    }
    match doc.get("mode").and_then(Value::as_str) {
        Some("full") | Some("smoke") => {}
        _ => return Err("report: mode must be \"full\" or \"smoke\"".into()),
    }
    for key in ["seed", "warmup", "iters"] {
        field_f64(doc, key, "report")?;
    }
    let kernels = doc
        .get("kernels")
        .and_then(Value::as_arr)
        .ok_or("report: missing kernels array")?;
    if kernels.is_empty() {
        return Err("report: no kernels".into());
    }
    for kernel in kernels {
        let name = kernel
            .get("name")
            .and_then(Value::as_str)
            .ok_or("kernel: missing name")?;
        let points = kernel
            .get("sizes")
            .and_then(Value::as_arr)
            .ok_or_else(|| format!("kernel {name}: missing sizes array"))?;
        if points.is_empty() {
            return Err(format!("kernel {name}: empty sweep"));
        }
        let mut last_size = 0.0;
        for point in points {
            let ctx = format!("kernel {name}");
            let size = field_f64(point, "size", &ctx)?;
            if size <= last_size {
                return Err(format!("kernel {name}: sizes not strictly increasing"));
            }
            last_size = size;
            // v1 predates the per-point percentiles; require them from v2 on.
            let mut keys = vec!["batch", "ref_ns_op", "opt_ns_op", "speedup"];
            if format >= 2 {
                keys.extend(["p50_ns_op", "p99_ns_op"]);
            }
            for key in keys {
                if field_f64(point, key, &ctx)? <= 0.0 {
                    return Err(format!("kernel {name} size {size}: non-positive {key:?}"));
                }
            }
            match point.get("counters") {
                Some(Value::Obj(_)) => {}
                _ => return Err(format!("kernel {name} size {size}: missing counters")),
            }
        }
    }
    Ok(())
}

/// How many times slower than its baseline a point may run before
/// [`compare`] flags it (on top of [`NOISE_FLOOR_NS`]). One bound for
/// every kernel and size; the `bench --baseline` gate reads it here.
pub const REGRESSION_FACTOR: f64 = 2.5;

/// Absolute slack added to every regression threshold. Sub-microsecond
/// cells jitter by whole multiples under scheduler/frequency noise; a
/// purely multiplicative gate on them would flake. Two microseconds is
/// irrelevant for every cell large enough to regress meaningfully.
pub const NOISE_FLOOR_NS: f64 = 2000.0;

/// One point of the current run that is slower than the baseline allows.
#[derive(Debug, Clone)]
pub struct Regression {
    /// Kernel name.
    pub kernel: String,
    /// Sweep size the regression occurred at.
    pub size: u64,
    /// Baseline optimized ns/op.
    pub baseline_ns: f64,
    /// Current optimized ns/op.
    pub current_ns: f64,
    /// `current_ns / baseline_ns`.
    pub ratio: f64,
}

fn opt_ns_by_size(kernel: &Value) -> Result<Vec<(u64, f64)>, String> {
    let name = kernel.get("name").and_then(Value::as_str).unwrap_or("?");
    kernel
        .get("sizes")
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("kernel {name}: missing sizes"))?
        .iter()
        .map(|p| {
            let ctx = format!("kernel {name}");
            Ok((
                field_f64(p, "size", &ctx)? as u64,
                field_f64(p, "opt_ns_op", &ctx)?,
            ))
        })
        .collect()
}

/// Compares a current run against a committed baseline: every (kernel,
/// size) point of the baseline must exist in the current run (schema
/// drift fails loudly) and its optimized ns/op may be at most
/// [`REGRESSION_FACTOR`] times the baseline value plus [`NOISE_FLOOR_NS`]. Both documents are
/// [`validate`]d first.
pub fn compare(current: &Value, baseline: &Value) -> Result<Vec<Regression>, String> {
    validate(current).map_err(|e| format!("current run: {e}"))?;
    validate(baseline).map_err(|e| format!("baseline: {e}"))?;
    let mut regressions = Vec::new();
    for base_kernel in baseline.get("kernels").and_then(Value::as_arr).unwrap() {
        let name = base_kernel
            .get("name")
            .and_then(Value::as_str)
            .unwrap()
            .to_string();
        let cur_kernel = current
            .get("kernels")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .find(|k| k.get("name").and_then(Value::as_str) == Some(&name))
            .ok_or_else(|| format!("kernel {name} is in the baseline but not the current run"))?;
        let cur_points = opt_ns_by_size(cur_kernel)?;
        for (size, baseline_ns) in opt_ns_by_size(base_kernel)? {
            let (_, current_ns) = cur_points
                .iter()
                .find(|(s, _)| *s == size)
                .ok_or_else(|| format!("kernel {name} size {size} missing from current run"))?;
            let ratio = current_ns / baseline_ns.max(f64::MIN_POSITIVE);
            if *current_ns > REGRESSION_FACTOR * baseline_ns + NOISE_FLOOR_NS {
                regressions.push(Regression {
                    kernel: name.clone(),
                    size,
                    baseline_ns,
                    current_ns: *current_ns,
                    ratio,
                });
            }
        }
    }
    Ok(regressions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn sample_report(opt_ns: f64) -> Value {
        let mut counters = BTreeMap::new();
        counters.insert("k.calls".to_string(), 8u64);
        let point = SizePoint {
            size: 4,
            batch: 8,
            ref_ns_op: opt_ns * 3.0,
            opt_ns_op: opt_ns,
            p50_ns_op: opt_ns,
            p99_ns_op: opt_ns * 1.5,
            speedup: 3.0,
            counters,
        };
        build(
            "full",
            5,
            &MeasureOptions::full(),
            &[("edf_dp".to_string(), vec![point])],
        )
    }

    /// Recursively drops the v2 per-point percentile fields, yielding the
    /// point shape v1 documents carry.
    fn strip_percentiles(v: &Value) -> Value {
        match v {
            Value::Obj(pairs) => Value::Obj(
                pairs
                    .iter()
                    .filter(|(k, _)| k != "p50_ns_op" && k != "p99_ns_op")
                    .map(|(k, v)| (k.clone(), strip_percentiles(v)))
                    .collect(),
            ),
            Value::Arr(items) => Value::Arr(items.iter().map(strip_percentiles).collect()),
            other => other.clone(),
        }
    }

    fn set_format(doc: Value, format: u64) -> Value {
        let Value::Obj(pairs) = doc else {
            panic!("report is not an object")
        };
        Value::Obj(
            pairs
                .into_iter()
                .map(|(k, v)| {
                    if k == "format" {
                        (k, Value::from(format))
                    } else {
                        (k, v)
                    }
                })
                .collect(),
        )
    }

    /// Committed v1 baselines (no per-point percentiles) must keep
    /// validating and comparing against fresh v2 runs; a v2 document
    /// missing its percentiles is damage, not a downgrade.
    #[test]
    fn v1_baselines_still_validate_and_compare() {
        let stripped = strip_percentiles(&sample_report(100_000.0));
        assert!(
            validate(&stripped).is_err(),
            "v2 without percentiles passed validation"
        );
        let baseline = set_format(stripped, 1);
        validate(&baseline).expect("v1 document must validate");
        assert!(
            compare(&sample_report(200_000.0), &baseline)
                .expect("cross-format comparison")
                .is_empty(),
            "2x inside a 2.5x budget is not a regression"
        );
        let regressions =
            compare(&sample_report(300_000.0), &baseline).expect("cross-format comparison");
        assert_eq!(regressions.len(), 1);
        assert!(
            validate(&set_format(sample_report(100.0), 3)).is_err(),
            "future formats must be rejected"
        );
    }

    #[test]
    fn built_reports_pass_validation_and_round_trip() {
        let report = sample_report(100.0);
        validate(&report).expect("fresh report must validate");
        let parsed = rtise_obs::json::parse(&report.render_pretty()).expect("renders valid JSON");
        validate(&parsed).expect("parsed report must validate");
        assert_eq!(parsed.render(), report.render());
    }

    #[test]
    fn validation_rejects_structural_damage() {
        let ok = sample_report(100.0);
        // Drop each top-level field in turn: every removal must fail.
        if let Value::Obj(pairs) = &ok {
            for i in 0..pairs.len() {
                let mut damaged = pairs.clone();
                damaged.remove(i);
                assert!(
                    validate(&Value::Obj(damaged)).is_err(),
                    "dropping {:?} passed validation",
                    pairs[i].0
                );
            }
        } else {
            panic!("report is not an object");
        }

        let empty = build("full", 5, &MeasureOptions::full(), &[]);
        assert!(validate(&empty).is_err(), "no kernels must be rejected");
    }

    #[test]
    fn comparison_flags_regressions_and_schema_drift() {
        let baseline = sample_report(100_000.0);
        assert!(
            compare(&sample_report(200_000.0), &baseline)
                .expect("comparable")
                .is_empty(),
            "2x inside a 2.5x budget is not a regression"
        );
        // The noise floor shields microsecond-scale jitter but not real
        // regressions.
        assert!(
            compare(&sample_report(2_100.0), &sample_report(100.0))
                .expect("comparable")
                .is_empty(),
            "sub-noise-floor deltas are not regressions"
        );

        let regressions = compare(&sample_report(300_000.0), &baseline).expect("comparable");
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].kernel, "edf_dp");
        assert_eq!(regressions[0].size, 4);
        assert!(regressions[0].ratio > 2.5);

        // A baseline kernel missing from the current run is an error, not
        // a pass.
        let renamed = build(
            "full",
            5,
            &MeasureOptions::full(),
            &[(
                "other".to_string(),
                vec![SizePoint {
                    size: 4,
                    batch: 8,
                    ref_ns_op: 3.0,
                    opt_ns_op: 1.0,
                    p50_ns_op: 1.0,
                    p99_ns_op: 1.0,
                    speedup: 3.0,
                    counters: BTreeMap::from([("k".to_string(), 1u64)]),
                }],
            )],
        );
        assert!(compare(&renamed, &baseline).is_err());
    }
}
