//! The wire protocol: line-delimited JSON requests.
//!
//! Each request is one JSON object per line with an `id` (echoed back on
//! the response), a `kind`, and kind-specific parameters. All numeric
//! parameters are integers, so a request renders identically everywhere
//! and its [`dedup_key`] — which drops the `id` — is a stable string:
//! two requests for the same computation share a key, share an in-flight
//! slot on the server, and share an artifact-store entry on disk.
//!
//! ```text
//! {"id": 1, "kind": "curve", "kernel": "fir", "level": "fast"}
//! {"id": 2, "kind": "select_edf", "kernels": ["fir", "crc32"], "u0_pct": 100, "budget": 256, "level": "fast"}
//! {"id": 3, "kind": "select_rms", "kernels": ["fir", "crc32"], "u0_pct": 60, "budget": 256, "level": "fast"}
//! {"id": 4, "kind": "ilp", "seed": 5}
//! {"id": 5, "kind": "reconfig", "problem": "jpeg", "fabric_pct": 30, "reconfig_cost": 1500, "level": "fast"}
//! {"id": 6, "kind": "reconfig", "problem": "synthetic", "n": 8, "seed": 3}
//! ```

use rtise_obs::json::Value;

/// Curve-generation quality level, mapping to
/// [`rtise::workbench::CurveOptions`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// Reduced settings ([`rtise::workbench::CurveOptions::fast`]).
    Fast,
    /// Full-quality settings
    /// ([`rtise::workbench::CurveOptions::thorough`]).
    Thorough,
}

impl Level {
    /// The wire name.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Fast => "fast",
            Level::Thorough => "thorough",
        }
    }

    /// The curve options this level denotes.
    #[must_use]
    pub fn options(self) -> rtise::workbench::CurveOptions {
        match self {
            Level::Fast => rtise::workbench::CurveOptions::fast(),
            Level::Thorough => rtise::workbench::CurveOptions::thorough(),
        }
    }
}

/// The reconfiguration instance a `reconfig` request names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReconfigReq {
    /// The JPEG case study, with the fabric sized to `fabric_pct` percent
    /// of the full-custom area and the given reload cost.
    Jpeg {
        /// Fabric area as a percentage of the sum of best-version areas.
        fabric_pct: u64,
        /// Reconfiguration (reload) cost in cycles.
        reconfig_cost: u64,
        /// Curve quality for the underlying kernel profiling.
        level: Level,
    },
    /// A seeded synthetic instance
    /// ([`rtise::reconfig::partition::synthetic_problem`]).
    Synthetic {
        /// Number of hot loops.
        n: u64,
        /// Generator seed.
        seed: u64,
    },
}

/// What a request asks the server to compute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReqKind {
    /// One kernel's configuration curve.
    Curve {
        /// Kernel name from the benchmark suite.
        kernel: String,
        /// Curve quality.
        level: Level,
    },
    /// EDF instruction-set selection over a task set.
    SelectEdf {
        /// Task kernels, in task order.
        kernels: Vec<String>,
        /// Baseline (software) utilization target, in percent.
        u0_pct: u64,
        /// Area budget in cells.
        budget: u64,
        /// Curve quality.
        level: Level,
    },
    /// RMS instruction-set selection over a task set.
    SelectRms {
        /// Task kernels, in task order.
        kernels: Vec<String>,
        /// Baseline utilization target, in percent.
        u0_pct: u64,
        /// Area budget in cells.
        budget: u64,
        /// Curve quality.
        level: Level,
    },
    /// A seeded knapsack-shaped ILP solved to optimality.
    Ilp {
        /// Instance seed.
        seed: u64,
    },
    /// A temporal-partitioning (reconfiguration) instance.
    Reconfig(ReconfigReq),
}

impl ReqKind {
    /// The wire/response `kind` string.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            ReqKind::Curve { .. } => "curve",
            ReqKind::SelectEdf { .. } => "select_edf",
            ReqKind::SelectRms { .. } => "select_rms",
            ReqKind::Ilp { .. } => "ilp",
            ReqKind::Reconfig(_) => "reconfig",
        }
    }
}

/// One parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Caller-chosen id, echoed on the response.
    pub id: u64,
    /// The computation asked for.
    pub kind: ReqKind,
}

/// The content key identifying a computation independent of who asked:
/// every generation input appears, the request id does not. Doubles as
/// the server's in-flight dedup key and the artifact-store key.
#[must_use]
pub fn dedup_key(kind: &ReqKind) -> String {
    match kind {
        ReqKind::Curve { kernel, level } => format!("curve|{kernel}|{}", level.as_str()),
        ReqKind::SelectEdf {
            kernels,
            u0_pct,
            budget,
            level,
        } => format!(
            "edf|{}|u{u0_pct}|b{budget}|{}",
            kernels.join(","),
            level.as_str()
        ),
        ReqKind::SelectRms {
            kernels,
            u0_pct,
            budget,
            level,
        } => format!(
            "rms|{}|u{u0_pct}|b{budget}|{}",
            kernels.join(","),
            level.as_str()
        ),
        ReqKind::Ilp { seed } => format!("ilp|s{seed}"),
        ReqKind::Reconfig(ReconfigReq::Jpeg {
            fabric_pct,
            reconfig_cost,
            level,
        }) => format!(
            "reconfig|jpeg|f{fabric_pct}|r{reconfig_cost}|{}",
            level.as_str()
        ),
        ReqKind::Reconfig(ReconfigReq::Synthetic { n, seed }) => {
            format!("reconfig|syn|n{n}|s{seed}")
        }
    }
}

fn get_u64(doc: &Value, key: &str) -> Result<u64, String> {
    doc.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("field {key:?} is missing or not an unsigned integer"))
}

fn get_level(doc: &Value) -> Result<Level, String> {
    match doc.get("level").and_then(Value::as_str) {
        None | Some("fast") => Ok(Level::Fast),
        Some("thorough") => Ok(Level::Thorough),
        Some(other) => Err(format!(
            "unknown level {other:?} — supported: \"fast\", \"thorough\""
        )),
    }
}

/// Most tasks one selection request may name. Each task is a level of an
/// exponential branch-and-bound search, so the list length is bounded
/// before any work is queued.
pub const MAX_TASKS: usize = 64;

fn get_kernels(doc: &Value) -> Result<Vec<String>, String> {
    let arr = doc
        .get("kernels")
        .and_then(Value::as_arr)
        .ok_or("field \"kernels\" is missing or not an array")?;
    if arr.is_empty() {
        return Err("field \"kernels\" is empty".into());
    }
    if arr.len() > MAX_TASKS {
        return Err(format!(
            "field \"kernels\" names {} tasks, more than the limit of {MAX_TASKS}",
            arr.len()
        ));
    }
    arr.iter()
        .map(|v| {
            v.as_str()
                .map(String::from)
                .ok_or_else(|| "field \"kernels\" contains a non-string".into())
        })
        .collect()
}

/// Parses one request line.
///
/// # Errors
///
/// A human-readable description of what is malformed; the server turns it
/// into an `ok: false` response.
pub fn parse(line: &str) -> Result<Request, String> {
    let doc =
        rtise_obs::json::parse(line).map_err(|e| format!("request is not valid JSON: {e}"))?;
    if !matches!(doc, Value::Obj(_)) {
        return Err("request is not a JSON object".into());
    }
    let id = get_u64(&doc, "id")?;
    let kind = match doc.get("kind").and_then(Value::as_str) {
        Some("curve") => ReqKind::Curve {
            kernel: doc
                .get("kernel")
                .and_then(Value::as_str)
                .ok_or("field \"kernel\" is missing")?
                .to_string(),
            level: get_level(&doc)?,
        },
        Some("select_edf") => ReqKind::SelectEdf {
            kernels: get_kernels(&doc)?,
            u0_pct: get_u64(&doc, "u0_pct")?,
            budget: get_u64(&doc, "budget")?,
            level: get_level(&doc)?,
        },
        Some("select_rms") => ReqKind::SelectRms {
            kernels: get_kernels(&doc)?,
            u0_pct: get_u64(&doc, "u0_pct")?,
            budget: get_u64(&doc, "budget")?,
            level: get_level(&doc)?,
        },
        Some("ilp") => ReqKind::Ilp {
            seed: get_u64(&doc, "seed")?,
        },
        Some("reconfig") => match doc.get("problem").and_then(Value::as_str) {
            Some("jpeg") => ReqKind::Reconfig(ReconfigReq::Jpeg {
                fabric_pct: get_u64(&doc, "fabric_pct")?,
                reconfig_cost: get_u64(&doc, "reconfig_cost")?,
                level: get_level(&doc)?,
            }),
            Some("synthetic") => ReqKind::Reconfig(ReconfigReq::Synthetic {
                n: get_u64(&doc, "n")?,
                seed: get_u64(&doc, "seed")?,
            }),
            _ => return Err("reconfig \"problem\" must be \"jpeg\" or \"synthetic\"".into()),
        },
        Some(other) => {
            return Err(format!(
                "unknown kind {other:?} — supported: curve, select_edf, select_rms, ilp, reconfig"
            ))
        }
        None => return Err("field \"kind\" is missing".into()),
    };
    Ok(Request { id, kind })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_kind() {
        let lines = [
            r#"{"id": 1, "kind": "curve", "kernel": "fir"}"#,
            r#"{"id": 2, "kind": "select_edf", "kernels": ["fir"], "u0_pct": 100, "budget": 256}"#,
            r#"{"id": 3, "kind": "select_rms", "kernels": ["fir"], "u0_pct": 60, "budget": 256}"#,
            r#"{"id": 4, "kind": "ilp", "seed": 5}"#,
            r#"{"id": 5, "kind": "reconfig", "problem": "jpeg", "fabric_pct": 30, "reconfig_cost": 1500}"#,
            r#"{"id": 6, "kind": "reconfig", "problem": "synthetic", "n": 8, "seed": 3}"#,
        ];
        for (i, line) in lines.iter().enumerate() {
            let req = parse(line).expect(line);
            assert_eq!(req.id, i as u64 + 1);
        }
    }

    #[test]
    fn dedup_key_ignores_id_and_covers_params() {
        let a = parse(r#"{"id": 1, "kind": "curve", "kernel": "fir"}"#).unwrap();
        let b = parse(r#"{"id": 9, "kind": "curve", "kernel": "fir", "level": "fast"}"#).unwrap();
        let c =
            parse(r#"{"id": 1, "kind": "curve", "kernel": "fir", "level": "thorough"}"#).unwrap();
        assert_eq!(dedup_key(&a.kind), dedup_key(&b.kind));
        assert_ne!(dedup_key(&a.kind), dedup_key(&c.kind));
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse("not json").is_err());
        assert!(parse(r#"{"id": 1}"#).is_err());
        assert!(parse(r#"{"id": 1, "kind": "teleport"}"#).is_err());
        assert!(parse(r#"{"id": 1, "kind": "curve"}"#).is_err());
        assert!(parse(
            r#"{"id": 1, "kind": "select_edf", "kernels": [], "u0_pct": 1, "budget": 1}"#
        )
        .is_err());
        assert!(parse(r#"{"id": 1, "kind": "curve", "kernel": "fir", "level": "warp"}"#).is_err());
        let rms = |n: usize| {
            let kernels = vec![r#""fir""#; n].join(", ");
            format!(
                r#"{{"id": 1, "kind": "select_rms", "kernels": [{kernels}], "u0_pct": 60, "budget": 1}}"#
            )
        };
        assert!(parse(&rms(MAX_TASKS)).is_ok());
        let err = parse(&rms(MAX_TASKS + 1)).unwrap_err();
        assert!(err.contains(&MAX_TASKS.to_string()), "{err}");
    }
}
