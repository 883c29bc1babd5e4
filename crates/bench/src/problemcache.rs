//! Reconfiguration-base-problem artifact family of the sharded
//! [`store`](mod@crate::store).
//!
//! Building the Ch. 6 base problem (`workbench::reconfig_problem`)
//! re-runs the traced kernel and harvests a CIS version table for every
//! hot loop — the same expensive front-end the curve cache amortizes for
//! configuration curves. This module contributes the family-specific
//! pieces — a logical key covering every generation input, the
//! loop-table + trace payload encoding, and a decoder that re-validates
//! the reconstructed problem (version tables must round-trip through
//! [`HotLoop::new`]'s normalization, trace indices must be in range) —
//! and delegates sharding, checksums, atomic writes, eviction, and the
//! `cache.problem.*` telemetry to the shared store core.

use crate::store::{u64_field, Artifact};
use rtise::reconfig::{CisVersion, HotLoop, ReconfigProblem};
use rtise::workbench::CurveOptions;
use rtise_obs::json::Value;

/// Every input that determines a generated base problem (the
/// `workbench::reconfig_problem` argument list).
#[derive(Debug, Clone, Copy)]
pub struct ProblemKey<'a> {
    /// Kernel name.
    pub kernel: &'a str,
    /// Hardware versions harvested per hot loop.
    pub n_versions: usize,
    /// Fabric area of the generated problem.
    pub max_area: u64,
    /// Reconfiguration cost of the generated problem.
    pub reconfig_cost: u64,
    /// Curve/harvest tuning (its `Debug` rendering covers every knob).
    pub opts: CurveOptions,
}

/// The logical key of an entry: the full generation-input set. The store
/// prefixes the format version and family.
pub fn options_key(key: &ProblemKey<'_>) -> String {
    format!(
        "{}|nv{}|a{}|r{}|{:?}",
        key.kernel, key.n_versions, key.max_area, key.reconfig_cost, key.opts
    )
}

impl Artifact for ReconfigProblem {
    const FAMILY: &'static str = "problem";

    fn encode(&self) -> Value {
        Value::obj(vec![
            (
                "loops",
                Value::Arr(
                    self.loops
                        .iter()
                        .map(|l| {
                            Value::obj(vec![
                                ("name", l.name.as_str().into()),
                                (
                                    "versions",
                                    Value::Arr(
                                        l.versions()
                                            .iter()
                                            .map(|v| {
                                                Value::obj(vec![
                                                    ("area", v.area.into()),
                                                    ("gain", v.gain.into()),
                                                ])
                                            })
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "trace",
                Value::Arr(self.trace.iter().map(|&t| (t as u64).into()).collect()),
            ),
            ("max_area", self.max_area.into()),
            ("reconfig_cost", self.reconfig_cost.into()),
        ])
    }

    fn decode(payload: Value, _rendered: &str) -> Result<Self, String> {
        let mut loops = Vec::new();
        for l in payload
            .get("loops")
            .and_then(Value::as_arr)
            .ok_or("malformed loops")?
        {
            let name = l
                .get("name")
                .and_then(Value::as_str)
                .ok_or("malformed loop name")?;
            let mut versions = Vec::new();
            for v in l
                .get("versions")
                .and_then(Value::as_arr)
                .ok_or("malformed versions")?
            {
                versions.push(CisVersion {
                    area: u64_field(v, "area")?,
                    gain: u64_field(v, "gain")?,
                });
            }
            // Re-validation: a stored table must round-trip through the
            // constructor's normalization (software version present,
            // sorted by area, deduplicated) — anything the constructor
            // would reorder was not produced by the generator.
            let rebuilt = HotLoop::new(name, &versions);
            if rebuilt.versions() != versions.as_slice() {
                return Err(format!(
                    "loop {name:?} stores a non-normalized version table"
                ));
            }
            loops.push(rebuilt);
        }
        let mut trace = Vec::new();
        for t in payload
            .get("trace")
            .and_then(Value::as_arr)
            .ok_or("malformed trace")?
        {
            trace.push(t.as_u64().ok_or("malformed trace")? as usize);
        }
        let problem = ReconfigProblem {
            loops,
            trace,
            max_area: u64_field(&payload, "max_area")?,
            reconfig_cost: u64_field(&payload, "reconfig_cost")?,
        };
        // Independent re-validation of trace index ranges.
        problem.validate().map_err(|e| e.to_string())?;
        Ok(problem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{self, entry_path, load};
    use rtise_obs::{Hist, Rng};
    use std::collections::BTreeMap;
    use std::path::PathBuf;

    fn problem() -> ReconfigProblem {
        ReconfigProblem {
            loops: vec![
                HotLoop::new(
                    "dct",
                    &[
                        CisVersion { area: 4, gain: 120 },
                        CisVersion { area: 9, gain: 200 },
                    ],
                ),
                HotLoop::new("quant", &[CisVersion { area: 3, gain: 80 }]),
            ],
            trace: vec![0, 1, 0, 1, 0],
            max_area: 9,
            reconfig_cost: 1000,
        }
    }

    fn key(kernel: &str) -> ProblemKey<'_> {
        ProblemKey {
            kernel,
            n_versions: 2,
            max_area: 9,
            reconfig_cost: 1000,
            opts: CurveOptions::fast(),
        }
    }

    fn counters() -> BTreeMap<String, u64> {
        BTreeMap::from([
            ("ise.enumerate.calls".to_string(), 5u64),
            ("workbench.problems".to_string(), 1),
        ])
    }

    fn hists() -> BTreeMap<String, Hist> {
        let mut h = Hist::new();
        for v in [1, 2, 4, 8] {
            h.observe(v);
        }
        BTreeMap::from([("ilp.depth".to_string(), h)])
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("rtise-problemcache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn assert_problems_equal(a: &ReconfigProblem, b: &ReconfigProblem) {
        assert_eq!(a.loops, b.loops);
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.max_area, b.max_area);
        assert_eq!(a.reconfig_cost, b.reconfig_cost);
    }

    #[test]
    fn round_trips_problem_counters_and_hists() {
        let dir = tmp_dir("roundtrip");
        store::store(
            &dir,
            "toy",
            &options_key(&key("toy")),
            &problem(),
            &counters(),
            &hists(),
        )
        .expect("store");
        let (loaded, attrib, attrib_hists) =
            load::<ReconfigProblem>(&dir, "toy", &options_key(&key("toy"))).expect("hit");
        assert_problems_equal(&loaded, &problem());
        assert_eq!(attrib, counters());
        assert_eq!(attrib_hists, hists());
        // Different generation inputs miss (the key covers them all).
        let mut thorough = key("toy");
        thorough.opts = CurveOptions::thorough();
        assert!(load::<ReconfigProblem>(&dir, "toy", &options_key(&thorough)).is_none());
        let mut more_versions = key("toy");
        more_versions.n_versions = 3;
        assert!(load::<ReconfigProblem>(&dir, "toy", &options_key(&more_versions)).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_entry_is_a_plain_miss() {
        let dir = tmp_dir("miss");
        assert!(load::<ReconfigProblem>(&dir, "toy", &options_key(&key("toy"))).is_none());
    }

    /// Seeded truncations and bit flips of a valid entry must always fall
    /// back to a miss (recompute), never panic in the JSON parser, and
    /// must delete the bad entry.
    #[test]
    fn corrupted_entries_fall_back_to_recompute() {
        let dir = tmp_dir("corrupt");
        let key = key("toy");
        let path = entry_path::<ReconfigProblem>(&dir, "toy", &options_key(&key));
        let mut rng = Rng::new(0x9b1e_cafe);
        for case in 0..64u32 {
            store::store(
                &dir,
                "toy",
                &options_key(&key),
                &problem(),
                &counters(),
                &hists(),
            )
            .expect("store");
            let pristine = std::fs::read(&path).expect("read");
            let mut bytes = pristine.clone();
            if case % 2 == 0 {
                // Truncate somewhere strictly inside the document.
                let cut = 1 + rng.gen_range(0..bytes.len() as u64 - 1) as usize;
                bytes.truncate(cut);
            } else {
                // Flip one bit of one byte.
                let at = rng.gen_range(0..bytes.len() as u64) as usize;
                bytes[at] ^= 1u8 << rng.gen_range(0..8u32);
                if bytes == pristine {
                    continue;
                }
            }
            std::fs::write(&path, &bytes).expect("corrupt");
            assert!(
                load::<ReconfigProblem>(&dir, "toy", &options_key(&key)).is_none(),
                "case {case}: corrupted entry must miss"
            );
            assert!(
                !path.exists(),
                "case {case}: rejected entry must be removed"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn doctored_but_parseable_entries_are_rejected() {
        let dir = tmp_dir("doctored");
        let key = key("toy");
        let path = entry_path::<ReconfigProblem>(&dir, "toy", &options_key(&key));
        store::store(
            &dir,
            "toy",
            &options_key(&key),
            &problem(),
            &counters(),
            &hists(),
        )
        .expect("store");
        // A value edit that keeps the JSON valid still trips the checksum.
        let text = std::fs::read_to_string(&path).expect("read");
        let doctored = text.replace("\"gain\":120", "\"gain\":121");
        assert_ne!(doctored, text, "the edit must hit the stored problem");
        std::fs::write(&path, doctored).expect("write");
        assert!(load::<ReconfigProblem>(&dir, "toy", &options_key(&key)).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Checksum-consistent entries that fail semantic re-validation
    /// (non-normalized version tables, out-of-range trace indices) are
    /// rejected too — the checksum guards bit rot, not generator bugs.
    #[test]
    fn entries_failing_revalidation_are_rejected() {
        let dir = tmp_dir("revalidate");
        let key = key("toy");

        // A version table missing the software (0, 0) version: the
        // constructor would insert it, so the table cannot round-trip.
        // Forge a checksum-consistent envelope around it.
        let payload = Value::obj(vec![
            (
                "loops",
                Value::Arr(vec![Value::obj(vec![
                    ("name", "dct".into()),
                    (
                        "versions",
                        Value::Arr(vec![Value::obj(vec![
                            ("area", 4u64.into()),
                            ("gain", 120u64.into()),
                        ])]),
                    ),
                ])]),
            ),
            ("trace", Value::Arr(vec![0u64.into()])),
            ("max_area", 9u64.into()),
            ("reconfig_cost", 1000u64.into()),
        ]);
        let doc = store::encode_envelope::<ReconfigProblem>(
            &options_key(&key),
            payload,
            &counters(),
            &hists(),
        );
        let path = entry_path::<ReconfigProblem>(&dir, "toy", &options_key(&key));
        std::fs::create_dir_all(path.parent().expect("shard dir")).expect("dir");
        std::fs::write(&path, doc.render_pretty()).expect("write");
        assert!(
            load::<ReconfigProblem>(&dir, "toy", &options_key(&key)).is_none(),
            "denormalized table must miss"
        );

        // An out-of-range trace index survives the checksum but not
        // `ReconfigProblem::validate`.
        let mut bad_trace = problem();
        bad_trace.trace = vec![0, 7];
        store::store(
            &dir,
            "toy",
            &options_key(&key),
            &bad_trace,
            &counters(),
            &hists(),
        )
        .expect("store");
        assert!(
            load::<ReconfigProblem>(&dir, "toy", &options_key(&key)).is_none(),
            "bad trace index must miss"
        );

        let _ = std::fs::remove_dir_all(&dir);
    }
}
