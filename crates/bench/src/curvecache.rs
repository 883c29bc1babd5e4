//! Configuration-curve artifact family of the sharded
//! [`store`](mod@crate::store).
//!
//! Curve harvests dominate the harness's runtime (`tab4_2`/`tab6_1` and
//! friends re-sweep thorough candidate enumerations), yet their inputs
//! are fully determined by the kernel name and the [`CurveOptions`]. This
//! module contributes the family-specific pieces — the logical key (the
//! derived `Debug` rendering of the options covers every harvest knob),
//! the point-staircase payload encoding, and a decoder that re-certifies
//! the reconstructed curve with `rtise-check`'s independent staircase
//! checker — and delegates sharding, checksums, atomic writes, eviction,
//! and the `cache.curve.*` telemetry to the shared store core.

use crate::store::{u64_field, Artifact, Decode};
use rtise::ise::configs::{ConfigCurve, ConfigPoint};
use rtise::workbench::CurveOptions;
use rtise_obs::json::{Node, Value};

/// The logical key of a curve: kernel plus the full option set. The
/// store prefixes the format version and family.
pub fn options_key(kernel: &str, opts: &CurveOptions) -> String {
    format!("{kernel}|{opts:?}")
}

impl Artifact for ConfigCurve {
    fn encode(&self) -> Value {
        Value::obj(vec![
            ("kernel", self.name.as_str().into()),
            ("base_cycles", self.base_cycles.into()),
            (
                "points",
                Value::Arr(
                    self.points()
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
}

impl Decode for ConfigCurve {
    const FAMILY: &'static str = "curve";

    fn decode(payload: Node<'_>) -> Result<Self, String> {
        let kernel = payload
            .get("kernel")
            .and_then(Node::as_str)
            .ok_or("malformed kernel")?;
        let base_cycles = u64_field(payload, "base_cycles")?;
        let mut points = Vec::new();
        for p in payload
            .get("points")
            .and_then(Node::items)
            .ok_or("malformed points")?
        {
            let selection = p
                .get("selection")
                .and_then(Node::items)
                .ok_or("malformed selection")?
                .map(|v| {
                    v.as_u64()
                        .map(|n| n as usize)
                        .ok_or_else(|| "malformed selection".to_string())
                })
                .collect::<Result<Vec<usize>, String>>()?;
            points.push(ConfigPoint {
                area: u64_field(p, "area")?,
                cycles: u64_field(p, "cycles")?,
                gain: u64_field(p, "gain")?,
                selection,
            });
        }
        let n_stored = points.len();
        let curve = ConfigCurve::from_saved(kernel, base_cycles, points);
        if curve.len() != n_stored {
            // from_saved dropped or added points: the stored staircase was
            // not the normalized one the generator produces.
            return Err("stored staircase is not normalized".into());
        }
        // Independent re-certification: the staircase invariant is
        // re-derived by rtise-check, not trusted from this parser.
        let diag = rtise::check::cert::check_curve(&curve);
        if !diag.is_clean() {
            return Err(diag.render().trim_end().to_string());
        }
        Ok(curve)
    }

    /// The key covers the kernel, so a curve naming another task is a
    /// forged payload.
    fn belongs_to(&self, kernel: &str) -> bool {
        self.name == kernel
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{self, entry_path, load};
    use rtise_obs::{Hist, Rng};
    use std::collections::BTreeMap;
    use std::path::PathBuf;

    fn curve() -> ConfigCurve {
        ConfigCurve::from_saved(
            "toy",
            100,
            vec![
                ConfigPoint {
                    area: 0,
                    cycles: 100,
                    gain: 0,
                    selection: vec![],
                },
                ConfigPoint {
                    area: 8,
                    cycles: 70,
                    gain: 30,
                    selection: vec![0, 2],
                },
                ConfigPoint {
                    area: 20,
                    cycles: 55,
                    gain: 45,
                    selection: vec![0, 1, 2],
                },
            ],
        )
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("rtise-curvecache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn counters() -> BTreeMap<String, u64> {
        BTreeMap::from([
            ("ise.enumerate.calls".to_string(), 3u64),
            ("workbench.curves".to_string(), 1),
        ])
    }

    fn hists() -> BTreeMap<String, Hist> {
        let mut h = Hist::new();
        for v in [0, 1, 2, 3, 700] {
            h.observe(v);
        }
        BTreeMap::from([("ise.bnb.depth".to_string(), h)])
    }

    #[test]
    fn round_trips_curve_counters_and_hists() {
        let dir = tmp_dir("roundtrip");
        let opts = CurveOptions::fast();
        store::store(
            &dir,
            "toy",
            &options_key("toy", &opts),
            &curve(),
            &counters(),
            &hists(),
        )
        .expect("store");
        let (loaded, attrib, attrib_hists) =
            load::<ConfigCurve>(&dir, "toy", &options_key("toy", &opts)).expect("hit");
        assert_eq!(loaded, curve());
        assert_eq!(attrib, counters());
        assert_eq!(attrib_hists, hists());
        // Different options miss (content-addressed key).
        assert!(
            load::<ConfigCurve>(&dir, "toy", &options_key("toy", &CurveOptions::thorough()))
                .is_none()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_entry_is_a_plain_miss() {
        let dir = tmp_dir("miss");
        assert!(
            load::<ConfigCurve>(&dir, "toy", &options_key("toy", &CurveOptions::fast())).is_none()
        );
    }

    /// Satellite regression: seeded truncations and bit flips of a valid
    /// entry must always fall back to a miss (recompute), never panic in
    /// the JSON parser, and must delete the bad entry.
    #[test]
    fn corrupted_entries_fall_back_to_recompute() {
        let dir = tmp_dir("corrupt");
        let opts = CurveOptions::fast();
        let path = entry_path::<ConfigCurve>(&dir, "toy", &options_key("toy", &opts));
        let mut rng = Rng::new(0x5eed_cafe);
        for case in 0..64u32 {
            store::store(
                &dir,
                "toy",
                &options_key("toy", &opts),
                &curve(),
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
                    continue; // the flip landed on a don't-care bit? impossible, but be safe
                }
            }
            std::fs::write(&path, &bytes).expect("corrupt");
            assert!(
                load::<ConfigCurve>(&dir, "toy", &options_key("toy", &opts)).is_none(),
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
        let opts = CurveOptions::fast();
        let path = entry_path::<ConfigCurve>(&dir, "toy", &options_key("toy", &opts));
        store::store(
            &dir,
            "toy",
            &options_key("toy", &opts),
            &curve(),
            &counters(),
            &hists(),
        )
        .expect("store");
        // A value edit that keeps the JSON valid still trips the checksum.
        let text = std::fs::read_to_string(&path).expect("read");
        let doctored = text.replace("\"cycles\":70", "\"cycles\":69");
        assert_ne!(doctored, text, "the edit must hit the stored curve");
        std::fs::write(&path, doctored).expect("write");
        assert!(load::<ConfigCurve>(&dir, "toy", &options_key("toy", &opts)).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A checksum-consistent envelope whose payload names a different
    /// kernel than the key is rejected (and evicted) rather than served
    /// under the wrong name.
    #[test]
    fn forged_kernel_names_are_rejected() {
        let dir = tmp_dir("forged");
        let opts = CurveOptions::fast();
        let mut other = curve();
        other.name = "other".into();
        let doc = store::encode_envelope::<ConfigCurve>(
            &options_key("toy", &opts),
            other.encode(),
            &counters(),
            &hists(),
        );
        let path = entry_path::<ConfigCurve>(&dir, "toy", &options_key("toy", &opts));
        std::fs::create_dir_all(path.parent().expect("shard dir")).expect("dir");
        std::fs::write(&path, doc.render_pretty()).expect("write");
        assert!(load::<ConfigCurve>(&dir, "toy", &options_key("toy", &opts)).is_none());
        assert!(!path.exists(), "forged entry must be evicted");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
