//! Seeded negative tests: doctored responses and store entries must map
//! to their exact stable diagnostic codes — and never panic the checker
//! or sneak through as clean.

use rtise::check::serve::{check_response, response_checksum};
use rtise::check::Code;
use rtise_obs::json::Value;
use rtise_obs::Rng;
use rtise_serve::engine::{self, ResponseArtifact};
use rtise_serve::proto;
use std::collections::BTreeMap;

fn response(line: &str) -> Value {
    let resp = engine::execute(&proto::parse(line).expect("request parses"));
    assert!(
        check_response(&resp).is_clean(),
        "fixture response must start clean"
    );
    resp
}

fn get_mut<'a>(doc: &'a mut Value, key: &str) -> &'a mut Value {
    match doc {
        Value::Obj(pairs) => {
            &mut pairs
                .iter_mut()
                .find(|(k, _)| k == key)
                .expect("field present")
                .1
        }
        _ => panic!("not an object"),
    }
}

/// Re-stamps a doctored result with a *consistent* checksum, so only the
/// semantic layer can catch it.
fn restamp(doc: &mut Value) {
    let kind = doc
        .get("kind")
        .and_then(Value::as_str)
        .expect("kind")
        .to_string();
    let work = doc.get("work").and_then(Value::as_f64).expect("work") as u64;
    let sum = response_checksum(&kind, work, doc.get("result").expect("result"));
    engine::set_field(doc, "checksum", format!("{sum:016x}").into());
}

#[test]
fn doctored_responses_map_to_exact_srv_codes() {
    let base = response(r#"{"id": 1, "kind": "ilp", "seed": 2}"#);

    // SRV001: required field missing.
    let mut doc = base.clone();
    if let Value::Obj(pairs) = &mut doc {
        pairs.retain(|(k, _)| k != "work");
    }
    assert!(check_response(&doc).has(Code::SRV001));

    // SRV002: unknown kind (restamped so the checksum is not the
    // earlier failure).
    let mut doc = base.clone();
    engine::set_field(&mut doc, "kind", "teleport".into());
    let d = check_response(&doc);
    assert!(d.has(Code::SRV002), "{}", d.render());

    // SRV003: checksum no longer covers the payload.
    let mut doc = base.clone();
    let work = doc.get("work").and_then(Value::as_f64).expect("work");
    engine::set_field(&mut doc, "work", Value::Num(work + 1.0));
    assert!(check_response(&doc).has(Code::SRV003));

    // SRV004: checksum-consistent but semantically wrong — claimed ILP
    // objective off by one.
    let mut doc = base.clone();
    {
        let result = get_mut(&mut doc, "result");
        let objective = result
            .get("objective")
            .and_then(Value::as_f64)
            .expect("objective");
        engine::set_field(result, "objective", Value::Num(objective + 1.0));
    }
    restamp(&mut doc);
    let d = check_response(&doc);
    assert!(d.has(Code::SRV004), "{}", d.render());
    assert!(d.has(Code::CERT004), "inner ILP evidence merged");

    // SRV004 on a selection: utilization claim off by more than 1 ppm.
    let mut doc = response(
        r#"{"id": 2, "kind": "select_edf", "kernels": ["fir", "crc32"], "u0_pct": 100, "budget": 128}"#,
    );
    {
        let result = get_mut(&mut doc, "result");
        let ppm = result
            .get("utilization_ppm")
            .and_then(Value::as_f64)
            .expect("ppm");
        engine::set_field(result, "utilization_ppm", Value::Num(ppm + 10.0));
    }
    restamp(&mut doc);
    assert!(check_response(&doc).has(Code::SRV004));

    // SRV005: malformed error response.
    let d = check_response(&engine::error_response(3, ""));
    assert!(d.has(Code::SRV005));
}

#[test]
fn seeded_response_corruption_never_passes_or_panics() {
    let base =
        response(r#"{"id": 1, "kind": "reconfig", "problem": "synthetic", "n": 6, "seed": 2}"#);
    let text = base.render_pretty();
    let mut rng = Rng::new(0x5eed_5e12);
    let mut rejected = 0;
    for _ in 0..64 {
        let mut bytes = text.clone().into_bytes();
        let at = rng.gen_range(0..bytes.len());
        let c = bytes[at];
        bytes[at] = if c.is_ascii_digit() {
            b'0' + ((c - b'0' + 1 + rng.gen_range(0..9u64) as u8) % 10)
        } else {
            b'#'
        };
        let Ok(doctored) = String::from_utf8(bytes) else {
            continue;
        };
        let Ok(doc) = rtise_obs::json::parse(&doctored) else {
            rejected += 1; // structurally dead — an equally safe outcome
            continue;
        };
        if doc.render() == base.render() {
            continue; // mutation landed in whitespace
        }
        if !check_response(&doc).is_clean() {
            rejected += 1;
        } else {
            // A clean survivor must be semantically identical content
            // under the checksum (e.g. a doctored id — ids are not
            // covered on purpose).
            assert_eq!(
                doc.get("checksum").and_then(Value::as_str),
                base.get("checksum").and_then(Value::as_str),
                "clean survivor with altered certified content: {doctored}"
            );
        }
    }
    assert!(rejected >= 32, "only {rejected}/64 corruptions rejected");
}

/// Every reject maps to its stable `STORE…` code in both entry layouts:
/// the compact text the store writes and the pretty text older builds
/// wrote, which must still load.
#[test]
fn seeded_store_entry_corruption_maps_to_stable_store_codes() {
    use rtise_bench::store::{encode_envelope, validate};

    let base = response(r#"{"id": 0, "kind": "ilp", "seed": 1}"#);
    let mut template = base.clone();
    engine::set_field(&mut template, "id", 0u64.into());
    let empty = BTreeMap::new();
    let envelope =
        encode_envelope::<ResponseArtifact>("ilp|s1", template.clone(), &empty, &BTreeMap::new());
    for (layout, text, colon) in [
        ("compact", envelope.render(), ":"),
        ("pretty", envelope.render_pretty(), ": "),
    ] {
        let (entry, d) = validate::<ResponseArtifact>(&text, "ilp|s1");
        assert!(
            entry.is_some() && d.is_clean(),
            "{layout}: baseline entry clean: {}",
            d.render()
        );

        // STORE001: not JSON at all.
        let (entry, d) = validate::<ResponseArtifact>(&text[..text.len() / 2], "ilp|s1");
        assert!(entry.is_none() && d.has(Code::STORE001), "{layout}");

        // STORE005: format version from the future.
        let future = text.replacen(
            &format!("\"format\"{colon}3"),
            &format!("\"format\"{colon}99"),
            1,
        );
        assert_ne!(future, text, "{layout}: the edit must hit the format");
        let (entry, d) = validate::<ResponseArtifact>(&future, "ilp|s1");
        assert!(
            entry.is_none() && d.has(Code::STORE005),
            "{layout}: {}",
            d.render()
        );

        // STORE002: served under the wrong key.
        let (entry, d) = validate::<ResponseArtifact>(&text, "ilp|s2");
        assert!(entry.is_none() && d.has(Code::STORE002), "{layout}");

        // STORE003: payload no longer matches the envelope checksum.
        let doctored = text.replacen(
            &format!("\"seed\"{colon}1"),
            &format!("\"seed\"{colon}2"),
            1,
        );
        assert_ne!(doctored, text, "{layout}: the edit must hit the seed");
        let (entry, d) = validate::<ResponseArtifact>(&doctored, "ilp|s1");
        assert!(
            entry.is_none() && d.has(Code::STORE003),
            "{layout}: {}",
            d.render()
        );

        // Seeded sweep: random byte corruption must never validate as a
        // *different* document.
        let mut rng = Rng::new(0xcafe_f00d);
        for _ in 0..32 {
            let mut bytes = text.clone().into_bytes();
            let at = rng.gen_range(0..bytes.len());
            bytes[at] = bytes[at].wrapping_add(1 + rng.gen_range(0..7u64) as u8);
            let Ok(doctored) = String::from_utf8(bytes) else {
                continue;
            };
            let (entry, d) = validate::<ResponseArtifact>(&doctored, "ilp|s1");
            if let Some((artifact, _, _)) = entry {
                assert!(d.is_clean());
                assert_eq!(
                    artifact.0.render(),
                    base_with_zero_id_render(&base),
                    "{layout}: accepted entry must decode to the original content"
                );
            } else {
                assert!(!d.is_clean(), "{layout}: rejected entry must say why");
            }
        }
    }

    let (entry, d) = validate::<ResponseArtifact>("{truncated", "ilp|s1");
    assert!(entry.is_none() && d.has(Code::STORE001));

    // STORE004: checksum-consistent envelope around a response that
    // fails re-certification (forged work ⇒ response checksum dead).
    let mut forged = template;
    let work = forged.get("work").and_then(Value::as_f64).expect("work");
    engine::set_field(&mut forged, "work", Value::Num(work + 1.0));
    let forged_env =
        encode_envelope::<ResponseArtifact>("ilp|s1", forged, &empty, &BTreeMap::new());
    for text in [forged_env.render(), forged_env.render_pretty()] {
        let (entry, d) = validate::<ResponseArtifact>(&text, "ilp|s1");
        assert!(entry.is_none() && d.has(Code::STORE004), "{}", d.render());
    }
}

fn base_with_zero_id_render(base: &Value) -> String {
    let mut v = base.clone();
    engine::set_field(&mut v, "id", 0u64.into());
    v.render()
}
