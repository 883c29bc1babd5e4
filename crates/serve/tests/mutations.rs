//! Seeded negative tests: doctored responses and store entries must map
//! to their exact stable diagnostic codes — and never panic the checker
//! or sneak through as clean.

use rtise::check::serve::{check_response, response_checksum};
use rtise::check::Code;
use rtise_obs::json::Value;
use rtise_obs::{fnv1a, Rng};
use rtise_serve::engine::{self, ResponseArtifact};
use rtise_serve::proto;
use rtise_serve::server::{Server, ServerConfig, STORE_TAG};
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
    use rtise_bench::store::{encode_envelope, entry_path, validate};

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
    let mut forged = template.clone();
    let work = forged.get("work").and_then(Value::as_f64).expect("work");
    engine::set_field(&mut forged, "work", Value::Num(work + 1.0));
    let forged_env =
        encode_envelope::<ResponseArtifact>("ilp|s1", forged, &empty, &BTreeMap::new());
    for text in [forged_env.render(), forged_env.render_pretty()] {
        let (entry, d) = validate::<ResponseArtifact>(&text, "ilp|s1");
        assert!(entry.is_none() && d.has(Code::STORE004), "{}", d.render());
    }

    // Compact but not canonical: every integer written as `N.0`, and a
    // counters key written with `\/` after the payload. The checksum
    // covers the canonical render, so each loads, and a server answers
    // with the canonical bytes, not the file's. A checksum over the
    // file's own bytes proves nothing about them: STORE003.
    let request = proto::parse(r#"{"id": 5, "kind": "ilp", "seed": 1}"#).expect("request parses");
    let canonical = Server::new(ServerConfig::new(1)).serve(&request);
    let counters = BTreeMap::from([("serve/x".to_string(), 1u64)]);
    let slashed =
        encode_envelope::<ResponseArtifact>("ilp|s1", template, &counters, &BTreeMap::new());
    for (case, text) in [
        integers_as_floats(&envelope.render()),
        slashed.render().replace("serve/x", "serve\\/x"),
    ]
    .into_iter()
    .enumerate()
    {
        assert!(!text.contains(char::is_whitespace), "case {case}: compact");
        let (entry, d) = validate::<ResponseArtifact>(&text, "ilp|s1");
        assert!(
            entry.is_some() && d.is_clean(),
            "case {case}: {}",
            d.render()
        );

        let dir =
            std::env::temp_dir().join(format!("rtise-noncanon-{}-{case}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = entry_path::<ResponseArtifact>(&dir, STORE_TAG, "ilp|s1");
        std::fs::create_dir_all(path.parent().expect("shard dir")).expect("shard dir");
        std::fs::write(&path, &text).expect("write entry");
        let server = Server::new(ServerConfig {
            jobs: 1,
            cache_dir: Some(dir.clone()),
        });
        assert_eq!(server.serve(&request), canonical, "case {case}");
        assert_eq!(
            server.counters().get("cache.response.hit"),
            Some(&1),
            "case {case}"
        );
        assert!(path.exists(), "case {case}: a loaded entry stays");
        let _ = std::fs::remove_dir_all(&dir);

        let raw = raw_checksum(&text);
        assert_ne!(
            Some(raw.as_str()),
            envelope.get("checksum").and_then(Value::as_str)
        );
        let claimed = format!("\"checksum\":\"{raw}\"");
        let at = text.rfind("\"checksum\":").expect("checksum member");
        let forged = format!("{}{claimed}}}", &text[..at]);
        let (entry, d) = validate::<ResponseArtifact>(&forged, "ilp|s1");
        assert!(
            entry.is_none() && d.has(Code::STORE003),
            "case {case}: {}",
            d.render()
        );
    }
}

/// `text`, a compact render, with every number outside strings written
/// with a `.0` fraction: still compact, but not a render, which writes
/// integers bare.
fn integers_as_floats(text: &str) -> String {
    let mut out = String::new();
    let (mut in_string, mut escaped) = (false, false);
    let mut chars = text.chars().peekable();
    while let Some(c) = chars.next() {
        out.push(c);
        if in_string {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
        } else if c == '"' {
            in_string = true;
        } else if c.is_ascii_digit() && !chars.peek().is_some_and(char::is_ascii_digit) {
            out.push_str(".0");
        }
    }
    assert_ne!(out, text, "the entry holds numbers");
    out
}

/// The envelope checksum of a compact `ilp|s1` response entry computed
/// over the entry's own bytes: `family|version|key|payload|counters|hists`
/// with each of the last three as written, not rendered. The envelope's
/// members follow the payload, which has a `checksum` of its own, so each
/// is found from the end.
fn raw_checksum(text: &str) -> String {
    let member = |name: &str, next: &str| {
        let start = text.rfind(&format!("\"{name}\":")).expect("member") + name.len() + 3;
        let end = text.rfind(&format!(",\"{next}\":")).expect("next member");
        &text[start..end]
    };
    let joined = format!(
        "response|3|v3|response|ilp|s1|{}|{}|{}",
        member("payload", "counters"),
        member("counters", "hists"),
        member("hists", "checksum")
    );
    format!("{:016x}", fnv1a(joined.as_bytes()))
}

fn base_with_zero_id_render(base: &Value) -> String {
    let mut v = base.clone();
    engine::set_field(&mut v, "id", 0u64.into());
    v.render()
}
