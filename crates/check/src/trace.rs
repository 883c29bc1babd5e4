//! Chrome Trace Event Format conformance checking.
//!
//! `reproduce --trace-out` (and the `fuzz`/`bench` equivalents) emit
//! the JSON object format consumed by `chrome://tracing` and Perfetto.
//! [`check_chrome_trace`] validates an emitted document against the
//! subset of the format those tools actually require to render it:
//! a `traceEvents` array (TRACE001) of objects carrying `name`/`ph`
//! (TRACE002) with a known phase (TRACE003), numeric non-negative
//! `ts`/`pid`/`tid` (TRACE004), and balanced `B`/`E` duration events
//! per `(pid, tid)` track (TRACE005). CI runs it over every trace
//! smoke artifact, and [`write_checked_trace`] — the one way a binary
//! writes a trace — runs it before every write.

use crate::diag::{Code, Diagnostics, Location};
use rtise_obs::json::Value;
use std::collections::BTreeMap;
use std::path::Path;

/// Phases this workspace emits plus the common ones other tools write;
/// anything else is flagged as TRACE003.
const KNOWN_PHASES: &[&str] = &["B", "E", "i", "I", "M", "X", "C"];

/// Phases that require a `name` (an `E` event legitimately omits it).
fn needs_name(ph: &str) -> bool {
    ph != "E"
}

/// Validates a parsed Chrome Trace Event document. Returns a clean
/// [`Diagnostics`] when the artifact conforms; every finding points at
/// the offending event index via [`Location::Point`].
pub fn check_chrome_trace(doc: &Value) -> Diagnostics {
    let mut d = Diagnostics::new();
    let Some(events) = doc.get("traceEvents").and_then(Value::as_arr) else {
        d.error(
            Code::TRACE001,
            Location::Global,
            "top-level traceEvents array missing",
        );
        return d;
    };
    // Open B-spans per (pid, tid), by event index.
    let mut open: BTreeMap<(u64, u64), Vec<usize>> = BTreeMap::new();
    for (i, e) in events.iter().enumerate() {
        if !matches!(e, Value::Obj(_)) {
            d.error(Code::TRACE002, Location::Point(i), "event is not an object");
            continue;
        }
        let Some(ph) = e.get("ph").and_then(Value::as_str) else {
            d.error(Code::TRACE002, Location::Point(i), "event lacks a ph field");
            continue;
        };
        if !KNOWN_PHASES.contains(&ph) {
            d.error(
                Code::TRACE003,
                Location::Point(i),
                format!("unknown phase {ph:?}"),
            );
            continue;
        }
        if needs_name(ph) && e.get("name").and_then(Value::as_str).is_none() {
            d.error(
                Code::TRACE002,
                Location::Point(i),
                format!("{ph} event lacks a name"),
            );
        }
        let mut coord = [0u64; 3];
        let mut coord_ok = true;
        for (slot, field) in coord.iter_mut().zip(["ts", "pid", "tid"]) {
            match e.get(field).and_then(Value::as_f64) {
                Some(v) if v >= 0.0 => *slot = v as u64,
                _ => {
                    d.error(
                        Code::TRACE004,
                        Location::Point(i),
                        format!("{field} missing, non-numeric, or negative"),
                    );
                    coord_ok = false;
                }
            }
        }
        if !coord_ok {
            continue;
        }
        let track = (coord[1], coord[2]);
        match ph {
            "B" => open.entry(track).or_default().push(i),
            "E" if open.entry(track).or_default().pop().is_none() => {
                d.error(
                    Code::TRACE005,
                    Location::Point(i),
                    format!("E without a matching B on pid {} tid {}", track.0, track.1),
                );
            }
            _ => {}
        }
    }
    for ((pid, tid), stack) in open {
        if let Some(&i) = stack.last() {
            d.error(
                Code::TRACE005,
                Location::Point(i),
                format!(
                    "{} B event(s) never closed on pid {pid} tid {tid}",
                    stack.len()
                ),
            );
        }
    }
    d
}

/// Schema-checks a Chrome Trace document with [`check_chrome_trace`] and
/// writes it, pretty-printed, to `path`; returns its event count. A
/// document with findings is not written: the error carries the rendered
/// diagnostics, or the write failure, for the caller to report in its own
/// words.
pub fn write_checked_trace(path: &Path, doc: &Value) -> Result<usize, String> {
    let diags = check_chrome_trace(doc);
    if !diags.is_clean() {
        let mut msg = "trace artifact failed the chrome-trace schema check:".to_string();
        for line in diags.render().lines() {
            msg.push_str("\n    ");
            msg.push_str(line);
        }
        return Err(msg);
    }
    std::fs::write(path, doc.render_pretty())
        .map_err(|e| format!("cannot write trace to {}: {e}", path.display()))?;
    Ok(doc
        .get("traceEvents")
        .and_then(Value::as_arr)
        .map_or(0, <[Value]>::len))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtise_obs::json::parse;

    fn check(src: &str) -> Diagnostics {
        check_chrome_trace(&parse(src).expect("test document parses"))
    }

    #[test]
    fn accepts_a_conforming_trace() {
        let d = check(
            r#"{"traceEvents":[
                {"name":"thread_name","ph":"M","pid":1,"tid":1,"ts":0,"args":{"name":"fig3_1"}},
                {"name":"experiment","ph":"B","pid":1,"tid":1,"ts":0},
                {"name":"ilp.prune.bound","ph":"i","pid":1,"tid":1,"ts":1,"s":"t","args":{"depth":2}},
                {"name":"experiment","ph":"E","pid":1,"tid":1,"ts":2}
            ],"displayTimeUnit":"ms"}"#,
        );
        assert!(d.is_clean(), "{d}");
    }

    #[test]
    fn missing_trace_events_is_trace001() {
        let d = check(r#"{"events":[]}"#);
        assert!(d.has(Code::TRACE001));
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn malformed_events_are_trace002() {
        let d = check(
            r#"{"traceEvents":[42,{"pid":1,"tid":1,"ts":0},{"ph":"B","pid":1,"tid":1,"ts":0},{"ph":"B","pid":1,"tid":1,"ts":1,"name":"x"},{"ph":"E","pid":1,"tid":1,"ts":2},{"ph":"E","pid":1,"tid":1,"ts":3}]}"#,
        );
        assert_eq!(d.count(Code::TRACE002), 3); // non-object, no ph, B without name
    }

    #[test]
    fn unknown_phase_is_trace003() {
        let d = check(r#"{"traceEvents":[{"name":"x","ph":"Z","pid":1,"tid":1,"ts":0}]}"#);
        assert!(d.has(Code::TRACE003));
    }

    #[test]
    fn bad_coordinates_are_trace004() {
        let d = check(r#"{"traceEvents":[{"name":"x","ph":"i","pid":1,"tid":"one","ts":-3}]}"#);
        assert_eq!(d.count(Code::TRACE004), 2); // bad tid, negative ts
    }

    #[test]
    fn unbalanced_spans_are_trace005_per_track() {
        // Balanced on tid 1; stray E on tid 2; unclosed B on tid 3.
        let d = check(
            r#"{"traceEvents":[
                {"name":"a","ph":"B","pid":1,"tid":1,"ts":0},
                {"ph":"E","pid":1,"tid":1,"ts":1},
                {"ph":"E","pid":1,"tid":2,"ts":1},
                {"name":"b","ph":"B","pid":1,"tid":3,"ts":0}
            ]}"#,
        );
        assert_eq!(d.count(Code::TRACE005), 2);
    }

    #[test]
    fn only_clean_traces_are_written() {
        let dir = std::env::temp_dir().join(format!("rtise-check-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let event = |ph| {
            format!(r#"{{"traceEvents":[{{"name":"x","ph":"{ph}","pid":1,"tid":1,"ts":0}}]}}"#)
        };
        let clean = parse(&event("i")).expect("parses");
        assert_eq!(write_checked_trace(&dir.join("clean.json"), &clean), Ok(1));
        let written = std::fs::read_to_string(dir.join("clean.json")).expect("written");
        assert_eq!(parse(&written).expect("reparses"), clean);
        let err = write_checked_trace(
            &dir.join("dirty.json"),
            &parse(&event("Z")).expect("parses"),
        );
        assert!(err.expect_err("dirty trace refused").contains("TRACE003"));
        assert!(!dir.join("dirty.json").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
