//! Chrome Trace Event Format export.
//!
//! Produces the JSON object format understood by `chrome://tracing`,
//! Perfetto, and Speedscope: a top-level `traceEvents` array of
//! duration (`ph: "B"` / `"E"`), instant (`ph: "i"`), and metadata
//! (`ph: "M"`) events. Timestamps are microseconds; a
//! [`Clock::Real`] scope's nanosecond stamps are
//! divided down (keeping fractional microseconds), a virtual scope's
//! sequence numbers are exported as-is.
//!
//! The merge is deterministic by construction: the caller passes the
//! scopes in a canonical order (the reproduce harness uses paper
//! order) and each scope becomes one `tid`, named via a
//! `thread_name` metadata event — **not** the OS thread id, which
//! would vary run to run under a work-stealing pool.

use crate::codes;
use rtise_obs::json::Value;
use rtise_obs::scope::{Clock, Event, EventKind, Scope};

fn ts_value(clock: Clock, ts: u64) -> Value {
    match clock {
        Clock::Real => Value::Num(ts as f64 / 1000.0),
        Clock::Virtual => Value::Num(ts as f64),
    }
}

fn args_value(args: &[(&'static str, u64)]) -> Value {
    Value::Obj(
        args.iter()
            .map(|&(k, v)| (k.to_string(), Value::Num(v as f64)))
            .collect(),
    )
}

fn event_value(e: &Event, clock: Clock, tid: u64) -> Value {
    let mut fields: Vec<(&str, Value)> = vec![("name", Value::Str(e.name.to_string()))];
    fields.push((
        "ph",
        Value::Str(
            match e.kind {
                EventKind::Begin => "B",
                EventKind::End => "E",
                EventKind::Instant => "i",
            }
            .to_string(),
        ),
    ));
    fields.push(("pid", Value::Num(1.0)));
    fields.push(("tid", Value::Num(tid as f64)));
    fields.push(("ts", ts_value(clock, e.ts)));
    if e.kind == EventKind::Instant {
        // Thread-scoped instant: rendered as a tick on its own track.
        fields.push(("s", Value::Str("t".to_string())));
    }
    if !e.args.is_empty() {
        fields.push(("args", args_value(&e.args)));
    }
    Value::obj(fields)
}

fn thread_name(label: &str, tid: u64) -> Value {
    Value::obj(vec![
        ("name", Value::Str("thread_name".to_string())),
        ("ph", Value::Str("M".to_string())),
        ("pid", Value::Num(1.0)),
        ("tid", Value::Num(tid as f64)),
        ("ts", Value::Num(0.0)),
        (
            "args",
            Value::obj(vec![("name", Value::Str(label.to_string()))]),
        ),
    ])
}

/// Builds a Chrome Trace Event Format document from labelled scopes.
/// Scope order is preserved: scope `i` becomes `tid == i + 1` with a
/// `thread_name` metadata event carrying its label. Scopes whose ring
/// cap dropped bulk instants additionally get a pinned
/// [`codes::TRACE_DROPPED`] instant so truncation is visible in the
/// artifact.
pub fn chrome_trace(scopes: &[(String, Scope)]) -> Value {
    let mut events = Vec::new();
    for (i, (label, scope)) in scopes.iter().enumerate() {
        let tid = i as u64 + 1;
        events.push(thread_name(label, tid));
        let clock = scope.clock().unwrap_or_default();
        let mut last_ts = 0u64;
        for e in scope.events() {
            last_ts = e.ts;
            events.push(event_value(&e, clock, tid));
        }
        let dropped = scope.dropped();
        if dropped > 0 {
            let marker = Event {
                ts: last_ts,
                kind: EventKind::Instant,
                name: codes::TRACE_DROPPED.into(),
                args: vec![("count", dropped)],
            };
            events.push(event_value(&marker, clock, tid));
        }
    }
    Value::obj(vec![
        ("traceEvents", Value::Arr(events)),
        ("displayTimeUnit", Value::Str("ms".to_string())),
        (
            "otherData",
            Value::obj(vec![("generator", Value::Str("rtise-trace".to_string()))]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{instant_with, span};

    fn sample_scope() -> Scope {
        let scope = Scope::with_clock(Clock::Virtual);
        {
            let _g = scope.enter();
            let _s = span("fig3_1");
            let _inner = span(codes::ILP_SOLVE);
            instant_with(codes::ILP_PRUNE_BOUND, &[("depth", 2)]);
        }
        scope
    }

    #[test]
    fn export_has_named_tids_in_caller_order() {
        let doc = chrome_trace(&[
            ("alpha".to_string(), sample_scope()),
            ("beta".to_string(), sample_scope()),
        ]);
        let events = doc.get("traceEvents").and_then(Value::as_arr).expect("arr");
        let metas: Vec<(f64, &str)> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("M"))
            .map(|e| {
                (
                    e.get("tid").and_then(Value::as_f64).expect("tid"),
                    e.get("args")
                        .and_then(|a| a.get("name"))
                        .and_then(Value::as_str)
                        .expect("label"),
                )
            })
            .collect();
        assert_eq!(metas, vec![(1.0, "alpha"), (2.0, "beta")]);
    }

    #[test]
    fn begin_end_instants_round_trip_structure() {
        let doc = chrome_trace(&[("x".to_string(), sample_scope())]);
        let events = doc.get("traceEvents").and_then(Value::as_arr).expect("arr");
        let phases: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("ph").and_then(Value::as_str))
            .collect();
        assert_eq!(phases, vec!["M", "B", "B", "i", "E", "E"]);
        let prune = events
            .iter()
            .find(|e| e.get("name").and_then(Value::as_str) == Some(codes::ILP_PRUNE_BOUND))
            .expect("prune event");
        assert_eq!(prune.get("s").and_then(Value::as_str), Some("t"));
        assert_eq!(
            prune
                .get("args")
                .and_then(|a| a.get("depth"))
                .and_then(Value::as_f64),
            Some(2.0)
        );
    }

    #[test]
    fn real_clock_exports_microseconds() {
        let scope = Scope::with_clock(Clock::Real);
        {
            let _g = scope.enter();
            let _s = span("t");
        }
        let doc = chrome_trace(&[("r".to_string(), scope)]);
        let events = doc.get("traceEvents").and_then(Value::as_arr).expect("arr");
        let b = events
            .iter()
            .find(|e| e.get("ph").and_then(Value::as_str) == Some("B"))
            .expect("begin");
        let e = events
            .iter()
            .find(|e| e.get("ph").and_then(Value::as_str) == Some("E"))
            .expect("end");
        let (bt, et) = (
            b.get("ts").and_then(Value::as_f64).expect("ts"),
            e.get("ts").and_then(Value::as_f64).expect("ts"),
        );
        assert!(bt >= 0.0 && et >= bt);
    }

    #[test]
    fn dropped_events_are_surfaced_in_the_artifact() {
        let scope = Scope::with_clock(Clock::Virtual);
        {
            let _g = scope.enter();
            let _s = span("flood");
            for _ in 0..(crate::RING_CAP + 5) {
                crate::instant("node");
            }
        }
        let doc = chrome_trace(&[("f".to_string(), scope)]);
        let events = doc.get("traceEvents").and_then(Value::as_arr).expect("arr");
        let marker = events
            .iter()
            .find(|e| e.get("name").and_then(Value::as_str) == Some(codes::TRACE_DROPPED))
            .expect("drop marker");
        assert_eq!(
            marker
                .get("args")
                .and_then(|a| a.get("count"))
                .and_then(Value::as_f64),
            Some(5.0)
        );
    }
}
