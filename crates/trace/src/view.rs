//! Text views over an exported trace, plus the report canonicalizer.
//!
//! The `trace` binary parses a Chrome Trace Event Format file back with
//! the `rtise-obs` JSON parser and renders it two ways: a flat
//! per-event-name [`summary_lines`] and an indented, aggregated
//! [`flame_lines`] span tree (a text flamegraph: sibling spans with the
//! same name merge, instants attach to their enclosing span). Both work
//! on any conforming trace, not just ones this workspace produced.
//!
//! [`canon_report`] serves the CI determinism gate: it strips the
//! wall-clock fields (`total_wall_ms`, `cache`, per-experiment
//! `wall_ms`) from a `reproduce --json` artifact so two runs can be
//! compared byte-for-byte — tracing on vs off, any `--jobs`, cold or
//! warm cache.

use rtise_obs::json::Value;
use std::collections::BTreeMap;

/// One aggregated span-tree node, stored in a flat [`Forest`] arena and
/// linked by indices.
struct Node {
    name: String,
    count: u64,
    total_us: f64,
    /// Aggregated instant counts under this span, first-seen order.
    instants: Vec<(String, u64)>,
    children: Vec<usize>,
}

impl Node {
    fn new(name: &str) -> Node {
        Node {
            name: name.to_string(),
            count: 0,
            total_us: 0.0,
            instants: Vec::new(),
            children: Vec::new(),
        }
    }

    fn bump_instant(&mut self, name: &str) {
        if let Some(slot) = self.instants.iter_mut().find(|(n, _)| n == name) {
            slot.1 += 1;
        } else {
            self.instants.push((name.to_string(), 1));
        }
    }
}

/// The aggregated span trees of a trace: one root per tid, nodes in a
/// flat arena.
struct Forest {
    nodes: Vec<Node>,
    roots: Vec<usize>,
}

impl Forest {
    fn child_of(&mut self, parent: usize, name: &str) -> usize {
        if let Some(&c) = self.nodes[parent]
            .children
            .iter()
            .find(|&&c| self.nodes[c].name == name)
        {
            return c;
        }
        self.nodes.push(Node::new(name));
        let idx = self.nodes.len() - 1;
        self.nodes[parent].children.push(idx);
        idx
    }
}

struct Ev<'a> {
    ph: &'a str,
    name: &'a str,
    tid: u64,
    ts: f64,
}

fn decode_events(doc: &Value) -> Result<Vec<Ev<'_>>, String> {
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_arr)
        .ok_or_else(|| "missing traceEvents array".to_string())?;
    events
        .iter()
        .enumerate()
        .map(|(i, e)| {
            let ph = e
                .get("ph")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("event {i}: missing ph"))?;
            Ok(Ev {
                ph,
                name: e.get("name").and_then(Value::as_str).unwrap_or(""),
                tid: e.get("tid").and_then(Value::as_f64).unwrap_or(0.0) as u64,
                ts: e.get("ts").and_then(Value::as_f64).unwrap_or(0.0),
            })
        })
        .collect()
}

/// Builds one aggregated span tree per `tid` (labelled by its
/// `thread_name` metadata event when present), in first-appearance
/// order of the tids.
fn forest(doc: &Value) -> Result<Forest, String> {
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_arr)
        .ok_or_else(|| "missing traceEvents array".to_string())?;
    let decoded = decode_events(doc)?;
    let mut forest = Forest {
        nodes: Vec::new(),
        roots: Vec::new(),
    };
    let mut root_of: BTreeMap<u64, usize> = BTreeMap::new();
    let mut stacks: BTreeMap<u64, Vec<(usize, f64)>> = BTreeMap::new();
    for (i, ev) in decoded.iter().enumerate() {
        let root = *root_of.entry(ev.tid).or_insert_with(|| {
            forest.nodes.push(Node::new(&format!("tid {}", ev.tid)));
            let idx = forest.nodes.len() - 1;
            forest.roots.push(idx);
            idx
        });
        let stack = stacks.entry(ev.tid).or_default();
        match ev.ph {
            "M" if ev.name == "thread_name" => {
                if let Some(label) = events[i]
                    .get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Value::as_str)
                {
                    forest.nodes[root].name = label.to_string();
                }
            }
            "B" => {
                let parent = stack.last().map_or(root, |&(n, _)| n);
                let child = forest.child_of(parent, ev.name);
                forest.nodes[child].count += 1;
                stack.push((child, ev.ts));
            }
            "E" => {
                let (node, begin) = stack
                    .pop()
                    .ok_or_else(|| format!("event {i}: E without matching B on tid {}", ev.tid))?;
                forest.nodes[node].total_us += (ev.ts - begin).max(0.0);
            }
            "i" | "I" => {
                let node = stack.last().map_or(root, |&(n, _)| n);
                forest.nodes[node].bump_instant(ev.name);
            }
            _ => {}
        }
    }
    for (tid, stack) in &stacks {
        if !stack.is_empty() {
            return Err(format!("tid {tid}: {} unclosed span(s)", stack.len()));
        }
    }
    Ok(forest)
}

fn fmt_us(us: f64) -> String {
    format!("{:.3}", us)
}

fn render_node(forest: &Forest, idx: usize, depth: usize, out: &mut Vec<String>) {
    let node = &forest.nodes[idx];
    let indent = "  ".repeat(depth);
    if depth == 0 {
        out.push(format!("{}{}", indent, node.name));
    } else {
        out.push(format!(
            "{}{}  count={} total_us={}",
            indent,
            node.name,
            node.count,
            fmt_us(node.total_us)
        ));
    }
    for (name, count) in &node.instants {
        out.push(format!("{}  * {} x{}", indent, name, count));
    }
    for &child in &node.children {
        render_node(forest, child, depth + 1, out);
    }
}

/// Indented text flamegraph: one block per tid, spans aggregated by
/// name at each level with call counts and total durations, instants
/// attached as `* name xN` lines.
///
/// # Errors
///
/// A message when the document lacks `traceEvents` or its begin/end
/// events are unbalanced.
pub fn flame_lines(doc: &Value) -> Result<Vec<String>, String> {
    let forest = forest(doc)?;
    let mut out = Vec::new();
    for &root in &forest.roots {
        render_node(&forest, root, 0, &mut out);
    }
    Ok(out)
}

/// Flat per-event-name roll-up across the whole trace: span names with
/// call counts and summed durations, then instant names with counts,
/// both alphabetical.
///
/// # Errors
///
/// A message when the document lacks `traceEvents` or its begin/end
/// events are unbalanced.
pub fn summary_lines(doc: &Value) -> Result<Vec<String>, String> {
    let decoded = decode_events(doc)?;
    let mut spans: BTreeMap<&str, (u64, f64)> = BTreeMap::new();
    let mut instants: BTreeMap<&str, u64> = BTreeMap::new();
    let mut stacks: BTreeMap<u64, Vec<(&str, f64)>> = BTreeMap::new();
    for (i, ev) in decoded.iter().enumerate() {
        match ev.ph {
            "B" => stacks.entry(ev.tid).or_default().push((ev.name, ev.ts)),
            "E" => {
                let (name, begin) =
                    stacks.entry(ev.tid).or_default().pop().ok_or_else(|| {
                        format!("event {i}: E without matching B on tid {}", ev.tid)
                    })?;
                let slot = spans.entry(name).or_insert((0, 0.0));
                slot.0 += 1;
                slot.1 += (ev.ts - begin).max(0.0);
            }
            "i" | "I" => *instants.entry(ev.name).or_insert(0) += 1,
            _ => {}
        }
    }
    for (tid, stack) in &stacks {
        if !stack.is_empty() {
            return Err(format!("tid {tid}: {} unclosed span(s)", stack.len()));
        }
    }
    let mut out = Vec::new();
    for (name, (count, total)) in &spans {
        out.push(format!(
            "span    {name}  count={count} total_us={}",
            fmt_us(*total)
        ));
    }
    for (name, count) in &instants {
        out.push(format!("instant {name}  count={count}"));
    }
    Ok(out)
}

/// Strips every wall-clock-dependent field from a `reproduce --json`
/// report: top-level `total_wall_ms` and `cache`, and `wall_ms` inside
/// each element of `experiments`. Experiments whose id is listed in
/// `drop_output_ids` additionally lose their `output` — the paper's
/// running-time tables print measured milliseconds into their captured
/// stdout, which is wall-clock data in a different position. What
/// remains is the deterministic payload that must be byte-identical
/// across worker counts, cache states, and tracing on/off.
pub fn canon_report(doc: &Value, drop_output_ids: &[&str]) -> Value {
    match doc {
        Value::Obj(pairs) => Value::Obj(
            pairs
                .iter()
                .filter(|(k, _)| k != "total_wall_ms" && k != "cache")
                .map(|(k, v)| {
                    if k == "experiments" {
                        (k.clone(), canon_experiments(v, drop_output_ids))
                    } else {
                        (k.clone(), v.clone())
                    }
                })
                .collect(),
        ),
        other => other.clone(),
    }
}

fn canon_experiments(v: &Value, drop_output_ids: &[&str]) -> Value {
    match v {
        Value::Arr(items) => Value::Arr(
            items
                .iter()
                .map(|item| match item {
                    Value::Obj(pairs) => {
                        let drop_output = pairs
                            .iter()
                            .find(|(k, _)| k == "id")
                            .and_then(|(_, v)| v.as_str())
                            .is_some_and(|id| drop_output_ids.contains(&id));
                        Value::Obj(
                            pairs
                                .iter()
                                .filter(|(k, _)| k != "wall_ms" && !(drop_output && k == "output"))
                                .cloned()
                                .collect(),
                        )
                    }
                    other => other.clone(),
                })
                .collect(),
        ),
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chrome::chrome_trace;
    use crate::{instant, span};
    use rtise_obs::json::parse;
    use rtise_obs::scope::{Clock, Scope};

    fn sample_doc() -> Value {
        let scope = Scope::with_clock(Clock::Virtual);
        {
            let _g = scope.enter();
            let _outer = span("experiment");
            {
                let _a = span("ilp.solve");
                instant("ilp.prune.bound");
                instant("ilp.prune.bound");
            }
            {
                let _b = span("ilp.solve");
                instant("ilp.incumbent");
            }
        }
        chrome_trace(&[("fig3_1".to_string(), scope)])
    }

    #[test]
    fn flame_aggregates_sibling_spans_by_name() {
        let lines = flame_lines(&sample_doc()).expect("flame");
        let text = lines.join("\n");
        assert!(text.starts_with("fig3_1"), "{text}");
        assert!(text.contains("ilp.solve  count=2"), "{text}");
        assert!(text.contains("* ilp.prune.bound x2"), "{text}");
        assert!(text.contains("* ilp.incumbent x1"), "{text}");
    }

    #[test]
    fn summary_rolls_up_by_name() {
        let lines = summary_lines(&sample_doc()).expect("summary");
        let text = lines.join("\n");
        assert!(text.contains("span    ilp.solve  count=2"), "{text}");
        assert!(text.contains("instant ilp.prune.bound  count=2"), "{text}");
    }

    #[test]
    fn unbalanced_traces_are_rejected() {
        let doc = parse(r#"{"traceEvents":[{"name":"x","ph":"E","pid":1,"tid":1,"ts":5}]}"#)
            .expect("parse");
        assert!(flame_lines(&doc).is_err());
        assert!(summary_lines(&doc).is_err());
        let open = parse(r#"{"traceEvents":[{"name":"x","ph":"B","pid":1,"tid":1,"ts":5}]}"#)
            .expect("parse");
        assert!(flame_lines(&open).is_err());
        assert!(summary_lines(&open).is_err());
    }

    #[test]
    fn canon_strips_wall_clock_fields_only() {
        let doc = parse(
            r#"{"total_wall_ms":9,"cache":{"hits":1},"experiments":[{"id":"a","ok":true,"wall_ms":3,"counters":{"k":1}}],"keep":true}"#,
        )
        .expect("parse");
        let canon = canon_report(&doc, &[]);
        let text = canon.render();
        assert!(!text.contains("wall_ms"), "{text}");
        assert!(!text.contains("cache"), "{text}");
        assert!(text.contains("\"keep\":true"), "{text}");
        assert!(text.contains("\"counters\":{\"k\":1}"), "{text}");
    }

    #[test]
    fn canon_drops_output_only_for_listed_experiments() {
        let doc = parse(
            r#"{"experiments":[{"id":"a","output":["kept"],"counters":{}},{"id":"b","output":["0.3 ms"],"counters":{}}]}"#,
        )
        .expect("parse");
        let text = canon_report(&doc, &["b"]).render();
        assert!(text.contains("kept"), "{text}");
        assert!(!text.contains("0.3 ms"), "{text}");
        assert!(
            text.contains("\"id\":\"b\",\"counters\""),
            "b keeps its non-output fields: {text}"
        );
    }
}
