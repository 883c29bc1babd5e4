//! The diagnostics engine: stable error codes, severities, locations, and
//! human/JSON rendering.
//!
//! Every check in this crate reports through [`Diagnostics`], so callers
//! can assert on exact [`Code`]s (the negative-test suite does), render a
//! human report (`reproduce --check` does), or export machine-readable
//! JSON through [`rtise_obs`].

use rtise_obs::json::Value;
use std::fmt;

/// Stable diagnostic codes.
///
/// Codes are grouped by layer: `IRxxx` for IR well-formedness, `CANDxxx`
/// for custom-instruction candidate legality, `CERTxxx` for solution
/// certificates, `CERTBxxx` for branch-and-bound optimality-certificate
/// replay, `TRACExxx` for trace-artifact conformance, `STORExxx` for
/// artifact-store entry validation, and `SRVxxx` for serve-protocol
/// response certification. Codes are append-only — a published code
/// never changes meaning (tests and CI tooling match on them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(clippy::upper_case_acronyms)]
pub enum Code {
    /// Operand is undefined or used before its definition.
    IR001,
    /// Operand count does not match the opcode's arity.
    IR002,
    /// The data-flow graph contains a cycle.
    IR003,
    /// A variable slot is written more than once in one block
    /// (single-assignment violation).
    IR004,
    /// Invalid program structure: no blocks, entry or terminator target out
    /// of range, or a slot beyond the variable file.
    IR005,
    /// A basic block is unreachable from the entry block.
    IR006,
    /// A natural-loop header has no iteration bound (blocks WCET analysis).
    IR007,
    /// The region decomposition does not partition the CI-valid nodes
    /// (overlap, missed operation, or an invalid member).
    IR008,
    /// A region is not maximal.
    IR009,
    /// Builder misuse: duplicate block label, unclosed loop, or unknown
    /// value reference during IR construction.
    IR010,
    /// A candidate contains a CI-invalid operation (memory or pseudo-op).
    CAND001,
    /// A candidate is not convex: a data path leaves and re-enters it.
    CAND002,
    /// A candidate exceeds the input/output port budget.
    CAND003,
    /// A candidate is empty or references out-of-range nodes.
    CAND004,
    /// A candidate's recorded costs disagree with the hardware model.
    CAND005,
    /// Selected candidates conflict: overlapping nodes in the same block.
    CERT001,
    /// An area budget is exceeded.
    CERT002,
    /// Reported totals (gain or area) disagree with recomputation.
    CERT003,
    /// An ILP solution violates a constraint row or misstates its
    /// objective value.
    CERT004,
    /// An EDF schedulability claim contradicts the exact demand test.
    CERT005,
    /// An RMS selection fails the exact response-time re-test.
    CERT006,
    /// A claimed Pareto front contains a dominated point, violates front
    /// ordering, or misses an ε-cover obligation.
    CERT007,
    /// A configuration curve violates the staircase invariant.
    CERT008,
    /// A graph partition is invalid: assignment out of range, imbalance
    /// beyond the tolerance, or a misreported edge cut.
    CERT009,
    /// A reconfiguration solution overruns the per-configuration fabric
    /// area.
    CERT010,
    /// A reconfiguration solution's gain, reconfiguration count, or
    /// schedulability claim is wrong.
    CERT011,
    /// A task assignment is inconsistent: configuration index out of range
    /// or a misreported utilization.
    CERT012,
    /// A customized simulation's cycle count disagrees with the
    /// independent per-block gain-accounting walk.
    CERT013,
    /// A branch-and-bound certificate is structurally invalid: events
    /// missing, left over, or inconsistent with the declared search order.
    CERTB001,
    /// A bound prune is unjustified: the re-derived relaxation bound
    /// could still beat the replayed incumbent.
    CERTB002,
    /// An infeasibility/legality prune is unjustified: the cited witness
    /// does not actually rule the subtree out.
    CERTB003,
    /// A leaf event is inconsistent: the replayed assignment is infeasible
    /// where the log claims a feasible leaf.
    CERTB004,
    /// The returned solution disagrees with the replayed incumbent.
    CERTB005,
    /// The certificate was truncated at its recording cap — the replay is
    /// sound as far as it goes, but optimality is NOT proven.
    CERTB006,
    /// A trace document has no `traceEvents` array.
    TRACE001,
    /// A trace event is not an object or lacks a required `name`/`ph`
    /// field.
    TRACE002,
    /// A trace event carries an unknown `ph` phase.
    TRACE003,
    /// A trace event's `ts`, `pid`, or `tid` is missing, non-numeric, or
    /// negative.
    TRACE004,
    /// Duration events are unbalanced: an `E` without a matching `B`, or
    /// a `B` never closed, on some `(pid, tid)` track.
    TRACE005,
    /// An artifact-store entry is unreadable or structurally malformed
    /// (bad JSON, missing envelope field, ill-typed value).
    STORE001,
    /// An artifact-store entry's key or family does not match the
    /// requested artifact (hash collision, option drift, or misfiling).
    STORE002,
    /// An artifact-store entry's content checksum disagrees with its
    /// payload (truncation, bit rot, or a torn write).
    STORE003,
    /// An artifact-store payload fails independent re-certification or
    /// re-validation after decoding.
    STORE004,
    /// An artifact-store entry carries a different format version than
    /// this build writes.
    STORE005,
    /// A serve response is missing a required field or carries an
    /// ill-typed value.
    SRV001,
    /// A serve response declares an unknown request kind.
    SRV002,
    /// A serve response's content checksum disagrees with its result
    /// payload.
    SRV003,
    /// A serve response's embedded result fails independent
    /// re-certification by the solver-family checkers.
    SRV004,
    /// A serve error response is malformed (missing or empty error
    /// message, or contradictory success fields).
    SRV005,
    // CAND006 (a duplicate cut in a candidate batch) is retired with the
    // batch checker; the code is not reused.
}

impl Code {
    /// All codes, for documentation tables and exhaustiveness tests.
    pub const ALL: [Code; 49] = [
        Code::IR001,
        Code::IR002,
        Code::IR003,
        Code::IR004,
        Code::IR005,
        Code::IR006,
        Code::IR007,
        Code::IR008,
        Code::IR009,
        Code::IR010,
        Code::CAND001,
        Code::CAND002,
        Code::CAND003,
        Code::CAND004,
        Code::CAND005,
        Code::CERT001,
        Code::CERT002,
        Code::CERT003,
        Code::CERT004,
        Code::CERT005,
        Code::CERT006,
        Code::CERT007,
        Code::CERT008,
        Code::CERT009,
        Code::CERT010,
        Code::CERT011,
        Code::CERT012,
        Code::CERT013,
        Code::CERTB001,
        Code::CERTB002,
        Code::CERTB003,
        Code::CERTB004,
        Code::CERTB005,
        Code::CERTB006,
        Code::TRACE001,
        Code::TRACE002,
        Code::TRACE003,
        Code::TRACE004,
        Code::TRACE005,
        Code::STORE001,
        Code::STORE002,
        Code::STORE003,
        Code::STORE004,
        Code::STORE005,
        Code::SRV001,
        Code::SRV002,
        Code::SRV003,
        Code::SRV004,
        Code::SRV005,
    ];

    /// The stable textual form, e.g. `"IR003"`.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::IR001 => "IR001",
            Code::IR002 => "IR002",
            Code::IR003 => "IR003",
            Code::IR004 => "IR004",
            Code::IR005 => "IR005",
            Code::IR006 => "IR006",
            Code::IR007 => "IR007",
            Code::IR008 => "IR008",
            Code::IR009 => "IR009",
            Code::IR010 => "IR010",
            Code::CAND001 => "CAND001",
            Code::CAND002 => "CAND002",
            Code::CAND003 => "CAND003",
            Code::CAND004 => "CAND004",
            Code::CAND005 => "CAND005",
            Code::CERT001 => "CERT001",
            Code::CERT002 => "CERT002",
            Code::CERT003 => "CERT003",
            Code::CERT004 => "CERT004",
            Code::CERT005 => "CERT005",
            Code::CERT006 => "CERT006",
            Code::CERT007 => "CERT007",
            Code::CERT008 => "CERT008",
            Code::CERT009 => "CERT009",
            Code::CERT010 => "CERT010",
            Code::CERT011 => "CERT011",
            Code::CERT012 => "CERT012",
            Code::CERT013 => "CERT013",
            Code::CERTB001 => "CERTB001",
            Code::CERTB002 => "CERTB002",
            Code::CERTB003 => "CERTB003",
            Code::CERTB004 => "CERTB004",
            Code::CERTB005 => "CERTB005",
            Code::CERTB006 => "CERTB006",
            Code::TRACE001 => "TRACE001",
            Code::TRACE002 => "TRACE002",
            Code::TRACE003 => "TRACE003",
            Code::TRACE004 => "TRACE004",
            Code::TRACE005 => "TRACE005",
            Code::STORE001 => "STORE001",
            Code::STORE002 => "STORE002",
            Code::STORE003 => "STORE003",
            Code::STORE004 => "STORE004",
            Code::STORE005 => "STORE005",
            Code::SRV001 => "SRV001",
            Code::SRV002 => "SRV002",
            Code::SRV003 => "SRV003",
            Code::SRV004 => "SRV004",
            Code::SRV005 => "SRV005",
        }
    }

    /// One-line meaning, used in reports and the README table.
    pub fn summary(self) -> &'static str {
        match self {
            Code::IR001 => "operand undefined or used before definition",
            Code::IR002 => "operand count does not match opcode arity",
            Code::IR003 => "data-flow graph contains a cycle",
            Code::IR004 => "variable slot written twice in one block",
            Code::IR005 => "invalid program structure",
            Code::IR006 => "unreachable basic block",
            Code::IR007 => "natural-loop header without iteration bound",
            Code::IR008 => "regions do not partition the valid nodes",
            Code::IR009 => "region decomposition region not maximal",
            Code::IR010 => "builder misuse during IR construction",
            Code::CAND001 => "candidate contains a CI-invalid operation",
            Code::CAND002 => "candidate is not convex",
            Code::CAND003 => "candidate exceeds the I/O port budget",
            Code::CAND004 => "candidate empty or out of range",
            Code::CAND005 => "candidate costs disagree with the hardware model",
            Code::CERT001 => "selected candidates overlap",
            Code::CERT002 => "area budget exceeded",
            Code::CERT003 => "reported totals disagree with recomputation",
            Code::CERT004 => "ILP constraint row or objective violated",
            Code::CERT005 => "EDF claim contradicts the exact demand test",
            Code::CERT006 => "RMS selection fails the exact re-test",
            Code::CERT007 => "Pareto front contains a dominated point",
            Code::CERT008 => "configuration curve breaks the staircase invariant",
            Code::CERT009 => "graph partition invalid",
            Code::CERT010 => "per-configuration fabric area exceeded",
            Code::CERT011 => "reconfiguration gain/count/schedulability wrong",
            Code::CERT012 => "task assignment inconsistent",
            Code::CERT013 => "simulated cycles disagree with gain accounting",
            Code::CERTB001 => "B&B certificate structurally invalid",
            Code::CERTB002 => "B&B bound prune unjustified",
            Code::CERTB003 => "B&B infeasibility prune unjustified",
            Code::CERTB004 => "B&B leaf infeasible or inconsistent",
            Code::CERTB005 => "solution disagrees with replayed incumbent",
            Code::CERTB006 => "B&B certificate truncated; optimality unproven",
            Code::TRACE001 => "trace document lacks a traceEvents array",
            Code::TRACE002 => "trace event malformed or missing name/ph",
            Code::TRACE003 => "trace event phase unknown",
            Code::TRACE004 => "trace event ts/pid/tid missing or invalid",
            Code::TRACE005 => "trace begin/end events unbalanced",
            Code::STORE001 => "store entry unreadable or malformed",
            Code::STORE002 => "store entry key or family mismatch",
            Code::STORE003 => "store entry checksum mismatch",
            Code::STORE004 => "store payload fails re-certification",
            Code::STORE005 => "store entry format version mismatch",
            Code::SRV001 => "response missing or ill-typed field",
            Code::SRV002 => "response declares an unknown request kind",
            Code::SRV003 => "response checksum mismatch",
            Code::SRV004 => "response result fails re-certification",
            Code::SRV005 => "error response malformed",
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but not certainly wrong.
    Warning,
    /// The artifact is definitely invalid.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// Where in an artifact a finding points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Location {
    /// The artifact as a whole.
    Global,
    /// A basic block (by index).
    Block(usize),
    /// A DFG node, optionally qualified by its block.
    Node {
        /// Containing block, when known.
        block: Option<usize>,
        /// Node index within the DFG.
        node: usize,
    },
    /// A region of the decomposition.
    Region(usize),
    /// A candidate (index into the candidate list under check).
    Candidate(usize),
    /// A task (index into the spec/task list).
    Task(usize),
    /// An ILP constraint row.
    Row(usize),
    /// A point of a curve or front.
    Point(usize),
    /// A graph vertex.
    Vertex(usize),
    /// A reconfiguration configuration id.
    Config(usize),
    /// A hot loop of a reconfiguration problem.
    Loop(usize),
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Location::Global => write!(f, "-"),
            Location::Block(b) => write!(f, "block {b}"),
            Location::Node {
                block: Some(b),
                node,
            } => write!(f, "block {b} node {node}"),
            Location::Node { block: None, node } => write!(f, "node {node}"),
            Location::Region(r) => write!(f, "region {r}"),
            Location::Candidate(c) => write!(f, "candidate {c}"),
            Location::Task(t) => write!(f, "task {t}"),
            Location::Row(r) => write!(f, "row {r}"),
            Location::Point(p) => write!(f, "point {p}"),
            Location::Vertex(v) => write!(f, "vertex {v}"),
            Location::Config(c) => write!(f, "config {c}"),
            Location::Loop(l) => write!(f, "loop {l}"),
        }
    }
}

/// One finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable code.
    pub code: Code,
    /// Severity.
    pub severity: Severity,
    /// Where the finding points.
    pub location: Location,
    /// Human-readable detail (includes the recomputed evidence).
    pub message: String,
}

impl Diagnostic {
    /// JSON form for `rtise-obs` reports.
    pub fn to_json(&self) -> Value {
        Value::obj(vec![
            ("code", Value::Str(self.code.as_str().into())),
            ("severity", Value::Str(self.severity.to_string())),
            ("location", Value::Str(self.location.to_string())),
            ("message", Value::Str(self.message.clone())),
        ])
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] at {}: {}",
            self.code, self.severity, self.location, self.message
        )
    }
}

/// An ordered collection of findings with assertion and rendering helpers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Diagnostics {
    items: Vec<Diagnostic>,
}

impl Diagnostics {
    /// An empty collection.
    pub fn new() -> Self {
        Diagnostics::default()
    }

    /// Records an error.
    pub fn error(&mut self, code: Code, location: Location, message: impl Into<String>) {
        self.items.push(Diagnostic {
            code,
            severity: Severity::Error,
            location,
            message: message.into(),
        });
    }

    /// Records a warning.
    pub fn warn(&mut self, code: Code, location: Location, message: impl Into<String>) {
        self.items.push(Diagnostic {
            code,
            severity: Severity::Warning,
            location,
            message: message.into(),
        });
    }

    /// Appends all findings of `other`.
    pub fn merge(&mut self, other: Diagnostics) {
        self.items.extend(other.items);
    }

    /// No findings at all.
    pub fn is_clean(&self) -> bool {
        self.items.is_empty()
    }

    /// Number of findings.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether there are no findings (alias of [`Diagnostics::is_clean`]
    /// for the conventional pair with [`Diagnostics::len`]).
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Iterates the findings in report order.
    pub fn iter(&self) -> impl Iterator<Item = &Diagnostic> {
        self.items.iter()
    }

    /// Whether any finding carries `code`.
    pub fn has(&self, code: Code) -> bool {
        self.items.iter().any(|d| d.code == code)
    }

    /// Number of findings carrying `code`.
    pub fn count(&self, code: Code) -> usize {
        self.items.iter().filter(|d| d.code == code).count()
    }

    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.items
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Multi-line human report (one finding per line); empty string when
    /// clean.
    pub fn render(&self) -> String {
        self.items
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// JSON array of findings for `rtise-obs` reports.
    pub fn to_json(&self) -> Value {
        Value::Arr(self.items.iter().map(Diagnostic::to_json).collect())
    }
}

impl fmt::Display for Diagnostics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

impl IntoIterator for Diagnostics {
    type Item = Diagnostic;
    type IntoIter = std::vec::IntoIter<Diagnostic>;
    fn into_iter(self) -> Self::IntoIter {
        self.items.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_render_stably() {
        assert_eq!(Code::IR003.as_str(), "IR003");
        assert_eq!(Code::CAND003.to_string(), "CAND003");
        assert_eq!(Code::ALL.len(), 49);
        assert_eq!(Code::STORE003.as_str(), "STORE003");
        assert_eq!(Code::SRV004.to_string(), "SRV004");
        for c in Code::ALL {
            assert!(!c.summary().is_empty());
        }
    }

    #[test]
    fn diagnostics_collect_and_render() {
        let mut d = Diagnostics::new();
        assert!(d.is_clean());
        d.error(Code::CERT002, Location::Task(1), "area 10 > budget 8");
        d.warn(Code::IR006, Location::Block(3), "unreachable");
        assert_eq!(d.len(), 2);
        assert_eq!(d.error_count(), 1);
        assert!(d.has(Code::CERT002));
        assert!(!d.has(Code::IR001));
        let text = d.render();
        assert!(text.contains("CERT002 [error] at task 1"));
        assert!(text.contains("IR006 [warning] at block 3"));
        let json = d.to_json();
        let arr = json.as_arr().expect("array");
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[0].get("code").and_then(|v| v.as_str()), Some("CERT002"));
    }
}
