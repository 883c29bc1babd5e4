//! The stable event-name vocabulary.
//!
//! Trace event names are an interface: CI greps for them, the
//! jobs-equivalence tests count them, and downstream tooling keys on
//! them. They follow the same dotted convention as the counter registry
//! keys and, like `rtise-check` diagnostic codes, are append-only —
//! never rename or reuse one.

/// ILP branch-and-bound: per-solve root span.
pub const ILP_SOLVE: &str = "ilp.solve";
/// ILP: node abandoned because a constraint row is already violated.
pub const ILP_PRUNE_INFEASIBLE: &str = "ilp.prune.infeasible";
/// ILP: node abandoned because the optimistic bound cannot beat the
/// incumbent.
pub const ILP_PRUNE_BOUND: &str = "ilp.prune.bound";
/// ILP: a complete assignment improved the incumbent.
pub const ILP_INCUMBENT: &str = "ilp.incumbent";
/// ILP: pinned per-solve roll-up (nodes, prune counts, incumbents).
pub const ILP_SUMMARY: &str = "ilp.solve.summary";

/// ISE selection branch-and-bound: per-solve root span.
pub const ISE_BNB_SOLVE: &str = "ise.bnb.solve";
/// ISE B&B: subtree cut by the fractional-knapsack bound.
pub const ISE_BNB_PRUNE_BOUND: &str = "ise.bnb.prune.bound";
/// ISE B&B: a better selection became the incumbent.
pub const ISE_BNB_INCUMBENT: &str = "ise.bnb.incumbent";
/// ISE B&B: pinned per-solve roll-up.
pub const ISE_BNB_SUMMARY: &str = "ise.bnb.solve.summary";

/// RMS configuration-selection branch-and-bound: per-solve root span.
pub const SELECT_RMS_SOLVE: &str = "select.rms.solve";
/// RMS B&B: subtree cut by the utilization suffix bound.
pub const SELECT_RMS_PRUNE_BOUND: &str = "select.rms.prune.bound";
/// RMS B&B: configuration skipped for exceeding the area budget.
pub const SELECT_RMS_PRUNE_AREA: &str = "select.rms.prune.area";
/// RMS B&B: configuration rejected by the Theorem-1 schedulability
/// test.
pub const SELECT_RMS_PRUNE_UNSCHED: &str = "select.rms.prune.unsched";
/// RMS B&B: a cheaper schedulable assignment became the incumbent.
pub const SELECT_RMS_INCUMBENT: &str = "select.rms.incumbent";
/// RMS B&B: pinned per-solve roll-up.
pub const SELECT_RMS_SUMMARY: &str = "select.rms.solve.summary";

/// EDF demand-bound DP: per-solve root span.
pub const SELECT_EDF_SOLVE: &str = "select.edf.solve";
/// EDF DP: the sparse grid overflowed and the solver fell back to the
/// dense reference grid.
pub const SELECT_EDF_DENSE_FALLBACK: &str = "select.edf.dense_fallback";
/// EDF DP: pinned per-solve roll-up (grid size, cells, transitions).
pub const SELECT_EDF_SUMMARY: &str = "select.edf.solve.summary";

/// Export-time instant carrying a scope's ring-cap drop count; emitted
/// by the Chrome exporter whenever events were dropped, so truncation
/// is visible in the artifact itself.
pub const TRACE_DROPPED: &str = "trace.dropped_events";

/// Candidate enumeration fell off the bitset path onto the generic
/// exponential walk because the DFG has more than 1024 nodes (the
/// "enumeration wall"); carries the DFG's node count.
pub const ISE_ENUM_GENERIC_PATH: &str = "ise.enumerate.generic_path";

// The five `ise.iter.*` codes (the Kernighan–Lin ISE generator's spans
// and events) are retired with the generator; the names are not reused.

/// Every code above, for docs and exhaustiveness tests.
pub const ALL: &[&str] = &[
    ILP_SOLVE,
    ILP_PRUNE_INFEASIBLE,
    ILP_PRUNE_BOUND,
    ILP_INCUMBENT,
    ILP_SUMMARY,
    ISE_BNB_SOLVE,
    ISE_BNB_PRUNE_BOUND,
    ISE_BNB_INCUMBENT,
    ISE_BNB_SUMMARY,
    SELECT_RMS_SOLVE,
    SELECT_RMS_PRUNE_BOUND,
    SELECT_RMS_PRUNE_AREA,
    SELECT_RMS_PRUNE_UNSCHED,
    SELECT_RMS_INCUMBENT,
    SELECT_RMS_SUMMARY,
    SELECT_EDF_SOLVE,
    SELECT_EDF_DENSE_FALLBACK,
    SELECT_EDF_SUMMARY,
    TRACE_DROPPED,
    ISE_ENUM_GENERIC_PATH,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique_dotted_and_stable() {
        let mut seen = std::collections::BTreeSet::new();
        for &code in ALL {
            assert!(code.contains('.'), "{code} must be dotted");
            assert!(
                code.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '.' || c == '_'),
                "{code} must be lowercase dotted"
            );
            assert!(seen.insert(code), "{code} duplicated");
        }
        assert_eq!(ALL.len(), 20);
    }
}
