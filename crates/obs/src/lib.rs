//! # rtise-obs
//!
//! The observability substrate of the rtise workspace: **std-only**
//! scoped counters, histograms and trace events, wall-clock timers, a
//! minimal JSON writer/parser, and a deterministic seedable PRNG.
//!
//! Every result table of the source paper is a claim about *solver
//! behaviour* — branch-and-bound node counts, DP grid sizes, pruning
//! effectiveness, enumeration accept/reject ratios, running times. This
//! crate supplies the measurement layer those claims are checked against,
//! without pulling in any external dependency (the build environment is
//! offline): no `serde`, no `tracing`, no `rand`.
//!
//! The pieces:
//!
//! * [`scope`] — [`Scope`], the one thread-inherited sink every
//!   measurement lands in. The `reproduce` harness brackets each
//!   experiment in a scope — exact even when experiments run
//!   concurrently on a worker pool — and emits its counters into the
//!   machine-readable run report. A scope made with
//!   [`Scope::with_clock`] also stores timed events ([`span`],
//!   [`instant_with`], [`summary`]), which `rtise-trace` exports as a
//!   Chrome Trace; [`isolate`] detaches a thread from every scope at
//!   once.
//! * [`registry`] — [`record`]/[`observe`]/[`observe_hist`], through
//!   which solvers publish statistics under dotted keys
//!   (`ilp.nodes_explored`, `select.edf.dp_cells`, …) into every entered
//!   scope, and [`attribute`]/[`attribute_hists`], through which caches
//!   replay the cost of a memoized artifact to each consumer.
//! * [`hist`] — fixed-bucket log2 histograms with exact small-sample
//!   p50/p90/p99, the third first-class metric next to counters and
//!   timers.
//! * [`report`] — [`Timer`], the wall-clock stopwatch reports use.
//! * [`certlog`] — [`BoundedLog`], the capped drop-with-marker event log
//!   the branch-and-bound solvers record into, and [`Certificate`], the
//!   one replayable optimality certificate it becomes.
//! * [`json`] — a tiny JSON document model with a writer and one
//!   reader: [`json::read`] makes a flat token tape that
//!   [`json::Node`]s read in place, and [`json::parse`] turns it into an
//!   owned [`json::Value`].
//! * [`rng`] — a SplitMix64 PRNG with range/bool/shuffle helpers, the
//!   in-repo replacement for the `rand` crate used by the randomized
//!   algorithms (multilevel partitioning) and the randomized tests.
//! * [`args`] — [`Args`](args::Args), the one command-line parser of the
//!   workspace's binaries and the owner of their usage-error policy
//!   (exit code 2, the offending flag named).
//! * [`lanes`] — [`lanes()`](lanes::lanes), the one way work fans out to
//!   threads: `jobs` lanes claim indices in order, each in an optional
//!   labelled scope, and results stream back in index order.
//!
//! # Example
//!
//! ```
//! use rtise_obs::{observe, record, span, Clock, Scope};
//!
//! let scope = Scope::with_clock(Clock::Virtual);
//! {
//!     let _active = scope.enter();
//!     let _harvest = span("harvest");
//!     record("candidates", 42);
//!     observe("candidate.size", 3);
//! }
//! assert_eq!(scope.counters()["candidates"], 42);
//! assert_eq!(scope.hists()["candidate.size"].count(), 1);
//! assert_eq!(scope.events().len(), 2); // span begin + end
//! ```

pub mod args;
pub mod certlog;
pub mod hash;
pub mod hist;
pub mod json;
#[cfg(test)]
mod json_reference;
pub mod lanes;
pub mod registry;
pub mod report;
pub mod rng;
pub mod scope;

pub use certlog::{BoundedLog, Certificate};
pub use hash::{fnv1a, Fnv1a};
pub use hist::Hist;
pub use registry::{attribute, attribute_hists, observe, observe_hist, record, CounterScope};
pub use report::Timer;
pub use rng::Rng;
pub use scope::{
    enabled, instant, instant_with, isolate, span, summary, Clock, Event, EventKind, Scope,
    RING_CAP,
};
