//! # rtise-trace
//!
//! Hierarchical span tracing for the rtise workbench: the telemetry
//! layer that explains *where* solver time and search effort go, built
//! on the same thread-inherited scope discipline as
//! [`rtise_obs::CounterScope`].
//!
//! The counter registry (PR 4) answers "how many nodes did this
//! experiment expand"; this crate answers "in which phase, at what
//! depth, pruned for which reason, and when". The pieces:
//!
//! * [`scope`] — [`TraceScope`], a cloneable event sink activated per
//!   thread with [`TraceScope::enter`]. While entered, free functions
//!   [`span`], [`instant`]/[`instant_with`], and [`summary`] record
//!   into every active scope; with no scope entered anywhere the
//!   [`enabled`] gate is a single relaxed atomic load, so
//!   instrumentation in solver hot loops costs nothing when nobody is
//!   listening. Bulk instants are ring-capped per scope
//!   ([`RING_CAP`]) with a surfaced drop counter — structural
//!   begin/end events and pinned summaries are always kept.
//! * Clocks — [`Clock::Real`] stamps nanoseconds since a process
//!   epoch; [`Clock::Virtual`] stamps a per-scope sequence number,
//!   which makes the trace *structure* (span tree, event order, prune
//!   codes) bit-deterministic and therefore testable: jobs-1 and
//!   jobs-4 runs of the reproduce pool must produce identical virtual
//!   traces.
//! * [`bnb`] — the subtree-parallel branch-and-bound driver the ILP,
//!   ISE, and RMS searches share, and the [`bnb::SearchOpts`] /
//!   [`bnb::SearchOutput`] of their configurable entry points. It lives
//!   here because it isolates and replays per-subtree trace scopes.
//! * [`codes`] — the stable event-name vocabulary (prune reasons,
//!   incumbent updates, per-solve summaries) shared by the ILP, ISE,
//!   and RMS branch-and-bound cores and the EDF DP.
//! * [`chrome`] — Chrome Trace Event Format JSON export
//!   (`chrome://tracing` / Perfetto can open the artifact directly).
//! * [`view`] — text renderers over an exported trace (per-name
//!   summary, indented flamegraph) and the `canon` report
//!   canonicalizer used by CI to assert that the deterministic
//!   `--json` artifact is byte-identical with tracing on and off.
//!
//! # Example
//!
//! ```
//! use rtise_trace::{chrome, codes, Clock, TraceScope};
//!
//! let scope = TraceScope::new(Clock::Virtual);
//! {
//!     let _active = scope.enter();
//!     let _solve = rtise_trace::span("ilp.solve");
//!     rtise_trace::instant_with(codes::ILP_PRUNE_BOUND, &[("depth", 3)]);
//! }
//! let doc = chrome::chrome_trace(&[("example".to_string(), scope)]);
//! assert!(doc.render().contains("ilp.prune.bound"));
//! ```

pub mod bnb;
pub mod chrome;
pub mod codes;
pub mod scope;
pub mod view;

pub use scope::{
    enabled, instant, instant_with, isolate, replay, span, summary, Clock, Event, EventKind,
    SpanGuard, TraceGuard, TraceIsolationGuard, TraceScope, RING_CAP,
};
