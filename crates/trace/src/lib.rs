//! # rtise-trace
//!
//! Hierarchical span tracing for the rtise workbench: the telemetry
//! layer that explains *where* solver time and search effort go.
//!
//! Counters answer "how many nodes did this experiment expand"; traces
//! answer "in which phase, at what depth, pruned for which reason, and
//! when". Both land in the same [`rtise_obs::Scope`]: a scope made with
//! [`Scope::with_clock`](rtise_obs::Scope::with_clock) stores events
//! besides its counters, and this crate re-exports the event functions
//! — [`span`], [`instant`]/[`instant_with`], [`summary`] — which record
//! into every clocked scope entered on the calling thread. With no
//! clocked scope entered anywhere the [`enabled`] gate is a
//! single relaxed atomic load, so instrumentation in solver hot loops
//! costs nothing when nobody is listening. Bulk instants are ring-capped
//! per scope ([`RING_CAP`]) with a surfaced drop counter — structural
//! begin/end events and pinned summaries are always kept. Under
//! [`Clock::Virtual`] timestamps are per-scope sequence numbers, which
//! makes the trace *structure* bit-deterministic: jobs-1 and jobs-4 runs
//! of the reproduce pool produce identical virtual traces.
//!
//! The pieces:
//!
//! * [`bnb`] — the [`bnb::SearchOpts`] / [`bnb::SearchOutput`] of the
//!   configurable entry points of the ILP, ISE, and RMS branch-and-bound
//!   searches, next to the [`codes`] those searches emit.
//! * [`codes`] — the stable event-name vocabulary (prune reasons,
//!   incumbent updates, per-solve summaries) shared by the ILP, ISE,
//!   and RMS branch-and-bound cores and the EDF DP.
//! * [`chrome`] — Chrome Trace Event Format export
//!   (`chrome://tracing` / Perfetto can open the artifact directly).
//! * [`view`] — text renderers over an exported trace (per-name
//!   summary, indented flamegraph) and the `canon` report
//!   canonicalizer used by CI to assert that the deterministic
//!   `--json` artifact is byte-identical with tracing on and off.
//!
//! # Example
//!
//! ```
//! use rtise_obs::Scope;
//! use rtise_trace::{chrome, codes, Clock};
//!
//! let scope = Scope::with_clock(Clock::Virtual);
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
pub mod view;

pub use rtise_obs::scope::{
    enabled, instant, instant_with, span, summary, Clock, Event, EventKind, SpanGuard, RING_CAP,
};

/// The name [`rtise_obs::Scope`] had when traces had a scope type of
/// their own. Workspace code says `Scope`; the alias keeps code built
/// outside the workspace against these crates (the `e2ebench` probe)
/// compiling.
pub type TraceScope = rtise_obs::Scope;
