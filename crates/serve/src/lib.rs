//! # rtise-serve
//!
//! A long-running design-space-exploration service over the paper's
//! solvers: clients submit (kernel, options, budget) tuples — curve
//! generation, EDF/RMS/ILP instruction-set selection, and the JPEG
//! reconfiguration problem — as line-delimited JSON over stdin or a TCP
//! socket, and get back self-contained, checksummed responses that
//! [`rtise::check::serve`] can re-certify from first principles.
//!
//! Three layers:
//!
//! - [`proto`]/[`engine`] — the wire protocol and a pure request →
//!   response executor whose `work` field (solver-counter sum) is
//!   deterministic for a given request.
//! - [`server`] — answers each request on the thread that read it, with
//!   in-flight dedup (identical concurrent requests share one
//!   computation), at most `jobs` computations at once, and the sharded
//!   content-addressed artifact store in [`rtise_bench::store`] behind
//!   it; cached responses are re-certified on load and corrupt entries
//!   recomputed.
//! - [`traffic`]/[`loadtest`] — a seeded Zipf workload generator and an
//!   in-process load test whose obs-JSON report is byte-identical at any
//!   lane count.
//!
//! ```text
//! $ echo '{"id": 1, "kind": "ilp", "seed": 5}' | serve --stdin
//! {"id": 1, "ok": true, "kind": "ilp", "work": ..., "result": {...}, "checksum": "..."}
//! $ serve loadtest --seed 42 --requests 1000 --jobs 4 --cache-dir store
//! ```

pub mod engine;
pub mod loadtest;
pub mod proto;
pub mod server;
pub mod traffic;

pub use engine::{execute, ResponseArtifact};
pub use proto::{dedup_key, parse, ReqKind, Request};
pub use server::{serve_lines, Server, ServerConfig};
