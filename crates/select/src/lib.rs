//! # rtise-select
//!
//! Inter-task custom-instruction selection for multi-tasking real-time
//! systems — the core contribution of the DATE 2007 paper plus its Pareto
//! extension:
//!
//! * [`task`] — the task model consumed by all selectors: one configuration
//!   curve ([`rtise_ise::ConfigCurve`]) per periodic task.
//! * [`edf`] — Algorithm 1: a pseudo-polynomial dynamic program that picks
//!   one configuration per task minimizing total utilization under an area
//!   budget (optimal for EDF, whose exact schedulability is `U ≤ 1`).
//! * [`rms`] — Algorithm 2: branch-and-bound over configuration choices
//!   with the exact RMS schedulability test at every level, utilization
//!   lower-bound pruning, and best-performance-first ordering.
//! * [`heuristics`] — the four naïve per-task strategies of the motivating
//!   example (Fig. 3.2): equal area split, smallest deadline first, highest
//!   utilization reduction first, highest reduction/area ratio first.
//! * [`pareto`] — Chapter 4: exact workload–area / utilization–area Pareto
//!   fronts and the polynomial-time ε-approximation scheme built on the GAP
//!   subroutine with cost scaling.

pub mod edf;
pub mod heuristics;
pub mod pareto;
pub mod rms;
pub mod task;

pub use edf::select_edf;
pub use rms::{select_rms, select_rms_with, RmsCertEvent, RmsCertificate};
pub use task::{Assignment, TaskSpec};
