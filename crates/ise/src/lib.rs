//! # rtise-ise
//!
//! Automated custom-instruction generation for a single task, following the
//! two-phase flow of §2.3:
//!
//! 1. **Identification** ([`enumerate`]) — enumerate feasible candidate
//!    subgraphs of each hot basic block's DFG: maximal multiple-input
//!    single-output (MaxMISO) patterns and connected convex MIMO subgraphs
//!    under input/output port constraints.
//! 2. **Selection** ([`select`]) — pick a non-overlapping subset of
//!    candidates maximizing profiled cycle gain under a silicon-area budget:
//!    a gain/area greedy, an exact branch-and-bound, and the Iterative
//!    Selection (IS) baseline of Pozzi et al. used for comparison in
//!    Chapter 5.
//!
//! On top of both sits [`configs`], which sweeps area budgets to produce a
//! task's *configuration curve* — the (area, cycles) staircase of Fig. 3.1
//! that the multi-task selectors of Chapters 3, 4 and 7 consume.

pub mod candidate;
pub mod configs;
pub mod enumerate;
pub mod metaheuristics;
pub mod select;

pub use candidate::{harvest, CiCandidate, HarvestOptions};
pub use configs::{ConfigCurve, ConfigPoint};
pub use enumerate::{
    enumerate_connected, enumerate_disconnected, maximal_miso, EnumerateOptions, MAX_FAST_NODES,
};
pub use metaheuristics::{genetic_select, simulated_annealing_select, GaOptions, SaOptions};
pub use select::{
    branch_and_bound, branch_and_bound_with, greedy_by_ratio, iterative_selection, IseBnbStats,
    IseCertEvent, IseCertificate, Selection,
};
