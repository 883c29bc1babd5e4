//! # rtise-ir
//!
//! Intermediate representation for the `rtise` instruction-set customization
//! toolchain.
//!
//! The crate provides the substrate that every customization algorithm in the
//! workspace consumes:
//!
//! * [`op::OpKind`] — the primitive operation set of the base processor,
//!   annotated with software latencies, hardware latencies and silicon area
//!   (see [`hw`]).
//! * [`dfg::Dfg`] — a data-flow graph for one basic block, with convexity and
//!   input/output-operand feasibility checks over [`nodeset::NodeSet`]
//!   subgraphs. Feasible convex subgraphs are exactly the *custom instruction
//!   candidates* of the paper.
//! * [`mod@cfg`] — basic blocks, a control-flow graph with executable terminator
//!   semantics, natural-loop detection and per-loop iteration bounds.
//! * [`wcet`] — worst-case execution time via the timing-schema approach used
//!   in Chapter 5 of the paper, including the WCET path and per-block weights.
//! * [`region`] — decomposition of a DFG into maximal regions of *valid*
//!   (hardware-implementable) operations, the unit of work for the MLGP
//!   generator.
//!
//! # Example
//!
//! Build a tiny multiply–accumulate data-flow graph and check that it is a
//! feasible custom-instruction candidate under a 4-input / 2-output budget:
//!
//! ```
//! use rtise_ir::dfg::{Dfg, Operand};
//! use rtise_ir::op::OpKind;
//! use rtise_ir::hw::HwModel;
//!
//! let mut dfg = Dfg::new();
//! let a = dfg.input(0);
//! let b = dfg.input(1);
//! let c = dfg.input(2);
//! let m = dfg.node(OpKind::Mul, &[Operand::Node(a), Operand::Node(b)]);
//! let s = dfg.node(OpKind::Add, &[Operand::Node(m), Operand::Node(c)]);
//! dfg.output(0, s);
//!
//! let cand = dfg.full_valid_set();
//! assert!(dfg.is_convex(&cand));
//! assert!(dfg.io_counts(&cand).fits(4, 2));
//!
//! let hw = HwModel::default();
//! // A multiply–add chain fits in a single custom-instruction cycle.
//! assert_eq!(hw.ci_cycles(&dfg, &cand), 1);
//! ```

pub mod cfg;
pub mod dfg;
pub mod hw;
pub mod nodeset;
pub mod op;
pub mod region;
pub mod wcet;

pub use cfg::{BasicBlock, BlockId, Cfg, Program, Terminator};
pub use dfg::{Dfg, IoCounts, NodeId, Operand};
pub use hw::HwModel;
pub use nodeset::NodeSet;
pub use op::OpKind;
