//! rtise-perf: offline microbenchmark harness for the solver kernels.
//!
//! Each solver kernel is timed against a second path — its retained
//! `*_reference` implementation, or the certified call of the same search
//! (for `ise_bnb`) — on identical seeded inputs (drawn from
//! [`rtise_fuzz::gen`], the same distributions the fuzz campaigns
//! explore), and the harness emits a versioned BENCH JSON document — the
//! repo's performance trajectory. The design goals, in order:
//!
//! 1. **Offline.** No criterion, no external crates: `std::time::Instant`,
//!    warmup plus a fixed number of timed batch executions, median
//!    extraction. Medians over batches make single-digit-microsecond
//!    kernels measurable without a calibration phase.
//! 2. **Deterministic inputs.** Benchmark inputs derive from a SplitMix64
//!    seed mixed with the kernel name and input size, so every run of the
//!    same binary times the same work. Only the *timings* vary by machine.
//! 3. **Comparable across modes.** `--smoke` reduces sample counts only;
//!    the input-size sweep is identical to full mode, so a CI smoke run is
//!    directly comparable against the committed full-mode baseline.
//! 4. **Attributable.** Each measured point captures the optimized path's
//!    solver counter deltas via [`rtise_obs::Scope`], tying the
//!    timing to the amount of search work actually performed.
//!
//! The `bench` binary drives the sweep, renders the report, and — given
//! `--baseline BENCH_N.json` — fails when any kernel regresses past
//! [`report::REGRESSION_FACTOR`] at a matching (kernel, size) point.

pub mod kernels;
pub mod measure;
pub mod report;
