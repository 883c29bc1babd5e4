//! # rtise-kernels
//!
//! The benchmark workload of the paper, re-implemented as executable IR
//! programs: the MiBench / MediaBench / WCET-suite kernels used in the
//! Chapter 3–5 task sets, the JPEG stage loops of the Chapter 6 case study,
//! and the wearable bio-monitoring applications of Chapter 8.
//!
//! Each [`Kernel`] carries its program, initial state, and a reference Rust
//! implementation; [`Kernel::validate`] runs the simulator and cross-checks
//! the result bit-for-bit, so every customization experiment operates on
//! code that provably computes the real algorithm.
//!
//! # Example
//!
//! ```
//! use rtise_kernels::suite;
//!
//! let kernels = suite();
//! assert!(kernels.iter().any(|k| k.name == "crc32"));
//! for k in kernels.iter().take(3) {
//!     k.validate().expect("kernel output matches its reference");
//! }
//! ```

pub mod biomon;
pub mod builder;
pub mod crypto;
pub mod dsp;
pub mod media;

use rtise_ir::cfg::Program;
use rtise_sim::{RunResult, SimError, Simulator};
use std::fmt;

/// A benchmark kernel: an executable program plus its reference result.
pub struct Kernel {
    /// Benchmark name as used in the paper's tables.
    pub name: &'static str,
    /// The executable program.
    pub program: Program,
    /// Initial variable file.
    pub init_vars: Vec<i64>,
    /// Initial memory image.
    pub init_mem: Vec<i64>,
    /// Checks a run result against the reference implementation.
    #[allow(clippy::type_complexity)]
    check: Box<dyn Fn(&RunResult) -> Result<(), String> + Send + Sync>,
}

impl fmt::Debug for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Kernel")
            .field("name", &self.name)
            .field("blocks", &self.program.blocks.len())
            .finish()
    }
}

/// A kernel failed validation against its reference implementation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidateKernelError {
    /// Simulation failed.
    Sim(SimError),
    /// Output mismatch; the message names the first divergence.
    Mismatch {
        /// Kernel name.
        kernel: &'static str,
        /// Description of the divergence.
        detail: String,
    },
}

impl fmt::Display for ValidateKernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateKernelError::Sim(e) => write!(f, "simulation failed: {e}"),
            ValidateKernelError::Mismatch { kernel, detail } => {
                write!(f, "{kernel} diverged from reference: {detail}")
            }
        }
    }
}

impl std::error::Error for ValidateKernelError {}

impl Kernel {
    /// Builds a kernel from parts; `check` compares a run result with the
    /// reference implementation.
    pub fn new(
        name: &'static str,
        program: Program,
        init_vars: Vec<i64>,
        init_mem: Vec<i64>,
        check: impl Fn(&RunResult) -> Result<(), String> + Send + Sync + 'static,
    ) -> Self {
        #[cfg(test)]
        tests::BUILT.with(|n| n.set(n.get() + 1));
        Kernel {
            name,
            program,
            init_vars,
            init_mem,
            check: Box::new(check),
        }
    }

    /// Runs the kernel on its canonical input.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn run(&self) -> Result<RunResult, SimError> {
        Simulator::new(&self.program)?.run(&self.init_vars, &self.init_mem)
    }

    /// Runs the kernel with block-trace recording enabled.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn run_traced(&self) -> Result<RunResult, SimError> {
        Simulator::new(&self.program)?
            .with_trace(true)
            .run(&self.init_vars, &self.init_mem)
    }

    /// Runs the kernel and cross-checks the result against the reference
    /// implementation.
    ///
    /// # Errors
    ///
    /// [`ValidateKernelError::Sim`] on simulation failure,
    /// [`ValidateKernelError::Mismatch`] when outputs diverge.
    pub fn validate(&self) -> Result<RunResult, ValidateKernelError> {
        let out = self.run().map_err(ValidateKernelError::Sim)?;
        (self.check)(&out).map_err(|detail| ValidateKernelError::Mismatch {
            kernel: self.name,
            detail,
        })?;
        Ok(out)
    }
}

/// Deterministic pseudo-random data for kernel inputs (xorshift64*). Keeps
/// the crate free of runtime dependencies while making every experiment
/// reproducible.
#[derive(Debug, Clone)]
pub struct DataGen {
    state: u64,
}

impl DataGen {
    /// Creates a generator from a non-zero seed.
    pub fn new(seed: u64) -> Self {
        DataGen { state: seed.max(1) }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform value in `[0, bound)`.
    pub fn below(&mut self, bound: u64) -> i64 {
        (self.next_u64() % bound.max(1)) as i64
    }

    /// A vector of `n` values in `[0, bound)`.
    pub fn vec_below(&mut self, n: usize, bound: u64) -> Vec<i64> {
        (0..n).map(|_| self.below(bound)).collect()
    }
}

/// A suite kernel's name beside its constructor.
type Entry = (&'static str, fn() -> Kernel);

/// The whole suite, in suite order, so a lookup builds only the kernel it
/// asks for.
const KERNELS: &[Entry] = &[
    ("crc32", crypto::crc32),
    ("sha", crypto::sha),
    ("md5", crypto::md5),
    ("blowfish", crypto::blowfish),
    ("rijndael", crypto::rijndael),
    ("des3", crypto::des3),
    ("ndes", crypto::ndes),
    ("adpcm_encode", media::adpcm_encode),
    ("adpcm_decode", media::adpcm_decode),
    ("jfdctint", media::jfdctint),
    ("g721_decode", media::g721_decode),
    ("g721_encode", media::g721_encode),
    ("jpeg", media::jpeg_pipeline),
    ("lms", dsp::lms),
    ("fir", dsp::fir),
    ("susan", dsp::susan),
    ("compress", dsp::compress),
    ("matmul", dsp::matmul),
    ("bitcount", dsp::bitcount),
    ("viterbi", dsp::viterbi),
    ("vital_signs", biomon::vital_signs),
    ("fall_detection", biomon::fall_detection),
];

/// The full benchmark suite used across the experiments (Table 5.1 roster
/// plus the Chapter 3/4 MiBench picks, JPEG stages, and bio-monitoring).
pub fn suite() -> Vec<Kernel> {
    KERNELS.iter().map(|(_, build)| build()).collect()
}

/// The suite's kernel names, in suite order, without building any kernel.
pub fn names() -> impl Iterator<Item = &'static str> {
    KERNELS.iter().map(|&(name, _)| name)
}

/// Looks a kernel up by name, building only that kernel.
pub fn by_name(name: &str) -> Option<Kernel> {
    KERNELS
        .iter()
        .find(|&&(n, _)| n == name)
        .map(|(_, build)| build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    thread_local! {
        /// Kernels built on this thread, so tests can see what a lookup builds.
        pub(super) static BUILT: Cell<usize> = const { Cell::new(0) };
    }

    fn built_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
        let before = BUILT.with(Cell::get);
        let out = f();
        (out, BUILT.with(Cell::get) - before)
    }

    #[test]
    fn kernel_table_is_consistent_with_the_suite() {
        for &(name, build) in KERNELS {
            assert_eq!(build().name, name, "entry {name} builds another kernel");
        }
        // `reproduce` output iterates the suite, so its order is fixed.
        let expected = [
            "crc32",
            "sha",
            "md5",
            "blowfish",
            "rijndael",
            "des3",
            "ndes",
            "adpcm_encode",
            "adpcm_decode",
            "jfdctint",
            "g721_decode",
            "g721_encode",
            "jpeg",
            "lms",
            "fir",
            "susan",
            "compress",
            "matmul",
            "bitcount",
            "viterbi",
            "vital_signs",
            "fall_detection",
        ];
        let suite_names: Vec<_> = suite().iter().map(|k| k.name).collect();
        assert_eq!(suite_names, expected);
        let (listed, built) = built_by(|| names().collect::<Vec<_>>());
        assert_eq!(listed, suite_names);
        assert_eq!(built, 0, "listing names builds no kernel");
    }

    #[test]
    fn whole_suite_validates_against_references() {
        for k in suite() {
            k.validate()
                .unwrap_or_else(|e| panic!("kernel {} failed: {e}", k.name));
        }
    }

    #[test]
    fn suite_names_are_unique() {
        let ks = suite();
        let mut names: Vec<_> = ks.iter().map(|k| k.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ks.len());
    }

    #[test]
    fn by_name_finds_known_kernels() {
        assert!(by_name("crc32").is_some());
        assert!(by_name("jfdctint").is_some());
        let (unknown, built) = built_by(|| by_name("nonexistent"));
        assert!(unknown.is_none());
        assert_eq!(built, 0, "an unknown name builds nothing");
        let (fir, built) = built_by(|| by_name("fir"));
        assert_eq!(fir.map(|k| k.name), Some("fir"));
        assert_eq!(built, 1, "a lookup builds only the kernel it names");
    }

    #[test]
    fn wcet_analysis_covers_the_whole_suite() {
        for k in suite() {
            let r =
                rtise_ir::wcet::analyze(&k.program).unwrap_or_else(|e| panic!("{}: {e}", k.name));
            let sim = k.run().expect("run");
            assert!(
                r.wcet >= sim.cycles,
                "{}: WCET {} < simulated {}",
                k.name,
                r.wcet,
                sim.cycles
            );
        }
    }

    #[test]
    fn datagen_is_deterministic() {
        let mut a = DataGen::new(7);
        let mut b = DataGen::new(7);
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let v = DataGen::new(9).vec_below(5, 100);
        assert!(v.iter().all(|&x| (0..100).contains(&x)));
    }
}
