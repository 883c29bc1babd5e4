//! The one command-line parser of the workspace's binaries.
//!
//! A binary declares its flags once, comma-separated: `--check` is a
//! switch, `--json PATH` takes one value. [`Args::parse`] reads the command
//! line against them in one pass; everything else is an operand, and a
//! flag given twice keeps its last value. The usage-error policy lives
//! here: an unknown flag, a flag without its value, or a value that fails
//! its check prints a message naming the flag, then the usage, to stderr
//! and exits with code 2.
//!
//! ```
//! use rtise_obs::args::Args;
//!
//! let argv = ["--jobs", "4", "fig3_2", "--check"].map(String::from);
//! let args = Args::parse_from("x", "--check, --jobs N, --json PATH", argv).unwrap();
//! assert!(args.has("--check"));
//! assert_eq!((args.jobs(), args.value("--json")), (Some(4), None));
//! assert_eq!(args.operands(), ["fig3_2"]);
//! ```

use crate::scope::Clock;
use std::fmt::Display;
use std::str::FromStr;

const JOBS_ZERO: &str = "--jobs 0 is not a worker count — did you mean --jobs 1 to run one at a \
                         time? (omit --jobs for the default)";

/// A command line read against a binary's flag declarations.
#[derive(Debug)]
pub struct Args {
    usage: String,
    switches: Vec<&'static str>,
    values: Vec<(&'static str, String)>,
    operands: Vec<String>,
}

impl Args {
    /// Reads the process's arguments against `flags`; see the
    /// [module docs](self). The usage text is `synopsis` (e.g.
    /// `"fuzz [FLAG]..."`) followed by `flags`.
    pub fn parse(synopsis: &str, flags: &'static str) -> Args {
        Args::parse_from(synopsis, flags, std::env::args().skip(1)).unwrap_or_else(|msg| {
            eprintln!("{msg}\nusage: {synopsis}\nflags: {flags}");
            std::process::exit(2)
        })
    }

    /// [`Args::parse`] over explicit arguments, returning the usage error
    /// instead of exiting.
    pub fn parse_from(
        synopsis: &str,
        flags: &'static str,
        args: impl IntoIterator<Item = String>,
    ) -> Result<Args, String> {
        let mut parsed = Args {
            usage: format!("usage: {synopsis}\nflags: {flags}"),
            switches: Vec::new(),
            values: Vec::new(),
            operands: Vec::new(),
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            if !arg.starts_with('-') {
                parsed.operands.push(arg);
                continue;
            }
            let Some(spec) = flags
                .split(", ")
                .find(|spec| spec.split(' ').next() == Some(&arg))
            else {
                return Err(format!("unknown flag {arg:?}"));
            };
            match spec.split_once(' ') {
                None => parsed.switches.push(spec),
                Some((name, _)) => match args.next() {
                    Some(value) => parsed.values.push((name, value)),
                    None => return Err(format!("{name} requires a value ({spec})")),
                },
            }
        }
        Ok(parsed)
    }

    /// Prints `msg` and the usage text to stderr and exits with code 2.
    pub fn fail(&self, msg: impl Display) -> ! {
        eprintln!("{msg}\n{}", self.usage);
        std::process::exit(2)
    }

    /// Whether the switch `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.switches.contains(&flag)
    }

    /// The last value given to `flag`.
    pub fn value(&self, flag: &str) -> Option<&str> {
        let mut given = self.values.iter().rev();
        given
            .find(|(name, _)| *name == flag)
            .map(|(_, v)| v.as_str())
    }

    /// The value of `flag` parsed as a `T`; one that does not parse is a
    /// usage error.
    pub fn parsed<T: FromStr>(&self, flag: &str) -> Option<T> {
        let value = self.value(flag)?;
        let parsed = value.parse().ok();
        Some(parsed.unwrap_or_else(|| self.fail(format!("invalid value {value:?} for {flag}"))))
    }

    /// The `--jobs` worker count. Zero is a usage error that hints at
    /// `--jobs 1`: no binary reads it as "pick for me".
    pub fn jobs(&self) -> Option<usize> {
        self.value("--jobs").map(|v| match v.parse() {
            Ok(0) => self.fail(JOBS_ZERO),
            Ok(n) => n,
            Err(_) => self.fail(format!("--jobs requires a count >= 1, got {v:?}")),
        })
    }

    /// The [`Clock`] named by `flag`'s value, `real` or `virtual`.
    pub fn clock(&self, flag: &str) -> Option<Clock> {
        self.value(flag).map(|v| match v {
            "real" => Clock::Real,
            "virtual" => Clock::Virtual,
            _ => self.fail(format!("{flag} requires `real` or `virtual`, got {v:?}")),
        })
    }

    /// The arguments that are not flags or flag values, in order.
    pub fn operands(&self) -> &[String] {
        &self.operands
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FLAGS: &str = "--list, --jobs N, --json PATH, --clock real|virtual";

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse_from("t", FLAGS, args.iter().map(ToString::to_string))
    }

    #[test]
    fn flags_values_and_operands_separate_in_one_pass() {
        let a = parse(&[
            "a", "--json", "x", "--list", "b", "--json", "-", "--jobs", "3",
        ]);
        let a = a.expect("parses");
        assert!(a.has("--list") && !a.has("--clock"));
        // The last value wins, and a value may look like a flag.
        assert_eq!((a.value("--json"), a.jobs()), (Some("-"), Some(3)));
        assert_eq!(a.operands(), ["a", "b"]);
        assert_eq!(a.usage, format!("usage: t\nflags: {FLAGS}"));
    }

    #[test]
    fn usage_errors_name_the_flag() {
        assert_eq!(parse(&["--bogus"]).unwrap_err(), "unknown flag \"--bogus\"");
        // Neither `--flag=value` nor a flag's prefix is a declared flag.
        assert!(parse(&["--list=1"]).is_err() && parse(&["--jso"]).is_err());
        let missing = parse(&["--list", "--jobs"]).unwrap_err();
        assert_eq!(missing, "--jobs requires a value (--jobs N)");
    }
}
