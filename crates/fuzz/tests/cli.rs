//! The `fuzz` command-line contract: every usage error exits 2, and the
//! first line of stderr names what was wrong.

#[test]
fn usage_errors_exit_2_and_name_the_flag() {
    for (args, named) in [
        (&["--bogus"][..], "\"--bogus\""),
        (&["--iters", "1", "--seed"], "--seed requires a value"),
        (&["--jobs", "0"], "--jobs 0"),
        (&["--family", "nope"], "--family"),
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_fuzz"))
            .args(args)
            .output()
            .expect("spawn fuzz");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        let first = stderr.lines().next().unwrap_or_default();
        assert!(first.contains(named), "{args:?}: {stderr}");
    }
}
