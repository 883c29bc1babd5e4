//! The `serve` command-line contract: every usage error exits 2, and the
//! first line of stderr names what was wrong.

#[test]
fn usage_errors_exit_2_and_name_the_flag() {
    for (args, named) in [
        (&["--stdin", "--bogus"][..], "\"--bogus\""),
        (&["--stdin", "--listen"], "--listen requires a value"),
        (&["--stdin", "--jobs", "0"], "--jobs 0"),
        (&["loadtest", "--clock", "wall"], "--clock"),
        (&["--jobs", "2"], "pick one mode"),
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_serve"))
            .args(args)
            .output()
            .expect("spawn serve");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        let first = stderr.lines().next().unwrap_or_default();
        assert!(first.contains(named), "{args:?}: {stderr}");
    }
}
