//! The `bench` command-line contract: every usage error exits 2, and the
//! first line of stderr names what was wrong.

#[test]
fn usage_errors_exit_2_and_name_the_flag() {
    for (args, named) in [
        // `--factor` is gone: the bound is `report::REGRESSION_FACTOR`.
        (&["--factor", "2.5"][..], "\"--factor\""),
        (&["--smoke", "--out"], "--out requires a value"),
        (&["--seed", "five"], "--seed"),
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_bench"))
            .args(args)
            .output()
            .expect("spawn bench");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        let first = stderr.lines().next().unwrap_or_default();
        assert!(first.contains(named), "{args:?}: {stderr}");
    }
}
