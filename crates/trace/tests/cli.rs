//! The `trace` command-line contract: every usage error exits 2, and the
//! first line of stderr names what was wrong.

#[test]
fn usage_errors_exit_2_and_name_the_flag() {
    for (args, named) in [
        (&["summary", "t.json", "--bogus"][..], "\"--bogus\""),
        (
            &["canon", "r.json", "--drop-output"],
            "--drop-output requires a value",
        ),
        (
            &["summary", "t.json", "--drop-output", "tab6_1"],
            "--drop-output",
        ),
        (&["view", "t.json"], "\"view\""),
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_trace"))
            .args(args)
            .output()
            .expect("spawn trace");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        let first = stderr.lines().next().unwrap_or_default();
        assert!(first.contains(named), "{args:?}: {stderr}");
    }
}
