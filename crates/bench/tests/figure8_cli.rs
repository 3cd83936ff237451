//! The `figure8` binary refuses counts it cannot run instead of printing
//! NaN or infinite rows.

use std::process::Command;

#[test]
fn zero_and_non_numeric_counts_exit_with_code_2() {
    for args in [
        ["--calls", "0"],
        ["--trials", "0"],
        ["--calls", "abc"],
        ["--trials", "-3"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_figure8"))
            .args(args)
            .output()
            .expect("run figure8");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("{} takes a positive whole number", args[0])),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} printed a table");
    }
}

#[test]
fn a_flag_without_its_count_exits_with_code_2() {
    let out = Command::new(env!("CARGO_BIN_EXE_figure8"))
        .arg("--calls")
        .output()
        .expect("run figure8");
    assert_eq!(out.status.code(), Some(2));
}
