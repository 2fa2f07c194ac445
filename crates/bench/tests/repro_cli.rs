//! The `repro` bin's command line: unknown sub-commands are an error, not
//! a silent no-op.

use std::process::Command;

#[test]
fn unknown_sub_command_prints_usage_and_exits_2() {
    // A known name ahead of the typo must not run either.
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["fig3", "fig33"])
        .output()
        .expect("spawn repro");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing runs before the check");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown sub-command \"fig33\""), "{err}");
    assert!(
        err.contains("usage: repro") && err.contains("table1"),
        "{err}"
    );
}
