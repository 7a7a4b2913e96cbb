//! The `repro` command line rejects what it cannot run.

use std::process::Command;

#[test]
fn unknown_experiment_exits_2_before_running_anything() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--fast", "table1", "tabel5"])
        .env("BOMBDROID_OBS", "off")
        .output()
        .expect("repro starts");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown experiment: tabel5"), "{stderr}");
    assert!(stderr.contains("table5"), "valid names listed: {stderr}");
    // `table1` comes first on the command line but never runs.
    assert!(
        out.stdout.is_empty(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
}
