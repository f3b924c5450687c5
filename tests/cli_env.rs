//! Environment guards of the `gnnadvisor` binary: a malformed
//! `GNNADVISOR_SIM_THREADS` must end every engine-building command with
//! a message naming the variable and exit status 1, never a panic.

use std::process::Command;

#[test]
fn malformed_sim_threads_is_a_typed_error_in_every_command() {
    let commands: [&[&str]; 5] = [
        &["run", "--dataset", "Cora", "--scale", "0.02"],
        &["compare", "--dataset", "Cora", "--scale", "0.02"],
        &["tune", "--dataset", "Cora", "--scale", "0.02"],
        &[
            "tune",
            "--dataset",
            "Cora",
            "--scale",
            "0.02",
            "--speed-check",
            "20",
        ],
        &["train-minibatch", "--scale", "0.02", "--epochs", "1"],
    ];
    for args in commands {
        let out = Command::new(env!("CARGO_BIN_EXE_gnnadvisor"))
            .args(args)
            .env("GNNADVISOR_SIM_THREADS", "abc")
            .output()
            .expect("the binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(1),
            "{args:?} must exit 1, not panic; stderr: {stderr}"
        );
        assert!(
            stderr.contains("GNNADVISOR_SIM_THREADS") && stderr.contains("\"abc\""),
            "{args:?} must name the variable and echo the value; stderr: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed a report anyway");
    }
}
