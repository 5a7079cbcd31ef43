//! The `relim` binary refuses a key its command does not read, with exit
//! status 2 and before the command acts, and points only argument errors
//! at `relim help`. A daemon configuration past its bounds is refused
//! before a daemon starts.

use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

/// Runs `relim` with `args`, killing it (and failing) if it is still
/// running after 10 s — a refused `serve` must never start a daemon.
fn relim(args: &[&str]) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_relim"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("relim starts");
    let started = Instant::now();
    while child.try_wait().expect("relim can be waited for").is_none() {
        if started.elapsed() > Duration::from_secs(10) {
            let _ = child.kill();
            let _ = child.wait();
            panic!("relim {args:?} still running after 10 s");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    child.wait_with_output().expect("relim output")
}

fn assert_refused(args: &[&str], message: &str) {
    let out = relim(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed {:?}", String::from_utf8_lossy(&out.stdout));
    assert!(stderr.contains(&format!("error: {message}")), "{args:?}: {stderr}");
}

#[test]
fn a_flag_the_command_does_not_read_exits_2() {
    assert_refused(
        &["bounds", "--n", "1000", "--delta", "4", "--bogus-flag"],
        "unknown option --bogus-flag for 'bounds'",
    );
    let out = relim(&["bounds", "--n", "1000", "--delta", "4"]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn serve_refuses_the_retired_trace_flag_without_starting_a_daemon() {
    assert_refused(
        &["serve", "--addr", "127.0.0.1:0", "--trace"],
        "unknown option --trace for 'serve'",
    );
}

#[test]
fn serve_refuses_executors_past_the_bound_without_starting_a_daemon() {
    let out = relim(&["serve", "--addr", "127.0.0.1:0", "--executors", "65"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(out.stdout.is_empty(), "a daemon announced itself: {:?}", out.stdout);
    assert!(stderr.contains("error: 65 executors exceed the limit of 64"), "{stderr}");
}

const USAGE_HINT: &str = "run `relim help` for usage";

#[test]
fn only_argument_errors_print_the_usage_hint() {
    // A digest miss is an answer about the store, not about the command
    // line: exit 1 and no hint.
    let store = std::env::temp_dir().join(format!("relim-empty-store-{}", std::process::id()));
    std::fs::create_dir_all(&store).expect("empty store directory");
    let digest = "0".repeat(32);
    let out = relim(&["viz", "--store", store.to_str().expect("utf-8 path"), "--digest", &digest]);
    let _ = std::fs::remove_dir_all(&store);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("error: no stored entry for digest"), "{stderr}");
    assert!(!stderr.contains(USAGE_HINT), "{stderr}");

    // An unknown option (exit 2) and a malformed value (exit 1) are
    // argument errors and keep the hint.
    for (args, code) in [
        (&["bounds", "--n", "1000", "--delta", "4", "--bogus"][..], 2),
        (&["chain", "--delta", "notanumber"][..], 1),
    ] {
        let out = relim(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(code), "{args:?}: {stderr}");
        assert!(stderr.contains(USAGE_HINT), "{args:?}: {stderr}");
    }
}
