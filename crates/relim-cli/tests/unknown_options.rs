//! The `relim` binary refuses a key its command does not read, with exit
//! status 2 and before the command acts.

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
