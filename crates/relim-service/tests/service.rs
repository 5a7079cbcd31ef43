//! End-to-end daemon tests: the determinism contract (served bytes ==
//! in-process bytes at engine widths 1/2/8), cold/warm store behaviour,
//! and warm restarts from the persistent store.

use relim_core::Engine;
use relim_json::Json;
use relim_service::client::Client;
use relim_service::ops::OpRequest;
use relim_service::queue::Class;
use relim_service::server::{Server, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("relim-service-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn mis_autolb() -> OpRequest {
    OpRequest::AutoLb {
        node: "M M M\nP O O".into(),
        edge: "M [P O]\nO O".into(),
        max_steps: 3,
        labels: 6,
        criterion: relim_service::ops::Criterion::Gadget,
    }
}

/// The acceptance contract: a served result is byte-identical to the
/// same query run in-process, at engine widths 1, 2 and 8.
#[test]
fn served_bytes_equal_in_process_bytes_at_widths_1_2_8() {
    let op = mis_autolb();
    let reference = op.execute(&Engine::sequential()).unwrap();
    for threads in [1usize, 2, 8] {
        let config = ServerConfig { threads, ..ServerConfig::default() };
        let handle = Server::spawn("127.0.0.1:0", config).unwrap();
        let client = Client::new(handle.local_addr().to_string());

        let served = client.submit(&op, None).unwrap();
        let in_process = op.execute(&Engine::builder().threads(threads).build()).unwrap();
        assert_eq!(served.result, in_process, "threads = {threads}");
        assert_eq!(served.result, reference, "threads = {threads} vs sequential");
        assert!(!served.cached);

        // Warm ask: a store hit with the exact same bytes.
        let warm = client.submit(&op, None).unwrap();
        assert!(warm.cached, "threads = {threads}");
        assert_eq!(warm.result, reference, "threads = {threads} warm");

        client.shutdown().unwrap();
        handle.join();
    }
}

/// A restarted daemon over the same store directory serves the cached
/// certificate instantly — the persistence acceptance criterion.
#[test]
fn restart_serves_from_the_persistent_store() {
    let dir = scratch("restart");
    let op = mis_autolb();
    let cold = {
        let config = ServerConfig { store_dir: Some(dir.clone()), ..ServerConfig::default() };
        let handle = Server::spawn("127.0.0.1:0", config).unwrap();
        let client = Client::new(handle.local_addr().to_string());
        let cold = client.submit(&op, None).unwrap();
        assert!(!cold.cached);
        client.shutdown().unwrap();
        handle.join();
        cold
    };

    let config = ServerConfig { store_dir: Some(dir.clone()), ..ServerConfig::default() };
    let handle = Server::spawn("127.0.0.1:0", config).unwrap();
    let client = Client::new(handle.local_addr().to_string());
    let warm = client.submit(&op, None).unwrap();
    assert!(warm.cached, "the restarted daemon must hit its persistent store");
    assert_eq!(warm.result, cold.result, "restart must not change a byte");
    assert_eq!(warm.digest, cold.digest);
    client.shutdown().unwrap();
    handle.join();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Bulk sweeps flow through the same store and serve byte-identically;
/// the class override is accepted on the wire.
#[test]
fn sweep_jobs_cache_and_respect_class_override() {
    let handle = Server::spawn("127.0.0.1:0", ServerConfig::default()).unwrap();
    let client = Client::new(handle.local_addr().to_string());
    let op = OpRequest::sweep(3, 8).unwrap();
    let first = client.submit(&op, None).unwrap();
    assert!(first.result.contains("VERIFIED"), "{}", first.result);
    assert!(!first.result.contains("threads"), "served sweep bytes are width-free");
    let second = client.submit(&op, Some(Class::Interactive)).unwrap();
    assert!(second.cached, "class override must not split the cache");
    assert_eq!(first.result, second.result);

    let counters = client.status().unwrap();
    let ops = counters.get("ops").expect("ops counters");
    assert_eq!(ops.get("sweep").and_then(Json::as_i64), Some(2));
    let queue = counters.get("queue").expect("queue counters");
    assert!(queue.get("max_depth").and_then(Json::as_i64).unwrap() >= 1);
    client.shutdown().unwrap();
    handle.join();
}

/// Distinct queries address distinct content; a parameter change is a
/// different certificate, never a stale hit.
#[test]
fn parameter_changes_never_serve_stale_results() {
    let handle = Server::spawn("127.0.0.1:0", ServerConfig::default()).unwrap();
    let client = Client::new(handle.local_addr().to_string());
    let shallow = OpRequest::Iterate {
        node: "M M M\nP O O".into(),
        edge: "M [P O]\nO O".into(),
        max_steps: 1,
        label_limit: 20,
    };
    let deeper = OpRequest::Iterate {
        node: "M M M\nP O O".into(),
        edge: "M [P O]\nO O".into(),
        max_steps: 2,
        label_limit: 20,
    };
    let a = client.submit(&shallow, None).unwrap();
    let b = client.submit(&deeper, None).unwrap();
    assert!(!b.cached, "different max_steps is different content");
    assert_ne!(a.digest, b.digest);
    assert_ne!(a.result, b.result);
    client.shutdown().unwrap();
    handle.join();
}

/// An `iterate` whose alphabet is past the engine's enumeration limit
/// (23 labels) but inside the request's `label_limit` answers with a
/// label-limit stop, not a failed job.
#[test]
fn iterate_past_the_enumeration_limit_returns_a_result() {
    let text: Vec<String> = (0..23).map(|i| format!("L{i} L{i}")).collect();
    let op = OpRequest::Iterate {
        node: text.join("\n"),
        edge: text.join("\n"),
        max_steps: 3,
        label_limit: 64,
    };
    let handle = Server::spawn("127.0.0.1:0", ServerConfig::default()).unwrap();
    let client = Client::new(handle.local_addr().to_string());
    let served = client.submit(&op, None).unwrap();
    assert!(served.result.ends_with("stopped: LabelLimit { labels: 23 }"), "{}", served.result);
    assert_eq!(served.result, op.execute(&Engine::sequential()).unwrap());
    client.shutdown().unwrap();
    handle.join();
}

/// Requests on one kept-alive connection answer without a per-request
/// stall. A response frame written as two small writes (`line`, then
/// `\n`) would let Nagle's algorithm hold the terminator until the
/// client's delayed ACK fires, about 40 ms later on Linux: ten pings
/// would take ~9 × 44 ms. With one write per frame each ping takes well
/// under a millisecond.
#[test]
fn kept_alive_requests_do_not_stall_on_split_frames() {
    let handle = Server::spawn("127.0.0.1:0", ServerConfig::default()).unwrap();
    let stream = TcpStream::connect(handle.local_addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let started = Instant::now();
    for _ in 0..10 {
        writer.write_all(b"{\"op\":\"ping\"}\n").unwrap();
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        let doc = Json::parse(response.trim_end()).unwrap();
        assert_eq!(doc.get("pong").and_then(Json::as_bool), Some(true), "{response}");
    }
    let elapsed = started.elapsed();
    assert!(elapsed < Duration::from_millis(150), "10 kept-alive pings took {elapsed:?}");
    drop((writer, reader));
    handle.shutdown();
    handle.join();
}

/// The exact response lines of malformed job requests. Preparing a
/// request (one parse, key and digest at the wire boundary) must not
/// move a byte: parse failures still answer without the `id`, exactly
/// as before.
#[test]
fn malformed_job_requests_get_pinned_error_bytes() {
    let handle = Server::spawn("127.0.0.1:0", ServerConfig::default()).unwrap();
    let stream = TcpStream::connect(handle.local_addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    for (request, expected) in [
        (
            r#"{"id":1,"op":"zero-round","node":"M ((","edge":"M M"}"#,
            r#"{"ok": false, "error": "parse error: unexpected character `(` in `M ((`"}"#,
        ),
        (
            r#"{"id":2,"op":"zero-round","node":"M M M","edge":"M M M"}"#,
            r#"{"ok": false, "error": "configuration of degree 3 where 2 was expected"}"#,
        ),
        (
            r#"{"id":3,"op":"iterate","node":"M M M","edge":"M M","label_limit":65}"#,
            r#"{"ok": false, "error": "label bound 65 exceeds 64"}"#,
        ),
        (r#"{"id":4,"op":"frobnicate"}"#, r#"{"ok": false, "error": "unknown op `frobnicate`"}"#),
        (
            r#"{"id":5,"op":"autolb","node":"M M;M M M","edge":"M M"}"#,
            r#"{"ok": false, "error": "configuration of degree 3 where 2 was expected"}"#,
        ),
        (
            r#"{"id":6,"op":"autoub","node":"M M M;P O O","edge":"M [P O];O O","coloring":1}"#,
            r#"{"ok": false, "error": "coloring 1 is below 2 (a proper coloring needs at least 2 colors)"}"#,
        ),
    ] {
        writer.write_all(format!("{request}\n").as_bytes()).unwrap();
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        assert_eq!(response, format!("{expected}\n"), "request {request}");
    }
    drop((writer, reader));
    handle.shutdown();
    handle.join();
}

/// Constraint text is bounded before it is expanded. `[A … P]^12` is a
/// 40-byte line that would enumerate 17.4M configurations, and a
/// `u32::MAX` exponent a 4 GiB configuration; both are refused from the
/// condensed line, in milliseconds, and the daemon keeps serving.
#[test]
fn oversized_constraint_text_is_refused_before_expansion() {
    use relim_service::ops::OpError;

    let wide = "[A B C D E F G H I J K L M N O P]^12";
    let err = OpRequest::zero_round(wide, "A B").unwrap_err();
    assert_eq!(err, OpError::ExpansionTooLarge { configs: 17_383_860 + 1 });
    let err = OpRequest::zero_round("A^4294967295", "A A").unwrap_err();
    assert_eq!(err, OpError::DegreeTooLarge { degree: u32::MAX });
    // Within the bounds, text still parses.
    assert!(OpRequest::zero_round("[A B C D E F G H]^4", "A B").is_ok());

    let handle = Server::spawn("127.0.0.1:0", ServerConfig::default()).unwrap();
    let client = Client::new(handle.local_addr().to_string());
    for (node, edge, error) in [
        (wide, "A B", OpError::ExpansionTooLarge { configs: 17_383_861 }.to_string()),
        ("A^4294967295", "A A", OpError::DegreeTooLarge { degree: u32::MAX }.to_string()),
        (
            "A^4294967295 A^4294967295",
            "A A",
            "parse error: line degree 8589934590 overflows in `A^4294967295 A^4294967295`"
                .to_owned(),
        ),
    ] {
        let line = format!(r#"{{"op":"zero-round","node":"{node}","edge":"{edge}"}}"#);
        let started = Instant::now();
        let reply = client.raw_roundtrip(&line).unwrap();
        let elapsed = started.elapsed();
        assert!(elapsed < Duration::from_millis(250), "{node}: refused after {elapsed:?}");
        assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false), "{node}");
        assert_eq!(reply.get("error").and_then(Json::as_str), Some(error.as_str()), "{node}");
    }
    let ok = client.submit(&OpRequest::zero_round("M M M;P O O", "M [P O];O O").unwrap(), None);
    assert!(ok.unwrap().result.contains("0-round solvable"));
    client.shutdown().unwrap();
    handle.join();
}
