//! Distributed-tracing integration: three default daemons wired as a
//! fleet, one trace id following a request across two of them.
//!
//! The scenario is the fleet's read-through path: a non-owner receives
//! a traced submit, fetches the bytes from the owner, and the owner
//! serves the fetch — so the requester records the `peer-fetch` attempt
//! span and the owner records the `fetch-serve` span, both under the
//! same propagated trace id. Merging the two per-daemon dumps yields
//! one cross-daemon tree; the Chrome export of the same merge is
//! Perfetto-loadable. And the determinism contract holds throughout:
//! tracing never changes a served byte.

use relim_core::Engine;
use relim_service::client::Client;
use relim_service::ops::OpRequest;
use relim_service::ring::Ring;
use relim_service::server::{Server, ServerConfig, ServerHandle};
use relim_service::trace::{self, TraceContext, TraceDump};
use std::net::TcpListener;

/// Reserves `n` distinct loopback addresses by binding them all at
/// once, then releasing them (fleet members must know each other's
/// addresses before binding).
fn reserve_addrs(n: usize) -> Vec<String> {
    let listeners: Vec<TcpListener> =
        (0..n).map(|_| TcpListener::bind("127.0.0.1:0").expect("bind loopback")).collect();
    listeners.iter().map(|l| l.local_addr().expect("bound").to_string()).collect()
}

fn spawn_tracing_member(addr: &str, peers: Vec<String>) -> ServerHandle {
    let config = ServerConfig {
        threads: 1,
        executors: 1,
        peers,
        peer_timeout_ms: 500,
        ..ServerConfig::default()
    };
    Server::spawn(addr, config).expect("spawn fleet member")
}

#[test]
fn one_trace_id_spans_two_daemons_and_merges_into_one_tree() {
    let addrs = reserve_addrs(3);
    let peers_of =
        |me: &str| -> Vec<String> { addrs.iter().filter(|a| *a != me).cloned().collect() };
    let handles: Vec<ServerHandle> =
        addrs.iter().map(|addr| spawn_tracing_member(addr, peers_of(addr))).collect();
    let clients: Vec<Client> = addrs.iter().map(Client::new).collect();

    let op = OpRequest::zero_round("M M M;P O O", "M [P O];O O").unwrap();
    let digest = op.digest().unwrap();
    let expected = op.execute(&Engine::builder().threads(1).build()).unwrap();

    let ring = Ring::new(addrs.clone());
    let owner = ring.owner_of(&digest).unwrap().to_owned();
    let owner_at = addrs.iter().position(|a| *a == owner).unwrap();
    let requester_at = (0..3).find(|i| *i != owner_at).unwrap();

    // Warm the owner (its own trace), then send the traced request to a
    // non-owner: its cold claim reads through the owner.
    let warm_id = trace::mint_trace_id();
    let warm = clients[owner_at]
        .submit_traced(&op, None, Some(&TraceContext { trace_id: warm_id, parent: None }))
        .unwrap();
    assert!(!warm.cached);
    assert_eq!(warm.result, expected);

    let trace_id = trace::mint_trace_id();
    assert_ne!(trace_id, warm_id, "minted ids are distinct");
    let relayed = clients[requester_at]
        .submit_traced(&op, None, Some(&TraceContext { trace_id, parent: None }))
        .unwrap();
    assert!(relayed.cached, "a verified remote fetch is served as a cache hit");
    assert_eq!(relayed.result, expected, "tracing never changes served bytes");

    // Each involved daemon holds its half of the trace.
    let requester_dump = clients[requester_at].trace_dump(Some(trace_id)).unwrap();
    let owner_dump = clients[owner_at].trace_dump(Some(trace_id)).unwrap();
    let bystander_at = (0..3).find(|i| *i != owner_at && *i != requester_at).unwrap();
    let bystander_dump = clients[bystander_at].trace_dump(Some(trace_id)).unwrap();
    assert!(bystander_dump.spans.is_empty(), "the third daemon never saw this trace");

    let fetch_attempt = requester_dump
        .spans
        .iter()
        .find(|s| s.name == "peer-fetch")
        .expect("requester records the peer-fetch attempt");
    assert!(
        fetch_attempt.attrs.contains(&("result".to_owned(), "ok".to_owned())),
        "{fetch_attempt:?}"
    );
    let serve = owner_dump
        .spans
        .iter()
        .find(|s| s.name == "fetch-serve")
        .expect("owner records the serving half");
    assert_eq!(serve.trace_id, trace_id, "the trace id crossed the wire");
    assert_eq!(
        serve.parent,
        Some(fetch_attempt.span_id),
        "the owner's span hangs under the requester's attempt"
    );
    assert!(serve.attrs.contains(&("found".to_owned(), "true".to_owned())), "{serve:?}");

    // The merged tree covers both daemons under one trace header.
    let dumps: Vec<TraceDump> = vec![requester_dump, owner_dump];
    let tree = trace::render_tree(&dumps);
    assert!(tree.contains(&trace::render_id(trace_id)), "{tree}");
    assert!(tree.contains("across 2 daemon(s)"), "{tree}");
    assert!(tree.contains(&addrs[requester_at]), "{tree}");
    assert!(tree.contains(&addrs[owner_at]), "{tree}");
    for name in ["request", "peer-fetch", "fetch-serve", "store-read"] {
        assert!(tree.contains(name), "missing {name} in:\n{tree}");
    }

    // The Chrome export of the same merge carries complete events and
    // a process per daemon.
    let chrome = trace::render_chrome(&dumps);
    assert!(chrome.contains("\"ph\":\"X\""), "{chrome}");
    assert!(chrome.contains("\"ph\":\"M\""), "{chrome}");
    assert!(chrome.contains(&addrs[owner_at]), "{chrome}");
    let parsed = relim_json::Json::parse(&chrome).expect("chrome export parses as JSON");
    assert!(parsed.get("traceEvents").is_some(), "{chrome}");

    // The owner's warm-up trace stayed separate: filtering by its id
    // yields compute-side spans only, none from the relay.
    let warm_dump = clients[owner_at].trace_dump(Some(warm_id)).unwrap();
    assert!(warm_dump.spans.iter().any(|s| s.name == "compute"), "{warm_dump:?}");
    assert!(warm_dump.spans.iter().all(|s| s.trace_id == warm_id));

    for client in &clients {
        client.shutdown().unwrap();
    }
    for handle in handles {
        handle.join();
    }
}
