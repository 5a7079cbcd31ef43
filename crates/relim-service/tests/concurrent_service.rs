//! The daemon under concurrent load: 8 client threads against a
//! 4-executor pool must serve bytes identical to local in-process runs,
//! a burst of identical cold queries must coalesce onto one
//! computation, graceful shutdown must drain every accepted job, an
//! adversarial interactive-vs-bulk mix must starve nothing, reused
//! connection threads must answer every connection, and a shutdown
//! racing a burst of connections must still join promptly.

use relim_core::Engine;
use relim_json::Json;
use relim_service::client::Client;
use relim_service::ops::OpRequest;
use relim_service::queue::Class;
use relim_service::server::{Server, ServerConfig};
use relim_service::trace::{render_gantt, TraceContext};
use std::sync::{Arc, Barrier};

const NODE: &str = "M M M\nP O O";
const EDGE: &str = "M [P O]\nO O";

fn mis_iterate(max_steps: usize) -> OpRequest {
    OpRequest::Iterate { node: NODE.into(), edge: EDGE.into(), max_steps, label_limit: 20 }
}

fn mis_autolb() -> OpRequest {
    OpRequest::AutoLb {
        node: NODE.into(),
        edge: EDGE.into(),
        max_steps: 3,
        labels: 6,
        criterion: relim_service::ops::Criterion::Gadget,
    }
}

/// The in-process reference bytes for `op` — what the daemon must serve
/// identically at any executor count.
fn local(op: &OpRequest) -> String {
    op.execute(&Engine::sequential()).expect("reference op executes")
}

fn int_at(counters: &Json, obj: &str, key: &str) -> i64 {
    counters
        .get(obj)
        .and_then(|o| o.get(key))
        .and_then(Json::as_i64)
        .unwrap_or_else(|| panic!("counters missing {obj}.{key}: {counters:?}"))
}

/// Eight clients fire the *same* cold query simultaneously, then walk a
/// rotated list of distinct queries. Every response must be
/// byte-identical to a local sequential run, the duplicate burst must
/// coalesce (waiters ≥ 1 instead of eight computations), and the final
/// report must account for every submitted job.
#[test]
fn eight_clients_against_four_executors_coalesce_and_match_local_bytes() {
    let threads = 8usize;
    let hammer = mis_autolb();
    let hammer_reference = local(&hammer);
    let distinct: Vec<OpRequest> = vec![
        mis_iterate(1),
        mis_iterate(2),
        OpRequest::zero_round(NODE, EDGE).unwrap(),
        OpRequest::zero_round("A A", "A A").unwrap(),
    ];
    let references: Vec<String> = distinct.iter().map(local).collect();

    let config = ServerConfig { executors: 4, ..ServerConfig::default() };
    let handle = Server::spawn("127.0.0.1:0", config).unwrap();
    let addr = handle.local_addr().to_string();

    // Phase 1 — the duplicate burst: everyone asks for the same cold
    // certificate at once. The first request owns the computation; the
    // rest must attach as coalesced waiters (the compute window of an
    // autolb search is far wider than the claim race).
    let barrier = Arc::new(Barrier::new(threads));
    let burst: Vec<_> = (0..threads)
        .map(|_| {
            let addr = addr.clone();
            let op = hammer.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                Client::new(addr).submit(&op, None).expect("burst submit").result
            })
        })
        .collect();
    for handle in burst {
        assert_eq!(handle.join().expect("burst client panicked"), hammer_reference);
    }
    let status = Client::new(addr.clone()).status().unwrap();
    assert!(
        int_at(&status, "store", "coalesced") >= 1,
        "an 8-way identical cold burst must coalesce: {status:?}"
    );

    // Phase 2 — the interleaved mix: each thread walks the distinct
    // queries from its own offset, so first-asks, store hits and
    // coalesced waiters all occur across threads.
    let barrier = Arc::new(Barrier::new(threads));
    let mixed: Vec<_> = (0..threads)
        .map(|t| {
            let addr = addr.clone();
            let ops = distinct.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                (0..ops.len())
                    .map(|i| {
                        let idx = (i + t) % ops.len();
                        (idx, Client::new(addr.clone()).submit(&ops[idx], None).unwrap().result)
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    for handle in mixed {
        for (idx, got) in handle.join().expect("mixed client panicked") {
            assert_eq!(got, references[idx], "distinct op #{idx} drifted under concurrency");
        }
    }

    Client::new(addr).shutdown().unwrap();
    let report = handle.join_and_report();
    assert_eq!(int_at(&report, "ops", "autolb"), threads as i64);
    assert_eq!(int_at(&report, "ops", "iterate"), 2 * threads as i64);
    assert_eq!(int_at(&report, "ops", "zero_round"), 2 * threads as i64);
    assert_eq!(report.get("errors").and_then(Json::as_i64), Some(0), "{report:?}");
    assert_eq!(report.get("executors").and_then(Json::as_i64), Some(4), "{report:?}");
    // Every job did exactly one store lookup — a hit or a miss — so the
    // counters must account for all 5·threads submits; the coalesced
    // waiters (a subset of the misses) avoided recomputation.
    let looked_up = int_at(&report, "store", "misses")
        + int_at(&report, "store", "mem_hits")
        + int_at(&report, "store", "disk_hits");
    assert_eq!(looked_up, 5 * threads as i64, "{report:?}");
    assert!(int_at(&report, "store", "coalesced") >= 1, "{report:?}");
}

/// Jobs accepted before a shutdown request must all be served — the
/// pool drains the queue, and no accepted job is refused or dropped.
#[test]
fn graceful_shutdown_drains_every_accepted_job() {
    let jobs: Vec<OpRequest> = vec![
        OpRequest::sweep(3, 8).unwrap(),
        mis_iterate(3),
        mis_iterate(4),
        OpRequest::auto_ub("M M M;P O O", "M [P O];O O").unwrap(),
        OpRequest::zero_round("O I I", "[O I] I").unwrap(),
        OpRequest::iterate("O I I", "[O I] I").unwrap(),
    ];
    let references: Vec<String> = jobs.iter().map(local).collect();

    let config = ServerConfig { executors: 4, ..ServerConfig::default() };
    let handle = Server::spawn("127.0.0.1:0", config).unwrap();
    let addr = handle.local_addr().to_string();

    let barrier = Arc::new(Barrier::new(jobs.len() + 1));
    let clients: Vec<_> = jobs
        .iter()
        .cloned()
        .map(|op| {
            let addr = addr.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                Client::new(addr).submit(&op, None).expect("accepted job lost").result
            })
        })
        .collect();

    // Release the clients, give their submits a moment to land in the
    // queue (more jobs than executors, so a backlog exists), then pull
    // the plug mid-flight.
    barrier.wait();
    std::thread::sleep(std::time::Duration::from_millis(200));
    Client::new(addr).shutdown().unwrap();

    for (client, reference) in clients.into_iter().zip(&references) {
        let got = client.join().expect("client thread panicked");
        assert_eq!(&got, reference, "a drained job must still serve local bytes");
    }
    let report = handle.join_and_report();
    assert_eq!(report.get("errors").and_then(Json::as_i64), Some(0), "{report:?}");
    assert_eq!(int_at(&report, "store", "stores"), jobs.len() as i64, "{report:?}");
}

/// A `/metrics` scraper racing live traffic: every scrape must be
/// well-formed Prometheus text exposition (no torn lines, no duplicate
/// series, TYPE before sample), and `relim_requests_total` must be
/// monotone across scrapes — the exposition is a consistent read of
/// live counters, not a locked snapshot, but counters only go up.
#[test]
fn metrics_scrapes_stay_valid_and_monotone_under_live_traffic() {
    use std::sync::atomic::{AtomicUsize, Ordering};

    let config = ServerConfig { executors: 4, ..ServerConfig::default() };
    let handle = Server::spawn("127.0.0.1:0", config).unwrap();
    let addr = handle.local_addr().to_string();

    let done = Arc::new(AtomicUsize::new(0));
    let traffic: Vec<_> = (0..4usize)
        .map(|t| {
            let addr = addr.clone();
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                for i in 0..6 {
                    let op = mis_iterate((i + t) % 3 + 1);
                    Client::new(addr.clone()).submit(&op, None).expect("traffic submit");
                }
                done.fetch_add(1, Ordering::SeqCst);
            })
        })
        .collect();

    let requests_total = |text: &str| -> i64 {
        text.lines()
            .find_map(|l| l.strip_prefix("relim_requests_total "))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or_else(|| panic!("scrape missing relim_requests_total:\n{text}"))
    };
    let scraper = Client::new(addr.clone());
    let mut last = -1i64;
    let mut scrapes = 0usize;
    while done.load(Ordering::SeqCst) < 4 || scrapes == 0 {
        let text = scraper.metrics().expect("scrape during traffic");
        let problems = relim_service::metrics::exposition_problems(&text);
        assert!(problems.is_empty(), "mid-traffic scrape is malformed: {problems:?}\n{text}");
        let now = requests_total(&text);
        assert!(now >= last, "relim_requests_total went backwards: {last} -> {now}");
        last = now;
        scrapes += 1;
    }
    for t in traffic {
        t.join().expect("traffic thread panicked");
    }
    // The settled scrape accounts for all 24 submits (plus the scrapes
    // themselves, which are requests too).
    let text = scraper.metrics().unwrap();
    assert!(relim_service::metrics::exposition_problems(&text).is_empty(), "{text}");
    assert!(requests_total(&text) >= 24 + scrapes as i64, "{text}");
    // The latency histograms the traffic filled derive a well-formed
    // Prometheus family (the validator above already checked cumulative
    // `le` order, `+Inf` and `_count` agreement on every live scrape).
    assert!(text.contains("# TYPE relim_request_latency_ns histogram"), "{text}");
    assert!(text.contains("relim_request_latency_ns_bucket{op=\"iterate\","), "{text}");
    assert!(
        text.contains("relim_request_latency_ns_count{op=\"iterate\",outcome=\"computed\"}"),
        "{text}"
    );
    // The span log's window accounting is scrapeable alongside it.
    assert!(text.contains("relim_trace_dropped "), "{text}");
    assert!(text.contains("relim_trace_window "), "{text}");

    Client::new(addr).shutdown().unwrap();
    handle.join();
}

/// An aged-promoted traced bulk job must show its full lifecycle on its
/// gantt lane in order: enqueue, promote, start, finish. The promotion
/// window is made by parking a slow job on a width-1 pool and stacking
/// the queue behind it; scheduling noise can close that window, so the
/// scenario retries on a fresh daemon until a promotion is observed.
#[test]
fn a_promoted_bulk_job_logs_ordered_timeline_events() {
    let bulk_op = OpRequest::zero_round(NODE, EDGE).unwrap();
    let bulk_digest = bulk_op.digest().unwrap();
    let deadline = std::time::Duration::from_secs(30);

    for _attempt in 0..5 {
        let config = ServerConfig { executors: 1, aging_limit: 1, ..ServerConfig::default() };
        let handle = Server::spawn("127.0.0.1:0", config).unwrap();
        let addr = handle.local_addr().to_string();
        let client = Client::new(addr.clone());

        // Every job is traced, each under a trace id of its own: its
        // spans are its gantt lane.
        let submit_thread = |op: OpRequest, class: Class, trace_id: u64| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let ctx = TraceContext { trace_id, parent: None };
                Client::new(addr).submit_traced(&op, Some(class), Some(&ctx)).expect("submit");
            })
        };
        let wait_until = |cond: &dyn Fn() -> bool| {
            let start = std::time::Instant::now();
            while !cond() && start.elapsed() < deadline {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        };

        // Park a sweep on the only executor, and wait until it has
        // actually been popped (its `queue-wait` span is recorded).
        let holder = submit_thread(OpRequest::sweep(4, 8).unwrap(), Class::Interactive, 1);
        wait_until(&|| {
            let dump = client.trace_dump(Some(1)).expect("trace poll");
            dump.spans.iter().any(|s| s.name == "queue-wait")
        });

        // Stack the queue behind it: the bulk job first, then two
        // interactives that would each bypass it. With aging_limit 1
        // the first bypass promotes the bulk job past the second.
        let pending = |n: i64| {
            let client = client.clone();
            move || {
                let status = client.status().expect("status poll");
                int_at(&status, "queue", "pending") >= n
            }
        };
        let bulk = submit_thread(bulk_op.clone(), Class::Bulk, 2);
        wait_until(&pending(1));
        let i1 = submit_thread(mis_iterate(1), Class::Interactive, 3);
        wait_until(&pending(2));
        let i2 = submit_thread(mis_iterate(2), Class::Interactive, 4);

        for t in [holder, bulk, i1, i2] {
            t.join().expect("scenario thread panicked");
        }
        let status = client.status().unwrap();
        let promoted = int_at(&status, "queue", "aged_promotions") > 0;
        let gantt = render_gantt(&[client.trace_dump(None).unwrap()]);
        client.shutdown().unwrap();
        handle.join();
        if !promoted {
            continue; // the sweep finished before the stack built up
        }

        let lane = gantt.lines().find(|l| l.starts_with(&bulk_digest[..12])).expect("bulk lane");
        let (_, phases) = lane.split_once('|').expect("lane label");
        let markers: String = phases.chars().filter(char::is_ascii_uppercase).collect();
        assert_eq!(markers, "EPSF", "bulk lifecycle out of order; gantt:\n{gantt}");
        return;
    }
    panic!("no promotion observed in 5 attempts — the promotion window never opened");
}

/// The queue-aging adversary at pool width 4: bulk sweeps submitted
/// under interactive flood pressure (the wire analogue of the
/// `starvation_freedom_under_adversarial_interactive_pressure` property
/// on `JobQueue`). Everything completes with local bytes — the policy
/// plus the pool starve neither class.
#[test]
fn bulk_jobs_survive_adversarial_interactive_pressure() {
    let bulk_ops: Vec<OpRequest> =
        vec![OpRequest::sweep(3, 8).unwrap(), OpRequest::sweep(3, 6).unwrap()];
    let interactive_ops: Vec<OpRequest> = (1..=6)
        .map(|steps| OpRequest::Iterate {
            node: "O I I".into(),
            edge: "[O I] I".into(),
            max_steps: steps,
            label_limit: 20,
        })
        .collect();
    let bulk_refs: Vec<String> = bulk_ops.iter().map(local).collect();
    let interactive_refs: Vec<String> = interactive_ops.iter().map(local).collect();

    let config = ServerConfig { executors: 4, aging_limit: 2, ..ServerConfig::default() };
    let handle = Server::spawn("127.0.0.1:0", config).unwrap();
    let addr = handle.local_addr().to_string();

    let barrier = Arc::new(Barrier::new(8));
    let bulk_clients: Vec<_> = bulk_ops
        .iter()
        .cloned()
        .map(|op| {
            let addr = addr.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                Client::new(addr).submit(&op, Some(Class::Bulk)).expect("bulk starved").result
            })
        })
        .collect();
    // Six interactive adversaries, each hammering the full distinct
    // list twice — a steady stream of higher-priority arrivals while
    // the bulk jobs wait.
    let interactive_clients: Vec<_> = (0..6usize)
        .map(|t| {
            let addr = addr.clone();
            let ops = interactive_ops.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                (0..2 * ops.len())
                    .map(|i| {
                        let idx = (i + t) % ops.len();
                        let got = Client::new(addr.clone())
                            .submit(&ops[idx], Some(Class::Interactive))
                            .expect("interactive submit")
                            .result;
                        (idx, got)
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();

    for (client, reference) in bulk_clients.into_iter().zip(&bulk_refs) {
        assert_eq!(&client.join().expect("bulk client panicked"), reference);
    }
    for client in interactive_clients {
        for (idx, got) in client.join().expect("interactive client panicked") {
            assert_eq!(got, interactive_refs[idx], "interactive op #{idx} drifted");
        }
    }

    Client::new(addr).shutdown().unwrap();
    let report = handle.join_and_report();
    assert_eq!(report.get("errors").and_then(Json::as_i64), Some(0), "{report:?}");
    assert_eq!(int_at(&report, "ops", "sweep"), 2);
    assert_eq!(int_at(&report, "ops", "iterate"), 6 * 12);
}

/// Connection threads are reused: a finished one goes back to `accept`
/// for the next connection (up to a small cap) instead of exiting.
/// Hundreds of one-request connections, sequential and in bursts wider
/// than the cap, must all be answered with the in-process bytes: a
/// connection that arrives while every thread is busy (it waits for the
/// successor the last accept spawned) or just as a thread returns to
/// `accept` is never lost. With threads waiting in `accept`, shutdown
/// and `join_and_report` must still return promptly, and the final
/// report must count every request.
#[test]
fn reused_connection_threads_answer_every_connection_and_shut_down_promptly() {
    let ops = [
        OpRequest::zero_round("O I I", "[O I] I").unwrap(),
        OpRequest::zero_round("A A", "A A").unwrap(),
        mis_iterate(1),
    ];
    let references: Vec<String> = ops.iter().map(local).collect();
    let handle = Server::spawn("127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = handle.local_addr().to_string();
    // Each `Client` call is one connection carrying one request.
    let mut requests = 0i64;

    // Sequential: every connection after the first finds a waiting thread.
    let client = Client::new(addr.clone());
    for i in 0..300 {
        if i % 5 == 4 {
            client.status().expect("sequential status");
        } else {
            let got = client.submit(&ops[i % ops.len()], None).expect("sequential submit");
            assert_eq!(got.result, references[i % ops.len()], "sequential submit #{i}");
        }
        requests += 1;
    }

    // Bursts of 16 simultaneous connections: a few are accepted by
    // waiting threads, the rest by successors spawned as each accept
    // leaves nobody accepting, which exit afterwards because the cap is
    // full. Repeated rounds race accepts against threads returning.
    let threads = 16usize;
    let rounds = 20usize;
    let barrier = Arc::new(Barrier::new(threads));
    let bursts: Vec<_> = (0..threads)
        .map(|t| {
            let (addr, ops, barrier) = (addr.clone(), ops.clone(), Arc::clone(&barrier));
            std::thread::spawn(move || {
                let client = Client::new(addr);
                (0..rounds)
                    .map(|r| {
                        barrier.wait();
                        let idx = (r + t) % ops.len();
                        (idx, client.submit(&ops[idx], None).expect("burst submit").result)
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    for burst in bursts {
        for (idx, got) in burst.join().expect("burst client panicked") {
            assert_eq!(got, references[idx], "burst submit of op #{idx}");
        }
    }
    requests += (threads * rounds) as i64;

    // The burst's threads wait in `accept` (or exit) as their
    // connections close.
    // Compare a live status with the report taken after shutdown.
    let before = client.status().unwrap();
    requests += 1;
    assert_eq!(before.get("requests_total").and_then(Json::as_i64), Some(requests));
    let started = std::time::Instant::now();
    client.shutdown().unwrap();
    let report = handle.join_and_report();
    let took = started.elapsed();
    assert!(
        took < std::time::Duration::from_secs(2),
        "shutdown with waiting threads took {took:?}"
    );
    // The shutdown request is the one request the report adds.
    assert_eq!(report.get("requests_total").and_then(Json::as_i64), Some(requests + 1));
    assert_eq!(report.get("errors").and_then(Json::as_i64), Some(0), "{report:?}");
    for key in ["ops", "store_hits", "store"] {
        assert_eq!(report.get(key), before.get(key), "{key} moved across shutdown");
    }
}

/// Shutdown racing a burst: each of 50 cycles spawns a daemon, fires 8
/// simultaneous pings and shuts it down as they land. Shutdown counts the
/// threads in `accept` and wakes each, so a thread must be counted before
/// it can block there; one that slipped past would hold the listener and
/// `join_and_report` would never return. After join the listener is
/// gone, so a later connect is refused.
#[test]
fn shutdown_racing_a_ping_burst_joins_promptly_and_closes_the_listener() {
    let clients = 8usize;
    for cycle in 0..50 {
        let handle = Server::spawn("127.0.0.1:0", ServerConfig::default()).unwrap();
        let addr = handle.local_addr();
        let barrier = Arc::new(Barrier::new(clients + 1));
        let pings: Vec<_> = (0..clients)
            .map(|_| {
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    // Refused or unanswered once shutdown won the race.
                    let _ = Client::new(addr.to_string()).ping();
                })
            })
            .collect();
        barrier.wait();
        handle.shutdown();
        // Joined on a thread of its own, so a join that never returns
        // fails the test instead of hanging it.
        let (joined, join) = std::sync::mpsc::channel();
        std::thread::spawn(move || joined.send(handle.join_and_report()));
        let limit = std::time::Duration::from_secs(2);
        assert!(join.recv_timeout(limit).is_ok(), "cycle {cycle}: join took over {limit:?}");
        for ping in pings {
            ping.join().expect("ping thread panicked");
        }
        assert!(
            std::net::TcpStream::connect(addr).is_err(),
            "cycle {cycle}: connect accepted after join"
        );
    }
}
