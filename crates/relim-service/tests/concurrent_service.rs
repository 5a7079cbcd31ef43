//! The daemon under concurrent load: 8 client threads against a
//! 4-executor pool must serve bytes identical to local in-process runs,
//! a burst of identical cold queries must coalesce onto one
//! computation, graceful shutdown must drain every accepted job, and an
//! adversarial interactive-vs-bulk mix must starve nothing.

use relim_core::Engine;
use relim_json::Json;
use relim_service::client::Client;
use relim_service::ops::OpRequest;
use relim_service::queue::Class;
use relim_service::server::{Server, ServerConfig};
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
    // The timeline's window accounting is scrapeable alongside it.
    assert!(text.contains("relim_timeline_dropped "), "{text}");
    assert!(text.contains("relim_timeline_window "), "{text}");

    Client::new(addr).shutdown().unwrap();
    handle.join();
}

/// An aged-promoted bulk job must log its full lifecycle to the
/// timeline in order: enqueue, promote, start, finish. The promotion
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

        let submit_thread = |op: OpRequest, class: Class| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                Client::new(addr).submit(&op, Some(class)).expect("scenario submit");
            })
        };
        let wait_until = |cond: &dyn Fn() -> bool| {
            let start = std::time::Instant::now();
            while !cond() && start.elapsed() < deadline {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        };

        // Park a sweep on the only executor, and wait until it has
        // actually been popped (its `start` event is on the timeline).
        let holder = submit_thread(OpRequest::sweep(4, 8).unwrap(), Class::Interactive);
        wait_until(&|| {
            let (timeline, _) = client.timeline().expect("timeline poll");
            timeline.get("events").and_then(Json::as_arr).is_some_and(|events| {
                events.iter().any(|e| e.get("event").and_then(Json::as_str) == Some("start"))
            })
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
        let bulk = submit_thread(bulk_op.clone(), Class::Bulk);
        wait_until(&pending(1));
        let i1 = submit_thread(mis_iterate(1), Class::Interactive);
        wait_until(&pending(2));
        let i2 = submit_thread(mis_iterate(2), Class::Interactive);

        for t in [holder, bulk, i1, i2] {
            t.join().expect("scenario thread panicked");
        }
        let status = client.status().unwrap();
        let promoted = int_at(&status, "queue", "aged_promotions") > 0;
        let (timeline, gantt) = client.timeline().unwrap();
        client.shutdown().unwrap();
        handle.join();
        if !promoted {
            continue; // the sweep finished before the stack built up
        }

        let events = timeline.get("events").and_then(Json::as_arr).expect("events array");
        let kinds: Vec<&str> = events
            .iter()
            .filter(|e| e.get("digest").and_then(Json::as_str) == Some(bulk_digest.as_str()))
            .filter_map(|e| e.get("event").and_then(Json::as_str))
            .collect();
        assert_eq!(
            kinds,
            ["enqueue", "promote", "start", "finish"],
            "bulk lifecycle out of order; gantt:\n{gantt}"
        );
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
