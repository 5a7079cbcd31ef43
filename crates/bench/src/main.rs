//! `bench-driver` — the machine-readable baseline emitter for the
//! round-elimination `Engine` sessions.
//!
//! Runs the engine's hot kernels through a sequential session and through
//! a session at the requested pool width, asserts the parallel outputs
//! are **byte-identical** to the sequential ones, prints a wall-clock
//! table, and writes `BENCH_relim.json` (schema `bench-relim/4`, see
//! `bench::baseline`). The `engine_session_reuse` kernel additionally
//! compares a shared session cache against per-call fresh caches on the
//! `autolb` workload; `store_roundtrip` and `service_cold_vs_warm` cover
//! the `relim-service` serving layer (content-addressed store
//! persistence, cold-vs-warm daemon latency). Engine-touching kernels
//! also record an `engine_report` probe (deterministic cache/operator
//! counters on a fresh sequential session) that the `--diff` gate
//! compares **exactly**, so cache-hit-trend regressions fail CI.
//!
//! With the `count-alloc` feature (default) the driver installs a
//! counting global allocator (see [`alloc_count`]) and records exact
//! `alloc_count` / `alloc_bytes` deltas for each engine probe into the
//! `engine_report` section — deterministic where `wall_ns` is not, and
//! therefore diffed **exactly** like the other counters (schema
//! `bench-relim/4`).
//!
//! ```text
//! bench-driver [--quick] [--threads N] [--out PATH]
//! bench-driver --diff COMMITTED FRESH
//! bench-driver --alloc-gate COMMITTED
//! ```
//!
//! * `--quick`   — CI smoke sizes (Δ=4 sweep, small kernels)
//! * `--threads` — parallel session width (default: RELIM_THREADS or
//!   available parallelism)
//! * `--out`     — baseline path (default: `BENCH_relim.json`)
//! * `--diff`    — compare a fresh baseline against the committed one:
//!   schema + key presence + byte-identity assertions must hold and all
//!   non-timing fields must match exactly (timing fields may drift).
//!   Exits non-zero on any problem — the CI perf-schema regression gate.
//! * `--alloc-gate` — re-measure the pinned hot-loop kernels
//!   (`rbar_step_pi_d5_a4_x1`, `iterate_rr_mis_d3`, `lemma8_sweep_d4`,
//!   and the width-2 pool batch `pool_batch_w2`) under the counting
//!   allocator and fail if any exceeds the per-call allocation budget
//!   committed in the baseline's `engine_report.alloc_count` — the CI
//!   allocation-regression gate.

mod alloc_count;

use bench::baseline::{diff_problems, schema_problems, Baseline, Entry, Run};
use bench::json::Json;
use bench::{time_median, Engine};
use lb_family::family::{self, PiParams};
use lb_family::{lemma8, zeroround_mc};
use relim_core::autolb::AutoLbOptions;
use relim_core::roundelim::r_step;
use relim_service::ops::OpRequest;
use relim_service::ring::Ring;
use relim_service::server::{Server, ServerConfig};
use relim_service::store::{digest_of, ResultStore};
use relim_service::Client;

struct Options {
    quick: bool,
    /// `--threads N` if given; resolved from `RELIM_THREADS` / available
    /// parallelism only when a baseline is actually generated (so
    /// `--diff` never touches, and never trips over, the environment).
    threads: Option<usize>,
    out: std::path::PathBuf,
    diff: Option<(std::path::PathBuf, std::path::PathBuf)>,
    alloc_gate: Option<std::path::PathBuf>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        quick: false,
        threads: None,
        out: std::path::PathBuf::from("BENCH_relim.json"),
        diff: None,
        alloc_gate: None,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => opts.quick = true,
            "--threads" => {
                let v = iter.next().ok_or("--threads requires a value")?;
                opts.threads = Some(v.parse().map_err(|_| format!("bad --threads value `{v}`"))?);
            }
            "--out" => {
                opts.out = iter.next().ok_or("--out requires a value")?.into();
            }
            "--diff" => {
                let committed = iter.next().ok_or("--diff requires COMMITTED and FRESH paths")?;
                let fresh = iter.next().ok_or("--diff requires COMMITTED and FRESH paths")?;
                opts.diff = Some((committed.into(), fresh.into()));
            }
            "--alloc-gate" => {
                let committed = iter.next().ok_or("--alloc-gate requires a COMMITTED path")?;
                opts.alloc_gate = Some(committed.into());
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(opts)
}

/// The `--diff` mode: parse both baselines, schema-check the fresh one,
/// and require non-timing equality against the committed one.
fn run_diff(committed: &std::path::Path, fresh: &std::path::Path) -> Result<(), String> {
    let load = |path: &std::path::Path| -> Result<Json, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    };
    let committed_doc = load(committed)?;
    let fresh_doc = load(fresh)?;
    let mut problems = schema_problems(&fresh_doc);
    problems.extend(diff_problems(&committed_doc, &fresh_doc));
    if problems.is_empty() {
        println!(
            "baseline diff OK: {} matches {} (timing fields ignored)",
            fresh.display(),
            committed.display()
        );
        Ok(())
    } else {
        Err(format!(
            "baseline diff found {} problem(s):\n  {}",
            problems.len(),
            problems.join("\n  ")
        ))
    }
}

/// Times `f` through a sequential session and a `threads`-wide session,
/// asserting the rendered outputs match, and builds the baseline entry.
/// Each invocation receives a session of the right width; kernels that
/// must *not* reuse a cache across samples build a fresh child session
/// inside the closure (see the iterate kernels).
fn compare<R>(
    id: &str,
    params: Vec<(String, Json)>,
    threads: usize,
    samples: usize,
    f: impl Fn(&Engine) -> R,
    render: impl Fn(&R) -> String,
) -> Entry {
    let sequential = Engine::sequential();
    let parallel = Engine::builder().threads(threads).build();
    let (seq_out, seq_med, seq_min, seq_max) = time_median(samples, || f(&sequential));
    let (par_out, par_med, par_min, par_max) = time_median(samples, || f(&parallel));
    let identical = render(&par_out) == render(&seq_out);
    assert!(identical, "{id}: parallel output differs from sequential");
    Entry {
        id: id.to_owned(),
        params,
        runs: vec![
            Run { threads: 1, wall_ns: seq_med, min_ns: seq_min, max_ns: seq_max, samples },
            Run { threads, wall_ns: par_med, min_ns: par_min, max_ns: par_max, samples },
        ],
        speedup: Some(seq_med as f64 / par_med.max(1) as f64),
        byte_identical: Some(identical),
        report: None,
    }
}

/// A fresh child session of the same width as `engine` — used by kernels
/// whose measurement must not leak state (cache contents) across samples.
fn fresh(engine: &Engine, memoize: bool) -> Engine {
    Engine::builder().threads(engine.threads()).memoize(memoize).build()
}

/// One deterministic probe run of a kernel on `engine` (fresh, so the
/// counters describe exactly one execution): the `engine_report` record
/// the baseline diff compares exactly. Timing-free by construction
/// (`snapshot_pairs` excludes `wall_ns`). With the counting allocator
/// installed, the probe's exact `alloc_count`/`alloc_bytes` deltas are
/// appended — also deterministic (same code, same input, same
/// allocations; probes run after the timed samples, so
/// lazily-initialized thread-locals are already warm).
fn probe_report(engine: Engine, run: impl FnOnce(&Engine)) -> Option<Vec<(String, i64)>> {
    let ((), allocs, bytes) = alloc_count::measure(|| run(&engine));
    let mut pairs: Vec<(String, i64)> = engine
        .report()
        .snapshot_pairs()
        .into_iter()
        .map(|(k, v)| (k.to_owned(), v as i64))
        .collect();
    if alloc_count::enabled() {
        pairs.push(("alloc_count".to_owned(), allocs as i64));
        pairs.push(("alloc_bytes".to_owned(), bytes as i64));
    }
    Some(pairs)
}

/// A named, boxed hot-loop workload for the allocation gate, with the
/// session width it runs at. The engine is passed in (fresh per call,
/// built *outside* the measured region) so the gate's measurement
/// boundary is identical to [`probe_report`]'s.
type GateKernel = (&'static str, usize, Box<dyn Fn(&Engine)>);

/// Width of the `pool_batch_w2` kernel's session.
const POOL_BATCH_WIDTH: usize = 2;

/// The `pool_batch_w2` kernel: one batch of 64 allocation-free tasks, so
/// on a width-2 session its allocations are the pool's own per-batch
/// cost (the items, the result slots and the batch itself), whichever
/// participant runs which task.
fn pool_batch(engine: &Engine) -> Vec<u64> {
    engine.map_owned((0..64).collect(), |&x: &u64| x.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Makes sure the persistent worker a width-2 batch wakes has run: task 0
/// waits (at most 5 s) until a second task has started, which only a
/// second participant can do. A freshly spawned worker allocates once
/// more when its thread first runs (a copy of its name), and a batch
/// measured before that would count it.
fn warm_pool_worker() {
    use std::sync::{Arc, Condvar, Mutex};
    let started = Arc::new((Mutex::new(0usize), Condvar::new()));
    Engine::builder().threads(POOL_BATCH_WIDTH).build().map_owned(
        (0..POOL_BATCH_WIDTH).collect(),
        move |&i: &usize| {
            let (count, changed) = &*started;
            let mut count = count.lock().expect("warm-up lock");
            *count += 1;
            changed.notify_all();
            if i == 0 {
                let wait = std::time::Duration::from_secs(5);
                drop(changed.wait_timeout_while(count, wait, |n| *n < 2).expect("warm-up lock"));
            }
        },
    );
}

/// The allocation-budget gate: re-measures the pinned hot-loop kernels
/// under the counting allocator and fails if any performs more
/// allocations per call than the committed baseline budgets
/// (`engine_report.alloc_count`). Each workload is run once to warm
/// lazily-initialized state (matching the probe conditions of a full
/// baseline run, where the timed samples precede the probe) and then
/// measured on the second, steady-state call.
fn run_alloc_gate(committed: &std::path::Path) -> Result<(), String> {
    if !alloc_count::enabled() {
        return Err("--alloc-gate requires the `count-alloc` feature (default)".into());
    }
    let text = std::fs::read_to_string(committed)
        .map_err(|e| format!("cannot read {}: {e}", committed.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", committed.display()))?;
    let budget_of = |id: &str| -> Result<u64, String> {
        let entries = doc
            .get("entries")
            .and_then(Json::as_arr)
            .ok_or_else(|| "baseline has no entries array".to_owned())?;
        let entry = entries
            .iter()
            .find(|e| e.get("id").and_then(Json::as_str) == Some(id))
            .ok_or_else(|| format!("baseline has no `{id}` entry"))?;
        entry
            .get("engine_report")
            .and_then(|r| r.get("alloc_count"))
            .and_then(Json::as_i64)
            .map(|v| v as u64)
            .ok_or_else(|| format!("`{id}` entry carries no engine_report.alloc_count budget"))
    };

    let rbar_input = r_step(&family::pi(&PiParams { delta: 5, a: 4, x: 1 }).expect("valid"))
        .expect("r step")
        .problem;
    let mis = family::mis(3).expect("valid");
    let kernels: Vec<GateKernel> = vec![
        (
            "rbar_step_pi_d5_a4_x1",
            1,
            Box::new(move |e: &Engine| {
                let _ = e.rbar_step(&rbar_input).expect("rbar");
            }),
        ),
        (
            "iterate_rr_mis_d3",
            1,
            Box::new(move |e: &Engine| {
                let _ = e.iterate_with_limits(&mis, 10, 20);
            }),
        ),
        (
            // The `--quick` sweep: a fresh sub-multiset index per point.
            "lemma8_sweep_d4",
            1,
            Box::new(|e: &Engine| {
                let _ = lemma8::verify_sweep(4, e).expect("sweep");
            }),
        ),
        (
            "pool_batch_w2",
            POOL_BATCH_WIDTH,
            Box::new(|e: &Engine| {
                let _ = pool_batch(e);
            }),
        ),
    ];

    let mut failures = Vec::new();
    println!("{:<28} {:>14} {:>14} {:>8}", "kernel", "alloc_count", "budget", "status");
    for (id, width, run) in &kernels {
        let budget = budget_of(id)?;
        let session = || Engine::builder().threads(*width).build();
        run(&session()); // warm-up: thread-locals, lazy statics
        if *width > 1 {
            warm_pool_worker();
        }
        let engine = session();
        let ((), allocs, bytes) = alloc_count::measure(|| run(&engine));
        let ok = allocs <= budget;
        println!(
            "{id:<28} {allocs:>14} {budget:>14} {:>8}   ({bytes} bytes)",
            if ok { "OK" } else { "OVER" }
        );
        if !ok {
            failures.push(format!(
                "{id}: {allocs} allocations per call exceeds the committed budget of {budget}"
            ));
        }
    }
    if failures.is_empty() {
        println!("allocation gate OK: every kernel within its committed budget");
        Ok(())
    } else {
        Err(format!("allocation regression:\n  {}", failures.join("\n  ")))
    }
}

/// The `engine_session_reuse` kernel: `repeats` identical `autolb` merge
/// searches on MIS (Δ=3), once with a **fresh session per call** (run 1:
/// every call rebuilds its sub-multiset indices) and once through **one
/// shared session** (run 2: calls after the first are served from the
/// session's `SubIndexCache`). Outcomes must be byte-identical; the
/// cache-hit count of the shared session is recorded in params.
fn engine_session_reuse_entry(repeats: usize) -> Entry {
    let mis = family::mis(3).expect("valid");
    let opts = AutoLbOptions { max_steps: 3, label_budget: 6, ..Default::default() };
    let render = |o: &relim_core::autolb::AutoLbOutcome| {
        let chain: Vec<String> = o.chain().map(|p| p.render()).collect();
        format!("{:?} {} {}", o.stopped, o.certified_rounds, chain.join("|"))
    };

    let (per_call_out, per_call_med, per_call_min, per_call_max) = time_median(3, || {
        let mut last = String::new();
        for _ in 0..repeats {
            let engine = Engine::sequential();
            last = render(&engine.auto_lower_bound(&mis, &opts));
        }
        last
    });

    let shared = Engine::sequential();
    let shared2 = shared.clone();
    let (shared_out, shared_med, shared_min, shared_max) = time_median(3, move || {
        let mut last = String::new();
        for _ in 0..repeats {
            last = render(&shared2.auto_lower_bound(&mis, &opts));
        }
        last
    });
    let identical = per_call_out == shared_out;
    assert!(identical, "engine_session_reuse: shared-cache outcome differs from per-call");
    let report = shared.report();
    assert!(report.cache_hits > 0, "shared session must score cache hits across repeats");
    let report_pairs: Vec<(String, i64)> =
        report.snapshot_pairs().into_iter().map(|(k, v)| (k.to_owned(), v as i64)).collect();

    Entry {
        id: "engine_session_reuse".into(),
        params: vec![
            ("repeats".into(), Json::Int(repeats as i64)),
            ("mode_run0".into(), Json::str("per_call_cache")),
            ("mode_run1".into(), Json::str("shared_cache")),
            ("shared_cache_hits".into(), Json::Int(report.cache_hits as i64)),
        ],
        runs: vec![
            Run {
                threads: 1,
                wall_ns: per_call_med,
                min_ns: per_call_min,
                max_ns: per_call_max,
                samples: 3,
            },
            Run {
                threads: 1,
                wall_ns: shared_med,
                min_ns: shared_min,
                max_ns: shared_max,
                samples: 3,
            },
        ],
        speedup: Some(per_call_med as f64 / shared_med.max(1) as f64),
        byte_identical: Some(identical),
        report: Some(report_pairs),
    }
}

/// The `iterate_lineage_overhead` kernel: the `iterate_rr_mis_d3`
/// workload once on a plain session (run 1) and once on a
/// `record_lineage(true)` session (run 2), both sequential. The
/// outcomes must be byte-identical — lineage recording is observation,
/// never steering — and the probe runs **with recording on**, so the
/// baseline pins the recording path's exact allocation cost and the
/// derivation DAG's size (nodes/edges in params, diffed exactly). The
/// off-path's allocations stay pinned by `iterate_rr_mis_d3`'s own
/// probe and the `--alloc-gate` budget: together the two entries commit
/// "recording off costs nothing, recording on costs exactly this".
fn iterate_lineage_overhead_entry(quick: bool) -> Entry {
    let mis = family::mis(3).expect("valid");
    let samples = if quick { 3 } else { 5 };
    let render =
        |o: &relim_core::iterate::IterationOutcome| format!("{:?}\n{:?}", o.stats, o.stopped);
    let (off_out, off_med, off_min, off_max) = time_median(samples, || {
        Engine::builder().threads(1).build().iterate_with_limits(&mis, 10, 20)
    });
    let (on_out, on_med, on_min, on_max) = time_median(samples, || {
        Engine::builder().threads(1).record_lineage(true).build().iterate_with_limits(&mis, 10, 20)
    });
    let identical = render(&on_out) == render(&off_out);
    assert!(identical, "iterate_lineage_overhead: recording changed the outcome");

    let recorder = Engine::builder().threads(1).record_lineage(true).build();
    let report = probe_report(recorder.clone(), |e| {
        let _ = e.iterate_with_limits(&mis, 10, 20);
    });
    let graph = recorder.lineage().expect("recording session has a graph");

    Entry {
        id: "iterate_lineage_overhead".into(),
        params: vec![
            ("max_steps".into(), Json::Int(10)),
            ("label_limit".into(), Json::Int(20)),
            ("mode_run0".into(), Json::str("lineage_off")),
            ("mode_run1".into(), Json::str("lineage_on")),
            ("lineage_nodes".into(), Json::Int(graph.node_count() as i64)),
            ("lineage_edges".into(), Json::Int(graph.edge_count() as i64)),
        ],
        runs: vec![
            Run { threads: 1, wall_ns: off_med, min_ns: off_min, max_ns: off_max, samples },
            Run { threads: 1, wall_ns: on_med, min_ns: on_min, max_ns: on_max, samples },
        ],
        speedup: Some(off_med as f64 / on_med.max(1) as f64),
        byte_identical: Some(identical),
        report,
    }
}

/// The `store_roundtrip` kernel: serialize a batch of canonical results
/// into a fresh persistent [`ResultStore`], reopen the directory, and
/// read every entry back — asserting byte identity (the satellite
/// contract of the content-addressed store) while timing the full
/// serialize → disk → deserialize loop.
fn store_roundtrip_entry(quick: bool) -> Entry {
    let n: usize = if quick { 32 } else { 128 };
    let samples = if quick { 3 } else { 5 };
    let items: Vec<(String, String, String)> = (0..n)
        .map(|i| {
            let key = format!("relim-store/1\nengine=v1\nop=bench\nitem={i}\n");
            let result = format!("certificate {i}\nmulti-line ü payload\n\"quoted\"\n");
            (digest_of(&key), key, result)
        })
        .collect();
    let dir = std::env::temp_dir().join(format!("relim-bench-store-{}", std::process::id()));
    let (all_identical, med, min, max) = time_median(samples, || {
        let _ = std::fs::remove_dir_all(&dir);
        let store = ResultStore::persistent(&dir, n).expect("store dir");
        for (digest, key, result) in &items {
            store.put(digest, key, result).expect("store write");
        }
        let reopened = ResultStore::persistent(&dir, n).expect("store reopen");
        items.iter().all(|(d, k, r)| reopened.get(d, k).as_deref() == Some(r.as_str()))
    });
    let _ = std::fs::remove_dir_all(&dir);
    assert!(all_identical, "store round-trip must reproduce every byte");
    Entry {
        id: "store_roundtrip".into(),
        params: vec![("entries".into(), Json::Int(n as i64))],
        runs: vec![Run { threads: 1, wall_ns: med, min_ns: min, max_ns: max, samples }],
        speedup: None,
        byte_identical: Some(true),
        report: None,
    }
}

/// The `service_cold_vs_warm` kernel: one in-process daemon with a
/// persistent store; run 1 is the cold `autolb` submission (computed on
/// the shared engine, then stored), run 2 the warm submission (served
/// from the store). Byte identity is asserted against both the cold
/// response and an in-process engine run — the serving determinism
/// contract, measured.
fn service_cold_vs_warm_entry(threads: usize, quick: bool) -> Entry {
    let dir = std::env::temp_dir().join(format!("relim-bench-service-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServerConfig { threads, store_dir: Some(dir.clone()), ..ServerConfig::default() };
    let handle = Server::spawn("127.0.0.1:0", config).expect("spawn daemon");
    let client = Client::new(handle.local_addr().to_string());
    let op = OpRequest::auto_lb("M M M;P O O", "M [P O];O O").expect("valid op");

    let cold_start = std::time::Instant::now();
    let cold = client.submit(&op, None).expect("cold submission");
    let cold_ns = cold_start.elapsed().as_nanos() as u64;
    assert!(!cold.cached, "first submission cannot be cached");

    let warm_samples = if quick { 5 } else { 9 };
    let (warm, warm_med, warm_min, warm_max) =
        time_median(warm_samples, || client.submit(&op, None).expect("warm submission"));
    assert!(warm.cached, "repeat submission must be a store hit");
    assert_eq!(warm.result, cold.result, "served bytes must never change");
    let in_process =
        op.execute(&Engine::builder().threads(threads).build()).expect("in-process reference");
    assert_eq!(cold.result, in_process, "served must equal in-process bytes");

    client.shutdown().expect("graceful shutdown");
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
    Entry {
        id: "service_cold_vs_warm".into(),
        params: vec![
            ("op".into(), Json::str("autolb")),
            ("store".into(), Json::str("persistent")),
            ("mode_run0".into(), Json::str("cold_store")),
            ("mode_run1".into(), Json::str("warm_store")),
            ("warm_cached".into(), Json::Bool(true)),
        ],
        runs: vec![
            Run { threads, wall_ns: cold_ns, min_ns: cold_ns, max_ns: cold_ns, samples: 1 },
            Run {
                threads,
                wall_ns: warm_med,
                min_ns: warm_min,
                max_ns: warm_max,
                samples: warm_samples,
            },
        ],
        speedup: Some(cold_ns as f64 / warm_med.max(1) as f64),
        byte_identical: Some(true),
        report: None,
    }
}

/// The `service_concurrent_throughput` kernel: four client threads fire
/// one 16-job batch (four distinct `iterate` queries, each submitted by
/// every thread, so 12 of the 16 submits are duplicates that store-hit
/// or coalesce) against a fresh in-memory daemon — once at executor-pool
/// width 1 (run 1) and once at width 4 (run 2). The sorted response
/// transcript must be byte-identical across the two widths and contain
/// the in-process reference bytes of every distinct op: the serving
/// determinism contract under concurrency, measured as batch wall time.
/// On a single-core runner the two widths time alike — the byte-identity
/// assertions are the pinned contract, the speedup is informative only.
fn service_concurrent_throughput_entry(quick: bool) -> Entry {
    let ops: Vec<OpRequest> = (1..=4)
        .map(|steps| OpRequest::Iterate {
            node: "M M M\nP O O".into(),
            edge: "M [P O]\nO O".into(),
            max_steps: steps,
            label_limit: 20,
        })
        .collect();
    let references: Vec<String> = ops
        .iter()
        .map(|op| op.execute(&Engine::sequential()).expect("in-process reference"))
        .collect();
    let clients = 4usize;
    let samples = if quick { 3 } else { 5 };

    let run_batch = |executors: usize| -> String {
        let config = ServerConfig { threads: 1, executors, ..ServerConfig::default() };
        let handle = Server::spawn("127.0.0.1:0", config).expect("spawn daemon");
        let addr = handle.local_addr().to_string();
        let barrier = std::sync::Arc::new(std::sync::Barrier::new(clients));
        let workers: Vec<_> = (0..clients)
            .map(|t| {
                let addr = addr.clone();
                let ops = ops.clone();
                let barrier = std::sync::Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    (0..ops.len())
                        .map(|i| {
                            let idx = (i + t) % ops.len();
                            let reply =
                                Client::new(addr.clone()).submit(&ops[idx], None).expect("submit");
                            (idx, reply.result)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut rendered = Vec::new();
        for worker in workers {
            for (idx, result) in worker.join().expect("client thread panicked") {
                rendered.push(format!("#{idx}\n{result}"));
            }
        }
        Client::new(addr).shutdown().expect("graceful shutdown");
        handle.join();
        rendered.sort();
        rendered.join("\n===\n")
    };

    let (out1, med1, min1, max1) = time_median(samples, || run_batch(1));
    let (out4, med4, min4, max4) = time_median(samples, || run_batch(4));
    assert_eq!(out1, out4, "served bytes must not depend on the executor count");
    for (idx, reference) in references.iter().enumerate() {
        assert!(out4.contains(reference), "response #{idx} drifted from the in-process bytes");
    }
    Entry {
        id: "service_concurrent_throughput".into(),
        params: vec![
            ("jobs".into(), Json::Int((clients * ops.len()) as i64)),
            ("clients".into(), Json::Int(clients as i64)),
            ("distinct_ops".into(), Json::Int(ops.len() as i64)),
            ("mode_run0".into(), Json::str("executors_1")),
            ("mode_run1".into(), Json::str("executors_4")),
        ],
        runs: vec![
            Run { threads: 1, wall_ns: med1, min_ns: min1, max_ns: max1, samples },
            Run { threads: 4, wall_ns: med4, min_ns: min4, max_ns: max4, samples },
        ],
        speedup: Some(med1 as f64 / med4.max(1) as f64),
        byte_identical: Some(true),
        report: None,
    }
}

/// The `trace_overhead` kernel: the same warm `zero-round` submission
/// batch against one fresh in-memory default daemon, untraced (run 1)
/// and carrying a trace context (run 2). The served bytes must be
/// identical in every sample of both runs — tracing is observability,
/// never behavior — and the daemon must actually hold spans for the
/// measured trace id, so the "on" timing is honest. The untraced run is
/// what every request without a context costs: one `None` branch per
/// recording site, and this entry pins that claim with a number.
fn trace_overhead_entry(quick: bool) -> Entry {
    let op = OpRequest::zero_round("M M M;P O O", "M [P O];O O").expect("valid op");
    let reference = op.execute(&Engine::sequential()).expect("in-process reference");
    let samples = if quick { 5 } else { 9 };
    let batch: usize = if quick { 16 } else { 64 };
    let trace_id: u64 = 0xbe7c;

    let config = ServerConfig { threads: 1, executors: 1, ..ServerConfig::default() };
    let handle = Server::spawn("127.0.0.1:0", config).expect("spawn daemon");
    let client = Client::new(handle.local_addr().to_string());
    let cold = client.submit(&op, None).expect("cold submission");
    assert!(!cold.cached, "first submission cannot be cached");
    assert_eq!(cold.result, reference, "served must equal in-process bytes");
    let run_batch = |trace: bool| -> (u64, u64, u64) {
        let ctx = trace.then_some(relim_service::trace::TraceContext { trace_id, parent: None });
        let (all_identical, med, min, max) = time_median(samples, || {
            (0..batch).all(|_| {
                let reply = client.submit_traced(&op, None, ctx.as_ref()).expect("warm submission");
                reply.cached && reply.result == reference
            })
        });
        assert!(all_identical, "served bytes must not depend on tracing");
        (med, min, max)
    };

    let (off_med, off_min, off_max) = run_batch(false);
    assert!(client.trace_dump(None).expect("trace dump").spans.is_empty(), "untraced is silent");
    let (on_med, on_min, on_max) = run_batch(true);
    let dump = client.trace_dump(Some(trace_id)).expect("trace dump");
    assert!(!dump.spans.is_empty(), "the traced requests must hold spans");
    client.shutdown().expect("graceful shutdown");
    handle.join();
    Entry {
        id: "trace_overhead".into(),
        params: vec![
            ("op".into(), Json::str("zero-round")),
            ("batch".into(), Json::Int(batch as i64)),
            ("mode_run0".into(), Json::str("trace_off")),
            ("mode_run1".into(), Json::str("trace_on")),
        ],
        runs: vec![
            Run { threads: 1, wall_ns: off_med, min_ns: off_min, max_ns: off_max, samples },
            Run { threads: 1, wall_ns: on_med, min_ns: on_min, max_ns: on_max, samples },
        ],
        speedup: Some(on_med as f64 / off_med.max(1) as f64),
        byte_identical: Some(true),
        report: None,
    }
}

/// The `fleet_ring_assignment` kernel: owner assignment of a synthetic
/// digest population over an 8-member consistent-hash ring, plus the
/// re-assignment churn of adding a ninth member. Pure and fully
/// deterministic (fixed member names, splitmix-generated digests), so
/// the recorded balance and churn numbers are exact-diffed by the
/// baseline gate: a change to the ring's hash or vnode layout shows up
/// as a param mismatch, not a silent re-partition of every fleet.
fn fleet_ring_assignment_entry(quick: bool) -> Entry {
    let n_digests: usize = if quick { 20_000 } else { 100_000 };
    let members: Vec<String> = (0..8).map(|i| format!("peer-{i}:74{i:02}")).collect();
    let digests: Vec<String> = (0..n_digests as u64)
        .map(|i| {
            // splitmix64 over the index: stable synthetic addresses.
            let mut z = i.wrapping_add(0x9e37_79b9_7f4a_7c15);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            format!("{:016x}{:016x}", z, z ^ (z >> 31))
        })
        .collect();

    let assign = |ring: &Ring| -> Vec<usize> {
        digests
            .iter()
            .map(|d| {
                let owner = ring.owner_of(d).expect("non-empty ring");
                ring.members().iter().position(|m| m == owner).expect("owner is a member")
            })
            .collect()
    };
    let samples = if quick { 3 } else { 5 };
    let ring = Ring::new(members.clone());
    let (owners, med, min, max) = time_median(samples, || assign(&ring));

    let mut shares = vec![0i64; members.len()];
    for owner in &owners {
        shares[*owner] += 1;
    }
    let mut grown = members.clone();
    grown.push("peer-8:7408".to_owned());
    let grown_ring = Ring::new(grown);
    let grown_owners = assign(&grown_ring);
    let moved = owners
        .iter()
        .zip(&grown_owners)
        .filter(|(before, after)| ring.members()[**before] != grown_ring.members()[**after])
        .count();
    // Every moved address must land on the newcomer (the stability
    // contract the ring proptests pin; asserted here on the bench
    // population too, so the baseline never records a broken ring).
    assert!(
        owners.iter().zip(&grown_owners).all(|(before, after)| {
            ring.members()[*before] == grown_ring.members()[*after]
                || grown_ring.members()[*after] == "peer-8:7408"
        }),
        "an address moved between pre-existing members"
    );

    Entry {
        id: "fleet_ring_assignment".into(),
        params: vec![
            ("members".into(), Json::Int(members.len() as i64)),
            ("vnodes".into(), Json::Int(i64::from(relim_service::ring::VNODES))),
            ("digests".into(), Json::Int(n_digests as i64)),
            ("min_share".into(), Json::Int(*shares.iter().min().expect("non-empty"))),
            ("max_share".into(), Json::Int(*shares.iter().max().expect("non-empty"))),
            ("moved_to_ninth".into(), Json::Int(moved as i64)),
        ],
        runs: vec![Run { threads: 1, wall_ns: med, min_ns: min, max_ns: max, samples }],
        speedup: None,
        byte_identical: Some(true),
        report: None,
    }
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: bench-driver [--quick] [--threads N] [--out PATH]\n       \
                 bench-driver --diff COMMITTED FRESH\n       \
                 bench-driver --alloc-gate COMMITTED"
            );
            std::process::exit(2);
        }
    };
    if let Some((committed, fresh)) = &opts.diff {
        if let Err(e) = run_diff(committed, fresh) {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
        return;
    }
    if let Some(committed) = &opts.alloc_gate {
        if let Err(e) = run_alloc_gate(committed) {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
        return;
    }
    let threads = match opts.threads {
        Some(0) => Engine::available_parallelism(),
        Some(n) => n,
        None => match Engine::try_from_env() {
            Ok(engine) => engine.threads(),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        },
    };
    let mut entries = Vec::new();

    // 1. The headline kernel: the Lemma 8 verification sweep (tier-2 at
    // Δ=5) — the acceptance workload for the parallel engine. A fresh
    // child session per sample keeps the per-point index builds inside
    // the measurement (cross-call reuse is `engine_session_reuse`'s job).
    let sweep_delta = if opts.quick { 4 } else { 5 };
    let sweep_samples = if opts.quick { 3 } else { 1 };
    let mut sweep_entry = compare(
        &format!("lemma8_sweep_d{sweep_delta}"),
        vec![
            ("delta".into(), Json::Int(i64::from(sweep_delta))),
            ("points".into(), Json::Int(family::sweep_points(sweep_delta).len() as i64)),
        ],
        threads,
        sweep_samples,
        |engine| lemma8::verify_sweep(sweep_delta, &fresh(engine, true)).expect("sweep"),
        |reports| format!("{reports:?}"),
    );
    sweep_entry.report = probe_report(Engine::sequential(), |e| {
        let _ = lemma8::verify_sweep(sweep_delta, e).expect("sweep probe");
    });
    entries.push(sweep_entry);

    // 2. One R̄ application on the family at the largest unit-suite point:
    // the raw universal-side enumeration plus the cover filter. A fresh
    // child session per sample keeps the index build inside the
    // measurement (the session cache would otherwise absorb it).
    let pi = family::pi(&PiParams { delta: 5, a: 4, x: 1 }).expect("valid");
    let r = r_step(&pi).expect("r step");
    let mut rbar_entry = compare(
        "rbar_step_pi_d5_a4_x1",
        vec![("labels".into(), Json::Int(r.problem.alphabet().len() as i64))],
        threads,
        if opts.quick { 3 } else { 5 },
        |engine| fresh(engine, true).rbar_step(&r.problem).expect("rbar"),
        |step| format!("{}\n{:?}", step.problem.render(), step.provenance),
    );
    rbar_entry.report = probe_report(Engine::sequential(), |e| {
        let _ = e.rbar_step(&r.problem).expect("rbar probe");
    });
    entries.push(rbar_entry);

    // 3. Iterated round elimination on MIS until the label limit — the
    // memoized default, plus the memoization-off reference so the
    // before/after of the sub-index cache is recorded side by side. Each
    // sample gets a fresh child session: the kernel measures *within-run*
    // memoization, not cross-sample reuse (that is `engine_session_reuse`).
    let mis = family::mis(3).expect("valid");
    let mut iterate_entry = compare(
        "iterate_rr_mis_d3",
        vec![
            ("max_steps".into(), Json::Int(10)),
            ("label_limit".into(), Json::Int(20)),
            ("memoized".into(), Json::Bool(true)),
        ],
        threads,
        if opts.quick { 3 } else { 5 },
        |engine| fresh(engine, true).iterate_with_limits(&mis, 10, 20),
        |outcome| format!("{:?}\n{:?}", outcome.stats, outcome.stopped),
    );
    iterate_entry.report = probe_report(Engine::sequential(), |e| {
        let _ = e.iterate_with_limits(&mis, 10, 20);
    });
    entries.push(iterate_entry);
    let mut iterate_off_entry = compare(
        "iterate_rr_mis_d3_memo_off",
        vec![
            ("max_steps".into(), Json::Int(10)),
            ("label_limit".into(), Json::Int(20)),
            ("memoized".into(), Json::Bool(false)),
        ],
        threads,
        if opts.quick { 3 } else { 5 },
        |engine| fresh(engine, false).iterate_with_limits(&mis, 10, 20),
        |outcome| format!("{:?}\n{:?}", outcome.stats, outcome.stopped),
    );
    iterate_off_entry.report =
        probe_report(Engine::builder().threads(1).memoize(false).build(), |e| {
            let _ = e.iterate_with_limits(&mis, 10, 20);
        });
    entries.push(iterate_off_entry);
    // The two paths must also agree with *each other*, not just across
    // thread counts.
    {
        let engine = Engine::builder().threads(threads).build();
        let memo = engine.iterate_with_limits(&mis, 10, 20);
        let plain = Engine::builder()
            .threads(threads)
            .memoize(false)
            .build()
            .iterate_with_limits(&mis, 10, 20);
        assert_eq!(
            format!("{:?}\n{:?}", memo.stats, memo.stopped),
            format!("{:?}\n{:?}", plain.stats, plain.stopped),
            "memoized iterate must match the memoization-off reference"
        );
    }

    // 3a. Lineage-recording overhead on the same iterate workload:
    // byte-identical outcomes, DAG size and recording-path allocations
    // pinned in the baseline.
    entries.push(iterate_lineage_overhead_entry(opts.quick));

    // 3b. Pool submission overhead: many micro-tasks whose per-item work
    // is trivial, so the measured cost is dominated by what the
    // persistent pool amortizes (no per-call thread spawns).
    let micro_items: Vec<u64> = (0..4096).collect();
    let mut micro_entry = compare(
        "pool_map_owned_micro",
        vec![("items".into(), Json::Int(micro_items.len() as i64))],
        threads,
        if opts.quick { 5 } else { 9 },
        |engine| {
            engine.map_owned(micro_items.clone(), |&x| {
                x.wrapping_mul(6364136223846793005).rotate_left(17)
            })
        },
        |out| format!("{out:?}"),
    );
    micro_entry.report = probe_report(Engine::sequential(), |e| {
        let _ = e.map_owned(micro_items.clone(), |&x: &u64| x.wrapping_add(1));
    });
    entries.push(micro_entry);

    // 3b'. One width-2 batch of allocation-free tasks: the pool's own
    // per-batch allocations, probed once the persistent worker has run.
    let mut batch_entry = compare(
        "pool_batch_w2",
        vec![("items".into(), Json::Int(64))],
        POOL_BATCH_WIDTH,
        if opts.quick { 5 } else { 9 },
        pool_batch,
        |out| format!("{out:?}"),
    );
    warm_pool_worker();
    batch_entry.report = probe_report(Engine::builder().threads(POOL_BATCH_WIDTH).build(), |e| {
        let _ = pool_batch(e);
    });
    entries.push(batch_entry);

    // 3c. Session reuse: the same autolb merge search driven repeatedly
    // through ONE long-lived session (shared SubIndexCache — run 2) vs a
    // fresh session per call (cold cache every time — run 1). Outcomes
    // must be byte-identical; the cache-hit delta is recorded in params.
    entries.push(engine_session_reuse_entry(if opts.quick { 6 } else { 12 }));

    // 4. The chunk-sharded Monte-Carlo gadget simulation.
    let mc_trials: u64 = if opts.quick { 65_536 } else { 1 << 20 };
    let mc_problem = family::pi(&PiParams { delta: 6, a: 4, x: 1 }).expect("valid");
    let mut mc_entry = compare(
        "zeroround_mc_uniform",
        vec![
            ("trials".into(), Json::Int(mc_trials as i64)),
            ("chunk".into(), Json::Int(zeroround_mc::CHUNK_TRIALS as i64)),
        ],
        threads,
        if opts.quick { 3 } else { 5 },
        |engine| zeroround_mc::simulate_uniform(&mc_problem, mc_trials, 7, engine),
        |out| format!("{}/{}", out.failures, out.trials),
    );
    mc_entry.report = probe_report(Engine::sequential(), |e| {
        let _ = zeroround_mc::simulate_uniform(&mc_problem, mc_trials, 7, e);
    });
    entries.push(mc_entry);

    // 6. The serving layer: the content-addressed store's round-trip
    // cost, the daemon's cold-vs-warm latency on an autolb query (byte
    // identity against the in-process engine asserted inside), and the
    // executor pool's batch throughput at widths 1 vs 4.
    entries.push(store_roundtrip_entry(opts.quick));
    entries.push(service_cold_vs_warm_entry(threads, opts.quick));
    entries.push(service_concurrent_throughput_entry(opts.quick));
    entries.push(trace_overhead_entry(opts.quick));

    // 7. The fleet tier's routing table: assignment cost, balance, and
    // the churn of growing the ring by one member — all exact-diffed.
    entries.push(fleet_ring_assignment_entry(opts.quick));

    let baseline = Baseline { quick: opts.quick, threads, entries };
    println!("\n[BENCH_relim] parallel engine baseline (1 vs {} threads):", threads);
    print!("{}", baseline.render_table());
    match baseline.write(&opts.out) {
        Ok(()) => println!("wrote {}", opts.out.display()),
        Err(e) => {
            eprintln!("error: failed to write {}: {e}", opts.out.display());
            std::process::exit(1);
        }
    }
}
