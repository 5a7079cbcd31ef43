//! The traced run's per-layer numbers.
//!
//! After the timed window the generated requests are replayed in-process
//! through each layer's public functions, in the order the daemon calls
//! them (render, parse, validate, key + digest, ring, store, execute,
//! store, render), with a span around every call. Cold `iterate` steps
//! are also taken apart into the engine's phases. Probes against the
//! live daemons time the client, wire and fleet paths, and `status`
//! deltas over the window give the daemons' own counts.

use crate::gen::{Kind, Plan, Req};
use crate::run::{request_id, Daemons, LoopResult, References, DAEMON_WIDTH};
use crate::spans::{self_times, Open, Recorder, Span};
use relim_core::rightclosed::right_closed_sets;
use relim_core::{Engine, StrengthOrder};
use relim_json::Json;
use relim_service::ops::OpRequest;
use relim_service::protocol::{self, RequestBody};
use relim_service::store::{digest_of, ResultStore};
use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::time::Instant;

/// A named per-layer reading with its unit.
pub type Metric = (&'static str, f64, &'static str);

/// Requests replayed per client: enough for stable means, few enough
/// that the replay of cold engine work stays a few seconds.
fn replay_cap(plan: &Plan) -> u64 {
    match plan.workload {
        crate::gen::Workload::ColdFamily => 2 * crate::gen::cold_points().len() as u64,
        crate::gen::Workload::WarmZipf => 1500,
        crate::gen::Workload::FleetMixed => 250,
    }
}

/// Mean of nanosecond readings, scaled by `per` (1e3 → µs, 1e6 → ms).
fn mean(values: &[u64], per: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<u64>() as f64 / values.len() as f64 / per
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// A numeric leaf of a `status` counters tree (0 when absent).
fn leaf(counters: &Json, path: &[&str]) -> f64 {
    let mut node = counters;
    for key in path {
        match node.get(key) {
            Some(next) => node = next,
            None => return 0.0,
        }
    }
    node.as_i64().map_or(0.0, |v| v as f64)
}

/// `after − before` of a counter, summed over the daemons.
pub(crate) fn delta(before: &[Json], after: &[Json], path: &[&str]) -> f64 {
    before.iter().zip(after).map(|(b, a)| leaf(a, path) - leaf(b, path)).sum()
}

const LANES: [&str; 5] = ["autolb", "autoub", "iterate", "sweep", "zero_round"];

/// `(sum_ns, count)` of one latency outcome over the window, all ops.
fn latency_delta(before: &[Json], after: &[Json], outcome: &str) -> (f64, f64) {
    LANES.iter().fold((0.0, 0.0), |(sum, count), lane| {
        (
            sum + delta(before, after, &["latency", lane, outcome, "sum_ns"]),
            count + delta(before, after, &["latency", lane, outcome, "count"]),
        )
    })
}

/// Timings gathered while replaying, keyed by what they measure.
#[derive(Default)]
struct Readings {
    get_mem: Vec<u64>,
    get_disk: Vec<u64>,
    put: Vec<u64>,
    execute: Vec<u64>,
    execute_by_kind: BTreeMap<&'static str, Vec<u64>>,
    sweep: Vec<u64>,
    response_bytes: Vec<u64>,
    r_step: Vec<u64>,
    candidates_ns: Vec<u64>,
    sub_index: Vec<u64>,
    rbar_step: Vec<u64>,
    candidates: Vec<u64>,
    rbar_configs: Vec<u64>,
    queue_wait: Vec<u64>,
    /// Client latency of the replayed requests, summed.
    client_ns: u64,
    mismatches: u64,
}

/// The in-process replay: the daemon's layer calls, one span each,
/// against a store prefilled like the daemons'.
struct Replay<'a> {
    inp: &'a Inputs<'a>,
    rec: Recorder,
    rd: Readings,
    /// The daemons' engine configuration.
    engine: Engine,
    /// Non-memoizing, so every engine phase does its full work.
    bare: Engine,
    store: ResultStore,
}

impl Replay<'_> {
    /// Executes `op` inside an `ops.execute` span and files the time
    /// under its op kind.
    fn execute(&mut self, parent: Open, rid: u64, op: &OpRequest) -> Result<(String, u64), String> {
        let engine = &self.engine;
        let (result, ns) = self.rec.time("ops.execute", Some(parent), rid, || op.execute(engine));
        self.rd.execute_by_kind.entry(op.name()).or_default().push(ns);
        result.map(|r| (r, ns)).map_err(|e| format!("replayed {} failed: {e}", op.name()))
    }

    /// Stores a result inside a `store.put` span.
    fn put(
        &mut self,
        parent: Open,
        rid: u64,
        digest: &str,
        key: &str,
        result: &str,
    ) -> Result<(), String> {
        let store = &self.store;
        let (stored, ns) =
            self.rec.time("store.put", Some(parent), rid, || store.put(digest, key, result));
        self.rd.put.push(ns);
        stored.map_err(|e| format!("replay store put: {e}"))
    }

    /// Set-up, replayed: executes and stores the working set in prefill
    /// order, timing `lb-family` sweeps on their own as well.
    fn prefill(&mut self) -> Result<(), String> {
        let (plan, refs) = (self.inp.plan, self.inp.refs);
        for (n, i) in plan.prefill_order().into_iter().enumerate() {
            let rid = (1 << 50) + n as u64;
            let op = &plan.working_set[i];
            let root = self.rec.begin("prefill", None, rid);
            let (result, _) = self.execute(root, rid, op)?;
            if result != refs.results[i] {
                self.rd.mismatches += 1;
            }
            if let OpRequest::Sweep { delta, lemma } = *op {
                let bare = &self.bare;
                let (_, ns) = self.rec.time("lb.sweep", Some(root), rid, || match lemma {
                    6 => lb_family::lemma6::verify_sweep(delta, bare).map(|r| r.len()),
                    _ => lb_family::lemma8::verify_sweep(delta, bare).map(|r| r.len()),
                });
                self.rd.sweep.push(ns);
            }
            let key = op.canonical_key().map_err(|e| e.to_string())?;
            self.put(root, rid, &refs.digests[i], &key, &result)?;
            self.rec.end(root);
        }
        Ok(())
    }

    /// The window's last requests of every client, replayed: the daemons
    /// were warm by then.
    fn window(&mut self) -> Result<(), String> {
        let live = self.inp.live;
        let latency: HashMap<u64, u64> = live
            .samples
            .iter()
            .map(|s| (request_id(s.client.into(), s.seq.into()), s.latency_ns))
            .collect();
        let served: HashMap<u64, String> = live
            .cold
            .iter()
            .map(|c| {
                let s = &live.samples[c.sample];
                (request_id(s.client.into(), s.seq.into()), c.reply.result.clone())
            })
            .collect();
        let plan = self.inp.plan;
        for client in 0..plan.clients {
            let mut stream = plan.stream(client);
            let sent = live.sent[client];
            for seq in 0..sent {
                let req = stream.next_req();
                if seq + replay_cap(plan) >= sent {
                    let rid = request_id(client, seq);
                    let expected = match req.kind {
                        Kind::Warm(i) => Some(self.inp.refs.results[i as usize].as_str()),
                        _ => served.get(&rid).map(String::as_str),
                    };
                    self.request(rid, &req, latency.get(&rid).copied(), expected)?;
                }
            }
        }
        Ok(())
    }

    /// One request through the layers in the daemon's order; a cold
    /// `iterate` is then also taken apart into the engine's phases.
    fn request(
        &mut self,
        rid: u64,
        req: &Req,
        client_ns: Option<u64>,
        expected: Option<&str>,
    ) -> Result<(), String> {
        let rec = &mut self.rec;
        let root = rec.begin("request", None, rid);
        let (line, _) = rec.time("protocol.render", Some(root), rid, || {
            protocol::render_job_request(&req.op, req.class, None)
        });
        let (parsed, _) =
            rec.time("protocol.parse", Some(root), rid, || protocol::parse_request(&line));
        let Ok(RequestBody::Job { op, .. }) = parsed.map(|r| r.body) else {
            return Err("replayed request did not parse back to a job".into());
        };
        let (valid, _) = rec.time("ops.validate", Some(root), rid, || op.validate());
        valid.map_err(|e| e.to_string())?;
        let (keyed, _) = rec.time("ops.key", Some(root), rid, || {
            op.canonical_key().map(|key| {
                let digest = digest_of(&key);
                (key, digest)
            })
        });
        let (key, digest) = keyed.map_err(|e| e.to_string())?;
        let ring = &self.inp.daemons.ring;
        let (owner, _) = rec
            .time("ring.owner_of", Some(root), rid, || ring.owner_of(&digest).map(str::to_owned));
        std::hint::black_box(owner);
        let store = &self.store;
        let before = store.stats();
        let (cached, get_ns) = rec.time("store.get", Some(root), rid, || store.get(&digest, &key));
        let after = store.stats();
        if after.mem_hits > before.mem_hits {
            self.rd.get_mem.push(get_ns);
        } else if after.disk_hits > before.disk_hits {
            self.rd.get_disk.push(get_ns);
        }
        let hit = cached.is_some();
        let result = match cached {
            Some(result) => result,
            None => {
                let (result, ns) = self.execute(root, rid, &op)?;
                self.rd.execute.push(ns);
                if let (Kind::Cold | Kind::Bulk, Some(lat)) = (req.kind, client_ns) {
                    self.rd.queue_wait.push(lat.saturating_sub(ns));
                }
                self.put(root, rid, &digest, &key, &result)?;
                result
            }
        };
        if expected.is_some_and(|e| e != result) {
            self.rd.mismatches += 1;
        }
        let (response, _) = self.rec.time("protocol.render_response", Some(root), rid, || {
            protocol::render_job_response(None, hit, &digest, &result)
        });
        self.rd.response_bytes.push(response.len() as u64);
        self.rec.end(root);
        if !hit && matches!(op, OpRequest::Iterate { .. }) {
            self.engine_phases(rid, &op)?;
        }
        self.rd.client_ns += client_ns.unwrap_or(0);
        Ok(())
    }

    /// One `R̄(R(·))` step of a cold `iterate`, phase by phase.
    fn engine_phases(&mut self, rid: u64, op: &OpRequest) -> Result<(), String> {
        let problem = op.problem().map_err(|e| e.to_string())?.ok_or("iterate has a problem")?;
        let (problem, _) = problem.drop_unused_labels();
        let (rec, engine, rd) = (&mut self.rec, &self.bare, &mut self.rd);
        let root = rec.begin("engine.rr", None, rid);
        let (r, r_ns) = rec.time("engine.r_step", Some(root), rid, || engine.r_step(&problem));
        let r = r.map_err(|e| e.to_string())?;
        let q = &r.problem;
        let (cands, cand_ns) = rec.time("engine.candidates", Some(root), rid, || {
            right_closed_sets(&StrengthOrder::of_constraint(q.node(), q.alphabet().len()))
        });
        let (index, index_ns) =
            rec.time("engine.sub_index", Some(root), rid, || q.node().sub_multiset_index());
        std::hint::black_box(index);
        let (rr, rbar_ns) = rec.time("engine.rbar_step", Some(root), rid, || engine.rbar_step(q));
        let rr = rr.map_err(|e| e.to_string())?;
        rec.end(root);
        rd.r_step.push(r_ns);
        rd.candidates_ns.push(cand_ns);
        rd.sub_index.push(index_ns);
        rd.rbar_step.push(rbar_ns);
        rd.candidates.push(cands.len() as u64);
        rd.rbar_configs.push(rr.problem.node().len() as u64);
        Ok(())
    }

    /// The per-layer metrics, in `BENCHMARK.json` order.
    fn metrics(&self, probes: &Probes) -> Vec<Metric> {
        let rd = &self.rd;
        let times = self_times(&self.rec.spans);
        let self_us =
            |name: &str| times.get(name).map_or(0.0, |&(ns, n)| ns as f64 / n as f64 / 1e3);
        let (b, a) = (self.inp.before, self.inp.after);
        let engine_hits = delta(b, a, &["engine", "cache_hits"]);
        let engine_misses = delta(b, a, &["engine", "cache_misses"]);
        let mem_hits = delta(b, a, &["store", "mem_hits"]);
        let disk_hits = delta(b, a, &["store", "disk_hits"]);
        let misses = delta(b, a, &["store", "misses"]);
        let remote_hits = delta(b, a, &["peer", "remote_hits"]);
        let remote_misses = delta(b, a, &["peer", "remote_misses"]);
        let degraded = delta(b, a, &["peer", "degraded_local"]);
        let (computed_sum, computed_n) = latency_delta(b, a, "computed");
        let max_depth = a.iter().map(|s| leaf(s, &["queue", "max_depth"])).fold(0.0, f64::max);
        let rbar_ms = mean(&rd.rbar_step, 1e6);
        let cand_ms = mean(&rd.candidates_ns, 1e6);
        let index_ms = mean(&rd.sub_index, 1e6);
        let kind_ms = |kind: &str| rd.execute_by_kind.get(kind).map_or(0.0, |v| mean(v, 1e6));
        vec![
            ("client.connect_us", probes.connect_us, "us"),
            ("client.roundtrip_us", probes.roundtrip_us, "us"),
            ("client.keepalive_rtt_ms", probes.keepalive_ms, "ms"),
            ("protocol.parse_us", self_us("protocol.parse"), "us"),
            ("protocol.render_us", self_us("protocol.render_response"), "us"),
            ("protocol.response_bytes", mean(&rd.response_bytes, 1.0), "bytes"),
            ("ops.validate_us", self_us("ops.validate"), "us"),
            ("ops.key_us", self_us("ops.key"), "us"),
            ("ops.execute_ms", mean(&rd.execute, 1e6), "ms"),
            ("ops.execute_ms.iterate", kind_ms("iterate"), "ms"),
            ("ops.execute_ms.zero_round", kind_ms("zero-round"), "ms"),
            ("ops.execute_ms.sweep", kind_ms("sweep"), "ms"),
            ("server.hit_mean_us", probes.server_hit_us, "us"),
            ("server.computed_mean_ms", ratio(computed_sum, computed_n) / 1e6, "ms"),
            ("server.wire_us", probes.client_hit_us - probes.server_hit_us, "us"),
            ("store.get_mem_us", mean(&rd.get_mem, 1e3), "us"),
            ("store.get_disk_us", mean(&rd.get_disk, 1e3), "us"),
            ("store.put_us", mean(&rd.put, 1e3), "us"),
            (
                "store.hit_ratio",
                ratio(mem_hits + disk_hits, mem_hits + disk_hits + misses),
                "ratio",
            ),
            ("store.disk_hit_share", ratio(disk_hits, mem_hits + disk_hits), "ratio"),
            ("store.evictions", delta(b, a, &["store", "evictions"]), "count"),
            ("store.coalesced", delta(b, a, &["store", "coalesced"]), "count"),
            ("queue.wait_ms", mean(&rd.queue_wait, 1e6), "ms"),
            ("queue.max_depth", max_depth, "count"),
            ("queue.aged_promotions", delta(b, a, &["queue", "aged_promotions"]), "count"),
            ("engine.r_step_ms", mean(&rd.r_step, 1e6), "ms"),
            ("engine.candidates_ms", cand_ms, "ms"),
            ("engine.sub_index_ms", index_ms, "ms"),
            ("engine.rbar_step_ms", rbar_ms, "ms"),
            ("engine.rbar_rest_ms", rbar_ms - cand_ms - index_ms, "ms"),
            ("engine.candidates", mean(&rd.candidates, 1.0), "count"),
            ("engine.rbar_configs", mean(&rd.rbar_configs, 1.0), "count"),
            ("engine.cache_hit_ratio", ratio(engine_hits, engine_hits + engine_misses), "ratio"),
            ("lb.sweep_ms", mean(&rd.sweep, 1e6), "ms"),
            ("ring.owner_of_us", self_us("ring.owner_of"), "us"),
            ("fleet.fetch_ms", probes.fetch_ms, "ms"),
            (
                "fleet.remote_hit_ratio",
                ratio(remote_hits, remote_hits + remote_misses + degraded),
                "ratio",
            ),
            ("fleet.fetch_err", delta(b, a, &["peer", "fetch_err"]), "count"),
            ("fleet.degraded_local", degraded, "count"),
            // Executing is engine work but for a parse and a short render.
            (
                "split.engine_pct",
                100.0 * ratio(rd.execute.iter().sum::<u64>() as f64, rd.client_ns as f64),
                "%",
            ),
        ]
    }
}

/// Everything the traced run measured.
pub struct Inputs<'a> {
    /// The workload plan.
    pub plan: &'a Plan,
    /// Working-set references.
    pub refs: &'a References,
    /// The live daemons.
    pub daemons: &'a Daemons,
    /// The traced closed loop.
    pub live: &'a LoopResult,
    /// `status` of every daemon before the window.
    pub before: &'a [Json],
    /// `status` of every daemon after the window.
    pub after: &'a [Json],
    /// Scratch directory for the replay's store.
    pub dir: &'a Path,
    /// Span clock origin.
    pub origin: Instant,
}

/// Replays, probes and diffs; returns the per-layer metrics, the replay
/// spans, and the number of replayed answers that differed from what the
/// daemons served.
pub fn measure(inp: &Inputs<'_>) -> Result<(Vec<Metric>, Vec<Span>, u64), String> {
    let plan = inp.plan;
    let store = if plan.persistent {
        ResultStore::persistent(inp.dir.join("replay-store"), plan.store_capacity)
            .map_err(|e| format!("replay store: {e}"))?
    } else {
        ResultStore::in_memory(plan.store_capacity)
    };
    let mut replay = Replay {
        inp,
        rec: Recorder::new(inp.origin, 100, 400_000),
        rd: Readings::default(),
        engine: Engine::builder().threads(DAEMON_WIDTH).build(),
        bare: Engine::builder().threads(DAEMON_WIDTH).memoize(false).build(),
        store,
    };
    replay.prefill()?;
    replay.window()?;
    let metrics = replay.metrics(&probe(inp)?);
    Ok((metrics, replay.rec.spans, replay.rd.mismatches))
}

struct Probes {
    connect_us: f64,
    roundtrip_us: f64,
    keepalive_ms: f64,
    fetch_ms: f64,
    /// Mean client-side latency of store hits.
    client_hit_us: f64,
    /// Mean server-side latency of the same hits.
    server_hit_us: f64,
}

/// Calls against the live daemons after the window. Hits come from the
/// window when it had any (client- and server-side means over the same
/// requests); otherwise from re-submitting the first request, which the
/// window stored.
fn probe(inp: &Inputs<'_>) -> Result<Probes, String> {
    const ROUNDS: usize = 100;
    let plan = inp.plan;
    let (op, daemon) = match plan.working_set.first() {
        Some(op) => {
            let d = inp.daemons.owner(&op.digest().map_err(|e| e.to_string())?);
            (op.clone(), d)
        }
        None => {
            let first = plan.stream(0).next_req();
            (first.op, first.daemon)
        }
    };
    let client = &inp.daemons.clients[daemon];
    let addr = &inp.daemons.addrs[daemon];

    let mut connect = Vec::new();
    for _ in 0..ROUNDS {
        let t = Instant::now();
        drop(TcpStream::connect(addr).map_err(|e| format!("connect probe: {e}"))?);
        connect.push(t.elapsed().as_nanos() as u64);
    }

    let before = inp.daemons.status()?;
    let mut roundtrip = Vec::new();
    for _ in 0..ROUNDS {
        let t = Instant::now();
        let reply = client.submit(&op, None).map_err(|e| format!("roundtrip probe: {e}"))?;
        roundtrip.push(t.elapsed().as_nanos() as u64);
        if !reply.cached {
            return Err("roundtrip probe missed the store".into());
        }
    }
    let after = inp.daemons.status()?;

    // Later requests on one kept-alive connection.
    let line = format!("{}\n", protocol::render_job_request(&op, None, None));
    let stream = TcpStream::connect(addr).map_err(|e| format!("keep-alive probe: {e}"))?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream);
    let mut keepalive = Vec::new();
    for i in 0..4 {
        let t = Instant::now();
        writer.write_all(line.as_bytes()).map_err(|e| e.to_string())?;
        let mut response = String::new();
        reader.read_line(&mut response).map_err(|e| e.to_string())?;
        if i > 0 {
            keepalive.push(t.elapsed().as_nanos() as u64);
        }
    }
    drop((writer, reader));

    let digest = op.digest().map_err(|e| e.to_string())?;
    let mut fetch = Vec::new();
    for _ in 0..20 {
        let t = Instant::now();
        client.fetch(&digest).map_err(|e| format!("fetch probe: {e}"))?;
        fetch.push(t.elapsed().as_nanos() as u64);
    }

    let warm: Vec<u64> = inp
        .live
        .samples
        .iter()
        .filter(|s| matches!(s.kind, Kind::Warm(_)))
        .map(|s| s.latency_ns)
        .collect();
    let (window_sum, window_n) = latency_delta(inp.before, inp.after, "hit");
    let (client_hit_us, server_hit_us) = if warm.is_empty() || window_n == 0.0 {
        let (sum, n) = latency_delta(&before, &after, "hit");
        (mean(&roundtrip, 1e3), ratio(sum, n) / 1e3)
    } else {
        (mean(&warm, 1e3), window_sum / window_n / 1e3)
    };
    Ok(Probes {
        connect_us: mean(&connect, 1e3),
        roundtrip_us: mean(&roundtrip, 1e3),
        keepalive_ms: mean(&keepalive, 1e6),
        fetch_ms: mean(&fetch, 1e6),
        client_hit_us,
        server_hit_us,
    })
}
