//! Daemons, set-up and the closed loop.

use crate::gen::{Kind, Plan, Workload};
use crate::spans::{Recorder, Span};
use relim_core::Engine;
use relim_json::Json;
use relim_service::client::{Client, JobReply};
use relim_service::ops::OpRequest;
use relim_service::{Ring, Server, ServerConfig, ServerHandle};
use std::net::TcpListener;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Executors per daemon, fixed so the schedule does not depend on the
/// machine's core count.
const EXECUTORS: usize = 2;

/// Engine pool width of every daemon, fixed so a reading does not
/// depend on the machine's core count.
pub const DAEMON_WIDTH: usize = 2;
/// Engine pool width of the in-process check of cold answers: another
/// width than the daemons', so the check also covers width independence.
const CHECK_WIDTH: usize = 3;

/// Running daemons and one shipped `Client` per daemon.
pub struct Daemons {
    handles: Vec<ServerHandle>,
    /// Bound addresses.
    pub addrs: Vec<String>,
    /// One client per daemon.
    pub clients: Vec<Client>,
    /// The fleet's ring (a one-member ring for a single daemon).
    pub ring: Ring,
}

impl Daemons {
    /// Spawns the plan's daemons, persisting under `dir` if the plan
    /// asks for a store directory.
    fn spawn(plan: &Plan, dir: &Path) -> Result<Daemons, String> {
        // A fleet needs every member's address before any member starts:
        // reserve ephemeral ports, release them, bind them again.
        let addrs: Vec<String> = if plan.daemons > 1 {
            let listeners: Vec<TcpListener> = (0..plan.daemons)
                .map(|_| TcpListener::bind("127.0.0.1:0"))
                .collect::<Result<_, _>>()
                .map_err(|e| format!("cannot reserve a port: {e}"))?;
            listeners
                .iter()
                .map(|l| l.local_addr().map(|a| a.to_string()))
                .collect::<Result<_, _>>()
                .map_err(|e| e.to_string())?
        } else {
            vec!["127.0.0.1:0".to_owned()]
        };
        let mut handles = Vec::new();
        for (i, addr) in addrs.iter().enumerate() {
            let peers = if plan.daemons > 1 {
                addrs.iter().filter(|a| *a != addr).cloned().collect()
            } else {
                Vec::new()
            };
            let config = ServerConfig {
                threads: DAEMON_WIDTH,
                executors: EXECUTORS,
                store_dir: plan.persistent.then(|| dir.join(format!("store-{i}"))),
                store_capacity: plan.store_capacity,
                peers,
                ..ServerConfig::default()
            };
            let handle =
                Server::spawn(addr, config).map_err(|e| format!("cannot spawn daemon: {e}"))?;
            handles.push(handle);
        }
        let addrs: Vec<String> = handles.iter().map(|h| h.local_addr().to_string()).collect();
        let clients = addrs.iter().map(|a| Client::new(a.clone())).collect();
        let ring = Ring::new(addrs.iter().cloned());
        Ok(Daemons { handles, addrs, clients, ring })
    }

    /// The daemon that owns `digest` on the ring.
    pub fn owner(&self, digest: &str) -> usize {
        let owner = self.ring.owner_of(digest).expect("ring has members");
        self.addrs.iter().position(|a| a == owner).expect("owner is a member")
    }

    /// Every daemon's `status` counters.
    pub fn status(&self) -> Result<Vec<Json>, String> {
        self.clients.iter().map(|c| c.status().map_err(|e| e.to_string())).collect()
    }

    /// Shuts every daemon down and waits for it.
    pub fn shut_down(self) {
        for handle in &self.handles {
            handle.shutdown();
        }
        for handle in self.handles {
            handle.join();
        }
    }
}

/// The bytes and digest every working-set entry must be served with,
/// computed in-process.
pub struct References {
    /// Result text per working-set index.
    pub results: Vec<String>,
    /// Digest per working-set index.
    pub digests: Vec<String>,
}

impl References {
    /// Executes the working set in-process on a sequential engine.
    pub fn compute(plan: &Plan) -> Result<References, String> {
        let engine = Engine::sequential();
        let mut results = Vec::new();
        let mut digests = Vec::new();
        for op in &plan.working_set {
            results.push(op.execute(&engine).map_err(|e| format!("reference failed: {e}"))?);
            digests.push(op.digest().map_err(|e| e.to_string())?);
        }
        Ok(References { results, digests })
    }
}

/// One set-up: spawn the daemons, prefill the working set (each entry
/// at its ring owner) and wait for every daemon to answer a `ping`.
/// Returns the daemons and the seconds that took.
pub fn set_up(plan: &Plan, refs: &References, dir: &Path) -> Result<(Daemons, f64), String> {
    let start = Instant::now();
    let daemons = Daemons::spawn(plan, dir)?;
    for i in plan.prefill_order() {
        let d = daemons.owner(&refs.digests[i]);
        let reply = daemons.clients[d]
            .submit(&plan.working_set[i], None)
            .map_err(|e| format!("prefill failed: {e}"))?;
        if reply.result != refs.results[i] || reply.digest != refs.digests[i] {
            return Err(format!("prefill entry {i} served other bytes than in-process"));
        }
    }
    for client in &daemons.clients {
        client.ping().map_err(|e| format!("ping after set-up failed: {e}"))?;
    }
    Ok((daemons, start.elapsed().as_secs_f64()))
}

/// How one request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Answered with the expected bytes (so far: cold bytes are checked
    /// after the window).
    Ok,
    /// Refused, or a transport error.
    Error,
    /// Answered with other bytes than the in-process result.
    WrongBytes,
}

/// One sent request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Client-side latency.
    pub latency_ns: u64,
    /// When the answer arrived, in microseconds since the window started.
    pub end_us: u32,
    /// Position in its client's stream.
    pub seq: u32,
    /// What it exercised.
    pub kind: Kind,
    /// Client that sent it.
    pub client: u8,
    /// Its `cold_family` point (`Req::point`).
    pub point: u8,
    /// Whether it was interactive-class.
    pub interactive: bool,
    /// Whether it ran inside a traced block.
    pub traced: bool,
    /// How it ended.
    pub outcome: Outcome,
}

/// A cold answer kept for the check after the window.
pub struct ColdReply {
    /// Index into the samples.
    pub sample: usize,
    /// The request.
    pub op: OpRequest,
    /// What was served.
    pub reply: JobReply,
}

/// What the closed loop produced.
pub struct LoopResult {
    /// Every request, all clients.
    pub samples: Vec<Sample>,
    /// Cold answers awaiting the in-process check.
    pub cold: Vec<ColdReply>,
    /// Error messages of failed requests, by sample index.
    pub errors: Vec<(usize, String)>,
    /// Requests sent per client.
    pub sent: Vec<u64>,
    /// Wall time of the window.
    pub elapsed_s: f64,
    /// Spans of the traced blocks.
    pub spans: Vec<Span>,
    /// Spans dropped because a recorder was full.
    pub dropped_spans: u64,
}

/// Requests per traced/untraced block in a traced run: blocks alternate,
/// and the latency difference between them is the tracing overhead.
/// A `cold_family` block is one round; a `fleet_mixed` block is two
/// duplicate periods.
fn trace_block(plan: &Plan) -> u64 {
    match plan.workload {
        Workload::ColdFamily => crate::gen::cold_points().len() as u64,
        _ => 2 * crate::gen::DUP_EVERY,
    }
}

const SPANS_PER_CLIENT: usize = 10_000;

/// Samples one client records at most without growing its buffer: more
/// than a 30-second window produces.
fn sample_capacity(plan: &Plan) -> usize {
    match plan.workload {
        Workload::ColdFamily => 1 << 10,
        Workload::WarmZipf => 1 << 18,
        Workload::FleetMixed => 1 << 14,
    }
}

/// An empty buffer whose `capacity` samples are already resident, so
/// `peak_rss_mb` does not move with the number of requests a window
/// happens to complete.
fn presized(capacity: usize) -> Vec<Sample> {
    let blank = Sample {
        latency_ns: 0,
        end_us: 0,
        seq: 0,
        kind: Kind::Cold,
        client: 0,
        point: 0,
        interactive: false,
        traced: false,
        outcome: Outcome::Ok,
    };
    let mut samples = vec![blank; capacity];
    samples.clear();
    samples
}

/// Runs the closed loop: each client sends its next request only after
/// the previous one was answered, until `seconds` have passed and the
/// client is at a point where its stream may stop.
pub fn closed_loop(
    plan: &Plan,
    daemons: &Daemons,
    refs: &References,
    seconds: f64,
    traced: bool,
    origin: Instant,
) -> LoopResult {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let barrier = Barrier::new(plan.clients);
    let stop = AtomicBool::new(false);
    type ClientLog = (Vec<Sample>, Vec<ColdReply>, Vec<(usize, String)>, Instant, Recorder);
    let per_client: Vec<ClientLog> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..plan.clients)
            .map(|client| {
                let (barrier, stop) = (&barrier, &stop);
                scope.spawn(move || {
                    let mut recorder = Recorder::new(origin, client as u32 + 1, SPANS_PER_CLIENT);
                    let mut stream = plan.stream(client);
                    let mut samples = presized(sample_capacity(plan));
                    let mut cold = Vec::new();
                    let mut errors = Vec::new();
                    let mut seq = 0u64;
                    loop {
                        if stream.at_boundary() {
                            if plan.clients > 1 && plan.workload == Workload::FleetMixed {
                                // Both clients meet here and stop
                                // together, so neither waits for a
                                // duplicate partner that left.
                                if barrier.wait().is_leader() {
                                    stop.store(Instant::now() >= deadline, Ordering::SeqCst);
                                }
                                barrier.wait();
                                if stop.load(Ordering::SeqCst) {
                                    break;
                                }
                            } else if Instant::now() >= deadline {
                                break;
                            }
                        }
                        let req = stream.next_req();
                        let in_block = traced && (seq / trace_block(plan)) % 2 == 1;
                        let root = in_block
                            .then(|| recorder.begin("request", None, request_id(client, seq)));
                        let submit = root.map(|r| {
                            recorder.begin("client.submit", Some(r), request_id(client, seq))
                        });
                        let t = Instant::now();
                        let reply = daemons.clients[req.daemon].submit(&req.op, req.class);
                        let latency_ns = t.elapsed().as_nanos() as u64;
                        if let (Some(s), Some(r)) = (submit, root) {
                            recorder.end(s);
                            recorder.end(r);
                        }
                        let end_us = (Instant::now() - start).as_micros() as u32;
                        let outcome = match (&reply, req.kind) {
                            (Err(e), _) => {
                                errors.push((samples.len(), e.to_string()));
                                Outcome::Error
                            }
                            (Ok(r), Kind::Warm(i)) => {
                                let i = i as usize;
                                if r.result == refs.results[i] && r.digest == refs.digests[i] {
                                    Outcome::Ok
                                } else {
                                    Outcome::WrongBytes
                                }
                            }
                            (Ok(_), _) => Outcome::Ok,
                        };
                        if let (Ok(reply), Kind::Cold | Kind::Bulk | Kind::Dup) = (reply, req.kind)
                        {
                            cold.push(ColdReply {
                                sample: samples.len(),
                                op: req.op.clone(),
                                reply,
                            });
                        }
                        samples.push(Sample {
                            latency_ns,
                            end_us,
                            seq: seq as u32,
                            kind: req.kind,
                            client: client as u8,
                            point: req.point,
                            interactive: req.interactive(),
                            traced: in_block,
                            outcome,
                        });
                        seq += 1;
                    }
                    (samples, cold, errors, Instant::now(), recorder)
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("client thread panicked")).collect()
    });
    let mut result = LoopResult {
        samples: Vec::new(),
        cold: Vec::new(),
        errors: Vec::new(),
        sent: Vec::new(),
        elapsed_s: 0.0,
        spans: Vec::new(),
        dropped_spans: 0,
    };
    for (samples, cold, errors, finished, recorder) in per_client {
        let offset = result.samples.len();
        result.sent.push(samples.len() as u64);
        result.samples.extend(samples);
        result.cold.extend(cold.into_iter().map(|c| ColdReply { sample: c.sample + offset, ..c }));
        result.errors.extend(errors.into_iter().map(|(i, e)| (i + offset, e)));
        result.elapsed_s = result.elapsed_s.max((finished - start).as_secs_f64());
        result.spans.extend(recorder.spans);
        result.dropped_spans += recorder.dropped;
    }
    result
}

/// The tracing overhead of a traced run in percent: the median latency
/// of traced blocks over that of untraced blocks, minus one. Compared
/// over warm requests where the workload has them (their latency is
/// nearly constant) and over every request otherwise; the first two
/// blocks are warm-up and left out.
pub fn tracing_overhead_pct(plan: &Plan, samples: &[Sample]) -> f64 {
    let has_warm = samples.iter().any(|s| matches!(s.kind, Kind::Warm(_)));
    let latencies = |traced: bool| -> Vec<f64> {
        samples
            .iter()
            .filter(|s| s.outcome == Outcome::Ok && s.traced == traced)
            .filter(|s| u64::from(s.seq) >= 2 * trace_block(plan))
            .filter(|s| !has_warm || matches!(s.kind, Kind::Warm(_)))
            .map(|s| s.latency_ns as f64)
            .collect()
    };
    let (on, off) = (latencies(true), latencies(false));
    if on.is_empty() || off.is_empty() {
        return 0.0;
    }
    100.0 * (median(&on) / median(&off) - 1.0)
}

/// A run-wide request id: client in the top bits, stream position below.
pub fn request_id(client: usize, seq: u64) -> u64 {
    ((client as u64) << 40) | seq
}

/// Checks every cold answer against an in-process `OpRequest::execute`
/// at another engine width than the daemons', marking mismatches: the
/// digest against the request's own, the result against that of the
/// untagged request (`gen::untagged`). Each distinct untagged request is
/// executed once, so the check costs a few seconds whatever the window.
pub fn check_cold(result: &mut LoopResult) {
    let engine = Engine::builder().threads(CHECK_WIDTH).build();
    let mut expected: std::collections::HashMap<String, Result<String, String>> =
        std::collections::HashMap::new();
    for cold in &result.cold {
        let reference = crate::gen::untagged(&cold.op);
        let key = reference.canonical_key().unwrap_or_default();
        let want = expected
            .entry(key)
            .or_insert_with(|| reference.execute(&engine).map_err(|e| e.to_string()));
        let digest_ok = cold.op.digest().is_ok_and(|d| d == cold.reply.digest);
        let sample = &mut result.samples[cold.sample];
        if want.as_ref() != Ok(&cold.reply.result) || !digest_ok {
            sample.outcome = Outcome::WrongBytes;
        }
    }
}

/// The end-to-end timings of a window, robust to the shared host, which
/// runs the same work up to 1.5× slower for seconds at a time.
///
/// `cold_family`: one client visits every point once per round, so the
/// window's latencies mix 15 per-point distributions in equal parts.
/// Each point is summarised by its fast quartile (25th percentile);
/// p50 and p90 are taken over those 15 values, and throughput is 15
/// over their sum: a closed-loop client completes one request per
/// latency. Summarising per point first keeps a slow phase from
/// swapping which point's latency lands on the median.
///
/// `warm_zipf` and `fleet_mixed`: the window is cut into segments of
/// 100 ms (about a thousand requests) or one second (a few hundred); a
/// partial last segment is left out. Each timing is the fast quartile
/// of its per-segment values: the 75th percentile of throughputs and
/// the 25th percentile of latencies.
///
/// Either way the fast quartile tracks the program, not how much of a
/// window the host's slow phases covered.
pub struct Timings {
    /// Completed requests per second.
    pub throughput_rps: f64,
    /// Median latency.
    pub p50_ms: f64,
    /// 90th-percentile latency.
    pub p90_ms: f64,
    /// 90th-percentile latency of interactive-class requests.
    pub interactive_p90_ms: f64,
    /// What the quartiles are taken over, for the run's summary line.
    pub basis: String,
}

/// Latencies in milliseconds, sorted.
fn sorted_ms<'a>(samples: impl Iterator<Item = &'a Sample>) -> Vec<f64> {
    let mut v: Vec<f64> = samples.map(|s| s.latency_ns as f64 / 1e6).collect();
    v.sort_by(f64::total_cmp);
    v
}

impl Timings {
    /// The timings of `result`'s successful requests.
    pub fn of(plan: &Plan, result: &LoopResult) -> Timings {
        let ok = result.samples.iter().filter(|s| s.outcome == Outcome::Ok);
        match plan.workload {
            Workload::ColdFamily => Timings::per_point(ok),
            Workload::WarmZipf => Timings::per_segment(ok, result.elapsed_s, 100_000),
            Workload::FleetMixed => Timings::per_segment(ok, result.elapsed_s, 1_000_000),
        }
    }

    fn per_point<'a>(samples: impl Iterator<Item = &'a Sample>) -> Timings {
        let mut points: std::collections::BTreeMap<u8, Vec<&Sample>> = Default::default();
        for s in samples {
            points.entry(s.point).or_default().push(s);
        }
        let rounds = points.values().map(Vec::len).min().unwrap_or(0);
        let mut fast: Vec<f64> =
            points.values().map(|v| percentile(&sorted_ms(v.iter().copied()), 0.25)).collect();
        fast.sort_by(f64::total_cmp);
        let p90 = percentile(&fast, 0.9);
        Timings {
            throughput_rps: 1e3 * fast.len() as f64 / fast.iter().sum::<f64>(),
            p50_ms: percentile(&fast, 0.5),
            p90_ms: p90,
            interactive_p90_ms: p90,
            basis: format!("per-point fast quartiles over {rounds} rounds"),
        }
    }

    fn per_segment<'a>(
        samples: impl Iterator<Item = &'a Sample>,
        elapsed_s: f64,
        segment_us: u64,
    ) -> Timings {
        let full_segments = (elapsed_s * 1e6) as u64 / segment_us;
        let mut segments: std::collections::BTreeMap<u64, Vec<&Sample>> = Default::default();
        for s in samples {
            let key = u64::from(s.end_us) / segment_us;
            if key < full_segments {
                segments.entry(key).or_default().push(s);
            }
        }
        let (mut rps, mut p50, mut p90, mut ip90) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for samples in segments.values() {
            rps.push(samples.len() as f64 / (segment_us as f64 / 1e6));
            let all = sorted_ms(samples.iter().copied());
            let interactive = sorted_ms(samples.iter().copied().filter(|s| s.interactive));
            p50.push(percentile(&all, 0.5));
            p90.push(percentile(&all, 0.9));
            if !interactive.is_empty() {
                ip90.push(percentile(&interactive, 0.9));
            }
        }
        Timings {
            throughput_rps: quantile(&rps, 0.75),
            p50_ms: quantile(&p50, 0.25),
            p90_ms: quantile(&p90, 0.25),
            interactive_p90_ms: quantile(&ip90, 0.25),
            basis: format!("fast quartiles over {} segments", segments.len()),
        }
    }
}

/// Linear-interpolation percentile of `sorted` (`q` in `[0, 1]`).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The `q` quantile of unsorted values.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, q)
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::delta;

    #[test]
    fn fleet_mixed_reads_through_peers_and_coalesces_duplicates() {
        let plan = Plan::new(Workload::FleetMixed, 1);
        assert!(!plan.persistent, "the fleet keeps its stores in memory");
        let refs = References::compute(&plan).expect("references");
        let (daemons, _) = set_up(&plan, &refs, Path::new("unused")).expect("set-up");
        let before = daemons.status().expect("status");
        let mut live = closed_loop(&plan, &daemons, &refs, 1.5, false, Instant::now());
        let after = daemons.status().expect("status");
        daemons.shut_down();
        check_cold(&mut live);
        assert!(live.samples.iter().all(|s| s.outcome == Outcome::Ok), "{:?}", live.errors);
        assert!(live.samples.iter().any(|s| s.kind == Kind::Dup));
        let remote_hits = delta(&before, &after, &["peer", "remote_hits"]);
        let coalesced = delta(&before, &after, &["store", "coalesced"]);
        assert!(remote_hits > 0.0, "no peer read-through served a hit");
        assert!(coalesced > 0.0, "no duplicate coalesced");
    }

    #[test]
    fn percentiles_interpolate() {
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.5);
        assert_eq!(percentile(&[5.0], 0.9), 5.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
