//! The daemon: a thread-per-connection TCP server around one shared
//! [`Engine`] and one [`ResultStore`].
//!
//! ## Concurrency architecture
//!
//! * Every **connection thread** accepts its own connection: idle
//!   threads block in `accept` on the shared listener, and the one the
//!   kernel wakes serves the connection it accepted (the protocol is
//!   blocking line-at-a-time, so a thread per connection is the simplest
//!   correct shape; the expensive work never happens on these threads).
//!   No thread stands between the listener and the reader of a request,
//!   so a connection costs one wake-up.
//! * One atomic counts the threads in `accept`. A thread whose accept
//!   leaves none accepting spawns a successor before it serves. After
//!   serving, a thread accepts again unless `IDLE_CONNECTION_THREADS` (4)
//!   are accepting already, in which case it exits. So a client that
//!   connects once per request (the shipped `Client`, the fleet's peer
//!   calls) does not pay a thread create and exit per request. If the OS
//!   refuses the successor, the refusal is counted in `errors` and the
//!   accepted connection is still served; its thread accepts again
//!   afterwards.
//! * Connection threads parse requests. A job request is **prepared**
//!   by that parse ([`crate::ops::Prepared`]): its problem text is
//!   parsed once, and the resulting key and digest drive the store
//!   read, the coalescing claim, the fleet read-through and the
//!   executor. Store **hits are served inline** — a cached
//!   certificate never waits behind the queue.
//!   Misses claim the store's in-flight table: the first identical
//!   request becomes the *owner* and is enqueued as a job; later
//!   identical requests attach as **coalesced waiters** on the owner's
//!   result instead of recomputing. The connection thread blocks on a
//!   per-job (or per-waiter) reply channel either way.
//! * A pool of **executor threads** (`ServerConfig::executors`, default
//!   `min(4, available parallelism)`) drains the [`JobQueue`]
//!   (interactive before bulk, with aging — see [`crate::queue`]) into
//!   the shared `Engine`. Executors share the engine's
//!   sub-multiset index cache, so concurrent jobs reuse each other's
//!   memo state; served bytes are identical at any executor count
//!   because every cache hit is byte-identical to a rebuild and every
//!   result is canonical.
//! * **Graceful shutdown**: a `shutdown` request flips the flag, wakes
//!   the executors, takes the listener from the shared state and wakes
//!   every thread counted in `accept` with a throwaway connection; each
//!   closes what it accepted unserved and exits, and the listener
//!   closes with the last of them. New jobs are refused (checked under
//!   the queue lock, so no job is ever lost in the race), already-queued
//!   jobs are drained and answered — waiters included — then every
//!   thread exits and [`ServerHandle::join`] returns.
//!
//! An identical query that misses both the store and the coalescing
//! window (the owner completed between this request's store lookup and
//! its claim) recomputes — and computes the same canonical bytes, so
//! the overwriting store write is harmless. Coalescing is a throughput
//! optimization on top of idempotence, not a correctness mechanism.
//!
//! ## Observability
//!
//! Every job request records its wall time, from the start of its
//! request parse to its response, into a per-op × per-outcome
//! **latency histogram** (power-of-two buckets, see
//! [`crate::metrics::LatencyHistogram`]) exposed under
//! `counters.latency.<op>.<outcome>` and derived into a Prometheus
//! histogram family by the metrics endpoint. A job or fetch request
//! that carries a trace context additionally records **request spans**
//! — parse, store-read, queue-wait, compute (with engine counter deltas
//! attached), store-write, peer-fetch attempts and fetch serves — into
//! the daemon's bounded [`SpanLog`], served by the `trace` op (see
//! [`crate::trace`]). Tracing never changes a served byte: trace context
//! rides in requests only, responses are identical traced or not, and
//! for an untraced request every recording site is one branch on a
//! `None`.

use crate::fleet::{self, FetchOutcome, Fleet};
use crate::metrics::LatencyHistogram;
use crate::ops::{OpRequest, Prepared};
use crate::protocol::{self, PingInfo, Request, RequestBody};
use crate::queue::{Class, JobQueue, DEFAULT_AGING_LIMIT};
use crate::store::{InflightClaim, ResultStore};
use crate::trace::{SpanLog, TraceContext, Tracer, DEFAULT_SPAN_CAPACITY};
use crate::wire;
use relim_core::Engine;
use relim_json::Json;
use std::io::{BufRead, BufReader, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Configuration of a daemon instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Engine pool width (0 = available parallelism). Output bytes never
    /// depend on this.
    pub threads: usize,
    /// Executor threads draining the job queue (0 = `min(4, available
    /// parallelism)`). Output bytes never depend on this either — the
    /// concurrency test battery and the CI multi-executor smoke pin it.
    pub executors: usize,
    /// Directory of the persistent store; `None` keeps results in
    /// memory only.
    pub store_dir: Option<PathBuf>,
    /// In-memory store bound (see [`ResultStore`]).
    pub store_capacity: usize,
    /// Disk byte budget of the persistent store; `None` leaves the disk
    /// layer unbounded (see [`ResultStore::persistent_with_budget`]).
    pub store_budget_bytes: Option<u64>,
    /// Aging limit of the bulk class (see [`crate::queue`]).
    pub aging_limit: u32,
    /// Fleet peer addresses (`host:port`), excluding this daemon; empty
    /// means no fleet tier. Every member must be configured with the
    /// same total member set (its peers plus itself), spelled
    /// identically — see [`crate::fleet`].
    pub peers: Vec<String>,
    /// Per-attempt connect/read/write timeout of peer calls, in
    /// milliseconds.
    pub peer_timeout_ms: u64,
}

/// The default per-attempt peer-call timeout (`--peer-timeout-ms`).
pub const DEFAULT_PEER_TIMEOUT_MS: u64 = 2000;

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            threads: 0,
            executors: 0,
            store_dir: None,
            store_capacity: 1024,
            store_budget_bytes: None,
            aging_limit: DEFAULT_AGING_LIMIT,
            peers: Vec::new(),
            peer_timeout_ms: DEFAULT_PEER_TIMEOUT_MS,
        }
    }
}

/// The most executor threads a daemon starts, as `relim_pool::MAX_WORKERS`
/// bounds the engine's workers: [`Server::spawn`] refuses a larger
/// [`ServerConfig::executors`].
pub const MAX_EXECUTORS: usize = 64;

/// The executor-pool width `configured` resolves to: `0` means
/// `min(4, available parallelism)` — wide enough to overlap queue waits,
/// narrow enough not to oversubscribe the engine's worker pool.
pub fn resolve_executors(configured: usize) -> usize {
    if configured == 0 {
        Engine::available_parallelism().min(4)
    } else {
        configured
    }
}

/// One queued unit of work.
struct Job {
    op: OpRequest,
    /// The request's parsed problem, key and digest, from the wire parse.
    prepared: Prepared,
    reply: mpsc::Sender<Result<String, String>>,
    /// When the owning request was traced: the position under its root
    /// span, and when the job entered the queue on the span-log clock.
    /// The executor records queue-wait, compute and store-write there.
    trace: Option<(TraceContext, u64)>,
}

/// The counted request kinds in counters-tree spelling and key order:
/// the job ops in [`OPS`](crate::ops::OPS) row order, then the admin ops
/// (`shutdown` is not counted).
/// The job ops are also the rows of `store_hits` and of the latency
/// grid, so exposition names line up.
const OP_NAMES: [&str; 10] = [
    "autolb",
    "autoub",
    "iterate",
    "sweep",
    "zero_round",
    "status",
    "metrics",
    "fetch",
    "ping",
    "trace",
];

/// How many leading [`OP_NAMES`] are job ops.
const JOB_OPS: usize = crate::ops::OPS.len();

/// The [`OP_NAMES`] slot a request counts under (`None` for shutdown).
fn op_slot(body: &RequestBody) -> Option<usize> {
    Some(match body {
        RequestBody::Job { op, .. } => op.slot(),
        RequestBody::Status => 5,
        RequestBody::Metrics => 6,
        RequestBody::Fetch { .. } => 7,
        RequestBody::Ping => 8,
        RequestBody::Trace { .. } => 9,
        RequestBody::Shutdown => return None,
    })
}

/// A counters object pairing each name with its counter, in order.
fn counts_json(names: &[&str], counts: &[AtomicU64]) -> Json {
    let pairs = names.iter().zip(counts);
    Json::Obj(
        pairs
            .map(|(n, c)| ((*n).to_owned(), Json::Int(c.load(Ordering::Relaxed) as i64)))
            .collect(),
    )
}

/// Per-op × per-outcome latency histograms: every job request records
/// into exactly one cell, so the cells partition the traffic. Each
/// cell is a power-of-two-bucketed [`LatencyHistogram`] the metrics
/// endpoint derives into a Prometheus histogram family.
#[derive(Default)]
struct LatencyGrid {
    cells: [[LatencyHistogram; 3]; JOB_OPS],
}

impl LatencyGrid {
    fn record(&self, op: usize, outcome: Outcome, ns: u64) {
        self.cells[op][outcome as usize].record(ns);
    }

    fn json(&self) -> Json {
        let row = |cells: &[LatencyHistogram; 3]| {
            let cell = |o: Outcome| (o.as_str().to_owned(), cells[o as usize].json());
            Json::Obj(Outcome::ALL.into_iter().map(cell).collect())
        };
        let rows = OP_NAMES[..JOB_OPS].iter().zip(&self.cells);
        Json::Obj(rows.map(|(n, c)| ((*n).to_owned(), row(c))).collect())
    }
}

/// How a job request left `handle_line` — the latency cell it lands in.
#[derive(Clone, Copy)]
enum Outcome {
    /// Served from the content-addressed store, inline.
    Hit = 0,
    /// Computed (or coalesced onto a computation) via the queue.
    Computed = 1,
    /// Any error exit: bad parameters, refused enqueue, failed or
    /// panicked execution, a dead executor.
    Error = 2,
}

impl Outcome {
    /// Every outcome, in latency-grid column order.
    const ALL: [Outcome; 3] = [Outcome::Hit, Outcome::Computed, Outcome::Error];

    /// The spelling of the latency-grid key and of the root span's
    /// `outcome` attribute.
    fn as_str(self) -> &'static str {
        match self {
            Outcome::Hit => "hit",
            Outcome::Computed => "computed",
            Outcome::Error => "error",
        }
    }
}

/// Shared state behind the daemon's threads.
struct Shared {
    engine: Engine,
    store: ResultStore,
    /// The address this daemon bound — stamps trace dumps so a merged
    /// cross-daemon tree can attribute every span, and is where shutdown
    /// sends the connections that wake threads blocked in `accept`.
    addr: SocketAddr,
    /// The listener, until shutdown takes it. Connection threads clone it
    /// for each `accept`, so it closes once the last of them returns.
    listener: Mutex<Option<Arc<TcpListener>>>,
    /// Connection threads registered to accept (see
    /// [`connection_thread`]). A thread holds a clone of the listener
    /// only while registered.
    acceptors: AtomicUsize,
    /// Signalled under the `listener` lock when shutdown takes the
    /// listener and when `acceptors` drops to zero: with both, the
    /// listener is closed ([`ServerHandle::join_and_report`] waits on it).
    acceptors_drained: Condvar,
    /// The daemon's one bounded log: traced requests record their spans
    /// into it, untraced ones nothing.
    spans: SpanLog,
    /// The fleet tier, when `--peers` was given: remote owners are read
    /// through before local compute (see [`crate::fleet`]).
    fleet: Option<Fleet>,
    queue: Mutex<JobQueue<Job>>,
    cv: Condvar,
    shutdown: AtomicBool,
    /// When the daemon started — the `uptime_ms` a ping reports.
    started: Instant,
    /// Resolved executor-pool width (for the status response).
    executors: usize,
    /// Accepted connections not yet closed — waited for (bounded) at
    /// shutdown so a response write never races process exit.
    active_connections: AtomicU64,
    requests_total: AtomicU64,
    /// Requests by kind, indexed like [`OP_NAMES`].
    ops: [AtomicU64; OP_NAMES.len()],
    errors: AtomicU64,
    /// Connections dropped mid-line (a torn peer write): the partial
    /// frame is discarded, counted, never parsed.
    torn_lines: AtomicU64,
    /// Inline store hits by job op (the first [`JOB_OPS`] slots) —
    /// distinguishes queue-served results from cached ones, which the
    /// aggregate `ops` counters cannot.
    store_hits: [AtomicU64; JOB_OPS],
    /// Per-op × per-outcome latency histograms (see [`LatencyGrid`]).
    latency: LatencyGrid,
}

impl Shared {
    /// The `counters` object of a status response.
    fn counters_json(&self) -> Json {
        let store = self.store.stats();
        let (promotions, max_depth, pending, aging_limit) = {
            let q = self.queue.lock().expect("queue lock poisoned");
            (q.promotions(), q.max_depth(), q.len(), q.aging_limit())
        };
        let (spans_recorded, spans_dropped) = self.spans.stats();
        let engine_report = self.engine.report();
        let engine_pairs: Vec<(String, Json)> = engine_report
            .snapshot_pairs()
            .into_iter()
            .map(|(k, v)| (k.to_owned(), Json::Int(v as i64)))
            .collect();
        Json::Obj(
            vec![
                (
                    "requests_total".into(),
                    Json::Int(self.requests_total.load(Ordering::Relaxed) as i64),
                ),
                ("ops".into(), counts_json(&OP_NAMES, &self.ops)),
                ("errors".into(), Json::Int(self.errors.load(Ordering::Relaxed) as i64)),
                ("torn_lines".into(), Json::Int(self.torn_lines.load(Ordering::Relaxed) as i64)),
                ("store_hits".into(), counts_json(&OP_NAMES[..JOB_OPS], &self.store_hits)),
                (
                    "store".into(),
                    Json::Obj(vec![
                        ("mem_hits".into(), Json::Int(store.mem_hits as i64)),
                        ("disk_hits".into(), Json::Int(store.disk_hits as i64)),
                        ("misses".into(), Json::Int(store.misses as i64)),
                        ("stores".into(), Json::Int(store.stores as i64)),
                        ("evictions".into(), Json::Int(store.evictions as i64)),
                        ("corrupt_skipped".into(), Json::Int(store.corrupt_skipped as i64)),
                        ("coalesced".into(), Json::Int(store.coalesced as i64)),
                        ("gc_evictions".into(), Json::Int(store.gc_evictions as i64)),
                        ("tmp_swept".into(), Json::Int(store.tmp_swept as i64)),
                        ("disk_bytes".into(), Json::Int(store.disk_bytes as i64)),
                        ("mem_entries".into(), Json::Int(store.mem_entries as i64)),
                        ("persistent".into(), Json::Bool(self.store.is_persistent())),
                    ]),
                ),
                (
                    "queue".into(),
                    Json::Obj(vec![
                        ("pending".into(), Json::Int(pending as i64)),
                        ("max_depth".into(), Json::Int(max_depth as i64)),
                        ("aged_promotions".into(), Json::Int(promotions as i64)),
                        ("aging_limit".into(), Json::Int(i64::from(aging_limit))),
                    ]),
                ),
                ("latency".into(), self.latency.json()),
                (
                    "trace".into(),
                    Json::Obj(vec![
                        ("recorded".into(), Json::Int(spans_recorded as i64)),
                        ("dropped".into(), Json::Int(spans_dropped as i64)),
                        ("window".into(), Json::Int(self.spans.capacity() as i64)),
                    ]),
                ),
                (
                    // Always present, zeros without a fleet: the scrape
                    // surface is identical with and without `--peers`.
                    "peer".into(),
                    match &self.fleet {
                        Some(fleet) => fleet.counters_json(),
                        None => fleet::zero_counters_json(),
                    },
                ),
                ("engine".into(), Json::Obj(engine_pairs)),
                ("threads".into(), Json::Int(self.engine.threads() as i64)),
                ("executors".into(), Json::Int(self.executors as i64)),
            ]
            .into_iter()
            .chain(
                // Per-peer counters only exist when a fleet is configured.
                self.fleet.as_ref().map(|fleet| ("peers".to_owned(), fleet.per_peer_json())),
            )
            .collect::<Vec<_>>(),
        )
    }
}

/// The daemon entry point (see [`Server::spawn`]).
pub struct Server;

/// A handle on a running daemon: its bound address, a shutdown trigger
/// and the join point.
pub struct ServerHandle {
    shared: Arc<Shared>,
    executors: Vec<JoinHandle<()>>,
    /// The breaker-recovery prober — spawned only with a fleet.
    prober: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// spawns the first connection thread and the executor pool.
    ///
    /// # Errors
    ///
    /// Returns `InvalidInput`, before binding, when `config.executors`
    /// exceeds [`MAX_EXECUTORS`]. Propagates bind, store-directory and
    /// thread-spawn failures; after a refused spawn the threads already
    /// started are shut down and joined first.
    pub fn spawn(addr: &str, config: ServerConfig) -> std::io::Result<ServerHandle> {
        if config.executors > MAX_EXECUTORS {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("{} executors exceed the limit of {MAX_EXECUTORS}", config.executors),
            ));
        }
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let store = match &config.store_dir {
            Some(dir) => ResultStore::persistent_with_budget(
                dir,
                config.store_capacity,
                config.store_budget_bytes,
            )?,
            None => ResultStore::in_memory(config.store_capacity),
        };
        let executors = resolve_executors(config.executors);
        // The daemon's own ring name is the address it actually bound —
        // fleet members must bind the very address their peers dial
        // (the CLI's `--addr`), so the spellings agree by construction.
        let fleet = if config.peers.is_empty() {
            None
        } else {
            Some(Fleet::new(
                &config.peers,
                addr.to_string(),
                Duration::from_millis(config.peer_timeout_ms.max(1)),
            ))
        };
        let shared = Arc::new(Shared {
            engine: Engine::builder().threads(config.threads).build(),
            store,
            addr,
            listener: Mutex::new(Some(Arc::new(listener))),
            acceptors: AtomicUsize::new(0),
            acceptors_drained: Condvar::new(),
            spans: SpanLog::new(DEFAULT_SPAN_CAPACITY),
            fleet,
            queue: Mutex::new(JobQueue::new(config.aging_limit)),
            cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
            executors,
            active_connections: AtomicU64::new(0),
            requests_total: AtomicU64::new(0),
            ops: Default::default(),
            errors: AtomicU64::new(0),
            torn_lines: AtomicU64::new(0),
            store_hits: Default::default(),
            latency: LatencyGrid::default(),
        });

        // First, so a refused spawn leaves no other thread behind.
        spawn_thread(&shared, connection_thread)?;
        let mut handle = ServerHandle { shared, executors: Vec::new(), prober: None };
        if let Err(e) = handle.start_workers(executors) {
            handle.shutdown();
            handle.join();
            return Err(e);
        }
        Ok(handle)
    }
}

/// How often the background prober wakes to scan for Open breakers due
/// a recovery dial (the dial itself is gated by the breaker cooldown).
const PROBE_INTERVAL_MS: u64 = 100;

fn prober_loop(shared: &Arc<Shared>) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        if let Some(fleet) = &shared.fleet {
            fleet.probe_open_breakers();
        }
        std::thread::sleep(Duration::from_millis(PROBE_INTERVAL_MS));
    }
}

impl ServerHandle {
    /// Starts `executors` executor threads and, with a fleet, the prober,
    /// stopping at the first thread the OS refuses.
    fn start_workers(&mut self, executors: usize) -> std::io::Result<()> {
        for _ in 0..executors {
            self.executors.push(spawn_thread(&self.shared, executor_loop)?);
        }
        // A fleet gets a background prober: Open breakers are re-dialed
        // from here once their cooldown elapses, so recovery never rides
        // on (or delays) a live request — see `Fleet::probe_open_breakers`.
        if self.shared.fleet.is_some() {
            self.prober = Some(spawn_thread(&self.shared, prober_loop)?);
        }
        Ok(())
    }

    /// The address the daemon actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Triggers a graceful shutdown from the hosting process (the wire
    /// `shutdown` request does the same).
    pub fn shutdown(&self) {
        trigger_shutdown(&self.shared);
    }

    /// The current counters (same content as a `status` response).
    pub fn counters(&self) -> Json {
        self.shared.counters_json()
    }

    /// Waits for every executor to exit and the listener to close (after
    /// a shutdown trigger; the queue is drained first).
    pub fn join(self) {
        let _ = self.join_and_report();
    }

    /// Like [`ServerHandle::join`], but returns the final counters —
    /// snapshotted *after* the queue drained, so the numbers cover every
    /// served job.
    pub fn join_and_report(self) -> Json {
        let shared = Arc::clone(&self.shared);
        for executor in self.executors {
            let _ = executor.join();
        }
        if let Some(prober) = self.prober {
            let _ = prober.join();
        }
        // Once shutdown took the listener and no thread is registered to
        // accept, no clone of it is left: it is closed, and new clients
        // are refused outright instead of hanging on an unserved
        // connection.
        let mut listener = shared.listener.lock().expect("listener lock poisoned");
        while listener.is_some() || shared.acceptors.load(Ordering::SeqCst) > 0 {
            listener = shared.acceptors_drained.wait(listener).expect("listener lock poisoned");
        }
        drop(listener);
        // Give open connections a bounded window to finish writing their
        // final responses (their threads are detached; without this the
        // hosting process could exit mid-write). Every connection
        // accepted for serving is counted by now.
        for _ in 0..500 {
            if shared.active_connections.load(Ordering::SeqCst) == 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        shared.counters_json()
    }
}

fn trigger_shutdown(shared: &Shared) {
    shared.shutdown.store(true, Ordering::SeqCst);
    shared.cv.notify_all();
    // A connection thread registers in `acceptors` before it clones the
    // listener under this lock. So one that cloned it is counted by the
    // load below, and one that looks after the take finds it gone.
    {
        let mut listener = shared.listener.lock().expect("listener lock poisoned");
        *listener = None;
        shared.acceptors_drained.notify_all();
    }
    // One throwaway connection per counted thread: each `accept`
    // returns, and its thread exits on finding the listener gone.
    for _ in 0..shared.acceptors.load(Ordering::SeqCst) {
        let _ = TcpStream::connect(shared.addr);
    }
}

/// How many connection threads may wait in `accept` between
/// connections. The steady load of a daemon is a few clients, each
/// holding one connection at a time, plus the fleet's peer reads; four
/// waiting threads cover that (the benchmark's fleet runs two clients
/// against two daemons). A waiting thread costs its stack's touched
/// pages, so the cap keeps idle memory fixed: a burst beyond it spawns
/// a thread each time an accept leaves nobody accepting, and a thread
/// that finishes while the cap is full exits instead of accepting again.
const IDLE_CONNECTION_THREADS: usize = 4;

/// How long a connection thread sleeps after a failed `accept`, so a
/// persistent error (such as running out of file descriptors) does not
/// spin a CPU.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(10);

/// Starts a daemon thread running `body`; a refusal by the OS is an
/// error, not a panic.
fn spawn_thread(shared: &Arc<Shared>, body: fn(&Arc<Shared>)) -> std::io::Result<JoinHandle<()>> {
    let shared = Arc::clone(shared);
    std::thread::Builder::new().spawn(move || body(&shared))
}

/// A connection thread: accepts a connection on the shared listener and
/// serves it, then accepts again — unless [`IDLE_CONNECTION_THREADS`]
/// are accepting already, or shutdown took the listener.
fn connection_thread(shared: &Arc<Shared>) {
    // Registering checks the cap and counts this thread in one step, and
    // comes before the listener lookup that `trigger_shutdown` relies on.
    let register = |n: usize| (n < IDLE_CONNECTION_THREADS).then_some(n + 1);
    while shared.acceptors.fetch_update(Ordering::SeqCst, Ordering::SeqCst, register).is_ok() {
        let listener = shared.listener.lock().expect("listener lock poisoned").clone();
        let accepted = listener.as_deref().map(TcpListener::accept);
        drop(listener);
        // A connection accepted after shutdown (a wake-up, or a client
        // racing it) is closed unserved. One accepted before is counted
        // while this thread is still registered, so `join_and_report`,
        // which waits for `acceptors` to drain first, covers it.
        let serve = matches!(accepted, Some(Ok(_))) && !shared.shutdown.load(Ordering::SeqCst);
        if serve {
            shared.active_connections.fetch_add(1, Ordering::SeqCst);
        }
        let nobody_accepting = shared.acceptors.fetch_sub(1, Ordering::SeqCst) == 1;
        if nobody_accepting {
            let _listener = shared.listener.lock().expect("listener lock poisoned");
            shared.acceptors_drained.notify_all();
        }
        match accepted {
            None => return,
            Some(Err(_)) => std::thread::sleep(ACCEPT_ERROR_BACKOFF),
            Some(Ok((stream, _))) if serve => {
                // Start a successor before serving, so the next
                // connection does not wait for this one. If the OS
                // refuses a thread, this connection is still served and
                // this thread accepts again after.
                if nobody_accepting && spawn_thread(shared, connection_thread).is_err() {
                    shared.errors.fetch_add(1, Ordering::Relaxed);
                }
                serve_connection(stream, shared);
                shared.active_connections.fetch_sub(1, Ordering::SeqCst);
            }
            Some(Ok(_)) => {}
        }
    }
}

fn executor_loop(shared: &Arc<Shared>) {
    let mut queue = shared.queue.lock().expect("queue lock poisoned");
    loop {
        let promotions_before = queue.promotions();
        if let Some((class, job)) = queue.pop() {
            let promoted = queue.promotions() > promotions_before;
            drop(queue);
            // Traced only when the owning request carried a context;
            // `None` otherwise — the untraced path pays these branches
            // and nothing else. The queue-wait span carries what a
            // scheduler gantt labels and marks a job's lane with.
            let traced = job.trace.map(|(ctx, enqueued_ns)| {
                let tracer = Tracer::new(&shared.spans, ctx);
                let attrs = vec![
                    ("class".to_owned(), class.as_str().to_owned()),
                    ("digest".to_owned(), job.prepared.digest().to_owned()),
                    ("op".to_owned(), job.op.name().to_owned()),
                    ("promoted".to_owned(), promoted.to_string()),
                ];
                tracer.record("queue-wait", enqueued_ns, attrs);
                (tracer, shared.engine.report(), tracer.now_ns())
            });
            // A panicking op must never kill this thread with the job's
            // in-flight entry still claimed: coalesced waiters would
            // block forever on their receivers and every future
            // identical request would attach to the dead claim — the
            // key permanently poisoned. Catch the panic and turn it
            // into an ordinary error result, so the complete/reply
            // below always run and the executor survives.
            let execution = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                #[cfg(test)]
                test_hooks::fire(job.prepared.digest());
                job.op.execute_prepared(&job.prepared, &shared.engine)
            }));
            let result = match execution {
                Ok(r) => r.map_err(|e| e.to_string()),
                Err(payload) => Err(format!("job panicked: {}", panic_message(&payload))),
            };
            let tracer = traced.map(|(tracer, before, start)| {
                // Engine counter deltas ride on the compute span. With
                // a shared engine concurrent jobs can bleed into each
                // other's deltas — attribution, not exact accounting.
                let mut attrs = vec![("ok".to_owned(), result.is_ok().to_string())];
                for (k, v) in shared.engine.report().delta_pairs(&before) {
                    if v != 0 {
                        attrs.push((k.to_owned(), v.to_string()));
                    }
                }
                tracer.record("compute", start, attrs);
                tracer
            });
            if let Ok(result_text) = &result {
                let write_start = tracer.map(|t| t.now_ns());
                let (digest, key) = (job.prepared.digest(), job.prepared.key());
                if let Err(e) = shared.store.put(digest, key, result_text) {
                    eprintln!("relim-service: store write failed for {digest}: {e}");
                }
                if let (Some(t), Some(start)) = (tracer, write_start) {
                    let attrs = vec![("bytes".to_owned(), result_text.len().to_string())];
                    t.record("store-write", start, attrs);
                }
            }
            // Store first, complete second: a request that misses the
            // coalescing window after this point hits the store instead.
            shared.store.complete(job.prepared.key(), &result);
            // A dropped receiver (client gone) is fine — work is stored.
            let _ = job.reply.send(result);
            queue = shared.queue.lock().expect("queue lock poisoned");
        } else if shared.shutdown.load(Ordering::SeqCst) {
            return;
        } else {
            queue = shared.cv.wait(queue).expect("queue lock poisoned");
        }
    }
}

/// A human-readable rendering of a caught panic payload (`panic!` with a
/// string literal or a formatted message covers practically all of
/// them).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("opaque panic payload")
}

/// Enqueues a job unless the daemon is shutting down. The flag check and
/// the push happen under the same lock the executor's exit check uses,
/// so an accepted job is always served.
fn enqueue(shared: &Shared, class: Class, job: Job) -> Result<(), String> {
    let mut queue = shared.queue.lock().expect("queue lock poisoned");
    if shared.shutdown.load(Ordering::SeqCst) {
        return Err("server is shutting down".to_owned());
    }
    queue.push(class, job);
    shared.cv.notify_one();
    Ok(())
}

fn serve_connection(stream: TcpStream, shared: &Shared) {
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    loop {
        // Manual `read_until` instead of `lines()`: the framing is
        // line-delimited, so bytes arriving without their terminator —
        // a peer that died mid-write — are a **torn line**, not a
        // request. They are counted and discarded, never parsed: a
        // half-written `{"op":"shutd` must not become anything. The
        // read stops one byte past the request limit, so an endless
        // line costs a bounded buffer.
        let mut line = Vec::new();
        let limited = (&mut reader).take(wire::MAX_REQUEST_BYTES + 1).read_until(b'\n', &mut line);
        match limited {
            Ok(0) => break, // clean EOF at a frame boundary
            Ok(n) if n as u64 > wire::MAX_REQUEST_BYTES && !line.ends_with(b"\n") => {
                shared.errors.fetch_add(1, Ordering::Relaxed);
                let error =
                    format!("request line exceeds the limit of {} bytes", wire::MAX_REQUEST_BYTES);
                let _ =
                    wire::write_frame(&mut writer, &protocol::render_error_response(None, &error));
                break;
            }
            Ok(_) if !line.ends_with(b"\n") => {
                shared.torn_lines.fetch_add(1, Ordering::Relaxed);
                break;
            }
            Ok(_) => {}
            Err(_) => {
                // A read error can also strand partial bytes in the
                // buffer (`read_until` appends what it read before
                // failing) — same torn frame, same accounting.
                if !line.is_empty() {
                    shared.torn_lines.fetch_add(1, Ordering::Relaxed);
                }
                break;
            }
        }
        let Ok(line) = String::from_utf8(line) else { break };
        if line.trim().is_empty() {
            continue;
        }
        shared.requests_total.fetch_add(1, Ordering::Relaxed);
        let (response, shutdown_after_send) = handle_line(&line, shared);
        let sent = wire::write_frame(&mut writer, &response).is_ok();
        if shutdown_after_send {
            // The acknowledgement is on the wire (or the peer is gone)
            // before the teardown starts, so the requester always hears
            // back.
            trigger_shutdown(shared);
        }
        if !sent {
            break;
        }
    }
}

/// Handles one request line; returns the response line and whether a
/// graceful shutdown must be triggered *after* the response is sent.
fn handle_line(line: &str, shared: &Shared) -> (String, bool) {
    // A job's latency cell covers its parse: preparing the request (the
    // one parse of its problem, its key and digest) happens there. A
    // traced request's spans start here too, on the span-log clock.
    let received = Instant::now();
    let Request { id, body } = match protocol::parse_request(line) {
        Ok(r) => r,
        Err(e) => {
            shared.errors.fetch_add(1, Ordering::Relaxed);
            return (protocol::render_error_response(None, &e), false);
        }
    };
    if let Some(slot) = op_slot(&body) {
        shared.ops[slot].fetch_add(1, Ordering::Relaxed);
    }
    let response = match body {
        RequestBody::Status => protocol::render_status_response(id, shared.counters_json()),
        RequestBody::Metrics => {
            let text = crate::metrics::render_prometheus(&shared.counters_json());
            protocol::render_metrics_response(id, &text)
        }
        RequestBody::Fetch { digest, trace } => {
            // A read-only read by content address: never counted as
            // store traffic (the hits+misses↔submits reconciliation
            // stays intact on both sides of the wire). The store
            // re-digests the key, so even a corrupted memory entry
            // cannot cross the fleet.
            let entry = shared.store.lookup_digest(&digest);
            if let Some(ctx) = trace {
                // The serving half of a traced cross-daemon fetch: its
                // parent is the requester's peer-fetch attempt span, so
                // the merged tree hangs this daemon's work under it.
                let tracer = Tracer::new(&shared.spans, ctx);
                let attrs = vec![("found".to_owned(), entry.is_some().to_string())];
                tracer.record("fetch-serve", tracer.ns_at(received), attrs);
            }
            let entry = entry.as_ref().map(|(key, result)| (key.as_str(), result.as_str()));
            protocol::render_fetch_response(id, &digest, entry)
        }
        RequestBody::Ping => {
            let info = PingInfo {
                uptime_ms: shared.started.elapsed().as_millis() as u64,
                store_entries: shared.store.stats().mem_entries as u64,
                span_window: shared.spans.capacity() as u64,
                span_dropped: shared.spans.stats().1,
            };
            protocol::render_ping_response(id, &info)
        }
        RequestBody::Trace { trace_id } => {
            let snapshot = shared.spans.snapshot(trace_id);
            protocol::render_trace_response(id, snapshot.to_json(&shared.addr.to_string()))
        }
        RequestBody::Shutdown => return (protocol::render_shutdown_response(id), true),
        RequestBody::Job { op, prepared, class, trace } => {
            let (slot, name) = (op.slot(), op.name());
            // Traced only when the request carried a context — `None`
            // (one branch per site) otherwise. The root `request` span's
            // id is allocated here and the span recorded last, with the
            // outcome attached; its children hang under the id.
            let traced = trace.map(|ctx| {
                let wire = Tracer::new(&shared.spans, ctx);
                let (root, start) = (wire.child(), wire.ns_at(received));
                root.record("parse", start, Vec::new());
                (wire, root, start)
            });
            let root = traced.map(|(_, root, _)| root);
            let (response, outcome) = serve_job(shared, id, op, prepared, class, root);
            // The one place a job request's outcome is recorded: every
            // exit of `serve_job` lands in exactly one latency cell.
            let counter = match outcome {
                Outcome::Hit => Some(&shared.store_hits[slot]),
                Outcome::Computed => None,
                Outcome::Error => Some(&shared.errors),
            };
            if let Some(counter) = counter {
                counter.fetch_add(1, Ordering::Relaxed);
            }
            shared.latency.record(slot, outcome, received.elapsed().as_nanos() as u64);
            if let Some((wire, root, start)) = traced {
                let attrs = vec![
                    ("op".to_owned(), name.to_owned()),
                    ("outcome".to_owned(), outcome.as_str().to_owned()),
                ];
                wire.record_child(root, "request", start, attrs);
            }
            response
        }
    };
    (response, false)
}

/// The job path: store read, fleet read-through, then enqueue (or
/// coalesce onto an identical in-flight job) and wait for the result —
/// all keyed by the canonical key and digest the wire parse prepared.
/// Returns the response and its outcome; the caller records the outcome.
fn serve_job(
    shared: &Shared,
    id: Option<i64>,
    op: OpRequest,
    prepared: Prepared,
    class: Class,
    tracer: Option<Tracer<'_>>,
) -> (String, Outcome) {
    let error = |e: &str| (protocol::render_error_response(id, e), Outcome::Error);
    let (key, digest) = (prepared.key(), prepared.digest());
    let hit =
        |result: &str| (protocol::render_job_response(id, true, digest, result), Outcome::Hit);
    let read_start = tracer.map(|t| t.now_ns());
    let cached = shared.store.get(digest, key);
    if let (Some(t), Some(start_ns)) = (tracer, read_start) {
        t.record("store-read", start_ns, vec![("hit".to_owned(), cached.is_some().to_string())]);
    }
    if let Some(result) = cached {
        return hit(&result);
    }
    // Cold: claim the in-flight slot. The first identical request owns
    // the computation and queues a job; later ones coalesce onto the
    // owner's result channel.
    let rx = match shared.store.claim(key) {
        InflightClaim::Waiter(rx) => rx,
        InflightClaim::Owner => {
            // Fleet read-through, *inside* the ownership claim:
            // concurrent identical requests coalesce onto one peer fetch
            // exactly as they coalesce onto one computation. A verified
            // remote hit is written through locally and served as
            // cached; a miss or an unreachable owner falls through to
            // the local queue — same bytes either way, by the canonical
            // determinism of every op.
            if let Some(fleet) = &shared.fleet {
                let outcome = fleet.read_through(digest, key, tracer);
                if let FetchOutcome::Hit(result) = outcome {
                    if let Err(e) = shared.store.put(digest, key, &result) {
                        eprintln!("relim-service: store write-through failed for {digest}: {e}");
                    }
                    // Store before complete, like the executor: a
                    // request missing the coalescing window hits the
                    // store instead.
                    shared.store.complete(key, &Ok(result.clone()));
                    return hit(&result);
                }
            }
            let (tx, rx) = mpsc::channel();
            let trace = tracer.map(|t| (t.context(), t.now_ns()));
            let job = Job { op, prepared: prepared.clone(), reply: tx, trace };
            if let Err(e) = enqueue(shared, class, job) {
                // Unblock any waiter that already attached.
                shared.store.complete(key, &Err(e.clone()));
                return error(&e);
            }
            rx
        }
    };
    match rx.recv() {
        Ok(Ok(result)) => {
            (protocol::render_job_response(id, false, digest, &result), Outcome::Computed)
        }
        Ok(Err(e)) => error(&e),
        Err(_) => error("executor exited before the job ran"),
    }
}

/// Test seam: per-digest hooks fired by the executor just before a
/// job's real execution, inside the panic guard. A hook runs at most
/// once (it is removed as it fires), so a recomputation of the same
/// digest runs clean — exactly what the poisoned-key regression needs.
/// Keyed by digest so concurrently running tests cannot collide.
#[cfg(test)]
pub(crate) mod test_hooks {
    use std::collections::HashMap;
    use std::sync::{Mutex, OnceLock};

    type Hook = Box<dyn FnOnce() + Send>;

    fn registry() -> &'static Mutex<HashMap<String, Hook>> {
        static REGISTRY: OnceLock<Mutex<HashMap<String, Hook>>> = OnceLock::new();
        REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
    }

    pub fn install(digest: &str, hook: Box<dyn FnOnce() + Send>) {
        registry().lock().expect("hook registry poisoned").insert(digest.to_owned(), hook);
    }

    pub fn fire(digest: &str) {
        // Remove before calling: a panicking hook must not poison the
        // registry lock for unrelated tests.
        let hook = registry().lock().expect("hook registry poisoned").remove(digest);
        if let Some(hook) = hook {
            hook();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::trace::Span;

    #[test]
    fn job_counters_follow_the_op_table() {
        for (row, op) in crate::ops::OPS.iter().enumerate() {
            assert_eq!(OP_NAMES[row], op.names[0].replace('-', "_"));
        }
    }

    #[test]
    fn spawn_serve_cache_shutdown_on_ephemeral_port() {
        let handle = Server::spawn("127.0.0.1:0", ServerConfig::default()).unwrap();
        let client = Client::new(handle.local_addr().to_string());

        let op = OpRequest::zero_round("M M M;P O O", "M [P O];O O").unwrap();
        let first = client.submit(&op, None).unwrap();
        assert!(!first.cached);
        assert!(first.result.contains("0-round solvable"), "{}", first.result);
        let second = client.submit(&op, None).unwrap();
        assert!(second.cached, "second identical query must be a store hit");
        assert_eq!(first.result, second.result);
        assert_eq!(first.digest, op.digest().unwrap());

        let status = client.status().unwrap();
        let store = status.get("store").expect("counters carry a store object");
        assert_eq!(store.get("mem_hits").and_then(Json::as_i64), Some(1));

        client.shutdown().unwrap();
        handle.join();
    }

    #[test]
    fn panicking_job_unblocks_coalesced_waiters_and_unpoisons_the_key() {
        // One executor: if the panic killed it, nothing could serve the
        // recomputation below — the test proves the thread survives.
        let config = ServerConfig { executors: 1, ..ServerConfig::default() };
        let handle = Server::spawn("127.0.0.1:0", config).unwrap();
        let client = Client::new(handle.local_addr().to_string());
        let op = OpRequest::zero_round("P P P;M O O", "M [P O];O O").unwrap();
        let digest = op.digest().unwrap();

        // The first execution of this digest blocks until two waiters
        // have coalesced onto it, then panics — deterministically
        // reproducing "a panic with waiters attached".
        let shared = Arc::clone(&handle.shared);
        test_hooks::install(
            &digest,
            Box::new(move || {
                for _ in 0..2000 {
                    if shared.store.stats().coalesced >= 2 {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
                panic!("deliberate test panic inside op execution");
            }),
        );

        let submit =
            |client: Client, op: OpRequest| std::thread::spawn(move || client.submit(&op, None));
        let owner = submit(client.clone(), op.clone());
        // The owner's executor is blocked in the hook; these two attach
        // as coalesced waiters (the hook waits for exactly that).
        let w1 = submit(client.clone(), op.clone());
        let w2 = submit(client.clone(), op.clone());
        for t in [owner, w1, w2] {
            let reply = t.join().unwrap();
            let err = reply.expect_err("panicked job must answer with an error");
            assert!(err.to_string().contains("job panicked"), "{err}");
        }

        // The key is un-poisoned: a fresh identical request claims the
        // slot as owner and recomputes (the hook fired once and is
        // gone) on the *same* executor thread.
        let reply = client.submit(&op, None).unwrap();
        assert!(!reply.cached);
        assert!(reply.result.contains("0-round"), "{}", reply.result);

        let counters = handle.counters();
        let errors = counters.get("errors").and_then(Json::as_i64).unwrap();
        assert_eq!(errors, 3, "owner + two waiters");
        let error_cell = counters
            .get("latency")
            .and_then(|l| l.get("zero_round"))
            .and_then(|l| l.get("error"))
            .unwrap();
        assert_eq!(error_cell.get("count").and_then(Json::as_i64), Some(3));
        client.shutdown().unwrap();
        handle.join();
    }

    #[test]
    fn metrics_gantt_and_fetch_ops_serve_the_observability_surfaces() {
        let handle = Server::spawn("127.0.0.1:0", ServerConfig::default()).unwrap();
        let client = Client::new(handle.local_addr().to_string());
        let op = OpRequest::zero_round("M M M;P O O", "M [P O];O O").unwrap();
        let ctx = TraceContext { trace_id: 0x5ca1e, parent: None };
        let reply = client.submit_traced(&op, None, Some(&ctx)).unwrap();

        let text = client.metrics().unwrap();
        assert_eq!(crate::metrics::exposition_problems(&text), Vec::<String>::new(), "{text}");
        assert!(text.contains("relim_requests_total "), "{text}");
        assert!(text.contains("relim_store_stores 1"), "{text}");
        // Every leaf of the status counters is scrapeable; spot-check
        // one from each family, including the new lanes.
        for name in [
            "relim_ops_zero_round",
            "relim_ops_trace 0",
            "relim_store_hits_zero_round",
            "relim_latency_zero_round_computed_count 1",
            "relim_queue_pending",
            "relim_engine_cache_entries",
            "relim_trace_recorded",
            "relim_trace_dropped 0",
            "relim_trace_window 4096",
        ] {
            assert!(text.contains(name), "missing {name} in:\n{text}");
        }
        // The latency grid derives a real Prometheus histogram family.
        assert!(text.contains("# TYPE relim_request_latency_ns histogram"), "{text}");
        assert!(
            text.contains(
                "relim_request_latency_ns_count{op=\"zero_round\",outcome=\"computed\"} 1"
            ),
            "{text}"
        );
        assert!(
            text.contains("relim_request_latency_ns_bucket{op=\"zero_round\",outcome=\"computed\",le=\"+Inf\"} 1"),
            "{text}"
        );

        // The traced job is one gantt lane: enqueued, started, finished.
        let gantt = crate::trace::render_gantt(&[client.trace_dump(None).unwrap()]);
        let lane = format!("{} zero-round interactive|ESF", &reply.digest[..12]);
        assert_eq!(gantt.lines().nth(1), Some(lane.as_str()), "{gantt}");

        let (key, result) = client.fetch(&reply.digest).unwrap().expect("stored");
        assert_eq!(result, reply.result, "fetch returns the stored bytes");
        assert!(key.contains("op=zero-round"), "{key}");
        assert_eq!(client.fetch("not-a-digest").unwrap(), None, "a miss is not an error");
        client.shutdown().unwrap();
        handle.join();
    }

    #[test]
    fn malformed_and_refused_requests_get_error_responses() {
        let handle = Server::spawn("127.0.0.1:0", ServerConfig::default()).unwrap();
        let client = Client::new(handle.local_addr().to_string());
        let err = client.raw_roundtrip("this is not json").unwrap();
        assert_eq!(err.get("ok").and_then(Json::as_bool), Some(false));
        let err = client.raw_roundtrip("{\"op\": \"sweep\", \"delta\": 99}").unwrap();
        assert!(err.get("error").and_then(Json::as_str).unwrap().contains("delta"));
        client.shutdown().unwrap();
        handle.join();
    }

    #[test]
    fn traced_requests_record_spans_and_untraced_requests_stay_silent() {
        let handle = Server::spawn("127.0.0.1:0", ServerConfig::default()).unwrap();
        let client = Client::new(handle.local_addr().to_string());
        let op = OpRequest::zero_round("M M M;P O O", "M [P O];O O").unwrap();
        let ctx = TraceContext { trace_id: 0xabc, parent: None };

        let computed = client.submit_traced(&op, None, Some(&ctx)).unwrap();
        assert!(!computed.cached);
        let hit = client.submit_traced(&op, None, Some(&ctx)).unwrap();
        assert!(hit.cached);
        assert_eq!(computed.result, hit.result, "tracing never changes served bytes");
        // An untraced submit records nothing: neither a store hit nor
        // a job computed through the queue on another op.
        let recorded = || client.trace_dump(None).unwrap().recorded;
        let before = recorded();
        client.submit(&op, None).unwrap();
        let cold = OpRequest::Iterate {
            node: "M M M;P O O".into(),
            edge: "M [P O];O O".into(),
            max_steps: 1,
            label_limit: 20,
        };
        assert!(!client.submit(&cold, None).unwrap().cached);
        assert_eq!(recorded(), before);

        let dump = client.trace_dump(Some(0xabc)).unwrap();
        assert_eq!(dump.daemon, handle.local_addr().to_string());
        assert_eq!(dump.window, DEFAULT_SPAN_CAPACITY as u64);
        let names: Vec<&str> = dump.spans.iter().map(|s| s.name.as_str()).collect();
        for name in ["request", "parse", "store-read", "queue-wait", "compute", "store-write"] {
            assert!(names.contains(&name), "missing {name} span in {names:?}");
        }
        assert!(dump.spans.iter().all(|s| s.trace_id == 0xabc));
        let roots: Vec<&Span> = dump.spans.iter().filter(|s| s.parent.is_none()).collect();
        assert_eq!(roots.len(), 2, "one root per traced request");
        assert!(roots.iter().all(|s| s.name == "request"));
        let outcomes: Vec<&str> = dump
            .spans
            .iter()
            .filter(|s| s.name == "request")
            .flat_map(|s| &s.attrs)
            .filter(|(k, _)| k == "outcome")
            .map(|(_, v)| v.as_str())
            .collect();
        assert_eq!(outcomes, vec!["computed", "hit"], "dump is in recording order");
        let compute = dump.spans.iter().find(|s| s.name == "compute").unwrap();
        assert!(compute.attrs.iter().any(|(k, v)| k == "ok" && v == "true"), "{compute:?}");
        let reads: Vec<&Span> = dump.spans.iter().filter(|s| s.name == "store-read").collect();
        assert!(reads[0].attrs.contains(&("hit".to_owned(), "false".to_owned())));
        assert!(reads[1].attrs.contains(&("hit".to_owned(), "true".to_owned())));

        // Filtering by an unknown trace id yields an empty dump.
        assert!(client.trace_dump(Some(0x999)).unwrap().spans.is_empty());
        // Ping advertises the span window so merges can flag gaps.
        let info = client.ping_info().unwrap();
        assert_eq!(info.span_window, DEFAULT_SPAN_CAPACITY as u64);
        assert_eq!(info.span_dropped, 0);
        client.shutdown().unwrap();
        handle.join();

        // A fresh default-config daemon records a traced submit's spans:
        // the request's context is the only switch.
        let fresh = Server::spawn("127.0.0.1:0", ServerConfig::default()).unwrap();
        let client = Client::new(fresh.local_addr().to_string());
        client.submit_traced(&op, None, Some(&ctx)).unwrap();
        let dump = client.trace_dump(None).unwrap();
        let names: Vec<&str> = dump.spans.iter().map(|s| s.name.as_str()).collect();
        for name in ["request", "parse", "store-read", "queue-wait", "compute", "store-write"] {
            assert!(names.contains(&name), "missing {name} span in {names:?}");
        }
        client.shutdown().unwrap();
        fresh.join();
    }

    #[test]
    fn an_oversized_request_line_is_refused_with_one_error_line() {
        use std::io::Write;
        let handle = Server::spawn("127.0.0.1:0", ServerConfig::default()).unwrap();
        let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
        let line = vec![b'x'; wire::MAX_REQUEST_BYTES as usize + 1];
        stream.write_all(&line).unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut answer = String::new();
        BufReader::new(&stream).read_line(&mut answer).unwrap();
        let doc = Json::parse(answer.trim_end()).expect("one error line");
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false));
        let error = doc.get("error").and_then(Json::as_str).unwrap();
        assert!(error.contains(&wire::MAX_REQUEST_BYTES.to_string()), "{error}");
        let counters = handle.counters();
        assert_eq!(counters.get("errors").and_then(Json::as_i64), Some(1));
        assert_eq!(counters.get("requests_total").and_then(Json::as_i64), Some(0));
        handle.shutdown();
        handle.join();
    }

    #[test]
    fn executors_past_the_bound_are_refused_before_binding() {
        // The address is held, so a refusal after the bind would read
        // `AddrInUse` — and every thread starts after the bind.
        let held = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = held.local_addr().unwrap().to_string();
        let refused = |executors| {
            let config = ServerConfig { executors, ..ServerConfig::default() };
            Server::spawn(&addr, config).err().expect("the held address cannot be served").kind()
        };
        assert_eq!(refused(MAX_EXECUTORS + 1), std::io::ErrorKind::InvalidInput);
        assert_eq!(refused(MAX_EXECUTORS), std::io::ErrorKind::AddrInUse);
    }

    #[test]
    fn shutdown_closes_the_listener() {
        let handle = Server::spawn("127.0.0.1:0", ServerConfig::default()).unwrap();
        let addr = handle.local_addr().to_string();
        handle.shutdown();
        handle.join();
        // After join the listener is gone: new clients are refused
        // outright instead of hanging on an unserved connection.
        let client = Client::new(addr);
        let op = OpRequest::zero_round("A A", "A A").unwrap();
        match client.submit(&op, None) {
            Ok(reply) => panic!("job accepted after shutdown: {reply:?}"),
            Err(e) => assert!(!e.to_string().is_empty()),
        }
    }

    /// Polls `shared`'s count of threads in `accept` until it equals
    /// `want`.
    fn await_acceptors(shared: &Shared, want: usize) {
        for _ in 0..400 {
            if shared.acceptors.load(Ordering::SeqCst) == want {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        panic!("accepting threads never reached {want}");
    }

    #[test]
    fn finished_connection_threads_park_up_to_the_cap_and_exit_at_shutdown() {
        use std::io::Write;
        let handle = Server::spawn("127.0.0.1:0", ServerConfig::default()).unwrap();
        let shared = Arc::clone(&handle.shared);
        // Twice the cap of connections, each answered once so each is
        // known to hold a thread of its own, then all closed together:
        // the cap goes back to `accept`, the rest exit.
        let open: Vec<TcpStream> = (0..2 * IDLE_CONNECTION_THREADS)
            .map(|_| {
                let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
                stream.write_all(b"{\"op\": \"ping\"}\n").unwrap();
                let mut pong = String::new();
                BufReader::new(stream.try_clone().unwrap()).read_line(&mut pong).unwrap();
                assert!(pong.contains("\"pong\": true"), "{pong}");
                stream
            })
            .collect();
        // Every connection is held, so exactly the successor the last
        // accept spawned is accepting.
        await_acceptors(&shared, 1);
        drop(open);
        await_acceptors(&shared, IDLE_CONNECTION_THREADS);
        // Sequential connections reuse the waiting threads and leave
        // the count at the cap.
        let client = Client::new(handle.local_addr().to_string());
        for _ in 0..20 {
            client.ping().unwrap();
        }
        await_acceptors(&shared, IDLE_CONNECTION_THREADS);
        // Shutdown wakes every accepting thread, and each exits.
        handle.shutdown();
        handle.join();
        await_acceptors(&shared, 0);
        assert_eq!(shared.active_connections.load(Ordering::SeqCst), 0);
    }
}
