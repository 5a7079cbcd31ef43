//! Request-scoped distributed tracing across the fleet.
//!
//! A **trace context** — a `trace_id` plus the parent span id, both
//! 64-bit values spelled as 16-digit lowercase hex on the wire — rides
//! in a job or fetch request's optional `trace_id`/`parent_span`
//! fields. It is the one switch: a request that carries a context has
//! its spans recorded, a request without one records nothing. Daemons
//! never mint a context; a client does (`relim submit --trace`,
//! [`crate::client::Client::submit_traced`]), and a daemon propagates
//! the one it was handed on the wire of the fleet's `fetch` calls, so
//! one trace id follows a request across daemons: the requester's
//! per-attempt `peer-fetch` span is the parent of the owner's
//! `fetch-serve` span.
//!
//! Every daemon records its spans into one bounded, thread-safe
//! [`SpanLog`], the daemon's one bounded log: a fixed capacity, the
//! oldest spans dropped **and counted** beyond it, so a long-lived
//! daemon pays a fixed memory cost whatever its clients send. Every span
//! is recorded through a [`Tracer`], the log plus a position in a trace.
//! Spans carry a name, a start offset and duration in nanoseconds **on
//! the recording daemon's own monotonic clock**, and a flat list of
//! string attributes (retry numbers, breaker state, engine counter
//! deltas). A traced job's `queue-wait` span also carries its `digest`,
//! `op`, `class` and whether it was `promoted` past the interactive
//! backlog, which is all a scheduler timeline needs.
//!
//! ## Clock model
//!
//! There is deliberately no cross-host clock: `start_ns` is an offset
//! from the recording daemon's `SpanLog` epoch and is meaningful only
//! relative to other spans of the *same* daemon. Cross-daemon structure
//! comes exclusively from the propagated ids (`trace_id` + parent span
//! links), never from comparing timestamps between hosts — the merged
//! renderings group and indent by parentage and label every span with
//! its daemon.
//!
//! ## Renderings
//!
//! A set of per-daemon dumps ([`TraceDump`], the payload of the
//! `{"op": "trace"}` protocol op) renders three ways: a cross-daemon
//! tree ([`render_tree`]) — straight-line chains contracted onto one
//! line, the same readability idea `relim viz` applies to derivation
//! DAGs; Chrome trace-event JSON ([`render_chrome`], `"ph":"X"`
//! complete events, one process per daemon and one track per trace)
//! loadable in Perfetto or `chrome://tracing`; and a scheduler gantt
//! ([`render_gantt`], one lane per traced job, one section per daemon).

use relim_json::Json;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The schema tag of the trace-dump JSON rendering.
pub const TRACE_SCHEMA: &str = "relim-trace/1";

/// The span window every daemon keeps.
pub const DEFAULT_SPAN_CAPACITY: usize = 4096;

/// A trace id or span id as its wire spelling: 16 lowercase hex digits.
pub fn render_id(id: u64) -> String {
    format!("{id:016x}")
}

/// Parses a wire id: 1–16 hex digits (case-insensitive). `None` for
/// anything else — a malformed id is a protocol error, never a guess.
pub fn parse_id(text: &str) -> Option<u64> {
    if text.is_empty() || text.len() > 16 || !text.chars().all(|c| c.is_ascii_hexdigit()) {
        return None;
    }
    u64::from_str_radix(text, 16).ok()
}

/// Mints a fresh trace id: wall-clock nanoseconds mixed with a
/// process-wide counter through splitmix64, so concurrent mints in one
/// process and mints across fleet members are distinct in practice.
/// Never zero (zero is reserved as "no id" in renderings).
pub fn mint_trace_id() -> u64 {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let seed = nanos
        .wrapping_add(COUNTER.fetch_add(1, Ordering::Relaxed).wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(u64::from(std::process::id()));
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    z.max(1)
}

/// The propagated wire context: which trace a request belongs to and
/// which remote span caused it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// The trace this request belongs to.
    pub trace_id: u64,
    /// The causing span on the sending side, when there is one.
    pub parent: Option<u64>,
}

/// One recorded span: a named interval on the recording daemon's
/// monotonic clock, linked into its trace by `trace_id` and `parent`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The trace this span belongs to.
    pub trace_id: u64,
    /// This span's own id. Minted from a per-daemon counter seeded at a
    /// random base, so ids are unique across the fleet with overwhelming
    /// probability — cross-daemon parent links resolve by bare span id.
    pub span_id: u64,
    /// The causing span (possibly on another daemon), if any.
    pub parent: Option<u64>,
    /// What the span covers (`request`, `parse`, `queue-wait`,
    /// `compute`, `store-read`, `store-write`, `peer-fetch`,
    /// `fetch-serve`).
    pub name: String,
    /// Nanoseconds since the recording daemon's span-log epoch. Only
    /// comparable to other spans of the same daemon.
    pub start_ns: u64,
    /// The span's duration in nanoseconds.
    pub dur_ns: u64,
    /// Flat string attributes (attempt numbers, breaker state, engine
    /// counter deltas, outcomes).
    pub attrs: Vec<(String, String)>,
}

/// A bounded, thread-safe span log (see the module docs). Every daemon
/// owns one; spans reach it only through a [`Tracer`].
#[derive(Debug)]
pub struct SpanLog {
    /// The zero of the daemon's span clock.
    epoch: Instant,
    capacity: usize,
    window: Mutex<Window>,
    next_id: AtomicU64,
}

/// The retained spans and the totals of the full stream.
#[derive(Debug, Default)]
struct Window {
    spans: VecDeque<Span>,
    recorded: u64,
    dropped: u64,
}

impl SpanLog {
    /// An empty log retaining up to `capacity` spans (at least 1).
    pub fn new(capacity: usize) -> SpanLog {
        SpanLog {
            epoch: Instant::now(),
            capacity: capacity.max(1),
            window: Mutex::new(Window::default()),
            // Seed at a random base: parent links cross daemons as bare
            // span ids, so two daemons both counting from 1 would alias
            // unrelated spans (and can even weave a parent cycle).
            next_id: AtomicU64::new(mint_trace_id()),
        }
    }

    /// The window size.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Allocates a fresh span id (never zero, monotone per daemon,
    /// fleet-unique whp thanks to the random base).
    fn next_span_id(&self) -> u64 {
        loop {
            let id = self.next_id.fetch_add(1, Ordering::Relaxed);
            if id != 0 {
                return id;
            }
        }
    }

    /// Nanoseconds since the log was created.
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Window> {
        self.window.lock().expect("span log lock poisoned")
    }

    /// Appends one span, dropping (and counting) the oldest beyond the
    /// window.
    fn record(&self, span: Span) {
        let mut window = self.lock();
        window.recorded += 1;
        if window.spans.len() >= self.capacity {
            window.spans.pop_front();
            window.dropped += 1;
        }
        window.spans.push_back(span);
    }

    /// Records span `span_id`, named `name`, covering `start_ns`..now
    /// under `ctx`: its trace id and its parent span.
    fn record_since(
        &self,
        ctx: TraceContext,
        span_id: u64,
        name: &str,
        start_ns: u64,
        attrs: Vec<(String, String)>,
    ) {
        self.record(Span {
            trace_id: ctx.trace_id,
            span_id,
            parent: ctx.parent,
            name: name.to_owned(),
            start_ns,
            dur_ns: self.now_ns().saturating_sub(start_ns),
            attrs,
        });
    }

    /// `(recorded, dropped)` without copying the window — the cheap
    /// reading `status`, `ping` and the scrape surface use.
    pub fn stats(&self) -> (u64, u64) {
        let window = self.lock();
        (window.recorded, window.dropped)
    }

    /// A consistent copy of the current window, optionally filtered to
    /// one trace id.
    pub fn snapshot(&self, trace_id: Option<u64>) -> TraceSnapshot {
        let window = self.lock();
        let keep = |s: &&Span| trace_id.is_none_or(|t| s.trace_id == t);
        TraceSnapshot {
            window: self.capacity,
            recorded: window.recorded,
            dropped: window.dropped,
            spans: window.spans.iter().filter(keep).cloned().collect(),
        }
    }
}

/// The one handle every span is recorded through: a daemon's span log
/// plus a position in a trace. A span recorded through a tracer belongs
/// to its context's trace and hangs under its context's parent span.
///
/// A span that has children is recorded after them: [`Tracer::child`]
/// allocates its id up front and hands out the position under it, and
/// [`Tracer::record_child`] records it once its extent is known. A
/// request's root span is recorded last, with the outcome attached, and
/// a peer-fetch attempt's id rides the wire before its span exists.
#[derive(Debug, Clone, Copy)]
pub struct Tracer<'log> {
    log: &'log SpanLog,
    ctx: TraceContext,
}

impl<'log> Tracer<'log> {
    /// Spans recorded into `log` at position `ctx`.
    pub fn new(log: &'log SpanLog, ctx: TraceContext) -> Tracer<'log> {
        Tracer { log, ctx }
    }

    /// The position: what a queued job carries and a peer fetch sends.
    pub fn context(&self) -> TraceContext {
        self.ctx
    }

    /// Nanoseconds on the span log's clock.
    pub fn now_ns(&self) -> u64 {
        self.log.now_ns()
    }

    /// `at` on the span log's clock, without reading the clock.
    pub fn ns_at(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.log.epoch).as_nanos() as u64
    }

    /// Records a span named `name` covering `start_ns`..now here.
    pub fn record(&self, name: &str, start_ns: u64, attrs: Vec<(String, String)>) {
        self.log.record_since(self.ctx, self.log.next_span_id(), name, start_ns, attrs);
    }

    /// The position under a fresh span id, which [`Tracer::record_child`]
    /// records later.
    pub fn child(&self) -> Tracer<'log> {
        let parent = Some(self.log.next_span_id());
        Tracer { log: self.log, ctx: TraceContext { parent, ..self.ctx } }
    }

    /// Records the span `child` positions under — the id
    /// [`Tracer::child`] allocated — here, covering `start_ns`..now.
    ///
    /// # Panics
    ///
    /// If `child` hangs under no span, so did not come from
    /// [`Tracer::child`].
    pub fn record_child(
        &self,
        child: Tracer<'log>,
        name: &str,
        start_ns: u64,
        attrs: Vec<(String, String)>,
    ) {
        let id = child.ctx.parent.expect("a child position hangs under its span");
        self.log.record_since(self.ctx, id, name, start_ns, attrs);
    }
}

/// A point-in-time copy of a span window (the server side of a trace
/// dump).
#[derive(Debug, Clone)]
pub struct TraceSnapshot {
    /// The window size the log was configured with.
    pub window: usize,
    /// Spans ever recorded (including dropped ones).
    pub recorded: u64,
    /// Spans dropped out of the window.
    pub dropped: u64,
    /// The retained (and possibly trace-filtered) spans, oldest first.
    pub spans: Vec<Span>,
}

impl TraceSnapshot {
    /// The JSON rendering (schema [`TRACE_SCHEMA`]); `daemon` is the
    /// serving daemon's address, so merged dumps stay attributable.
    pub fn to_json(&self, daemon: &str) -> Json {
        let spans: Vec<Json> = self.spans.iter().map(span_to_json).collect();
        Json::Obj(vec![
            ("schema".into(), Json::str(TRACE_SCHEMA)),
            ("daemon".into(), Json::str(daemon)),
            ("window".into(), Json::Int(self.window as i64)),
            ("recorded".into(), Json::Int(self.recorded as i64)),
            ("dropped".into(), Json::Int(self.dropped as i64)),
            ("spans".into(), Json::Arr(spans)),
        ])
    }
}

fn span_to_json(span: &Span) -> Json {
    let mut fields = vec![
        ("trace_id".to_owned(), Json::str(render_id(span.trace_id))),
        ("span_id".to_owned(), Json::str(render_id(span.span_id))),
    ];
    if let Some(parent) = span.parent {
        fields.push(("parent".to_owned(), Json::str(render_id(parent))));
    }
    fields.push(("name".to_owned(), Json::str(&span.name)));
    fields.push(("start_ns".to_owned(), Json::Int(span.start_ns as i64)));
    fields.push(("dur_ns".to_owned(), Json::Int(span.dur_ns as i64)));
    fields.push((
        "attrs".to_owned(),
        Json::Obj(span.attrs.iter().map(|(k, v)| (k.clone(), Json::str(v))).collect()),
    ));
    Json::Obj(fields)
}

fn span_from_json(doc: &Json) -> Result<Span, String> {
    let id_field = |key: &str| -> Result<u64, String> {
        doc.get(key)
            .and_then(Json::as_str)
            .and_then(parse_id)
            .ok_or_else(|| format!("span missing hex field `{key}`"))
    };
    let int_field = |key: &str| -> Result<u64, String> {
        doc.get(key)
            .and_then(Json::as_i64)
            .map(|v| v.max(0) as u64)
            .ok_or_else(|| format!("span missing integer field `{key}`"))
    };
    let parent = match doc.get("parent") {
        None => None,
        Some(v) => Some(
            v.as_str().and_then(parse_id).ok_or_else(|| "malformed span `parent`".to_owned())?,
        ),
    };
    let attrs = match doc.get("attrs") {
        Some(Json::Obj(fields)) => fields
            .iter()
            .map(|(k, v)| (k.clone(), v.as_str().unwrap_or_default().to_owned()))
            .collect(),
        _ => Vec::new(),
    };
    Ok(Span {
        trace_id: id_field("trace_id")?,
        span_id: id_field("span_id")?,
        parent,
        name: doc
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| "span missing `name`".to_owned())?
            .to_owned(),
        start_ns: int_field("start_ns")?,
        dur_ns: int_field("dur_ns")?,
        attrs,
    })
}

/// One daemon's parsed trace dump — the client side of the
/// `{"op": "trace"}` response, ready for cross-daemon merging.
#[derive(Debug, Clone)]
pub struct TraceDump {
    /// The serving daemon's address.
    pub daemon: String,
    /// The daemon's span window.
    pub window: u64,
    /// Spans ever recorded on that daemon.
    pub recorded: u64,
    /// Spans dropped out of that daemon's window — a nonzero value
    /// means a merged trace may be incomplete.
    pub dropped: u64,
    /// The dumped spans.
    pub spans: Vec<Span>,
}

impl TraceDump {
    /// Parses the `trace` object of a trace response.
    ///
    /// # Errors
    ///
    /// Describes the first malformed field.
    pub fn parse(doc: &Json) -> Result<TraceDump, String> {
        if doc.get("schema").and_then(Json::as_str) != Some(TRACE_SCHEMA) {
            return Err(format!("trace dump is not schema {TRACE_SCHEMA}"));
        }
        let int = |key: &str| doc.get(key).and_then(Json::as_i64).unwrap_or(0).max(0) as u64;
        let spans = match doc.get("spans") {
            Some(Json::Arr(items)) => {
                items.iter().map(span_from_json).collect::<Result<Vec<_>, _>>()?
            }
            _ => return Err("trace dump missing `spans` array".to_owned()),
        };
        Ok(TraceDump {
            daemon: doc
                .get("daemon")
                .and_then(Json::as_str)
                .ok_or_else(|| "trace dump missing `daemon`".to_owned())?
                .to_owned(),
            window: int("window"),
            recorded: int("recorded"),
            dropped: int("dropped"),
            spans,
        })
    }
}

/// A span tagged with the index of the dump (daemon) it came from.
struct Tagged<'d> {
    daemon: usize,
    span: &'d Span,
}

/// The trace ids present across `dumps`, ascending.
fn trace_ids(dumps: &[TraceDump]) -> Vec<u64> {
    let mut ids: Vec<u64> = dumps.iter().flat_map(|d| d.spans.iter().map(|s| s.trace_id)).collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

/// Renders merged dumps as a cross-daemon text tree: one block per
/// trace id, spans indented under their parents (parent links may cross
/// daemons), straight-line chains — a span whose only child continues
/// the story — contracted onto one line with `->`, the readability idea
/// `relim viz` applies to derivation chains. Every span is labeled with
/// its daemon; durations are per-daemon monotonic readings and are
/// never compared across hosts.
pub fn render_tree(dumps: &[TraceDump]) -> String {
    let mut out = String::new();
    for trace_id in trace_ids(dumps) {
        let spans: Vec<Tagged<'_>> = dumps
            .iter()
            .enumerate()
            .flat_map(|(daemon, d)| {
                d.spans
                    .iter()
                    .filter(|s| s.trace_id == trace_id)
                    .map(move |span| Tagged { daemon, span })
            })
            .collect();
        let daemons: std::collections::BTreeSet<usize> = spans.iter().map(|t| t.daemon).collect();
        out.push_str(&format!(
            "trace {}: {} span(s) across {} daemon(s)\n",
            render_id(trace_id),
            spans.len(),
            daemons.len()
        ));
        // Children by parent span id; roots are spans whose parent is
        // absent or not in the merged set (e.g. dropped out of a
        // window).
        let present: std::collections::BTreeSet<u64> =
            spans.iter().map(|t| t.span.span_id).collect();
        let mut order: Vec<usize> = (0..spans.len()).collect();
        order.sort_by_key(|&i| (spans[i].daemon, spans[i].span.start_ns, spans[i].span.span_id));
        let children_of = |parent: u64| -> Vec<usize> {
            order.iter().copied().filter(|&i| spans[i].span.parent == Some(parent)).collect()
        };
        let roots: Vec<usize> = order
            .iter()
            .copied()
            .filter(|&i| spans[i].span.parent.is_none_or(|p| !present.contains(&p)))
            .collect();
        // The visited set makes rendering total: a malformed dump (e.g.
        // colliding span ids weaving a parent cycle) prints each span
        // once instead of recursing forever.
        let mut visited = vec![false; spans.len()];
        for root in roots {
            render_node(&spans, dumps, root, 0, &children_of, &mut visited, &mut out);
        }
        // Members of a rootless parent cycle were skipped above; render
        // them as degraded roots so no recorded span vanishes silently.
        for &i in &order {
            if !visited[i] {
                render_node(&spans, dumps, i, 0, &children_of, &mut visited, &mut out);
            }
        }
    }
    if out.is_empty() {
        out.push_str("no spans\n");
    }
    out
}

/// Renders one tree node, contracting single-child chains onto one
/// line, then recursing into the (multi-)children of the chain's tail.
/// Skips (and marks) already-visited nodes so id collisions between
/// daemons can never send the walk into a cycle.
fn render_node(
    spans: &[Tagged<'_>],
    dumps: &[TraceDump],
    node: usize,
    depth: usize,
    children_of: &dyn Fn(u64) -> Vec<usize>,
    visited: &mut [bool],
    out: &mut String,
) {
    if visited[node] {
        return;
    }
    visited[node] = true;
    let fresh = |visited: &[bool], ids: Vec<usize>| -> Vec<usize> {
        ids.into_iter().filter(|&i| !visited[i]).collect()
    };
    let mut segments = vec![node];
    let mut kids = fresh(visited, children_of(spans[node].span.span_id));
    while kids.len() == 1 {
        visited[kids[0]] = true;
        segments.push(kids[0]);
        kids = fresh(visited, children_of(spans[kids[0]].span.span_id));
    }
    let line: Vec<String> = segments
        .iter()
        .map(|&i| {
            let t = &spans[i];
            let attrs = if t.span.attrs.is_empty() {
                String::new()
            } else {
                let pairs: Vec<String> =
                    t.span.attrs.iter().map(|(k, v)| format!("{k}={v}")).collect();
                format!(" {{{}}}", pairs.join(", "))
            };
            format!(
                "{} {} [{}]{attrs}",
                t.span.name,
                format_duration(t.span.dur_ns),
                dumps[t.daemon].daemon
            )
        })
        .collect();
    out.push_str(&format!("{}{}\n", "  ".repeat(depth + 1), line.join(" -> ")));
    for kid in kids {
        render_node(spans, dumps, kid, depth + 1, children_of, visited, out);
    }
}

/// A nanosecond duration for eyeballs: `ns`, `us`, `ms` or `s`.
fn format_duration(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}us", ns as f64 / 1_000.0)
    } else if ns < 1_000_000_000 {
        format!("{:.2}ms", ns as f64 / 1_000_000.0)
    } else {
        format!("{:.3}s", ns as f64 / 1_000_000_000.0)
    }
}

/// Renders merged dumps as Chrome trace-event JSON (loadable in
/// Perfetto or `chrome://tracing`): one process per daemon (named via a
/// `"ph":"M"` `process_name` metadata event), one thread (`tid`) per
/// trace id, the same on every daemon, so the spans of concurrent
/// requests never share a track, and one `"ph":"X"` complete event per
/// span with microsecond `ts`/`dur` on the daemon's own clock. The
/// layout is built by hand (not via [`Json`]) so the output is
/// byte-predictable — `"ph":"X"` with no spaces — for machine consumers
/// and the CI grep; each string goes through the escaper of every wire
/// message ([`Json::render_compact`]).
pub fn render_chrome(dumps: &[TraceDump]) -> String {
    let json_str = |s: &str| Json::str(s).render_compact();
    let traces = trace_ids(dumps);
    let tid_of = |trace_id: u64| traces.partition_point(|&t| t < trace_id) + 1;
    let mut events: Vec<String> = Vec::new();
    for (i, dump) in dumps.iter().enumerate() {
        let pid = i + 1;
        events.push(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
             \"args\":{{\"name\":{}}}}}",
            json_str(&dump.daemon)
        ));
        for span in &dump.spans {
            let mut args = vec![
                format!("\"trace_id\":{}", json_str(&render_id(span.trace_id))),
                format!("\"span_id\":{}", json_str(&render_id(span.span_id))),
            ];
            if let Some(parent) = span.parent {
                args.push(format!("\"parent\":{}", json_str(&render_id(parent))));
            }
            for (k, v) in &span.attrs {
                args.push(format!("{}:{}", json_str(k), json_str(v)));
            }
            events.push(format!(
                "{{\"name\":{},\"cat\":\"relim\",\"ph\":\"X\",\"pid\":{pid},\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{{}}}}}",
                json_str(&span.name),
                tid_of(span.trace_id),
                span.start_ns as f64 / 1_000.0,
                span.dur_ns as f64 / 1_000.0,
                args.join(",")
            ));
        }
    }
    format!("{{\"traceEvents\":[{}]}}\n", events.join(","))
}

/// The value of `span`'s attribute `key`, if it has one.
fn attr<'s>(span: &'s Span, key: &str) -> Option<&'s str> {
    span.attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
}

/// Renders merged dumps as a scheduler gantt, one section per daemon
/// (span clocks are per daemon, so lanes of different daemons never
/// share a time axis). Each traced job is one lane, built from its
/// `queue-wait` span and the `compute` span under the same request:
/// `E`nqueue at the wait's start, `P`romote (when the job aged past the
/// interactive backlog) and `S`tart at its end, then `F`inish — `X` for
/// a failed job — at the compute's end. Lanes run in enqueue order, one
/// column per marker of the section; between its own markers a lane
/// shows `.` while queued and `-` while executing, so waiting time and
/// executor overlap line up across lanes. A lane is labeled with the
/// job's digest prefix, op and class.
pub fn render_gantt(dumps: &[TraceDump]) -> String {
    let mut out = String::new();
    for dump in dumps {
        let mut lanes: Vec<(&Span, Option<&Span>)> = dump
            .spans
            .iter()
            .filter(|s| s.name == "queue-wait")
            .map(|wait| {
                let sibling = |s: &&Span| {
                    s.name == "compute" && s.trace_id == wait.trace_id && s.parent == wait.parent
                };
                (wait, dump.spans.iter().find(sibling))
            })
            .collect();
        lanes.sort_by_key(|(wait, _)| wait.start_ns);
        // Markers lane by lane in lifecycle order; the stable sort by
        // time keeps a promotion before its start.
        let mut marks: Vec<(u64, usize, char)> = Vec::new();
        for (lane, (wait, compute)) in lanes.iter().enumerate() {
            let started = wait.start_ns + wait.dur_ns;
            marks.push((wait.start_ns, lane, 'E'));
            if attr(wait, "promoted") == Some("true") {
                marks.push((started, lane, 'P'));
            }
            marks.push((started, lane, 'S'));
            if let Some(compute) = compute {
                let marker = if attr(compute, "ok") == Some("true") { 'F' } else { 'X' };
                marks.push((compute.start_ns + compute.dur_ns, lane, marker));
            }
        }
        marks.sort_by_key(|&(at, _, _)| at);
        out.push_str(&format!(
            "daemon {}: {} traced job(s), {} event(s)\n",
            dump.daemon,
            lanes.len(),
            marks.len()
        ));
        for (lane, (wait, _)) in lanes.iter().enumerate() {
            let mut row = String::with_capacity(marks.len());
            let (mut queued, mut running) = (false, false);
            for &(_, of, marker) in &marks {
                if of == lane {
                    row.push(marker);
                    match marker {
                        'E' => queued = true,
                        'S' => (queued, running) = (false, true),
                        'F' | 'X' => running = false,
                        _ => {}
                    }
                } else if running {
                    row.push('-');
                } else if queued {
                    row.push('.');
                } else {
                    row.push(' ');
                }
            }
            let label = |key| attr(wait, key).unwrap_or("?");
            let digest: String = label("digest").chars().take(12).collect();
            out.push_str(&format!(
                "{digest:<12} {:<10} {:<11}|{}\n",
                label("op"),
                label("class"),
                row.trim_end()
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(trace: u64, id: u64, parent: Option<u64>, name: &str, start: u64, dur: u64) -> Span {
        Span {
            trace_id: trace,
            span_id: id,
            parent,
            name: name.to_owned(),
            start_ns: start,
            dur_ns: dur,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn ids_round_trip_and_reject_garbage() {
        for id in [1u64, 0xdead_beef, u64::MAX] {
            assert_eq!(parse_id(&render_id(id)), Some(id));
        }
        assert_eq!(render_id(1).len(), 16);
        for bad in ["", "xyz", "0x12", "-1", "+1", "00000000000000000"] {
            assert_eq!(parse_id(bad), None, "{bad}");
        }
    }

    #[test]
    fn minted_trace_ids_are_nonzero_and_distinct() {
        let ids: Vec<u64> = (0..64).map(|_| mint_trace_id()).collect();
        assert!(ids.iter().all(|&id| id != 0));
        let mut dedup = ids.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len(), "64 consecutive mints must not collide");
    }

    #[test]
    fn window_drops_oldest_and_counts() {
        let log = SpanLog::new(2);
        for i in 0..5 {
            log.record(span(7, i + 1, None, "request", i * 10, 5));
        }
        let snap = log.snapshot(None);
        assert_eq!((snap.recorded, snap.dropped, snap.spans.len()), (5, 3, 2));
        assert_eq!(log.stats(), (5, 3));
        assert_eq!(snap.spans[0].span_id, 4, "oldest retained span");
    }

    #[test]
    fn snapshot_filters_by_trace_id() {
        let log = SpanLog::new(16);
        log.record(span(1, 10, None, "request", 0, 5));
        log.record(span(2, 11, None, "request", 1, 5));
        log.record(span(1, 12, Some(10), "parse", 2, 1));
        let snap = log.snapshot(Some(1));
        assert_eq!(snap.spans.len(), 2);
        assert!(snap.spans.iter().all(|s| s.trace_id == 1));
        assert_eq!(log.snapshot(Some(99)).spans.len(), 0);
    }

    #[test]
    fn dump_json_round_trips() {
        let log = SpanLog::new(8);
        let mut with_attrs = span(3, 21, Some(20), "peer-fetch", 100, 250);
        with_attrs.attrs =
            vec![("attempt".into(), "0".into()), ("breaker".into(), "closed".into())];
        log.record(span(3, 20, None, "request", 90, 400));
        log.record(with_attrs.clone());
        let rendered = log.snapshot(None).to_json("127.0.0.1:7341").render_compact();
        let dump = TraceDump::parse(&Json::parse(&rendered).unwrap()).unwrap();
        assert_eq!(dump.daemon, "127.0.0.1:7341");
        assert_eq!(dump.window, 8);
        assert_eq!(dump.spans.len(), 2);
        assert_eq!(dump.spans[1], with_attrs, "spans survive the wire byte-exactly");
    }

    #[test]
    fn tree_merges_across_daemons_and_contracts_chains() {
        // Requester: request -> peer-fetch. Owner: fetch-serve whose
        // parent is the requester's peer-fetch span.
        let requester = TraceDump {
            daemon: "127.0.0.1:7402".into(),
            window: 16,
            recorded: 2,
            dropped: 0,
            spans: vec![
                span(5, 1, None, "request", 0, 900),
                span(5, 2, Some(1), "peer-fetch", 100, 700),
            ],
        };
        let owner = TraceDump {
            daemon: "127.0.0.1:7401".into(),
            window: 16,
            recorded: 1,
            dropped: 0,
            spans: vec![span(5, 9, Some(2), "fetch-serve", 5000, 80)],
        };
        let tree = render_tree(&[requester, owner]);
        assert!(tree.contains("trace 0000000000000005: 3 span(s) across 2 daemon(s)"), "{tree}");
        // The single-child chain contracts: request -> peer-fetch ->
        // fetch-serve on one line, each segment tagged with its daemon.
        let chain = tree.lines().nth(1).expect("chain line");
        assert!(chain.contains("request"), "{tree}");
        assert!(chain.contains("-> peer-fetch"), "{tree}");
        assert!(chain.contains("-> fetch-serve"), "{tree}");
        assert!(chain.contains("[127.0.0.1:7402]") && chain.contains("[127.0.0.1:7401]"), "{tree}");
    }

    #[test]
    fn span_ids_are_seeded_randomly_and_never_zero() {
        let a = SpanLog::new(4);
        let b = SpanLog::new(4);
        let (ida, idb) = (a.next_span_id(), b.next_span_id());
        assert_ne!(ida, 0);
        assert_ne!(idb, 0);
        assert_ne!(ida, idb, "two logs must not both count from the same base");
        assert_eq!(a.next_span_id(), ida.wrapping_add(1), "monotone per daemon");
    }

    #[test]
    fn child_tracers_record_under_their_parents_span_id() {
        let log = SpanLog::new(8);
        let wire = Tracer::new(&log, TraceContext { trace_id: 9, parent: Some(3) });
        // The order a traced request records in: a root allocated
        // first, its children recorded under it, the root itself last.
        let root = wire.child();
        let root_id = root.context().parent.expect("a child hangs under a span");
        assert_eq!(root.context().trace_id, 9);
        root.record("parse", 0, Vec::new());
        let fetch = root.child();
        root.record_child(fetch, "peer-fetch", 1, Vec::new());
        wire.record_child(root, "request", 0, Vec::new());
        let spans = log.snapshot(Some(9)).spans;
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["parse", "peer-fetch", "request"]);
        assert_eq!(spans[0].parent, Some(root_id), "a child records under its parent's id");
        assert_eq!(spans[1].span_id, fetch.context().parent.unwrap());
        assert_eq!(spans[1].parent, Some(root_id));
        assert_eq!(spans[2].span_id, root_id, "the root keeps its pre-allocated id");
        assert_eq!(spans[2].parent, Some(3), "and hangs under the wire's parent");
        let dump = TraceDump { daemon: "d".into(), window: 8, recorded: 3, dropped: 0, spans };
        let tree = render_tree(&[dump]);
        assert!(tree.lines().nth(1).unwrap().starts_with("  request"), "{tree}");
        assert!(tree.contains("    parse"), "{tree}");
    }

    #[test]
    fn tree_survives_colliding_span_ids_that_form_a_cycle() {
        // Two daemons that both numbered spans from 1 (the pre-random-
        // base bug): the requester's root (id 1) collides with the
        // owner's fetch-serve (id 1), whose subtree loops back into the
        // requester's peer-fetch (parent 1) — a parent cycle. Rendering
        // must terminate and print every span exactly once.
        let requester = TraceDump {
            daemon: "127.0.0.1:7402".into(),
            window: 16,
            recorded: 2,
            dropped: 0,
            spans: vec![
                span(5, 1, None, "request", 0, 900),
                span(5, 2, Some(1), "peer-fetch", 100, 700),
            ],
        };
        let owner = TraceDump {
            daemon: "127.0.0.1:7401".into(),
            window: 16,
            recorded: 2,
            dropped: 0,
            spans: vec![
                span(5, 1, Some(2), "fetch-serve", 5000, 80),
                span(5, 3, Some(1), "store-read", 5010, 20),
            ],
        };
        let tree = render_tree(&[requester, owner]);
        assert!(tree.contains("4 span(s) across 2 daemon(s)"), "{tree}");
        for name in ["request", "peer-fetch", "fetch-serve", "store-read"] {
            assert_eq!(tree.matches(name).count(), 1, "{name} once: {tree}");
        }
    }

    #[test]
    fn tree_indents_siblings_under_their_parent() {
        let dump = TraceDump {
            daemon: "d".into(),
            window: 16,
            recorded: 3,
            dropped: 0,
            spans: vec![
                span(1, 1, None, "request", 0, 100),
                span(1, 2, Some(1), "parse", 1, 2),
                span(1, 3, Some(1), "store-read", 5, 10),
            ],
        };
        let tree = render_tree(&[dump]);
        let lines: Vec<&str> = tree.lines().collect();
        assert_eq!(lines.len(), 4, "{tree}");
        assert!(lines[1].starts_with("  request"), "{tree}");
        assert!(lines[2].starts_with("    parse"), "{tree}");
        assert!(lines[3].starts_with("    store-read"), "{tree}");
    }

    #[test]
    fn chrome_export_is_parseable_and_carries_complete_events() {
        let dump = TraceDump {
            daemon: "127.0.0.1:7341".into(),
            window: 16,
            recorded: 1,
            dropped: 0,
            spans: vec![{
                let mut s = span(1, 1, None, "request", 1500, 2500);
                s.attrs = vec![("op".into(), "zero-round".into())];
                s
            }],
        };
        let chrome = render_chrome(&[dump]);
        assert!(chrome.contains("\"ph\":\"X\""), "{chrome}");
        assert!(chrome.contains("\"ph\":\"M\""), "{chrome}");
        assert!(chrome.contains("\"process_name\""), "{chrome}");
        assert!(chrome.contains("\"ts\":1.500"), "microsecond timestamps: {chrome}");
        let doc = Json::parse(chrome.trim_end()).expect("valid JSON");
        let Some(Json::Arr(events)) = doc.get("traceEvents") else { panic!("traceEvents") };
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("name").and_then(Json::as_str), Some("request"));
        assert_eq!(
            events[1].get("args").and_then(|a| a.get("op")).and_then(Json::as_str),
            Some("zero-round")
        );
    }

    #[test]
    fn chrome_export_gives_each_trace_its_own_track() {
        // Two concurrent requests on one daemon and one of them also on
        // a second daemon: each trace keeps one tid everywhere.
        let one = TraceDump {
            daemon: "a".into(),
            window: 16,
            recorded: 2,
            dropped: 0,
            spans: vec![span(9, 1, None, "request", 0, 100), span(4, 2, None, "request", 10, 100)],
        };
        let two = TraceDump {
            daemon: "b".into(),
            window: 16,
            recorded: 1,
            dropped: 0,
            spans: vec![span(9, 3, Some(1), "fetch-serve", 0, 5)],
        };
        let doc = Json::parse(render_chrome(&[one, two]).trim_end()).unwrap();
        let Some(Json::Arr(events)) = doc.get("traceEvents") else { panic!("traceEvents") };
        let tracks: Vec<(i64, i64, &str)> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .map(|e| {
                let int = |k| e.get(k).and_then(Json::as_i64).unwrap();
                let trace = e.get("args").and_then(|a| a.get("trace_id")).and_then(Json::as_str);
                (int("pid"), int("tid"), trace.unwrap())
            })
            .collect();
        assert_eq!(
            tracks,
            [(1, 2, "0000000000000009"), (1, 1, "0000000000000004"), (2, 2, "0000000000000009")]
        );
    }

    /// A traced job's two scheduler spans under request span `request`:
    /// queue-wait over `enqueued..started` and compute over
    /// `started+1..finished`.
    fn job_spans(
        request: u64,
        digest: &str,
        op: &str,
        class: &str,
        promoted: bool,
        [enqueued, started, finished]: [u64; 3],
    ) -> [Span; 2] {
        let mut wait = span(request, request * 10, Some(request), "queue-wait", enqueued, 0);
        wait.dur_ns = started - enqueued;
        wait.attrs = vec![
            ("class".into(), class.into()),
            ("digest".into(), digest.into()),
            ("op".into(), op.into()),
            ("promoted".into(), promoted.to_string()),
        ];
        let mut compute = span(request, request * 10 + 1, Some(request), "compute", started + 1, 0);
        compute.dur_ns = finished - started - 1;
        compute.attrs = vec![("ok".into(), "true".into())];
        [wait, compute]
    }

    #[test]
    fn gantt_shows_lifecycle_phases_per_job() {
        // The bulk job queues through the interactive job's whole run,
        // then is promoted, starts and finishes.
        let [bulk_wait, bulk_compute] =
            job_spans(1, "aaaaaaaaaaaaaaaa", "sweep", "bulk", true, [0, 40, 50]);
        let [fast_wait, fast_compute] =
            job_spans(2, "bbbbbbbbbbbbbbbb", "autolb", "interactive", false, [10, 20, 30]);
        let dump = TraceDump {
            daemon: "127.0.0.1:7341".into(),
            window: 16,
            recorded: 5,
            dropped: 0,
            // Recording order is compute-last per job, and a request
            // span of its own is no lane.
            spans: vec![
                fast_wait,
                fast_compute,
                bulk_wait,
                bulk_compute,
                span(2, 2, None, "request", 10, 25),
            ],
        };
        let gantt = render_gantt(&[dump]);
        let lines: Vec<&str> = gantt.lines().collect();
        assert_eq!(lines.len(), 3, "{gantt}");
        assert_eq!(lines[0], "daemon 127.0.0.1:7341: 2 traced job(s), 7 event(s)");
        // Digests are truncated; lanes run in enqueue order.
        assert_eq!(
            lines[1],
            format!("{:<12} {:<10} {:<11}|E...PSF", "aaaaaaaaaaaa", "sweep", "bulk")
        );
        assert_eq!(
            lines[2],
            format!("{:<12} {:<10} {:<11}| ESF", "bbbbbbbbbbbb", "autolb", "interactive")
        );
    }

    #[test]
    fn gantt_marks_failures_and_running_jobs_per_daemon() {
        let [failed_wait, mut failed] =
            job_spans(1, "cccc", "iterate", "interactive", false, [0, 5, 20]);
        failed.attrs = vec![("ok".into(), "false".into())];
        let [running_wait, _] = job_spans(2, "dddd", "sweep", "bulk", false, [1, 21, 22]);
        let dump = |daemon: &str, spans| TraceDump {
            daemon: daemon.into(),
            window: 16,
            recorded: 3,
            dropped: 0,
            spans,
        };
        let gantt = render_gantt(&[
            dump("a", vec![failed_wait, failed, running_wait]),
            dump("b", Vec::new()),
        ]);
        let lines: Vec<&str> = gantt.lines().collect();
        assert_eq!(lines.len(), 4, "{gantt}");
        assert!(lines[1].ends_with("|E.SX"), "a failed job finishes with X: {gantt}");
        assert!(lines[2].ends_with("| E..S"), "a job still running has no finish: {gantt}");
        assert_eq!(lines[3], "daemon b: 0 traced job(s), 0 event(s)");
    }

    #[test]
    fn escaped_strings_stay_valid_json() {
        let dump = TraceDump {
            daemon: "weird\"host\\name\n\u{1}:1".into(),
            window: 1,
            recorded: 0,
            dropped: 0,
            spans: vec![],
        };
        let chrome = render_chrome(&[dump]);
        assert!(Json::parse(chrome.trim_end()).is_ok(), "{chrome}");
        assert_eq!(
            chrome,
            "{\"traceEvents\":[{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
             \"args\":{\"name\":\"weird\\\"host\\\\name\\n\\u0001:1\"}}]}\n"
        );
    }
}
