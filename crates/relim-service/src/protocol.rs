//! The wire protocol: JSON lines over TCP.
//!
//! **Framing.** Each message is one JSON object serialized compactly
//! ([`relim_json::Json::render_compact`] — string values escape their
//! newlines, so a message can never contain a raw `\n`) followed by a
//! single `\n`. Requests and responses alternate per connection; a
//! client may keep a connection open and pipeline further requests after
//! each response, or reconnect per request — the daemon is
//! thread-per-connection either way.
//!
//! **Requests.** A job request names its operation and parameters (see
//! [`OpRequest::from_json`]) plus two optional envelope fields: `id`
//! (an integer echoed verbatim in the response) and `priority`
//! (`interactive` / `bulk`, defaulting per operation — sweeps are bulk).
//! The admin requests are `{"op": "status"}`, `{"op": "metrics"}`
//! (Prometheus text exposition of the same counters), `{"op": "fetch",
//! "digest": …}` (the one read of a stored entry by content address, used by
//! fleet peers and `relim viz` alike: the entry's key must re-digest
//! to the address, and a miss is an `ok` response with `found: false`
//! rather than an error, so a cold cache is not a fault),
//! `{"op": "ping"}` (liveness: uptime, store entry count and the
//! span-window health a fleet prober wants — see [`PingInfo`]),
//! `{"op": "trace", "trace_id": …}` (a dump of the span log, the
//! daemon's one bounded log, optionally filtered to one trace) and
//! `{"op": "shutdown"}`.
//!
//! **Trace propagation.** Job and fetch requests carry two further
//! optional envelope fields: `trace_id` and `parent_span`, both 16-digit
//! hex (see [`crate::trace`]). They are the one tracing switch: a
//! request that carries them has its spans recorded on every daemon it
//! reaches, a request without them records nothing, and no daemon
//! mints a context of its own, so old clients keep working unchanged.
//! Present-but-malformed ids are refused like any other protocol error.
//! Responses never grow trace fields: served bytes stay byte-identical
//! traced or not.
//!
//! **Responses.** Every response carries `ok` (bool) and the echoed
//! `id` when one was given. Successful job responses add `cached`
//! (whether the result came from the store), `digest` (the content
//! address) and `result` (the canonical text — byte-identical to the
//! same query run in-process). Status responses carry a `counters`
//! object; metrics responses a `metrics` string (the exposition text);
//! trace responses a `trace` object (the span dump); fetch responses `digest`, `found` and, when found, `key`/`result`;
//! shutdown responses `{"shutting_down": true}`. Failures carry
//! `error`.

use crate::ops::{OpRequest, Prepared};
use crate::queue::Class;
use crate::trace::TraceContext;
use relim_json::Json;

/// A parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Echo token, when the client sent one.
    pub id: Option<i64>,
    /// What is being asked.
    pub body: RequestBody,
}

/// The request payload.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestBody {
    /// A round-elimination job with its (possibly overridden) class.
    Job {
        /// The operation.
        op: OpRequest,
        /// Its problem, canonical key and digest, computed by the one
        /// parse of the constraint text that validated it.
        prepared: Prepared,
        /// Scheduling class: the `priority` field, or the operation's
        /// default ([`OpRequest::is_bulk`]).
        class: Class,
        /// The propagated trace context, when the client sent one.
        trace: Option<TraceContext>,
    },
    /// Counter snapshot request.
    Status,
    /// Prometheus text-exposition scrape of the same counters.
    Metrics,
    /// The verified read of one stored entry by content address (a
    /// fleet peer's read-through, `relim viz --addr`): the entry, or a
    /// non-error miss (`found: false`).
    Fetch {
        /// The content address to fetch.
        digest: String,
        /// The propagated trace context, when the requester sent one.
        trace: Option<TraceContext>,
    },
    /// Liveness probe: uptime, store entry count and window health.
    Ping,
    /// Span dump, optionally filtered to one trace id.
    Trace {
        /// Only spans of this trace, when given; the whole window
        /// otherwise.
        trace_id: Option<u64>,
    },
    /// Graceful shutdown request.
    Shutdown,
}

/// Parses one request line.
///
/// # Errors
///
/// A human-readable message (also suitable as the `error` field of the
/// failure response).
pub fn parse_request(line: &str) -> Result<Request, String> {
    let doc = Json::parse(line.trim_end())?;
    let id = doc.get("id").and_then(Json::as_i64);
    let op_name = doc
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| "missing or non-string field `op`".to_owned())?;
    let body = match op_name {
        "status" => RequestBody::Status,
        "metrics" => RequestBody::Metrics,
        "fetch" => {
            let digest = doc
                .get("digest")
                .and_then(Json::as_str)
                .ok_or_else(|| "fetch requires a string field `digest`".to_owned())?;
            RequestBody::Fetch { digest: digest.to_owned(), trace: parse_trace_context(&doc)? }
        }
        "ping" => RequestBody::Ping,
        "trace" => {
            let trace_id = match doc.get("trace_id") {
                None => None,
                Some(v) => Some(parse_hex_field(v, "trace_id")?),
            };
            RequestBody::Trace { trace_id }
        }
        "shutdown" => RequestBody::Shutdown,
        _ => {
            // `OpRequest::from_json`, with its validation done by the
            // one parse that also yields the key and digest.
            let op = OpRequest::fields_from_json(&doc).map_err(|e| e.to_string())?;
            let prepared = op.prepare().map_err(|e| e.to_string())?;
            let class = match doc.get("priority").and_then(Json::as_str) {
                None => {
                    if op.is_bulk() {
                        Class::Bulk
                    } else {
                        Class::Interactive
                    }
                }
                Some(s) => Class::parse(s)?,
            };
            RequestBody::Job { op, prepared, class, trace: parse_trace_context(&doc)? }
        }
    };
    Ok(Request { id, body })
}

/// A hex id field; present-but-malformed is a protocol error.
fn parse_hex_field(value: &Json, key: &str) -> Result<u64, String> {
    value
        .as_str()
        .and_then(crate::trace::parse_id)
        .ok_or_else(|| format!("field `{key}` must be 1-16 hex digits"))
}

/// The optional propagated trace context of a job or fetch request:
/// `None` when `trace_id` is absent (fresh trace), an error when either
/// id field is present but malformed. A `parent_span` without a
/// `trace_id` is meaningless and refused.
fn parse_trace_context(doc: &Json) -> Result<Option<TraceContext>, String> {
    let trace_id = match doc.get("trace_id") {
        None => {
            if doc.get("parent_span").is_some() {
                return Err("`parent_span` requires a `trace_id`".to_owned());
            }
            return Ok(None);
        }
        Some(v) => parse_hex_field(v, "trace_id")?,
    };
    let parent = match doc.get("parent_span") {
        None => None,
        Some(v) => Some(parse_hex_field(v, "parent_span")?),
    };
    Ok(Some(TraceContext { trace_id, parent }))
}

/// The optional `trace_id`/`parent_span` wire fields of an outgoing
/// request.
fn trace_fields(trace: Option<&TraceContext>) -> Vec<(String, Json)> {
    let mut fields = Vec::new();
    if let Some(ctx) = trace {
        fields.push(("trace_id".to_owned(), Json::str(crate::trace::render_id(ctx.trace_id))));
        if let Some(parent) = ctx.parent {
            fields.push(("parent_span".to_owned(), Json::str(crate::trace::render_id(parent))));
        }
    }
    fields
}

/// One message line: the echoed `id` when there is one, then `fields`
/// in order, rendered compactly (so the line holds no raw `\n`).
fn message<K: Into<String>>(
    id: Option<i64>,
    fields: impl IntoIterator<Item = (K, Json)>,
) -> String {
    let id = id.map(|id| ("id".to_owned(), Json::Int(id)));
    let fields = fields.into_iter().map(|(k, v)| (k.into(), v));
    Json::Obj(id.into_iter().chain(fields).collect()).render_compact()
}

/// Renders a request line for a job (the client side of
/// [`parse_request`]).
pub fn render_job_request(op: &OpRequest, class: Option<Class>, id: Option<i64>) -> String {
    render_job_request_traced(op, class, id, None)
}

/// [`render_job_request`] carrying a propagated trace context.
pub fn render_job_request_traced(
    op: &OpRequest,
    class: Option<Class>,
    id: Option<i64>,
    trace: Option<&TraceContext>,
) -> String {
    let priority = class.map(|class| ("priority".to_owned(), Json::str(class.as_str())));
    message(id, op.to_json_fields().into_iter().chain(priority).chain(trace_fields(trace)))
}

/// Renders an admin request line (`status` / `shutdown`).
pub fn render_admin_request(op: &str, id: Option<i64>) -> String {
    message(id, [("op", Json::str(op))])
}

/// Renders a successful job response line.
pub fn render_job_response(id: Option<i64>, cached: bool, digest: &str, result: &str) -> String {
    message(
        id,
        [
            ("ok", Json::Bool(true)),
            ("cached", Json::Bool(cached)),
            ("digest", Json::str(digest)),
            ("result", Json::str(result)),
        ],
    )
}

/// Renders a metrics response line around the exposition text.
pub fn render_metrics_response(id: Option<i64>, metrics: &str) -> String {
    message(id, [("ok", Json::Bool(true)), ("metrics", Json::str(metrics))])
}

/// Renders a fetch request line (the client side of the `fetch` op).
pub fn render_fetch_request(digest: &str, id: Option<i64>) -> String {
    render_fetch_request_traced(digest, id, None)
}

/// [`render_fetch_request`] carrying a propagated trace context, so the
/// owner's `fetch-serve` span links under the requester's per-attempt
/// `peer-fetch` span.
pub fn render_fetch_request_traced(
    digest: &str,
    id: Option<i64>,
    trace: Option<&TraceContext>,
) -> String {
    let fields = [("op".to_owned(), Json::str("fetch")), ("digest".to_owned(), Json::str(digest))];
    message(id, fields.into_iter().chain(trace_fields(trace)))
}

/// Renders a trace-dump request line (the client side of the `trace`
/// op).
pub fn render_trace_request(trace_id: Option<u64>, id: Option<i64>) -> String {
    let filter = trace_id.map(|t| ("trace_id", Json::str(crate::trace::render_id(t))));
    message(id, [("op", Json::str("trace"))].into_iter().chain(filter))
}

/// Renders a trace response line around a span-dump object (see
/// [`crate::trace::TraceSnapshot::to_json`]).
pub fn render_trace_response(id: Option<i64>, trace: Json) -> String {
    message(id, [("ok", Json::Bool(true)), ("trace", trace)])
}

/// Renders a fetch response line: `found: true` with the stored key and
/// result, or `found: false` for a miss — both `ok`, because a peer's
/// cold cache is an answer, not a fault.
pub fn render_fetch_response(id: Option<i64>, digest: &str, entry: Option<(&str, &str)>) -> String {
    let mut fields = vec![("ok", Json::Bool(true)), ("digest", Json::str(digest))];
    match entry {
        Some((key, result)) => fields.extend([
            ("found", Json::Bool(true)),
            ("key", Json::str(key)),
            ("result", Json::str(result)),
        ]),
        None => fields.push(("found", Json::Bool(false))),
    }
    message(id, fields)
}

/// The payload of a ping response: liveness plus the cheap health
/// readings a prober (or `relim trace --peers`) wants — uptime, store
/// entry count, and the capacity and dropped count of the daemon's
/// span log. A nonzero dropped count means dumps from that window are
/// known-incomplete.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PingInfo {
    /// Milliseconds since the daemon started.
    pub uptime_ms: u64,
    /// Entries in the result store.
    pub store_entries: u64,
    /// The span-log capacity.
    pub span_window: u64,
    /// Spans dropped out of the window.
    pub span_dropped: u64,
}

impl PingInfo {
    /// Parses the fields back out of a ping response document. Fields
    /// an older daemon does not send read as zero.
    pub fn from_json(doc: &Json) -> PingInfo {
        let int = |key: &str| doc.get(key).and_then(Json::as_i64).unwrap_or(0).max(0) as u64;
        PingInfo {
            uptime_ms: int("uptime_ms"),
            store_entries: int("store_entries"),
            span_window: int("span_window"),
            span_dropped: int("span_dropped"),
        }
    }
}

/// Renders a ping response line (see [`PingInfo`]).
pub fn render_ping_response(id: Option<i64>, info: &PingInfo) -> String {
    let int = |v: u64| Json::Int(v as i64);
    message(
        id,
        [
            ("ok", Json::Bool(true)),
            ("pong", Json::Bool(true)),
            ("uptime_ms", int(info.uptime_ms)),
            ("store_entries", int(info.store_entries)),
            ("span_window", int(info.span_window)),
            ("span_dropped", int(info.span_dropped)),
        ],
    )
}

/// Renders a status response line around a `counters` object.
pub fn render_status_response(id: Option<i64>, counters: Json) -> String {
    message(id, [("ok", Json::Bool(true)), ("counters", counters)])
}

/// Renders a shutdown acknowledgement line.
pub fn render_shutdown_response(id: Option<i64>) -> String {
    message(id, [("ok", Json::Bool(true)), ("shutting_down", Json::Bool(true))])
}

/// Renders a failure response line.
pub fn render_error_response(id: Option<i64>, error: &str) -> String {
    message(id, [("ok", Json::Bool(false)), ("error", Json::str(error))])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_request_round_trip_with_defaults() {
        let op = OpRequest::auto_lb("M M M;P O O", "M [P O];O O").unwrap();
        let line = render_job_request(&op, None, Some(7));
        assert!(!line.contains('\n'));
        let req = parse_request(&line).unwrap();
        assert_eq!(req.id, Some(7));
        match req.body {
            RequestBody::Job { op: parsed, prepared, class, trace } => {
                assert_eq!(parsed, op);
                assert_eq!(prepared.key(), op.canonical_key().unwrap());
                assert_eq!(prepared.digest(), op.digest().unwrap());
                assert_eq!(class, Class::Interactive, "autolb defaults to interactive");
                assert_eq!(trace, None, "no trace fields means a fresh trace");
            }
            other => panic!("not a job: {other:?}"),
        }
    }

    #[test]
    fn sweep_defaults_to_bulk_and_priority_overrides() {
        let op = OpRequest::sweep(4, 8).unwrap();
        let line = render_job_request(&op, None, None);
        let RequestBody::Job { class, .. } = parse_request(&line).unwrap().body else {
            panic!("not a job")
        };
        assert_eq!(class, Class::Bulk);
        let line = render_job_request(&op, Some(Class::Interactive), None);
        let RequestBody::Job { class, .. } = parse_request(&line).unwrap().body else {
            panic!("not a job")
        };
        assert_eq!(class, Class::Interactive);
    }

    #[test]
    fn admin_requests_parse() {
        assert_eq!(
            parse_request(&render_admin_request("status", None)).unwrap().body,
            RequestBody::Status
        );
        assert_eq!(
            parse_request(&render_admin_request("metrics", None)).unwrap().body,
            RequestBody::Metrics
        );
        // The retired `lookup` and `timeline` ops read as any other
        // unknown op.
        for retired in ["lookup", "timeline"] {
            let err = parse_request(&render_admin_request(retired, None)).unwrap_err();
            assert!(err.contains(&format!("unknown op `{retired}`")), "{err}");
        }
        assert_eq!(
            parse_request(&render_admin_request("shutdown", Some(3))).unwrap(),
            Request { id: Some(3), body: RequestBody::Shutdown }
        );
    }

    #[test]
    fn trace_context_round_trips_and_rejects_garbage() {
        let op = OpRequest::auto_lb("M M M;P O O", "M [P O];O O").unwrap();
        let ctx = TraceContext { trace_id: 0xdead_beef, parent: Some(7) };
        let line = render_job_request_traced(&op, None, None, Some(&ctx));
        let RequestBody::Job { trace, .. } = parse_request(&line).unwrap().body else {
            panic!("not a job")
        };
        assert_eq!(trace, Some(ctx), "the context survives the wire");

        let line = render_fetch_request_traced("abc123", None, Some(&ctx));
        let RequestBody::Fetch { trace, .. } = parse_request(&line).unwrap().body else {
            panic!("not a fetch")
        };
        assert_eq!(trace, Some(ctx));

        // The trace-dump op, filtered and unfiltered.
        assert_eq!(
            parse_request(&render_trace_request(Some(0xabc), Some(4))).unwrap(),
            Request { id: Some(4), body: RequestBody::Trace { trace_id: Some(0xabc) } }
        );
        assert_eq!(
            parse_request(&render_trace_request(None, None)).unwrap().body,
            RequestBody::Trace { trace_id: None }
        );

        // Present-but-malformed ids are protocol errors, not guesses.
        for bad in [
            "{\"op\": \"zero-round\", \"node\": \"A A\", \"edge\": \"A A\", \"trace_id\": \"zz\"}",
            "{\"op\": \"zero-round\", \"node\": \"A A\", \"edge\": \"A A\", \
             \"trace_id\": \"1\", \"parent_span\": \"\"}",
            "{\"op\": \"zero-round\", \"node\": \"A A\", \"edge\": \"A A\", \
             \"parent_span\": \"1\"}",
            "{\"op\": \"fetch\", \"digest\": \"abc\", \"trace_id\": \"not hex\"}",
            "{\"op\": \"trace\", \"trace_id\": \"xyz\"}",
        ] {
            assert!(parse_request(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn fleet_requests_parse_and_render() {
        assert_eq!(
            parse_request(&render_fetch_request("abc123", Some(2))).unwrap(),
            Request {
                id: Some(2),
                body: RequestBody::Fetch { digest: "abc123".into(), trace: None }
            }
        );
        assert!(
            parse_request(&render_admin_request("fetch", None)).unwrap_err().contains("digest"),
            "fetch without a digest is refused"
        );
        assert_eq!(
            parse_request(&render_admin_request("ping", Some(8))).unwrap(),
            Request { id: Some(8), body: RequestBody::Ping }
        );
        let hit = render_fetch_response(None, "abc", Some(("the\nkey", "the\nresult")));
        let doc = Json::parse(&hit).unwrap();
        assert_eq!(doc.get("found").and_then(Json::as_bool), Some(true));
        assert_eq!(doc.get("key").and_then(Json::as_str), Some("the\nkey"));
        let miss = render_fetch_response(Some(1), "abc", None);
        let doc = Json::parse(&miss).unwrap();
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true), "a miss is not a fault");
        assert_eq!(doc.get("found").and_then(Json::as_bool), Some(false));
        assert!(doc.get("result").is_none());
        let info =
            PingInfo { uptime_ms: 1234, store_entries: 7, span_window: 4096, span_dropped: 2 };
        let pong = Json::parse(&render_ping_response(None, &info)).unwrap();
        assert_eq!(pong.get("pong").and_then(Json::as_bool), Some(true));
        assert_eq!(pong.get("uptime_ms").and_then(Json::as_i64), Some(1234));
        assert_eq!(pong.get("store_entries").and_then(Json::as_i64), Some(7));
        assert_eq!(pong.get("span_window").and_then(Json::as_i64), Some(4096));
        assert_eq!(PingInfo::from_json(&pong), info, "the health readings round-trip");
        // An old daemon's pong (no window fields) parses with zeros.
        let old = Json::parse("{\"ok\": true, \"pong\": true, \"uptime_ms\": 5}").unwrap();
        assert_eq!(PingInfo::from_json(&old).span_window, 0);
    }

    #[test]
    fn malformed_requests_are_described() {
        assert!(parse_request("not json").is_err());
        assert!(parse_request("{}").unwrap_err().contains("op"));
        assert!(parse_request("{\"op\": \"autolb\"}").unwrap_err().contains("node"));
        let err = parse_request(
            "{\"op\": \"zero-round\", \"node\": \"A A\", \"edge\": \"A A\", \
             \"priority\": \"urgent\"}",
        )
        .unwrap_err();
        assert!(err.contains("interactive|bulk"), "{err}");
        // Two requests framed into one line violate the protocol.
        let op = OpRequest::zero_round("A A", "A A").unwrap();
        let doubled = format!("{} {}", render_job_request(&op, None, None), "{\"op\":\"status\"}");
        assert!(parse_request(&doubled).unwrap_err().contains("trailing content"));
    }

    #[test]
    fn responses_render_one_line_and_echo_ids() {
        for line in [
            render_job_response(Some(1), true, "abc", "multi\nline\nresult"),
            render_status_response(None, Json::Obj(vec![("x".into(), Json::Int(1))])),
            render_metrics_response(Some(4), "# TYPE relim_x counter\nrelim_x 1\n"),
            render_fetch_response(Some(6), "abc", Some(("key\ntext", "result\ntext"))),
            render_fetch_response(None, "abc", None),
            render_ping_response(
                Some(7),
                &PingInfo { uptime_ms: 99, store_entries: 3, ..PingInfo::default() },
            ),
            render_trace_request(Some(0xfeed), Some(8)),
            render_trace_response(
                None,
                crate::trace::SpanLog::new(1).snapshot(None).to_json("127.0.0.1:7341"),
            ),
            render_shutdown_response(Some(2)),
            render_error_response(None, "boom"),
        ] {
            assert!(!line.contains('\n'), "{line}");
            assert!(Json::parse(&line).is_ok(), "{line}");
        }
        let doc = Json::parse(&render_job_response(Some(1), true, "abc", "r")).unwrap();
        assert_eq!(doc.get("id").and_then(Json::as_i64), Some(1));
        assert_eq!(doc.get("cached").and_then(Json::as_bool), Some(true));
    }
}
