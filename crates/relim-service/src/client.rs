//! A blocking client for the daemon's JSON-lines protocol.
//!
//! One TCP connection per call, made through [`crate::wire::roundtrip`]
//! (the protocol allows pipelining on a kept connection, but the CLI and
//! the bench kernels are one-shot callers). Connection setup costs tens
//! of microseconds on loopback, small next to a round-elimination job.
//! The per-call timeout bounds the connect as well as every read and
//! write.

use crate::ops::OpRequest;
use crate::protocol::{self, PingInfo};
use crate::queue::Class;
use crate::trace::{TraceContext, TraceDump};
use crate::wire::{self, WireError};
use relim_json::Json;
use std::time::Duration;

/// A client error: connection failures, protocol violations, or an
/// `ok: false` response (with the server's `error` text).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientError(pub String);

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ClientError {}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> ClientError {
        ClientError(e.message)
    }
}

/// `Ok` when the response says `ok: true`; otherwise the server's
/// `error` text behind `context`.
fn require_ok(doc: &Json, context: &str) -> Result<(), ClientError> {
    if doc.get("ok").and_then(Json::as_bool) == Some(true) {
        return Ok(());
    }
    let error = doc.get("error").and_then(Json::as_str).unwrap_or("unspecified error");
    Err(ClientError(format!("{context}: {error}")))
}

/// The string field `key` of a response (`what` names it in the error).
fn str_field(doc: &Json, what: &str, key: &str) -> Result<String, ClientError> {
    doc.get(key)
        .and_then(Json::as_str)
        .map(str::to_owned)
        .ok_or_else(|| ClientError(format!("{what} missing `{key}`")))
}

/// A successful job response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobReply {
    /// Whether the result was served from the content-addressed store.
    pub cached: bool,
    /// The content address of the query.
    pub digest: String,
    /// The canonical result text — byte-identical to the same query run
    /// in-process.
    pub result: String,
}

/// A blocking protocol client bound to one daemon address.
#[derive(Debug, Clone)]
pub struct Client {
    addr: String,
    timeout: Duration,
}

impl Client {
    /// A client for the daemon at `addr` (e.g. `127.0.0.1:7341`), with a
    /// 10-minute I/O timeout (bulk sweeps are slow by design).
    pub fn new(addr: impl Into<String>) -> Client {
        Client { addr: addr.into(), timeout: Duration::from_secs(600) }
    }

    /// Overrides the per-call timeout, which bounds the connect as well
    /// as every read and write.
    #[must_use]
    pub fn with_timeout(mut self, timeout: Duration) -> Client {
        self.timeout = timeout;
        self
    }

    /// The daemon address this client talks to.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Submits a job, optionally overriding its scheduling class.
    ///
    /// # Errors
    ///
    /// Connection/protocol failures and server-side errors.
    pub fn submit(&self, op: &OpRequest, class: Option<Class>) -> Result<JobReply, ClientError> {
        self.submit_traced(op, class, None)
    }

    /// Like [`Client::submit`], optionally stamping the request with a
    /// trace context (see [`crate::trace`]): a stamped request has its
    /// spans recorded on every daemon it reaches. The response — and
    /// the served bytes — are identical with or without one.
    ///
    /// # Errors
    ///
    /// Connection/protocol failures and server-side errors.
    pub fn submit_traced(
        &self,
        op: &OpRequest,
        class: Option<Class>,
        trace: Option<&TraceContext>,
    ) -> Result<JobReply, ClientError> {
        let line = protocol::render_job_request_traced(op, class, None, trace);
        let doc = self.raw_roundtrip(&line)?;
        require_ok(&doc, "server refused the job")?;
        Ok(JobReply {
            cached: doc
                .get("cached")
                .and_then(Json::as_bool)
                .ok_or_else(|| ClientError("response missing `cached`".into()))?,
            digest: str_field(&doc, "response", "digest")?,
            result: str_field(&doc, "response", "result")?,
        })
    }

    /// Fetches the daemon counters (the `counters` object of a `status`
    /// response).
    ///
    /// # Errors
    ///
    /// Connection/protocol failures.
    pub fn status(&self) -> Result<Json, ClientError> {
        let doc = self.raw_roundtrip(&protocol::render_admin_request("status", None))?;
        doc.get("counters")
            .cloned()
            .ok_or_else(|| ClientError("status response missing `counters`".into()))
    }

    /// Fetches the counters as Prometheus text exposition (the
    /// `metrics` string of a `metrics` response).
    ///
    /// # Errors
    ///
    /// Connection/protocol failures.
    pub fn metrics(&self) -> Result<String, ClientError> {
        let doc = self.raw_roundtrip(&protocol::render_admin_request("metrics", None))?;
        str_field(&doc, "metrics response", "metrics")
    }

    /// Fetches one stored entry by content address: `Some((key,
    /// result))` when the daemon holds the digest under a key that
    /// re-digests to it, `None` for a clean miss (the `fetch` op never
    /// treats a cold cache as an error).
    ///
    /// # Errors
    ///
    /// Connection/protocol failures and server-refused requests.
    pub fn fetch(&self, digest: &str) -> Result<Option<(String, String)>, ClientError> {
        let doc = self.raw_roundtrip(&protocol::render_fetch_request(digest, None))?;
        require_ok(&doc, "fetch failed")?;
        if doc.get("found").and_then(Json::as_bool) != Some(true) {
            return Ok(None);
        }
        Ok(Some((
            str_field(&doc, "fetch response", "key")?,
            str_field(&doc, "fetch response", "result")?,
        )))
    }

    /// Pings the daemon: `(uptime_ms, store_entries)` on a pong (see
    /// [`Client::ping_info`]).
    ///
    /// # Errors
    ///
    /// Connection/protocol failures and pong-less responses.
    pub fn ping(&self) -> Result<(u64, u64), ClientError> {
        self.ping_info().map(|info| (info.uptime_ms, info.store_entries))
    }

    /// Pings the daemon and returns the full pong: uptime, store size
    /// and the span window capacity with its drop count —
    /// what `relim trace --peers` uses to warn about incomplete merges.
    /// Fields an older daemon does not send read as zero. This is the
    /// one pong parser: `relim ping` and the fleet's breaker probe both
    /// come through here.
    ///
    /// # Errors
    ///
    /// Connection/protocol failures and pong-less responses.
    pub fn ping_info(&self) -> Result<PingInfo, ClientError> {
        let doc = self.raw_roundtrip(&protocol::render_admin_request("ping", None))?;
        if doc.get("pong").and_then(Json::as_bool) != Some(true) {
            return Err(ClientError(format!("{} answered ping without a pong", self.addr)));
        }
        Ok(PingInfo::from_json(&doc))
    }

    /// Dumps the daemon's recorded spans, optionally filtered to one
    /// trace id. A daemon that holds no span of that trace answers
    /// with an empty dump, not an error.
    ///
    /// # Errors
    ///
    /// Connection/protocol failures and malformed dumps.
    pub fn trace_dump(&self, trace_id: Option<u64>) -> Result<TraceDump, ClientError> {
        let doc = self.raw_roundtrip(&protocol::render_trace_request(trace_id, None))?;
        require_ok(&doc, "trace dump failed")?;
        let trace =
            doc.get("trace").ok_or_else(|| ClientError("trace response missing `trace`".into()))?;
        TraceDump::parse(trace).map_err(ClientError)
    }

    /// Requests a graceful shutdown and waits for the acknowledgement.
    ///
    /// # Errors
    ///
    /// Connection/protocol failures.
    pub fn shutdown(&self) -> Result<(), ClientError> {
        let doc = self.raw_roundtrip(&protocol::render_admin_request("shutdown", None))?;
        match doc.get("shutting_down").and_then(Json::as_bool) {
            Some(true) => Ok(()),
            _ => Err(ClientError("shutdown was not acknowledged".into())),
        }
    }

    /// Sends one raw line and parses the one-line response — the
    /// building block of the typed calls, exposed for protocol tests.
    ///
    /// # Errors
    ///
    /// Connection failures and unparsable responses.
    pub fn raw_roundtrip(&self, line: &str) -> Result<Json, ClientError> {
        Ok(wire::roundtrip(&self.addr, line, self.timeout)?)
    }
}
