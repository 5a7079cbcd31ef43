//! The fleet tier: remote peers as a read-through store layer.
//!
//! A daemon configured with `--peers` joins a **fleet**: the digest
//! space is partitioned by the deterministic consistent-hash ring
//! ([`crate::ring`]) over the peer addresses *plus this daemon's own*,
//! and a cold local query whose address belongs to a remote owner is
//! first **fetched** from that owner over the ordinary JSON-lines
//! protocol (`{"op": "fetch", "digest": …}`) before falling back to
//! local compute. Because results are pure functions of their canonical
//! key, a fetched byte is exactly the byte a local run would produce —
//! the fleet changes *where* work happens, never *what* is served.
//!
//! ## Trust
//!
//! A peer's answer is verified before it is believed: the returned
//! canonical key must equal the requested key byte-for-byte, and its
//! digest must re-derive to the requested address. A lying or corrupt
//! peer therefore degrades to a local compute (a counted miss), never
//! to wrong bytes — the same "verify the full key on every hit"
//! discipline the local store applies.
//!
//! ## Failure: timeouts, retries, the breaker
//!
//! Every peer call runs under a connect/read/write timeout and is
//! retried `RETRIES` (2) times, waiting `BACKOFF` (50 ms) before the
//! first retry and doubling per retry. Each *consecutive* failure feeds
//! the peer's **circuit breaker**; at `BREAKER_THRESHOLD` (3) failures
//! the breaker opens and the peer is skipped outright — requests
//! degrade to local compute immediately (counted, so the scrape shows
//! the degradation) instead of stalling every cold query on a dead
//! host. Recovery is **not paid by live requests**: the daemon's
//! background prober thread calls [`Fleet::probe_open_breakers`],
//! which — once `BREAKER_COOLDOWN` (5 s) has elapsed — probes each Open
//! peer with the same `{"op": "ping"}` the CLI's `relim ping` sends
//! (liveness probing and breaker recovery are one code path). A pong
//! closes the breaker, a failure re-arms the cooldown; both outcomes
//! are counted (`probe_ok` / `probe_err`) and scraped as
//! `relim_peer_probe_*`.
//!
//! ## Tracing
//!
//! When the triggering request is traced (see [`crate::trace`]), each
//! fetch attempt — and each breaker rejection — is recorded as a
//! `peer-fetch` span carrying the attempt number and breaker state, and
//! the outgoing fetch line carries the trace context with that attempt's
//! span as the parent, so the owner's `fetch-serve` span links under it
//! across the wire.
//!
//! Determinism contract: a fleet with unreachable peers returns the
//! same bytes as a fleet with none, which returns the same bytes as a
//! lone daemon — only latency and the degradation counters differ.

use crate::client::Client;
use crate::protocol::{self, PingInfo};
use crate::ring::Ring;
use crate::store::digest_of;
use crate::trace::Tracer;
use crate::wire;
use relim_json::Json;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Extra fetch attempts after the first failed one.
const RETRIES: u32 = 2;
/// The wait before the first retry; each later retry waits twice as
/// long as the one before.
const BACKOFF: Duration = Duration::from_millis(50);
/// Consecutive failures that open a peer's breaker: `RETRIES + 1`, so
/// one fully failed fetch against a dead owner trips it and the next
/// request already degrades instantly.
const BREAKER_THRESHOLD: u32 = RETRIES + 1;
/// How long an open breaker rejects outright before the background
/// prober pings the peer.
const BREAKER_COOLDOWN: Duration = Duration::from_secs(5);

/// The outcome of a remote fetch against an address's owner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FetchOutcome {
    /// The owner served the entry and it verified (key and digest
    /// match). The caller writes it through to the local store.
    Hit(String),
    /// The owner answered but has nothing stored (or served an entry
    /// that failed verification — equally untrusted): compute locally.
    Miss,
    /// The owner is unreachable (breaker open, or every attempt failed
    /// or timed out): compute locally and count the degradation.
    Unavailable,
}

/// The circuit-breaker state of one peer.
enum BreakerState {
    /// Normal operation, counting consecutive failures.
    Closed {
        /// Failures since the last success.
        consecutive_failures: u32,
    },
    /// Tripped: requests are rejected without touching the network
    /// until `since` is `BREAKER_COOLDOWN` old, then one probe runs.
    Open {
        /// When the breaker tripped (or last re-tripped on a failed
        /// probe).
        since: Instant,
    },
}

/// The per-peer counters in counters-tree spelling and key order:
/// fetch attempts by result, closed→open breaker transitions, and
/// background probes that ponged (closing the breaker) or failed
/// (re-arming the cooldown).
const PEER_COUNTERS: [&str; 6] =
    ["fetch_ok", "fetch_err", "fetch_timeout", "breaker_open", "probe_ok", "probe_err"];
const FETCH_OK: usize = 0;
const FETCH_ERR: usize = 1;
const FETCH_TIMEOUT: usize = 2;
const BREAKER_OPEN: usize = 3;
const PROBE_OK: usize = 4;
const PROBE_ERR: usize = 5;

/// The fleet-level read-through outcomes, after the summed peer
/// counters in the `peer` object: verified remote hits, answered
/// misses, and unreachable owners (each computed locally).
const FLEET_COUNTERS: [&str; 3] = ["remote_hits", "remote_misses", "degraded_local"];

/// A remote-store client for one fleet peer: timeouts, bounded retries,
/// a circuit breaker, and per-peer counters.
pub struct PeerClient {
    addr: String,
    timeout: Duration,
    /// Indexed like [`PEER_COUNTERS`].
    counts: [AtomicU64; PEER_COUNTERS.len()],
    breaker: Mutex<BreakerState>,
}

impl std::fmt::Debug for PeerClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PeerClient").field("addr", &self.addr).finish_non_exhaustive()
    }
}

impl PeerClient {
    fn new(addr: String, timeout: Duration) -> PeerClient {
        PeerClient {
            addr,
            timeout,
            counts: Default::default(),
            breaker: Mutex::new(BreakerState::Closed { consecutive_failures: 0 }),
        }
    }

    /// The peer's address.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    fn bump(&self, counter: usize) {
        self.counts[counter].fetch_add(1, Ordering::Relaxed);
    }

    fn count(&self, counter: usize) -> u64 {
        self.counts[counter].load(Ordering::Relaxed)
    }

    /// Whether the breaker currently rejects requests.
    pub fn breaker_is_open(&self) -> bool {
        matches!(*self.breaker.lock().expect("breaker lock poisoned"), BreakerState::Open { .. })
    }

    /// Fetches the entry stored under `digest` from this peer and
    /// verifies it against the full canonical `key` before trusting it.
    /// With `trace` given, every attempt (and a breaker rejection)
    /// becomes a `peer-fetch` span there, and the outgoing line carries
    /// the propagated context — untraced, each site is one branch on
    /// the `None`.
    pub fn fetch(&self, digest: &str, key: &str, trace: Option<Tracer<'_>>) -> FetchOutcome {
        if !self.admit() {
            if let Some(t) = trace {
                t.record(
                    "peer-fetch",
                    t.now_ns(),
                    vec![
                        ("peer".to_owned(), self.addr.clone()),
                        ("breaker".to_owned(), "open".to_owned()),
                        ("rejected".to_owned(), "true".to_owned()),
                    ],
                );
            }
            return FetchOutcome::Unavailable;
        }
        for attempt in 0..=RETRIES {
            if attempt > 0 {
                std::thread::sleep(BACKOFF * 2u32.pow(attempt - 1));
            }
            // Each attempt gets its own span id *before* the roundtrip,
            // so the owner's `fetch-serve` span can name it as parent.
            let attempt_trace = trace.map(|t| (t, t.child(), t.now_ns()));
            let ctx = attempt_trace.map(|(_, child, _)| child.context());
            let line = protocol::render_fetch_request_traced(digest, None, ctx.as_ref());
            let record_attempt = |result: &str| {
                if let Some((t, child, start_ns)) = attempt_trace {
                    let breaker = if self.breaker_is_open() { "open" } else { "closed" };
                    t.record_child(
                        child,
                        "peer-fetch",
                        start_ns,
                        vec![
                            ("peer".to_owned(), self.addr.clone()),
                            ("attempt".to_owned(), attempt.to_string()),
                            ("result".to_owned(), result.to_owned()),
                            ("breaker".to_owned(), breaker.to_owned()),
                        ],
                    );
                }
            };
            match wire::roundtrip(&self.addr, &line, self.timeout) {
                Ok(doc) => {
                    self.record_success();
                    self.bump(FETCH_OK);
                    record_attempt("ok");
                    return verify_fetch(&doc, digest, key);
                }
                Err(e) => {
                    self.bump(if e.timed_out { FETCH_TIMEOUT } else { FETCH_ERR });
                    self.record_failure();
                    record_attempt(if e.timed_out { "timeout" } else { "err" });
                }
            }
        }
        FetchOutcome::Unavailable
    }

    /// One liveness probe: `{"op": "ping"}`, a single attempt under the
    /// configured timeout, returning the pong. This is
    /// [`Client::ping_info`], the exchange `relim ping` performs — the
    /// breaker's half-open recovery rides the health-check path.
    ///
    /// # Errors
    ///
    /// A human-readable description of the connection or protocol
    /// failure.
    pub fn ping(&self) -> Result<PingInfo, String> {
        let client = Client::new(self.addr.clone()).with_timeout(self.timeout);
        client.ping_info().map_err(|e| e.0)
    }

    /// Admission check against the breaker: closed admits, open rejects
    /// outright. Live requests never probe — recovery belongs to the
    /// background prober ([`PeerClient::probe_if_due`]), so a request
    /// against a tripped peer degrades in microseconds, not a
    /// network-timeout later.
    fn admit(&self) -> bool {
        matches!(*self.breaker.lock().expect("breaker lock poisoned"), BreakerState::Closed { .. })
    }

    /// One half-open recovery step, run by the daemon's background
    /// prober: when the breaker is Open and the cooldown has elapsed,
    /// pings the peer. A pong closes the breaker (`probe_ok`); a
    /// failure re-arms the cooldown (`probe_err`). Returns whether a
    /// probe actually ran. The lock is not held across the network
    /// call; a concurrent `record_success` from a live request is
    /// simply confirmed by the probe's own transition.
    pub fn probe_if_due(&self) -> bool {
        let since = {
            match *self.breaker.lock().expect("breaker lock poisoned") {
                BreakerState::Closed { .. } => return false,
                BreakerState::Open { since } => since,
            }
        };
        if since.elapsed() < BREAKER_COOLDOWN {
            return false;
        }
        match self.ping() {
            Ok(_) => {
                self.bump(PROBE_OK);
                *self.breaker.lock().expect("breaker lock poisoned") =
                    BreakerState::Closed { consecutive_failures: 0 };
            }
            Err(_) => {
                self.bump(PROBE_ERR);
                *self.breaker.lock().expect("breaker lock poisoned") =
                    BreakerState::Open { since: Instant::now() };
            }
        }
        true
    }

    fn record_success(&self) {
        *self.breaker.lock().expect("breaker lock poisoned") =
            BreakerState::Closed { consecutive_failures: 0 };
    }

    fn record_failure(&self) {
        let mut breaker = self.breaker.lock().expect("breaker lock poisoned");
        match *breaker {
            BreakerState::Closed { consecutive_failures } => {
                let failures = consecutive_failures + 1;
                if failures >= BREAKER_THRESHOLD {
                    *breaker = BreakerState::Open { since: Instant::now() };
                    self.bump(BREAKER_OPEN);
                } else {
                    *breaker = BreakerState::Closed { consecutive_failures: failures };
                }
            }
            // A failed half-open probe already re-armed the cooldown.
            BreakerState::Open { .. } => {}
        }
    }
}

/// Verifies a peer's fetch response: only an exact canonical-key match
/// whose digest re-derives to the requested address is a hit.
fn verify_fetch(doc: &Json, digest: &str, key: &str) -> FetchOutcome {
    if doc.get("ok").and_then(Json::as_bool) != Some(true)
        || doc.get("found").and_then(Json::as_bool) != Some(true)
    {
        return FetchOutcome::Miss;
    }
    let (Some(peer_key), Some(result)) =
        (doc.get("key").and_then(Json::as_str), doc.get("result").and_then(Json::as_str))
    else {
        return FetchOutcome::Miss;
    };
    if peer_key != key || digest_of(peer_key) != digest {
        // A lying peer is a miss, never served bytes.
        return FetchOutcome::Miss;
    }
    FetchOutcome::Hit(result.to_owned())
}

/// Where the ring places a content address.
#[derive(Debug, Clone, Copy)]
pub enum Route<'fleet> {
    /// This daemon owns the address: serve/compute locally.
    Local,
    /// A remote peer owns it: read through that peer first.
    Remote(&'fleet PeerClient),
}

/// The fleet: the ring plus one [`PeerClient`] per remote member and
/// the fleet-level counters.
pub struct Fleet {
    ring: Ring,
    self_addr: String,
    /// Peer clients addressable by ring name, sorted by address.
    peers: Vec<PeerClient>,
    /// Read-through outcomes, indexed like [`FLEET_COUNTERS`]. A fetch
    /// that failed verification counts as a miss.
    outcomes: [AtomicU64; FLEET_COUNTERS.len()],
}

impl std::fmt::Debug for Fleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fleet")
            .field("self_addr", &self.self_addr)
            .field("members", &self.ring.members())
            .finish_non_exhaustive()
    }
}

impl Fleet {
    /// Builds the fleet: a ring over `peers` plus `self_addr`, and a
    /// client per remote peer whose every attempt runs under `timeout`.
    ///
    /// `peers` are the other daemons' addresses (`host:port`). Every
    /// fleet member must be configured with the same total member set
    /// (its peers plus itself), spelled identically — the ring is the
    /// agreement, there is no membership protocol. `self_addr` is this
    /// daemon's address as the other members spell it: its ring name.
    pub fn new(peers: &[String], self_addr: String, timeout: Duration) -> Fleet {
        let mut members = peers.to_vec();
        members.push(self_addr.clone());
        let ring = Ring::new(members);
        let mut peers: Vec<PeerClient> = peers
            .iter()
            .filter(|addr| **addr != self_addr)
            .map(|addr| PeerClient::new(addr.clone(), timeout))
            .collect();
        peers.sort_by(|a, b| a.addr.cmp(&b.addr));
        peers.dedup_by(|a, b| a.addr == b.addr);
        Fleet { ring, self_addr, peers, outcomes: Default::default() }
    }

    /// This daemon's own ring name.
    pub fn self_addr(&self) -> &str {
        &self.self_addr
    }

    /// The peer clients (sorted by address).
    pub fn peers(&self) -> &[PeerClient] {
        &self.peers
    }

    /// Where the ring places `digest`.
    pub fn route(&self, digest: &str) -> Route<'_> {
        match self.ring.owner_of(digest) {
            None => Route::Local,
            Some(owner) if owner == self.self_addr => Route::Local,
            Some(owner) => match self.peers.iter().find(|p| p.addr == owner) {
                Some(peer) => Route::Remote(peer),
                // A ring member with no client (self duplicated into
                // --peers) is local by definition.
                None => Route::Local,
            },
        }
    }

    /// The read-through: if a remote peer owns `digest`, fetch from it
    /// (verified), recording hit/miss/degradation counters. `Miss` when
    /// this daemon owns the address itself. `trace` threads the
    /// requester's span recording through the fetch (see
    /// [`PeerClient::fetch`]).
    pub fn read_through(&self, digest: &str, key: &str, trace: Option<Tracer<'_>>) -> FetchOutcome {
        let Route::Remote(peer) = self.route(digest) else {
            return FetchOutcome::Miss;
        };
        let outcome = peer.fetch(digest, key, trace);
        let slot = match outcome {
            FetchOutcome::Hit(_) => 0,
            FetchOutcome::Miss => 1,
            FetchOutcome::Unavailable => 2,
        };
        self.outcomes[slot].fetch_add(1, Ordering::Relaxed);
        outcome
    }

    /// One background-prober pass: gives every Open breaker whose
    /// cooldown has elapsed its half-open ping (see
    /// [`PeerClient::probe_if_due`]). Cheap when all breakers are
    /// closed — one mutex peek per peer, no network.
    pub fn probe_open_breakers(&self) {
        for peer in &self.peers {
            peer.probe_if_due();
        }
    }

    /// The aggregate `peer` counters object: each peer counter summed
    /// over the peers, then the read-through outcomes (see
    /// [`zero_counters_json`] for the fleetless shape).
    pub fn counters_json(&self) -> Json {
        let sum = |i: usize| self.peers.iter().map(|p| p.count(i)).sum::<u64>();
        let outcomes = self.outcomes.iter().map(|c| c.load(Ordering::Relaxed));
        let values = (0..PEER_COUNTERS.len()).map(sum).chain(outcomes);
        let names = PEER_COUNTERS.iter().chain(&FLEET_COUNTERS);
        Json::Obj(names.zip(values).map(|(n, v)| ((*n).to_owned(), Json::Int(v as i64))).collect())
    }

    /// The per-peer counters object, keyed by sanitized address (`.`
    /// and `:` become `_`, so the Prometheus derivation yields names
    /// like `relim_peers_127_0_0_1_7402_fetch_ok`).
    pub fn per_peer_json(&self) -> Json {
        let peer_json = |p: &PeerClient| {
            let counts = PEER_COUNTERS.iter().enumerate();
            let mut fields: Vec<(String, Json)> =
                counts.map(|(i, n)| ((*n).to_owned(), Json::Int(p.count(i) as i64))).collect();
            fields.push(("breaker_is_open".into(), Json::Bool(p.breaker_is_open())));
            (sanitize_addr(&p.addr), Json::Obj(fields))
        };
        Json::Obj(self.peers.iter().map(peer_json).collect())
    }
}

/// The zero-valued aggregate `peer` object a fleetless daemon serves:
/// the scrape surface is identical with and without `--peers`, so
/// dashboards and alerts need no reconfiguration when a daemon joins a
/// fleet.
pub fn zero_counters_json() -> Json {
    let names = PEER_COUNTERS.iter().chain(&FLEET_COUNTERS);
    Json::Obj(names.map(|n| ((*n).to_owned(), Json::Int(0))).collect())
}

/// A peer address as a counters-tree key: every byte outside
/// `[a-z0-9]` becomes `_` (metric-name alphabet by construction).
fn sanitize_addr(addr: &str) -> String {
    addr.to_ascii_lowercase()
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_fleet(peer: &str) -> Fleet {
        Fleet::new(&[peer.to_owned()], "127.0.0.1:1".to_owned(), Duration::from_millis(200))
    }

    /// Backdates an open breaker by the full cooldown, so the next
    /// prober pass finds its probe due.
    fn age_breaker(peer: &PeerClient) {
        *peer.breaker.lock().unwrap() =
            BreakerState::Open { since: Instant::now() - BREAKER_COOLDOWN };
    }

    /// A port nothing listens on (bind-then-drop frees it; the race
    /// window is negligible for a single connection attempt).
    fn dead_addr() -> String {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap().to_string()
    }

    #[test]
    fn fetch_against_a_dead_peer_trips_the_breaker_and_degrades() {
        let dead = dead_addr();
        let fleet = test_fleet(&dead);
        // Find a digest the dead peer owns.
        let digest = (0..10_000)
            .map(|i| format!("digest-{i}"))
            .find(|d| matches!(fleet.route(d), Route::Remote(_)))
            .expect("a two-member ring gives the peer some share");
        let outcome = fleet.read_through(&digest, "key", None);
        assert_eq!(outcome, FetchOutcome::Unavailable);
        let peer = &fleet.peers()[0];
        assert!(peer.breaker_is_open(), "3 consecutive attempt failures open the breaker");
        assert_eq!(peer.count(BREAKER_OPEN), 1);
        assert_eq!(peer.count(FETCH_ERR), 3, "initial try + 2 retries");
        // The next read-through is rejected by the breaker without new
        // connection attempts (live requests never probe).
        assert_eq!(fleet.read_through(&digest, "key", None), FetchOutcome::Unavailable);
        assert_eq!(peer.count(FETCH_ERR), 3, "breaker short-circuits");
        let counters = fleet.counters_json();
        assert_eq!(counters.get("degraded_local").and_then(Json::as_i64), Some(2));
        assert_eq!(counters.get("breaker_open").and_then(Json::as_i64), Some(1));
        // Per-peer tree carries the same numbers under the sanitized key.
        let per_peer = fleet.per_peer_json();
        let entry = per_peer.get(&sanitize_addr(&dead)).expect("peer entry");
        assert_eq!(entry.get("breaker_is_open").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn self_owned_addresses_never_leave_the_daemon() {
        let fleet = test_fleet("127.0.0.1:2");
        let digest = (0..10_000)
            .map(|i| format!("digest-{i}"))
            .find(|d| matches!(fleet.route(d), Route::Local))
            .expect("self gets some share");
        assert_eq!(fleet.read_through(&digest, "key", None), FetchOutcome::Miss);
        assert_eq!(fleet.peers()[0].count(FETCH_ERR), 0, "no network touched");
    }

    #[test]
    fn background_probe_recovers_a_tripped_breaker() {
        let dead = dead_addr();
        let fleet = test_fleet(&dead);
        let digest = (0..10_000)
            .map(|i| format!("digest-{i}"))
            .find(|d| matches!(fleet.route(d), Route::Remote(_)))
            .expect("a two-member ring gives the peer some share");
        assert_eq!(fleet.read_through(&digest, "key", None), FetchOutcome::Unavailable);
        let peer = &fleet.peers()[0];
        assert!(peer.breaker_is_open());

        // A freshly tripped breaker waits out its cooldown.
        fleet.probe_open_breakers();
        assert_eq!(peer.count(PROBE_ERR), 0, "no probe before the cooldown");

        // While the peer is still dead, a due probe fails and re-arms
        // the cooldown; live requests stay rejected without paying for
        // any network attempt.
        age_breaker(peer);
        fleet.probe_open_breakers();
        assert!(peer.breaker_is_open(), "a failed probe re-arms the breaker");
        assert_eq!(peer.count(PROBE_ERR), 1);
        assert_eq!(fleet.read_through(&digest, "key", None), FetchOutcome::Unavailable);
        assert_eq!(peer.count(FETCH_ERR), 3, "no new fetch attempts");

        // Revive the peer on the same address: the next due probe pongs
        // and closes the breaker — no live request involved.
        let handle = crate::server::Server::spawn(&dead, crate::server::ServerConfig::default())
            .expect("rebind the reserved address");
        age_breaker(peer);
        fleet.probe_open_breakers();
        assert!(!peer.breaker_is_open(), "a pong closes the breaker");
        assert_eq!(peer.count(PROBE_OK), 1);
        fleet.probe_open_breakers();
        assert_eq!(peer.count(PROBE_OK), 1, "closed breakers are not probed");
        let counters = fleet.counters_json();
        assert_eq!(counters.get("probe_ok").and_then(Json::as_i64), Some(1));
        assert_eq!(counters.get("probe_err").and_then(Json::as_i64), Some(1));
        handle.shutdown();
        handle.join();
    }

    #[test]
    fn traced_fetch_records_per_attempt_spans_with_breaker_state() {
        let dead = dead_addr();
        let fleet = test_fleet(&dead);
        let digest = (0..10_000)
            .map(|i| format!("digest-{i}"))
            .find(|d| matches!(fleet.route(d), Route::Remote(_)))
            .expect("a two-member ring gives the peer some share");
        let log = crate::trace::SpanLog::new(64);
        let ctx = crate::trace::TraceContext { trace_id: 42, parent: Some(7) };
        let ft = Tracer::new(&log, ctx);
        assert_eq!(fleet.read_through(&digest, "key", Some(ft)), FetchOutcome::Unavailable);
        let spans = log.snapshot(Some(42)).spans;
        assert_eq!(spans.len(), 3, "one span per attempt");
        for (i, s) in spans.iter().enumerate() {
            assert_eq!(s.name, "peer-fetch");
            assert_eq!(s.parent, Some(7), "attempts hang under the requester's root");
            assert!(s.attrs.contains(&("attempt".to_owned(), i.to_string())), "{:?}", s.attrs);
            assert!(s.attrs.contains(&("peer".to_owned(), dead.clone())), "{:?}", s.attrs);
        }
        assert!(
            spans[2].attrs.contains(&("breaker".to_owned(), "open".to_owned())),
            "the tripping attempt records the post-trip breaker state: {:?}",
            spans[2].attrs
        );
        // A breaker rejection is also visible in the trace.
        assert_eq!(fleet.read_through(&digest, "key", Some(ft)), FetchOutcome::Unavailable);
        let spans = log.snapshot(Some(42)).spans;
        assert_eq!(spans.len(), 4);
        assert!(
            spans[3].attrs.contains(&("rejected".to_owned(), "true".to_owned())),
            "{:?}",
            spans[3].attrs
        );
    }

    #[test]
    fn verify_fetch_rejects_lying_peers() {
        let key = "relim-store/1\nop=test\n";
        let digest = digest_of(key);
        let honest =
            Json::parse(&protocol::render_fetch_response(None, &digest, Some((key, "the bytes"))))
                .unwrap();
        assert_eq!(verify_fetch(&honest, &digest, key), FetchOutcome::Hit("the bytes".into()));
        // Same digest, different key: refused.
        let lying = Json::parse(&protocol::render_fetch_response(
            None,
            &digest,
            Some(("a DIFFERENT key", "poison")),
        ))
        .unwrap();
        assert_eq!(verify_fetch(&lying, &digest, key), FetchOutcome::Miss);
        // Honest miss.
        let miss = Json::parse(&protocol::render_fetch_response(None, &digest, None)).unwrap();
        assert_eq!(verify_fetch(&miss, &digest, key), FetchOutcome::Miss);
    }

    #[test]
    fn sanitized_addresses_are_metric_name_safe() {
        assert_eq!(sanitize_addr("127.0.0.1:7402"), "127_0_0_1_7402");
        assert_eq!(sanitize_addr("Node-3.example.com:80"), "node_3_example_com_80");
    }

    #[test]
    fn fleetless_and_fleet_counter_shapes_agree() {
        let fleet = test_fleet("127.0.0.1:2");
        let keys = |json: &Json| -> Vec<String> {
            let Json::Obj(fields) = json else { panic!("not an object") };
            fields.iter().map(|(k, _)| k.clone()).collect()
        };
        assert_eq!(keys(&fleet.counters_json()), keys(&zero_counters_json()));
    }
}
