//! # relim-service — the round-elimination serving layer
//!
//! The paper's lower-bound machinery is driven through a stateful
//! [`Engine`](relim_core::Engine) session, but an in-process session dies
//! with its process: every consumer recomputes the same fixed-point
//! searches from scratch. This crate turns one shared session into a
//! **daemon** that accepts round-elimination jobs over a JSON-lines TCP
//! protocol, schedules them through a priority queue, and memoizes every
//! result in a **content-addressed store** with an on-disk persistence
//! layer — so a restarted daemon serves previously computed certificates
//! instantly, byte-for-byte.
//!
//! ## The pieces
//!
//! * [`ops`] — the servable operations (`autolb`, `autoub`, `iterate`,
//!   `sweep`, `zero-round`), each with a **canonical key** (the content
//!   address) and a **canonical text rendering** (the served result). The
//!   `relim` CLI renders its local subcommands through the same
//!   functions, which is what makes a served result *byte-identical* to
//!   the same query run in-process — the determinism contract of the
//!   service.
//! * [`store`] — the content-addressed result store: an in-memory map
//!   bounded by a FIFO eviction policy, backed by one JSON file per
//!   entry (written atomically, verified on load, corrupt files
//!   quarantined by skipping). Evicted entries stay readable through the
//!   disk fallback; the disk layer itself can be bounded by a **byte
//!   budget** with oldest-first GC. The store also carries the
//!   **in-flight table** behind request coalescing: identical cold
//!   queries attach as waiters to the first computation instead of
//!   recomputing.
//! * [`queue`] — the scheduling policy: interactive queries (single
//!   problems) are served before bulk sweeps, with an **aging rule** (a
//!   bulk job bypassed [`queue::DEFAULT_AGING_LIMIT`] times runs next
//!   regardless) so sweeps cannot starve. This realizes the ROADMAP
//!   "batch-level priorities" item as a policy carried by the service.
//! * [`protocol`] — the wire format: one compact JSON object per line,
//!   in both directions.
//! * [`wire`] — the one transport under it: every sender (the daemon,
//!   the client, the fleet's peer calls) writes a frame as a single
//!   write, and both clients make their request/response round trips
//!   through it, under one connect/read/write timeout.
//! * [`server`] — the daemon: a thread-per-connection TCP listener, a
//!   configurable **executor pool** (default `min(4, cores)`) draining
//!   the job queue into the shared `Engine` — whose sub-multiset
//!   index cache the executors memoize through together —
//!   request/latency counters, and graceful shutdown (the queue drains
//!   before the process exits). Served bytes are identical at any
//!   executor count.
//! * [`client`] — a blocking client for the protocol; the `relim
//!   submit` / `relim status` / `relim shutdown` subcommands and the
//!   bench kernels are thin wrappers over it.
//! * [`ring`] / [`fleet`] — the fleet tier: a deterministic
//!   consistent-hash ring partitions the digest space across a set of
//!   peer daemons (configuration-only agreement, no membership
//!   protocol), and cold queries whose address a remote peer owns are
//!   **read through** that peer (verified against the full canonical
//!   key) before falling back to local compute. Peer calls carry
//!   timeouts, bounded retries and a circuit breaker, so a dead owner
//!   degrades to local compute — same bytes, counted degradation.
//! * [`metrics`] — the Prometheus text-exposition rendering behind
//!   `{"op": "metrics"}`, derived from the same counters tree `status`
//!   serves, so the two can never drift — including per-op × per-outcome
//!   **latency histograms**.
//! * [`trace`] — request-scoped **distributed tracing** and the daemon's
//!   one bounded log: a trace context minted by the client rides
//!   `submit`/`fetch` requests across the fleet and is the one switch:
//!   each daemon records the spans of a request that carries one (parse,
//!   queue-wait, compute, store and peer I/O) into its bounded span log
//!   served by `{"op": "trace"}`, and `relim trace` merges the
//!   per-daemon dumps into one cross-daemon tree, a Chrome trace-event
//!   export, or a scheduler gantt with one lane per traced job. An
//!   untraced request records nothing, and responses never change:
//!   traced or not, the served bytes are identical.
//!
//! ## Example
//!
//! ```
//! use relim_service::client::Client;
//! use relim_service::ops::OpRequest;
//! use relim_service::server::{Server, ServerConfig};
//!
//! // An in-process daemon on an ephemeral port, store in memory.
//! let handle = Server::spawn("127.0.0.1:0", ServerConfig::default()).unwrap();
//! let client = Client::new(handle.local_addr().to_string());
//!
//! let op = OpRequest::zero_round("M M M;P O O", "M [P O];O O").unwrap();
//! let first = client.submit(&op, None).unwrap();
//! let second = client.submit(&op, None).unwrap();
//! assert!(!first.cached && second.cached, "second ask is a store hit");
//! assert_eq!(first.result, second.result, "served bytes never change");
//!
//! client.shutdown().unwrap();
//! handle.join();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod fleet;
pub mod metrics;
pub mod ops;
pub mod protocol;
pub mod queue;
pub mod ring;
pub mod server;
pub mod store;
pub mod trace;
pub mod wire;

pub use client::Client;
pub use fleet::Fleet;
pub use ops::OpRequest;
pub use ring::Ring;
pub use server::{Server, ServerConfig, ServerHandle};
pub use store::ResultStore;
