//! # mis-domset-lb — facade crate
//!
//! Reproduction of Balliu, Brandt, Kuhn, Olivetti,
//! *"Improved Distributed Lower Bounds for MIS and Bounded (Out-)Degree
//! Dominating Sets in Trees"* (PODC 2021, arXiv:2106.02440).
//!
//! This crate re-exports the five workspace crates:
//!
//! * [`relim`] — the round elimination engine (`relim-core`), whose
//!   stateful session API [`Engine`] is the system's entry point
//!   (re-exported at this root for convenience),
//! * [`family`] — the paper's `Π_Δ(a,x)` problem family and lemma machinery
//!   (`lb-family`),
//! * [`sim`] — the LOCAL / port-numbering model simulator (`local-sim`),
//! * [`algos`] — the distributed upper-bound algorithms (`local-algos`),
//! * [`service`] — the serving layer (`relim-service`): a job-queue
//!   daemon over one shared `Engine` with a content-addressed,
//!   disk-persistent result store and a JSON-lines TCP protocol. The
//!   [`Client`] type (re-exported at this root) is the programmatic way
//!   to talk to a running `relim serve` daemon,
//! * [`pool`] — the persistent thread pool underneath (`relim-pool`);
//!   the `Engine` session owns the pool handle, so downstream code
//!   normally never touches this crate directly.
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! per-figure reproduction index; the `examples/` directory contains
//! runnable walkthroughs (start with `cargo run --example quickstart`).
//!
//! The README (rendered below) doubles as a compile-checked tour.
#![doc = include_str!("../README.md")]

pub use lb_family as family;
pub use local_algos as algos;
pub use local_sim as sim;
pub use relim_core as relim;
pub use relim_core::{Engine, EngineBuilder, EngineReport};
pub use relim_pool as pool;
pub use relim_service as service;
pub use relim_service::{Client, OpRequest};
