//! # relim-core — a round elimination engine for locally checkable problems
//!
//! This crate is a from-scratch Rust implementation of the *automatic round
//! elimination* framework of Brandt \[PODC'19\] as popularized by Olivetti's
//! `round-eliminator` tool. It is the substrate used to mechanically verify
//! the lower-bound proofs of Balliu, Brandt, Kuhn and Olivetti,
//! *"Improved Distributed Lower Bounds for MIS and Bounded (Out-)Degree
//! Dominating Sets in Trees"* (PODC 2021, arXiv:2106.02440).
//!
//! ## The formalism (paper §2.2–2.3)
//!
//! A locally checkable problem on Δ-regular trees is a triple
//! `(Σ, N, E)`:
//!
//! * an alphabet Σ of [`Label`]s,
//! * a **node constraint** `N`: a set of multisets ([`Config`]) of length Δ,
//! * an **edge constraint** `E`: a set of multisets of length 2.
//!
//! A solution assigns a label to every (node, incident edge) pair such that
//! every node's labels form a configuration in `N` and every edge's two
//! labels form a configuration in `E`.
//!
//! ## What the engine provides
//!
//! * [`engine::Engine`] — **the entry point**: a builder-constructed
//!   session that owns the worker-pool handle, a long-lived sub-multiset
//!   index cache shared across all calls, and per-session statistics
//!   ([`engine::EngineReport`]). `R̄(·)`, `R̄(R(·))`, iteration and the
//!   bound searches are reached only through it; no public function of
//!   this crate takes a pool. A width-1 session with
//!   `memoize(false)` is the reference configuration.
//! * [`digest`] — canonical content digests ([`Constraint`] /
//!   [`Problem`]), the keying primitive of the `relim-service`
//!   content-addressed result store.
//! * [`Problem`] — validated problems over interned alphabets, with a text
//!   format ([`parse`]) compatible in spirit with the round-eliminator.
//! * [`roundelim::r_step`] / [`Engine::rbar_step`] — the `R(·)` and
//!   `R̄(·)` operators of the paper (maximal "for-all" side + "exists" side),
//!   with the right-closedness pruning of Observation 4 and, on `R̄`'s
//!   universal side, maximality by covers; `R(·)` is pure and stays a
//!   free function.
//! * [`diagram`] — label strength orders ("edge diagram" / "node diagram",
//!   paper §2.3, Figures 1, 4, 5) and their Hasse edges.
//! * [`rightclosed`] — enumeration of right-closed label sets.
//! * [`relax`] — Definition 7 (relaxations of configurations) as executable
//!   checks; line membership and dominance are the same relation and
//!   share its subset-mask builder.
//! * [`zeroround`] — 0-round solvability analysis: the identified-ports
//!   gadget underlying Lemmas 12 and 15, the bare-PN "trivial problem"
//!   criterion, and the c-vertex-coloring clique criterion.
//! * [`autolb`] / [`autoub`] — automatic lower/upper-bound search in the
//!   style of the round-eliminator tool, with certificates replayed on a
//!   session.
//! * [`biregular`] — the operators at full (δ_B, δ_W)-biregular
//!   generality: rank-r hypergraph problems, dual views, half steps.
//! * [`iso`] — semantic equality and isomorphism search between problems.
//!
//! ## Example
//!
//! ```
//! use relim_core::{Problem, roundelim};
//!
//! // The MIS problem for Δ = 3 (paper §2.2):
//! let mis = Problem::from_text("M M M\nP O O", "M [P O]\nO O").unwrap();
//! assert_eq!(mis.delta(), 3);
//!
//! // One application of R(·):
//! let step = roundelim::r_step(&mis).unwrap();
//! assert!(step.problem.alphabet().len() >= 3);
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod autolb;
pub mod autoub;
pub mod biregular;
pub mod condense;
pub mod config;
pub mod constraint;
pub mod diagram;
pub mod digest;
pub mod engine;
pub mod error;
pub mod inline_vec;
pub mod iso;
pub mod iterate;
pub mod label;
pub mod labelset;
pub mod line;
pub mod lineage;
pub mod matching;
pub mod parse;
pub mod problem;
pub mod relax;
pub mod rightclosed;
pub mod roundelim;
mod scratch;
pub mod simplify;
pub mod zeroround;

pub use config::{Config, SetConfig};
pub use constraint::Constraint;
pub use diagram::StrengthOrder;
pub use engine::{Engine, EngineBuilder, EngineReport};
pub use error::RelimError;
pub use label::{Alphabet, Label};
pub use labelset::LabelSet;
pub use line::Line;
pub use lineage::LineageGraph;
pub use problem::Problem;
pub use roundelim::Step;
