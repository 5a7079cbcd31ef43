//! The stateful round-elimination session: [`Engine`].
//!
//! The automatic lower-bound machinery of the paper is one long stateful
//! computation — a round-elimination chain where every step reuses the
//! alphabet, diagram and sub-multiset structure of the last. The
//! [`Engine`] is the one surface for it: `R̄(·)`, `R̄(R(·))`, iteration
//! and the bound searches are reached only through a session, which
//! owns:
//!
//! * a **persistent-pool handle** (a width policy over the process-wide
//!   worker set of `relim-pool` — the `Engine` is the one component that
//!   hands the pool to the rest of the system),
//! * a **long-lived [`SubIndexCache`]** of [`CACHE_CAPACITY`] entries,
//!   shared across *all* calls — in particular across the steps of
//!   [`Engine::auto_lower_bound`]'s merge search, across repeated
//!   [`Engine::iterate_with_limits`] probes, and across *clones of the
//!   handle on other threads* (daemon executors, sweep tasks): the cache
//!   locks only around its own map (one lookup per `R̄` step, the index
//!   build outside the lock), so N threads share one memo state, and
//! * session counters surfaced through [`EngineReport`] (cache hits,
//!   per-operator step counts, batch counts, wall time).
//!
//! `R̄(·)` and [`crate::biregular::half_step`] compute their universal
//! side through one session method, `Engine::universal_side`: it checks
//! the input limits, takes the index from the cache, enumerates on the
//! pool and keeps the maximal configurations.
//!
//! A session has three settable values: [`EngineBuilder::threads`],
//! [`EngineBuilder::memoize`] and [`EngineBuilder::record_lineage`].
//! Output never depends on any of them: cache hits return the same bytes
//! a rebuild would (the sub-multiset index is a pure function of the node
//! constraint) and pool results are concatenated in canonical order. A
//! width-1 session with `memoize(false)` — no pool fan-out, an empty
//! cache — is the reference configuration the differential suite at the
//! workspace root compares every other configuration against.
//!
//! # Example
//!
//! ```
//! use relim_core::engine::Engine;
//! use relim_core::Problem;
//!
//! let engine = Engine::builder().threads(2).build();
//! let mis = Problem::from_text("M M M\nP O O", "M [P O]\nO O").unwrap();
//!
//! // One full R̄(R(·)) application through the session.
//! let (_r, rr) = engine.rr_step(&mis).unwrap();
//! assert!(rr.problem.alphabet().len() >= 3);
//!
//! // The session observed the work and the cache traffic.
//! let report = engine.report();
//! assert_eq!((report.r_steps, report.rbar_steps), (1, 1));
//! assert_eq!(report.cache_hits + report.cache_misses, 1);
//! ```
#![deny(missing_docs)]

use crate::autolb::{self, AutoLbOptions, AutoLbOutcome};
use crate::autoub::{self, AutoUbOptions, AutoUbOutcome};
use crate::config::SetConfig;
use crate::constraint::Constraint;
use crate::diagram::StrengthOrder;
use crate::error::{RelimError, Result};
use crate::iterate::{self, IterationOutcome, SubIndexCache};
use crate::lineage::LineageGraph;
use crate::problem::Problem;
use crate::rightclosed::right_closed_sets;
use crate::roundelim::{self, Step};
use relim_pool::Pool;
pub use relim_pool::{parse_threads, ThreadsEnvError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Builder for an [`Engine`] session.
///
/// ```
/// use relim_core::engine::Engine;
///
/// let engine = Engine::builder()
///     .threads(4)            // pool width (0 = available parallelism)
///     .memoize(true)         // share indices across steps (default)
///     .record_lineage(false) // derivation DAG recording (default off)
///     .build();
/// assert_eq!(engine.threads(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct EngineBuilder {
    threads: usize,
    memoize: bool,
    record_lineage: bool,
}

/// Distinct node constraints a session's [`SubIndexCache`] holds before
/// its epoch reset clears it.
pub const CACHE_CAPACITY: usize = 64;

impl EngineBuilder {
    /// Pool width the session shards over; `0` (the default) means
    /// [`Pool::available_parallelism`]. Output never depends on this —
    /// only wall clock does.
    pub fn threads(mut self, threads: usize) -> EngineBuilder {
        self.threads = threads;
        self
    }

    /// Whether `R̄` steps serve their sub-multiset index from the session
    /// cache (default `true`). Turning memoization off gives the session a
    /// zero-capacity cache, which counts every lookup as a miss, builds
    /// the index and stores nothing — byte-identical output, strictly more
    /// work; the differential suite uses it as the reference
    /// configuration.
    pub fn memoize(mut self, memoize: bool) -> EngineBuilder {
        self.memoize = memoize;
        self
    }

    /// Whether the session records its derivation DAG (default `false`).
    /// When on, [`Engine::iterate_with_limits`],
    /// [`Engine::auto_lower_bound`] and [`Engine::auto_upper_bound`]
    /// intern every intermediate problem and operator application into a
    /// [`LineageGraph`] retrievable through [`Engine::lineage`].
    /// Recording digests every intermediate problem
    /// (one render + hash per node plus one reduction per step), so it is
    /// opt-in: with the flag off the drivers skip a single `Option` check
    /// and allocate nothing — the bench alloc-gate budgets assume the off
    /// path.
    pub fn record_lineage(mut self, record: bool) -> EngineBuilder {
        self.record_lineage = record;
        self
    }

    /// Builds the session. Cheap: no threads are spawned until the first
    /// parallel batch reaches the process-wide worker set.
    pub fn build(self) -> Engine {
        Engine {
            shared: Arc::new(EngineShared {
                pool: Pool::new(self.threads),
                cache: SubIndexCache::new(if self.memoize { CACHE_CAPACITY } else { 0 }),
                r_steps: AtomicU64::new(0),
                rbar_steps: AtomicU64::new(0),
                iterate_runs: AtomicU64::new(0),
                autolb_runs: AtomicU64::new(0),
                autoub_runs: AtomicU64::new(0),
                map_batches: AtomicU64::new(0),
                wall_ns: AtomicU64::new(0),
                lineage: if self.record_lineage {
                    Some(Mutex::new(LineageGraph::new()))
                } else {
                    None
                },
            }),
        }
    }
}

impl Default for EngineBuilder {
    fn default() -> Self {
        EngineBuilder { threads: 0, memoize: true, record_lineage: false }
    }
}

/// The shared state behind a (cheaply clonable) [`Engine`] handle.
struct EngineShared {
    pool: Pool,
    /// The concurrent sub-multiset index cache — `&self` API, so N clones
    /// of the handle (daemon executors, sweep tasks) share one memo state.
    /// Zero capacity with memoization off.
    cache: SubIndexCache,
    r_steps: AtomicU64,
    rbar_steps: AtomicU64,
    iterate_runs: AtomicU64,
    autolb_runs: AtomicU64,
    autoub_runs: AtomicU64,
    map_batches: AtomicU64,
    wall_ns: AtomicU64,
    /// The derivation DAG, recorded only when the session was built with
    /// [`EngineBuilder::record_lineage`] — `None` keeps the hot loop
    /// allocation-free (a single branch per step, no lock, no digest).
    lineage: Option<Mutex<LineageGraph>>,
}

/// A stateful round-elimination session.
///
/// Construction is through [`Engine::builder`] (or the [`Engine::sequential`]
/// / [`Engine::from_env`] shorthands). The handle is cheap to clone
/// (`Arc`-shared state) and `Send + Sync`, so it can travel into the
/// `'static` task closures of [`Engine::map_owned`] — sweeps shard their
/// parameter points over the session while each point's engine calls share
/// the same cache underneath.
///
/// Every method is byte-identical to the same method on a width-1,
/// `memoize(false)` session at any thread count and cache state; see the
/// module docs.
#[derive(Clone)]
pub struct Engine {
    shared: Arc<EngineShared>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("threads", &self.threads())
            .field("memoize", &self.memoizing())
            .finish_non_exhaustive()
    }
}

impl Engine {
    /// Starts building a session.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::default()
    }

    /// A single-threaded session: every operation runs inline on the
    /// calling thread. This is the reference schedule parallel sessions
    /// must match byte-for-byte.
    pub fn sequential() -> Engine {
        Engine::builder().threads(1).build()
    }

    /// A session sized from the `RELIM_THREADS` environment variable
    /// (available parallelism when unset), otherwise with defaults.
    ///
    /// # Panics
    ///
    /// Panics when `RELIM_THREADS` is set but not a positive integer; use
    /// [`Engine::try_from_env`] to surface the error instead.
    pub fn from_env() -> Engine {
        match Engine::try_from_env() {
            Ok(engine) => engine,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`Engine::from_env`].
    ///
    /// # Errors
    ///
    /// Returns the [`ThreadsEnvError`] describing a malformed
    /// `RELIM_THREADS` value (`0`, empty, non-numeric).
    pub fn try_from_env() -> std::result::Result<Engine, ThreadsEnvError> {
        let pool = Pool::try_from_env()?;
        Ok(Engine::builder().threads(pool.threads()).build())
    }

    /// Number of workers this session splits parallel batches for.
    pub fn threads(&self) -> usize {
        self.shared.pool.threads()
    }

    /// Whether `R̄` steps serve their sub-multiset index from the session
    /// cache (whether the cache can hold anything).
    pub fn memoizing(&self) -> bool {
        self.shared.cache.capacity() > 0
    }

    /// What the standard library reports as available parallelism (at
    /// least 1). Exposed here so downstream crates need no direct
    /// `relim-pool` dependency.
    pub fn available_parallelism() -> usize {
        Pool::available_parallelism()
    }

    /// Applies `R(·)` (universal step on the edge constraint).
    ///
    /// # Errors
    ///
    /// Same as [`crate::roundelim::r_step`].
    pub fn r_step(&self, p: &Problem) -> Result<Step> {
        self.timed(|| {
            self.shared.r_steps.fetch_add(1, Ordering::Relaxed);
            roundelim::r_step(p)
        })
    }

    /// Applies `R̄(·)` (universal step on the node constraint, existential
    /// step on the edge constraint), sharding the enumeration over the
    /// session pool and serving the sub-multiset index from the session
    /// cache.
    ///
    /// # Errors
    ///
    /// Returns [`crate::RelimError::DegenerateProblem`] when a derived
    /// constraint would be empty, [`crate::RelimError::TooManyLabels`]
    /// past [`crate::roundelim::MAX_LABELS`] labels and
    /// [`crate::RelimError::DegreeTooLarge`] past
    /// [`crate::roundelim::MAX_DEGREE`] positions.
    pub fn rbar_step(&self, p: &Problem) -> Result<Step> {
        self.timed(|| self.rbar_step_inner(p))
    }

    /// One full `Π ↦ R̄(R(Π))` application, returning both intermediate
    /// steps.
    ///
    /// # Errors
    ///
    /// Those of [`crate::roundelim::r_step`] and [`Engine::rbar_step`].
    pub fn rr_step(&self, p: &Problem) -> Result<(Step, Step)> {
        self.timed(|| self.rr_step_inner(p))
    }

    /// Iterates `R̄(R(·))` from `p`, up to `max_steps` applications,
    /// aborting before any step whose input alphabet exceeds
    /// `label_limit`. Consecutive (and repeated) searches share the
    /// session cache.
    pub fn iterate_with_limits(
        &self,
        p: &Problem,
        max_steps: usize,
        label_limit: usize,
    ) -> IterationOutcome {
        self.timed(|| {
            self.shared.iterate_runs.fetch_add(1, Ordering::Relaxed);
            self.record_lineage_root(p);
            iterate::iterate_with_step(p, max_steps, label_limit, |prev| self.traced_rr_step(prev))
        })
    }

    /// Runs the automatic lower-bound search (see [`crate::autolb`]) with
    /// every `R̄(R(·))` application served by this session — all steps of
    /// the merge search share the one [`SubIndexCache`], which
    /// [`EngineReport::cache_hits`] makes observable.
    pub fn auto_lower_bound(&self, p: &Problem, opts: &AutoLbOptions) -> AutoLbOutcome {
        self.timed(|| {
            self.shared.autolb_runs.fetch_add(1, Ordering::Relaxed);
            self.record_lineage_root(p);
            let outcome =
                autolb::auto_lower_bound_with_step(p, opts, |prev| self.traced_rr_step(prev));
            if let Some(lineage) = &self.shared.lineage {
                let mut graph = lineage.lock().expect("lineage lock");
                for step in &outcome.steps {
                    graph.record_merge(&step.raw, &step.problem, &step.merges);
                }
            }
            outcome
        })
    }

    /// Runs the automatic upper-bound search (see [`crate::autoub`]) with
    /// every `R̄(R(·))` application served by this session.
    pub fn auto_upper_bound(&self, p: &Problem, opts: &AutoUbOptions) -> AutoUbOutcome {
        self.timed(|| {
            self.shared.autoub_runs.fetch_add(1, Ordering::Relaxed);
            self.record_lineage_root(p);
            let outcome =
                autoub::auto_upper_bound_with_step(p, opts, |prev| self.traced_rr_step(prev));
            if let Some(lineage) = &self.shared.lineage {
                let mut graph = lineage.lock().expect("lineage lock");
                for step in &outcome.steps {
                    graph.record_harden(&step.raw, &step.problem, &step.removals);
                }
            }
            outcome
        })
    }

    /// Applies `f` to every owned item over the session pool, returning
    /// results in input order at any thread count. This is how sweeps and
    /// bench grids shard work while keeping the `Engine` the only
    /// consumer of the underlying pool crate: clone the handle into the
    /// closure and call back into the session from inside the tasks
    /// (nested parallelism degrades to inline execution, never deadlocks).
    pub fn map_owned<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send + Sync + 'static,
        R: Send + 'static,
        F: Fn(&T) -> R + Send + Sync + 'static,
    {
        self.shared.map_batches.fetch_add(1, Ordering::Relaxed);
        self.shared.pool.map_owned(items, f)
    }

    /// Fallible [`Engine::map_owned`]: the collected successes, or the
    /// error of the earliest failing item (deterministic at any thread
    /// count).
    ///
    /// # Errors
    ///
    /// The error produced by the lowest-indexed failing item.
    pub fn try_map_owned<T, R, E, F>(&self, items: Vec<T>, f: F) -> std::result::Result<Vec<R>, E>
    where
        T: Send + Sync + 'static,
        R: Send + 'static,
        E: Send + 'static,
        F: Fn(&T) -> std::result::Result<R, E> + Send + Sync + 'static,
    {
        self.shared.map_batches.fetch_add(1, Ordering::Relaxed);
        self.shared.pool.try_map_owned(items, f)
    }

    /// A snapshot of the session counters.
    ///
    /// ```
    /// use relim_core::engine::Engine;
    /// use relim_core::Problem;
    ///
    /// // Sinkless orientation is a fixed point: a repeated probe of the
    /// // same problem recomputes the same R(Π) node constraint, so the
    /// // session cache scores a hit.
    /// let engine = Engine::sequential();
    /// let so = Problem::from_text("O I I", "[O I] I").unwrap();
    /// assert!(engine.iterate_with_limits(&so, 5, 20).reached_fixed_point());
    /// assert!(engine.iterate_with_limits(&so, 5, 20).reached_fixed_point());
    /// let report = engine.report();
    /// assert_eq!(report.cache_misses, 1, "second search rebuilt nothing");
    /// assert_eq!(report.cache_hits, 1);
    /// ```
    pub fn report(&self) -> EngineReport {
        let cache = &self.shared.cache;
        let (lineage_nodes, lineage_edges) = match &self.shared.lineage {
            None => (0, 0),
            Some(m) => {
                let graph = m.lock().expect("lineage lock");
                (graph.node_count() as u64, graph.edge_count() as u64)
            }
        };
        EngineReport {
            threads: self.threads(),
            memoize: self.memoizing(),
            cache_hits: cache.hits(),
            cache_misses: cache.misses(),
            cache_entries: cache.len(),
            r_steps: self.shared.r_steps.load(Ordering::Relaxed),
            rbar_steps: self.shared.rbar_steps.load(Ordering::Relaxed),
            iterate_runs: self.shared.iterate_runs.load(Ordering::Relaxed),
            autolb_runs: self.shared.autolb_runs.load(Ordering::Relaxed),
            autoub_runs: self.shared.autoub_runs.load(Ordering::Relaxed),
            map_batches: self.shared.map_batches.load(Ordering::Relaxed),
            wall_ns: self.shared.wall_ns.load(Ordering::Relaxed),
            record_lineage: self.shared.lineage.is_some(),
            lineage_nodes,
            lineage_edges,
        }
    }

    /// Times one public entry point into the session wall-clock counter.
    fn timed<R>(&self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.shared.wall_ns.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }

    /// The universal side of a speedup step over `constraint` (alphabet of
    /// `labels` labels): every configuration over right-closed label sets
    /// (Observation 4) whose every choice lies in `constraint`, reduced to
    /// the maximal ones by covers. The one universal side of `R̄(·)` and
    /// [`crate::biregular::half_step`], and the one place their input
    /// limits are checked: a refused input reads no cache and builds no
    /// index. The index comes from the session cache and the enumeration
    /// runs on the session pool.
    ///
    /// # Errors
    ///
    /// Returns [`crate::RelimError::TooManyLabels`] past
    /// [`roundelim::MAX_LABELS`] labels and
    /// [`crate::RelimError::DegreeTooLarge`] past [`roundelim::MAX_DEGREE`]
    /// positions.
    pub(crate) fn universal_side(
        &self,
        constraint: &Constraint,
        labels: usize,
    ) -> Result<Vec<SetConfig>> {
        if labels > roundelim::MAX_LABELS {
            return Err(RelimError::TooManyLabels {
                requested: labels,
                limit: roundelim::MAX_LABELS,
            });
        }
        let degree = constraint.degree();
        if degree > roundelim::MAX_DEGREE {
            return Err(RelimError::DegreeTooLarge { degree });
        }
        let index = self.shared.cache.get_or_build(constraint);
        let cands = right_closed_sets(&StrengthOrder::of_constraint(constraint, labels));
        let raw = roundelim::forall_multisets(&cands, degree, &index, &self.shared.pool);
        Ok(roundelim::cover_filter(raw, &cands))
    }

    /// `R̄(·)` through the session, without the entry-point timer (shared
    /// by `rr_step` and the iteration and bound-search loops, so wall time
    /// is not double counted). The step is counted only for inputs within
    /// the universal-side limits.
    fn rbar_step_inner(&self, p: &Problem) -> Result<Step> {
        let universal = self.universal_side(p.node(), p.alphabet().len())?;
        self.shared.rbar_steps.fetch_add(1, Ordering::Relaxed);
        let derived = roundelim::derive_sides(p.alphabet(), universal, p.edge())?;
        let problem = Problem::new(derived.alphabet, derived.universal, derived.existential)
            .expect("derived problem is valid");
        Ok(Step { problem, provenance: derived.provenance })
    }

    /// `R̄(R(·))` through the session cache, without the entry-point timer.
    fn rr_step_inner(&self, p: &Problem) -> Result<(Step, Step)> {
        self.shared.r_steps.fetch_add(1, Ordering::Relaxed);
        let r = roundelim::r_step(p)?;
        let rr = self.rbar_step_inner(&r.problem)?;
        Ok((r, rr))
    }

    /// [`Engine::rr_step_inner`] plus lineage recording — the step
    /// closure handed to the iterate/autolb/autoub drivers. With
    /// recording off this is one branch on a `None`; nothing else.
    fn traced_rr_step(&self, p: &Problem) -> Result<(Step, Step)> {
        let result = self.rr_step_inner(p);
        if let Some(lineage) = &self.shared.lineage {
            if let Ok((r, rr)) = &result {
                lineage.lock().expect("lineage lock").record_rr_step(p, &r.problem, &rr.problem);
            }
        }
        result
    }

    /// Records the initial chain element of a driver run (the input with
    /// unused labels dropped — exactly what the driver loops start from).
    fn record_lineage_root(&self, p: &Problem) {
        if let Some(lineage) = &self.shared.lineage {
            let (initial, _) = p.drop_unused_labels();
            lineage.lock().expect("lineage lock").record_root(&initial);
        }
    }

    /// A snapshot of the recorded derivation DAG, or `None` when the
    /// session was built without [`EngineBuilder::record_lineage`].
    ///
    /// ```
    /// use relim_core::engine::Engine;
    /// use relim_core::Problem;
    ///
    /// let engine = Engine::builder().threads(1).record_lineage(true).build();
    /// let so = Problem::from_text("O I I", "[O I] I").unwrap();
    /// engine.iterate_with_limits(&so, 5, 20);
    /// let lineage = engine.lineage().expect("recording was enabled");
    /// assert!(lineage.node_count() >= 3);
    /// assert!(Engine::sequential().lineage().is_none(), "off by default");
    /// ```
    pub fn lineage(&self) -> Option<LineageGraph> {
        self.shared.lineage.as_ref().map(|m| m.lock().expect("lineage lock").clone())
    }
}

/// A snapshot of an [`Engine`] session's counters — see
/// [`Engine::report`].
///
/// Counts are cumulative since construction. `cache_hits`/`cache_misses`
/// cover every sub-multiset index lookup the session performed (with
/// memoization off, every build counts as a miss); the remaining counters
/// record how many times each operator ran. `wall_ns` is the total wall
/// time spent inside the session's round-elimination operators (steps,
/// iterations, bound searches) — the generic
/// [`Engine::map_owned`] passthrough is *not* timed, because its tasks
/// routinely call back into those operators and would double-count.
/// Unlike every other field `wall_ns` is schedule-dependent, so tests
/// must not compare it.
#[derive(Debug, Clone)]
pub struct EngineReport {
    /// Pool width of the session.
    pub threads: usize,
    /// Whether the session memoizes sub-multiset indices.
    pub memoize: bool,
    /// Index lookups answered from the session cache.
    pub cache_hits: u64,
    /// Index lookups that had to build (including memoization-off builds).
    pub cache_misses: u64,
    /// Distinct constraints currently held by the cache.
    pub cache_entries: usize,
    /// `R(·)` applications (including those inside `rr_step`, iterations
    /// and bound searches).
    pub r_steps: u64,
    /// `R̄(·)` applications.
    pub rbar_steps: u64,
    /// [`Engine::iterate_with_limits`] runs.
    pub iterate_runs: u64,
    /// [`Engine::auto_lower_bound`] runs.
    pub autolb_runs: u64,
    /// [`Engine::auto_upper_bound`] runs.
    pub autoub_runs: u64,
    /// Parallel batches submitted through [`Engine::map_owned`] /
    /// [`Engine::try_map_owned`] (sweep points, Monte-Carlo chunks, bench
    /// grids).
    pub map_batches: u64,
    /// Total wall time (nanoseconds) spent inside the session's
    /// round-elimination operators (not the `map_owned` passthroughs —
    /// their tasks call back into the operators, which would double
    /// count). Schedule-dependent — never byte-stable across runs.
    pub wall_ns: u64,
    /// Whether the session records its derivation DAG (see
    /// [`EngineBuilder::record_lineage`]) — a configuration echo, like
    /// `threads`/`memoize`.
    pub record_lineage: bool,
    /// Distinct problems in the recorded [`LineageGraph`] (0 with
    /// recording off). Deliberately *not* part of
    /// [`EngineReport::snapshot_pairs`]: the bench baseline schema pins
    /// that list, and every committed kernel records with lineage off.
    pub lineage_nodes: u64,
    /// Operator applications in the recorded [`LineageGraph`] (0 with
    /// recording off); see `lineage_nodes` for why it is not a snapshot
    /// pair.
    pub lineage_edges: u64,
}

impl EngineReport {
    /// The **deterministic** counters of this report as stable
    /// `(name, value)` pairs, in a fixed order — the serializable
    /// snapshot persisted into `BENCH_relim.json` kernels so CI diffs
    /// cache-hit trends exactly, not just timings.
    ///
    /// Deliberately excludes `wall_ns` (schedule-dependent) and the
    /// configuration echoes (`threads`, `memoize`, `record_lineage` —
    /// inputs, not observations). For a fixed workload on a fixed
    /// session configuration, every pair is byte-stable across runs,
    /// thread counts and machines.
    ///
    /// ```
    /// use relim_core::engine::Engine;
    /// use relim_core::Problem;
    ///
    /// let engine = Engine::sequential();
    /// engine.rr_step(&Problem::from_text("A A", "A A").unwrap()).unwrap();
    /// let pairs = engine.report().snapshot_pairs();
    /// assert_eq!(pairs[0], ("cache_hits", 0));
    /// assert!(pairs.iter().any(|&(k, v)| k == "rbar_steps" && v == 1));
    /// ```
    pub fn snapshot_pairs(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("cache_hits", self.cache_hits),
            ("cache_misses", self.cache_misses),
            ("cache_entries", self.cache_entries as u64),
            ("r_steps", self.r_steps),
            ("rbar_steps", self.rbar_steps),
            ("iterate_runs", self.iterate_runs),
            ("autolb_runs", self.autolb_runs),
            ("autoub_runs", self.autoub_runs),
            ("map_batches", self.map_batches),
        ]
    }

    /// The movement of the [`EngineReport::snapshot_pairs`] counters
    /// between `before` and this report — the engine's span seam: the
    /// serving layer snapshots a report around a job's compute and
    /// attaches the deltas to that job's trace span, giving "what did
    /// the engine do for *this* request" without touching the engine's
    /// hot path. Saturating, because `cache_entries` is a point-in-time
    /// reading that can shrink between the two reports (evictions), and
    /// on a shared engine concurrent jobs move the counters too — the
    /// deltas are attributed, not exact, under concurrency.
    ///
    /// ```
    /// use relim_core::engine::Engine;
    /// use relim_core::Problem;
    ///
    /// let engine = Engine::sequential();
    /// let before = engine.report();
    /// engine.rr_step(&Problem::from_text("A A", "A A").unwrap()).unwrap();
    /// let delta = engine.report().delta_pairs(&before);
    /// assert!(delta.iter().any(|&(k, v)| k == "rbar_steps" && v == 1));
    /// ```
    pub fn delta_pairs(&self, before: &EngineReport) -> Vec<(&'static str, u64)> {
        self.snapshot_pairs()
            .into_iter()
            .zip(before.snapshot_pairs())
            .map(|((name, after), (_, before))| (name, after.saturating_sub(before)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mis3() -> Problem {
        Problem::from_text("M M M\nP O O", "M [P O]\nO O").unwrap()
    }

    #[test]
    fn engine_rr_step_matches_the_reference_session() {
        let p = mis3();
        let reference = Engine::builder().threads(1).memoize(false).build().rr_step(&p).unwrap();
        for threads in [1, 2, 8] {
            let engine = Engine::builder().threads(threads).build();
            let (r, rr) = engine.rr_step(&p).unwrap();
            assert_eq!(r.problem.render(), reference.0.problem.render(), "threads = {threads}");
            assert_eq!(rr.problem.render(), reference.1.problem.render(), "threads = {threads}");
            assert_eq!(rr.provenance, reference.1.provenance, "threads = {threads}");
        }
    }

    #[test]
    fn memoization_off_matches_memoization_on() {
        let p = mis3();
        let on = Engine::builder().threads(2).memoize(true).build();
        let off = Engine::builder().threads(2).memoize(false).build();
        let a = on.iterate_with_limits(&p, 3, 20);
        let b = off.iterate_with_limits(&p, 3, 20);
        let render = |o: &IterationOutcome| {
            let rendered: Vec<String> = o.problems.iter().map(Problem::render).collect();
            format!("{:?}\n{:?}\n{}", o.stats, o.stopped, rendered.join("\n---\n"))
        };
        assert_eq!(render(&a), render(&b));
        assert_eq!(on.report().cache_hits + on.report().cache_misses, off.report().cache_misses);
        assert_eq!(off.report().cache_hits, 0, "memoization off never hits");
    }

    #[test]
    fn report_counts_operators() {
        let engine = Engine::sequential();
        let p = mis3();
        engine.r_step(&p).unwrap();
        engine.rbar_step(&p).unwrap();
        engine.rr_step(&p).unwrap();
        let report = engine.report();
        assert_eq!(report.r_steps, 2); // r_step + the one inside rr_step
        assert_eq!(report.rbar_steps, 2);
        assert_eq!(report.threads, 1);
        assert!(report.memoize);
    }

    #[test]
    fn fixed_point_search_hits_the_session_cache() {
        let engine = Engine::sequential();
        let so = Problem::from_text("O I I", "[O I] I").unwrap();
        assert!(engine.iterate_with_limits(&so, 5, 20).reached_fixed_point());
        // The fixed point is detected without a confirming recomputation,
        // so the first search builds exactly one index; a repeated probe
        // of the same problem is then answered from the session cache.
        assert!(engine.iterate_with_limits(&so, 5, 20).reached_fixed_point());
        let report = engine.report();
        assert_eq!(report.cache_hits, 1, "repeat search must reuse the index");
        assert_eq!(report.cache_misses, 1);
        assert_eq!(report.iterate_runs, 2);
    }

    #[test]
    fn autolb_merge_search_shares_one_cache() {
        // The session cache persists across the merge search's calls:
        // an iterate probe of sinkless orientation populates it, and the
        // auto_lower_bound run that follows computes the *same* R(Π) node
        // constraint — with the stateless API it rebuilt the index; the
        // session must hit.
        let engine = Engine::sequential();
        let so = Problem::from_text("O I I", "[O I] I").unwrap();
        engine.iterate_with_limits(&so, 1, 20);
        let misses_before = engine.report().cache_misses;
        let outcome = engine.auto_lower_bound(&so, &AutoLbOptions::default());
        assert!(outcome.unbounded());
        let report = engine.report();
        assert!(report.cache_hits >= 1, "merge search must reuse the session cache: {report:?}");
        assert_eq!(report.cache_misses, misses_before, "autolb must rebuild nothing");
        assert_eq!(report.autolb_runs, 1);

        // A second identical search is answered from cache alone.
        let before = engine.report();
        let again = engine.auto_lower_bound(&so, &AutoLbOptions::default());
        assert!(again.unbounded());
        let after = engine.report();
        assert_eq!(after.cache_misses, before.cache_misses, "repeat run must not rebuild");
        assert!(after.cache_hits > before.cache_hits);
    }

    #[test]
    fn autoub_chain_hits_the_cache_within_one_search() {
        // Sinkless orientation never becomes trivial, so the upper-bound
        // chain keeps stepping through byte-equal R(Π) node constraints:
        // steps 2 and 3 of a single search must be served from cache.
        let engine = Engine::sequential();
        let so = Problem::from_text("O I I", "[O I] I").unwrap();
        let opts = AutoUbOptions { max_steps: 3, label_budget: 20, coloring: None };
        let outcome = engine.auto_upper_bound(&so, &opts);
        assert!(outcome.bound.is_none());
        let report = engine.report();
        assert_eq!((report.cache_hits, report.cache_misses), (2, 1), "{report:?}");
        assert_eq!(report.autoub_runs, 1);
    }

    #[test]
    fn map_owned_counts_batches_and_preserves_order() {
        let engine = Engine::builder().threads(4).build();
        let got = engine.map_owned((0u64..100).collect(), |&x| x * 3);
        assert_eq!(got, (0..100).map(|x| x * 3).collect::<Vec<u64>>());
        let tried: std::result::Result<Vec<u64>, ()> =
            engine.try_map_owned((0u64..10).collect(), |&x| Ok(x));
        assert_eq!(tried.unwrap().len(), 10);
        assert_eq!(engine.report().map_batches, 2);
    }

    #[test]
    fn clones_share_the_session() {
        let engine = Engine::sequential();
        let clone = engine.clone();
        clone.rr_step(&mis3()).unwrap();
        assert_eq!(engine.report().rbar_steps, 1, "clones must observe the same counters");
    }

    #[test]
    fn env_constructors_agree_with_pool() {
        let tried = Engine::try_from_env().expect("ambient RELIM_THREADS must be valid in tests");
        assert_eq!(tried.threads(), Pool::try_from_env().unwrap().threads());
        assert_eq!(Engine::from_env().threads(), tried.threads());
        assert!(Engine::available_parallelism() >= 1);
    }
}
