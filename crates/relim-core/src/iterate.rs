//! Iterated round elimination with bookkeeping.
//!
//! Drives `Π ↦ R̄(R(Π))` repeatedly, recording description sizes and
//! detecting fixed points — the workflow behind both the "doubly
//! exponential growth" observation (paper §1.2, experiment E13) and
//! fixed-point lower bounds (§1.2, "Fixed points").
//!
//! ## Cross-step memoization
//!
//! Each `R̄` application starts by building the **sub-multiset index** of
//! the node constraint it universally quantifies over — a pure function of
//! that constraint. Fixed-point searches recompute steps on recurring
//! problems (the confirming step at a fixed point, repeated probes of the
//! same problem), so the session
//! ([`crate::engine::Engine::iterate_with_limits`]) serves the index from
//! a [`SubIndexCache`]: an exact-match cache from node constraints to
//! `Arc`-shared indices, owned by the `Engine` and shared across *all* of
//! its calls. Cache hits skip the enumeration work of rebuilding the index
//! and are **byte-identical** to cache misses (the index content is fully
//! determined by the constraint) — pinned by the differential suite
//! against a `memoize(false)` session, which rebuilds every index.

use crate::constraint::{Constraint, SubMultisetIndex};
use crate::iso;
use crate::problem::Problem;
use crate::roundelim::Step;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Why an iteration stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StopReason {
    /// The latest problem is isomorphic to the previous one.
    FixedPoint,
    /// The configured maximum number of steps was reached.
    MaxSteps,
    /// The alphabet exceeded `label_limit` (doubly-exponential growth).
    LabelLimit {
        /// Labels the next step would have had to handle.
        labels: usize,
    },
    /// A step produced an empty constraint.
    Degenerate {
        /// Engine error message.
        message: String,
    },
}

/// Description-size statistics for one problem in the iteration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepStats {
    /// Iteration index (0 = input problem).
    pub step: usize,
    /// Alphabet size (used labels only).
    pub labels: usize,
    /// Node configuration count.
    pub node_configs: usize,
    /// Edge configuration count.
    pub edge_configs: usize,
}

/// The outcome of an iterated round-elimination search
/// ([`crate::engine::Engine::iterate_with_limits`]).
#[derive(Debug, Clone)]
pub struct IterationOutcome {
    /// Per-step statistics, starting with the input problem.
    pub stats: Vec<StepStats>,
    /// The problems themselves (unused labels dropped), aligned with
    /// `stats`.
    pub problems: Vec<Problem>,
    /// Why the iteration stopped.
    pub stopped: StopReason,
}

impl IterationOutcome {
    /// Whether a fixed point was found.
    pub fn reached_fixed_point(&self) -> bool {
        self.stopped == StopReason::FixedPoint
    }
}

fn stats_of(step: usize, p: &Problem) -> StepStats {
    StepStats {
        step,
        labels: p.alphabet().len(),
        node_configs: p.node().len(),
        edge_configs: p.edge().len(),
    }
}

/// A concurrent exact-match cache from node constraints to their
/// `Arc`-shared sub-multiset indices, letting consecutive (or repeated)
/// iteration steps — possibly on different threads sharing one
/// [`crate::engine::Engine`] session — reuse the index enumeration work.
///
/// The index is a pure function of the constraint, so a hit is
/// byte-identical to a rebuild; sharing the cache between threads can
/// therefore never change output bytes, only counters and wall clock.
///
/// The map sits behind one mutex, held only for a hash lookup or an
/// insert (a session takes one lookup per `R̄` step). When the map holds
/// `capacity` constraints, inserting a new one clears it first: an epoch
/// reset, deterministic and enough for fixed-point searches, whose
/// working set is tiny. A zero-capacity cache holds nothing: every lookup
/// misses and builds — a session with memoization off.
///
/// The lookup→build→insert window is a benign race: two threads missing
/// the same constraint concurrently both build and insert the *same
/// bytes*, so a duplicate build shows in the counters, never in results.
#[derive(Debug)]
pub struct SubIndexCache {
    map: Mutex<HashMap<Constraint, Arc<SubMultisetIndex>>>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl SubIndexCache {
    /// A cache holding at most `capacity` constraints, as for the
    /// session's [`crate::engine::CACHE_CAPACITY`]. Capacity 0 holds
    /// nothing: every lookup counts a miss and builds, and no index is
    /// stored.
    pub fn new(capacity: usize) -> SubIndexCache {
        SubIndexCache {
            map: Mutex::new(HashMap::new()),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn map(&self) -> std::sync::MutexGuard<'_, HashMap<Constraint, Arc<SubMultisetIndex>>> {
        self.map.lock().expect("sub-index cache poisoned")
    }

    /// The index for `constraint`, shared from the cache or built (and
    /// cached) on a miss. The build happens outside the lock, so
    /// concurrent misses never serialize on each other's enumeration work.
    pub fn get_or_build(&self, constraint: &Constraint) -> Arc<SubMultisetIndex> {
        if let Some(index) = self.lookup(constraint) {
            return index;
        }
        let index = Arc::new(constraint.sub_multiset_index());
        if self.capacity > 0 {
            self.insert(constraint.clone(), Arc::clone(&index));
        }
        index
    }

    /// The cached index for `constraint`, if held; counts a hit or a miss.
    fn lookup(&self, constraint: &Constraint) -> Option<Arc<SubMultisetIndex>> {
        let hit = self.map().get(constraint).map(Arc::clone);
        let counter = if hit.is_some() { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
        hit
    }

    /// Stores a built index (the miss path only, so a hit never owns a
    /// `Constraint`). A full map is cleared first unless `constraint` is
    /// already resident: replacing a racing duplicate build cannot grow
    /// the map, so it must not trigger the epoch reset.
    fn insert(&self, constraint: Constraint, index: Arc<SubMultisetIndex>) {
        let mut map = self.map();
        if map.len() >= self.capacity && !map.contains_key(&constraint) {
            map.clear();
        }
        map.insert(constraint, index);
    }

    /// The most constraints the cache holds.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Lookups answered from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to build the index.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Distinct constraints currently held.
    pub fn len(&self) -> usize {
        self.map().len()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The shared iteration loop, parameterized over how one step is computed
/// (the engine passes its cache-serving session step).
pub(crate) fn iterate_with_step(
    p: &Problem,
    max_steps: usize,
    label_limit: usize,
    mut step_fn: impl FnMut(&Problem) -> crate::error::Result<(Step, Step)>,
) -> IterationOutcome {
    let (current, _) = p.drop_unused_labels();
    let mut problems = vec![current];
    let mut stats = vec![stats_of(0, &problems[0])];
    for step in 1..=max_steps {
        let prev = problems.last().expect("non-empty").clone();
        if prev.alphabet().len() > label_limit {
            return IterationOutcome {
                stats,
                problems,
                stopped: StopReason::LabelLimit { labels: prev.alphabet().len() },
            };
        }
        match step_fn(&prev) {
            Ok((_, rr)) => {
                let (reduced, _) = rr.problem.drop_unused_labels();
                let fixed = iso::isomorphic(&reduced, &prev);
                stats.push(stats_of(step, &reduced));
                problems.push(reduced);
                if fixed {
                    return IterationOutcome { stats, problems, stopped: StopReason::FixedPoint };
                }
            }
            Err(crate::error::RelimError::TooManyLabels { requested, .. }) => {
                return IterationOutcome {
                    stats,
                    problems,
                    stopped: StopReason::LabelLimit { labels: requested },
                }
            }
            Err(e) => {
                return IterationOutcome {
                    stats,
                    problems,
                    stopped: StopReason::Degenerate { message: e.to_string() },
                }
            }
        }
    }
    IterationOutcome { stats, problems, stopped: StopReason::MaxSteps }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;

    #[test]
    fn sinkless_orientation_fixed_point_detected() {
        let so = Problem::from_text("O I I I", "[O I] I").unwrap();
        let outcome = Engine::sequential().iterate_with_limits(&so, 4, 20);
        assert!(outcome.reached_fixed_point());
        // Sizes stable across the confirming step.
        assert_eq!(outcome.stats[0].labels, outcome.stats[1].labels);
    }

    #[test]
    fn mis_growth_hits_label_limit() {
        let mis = Problem::from_text("M M M\nP O O", "M [P O]\nO O").unwrap();
        let outcome = Engine::sequential().iterate_with_limits(&mis, 10, 20);
        assert!(matches!(outcome.stopped, StopReason::LabelLimit { .. }));
        // Strictly growing label counts before the stop.
        let labels: Vec<usize> = outcome.stats.iter().map(|s| s.labels).collect();
        assert!(labels.windows(2).all(|w| w[1] >= w[0]));
        assert!(labels.last().unwrap() > &labels[0]);
    }

    #[test]
    fn max_steps_respected() {
        let mis = Problem::from_text("M M M\nP O O", "M [P O]\nO O").unwrap();
        let outcome = Engine::sequential().iterate_with_limits(&mis, 1, 64);
        assert!(matches!(outcome.stopped, StopReason::MaxSteps) || outcome.stats.len() <= 2);
        assert!(outcome.stats.len() <= 2);
    }

    #[test]
    fn trivial_problem_is_fixed_point() {
        // One self-compatible label: R̄(R(·)) keeps the problem trivial.
        let p = Problem::from_text("A A", "A A").unwrap();
        let outcome = Engine::sequential().iterate_with_limits(&p, 3, 20);
        assert!(outcome.reached_fixed_point());
    }

    fn render_outcome(o: &IterationOutcome) -> String {
        let rendered: Vec<String> = o.problems.iter().map(Problem::render).collect();
        format!("{:?}\n{:?}\n{}", o.stats, o.stopped, rendered.join("\n---\n"))
    }

    #[test]
    fn memoized_iteration_matches_unmemoized_reference() {
        for (node, edge) in
            [("O I I I", "[O I] I"), ("M M M\nP O O", "M [P O]\nO O"), ("A A", "A A")]
        {
            let p = Problem::from_text(node, edge).unwrap();
            let unmemoized = Engine::builder().threads(1).memoize(false).build();
            let reference = render_outcome(&unmemoized.iterate_with_limits(&p, 6, 20));
            let memoized = render_outcome(&Engine::sequential().iterate_with_limits(&p, 6, 20));
            assert_eq!(memoized, reference, "problem: {node} / {edge}");
        }
    }

    #[test]
    fn cache_hits_share_the_index_and_change_nothing() {
        let p = Problem::from_text("M M M\nP O O", "M [P O]\nO O").unwrap();
        let cache = SubIndexCache::new(64);
        let first = cache.get_or_build(p.node());
        let second = cache.get_or_build(p.node());
        assert!(Arc::ptr_eq(&first, &second), "a hit must share the built index");
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (1, 1, 1));
        assert_eq!(first.len(), p.node().sub_multiset_index().len());
    }

    #[test]
    fn zero_capacity_cache_builds_every_time_and_holds_nothing() {
        let p = Problem::from_text("M M M\nP O O", "M [P O]\nO O").unwrap();
        let cache = SubIndexCache::new(0);
        let first = cache.get_or_build(p.node());
        let second = cache.get_or_build(p.node());
        assert!(!Arc::ptr_eq(&first, &second), "nothing may be shared");
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (0, 2, 0));
        assert_eq!(first.len(), second.len());
    }

    #[test]
    fn cache_epoch_reset_respects_capacity() {
        let cache = SubIndexCache::new(2);
        let constraints = ["A A", "A B", "B B"].map(|e| {
            let p = Problem::from_text("A A\nB B", e).unwrap();
            p.edge().clone()
        });
        for c in &constraints {
            cache.get_or_build(c);
        }
        // Third insert overflowed capacity 2: the map was cleared first.
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.misses(), 3);
    }

    #[test]
    fn replacing_a_resident_key_at_capacity_does_not_epoch_reset() {
        // A racing duplicate build re-inserts a key the full map already
        // holds; that replacement must not clear the map (it cannot grow
        // it), while a genuinely new key at capacity still resets.
        let cache = SubIndexCache::new(2);
        let constraints = ["A A", "A B", "B B"].map(|e| {
            let p = Problem::from_text("A A\nB B", e).unwrap();
            p.edge().clone()
        });
        let a = cache.get_or_build(&constraints[0]);
        cache.get_or_build(&constraints[1]);
        assert_eq!(cache.len(), 2);
        cache.insert(constraints[0].clone(), Arc::clone(&a));
        assert_eq!(cache.len(), 2, "replacement cleared the map");
        cache.insert(constraints[2].clone(), Arc::clone(&a));
        assert_eq!(cache.len(), 1, "a new key at capacity must epoch-reset");
    }

    #[test]
    fn hit_path_returns_without_owning_the_key() {
        // `lookup` takes the constraint by reference and a hit comes back
        // as a shared `Arc`; `get_or_build` must answer a second call from
        // `lookup` alone (hits == 1) so only the first (miss) call pays
        // the `constraint.clone()` insert.
        let p = Problem::from_text("M M M\nP O O", "M [P O]\nO O").unwrap();
        let cache = SubIndexCache::new(64);
        let built = cache.get_or_build(p.node());
        let hit = cache.lookup(p.node()).expect("must be resident");
        assert!(Arc::ptr_eq(&built, &hit));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn cache_shares_across_threads_without_output_drift() {
        let p = Problem::from_text("M M M\nP O O", "M [P O]\nO O").unwrap();
        let reference = p.node().sub_multiset_index();
        let cache = Arc::new(SubIndexCache::new(64));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let constraint = p.node().clone();
                std::thread::spawn(move || cache.get_or_build(&constraint).len())
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), reference.len());
        }
        // Every thread either hit or missed; at most one entry exists
        // (duplicate racing builds insert the same bytes).
        assert_eq!(cache.hits() + cache.misses(), 4);
        assert_eq!(cache.len(), 1);
        assert!(cache.misses() >= 1, "someone had to build");
    }

    #[test]
    fn fixed_point_confirmation_hits_the_cache() {
        // Sinkless orientation: the confirming step recomputes the same
        // problem, so its R(Π) node constraint repeats exactly and the
        // session's cache must score a hit. (Alphabet *names* grow each
        // step — the provenance-set display — but the cache keys on the
        // name-free `Constraint`, which repeats exactly at the fixed
        // point.)
        let so = Problem::from_text("O I I", "[O I] I").unwrap();
        let engine = Engine::sequential();
        let mut current = so.drop_unused_labels().0;
        for step in 0..2 {
            let (_, rr) = engine.rr_step(&current).unwrap();
            let (reduced, _) = rr.problem.drop_unused_labels();
            assert!(iso::isomorphic(&reduced, &current), "step {step} left the fixed point");
            current = reduced;
        }
        let report = engine.report();
        assert_eq!(report.cache_hits, 1, "the confirming step must reuse the index");
        assert_eq!((report.cache_misses, report.cache_entries), (1, 1));
    }
}
