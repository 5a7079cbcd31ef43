//! The concurrency battery for the shared [`SubIndexCache`]: M threads
//! running clones of one [`Engine`] session over a shared cache must be
//! **byte-identical** to a fresh single-threaded engine — with
//! memoization on or off — and hammering one constraint from every thread
//! must never show more duplicate index builds than the benign
//! lookup→build→insert race allows (at most one extra build per racing
//! thread, never a wrong byte). The raw cache is hammered directly too.

use proptest::prelude::*;
use relim_core::iterate::{IterationOutcome, SubIndexCache};
use relim_core::{Engine, Problem};
use std::sync::{Arc, Barrier};

/// The full observable surface of an iteration: stats, stop reason and
/// every intermediate problem, rendered.
fn render(o: &IterationOutcome) -> String {
    let rendered: Vec<String> = o.problems.iter().map(Problem::render).collect();
    format!("{:?}\n{:?}\n{}", o.stats, o.stopped, rendered.join("\n---\n"))
}

/// A workload mixing a fixed point, doubly-exponential growth, a trivial
/// problem and a second fixed point — repeated probes recur on the same
/// node constraints, so threads genuinely share cache entries.
const PROBLEMS: &[(&str, &str, usize, usize)] = &[
    ("O I I", "[O I] I", 4, 20),
    ("M M M\nP O O", "M [P O]\nO O", 2, 20),
    ("A A", "A A", 3, 20),
    ("O I I I", "[O I] I", 4, 20),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// M engine-clone threads over one shared cache, each
    /// walking the workload from a rotated offset (so different threads
    /// populate and consume different entries first), must reproduce the
    /// fresh single-threaded reference byte-for-byte — with memoization
    /// on or off.
    #[test]
    fn engine_clones_sharing_the_cache_match_a_fresh_sequential_engine(
        threads in 2usize..=6,
        memoize_bit in 0usize..2,
        rotation in 0usize..4,
    ) {
        let memoize = memoize_bit == 1;
        let references: Vec<String> = PROBLEMS
            .iter()
            .map(|&(node, edge, steps, limit)| {
                let p = Problem::from_text(node, edge).unwrap();
                render(&Engine::sequential().iterate_with_limits(&p, steps, limit))
            })
            .collect();

        let engine = Engine::builder().threads(1).memoize(memoize).build();
        let barrier = Arc::new(Barrier::new(threads));
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let engine = engine.clone();
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    (0..PROBLEMS.len())
                        .map(|i| {
                            let idx = (i + t + rotation) % PROBLEMS.len();
                            let (node, edge, steps, limit) = PROBLEMS[idx];
                            let p = Problem::from_text(node, edge).unwrap();
                            (idx, render(&engine.iterate_with_limits(&p, steps, limit)))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            for (idx, got) in handle.join().expect("worker panicked") {
                prop_assert_eq!(
                    &got,
                    &references[idx],
                    "threads={} memoize={} problem #{} drifted",
                    threads,
                    memoize,
                    idx
                );
            }
        }
        let report = engine.report();
        if memoize {
            prop_assert!(
                report.cache_hits >= 1,
                "shared probes of recurring constraints must hit: {:?}",
                report
            );
        } else {
            prop_assert_eq!(report.cache_hits, 0, "memoization off never hits");
        }
    }
}

/// Every thread hammers the *same* problem through one shared session.
/// Each run performs exactly one index lookup, so across two waves of M
/// runs there are 2·M lookups; only the first wave's racing window may
/// build — at most once per thread, the benign race bound — and the
/// second wave must be answered entirely from the shared cache.
#[test]
fn same_constraint_hammer_stays_within_the_benign_race_bound() {
    let so = Problem::from_text("O I I", "[O I] I").unwrap();
    let reference = render(&Engine::sequential().iterate_with_limits(&so, 5, 20));
    let threads = 8usize;
    let engine = Engine::builder().threads(1).build();
    let run_wave = |wave: usize| {
        let barrier = Arc::new(Barrier::new(threads));
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let engine = engine.clone();
                let p = so.clone();
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    render(&engine.iterate_with_limits(&p, 5, 20))
                })
            })
            .collect();
        for handle in handles {
            let got = handle.join().expect("hammer thread panicked");
            assert_eq!(got, reference, "wave={wave} drifted");
        }
    };

    run_wave(1);
    let after_first = engine.report();
    assert_eq!(
        after_first.cache_hits + after_first.cache_misses,
        threads as u64,
        "one lookup per run: {after_first:?}"
    );
    assert!(after_first.cache_misses >= 1, "someone built: {after_first:?}");
    assert!(
        after_first.cache_misses <= threads as u64,
        "duplicate builds beyond the benign race bound: {after_first:?}"
    );
    assert_eq!(after_first.cache_entries, 1, "one constraint, one entry");

    run_wave(2);
    let after_second = engine.report();
    assert_eq!(
        after_second.cache_misses, after_first.cache_misses,
        "a warm cache must not build again: {after_second:?}"
    );
    assert_eq!(
        after_second.cache_hits,
        after_first.cache_hits + threads as u64,
        "the second wave is served entirely from cache: {after_second:?}"
    );
}

/// The raw cache under the same hammer: M threads calling
/// `get_or_build` on one constraint get pointer-identical or
/// byte-identical indices, and the counters balance exactly.
#[test]
fn raw_cache_hammer_counters_balance() {
    let p = Problem::from_text("M M M\nP O O", "M [P O]\nO O").unwrap();
    let expected = p.node().sub_multiset_index().len();
    let threads = 8usize;
    let cache = Arc::new(SubIndexCache::new(64));
    let barrier = Arc::new(Barrier::new(threads));
    let handles: Vec<_> = (0..threads)
        .map(|_| {
            let cache = Arc::clone(&cache);
            let constraint = p.node().clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                cache.get_or_build(&constraint).len()
            })
        })
        .collect();
    for handle in handles {
        assert_eq!(handle.join().unwrap(), expected);
    }
    assert_eq!(cache.hits() + cache.misses(), threads as u64);
    assert!(cache.misses() >= 1 && cache.misses() <= threads as u64);
    assert_eq!(cache.len(), 1);
}
