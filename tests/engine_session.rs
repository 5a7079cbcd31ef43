//! Session-level behavior of `relim_core::engine::Engine`: one pool
//! handle and one `SubIndexCache` owned by the session and shared across
//! *all* of its calls. The assertions here are the acceptance criteria of
//! the session API: `autolb` demonstrably reuses one cache across the
//! merge search (hit counters observed through `EngineReport`), repeat
//! searches rebuild nothing, and none of it changes a single output byte.

use mis_domset_lb::family::family;
use mis_domset_lb::relim::autolb::AutoLbOptions;
use mis_domset_lb::relim::autoub::AutoUbOptions;
use mis_domset_lb::relim::engine::CACHE_CAPACITY;
use mis_domset_lb::relim::Problem;
use mis_domset_lb::Engine;

fn sinkless() -> Problem {
    Problem::from_text("O I I", "[O I] I").unwrap()
}

/// The ROADMAP item this API closed: the `autolb` merge search runs
/// against the session's one `SubIndexCache`. An `iterate` probe warms
/// the cache; the full lower-bound search that follows is then served
/// entirely from it (hits observed, zero new builds), and a repeated
/// search stays hit-only — with byte-identical outcomes throughout.
#[test]
fn autolb_merge_search_reuses_the_session_cache() {
    let engine = Engine::sequential();
    let so = sinkless();
    engine.iterate_with_limits(&so, 1, 20);
    let warmed = engine.report();
    assert!(warmed.cache_misses >= 1, "the probe must have built an index");

    let first = engine.auto_lower_bound(&so, &AutoLbOptions::default());
    assert!(first.unbounded());
    let after_first = engine.report();
    assert!(
        after_first.cache_hits > warmed.cache_hits,
        "the merge search must be served from the session cache: {after_first:?}"
    );
    assert_eq!(
        after_first.cache_misses, warmed.cache_misses,
        "the merge search must not rebuild any index: {after_first:?}"
    );

    let second = engine.auto_lower_bound(&so, &AutoLbOptions::default());
    let after_second = engine.report();
    assert_eq!(after_second.cache_misses, after_first.cache_misses, "repeat run rebuilt an index");
    assert!(after_second.cache_hits > after_first.cache_hits);

    // Cache traffic never leaks into results.
    let render = |o: &mis_domset_lb::relim::autolb::AutoLbOutcome| {
        let chain: Vec<String> = o.chain().map(Problem::render).collect();
        format!("{:?} {} {}", o.stopped, o.certified_rounds, chain.join("|"))
    };
    assert_eq!(render(&first), render(&second));
    let cold = Engine::sequential().auto_lower_bound(&so, &AutoLbOptions::default());
    assert_eq!(render(&first), render(&cold), "session reuse changed the outcome");
}

/// Within one `autoub` chain on a fixed point the same `R(Π)` node
/// constraint repeats byte-for-byte: steps after the first must hit.
#[test]
fn autoub_chain_is_served_from_cache_within_one_search() {
    let engine = Engine::sequential();
    let opts = AutoUbOptions { max_steps: 3, label_budget: 20, coloring: None };
    let outcome = engine.auto_upper_bound(&sinkless(), &opts);
    assert!(outcome.bound.is_none(), "sinkless orientation never becomes trivial");
    let report = engine.report();
    assert_eq!((report.cache_hits, report.cache_misses), (2, 1), "{report:?}");
}

/// The memoization toggle is observable (misses only) and harmless
/// (outputs identical); the cache never holds more than its fixed
/// capacity.
#[test]
fn builder_knobs_are_observable_and_output_neutral() {
    let mis = family::mis(3).unwrap();
    let memo_on = Engine::builder().threads(1).build();
    let memo_off = Engine::builder().threads(1).memoize(false).build();
    let a = memo_on.iterate_with_limits(&mis, 3, 20);
    let b = memo_off.iterate_with_limits(&mis, 3, 20);
    assert_eq!(format!("{:?}{:?}", a.stats, a.stopped), format!("{:?}{:?}", b.stats, b.stopped));
    assert_eq!(memo_off.report().cache_hits, 0, "memoization off must never hit");
    assert!(memo_off.report().cache_misses >= 1);
    let on = memo_on.report();
    assert!(on.cache_entries >= 1 && on.cache_entries <= CACHE_CAPACITY, "{on:?}");
    assert!(!memo_off.report().memoize);
    assert!(on.memoize);
}

/// One session handle fans out across a sweep: clones share the cache
/// and the counters, and the sweep's outputs match a cold session's.
#[test]
fn sweep_clones_share_the_session() {
    use mis_domset_lb::family::lemma6;
    let engine = Engine::builder().threads(2).build();
    let sweep = lemma6::verify_sweep(4, &engine).unwrap();
    let cold = lemma6::verify_sweep(4, &Engine::sequential()).unwrap();
    assert_eq!(format!("{sweep:?}"), format!("{cold:?}"));
    assert!(engine.report().map_batches >= 1, "the sweep must go through the session");
}

/// The report's operator counters track what actually ran.
#[test]
fn report_counts_session_operators() {
    let engine = Engine::sequential();
    let mis = family::mis(3).unwrap();
    engine.rr_step(&mis).unwrap();
    engine.iterate_with_limits(&mis, 1, 40);
    engine.auto_lower_bound(&mis, &AutoLbOptions { max_steps: 1, ..Default::default() });
    let report = engine.report();
    assert_eq!(report.iterate_runs, 1);
    assert_eq!(report.autolb_runs, 1);
    assert!(report.r_steps >= 3, "{report:?}");
    assert!(report.rbar_steps >= 3, "{report:?}");
    assert_eq!(report.threads, 1);
}
