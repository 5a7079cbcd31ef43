//! Differential property tests for the round-elimination `Engine`
//! sessions: at thread counts 1, 2 and 8, with session memoization on and
//! off, every `Engine` method must produce **byte-identical** output to
//! the reference — the determinism invariant the persistent pool
//! promises (task `i`'s result lands in slot `i`, so the schedule can
//! never leak into the output) composed with the cache
//! invariant (a sub-multiset index served from the session cache is a
//! pure function of the constraint). The reference for steps and
//! iterations is a width-1 session with memoization off (every batch
//! inline, every index rebuilt).
//!
//! Problems are drawn from the full space of small LCLs (random non-empty
//! subsets of the node/edge configuration spaces), seeded via the standard
//! `PROPTEST_SEED` plumbing.

use mis_domset_lb::relim::autolb::{self, AutoLbOptions};
use mis_domset_lb::relim::iterate::IterationOutcome;
use mis_domset_lb::relim::{Alphabet, Config, Constraint, Label, Problem};
use mis_domset_lb::Engine;
use proptest::prelude::*;

/// The engine configurations every differential below sweeps: thread
/// counts 1/2/8, memoization on and off.
fn engine_grid() -> Vec<Engine> {
    let mut engines = Vec::new();
    for threads in [1usize, 2, 8] {
        for memoize in [true, false] {
            engines.push(Engine::builder().threads(threads).memoize(memoize).build());
        }
    }
    engines
}

/// The reference session: one thread (every batch inline on the caller)
/// and memoization off (every sub-multiset index rebuilt).
fn reference_engine() -> Engine {
    Engine::builder().threads(1).memoize(false).build()
}

/// All multisets of `k` labels over `num_labels` labels.
fn multisets(num_labels: u8, k: u32) -> Vec<Config> {
    let labels: Vec<Label> = (0..num_labels).map(Label::new).collect();
    let mut out = Vec::new();
    let mut cur: Vec<Label> = Vec::new();
    fn rec(labels: &[Label], start: usize, k: u32, cur: &mut Vec<Label>, out: &mut Vec<Config>) {
        if k == 0 {
            out.push(Config::new(cur.clone()));
            return;
        }
        for (i, &l) in labels.iter().enumerate().skip(start) {
            cur.push(l);
            rec(labels, i, k - 1, cur, out);
            cur.pop();
        }
    }
    rec(&labels, 0, k, &mut cur, &mut out);
    out
}

/// Random small problems: any non-empty subset of the node configuration
/// space × any non-empty subset of the edge configuration space.
fn problems() -> impl Strategy<Value = Problem> {
    ((2u8..=3), (2u32..=3)).prop_flat_map(|(num_labels, delta)| {
        let node_space = multisets(num_labels, delta);
        let edge_space = multisets(num_labels, 2);
        let node_max = (1u32 << node_space.len()) - 1;
        let edge_max = (1u32 << edge_space.len()) - 1;
        ((1u32..=node_max), (1u32..=edge_max)).prop_map(move |(node_mask, edge_mask)| {
            let names: Vec<String> = (0..num_labels).map(|i| format!("L{i}")).collect();
            let pick = |space: &[Config], mask: u32| -> Vec<Config> {
                space
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| mask & (1 << i) != 0)
                    .map(|(_, c)| c.clone())
                    .collect()
            };
            Problem::new(
                Alphabet::new(&names).expect("valid"),
                Constraint::from_configs(pick(&node_space, node_mask)).expect("non-empty"),
                Constraint::from_configs(pick(&edge_space, edge_mask)).expect("non-empty"),
            )
            .expect("valid")
        })
    })
}

/// Canonical rendering of an `rr_step` outcome, errors included (a
/// parallel run must reproduce even the failure byte-for-byte).
fn render_rr(
    outcome: &mis_domset_lb::relim::error::Result<(
        mis_domset_lb::relim::Step,
        mis_domset_lb::relim::Step,
    )>,
) -> String {
    match outcome {
        Ok((r, rr)) => format!(
            "R: {}\nprov: {:?}\nRR: {}\nprov: {:?}",
            r.problem.render(),
            r.provenance,
            rr.problem.render(),
            rr.provenance
        ),
        Err(e) => format!("error: {e:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `Engine::rr_step` — at threads 1/2/8, memo on/off, warm or cold
    /// cache — is byte-identical to the reference session, including on
    /// degenerate problems where every path must fail with the same
    /// error.
    #[test]
    fn rr_step_identical_across_engines(p in problems()) {
        let sequential = render_rr(&reference_engine().rr_step(&p));
        for engine in engine_grid() {
            let got = render_rr(&engine.rr_step(&p));
            prop_assert_eq!(&got, &sequential,
                            "engine threads = {}, memo = {}", engine.threads(), engine.memoizing());
            // Warm cache: a repeated step must not change a byte.
            let warm = render_rr(&engine.rr_step(&p));
            prop_assert_eq!(&warm, &sequential,
                            "warm cache, threads = {}", engine.threads());
        }
    }

    /// End-to-end `Engine::iterate_with_limits` (a full fixed-point
    /// search, not a single step) is byte-identical to the reference
    /// session across threads 1/2/8 and memoization on/off.
    #[test]
    fn iterate_identical_across_engines(p in problems()) {
        let reference = render_outcome(&reference_engine().iterate_with_limits(&p, 4, 12));
        for engine in engine_grid() {
            let session = render_outcome(&engine.iterate_with_limits(&p, 4, 12));
            prop_assert_eq!(&session, &reference,
                            "engine threads = {}, memo = {}", engine.threads(), engine.memoizing());
        }
    }

    /// The automatic lower-bound search through a session — any width,
    /// memo on/off, even a session whose cache was warmed by an unrelated
    /// call — matches the cold sequential session outcome exactly.
    #[test]
    fn autolb_identical_across_engines(p in problems()) {
        let opts = AutoLbOptions { max_steps: 2, label_budget: 5, ..Default::default() };
        let render = |o: &autolb::AutoLbOutcome| {
            let chain: Vec<String> = o.chain().map(Problem::render).collect();
            format!("{:?} {} {}", o.stopped, o.certified_rounds, chain.join("|"))
        };
        let reference = render(&Engine::sequential().auto_lower_bound(&p, &opts));
        for engine in engine_grid() {
            prop_assert_eq!(&render(&engine.auto_lower_bound(&p, &opts)), &reference,
                            "engine threads = {}, memo = {}", engine.threads(), engine.memoizing());
            // Warm the cache with an unrelated probe, then search again:
            // still byte-identical (hits return the same bytes).
            engine.iterate_with_limits(&p, 1, 12);
            prop_assert_eq!(&render(&engine.auto_lower_bound(&p, &opts)), &reference,
                            "warmed cache, threads = {}", engine.threads());
        }
    }
}

/// Canonical rendering of a full iteration outcome: per-step stats, stop
/// reason, and every intermediate problem's exact text.
fn render_outcome(o: &IterationOutcome) -> String {
    let rendered: Vec<String> = o.problems.iter().map(Problem::render).collect();
    format!("{:?}\n{:?}\n{}", o.stats, o.stopped, rendered.join("\n---\n"))
}
