//! Cross-crate integration tests for the automatic bound search
//! (`autolb` / `autoub`), the coloring-input 0-round criteria, the
//! CONGEST accounting, and the Δ-independent tree MIS — the extension
//! layer on top of the paper's hand-crafted chain (see `tests/pipeline.rs`
//! for the latter).

use mis_domset_lb::algos::{domset, luby, tree_mis};
use mis_domset_lb::family::family::{self, PiParams};
use mis_domset_lb::family::sequence;
use mis_domset_lb::relim::autolb::{self, AutoLbOptions, Triviality};
use mis_domset_lb::relim::autoub::{self, AutoUbOptions, UbKind};
use mis_domset_lb::relim::{zeroround, Problem};
use mis_domset_lb::sim::checkers::check_mis;
use mis_domset_lb::sim::congest::{run_congest, MessageSize};
use mis_domset_lb::sim::runner::RunConfig;
use mis_domset_lb::sim::{trees, Graph};
use mis_domset_lb::Engine;

/// Lemma 12 certifies that every `Π_Δ(a,x)` with `a ≥ 1`, `x ≤ Δ−1` is
/// non-trivial even given the Δ-edge coloring; the automatic search must
/// therefore certify at least one round from any family member, with a
/// replayable certificate.
#[test]
fn autolb_certifies_family_members() {
    for (delta, a, x) in [(3u32, 3u32, 0u32), (4, 4, 0), (4, 3, 1)] {
        let p = family::pi(&PiParams { delta, a, x }).unwrap();
        let opts = AutoLbOptions { max_steps: 1, label_budget: 6, ..Default::default() };
        let outcome = Engine::sequential().auto_lower_bound(&p, &opts);
        assert!(
            outcome.certified_rounds >= 1,
            "Π_{delta}({a},{x}): certified {}",
            outcome.certified_rounds
        );
        assert_eq!(
            autolb::verify_chain(&outcome, &Engine::sequential()).unwrap(),
            outcome.certified_rounds
        );
    }
}

/// The automatic chain from the paper's own MIS encoding at Δ = 3 extends
/// beyond the input problem: the engine rediscovers (a weak form of) the
/// paper's result without any of the hand-crafted Lemma 6–9 machinery.
#[test]
fn autolb_extends_mis_chain() {
    let mis = family::mis(3).unwrap();
    let opts = AutoLbOptions { max_steps: 2, label_budget: 6, ..Default::default() };
    let outcome = Engine::sequential().auto_lower_bound(&mis, &opts);
    assert!(outcome.certified_rounds >= 2, "certified {}", outcome.certified_rounds);
    assert_eq!(
        autolb::verify_chain(&outcome, &Engine::sequential()).unwrap(),
        outcome.certified_rounds
    );
    // The merges recorded are genuine (every step within budget).
    for step in &outcome.steps {
        assert!(step.problem.alphabet().len() <= 6);
    }
}

/// The paper's hand-crafted chain (Lemma 13 schedule) and the automatic
/// search agree on the *direction* of the bound; the hand-crafted chain is
/// far longer at large Δ, which is exactly why the paper's analysis is
/// needed.
#[test]
fn paper_chain_beats_generic_search_at_scale() {
    let delta = 4096;
    let paper = sequence::paper_chain(delta, 0);
    // The paper certifies Ω(log Δ) rounds at Δ = 4096.
    assert!(paper.pn_round_lower_bound() >= 3);
    // The generic engine cannot even take one step at Δ = 4096 within a
    // sane label budget — the hand-crafted family is the whole point.
    let mis = family::mis(8).unwrap(); // already Δ = 8 is heavy for raw rr
    let opts = AutoLbOptions { max_steps: 1, label_budget: 4, ..Default::default() };
    let outcome = Engine::sequential().auto_lower_bound(&mis, &opts);
    // Whatever happens (engine error, no viable merge, or one step), the
    // certificate must stay consistent.
    assert_eq!(
        autolb::verify_chain(&outcome, &Engine::sequential()).unwrap(),
        outcome.certified_rounds
    );
}

/// MIS on cycles: 0-round solvable given a proper 2-coloring (map color 1
/// to MM and color 2 to PO), but **not** given a 3-coloring — a fact the
/// clique criterion decides exactly.
#[test]
fn mis_on_cycles_coloring_criteria() {
    let mis2 = family::mis(2).unwrap();
    assert!(zeroround::coloring_witness(&mis2, 2).is_some());
    assert!(zeroround::coloring_witness(&mis2, 3).is_none());
    assert_eq!(zeroround::max_coloring_solvable(&mis2, 8), Some(2));

    // Given a 3-coloring the greedy sweep needs a constant number of
    // rounds; autoub finds and certifies such a bound.
    let opts = AutoUbOptions { max_steps: 6, label_budget: 14, coloring: Some(3) };
    let outcome = Engine::sequential().auto_upper_bound(&mis2, &opts);
    let bound = outcome.bound.clone().expect("constant bound exists");
    assert!(bound.rounds >= 1, "not 0-round solvable with 3 colors");
    assert_eq!(bound.kind, UbKind::VertexColoring { colors: 3 });
    assert_eq!(autoub::verify_ub(&outcome, &Engine::sequential()).unwrap(), Some(bound.rounds));
}

/// Upper and lower automatic bounds are consistent on a mixed sample of
/// problems: whenever both exist (same criterion strength), lb ≤ ub.
#[test]
fn automatic_bounds_are_consistent() {
    for (node, edge) in
        [("A A A", "A A"), ("M O", "M M;O O"), ("M M;P O", "M [P O];O O"), ("A A;B B", "A B")]
    {
        let p = Problem::from_text(&node.replace(';', "\n"), &edge.replace(';', "\n")).unwrap();
        let engine = Engine::sequential();
        let lb = engine.auto_lower_bound(
            &p,
            &AutoLbOptions { max_steps: 3, label_budget: 8, triviality: Triviality::Universal },
        );
        let ub = engine.auto_upper_bound(
            &p,
            &AutoUbOptions { max_steps: 3, label_budget: 14, coloring: None },
        );
        if let Some(bound) = &ub.bound {
            if bound.kind == UbKind::Pn {
                assert!(
                    lb.certified_rounds <= bound.rounds,
                    "{node}/{edge}: lb {} > ub {}",
                    lb.certified_rounds,
                    bound.rounds
                );
            }
        }
    }
}

/// Luby's MIS is CONGEST-compatible on moderately large trees: its
/// messages are a lottery value or a bit, 65 bits max.
#[test]
fn luby_fits_congest_on_large_trees() {
    let g = trees::random_tree(400, 8, 1).unwrap();
    let config = RunConfig::port_numbering(3, 200);
    let inputs = vec![(); g.n()];
    let report = run_congest::<luby::Luby>(&g, &inputs, &config).unwrap();
    check_mis(&g, &report.outputs).unwrap();
    assert_eq!(report.stats.max_message_bits, 65);
    assert!(report.stats.is_congest(g.n()), "budget {}", report.stats.max_message_bits);
}

/// The layered tree-MIS sweep also fits CONGEST (full-state messages are
/// two flags plus one color).
#[test]
fn tree_mis_sweep_fits_congest() {
    let g = trees::random_tree(300, 12, 2).unwrap();
    let hp = tree_mis::h_partition(&g, 0).unwrap();
    let inputs: Vec<tree_mis::LayerInput> = hp
        .layers
        .iter()
        .map(|&layer| tree_mis::LayerInput { layer, num_layers: hp.num_layers })
        .collect();
    let config = RunConfig::local(&g, 5, 4000);
    let report = run_congest::<tree_mis::LayeredSweep>(&g, &inputs, &config).unwrap();
    check_mis(&g, &report.outputs).unwrap();
    assert_eq!(report.stats.max_message_bits, 66);
    assert!(report.stats.is_congest(g.n()));
}

/// On a high-degree tree the Δ-independent algorithm needs far fewer
/// rounds than the Δ-dependent deterministic sweep — the trade-off the
/// paper's §1.3 discussion of tree algorithms is about.
#[test]
fn tree_mis_beats_delta_sweep_on_wide_trees() {
    let g = trees::star(200).unwrap(); // Δ = 200
    let wide = tree_mis::tree_mis(&g, 1).unwrap();
    check_mis(&g, &wide.in_set).unwrap();
    let sweep = domset::mis_deterministic(&g, 1).unwrap();
    check_mis(&g, &sweep.in_set).unwrap();
    assert!(
        wide.rounds.total() < sweep.rounds.total(),
        "tree_mis {} vs sweep {}",
        wide.rounds.total(),
        sweep.rounds.total()
    );
}

/// Message-size accounting composes through containers the way the wire
/// encoding would.
#[test]
fn message_size_composition() {
    assert_eq!(().size_bits(), 0);
    assert_eq!(true.size_bits(), 1);
    assert_eq!(7u64.size_bits(), 64);
    assert_eq!(Some(7u32).size_bits(), 33);
    assert_eq!(None::<u32>.size_bits(), 1);
    assert_eq!(vec![1u8, 2, 3].size_bits(), 32 + 24);
    assert_eq!((true, 1u16).size_bits(), 17);
    assert_eq!((true, 1u16, vec![false]).size_bits(), 17 + 33);
}

/// The universal and gadget criteria nest correctly on every family
/// member and on their `R̄(R(·))` derivatives.
#[test]
fn criteria_nest_on_family() {
    for (delta, a, x) in [(3u32, 2u32, 0u32), (4, 3, 1), (5, 4, 2)] {
        let p = family::pi(&PiParams { delta, a, x }).unwrap();
        // Universal solvable ⇒ gadget solvable (contrapositive checked).
        assert!(!zeroround::solvable_deterministically(&p));
        assert!(!zeroround::solvable_pn_universal(&p));
    }
}

/// Cycles vs paths: the Cole–Vishkin pipeline and tree MIS agree with the
/// checkers on both topologies.
#[test]
fn degree_two_topologies_end_to_end() {
    use mis_domset_lb::algos::cole_vishkin;
    let cycle = Graph::cycle(30).unwrap();
    let (cv_set, _) = cole_vishkin::cv_mis(&cycle, 3).unwrap();
    check_mis(&cycle, &cv_set).unwrap();

    let path = trees::path(30).unwrap();
    let rep = tree_mis::tree_mis(&path, 3).unwrap();
    check_mis(&path, &rep.in_set).unwrap();
    assert_eq!(rep.num_layers, 1);
}
