//! Cross-crate integration tests: the full lower-bound pipeline of the
//! paper, from the round elimination engine through the problem family to
//! the final bounds.

use mis_domset_lb::family::family::{self, PiParams};
use mis_domset_lb::family::lemma8::Lemma8Machinery;
use mis_domset_lb::family::{bounds, convert, lemma6, sequence, sinkless, transforms};
use mis_domset_lb::relim::roundelim;
use mis_domset_lb::relim::{iso, zeroround, Engine};
use mis_domset_lb::sim::lcl_solver::LeafPolicy;
use mis_domset_lb::sim::{edge_coloring, trees};

/// The complete Lemma 13 argument, mechanically, for Δ = 4:
/// Π_Δ(a,x) → R̄(R(·)) → relax (Lemma 8) → Π⁺ → edge-coloring transform
/// (Lemma 9) → relax (Lemma 11) → next family member, all witnessed by
/// actual labelings on an actual tree.
#[test]
fn one_full_chain_step_with_witnesses() {
    let params = PiParams { delta: 4, a: 4, x: 0 };
    let tree = trees::complete_regular_tree(4, 3).unwrap();
    let coloring = edge_coloring::tree_edge_coloring(&tree).unwrap();

    // Lemma 6 + Lemma 8 verification at these parameters.
    assert!(lemma6::verify(&params).unwrap().matches_paper());
    let mach = Lemma8Machinery::compute(&params, &mis_domset_lb::Engine::sequential()).unwrap();
    assert!(mach.verify().matches_paper());

    // Solve R̄(R(Π)) on the tree and convert to Π⁺ (Lemma 8's 0-round map).
    let check = mach.end_to_end(&tree, 5).unwrap().expect("R̄(R(Π)) solvable on the tree");
    assert!(check.is_ok(), "{check:?}");

    // Now the Lemma 9 conversion on an actual Π⁺ solution.
    let plus = family::pi_plus(&params).unwrap();
    let inst = convert::to_lcl(&plus, LeafPolicy::SubMultiset).unwrap();
    let plus_sol = inst.solve(&tree, 8).unwrap().expect("solvable");
    let (converted, next) =
        transforms::lemma9_transform(&params, &tree, &coloring, &plus_sol).unwrap();
    assert_eq!(next, params.corollary10_step());
    let pi_next = family::pi(&next).unwrap();
    convert::check_labeling(&pi_next, &tree, &converted, convert::BoundaryPolicy::InteriorOnly)
        .unwrap();

    // And Lemma 11 down to the paper-schedule parameters.
    let scheduled = PiParams { delta: 4, a: next.a.min(1), x: next.x };
    let relaxed = transforms::lemma11_relax(&next, &scheduled, &tree, &converted).unwrap();
    let pi_sched = family::pi(&scheduled).unwrap();
    convert::check_labeling(&pi_sched, &tree, &relaxed, convert::BoundaryPolicy::InteriorOnly)
        .unwrap();
}

/// Lemma 12 holds along every chain the bound evaluators use.
#[test]
fn chains_end_in_non_zero_round_solvable_problems() {
    for delta in [4u32, 5, 6, 8] {
        let chain = sequence::paper_chain(delta, 0);
        for step in &chain.steps {
            let p = family::pi(step).unwrap();
            assert!(
                !zeroround::solvable_deterministically(&p),
                "Π_{}({},{}) unexpectedly 0-round solvable",
                delta,
                step.a,
                step.x
            );
            let report = zeroround::analyze(&p);
            assert!(report.randomized_failure_lower_bound > 0.0);
            // The paper's generalized bound: (1/(mΔ))² with m = 3 configs.
            assert!(report.randomized_failure_lower_bound >= 1.0 / f64::from(delta).powi(8));
        }
    }
}

/// The engine round-trips the MIS problem through text parsing, renaming
/// and a full R̄(R(·)) step without violating structural invariants.
#[test]
fn mis_survives_full_round_elimination_step() {
    let mis = family::mis(3).unwrap();
    let (r, rr) = Engine::sequential().rr_step(&mis).unwrap();
    // R(MIS) must contain the pointer structure: more labels than MIS.
    assert!(r.problem.alphabet().len() >= 3);
    assert!(rr.problem.alphabet().len() >= 3);
    // Every RR node configuration admits choices in R's node constraint.
    for cfg in rr.problem.node().iter() {
        let sc = rr.as_set_config(cfg);
        for set in sc.iter() {
            assert!(!set.is_empty());
        }
    }
    // The RR problem is strictly easier: it must be solvable wherever MIS
    // was; sanity-check 0-round analysis does not *gain* hardness.
    let mis_report = zeroround::analyze(&mis);
    assert!(!mis_report.deterministically_solvable);
}

/// Sinkless orientation: fixed point + the strict encoding converges to it.
#[test]
fn sinkless_orientation_anchor() {
    for delta in 3..=4 {
        let report = sinkless::check_fixed_point(delta, &Engine::sequential()).unwrap();
        assert!(report.is_fixed_point, "delta={delta}");
    }
    let strict = sinkless::sinkless_orientation_strict_edges(4).unwrap();
    let (_, rr) = Engine::sequential().rr_step(&strict).unwrap();
    let (reduced, _) = rr.problem.drop_unused_labels();
    assert!(iso::isomorphic(&reduced, &sinkless::sinkless_orientation(4).unwrap()));
}

/// Theorem 1 / Corollary 2 arithmetic stays consistent with the chains.
#[test]
fn bounds_consistent_with_chains() {
    for delta in [64u32, 4096, 1 << 18] {
        let t = bounds::pn_lower_bound(delta, 0);
        assert_eq!(t, sequence::paper_chain(delta, 0).length());
        let huge_n = 1e60;
        assert!((bounds::theorem1_det(huge_n, delta, 0) - f64::from(t)).abs() < 1e-9);
    }
    // Corollary 2's bound grows without limit in n.
    let (_, b_small) = bounds::corollary2_det(1e6);
    let (_, b_large) = bounds::corollary2_det(1e40);
    assert!(b_large > b_small);
}

/// The doubly-exponential growth phenomenon (§1.2) that motivates the
/// paper's constant-label family: applying R̄(R(·)) to MIS without
/// simplification grows the alphabet quickly, while the family stays at
/// ≤ 8 labels by construction.
#[test]
fn growth_contrast_between_naive_and_family() {
    let mis = family::mis(3).unwrap();
    let (r1, rr1) = Engine::sequential().rr_step(&mis).unwrap();
    let naive_labels =
        [mis.alphabet().len(), r1.problem.alphabet().len(), rr1.problem.alphabet().len()];
    assert!(naive_labels[2] > naive_labels[0], "{naive_labels:?}");

    // The family: R(Π) has exactly 8 labels at every valid parameter point.
    for a in 2..=4 {
        for x in 0..=a - 2 {
            let params = PiParams { delta: 4, a, x };
            let step = roundelim::r_step(&family::pi(&params).unwrap()).unwrap();
            assert_eq!(step.problem.alphabet().len(), 8);
        }
    }
}
