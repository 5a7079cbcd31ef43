//! Automatic lower- and upper-bound search: the engine rediscovers bounds
//! without any of the paper's hand-crafted machinery, and emits
//! machine-checkable certificates for everything it claims.
//!
//! ```text
//! cargo run --example autobounds
//! ```

use mis_domset_lb::family::family::{self, PiParams};
use mis_domset_lb::family::sequence;
use mis_domset_lb::relim::autolb::{self, AutoLbOptions, Triviality};
use mis_domset_lb::relim::autoub::{self, AutoUbOptions, UbKind};
use mis_domset_lb::relim::{zeroround, Problem};
use mis_domset_lb::Engine;

fn main() {
    // One session for the whole walkthrough: the searches below share its
    // worker pool and sub-multiset index cache.
    let engine = Engine::from_env();

    // ---------------------------------------------------------------
    // 1. Sinkless orientation: the search detects the fixed point and
    //    certifies an unbounded PN lower bound (⇒ Ω(log n) LOCAL).
    // ---------------------------------------------------------------
    let so = Problem::from_text("O I I", "[O I] I").expect("valid");
    let outcome = engine.auto_lower_bound(&so, &AutoLbOptions::default());
    println!("=== autolb: sinkless orientation (Δ = 3) ===");
    println!("stopped: {:?}", outcome.stopped);
    println!("unbounded fixed point: {}", outcome.unbounded());
    let replayed = autolb::verify_chain(&outcome, &engine).expect("certificate replays");
    println!("certificate replay: OK ({replayed} explicit rounds)\n");

    // ---------------------------------------------------------------
    // 2. MIS at Δ = 3: a fully automatic chain under a 6-label budget.
    //    Every step is R̄(R(·)) followed by label merges (each merge is a
    //    relaxation, so the chain stays a valid lower-bound sequence).
    // ---------------------------------------------------------------
    let mis = family::mis(3).expect("valid");
    let opts = AutoLbOptions { max_steps: 3, label_budget: 6, ..Default::default() };
    let outcome = engine.auto_lower_bound(&mis, &opts);
    println!("=== autolb: MIS (Δ = 3), budget 6 labels ===");
    for (i, step) in outcome.steps.iter().enumerate() {
        // Derived label names are sets-of-sets and get long; print counts
        // (the CLI's `relim autolb` prints them in full).
        println!(
            "step {}: |Σ| {} → {}   ({} merges)",
            i + 1,
            step.raw.alphabet().len(),
            step.problem.alphabet().len(),
            step.merges.len()
        );
    }
    println!("stopped: {:?}", outcome.stopped);
    println!(
        "certified: ≥ {} rounds, even given a Δ-edge coloring (criterion {:?})",
        outcome.certified_rounds, outcome.triviality
    );
    autolb::verify_chain(&outcome, &engine).expect("certificate replays");
    println!("certificate replay: OK\n");

    // ---------------------------------------------------------------
    // 3. The same engine applied to the paper's own family members:
    //    Lemma 12 promises non-triviality, and the search confirms it.
    // ---------------------------------------------------------------
    println!("=== autolb across Π_Δ(a,x) family members ===");
    for (delta, a, x) in [(3u32, 3u32, 0u32), (4, 4, 0), (4, 3, 1)] {
        let p = family::pi(&PiParams { delta, a, x }).expect("valid");
        let opts = AutoLbOptions { max_steps: 1, label_budget: 6, ..Default::default() };
        let o = engine.auto_lower_bound(&p, &opts);
        println!("Π_{delta}({a},{x}): certified ≥ {} rounds ({:?})", o.certified_rounds, o.stopped);
    }
    println!();

    // ---------------------------------------------------------------
    // 4. Compare with the paper's hand-crafted Lemma 13 chain at large Δ:
    //    the generic search cannot scale there — which is exactly why the
    //    paper's constant-label family matters.
    // ---------------------------------------------------------------
    println!("=== paper chain vs generic search ===");
    for delta in [64u32, 1024, 4096] {
        let chain = sequence::paper_chain(delta, 0);
        println!(
            "Δ = {delta}: paper chain length {} ⇒ PN lower bound ≥ {} rounds",
            chain.length(),
            chain.pn_round_lower_bound()
        );
    }
    println!();

    // ---------------------------------------------------------------
    // 5. Upper bounds. MIS on cycles (Δ = 2): 0 rounds given a proper
    //    2-coloring (map the two classes to MM / PO), a constant number of
    //    rounds given a 3-coloring — certified by replaying the chain.
    // ---------------------------------------------------------------
    let mis2 = family::mis(2).expect("valid");
    println!("=== autoub: MIS on cycles (Δ = 2) ===");
    println!(
        "0-round solvable given 2-coloring: {}",
        zeroround::coloring_witness(&mis2, 2).is_some()
    );
    println!(
        "0-round solvable given 3-coloring: {}",
        zeroround::coloring_witness(&mis2, 3).is_some()
    );
    let opts = AutoUbOptions { max_steps: 6, label_budget: 14, coloring: Some(3) };
    let outcome = engine.auto_upper_bound(&mis2, &opts);
    let bound = outcome.bound.clone().expect("bounded given a 3-coloring");
    let kind = match &bound.kind {
        UbKind::Pn => "bare PN".to_owned(),
        UbKind::EdgeColoring => "given a Δ-edge coloring".to_owned(),
        UbKind::VertexColoring { colors } => format!("given a proper {colors}-coloring"),
    };
    println!("upper bound: {} rounds ({kind})", bound.rounds);
    autoub::verify_ub(&outcome, &engine).expect("certificate replays");
    println!("certificate replay: OK\n");

    // ---------------------------------------------------------------
    // 6. A subtlety the engine surfaces: 0-round triviality can *appear*
    //    after a speedup step, because radius-0 views cannot see the edge
    //    orientation input while radius-1 views can (the very remark in
    //    the paper's Lemma 12 proof). This problem is 0-round unsolvable
    //    but 1-round solvable:
    // ---------------------------------------------------------------
    let p = Problem::from_text("A B\nA C\nB C\nC C", "A C\nB B").expect("valid");
    println!("=== triviality appearing at radius 1 ===");
    println!(
        "0-round: universal = {}, gadget = {}",
        zeroround::solvable_pn_universal(&p),
        zeroround::solvable_deterministically(&p)
    );
    let outcome = engine
        .auto_upper_bound(&p, &AutoUbOptions { max_steps: 2, label_budget: 16, coloring: None });
    println!(
        "autoub: {} rounds",
        outcome.bound.as_ref().map_or("none".to_owned(), |b| b.rounds.to_string())
    );
    autoub::verify_ub(&outcome, &engine).expect("certificate replays");

    // Lower/upper bounds certified by the same engine are consistent.
    let lb = engine.auto_lower_bound(
        &p,
        &AutoLbOptions { max_steps: 2, label_budget: 16, triviality: Triviality::Universal },
    );
    let ub = outcome.bound.expect("present").rounds;
    assert!(lb.certified_rounds <= ub, "lb {} vs ub {ub}", lb.certified_rounds);
    println!("lb {} ≤ ub {ub} ✓", lb.certified_rounds);
}
