//! The engine at full (δ_B, δ_W)-biregular generality, and §1's matching
//! problems: hypergraph fixed points, dual views, the b-matching
//! triviality landscape, and the line-graph bridge.
//!
//! ```text
//! cargo run --release --example biregular_tour
//! ```

use mis_domset_lb::algos::luby;
use mis_domset_lb::family::matchings;
use mis_domset_lb::relim::autolb::{self, AutoLbOptions, Triviality};
use mis_domset_lb::relim::biregular::{self, BiregularProblem};
use mis_domset_lb::relim::zeroround;
use mis_domset_lb::sim::{checkers, trees};
use mis_domset_lb::Engine;

fn main() {
    // One session for the whole tour: half steps and the bound search
    // share its pool and sub-multiset index cache.
    let engine = Engine::from_env();

    // ---------------------------------------------------------------
    // 1. Hypergraph sinkless orientation: the STOC'16 fixed point,
    //    generalized to rank-r hyperedges. One full biregular step
    //    preserves the problem — the Ω(log log n)-randomized /
    //    Ω(log n)-deterministic signature the paper's §1.3 builds on.
    // ---------------------------------------------------------------
    println!("=== hypergraph sinkless orientation across ranks ===");
    for (db, dw) in [(3u32, 2u32), (3, 3), (4, 3), (3, 4)] {
        let black = format!("O{}", " I".repeat(db as usize - 1));
        let white = format!("[O I]{}", " I".repeat(dw as usize - 1));
        let hso = BiregularProblem::from_text(&black, &white).expect("valid");
        let (_, step) = biregular::full_step(&hso, &engine).expect("engine");
        let q = &step.problem;
        println!(
            "(δ_B, δ_W) = ({db},{dw}): |Σ| {} → {}, |B| {} → {}, |W| {} → {}, trivial: {}",
            hso.alphabet().len(),
            q.alphabet().len(),
            hso.black().len(),
            q.black().len(),
            hso.white().len(),
            q.white().len(),
            biregular::trivial_black(q).is_some(),
        );
    }
    println!();

    // ---------------------------------------------------------------
    // 2. Dual views: a (Δ, 2) problem studied from the edge side.
    // ---------------------------------------------------------------
    let mm = matchings::maximal_matching_problem(3).expect("valid");
    let bi = BiregularProblem::from_problem(&mm);
    let dual = bi.dual();
    println!("=== maximal matching (Δ = 3) and its dual view ===");
    println!("primal degrees {:?}, dual degrees {:?}", bi.degrees(), dual.degrees());
    let via_white = biregular::half_step(&bi, biregular::Side::White, &engine).expect("engine");
    let via_dual = biregular::half_step(&dual, biregular::Side::Black, &engine).expect("engine");
    println!(
        "half step from either view agrees: {}\n",
        via_white.problem.semantically_equal(&via_dual.problem.dual())
    );

    // ---------------------------------------------------------------
    // 3. The b-matching triviality landscape (§1's related problems):
    //    bare-trivial iff b = Δ; always 0-round given a Δ-edge coloring
    //    on regular trees (color classes are perfect matchings). This is
    //    the sharp statement of why the matching bounds of FOCS'19 /
    //    PODC'20 concern a different input regime than the paper's MIS
    //    bound, which survives the coloring.
    // ---------------------------------------------------------------
    println!("=== b-matching 0-round landscape (Δ = 4) ===");
    println!("{:>3} {:>9} {:>24}", "b", "bare PN", "given Δ-edge coloring");
    for b in 1..=4u32 {
        let p = matchings::maximal_b_matching_problem(4, b).expect("valid");
        println!(
            "{:>3} {:>9} {:>24}",
            b,
            if zeroround::solvable_pn_universal(&p) { "yes" } else { "no" },
            if zeroround::solvable_deterministically(&p) { "yes" } else { "no" }
        );
    }
    println!();

    // ---------------------------------------------------------------
    // 4. Without the coloring, the automatic search certifies a lower
    //    bound for maximal matching — with a replayable certificate.
    // ---------------------------------------------------------------
    let opts = AutoLbOptions { max_steps: 2, label_budget: 6, triviality: Triviality::Universal };
    let outcome = engine.auto_lower_bound(&mm, &opts);
    autolb::verify_chain(&outcome, &engine).expect("certificate replays");
    println!(
        "autolb (universal, budget 6): maximal matching at Δ = 3 needs ≥ {} rounds ({:?})\n",
        outcome.certified_rounds, outcome.stopped
    );

    // ---------------------------------------------------------------
    // 5. §1.1 executable: an MIS of the line graph is a maximal
    //    matching. Run Luby on L(G), pull the set back to edges, check.
    // ---------------------------------------------------------------
    let g = trees::random_tree(80, 5, 11).expect("tree");
    let lg = g.line_graph();
    let rep = luby::luby_mis(&lg, 11).expect("runs");
    checkers::check_mis(&lg, &rep.in_set).expect("valid MIS of L(G)");
    let matching = matchings::matching_from_line_mis(&g, &rep.in_set).expect("shape");
    checkers::check_maximal_matching(&g, &matching).expect("valid maximal matching");
    matchings::check_b_matching_labeling(&g, &matching, g.max_degree() as u32, 1)
        .expect("labeling satisfies the encoding");
    println!("=== line-graph bridge ===");
    println!("tree: n = {}, m = {}; L(G): n = {}, m = {}", g.n(), g.m(), lg.n(), lg.m());
    println!(
        "Luby MIS of L(G) → maximal matching of G: {} matched edges, all checks pass ✓",
        matching.iter().filter(|&&b| b).count()
    );
}
