//! Experiment E19 — §1's matching problems in the formalism, and the
//! biregular engine at full generality.
//!
//! Tables printed: the 0-round triviality landscape of maximal
//! b-matchings (gadget-trivial for b < Δ on regular trees — the color
//! classes are perfect matchings — but never bare-trivial), automatic
//! chains for maximal matching without the coloring input, and the
//! hypergraph sinkless orientation fixed point at several ranks.
//! Criterion then times the generic biregular full step against the
//! specialized (Δ, 2) `rr_step` — the cost of generality (the generic
//! node-and-edge enumeration vs the degree-2 Galois shortcut).

use criterion::{criterion_group, criterion_main, Criterion};
use lb_family::matchings;
use relim_core::autolb::{self, AutoLbOptions, Triviality};
use relim_core::biregular::{self, BiregularProblem};
use relim_core::zeroround;

fn print_matching_landscape() {
    println!("\n[E19a] b-matching triviality landscape (0-round solvability):");
    println!("{:>4} {:>3} {:>10} {:>22}", "Δ", "b", "bare PN", "given Δ-edge coloring");
    let grid: Vec<(u32, u32)> =
        [3u32, 4, 5].into_iter().flat_map(|delta| (1..=delta).map(move |b| (delta, b))).collect();
    for row in bench::shared_engine().map_owned(grid, |&(delta, b)| {
        let p = matchings::maximal_b_matching_problem(delta, b).expect("valid");
        format!(
            "{:>4} {:>3} {:>10} {:>22}",
            delta,
            b,
            if zeroround::solvable_pn_universal(&p) { "yes" } else { "no" },
            if zeroround::solvable_deterministically(&p) { "yes" } else { "no" }
        )
    }) {
        println!("{row}");
    }
}

fn print_matching_chains() {
    println!("\n[E19b] automatic chains for maximal matching (universal criterion):");
    println!("{:>4} {:>7} {:>10} {:>8}", "Δ", "budget", "certified", "replay");
    let deltas = vec![3u32, 4];
    let engine = bench::shared_engine();
    let session = engine.clone();
    for row in engine.map_owned(deltas, move |&delta| {
        let mm = matchings::maximal_matching_problem(delta).expect("valid");
        let opts =
            AutoLbOptions { max_steps: 2, label_budget: 6, triviality: Triviality::Universal };
        let outcome = session.auto_lower_bound(&mm, &opts);
        let replay = autolb::verify_chain(&outcome, &session).is_ok();
        format!(
            "{:>4} {:>7} {:>10} {:>8}",
            delta,
            opts.label_budget,
            outcome.certified_rounds,
            if replay { "ok" } else { "FAIL" }
        )
    }) {
        println!("{row}");
    }
}

fn print_hso_fixed_points() {
    println!("\n[E19c] hypergraph sinkless orientation under one full biregular step:");
    println!("{:>10} {:>8} {:>8} {:>8} {:>8}", "(δ_B,δ_W)", "|Σ|→", "|B|→", "|W|→", "trivial");
    let grid = vec![(3u32, 2u32), (3, 3), (4, 3), (3, 4)];
    let engine = bench::shared_engine();
    let session = engine.clone();
    for row in engine.map_owned(grid, move |&(db, dw)| {
        let black = format!("O{}", " I".repeat(db as usize - 1));
        let white = format!("[O I]{}", " I".repeat(dw as usize - 1));
        let hso = BiregularProblem::from_text(&black, &white).expect("valid");
        let (_, step) = biregular::full_step(&hso, &session).expect("steps");
        let q = &step.problem;
        format!(
            "{:>10} {:>8} {:>8} {:>8} {:>8}",
            format!("({db},{dw})"),
            format!("{}→{}", hso.alphabet().len(), q.alphabet().len()),
            format!("{}→{}", hso.black().len(), q.black().len()),
            format!("{}→{}", hso.white().len(), q.white().len()),
            if biregular::trivial_black(q).is_some() { "yes" } else { "no" }
        )
    }) {
        println!("{row}");
    }
}

fn bench(c: &mut Criterion) {
    print_matching_landscape();
    print_matching_chains();
    print_hso_fixed_points();

    // The cost of generality: specialized rr_step vs biregular full_step
    // on the same (Δ, 2) input.
    let mm = matchings::maximal_matching_problem(3).expect("valid");
    let uncached = bench::uncached_engine();
    c.bench_function("rr_step_specialized_mm3", |b| b.iter(|| uncached.rr_step(&mm).expect("ok")));
    let bi = BiregularProblem::from_problem(&mm);
    c.bench_function("biregular_full_step_mm3", |b| {
        b.iter(|| biregular::full_step(&bi, &uncached).expect("ok"))
    });

    let hso = BiregularProblem::from_text("O I I", "[O I] I I").expect("valid");
    c.bench_function("biregular_full_step_hso33", |b| {
        b.iter(|| biregular::full_step(&hso, &uncached).expect("ok"))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
