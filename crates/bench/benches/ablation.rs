//! Ablation: the engine's two exact accelerations
//! (DESIGN.md "relim-core key representations"):
//!
//! 1. the Galois fixed-point computation of the universal *edge* side vs.
//!    enumerating all `2^|Σ| × 2^|Σ|` pairs;
//! 2. the right-closedness (Observation 4) pruning of the universal *node*
//!    side vs. enumerating multisets over all non-empty label subsets.
//!
//! Both variants are exact (differentially tested in
//! `tests/engine_exhaustive.rs`); the ablation quantifies the speedup that
//! makes the Lemma 6/8 sweeps feasible.

use bench::{shared_engine, uncached_engine};
use criterion::{criterion_group, criterion_main, Criterion};
use lb_family::family::{self, PiParams};
use relim_core::roundelim::{r_step, r_step_edge_bruteforce, rbar_step_node_bruteforce};

fn print_tables() {
    println!("\n[Ablation] candidate-space sizes for the universal steps:");
    println!(
        "{:>4} {:>3} {:>3} {:>12} {:>14} {:>12} {:>14}",
        "D", "a", "x", "rc-sets", "all-subsets", "rc-pairs", "all-pairs"
    );
    let grid = vec![(4u32, 3u32, 0u32), (6, 4, 1), (8, 5, 2)];
    for row in shared_engine().map_owned(grid, |&(delta, a, x)| {
        let p = family::pi(&PiParams { delta, a, x }).expect("valid");
        let order = relim_core::diagram::StrengthOrder::of_constraint(p.edge(), p.alphabet().len());
        let rc = relim_core::rightclosed::right_closed_sets(&order).len();
        let all = (1usize << p.alphabet().len()) - 1;
        format!(
            "{:>4} {:>3} {:>3} {:>12} {:>14} {:>12} {:>14}",
            delta,
            a,
            x,
            rc,
            all,
            rc * rc,
            all * all
        )
    }) {
        println!("{row}");
    }
}

fn bench(c: &mut Criterion) {
    print_tables();
    let p = family::pi(&PiParams { delta: 4, a: 3, x: 0 }).expect("valid");

    c.bench_function("edge_side_galois", |b| b.iter(|| r_step(&p).expect("ok")));
    c.bench_function("edge_side_bruteforce", |b| {
        b.iter(|| r_step_edge_bruteforce(&p).expect("ok"))
    });

    // The node-side brute force enumerates multisets over *all* non-empty
    // label subsets — at Δ = 4 and 8 labels that is ~180M candidates
    // (minutes per iteration), so the head-to-head uses Δ = 3 where the
    // brute force is merely ~450× slower instead of unmeasurable.
    let p3 = family::pi(&PiParams { delta: 3, a: 2, x: 0 }).expect("valid");
    let r3 = r_step(&p3).expect("ok");
    let uncached = uncached_engine();
    c.bench_function("node_side_rightclosed", |b| {
        b.iter(|| uncached.rbar_step(&r3.problem).expect("ok"))
    });
    c.bench_function("node_side_bruteforce", |b| {
        b.iter(|| rbar_step_node_bruteforce(&r3.problem).expect("ok"))
    });

    // Right-closedness pruning at the paper's working size (Δ = 4), no
    // brute-force counterpart.
    let r4 = r_step(&p).expect("ok");
    c.bench_function("node_side_rightclosed_delta4", |b| {
        b.iter(|| uncached.rbar_step(&r4.problem).expect("ok"))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
