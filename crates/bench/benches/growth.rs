//! E13: the label-growth phenomenon (§1.2) — naive iterated `R̄(R(·))` on
//! MIS grows the alphabet, while the paper's family holds at 8 labels.

use criterion::{criterion_group, criterion_main, Criterion};
use lb_family::family::{self, PiParams};
use relim_core::roundelim::r_step;

fn print_tables() {
    println!("\n[E13] alphabet growth under naive round elimination (MIS, D=3):");
    let mis = family::mis(3).expect("valid");
    let mut current = mis.clone();
    println!("{:>6} {:>8} {:>10} {:>10}", "step", "labels", "|N|", "|E|");
    println!(
        "{:>6} {:>8} {:>10} {:>10}",
        0,
        current.alphabet().len(),
        current.node().len(),
        current.edge().len()
    );
    // The growth chain is inherently sequential; each step still shards
    // its universal sides over the shared engine session.
    let engine = bench::shared_engine();
    for step_idx in 1..=2 {
        match engine.rr_step(&current) {
            Ok((_, rr)) => {
                let (reduced, _) = rr.problem.drop_unused_labels();
                println!(
                    "{:>6} {:>8} {:>10} {:>10}",
                    step_idx,
                    reduced.alphabet().len(),
                    reduced.node().len(),
                    reduced.edge().len()
                );
                if reduced.alphabet().len() > 20 {
                    println!("  (stopping: next step exceeds the enumeration limit)");
                    break;
                }
                current = reduced;
            }
            Err(e) => {
                println!("  step {step_idx}: {e}");
                break;
            }
        }
    }

    println!("\n[E13b] the family's alphabet stays constant under R(.):");
    println!("{:>4} {:>3} {:>3} {:>14}", "D", "a", "x", "labels of R(Pi)");
    let grid = vec![(4u32, 3u32, 0u32), (6, 4, 1), (8, 6, 2), (10, 8, 3)];
    for row in bench::shared_engine().map_owned(grid, |&(delta, a, x)| {
        let pi = family::pi(&PiParams { delta, a, x }).expect("valid");
        let step = r_step(&pi).expect("non-degenerate");
        assert_eq!(step.problem.alphabet().len(), 8);
        format!("{:>4} {:>3} {:>3} {:>14}", delta, a, x, step.problem.alphabet().len())
    }) {
        println!("{row}");
    }
}

fn bench(c: &mut Criterion) {
    print_tables();
    let mis = family::mis(3).expect("valid");
    let uncached = bench::uncached_engine();
    c.bench_function("rr_step_mis_d3", |b| {
        b.iter(|| uncached.rr_step(&mis).expect("non-degenerate"))
    });
    let pi = family::pi(&PiParams { delta: 8, a: 6, x: 2 }).expect("valid");
    c.bench_function("r_step_family_d8", |b| b.iter(|| r_step(&pi).expect("non-degenerate")));
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
