//! Experiment E17 — the automatic bound search (autolb / autoub).
//!
//! Tables printed: certified automatic lower bounds per (problem, label
//! budget) with certificate replay status, and automatic upper bounds for
//! MIS on cycles under coloring promises. Criterion then times one
//! `auto_lower_bound` invocation (the cost of a budgeted search step,
//! dominated by `R̄(R(·))` plus candidate merges).

use criterion::{criterion_group, criterion_main, Criterion};
use lb_family::family::{self, PiParams};
use relim_core::autolb::{self, AutoLbOptions};
use relim_core::autoub::{self, AutoUbOptions};
use relim_core::{zeroround, Problem};

fn print_autolb_table() {
    println!("\n[E17a] automatic lower bounds (criterion: gadget / Δ-edge coloring):");
    println!(
        "{:<26} {:>7} {:>6} {:>10} {:>8}",
        "problem", "budget", "steps", "certified", "replay"
    );
    let cases: Vec<(String, Problem)> = vec![
        ("sinkless orientation Δ=3".into(), Problem::from_text("O I I", "[O I] I").unwrap()),
        ("MIS Δ=3".into(), family::mis(3).unwrap()),
        ("Π_3(3,0)".into(), family::pi(&PiParams { delta: 3, a: 3, x: 0 }).unwrap()),
        ("Π_4(4,0)".into(), family::pi(&PiParams { delta: 4, a: 4, x: 0 }).unwrap()),
    ];
    // (problem × budget) grid, submitted to the shared engine session's persistent
    // workers (the tasks own their problem clones).
    let grid: Vec<(String, Problem, usize)> = cases
        .iter()
        .flat_map(|(name, p)| [5usize, 6].map(|budget| (name.clone(), p.clone(), budget)))
        .collect();
    let engine = bench::shared_engine();
    let session = engine.clone();
    for row in engine.map_owned(grid, move |(name, p, budget)| {
        let opts = AutoLbOptions { max_steps: 3, label_budget: *budget, ..Default::default() };
        let outcome = session.auto_lower_bound(p, &opts);
        let replay = autolb::verify_chain(&outcome, &session).is_ok();
        format!(
            "{:<26} {:>7} {:>6} {:>10} {:>8}",
            name,
            budget,
            outcome.steps.len(),
            format!("{}{}", outcome.certified_rounds, if outcome.unbounded() { "+∞" } else { "" }),
            if replay { "ok" } else { "FAIL" }
        )
    }) {
        println!("{row}");
    }
}

fn print_autoub_table(engine: &bench::Engine) {
    println!("\n[E17b] automatic upper bounds for MIS on cycles (Δ = 2):");
    println!("{:<34} {:>10}", "promise", "rounds");
    let mis2 = family::mis(2).unwrap();
    println!(
        "{:<34} {:>10}",
        "0-round, given 2-coloring",
        if zeroround::coloring_witness(&mis2, 2).is_some() { "0" } else { "-" }
    );
    for colors in [3usize, 4] {
        let opts = AutoUbOptions { max_steps: 6, label_budget: 14, coloring: Some(colors) };
        let outcome = engine.auto_upper_bound(&mis2, &opts);
        let cell = outcome.bound.as_ref().map_or("not found".to_owned(), |b| b.rounds.to_string());
        assert!(autoub::verify_ub(&outcome, engine).is_ok());
        println!("{:<34} {:>10}", format!("given a proper {colors}-coloring"), cell);
    }
}

fn bench(c: &mut Criterion) {
    let engine = bench::shared_engine();
    print_autolb_table();
    print_autoub_table(&engine);

    let mis = family::mis(3).unwrap();
    let opts = AutoLbOptions { max_steps: 2, label_budget: 6, ..Default::default() };
    c.bench_function("autolb_mis3_two_steps", |b| b.iter(|| engine.auto_lower_bound(&mis, &opts)));

    let so = Problem::from_text("O I I", "[O I] I").unwrap();
    c.bench_function("autolb_sinkless_fixed_point", |b| {
        b.iter(|| engine.auto_lower_bound(&so, &AutoLbOptions::default()))
    });

    let mis2 = family::mis(2).unwrap();
    let ub_opts = AutoUbOptions { max_steps: 6, label_budget: 14, coloring: Some(3) };
    c.bench_function("autoub_mis2_coloring3", |b| {
        b.iter(|| engine.auto_upper_bound(&mis2, &ub_opts))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
