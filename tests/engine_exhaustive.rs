//! Exhaustive differential validation of the round elimination engine on
//! the space of ALL small problems.
//!
//! For 2 labels and Δ = 2 or 3 the space of problems is small enough to
//! enumerate completely: every non-empty set of node configurations × every
//! non-empty set of edge configurations. On each problem, the accelerated
//! engine (Galois fixed points + right-closedness pruning) must agree with
//! brute force, and structural invariants must hold.

use mis_domset_lb::relim::roundelim::{
    self, dominates, r_step_edge_bruteforce, rbar_step_node_bruteforce,
};
use mis_domset_lb::relim::{Alphabet, Config, Constraint, Engine, Label, LabelSet, Problem};

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

/// Enumerates every problem with `num_labels` labels and degree `delta`
/// (all non-empty subsets of node and edge configuration spaces).
fn all_problems(num_labels: u8, delta: u32) -> Vec<Problem> {
    let names: Vec<String> = (0..num_labels).map(|i| format!("L{i}")).collect();
    let node_space = multisets(num_labels, delta);
    let edge_space = multisets(num_labels, 2);
    let mut out = Vec::new();
    for node_mask in 1u32..(1 << node_space.len()) {
        let node: Vec<Config> = node_space
            .iter()
            .enumerate()
            .filter(|(i, _)| node_mask & (1 << i) != 0)
            .map(|(_, c)| c.clone())
            .collect();
        for edge_mask in 1u32..(1 << edge_space.len()) {
            let edge: Vec<Config> = edge_space
                .iter()
                .enumerate()
                .filter(|(i, _)| edge_mask & (1 << i) != 0)
                .map(|(_, c)| c.clone())
                .collect();
            let alphabet = Alphabet::new(&names).expect("valid");
            let node = Constraint::from_configs(node.clone()).expect("non-empty");
            let edge = Constraint::from_configs(edge).expect("non-empty");
            out.push(Problem::new(alphabet, node, edge).expect("valid"));
        }
    }
    out
}

#[test]
fn exhaustive_two_labels_delta2() {
    let problems = all_problems(2, 2);
    // 2-label Δ=2: 3 node multisets, 3 edge multisets -> 7 × 7 = 49 problems.
    assert_eq!(problems.len(), 49);
    run_differential(&problems);
}

#[test]
fn exhaustive_two_labels_delta3() {
    let problems = all_problems(2, 3);
    // 4 node multisets, 3 edge multisets -> 15 × 7 = 105 problems.
    assert_eq!(problems.len(), 105);
    run_differential(&problems);
}

#[test]
fn exhaustive_three_labels_delta2_sample() {
    // 3 labels, Δ=2: 6 node multisets, 6 edge multisets -> 63 × 63 = 3969.
    let problems = all_problems(3, 2);
    assert_eq!(problems.len(), 3969);
    // Full differential on every 7th problem (567 problems) keeps tier-1
    // fast while covering the space systematically; the full sweep is the
    // `#[ignore]`d tier-2 test below.
    let sample: Vec<_> = problems.into_iter().step_by(7).collect();
    run_differential(&sample);
}

#[test]
#[cfg_attr(
    not(feature = "exhaustive"),
    ignore = "tier-2 full sweep (~7x the sampled test); run with --ignored or --features exhaustive"
)]
fn exhaustive_three_labels_delta2_full() {
    let problems = all_problems(3, 2);
    assert_eq!(problems.len(), 3969);
    run_differential(&problems);
}

#[test]
#[cfg_attr(
    not(feature = "exhaustive"),
    ignore = "tier-2 full sweep of the 3-label Δ=3 space; run with --ignored in release mode, \
              or --features exhaustive"
)]
fn exhaustive_three_labels_delta3_sampled_wide() {
    // 3 labels, Δ=3: 10 node multisets, 6 edge multisets -> 1023 × 63.
    // Even sampled this is tier-2 territory; every 97th problem gives a
    // systematic ~660-problem slice of a space the tier-1 suite never
    // touches at all.
    let problems = all_problems(3, 3);
    assert_eq!(problems.len(), 1023 * 63);
    let sample: Vec<_> = problems.into_iter().step_by(97).collect();
    run_differential(&sample);
}

fn run_differential(problems: &[Problem]) {
    let engine = Engine::builder().threads(1).memoize(false).build();
    let mut degenerate = 0usize;
    for p in problems {
        // --- R step: fast vs brute force on the universal edge side. ---
        match roundelim::r_step(p) {
            Ok(step) => {
                let mut fast: Vec<_> =
                    step.problem.edge().iter().map(|c| step.as_set_config(c)).collect();
                let mut brute = r_step_edge_bruteforce(p).expect("small alphabet");
                fast.sort();
                brute.sort();
                assert_eq!(fast, brute, "R-step mismatch on {p}");

                // Mutual non-dominance.
                for x in &fast {
                    for y in &fast {
                        assert!(!dominates(x, y), "dominated pair in R({p})");
                    }
                }

                // --- R̄ step on the derived problem, fast vs brute. ---
                if step.problem.alphabet().len() <= 8 {
                    match engine.rbar_step(&step.problem) {
                        Ok(rr) => {
                            let mut fast_n: Vec<_> =
                                rr.problem.node().iter().map(|c| rr.as_set_config(c)).collect();
                            let mut brute_n =
                                rbar_step_node_bruteforce(&step.problem).expect("small alphabet");
                            fast_n.sort();
                            brute_n.sort();
                            assert_eq!(fast_n, brute_n, "R̄-step mismatch after {p}");
                        }
                        Err(_) => degenerate += 1,
                    }
                }
            }
            Err(_) => degenerate += 1,
        }
    }
    // Degenerate problems exist but must be a minority of the space.
    assert!(degenerate * 2 < problems.len(), "{degenerate} of {} degenerate", problems.len());
}

/// On every small problem, 0-round solvability must agree between the
/// direct analysis and explicit enumeration of all deterministic 0-round
/// algorithms on the gadget (functions ports → labels with configuration
/// in N, same label seen on both sides of each edge).
#[test]
fn zeroround_exhaustive_cross_check() {
    use mis_domset_lb::relim::zeroround;
    for p in all_problems(2, 3) {
        let fast = zeroround::solvable_deterministically(&p);
        // Brute force: some node configuration all of whose labels are
        // self-compatible, i.e. assignment f with multiset(f) ∈ N and
        // (f(i), f(i)) ∈ E for all ports i.
        let brute = p
            .node()
            .iter()
            .any(|cfg| cfg.iter().all(|l| p.edge().contains(&Config::new(vec![l, l]))));
        assert_eq!(fast, brute, "0-round mismatch on {p}");
        let _ = LabelSet::EMPTY;
    }
}
