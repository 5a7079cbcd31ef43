//! Property-based tests (proptest) over random trees, parameters and
//! seeds: the paper's transforms and the engine's invariants must hold on
//! *every* generated instance.

use mis_domset_lb::algos;
use mis_domset_lb::family::family::{self, PiParams};
use mis_domset_lb::family::{convert, transforms};
use mis_domset_lb::relim::roundelim::{self, dominates};
use mis_domset_lb::relim::{parse, zeroround, Engine, Problem};
use mis_domset_lb::sim::lcl_solver::LeafPolicy;
use mis_domset_lb::sim::{checkers, edge_coloring, trees};
use proptest::prelude::*;

/// Valid (Δ, a, x) with Lemma 9's hypothesis 2x+1 ≤ a ≤ Δ.
fn lemma9_params() -> impl Strategy<Value = PiParams> {
    (3u32..=6).prop_flat_map(|delta| {
        (1u32..=delta).prop_flat_map(move |a| {
            let x_max = if a >= 1 { (a - 1) / 2 } else { 0 };
            (0..=x_max.min(delta - 1)).prop_map(move |x| PiParams { delta, a, x })
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Lemma 9's transform maps solver-produced Π⁺ solutions to valid
    /// solutions of the next family member, on random regular trees.
    #[test]
    fn lemma9_transform_always_valid(params in lemma9_params(), seed in 0u64..1000) {
        // pi_plus needs x+1 <= a.
        prop_assume!(params.a > params.x);
        let plus = family::pi_plus(&params).unwrap();
        let inst = convert::to_lcl(&plus, LeafPolicy::SubMultiset).unwrap();
        let tree = trees::complete_regular_tree(params.delta as usize, 2).unwrap();
        let coloring = edge_coloring::tree_edge_coloring(&tree).unwrap();
        if let Some(sol) = inst.solve(&tree, seed).unwrap() {
            let (out, next) = transforms::lemma9_transform(&params, &tree, &coloring, &sol).unwrap();
            let target = family::pi(&next).unwrap();
            let check = convert::check_labeling(&target, &tree, &out, convert::BoundaryPolicy::InteriorOnly);
            prop_assert!(check.is_ok(), "params {params:?}, seed {seed}: {check:?}");
        }
    }

    /// Lemma 11's relaxation preserves validity for every legal parameter
    /// pair.
    #[test]
    fn lemma11_always_valid(delta in 3u32..=5, a in 1u32..=5, x in 0u32..=2,
                            da in 0u32..=2, dx in 0u32..=2, seed in 0u64..500) {
        let a = a.min(delta);
        let x = x.min(delta);
        let from = PiParams { delta, a, x };
        let to = PiParams { delta, a: a.saturating_sub(da), x: (x + dx).min(delta) };
        let p_from = family::pi(&from).unwrap();
        let inst = convert::to_lcl(&p_from, LeafPolicy::SubMultiset).unwrap();
        let tree = trees::complete_regular_tree(delta as usize, 2).unwrap();
        if let Some(sol) = inst.solve(&tree, seed).unwrap() {
            let out = transforms::lemma11_relax(&from, &to, &tree, &sol).unwrap();
            let p_to = family::pi(&to).unwrap();
            let check = convert::check_labeling(&p_to, &tree, &out, convert::BoundaryPolicy::InteriorOnly);
            prop_assert!(check.is_ok(), "{from:?} -> {to:?}, seed {seed}: {check:?}");
        }
    }

    /// The k-ODS pipeline is valid on random trees for random (k, seed),
    /// and Lemma 5 accepts its output.
    #[test]
    fn kods_pipeline_valid(n in 10usize..80, max_deg in 3usize..6, k in 0usize..4, seed in 0u64..100) {
        let tree = trees::random_tree(n, max_deg, seed).unwrap();
        let rep = algos::k_outdegree_domset(&tree, k, seed).unwrap();
        prop_assert!(checkers::check_k_outdegree_domset(&tree, &rep.in_set, &rep.orientation, k).is_ok());
        let labeling = transforms::lemma5_transform(&tree, &rep.in_set, &rep.orientation, k as u32).unwrap();
        let delta = tree.max_degree() as u32;
        let pi = family::pi(&PiParams { delta, a: delta.min(k as u32 + 1), x: k as u32 }).unwrap();
        let check = convert::check_labeling(&pi, &tree, &labeling, convert::BoundaryPolicy::InteriorOnly);
        prop_assert!(check.is_ok(), "n={n}, k={k}, seed={seed}: {check:?}");
    }

    /// Engine invariant: the `R(·)` edge side consists of mutually
    /// non-dominating configurations whose choices all satisfy the old edge
    /// constraint — for *randomly generated* problems, not just the paper's.
    #[test]
    fn r_step_universal_and_maximal(num_labels in 2u8..5, delta in 2u32..4,
                                    node_mask in 1u64..1000, edge_mask in 1u64..1000) {
        if let Some(p) = random_problem(num_labels, delta, node_mask, edge_mask) {
            let Ok(step) = roundelim::r_step(&p) else { return Ok(()) };
            let compat = p.edge_compat();
            let pairs: Vec<_> = step.problem.edge().iter().map(|c| step.as_set_config(c)).collect();
            for sc in &pairs {
                let s = sc.as_slice();
                for a1 in s[0].iter() {
                    prop_assert!(s[1].is_subset_of(compat[a1.index()]));
                }
            }
            for x in &pairs {
                for y in &pairs {
                    prop_assert!(!dominates(x, y));
                }
            }
        }
    }

    /// Differential test: the accelerated edge-side computation agrees with
    /// brute force on random problems.
    #[test]
    fn r_step_matches_bruteforce(num_labels in 2u8..5, delta in 2u32..4,
                                 node_mask in 1u64..5000, edge_mask in 1u64..5000) {
        if let Some(p) = random_problem(num_labels, delta, node_mask, edge_mask) {
            let Ok(step) = roundelim::r_step(&p) else { return Ok(()) };
            let mut fast: Vec<_> = step.problem.edge().iter().map(|c| step.as_set_config(c)).collect();
            let mut brute = roundelim::r_step_edge_bruteforce(&p).unwrap();
            fast.sort();
            brute.sort();
            prop_assert_eq!(fast, brute);
        }
    }

    /// Differential test: the session's `R̄(·)` universal node side (over
    /// right-closed candidates only) agrees with brute force over every
    /// label set, on `R(Π)` of random problems with at most 8 labels.
    #[test]
    fn rbar_step_matches_bruteforce(num_labels in 2u8..5, delta in 2u32..4,
                                    node_mask in 1u64..5000, edge_mask in 1u64..5000) {
        if let Some(p) = random_problem(num_labels, delta, node_mask, edge_mask) {
            let Ok(r) = roundelim::r_step(&p) else { return Ok(()) };
            if r.problem.alphabet().len() > 8 {
                return Ok(());
            }
            let Ok(rr) = Engine::sequential().rbar_step(&r.problem) else { return Ok(()) };
            let mut fast: Vec<_> = rr.problem.node().iter().map(|c| rr.as_set_config(c)).collect();
            let mut brute = roundelim::rbar_step_node_bruteforce(&r.problem).unwrap();
            fast.sort();
            brute.sort();
            prop_assert_eq!(fast, brute);
        }
    }

    /// Zero-round analysis is stable under label renaming.
    #[test]
    fn zeroround_invariant_under_renaming(num_labels in 2u8..5, delta in 2u32..4,
                                          node_mask in 1u64..2000, edge_mask in 1u64..2000) {
        if let Some(p) = random_problem(num_labels, delta, node_mask, edge_mask) {
            let solvable = zeroround::solvable_deterministically(&p);
            // Reverse the label order.
            let n = p.alphabet().len();
            let mapping: Vec<_> = (0..n).rev().map(|i| mis_domset_lb::relim::Label::new(i as u8)).collect();
            let names: Vec<String> = (0..n).map(|i| format!("L{i}")).collect();
            let alpha = mis_domset_lb::relim::Alphabet::new(&names).unwrap();
            let q = p.rename(&mapping, alpha).unwrap();
            prop_assert_eq!(solvable, zeroround::solvable_deterministically(&q));
        }
    }

    /// Parser round-trip: rendering a problem and re-parsing it yields a
    /// semantically equal problem.
    #[test]
    fn parse_display_roundtrip(num_labels in 2u8..5, delta in 2u32..4,
                               node_mask in 1u64..2000, edge_mask in 1u64..2000) {
        if let Some(p) = random_problem(num_labels, delta, node_mask, edge_mask) {
            let node_text = p.node().display(p.alphabet());
            let edge_text = p.edge().display(p.alphabet());
            let node = parse::parse_constraint(&node_text, p.alphabet()).unwrap();
            let edge = parse::parse_constraint(&edge_text, p.alphabet()).unwrap();
            prop_assert_eq!(p.node(), &node);
            prop_assert_eq!(p.edge(), &edge);
        }
    }

    /// Universal (bare PN) 0-round solvability implies gadget
    /// (edge-coloring input) solvability on arbitrary problems.
    #[test]
    fn universal_implies_gadget(num_labels in 2u8..5, delta in 2u32..4,
                                node_mask in 1u64..3000, edge_mask in 1u64..3000) {
        if let Some(p) = random_problem(num_labels, delta, node_mask, edge_mask) {
            if zeroround::solvable_pn_universal(&p) {
                prop_assert!(zeroround::solvable_deterministically(&p));
            }
        }
    }

    /// 0-round solvability never *disappears* under `R̄(R(·))`: by the
    /// speedup theorem a 0-round-solvable problem derives a
    /// 0-round-solvable problem (`max(T−1, 0) = 0`), for both the bare and
    /// the edge-coloring-input criteria.
    ///
    /// The converse is FALSE: triviality can *appear*, because after one
    /// round nodes see the edge port numbers (the orientation) that are
    /// invisible at radius 0 — exactly the observation in the paper's
    /// Lemma 12 proof ("they do not even see the port numbering of the
    /// edges"). E.g. the 3-label Δ=2 problem with `N = {01, 02, 12, 22}`,
    /// `E = {02, 11}` is 0-round unsolvable yet its derivative is trivial.
    #[test]
    fn triviality_never_disappears_under_rr(num_labels in 2u8..4, delta in 2u32..4,
                                            node_mask in 1u64..2000, edge_mask in 1u64..2000) {
        if let Some(p) = random_problem(num_labels, delta, node_mask, edge_mask) {
            let Ok((_, rr)) = Engine::sequential().rr_step(&p) else { return Ok(()) };
            let (q, _) = rr.problem.drop_unused_labels();
            if zeroround::solvable_pn_universal(&p) {
                prop_assert!(zeroround::solvable_pn_universal(&q),
                    "universal triviality disappeared under rr");
            }
            if zeroround::solvable_deterministically(&p) {
                prop_assert!(zeroround::solvable_deterministically(&q),
                    "gadget triviality disappeared under rr");
            }
        }
    }

    /// Solvability given a proper c-coloring is monotone decreasing in c,
    /// and every returned witness is genuinely cross-compatible.
    #[test]
    fn coloring_witness_monotone_and_sound(num_labels in 2u8..5, delta in 2u32..4,
                                           node_mask in 1u64..3000, edge_mask in 1u64..3000) {
        if let Some(p) = random_problem(num_labels, delta, node_mask, edge_mask) {
            let mut prev = true;
            for c in 2usize..=5 {
                let w = zeroround::coloring_witness(&p, c);
                if w.is_some() {
                    prop_assert!(prev, "solvable at {c} colors but not at {}", c - 1);
                }
                prev = w.is_some();
                if let Some(ws) = w {
                    prop_assert_eq!(ws.len(), c);
                    let compat = p.edge_compat();
                    for (i, ci) in ws.iter().enumerate() {
                        prop_assert!(p.node().contains(ci));
                        for (j, cj) in ws.iter().enumerate() {
                            if i == j { continue; }
                            for x in ci.iter() {
                                for y in cj.iter() {
                                    prop_assert!(compat[x.index()].contains(y),
                                        "colors {i},{j}: {x:?} vs {y:?} not compatible");
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// Label merges are relaxations: the image of every configuration of
    /// the original problem under the merge map is allowed by the merged
    /// problem.
    #[test]
    fn merge_is_relaxation(num_labels in 2u8..5, delta in 2u32..4,
                           node_mask in 1u64..3000, edge_mask in 1u64..3000,
                           from in 0u8..5, to in 0u8..5) {
        use mis_domset_lb::relim::{simplify, Label};
        if let Some(p) = random_problem(num_labels, delta, node_mask, edge_mask) {
            // Unused alphabet labels would vanish after the merge's
            // drop-unused pass and break the name lookup below.
            let (p, _) = p.drop_unused_labels();
            prop_assume!(p.alphabet().len() >= 2);
            let n = p.alphabet().len() as u8;
            let (from, to) = (from % n, to % n);
            prop_assume!(from != to);
            let from_name = p.alphabet().name(Label::new(from)).to_owned();
            let to_name = p.alphabet().name(Label::new(to)).to_owned();
            let merged = simplify::merge_labels(&p, Label::new(from), Label::new(to)).unwrap();
            // Build the composite map old label -> merged label by name.
            let map: Vec<Label> = (0..n).map(|i| {
                let name = if i == from { &to_name } else { p.alphabet().name(Label::new(i)) };
                let _ = &from_name;
                merged.alphabet().label(name).unwrap()
            }).collect();
            for cfg in p.node().iter() {
                prop_assert!(merged.node().contains(&cfg.map_labels(&map)));
            }
            for cfg in p.edge().iter() {
                prop_assert!(merged.edge().contains(&cfg.map_labels(&map)));
            }
        }
    }

    /// Every automatic lower-bound outcome carries a replayable
    /// certificate, whatever the stopping reason.
    #[test]
    fn autolb_certificates_replay(num_labels in 2u8..4, delta in 2u32..4,
                                  node_mask in 1u64..2000, edge_mask in 1u64..2000) {
        use mis_domset_lb::relim::autolb;
        if let Some(p) = random_problem(num_labels, delta, node_mask, edge_mask) {
            let opts = autolb::AutoLbOptions { max_steps: 2, label_budget: 5, ..Default::default() };
            let engine = mis_domset_lb::Engine::sequential();
            let outcome = engine.auto_lower_bound(&p, &opts);
            let replay = autolb::verify_chain(&outcome, &engine);
            prop_assert!(replay.is_ok(), "{:?} -> {:?}", outcome.stopped, replay.err());
            prop_assert_eq!(replay.unwrap(), outcome.certified_rounds);
        }
    }

    /// The biregular operators agree with the specialized (Δ, 2) pipeline
    /// on arbitrary problems — the generic engine is a strict superset.
    #[test]
    fn biregular_full_step_matches_rr(num_labels in 2u8..4, delta in 2u32..4,
                                      node_mask in 1u64..2000, edge_mask in 1u64..2000) {
        use mis_domset_lb::relim::{biregular, iso};
        if let Some(p) = random_problem(num_labels, delta, node_mask, edge_mask) {
            let engine = Engine::sequential();
            let rr = engine.rr_step(&p);
            let bi = biregular::full_step(&biregular::BiregularProblem::from_problem(&p), &engine);
            match (rr, bi) {
                (Ok((_, rr)), Ok((_, bi))) => {
                    let q = bi.problem.to_problem().unwrap();
                    prop_assert!(iso::isomorphic(&q, &rr.problem));
                }
                (Err(_), Err(_)) => {}
                (a, b) => prop_assert!(false, "divergent outcomes: {:?} vs {:?}",
                                       a.map(|_| ()), b.map(|_| ())),
            }
        }
    }

    /// Every automatic upper-bound outcome carries a replayable
    /// certificate, and claimed bounds agree with the replay.
    #[test]
    fn autoub_certificates_replay(num_labels in 2u8..4, delta in 2u32..4,
                                  node_mask in 1u64..2000, edge_mask in 1u64..2000,
                                  colors in 2usize..4) {
        use mis_domset_lb::relim::autoub;
        if let Some(p) = random_problem(num_labels, delta, node_mask, edge_mask) {
            let opts = autoub::AutoUbOptions {
                max_steps: 2,
                label_budget: 8,
                coloring: Some(colors),
            };
            let engine = mis_domset_lb::Engine::sequential();
            let outcome = engine.auto_upper_bound(&p, &opts);
            let replay = autoub::verify_ub(&outcome, &engine);
            prop_assert!(replay.is_ok(), "{:?}", replay.err());
            prop_assert_eq!(replay.unwrap(), outcome.bound.map(|b| b.rounds));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Definition 7 and the `R̄` dominance order are one relation: `a`
    /// relaxes to `b` exactly when `a == b` or `b` dominates `a`. The two
    /// sides run on different matchers (capacities over `b`'s runs of
    /// equal sets against one slot per position of `b`), so each is the
    /// other's oracle. Sets range over three labels, the empty set
    /// included; half the cases grow `a` into `b`, so both answers occur.
    #[test]
    fn relaxation_is_dominance_or_equality(degree in 1u32..=6, seed in 0u64..u64::MAX,
                                           grow in 0u8..2) {
        use mis_domset_lb::relim::{relax, LabelSet, SetConfig};
        let mut state = seed;
        let mut next_set = || LabelSet::from_bits((splitmix(&mut state) % 8) as u32);
        let a: SetConfig = (0..degree).map(|_| next_set()).collect();
        let b: SetConfig = if grow == 1 {
            a.iter().map(|set| set.union(next_set())).collect()
        } else {
            (0..degree).map(|_| next_set()).collect()
        };
        prop_assert_eq!(relax::config_relaxes_to(&a, &b), a == b || dominates(&b, &a),
                        "{:?} -> {:?}", a, b);
        prop_assert_eq!(relax::config_relaxes_to(&b, &a), a == b || dominates(&a, &b),
                        "{:?} -> {:?}", b, a);
    }
}

/// Splitmix64 step: the vendored proptest shim has no collection
/// strategies, so variable-length inputs come from one seed.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Builds a small random problem by selecting node/edge configurations via
/// bitmasks over the full enumeration; `None` when a mask selects nothing.
fn random_problem(num_labels: u8, delta: u32, node_mask: u64, edge_mask: u64) -> Option<Problem> {
    use mis_domset_lb::relim::{Alphabet, Config, Constraint, Label, LabelSet};
    let names: Vec<String> = (0..num_labels).map(|i| format!("L{i}")).collect();
    let alphabet = Alphabet::new(&names).ok()?;
    let full = LabelSet::full(num_labels as usize);
    let all_node: Vec<Config> = multisets(full, delta);
    let all_edge: Vec<Config> = multisets(full, 2);
    let node: Vec<Config> = all_node
        .into_iter()
        .enumerate()
        .filter(|(i, _)| node_mask & (1 << (i % 63)) != 0)
        .map(|(_, c)| c)
        .collect();
    let edge: Vec<Config> = all_edge
        .into_iter()
        .enumerate()
        .filter(|(i, _)| edge_mask & (1 << (i % 63)) != 0)
        .map(|(_, c)| c)
        .collect();
    if node.is_empty() || edge.is_empty() {
        return None;
    }
    let node = Constraint::from_configs(node).ok()?;
    let edge = Constraint::from_configs(edge).ok()?;
    let _ = Label::new(0);
    Problem::new(alphabet, node, edge).ok()
}

fn multisets(set: mis_domset_lb::relim::LabelSet, k: u32) -> Vec<mis_domset_lb::relim::Config> {
    use mis_domset_lb::relim::{Config, Label};
    let labels: Vec<Label> = set.iter().collect();
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
