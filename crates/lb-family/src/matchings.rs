//! Maximal matchings and b-matchings in the round elimination formalism.
//!
//! The paper's §1 frames its contribution against the matching line of
//! work: an MIS of the line graph is a maximal matching, b-matchings are
//! the line-graph relatives of bounded-degree dominating sets, and the
//! strongest known general-graph bounds (\[4, 15\] = Balliu et al.
//! FOCS'19, Brandt–Olivetti PODC'20) are proved exactly for these
//! problems via round elimination. This module provides the standard
//! encodings over `Σ = {M, P, O}`:
//!
//! * matched ports carry `M`; an edge is in the matching iff **both**
//!   sides say `M` (edge configuration `MM`);
//! * a *saturated* node (b matched ports) labels its other ports `O`;
//! * an *unsaturated* node labels its unmatched ports `P`, and the edge
//!   constraint forbids `PP` and `PM` — every unmatched edge of an
//!   unsaturated node must lead to a saturated neighbor (`OP`), which is
//!   exactly maximality.
//!
//! A worthwhile subtlety the engine confirms
//! (`relim_core::zeroround`): on Δ-regular trees these problems
//! are **0-round solvable given a Δ-edge coloring** (the color classes
//! are perfect matchings; take the first b of them), yet not trivially —
//! so the matching lower bounds of \[4, 15\] are statements about models
//! without such an input, unlike the paper's MIS bound which survives it.

use crate::convert;
use local_sim::checkers;
use local_sim::{Graph, PortLabeling};
use relim_core::error::{RelimError, Result};
use relim_core::{Alphabet, Config, Constraint, Label, Problem};

/// Label indices of the matching alphabet `{M, P, O}`.
fn m() -> Label {
    Label::new(0)
}
fn p() -> Label {
    Label::new(1)
}
fn o() -> Label {
    Label::new(2)
}

/// The maximal matching problem on Δ-regular trees:
/// `N = {M O^{Δ−1}, P^Δ}`, `E = {MM, OO, OP}`.
///
/// # Errors
///
/// Requires `Δ ≥ 2`.
///
/// # Example
///
/// ```
/// use lb_family::matchings;
/// use relim_core::zeroround;
///
/// let mm = matchings::maximal_matching_problem(3)?;
/// // Given a Δ-edge coloring the color-1 class is a perfect matching:
/// // 0 rounds. Without it, the problem is not trivial.
/// assert!(zeroround::solvable_deterministically(&mm));
/// assert!(!zeroround::solvable_pn_universal(&mm));
/// # Ok::<(), relim_core::RelimError>(())
/// ```
pub fn maximal_matching_problem(delta: u32) -> Result<Problem> {
    maximal_b_matching_problem(delta, 1)
}

/// The maximal b-matching problem on Δ-regular trees:
/// `N = {M^b O^{Δ−b}} ∪ {M^j P^{Δ−j} : 0 ≤ j < b}`, `E = {MM, OO, OP}`.
///
/// # Errors
///
/// Requires `1 ≤ b ≤ Δ` and `Δ ≥ 2`.
pub fn maximal_b_matching_problem(delta: u32, b: u32) -> Result<Problem> {
    if delta < 2 || b == 0 || b > delta {
        return Err(RelimError::InvalidParameter {
            message: format!("b-matching needs 2 <= Δ and 1 <= b <= Δ, got Δ={delta}, b={b}"),
        });
    }
    let alphabet = Alphabet::new(&["M", "P", "O"])?;
    let mut node = Vec::new();
    // Saturated: b matched ports, the rest released.
    node.push(config(&[(m(), b), (o(), delta - b)]));
    // Unsaturated with j < b matched ports: all other ports demand a
    // saturated neighbor.
    for j in 0..b {
        node.push(config(&[(m(), j), (p(), delta - j)]));
    }
    let edge = vec![config(&[(m(), 2)]), config(&[(o(), 2)]), config(&[(o(), 1), (p(), 1)])];
    Problem::new(alphabet, Constraint::from_configs(node)?, Constraint::from_configs(edge)?)
}

fn config(parts: &[(Label, u32)]) -> Config {
    let mut labels = Vec::new();
    for &(l, cnt) in parts {
        labels.extend(std::iter::repeat_n(l, cnt as usize));
    }
    Config::new(labels)
}

/// Converts a b-matching (per-edge flags) into a port labeling of the
/// encoding: matched ports `M`; other ports `O` at saturated nodes and
/// `P` at unsaturated ones.
///
/// # Errors
///
/// Rejects flag vectors of the wrong length or nodes with more than `b`
/// matched edges.
pub fn matching_to_labeling(graph: &Graph, in_matching: &[bool], b: usize) -> Result<PortLabeling> {
    if in_matching.len() != graph.m() {
        return Err(RelimError::InvalidParameter {
            message: format!("{} flags for {} edges", in_matching.len(), graph.m()),
        });
    }
    let mut labeling = PortLabeling::uniform(graph, o().raw());
    for v in 0..graph.n() {
        let matched = (0..graph.degree(v))
            .filter(|&port| in_matching[graph.port_target(v, port).edge])
            .count();
        if matched > b {
            return Err(RelimError::InvalidParameter {
                message: format!("node {v} has {matched} > b = {b} matched edges"),
            });
        }
        let saturated = matched == b;
        for port in 0..graph.degree(v) {
            let label = if in_matching[graph.port_target(v, port).edge] {
                m()
            } else if saturated {
                o()
            } else {
                p()
            };
            labeling.set(v, port, label.raw());
        }
    }
    Ok(labeling)
}

/// End-to-end check: validates `in_matching` as a maximal b-matching and
/// checks the induced labeling against the encoding (sub-multiset policy
/// at boundary nodes).
///
/// # Errors
///
/// Returns a description of the first failure.
pub fn check_b_matching_labeling(
    graph: &Graph,
    in_matching: &[bool],
    delta: u32,
    b: u32,
) -> Result<()> {
    checkers::check_maximal_b_matching(graph, in_matching, b as usize).map_err(|v| {
        RelimError::InvalidParameter { message: format!("not a maximal b-matching: {v:?}") }
    })?;
    let problem = maximal_b_matching_problem(delta, b)?;
    let labeling = matching_to_labeling(graph, in_matching, b as usize)?;
    convert::check_labeling(&problem, graph, &labeling, convert::BoundaryPolicy::SubMultiset)
        .map_err(|v| RelimError::InvalidParameter {
            message: format!("labeling violates the encoding: {v:?}"),
        })
}

/// Extracts a maximal matching of `graph` from an MIS of its line graph
/// — §1's "an MIS of the line graph of G is a maximal matching of G",
/// executable.
///
/// # Errors
///
/// Rejects `line_mis` vectors of the wrong length; the caller provides a
/// valid MIS of [`Graph::line_graph`].
pub fn matching_from_line_mis(graph: &Graph, line_mis: &[bool]) -> Result<Vec<bool>> {
    if line_mis.len() != graph.m() {
        return Err(RelimError::InvalidParameter {
            message: format!("{} MIS flags for {} edges", line_mis.len(), graph.m()),
        });
    }
    Ok(line_mis.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use local_sim::edge_coloring::tree_edge_coloring;
    use local_sim::{checkers, trees};
    use relim_core::{autolb, zeroround};

    #[test]
    fn problem_shapes() {
        let mm = maximal_matching_problem(4).unwrap();
        assert_eq!(mm.alphabet().len(), 3);
        assert_eq!(mm.node().len(), 2); // M O³ and P⁴
        assert_eq!(mm.edge().len(), 3);
        let b2 = maximal_b_matching_problem(4, 2).unwrap();
        assert_eq!(b2.node().len(), 3); // M²O², P⁴, M P³
        assert!(maximal_b_matching_problem(3, 0).is_err());
        assert!(maximal_b_matching_problem(3, 4).is_err());
        assert!(maximal_matching_problem(1).is_err());
    }

    #[test]
    fn b_equals_one_is_maximal_matching() {
        let a = maximal_matching_problem(5).unwrap();
        let b = maximal_b_matching_problem(5, 1).unwrap();
        assert!(a.semantically_equal(&b));
    }

    #[test]
    fn triviality_landscape() {
        // For b < Δ: gadget-trivial on regular trees (color classes are
        // perfect matchings) but not bare-trivial — see the module docs.
        for delta in [2u32, 3, 5] {
            for b in 1..delta.min(4) {
                let p = maximal_b_matching_problem(delta, b).unwrap();
                assert!(zeroround::solvable_deterministically(&p), "Δ={delta}, b={b}");
                assert!(!zeroround::solvable_pn_universal(&p), "Δ={delta}, b={b}");
            }
            // b = Δ is genuinely trivial: match every edge (M^Δ).
            let all = maximal_b_matching_problem(delta, delta).unwrap();
            assert!(zeroround::solvable_pn_universal(&all), "Δ={delta}");
        }
    }

    #[test]
    fn autolb_universal_chain_exists() {
        // Without the coloring input the problem is non-trivial; the
        // automatic search certifies at least one round and replays.
        let mm = maximal_matching_problem(3).unwrap();
        let opts = autolb::AutoLbOptions {
            max_steps: 2,
            label_budget: 6,
            triviality: autolb::Triviality::Universal,
        };
        let engine = relim_core::Engine::sequential();
        let outcome = engine.auto_lower_bound(&mm, &opts);
        assert!(outcome.certified_rounds >= 1);
        assert_eq!(autolb::verify_chain(&outcome, &engine).unwrap(), outcome.certified_rounds);
    }

    #[test]
    fn algorithm_output_satisfies_encoding() {
        for b in 1usize..=3 {
            let g = trees::complete_regular_tree(4, 3).unwrap();
            let coloring = tree_edge_coloring(&g).unwrap();
            let rep = local_algos::b_matching::maximal_b_matching(&g, &coloring, b, 7).unwrap();
            check_b_matching_labeling(&g, &rep.in_matching, 4, b as u32).unwrap();
        }
    }

    #[test]
    fn labeling_rejects_oversaturated_input() {
        let g = trees::star(3).unwrap();
        // All three edges "matched" at the center exceeds b = 2.
        let flags = vec![true; g.m()];
        assert!(matching_to_labeling(&g, &flags, 2).is_err());
        assert!(matching_to_labeling(&g, &flags[..1], 2).is_err());
    }

    #[test]
    fn line_graph_mis_is_maximal_matching() {
        // §1: an MIS of L(G) is a maximal matching of G.
        for seed in 0..4 {
            let g = trees::random_tree(60, 5, seed).unwrap();
            let lg = g.line_graph();
            assert_eq!(lg.n(), g.m());
            let rep = local_algos::luby::luby_mis(&lg, seed).unwrap();
            checkers::check_mis(&lg, &rep.in_set).unwrap();
            let matching = matching_from_line_mis(&g, &rep.in_set).unwrap();
            checkers::check_maximal_matching(&g, &matching).unwrap();
        }
    }

    #[test]
    fn line_graph_structure() {
        // Path: line graph is a shorter path. Star: line graph is a clique.
        let p = trees::path(5).unwrap();
        let lp = p.line_graph();
        assert_eq!(lp.n(), 4);
        assert_eq!(lp.m(), 3);
        assert!(lp.is_tree());
        let s = trees::star(4).unwrap();
        let ls = s.line_graph();
        assert_eq!(ls.n(), 4);
        assert_eq!(ls.m(), 6); // K₄
    }
}
