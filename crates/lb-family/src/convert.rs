//! Bridging [`relim_core::Problem`] to the simulator's LCL machinery.
//!
//! A [`Problem`] is an abstract constraint system; to *run* or *check* it on
//! concrete trees we convert it to a [`LclInstance`] (explicit
//! configurations + edge predicate) and check [`PortLabeling`]s against it.

use local_sim::lcl_solver::{LclInstance, LclViolation, LeafPolicy};
use local_sim::{Graph, PortLabeling};
use relim_core::error::{RelimError, Result};
use relim_core::{Config, Label, Problem};

/// Converts a problem into an explicit LCL instance for the tree solver.
///
/// # Errors
///
/// Fails if the alphabet exceeds 32 labels (solver bitmask width) — never
/// the case for the paper's ≤ 8-label problems.
///
/// # Example
///
/// ```
/// use lb_family::{convert, family::{self, PiParams}};
/// use local_sim::lcl_solver::LeafPolicy;
/// use local_sim::trees;
///
/// let p = family::pi(&PiParams { delta: 3, a: 2, x: 0 }).unwrap();
/// let inst = convert::to_lcl(&p, LeafPolicy::SubMultiset).unwrap();
/// let tree = trees::complete_regular_tree(3, 3).unwrap();
/// let sol = inst.solve(&tree, 11).unwrap();
/// assert!(sol.is_some());
/// ```
pub fn to_lcl(problem: &Problem, leaf_policy: LeafPolicy) -> Result<LclInstance> {
    let n = problem.alphabet().len();
    if n > 32 {
        return Err(RelimError::TooManyLabels { requested: n, limit: 32 });
    }
    let configs: Vec<Vec<u8>> =
        problem.node().iter().map(|c| c.iter().map(|l| l.raw()).collect()).collect();
    let edge = problem.edge().clone();
    LclInstance::new(
        n as u8,
        problem.delta() as usize,
        configs,
        move |a, b| edge.contains(&Config::new(vec![Label::new(a), Label::new(b)])),
        leaf_policy,
    )
    .map_err(|e| RelimError::InvalidParameter { message: e.to_string() })
}

/// How to treat nodes of degree `< Δ` when checking a labeling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundaryPolicy {
    /// Boundary nodes must carry a sub-multiset of a full configuration.
    SubMultiset,
    /// Boundary nodes are unconstrained (only edges are checked there) —
    /// this matches the paper's Δ-regular-tree setting, where our tree
    /// leaves stand in for the unbounded continuation of the tree.
    InteriorOnly,
}

/// Checks a labeling of `graph` against `problem`.
///
/// Node configurations are enforced at all nodes
/// ([`BoundaryPolicy::SubMultiset`]) or only at degree-Δ nodes
/// ([`BoundaryPolicy::InteriorOnly`]); the edge constraint is always
/// enforced on every edge.
///
/// # Errors
///
/// Returns the first violation found.
pub fn check_labeling(
    problem: &Problem,
    graph: &Graph,
    labeling: &PortLabeling,
    policy: BoundaryPolicy,
) -> std::result::Result<(), LclViolation> {
    let delta = problem.delta() as usize;
    let sub_index = problem.node().sub_multiset_index();
    for v in 0..graph.n() {
        let d = graph.degree(v);
        if d != delta && policy == BoundaryPolicy::InteriorOnly {
            continue;
        }
        let cfg = Config::new(labeling.node_config(v).iter().map(|&l| Label::new(l)).collect());
        let ok = if d == delta { problem.node().contains(&cfg) } else { sub_index.contains(&cfg) };
        if !ok {
            return Err(LclViolation::NodeConfig { node: v, config: labeling.node_config(v) });
        }
    }
    for e in 0..graph.m() {
        let (a, b) = labeling.edge_labels(graph, e);
        let cfg = Config::new(vec![Label::new(a), Label::new(b)]);
        if !problem.edge().contains(&cfg) {
            return Err(LclViolation::EdgePair { edge: e, a, b });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::{self, PiParams};
    use local_sim::trees;

    #[test]
    fn solve_and_check_pi() {
        let params = PiParams { delta: 3, a: 2, x: 0 };
        let p = family::pi(&params).unwrap();
        let inst = to_lcl(&p, LeafPolicy::SubMultiset).unwrap();
        let tree = trees::complete_regular_tree(3, 3).unwrap();
        let sol = inst.solve(&tree, 5).unwrap().expect("solvable");
        check_labeling(&p, &tree, &sol, BoundaryPolicy::SubMultiset).unwrap();
        check_labeling(&p, &tree, &sol, BoundaryPolicy::InteriorOnly).unwrap();
    }

    #[test]
    fn check_rejects_corruption() {
        let params = PiParams { delta: 3, a: 2, x: 0 };
        let p = family::pi(&params).unwrap();
        let inst = to_lcl(&p, LeafPolicy::SubMultiset).unwrap();
        let tree = trees::complete_regular_tree(3, 2).unwrap();
        let mut sol = inst.solve(&tree, 5).unwrap().expect("solvable");
        // Force an M-M edge: root port 0 and its counterpart both M.
        sol.set(0, 0, family::M);
        let t = tree.port_target(0, 0);
        sol.set(t.node, t.port, family::M);
        assert!(check_labeling(&p, &tree, &sol, BoundaryPolicy::InteriorOnly).is_err());
    }

    #[test]
    fn mis_labeling_corresponds_to_mis_set() {
        // Solve the MIS LCL, extract the set of M-nodes, and check it is a
        // valid MIS on the interior of the tree.
        let p = family::mis(3).unwrap();
        let inst = to_lcl(&p, LeafPolicy::SubMultiset).unwrap();
        let tree = trees::complete_regular_tree(3, 4).unwrap();
        let sol = inst.solve(&tree, 9).unwrap().expect("solvable");
        check_labeling(&p, &tree, &sol, BoundaryPolicy::SubMultiset).unwrap();
        let in_set: Vec<bool> =
            (0..tree.n()).map(|v| sol.node_labels(v).iter().all(|&l| l == 0)).collect();
        // Independence holds everywhere; domination holds at least at
        // interior nodes (leaves may be undominated boundary).
        local_sim::checkers::check_independent_set(&tree, &in_set).unwrap();
        for v in 0..tree.n() {
            if tree.degree(v) == 3 && !in_set[v] {
                assert!(tree.neighbors(v).any(|u| in_set[u]), "interior node {v} undominated");
            }
        }
    }
}
