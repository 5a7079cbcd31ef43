//! Mechanical verification of Lemma 8 (and Definition 7 in action).
//!
//! Lemma 8: if `Π_Δ(a,x)` has complexity `T`, then `Π⁺_Δ(a,x)` has
//! complexity `max{T−1, 0}` (for `x + 2 ≤ a ≤ Δ`). The proof shows that any
//! solution of `R̄(R(Π_Δ(a,x)))` can be converted *in zero rounds* into a
//! solution of the intermediate problem `Π_rel`, which is `Π⁺_Δ(a,x)` up to
//! renaming.
//!
//! This module makes every step executable:
//!
//! 1. compute `Π'' = R̄(R(Π_Δ(a,x)))` **in full** with the engine (the paper
//!    avoids this computation; we do it exactly, for concrete small Δ);
//! 2. check that **every** node configuration of `Π''` relaxes
//!    (Definition 7) into one of the four condensed configurations of
//!    `Π_rel`;
//! 3. check that `Π_rel`'s edge constraint is exactly the one obtained by
//!    the replacement method from `E_{R(Π)}`, and that `Π_rel = Π⁺_Δ(a,x)`
//!    under the paper's renaming;
//! 4. expose the 0-round conversion itself ([`Lemma8Machinery::transform`])
//!    so that solutions produced by the tree solver can be transformed and
//!    re-checked on actual trees.

use crate::convert::{self, BoundaryPolicy};
use crate::family::{self, PiParams};
use crate::lemma6::{self, rp_labels as rp};
use local_sim::lcl_solver::LclViolation;
use local_sim::{Graph, PortLabeling};
use relim_core::error::{RelimError, Result};
use relim_core::relax;
use relim_core::roundelim::Step;
use relim_core::{Config, Engine, Label, LabelSet, Line, Problem};

/// The six "super-labels" of `Π_rel`, as right-closed sets of `R(Π)` labels,
/// ordered to coincide with the `Π⁺` alphabet `[M, P, O, A, X, C]`.
pub fn super_labels() -> Vec<LabelSet> {
    let s = |ls: &[u8]| -> LabelSet { ls.iter().map(|&l| Label::new(l)).collect() };
    vec![
        s(&[rp::M, rp::U, rp::B, rp::Q]),                             // -> M
        s(&[rp::P, rp::Q]),                                           // -> P
        s(&[rp::O, rp::U, rp::A, rp::B, rp::P, rp::Q]),               // -> O
        s(&[rp::A, rp::B, rp::P, rp::Q]),                             // -> A
        s(&[rp::X, rp::M, rp::O, rp::U, rp::A, rp::B, rp::P, rp::Q]), // -> X
        s(&[rp::U, rp::B, rp::P, rp::Q]),                             // -> C
    ]
}

/// The four condensed node configurations of `Π_rel`, as [`Line`]s whose
/// groups are the super-label sets (over the 8 labels of `R(Π)`).
///
/// # Errors
///
/// Requires Lemma 6's hypothesis `x + 2 ≤ a ≤ Δ` (so all multiplicities are
/// non-negative).
pub fn pi_rel_node_lines(params: &PiParams) -> Result<Vec<Line>> {
    params.validate()?;
    if !params.lemma6_applicable() {
        return Err(RelimError::InvalidParameter {
            message: "pi_rel requires x+2 <= a <= delta".into(),
        });
    }
    let sup = super_labels();
    let (m, p, o, a, x, c) = (sup[0], sup[1], sup[2], sup[3], sup[4], sup[5]);
    let d = params.delta;
    let mk = |groups: Vec<(LabelSet, u32)>| -> Line {
        Line::new(groups.into_iter().filter(|&(_, mult)| mult > 0).collect()).expect("valid line")
    };
    Ok(vec![
        mk(vec![(m, d - params.x - 1), (x, params.x + 1)]),
        mk(vec![(p, 1), (o, d - 1)]),
        mk(vec![(a, params.a - params.x - 1), (x, d - params.a + params.x + 1)]),
        mk(vec![(c, d - params.x), (x, params.x)]),
    ])
}

/// `Π_rel` as a 6-label problem over the alphabet `[M, P, O, A, X, C]`:
/// node configurations as in [`pi_rel_node_lines`] (each super-label
/// becoming a single label) and edge constraint computed by the replacement
/// method from `E_{R(Π)} = {XQ, OB, AU, PM}`.
///
/// By Lemma 8 this problem *is* `Π⁺_Δ(a,x)`; [`Lemma8Report::pi_rel_equals_pi_plus`]
/// checks that exactly.
///
/// # Errors
///
/// Requires Lemma 6's hypothesis.
pub fn pi_rel_problem(params: &PiParams) -> Result<Problem> {
    let claimed_rp = lemma6::claimed_r_of_pi(params)?;
    let sup = super_labels();
    let d = params.delta;
    let mk_cfg = |counts: Vec<(u8, u32)>| -> Config {
        let mut labels = Vec::new();
        for (l, c) in counts {
            labels.extend(std::iter::repeat_n(Label::new(l), c as usize));
        }
        Config::new(labels)
    };
    use family::{A, C, M, O, P, X};
    let node = relim_core::Constraint::from_configs(vec![
        mk_cfg(vec![(M, d - params.x - 1), (X, params.x + 1)]),
        mk_cfg(vec![(P, 1), (O, d - 1)]),
        mk_cfg(vec![(A, params.a - params.x - 1), (X, d - params.a + params.x + 1)]),
        mk_cfg(vec![(C, d - params.x), (X, params.x)]),
    ])?;
    // Replacement-method edge constraint: (i, j) allowed iff some pair from
    // super_i × super_j lies in E_{R(Π)}.
    let mut edge_cfgs = Vec::new();
    for i in 0..6u8 {
        for j in i..6u8 {
            let ok = sup[i as usize].iter().any(|ai| {
                sup[j as usize]
                    .iter()
                    .any(|bj| claimed_rp.edge().contains(&Config::new(vec![ai, bj])))
            });
            if ok {
                edge_cfgs.push(Config::new(vec![Label::new(i), Label::new(j)]));
            }
        }
    }
    let edge = relim_core::Constraint::from_configs(edge_cfgs)?;
    Problem::new(relim_core::Alphabet::new(&["M", "P", "O", "A", "X", "C"])?, node, edge)
}

/// Everything needed to state, verify and *run* Lemma 8 at one parameter
/// point: the engine's `R(Π)` and `R̄(R(Π))`, and `Π_rel`.
#[derive(Debug, Clone)]
pub struct Lemma8Machinery {
    /// Parameters of the underlying `Π_Δ(a,x)`.
    pub params: PiParams,
    /// The engine's `R(Π)` step.
    pub r: Step,
    /// The engine's `R̄(R(Π))` step (provenance over `R(Π)` labels).
    pub rr: Step,
    /// The `Π_rel` node lines over `R(Π)` labels.
    pub rel_lines: Vec<Line>,
}

/// The outcome of verifying Lemma 8 at one parameter point.
#[derive(Debug, Clone)]
pub struct Lemma8Report {
    /// Parameters checked.
    pub params: PiParams,
    /// Lemma 6 holds (prerequisite for identifying `R(Π)` labels).
    pub lemma6_ok: bool,
    /// Every node configuration of `R̄(R(Π))` relaxes into a `Π_rel` line.
    pub all_node_configs_relax: bool,
    /// `Π_rel` (as 6-label problem) equals `Π⁺_Δ(a,x)` exactly.
    pub pi_rel_equals_pi_plus: bool,
    /// Number of labels of `R̄(R(Π))`.
    pub rr_label_count: usize,
    /// Number of node configurations of `R̄(R(Π))`.
    pub rr_node_config_count: usize,
    /// The first non-relaxing configuration, if any (diagnostics).
    pub counterexample: Option<String>,
}

impl Lemma8Report {
    /// Whether every check passed.
    pub fn matches_paper(&self) -> bool {
        self.lemma6_ok && self.all_node_configs_relax && self.pi_rel_equals_pi_plus
    }
}

impl Lemma8Machinery {
    /// Computes `R(Π)`, `R̄(R(Π))` and the `Π_rel` lines through `engine`
    /// (the exponential `R̄` enumeration shards over the session's
    /// workers; byte-identical at any thread count).
    ///
    /// The `R̄` step is exponential in general; keep `Δ ≤ 6` (the default
    /// tests use 3–5).
    ///
    /// # Errors
    ///
    /// Requires Lemma 6's hypothesis; propagates engine errors.
    pub fn compute(params: &PiParams, engine: &Engine) -> Result<Self> {
        let p = family::pi(params)?;
        let rel_lines = pi_rel_node_lines(params)?;
        let (r, rr) = engine.rr_step(&p)?;
        Ok(Lemma8Machinery { params: *params, r, rr, rel_lines })
    }

    /// Runs the full verification. Lemma 6 is checked on the machinery's
    /// own `R(Π)`, so the point computes `R` once.
    pub fn verify(&self) -> Lemma8Report {
        let lemma6_ok =
            lemma6::check(&self.params, &self.r).map(|r| r.matches_paper()).unwrap_or(false);

        let node_configs = self.rr.problem.node().iter().map(|cfg| self.rr.as_set_config(cfg));
        let counterexample = relax::all_relax_to_lines(node_configs, &self.rel_lines)
            .err()
            .map(|sc| format!("{sc:?}"));

        let pi_rel_equals_pi_plus =
            match (pi_rel_problem(&self.params), family::pi_plus(&self.params)) {
                (Ok(rel), Ok(plus)) => rel.semantically_equal(&plus),
                _ => false,
            };

        Lemma8Report {
            params: self.params,
            lemma6_ok,
            all_node_configs_relax: counterexample.is_none(),
            pi_rel_equals_pi_plus,
            rr_label_count: self.rr.problem.alphabet().len(),
            rr_node_config_count: self.rr.problem.node().len(),
            counterexample,
        }
    }

    /// The paper's 0-round conversion: relabels a solution of `R̄(R(Π))` on
    /// `graph` into a solution of `Π⁺_Δ(a,x)` by replacing every node's
    /// configuration with a relaxation drawn from `Π_rel`'s configurations
    /// (per-port, via a matching) and renaming super-labels to `Π⁺` labels.
    ///
    /// # Errors
    ///
    /// Fails if some node's configuration does not relax — which Lemma 8
    /// (verified by [`Lemma8Machinery::verify`]) rules out for degree-Δ
    /// nodes; boundary nodes relax into partial lines.
    pub fn transform(&self, graph: &Graph, labeling: &PortLabeling) -> Result<PortLabeling> {
        let sup = super_labels();
        let mut out: Vec<Vec<u8>> = Vec::with_capacity(graph.n());
        for v in 0..graph.n() {
            // Per-port provenance sets (over R(Π) labels).
            let port_sets: Vec<LabelSet> = (0..graph.degree(v))
                .map(|p| self.rr.provenance[labeling.get(v, p) as usize])
                .collect();
            let relaxed = self
                .rel_lines
                .iter()
                .find_map(|line| relax::relax_into_line(&port_sets, line))
                .ok_or_else(|| RelimError::InvalidParameter {
                    message: format!("node {v} configuration does not relax into any Π_rel line"),
                })?;
            out.push(
                relaxed
                    .into_iter()
                    .map(|target| {
                        sup.iter().position(|&s| s == target).expect("groups are super-labels")
                            as u8
                    })
                    .collect(),
            );
        }
        PortLabeling::from_vecs(graph, out)
            .map_err(|e| RelimError::InvalidParameter { message: e.to_string() })
    }

    /// End-to-end check on a tree: solve `R̄(R(Π))` with the LCL solver,
    /// transform, and validate against `Π⁺_Δ(a,x)` (interior nodes).
    ///
    /// Returns `Ok(None)` when the solver finds `R̄(R(Π))` infeasible on
    /// this tree (does not happen on the trees used in tests).
    ///
    /// # Errors
    ///
    /// Propagates transform errors and checker violations.
    pub fn end_to_end(
        &self,
        graph: &Graph,
        seed: u64,
    ) -> Result<Option<std::result::Result<(), LclViolation>>> {
        let inst =
            convert::to_lcl(&self.rr.problem, local_sim::lcl_solver::LeafPolicy::SubMultiset)?;
        let sol = inst
            .solve(graph, seed)
            .map_err(|e| RelimError::InvalidParameter { message: e.to_string() })?;
        let Some(sol) = sol else { return Ok(None) };
        let transformed = self.transform(graph, &sol)?;
        let plus = family::pi_plus(&self.params)?;
        Ok(Some(convert::check_labeling(&plus, graph, &transformed, BoundaryPolicy::InteriorOnly)))
    }
}

/// Sweeps Lemma 8 verification over all valid `(a, x)` for one `Δ`,
/// sharded over the session's workers: the `(a, x)` parameter points are
/// handed out one at a time in sweep order (so uneven point costs
/// balance), each point's `R̄` step runs inline on the participant that
/// took the point (the sweep already holds the pool), and every point's
/// engine calls share the session's sub-multiset index cache. Reports
/// come back in sweep order — byte-identical at any thread count.
/// Exponential in Δ — keep `Δ ≤ 5`.
///
/// # Errors
///
/// Propagates engine errors (from the earliest failing point).
pub fn verify_sweep(delta: u32, engine: &Engine) -> Result<Vec<Lemma8Report>> {
    let session = engine.clone();
    engine.try_map_owned(family::sweep_points(delta), move |params| {
        Lemma8Machinery::compute(params, &session).map(|mach| mach.verify())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use local_sim::trees;

    #[test]
    fn lemma8_delta3() {
        let params = PiParams { delta: 3, a: 2, x: 0 };
        let mach = Lemma8Machinery::compute(&params, &Engine::sequential()).unwrap();
        let report = mach.verify();
        assert!(report.matches_paper(), "{report:?}");
        assert!(report.rr_node_config_count > 0);
    }

    #[test]
    fn lemma8_delta4_sweep() {
        let reports = verify_sweep(4, &Engine::sequential()).unwrap();
        assert_eq!(reports.len(), 6);
        for report in reports {
            assert!(report.matches_paper(), "failed: {report:?}");
        }
    }

    #[test]
    #[cfg_attr(
        not(feature = "exhaustive"),
        ignore = "exponential: run with --ignored in release mode, or --features exhaustive"
    )]
    fn lemma8_delta5_sweep_full() {
        let reports = verify_sweep(5, &Engine::sequential()).unwrap();
        assert_eq!(reports.len(), 10);
        for report in reports {
            assert!(report.matches_paper(), "failed: {report:?}");
        }
    }

    #[test]
    fn sweep_parallel_matches_sequential() {
        let seq = verify_sweep(4, &Engine::sequential()).unwrap();
        for threads in [2, 8] {
            let par = verify_sweep(4, &Engine::builder().threads(threads).build()).unwrap();
            let render = |rs: &[Lemma8Report]| format!("{rs:?}");
            assert_eq!(render(&par), render(&seq), "threads = {threads}");
        }
    }

    #[test]
    fn pi_rel_edge_constraint_matches_paper_text() {
        // The paper lists Π_rel's edge constraint explicitly; spot-check the
        // characteristic entries: P is compatible with M and X only; C with
        // M, A, O, X (through the renaming).
        let params = PiParams { delta: 4, a: 3, x: 0 };
        let rel = pi_rel_problem(&params).unwrap();
        use family::{A, C, M, O, P, X};
        let pair = |a: u8, b: u8| Config::new(vec![Label::new(a), Label::new(b)]);
        assert!(rel.edge().contains(&pair(P, M)));
        assert!(rel.edge().contains(&pair(P, X)));
        assert!(!rel.edge().contains(&pair(P, P)));
        assert!(!rel.edge().contains(&pair(P, O)));
        assert!(!rel.edge().contains(&pair(P, A)));
        assert!(!rel.edge().contains(&pair(P, C)));
        assert!(rel.edge().contains(&pair(C, M)));
        assert!(rel.edge().contains(&pair(C, A)));
        assert!(rel.edge().contains(&pair(C, O)));
        assert!(rel.edge().contains(&pair(C, X)));
        assert!(!rel.edge().contains(&pair(C, C)));
        assert!(!rel.edge().contains(&pair(C, P)));
        assert!(!rel.edge().contains(&pair(M, M)));
        assert!(!rel.edge().contains(&pair(A, A)));
    }

    #[test]
    fn end_to_end_transform_on_tree() {
        let params = PiParams { delta: 3, a: 2, x: 0 };
        let mach = Lemma8Machinery::compute(&params, &Engine::sequential()).unwrap();
        let tree = trees::complete_regular_tree(3, 3).unwrap();
        for seed in 0..3 {
            let outcome = mach.end_to_end(&tree, seed).unwrap();
            let check = outcome.expect("R̄(R(Π)) solvable on the tree");
            assert!(check.is_ok(), "transformed labeling invalid: {check:?}");
        }
    }
}
