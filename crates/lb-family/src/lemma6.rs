//! Mechanical verification of Lemma 6 and Figure 5.
//!
//! Lemma 6 states that (after renaming) `R(Π_Δ(a,x))` for `x + 2 ≤ a ≤ Δ`
//! is the 8-label problem with node constraint
//!
//! ```text
//! [MUBQ]^(Δ−x) [XMOUABPQ]^x
//! [PQ] [OUABPQ]^(Δ−1)
//! [ABPQ]^a [XMOUABPQ]^(Δ−a)
//! ```
//!
//! and edge constraint `{XQ, OB, AU, PM}`, where the renaming identifies
//! each new label with a right-closed set of old labels:
//!
//! ```text
//! X ↦ {X}        M ↦ {M,X}      O ↦ {O,X}      U ↦ {M,O,X}
//! A ↦ {A,O,X}    B ↦ {M,A,O,X}  P ↦ {P,A,O,X}  Q ↦ {M,P,A,O,X}
//! ```
//!
//! [`verify`] recomputes `R(Π_Δ(a,x))` with the engine and compares both
//! constraints **exactly** against the claim, then checks that the node
//! diagram equals Figure 5 (which coincides with set inclusion on the
//! provenance sets).

use crate::family::{self, PiParams};
use relim_core::diagram::StrengthOrder;
use relim_core::error::{RelimError, Result};
use relim_core::roundelim::{r_step, Step};
use relim_core::{Alphabet, Constraint, Label, LabelSet, Line, Problem};

/// Indices of the 8 labels of the claimed `R(Π)` in canonical order
/// (sorted by provenance-set cardinality, then bitmask) — this matches the
/// deterministic ordering produced by the engine.
pub mod rp_labels {
    /// `{X}`
    pub const X: u8 = 0;
    /// `{M,X}`
    pub const M: u8 = 1;
    /// `{O,X}`
    pub const O: u8 = 2;
    /// `{M,O,X}`
    pub const U: u8 = 3;
    /// `{A,O,X}`
    pub const A: u8 = 4;
    /// `{M,A,O,X}`
    pub const B: u8 = 5;
    /// `{P,A,O,X}`
    pub const P: u8 = 6;
    /// `{M,P,A,O,X}`
    pub const Q: u8 = 7;
}

/// The 8 provenance sets of Lemma 6's renaming, in canonical order
/// (as sets over the 5 labels of `Π_Δ(a,x)`).
pub fn claimed_provenance() -> Vec<LabelSet> {
    use family::{A, M, O, P, X};
    let s = |ls: &[u8]| -> LabelSet { ls.iter().map(|&l| Label::new(l)).collect() };
    vec![
        s(&[X]),
        s(&[M, X]),
        s(&[O, X]),
        s(&[M, O, X]),
        s(&[A, O, X]),
        s(&[M, A, O, X]),
        s(&[P, A, O, X]),
        s(&[M, P, A, O, X]),
    ]
}

/// The claimed problem `R(Π_Δ(a,x))` of Lemma 6, built verbatim from the
/// paper's statement over the canonical 8-label alphabet.
///
/// # Errors
///
/// Requires `x + 2 ≤ a ≤ Δ` (Lemma 6's hypothesis).
pub fn claimed_r_of_pi(params: &PiParams) -> Result<Problem> {
    params.validate()?;
    if !params.lemma6_applicable() {
        return Err(RelimError::InvalidParameter {
            message: format!(
                "Lemma 6 requires x+2 <= a <= delta; got a={}, x={}, delta={}",
                params.a, params.x, params.delta
            ),
        });
    }
    use rp_labels::{A, B, M, O, P, Q, U, X};
    let alphabet = Alphabet::new(&["X", "MX", "OX", "MOX", "AOX", "MAOX", "PAOX", "MPAOX"])?;
    let s = |ls: &[u8]| -> LabelSet { ls.iter().map(|&l| Label::new(l)).collect() };
    let all = s(&[X, M, O, U, A, B, P, Q]);
    let mubq = s(&[M, U, B, Q]);
    let pq = s(&[P, Q]);
    let ouabpq = s(&[O, U, A, B, P, Q]);
    let abpq = s(&[A, B, P, Q]);
    let d = params.delta;

    let mut node_lines = vec![Line::new(vec![(pq, 1), (ouabpq, d - 1)]).expect("valid")];
    // Guard zero multiplicities for the boundary parameter values.
    let push = |lines: &mut Vec<Line>, groups: Vec<(LabelSet, u32)>| {
        let groups: Vec<_> = groups.into_iter().filter(|&(_, m)| m > 0).collect();
        lines.push(Line::new(groups).expect("valid"));
    };
    push(&mut node_lines, vec![(mubq, d - params.x), (all, params.x)]);
    push(&mut node_lines, vec![(abpq, params.a), (all, d - params.a)]);
    let node = Constraint::from_lines(&node_lines)?;

    let pair = |a: u8, b: u8| -> Line {
        Line::new(vec![
            (LabelSet::singleton(Label::new(a)), 1),
            (LabelSet::singleton(Label::new(b)), 1),
        ])
        .expect("valid")
    };
    let edge = Constraint::from_lines(&[pair(X, Q), pair(O, B), pair(A, U), pair(P, M)])?;
    Problem::new(alphabet, node, edge)
}

/// The expected Hasse edges of Figure 5 (the node diagram of `R(Π)`),
/// which equal the covering relations of set inclusion on the provenance
/// sets: `X→M, X→O, M→U, O→U, O→A, U→B, A→B, A→P, B→Q, P→Q`.
pub fn figure5_expected_hasse() -> Vec<(u8, u8)> {
    use rp_labels::{A, B, M, O, P, Q, U, X};
    vec![(X, M), (X, O), (M, U), (O, U), (O, A), (U, B), (A, B), (A, P), (B, Q), (P, Q)]
}

/// The outcome of verifying Lemma 6 at one parameter point.
#[derive(Debug, Clone)]
pub struct Lemma6Report {
    /// Parameters checked.
    pub params: PiParams,
    /// Engine provenance sets equal the paper's 8 sets, in order.
    pub provenance_matches: bool,
    /// Node constraints agree exactly (after the canonical renaming).
    pub node_matches: bool,
    /// Edge constraints agree exactly.
    pub edge_matches: bool,
    /// The node diagram's Hasse edges equal Figure 5.
    pub figure5_matches: bool,
    /// Number of explicit node configurations in `R(Π)`.
    pub node_config_count: usize,
}

impl Lemma6Report {
    /// Whether every check passed.
    pub fn matches_paper(&self) -> bool {
        self.provenance_matches && self.node_matches && self.edge_matches && self.figure5_matches
    }
}

/// Runs `R(·)` on `Π_Δ(a,x)` and verifies Lemma 6 + Figure 5 exactly.
///
/// # Errors
///
/// Propagates parameter validation (`x + 2 ≤ a ≤ Δ` required).
pub fn verify(params: &PiParams) -> Result<Lemma6Report> {
    check(params, &r_step(&family::pi(params)?)?)
}

/// Verifies Lemma 6 + Figure 5 against `step`, an already computed
/// `R(Π_Δ(a,x))`.
///
/// # Errors
///
/// Propagates parameter validation (`x + 2 ≤ a ≤ Δ` required).
pub fn check(params: &PiParams, step: &Step) -> Result<Lemma6Report> {
    let claimed = claimed_r_of_pi(params)?;
    let provenance_matches = step.provenance == claimed_provenance();

    // With matching provenance the label indices coincide, so constraints
    // compare directly.
    let node_matches = provenance_matches && step.problem.node() == claimed.node();
    let edge_matches = provenance_matches && step.problem.edge() == claimed.edge();

    let order = StrengthOrder::of_constraint(claimed.node(), claimed.alphabet().len());
    let mut hasse: Vec<(u8, u8)> =
        order.hasse_edges().into_iter().map(|(a, b)| (a.raw(), b.raw())).collect();
    hasse.sort_unstable();
    let mut expected = figure5_expected_hasse();
    expected.sort_unstable();
    let figure5_matches = hasse == expected;

    Ok(Lemma6Report {
        params: *params,
        provenance_matches,
        node_matches,
        edge_matches,
        figure5_matches,
        node_config_count: step.problem.node().len(),
    })
}

/// Sweeps Lemma 6 verification over all valid `(a, x)` for one `Δ`, with
/// the parameter points sharded over the session's workers. Reports come
/// back in sweep order — byte-identical at any thread count.
///
/// # Errors
///
/// Propagates engine errors (from the earliest failing point).
pub fn verify_sweep(delta: u32, engine: &relim_core::Engine) -> Result<Vec<Lemma6Report>> {
    engine.try_map_owned(family::sweep_points(delta), verify)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lemma6_holds_at_small_params() {
        for (delta, a, x) in [(3, 2, 0), (4, 3, 0), (4, 3, 1), (5, 4, 2), (6, 4, 1), (6, 6, 0)] {
            let report = verify(&PiParams { delta, a, x }).unwrap();
            assert!(
                report.matches_paper(),
                "Lemma 6 failed at delta={delta}, a={a}, x={x}: {report:?}"
            );
        }
    }

    #[test]
    fn lemma6_sweep_delta5() {
        let reports = verify_sweep(5, &relim_core::Engine::sequential()).unwrap();
        assert!(!reports.is_empty());
        for r in reports {
            assert!(r.matches_paper(), "failed at {:?}", r.params);
        }
    }

    #[test]
    fn requires_hypothesis() {
        // a < x + 2 violates Lemma 6's hypothesis.
        assert!(verify(&PiParams { delta: 4, a: 2, x: 1 }).is_err());
    }

    #[test]
    fn figure5_is_inclusion_order() {
        // Independent characterization: the Hasse edges of Figure 5 must be
        // exactly the covering pairs of strict set inclusion on provenance.
        let prov = claimed_provenance();
        let mut expected = Vec::new();
        for (i, &si) in prov.iter().enumerate() {
            for (j, &sj) in prov.iter().enumerate() {
                if si.is_strict_subset_of(sj) {
                    let covered = prov
                        .iter()
                        .any(|&z| si.is_strict_subset_of(z) && z.is_strict_subset_of(sj));
                    if !covered {
                        expected.push((i as u8, j as u8));
                    }
                }
            }
        }
        expected.sort_unstable();
        let mut fig5 = figure5_expected_hasse();
        fig5.sort_unstable();
        assert_eq!(expected, fig5);
    }
}
