//! Round elimination on (δ_B, δ_W)-biregular trees — the general form.
//!
//! Brandt's automatic speedup theorem \[PODC'19\] is stated for problems
//! on two-colored biregular trees: **black** nodes of degree δ_B carry
//! one constraint, **white** nodes of degree δ_W the other, and every
//! edge joins a black and a white node. The crate's [`Problem`] is the
//! (Δ, 2) special case used throughout the paper — white nodes of degree
//! 2 are the *edges* of a Δ-regular tree. This module implements the
//! operators at full generality:
//!
//! * rank-r hypergraphs (white degree r): hypergraph sinkless
//!   orientation, the Lovász-local-lemma-flavored fixed points of
//!   Brandt et al. \[STOC'16\] that the paper's §1.3 history builds on;
//! * the "dual view" of a problem (study the white side as the active
//!   one), which the round-eliminator tool exposes as a matter of course.
//!
//! [`half_step`] performs one *half* speedup: the chosen side's
//! constraint is replaced by the maximal universal configurations over
//! right-closed label sets (Observation 4 applies verbatim — it is a
//! property of one constraint), and the other side by the existential
//! replacement. Two half steps (white, then black) are one full
//! `R̄(R(·))` and lower the complexity by exactly one round on
//! high-girth biregular trees; on (Δ, 2) instances [`full_step`] agrees
//! with [`crate::engine::Engine::rr_step`] — differentially tested.

use crate::config::{Config, SetConfig};
use crate::constraint::Constraint;
use crate::engine::Engine;
use crate::error::{RelimError, Result};
use crate::label::Alphabet;
use crate::labelset::LabelSet;
use crate::parse;
use crate::problem::Problem;
use crate::roundelim::derive_sides;

/// A locally checkable problem on (δ_B, δ_W)-biregular trees.
///
/// Both constraints live over one alphabet; `black` configurations have
/// length δ_B, `white` configurations length δ_W.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BiregularProblem {
    alphabet: Alphabet,
    black: Constraint,
    white: Constraint,
}

impl BiregularProblem {
    /// Builds a validated biregular problem.
    ///
    /// # Errors
    ///
    /// Rejects constraints using labels outside the alphabet.
    pub fn new(alphabet: Alphabet, black: Constraint, white: Constraint) -> Result<Self> {
        let n = alphabet.len();
        for c in black.iter().chain(white.iter()) {
            if let Some(l) = c.iter().find(|l| l.index() >= n) {
                return Err(RelimError::LabelOutOfRange { index: l.raw(), alphabet_len: n });
            }
        }
        Ok(BiregularProblem { alphabet, black, white })
    }

    /// Parses a biregular problem from the engine's text format.
    ///
    /// # Errors
    ///
    /// Propagates parse errors.
    ///
    /// # Example
    ///
    /// ```
    /// use relim_core::biregular::BiregularProblem;
    ///
    /// // Hypergraph sinkless orientation on rank-3 hyperedges over a
    /// // 3-regular hypergraph: every (black) vertex has an outgoing
    /// // hyperedge; every (white) hyperedge is outgoing for ≤ 1 vertex.
    /// let hso = BiregularProblem::from_text("O I I", "[O I] I I").unwrap();
    /// assert_eq!(hso.degrees(), (3, 3));
    /// ```
    pub fn from_text(black_text: &str, white_text: &str) -> Result<Self> {
        let names = parse::collect_names(&[black_text, white_text])?;
        let alphabet = Alphabet::new(&names)?;
        let black = parse::parse_constraint(black_text, &alphabet)?;
        let white = parse::parse_constraint(white_text, &alphabet)?;
        BiregularProblem::new(alphabet, black, white)
    }

    /// Views a (Δ, 2) [`Problem`] as a biregular problem (black = node
    /// constraint, white = edge constraint).
    pub fn from_problem(p: &Problem) -> Self {
        BiregularProblem {
            alphabet: p.alphabet().clone(),
            black: p.node().clone(),
            white: p.edge().clone(),
        }
    }

    /// Converts back to a [`Problem`] when the white degree is 2.
    ///
    /// # Errors
    ///
    /// Returns [`RelimError::WrongDegree`] otherwise.
    pub fn to_problem(&self) -> Result<Problem> {
        if self.white.degree() != 2 {
            return Err(RelimError::WrongDegree { expected: 2, found: self.white.degree() });
        }
        Problem::new(self.alphabet.clone(), self.black.clone(), self.white.clone())
    }

    /// The problem with the two sides swapped — the dual view.
    pub fn dual(&self) -> Self {
        BiregularProblem {
            alphabet: self.alphabet.clone(),
            black: self.white.clone(),
            white: self.black.clone(),
        }
    }

    /// The alphabet.
    pub fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    /// The black (degree δ_B) constraint.
    pub fn black(&self) -> &Constraint {
        &self.black
    }

    /// The white (degree δ_W) constraint.
    pub fn white(&self) -> &Constraint {
        &self.white
    }

    /// `(δ_B, δ_W)`.
    pub fn degrees(&self) -> (u32, u32) {
        (self.black.degree(), self.white.degree())
    }

    /// Renders both constraints in the text format.
    pub fn render(&self) -> String {
        format!(
            "black (degree {}):\n{}\n\nwhite (degree {}):\n{}",
            self.black.degree(),
            self.black.display(&self.alphabet),
            self.white.degree(),
            self.white.display(&self.alphabet),
        )
    }

    /// Structural equality up to configuration order.
    pub fn semantically_equal(&self, other: &BiregularProblem) -> bool {
        self.alphabet.len() == other.alphabet.len()
            && self.black == other.black
            && self.white == other.white
    }
}

/// Which side's constraint the universal step rewrites.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// Universal step on the black constraint (the `R̄(·)` direction of
    /// the (Δ, 2) case).
    Black,
    /// Universal step on the white constraint (the `R(·)` direction of
    /// the (Δ, 2) case).
    White,
}

/// The result of a half step: the derived problem plus the provenance of
/// each new label (the set of old labels it stands for).
#[derive(Debug, Clone)]
pub struct BiStep {
    /// The derived problem.
    pub problem: BiregularProblem,
    /// `provenance[i]` is the old-label set behind new label `i`.
    pub provenance: Vec<LabelSet>,
}

/// One half speedup step: maximal universal configurations (over
/// right-closed sets, Observation 4) on `side`, existential replacement
/// on the other side. The universal enumeration runs on `engine`'s pool,
/// with the sub-multiset index from its cache, and keeps the maximal
/// configurations by covers, as
/// [`Engine::rbar_step`] does; the result is byte-identical at any width.
///
/// # Errors
///
/// Returns [`RelimError::DegenerateProblem`] when a derived constraint
/// would be empty, [`RelimError::TooManyLabels`] past
/// [`crate::roundelim::MAX_LABELS`] labels and
/// [`RelimError::DegreeTooLarge`] when the universal side's degree
/// exceeds [`crate::roundelim::MAX_DEGREE`].
pub fn half_step(p: &BiregularProblem, side: Side, engine: &Engine) -> Result<BiStep> {
    let (uni_src, exist_src) = match side {
        Side::Black => (&p.black, &p.white),
        Side::White => (&p.white, &p.black),
    };
    let maximal = engine.universal_side(uni_src, p.alphabet.len())?;
    let derived = derive_sides(&p.alphabet, maximal, exist_src)?;
    let (black, white) = match side {
        Side::Black => (derived.universal, derived.existential),
        Side::White => (derived.existential, derived.universal),
    };
    let problem = BiregularProblem::new(derived.alphabet, black, white)?;
    Ok(BiStep { problem, provenance: derived.provenance })
}

/// One full speedup step (white half, then black half): exactly one round
/// cheaper on high-girth biregular trees. Matches
/// [`crate::engine::Engine::rr_step`] on (Δ, 2) problems.
///
/// # Errors
///
/// Same as [`half_step`].
pub fn full_step(p: &BiregularProblem, engine: &Engine) -> Result<(BiStep, BiStep)> {
    let w = half_step(p, Side::White, engine)?;
    let b = half_step(&w.problem, Side::Black, engine)?;
    Ok((w, b))
}

/// A witness that the problem is 0-round solvable by the black nodes in
/// the bare port-numbering model on biregular trees.
///
/// Every black node outputs the same configuration `C ∈ B`; a white node
/// of degree δ_W then sees an adversarial multiset of δ_W labels drawn
/// from the support of `C`, so solvability requires **every** such
/// multiset to be in `W`. For δ_W = 2 this is exactly
/// [`crate::zeroround::universal_witness`].
pub fn trivial_black(p: &BiregularProblem) -> Option<Config> {
    let w_deg = p.white.degree();
    p.black
        .iter()
        .find(|cfg| {
            let support: Vec<_> = {
                let mut s: Vec<_> = cfg.iter().collect();
                s.sort_unstable();
                s.dedup();
                s
            };
            all_multisets_in(&support, w_deg, &p.white)
        })
        .cloned()
}

/// Whether every size-`k` multiset over `support` is a configuration of
/// `constraint`.
fn all_multisets_in(support: &[crate::label::Label], k: u32, constraint: &Constraint) -> bool {
    fn rec(
        support: &[crate::label::Label],
        start: usize,
        k: u32,
        cur: &mut Vec<crate::label::Label>,
        constraint: &Constraint,
    ) -> bool {
        if k == 0 {
            return constraint.contains(&Config::new(cur.clone()));
        }
        for (i, &l) in support.iter().enumerate().skip(start) {
            cur.push(l);
            let ok = rec(support, i, k - 1, cur, constraint);
            cur.pop();
            if !ok {
                return false;
            }
        }
        true
    }
    let mut cur = Vec::with_capacity(k as usize);
    rec(support, 0, k, &mut cur, constraint)
}

/// Converts a universal-side configuration of a [`BiStep`] back to old
/// label sets (mirror of [`crate::roundelim::Step::as_set_config`]).
pub fn as_set_config(step: &BiStep, config: &Config) -> SetConfig {
    config.iter().map(|l| step.provenance[l.index()]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::iso;

    fn mis3() -> Problem {
        Problem::from_text("M M M\nP O O", "M [P O]\nO O").unwrap()
    }

    #[test]
    fn full_step_matches_rr_on_delta2_problems() {
        // The biregular operators must agree with the specialized (Δ, 2)
        // pipeline on its home turf.
        for (node, edge) in [
            ("M M M\nP O O", "M [P O]\nO O"),
            ("O I I", "[O I] I"),
            ("A A\nB B", "A B"),
            ("M O", "M M\nO O"),
        ] {
            let p = Problem::from_text(node, edge).unwrap();
            let (_, rr) = Engine::sequential().rr_step(&p).unwrap();
            let bi = BiregularProblem::from_problem(&p);
            let (_, bb) = full_step(&bi, &Engine::sequential()).unwrap();
            let q = bb.problem.to_problem().unwrap();
            assert!(
                iso::isomorphic(&q, &rr.problem),
                "{node} / {edge}: biregular full step diverged from rr_step"
            );
        }
    }

    #[test]
    fn hypergraph_sinkless_orientation_is_fixed_point() {
        // Rank-3 hypergraph sinkless orientation on 3-regular hypergraphs:
        // the generalization of the STOC'16 fixed point. One full step
        // must reproduce the problem up to isomorphism.
        let hso = BiregularProblem::from_text("O I I", "[O I] I I").unwrap();
        let (_, step) = full_step(&hso, &Engine::sequential()).unwrap();
        let q = step.problem.clone();
        // Compare by rendering through Problem-style isomorphism: same
        // degrees, same alphabet size, and a label bijection matching
        // both constraints. Reuse iso by mapping through two (Δ, 2)
        // problems is impossible (white degree 3), so check structurally.
        assert_eq!(q.degrees(), hso.degrees());
        assert_eq!(q.alphabet().len(), hso.alphabet().len());
        assert_eq!(q.black().len(), hso.black().len());
        assert_eq!(q.white().len(), hso.white().len());
        // The two labels play the same roles: identify them by their
        // multiplicity pattern in the black constraint.
        let find_roles = |p: &BiregularProblem| -> (usize, usize) {
            // (configs containing the rare label once, total configs)
            let c = p.black().iter().next().unwrap().clone();
            (c.counts().len(), p.black().len())
        };
        assert_eq!(find_roles(&hso), find_roles(&q));
    }

    #[test]
    fn full_steps_share_the_session() {
        // The second step of the same problem reuses both half steps'
        // sub-multiset indices, and wider sessions give the same problem.
        let hso = BiregularProblem::from_text("O I I", "[O I] I I").unwrap();
        let engine = Engine::sequential();
        let (_, first) = full_step(&hso, &engine).unwrap();
        assert_eq!(engine.report().cache_hits, 0);
        let (_, second) = full_step(&hso, &engine).unwrap();
        assert_eq!(engine.report().cache_hits, 2);
        assert_eq!(first.problem, second.problem);
        let wide = Engine::builder().threads(2).build();
        let (_, parallel) = full_step(&hso, &wide).unwrap();
        assert_eq!(parallel.problem, first.problem);
        assert_eq!(parallel.provenance, first.provenance);
    }

    #[test]
    fn dual_swaps_sides() {
        let p = BiregularProblem::from_problem(&mis3());
        let d = p.dual();
        assert_eq!(d.degrees(), (2, 3));
        assert_eq!(d.black(), p.white());
        assert_eq!(d.white(), p.black());
        assert!(d.dual().semantically_equal(&p));
    }

    #[test]
    fn half_step_on_dual_mirrors_primal() {
        // Universal step on the white side of Π == universal step on the
        // black side of the dual, with the sides swapped.
        let p = BiregularProblem::from_problem(&mis3());
        let engine = Engine::sequential();
        let via_white = half_step(&p, Side::White, &engine).unwrap();
        let via_dual = half_step(&p.dual(), Side::Black, &engine).unwrap();
        assert!(via_white.problem.semantically_equal(&via_dual.problem.dual()));
        assert_eq!(via_white.provenance, via_dual.provenance);
    }

    #[test]
    fn trivial_black_generalizes_universal() {
        // (Δ, 2): agrees with zeroround::universal_witness.
        for (node, edge) in
            [("A A A", "A A"), ("M M M\nP O O", "M [P O]\nO O"), ("M O", "M M\nO O")]
        {
            let p = Problem::from_text(node, edge).unwrap();
            let bi = BiregularProblem::from_problem(&p);
            assert_eq!(
                trivial_black(&bi).is_some(),
                crate::zeroround::universal_witness(&p).is_some(),
                "{node} / {edge}"
            );
        }
        // Rank-3: HSO is not trivial; the all-I relaxation is.
        let hso = BiregularProblem::from_text("O I I", "[O I] I I").unwrap();
        assert!(trivial_black(&hso).is_none());
        let relaxed = BiregularProblem::from_text("I I I", "[O I] I I").unwrap();
        assert!(trivial_black(&relaxed).is_some());
    }

    #[test]
    fn to_problem_requires_white_degree_two() {
        let hso = BiregularProblem::from_text("O I I", "[O I] I I").unwrap();
        assert!(matches!(hso.to_problem(), Err(RelimError::WrongDegree { .. })));
        let p = BiregularProblem::from_problem(&mis3());
        assert!(p.to_problem().is_ok());
    }

    #[test]
    fn provenance_maps_back_to_old_labels() {
        let p = BiregularProblem::from_problem(&mis3());
        let step = half_step(&p, Side::White, &Engine::sequential()).unwrap();
        // Every universal-side configuration maps to sets of old labels
        // whose pairings are all in the old white constraint.
        let compat = mis3().edge_compat();
        for cfg in step.problem.white().iter() {
            let sc = as_set_config(&step, cfg);
            let s = sc.as_slice();
            for a in s[0].iter() {
                assert!(s[1].is_subset_of(compat[a.index()]));
            }
        }
    }

    #[test]
    fn rank_two_black_side_is_rbar() {
        // Black half step on a (Δ, 2) problem after the white half is the
        // classic R̄ — covered by the full-step test; here check the black
        // half *standalone* equals rbar on the R(Π) intermediate.
        let p = mis3();
        let r = crate::roundelim::r_step(&p).unwrap();
        let bi = BiregularProblem::from_problem(&r.problem);
        let engine = Engine::sequential();
        let direct = engine.rbar_step(&r.problem).unwrap();
        let via_bi = half_step(&bi, Side::Black, &engine).unwrap();
        let q = via_bi.problem.to_problem().unwrap();
        assert!(iso::isomorphic(&q, &direct.problem));
    }
}
