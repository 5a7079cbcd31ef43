//! Sinkless orientation — the classical round elimination fixed point.
//!
//! Brandt et al. \[STOC'16\] proved the Ω(log log n) randomized lower bound
//! for sinkless orientation via what became round elimination; the problem
//! is the canonical *fixed point*: `R̄(R(SO)) = SO` (up to renaming) on
//! Δ-regular trees for Δ ≥ 3. The paper cites this line of work in §1.3;
//! here it serves as an independent correctness anchor for the engine
//! (experiment E14).

use relim_core::error::{RelimError, Result};
use relim_core::{iso, Alphabet, Constraint, Engine, Label, LabelSet, Line, Problem};

/// The sinkless orientation problem on Δ-regular trees in its *fixed-point*
/// encoding: labels `O` (my outgoing claim) and `I` (other edges), node
/// constraint `O I^(Δ−1)` (claim exactly one edge), edge constraint
/// `[O I] I` (no edge claimed from both sides).
///
/// # Errors
///
/// Requires `Δ ≥ 2`.
pub fn sinkless_orientation(delta: u32) -> Result<Problem> {
    if delta < 2 {
        return Err(RelimError::InvalidParameter {
            message: format!("sinkless orientation requires delta >= 2, got {delta}"),
        });
    }
    let alphabet = Alphabet::new(&["O", "I"])?;
    let o = LabelSet::singleton(Label::new(0));
    let i = LabelSet::singleton(Label::new(1));
    let node = Constraint::from_lines(&[Line::new(vec![(o, 1), (i, delta - 1)]).expect("valid")])?;
    let edge = Constraint::from_lines(&[Line::new(vec![(o.union(i), 1), (i, 1)]).expect("valid")])?;
    Problem::new(alphabet, node, edge)
}

/// The *relaxed* encoding of sinkless orientation: node constraint
/// `O [O I]^(Δ−1)` ("at least one outgoing"), edge constraint `O I`
/// ("every edge consistently oriented"). One round elimination step maps it
/// onto the fixed-point encoding ([`sinkless_orientation`]).
///
/// # Errors
///
/// Requires `Δ ≥ 2`.
pub fn sinkless_orientation_strict_edges(delta: u32) -> Result<Problem> {
    if delta < 2 {
        return Err(RelimError::InvalidParameter {
            message: format!("sinkless orientation requires delta >= 2, got {delta}"),
        });
    }
    let alphabet = Alphabet::new(&["O", "I"])?;
    let o = LabelSet::singleton(Label::new(0));
    let i = LabelSet::singleton(Label::new(1));
    let node =
        Constraint::from_lines(
            &[Line::new(vec![(o, 1), (o.union(i), delta - 1)]).expect("valid")],
        )?;
    let edge = Constraint::from_lines(&[Line::new(vec![(o, 1), (i, 1)]).expect("valid")])?;
    Problem::new(alphabet, node, edge)
}

/// Result of the fixed-point check.
#[derive(Debug, Clone)]
pub struct FixedPointReport {
    /// The degree checked.
    pub delta: u32,
    /// Whether `R̄(R(SO))`, restricted to used labels, is isomorphic to SO.
    pub is_fixed_point: bool,
    /// Label counts along the way: `(|Σ_SO|, |Σ_R(SO)|, |Σ_R̄(R(SO))|)`.
    pub label_counts: (usize, usize, usize),
}

/// Checks whether sinkless orientation is a fixed point of `R̄(R(·))` at
/// degree Δ, running the step on `engine`.
///
/// # Errors
///
/// Propagates construction errors.
pub fn check_fixed_point(delta: u32, engine: &Engine) -> Result<FixedPointReport> {
    let so = sinkless_orientation(delta)?;
    let (r, rr) = engine.rr_step(&so)?;
    let (reduced, _) = rr.problem.drop_unused_labels();
    let is_fixed_point = iso::isomorphic(&reduced, &so);
    Ok(FixedPointReport {
        delta,
        is_fixed_point,
        label_counts: (
            so.alphabet().len(),
            r.problem.alphabet().len(),
            rr.problem.alphabet().len(),
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn so_shape() {
        let so = sinkless_orientation(3).unwrap();
        assert_eq!(so.alphabet().len(), 2);
        assert_eq!(so.node().len(), 1); // O I^2
        assert_eq!(so.edge().len(), 2); // OI, II
    }

    #[test]
    fn fixed_point_for_delta_3_to_5() {
        for delta in 3..=5 {
            let report = check_fixed_point(delta, &Engine::sequential()).unwrap();
            assert!(
                report.is_fixed_point,
                "sinkless orientation not a fixed point at delta={delta}: {report:?}"
            );
        }
    }

    #[test]
    fn strict_encoding_converges_to_fixed_point() {
        // R̄(R(·)) maps the strict-edge encoding onto the fixed-point
        // encoding in a single step.
        let strict = sinkless_orientation_strict_edges(3).unwrap();
        let (_, rr) = Engine::sequential().rr_step(&strict).unwrap();
        let (reduced, _) = rr.problem.drop_unused_labels();
        let fixed = sinkless_orientation(3).unwrap();
        assert!(iso::isomorphic(&reduced, &fixed));
    }

    #[test]
    fn so_not_zero_round_solvable() {
        let so = sinkless_orientation(3).unwrap();
        assert!(!relim_core::zeroround::solvable_deterministically(&so));
    }
}
