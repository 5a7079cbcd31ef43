//! The problem family `Π_Δ(a,x)` (paper §3.1) and relatives.
//!
//! `Π_Δ(a,x)` relaxes MIS in two directions at once: nodes may *own* `a`
//! edges instead of being dominated (type-3 nodes), and independent-set
//! nodes may have up to `x` outgoing edges to other set nodes. The labels:
//!
//! | label | meaning |
//! |-------|---------|
//! | `M`   | "in the dominating set" |
//! | `P`   | pointer to a dominating neighbor |
//! | `O`   | other edge of a pointer node |
//! | `A`   | owned edge of a type-3 node |
//! | `X`   | everything else (outgoing set-edges, padding) |
//!
//! Node constraint: `M^(Δ−x) X^x`, `A^a X^(Δ−a)`, `P O^(Δ−1)`.
//! Edge constraint: `M` ↮ `M`, `A` ↮ `A`, `P` only with `M`/`X`.

use relim_core::error::{RelimError, Result};
use relim_core::{Alphabet, Constraint, Label, LabelSet, Line, Problem};

/// Index of label `M` in the family alphabets.
pub const M: u8 = 0;
/// Index of label `P`.
pub const P: u8 = 1;
/// Index of label `O`.
pub const O: u8 = 2;
/// Index of label `A`.
pub const A: u8 = 3;
/// Index of label `X`.
pub const X: u8 = 4;
/// Index of label `C` (only in `Π⁺_Δ(a,x)`).
pub const C: u8 = 5;

/// Parameters `(Δ, a, x)` of a family member.
///
/// Intuitively (paper §3): increasing `x` or decreasing `a` makes the
/// problem easier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PiParams {
    /// Degree of the regular tree.
    pub delta: u32,
    /// Number of edges a type-3 node must own.
    pub a: u32,
    /// Outdegree budget of set nodes.
    pub x: u32,
}

impl PiParams {
    /// Validates `0 ≤ a, x ≤ Δ` and `Δ ≥ 2`.
    ///
    /// # Errors
    ///
    /// Returns [`RelimError::InvalidParameter`] outside the range.
    pub fn validate(&self) -> Result<()> {
        if self.delta < 2 {
            return Err(RelimError::InvalidParameter {
                message: format!("delta must be >= 2, got {}", self.delta),
            });
        }
        if self.a > self.delta || self.x > self.delta {
            return Err(RelimError::InvalidParameter {
                message: format!(
                    "need 0 <= a, x <= delta; got a={}, x={}, delta={}",
                    self.a, self.x, self.delta
                ),
            });
        }
        Ok(())
    }

    /// Whether Lemma 6 applies: `x + 2 ≤ a ≤ Δ`.
    pub fn lemma6_applicable(&self) -> bool {
        self.x + 2 <= self.a && self.a <= self.delta
    }

    /// Whether Corollary 10 applies: `2x + 1 ≤ a` and `x + 2 ≤ a ≤ Δ`.
    pub fn corollary10_applicable(&self) -> bool {
        2 * self.x < self.a && self.lemma6_applicable()
    }

    /// The parameters after one Corollary 10 step:
    /// `(⌊(a − 2x − 1)/2⌋, x + 1)`.
    pub fn corollary10_step(&self) -> PiParams {
        PiParams {
            delta: self.delta,
            a: (self.a.saturating_sub(2 * self.x + 1)) / 2,
            x: self.x + 1,
        }
    }
}

fn singleton(l: u8) -> LabelSet {
    LabelSet::singleton(Label::new(l))
}

fn set(labels: &[u8]) -> LabelSet {
    labels.iter().map(|&l| Label::new(l)).collect()
}

/// Builds a [`Line`] from `(label, multiplicity)` pairs, skipping zero
/// multiplicities.
fn line(groups: &[(u8, u32)]) -> Line {
    Line::new(groups.iter().filter(|&&(_, m)| m > 0).map(|&(l, m)| (singleton(l), m)).collect())
        .expect("family line is non-empty")
}

/// All `(a, x)` parameter points with Lemma 6's hypothesis
/// `x + 2 ≤ a ≤ Δ` for one `Δ`, in sweep order (`a` ascending, then `x`) —
/// the grid the Lemma 6/8 verification sweeps and the bench drivers walk.
pub fn sweep_points(delta: u32) -> Vec<PiParams> {
    let mut out = Vec::new();
    for a in 2..=delta {
        for x in 0..=a.saturating_sub(2) {
            let params = PiParams { delta, a, x };
            if params.lemma6_applicable() {
                out.push(params);
            }
        }
    }
    out
}

/// The problem `Π_Δ(a,x)` (paper §3.1).
///
/// # Errors
///
/// Propagates parameter validation.
///
/// # Example
///
/// ```
/// use lb_family::family::{pi, PiParams};
///
/// let p = pi(&PiParams { delta: 4, a: 3, x: 1 }).unwrap();
/// assert_eq!(p.delta(), 4);
/// assert_eq!(p.node().len(), 3); // M³X, A³X, PO³
/// ```
pub fn pi(params: &PiParams) -> Result<Problem> {
    params.validate()?;
    let d = params.delta;
    let alphabet = Alphabet::new(&["M", "P", "O", "A", "X"])?;
    let node = Constraint::from_lines(&[
        line(&[(M, d - params.x), (X, params.x)]),
        line(&[(A, params.a), (X, d - params.a)]),
        line(&[(P, 1), (O, d - 1)]),
    ])?;
    let edge = edge_constraint_pi()?;
    Problem::new(alphabet, node, edge)
}

fn edge_constraint_pi() -> Result<Constraint> {
    Constraint::from_lines(&[
        Line::new(vec![(singleton(M), 1), (set(&[P, A, O, X]), 1)]).expect("valid"),
        Line::new(vec![(singleton(O), 1), (set(&[M, A, O, X]), 1)]).expect("valid"),
        Line::new(vec![(singleton(P), 1), (set(&[M, X]), 1)]).expect("valid"),
        Line::new(vec![(singleton(A), 1), (set(&[M, O, X]), 1)]).expect("valid"),
        Line::new(vec![(singleton(X), 1), (set(&[M, P, A, O, X]), 1)]).expect("valid"),
    ])
}

/// The relaxed problem `Π⁺_Δ(a,x)` (paper §3.3), with the extra label `C`.
///
/// Requires `x + 1 ≤ a` and `x ≤ Δ − 1` so all exponents are non-negative.
///
/// # Errors
///
/// Propagates parameter validation.
pub fn pi_plus(params: &PiParams) -> Result<Problem> {
    params.validate()?;
    if params.a < params.x + 1 || params.x + 1 > params.delta {
        return Err(RelimError::InvalidParameter {
            message: format!(
                "pi_plus requires x+1 <= a and x <= delta-1; got a={}, x={}, delta={}",
                params.a, params.x, params.delta
            ),
        });
    }
    let d = params.delta;
    let alphabet = Alphabet::new(&["M", "P", "O", "A", "X", "C"])?;
    let node = Constraint::from_lines(&[
        line(&[(M, d - params.x - 1), (X, params.x + 1)]),
        line(&[(P, 1), (O, d - 1)]),
        line(&[(A, params.a - params.x - 1), (X, d - params.a + params.x + 1)]),
        line(&[(C, d - params.x), (X, params.x)]),
    ])?;
    let edge = Constraint::from_lines(&[
        Line::new(vec![(singleton(M), 1), (set(&[P, A, C, O, X]), 1)]).expect("valid"),
        Line::new(vec![(singleton(O), 1), (set(&[M, A, C, O, X]), 1)]).expect("valid"),
        Line::new(vec![(singleton(P), 1), (set(&[M, X]), 1)]).expect("valid"),
        Line::new(vec![(singleton(A), 1), (set(&[M, C, O, X]), 1)]).expect("valid"),
        Line::new(vec![(singleton(X), 1), (set(&[M, P, A, C, O, X]), 1)]).expect("valid"),
        Line::new(vec![(singleton(C), 1), (set(&[M, A, O, X]), 1)]).expect("valid"),
    ])?;
    Problem::new(alphabet, node, edge)
}

/// The canonical MIS encoding (paper §2.2): `N = {M^Δ, P O^(Δ−1)}`,
/// `E = {M[PO], OO}`.
///
/// # Errors
///
/// Requires `Δ ≥ 2`.
pub fn mis(delta: u32) -> Result<Problem> {
    if delta < 2 {
        return Err(RelimError::InvalidParameter {
            message: format!("mis requires delta >= 2, got {delta}"),
        });
    }
    let alphabet = Alphabet::new(&["M", "P", "O"])?;
    // Indices within this 3-label alphabet: M=0, P=1, O=2.
    let m = LabelSet::singleton(Label::new(0));
    let p = LabelSet::singleton(Label::new(1));
    let o = LabelSet::singleton(Label::new(2));
    let node = Constraint::from_lines(&[
        Line::new(vec![(m, delta)]).expect("valid"),
        Line::new(vec![(p, 1), (o, delta - 1)]).expect("valid"),
    ])?;
    let edge = Constraint::from_lines(&[
        Line::new(vec![(m, 1), (p.union(o), 1)]).expect("valid"),
        Line::new(vec![(o, 2)]).expect("valid"),
    ])?;
    Problem::new(alphabet, node, edge)
}

/// The expected Hasse edges of the edge diagram of `Π_Δ(a,x)`
/// (paper Figure 4): `P → A → O → X` and `M → X`, as label-index pairs.
pub fn figure4_expected_hasse() -> Vec<(u8, u8)> {
    vec![(P, A), (A, O), (O, X), (M, X)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use relim_core::diagram::StrengthOrder;

    #[test]
    fn pi_shape() {
        let p = pi(&PiParams { delta: 5, a: 3, x: 1 }).unwrap();
        assert_eq!(p.delta(), 5);
        assert_eq!(p.alphabet().len(), 5);
        assert_eq!(p.node().len(), 3);
        // Edge pairs: M with 4, O with 4 (incl OO), P with 2, A with 3, X with 5;
        // as unordered distinct pairs: count them explicitly.
        // MP MA MO MX / OA OO OX OM / PX PM / AO AX AM / X* (XX XP ...)
        // Distinct unordered set: {MP, MA, MO, MX, OA, OO, OX, PX, AX, XX} = 10.
        assert_eq!(p.edge().len(), 10);
    }

    #[test]
    fn pi_rejects_bad_params() {
        assert!(pi(&PiParams { delta: 1, a: 0, x: 0 }).is_err());
        assert!(pi(&PiParams { delta: 4, a: 5, x: 0 }).is_err());
        assert!(pi(&PiParams { delta: 4, a: 0, x: 5 }).is_err());
    }

    #[test]
    fn pi_extreme_params() {
        // x = Δ collapses the M-configuration to X^Δ; a = 0 likewise.
        let p = pi(&PiParams { delta: 3, a: 0, x: 3 }).unwrap();
        // Both degenerate configurations coincide: X³ and PO².
        assert_eq!(p.node().len(), 2);
    }

    #[test]
    fn figure4_edge_diagram() {
        let p = pi(&PiParams { delta: 6, a: 4, x: 1 }).unwrap();
        let order = StrengthOrder::of_constraint(p.edge(), 5);
        let mut edges: Vec<(u8, u8)> =
            order.hasse_edges().into_iter().map(|(a, b)| (a.raw(), b.raw())).collect();
        edges.sort_unstable();
        let mut expected = figure4_expected_hasse();
        expected.sort_unstable();
        assert_eq!(edges, expected);
    }

    #[test]
    fn pi_plus_shape() {
        let p = pi_plus(&PiParams { delta: 5, a: 4, x: 1 }).unwrap();
        assert_eq!(p.alphabet().len(), 6);
        assert_eq!(p.node().len(), 4);
        assert!(pi_plus(&PiParams { delta: 5, a: 0, x: 1 }).is_err());
        assert!(pi_plus(&PiParams { delta: 5, a: 5, x: 5 }).is_err());
    }

    #[test]
    fn mis_matches_paper_example() {
        let p = mis(3).unwrap();
        assert_eq!(p.node().len(), 2);
        assert_eq!(p.edge().len(), 3);
        // MIS is not 0-round solvable (Lemma 12 applies to it as well).
        assert!(!relim_core::zeroround::solvable_deterministically(&p));
    }

    #[test]
    fn corollary10_step_matches_formula() {
        let p = PiParams { delta: 100, a: 50, x: 3 };
        assert!(p.corollary10_applicable());
        let next = p.corollary10_step();
        assert_eq!(next.a, (50 - 7) / 2);
        assert_eq!(next.x, 4);
    }

    #[test]
    fn pi_is_not_zero_round_solvable() {
        // Lemma 12: for x <= Δ-1, a >= 1, not 0-round solvable.
        for (delta, a, x) in [(3, 1, 0), (4, 3, 1), (6, 4, 2), (8, 8, 0)] {
            let p = pi(&PiParams { delta, a, x }).unwrap();
            assert!(
                !relim_core::zeroround::solvable_deterministically(&p),
                "delta={delta}, a={a}, x={x}"
            );
        }
        // Degenerate: x = Δ makes X^Δ a valid all-self-compatible config.
        let p = pi(&PiParams { delta: 3, a: 1, x: 3 }).unwrap();
        assert!(relim_core::zeroround::solvable_deterministically(&p));
        // The fast check agrees with the full report, both ways.
        for (delta, a, x) in [(3, 1, 0), (4, 3, 1), (6, 4, 2), (8, 8, 0), (3, 1, 3)] {
            let p = pi(&PiParams { delta, a, x }).unwrap();
            assert_eq!(
                relim_core::zeroround::solvable_deterministically(&p),
                relim_core::zeroround::analyze(&p).deterministically_solvable,
                "delta={delta}, a={a}, x={x}"
            );
        }
    }
}
