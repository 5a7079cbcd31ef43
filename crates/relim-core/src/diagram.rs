//! Label strength orders and diagrams (paper §2.3, Figures 1, 4, 5).
//!
//! Label `A` is *at least as strong as* label `B` **according to a
//! constraint** `C` if for every configuration in `C` containing `B`,
//! replacing one occurrence of `B` by `A` yields a configuration that is also
//! in `C`. Computed against the edge constraint this yields the *edge
//! diagram*; against the node constraint, the *node diagram*.

use crate::constraint::Constraint;
use crate::label::{Alphabet, Label};
use crate::labelset::LabelSet;

/// The full strength preorder of labels with respect to one constraint.
///
/// # Example
///
/// ```
/// use relim_core::{Problem, diagram::StrengthOrder};
///
/// // MIS (Δ=3): in the edge diagram, O is stronger than P (Figure 1).
/// let mis = Problem::from_text("M M M\nP O O", "M [P O]\nO O").unwrap();
/// let order = StrengthOrder::of_constraint(mis.edge(), mis.alphabet().len());
/// let p = mis.alphabet().label("P").unwrap();
/// let o = mis.alphabet().label("O").unwrap();
/// let m = mis.alphabet().label("M").unwrap();
/// assert!(order.is_at_least_as_strong(o, p));
/// assert!(!order.is_at_least_as_strong(p, o));
/// assert!(!order.is_at_least_as_strong(m, o) && !order.is_at_least_as_strong(o, m));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StrengthOrder {
    n: usize,
    /// `geq[b]` = set of labels at least as strong as `b` (always contains
    /// `b` itself).
    geq: Vec<LabelSet>,
}

impl StrengthOrder {
    /// Computes the strength preorder of all `alphabet_len` labels with
    /// respect to `constraint`.
    ///
    /// Labels that do not occur in the constraint are at least as strong as
    /// every label (replacing in zero configurations is vacuous) — callers
    /// normally drop unused labels first.
    pub fn of_constraint(constraint: &Constraint, alphabet_len: usize) -> Self {
        let n = alphabet_len;
        let mut geq = vec![LabelSet::EMPTY; n];
        for (b_idx, slot) in geq.iter_mut().enumerate() {
            let b = Label::new(b_idx as u8);
            for a_idx in 0..n {
                let a = Label::new(a_idx as u8);
                if at_least_as_strong(constraint, a, b) {
                    *slot = slot.with(a);
                }
            }
        }
        StrengthOrder { n, geq }
    }

    /// Number of labels covered by the order.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the order covers no labels.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Whether `a` is at least as strong as `b` (reflexive).
    pub fn is_at_least_as_strong(&self, a: Label, b: Label) -> bool {
        self.geq[b.index()].contains(a)
    }

    /// Whether `a` is strictly stronger than `b`.
    pub fn is_stronger(&self, a: Label, b: Label) -> bool {
        self.is_at_least_as_strong(a, b) && !self.is_at_least_as_strong(b, a)
    }

    /// Whether `a` and `b` are equivalent (each at least as strong as the
    /// other).
    pub fn equivalent(&self, a: Label, b: Label) -> bool {
        self.is_at_least_as_strong(a, b) && self.is_at_least_as_strong(b, a)
    }

    /// Upward closure of a set under "at least as strong".
    pub fn upward_closure(&self, set: LabelSet) -> LabelSet {
        set.iter().fold(LabelSet::EMPTY, |acc, l| acc.union(self.geq[l.index()]))
    }

    /// Whether `set` is right-closed: closed under taking at-least-as-strong
    /// labels (paper §2.3 "Right-closed Sets", via the preorder).
    pub fn is_right_closed(&self, set: LabelSet) -> bool {
        self.upward_closure(set) == set
    }

    /// The Hasse edges of the diagram: `(a, b)` meaning an arrow `a → b`
    /// where `b` is strictly stronger than `a` and no label lies strictly
    /// between them.
    pub fn hasse_edges(&self) -> Vec<(Label, Label)> {
        let mut edges = Vec::new();
        for a_idx in 0..self.n {
            let a = Label::new(a_idx as u8);
            for b_idx in 0..self.n {
                let b = Label::new(b_idx as u8);
                if !self.is_stronger(b, a) {
                    continue;
                }
                let intermediate = (0..self.n).any(|z_idx| {
                    let z = Label::new(z_idx as u8);
                    self.is_stronger(z, a) && self.is_stronger(b, z)
                });
                if !intermediate {
                    edges.push((a, b));
                }
            }
        }
        edges
    }

    /// Renders the Hasse diagram in Graphviz DOT syntax.
    pub fn to_dot(&self, alphabet: &Alphabet, title: &str) -> String {
        let mut out = String::new();
        out.push_str(&format!("digraph \"{title}\" {{\n  rankdir=LR;\n"));
        for l in alphabet.labels() {
            out.push_str(&format!("  \"{}\";\n", alphabet.name(l)));
        }
        for (a, b) in self.hasse_edges() {
            out.push_str(&format!("  \"{}\" -> \"{}\";\n", alphabet.name(a), alphabet.name(b)));
        }
        out.push_str("}\n");
        out
    }
}

/// The raw relation check: `a` at least as strong as `b` w.r.t. `constraint`.
fn at_least_as_strong(constraint: &Constraint, a: Label, b: Label) -> bool {
    if a == b {
        return true;
    }
    for cfg in constraint.iter() {
        if cfg.contains(b) {
            let replaced = cfg.replace_one(b, a).expect("b occurs in cfg");
            if !constraint.contains(&replaced) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Problem;

    fn mis3() -> Problem {
        Problem::from_text("M M M\nP O O", "M [P O]\nO O").unwrap()
    }

    #[test]
    fn figure1_mis_edge_diagram() {
        // Paper Figure 1: the only strength relation is P -> O (O stronger).
        let p = mis3();
        let order = StrengthOrder::of_constraint(p.edge(), 3);
        let a = p.alphabet();
        let (m, pp, o) = (a.label("M").unwrap(), a.label("P").unwrap(), a.label("O").unwrap());
        assert!(order.is_stronger(o, pp));
        assert!(!order.is_at_least_as_strong(m, pp));
        assert!(!order.is_at_least_as_strong(pp, m));
        assert!(!order.is_at_least_as_strong(m, o));
        assert_eq!(order.hasse_edges(), vec![(pp, o)]);
    }

    #[test]
    fn upward_closure_and_right_closed() {
        let p = mis3();
        let order = StrengthOrder::of_constraint(p.edge(), 3);
        let a = p.alphabet();
        let (m, pp, o) = (a.label("M").unwrap(), a.label("P").unwrap(), a.label("O").unwrap());
        let just_p = LabelSet::singleton(pp);
        assert!(!order.is_right_closed(just_p));
        assert_eq!(order.upward_closure(just_p), just_p.with(o));
        assert!(order.is_right_closed(LabelSet::singleton(o)));
        assert!(order.is_right_closed(LabelSet::singleton(m)));
        assert!(order.is_right_closed(LabelSet::singleton(m).with(o)));
    }

    #[test]
    fn reflexive() {
        let p = mis3();
        let order = StrengthOrder::of_constraint(p.node(), 3);
        for l in p.alphabet().labels() {
            assert!(order.is_at_least_as_strong(l, l));
        }
    }

    #[test]
    fn dot_output_contains_edge() {
        let p = mis3();
        let order = StrengthOrder::of_constraint(p.edge(), 3);
        let dot = order.to_dot(p.alphabet(), "mis-edge");
        assert!(dot.contains("\"P\" -> \"O\""));
    }
}
