//! Enumeration of right-closed label sets (paper §2.3, Observation 4).
//!
//! Observation 4 (from Balliu–Brandt–Olivetti FOCS'20) states that every
//! label of `R(Π)` — i.e. every set appearing in the maximal configurations
//! of the "for-all" step — is right-closed with respect to the relevant
//! strength order. This lets the engine enumerate candidates over the
//! (usually few) right-closed sets instead of all `2^|Σ|` subsets.

use crate::diagram::StrengthOrder;
use crate::labelset::LabelSet;

/// All non-empty right-closed sets of the order, sorted by
/// `(cardinality, bitmask)` for deterministic output.
///
/// # Example
///
/// ```
/// use relim_core::{Problem, diagram::StrengthOrder, rightclosed::right_closed_sets};
///
/// let mis = Problem::from_text("M M M\nP O O", "M [P O]\nO O").unwrap();
/// let order = StrengthOrder::of_constraint(mis.edge(), 3);
/// let sets = right_closed_sets(&order);
/// // For MIS the right-closed sets w.r.t. the edge diagram are
/// // {M}, {O}, {M,O}, {P,O}, {M,P,O} — but never {P} alone.
/// assert_eq!(sets.len(), 5);
/// ```
pub fn right_closed_sets(order: &StrengthOrder) -> Vec<LabelSet> {
    let n = order.len();
    assert!(n <= crate::roundelim::MAX_LABELS, "right-closed enumeration past MAX_LABELS");
    let mut out = Vec::new();
    for bits in 1u32..(1u32 << n) {
        let set = LabelSet::from_bits(bits);
        if order.is_right_closed(set) {
            out.push(set);
        }
    }
    out.sort_unstable_by_key(|s| (s.len(), s.bits()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Problem;

    #[test]
    fn mis_right_closed_sets() {
        let mis = Problem::from_text("M M M\nP O O", "M [P O]\nO O").unwrap();
        let order = StrengthOrder::of_constraint(mis.edge(), 3);
        let sets = right_closed_sets(&order);
        let a = mis.alphabet();
        let m = LabelSet::singleton(a.label("M").unwrap());
        let p = LabelSet::singleton(a.label("P").unwrap());
        let o = LabelSet::singleton(a.label("O").unwrap());
        assert!(sets.contains(&m));
        assert!(sets.contains(&o));
        assert!(!sets.contains(&p));
        assert!(sets.contains(&p.union(o)));
        assert!(sets.contains(&m.union(o)));
        assert!(sets.contains(&m.union(p).union(o)));
        assert_eq!(sets.len(), 5);
    }

    #[test]
    fn antichain_order_all_subsets_closed() {
        // A problem where no label is comparable: every subset right-closed.
        // Edge constraint {AB} only: A at-least-as-strong-as B iff replacing
        // B in AB gives AA which is absent => incomparable both ways.
        let p = Problem::from_text("A B", "A B").unwrap();
        let order = StrengthOrder::of_constraint(p.edge(), 2);
        assert_eq!(right_closed_sets(&order).len(), 3);
    }

    #[test]
    fn deterministic_ordering() {
        let mis = Problem::from_text("M M M\nP O O", "M [P O]\nO O").unwrap();
        let order = StrengthOrder::of_constraint(mis.edge(), 3);
        let sets = right_closed_sets(&order);
        let mut sorted = sets.clone();
        sorted.sort_unstable_by_key(|s| (s.len(), s.bits()));
        assert_eq!(sets, sorted);
    }
}
