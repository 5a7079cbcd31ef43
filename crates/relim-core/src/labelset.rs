//! Bitmask sets of labels.

use crate::label::{Alphabet, Label, MAX_LABELS};
use std::fmt;

/// A set of [`Label`]s, represented as a `u32` bitmask.
///
/// Label sets are the currency of round elimination: after one application of
/// `R(·)`, the labels of the new problem *are* sets of labels of the old
/// problem (paper §2.3).
///
/// # Example
///
/// ```
/// use relim_core::{Label, LabelSet};
///
/// let s = LabelSet::from_iter([Label::new(0), Label::new(2)]);
/// assert!(s.contains(Label::new(0)));
/// assert!(!s.contains(Label::new(1)));
/// assert_eq!(s.len(), 2);
/// let t = s.union(LabelSet::singleton(Label::new(1)));
/// assert!(s.is_subset_of(t));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LabelSet(u32);

impl LabelSet {
    /// The empty set.
    pub const EMPTY: LabelSet = LabelSet(0);

    /// Creates a set from a raw bitmask.
    pub fn from_bits(bits: u32) -> Self {
        debug_assert!(bits < (1 << MAX_LABELS));
        LabelSet(bits)
    }

    /// The raw bitmask.
    pub fn bits(self) -> u32 {
        self.0
    }

    /// The set containing exactly one label.
    pub fn singleton(label: Label) -> Self {
        LabelSet(1 << label.index())
    }

    /// The full set over an alphabet of `n` labels.
    ///
    /// # Panics
    ///
    /// Panics if `n > 31`.
    pub fn full(n: usize) -> Self {
        assert!(n <= MAX_LABELS);
        if n == 0 {
            LabelSet(0)
        } else {
            LabelSet(u32::MAX >> (32 - n))
        }
    }

    /// Whether the set contains `label`.
    pub fn contains(self, label: Label) -> bool {
        self.0 & (1 << label.index()) != 0
    }

    /// Inserts a label, returning the new set.
    #[must_use]
    pub fn with(self, label: Label) -> Self {
        LabelSet(self.0 | (1 << label.index()))
    }

    /// Removes a label, returning the new set.
    #[must_use]
    pub fn without(self, label: Label) -> Self {
        LabelSet(self.0 & !(1 << label.index()))
    }

    /// Set union.
    #[must_use]
    pub fn union(self, other: LabelSet) -> Self {
        LabelSet(self.0 | other.0)
    }

    /// Set intersection.
    #[must_use]
    pub fn intersect(self, other: LabelSet) -> Self {
        LabelSet(self.0 & other.0)
    }

    /// Set difference `self \ other`.
    #[must_use]
    pub fn difference(self, other: LabelSet) -> Self {
        LabelSet(self.0 & !other.0)
    }

    /// Whether `self ⊆ other`.
    pub fn is_subset_of(self, other: LabelSet) -> bool {
        self.0 & !other.0 == 0
    }

    /// Whether `self ⊂ other` strictly.
    pub fn is_strict_subset_of(self, other: LabelSet) -> bool {
        self != other && self.is_subset_of(other)
    }

    /// Number of labels in the set.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether the set is empty.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Iterates over the labels in the set, in index order.
    pub fn iter(self) -> LabelSetIter {
        LabelSetIter(self.0)
    }

    /// The smallest label in the set, if any.
    pub fn first(self) -> Option<Label> {
        if self.0 == 0 {
            None
        } else {
            Some(Label::new(self.0.trailing_zeros() as u8))
        }
    }

    /// Renders the set using an alphabet's names.
    ///
    /// Single-character alphabets render densely (`MOX`); otherwise names are
    /// brace-wrapped and space-separated (`{Foo Bar}`).
    pub fn display(self, alphabet: &Alphabet) -> String {
        let names: Vec<&str> = self.iter().map(|l| alphabet.name(l)).collect();
        if alphabet.all_single_char() {
            names.concat()
        } else {
            format!("{{{}}}", names.join(" "))
        }
    }
}

impl FromIterator<Label> for LabelSet {
    fn from_iter<I: IntoIterator<Item = Label>>(iter: I) -> Self {
        let mut s = LabelSet::EMPTY;
        for l in iter {
            s = s.with(l);
        }
        s
    }
}

impl fmt::Display for LabelSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, l) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}", l.index())?;
        }
        write!(f, "}}")
    }
}

/// Iterator over the labels of a [`LabelSet`], produced by [`LabelSet::iter`].
#[derive(Debug, Clone)]
pub struct LabelSetIter(u32);

impl Iterator for LabelSetIter {
    type Item = Label;

    fn next(&mut self) -> Option<Label> {
        if self.0 == 0 {
            None
        } else {
            let i = self.0.trailing_zeros();
            self.0 &= self.0 - 1;
            Some(Label::new(i as u8))
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.0.count_ones() as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for LabelSetIter {}

/// Iterates over all non-empty subsets of `universe`, in increasing bitmask
/// order.
///
/// # Example
///
/// ```
/// use relim_core::labelset::{subsets_nonempty, LabelSet};
///
/// let universe = LabelSet::full(2);
/// let subs: Vec<LabelSet> = subsets_nonempty(universe).collect();
/// assert_eq!(subs.len(), 3);
/// ```
pub fn subsets_nonempty(universe: LabelSet) -> impl Iterator<Item = LabelSet> {
    let u = universe.bits();
    // Standard subset-enumeration trick: (s - u) & u walks all subsets.
    let mut s: u32 = 0;
    let mut done = false;
    std::iter::from_fn(move || {
        if done {
            return None;
        }
        s = s.wrapping_sub(u) & u;
        if s == 0 {
            done = true;
            return None;
        }
        Some(LabelSet::from_bits(s))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_ops() {
        let a = Label::new(0);
        let b = Label::new(3);
        let s = LabelSet::singleton(a).with(b);
        assert_eq!(s.len(), 2);
        assert!(s.contains(a) && s.contains(b));
        assert_eq!(s.without(a), LabelSet::singleton(b));
        assert!(LabelSet::singleton(a).is_strict_subset_of(s));
        assert!(!s.is_strict_subset_of(s));
    }

    #[test]
    fn full_set() {
        assert_eq!(LabelSet::full(0), LabelSet::EMPTY);
        assert_eq!(LabelSet::full(5).len(), 5);
        assert_eq!(LabelSet::full(31).len(), 31);
    }

    #[test]
    fn iteration_order() {
        let s = LabelSet::from_bits(0b1011);
        let v: Vec<usize> = s.iter().map(|l| l.index()).collect();
        assert_eq!(v, vec![0, 1, 3]);
    }

    #[test]
    fn subset_enumeration() {
        let u = LabelSet::from_bits(0b101);
        let subs: Vec<u32> = subsets_nonempty(u).map(|s| s.bits()).collect();
        assert_eq!(subs, vec![0b001, 0b100, 0b101]);
        assert_eq!(subsets_nonempty(LabelSet::full(4)).count(), 15);
    }

    #[test]
    fn display_dense() {
        let alpha = Alphabet::new(&["M", "P", "O"]).unwrap();
        let s = LabelSet::from_bits(0b101);
        assert_eq!(s.display(&alpha), "MO");
    }
}
