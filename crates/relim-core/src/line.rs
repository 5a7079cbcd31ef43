//! Condensed configurations ("lines").
//!
//! The paper writes constraints compactly as *condensed configurations* like
//! `M^(Δ-x) X^x` or `P [M X]`: each position holds a *disjunction* of labels,
//! and positions with the same disjunction are grouped with an exponent
//! (§2.2, "Representation of Problems in the Framework"). A [`Line`]
//! represents one such condensed configuration; a configuration is
//! *contained* in a line if some choice of the disjunctions produces it.

use crate::config::{Config, SetConfig};
use crate::error::{RelimError, Result};
use crate::label::{Alphabet, Label};
use crate::labelset::LabelSet;
use crate::relax;
use std::fmt;

/// A condensed configuration: a multiset of `(label set, multiplicity)`
/// groups.
///
/// # Example
///
/// ```
/// use relim_core::{Alphabet, Config, Line, LabelSet};
///
/// let alpha = Alphabet::new(&["M", "P", "O"]).unwrap();
/// let m = alpha.label("M").unwrap();
/// let p = alpha.label("P").unwrap();
/// let o = alpha.label("O").unwrap();
///
/// // The condensed configuration `M [P O]` (edge constraint of MIS).
/// let line = Line::new(vec![
///     (LabelSet::singleton(m), 1),
///     (LabelSet::singleton(p).with(o), 1),
/// ]).unwrap();
///
/// assert!(line.contains(&Config::new(vec![m, p])));
/// assert!(line.contains(&Config::new(vec![m, o])));
/// assert!(!line.contains(&Config::new(vec![p, o])));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Line {
    /// Sorted by label-set bits; no duplicate sets; no zero multiplicities.
    groups: Vec<(LabelSet, u32)>,
}

impl Line {
    /// Creates a line from `(set, multiplicity)` groups.
    ///
    /// Groups with identical sets are merged and the result is canonically
    /// sorted.
    ///
    /// # Errors
    ///
    /// Returns [`RelimError::EmptyConstraint`] if the total multiplicity is
    /// zero or any group's label set is empty.
    pub fn new(groups: Vec<(LabelSet, u32)>) -> Result<Self> {
        let mut merged: Vec<(LabelSet, u32)> = Vec::new();
        for (set, mult) in groups {
            if mult == 0 {
                continue;
            }
            if set.is_empty() {
                return Err(RelimError::EmptyConstraint);
            }
            match merged.iter_mut().find(|(s, _)| *s == set) {
                Some((_, m)) => *m += mult,
                None => merged.push((set, mult)),
            }
        }
        if merged.is_empty() {
            return Err(RelimError::EmptyConstraint);
        }
        merged.sort_unstable_by_key(|(s, _)| *s);
        Ok(Line { groups: merged })
    }

    /// Creates a line with every position holding the same disjunction.
    pub fn uniform(set: LabelSet, degree: u32) -> Result<Self> {
        Line::new(vec![(set, degree)])
    }

    /// Total degree (sum of multiplicities).
    pub fn degree(&self) -> u32 {
        self.groups.iter().map(|(_, m)| m).sum()
    }

    /// The groups, sorted by label-set bits.
    pub fn groups(&self) -> &[(LabelSet, u32)] {
        &self.groups
    }

    /// Union of all label sets mentioned.
    pub fn support(&self) -> LabelSet {
        self.groups.iter().fold(LabelSet::EMPTY, |acc, (s, _)| acc.union(*s))
    }

    /// Whether `config` can be produced by choosing one label from each
    /// position's disjunction: the singleton sets of `config` relax into
    /// the line (Definition 7, [`crate::relax::config_relaxes_to_line`]).
    ///
    /// # Panics
    ///
    /// Panics when the line has more than 64 groups.
    pub fn contains(&self, config: &Config) -> bool {
        let singletons: SetConfig = config.iter().map(LabelSet::singleton).collect();
        relax::config_relaxes_to_line(&singletons, self)
    }

    /// Expands the line into every concrete configuration it contains.
    ///
    /// The result is deduplicated and sorted. Beware: the expansion of a line
    /// of degree Δ over large disjunctions can be combinatorially large;
    /// [`crate::parse::CondensedProblem::expansion_size`] bounds it
    /// without expanding.
    pub fn expand(&self) -> Vec<Config> {
        let mut acc: Vec<Config> = vec![Config::empty()];
        // One label buffer for the whole expansion: at degrees up to
        // `INLINE_DEGREE` no configuration allocates.
        let mut labels: Vec<Label> = Vec::new();
        for &(set, mult) in &self.groups {
            let choices = multisets_from_set(set, mult);
            let mut next = Vec::with_capacity(acc.len() * choices.len());
            for base in &acc {
                for choice in &choices {
                    labels.clear();
                    labels.extend(base.iter());
                    labels.extend(choice.iter());
                    next.push(Config::from_labels(&labels));
                }
            }
            next.sort_unstable();
            next.dedup();
            acc = next;
        }
        acc
    }

    /// Remaps every label through `mapping`, merging groups as needed.
    ///
    /// # Panics
    ///
    /// Panics if some label in the line has no entry in `mapping`.
    #[must_use]
    pub fn map_labels(&self, mapping: &[Label]) -> Line {
        let groups = self
            .groups
            .iter()
            .map(|&(set, mult)| {
                let mapped: LabelSet = set.iter().map(|l| mapping[l.index()]).collect();
                (mapped, mult)
            })
            .collect();
        Line::new(groups).expect("mapped line is non-empty")
    }

    /// Renders with alphabet names: `M^14 [P O]^2`.
    pub fn display(&self, alphabet: &Alphabet) -> String {
        let mut parts = Vec::new();
        for &(set, mult) in &self.groups {
            let body = if set.len() == 1 {
                alphabet.name(set.first().expect("non-empty")).to_owned()
            } else {
                format!("[{}]", set.iter().map(|l| alphabet.name(l)).collect::<Vec<_>>().join(" "))
            };
            if mult == 1 {
                parts.push(body);
            } else {
                parts.push(format!("{body}^{mult}"));
            }
        }
        parts.join(" ")
    }
}

impl fmt::Display for Line {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (set, mult)) in self.groups.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{set}^{mult}")?;
        }
        Ok(())
    }
}

/// How many configurations [`Line::expand`] enumerates before
/// deduplication: `Π C(|S|+m−1, m)` over the groups `S^m` of a condensed
/// line, computed without expanding and saturating at `u128::MAX`.
/// Groups with equal label sets are merged first (as [`Line::new`]
/// does), so the parser's unmerged token list gets its line's answer.
pub(crate) fn expansion_size(groups: &[(LabelSet, u32)]) -> u128 {
    let mut size: u128 = 1;
    for (i, &(set, _)) in groups.iter().enumerate() {
        if groups[..i].iter().any(|&(s, _)| s == set) {
            continue;
        }
        let mult: u64 =
            groups[i..].iter().filter(|&&(s, _)| s == set).map(|&(_, m)| u64::from(m)).sum();
        size = size.saturating_mul(multiset_count(set.len() as u64, mult));
    }
    size
}

/// `C(n+k−1, k)`, the number of multisets of size `k` over `n` labels,
/// saturating at `u128::MAX`. Each step's running value is the exact
/// binomial `C(k+i, i)`, and the values never decrease, so an overflowing
/// step means the answer itself is past `u128::MAX`.
fn multiset_count(n: u64, k: u64) -> u128 {
    if n == 0 {
        return u128::from(k == 0);
    }
    let mut count: u128 = 1;
    for i in 1..n {
        match count.checked_mul(u128::from(k + i)) {
            Some(product) => count = product / u128::from(i),
            None => return u128::MAX,
        }
    }
    count
}

/// All multisets of size `k` drawn from the labels of `set`.
///
/// Recursion depth is the number of *distinct* labels (≤ 31), never the
/// multiplicity, so lines of astronomically high degree expand safely.
pub(crate) fn multisets_from_set(set: LabelSet, k: u32) -> Vec<Config> {
    let labels: Vec<Label> = set.iter().collect();
    if labels.is_empty() {
        return if k == 0 { vec![Config::empty()] } else { Vec::new() };
    }
    let mut out = Vec::new();
    let mut counts = vec![0u32; labels.len()];
    let mut buf: Vec<Label> = Vec::new();
    fn rec(
        labels: &[Label],
        i: usize,
        remaining: u32,
        counts: &mut Vec<u32>,
        buf: &mut Vec<Label>,
        out: &mut Vec<Config>,
    ) {
        if i + 1 == labels.len() {
            counts[i] = remaining;
            buf.clear();
            for (j, &c) in counts.iter().enumerate() {
                buf.extend(std::iter::repeat_n(labels[j], c as usize));
            }
            out.push(Config::from_labels(buf));
            return;
        }
        for c in 0..=remaining {
            counts[i] = c;
            rec(labels, i + 1, remaining - c, counts, buf, out);
        }
    }
    rec(&labels, 0, k, &mut counts, &mut buf, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(i: u8) -> Label {
        Label::new(i)
    }

    fn ls(bits: u32) -> LabelSet {
        LabelSet::from_bits(bits)
    }

    #[test]
    fn merge_and_canonicalize() {
        let line = Line::new(vec![(ls(0b10), 1), (ls(0b01), 2), (ls(0b10), 3)]).unwrap();
        assert_eq!(line.groups(), &[(ls(0b01), 2), (ls(0b10), 4)]);
        assert_eq!(line.degree(), 6);
    }

    #[test]
    fn empty_rejected() {
        assert!(Line::new(vec![]).is_err());
        assert!(Line::new(vec![(ls(0), 2)]).is_err());
        assert!(Line::new(vec![(ls(1), 0)]).is_err());
    }

    #[test]
    fn contains_basic() {
        // Line: [AB] [AB] C  (labels 0=A, 1=B, 2=C)
        let line = Line::new(vec![(ls(0b011), 2), (ls(0b100), 1)]).unwrap();
        assert!(line.contains(&Config::new(vec![l(0), l(0), l(2)])));
        assert!(line.contains(&Config::new(vec![l(0), l(1), l(2)])));
        assert!(!line.contains(&Config::new(vec![l(0), l(1), l(1)])));
        assert!(!line.contains(&Config::new(vec![l(2), l(2), l(0)])));
        // Wrong degree.
        assert!(!line.contains(&Config::new(vec![l(0), l(2)])));
    }

    #[test]
    fn contains_needs_flow_not_greedy() {
        // Groups: [A]^1, [AB]^1. Config A B: B must take group 2, A group 1.
        let line = Line::new(vec![(ls(0b01), 1), (ls(0b11), 1)]).unwrap();
        assert!(line.contains(&Config::new(vec![l(0), l(1)])));
        assert!(line.contains(&Config::new(vec![l(0), l(0)])));
        assert!(!line.contains(&Config::new(vec![l(1), l(1)])));
    }

    #[test]
    fn contains_past_degree_64() {
        // A^64 [AB] holds A^64 B: 65 positions, two groups.
        let line = Line::new(vec![(ls(0b01), 64), (ls(0b11), 1)]).unwrap();
        let mut labels = vec![l(0); 64];
        labels.push(l(1));
        assert!(line.contains(&Config::new(labels.clone())));
        labels[0] = l(1);
        assert!(!line.contains(&Config::new(labels)));
    }

    #[test]
    fn contains_respects_group_capacities() {
        // [A]^2 [B]^2: both A's must fit the A group, whatever B does.
        let line = Line::new(vec![(ls(0b01), 2), (ls(0b10), 2)]).unwrap();
        assert!(line.contains(&Config::new(vec![l(0), l(0), l(1), l(1)])));
        assert!(!line.contains(&Config::new(vec![l(0), l(0), l(0), l(1)])));
        // [AB]^1 [B]^2 holds A B B but not A A B: every position needs
        // reachable capacity.
        let line = Line::new(vec![(ls(0b11), 1), (ls(0b10), 2)]).unwrap();
        assert!(line.contains(&Config::new(vec![l(0), l(1), l(1)])));
        assert!(!line.contains(&Config::new(vec![l(0), l(0), l(1)])));
        // Hall violation: A and B both need the single [AB] slot.
        let line = Line::new(vec![(ls(0b011), 1), (ls(0b100), 1)]).unwrap();
        assert!(!line.contains(&Config::new(vec![l(0), l(1)])));
        assert!(line.contains(&Config::new(vec![l(1), l(2)])));
    }

    #[test]
    fn expansion_matches_contains() {
        let line = Line::new(vec![(ls(0b011), 2), (ls(0b110), 1)]).unwrap();
        let expanded = line.expand();
        // Every expanded config must be contained.
        for cfg in &expanded {
            assert!(line.contains(cfg), "expanded {cfg:?} not contained");
        }
        // Exhaustive cross-check over all multisets of degree 3 over 3 labels.
        let all = multisets_from_set(ls(0b111), 3);
        for cfg in all {
            assert_eq!(expanded.contains(&cfg), line.contains(&cfg), "mismatch on {cfg:?}");
        }
    }

    #[test]
    fn multisets_count() {
        // C(3+2-1, 2) = 6 multisets of size 2 from 3 labels.
        assert_eq!(multisets_from_set(ls(0b111), 2).len(), 6);
        assert_eq!(multisets_from_set(ls(0b1), 4).len(), 1);
        assert_eq!(multisets_from_set(ls(0b111), 0).len(), 1);
    }

    #[test]
    fn expansion_size_counts_before_dedup() {
        // [AB]^2 C: C(3,2) · 1 = 3, all distinct.
        let line = Line::new(vec![(ls(0b011), 2), (ls(0b100), 1)]).unwrap();
        assert_eq!(expansion_size(line.groups()), 3);
        assert_eq!(line.expand().len(), 3);
        // [AB] [ABC]: 2 · 3 = 6 choices; AB arises twice, so 5 remain.
        let overlap = Line::new(vec![(ls(0b011), 1), (ls(0b111), 1)]).unwrap();
        assert_eq!(expansion_size(overlap.groups()), 6);
        assert_eq!(overlap.expand().len(), 5);
        // Unmerged parser tokens count as their merged line.
        assert_eq!(expansion_size(&[(ls(0b011), 1), (ls(0b011), 1)]), 3);
        // 16 labels, exponent 12: C(27, 12) = 17,383,860.
        assert_eq!(expansion_size(&[(ls(0xffff), 12)]), 17_383_860);
        // Astronomical exponents saturate instead of overflowing.
        assert_eq!(expansion_size(&[(ls(0x7fff_ffff), u32::MAX)]), u128::MAX);
        assert_eq!(expansion_size(&[(ls(1), u32::MAX)]), 1);
    }

    #[test]
    fn display_forms() {
        let alpha = Alphabet::new(&["M", "P", "O"]).unwrap();
        let line = Line::new(vec![(ls(0b001), 2), (ls(0b110), 1)]).unwrap();
        assert_eq!(line.display(&alpha), "M^2 [P O]");
    }
}
