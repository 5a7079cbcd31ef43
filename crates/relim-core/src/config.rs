//! Configurations: multisets of labels (or label sets) of fixed length.

use crate::inline_vec::InlineVec;
use crate::label::{Alphabet, Label};
use crate::labelset::LabelSet;
use std::fmt;
use std::fmt::Write as _;

/// Inline capacity of a configuration: multisets of up to this many
/// elements (degree ≤ 8 — every paper instance has Δ ≤ 5) live entirely in
/// the value, with no heap allocation. Longer configurations spill to a
/// heap `Vec` transparently.
pub const INLINE_DEGREE: usize = 8;

/// A configuration: a multiset of labels of some fixed degree.
///
/// The order of elements does not matter (paper §2.2); the internal
/// representation is kept sorted so that equality and hashing are canonical.
/// Storage is inline up to [`INLINE_DEGREE`] labels ([`InlineVec`]), so the
/// hot-loop operations ([`Config::with`], [`Config::replace_one`], clones)
/// are allocation-free at paper degrees; all comparison traits read the
/// sorted slice, so the storage representation is unobservable.
///
/// # Example
///
/// ```
/// use relim_core::{Config, Label};
///
/// let c = Config::new(vec![Label::new(2), Label::new(0), Label::new(2)]);
/// assert_eq!(c.degree(), 3);
/// assert_eq!(c.count(Label::new(2)), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Config {
    labels: InlineVec<Label, INLINE_DEGREE>,
}

impl Config {
    /// Creates a configuration from labels (sorted internally).
    pub fn new(labels: Vec<Label>) -> Self {
        let mut labels = InlineVec::from_vec(labels);
        labels.as_mut_slice().sort_unstable();
        Config { labels }
    }

    /// Creates a configuration from a slice of labels (sorted internally)
    /// without allocating for degrees up to [`INLINE_DEGREE`].
    pub fn from_labels(labels: &[Label]) -> Self {
        let mut labels = InlineVec::from_slice(labels);
        labels.as_mut_slice().sort_unstable();
        Config { labels }
    }

    /// The empty configuration (degree 0).
    pub fn empty() -> Self {
        Config { labels: InlineVec::new() }
    }

    /// The configuration holding a single label (allocation-free).
    pub fn singleton(label: Label) -> Self {
        let mut labels = InlineVec::new();
        labels.push(label);
        Config { labels }
    }

    /// Number of labels (with multiplicity).
    pub fn degree(&self) -> u32 {
        self.labels.len() as u32
    }

    /// The sorted labels.
    pub fn as_slice(&self) -> &[Label] {
        self.labels.as_slice()
    }

    /// Iterates over the labels (with multiplicity, sorted).
    pub fn iter(&self) -> impl Iterator<Item = Label> + '_ {
        self.labels.iter()
    }

    /// Multiplicity of `label` in the configuration.
    ///
    /// Exploits the sorted invariant: the multiplicity is the width of the
    /// equal range, found by two binary searches instead of a linear scan.
    pub fn count(&self, label: Label) -> u32 {
        let s = self.labels.as_slice();
        (s.partition_point(|&l| l <= label) - s.partition_point(|&l| l < label)) as u32
    }

    /// Whether the configuration contains `label` at least once.
    pub fn contains(&self, label: Label) -> bool {
        self.labels.as_slice().binary_search(&label).is_ok()
    }

    /// The set of distinct labels used.
    pub fn support(&self) -> LabelSet {
        self.labels.iter().collect()
    }

    /// Distinct labels with their multiplicities, sorted by label.
    pub fn counts(&self) -> Vec<(Label, u32)> {
        let mut out: Vec<(Label, u32)> = Vec::new();
        for l in self.labels.iter() {
            match out.last_mut() {
                Some((last, c)) if *last == l => *c += 1,
                _ => out.push((l, 1)),
            }
        }
        out
    }

    /// Returns a copy with one occurrence of `from` replaced by `to`.
    ///
    /// Returns `None` if `from` does not occur. This is the elementary
    /// operation of the strength relation (paper §2.3).
    #[must_use]
    pub fn replace_one(&self, from: Label, to: Label) -> Option<Config> {
        let pos = self.labels.as_slice().iter().position(|&l| l == from)?;
        let mut labels = self.labels.clone();
        labels.as_mut_slice()[pos] = to;
        labels.as_mut_slice().sort_unstable();
        Some(Config { labels })
    }

    /// Returns a copy with `label` appended (allocation-free below the
    /// inline capacity).
    #[must_use]
    pub fn with(&self, label: Label) -> Config {
        let mut labels = self.labels.clone();
        let pos = labels.as_slice().partition_point(|&l| l <= label);
        labels.insert(pos, label);
        Config { labels }
    }

    /// Whether `self` is a sub-multiset of `other`.
    pub fn is_sub_multiset_of(&self, other: &Config) -> bool {
        let mine = self.labels.as_slice();
        let theirs = other.labels.as_slice();
        if mine.len() > theirs.len() {
            return false;
        }
        // Both sorted: two-pointer containment.
        let mut j = 0;
        for &l in mine {
            while j < theirs.len() && theirs[j] < l {
                j += 1;
            }
            if j >= theirs.len() || theirs[j] != l {
                return false;
            }
            j += 1;
        }
        true
    }

    /// All sub-multisets of `self` (of every size, including empty and full).
    pub fn sub_multisets(&self) -> Vec<Config> {
        let counts = self.counts();
        let mut out = vec![Config::empty()];
        for (label, c) in counts {
            let mut next = Vec::with_capacity(out.len() * (c as usize + 1));
            for cfg in &out {
                let mut cur = cfg.clone();
                next.push(cur.clone());
                for _ in 0..c {
                    cur = cur.with(label);
                    next.push(cur.clone());
                }
            }
            out = next;
        }
        out
    }

    /// Remaps every label through `mapping` (indexed by old label).
    ///
    /// # Panics
    ///
    /// Panics if some label has no entry in `mapping`.
    #[must_use]
    pub fn map_labels(&self, mapping: &[Label]) -> Config {
        self.labels.iter().map(|l| mapping[l.index()]).collect()
    }

    /// Renders the configuration with alphabet names, compressing runs with
    /// exponents: `M^2 X`.
    pub fn display(&self, alphabet: &Alphabet) -> String {
        let mut out = String::new();
        self.write_display(alphabet, &mut out);
        out
    }

    /// Appends [`Config::display`]'s rendering to `out`.
    pub(crate) fn write_display(&self, alphabet: &Alphabet, out: &mut String) {
        let labels = self.labels.as_slice();
        let mut start = 0;
        while start < labels.len() {
            let label = labels[start];
            let end = start + labels[start..].partition_point(|&l| l == label);
            if start > 0 {
                out.push(' ');
            }
            out.push_str(alphabet.name(label));
            if end - start > 1 {
                let _ = write!(out, "^{}", end - start);
            }
            start = end;
        }
    }
}

impl FromIterator<Label> for Config {
    fn from_iter<I: IntoIterator<Item = Label>>(iter: I) -> Self {
        let mut labels: InlineVec<Label, INLINE_DEGREE> = iter.into_iter().collect();
        labels.as_mut_slice().sort_unstable();
        Config { labels }
    }
}

impl fmt::Display for Config {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, l) in self.labels.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{}", l.index())?;
        }
        Ok(())
    }
}

/// A configuration whose elements are *sets* of labels — the shape of
/// configurations midway through a round elimination step (paper §2.3).
///
/// # Example
///
/// ```
/// use relim_core::{Label, LabelSet, SetConfig};
///
/// let a = LabelSet::singleton(Label::new(0));
/// let b = a.with(Label::new(1));
/// let sc = SetConfig::new(vec![b, a]);
/// assert_eq!(sc.degree(), 2);
/// assert_eq!(sc.as_slice()[0], a); // sorted
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SetConfig {
    sets: InlineVec<LabelSet, INLINE_DEGREE>,
}

impl SetConfig {
    /// Creates a set-configuration (sorted internally by raw bitmask).
    pub fn new(sets: Vec<LabelSet>) -> Self {
        let mut sets = InlineVec::from_vec(sets);
        sets.as_mut_slice().sort_unstable();
        SetConfig { sets }
    }

    /// Creates a set-configuration from a slice (sorted internally) without
    /// allocating for degrees up to [`INLINE_DEGREE`] — the DFS-leaf
    /// constructor of the universal enumeration.
    pub fn from_sets(sets: &[LabelSet]) -> Self {
        let mut sets = InlineVec::from_slice(sets);
        sets.as_mut_slice().sort_unstable();
        SetConfig { sets }
    }

    /// Creates the degree-2 set-configuration `{a, b}` (allocation-free).
    pub fn pair(a: LabelSet, b: LabelSet) -> Self {
        SetConfig::from_sets(&[a, b])
    }

    /// Number of elements (with multiplicity).
    pub fn degree(&self) -> u32 {
        self.sets.len() as u32
    }

    /// The sorted sets.
    pub fn as_slice(&self) -> &[LabelSet] {
        self.sets.as_slice()
    }

    /// Iterates over the sets.
    pub fn iter(&self) -> impl Iterator<Item = LabelSet> + '_ {
        self.sets.iter()
    }

    /// Multiplicity of `set` in the configuration.
    ///
    /// Like [`Config::count`], exploits the sorted invariant: two binary
    /// searches bound the equal range.
    pub fn count(&self, set: LabelSet) -> u32 {
        let s = self.sets.as_slice();
        (s.partition_point(|&x| x <= set) - s.partition_point(|&x| x < set)) as u32
    }

    /// Renders with alphabet names, e.g. `MX^2 O`.
    pub fn display(&self, alphabet: &Alphabet) -> String {
        let sets = self.sets.as_slice();
        let mut parts: Vec<String> = Vec::new();
        let mut i = 0;
        while i < sets.len() {
            let mut j = i;
            while j < sets.len() && sets[j] == sets[i] {
                j += 1;
            }
            let name = sets[i].display(alphabet);
            if j - i == 1 {
                parts.push(name);
            } else {
                parts.push(format!("{}^{}", name, j - i));
            }
            i = j;
        }
        parts.join(" ")
    }
}

impl FromIterator<LabelSet> for SetConfig {
    fn from_iter<I: IntoIterator<Item = LabelSet>>(iter: I) -> Self {
        let mut sets: InlineVec<LabelSet, INLINE_DEGREE> = iter.into_iter().collect();
        sets.as_mut_slice().sort_unstable();
        SetConfig { sets }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(i: u8) -> Label {
        Label::new(i)
    }

    #[test]
    fn canonical_sorting() {
        let a = Config::new(vec![l(2), l(0), l(1)]);
        let b = Config::new(vec![l(0), l(1), l(2)]);
        assert_eq!(a, b);
    }

    #[test]
    fn counts_and_support() {
        let c = Config::new(vec![l(1), l(1), l(3)]);
        assert_eq!(c.counts(), vec![(l(1), 2), (l(3), 1)]);
        assert_eq!(c.support(), LabelSet::from_bits(0b1010));
        assert_eq!(c.count(l(1)), 2);
        assert_eq!(c.count(l(0)), 0);
    }

    #[test]
    fn count_equals_linear_scan_on_all_multiplicity_shapes() {
        // The equal-range binary search must agree with the naive filter
        // for every label, present or not, across runs of every length.
        let shapes: &[&[u8]] = &[
            &[],
            &[0],
            &[1, 1, 1],
            &[0, 1, 1, 3],
            &[2, 2, 2, 2, 2],
            &[0, 0, 1, 2, 3, 3, 3, 5],
            // Spilled: degree > INLINE_DEGREE.
            &[0, 0, 1, 1, 2, 2, 3, 3, 4, 4],
        ];
        for shape in shapes {
            let c = Config::new(shape.iter().map(|&i| l(i)).collect());
            for i in 0..8 {
                let naive = c.iter().filter(|&x| x == l(i)).count() as u32;
                assert_eq!(c.count(l(i)), naive, "shape {shape:?}, label {i}");
            }
        }
    }

    #[test]
    fn setconfig_count_equals_linear_scan() {
        let sets: Vec<LabelSet> = [0b1u32, 0b1, 0b11, 0b11, 0b11, 0b100]
            .iter()
            .map(|&b| LabelSet::from_bits(b))
            .collect();
        let sc = SetConfig::new(sets);
        for bits in [0b1u32, 0b11, 0b100, 0b101, 0b0] {
            let s = LabelSet::from_bits(bits);
            let naive = sc.iter().filter(|&x| x == s).count() as u32;
            assert_eq!(sc.count(s), naive, "set {bits:#b}");
        }
    }

    #[test]
    fn singleton_and_from_labels_match_new() {
        assert_eq!(Config::singleton(l(3)), Config::new(vec![l(3)]));
        assert_eq!(Config::from_labels(&[l(2), l(0)]), Config::new(vec![l(0), l(2)]));
        assert_eq!(
            SetConfig::from_sets(&[LabelSet::from_bits(2), LabelSet::from_bits(1)]),
            SetConfig::new(vec![LabelSet::from_bits(1), LabelSet::from_bits(2)])
        );
        assert_eq!(
            SetConfig::pair(LabelSet::from_bits(2), LabelSet::from_bits(1)),
            SetConfig::new(vec![LabelSet::from_bits(1), LabelSet::from_bits(2)])
        );
    }

    #[test]
    fn replace_one() {
        let c = Config::new(vec![l(0), l(0), l(2)]);
        let r = c.replace_one(l(0), l(2)).unwrap();
        assert_eq!(r, Config::new(vec![l(0), l(2), l(2)]));
        assert!(c.replace_one(l(1), l(2)).is_none());
    }

    #[test]
    fn sub_multiset() {
        let big = Config::new(vec![l(0), l(0), l(1)]);
        assert!(Config::new(vec![l(0), l(1)]).is_sub_multiset_of(&big));
        assert!(Config::new(vec![l(0), l(0)]).is_sub_multiset_of(&big));
        assert!(!Config::new(vec![l(1), l(1)]).is_sub_multiset_of(&big));
        assert!(Config::empty().is_sub_multiset_of(&big));
        assert!(!big.is_sub_multiset_of(&Config::new(vec![l(0), l(1)])));
    }

    #[test]
    fn sub_multisets_enumeration() {
        let c = Config::new(vec![l(0), l(0), l(1)]);
        let subs = c.sub_multisets();
        // (2+1)*(1+1) = 6 sub-multisets.
        assert_eq!(subs.len(), 6);
        assert!(subs.contains(&Config::empty()));
        assert!(subs.contains(&c));
    }

    #[test]
    fn display_exponents() {
        let alpha = Alphabet::new(&["M", "P", "O"]).unwrap();
        let c = Config::new(vec![l(0), l(0), l(2)]);
        assert_eq!(c.display(&alpha), "M^2 O");
    }

    #[test]
    fn setconfig_sorted() {
        let s1 = LabelSet::from_bits(0b1);
        let s2 = LabelSet::from_bits(0b11);
        let sc = SetConfig::new(vec![s2, s1, s2]);
        assert_eq!(sc.as_slice(), &[s1, s2, s2]);
    }
}
