//! Constraints: explicit sets of configurations of a fixed degree.

use crate::config::Config;
use crate::error::{RelimError, Result};
use crate::label::{Alphabet, Label};
use crate::labelset::LabelSet;
use crate::line::Line;
use std::collections::BTreeSet;
use std::fmt;

/// A node or edge constraint: a non-empty set of [`Config`]s sharing one
/// degree.
///
/// Constraints are stored *explicitly* (every configuration enumerated);
/// condensed [`Line`]s are a construction and display format. This keeps the
/// engine operations simple and exactly faithful to the definitions in the
/// paper (§2.3) at the price of memory — acceptable because the paper's
/// problems use ≤ 8 labels.
///
/// # Example
///
/// ```
/// use relim_core::{Alphabet, Config, Constraint, Line, LabelSet};
///
/// let alpha = Alphabet::new(&["M", "P", "O"]).unwrap();
/// let m = alpha.label("M").unwrap();
/// let p = alpha.label("P").unwrap();
/// let o = alpha.label("O").unwrap();
///
/// // MIS node constraint for Δ=3: { MMM, POO }.
/// let n = Constraint::from_configs(vec![
///     Config::new(vec![m, m, m]),
///     Config::new(vec![p, o, o]),
/// ]).unwrap();
/// assert_eq!(n.degree(), 3);
/// assert_eq!(n.len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Constraint {
    degree: u32,
    configs: BTreeSet<Config>,
}

impl Constraint {
    /// Builds a constraint from explicit configurations.
    ///
    /// # Errors
    ///
    /// Returns [`RelimError::EmptyConstraint`] when no configurations are
    /// given, or [`RelimError::WrongDegree`] when degrees disagree.
    pub fn from_configs<I: IntoIterator<Item = Config>>(configs: I) -> Result<Self> {
        let mut set = BTreeSet::new();
        let mut degree: Option<u32> = None;
        for cfg in configs {
            match degree {
                None => degree = Some(cfg.degree()),
                Some(d) if d != cfg.degree() => {
                    return Err(RelimError::WrongDegree { expected: d, found: cfg.degree() })
                }
                _ => {}
            }
            set.insert(cfg);
        }
        let degree = degree.ok_or(RelimError::EmptyConstraint)?;
        Ok(Constraint { degree, configs: set })
    }

    /// Builds a constraint by expanding condensed [`Line`]s.
    ///
    /// # Errors
    ///
    /// Propagates degree mismatches between lines and rejects empty input.
    pub fn from_lines(lines: &[Line]) -> Result<Self> {
        if lines.is_empty() {
            return Err(RelimError::EmptyConstraint);
        }
        let degree = lines[0].degree();
        let mut set = BTreeSet::new();
        for line in lines {
            if line.degree() != degree {
                return Err(RelimError::WrongDegree { expected: degree, found: line.degree() });
            }
            set.extend(line.expand());
        }
        Ok(Constraint { degree, configs: set })
    }

    /// Common degree of all configurations.
    pub fn degree(&self) -> u32 {
        self.degree
    }

    /// Number of configurations.
    pub fn len(&self) -> usize {
        self.configs.len()
    }

    /// Whether the constraint is empty (never true for validated values).
    pub fn is_empty(&self) -> bool {
        self.configs.is_empty()
    }

    /// Membership test.
    pub fn contains(&self, config: &Config) -> bool {
        self.configs.contains(config)
    }

    /// Iterates over the configurations in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = &Config> + '_ {
        self.configs.iter()
    }

    /// The set of labels appearing in at least one configuration.
    pub fn support(&self) -> LabelSet {
        self.configs.iter().fold(LabelSet::EMPTY, |acc, c| acc.union(c.support()))
    }

    /// Remaps all labels through `mapping`.
    ///
    /// # Panics
    ///
    /// Panics if a used label has no entry in `mapping`.
    #[must_use]
    pub fn map_labels(&self, mapping: &[Label]) -> Constraint {
        Constraint {
            degree: self.degree,
            configs: self.configs.iter().map(|c| c.map_labels(mapping)).collect(),
        }
    }

    /// Builds the *sub-multiset index*: every sub-multiset (of every size) of
    /// every configuration. Used by the universal-quantification step of
    /// round elimination to prune partial choices, and by checkers to define
    /// the constraint on nodes of degree `< Δ`.
    pub fn sub_multiset_index(&self) -> SubMultisetIndex {
        let repr = match PackedIndex::weights(self.degree, self.support()) {
            Some(weights) => IndexRepr::Packed(PackedIndex::build(weights, &self.configs)),
            None => {
                IndexRepr::Configs(self.configs.iter().flat_map(Config::sub_multisets).collect())
            }
        };
        SubMultisetIndex { degree: self.degree, repr }
    }

    /// Renders each configuration on its own line using alphabet names.
    pub fn display(&self, alphabet: &Alphabet) -> String {
        let mut out = String::new();
        self.write_display(alphabet, &mut out);
        out
    }

    /// Appends [`Constraint::display`]'s rendering to `out`.
    pub(crate) fn write_display(&self, alphabet: &Alphabet, out: &mut String) {
        for (i, config) in self.configs.iter().enumerate() {
            if i > 0 {
                out.push('\n');
            }
            config.write_display(alphabet, out);
        }
    }
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Constraint(degree={}, {} configs)", self.degree, self.configs.len())
    }
}

/// Index of all sub-multisets of a constraint's configurations.
///
/// `contains(c)` answers "can `c` be extended to a full configuration?",
/// which is both the pruning test inside the `R̄`/`R` universal steps and the
/// node-constraint semantics for non-full-degree nodes (e.g. tree leaves).
///
/// A sub-multiset is stored as one `u64` key, `Σ count(l)·(Δ+1)^l` over the
/// labels up to the highest one in the constraint's support; no count
/// exceeds `Δ`, so the mixed-radix encoding is exact (see DESIGN.md, "The
/// sub-multiset index"). Constraints whose `(Δ+1)^n` overflows `u64` keep
/// the configurations themselves in a hash set instead.
#[derive(Debug, Clone)]
pub struct SubMultisetIndex {
    degree: u32,
    repr: IndexRepr,
}

#[derive(Debug, Clone)]
enum IndexRepr {
    Packed(PackedIndex),
    Configs(std::collections::HashSet<Config>),
}

impl SubMultisetIndex {
    /// Whether `config` is a sub-multiset of some full configuration.
    pub fn contains(&self, config: &Config) -> bool {
        // Length guard: a probe longer than Δ is never a sub-multiset, and
        // rejecting it keeps every count ≤ Δ, so no digit of the packed
        // key can carry into the next label's (`A A A` must not read as
        // one `B` at Δ = 2).
        if config.degree() > self.degree {
            return false;
        }
        match &self.repr {
            IndexRepr::Packed(packed) => packed.contains(config),
            IndexRepr::Configs(set) => set.contains(config),
        }
    }

    /// Degree of the underlying constraint.
    pub fn degree(&self) -> u32 {
        self.degree
    }

    /// Number of distinct sub-multisets indexed.
    pub fn len(&self) -> usize {
        match &self.repr {
            IndexRepr::Packed(packed) => packed.len,
            IndexRepr::Configs(set) => set.len(),
        }
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Open-addressed (linear probing, load ≤ 1/2) set of packed sub-multiset
/// keys. `u64::MAX` marks a free slot: every key is below `(Δ+1)^n`, which
/// [`PackedIndex::weights`] only accepts when it fits in a `u64`.
#[derive(Debug, Clone)]
struct PackedIndex {
    /// `weights[l] = (Δ+1)^l` for every label up to the highest in the
    /// support; a probe using a later label is outside the index.
    weights: Vec<u64>,
    slots: Vec<u64>,
    len: usize,
}

impl PackedIndex {
    const FREE: u64 = u64::MAX;
    const MIN_SLOTS: usize = 16;

    /// The digit weights for a constraint of degree `degree` over `support`,
    /// or `None` when `(Δ+1)^n` (`n` = highest support label + 1)
    /// overflows `u64`.
    fn weights(degree: u32, support: LabelSet) -> Option<Vec<u64>> {
        let n = 32 - support.bits().leading_zeros();
        let base = u64::from(degree) + 1;
        base.checked_pow(n)?;
        Some((0..n).map(|l| base.pow(l)).collect())
    }

    /// Inserts the key of every sub-multiset of every configuration,
    /// walking each configuration's label runs as a mixed-radix odometer
    /// (digit `i` runs over `0..=count_i`), so no sub-multiset is ever
    /// materialized as a [`Config`].
    fn build(weights: Vec<u64>, configs: &BTreeSet<Config>) -> Self {
        let mut index = PackedIndex { weights, slots: vec![Self::FREE; Self::MIN_SLOTS], len: 0 };
        // (weight, count, digit) per label run, reused across configurations.
        let mut runs: Vec<(u64, u32, u32)> = Vec::new();
        for cfg in configs {
            runs.clear();
            let labels = cfg.as_slice();
            for (i, l) in labels.iter().enumerate() {
                match runs.last_mut() {
                    Some((_, count, _)) if i > 0 && labels[i - 1] == *l => *count += 1,
                    _ => runs.push((index.weights[l.index()], 1, 0)),
                }
            }
            let mut key = 0u64;
            'odometer: loop {
                index.insert(key);
                for (w, count, digit) in runs.iter_mut() {
                    if *digit < *count {
                        *digit += 1;
                        key += *w;
                        continue 'odometer;
                    }
                    key -= u64::from(*digit) * *w;
                    *digit = 0;
                }
                break;
            }
        }
        index
    }

    /// The packed key of `config`, or `None` when it uses a label past the
    /// support (the caller has already bounded its length by Δ).
    fn key(&self, config: &Config) -> Option<u64> {
        config.iter().try_fold(0u64, |key, l| Some(key + *self.weights.get(l.index())?))
    }

    fn contains(&self, config: &Config) -> bool {
        self.key(config).is_some_and(|key| self.slots[self.find(key)] == key)
    }

    /// The slot holding `key`, or the free slot where it would go.
    fn find(&self, key: u64) -> usize {
        let mask = self.slots.len() - 1;
        // Fibonacci hashing: the top bits of `key · 2^64/φ`.
        let shift = 64 - self.slots.len().trailing_zeros();
        let mut i = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as usize;
        while self.slots[i] != key && self.slots[i] != Self::FREE {
            i = (i + 1) & mask;
        }
        i
    }

    fn insert(&mut self, key: u64) {
        let i = self.find(key);
        if self.slots[i] == key {
            return;
        }
        self.slots[i] = key;
        self.len += 1;
        if self.len * 2 > self.slots.len() {
            let grown = vec![Self::FREE; self.slots.len() * 2];
            let old = std::mem::replace(&mut self.slots, grown);
            for key in old.into_iter().filter(|&k| k != Self::FREE) {
                let j = self.find(key);
                self.slots[j] = key;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(i: u8) -> Label {
        Label::new(i)
    }

    #[test]
    fn from_configs_validates_degree() {
        let err =
            Constraint::from_configs(vec![Config::new(vec![l(0), l(0)]), Config::new(vec![l(0)])])
                .unwrap_err();
        assert!(matches!(err, RelimError::WrongDegree { expected: 2, found: 1 }));
    }

    #[test]
    fn empty_rejected() {
        assert!(matches!(
            Constraint::from_configs(Vec::<Config>::new()),
            Err(RelimError::EmptyConstraint)
        ));
    }

    #[test]
    fn from_lines_expands_and_dedups() {
        let ls01 = LabelSet::from_bits(0b011);
        let line1 = Line::new(vec![(ls01, 2)]).unwrap();
        let line2 = Line::new(vec![(LabelSet::from_bits(0b001), 2)]).unwrap();
        let c = Constraint::from_lines(&[line1, line2]).unwrap();
        // Line 1 expands to {AA, AB, BB}; line 2 to {AA} (duplicate).
        assert_eq!(c.len(), 3);
        assert!(c.contains(&Config::new(vec![l(0), l(1)])));
    }

    #[test]
    fn support_union() {
        let c = Constraint::from_configs(vec![
            Config::new(vec![l(0), l(2)]),
            Config::new(vec![l(1), l(1)]),
        ])
        .unwrap();
        assert_eq!(c.support(), LabelSet::from_bits(0b111));
    }

    #[test]
    fn sub_multiset_index_semantics() {
        let c = Constraint::from_configs(vec![Config::new(vec![l(0), l(0), l(1)])]).unwrap();
        let idx = c.sub_multiset_index();
        assert!(idx.contains(&Config::empty()));
        assert!(idx.contains(&Config::new(vec![l(0), l(1)])));
        assert!(idx.contains(&Config::new(vec![l(0), l(0), l(1)])));
        assert!(!idx.contains(&Config::new(vec![l(1), l(1)])));
    }

    #[test]
    fn map_labels_merges() {
        let c = Constraint::from_configs(vec![
            Config::new(vec![l(0), l(1)]),
            Config::new(vec![l(1), l(0)]),
        ])
        .unwrap();
        let mapped = c.map_labels(&[l(0), l(0)]);
        assert_eq!(mapped.len(), 1);
        assert!(mapped.contains(&Config::new(vec![l(0), l(0)])));
    }
}
