//! Labels and alphabets.
//!
//! A [`Label`] is an index into an [`Alphabet`], which owns the human-readable
//! names. The engine supports at most 31 labels so that sets of labels fit in
//! a `u32` bitmask ([`crate::LabelSet`]).

use crate::error::{RelimError, Result};
use std::fmt;

/// Maximum number of labels an [`Alphabet`] may hold.
///
/// Label sets are represented as `u32` bitmasks, and one bit is reserved so
/// that iteration helpers never overflow.
pub const MAX_LABELS: usize = 31;

/// A label of a locally checkable problem, represented as an index into an
/// [`Alphabet`].
///
/// # Example
///
/// ```
/// use relim_core::{Alphabet, Label};
///
/// let alpha = Alphabet::new(&["M", "P", "O"]).unwrap();
/// let m = alpha.label("M").unwrap();
/// assert_eq!(m, Label::new(0));
/// assert_eq!(alpha.name(m), "M");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Label(u8);

impl Label {
    /// Creates a label from its raw index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 31`; labels beyond [`MAX_LABELS`] are unsupported.
    pub fn new(index: u8) -> Self {
        assert!((index as usize) < MAX_LABELS, "label index {index} exceeds MAX_LABELS");
        Label(index)
    }

    /// The raw index of this label within its alphabet.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The raw index as `u8`.
    pub fn raw(self) -> u8 {
        self.0
    }
}

/// The default label is index 0 — the filler value for the unused tail of
/// inline [`crate::inline_vec::InlineVec`] buffers (never observed through
/// the slice views).
impl Default for Label {
    fn default() -> Self {
        Label(0)
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// An interned set of label names.
///
/// Alphabets are immutable after construction; constraints and problems refer
/// to labels by [`Label`] index.
///
/// # Example
///
/// ```
/// use relim_core::Alphabet;
///
/// let alpha = Alphabet::new(&["M", "P", "O", "A", "X"]).unwrap();
/// assert_eq!(alpha.len(), 5);
/// assert_eq!(alpha.name(alpha.label("A").unwrap()), "A");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Alphabet {
    names: Vec<String>,
}

impl Alphabet {
    /// Creates an alphabet from a list of distinct names.
    ///
    /// # Errors
    ///
    /// Returns [`RelimError::TooManyLabels`] if more than 31 names are given
    /// and [`RelimError::DuplicateLabel`] if a name repeats.
    pub fn new<S: AsRef<str>>(names: &[S]) -> Result<Self> {
        if names.len() > MAX_LABELS {
            return Err(RelimError::TooManyLabels { requested: names.len(), limit: MAX_LABELS });
        }
        // At most 31 names: a linear duplicate scan beats hashing a copy
        // of every name.
        let mut owned: Vec<String> = Vec::with_capacity(names.len());
        for n in names {
            let n = n.as_ref();
            if owned.iter().any(|o| o == n) {
                return Err(RelimError::DuplicateLabel { name: n.to_owned() });
            }
            owned.push(n.to_owned());
        }
        Ok(Alphabet { names: owned })
    }

    /// Number of labels in the alphabet.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the alphabet has no labels.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Looks up a label by name.
    ///
    /// # Errors
    ///
    /// Returns [`RelimError::UnknownLabel`] if the name is not interned.
    pub fn label(&self, name: &str) -> Result<Label> {
        self.names
            .iter()
            .position(|n| n == name)
            .map(|i| Label(i as u8))
            .ok_or_else(|| RelimError::UnknownLabel { name: name.to_owned() })
    }

    /// The name of a label.
    ///
    /// # Panics
    ///
    /// Panics if the label is out of range for this alphabet.
    pub fn name(&self, label: Label) -> &str {
        &self.names[label.index()]
    }

    /// Iterates over all labels of the alphabet, in index order.
    pub fn labels(&self) -> impl Iterator<Item = Label> + '_ {
        (0..self.names.len()).map(|i| Label(i as u8))
    }

    /// All names, in index order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Whether every name is a single character (enables compact rendering
    /// of label sets such as `MPX`).
    pub fn all_single_char(&self) -> bool {
        self.names.iter().all(|n| n.chars().count() == 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_and_lookup() {
        let a = Alphabet::new(&["M", "P", "O"]).unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(a.label("P").unwrap(), Label::new(1));
        assert_eq!(a.name(Label::new(2)), "O");
        assert!(a.label("Z").is_err());
    }

    #[test]
    fn duplicate_rejected() {
        let err = Alphabet::new(&["M", "M"]).unwrap_err();
        assert!(matches!(err, RelimError::DuplicateLabel { .. }));
    }

    #[test]
    fn too_many_rejected() {
        let names: Vec<String> = (0..32).map(|i| format!("L{i}")).collect();
        let err = Alphabet::new(&names).unwrap_err();
        assert!(matches!(err, RelimError::TooManyLabels { requested: 32, limit: 31 }));
        assert_eq!(err.to_string(), "alphabet of 32 labels exceeds the limit of 31");
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_LABELS")]
    fn label_index_out_of_range_panics() {
        let _ = Label::new(31);
    }

    #[test]
    fn single_char_detection() {
        assert!(Alphabet::new(&["M", "X"]).unwrap().all_single_char());
        assert!(!Alphabet::new(&["M", "XY"]).unwrap().all_single_char());
    }
}
