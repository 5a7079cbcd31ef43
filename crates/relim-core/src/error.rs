//! Error types for the round elimination engine.

use std::fmt;

/// Errors produced while constructing or manipulating problems.
///
/// # Example
///
/// ```
/// use relim_core::{Alphabet, RelimError};
///
/// let err = Alphabet::new(&(0..40).map(|i| format!("L{i}")).collect::<Vec<_>>())
///     .unwrap_err();
/// assert!(matches!(err, RelimError::TooManyLabels { .. }));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RelimError {
    /// An alphabet exceeds the label limit of the step that refused it:
    /// 31 for any [`crate::label::Alphabet`], 22 for `R` and the
    /// universal side ([`crate::roundelim::MAX_LABELS`]).
    TooManyLabels {
        /// Number of labels that was requested.
        requested: usize,
        /// The limit that refused it.
        limit: usize,
    },
    /// A label name appears twice in an alphabet.
    DuplicateLabel {
        /// The offending name.
        name: String,
    },
    /// A label name was not found in the alphabet.
    UnknownLabel {
        /// The offending name.
        name: String,
    },
    /// A configuration has the wrong number of labels for its constraint.
    WrongDegree {
        /// Degree the constraint expects.
        expected: u32,
        /// Degree that was supplied.
        found: u32,
    },
    /// A constraint was empty where a non-empty one is required.
    EmptyConstraint,
    /// A label index is out of range for the alphabet.
    LabelOutOfRange {
        /// The offending label index.
        index: u8,
        /// Size of the alphabet.
        alphabet_len: usize,
    },
    /// The text form of a constraint could not be parsed.
    Parse {
        /// Human-readable description of the parse failure.
        message: String,
    },
    /// The problem's parameters are outside the supported range.
    InvalidParameter {
        /// Human-readable description of the violated requirement.
        message: String,
    },
    /// A constraint's degree exceeds the universal-side limit of
    /// [`crate::roundelim::MAX_DEGREE`] positions.
    DegreeTooLarge {
        /// Degree of the offending constraint.
        degree: u32,
    },
    /// A round elimination step produced an empty constraint: the input
    /// problem is degenerate (e.g. a label required by the node constraint
    /// is compatible with nothing).
    DegenerateProblem {
        /// Which side collapsed.
        message: String,
    },
}

impl fmt::Display for RelimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelimError::TooManyLabels { requested, limit } => {
                write!(f, "alphabet of {requested} labels exceeds the limit of {limit}")
            }
            RelimError::DuplicateLabel { name } => {
                write!(f, "duplicate label name `{name}` in alphabet")
            }
            RelimError::UnknownLabel { name } => write!(f, "unknown label name `{name}`"),
            RelimError::WrongDegree { expected, found } => {
                write!(f, "configuration of degree {found} where {expected} was expected")
            }
            RelimError::EmptyConstraint => write!(f, "constraint must be non-empty"),
            RelimError::LabelOutOfRange { index, alphabet_len } => {
                write!(f, "label index {index} out of range for alphabet of {alphabet_len}")
            }
            RelimError::Parse { message } => write!(f, "parse error: {message}"),
            RelimError::InvalidParameter { message } => {
                write!(f, "invalid parameter: {message}")
            }
            RelimError::DegreeTooLarge { degree } => write!(
                f,
                "constraint degree {degree} exceeds the limit of {}",
                crate::roundelim::MAX_DEGREE
            ),
            RelimError::DegenerateProblem { message } => {
                write!(f, "degenerate problem: {message}")
            }
        }
    }
}

impl std::error::Error for RelimError {}

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, RelimError>;
