//! Locally checkable problems: alphabet + node constraint + edge constraint.

use crate::constraint::Constraint;
use crate::error::{RelimError, Result};
use crate::label::{Alphabet, Label};
use crate::labelset::LabelSet;
use std::fmt;

/// A locally checkable problem in the round elimination formalism
/// (paper §2.2): an alphabet Σ, a node constraint `N` of degree Δ, and an
/// edge constraint `E` of degree 2.
///
/// # Example
///
/// ```
/// use relim_core::Problem;
///
/// // MIS with Δ = 3 (paper §2.2): N = {M³, PO²}, E = {M[PO], OO}.
/// let mis = Problem::from_text("M M M\nP O O", "M [P O]\nO O").unwrap();
/// assert_eq!(mis.delta(), 3);
/// assert_eq!(mis.alphabet().len(), 3);
/// assert_eq!(mis.node().len(), 2);
/// assert_eq!(mis.edge().len(), 3); // MP, MO, OO
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Problem {
    alphabet: Alphabet,
    node: Constraint,
    edge: Constraint,
}

impl Problem {
    /// Creates a problem, validating that the edge constraint has degree 2
    /// and that all labels are within the alphabet.
    ///
    /// # Errors
    ///
    /// Returns [`RelimError::WrongDegree`] if the edge constraint's degree is
    /// not 2, or [`RelimError::LabelOutOfRange`] if a constraint mentions a
    /// label outside the alphabet.
    pub fn new(alphabet: Alphabet, node: Constraint, edge: Constraint) -> Result<Self> {
        if edge.degree() != 2 {
            return Err(RelimError::WrongDegree { expected: 2, found: edge.degree() });
        }
        let full = LabelSet::full(alphabet.len());
        for (name, c) in [("node", &node), ("edge", &edge)] {
            let sup = c.support();
            if !sup.is_subset_of(full) {
                let bad = sup.difference(full).first().expect("non-empty difference");
                let _ = name;
                return Err(RelimError::LabelOutOfRange {
                    index: bad.raw(),
                    alphabet_len: alphabet.len(),
                });
            }
        }
        Ok(Problem { alphabet, node, edge })
    }

    /// Parses a problem from the text format of [`crate::parse`]: one
    /// condensed configuration per non-empty line, alphabet inferred from the
    /// order of first appearance.
    ///
    /// # Errors
    ///
    /// Propagates parse errors and validation failures.
    pub fn from_text(node_text: &str, edge_text: &str) -> Result<Self> {
        crate::parse::parse_problem(node_text, edge_text)
    }

    /// The alphabet.
    pub fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    /// The node constraint.
    pub fn node(&self) -> &Constraint {
        &self.node
    }

    /// The edge constraint.
    pub fn edge(&self) -> &Constraint {
        &self.edge
    }

    /// The degree Δ of the node constraint.
    pub fn delta(&self) -> u32 {
        self.node.degree()
    }

    /// Labels that appear in at least one constraint.
    pub fn used_labels(&self) -> LabelSet {
        self.node.support().union(self.edge.support())
    }

    /// Pairwise edge-compatibility: `compat[a]` is the set of labels `b` such
    /// that the configuration `a b` is in the edge constraint.
    pub fn edge_compat(&self) -> Vec<LabelSet> {
        let n = self.alphabet.len();
        let mut compat = vec![LabelSet::EMPTY; n];
        for cfg in self.edge.iter() {
            let s = cfg.as_slice();
            let (a, b) = (s[0], s[1]);
            compat[a.index()] = compat[a.index()].with(b);
            compat[b.index()] = compat[b.index()].with(a);
        }
        compat
    }

    /// Returns an equivalent problem whose alphabet contains only used
    /// labels, together with the mapping `old label -> new label`.
    pub fn drop_unused_labels(&self) -> (Problem, Vec<Option<Label>>) {
        let used = self.used_labels();
        let mut mapping: Vec<Option<Label>> = vec![None; self.alphabet.len()];
        let mut names = Vec::new();
        for l in used.iter() {
            mapping[l.index()] = Some(Label::new(names.len() as u8));
            names.push(self.alphabet.name(l).to_owned());
        }
        let dense: Vec<Label> = mapping.iter().map(|m| m.unwrap_or(Label::new(0))).collect();
        let alphabet = Alphabet::new(&names).expect("subset of valid alphabet");
        let node = self.node.map_labels(&dense);
        let edge = self.edge.map_labels(&dense);
        let p = Problem::new(alphabet, node, edge).expect("renaming preserves validity");
        (p, mapping)
    }

    /// Renames labels through a bijection `mapping[old] = new`, with the new
    /// alphabet supplied by the caller.
    ///
    /// # Errors
    ///
    /// Returns an error if the mapping is not a bijection onto the new
    /// alphabet's indices.
    pub fn rename(&self, mapping: &[Label], new_alphabet: Alphabet) -> Result<Problem> {
        if mapping.len() != self.alphabet.len() || new_alphabet.len() != self.alphabet.len() {
            return Err(RelimError::InvalidParameter {
                message: "rename requires a bijection between equal-size alphabets".into(),
            });
        }
        let mut seen = vec![false; new_alphabet.len()];
        for &m in mapping {
            if m.index() >= new_alphabet.len() || seen[m.index()] {
                return Err(RelimError::InvalidParameter {
                    message: "rename mapping is not a bijection".into(),
                });
            }
            seen[m.index()] = true;
        }
        Problem::new(new_alphabet, self.node.map_labels(mapping), self.edge.map_labels(mapping))
    }

    /// Whether two problems are *semantically equal*: same alphabet size and
    /// identical constraint sets under the identity labeling.
    ///
    /// Use [`crate::iso::find_isomorphism`] for equality up to renaming.
    pub fn semantically_equal(&self, other: &Problem) -> bool {
        self.alphabet.len() == other.alphabet.len()
            && self.node == *other.node()
            && self.edge == *other.edge()
    }

    /// Multi-line human-readable rendering of both constraints.
    pub fn render(&self) -> String {
        let mut out = format!("N (degree {}):\n", self.delta());
        self.node.write_display(&self.alphabet, &mut out);
        out.push_str("\n\nE:\n");
        self.edge.write_display(&self.alphabet, &mut out);
        out
    }
}

impl fmt::Display for Problem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Problem(Δ={}, |Σ|={}, |N|={}, |E|={})",
            self.delta(),
            self.alphabet.len(),
            self.node.len(),
            self.edge.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;

    fn l(i: u8) -> Label {
        Label::new(i)
    }

    fn mis3() -> Problem {
        Problem::from_text("M M M\nP O O", "M [P O]\nO O").unwrap()
    }

    #[test]
    fn mis_shape() {
        let p = mis3();
        assert_eq!(p.delta(), 3);
        assert_eq!(p.node().len(), 2);
        assert_eq!(p.edge().len(), 3);
    }

    #[test]
    fn edge_degree_validated() {
        let alpha = Alphabet::new(&["A"]).unwrap();
        let c3 = Constraint::from_configs(vec![Config::new(vec![l(0), l(0), l(0)])]).unwrap();
        let err = Problem::new(alpha, c3.clone(), c3).unwrap_err();
        assert!(matches!(err, RelimError::WrongDegree { expected: 2, found: 3 }));
    }

    #[test]
    fn labels_in_range_validated() {
        let alpha = Alphabet::new(&["A"]).unwrap();
        let node = Constraint::from_configs(vec![Config::new(vec![l(0), l(1)])]).unwrap();
        let edge = Constraint::from_configs(vec![Config::new(vec![l(0), l(0)])]).unwrap();
        let err = Problem::new(alpha, node, edge).unwrap_err();
        assert!(matches!(err, RelimError::LabelOutOfRange { index: 1, .. }));
    }

    #[test]
    fn edge_compat_matrix() {
        let p = mis3();
        let a = p.alphabet();
        let (m, pp, o) = (a.label("M").unwrap(), a.label("P").unwrap(), a.label("O").unwrap());
        let compat = p.edge_compat();
        assert!(compat[m.index()].contains(pp));
        assert!(compat[m.index()].contains(o));
        assert!(!compat[m.index()].contains(m));
        assert!(compat[o.index()].contains(o));
        assert!(!compat[pp.index()].contains(pp));
        assert!(!compat[pp.index()].contains(o));
    }

    #[test]
    fn drop_unused() {
        // Alphabet has an extra unused label Z.
        let alpha = Alphabet::new(&["A", "Z", "B"]).unwrap();
        let node = Constraint::from_configs(vec![Config::new(vec![l(0), l(2)])]).unwrap();
        let edge = Constraint::from_configs(vec![Config::new(vec![l(0), l(2)])]).unwrap();
        let p = Problem::new(alpha, node, edge).unwrap();
        let (q, mapping) = p.drop_unused_labels();
        assert_eq!(q.alphabet().len(), 2);
        assert_eq!(q.alphabet().names(), &["A".to_owned(), "B".to_owned()]);
        assert!(mapping[1].is_none());
    }

    #[test]
    fn rename_roundtrip() {
        let p = mis3();
        // Swap P and O.
        let mapping = vec![l(0), l(2), l(1)];
        let new_alpha = Alphabet::new(&["M", "O", "P"]).unwrap();
        let q = p.rename(&mapping, new_alpha).unwrap();
        let back = q.rename(&mapping, p.alphabet().clone()).unwrap();
        assert!(p.semantically_equal(&back));
    }
}
