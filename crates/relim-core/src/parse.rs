//! Text format for constraints and problems.
//!
//! The grammar, one condensed configuration per non-empty line:
//!
//! ```text
//! line    := token+
//! token   := atom exponent?
//! atom    := NAME | '[' NAME+ ']'
//! exponent:= '^' UINT
//! NAME    := [A-Za-z0-9_'+-]+
//! ```
//!
//! Examples: `M M M`, `P O^2`, `M [P O]`, `[M X]^3 A`.
//! Lines starting with `#` are comments.

use crate::config::Config;
use crate::constraint::Constraint;
use crate::error::{RelimError, Result};
use crate::label::{Alphabet, Label, MAX_LABELS};
use crate::labelset::LabelSet;
use crate::line::{self, Line};
use crate::problem::Problem;
use std::ops::Range;

fn is_name_char(c: char) -> bool {
    c.is_alphanumeric() || matches!(c, '_' | '\'' | '+' | '-')
}

/// The tokens of one line, borrowed from its text. `names` holds every
/// name in order; each token is the end of its names in `names` plus its
/// exponent. Reused from line to line, so tokenizing allocates only while
/// the buffers grow.
#[derive(Debug, Default)]
struct LineTokens<'a> {
    names: Vec<&'a str>,
    tokens: Vec<(usize, u32)>,
}

impl<'a> LineTokens<'a> {
    /// Each token's names with its exponent.
    fn iter(&self) -> impl Iterator<Item = (&[&'a str], u32)> + '_ {
        let mut start = 0;
        self.tokens.iter().map(move |&(end, mult)| {
            let names = &self.names[start..end];
            start = end;
            (names, mult)
        })
    }
}

/// Tokenizes one line into `out`, replacing its previous contents.
fn tokenize_line<'a>(line: &'a str, out: &mut LineTokens<'a>) -> Result<()> {
    out.names.clear();
    out.tokens.clear();
    let fail = |message: String| Err(RelimError::Parse { message });
    let skip_space = |pos: usize| line.len() - line[pos..].trim_start().len();
    let name_end =
        |pos: usize| line[pos..].find(|c| !is_name_char(c)).map_or(line.len(), |n| pos + n);
    let mut pos = skip_space(0);
    while let Some(c) = line[pos..].chars().next() {
        if c == '[' {
            pos += 1;
            let first = out.names.len();
            loop {
                pos = skip_space(pos);
                match line[pos..].chars().next() {
                    Some(']') => {
                        pos += 1;
                        break;
                    }
                    Some(c) if is_name_char(c) => {
                        let end = name_end(pos);
                        out.names.push(&line[pos..end]);
                        pos = end;
                    }
                    other => {
                        return fail(format!("unexpected {other:?} inside disjunction in `{line}`"))
                    }
                }
            }
            if out.names.len() == first {
                return fail(format!("empty disjunction `[]` in `{line}`"));
            }
        } else if is_name_char(c) {
            let end = name_end(pos);
            out.names.push(&line[pos..end]);
            pos = end;
        } else {
            return fail(format!("unexpected character `{c}` in `{line}`"));
        }
        // Optional exponent.
        let mut mult = 1u32;
        if line[pos..].starts_with('^') {
            pos += 1;
            let end =
                line[pos..].find(|c: char| !c.is_ascii_digit()).map_or(line.len(), |n| pos + n);
            mult = match line[pos..end].parse() {
                Ok(mult) => mult,
                Err(_) => return fail(format!("bad exponent after `^` in `{line}`")),
            };
            if mult == 0 {
                return fail(format!("zero exponent in `{line}`"));
            }
            pos = end;
        }
        out.tokens.push((out.names.len(), mult));
        pos = skip_space(pos);
    }
    if out.tokens.is_empty() {
        return fail(format!("empty configuration line `{line}`"));
    }
    Ok(())
}

fn content_lines(text: &str) -> impl Iterator<Item = &str> {
    text.lines().map(str::trim).filter(|l| !l.is_empty() && !l.starts_with('#'))
}

/// Collects all label names appearing in the texts, in order of first
/// appearance.
pub(crate) fn collect_names<'a>(texts: &[&'a str]) -> Result<Vec<&'a str>> {
    let mut names: Vec<&str> = Vec::new();
    let mut tokens = LineTokens::default();
    for text in texts {
        for line in content_lines(text) {
            tokenize_line(line, &mut tokens)?;
            for &name in &tokens.names {
                if !names.contains(&name) {
                    names.push(name);
                }
            }
        }
    }
    Ok(names)
}

/// Parses a constraint against an existing alphabet.
///
/// # Errors
///
/// Fails on syntax errors, unknown labels, or degree mismatches between
/// lines.
///
/// # Example
///
/// ```
/// use relim_core::{Alphabet, parse};
///
/// let alpha = Alphabet::new(&["M", "P", "O"]).unwrap();
/// let c = parse::parse_constraint("M M M\nP O^2", &alpha).unwrap();
/// assert_eq!(c.degree(), 3);
/// assert_eq!(c.len(), 2);
/// ```
pub fn parse_constraint(text: &str, alphabet: &Alphabet) -> Result<Constraint> {
    let lines = parse_lines(text, alphabet)?;
    Constraint::from_lines(&lines)
}

/// Parses the condensed lines of a constraint without expanding them.
///
/// # Errors
///
/// Fails on syntax errors or unknown labels.
pub fn parse_lines(text: &str, alphabet: &Alphabet) -> Result<Vec<Line>> {
    let mut tokens = LineTokens::default();
    let mut lines = Vec::new();
    for raw in content_lines(text) {
        tokenize_line(raw, &mut tokens)?;
        let mut groups = Vec::with_capacity(tokens.tokens.len());
        for (names, mult) in tokens.iter() {
            let mut set = LabelSet::EMPTY;
            for name in names {
                set = set.with(alphabet.label(name)?);
            }
            groups.push((set, mult));
        }
        lines.push(Line::new(groups)?);
    }
    Ok(lines)
}

/// A problem text tokenized once: the inferred alphabet and every line
/// as `(label set, exponent)` groups, nothing expanded yet.
///
/// This is the first half of [`parse_problem`]. A caller that must bound
/// the work of untrusted text reads [`CondensedProblem::max_degree`] and
/// [`CondensedProblem::expansion_size`] before paying for
/// [`CondensedProblem::into_problem`].
///
/// # Example
///
/// ```
/// use relim_core::parse::CondensedProblem;
///
/// let text = CondensedProblem::parse("[A B C D]^12", "A B").unwrap();
/// assert_eq!(text.max_degree(), 12);
/// assert_eq!(text.expansion_size(), 455 + 1); // C(15, 12) + 1
/// ```
#[derive(Debug)]
pub struct CondensedProblem {
    alphabet: Alphabet,
    /// The groups of every line, node lines first, in token order
    /// (equal sets within a line are not merged yet).
    groups: Vec<(LabelSet, u32)>,
    /// Each node line's range in `groups`.
    node: Vec<Range<usize>>,
    /// Each edge line's range in `groups`.
    edge: Vec<Range<usize>>,
}

impl CondensedProblem {
    /// Tokenizes the node then the edge text in one pass, interning
    /// label names in order of first appearance.
    ///
    /// # Errors
    ///
    /// Syntax errors (the first in reading order), a line whose degree
    /// overflows `u32`, or more than [`MAX_LABELS`] distinct names.
    pub fn parse(node_text: &str, edge_text: &str) -> Result<CondensedProblem> {
        let mut names: Vec<&str> = Vec::new();
        let mut groups = Vec::new();
        let mut sides = [Vec::new(), Vec::new()];
        let mut tokens = LineTokens::default();
        for (text, lines) in [node_text, edge_text].into_iter().zip(&mut sides) {
            for line in content_lines(text) {
                tokenize_line(line, &mut tokens)?;
                let start = groups.len();
                let mut degree = 0u64;
                for (token_names, mult) in tokens.iter() {
                    let mut set = LabelSet::EMPTY;
                    for &name in token_names {
                        let index = match names.iter().position(|&n| n == name) {
                            Some(index) => index,
                            None => {
                                names.push(name);
                                names.len() - 1
                            }
                        };
                        // Past `MAX_LABELS` the alphabet below refuses
                        // the text; tokenizing goes on only so that an
                        // earlier-reported syntax error still wins.
                        if index < MAX_LABELS {
                            set = set.with(Label::new(index as u8));
                        }
                    }
                    degree += u64::from(mult);
                    groups.push((set, mult));
                }
                if u32::try_from(degree).is_err() {
                    return Err(RelimError::Parse {
                        message: format!("line degree {degree} overflows in `{line}`"),
                    });
                }
                lines.push(start..groups.len());
            }
        }
        let alphabet = Alphabet::new(&names)?;
        let [node, edge] = sides;
        Ok(CondensedProblem { alphabet, groups, node, edge })
    }

    /// The largest degree of any node or edge line (0 when both texts
    /// are empty).
    pub fn max_degree(&self) -> u32 {
        self.lines().map(line_degree).max().unwrap_or(0)
    }

    /// How many configurations [`Line::expand`] would enumerate over
    /// every node and edge line, before deduplication: the sum over
    /// lines of `Π C(|S|+m−1, m)` for the line's groups `S^m`,
    /// saturating at `u128::MAX`. Read off the groups; nothing is
    /// expanded.
    pub fn expansion_size(&self) -> u128 {
        self.lines().map(line::expansion_size).fold(0, u128::saturating_add)
    }

    fn lines(&self) -> impl Iterator<Item = &[(LabelSet, u32)]> + '_ {
        self.node.iter().chain(&self.edge).map(|range| &self.groups[range.clone()])
    }

    /// Expands both constraints and validates the problem.
    ///
    /// # Errors
    ///
    /// An empty constraint, lines of different degrees within one
    /// constraint, or an edge constraint of degree other than 2.
    pub fn into_problem(self) -> Result<Problem> {
        let node = self.constraint(&self.node)?;
        let edge = self.constraint(&self.edge)?;
        Problem::new(self.alphabet, node, edge)
    }

    /// One constraint from its lines. A line of single labels (`M^2 P`)
    /// is exactly one configuration and is built directly; a line with a
    /// disjunction goes through [`Line::expand`].
    fn constraint(&self, lines: &[Range<usize>]) -> Result<Constraint> {
        let first = lines.first().ok_or(RelimError::EmptyConstraint)?;
        let degree = line_degree(&self.groups[first.clone()]);
        let mut configs = Vec::with_capacity(lines.len());
        let mut labels: Vec<Label> = Vec::new();
        for range in lines {
            let groups = &self.groups[range.clone()];
            let found = line_degree(groups);
            if found != degree {
                return Err(RelimError::WrongDegree { expected: degree, found });
            }
            if groups.iter().all(|(set, _)| set.len() == 1) {
                labels.clear();
                for &(set, mult) in groups {
                    let label = set.first().expect("singleton set");
                    labels.extend(std::iter::repeat_n(label, mult as usize));
                }
                configs.push(Config::from_labels(&labels));
            } else {
                configs.extend(Line::new(groups.to_vec())?.expand());
            }
        }
        Constraint::from_configs(configs)
    }
}

/// The degree of one tokenized line (it fits `u32`: [`CondensedProblem::parse`]
/// refuses lines whose degree does not).
fn line_degree(groups: &[(LabelSet, u32)]) -> u32 {
    groups.iter().map(|&(_, mult)| mult).sum()
}

/// Parses a full problem; the alphabet is inferred from the order of first
/// appearance across the node then edge text.
///
/// The text is tokenized once ([`CondensedProblem::parse`]) and then
/// expanded ([`CondensedProblem::into_problem`]).
///
/// # Errors
///
/// Fails on syntax errors, degree inconsistencies, or a non-2 edge degree.
///
/// # Example
///
/// ```
/// use relim_core::parse;
///
/// let p = parse::parse_problem("M M M\nP O O", "M [P O]\nO O").unwrap();
/// assert_eq!(p.alphabet().names(), &["M".to_string(), "P".into(), "O".into()]);
/// ```
pub fn parse_problem(node_text: &str, edge_text: &str) -> Result<Problem> {
    CondensedProblem::parse(node_text, edge_text)?.into_problem()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn tokens(line: &str) -> Result<Vec<(Vec<&str>, u32)>> {
        let mut out = LineTokens::default();
        tokenize_line(line, &mut out)?;
        Ok(out.iter().map(|(names, mult)| (names.to_vec(), mult)).collect())
    }

    #[test]
    fn token_forms() {
        let toks = tokens("M [P O]^2 X^3").unwrap();
        assert_eq!(toks, vec![(vec!["M"], 1), (vec!["P", "O"], 2), (vec!["X"], 3)]);
        // No whitespace is needed between tokens.
        assert_eq!(
            tokens("A^2[B C]D").unwrap(),
            vec![(vec!["A"], 2), (vec!["B", "C"], 1), (vec!["D"], 1)]
        );
    }

    #[test]
    fn parse_errors() {
        assert!(tokens("").is_err());
        assert!(tokens("[ ]").is_err());
        assert!(tokens("M^0").is_err());
        assert!(tokens("M^").is_err());
        assert!(tokens("M ]").is_err());
        assert!(tokens("M^4294967296").is_err(), "exponent past u32");
    }

    #[test]
    fn line_degree_overflow_is_a_parse_error() {
        let err = parse_problem("A^4294967295 B", "A A").unwrap_err();
        assert!(err.to_string().contains("line degree 4294967296 overflows"), "{err}");
        // A single huge exponent fits: it is refused only by callers that
        // bound the degree (nothing here expands it).
        let text = CondensedProblem::parse("A^4294967295", "A A").unwrap();
        assert_eq!(text.max_degree(), u32::MAX);
        assert_eq!(text.expansion_size(), 2);
    }

    #[test]
    fn error_precedence_matches_the_two_pass_parser() {
        let many: Vec<String> = (0..32).map(|i| format!("L{i}")).collect();
        let many = many.join(" ");
        for (node, edge) in [
            // Too many labels, and a syntax error on a later edge line:
            // the syntax error wins, as it did when names were collected
            // in a pass of their own.
            (many.as_str(), "A A\nB ]"),
            (many.as_str(), "A A"),
            // A node degree mismatch loses to an edge syntax error.
            ("A A\nA A A", "A ("),
            ("A A\nA A A", "A A"),
            // Unknown-free, well-formed, but the edge degree is wrong.
            ("A A", "A A A"),
        ] {
            let fast = parse_problem(node, edge).unwrap_err().to_string();
            let general = reference::parse_problem(node, edge).unwrap_err().to_string();
            assert_eq!(fast, general, "node {node:?} edge {edge:?}");
        }
    }

    #[test]
    fn condensed_sizes_are_read_without_expanding() {
        let text = CondensedProblem::parse("[A B C D E F G H I J K L M N O P]^12", "A B").unwrap();
        assert_eq!(text.max_degree(), 12);
        assert_eq!(text.expansion_size(), 17_383_860 + 1);
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let alpha = Alphabet::new(&["A"]).unwrap();
        let c = parse_constraint("# header\n\nA A\n  \n# trailing", &alpha).unwrap();
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn degree_mismatch_between_lines() {
        let alpha = Alphabet::new(&["A"]).unwrap();
        assert!(parse_constraint("A A\nA A A", &alpha).is_err());
    }

    #[test]
    fn unknown_label() {
        let alpha = Alphabet::new(&["A"]).unwrap();
        assert!(matches!(parse_constraint("A B", &alpha), Err(RelimError::UnknownLabel { .. })));
    }

    #[test]
    fn full_problem_alphabet_order() {
        let p = parse_problem("M M\nP O", "M [P O]\nO O").unwrap();
        assert_eq!(p.alphabet().names(), &["M".to_string(), "P".into(), "O".into()]);
        // Expansion: M[PO] = {MP, MO}.
        let m = Label::new(0);
        let pp = Label::new(1);
        let o = Label::new(2);
        assert!(p.edge().contains(&Config::new(vec![m, pp])));
        assert!(p.edge().contains(&Config::new(vec![m, o])));
        assert!(p.edge().contains(&Config::new(vec![o, o])));
        assert_eq!(p.edge().len(), 3);
    }

    #[test]
    fn exponent_disjunction_expansion() {
        let p = parse_problem("[A B]^2", "A B").unwrap();
        // {AA, AB, BB}
        assert_eq!(p.node().len(), 3);
    }

    /// The two-pass parser this module replaced, kept as the oracle of the
    /// differential test below: names are collected as `String`s in a
    /// first pass, every line is re-tokenized against the alphabet, and
    /// every line, single labels included, goes through [`Line::expand`].
    mod reference {
        use super::super::{content_lines, is_name_char};
        use crate::constraint::Constraint;
        use crate::error::{RelimError, Result};
        use crate::label::Alphabet;
        use crate::labelset::LabelSet;
        use crate::line::Line;
        use crate::problem::Problem;

        struct RawToken {
            names: Vec<String>,
            mult: u32,
        }

        fn parse_line_tokens(line: &str) -> Result<Vec<RawToken>> {
            let mut tokens = Vec::new();
            let mut chars = line.chars().peekable();
            loop {
                while matches!(chars.peek(), Some(c) if c.is_whitespace()) {
                    chars.next();
                }
                let Some(&c) = chars.peek() else { break };
                let names = if c == '[' {
                    chars.next();
                    let mut names = Vec::new();
                    loop {
                        while matches!(chars.peek(), Some(c) if c.is_whitespace()) {
                            chars.next();
                        }
                        match chars.peek() {
                            Some(']') => {
                                chars.next();
                                break;
                            }
                            Some(&c) if is_name_char(c) => {
                                let mut name = String::new();
                                while matches!(chars.peek(), Some(&c) if is_name_char(c)) {
                                    name.push(chars.next().expect("peeked"));
                                }
                                names.push(name);
                            }
                            other => {
                                return Err(RelimError::Parse {
                                    message: format!(
                                        "unexpected {other:?} inside disjunction in `{line}`"
                                    ),
                                })
                            }
                        }
                    }
                    if names.is_empty() {
                        return Err(RelimError::Parse {
                            message: format!("empty disjunction `[]` in `{line}`"),
                        });
                    }
                    names
                } else if is_name_char(c) {
                    let mut name = String::new();
                    while matches!(chars.peek(), Some(&c) if is_name_char(c)) {
                        name.push(chars.next().expect("peeked"));
                    }
                    vec![name]
                } else {
                    return Err(RelimError::Parse {
                        message: format!("unexpected character `{c}` in `{line}`"),
                    });
                };
                let mut mult = 1u32;
                if matches!(chars.peek(), Some('^')) {
                    chars.next();
                    let mut digits = String::new();
                    while matches!(chars.peek(), Some(c) if c.is_ascii_digit()) {
                        digits.push(chars.next().expect("peeked"));
                    }
                    mult = digits.parse().map_err(|_| RelimError::Parse {
                        message: format!("bad exponent after `^` in `{line}`"),
                    })?;
                    if mult == 0 {
                        return Err(RelimError::Parse {
                            message: format!("zero exponent in `{line}`"),
                        });
                    }
                }
                tokens.push(RawToken { names, mult });
            }
            if tokens.is_empty() {
                return Err(RelimError::Parse {
                    message: format!("empty configuration line `{line}`"),
                });
            }
            Ok(tokens)
        }

        fn parse_constraint(text: &str, alphabet: &Alphabet) -> Result<Constraint> {
            let mut lines = Vec::new();
            for raw in content_lines(text) {
                let mut groups = Vec::new();
                for tok in parse_line_tokens(raw)? {
                    let mut set = LabelSet::EMPTY;
                    for name in &tok.names {
                        set = set.with(alphabet.label(name)?);
                    }
                    groups.push((set, tok.mult));
                }
                lines.push(Line::new(groups)?);
            }
            Constraint::from_lines(&lines)
        }

        pub fn parse_problem(node_text: &str, edge_text: &str) -> Result<Problem> {
            let mut names: Vec<String> = Vec::new();
            for text in [node_text, edge_text] {
                for line in content_lines(text) {
                    for tok in parse_line_tokens(line)? {
                        for name in tok.names {
                            if !names.contains(&name) {
                                names.push(name);
                            }
                        }
                    }
                }
            }
            let alphabet = Alphabet::new(&names)?;
            let node = parse_constraint(node_text, &alphabet)?;
            let edge = parse_constraint(edge_text, &alphabet)?;
            Problem::new(alphabet, node, edge)
        }
    }

    /// A deterministic generator of condensed problem texts: names with
    /// every legal character class, disjunctions, exponents, comments,
    /// blank lines and both `;` and newline separators, plus the
    /// malformed tokens each error message covers. Lines keep a common
    /// degree most of the time, so most texts parse.
    struct TextGen(u64);

    impl TextGen {
        fn below(&mut self, n: u64) -> u64 {
            // splitmix64
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        }

        fn name(&mut self) -> &'static str {
            const NAMES: [&str; 9] = ["M", "P", "O", "X", "a_1", "B'", "+", "long-name", "Ω"];
            NAMES[self.below(NAMES.len() as u64) as usize]
        }

        /// One token of total multiplicity `mult`, occasionally malformed.
        fn token(&mut self, mult: u32) -> String {
            let body = match self.below(40) {
                0..=23 => self.name().to_owned(),
                24..=38 => {
                    let names: Vec<&str> = (0..=self.below(3)).map(|_| self.name()).collect();
                    format!("[{}]", names.join(" "))
                }
                _ => ["[]", "]", "(", "[M", "M^", "M^x", "M^0", "[M;P]"][self.below(8) as usize]
                    .to_owned(),
            };
            if mult == 1 && self.below(2) == 0 {
                body
            } else {
                format!("{body}^{mult}")
            }
        }

        /// One line of the given degree, split into random tokens.
        fn line(&mut self, degree: u32) -> String {
            let mut left = degree;
            let mut tokens = Vec::new();
            while left > 0 {
                let mult = 1 + self.below(u64::from(left)) as u32;
                tokens.push(self.token(mult));
                left -= mult;
            }
            let sep = [" ", "  ", "\t"][self.below(3) as usize];
            tokens.join(sep)
        }

        fn constraint(&mut self, degree: u32) -> String {
            let mut text = String::new();
            for i in 0..=self.below(3) {
                if i > 0 {
                    text.push_str(
                        [";", "\n", "\n\n", "\n  # comment [ ]\n", "\r\n"][self.below(5) as usize],
                    );
                }
                // Mostly the common degree; sometimes a mismatch.
                let d = if self.below(8) == 0 { 1 + self.below(4) as u32 } else { degree };
                text.push_str(&self.line(d));
            }
            if self.below(2) == 0 {
                // The serving layer's convention: `;` separates lines.
                text = text.replace(';', "\n");
            }
            text
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The one-pass parser with its single-label shortcut builds the
        /// same problem as the two-pass parser that expands every line,
        /// or fails with the identical message.
        #[test]
        fn one_pass_parser_matches_general_expansion(seed in 0u64..u64::MAX) {
            let mut gen = TextGen(seed);
            let node_degree = 1 + gen.below(4) as u32;
            let node = gen.constraint(node_degree);
            let edge_degree = if gen.below(6) == 0 { 3 } else { 2 };
            let edge = gen.constraint(edge_degree);
            match (parse_problem(&node, &edge), reference::parse_problem(&node, &edge)) {
                (Ok(fast), Ok(general)) => {
                    prop_assert_eq!(&fast, &general, "node {:?} edge {:?}", node, edge);
                    let size = CondensedProblem::parse(&node, &edge).unwrap().expansion_size();
                    prop_assert!((fast.node().len() + fast.edge().len()) as u128 <= size);
                }
                (Err(fast), Err(general)) => {
                    prop_assert_eq!(fast.to_string(), general.to_string(), "node {:?} edge {:?}", node, edge);
                }
                (fast, general) => prop_assert!(
                    false,
                    "node {:?} edge {:?}: one-pass {:?} vs general {:?}", node, edge, fast, general
                ),
            }
        }
    }
}
