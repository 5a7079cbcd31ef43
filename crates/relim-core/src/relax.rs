//! Relaxations of configurations (paper Definition 7).
//!
//! A configuration of label sets `Y₁ … Y_Δ` *can be relaxed to*
//! `Z₁ … Z_Δ` if there is a permutation `ρ` with `Y_i ⊆ Z_ρ(i)` for all
//! `i`. Lemma 8 of the paper rests on showing that every node configuration
//! of `R̄(R(Π_Δ(a,x)))` can be relaxed to a configuration of the fixed
//! problem `Π_rel`; this module provides that check as executable code.
//!
//! The same relation answers two more questions in the crate. A
//! configuration lies in a condensed [`Line`] when its singleton sets
//! relax into the line ([`Line::contains`]), and one configuration
//! dominates another when it differs from it and the other relaxes to it
//! ([`crate::roundelim::dominates`], the order of the quadratic maximality
//! oracle). Every one of these checks asks, per
//! source position, which target slots hold a superset of it, and one
//! crate-private builder answers that: a `u64` subset mask per source
//! set, so at most 64 distinct targets (a wider target list panics). The
//! masks then go to one of the two matchers of [`crate::matching`]:
//! [`crate::matching::unit_assignment_feasible`] when every target takes
//! one position (dominance), or [`crate::matching::assign_positions`]
//! when a target set takes as many positions as its multiplicity (a line,
//! or the runs of equal sets in a configuration).

use crate::config::{SetConfig, INLINE_DEGREE};
use crate::inline_vec::InlineVec;
use crate::labelset::LabelSet;
use crate::line::Line;
use crate::matching::assign_positions;
use std::borrow::Borrow;

/// The subset masks of `sources` against `targets`: bit `j` of mask `i`
/// is set when source `i` is a subset of target `j`. Inline (no
/// allocation) for up to [`INLINE_DEGREE`] sources.
///
/// # Panics
///
/// Panics when there are more than 64 targets (one mask bit per target).
#[inline]
pub(crate) fn subset_masks<T>(
    sources: impl IntoIterator<Item = LabelSet>,
    targets: T,
) -> InlineVec<u64, INLINE_DEGREE>
where
    T: ExactSizeIterator<Item = LabelSet> + Clone,
{
    assert!(targets.len() <= 64, "{} target slots exceed the 64-bit subset mask", targets.len());
    sources
        .into_iter()
        .map(|source| {
            let mut mask = 0u64;
            for (j, target) in targets.clone().enumerate() {
                if source.is_subset_of(target) {
                    mask |= 1 << j;
                }
            }
            mask
        })
        .collect()
}

/// Places every position of `from`, in order, into a group `(set,
/// multiplicity)` whose set contains it, no group taking more positions
/// than its multiplicity: `result[i]` is the group of position `i`.
fn assign_to_groups(
    from: impl IntoIterator<Item = LabelSet>,
    groups: &[(LabelSet, u32)],
) -> Option<Vec<usize>> {
    let masks = subset_masks(from, groups.iter().map(|&(set, _)| set));
    let caps: InlineVec<u32, INLINE_DEGREE> = groups.iter().map(|&(_, mult)| mult).collect();
    assign_positions(masks.as_slice(), caps.as_slice())
}

/// Whether `from` can be relaxed to `to` (Definition 7): a perfect matching
/// pairing each `from`-position with a distinct `to`-position such that
/// `from_i ⊆ to_j`.
///
/// This is relaxation into the line made of `to`'s runs: each distinct
/// set of `to` is one group, with its run length as multiplicity.
///
/// # Panics
///
/// Panics when `to` holds more than 64 distinct sets.
///
/// # Example
///
/// ```
/// use relim_core::{relax, Label, LabelSet, SetConfig};
///
/// let a = LabelSet::singleton(Label::new(0));
/// let ab = a.with(Label::new(1));
/// let from = SetConfig::new(vec![a, a]);
/// let to = SetConfig::new(vec![ab, a]);
/// assert!(relax::config_relaxes_to(&from, &to));
/// assert!(!relax::config_relaxes_to(&to, &from));
/// ```
pub fn config_relaxes_to(from: &SetConfig, to: &SetConfig) -> bool {
    if from.degree() != to.degree() {
        return false;
    }
    // `to` is sorted, so equal sets are adjacent.
    let runs: Vec<(LabelSet, u32)> =
        to.as_slice().chunk_by(|a, b| a == b).map(|run| (run[0], run.len() as u32)).collect();
    assign_to_groups(from.iter(), &runs).is_some()
}

/// Whether `from` can be relaxed into the condensed line `to_line`, where
/// each group of the line is a *set-of-labels slot with multiplicity*: the
/// matching pairs each `from`-position with a group whose set is a superset.
///
/// This is the line-level version of [`config_relaxes_to`], matching how the
/// paper writes `Π_rel` as condensed configurations.
///
/// # Panics
///
/// Panics when the line has more than 64 groups.
pub fn config_relaxes_to_line(from: &SetConfig, to_line: &Line) -> bool {
    from.degree() == to_line.degree() && assign_to_groups(from.iter(), to_line.groups()).is_some()
}

/// Finds, for each configuration in `from`, a line of `to_lines` it relaxes
/// into; returns the per-configuration line index.
///
/// # Errors
///
/// On failure returns the offending configuration.
pub fn all_relax_to_lines<I>(from: I, to_lines: &[Line]) -> Result<Vec<usize>, SetConfig>
where
    I: IntoIterator,
    I::Item: Borrow<SetConfig>,
{
    let mut assignments = Vec::new();
    for cfg in from {
        let cfg = cfg.borrow();
        match to_lines.iter().position(|line| config_relaxes_to_line(cfg, line)) {
            Some(idx) => assignments.push(idx),
            None => return Err(cfg.clone()),
        }
    }
    Ok(assignments)
}

/// Relaxes the positions of `from`, in order, into the groups of
/// `to_line`: each position is replaced by the set of the group it is
/// matched to (a superset), and no group takes more positions than its
/// multiplicity. `from` may be shorter than the line — a node at the
/// boundary of a tree fills only part of a line; at full degree this is
/// Definition 7. Returns `None` when no such relaxation exists.
///
/// # Panics
///
/// Panics when the line has more than 64 groups.
pub fn relax_into_line(from: &[LabelSet], to_line: &Line) -> Option<Vec<LabelSet>> {
    let groups = to_line.groups();
    let assignment = assign_to_groups(from.iter().copied(), groups)?;
    Some(assignment.into_iter().map(|g| groups[g].0).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ls(bits: u32) -> LabelSet {
        LabelSet::from_bits(bits)
    }

    #[test]
    fn degree_mismatch() {
        let a = SetConfig::new(vec![ls(1)]);
        let b = SetConfig::new(vec![ls(1), ls(1)]);
        assert!(!config_relaxes_to(&a, &b));
    }

    #[test]
    fn permutation_needed() {
        // from = ({A}, {B}); to = ({B,C}, {A,C}) — needs the swap.
        let from = SetConfig::new(vec![ls(0b001), ls(0b010)]);
        let to = SetConfig::new(vec![ls(0b110), ls(0b101)]);
        assert!(config_relaxes_to(&from, &to));
    }

    #[test]
    fn degree_65_counts_every_position() {
        // P P Q^63 against P Q^63 R: two P positions, one P slot. One mask
        // bit per *position* of `to` would need 65 bits; one per distinct
        // set needs 3, so the answer is exact past degree 64.
        let (p, q, r) = (ls(0b001), ls(0b010), ls(0b100));
        let mut from = vec![p, p];
        from.extend(std::iter::repeat_n(q, 63));
        let mut to = vec![p, r];
        to.extend(std::iter::repeat_n(q, 63));
        let (from, to) = (SetConfig::new(from), SetConfig::new(to));
        assert!(!config_relaxes_to(&from, &to));
        assert!(config_relaxes_to(&from, &from));
        assert!(config_relaxes_to(&to, &to));
    }

    #[test]
    #[should_panic(expected = "65 target slots exceed the 64-bit subset mask")]
    fn more_than_64_targets_panic() {
        let targets: Vec<LabelSet> = (0..65).map(|i| ls(i + 1)).collect();
        subset_masks([ls(1)], targets.iter().copied());
    }

    #[test]
    fn line_relaxation_with_multiplicity() {
        // Line: [ABC]^2 [A]^1; from = ({A},{B},{A}).
        let line = Line::new(vec![(ls(0b111), 2), (ls(0b001), 1)]).unwrap();
        let from = SetConfig::new(vec![ls(0b001), ls(0b010), ls(0b001)]);
        assert!(config_relaxes_to_line(&from, &line));
        // from = ({B},{B},{B}) cannot: only two positions accept B.
        let bad = SetConfig::new(vec![ls(0b010), ls(0b010), ls(0b010)]);
        assert!(!config_relaxes_to_line(&bad, &line));
    }

    #[test]
    fn relax_into_line_produces_supersets_in_position_order() {
        let line = Line::new(vec![(ls(0b111), 1), (ls(0b011), 1)]).unwrap();
        let from = [ls(0b100), ls(0b001)];
        let relaxed = relax_into_line(&from, &line).unwrap();
        // {C}=0b100 must land in the [ABC] group, {A} in [AB].
        assert_eq!(relaxed, vec![ls(0b111), ls(0b011)]);
        let full = SetConfig::new(from.to_vec());
        assert!(config_relaxes_to(&full, &SetConfig::new(relaxed)));
        // A boundary node fills part of the line.
        assert_eq!(relax_into_line(&[ls(0b100)], &line), Some(vec![ls(0b111)]));
        assert_eq!(relax_into_line(&[ls(0b100), ls(0b100)], &line), None);
    }

    #[test]
    fn all_relax_reports_offender() {
        let line = Line::new(vec![(ls(0b001), 2)]).unwrap();
        let good = SetConfig::new(vec![ls(0b001), ls(0b001)]);
        let bad = SetConfig::new(vec![ls(0b010), ls(0b001)]);
        let res = all_relax_to_lines([&good, &bad], std::slice::from_ref(&line));
        assert_eq!(res.unwrap_err(), bad);
        assert_eq!(all_relax_to_lines([good], std::slice::from_ref(&line)), Ok(vec![0]));
    }
}
