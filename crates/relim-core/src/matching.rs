//! Small bipartite assignment feasibility tests.
//!
//! Several engine operations reduce to the question *"can `n` positions be
//! assigned to capacity-bounded groups, respecting per-position options?"* —
//! the relaxation test of Definition 7, membership of a configuration in a
//! condensed line, and the dominance test of the quadratic maximality
//! oracle. The
//! options come from one builder in [`crate::relax`]: one `u64` mask per
//! position, bit `g` set when the position fits group `g`, so there are at
//! most 64 groups. There are two matchers, both augmenting-path (Kuhn)
//! matchings:
//!
//! * [`unit_assignment_feasible`] — every group takes one position. It is
//!   allocation-free and runs in the `R̄` hot loop.
//! * [`assign_positions`] — group `g` takes up to `caps[g]` positions, and
//!   the assignment itself is returned.

/// Decides whether every position can be assigned to some allowed group
/// without exceeding group capacities.
///
/// `options[i]` is a bitmask over group indices that position `i` accepts;
/// `caps[g]` is the capacity of group `g`. Returns an assignment
/// (`result[i] = g`) if one exists.
///
/// # Example
///
/// ```
/// use relim_core::matching::assign_positions;
///
/// // Two positions, both only accept group 0, which has capacity 1.
/// assert!(assign_positions(&[0b01, 0b01], &[1, 5]).is_none());
/// // Capacity 2 makes it feasible.
/// assert!(assign_positions(&[0b01, 0b01], &[2, 5]).is_some());
/// ```
pub fn assign_positions(options: &[u64], caps: &[u32]) -> Option<Vec<usize>> {
    let n = options.len();
    let g = caps.len();
    debug_assert!(g <= 64);
    // Remaining capacity per group; slot assignment per position.
    let mut remaining: Vec<u32> = caps.to_vec();
    let mut assigned: Vec<Option<usize>> = vec![None; n];
    // For augmenting paths we need, per group, the positions currently using
    // it (a group can host several positions up to its capacity).
    let mut users: Vec<Vec<usize>> = vec![Vec::new(); g];

    for start in 0..n {
        // Try to place position `start`, possibly displacing others.
        let mut visited_groups = vec![false; g];
        if !try_place(
            start,
            options,
            &mut remaining,
            &mut assigned,
            &mut users,
            &mut visited_groups,
        ) {
            return None;
        }
    }
    Some(assigned.into_iter().map(|a| a.expect("all positions placed")).collect())
}

fn try_place(
    pos: usize,
    options: &[u64],
    remaining: &mut [u32],
    assigned: &mut [Option<usize>],
    users: &mut [Vec<usize>],
    visited_groups: &mut [bool],
) -> bool {
    let opts = options[pos];
    // First pass: any group with spare capacity?
    for grp in 0..remaining.len() {
        if opts & (1 << grp) != 0 && remaining[grp] > 0 {
            remaining[grp] -= 1;
            assigned[pos] = Some(grp);
            users[grp].push(pos);
            return true;
        }
    }
    // Second pass: try to displace a current user of an allowed group.
    for grp in 0..remaining.len() {
        if opts & (1 << grp) == 0 || visited_groups[grp] {
            continue;
        }
        visited_groups[grp] = true;
        let current: Vec<usize> = users[grp].clone();
        for other in current {
            // Temporarily evict `other` and try to re-place it elsewhere.
            let idx = users[grp].iter().position(|&p| p == other).expect("user listed");
            users[grp].swap_remove(idx);
            assigned[other] = None;
            if try_place(other, options, remaining, assigned, users, visited_groups) {
                assigned[pos] = Some(grp);
                users[grp].push(pos);
                return true;
            }
            // Restore.
            assigned[other] = Some(grp);
            users[grp].push(other);
        }
    }
    false
}

/// Allocation-free feasibility test for the unit-capacity special case of
/// [`assign_positions`]: can every position be matched to a *distinct*
/// allowed group (a perfect matching on the position side)?
///
/// This is the inner test of [`crate::roundelim::dominates`], which a
/// quadratic filter calls once per pair of configurations, so all state
/// is stack-resident: the group→position matching in a fixed array, the
/// per-augmentation visited set as a `u64` bitmask.
/// Equivalent to `assign_positions(options, &vec![1; groups]).is_some()`
/// (pinned by a differential test below).
///
/// # Example
///
/// ```
/// use relim_core::matching::unit_assignment_feasible;
///
/// // Both positions accept only group 0: no distinct assignment.
/// assert!(!unit_assignment_feasible(&[0b01, 0b01], 2));
/// // Augmenting path: position 0 moves to group 1 to free group 0.
/// assert!(unit_assignment_feasible(&[0b11, 0b01], 2));
/// ```
pub fn unit_assignment_feasible(options: &[u64], groups: usize) -> bool {
    debug_assert!(groups <= 64);
    if options.len() > groups {
        return false;
    }
    // match_of[g] = position currently matched to group g (MAX = free).
    let mut match_of = [u8::MAX; 64];
    for pos in 0..options.len() {
        let mut visited = 0u64;
        if !augment(pos, options, &mut match_of, &mut visited, groups) {
            return false;
        }
    }
    true
}

/// Kuhn augmenting step for [`unit_assignment_feasible`]: tries to match
/// `pos`, displacing current matches along an alternating path.
fn augment(
    pos: usize,
    options: &[u64],
    match_of: &mut [u8; 64],
    visited: &mut u64,
    groups: usize,
) -> bool {
    let mut opts = options[pos] & !*visited;
    while opts != 0 {
        let grp = opts.trailing_zeros() as usize;
        opts &= opts - 1;
        if grp >= groups || *visited & (1 << grp) != 0 {
            continue;
        }
        *visited |= 1 << grp;
        if match_of[grp] == u8::MAX
            || augment(match_of[grp] as usize, options, match_of, visited, groups)
        {
            match_of[grp] = pos as u8;
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assign_simple() {
        // 3 positions; groups: cap [1,1,1]; options give a unique solution.
        let asg = assign_positions(&[0b001, 0b011, 0b111], &[1, 1, 1]).unwrap();
        assert_eq!(asg[0], 0);
        assert_eq!(asg[1], 1);
        assert_eq!(asg[2], 2);
    }

    #[test]
    fn assign_needs_augmenting() {
        // Position 0 could take group 1, but greedy puts it in 0; position 1
        // only accepts group 0, forcing an augmenting path.
        let asg = assign_positions(&[0b11, 0b01], &[1, 1]).unwrap();
        assert_eq!(asg[1], 0);
        assert_eq!(asg[0], 1);
    }

    #[test]
    fn assign_infeasible() {
        assert!(assign_positions(&[0b01, 0b01, 0b10], &[1, 1]).is_none());
    }

    #[test]
    fn assign_empty() {
        assert_eq!(assign_positions(&[], &[1]).unwrap(), Vec::<usize>::new());
    }

    #[test]
    fn unit_feasibility_matches_assign_positions_with_unit_caps() {
        // Exhaustive differential over every options table for 3 positions
        // and 3 groups (8^3 tables), plus shape edge cases.
        for a in 0..8u64 {
            for b in 0..8u64 {
                for c in 0..8u64 {
                    let options = [a, b, c];
                    let expected = assign_positions(&options, &[1, 1, 1]).is_some();
                    assert_eq!(
                        unit_assignment_feasible(&options, 3),
                        expected,
                        "options {options:?}"
                    );
                }
            }
        }
        assert!(unit_assignment_feasible(&[], 0));
        // More positions than groups can never match distinctly.
        assert!(!unit_assignment_feasible(&[0b1, 0b1], 1));
    }
}
