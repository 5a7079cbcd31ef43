//! Per-worker scratch arenas for the round-elimination hot loop.
//!
//! The universal-side DFS ([`crate::roundelim`]) repeatedly needs the same
//! short-lived buffers: one frontier `Vec<Config>` per recursion depth and
//! a chosen-candidate stack. Allocating them per call (let alone per
//! candidate) dominated the allocator profile. This module keeps one
//! [`ScratchArena`] per thread — pool workers are persistent
//! ([`relim_pool::Pool`]), so the thread-local is per *worker* and warm
//! after the first task — and the hot loop borrows buffers from it,
//! clearing instead of freeing.
//!
//! Access goes through [`with_scratch`], which `take`s the arena out of
//! the thread-local cell and puts it back afterwards: a re-entrant call
//! (e.g. a differential test driving the sequential reference from inside
//! a pooled task) simply observes a fresh default arena instead of
//! aliasing buffers, so the pattern is panic- and reentrancy-safe without
//! runtime borrow failures.

use crate::config::Config;
use crate::labelset::LabelSet;
use std::cell::RefCell;

/// Reusable buffers for one worker thread.
///
/// All buffers are logically empty between top-level uses (callers clear
/// before use, not after), but retain their heap capacity — the second and
/// every later DFS on a worker runs allocation-free in the common case.
#[derive(Default)]
pub(crate) struct ScratchArena {
    /// Depth-indexed DFS frontiers: `frontiers[d]` holds the deduplicated
    /// partial-choice multisets after `d` candidates have been chosen.
    /// Indexed by recursion depth so sibling subtrees reuse the same
    /// buffer; entries are `mem::take`-swapped while a depth is active.
    pub frontiers: Vec<Vec<Config>>,
    /// The candidate sets chosen along the current DFS path.
    pub chosen: Vec<LabelSet>,
}

impl ScratchArena {
    /// Ensures the frontier pool covers depths `0..=depth`.
    pub fn ensure_depth(&mut self, depth: usize) {
        if self.frontiers.len() <= depth {
            self.frontiers.resize_with(depth + 1, Vec::new);
        }
    }
}

thread_local! {
    static SCRATCH: RefCell<ScratchArena> = RefCell::new(ScratchArena::default());
}

/// Runs `f` with this thread's scratch arena.
///
/// The arena is moved out of the cell for the duration of `f`; nested
/// calls get an independent (fresh) arena rather than a panic, and the
/// outer arena is restored afterwards.
pub(crate) fn with_scratch<R>(f: impl FnOnce(&mut ScratchArena) -> R) -> R {
    SCRATCH.with(|cell| {
        let mut arena = cell.take();
        let out = f(&mut arena);
        cell.replace(arena);
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_retains_capacity_between_uses() {
        let cap = with_scratch(|a| {
            a.ensure_depth(3);
            a.frontiers[2].reserve(100);
            a.frontiers[2].capacity()
        });
        assert!(cap >= 100);
        let cap_again = with_scratch(|a| a.frontiers[2].capacity());
        assert!(cap_again >= 100, "capacity lost between uses: {cap_again}");
    }

    #[test]
    fn nested_use_sees_a_fresh_arena_and_restores_the_outer() {
        with_scratch(|outer| {
            outer.chosen.push(LabelSet::from_bits(0b1));
            with_scratch(|inner| {
                assert!(inner.chosen.is_empty(), "nested arena must be independent");
                inner.chosen.push(LabelSet::from_bits(0b10));
            });
            assert_eq!(outer.chosen.len(), 1);
        });
        // The outer arena was restored (with its buffers) when the closure
        // returned; the nested one was dropped.
        with_scratch(|a| {
            assert_eq!(a.chosen, vec![LabelSet::from_bits(0b1)]);
            a.chosen.clear();
        });
    }
}
