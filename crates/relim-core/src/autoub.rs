//! Automatic upper-bound search (the round-eliminator's "autoub" workflow).
//!
//! An upper-bound sequence (paper §1.2) is a chain `Π₀ → Π₁ → …` where
//! each `Π_{i+1}` is a **restriction** (hardening) of `R̄(R(Π_i))`: a
//! solution of `Π_{i+1}` is verbatim a solution of `R̄(R(Π_i))`, and by
//! Theorem 3 a `t`-round algorithm for `R̄(R(Π_i))` yields a
//! `(t+1)`-round algorithm for `Π_i` on graphs of girth `≥ 2t + 4`. If
//! some `Π_T` is 0-round solvable, `Π₀` is solvable in `T` rounds.
//!
//! Three 0-round endpoints give three kinds of bounds:
//!
//! * [`zeroround::universal_witness`] — `T` rounds in the bare PN model;
//! * [`zeroround::solvable_deterministically`] — `T` rounds given a
//!   Δ-edge coloring as input (the speedup theorem holds in the presence
//!   of such t-independent inputs, paper §2.3);
//! * [`zeroround::coloring_witness`] — `T` rounds given a proper
//!   c-vertex coloring, hence `T + O(log* n)` in the LOCAL model for
//!   `c ≥ Δ + 1` via any standard coloring algorithm. This is the
//!   endpoint that certifies `O(Δ + log* n)`-style upper bounds.
//!
//! Note that the bare criteria may start to fire only after a few steps:
//! 0-round algorithms cannot see the edge port numbers (the orientation
//! input of the paper's PN model, §2.1), but 1-round algorithms can — the
//! same radius-0/radius-1 asymmetry the paper's Lemma 12 proof points
//! out. Triviality never *disappears* along a chain, but it can appear.
//!
//! Hardening keeps the alphabet within budget by deleting labels
//! (restriction: configurations mentioning them disappear). Deleting too
//! much can make the chain unsolvable — then no bound is found, but
//! soundness is never at risk, and [`verify_ub`] replays the whole chain
//! from scratch.

use crate::config::Config;
use crate::engine::Engine;
use crate::error::{RelimError, Result};
use crate::label::Label;
use crate::problem::Problem;
use crate::roundelim::Step;
use crate::simplify;
use crate::zeroround;

/// Options for [`crate::engine::Engine::auto_upper_bound`].
#[derive(Debug, Clone)]
pub struct AutoUbOptions {
    /// Maximum number of `R̄(R(·))` steps.
    pub max_steps: usize,
    /// Harden (delete labels) after each step until the alphabet has at
    /// most this many labels.
    pub label_budget: usize,
    /// Also test 0-round solvability given a proper c-vertex coloring for
    /// this many colors (must be ≥ 2 when present).
    pub coloring: Option<usize>,
}

impl Default for AutoUbOptions {
    fn default() -> Self {
        AutoUbOptions { max_steps: 8, label_budget: 8, coloring: None }
    }
}

/// The kind of 0-round endpoint that terminated an upper-bound chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UbKind {
    /// Bare PN model: `rounds` rounds on high-girth Δ-regular graphs.
    Pn,
    /// Given a Δ-edge coloring as input.
    EdgeColoring,
    /// Given a proper c-vertex coloring as input: `rounds + O(log* n)` in
    /// the LOCAL model when `c ≥ Δ + 1`.
    VertexColoring {
        /// Number of colors of the promised input coloring.
        colors: usize,
    },
}

/// A certified upper bound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpperBound {
    /// Rounds after which the chain problem became 0-round solvable.
    pub rounds: usize,
    /// What input (if any) the 0-round endpoint assumes.
    pub kind: UbKind,
    /// The witnessing node configuration(s) of the final problem.
    pub witness: Vec<Config>,
}

/// One link of an upper-bound chain.
#[derive(Debug, Clone)]
pub struct UbStep {
    /// `R̄(R(prev))` with unused labels dropped, before hardening.
    pub raw: Problem,
    /// Labels deleted from `raw`, in order, by name.
    pub removals: Vec<String>,
    /// The hardened problem — the next chain element.
    pub problem: Problem,
}

/// Why [`crate::engine::Engine::auto_upper_bound`] gave up, when it did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UbFailure {
    /// The step budget ran out before any endpoint fired.
    MaxSteps,
    /// Hardening could not bring the alphabet within budget without
    /// emptying a constraint.
    CannotHarden,
    /// The engine failed (label overflow, degenerate problem, …).
    Engine(String),
}

/// The result of an automatic upper-bound search.
#[derive(Debug, Clone)]
pub struct AutoUbOutcome {
    /// Chain element 0 (the input, unused labels dropped).
    pub initial: Problem,
    /// Chain links; link `i` turns element `i` into element `i+1`.
    pub steps: Vec<UbStep>,
    /// The certified bound, if one was found.
    pub bound: Option<UpperBound>,
    /// Why the search stopped without a bound, otherwise.
    pub failure: Option<UbFailure>,
    /// The coloring parameter that was tested, if any.
    pub coloring: Option<usize>,
}

impl AutoUbOutcome {
    /// The chain elements `Π₀, Π₁, …` (input plus one per step).
    pub fn chain(&self) -> impl Iterator<Item = &Problem> {
        std::iter::once(&self.initial).chain(self.steps.iter().map(|s| &s.problem))
    }
}

fn endpoint(p: &Problem, rounds: usize, coloring: Option<usize>) -> Option<UpperBound> {
    if let Some(w) = zeroround::universal_witness(p) {
        return Some(UpperBound { rounds, kind: UbKind::Pn, witness: vec![w] });
    }
    if let Some(w) = zeroround::analyze(p).witness {
        return Some(UpperBound { rounds, kind: UbKind::EdgeColoring, witness: vec![w] });
    }
    if let Some(c) = coloring {
        if let Some(ws) = zeroround::coloring_witness(p, c) {
            return Some(UpperBound {
                rounds,
                kind: UbKind::VertexColoring { colors: c },
                witness: ws,
            });
        }
    }
    None
}

/// The search loop behind [`crate::engine::Engine::auto_upper_bound`],
/// parameterized over how one `Π ↦ R̄(R(Π))` application is computed (the
/// engine passes its cache-serving session step).
pub(crate) fn auto_upper_bound_with_step(
    p: &Problem,
    opts: &AutoUbOptions,
    mut step_fn: impl FnMut(&Problem) -> Result<(Step, Step)>,
) -> AutoUbOutcome {
    let (initial, _) = p.drop_unused_labels();
    let mut outcome = AutoUbOutcome {
        initial: initial.clone(),
        steps: Vec::new(),
        bound: None,
        failure: None,
        coloring: opts.coloring,
    };
    if let Some(b) = endpoint(&initial, 0, opts.coloring) {
        outcome.bound = Some(b);
        return outcome;
    }

    let mut prev = initial;
    for step in 1..=opts.max_steps {
        let rbar = match step_fn(&prev) {
            Ok((_, rbar)) => rbar,
            Err(e) => {
                outcome.failure = Some(UbFailure::Engine(e.to_string()));
                return outcome;
            }
        };
        let (raw, _) = rbar.problem.drop_unused_labels();

        let mut removals = Vec::new();
        let mut cur = raw.clone();
        while cur.alphabet().len() > opts.label_budget {
            match best_removal(&cur) {
                Some((name, hardened)) => {
                    removals.push(name);
                    cur = hardened;
                }
                None => {
                    outcome.steps.push(UbStep { raw, removals, problem: cur });
                    outcome.failure = Some(UbFailure::CannotHarden);
                    return outcome;
                }
            }
        }

        outcome.steps.push(UbStep { raw, removals, problem: cur.clone() });
        if let Some(b) = endpoint(&cur, step, opts.coloring) {
            outcome.bound = Some(b);
            return outcome;
        }
        prev = cur;
    }
    outcome.failure = Some(UbFailure::MaxSteps);
    outcome
}

/// Picks the label whose deletion keeps both constraints non-empty and
/// preserves the most configurations.
fn best_removal(p: &Problem) -> Option<(String, Problem)> {
    let mut best: Option<(Label, Problem, usize)> = None;
    for l in p.alphabet().labels() {
        let Ok(hardened) = simplify::remove_label(p, l) else { continue };
        let kept = hardened.node().len() + hardened.edge().len();
        if best.as_ref().is_none_or(|(_, _, k)| kept > *k) {
            best = Some((l, hardened, kept));
        }
    }
    best.map(|(l, hardened, _)| (p.alphabet().name(l).to_string(), hardened))
}

/// Replays and verifies an [`AutoUbOutcome`] from scratch.
///
/// Re-runs every `R̄(R(·))` step on `engine` (see
/// [`crate::autolb::verify_chain`]), re-applies the recorded label
/// deletions by name, checks the chain matches, and re-checks the claimed
/// endpoint on the final problem. Returns the certified rounds when a
/// bound is claimed.
///
/// # Errors
///
/// Returns [`RelimError::InvalidParameter`] on the first mismatch, or any
/// engine error hit during the replay.
pub fn verify_ub(outcome: &AutoUbOutcome, engine: &Engine) -> Result<Option<usize>> {
    let mismatch = |message: String| RelimError::InvalidParameter { message };
    let mut prev = outcome.initial.clone();
    for (i, step) in outcome.steps.iter().enumerate() {
        let (_, rbar) = engine.rr_step(&prev)?;
        let (raw, _) = rbar.problem.drop_unused_labels();
        if !crate::iso::isomorphic(&raw, &step.raw) {
            return Err(mismatch(format!("step {i}: recorded raw problem does not match replay")));
        }
        let mut cur = raw;
        for name in &step.removals {
            let l = cur.alphabet().label(name)?;
            cur = simplify::remove_label(&cur, l)?;
        }
        if !crate::iso::isomorphic(&cur, &step.problem) {
            return Err(mismatch(format!(
                "step {i}: removals do not reproduce the recorded problem"
            )));
        }
        prev = cur;
    }
    match &outcome.bound {
        None => Ok(None),
        Some(bound) => {
            if bound.rounds != outcome.steps.len() {
                return Err(mismatch(format!(
                    "bound claims {} rounds but the chain has {} steps",
                    bound.rounds,
                    outcome.steps.len()
                )));
            }
            let ok = match bound.kind {
                UbKind::Pn => zeroround::solvable_pn_universal(&prev),
                UbKind::EdgeColoring => zeroround::solvable_deterministically(&prev),
                UbKind::VertexColoring { colors } => {
                    zeroround::coloring_witness(&prev, colors).is_some()
                }
            };
            if !ok {
                return Err(mismatch("claimed endpoint does not hold on the final problem".into()));
            }
            Ok(Some(bound.rounds))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;

    fn auto_upper_bound(p: &Problem, opts: &AutoUbOptions) -> AutoUbOutcome {
        Engine::sequential().auto_upper_bound(p, opts)
    }

    #[test]
    fn trivial_problem_zero_rounds() {
        let p = Problem::from_text("A A A", "A A").unwrap();
        let outcome = auto_upper_bound(&p, &AutoUbOptions::default());
        let bound = outcome.bound.clone().expect("found");
        assert_eq!(bound.rounds, 0);
        assert_eq!(bound.kind, UbKind::Pn);
        assert_eq!(verify_ub(&outcome, &Engine::sequential()).unwrap(), Some(0));
    }

    #[test]
    fn perfect_matching_zero_rounds_with_edge_coloring() {
        let pm = Problem::from_text("M O", "M M\nO O").unwrap();
        let outcome = auto_upper_bound(&pm, &AutoUbOptions::default());
        let bound = outcome.bound.clone().expect("found");
        assert_eq!(bound.rounds, 0);
        assert_eq!(bound.kind, UbKind::EdgeColoring);
        assert!(verify_ub(&outcome, &Engine::sequential()).is_ok());
    }

    #[test]
    fn two_coloring_needs_the_coloring_input() {
        let p = Problem::from_text("A A A\nB B B", "A B").unwrap();
        // Without the coloring endpoint the bare criteria do not fire
        // within the step budget (2-coloring needs symmetry breaking).
        let plain =
            auto_upper_bound(&p, &AutoUbOptions { max_steps: 2, label_budget: 12, coloring: None });
        assert!(plain.bound.is_none());
        // With it, 0 rounds.
        let with = auto_upper_bound(&p, &AutoUbOptions { coloring: Some(2), ..Default::default() });
        let bound = with.bound.clone().expect("found");
        assert_eq!(bound.rounds, 0);
        assert_eq!(bound.kind, UbKind::VertexColoring { colors: 2 });
    }

    #[test]
    fn mis_on_cycles_bounded_given_coloring() {
        // MIS at Δ = 2 (cycles): given a proper 3-coloring the classic
        // greedy-by-color algorithm takes O(1) rounds; the chain should
        // terminate within a few steps.
        let mis2 = Problem::from_text("M M\nP O", "M [P O]\nO O").unwrap();
        let opts = AutoUbOptions { max_steps: 6, label_budget: 14, coloring: Some(3) };
        let outcome = auto_upper_bound(&mis2, &opts);
        let bound =
            outcome.bound.clone().expect("MIS on cycles has a constant bound given a 3-coloring");
        assert!(bound.rounds <= 6);
        assert!(matches!(bound.kind, UbKind::VertexColoring { colors: 3 }));
        assert_eq!(verify_ub(&outcome, &Engine::sequential()).unwrap(), Some(bound.rounds));
    }

    #[test]
    fn triviality_can_appear_after_one_step() {
        // N = {01, 02, 12, 22}, E = {02, 11} at Δ = 2: not 0-round
        // solvable (no configuration passes either criterion), but its
        // R̄(R(·)) derivative is trivial — after one round nodes see the
        // edge orientation input that radius-0 views lack (cf. the paper's
        // Lemma 12 proof remark). So the upper-bound search legitimately
        // certifies 1 round for it.
        let p = Problem::from_text("A B\nA C\nB C\nC C", "A C\nB B").unwrap();
        assert!(!zeroround::solvable_pn_universal(&p));
        assert!(!zeroround::solvable_deterministically(&p));
        let outcome =
            auto_upper_bound(&p, &AutoUbOptions { max_steps: 2, label_budget: 16, coloring: None });
        let bound = outcome.bound.clone().expect("one-round bound");
        assert_eq!(bound.rounds, 1);
        assert!(verify_ub(&outcome, &Engine::sequential()).is_ok());
    }

    #[test]
    fn verify_rejects_tampering() {
        let pm = Problem::from_text("M O", "M M\nO O").unwrap();
        let mut outcome = auto_upper_bound(&pm, &AutoUbOptions::default());
        outcome.bound.as_mut().unwrap().rounds = 1;
        assert!(verify_ub(&outcome, &Engine::sequential()).is_err());
    }

    #[test]
    fn failure_reports_max_steps() {
        let mis = Problem::from_text("M M M\nP O O", "M [P O]\nO O").unwrap();
        let outcome = auto_upper_bound(
            &mis,
            &AutoUbOptions { max_steps: 1, label_budget: 10, coloring: None },
        );
        assert!(outcome.bound.is_none());
        assert_eq!(outcome.failure, Some(UbFailure::MaxSteps));
        assert_eq!(verify_ub(&outcome, &Engine::sequential()).unwrap(), None);
    }
}
