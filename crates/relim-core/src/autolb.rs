//! Automatic lower-bound search (the round-eliminator's "autolb" workflow).
//!
//! A lower-bound sequence (paper §1.2) is a chain `Π₀ → Π₁ → …` where each
//! `Π_{i+1}` is 0-round solvable **from** `R̄(R(Π_i))` — here obtained by
//! *merging labels* of `R̄(R(Π_i))`, which is always a relaxation
//! ([`crate::simplify::merge_labels`]) — and every chain problem is *not*
//! 0-round solvable. A chain of `t+1` non-trivial problems certifies that
//! `Π₀` needs at least `t+1` rounds in the port-numbering model on
//! high-girth graphs:
//!
//! ```text
//! T(Π₀) ≥ T(Π₁) + 1 ≥ … ≥ T(Π_t) + t ≥ 1 + t.
//! ```
//!
//! The search below drives this automatically: apply `R̄(R(·))`, merge
//! diagram-adjacent labels until the alphabet fits a budget (rejecting any
//! merge that would make the problem 0-round solvable), detect fixed points
//! (which certify *unbounded* PN lower bounds, hence `Ω(log n)` /
//! `Ω(log log n)` in the deterministic/randomized LOCAL model by the
//! standard lifting), and stop when the chain cannot be extended.
//!
//! Every outcome carries a machine-checkable certificate: [`verify_chain`]
//! replays the round elimination steps and merges from scratch and
//! re-checks non-triviality of every chain element.
//!
//! The search is driven through a [`crate::engine::Engine`] session, which
//! shares one sub-multiset index cache across every step of the merge
//! search:
//!
//! ```
//! use relim_core::engine::Engine;
//! use relim_core::{autolb, Problem};
//!
//! // Sinkless orientation at Δ = 3 is a fixed point of R̄(R(·)): the
//! // search discovers it and certifies an unbounded PN lower bound.
//! let engine = Engine::sequential();
//! let so = Problem::from_text("O I I", "[O I] I").unwrap();
//! let outcome = engine.auto_lower_bound(&so, &autolb::AutoLbOptions::default());
//! assert!(outcome.unbounded());
//! assert!(autolb::verify_chain(&outcome, &engine).is_ok());
//! ```

use crate::diagram::StrengthOrder;
use crate::engine::Engine;
use crate::error::{RelimError, Result};
use crate::iso;
use crate::label::Label;
use crate::problem::Problem;
use crate::roundelim::Step;
use crate::simplify;
use crate::zeroround;

/// The 0-round solvability criterion that ends (and certifies) a chain.
///
/// The criterion decides both *when the chain stops* and *what the bound
/// means*: the stricter [`Triviality::GadgetEdgeColoring`] requirement
/// (problems must stay unsolvable even on the identified-ports gadget)
/// yields bounds that hold **even when a Δ-edge coloring is given as
/// input** — the paper's setting (Lemmas 12/15).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Triviality {
    /// Bare PN model: trivial iff some node configuration has *all pairs*
    /// edge-compatible ([`zeroround::solvable_pn_universal`]). Chains may
    /// be longer, but certify only bare-PN lower bounds.
    Universal,
    /// Identified-ports gadget: trivial iff some node configuration has
    /// all labels *self*-compatible
    /// ([`zeroround::solvable_deterministically`]). Chains certify lower
    /// bounds that survive a Δ-edge-coloring input, as in the paper.
    #[default]
    GadgetEdgeColoring,
}

impl Triviality {
    /// Whether `p` is 0-round solvable under this criterion.
    pub fn is_trivial(self, p: &Problem) -> bool {
        match self {
            Triviality::Universal => zeroround::solvable_pn_universal(p),
            Triviality::GadgetEdgeColoring => zeroround::solvable_deterministically(p),
        }
    }
}

/// Options for [`crate::engine::Engine::auto_lower_bound`].
#[derive(Debug, Clone)]
pub struct AutoLbOptions {
    /// Maximum number of `R̄(R(·))` steps to take.
    pub max_steps: usize,
    /// After each step, merge labels until the alphabet has at most this
    /// many labels.
    pub label_budget: usize,
    /// Criterion certifying non-0-round-solvability (see [`Triviality`]).
    pub triviality: Triviality,
}

impl Default for AutoLbOptions {
    fn default() -> Self {
        AutoLbOptions { max_steps: 8, label_budget: 6, triviality: Triviality::default() }
    }
}

/// One link of a certified chain: `R̄(R(prev))` plus the merges that
/// produced the next chain element.
#[derive(Debug, Clone)]
pub struct ChainStep {
    /// `R̄(R(prev))` with unused labels dropped, before simplification.
    pub raw: Problem,
    /// Merges applied in order; each pair is `(from, to)` by label *name*
    /// in the alphabet current at the time of the merge.
    pub merges: Vec<(String, String)>,
    /// The simplified problem — the next chain element.
    pub problem: Problem,
}

/// Why [`crate::engine::Engine::auto_lower_bound`] stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AutoLbStop {
    /// The input problem is already 0-round solvable: no bound.
    InitialTrivial,
    /// The latest derived problem is 0-round solvable even before merging;
    /// the chain cannot be extended past it.
    BecameTrivial,
    /// Every merge bringing the alphabet within budget makes the problem
    /// 0-round solvable; the chain stops at the previous element.
    NoViableMerge,
    /// The step budget ran out with the chain still extending.
    MaxSteps,
    /// The latest chain element is isomorphic to its predecessor: the
    /// chain extends forever, certifying an **unbounded** PN lower bound.
    FixedPoint,
    /// The engine failed (e.g. more labels than the engine supports before
    /// any merge could apply).
    Engine(String),
}

/// The result of an automatic lower-bound search.
#[derive(Debug, Clone)]
pub struct AutoLbOutcome {
    /// Chain element 0 (the input, unused labels dropped).
    pub initial: Problem,
    /// Chain links; link `i` turns element `i` into element `i+1`.
    pub steps: Vec<ChainStep>,
    /// Why the search stopped.
    pub stopped: AutoLbStop,
    /// The criterion that was enforced on every chain element.
    pub triviality: Triviality,
    /// Rounds certified: the number of consecutive non-trivial chain
    /// elements starting from the input. When `stopped` is
    /// [`AutoLbStop::FixedPoint`] the true bound is unbounded and this
    /// field only reflects the explicit prefix.
    pub certified_rounds: usize,
}

impl AutoLbOutcome {
    /// The chain elements `Π₀, Π₁, …` (input plus one per step).
    pub fn chain(&self) -> impl Iterator<Item = &Problem> {
        std::iter::once(&self.initial).chain(self.steps.iter().map(|s| &s.problem))
    }

    /// Whether the search proved an unbounded PN lower bound (fixed point).
    pub fn unbounded(&self) -> bool {
        self.stopped == AutoLbStop::FixedPoint
    }
}

/// The search loop behind [`crate::engine::Engine::auto_lower_bound`],
/// parameterized over how one `Π ↦ R̄(R(Π))` application is computed (the
/// engine passes its cache-serving session step).
pub(crate) fn auto_lower_bound_with_step(
    p: &Problem,
    opts: &AutoLbOptions,
    mut step_fn: impl FnMut(&Problem) -> Result<(Step, Step)>,
) -> AutoLbOutcome {
    let (initial, _) = p.drop_unused_labels();
    let done = |steps: Vec<ChainStep>, stopped: AutoLbStop, certified: usize| AutoLbOutcome {
        initial: initial.clone(),
        steps,
        stopped,
        triviality: opts.triviality,
        certified_rounds: certified,
    };

    if opts.triviality.is_trivial(&initial) {
        return done(Vec::new(), AutoLbStop::InitialTrivial, 0);
    }

    let mut chain_len = 1usize; // non-trivial elements so far
    let mut steps: Vec<ChainStep> = Vec::new();
    let mut prev = initial.clone();

    for _ in 0..opts.max_steps {
        let rbar = match step_fn(&prev) {
            Ok((_, rbar)) => rbar,
            Err(e) => return done(steps, AutoLbStop::Engine(e.to_string()), chain_len),
        };
        let (raw, _) = rbar.problem.drop_unused_labels();

        if opts.triviality.is_trivial(&raw) {
            // Merging only relaxes further; the chain ends here.
            steps.push(ChainStep { raw: raw.clone(), merges: Vec::new(), problem: raw });
            return done(steps, AutoLbStop::BecameTrivial, chain_len);
        }

        let mut merges = Vec::new();
        let mut cur = raw.clone();
        while cur.alphabet().len() > opts.label_budget {
            match best_merge(&cur, opts.triviality) {
                Some((from, to, merged)) => {
                    merges.push((from, to));
                    cur = merged;
                }
                None => {
                    return done(steps, AutoLbStop::NoViableMerge, chain_len);
                }
            }
        }

        let fixed = iso::isomorphic(&cur, &prev);
        steps.push(ChainStep { raw, merges, problem: cur.clone() });
        chain_len += 1;
        if fixed {
            return done(steps, AutoLbStop::FixedPoint, chain_len);
        }
        prev = cur;
    }
    done(steps, AutoLbStop::MaxSteps, chain_len)
}

/// Picks the best label merge of `p` that keeps the problem non-trivial.
///
/// Candidates are pairs adjacent in the edge diagram (the round-eliminator
/// heuristic: identifying comparable labels loses the least structure),
/// falling back to all pairs when no adjacent merge survives. Among
/// survivors the merge minimizing the configuration count wins, with
/// label-equivalent pairs (identical strength) preferred outright.
fn best_merge(p: &Problem, triviality: Triviality) -> Option<(String, String, Problem)> {
    let order = StrengthOrder::of_constraint(p.edge(), p.alphabet().len());
    let adjacent: Vec<(Label, Label)> = order.hasse_edges();
    let all_pairs: Vec<(Label, Label)> = {
        let n = p.alphabet().len();
        (0..n)
            .flat_map(|i| ((i + 1)..n).map(move |j| (Label::new(i as u8), Label::new(j as u8))))
            .collect()
    };

    for candidates in [&adjacent, &all_pairs] {
        let mut best: Option<(Label, Label, Problem, (usize, usize))> = None;
        for &(a, b) in candidates.iter() {
            let Ok(merged) = simplify::merge_labels(p, a, b) else { continue };
            if triviality.is_trivial(&merged) {
                continue;
            }
            // Equivalent labels merge losslessly: take such a merge at once.
            let score = if order.equivalent(a, b) {
                (0, 0)
            } else {
                (merged.node().len() + merged.edge().len(), merged.alphabet().len())
            };
            if best.as_ref().is_none_or(|(_, _, _, s)| score < *s) {
                best = Some((a, b, merged, score));
            }
        }
        if let Some((a, b, merged, _)) = best {
            let from = p.alphabet().name(a).to_string();
            let to = p.alphabet().name(b).to_string();
            return Some((from, to, merged));
        }
    }
    None
}

/// Replays and verifies an [`AutoLbOutcome`] from scratch.
///
/// Re-runs every `R̄(R(·))` step on `engine`, re-applies the recorded
/// merges by name, checks the results match the recorded problems, and
/// re-checks the non-triviality of every chain element. Returns the
/// certified number of rounds. A warm session replays the same bytes as
/// a fresh one: its cache only shares sub-multiset indices, which are
/// pure functions of their constraints.
///
/// # Errors
///
/// Returns [`RelimError::InvalidParameter`] describing the first mismatch,
/// or any engine error hit during the replay.
pub fn verify_chain(outcome: &AutoLbOutcome, engine: &Engine) -> Result<usize> {
    let mismatch = |message: String| RelimError::InvalidParameter { message };
    if outcome.stopped == AutoLbStop::InitialTrivial {
        if !outcome.triviality.is_trivial(&outcome.initial) {
            return Err(mismatch("outcome says InitialTrivial but the input is not".into()));
        }
        return Ok(0);
    }
    if outcome.triviality.is_trivial(&outcome.initial) {
        return Err(mismatch("chain element 0 is 0-round solvable".into()));
    }

    let mut certified = 1usize;
    let mut prev = outcome.initial.clone();
    for (i, step) in outcome.steps.iter().enumerate() {
        let (_, rbar) = engine.rr_step(&prev)?;
        let (raw, _) = rbar.problem.drop_unused_labels();
        if !iso::isomorphic(&raw, &step.raw) {
            return Err(mismatch(format!("step {i}: recorded raw problem does not match replay")));
        }
        let mut cur = raw;
        for (from, to) in &step.merges {
            let f = cur.alphabet().label(from)?;
            let t = cur.alphabet().label(to)?;
            cur = simplify::merge_labels(&cur, f, t)?;
        }
        if !iso::isomorphic(&cur, &step.problem) {
            return Err(mismatch(format!(
                "step {i}: merges do not reproduce the recorded problem"
            )));
        }
        let trivial = outcome.triviality.is_trivial(&cur);
        let last = i + 1 == outcome.steps.len();
        match (trivial, last, &outcome.stopped) {
            (true, true, AutoLbStop::BecameTrivial) => {} // allowed terminal element
            (true, _, _) => {
                return Err(mismatch(format!("step {i}: chain element is 0-round solvable")))
            }
            (false, _, _) => certified += 1,
        }
        prev = cur;
    }
    if certified != outcome.certified_rounds {
        return Err(mismatch(format!(
            "certified {certified} rounds, outcome claims {}",
            outcome.certified_rounds
        )));
    }
    Ok(certified)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;

    fn mis3() -> Problem {
        Problem::from_text("M M M\nP O O", "M [P O]\nO O").unwrap()
    }

    fn auto_lower_bound(p: &Problem, opts: &AutoLbOptions) -> AutoLbOutcome {
        Engine::sequential().auto_lower_bound(p, opts)
    }

    #[test]
    fn sinkless_orientation_is_unbounded() {
        let so = Problem::from_text("O I I", "[O I] I").unwrap();
        let outcome = auto_lower_bound(&so, &AutoLbOptions::default());
        assert_eq!(outcome.stopped, AutoLbStop::FixedPoint);
        assert!(outcome.unbounded());
        // One step suffices to witness the fixed point.
        assert_eq!(outcome.steps.len(), 1);
        assert!(outcome.steps[0].merges.is_empty());
        assert_eq!(
            verify_chain(&outcome, &Engine::sequential()).unwrap(),
            outcome.certified_rounds
        );
    }

    #[test]
    fn trivial_input_reports_zero() {
        let p = Problem::from_text("A A A", "A A").unwrap();
        let outcome = auto_lower_bound(&p, &AutoLbOptions::default());
        assert_eq!(outcome.stopped, AutoLbStop::InitialTrivial);
        assert_eq!(outcome.certified_rounds, 0);
        assert_eq!(verify_chain(&outcome, &Engine::sequential()).unwrap(), 0);
    }

    #[test]
    fn mis_chain_extends_and_verifies() {
        let opts = AutoLbOptions { max_steps: 3, label_budget: 5, ..Default::default() };
        let outcome = auto_lower_bound(&mis3(), &opts);
        // MIS is not 0-round solvable, so at least the input is certified.
        assert!(outcome.certified_rounds >= 1);
        // Whatever happened, the certificate must replay.
        assert_eq!(
            verify_chain(&outcome, &Engine::sequential()).unwrap(),
            outcome.certified_rounds
        );
        // All recorded chain elements respect the criterion except a
        // trailing trivial element in the BecameTrivial case.
        let n = outcome.steps.len();
        for (i, step) in outcome.steps.iter().enumerate() {
            let trivial = outcome.triviality.is_trivial(&step.problem);
            if i + 1 < n || outcome.stopped != AutoLbStop::BecameTrivial {
                assert!(!trivial, "chain element {} unexpectedly trivial", i + 1);
            }
        }
    }

    #[test]
    fn universal_criterion_gives_no_shorter_chain() {
        // Universal triviality is harder to reach than gadget triviality,
        // so the universal chain certifies at least as many rounds.
        let opts_g = AutoLbOptions {
            max_steps: 2,
            label_budget: 5,
            triviality: Triviality::GadgetEdgeColoring,
        };
        let opts_u = AutoLbOptions { triviality: Triviality::Universal, ..opts_g.clone() };
        let g = auto_lower_bound(&mis3(), &opts_g);
        let u = auto_lower_bound(&mis3(), &opts_u);
        assert!(u.certified_rounds >= g.certified_rounds);
    }

    #[test]
    fn verify_rejects_tampered_chain() {
        let so = Problem::from_text("O I I", "[O I] I").unwrap();
        let mut outcome = auto_lower_bound(&so, &AutoLbOptions::default());
        outcome.certified_rounds += 1;
        assert!(verify_chain(&outcome, &Engine::sequential()).is_err());
    }

    #[test]
    fn verify_rejects_swapped_problem() {
        let so = Problem::from_text("O I I", "[O I] I").unwrap();
        let mut outcome = auto_lower_bound(&so, &AutoLbOptions::default());
        // Replace the recorded step problem with something else entirely.
        outcome.steps[0].problem = mis3();
        assert!(verify_chain(&outcome, &Engine::sequential()).is_err());
    }

    #[test]
    fn perfect_matching_trivial_under_gadget_only() {
        // N = {MO}, E = {MM, OO}: 0-round solvable given a 2-edge coloring,
        // so the gadget-criterion search reports InitialTrivial while the
        // universal-criterion search can still build a chain.
        let pm = Problem::from_text("M O", "M M\nO O").unwrap();
        let gadget = auto_lower_bound(&pm, &AutoLbOptions::default());
        assert_eq!(gadget.stopped, AutoLbStop::InitialTrivial);
        let universal = auto_lower_bound(
            &pm,
            &AutoLbOptions { triviality: Triviality::Universal, ..Default::default() },
        );
        assert!(universal.certified_rounds >= 1);
        assert_eq!(
            verify_chain(&universal, &Engine::sequential()).unwrap(),
            universal.certified_rounds
        );
    }
}
