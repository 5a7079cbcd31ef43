//! The round elimination operators `R(·)` and `R̄(·)` (paper §2.3).
//!
//! Given a problem `Π = (Σ, N, E)`:
//!
//! * [`r_step`] computes `Π' = R(Π)`:
//!   - `E_Π'`: all **maximal** configurations `A₁ A₂` of non-empty label sets
//!     such that every choice `(a₁, a₂) ∈ A₁ × A₂` lies in `E_Π`;
//!   - `Σ_Π'`: the sets appearing in `E_Π'`;
//!   - `N_Π'`: all configurations `B₁ … B_Δ` over `Σ_Π'` admitting **some**
//!     choice in `N_Π`.
//! * [`crate::engine::Engine::rbar_step`] computes `Π'' = R̄(Π')` — the same
//!   with the roles of node and edge constraints swapped.
//!
//! By Brandt's automatic speedup theorem (paper Theorem 3), on Δ-regular
//! trees of girth `≥ 2T+2`, `Π` is solvable in `T` rounds iff `R̄(R(Π))` is
//! solvable in `max{T−1, 0}` rounds in the port numbering model.
//!
//! The universal ("for-all + maximality") sides use three exact
//! accelerations:
//!
//! 1. **Observation 4** (right-closedness): maximal configurations only use
//!    label sets that are upward-closed in the relevant strength order, so
//!    candidates are enumerated over [`crate::rightclosed::right_closed_sets`].
//! 2. For the degree-2 edge side, maximal pairs are exactly the fixed points
//!    of the Galois connection `A ↦ ⋂_{a∈A} compat(a)`.
//! 3. **Maximality by covers** wherever a side is enumerated: the DFS emits
//!    *every* universal configuration over the candidates, and that family
//!    is down-closed, so a configuration is dominated iff replacing one of
//!    its sets by one cover of it (a next larger candidate) stays in the
//!    family — one hash lookup per try, no pairwise matching.
//!
//! This module holds only pure functions: [`r_step`], the universal-side
//! enumeration and maximality filter, the existential replacement and the
//! brute-force oracles. `R̄(·)`, `R̄∘R` and the biregular half step are
//! reached only through the session, [`crate::engine::Engine`], whose one
//! universal-side method (`Engine::universal_side`) checks [`MAX_LABELS`]
//! and [`MAX_DEGREE`], takes the sub-multiset index from the session's
//! [`crate::iterate::SubIndexCache`], and runs the enumeration on the
//! session pool as one batch: the DFS split at the top candidate level
//! into one subtree task per starting candidate, run by the persistent
//! worker set in candidate order (task payloads are `Arc`-owned, so no
//! threads are spawned per call). Results are concatenated in canonical
//! order, so the output is **byte-identical** at any thread count; a
//! width-1 session runs every batch inline on the calling thread. The
//! brute-force oracles at the end of this module
//! ([`dominance_filter_reference`], [`r_step_edge_bruteforce`],
//! [`rbar_step_node_bruteforce`]) are what the differential suites check
//! the session against.

use crate::config::{Config, SetConfig};
use crate::constraint::{Constraint, SubMultisetIndex};
use crate::diagram::StrengthOrder;
use crate::error::{RelimError, Result};
use crate::label::{Alphabet, Label};
use crate::labelset::LabelSet;
use crate::line::Line;
use crate::matching::unit_assignment_feasible;
use crate::problem::Problem;
use crate::relax::subset_masks;
use crate::rightclosed::right_closed_sets;
use crate::scratch::{with_scratch, ScratchArena};
use relim_pool::Pool;
use std::collections::HashSet;
use std::sync::Arc;

/// Largest alphabet the universal-side enumeration accepts — the
/// right-closed-set enumeration limit of
/// [`crate::rightclosed::right_closed_sets`]. Checked by [`r_step`] and
/// by `Engine::universal_side`, the one universal side of `R̄(·)` and
/// [`crate::biregular::half_step`].
pub const MAX_LABELS: usize = 22;

/// Largest constraint degree the universal side accepts. Maximality by
/// covers has no width limit of its own, but the derived configurations
/// are later compared by [`dominates`] and `relax::subset_masks`, which
/// match positions through `u64` bitmasks, one bit per position. Checked
/// with [`MAX_LABELS`] by `Engine::universal_side`, before the session
/// cache is read, so a refused input builds no index.
pub const MAX_DEGREE: u32 = 64;

/// The result of one `R(·)` or `R̄(·)` application.
///
/// `provenance[i]` records which set of *old* labels the new label `i`
/// stands for.
#[derive(Debug, Clone)]
pub struct Step {
    /// The derived problem.
    pub problem: Problem,
    /// For each new label, the set of old labels it represents.
    pub provenance: Vec<LabelSet>,
}

impl Step {
    /// Views a configuration of the derived problem as a [`SetConfig`] over
    /// the old alphabet.
    pub fn as_set_config(&self, config: &Config) -> SetConfig {
        config.iter().map(|l| self.provenance[l.index()]).collect()
    }
}

/// Applies `R(·)`: universal step on the edge constraint, existential step on
/// the node constraint.
///
/// # Errors
///
/// Returns [`RelimError::DegenerateProblem`] when the derived problem would
/// have an empty constraint (the input admits no universal pairs or no
/// existential choices), and [`RelimError::TooManyLabels`] if the alphabet
/// exceeds the right-closed enumeration limit ([`MAX_LABELS`]).
///
/// # Example
///
/// ```
/// use relim_core::{Problem, roundelim::r_step};
///
/// let mis = Problem::from_text("M M M\nP O O", "M [P O]\nO O").unwrap();
/// let step = r_step(&mis).unwrap();
/// // Lemma 6 of the paper (specialised to the MIS sub-family) implies the
/// // new edge constraint consists of maximal pairs only.
/// assert_eq!(step.problem.edge().degree(), 2);
/// ```
pub fn r_step(p: &Problem) -> Result<Step> {
    let n = p.alphabet().len();
    if n > MAX_LABELS {
        return Err(RelimError::TooManyLabels { requested: n, limit: MAX_LABELS });
    }
    let order = StrengthOrder::of_constraint(p.edge(), n);
    let compat = p.edge_compat();

    // --- Universal side: maximal pairs via the Galois connection. ---
    let partner = |set: LabelSet| -> LabelSet {
        let mut acc = LabelSet::full(n);
        for a in set.iter() {
            acc = acc.intersect(compat[a.index()]);
        }
        acc
    };
    let mut pairs: Vec<(LabelSet, LabelSet)> = Vec::new();
    for &a in right_closed_sets(&order).iter() {
        let b = partner(a);
        if b.is_empty() {
            continue;
        }
        if partner(b) == a {
            pairs.push(if a <= b { (a, b) } else { (b, a) });
        }
    }
    pairs.sort_unstable();
    pairs.dedup();

    let set_configs: Vec<SetConfig> = pairs.iter().map(|&(a, b)| SetConfig::pair(a, b)).collect();
    let derived = derive_sides(p.alphabet(), set_configs, p.node())?;
    let problem = Problem::new(derived.alphabet, derived.existential, derived.universal)
        .expect("derived problem is valid");
    Ok(Step { problem, provenance: derived.provenance })
}

/// The two derived constraints of a speedup step, over the new alphabet.
pub(crate) struct DerivedSides {
    pub(crate) alphabet: Alphabet,
    pub(crate) universal: Constraint,
    pub(crate) existential: Constraint,
    pub(crate) provenance: Vec<LabelSet>,
}

/// From a computed universal side, builds the new alphabet (one label per
/// occurring set, named by display), installs the universal constraint and
/// computes the existential constraint from `exists_src` by the paper's
/// replacement method ("replace each label y by the disjunction of all
/// label sets containing y").
pub(crate) fn derive_sides(
    old_alphabet: &Alphabet,
    universal: Vec<SetConfig>,
    exists_src: &Constraint,
) -> Result<DerivedSides> {
    if universal.is_empty() {
        return Err(RelimError::DegenerateProblem {
            message: "universal side is empty: no maximal configurations exist".into(),
        });
    }
    // Collect the new alphabet: sets appearing in the universal side,
    // deterministically ordered by (cardinality, bitmask).
    let mut sets: Vec<LabelSet> = universal.iter().flat_map(|sc| sc.iter()).collect();
    sets.sort_unstable_by_key(|s| (s.len(), s.bits()));
    sets.dedup();

    let names: Vec<String> = sets.iter().map(|s| s.display(old_alphabet)).collect();
    let alphabet = Alphabet::new(&names).map_err(|_| RelimError::TooManyLabels {
        requested: names.len(),
        limit: crate::label::MAX_LABELS,
    })?;
    let label_of: std::collections::HashMap<LabelSet, Label> =
        sets.iter().enumerate().map(|(i, &s)| (s, Label::new(i as u8))).collect();

    let universal_constraint = Constraint::from_configs(
        universal.iter().map(|sc| sc.iter().map(|s| label_of[&s]).collect::<Config>()),
    )
    .expect("non-empty universal side");

    // Existential side: replacement method. D(y) = set of new labels whose
    // provenance contains old label y.
    let mut disjunction: Vec<LabelSet> = vec![LabelSet::EMPTY; old_alphabet.len()];
    for (i, s) in sets.iter().enumerate() {
        for y in s.iter() {
            disjunction[y.index()] = disjunction[y.index()].with(Label::new(i as u8));
        }
    }
    let lines: Vec<Line> = exists_src
        .iter()
        .filter_map(|cfg| {
            // Skip configurations containing labels that vanished from
            // the new alphabet (no set contains them): they admit no
            // choice and contribute nothing.
            let groups: Option<Vec<(LabelSet, u32)>> = cfg
                .counts()
                .into_iter()
                .map(|(y, cnt)| {
                    let d = disjunction[y.index()];
                    if d.is_empty() {
                        None
                    } else {
                        Some((d, cnt))
                    }
                })
                .collect();
            groups.map(|g| Line::new(g).expect("non-empty groups"))
        })
        .collect();
    let existential =
        Constraint::from_lines(&lines).map_err(|_| RelimError::DegenerateProblem {
            message: "existential side is empty: every configuration uses a vanished label".into(),
        })?;

    Ok(DerivedSides { alphabet, universal: universal_constraint, existential, provenance: sets })
}

/// Enumerates all configurations `B₁ … B_Δ` over `cands` whose every choice
/// is (a sub-multiset of) a node configuration — the universal condition.
///
/// DFS over non-decreasing candidate indices, carrying the deduplicated set
/// of partial-choice multisets. A partial choice that is not a sub-multiset
/// of any configuration can never be completed, pruning the branch
/// (soundness: the universal condition fails for any completion).
///
/// All DFS state (one frontier buffer per depth, the chosen stack) lives
/// in the running thread's [`crate::scratch::ScratchArena`], so repeat
/// calls on a warm worker allocate only for the output vector.
///
/// On a pool wider than one thread the DFS is split at the top candidate
/// level into one subtree task per starting candidate, submitted to the
/// persistent worker set as one batch whose participants take the
/// candidates in order (candidates and index are `Arc`-shared with the
/// `'static` tasks). Subtree outputs are concatenated in candidate
/// order, which is exactly the inline DFS emission order — output is
/// byte-identical at any thread count.
pub(crate) fn forall_multisets(
    cands: &[LabelSet],
    delta: u32,
    sub_index: &Arc<SubMultisetIndex>,
    pool: &Pool,
) -> Vec<SetConfig> {
    if delta == 0 {
        return vec![SetConfig::from_sets(&[])];
    }
    if pool.threads() <= 1 || cands.len() <= 1 {
        return with_scratch(|scratch| {
            start_dfs(scratch, delta);
            let mut out = Vec::new();
            forall_rec(cands, 0, delta, 0, scratch, sub_index, &mut out);
            out
        });
    }
    let tops: Vec<usize> = (0..cands.len()).collect();
    let cands: Arc<Vec<LabelSet>> = Arc::new(cands.to_vec());
    let sub_index = Arc::clone(sub_index);
    let subtrees: Vec<Vec<SetConfig>> = pool.map_owned(tops, move |&top| {
        // The level-0 step of `forall_rec` for candidate `top` alone.
        with_scratch(|scratch| {
            start_dfs(scratch, delta);
            let mut out = Vec::new();
            forall_step(&cands, top, delta, 0, scratch, &sub_index, &mut out);
            out
        })
    });
    subtrees.into_iter().flatten().collect()
}

/// Resets a scratch arena to the DFS root: nothing chosen, one empty
/// partial choice at depth 0.
fn start_dfs(scratch: &mut ScratchArena, delta: u32) {
    scratch.ensure_depth(delta as usize);
    scratch.chosen.clear();
    scratch.frontiers[0].clear();
    scratch.frontiers[0].push(Config::empty());
}

/// The shared DFS over non-decreasing candidate indices, carrying the
/// deduplicated set of partial-choice multisets (see [`forall_multisets`]).
///
/// `depth` is the number of candidates already chosen; the current
/// frontier is `scratch.frontiers[depth]` and each candidate extension is
/// built in `scratch.frontiers[depth + 1]` (taken out during the write so
/// the two depths never alias), clearing rather than reallocating across
/// sibling subtrees.
fn forall_rec(
    cands: &[LabelSet],
    start: usize,
    remaining: u32,
    depth: usize,
    scratch: &mut ScratchArena,
    sub_index: &SubMultisetIndex,
    out: &mut Vec<SetConfig>,
) {
    if remaining == 0 {
        out.push(SetConfig::from_sets(&scratch.chosen));
        return;
    }
    for i in start..cands.len() {
        forall_step(cands, i, remaining, depth, scratch, sub_index, out);
    }
}

/// One candidate step of [`forall_rec`]: extends every partial choice at
/// `depth` by every label of `cands[i]` and, unless some extension is no
/// sub-multiset of any configuration (no completion can then satisfy the
/// universal condition), recurses below the deduplicated extensions.
fn forall_step(
    cands: &[LabelSet],
    i: usize,
    remaining: u32,
    depth: usize,
    scratch: &mut ScratchArena,
    sub_index: &SubMultisetIndex,
    out: &mut Vec<SetConfig>,
) {
    let cand = cands[i];
    let mut next = std::mem::take(&mut scratch.frontiers[depth + 1]);
    next.clear();
    let mut ok = true;
    'ext: for m in &scratch.frontiers[depth] {
        for b in cand.iter() {
            let extended = m.with(b);
            if !sub_index.contains(&extended) {
                ok = false;
                break 'ext;
            }
            next.push(extended);
        }
    }
    if !ok {
        scratch.frontiers[depth + 1] = next;
        return;
    }
    next.sort_unstable();
    next.dedup();
    scratch.frontiers[depth + 1] = next;
    scratch.chosen.push(cand);
    forall_rec(cands, i, remaining - 1, depth + 1, scratch, sub_index, out);
    scratch.chosen.pop();
}

/// Keeps the maximal configurations of `raw`, in input order, by covers
/// (module doc, item 3). `raw` must be the complete universal family over
/// `cands` (sorted by cardinality) that [`forall_multisets`] emits. If `D`
/// dominates `C` through a matching `π`, some `C_i ⊊ D_π(i)`, and a cover
/// `S ⊆ D_π(i)` of `C_i` gives a member `C[i→S]` that `D` dominates.
pub(crate) fn cover_filter(mut raw: Vec<SetConfig>, cands: &[LabelSet]) -> Vec<SetConfig> {
    // `cands[k]`'s covers are `covers[starts[k]..starts[k + 1]]`. A set
    // between two candidates is smaller than the upper one: it came first.
    let mut covers: Vec<LabelSet> = Vec::new();
    let mut starts = Vec::with_capacity(cands.len() + 1);
    starts.push(0);
    for &set in cands {
        let first = covers.len();
        for &up in cands {
            if up != set
                && set.is_subset_of(up)
                && !covers[first..].iter().any(|c| c.is_subset_of(up))
            {
                covers.push(up);
            }
        }
        starts.push(covers.len());
    }
    let members: HashSet<&SetConfig> = raw.iter().collect();
    let dominated: Vec<bool> = raw
        .iter()
        .map(|config| {
            let sets = config.as_slice();
            // Equal sets give equal probes: try the first of each run.
            (0..sets.len()).filter(|&i| i == 0 || sets[i] != sets[i - 1]).any(|i| {
                let key = |c: &LabelSet| (c.len(), c.bits());
                let k = cands.binary_search_by_key(&key(&sets[i]), key).expect("a candidate");
                covers[starts[k]..starts[k + 1]].iter().any(|&cover| {
                    // Inline up to `INLINE_DEGREE`: no allocation per probe.
                    let probe: SetConfig = sets
                        .iter()
                        .enumerate()
                        .map(|(j, &s)| if j == i { cover } else { s })
                        .collect();
                    members.contains(&probe)
                })
            })
        })
        .collect();
    let mut dominated = dominated.into_iter();
    raw.retain(|_| !dominated.next().expect("one flag per configuration"));
    raw
}

/// The quadratic dominance filter: keeps the configurations no other one
/// dominates, in input order, for any input. It is the oracle the
/// maximality-by-covers filter of `R̄` is tested against, and it filters
/// both brute-force oracles below.
pub fn dominance_filter_reference(configs: Vec<SetConfig>) -> Vec<SetConfig> {
    let mut keep = vec![true; configs.len()];
    for i in 0..configs.len() {
        if !keep[i] {
            continue;
        }
        for j in 0..configs.len() {
            if i == j || !keep[i] {
                continue;
            }
            if keep[j] && dominates(&configs[j], &configs[i]) {
                keep[i] = false;
            }
        }
    }
    configs.into_iter().zip(keep).filter_map(|(c, k)| k.then_some(c)).collect()
}

/// Whether `big` dominates `small`: `big ≠ small` and there is a perfect
/// matching pairing every position of `small` with a distinct position of
/// `big` such that `small_i ⊆ big_j` — `small` relaxes to `big`
/// (Definition 7, [`crate::relax::config_relaxes_to`]) and differs from it.
///
/// # Panics
///
/// Panics when both configurations have a degree above [`MAX_DEGREE`]
/// (one mask bit per position).
pub fn dominates(big: &SetConfig, small: &SetConfig) -> bool {
    if big == small || big.degree() != small.degree() {
        return false;
    }
    let big_sets = big.as_slice();
    let small_sets = small.as_slice();
    let options = subset_masks(small_sets.iter().copied(), big_sets.iter().copied());
    let options = options.as_slice();
    // Hall-style pre-check before the matching: every run of equal sets in
    // `small` (they share one options mask, since `small` is sorted) needs
    // at least as many distinct superset positions in `big`.
    let mut k = 0;
    while k < small_sets.len() {
        let mut m = k;
        while m < small_sets.len() && small_sets[m] == small_sets[k] {
            m += 1;
        }
        if (options[k].count_ones() as usize) < m - k {
            return false;
        }
        k = m;
    }
    unit_assignment_feasible(options, big_sets.len())
}

/// Brute-force reference implementation of the universal edge side, without
/// the right-closedness and Galois accelerations. Exposed for differential
/// testing; exponential in `|Σ|`. Filters with the quadratic
/// [`dominance_filter_reference`].
///
/// # Errors
///
/// Returns an error if the alphabet has more than 16 labels.
pub fn r_step_edge_bruteforce(p: &Problem) -> Result<Vec<SetConfig>> {
    let n = p.alphabet().len();
    if n > 16 {
        return Err(RelimError::TooManyLabels { requested: n, limit: 16 });
    }
    let compat = p.edge_compat();
    let universe = LabelSet::full(n);
    let mut all: Vec<SetConfig> = Vec::new();
    for a in crate::labelset::subsets_nonempty(universe) {
        for b in crate::labelset::subsets_nonempty(universe) {
            if b.bits() < a.bits() {
                continue;
            }
            let ok = a.iter().all(|x| b.is_subset_of(compat[x.index()]));
            if ok {
                all.push(SetConfig::new(vec![a, b]));
            }
        }
    }
    Ok(dominance_filter_reference(all))
}

/// Brute-force reference implementation of the universal node side:
/// enumerates over every non-empty label set, not only the right-closed
/// ones, and filters with [`dominance_filter_reference`] instead of by
/// covers. Exponential; only usable for tiny alphabets and degrees.
///
/// # Errors
///
/// Returns an error if the alphabet has more than 8 labels.
pub fn rbar_step_node_bruteforce(p: &Problem) -> Result<Vec<SetConfig>> {
    let n = p.alphabet().len();
    if n > 8 {
        return Err(RelimError::TooManyLabels { requested: n, limit: 8 });
    }
    let universe = LabelSet::full(n);
    let all_sets: Vec<LabelSet> = crate::labelset::subsets_nonempty(universe).collect();
    let sub_index = Arc::new(p.node().sub_multiset_index());
    let raw =
        forall_multisets(&all_sets_sorted(all_sets), p.delta(), &sub_index, &Pool::sequential());
    Ok(dominance_filter_reference(raw))
}

fn all_sets_sorted(mut sets: Vec<LabelSet>) -> Vec<LabelSet> {
    sets.sort_unstable_by_key(|s| (s.len(), s.bits()));
    sets
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use proptest::prelude::*;

    fn mis3() -> Problem {
        Problem::from_text("M M M\nP O O", "M [P O]\nO O").unwrap()
    }

    #[test]
    fn r_step_mis_edge_pairs_are_maximal_and_valid() {
        let p = mis3();
        let step = r_step(&p).unwrap();
        // Every pair's choices must be in E; pairs must be mutually
        // non-dominating.
        let compat = p.edge_compat();
        let pairs: Vec<SetConfig> =
            step.problem.edge().iter().map(|c| step.as_set_config(c)).collect();
        for sc in &pairs {
            let s = sc.as_slice();
            for a in s[0].iter() {
                assert!(s[1].is_subset_of(compat[a.index()]), "non-universal pair {sc:?}");
            }
        }
        for x in &pairs {
            for y in &pairs {
                assert!(!dominates(x, y), "{y:?} dominated by {x:?}");
            }
        }
    }

    #[test]
    fn r_step_matches_bruteforce_on_mis() {
        let p = mis3();
        let step = r_step(&p).unwrap();
        let mut fast: Vec<SetConfig> =
            step.problem.edge().iter().map(|c| step.as_set_config(c)).collect();
        let mut brute = r_step_edge_bruteforce(&p).unwrap();
        fast.sort();
        brute.sort();
        assert_eq!(fast, brute);
    }

    #[test]
    fn rbar_matches_bruteforce_on_small_problem() {
        // Sinkless-orientation-like toy: 2 labels, Δ=3.
        let p = Problem::from_text("O [O I]^2", "O I").unwrap();
        let r = r_step(&p).unwrap();
        let mut fast: Vec<SetConfig> = {
            let step = Engine::sequential().rbar_step(&r.problem).unwrap();
            step.problem.node().iter().map(|c| step.as_set_config(c)).collect()
        };
        let mut brute = rbar_step_node_bruteforce(&r.problem).unwrap();
        fast.sort();
        brute.sort();
        assert_eq!(fast, brute);
    }

    #[test]
    fn exists_side_replacement_method() {
        // For MIS, N_{R(Π)} is obtained by replacing M, P, O by the
        // disjunctions of new labels containing them; the result must admit a
        // choice in N for every configuration.
        let p = mis3();
        let step = r_step(&p).unwrap();
        for cfg in step.problem.node().iter() {
            let sc = step.as_set_config(cfg);
            // Verify the existential condition by explicit search.
            let mut found = false;
            let sets = sc.as_slice();
            let mut pick = vec![Label::new(0); sets.len()];
            fn search(
                sets: &[LabelSet],
                i: usize,
                pick: &mut [Label],
                node: &Constraint,
                found: &mut bool,
            ) {
                if *found {
                    return;
                }
                if i == sets.len() {
                    if node.contains(&Config::new(pick.to_vec())) {
                        *found = true;
                    }
                    return;
                }
                for l in sets[i].iter() {
                    pick[i] = l;
                    search(sets, i + 1, pick, node, found);
                }
            }
            search(sets, 0, &mut pick, p.node(), &mut found);
            assert!(found, "config {sc:?} admits no choice in N");
        }
    }

    #[test]
    fn rbar_parallel_matches_sequential_bytewise() {
        // MIS after one R step is the heaviest node-side enumeration in the
        // unit suite; the parallel engine must reproduce it exactly.
        let p = mis3();
        let r = r_step(&p).unwrap();
        let seq =
            Engine::builder().threads(1).memoize(false).build().rbar_step(&r.problem).unwrap();
        for threads in [2, 3, 8] {
            let engine = Engine::builder().threads(threads).build();
            let par = engine.rbar_step(&r.problem).unwrap();
            assert_eq!(par.problem.render(), seq.problem.render(), "threads = {threads}");
            assert_eq!(par.provenance, seq.provenance, "threads = {threads}");
        }
    }

    /// A random node constraint of degree `degree` over `labels` labels:
    /// each multiset is kept with a seed-chosen density, and at least one.
    fn random_constraint(labels: usize, degree: u32, seed: u64) -> Constraint {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        let density = 1 + next() % 7; // keep with probability density/8
        let mut space = vec![Config::empty()];
        for _ in 0..degree {
            let mut longer: Vec<Config> = space
                .iter()
                .flat_map(|c| (0..labels).map(move |l| c.with(Label::new(l as u8))))
                .collect();
            longer.sort_unstable();
            longer.dedup();
            space = longer;
        }
        let first = space[next() as usize % space.len()].clone();
        let kept = space.into_iter().filter(|_| next() % 8 < density);
        Constraint::from_configs(std::iter::once(first).chain(kept)).expect("non-empty")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// On the raw universal family of a random small constraint, the
        /// cover filter keeps exactly what the quadratic reference keeps,
        /// in the same order.
        #[test]
        fn cover_filter_matches_reference(labels in 1usize..=5, degree in 1u32..=4,
                                          seed in 0u64..u64::MAX) {
            let constraint = random_constraint(labels, degree, seed);
            let cands = right_closed_sets(&StrengthOrder::of_constraint(&constraint, labels));
            let index = Arc::new(constraint.sub_multiset_index());
            let raw = forall_multisets(&cands, degree, &index, &Pool::sequential());
            prop_assert_eq!(cover_filter(raw.clone(), &cands), dominance_filter_reference(raw),
                            "constraint {:?}", constraint);
        }
    }

    /// A problem over exactly `n` labels, each used: `X X` on both sides.
    fn diagonal(n: usize) -> Problem {
        let text: Vec<String> = (0..n).map(|i| format!("L{i} L{i}")).collect();
        Problem::from_text(&text.join("\n"), &text.join("\n")).unwrap()
    }

    #[test]
    fn r_step_rejects_alphabets_past_the_enumeration_limit() {
        assert!(r_step(&diagonal(MAX_LABELS)).is_ok());
        let err = r_step(&diagonal(MAX_LABELS + 1)).unwrap_err();
        assert_eq!(err, RelimError::TooManyLabels { requested: MAX_LABELS + 1, limit: MAX_LABELS });
        // The session driver turns the error into a label-limit stop even
        // when its own limit is larger, instead of panicking.
        let outcome = Engine::builder().threads(1).build().iterate_with_limits(
            &diagonal(MAX_LABELS + 1),
            3,
            64,
        );
        assert!(matches!(
            outcome.stopped,
            crate::iterate::StopReason::LabelLimit { labels } if labels == MAX_LABELS + 1
        ));
    }

    #[test]
    fn dominance_basic() {
        let a = LabelSet::from_bits(0b01);
        let ab = LabelSet::from_bits(0b11);
        let x = SetConfig::new(vec![a, a]);
        let y = SetConfig::new(vec![ab, a]);
        assert!(dominates(&y, &x));
        assert!(!dominates(&x, &y));
        assert!(!dominates(&x, &x));
    }

    /// `A^d` and `A^(d-1) B` on the node side, `A A` / `B B` on the edge
    /// side: `R̄(R(·))` keeps `A^d` only below the degree limit, where it
    /// is dominated by `A^(d-1) AB`.
    fn wide(degree: u32) -> Problem {
        let node = format!("A^{degree}\nA^{} B", degree - 1);
        Problem::from_text(&node, "A A\nB B").unwrap()
    }

    #[test]
    fn universal_side_refuses_degrees_past_the_mask_width() {
        let engine = Engine::sequential();
        let (_, rr) = engine.rr_step(&wide(MAX_DEGREE)).unwrap();
        assert_eq!(rr.problem.node().len(), 1, "A^64 is dominated by A^63 AB");

        let r = r_step(&wide(MAX_DEGREE + 1)).unwrap();
        let cache = |engine: &Engine| {
            let report = engine.report();
            (report.cache_misses, report.cache_entries)
        };
        let before = cache(&engine);
        let err = engine.rbar_step(&r.problem).unwrap_err();
        assert_eq!(err, RelimError::DegreeTooLarge { degree: MAX_DEGREE + 1 });
        assert_eq!(engine.report().rbar_steps, 1, "a refused input counts no step");
        assert_eq!(cache(&engine), before, "a refused R̄ builds no index");
        let bi = crate::biregular::BiregularProblem::from_problem(&r.problem);
        let err =
            crate::biregular::half_step(&bi, crate::biregular::Side::Black, &engine).unwrap_err();
        assert_eq!(err, RelimError::DegreeTooLarge { degree: MAX_DEGREE + 1 });
        assert_eq!(cache(&engine), before, "a refused half step builds no index");
    }
}
