//! Zero-round solvability in the port numbering model (paper Lemmas 12, 15).
//!
//! The paper's gadget: a graph family whose port numbering assigns, to every
//! edge of color `i`, port `i` **at both endpoints** (possible given a
//! Δ-edge coloring). Every node then has an identical 0-round view, so:
//!
//! * a **deterministic** 0-round algorithm is a single function
//!   `ports → labels` used by all nodes, and every edge receives the *same*
//!   label on both sides — it succeeds iff some node configuration consists
//!   solely of labels compatible with themselves;
//! * a **randomized** 0-round algorithm is a distribution over such
//!   functions; if every node configuration contains a label that is not
//!   self-compatible, a pigeonhole argument bounds the failure probability
//!   from below by `1/(m·Δ)²` where `m = |N|` (the paper states `1/(3Δ)² ≥
//!   1/Δ⁸` for its 3-configuration family).

use crate::config::Config;
use crate::label::Label;
use crate::problem::Problem;

/// Outcome of the 0-round analysis on the identified-ports gadget.
#[derive(Debug, Clone)]
pub struct ZeroRoundReport {
    /// Whether a deterministic 0-round algorithm exists on the gadget.
    pub deterministically_solvable: bool,
    /// A node configuration witnessing solvability (all labels
    /// self-compatible), if one exists.
    pub witness: Option<Config>,
    /// For each node configuration, a label in it that is **not**
    /// self-compatible (`None` exactly for witnesses).
    pub bad_labels: Vec<(Config, Option<Label>)>,
    /// Lower bound on the failure probability of any randomized 0-round
    /// algorithm on the gadget (0.0 when deterministically solvable).
    pub randomized_failure_lower_bound: f64,
}

/// Analyzes 0-round solvability of `p` on the identified-ports gadget.
///
/// # Example
///
/// ```
/// use relim_core::{Problem, zeroround};
///
/// // MIS: every configuration contains a self-incompatible label
/// // (M in M³, P in PO²) — not 0-round solvable (cf. Lemma 12).
/// let mis = Problem::from_text("M M M\nP O O", "M [P O]\nO O").unwrap();
/// let report = zeroround::analyze(&mis);
/// assert!(!report.deterministically_solvable);
/// assert!(report.randomized_failure_lower_bound > 0.0);
/// ```
pub fn analyze(p: &Problem) -> ZeroRoundReport {
    let self_compat = self_compatible(p);

    let mut witness = None;
    let mut bad_labels = Vec::new();
    for cfg in p.node().iter() {
        let bad = cfg.iter().find(|l| !self_compat[l.index()]);
        if bad.is_none() && witness.is_none() {
            witness = Some(cfg.clone());
        }
        bad_labels.push((cfg.clone(), bad));
    }

    let deterministically_solvable = witness.is_some();
    let randomized_failure_lower_bound = if deterministically_solvable {
        0.0
    } else {
        // Paper Lemma 15, generalized from 3 configurations to m: some
        // configuration is used with probability ≥ 1/m; its bad label sits on
        // some port with probability ≥ 1/(mΔ); both endpoints (independent
        // randomness) put it there with probability ≥ (1/(mΔ))².
        let m = p.node().len() as f64;
        let delta = p.delta() as f64;
        (1.0 / (m * delta)).powi(2)
    };

    ZeroRoundReport {
        deterministically_solvable,
        witness,
        bad_labels,
        randomized_failure_lower_bound,
    }
}

/// A witness that `p` is 0-round solvable in the **bare** port-numbering
/// model (round-eliminator terminology: `p` is a *trivial* problem).
///
/// A deterministic 0-round PN algorithm on Δ-regular graphs is a single
/// port → label map `b₁ … b_Δ` used identically by every node (nodes have
/// no information distinguishing them). The adversary pairs arbitrary ports
/// across each edge, so the map is correct on **all** instances iff
/// `b₁ … b_Δ ∈ N` and *every* pair `{bᵢ, bⱼ}` (including `i = j`: two
/// neighbors may use the same port number for their shared edge) is in `E`.
///
/// Contrast with the *gadget* criterion of [`analyze`]/
/// [`solvable_deterministically`], which only needs the **diagonal** pairs
/// `{bᵢ, bᵢ}`: there, the identified-ports input guarantees that an edge
/// always joins equal port numbers. Consequently
/// `universal_witness(p).is_some()` implies
/// `solvable_deterministically(p)`, but not conversely — e.g. perfect
/// matching on 2-edge-colored cycles (`N = {MO}`, `E = {MM, OO}`) is
/// 0-round solvable *given the coloring* yet not trivially.
///
/// # Example
///
/// ```
/// use relim_core::{Problem, zeroround};
///
/// // "Output anything" is trivial; MIS is not.
/// let anything = Problem::from_text("A A A", "A A").unwrap();
/// assert!(zeroround::universal_witness(&anything).is_some());
/// let mis = Problem::from_text("M M M\nP O O", "M [P O]\nO O").unwrap();
/// assert!(zeroround::universal_witness(&mis).is_none());
/// ```
pub fn universal_witness(p: &Problem) -> Option<Config> {
    let compat = p.edge_compat();
    p.node()
        .iter()
        .find(|cfg| cfg.iter().all(|x| cfg.iter().all(|y| compat[x.index()].contains(y))))
        .cloned()
}

/// Whether `p` is 0-round solvable in the bare port-numbering model — see
/// [`universal_witness`] for the criterion and how it differs from the
/// identified-ports gadget.
pub fn solvable_pn_universal(p: &Problem) -> bool {
    universal_witness(p).is_some()
}

/// A witness that `p` is 0-round solvable **given a proper c-vertex
/// coloring** as input, on Δ-regular graphs.
///
/// A 0-round algorithm with a coloring input is a map `color → node
/// configuration` (anonymous nodes of the same color are
/// indistinguishable, and within a configuration the algorithm may assign
/// labels to ports freely, which the adversarial port pairing defeats).
/// Correctness on *every* properly c-colored instance requires, for every
/// pair of **distinct** colors `γ ≠ δ` (equal colors are never adjacent),
/// that every label of `C_γ` is edge-compatible with every label of `C_δ`.
///
/// Reusing one configuration for two colors forces its label set to be
/// self-cross-compatible — which is exactly [`universal_witness`] — so for
/// problems that are not already trivial the criterion is a **clique of
/// size `c`** in the graph whose vertices are node configurations and
/// whose edges join cross-compatible pairs. Fewer colors are a *stronger*
/// promise: solvability is monotone decreasing in `c`.
///
/// Returns `c` configurations (one per color) if they exist.
///
/// # Panics
///
/// Panics if `c < 2` — a proper 1-coloring of a graph with edges does not
/// exist, so the question is vacuous.
///
/// # Example
///
/// ```
/// use relim_core::{Problem, zeroround};
///
/// // Proper 2-coloring: N = {AAA, BBB}, E = {AB}. Trivially 0-round
/// // solvable given a 2-coloring (echo the input), but not given a
/// // 3-coloring (two of the three classes would collide).
/// let two_col = Problem::from_text("A A A\nB B B", "A B").unwrap();
/// assert!(zeroround::coloring_witness(&two_col, 2).is_some());
/// assert!(zeroround::coloring_witness(&two_col, 3).is_none());
/// ```
pub fn coloring_witness(p: &Problem, c: usize) -> Option<Vec<Config>> {
    assert!(c >= 2, "a proper coloring needs at least 2 colors");
    if let Some(w) = universal_witness(p) {
        // One self-cross-compatible configuration serves every color.
        return Some(vec![w; c]);
    }
    let configs: Vec<&Config> = p.node().iter().collect();
    let compat = p.edge_compat();
    // supports[i] = set of labels used by configs[i].
    let supports: Vec<crate::labelset::LabelSet> = configs
        .iter()
        .map(|cfg| cfg.iter().fold(crate::labelset::LabelSet::EMPTY, |acc, l| acc.with(l)))
        .collect();
    let cross_ok = |i: usize, j: usize| {
        supports[i].iter().all(|x| supports[j].is_subset_of(compat[x.index()]))
    };
    // Depth-first clique search; configuration counts here are small
    // enough (≤ a few hundred) that this is immediate for the small `c`
    // values upper-bound chains use.
    fn extend(
        chosen: &mut Vec<usize>,
        start: usize,
        c: usize,
        n: usize,
        cross_ok: &dyn Fn(usize, usize) -> bool,
    ) -> bool {
        if chosen.len() == c {
            return true;
        }
        for i in start..n {
            if chosen.iter().all(|&j| cross_ok(j, i)) {
                chosen.push(i);
                if extend(chosen, i + 1, c, n, cross_ok) {
                    return true;
                }
                chosen.pop();
            }
        }
        false
    }
    let mut chosen = Vec::new();
    if extend(&mut chosen, 0, c, configs.len(), &cross_ok) {
        Some(chosen.into_iter().map(|i| configs[i].clone()).collect())
    } else {
        None
    }
}

/// The largest `c ≤ cap` for which [`coloring_witness`] succeeds, or
/// `None` if even `c = 2` fails.
///
/// Since solvability is monotone decreasing in `c`, this is the weakest
/// coloring promise under which `p` is 0-round solvable.
pub fn max_coloring_solvable(p: &Problem, cap: usize) -> Option<usize> {
    (2..=cap).rev().find(|&c| coloring_witness(p, c).is_some())
}

/// Whether `p` is 0-round solvable *deterministically* on the gadget.
///
/// By the argument in [`universal_witness`], this is **exactly** the class
/// of problems solvable in 0 rounds when a Δ-edge coloring is provided as
/// input on Δ-regular graphs: a proper Δ-edge coloring of a Δ-regular
/// graph shows every color at every node, so an anonymous color → label map
/// realizes a fixed node configuration and puts equal labels on the two
/// sides of every edge.
///
/// Equivalent to `analyze(p).deterministically_solvable`, without building
/// the full report.
pub fn solvable_deterministically(p: &Problem) -> bool {
    let self_compat = self_compatible(p);
    p.node().iter().any(|cfg| cfg.iter().all(|l| self_compat[l.index()]))
}

/// Per label index: whether the edge configuration `l l` is allowed.
fn self_compatible(p: &Problem) -> Vec<bool> {
    (0..p.alphabet().len())
        .map(|i| {
            let l = Label::new(i as u8);
            p.edge().contains(&Config::new(vec![l, l]))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mis_not_zero_round_solvable() {
        let mis = Problem::from_text("M M M\nP O O", "M [P O]\nO O").unwrap();
        let report = analyze(&mis);
        assert!(!report.deterministically_solvable);
        assert!(report.witness.is_none());
        for (cfg, bad) in &report.bad_labels {
            let bad = bad.expect("every configuration has a bad label");
            assert!(cfg.contains(bad));
        }
        // m = 2 configs, Δ = 3: bound (1/6)².
        let expected = (1.0f64 / 6.0).powi(2);
        assert!((report.randomized_failure_lower_bound - expected).abs() < 1e-12);
    }

    #[test]
    fn all_self_compatible_is_solvable() {
        // Trivial problem: single label compatible with itself.
        let p = Problem::from_text("A A A", "A A").unwrap();
        let report = analyze(&p);
        assert!(report.deterministically_solvable);
        assert_eq!(report.randomized_failure_lower_bound, 0.0);
        assert!(report.witness.is_some());
        assert!(solvable_deterministically(&p));
    }

    #[test]
    fn mixed_configurations() {
        // One good configuration (OO) and one bad (PP-ish): solvable.
        let p = Problem::from_text("O O\nP P", "O O\nP O").unwrap();
        assert!(solvable_deterministically(&p));
        let report = analyze(&p);
        assert_eq!(report.witness.as_ref().map(|c| c.degree()), Some(2));
    }

    #[test]
    fn universal_requires_all_pairs() {
        // Perfect matching on 2-regular graphs: N = {MO}, E = {MM, OO}.
        // Both labels are self-compatible (gadget-solvable, i.e. 0 rounds
        // given a 2-edge coloring) but the cross pair MO is not in E, so the
        // problem is not trivial in the bare PN model.
        let pm = Problem::from_text("M O", "M M\nO O").unwrap();
        assert!(solvable_deterministically(&pm));
        assert!(universal_witness(&pm).is_none());
        assert!(!solvable_pn_universal(&pm));
    }

    #[test]
    fn universal_witness_on_trivial_problem() {
        let p = Problem::from_text("A A A\nB B B", "A A\nA B").unwrap();
        // AAA works (AA in E); BBB does not (BB not in E).
        let w = universal_witness(&p).expect("trivial");
        let a = p.alphabet().label("A").unwrap();
        assert!(w.iter().all(|l| l == a));
    }

    #[test]
    fn universal_implies_gadget() {
        // Universal solvability is strictly stronger than gadget
        // solvability; spot-check the implication on a few problems.
        for (node, edge) in [
            ("A A A", "A A"),
            ("M M M\nP O O", "M [P O]\nO O"),
            ("M O", "M M\nO O"),
            ("A B\nB B", "A B\nB B"),
        ] {
            let p = Problem::from_text(node, edge).unwrap();
            if solvable_pn_universal(&p) {
                assert!(solvable_deterministically(&p), "{node} / {edge}");
            }
        }
    }

    #[test]
    fn sinkless_orientation_not_universal() {
        // Sinkless orientation (Δ = 3): O I I with E = {[O I] I}; the
        // configuration needs OO... OO is not in E (an edge cannot be
        // outgoing at both endpoints), and O appears in the only node
        // configuration, so the problem is neither gadget- nor universally
        // solvable in 0 rounds.
        let so = Problem::from_text("O I I", "[O I] I").unwrap();
        assert!(universal_witness(&so).is_none());
        assert!(!solvable_deterministically(&so));
    }
}
