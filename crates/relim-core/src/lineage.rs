//! Derivation lineage of round-elimination runs: [`LineageGraph`].
//!
//! A bound search derives its certificate through a DAG of problem
//! transformations — `Π → R(Π) → R̄(R(Π)) → …`, interleaved with label
//! merges (lower bounds) or label deletions (upper bounds) — that the
//! engine historically computed and threw away. When a session is built
//! with [`crate::engine::EngineBuilder::record_lineage`], the drivers
//! behind [`crate::engine::Engine::iterate_with_limits`],
//! [`crate::engine::Engine::auto_lower_bound`] and
//! [`crate::engine::Engine::auto_upper_bound`] record every operator
//! application into a `LineageGraph`: one arena-indexed node per distinct
//! canonical problem (keyed by the FNV-1a-128 digest of its rendering)
//! and one edge per operator application.
//!
//! The graph serializes deterministically to JSON ([`LineageGraph::to_json`],
//! schema [`LINEAGE_SCHEMA`]) and renders to Graphviz DOT
//! ([`LineageGraph::to_dot`]) with optional straight-line contraction:
//! the `R`/`R̄`/`reduce` intermediates inside one step collapse into a
//! single composite edge between chain elements, so deep iterates stay
//! readable. Both renderings are byte-identical at any engine thread
//! count — recording happens in the (sequential) driver loops, so
//! insertion order never depends on the pool schedule.
//!
//! # Example
//!
//! ```
//! use relim_core::engine::Engine;
//! use relim_core::Problem;
//!
//! let engine = Engine::builder().threads(1).record_lineage(true).build();
//! let so = Problem::from_text("O I I", "[O I] I").unwrap();
//! assert!(engine.iterate_with_limits(&so, 5, 20).reached_fixed_point());
//! let lineage = engine.lineage().expect("recording was enabled");
//! assert!(lineage.node_count() >= 3, "input, R(Π) and R̄(R(Π)) at least");
//! assert!(lineage.to_dot("so fixed point", true).starts_with("digraph"));
//! ```
#![deny(missing_docs)]

use crate::digest::fnv1a128_hex;
use crate::problem::Problem;
use relim_json::Json;
use std::collections::HashMap;

/// Schema tag of the JSON rendering ([`LineageGraph::to_json`]).
pub const LINEAGE_SCHEMA: &str = "relim-lineage/1";

/// How many digest characters a DOT node label shows.
const DOT_DIGEST_CHARS: usize = 12;

/// The role a recorded problem plays in the derivation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// A chain element: a driver-loop input or a merge/harden/reduce
    /// output. Elements survive DOT contraction.
    Element,
    /// An artifact inside one `R̄(R(·))` application (the `R(Π)` problem
    /// or the un-reduced `R̄` output). Intermediates are collapsed by
    /// contracted DOT rendering.
    Intermediate,
}

impl NodeKind {
    fn as_str(self) -> &'static str {
        match self {
            NodeKind::Element => "element",
            NodeKind::Intermediate => "intermediate",
        }
    }
}

/// One recorded problem (a node of the derivation DAG).
#[derive(Debug, Clone)]
pub struct LineageNode {
    /// Canonical content digest: FNV-1a-128 of [`Problem::render`].
    pub digest: String,
    /// Alphabet size of the problem.
    pub labels: usize,
    /// Configuration count of the node constraint.
    pub node_configs: usize,
    /// Configuration count of the edge constraint.
    pub edge_configs: usize,
    /// Role in the derivation (see [`NodeKind`]).
    pub kind: NodeKind,
}

/// One operator application (an edge of the derivation DAG).
#[derive(Debug, Clone)]
pub struct LineageEdge {
    /// Arena index of the input problem.
    pub from: usize,
    /// Arena index of the output problem.
    pub to: usize,
    /// Operator name: `R`, `R̄`, `reduce`, `merge` or `harden`.
    pub op: String,
    /// Operator detail (merged label pairs, deleted label names); empty
    /// when the operator carries no parameters.
    pub detail: String,
}

/// An arena-backed derivation DAG of one engine session.
///
/// Nodes are interned by canonical digest, so revisiting a problem (a
/// fixed point confirming itself, two searches sharing a prefix) reuses
/// its arena index; parallel edges are deduplicated on
/// `(from, to, op, detail)`. Insertion order is the recording order of
/// the sequential driver loops, which makes every rendering
/// deterministic.
#[derive(Debug, Clone, Default)]
pub struct LineageGraph {
    nodes: Vec<LineageNode>,
    edges: Vec<LineageEdge>,
    by_digest: HashMap<String, usize>,
    roots: Vec<usize>,
}

impl LineageGraph {
    /// An empty graph.
    pub fn new() -> LineageGraph {
        LineageGraph::default()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of distinct problems recorded.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of distinct operator applications recorded.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The recorded problems, in arena order.
    pub fn nodes(&self) -> &[LineageNode] {
        &self.nodes
    }

    /// The recorded operator applications, in recording order.
    pub fn edges(&self) -> &[LineageEdge] {
        &self.edges
    }

    /// Arena indices of the recorded search roots, in recording order.
    pub fn roots(&self) -> &[usize] {
        &self.roots
    }

    /// Interns `p` by canonical digest and returns its arena index. A
    /// problem first seen as an [`NodeKind::Intermediate`] and later as
    /// an element is upgraded — element status is sticky.
    pub fn intern(&mut self, p: &Problem, kind: NodeKind) -> usize {
        let digest = fnv1a128_hex(p.render().as_bytes());
        if let Some(&id) = self.by_digest.get(&digest) {
            if kind == NodeKind::Element {
                self.nodes[id].kind = NodeKind::Element;
            }
            return id;
        }
        let id = self.nodes.len();
        self.nodes.push(LineageNode {
            digest: digest.clone(),
            labels: p.alphabet().len(),
            node_configs: p.node().len(),
            edge_configs: p.edge().len(),
            kind,
        });
        self.by_digest.insert(digest, id);
        id
    }

    /// Records the edge `from → to` unless the identical application
    /// (same endpoints, operator and detail) was already recorded.
    pub fn link(&mut self, from: usize, to: usize, op: &str, detail: &str) {
        let seen = self
            .edges
            .iter()
            .any(|e| e.from == from && e.to == to && e.op == op && e.detail == detail);
        if !seen {
            self.edges.push(LineageEdge { from, to, op: op.to_owned(), detail: detail.to_owned() });
        }
    }

    /// Records `p` as a search root (the initial chain element of a
    /// driver run).
    pub fn record_root(&mut self, p: &Problem) {
        let id = self.intern(p, NodeKind::Element);
        if !self.roots.contains(&id) {
            self.roots.push(id);
        }
    }

    /// Records one full `Π ↦ R̄(R(Π))` application: the `R` edge, the `R̄`
    /// edge, and (when dropping unused labels changes the problem) the
    /// `reduce` edge to the next chain element — exactly the reduction
    /// every driver loop applies to the step output.
    pub fn record_rr_step(&mut self, input: &Problem, r: &Problem, rr: &Problem) {
        let a = self.intern(input, NodeKind::Element);
        let b = self.intern(r, NodeKind::Intermediate);
        let c = self.intern(rr, NodeKind::Intermediate);
        self.link(a, b, "R", "");
        self.link(b, c, "R̄", "");
        let (reduced, _) = rr.drop_unused_labels();
        let d = self.intern(&reduced, NodeKind::Element);
        if d != c {
            self.link(c, d, "reduce", "drop unused labels");
        }
    }

    /// Records a lower-bound merge step: `raw → problem` with the applied
    /// `(from, to)` label-name merges as the edge detail. A step that
    /// merged nothing (the identity) records no edge.
    pub fn record_merge(&mut self, raw: &Problem, problem: &Problem, merges: &[(String, String)]) {
        let from = self.intern(raw, NodeKind::Element);
        let to = self.intern(problem, NodeKind::Element);
        if from == to {
            return;
        }
        let detail: Vec<String> = merges.iter().map(|(a, b)| format!("{a}→{b}")).collect();
        self.link(from, to, "merge", &detail.join(", "));
    }

    /// Records an upper-bound hardening step: `raw → problem` with the
    /// deleted label names as the edge detail. A step that deleted
    /// nothing records no edge.
    pub fn record_harden(&mut self, raw: &Problem, problem: &Problem, removals: &[String]) {
        let from = self.intern(raw, NodeKind::Element);
        let to = self.intern(problem, NodeKind::Element);
        if from == to {
            return;
        }
        self.link(from, to, "harden", &removals.join(", "));
    }

    /// Deterministic JSON rendering (schema [`LINEAGE_SCHEMA`]): nodes in
    /// arena order, edges in recording order, roots in recording order.
    pub fn to_json(&self) -> Json {
        let nodes = self
            .nodes
            .iter()
            .enumerate()
            .map(|(id, n)| {
                Json::Obj(vec![
                    ("id".to_owned(), Json::Int(id as i64)),
                    ("digest".to_owned(), Json::Str(n.digest.clone())),
                    ("kind".to_owned(), Json::Str(n.kind.as_str().to_owned())),
                    ("labels".to_owned(), Json::Int(n.labels as i64)),
                    ("node_configs".to_owned(), Json::Int(n.node_configs as i64)),
                    ("edge_configs".to_owned(), Json::Int(n.edge_configs as i64)),
                ])
            })
            .collect();
        let edges = self
            .edges
            .iter()
            .map(|e| {
                Json::Obj(vec![
                    ("from".to_owned(), Json::Int(e.from as i64)),
                    ("to".to_owned(), Json::Int(e.to as i64)),
                    ("op".to_owned(), Json::Str(e.op.clone())),
                    ("detail".to_owned(), Json::Str(e.detail.clone())),
                ])
            })
            .collect();
        let roots = self.roots.iter().map(|&r| Json::Int(r as i64)).collect();
        Json::Obj(vec![
            ("schema".to_owned(), Json::Str(LINEAGE_SCHEMA.to_owned())),
            ("nodes".to_owned(), Json::Arr(nodes)),
            ("edges".to_owned(), Json::Arr(edges)),
            ("roots".to_owned(), Json::Arr(roots)),
        ])
    }

    /// [`LineageGraph::to_json`] rendered to pretty text.
    pub fn render_json(&self) -> String {
        self.to_json().render()
    }

    /// Graphviz DOT rendering. With `contract` set, straight-line runs of
    /// intermediates (a node of kind [`NodeKind::Intermediate`] with
    /// exactly one incoming and one outgoing edge) are removed and their
    /// edges bridged, joining the operator labels with `·` — so a full
    /// `R`/`R̄`/`reduce` step shows as one `R·R̄·reduce` edge between
    /// chain elements.
    pub fn to_dot(&self, title: &str, contract: bool) -> String {
        struct DotEdge {
            from: usize,
            to: usize,
            label: String,
        }
        let mut edges: Vec<DotEdge> = self
            .edges
            .iter()
            .map(|e| DotEdge {
                from: e.from,
                to: e.to,
                label: if e.detail.is_empty() {
                    e.op.clone()
                } else {
                    format!("{} [{}]", e.op, e.detail)
                },
            })
            .collect();
        let mut removed = vec![false; self.nodes.len()];
        if contract {
            // Repeatedly splice out the lowest-indexed contractible
            // intermediate; the scan order makes the result deterministic.
            loop {
                let candidate = (0..self.nodes.len()).find(|&v| {
                    if removed[v] || self.nodes[v].kind != NodeKind::Intermediate {
                        return false;
                    }
                    let ins: Vec<usize> = (0..edges.len()).filter(|&i| edges[i].to == v).collect();
                    let outs: Vec<usize> =
                        (0..edges.len()).filter(|&i| edges[i].from == v).collect();
                    ins.len() == 1
                        && outs.len() == 1
                        && edges[ins[0]].from != v
                        && edges[outs[0]].to != v
                });
                let Some(v) = candidate else { break };
                let in_at = edges.iter().position(|e| e.to == v).unwrap();
                let out_at = edges.iter().position(|e| e.from == v).unwrap();
                let bridged = DotEdge {
                    from: edges[in_at].from,
                    to: edges[out_at].to,
                    label: format!("{}·{}", edges[in_at].label, edges[out_at].label),
                };
                let (first, second) = (in_at.min(out_at), in_at.max(out_at));
                edges.remove(second);
                edges[first] = bridged;
                removed[v] = true;
            }
        }
        let mut out = String::new();
        out.push_str("digraph lineage {\n");
        out.push_str("    rankdir=LR;\n");
        out.push_str("    node [shape=box, fontname=\"monospace\", fontsize=10];\n");
        out.push_str(&format!("    label=\"{}\";\n", escape_dot(title)));
        for (id, node) in self.nodes.iter().enumerate() {
            if removed[id] {
                continue;
            }
            let short = &node.digest[..DOT_DIGEST_CHARS.min(node.digest.len())];
            let style = match node.kind {
                NodeKind::Element => "",
                NodeKind::Intermediate => ", style=dashed",
            };
            out.push_str(&format!(
                "    n{id} [label=\"{short}\\n|Σ|={} N:{} E:{}\"{style}];\n",
                node.labels, node.node_configs, node.edge_configs
            ));
        }
        for e in &edges {
            out.push_str(&format!(
                "    n{} -> n{} [label=\"{}\"];\n",
                e.from,
                e.to,
                escape_dot(&e.label)
            ));
        }
        out.push_str("}\n");
        out
    }
}

/// Escapes a string for use inside a double-quoted DOT attribute.
fn escape_dot(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autolb::AutoLbOptions;
    use crate::autoub::AutoUbOptions;
    use crate::engine::Engine;

    fn mis3() -> Problem {
        Problem::from_text("M M M\nP O O", "M [P O]\nO O").unwrap()
    }

    fn so() -> Problem {
        Problem::from_text("O I I", "[O I] I").unwrap()
    }

    #[test]
    fn empty_graph_renders() {
        let g = LineageGraph::new();
        assert!(g.is_empty());
        let json = g.render_json();
        assert!(json.contains(LINEAGE_SCHEMA), "{json}");
        let dot = g.to_dot("empty", true);
        assert!(dot.starts_with("digraph lineage {"), "{dot}");
        assert!(dot.ends_with("}\n"), "{dot}");
    }

    #[test]
    fn interning_dedups_by_digest_and_upgrades_kind() {
        let mut g = LineageGraph::new();
        let p = mis3();
        let a = g.intern(&p, NodeKind::Intermediate);
        let b = g.intern(&p, NodeKind::Element);
        assert_eq!(a, b);
        assert_eq!(g.nodes()[a].kind, NodeKind::Element, "element status is sticky");
        g.link(a, a, "R", "");
        g.link(a, a, "R", "");
        assert_eq!(g.edge_count(), 1, "identical applications dedup");
    }

    #[test]
    fn iterate_records_a_connected_step_chain() {
        let engine = Engine::builder().threads(1).record_lineage(true).build();
        let outcome = engine.iterate_with_limits(&so(), 5, 20);
        assert!(outcome.reached_fixed_point());
        let g = engine.lineage().expect("recording enabled");
        assert!(!g.is_empty());
        assert_eq!(g.roots().len(), 1);
        assert!(g.edges().iter().any(|e| e.op == "R"));
        assert!(g.edges().iter().any(|e| e.op == "R̄"));
        // Every chain element of the outcome is a recorded node.
        for p in &outcome.problems {
            let digest = fnv1a128_hex(p.render().as_bytes());
            assert!(g.nodes().iter().any(|n| n.digest == digest), "missing {digest}");
        }
    }

    #[test]
    fn autolb_records_merge_edges_matching_the_outcome() {
        let engine = Engine::builder().threads(1).record_lineage(true).build();
        let opts = AutoLbOptions { max_steps: 3, label_budget: 4, ..AutoLbOptions::default() };
        let outcome = engine.auto_lower_bound(&mis3(), &opts);
        let g = engine.lineage().expect("recording enabled");
        let merging_steps = outcome.steps.iter().filter(|s| !s.merges.is_empty()).count();
        let merge_edges = g.edges().iter().filter(|e| e.op == "merge").count();
        assert!(
            merging_steps == 0 || merge_edges > 0,
            "outcome merged labels but the lineage recorded no merge edge"
        );
        for step in outcome.steps.iter().filter(|s| !s.merges.is_empty()) {
            let raw = fnv1a128_hex(step.raw.render().as_bytes());
            let merged = fnv1a128_hex(step.problem.render().as_bytes());
            assert!(g.nodes().iter().any(|n| n.digest == raw));
            assert!(g.nodes().iter().any(|n| n.digest == merged));
        }
    }

    #[test]
    fn autoub_records_harden_edges() {
        let engine = Engine::builder().threads(1).record_lineage(true).build();
        let opts = AutoUbOptions { max_steps: 5, label_budget: 14, coloring: Some(3) };
        let p = Problem::from_text("M M\nP O", "M [P O]\nO O").unwrap();
        let outcome = engine.auto_upper_bound(&p, &opts);
        let g = engine.lineage().expect("recording enabled");
        let hardening_steps = outcome.steps.iter().filter(|s| !s.removals.is_empty()).count();
        let harden_edges = g.edges().iter().filter(|e| e.op == "harden").count();
        assert!(
            hardening_steps == 0 || harden_edges > 0,
            "outcome deleted labels but the lineage recorded no harden edge"
        );
    }

    #[test]
    fn contraction_removes_only_intermediates() {
        let engine = Engine::builder().threads(1).record_lineage(true).build();
        engine.iterate_with_limits(&so(), 5, 20);
        let g = engine.lineage().unwrap();
        let full = g.to_dot("so", false);
        let contracted = g.to_dot("so", true);
        assert!(full.len() > contracted.len(), "contraction must shrink the rendering");
        // Every element node survives contraction.
        for (id, node) in g.nodes().iter().enumerate() {
            if node.kind == NodeKind::Element {
                assert!(contracted.contains(&format!("n{id} [")), "element n{id} vanished");
            }
        }
        assert!(contracted.contains('·'), "composite edge label expected: {contracted}");
    }

    #[test]
    fn renderings_are_byte_identical_at_any_width() {
        let reference: Option<(String, String, String)> = [1usize, 2, 8]
            .iter()
            .map(|&threads| {
                let engine = Engine::builder().threads(threads).record_lineage(true).build();
                engine.iterate_with_limits(&mis3(), 3, 20);
                engine.auto_lower_bound(&so(), &AutoLbOptions::default());
                let g = engine.lineage().unwrap();
                (g.render_json(), g.to_dot("width test", true), g.to_dot("width test", false))
            })
            .fold(None, |acc, triple| match acc {
                None => Some(triple),
                Some(prev) => {
                    assert_eq!(prev, triple, "lineage renderings must not depend on width");
                    Some(triple)
                }
            });
        assert!(reference.is_some());
    }

    #[test]
    fn json_parses_back_and_is_self_consistent() {
        let engine = Engine::builder().threads(1).record_lineage(true).build();
        engine.iterate_with_limits(&so(), 5, 20);
        let g = engine.lineage().unwrap();
        let doc = Json::parse(&g.render_json()).expect("valid JSON");
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(LINEAGE_SCHEMA));
        let nodes = doc.get("nodes").and_then(Json::as_arr).unwrap();
        assert_eq!(nodes.len(), g.node_count());
        for e in doc.get("edges").and_then(Json::as_arr).unwrap() {
            let from = e.get("from").and_then(Json::as_i64).unwrap() as usize;
            let to = e.get("to").and_then(Json::as_i64).unwrap() as usize;
            assert!(from < nodes.len() && to < nodes.len(), "edge endpoints in arena");
        }
    }
}
