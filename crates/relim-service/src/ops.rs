//! The servable round-elimination operations.
//!
//! Each [`OpRequest`] has three canonical faces:
//!
//! * a **canonical key** ([`OpRequest::canonical_key`]) — the full text
//!   the content-addressed store hashes and verifies: a format tag, the
//!   operation name, its parameters in a fixed order, and (for
//!   single-problem operations) the *parsed and re-rendered* problem, so
//!   two textual spellings of the same problem (`;` vs newline
//!   separators, condensed vs expanded configurations) address the same
//!   stored result;
//! * a **digest** ([`OpRequest::digest`]) — the 128-bit FNV-1a content
//!   address of that key (see [`relim_core::digest`]);
//! * a **canonical rendering** ([`OpRequest::execute`]) — the result
//!   text. The `relim` CLI's local `autolb` / `autoub` / `fixed-point` /
//!   `zeroround` / `sweep` subcommands render through these same
//!   functions, which is what makes a served result **byte-identical**
//!   to the same query run in-process at any thread count.
//!
//! The daemon computes the first two faces with [`OpRequest::prepare`]:
//! one parse of the constraint text yields the problem, the key and the
//! digest ([`Prepared`]), and the executor renders from that problem.
//!
//! The key deliberately excludes the engine's thread count and
//! memoization toggle: both are performance knobs with no effect on
//! output bytes (the differential suites pin this), so they must not
//! split the cache.

use relim_core::digest::fnv1a128_hex;
use relim_core::parse::CondensedProblem;
use relim_core::{autolb, autoub, zeroround, Engine, Problem};
use relim_json::Json;

/// An operation error, carried over the wire as the `error` field (its
/// [`std::fmt::Display`] rendering).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpError {
    /// A parse failure, an invalid parameter or an engine error, as its
    /// human-readable message.
    Invalid(String),
    /// Constraint text with a line of degree above
    /// [`MAX_CONSTRAINT_DEGREE`], refused before anything is expanded.
    DegreeTooLarge {
        /// The largest line degree in the text.
        degree: u32,
    },
    /// Constraint text whose lines would enumerate more than
    /// [`MAX_EXPANDED_CONFIGS`] configurations, refused before anything
    /// is expanded.
    ExpansionTooLarge {
        /// The configurations the lines would enumerate (saturating).
        configs: u128,
    },
}

impl std::fmt::Display for OpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpError::Invalid(message) => write!(f, "{message}"),
            OpError::DegreeTooLarge { degree } => write!(
                f,
                "constraint line of degree {degree} exceeds the servable degree \
                 {MAX_CONSTRAINT_DEGREE}"
            ),
            OpError::ExpansionTooLarge { configs } => write!(
                f,
                "constraint text expands to {configs} configurations, over the servable \
                 {MAX_EXPANDED_CONFIGS}"
            ),
        }
    }
}

impl std::error::Error for OpError {}

impl From<relim_core::RelimError> for OpError {
    fn from(e: relim_core::RelimError) -> OpError {
        OpError::Invalid(e.to_string())
    }
}

/// The triviality criterion of an `autolb` search (mirrors
/// [`autolb::Triviality`], with a stable wire spelling).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Criterion {
    /// Non-triviality even given a Δ-edge coloring (the paper's gadget
    /// criterion) — the default.
    Gadget,
    /// Bare port-numbering triviality.
    Universal,
}

impl Criterion {
    /// The wire spelling (`gadget` / `universal`).
    pub fn as_str(self) -> &'static str {
        match self {
            Criterion::Gadget => "gadget",
            Criterion::Universal => "universal",
        }
    }

    /// Parses the wire spelling.
    ///
    /// # Errors
    ///
    /// Rejects anything but `gadget` / `universal`.
    pub fn parse(s: &str) -> Result<Criterion, OpError> {
        match s {
            "gadget" => Ok(Criterion::Gadget),
            "universal" => Ok(Criterion::Universal),
            other => {
                Err(OpError::Invalid(format!("criterion must be gadget|universal, got `{other}`")))
            }
        }
    }

    fn triviality(self) -> autolb::Triviality {
        match self {
            Criterion::Gadget => autolb::Triviality::GadgetEdgeColoring,
            Criterion::Universal => autolb::Triviality::Universal,
        }
    }
}

/// Upper bound on the step-count parameters a served job may request —
/// the daemon refuses unbounded work instead of wedging the executor.
pub const MAX_STEPS_LIMIT: usize = 64;
/// Upper bound on label budgets / label limits (the engine itself caps
/// enumeration at 22 labels; anything above 64 is a typo, not a query).
pub const MAX_LABEL_LIMIT: usize = 64;
/// The `Δ` range a served sweep may ask for (Δ=9 is already hours of
/// work; beyond that the request is a denial of service, not a query).
pub const SWEEP_DELTA_RANGE: std::ops::RangeInclusive<u32> = 3..=9;
/// Upper bound on the degree of any line of client constraint text: the
/// engine's universal-side limit, [`relim_core::roundelim::MAX_DEGREE`]
/// (the paper's problems have Δ ≤ 9 here; a larger degree is a typo or an
/// attempt to make the parser allocate, not a query).
pub const MAX_CONSTRAINT_DEGREE: u32 = relim_core::roundelim::MAX_DEGREE;
/// Upper bound on the configurations client constraint text may expand
/// to, summed over its node and edge lines. `Π_Δ(a,x)` spells 13 at any
/// Δ, and `R(Π_9(4,1))` written out in full 8,161. Read off the
/// condensed lines before any expansion: `[A B … P]^12` is about 40
/// bytes and would enumerate 17.4M.
pub const MAX_EXPANDED_CONFIGS: u128 = 1 << 16;

/// What a job parameter holds, which fixes its serving limit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A step count, at most [`MAX_STEPS_LIMIT`].
    Steps,
    /// A label bound, at most [`MAX_LABEL_LIMIT`].
    Labels,
    /// An `autolb` [`Criterion`].
    Criterion,
    /// The colors of an optional vertex coloring, at least 2.
    Coloring,
    /// A sweep's Δ, in [`SWEEP_DELTA_RANGE`].
    Delta,
    /// The lemma a sweep verifies, 6 or 8.
    Lemma,
}

impl Kind {
    /// `n` as a value of this kind, or `None` when the request field
    /// cannot hold it (Δ and the lemma are `u32`, the rest `usize`).
    /// Readers refuse such a number rather than truncate it into some
    /// accidentally valid value.
    pub fn num(self, n: u64) -> Option<Value> {
        let fits = match self {
            Kind::Delta | Kind::Lemma => u32::try_from(n).is_ok(),
            _ => usize::try_from(n).is_ok(),
        };
        fits.then_some(Value::Num(n))
    }

    /// Refuses a value past this kind's serving limit.
    pub fn check(self, value: Value) -> Result<(), OpError> {
        let Value::Num(n) = value else { return Ok(()) };
        let refusal = match self {
            Kind::Steps if n > MAX_STEPS_LIMIT as u64 => {
                format!("max_steps {n} exceeds limit {MAX_STEPS_LIMIT}")
            }
            Kind::Labels if n > MAX_LABEL_LIMIT as u64 => {
                format!("label bound {n} exceeds {MAX_LABEL_LIMIT}")
            }
            Kind::Coloring if n < 2 => {
                format!("coloring {n} is below 2 (a proper coloring needs at least 2 colors)")
            }
            Kind::Delta if !u32::try_from(n).is_ok_and(|d| SWEEP_DELTA_RANGE.contains(&d)) => {
                format!("sweep delta {n} outside the servable range {SWEEP_DELTA_RANGE:?}")
            }
            Kind::Lemma if !matches!(n, 6 | 8) => format!("lemma must be 6|8, got {n}"),
            _ => return Ok(()),
        };
        Err(OpError::Invalid(refusal))
    }
}

/// A parameter value, in the one form every codec reads and writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Value {
    /// A number: steps, a label bound, colors, Δ or a lemma.
    Num(u64),
    /// An `autolb` criterion.
    Criterion(Criterion),
    /// No coloring: keyed as `none`, left out of JSON.
    NoColoring,
}

/// One parameter of a job op.
#[derive(Debug)]
pub struct Param {
    /// The name in keys and JSON, and (with `-` for `_`) the CLI option.
    pub name: &'static str,
    /// What the parameter holds.
    pub kind: Kind,
    /// The value of a request that leaves the parameter out. A default
    /// its own limit refuses (a sweep's Δ of 0) must be given.
    pub default: Value,
}

/// One job op: a row of [`OPS`].
#[derive(Debug)]
pub struct OpSpec {
    /// The wire name, then the other spellings the wire and CLI accept.
    pub names: &'static [&'static str],
    /// Whether the daemon schedules the op as a bulk job by default.
    pub bulk: bool,
    /// Whether the op takes a problem (`node` and `edge` text).
    pub problem: bool,
    /// The parameters, in wire order.
    pub params: &'static [Param],
}

/// The job ops. A row's index is also the op's slot in the daemon's
/// per-op counters and latency grid.
pub const OPS: [OpSpec; 5] = [
    OpSpec {
        names: &["autolb"],
        bulk: false,
        problem: true,
        params: &[
            Param { name: "max_steps", kind: Kind::Steps, default: Value::Num(6) },
            Param { name: "labels", kind: Kind::Labels, default: Value::Num(6) },
            Param {
                name: "criterion",
                kind: Kind::Criterion,
                default: Value::Criterion(Criterion::Gadget),
            },
        ],
    },
    OpSpec {
        names: &["autoub"],
        bulk: false,
        problem: true,
        params: &[
            Param { name: "max_steps", kind: Kind::Steps, default: Value::Num(6) },
            Param { name: "labels", kind: Kind::Labels, default: Value::Num(10) },
            Param { name: "coloring", kind: Kind::Coloring, default: Value::NoColoring },
        ],
    },
    OpSpec {
        names: &["iterate", "fixed-point"],
        bulk: false,
        problem: true,
        params: &[
            Param { name: "max_steps", kind: Kind::Steps, default: Value::Num(5) },
            Param { name: "label_limit", kind: Kind::Labels, default: Value::Num(16) },
        ],
    },
    OpSpec {
        names: &["sweep"],
        bulk: true,
        problem: false,
        params: &[
            Param { name: "delta", kind: Kind::Delta, default: Value::Num(0) },
            Param { name: "lemma", kind: Kind::Lemma, default: Value::Num(8) },
        ],
    },
    OpSpec { names: &["zero-round", "zeroround"], bulk: false, problem: true, params: &[] },
];

/// Rows of [`OPS`].
const AUTOLB: usize = 0;
const AUTOUB: usize = 1;
const ITERATE: usize = 2;
const SWEEP: usize = 3;
const ZERO_ROUND: usize = 4;

/// The [`OPS`] row of the op spelled `name` (any accepted spelling).
pub fn op_row(name: &str) -> Option<usize> {
    OPS.iter().position(|op| op.names.contains(&name))
}

/// Parses client constraint text: tokenized once, refused past
/// [`MAX_CONSTRAINT_DEGREE`] / [`MAX_EXPANDED_CONFIGS`] before anything
/// is expanded, then expanded into the problem. Engine-internal
/// constructions never come through here and are not bounded.
fn parse_client_problem(node: &str, edge: &str) -> Result<Problem, OpError> {
    let text = CondensedProblem::parse(node, edge)?;
    let degree = text.max_degree();
    if degree > MAX_CONSTRAINT_DEGREE {
        return Err(OpError::DegreeTooLarge { degree });
    }
    let configs = text.expansion_size();
    if configs > MAX_EXPANDED_CONFIGS {
        return Err(OpError::ExpansionTooLarge { configs });
    }
    Ok(text.into_problem()?)
}

/// What preparing a job request computes once, at the wire boundary:
/// its parsed problem (single-problem ops), canonical key and digest.
/// The daemon's store read, coalescing claim, fleet read-through and
/// executor all reuse it, so a request's problem text is parsed exactly
/// once (see [`OpRequest::prepare`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Prepared {
    problem: Option<Problem>,
    key: String,
    digest: String,
}

impl Prepared {
    /// The canonical key — equal to [`OpRequest::canonical_key`].
    pub fn key(&self) -> &str {
        &self.key
    }

    /// The content address — equal to [`OpRequest::digest`].
    pub fn digest(&self) -> &str {
        &self.digest
    }
}

/// A servable round-elimination job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpRequest {
    /// Automatic lower-bound search (`relim autolb`).
    AutoLb {
        /// Node constraint text (`;` or newline separated lines).
        node: String,
        /// Edge constraint text.
        edge: String,
        /// Maximum round-elimination steps of the merge search.
        max_steps: usize,
        /// Label budget per step.
        labels: usize,
        /// Triviality criterion.
        criterion: Criterion,
    },
    /// Automatic upper-bound search (`relim autoub`).
    AutoUb {
        /// Node constraint text.
        node: String,
        /// Edge constraint text.
        edge: String,
        /// Maximum steps of the chain.
        max_steps: usize,
        /// Label budget per step.
        labels: usize,
        /// Optional proper vertex coloring given as input.
        coloring: Option<usize>,
    },
    /// Iterated `R̄(R(·))` fixed-point probe (`relim fixed-point`).
    Iterate {
        /// Node constraint text.
        node: String,
        /// Edge constraint text.
        edge: String,
        /// Maximum applications.
        max_steps: usize,
        /// Alphabet-size abort threshold.
        label_limit: usize,
    },
    /// Lemma verification sweep over all valid `(a, x)` at one `Δ`
    /// (`relim sweep`) — the bulk-class operation.
    Sweep {
        /// The degree Δ.
        delta: u32,
        /// Which lemma to verify (6 or 8).
        lemma: u32,
    },
    /// 0-round solvability analysis (`relim zeroround`).
    ZeroRound {
        /// Node constraint text.
        node: String,
        /// Edge constraint text.
        edge: String,
    },
}

/// Normalizes a constraint argument: `;` and literal `\n` both separate
/// configuration lines (same convention as the `relim` CLI).
pub fn constraint_text(raw: &str) -> String {
    raw.replace("\\n", "\n").replace(';', "\n")
}

impl OpRequest {
    /// An `autolb` request with the [`OPS`] defaults.
    ///
    /// # Errors
    ///
    /// Rejects unparsable constraint text.
    pub fn auto_lb(node: &str, edge: &str) -> Result<OpRequest, OpError> {
        OpRequest::defaulted(AUTOLB, node, edge)
    }

    /// An `autoub` request with the [`OPS`] defaults.
    ///
    /// # Errors
    ///
    /// Rejects unparsable constraint text.
    pub fn auto_ub(node: &str, edge: &str) -> Result<OpRequest, OpError> {
        OpRequest::defaulted(AUTOUB, node, edge)
    }

    /// An `iterate` request with the [`OPS`] defaults.
    ///
    /// # Errors
    ///
    /// Rejects unparsable constraint text.
    pub fn iterate(node: &str, edge: &str) -> Result<OpRequest, OpError> {
        OpRequest::defaulted(ITERATE, node, edge)
    }

    /// A lemma-`lemma` sweep request at degree `delta`.
    ///
    /// # Errors
    ///
    /// Rejects lemmas other than 6/8 and out-of-range `Δ`.
    pub fn sweep(delta: u32, lemma: u32) -> Result<OpRequest, OpError> {
        let op = OpRequest::Sweep { delta, lemma };
        op.validate()?;
        Ok(op)
    }

    /// A `zero-round` analysis request.
    ///
    /// # Errors
    ///
    /// Rejects unparsable constraint text.
    pub fn zero_round(node: &str, edge: &str) -> Result<OpRequest, OpError> {
        OpRequest::defaulted(ZERO_ROUND, node, edge)
    }

    /// The validated op of [`OPS`] row `row` with the table's defaults.
    fn defaulted(row: usize, node: &str, edge: &str) -> Result<OpRequest, OpError> {
        let problem = || Ok((constraint_text(node), constraint_text(edge)));
        let op = OpRequest::decode::<OpError>(row, problem, |param| Ok(param.default))?;
        op.validate()?;
        Ok(op)
    }

    /// The encoder: this request's [`OPS`] row, constraint text (`node`,
    /// `edge`) and parameter values in wire order.
    fn encode(&self) -> (usize, Option<(&String, &String)>, [Value; 3]) {
        let num = |n: usize| Value::Num(n as u64);
        let none = Value::NoColoring;
        match self {
            OpRequest::AutoLb { node, edge, max_steps, labels, criterion } => (
                AUTOLB,
                Some((node, edge)),
                [num(*max_steps), num(*labels), Value::Criterion(*criterion)],
            ),
            OpRequest::AutoUb { node, edge, max_steps, labels, coloring } => (
                AUTOUB,
                Some((node, edge)),
                [num(*max_steps), num(*labels), coloring.map_or(none, num)],
            ),
            OpRequest::Iterate { node, edge, max_steps, label_limit } => {
                (ITERATE, Some((node, edge)), [num(*max_steps), num(*label_limit), none])
            }
            OpRequest::Sweep { delta, lemma } => {
                (SWEEP, None, [Value::Num((*delta).into()), Value::Num((*lemma).into()), none])
            }
            OpRequest::ZeroRound { node, edge } => (ZERO_ROUND, Some((node, edge)), [none; 3]),
        }
    }

    /// This request's parameters with their values, sorted by name: the
    /// order of the canonical key.
    fn by_name(&self) -> impl DoubleEndedIterator<Item = (&'static Param, Value)> {
        let (row, _, values) = self.encode();
        let mut pairs = [None; 3];
        for (pair, param) in pairs.iter_mut().zip(OPS[row].params.iter().zip(values)) {
            *pair = Some(param);
        }
        pairs.sort_unstable_by_key(|pair| pair.map(|(param, _)| param.name));
        pairs.into_iter().flatten()
    }

    /// The decoder: the request of [`OPS`] row `row`, with the constraint
    /// text from `problem` (asked of problem ops only) and each parameter's
    /// value, of its kind, from `read`. JSON, keys and the CLI decode here.
    ///
    /// # Errors
    ///
    /// The first error of `problem` or `read`.
    ///
    /// # Panics
    ///
    /// When `row` is not an [`OPS`] row or `read` gives a value of another kind.
    pub fn decode<E>(
        row: usize,
        problem: impl FnOnce() -> Result<(String, String), E>,
        mut read: impl FnMut(&'static Param) -> Result<Value, E>,
    ) -> Result<OpRequest, E> {
        let (node, edge) = if OPS[row].problem { problem()? } else { Default::default() };
        let mut values = [Value::NoColoring; 3];
        for (value, param) in values.iter_mut().zip(OPS[row].params) {
            *value = read(param)?;
        }
        let num = |i: usize| match values[i] {
            Value::Num(n) => n,
            other => unreachable!("`{}` read {other:?}", OPS[row].params[i].name),
        };
        // `Kind::num` refused what a field cannot hold; saturate the rest.
        let count = |i| usize::try_from(num(i)).unwrap_or(usize::MAX);
        let small = |i| u32::try_from(num(i)).unwrap_or(u32::MAX);
        Ok(match row {
            AUTOLB => OpRequest::AutoLb {
                node,
                edge,
                max_steps: count(0),
                labels: count(1),
                criterion: match values[2] {
                    Value::Criterion(criterion) => criterion,
                    other => unreachable!("`criterion` read {other:?}"),
                },
            },
            AUTOUB => OpRequest::AutoUb {
                node,
                edge,
                max_steps: count(0),
                labels: count(1),
                coloring: (values[2] != Value::NoColoring).then(|| count(2)),
            },
            ITERATE => {
                OpRequest::Iterate { node, edge, max_steps: count(0), label_limit: count(1) }
            }
            SWEEP => OpRequest::Sweep { delta: small(0), lemma: small(1) },
            _ => OpRequest::ZeroRound { node, edge },
        })
    }

    /// The wire name of the operation (`autolb`, `autoub`, `iterate`,
    /// `sweep`, `zero-round`).
    pub fn name(&self) -> &'static str {
        OPS[self.encode().0].names[0]
    }

    /// Whether the service schedules this operation as a bulk job by
    /// default (sweeps are; single-problem queries are interactive).
    pub fn is_bulk(&self) -> bool {
        OPS[self.encode().0].bulk
    }

    /// The op's [`OPS`] row: its slot in the daemon's per-op counters.
    pub(crate) fn slot(&self) -> usize {
        self.encode().0
    }

    /// Validates parameters against the serving limits, then the
    /// constraint text (parsed once, bounded before expansion).
    ///
    /// # Errors
    ///
    /// Describes the first offending parameter or the constraint parse
    /// failure.
    pub fn validate(&self) -> Result<(), OpError> {
        self.check_params()?;
        self.problem().map(|_| ())
    }

    /// The parameter half of [`OpRequest::validate`]: everything but the
    /// constraint text, in reverse key order (steps before labels, a
    /// sweep's lemma before its Δ, as requests have always been refused).
    fn check_params(&self) -> Result<(), OpError> {
        self.by_name().rev().try_for_each(|(param, value)| param.kind.check(value))
    }

    /// The parsed problem for single-problem operations (`None` for
    /// sweeps), canonicalizing the constraint text.
    ///
    /// # Errors
    ///
    /// Propagates the constraint parse failure, including text past
    /// [`MAX_CONSTRAINT_DEGREE`] or [`MAX_EXPANDED_CONFIGS`].
    pub fn problem(&self) -> Result<Option<Problem>, OpError> {
        self.encode().1.map(|(node, edge)| parse_client_problem(node, edge)).transpose()
    }

    /// Validates the request and computes its [`Prepared`] form with one
    /// parse of the constraint text: the same checks, in the same order,
    /// as [`OpRequest::validate`], then the key and digest of that parse.
    ///
    /// # Errors
    ///
    /// Exactly those of [`OpRequest::validate`].
    pub fn prepare(&self) -> Result<Prepared, OpError> {
        self.check_params()?;
        let problem = self.problem()?;
        let key = self.key_with(problem.as_ref());
        let digest = fnv1a128_hex(key.as_bytes());
        Ok(Prepared { problem, key, digest })
    }

    /// The canonical key of this request — the full text the store
    /// hashes *and verifies on every hit* (so digest collisions degrade
    /// to misses, never to wrong answers). Includes a format-version tag
    /// and the engine semantics version; excludes thread count and
    /// memoization (no effect on output bytes).
    ///
    /// # Errors
    ///
    /// Propagates the constraint parse failure (an unparsable problem
    /// has no canonical form).
    pub fn canonical_key(&self) -> Result<String, OpError> {
        Ok(self.key_with(self.problem()?.as_ref()))
    }

    /// [`OpRequest::canonical_key`] over an already-parsed problem.
    fn key_with(&self, problem: Option<&Problem>) -> String {
        use std::fmt::Write as _;
        let mut key = format!("relim-store/1\nengine=v1\nop={}\n", self.name());
        // Writing to a `String` cannot fail.
        for (param, value) in self.by_name() {
            let _ = match value {
                Value::Num(n) => writeln!(key, "{}={n}", param.name),
                Value::Criterion(criterion) => {
                    writeln!(key, "{}={}", param.name, criterion.as_str())
                }
                Value::NoColoring => writeln!(key, "{}=none", param.name),
            };
        }
        if let Some(problem) = problem {
            key.push_str("problem:\n");
            key.push_str(&problem.render());
            key.push('\n');
        }
        key
    }

    /// The content address of this request: the 128-bit FNV-1a digest of
    /// [`OpRequest::canonical_key`], as 32 hex characters.
    ///
    /// # Errors
    ///
    /// Same as [`OpRequest::canonical_key`].
    pub fn digest(&self) -> Result<String, OpError> {
        Ok(fnv1a128_hex(self.canonical_key()?.as_bytes()))
    }

    /// Parses a stored canonical key back into its request — the
    /// inverse of [`OpRequest::canonical_key`], used by `relim viz` to
    /// re-run a stored certificate's query with lineage recording on.
    /// Strict: the reconstructed request must re-render **exactly** the
    /// input key (so a viz of digest `d` provably re-runs the query
    /// stored under `d`) — which also rejects corrupted or foreign keys.
    ///
    /// # Errors
    ///
    /// Malformed keys, unknown ops, missing, non-numeric or out-of-range
    /// parameters, and keys that fail the exact round-trip check.
    pub fn from_canonical_key(key: &str) -> Result<OpRequest, OpError> {
        let rest = key
            .strip_prefix("relim-store/1\nengine=v1\nop=")
            .ok_or_else(|| OpError::Invalid("not a relim-store/1 canonical key".to_owned()))?;
        let (name, rest) = rest
            .split_once('\n')
            .ok_or_else(|| OpError::Invalid("truncated canonical key".to_owned()))?;
        let (params_text, problem_text) = match rest.split_once("problem:\n") {
            Some((params, problem)) => (params, Some(problem)),
            None => (rest, None),
        };
        let row = op_row(name)
            .ok_or_else(|| OpError::Invalid(format!("unknown op `{name}` in canonical key")))?;
        let problem = || {
            let text = problem_text
                .ok_or_else(|| OpError::Invalid(format!("op `{name}` requires a problem block")))?;
            // `Problem::render` shape: `N (degree d):\n…\n\nE:\n…`,
            // plus the key's own trailing newline.
            let text = text.strip_suffix('\n').unwrap_or(text);
            let (node_part, edge) = text.split_once("\n\nE:\n").ok_or_else(|| {
                OpError::Invalid("problem block missing the edge constraint".to_owned())
            })?;
            let (_, node) = node_part.split_once('\n').ok_or_else(|| {
                OpError::Invalid("problem block missing the node constraint".to_owned())
            })?;
            Ok((node.to_owned(), edge.to_owned()))
        };
        let op = OpRequest::decode(row, problem, |param| {
            let name = param.name;
            let invalid =
                |what: &str| OpError::Invalid(format!("{what} `{name}` in canonical key"));
            let text = params_text
                .lines()
                .find_map(|l| l.strip_prefix(name).and_then(|l| l.strip_prefix('=')))
                .ok_or_else(|| {
                    OpError::Invalid(format!("canonical key missing parameter `{name}`"))
                })?;
            match (param.kind, text) {
                (Kind::Criterion, text) => Ok(Value::Criterion(Criterion::parse(text)?)),
                (Kind::Coloring, "none") => Ok(Value::NoColoring),
                (kind, text) => match text.parse() {
                    Ok(n) => kind.num(n).ok_or_else(|| invalid("out-of-range")),
                    Err(_) => Err(invalid("non-numeric")),
                },
            }
        })?;
        if op.prepare()?.key() != key {
            return Err(OpError::Invalid(
                "canonical key does not round-trip (corrupted or foreign store entry)".to_owned(),
            ));
        }
        Ok(op)
    }

    /// Executes the operation through `engine` and returns the canonical
    /// result text. Byte-identical at any engine thread count and cache
    /// state; the serving layer stores exactly these bytes.
    ///
    /// # Errors
    ///
    /// Propagates parse, validation and engine errors.
    pub fn execute(&self, engine: &Engine) -> Result<String, OpError> {
        self.execute_prepared(&self.prepare()?, engine)
    }

    /// [`OpRequest::execute`] over the problem `prepared` already parsed:
    /// no validation, no second parse.
    ///
    /// `prepared` must come from this request's [`OpRequest::prepare`].
    ///
    /// # Errors
    ///
    /// Propagates engine errors.
    pub fn execute_prepared(
        &self,
        prepared: &Prepared,
        engine: &Engine,
    ) -> Result<String, OpError> {
        self.run(prepared.problem.as_ref(), engine)
    }

    /// Runs a validated request on its parsed problem (`Some` exactly for
    /// the single-problem ops).
    fn run(&self, problem: Option<&Problem>, engine: &Engine) -> Result<String, OpError> {
        let problem = || problem.expect("single-problem op carries its problem");
        match self {
            OpRequest::AutoLb { max_steps, labels, criterion, .. } => {
                render_autolb(problem(), *max_steps, *labels, *criterion, engine)
            }
            OpRequest::AutoUb { max_steps, labels, coloring, .. } => {
                render_autoub(problem(), *max_steps, *labels, *coloring, engine)
            }
            OpRequest::Iterate { max_steps, label_limit, .. } => {
                Ok(render_iterate(problem(), *max_steps, *label_limit, engine))
            }
            OpRequest::Sweep { delta, lemma } => render_sweep(*delta, *lemma, engine),
            OpRequest::ZeroRound { .. } => Ok(render_zeroround(problem())),
        }
    }

    /// The operation as the JSON fields of a protocol request (the `op`
    /// name plus its parameters).
    pub fn to_json_fields(&self) -> Vec<(String, Json)> {
        let (row, problem, values) = self.encode();
        let mut fields = vec![("op".to_owned(), Json::str(OPS[row].names[0]))];
        if let Some((node, edge)) = problem {
            fields.push(("node".into(), Json::str(node)));
            fields.push(("edge".into(), Json::str(edge)));
        }
        for (param, value) in OPS[row].params.iter().zip(values) {
            let json = match value {
                Value::Num(n) => Json::Int(n as i64),
                Value::Criterion(criterion) => Json::str(criterion.as_str()),
                Value::NoColoring => continue,
            };
            fields.push((param.name.into(), json));
        }
        fields
    }

    /// Parses the operation out of a protocol request object (missing
    /// numeric parameters take the CLI defaults).
    ///
    /// # Errors
    ///
    /// Describes the missing/ill-typed field or the parameter violation.
    pub fn from_json(obj: &Json) -> Result<OpRequest, OpError> {
        let op = OpRequest::fields_from_json(obj)?;
        op.validate()?;
        Ok(op)
    }

    /// The field-decoding half of [`OpRequest::from_json`] (no
    /// validation). The wire parser follows it with
    /// [`OpRequest::prepare`]: the same errors as `from_json`, one parse.
    pub(crate) fn fields_from_json(obj: &Json) -> Result<OpRequest, OpError> {
        let str_field = |key: &str| -> Result<String, OpError> {
            obj.get(key)
                .and_then(Json::as_str)
                .map(constraint_text)
                .ok_or_else(|| OpError::Invalid(format!("missing or non-string field `{key}`")))
        };
        let name = obj
            .get("op")
            .and_then(Json::as_str)
            .ok_or_else(|| OpError::Invalid("missing or non-string field `op`".into()))?;
        let row = op_row(name).ok_or_else(|| OpError::Invalid(format!("unknown op `{name}`")))?;
        let problem = || Ok((str_field("node")?, str_field("edge")?));
        OpRequest::decode(row, problem, |param| {
            let invalid = |what: &str| OpError::Invalid(format!("field `{}` {what}", param.name));
            match (param.kind, obj.get(param.name)) {
                // A criterion that is not a string reads as the default.
                (Kind::Criterion, field) => match field.and_then(Json::as_str) {
                    None => Ok(param.default),
                    Some(s) => Ok(Value::Criterion(Criterion::parse(s)?)),
                },
                (_, None) => Ok(param.default),
                (kind, Some(field)) => match field.as_i64().and_then(|i| u64::try_from(i).ok()) {
                    Some(n) => kind.num(n).ok_or_else(|| invalid("is out of range")),
                    None => Err(invalid("must be a non-negative int")),
                },
            }
        })
    }
}

/// The canonical `autolb` rendering — the exact bytes `relim autolb`
/// prints locally and the daemon serves.
fn render_autolb(
    p: &Problem,
    max_steps: usize,
    labels: usize,
    criterion: Criterion,
    engine: &Engine,
) -> Result<String, OpError> {
    let triviality = criterion.triviality();
    let opts = autolb::AutoLbOptions { max_steps, label_budget: labels, triviality };
    let outcome = engine.auto_lower_bound(p, &opts);
    let mut out = String::new();
    for (i, step) in outcome.steps.iter().enumerate() {
        out.push_str(&format!(
            "step {}: |Σ| {} -> {}",
            i + 1,
            step.raw.alphabet().len(),
            step.problem.alphabet().len()
        ));
        if !step.merges.is_empty() {
            let merges: Vec<String> =
                step.merges.iter().map(|(f, t)| format!("{f}->{t}")).collect();
            out.push_str(&format!("  merges: {}", merges.join(", ")));
        }
        out.push('\n');
    }
    out.push_str(&format!("stopped: {:?}\n", outcome.stopped));
    if outcome.unbounded() {
        out.push_str(
            "FIXED POINT: unbounded PN lower bound (⇒ Ω(log n) det / Ω(log log n) rand LOCAL)\n",
        );
    }
    out.push_str(&format!(
        "certified lower bound: {} rounds ({})\n",
        outcome.certified_rounds,
        match triviality {
            autolb::Triviality::GadgetEdgeColoring => "holds even given a Δ-edge coloring",
            autolb::Triviality::Universal => "bare PN model",
        }
    ));
    let replay = autolb::verify_chain(&outcome, engine).map_err(OpError::from)?;
    out.push_str(&format!("certificate replay: OK ({replay} rounds)"));
    Ok(out)
}

/// The canonical `autoub` rendering (shared with `relim autoub`).
fn render_autoub(
    p: &Problem,
    max_steps: usize,
    labels: usize,
    coloring: Option<usize>,
    engine: &Engine,
) -> Result<String, OpError> {
    let opts = autoub::AutoUbOptions { max_steps, label_budget: labels, coloring };
    let outcome = engine.auto_upper_bound(p, &opts);
    let mut out = String::new();
    for (i, step) in outcome.steps.iter().enumerate() {
        out.push_str(&format!(
            "step {}: |Σ| {} -> {}",
            i + 1,
            step.raw.alphabet().len(),
            step.problem.alphabet().len()
        ));
        if !step.removals.is_empty() {
            out.push_str(&format!("  removed: {}", step.removals.join(", ")));
        }
        out.push('\n');
    }
    match (&outcome.bound, &outcome.failure) {
        (Some(b), _) => {
            let kind = match &b.kind {
                autoub::UbKind::Pn => "bare PN model".to_owned(),
                autoub::UbKind::EdgeColoring => "given a Δ-edge coloring".to_owned(),
                autoub::UbKind::VertexColoring { colors } => {
                    format!("given a proper {colors}-vertex coloring (+O(log* n) in LOCAL)")
                }
            };
            out.push_str(&format!("upper bound: {} rounds ({kind})\n", b.rounds));
        }
        (None, Some(f)) => out.push_str(&format!("no upper bound found: {f:?}\n")),
        (None, None) => unreachable!("outcome carries a bound or a failure"),
    }
    let replay = autoub::verify_ub(&outcome, engine).map_err(OpError::from)?;
    out.push_str(&format!("certificate replay: OK ({replay:?})"));
    Ok(out)
}

/// The canonical `iterate` / fixed-point rendering (shared with
/// `relim fixed-point`).
fn render_iterate(p: &Problem, max_steps: usize, label_limit: usize, engine: &Engine) -> String {
    let outcome = engine.iterate_with_limits(p, max_steps, label_limit);
    let mut out = String::from("step  labels  |N|     |E|\n");
    for s in &outcome.stats {
        out.push_str(&format!(
            "{:<5} {:<7} {:<7} {:<7}\n",
            s.step, s.labels, s.node_configs, s.edge_configs
        ));
    }
    out.push_str(&format!("stopped: {:?}", outcome.stopped));
    out
}

/// The canonical `zero-round` rendering (shared with `relim zeroround`).
fn render_zeroround(p: &Problem) -> String {
    let report = zeroround::analyze(p);
    let mut out = format!(
        "deterministically 0-round solvable on the identified-ports gadget: {}\n",
        report.deterministically_solvable
    );
    match &report.witness {
        Some(w) => out.push_str(&format!("witness configuration: {}\n", w.display(p.alphabet()))),
        None => {
            out.push_str("per-configuration self-incompatible labels:\n");
            for (cfg, bad) in &report.bad_labels {
                let bad = bad.expect("no witness, so every configuration has one");
                out.push_str(&format!(
                    "  {}  ⇒  {} is not self-compatible\n",
                    cfg.display(p.alphabet()),
                    p.alphabet().name(bad)
                ));
            }
            out.push_str(&format!(
                "randomized failure probability ≥ {:.3e} (Lemma 15-style bound)\n",
                report.randomized_failure_lower_bound
            ));
        }
    }
    out.trim_end().to_owned()
}

/// The canonical sweep rendering (shared with `relim sweep`). Unlike the
/// pre-service CLI output it does **not** mention the thread count —
/// served bytes must not depend on the daemon's pool width.
fn render_sweep(delta: u32, lemma: u32, engine: &Engine) -> Result<String, OpError> {
    let mut out = String::new();
    match lemma {
        6 => {
            out.push_str(&format!(
                "Lemma 6 sweep at Δ={delta}:\n{:>3} {:>3} {:>14} {:>10}\n",
                "a", "x", "|N(R(Π))|", "verdict"
            ));
            for r in lb_family::lemma6::verify_sweep(delta, engine).map_err(OpError::from)? {
                out.push_str(&format!(
                    "{:>3} {:>3} {:>14} {:>10}\n",
                    r.params.a,
                    r.params.x,
                    r.node_config_count,
                    if r.matches_paper() { "VERIFIED" } else { "MISMATCH" }
                ));
            }
        }
        8 => {
            out.push_str(&format!(
                "Lemma 8 sweep at Δ={delta}:\n{:>3} {:>3} {:>7} {:>7} {:>10}\n",
                "a", "x", "|Σ''|", "|N''|", "verdict"
            ));
            for r in lb_family::lemma8::verify_sweep(delta, engine).map_err(OpError::from)? {
                out.push_str(&format!(
                    "{:>3} {:>3} {:>7} {:>7} {:>10}\n",
                    r.params.a,
                    r.params.x,
                    r.rr_label_count,
                    r.rr_node_config_count,
                    if r.matches_paper() { "VERIFIED" } else { "MISMATCH" }
                ));
            }
        }
        other => return Err(OpError::Invalid(format!("lemma must be 6|8, got {other}"))),
    }
    Ok(out.trim_end().to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mis_op() -> OpRequest {
        OpRequest::auto_lb("M M M;P O O", "M [P O];O O").unwrap()
    }

    /// Pins the bytes every stored entry and client depends on: for one
    /// request of each op, its canonical key, digest and request line;
    /// and what a minimal JSON object of each op decodes to (the
    /// defaults).
    #[test]
    fn golden_request_bytes() {
        let (so_node, so_edge) = ("O I I", "[O I] I");
        let (mis_node, mis_edge) = ("M M M\nP O O", "M [P O]\nO O");
        let so_problem = "problem:\nN (degree 3):\nO I^2\n\nE:\nO I\nI^2\n";
        let mis_problem = "problem:\nN (degree 3):\nM^3\nP O^2\n\nE:\nM P\nM O\nO^2\n";
        let autoub = |coloring| OpRequest::AutoUb {
            node: so_node.into(),
            edge: so_edge.into(),
            max_steps: 6,
            labels: 10,
            coloring,
        };
        let cases = [
            (
                OpRequest::AutoLb {
                    node: so_node.into(),
                    edge: so_edge.into(),
                    max_steps: 6,
                    labels: 6,
                    criterion: Criterion::Gadget,
                },
                format!("op=autolb\ncriterion=gadget\nlabels=6\nmax_steps=6\n{so_problem}"),
                "b35365e7fc098c21db243b783b00194a",
                r#"{"op": "autolb", "node": "O I I", "edge": "[O I] I", "max_steps": 6, "labels": 6, "criterion": "gadget"}"#,
            ),
            (
                OpRequest::AutoLb {
                    node: mis_node.into(),
                    edge: mis_edge.into(),
                    max_steps: 2,
                    labels: 5,
                    criterion: Criterion::Universal,
                },
                format!("op=autolb\ncriterion=universal\nlabels=5\nmax_steps=2\n{mis_problem}"),
                "441be6d9a6445e9f99ae3ae7717a1166",
                r#"{"op": "autolb", "node": "M M M\nP O O", "edge": "M [P O]\nO O", "max_steps": 2, "labels": 5, "criterion": "universal"}"#,
            ),
            (
                autoub(None),
                format!("op=autoub\ncoloring=none\nlabels=10\nmax_steps=6\n{so_problem}"),
                "1aabe7dc52d9f703aa1acb06057663ac",
                r#"{"op": "autoub", "node": "O I I", "edge": "[O I] I", "max_steps": 6, "labels": 10}"#,
            ),
            (
                autoub(Some(3)),
                format!("op=autoub\ncoloring=3\nlabels=10\nmax_steps=6\n{so_problem}"),
                "f41359cf6c8975d089121ce7c02b66f1",
                r#"{"op": "autoub", "node": "O I I", "edge": "[O I] I", "max_steps": 6, "labels": 10, "coloring": 3}"#,
            ),
            (
                OpRequest::Iterate {
                    node: mis_node.into(),
                    edge: mis_edge.into(),
                    max_steps: 3,
                    label_limit: 20,
                },
                format!("op=iterate\nlabel_limit=20\nmax_steps=3\n{mis_problem}"),
                "d86e137528af54f88398c0c268c1bc1b",
                r#"{"op": "iterate", "node": "M M M\nP O O", "edge": "M [P O]\nO O", "max_steps": 3, "label_limit": 20}"#,
            ),
            (
                OpRequest::Sweep { delta: 4, lemma: 6 },
                "op=sweep\ndelta=4\nlemma=6\n".to_owned(),
                "3de61386beedb1028e0ae7abfb137bbd",
                r#"{"op": "sweep", "delta": 4, "lemma": 6}"#,
            ),
            (
                OpRequest::ZeroRound { node: so_node.into(), edge: so_edge.into() },
                format!("op=zero-round\n{so_problem}"),
                "dfc986362621d89227d9f0f15d5f8b05",
                r#"{"op": "zero-round", "node": "O I I", "edge": "[O I] I"}"#,
            ),
        ];
        for (op, key, digest, line) in cases {
            let key = format!("relim-store/1\nengine=v1\n{key}");
            assert_eq!(op.canonical_key().unwrap(), key);
            assert_eq!(op.digest().unwrap(), digest, "{key}");
            assert_eq!(crate::protocol::render_job_request(&op, None, None), line);
        }

        let minimal = |text: &str| OpRequest::from_json(&Json::parse(text).unwrap()).unwrap();
        let so = |op: &str| minimal(&format!(r#"{{"op":"{op}","node":"O I I","edge":"[O I] I"}}"#));
        assert_eq!(
            so("autolb"),
            OpRequest::AutoLb {
                node: so_node.into(),
                edge: so_edge.into(),
                max_steps: 6,
                labels: 6,
                criterion: Criterion::Gadget,
            }
        );
        assert_eq!(so("autoub"), autoub(None));
        assert_eq!(
            so("iterate"),
            OpRequest::Iterate {
                node: so_node.into(),
                edge: so_edge.into(),
                max_steps: 5,
                label_limit: 16,
            }
        );
        assert_eq!(minimal(r#"{"op":"sweep","delta":4}"#), OpRequest::Sweep { delta: 4, lemma: 8 });
        let zero = OpRequest::ZeroRound { node: so_node.into(), edge: so_edge.into() };
        assert_eq!(so("zero-round"), zero);
        assert_eq!(so("zeroround"), zero);
    }

    #[test]
    fn canonical_key_is_spelling_independent() {
        let a = mis_op();
        let b = OpRequest::auto_lb("M M M\\nP O O", "M [P O]\\nO O").unwrap();
        assert_eq!(a.canonical_key().unwrap(), b.canonical_key().unwrap());
        assert_eq!(a.digest().unwrap(), b.digest().unwrap());
        // A different op on the same problem addresses different content.
        let z = OpRequest::zero_round("M M M;P O O", "M [P O];O O").unwrap();
        assert_ne!(a.digest().unwrap(), z.digest().unwrap());
    }

    #[test]
    fn canonical_key_round_trips_through_from_canonical_key() {
        let ops = [
            mis_op(),
            OpRequest::auto_ub("M M\nP O", "M [P O]\nO O").unwrap(),
            OpRequest::iterate("M M M;P O O", "M [P O];O O").unwrap(),
            OpRequest::sweep(4, 8).unwrap(),
            OpRequest::zero_round("M M M;P O O", "M [P O];O O").unwrap(),
        ];
        for op in ops {
            let key = op.canonical_key().unwrap();
            let parsed = OpRequest::from_canonical_key(&key).unwrap();
            // The parsed op carries the *canonical* constraint spelling
            // (the key stores the re-rendered problem), so compare
            // content addresses, not constraint strings.
            assert_eq!(parsed.canonical_key().unwrap(), key);
            assert_eq!(parsed.digest().unwrap(), op.digest().unwrap(), "key:\n{key}");
            assert_eq!(parsed.name(), op.name());
        }
        // An autoub with an explicit coloring round-trips too.
        let OpRequest::AutoUb { node, edge, max_steps, labels, .. } =
            OpRequest::auto_ub("M M\nP O", "M [P O]\nO O").unwrap()
        else {
            unreachable!()
        };
        let colored = OpRequest::AutoUb { node, edge, max_steps, labels, coloring: Some(3) };
        let key = colored.canonical_key().unwrap();
        let parsed = OpRequest::from_canonical_key(&key).unwrap();
        assert_eq!(parsed.canonical_key().unwrap(), key);
        let OpRequest::AutoUb { coloring, .. } = parsed else { unreachable!() };
        assert_eq!(coloring, Some(3));
    }

    #[test]
    fn from_canonical_key_rejects_foreign_and_tampered_keys() {
        assert!(OpRequest::from_canonical_key("not a key").is_err());
        assert!(OpRequest::from_canonical_key("relim-store/1\nengine=v1\nop=nope\n").is_err());
        let key = mis_op().canonical_key().unwrap();
        // Tampering with the problem block fails the round-trip check
        // (an extra blank line the canonical rendering would not emit).
        let tampered = format!("{key}\n");
        assert!(OpRequest::from_canonical_key(&tampered).is_err());
        // Dropping a parameter line is caught as a missing parameter.
        let dropped = key.replace("criterion=gadget\n", "");
        let err = OpRequest::from_canonical_key(&dropped).unwrap_err();
        assert!(err.to_string().contains("criterion"), "{err}");
        // A Δ past `u32` is refused as such, not truncated into range.
        let huge = "relim-store/1\nengine=v1\nop=sweep\ndelta=4294967300\nlemma=8\n";
        let err = OpRequest::from_canonical_key(huge).unwrap_err();
        assert_eq!(err.to_string(), "out-of-range `delta` in canonical key");
    }

    #[test]
    fn prepared_key_and_digest_equal_the_unprepared_ones() {
        let engine = Engine::sequential();
        for op in [
            mis_op(),
            OpRequest::auto_ub("M M;P O", "M [P O];O O").unwrap(),
            OpRequest::iterate("O I I", "[O I] I").unwrap(),
            OpRequest::sweep(4, 8).unwrap(),
            OpRequest::zero_round("M M M;P O O", "M [P O];O O").unwrap(),
        ] {
            let prepared = op.prepare().unwrap();
            assert_eq!(prepared.key(), op.canonical_key().unwrap(), "{}", op.name());
            assert_eq!(prepared.digest(), op.digest().unwrap(), "{}", op.name());
            assert_eq!(prepared.digest(), crate::store::digest_of(prepared.key()));
            if !op.is_bulk() {
                let executed = op.execute(&engine).unwrap();
                assert_eq!(op.execute_prepared(&prepared, &engine).unwrap(), executed);
            }
        }
        // Preparing fails exactly where validating does.
        let bad = OpRequest::Iterate {
            node: "A A".into(),
            edge: "A A".into(),
            max_steps: 1000,
            label_limit: 16,
        };
        assert_eq!(bad.prepare().unwrap_err(), bad.validate().unwrap_err());
    }

    #[test]
    fn canonical_key_sees_parameters() {
        let base = mis_op();
        let OpRequest::AutoLb { node, edge, labels, criterion, .. } = base.clone() else {
            unreachable!()
        };
        let deeper = OpRequest::AutoLb { node, edge, max_steps: 7, labels, criterion };
        assert_ne!(base.digest().unwrap(), deeper.digest().unwrap());
        assert!(base.canonical_key().unwrap().contains("max_steps=6"));
        assert!(base.canonical_key().unwrap().contains("engine=v1"));
    }

    #[test]
    fn validation_rejects_abusive_parameters() {
        assert!(OpRequest::sweep(4, 7).is_err(), "lemma 7 does not exist");
        assert!(OpRequest::sweep(99, 8).is_err(), "delta way out of range");
        assert!(OpRequest::sweep(4, 8).is_ok());
        let bad = OpRequest::Iterate {
            node: "A A".into(),
            edge: "A A".into(),
            max_steps: 1000,
            label_limit: 16,
        };
        assert!(bad.validate().is_err());
        assert!(OpRequest::auto_lb("not a constraint ((", "M M").is_err());
    }

    #[test]
    fn json_round_trip() {
        for op in [
            mis_op(),
            OpRequest::auto_ub("M M;P O", "M [P O];O O").unwrap(),
            OpRequest::iterate("O I I", "[O I] I").unwrap(),
            OpRequest::sweep(4, 8).unwrap(),
            OpRequest::zero_round("A A", "A A").unwrap(),
        ] {
            let obj = Json::Obj(op.to_json_fields());
            let back = OpRequest::from_json(&obj).unwrap();
            assert_eq!(back, op, "round trip through {}", obj.render_compact());
        }
        assert!(OpRequest::from_json(&Json::Obj(vec![("op".into(), Json::str("nope"))])).is_err());
        assert!(OpRequest::from_json(&Json::Null).is_err());
    }

    #[test]
    fn execute_matches_engine_in_process_bytes() {
        // The determinism contract in miniature: executing through any
        // session width yields identical bytes.
        let op = OpRequest::iterate("O I I", "[O I] I").unwrap();
        let seq = op.execute(&Engine::sequential()).unwrap();
        assert!(seq.contains("stopped: FixedPoint"), "{seq}");
        for threads in [2, 8] {
            let par = op.execute(&Engine::builder().threads(threads).build()).unwrap();
            assert_eq!(par, seq, "threads = {threads}");
        }
    }

    #[test]
    fn sweep_rendering_is_thread_free() {
        let op = OpRequest::sweep(4, 8).unwrap();
        let out = op.execute(&Engine::sequential()).unwrap();
        assert!(out.starts_with("Lemma 8 sweep at Δ=4:"), "{out}");
        assert!(!out.contains("threads"), "{out}");
        assert!(out.contains("VERIFIED"), "{out}");
    }
}
