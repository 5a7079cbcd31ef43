//! `relim` — a command-line round eliminator.
//!
//! `relim help` prints the synopsis of every command and its options
//! (`usage` below); a unit test keeps those lines equal to the keys each
//! command accepts.
//!
//! Constraint strings use the engine's text format; `;` or a literal `\n`
//! separates configuration lines. A `--key` the command does not read is
//! refused before the command acts, with exit status 2. Every other error
//! exits with status 1. Only argument errors (an unknown option, a missing
//! or malformed value) are followed by the hint to run `relim help`.
//!
//! The `autolb`, `autoub`, `fixed-point`, `zeroround` and `sweep`
//! subcommands render through `relim_service::ops` — the same functions
//! the `relim serve` daemon uses — so a served result is byte-identical
//! to the local run of the same query.
//!
//! `--threads T` is a **global** flag (valid before or after the
//! subcommand) of every command that builds an engine, `serve` included;
//! the daemon clients refuse it. One round-elimination [`Engine`] session
//! is built from it (default: available parallelism, or the
//! `RELIM_THREADS` environment variable) and flows through every
//! subcommand, so sweeps, repeated steps and bound searches within one
//! invocation share the session's worker pool and sub-multiset index
//! cache. Setting both `--threads` and `RELIM_THREADS` to different
//! values is an error, not a silent preference. Output is byte-identical
//! at any thread count.

mod args;

use args::{constraint_text, ArgError, Args, UnknownOption};
use lb_family::family::{self, PiParams};
use lb_family::{bounds, lemma6, lemma8, sequence};
use relim_core::diagram::StrengthOrder;
use relim_core::engine::parse_threads;
use relim_core::{condense, zeroround, Engine, Problem};
use relim_service::ops::{self, Criterion, Kind, OpRequest, OpSpec, Value, OPS};
use relim_service::queue::Class;
use relim_service::server::{Server, ServerConfig};
use relim_service::trace;
use relim_service::Client;

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match run(raw) {
        Ok(output) => {
            // Write without the println! panic-on-error: a downstream
            // `relim status | grep -q …` closes the pipe as soon as it
            // matches, and a broken pipe is a clean exit, not a crash.
            use std::io::Write;
            let stdout = std::io::stdout();
            let mut stdout = stdout.lock();
            let _ = writeln!(stdout, "{output}");
            let _ = stdout.flush();
        }
        Err(e) => {
            eprintln!("error: {e}");
            let unknown_option = e.is::<UnknownOption>();
            if unknown_option || e.is::<ArgError>() {
                eprintln!("run `relim help` for usage");
            }
            std::process::exit(if unknown_option { 2 } else { 1 });
        }
    }
}

/// Dispatches a full invocation and returns the text to print.
fn run(raw: Vec<String>) -> Result<String, Box<dyn std::error::Error>> {
    let args = Args::parse(raw)?;
    let command = match args.command.as_deref() {
        Some("help") | None => return Ok(usage()),
        Some(command) => command,
    };
    if let Some(known) = command_keys(command, &args) {
        args.reject_unknown(command, &known)?;
    }
    // The service subcommands do not compute in this process: the
    // clients talk to a daemon, and `serve` hands the (resolved) thread
    // count to the daemon's own engine — so no CLI engine session is
    // built for any of them.
    match command {
        "serve" => return cmd_serve(&args),
        "submit" => return cmd_submit(&args),
        "status" => return cmd_status(&args),
        "ping" => return cmd_ping(&args),
        "metrics" => return cmd_metrics(&args),
        "trace" => return cmd_trace(&args),
        "shutdown" => return cmd_shutdown(&args),
        // `viz` computes locally, but with its own lineage-recording
        // session — the shared engine below stays recording-free so the
        // plain subcommands keep their zero-overhead path.
        "viz" => return cmd_viz(&args),
        _ => {}
    }
    // One session per invocation: every subcommand below shares its pool
    // handle and sub-multiset index cache.
    let engine = engine_from(&args)?;
    match command {
        "step" => cmd_step(&args, &engine),
        "bistep" => cmd_bistep(&args, &engine),
        "diagram" => cmd_diagram(&args),
        "trivial" => cmd_trivial(&args),
        // Rendered by the serving layer's canonical op, so a local run and
        // a served query return the same bytes.
        "autolb" | "autoub" | "fixed-point" | "sweep" | "zeroround" => {
            Ok(op_from(&args, command)?.execute(&engine)?)
        }
        "family" => cmd_family(&args),
        "lemma6" => cmd_lemma6(&args),
        "lemma8" => cmd_lemma8(&args, &engine),
        "chain" => cmd_chain(&args, &engine),
        "bounds" => cmd_bounds(&args),
        other => Err(Box::new(ArgError(format!("unknown command `{other}`")))),
    }
}

/// The options and flags `command` reads (`--threads` where it sizes an
/// engine); `None` for an unknown command.
fn command_keys(command: &str, args: &Args) -> Option<Vec<String>> {
    let (fixed, op): (&[&str], _) = match command {
        "step" => (&["threads", "node", "edge", "steps", "condense"], None),
        "bistep" => (&["threads", "black", "white", "steps"], None),
        "diagram" => (&["threads", "node", "edge", "side", "dot"], None),
        "trivial" => (&["threads", "node", "edge", "coloring"], None),
        "autolb" | "autoub" | "fixed-point" | "sweep" | "zeroround" => {
            (&["threads"], Some(command))
        }
        "family" => (&["threads", "delta", "a", "x", "plus"], None),
        "lemma6" | "lemma8" => (&["threads", "delta", "a", "x"], None),
        "chain" => (&["threads", "delta", "k", "exact", "certify"], None),
        "bounds" => (&["threads", "n", "delta", "k"], None),
        "serve" => (
            &[
                "threads",
                "executors",
                "addr",
                "store",
                "store-capacity",
                "store-budget-bytes",
                "aging-limit",
                "peers",
                "peer-timeout-ms",
            ],
            None,
        ),
        "submit" => (&["addr", "op", "priority", "trace"], args.get("op")),
        "status" | "ping" | "metrics" | "shutdown" => (&["addr"], None),
        "trace" => (&["addr", "trace-id", "peers", "format"], None),
        "viz" => (&["threads", "digest", "addr", "store", "op", "full", "json"], args.get("op")),
        _ => return None,
    };
    // A misspelled `--op` is refused by `op_from`, with the op names;
    // until then every op's options count as read.
    let rows: Vec<&OpSpec> = match op {
        None => Vec::new(),
        Some(name) => match ops::op_row(name) {
            Some(row) => vec![&OPS[row]],
            None => OPS.iter().collect(),
        },
    };
    let op_keys = rows.into_iter().flat_map(|spec| {
        let problem = if spec.problem { ["node", "edge"].as_slice() } else { &[] };
        let params = spec.params.iter().map(|p| p.name.replace('_', "-"));
        problem.iter().map(|k| (*k).to_owned()).chain(params)
    });
    Some(fixed.iter().map(|k| (*k).to_owned()).chain(op_keys).collect())
}

fn usage() -> String {
    "relim — a command-line round eliminator (BBKO PODC 2021 reproduction)

USAGE: relim [--threads T] <command> ...

  relim step        --node <N> --edge <E> [--steps N] [--condense]
  relim bistep      --black <B> --white <W> [--steps N]
  relim diagram     --node <N> --edge <E> [--side node|edge] [--dot]
  relim zeroround   --node <N> --edge <E>
  relim trivial     --node <N> --edge <E> [--coloring C]
  relim autolb      --node <N> --edge <E> [--max-steps N] [--labels L] [--criterion gadget|universal]
  relim autoub      --node <N> --edge <E> [--max-steps N] [--labels L] [--coloring C]
  relim fixed-point --node <N> --edge <E> [--max-steps N] [--label-limit L]
  relim family      --delta D --a A --x X [--plus]
  relim lemma6      --delta D --a A --x X
  relim lemma8      --delta D --a A --x X
  relim sweep       --delta D [--lemma 6|8]
  relim chain       --delta D [--k K] [--exact] [--certify]
  relim bounds      --n N --delta D [--k K]
  relim serve       [--addr A] [--store DIR] [--store-capacity N]
                    [--store-budget-bytes N] [--aging-limit N] [--executors N]
                    [--peers host:port,…] [--peer-timeout-ms N]
  relim submit      [--addr A] --op autolb|autoub|iterate|sweep|zero-round
                    <op options> [--priority interactive|bulk] [--trace]
  relim status      [--addr A]
  relim ping        [--addr A]
  relim metrics     [--addr A]
  relim trace       [--trace-id T] [--addr A] [--peers host:port,…]
                    [--format tree|chrome|gantt]
  relim viz         --digest D [--addr A | --store DIR] [--full] [--json]
  relim viz         --op autolb|autoub|iterate|zero-round <op options> [--full] [--json]
  relim shutdown    [--addr A]

Constraints use the text format: one condensed configuration per line
(`;` or literal \\n separate lines), e.g. --node 'M M M;P O O'
--edge 'M [P O];O O'. `--threads T` is a global flag (before or after
the subcommand; also: RELIM_THREADS — setting both to different values
is an error): one engine session sized from it runs the whole
invocation, and output is byte-identical at any thread count. An
option or flag the command does not read (`--threads` on a daemon
client, too) is refused with exit status 2.

`chain` prints the Lemma 13 problem sequence for (Δ, k); with
--certify it also builds the chain's lower-bound certificate and
re-checks every fact (with the engine re-verifying Lemmas 6 and 8 at
each transition when Δ ≤ 5).

`serve` runs the relim-service daemon (JSON-lines over TCP, default
addr 127.0.0.1:7341): jobs are scheduled interactive-before-bulk with
aging and drained by a pool of executor threads (--executors N or
RELIM_EXECUTORS, default min(4, cores), at most 64; identical
in-flight queries coalesce onto one computation), results are memoized
in a content-addressed store (persistent when --store DIR is given —
restarts serve cached certificates instantly; --store-budget-bytes N
bounds the disk layer with oldest-first GC), and every served result
is byte-identical to the same query run locally at any executor count.
With --peers host:port,… the daemon joins a fleet: a deterministic
consistent-hash ring over the peer addresses plus its own partitions
the digest space, and a cold query owned by a remote peer is fetched
from it (verified against the full canonical key) before computing
locally. Every member lists the other members and binds the exact
address its peers dial. Peer calls run under --peer-timeout-ms N
(default 2000) with bounded retries and a circuit breaker; an
unreachable owner degrades to local compute — same bytes, counted.

`submit` sends one query and prints the result on stdout
(cached/digest metadata goes to stderr; with --trace a fresh trace id
is minted, propagated, and echoed on stderr — stdout bytes never
change); `status` prints the daemon counters; `ping` probes liveness
(uptime, store entry count, span window size and drop count — the
same exchange the fleet breaker uses); `metrics` prints the counters
as Prometheus text exposition, including per-op latency histograms;
`shutdown` asks the daemon to drain its queue and exit.

`trace` collects spans from a daemon (--addr) and any number of its
peers (--peers host:port,…) — those of one trace id with --trace-id T,
else every span in their windows — merges them, and renders a
cross-daemon tree, or with --format chrome a Chrome trace-event JSON
loadable in Perfetto / chrome://tracing (one track per trace), or with
--format gantt a scheduler timeline: one section per daemon, one lane
per traced job (E enqueue, P promote, S start, F finish, X failed;
`.` queued, `-` running). A daemon records the spans of every request
that carries a trace id (`submit --trace`) and of the peer fetches it
triggers, and nothing for any other request; a daemon that dropped
spans from its bounded window is called out on stderr so an
incomplete merge is never mistaken for a complete one.

`viz` renders the round-elimination derivation DAG behind one
certificate as Graphviz DOT: address a stored result by --digest D
(fetched from a daemon, or with --store DIR straight off a store
directory, no daemon needed) or give the query inline with --op. The
op is re-executed locally on a lineage-recording session; straight
R/R̄ chains are contracted unless --full is given, and --json emits
the lineage JSON instead of DOT."
        .to_owned()
}

/// The engine session for this invocation: one per run, sized from the
/// global `--threads N` flag or the `RELIM_THREADS` environment variable
/// (see [`resolve_width`]).
fn engine_from(args: &Args) -> Result<Engine, Box<dyn std::error::Error>> {
    Ok(Engine::builder().threads(width_from(args, &THREADS)?).build())
}

/// A pool width set by a flag, an environment variable, or both.
struct WidthSetting {
    /// The flag, without its leading `--`.
    flag: &'static str,
    /// The environment variable.
    var: &'static str,
    /// What is counted, for the conflict message.
    noun: &'static str,
    /// Parses the variable's value; the error is the full message.
    parse: fn(&str) -> Result<usize, String>,
}

/// The engine pool width (`0` = available parallelism).
const THREADS: WidthSetting = WidthSetting {
    flag: "threads",
    var: "RELIM_THREADS",
    noun: "thread",
    parse: |raw| parse_threads(raw).map_err(|e| e.to_string()),
};

/// The daemon's executor count (`0` = the daemon default, `min(4, cores)`).
const EXECUTORS: WidthSetting = WidthSetting {
    flag: "executors",
    var: "RELIM_EXECUTORS",
    noun: "executor",
    parse: |raw| match raw.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!(
            "RELIM_EXECUTORS must be a positive integer (e.g. 4), got `{raw}`; \
             unset it to use the default (min(4, cores))"
        )),
    },
};

/// The resolved value of `setting` for this invocation, without building
/// anything — `serve` passes its widths on to the daemon.
fn width_from(args: &Args, setting: &WidthSetting) -> Result<usize, Box<dyn std::error::Error>> {
    let env = match std::env::var(setting.var) {
        Ok(raw) => Some(raw),
        Err(std::env::VarError::NotPresent) => None,
        Err(std::env::VarError::NotUnicode(raw)) => Some(raw.to_string_lossy().into_owned()),
    };
    Ok(resolve_width(setting, args.get_u64_opt(setting.flag)?, env.as_deref())?)
}

/// The pure flag-vs-environment resolution behind [`width_from`]: the
/// width to use (`0` = the default), or the error describing a malformed
/// or conflicting configuration. A malformed variable (zero, empty,
/// non-numeric) is a reported error, not a silent fallback, and a flag
/// and variable that disagree are rejected instead of silently
/// preferring the flag.
fn resolve_width(
    setting: &WidthSetting,
    flag: Option<u64>,
    env: Option<&str>,
) -> Result<usize, ArgError> {
    match (flag, env) {
        (None, None) => Ok(0),
        (None, Some(raw)) => (setting.parse)(raw).map_err(ArgError),
        (Some(n), None) => Ok(n as usize),
        (Some(n), Some(raw)) => {
            let from_env = (setting.parse)(raw).map_err(|e| {
                ArgError(format!("--{} {n} conflicts with the environment: {e}", setting.flag))
            })?;
            if from_env as u64 != n {
                return Err(ArgError(format!(
                    "conflicting {} counts: --{} {n} vs {}={from_env}; \
                     unset one of them (they must agree when both are given)",
                    setting.noun, setting.flag, setting.var
                )));
            }
            Ok(n as usize)
        }
    }
}

fn load_problem(args: &Args) -> Result<Problem, Box<dyn std::error::Error>> {
    let node = constraint_text(args.require("node")?);
    let edge = constraint_text(args.require("edge")?);
    Ok(Problem::from_text(&node, &edge)?)
}

fn render_problem(p: &Problem, condensed: bool) -> String {
    if condensed {
        format!(
            "N (degree {}):\n{}\n\nE:\n{}",
            p.delta(),
            condense::render_condensed(p.node(), p.alphabet()),
            condense::render_condensed(p.edge(), p.alphabet()),
        )
    } else {
        p.render()
    }
}

fn cmd_step(args: &Args, engine: &Engine) -> Result<String, Box<dyn std::error::Error>> {
    let p = load_problem(args)?;
    let steps = args.get_u64("steps", 1)? as usize;
    let condensed = args.has_flag("condense");
    let mut out = String::new();
    let mut current = p;
    for i in 1..=steps {
        let (r, rr) = engine.rr_step(&current)?;
        out.push_str(&format!("=== step {i}: R(Π) ===\n"));
        out.push_str("labels: ");
        let names: Vec<String> =
            r.provenance.iter().map(|s| s.display(current.alphabet())).collect();
        out.push_str(&names.join(" "));
        out.push_str(&format!("\n\n=== step {i}: R̄(R(Π)) ===\n"));
        let (reduced, _) = rr.problem.drop_unused_labels();
        out.push_str(&render_problem(&reduced, condensed));
        out.push_str("\n\n");
        current = reduced;
    }
    Ok(out.trim_end().to_owned())
}

fn cmd_bistep(args: &Args, engine: &Engine) -> Result<String, Box<dyn std::error::Error>> {
    use relim_core::biregular::{self, BiregularProblem};
    let black = constraint_text(args.require("black")?);
    let white = constraint_text(args.require("white")?);
    let p = BiregularProblem::from_text(&black, &white)?;
    let steps = args.get_u64("steps", 1)? as usize;
    let mut out = format!("(δ_B, δ_W) = {:?}\n\n=== input ===\n{}\n\n", p.degrees(), p.render());
    let mut current = p;
    for i in 1..=steps {
        let (_, b) = biregular::full_step(&current, engine)?;
        out.push_str(&format!("=== after full step {i} ===\n{}\n", b.problem.render()));
        out.push_str(&format!(
            "trivial for black nodes: {}\n\n",
            biregular::trivial_black(&b.problem).is_some()
        ));
        current = b.problem;
    }
    Ok(out.trim_end().to_owned())
}

fn cmd_diagram(args: &Args) -> Result<String, Box<dyn std::error::Error>> {
    let p = load_problem(args)?;
    let side = args.get("side").unwrap_or("edge");
    let constraint = match side {
        "node" => p.node(),
        "edge" => p.edge(),
        other => return Err(Box::new(ArgError(format!("--side must be node|edge, got {other}")))),
    };
    let order = StrengthOrder::of_constraint(constraint, p.alphabet().len());
    if args.has_flag("dot") {
        return Ok(order.to_dot(p.alphabet(), &format!("{side} diagram")));
    }
    let mut out = format!("{side} diagram (a -> b means b is stronger):\n");
    for (a, b) in order.hasse_edges() {
        out.push_str(&format!("  {} -> {}\n", p.alphabet().name(a), p.alphabet().name(b)));
    }
    Ok(out.trim_end().to_owned())
}

fn cmd_trivial(args: &Args) -> Result<String, Box<dyn std::error::Error>> {
    let p = load_problem(args)?;
    let mut out = String::new();
    match zeroround::universal_witness(&p) {
        Some(w) => out.push_str(&format!(
            "bare PN model (trivial problem): SOLVABLE, witness {}\n",
            w.display(p.alphabet())
        )),
        None => out.push_str("bare PN model (trivial problem): not solvable\n"),
    }
    match zeroround::analyze(&p).witness {
        Some(w) => out.push_str(&format!(
            "given a Δ-edge coloring (gadget criterion): SOLVABLE, witness {}\n",
            w.display(p.alphabet())
        )),
        None => out.push_str("given a Δ-edge coloring (gadget criterion): not solvable\n"),
    }
    if let Some(c) = args.get_u64_opt("coloring")? {
        Kind::Coloring.check(Value::Num(c)).map_err(|e| ArgError(format!("--{e}")))?;
        let c = c as usize;
        match zeroround::coloring_witness(&p, c) {
            Some(ws) => {
                out.push_str(&format!("given a proper {c}-vertex coloring: SOLVABLE\n"));
                for (i, w) in ws.iter().enumerate() {
                    out.push_str(&format!("  color {} -> {}\n", i + 1, w.display(p.alphabet())));
                }
            }
            None => out.push_str(&format!("given a proper {c}-vertex coloring: not solvable\n")),
        }
    }
    Ok(out.trim_end().to_owned())
}

fn params_from(args: &Args) -> Result<PiParams, Box<dyn std::error::Error>> {
    Ok(PiParams {
        delta: args.require_u64("delta")? as u32,
        a: args.require_u64("a")? as u32,
        x: args.require_u64("x")? as u32,
    })
}

fn cmd_family(args: &Args) -> Result<String, Box<dyn std::error::Error>> {
    let params = params_from(args)?;
    let p = if args.has_flag("plus") { family::pi_plus(&params)? } else { family::pi(&params)? };
    Ok(render_problem(&p, true))
}

fn cmd_lemma6(args: &Args) -> Result<String, Box<dyn std::error::Error>> {
    let params = params_from(args)?;
    let report = lemma6::verify(&params)?;
    Ok(format!(
        "Lemma 6 at Δ={}, a={}, x={}:\n  provenance: {}\n  node constraint: {}\n  edge constraint: {}\n  Figure 5: {}\n  => {}",
        params.delta,
        params.a,
        params.x,
        report.provenance_matches,
        report.node_matches,
        report.edge_matches,
        report.figure5_matches,
        if report.matches_paper() { "VERIFIED" } else { "MISMATCH" }
    ))
}

fn cmd_lemma8(args: &Args, engine: &Engine) -> Result<String, Box<dyn std::error::Error>> {
    let params = params_from(args)?;
    let mach = lemma8::Lemma8Machinery::compute(&params, engine)?;
    let report = mach.verify();
    Ok(format!(
        "Lemma 8 at Δ={}, a={}, x={}:\n  |Σ''| = {}, |N''| = {}\n  all configurations relax to Π_rel: {}\n  Π_rel = Π⁺: {}\n  => {}",
        params.delta,
        params.a,
        params.x,
        report.rr_label_count,
        report.rr_node_config_count,
        report.all_node_configs_relax,
        report.pi_rel_equals_pi_plus,
        if report.matches_paper() { "VERIFIED" } else { "MISMATCH" }
    ))
}

fn cmd_chain(args: &Args, engine: &Engine) -> Result<String, Box<dyn std::error::Error>> {
    let delta = args.require_u64("delta")? as u32;
    let k = args.get_u64("k", 0)? as u32;
    let chain = if args.has_flag("exact") {
        sequence::exact_chain(delta, k)
    } else {
        sequence::paper_chain(delta, k)
    };
    let mut out = format!(
        "lower-bound chain for Δ={delta}, k={k} ({}):\n",
        if args.has_flag("exact") { "exact recurrence" } else { "paper schedule" }
    );
    for (i, s) in chain.steps.iter().enumerate() {
        out.push_str(&format!("  Π_{i} = Π_Δ({}, {})\n", s.a, s.x));
    }
    out.push_str(&format!(
        "length t = {} transitions  (t/log₂Δ = {:.3}); PN-model lower bound ≥ {} rounds",
        chain.length(),
        chain.slope(),
        chain.pn_round_lower_bound()
    ));
    if args.has_flag("certify") {
        let mut cert = lb_family::certificate::ChainCertificate::build(delta, k)?;
        let ok = cert.verify(Some(engine))?;
        out.push_str("\n\n");
        out.push_str(&cert.render());
        out.push_str(&format!("\ncertificate verifies: {ok}"));
    }
    Ok(out)
}

fn cmd_bounds(args: &Args) -> Result<String, Box<dyn std::error::Error>> {
    let n = args.require_u64("n")? as f64;
    let delta = args.require_u64("delta")? as u32;
    let k = args.get_u64("k", 0)? as u32;
    Ok(format!(
        "Theorem 1 at n={n:.0}, Δ={delta}, k={k}:\n  t(Δ,k) = {} (paper schedule), {} (exact)\n  deterministic LOCAL bound: min{{t, log_Δ n}} = {:.3}\n  randomized LOCAL bound: min{{t, log_Δ log n}} = {:.3}",
        bounds::pn_lower_bound(delta, k),
        bounds::pn_lower_bound_exact(delta, k),
        bounds::theorem1_det(n, delta, k),
        bounds::theorem1_rand(n, delta, k),
    ))
}

/// The default daemon address of `serve` / `submit` / `status` /
/// `shutdown`.
const DEFAULT_ADDR: &str = "127.0.0.1:7341";

/// Parses a `--peers` list: comma-separated `host:port` addresses,
/// blanks tolerated, duplicates rejected loudly (a duplicated peer is
/// always a configuration typo — the ring would silently dedup it, but
/// the operator meant something else).
fn peers_from(args: &Args) -> Result<Vec<String>, ArgError> {
    let Some(raw) = args.get("peers") else { return Ok(Vec::new()) };
    let mut peers = Vec::new();
    for part in raw.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        if !part.contains(':') {
            return Err(ArgError(format!(
                "--peers entries must be host:port addresses, got `{part}`"
            )));
        }
        if peers.iter().any(|p| p == part) {
            return Err(ArgError(format!("--peers lists `{part}` twice")));
        }
        peers.push(part.to_owned());
    }
    Ok(peers)
}

fn cmd_serve(args: &Args) -> Result<String, Box<dyn std::error::Error>> {
    let addr = args.get("addr").unwrap_or(DEFAULT_ADDR);
    let threads = width_from(args, &THREADS)?;
    let executors = width_from(args, &EXECUTORS)?;
    let config = ServerConfig {
        threads,
        executors,
        store_dir: args.get("store").map(std::path::PathBuf::from),
        store_capacity: args
            .get_u64("store-capacity", ServerConfig::default().store_capacity as u64)?
            as usize,
        store_budget_bytes: args.get_u64_opt("store-budget-bytes")?,
        aging_limit: u32::try_from(
            args.get_u64("aging-limit", relim_service::queue::DEFAULT_AGING_LIMIT.into())?,
        )
        .map_err(|_| ArgError("--aging-limit is out of range".to_owned()))?,
        peers: peers_from(args)?,
        peer_timeout_ms: args
            .get_u64("peer-timeout-ms", relim_service::server::DEFAULT_PEER_TIMEOUT_MS)?,
    };
    let store_desc = match &config.store_dir {
        Some(dir) => match config.store_budget_bytes {
            Some(budget) => format!("persistent at {} (budget {budget} bytes)", dir.display()),
            None => format!("persistent at {}", dir.display()),
        },
        None => "in-memory".to_owned(),
    };
    let fleet_desc = if config.peers.is_empty() {
        String::new()
    } else {
        format!(", fleet peers: {}", config.peers.join(" "))
    };
    let handle = Server::spawn(addr, config)?;
    // Announce readiness immediately (scripts poll `relim status`, but a
    // human watching the terminal wants the bound address).
    println!(
        "relim-service listening on {} (store: {store_desc}, engine threads: {}, \
         executors: {}{fleet_desc})",
        handle.local_addr(),
        if threads == 0 { Engine::available_parallelism() } else { threads },
        relim_service::server::resolve_executors(executors),
    );
    use std::io::Write as _;
    std::io::stdout().flush()?;
    let counters = handle.join_and_report();
    Ok(format!(
        "relim-service shut down gracefully; final counters:\n{}",
        counters.render().trim_end()
    ))
}

fn cmd_submit(args: &Args) -> Result<String, Box<dyn std::error::Error>> {
    let client = Client::new(args.get("addr").unwrap_or(DEFAULT_ADDR));
    let obj = op_from(args, args.require("op")?)?;
    let class = match args.get("priority") {
        None => None,
        Some(p) => Some(Class::parse(p).map_err(ArgError)?),
    };
    // `--trace` mints a fresh trace id at this ingress and propagates it
    // with the request; the id is echoed on stderr so the operator can
    // feed it to `relim trace`. Stdout still carries exactly the result
    // bytes — tracing never changes what is served.
    let ctx = args
        .has_flag("trace")
        .then(|| trace::TraceContext { trace_id: trace::mint_trace_id(), parent: None });
    let reply = client.submit_traced(&obj, class, ctx.as_ref())?;
    // Metadata on stderr so stdout carries exactly the result bytes —
    // scripts can diff two submissions directly.
    match &ctx {
        Some(ctx) => eprintln!(
            "cached={} digest={} trace={}",
            reply.cached,
            reply.digest,
            trace::render_id(ctx.trace_id)
        ),
        None => eprintln!("cached={} digest={}", reply.cached, reply.digest),
    }
    Ok(reply.result)
}

/// Builds and validates the job op spelled `name` from the command line:
/// each [`OPS`] parameter from its option (`max_steps` from
/// `--max-steps`), defaulted as the table says.
fn op_from(args: &Args, name: &str) -> Result<OpRequest, Box<dyn std::error::Error>> {
    let Some(row) = ops::op_row(name) else {
        let names = OPS.map(|op| op.names[0]).join("|");
        return Err(Box::new(ArgError(format!("--op must be {names}, got `{name}`"))));
    };
    let problem =
        || Ok((constraint_text(args.require("node")?), constraint_text(args.require("edge")?)));
    let op = OpRequest::decode(row, problem, |param| {
        let flag = param.name.replace('_', "-");
        if param.kind == Kind::Criterion {
            return match args.get(&flag) {
                None => Ok(param.default),
                Some(s) => Criterion::parse(s)
                    .map(Value::Criterion)
                    .map_err(|e| ArgError(format!("--{e}"))),
            };
        }
        // A default the limits refuse (a sweep's Δ of 0) makes the option required.
        let n = match param.kind.check(param.default) {
            Err(_) => args.require_u64(&flag)?,
            Ok(()) => match args.get_u64_opt(&flag)? {
                None => return Ok(param.default),
                Some(n) => n,
            },
        };
        param.kind.num(n).ok_or_else(|| ArgError(format!("--{flag} is out of range")))
    })?;
    op.validate()?;
    Ok(op)
}

fn cmd_status(args: &Args) -> Result<String, Box<dyn std::error::Error>> {
    let client = Client::new(args.get("addr").unwrap_or(DEFAULT_ADDR));
    let counters = client.status()?;
    Ok(counters.render().trim_end().to_owned())
}

fn cmd_ping(args: &Args) -> Result<String, Box<dyn std::error::Error>> {
    let addr = args.get("addr").unwrap_or(DEFAULT_ADDR).to_owned();
    // A liveness probe should answer fast or fail fast — never sit on
    // the client's bulk-job default for ten minutes.
    let client = Client::new(&*addr).with_timeout(std::time::Duration::from_secs(5));
    let info = client.ping_info()?;
    Ok(format!(
        "pong from {addr}: uptime {} ms, {} store entries, span window {} ({} dropped)",
        info.uptime_ms, info.store_entries, info.span_window, info.span_dropped
    ))
}

fn cmd_metrics(args: &Args) -> Result<String, Box<dyn std::error::Error>> {
    let client = Client::new(args.get("addr").unwrap_or(DEFAULT_ADDR));
    Ok(client.metrics()?.trim_end().to_owned())
}

/// Collects the spans of one trace id (`--trace-id`), or every span in
/// the windows, from a daemon plus any number of its peers, merges the
/// per-daemon dumps, and renders the cross-daemon tree (default), a
/// Chrome trace-event JSON (`--format chrome`, loadable in Perfetto /
/// chrome://tracing) or a scheduler gantt (`--format gantt`).
///
/// Completeness warnings go to stderr, never into the rendering: a
/// daemon that has dropped spans out of its bounded window may hold
/// only part of the trace. The merge still renders — but the operator
/// is told it may be incomplete.
fn cmd_trace(args: &Args) -> Result<String, Box<dyn std::error::Error>> {
    let trace_id = match args.get("trace-id") {
        None => None,
        Some(raw) => Some(trace::parse_id(raw).ok_or_else(|| {
            ArgError(format!("--trace-id must be 1..=16 hex digits, got `{raw}`"))
        })?),
    };
    let render: fn(&[trace::TraceDump]) -> String = match args.get("format").unwrap_or("tree") {
        "tree" => trace::render_tree,
        "chrome" => trace::render_chrome,
        "gantt" => trace::render_gantt,
        other => {
            let message = format!("--format must be tree|chrome|gantt, got `{other}`");
            return Err(Box::new(ArgError(message)));
        }
    };
    let mut addrs = vec![args.get("addr").unwrap_or(DEFAULT_ADDR).to_owned()];
    for peer in peers_from(args)? {
        if !addrs.contains(&peer) {
            addrs.push(peer);
        }
    }
    let mut dumps = Vec::new();
    for addr in &addrs {
        let client = Client::new(&**addr).with_timeout(std::time::Duration::from_secs(5));
        let dump = client.trace_dump(trace_id)?;
        if dump.dropped > 0 {
            eprintln!(
                "warning: {addr} dropped {} span(s) out of its window of {}; \
                 the merged trace may be incomplete",
                dump.dropped, dump.window
            );
        }
        dumps.push(dump);
    }
    Ok(render(&dumps).trim_end().to_owned())
}

/// Renders the derivation-lineage DAG of one certificate as Graphviz
/// DOT (default), uncontracted DOT (`--full`), or lineage JSON
/// (`--json`).
///
/// The certificate comes from either place a query can live: a stored
/// entry addressed by `--digest D` (read from a daemon via `--addr`, or
/// straight off a store directory via `--store DIR` — no daemon
/// needed), or a fresh query given inline with `--op` plus the usual op
/// options. Either way the op is **re-executed locally** on a
/// lineage-recording session: stored results carry only the canonical
/// result text, so the DAG is reconstructed by replaying the exact
/// query the digest addresses (the canonical key round-trips through
/// [`OpRequest::from_canonical_key`], which rejects tampered keys).
fn cmd_viz(args: &Args) -> Result<String, Box<dyn std::error::Error>> {
    let op = match args.get("digest") {
        Some(digest) => {
            let key = match args.get("store") {
                Some(dir) => {
                    relim_service::store::read_stored_entry(std::path::Path::new(dir), digest)
                        .ok_or_else(|| format!("no stored entry for digest {digest} in {dir}"))?
                        .0
                }
                None => {
                    let addr = args.get("addr").unwrap_or(DEFAULT_ADDR);
                    Client::new(addr)
                        .fetch(digest)?
                        .ok_or_else(|| format!("no stored entry for digest {digest} at {addr}"))?
                        .0
                }
            };
            OpRequest::from_canonical_key(&key)?
        }
        None => op_from(args, args.require("op")?)?,
    };
    if op.problem()?.is_none() {
        return Err(Box::new(ArgError(format!(
            "`{}` spans many problems and has no single derivation DAG; \
             viz one of its member queries instead",
            op.name()
        ))));
    }
    let engine =
        Engine::builder().threads(width_from(args, &THREADS)?).record_lineage(true).build();
    op.execute(&engine)?;
    let graph = engine.lineage().expect("a record_lineage(true) session always has a graph");
    if args.has_flag("json") {
        return Ok(graph.render_json().trim_end().to_owned());
    }
    let digest = op.digest()?;
    let title = format!("{} {}", op.name(), &digest[..12]);
    Ok(graph.to_dot(&title, !args.has_flag("full")).trim_end().to_owned())
}

fn cmd_shutdown(args: &Args) -> Result<String, Box<dyn std::error::Error>> {
    let addr = args.get("addr").unwrap_or(DEFAULT_ADDR).to_owned();
    let client = Client::new(&*addr);
    client.shutdown()?;
    Ok(format!("shutdown acknowledged by {addr} (queue drains, then the daemon exits)"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_words(words: &[&str]) -> String {
        run(words.iter().map(|s| s.to_string()).collect()).expect("command succeeds")
    }

    /// A `--threads` value that cannot conflict with the ambient
    /// `RELIM_THREADS` (the CI determinism matrix sets it for the whole
    /// test run): the environment's value when set, else `preferred`.
    fn threads_value(preferred: &str) -> String {
        std::env::var("RELIM_THREADS").unwrap_or_else(|_| preferred.to_owned())
    }

    #[test]
    fn help_by_default() {
        assert!(run_words(&[]).contains("USAGE"));
        assert!(run_words(&["help"]).contains("relim step"));
    }

    /// The `--key`s on each command's `relim help` lines (a command line
    /// and its indented continuations), by command.
    fn help_keys() -> std::collections::BTreeMap<String, std::collections::BTreeSet<String>> {
        let mut keys = std::collections::BTreeMap::<String, std::collections::BTreeSet<_>>::new();
        let mut current: Option<String> = None;
        for line in usage().lines() {
            if let Some(rest) = line.strip_prefix("  relim ") {
                current = rest.split_whitespace().next().map(str::to_owned);
            } else if !line.starts_with("                    ") {
                current = None;
            }
            let Some(command) = &current else { continue };
            let entry = keys.entry(command.clone()).or_default();
            for tail in line.split("--").skip(1) {
                entry.insert(
                    tail.chars().take_while(|c| c.is_ascii_alphanumeric() || *c == '-').collect(),
                );
            }
        }
        keys
    }

    #[test]
    fn help_lists_exactly_the_keys_each_command_accepts() {
        let help = help_keys();
        assert!(help.len() > 20, "help lines not found: {help:?}");
        for (command, shown) in help {
            let accepted = command_keys(&command, &Args::default())
                .unwrap_or_else(|| panic!("`relim help` shows unknown command `{command}`"));
            // `--threads` is the global flag of the usage header.
            let accepted: std::collections::BTreeSet<String> =
                accepted.into_iter().filter(|k| k != "threads").collect();
            assert_eq!(shown, accepted, "`relim help` drifted from `{command}`'s keys");
        }
    }

    #[test]
    fn step_on_mis() {
        let out = run_words(&["step", "--node", "M M M;P O O", "--edge", "M [P O];O O"]);
        assert!(out.contains("R̄(R(Π))"));
        assert!(out.contains("labels:"));
    }

    #[test]
    fn diagram_edge_and_dot() {
        let out = run_words(&["diagram", "--node", "M M M;P O O", "--edge", "M [P O];O O"]);
        assert!(out.contains("P -> O"));
        let dot =
            run_words(&["diagram", "--node", "M M M;P O O", "--edge", "M [P O];O O", "--dot"]);
        assert!(dot.contains("digraph"));
    }

    #[test]
    fn zeroround_mis() {
        let out = run_words(&["zeroround", "--node", "M M M;P O O", "--edge", "M [P O];O O"]);
        assert!(out.contains("false"));
        assert!(out.contains("not self-compatible"));
    }

    #[test]
    fn fixed_point_so() {
        let out = run_words(&["fixed-point", "--node", "O I I", "--edge", "[O I] I"]);
        assert!(out.contains("FixedPoint"), "{out}");
    }

    #[test]
    fn family_and_lemmas() {
        let fam = run_words(&["family", "--delta", "5", "--a", "3", "--x", "1"]);
        assert!(fam.contains("N (degree 5)"));
        let l6 = run_words(&["lemma6", "--delta", "4", "--a", "3", "--x", "1"]);
        assert!(l6.contains("VERIFIED"));
        let l8 = run_words(&["lemma8", "--delta", "3", "--a", "2", "--x", "0"]);
        assert!(l8.contains("VERIFIED"));
    }

    #[test]
    fn sweep_subcommand() {
        // Thread counts must not change the output bytes — since the
        // service-shared rendering, not even in the header (the sweep
        // runs at whatever width the ambient environment permits).
        let t = threads_value("1");
        let one = run_words(&["sweep", "--delta", "4", "--threads", &t]);
        assert!(one.contains("Lemma 8 sweep at Δ=4:"), "{one}");
        assert!(!one.contains("threads"), "{one}");
        assert!(one.contains("VERIFIED"), "{one}");
        let plain = run_words(&["sweep", "--delta", "4"]);
        assert_eq!(one, plain, "pool width must not appear in any output byte");
        let l6 = run_words(&["sweep", "--delta", "5", "--lemma", "6"]);
        assert!(l6.contains("Lemma 6 sweep"), "{l6}");
        assert!(!l6.contains("MISMATCH"), "{l6}");
        assert!(run(vec![
            "sweep".into(),
            "--delta".into(),
            "4".into(),
            "--lemma".into(),
            "7".into()
        ])
        .is_err());
    }

    #[test]
    fn step_threads_flag_is_deterministic_and_global() {
        let base = run_words(&["step", "--node", "M M M;P O O", "--edge", "M [P O];O O"]);
        let t = threads_value("3");
        // The flag is global: before the subcommand works too.
        let threaded_before =
            run_words(&["--threads", &t, "step", "--node", "M M M;P O O", "--edge", "M [P O];O O"]);
        assert_eq!(base, threaded_before);
        let threaded_after =
            run_words(&["step", "--node", "M M M;P O O", "--edge", "M [P O];O O", "--threads", &t]);
        assert_eq!(base, threaded_after);
    }

    #[test]
    fn threads_flag_and_env_must_agree() {
        // Pure resolution: unset env falls back to the flag / available
        // parallelism; agreeing values pass; disagreeing or malformed
        // combinations are loud errors, never a silent preference.
        assert_eq!(resolve_width(&THREADS, None, None).unwrap(), 0);
        assert_eq!(resolve_width(&THREADS, Some(3), None).unwrap(), 3);
        assert_eq!(resolve_width(&THREADS, None, Some("4")).unwrap(), 4);
        assert_eq!(resolve_width(&THREADS, Some(4), Some("4")).unwrap(), 4);
        let conflict = resolve_width(&THREADS, Some(4), Some("2")).unwrap_err();
        assert!(conflict.to_string().contains("conflicting thread counts"), "{conflict}");
        assert!(conflict.to_string().contains("unset one"), "{conflict}");
        let bad_env = resolve_width(&THREADS, Some(4), Some("zero")).unwrap_err();
        assert!(bad_env.to_string().contains("conflicts with the environment"), "{bad_env}");
        let bad_env_alone = resolve_width(&THREADS, None, Some("0")).unwrap_err();
        assert!(bad_env_alone.to_string().contains("positive integer"), "{bad_env_alone}");
    }

    #[test]
    fn executor_resolution_mirrors_the_thread_rules() {
        assert_eq!(resolve_width(&EXECUTORS, None, None).unwrap(), 0);
        assert_eq!(resolve_width(&EXECUTORS, Some(4), None).unwrap(), 4);
        assert_eq!(resolve_width(&EXECUTORS, None, Some("4")).unwrap(), 4);
        assert_eq!(resolve_width(&EXECUTORS, Some(2), Some("2")).unwrap(), 2);
        let conflict = resolve_width(&EXECUTORS, Some(4), Some("2")).unwrap_err();
        assert!(conflict.to_string().contains("conflicting executor counts"), "{conflict}");
        let bad_env = resolve_width(&EXECUTORS, None, Some("0")).unwrap_err();
        assert!(bad_env.to_string().contains("RELIM_EXECUTORS"), "{bad_env}");
        let bad_combo = resolve_width(&EXECUTORS, Some(4), Some("none")).unwrap_err();
        assert!(bad_combo.to_string().contains("conflicts with the environment"), "{bad_combo}");
    }

    #[test]
    fn chain_and_bounds() {
        let chain = run_words(&["chain", "--delta", "4096"]);
        assert!(chain.contains("length t = 3"), "{chain}");
        let exact = run_words(&["chain", "--delta", "4096", "--exact"]);
        assert!(exact.contains("exact recurrence"));
        let bounds = run_words(&["bounds", "--n", "1000000000", "--delta", "4096"]);
        assert!(bounds.contains("Theorem 1"));
    }

    #[test]
    fn errors_are_reported() {
        assert!(run(vec!["step".into()]).is_err());
        assert!(run(vec!["nonsense".into()]).is_err());
        assert!(run(vec!["chain".into()]).is_err()); // missing --delta
    }

    #[test]
    fn degrees_past_the_mask_width_are_refused() {
        for words in [
            ["step", "--node", "A^65;A^64 B", "--edge", "A A;B B"],
            ["bistep", "--black", "A^65;A^64 B", "--white", "A A;B B"],
        ] {
            let err = run(words.iter().map(|s| s.to_string()).collect()).unwrap_err();
            assert!(err.to_string().contains("degree 65 exceeds the limit of 64"), "{err}");
        }
        // At the limit the step still answers, and `A^64` is dominated.
        let out = run_words(&["step", "--node", "A^64;A^63 B", "--edge", "A A;B B"]);
        assert!(out.contains("A^63 AB\n") && !out.contains("A^64\n"), "{out}");
    }

    #[test]
    fn alphabets_past_the_step_limit_name_that_limit() {
        let lines: Vec<String> = (0..23).map(|i| format!("L{i} L{i}")).collect();
        let text = lines.join(";");
        let err =
            run(["step", "--node", &text, "--edge", &text].map(String::from).to_vec()).unwrap_err();
        assert_eq!(err.to_string(), "alphabet of 23 labels exceeds the limit of 22");
    }

    #[test]
    fn trivial_reports_all_criteria() {
        // Perfect matching: solvable with the edge coloring, not bare.
        let out = run_words(&["trivial", "--node", "M O", "--edge", "M M;O O", "--coloring", "2"]);
        assert!(out.contains("bare PN model (trivial problem): not solvable"), "{out}");
        assert!(out.contains("gadget criterion): SOLVABLE"), "{out}");
        // Config cliques: MO is not cross-compatible with itself, and there
        // is only one configuration, so 2-coloring does not help.
        assert!(out.contains("2-vertex coloring: not solvable"), "{out}");
    }

    #[test]
    fn autolb_on_sinkless_orientation() {
        let out = run_words(&["autolb", "--node", "O I I", "--edge", "[O I] I"]);
        assert!(out.contains("FIXED POINT"), "{out}");
        assert!(out.contains("certificate replay: OK"), "{out}");
    }

    #[test]
    fn autolb_criterion_choice() {
        let out = run_words(&[
            "autolb",
            "--node",
            "M M M;P O O",
            "--edge",
            "M [P O];O O",
            "--max-steps",
            "2",
            "--labels",
            "5",
            "--criterion",
            "universal",
        ]);
        assert!(out.contains("bare PN model"), "{out}");
        let err = run(vec![
            "autolb".into(),
            "--node".into(),
            "M M".into(),
            "--edge".into(),
            "M M".into(),
            "--criterion".into(),
            "bogus".into(),
        ]);
        assert!(err.is_err());
    }

    #[test]
    fn bistep_on_hypergraph_so() {
        let out = run_words(&["bistep", "--black", "O I I", "--white", "[O I] I I"]);
        assert!(out.contains("(3, 3)"), "{out}");
        assert!(out.contains("trivial for black nodes: false"), "{out}");
    }

    #[test]
    fn bistep_bytes_do_not_depend_on_the_session_width() {
        // Sessions are built directly, so an ambient RELIM_THREADS cannot
        // conflict with the widths under test.
        let words = ["bistep", "--black", "M M M;P O O", "--white", "M [P O];O O", "--steps", "2"];
        let args = Args::parse(words.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap();
        let one = cmd_bistep(&args, &Engine::builder().threads(1).build()).unwrap();
        let two = cmd_bistep(&args, &Engine::builder().threads(2).build()).unwrap();
        assert!(one.contains("=== after full step 2 ==="), "{one}");
        assert_eq!(one, two);
    }

    #[test]
    fn submit_round_trips_against_an_in_process_daemon() {
        // Spawn the daemon in-process on an ephemeral port; `submit`
        // must return the exact bytes of the local subcommand, and the
        // second ask must be a store hit with identical bytes.
        let handle = Server::spawn("127.0.0.1:0", ServerConfig::default()).unwrap();
        let addr = handle.local_addr().to_string();
        let local = run_words(&["autolb", "--node", "O I I", "--edge", "[O I] I"]);
        let words =
            ["submit", "--addr", &addr, "--op", "autolb", "--node", "O I I", "--edge", "[O I] I"];
        let served = run_words(&words);
        assert_eq!(served, local, "served bytes must equal the local run");
        let again = run_words(&words);
        assert_eq!(again, local);

        let status = run_words(&["status", "--addr", &addr]);
        assert!(status.contains("\"mem_hits\": 1"), "{status}");
        assert!(status.contains("\"autolb\": 2"), "{status}");

        let bye = run_words(&["shutdown", "--addr", &addr]);
        assert!(bye.contains("shutdown acknowledged"), "{bye}");
        handle.join();
    }

    #[test]
    fn viz_renders_dot_for_a_stored_autolb_certificate() {
        // The acceptance path: submit an autolb query to a daemon, then
        // `relim viz --digest D` must fetch the stored canonical key,
        // replay it on a lineage-recording session, and emit DOT.
        let handle = Server::spawn("127.0.0.1:0", ServerConfig::default()).unwrap();
        let addr = handle.local_addr().to_string();
        run_words(&[
            "submit", "--addr", &addr, "--op", "autolb", "--node", "O I I", "--edge", "[O I] I",
        ]);
        let digest = OpRequest::AutoLb {
            node: "O I I".into(),
            edge: "[O I] I".into(),
            max_steps: 6,
            labels: 6,
            criterion: Criterion::Gadget,
        }
        .digest()
        .unwrap();
        let dot = run_words(&["viz", "--addr", &addr, "--digest", &digest]);
        assert!(dot.starts_with("digraph"), "{dot}");
        assert!(dot.contains(&format!("autolb {}", &digest[..12])), "{dot}");
        assert!(dot.contains("R·R̄"), "contracted chain edges expected: {dot}");
        // --json swaps the rendering, same replay.
        let json = run_words(&["viz", "--addr", &addr, "--digest", &digest, "--json"]);
        assert!(json.contains("\"relim-lineage/1\""), "{json}");
        // An unknown digest is a clean miss, reported as an error.
        let err = run(vec![
            "viz".into(),
            "--addr".into(),
            addr.clone(),
            "--digest".into(),
            "f00d".into(),
        ])
        .unwrap_err();
        assert_eq!(err.to_string(), format!("no stored entry for digest f00d at {addr}"));
        run_words(&["shutdown", "--addr", &addr]);
        handle.join();
    }

    #[test]
    fn viz_renders_a_local_problem_and_reads_a_store_dir() {
        // Inline problem mode: no daemon involved at all.
        let words = ["viz", "--op", "zero-round", "--node", "M M M;P O O", "--edge", "M [P O];O O"];
        let dot = run_words(&words);
        assert!(dot.starts_with("digraph"), "{dot}");
        let full = run_words(&[&words[..], &["--full"]].concat());
        assert!(full.starts_with("digraph"), "{full}");
        // Sweeps span many problems — no single DAG to draw.
        let err =
            run(vec!["viz".into(), "--op".into(), "sweep".into(), "--delta".into(), "4".into()])
                .unwrap_err();
        assert!(err.to_string().contains("spans many problems"), "{err}");

        // Store-directory mode: persist one entry, read it back with no
        // daemon running.
        let dir = std::env::temp_dir().join(format!("relim-cli-viz-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = ServerConfig { store_dir: Some(dir.clone()), ..ServerConfig::default() };
        let handle = Server::spawn("127.0.0.1:0", config).unwrap();
        let addr = handle.local_addr().to_string();
        run_words(&[
            "submit",
            "--addr",
            &addr,
            "--op",
            "zero-round",
            "--node",
            "M M M;P O O",
            "--edge",
            "M [P O];O O",
        ]);
        run_words(&["shutdown", "--addr", &addr]);
        handle.join();
        let digest = OpRequest::zero_round("M M M;P O O", "M [P O];O O").unwrap().digest().unwrap();
        let dot = run_words(&[
            "viz",
            "--digest",
            &digest,
            "--store",
            dir.to_str().expect("utf-8 temp path"),
        ]);
        assert!(dot.contains(&format!("zero-round {}", &digest[..12])), "{dot}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn metrics_and_ping_verbs_print_the_observability_surfaces() {
        let handle = Server::spawn("127.0.0.1:0", ServerConfig::default()).unwrap();
        let addr = handle.local_addr().to_string();
        run_words(&[
            "submit",
            "--addr",
            &addr,
            "--op",
            "zero-round",
            "--node",
            "M M M;P O O",
            "--edge",
            "M [P O];O O",
        ]);
        let metrics = run_words(&["metrics", "--addr", &addr]);
        assert!(metrics.contains("relim_requests_total"), "{metrics}");
        assert!(metrics.contains("# TYPE relim_store_stores counter"), "{metrics}");
        // Every daemon keeps its span window: ping reports it.
        let pong = run_words(&["ping", "--addr", &addr]);
        assert!(pong.ends_with("span window 4096 (0 dropped)"), "{pong}");
        // The scheduler timeline is a rendering of the span log now.
        let err = run(vec!["timeline".into()]).unwrap_err().to_string();
        assert!(err.contains("unknown command `timeline`"), "{err}");
        run_words(&["shutdown", "--addr", &addr]);
        handle.join();
    }

    #[test]
    fn trace_verb_renders_a_tree_a_chrome_export_and_a_gantt() {
        let handle = Server::spawn("127.0.0.1:0", ServerConfig::default()).unwrap();
        let addr = handle.local_addr().to_string();

        // A traced submit serves byte-identical stdout: the trace id
        // only ever rides on stderr.
        let words = [
            "submit",
            "--addr",
            &addr,
            "--op",
            "zero-round",
            "--node",
            "M M M;P O O",
            "--edge",
            "M [P O];O O",
        ];
        let traced = run_words(&[&words[..], &["--trace"]].concat());
        let untraced = run_words(&words);
        assert_eq!(traced, untraced, "tracing never changes served bytes");

        // Submit under a *known* trace id (the CLI mints random ones),
        // then dump it through the verb.
        let op = OpRequest::zero_round("M M M;P O O", "M [P O];O O").unwrap();
        Client::new(&*addr)
            .submit_traced(&op, None, Some(&trace::TraceContext { trace_id: 0xf00d, parent: None }))
            .unwrap();
        let tree = run_words(&["trace", "--addr", &addr, "--trace-id", "f00d"]);
        assert!(tree.contains(&trace::render_id(0xf00d)), "{tree}");
        assert!(tree.contains("request"), "{tree}");
        assert!(tree.contains("store-read"), "{tree}");
        let chrome =
            run_words(&["trace", "--addr", &addr, "--trace-id", "f00d", "--format", "chrome"]);
        assert!(chrome.contains("\"ph\":\"X\""), "{chrome}");
        assert!(chrome.contains("traceEvents"), "{chrome}");

        // Without --trace-id the whole window renders: the gantt draws
        // one lane per traced job — the first submit, the one that
        // computed (store hits queue nothing).
        let gantt = run_words(&["trace", "--addr", &addr, "--format", "gantt"]);
        let lines: Vec<&str> = gantt.lines().collect();
        assert_eq!(lines[0], format!("daemon {addr}: 1 traced job(s), 3 event(s)"), "{gantt}");
        assert_eq!(lines[1], format!("{} zero-round interactive|ESF", &op.digest().unwrap()[..12]));
        let chrome = run_words(&["trace", "--addr", &addr, "--format", "chrome"]);
        assert!(chrome.contains(&trace::render_id(0xf00d)), "{chrome}");
        assert!(chrome.contains("\"tid\":2"), "two traces, two tracks: {chrome}");

        // Bad id / bad format are loud argument errors, not connections.
        let err = run(vec!["trace".into(), "--trace-id".into(), "xyz".into()]).unwrap_err();
        assert!(err.to_string().contains("hex"), "{err}");
        let err = run(vec![
            "trace".into(),
            "--trace-id".into(),
            "f00d".into(),
            "--format".into(),
            "svg".into(),
        ])
        .unwrap_err();
        assert!(err.to_string().contains("tree|chrome|gantt"), "{err}");

        run_words(&["shutdown", "--addr", &addr]);
        handle.join();
    }

    #[test]
    fn submit_validates_op_and_reports_connection_failures() {
        let err = run(vec!["submit".into(), "--op".into(), "bogus".into()]).unwrap_err();
        assert!(err.to_string().contains("--op must be"), "{err}");
        // Nothing listens on this port: a clean error, not a hang.
        let err = run(vec![
            "submit".into(),
            "--addr".into(),
            "127.0.0.1:1".into(),
            "--op".into(),
            "zero-round".into(),
            "--node".into(),
            "A A".into(),
            "--edge".into(),
            "A A".into(),
        ])
        .unwrap_err();
        assert!(err.to_string().contains("cannot connect"), "{err}");
    }

    /// JSON, the canonical key and the command line decode every op of
    /// the table, over a spread of in-range parameters, to one request.
    #[test]
    fn json_key_and_cli_decoders_agree() {
        use relim_json::Json;
        use relim_service::ops::OpError;
        let samples = |kind: Kind| match kind {
            Kind::Steps => vec![Value::Num(0), Value::Num(3), Value::Num(64)],
            Kind::Labels => vec![Value::Num(0), Value::Num(7), Value::Num(64)],
            Kind::Criterion => {
                vec![Value::Criterion(Criterion::Gadget), Value::Criterion(Criterion::Universal)]
            }
            Kind::Coloring => vec![Value::NoColoring, Value::Num(2), Value::Num(5)],
            Kind::Delta => vec![Value::Num(3), Value::Num(9)],
            Kind::Lemma => vec![Value::Num(6), Value::Num(8)],
        };
        let mut decoded = 0;
        for (row, spec) in OPS.iter().enumerate() {
            let mut combos = vec![Vec::new()];
            for param in spec.params {
                combos = combos
                    .iter()
                    .flat_map(|c: &Vec<Value>| {
                        samples(param.kind).into_iter().map(move |v| [&c[..], &[v]].concat())
                    })
                    .collect();
            }
            for values in combos {
                let mut next = values.iter().copied();
                let problem = || Ok(("M M M\nP O O".to_owned(), "M [P O]\nO O".to_owned()));
                let op = OpRequest::decode::<OpError>(row, problem, |_| Ok(next.next().unwrap()))
                    .unwrap();
                let fields = op.to_json_fields();
                assert_eq!(OpRequest::from_json(&Json::Obj(fields.clone())).unwrap(), op);
                let key = op.canonical_key().unwrap();
                assert_eq!(
                    OpRequest::from_canonical_key(&key).unwrap().canonical_key().unwrap(),
                    key
                );
                let mut words = vec!["submit".to_owned()];
                for (name, value) in &fields[1..] {
                    let text = value
                        .as_str()
                        .map_or_else(|| value.as_i64().unwrap().to_string(), str::to_owned);
                    words.extend([format!("--{}", name.replace('_', "-")), text]);
                }
                let args = Args::parse(words).unwrap();
                for name in spec.names {
                    assert_eq!(op_from(&args, name).unwrap(), op, "{name} from {args:?}");
                }
                decoded += 1;
            }
        }
        assert_eq!(decoded, 18 + 27 + 9 + 4 + 1);
    }

    #[test]
    fn a_coloring_below_two_is_an_error_not_a_panic() {
        for c in ["0", "1"] {
            for command in ["autoub", "trivial"] {
                let words =
                    [command, "--node", "M M M;P O O", "--edge", "M [P O];O O", "--coloring", c];
                let err = run(words.iter().map(|w| w.to_string()).collect()).unwrap_err();
                assert!(err.to_string().contains(&format!("coloring {c} is below 2")), "{err}");
            }
        }
    }

    #[test]
    fn autoub_with_coloring() {
        let out = run_words(&[
            "autoub",
            "--node",
            "M M;P O",
            "--edge",
            "M [P O];O O",
            "--max-steps",
            "5",
            "--labels",
            "14",
            "--coloring",
            "3",
        ]);
        assert!(out.contains("upper bound:"), "{out}");
        assert!(out.contains("3-vertex coloring"), "{out}");
        assert!(out.contains("certificate replay: OK"), "{out}");
    }
}
