//! The `BENCH_relim.json` baseline: a machine-readable record of the
//! parallel round-elimination engine's wall-clock behaviour, emitted by
//! the `bench-driver` binary alongside the human tables.
//!
//! Schema (`bench-relim/4`): a header with the thread configuration plus
//! one entry per kernel, each carrying its parameter assignments, one
//! timed run per configuration (usually thread counts; the
//! `engine_session_reuse` kernel compares per-call vs shared engine
//! caches instead), the speedup of the last run over the first, whether
//! the compared outputs were byte-identical (always asserted before the
//! file is written), and an `engine_report` object: the
//! **deterministic** counters of an
//! [`EngineReport`](relim_core::EngineReport) probe run
//! (cache hits/misses, per-operator counts; never `wall_ns`), plus —
//! new in `bench-relim/4` — the probe's exact `alloc_count` /
//! `alloc_bytes` heap-allocation deltas measured by the driver's
//! counting allocator. Unlike the timing fields these are diffed
//! *exactly* by `bench-driver --diff`, so CI catches cache-hit-trend
//! **and allocation** regressions, not just schema drift (allocation
//! counts, like cache counters, are deterministic for a fixed workload —
//! `wall_ns` is not).
//! History: `bench-relim/2` added the `engine_session_reuse` kernel;
//! `bench-relim/3` added `engine_report` plus the `store_roundtrip` and
//! `service_cold_vs_warm` serving-layer kernels; `bench-relim/4` added
//! the allocation counters backing the `--alloc-gate` regression gate.

use crate::json::Json;

/// One timed run of a kernel at a fixed thread count.
#[derive(Debug, Clone)]
pub struct Run {
    /// Pool size used.
    pub threads: usize,
    /// Median wall-clock nanoseconds across `samples`.
    pub wall_ns: u64,
    /// Fastest sample.
    pub min_ns: u64,
    /// Slowest sample.
    pub max_ns: u64,
    /// Number of timed samples.
    pub samples: usize,
}

/// One kernel's baseline entry.
#[derive(Debug, Clone)]
pub struct Entry {
    /// Stable kernel id, e.g. `lemma8_sweep_d5`.
    pub id: String,
    /// Kernel parameters (name, value).
    pub params: Vec<(String, Json)>,
    /// Timed runs, one per thread count (sequential first).
    pub runs: Vec<Run>,
    /// `wall(threads=1) / wall(threads=N)` for the widest run, when the
    /// entry was measured at more than one thread count.
    pub speedup: Option<f64>,
    /// Whether the parallel result rendered byte-identically to the
    /// sequential result (`None` for single-configuration kernels).
    pub byte_identical: Option<bool>,
    /// Deterministic engine counters of one probe run of this kernel on
    /// a fresh sequential session (`EngineReport::snapshot_pairs`) —
    /// byte-stable across machines and thread counts, diffed exactly.
    /// `None` for kernels that never touch an engine.
    pub report: Option<Vec<(String, i64)>>,
}

/// The whole baseline file.
#[derive(Debug, Clone)]
pub struct Baseline {
    /// Whether this was a `--quick` (CI smoke) run.
    pub quick: bool,
    /// Parallel thread count the driver was asked to compare against.
    pub threads: usize,
    /// Per-kernel entries.
    pub entries: Vec<Entry>,
}

impl Entry {
    fn to_json(&self) -> Json {
        let runs = self
            .runs
            .iter()
            .map(|r| {
                Json::Obj(vec![
                    ("threads".into(), Json::Int(r.threads as i64)),
                    ("wall_ns".into(), Json::Int(r.wall_ns as i64)),
                    ("min_ns".into(), Json::Int(r.min_ns as i64)),
                    ("max_ns".into(), Json::Int(r.max_ns as i64)),
                    ("samples".into(), Json::Int(r.samples as i64)),
                ])
            })
            .collect();
        let report = match &self.report {
            None => Json::Null,
            Some(pairs) => {
                Json::Obj(pairs.iter().map(|(k, v)| (k.clone(), Json::Int(*v))).collect())
            }
        };
        Json::Obj(vec![
            ("id".into(), Json::str(&self.id)),
            ("params".into(), Json::Obj(self.params.clone())),
            ("runs".into(), Json::Arr(runs)),
            ("speedup".into(), self.speedup.map_or(Json::Null, Json::Float)),
            ("byte_identical".into(), self.byte_identical.map_or(Json::Null, Json::Bool)),
            ("engine_report".into(), report),
        ])
    }
}

impl Baseline {
    /// The file as a JSON value.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("schema".into(), Json::str("bench-relim/4")),
            ("generated_by".into(), Json::str("bench-driver")),
            ("quick".into(), Json::Bool(self.quick)),
            ("threads".into(), Json::Int(self.threads as i64)),
            (
                "available_parallelism".into(),
                Json::Int(crate::Engine::available_parallelism() as i64),
            ),
            ("entries".into(), Json::Arr(self.entries.iter().map(Entry::to_json).collect())),
        ])
    }

    /// Writes the baseline to `path`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json().render())
    }

    /// The human-readable wall-clock table printed next to the file.
    pub fn render_table(&self) -> String {
        let mut out = format!(
            "{:<28} {:>8} {:>14} {:>14} {:>9} {:>10}\n",
            "kernel", "threads", "median", "min", "speedup", "identical"
        );
        for e in &self.entries {
            for (i, r) in e.runs.iter().enumerate() {
                let last = i + 1 == e.runs.len();
                out.push_str(&format!(
                    "{:<28} {:>8} {:>14} {:>14} {:>9} {:>10}\n",
                    if i == 0 { e.id.as_str() } else { "" },
                    r.threads,
                    format_ns(r.wall_ns),
                    format_ns(r.min_ns),
                    match (last, e.speedup) {
                        (true, Some(s)) => format!("{s:.2}x"),
                        _ => "-".into(),
                    },
                    match (last, e.byte_identical) {
                        (true, Some(b)) => if b { "yes" } else { "NO" }.into(),
                        _ => "-".to_owned(),
                    },
                ));
            }
        }
        out
    }
}

/// Object keys whose values are timing- or hardware-dependent: a diff
/// only requires them to be *present with the right kind* (number or
/// null), never value-equal. `alloc_count`/`alloc_bytes` are deliberately
/// **not** here: allocation counts are deterministic for a fixed
/// workload, so they diff exactly like the cache counters.
const TIMING_KEYS: [&str; 5] = ["wall_ns", "min_ns", "max_ns", "speedup", "available_parallelism"];

/// Kernels whose committed `engine_report.alloc_count` is the per-call
/// allocation budget enforced by `bench-driver --alloc-gate` (the ROADMAP
/// "allocation-free hot loop" acceptance kernels).
pub const ALLOC_GATE_KERNELS: [&str; 4] =
    ["rbar_step_pi_d5_a4_x1", "iterate_rr_mis_d3", "lemma8_sweep_d4", "pool_batch_w2"];

/// Schema-checks a parsed `BENCH_relim.json`: schema tag, header keys,
/// per-entry/run key presence, and the byte-identity assertions
/// (`byte_identical` must never be `false`). Returns human-readable
/// problems; empty means the file is well-formed.
pub fn schema_problems(doc: &Json) -> Vec<String> {
    let mut out = Vec::new();
    match doc.get("schema").and_then(Json::as_str) {
        Some("bench-relim/4") => {}
        Some(other) => out.push(format!("schema: expected `bench-relim/4`, got `{other}`")),
        None => out.push("schema: missing or not a string".into()),
    }
    for key in ["generated_by", "quick", "threads", "available_parallelism", "entries"] {
        if doc.get(key).is_none() {
            out.push(format!("header: missing key `{key}`"));
        }
    }
    let Some(entries) = doc.get("entries").and_then(Json::as_arr) else {
        out.push("entries: missing or not an array".into());
        return out;
    };
    if entries.is_empty() {
        out.push("entries: empty".into());
    }
    for (i, entry) in entries.iter().enumerate() {
        let id = entry.get("id").and_then(Json::as_str).unwrap_or("?");
        for key in ["id", "params", "runs", "speedup", "byte_identical", "engine_report"] {
            if entry.get(key).is_none() {
                out.push(format!("entries[{i}] ({id}): missing key `{key}`"));
            }
        }
        // The engine_report counters must be integers when present — they
        // are the exactly-diffed cache-hit trend record.
        if let Some(Json::Obj(fields)) = entry.get("engine_report") {
            for (key, value) in fields {
                if !matches!(value, Json::Int(_)) {
                    out.push(format!(
                        "entries[{i}] ({id}): engine_report.{key} must be an integer"
                    ));
                }
                if key == "wall_ns" {
                    out.push(format!(
                        "entries[{i}] ({id}): engine_report must not carry wall_ns \
                         (schedule-dependent)"
                    ));
                }
            }
            // The allocation counters travel as a pair.
            let has = |k: &str| fields.iter().any(|(key, _)| key == k);
            if has("alloc_count") != has("alloc_bytes") {
                out.push(format!(
                    "entries[{i}] ({id}): engine_report must carry alloc_count and \
                     alloc_bytes together"
                ));
            }
            // The alloc-gate kernels must commit a per-call allocation
            // budget: without it `bench-driver --alloc-gate` has nothing
            // to enforce.
            if ALLOC_GATE_KERNELS.contains(&id) && !has("alloc_count") {
                out.push(format!(
                    "entries[{i}] ({id}): alloc-gate kernel is missing \
                     engine_report.alloc_count"
                ));
            }
        }
        if entry.get("byte_identical") == Some(&Json::Bool(false)) {
            out.push(format!("entries[{i}] ({id}): byte_identical is false"));
        }
        let Some(runs) = entry.get("runs").and_then(Json::as_arr) else {
            out.push(format!("entries[{i}] ({id}): runs missing or not an array"));
            continue;
        };
        for (j, run) in runs.iter().enumerate() {
            for key in ["threads", "wall_ns", "min_ns", "max_ns", "samples"] {
                if !run.get(key).is_some_and(Json::is_number) {
                    out.push(format!("entries[{i}] ({id}) runs[{j}]: `{key}` missing/non-number"));
                }
            }
        }
    }
    out
}

/// Diffs a freshly generated baseline against the committed one:
/// everything must be structurally **equal** — same keys in the same
/// order, same entry ids, same params, same per-run `threads`/`samples` —
/// except the timing keys (`TIMING_KEYS`), whose values may drift run-to-run (only
/// their presence and kind are compared). Returns human-readable
/// mismatches; empty means no perf-schema regression.
pub fn diff_problems(committed: &Json, fresh: &Json) -> Vec<String> {
    let mut out = Vec::new();
    diff_value("$", committed, fresh, &mut out);
    out
}

fn diff_value(path: &str, committed: &Json, fresh: &Json, out: &mut Vec<String>) {
    match (committed, fresh) {
        (Json::Obj(a), Json::Obj(b)) => {
            let a_keys: Vec<&str> = a.iter().map(|(k, _)| k.as_str()).collect();
            let b_keys: Vec<&str> = b.iter().map(|(k, _)| k.as_str()).collect();
            if a_keys != b_keys {
                out.push(format!("{path}: keys {a_keys:?} vs {b_keys:?}"));
                return;
            }
            for ((key, va), (_, vb)) in a.iter().zip(b.iter()) {
                let sub = format!("{path}.{key}");
                if TIMING_KEYS.contains(&key.as_str()) {
                    // Tolerate the value, require the kind: a number (or
                    // null, for absent speedups) on both sides.
                    let kind_ok = |v: &Json| v.is_number() || *v == Json::Null;
                    if !kind_ok(va) || !kind_ok(vb) || (va == &Json::Null) != (vb == &Json::Null) {
                        out.push(format!("{sub}: {} vs {}", va.kind(), vb.kind()));
                    }
                } else {
                    diff_value(&sub, va, vb, out);
                }
            }
        }
        (Json::Arr(a), Json::Arr(b)) => {
            if a.len() != b.len() {
                out.push(format!("{path}: {} items vs {}", a.len(), b.len()));
                return;
            }
            for (i, (va, vb)) in a.iter().zip(b.iter()).enumerate() {
                diff_value(&format!("{path}[{i}]"), va, vb, out);
            }
        }
        _ => {
            if committed != fresh {
                out.push(format!(
                    "{path}: committed {} != fresh {}",
                    short(committed),
                    short(fresh)
                ));
            }
        }
    }
}

fn short(v: &Json) -> String {
    let text = v.render();
    let text = text.trim();
    if text.len() > 40 {
        // Truncate on a char boundary: values may hold multi-byte UTF-8.
        let cut = (0..=40).rev().find(|&i| text.is_char_boundary(i)).unwrap_or(0);
        format!("{}…", &text[..cut])
    } else {
        text.to_owned()
    }
}

/// Renders nanoseconds with an adaptive unit.
pub fn format_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Baseline {
        Baseline {
            quick: true,
            threads: 4,
            entries: vec![Entry {
                id: "lemma8_sweep_d4".into(),
                params: vec![("delta".into(), Json::Int(4))],
                runs: vec![
                    Run {
                        threads: 1,
                        wall_ns: 2_000_000,
                        min_ns: 1_900_000,
                        max_ns: 2_100_000,
                        samples: 3,
                    },
                    Run {
                        threads: 4,
                        wall_ns: 1_000_000,
                        min_ns: 950_000,
                        max_ns: 1_200_000,
                        samples: 3,
                    },
                ],
                speedup: Some(2.0),
                byte_identical: Some(true),
                report: Some(vec![
                    ("cache_hits".into(), 3),
                    ("rbar_steps".into(), 6),
                    ("alloc_count".into(), 120),
                    ("alloc_bytes".into(), 4096),
                ]),
            }],
        }
    }

    #[test]
    fn json_shape() {
        let text = sample().to_json().render();
        assert!(text.contains("\"schema\": \"bench-relim/4\""));
        assert!(text.contains("\"id\": \"lemma8_sweep_d4\""));
        assert!(text.contains("\"speedup\": 2"));
        assert!(text.contains("\"byte_identical\": true"));
        assert!(text.contains("\"cache_hits\": 3"));
    }

    #[test]
    fn table_mentions_speedup_on_last_run_only() {
        let table = sample().render_table();
        assert!(table.contains("2.00x"));
        assert!(table.contains("yes"));
        assert_eq!(table.matches("2.00x").count(), 1);
    }

    #[test]
    fn ns_formatting() {
        assert_eq!(format_ns(12), "12ns");
        assert_eq!(format_ns(1_500), "1.50us");
        assert_eq!(format_ns(2_500_000), "2.50ms");
        assert_eq!(format_ns(3_210_000_000), "3.210s");
    }

    #[test]
    fn schema_check_passes_on_emitted_shape() {
        let doc = Json::parse(&sample().to_json().render()).unwrap();
        assert_eq!(schema_problems(&doc), Vec::<String>::new());
    }

    #[test]
    fn schema_check_flags_missing_keys_and_false_identity() {
        let mut base = sample();
        base.entries[0].byte_identical = Some(false);
        let doc = Json::parse(&base.to_json().render()).unwrap();
        let problems = schema_problems(&doc);
        assert!(problems.iter().any(|p| p.contains("byte_identical is false")), "{problems:?}");

        let doc = Json::parse("{\"schema\": \"bench-relim/3\"}").unwrap();
        let problems = schema_problems(&doc);
        assert!(problems.iter().any(|p| p.contains("bench-relim/4")), "{problems:?}");
        assert!(problems.iter().any(|p| p.contains("entries")), "{problems:?}");
    }

    #[test]
    fn schema_check_requires_alloc_fields_to_travel_as_a_pair() {
        let mut lonely = sample();
        lonely.entries[0].report =
            Some(vec![("cache_hits".into(), 3), ("alloc_count".into(), 120)]);
        let doc = Json::parse(&lonely.to_json().render()).unwrap();
        let problems = schema_problems(&doc);
        assert!(problems.iter().any(|p| p.contains("alloc_bytes together")), "{problems:?}");
    }

    #[test]
    fn schema_check_requires_budgets_on_alloc_gate_kernels() {
        let mut base = sample();
        base.entries[0].id = ALLOC_GATE_KERNELS[0].into();
        base.entries[0].report = Some(vec![("cache_hits".into(), 3)]);
        let doc = Json::parse(&base.to_json().render()).unwrap();
        let problems = schema_problems(&doc);
        assert!(
            problems.iter().any(|p| p.contains("missing") && p.contains("alloc_count")),
            "{problems:?}"
        );
        // With the budget present the same entry is clean.
        base.entries[0].report =
            Some(vec![("alloc_count".into(), 120), ("alloc_bytes".into(), 4096)]);
        let doc = Json::parse(&base.to_json().render()).unwrap();
        assert_eq!(schema_problems(&doc), Vec::<String>::new());
    }

    #[test]
    fn diff_compares_alloc_counters_exactly() {
        let committed = Json::parse(&sample().to_json().render()).unwrap();
        let mut drifted = sample();
        drifted.entries[0].report = Some(vec![
            ("cache_hits".into(), 3),
            ("rbar_steps".into(), 6),
            ("alloc_count".into(), 121),
            ("alloc_bytes".into(), 4096),
        ]);
        let drifted = Json::parse(&drifted.to_json().render()).unwrap();
        let problems = diff_problems(&committed, &drifted);
        assert!(
            problems.iter().any(|p| p.contains("engine_report.alloc_count")),
            "an allocation regression must fail the diff: {problems:?}"
        );
    }

    #[test]
    fn schema_check_rejects_wall_ns_inside_engine_report() {
        let mut bad = sample();
        bad.entries[0].report = Some(vec![("wall_ns".into(), 123)]);
        let doc = Json::parse(&bad.to_json().render()).unwrap();
        let problems = schema_problems(&doc);
        assert!(problems.iter().any(|p| p.contains("wall_ns")), "{problems:?}");
    }

    #[test]
    fn diff_compares_engine_report_counters_exactly() {
        let committed = Json::parse(&sample().to_json().render()).unwrap();
        let mut drifted = sample();
        drifted.entries[0].report = Some(vec![
            ("cache_hits".into(), 2),
            ("rbar_steps".into(), 6),
            ("alloc_count".into(), 120),
            ("alloc_bytes".into(), 4096),
        ]);
        let drifted = Json::parse(&drifted.to_json().render()).unwrap();
        let problems = diff_problems(&committed, &drifted);
        assert!(
            problems.iter().any(|p| p.contains("engine_report.cache_hits")),
            "a cache-hit regression must fail the diff: {problems:?}"
        );
    }

    #[test]
    fn diff_tolerates_timing_drift_only() {
        let committed = Json::parse(&sample().to_json().render()).unwrap();
        // Same schema, different timings: no problems.
        let mut drifted = sample();
        drifted.entries[0].runs[1].wall_ns = 999;
        drifted.entries[0].runs[1].min_ns = 1;
        drifted.entries[0].speedup = Some(0.01);
        let drifted = Json::parse(&drifted.to_json().render()).unwrap();
        assert_eq!(diff_problems(&committed, &drifted), Vec::<String>::new());

        // A renamed kernel id is a schema regression.
        let mut renamed = sample();
        renamed.entries[0].id = "lemma8_sweep_d5".into();
        let renamed = Json::parse(&renamed.to_json().render()).unwrap();
        let problems = diff_problems(&committed, &renamed);
        assert!(problems.iter().any(|p| p.contains(".id")), "{problems:?}");

        // A changed non-timing param value is a regression too.
        let mut reparam = sample();
        reparam.entries[0].params[0].1 = Json::Int(5);
        let reparam = Json::parse(&reparam.to_json().render()).unwrap();
        assert!(!diff_problems(&committed, &reparam).is_empty());

        // A dropped run (thread count no longer measured) is a regression.
        let mut fewer = sample();
        fewer.entries[0].runs.pop();
        let fewer = Json::parse(&fewer.to_json().render()).unwrap();
        let problems = diff_problems(&committed, &fewer);
        assert!(problems.iter().any(|p| p.contains("items")), "{problems:?}");
    }
}
