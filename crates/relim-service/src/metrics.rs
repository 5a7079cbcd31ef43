//! The Prometheus text-exposition rendering behind `{"op": "metrics"}`.
//!
//! One function, [`render_prometheus`], turns the daemon's `counters`
//! tree (exactly what a `status` response carries — see
//! `Shared::counters_json` in [`crate::server`]) into [Prometheus text
//! exposition format]: the JSON tree is flattened depth-first, path
//! components joined with `_` under the `relim_` prefix (so
//! `ops.zero_round` becomes `relim_ops_zero_round`), booleans rendered
//! as `0`/`1`. Deriving the exposition from the same tree the `status`
//! op serves means the two surfaces can never drift: every counter an
//! operator can see is scrapeable, automatically, including ones added
//! later.
//!
//! **Naming rules.** Metric names are `relim_` + the `_`-joined JSON
//! path, already `[a-z0-9_]` by construction of the counters tree. Most
//! metrics are monotone `counter`s; the known point-in-time readings
//! (queue depth, store size, configuration, `*_max_ns` high-water
//! marks) are typed `gauge` via an explicit list (`is_gauge_path`) —
//! an unknown path defaults to `counter`, the safe choice for a tree
//! that mostly accumulates.
//!
//! **Latency histograms.** Request latency is recorded per op×outcome
//! into [`LatencyHistogram`]s — power-of-two buckets from
//! [`latency_bucket_bound`]`(0)` = 1µs up to ~69s, so the whole
//! distribution costs a fixed 27 atomics per cell instead of the old
//! total/max pair. The counters tree stores each cell as `{count,
//! sum_ns, buckets}` (the bucket *array* is skipped by the mechanical
//! flattening, which only emits scalars), and the exposition derives
//! one labeled `histogram` family from it:
//! `relim_request_latency_ns_bucket{op="…",outcome="…",le="…"}` with
//! cumulative buckets, a `+Inf` bucket, and matching `_sum`/`_count`
//! series — the shape `histogram_quantile()` expects.
//!
//! [Prometheus text exposition format]:
//! https://prometheus.io/docs/instrumenting/exposition_formats/

use relim_json::Json;
use std::sync::atomic::{AtomicU64, Ordering};

/// Buckets per latency histogram: `le` bounds 2^10ns (1µs) … 2^36ns
/// (~69s). Anything slower lands only in the implicit `+Inf` bucket.
pub const LATENCY_BUCKETS: usize = 27;

/// The `i`th histogram bound in nanoseconds (`i < LATENCY_BUCKETS`).
pub fn latency_bucket_bound(i: usize) -> u64 {
    1u64 << (10 + i as u32)
}

/// One op×outcome latency distribution: lock-free power-of-two buckets
/// plus the `count`/`sum` pair Prometheus histograms carry.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; LATENCY_BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    pub fn record(&self, ns: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        if let Some(i) = (0..LATENCY_BUCKETS).find(|&i| ns <= latency_bucket_bound(i)) {
            self.buckets[i].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Observations so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// The counters-tree cell: `{count, sum_ns, buckets}` with
    /// *non-cumulative* buckets (the exposition accumulates). The
    /// buckets are read first and `count` clamped up to their total, so
    /// a concurrent recording between the reads can never make the
    /// derived `+Inf` cumulative bucket smaller than the last finite
    /// one — a scrape is a racy snapshot, but always a self-consistent
    /// one.
    pub fn json(&self) -> Json {
        let buckets: Vec<i64> =
            self.buckets.iter().map(|b| b.load(Ordering::Relaxed) as i64).collect();
        let in_buckets: i64 = buckets.iter().sum();
        let count = (self.count.load(Ordering::Relaxed) as i64).max(in_buckets);
        Json::Obj(vec![
            ("count".to_owned(), Json::Int(count)),
            ("sum_ns".to_owned(), Json::Int(self.sum_ns.load(Ordering::Relaxed) as i64)),
            ("buckets".to_owned(), Json::Arr(buckets.into_iter().map(Json::Int).collect())),
        ])
    }
}

impl Default for LatencyHistogram {
    fn default() -> LatencyHistogram {
        LatencyHistogram::new()
    }
}

/// Paths (relative to the counters root, `_`-joined) that are
/// point-in-time readings rather than monotone counters. High-water
/// marks (`*_max_ns`, `queue_max_depth`) are gauges too: they can reset
/// with the process but never decrease within one — still, they are not
/// rate-able, which is what `counter` would promise.
fn is_gauge_path(path: &str) -> bool {
    matches!(
        path,
        "store_disk_bytes"
            | "store_mem_entries"
            | "store_persistent"
            | "queue_pending"
            | "queue_max_depth"
            | "queue_aging_limit"
            | "engine_cache_entries"
            | "threads"
            | "executors"
            | "trace_window"
    ) || path.ends_with("_max_ns")
        // Per-peer breaker state (`peers_<addr>_breaker_is_open`) is a
        // point-in-time reading; the addr segment makes it a suffix
        // rule rather than a listed path.
        || path.ends_with("_breaker_is_open")
}

/// Renders a daemon `counters` tree as Prometheus text exposition (see
/// the module docs). Every numeric/boolean leaf becomes one
/// `# HELP` / `# TYPE` / sample triplet, in the tree's own
/// (deterministic) order.
pub fn render_prometheus(counters: &Json) -> String {
    let mut out = String::new();
    let mut path = Vec::new();
    flatten(counters, &mut path, &mut out);
    render_latency_histograms(counters, &mut out);
    out
}

/// Derives the `relim_request_latency_ns` histogram family from the
/// `latency.<op>.<outcome> = {count, sum_ns, buckets}` cells of the
/// counters tree (see [`LatencyHistogram::json`]): cumulative `le`
/// buckets, `+Inf`, `_sum` and `_count` per label set. Trees without
/// such cells (older daemons, synthetic tests) derive nothing.
fn render_latency_histograms(counters: &Json, out: &mut String) {
    let Some(Json::Obj(ops)) = counters.get("latency") else { return };
    let mut header_done = false;
    for (op, outcomes) in ops {
        let Json::Obj(outcomes) = outcomes else { continue };
        for (outcome, cell) in outcomes {
            let (Some(count), Some(sum_ns), Some(Json::Arr(buckets))) = (
                cell.get("count").and_then(Json::as_i64),
                cell.get("sum_ns").and_then(Json::as_i64),
                cell.get("buckets"),
            ) else {
                continue;
            };
            if !header_done {
                out.push_str(
                    "# HELP relim_request_latency_ns Request latency by op and outcome \
                     (power-of-two buckets).\n\
                     # TYPE relim_request_latency_ns histogram\n",
                );
                header_done = true;
            }
            let labels = format!("op=\"{op}\",outcome=\"{outcome}\"");
            let mut cumulative: i64 = 0;
            for (i, bucket) in buckets.iter().enumerate() {
                cumulative += bucket.as_i64().unwrap_or(0);
                out.push_str(&format!(
                    "relim_request_latency_ns_bucket{{{labels},le=\"{}\"}} {cumulative}\n",
                    latency_bucket_bound(i)
                ));
            }
            let total = count.max(cumulative);
            out.push_str(&format!(
                "relim_request_latency_ns_bucket{{{labels},le=\"+Inf\"}} {total}\n"
            ));
            out.push_str(&format!("relim_request_latency_ns_sum{{{labels}}} {sum_ns}\n"));
            out.push_str(&format!("relim_request_latency_ns_count{{{labels}}} {total}\n"));
        }
    }
}

fn flatten(node: &Json, path: &mut Vec<String>, out: &mut String) {
    match node {
        Json::Obj(fields) => {
            for (key, value) in fields {
                path.push(key.clone());
                flatten(value, path, out);
                path.pop();
            }
        }
        Json::Int(v) => emit(path, *v as f64, out),
        Json::Float(v) => emit(path, *v, out),
        Json::Bool(v) => emit(path, if *v { 1.0 } else { 0.0 }, out),
        // Strings and arrays carry no scrapeable value; the counters
        // tree holds none today, and skipping keeps the format valid if
        // one appears.
        _ => {}
    }
}

fn emit(path: &[String], value: f64, out: &mut String) {
    let joined = path.join("_");
    let name = format!("relim_{joined}");
    let kind = if is_gauge_path(&joined) { "gauge" } else { "counter" };
    out.push_str(&format!("# HELP {name} Daemon status counter `{}`.\n", path.join(".")));
    out.push_str(&format!("# TYPE {name} {kind}\n"));
    // Counters are integers in truth; render them without a fraction.
    if value.fract() == 0.0 {
        out.push_str(&format!("{name} {}\n", value as i64));
    } else {
        out.push_str(&format!("{name} {value}\n"));
    }
}

/// Checks `text` against the exposition format rules this module
/// guarantees: every sample line is `name value` or
/// `name{labels} value` with a legal metric name, legal labels and a
/// numeric value; every sample is preceded by its own `# TYPE`
/// (histogram `_bucket`/`_sum`/`_count` samples match their family's
/// `histogram` TYPE); no name+labelset repeats; and every histogram
/// series has strictly increasing `le` bounds ending in `+Inf`,
/// non-decreasing cumulative bucket values, a `_sum`, and a `_count`
/// equal to its `+Inf` bucket. Returns the violations (empty means
/// valid) — the concurrency battery scrapes a live daemon and asserts
/// emptiness.
pub fn exposition_problems(text: &str) -> Vec<String> {
    let mut problems = Vec::new();
    // (name, kind) from TYPE comments, in order of appearance.
    let mut typed: Vec<(String, String)> = Vec::new();
    // name + rendered labelset, for duplicate detection.
    let mut sampled: Vec<String> = Vec::new();
    // Histogram series keyed by (family, labels-without-le).
    struct Series {
        buckets: Vec<(f64, f64)>, // (le, cumulative value) in order
        count: Option<f64>,
        has_sum: bool,
    }
    let mut series: Vec<((String, String), Series)> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let n = i + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            match (parts.next(), parts.next(), parts.next()) {
                (Some(name), Some(kind @ ("counter" | "gauge" | "histogram")), None) => {
                    typed.push((name.to_owned(), kind.to_owned()));
                }
                _ => problems.push(format!("line {n}: malformed TYPE comment: {line}")),
            }
            continue;
        }
        if line.starts_with('#') {
            continue; // HELP and free comments are unconstrained
        }
        let Some((name, raw_labels, value)) = split_sample(line) else {
            problems.push(format!("line {n}: not a `name value` sample: {line}"));
            continue;
        };
        if !is_metric_name(&name) {
            problems.push(format!("line {n}: illegal metric name `{name}`"));
        }
        let labels = match raw_labels.as_deref().map(parse_labels).transpose() {
            Ok(labels) => labels.unwrap_or_default(),
            Err(e) => {
                problems.push(format!("line {n}: {e}: {line}"));
                continue;
            }
        };
        let Ok(value) = value.parse::<f64>() else {
            problems.push(format!("line {n}: non-numeric value `{value}`"));
            continue;
        };
        let identity = match raw_labels.as_deref() {
            Some(labels) => format!("{name}{{{labels}}}"),
            None => name.clone(),
        };
        if sampled.contains(&identity) {
            problems.push(format!("line {n}: duplicate metric `{identity}`"));
        }
        sampled.push(identity);
        // A histogram family's samples are `<family>_bucket/_sum/_count`.
        let family = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|suffix| name.strip_suffix(suffix).map(|f| (f.to_owned(), *suffix)))
            .filter(|(f, _)| typed.iter().any(|(t, k)| t == f && k == "histogram"));
        if typed.iter().all(|(t, _)| *t != name) && family.is_none() {
            problems.push(format!("line {n}: sample `{name}` has no preceding TYPE"));
        }
        let Some((family, suffix)) = family else { continue };
        let series_labels: Vec<String> =
            labels.iter().filter(|(k, _)| k != "le").map(|(k, v)| format!("{k}={v}")).collect();
        let key = (family, series_labels.join(","));
        let entry = match series.iter_mut().find(|(k, _)| *k == key) {
            Some((_, s)) => s,
            None => {
                series.push((key, Series { buckets: Vec::new(), count: None, has_sum: false }));
                &mut series.last_mut().expect("just pushed").1
            }
        };
        match suffix {
            "_bucket" => match labels.iter().find(|(k, _)| k == "le") {
                Some((_, le)) => {
                    let bound =
                        if le == "+Inf" { Some(f64::INFINITY) } else { le.parse::<f64>().ok() };
                    match bound {
                        Some(bound) => entry.buckets.push((bound, value)),
                        None => {
                            problems.push(format!("line {n}: non-numeric `le` bound `{le}`"));
                        }
                    }
                }
                None => problems.push(format!("line {n}: histogram bucket without `le`: {line}")),
            },
            "_count" => entry.count = Some(value),
            _ => entry.has_sum = true,
        }
    }
    for ((family, labels), s) in &series {
        let at = if labels.is_empty() {
            format!("histogram `{family}`")
        } else {
            format!("histogram `{family}{{{labels}}}`")
        };
        if !s.buckets.windows(2).all(|w| w[0].0 < w[1].0) {
            problems.push(format!("{at}: `le` bounds are not strictly increasing"));
        }
        if s.buckets.last().map(|(le, _)| *le) != Some(f64::INFINITY) {
            problems.push(format!("{at}: missing `+Inf` bucket"));
        }
        if !s.buckets.windows(2).all(|w| w[0].1 <= w[1].1) {
            problems.push(format!("{at}: cumulative bucket values decrease"));
        }
        match (s.count, s.buckets.last()) {
            (None, _) => problems.push(format!("{at}: missing `_count`")),
            (Some(count), Some((le, inf))) if *le == f64::INFINITY && count != *inf => {
                problems.push(format!("{at}: `_count` {count} != `+Inf` bucket {inf}"));
            }
            _ => {}
        }
        if !s.has_sum {
            problems.push(format!("{at}: missing `_sum`"));
        }
    }
    problems
}

/// Splits a sample line into `(name, raw labels, value)`. The label
/// scan is quote-aware, so a `}` inside a label value does not end the
/// label set.
fn split_sample(line: &str) -> Option<(String, Option<String>, String)> {
    let Some(open) = line.find('{') else {
        let mut parts = line.split_whitespace();
        return match (parts.next(), parts.next(), parts.next()) {
            (Some(name), Some(value), None) => Some((name.to_owned(), None, value.to_owned())),
            _ => None,
        };
    };
    let name = line[..open].to_owned();
    let rest = &line[open + 1..];
    let mut in_quotes = false;
    let mut escaped = false;
    let mut close = None;
    for (j, c) in rest.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_quotes => escaped = true,
            '"' => in_quotes = !in_quotes,
            '}' if !in_quotes => {
                close = Some(j);
                break;
            }
            _ => {}
        }
    }
    let close = close?;
    let mut value_parts = rest[close + 1..].split_whitespace();
    match (value_parts.next(), value_parts.next()) {
        (Some(value), None) => Some((name, Some(rest[..close].to_owned()), value.to_owned())),
        _ => None,
    }
}

/// Parses a raw label string (`key="value",…`) into pairs, or describes
/// the first malformation.
fn parse_labels(text: &str) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    let mut rest = text;
    while !rest.is_empty() {
        let eq = rest.find('=').ok_or_else(|| "label without `=`".to_owned())?;
        let key = &rest[..eq];
        if !is_label_name(key) {
            return Err(format!("illegal label name `{key}`"));
        }
        let after = &rest[eq + 1..];
        let quoted = after.strip_prefix('"').ok_or_else(|| "unquoted label value".to_owned())?;
        let mut escaped = false;
        let mut end = None;
        for (j, c) in quoted.char_indices() {
            if escaped {
                escaped = false;
                continue;
            }
            match c {
                '\\' => escaped = true,
                '"' => {
                    end = Some(j);
                    break;
                }
                _ => {}
            }
        }
        let end = end.ok_or_else(|| "unterminated label value".to_owned())?;
        out.push((key.to_owned(), quoted[..end].to_owned()));
        rest = &quoted[end + 1..];
        rest = match rest.strip_prefix(',') {
            Some(r) => r,
            None if rest.is_empty() => rest,
            None => return Err("label pairs must be comma-separated".to_owned()),
        };
    }
    Ok(out)
}

fn is_label_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else { return false };
    (first.is_ascii_alphabetic() || first == '_')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

fn is_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else { return false };
    (first.is_ascii_alphabetic() || first == '_' || first == ':')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_exposition_for_a_small_counter_tree() {
        let counters = Json::Obj(vec![
            ("requests_total".into(), Json::Int(7)),
            (
                "ops".into(),
                Json::Obj(vec![
                    ("autolb".into(), Json::Int(2)),
                    ("zero_round".into(), Json::Int(5)),
                ]),
            ),
            (
                "store".into(),
                Json::Obj(vec![
                    ("stores".into(), Json::Int(3)),
                    ("persistent".into(), Json::Bool(true)),
                ]),
            ),
            ("latency".into(), Json::Obj(vec![("max_ns".into(), Json::Int(1200))])),
            ("threads".into(), Json::Int(4)),
        ]);
        let golden = "\
# HELP relim_requests_total Daemon status counter `requests_total`.
# TYPE relim_requests_total counter
relim_requests_total 7
# HELP relim_ops_autolb Daemon status counter `ops.autolb`.
# TYPE relim_ops_autolb counter
relim_ops_autolb 2
# HELP relim_ops_zero_round Daemon status counter `ops.zero_round`.
# TYPE relim_ops_zero_round counter
relim_ops_zero_round 5
# HELP relim_store_stores Daemon status counter `store.stores`.
# TYPE relim_store_stores counter
relim_store_stores 3
# HELP relim_store_persistent Daemon status counter `store.persistent`.
# TYPE relim_store_persistent gauge
relim_store_persistent 1
# HELP relim_latency_max_ns Daemon status counter `latency.max_ns`.
# TYPE relim_latency_max_ns gauge
relim_latency_max_ns 1200
# HELP relim_threads Daemon status counter `threads`.
# TYPE relim_threads gauge
relim_threads 4
";
        let rendered = render_prometheus(&counters);
        assert_eq!(rendered, golden);
        assert_eq!(exposition_problems(&rendered), Vec::<String>::new());
    }

    #[test]
    fn validator_flags_the_violations_it_claims_to() {
        let bad = "\
# TYPE relim_good counter
relim_good 1
relim_untyped 2
relim_good 3
9leading_digit 4
relim_nonnum x
relim_extra 1 2
";
        let problems = exposition_problems(bad);
        let all = problems.join("\n");
        assert!(all.contains("duplicate metric `relim_good`"), "{all}");
        assert!(all.contains("no preceding TYPE"), "{all}");
        assert!(all.contains("illegal metric name `9leading_digit`"), "{all}");
        assert!(all.contains("non-numeric value `x`"), "{all}");
        assert!(all.contains("not a `name value` sample"), "{all}");
    }

    /// A counters tree holding one histogram cell with `total` spread
    /// over the first buckets.
    fn tree_with_histogram(op: &str, outcome: &str, per_bucket: &[i64], sum_ns: i64) -> Json {
        let count: i64 = per_bucket.iter().sum();
        let mut buckets = vec![0i64; LATENCY_BUCKETS];
        buckets[..per_bucket.len()].copy_from_slice(per_bucket);
        let cell = Json::Obj(vec![
            ("count".into(), Json::Int(count)),
            ("sum_ns".into(), Json::Int(sum_ns)),
            ("buckets".into(), Json::Arr(buckets.into_iter().map(Json::Int).collect())),
        ]);
        Json::Obj(vec![(
            "latency".into(),
            Json::Obj(vec![(op.to_owned(), Json::Obj(vec![(outcome.to_owned(), cell)]))]),
        )])
    }

    #[test]
    fn histogram_cells_derive_a_labeled_cumulative_family() {
        // Two observations ≤1µs, one in (2µs, 4µs].
        let rendered =
            render_prometheus(&tree_with_histogram("zero_round", "hit", &[2, 0, 1], 900));
        assert!(rendered.contains("# TYPE relim_request_latency_ns histogram"), "{rendered}");
        assert!(
            rendered.contains(
                "relim_request_latency_ns_bucket{op=\"zero_round\",outcome=\"hit\",le=\"1024\"} 2"
            ),
            "{rendered}"
        );
        assert!(
            rendered.contains(
                "relim_request_latency_ns_bucket{op=\"zero_round\",outcome=\"hit\",le=\"2048\"} 2"
            ),
            "cumulative, not per-bucket: {rendered}"
        );
        assert!(
            rendered.contains(
                "relim_request_latency_ns_bucket{op=\"zero_round\",outcome=\"hit\",le=\"4096\"} 3"
            ),
            "{rendered}"
        );
        assert!(
            rendered.contains(
                "relim_request_latency_ns_bucket{op=\"zero_round\",outcome=\"hit\",le=\"+Inf\"} 3"
            ),
            "{rendered}"
        );
        assert!(
            rendered
                .contains("relim_request_latency_ns_sum{op=\"zero_round\",outcome=\"hit\"} 900"),
            "{rendered}"
        );
        assert!(
            rendered
                .contains("relim_request_latency_ns_count{op=\"zero_round\",outcome=\"hit\"} 3"),
            "{rendered}"
        );
        // The scalar flattening must NOT leak the bucket array, and the
        // whole document must satisfy the validator.
        assert!(!rendered.contains("relim_latency_zero_round_hit_buckets"), "{rendered}");
        assert!(rendered.contains("relim_latency_zero_round_hit_count 3"), "{rendered}");
        assert_eq!(exposition_problems(&rendered), Vec::<String>::new(), "{rendered}");
    }

    #[test]
    fn latency_histogram_records_into_the_right_buckets() {
        let h = LatencyHistogram::new();
        h.record(500); // ≤ 2^10
        h.record(1024); // ≤ 2^10 (inclusive bound)
        h.record(1025); // ≤ 2^11
        h.record(u64::MAX); // beyond every bound: +Inf only
        let cell = h.json();
        assert_eq!(cell.get("count").and_then(Json::as_i64), Some(4));
        assert_eq!(cell.get("sum_ns").and_then(Json::as_i64), Some(500 + 1024 + 1025 - 1));
        let Some(Json::Arr(buckets)) = cell.get("buckets") else { panic!("buckets") };
        assert_eq!(buckets.len(), LATENCY_BUCKETS);
        assert_eq!(buckets[0].as_i64(), Some(2));
        assert_eq!(buckets[1].as_i64(), Some(1));
        let in_buckets: i64 = buckets.iter().filter_map(Json::as_i64).sum();
        assert_eq!(in_buckets, 3, "the overflow observation is only in count");
    }

    #[test]
    fn validator_rejects_non_monotone_le_buckets() {
        let bad = "\
# TYPE h histogram
h_bucket{le=\"200\"} 1
h_bucket{le=\"100\"} 2
h_bucket{le=\"+Inf\"} 2
h_sum 7
h_count 2
";
        let all = exposition_problems(bad).join("\n");
        assert!(all.contains("`le` bounds are not strictly increasing"), "{all}");
    }

    #[test]
    fn validator_rejects_missing_inf_bucket() {
        let bad = "\
# TYPE h histogram
h_bucket{le=\"100\"} 1
h_bucket{le=\"200\"} 2
h_sum 7
h_count 2
";
        let all = exposition_problems(bad).join("\n");
        assert!(all.contains("missing `+Inf` bucket"), "{all}");
    }

    #[test]
    fn validator_rejects_count_and_sum_mismatches() {
        let bad = "\
# TYPE h histogram
h_bucket{le=\"100\"} 1
h_bucket{le=\"+Inf\"} 3
h_count 2
";
        let all = exposition_problems(bad).join("\n");
        assert!(all.contains("`_count` 2 != `+Inf` bucket 3"), "{all}");
        assert!(all.contains("missing `_sum`"), "{all}");

        let no_count = "\
# TYPE h histogram
h_bucket{le=\"+Inf\"} 3
h_sum 9
";
        let all = exposition_problems(no_count).join("\n");
        assert!(all.contains("missing `_count`"), "{all}");

        let decreasing = "\
# TYPE h histogram
h_bucket{le=\"100\"} 5
h_bucket{le=\"+Inf\"} 3
h_sum 9
h_count 3
";
        let all = exposition_problems(decreasing).join("\n");
        assert!(all.contains("cumulative bucket values decrease"), "{all}");
    }

    #[test]
    fn validator_handles_labeled_samples_and_their_malformations() {
        let good = "\
# TYPE g counter
g{a=\"x\",b=\"y\"} 1
g{a=\"x\",b=\"z\"} 2
g 3
";
        assert_eq!(exposition_problems(good), Vec::<String>::new());
        let duplicated = "\
# TYPE g counter
g{a=\"x\"} 1
g{a=\"x\"} 2
";
        let all = exposition_problems(duplicated).join("\n");
        assert!(all.contains("duplicate metric `g{a=\"x\"}`"), "{all}");
        for (bad, expect) in [
            ("# TYPE g counter\ng{a=x} 1\n", "unquoted label value"),
            ("# TYPE g counter\ng{9a=\"x\"} 1\n", "illegal label name"),
            ("# TYPE g counter\ng{a=\"x\" 1\n", "not a `name value` sample"),
            ("# TYPE g counter\ng{a=\"x\"b=\"y\"} 1\n", "comma-separated"),
            ("# TYPE h histogram\nh_bucket{op=\"a\"} 1\n", "bucket without `le`"),
            ("# TYPE h histogram\nh_bucket{le=\"wat\"} 1\n", "non-numeric `le` bound"),
        ] {
            let all = exposition_problems(bad).join("\n");
            assert!(all.contains(expect), "wanted `{expect}` for {bad:?}, got: {all}");
        }
    }

    #[test]
    fn every_leaf_of_a_nested_tree_is_emitted_once() {
        let counters = Json::Obj(vec![
            (
                "a".into(),
                Json::Obj(vec![
                    ("b".into(), Json::Int(1)),
                    ("c".into(), Json::Obj(vec![("d".into(), Json::Int(2))])),
                ]),
            ),
            ("e".into(), Json::Bool(false)),
        ]);
        let rendered = render_prometheus(&counters);
        let samples: Vec<&str> =
            rendered.lines().filter(|l| !l.starts_with('#') && !l.is_empty()).collect();
        assert_eq!(samples, vec!["relim_a_b 1", "relim_a_c_d 2", "relim_e 0"]);
        assert_eq!(exposition_problems(&rendered), Vec::<String>::new());
    }
}
