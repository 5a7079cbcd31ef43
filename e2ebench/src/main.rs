//! End-to-end certificate-serving benchmark.
//!
//! Drives in-process `relim-service` daemons through the shipped
//! `Client` in closed loops (each client sends its next request only
//! after the previous one was answered) and checks every answer's bytes
//! against an in-process execution.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload cold_family|warm_zipf|fleet_mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the run reports the end-to-end metrics; with
//! `--trace 1` it reports the per-layer metrics and writes its spans to
//! `.e2ebench/trace-<workload>-seed<N>.json` (Chrome trace-event JSON,
//! opens in Perfetto). The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. Run it from
//! the repository root; scratch state lives under `.e2ebench/` and is
//! removed at exit.

mod gen;
mod layers;
mod run;
mod spans;

use gen::{Plan, Workload};
use run::{check_cold, closed_loop, median, peak_rss_mb, set_up, Outcome, References};
use spans::json_string;
use std::path::PathBuf;
use std::time::Instant;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 7;
/// Where runs keep scratch state and write traces, relative to the
/// working directory.
const OUT_DIR: &str = ".e2ebench";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("expected 0 < seconds <= 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// A scratch directory removed when the run ends.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!(
                "usage: e2ebench --workload cold_family|warm_zipf|fleet_mixed \
                 --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    if let Err(e) = bench(&args) {
        eprintln!("e2ebench: {e}");
        std::process::exit(1);
    }
}

fn bench(args: &Args) -> Result<(), String> {
    let plan = Plan::new(args.workload, args.seed);
    let scratch = ScratchDir(PathBuf::from(OUT_DIR).join(format!("run-{}", std::process::id())));
    std::fs::create_dir_all(&scratch.0).map_err(|e| format!("cannot create {OUT_DIR}: {e}"))?;
    let refs = References::compute(&plan)?;

    let mut setup_s = Vec::new();
    let mut daemons = None;
    for i in 0..if args.trace { 1 } else { SETUPS } {
        let dir = scratch.0.join(format!("setup-{i}"));
        if let Some(old) = daemons.take() {
            run::Daemons::shut_down(old);
            // Deleted before the kernel writes them back, the earlier
            // set-ups' store files cost no disk work during the window.
            let _ = std::fs::remove_dir_all(scratch.0.join(format!("setup-{}", i - 1)));
        }
        let (d, secs) = set_up(&plan, &refs, &dir)?;
        setup_s.push(secs);
        daemons = Some(d);
    }
    let daemons = daemons.expect("at least one set-up");

    // Peak memory is the window's: reset the high-water mark (Linux;
    // elsewhere the reading covers the whole process).
    let _ = std::fs::write("/proc/self/clear_refs", "5");
    let origin = Instant::now();
    let before = daemons.status()?;
    let mut live = closed_loop(&plan, &daemons, &refs, args.seconds, args.trace, origin);
    let rss_mb = peak_rss_mb();
    let after = daemons.status()?;
    let layers = if args.trace {
        let inputs = layers::Inputs {
            plan: &plan,
            refs: &refs,
            daemons: &daemons,
            live: &live,
            before: &before,
            after: &after,
            dir: &scratch.0,
            origin,
        };
        Some(layers::measure(&inputs)?)
    } else {
        None
    };
    daemons.shut_down();
    check_cold(&mut live);

    let attempted = live.samples.len();
    let failed = live.samples.iter().filter(|s| s.outcome != Outcome::Ok).count();
    for (i, error) in live.errors.iter().take(5) {
        let s = &live.samples[*i];
        eprintln!("e2ebench: request {}/{} failed: {error}", s.client, s.seq);
    }
    let timings = run::Timings::of(&plan, &live);
    println!(
        "e2ebench {} seed {}: {} requests in {:.3} s ({} failed); timings are {}",
        plan.workload.name(),
        args.seed,
        attempted,
        live.elapsed_s,
        failed,
        timings.basis,
    );

    let mut mismatches = 0;
    let metrics: Vec<(&str, f64, &str)> = match layers {
        None => vec![
            ("throughput_rps", timings.throughput_rps, "1/s"),
            ("latency_p50_ms", timings.p50_ms, "ms"),
            ("latency_p90_ms", timings.p90_ms, "ms"),
            ("interactive_p90_ms", timings.interactive_p90_ms, "ms"),
            ("ok_frac", (attempted - failed) as f64 / attempted.max(1) as f64, "ratio"),
            ("setup_s", median(&setup_s), "s"),
            ("peak_rss_mb", rss_mb, "MiB"),
        ],
        Some((mut metrics, replay_spans, replay_mismatches)) => {
            mismatches = replay_mismatches;
            metrics.push((
                "trace.overhead_pct",
                run::tracing_overhead_pct(&plan, &live.samples),
                "%",
            ));
            metrics.push((
                "requests.failed_frac",
                failed as f64 / attempted.max(1) as f64,
                "ratio",
            ));
            let mut all_spans = std::mem::take(&mut live.spans);
            all_spans.extend(replay_spans);
            let path = PathBuf::from(OUT_DIR).join(format!(
                "trace-{}-seed{}.json",
                plan.workload.name(),
                args.seed
            ));
            let process = format!("e2ebench {} seed {}", plan.workload.name(), args.seed);
            std::fs::write(&path, spans::render_chrome(&all_spans, &process))
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            println!(
                "trace: {} spans ({} dropped) -> {}",
                all_spans.len(),
                live.dropped_spans,
                path.display()
            );
            metrics
        }
    };
    for (name, value, unit) in &metrics {
        println!("  {name:<28} {value:>14.4} {unit}");
    }
    let correct = failed == 0 && mismatches == 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_string(name),
                json_string(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed,
        body.join(", ")
    );
    Ok(())
}
