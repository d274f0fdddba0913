//! Layered, floor-normalised benchmark of the cgp permutation stack.
//!
//! ```text
//! perfbench --workload <bulk_large|wire_mix> --seed <n>
//!           --seconds <s> --trace <0|1> [--trace-dir <dir>]
//! ```
//!
//! Every run verifies every output outside its timed regions, prints each
//! metric as `name = value unit` with the facts behind it, and ends with
//! one JSON line: `{"correct", "attempted", "failed", "metrics"}`.  With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
//! per-layer ones, from a run that also records spans (written to
//! `--trace-dir`).  `DESIGN.md` says which layer metric should move which
//! end-to-end metric on which workload.

mod bulk;
mod gen;
mod host;
mod ladder;
mod layers;
mod serve;
mod stats;
mod trace;
mod verify;

use std::path::PathBuf;
use std::process::ExitCode;

/// End-to-end metrics, printed by every `--trace 0` run, with their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("items_per_s", "items/s"),
    ("jobs_per_s", "jobs/s"),
    ("floor_ratio", "x"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, printed by every `--trace 1` run, with their units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("floor.ns_per_item", "ns"),
    ("rng.fy_ns_per_item", "ns"),
    ("engine.shuffle_ms", "ms"),
    ("engine.exchange_ms", "ms"),
    ("engine.matrix_ms", "ms"),
    ("engine.matrix_words_max", "count"),
    ("engine.exchange_words_max", "count"),
    ("engine.exchange_balance", "ratio"),
    ("cache_aware.bucketed_ns_per_item", "ns"),
    ("oneshot.vs_floor", "x"),
    ("session.vs_floor", "x"),
    ("session.delta_over_oneshot", "ms"),
    ("cgm.thread_spawns_per_job", "count"),
    ("cgm.fabric_builds_per_job", "count"),
    ("session.fixed_cost_us", "us"),
    ("service.submit_us", "us"),
    ("service.queue_wait_us", "us"),
    ("service.run_us", "us"),
    ("service.unaccounted_us", "us"),
    ("service.coalesced_share", "ratio"),
    ("service.jobs_per_batch", "count"),
    ("service.steals_per_kjob", "count"),
    ("service.machine_util", "ratio"),
    ("service.tasks_created_per_job", "count"),
    ("wire.submit_us_per_mib", "us/MiB"),
    ("wire.wait_us", "us"),
    ("wire.server_run_us", "us"),
    ("wire.delta_over_inprocess", "x"),
    ("wire.bytes_per_item", "B"),
    ("trace_overhead", "ratio"),
];

/// What one run was asked to do.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub trace_dir: PathBuf,
    pub workload: String,
}

/// What one run measured.  `metrics` holds `(name, value)`; units come
/// from [`END_TO_END`] / [`PER_LAYER`].
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
    /// Context lines printed before the metrics (sample counts, host
    /// facts, computed-vs-measured labels).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

fn parse_args() -> Result<Ctx, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut ctx = Ctx {
        seed: 0,
        seconds: 10.0,
        trace: false,
        trace_dir: PathBuf::from("perfbench/out"),
        workload: String::new(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => ctx.workload = value.clone(),
            "--seed" => ctx.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => ctx.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => ctx.trace = value.as_str() == "1",
            "--trace-dir" => ctx.trace_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if ctx.seconds.is_nan() || ctx.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(ctx)
}

fn main() -> ExitCode {
    let ctx = match parse_args() {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match ctx.workload.as_str() {
        "bulk_large" => bulk::run(&ctx),
        "wire_mix" => serve::run_wire(&ctx),
        other => Err(format!("unknown workload {other:?} (bulk_large, wire_mix)")),
    };
    let mut outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", ctx.workload);
            return ExitCode::FAILURE;
        }
    };
    if let Some((name, value)) = outcome.metrics.iter().find(|m| !m.1.is_finite()) {
        eprintln!(
            "perfbench: {} measured no value for {name} ({value})",
            ctx.workload
        );
        return ExitCode::FAILURE;
    }
    let expected = if ctx.trace { PER_LAYER } else { END_TO_END };
    let mut names: Vec<&str> = outcome.metrics.iter().map(|m| m.0).collect();
    names.sort_unstable();
    let mut want: Vec<&str> = expected.iter().map(|m| m.0).collect();
    want.sort_unstable();
    assert_eq!(
        names, want,
        "a workload must report exactly its mode's metrics"
    );

    let nproc = host::nproc();
    outcome.notes.insert(0, format!("nproc = {nproc}"));
    for line in &outcome.notes {
        println!("# {line}");
    }
    let failed_share = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "failed_share = {failed_share} ratio ({} of {} jobs failed, were refused or were shed)",
        outcome.failed, outcome.attempted
    );
    let mut json = Vec::new();
    for &(name, unit) in expected {
        let value = outcome.metrics.iter().find(|m| m.0 == name).map(|m| m.1);
        let value = value.expect("checked above");
        println!("{name} = {value} {unit}");
        json.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        json.join(", ")
    );
    ExitCode::SUCCESS
}
