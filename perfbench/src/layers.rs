//! Per-layer metrics shared by the workloads' traced runs.

use std::time::Instant;

use cgp_core::PermutationReport;

use crate::trace::Tracer;
use crate::{Ctx, Outcome};

/// A job span plus the report's phases: `engine.run` (the fused run),
/// under it `engine.matrix` and `engine.data`, and under `engine.data` the
/// local shuffles, so `engine.data`'s self time is the cut + all-to-all.
pub fn record_job(
    tracer: &mut Tracer,
    job: u64,
    start: Instant,
    end: Instant,
    report: &PermutationReport,
) -> usize {
    let root = tracer.span("job", job, None, start, end);
    let run = tracer.phase("engine.run", root, report.total_elapsed());
    tracer.phase("engine.matrix", run, report.matrix_elapsed);
    let data = tracer.phase("engine.data", run, report.exchange_elapsed);
    tracer.phase("engine.shuffle", data, report.shuffle_elapsed);
    root
}

/// Engine metrics from the reports of a run's jobs: phase times as means
/// per job, word counts and balance as exact means over `counted`, the
/// first reports of the run's deterministic job sequence.
pub fn engine_metrics(out: &mut Outcome, reports: &[PermutationReport], counted: usize) {
    let n = reports.len().max(1) as f64;
    let ms = |f: &dyn Fn(&PermutationReport) -> f64| reports.iter().map(f).sum::<f64>() / n;
    out.set(
        "engine.shuffle_ms",
        ms(&|r| r.shuffle_elapsed.as_secs_f64() * 1e3),
    );
    out.set(
        "engine.exchange_ms",
        ms(&|r| {
            r.exchange_elapsed
                .saturating_sub(r.shuffle_elapsed)
                .as_secs_f64()
                * 1e3
        }),
    );
    out.set(
        "engine.matrix_ms",
        ms(&|r| r.matrix_elapsed.as_secs_f64() * 1e3),
    );
    let head = &reports[..counted.min(reports.len())];
    let k = head.len().max(1) as f64;
    out.set(
        "engine.matrix_words_max",
        head.iter().map(|r| r.max_matrix_volume()).sum::<u64>() as f64 / k,
    );
    out.set(
        "engine.exchange_words_max",
        head.iter().map(|r| r.max_exchange_volume()).sum::<u64>() as f64 / k,
    );
    out.set(
        "engine.exchange_balance",
        head.iter()
            .map(|r| r.exchange_metrics.comm_balance())
            .sum::<f64>()
            / k,
    );
    out.note(format!(
        "engine: phase times are means over {} jobs; word counts are exact means over the first {} jobs of the seeded sequence",
        reports.len(),
        head.len()
    ));
}

/// Per-layer metrics that no layer of this workload produces.
pub fn absent(out: &mut Outcome, names: &[&'static str], why: &str) {
    for &name in names {
        out.set(name, 0.0);
    }
    out.note(format!("{} reported as 0: {why}", names.join(", ")));
}

pub const SERVICE_METRICS: &[&str] = &[
    "service.submit_us",
    "service.queue_wait_us",
    "service.run_us",
    "service.unaccounted_us",
    "service.coalesced_share",
    "service.jobs_per_batch",
    "service.steals_per_kjob",
    "service.machine_util",
    "service.tasks_created_per_job",
];

pub const WIRE_METRICS: &[&str] = &[
    "wire.submit_us_per_mib",
    "wire.wait_us",
    "wire.server_run_us",
    "wire.delta_over_inprocess",
    "wire.bytes_per_item",
];

/// Spans written out at most, so a traced run's file stays near 30 MB;
/// self times are computed from every span.
const WRITTEN_SPANS: usize = 1 << 18;

/// Prints each span name's self time and writes the spans out.
pub fn finish_trace(ctx: &Ctx, tracer: &Tracer, out: &mut Outcome) -> Result<(), String> {
    for (name, st) in tracer.self_times() {
        out.note(format!(
            "span {name}: {} spans, self {:.3} us per span, total {:.3} us per span",
            st.count,
            st.self_us_per_span(),
            st.total_ns as f64 / 1e3 / st.count.max(1) as f64
        ));
    }
    let path = ctx
        .trace_dir
        .join(format!("trace-{}-seed{}.jsonl", ctx.workload, ctx.seed));
    let written = tracer
        .write_jsonl(&path, WRITTEN_SPANS)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    out.note(format!(
        "{written} of {} spans (the first jobs') written to {}",
        tracer.len(),
        path.display()
    ));
    Ok(())
}
