//! `bulk_large`: one caller, a resident session at `p = nproc`, repeated
//! `permute_into` of `2^26` u64 items (512 MiB), timed against the floor
//! in the same run.
//!
//! Why: this is a library user's big shuffle.  It sits above
//! `LocalShuffle::Auto`'s 64 MiB crossover, so the bucketed local shuffle
//! and the exchange's memory traffic do nearly all the work, and the
//! service and wire layers do none.

use std::time::Instant;

use cgp_core::{PermutationReport, PermutationSession, Permuter};

use crate::gen::{derive, fill_iota, floor_shuffle, SplitMix64, STREAM_ENGINE, STREAM_FLOOR};
use crate::host;
use crate::ladder;
use crate::layers::{
    absent, engine_metrics, finish_trace, record_job, SERVICE_METRICS, WIRE_METRICS,
};
use crate::stats::{median, tail};
use crate::trace::Tracer;
use crate::verify::Verifier;
use crate::{Ctx, Outcome};

pub const ITEMS: usize = 1 << 26;
/// Cold session set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Floor/session pairs a run times at least, whatever `--seconds` says.
const MIN_PAIRS: usize = 3;

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let p = host::nproc();
    let permuter = Permuter::new(p).seed(derive(ctx.seed, STREAM_ENGINE));
    let mut out = Outcome::default();
    let mut v = Verifier::new();
    let mut buf: Vec<u64> = Vec::with_capacity(ITEMS);
    out.note(format!("bulk_large: n = {ITEMS} u64 items, p = {p}"));
    out.note(host::working_set_note(
        "one job's items",
        (ITEMS * 8) as u64,
    ));

    // Set-up: session construction plus its cold first job, several times
    // (once in a traced run, which reports no `setup_s`), counting only
    // set-ups the host left alone while attempts last.
    let setups_wanted = if ctx.trace { 1 } else { SETUPS };
    let mut setups = Vec::with_capacity(setups_wanted);
    let mut setup_windows = host::Windows::default();
    let mut session: Option<PermutationSession<u64>> = None;
    for attempt in 0.. {
        if setups.len() == setups_wanted {
            break;
        }
        drop(session.take());
        fill_iota(&mut buf, ITEMS);
        let steal = host::Steal::start();
        let t = Instant::now();
        let mut s = permuter.session::<u64>();
        s.permute_into(&mut buf);
        let seconds = t.elapsed().as_secs_f64();
        if setup_windows.admit(&steal, attempt + 1 >= 2 * setups_wanted) {
            setups.push(seconds);
        }
        out.attempted += 1;
        v.check("cold session job", ITEMS, &buf);
        if attempt == 0 {
            v.tally(&buf);
        }
        session = Some(s);
    }
    let mut session = session.expect("at least one set-up");

    if ctx.trace {
        return traced(ctx, &permuter, session, buf, out, v);
    }

    let pairs = timed_pairs(ctx, &mut session, &mut buf, &mut v, true, None);
    out.note(setup_windows.note("set-ups"));
    out.note(pairs.windows.note("floor/session pairs"));
    if !pairs.stolen.is_empty() {
        let mut all = pairs.stolen.clone();
        all.extend(&pairs.session);
        out.note(format!(
            "with the pairs run again counted too: median session pass {:.4} s",
            median(&all)
        ));
    }
    out.attempted += pairs.attempted;
    let verified = v.finish()?;
    out.note(format!("{verified} outputs verified"));
    session.shutdown();
    drop(buf);

    let job_s = median(&pairs.session);
    let ratios: Vec<f64> = pairs
        .floor
        .iter()
        .zip(&pairs.session)
        .map(|(f, s)| f / s)
        .collect();
    let latencies_ms: Vec<f64> = pairs.session.iter().map(|s| s * 1e3).collect();
    let p99 = tail(&latencies_ms, 0.99);
    out.note(format!(
        "{} floor/session pairs; floor median {:.4} s, session median {job_s:.4} s; setup samples {setups:.4?}",
        pairs.session.len(),
        median(&pairs.floor)
    ));
    out.note(format!(
        "latency_p50_ms from {} samples; latency_p99_ms is p{:.1} with {} samples beyond it{}",
        p99.samples,
        p99.quantile * 100.0,
        p99.beyond,
        if p99.beyond < 10 {
            " (too few jobs for a tail: the median is reported)"
        } else {
            ""
        }
    ));
    out.set("items_per_s", ITEMS as f64 / job_s);
    out.set("jobs_per_s", 1.0 / job_s);
    out.set("floor_ratio", median(&ratios));
    out.set("latency_p50_ms", median(&latencies_ms));
    out.set("latency_p99_ms", p99.value);
    out.set("setup_s", median(&setups));
    out.set("peak_rss_mib", host::peak_rss_mib().unwrap_or(f64::NAN));
    Ok(out)
}

#[derive(Default)]
struct Pairs {
    floor: Vec<f64>,
    session: Vec<f64>,
    reports: Vec<PermutationReport>,
    attempted: u64,
    windows: host::Windows,
    /// Session pass times of the pairs run again.
    stolen: Vec<f64>,
}

/// Alternates a floor pass (if `end_to_end`) and a session pass on the
/// same input until `--seconds` of counted passes have passed (and at
/// least [`MIN_PAIRS`] session passes counted), verifying each output
/// outside its timing.  With `end_to_end`, a pair counts only as
/// [`host::Windows`] allows; otherwise every pass counts.  With a tracer,
/// each session job gets a span with its report's phases as children, and
/// the reports are kept.
fn timed_pairs(
    ctx: &Ctx,
    session: &mut PermutationSession<u64>,
    buf: &mut Vec<u64>,
    v: &mut Verifier,
    end_to_end: bool,
    mut tracer: Option<&mut Tracer>,
) -> Pairs {
    let mut pairs = Pairs::default();
    let start = Instant::now();
    let mut counted_s = 0.0;
    let mut pass = 0u64;
    while pairs.session.len() < MIN_PAIRS || counted_s < ctx.seconds {
        let steal = host::Steal::start();
        let pair_start = Instant::now();
        let mut floor_s = None;
        if end_to_end {
            fill_iota(buf, ITEMS);
            let mut rng = SplitMix64::new(derive(ctx.seed, STREAM_FLOOR) ^ pass);
            let t = Instant::now();
            floor_shuffle(&mut rng, buf);
            floor_s = Some(t.elapsed().as_secs_f64());
            v.check("floor", ITEMS, buf);
            v.tally(buf);
        }

        fill_iota(buf, ITEMS);
        let t = Instant::now();
        let report = session.permute_into(buf);
        let end = Instant::now();
        pairs.attempted += 1;
        if let Some(tracer) = tracer.as_deref_mut() {
            record_job(tracer, pass, t, end, &report);
            pairs.reports.push(report);
        }
        v.check("session job", ITEMS, buf);
        pass += 1;
        let over_time = start.elapsed().as_secs_f64() > ctx.seconds * host::WALL_ALLOWANCE;
        if !end_to_end || pairs.windows.admit(&steal, over_time) {
            pairs.session.push((end - t).as_secs_f64());
            pairs.floor.extend(floor_s);
            counted_s += pair_start.elapsed().as_secs_f64();
        } else {
            pairs.stolen.push((end - t).as_secs_f64());
        }
    }
    pairs
}

fn traced(
    ctx: &Ctx,
    permuter: &Permuter,
    mut session: PermutationSession<u64>,
    mut buf: Vec<u64>,
    mut out: Outcome,
    mut v: Verifier,
) -> Result<Outcome, String> {
    let half = Ctx {
        seconds: ctx.seconds / 2.0,
        ..ctx.clone()
    };
    let untraced = timed_pairs(&half, &mut session, &mut buf, &mut v, false, None);
    let mut tracer = Tracer::new();
    let traced = timed_pairs(
        &half,
        &mut session,
        &mut buf,
        &mut v,
        false,
        Some(&mut tracer),
    );
    out.attempted += untraced.attempted + traced.attempted;
    session.shutdown();
    drop(buf);
    let ladder = ladder::measure(permuter, ctx.seed, &[ITEMS], 2, &mut v);
    out.attempted += ladder.attempted();
    let verified = v.finish()?;
    out.note(format!("{verified} outputs verified"));

    engine_metrics(&mut out, &traced.reports, traced.reports.len());
    ladder.report(&mut out);
    absent(
        &mut out,
        SERVICE_METRICS,
        "bulk_large calls the session directly",
    );
    absent(
        &mut out,
        WIRE_METRICS,
        "bulk_large sends nothing over a socket",
    );
    out.set(
        "trace_overhead",
        median(&traced.session) / median(&untraced.session) - 1.0,
    );
    finish_trace(ctx, &tracer, &mut out)?;
    Ok(out)
}
