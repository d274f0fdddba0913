//! The serving workload `wire_mix`, and the service traffic its traced
//! run drives.  Both are closed loops driven by one generator thread.
//!
//! * `wire_mix`: a `WireServer` in this process from
//!   `ServiceConfig::new(nproc)` (one machine), one TCP-loopback `Client`
//!   with 4 pipelined requests.  Sizes log-uniform over `2^12..2^18`.  Why:
//!   codec and socket bytes dominate, and the engine runs mid-size jobs on
//!   the Fisher–Yates side of `LocalShuffle::Auto`.
//! * service traffic (traced `wire_mix` runs): an in-process
//!   `PermutationService` from `ServiceConfig::new(1)` (`p = 1` per
//!   machine, `nproc` machines, the default queue depth), 8 tenant
//!   handles, 16 jobs in flight through blocking `submit` and a
//!   `CompletionSet`.  Sizes: 80 % 64 items, 18 % 1024, 2 % 65 536.  Many
//!   tenants send small jobs, so admission, coalescing, stealing and
//!   completion do the work the `service.*` metrics measure.
//!
//! Closed loops, because the callers of `ServiceHandle::permute` and
//! `Client::permute` wait for their reply.  A timed phase is cut into
//! segments: a segment stops submitting once its jobs hold
//! [`Loop::segment_items`] items, drains, and stops its clock; its outputs
//! are then verified before the next segment starts.

use std::collections::{HashMap, VecDeque};
use std::time::Instant;

use cgp_core::{
    CompletionSet, JobTicket, PermutationReport, PermutationService, Permuter, ServiceConfig,
    ServiceHandle, ServiceMetrics,
};
use cgp_server::{Client, WireServer};

use crate::gen::{derive, fill_iota, floor_shuffle, Job, JobStream, Mix, SplitMix64};
use crate::gen::{SERVICE_TENANTS, STREAM_ENGINE, STREAM_FLOOR, WIRE_MAX_ITEMS};
use crate::host;
use crate::ladder;
use crate::layers::{engine_metrics, finish_trace, record_job};
use crate::stats::{mean, median, tail};
use crate::trace::Tracer;
use crate::verify::Verifier;
use crate::{Ctx, Outcome};

/// Cold set-ups per run; `setup_s` is their median.  The cold job has a
/// fixed size (the mix's log-midpoint), so set-up does not depend on the
/// seed.
const SETUPS: usize = 25;
/// Seconds of untimed, verified load between set-up and the timed phase.
const WARMUP_S: f64 = 1.0;
/// Seconds of timed clock per window of an untraced timed phase.
const WINDOW_S: f64 = 1.0;
/// Seconds of timed clock of the traced run's service traffic.
const SERVICE_TRAFFIC_S: f64 = 4.0;
/// Span job ids of the service traffic start here.
const SERVICE_SPANS: u64 = 1 << 32;
/// Jobs of the seeded sequence whose engine word counts are averaged.
const COUNTED_JOBS: u64 = 1_000;
/// The ladder's share of the job sequence: at most this many jobs...
const LADDER_JOBS: usize = 2_000;
/// ...holding at most this many items.
const LADDER_ITEMS: usize = 1 << 23;
/// Items of cached one-shot references kept at most.
const REFERENCE_ITEMS: usize = 1 << 18;

/// A loop's shape.  A segment holds at most `segment_items` items plus
/// one job, all kept until the segment is verified, so it is kept small
/// next to the program's own memory.
#[derive(Debug, Clone, Copy)]
struct Loop {
    window: usize,
    segment_items: usize,
}

const SERVICE_LOOP: Loop = Loop {
    window: 16,
    segment_items: 1 << 20,
};
const WIRE_LOOP: Loop = Loop {
    window: 4,
    segment_items: 1 << 20,
};

/// One completed job as a lane hands it back.
struct Done {
    out: Vec<u64>,
    report: Option<PermutationReport>,
}

/// One way of submitting jobs and collecting their results.
trait Lane {
    /// Span names for the submit call and the wait call.
    const SUBMIT: &'static str;
    const WAIT: &'static str;
    /// Submits `input` for `job`; returns the token that `next` hands back
    /// with its result, or why the job was refused.
    fn submit(&mut self, job: Job, input: Vec<u64>) -> Result<u64, String>;
    /// Blocks for the next completed job; `None` when none is in flight.
    fn next(&mut self) -> Option<(u64, Result<Done, String>)>;
}

/// The service traffic's lane: tenant handles and one `CompletionSet`.
struct ServiceLane<'a> {
    handles: &'a [ServiceHandle<u64>],
    set: CompletionSet<u64>,
}

impl Lane for ServiceLane<'_> {
    const SUBMIT: &'static str = "service.submit";
    const WAIT: &'static str = "service.wait";

    fn submit(&mut self, job: Job, input: Vec<u64>) -> Result<u64, String> {
        match self.handles[job.tenant].submit(input) {
            Ok(ticket) => Ok(self.set.insert(ticket)),
            Err(rejected) => Err(rejected.error.to_string()),
        }
    }

    fn next(&mut self) -> Option<(u64, Result<Done, String>)> {
        let (key, outcome) = self.set.wait_any()?;
        let done = outcome
            .map(|(out, report)| Done {
                out,
                report: Some(report),
            })
            .map_err(|e| e.to_string());
        Some((key, done))
    }
}

/// The in-process contrast of `wire_mix`: one handle, waiting on the
/// oldest ticket, as the wire client waits on its oldest request.
struct TicketLane {
    handle: ServiceHandle<u64>,
    order: VecDeque<(u64, JobTicket<u64>)>,
    next_token: u64,
}

impl Lane for TicketLane {
    const SUBMIT: &'static str = "service.submit";
    const WAIT: &'static str = "service.wait";

    fn submit(&mut self, _job: Job, input: Vec<u64>) -> Result<u64, String> {
        let ticket = self.handle.submit(input).map_err(|r| r.error.to_string())?;
        self.next_token += 1;
        self.order.push_back((self.next_token, ticket));
        Ok(self.next_token)
    }

    fn next(&mut self) -> Option<(u64, Result<Done, String>)> {
        let (token, ticket) = self.order.pop_front()?;
        let done = ticket
            .wait()
            .map(|(out, report)| Done {
                out,
                report: Some(report),
            })
            .map_err(|e| e.to_string());
        Some((token, done))
    }
}

/// `wire_mix`'s lane: one pipelined TCP client, waiting on its oldest
/// request.
struct WireLane {
    client: Client<u64>,
    order: VecDeque<u64>,
}

impl Lane for WireLane {
    const SUBMIT: &'static str = "wire.submit";
    const WAIT: &'static str = "wire.wait";

    fn submit(&mut self, _job: Job, input: Vec<u64>) -> Result<u64, String> {
        let id = self.client.submit(&input).map_err(|e| e.to_string())?;
        self.order.push_back(id);
        Ok(id)
    }

    fn next(&mut self) -> Option<(u64, Result<Done, String>)> {
        let id = self.order.pop_front()?;
        let done = self
            .client
            .wait(id)
            .map(|out| Done { out, report: None })
            .map_err(|e| e.to_string());
        Some((id, done))
    }
}

/// What a timed phase measured, over all of its segments.
#[derive(Default)]
struct Phase {
    attempted: u64,
    failed: u64,
    first_error: Option<String>,
    latencies_us: Vec<f64>,
    segments: usize,
    timed_s: f64,
    /// Seconds the floor took over the completed jobs' sizes, if probed.
    floor_s: f64,
    submit_s: f64,
    submitted_items: u64,
    wait_s: f64,
    /// Completed jobs in completion order.
    completed: Vec<Job>,
    /// Reports by position in the job sequence, if kept.
    reports: Vec<(u64, PermutationReport)>,
    /// Tasks the pid namespace created while segments ran, if readable.
    tasks_created: Option<u64>,
    /// Most bytes of outputs awaiting verification plus spare input
    /// buffers that the loop held at once.
    held_peak_bytes: usize,
}

impl Phase {
    fn new() -> Self {
        Phase {
            tasks_created: Some(0),
            ..Phase::default()
        }
    }

    /// Adds `other`'s attempts, failures and held bytes.
    fn count(&mut self, other: &Phase) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_error.is_none() {
            self.first_error.clone_from(&other.first_error);
        }
        self.held_peak_bytes = self.held_peak_bytes.max(other.held_peak_bytes);
    }

    /// Adds all of `other`.
    fn absorb(&mut self, other: Phase) {
        self.count(&other);
        self.latencies_us.extend(other.latencies_us);
        self.segments += other.segments;
        self.timed_s += other.timed_s;
        self.floor_s += other.floor_s;
        self.submit_s += other.submit_s;
        self.submitted_items += other.submitted_items;
        self.wait_s += other.wait_s;
        self.completed.extend(other.completed);
        self.reports.extend(other.reports);
        self.tasks_created = self
            .tasks_created
            .zip(other.tasks_created)
            .map(|(a, b)| a + b);
    }

    fn jobs(&self) -> u64 {
        self.completed.len() as u64
    }

    fn items(&self) -> u64 {
        self.completed.iter().map(|j| j.size as u64).sum()
    }

    fn jobs_per_s(&self) -> f64 {
        self.jobs() as f64 / self.timed_s
    }
}

/// Compares sampled outputs with `Permuter::permute` of the same input
/// and engine seed, computed once per size in this run.
struct References {
    permuter: Permuter,
    by_size: HashMap<usize, Vec<u64>>,
}

impl References {
    fn new(permuter: Permuter) -> Self {
        References {
            permuter,
            by_size: HashMap::new(),
        }
    }

    fn check(&mut self, v: &mut Verifier, out: &[u64], size: usize) {
        // Bounded, so the cache does not grow peak RSS with the run's length.
        if self.by_size.values().map(Vec::len).sum::<usize>() > REFERENCE_ITEMS {
            self.by_size.clear();
        }
        let permuter = &self.permuter;
        let reference = self.by_size.entry(size).or_insert_with(|| {
            let (reference, _) = permuter.permute((0..size as u64).collect());
            v.check("one-shot reference", size, &reference);
            v.tally(&reference);
            reference
        });
        v.check_equal("sampled job", out, reference);
    }
}

/// Optional extras of a closed loop.
#[derive(Default)]
struct Extras<'a> {
    /// Records a span per job, with its submit and wait calls and its
    /// report's phases as children.
    tracer: Option<&'a mut Tracer>,
    /// Added to a job's position in the sequence to give its spans' job
    /// id, so the spans of two loops in one trace stay apart.
    span_base: u64,
    /// Times the floor on each segment's job sizes, its clock stopped.
    floor: Option<&'a mut FloorProbe>,
    /// Keeps each job's report.
    keep_reports: bool,
}

/// Runs a closed loop of `shape.window` jobs in flight until `seconds` of
/// timed clock have passed or `jobs` runs out, verifying every output
/// between segments.
fn closed_loop<L: Lane>(
    lane: &mut L,
    jobs: &mut dyn Iterator<Item = Job>,
    shape: Loop,
    seconds: f64,
    refs: &mut References,
    v: &mut Verifier,
    mut extras: Extras,
) -> Phase {
    let mut phase = Phase::new();
    let mut spare: Vec<Vec<u64>> = Vec::new();
    let mut seq = 0u64;
    let mut exhausted = false;
    let mut inflight: HashMap<u64, (Job, u64, Instant, Instant)> = HashMap::new();
    let mut outputs: Vec<(Job, Vec<u64>)> = Vec::new();
    while phase.timed_s < seconds && !exhausted {
        let pids = host::last_pid();
        let segment_start = Instant::now();
        let mut held = 0;
        loop {
            while inflight.len() < shape.window && held < shape.segment_items && !exhausted {
                let Some(job) = jobs.next() else {
                    exhausted = true;
                    break;
                };
                let mut input = spare.pop().unwrap_or_default();
                fill_iota(&mut input, job.size);
                let t0 = Instant::now();
                let submitted = lane.submit(job, input);
                let t1 = Instant::now();
                phase.submit_s += (t1 - t0).as_secs_f64();
                phase.submitted_items += job.size as u64;
                phase.attempted += 1;
                held += job.size;
                match submitted {
                    Ok(token) => {
                        inflight.insert(token, (job, seq, t0, t1));
                    }
                    Err(e) => {
                        phase.failed += 1;
                        phase.first_error.get_or_insert(e);
                    }
                }
                seq += 1;
            }
            let tw = Instant::now();
            let Some((token, result)) = lane.next() else {
                break;
            };
            let t2 = Instant::now();
            phase.wait_s += (t2 - tw).as_secs_f64();
            let (job, job_seq, t0, t1) = inflight.remove(&token).expect("a token we submitted");
            match result {
                Ok(done) => {
                    phase.latencies_us.push((t2 - t0).as_secs_f64() * 1e6);
                    if let Some(tracer) = extras.tracer.as_deref_mut() {
                        let id = extras.span_base + job_seq;
                        let root = match &done.report {
                            Some(report) => record_job(tracer, id, t0, t2, report),
                            None => tracer.span("job", id, None, t0, t2),
                        };
                        tracer.span(L::SUBMIT, id, Some(root), t0, t1);
                        tracer.span(L::WAIT, id, Some(root), tw, t2);
                    }
                    if let (true, Some(report)) = (extras.keep_reports, done.report) {
                        phase.reports.push((job_seq, report));
                    }
                    phase.completed.push(job);
                    outputs.push((job, done.out));
                }
                Err(e) => {
                    phase.failed += 1;
                    phase.first_error.get_or_insert(e);
                }
            }
        }
        phase.timed_s += segment_start.elapsed().as_secs_f64();
        phase.segments += 1;
        phase.tasks_created = match (phase.tasks_created, pids) {
            (Some(total), Some(before)) => host::pids_since(before).map(|n| total + n),
            _ => None,
        };
        let held_items: usize = outputs.iter().map(|(_, o)| o.capacity()).sum::<usize>()
            + spare.iter().map(Vec::capacity).sum::<usize>();
        phase.held_peak_bytes = phase.held_peak_bytes.max(held_items * 8);
        if let Some(floor) = extras.floor.as_deref_mut() {
            phase.floor_s += floor.time(outputs.iter().map(|(job, _)| job.size), v);
        }

        for (job, out) in outputs.drain(..) {
            v.check("job", job.size, &out);
            if job.sampled {
                refs.check(v, &out, job.size);
            }
            if spare.len() < shape.window {
                spare.push(out);
            }
        }
    }
    phase
}

/// The timed phase of an untraced run: windows of about [`WINDOW_S`] of
/// timed clock, each a closed loop with the floor probed, until `seconds`
/// of timed clock from windows that [`host::Windows`] counts are in hand.
/// Returns the counted windows (with every window's attempts and
/// failures) and, apart, the timings of the windows run again.
fn timed_phase<L: Lane>(
    lane: &mut L,
    jobs: &mut dyn Iterator<Item = Job>,
    shape: Loop,
    seconds: f64,
    refs: &mut References,
    v: &mut Verifier,
    floor: &mut FloorProbe,
) -> (Phase, Phase, host::Windows) {
    let start = Instant::now();
    let mut phase = Phase::new();
    let mut stolen = Phase::new();
    let mut windows = host::Windows::default();
    while phase.timed_s < seconds {
        let steal = host::Steal::start();
        let window = closed_loop(
            lane,
            jobs,
            shape,
            WINDOW_S.min(seconds - phase.timed_s),
            refs,
            v,
            Extras {
                floor: Some(&mut *floor),
                ..Extras::default()
            },
        );
        let over_time = start.elapsed().as_secs_f64() > seconds * host::WALL_ALLOWANCE;
        if windows.admit(&steal, over_time) {
            phase.absorb(window);
        } else {
            phase.count(&window);
            stolen.absorb(window);
        }
    }
    (phase, stolen, windows)
}

/// The floor for a serving phase: after each segment, the benchmark's own
/// Fisher–Yates shuffles a buffer prefix of each of the segment's job
/// sizes, so the floor runs on the same input as the program.
struct FloorProbe {
    buf: Vec<u64>,
    rng: SplitMix64,
}

impl FloorProbe {
    fn new(max_items: usize, ctx: &Ctx) -> Self {
        let mut buf = Vec::with_capacity(max_items);
        fill_iota(&mut buf, max_items);
        FloorProbe {
            buf,
            rng: SplitMix64::new(derive(ctx.seed, STREAM_FLOOR)),
        }
    }

    /// Seconds the floor takes over `sizes`.
    fn time(&mut self, sizes: impl Iterator<Item = usize>, v: &mut Verifier) -> f64 {
        let mut last = 0;
        let t = Instant::now();
        for size in sizes {
            floor_shuffle(&mut self.rng, &mut self.buf[..size]);
            last = size;
        }
        let seconds = t.elapsed().as_secs_f64();
        v.check_reshuffled("floor", &self.buf, last);
        seconds
    }
}

/// The end-to-end metrics of a serving workload's timed phase, each over
/// the whole phase: every latency sample, and every job over the summed
/// clock of every segment.
fn serving_metrics(out: &mut Outcome, phase: &Phase, setups: &[f64]) -> Result<(), String> {
    if phase.latencies_us.is_empty() {
        return Err("the timed phase completed no job".into());
    }
    let p99 = tail(&phase.latencies_us, 0.99);
    out.note(format!(
        "{} jobs ({} items) in {:.3} s of timed clock over {} segments; the floor took {:.3} s on the same job sizes",
        phase.jobs(),
        phase.items(),
        phase.timed_s,
        phase.segments,
        phase.floor_s,
    ));
    out.note(format!(
        "latency from {} samples; latency_p99_ms is p{:.2} with {} samples beyond it",
        p99.samples,
        p99.quantile * 100.0,
        p99.beyond
    ));
    out.note(format!("setup samples (s): {setups:.5?}"));
    out.note(format!(
        "peak_rss_mib includes the benchmark's own buffers: at most {:.2} MiB of outputs awaiting verification and spare inputs",
        phase.held_peak_bytes as f64 / (1u64 << 20) as f64
    ));
    out.set("items_per_s", phase.items() as f64 / phase.timed_s);
    out.set("jobs_per_s", phase.jobs_per_s());
    out.set("floor_ratio", phase.floor_s / phase.timed_s);
    out.set("latency_p50_ms", median(&phase.latencies_us) / 1e3);
    out.set("latency_p99_ms", p99.value / 1e3);
    out.set("setup_s", median(setups));
    out.set("peak_rss_mib", host::peak_rss_mib().unwrap_or(f64::NAN));
    Ok(())
}

fn input(size: usize) -> Vec<u64> {
    (0..size as u64).collect()
}

fn start_service(config: ServiceConfig) -> PermutationService<u64> {
    PermutationService::new(config, config.engine.options())
}

/// Service-layer metrics from two `ServiceMetrics` snapshots around a
/// phase, and the phase's own submit and latency timings.
fn service_layer(
    out: &mut Outcome,
    before: &ServiceMetrics,
    after: &ServiceMetrics,
    phase: &Phase,
) {
    let jobs = (after.jobs_total() - before.jobs_total()).max(1) as f64;
    let per_job_us = |a: std::time::Duration, b: std::time::Duration| {
        a.saturating_sub(b).as_secs_f64() * 1e6 / jobs
    };
    let queue_us = per_job_us(after.queue_wait, before.queue_wait);
    let run_us = per_job_us(after.run_time, before.run_time);
    let coalesced = (after.coalesced_jobs - before.coalesced_jobs) as f64;
    let batches = (after.coalesced_batches - before.coalesced_batches) as f64;
    let busy: f64 = after
        .per_machine
        .iter()
        .zip(&before.per_machine)
        .map(|(a, b)| a.busy.saturating_sub(b.busy).as_secs_f64())
        .sum();
    out.set(
        "service.submit_us",
        phase.submit_s * 1e6 / phase.attempted.max(1) as f64,
    );
    out.set("service.queue_wait_us", queue_us);
    out.set("service.run_us", run_us);
    out.set(
        "service.unaccounted_us",
        mean(&phase.latencies_us) - queue_us - run_us,
    );
    out.set("service.coalesced_share", coalesced / jobs);
    out.set(
        "service.jobs_per_batch",
        jobs / (batches + jobs - coalesced),
    );
    out.set(
        "service.steals_per_kjob",
        (after.steals - before.steals) as f64 * 1e3 / jobs,
    );
    // Over the phase's timed clock: the machines idle while a segment's
    // outputs are verified.
    out.set(
        "service.machine_util",
        busy / (after.per_machine.len() as f64 * phase.timed_s),
    );
}

/// Engine metrics from a traced phase's reports, word counts over the
/// first [`COUNTED_JOBS`] of the sequence.
fn phase_engine_metrics(out: &mut Outcome, phase: &mut Phase) {
    phase.reports.sort_by_key(|r| r.0);
    let counted = phase.reports.iter().filter(|r| r.0 < COUNTED_JOBS).count();
    let reports: Vec<PermutationReport> = phase.reports.drain(..).map(|r| r.1).collect();
    engine_metrics(out, &reports, counted);
}

fn ladder_sizes(mix: Mix, ctx: &Ctx) -> Vec<usize> {
    JobStream::prefix(mix, ctx.seed, LADDER_JOBS, LADDER_ITEMS)
        .iter()
        .map(|j| j.size)
        .collect()
}

fn check_phase(phase: &Phase, what: &str) -> Result<(), String> {
    match &phase.first_error {
        Some(e) if phase.failed == phase.attempted => Err(format!("{what}: every job failed: {e}")),
        _ => Ok(()),
    }
}

fn start_wire(config: ServiceConfig) -> Result<(WireServer<u64>, Client<u64>), String> {
    let server = WireServer::<u64>::bind_tcp("127.0.0.1:0", config, config.engine.options())
        .map_err(|e| format!("binding the wire server: {e}"))?;
    let addr = server.local_addr().expect("a TCP server has an address");
    let client = Client::connect_tcp(addr).map_err(|e| format!("connecting: {e}"))?;
    Ok((server, client))
}

/// Bytes both frames of one job put on the socket, from the frame layout
/// in `docs/wire-protocol.md`: an 8-byte length prefix on each frame; a
/// submit body of kind, request id, lane and deadline (18 bytes) plus the
/// payload; a result body of kind and request id (9 bytes) plus the
/// payload; 8 bytes per u64 item each way.
fn wire_bytes(items: u64) -> u64 {
    (8 + 18 + 8 * items) + (8 + 9 + 8 * items)
}

pub fn run_wire(ctx: &Ctx) -> Result<Outcome, String> {
    let p = host::nproc();
    // The server refuses (never parks) a submit beyond its admission
    // buffer, so the buffer holds the client's whole window: no job of
    // this closed loop is refused.
    let config = ServiceConfig::new(p)
        .seed(derive(ctx.seed, STREAM_ENGINE))
        .queue_depth(WIRE_LOOP.window);
    let permuter = Permuter::from_engine(config.engine);
    let mut out = Outcome::default();
    let mut v = Verifier::new();
    let mut refs = References::new(permuter.clone());
    out.note(format!(
        "wire_mix: {} machine(s) x p = {p} behind TCP loopback, queue depth {}, 1 client, window {}",
        config.machines, config.queue_depth, WIRE_LOOP.window
    ));
    out.note(host::working_set_note(
        "the largest job's items",
        (WIRE_MAX_ITEMS * 8) as u64,
    ));

    let first = 1 << 15;
    let mut setups = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for i in 0..SETUPS {
        let t = Instant::now();
        let (server, mut client) = start_wire(config)?;
        let result = client.permute(&input(first));
        setups.push(t.elapsed().as_secs_f64());
        out.attempted += 1;
        match result {
            Ok(o) => {
                v.check("cold first job", first, &o);
            }
            Err(e) => return Err(format!("cold first job failed: {e}")),
        }
        if i + 1 == SETUPS {
            kept = Some((server, client));
        } else {
            drop(client);
            server.shutdown();
        }
    }
    let (server, client) = kept.expect("SETUPS > 0");
    let mut lane = WireLane {
        client,
        order: VecDeque::new(),
    };
    let mut jobs = JobStream::new(Mix::Wire, ctx.seed);
    let warmup = closed_loop(
        &mut lane,
        &mut jobs,
        WIRE_LOOP,
        WARMUP_S,
        &mut refs,
        &mut v,
        Extras::default(),
    );
    check_phase(&warmup, "wire_mix warm-up")?;
    out.attempted += warmup.attempted;
    out.failed += warmup.failed;

    if !ctx.trace {
        let mut floor = FloorProbe::new(WIRE_MAX_ITEMS, ctx);
        let (phase, stolen, windows) = timed_phase(
            &mut lane,
            &mut jobs,
            WIRE_LOOP,
            ctx.seconds,
            &mut refs,
            &mut v,
            &mut floor,
        );
        out.note(windows.note("timed windows"));
        if !stolen.latencies_us.is_empty() {
            let mut all = stolen.latencies_us.clone();
            all.extend(&phase.latencies_us);
            out.note(format!(
                "with the windows run again counted too: {:.1} jobs/s, p50 {:.3} ms, p99 {:.3} ms",
                (phase.jobs() + stolen.jobs()) as f64 / (phase.timed_s + stolen.timed_s),
                median(&all) / 1e3,
                tail(&all, 0.99).value / 1e3
            ));
        }
        drop(lane);
        let metrics = server.shutdown();
        check_phase(&phase, "wire_mix")?;
        out.attempted += phase.attempted;
        out.failed += phase.failed + metrics.deadline_shed;
        let verified = v.finish()?;
        out.note(format!("{verified} outputs verified"));
        serving_metrics(&mut out, &phase, &setups)?;
        return Ok(out);
    }

    let half = ctx.seconds / 2.0;
    let untraced = closed_loop(
        &mut lane,
        &mut jobs,
        WIRE_LOOP,
        half,
        &mut refs,
        &mut v,
        Extras::default(),
    );
    let mut tracer = Tracer::new();
    let mut jobs = JobStream::new(Mix::Wire, ctx.seed);
    let before = server.metrics().ok_or("server metrics")?;
    let traced = closed_loop(
        &mut lane,
        &mut jobs,
        WIRE_LOOP,
        half,
        &mut refs,
        &mut v,
        Extras {
            tracer: Some(&mut tracer),
            ..Extras::default()
        },
    );
    let after = server.metrics().ok_or("server metrics")?;
    drop(lane);
    server.shutdown();
    check_phase(&traced, "wire_mix")?;
    out.attempted += untraced.attempted + traced.attempted;
    out.failed += untraced.failed + traced.failed;

    // The in-process contrast: the same config and the same job sequence
    // through a `ServiceHandle`, with the same window.
    let service = start_service(config);
    let mut contrast_lane = TicketLane {
        handle: service.handle(),
        order: VecDeque::new(),
        next_token: 0,
    };
    let mut same_jobs = JobStream::new(Mix::Wire, ctx.seed).take(traced.completed.len());
    let mut contrast = closed_loop(
        &mut contrast_lane,
        &mut same_jobs,
        WIRE_LOOP,
        f64::INFINITY,
        &mut refs,
        &mut v,
        Extras {
            keep_reports: true,
            ..Extras::default()
        },
    );
    drop(contrast_lane);
    service.shutdown();
    check_phase(&contrast, "wire_mix in-process contrast")?;
    out.attempted += contrast.attempted;
    out.failed += contrast.failed;

    let traffic = service_traffic(ctx, &mut tracer, &mut v, &mut out)?;

    let ladder = ladder::measure(
        &permuter,
        ctx.seed,
        &ladder_sizes(Mix::Wire, ctx),
        3,
        &mut v,
    );
    out.attempted += ladder.attempted();
    let verified = v.finish()?;
    out.note(format!("{verified} outputs verified"));

    phase_engine_metrics(&mut out, &mut contrast);
    ladder.report(&mut out);
    // Service and wire jobs run on the service's dispatcher threads, where
    // the calling thread's `cgp_cgm::diag` counters cannot see them; their
    // spawns are counted from the pid namespace instead.
    let tasks = traced
        .tasks_created
        .zip(traffic.tasks_created)
        .map(|(a, b)| a + b)
        .ok_or("cannot read /proc/sys/kernel/ns_last_pid")?;
    out.set(
        "service.tasks_created_per_job",
        tasks as f64 / (traced.jobs() + traffic.jobs()).max(1) as f64,
    );
    out.note(format!(
        "service.tasks_created_per_job: {tasks} tasks created in the pid namespace while the traced wire and service traffic segments ran, over {} jobs (an upper bound on the service's and server's thread spawns)",
        traced.jobs() + traffic.jobs()
    ));

    let jobs_done = traced.jobs().max(1) as f64;
    let mib = traced.submitted_items as f64 * 8.0 / (1u64 << 20) as f64;
    let server_jobs = (after.jobs_total() - before.jobs_total()).max(1) as f64;
    let frame_bytes: u64 = traced
        .completed
        .iter()
        .map(|j| wire_bytes(j.size as u64))
        .sum();
    out.set("wire.submit_us_per_mib", traced.submit_s * 1e6 / mib);
    out.set("wire.wait_us", traced.wait_s * 1e6 / jobs_done);
    out.set(
        "wire.server_run_us",
        after.run_time.saturating_sub(before.run_time).as_secs_f64() * 1e6 / server_jobs,
    );
    out.set(
        "wire.delta_over_inprocess",
        mean(&traced.latencies_us) / mean(&contrast.latencies_us),
    );
    out.set(
        "wire.bytes_per_item",
        frame_bytes as f64 / traced.items().max(1) as f64,
    );
    out.note("wire.bytes_per_item is computed from the frame layout, not measured".into());
    out.set(
        "trace_overhead",
        untraced.jobs_per_s() / traced.jobs_per_s() - 1.0,
    );
    finish_trace(ctx, &tracer, &mut out)?;
    Ok(out)
}

/// The traced `wire_mix` run's service traffic, the source of the
/// `service.*` metrics: many tenants sending small jobs to an in-process
/// service at `p = 1`, so that admission across tenants, coalescing,
/// stealing between machines and the `CompletionSet` all do work.  Its
/// jobs get spans after the wire jobs' in the same trace.
fn service_traffic(
    ctx: &Ctx,
    tracer: &mut Tracer,
    v: &mut Verifier,
    out: &mut Outcome,
) -> Result<Phase, String> {
    let config = ServiceConfig::new(1).seed(derive(ctx.seed, STREAM_ENGINE));
    let mut refs = References::new(Permuter::from_engine(config.engine));
    let service = start_service(config);
    let handles: Vec<ServiceHandle<u64>> = (0..SERVICE_TENANTS).map(|_| service.handle()).collect();
    let mut lane = ServiceLane {
        handles: &handles,
        set: CompletionSet::new(),
    };
    let mut jobs = JobStream::new(Mix::Service, ctx.seed);
    let warmup = closed_loop(
        &mut lane,
        &mut jobs,
        SERVICE_LOOP,
        WARMUP_S,
        &mut refs,
        v,
        Extras::default(),
    );
    let before = service.metrics();
    let phase = closed_loop(
        &mut lane,
        &mut jobs,
        SERVICE_LOOP,
        SERVICE_TRAFFIC_S,
        &mut refs,
        v,
        Extras {
            tracer: Some(tracer),
            span_base: SERVICE_SPANS,
            ..Extras::default()
        },
    );
    let after = service.metrics();
    drop(lane);
    drop(handles);
    let metrics = service.shutdown();
    check_phase(&warmup, "service traffic warm-up")?;
    check_phase(&phase, "service traffic")?;
    out.attempted += warmup.attempted + phase.attempted;
    out.failed += warmup.failed + phase.failed + metrics.deadline_shed;
    out.note(format!(
        "service.*: {} machines x p = 1, queue depth {}, {SERVICE_TENANTS} tenants, window {}; {} jobs in {:.3} s of timed clock",
        config.machines,
        config.queue_depth,
        SERVICE_LOOP.window,
        phase.jobs(),
        phase.timed_s
    ));
    service_layer(out, &before, &after, &phase);
    Ok(phase)
}
