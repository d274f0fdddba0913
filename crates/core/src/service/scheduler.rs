//! The dispatcher core of the [`PermutationService`](crate::PermutationService):
//! per-machine deques, work stealing, and small-job coalescing.
//!
//! Each fleet machine is driven by one dispatcher thread running
//! `dispatcher_loop`.  A dispatcher's cycle:
//!
//! 1. **Drain the own deque.**  `MachineQueue::take_batch` pops the front
//!    job plus every consecutive compatible follower under the byte budget
//!    ([`crate::ServiceConfig::coalesce_budget`]).  Every batch — a lone
//!    job is a batch of one — runs as one fenced submission to the
//!    resident pool ([`crate::parallel::try_permute_batch_into_with`]), so
//!    a coalesced batch pays the per-job wake/rendezvous cost that
//!    dominates tiny payloads once.  A deadline job is never coalesced; if
//!    its budget expired while it sat in the deque, it is shed here
//!    instead of run.
//! 2. **Refill** from the fair-share admission buffer when the deque is
//!    empty (High lanes first, then weighted deficit-round-robin — see the
//!    queue module).
//! 3. **Steal** the back half of the most-loaded peer's deque when
//!    admission is empty too — an idle machine takes work instead of
//!    parking while a neighbour has backlog.
//! 4. **Park** (or exit, on shutdown) only when there is no work anywhere.
//!
//! Stealing and coalescing are **invisible in the results**: every random
//! stream of a job is derived from the fleet-wide seed per call, so a job
//! produces the byte-identical permutation on its home machine, on a
//! thief, inside a batch, or as a one-shot run.  What moves is only *when
//! and where* the job runs — which the metrics meter
//! ([`crate::ServiceMetrics::steals`],
//! [`crate::ServiceMetrics::coalesced_jobs`]).
//!
//! A mid-batch panic is contained exactly like a solo panic: the faulting
//! job's ticket fails, jobs behind it in the batch are requeued at the
//! front of the deque (their items were never touched) and rerun, and the
//! pool recovers once.
//!
//! ```
//! use cgp_core::{PermuteOptions, Permuter, Priority};
//!
//! let permuter = Permuter::new(2).seed(41);
//! let service = permuter.service_sized::<u64>(2, 16);
//! let handle = service.handle();
//! // A High-priority job jumps every Normal backlog at refill time.
//! let urgent = handle
//!     .submit_with((0..64u64).collect(), PermuteOptions::default(), Priority::High)
//!     .unwrap();
//! let routine: Vec<_> = (0..4)
//!     .map(|_| handle.submit((0..64u64).collect()).unwrap())
//!     .collect();
//! let reference = permuter.permute((0..64u64).collect()).0;
//! assert_eq!(urgent.wait().unwrap().0, reference);
//! for ticket in routine {
//!     // Scheduled, stolen, or coalesced: the permutation is the same.
//!     assert_eq!(ticket.wait().unwrap().0, reference);
//! }
//! let metrics = service.shutdown();
//! assert_eq!(metrics.jobs_served, 5);
//! assert_eq!(metrics.jobs_served, metrics.jobs_total());
//! ```

use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use super::metrics::MetricsInner;
use super::queue::{Admission, Job, MachineQueue};
use super::{panic_text, ServiceError};
use crate::config::PermuteOptions;
use crate::parallel::{try_permute_batch_into_with, BatchOutcome, PermuteScratch};
use cgp_cgm::ResidentCgm;

/// Most jobs one refill moves from admission to a machine's deque.  Far
/// above any sensible batch size, so a refill rarely truncates; bounded so
/// one machine cannot monopolize an enormous admission buffer in a single
/// scan (peers steal the surplus anyway).
const REFILL_MAX: usize = 64;

/// Everything the handles and dispatchers share.
pub(crate) struct SchedShared<T> {
    pub(crate) admission: Admission<T>,
    pub(crate) machines: Vec<MachineQueue<T>>,
    pub(crate) metrics: Mutex<MetricsInner>,
    /// The service-wide options (backend, …) jobs submitted without
    /// explicit options run with.
    pub(crate) default_options: PermuteOptions,
    /// Virtual processors per machine — what admission-time validation of
    /// per-job options checks against.
    pub(crate) procs: usize,
    /// Byte budget for one coalesced batch (0 disables coalescing).
    pub(crate) coalesce_budget: usize,
    pub(crate) next_job: AtomicU64,
    pub(crate) started_at: Instant,
}

pub(crate) fn lock_metrics<T>(shared: &SchedShared<T>) -> MutexGuard<'_, MetricsInner> {
    shared.metrics.lock().unwrap_or_else(|e| e.into_inner())
}

/// One dispatcher: owns a resident machine and its warm scratches, serves
/// its deque in (coalesced) FIFO order, refills from admission, steals
/// when idle, contains failures, meters everything.
pub(crate) fn dispatcher_loop<T: Send + 'static>(
    machine_idx: usize,
    mut pool: ResidentCgm<T>,
    shared: Arc<SchedShared<T>>,
) {
    let mut scratches: Vec<PermuteScratch<T>> = vec![PermuteScratch::new()];
    'serve: loop {
        // Drain the own deque first: the cheapest work source, and the one
        // whose scratches are warm.
        loop {
            let batch = shared.machines[machine_idx].take_batch(shared.coalesce_budget);
            if batch.is_empty() {
                break;
            }
            run_batch(machine_idx, &mut pool, &shared, &mut scratches, batch);
            // Peers parked before this work existed re-check for stealable
            // surplus (and for the shutdown exit condition).
            shared.admission.notify_work();
        }

        let mut st = shared.admission.lock();
        loop {
            // Refill from admission (fair-share order).  Deadline jobs
            // whose budget expired while queued come back in `shed`.
            let mut shed = Vec::new();
            let refill = shared
                .admission
                .refill_locked(&mut st, REFILL_MAX, &mut shed);
            if !refill.is_empty() || !shed.is_empty() {
                drop(st);
                // Resolve shed tickets outside the admission lock:
                // completing a ticket may run a user `on_complete`
                // callback, which must never execute under scheduler
                // locks.
                shed_jobs(&shared, shed);
                if refill.is_empty() {
                    st = shared.admission.lock();
                    continue;
                }
                shared.machines[machine_idx].push_back_many(refill);
                // More than one batch may have landed: let an idle peer
                // steal the surplus instead of waiting for admission.
                shared.admission.notify_work();
                continue 'serve;
            }

            // Admission is empty: steal the back half of the most-loaded
            // peer's deque instead of parking.
            let victim = (0..shared.machines.len())
                .filter(|&i| i != machine_idx)
                .map(|i| (shared.machines[i].len(), i))
                .max()
                .filter(|&(len, _)| len > 0)
                .map(|(_, i)| i);
            if let Some(victim) = victim {
                let stolen = shared.machines[victim].steal_half();
                if !stolen.is_empty() {
                    lock_metrics(&shared).record_steal(machine_idx, stolen.len() as u64);
                    drop(st);
                    shared.machines[machine_idx].push_back_many(stolen);
                    continue 'serve;
                }
            }

            // Nothing anywhere: exit once the service closed and every
            // deque is drained (in-flight batches are owned by their
            // dispatchers, which drain their own requeues), else park.
            if !st.is_open() && shared.machines.iter().all(|m| m.len() == 0) {
                drop(st);
                // Cascade: peers parked here must observe the same
                // condition and exit too.
                shared.admission.notify_work_all();
                break 'serve;
            }
            st = shared.admission.wait_work(st);
        }
    }
    pool.shutdown();
}

/// Meters and fails deadline jobs whose budget expired before they ran.
/// Called outside every scheduler lock: completing a ticket may run a user
/// `on_complete` callback.
// Jobs stay boxed across every queue hop — see the `queue` module docs.
#[allow(clippy::vec_box)]
fn shed_jobs<T>(shared: &SchedShared<T>, shed: Vec<Box<Job<T>>>) {
    if shed.is_empty() {
        return;
    }
    let mut m = lock_metrics(shared);
    for job in &shed {
        m.record_shed(job.tenant);
    }
    drop(m);
    for job in shed {
        job.reply.complete(Err(ServiceError::DeadlineExceeded));
    }
}

/// Runs one batch (possibly a single job) on this machine's pool as one
/// fenced submission and resolves the tickets.  Skipped jobs — staged
/// behind a mid-batch failure — go back to the **front** of the deque with
/// their payloads and admission timestamps intact.
// Jobs stay boxed across every queue hop — see the `queue` module docs.
#[allow(clippy::vec_box)]
fn run_batch<T: Send + 'static>(
    machine_idx: usize,
    pool: &mut ResidentCgm<T>,
    shared: &SchedShared<T>,
    scratches: &mut Vec<PermuteScratch<T>>,
    batch: Vec<Box<Job<T>>>,
) {
    let batch_started = Instant::now();
    // Run-time shed: a deadline may have expired between refill (which
    // checked it) and this machine reaching the job in its deque.
    // `take_batch` never coalesces deadline jobs, so this sheds a whole
    // batch of one or nothing.
    let (shed, mut jobs): (Vec<_>, Vec<_>) = batch
        .into_iter()
        .partition(|job| job.deadline.is_some_and(|d| batch_started > d));
    shed_jobs(shared, shed);
    if jobs.is_empty() {
        return;
    }

    let count = jobs.len() as u32;
    // The payloads go into the submission; each job's box stays behind with
    // its ticket and admission timestamp, ready for a requeue.
    let inputs: Vec<_> = jobs
        .iter_mut()
        .map(|job| (std::mem::take(&mut job.data), job.options.clone()))
        .collect();
    let waits: Vec<Duration> = jobs.iter().map(|job| job.enqueued_at.elapsed()).collect();
    // In-worker panics come back as clean `Failed` outcomes (the pool
    // recovers itself); the catch_unwind is defense in depth against
    // *dispatcher thread* panics — admission-time validation makes the
    // known ones unreachable, but no conceivable engine panic may take a
    // machine out of rotation and strand its deque.
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        try_permute_batch_into_with(pool, inputs, scratches)
    }));
    let run = batch_started.elapsed();
    let result = match result {
        Ok(outcomes) => outcomes.map_err(ServiceError::JobFailed),
        Err(payload) => Err(ServiceError::InvalidJob(format!(
            "the job was rejected by the engine: {}",
            panic_text(payload.as_ref())
        ))),
    };

    // Ticket resolutions are staged and performed only after the metrics
    // lock drops: completing a ticket may run a user `on_complete`
    // callback, which must never execute under scheduler locks.
    let mut resolutions = Vec::with_capacity(jobs.len());
    let mut requeue = Vec::new();
    let mut m = lock_metrics(shared);
    match result {
        Ok(outcomes) => {
            debug_assert_eq!(outcomes.len(), jobs.len());
            let mut completed = 0u64;
            for ((outcome, mut job), wait) in outcomes.into_iter().zip(jobs).zip(waits) {
                match outcome {
                    BatchOutcome::Done { data, report } => {
                        completed += 1;
                        m.record_job(job.tenant, wait, report.total_elapsed(), true);
                        resolutions.push((job.reply, Ok((data, *report))));
                    }
                    BatchOutcome::Failed(e) => {
                        completed += 1;
                        m.record_job(job.tenant, wait, run / count, false);
                        resolutions.push((job.reply, Err(ServiceError::JobFailed(e))));
                    }
                    BatchOutcome::Skipped { data } => {
                        // Never ran: back to the head of the line, payload
                        // and original admission timestamp intact.
                        job.data = data;
                        requeue.push(job);
                    }
                }
            }
            m.record_machine(machine_idx, run, completed, pool.recoveries());
            if count > 1 {
                m.record_coalesce(machine_idx, completed);
            }
        }
        Err(error) => {
            // The batch as a whole could not run (an executor-level
            // failure or a dispatcher panic): every ticket learns the same
            // error.
            for (job, wait) in jobs.into_iter().zip(waits) {
                m.record_job(job.tenant, wait, run / count, false);
                resolutions.push((job.reply, Err(error.clone())));
            }
            m.record_machine(machine_idx, run, count as u64, pool.recoveries());
        }
    }
    drop(m);
    if !requeue.is_empty() {
        shared.machines[machine_idx].push_front_many(requeue);
    }
    for (reply, outcome) in resolutions {
        reply.complete(outcome);
    }
}
