//! Metering for the service scheduler: per-tenant, per-machine, and
//! per-lane counters, and the snapshot type callers see.
//!
//! Every dispatcher bills into one shared [`MetricsInner`] behind a mutex;
//! [`ServiceMetrics`] is the immutable snapshot
//! ([`crate::PermutationService::metrics`] live,
//! [`crate::PermutationService::shutdown`] final).  Job-level quantities
//! (served/failed, queue wait, run time) are split from machine-level
//! quantities (busy wall-clock, steal and coalesce counts) so a coalesced
//! batch bills its wall-clock once per machine but its wait/run per job.

use std::time::Duration;

/// Rolling per-tenant counters (one slot per handle lineage).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantMetrics {
    /// The tenant id (as reported by [`crate::ServiceHandle::tenant`]).
    pub tenant: usize,
    /// Jobs served successfully for this tenant.
    pub jobs_served: u64,
    /// Jobs that failed (contained panics) for this tenant.
    pub jobs_failed: u64,
    /// [`crate::Priority::Deadline`] jobs shed unrun because their budget
    /// expired before a machine could start them.  Shed jobs never ran, so
    /// they are **not** counted in [`TenantMetrics::jobs_failed`].
    pub deadline_shed: u64,
    /// Total time this tenant's jobs spent waiting between admission and
    /// the start of their (possibly coalesced) run.
    pub queue_wait: Duration,
    /// Total time this tenant's jobs spent running on a machine: for a
    /// completed job its [`crate::PermutationReport::total_elapsed`] span,
    /// whether it ran alone or coalesced.
    pub run_time: Duration,
}

/// Depth of the admission lanes at snapshot time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaneDepth {
    /// Jobs waiting in tenants' [`crate::Priority::Deadline`] lanes.
    pub deadline: usize,
    /// Jobs waiting in tenants' [`crate::Priority::High`] lanes.
    pub high: usize,
    /// Jobs waiting in tenants' [`crate::Priority::Normal`] lanes.
    pub normal: usize,
}

impl LaneDepth {
    /// Jobs waiting across all lanes.
    pub fn total(&self) -> usize {
        self.deadline + self.high + self.normal
    }
}

/// Rolling per-machine counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MachineUtilization {
    /// Jobs this machine completed (including failed ones — they occupied
    /// it; excluding jobs it skipped and requeued).
    pub jobs: u64,
    /// Total wall-clock this machine spent running jobs.
    pub busy: Duration,
    /// Recovery rounds this machine's pool ran (one per contained panic).
    pub recoveries: u64,
    /// Jobs this machine **stole** from peers' deques while otherwise idle.
    pub steals: u64,
    /// Multi-job batches this machine ran (single-job runs don't count).
    pub coalesced_batches: u64,
    /// Jobs this machine completed inside multi-job batches.
    pub coalesced_jobs: u64,
}

impl MachineUtilization {
    /// Fraction of the service's uptime this machine spent busy.
    pub fn utilization(&self, uptime: Duration) -> f64 {
        if uptime.is_zero() {
            0.0
        } else {
            self.busy.as_secs_f64() / uptime.as_secs_f64()
        }
    }
}

/// A snapshot of everything the service has done so far, taken by
/// [`crate::PermutationService::metrics`] (live) or returned by
/// [`crate::PermutationService::shutdown`] (final).
#[derive(Debug, Clone)]
pub struct ServiceMetrics {
    /// Jobs served successfully, across all tenants.
    pub jobs_served: u64,
    /// Jobs that failed (contained panics), across all tenants.
    pub jobs_failed: u64,
    /// [`crate::Priority::Deadline`] jobs shed unrun (budget expired before
    /// any machine could start them), across all tenants.  Not counted in
    /// [`ServiceMetrics::jobs_failed`] — shed jobs never occupied a
    /// machine.
    pub deadline_shed: u64,
    /// Total queue wait across all jobs.
    pub queue_wait: Duration,
    /// Total machine run time across all jobs (per job, as
    /// [`TenantMetrics::run_time`]).
    pub run_time: Duration,
    /// Wall-clock since the service started (to the snapshot).
    pub uptime: Duration,
    /// Jobs that reached their serving machine by work stealing (sum of
    /// [`MachineUtilization::steals`]).
    pub steals: u64,
    /// Multi-job coalesced batches run, fleet-wide.
    pub coalesced_batches: u64,
    /// Jobs completed inside coalesced batches, fleet-wide.
    pub coalesced_jobs: u64,
    /// Admission-lane depths at the moment of the snapshot.
    pub lane_depth: LaneDepth,
    /// Per-machine rollups, indexed by machine.
    pub per_machine: Vec<MachineUtilization>,
    /// Per-tenant rollups, sorted by tenant id.
    pub per_tenant: Vec<TenantMetrics>,
}

impl ServiceMetrics {
    /// Jobs completed (served or failed).
    pub fn jobs_total(&self) -> u64 {
        self.jobs_served + self.jobs_failed
    }

    /// Mean queue wait per completed job.
    pub fn avg_queue_wait(&self) -> Duration {
        let jobs = self.jobs_total();
        if jobs == 0 {
            Duration::ZERO
        } else {
            self.queue_wait / jobs as u32
        }
    }

    /// Mean machine run time per completed job.
    pub fn avg_run_time(&self) -> Duration {
        let jobs = self.jobs_total();
        if jobs == 0 {
            Duration::ZERO
        } else {
            self.run_time / jobs as u32
        }
    }

    /// Aggregate served-job throughput over the service's uptime, in jobs
    /// per second.
    pub fn throughput(&self) -> f64 {
        if self.uptime.is_zero() {
            0.0
        } else {
            self.jobs_served as f64 / self.uptime.as_secs_f64()
        }
    }
}

/// The dispatchers' shared ledger (behind `SchedShared::metrics`).
#[derive(Default)]
pub(crate) struct MetricsInner {
    pub(crate) jobs_served: u64,
    pub(crate) jobs_failed: u64,
    pub(crate) deadline_shed: u64,
    pub(crate) queue_wait: Duration,
    pub(crate) run_time: Duration,
    pub(crate) per_machine: Vec<MachineUtilization>,
    /// Sparse per-tenant slots: tenants are created in order, so a Vec
    /// indexed by tenant id stays dense in practice.
    pub(crate) per_tenant: Vec<TenantMetrics>,
}

impl MetricsInner {
    pub(crate) fn new(machines: usize) -> Self {
        MetricsInner {
            per_machine: vec![MachineUtilization::default(); machines],
            ..MetricsInner::default()
        }
    }

    /// Bills one completed job to the global and per-tenant ledgers.
    pub(crate) fn record_job(&mut self, tenant: usize, wait: Duration, run: Duration, ok: bool) {
        self.queue_wait += wait;
        self.run_time += run;
        if ok {
            self.jobs_served += 1;
        } else {
            self.jobs_failed += 1;
        }
        if tenant >= self.per_tenant.len() {
            self.per_tenant
                .resize_with(tenant + 1, TenantMetrics::default);
        }
        let t = &mut self.per_tenant[tenant];
        t.tenant = tenant;
        t.queue_wait += wait;
        t.run_time += run;
        if ok {
            t.jobs_served += 1;
        } else {
            t.jobs_failed += 1;
        }
    }

    /// Bills one (possibly coalesced) run to a machine: its busy
    /// wall-clock once, the number of jobs it completed, and the pool's
    /// recovery count (absolute, not a delta).
    pub(crate) fn record_machine(
        &mut self,
        machine: usize,
        busy: Duration,
        jobs: u64,
        recoveries: u64,
    ) {
        let slot = &mut self.per_machine[machine];
        slot.jobs += jobs;
        slot.busy += busy;
        slot.recoveries = recoveries;
    }

    /// Bills one shed [`crate::Priority::Deadline`] job to the global and
    /// per-tenant shed counters (never to the failure counters: a shed job
    /// never ran).
    pub(crate) fn record_shed(&mut self, tenant: usize) {
        self.deadline_shed += 1;
        if tenant >= self.per_tenant.len() {
            self.per_tenant
                .resize_with(tenant + 1, TenantMetrics::default);
        }
        let t = &mut self.per_tenant[tenant];
        t.tenant = tenant;
        t.deadline_shed += 1;
    }

    /// Records that `machine` stole `jobs` jobs from a peer's deque.
    pub(crate) fn record_steal(&mut self, machine: usize, jobs: u64) {
        self.per_machine[machine].steals += jobs;
    }

    /// Records that `machine` completed `jobs` jobs in one coalesced batch.
    pub(crate) fn record_coalesce(&mut self, machine: usize, jobs: u64) {
        let slot = &mut self.per_machine[machine];
        slot.coalesced_batches += 1;
        slot.coalesced_jobs += jobs;
    }
}
