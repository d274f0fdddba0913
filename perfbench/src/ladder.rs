//! The layer ladder on one workload's input: the floor, `cgp-rng`'s
//! Fisher–Yates, the bucketed local shuffle, the one-shot `Permuter` and
//! the resident session, all over the same job sizes in the same run.

use std::time::Instant;

use cgp_cgm::diag;
use cgp_core::{bucketed_shuffle, default_bucket_items, fisher_yates_shuffle, Permuter};
use cgp_rng::Pcg64;

use crate::gen::{derive, fill_iota, floor_shuffle, SplitMix64, STREAM_FLOOR, STREAM_RNG};
use crate::stats::median;
use crate::verify::Verifier;
use crate::Outcome;

/// Items the bucketed-shuffle probe shuffles per timing, at least.
const BUCKETED_ITEMS_PER_REP: usize = 1 << 22;
/// Calls behind `session.fixed_cost_us`.
const FIXED_COST_CALLS: usize = 2_000;

pub struct Ladder {
    pub floor_s: f64,
    pub rng_s: f64,
    pub oneshot_s: f64,
    pub session_s: f64,
    pub bucketed_ns_per_item: f64,
    pub fixed_cost_us: f64,
    pub jobs: usize,
    pub items: usize,
    pub oneshot_jobs: u64,
    pub session: Startup,
}

/// Runs every rung `reps` times over `sizes` (one job per entry), taking
/// medians.  The one-shot jobs run before the session opens, so their
/// memory and the session's are never held at once; each session output
/// must match the one-shot output of the same job (by fingerprint), and
/// both are verified.
pub fn measure(
    permuter: &Permuter,
    seed: u64,
    sizes: &[usize],
    reps: usize,
    v: &mut Verifier,
) -> Ladder {
    let max = sizes.iter().copied().max().unwrap_or(1);
    let last = sizes.last().copied().unwrap_or(0);
    let items: usize = sizes.iter().sum();
    let mut buf: Vec<u64> = Vec::with_capacity(max);
    let (mut floor_t, mut rng_t, mut oneshot_t, mut session_t) = (vec![], vec![], vec![], vec![]);
    let mut startup = Startup::default();
    let mut fingerprints = Vec::with_capacity(sizes.len());
    for rep in 0..reps as u64 {
        // The floor and cgp-rng's Fisher–Yates reshuffle one buffer in
        // place: the work per job does not depend on its current order.
        fill_iota(&mut buf, max);
        let mut rng = SplitMix64::new(derive(seed, STREAM_FLOOR) ^ rep);
        let t = Instant::now();
        for &s in sizes {
            floor_shuffle(&mut rng, &mut buf[..s]);
        }
        floor_t.push(t.elapsed().as_secs_f64());
        v.check_reshuffled("floor", &buf, last);

        fill_iota(&mut buf, max);
        let mut rng = Pcg64::seed_from_u64(derive(seed, STREAM_RNG) ^ rep);
        let t = Instant::now();
        for &s in sizes {
            fisher_yates_shuffle(&mut rng, &mut buf[..s]);
        }
        rng_t.push(t.elapsed().as_secs_f64());
        v.check_reshuffled("cgp-rng Fisher-Yates", &buf, last);

        let mut oneshot = 0.0;
        for &s in sizes {
            let input: Vec<u64> = (0..s as u64).collect();
            let t = Instant::now();
            let (out, _) = permuter.permute(input);
            oneshot += t.elapsed().as_secs_f64();
            if rep == 0 {
                v.check("one-shot", s, &out);
                fingerprints.push(fingerprint(&out));
            }
        }
        oneshot_t.push(oneshot);
    }

    let mut session = permuter.session::<u64>();
    fill_iota(&mut buf, max);
    session.permute_into(&mut buf);
    for _ in 0..reps {
        let mut sess = 0.0;
        for (&s, &expected) in sizes.iter().zip(&fingerprints) {
            fill_iota(&mut buf, s);
            let c = diag::startup_counters();
            let t = Instant::now();
            session.permute_into(&mut buf);
            sess += t.elapsed().as_secs_f64();
            startup.add(c, 1);
            v.check("session", s, &buf);
            if fingerprint(&buf) != expected {
                v.fail(format!(
                    "session output of {s} items differs from the one-shot output"
                ));
            }
        }
        session_t.push(sess);
    }

    let block = (max / permuter.procs()).max(1);
    let mut rng = Pcg64::seed_from_u64(derive(seed, STREAM_RNG));
    let inner = BUCKETED_ITEMS_PER_REP.div_ceil(block);
    let mut bucketed = vec![];
    for _ in 0..reps.max(3) {
        fill_iota(&mut buf, block);
        let t = Instant::now();
        for _ in 0..inner {
            bucketed_shuffle(&mut rng, &mut buf, default_bucket_items::<u64>());
        }
        bucketed.push(t.elapsed().as_secs_f64() * 1e9 / (block * inner) as f64);
        v.check("bucketed_shuffle", block, &buf);
    }

    let p = permuter.procs();
    let mut fixed = Vec::with_capacity(FIXED_COST_CALLS);
    for _ in 0..FIXED_COST_CALLS {
        fill_iota(&mut buf, p);
        let c = diag::startup_counters();
        let t = Instant::now();
        session.permute_into(&mut buf);
        fixed.push(t.elapsed().as_secs_f64() * 1e6);
        startup.add(c, 1);
    }
    session.shutdown();

    Ladder {
        floor_s: median(&floor_t),
        rng_s: median(&rng_t),
        oneshot_s: median(&oneshot_t),
        session_s: median(&session_t),
        bucketed_ns_per_item: median(&bucketed),
        fixed_cost_us: median(&fixed),
        jobs: sizes.len(),
        items,
        oneshot_jobs: (reps * sizes.len()) as u64,
        session: startup,
    }
}

/// A position-sensitive 64-bit hash of a permutation, so a large one-shot
/// output need not be kept for comparison.
fn fingerprint(items: &[u64]) -> u64 {
    items.iter().fold(0x243F_6A88_85A3_08D3, |h: u64, &x| {
        (h.rotate_left(23) ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    })
}

/// Thread spawns and fabric builds the calling thread made during a set
/// of calls, read from `cgp_cgm::diag` around each call.
#[derive(Debug, Clone, Copy, Default)]
pub struct Startup {
    pub jobs: u64,
    pub thread_spawns: u64,
    pub fabric_builds: u64,
}

impl Startup {
    /// Counts `jobs` jobs run since the counters read `before`.
    pub fn add(&mut self, before: diag::StartupCounters, jobs: u64) {
        let now = diag::startup_counters();
        self.jobs += jobs;
        self.thread_spawns += now.thread_spawns - before.thread_spawns;
        self.fabric_builds += now.fabric_builds - before.fabric_builds;
    }
}

impl Ladder {
    /// Jobs the ladder submitted to the program, the session's untimed
    /// cold job included.
    pub fn attempted(&self) -> u64 {
        self.oneshot_jobs + self.session.jobs + 1
    }

    /// Adds the ladder's per-layer metrics.  The `cgm.*` counts cover the
    /// session calls, the only ones made on the calling thread, whose
    /// `cgp_cgm::diag` counters are thread-local.
    pub fn report(&self, out: &mut Outcome) {
        let per_item = |s: f64| s * 1e9 / self.items as f64;
        out.set("floor.ns_per_item", per_item(self.floor_s));
        out.set("rng.fy_ns_per_item", per_item(self.rng_s));
        out.set(
            "cache_aware.bucketed_ns_per_item",
            self.bucketed_ns_per_item,
        );
        out.set("oneshot.vs_floor", self.floor_s / self.oneshot_s);
        out.set("session.vs_floor", self.floor_s / self.session_s);
        out.set(
            "session.delta_over_oneshot",
            (self.session_s - self.oneshot_s) * 1e3 / self.jobs as f64,
        );
        out.set("session.fixed_cost_us", self.fixed_cost_us);
        let jobs = self.session.jobs.max(1) as f64;
        out.set(
            "cgm.thread_spawns_per_job",
            self.session.thread_spawns as f64 / jobs,
        );
        out.set(
            "cgm.fabric_builds_per_job",
            self.session.fabric_builds as f64 / jobs,
        );
        out.note(format!(
            "ladder: {} jobs, {} items, floor {:.6} s, cgp-rng FY {:.6} s, one-shot {:.6} s, session {:.6} s (medians)",
            self.jobs, self.items, self.floor_s, self.rng_s, self.oneshot_s, self.session_s
        ));
    }
}
