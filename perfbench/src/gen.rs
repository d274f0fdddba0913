//! The benchmark's own random source, its floor shuffle, and the seeded
//! job streams of the serving workloads.
//!
//! Nothing in this module calls the program under test: the floor must stay
//! put when the program changes, so that a faster `cgp-rng` raises
//! `floor_ratio` instead of moving its denominator.

/// SplitMix64 (Steele, Lea and Flood): a small, fast 64-bit generator.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, bound)` by Lemire's multiply-shift with rejection,
    /// so the floor shuffle is exactly uniform.  `bound` must be non-zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        let mut m = u128::from(self.next_u64()) * u128::from(bound);
        if (m as u64) < bound {
            let threshold = bound.wrapping_neg() % bound;
            while (m as u64) < threshold {
                m = u128::from(self.next_u64()) * u128::from(bound);
            }
        }
        (m >> 64) as u64
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// An independent 64-bit value for `stream` under the workload `seed`.
/// The engine seed and every generator of a run are derived this way, so
/// the run's `--seed` fixes all of its inputs.
pub fn derive(seed: u64, stream: u64) -> u64 {
    let mut g = SplitMix64::new(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
    g.next_u64();
    g.next_u64()
}

/// Stream ids for [`derive`].
pub const STREAM_ENGINE: u64 = 1;
pub const STREAM_JOBS: u64 = 2;
pub const STREAM_FLOOR: u64 = 3;
pub const STREAM_RNG: u64 = 4;

/// The floor: a plain Durstenfeld Fisher–Yates with this module's own
/// generator.  Deliberately not `cgp_core::fisher_yates_shuffle`.
pub fn floor_shuffle(rng: &mut SplitMix64, data: &mut [u64]) {
    for i in (1..data.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        data.swap(i, j);
    }
}

/// Clears `buf` and fills it with `0..n`, the input of every job.
pub fn fill_iota(buf: &mut Vec<u64>, n: usize) {
    buf.clear();
    buf.extend(0..n as u64);
}

/// One generated request of a serving workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Job {
    /// Items `0..size` make the job's input.
    pub size: usize,
    /// Index of the tenant handle (or connection) that submits it.
    pub tenant: usize,
    /// Whether the job is in the seeded sample compared against
    /// `Permuter::permute` of the same input and engine seed.
    pub sampled: bool,
}

/// Which serving traffic mix a [`JobStream`] draws.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// `service_mix`: 80 % 64 items, 18 % 1024, 2 % 65 536, over
    /// [`SERVICE_TENANTS`] tenants.
    Service,
    /// `wire_mix`: log-uniform sizes over `2^12..=2^18`, one connection.
    Wire,
}

pub const SERVICE_TENANTS: usize = 8;
pub const SERVICE_MAX_ITEMS: usize = 65_536;
pub const WIRE_MIN_ITEMS: usize = 1 << 12;
pub const WIRE_MAX_ITEMS: usize = 1 << 18;
/// One job in this many is in the reference sample.
const SAMPLE_EVERY: u64 = 32;

/// The endless, seed-determined job sequence of a serving workload.
#[derive(Debug, Clone)]
pub struct JobStream {
    rng: SplitMix64,
    mix: Mix,
}

impl JobStream {
    pub fn new(mix: Mix, seed: u64) -> Self {
        JobStream {
            rng: SplitMix64::new(derive(seed, STREAM_JOBS)),
            mix,
        }
    }

    /// The first jobs of the stream up to `max_jobs`, stopping early once
    /// they hold `max_items` items (at least one job).
    pub fn prefix(mix: Mix, seed: u64, max_jobs: usize, max_items: usize) -> Vec<Job> {
        let mut items = 0;
        JobStream::new(mix, seed)
            .take(max_jobs)
            .take_while(|job| {
                let first = items == 0;
                items += job.size;
                first || items <= max_items
            })
            .collect()
    }
}

impl Iterator for JobStream {
    type Item = Job;

    fn next(&mut self) -> Option<Job> {
        let (size, tenant) = match self.mix {
            Mix::Service => {
                let class = self.rng.below(100);
                let size = match class {
                    0..=79 => 64,
                    80..=97 => 1024,
                    _ => SERVICE_MAX_ITEMS,
                };
                (size, self.rng.below(SERVICE_TENANTS as u64) as usize)
            }
            Mix::Wire => {
                let lo = (WIRE_MIN_ITEMS as f64).log2();
                let hi = (WIRE_MAX_ITEMS as f64).log2();
                let size = (lo + (hi - lo) * self.rng.unit()).exp2() as usize;
                (size.clamp(WIRE_MIN_ITEMS, WIRE_MAX_ITEMS), 0)
            }
        };
        let sampled = self.rng.below(SAMPLE_EVERY) == 0;
        Some(Job {
            size,
            tenant,
            sampled,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_same_job_and_tenant_sequence() {
        for mix in [Mix::Service, Mix::Wire] {
            let a: Vec<Job> = JobStream::new(mix, 7).take(5_000).collect();
            let b: Vec<Job> = JobStream::new(mix, 7).take(5_000).collect();
            assert_eq!(a, b);
            let c: Vec<Job> = JobStream::new(mix, 8).take(5_000).collect();
            assert_ne!(a, c, "another seed must give another sequence");
        }
    }

    #[test]
    fn service_mix_has_the_stated_shares() {
        let jobs: Vec<Job> = JobStream::new(Mix::Service, 1).take(100_000).collect();
        let share = |s: usize| jobs.iter().filter(|j| j.size == s).count() as f64 / 1e5;
        assert!((share(64) - 0.80).abs() < 0.01);
        assert!((share(1024) - 0.18).abs() < 0.01);
        assert!((share(65_536) - 0.02).abs() < 0.005);
        let mut tenants = [0usize; SERVICE_TENANTS];
        jobs.iter().for_each(|j| tenants[j.tenant] += 1);
        assert!(tenants.iter().all(|&t| t > 11_000));
    }

    #[test]
    fn wire_sizes_stay_in_range() {
        let jobs: Vec<Job> = JobStream::new(Mix::Wire, 3).take(20_000).collect();
        assert!(jobs
            .iter()
            .all(|j| (WIRE_MIN_ITEMS..=WIRE_MAX_ITEMS).contains(&j.size) && j.tenant == 0));
        let below_median = jobs.iter().filter(|j| j.size < 1 << 15).count();
        assert!((9_000..11_000).contains(&below_median), "{below_median}");
    }

    #[test]
    fn prefix_respects_both_limits() {
        let jobs = JobStream::prefix(Mix::Wire, 5, 1_000, 1 << 20);
        assert!(jobs.iter().map(|j| j.size).sum::<usize>() <= 1 << 20);
        assert_eq!(JobStream::prefix(Mix::Service, 5, 10, usize::MAX).len(), 10);
        assert_eq!(JobStream::prefix(Mix::Wire, 5, 10, 1).len(), 1);
    }

    #[test]
    fn floor_shuffle_is_a_uniform_looking_permutation() {
        let mut counts = [[0u32; 4]; 4];
        let mut rng = SplitMix64::new(11);
        for _ in 0..40_000 {
            let mut v = [0u64, 1, 2, 3];
            floor_shuffle(&mut rng, &mut v);
            for (pos, &item) in v.iter().enumerate() {
                counts[pos][item as usize] += 1;
            }
        }
        for row in counts {
            for c in row {
                assert!((9_400..10_600).contains(&c), "{c}");
            }
        }
    }

    #[test]
    fn below_stays_below() {
        let mut rng = SplitMix64::new(2);
        for bound in [1u64, 2, 3, 7, 1 << 40, u64::MAX] {
            for _ in 0..1_000 {
                assert!(rng.below(bound) < bound);
            }
        }
    }
}
