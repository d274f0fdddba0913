//! Integration tests of the [`LocalShuffle`] engine choice through the
//! full Algorithm 1 pipeline: exhaustive chi-square uniformity per
//! engine × matrix backend (one-shot, on a resident pool, and as a
//! coalesced batch, over uneven, prescribed and empty blocks), Lehmer-rank
//! spot checks, the `Auto`-equals-Fisher–Yates determinism invariant below
//! the crossover, and engine validity over arbitrary shapes.

use cgp_cgm::{CgmConfig, CgmMachine, ResidentCgm};
use cgp_core::uniformity::{recommended_samples, test_uniformity};
use cgp_core::{
    permute_vec, try_permute_batch_into_with, try_permute_vec_into_with, BatchOutcome,
    LocalShuffle, MatrixBackend, PermuteOptions, PermuteScratch, Permuter, AUTO_CROSSOVER_BYTES,
};
use cgp_stats::chi_square::chi_square_uniform;
use cgp_stats::{factorial, permutation_rank};
use proptest::prelude::*;

/// The non-default engines under test.  `Bucketed { bucket_items: 1 }`
/// forces the scatter phase even at `n = 4` (one item per bucket), so the
/// exhaustive tests exercise the multi-bucket path rather than the
/// single-bucket Fisher–Yates fallback; `fused.rs` already covers the
/// `FisherYates` default.
const ENGINES: [LocalShuffle; 2] = [
    LocalShuffle::Bucketed { bucket_items: 1 },
    LocalShuffle::Auto,
];

/// Exhaustive chi-square uniformity at `n = 4` for the bucketed and
/// `Auto` engines across all four matrix backends: every one of the
/// `4! = 24` permutations must appear with probability `1/24` (Theorem 1
/// holds for every local-shuffle engine, since Propositions 1–2 make the
/// bucketed scatter exactly uniform too).
#[test]
fn bucketed_and_auto_pipelines_are_uniform_for_every_backend() {
    // p = 3 > n/2 forces small and empty blocks into the pipeline too.
    let p = 3;
    for engine in ENGINES {
        for backend in MatrixBackend::ALL {
            let report = test_uniformity(4, recommended_samples(4, 100), |rep| {
                Permuter::new(p)
                    .seed(0xB0C4_E700 + rep)
                    .backend(backend)
                    .local_shuffle(engine)
                    .sample_permutation(4)
            });
            assert!(
                report.is_uniform_at(0.001),
                "{engine:?} × {backend:?} failed the exhaustive uniformity test: {report:?}"
            );
            assert!(
                report.covers_all_permutations(),
                "{engine:?} × {backend:?} never produced some permutation: {report:?}"
            );
        }
    }
}

/// Exhaustive chi-square at `n = 4/5` of every path that emits a
/// permutation — one-shot, a resident pool (the session path) and a
/// coalesced batch (the entry the service's coalescer runs) — for both
/// engines × all four matrix backends, on `n` items over `procs`
/// processors with the target sizes optionally prescribed.
///
/// Every seed must give the same permutation on all three paths (the
/// seeded-output contract), so one chi-square per configuration covers
/// all three: its permutations must hit all `n!` outcomes with
/// probability `1/n!`.  `bucket_items` is chosen per shape so that the
/// bucketed engine takes the windowed scatter rather than its
/// single-window Fisher–Yates fallback.
fn assert_every_path_uniform(
    procs: usize,
    n: usize,
    targets: Option<&[u64]>,
    bucket_items: usize,
    per_bucket: u64,
) {
    let mut configs = Vec::new();
    for engine in [
        LocalShuffle::FisherYates,
        LocalShuffle::Bucketed { bucket_items },
    ] {
        for backend in MatrixBackend::ALL {
            let mut options = PermuteOptions::with_backend(backend).local_shuffle(engine);
            if let Some(targets) = targets {
                options = options.target_sizes(targets.to_vec());
            }
            configs.push(options);
        }
    }
    let identity: Vec<u64> = (0..n as u64).collect();
    let mut counts = vec![vec![0u64; factorial(n) as usize]; configs.len()];
    for rep in 0..factorial(n) * per_bucket {
        let config = CgmConfig::new(procs).with_seed(0xC0A1_E5CE + rep);
        let machine = CgmMachine::new(config);
        let mut pool: ResidentCgm<u64> = ResidentCgm::new(config);
        let mut scratch = PermuteScratch::new();
        let mut solo = Vec::with_capacity(configs.len());
        for options in &configs {
            let one_shot = permute_vec(&machine, identity.clone(), options).0;
            let mut on_pool = identity.clone();
            try_permute_vec_into_with(&mut pool, &mut on_pool, options, &mut scratch)
                .expect("the pool job runs");
            assert_eq!(on_pool, one_shot, "pool vs one-shot, {options:?}");
            solo.push(one_shot);
        }
        let jobs = configs
            .iter()
            .map(|options| (identity.clone(), options.clone()))
            .collect();
        let outcomes =
            try_permute_batch_into_with(&mut pool, jobs, &mut Vec::new()).expect("the batch runs");
        for (k, outcome) in outcomes.into_iter().enumerate() {
            let BatchOutcome::Done { data, .. } = outcome else {
                panic!("batch job {k} did not complete: {outcome:?}");
            };
            assert_eq!(data, solo[k], "batch vs solo, {:?}", configs[k]);
            let as_u32: Vec<u32> = data.iter().map(|&x| x as u32).collect();
            counts[k][permutation_rank(&as_u32) as usize] += 1;
        }
    }
    for (options, counts) in configs.iter().zip(&counts) {
        let outcome = chi_square_uniform(counts);
        assert!(
            outcome.is_consistent_at(0.001),
            "p = {procs}, n = {n}, {options:?}: {outcome:?}"
        );
        assert!(
            counts.iter().all(|&c| c > 0),
            "p = {procs}, n = {n}, {options:?} missed a permutation"
        );
    }
}

/// Uneven blocks: `n = 4` over `p = 3` splits as (2, 1, 1); one-item
/// buckets make even these tiny blocks scatter.
#[test]
fn every_path_is_uniform_with_uneven_blocks() {
    assert_every_path_uniform(3, 4, None, 1, 50);
}

/// Uneven blocks (3, 2) into the prescribed targets (1, 4).  Buckets of
/// two scatter the 3-item block over two windows and shuffle the 4-item
/// target as two two-item buckets, so the bucket shuffles matter.
#[test]
fn every_path_is_uniform_with_prescribed_target_sizes() {
    assert_every_path_uniform(2, 5, Some(&[1, 4]), 2, 20);
}

/// More processors than items: `n = 4` over `p = 6` leaves two blocks, and
/// two target blocks, empty.
#[test]
fn every_path_is_uniform_with_empty_blocks() {
    assert_every_path_uniform(6, 4, None, 1, 50);
}

/// Lehmer spot checks at `n = 6`: every rank an engine produces is a
/// valid index into the `6!` rank space, independent seeds hit both the
/// low and the high quarter of that space, and they essentially never
/// collide.
#[test]
fn lehmer_ranks_spread_over_the_rank_space() {
    let space = factorial(6);
    for engine in ENGINES {
        let mut ranks: Vec<u64> = (0..200u64)
            .map(|rep| {
                let perm = Permuter::new(3)
                    .seed(0x1E44_E700 + rep)
                    .local_shuffle(engine)
                    .sample_permutation(6);
                let as_u32: Vec<u32> = perm.iter().map(|&x| x as u32).collect();
                let rank = permutation_rank(&as_u32);
                assert!(rank < space, "{engine:?} produced rank {rank} >= 6!");
                rank
            })
            .collect();
        assert!(
            ranks.iter().any(|&r| r < space / 4),
            "{engine:?} never hit the low quarter of the rank space"
        );
        assert!(
            ranks.iter().any(|&r| r >= 3 * space / 4),
            "{engine:?} never hit the high quarter of the rank space"
        );
        ranks.sort_unstable();
        ranks.dedup();
        assert!(
            ranks.len() > 150,
            "{engine:?}: only {} distinct ranks out of 200 seeds",
            ranks.len()
        );
    }
}

/// Below [`AUTO_CROSSOVER_BYTES`], `Auto` resolves to Fisher–Yates, so its
/// output is *byte-identical* to an explicit `FisherYates` run with the
/// same seed — the invariant that keeps every pre-existing seeded result
/// stable under the `Auto` default.
#[test]
fn auto_matches_fisher_yates_exactly_below_the_crossover() {
    let n = 10_000usize;
    assert!(n * std::mem::size_of::<u64>() <= AUTO_CROSSOVER_BYTES);
    let data: Vec<u64> = (0..n as u64).collect();
    let fy = Permuter::new(4)
        .seed(7)
        .local_shuffle(LocalShuffle::FisherYates)
        .permute(data.clone())
        .0;
    let auto = Permuter::new(4)
        .seed(7)
        .local_shuffle(LocalShuffle::Auto)
        .permute(data)
        .0;
    assert_eq!(
        fy, auto,
        "Auto diverged from FisherYates below the crossover"
    );
}

/// Sessions agree with the one-shot path for every engine — the engine
/// choice must not depend on the substrate the job runs on.
#[test]
fn sessions_agree_with_one_shot_per_engine() {
    for engine in ENGINES {
        let permuter = Permuter::new(4).seed(99).local_shuffle(engine);
        let reference = permuter.permute((0..3_000u64).collect()).0;
        let mut session = permuter.session::<u64>();
        for round in 0..2 {
            let (via_session, _) = session.permute((0..3_000u64).collect());
            assert_eq!(
                via_session, reference,
                "{engine:?} session diverged from one-shot in round {round}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For the same seed and arbitrary shapes — including `p = 1`, empty
    /// inputs, `n < p` and tiny bucket sizes — the Fisher–Yates and
    /// bucketed engines both emit valid permutations of the input over
    /// every matrix backend.  They need *not* agree byte-for-byte (they
    /// consume the random stream differently, see the [`LocalShuffle`]
    /// docs); the chi-square gates above pin both to the same uniform law.
    #[test]
    fn both_engines_permute_validly_for_arbitrary_shapes(
        procs in 1usize..=6,
        n in 0usize..200,
        seed in any::<u64>(),
        backend_index in 0usize..4,
        bucket_items in 1usize..8,
    ) {
        let backend = MatrixBackend::ALL[backend_index];
        let identity: Vec<u64> = (0..n as u64).collect();
        for engine in [LocalShuffle::FisherYates, LocalShuffle::Bucketed { bucket_items }] {
            let permuted = Permuter::new(procs)
                .seed(seed)
                .backend(backend)
                .local_shuffle(engine)
                .permute(identity.clone())
                .0;
            let mut sorted = permuted;
            sorted.sort_unstable();
            prop_assert_eq!(
                &sorted, &identity,
                "{:?} on p = {}, n = {}, backend {:?} is not a permutation",
                engine, procs, n, backend
            );
        }
    }
}
