//! Integration tests of the fused single-job pipeline: statistical
//! uniformity, matrix-phase panic recovery on the resident pool, the
//! zero-startup steady-state property, the golden vectors of the
//! seeded-output contract, and byte-identity of one-shot, session and
//! coalesced-batch runs over arbitrary shapes.

use std::sync::Arc;

use cgp_cgm::{diag, BlockDistribution, CgmConfig, CgmError, CgmMachine, ProcCtx, ResidentCgm};
use cgp_core::uniformity::{recommended_samples, test_uniformity};
use cgp_core::{
    permute_blocks, permute_vec, permute_vec_into_with, try_permute_batch_into_with, BatchOutcome,
    LocalShuffle, MatrixBackend, PermuteOptions, PermuteScratch, Permuter,
};
use cgp_matrix::sample_parallel_log_ctx;
use proptest::prelude::*;

/// Exhaustive chi-square uniformity of the fused path at `n = 4` for all
/// four matrix backends: every one of the `4! = 24` permutations must
/// appear with probability `1/24` (Theorem 1), now that matrix sampling
/// runs in-context on the same workers.
#[test]
fn fused_path_is_uniform_for_every_backend() {
    // p = 3 > n/2 forces small and empty blocks into the pipeline too.
    let p = 3;
    for backend in MatrixBackend::ALL {
        let report = test_uniformity(4, recommended_samples(4, 100), |rep| {
            Permuter::new(p)
                .seed(0xF05E_D000 + rep)
                .backend(backend)
                .sample_permutation(4)
        });
        assert!(
            report.is_uniform_at(0.001),
            "{backend:?} failed the exhaustive uniformity test: {report:?}"
        );
        assert!(
            report.covers_all_permutations(),
            "{backend:?} never produced some permutation: {report:?}"
        );
    }
}

/// A worker panicking **during the matrix phase** of a fused pool job must
/// poison the job (waking peers parked in word-plane receives) and leave
/// the pool recovered — exactly the contract exchange-phase panics have.
#[test]
fn matrix_phase_panic_poisons_and_recovers_the_pool() {
    let config = CgmConfig::new(4).with_seed(11);
    let mut pool: ResidentCgm<u64> = ResidentCgm::new(config);

    // Processor 0 is the head of every first-round range of Algorithm 5:
    // killing it strands its peers in blocked word-plane receives, so this
    // exercises the abort protocol on the matrix plane specifically.
    let source: Arc<Vec<u64>> = Arc::new(vec![25; 4]);
    let target = Arc::clone(&source);
    let err = pool
        .try_run(move |ctx: &mut ProcCtx<u64>| {
            if ctx.id() == 0 {
                panic!("matrix-phase boom");
            }
            sample_parallel_log_ctx(&mut ctx.matrix_ctx(), &source, &target)
        })
        .unwrap_err();
    match err {
        CgmError::ProcessorPanicked { proc, ref message } => {
            assert_eq!(proc, 0, "the root cause is blamed, not a woken peer");
            assert!(message.contains("matrix-phase boom"), "got: {message}");
        }
        other => panic!("unexpected error: {other}"),
    }

    // The pool is not poisoned: a full fused permutation (matrix phase
    // included) runs clean on it and matches the one-shot path exactly.
    let options = PermuteOptions::with_backend(MatrixBackend::ParallelLog);
    let machine = CgmMachine::new(config);
    let reference = permute_vec(&machine, (0..400u64).collect(), &options).0;
    let mut scratch = PermuteScratch::new();
    let mut data: Vec<u64> = (0..400).collect();
    let report = permute_vec_into_with(&mut pool, &mut data, &options, &mut scratch);
    assert_eq!(data, reference, "post-recovery permutation diverged");
    assert!(
        report.matrix_metrics.total_words_sent() > 0,
        "the recovered job's matrix phase was metered"
    );
}

/// Acceptance criterion of the fusion: at steady state, a fused
/// `ParallelOptimal` permutation on a session performs **zero thread
/// spawns and zero channel-fabric constructions** — the parallel matrix
/// backends no longer build a one-shot machine per call.
#[test]
fn steady_state_session_makes_zero_spawns_and_zero_fabrics() {
    let permuter = Permuter::new(4)
        .seed(99)
        .backend(MatrixBackend::ParallelOptimal);
    // The one-shot reference (which *does* spawn) and the session build
    // both happen before the baseline snapshot.
    let reference = permuter.permute((0..2_000u64).collect()).0;
    let mut session = permuter.session::<u64>();
    let (warmup, _) = session.permute((0..2_000u64).collect());
    assert_eq!(warmup, reference);

    let baseline = diag::startup_counters();
    for round in 0..5 {
        let (out, report) = session.permute((0..2_000u64).collect());
        assert_eq!(out, reference, "round {round} diverged");
        // The in-context matrix phase really ran on the pool's workers …
        assert!(report.matrix_metrics.total_words_sent() > 0);
        assert!(report.matrix_rounds() > 0);
        // … and per-job metering still isolates each call.
        assert_eq!(report.max_exchange_volume(), 2 * 2_000 / 4);
    }
    let after = diag::startup_counters();
    assert_eq!(
        after.thread_spawns, baseline.thread_spawns,
        "steady-state fused permutations must spawn no threads"
    );
    assert_eq!(
        after.fabric_builds, baseline.fabric_builds,
        "steady-state fused permutations must build no channel fabrics"
    );

    // Control: the same permutation one-shot pays one fabric and p spawns,
    // which is exactly what the counters measure.
    let _ = permuter.permute((0..2_000u64).collect());
    let control = diag::startup_counters();
    assert_eq!(control.fabric_builds, after.fabric_builds + 1);
    assert_eq!(control.thread_spawns, after.thread_spawns + 4);
}

/// The fused report's phase attribution: every backend gets a matrix-phase
/// meter (zero volume only where nothing can travel, i.e. `p = 1`), and
/// `total_elapsed` is measured wall-clock — at least each phase (the phase
/// figures are maxima over workers, so not necessarily their sum), and the
/// local passes are part of the data phase.
#[test]
fn per_phase_metrics_and_total_elapsed_are_coherent() {
    for backend in MatrixBackend::ALL {
        let permuter = Permuter::new(4).seed(5).backend(backend);
        let (_, report) = permuter.permute((0..10_000u64).collect());
        assert_eq!(report.matrix_metrics.procs(), 4, "{backend:?}");
        assert!(
            report.matrix_metrics.total_words_sent() > 0,
            "{backend:?}: the fused matrix phase moves its rows over the word plane"
        );
        assert!(
            report.exchange_metrics.total_words_sent() >= 10_000,
            "{backend:?}: the data plane carries the payload"
        );
        assert!(report.total_elapsed() >= report.matrix_elapsed);
        assert!(report.total_elapsed() >= report.exchange_elapsed);
        assert!(report.exchange_elapsed >= report.shuffle_elapsed);

        // p = 1: a (possibly zero) meter still exists — no more `None`.
        let (_, report) = Permuter::new(1)
            .seed(5)
            .backend(backend)
            .permute((0..100u64).collect());
        assert_eq!(report.matrix_metrics.procs(), 1, "{backend:?}");
        assert_eq!(report.matrix_metrics.total_messages(), 0, "{backend:?}");
    }
}

/// Golden pin of version 2 of the seeded-output contract (see the
/// `cgp_core` crate docs): the same seed must reproduce these vectors
/// (seed 42, n = 32, p = 4) exactly, one-shot and via a session — one per
/// matrix backend on the Fisher–Yates engine, plus the bucketed engine
/// with buckets of four, whose 8-item blocks take the windowed partition
/// and scatter paths.  A change that moves a byte of them is a contract
/// bump and belongs in `CHANGES.md`.
#[test]
fn seeded_output_contract_v2_golden_permutations() {
    let fisher_yates = LocalShuffle::FisherYates;
    let golden: [(MatrixBackend, LocalShuffle, [u64; 32]); 5] = [
        (
            MatrixBackend::Sequential,
            fisher_yates,
            [
                5, 25, 9, 24, 12, 10, 14, 3, 4, 8, 16, 28, 20, 15, 21, 23, 22, 18, 29, 26, 30, 31,
                19, 6, 7, 13, 11, 17, 27, 2, 0, 1,
            ],
        ),
        (
            MatrixBackend::Recursive,
            fisher_yates,
            [
                0, 30, 7, 26, 2, 19, 31, 1, 5, 9, 10, 25, 29, 12, 22, 14, 16, 23, 21, 24, 20, 28,
                8, 15, 13, 27, 17, 18, 4, 6, 11, 3,
            ],
        ),
        (
            MatrixBackend::ParallelLog,
            fisher_yates,
            [
                7, 21, 2, 20, 1, 10, 29, 23, 19, 0, 16, 26, 8, 30, 15, 31, 14, 22, 9, 25, 28, 24,
                5, 12, 13, 27, 17, 18, 4, 6, 11, 3,
            ],
        ),
        (
            MatrixBackend::ParallelOptimal,
            fisher_yates,
            [
                7, 1, 19, 25, 22, 10, 15, 29, 23, 2, 16, 24, 8, 20, 0, 21, 11, 13, 18, 30, 31, 26,
                3, 5, 14, 27, 28, 17, 6, 12, 9, 4,
            ],
        ),
        (
            MatrixBackend::Sequential,
            LocalShuffle::Bucketed { bucket_items: 4 },
            [
                14, 9, 8, 25, 3, 28, 1, 13, 6, 11, 23, 16, 15, 22, 20, 26, 19, 17, 21, 2, 30, 31,
                29, 27, 0, 7, 10, 24, 12, 18, 4, 5,
            ],
        ),
    ];
    for (backend, engine, expected) in golden {
        let permuter = Permuter::new(4)
            .seed(42)
            .backend(backend)
            .local_shuffle(engine);
        assert_eq!(
            permuter.sample_permutation(32),
            expected,
            "{backend:?} × {engine:?} one-shot diverged from the v2 golden vector"
        );
        let mut session = permuter.session::<u64>();
        assert_eq!(
            session.sample_permutation(32),
            expected,
            "{backend:?} × {engine:?} session diverged from the v2 golden vector"
        );
    }
    // `Auto` below its crossover resolves to Fisher–Yates and emits the
    // same bytes: the default builder reproduces the first vector.
    assert_eq!(
        Permuter::new(4).seed(42).sample_permutation(32),
        golden[0].2
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The paths that emit a permutation agree byte for byte for arbitrary
    /// shapes — `p` from 1 to 6, `n` from 0 to 300 (so uneven and empty
    /// blocks), default or prescribed (possibly empty) target blocks, every
    /// matrix backend and both engines: one-shot (`permute_blocks`), a
    /// session, and a coalesced batch on a resident pool.  Every output is
    /// a permutation of the input whose blocks have the prescribed sizes.
    #[test]
    fn one_shot_session_and_coalesced_batch_agree_on_arbitrary_shapes(
        procs in 1usize..=6,
        n in 0usize..=300,
        seed in any::<u64>(),
        backend_index in 0usize..4,
        bucketed in any::<bool>(),
        bucket_items in 1usize..16,
        prescribe in any::<bool>(),
        cuts in proptest::collection::vec(0usize..=300, 5),
    ) {
        let backend = MatrixBackend::ALL[backend_index];
        let engine = if bucketed {
            LocalShuffle::Bucketed { bucket_items }
        } else {
            LocalShuffle::FisherYates
        };
        let mut options = PermuteOptions::with_backend(backend).local_shuffle(engine);
        let targets = if prescribe {
            // Cut points clamped into 0..=n give `procs` arbitrary target
            // sizes summing to n, empty blocks included.
            let mut points: Vec<u64> = cuts[..procs - 1]
                .iter()
                .map(|&c| c.min(n) as u64)
                .collect();
            points.sort_unstable();
            points.insert(0, 0);
            points.push(n as u64);
            let sizes: Vec<u64> = points.windows(2).map(|w| w[1] - w[0]).collect();
            options = options.target_sizes(sizes.clone());
            sizes
        } else {
            BlockDistribution::even(n as u64, procs).sizes().to_vec()
        };
        let identity: Vec<u64> = (0..n as u64).collect();
        let config = CgmConfig::new(procs).with_seed(seed);

        let blocks = BlockDistribution::even(n as u64, procs).split_vec(identity.clone());
        let (out_blocks, _) = permute_blocks(&CgmMachine::new(config), blocks, &options);
        let sizes: Vec<u64> = out_blocks.iter().map(|b| b.len() as u64).collect();
        prop_assert_eq!(&sizes, &targets);
        let one_shot: Vec<u64> = out_blocks.into_iter().flatten().collect();
        let mut sorted = one_shot.clone();
        sorted.sort_unstable();
        prop_assert_eq!(&sorted, &identity);

        // Session: a real one when nothing is prescribed (a session's
        // options carry no prescription); a prescribed job runs through the
        // pool entry a session runs on.
        let mut pool: ResidentCgm<u64> = ResidentCgm::new(config);
        let mut via_session = identity.clone();
        if prescribe {
            let mut scratch = PermuteScratch::new();
            permute_vec_into_with(&mut pool, &mut via_session, &options, &mut scratch);
        } else {
            Permuter::new(procs)
                .seed(seed)
                .backend(backend)
                .local_shuffle(engine)
                .session::<u64>()
                .permute_into(&mut via_session);
        }
        prop_assert_eq!(&via_session, &one_shot);

        // The job rides in the middle of a heterogeneous batch, on a pool
        // that has already run other work: history may not matter.
        let jobs = vec![
            ((0..17).collect(), PermuteOptions::default()),
            (identity.clone(), options.clone()),
            (Vec::new(), PermuteOptions::with_backend(backend)),
        ];
        let mut outcomes = try_permute_batch_into_with(&mut pool, jobs, &mut Vec::new())
            .expect("the batch runs");
        match outcomes.swap_remove(1) {
            BatchOutcome::Done { data, .. } => prop_assert_eq!(&data, &one_shot),
            other => panic!("the batched job did not complete: {other:?}"),
        }
    }
}
