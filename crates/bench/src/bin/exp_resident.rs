//! E9 — per-call machine spawn vs the resident worker pool.
//!
//! Measures the steady-state cost of one permutation when every call spawns
//! a fresh machine (`p` OS threads + the `p²` channel fabric) against a
//! resident [`cgp_core::PermutationSession`] (spawned once, workers parked
//! between calls), and writes a machine-readable snapshot to
//! `BENCH_resident.json` so the amortization trajectory can be tracked
//! across PRs.  Two per-call baselines bracket the comparison: the
//! idiomatic `permute_in_place` (spawns *and* allocates per call — the path
//! a session replaces end to end) and the scratch-warm `permute_into`
//! (isolating the startup share alone).
//!
//! ```text
//! cargo run --release -p cgp-bench --bin exp_resident [n_csv] [p_csv] [out.json]
//! cargo run --release -p cgp-bench --bin exp_resident -- --check BENCH_resident.json
//! ```
//!
//! Defaults: `n ∈ {1e4, 1e5, 1e6}`, `p ∈ {2, 4, 8}`.  With `--check
//! <committed.json>` the experiment re-runs at the committed grid and
//! exits 1 if any paired `speedup`/`warm_speedup` ratio regressed by more
//! than the shared tolerance (see `cgp_bench::snapshot`).

use cgp_bench::experiments::{resident, resident_shape_check, ResidentRow};
use cgp_bench::snapshot::{self, Snapshot};
use cgp_bench::Table;

fn to_snapshot(rows: &[ResidentRow]) -> Snapshot {
    let mut snap = Snapshot::new("resident");
    for r in rows {
        snap.rows.push(snapshot::row([
            ("n", r.n.into()),
            ("procs", r.procs.into()),
            ("one_shot_ns", r.one_shot_elapsed.as_nanos().into()),
            ("spawn_warm_ns", r.spawn_warm_elapsed.as_nanos().into()),
            ("resident_ns", r.resident_elapsed.as_nanos().into()),
            ("speedup", r.speedup().into()),
            ("warm_speedup", r.warm_speedup().into()),
        ]));
    }
    snap
}

fn main() {
    let (check, args) = snapshot::split_check_arg(std::env::args().skip(1).collect());

    // Parse the committed snapshot once: grid source here, comparison
    // baseline below (never re-read after the fresh write), and the
    // default output moves aside so the committed file survives.
    let committed = check
        .as_deref()
        .map(|path| Snapshot::read(path).expect("committed snapshot"));
    let (ns, ps, out_path);
    if let Some(committed) = &committed {
        ns = committed.distinct("n");
        ps = committed.distinct("procs");
        out_path = args
            .first()
            .cloned()
            .unwrap_or_else(|| "fresh_resident.json".into());
    } else {
        ns = snapshot::parse_csv(args.first(), &[10_000, 100_000, 1_000_000]);
        ps = snapshot::parse_csv(args.get(1), &[2, 4, 8]);
        out_path = args
            .get(2)
            .cloned()
            .unwrap_or_else(|| "BENCH_resident.json".into());
    }

    println!("E9 — per-call spawn vs resident session, n ∈ {ns:?}, p ∈ {ps:?}\n");
    let rows = resident(&ns, &ps, 42);

    let mut table = Table::new(vec![
        "p",
        "n",
        "one-shot (ms)",
        "spawn+scratch (ms)",
        "resident (ms)",
        "speedup",
        "warm speedup",
    ]);
    for r in &rows {
        table.row(vec![
            r.procs.to_string(),
            r.n.to_string(),
            format!("{:.3}", r.one_shot_elapsed.as_secs_f64() * 1e3),
            format!("{:.3}", r.spawn_warm_elapsed.as_secs_f64() * 1e3),
            format!("{:.3}", r.resident_elapsed.as_secs_f64() * 1e3),
            format!("{:.2}x", r.speedup()),
            format!("{:.2}x", r.warm_speedup()),
        ]);
    }
    println!("{table}");

    let fresh = to_snapshot(&rows);
    fresh.write(&out_path);

    let check = resident_shape_check(&rows);
    let verdict = if check.pass { "PASS" } else { "FAIL" };
    println!(
        "shape check:\n  {verdict} {} — {}",
        check.claim, check.measured
    );

    if let Some(committed) = &committed {
        let outcome = snapshot::check_ratios(
            committed,
            &fresh,
            &["n", "procs"],
            &["speedup", "warm_speedup"],
        );
        std::process::exit(outcome.report("resident"));
    }
}
