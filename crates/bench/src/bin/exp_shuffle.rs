//! E12 — the local-shuffle engine crossover (Fisher–Yates vs bucketed
//! scatter vs `Auto`).
//!
//! Measures the three [`cgp_core::LocalShuffle`] engines on the same `u64`
//! payload — raw single-thread shuffles across a size grid and full
//! resident-session permutations at `p = 8` — and writes a
//! machine-readable snapshot to `BENCH_shuffle.json` so the engine
//! crossover can be tracked across PRs.
//!
//! ```text
//! cargo run --release -p cgp-bench --bin exp_shuffle [raw_n_csv] [session_n_csv] [p] [out.json]
//! cargo run --release -p cgp-bench --bin exp_shuffle -- --check BENCH_shuffle.json
//! ```
//!
//! Defaults: raw `n ∈ {1e6, 4e6, 16e6, 64e6}` (8 MB – 512 MB of `u64`,
//! straddling the [`cgp_core::AUTO_CROSSOVER_BYTES`] crossover), session
//! `n ∈ {1e6, 16e6}` at `p = 8`.  With `--check <committed.json>` the
//! experiment re-runs at the committed grid and exits 1 if any paired
//! speedup ratio regressed by more than the shared tolerance (see
//! `cgp_bench::snapshot`).
//!
//! The ratios are honest about cache geometry: on a machine whose
//! last-level cache holds the whole payload, the bucketed engine's extra
//! scatter pass is pure overhead (`bucketed_vs_fy < 1`) and `Auto`
//! resolves to Fisher–Yates (`auto_vs_fy ≈ 1`).  The wins live past the
//! crossover, where the scatter turns random DRAM accesses into streaming
//! ones.

use cgp_bench::experiments::{shuffle_crossover, ShuffleRow};
use cgp_bench::snapshot::{self, Snapshot, Value};
use cgp_bench::Table;
use cgp_core::{AUTO_CROSSOVER_BYTES, AUTO_MAX_ITEM_BYTES};

/// Distinct `n` values of the rows with the given scope, in first-seen
/// order — the committed grid is re-derived per scope because the raw and
/// session grids differ.
fn scoped_ns(snap: &Snapshot, scope: &str) -> Vec<usize> {
    let mut out: Vec<usize> = Vec::new();
    for row in &snap.rows {
        if snapshot::get(row, "scope") != Some(&Value::Str(scope.to_string())) {
            continue;
        }
        if let Some(n) = snapshot::get(row, "n").and_then(Value::as_num) {
            let n = n as usize;
            if !out.contains(&n) {
                out.push(n);
            }
        }
    }
    out
}

fn to_snapshot(rows: &[ShuffleRow]) -> Snapshot {
    let mut snap = Snapshot::new("shuffle")
        .meta("payload", "u64")
        .meta("auto_crossover_bytes", AUTO_CROSSOVER_BYTES)
        .meta("auto_max_item_bytes", AUTO_MAX_ITEM_BYTES);
    for r in rows {
        snap.rows.push(snapshot::row([
            ("scope", r.scope.into()),
            ("n", r.n.into()),
            ("procs", r.procs.into()),
            ("fisher_yates_ns", r.fisher_yates.as_nanos().into()),
            ("bucketed_ns", r.bucketed.as_nanos().into()),
            ("auto_ns", r.auto.as_nanos().into()),
            ("bucketed_vs_fy", r.bucketed_speedup().into()),
            ("auto_vs_fy", r.auto_speedup().into()),
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
    let (raw_ns, session_ns, p, out_path);
    if let Some(committed) = &committed {
        raw_ns = scoped_ns(committed, "raw");
        session_ns = scoped_ns(committed, "session");
        p = committed
            .distinct("procs")
            .into_iter()
            .find(|&p| p > 1)
            .unwrap_or(8);
        out_path = args
            .first()
            .cloned()
            .unwrap_or_else(|| "fresh_shuffle.json".into());
    } else {
        raw_ns = snapshot::parse_csv(
            args.first(),
            &[1_000_000, 4_000_000, 16_000_000, 64_000_000],
        );
        session_ns = snapshot::parse_csv(args.get(1), &[1_000_000, 16_000_000]);
        p = args
            .get(2)
            .map(|s| s.parse().expect("p must be a number"))
            .unwrap_or(8);
        out_path = args
            .get(3)
            .cloned()
            .unwrap_or_else(|| "BENCH_shuffle.json".into());
    }

    println!(
        "E12 — local-shuffle engine crossover, raw n ∈ {raw_ns:?}, \
         session n ∈ {session_ns:?} at p = {p}\n"
    );
    let rows = shuffle_crossover(&raw_ns, &session_ns, p, 42);

    let mut table = Table::new(vec![
        "scope",
        "p",
        "n",
        "fisher-yates (ms)",
        "bucketed (ms)",
        "auto (ms)",
        "bucketed vs fy",
        "auto vs fy",
    ]);
    for r in &rows {
        table.row(vec![
            r.scope.to_string(),
            r.procs.to_string(),
            r.n.to_string(),
            format!("{:.3}", r.fisher_yates.as_secs_f64() * 1e3),
            format!("{:.3}", r.bucketed.as_secs_f64() * 1e3),
            format!("{:.3}", r.auto.as_secs_f64() * 1e3),
            format!("{:.2}x", r.bucketed_speedup()),
            format!("{:.2}x", r.auto_speedup()),
        ]);
    }
    println!("{table}");

    let fresh = to_snapshot(&rows);
    fresh.write(&out_path);

    // `Auto` must never lose noticeably to Fisher–Yates (below the
    // crossover it *is* Fisher–Yates), and past the crossover the bucketed
    // engine should be winning.  Both statements are printed per row so
    // the crossover is visible in the CI log.
    for r in &rows {
        let bytes = r.n * std::mem::size_of::<u64>();
        let side = if bytes > AUTO_CROSSOVER_BYTES {
            "past crossover"
        } else {
            "below crossover"
        };
        println!(
            "{} p = {}, n = {} ({:>4} MB, {side}): bucketed {:.2}x, auto {:.2}x vs fisher-yates",
            r.scope,
            r.procs,
            r.n,
            bytes / (1 << 20),
            r.bucketed_speedup(),
            r.auto_speedup(),
        );
    }

    if let Some(committed) = &committed {
        let outcome = snapshot::check_ratios(
            committed,
            &fresh,
            &["scope", "n", "procs"],
            &["bucketed_vs_fy", "auto_vs_fy"],
        );
        std::process::exit(outcome.report("shuffle"));
    }
}
