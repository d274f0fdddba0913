//! E11 — aggregate throughput of the multi-tenant permutation service.
//!
//! Measures a population of concurrent clients served by a
//! `PermutationService` fleet (per-machine deques with work stealing and
//! small-job coalescing behind fair-share admission) against the same
//! population **serializing on a single shared session** — the do-nothing
//! alternative a service replaces — and writes a machine-readable snapshot
//! to `BENCH_service.json` so the multi-tenant trajectory can be tracked
//! across PRs.
//!
//! Three scenarios share the snapshot (the `"scenario"` id column):
//! `uniform` sweeps the full `(clients, machines)` grid with an even job
//! split; at the highest concurrency, `skewed` (one tenant submits half of
//! all jobs — the fair-admission stress) and `tiny` (64-item jobs — the
//! coalescing showcase) sweep the fleet sizes.
//!
//! ```text
//! cargo run --release -p cgp-bench --bin exp_service \
//!     [n] [procs] [clients_csv] [machines_csv] [jobs_total] [out.json]
//! cargo run --release -p cgp-bench --bin exp_service -- --check BENCH_service.json
//! ```
//!
//! Defaults: `n = 1024`, `procs = 4`, clients ∈ {1, 4, 16, 64}, machines ∈
//! {1, 2, 4}, 192 jobs per cell.  With `--check <committed.json>` the
//! experiment re-runs at the committed grid and exits 1 if any paired
//! `speedup_vs_serialized` ratio regressed by more than the shared
//! tolerance (see `cgp_bench::snapshot`).

use cgp_bench::experiments::{service, service_scenarios, ServiceRow};
use cgp_bench::snapshot::{self, Snapshot, Value};
use cgp_bench::Table;

fn parse_num(arg: Option<&String>, default: usize) -> usize {
    arg.and_then(|a| a.parse().ok()).unwrap_or(default)
}

/// Distinct values of `key` among the committed **uniform** rows — the
/// scenario whose grid parameterizes a re-run (the skewed and tiny grids
/// are derived from it in code).  Pre-scenario snapshots (schema 1, no
/// `"scenario"` column) count as uniform.
fn distinct_uniform(committed: &Snapshot, key: &str) -> Vec<usize> {
    let mut out: Vec<usize> = Vec::new();
    for row in &committed.rows {
        let uniform = match snapshot::get(row, "scenario") {
            Some(Value::Str(s)) => s == "uniform",
            _ => true,
        };
        if !uniform {
            continue;
        }
        if let Some(x) = snapshot::get(row, key).and_then(Value::as_num) {
            let x = x as usize;
            if !out.contains(&x) {
                out.push(x);
            }
        }
    }
    out
}

fn to_snapshot(rows: &[ServiceRow], jobs_total: usize) -> Snapshot {
    let mut snap = Snapshot::new("service").meta("jobs_total", jobs_total);
    for r in rows {
        snap.rows.push(snapshot::row([
            ("scenario", r.scenario.into()),
            ("clients", r.clients.into()),
            ("machines", r.machines.into()),
            ("n", r.n.into()),
            ("procs", r.procs.into()),
            ("jobs", r.jobs.into()),
            ("service_ns", r.service_elapsed.as_nanos().into()),
            ("serialized_ns", r.serialized_elapsed.as_nanos().into()),
            (
                "throughput_jobs_per_s",
                Value::Num((r.throughput() * 10.0).round() / 10.0),
            ),
            (
                "speedup_vs_serialized",
                Value::Num(r.speedup_vs_serialized()),
            ),
        ]));
    }
    snap
}

fn main() {
    let (check, args) = snapshot::split_check_arg(std::env::args().skip(1).collect());

    // In --check mode the committed snapshot is parsed once: it supplies
    // the measurement grid here and the comparison baseline below (never
    // re-read, so the fresh write cannot contaminate the comparison), and
    // the default output moves aside so the committed file is not
    // overwritten.
    let committed = check
        .as_deref()
        .map(|path| Snapshot::read(path).expect("committed snapshot"));
    let (n, procs, clients_grid, machines_grid, jobs_total, out_path);
    if let Some(committed) = &committed {
        n = distinct_uniform(committed, "n")
            .first()
            .copied()
            .unwrap_or(1024);
        procs = distinct_uniform(committed, "procs")
            .first()
            .copied()
            .unwrap_or(4);
        clients_grid = distinct_uniform(committed, "clients");
        machines_grid = distinct_uniform(committed, "machines");
        jobs_total = committed
            .meta
            .iter()
            .find(|(k, _)| k == "jobs_total")
            .and_then(|(_, v)| v.as_num())
            .unwrap_or(192.0) as usize;
        out_path = args
            .first()
            .cloned()
            .unwrap_or_else(|| "fresh_service.json".into());
    } else {
        n = parse_num(args.first(), 1024);
        procs = parse_num(args.get(1), 4);
        clients_grid = snapshot::parse_csv(args.get(2), &[1, 4, 16, 64]);
        machines_grid = snapshot::parse_csv(args.get(3), &[1, 2, 4]);
        jobs_total = parse_num(args.get(4), 192);
        out_path = args
            .get(5)
            .cloned()
            .unwrap_or_else(|| "BENCH_service.json".into());
    }

    println!(
        "E11 — multi-tenant service vs serialized session, n = {n}, p = {procs}, \
         clients ∈ {clients_grid:?}, machines ∈ {machines_grid:?}, {jobs_total} jobs/cell\n"
    );
    let mut rows = service(n, procs, &clients_grid, &machines_grid, jobs_total, 42);
    // The scheduler-stress scenarios run at the highest concurrency of the
    // grid (where admission fairness and coalescing actually bind).
    let top_clients = clients_grid.iter().copied().max().unwrap_or(1);
    rows.extend(service_scenarios(
        n,
        procs,
        top_clients,
        &machines_grid,
        jobs_total,
        42,
    ));

    let mut table = Table::new(vec![
        "scenario",
        "clients",
        "machines",
        "n",
        "jobs",
        "service (ms)",
        "serialized (ms)",
        "service jobs/s",
        "vs serialized",
    ]);
    for r in &rows {
        table.row(vec![
            r.scenario.to_string(),
            r.clients.to_string(),
            r.machines.to_string(),
            r.n.to_string(),
            r.jobs.to_string(),
            format!("{:.2}", r.service_elapsed.as_secs_f64() * 1e3),
            format!("{:.2}", r.serialized_elapsed.as_secs_f64() * 1e3),
            format!("{:.0}", r.throughput()),
            format!("{:.2}x", r.speedup_vs_serialized()),
        ]);
    }
    println!("{table}");

    let fresh = to_snapshot(&rows, jobs_total);
    fresh.write(&out_path);

    // The acceptance cell: at the highest concurrency, aggregate throughput
    // must scale with the fleet size.
    let at = |machines: usize| {
        rows.iter()
            .find(|r| r.scenario == "uniform" && r.clients == top_clients && r.machines == machines)
    };
    let lo = machines_grid.iter().copied().min().unwrap_or(1);
    let hi = machines_grid.iter().copied().max().unwrap_or(1);
    if let (Some(small), Some(large)) = (at(lo), at(hi)) {
        let scaling = large.throughput() / small.throughput().max(1e-12);
        println!(
            "at {top_clients} clients: machines={hi} serves {:.0} jobs/s vs machines={lo} \
             at {:.0} jobs/s ({scaling:.2}x){}",
            large.throughput(),
            small.throughput(),
            if scaling > 1.0 {
                ""
            } else {
                "  <-- fleet scaling NOT observed, investigate"
            }
        );
    }

    if let Some(committed) = &committed {
        let outcome = snapshot::check_ratios(
            committed,
            &fresh,
            &["scenario", "clients", "machines", "n", "procs"],
            &["speedup_vs_serialized"],
        );
        std::process::exit(outcome.report("service"));
    }
}
