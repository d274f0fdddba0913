//! E3 — scaling of the full parallel permutation (§6 of the paper).
//!
//! The paper reports, for 480 million items on a 400 MHz Origin:
//! 137 s sequential, 210 s (3 procs), 107 s (6), 72.9 s (12), 60.9 s (24),
//! 53.2 s (48), i.e. a parallel overhead factor of 3–5 and steadily
//! increasing speed-up beyond 6 processors.  This binary reproduces the
//! *shape* of that table on the CGM simulator with a scaled-down item count.
//!
//! ```text
//! cargo run --release -p cgp-bench --bin exp_scaling [n] [backend]
//! ```

use cgp_bench::experiments::{scaling, scaling_shape_checks};
use cgp_bench::{workload, Table};
use cgp_core::MatrixBackend;

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args
        .next()
        .and_then(|a| a.parse().ok())
        .unwrap_or(16_000_000);
    let backend = match args.next().as_deref() {
        Some("optimal") => MatrixBackend::ParallelOptimal,
        Some("log") => MatrixBackend::ParallelLog,
        Some("recursive") => MatrixBackend::Recursive,
        _ => MatrixBackend::Sequential,
    };

    println!(
        "E3 — scaling of Algorithm 1, n = {n}, matrix backend = {}\n",
        backend.name()
    );

    let procs = workload::paper_processor_counts();
    let rows = scaling(n, &procs, backend, 42);
    let paper = workload::paper_scaling_seconds();

    let mut table = Table::new(vec![
        "p",
        "measured (ms)",
        "speedup",
        "overhead p*Tp/Ts",
        "max words/proc",
        "paper (s, 480M items)",
        "paper speedup",
    ]);
    let paper_seq = paper[0].1;
    for (row, &(pp, ps)) in rows.iter().zip(&paper) {
        assert_eq!(row.procs, pp);
        table.row(vec![
            format!("{}", row.procs),
            format!("{:.1}", row.elapsed.as_secs_f64() * 1e3),
            format!("{:.2}", row.speedup),
            format!("{:.2}", row.overhead_factor),
            format!("{}", row.max_comm_volume),
            format!("{ps:.1}"),
            format!("{:.2}", paper_seq / ps),
        ]);
    }
    println!("{table}");
    println!("shape checks against the paper:");
    for check in scaling_shape_checks(&rows, n) {
        let verdict = if check.pass { "PASS" } else { "FAIL" };
        println!("  {verdict} {} — {}", check.claim, check.measured);
    }
}
