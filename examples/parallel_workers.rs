//! Real multi-worker SYRK on a shared slow memory: per-worker I/O of the
//! square-block and TBS schedules at P = 4 (the executable version of
//! experiment E12, with every transfer actually performed).
//!
//! ```text
//! cargo run --release --example parallel_workers
//! ```
//!
//! `RunOptions { workers: 4, .. }` replays the job's compiled schedule on
//! four capacity-checked workers through the engine's work-stealing queue.
//! The run checks each worker's *measured* I/O against the dry run of the
//! groups it processed (a mismatch is an error), and the example checks the
//! result and the summed volume against the serial run of the same job.

use symla::prelude::*;

fn main() {
    let n = 240;
    let m = 32;
    let s = 15; // per-worker fast memory (k = 5 for triangle blocks)
    let workers = 4;
    let a = generate::random_matrix_seeded::<f64>(n, m, 7);

    let mut reference = SymMatrix::<f64>::zeros(n);
    kernels::syrk_sym(1.0, &a, 1.0, &mut reference).expect("reference kernel");

    println!("Parallel SYRK, N = {n}, M = {m}, S/worker = {s}, P = {workers}");
    println!("(all transfers executed against one shared slow memory)");

    for algorithm in [SyrkAlgorithm::SquareBlocks, SyrkAlgorithm::Tbs] {
        let syrk = |c: &mut SymMatrix<f64>, workers| {
            let job = Job::Syrk {
                a: &a,
                c,
                alpha: 1.0,
                algorithm,
            };
            let opts = RunOptions {
                workers,
                ..RunOptions::new(s)
            };
            run(job, &opts).expect("run")
        };
        let mut serial_c = SymMatrix::<f64>::zeros(n);
        let serial = syrk(&mut serial_c, 1).report.stats;
        let mut c = SymMatrix::<f64>::zeros(n);
        let outcome = syrk(&mut c, workers);
        let report = outcome.parallel.expect("parallel report");
        assert!(c.approx_eq(&reference, 1e-9), "result must match reference");
        assert!(
            c == serial_c,
            "parallel result must equal the serial one bitwise"
        );
        assert_eq!(outcome.report.stats.volume, serial.volume);

        println!();
        println!(
            "schedule: {:<10} total loads {:>8}  max/worker {:>8}  imbalance {:.3}",
            algorithm.name(),
            report.total_loads(),
            report.max_loads(),
            report.imbalance()
        );
        println!(
            "  {:>6} | {:>10} {:>10} {:>7} | observed = analytic",
            "worker", "loads", "stores", "tasks"
        );
        for (w, io) in report.per_worker.iter().enumerate() {
            println!(
                "  {:>6} | {:>10} {:>10} {:>7} | checked by the run (dry run of its {} groups)",
                w, io.loads, io.stores, io.tasks, io.tasks
            );
        }
        println!(
            "  merged: {} loads / {} stores == the serial run's, peak resident {} <= {s}",
            outcome.report.stats.volume.loads,
            outcome.report.stats.volume.stores,
            outcome.report.stats.peak_resident
        );
    }

    println!();
    println!("Triangle blocks move ~1/sqrt(2) of the square-block input volume per worker —");
    println!("the paper's sequential headline, preserved under parallel distribution.");
}
