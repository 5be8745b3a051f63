//! SYRK I/O comparison (the executable version of experiment E2): measured
//! communication volume of the square-block baseline, tiled TBS and
//! element-level TBS against the paper's lower bounds, as the matrix grows.
//!
//! ```text
//! cargo run --release --example syrk_io_comparison
//! ```

use symla::prelude::*;
use symla_core::bounds;

fn main() {
    let s = 36; // fast memory (k = 8 for element TBS)
    let m_ratio = 4; // M = N / 4
    println!("SYRK I/O volume vs matrix size (S = {s} elements, M = N/{m_ratio})");
    println!(
        "{:>6} {:>6} | {:>12} {:>12} {:>12} | {:>12} {:>12} | {:>9} {:>9}",
        "N", "M", "OOC_SYRK", "TBS(tiled)", "TBS", "LB (paper)", "LB (prior)", "tbs/lb", "ooc/lb"
    );

    for &n in &[64_usize, 128, 192, 256, 384, 512] {
        let m = (n / m_ratio).max(1);
        let a = generate::random_matrix_seeded::<f64>(n, m, n as u64);
        let zero = SymMatrix::<f64>::zeros(n);

        let mut loads = Vec::new();
        for algo in [
            SyrkAlgorithm::SquareBlocks,
            SyrkAlgorithm::TbsTiled,
            SyrkAlgorithm::Tbs,
        ] {
            let mut c = zero.clone();
            let job = Job::Syrk {
                a: &a,
                c: &mut c,
                alpha: 1.0,
                algorithm: algo,
            };
            let report = run(job, &RunOptions::new(s)).expect("run failed").report;
            assert!(report.prediction_matches());
            loads.push(report.measured_loads());
        }

        let lb = bounds::syrk_lower_bound(n as f64, m as f64, s as f64);
        let lb_prior = bounds::syrk_lower_bound_prior(n as f64, m as f64, s as f64);
        println!(
            "{:>6} {:>6} | {:>12} {:>12} {:>12} | {:>12.0} {:>12.0} | {:>9.3} {:>9.3}",
            n,
            m,
            loads[0],
            loads[1],
            loads[2],
            lb,
            lb_prior,
            loads[2] as f64 / lb,
            loads[0] as f64 / lb,
        );
    }

    println!();
    println!("The TBS columns approach the paper lower bound (ratio -> 1 + lower-order terms),");
    println!("while the square-block baseline stays a factor ~sqrt(2) above it.");
    println!("(Element-level TBS needs N >~ 2S before its triangle phase engages; below that");
    println!("it falls back to square blocks, which is why the first rows coincide.)");
}
