//! Quickstart: run the paper's two kernels out of core and inspect the
//! communication volumes.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use symla::prelude::*;

fn main() {
    // ----------------------------------------------------------------- SYRK
    // C += A·Aᵀ with A of size 96x48, under a fast memory of 36 elements
    // (the matrix is ~130x larger than the fast memory).
    let n = 96;
    let m = 48;
    let s = 36;
    let a = generate::random_matrix_seeded::<f64>(n, m, 1);
    let c_before = SymMatrix::<f64>::zeros(n);

    println!("=== SYRK: C += A·Aᵀ (N = {n}, M = {m}, S = {s}) ===\n");
    for algo in [
        SyrkAlgorithm::SquareBlocks,
        SyrkAlgorithm::TbsTiled,
        SyrkAlgorithm::Tbs,
    ] {
        let mut c = c_before.clone();
        let job = Job::Syrk {
            a: &a,
            c: &mut c,
            alpha: 1.0,
            algorithm: algo,
        };
        let report = run(job, &RunOptions::new(s))
            .expect("schedule failed")
            .report;
        // verify against the in-memory reference kernel
        let residual = kernels::syrk_residual(1.0, &a, 1.0, &c_before, &c);
        println!(
            "{:<22} loads {:>9}  stores {:>9}  peak {:>3}  loads/lower-bound {:>6.3}  residual {:.1e}",
            report.algorithm,
            report.measured_loads(),
            report.stats.volume.stores,
            report.stats.peak_resident,
            report.optimality_ratio(),
            residual
        );
    }
    println!(
        "\npaper lower bound: {:.0} loads (previous best known bound: {:.0})\n",
        symla_core::bounds::syrk_lower_bound(n as f64, m as f64, s as f64),
        symla_core::bounds::syrk_lower_bound_prior(n as f64, m as f64, s as f64),
    );

    // ------------------------------------------------------------- Cholesky
    // A larger instance relative to the fast memory, so that the asymptotic
    // advantage of LBC over the left-looking baseline is already visible.
    let n = 240;
    let s = 21;
    let spd = generate::random_spd_seeded::<f64>(n, 2);

    println!("=== Cholesky: A = L·Lᵀ (N = {n}, S = {s}) ===\n");
    for algo in [
        CholeskyAlgorithm::Bereux,
        CholeskyAlgorithm::LbcSquare,
        CholeskyAlgorithm::LbcTiled,
        CholeskyAlgorithm::Lbc,
    ] {
        let job = Job::Cholesky {
            a: &spd,
            algorithm: algo,
        };
        let outcome = run(job, &RunOptions::new(s)).expect("factorization failed");
        let (l, report) = (outcome.factor.unwrap(), outcome.report);
        let residual = kernels::cholesky_residual(&spd, &l);
        println!(
            "{:<22} loads {:>9}  stores {:>9}  peak {:>3}  loads/lower-bound {:>6.3}  residual {:.1e}",
            report.algorithm,
            report.measured_loads(),
            report.stats.volume.stores,
            report.stats.peak_resident,
            report.optimality_ratio(),
            residual
        );
    }
    println!(
        "\npaper lower bound: {:.0} loads (previous best known bound: {:.0})",
        symla_core::bounds::cholesky_lower_bound(n as f64, s as f64),
        symla_core::bounds::cholesky_lower_bound_prior(n as f64, s as f64),
    );
    println!("\nEvery run above was executed inside the capacity-enforced two-level");
    println!("machine model: no schedule ever held more than S elements in fast memory.");
}
