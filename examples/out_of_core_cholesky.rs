//! Out-of-core Cholesky factorization with LBC, with the per-phase traffic
//! breakdown of Section 5.2.2 (the executable version of experiment E3).
//!
//! ```text
//! cargo run --release --example out_of_core_cholesky
//! ```

use symla::prelude::*;
use symla_core::bounds;
use symla_core::lbc::{PHASE_CHOL, PHASE_TRAILING, PHASE_TRSM};

fn main() {
    let n = 288;
    let s = 36; // k = 8 for the trailing TBS
    println!("LBC out-of-core Cholesky of a {n}x{n} SPD matrix with S = {s} elements\n");

    let a = generate::random_spd_seeded::<f64>(n, 7);

    // Run LBC through the machine directly so we can read the per-phase stats.
    let plan = LbcPlan::for_problem(n, s).expect("plan");
    let mut machine = OocMachine::<f64>::with_capacity(s);
    let id = machine.insert_symmetric(a.clone());
    lbc_execute(&mut machine, &SymWindowRef::full(id, n), &plan).expect("LBC failed");
    let stats = machine.stats().clone();
    let result = machine.take_symmetric(id).expect("result");
    let l = LowerTriangular::from_lower_fn(n, |i, j| result.get(i, j));

    println!(
        "numerical check: ||A - L·Lᵀ||_F / ||A||_F = {:.2e}",
        kernels::cholesky_residual(&a, &l)
    );
    println!(
        "fast-memory peak residency: {} / {} elements\n",
        stats.peak_resident, s
    );

    println!("per-phase traffic (loads + stores, elements):");
    for phase in [PHASE_CHOL, PHASE_TRSM, PHASE_TRAILING] {
        let vol = stats.phase(phase);
        println!(
            "  {:<14} loads {:>10}  stores {:>10}",
            phase, vol.loads, vol.stores
        );
    }
    println!(
        "  {:<14} loads {:>10}  stores {:>10}\n",
        "total", stats.volume.loads, stats.volume.stores
    );

    // Closed-form four-term analysis at the same parameters.
    let breakdown = bounds::LbcTermBreakdown::new(n as f64, s as f64, plan.block as f64);
    println!(
        "paper's four-term estimate at b = {} (elements):",
        plan.block
    );
    println!("  (1) OOC_CHOL      {:>12.0}", breakdown.chol_term);
    println!("  (2) OOC_TRSM      {:>12.0}", breakdown.trsm_term);
    println!("  (3) TBS updates   {:>12.0}", breakdown.tbs_term);
    println!("  (4) reload A11    {:>12.0}", breakdown.reload_term);
    println!("      total         {:>12.0}\n", breakdown.total());

    // Comparison against the baseline and the bounds.
    let job = Job::Cholesky {
        a: &a,
        algorithm: CholeskyAlgorithm::Bereux,
    };
    let bereux = run(job, &RunOptions::new(s)).expect("baseline").report;
    let lb = bounds::cholesky_lower_bound(n as f64, s as f64);
    println!("comparison (loads):");
    println!("  LBC                {:>12}", stats.volume.loads);
    println!("  OOC_CHOL (Béreux)  {:>12}", bereux.measured_loads());
    println!("  paper lower bound  {:>12.0}", lb);
    println!(
        "  prior lower bound  {:>12.0}",
        bounds::cholesky_lower_bound_prior(n as f64, s as f64)
    );
    println!(
        "\nLBC / lower bound = {:.3};  Béreux / lower bound = {:.3}",
        stats.volume.loads as f64 / lb,
        bereux.measured_loads() as f64 / lb
    );
}
