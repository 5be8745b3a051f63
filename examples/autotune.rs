//! Cost-model-driven autotuning: search the whole knob space — tile size ×
//! pass pipeline × prefetch lookahead — scoring every candidate *without
//! executing it*, then replay the winner and check the model told the truth.
//!
//! ```text
//! cargo run --release --example autotune
//! ```
//!
//! Dry runs give exact [`IoStats`] and the timing model prices them in
//! deterministic nanoseconds, so the [`Tuner`] can afford an exhaustive
//! sweep: each candidate is built, optimized, prefetch-planned and priced —
//! but never run. A `run` with a tuning space then executes the winner
//! exactly as scored; the measured stats must equal the dry-run
//! stats field for field, and the result is bit-identical to the plain
//! API's (the default spaces only sweep tile overrides that re-chunk, never
//! reorder, accumulation chains).

use symla::prelude::*;

fn main() {
    let model = MachineModel::nvme();

    // --- SYRK: sweep the default space for each algorithm. -------------
    // n is large enough (>= k² for the planner's k = 13 at S = 96) that
    // element-level TBS uses its genuine triangle-block grid instead of
    // falling back to the square baseline.
    let (n, m, s) = (182usize, 12usize, 96usize);
    let a = generate::random_matrix_seeded::<f64>(n, m, 21);
    println!("Autotuned out-of-core SYRK, N = {n}, M = {m}, S = {s} (NVMe model)");
    println!();
    println!(
        "{:<14} {:>9} {:>6} {:<18} {:>2} {:>13} {:>8}",
        "algorithm", "searched", "tile", "pipeline", "L", "modelled ns", "gap"
    );
    for algorithm in [
        SyrkAlgorithm::Tbs,
        SyrkAlgorithm::TbsTiled,
        SyrkAlgorithm::SquareBlocks,
    ] {
        let mut c = SymMatrix::<f64>::zeros(n);
        let job = Job::Syrk {
            a: &a,
            c: &mut c,
            alpha: 1.0,
            algorithm,
        };
        let opts = RunOptions {
            model: Some(model),
            tuning: Some(job.tuning_space(s)),
            ..RunOptions::new(s)
        };
        let outcome = run(job, &opts).expect("autotune");
        let tuning = outcome.tuning.expect("a tuned run reports its search");
        let winner = tuning.winner();

        // The replay measured exactly what the tuner scored by dry run.
        assert_eq!(outcome.report.stats, winner.stats);

        println!(
            "{:<14} {:>9} {:>6} {:<18} {:>2} {:>13.1} {:>7.3}x",
            format!("{algorithm:?}"),
            format!("{}+{}", tuning.evaluated(), tuning.skipped),
            match winner.config.tile {
                Some(t) => t.to_string(),
                None => "auto".to_string(),
            },
            describe(&winner.config.pipeline),
            winner.config.lookahead,
            winner.modelled_ns,
            winner.gap_to_bound.unwrap_or(f64::NAN),
        );
    }

    // --- Cholesky: the tuned factor is still bit-identical. ------------
    let (cn, cs) = (48usize, 80usize);
    let spd = generate::random_spd_seeded::<f64>(cn, 22);
    let lbc = || Job::Cholesky {
        a: &spd,
        algorithm: CholeskyAlgorithm::Lbc,
    };
    let l_plain = run(lbc(), &RunOptions::new(cs)).unwrap().factor;
    let opts = RunOptions {
        model: Some(model),
        tuning: Some(lbc().tuning_space(cs)),
        ..RunOptions::new(cs)
    };
    let outcome = run(lbc(), &opts).unwrap();
    assert!(
        outcome.factor == l_plain,
        "tuned factor must be bit-identical"
    );
    let tuning = outcome.tuning.expect("a tuned run reports its search");
    let winner = tuning.winner();
    println!();
    println!(
        "LBC Cholesky N = {cn}, S = {cs}: {} candidates scored without executing,",
        tuning.evaluated()
    );
    println!(
        "winner {} at L = {} — {:.1} ns modelled, {:.3}x the paper's I/O bound,",
        describe(&winner.config.pipeline),
        winner.config.lookahead,
        winner.modelled_ns,
        winner.gap_to_bound.unwrap_or(f64::NAN),
    );
    println!("factor bit-identical to the plain API's.");
}

/// Short human name for the pipelines the default spaces contain.
fn describe(p: &PassPipeline) -> String {
    if *p == PassPipeline::none() {
        "none".to_string()
    } else if *p == PassPipeline::standard() {
        "standard".to_string()
    } else if *p == PassPipeline::locality(p.budget) {
        match p.budget {
            Some(b) => format!("locality({b})"),
            None => "locality".to_string(),
        }
    } else {
        "custom".to_string()
    }
}
