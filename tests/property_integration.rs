//! Property-style integration tests: randomized (but deterministically
//! seeded) problem sizes and memory capacities, exercising the full stack.
//!
//! The workspace is dependency-free, so instead of a property-testing crate
//! the cases are drawn from the workspace's own seeded RNG: every run checks
//! the same instances, and a failing instance is fully identified by the
//! printed `(n, m, s, seed)` tuple.

use symla::matrix::generate::SeededRng;
use symla::prelude::*;

#[test]
fn syrk_schedules_are_correct_for_random_sizes() {
    let mut rng = SeededRng::seed_from_u64(0xA11CE);
    for case in 0..24 {
        let n = rng.gen_range(4usize..48);
        let m = rng.gen_range(1usize..24);
        let s = rng.gen_range(10usize..120);
        let seed = rng.gen_range(0usize..1000) as u64;

        let a = generate::random_matrix_seeded::<f64>(n, m, seed);
        let c0 = generate::random_symmetric::<f64>(n, &mut generate::seeded_rng(seed + 1));
        let mut expected = c0.clone();
        kernels::syrk_sym(-1.0, &a, 1.0, &mut expected).unwrap();

        for algo in [
            SyrkAlgorithm::SquareBlocks,
            SyrkAlgorithm::TbsTiled,
            SyrkAlgorithm::Tbs,
        ] {
            let mut c = c0.clone();
            let job = Job::Syrk {
                a: &a,
                c: &mut c,
                alpha: -1.0,
                algorithm: algo,
            };
            let report = run(job, &RunOptions::new(s)).unwrap().report;
            let ctx = format!("case {case}: {} n={n} m={m} s={s} seed={seed}", algo.name());
            assert!(c.approx_eq(&expected, 1e-9), "{ctx}: result");
            assert!(report.prediction_matches(), "{ctx}: prediction");
            assert!(report.stats.peak_resident <= s, "{ctx}: capacity");
            assert!(
                report.measured_loads() as f64 >= report.lower_bound - 1e-9,
                "{ctx}: lower bound"
            );
        }
    }
}

#[test]
fn cholesky_schedules_are_correct_for_random_sizes() {
    let mut rng = SeededRng::seed_from_u64(0xB0B);
    for case in 0..24 {
        let n = rng.gen_range(4usize..40);
        let s = rng.gen_range(12usize..100);
        let seed = rng.gen_range(0usize..1000) as u64;

        let a = generate::random_spd_seeded::<f64>(n, seed);
        for algo in [
            CholeskyAlgorithm::Bereux,
            CholeskyAlgorithm::Lbc,
            CholeskyAlgorithm::LbcTiled,
            CholeskyAlgorithm::LbcSquare,
        ] {
            let job = Job::Cholesky {
                a: &a,
                algorithm: algo,
            };
            let outcome = run(job, &RunOptions::new(s)).unwrap();
            let (l, report) = (outcome.factor.unwrap(), outcome.report);
            let ctx = format!("case {case}: {} n={n} s={s} seed={seed}", algo.name());
            assert!(kernels::cholesky_residual(&a, &l) < 1e-8, "{ctx}");
            assert!(report.prediction_matches(), "{ctx}");
            assert!(report.stats.peak_resident <= s, "{ctx}");
        }
    }
}

#[test]
fn tbs_partition_is_exact_for_random_parameters() {
    let mut rng = SeededRng::seed_from_u64(0xC0FFEE);
    for _ in 0..40 {
        let k = rng.gen_range(2usize..6);
        let limit = rng.gen_range(5usize..30);
        if let Some(c) = symla::sched::indexing::largest_coprime_below(limit, k) {
            if c + 1 >= k {
                let partition = TbsPartition::build(c, k).unwrap();
                assert!(
                    partition.verify_exact_cover().is_ok(),
                    "partition (c={c}, k={k}) is not an exact cover"
                );
            }
        }
    }
}
