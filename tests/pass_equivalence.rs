//! Acceptance invariants of the schedule-optimization pass layer, for every
//! one of the eight schedule builders × the stock pass pipelines:
//!
//! 1. **bitwise equivalence** — executing the optimized schedule leaves
//!    every slow-memory matrix bitwise identical to the seed execution;
//! 2. **symbolic equivalence** — the dataflow-hash effects of seed and
//!    optimized schedules agree (`passes::verify`);
//! 3. **monotone transfers** — the optimized dry-run never moves more
//!    elements or issues more transfer events than the seed, in either
//!    direction, and at least one paper algorithm (tiled TBS) shows a
//!    strictly positive measured saving;
//! 4. **mode agreement survives optimization** — executing an optimized
//!    schedule still reproduces its own dry run exactly, and schedules with
//!    independent groups still replay correctly through
//!    `Engine::execute_parallel`.

use symla::matrix::generate::{self, SeededRng};
use symla::prelude::*;
use symla_bench::corpus::{self, diagonally_dominant, Builder, Case, Operand};
use symla_core::engine::{Engine, Schedule, WorkerRun};
use symla_core::passes::{verify, PassPipeline};
use symla_matrix::generate::{random_lower_triangular, random_matrix_seeded, random_spd_seeded};
use symla_matrix::{Matrix, SymMatrix};
use symla_memory::{MachineConfig, MatrixId, SharedSlowMemory};

/// Executes `schedule` on the case's operands and returns the final
/// contents of every matrix.
fn execute(case: &Case, schedule: &Schedule<f64>) -> Vec<Operand> {
    let mut machine = OocMachine::new(MachineConfig::unlimited());
    corpus::register(&mut machine, &case.operands);
    Engine::execute(&mut machine, schedule).unwrap();
    let dry = Engine::dry_run(schedule, "main");
    assert_eq!(
        machine.stats(),
        &dry,
        "{}: execute must match dry run",
        case.name
    );
    corpus::take(&mut machine, &case.operands)
}

/// The eight schedule builders on seeded instances. The symmetric `C`s and
/// the TRSM factor come from one shared generator, in this order.
fn all_cases() -> Vec<Case> {
    let mut rng = SeededRng::seed_from_u64(0x0A55);
    let a: Matrix<f64> = random_matrix_seeded(30, 6, 71);
    let c: SymMatrix<f64> = generate::random_symmetric(30, &mut rng);
    let a40: Matrix<f64> = random_matrix_seeded(40, 6, 72);
    let c40: SymMatrix<f64> = generate::random_symmetric(40, &mut rng);
    let a20: Matrix<f64> = random_matrix_seeded(20, 5, 73);
    let c20: SymMatrix<f64> = generate::random_symmetric(20, &mut rng);
    let lfac = random_lower_triangular(8, &mut rng);
    vec![
        Case::syrk(Builder::Tbs, &a, &c, 1.0, 10),
        Case::syrk(Builder::TbsTiled, &a40, &c40, -1.0, 60),
        Case::syrk(Builder::OocSyrk, &a20, &c20, 1.0, 35),
        Case::cholesky(Builder::Lbc, &random_spd_seeded(36, 74), 48),
        Case::cholesky(Builder::OocChol, &random_spd_seeded(24, 75), 35),
        Case::trsm(&lfac, &random_matrix_seeded(9, 8, 76), 24),
        Case::gemm(
            &random_matrix_seeded(9, 7, 77),
            &random_matrix_seeded(7, 11, 78),
            &random_matrix_seeded(9, 11, 79),
            0.5,
            35,
        ),
        Case::lu(&diagonally_dominant(random_matrix_seeded(12, 12, 80)), 35),
    ]
}

fn assert_transfers_monotone(seed: &symla_memory::IoStats, opt: &symla_memory::IoStats, ctx: &str) {
    assert!(
        opt.volume.loads <= seed.volume.loads,
        "{ctx}: load volume regressed {} -> {}",
        seed.volume.loads,
        opt.volume.loads
    );
    assert!(
        opt.volume.stores <= seed.volume.stores,
        "{ctx}: store volume regressed"
    );
    assert!(
        opt.load_events <= seed.load_events,
        "{ctx}: load events regressed"
    );
    assert!(
        opt.store_events <= seed.store_events,
        "{ctx}: store events regressed"
    );
}

#[test]
fn all_eight_builders_survive_both_pipelines_bitwise() {
    for case in all_cases() {
        let seed_dry = Engine::dry_run(&case.schedule, "main");
        let seed_result = execute(&case, &case.schedule);
        let budget = seed_dry.peak_resident + seed_dry.peak_resident / 2;
        for pipeline in [
            PassPipeline::standard(),
            PassPipeline::locality(Some(budget)),
        ] {
            let ctx = format!("{} via {:?}", case.name, pipeline);
            let optimized = pipeline
                .manager::<f64>()
                .optimize(&case.schedule, "main")
                .unwrap_or_else(|e| panic!("{ctx}: {e}"));
            verify::check_equivalent(&case.schedule, &optimized.schedule)
                .unwrap_or_else(|e| panic!("{ctx}: {e}"));
            assert_transfers_monotone(&seed_dry, &optimized.final_stats, &ctx);
            assert!(
                optimized.final_stats.peak_resident <= seed_dry.peak_resident.max(budget),
                "{ctx}: peak exceeded budget"
            );
            // per-pass monotonicity, too: no pass may undo another's savings
            for stage in &optimized.stages {
                assert_transfers_monotone(&stage.before, &stage.after, &ctx);
            }
            let opt_result = execute(&case, &optimized.schedule);
            assert_eq!(
                seed_result, opt_result,
                "{ctx}: results must be bitwise equal"
            );
        }
    }
}

#[test]
fn tiled_tbs_and_lbc_square_show_strictly_positive_savings() {
    // the acceptance criterion: at least one paper algorithm saves
    // strictly positive measured transfers
    let cases = all_cases();
    let tiled = cases
        .iter()
        .find(|c| c.builder == Builder::TbsTiled)
        .unwrap();
    let opt = PassPipeline::standard()
        .manager::<f64>()
        .optimize(&tiled.schedule, "main")
        .unwrap();
    assert!(
        opt.events_saved() > 0,
        "tiled TBS must coalesce some loads: {:?}",
        opt.stages
            .iter()
            .map(|s| s.report.clone())
            .collect::<Vec<_>>()
    );
    assert_eq!(
        opt.final_stats.volume, opt.seed_stats.volume,
        "coalescing must preserve element volume"
    );

    // TRSM with slack: the locality pipeline eliminates re-loaded L
    // segments outright (volume, not just events)
    let trsm = cases
        .iter()
        .find(|c| c.builder == Builder::OocTrsm)
        .unwrap();
    let seed_peak = Engine::dry_run(&trsm.schedule, "main").peak_resident;
    let opt = PassPipeline::locality(Some(2 * seed_peak))
        .manager::<f64>()
        .optimize(&trsm.schedule, "main")
        .unwrap();
    assert!(
        opt.loads_saved() > 0,
        "TRSM with residency slack must save load volume: {:?}",
        opt.stages
            .iter()
            .map(|s| s.report.clone())
            .collect::<Vec<_>>()
    );
}

#[test]
fn api_clamps_pipeline_budget_to_machine_capacity() {
    // A residency budget far beyond the machine capacity must not produce a
    // schedule the capacity-enforced execution rejects: the API clamps the
    // budget to `s`.
    let (n, s) = (40, 60);
    let spd = random_spd_seeded::<f64>(n, 10);
    let job = Job::Cholesky {
        a: &spd,
        algorithm: CholeskyAlgorithm::Lbc,
    };
    let l_plain = run(job, &RunOptions::new(s)).unwrap().factor.unwrap();
    let job = Job::Cholesky {
        a: &spd,
        algorithm: CholeskyAlgorithm::Lbc,
    };
    let opts = RunOptions {
        pipeline: PassPipeline::locality(Some(100 * s)),
        ..RunOptions::new(s)
    };
    let run = run(job, &opts).unwrap();
    let l_opt = run.factor.clone().unwrap();
    assert!(
        l_opt.approx_eq(&l_plain, 0.0),
        "results must stay bitwise equal"
    );
    assert!(
        run.report.stats.peak_resident <= s,
        "optimized execution exceeded the requested fast memory"
    );
    assert!(run.events_saved() > 0, "the clamped pipeline still saves");
}

#[test]
fn optimized_independent_schedules_replay_in_parallel() {
    // OOC_SYRK: independent groups before and after optimization
    let (n, m, s) = (24, 4, 48);
    let a: Matrix<f64> = random_matrix_seeded(n, m, 90);
    let mut rng = SeededRng::seed_from_u64(0x9111);
    let c: SymMatrix<f64> = generate::random_symmetric(n, &mut rng);
    let case = Case::syrk(Builder::OocSyrk, &a, &c, 1.0, s);
    let optimized = PassPipeline::standard()
        .manager::<f64>()
        .optimize(&case.schedule, "main")
        .unwrap();
    assert!(
        optimized.events_saved() > 0,
        "adjacent-tile OOC_SYRK groups must coalesce"
    );

    // serial reference on the seed schedule
    let mut machine = OocMachine::new(MachineConfig::with_capacity(s));
    corpus::register(&mut machine, &case.operands);
    Engine::execute(&mut machine, &case.schedule).unwrap();
    let c_id = MatrixId::synthetic(1);
    let expected = machine.take_symmetric(c_id).unwrap();

    for workers in [1, 2, 4] {
        let mut shared = SharedSlowMemory::new();
        corpus::register(&mut shared, &case.operands);
        let runs = Engine::execute_parallel(
            &shared,
            &optimized.schedule,
            workers,
            MachineConfig::with_capacity(s),
            "main",
        )
        .unwrap();
        assert_eq!(
            WorkerRun::merged_stats(&runs),
            optimized.final_stats,
            "P={workers}: merged worker stats must equal the optimized dry run"
        );
        let got = shared.take_symmetric(c_id).unwrap();
        assert!(
            got.approx_eq(&expected, 0.0),
            "P={workers}: parallel optimized result differs from serial seed"
        );
    }
}
