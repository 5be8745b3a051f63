//! Wall-clock model equivalence: the static price of a schedule must be the
//! time a latency-modelled execution actually measures — bitwise.
//!
//! For seeded instances of all eight schedule builders this asserts, at
//! `lookahead ∈ {0, 1, 2}` under both machine-model presets:
//!
//! 1. **model = measurement** — [`modelled_time`] on the schedule equals the
//!    [`LatencyMachine`]'s measured [`TimeStats`] with `f64::to_bits`
//!    equality on every component (io / compute / hidden) and the same
//!    window count;
//! 2. **bitwise results** — wrapping the machine in a `LatencyMachine`
//!    changes no numerical output: slow memory after the timed run is
//!    bitwise-identical to the plain (`lookahead = 0`) run;
//! 3. **monotone wall-clock** — the modelled total never increases with the
//!    lookahead (prefetch may only hide I/O, never add any);
//! 4. **positive speedup** — tiled TBS and OOC-GEMM (the update-style
//!    kernels, whose groups leave slack) hide strictly positive time
//!    already at `lookahead = 1`;
//! 5. **timed API** — `run` with a model set reports
//!    `WallClock::consistent()` and reproduces the untimed results.

use symla::matrix::generate;
use symla::prelude::*;
use symla_bench::corpus::{self, diagonally_dominant, Builder, Case, Operand};

fn sweep_cases() -> Vec<Case> {
    let (n, m, s) = (36, 6, 60);
    let a = generate::random_matrix_seeded::<f64>(n, m, 900);
    let c0 = generate::random_symmetric::<f64>(n, &mut generate::seeded_rng(901));
    let spd = generate::random_spd_seeded::<f64>(30, 905);
    let lu = diagonally_dominant(generate::random_matrix_seeded(18, 18, 906));
    let lfac = generate::random_lower_triangular(10, &mut generate::seeded_rng(907));
    vec![
        Case::syrk(Builder::Tbs, &a, &c0, -1.0, s),
        Case::syrk(Builder::TbsTiled, &a, &c0, 1.0, s),
        Case::syrk(Builder::OocSyrk, &a, &c0, 1.5, s),
        Case::gemm(
            &generate::random_matrix_seeded(20, 6, 902),
            &generate::random_matrix_seeded(6, 10, 903),
            &generate::random_matrix_seeded(20, 10, 904),
            2.0,
            40,
        ),
        Case::cholesky(Builder::OocChol, &spd, 40),
        Case::cholesky(Builder::Lbc, &spd, 40),
        Case::lu(&lu, 40),
        Case::trsm(&lfac, &generate::random_matrix_seeded(12, 10, 908), 40),
    ]
}

/// Whether the acceptance gate demands strictly positive hidden time at
/// `lookahead = 1`: the update-style kernels, tiled TBS and OOC-GEMM.
fn must_hide(case: &Case) -> bool {
    matches!(case.builder, Builder::TbsTiled | Builder::OocGemm)
}

/// Executes the case at one lookahead inside a [`LatencyMachine`], returning
/// the final operands and the measured time.
fn run_timed(case: &Case, model: MachineModel, lookahead: usize) -> (Vec<Operand>, TimeStats) {
    let config = EngineConfig::with_lookahead(lookahead);
    let mut machine = LatencyMachine::new(
        OocMachine::<f64>::new(MachineConfig::with_capacity(case.capacity)),
        model,
    );
    corpus::register(machine.inner_mut(), &case.operands);
    Engine::execute_with(&mut machine, &case.schedule, &config).unwrap();
    let time = machine.time();
    let mut inner = machine.into_inner();
    (corpus::take(&mut inner, &case.operands), time)
}

fn assert_time_eq(measured: &TimeStats, modelled: &TimeStats, ctx: &str) {
    assert_eq!(
        measured.io_ns.to_bits(),
        modelled.io_ns.to_bits(),
        "{ctx}: io_ns {} vs {}",
        measured.io_ns,
        modelled.io_ns
    );
    assert_eq!(
        measured.compute_ns.to_bits(),
        modelled.compute_ns.to_bits(),
        "{ctx}: compute_ns {} vs {}",
        measured.compute_ns,
        modelled.compute_ns
    );
    assert_eq!(
        measured.hidden_ns.to_bits(),
        modelled.hidden_ns.to_bits(),
        "{ctx}: hidden_ns {} vs {}",
        measured.hidden_ns,
        modelled.hidden_ns
    );
    assert_eq!(measured.groups, modelled.groups, "{ctx}: window count");
}

#[test]
fn model_equals_measurement_for_every_builder() {
    for model in [MachineModel::dram(), MachineModel::nvme()] {
        for case in sweep_cases() {
            let (baseline, plain) = run_timed(&case, model, 0);
            assert_eq!(plain.hidden_ns, 0.0, "{}: L=0 cannot overlap", case.name);
            let mut prev_total = plain.total_ns();
            for lookahead in [0usize, 1, 2] {
                let ctx = format!("{} L={lookahead}", case.name);
                let (out, measured) = run_timed(&case, model, lookahead);

                // 1. static price == measured model time, bitwise.
                let modelled =
                    modelled_time(&case.schedule, &model, lookahead, Some(case.capacity));
                assert_time_eq(&measured, &modelled, &ctx);

                // 2. the timing wrapper changes no numbers.
                assert!(out == baseline, "{ctx}: result drifted");

                // 3. more lookahead never costs modelled time.
                assert!(
                    measured.total_ns() <= prev_total,
                    "{ctx}: total {} grew past {}",
                    measured.total_ns(),
                    prev_total
                );
                prev_total = measured.total_ns();

                // 4. the update kernels hide real time at lookahead >= 1.
                if lookahead >= 1 && must_hide(&case) {
                    assert!(
                        measured.hidden_ns > 0.0,
                        "{ctx}: expected strictly positive hidden time"
                    );
                    assert!(measured.speedup() > 1.0, "{ctx}: expected modelled speedup");
                }
            }
        }
    }
}

#[test]
fn timed_api_is_consistent_and_reproduces_untimed_results() {
    let model = MachineModel::nvme();
    let pipeline = PassPipeline::default();
    let a = generate::random_matrix_seeded::<f64>(32, 6, 910);
    let c0 = generate::random_symmetric::<f64>(32, &mut generate::seeded_rng(911));

    let untimed = RunOptions {
        pipeline: pipeline.clone(),
        lookahead: 1,
        ..RunOptions::new(60)
    };
    let timed = RunOptions {
        model: Some(model),
        ..untimed.clone()
    };
    let mut c_untimed = c0.clone();
    let job = Job::Syrk {
        a: &a,
        c: &mut c_untimed,
        alpha: 1.0,
        algorithm: SyrkAlgorithm::TbsTiled,
    };
    run(job, &untimed).unwrap();
    let mut c_timed = c0;
    let job = Job::Syrk {
        a: &a,
        c: &mut c_timed,
        alpha: 1.0,
        algorithm: SyrkAlgorithm::TbsTiled,
    };
    let wall = run(job, &timed).unwrap().clock.unwrap();
    assert!(wall.consistent(), "SYRK: measured != modelled");
    assert!(wall.measured.hidden_ns > 0.0, "SYRK: no overlap at L=1");
    assert_eq!(c_timed, c_untimed, "SYRK: timed result drifted");

    let spd = generate::random_spd_seeded::<f64>(28, 912);
    let chol = || Job::Cholesky {
        a: &spd,
        algorithm: CholeskyAlgorithm::Lbc,
    };
    let untimed = RunOptions {
        memory: 40,
        ..untimed
    };
    let timed = RunOptions {
        memory: 40,
        ..timed
    };
    let l_untimed = run(chol(), &untimed).unwrap().factor;
    let chol_timed = run(chol(), &timed).unwrap();
    let (l_timed, wall) = (chol_timed.factor, chol_timed.clock.unwrap());
    assert!(wall.consistent(), "Cholesky: measured != modelled");
    assert_eq!(l_timed, l_untimed, "Cholesky: timed factor drifted");

    let ga = generate::random_matrix_seeded::<f64>(14, 8, 913);
    let gb = generate::random_matrix_seeded::<f64>(8, 12, 914);
    let gc0 = generate::random_matrix_seeded::<f64>(14, 12, 915);
    let mut gc_untimed = gc0.clone();
    let job = Job::Gemm {
        a: &ga,
        b: &gb,
        c: &mut gc_untimed,
        alpha: 1.0,
    };
    run(job, &untimed).unwrap();
    let mut gc_timed = gc0.clone();
    let job = Job::Gemm {
        a: &ga,
        b: &gb,
        c: &mut gc_timed,
        alpha: 1.0,
    };
    let wall = run(job, &timed).unwrap().clock.unwrap();
    assert!(wall.consistent(), "GEMM: measured != modelled");
    assert!(wall.measured.hidden_ns > 0.0, "GEMM: no overlap at L=1");
    assert_eq!(gc_timed, gc_untimed, "GEMM: timed result drifted");

    // Lookahead 0 through the timed API: still consistent, nothing hidden.
    let mut gc_plain = gc0;
    let job = Job::Gemm {
        a: &ga,
        b: &gb,
        c: &mut gc_plain,
        alpha: 1.0,
    };
    let l0 = RunOptions {
        lookahead: 0,
        ..timed
    };
    let wall = run(job, &l0).unwrap().clock.unwrap();
    assert!(wall.consistent(), "GEMM L=0: measured != modelled");
    assert_eq!(wall.measured.hidden_ns, 0.0, "GEMM L=0: cannot overlap");
}
