//! Observer invariance: attaching *any* observer to an execution must not
//! change what the execution computes or what the engine accounts.
//!
//! For seeded instances of all eight schedule builders, at
//! `lookahead ∈ {0, 1, 2}`, this asserts that a replay through an
//! [`InstrumentedMachine`] — with a recording observer ([`TraceRecorder`])
//! and with the disabled one ([`NullObserver`]) — leaves
//!
//! 1. the slow-memory results **bitwise identical** to the unobserved
//!    replay,
//! 2. the [`IoStats`] equal field for field (volumes, events, prefetched
//!    elements, peak residency, per-phase split),
//! 3. the modelled [`TimeStats`] bitwise equal to the static
//!    [`modelled_time`] price (which `tests/wallclock_model.rs` pins to the
//!    [`LatencyMachine`] measurement) when recording, and exactly zero when
//!    disabled (the disabled path must not even run the clock).
//!
//! The parallel variant asserts the same for the traced parallel SYRK
//! against the unobserved one: bitwise results and placement-independent
//! totals. **Deviation from the serial sweep:** the parallel engine only
//! executes schedules whose task groups are independent, which in this
//! workspace means the SYRK-family partition schedules — so the parallel
//! invariance runs on those, not on all eight builders (Cholesky/LU/TRSM
//! schedules carry cross-group dependences and have no parallel mode).

use symla::matrix::generate;
use symla::prelude::*;
use symla_bench::corpus::{self, diagonally_dominant, Builder, Case, Operand};
use symla_core::parallel::{parallel_syrk_prefetched, parallel_syrk_traced, BlockStrategy};

fn sweep_cases() -> Vec<Case> {
    let (n, m, s) = (36, 6, 60);
    let a = generate::random_matrix_seeded::<f64>(n, m, 920);
    let c0 = generate::random_symmetric::<f64>(n, &mut generate::seeded_rng(921));
    let spd = generate::random_spd_seeded::<f64>(30, 925);
    let lu = diagonally_dominant(generate::random_matrix_seeded(18, 18, 926));
    let lfac = generate::random_lower_triangular(10, &mut generate::seeded_rng(927));
    vec![
        Case::syrk(Builder::Tbs, &a, &c0, -1.0, s),
        Case::syrk(Builder::TbsTiled, &a, &c0, 1.0, s),
        Case::syrk(Builder::OocSyrk, &a, &c0, 1.5, s),
        Case::gemm(
            &generate::random_matrix_seeded(20, 6, 922),
            &generate::random_matrix_seeded(6, 10, 923),
            &generate::random_matrix_seeded(20, 10, 924),
            2.0,
            40,
        ),
        Case::cholesky(Builder::OocChol, &spd, 40),
        Case::cholesky(Builder::Lbc, &spd, 40),
        Case::lu(&lu, 40),
        Case::trsm(&lfac, &generate::random_matrix_seeded(12, 10, 928), 40),
    ]
}

fn fresh_machine(case: &Case) -> OocMachine<f64> {
    let mut machine = OocMachine::<f64>::new(MachineConfig::with_capacity(case.capacity));
    corpus::register(&mut machine, &case.operands);
    machine
}

/// Unobserved replay: final operands and stats.
fn run_plain(case: &Case, lookahead: usize) -> (Vec<Operand>, IoStats) {
    let mut machine = fresh_machine(case);
    Engine::execute_with(
        &mut machine,
        &case.schedule,
        &EngineConfig::with_lookahead(lookahead),
    )
    .unwrap();
    let stats = machine.stats().clone();
    (corpus::take(&mut machine, &case.operands), stats)
}

/// Replay observed by `observer`: final operands, stats and the modelled
/// time the instrumentation accumulated.
fn run_observed<O: ExecutionObserver>(
    case: &Case,
    observer: O,
    model: MachineModel,
    lookahead: usize,
) -> (Vec<Operand>, IoStats, TimeStats) {
    let mut machine = InstrumentedMachine::new(fresh_machine(case), model, observer, 0);
    Engine::execute_with(
        &mut machine,
        &case.schedule,
        &EngineConfig::with_lookahead(lookahead),
    )
    .unwrap();
    let time = machine.time();
    let mut inner = machine.into_inner();
    let stats = inner.stats().clone();
    (corpus::take(&mut inner, &case.operands), stats, time)
}

#[test]
fn observation_changes_nothing_for_every_builder() {
    let model = MachineModel::nvme();
    for case in sweep_cases() {
        for lookahead in [0usize, 1, 2] {
            let ctx = format!("{} L={lookahead}", case.name);
            let (plain_out, plain_stats) = run_plain(&case, lookahead);

            let recorder = TraceRecorder::new();
            let (rec_out, rec_stats, rec_time) =
                run_observed(&case, recorder.clone(), model, lookahead);
            let trace = recorder.finish();
            assert!(rec_out == plain_out, "{ctx}: recorded result drifted");
            assert_eq!(rec_stats, plain_stats, "{ctx}: recorded stats drifted");
            assert!(!trace.is_empty(), "{ctx}: recorder saw no events");

            // The modelled clock the instrumentation keeps is the wall-clock
            // model itself, bitwise.
            let modelled = modelled_time(&case.schedule, &model, lookahead, Some(case.capacity));
            assert_eq!(rec_time.io_ns.to_bits(), modelled.io_ns.to_bits(), "{ctx}");
            assert_eq!(
                rec_time.compute_ns.to_bits(),
                modelled.compute_ns.to_bits(),
                "{ctx}"
            );
            assert_eq!(
                rec_time.hidden_ns.to_bits(),
                modelled.hidden_ns.to_bits(),
                "{ctx}"
            );
            assert_eq!(rec_time.groups, modelled.groups, "{ctx}");

            let (null_out, null_stats, null_time) =
                run_observed(&case, NullObserver, model, lookahead);
            assert!(null_out == plain_out, "{ctx}: disabled result drifted");
            assert_eq!(null_stats, plain_stats, "{ctx}: disabled stats drifted");
            assert_eq!(
                null_time.total_ns(),
                0.0,
                "{ctx}: disabled observer ran the clock"
            );
        }
    }
}

#[test]
fn parallel_observation_changes_nothing() {
    // Deviation from the serial sweep: the parallel engine executes only
    // independent-group schedules, i.e. the SYRK partition schedules — the
    // factorizations have no parallel mode to observe.
    let (n, m, s) = (40, 8, 12);
    let a = generate::random_matrix_seeded::<f64>(n, m, 930);
    let model = MachineModel::nvme();
    for strategy in [BlockStrategy::SquareTiles, BlockStrategy::TriangleBlocks] {
        for lookahead in [0usize, 2] {
            let ctx = format!("{} L={lookahead}", strategy.name());
            let mut plain_c = SymMatrix::zeros(n);
            let plain =
                parallel_syrk_prefetched(&a, &mut plain_c, 1.0, 3, s, strategy, lookahead).unwrap();

            let recorder = TraceRecorder::new();
            let mut traced_c = SymMatrix::zeros(n);
            let traced = parallel_syrk_traced(
                &a,
                &mut traced_c,
                1.0,
                3,
                s,
                strategy,
                lookahead,
                &model,
                &recorder,
            )
            .unwrap();
            let trace = recorder.finish();

            assert!(traced_c == plain_c, "{ctx}: traced result drifted");
            // Which worker got which group is dynamic, but the volumes are
            // placement-independent.
            assert_eq!(traced.total_loads(), plain.total_loads(), "{ctx}");
            assert_eq!(traced.total_stores(), plain.total_stores(), "{ctx}");
            assert!(!trace.is_empty(), "{ctx}: no events recorded");
            // Every claimed group opened and closed its span.
            let claims = trace.count(|k| matches!(k, EventKind::Claim { .. }));
            let starts = trace.count(|k| matches!(k, EventKind::GroupStart { .. }));
            let ends = trace.count(|k| matches!(k, EventKind::GroupEnd { .. }));
            assert_eq!(claims, starts, "{ctx}");
            assert_eq!(starts, ends, "{ctx}");
        }
    }
}
