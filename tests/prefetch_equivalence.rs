//! Prefetch-mode equivalence: the double-buffered engine must change *when*
//! data moves, never *what* is computed or *how much* moves.
//!
//! For seeded instances of all eight schedule builders this asserts, at
//! `lookahead ∈ {0, 1, 2}`:
//!
//! 1. **bitwise results** — a prefetching execution leaves slow memory
//!    bitwise-identical to the plain (`lookahead = 0`) execution;
//! 2. **execute = dry-run** — the machine's counters after
//!    `Engine::execute_with` equal `Engine::dry_run_with` at the same
//!    config and capacity, and the machine trace equals
//!    `Engine::trace_with`;
//! 3. **capacity** — peak residency never exceeds the machine capacity `S`
//!    the schedule was planned for, at any lookahead;
//! 4. **volumes are invariant** — loads/stores/events/flops and the
//!    per-phase split are identical at every lookahead; only the
//!    stalled/overlapped split moves;
//! 5. **monotonicity** — the stalled-load volume is non-increasing as the
//!    lookahead grows (more lookahead can only overlap more);
//! 6. **positive overlap** — tiled TBS and OOC-GEMM (the paper's
//!    update-style kernels, whose groups leave slack) show strictly
//!    positive modelled overlap already at `lookahead = 1`;
//! 7. **parallel** — for the independent-group schedules, the pipelined
//!    `execute_parallel_with` at `workers ∈ {1, 4}` reproduces the serial
//!    results bitwise with every worker within capacity.

use symla::matrix::generate::{self, SeededRng};
use symla::prelude::*;
use symla_bench::corpus::{self, diagonally_dominant, Builder, Case, Operand};
use symla_core::engine::{Engine, WorkerRun};
use symla_memory::SharedSlowMemory;

/// Builds the seeded sweep: one instance of each of the eight builders.
fn sweep_cases(rng: &mut SeededRng) -> Vec<Case> {
    let seed = rng.gen_range(0usize..1000) as u64;
    let (n, m, s) = (36, 6, 60);
    let a = generate::random_matrix_seeded::<f64>(n, m, seed);
    let c0 = generate::random_symmetric::<f64>(n, &mut generate::seeded_rng(seed + 1));
    // The factorizations share one SPD operand.
    let spd = generate::random_spd_seeded::<f64>(30, seed + 5);
    let lu = diagonally_dominant(generate::random_matrix_seeded(18, 18, seed + 6));
    let lfac = generate::random_lower_triangular(10, &mut generate::seeded_rng(seed + 7));
    vec![
        Case::syrk(Builder::OocSyrk, &a, &c0, 1.5, s),
        Case::syrk(Builder::Tbs, &a, &c0, -1.0, s),
        Case::syrk(Builder::TbsTiled, &a, &c0, 1.0, s),
        Case::gemm(
            &generate::random_matrix_seeded(20, 6, seed + 2),
            &generate::random_matrix_seeded(6, 10, seed + 3),
            &generate::random_matrix_seeded(20, 10, seed + 4),
            2.0,
            40,
        ),
        Case::cholesky(Builder::OocChol, &spd, 40),
        Case::cholesky(Builder::Lbc, &spd, 40),
        Case::lu(&lu, 40),
        Case::trsm(&lfac, &generate::random_matrix_seeded(12, 10, seed + 8), 40),
    ]
}

/// Serial execution of a case at one lookahead, returning the final
/// operands and the machine's stats.
fn run_serial(case: &Case, lookahead: usize) -> (Vec<Operand>, IoStats) {
    let config = EngineConfig::with_lookahead(lookahead);
    let mut machine =
        OocMachine::new(MachineConfig::with_capacity(case.capacity).record_trace(true));
    corpus::register(&mut machine, &case.operands);
    Engine::execute_with(&mut machine, &case.schedule, &config).unwrap();

    let dry = Engine::dry_run_with(&case.schedule, "main", &config, Some(case.capacity));
    assert_eq!(
        machine.stats(),
        &dry,
        "{} L={lookahead}: execute vs dry-run",
        case.name
    );
    let synthesized = Engine::trace_with(&case.schedule, "main", &config, Some(case.capacity));
    assert_eq!(
        machine.trace().unwrap(),
        &synthesized,
        "{} L={lookahead}: machine trace vs synthesized trace",
        case.name
    );

    let stats = machine.stats().clone();
    (corpus::take(&mut machine, &case.operands), stats)
}

#[test]
fn prefetch_sweep_all_builders_serial() {
    let mut rng = SeededRng::seed_from_u64(0xF00D);
    for case in sweep_cases(&mut rng) {
        let (baseline, plain) = run_serial(&case, 0);
        assert_eq!(plain.prefetched_elements, 0, "{}", case.name);
        let mut prev_stalled = plain.stalled_loads();
        for lookahead in [1usize, 2] {
            let (out, stats) = run_serial(&case, lookahead);
            let ctx = format!("{} L={lookahead}", case.name);

            // 1. bitwise results
            assert!(out == baseline, "{ctx}: result drifted");
            // 3. capacity
            assert!(
                stats.peak_resident <= case.capacity,
                "{ctx}: peak {} exceeds S={}",
                stats.peak_resident,
                case.capacity
            );
            // 4. volumes invariant
            assert_eq!(stats.volume, plain.volume, "{ctx}");
            assert_eq!(stats.load_events, plain.load_events, "{ctx}");
            assert_eq!(stats.store_events, plain.store_events, "{ctx}");
            assert_eq!(stats.flops, plain.flops, "{ctx}");
            assert_eq!(stats.per_phase, plain.per_phase, "{ctx}");
            // 5. monotone non-increasing stalled loads
            assert!(
                stats.stalled_loads() <= prev_stalled,
                "{ctx}: stalled {} grew past {}",
                stats.stalled_loads(),
                prev_stalled
            );
            prev_stalled = stats.stalled_loads();
            // 6. the update kernels overlap for real at lookahead >= 1
            if matches!(case.builder, Builder::TbsTiled | Builder::OocGemm) {
                assert!(
                    stats.prefetched_elements > 0,
                    "{ctx}: expected strictly positive overlap"
                );
            }
        }
    }
}

#[test]
fn prefetch_sweep_parallel_matches_serial() {
    let mut rng = SeededRng::seed_from_u64(0xFE7C);
    for case in sweep_cases(&mut rng) {
        if !case.independent_groups() {
            continue;
        }
        let (baseline, plain) = run_serial(&case, 0);
        for workers in [1usize, 4] {
            for lookahead in [0usize, 1, 2] {
                let mut shared = SharedSlowMemory::new();
                corpus::register(&mut shared, &case.operands);
                let runs = Engine::execute_parallel_with(
                    &shared,
                    &case.schedule,
                    workers,
                    MachineConfig::with_capacity(case.capacity),
                    "main",
                    &EngineConfig::with_lookahead(lookahead),
                )
                .unwrap();
                let ctx = format!("{} P={workers} L={lookahead}", case.name);

                let merged = WorkerRun::merged_stats(&runs);
                assert_eq!(merged.volume, plain.volume, "{ctx}");
                assert_eq!(merged.flops, plain.flops, "{ctx}");
                for (w, run) in runs.iter().enumerate() {
                    assert!(
                        run.stats.peak_resident <= case.capacity,
                        "{ctx}: worker {w} peak {} exceeds S",
                        run.stats.peak_resident
                    );
                }
                // the busiest single fast memory never exceeds the fleet sum
                assert!(
                    WorkerRun::aggregate_peak(&runs) >= merged.peak_resident,
                    "{ctx}"
                );
                if lookahead == 0 {
                    assert_eq!(merged.prefetched_elements, 0, "{ctx}");
                }

                let out = corpus::take(&mut shared, &case.operands);
                assert!(out == baseline, "{ctx}: result drifted");
            }
        }
    }
}
