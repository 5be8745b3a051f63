//! Multi-level hierarchy equivalence: the tier stack must be invisible
//! when degenerate and honestly accounted when engaged.
//!
//! For every one of the eight schedule builders this asserts:
//!
//! 1. **collapse identity** — replaying the (default-level) schedule
//!    through a [`TieredMachine`] with two uncapped deep tiers produces
//!    bitwise-identical slow-memory results and field-for-field equal
//!    [`IoStats`] to the plain [`OocMachine`] replay;
//! 2. **leveled attribution** — re-leveling every transfer to tier 2
//!    ([`Schedule::with_transfer_level`]) still reproduces the results
//!    bitwise, moves exactly the same total volume, and attributes all of
//!    it to the tier in the per-level counters (which stay empty on the
//!    flat replay);
//! 3. **staging windows are enforced** — against a capped intermediate
//!    tier, a tier-3 replay fails with
//!    [`MemoryError::TierCapacityExceeded`] while the same schedule at the
//!    default level sails through untouched;
//! 4. **file-backed = simulated** — replaying through [`FileSlowMemory`]
//!    produces bitwise-identical results and field-for-field equal
//!    [`IoStats`] to the [`OocMachine`] replay.
//!
//! The A/B binaries `ab_multilevel` (gates 1 and 2) and `ab_wallclock`
//! (gate 4) run them in CI on every push; this test keeps them enforced
//! under a plain `cargo test` as well.

use symla::matrix::generate::{
    random_lower_triangular, random_matrix_seeded, random_spd_seeded, random_symmetric, seeded_rng,
};
use symla::prelude::*;
use symla_bench::corpus::{self, diagonally_dominant, Builder, Case, Operand};
use symla_core::engine::Engine;
use symla_memory::{FileSlowMemory, IoStats, Level, MemoryError, TieredMachine};
use symla_sched::EngineError;

/// Plain replay through an [`OocMachine`]: results and stats.
fn run_flat(case: &Case) -> (Vec<Operand>, IoStats) {
    let mut machine = OocMachine::<f64>::new(MachineConfig::with_capacity(case.capacity));
    corpus::register(&mut machine, &case.operands);
    Engine::execute(&mut machine, &case.schedule)
        .unwrap_or_else(|e| panic!("{}: flat replay: {e}", case.name));
    let stats = machine.stats().clone();
    (corpus::take(&mut machine, &case.operands), stats)
}

/// Replay through a [`TieredMachine`] with two uncapped deep tiers,
/// optionally re-leveling every transfer first.
fn run_tiered(case: &Case, level: Option<Level>) -> (Vec<Operand>, IoStats) {
    let inner = OocMachine::<f64>::new(MachineConfig::with_capacity(case.capacity));
    let mut machine = TieredMachine::new(inner).with_tier(None).with_tier(None);
    corpus::register(machine.inner_mut(), &case.operands);
    let schedule = match level {
        Some(l) => case.schedule.with_transfer_level(l),
        None => case.schedule.clone(),
    };
    Engine::execute(&mut machine, &schedule)
        .unwrap_or_else(|e| panic!("{}: tiered replay: {e}", case.name));
    let stats = machine.inner().stats().clone();
    let mut inner = machine.into_inner();
    (corpus::take(&mut inner, &case.operands), stats)
}

/// The eight schedule builders on small instances with real operands.
fn builder_cases() -> Vec<Case> {
    let (n, m, s) = (30, 6, 60);
    let a: Matrix<f64> = random_matrix_seeded(n, m, 9100);
    let c: SymMatrix<f64> = random_symmetric(n, &mut seeded_rng(9101));
    let spd: SymMatrix<f64> = random_spd_seeded(24, 9102);
    let lfac = random_lower_triangular(8, &mut seeded_rng(9103));
    let x: Matrix<f64> = random_matrix_seeded(9, 8, 9104);
    let ga: Matrix<f64> = random_matrix_seeded(9, 7, 9105);
    let gb: Matrix<f64> = random_matrix_seeded(7, 11, 9106);
    let gc: Matrix<f64> = random_matrix_seeded(9, 11, 9107);
    let lu = diagonally_dominant(random_matrix_seeded(12, 12, 9108));
    vec![
        Case::syrk(Builder::OocSyrk, &a, &c, 1.5, s),
        Case::syrk(Builder::Tbs, &a, &c, -0.5, s),
        Case::syrk(Builder::TbsTiled, &a, &c, 1.0, s),
        Case::cholesky(Builder::Lbc, &random_spd_seeded(36, 9109), 48),
        Case::cholesky(Builder::OocChol, &spd, 35),
        Case::trsm(&lfac, &x, 24),
        Case::gemm(&ga, &gb, &gc, 1.0, 35),
        Case::lu(&lu, 35),
    ]
}

/// Invariant 1: a degenerate hierarchy changes nothing — bitwise results
/// and field-for-field IoStats (volume, events, peak, phases, levels).
#[test]
fn degenerate_hierarchy_is_invisible_for_every_builder() {
    for case in builder_cases() {
        let (flat_result, flat_stats) = run_flat(&case);
        let (collapsed_result, collapsed_stats) = run_tiered(&case, None);
        assert!(
            collapsed_result == flat_result,
            "{}: collapse result diverged",
            case.name
        );
        assert_eq!(collapsed_stats, flat_stats, "{}: collapse stats", case.name);
        // The flat replay never touches a non-default tier.
        assert_eq!(flat_stats.level(2), Default::default(), "{}", case.name);
    }
}

/// Invariant 2: re-leveling every transfer to tier 2 reproduces the
/// results bitwise, moves the same volume, and attributes all of it to
/// the tier.
#[test]
fn tier2_replay_is_bitwise_equal_and_fully_attributed() {
    let deep = Level::new(2);
    for case in builder_cases() {
        let (flat_result, flat_stats) = run_flat(&case);
        let (leveled_result, leveled_stats) = run_tiered(&case, Some(deep));
        assert!(
            leveled_result == flat_result,
            "{}: leveled result diverged",
            case.name
        );
        assert_eq!(
            leveled_stats.volume, flat_stats.volume,
            "{}: leveled total volume",
            case.name
        );
        let tier = leveled_stats.level(deep.raw());
        assert_eq!(
            tier.loads, flat_stats.volume.loads,
            "{}: tier loads",
            case.name
        );
        assert_eq!(
            tier.stores, flat_stats.volume.stores,
            "{}: tier stores",
            case.name
        );
    }
}

/// Invariant 3: a capped intermediate tier rejects tier-3 transfers with a
/// typed error, while the default-level schedule never touches the tier
/// stack and executes unchanged on the same machine shape.
#[test]
fn capped_staging_windows_reject_deep_transfers() {
    let case = &builder_cases()[0];

    // Tier 2 capped at zero elements: any tier-3 transfer must fail.
    let inner = OocMachine::<f64>::new(MachineConfig::with_capacity(case.capacity));
    let mut machine = TieredMachine::new(inner).with_tier(Some(0)).with_tier(None);
    corpus::register(machine.inner_mut(), &case.operands);
    let deep = case.schedule.with_transfer_level(Level::new(3));
    let err = Engine::execute(&mut machine, &deep).expect_err("capped tier accepted a transfer");
    assert!(
        matches!(
            err,
            EngineError::Memory(MemoryError::TierCapacityExceeded { level: 2, .. })
        ),
        "unexpected error: {err:?}"
    );

    // The same capped machine executes the default-level schedule in full:
    // level-1 transfers pass through no staging window.
    let inner = OocMachine::<f64>::new(MachineConfig::with_capacity(case.capacity));
    let mut machine = TieredMachine::new(inner).with_tier(Some(0)).with_tier(None);
    corpus::register(machine.inner_mut(), &case.operands);
    Engine::execute(&mut machine, &case.schedule).expect("default level hit the tier stack");
    let (flat_result, flat_stats) = run_flat(case);
    assert_eq!(machine.inner().stats(), &flat_stats, "capped-machine stats");
    let mut inner = machine.into_inner();
    assert!(
        corpus::take(&mut inner, &case.operands) == flat_result,
        "capped-machine result diverged"
    );
}

/// Invariant 4: the on-disk slow memory is a drop-in for the simulated one —
/// the file-backed replay reproduces the results bitwise and the
/// [`IoStats`] field for field.
#[test]
fn file_backed_replay_matches_simulated_for_every_builder() {
    for case in builder_cases() {
        let (flat_result, flat_stats) = run_flat(&case);
        let mut machine = FileSlowMemory::<f64>::with_capacity(case.capacity)
            .expect("create file-backed slow memory");
        corpus::register(&mut machine, &case.operands);
        Engine::execute(&mut machine, &case.schedule)
            .unwrap_or_else(|e| panic!("{}: file-backed replay: {e}", case.name));
        assert_eq!(
            machine.stats(),
            &flat_stats,
            "{}: file-backed stats",
            case.name
        );
        assert!(
            corpus::take(&mut machine, &case.operands) == flat_result,
            "{}: file-backed result diverged",
            case.name
        );
    }
}
