//! A/B sweep of the prefetching engine mode: overlapped vs stalled load
//! volume and peak residency for every schedule builder, several sizes and
//! lookaheads 0 / 1 / 2.
//!
//! For each (algorithm, instance, lookahead) the binary
//!
//! 1. dry-runs the schedule with the prefetch model
//!    (`Engine::dry_run_with`) — the modelled overlap quantifies the
//!    benefit without timing noise;
//! 2. executes the schedule on a capacity-`S` machine with and without the
//!    lookahead and asserts the slow-memory results are **bitwise
//!    identical** and the measured stats equal the dry-run model;
//! 3. prints the overlap ratio (prefetched / total loads), the stalled
//!    residue and the peak residency against `S`.
//!
//! The process exits non-zero if any result diverges bitwise, any peak
//! exceeds `S`, any stalled volume grows with the lookahead, or the
//! update-style paper kernels (tiled TBS, OOC-GEMM) fail to overlap at
//! `lookahead = 1` — this is the CI smoke gate (`--smoke` runs the small
//! instance set only).
//!
//! ```text
//! cargo run --release -p symla-bench --bin ab_prefetch            # full sweep
//! cargo run --release -p symla-bench --bin ab_prefetch -- --smoke # CI gate
//! ```

use symla_bench::corpus::{self, diagonally_dominant, Builder, Case, Operand};
use symla_core::engine::{Engine, EngineConfig};
use symla_matrix::generate::{
    random_lower_triangular, random_matrix_seeded, random_spd_seeded, random_symmetric, seeded_rng,
};
use symla_memory::{IoStats, MachineConfig, OocMachine};

/// Executes the schedule at the given lookahead on a capacity-`S` machine,
/// asserting execute == dry-run, and returns the final slow-memory contents
/// plus the measured stats.
fn execute(case: &Case, lookahead: usize) -> (Vec<Operand>, IoStats) {
    let config = EngineConfig::with_lookahead(lookahead);
    let mut machine = OocMachine::<f64>::new(MachineConfig::with_capacity(case.capacity));
    corpus::register(&mut machine, &case.operands);
    Engine::execute_with(&mut machine, &case.schedule, &config)
        .expect("schedule must execute within its planned capacity");
    let dry = Engine::dry_run_with(&case.schedule, "main", &config, Some(case.capacity));
    assert_eq!(
        machine.stats(),
        &dry,
        "{} L={lookahead}: execute diverged from the dry-run model",
        case.name
    );
    let stats = machine.stats().clone();
    (corpus::take(&mut machine, &case.operands), stats)
}

/// Whether the acceptance gate demands strictly positive overlap at
/// lookahead 1: the update-style paper kernels, tiled TBS and OOC-GEMM.
fn must_overlap(case: &Case) -> bool {
    matches!(case.builder, Builder::TbsTiled | Builder::OocGemm)
}

fn syrk(builder: Builder, n: usize, m: usize, s: usize) -> Case {
    let a = random_matrix_seeded(n, m, 5100 + n as u64);
    let c = random_symmetric(n, &mut seeded_rng(5200 + n as u64));
    Case::syrk(builder, &a, &c, 1.0, s)
}

fn cholesky(builder: Builder, n: usize, s: usize) -> Case {
    Case::cholesky(builder, &random_spd_seeded(n, 5300 + n as u64), s)
}

fn trsm(m: usize, b: usize, s: usize) -> Case {
    let l = random_lower_triangular(b, &mut seeded_rng(5400 + b as u64));
    Case::trsm(&l, &random_matrix_seeded(m, b, 5500 + m as u64), s)
}

fn gemm(n: usize, m: usize, p: usize, s: usize) -> Case {
    let a = random_matrix_seeded(n, m, 5600);
    let b = random_matrix_seeded(m, p, 5601);
    Case::gemm(&a, &b, &random_matrix_seeded(n, p, 5602), 1.0, s)
}

fn lu(n: usize, s: usize) -> Case {
    Case::lu(&diagonally_dominant(random_matrix_seeded(n, n, 5700)), s)
}

fn cases(smoke: bool) -> Vec<Case> {
    use Builder::*;
    let mut cases = vec![
        syrk(Tbs, 30, 6, 60),
        syrk(TbsTiled, 40, 6, 60),
        syrk(OocSyrk, 20, 5, 35),
        cholesky(Lbc, 36, 48),
        cholesky(OocChol, 24, 35),
        trsm(9, 8, 24),
        gemm(9, 7, 11, 35),
        lu(12, 35),
    ];
    if !smoke {
        cases.extend([
            syrk(Tbs, 52, 8, 90),
            syrk(TbsTiled, 80, 10, 120),
            syrk(OocSyrk, 40, 8, 80),
            cholesky(Lbc, 48, 80),
            cholesky(OocChol, 36, 63),
            trsm(16, 12, 35),
            gemm(14, 10, 14, 48),
            lu(18, 48),
        ]);
    }
    cases
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");

    println!(
        "{:<26} {:>4} {:>2} {:>9} {:>10} {:>9} {:>8} {:>6} {:>6}  check",
        "algorithm", "S", "L", "loads", "prefetched", "stalled", "overlap", "peak", "peak0",
    );
    let mut failures = 0;
    let mut overlapping = 0;
    for case in cases(smoke) {
        let (baseline, plain) = execute(&case, 0);
        if plain.prefetched_elements != 0 {
            eprintln!("FAIL: {}: lookahead 0 prefetched something", case.name);
            failures += 1;
        }
        let mut prev_stalled = plain.stalled_loads();
        for lookahead in [1usize, 2] {
            let (result, stats) = execute(&case, lookahead);
            let mut checks: Vec<&str> = Vec::new();
            if result != baseline {
                checks.push("RESULT DIFFERS");
            }
            if stats.peak_resident > case.capacity {
                checks.push("CAPACITY EXCEEDED");
            }
            if stats.volume != plain.volume || stats.load_events != plain.load_events {
                checks.push("VOLUME CHANGED");
            }
            if stats.stalled_loads() > prev_stalled {
                checks.push("STALLS GREW");
            }
            if lookahead == 1 && must_overlap(&case) && stats.prefetched_elements == 0 {
                checks.push("NO OVERLAP");
            }
            prev_stalled = stats.stalled_loads();
            if stats.prefetched_elements > 0 {
                overlapping += 1;
            }
            let check = if checks.is_empty() {
                "ok".to_string()
            } else {
                checks.join(" + ")
            };
            if check != "ok" {
                failures += 1;
            }
            println!(
                "{:<26} {:>4} {:>2} {:>9} {:>10} {:>9} {:>7.1}% {:>6} {:>6}  {}",
                case.name,
                case.capacity,
                lookahead,
                stats.volume.loads,
                stats.prefetched_elements,
                stats.stalled_loads(),
                100.0 * stats.overlap_ratio(),
                stats.peak_resident,
                plain.peak_resident,
                check
            );
        }
    }

    println!("\n{overlapping} rows with positive overlap, {failures} failures");
    if failures > 0 {
        std::process::exit(1);
    }
}
