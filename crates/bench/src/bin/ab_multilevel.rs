//! A/B gate for the multi-level memory hierarchy: the hierarchy must be
//! free when unused and honestly accounted when used.
//!
//! For every schedule builder in the repertoire the binary checks
//!
//! 1. **collapse identity** — the schedule replayed through a degenerate
//!    [`TieredMachine`] (two uncapped deep tiers, every transfer at the
//!    default level) produces **bitwise-identical** slow-memory results and
//!    field-for-field equal [`IoStats`] to the plain [`OocMachine`] replay:
//!    an unused hierarchy costs nothing and changes nothing;
//! 2. **leveled replay** — the same schedule re-leveled to tier 2
//!    ([`Schedule::with_transfer_level`](symla_core::engine::Schedule::with_transfer_level))
//!    still produces bitwise-identical results with the same total volume,
//!    now fully attributed to the tier in the per-level traffic counters,
//!    and its modelled wall-clock under a tier surcharge is strictly slower
//!    than the flat pricing;
//! 3. **dump round-trip** — the leveled schedule dumps with a `v2` header,
//!    collapsing it back to the default level restores the original `v1`
//!    dump byte for byte.
//!
//! On top of the per-builder gates, a sharded parallel SYRK
//! ([`parallel_syrk_sharded`]: `C` on shard 0 = every node's home, `A` on
//! shard 1) must reproduce the reference result for both partitioning
//! strategies, and the triangle-block partition's cross-shard volume must
//! land in the finite-size band around the paper's `1/sqrt(2)` claim
//! (`t/(k-1) = 2/3` at the gate's shape) of the square tiling's.
//!
//! Any violation exits non-zero — `--smoke` is the CI gate. A full run
//! additionally writes `bench/BENCH_multilevel.json`.
//!
//! ```text
//! cargo run --release -p symla-bench --bin ab_multilevel            # full sweep + JSON
//! cargo run --release -p symla-bench --bin ab_multilevel -- --smoke # CI gate
//! ```

use std::fmt::Write as _;
use symla_bench::corpus::{self, diagonally_dominant, Builder, Case, Operand};
use symla_core::engine::{modelled_time, Engine};
use symla_core::parallel::{parallel_syrk_sharded, BlockStrategy, ShardedReport};
use symla_matrix::generate::{
    random_lower_triangular, random_matrix_seeded, random_spd_seeded, random_symmetric, seeded_rng,
};
use symla_matrix::kernels::syrk_sym;
use symla_matrix::{Matrix, SymMatrix};
use symla_memory::{IoStats, Level, MachineConfig, MachineModel, OocMachine, TieredMachine};

/// Acceptance band for the triangle-vs-square cross-shard volume ratio at
/// the gate's shape (n = 120, S = 10: k = 4, t = 2): the finite-size value
/// is `t/(k-1) = 2/3`, approaching `1/sqrt(2)` asymptotically.
const RATIO_BAND: (f64, f64) = (0.6, 0.78);

/// The deep tier every transfer is re-leveled to in the leveled gate.
const DEEP: Level = Level::new(2);

/// Plain replay through an [`OocMachine`]: results and stats.
fn run_flat(case: &Case) -> (Vec<Operand>, IoStats) {
    let mut machine = OocMachine::<f64>::new(MachineConfig::with_capacity(case.capacity));
    corpus::register(&mut machine, &case.operands);
    Engine::execute(&mut machine, &case.schedule).expect("flat replay");
    let stats = machine.stats().clone();
    (corpus::take(&mut machine, &case.operands), stats)
}

/// Replay through a [`TieredMachine`] with two uncapped deep tiers,
/// optionally re-leveling every transfer to `level` first.
fn run_tiered(case: &Case, level: Option<Level>) -> (Vec<Operand>, IoStats) {
    let inner = OocMachine::<f64>::new(MachineConfig::with_capacity(case.capacity));
    let mut machine = TieredMachine::new(inner).with_tier(None).with_tier(None);
    corpus::register(machine.inner_mut(), &case.operands);
    let schedule = match level {
        Some(l) => case.schedule.with_transfer_level(l),
        None => case.schedule.clone(),
    };
    Engine::execute(&mut machine, &schedule).expect("tiered replay");
    let stats = machine.inner().stats().clone();
    let mut inner = machine.into_inner();
    (corpus::take(&mut inner, &case.operands), stats)
}

fn syrk(builder: Builder, n: usize, m: usize, s: usize) -> Case {
    let a = random_matrix_seeded(n, m, 7100 + n as u64);
    let c = random_symmetric(n, &mut seeded_rng(7200 + n as u64));
    Case::syrk(builder, &a, &c, 1.0, s)
}

fn cholesky(builder: Builder, n: usize, s: usize) -> Case {
    Case::cholesky(builder, &random_spd_seeded(n, 7300 + n as u64), s)
}

fn trsm(m: usize, b: usize, s: usize) -> Case {
    let l = random_lower_triangular(b, &mut seeded_rng(7400 + b as u64));
    Case::trsm(&l, &random_matrix_seeded(m, b, 7500 + m as u64), s)
}

fn gemm(n: usize, m: usize, p: usize, s: usize) -> Case {
    let a = random_matrix_seeded(n, m, 7600);
    let b = random_matrix_seeded(m, p, 7601);
    Case::gemm(&a, &b, &random_matrix_seeded(n, p, 7602), 1.0, s)
}

fn lu(n: usize, s: usize) -> Case {
    Case::lu(&diagonally_dominant(random_matrix_seeded(n, n, 7700)), s)
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
            cholesky(Lbc, 48, 80),
            gemm(14, 10, 14, 48),
        ]);
    }
    cases
}

/// One per-builder row of the JSON dump.
struct Row {
    algorithm: String,
    memory: usize,
    loads: u64,
    stores: u64,
    flat_ns: f64,
    leveled_ns: f64,
}

/// Runs the sharded SYRK for one strategy and checks its result against the
/// reference; returns the report.
fn sharded(
    a: &Matrix<f64>,
    expected: &SymMatrix<f64>,
    nodes: usize,
    s: usize,
    strategy: BlockStrategy,
    failures: &mut u32,
) -> ShardedReport {
    let mut c = SymMatrix::zeros(expected.order());
    let report = parallel_syrk_sharded(a, &mut c, 1.0, nodes, s, strategy).unwrap();
    if !c.approx_eq(expected, 1e-10) {
        eprintln!("FAIL: sharded {} result diverged", strategy.name());
        *failures += 1;
    }
    report
}

fn write_json(rows: &[Row], square: &ShardedReport, triangle: &ShardedReport, ratio: f64) {
    let mut out = String::from("{\n  \"builders\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{ \"algorithm\": \"{}\", \"memory\": {}, \"loads\": {}, \"stores\": {}, \
             \"flat_modelled_ns\": {:.3}, \"leveled_modelled_ns\": {:.3} }}{}",
            row.algorithm.replace('"', "\\\""),
            row.memory,
            row.loads,
            row.stores,
            row.flat_ns,
            row.leveled_ns,
            if i + 1 == rows.len() { "" } else { "," }
        );
    }
    out.push_str("  ],\n  \"sharded\": [\n");
    for (i, report) in [square, triangle].into_iter().enumerate() {
        let nodes: Vec<String> = report
            .per_node
            .iter()
            .map(|n| {
                format!(
                    "{{ \"local\": {}, \"cross\": {}, \"tasks\": {} }}",
                    n.local, n.cross, n.tasks
                )
            })
            .collect();
        let _ = writeln!(
            out,
            "    {{ \"strategy\": \"{}\", \"total_cross\": {}, \"max_cross\": {}, \
             \"per_node\": [{}] }}{}",
            report.strategy.name(),
            report.total_cross(),
            report.max_cross(),
            nodes.join(", "),
            if i == 0 { "," } else { "" }
        );
    }
    let _ = writeln!(
        out,
        "  ],\n  \"cross_shard_ratio\": {ratio:.6},\n  \"ratio_band\": [{}, {}]\n}}",
        RATIO_BAND.0, RATIO_BAND.1
    );
    std::fs::create_dir_all("bench").expect("create bench dir");
    std::fs::write("bench/BENCH_multilevel.json", out).expect("write bench/BENCH_multilevel.json");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let model = MachineModel::nvme().with_level_extra(DEEP, 25.0);

    println!(
        "{:<24} {:>8} {:>8} {:>14} {:>14}  check",
        "algorithm", "loads", "stores", "flat ns", "leveled ns",
    );
    let mut failures = 0u32;
    let mut rows: Vec<Row> = Vec::new();
    for case in cases(smoke) {
        let mut checks: Vec<&str> = Vec::new();
        let (flat_result, flat_stats) = run_flat(&case);

        // Gate 1: the degenerate hierarchy is invisible.
        let (collapsed_result, collapsed_stats) = run_tiered(&case, None);
        if collapsed_result != flat_result {
            checks.push("COLLAPSE RESULT DIFFERS");
        }
        if collapsed_stats != flat_stats {
            checks.push("COLLAPSE STATS DIFFER");
        }

        // Gate 2: the leveled replay moves the same data, attributed to
        // the tier, and prices strictly slower under the surcharge.
        let (leveled_result, leveled_stats) = run_tiered(&case, Some(DEEP));
        if leveled_result != flat_result {
            checks.push("LEVELED RESULT DIFFERS");
        }
        if leveled_stats.volume != flat_stats.volume {
            checks.push("LEVELED VOLUME DIFFERS");
        }
        if leveled_stats.level(DEEP.raw()).loads != flat_stats.volume.loads
            || leveled_stats.level(DEEP.raw()).stores != flat_stats.volume.stores
        {
            checks.push("PER-LEVEL TRAFFIC WRONG");
        }
        let flat_time = modelled_time(&case.schedule, &model, 0, Some(case.capacity));
        let leveled = case.schedule.with_transfer_level(DEEP);
        let leveled_time = modelled_time(&leveled, &model, 0, Some(case.capacity));
        if flat_stats.volume.loads + flat_stats.volume.stores > 0
            && leveled_time.total_ns() <= flat_time.total_ns()
        {
            checks.push("SURCHARGE NOT PRICED");
        }

        // Gate 3: v2 dump for leveled schedules, byte-identical v1 dump
        // after collapsing back.
        if case.schedule.text_version() != 1 || leveled.text_version() != 2 {
            checks.push("WRONG DUMP VERSION");
        }
        if leveled.with_transfer_level(Level::default()).dump() != case.schedule.dump() {
            checks.push("COLLAPSED DUMP DIFFERS");
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
            "{:<24} {:>8} {:>8} {:>14.1} {:>14.1}  {}",
            case.name,
            flat_stats.volume.loads,
            flat_stats.volume.stores,
            flat_time.total_ns(),
            leveled_time.total_ns(),
            check
        );
        rows.push(Row {
            algorithm: case.name,
            memory: case.capacity,
            loads: flat_stats.volume.loads,
            stores: flat_stats.volume.stores,
            flat_ns: flat_time.total_ns(),
            leveled_ns: leveled_time.total_ns(),
        });
    }

    // Sharded gate: C on shard 0 (home), A on shard 1 — cross-shard volume
    // is the A traffic, triangle blocks must cut it into the band.
    let (n, m, s, nodes) = (120usize, 16usize, 10usize, 4usize);
    let a: Matrix<f64> = random_matrix_seeded(n, m, 7800);
    let mut expected = SymMatrix::zeros(n);
    syrk_sym(1.0, &a, 1.0, &mut expected).unwrap();
    let square = sharded(
        &a,
        &expected,
        nodes,
        s,
        BlockStrategy::SquareTiles,
        &mut failures,
    );
    let triangle = sharded(
        &a,
        &expected,
        nodes,
        s,
        BlockStrategy::TriangleBlocks,
        &mut failures,
    );
    let ratio = triangle.total_cross() as f64 / square.total_cross() as f64;
    println!(
        "\nsharded n={n} m={m} S={s} nodes={nodes}: cross-shard square {} triangle {} ratio {ratio:.4}",
        square.total_cross(),
        triangle.total_cross(),
    );
    if !(RATIO_BAND.0..=RATIO_BAND.1).contains(&ratio) {
        eprintln!(
            "FAIL: cross-shard ratio {ratio:.4} outside [{}, {}]",
            RATIO_BAND.0, RATIO_BAND.1
        );
        failures += 1;
    }
    if triangle.max_cross() >= square.max_cross() {
        eprintln!(
            "FAIL: triangle bottleneck {} did not beat square {}",
            triangle.max_cross(),
            square.max_cross()
        );
        failures += 1;
    }

    if !smoke {
        write_json(&rows, &square, &triangle, ratio);
        println!(
            "wrote bench/BENCH_multilevel.json ({} builder rows)",
            rows.len()
        );
    }

    println!("\n{failures} failure(s)");
    if failures > 0 {
        std::process::exit(1);
    }
}
