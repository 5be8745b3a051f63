//! A/B sweep of wall-clock as a metric: modelled nanoseconds (latency
//! machine) and real elapsed nanoseconds for every schedule builder at
//! lookaheads 0 / 1 / 2, plus blocked-vs-naive micro-kernel timings and a
//! file-backed slow-memory cross-check.
//!
//! For each (algorithm, instance, lookahead) the binary
//!
//! 1. prices the schedule statically with [`modelled_time`] under the NVMe
//!    [`MachineModel`] — the deterministic wall-clock prediction;
//! 2. executes the schedule for real inside a [`LatencyMachine`] and asserts
//!    the measured model time is **bitwise equal** to the prediction, the
//!    slow-memory results are bitwise identical to the lookahead-0 run, and
//!    the modelled total never *increases* with the lookahead (prefetching
//!    must never be modelled slower);
//! 3. times the same execution for real (`time_median`, warm-up + median of
//!    N) and reports both clocks side by side. Prefetch planning is timed on
//!    its own; the replay is timed through [`Engine::execute_planned`] with
//!    the plan built beforehand.
//!
//! The update-style paper kernels (tiled TBS, OOC-GEMM) must additionally
//! show a strictly positive modelled speedup at `lookahead = 1`. The blocked
//! micro-kernels must agree bitwise with the naive reference kernels and not
//! run slower than `1/MICRO_SLACK` of their speed (each row names the
//! dispatch path the blocked kernel ran on, `fma` or `portable`; the naive
//! references are always portable); and the lookahead-0
//! replay against the file-backed slow memory must reproduce the simulated
//! machine's results and accounting exactly. Any violation exits non-zero —
//! this is the CI smoke gate (`--smoke` runs the small instance set and
//! skips the JSON dump).
//!
//! A full run additionally writes `bench/BENCH_wallclock.json` with one record per
//! (algorithm, lookahead) and per micro-kernel timing.
//!
//! ```text
//! cargo run --release -p symla-bench --bin ab_wallclock            # full sweep + JSON
//! cargo run --release -p symla-bench --bin ab_wallclock -- --smoke # CI gate
//! ```

use std::fmt::Write as _;
use std::time::Duration;
use symla_bench::corpus::{self, diagonally_dominant, Builder, Case, Operand};
use symla_bench::harness::time_median;
use symla_core::engine::{modelled_time, Engine, EngineConfig, PrefetchPlan};
use symla_matrix::generate::{
    random_lower_triangular, random_matrix_seeded, random_spd_seeded, random_symmetric, seeded_rng,
};
use symla_matrix::kernels::micro::{ger_view_blocked, spr_lower_view_blocked, DEFAULT_ROW_TILE};
use symla_matrix::kernels::views::{ger_view, spr_lower_view};
use symla_matrix::kernels::{kernel_path, KernelPath};
use symla_matrix::packed::packed_len;
use symla_matrix::views::{MatViewMut, PackedLowerViewMut};
use symla_memory::{
    FileSlowMemory, IoStats, LatencyMachine, MachineConfig, MachineModel, OocMachine, TimeStats,
};

/// How much slower than the naive reference a blocked micro-kernel may
/// measure before the gate fails. Real elapsed time is noisy in shared CI
/// runners, so the gate only rejects catastrophic regressions; the expected
/// (and full-sweep-reported) ratio is >= 1.
const MICRO_SLACK: f64 = 2.0;

/// Executes the schedule at the given lookahead inside a [`LatencyMachine`],
/// returning the final slow-memory contents and the measured model time.
fn execute_timed(case: &Case, model: &MachineModel, lookahead: usize) -> (Vec<Operand>, TimeStats) {
    let config = EngineConfig::with_lookahead(lookahead);
    let mut machine = LatencyMachine::new(
        OocMachine::<f64>::new(MachineConfig::with_capacity(case.capacity)),
        *model,
    );
    corpus::register(machine.inner_mut(), &case.operands);
    Engine::execute_with(&mut machine, &case.schedule, &config)
        .expect("schedule must execute within its planned capacity");
    let time = machine.time();
    let mut inner = machine.into_inner();
    (corpus::take(&mut inner, &case.operands), time)
}

/// Real elapsed times at the given lookahead, each a warm-up plus median of
/// `samples`: `(plan, replay)`. `plan` is the prefetch planning alone;
/// `replay` is one execution (machine setup + replay) with the plan built
/// once beforehand, so planning never lands in the replay time.
fn real_elapsed(case: &Case, lookahead: usize, samples: usize) -> (Duration, Duration) {
    let capacity = Some(case.capacity);
    let plan_time = time_median(1, samples, || {
        PrefetchPlan::for_lookahead(&case.schedule, lookahead, capacity)
    });
    let plan = PrefetchPlan::for_lookahead(&case.schedule, lookahead, capacity);
    let replay_time = time_median(1, samples, || {
        let mut machine = OocMachine::<f64>::new(MachineConfig::with_capacity(case.capacity));
        corpus::register(&mut machine, &case.operands);
        Engine::execute_planned(&mut machine, &case.schedule, &plan).expect("replay");
        machine
    });
    (plan_time, replay_time)
}

/// Replays the schedule (lookahead 0) against the **file-backed** slow
/// memory and returns its results and stats for the cross-check against the
/// simulated machine.
fn execute_file_backed(case: &Case) -> (Vec<Operand>, IoStats) {
    let mut machine = FileSlowMemory::<f64>::with_capacity(case.capacity)
        .expect("create file-backed slow memory");
    corpus::register(&mut machine, &case.operands);
    Engine::execute(&mut machine, &case.schedule).expect("file-backed replay");
    let stats = machine.stats().clone();
    (corpus::take(&mut machine, &case.operands), stats)
}

/// Plain simulated replay (lookahead 0): results and stats, for the
/// file-backed cross-check.
fn execute_simulated(case: &Case) -> (Vec<Operand>, IoStats) {
    let mut machine = OocMachine::<f64>::new(MachineConfig::with_capacity(case.capacity));
    corpus::register(&mut machine, &case.operands);
    Engine::execute(&mut machine, &case.schedule).expect("simulated replay");
    let stats = machine.stats().clone();
    (corpus::take(&mut machine, &case.operands), stats)
}

/// Whether the acceptance gate demands a strictly positive modelled speedup
/// at lookahead 1: the update-style paper kernels, tiled TBS and OOC-GEMM.
fn must_speed_up(case: &Case) -> bool {
    matches!(case.builder, Builder::TbsTiled | Builder::OocGemm)
}

fn syrk(builder: Builder, n: usize, m: usize, s: usize) -> Case {
    let a = random_matrix_seeded(n, m, 6100 + n as u64);
    let c = random_symmetric(n, &mut seeded_rng(6200 + n as u64));
    Case::syrk(builder, &a, &c, 1.0, s)
}

fn cholesky(builder: Builder, n: usize, s: usize) -> Case {
    Case::cholesky(builder, &random_spd_seeded(n, 6300 + n as u64), s)
}

fn trsm(m: usize, b: usize, s: usize) -> Case {
    let l = random_lower_triangular(b, &mut seeded_rng(6400 + b as u64));
    Case::trsm(&l, &random_matrix_seeded(m, b, 6500 + m as u64), s)
}

fn gemm(n: usize, m: usize, p: usize, s: usize) -> Case {
    let a = random_matrix_seeded(n, m, 6600);
    let b = random_matrix_seeded(m, p, 6601);
    Case::gemm(&a, &b, &random_matrix_seeded(n, p, 6602), 1.0, s)
}

fn lu(n: usize, s: usize) -> Case {
    Case::lu(&diagonally_dominant(random_matrix_seeded(n, n, 6700)), s)
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

/// One (algorithm, lookahead) row of the JSON dump.
struct Row {
    algorithm: String,
    memory: usize,
    lookahead: usize,
    time: TimeStats,
    plan: Duration,
    real: Duration,
}

/// One micro-kernel row: the naive reference against the blocked kernel.
struct KernelTiming {
    name: &'static str,
    naive: Duration,
    blocked: Duration,
    bitwise_equal: bool,
    /// The dispatch path the blocked kernel ran on. The naive reference is
    /// always portable, so on the FMA path `bitwise_equal` compares hardware
    /// against software fused multiply-add.
    path: KernelPath,
}

/// Times the blocked micro-kernels against their naive references on the
/// shapes the engine actually feeds them: tall-skinny panels whose `x`
/// exceeds L1, where row-tiling pays (the reference re-streams `x` per
/// column; the tile stays cache-hot across all columns).
fn micro_kernel_timings(samples: usize) -> Vec<KernelTiming> {
    let rows = 120_000;
    let cols = 10;
    let x: Vec<f64> = (0..rows).map(|i| (i as f64 * 0.37).sin()).collect();
    let y: Vec<f64> = (0..cols).map(|i| (i as f64 * 0.73).cos()).collect();
    let dense0: Vec<f64> = random_matrix_seeded::<f64>(rows, cols, 6800)
        .as_slice()
        .to_vec();
    let n = 900;
    let packed0: Vec<f64> = (0..packed_len(n)).map(|i| (i % 97) as f64 * 0.01).collect();

    let mut out = Vec::new();

    let mut naive_result = dense0.clone();
    let naive = time_median(1, samples, || {
        naive_result.copy_from_slice(&dense0);
        let mut v = MatViewMut::new(&mut naive_result, rows, cols).unwrap();
        ger_view(1.0625, &x, &y, &mut v).unwrap();
    });
    let mut blocked_result = dense0.clone();
    let blocked = time_median(1, samples, || {
        blocked_result.copy_from_slice(&dense0);
        let mut v = MatViewMut::new(&mut blocked_result, rows, cols).unwrap();
        ger_view_blocked(1.0625, &x, &y, &mut v, DEFAULT_ROW_TILE).unwrap();
    });
    out.push(KernelTiming {
        name: "ger",
        naive,
        blocked,
        bitwise_equal: naive_result == blocked_result,
        path: kernel_path(),
    });

    let xs: Vec<f64> = (0..n).map(|i| (i as f64 * 0.53).sin()).collect();
    let mut naive_result = packed0.clone();
    let naive = time_median(1, samples, || {
        naive_result.copy_from_slice(&packed0);
        let mut v = PackedLowerViewMut::new(&mut naive_result, n).unwrap();
        spr_lower_view(-0.5, &xs, &mut v).unwrap();
    });
    let mut blocked_result = packed0.clone();
    let blocked = time_median(1, samples, || {
        blocked_result.copy_from_slice(&packed0);
        let mut v = PackedLowerViewMut::new(&mut blocked_result, n).unwrap();
        spr_lower_view_blocked(-0.5, &xs, &mut v, DEFAULT_ROW_TILE).unwrap();
    });
    out.push(KernelTiming {
        name: "spr_lower",
        naive,
        blocked,
        bitwise_equal: naive_result == blocked_result,
        path: kernel_path(),
    });

    out
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn write_json(rows: &[Row], kernels: &[KernelTiming], model: &MachineModel) -> std::io::Result<()> {
    let mut out = String::from("{\n");
    let _ = writeln!(
        out,
        "  \"model\": {{ \"load_ns_per_elem\": {}, \"store_ns_per_elem\": {}, \
         \"fixed_event_ns\": {}, \"flop_ns\": {} }},",
        model.load_ns_per_elem, model.store_ns_per_elem, model.fixed_event_ns, model.flop_ns
    );
    out.push_str("  \"runs\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{ \"algorithm\": \"{}\", \"memory\": {}, \"lookahead\": {}, \
             \"modelled_ns\": {:.3}, \"io_ns\": {:.3}, \"compute_ns\": {:.3}, \
             \"hidden_ns\": {:.3}, \"modelled_speedup\": {:.6}, \"plan_ns\": {}, \"real_ns\": {} }}{}",
            json_escape(&row.algorithm),
            row.memory,
            row.lookahead,
            row.time.total_ns(),
            row.time.io_ns,
            row.time.compute_ns,
            row.time.hidden_ns,
            row.time.speedup(),
            row.plan.as_nanos(),
            row.real.as_nanos(),
            if i + 1 == rows.len() { "" } else { "," }
        );
    }
    out.push_str("  ],\n  \"kernels\": [\n");
    for (i, k) in kernels.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{ \"kernel\": \"{}\", \"path\": \"{}\", \"naive_ns\": {}, \
             \"blocked_ns\": {}, \"bitwise_equal\": {} }}{}",
            k.name,
            k.path.name(),
            k.naive.as_nanos(),
            k.blocked.as_nanos(),
            k.bitwise_equal,
            if i + 1 == kernels.len() { "" } else { "," }
        );
    }
    out.push_str("  ]\n}\n");
    std::fs::create_dir_all("bench")?;
    std::fs::write("bench/BENCH_wallclock.json", out)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let samples = if smoke { 3 } else { 5 };
    let model = MachineModel::nvme();

    println!(
        "{:<26} {:>4} {:>2} {:>14} {:>12} {:>8} {:>12} {:>12}  check",
        "algorithm", "S", "L", "modelled ns", "hidden ns", "speedup", "plan", "real",
    );
    let mut failures = 0;
    let mut rows: Vec<Row> = Vec::new();
    for case in cases(smoke) {
        let mut baseline: Option<Vec<Operand>> = None;
        let mut serial_ns = 0.0_f64;
        let mut prev_ns = f64::INFINITY;
        for lookahead in [0usize, 1, 2] {
            let (result, measured) = execute_timed(&case, &model, lookahead);
            let modelled = modelled_time(&case.schedule, &model, lookahead, Some(case.capacity));
            let (plan, real) = real_elapsed(&case, lookahead, samples);
            let mut checks: Vec<&str> = Vec::new();
            if measured.io_ns.to_bits() != modelled.io_ns.to_bits()
                || measured.compute_ns.to_bits() != modelled.compute_ns.to_bits()
                || measured.hidden_ns.to_bits() != modelled.hidden_ns.to_bits()
                || measured.groups != modelled.groups
            {
                checks.push("MODEL DIVERGED");
            }
            match &baseline {
                None => {
                    baseline = Some(result);
                    serial_ns = measured.total_ns();
                }
                Some(base) => {
                    if &result != base {
                        checks.push("RESULT DIFFERS");
                    }
                }
            }
            if measured.total_ns() > prev_ns {
                checks.push("MODELLED TIME GREW");
            }
            if lookahead == 1 && must_speed_up(&case) && measured.total_ns() >= serial_ns {
                checks.push("NO SPEEDUP");
            }
            prev_ns = measured.total_ns();
            let check = if checks.is_empty() {
                "ok".to_string()
            } else {
                checks.join(" + ")
            };
            if check != "ok" {
                failures += 1;
            }
            println!(
                "{:<26} {:>4} {:>2} {:>14.1} {:>12.1} {:>7.3}x {:>12.1?} {:>12.1?}  {}",
                case.name,
                case.capacity,
                lookahead,
                measured.total_ns(),
                measured.hidden_ns,
                if measured.total_ns() > 0.0 {
                    serial_ns / measured.total_ns()
                } else {
                    1.0
                },
                plan,
                real,
                check
            );
            rows.push(Row {
                algorithm: case.name.clone(),
                memory: case.capacity,
                lookahead,
                time: measured,
                plan,
                real,
            });
        }

        // File-backed cross-check: the on-disk slow memory must reproduce
        // the simulated machine's results and accounting exactly.
        let (sim_result, sim_stats) = execute_simulated(&case);
        let (file_result, file_stats) = execute_file_backed(&case);
        if file_result != sim_result {
            eprintln!("FAIL: {}: file-backed result differs", case.name);
            failures += 1;
        }
        if file_stats != sim_stats {
            eprintln!("FAIL: {}: file-backed stats differ", case.name);
            failures += 1;
        }
    }

    println!("\nmicro-kernels (in-memory; ger 120000x10, spr_lower n=900):");
    let kernels = micro_kernel_timings(if smoke { 5 } else { 15 });
    for k in &kernels {
        let (name, naive, blocked, path) = (k.name, k.naive, k.blocked, k.path.name());
        let ratio = naive.as_secs_f64() / blocked.as_secs_f64().max(f64::MIN_POSITIVE);
        let mut checks: Vec<&str> = Vec::new();
        if !k.bitwise_equal {
            checks.push("NOT BITWISE EQUAL");
        }
        if ratio < 1.0 / MICRO_SLACK {
            checks.push("BLOCKED KERNEL SLOW");
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
            "  {name:<12} {path:<8} naive {naive:>12?}  blocked {blocked:>12?}  speedup {ratio:>6.2}x  {check}"
        );
    }

    if !smoke {
        write_json(&rows, &kernels, &model).expect("write bench/BENCH_wallclock.json");
        println!(
            "\nwrote bench/BENCH_wallclock.json ({} run rows)",
            rows.len()
        );
    }

    println!("\n{failures} failure(s)");
    if failures > 0 {
        std::process::exit(1);
    }
}
