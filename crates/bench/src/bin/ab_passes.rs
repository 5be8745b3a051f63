//! A/B sweep of the schedule-optimization passes: seed vs optimized
//! transfer counts for every schedule builder and several block sizes.
//!
//! For each (algorithm, instance, pipeline) the binary
//!
//! 1. builds the seed schedule and dry-runs it;
//! 2. runs the pass pipeline (with symbolic verification) and dry-runs the
//!    optimized schedule;
//! 3. executes both schedules on identical machines and asserts the
//!    slow-memory results are **bitwise identical**;
//! 4. prints before/after load+store volumes and transfer-event counts and
//!    the per-pass attribution.
//!
//! The process exits non-zero if any pipeline *increases* any dry-run
//! transfer metric (volume or events, either direction) — this is the CI
//! smoke gate (`--smoke` runs the small instance set only).
//!
//! ```text
//! cargo run --release -p symla-bench --bin ab_passes            # full sweep
//! cargo run --release -p symla-bench --bin ab_passes -- --smoke # CI gate
//! ```

use symla_bench::corpus::{self, diagonally_dominant, Builder, Case, Operand};
use symla_core::engine::{Engine, Schedule};
use symla_core::passes::{Optimized, PassPipeline};
use symla_matrix::generate::{
    random_lower_triangular, random_matrix_seeded, random_spd_seeded, random_symmetric, seeded_rng,
};
use symla_memory::{MachineConfig, OocMachine};

fn execute(case: &Case, schedule: &Schedule<f64>) -> Vec<Operand> {
    let mut machine = OocMachine::<f64>::new(MachineConfig::unlimited());
    corpus::register(&mut machine, &case.operands);
    Engine::execute(&mut machine, schedule).expect("schedule must execute");
    corpus::take(&mut machine, &case.operands)
}

fn syrk(builder: Builder, n: usize, m: usize, s: usize) -> Case {
    let a = random_matrix_seeded(n, m, 4100 + n as u64);
    let c = random_symmetric(n, &mut seeded_rng(4200 + n as u64));
    Case::syrk(builder, &a, &c, 1.0, s)
}

fn cholesky(builder: Builder, n: usize, s: usize) -> Case {
    Case::cholesky(builder, &random_spd_seeded(n, 4300 + n as u64), s)
}

fn trsm(m: usize, b: usize, s: usize) -> Case {
    let l = random_lower_triangular(b, &mut seeded_rng(4400 + b as u64));
    Case::trsm(&l, &random_matrix_seeded(m, b, 4500 + m as u64), s)
}

fn gemm(n: usize, m: usize, p: usize, s: usize) -> Case {
    let a = random_matrix_seeded(n, m, 4600);
    let b = random_matrix_seeded(m, p, 4601);
    Case::gemm(&a, &b, &random_matrix_seeded(n, p, 4602), 1.0, s)
}

fn lu(n: usize, s: usize) -> Case {
    Case::lu(&diagonally_dominant(random_matrix_seeded(n, n, 4700)), s)
}

fn cases(smoke: bool) -> Vec<Case> {
    use Builder::*;
    let mut cases = vec![
        syrk(Tbs, 30, 6, 10),
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
            syrk(Tbs, 52, 8, 15),
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

struct Row {
    case: String,
    memory: usize,
    pipeline: &'static str,
    seed: symla_memory::IoStats,
    opt: symla_memory::IoStats,
    regressed: bool,
    bitwise_ok: bool,
}

impl Row {
    /// Transfer units saved: element volume plus transfer events, summed
    /// over both directions (negative = regression).
    fn saved(&self) -> i64 {
        let seed = self.seed.total_io() + self.seed.load_events + self.seed.store_events;
        let opt = self.opt.total_io() + self.opt.load_events + self.opt.store_events;
        seed as i64 - opt as i64
    }
}

fn run_case(case: &Case, pipeline: &PassPipeline, name: &'static str, verbose: bool) -> Row {
    let optimized: Optimized<f64> = pipeline
        .manager::<f64>()
        .optimize(&case.schedule, "main")
        .expect("pipeline must verify");
    let seed_result = execute(case, &case.schedule);
    let opt_result = execute(case, &optimized.schedule);
    if verbose {
        for stage in &optimized.stages {
            if !stage.report.is_noop() {
                println!("      {}", stage.report);
            }
        }
    }
    Row {
        case: case.name.clone(),
        memory: case.capacity,
        pipeline: name,
        seed: optimized.seed_stats.clone(),
        opt: optimized.final_stats.clone(),
        regressed: optimized.regressed(),
        bitwise_ok: seed_result == opt_result,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let verbose = args.iter().any(|a| a == "--verbose" || a == "-v");

    println!(
        "{:<26} {:>4} {:<9} {:>9} {:>9} {:>7} {:>7} {:>8} {:>8}  check",
        "algorithm", "S", "pipeline", "elts", "elts'", "events", "events'", "saved", "saved%",
    );
    let mut rows = Vec::new();
    for case in cases(smoke) {
        if verbose {
            println!("  -- {} (S={}) --", case.name, case.capacity);
        }
        rows.push(run_case(
            &case,
            &PassPipeline::standard(),
            "standard",
            verbose,
        ));
        rows.push(run_case(
            &case,
            &PassPipeline::locality(Some(2 * case.capacity)),
            "locality",
            verbose,
        ));
    }

    let mut failures = 0;
    let mut positive_savings = 0;
    for row in &rows {
        let seed_elts = row.seed.total_io();
        let opt_elts = row.opt.total_io();
        let seed_events = row.seed.load_events + row.seed.store_events;
        let opt_events = row.opt.load_events + row.opt.store_events;
        let saved = row.saved();
        let pct = if seed_elts + seed_events > 0 {
            100.0 * saved as f64 / (seed_elts + seed_events) as f64
        } else {
            0.0
        };
        if saved > 0 {
            positive_savings += 1;
        }
        let check = match (row.regressed, row.bitwise_ok) {
            (false, true) => "ok",
            (true, _) => "REGRESSED",
            (_, false) => "RESULT DIFFERS",
        };
        if check != "ok" {
            failures += 1;
        }
        println!(
            "{:<26} {:>4} {:<9} {:>9} {:>9} {:>7} {:>7} {:>8} {:>7.2}%  {}",
            row.case,
            row.memory,
            row.pipeline,
            seed_elts,
            opt_elts,
            seed_events,
            opt_events,
            saved,
            pct,
            check
        );
    }

    println!(
        "\n{} rows, {} with strictly positive transfer savings, {} failures",
        rows.len(),
        positive_savings,
        failures
    );
    // The acceptance gate: no pipeline may increase transfers, every result
    // must be bitwise-identical, and the paper algorithms must actually
    // save something (tiled TBS coalesces its strip loads on every listed
    // instance).
    let tiled_saves = rows
        .iter()
        .any(|r| r.case.starts_with("tbs_tiled") && r.saved() > 0);
    if !tiled_saves {
        eprintln!("FAIL: tiled TBS shows no measured saving");
        failures += 1;
    }
    if failures > 0 {
        std::process::exit(1);
    }
}
