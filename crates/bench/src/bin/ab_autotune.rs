//! A/B gate for the cost-model-driven autotuner: for every schedule builder
//! a tuned `run` searches the job's default `TuningSpace` under the NVMe
//! `MachineModel`, and the binary asserts the search paid off without ever
//! lying about it:
//!
//! 1. **Never worse than the standard pipeline.** The winner's modelled
//!    nanoseconds must be `<=` the candidate with the `standard()` pipeline
//!    at lookahead 0 (present in every default space), i.e. autotuning never
//!    loses to the previous one-knob default.
//! 2. **Bitwise-equal results.** The tuned execution's output must equal the
//!    plain (un-tuned, un-optimized) run's output exactly — the tuner may
//!    only pick configurations that re-chunk accumulation chains, never
//!    reorder them.
//! 3. **Zero executions during tuning.** Every candidate is scored from
//!    dry-run `IoStats` + the static wall-clock model alone; the proof is
//!    operational: the *measured* stats of the executed winner must equal the
//!    winner candidate's dry-run stats field for field, and the measured
//!    modelled time is priced from the same schedule the scorer saw.
//! 4. **Gap to bound reported.** Each winner reports its load volume over
//!    the paper's `mults/√(S/2)` lower bound — the machine-readable answer
//!    to "how far from I/O-optimal did the tuner land?".
//!
//! Any violation exits non-zero — this is the CI smoke gate (`--smoke` runs
//! the small instance set and skips the JSON dump). A full run additionally
//! writes `bench/BENCH_autotune.json` with one record per (builder, instance).
//!
//! ```text
//! cargo run --release -p symla-bench --bin ab_autotune            # full sweep + JSON
//! cargo run --release -p symla-bench --bin ab_autotune -- --smoke # CI gate
//! ```

use std::fmt::Write as _;
use symla_core::api::{run, CholeskyAlgorithm, Job, RunOptions, RunOutcome, SyrkAlgorithm};
use symla_core::PassPipeline;
use symla_matrix::generate::{
    random_matrix_seeded, random_spd_seeded, random_symmetric, seeded_rng,
};
use symla_matrix::{Matrix, SymMatrix};
use symla_memory::MachineModel;

/// One gated (builder, instance) outcome, also the JSON row.
struct Row {
    algorithm: String,
    n: usize,
    memory: usize,
    evaluated: usize,
    skipped: usize,
    tile: Option<usize>,
    pipeline: String,
    lookahead: usize,
    winner_ns: f64,
    standard_l0_ns: f64,
    gap_to_bound: Option<f64>,
    loads: u64,
    checks: Vec<&'static str>,
}

/// Human name for the pipelines the default spaces contain.
fn pipeline_name(p: &PassPipeline) -> String {
    if *p == PassPipeline::none() {
        "none".to_string()
    } else if *p == PassPipeline::standard() {
        "standard".to_string()
    } else if *p == PassPipeline::locality(p.budget) {
        match p.budget {
            Some(b) => format!("locality({b})"),
            None => "locality".to_string(),
        }
    } else {
        "custom".to_string()
    }
}

/// Runs the shared gates on one autotuned run and returns its report row.
///
/// `bitwise_ok` is the caller's comparison of the tuned result against the
/// plain run's result; everything else is read off the [`RunOutcome`].
fn gate(algorithm: &str, n: usize, memory: usize, run: &RunOutcome<f64>, bitwise_ok: bool) -> Row {
    let tuning = run.tuning.as_ref().expect("a tuned run reports its search");
    let winner = tuning.winner();
    let mut checks: Vec<&'static str> = Vec::new();

    // Gate 1: the standard()-pipeline / lookahead-0 / default-tile candidate
    // is in every default space; the winner must not be modelled slower.
    let standard_l0 = tuning
        .candidates
        .iter()
        .find(|c| {
            c.config.tile.is_none()
                && c.config.pipeline == PassPipeline::standard()
                && c.config.lookahead == 0
                && c.config.workers == 1
        })
        .map(|c| c.modelled_ns);
    let standard_l0_ns = match standard_l0 {
        Some(ns) => {
            if winner.modelled_ns > ns {
                checks.push("WORSE THAN STANDARD");
            }
            ns
        }
        None => {
            checks.push("STANDARD@L0 MISSING");
            f64::NAN
        }
    };

    // Gate 2: tuned result bitwise-equal to the plain run.
    if !bitwise_ok {
        checks.push("RESULT DIFFERS");
    }

    // Gate 3: the executed winner's measured stats must equal the stats the
    // scorer derived without executing — dry-run scoring matched reality.
    if run.report.stats != winner.stats {
        checks.push("DRY-RUN STATS DIVERGED");
    }

    // Gate 4: the gap to the paper's bound must be reportable and sane.
    match winner.gap_to_bound {
        Some(gap) if gap.is_finite() && gap > 0.0 => {}
        _ => checks.push("NO GAP-TO-BOUND"),
    }

    Row {
        algorithm: algorithm.to_string(),
        n,
        memory,
        evaluated: tuning.evaluated(),
        skipped: tuning.skipped,
        tile: winner.config.tile,
        pipeline: pipeline_name(&winner.config.pipeline),
        lookahead: winner.config.lookahead,
        winner_ns: winner.modelled_ns,
        standard_l0_ns,
        gap_to_bound: winner.gap_to_bound,
        loads: run.report.stats.volume.loads,
        checks,
    }
}

/// Options searching `job`'s default space against `model`.
fn tuned(job: &Job<'_, f64>, s: usize, model: &MachineModel) -> RunOptions<'static> {
    RunOptions {
        model: Some(*model),
        tuning: Some(job.tuning_space(s)),
        ..RunOptions::new(s)
    }
}

fn syrk_row(algorithm: SyrkAlgorithm, n: usize, m: usize, s: usize, model: &MachineModel) -> Row {
    let a: Matrix<f64> = random_matrix_seeded(n, m, 7100 + n as u64);
    let mut rng = seeded_rng(7200 + n as u64);
    let c0: SymMatrix<f64> = random_symmetric(n, &mut rng);

    let mut c_plain = c0.clone();
    let job = Job::Syrk {
        a: &a,
        c: &mut c_plain,
        alpha: 1.0,
        algorithm,
    };
    run(job, &RunOptions::new(s)).expect("plain SYRK");

    let mut c_tuned = c0.clone();
    let job = Job::Syrk {
        a: &a,
        c: &mut c_tuned,
        alpha: 1.0,
        algorithm,
    };
    let opts = tuned(&job, s, model);
    let run = run(job, &opts).expect("autotuned SYRK");

    gate(
        &format!("{} n={n} m={m}", algorithm.name()),
        n,
        s,
        &run,
        c_tuned == c_plain,
    )
}

fn cholesky_row(algorithm: CholeskyAlgorithm, n: usize, s: usize, model: &MachineModel) -> Row {
    let spd: SymMatrix<f64> = random_spd_seeded(n, 7300 + n as u64);

    let job = || Job::Cholesky { a: &spd, algorithm };
    let l_plain = run(job(), &RunOptions::new(s))
        .expect("plain Cholesky")
        .factor;

    let opts = tuned(&job(), s, model);
    let run = run(job(), &opts).expect("autotuned Chol");

    gate(
        &format!("{} n={n}", algorithm.name()),
        n,
        s,
        &run,
        run.factor == l_plain,
    )
}

fn gemm_row(n: usize, m: usize, p: usize, s: usize, model: &MachineModel) -> Row {
    let a: Matrix<f64> = random_matrix_seeded(n, m, 7400);
    let b: Matrix<f64> = random_matrix_seeded(m, p, 7401);
    let c0: Matrix<f64> = random_matrix_seeded(n, p, 7402);

    let mut c_plain = c0.clone();
    let job = Job::Gemm {
        a: &a,
        b: &b,
        c: &mut c_plain,
        alpha: 1.0,
    };
    run(job, &RunOptions::new(s)).expect("plain GEMM");

    let mut c_tuned = c0.clone();
    let job = Job::Gemm {
        a: &a,
        b: &b,
        c: &mut c_tuned,
        alpha: 1.0,
    };
    let opts = tuned(&job, s, model);
    let run = run(job, &opts).expect("autotuned GEMM");

    gate(
        &format!("OOC_GEMM n={n} m={m} p={p}"),
        n,
        s,
        &run,
        c_tuned == c_plain,
    )
}

/// All eight builders: SYRK x {TBS, tiled TBS, square blocks}, Cholesky x
/// {LBC, LBC-tiled, LBC-square, Béreux}, GEMM.
fn rows(smoke: bool, model: &MachineModel) -> Vec<Row> {
    let mut rows = vec![
        syrk_row(SyrkAlgorithm::Tbs, 30, 6, 60, model),
        syrk_row(SyrkAlgorithm::TbsTiled, 40, 6, 60, model),
        syrk_row(SyrkAlgorithm::SquareBlocks, 20, 5, 35, model),
        cholesky_row(CholeskyAlgorithm::Lbc, 36, 48, model),
        cholesky_row(CholeskyAlgorithm::LbcTiled, 36, 48, model),
        cholesky_row(CholeskyAlgorithm::LbcSquare, 36, 48, model),
        cholesky_row(CholeskyAlgorithm::Bereux, 24, 35, model),
        gemm_row(9, 7, 11, 35, model),
    ];
    if !smoke {
        rows.extend([
            syrk_row(SyrkAlgorithm::Tbs, 52, 8, 90, model),
            syrk_row(SyrkAlgorithm::TbsTiled, 80, 10, 120, model),
            syrk_row(SyrkAlgorithm::SquareBlocks, 40, 8, 80, model),
            cholesky_row(CholeskyAlgorithm::Lbc, 48, 80, model),
            cholesky_row(CholeskyAlgorithm::LbcTiled, 48, 80, model),
            cholesky_row(CholeskyAlgorithm::LbcSquare, 48, 80, model),
            cholesky_row(CholeskyAlgorithm::Bereux, 36, 63, model),
            gemm_row(14, 10, 14, 48, model),
        ]);
    }
    rows
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn write_json(rows: &[Row], model: &MachineModel) -> std::io::Result<()> {
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
            "    {{ \"algorithm\": \"{}\", \"n\": {}, \"memory\": {}, \
             \"evaluated\": {}, \"skipped\": {}, \"tile\": {}, \
             \"pipeline\": \"{}\", \"lookahead\": {}, \
             \"winner_modelled_ns\": {:.3}, \"standard_l0_modelled_ns\": {:.3}, \
             \"gap_to_bound\": {}, \"loads\": {} }}{}",
            json_escape(&row.algorithm),
            row.n,
            row.memory,
            row.evaluated,
            row.skipped,
            match row.tile {
                Some(t) => t.to_string(),
                None => "null".to_string(),
            },
            json_escape(&row.pipeline),
            row.lookahead,
            row.winner_ns,
            row.standard_l0_ns,
            match row.gap_to_bound {
                Some(g) => format!("{g:.6}"),
                None => "null".to_string(),
            },
            row.loads,
            if i + 1 == rows.len() { "" } else { "," }
        );
    }
    out.push_str("  ]\n}\n");
    std::fs::create_dir_all("bench")?;
    std::fs::write("bench/BENCH_autotune.json", out)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let model = MachineModel::nvme();

    println!(
        "{:<22} {:>4} {:>5}/{:<3} {:>5} {:<14} {:>2} {:>13} {:>13} {:>7}  check",
        "algorithm", "S", "eval", "skp", "tile", "pipeline", "L", "winner ns", "standard ns", "gap",
    );
    let mut failures = 0;
    let rows = rows(smoke, &model);
    for row in &rows {
        let check = if row.checks.is_empty() {
            "ok".to_string()
        } else {
            row.checks.join(" + ")
        };
        if check != "ok" {
            failures += 1;
        }
        println!(
            "{:<22} {:>4} {:>5}/{:<3} {:>5} {:<14} {:>2} {:>13.1} {:>13.1} {:>7.3}  {}",
            row.algorithm,
            row.memory,
            row.evaluated,
            row.skipped,
            match row.tile {
                Some(t) => t.to_string(),
                None => "-".to_string(),
            },
            row.pipeline,
            row.lookahead,
            row.winner_ns,
            row.standard_l0_ns,
            row.gap_to_bound.unwrap_or(f64::NAN),
            check
        );
    }

    if !smoke {
        write_json(&rows, &model).expect("write bench/BENCH_autotune.json");
        println!("\nwrote bench/BENCH_autotune.json ({} rows)", rows.len());
    }

    println!("\n{failures} failure(s)");
    if failures > 0 {
        std::process::exit(1);
    }
}
