//! A/B gate for the observability layer: observation must be *faithful*
//! (an observed replay is bitwise the unobserved replay), *consistent*
//! (the executed trace prices out exactly like the static replay and the
//! [`RunReport`](symla_obs::RunReport) counters equal the engine's
//! [`IoStats`] field for field) and *free when disabled* (replaying through
//! a [`NullObserver`] is indistinguishable from no instrumentation).
//!
//! For each (algorithm, lookahead) the binary
//!
//! 1. replays the schedule unobserved and again inside an
//!    [`InstrumentedMachine`] feeding a [`TraceRecorder`], asserting
//!    bitwise-identical slow-memory results and equal [`IoStats`];
//! 2. exports the executed trace on the **modelled** timebase and asserts it
//!    is **byte-equal** to the export of [`modelled_run_trace`], the static
//!    replay on a data-free machine — the timeline a trace viewer shows is exactly the
//!    deterministic wall-clock model, independent of host noise;
//! 3. records the observed run's [`IoStats`] into a [`MetricsRegistry`] and
//!    asserts every exported counter equals the corresponding stats field;
//! 4. validates every Chrome-trace export with the crate's own JSON parser.
//!
//! One overhead check per case replays the schedule through a
//! `NullObserver`-instrumented machine and compares against the plain
//! machine (median of N): the disabled path must not be more than
//! [`OBS_SLACK`]× slower (real elapsed time is noisy in shared CI runners,
//! so the gate only rejects catastrophic regressions). Finally a parallel
//! prefetched TBS SYRK (`run` with `workers: 4`, `lookahead: 2`) is traced
//! end to end and must yield a Perfetto-loadable file with one track per
//! worker, per-group spans and at least one prefetch issue→delivery arrow.
//!
//! Any violation exits non-zero — this is the CI smoke gate (`--smoke` runs
//! the small instance set and skips the JSON dump). A full run additionally
//! writes `bench/BENCH_obs.json` with one record per (algorithm, lookahead)
//! plus the overhead timings.
//!
//! ```text
//! cargo run --release -p symla-bench --bin ab_obs            # full sweep + JSON
//! cargo run --release -p symla-bench --bin ab_obs -- --smoke # CI gate
//! ```

use std::fmt::Write as _;
use std::time::Duration;
use symla_bench::corpus::{self, Builder, Case, Operand};
use symla_bench::harness::time_median;
use symla_core::api::{run, Job, RunOptions, SyrkAlgorithm};
use symla_core::engine::{modelled_run_trace, Engine, EngineConfig};
use symla_matrix::generate::{
    random_matrix_seeded, random_spd_seeded, random_symmetric, seeded_rng,
};
use symla_matrix::{Matrix, SymMatrix};
use symla_memory::{IoStats, MachineConfig, MachineModel, OocMachine};
use symla_obs::{
    json, EventKind, InstrumentedMachine, MetricsRegistry, NullObserver, RunTrace, TimeBase,
    TraceRecorder,
};

/// How much slower than the plain machine the `NullObserver`-instrumented
/// replay may measure before the gate fails. The expected ratio is 1.0 (one
/// inlined boolean test per hook); the slack absorbs scheduler noise on
/// shared CI runners.
const OBS_SLACK: f64 = 2.0;

/// Parallel-trace attempts: thread start-up order decides whether all four
/// workers claim work before the queue drains, so the gate retries a few
/// times and accepts the first fully-populated trace.
const PARALLEL_ATTEMPTS: usize = 10;

fn fresh_machine(case: &Case) -> OocMachine<f64> {
    let mut machine = OocMachine::<f64>::new(MachineConfig::with_capacity(case.capacity));
    corpus::register(&mut machine, &case.operands);
    machine
}

/// Unobserved replay: results and stats.
fn execute_plain(case: &Case, lookahead: usize) -> (Vec<Operand>, IoStats) {
    let mut machine = fresh_machine(case);
    Engine::execute_with(
        &mut machine,
        &case.schedule,
        &EngineConfig::with_lookahead(lookahead),
    )
    .expect("plain replay");
    let stats = machine.stats().clone();
    (corpus::take(&mut machine, &case.operands), stats)
}

/// Observed replay: results, stats and the recorded trace.
fn execute_observed(
    case: &Case,
    model: &MachineModel,
    lookahead: usize,
) -> (Vec<Operand>, IoStats, RunTrace) {
    let recorder = TraceRecorder::new();
    let mut machine = InstrumentedMachine::new(fresh_machine(case), *model, recorder.clone(), 0);
    Engine::execute_with(
        &mut machine,
        &case.schedule,
        &EngineConfig::with_lookahead(lookahead),
    )
    .expect("observed replay");
    let mut inner = machine.into_inner();
    let stats = inner.stats().clone();
    (
        corpus::take(&mut inner, &case.operands),
        stats,
        recorder.finish(),
    )
}

/// Median real elapsed time of one full replay, through `instrumented`
/// (`NullObserver`) or the bare machine.
fn real_elapsed(case: &Case, lookahead: usize, samples: usize, instrumented: bool) -> Duration {
    let config = EngineConfig::with_lookahead(lookahead);
    let model = MachineModel::nvme();
    time_median(1, samples, || {
        if instrumented {
            let mut machine = InstrumentedMachine::new(fresh_machine(case), model, NullObserver, 0);
            Engine::execute_with(&mut machine, &case.schedule, &config).expect("replay");
        } else {
            let mut machine = fresh_machine(case);
            Engine::execute_with(&mut machine, &case.schedule, &config).expect("replay");
        }
    })
}

fn syrk(builder: Builder, n: usize, m: usize, s: usize) -> Case {
    let a = random_matrix_seeded(n, m, 6900 + n as u64);
    let c = random_symmetric(n, &mut seeded_rng(6950 + n as u64));
    Case::syrk(builder, &a, &c, 1.0, s)
}

fn lbc(n: usize, s: usize) -> Case {
    Case::cholesky(Builder::Lbc, &random_spd_seeded(n, 6970 + n as u64), s)
}

fn gemm(n: usize, m: usize, p: usize, s: usize) -> Case {
    let a = random_matrix_seeded(n, m, 6980);
    let b = random_matrix_seeded(m, p, 6981);
    Case::gemm(&a, &b, &random_matrix_seeded(n, p, 6982), 1.0, s)
}

fn cases(smoke: bool) -> Vec<Case> {
    use Builder::*;
    let mut cases = vec![
        syrk(Tbs, 30, 6, 60),
        syrk(TbsTiled, 40, 6, 60),
        syrk(OocSyrk, 20, 5, 35),
        lbc(36, 48),
        gemm(9, 7, 11, 35),
    ];
    if !smoke {
        cases.extend([
            syrk(Tbs, 52, 8, 90),
            syrk(TbsTiled, 80, 10, 120),
            lbc(48, 80),
            gemm(14, 10, 14, 48),
        ]);
    }
    cases
}

/// Asserts that every counter `record_io_stats` exports equals the
/// corresponding [`IoStats`] field. Returns `false` on any mismatch.
fn report_matches(stats: &IoStats) -> bool {
    let mut registry = MetricsRegistry::new();
    registry.record_io_stats("engine", stats);
    let pairs: [(&str, u128); 9] = [
        ("engine.loads.elements", stats.volume.loads.into()),
        ("engine.stores.elements", stats.volume.stores.into()),
        ("engine.load.events", stats.load_events.into()),
        ("engine.store.events", stats.store_events.into()),
        (
            "engine.prefetched.elements",
            stats.prefetched_elements.into(),
        ),
        ("engine.prefetch.events", stats.prefetch_events.into()),
        ("engine.flops.mults", stats.flops.mults),
        ("engine.flops.adds", stats.flops.adds),
        ("engine.peak_resident", stats.peak_resident as u128),
    ];
    pairs
        .iter()
        .all(|(name, want)| registry.counter(name) == *want)
        && json::validate(&registry.to_json()).is_ok()
}

/// One (algorithm, lookahead) row of the JSON dump.
struct Row {
    algorithm: String,
    memory: usize,
    lookahead: usize,
    events: usize,
    export_bytes: usize,
    prefetched_elements: u64,
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn write_json(rows: &[Row], overheads: &[(String, Duration, Duration)]) -> std::io::Result<()> {
    let mut out = String::from("{\n  \"runs\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{ \"algorithm\": \"{}\", \"memory\": {}, \"lookahead\": {}, \
             \"events\": {}, \"export_bytes\": {}, \"prefetched_elements\": {} }}{}",
            json_escape(&row.algorithm),
            row.memory,
            row.lookahead,
            row.events,
            row.export_bytes,
            row.prefetched_elements,
            if i + 1 == rows.len() { "" } else { "," }
        );
    }
    out.push_str("  ],\n  \"overhead\": [\n");
    for (i, (algorithm, plain, null_obs)) in overheads.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{ \"algorithm\": \"{}\", \"plain_ns\": {}, \"null_observer_ns\": {} }}{}",
            json_escape(algorithm),
            plain.as_nanos(),
            null_obs.as_nanos(),
            if i + 1 == overheads.len() { "" } else { "," }
        );
    }
    out.push_str("  ]\n}\n");
    std::fs::create_dir_all("bench")?;
    std::fs::write("bench/BENCH_obs.json", out)
}

/// The parallel end-to-end gate: traces a prefetched parallel TBS SYRK and
/// checks the exported timeline. Returns the failed checks of the last
/// attempt (empty on success).
fn parallel_gate(workers: usize, lookahead: usize) -> Vec<&'static str> {
    let (n, m, s) = (280usize, 64usize, 400usize);
    let a: Matrix<f64> = random_matrix_seeded(n, m, 7100);
    let plain = RunOptions {
        workers,
        lookahead,
        ..RunOptions::new(s)
    };
    let syrk = |c: &mut SymMatrix<f64>, opts: &RunOptions<'_>| {
        let job = Job::Syrk {
            a: &a,
            c,
            alpha: 1.0,
            algorithm: SyrkAlgorithm::Tbs,
        };
        run(job, opts)
    };

    let mut reference = SymMatrix::zeros(n);
    syrk(&mut reference, &plain).expect("plain parallel run");

    let mut checks: Vec<&'static str> = Vec::new();
    for attempt in 0..PARALLEL_ATTEMPTS {
        checks.clear();
        let recorder = TraceRecorder::new();
        let traced = RunOptions {
            model: Some(MachineModel::nvme()),
            recorder: Some(&recorder),
            ..plain.clone()
        };
        let mut c = SymMatrix::zeros(n);
        let outcome = syrk(&mut c, &traced).expect("traced parallel run");
        let report = outcome.parallel.expect("parallel report");
        let trace = recorder.finish();

        if c != reference {
            checks.push("RESULT DIFFERS");
        }
        let busy = report.per_worker.iter().filter(|w| w.tasks > 0).count();
        if busy < workers || trace.workers() < workers {
            checks.push("IDLE WORKER");
        }
        let issues = trace.count(|k| matches!(k, EventKind::PrefetchIssue { .. }));
        let deliveries = trace.count(|k| matches!(k, EventKind::PrefetchDelivery { .. }));
        if issues == 0 || deliveries == 0 {
            checks.push("NO PREFETCH ARROW");
        }
        let claims = trace.count(|k| matches!(k, EventKind::Claim { .. }));
        let spans = trace.count(|k| matches!(k, EventKind::GroupStart { .. }));
        if claims != spans || spans != trace.count(|k| matches!(k, EventKind::GroupEnd { .. })) {
            checks.push("UNBALANCED SPANS");
        }
        let export = trace.to_chrome_trace(&[TimeBase::Measured]);
        if json::validate(&export).is_err() {
            checks.push("BAD JSON");
        }
        if (0..workers).any(|w| !export.contains(&format!("\"worker {w}\""))) {
            checks.push("MISSING TRACK");
        }
        if checks.is_empty() {
            println!(
                "parallel TBS n={n} m={m} S={s} P={workers} L={lookahead}: \
                 {} events, {issues} issues, {deliveries} deliveries, \
                 attempt {attempt}  ok",
                trace.len()
            );
            return checks;
        }
    }
    checks
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let samples = if smoke { 5 } else { 9 };
    let model = MachineModel::nvme();

    println!(
        "{:<24} {:>4} {:>2} {:>8} {:>12}  check",
        "algorithm", "S", "L", "events", "export B",
    );
    let mut failures = 0;
    let mut rows: Vec<Row> = Vec::new();
    let mut overheads: Vec<(String, Duration, Duration)> = Vec::new();
    for case in cases(smoke) {
        for lookahead in [0usize, 1, 2] {
            let (plain_result, plain_stats) = execute_plain(&case, lookahead);
            let (obs_result, obs_stats, trace) = execute_observed(&case, &model, lookahead);
            let mut checks: Vec<&str> = Vec::new();
            if obs_result != plain_result {
                checks.push("RESULT DIFFERS");
            }
            if obs_stats != plain_stats {
                checks.push("STATS DIFFER");
            }
            if !report_matches(&obs_stats) {
                checks.push("REPORT MISMATCH");
            }
            let executed = trace.to_chrome_trace(&[TimeBase::Modelled]);
            let synthesized =
                modelled_run_trace(&case.schedule, &model, lookahead, Some(case.capacity))
                    .to_chrome_trace(&[TimeBase::Modelled]);
            if executed != synthesized {
                checks.push("TRACE DIVERGED");
            }
            if json::validate(&executed).is_err()
                || json::validate(&trace.to_chrome_trace(&[TimeBase::Measured])).is_err()
            {
                checks.push("BAD JSON");
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
                "{:<24} {:>4} {:>2} {:>8} {:>12}  {}",
                case.name,
                case.capacity,
                lookahead,
                trace.len(),
                executed.len(),
                check
            );
            rows.push(Row {
                algorithm: case.name.clone(),
                memory: case.capacity,
                lookahead,
                events: trace.len(),
                export_bytes: executed.len(),
                prefetched_elements: obs_stats.prefetched_elements,
            });
        }

        // Disabled-observer overhead: the NullObserver path must be
        // indistinguishable from the plain machine, up to CI noise.
        let plain = real_elapsed(&case, 1, samples, false);
        let null_obs = real_elapsed(&case, 1, samples, true);
        let ratio = null_obs.as_secs_f64() / plain.as_secs_f64().max(f64::MIN_POSITIVE);
        let slack = Duration::from_micros(200);
        let check = if null_obs > plain.mul_f64(OBS_SLACK) + slack {
            failures += 1;
            "DISABLED OBSERVER SLOW"
        } else {
            "ok"
        };
        println!(
            "  overhead: plain {plain:>10?}  null-observer {null_obs:>10?}  \
             ratio {ratio:>5.2}x  {check}"
        );
        overheads.push((case.name.clone(), plain, null_obs));
    }

    println!("\nparallel end-to-end trace:");
    let parallel_checks = parallel_gate(4, 2);
    if !parallel_checks.is_empty() {
        eprintln!("FAIL: parallel trace: {}", parallel_checks.join(" + "));
        failures += 1;
    }

    if !smoke {
        write_json(&rows, &overheads).expect("write bench/BENCH_obs.json");
        println!("\nwrote bench/BENCH_obs.json ({} run rows)", rows.len());
    }

    println!("\n{failures} failure(s)");
    if failures > 0 {
        std::process::exit(1);
    }
}
