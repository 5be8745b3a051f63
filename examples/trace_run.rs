//! Tracing a run end to end: execute an out-of-core SYRK under an
//! instrumented machine, export the timeline as Chrome-trace JSON, and
//! print the unified metrics report.
//!
//! ```text
//! cargo run --release --example trace_run
//! ```
//!
//! Writes `trace_serial.json` (serial prefetched run, measured + modelled
//! process tracks) and `trace_parallel.json` (P = 4 workers, one thread
//! track each, with flow arrows from every prefetch issue to the load that
//! consumes it) into the working directory. Open either file at
//! <https://ui.perfetto.dev> — no conversion needed.
//!
//! Observation changes nothing: a traced run returns bitwise the same
//! results and `IoStats` as an unobserved one, and the modelled
//! timestamps on every event are the wall-clock model of section 7 of
//! `docs/ARCHITECTURE.md`, bit for bit (both facts CI-gated by
//! `ab_obs --smoke`).

use symla::prelude::*;

fn main() {
    let model = MachineModel::nvme();

    // --- Serial: traced prefetched SYRK through the high-level API. ------
    let (n, m, s) = (96, 16, 160);
    let a = generate::random_matrix_seeded::<f64>(n, m, 11);
    let mut c = SymMatrix::<f64>::zeros(n);
    let recorder = TraceRecorder::new();
    let job = Job::Syrk {
        a: &a,
        c: &mut c,
        alpha: 1.0,
        algorithm: SyrkAlgorithm::TbsTiled,
    };
    let opts = RunOptions {
        pipeline: PassPipeline::standard(),
        lookahead: 2,
        model: Some(model),
        recorder: Some(&recorder),
        ..RunOptions::new(s)
    };
    let serial = run(job, &opts).unwrap();
    let trace = recorder.finish();
    let metrics = serial.metrics(format!("TBS(tiled) n={n} m={m} S={s} L=2"));

    // Two clocks per event; the modelled one is the static price, bitwise.
    assert!(serial.clock.unwrap().consistent());
    let export = trace.to_chrome_trace(&[TimeBase::Measured, TimeBase::Modelled]);
    std::fs::write("trace_serial.json", &export).unwrap();
    println!(
        "serial  TbsTiled N={n} M={m} S={s} L=2: {} events, {} loads hidden behind compute",
        trace.len(),
        serial.report.stats.prefetched_elements,
    );
    println!("        wrote trace_serial.json ({} bytes)", export.len());

    // The report mirrors the engine's accounting exactly.
    assert_eq!(
        metrics.registry.counter("engine.loads.elements"),
        serial.report.stats.volume.loads as u128,
    );
    println!();
    println!("{}", metrics.to_json());
    println!();

    // --- Parallel: P = 4 workers, one timeline track each. ---------------
    let (pn, pm, ps, workers, lookahead) = (280, 64, 400, 4, 2);
    let pa = generate::random_matrix_seeded::<f64>(pn, pm, 12);
    let mut pc = SymMatrix::<f64>::zeros(pn);
    let precorder = TraceRecorder::new();
    let job = Job::Syrk {
        a: &pa,
        c: &mut pc,
        alpha: 1.0,
        algorithm: SyrkAlgorithm::Tbs,
    };
    let opts = RunOptions {
        workers,
        lookahead,
        model: Some(model),
        recorder: Some(&precorder),
        ..RunOptions::new(ps)
    };
    let report = run(job, &opts).unwrap().parallel.unwrap();
    let ptrace = precorder.finish();
    let pexport = ptrace.to_chrome_trace(&[TimeBase::Measured]);
    std::fs::write("trace_parallel.json", &pexport).unwrap();

    let issues = ptrace.count(|k| matches!(k, EventKind::PrefetchIssue { .. }));
    let steals = ptrace.count(|k| matches!(k, EventKind::Claim { stolen: true, .. }));
    println!(
        "parallel TBS N={pn} M={pm} S={ps} P={workers} L={lookahead}: \
         {} events on {} worker tracks, {issues} prefetch arrows, {steals} steals",
        ptrace.len(),
        ptrace.workers(),
    );
    for (w, io) in report.per_worker.iter().enumerate() {
        println!(
            "        worker {w}: {} groups, {} loads, {} stores",
            io.tasks, io.loads, io.stores
        );
    }
    println!(
        "        wrote trace_parallel.json ({} bytes)",
        pexport.len()
    );
    println!();
    println!("open either file at https://ui.perfetto.dev");
}
