//! Closed-loop benchmark of out-of-core SYRK and Cholesky jobs: one client
//! runs one job at a time, single-threaded, for a fixed time.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones. The last line of standard output is one JSON object. See
//! `README.md` next to this crate for the workloads and metrics.

mod ceiling;
mod job;
mod kernels;
mod layers;
mod report;

use job::{check, run_job, JobRun, Operands, Res, SlowMemory, Tier, Workload, WORKLOADS};
use report::{median, peak_rss_mb, ratio, Metrics};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use symla::matrix::kernels::{cholesky_sym, syrk_sym};
use symla::matrix::SymMatrix;
use symla::memory::{FileSlowMemory, IoStats, MachineModel, OocMachine};
use symla::sched::{modelled_time_planned, Engine};

/// Timed jobs per run, at least, however long they take.
const MIN_JOBS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Res<Args> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let name = get("--workload").ok_or("missing --workload")?;
    let workload = *WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed = get("--seed")
        .unwrap_or("1")
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")
        .unwrap_or("10")
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match get("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// A scratch directory under the working directory, used as the process's
/// temp dir (so `FileSlowMemory` and the file ceiling stay inside it) and
/// removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn create() -> Res<Self> {
        let dir = std::env::current_dir()
            .map_err(|e| e.to_string())?
            .join(".perfbench_tmp")
            .join(std::process::id().to_string());
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        std::env::set_var("TMPDIR", &dir);
        Ok(Self(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| {
        let scratch = Scratch::create()?;
        match args.workload.tier {
            Tier::Memory => bench::<OocMachine<f64>>(&args, &scratch.0),
            Tier::File => bench::<FileSlowMemory<f64>>(&args, &scratch.0),
        }
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Jobs attempted and failed, with the first failure's message.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    first_error: Option<String>,
}

impl Tally {
    /// Records a job; returns it if it ran and passed its check.
    fn record(
        &mut self,
        outcome: Res<JobRun>,
        check: impl Fn(&JobRun) -> Res<()>,
    ) -> Option<JobRun> {
        self.attempted += 1;
        match outcome.and_then(|run| check(&run).map(|()| run)) {
            Ok(run) => Some(run),
            Err(e) => {
                self.fail(e);
                None
            }
        }
    }

    fn fail(&mut self, e: String) {
        eprintln!("perfbench: job failed: {e}");
        self.failed += 1;
        self.first_error.get_or_insert(e);
    }
}

fn bench<M: SlowMemory>(args: &Args, scratch: &Path) -> Res<()> {
    let w = &args.workload;
    let ops = Operands::generate(w, args.seed);
    let mut tally = Tally::default();

    // The warm-up job is checked but not timed. The dry run of its schedule
    // gives the transfer counts every job must reproduce; if it fails, every
    // later job fails its check too.
    let warm = run_job::<M>(w, &ops, false);
    let dry = match &warm {
        Ok(run) => Engine::dry_run(&run.compiled.schedule, "main"),
        Err(_) => IoStats::default(),
    };
    let checker = |run: &JobRun| check(w, &ops, run, &dry);
    tally.record(warm, checker);

    let mut metrics = Metrics::default();
    if args.trace {
        traced::<M>(args, scratch, &ops, &mut tally, checker, &mut metrics)?;
    } else {
        end_to_end::<M>(args, &ops, &dry, &mut tally, checker, &mut metrics);
    }
    let correct = tally.failed == 0;
    metrics.print(correct, tally.attempted, tally.failed);
    if let Some(e) = tally.first_error {
        eprintln!("perfbench: first failure: {e}");
    }
    Ok(())
}

/// Seconds the calibration probe takes at the reference machine speed that
/// the end-to-end times are scaled to.
const REFERENCE_CAL_S: f64 = 0.010;

/// The untraced run: timed jobs for `--seconds`, each after a calibration
/// probe. Times are reported at the reference machine speed: the median job
/// time times `REFERENCE_CAL_S` over the median probe time, so that drift in
/// the speed of a shared machine cancels.
fn end_to_end<M: SlowMemory>(
    args: &Args,
    ops: &Operands,
    dry: &IoStats,
    tally: &mut Tally,
    checker: impl Fn(&JobRun) -> Res<()> + Copy,
    metrics: &mut Metrics,
) {
    let w = &args.workload;
    let (mut job, mut setup, mut solve, mut cal) = (vec![], vec![], vec![], vec![]);
    let start = Instant::now();
    while job.len() < MIN_JOBS || start.elapsed().as_secs_f64() < args.seconds {
        let probe = ceiling::calibrate();
        if let Some(run) = tally.record(run_job::<M>(w, ops, false), checker) {
            eprintln!(
                "job {}: {:.4} s (setup {:.4} s, solve {:.4} s), probe {probe:.4} s",
                job.len(),
                run.wall_s,
                run.setup_s(),
                run.solve_s()
            );
            job.push(run.wall_s);
            setup.push(run.setup_s());
            solve.push(run.solve_s());
            cal.push(probe);
        } else if job.is_empty() && start.elapsed().as_secs_f64() > args.seconds {
            break;
        }
    }
    let scale = ratio(REFERENCE_CAL_S, median(&cal));
    let solve_s = median(&solve) * scale;
    metrics.push("job_s", median(&job) * scale, "s");
    metrics.push("setup_s", median(&setup) * scale, "s");
    metrics.push("solve_s", solve_s, "s");
    metrics.push(
        "solve_gflops",
        ratio(w.useful_flops(), solve_s) / 1e9,
        "GF/s",
    );
    let v = &dry.volume;
    metrics.push("io_volume_elems", (v.loads + v.stores) as f64, "elems");
    let events = dry.load_events + dry.store_events;
    metrics.push("io_events", events as f64, "count");
    let bound = w.load_lower_bound();
    metrics.push("volume_over_bound", ratio(v.loads as f64, bound), "ratio");
    metrics.push("peak_rss_mb", peak_rss_mb(), "MiB");
    eprintln!(
        "unscaled medians: job {:.4} s, setup {:.4} s, solve {:.4} s; probe {:.4} s",
        median(&job),
        median(&setup),
        median(&solve),
        median(&cal)
    );
}

/// Seconds each kernel is timed for.
const KERNEL_BUDGET_S: f64 = 0.15;

/// The traced run: ceilings, then untraced and traced jobs alternating for
/// `--seconds`, then the kernel, in-core and model references.
fn traced<M: SlowMemory>(
    args: &Args,
    scratch: &Path,
    ops: &Operands,
    tally: &mut Tally,
    checker: impl Fn(&JobRun) -> Res<()> + Copy,
    metrics: &mut Metrics,
) -> Res<()> {
    let w = &args.workload;
    let llc = ceiling::llc_bytes().unwrap_or(32 << 20);
    let cache_gbps = ceiling::memcpy_gbps(w.footprint_bytes(), 0.3);
    let dram_gbps = ceiling::memcpy_gbps(4 * llc, 0.5);
    let (fma, hardware_fma) = ceiling::fma_gflops(0.3);
    let (read_mbps, write_mbps) =
        ceiling::file_mbps(scratch, 64 << 20).map_err(|e| format!("file ceiling: {e}"))?;
    // Loads are set against the ceiling of the tier they come from.
    let load_ceiling_gbps = match w.tier {
        Tier::Memory => cache_gbps,
        Tier::File => read_mbps / 1e3,
    };

    let (mut plain_solve, mut traced_solve, mut cal) = (vec![], vec![], vec![]);
    let mut samples: Vec<Sample> = Vec::new();
    let mut last = None;
    let start = Instant::now();
    while samples.len() < MIN_JOBS || start.elapsed().as_secs_f64() < args.seconds {
        cal.push(ceiling::calibrate());
        if let Some(run) = tally.record(run_job::<M>(w, ops, false), checker) {
            plain_solve.push(run.solve_s());
        }
        if let Some(run) = tally.record(run_job::<M>(w, ops, true), checker) {
            traced_solve.push(run.solve_s());
            samples.push(layer_sample(&run, load_ceiling_gbps, fma));
            last = Some(run);
        } else if samples.is_empty() && start.elapsed().as_secs_f64() > args.seconds {
            break;
        }
    }
    // Every sample lists the same metrics in the same order.
    let column = |i: usize| median(&samples.iter().map(|s| s[i].1).collect::<Vec<_>>());
    for (i, (name, _, unit)) in samples
        .first()
        .cloned()
        .unwrap_or_default()
        .into_iter()
        .enumerate()
    {
        metrics.push(name, column(i), unit);
    }
    let plain = median(&plain_solve);
    metrics.push(
        "trace.overhead_frac",
        ratio(median(&traced_solve), plain) - 1.0,
        "ratio",
    );

    metrics.push("ceiling.llc_bytes", llc as f64, "bytes");
    metrics.push(
        "ceiling.memcpy_cache_bytes",
        w.footprint_bytes() as f64,
        "bytes",
    );
    metrics.push("ceiling.memcpy_cache_gbps", cache_gbps, "GB/s");
    metrics.push("ceiling.memcpy_dram_bytes", (4 * llc) as f64, "bytes");
    metrics.push("ceiling.memcpy_dram_gbps", dram_gbps, "GB/s");
    metrics.push("ceiling.fma_gflops", fma, "GF/s");
    metrics.push(
        "ceiling.fma_hardware",
        f64::from(u8::from(hardware_fma)),
        "bool",
    );
    metrics.push("ceiling.file_read_mbps", read_mbps, "MB/s");
    metrics.push("ceiling.file_write_mbps", write_mbps, "MB/s");
    metrics.push("ref.cal_s", median(&cal), "s");

    let Some(last) = last else {
        return Ok(());
    };
    let tallies = kernels::tally(&last.compiled.schedule);
    for kind in kernels::KINDS {
        let t = tallies.get(kind);
        let gflops = t.and_then(|t| t.common_shape()).map_or(0.0, |shape| {
            kernels::kernel_gflops(kind, shape, KERNEL_BUDGET_S)
        });
        metrics.push(
            format!("kernels.{kind}.calls"),
            t.map_or(0, |t| t.calls) as f64,
            "count",
        );
        let flops = t.map_or(0.0, |t| t.flops);
        metrics.push(format!("kernels.{kind}.flops"), flops, "flop");
        metrics.push(format!("kernels.{kind}.gflops"), gflops, "GF/s");
        metrics.push(
            format!("kernels.{kind}.over_fma"),
            ratio(gflops, fma),
            "ratio",
        );
    }

    let start = Instant::now();
    if w.is_syrk() {
        let mut c = SymMatrix::zeros(w.n);
        syrk_sym(1.0, &ops.a, 0.0, &mut c).map_err(|e| e.to_string())?;
    } else {
        cholesky_sym(&ops.c).map_err(|e| e.to_string())?;
    }
    let incore = start.elapsed().as_secs_f64();
    metrics.push("ref.incore_s", incore, "s");
    metrics.push("ref.solve_over_incore", ratio(plain, incore), "ratio");

    let model = match w.tier {
        Tier::Memory => MachineModel::dram(),
        Tier::File => MachineModel::nvme(),
    };
    let pred = modelled_time_planned(&last.compiled.schedule, &model, &last.compiled.plan);
    let pred_s = pred.total_ns() / 1e9;
    metrics.push("model.solve_pred_s", pred_s, "s");
    metrics.push("model.pred_over_real", ratio(pred_s, plain), "ratio");

    if w.tier == Tier::File {
        tally.attempted += 1;
        if let Err(e) = same_bits_in_memory(w, ops, &last) {
            tally.fail(e);
        }
    }
    Ok(())
}

/// Replays the traced job's schedule and plan on an `OocMachine` and checks
/// that the result is bitwise equal to the file-tier one.
fn same_bits_in_memory(w: &Workload, ops: &Operands, file_run: &JobRun) -> Res<()> {
    let mut machine = OocMachine::<f64>::create(w.s)?;
    machine.put_dense(ops.a.clone())?;
    let c_id = machine.put_symmetric(ops.c.clone())?;
    let compiled = &file_run.compiled;
    Engine::execute_planned(&mut machine, &compiled.schedule, &compiled.plan)
        .map_err(|e| e.to_string())?;
    let result = machine.take(c_id)?;
    let bits = |m: &SymMatrix<f64>| {
        m.as_packed()
            .iter()
            .map(|x| x.to_bits())
            .collect::<Vec<_>>()
    };
    if bits(&result) != bits(&file_run.result) {
        return Err("file-tier result differs from the in-memory replay of the same plan".into());
    }
    Ok(())
}

/// Per-layer metrics of one traced job: `(name, value, unit)`.
type Sample = Vec<(&'static str, f64, &'static str)>;

/// The per-layer numbers of one traced job. `load_ceiling_gbps` is the
/// bandwidth of the tier the loads come from; `fma` the FMA ceiling.
fn layer_sample(run: &JobRun, load_ceiling_gbps: f64, fma: f64) -> Sample {
    let span = |name| run.spans.get(name);
    let m = run.machine.clone().unwrap_or_default();
    let c = &run.compiled;
    let replay = span("replay");
    let engine_self = replay - m.secs();
    let engine_gflops = ratio(m.flops as f64, engine_self) / 1e9;
    let gbps = |elems: u64, secs: f64| ratio(8.0 * elems as f64, secs) / 1e9;
    let load_gbps = gbps(m.load.elems, m.load.secs);
    vec![
        ("build.s", span("build"), "s"),
        ("build.groups", c.built_groups as f64, "count"),
        ("build.steps", c.built_steps as f64, "count"),
        ("passes.rewrite_s", span("passes.rewrite"), "s"),
        ("passes.verify_s", span("passes.verify"), "s"),
        ("passes.loads_saved_elems", c.loads_saved as f64, "elems"),
        ("passes.events_saved", c.events_saved as f64, "count"),
        ("prefetch.plan_s", span("prefetch"), "s"),
        (
            "prefetch.planned_elems",
            c.plan.planned_elements as f64,
            "elems",
        ),
        (
            "prefetch.planned_events",
            c.plan.planned_events as f64,
            "count",
        ),
        ("engine.replay_s", replay, "s"),
        ("engine.self_s", engine_self, "s"),
        ("engine.groups", c.schedule.num_groups() as f64, "count"),
        ("engine.compute_gflops", engine_gflops, "GF/s"),
        (
            "engine.compute_over_fma",
            ratio(engine_gflops, fma),
            "ratio",
        ),
        ("memory.insert_s", span("insert"), "s"),
        ("memory.take_s", span("take"), "s"),
        ("memory.alloc_s", m.alloc.secs, "s"),
        ("memory.discard_s", m.discard.secs, "s"),
        ("memory.load_calls", m.load.calls as f64, "count"),
        ("memory.load_elems", m.load.elems as f64, "elems"),
        ("memory.load_s", m.load.secs, "s"),
        ("memory.load_gbps", load_gbps, "GB/s"),
        (
            "memory.load_over_ceiling",
            ratio(load_gbps, load_ceiling_gbps),
            "ratio",
        ),
        ("memory.store_calls", m.store.calls as f64, "count"),
        ("memory.store_elems", m.store.elems as f64, "elems"),
        ("memory.store_s", m.store.secs, "s"),
        (
            "memory.store_gbps",
            gbps(m.store.elems, m.store.secs),
            "GB/s",
        ),
        ("trace.job_s", run.wall_s, "s"),
        (
            "trace.unaccounted_frac",
            ratio(run.wall_s - run.spans.total(), run.wall_s),
            "ratio",
        ),
    ]
}
