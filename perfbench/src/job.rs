//! The workloads and the job each one runs: insert the operands into a fresh
//! machine, compile (builder, pass pipeline, prefetch planner), replay, take
//! the result back, and check it.

use crate::layers::{MachineTimes, Spans, TimedMachine};
use std::time::Instant;
use symla::baselines::{ooc_syrk_schedule, OocSyrkPlan};
use symla::core::{
    bounds, lbc_schedule, tbs_tiled_schedule, LbcPlan, TbsTiledPlan, TrailingUpdate,
};
use symla::matrix::generate::{random_matrix_seeded, random_spd_seeded, seeded_rng};
use symla::matrix::{Matrix, SymMatrix};
use symla::memory::{
    FileSlowMemory, IoStats, MachineConfig, MachineOps, MatrixId, OocMachine, PanelRef,
    SymWindowRef,
};
use symla::sched::passes::verify::check_equivalent;
use symla::sched::{Engine, PassPipeline, PrefetchPlan, Schedule};

pub type Res<T> = Result<T, String>;

/// Which slow memory a workload replays against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// The in-memory `OocMachine`.
    Memory,
    /// `FileSlowMemory`: every transfer is a syscall on a temp file.
    File,
}

/// The schedule builder a workload compiles with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Builder {
    /// Tiled TBS SYRK (`TbsTiledPlan::for_problem`).
    TbsTiled,
    /// Béreux's square-block SYRK (`OocSyrkPlan::for_memory`).
    SquareBlocks,
    /// LBC Cholesky with tiled-TBS trailing updates.
    LbcTiled,
}

/// One named workload. `m` is 0 for Cholesky.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub builder: Builder,
    pub n: usize,
    pub m: usize,
    pub s: usize,
    pub tier: Tier,
    pub passes: bool,
    pub lookahead: usize,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "syrk-tiled-file",
        builder: Builder::TbsTiled,
        n: 1024,
        m: 128,
        s: 8192,
        tier: Tier::File,
        passes: true,
        lookahead: 2,
    },
    Workload {
        name: "syrk-square-mem",
        builder: Builder::SquareBlocks,
        n: 2048,
        m: 128,
        s: 16384,
        tier: Tier::Memory,
        passes: false,
        lookahead: 0,
    },
    Workload {
        name: "chol-lbc-mem",
        builder: Builder::LbcTiled,
        n: 1024,
        m: 0,
        s: 8192,
        tier: Tier::Memory,
        passes: false,
        lookahead: 2,
    },
];

impl Workload {
    pub fn is_syrk(&self) -> bool {
        self.builder != Builder::LbcTiled
    }

    /// Useful flops of one job: `n²m` for SYRK, `n³/3` for Cholesky.
    pub fn useful_flops(&self) -> f64 {
        let n = self.n as f64;
        if self.is_syrk() {
            n * n * self.m as f64
        } else {
            n * n * n / 3.0
        }
    }

    /// The communication lower bound on loads for this problem.
    pub fn load_lower_bound(&self) -> f64 {
        let (n, s) = (self.n as f64, self.s as f64);
        if self.is_syrk() {
            bounds::syrk_lower_bound(n, self.m as f64, s)
        } else {
            bounds::cholesky_lower_bound(n, s)
        }
    }

    /// Bytes the operands occupy in slow memory (8-byte elements).
    pub fn footprint_bytes(&self) -> usize {
        8 * (self.n * self.m + self.n * (self.n + 1) / 2)
    }
}

/// The job's inputs: `a` is the SYRK panel (`n × m`) or, for Cholesky, unused
/// and empty; `c` is the SYRK accumulator (zeros) or the SPD matrix.
pub struct Operands {
    pub a: Matrix<f64>,
    pub c: SymMatrix<f64>,
    /// Seeded probe vector of the residual check.
    pub probe: Vec<f64>,
}

impl Operands {
    pub fn generate(w: &Workload, seed: u64) -> Self {
        let (a, c) = if w.is_syrk() {
            (random_matrix_seeded(w.n, w.m, seed), SymMatrix::zeros(w.n))
        } else {
            (Matrix::zeros(0, 0), random_spd_seeded(w.n, seed))
        };
        let mut rng = seeded_rng(seed ^ 0x05ee_d0f9_e0be);
        let probe = (0..w.n).map(|_| 2.0 * rng.next_f64() - 1.0).collect();
        Self { a, c, probe }
    }
}

/// A slow memory the benchmark can build, fill and empty.
pub trait SlowMemory: MachineOps<f64> + Sized {
    fn create(s: usize) -> Res<Self>;
    fn put_dense(&mut self, m: Matrix<f64>) -> Res<MatrixId>;
    fn put_symmetric(&mut self, s: SymMatrix<f64>) -> Res<MatrixId>;
    fn take(&mut self, id: MatrixId) -> Res<SymMatrix<f64>>;
    fn io_stats(&self) -> &IoStats;
}

impl SlowMemory for OocMachine<f64> {
    fn create(s: usize) -> Res<Self> {
        Ok(OocMachine::new(MachineConfig::with_capacity(s)))
    }
    fn put_dense(&mut self, m: Matrix<f64>) -> Res<MatrixId> {
        Ok(self.insert_dense(m))
    }
    fn put_symmetric(&mut self, s: SymMatrix<f64>) -> Res<MatrixId> {
        Ok(self.insert_symmetric(s))
    }
    fn take(&mut self, id: MatrixId) -> Res<SymMatrix<f64>> {
        self.take_symmetric(id).map_err(|e| e.to_string())
    }
    fn io_stats(&self) -> &IoStats {
        self.stats()
    }
}

impl SlowMemory for FileSlowMemory<f64> {
    fn create(s: usize) -> Res<Self> {
        FileSlowMemory::new(MachineConfig::with_capacity(s)).map_err(|e| e.to_string())
    }
    fn put_dense(&mut self, m: Matrix<f64>) -> Res<MatrixId> {
        self.insert_dense(m).map_err(|e| e.to_string())
    }
    fn put_symmetric(&mut self, s: SymMatrix<f64>) -> Res<MatrixId> {
        self.insert_symmetric(s).map_err(|e| e.to_string())
    }
    fn take(&mut self, id: MatrixId) -> Res<SymMatrix<f64>> {
        self.take_symmetric(id).map_err(|e| e.to_string())
    }
    fn io_stats(&self) -> &IoStats {
        self.stats()
    }
}

/// The output of the compile step.
pub struct Compiled {
    pub schedule: Schedule<f64>,
    pub plan: PrefetchPlan,
    /// Groups and steps of the builder's schedule, before the passes.
    pub built_groups: usize,
    pub built_steps: usize,
    pub loads_saved: i64,
    pub events_saved: i64,
}

/// One finished job.
pub struct JobRun {
    pub result: SymMatrix<f64>,
    pub stats: IoStats,
    pub compiled: Compiled,
    pub spans: Spans,
    /// Seconds from the first step to the last, measured around the spans.
    pub wall_s: f64,
    /// Machine-call times of the replay (traced jobs only).
    pub machine: Option<MachineTimes>,
}

impl JobRun {
    /// Steps 1–2: insert and compile.
    pub fn setup_s(&self) -> f64 {
        [
            "insert",
            "build",
            "passes",
            "passes.rewrite",
            "passes.verify",
            "prefetch",
        ]
        .iter()
        .map(|s| self.spans.get(s))
        .sum()
    }

    /// Steps 3–4: replay and take.
    pub fn solve_s(&self) -> f64 {
        self.spans.get("replay") + self.spans.get("take")
    }
}

/// Runs one job. A traced job times every machine call of the replay and
/// splits the pass pipeline into its rewrite and its verification.
pub fn run_job<M: SlowMemory>(w: &Workload, ops: &Operands, traced: bool) -> Res<JobRun> {
    let start = Instant::now();
    let mut spans = Spans::default();
    let (mut machine, out_id, a_id) = spans.time("insert", || -> Res<_> {
        let mut machine = M::create(w.s)?;
        if w.is_syrk() {
            let a_id = machine.put_dense(ops.a.clone())?;
            let c_id = machine.put_symmetric(ops.c.clone())?;
            Ok((machine, c_id, Some(a_id)))
        } else {
            let id = machine.put_symmetric(ops.c.clone())?;
            Ok((machine, id, None))
        }
    })?;
    let compiled = compile(w, &mut spans, out_id, a_id, traced)?;
    let machine_times = spans.time("replay", || -> Res<_> {
        if traced {
            let mut timed = TimedMachine::new(&mut machine);
            Engine::execute_planned(&mut timed, &compiled.schedule, &compiled.plan)
                .map_err(|e| e.to_string())?;
            Ok(Some(timed.times))
        } else {
            Engine::execute_planned(&mut machine, &compiled.schedule, &compiled.plan)
                .map_err(|e| e.to_string())?;
            Ok(None)
        }
    })?;
    let result = spans.time("take", || machine.take(out_id))?;
    let wall_s = start.elapsed().as_secs_f64();
    Ok(JobRun {
        result,
        stats: machine.io_stats().clone(),
        compiled,
        spans,
        wall_s,
        machine: machine_times,
    })
}

fn compile(
    w: &Workload,
    spans: &mut Spans,
    out_id: MatrixId,
    a_id: Option<MatrixId>,
    traced: bool,
) -> Res<Compiled> {
    let built = spans.time("build", || -> Res<Schedule<f64>> {
        let c_ref = SymWindowRef::full(out_id, w.n);
        let a_ref = a_id.map(|id| PanelRef::dense(id, w.n, w.m));
        let schedule = match (w.builder, a_ref) {
            (Builder::TbsTiled, Some(a_ref)) => {
                let plan = TbsTiledPlan::for_problem(w.s, w.n).map_err(|e| e.to_string())?;
                tbs_tiled_schedule(&a_ref, &c_ref, 1.0, &plan)
            }
            (Builder::SquareBlocks, Some(a_ref)) => {
                let plan = OocSyrkPlan::for_memory(w.s).map_err(|e| e.to_string())?;
                ooc_syrk_schedule(&a_ref, &c_ref, 1.0, &plan)
            }
            (Builder::LbcTiled, None) => {
                let plan = LbcPlan::for_problem(w.n, w.s)
                    .map_err(|e| e.to_string())?
                    .with_trailing(TrailingUpdate::TbsTiled);
                lbc_schedule(&c_ref, &plan)
            }
            _ => unreachable!("SYRK builders get a panel, Cholesky does not"),
        };
        schedule.map_err(|e| e.to_string())
    })?;
    let (built_groups, built_steps) = (built.num_groups(), built.num_steps());
    let (schedule, loads_saved, events_saved) = if !w.passes {
        (built, 0, 0)
    } else if traced {
        let pipeline = PassPipeline::standard().with_verify(false);
        let optimized = spans
            .time("passes.rewrite", || {
                pipeline.manager().optimize(&built, "main")
            })
            .map_err(|e| e.to_string())?;
        spans
            .time("passes.verify", || {
                check_equivalent(&built, &optimized.schedule)
            })
            .map_err(|e| e.to_string())?;
        let (l, e) = (optimized.loads_saved(), optimized.events_saved());
        (optimized.schedule, l, e)
    } else {
        let optimized = spans
            .time("passes", || {
                PassPipeline::standard().manager().optimize(&built, "main")
            })
            .map_err(|e| e.to_string())?;
        let (l, e) = (optimized.loads_saved(), optimized.events_saved());
        (optimized.schedule, l, e)
    };
    let plan = spans.time("prefetch", || {
        PrefetchPlan::plan(&schedule, w.lookahead, Some(w.s))
    });
    Ok(Compiled {
        schedule,
        plan,
        built_groups,
        built_steps,
        loads_saved,
        events_saved,
    })
}

/// Multiple of `n·ε` the probe residual may reach.
const RESIDUAL_FACTOR: f64 = 4.0;

/// Checks one job: the seeded probe residual within `RESIDUAL_FACTOR·n·ε`,
/// the transfer counts equal to the dry run of the schedule, and the peak
/// residency within `S`. Returns a description of the first failure.
pub fn check(w: &Workload, ops: &Operands, run: &JobRun, dry: &IoStats) -> Res<()> {
    let residual = if w.is_syrk() {
        syrk_residual(&ops.a, &run.result, &ops.probe)
    } else {
        cholesky_residual(&ops.c, &run.result, &ops.probe)
    };
    let tol = RESIDUAL_FACTOR * w.n as f64 * f64::EPSILON;
    if residual.is_nan() || residual > tol {
        return Err(format!("probe residual {residual:e} exceeds {tol:e}"));
    }
    let (got, want) = (&run.stats, dry);
    if got.volume != want.volume
        || got.load_events != want.load_events
        || got.store_events != want.store_events
    {
        return Err(format!(
            "I/O counts differ from the dry run: {:?}/{}+{} events vs {:?}/{}+{}",
            got.volume,
            got.load_events,
            got.store_events,
            want.volume,
            want.load_events,
            want.store_events
        ));
    }
    if got.peak_resident > w.s {
        return Err(format!(
            "peak residency {} exceeds S = {}",
            got.peak_resident, w.s
        ));
    }
    Ok(())
}

/// `‖C·x − A(Aᵀx)‖∞ / ‖|A|(|A|ᵀ|x|)‖∞` for `C = A·Aᵀ`.
fn syrk_residual(a: &Matrix<f64>, c: &SymMatrix<f64>, x: &[f64]) -> f64 {
    let n = a.rows();
    let (mut t, mut t_abs) = (Vec::new(), Vec::new());
    for l in 0..a.cols() {
        let col = a.col(l);
        t.push(col.iter().zip(x).map(|(a, x)| a * x).sum::<f64>());
        t_abs.push(col.iter().zip(x).map(|(a, x)| (a * x).abs()).sum::<f64>());
    }
    let (mut err, mut scale) = (0.0_f64, 0.0_f64);
    for i in 0..n {
        let cx: f64 = (0..n).map(|j| c.get(i, j) * x[j]).sum();
        let (mut aat, mut aat_abs) = (0.0, 0.0);
        for l in 0..a.cols() {
            let ail = a[(i, l)];
            aat += ail * t[l];
            aat_abs += ail.abs() * t_abs[l];
        }
        err = err.max((cx - aat).abs());
        scale = scale.max(aat_abs);
    }
    err / scale
}

/// `‖L(Lᵀx) − A·x‖∞ / ‖|L|(|L|ᵀ|x|)‖∞`, with `L` the lower triangle of `l`.
fn cholesky_residual(a: &SymMatrix<f64>, l: &SymMatrix<f64>, x: &[f64]) -> f64 {
    let n = a.order();
    let (mut w, mut w_abs) = (vec![0.0; n], vec![0.0; n]);
    for (i, &xi) in x.iter().enumerate() {
        for j in 0..=i {
            w[j] += l.get(i, j) * xi;
            w_abs[j] += (l.get(i, j) * xi).abs();
        }
    }
    let (mut err, mut scale) = (0.0_f64, 0.0_f64);
    for i in 0..n {
        let (mut llx, mut llx_abs) = (0.0, 0.0);
        for j in 0..=i {
            llx += l.get(i, j) * w[j];
            llx_abs += l.get(i, j).abs() * w_abs[j];
        }
        let ax: f64 = (0..n).map(|j| a.get(i, j) * x[j]).sum();
        err = err.max((llx - ax).abs());
        scale = scale.max(llx_abs);
    }
    err / scale
}
