//! The one front door: run a kernel out of core with a chosen schedule and
//! get back the result plus a full I/O report.
//!
//! A [`Job`] names the kernel, its operands and its algorithm;
//! [`RunOptions`] say how to run it — the fast-memory capacity, the pass
//! pipeline, the prefetch lookahead and, optionally, a machine model to
//! time the replay against, a recorder to trace it into and a tuning space
//! to search. [`run`] takes both, and so does
//! [`PlanService::run`](crate::service::PlanService::run), which fetches the
//! compiled plan from a cache instead of compiling it.
//!
//! Every run is the same four steps, each written once:
//!
//! 1. **compile** — build the schedule from the job's shape against the
//!    synthetic operand ids 0, 1, 2, then either optimize it with the
//!    pipeline and plan its prefetch lookahead, or let the autotuner pick
//!    tile, pipeline and lookahead;
//! 2. **register** — insert the operands in compile order into an
//!    [`OocMachine`], wrapped in a [`LatencyMachine`] when a model is set or
//!    in an [`InstrumentedMachine`] when a recorder is too;
//! 3. **replay** — [`Engine::execute_planned`] with the compiled plan (an
//!    empty plan is the plain serial replay), priced statically by
//!    [`modelled_time_planned`] with that same plan;
//! 4. **take** — extract the result and fill the report.
//!
//! With [`RunOptions::workers`] or [`RunOptions::shards`] above 1, steps 2–4
//! run on the parallel arm of [`crate::parallel`] instead: the same compiled
//! schedule, replayed by several workers against one shared slow memory.
//!
//! ```
//! use symla_core::api::{run, Job, RunOptions, SyrkAlgorithm};
//! use symla_matrix::{generate, SymMatrix};
//!
//! let a = generate::random_matrix_seeded::<f64>(64, 32, 1);
//! let mut c = SymMatrix::zeros(64);
//! let job = Job::Syrk { a: &a, c: &mut c, alpha: 1.0, algorithm: SyrkAlgorithm::Tbs };
//! let report = run(job, &RunOptions::new(36)).unwrap().report;
//! assert!(report.measured_loads() >= report.lower_bound as u64);
//! ```

use crate::bounds;
use crate::engine::{Engine, Schedule};
use crate::lbc::{lbc_cost, lbc_schedule};
use crate::parallel::{self, ParallelReport};
use crate::passes::{PassPipeline, StageOutcome};
use crate::plan::{LbcPlan, TbsPlan, TbsTiledPlan, TrailingUpdate};
use crate::tbs::{tbs_cost, tbs_schedule};
use crate::tbs_tiled::{tbs_tiled_cost, tbs_tiled_schedule};
use std::fmt;
use symla_baselines::error::{OocError, Result};
use symla_baselines::params::{square_tile_for_capacity, IoEstimate};
use symla_baselines::{
    ooc_chol_cost, ooc_chol_schedule, ooc_gemm_cost, ooc_gemm_schedule, ooc_syrk_cost,
    ooc_syrk_schedule, OocCholPlan, OocGemmPlan, OocSyrkPlan,
};
use symla_matrix::{LowerTriangular, Matrix, Scalar, SymMatrix};
use symla_memory::{
    IoStats, LatencyMachine, MachineConfig, MachineModel, MachineOps, MatrixId, OocMachine,
    PanelRef, SharedSlowMemory, SymWindowRef, TimeStats,
};
use symla_obs::{InstrumentedMachine, TraceRecorder};
use symla_sched::autotune::{Tuner, TuningReport, TuningSpace};
use symla_sched::timing::modelled_time_planned;
use symla_sched::PrefetchPlan;

/// Out-of-core SYRK schedules exposed by the high-level API.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyrkAlgorithm {
    /// The paper's element-level TBS (Algorithm 4).
    Tbs,
    /// The paper's tiled TBS (Section 5.1.4).
    TbsTiled,
    /// Béreux's square-block baseline.
    SquareBlocks,
}

impl SyrkAlgorithm {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            SyrkAlgorithm::Tbs => "TBS",
            SyrkAlgorithm::TbsTiled => "TBS(tiled)",
            SyrkAlgorithm::SquareBlocks => "OOC_SYRK",
        }
    }
}

/// Out-of-core Cholesky schedules exposed by the high-level API.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CholeskyAlgorithm {
    /// The paper's Large Block Cholesky with element-level TBS trailing
    /// updates.
    Lbc,
    /// LBC with tiled-TBS trailing updates.
    LbcTiled,
    /// LBC with square-block trailing updates (right-looking ablation).
    LbcSquare,
    /// Béreux's one-tile left-looking out-of-core Cholesky.
    Bereux,
}

impl CholeskyAlgorithm {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            CholeskyAlgorithm::Lbc => "LBC",
            CholeskyAlgorithm::LbcTiled => "LBC(tiled)",
            CholeskyAlgorithm::LbcSquare => "LBC(square trailing)",
            CholeskyAlgorithm::Bereux => "OOC_CHOL",
        }
    }
}

/// Outcome of one out-of-core run: measured statistics, the analytic
/// prediction, and the relevant bounds.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Name of the schedule that ran.
    pub algorithm: String,
    /// Result order `N`.
    pub n: usize,
    /// Number of columns `M` of the input panel (`None` for Cholesky).
    pub m: Option<usize>,
    /// Fast-memory capacity `S` in elements.
    pub memory: usize,
    /// Measured machine statistics.
    pub stats: IoStats,
    /// Analytic prediction of the same schedule (must agree exactly).
    pub predicted: IoEstimate,
    /// The paper's lower bound for this instance.
    pub lower_bound: f64,
    /// The best previously known lower bound.
    pub prior_lower_bound: f64,
}

impl RunReport {
    /// Measured load volume (elements moved slow → fast).
    pub fn measured_loads(&self) -> u64 {
        self.stats.volume.loads
    }

    /// Measured total traffic (loads + stores).
    pub fn measured_total(&self) -> u64 {
        self.stats.total_io()
    }

    /// Measured loads divided by the paper's lower bound (≥ 1 for any valid
    /// schedule; close to 1 for the optimal ones at large sizes).
    pub fn optimality_ratio(&self) -> f64 {
        if self.lower_bound == 0.0 {
            0.0
        } else {
            self.measured_loads() as f64 / self.lower_bound
        }
    }

    /// Normalized leading constant: `measured_loads / (N²M/√S)` for SYRK or
    /// `measured_loads / (N³/√S)` for Cholesky. The paper's constants to
    /// compare against are `1/√2` (TBS), `1` (OOC_SYRK), `1/(3√2)` (LBC) and
    /// `1/3` (OOC_CHOL).
    pub fn normalized_constant(&self) -> f64 {
        let nf = self.n as f64;
        let sf = (self.memory as f64).sqrt();
        let denom = match self.m {
            Some(m) => nf * nf * m as f64 / sf,
            None => nf * nf * nf / sf,
        };
        self.measured_loads() as f64 / denom
    }

    /// Whether the analytic prediction matches the measurement exactly.
    pub fn prediction_matches(&self) -> bool {
        self.predicted.loads == self.stats.volume.loads as u128
            && self.predicted.stores == self.stats.volume.stores as u128
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} on N={}{} with S={} elements:",
            self.algorithm,
            self.n,
            self.m.map(|m| format!(" M={m}")).unwrap_or_default(),
            self.memory
        )?;
        writeln!(
            f,
            "  loads {:>14}  stores {:>14}  peak resident {}",
            self.stats.volume.loads, self.stats.volume.stores, self.stats.peak_resident
        )?;
        writeln!(
            f,
            "  lower bound {:>12.4e}  optimality ratio {:.4}  normalized constant {:.4}",
            self.lower_bound,
            self.optimality_ratio(),
            self.normalized_constant()
        )
    }
}

/// Wall-clock view of one out-of-core run under a [`MachineModel`]: the
/// time a [`LatencyMachine`] accumulated while the schedule really executed
/// (`measured`) next to the purely static prediction of
/// [`modelled_time_planned`] (`modelled`).
///
/// The two walk the same events in the same order and must agree **bitwise**
/// — [`WallClock::consistent`] is the cheap self-check the benchmarks gate
/// on. `measured` is still *modelled* nanoseconds (the machine is simulated);
/// real elapsed time is the benchmark harness's job.
///
/// ```
/// use symla_core::api::{run, Job, RunOptions, SyrkAlgorithm};
/// use symla_matrix::{generate, SymMatrix};
/// use symla_memory::MachineModel;
///
/// let a = generate::random_matrix_seeded::<f64>(40, 6, 1);
/// let clock = |lookahead| {
///     let mut c = SymMatrix::zeros(40);
///     let job = Job::Syrk { a: &a, c: &mut c, alpha: 1.0, algorithm: SyrkAlgorithm::TbsTiled };
///     let opts = RunOptions { lookahead, model: Some(MachineModel::nvme()), ..RunOptions::new(60) };
///     run(job, &opts).unwrap().clock.unwrap()
/// };
/// let (serial, overlapped) = (clock(0), clock(1));
/// assert!(serial.consistent() && overlapped.consistent());
/// // Same transfers, but the lookahead hides loads behind compute.
/// assert!(overlapped.measured.total_ns() < serial.measured.total_ns());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct WallClock {
    /// Time accumulated by the [`LatencyMachine`] during the execution.
    pub measured: TimeStats,
    /// Time predicted by [`modelled_time_planned`] from the schedule alone.
    pub modelled: TimeStats,
}

impl WallClock {
    /// Whether the measured and modelled accounts agree bitwise (they must:
    /// a mismatch means the timing model and the engine disagree about the
    /// replay's event stream).
    pub fn consistent(&self) -> bool {
        self.measured.io_ns.to_bits() == self.modelled.io_ns.to_bits()
            && self.measured.compute_ns.to_bits() == self.modelled.compute_ns.to_bits()
            && self.measured.hidden_ns.to_bits() == self.modelled.hidden_ns.to_bits()
            && self.measured.groups == self.modelled.groups
    }
}

/// What one [`run`] returns: the [`RunReport`] of the measured execution
/// plus everything the options asked for.
///
/// `report.stats` measure the replay of the *compiled* schedule (optimized,
/// prefetched or tuned), so [`RunReport::prediction_matches`] only holds
/// when compiling changed no transfer; [`RunOutcome::seed_prediction_matches`]
/// is the invariant that always holds.
///
/// ```
/// use symla_core::api::{run, Job, RunOptions, SyrkAlgorithm};
/// use symla_core::passes::PassPipeline;
/// use symla_matrix::{generate, SymMatrix};
///
/// let a = generate::random_matrix_seeded::<f64>(40, 6, 1);
/// let mut c = SymMatrix::zeros(40);
/// let job = Job::Syrk { a: &a, c: &mut c, alpha: 1.0, algorithm: SyrkAlgorithm::TbsTiled };
/// let opts = RunOptions { pipeline: PassPipeline::standard(), ..RunOptions::new(60) };
/// let outcome = run(job, &opts).unwrap();
/// assert!(outcome.seed_prediction_matches());
/// assert!(outcome.events_saved() > 0); // coalesced contiguous loads
/// assert!(outcome.loads_saved() >= 0);
/// ```
#[derive(Debug, Clone)]
pub struct RunOutcome<T: Scalar> {
    /// The run report; `report.stats` is the measured execution.
    pub report: RunReport,
    /// Dry-run statistics of the seed schedule, before any pass ran.
    pub seed_stats: IoStats,
    /// Per-pass accounting recorded by the pass manager (empty without
    /// passes).
    pub stages: Vec<StageOutcome>,
    /// The Cholesky factor (`None` for SYRK and GEMM, whose result is
    /// written back into the job's `c`).
    pub factor: Option<LowerTriangular<T>>,
    /// Measured-vs-modelled time, when [`RunOptions::model`] is set.
    pub clock: Option<WallClock>,
    /// The search that picked the executed configuration, when
    /// [`RunOptions::tuning`] is set. Its winner's stats equal
    /// `report.stats` exactly: the tuner scores by replay, never guesses.
    pub tuning: Option<TuningReport>,
    /// Per-worker accounting of a parallel or sharded run (`None` for a
    /// serial one); `report.stats` is then the workers' merged stats.
    pub parallel: Option<ParallelReport>,
}

impl<T: Scalar> RunOutcome<T> {
    /// Load volume saved by compiling (elements).
    pub fn loads_saved(&self) -> i64 {
        self.seed_stats.volume.loads as i64 - self.report.stats.volume.loads as i64
    }

    /// Transfer events (loads + stores) saved by compiling.
    pub fn events_saved(&self) -> i64 {
        (self.seed_stats.load_events + self.seed_stats.store_events) as i64
            - (self.report.stats.load_events + self.report.stats.store_events) as i64
    }

    /// Whether the analytic cost model matches the *seed* schedule exactly.
    pub fn seed_prediction_matches(&self) -> bool {
        self.report.predicted.loads == self.seed_stats.volume.loads as u128
            && self.report.predicted.stores == self.seed_stats.volume.stores as u128
    }

    /// The run's counters as a machine-readable
    /// [`RunReport`](symla_obs::RunReport): the engine's [`IoStats`] under
    /// `engine.*` and, for a timed run, both sides of the clock under
    /// `time.measured.*` / `time.modelled.*`. The counters equal the
    /// engine's own accounting exactly (asserted by the `ab_obs` gate).
    pub fn metrics(&self, label: impl Into<String>) -> symla_obs::RunReport {
        let mut metrics = symla_obs::RunReport::new(label);
        metrics
            .registry
            .record_io_stats("engine", &self.report.stats);
        if let Some(clock) = &self.clock {
            metrics
                .registry
                .record_time_stats("time.measured", &clock.measured);
            metrics
                .registry
                .record_time_stats("time.modelled", &clock.modelled);
        }
        metrics
    }
}

/// How to run a [`Job`]. Build one with [`RunOptions::new`] and struct
/// update syntax; every field but `memory` defaults to "off".
///
/// ```
/// use symla_core::api::{run, Job, RunOptions, SyrkAlgorithm};
/// use symla_matrix::{generate, SymMatrix};
///
/// let a = generate::random_matrix_seeded::<f64>(40, 6, 1);
/// let mut c = SymMatrix::zeros(40);
/// let job = Job::Syrk { a: &a, c: &mut c, alpha: 1.0, algorithm: SyrkAlgorithm::TbsTiled };
/// let stats = run(job, &RunOptions { lookahead: 1, ..RunOptions::new(60) }).unwrap().report.stats;
/// // Some of the load stream overlapped the previous group's compute ...
/// assert!(stats.prefetched_elements > 0);
/// // ... within the same fast-memory capacity.
/// assert!(stats.peak_resident <= 60);
/// ```
#[derive(Debug, Clone)]
pub struct RunOptions<'r> {
    /// Fast-memory capacity `S` in elements.
    pub memory: usize,
    /// Pass pipeline that rewrites the schedule before replay. A residency
    /// budget above `memory` is clamped to it, so the optimized schedule
    /// still executes within the fast memory asked for.
    pub pipeline: PassPipeline,
    /// Prefetch lookahead in task groups (0 = plain serial replay): while
    /// one group computes, the loads of up to `lookahead` future groups
    /// issue into the capacity slack the (optimized) schedule leaves free.
    /// Volumes, results and the peak bound are unchanged; only the
    /// stalled/overlapped split moves. The left-looking factorizations
    /// keep any load of a region still pending a write in place, so their
    /// factor is bitwise-identical at every lookahead too.
    pub lookahead: usize,
    /// Machine model to price the replay against; the outcome then carries
    /// a [`WallClock`].
    pub model: Option<MachineModel>,
    /// Recorder receiving every group span, transfer, kernel and prefetch
    /// handoff of the replay, double-stamped with the real clock and the
    /// modelled timeline of `model` (required). Observation changes no
    /// result and no statistic.
    pub recorder: Option<&'r TraceRecorder>,
    /// Space the cost-model autotuner searches against `model` (required):
    /// every candidate is scored by a data-free replay and only the winner
    /// executes. The search picks the pipeline and lookahead, so those two
    /// fields must stay at [`PassPipeline::none`] and 0.
    pub tuning: Option<TuningSpace>,
    /// Workers replaying the schedule, each with a private fast memory of
    /// `memory` elements against one shared slow memory (the paper's §2.2
    /// parallel model). 1 with `shards == 1` is the serial run; anything
    /// else replays the same compiled schedule on the parallel arm, with
    /// the result bitwise equal to the serial one. Cholesky orders its
    /// groups through slow memory and only runs serially, and neither a
    /// tuning space nor a model without a recorder (there is no parallel
    /// modelled clock) goes with a parallel run.
    pub workers: usize,
    /// Shards of the shared slow memory: 1, or 2 to home the result on
    /// shard 0 (every worker's home) and the inputs on shard 1, with the
    /// groups assigned to workers statically by
    /// [`partition_groups`](symla_sched::partition_groups) so the report
    /// splits every worker's traffic into local and cross-shard volume. A
    /// sharded run takes neither a lookahead nor a recorder.
    pub shards: usize,
}

impl RunOptions<'_> {
    /// A plain serial run in a fast memory of `memory` elements.
    pub fn new(memory: usize) -> Self {
        Self {
            memory,
            pipeline: PassPipeline::none(),
            lookahead: 0,
            model: None,
            recorder: None,
            tuning: None,
            workers: 1,
            shards: 1,
        }
    }

    /// Whether the run replays on the parallel arm.
    pub(crate) fn is_parallel(&self) -> bool {
        self.workers != 1 || self.shards != 1
    }

    /// Rejects combinations the run cannot honour.
    fn check(&self) -> Result<()> {
        let reject = |why: &str| Err(OocError::Invalid(why.into()));
        if self.model.is_none() && (self.recorder.is_some() || self.tuning.is_some()) {
            return reject("a recorder or a tuning space needs a machine model");
        }
        if self.tuning.is_some() && (self.pipeline != PassPipeline::none() || self.lookahead != 0) {
            return reject(
                "a tuned run searches the pipeline and lookahead; leave them at none() and 0",
            );
        }
        if self.workers == 0 {
            return reject("a run needs at least one worker");
        }
        if !(1..=2).contains(&self.shards) {
            return reject("shards must be 1 (one slow memory) or 2 (result apart from inputs)");
        }
        if self.is_parallel() && self.tuning.is_some() {
            return reject("a tuned run replays serially; leave workers and shards at 1");
        }
        if self.is_parallel() && self.model.is_some() && self.recorder.is_none() {
            return reject("a parallel run has no modelled clock; a model needs a recorder there");
        }
        if self.shards == 2 && (self.lookahead != 0 || self.recorder.is_some()) {
            return reject("a sharded run takes neither a lookahead nor a recorder");
        }
        Ok(())
    }
}

/// One kernel invocation: the operands, the scalar and the schedule.
///
/// SYRK and GEMM update their `c` in place; Cholesky returns its factor in
/// [`RunOutcome::factor`]. GEMM (`C += alpha·A·B`, `A` `n×m`, `B` `m×p`) is
/// the non-symmetric comparison point of the paper, with a single
/// square-block schedule. Its report's `lower_bound` is the tight bound
/// `2·n·m·p/√S` (also the best previously known one), and its `m` field
/// holds the inner dimension, so [`RunReport::normalized_constant`] (which
/// assumes an `n²m` flop count) is only meaningful when `p = n`.
///
/// ```
/// use symla_core::api::{run, Job, RunOptions};
/// use symla_matrix::{generate, Matrix};
///
/// let a = generate::random_matrix_seeded::<f64>(24, 10, 1);
/// let b = generate::random_matrix_seeded::<f64>(10, 18, 2);
/// let mut c = Matrix::zeros(24, 18);
/// let job = Job::Gemm { a: &a, b: &b, c: &mut c, alpha: 1.0 };
/// let report = run(job, &RunOptions::new(36)).unwrap().report;
/// assert!(report.measured_loads() as f64 >= report.lower_bound);
/// assert!(report.prediction_matches());
/// ```
#[derive(Debug)]
pub enum Job<'a, T: Scalar> {
    /// `C += alpha·A·Aᵀ` on the lower triangle of the symmetric `C`.
    Syrk {
        /// The `n×m` input panel.
        a: &'a Matrix<T>,
        /// The symmetric `n×n` result, updated in place.
        c: &'a mut SymMatrix<T>,
        /// The update scale.
        alpha: T,
        /// The schedule.
        algorithm: SyrkAlgorithm,
    },
    /// The Cholesky factorization `A = L·Lᵀ` of a symmetric positive
    /// definite `A`.
    Cholesky {
        /// The matrix to factor (left untouched).
        a: &'a SymMatrix<T>,
        /// The schedule.
        algorithm: CholeskyAlgorithm,
    },
    /// `C += alpha·A·B`.
    Gemm {
        /// The `n×m` left operand.
        a: &'a Matrix<T>,
        /// The `m×p` right operand.
        b: &'a Matrix<T>,
        /// The `n×p` result, updated in place.
        c: &'a mut Matrix<T>,
        /// The update scale.
        alpha: T,
    },
}

impl<T: Scalar> Job<'_, T> {
    /// Display name of the job's schedule.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            Job::Syrk { algorithm, .. } => algorithm.name(),
            Job::Cholesky { algorithm, .. } => algorithm.name(),
            Job::Gemm { .. } => "OOC_GEMM(rect)",
        }
    }

    /// The kernel family, the first component of the job's plan key.
    pub(crate) fn kernel(&self) -> &'static str {
        match self {
            Job::Syrk { .. } => "syrk",
            Job::Cholesky { .. } => "cholesky",
            Job::Gemm { .. } => "gemm",
        }
    }

    /// The shape `(n, m, p)` the schedule is compiled for: the result order,
    /// the panel width (`n` for Cholesky) and GEMM's third dimension (0
    /// otherwise).
    pub(crate) fn dims(&self) -> (usize, usize, usize) {
        match self {
            Job::Syrk { a, c, .. } => (c.order(), a.cols(), 0),
            Job::Cholesky { a, .. } => (a.order(), a.order(), 0),
            Job::Gemm { a, b, .. } => (a.rows(), a.cols(), b.cols()),
        }
    }

    /// The scale `alpha` (`None` for Cholesky).
    pub(crate) fn alpha(&self) -> Option<T> {
        match self {
            Job::Syrk { alpha, .. } | Job::Gemm { alpha, .. } => Some(*alpha),
            Job::Cholesky { .. } => None,
        }
    }

    /// Rejects operands whose shapes disagree.
    fn check(&self) -> Result<()> {
        match self {
            Job::Syrk { a, c, .. } if a.rows() != c.order() => Err(OocError::Invalid(format!(
                "SYRK operand mismatch: A is {}x{} but C has order {}",
                a.rows(),
                a.cols(),
                c.order()
            ))),
            Job::Gemm { a, b, c, .. }
                if b.rows() != a.cols() || c.rows() != a.rows() || c.cols() != b.cols() =>
            {
                Err(OocError::Invalid(format!(
                    "GEMM operand mismatch: A is {}x{}, B is {}x{}, C is {}x{}",
                    a.rows(),
                    a.cols(),
                    b.rows(),
                    b.cols(),
                    c.rows(),
                    c.cols()
                )))
            }
            _ => Ok(()),
        }
    }

    /// Builds the job's seed schedule and analytic cost for capacity `s`
    /// against the synthetic operand ids of [`Job::register`]. `tile`
    /// overrides the planner default (see [`syrk_build`]).
    fn build(&self, s: usize, tile: Option<usize>) -> Result<(Schedule<T>, IoEstimate)> {
        let (n, m, p) = self.dims();
        match self {
            Job::Syrk {
                alpha, algorithm, ..
            } => syrk_build(*algorithm, n, m, *alpha, s, tile),
            Job::Cholesky { algorithm, .. } => cholesky_build(*algorithm, n, s, tile),
            Job::Gemm { alpha, .. } => gemm_build(n, m, p, *alpha, s, tile),
        }
    }

    /// The default [`TuningSpace`] of this job in a fast memory of `memory`
    /// elements: the planner-default tile plus neighbours of the schedule's
    /// natural parameter (`k` for the TBS variants, the square tile side for
    /// the baselines), the stock pipelines (none, standard, locality at the
    /// capacity), lookaheads 0–2, serial replay. It always contains the
    /// (`None`, [`PassPipeline::standard`], lookahead 0) point, so the tuned
    /// winner is never worse than the standard optimized run in modelled
    /// time.
    ///
    /// Every tile in it re-chunks, never reorders, each element's
    /// accumulation chain, so the tuned result is bitwise-identical to the
    /// untuned one. That is why the LBC variants keep the planner-default
    /// panel width: changing it changes the *order* the factor's partial
    /// sums accumulate in. Callers who accept numerically different but
    /// valid factors can pass a custom space with panel-width candidates.
    ///
    /// ```
    /// use symla_core::api::{run, Job, RunOptions, SyrkAlgorithm};
    /// use symla_matrix::{generate, SymMatrix};
    /// use symla_memory::MachineModel;
    ///
    /// let a = generate::random_matrix_seeded::<f64>(40, 6, 1);
    /// let mut c = SymMatrix::zeros(40);
    /// let job = Job::Syrk { a: &a, c: &mut c, alpha: 1.0, algorithm: SyrkAlgorithm::TbsTiled };
    /// let opts = RunOptions {
    ///     model: Some(MachineModel::nvme()),
    ///     tuning: Some(job.tuning_space(60)),
    ///     ..RunOptions::new(60)
    /// };
    /// let outcome = run(job, &opts).unwrap();
    /// // The measured replay is exactly what the search scored.
    /// assert_eq!(outcome.report.stats, outcome.tuning.unwrap().winner().stats);
    /// ```
    pub fn tuning_space(&self, memory: usize) -> TuningSpace {
        let s = memory;
        let mut tiles = vec![None];
        let mut push = |tile: usize| {
            if !tiles.contains(&Some(tile)) {
                tiles.push(Some(tile));
            }
        };
        match self {
            Job::Syrk {
                algorithm: SyrkAlgorithm::Tbs,
                ..
            } => {
                if let Ok(plan) = TbsPlan::for_memory(s) {
                    push(plan.k.saturating_sub(1).max(2));
                    push((plan.k / 2).max(2));
                }
            }
            Job::Syrk {
                algorithm: SyrkAlgorithm::TbsTiled,
                c,
                ..
            } => {
                if let Ok(plan) = TbsTiledPlan::for_problem(s, c.order()) {
                    push(plan.k + 1);
                    push(plan.k.saturating_sub(1).max(2));
                }
            }
            Job::Cholesky {
                algorithm:
                    CholeskyAlgorithm::Lbc | CholeskyAlgorithm::LbcTiled | CholeskyAlgorithm::LbcSquare,
                ..
            } => {}
            _ => {
                if let Ok(t) = square_tile_for_capacity(s) {
                    push((3 * t / 4).max(1));
                    push((t / 2).max(1));
                }
            }
        }
        TuningSpace::minimal()
            .with_tiles(tiles)
            .with_pipelines(vec![
                PassPipeline::none(),
                PassPipeline::standard(),
                PassPipeline::locality(Some(s)),
            ])
            .with_lookaheads(vec![0, 1, 2])
    }

    /// Step 2: inserts the operands in compile order (`A`, then `B`, then
    /// `C`), so the memory issues them the synthetic ids the schedule was
    /// built against. Returns the result operand's id.
    pub(crate) fn register(&self, memory: &mut impl SlowOperands<T>) -> MatrixId {
        match self {
            Job::Syrk { a, c, .. } => {
                memory.put_dense((*a).clone(), false);
                memory.put_symmetric((**c).clone(), true)
            }
            Job::Cholesky { a, .. } => memory.put_symmetric((*a).clone(), true),
            Job::Gemm { a, b, c, .. } => {
                memory.put_dense((*a).clone(), false);
                memory.put_dense((*b).clone(), false);
                memory.put_dense((**c).clone(), true)
            }
        }
    }

    /// Step 4: writes the result back into `c`, or returns the factor.
    pub(crate) fn take(
        &mut self,
        memory: &mut impl SlowOperands<T>,
        id: MatrixId,
    ) -> Result<Option<LowerTriangular<T>>> {
        match self {
            Job::Syrk { c, .. } => **c = memory.take_symmetric(id)?,
            Job::Gemm { c, .. } => **c = memory.take_dense(id)?,
            Job::Cholesky { a, .. } => {
                let result = memory.take_symmetric(id)?;
                let factor = LowerTriangular::from_lower_fn(a.order(), |i, j| result.get(i, j));
                return Ok(Some(factor));
            }
        }
        Ok(None)
    }

    /// The report of a run with the measured `stats`.
    fn report(&self, s: usize, stats: IoStats, predicted: IoEstimate) -> RunReport {
        let (n, m, p) = self.dims();
        let (nf, mf, sf) = (n as f64, m as f64, s as f64);
        let (m, lower_bound, prior_lower_bound) = match self {
            Job::Syrk { .. } => (
                Some(m),
                bounds::syrk_lower_bound(nf, mf, sf),
                bounds::syrk_lower_bound_prior(nf, mf, sf),
            ),
            Job::Cholesky { .. } => (
                None,
                bounds::cholesky_lower_bound(nf, sf),
                bounds::cholesky_lower_bound_prior(nf, sf),
            ),
            Job::Gemm { .. } => {
                let bound = bounds::gemm_lower_bound(nf, mf, p as f64, sf);
                (Some(m), bound, bound)
            }
        };
        RunReport {
            algorithm: self.name().to_string(),
            n,
            m,
            memory: s,
            stats,
            predicted,
            lower_bound,
            prior_lower_bound,
        }
    }
}

/// The slow memory a job's operands live in during a replay: the serial
/// [`OocMachine`], or the [`SharedSlowMemory`] of the parallel arm, which
/// homes the `result` operand on shard 0 and the inputs on its last shard.
pub(crate) trait SlowOperands<T: Scalar> {
    /// Registers a dense operand.
    fn put_dense(&mut self, m: Matrix<T>, result: bool) -> MatrixId;
    /// Registers a symmetric operand.
    fn put_symmetric(&mut self, s: SymMatrix<T>, result: bool) -> MatrixId;
    /// Takes a dense operand back.
    fn take_dense(&mut self, id: MatrixId) -> Result<Matrix<T>>;
    /// Takes a symmetric operand back.
    fn take_symmetric(&mut self, id: MatrixId) -> Result<SymMatrix<T>>;
}

impl<T: Scalar> SlowOperands<T> for OocMachine<T> {
    fn put_dense(&mut self, m: Matrix<T>, _result: bool) -> MatrixId {
        self.insert_dense(m)
    }
    fn put_symmetric(&mut self, s: SymMatrix<T>, _result: bool) -> MatrixId {
        self.insert_symmetric(s)
    }
    fn take_dense(&mut self, id: MatrixId) -> Result<Matrix<T>> {
        Ok(OocMachine::take_dense(self, id)?)
    }
    fn take_symmetric(&mut self, id: MatrixId) -> Result<SymMatrix<T>> {
        Ok(OocMachine::take_symmetric(self, id)?)
    }
}

impl<T: Scalar> SlowOperands<T> for SharedSlowMemory<T> {
    fn put_dense(&mut self, m: Matrix<T>, result: bool) -> MatrixId {
        let shard = if result { 0 } else { self.num_shards() - 1 };
        self.insert_dense_on(shard, m)
    }
    fn put_symmetric(&mut self, s: SymMatrix<T>, result: bool) -> MatrixId {
        let shard = if result { 0 } else { self.num_shards() - 1 };
        self.insert_symmetric_on(shard, s)
    }
    fn take_dense(&mut self, id: MatrixId) -> Result<Matrix<T>> {
        Ok(SharedSlowMemory::take_dense(self, id)?)
    }
    fn take_symmetric(&mut self, id: MatrixId) -> Result<SymMatrix<T>> {
        Ok(SharedSlowMemory::take_symmetric(self, id)?)
    }
}

/// Rejects a job and options that cannot run together.
pub(crate) fn check<T: Scalar>(job: &Job<'_, T>, opts: &RunOptions<'_>) -> Result<()> {
    job.check()?;
    opts.check()?;
    if opts.is_parallel() && matches!(job, Job::Cholesky { .. }) {
        return Err(OocError::Invalid(
            "Cholesky orders its task groups through slow memory and runs serially only".into(),
        ));
    }
    Ok(())
}

/// Builds a SYRK schedule and its analytic cost against the synthetic ids
/// `A = 0`, `C = 1`. `tile` overrides the planner default: `k` for the TBS
/// variants, the square block side for the baseline. An override must fit
/// the capacity `s`; an infeasible tile is an error, which the autotuner
/// skips.
fn syrk_build<T: Scalar>(
    algorithm: SyrkAlgorithm,
    n: usize,
    m: usize,
    alpha: T,
    s: usize,
    tile: Option<usize>,
) -> Result<(Schedule<T>, IoEstimate)> {
    let a = PanelRef::dense(MatrixId::synthetic(0), n, m);
    let c = SymWindowRef::full(MatrixId::synthetic(1), n);
    let too_big = |what: String, need: usize| {
        OocError::Invalid(format!("{what} needs {need} elements, capacity is {s}"))
    };
    Ok(match algorithm {
        SyrkAlgorithm::Tbs => {
            let plan = match tile {
                None => TbsPlan::for_memory(s)?,
                Some(k) => {
                    let need = TbsPlan::with_k(k)?.working_set();
                    if need > s {
                        return Err(too_big(format!("TBS k = {k}"), need));
                    }
                    TbsPlan { k, capacity: s }
                }
            };
            (tbs_schedule(&a, &c, alpha, &plan)?, tbs_cost(n, m, &plan)?)
        }
        SyrkAlgorithm::TbsTiled => {
            let plan = match tile {
                None => TbsTiledPlan::for_problem(s, n)?,
                Some(k) => TbsTiledPlan {
                    k,
                    b: TbsTiledPlan::max_tile_for(k, s).ok_or_else(|| {
                        OocError::Invalid(format!("no tiled-TBS tile fits k = {k} in capacity {s}"))
                    })?,
                    capacity: s,
                },
            };
            (
                tbs_tiled_schedule(&a, &c, alpha, &plan)?,
                tbs_tiled_cost(n, m, &plan)?,
            )
        }
        SyrkAlgorithm::SquareBlocks => {
            let plan = match tile {
                None => OocSyrkPlan::for_memory(s)?,
                Some(t) => {
                    let plan = OocSyrkPlan::with_tile(t)?;
                    if plan.working_set() > s {
                        return Err(too_big(format!("square tile {t}"), plan.working_set()));
                    }
                    plan
                }
            };
            (
                ooc_syrk_schedule(&a, &c, alpha, &plan)?,
                ooc_syrk_cost(n, m, &plan),
            )
        }
    })
}

/// Builds a Cholesky schedule and its analytic cost against the synthetic
/// id 0. `tile` overrides the LBC panel width, or the square tile side of
/// the Béreux baseline.
fn cholesky_build<T: Scalar>(
    algorithm: CholeskyAlgorithm,
    n: usize,
    s: usize,
    tile: Option<usize>,
) -> Result<(Schedule<T>, IoEstimate)> {
    let window = SymWindowRef::full(MatrixId::synthetic(0), n);
    let trailing = match algorithm {
        CholeskyAlgorithm::Lbc => TrailingUpdate::Tbs,
        CholeskyAlgorithm::LbcTiled => TrailingUpdate::TbsTiled,
        CholeskyAlgorithm::LbcSquare => TrailingUpdate::OocSyrk,
        CholeskyAlgorithm::Bereux => {
            let plan = match tile {
                None => OocCholPlan::for_memory(s)?,
                Some(t) => OocCholPlan::with_tile(t)?,
            };
            return Ok((ooc_chol_schedule(&window, &plan), ooc_chol_cost(n, &plan)));
        }
    };
    let mut plan = LbcPlan::for_problem(n, s)?.with_trailing(trailing);
    if let Some(t) = tile {
        plan = plan.with_block(t)?;
    }
    Ok((lbc_schedule(&window, &plan)?, lbc_cost(n, &plan)?))
}

/// Builds the square-block GEMM schedule and its analytic cost against the
/// synthetic ids `A = 0`, `B = 1`, `C = 2`; `tile` overrides the square
/// tile side.
fn gemm_build<T: Scalar>(
    n: usize,
    m: usize,
    p: usize,
    alpha: T,
    s: usize,
    tile: Option<usize>,
) -> Result<(Schedule<T>, IoEstimate)> {
    let a = PanelRef::dense(MatrixId::synthetic(0), n, m);
    let b = PanelRef::dense(MatrixId::synthetic(1), m, p);
    let c = PanelRef::dense(MatrixId::synthetic(2), n, p);
    let plan = match tile {
        None => OocGemmPlan::for_memory(s)?,
        Some(t) => OocGemmPlan::with_tile(t)?,
    };
    Ok((
        ooc_gemm_schedule(&a, &b, &c, alpha, &plan)?,
        ooc_gemm_cost(n, m, p, &plan),
    ))
}

/// Runs a pass pipeline over a schedule, translating pass errors into the
/// workspace error type. The pipeline's residency budget is clamped to the
/// machine capacity `s`: the optimized schedule must still execute within
/// the same fast memory the caller asked for. The prefetch planner then
/// admits lookahead loads only into whatever slack `s − footprint` the
/// *optimized* schedule leaves, so an optimized-and-prefetched execution
/// still peaks within `s` (asserted by the prefetch test sweep and the
/// `ab_prefetch` gate). An empty unverified pipeline skips the pass manager
/// and returns `None` for the seed stats: the caller reuses its measured
/// stats, which the engine guarantees equal the dry run of the unchanged
/// schedule.
fn optimize_schedule<T: Scalar>(
    schedule: Schedule<T>,
    pipeline: &PassPipeline,
    s: usize,
) -> Result<(Schedule<T>, Option<IoStats>, Vec<StageOutcome>)> {
    if pipeline.is_noop() && !pipeline.verify {
        return Ok((schedule, None, Vec::new()));
    }
    let clamped = match pipeline.budget {
        Some(budget) if budget > s => pipeline.clone().with_budget(Some(s)),
        _ => pipeline.clone(),
    };
    let optimized = clamped
        .manager::<T>()
        .optimize(&schedule, "main")
        .map_err(|e| OocError::Invalid(format!("pass pipeline: {e}")))?;
    Ok((
        optimized.schedule,
        Some(optimized.seed_stats),
        optimized.stages,
    ))
}

/// Step 1's output: the schedule and prefetch plan to replay, plus the
/// compile-time accounting the report carries.
pub(crate) struct Compiled<T: Scalar> {
    /// The schedule to replay.
    pub(crate) schedule: Schedule<T>,
    /// Its prefetch plan (empty at lookahead 0).
    pub(crate) plan: PrefetchPlan,
    predicted: IoEstimate,
    seed_stats: Option<IoStats>,
    stages: Vec<StageOutcome>,
    tuning: Option<TuningReport>,
}

/// Step 1: compiles a checked job and options. A tuned run scores every
/// candidate without executing it (a serial run replays on one machine, so
/// its worker axis must be `[1]`) and rebuilds the winner's seed
/// (data-free) for the analytic prediction and seed stats.
pub(crate) fn compile<T: Scalar>(job: &Job<'_, T>, opts: &RunOptions<'_>) -> Result<Compiled<T>> {
    let s = opts.memory;
    if let (Some(space), Some(model)) = (&opts.tuning, &opts.model) {
        if space.workers.iter().any(|&w| w != 1) {
            return Err(OocError::Invalid(
                "serial autotuned runs require workers == [1]; \
                 tune parallel partitions directly through the Tuner"
                    .into(),
            ));
        }
        let build = |tile| {
            job.build(s, tile)
                .map(|(seed, _)| seed)
                .map_err(|e| e.to_string())
        };
        let tuned = Tuner::new(model, s)
            .tune_schedules(build, space)
            .map_err(|e| OocError::Invalid(format!("autotune: {e}")))?;
        let (seed, predicted) = job.build(s, tuned.report.best_config().tile)?;
        return Ok(Compiled {
            schedule: tuned.schedule,
            plan: tuned.plan,
            predicted,
            seed_stats: Some(Engine::dry_run(&seed, "main")),
            stages: tuned.stages,
            tuning: Some(tuned.report),
        });
    }
    let (seed, predicted) = job.build(s, None)?;
    let (schedule, seed_stats, stages) = optimize_schedule(seed, &opts.pipeline, s)?;
    let plan = PrefetchPlan::for_lookahead(&schedule, opts.lookahead, Some(s));
    Ok(Compiled {
        schedule,
        plan,
        predicted,
        seed_stats,
        stages,
        tuning: None,
    })
}

/// What steps 2–4 produce.
pub(crate) struct Replayed<T: Scalar> {
    pub(crate) stats: IoStats,
    pub(crate) factor: Option<LowerTriangular<T>>,
    pub(crate) clock: Option<WallClock>,
    pub(crate) parallel: Option<ParallelReport>,
}

/// Step 3 on any machine.
fn replay_on<T: Scalar, M: MachineOps<T>>(
    mut machine: M,
    schedule: &Schedule<T>,
    plan: &PrefetchPlan,
) -> Result<M> {
    Engine::execute_planned(&mut machine, schedule, plan)?;
    Ok(machine)
}

/// Steps 2–4: registers the job's operands, replays `schedule` under
/// `plan` on the machine the options ask for, and takes the result. A
/// parallel run hands `schedule` to [`parallel::replay`], which plans each
/// worker's prefetch window at run time instead of using `plan`.
pub(crate) fn replay<T: Scalar>(
    job: &mut Job<'_, T>,
    schedule: &Schedule<T>,
    plan: &PrefetchPlan,
    opts: &RunOptions<'_>,
) -> Result<Replayed<T>> {
    if opts.is_parallel() {
        return parallel::replay(job, schedule, opts);
    }
    let mut machine = OocMachine::new(MachineConfig::with_capacity(opts.memory));
    let id = job.register(&mut machine);
    let (mut machine, measured) = match (opts.model, opts.recorder) {
        (None, _) => (replay_on(machine, schedule, plan)?, None),
        (Some(model), None) => {
            let timed = replay_on(LatencyMachine::new(machine, model), schedule, plan)?;
            let time = timed.time();
            (timed.into_inner(), Some(time))
        }
        (Some(model), Some(recorder)) => {
            let observed = InstrumentedMachine::new(machine, model, recorder.clone(), 0);
            let traced = replay_on(observed, schedule, plan)?;
            let time = traced.time();
            (traced.into_inner(), Some(time))
        }
    };
    let clock = opts.model.zip(measured).map(|(model, measured)| WallClock {
        measured,
        modelled: modelled_time_planned(schedule, &model, plan),
    });
    let stats = machine.stats().clone();
    let factor = job.take(&mut machine, id)?;
    Ok(Replayed {
        stats,
        factor,
        clock,
        parallel: None,
    })
}

/// Runs `job` out of core as `opts` say: compiles its schedule, replays it
/// on the operands, and returns the result with its report.
///
/// With a model and a recorder set, the replay is fully observed; the
/// recorder then holds the run's trace:
///
/// ```
/// use symla_core::api::{run, Job, RunOptions, SyrkAlgorithm};
/// use symla_matrix::{generate, SymMatrix};
/// use symla_memory::MachineModel;
/// use symla_obs::{TimeBase, TraceRecorder};
///
/// let a = generate::random_matrix_seeded::<f64>(40, 6, 1);
/// let mut c = SymMatrix::zeros(40);
/// let recorder = TraceRecorder::new();
/// let job = Job::Syrk { a: &a, c: &mut c, alpha: 1.0, algorithm: SyrkAlgorithm::TbsTiled };
/// let opts = RunOptions {
///     lookahead: 2,
///     model: Some(MachineModel::nvme()),
///     recorder: Some(&recorder),
///     ..RunOptions::new(60)
/// };
/// let outcome = run(job, &opts).unwrap();
/// assert!(outcome.clock.unwrap().consistent());
/// let doc = recorder.finish().to_chrome_trace(&[TimeBase::Measured, TimeBase::Modelled]);
/// assert!(doc.contains("\"ph\":\"B\"")); // group spans made it out
/// ```
pub fn run<T: Scalar>(mut job: Job<'_, T>, opts: &RunOptions<'_>) -> Result<RunOutcome<T>> {
    check(&job, opts)?;
    let compiled = compile(&job, opts)?;
    let replayed = replay(&mut job, &compiled.schedule, &compiled.plan, opts)?;
    let seed_stats = compiled
        .seed_stats
        .unwrap_or_else(|| replayed.stats.clone());
    Ok(RunOutcome {
        report: job.report(opts.memory, replayed.stats, compiled.predicted),
        seed_stats,
        stages: compiled.stages,
        factor: replayed.factor,
        clock: replayed.clock,
        tuning: compiled.tuning,
        parallel: replayed.parallel,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use symla_matrix::generate::{random_matrix_seeded, random_spd_seeded};
    use symla_matrix::kernels::{cholesky_residual, syrk_sym};

    #[test]
    fn syrk_api_all_algorithms() {
        let n = 40;
        let m = 8;
        let s = 21; // k = 6
        let a: Matrix<f64> = random_matrix_seeded(n, m, 31);
        let c0 = SymMatrix::<f64>::zeros(n);
        let mut expected = c0.clone();
        syrk_sym(1.0, &a, 1.0, &mut expected).unwrap();

        for algo in [
            SyrkAlgorithm::Tbs,
            SyrkAlgorithm::TbsTiled,
            SyrkAlgorithm::SquareBlocks,
        ] {
            let mut c = c0.clone();
            let job = Job::Syrk {
                a: &a,
                c: &mut c,
                alpha: 1.0,
                algorithm: algo,
            };
            let report = run(job, &RunOptions::new(s)).unwrap().report;
            assert!(c.approx_eq(&expected, 1e-10), "{}", algo.name());
            assert!(report.prediction_matches(), "{}", algo.name());
            assert!(report.optimality_ratio() >= 1.0, "{}", algo.name());
            assert!(report.stats.peak_resident <= s);
            assert!(report.to_string().contains(algo.name()));
        }
    }

    #[test]
    fn syrk_api_rejects_mismatched_shapes() {
        let a: Matrix<f64> = Matrix::zeros(4, 3);
        let mut c = SymMatrix::<f64>::zeros(5);
        let job = Job::Syrk {
            a: &a,
            c: &mut c,
            alpha: 1.0,
            algorithm: SyrkAlgorithm::Tbs,
        };
        assert!(run(job, &RunOptions::new(20)).is_err());
    }

    #[test]
    fn cholesky_api_all_algorithms() {
        let n = 30;
        let s = 28; // k = 7
        let a: SymMatrix<f64> = random_spd_seeded(n, 32);

        let mut loads = Vec::new();
        for algo in [
            CholeskyAlgorithm::Lbc,
            CholeskyAlgorithm::LbcTiled,
            CholeskyAlgorithm::LbcSquare,
            CholeskyAlgorithm::Bereux,
        ] {
            let job = Job::Cholesky {
                a: &a,
                algorithm: algo,
            };
            let outcome = run(job, &RunOptions::new(s)).unwrap();
            let (factor, report) = (outcome.factor.unwrap(), outcome.report);
            assert!(
                cholesky_residual(&a, &factor) < 1e-9,
                "{} residual too large",
                algo.name()
            );
            assert!(report.prediction_matches(), "{}", algo.name());
            assert!(report.optimality_ratio() >= 1.0, "{}", algo.name());
            assert!(report.m.is_none());
            loads.push((algo.name(), report.measured_loads()));
        }
        // all four produce the same factor; their I/O volumes differ
        assert_eq!(loads.len(), 4);
    }

    #[test]
    fn prefetched_api_overlaps_loads_and_preserves_results() {
        let n = 40;
        let m = 8;
        let s = 60;
        let a: Matrix<f64> = random_matrix_seeded(n, m, 35);
        let c0 = SymMatrix::<f64>::zeros(n);
        let syrk = |c: &mut SymMatrix<f64>, algorithm, opts: &RunOptions<'_>| {
            let job = Job::Syrk {
                a: &a,
                c,
                alpha: 1.0,
                algorithm,
            };
            run(job, opts).unwrap()
        };

        for algo in [
            SyrkAlgorithm::Tbs,
            SyrkAlgorithm::TbsTiled,
            SyrkAlgorithm::SquareBlocks,
        ] {
            let mut base = c0.clone();
            let plain = syrk(&mut base, algo, &RunOptions::new(s)).report;
            for lookahead in [1usize, 2] {
                let mut c = c0.clone();
                let run = syrk(
                    &mut c,
                    algo,
                    &RunOptions {
                        lookahead,
                        ..RunOptions::new(s)
                    },
                );
                let ctx = format!("{} L={lookahead}", algo.name());
                assert!(c == base, "{ctx}: bitwise result");
                assert_eq!(run.report.stats.volume, plain.stats.volume, "{ctx}");
                assert!(run.report.stats.peak_resident <= s, "{ctx}");
                assert!(
                    run.report.stats.stalled_loads() <= plain.stats.volume.loads,
                    "{ctx}"
                );
            }
        }
        // Tiled TBS at this size has real slack: the overlap is strict.
        let mut c = c0.clone();
        let run = syrk(
            &mut c,
            SyrkAlgorithm::TbsTiled,
            &RunOptions {
                lookahead: 1,
                ..RunOptions::new(s)
            },
        );
        assert!(run.report.stats.prefetched_elements > 0);

        // Optimized + prefetched still respects s (the clamp composes).
        let mut c = c0.clone();
        let run = syrk(
            &mut c,
            SyrkAlgorithm::TbsTiled,
            &RunOptions {
                pipeline: PassPipeline::locality(Some(4 * s)),
                lookahead: 2,
                ..RunOptions::new(s)
            },
        );
        assert!(run.report.stats.peak_resident <= s);
        let mut base = c0.clone();
        syrk(&mut base, SyrkAlgorithm::TbsTiled, &RunOptions::new(s));
        assert!(c == base, "optimized+prefetched result must not drift");
    }

    #[test]
    fn prefetched_cholesky_is_bitwise_stable() {
        let n = 30;
        let s = 28;
        let a: SymMatrix<f64> = random_spd_seeded(n, 36);
        for algo in [CholeskyAlgorithm::Lbc, CholeskyAlgorithm::Bereux] {
            let job = || Job::Cholesky {
                a: &a,
                algorithm: algo,
            };
            let base = run(job(), &RunOptions::new(s)).unwrap().factor;
            for lookahead in [1usize, 3] {
                let opts = RunOptions {
                    lookahead,
                    ..RunOptions::new(s)
                };
                let run = run(job(), &opts).unwrap();
                let ctx = format!("{} L={lookahead}", algo.name());
                assert!(run.factor == base, "{ctx}");
                assert!(run.report.stats.peak_resident <= s, "{ctx}");
            }
        }
    }

    #[test]
    fn gemm_api_matches_reference_and_is_prefetch_stable() {
        use symla_matrix::kernels::gemm;
        let (n, m, p, s) = (18usize, 7usize, 13usize, 30usize);
        let a: Matrix<f64> = random_matrix_seeded(n, m, 41);
        let b: Matrix<f64> = random_matrix_seeded(m, p, 42);
        let c0: Matrix<f64> = random_matrix_seeded(n, p, 43);
        let mut expected = c0.clone();
        gemm(0.75, &a, &b, 1.0, &mut expected).unwrap();

        let mut base = c0.clone();
        let report = run(
            Job::Gemm {
                a: &a,
                b: &b,
                c: &mut base,
                alpha: 0.75,
            },
            &RunOptions::new(s),
        )
        .unwrap()
        .report;
        assert!(base.approx_eq(&expected, 1e-12));
        assert!(report.prediction_matches());
        assert!(report.optimality_ratio() >= 1.0);
        assert!(report.stats.peak_resident <= s);
        assert_eq!(report.m, Some(m));

        // Optimized and prefetched variants change I/O, never the bytes.
        for (pipeline, lookahead) in [
            (PassPipeline::standard(), 0usize),
            (PassPipeline::none(), 1),
            (PassPipeline::standard(), 2),
        ] {
            let mut c = c0.clone();
            let opts = RunOptions {
                pipeline: pipeline.clone(),
                lookahead,
                ..RunOptions::new(s)
            };
            let run = run(
                Job::Gemm {
                    a: &a,
                    b: &b,
                    c: &mut c,
                    alpha: 0.75,
                },
                &opts,
            )
            .unwrap();
            assert!(c == base, "pipeline {pipeline:?} L={lookahead}");
            assert!(run.report.stats.peak_resident <= s);
            assert!(run.loads_saved() >= 0);
        }

        // Shape mismatches are rejected up front.
        let mut bad = Matrix::<f64>::zeros(n, p + 1);
        assert!(run(
            Job::Gemm {
                a: &a,
                b: &b,
                c: &mut bad,
                alpha: 0.75
            },
            &RunOptions::new(s)
        )
        .is_err());
    }

    #[test]
    fn autotuned_syrk_matches_plain_and_beats_standard_model() {
        let (n, m, s) = (40usize, 8usize, 60usize);
        let a: Matrix<f64> = random_matrix_seeded(n, m, 61);
        let c0 = SymMatrix::<f64>::zeros(n);
        let model = MachineModel::nvme();

        for algo in [
            SyrkAlgorithm::Tbs,
            SyrkAlgorithm::TbsTiled,
            SyrkAlgorithm::SquareBlocks,
        ] {
            let mut base = c0.clone();
            run(
                Job::Syrk {
                    a: &a,
                    c: &mut base,
                    alpha: 1.0,
                    algorithm: algo,
                },
                &RunOptions::new(s),
            )
            .unwrap();

            let mut c = c0.clone();
            let job = Job::Syrk {
                a: &a,
                c: &mut c,
                alpha: 1.0,
                algorithm: algo,
            };
            let opts = RunOptions {
                model: Some(model),
                tuning: Some(job.tuning_space(s)),
                ..RunOptions::new(s)
            };
            let run = run(job, &opts).unwrap();
            let tuning = run.tuning.as_ref().unwrap();
            let ctx = algo.name();
            assert!(c == base, "{ctx}: autotuned result must be bitwise-equal");
            assert!(run.report.stats.peak_resident <= s, "{ctx}");
            assert!(run.seed_prediction_matches(), "{ctx}");
            // The measured replay is exactly what the search scored.
            assert_eq!(run.report.stats, tuning.winner().stats, "{ctx}");
            // The standard pipeline at lookahead 0 is in the space; the
            // winner must model at most its time.
            let standard_l0 = tuning
                .candidates
                .iter()
                .find(|cand| {
                    cand.config.tile.is_none()
                        && cand.config.pipeline == PassPipeline::standard()
                        && cand.config.lookahead == 0
                })
                .unwrap_or_else(|| panic!("{ctx}: standard@L0 candidate missing"));
            assert!(
                tuning.winner().modelled_ns <= standard_l0.modelled_ns,
                "{ctx}"
            );
            assert!(tuning.winner().gap_to_bound.unwrap() >= 0.9, "{ctx}");
        }
    }

    #[test]
    fn autotuned_cholesky_and_gemm_match_plain() {
        let model = MachineModel::dram();
        let tuned = |job: &Job<'_, f64>, s| RunOptions {
            model: Some(model),
            tuning: Some(job.tuning_space(s)),
            ..RunOptions::new(s)
        };

        let (n, s) = (30usize, 28usize);
        let a: SymMatrix<f64> = random_spd_seeded(n, 62);
        for algo in [CholeskyAlgorithm::Lbc, CholeskyAlgorithm::Bereux] {
            let job = Job::Cholesky {
                a: &a,
                algorithm: algo,
            };
            let opts = tuned(&job, s);
            let base = run(
                Job::Cholesky {
                    a: &a,
                    algorithm: algo,
                },
                &RunOptions::new(s),
            )
            .unwrap()
            .factor;
            let run = run(job, &opts).unwrap();
            assert!(run.factor == base, "{}: bitwise factor", algo.name());
            assert_eq!(run.report.stats, run.tuning.unwrap().winner().stats);
        }

        let (n, m, p, s) = (18usize, 7usize, 13usize, 30usize);
        let a: Matrix<f64> = random_matrix_seeded(n, m, 63);
        let b: Matrix<f64> = random_matrix_seeded(m, p, 64);
        let c0: Matrix<f64> = random_matrix_seeded(n, p, 65);
        let mut base = c0.clone();
        run(
            Job::Gemm {
                a: &a,
                b: &b,
                c: &mut base,
                alpha: 0.75,
            },
            &RunOptions::new(s),
        )
        .unwrap();
        let mut c = c0.clone();
        let job = Job::Gemm {
            a: &a,
            b: &b,
            c: &mut c,
            alpha: 0.75,
        };
        let opts = tuned(&job, s);
        let run = run(job, &opts).unwrap();
        assert!(c == base, "GEMM: bitwise result");
        assert_eq!(run.report.stats, run.tuning.unwrap().winner().stats);
    }

    #[test]
    fn autotuned_rejects_parallel_worker_axis() {
        let a: Matrix<f64> = random_matrix_seeded(20, 4, 66);
        let mut c = SymMatrix::<f64>::zeros(20);
        let job = Job::Syrk {
            a: &a,
            c: &mut c,
            alpha: 1.0,
            algorithm: SyrkAlgorithm::SquareBlocks,
        };
        let opts = RunOptions {
            model: Some(MachineModel::dram()),
            tuning: Some(job.tuning_space(30).with_workers(vec![1, 2])),
            ..RunOptions::new(30)
        };
        let err = run(job, &opts).unwrap_err();
        assert!(err.to_string().contains("workers"));
    }

    #[test]
    fn report_normalized_constant_is_sane() {
        // For the square-block baseline on a comfortably engaged size, the
        // normalized constant is near 1 (N^2 M / sqrt(S) loads) plus the C
        // term.
        let n = 60;
        let m = 30;
        let s = 99;
        let a: Matrix<f64> = random_matrix_seeded(n, m, 33);
        let mut c = SymMatrix::<f64>::zeros(n);
        let job = Job::Syrk {
            a: &a,
            c: &mut c,
            alpha: 1.0,
            algorithm: SyrkAlgorithm::SquareBlocks,
        };
        let report = run(job, &RunOptions::new(s)).unwrap().report;
        let constant = report.normalized_constant();
        // N^2/2 loads of C add m^{-1} * sqrt(S)/2 ~ 0.17 to the constant 1.
        assert!(constant > 0.9 && constant < 1.5, "constant {constant}");
    }
}
