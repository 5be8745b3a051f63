//! # symla — I/O-optimal symmetric linear algebra kernels
//!
//! Facade crate of the `symla` workspace, a full reproduction of
//! *"I/O-Optimal Algorithms for Symmetric Linear Algebra Kernels"*
//! (Beaumont, Eyraud-Dubois, Vérité, Langou — SPAA 2022).
//!
//! The workspace contains:
//!
//! * [`matrix`] (`symla-matrix`) — dense/symmetric/triangular containers and
//!   in-memory reference kernels;
//! * [`memory`] (`symla-memory`) — the two-level out-of-core machine model
//!   with exact I/O accounting and capacity enforcement, including the
//!   shared-slow-memory variant for multi-worker execution;
//! * [`sched`] (`symla-sched`) — the combinatorial machinery behind the
//!   lower bounds (triangle blocks, balanced solutions, indexing families);
//! * [`plancache`] (`symla-plancache`) — the content-addressed two-tier
//!   plan cache (in-memory LRU + optional disk tier) behind the
//!   compile-once/replay-many serve layer;
//! * [`obs`] (`symla-obs`) — execution observability: structured run
//!   traces, the metrics registry and Perfetto timeline export;
//! * [`baselines`] (`symla-baselines`) — Béreux's out-of-core SYRK / TRSM /
//!   Cholesky and the GEMM / LU comparison points;
//! * [`core`] (`symla-core`) — the paper's TBS and LBC schedules, lower
//!   bounds, planners, the operational-intensity analysis and the
//!   `run(Job, &RunOptions)` front door.
//!
//! ## Quick start
//!
//! Every kernel runs through one front door: a [`core::api::Job`] names the
//! kernel, its operands and its schedule; [`core::api::RunOptions`] say how
//! to run it; [`core::api::run`] (or `PlanService::run`, which caches the
//! compiled plan) returns the result with its report.
//!
//! ```
//! use symla::prelude::*;
//!
//! // An out-of-core Cholesky factorization of a 64x64 SPD matrix with a
//! // fast memory of only 55 elements, using the paper's LBC schedule.
//! let a = symla::matrix::generate::random_spd_seeded::<f64>(64, 42);
//! let job = Job::Cholesky { a: &a, algorithm: CholeskyAlgorithm::Lbc };
//! let outcome = run(job, &RunOptions::new(55)).unwrap();
//! let (l, report) = (outcome.factor.unwrap(), outcome.report);
//! assert!(symla::matrix::kernels::cholesky_residual(&a, &l) < 1e-9);
//! // The measured traffic respects the paper's lower bound ...
//! assert!(report.measured_loads() as f64 >= report.lower_bound);
//! // ... and never exceeded the declared fast memory.
//! assert!(report.stats.peak_resident <= 55);
//! ```

#![warn(missing_docs)]

pub use symla_baselines as baselines;
pub use symla_core as core;
pub use symla_matrix as matrix;
pub use symla_memory as memory;
pub use symla_obs as obs;
pub use symla_plancache as plancache;
pub use symla_sched as sched;

/// The README's `rust` blocks, compiled and run as doctests.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;

/// The most commonly used items, re-exported for one-line imports.
pub mod prelude {
    pub use symla_baselines::{
        ooc_chol_cost, ooc_chol_execute, ooc_gemm_execute, ooc_lu_execute, ooc_syrk_cost,
        ooc_syrk_execute, ooc_trsm_execute, IoEstimate, OocCholPlan, OocError, OocGemmPlan,
        OocLuPlan, OocSyrkPlan, OocTrsmPlan,
    };
    pub use symla_core::{
        api::{
            run, CholeskyAlgorithm, Job, RunOptions, RunOutcome, RunReport, SyrkAlgorithm,
            WallClock,
        },
        bounds, lbc_cost, lbc_cost_breakdown, lbc_execute, lbc_schedule, oi, tbs_cost, tbs_execute,
        tbs_schedule, tbs_tiled_cost, tbs_tiled_execute, tbs_tiled_schedule, Engine, EngineConfig,
        LbcPlan, ParallelReport, PassManager, PassPipeline, PlanService, Schedule, ScheduleBuilder,
        ServedRun, TbsPlan, TbsTiledPlan, TrailingUpdate, WorkerIo,
    };
    pub use symla_matrix::{
        generate, kernels, LowerTriangular, Matrix, MatrixError, Scalar, SymMatrix,
    };
    pub use symla_memory::{
        IoStats, LatencyMachine, MachineConfig, MachineModel, MachineOps, MatrixId, OocMachine,
        PanelRef, Region, SharedSlowMemory, SymWindowRef, TimeStats, WorkerMachine,
    };
    pub use symla_obs::{
        EventKind, ExecutionObserver, InstrumentedMachine, MetricsRegistry, NullObserver, RunTrace,
        TimeBase, TraceRecorder,
    };
    pub use symla_plancache::{CacheStats, PlanCache, PlanCacheConfig, PlanKey, PlanSource};
    pub use symla_sched::autotune::{
        Candidate, TuneError, TunedConfig, Tuner, TuningReport, TuningSpace,
    };
    pub use symla_sched::timing::{
        modelled_group_times, modelled_run_trace, modelled_time, modelled_time_planned,
    };
    pub use symla_sched::{BalancedSolution, CyclicIndexing, Op, OpSet, TbsPartition};
}
