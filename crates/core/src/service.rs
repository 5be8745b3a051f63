//! The compile-once / replay-many serve layer over the plan cache.
//!
//! Compiling a plan — emitting the schedule IR, running the optimization
//! pass pipeline or the autotuner, planning the prefetch lookahead —
//! depends only on the problem *shape* (kernel, `n`, `m`, `S`, pipeline,
//! lookahead, `α`), never on the operand values. [`PlanService`] exploits
//! that: it keys every compiled plan by shape in a [`PlanCache`] (in-memory
//! LRU plus optional disk tier, single-flight under concurrency) and
//! executes cache hits with **zero planner work**:
//!
//! * [`PlanService::run`] takes the same [`Job`] and [`RunOptions`] as
//!   [`api::run`](crate::api::run): on a miss it caches the output of the
//!   same compile step (schedule plus prefetch plan), and every call
//!   replays through the same [`Engine::execute_planned`] step;
//! * parallel replays hand the cached partition schedule straight to
//!   `Engine::execute_parallel_with`.
//!
//! Schedules are compiled against machine-issued operand ids, which start
//! at 0 per machine in insertion order — the service registers operands in
//! the same order the plan was compiled for, so one cached plan replays on
//! any machine and any data of the right shape.
//!
//! ```
//! use symla_core::api::{Job, RunOptions, SyrkAlgorithm};
//! use symla_core::service::PlanService;
//! use symla_core::passes::PassPipeline;
//! use symla_matrix::{generate, SymMatrix};
//! use symla_plancache::PlanSource;
//!
//! let service = PlanService::<f64>::in_memory();
//! let a = generate::random_matrix_seeded::<f64>(40, 6, 1);
//! let opts = RunOptions { pipeline: PassPipeline::standard(), lookahead: 1, ..RunOptions::new(60) };
//! let syrk = |c| Job::Syrk { a: &a, c, alpha: 1.0, algorithm: SyrkAlgorithm::TbsTiled };
//!
//! let mut c1 = SymMatrix::zeros(40);
//! let cold = service.run(syrk(&mut c1), &opts).unwrap();
//! assert_eq!(cold.source, PlanSource::Compiled);
//!
//! let mut c2 = SymMatrix::zeros(40);
//! let warm = service.run(syrk(&mut c2), &opts).unwrap();
//! assert_eq!(warm.source, PlanSource::Memory);
//! assert!(c1 == c2); // bitwise-identical execution
//! assert_eq!(service.stats().compiles, 1);
//! ```

use std::io;
use std::sync::Arc;

use crate::api::{check, compile, replay, Job, RunOptions, WallClock};
use crate::parallel::{partition_schedule_scaled, BlockStrategy, ParallelReport, WorkerIo};
use symla_baselines::error::{OocError, Result};
use symla_matrix::{LowerTriangular, Matrix, Scalar, SymMatrix};
use symla_memory::{IoStats, MachineConfig, MatrixId, SharedSlowMemory};
use symla_obs::{EventKind, RunReport};
use symla_plancache::{CacheStats, Lookup, PlanCache, PlanCacheConfig, PlanKey, PlanSource};
use symla_sched::autotune::model_fingerprint;
use symla_sched::{Engine, EngineConfig, PassPipeline, PrefetchPlan};

/// Outcome of one served (cache-mediated) execution.
#[derive(Debug, Clone)]
pub struct ServedRun<T: Scalar> {
    /// Measured machine statistics of this replay.
    pub stats: IoStats,
    /// The Cholesky factor (`None` for SYRK and GEMM, whose result is
    /// written back into the job's `c`).
    pub factor: Option<LowerTriangular<T>>,
    /// Measured-vs-modelled time, when [`RunOptions::model`] is set.
    pub clock: Option<WallClock>,
    /// Where the plan came from (compiled, memory hit, disk hit, coalesced).
    pub source: PlanSource,
    /// The cache's content hash for the plan key.
    pub key_hash: u64,
}

impl<T: Scalar> ServedRun<T> {
    /// This replay's statistics as a machine-readable [`RunReport`]: the
    /// engine counters under `engine.*` plus a `plan.source.<variant>`
    /// marker counter recording where the plan came from.
    pub fn run_report(&self, label: impl Into<String>) -> RunReport {
        let mut report = RunReport::new(label);
        report.registry.record_io_stats("engine", &self.stats);
        let source = match self.source {
            PlanSource::Memory => "memory",
            PlanSource::Disk => "disk",
            PlanSource::Compiled => "compiled",
            PlanSource::Coalesced => "coalesced",
        };
        report
            .registry
            .counter_add(&format!("plan.source.{source}"), 1);
        report
    }
}

/// Outcome of one served parallel execution.
#[derive(Debug, Clone)]
pub struct ServedParallelRun {
    /// Per-worker report of this replay.
    pub report: ParallelReport,
    /// Where the partition schedule came from.
    pub source: PlanSource,
    /// The cache's content hash for the plan key.
    pub key_hash: u64,
}

/// "Get-or-compile the plan, then execute it on your data": a [`PlanCache`]
/// plus the operand plumbing of the high-level API.
///
/// [`plan`](Self::plan) returns the cached [`CachedPlan`](symla_plancache::CachedPlan)
/// (schedule + optional prefetch plan + binary form) so callers can drive
/// any engine mode themselves — `dry_run`, `trace`, or a custom machine.
/// [`run`](Self::run) and [`syrk_parallel`](Self::syrk_parallel) do the
/// full serve: acquire the plan, register the operands in compile order,
/// replay, extract the result.
#[derive(Debug)]
pub struct PlanService<T: Scalar> {
    cache: PlanCache<T>,
}

impl<T: Scalar> PlanService<T> {
    /// Builds a service over a cache with the given configuration. Fails
    /// only when the disk-tier directory cannot be created.
    pub fn new(config: PlanCacheConfig) -> io::Result<Self> {
        Ok(Self {
            cache: PlanCache::new(config)?,
        })
    }

    /// A service over a memory-only cache with default sizing.
    pub fn in_memory() -> Self {
        Self {
            cache: PlanCache::in_memory(),
        }
    }

    /// The underlying cache (for stats, clearing, direct lookups).
    pub fn cache(&self) -> &PlanCache<T> {
        &self.cache
    }

    /// Snapshot of the cache counters.
    pub fn stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The cache counters as a machine-readable [`RunReport`] (everything
    /// under `cache.*` plus the `cache.hit_rate` gauge).
    pub fn metrics_report(&self) -> RunReport {
        let mut report = RunReport::new("plan service cache");
        self.stats().export_metrics("cache", &mut report.registry);
        report
    }

    /// The plan key of `job` run with `opts`. A fixed run is keyed by
    /// `<kernel>/<schedule name>`, its shape, capacity, pipeline and
    /// lookahead, GEMM's third dimension and `alpha`. A tuned run's
    /// pipeline, tile and lookahead are *outputs* of the search, so they do
    /// not appear in its `autotune/...` key; the fingerprints of the
    /// searched space and of the model it was scored against do — tuning
    /// for a different machine must miss.
    pub fn key(job: &Job<'_, T>, opts: &RunOptions<'_>) -> PlanKey {
        let (n, m, p) = job.dims();
        let name = format!("{}/{}", job.kernel(), job.name());
        let mut key = match &opts.tuning {
            None => PlanKey::new(
                name,
                n,
                m,
                opts.memory,
                opts.pipeline.clone(),
                opts.lookahead,
            ),
            Some(_) => PlanKey::new(
                format!("autotune/{name}"),
                n,
                m,
                opts.memory,
                PassPipeline::none(),
                0,
            ),
        };
        if let Job::Gemm { .. } = job {
            key = key.with_raw_param(p as u64);
        }
        if let Some(alpha) = job.alpha() {
            key = key.with_f64_param(alpha.to_f64());
        }
        if let (Some(space), Some(model)) = (&opts.tuning, &opts.model) {
            key = key
                .with_raw_param(space.fingerprint())
                .with_raw_param(model_fingerprint(model));
        }
        key
    }

    /// Gets or compiles the plan of `job` run with `opts`. A miss caches the
    /// output of the compile step [`api::run`](crate::api::run) uses; a
    /// tuned miss runs the whole cost-model search (data-free replays only)
    /// and caches the winner.
    pub fn plan(&self, job: &Job<'_, T>, opts: &RunOptions<'_>) -> Result<Lookup<T>> {
        check(job, opts)?;
        self.cache.get_or_compile(&Self::key(job, opts), || {
            let compiled = compile(job, opts)?;
            let prefetch = (!compiled.plan.is_empty()).then_some(compiled.plan);
            Ok((compiled.schedule, prefetch))
        })
    }

    /// Serves `job`: the plan from the cache, replayed on the operands.
    /// Results and statistics are bitwise-identical to
    /// [`api::run`](crate::api::run) with the same arguments. With a
    /// recorder set, the cache traffic is recorded too, as
    /// [`EventKind::CacheLookup`] and [`EventKind::CacheCompile`] events
    /// ahead of the replay's own.
    pub fn run(&self, mut job: Job<'_, T>, opts: &RunOptions<'_>) -> Result<ServedRun<T>> {
        let lookup = self.plan(&job, opts)?;
        if let Some(recorder) = opts.recorder {
            let compiled = lookup.source == PlanSource::Compiled;
            recorder.note(0, EventKind::CacheLookup { hit: !compiled });
            if compiled {
                recorder.note(0, EventKind::CacheCompile);
            }
        }
        let empty = PrefetchPlan::default();
        let plan = lookup.plan.prefetch().unwrap_or(&empty);
        let replayed = replay(&mut job, lookup.plan.schedule(), plan, opts)?;
        Ok(ServedRun {
            stats: replayed.stats,
            factor: replayed.factor,
            clock: replayed.clock,
            source: lookup.source,
            key_hash: lookup.key_hash,
        })
    }

    /// The plan key of a parallel SYRK partition schedule (operands: `C`
    /// then `A`). Worker count and runtime lookahead are execution-time
    /// arguments, not plan inputs — the same cached partition serves any
    /// worker count.
    pub fn syrk_parallel_key(
        n: usize,
        m: usize,
        alpha: T,
        memory_per_worker: usize,
        strategy: BlockStrategy,
    ) -> PlanKey {
        PlanKey::new(
            format!("syrk-parallel/{}", strategy.name()),
            n,
            m,
            memory_per_worker,
            PassPipeline::none(),
            0,
        )
        .with_f64_param(alpha.to_f64())
    }

    /// The plan key of a *sharded* parallel SYRK run (see
    /// [`parallel_syrk_sharded`](crate::parallel::parallel_syrk_sharded)).
    /// The shard count enters through the key's memory-hierarchy
    /// fingerprint: sharding changes the node partitioning a served plan
    /// would bake in, so a sharded plan must not share a cache slot with
    /// the unsharded one. With one shard the key collapses to
    /// [`syrk_parallel_key`](Self::syrk_parallel_key) — the layouts are
    /// the same machine.
    pub fn syrk_sharded_key(
        n: usize,
        m: usize,
        alpha: T,
        memory_per_node: usize,
        strategy: BlockStrategy,
        shards: usize,
    ) -> PlanKey {
        Self::syrk_parallel_key(n, m, alpha, memory_per_node, strategy).with_hierarchy(&[], shards)
    }

    /// Gets or compiles the partition schedule of a parallel SYRK run (ids
    /// `C = 0`, `A = 1`, matching [`crate::parallel::parallel_syrk`]).
    /// Group-to-worker assignment is dynamic, so no prefetch plan is cached;
    /// `execute_parallel_with` plans per worker at its runtime lookahead.
    pub fn syrk_parallel_plan(
        &self,
        n: usize,
        m: usize,
        alpha: T,
        memory_per_worker: usize,
        strategy: BlockStrategy,
    ) -> Result<Lookup<T>> {
        let key = Self::syrk_parallel_key(n, m, alpha, memory_per_worker, strategy);
        self.cache.get_or_compile(&key, || {
            let schedule = partition_schedule_scaled(n, m, memory_per_worker, strategy, alpha)?;
            Ok((schedule, None))
        })
    }

    /// Serves a shared-slow-memory parallel SYRK: the cached partition
    /// schedule is handed to `Engine::execute_parallel_with`, which
    /// distributes its task groups over `workers` capacity-checked workers
    /// (optionally pipelining up to `lookahead` units per worker). Numerical
    /// results are bitwise-identical to
    /// [`parallel_syrk`](crate::parallel::parallel_syrk); the serve path
    /// skips that function's per-worker dry-run oracle assertion to keep the
    /// replay free of planner work.
    #[allow(clippy::too_many_arguments)]
    pub fn syrk_parallel(
        &self,
        a: &Matrix<T>,
        c: &mut SymMatrix<T>,
        alpha: T,
        workers: usize,
        memory_per_worker: usize,
        strategy: BlockStrategy,
        lookahead: usize,
    ) -> Result<ServedParallelRun> {
        let n = c.order();
        let m = a.cols();
        if a.rows() != n {
            return Err(OocError::Invalid(format!(
                "parallel SYRK operand mismatch: A has {} rows but C has order {n}",
                a.rows()
            )));
        }
        if workers == 0 {
            return Err(OocError::Invalid("need at least one worker".into()));
        }
        let lookup = self.syrk_parallel_plan(n, m, alpha, memory_per_worker, strategy)?;

        let shared = SharedSlowMemory::new();
        let c_id = shared.insert_symmetric(std::mem::replace(c, SymMatrix::zeros(0)));
        let a_id = shared.insert_dense(a.clone());
        debug_assert_eq!(
            (c_id, a_id),
            (MatrixId::synthetic(0), MatrixId::synthetic(1)),
            "operand registration order must match plan compilation"
        );
        let outcome = Engine::execute_parallel_with(
            &shared,
            lookup.plan.schedule(),
            workers,
            MachineConfig::with_capacity(memory_per_worker),
            "parallel",
            &EngineConfig::with_lookahead(lookahead),
        );
        let runs = match outcome {
            Ok(runs) => runs,
            Err(e) => {
                *c = shared.take_symmetric(c_id)?;
                return Err(e.error.into());
            }
        };
        *c = shared.take_symmetric(c_id)?;

        let mut per_worker = Vec::with_capacity(workers);
        let mut prefetched_loads = 0;
        for run in &runs {
            per_worker.push(WorkerIo {
                loads: run.stats.volume.loads,
                stores: run.stats.volume.stores,
                tasks: run.groups.len(),
            });
            prefetched_loads += run.stats.prefetched_elements;
        }
        Ok(ServedParallelRun {
            report: ParallelReport {
                workers,
                strategy,
                memory_per_worker,
                per_worker,
                prefetched_loads,
            },
            source: lookup.source,
            key_hash: lookup.key_hash,
        })
    }
}

/// A service can be shared across threads behind an [`Arc`]; this alias
/// spells the common shape.
pub type SharedPlanService<T> = Arc<PlanService<T>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{run, CholeskyAlgorithm, SyrkAlgorithm};
    use crate::parallel::parallel_syrk;
    use symla_matrix::generate::{random_matrix_seeded, random_spd_seeded};
    use symla_memory::MachineModel;
    use symla_obs::TraceRecorder;

    #[test]
    fn sharded_keys_split_from_the_unsharded_slot() {
        let base =
            PlanService::<f64>::syrk_parallel_key(64, 8, 1.0, 32, BlockStrategy::SquareTiles);
        let one =
            PlanService::<f64>::syrk_sharded_key(64, 8, 1.0, 32, BlockStrategy::SquareTiles, 1);
        let two =
            PlanService::<f64>::syrk_sharded_key(64, 8, 1.0, 32, BlockStrategy::SquareTiles, 2);
        let three =
            PlanService::<f64>::syrk_sharded_key(64, 8, 1.0, 32, BlockStrategy::SquareTiles, 3);
        // One shard is the unsharded machine: same key, same cache slot.
        assert_eq!(one.content_hash(), base.content_hash());
        assert_ne!(two.content_hash(), base.content_hash());
        assert_ne!(two.content_hash(), three.content_hash());
    }

    #[test]
    fn served_syrk_is_bitwise_identical_across_algorithms_and_modes() {
        let (n, m, s) = (40usize, 8usize, 60usize);
        let a: Matrix<f64> = random_matrix_seeded(n, m, 51);
        let c0 = SymMatrix::<f64>::zeros(n);
        let service = PlanService::<f64>::in_memory();

        let mut cases = 0;
        for algorithm in [
            SyrkAlgorithm::Tbs,
            SyrkAlgorithm::TbsTiled,
            SyrkAlgorithm::SquareBlocks,
        ] {
            for pipeline in [PassPipeline::none(), PassPipeline::standard()] {
                for lookahead in [0usize, 1] {
                    cases += 1;
                    let opts = RunOptions {
                        pipeline: pipeline.clone(),
                        lookahead,
                        ..RunOptions::new(s)
                    };
                    let mut reference = c0.clone();
                    let direct = run(
                        Job::Syrk {
                            a: &a,
                            c: &mut reference,
                            alpha: 1.5,
                            algorithm,
                        },
                        &opts,
                    )
                    .unwrap();

                    // Cold serve compiles; the replay matches the direct
                    // run bitwise, I/O volume included.
                    let mut served = c0.clone();
                    let cold = service
                        .run(
                            Job::Syrk {
                                a: &a,
                                c: &mut served,
                                alpha: 1.5,
                                algorithm,
                            },
                            &opts,
                        )
                        .unwrap();
                    let ctx = format!("{} {pipeline:?} L={lookahead}", algorithm.name());
                    assert_eq!(cold.source, PlanSource::Compiled, "{ctx}");
                    assert!(served == reference, "{ctx}: cold bitwise");
                    assert_eq!(cold.stats.volume, direct.report.stats.volume, "{ctx}");
                    assert!(cold.stats.peak_resident <= s, "{ctx}");

                    // Warm serve hits and is byte-for-byte the same again.
                    let mut warm_c = c0.clone();
                    let warm = service
                        .run(
                            Job::Syrk {
                                a: &a,
                                c: &mut warm_c,
                                alpha: 1.5,
                                algorithm,
                            },
                            &opts,
                        )
                        .unwrap();
                    assert_eq!(warm.source, PlanSource::Memory, "{ctx}");
                    assert_eq!(warm.key_hash, cold.key_hash, "{ctx}");
                    assert!(warm_c == reference, "{ctx}: warm bitwise");
                    assert_eq!(warm.stats.volume, cold.stats.volume, "{ctx}");
                    assert_eq!(
                        warm.stats.prefetched_elements, cold.stats.prefetched_elements,
                        "{ctx}: cached prefetch plan replays identically"
                    );
                }
            }
        }
        let stats = service.stats();
        assert_eq!(stats.compiles, cases, "one compile per distinct key");
        assert_eq!(stats.hits, cases, "one memory hit per warm call");
    }

    #[test]
    fn traced_serve_is_bitwise_identical_and_records_cache_traffic() {
        let (n, m, s) = (40usize, 8usize, 60usize);
        let a: Matrix<f64> = random_matrix_seeded(n, m, 56);
        let c0 = SymMatrix::<f64>::zeros(n);
        let service = PlanService::<f64>::in_memory();
        let model = MachineModel::default();
        let plain_opts = RunOptions {
            pipeline: PassPipeline::standard(),
            lookahead: 2,
            ..RunOptions::new(s)
        };

        // Cold: the plan compiles, and the trace records a miss + compile.
        let recorder = TraceRecorder::new();
        let traced_opts = RunOptions {
            model: Some(model),
            recorder: Some(&recorder),
            ..plain_opts.clone()
        };
        let mut cold_c = c0.clone();
        let cold = service
            .run(
                Job::Syrk {
                    a: &a,
                    c: &mut cold_c,
                    alpha: 1.5,
                    algorithm: SyrkAlgorithm::TbsTiled,
                },
                &traced_opts,
            )
            .unwrap();
        let cold_trace = recorder.finish();
        assert_eq!(cold.source, PlanSource::Compiled);
        assert_eq!(
            cold_trace.count(|k| matches!(k, EventKind::CacheLookup { hit: false })),
            1
        );
        assert_eq!(
            cold_trace.count(|k| matches!(k, EventKind::CacheCompile)),
            1
        );

        // Warm: a memory hit, no compile event, and the replay observed by
        // the recorder is bitwise-identical to the unobserved serve.
        let mut warm_c = c0.clone();
        let warm = service
            .run(
                Job::Syrk {
                    a: &a,
                    c: &mut warm_c,
                    alpha: 1.5,
                    algorithm: SyrkAlgorithm::TbsTiled,
                },
                &traced_opts,
            )
            .unwrap();
        let warm_trace = recorder.finish();
        assert_eq!(warm.source, PlanSource::Memory);
        assert_eq!(
            warm_trace.count(|k| matches!(k, EventKind::CacheLookup { hit: true })),
            1
        );
        assert_eq!(
            warm_trace.count(|k| matches!(k, EventKind::CacheCompile)),
            0
        );
        assert!(
            warm_trace.count(|k| matches!(k, EventKind::Load { .. })) > 0,
            "replay itself is observed"
        );

        let mut plain_c = c0.clone();
        let plain = service
            .run(
                Job::Syrk {
                    a: &a,
                    c: &mut plain_c,
                    alpha: 1.5,
                    algorithm: SyrkAlgorithm::TbsTiled,
                },
                &plain_opts,
            )
            .unwrap();
        assert!(warm_c == plain_c, "traced serve bitwise == unobserved");
        assert!(cold_c == plain_c);
        assert_eq!(warm.stats, plain.stats);
        assert_eq!(cold.stats, plain.stats);

        // The per-run report mirrors the engine counters exactly, and the
        // service-level report mirrors the cache counters.
        let report = warm.run_report("warm syrk");
        assert_eq!(
            report.registry.counter("engine.loads.elements"),
            u128::from(warm.stats.volume.loads)
        );
        assert_eq!(report.registry.counter("plan.source.memory"), 1);
        let service_report = service.metrics_report();
        let stats = service.stats();
        assert_eq!(
            service_report.registry.counter("cache.requests"),
            u128::from(stats.requests)
        );
        assert_eq!(
            service_report.registry.counter("cache.compiles"),
            u128::from(stats.compiles)
        );
    }

    #[test]
    fn served_cholesky_matches_direct_api() {
        let (n, s) = (30usize, 28usize);
        let a: SymMatrix<f64> = random_spd_seeded(n, 52);
        let service = PlanService::<f64>::in_memory();

        for algorithm in [CholeskyAlgorithm::Lbc, CholeskyAlgorithm::Bereux] {
            for lookahead in [0usize, 2] {
                let job = || Job::Cholesky { a: &a, algorithm };
                let opts = RunOptions {
                    lookahead,
                    ..RunOptions::new(s)
                };
                let direct = run(job(), &opts).unwrap().factor;
                let run = service.run(job(), &opts).unwrap();
                let warm_run = service.run(job(), &opts).unwrap();
                let ctx = format!("{} L={lookahead}", algorithm.name());
                assert!(run.factor == direct, "{ctx}: cold bitwise");
                assert!(warm_run.factor == direct, "{ctx}: warm bitwise");
                assert_eq!(run.source, PlanSource::Compiled, "{ctx}");
                assert_eq!(warm_run.source, PlanSource::Memory, "{ctx}");
            }
        }
    }

    #[test]
    fn served_gemm_matches_direct_api() {
        let (n, m, p, s) = (18usize, 7usize, 13usize, 30usize);
        let a: Matrix<f64> = random_matrix_seeded(n, m, 53);
        let b: Matrix<f64> = random_matrix_seeded(m, p, 54);
        let c0: Matrix<f64> = random_matrix_seeded(n, p, 55);
        let service = PlanService::<f64>::in_memory();
        let opts = RunOptions {
            pipeline: PassPipeline::standard(),
            lookahead: 1,
            ..RunOptions::new(s)
        };

        let mut reference = c0.clone();
        run(
            Job::Gemm {
                a: &a,
                b: &b,
                c: &mut reference,
                alpha: 0.5,
            },
            &opts,
        )
        .unwrap();
        for expect in [PlanSource::Compiled, PlanSource::Memory] {
            let mut c = c0.clone();
            let run = service
                .run(
                    Job::Gemm {
                        a: &a,
                        b: &b,
                        c: &mut c,
                        alpha: 0.5,
                    },
                    &opts,
                )
                .unwrap();
            assert_eq!(run.source, expect);
            assert!(c == reference, "served GEMM bitwise ({expect:?})");
        }
        // Operand mismatch is caught before any machine work.
        let mut bad = Matrix::<f64>::zeros(n, p + 1);
        assert!(service
            .run(
                Job::Gemm {
                    a: &a,
                    b: &b,
                    c: &mut bad,
                    alpha: 0.5
                },
                &RunOptions::new(s)
            )
            .is_err());
    }

    #[test]
    fn served_parallel_syrk_matches_direct_run() {
        let (n, m, s) = (40usize, 8usize, 12usize);
        let a: Matrix<f64> = random_matrix_seeded(n, m, 56);
        let service = PlanService::<f64>::in_memory();

        for strategy in [BlockStrategy::SquareTiles, BlockStrategy::TriangleBlocks] {
            let mut reference = SymMatrix::zeros(n);
            let direct = parallel_syrk(&a, &mut reference, 1.0, 3, s, strategy).unwrap();

            // Cold serve, then warm serves across *different* worker counts:
            // one cached partition schedule drives them all.
            let mut sources = Vec::new();
            for workers in [3usize, 1, 4] {
                let mut c = SymMatrix::zeros(n);
                let run = service
                    .syrk_parallel(&a, &mut c, 1.0, workers, s, strategy, 1)
                    .unwrap();
                assert!(c == reference, "{} P={workers}", strategy.name());
                assert_eq!(
                    run.report.total_loads(),
                    direct.total_loads(),
                    "{} P={workers}",
                    strategy.name()
                );
                assert_eq!(run.report.workers, workers);
                sources.push(run.source);
            }
            assert_eq!(sources[0], PlanSource::Compiled, "{}", strategy.name());
            assert!(
                sources[1..].iter().all(|s| *s == PlanSource::Memory),
                "{}",
                strategy.name()
            );
        }
    }

    #[test]
    fn served_autotuned_matches_direct_and_tunes_once() {
        let model = MachineModel::nvme();
        let service = PlanService::<f64>::in_memory();
        let tuned = |job: &Job<'_, f64>, s, model| RunOptions {
            model: Some(model),
            tuning: Some(job.tuning_space(s)),
            ..RunOptions::new(s)
        };

        // SYRK: direct autotuned run vs served (cold + warm).
        let (n, m, s) = (40usize, 8usize, 60usize);
        let a: Matrix<f64> = random_matrix_seeded(n, m, 71);
        let c0 = SymMatrix::<f64>::zeros(n);
        let mut direct_c = c0.clone();
        let mut probe = c0.clone();
        let opts = tuned(
            &Job::Syrk {
                a: &a,
                c: &mut probe,
                alpha: 1.0,
                algorithm: SyrkAlgorithm::TbsTiled,
            },
            s,
            model,
        );
        let direct = run(
            Job::Syrk {
                a: &a,
                c: &mut direct_c,
                alpha: 1.0,
                algorithm: SyrkAlgorithm::TbsTiled,
            },
            &opts,
        )
        .unwrap();
        for expect in [PlanSource::Compiled, PlanSource::Memory] {
            let mut c = c0.clone();
            let run = service
                .run(
                    Job::Syrk {
                        a: &a,
                        c: &mut c,
                        alpha: 1.0,
                        algorithm: SyrkAlgorithm::TbsTiled,
                    },
                    &opts,
                )
                .unwrap();
            assert_eq!(run.source, expect);
            assert!(c == direct_c, "served autotuned bitwise ({expect:?})");
            assert_eq!(run.stats, direct.report.stats, "{expect:?}");
        }
        assert_eq!(service.stats().compiles, 1, "the search ran exactly once");

        // A different model fingerprint is a different plan.
        let dram_opts = RunOptions {
            model: Some(MachineModel::dram()),
            ..opts.clone()
        };
        let dram_key = PlanService::<f64>::key(
            &Job::Syrk {
                a: &a,
                c: &mut probe,
                alpha: 1.0,
                algorithm: SyrkAlgorithm::TbsTiled,
            },
            &dram_opts,
        );
        let nvme_key = PlanService::<f64>::key(
            &Job::Syrk {
                a: &a,
                c: &mut probe,
                alpha: 1.0,
                algorithm: SyrkAlgorithm::TbsTiled,
            },
            &opts,
        );
        assert_ne!(dram_key.content_hash(), nvme_key.content_hash());

        // Cholesky and GEMM serve paths replay their direct runs bitwise.
        let (cn, cs) = (30usize, 28usize);
        let spd: SymMatrix<f64> = random_spd_seeded(cn, 72);
        let chol = || Job::Cholesky {
            a: &spd,
            algorithm: CholeskyAlgorithm::Lbc,
        };
        let chol_opts = tuned(&chol(), cs, model);
        let direct_factor = run(chol(), &chol_opts).unwrap().factor;
        let served_factor = service.run(chol(), &chol_opts).unwrap().factor;
        assert!(served_factor == direct_factor);

        let (gn, gm, gp, gs) = (18usize, 7usize, 13usize, 30usize);
        let ga: Matrix<f64> = random_matrix_seeded(gn, gm, 73);
        let gb: Matrix<f64> = random_matrix_seeded(gm, gp, 74);
        let gc0: Matrix<f64> = random_matrix_seeded(gn, gp, 75);
        let mut gemm_probe = gc0.clone();
        let gemm_opts = tuned(
            &Job::Gemm {
                a: &ga,
                b: &gb,
                c: &mut gemm_probe,
                alpha: 0.5,
            },
            gs,
            model,
        );
        let mut direct_gc = gc0.clone();
        run(
            Job::Gemm {
                a: &ga,
                b: &gb,
                c: &mut direct_gc,
                alpha: 0.5,
            },
            &gemm_opts,
        )
        .unwrap();
        let mut served_gc = gc0.clone();
        service
            .run(
                Job::Gemm {
                    a: &ga,
                    b: &gb,
                    c: &mut served_gc,
                    alpha: 0.5,
                },
                &gemm_opts,
            )
            .unwrap();
        assert!(served_gc == direct_gc);
    }

    #[test]
    fn plan_methods_expose_replayable_plans() {
        let service = PlanService::<f64>::in_memory();
        let a = Matrix::<f64>::zeros(24, 6);
        let mut c = SymMatrix::zeros(24);
        let job = Job::Syrk {
            a: &a,
            c: &mut c,
            alpha: 1.0,
            algorithm: SyrkAlgorithm::Tbs,
        };
        let opts = RunOptions {
            lookahead: 2,
            ..RunOptions::new(40)
        };
        let lookup = service.plan(&job, &opts).unwrap();
        // The cached plan carries the compiled prefetch plan and its binary
        // form; a caller can dry-run it without touching real data.
        assert!(lookup.plan.prefetch().is_some());
        assert!(!lookup.plan.bytes().is_empty());
        let stats = Engine::dry_run(lookup.plan.schedule(), "probe");
        assert!(stats.volume.loads > 0);
    }
}
