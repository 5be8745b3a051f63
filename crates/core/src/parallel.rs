//! The parallel replay arm of [`api::run`](crate::api::run): the paper's
//! §2.2 model of `P` workers, each with a private fast memory of `S`
//! elements, sharing one slow memory — the "future work" direction
//! (communication-efficient *parallel* symmetric kernels), run as a replay
//! mode of the one compile step rather than as an algorithm of its own.
//!
//! [`RunOptions::workers`] or [`RunOptions::shards`] above 1 send the
//! schedule `compile` produced here. The SYRK schedules (TBS, tiled TBS,
//! square blocks) and GEMM consist of independent, self-contained task
//! groups — each owns a disjoint block of the result and only reads the
//! inputs — so any distribution of the groups over workers computes the
//! serial result bit for bit, and each worker's communication volume is the
//! sum of its groups' footprints: exactly the quantity the sequential
//! analysis counts, now *measured* per worker.
//!
//! * With one shard, the operands go into a [`SharedSlowMemory`] and
//!   [`Engine::execute_parallel_with`] (or
//!   [`Engine::execute_parallel_traced`] under a recorder) deals the groups
//!   over a work-stealing queue of scoped worker threads, each pipelining
//!   up to `lookahead` groups into its capacity-checked fast memory.
//! * With two shards, the result lives on shard 0 (every worker's home) and
//!   the inputs on shard 1, so a worker's cross-shard traffic is the input
//!   stream the paper's communication analysis bounds. The groups are
//!   assigned statically by [`partition_groups`], as a distributed run
//!   cannot rebalance cheaply, and each worker replays its share serially.
//!
//! Two oracles check every run, and a mismatch is an error, not a panic:
//! each worker's observed [`WorkerIo`] must equal the dry-run accounting of
//! exactly the groups it processed ([`analytic_worker_io`]), and a sharded
//! worker's local/cross split must equal the partitioner's prediction.
//!
//! Distributing the triangle blocks of TBS needs ≈ `1/√2` of the per-worker
//! input traffic of distributing square blocks: the paper's headline at the
//! parallel level.
//!
//! ```
//! use symla_core::api::{run, Job, RunOptions, SyrkAlgorithm};
//! use symla_matrix::{generate, SymMatrix};
//!
//! let a = generate::random_matrix_seeded::<f64>(60, 8, 1);
//! let syrk = |c, workers| {
//!     let job = Job::Syrk { a: &a, c, alpha: 1.0, algorithm: SyrkAlgorithm::Tbs };
//!     run(job, &RunOptions { workers, ..RunOptions::new(10) }).unwrap()
//! };
//! let (mut serial, mut parallel) = (SymMatrix::zeros(60), SymMatrix::zeros(60));
//! let one = syrk(&mut serial, 1);
//! let four = syrk(&mut parallel, 4).parallel.unwrap();
//! assert!(parallel == serial); // bitwise
//! assert_eq!(four.per_worker.len(), 4);
//! assert_eq!(four.total_loads(), one.report.stats.volume.loads);
//! ```

use crate::api::{Job, Replayed, RunOptions};
use std::collections::BTreeMap;
use symla_baselines::error::{OocError, Result};
use symla_matrix::Scalar;
use symla_memory::{IoStats, MachineConfig, MatrixId, SharedSlowMemory};
use symla_sched::{partition_groups, Engine, EngineConfig, NodeAssignment, Schedule, WorkerRun};

/// The phase label of groups that carry none (the serial replay's default).
const PHASE: &str = "main";

/// The shard every worker calls home, and the one the result lives on.
const HOME: usize = 0;

/// Communication volume of one worker of a parallel run.
///
/// [`ParallelReport::per_worker`] holds the *observed* counts (what the
/// worker's capacity-checked machine measured while executing its task
/// groups); [`analytic_worker_io`] gives the *analytic* dry-run prediction
/// for the same groups. The two are checked equal on every run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerIo {
    /// Elements the worker read from slow memory.
    pub loads: u64,
    /// Elements the worker wrote back.
    pub stores: u64,
    /// Number of task groups the worker processed.
    pub tasks: usize,
    /// Elements moved to or from the worker's home shard (all of its
    /// traffic when the slow memory has one shard).
    pub local: u64,
    /// Elements moved to or from every other shard.
    pub cross: u64,
}

/// Outcome of a parallel run ([`RunOutcome::parallel`](crate::api::RunOutcome::parallel)).
#[derive(Debug, Clone)]
pub struct ParallelReport {
    /// Number of workers.
    pub workers: usize,
    /// Per-worker fast-memory budget.
    pub memory_per_worker: usize,
    /// Per-worker communication volumes.
    pub per_worker: Vec<WorkerIo>,
    /// Elements of load traffic the workers issued ahead of the consuming
    /// group (pipelined group handoff; 0 without a lookahead). Part of the
    /// total load volume, not in addition to it.
    pub prefetched_loads: u64,
    /// The static group-to-worker assignment a sharded run executed (`None`
    /// for the work-stealing run on one shard).
    pub assignment: Option<NodeAssignment>,
}

impl ParallelReport {
    /// Total loads over all workers.
    pub fn total_loads(&self) -> u64 {
        self.per_worker.iter().map(|w| w.loads).sum()
    }

    /// Total stores over all workers.
    pub fn total_stores(&self) -> u64 {
        self.per_worker.iter().map(|w| w.stores).sum()
    }

    /// The busiest worker's load volume (the quantity parallel lower bounds
    /// constrain).
    pub fn max_loads(&self) -> u64 {
        self.per_worker.iter().map(|w| w.loads).max().unwrap_or(0)
    }

    /// Total cross-shard volume over all workers.
    pub fn total_cross(&self) -> u64 {
        self.per_worker.iter().map(|w| w.cross).sum()
    }

    /// The busiest worker's cross-shard volume (the communication
    /// bottleneck of a bandwidth-bound distributed run).
    pub fn max_cross(&self) -> u64 {
        self.per_worker.iter().map(|w| w.cross).max().unwrap_or(0)
    }

    /// Load imbalance: the busiest worker's load volume over the mean
    /// per-worker load volume. `1.0` means perfectly balanced; the parallel
    /// makespan of a bandwidth-bound run scales with this factor, since the
    /// run finishes when the busiest worker does. Returns `1.0` for an empty
    /// or traffic-free report.
    pub fn imbalance(&self) -> f64 {
        if self.per_worker.is_empty() || self.total_loads() == 0 {
            return 1.0;
        }
        let mean = self.total_loads() as f64 / self.per_worker.len() as f64;
        self.max_loads() as f64 / mean
    }
}

/// The engine dry-run accounting of the task groups at `groups` of
/// `schedule` — the analytic per-worker volume the paper's parallel
/// analysis predicts for the worker that processed exactly those groups,
/// all of it local (one shard).
///
/// Every parallel run checks each worker's *observed* [`WorkerIo`] against
/// this oracle; tests use it to cross-check arbitrary assignments.
pub fn analytic_worker_io<T: Scalar>(schedule: &Schedule<T>, groups: &[usize]) -> WorkerIo {
    let picked = Schedule {
        groups: groups.iter().map(|&g| schedule.groups[g].clone()).collect(),
    };
    let stats = Engine::dry_run(&picked, PHASE);
    WorkerIo {
        loads: stats.volume.loads,
        stores: stats.volume.stores,
        tasks: groups.len(),
        local: stats.volume.loads + stats.volume.stores,
        cross: 0,
    }
}

/// Steps 2–4 of a parallel run: registers the operands in a shared slow
/// memory of `opts.shards` shards, replays `schedule` on `opts.workers`
/// workers, checks every worker against the oracles and takes the result.
///
/// The result is taken back before any error is reported: completed groups
/// were stored consistently, a failed group's buffers were released without
/// a write-back, and every worker has left its scope, so the caller's `c`
/// holds the partially updated result.
pub(crate) fn replay<T: Scalar>(
    job: &mut Job<'_, T>,
    schedule: &Schedule<T>,
    opts: &RunOptions<'_>,
) -> Result<Replayed<T>> {
    let mut shared = SharedSlowMemory::with_shards(opts.shards);
    let id = job.register(&mut shared);
    let config = MachineConfig::with_capacity(opts.memory);
    let outcome = if opts.shards == 1 {
        work_stealing(&shared, schedule, config, opts).map(|runs| (runs, None))
    } else {
        sharded(&shared, schedule, config, opts.workers).map(|(runs, a)| (runs, Some(a)))
    };
    let checked = outcome.and_then(|(runs, assignment)| report(schedule, &runs, assignment, opts));
    let factor = job.take(&mut shared, id)?;
    let (stats, report) = checked?;
    Ok(Replayed {
        stats,
        factor,
        clock: None,
        parallel: Some(report),
    })
}

/// The one-shard replay: the engine's work-stealing queue, traced when the
/// options carry a recorder (and hence a model).
fn work_stealing<T: Scalar>(
    shared: &SharedSlowMemory<T>,
    schedule: &Schedule<T>,
    config: MachineConfig,
    opts: &RunOptions<'_>,
) -> Result<Vec<WorkerRun>> {
    let engine = EngineConfig::with_lookahead(opts.lookahead);
    let workers = opts.workers;
    let runs = match (opts.model, opts.recorder) {
        (Some(model), Some(recorder)) => Engine::execute_parallel_traced(
            shared, schedule, workers, config, PHASE, &engine, &model, recorder,
        ),
        _ => Engine::execute_parallel_with(shared, schedule, workers, config, PHASE, &engine),
    };
    runs.map_err(|e| e.error.into())
}

/// The two-shard replay: groups assigned statically by [`partition_groups`]
/// to `nodes` workers homed on [`HOME`], each replaying its share serially
/// in a scoped thread.
fn sharded<T: Scalar>(
    shared: &SharedSlowMemory<T>,
    schedule: &Schedule<T>,
    config: MachineConfig,
    nodes: usize,
) -> Result<(Vec<WorkerRun>, NodeAssignment)> {
    // Ids are issued from 0 in registration order: map each to its shard.
    let shard_of: BTreeMap<u64, usize> = (0..)
        .map(MatrixId::synthetic)
        .map_while(|id| shared.shard_of(id).ok().map(|shard| (id.raw(), shard)))
        .collect();
    let assignment = partition_groups(schedule, &shard_of, &vec![HOME; nodes]);
    let outcomes: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = assignment
            .nodes
            .iter()
            .map(|groups| {
                scope.spawn(move || {
                    let share = Schedule {
                        groups: groups.iter().map(|&g| schedule.groups[g].clone()).collect(),
                    };
                    let mut machine = shared.worker_on(config, HOME);
                    Engine::execute(&mut machine, &share)?;
                    Ok::<_, OocError>(WorkerRun {
                        stats: machine.into_accounting().0,
                        trace: None,
                        groups: groups.clone(),
                    })
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    let runs = outcomes
        .into_iter()
        .enumerate()
        .map(|(node, joined)| {
            joined
                .unwrap_or_else(|_| Err(OocError::Invalid(format!("sharded node {node} panicked"))))
        })
        .collect::<Result<_>>()?;
    Ok((runs, assignment))
}

/// Checks every worker against the dry-run oracle (and a sharded worker
/// against the partitioner), and returns the merged stats with the report.
fn report<T: Scalar>(
    schedule: &Schedule<T>,
    runs: &[WorkerRun],
    assignment: Option<NodeAssignment>,
    opts: &RunOptions<'_>,
) -> Result<(IoStats, ParallelReport)> {
    let mut per_worker = Vec::with_capacity(runs.len());
    for (w, run) in runs.iter().enumerate() {
        let volume = run.stats.volume;
        let total = volume.loads + volume.stores;
        let local = match assignment {
            Some(_) => run.stats.shard(HOME).loads + run.stats.shard(HOME).stores,
            None => total,
        };
        let observed = WorkerIo {
            loads: volume.loads,
            stores: volume.stores,
            tasks: run.groups.len(),
            local,
            cross: total - local,
        };
        let analytic = analytic_worker_io(schedule, &run.groups);
        let expected = match &assignment {
            Some(a) => WorkerIo {
                local: a.local_volume[w],
                cross: a.cross_volume[w],
                ..analytic
            },
            None => analytic,
        };
        if observed != expected {
            return Err(OocError::Invalid(format!(
                "worker {w}: observed I/O {observed:?} diverged from the prediction {expected:?}"
            )));
        }
        per_worker.push(observed);
    }
    let report = ParallelReport {
        workers: opts.workers,
        memory_per_worker: opts.memory,
        per_worker,
        prefetched_loads: runs.iter().map(|r| r.stats.prefetched_elements).sum(),
        assignment,
    };
    Ok((WorkerRun::merged_stats(runs), report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{run, RunOutcome, SyrkAlgorithm};
    use crate::plan::TbsPlan;
    use crate::tbs::tbs_schedule;
    use symla_matrix::generate::{random_matrix_seeded, random_spd_seeded};
    use symla_matrix::kernels::syrk_sym;
    use symla_matrix::{Matrix, SymMatrix};
    use symla_memory::{PanelRef, SymWindowRef};

    /// The two distributions the paper compares.
    const BOTH: [SyrkAlgorithm; 2] = [SyrkAlgorithm::SquareBlocks, SyrkAlgorithm::Tbs];

    fn reference(n: usize, m: usize, seed: u64) -> (Matrix<f64>, SymMatrix<f64>) {
        let a: Matrix<f64> = random_matrix_seeded(n, m, seed);
        let mut c = SymMatrix::zeros(n);
        syrk_sym(1.0, &a, 1.0, &mut c).unwrap();
        (a, c)
    }

    fn opts(s: usize, workers: usize, shards: usize, lookahead: usize) -> RunOptions<'static> {
        RunOptions {
            workers,
            shards,
            lookahead,
            ..RunOptions::new(s)
        }
    }

    /// `C = A·Aᵀ` into a zero `C`: the result and the outcome.
    fn syrk(
        a: &Matrix<f64>,
        algorithm: SyrkAlgorithm,
        opts: &RunOptions<'_>,
    ) -> Result<(SymMatrix<f64>, RunOutcome<f64>)> {
        let mut c = SymMatrix::zeros(a.rows());
        let job = Job::Syrk {
            a,
            c: &mut c,
            alpha: 1.0,
            algorithm,
        };
        let outcome = run(job, opts)?;
        Ok((c, outcome))
    }

    #[test]
    fn parallel_result_matches_reference_for_both_strategies() {
        let (n, m, s) = (40, 8, 10);
        let (a, expected) = reference(n, m, 71);
        for algorithm in BOTH {
            let (_, serial) = syrk(&a, algorithm, &opts(s, 1, 1, 0)).unwrap();
            assert!(serial.parallel.is_none(), "one worker is the serial run");
            for workers in [2, 3, 4] {
                let (c, outcome) = syrk(&a, algorithm, &opts(s, workers, 1, 0)).unwrap();
                let report = outcome.parallel.unwrap();
                assert!(
                    c.approx_eq(&expected, 1e-11),
                    "{} w={workers}",
                    algorithm.name()
                );
                assert_eq!(report.workers, workers);
                assert_eq!(report.per_worker.len(), workers);
                assert!(report.assignment.is_none());
                let tasks: usize = report.per_worker.iter().map(|w| w.tasks).sum();
                assert!(tasks > 0);
            }
        }
    }

    #[test]
    fn triangle_blocks_reduce_total_input_traffic() {
        // At a size where the TBS partition engages, the triangle-block
        // distribution moves less input data in total than square blocks.
        let (n, m, s) = (120, 16, 10); // k = 4, t = 2
        let (a, expected) = reference(n, m, 72);
        let (c1, square) = syrk(&a, SyrkAlgorithm::SquareBlocks, &opts(s, 4, 1, 0)).unwrap();
        let (c2, triangle) = syrk(&a, SyrkAlgorithm::Tbs, &opts(s, 4, 1, 0)).unwrap();
        assert!(c1.approx_eq(&expected, 1e-10));
        assert!(c2.approx_eq(&expected, 1e-10));
        let (square, triangle) = (square.parallel.unwrap(), triangle.parallel.unwrap());
        assert!(
            triangle.total_loads() < square.total_loads(),
            "triangle {} vs square {}",
            triangle.total_loads(),
            square.total_loads()
        );
        // Per-worker balance depends on the dynamic scheduling (thread
        // start-up order makes it noisy for tiny groups): not asserted.
        assert!(triangle.imbalance() >= 1.0);
        assert!(square.imbalance() >= 1.0);
    }

    #[test]
    fn prefetched_parallel_run_matches_plain_run_bitwise() {
        let (n, m, s) = (40, 8, 12);
        let (a, expected) = reference(n, m, 75);
        for algorithm in BOTH {
            let (plain_c, plain) = syrk(&a, algorithm, &opts(s, 3, 1, 0)).unwrap();
            let plain = plain.parallel.unwrap();
            assert_eq!(plain.prefetched_loads, 0);
            for lookahead in [1usize, 2] {
                let (c, outcome) = syrk(&a, algorithm, &opts(s, 3, 1, lookahead)).unwrap();
                let report = outcome.parallel.unwrap();
                let ctx = format!("{} L={lookahead}", algorithm.name());
                assert!(c.approx_eq(&expected, 1e-11), "{ctx}");
                assert!(c == plain_c, "{ctx}: bitwise vs plain parallel run");
                // Volumes are placement-independent and the overlap is part
                // of them, not on top of them.
                assert_eq!(report.total_loads(), plain.total_loads(), "{ctx}");
                assert_eq!(report.total_stores(), plain.total_stores(), "{ctx}");
                assert!(report.prefetched_loads <= report.total_loads(), "{ctx}");
                assert!(outcome.report.stats.peak_resident <= s, "{ctx}");
            }
        }
    }

    #[test]
    fn worker_accounting_sums_to_the_serial_volume() {
        // The per-worker volumes sum to the serial run's: every group runs
        // on exactly one worker, and the merged stats are the report's.
        let (n, m, s) = (48, 6, 10);
        let (a, _) = reference(n, m, 73);
        for algorithm in BOTH {
            let (_, serial) = syrk(&a, algorithm, &opts(s, 1, 1, 0)).unwrap();
            let (_, outcome) = syrk(&a, algorithm, &opts(s, 3, 1, 0)).unwrap();
            let report = outcome.parallel.as_ref().unwrap();
            let volume = serial.report.stats.volume;
            assert_eq!(report.total_loads(), volume.loads, "{}", algorithm.name());
            assert_eq!(report.total_stores(), volume.stores, "{}", algorithm.name());
            assert_eq!(outcome.report.stats.volume, volume, "{}", algorithm.name());
            assert!(outcome.report.prediction_matches(), "{}", algorithm.name());
        }
    }

    #[test]
    fn stores_cover_the_lower_triangle_exactly_once() {
        // Groups partition the result: total stores equal the packed size
        // of C for both distributions.
        let (n, m, s) = (60, 4, 10);
        let (a, _) = reference(n, m, 76);
        for algorithm in BOTH {
            let (_, outcome) = syrk(&a, algorithm, &opts(s, 3, 1, 0)).unwrap();
            assert_eq!(
                outcome.parallel.unwrap().total_stores(),
                (n * (n + 1) / 2) as u64,
                "{}",
                algorithm.name()
            );
        }
    }

    #[test]
    fn parallel_execution_is_bitwise_equal_to_serial_replay() {
        // Groups are disjoint, so no accumulation order differs between the
        // serial and the parallel replay of one schedule, only placement.
        let (n, m, s) = (48, 6, 10);
        let (a, _) = reference(n, m, 74);
        for algorithm in BOTH {
            let (serial_c, serial) = syrk(&a, algorithm, &opts(s, 1, 1, 0)).unwrap();
            for workers in [2, 4, 8] {
                let (c, outcome) = syrk(&a, algorithm, &opts(s, workers, 1, 0)).unwrap();
                assert!(c == serial_c, "{} P={workers}", algorithm.name());
                assert_eq!(
                    outcome.parallel.unwrap().total_loads(),
                    serial.report.stats.volume.loads,
                    "{} P={workers}",
                    algorithm.name()
                );
            }
        }
    }

    #[test]
    fn analytic_worker_io_sums_to_the_full_schedule() {
        let (n, m, s) = (36, 5, 10);
        let a = PanelRef::dense(MatrixId::synthetic(0), n, m);
        let c = SymWindowRef::full(MatrixId::synthetic(1), n);
        let plan = TbsPlan::for_memory(s).unwrap();
        let schedule = tbs_schedule::<f64>(&a, &c, 1.0, &plan).unwrap();
        let all: Vec<usize> = (0..schedule.num_groups()).collect();
        let whole = analytic_worker_io(&schedule, &all);
        let stats = Engine::dry_run(&schedule, PHASE);
        assert_eq!(whole.loads, stats.volume.loads);
        assert_eq!(whole.stores, stats.volume.stores);
        assert_eq!(whole.tasks, schedule.num_groups());
        assert_eq!((whole.local, whole.cross), (whole.loads + whole.stores, 0));
        // Splitting the groups arbitrarily conserves the totals.
        let (left, right) = all.split_at(all.len() / 3);
        let l = analytic_worker_io(&schedule, left);
        let r = analytic_worker_io(&schedule, right);
        assert_eq!(l.loads + r.loads, whole.loads);
        assert_eq!(l.stores + r.stores, whole.stores);
        assert_eq!(analytic_worker_io(&schedule, &[]), WorkerIo::default());
    }

    #[test]
    fn sharded_run_matches_reference_and_the_partitioner_accounting() {
        let (n, m, s) = (40, 8, 10);
        let (a, expected) = reference(n, m, 81);
        for algorithm in BOTH {
            let (plain_c, plain) = syrk(&a, algorithm, &opts(s, 2, 1, 0)).unwrap();
            let plain = plain.parallel.unwrap();
            for nodes in [1usize, 2, 4] {
                let (c, outcome) = syrk(&a, algorithm, &opts(s, nodes, 2, 0)).unwrap();
                let report = outcome.parallel.unwrap();
                let assignment = report.assignment.as_ref().unwrap();
                let ctx = format!("{} N={nodes}", algorithm.name());
                assert!(c.approx_eq(&expected, 1e-11), "{ctx}");
                // Groups cover disjoint entries, so placement cannot change
                // the arithmetic: bitwise equal to the work-stealing run.
                assert!(c == plain_c, "{ctx}");
                assert_eq!(report.workers, nodes, "{ctx}");
                assert_eq!(report.per_worker.len(), nodes, "{ctx}");
                assert_eq!(report.total_loads(), plain.total_loads(), "{ctx}");
                assert_eq!(report.total_stores(), plain.total_stores(), "{ctx}");
                // C lives on the home shard and is loaded and stored once
                // per group; everything else is cross-shard A traffic.
                assert_eq!(
                    report.total_cross(),
                    report.total_loads() - report.total_stores(),
                    "{ctx}"
                );
                assert_eq!(report.total_cross(), assignment.total_cross(), "{ctx}");
                assert_eq!(report.max_cross(), assignment.max_cross(), "{ctx}");
                let tasks: usize = report.per_worker.iter().map(|w| w.tasks).sum();
                assert_eq!(tasks, assignment.nodes.iter().map(Vec::len).sum());
            }
        }
    }

    #[test]
    fn sharded_triangle_blocks_cut_cross_shard_traffic_toward_the_paper_ratio() {
        // The cross-shard volume of a sharded run is exactly the A traffic,
        // so the triangle-block advantage shows up undiluted by the C
        // traffic: at (120, 16, 10) TBS (k = 4) streams about 0.73 of the
        // square blocks' input rows — the finite-size shadow of the paper's
        // asymptotic 1/sqrt(2) ~ 0.707.
        let (n, m, s) = (120, 16, 10);
        let (a, expected) = reference(n, m, 82);
        let (c1, square) = syrk(&a, SyrkAlgorithm::SquareBlocks, &opts(s, 4, 2, 0)).unwrap();
        let (c2, triangle) = syrk(&a, SyrkAlgorithm::Tbs, &opts(s, 4, 2, 0)).unwrap();
        assert!(c1.approx_eq(&expected, 1e-10));
        assert!(c2.approx_eq(&expected, 1e-10));
        let (square, triangle) = (square.parallel.unwrap(), triangle.parallel.unwrap());
        let ratio = triangle.total_cross() as f64 / square.total_cross() as f64;
        assert!(
            (0.6..=0.78).contains(&ratio),
            "cross-shard ratio {ratio} (triangle {} vs square {}) outside the 1/sqrt(2) band",
            triangle.total_cross(),
            square.total_cross()
        );
        // The bottleneck node improves too, not just the total.
        assert!(
            triangle.max_cross() < square.max_cross(),
            "triangle max {} vs square max {}",
            triangle.max_cross(),
            square.max_cross()
        );
    }

    #[test]
    fn sharded_errors_on_bad_arguments() {
        let a: Matrix<f64> = Matrix::zeros(4, 2);
        let mut c = SymMatrix::zeros(5);
        let job = Job::Syrk {
            a: &a,
            c: &mut c,
            alpha: 1.0,
            algorithm: SyrkAlgorithm::SquareBlocks,
        };
        assert!(run(job, &opts(10, 2, 2, 0)).is_err());
        for bad in [opts(10, 0, 2, 0), opts(10, 2, 3, 0), opts(10, 2, 2, 1)] {
            assert!(
                syrk(&a, SyrkAlgorithm::SquareBlocks, &bad).is_err(),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn errors_on_bad_arguments() {
        let a: Matrix<f64> = Matrix::zeros(4, 2);
        let mut c = SymMatrix::zeros(5);
        let job = Job::Syrk {
            a: &a,
            c: &mut c,
            alpha: 1.0,
            algorithm: SyrkAlgorithm::SquareBlocks,
        };
        assert!(run(job, &opts(10, 2, 1, 0)).is_err());
        assert!(syrk(&a, SyrkAlgorithm::SquareBlocks, &opts(10, 0, 1, 0)).is_err());
        assert!(syrk(&a, SyrkAlgorithm::SquareBlocks, &opts(1, 2, 1, 0)).is_err());
        let spd = random_spd_seeded::<f64>(8, 3);
        let cholesky = Job::Cholesky {
            a: &spd,
            algorithm: crate::api::CholeskyAlgorithm::Lbc,
        };
        assert!(run(cholesky, &opts(20, 2, 1, 0)).is_err());
    }

    #[test]
    fn report_helpers() {
        let worker = |loads, stores, tasks, cross| WorkerIo {
            loads,
            stores,
            tasks,
            local: loads + stores - cross,
            cross,
        };
        let report = ParallelReport {
            workers: 2,
            memory_per_worker: 16,
            per_worker: vec![worker(10, 2, 1, 4), worker(30, 4, 3, 20)],
            prefetched_loads: 0,
            assignment: None,
        };
        assert_eq!(report.total_loads(), 40);
        assert_eq!(report.total_stores(), 6);
        assert_eq!(report.max_loads(), 30);
        assert_eq!(report.total_cross(), 24);
        assert_eq!(report.max_cross(), 20);
        assert!((report.imbalance() - 1.5).abs() < 1e-12);
        let empty = ParallelReport {
            workers: 0,
            memory_per_worker: 0,
            per_worker: vec![],
            prefetched_loads: 0,
            assignment: None,
        };
        assert_eq!(empty.max_loads(), 0);
        assert_eq!(empty.max_cross(), 0);
        assert_eq!(empty.imbalance(), 1.0);
    }
}
