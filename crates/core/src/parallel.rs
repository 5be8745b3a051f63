//! Shared-slow-memory parallel SYRK, executed for real on `P` workers —
//! the paper's "future work" direction (communication-efficient *parallel*
//! symmetric kernels), explored as an extension.
//!
//! The model follows Section 2.2 of the paper: `P` workers, each with a
//! private fast memory of `S` elements, exchange data with a shared slow
//! memory. The result matrix is partitioned into independent units (square
//! tiles, or the triangle blocks of TBS), the units are distributed over the
//! workers, and each worker's communication volume is the sum of the unit
//! footprints it processes — exactly the quantity the sequential analysis
//! counts, now *measured* per worker.
//!
//! Units of work are schedule-IR [`TaskGroup`]s (the same representation the
//! sequential engine executes): each unit's group loads its result
//! footprint, streams the rows of `A` it needs and applies the rank-`1`
//! updates through [`ComputeOp`]s. [`parallel_syrk`] registers the operands
//! in a [`SharedSlowMemory`] and hands the groups to
//! [`Engine::execute_parallel`], which distributes them over a work-stealing
//! queue of scoped worker threads — each with a capacity-checked private
//! fast memory counting its own I/O. The dry-run path remains the oracle:
//! each returned [`WorkerIo`] is asserted equal to the
//! [`Engine::dry_run`] accounting of exactly the groups that worker
//! processed (see [`analytic_worker_io`]), so the observed and analytic
//! per-worker volumes can never drift apart.
//!
//! Comparing the two partitioning strategies reproduces the paper's headline
//! at the parallel level: distributing **triangle blocks** needs ≈ `1/√2`
//! of the per-worker input traffic of distributing square tiles.

use crate::plan::TbsPlan;
use std::collections::BTreeMap;
use symla_baselines::error::{OocError, Result};
use symla_baselines::params::{square_tile_for_capacity, tile_extents};
use symla_matrix::kernels::FlopCount;
use symla_matrix::{Matrix, Scalar, SymMatrix};
use symla_memory::{MachineConfig, MachineModel, MatrixId, Region, SharedSlowMemory};
use symla_obs::TraceRecorder;
use symla_sched::engine::ParallelError;
use symla_sched::indexing::CyclicIndexing;
use symla_sched::ir::{BufId, BufSlice, ComputeOp};
use symla_sched::{
    partition_groups, Engine, EngineConfig, NodeAssignment, Schedule, ScheduleBuilder, TaskGroup,
    WorkerRun,
};

/// How the result matrix is partitioned into per-worker units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockStrategy {
    /// Square tiles of side `t` with `t² + 2t ≤ S` (the conventional
    /// distribution).
    SquareTiles,
    /// Triangle blocks of the TBS partition (side `k`, `k(k+1)/2 ≤ S`),
    /// falling back to square tiles where the partition does not apply.
    TriangleBlocks,
}

impl BlockStrategy {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            BlockStrategy::SquareTiles => "square tiles",
            BlockStrategy::TriangleBlocks => "triangle blocks",
        }
    }
}

/// Synthetic matrix ids used inside the per-unit task groups (the parallel
/// planner analyzes schedules without a backing machine).
const C_MATRIX: MatrixId = MatrixId::synthetic(0);
const A_MATRIX: MatrixId = MatrixId::synthetic(1);

/// One independent unit of work: its result footprint (as exact regions and
/// as an explicit entry list) and the distinct rows of `A` it reads.
///
/// The unit's schedule-IR task group — load the footprint, stream every
/// needed row of `A` once per column, store the footprint back — is
/// materialized on demand by [`unit_schedule`], so the planner holds one
/// region/row list per unit rather than `m` copies of it.
#[derive(Debug, Clone)]
struct Unit {
    c_regions: Vec<Region>,
    entries: Vec<(usize, usize)>,
    rows: Vec<usize>,
}

/// Builds a unit from its result-footprint regions (disjoint, covering
/// exactly `entries`), its entry list and its distinct `A` rows.
fn build_unit(c_regions: Vec<Region>, entries: Vec<(usize, usize)>, rows: Vec<usize>) -> Unit {
    debug_assert_eq!(
        c_regions.iter().map(Region::len).sum::<usize>(),
        entries.len(),
        "footprint regions must cover the entry list exactly"
    );
    Unit {
        c_regions,
        entries,
        rows,
    }
}

/// Emits the compute step updating one footprint region of a unit from one
/// streamed column of `A`.
///
/// `abuf` holds the column's values at the unit's (sorted, distinct) `rows`;
/// each region's row and column index ranges are contiguous sub-slices of
/// that buffer, located by binary search. The op adds
/// `alpha · A[i,q] · A[j,q]` to every entry `(i, j)` of the region — the
/// exact term the reference SYRK accumulates.
fn region_update<T: Scalar>(
    sched: &mut ScheduleBuilder<T>,
    alpha: T,
    abuf: BufId,
    rows: &[usize],
    cbuf: BufId,
    region: &Region,
) {
    let pos = |r: usize| {
        rows.binary_search(&r)
            .expect("footprint row missing from the unit's row set")
    };
    match region {
        Region::SymPairs { rows: pair_rows } => {
            debug_assert_eq!(pair_rows.as_slice(), rows, "pair blocks own their row set");
            sched.compute(ComputeOp::TrianglePairs {
                alpha,
                x: BufSlice::whole(abuf, rows.len()),
                dst: cbuf,
            });
        }
        Region::SymLowerTriangle { start, size } => {
            let p = pos(*start);
            debug_assert_eq!(rows[p + size - 1], start + size - 1, "contiguous row range");
            sched.compute(ComputeOp::SprLower {
                alpha,
                x: BufSlice::new(abuf, p, *size),
                dst: cbuf,
            });
        }
        Region::SymRect {
            row0,
            col0,
            rows: rc,
            cols: cc,
        } => {
            let px = pos(*row0);
            let py = pos(*col0);
            debug_assert_eq!(rows[px + rc - 1], row0 + rc - 1, "contiguous row range");
            debug_assert_eq!(rows[py + cc - 1], col0 + cc - 1, "contiguous column range");
            sched.compute(ComputeOp::Ger {
                alpha,
                x: BufSlice::new(abuf, px, *rc),
                y: BufSlice::new(abuf, py, *cc),
                dst: cbuf,
            });
        }
        other => unreachable!("unit footprints are symmetric regions, got {other}"),
    }
}

/// Materializes the task group of one unit as a single-group schedule:
/// load the footprint, stream every needed row of `A` once per column
/// (applying the rank-1 updates), store the footprint back.
fn unit_schedule<T: Scalar>(unit: &Unit, m: usize, alpha: T) -> Schedule<T> {
    let mut sched = ScheduleBuilder::new();
    sched.begin_group();
    let cbufs: Vec<_> = unit
        .c_regions
        .iter()
        .map(|r| sched.load(C_MATRIX, r.clone()))
        .collect();
    for q in 0..m {
        let abuf = sched.load(
            A_MATRIX,
            Region::Rows {
                rows: unit.rows.clone(),
                col0: q,
                cols: 1,
            },
        );
        for (cbuf, region) in cbufs.iter().zip(unit.c_regions.iter()) {
            region_update(&mut sched, alpha, abuf, &unit.rows, *cbuf, region);
        }
        sched.discard(abuf);
    }
    let muls = (unit.entries.len() * m) as u128;
    sched.flops(FlopCount::new(muls, muls));
    for cbuf in cbufs {
        sched.store(cbuf);
    }
    sched.finish()
}

/// Communication volume of one worker of a parallel run.
///
/// Returned by [`parallel_syrk`] as *observed* counts (what the worker's
/// capacity-checked machine measured while executing its task groups) and by
/// [`analytic_worker_io`] as the *analytic* dry-run prediction for the same
/// groups; the two are asserted equal on every run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerIo {
    /// Elements the worker read from slow memory (result entries + input
    /// rows).
    pub loads: u64,
    /// Elements the worker wrote back.
    pub stores: u64,
    /// Number of units the worker processed.
    pub tasks: usize,
}

/// Outcome of a parallel run.
#[derive(Debug, Clone)]
pub struct ParallelReport {
    /// Number of workers.
    pub workers: usize,
    /// Partitioning strategy used.
    pub strategy: BlockStrategy,
    /// Per-worker fast-memory budget.
    pub memory_per_worker: usize,
    /// Per-worker communication volumes.
    pub per_worker: Vec<WorkerIo>,
    /// Elements of load traffic the workers issued ahead of the consuming
    /// unit (pipelined group handoff; 0 without a lookahead). Part of the
    /// total load volume, not in addition to it.
    pub prefetched_loads: u64,
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

/// Square-tile units over the lower triangle of the order-`n` window starting
/// at absolute row/column `offset`.
fn square_units(n: usize, offset: usize, t: usize, out: &mut Vec<Unit>) {
    let extents = tile_extents(n, t);
    for (tj, &(j0, jc)) in extents.iter().enumerate() {
        for (ti, &(i0, ic)) in extents.iter().enumerate().skip(tj) {
            let mut entries = Vec::new();
            for i in i0..i0 + ic {
                for j in j0..(j0 + jc).min(i + 1) {
                    entries.push((offset + i, offset + j));
                }
            }
            if entries.is_empty() {
                continue;
            }
            let mut rows: Vec<usize> = (i0..i0 + ic).collect();
            if i0 != j0 {
                rows.extend(j0..j0 + jc);
            }
            rows.sort_unstable();
            rows.dedup();
            let rows: Vec<usize> = rows.into_iter().map(|r| offset + r).collect();

            let regions = if ti == tj {
                vec![Region::SymLowerTriangle {
                    start: offset + i0,
                    size: ic,
                }]
            } else {
                vec![Region::SymRect {
                    row0: offset + i0,
                    col0: offset + j0,
                    rows: ic,
                    cols: jc,
                }]
            };
            out.push(build_unit(regions, entries, rows));
        }
    }
}

/// Builds the unit list for the triangle-block strategy: the TBS partition's
/// triangle blocks where it applies, recursing into the diagonal zones, and
/// square tiles for the leftover strip / non-applicable sizes.
fn triangle_units(n: usize, offset: usize, plan: &TbsPlan, t: usize, out: &mut Vec<Unit>) {
    match plan.grid_size(n) {
        Some(c) if c + 1 >= plan.k => {
            let k = plan.k;
            let covered = c * k;
            // triangle blocks
            let family = CyclicIndexing::new(c, k);
            for i in 0..c {
                for j in 0..c {
                    let rows_rel = family.row_indices(i, j);
                    let mut rows: Vec<usize> = rows_rel.iter().map(|&r| offset + r).collect();
                    rows.sort_unstable();
                    let mut entries = Vec::new();
                    for (a, &r) in rows.iter().enumerate() {
                        for &rp in rows.iter().take(a) {
                            entries.push((r, rp));
                        }
                    }
                    let regions = vec![Region::SymPairs { rows: rows.clone() }];
                    out.push(build_unit(regions, entries, rows));
                }
            }
            // diagonal zones: recurse
            for u in 0..k {
                triangle_units(c, offset + u * c, plan, t, out);
            }
            // leftover strip: square tiles over the strip rows
            let leftover = n - covered;
            if leftover > 0 {
                strip_units(n, covered, offset, t, out);
            }
        }
        _ => square_units(n, offset, t, out),
    }
}

/// Square-tile units covering rows `[row_start, n)` of the lower triangle
/// (the leftover strip of the TBS partition), in window coordinates shifted
/// by `offset`.
fn strip_units(n: usize, row_start: usize, offset: usize, t: usize, out: &mut Vec<Unit>) {
    for &(i0, ic) in &tile_extents(n - row_start, t) {
        for &(j0, jc) in &tile_extents(n, t) {
            if j0 >= row_start + i0 + ic {
                break;
            }
            let lo_row = row_start + i0;
            let hi_row = row_start + i0 + ic;
            let mut entries = Vec::new();
            let mut regions = Vec::new();
            // Column-wise footprint: column j holds the rows max(lo, j)..hi,
            // so straddling tiles decompose into per-column segments while
            // fully sub-diagonal tiles collapse back into one rectangle.
            if j0 + jc <= lo_row {
                regions.push(Region::SymRect {
                    row0: offset + lo_row,
                    col0: offset + j0,
                    rows: ic,
                    cols: jc,
                });
            } else {
                for j in j0..j0 + jc {
                    let lo = lo_row.max(j);
                    if lo < hi_row {
                        regions.push(Region::SymRect {
                            row0: offset + lo,
                            col0: offset + j,
                            rows: hi_row - lo,
                            cols: 1,
                        });
                    }
                }
            }
            for i in lo_row..hi_row {
                for j in j0..(j0 + jc).min(i + 1) {
                    entries.push((offset + i, offset + j));
                }
            }
            if entries.is_empty() {
                continue;
            }
            let mut rows: Vec<usize> = (lo_row..hi_row).collect();
            rows.extend(j0..(j0 + jc).min(n));
            rows.sort_unstable();
            rows.dedup();
            let rows: Vec<usize> = rows.into_iter().map(|r| offset + r).collect();
            out.push(build_unit(regions, entries, rows));
        }
    }
}

/// Builds the unit list of a strategy for an order-`n` result and a
/// per-worker fast memory of `memory_per_worker` elements.
fn build_units(n: usize, memory_per_worker: usize, strategy: BlockStrategy) -> Result<Vec<Unit>> {
    let t = square_tile_for_capacity(memory_per_worker)?;
    let mut units: Vec<Unit> = Vec::new();
    match strategy {
        BlockStrategy::SquareTiles => square_units(n, 0, t, &mut units),
        BlockStrategy::TriangleBlocks => {
            let plan = TbsPlan::for_memory(memory_per_worker)?;
            triangle_units(n, 0, &plan, t, &mut units);
        }
    }
    Ok(units)
}

/// Concatenates the units' task groups into one schedule (one group per
/// unit, in partition order).
fn units_schedule<T: Scalar>(units: &[Unit], m: usize, alpha: T) -> Schedule<T> {
    let groups: Vec<TaskGroup<T>> = units
        .iter()
        .flat_map(|u| unit_schedule::<T>(u, m, alpha).groups)
        .collect();
    Schedule { groups }
}

/// The engine dry-run accounting of the task groups at `groups` of
/// `schedule` — the analytic per-worker volume the paper's parallel
/// analysis predicts for the worker that processed exactly those groups.
///
/// [`parallel_syrk`] asserts that every worker's *observed* [`WorkerIo`]
/// equals this oracle; tests use it to cross-check arbitrary assignments.
pub fn analytic_worker_io<T: Scalar>(schedule: &Schedule<T>, groups: &[usize]) -> WorkerIo {
    let picked = Schedule {
        groups: groups.iter().map(|&g| schedule.groups[g].clone()).collect(),
    };
    let stats = Engine::dry_run(&picked, "parallel");
    WorkerIo {
        loads: stats.volume.loads,
        stores: stats.volume.stores,
        tasks: groups.len(),
    }
}

/// Computes `C += alpha · A · Aᵀ` in parallel with `workers` threads, each a
/// node with a private, capacity-enforced fast memory of `memory_per_worker`
/// elements against a shared slow memory, and returns the per-worker
/// communication volumes actually measured.
///
/// The result matrix is partitioned into independent units by `strategy`;
/// their task groups are distributed over the workers by the work-stealing
/// queue of [`Engine::execute_parallel`] and *executed for real*: every
/// transfer moves data through the [`SharedSlowMemory`] image of `A` and
/// `C`, counted against the worker that issued it. The numerical result is
/// exact because units cover disjoint entries of `C`.
///
/// Each returned [`WorkerIo`] is asserted (not assumed) to equal the
/// dry-run accounting of the groups that worker processed — the analytic
/// model of [`analytic_worker_io`] — so this function is its own
/// observed-vs-analytic experiment.
pub fn parallel_syrk<T: Scalar>(
    a: &Matrix<T>,
    c: &mut SymMatrix<T>,
    alpha: T,
    workers: usize,
    memory_per_worker: usize,
    strategy: BlockStrategy,
) -> Result<ParallelReport> {
    parallel_syrk_prefetched(a, c, alpha, workers, memory_per_worker, strategy, 0)
}

/// [`parallel_syrk`] with a pipelined group handoff: each worker claims up
/// to `lookahead` additional units from the work-stealing queue and issues
/// their input loads into its private fast memory while the current unit
/// computes (see `Engine::execute_parallel_with`). Per-worker volumes, the
/// observed-vs-analytic assertion and the numerical result are identical to
/// the plain run; the overlapped share is returned in
/// [`ParallelReport::prefetched_loads`] and every worker still respects its
/// capacity.
pub fn parallel_syrk_prefetched<T: Scalar>(
    a: &Matrix<T>,
    c: &mut SymMatrix<T>,
    alpha: T,
    workers: usize,
    memory_per_worker: usize,
    strategy: BlockStrategy,
    lookahead: usize,
) -> Result<ParallelReport> {
    parallel_syrk_run(
        a,
        c,
        alpha,
        workers,
        memory_per_worker,
        strategy,
        |shared, schedule| {
            Engine::execute_parallel_with(
                shared,
                schedule,
                workers,
                MachineConfig::with_capacity(memory_per_worker),
                "parallel",
                &EngineConfig::with_lookahead(lookahead),
            )
        },
    )
}

/// [`parallel_syrk_prefetched`] with observability: every worker's machine
/// reports to (a clone of) `recorder`, so the run yields one
/// [`RunTrace`](symla_obs::RunTrace) with a track per worker — group
/// claims/steals, transfers, kernels and prefetch issue→delivery arrows,
/// stamped against both the real clock and the modelled timeline of
/// `model`. Per-worker volumes, the observed-vs-analytic assertion and the
/// numerical result are identical to the unobserved run.
#[allow(clippy::too_many_arguments)]
pub fn parallel_syrk_traced<T: Scalar>(
    a: &Matrix<T>,
    c: &mut SymMatrix<T>,
    alpha: T,
    workers: usize,
    memory_per_worker: usize,
    strategy: BlockStrategy,
    lookahead: usize,
    model: &MachineModel,
    recorder: &TraceRecorder,
) -> Result<ParallelReport> {
    parallel_syrk_run(
        a,
        c,
        alpha,
        workers,
        memory_per_worker,
        strategy,
        |shared, schedule| {
            Engine::execute_parallel_traced(
                shared,
                schedule,
                workers,
                MachineConfig::with_capacity(memory_per_worker),
                "parallel",
                &EngineConfig::with_lookahead(lookahead),
                model,
                recorder,
            )
        },
    )
}

/// The shared body of the parallel SYRK entry points: build units, register
/// operands, run `execute` (the plain or traced parallel engine), hand the
/// result back and cross-check every worker against the dry-run oracle.
fn parallel_syrk_run<T: Scalar, E>(
    a: &Matrix<T>,
    c: &mut SymMatrix<T>,
    alpha: T,
    workers: usize,
    memory_per_worker: usize,
    strategy: BlockStrategy,
    execute: E,
) -> Result<ParallelReport>
where
    E: FnOnce(
        &SharedSlowMemory<T>,
        &Schedule<T>,
    ) -> std::result::Result<Vec<WorkerRun>, ParallelError>,
{
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
    let units = build_units(n, memory_per_worker, strategy)?;
    let schedule = units_schedule::<T>(&units, m, alpha);

    // Move the operands into a shared slow memory. Insertion order matches
    // the synthetic ids the unit schedules were built against.
    let shared = SharedSlowMemory::new();
    let c_id = shared.insert_symmetric(std::mem::replace(c, SymMatrix::zeros(0)));
    let a_id = shared.insert_dense(a.clone());
    debug_assert_eq!((c_id, a_id), (C_MATRIX, A_MATRIX));

    let outcome = execute(&shared, &schedule);
    let runs = match outcome {
        Ok(runs) => runs,
        Err(e) => {
            // Hand the (partially updated) result back before reporting:
            // completed groups were stored consistently, the failed group's
            // buffers were released without a write-back. Every worker has
            // exited the scope and released its leases (even failed stores
            // release), so the take succeeds; should it ever fail, that
            // error is reported instead of the engine's.
            *c = shared.take_symmetric(c_id)?;
            return Err(e.error.into());
        }
    };
    *c = shared.take_symmetric(c_id)?;

    let mut per_worker = Vec::with_capacity(workers);
    let mut prefetched_loads = 0;
    for run in &runs {
        let observed = WorkerIo {
            loads: run.stats.volume.loads,
            stores: run.stats.volume.stores,
            tasks: run.groups.len(),
        };
        let analytic = analytic_worker_io(&schedule, &run.groups);
        assert_eq!(
            observed, analytic,
            "observed worker I/O diverged from the dry-run oracle"
        );
        prefetched_loads += run.stats.prefetched_elements;
        per_worker.push(observed);
    }

    Ok(ParallelReport {
        workers,
        strategy,
        memory_per_worker,
        per_worker,
        prefetched_loads,
    })
}

/// Communication volume of one node of a sharded parallel run, split into
/// traffic against the node's home shard and traffic against every other
/// shard (the distributed-memory cost the partitioner minimizes).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeIo {
    /// Elements moved to or from the node's home shard.
    pub local: u64,
    /// Elements moved to or from every other shard.
    pub cross: u64,
    /// Total elements the node read from slow memory (all shards).
    pub loads: u64,
    /// Total elements the node wrote back (all shards).
    pub stores: u64,
    /// Number of units the node processed.
    pub tasks: usize,
}

/// Outcome of a sharded parallel run ([`parallel_syrk_sharded`]).
#[derive(Debug, Clone)]
pub struct ShardedReport {
    /// Number of nodes.
    pub nodes: usize,
    /// Partitioning strategy used for the result matrix.
    pub strategy: BlockStrategy,
    /// Per-node fast-memory budget.
    pub memory_per_node: usize,
    /// Per-node communication volumes, *observed* by each node's
    /// capacity-checked machine and asserted equal to the partitioner's
    /// analytic prediction.
    pub per_node: Vec<NodeIo>,
    /// The static group-to-node assignment the run executed.
    pub assignment: NodeAssignment,
}

impl ShardedReport {
    /// Total cross-shard volume over all nodes.
    pub fn total_cross(&self) -> u64 {
        self.per_node.iter().map(|n| n.cross).sum()
    }

    /// The busiest node's cross-shard volume (the communication
    /// bottleneck of a bandwidth-bound distributed run).
    pub fn max_cross(&self) -> u64 {
        self.per_node.iter().map(|n| n.cross).max().unwrap_or(0)
    }

    /// Total loads over all nodes.
    pub fn total_loads(&self) -> u64 {
        self.per_node.iter().map(|n| n.loads).sum()
    }

    /// Total stores over all nodes.
    pub fn total_stores(&self) -> u64 {
        self.per_node.iter().map(|n| n.stores).sum()
    }
}

/// Computes `C += alpha · A · Aᵀ` on `nodes` nodes against a **sharded**
/// shared slow memory: `C` lives on shard 0 (every node's home), `A` on
/// shard 1, so each node's cross-shard traffic is exactly the input rows it
/// streams — the quantity the paper's communication analysis bounds.
///
/// Unlike [`parallel_syrk`]'s work-stealing queue, the units are assigned
/// to nodes *statically* by [`partition_groups`] (a distributed run cannot
/// rebalance cheaply), and every node replays its groups on its own
/// capacity-checked [`SharedSlowMemory`] worker in a scoped thread. Each
/// node's observed per-shard traffic is asserted equal to the partitioner's
/// analytic volumes, so the assignment the report carries can never drift
/// from what was executed. The numerical result is exact (units cover
/// disjoint entries of `C`) and bitwise equal to the unsharded runs.
pub fn parallel_syrk_sharded<T: Scalar>(
    a: &Matrix<T>,
    c: &mut SymMatrix<T>,
    alpha: T,
    nodes: usize,
    memory_per_node: usize,
    strategy: BlockStrategy,
) -> Result<ShardedReport> {
    let n = c.order();
    let m = a.cols();
    if a.rows() != n {
        return Err(OocError::Invalid(format!(
            "sharded SYRK operand mismatch: A has {} rows but C has order {n}",
            a.rows()
        )));
    }
    if nodes == 0 {
        return Err(OocError::Invalid("need at least one node".into()));
    }
    let units = build_units(n, memory_per_node, strategy)?;
    let schedule = units_schedule::<T>(&units, m, alpha);

    let shared = SharedSlowMemory::with_shards(2);
    let c_id = shared.insert_symmetric_on(0, std::mem::replace(c, SymMatrix::zeros(0)));
    let a_id = shared.insert_dense_on(1, a.clone());
    debug_assert_eq!((c_id, a_id), (C_MATRIX, A_MATRIX));

    let shard_of: BTreeMap<u64, usize> = [(c_id.raw(), 0), (a_id.raw(), 1)].into();
    let homes = vec![0usize; nodes];
    let assignment = partition_groups(&schedule, &shard_of, &homes);

    let config = MachineConfig::with_capacity(memory_per_node);
    let outcomes: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = assignment
            .nodes
            .iter()
            .enumerate()
            .map(|(node, groups)| {
                let (shared, schedule) = (&shared, &schedule);
                let home = homes[node];
                scope.spawn(move || {
                    let sub = Schedule {
                        groups: groups.iter().map(|&g| schedule.groups[g].clone()).collect(),
                    };
                    let mut machine = shared.worker_on(config, home);
                    Engine::execute(&mut machine, &sub)?;
                    Ok::<_, symla_sched::EngineError>((machine.into_accounting().0, groups.len()))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sharded node panicked"))
            .collect()
    });

    let mut per_node = Vec::with_capacity(nodes);
    for (node, outcome) in outcomes.into_iter().enumerate() {
        let (stats, tasks) = match outcome {
            Ok(v) => v,
            Err(e) => {
                // Same recovery contract as the work-stealing path: every
                // node has exited the scope and released its leases, so the
                // caller's (partially updated) matrix is handed back.
                *c = shared.take_symmetric(c_id)?;
                return Err(e.into());
            }
        };
        let home = homes[node];
        let (mut local, mut cross) = (0u64, 0u64);
        for shard in 0..2 {
            let vol = stats.shard(shard);
            if shard == home {
                local += vol.loads + vol.stores;
            } else {
                cross += vol.loads + vol.stores;
            }
        }
        assert_eq!(
            (local, cross),
            (assignment.local_volume[node], assignment.cross_volume[node]),
            "node {node}: observed per-shard traffic diverged from the partitioner"
        );
        per_node.push(NodeIo {
            local,
            cross,
            loads: stats.volume.loads,
            stores: stats.volume.stores,
            tasks,
        });
    }
    *c = shared.take_symmetric(c_id)?;

    Ok(ShardedReport {
        nodes,
        strategy,
        memory_per_node,
        per_node,
        assignment,
    })
}

/// The task groups a strategy would distribute for an `n × m` problem, as a
/// single schedule (one group per unit, in partition order, with `α = 1`).
/// This is the exact work list [`parallel_syrk`] hands to its workers,
/// exposed so planners, tests and engines can inspect, re-distribute or
/// execute it directly.
pub fn partition_schedule<T: Scalar>(
    n: usize,
    m: usize,
    memory_per_worker: usize,
    strategy: BlockStrategy,
) -> Result<Schedule<T>> {
    partition_schedule_scaled(n, m, memory_per_worker, strategy, T::ONE)
}

/// [`partition_schedule`] with an explicit scaling factor `alpha` baked into
/// the rank-1 updates — the exact schedule [`parallel_syrk`] executes. The
/// plan-cache serve layer compiles this once per
/// `(n, m, memory_per_worker, strategy, alpha)` and replays it across calls.
pub fn partition_schedule_scaled<T: Scalar>(
    n: usize,
    m: usize,
    memory_per_worker: usize,
    strategy: BlockStrategy,
    alpha: T,
) -> Result<Schedule<T>> {
    let units = build_units(n, memory_per_worker, strategy)?;
    Ok(units_schedule::<T>(&units, m, alpha))
}

#[cfg(test)]
mod tests {
    use super::*;
    use symla_matrix::generate::random_matrix_seeded;
    use symla_matrix::kernels::syrk_sym;

    fn reference(n: usize, m: usize, alpha: f64, seed: u64) -> (Matrix<f64>, SymMatrix<f64>) {
        let a: Matrix<f64> = random_matrix_seeded(n, m, seed);
        let mut c = SymMatrix::zeros(n);
        syrk_sym(alpha, &a, 1.0, &mut c).unwrap();
        (a, c)
    }

    #[test]
    fn parallel_result_matches_reference_for_both_strategies() {
        let (n, m, s) = (40, 8, 10);
        let (a, expected) = reference(n, m, 1.0, 71);
        for strategy in [BlockStrategy::SquareTiles, BlockStrategy::TriangleBlocks] {
            for workers in [1, 3, 4] {
                let mut c = SymMatrix::zeros(n);
                let report = parallel_syrk(&a, &mut c, 1.0, workers, s, strategy).unwrap();
                assert!(
                    c.approx_eq(&expected, 1e-11),
                    "{} w={workers}",
                    strategy.name()
                );
                assert_eq!(report.workers, workers);
                assert_eq!(report.per_worker.len(), workers);
                let tasks: usize = report.per_worker.iter().map(|w| w.tasks).sum();
                assert!(tasks > 0);
            }
        }
    }

    #[test]
    fn triangle_blocks_reduce_total_input_traffic() {
        // At a size where the TBS partition engages, the triangle-block
        // distribution moves less input data in total (and for the busiest
        // worker) than square tiles.
        let (n, m, s) = (120, 16, 10); // k = 4, t = 2
        let (a, expected) = reference(n, m, 1.0, 72);

        let mut c1 = SymMatrix::zeros(n);
        let square = parallel_syrk(&a, &mut c1, 1.0, 4, s, BlockStrategy::SquareTiles).unwrap();
        let mut c2 = SymMatrix::zeros(n);
        let triangle =
            parallel_syrk(&a, &mut c2, 1.0, 4, s, BlockStrategy::TriangleBlocks).unwrap();
        assert!(c1.approx_eq(&expected, 1e-10));
        assert!(c2.approx_eq(&expected, 1e-10));

        assert!(
            triangle.total_loads() < square.total_loads(),
            "triangle {} vs square {}",
            triangle.total_loads(),
            square.total_loads()
        );
        // the advantage approaches 1/sqrt(2) for the A traffic; with the C
        // traffic included we just check a strict improvement in total
        // volume. (Per-worker balance depends on the dynamic scheduling and
        // is not asserted here — thread start-up order makes it noisy for
        // tiny tasks.)
        assert!(triangle.imbalance() >= 1.0);
        assert!(square.imbalance() >= 1.0);
    }

    #[test]
    fn prefetched_parallel_run_matches_plain_run_bitwise() {
        let (n, m, s) = (40, 8, 12);
        let (a, expected) = reference(n, m, 1.0, 75);
        for strategy in [BlockStrategy::SquareTiles, BlockStrategy::TriangleBlocks] {
            let mut plain_c = SymMatrix::zeros(n);
            let plain = parallel_syrk(&a, &mut plain_c, 1.0, 3, s, strategy).unwrap();
            assert_eq!(plain.prefetched_loads, 0);
            for lookahead in [1usize, 2] {
                let mut c = SymMatrix::zeros(n);
                let report =
                    parallel_syrk_prefetched(&a, &mut c, 1.0, 3, s, strategy, lookahead).unwrap();
                let ctx = format!("{} L={lookahead}", strategy.name());
                assert!(c.approx_eq(&expected, 1e-11), "{ctx}");
                assert!(c == plain_c, "{ctx}: bitwise vs plain parallel run");
                // volumes are placement-independent and overlap is part of
                // them, not on top of them
                assert_eq!(report.total_loads(), plain.total_loads(), "{ctx}");
                assert_eq!(report.total_stores(), plain.total_stores(), "{ctx}");
                assert!(report.prefetched_loads <= report.total_loads(), "{ctx}");
            }
        }
    }

    #[test]
    fn unit_accounting_equals_partition_schedule_dry_run() {
        // The sum of per-worker volumes equals the dry-run accounting of the
        // full partition schedule: both go through the same task groups.
        let (n, m, s) = (48, 6, 10);
        let (a, _) = reference(n, m, 1.0, 73);
        for strategy in [BlockStrategy::SquareTiles, BlockStrategy::TriangleBlocks] {
            let mut c = SymMatrix::zeros(n);
            let report = parallel_syrk(&a, &mut c, 1.0, 3, s, strategy).unwrap();
            let schedule = partition_schedule::<f64>(n, m, s, strategy).unwrap();
            let stats = Engine::dry_run(&schedule, "parallel");
            assert_eq!(
                report.total_loads(),
                stats.volume.loads,
                "{}",
                strategy.name()
            );
            assert_eq!(
                report.total_stores(),
                stats.volume.stores,
                "{}",
                strategy.name()
            );
        }
    }

    #[test]
    fn stores_cover_the_lower_triangle_exactly_once() {
        // Units partition the result: total stores equal the packed size of
        // C for both strategies.
        let (n, m, s) = (60, 4, 10);
        for strategy in [BlockStrategy::SquareTiles, BlockStrategy::TriangleBlocks] {
            let schedule = partition_schedule::<f64>(n, m, s, strategy).unwrap();
            let stats = Engine::dry_run(&schedule, "parallel");
            assert_eq!(
                stats.volume.stores,
                (n * (n + 1) / 2) as u64,
                "{}",
                strategy.name()
            );
        }
    }

    #[test]
    fn parallel_execution_is_bitwise_equal_to_serial_replay() {
        // The same partition schedule executed serially through the engine
        // and in parallel through the shared-slow-memory workers must agree
        // to the last bit: groups are disjoint, so no accumulation order
        // differs, only the placement of the work.
        use symla_memory::{MachineConfig, OocMachine};
        let (n, m, s) = (48, 6, 10);
        let (a, _) = reference(n, m, 1.0, 74);
        for strategy in [BlockStrategy::SquareTiles, BlockStrategy::TriangleBlocks] {
            let schedule = partition_schedule::<f64>(n, m, s, strategy).unwrap();
            let mut machine = OocMachine::new(MachineConfig::with_capacity(s));
            let c_id = machine.insert_symmetric(SymMatrix::zeros(n));
            machine.insert_dense(a.clone());
            Engine::execute(&mut machine, &schedule).unwrap();
            let serial = machine.take_symmetric(c_id).unwrap();

            for workers in [1, 2, 4, 8] {
                let mut c = SymMatrix::zeros(n);
                let report = parallel_syrk(&a, &mut c, 1.0, workers, s, strategy).unwrap();
                assert!(c == serial, "{} P={workers}", strategy.name());
                // the serial engine run and the summed workers moved the
                // same volume
                assert_eq!(
                    report.total_loads(),
                    machine.stats().volume.loads,
                    "{} P={workers}",
                    strategy.name()
                );
            }
        }
    }

    #[test]
    fn analytic_worker_io_sums_to_the_full_schedule() {
        let (n, m, s) = (36, 5, 10);
        let schedule = partition_schedule::<f64>(n, m, s, BlockStrategy::TriangleBlocks).unwrap();
        let all: Vec<usize> = (0..schedule.num_groups()).collect();
        let whole = analytic_worker_io(&schedule, &all);
        let stats = Engine::dry_run(&schedule, "parallel");
        assert_eq!(whole.loads, stats.volume.loads);
        assert_eq!(whole.stores, stats.volume.stores);
        assert_eq!(whole.tasks, schedule.num_groups());
        // splitting the groups arbitrarily conserves the totals
        let (left, right) = all.split_at(all.len() / 3);
        let a = analytic_worker_io(&schedule, left);
        let b = analytic_worker_io(&schedule, right);
        assert_eq!(a.loads + b.loads, whole.loads);
        assert_eq!(a.stores + b.stores, whole.stores);
        assert_eq!(analytic_worker_io(&schedule, &[]), WorkerIo::default());
    }

    #[test]
    fn sharded_run_matches_reference_and_the_partitioner_accounting() {
        let (n, m, s) = (40, 8, 10);
        let (a, expected) = reference(n, m, 1.0, 81);
        for strategy in [BlockStrategy::SquareTiles, BlockStrategy::TriangleBlocks] {
            let mut plain_c = SymMatrix::zeros(n);
            let plain = parallel_syrk(&a, &mut plain_c, 1.0, 2, s, strategy).unwrap();
            for nodes in [1usize, 2, 4] {
                let mut c = SymMatrix::zeros(n);
                let report = parallel_syrk_sharded(&a, &mut c, 1.0, nodes, s, strategy).unwrap();
                let ctx = format!("{} N={nodes}", strategy.name());
                assert!(c.approx_eq(&expected, 1e-11), "{ctx}");
                // Groups cover disjoint entries, so placement cannot change
                // the arithmetic: bitwise equal to the work-stealing run.
                assert!(c == plain_c, "{ctx}");
                assert_eq!(report.nodes, nodes, "{ctx}");
                assert_eq!(report.per_node.len(), nodes, "{ctx}");
                assert_eq!(report.total_loads(), plain.total_loads(), "{ctx}");
                assert_eq!(report.total_stores(), plain.total_stores(), "{ctx}");
                // C lives on the home shard and is loaded and stored once
                // per unit; everything else is cross-shard A traffic.
                assert_eq!(
                    report.total_cross(),
                    report.total_loads() - report.total_stores(),
                    "{ctx}"
                );
                assert_eq!(
                    report.total_cross(),
                    report.assignment.total_cross(),
                    "{ctx}"
                );
                assert_eq!(report.max_cross(), report.assignment.max_cross(), "{ctx}");
                let tasks: usize = report.per_node.iter().map(|n| n.tasks).sum();
                assert_eq!(tasks, report.assignment.nodes.iter().map(Vec::len).sum());
            }
        }
    }

    #[test]
    fn sharded_triangle_blocks_cut_cross_shard_traffic_toward_the_paper_ratio() {
        // The cross-shard volume of a sharded run is exactly the A traffic,
        // so the triangle-block advantage shows up undiluted by the C
        // traffic: at (120, 16, 10) the TBS partition (k = 4) streams
        // t/(k-1) = 2/3 of the square tiling's input rows — the finite-size
        // shadow of the paper's asymptotic 1/sqrt(2) ~ 0.707.
        let (n, m, s) = (120, 16, 10);
        let (a, expected) = reference(n, m, 1.0, 82);
        let mut c1 = SymMatrix::zeros(n);
        let square =
            parallel_syrk_sharded(&a, &mut c1, 1.0, 4, s, BlockStrategy::SquareTiles).unwrap();
        let mut c2 = SymMatrix::zeros(n);
        let triangle =
            parallel_syrk_sharded(&a, &mut c2, 1.0, 4, s, BlockStrategy::TriangleBlocks).unwrap();
        assert!(c1.approx_eq(&expected, 1e-10));
        assert!(c2.approx_eq(&expected, 1e-10));

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
        assert!(parallel_syrk_sharded(&a, &mut c, 1.0, 2, 10, BlockStrategy::SquareTiles).is_err());
        let mut c4 = SymMatrix::zeros(4);
        assert!(
            parallel_syrk_sharded(&a, &mut c4, 1.0, 0, 10, BlockStrategy::SquareTiles).is_err()
        );
    }

    #[test]
    fn errors_on_bad_arguments() {
        let a: Matrix<f64> = Matrix::zeros(4, 2);
        let mut c = SymMatrix::zeros(5);
        assert!(parallel_syrk(&a, &mut c, 1.0, 2, 10, BlockStrategy::SquareTiles).is_err());
        let mut c4 = SymMatrix::zeros(4);
        assert!(parallel_syrk(&a, &mut c4, 1.0, 0, 10, BlockStrategy::SquareTiles).is_err());
        assert!(parallel_syrk(&a, &mut c4, 1.0, 2, 1, BlockStrategy::SquareTiles).is_err());
        assert_eq!(BlockStrategy::SquareTiles.name(), "square tiles");
        assert_eq!(BlockStrategy::TriangleBlocks.name(), "triangle blocks");
    }

    #[test]
    fn report_helpers() {
        let report = ParallelReport {
            workers: 2,
            strategy: BlockStrategy::SquareTiles,
            memory_per_worker: 16,
            per_worker: vec![
                WorkerIo {
                    loads: 10,
                    stores: 2,
                    tasks: 1,
                },
                WorkerIo {
                    loads: 30,
                    stores: 4,
                    tasks: 3,
                },
            ],
            prefetched_loads: 0,
        };
        assert_eq!(report.total_loads(), 40);
        assert_eq!(report.total_stores(), 6);
        assert_eq!(report.max_loads(), 30);
        assert!((report.imbalance() - 1.5).abs() < 1e-12);
        let empty = ParallelReport {
            workers: 0,
            strategy: BlockStrategy::SquareTiles,
            memory_per_worker: 0,
            per_worker: vec![],
            prefetched_loads: 0,
        };
        assert_eq!(empty.max_loads(), 0);
        assert_eq!(empty.imbalance(), 1.0);
    }
}
