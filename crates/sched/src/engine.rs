//! The generic out-of-core execution engine.
//!
//! [`Engine`] replays a [`Schedule`] built from the IR of [`crate::ir`]
//! through **one serial loop** over any [`MachineOps`] machine, plus a
//! parallel work-stealing variant. The machine decides what a serial replay
//! yields:
//!
//! * [`Engine::execute`] — on a data-carrying machine (normally the serial
//!   [`OocMachine`](symla_memory::OocMachine)) transfers are counted and
//!   capacity-checked and every compute step runs its block kernel; the
//!   eight out-of-core algorithms' `*_execute` wrappers go through here.
//! * [`Engine::dry_run`] / [`Engine::trace`] — the same replay on a
//!   data-free [`CountingMachine`]: transfers are counted (and traced), but
//!   no data moves and no kernel runs, so the result is exactly the
//!   [`IoStats`] / [`Trace`] an execution leaves in its machine.
//! * Static pricing ([`crate::timing`]) — the same replay on a
//!   [`LatencyMachine`](symla_memory::LatencyMachine) or an
//!   [`InstrumentedMachine`] stacked on a counting machine.
//! * [`Engine::execute_parallel`] — distributes the schedule's
//!   [`TaskGroup`]s over `P` workers of a [`SharedSlowMemory`] through a
//!   work-stealing queue of [`std::thread::scope`] threads. Each worker is a
//!   private, capacity-checked fast memory with its own [`IoStats`] /
//!   [`Trace`]; the groups it replays run through the same per-group code
//!   path as a serial replay.
//!
//! Every mode additionally exists in a **prefetching** variant
//! ([`Engine::execute_with`] / [`Engine::dry_run_with`] /
//! [`Engine::trace_with`] / [`Engine::execute_parallel_with`]) taking an
//! [`EngineConfig`]: with `lookahead = L > 0` the engine double-buffers the
//! load stream, issuing the `Load` steps of up to `L` future task groups at
//! the boundary of the current group — i.e. while the current group
//! computes — whenever they fit in the capacity slack `S − footprint` and
//! are legal to hoist (see [`crate::prefetch`] for the planner and its
//! admission rules). The serial variants plan first and then replay the
//! plan ([`Engine::execute_planned`]); an empty plan issues nothing, so
//! `lookahead = 0` is the plain replay. Transfer *volumes* are unchanged;
//! the prefetched share of the load stream is reported in
//! [`IoStats::prefetched_elements`] / `prefetch_events` (overlapped vs
//! stalled loads), and the residency cost of the lookahead shows up in
//! `peak_resident`, which by planner construction never exceeds the machine
//! capacity.
//!
//! The invariant tying the modes together holds by construction for the
//! serial modes — one loop emits every transfer — and is kept as a
//! regression guard by the cross-crate equivalence tests: for any schedule
//! `s`, machine `m` and config `c`, `execute_with(&mut m, &s, &c)` leaves
//! `m.stats()` equal to `dry_run_with(&s, .., &c, m.capacity())` and
//! `m.trace()` equal to `trace_with(&s, .., &c, m.capacity())`; and for any
//! schedule whose groups are independent, `execute_parallel(&shared, &s, P,
//! ..)` leaves the *sum* of the per-worker [`IoStats`] equal to
//! `dry_run(&s)`, each worker's stats equal to the dry run of exactly the
//! groups it processed, and the contents of the shared slow memory
//! bitwise-identical to what a serial `execute` leaves behind.

use crate::ir::{BufId, BufSlice, ComputeOp, Schedule, Step, TaskGroup};
use crate::prefetch::{group_peak, hoistable_loads, PrefetchPlan};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use symla_matrix::kernels::micro::{ger_view_auto, spr_lower_view_auto};
use symla_matrix::kernels::views::{
    cholesky_packed_view_in_place, lu_view_in_place, triangle_pairs_update,
};
use symla_matrix::{MatrixError, Scalar};
use symla_memory::{
    CountingMachine, FastBuf, IoStats, MachineConfig, MachineModel, MachineOps, MemoryError,
    SharedSlowMemory, Trace,
};
use symla_obs::{InstrumentedMachine, TraceRecorder};

/// Errors raised while replaying a schedule.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// An error from the memory machine (capacity exceeded, bad region, ...).
    Memory(MemoryError),
    /// A numerical error from a block kernel (non-SPD pivot, ...).
    Matrix(MatrixError),
    /// The schedule is malformed (e.g. a step references a buffer that was
    /// never loaded or was already released).
    InvalidSchedule(String),
    /// The caller passed an invalid argument (e.g. zero workers); nothing
    /// was replayed and no accounting exists.
    InvalidArgument(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Memory(e) => write!(f, "memory model error: {e}"),
            EngineError::Matrix(e) => write!(f, "kernel error: {e}"),
            EngineError::InvalidSchedule(msg) => write!(f, "invalid schedule: {msg}"),
            EngineError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Memory(e) => Some(e),
            EngineError::Matrix(e) => Some(e),
            EngineError::InvalidSchedule(_) | EngineError::InvalidArgument(_) => None,
        }
    }
}

impl From<MemoryError> for EngineError {
    fn from(e: MemoryError) -> Self {
        EngineError::Memory(e)
    }
}

impl From<MatrixError> for EngineError {
    fn from(e: MatrixError) -> Self {
        EngineError::Matrix(e)
    }
}

/// Result alias for engine operations.
pub type Result<T> = std::result::Result<T, EngineError>;

/// Buffers loaded ahead of their group, keyed by the `(group, step)`
/// coordinate of the `Load` they stand in for (buffer ids are only unique
/// within one builder, so they cannot key cross-group state).
type PrefetchedBufs<T> = BTreeMap<(usize, usize), FastBuf<T>>;

/// Per-group prefetch analysis of the parallel path: the group's standalone
/// peak footprint (`None` = not self-contained) and its hoistable loads as
/// `(step index, elements)` pairs.
type GroupAnalysis = (Option<usize>, Vec<(usize, usize)>);

/// Replay configuration of the engine's `*_with` entry points.
///
/// The only knob today is the prefetch lookahead: with `lookahead = L > 0`
/// the engine issues the `Load` steps of up to `L` future task groups at
/// the current group's boundary (double-buffering at `L = 1`), admitted by
/// the [`PrefetchPlan`] against the capacity
/// slack. `lookahead = 0` (the default) reproduces the plain serial replay
/// exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineConfig {
    /// How many future task groups' loads may be in flight while the
    /// current group computes.
    pub lookahead: usize,
}

impl EngineConfig {
    /// A config prefetching up to `lookahead` groups ahead.
    pub fn with_lookahead(lookahead: usize) -> Self {
        Self { lookahead }
    }
}

/// Accounting of one worker of an [`Engine::execute_parallel`] run.
#[derive(Debug, Clone)]
pub struct WorkerRun {
    /// The worker's I/O statistics: exactly the dry-run accounting of the
    /// task groups in `groups` (asserted by the equivalence tests).
    pub stats: IoStats,
    /// The worker's transfer trace, if the worker config enabled recording.
    pub trace: Option<Trace>,
    /// Indices (into [`Schedule::groups`]) of the task groups this worker
    /// completed, in the order it claimed them.
    pub groups: Vec<usize>,
}

impl WorkerRun {
    /// Sums the statistics of a set of worker runs (phases merge by name,
    /// the peak residency is the **maximum over the workers**).
    ///
    /// For a schedule with self-contained groups the volumes, events, flops
    /// and phase split equal the serial [`Engine::dry_run`] of the whole
    /// schedule (every group is processed by exactly one worker), and the
    /// merged `peak_resident` equals the serial peak (both are per-group
    /// maxima). Note what the merged peak is *not*: the fleet-wide memory
    /// in use. The workers' private fast memories coexist, so at any
    /// instant the fleet may hold up to the **sum** of the per-worker
    /// residencies — see [`WorkerRun::aggregate_peak`] for that upper
    /// bound.
    pub fn merged_stats(runs: &[WorkerRun]) -> IoStats {
        let mut total = IoStats::new();
        for run in runs {
            total.merge(&run.stats);
        }
        total
    }

    /// Upper bound on the fleet-wide peak residency: the sum of the
    /// per-worker peaks. The true concurrent peak lies between the busiest
    /// single worker's peak (what [`WorkerRun::merged_stats`] reports) and
    /// this sum — the workers' fast memories are private and coexist, but
    /// their individual peaks need not be simultaneous, so the sum is an
    /// upper bound, not an exact measurement.
    pub fn aggregate_peak(runs: &[WorkerRun]) -> usize {
        runs.iter().map(|r| r.stats.peak_resident).sum()
    }
}

/// Error of an [`Engine::execute_parallel`] run.
///
/// Carries the accounting of every worker at the moment the run aborted, so
/// callers can still audit the traffic of the groups that did complete (the
/// failing worker's stats include the partial traffic of the failed group;
/// its buffers were released back without store traffic).
#[derive(Debug)]
pub struct ParallelError {
    /// The first replay error observed.
    pub error: EngineError,
    /// Index of the worker whose group replay failed. `None` when the run
    /// was rejected before any worker started (e.g. `workers == 0` — see
    /// [`EngineError::InvalidArgument`]); no worker index is fabricated for
    /// failures that never happened on a worker.
    pub worker: Option<usize>,
    /// Index (into [`Schedule::groups`]) of the task group that failed;
    /// `None` when no group was ever attempted.
    pub group: Option<usize>,
    /// Per-worker accounting up to the abort. Workers that were mid-group
    /// when the abort flag rose finish that group normally, so every run
    /// in this list is consistent (its stats equal the dry-run of its
    /// completed groups plus, for the failing worker, the partial group).
    pub runs: Vec<WorkerRun>,
}

impl fmt::Display for ParallelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.worker, self.group) {
            (Some(worker), Some(group)) => write!(
                f,
                "worker {} failed on task group {}: {}",
                worker, group, self.error
            ),
            _ => write!(f, "parallel execution rejected: {}", self.error),
        }
    }
}

impl std::error::Error for ParallelError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

impl From<ParallelError> for EngineError {
    fn from(e: ParallelError) -> Self {
        e.error
    }
}

/// The per-worker deques of a parallel run: each worker drains its own deque
/// from the front and steals from the back of the others when it runs dry.
/// Groups are dealt round-robin, so a schedule of uniform groups starts out
/// balanced and stealing only kicks in under real imbalance.
struct StealQueue {
    deques: Vec<Mutex<VecDeque<usize>>>,
}

impl StealQueue {
    fn deal(groups: usize, workers: usize) -> Self {
        Self {
            deques: (0..workers)
                .map(|w| Mutex::new((w..groups).step_by(workers).collect()))
                .collect(),
        }
    }

    fn lock(&self, w: usize) -> std::sync::MutexGuard<'_, VecDeque<usize>> {
        // Recover from poisoning (a worker panicking elsewhere): the deques
        // hold plain indices, so the data cannot be inconsistent.
        self.deques[w]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Next group for worker `w`: its own front, else a steal from the back
    /// of the first non-empty victim (the flag in the pair is `true` for a
    /// steal). `None` means all deques are empty — no new work can appear,
    /// so the worker is done.
    fn pop(&self, w: usize) -> Option<(usize, bool)> {
        if let Some(g) = self.lock(w).pop_front() {
            return Some((g, false));
        }
        let n = self.deques.len();
        for v in (w + 1..n).chain(0..w) {
            if let Some(g) = self.lock(v).pop_back() {
                return Some((g, true));
            }
        }
        None
    }

    /// Next group from worker `w`'s own deque only. Filling a prefetch
    /// lookahead window uses this instead of [`StealQueue::pop`]: a worker
    /// must not *steal* groups it will merely park behind its current one —
    /// that would serialize work other workers could run now.
    fn pop_local(&self, w: usize) -> Option<usize> {
        self.lock(w).pop_front()
    }
}

/// The schedule replayer. See the module docs for what a replay yields on
/// each kind of machine.
#[derive(Debug, Clone, Copy, Default)]
pub struct Engine;

fn missing(buf: BufId) -> EngineError {
    EngineError::InvalidSchedule(format!("step references unknown or released buffer {buf}"))
}

fn short_segment(op: &str, got: usize, needed: usize) -> EngineError {
    EngineError::InvalidSchedule(format!(
        "{op}: segment buffer has {got} element(s), step needs {needed} \
         (column/row index out of range for the destination tile)"
    ))
}

/// The phase each group's traffic is attributed to under the serial phase
/// semantics: a group's own label if set, else the label of the nearest
/// labeled group before it, else `default` (the machine's phase at entry).
/// Precomputed so prefetched loads can be charged to the phase of the group
/// that consumes them, independent of where they are issued.
fn effective_phases<'a, T: Scalar>(schedule: &'a Schedule<T>, default: &'a str) -> Vec<&'a str> {
    let mut current = default;
    schedule
        .groups
        .iter()
        .map(|group| {
            if let Some(phase) = &group.phase {
                current = phase;
            }
            current
        })
        .collect()
}

/// Replays `schedule` as [`Engine::execute_with`] would on a machine of
/// `capacity`, but on a fresh [`CountingMachine`] whose phase starts at
/// `default_phase`, and returns its accounting — up to the point where the
/// replay stopped if it was rejected.
fn count<T: Scalar>(
    schedule: &Schedule<T>,
    default_phase: &str,
    config: &EngineConfig,
    capacity: Option<usize>,
    record_trace: bool,
) -> (IoStats, Option<Trace>) {
    let plan = PrefetchPlan::for_lookahead(schedule, config.lookahead, capacity);
    let mut machine = CountingMachine::new(MachineConfig::unlimited().record_trace(record_trace));
    MachineOps::<T>::set_phase(&mut machine, default_phase);
    let _ = Engine::execute_planned(&mut machine, schedule, &plan);
    machine.into_accounting()
}

fn slice_of<'a, T: Scalar>(bufs: &'a BTreeMap<BufId, FastBuf<T>>, s: &BufSlice) -> Result<&'a [T]> {
    let buf = bufs.get(&s.buf).ok_or_else(|| missing(s.buf))?;
    buf.as_slice().get(s.start..s.start + s.len).ok_or_else(|| {
        EngineError::InvalidSchedule(format!(
            "slice {}..+{} exceeds buffer {} of {} elements",
            s.start,
            s.len,
            s.buf,
            buf.len()
        ))
    })
}

impl Engine {
    /// Replays `schedule` against `machine`, running every block kernel on
    /// real data. Transfers are counted and capacity-checked by the machine
    /// exactly as the hand-rolled executors counted them. Works against any
    /// [`MachineOps`] implementation: the serial
    /// [`OocMachine`](symla_memory::OocMachine) or one
    /// [`WorkerMachine`](symla_memory::WorkerMachine) of a shared slow
    /// memory.
    ///
    /// On error, buffers the failed schedule still held are released back to
    /// the machine (without store traffic), so its residency accounting and
    /// leases stay consistent and the matrices can still be taken out.
    ///
    /// ```
    /// use symla_matrix::Matrix;
    /// use symla_memory::{OocMachine, Region};
    /// use symla_sched::{BufSlice, ComputeOp, Engine, ScheduleBuilder};
    ///
    /// let mut machine = OocMachine::<f64>::with_capacity(6);
    /// let id = machine.insert_dense(Matrix::identity(4));
    /// // One rank-1 update: C[0..2, 0..2] += 2 · a · aᵀ with a = A[0..2, 3].
    /// let mut b = ScheduleBuilder::new();
    /// let c = b.load(id, Region::rect(0, 0, 2, 2));
    /// let a = b.load(id, Region::col_segment(3, 0, 2));
    /// b.compute(ComputeOp::Ger {
    ///     alpha: 2.0,
    ///     x: BufSlice::whole(a, 2),
    ///     y: BufSlice::whole(a, 2),
    ///     dst: c,
    /// });
    /// b.discard(a);
    /// b.store(c);
    /// Engine::execute(&mut machine, &b.finish()).unwrap();
    /// // Transfers were counted and capacity-checked (6 resident at peak) ...
    /// assert_eq!(machine.stats().volume.loads, 6);
    /// assert_eq!(machine.stats().volume.stores, 4);
    /// assert_eq!(machine.stats().peak_resident, 6);
    /// // ... and the kernel really ran on slow memory's data.
    /// let out = machine.take_dense(id).unwrap();
    /// assert_eq!(out[(0, 0)], 1.0); // A[0,3] = 0, so nothing changed
    /// ```
    pub fn execute<T: Scalar, M: MachineOps<T>>(
        machine: &mut M,
        schedule: &Schedule<T>,
    ) -> Result<()> {
        Self::execute_with(machine, schedule, &EngineConfig::default())
    }

    /// [`Engine::execute`] with a replay configuration: `config.lookahead > 0`
    /// turns on double-buffered prefetching — at every group boundary the
    /// engine first *fills* the prefetch window (issuing the planned `Load`
    /// steps of up to `lookahead` future groups, counted as load traffic and
    /// marked prefetched in the machine's [`IoStats`]) and then *drains* the
    /// current group, whose prefetched loads find their buffers already
    /// resident. The [`PrefetchPlan`] admits
    /// a load only when it fits the capacity slack and reads fresh data, so
    /// the machine's peak residency never exceeds its capacity and results
    /// are bitwise-identical to the plain replay.
    ///
    /// Prefetched loads are attributed to the phase of the group that
    /// *consumes* them (issuing a load early does not change which
    /// sub-algorithm needs the data), so the per-phase split is identical
    /// at every lookahead.
    pub fn execute_with<T: Scalar, M: MachineOps<T>>(
        machine: &mut M,
        schedule: &Schedule<T>,
        config: &EngineConfig,
    ) -> Result<()> {
        let plan = PrefetchPlan::for_lookahead(schedule, config.lookahead, machine.capacity());
        Self::execute_planned(machine, schedule, &plan)
    }

    /// Replays `schedule` with an **already-computed** prefetch plan,
    /// skipping the planning step of [`Engine::execute_with`] entirely.
    ///
    /// This is the replay-many half of the plan cache's
    /// compile-once/replay-many contract: a plan computed (and serialized)
    /// at compile time is handed back verbatim, so a cache hit performs
    /// zero prefetch-planner work. The plan must have been produced by
    /// [`PrefetchPlan::plan`] for this schedule under a capacity no larger
    /// than the machine's — a plan for a different schedule is rejected
    /// when its boundary count disagrees, and its per-step coordinates are
    /// validated during the replay.
    ///
    /// An empty plan issues nothing: the replay is exactly
    /// [`Engine::execute`]. Results and accounting are identical to
    /// `execute_with` at the lookahead the plan was computed for.
    ///
    /// This is the engine's one serial loop; every other serial entry point
    /// (and the static pricing of [`crate::timing`]) is a call to it.
    pub fn execute_planned<T: Scalar, M: MachineOps<T>>(
        machine: &mut M,
        schedule: &Schedule<T>,
        plan: &PrefetchPlan,
    ) -> Result<()> {
        if !plan.is_empty() && plan.num_boundaries() != schedule.num_groups() {
            return Err(EngineError::InvalidArgument(format!(
                "prefetch plan covers {} group boundary(ies), schedule has {} group(s)",
                plan.num_boundaries(),
                schedule.num_groups()
            )));
        }
        // A plan may come from disk: reject out-of-range coordinates here
        // rather than index-panicking inside the replay.
        for boundary in 0..plan.num_boundaries() {
            for issue in plan.issues_at(boundary) {
                let valid = schedule
                    .groups
                    .get(issue.group)
                    .is_some_and(|g| issue.step < g.steps.len());
                if !valid {
                    return Err(EngineError::InvalidArgument(format!(
                        "prefetch plan targets step {} of group {}, out of range \
                         for this schedule",
                        issue.step, issue.group
                    )));
                }
            }
        }
        let mut bufs: BTreeMap<BufId, FastBuf<T>> = BTreeMap::new();
        let mut prefetched: PrefetchedBufs<T> = BTreeMap::new();
        let outcome = Self::replay(machine, schedule, plan, &mut bufs, &mut prefetched);
        for buf in bufs.into_values().chain(prefetched.into_values()) {
            // Release leaked buffers even when the replay failed; a discard
            // can only fail for foreign buffers, which cannot be in `bufs`.
            let _ = machine.discard(buf);
        }
        outcome
    }

    /// The serial replay loop: at every group boundary it first *fills* the
    /// prefetch window (the loads `plan` issues there, charged to the phase
    /// of their consuming group) and then *drains* the group itself.
    fn replay<T: Scalar, M: MachineOps<T>>(
        machine: &mut M,
        schedule: &Schedule<T>,
        plan: &PrefetchPlan,
        bufs: &mut BTreeMap<BufId, FastBuf<T>>,
        prefetched: &mut PrefetchedBufs<T>,
    ) -> Result<()> {
        let default_phase = machine.phase().to_string();
        let phases = effective_phases(schedule, &default_phase);
        for (g, group) in schedule.groups.iter().enumerate() {
            machine.note_group_boundary();
            machine.note_group_start(g);
            // Fill: issue the loads planned at this boundary (they overlap
            // with this group's compute in the two-phase model).
            for issue in plan.issues_at(g) {
                let Step::Load {
                    matrix,
                    region,
                    level,
                    ..
                } = &schedule.groups[issue.group].steps[issue.step]
                else {
                    return Err(EngineError::InvalidSchedule(format!(
                        "prefetch plan targets non-load step {} of group {}",
                        issue.step, issue.group
                    )));
                };
                machine.set_phase(phases[issue.group]);
                let buf = machine.load_from(*matrix, region.clone(), *level)?;
                machine.note_prefetch(region.len());
                machine.note_prefetch_issue(issue.group, issue.step, region.len());
                prefetched.insert((issue.group, issue.step), buf);
            }
            // Drain: replay the group itself.
            machine.set_phase(phases[g]);
            Self::replay_group(machine, g, group, bufs, prefetched)?;
            machine.note_group_end(g);
        }
        machine.note_group_boundary();
        if !bufs.is_empty() || !prefetched.is_empty() {
            return Err(EngineError::InvalidSchedule(format!(
                "{} buffer(s) left resident at end of schedule",
                bufs.len() + prefetched.len()
            )));
        }
        Ok(())
    }

    /// Replays the steps of one task group. Shared verbatim between the
    /// serial path (where `bufs` persists across groups, tolerating legacy
    /// schedules whose buffers straddle group boundaries) and the parallel
    /// path (where each group gets a fresh table and must be self-contained).
    /// A load whose `(group, step)` coordinate is in `prefetched` was issued
    /// (and counted) at an earlier group boundary and replays as a handoff —
    /// coordinates, not buffer ids, key the handoff because concatenated
    /// schedules legally reuse ids across groups. On a machine that carries
    /// no data, compute steps are announced but their kernels skipped.
    fn replay_group<T: Scalar, M: MachineOps<T>>(
        machine: &mut M,
        group_index: usize,
        group: &TaskGroup<T>,
        bufs: &mut BTreeMap<BufId, FastBuf<T>>,
        prefetched: &mut PrefetchedBufs<T>,
    ) -> Result<()> {
        let kernels = machine.carries_data();
        for (idx, step) in group.steps.iter().enumerate() {
            match step {
                Step::Load {
                    matrix,
                    region,
                    dst,
                    level,
                } => {
                    if let Some(buf) = prefetched.remove(&(group_index, idx)) {
                        machine.note_prefetch_delivery(group_index, idx);
                        bufs.insert(*dst, buf);
                        continue;
                    }
                    let buf = machine.load_from(*matrix, region.clone(), *level)?;
                    bufs.insert(*dst, buf);
                }
                Step::Alloc {
                    matrix,
                    region,
                    dst,
                } => {
                    let buf = machine.allocate_zeroed(*matrix, region.clone())?;
                    bufs.insert(*dst, buf);
                }
                Step::Flops(flops) => machine.record_flops(*flops),
                Step::Store { buf, level } => {
                    let b = bufs.remove(buf).ok_or_else(|| missing(*buf))?;
                    machine.store_to(b, *level)?;
                }
                Step::Discard { buf } => {
                    let b = bufs.remove(buf).ok_or_else(|| missing(*buf))?;
                    machine.discard(b)?;
                }
                Step::Compute(op) => {
                    machine.note_compute(op.kind());
                    if kernels {
                        Self::compute(bufs, op)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Executes `schedule` with `workers` concurrent workers sharing the
    /// slow memory `shared`, each with a private fast memory configured by
    /// `config`.
    ///
    /// [`TaskGroup`]s are the unit of distribution: they are dealt
    /// round-robin onto per-worker deques and re-balanced by work stealing
    /// (a worker that drains its own deque steals from the back of the
    /// others). **The caller asserts that the groups are independent** —
    /// i.e. no group reads or writes a slow-memory region another group
    /// writes. The SYRK-family schedules of this workspace (square-block,
    /// TBS, tiled TBS) and GEMM satisfy this — `symla_core::parallel`
    /// replays them here — since each group owns a disjoint block of the
    /// result and only reads the shared input panels. The left-looking
    /// factorizations (Cholesky, LU, TRSM) order their groups *through*
    /// slow memory and must stay on the serial [`Engine::execute`] path.
    ///
    /// Two semantic differences from a serial execution, both irrelevant to
    /// schedules with independent groups:
    ///
    /// * every group must be self-contained (create and release all its
    ///   buffers) — the serial path tolerates buffers straddling groups;
    /// * a group without a phase label is attributed to `default_phase`,
    ///   not to the label of the textually preceding group (which may be
    ///   replaying on a different worker).
    ///
    /// On success, returns one [`WorkerRun`] per worker (its [`IoStats`],
    /// optional [`Trace`] and the groups it completed). On failure, the
    /// first error aborts the run: other workers finish the group they are
    /// on and stop claiming; the returned [`ParallelError`] carries the
    /// error, the failing worker/group and every worker's accounting.
    ///
    /// ```
    /// use symla_matrix::Matrix;
    /// use symla_memory::{MachineConfig, MatrixId, Region, SharedSlowMemory};
    /// use symla_sched::engine::{Engine, WorkerRun};
    /// use symla_sched::ScheduleBuilder;
    ///
    /// let shared = SharedSlowMemory::<f64>::new();
    /// let id = shared.insert_dense(Matrix::identity(8));
    /// // Four independent groups, one per diagonal 2x2 block.
    /// let mut b = ScheduleBuilder::new();
    /// for i in 0..4 {
    ///     b.begin_group();
    ///     let buf = b.load(id, Region::rect(2 * i, 2 * i, 2, 2));
    ///     b.store(buf);
    /// }
    /// let schedule = b.finish();
    ///
    /// let runs =
    ///     Engine::execute_parallel(&shared, &schedule, 2, MachineConfig::with_capacity(4), "main")
    ///         .unwrap();
    /// assert_eq!(runs.len(), 2);
    /// // Every group ran on exactly one worker ...
    /// let done: usize = runs.iter().map(|r| r.groups.len()).sum();
    /// assert_eq!(done, 4);
    /// // ... and the summed per-worker accounting equals the serial dry run.
    /// assert_eq!(WorkerRun::merged_stats(&runs), Engine::dry_run(&schedule, "main"));
    /// ```
    pub fn execute_parallel<T: Scalar>(
        shared: &SharedSlowMemory<T>,
        schedule: &Schedule<T>,
        workers: usize,
        config: MachineConfig,
        default_phase: &str,
    ) -> std::result::Result<Vec<WorkerRun>, ParallelError> {
        Self::execute_parallel_with(
            shared,
            schedule,
            workers,
            config,
            default_phase,
            &EngineConfig::default(),
        )
    }

    /// [`Engine::execute_parallel`] with a replay configuration: with
    /// `engine.lookahead = L > 0` every worker pipelines its group handoff —
    /// it claims up to `L` additional groups from *its own deque* (never
    /// stealing ahead: parked lookahead groups would serialize work other
    /// workers could run now) and, before
    /// draining the current group, issues the hoistable loads of those
    /// claimed groups into its private fast memory (counted and marked
    /// prefetched in its [`IoStats`]), so the next group's input stream
    /// overlaps the current group's compute. Admission is conservative: a
    /// load is only issued while the resident prefetch window plus the
    /// largest claimed group footprint still fits the worker's capacity, and
    /// a load that the (serialized) shared memory rejects anyway falls back
    /// to its original program point instead of failing the run. Groups that
    /// are not self-contained disable prefetching around them, and the
    /// caller's independence contract (no group touches a region another
    /// group writes) is what makes cross-group hoisting safe — exactly the
    /// contract [`Engine::execute_parallel`] already imposes.
    ///
    /// Per-worker transfer volumes, group coverage and numerical results are
    /// identical to the non-prefetching run; only the overlapped/stalled
    /// split and (within capacity) the per-worker peak residency change.
    pub fn execute_parallel_with<T: Scalar>(
        shared: &SharedSlowMemory<T>,
        schedule: &Schedule<T>,
        workers: usize,
        config: MachineConfig,
        default_phase: &str,
        engine: &EngineConfig,
    ) -> std::result::Result<Vec<WorkerRun>, ParallelError> {
        Self::execute_parallel_core(
            schedule,
            workers,
            engine.lookahead,
            default_phase,
            |_w| shared.worker(config),
            |m| m.into_accounting(),
        )
    }

    /// [`Engine::execute_parallel_with`] with observability: every worker's
    /// machine is wrapped in an
    /// [`InstrumentedMachine`] reporting to
    /// (a clone of) `recorder`, so the run produces one
    /// [`RunTrace`](symla_obs::RunTrace) covering all workers — group spans,
    /// transfers, kernels, claims/steals and prefetch issue→delivery pairs,
    /// each stamped with both the real clock and the modelled timeline of
    /// `model`. Accounting, results and scheduling semantics are identical
    /// to the unobserved entry point (asserted by the observer-invariance
    /// tests).
    #[allow(clippy::too_many_arguments)]
    pub fn execute_parallel_traced<T: Scalar>(
        shared: &SharedSlowMemory<T>,
        schedule: &Schedule<T>,
        workers: usize,
        config: MachineConfig,
        default_phase: &str,
        engine: &EngineConfig,
        model: &MachineModel,
        recorder: &TraceRecorder,
    ) -> std::result::Result<Vec<WorkerRun>, ParallelError> {
        Self::execute_parallel_core(
            schedule,
            workers,
            engine.lookahead,
            default_phase,
            |w| InstrumentedMachine::new(shared.worker(config), *model, recorder.clone(), w),
            |m| m.into_inner().into_accounting(),
        )
    }

    /// The parallel replay loop, generic over how a worker's machine is
    /// built and how it is torn down into accounting — the unobserved and
    /// traced entry points share everything else (machines are built inside
    /// the spawned threads, so they need not be `Send`).
    fn execute_parallel_core<T, M, B, F>(
        schedule: &Schedule<T>,
        workers: usize,
        lookahead: usize,
        default_phase: &str,
        build: B,
        finish: F,
    ) -> std::result::Result<Vec<WorkerRun>, ParallelError>
    where
        T: Scalar,
        M: MachineOps<T>,
        B: Fn(usize) -> M + Sync,
        F: Fn(M) -> (IoStats, Option<Trace>) + Sync,
    {
        if workers == 0 {
            return Err(ParallelError {
                error: EngineError::InvalidArgument(
                    "execute_parallel needs at least one worker".to_string(),
                ),
                worker: None,
                group: None,
                runs: Vec::new(),
            });
        }
        // Per-group prefetch analysis, shared read-only by all workers:
        // the group's own peak footprint (None = not self-contained, do not
        // prefetch around it) and the loads hoistable to its start.
        let analysis: Vec<GroupAnalysis> = if lookahead > 0 {
            schedule
                .groups
                .iter()
                .map(|g| (group_peak(g), hoistable_loads(g)))
                .collect()
        } else {
            Vec::new()
        };
        let queue = StealQueue::deal(schedule.groups.len(), workers);
        let abort = AtomicBool::new(false);
        let failure: Mutex<Option<(usize, usize, EngineError)>> = Mutex::new(None);

        let runs: Vec<WorkerRun> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let (queue, abort, failure, analysis) = (&queue, &abort, &failure, &analysis);
                    let (build, finish) = (&build, &finish);
                    scope.spawn(move || {
                        let mut machine = build(w);
                        let mut groups = Vec::new();
                        let mut pending: VecDeque<(usize, bool)> = VecDeque::new();
                        let mut prefetched: PrefetchedBufs<T> = BTreeMap::new();
                        while !abort.load(Ordering::Acquire) {
                            while pending.len() < 1 + lookahead {
                                // The head of the window may be stolen (it
                                // is about to run); lookahead extras come
                                // from the worker's own deque only.
                                let next = if pending.is_empty() {
                                    queue.pop(w)
                                } else {
                                    queue.pop_local(w).map(|g| (g, false))
                                };
                                let Some(g) = next else { break };
                                pending.push_back(g);
                            }
                            let Some((g, stolen)) = pending.pop_front() else {
                                break;
                            };
                            machine.note_group_boundary();
                            machine.note_claim(g, stolen);
                            machine.note_group_start(g);
                            let group = &schedule.groups[g];
                            if lookahead > 0 {
                                Self::fill_worker_window(
                                    &mut machine,
                                    schedule,
                                    analysis,
                                    g,
                                    &pending,
                                    default_phase,
                                    &mut prefetched,
                                );
                            }
                            machine.set_phase(group.phase.as_deref().unwrap_or(default_phase));
                            let mut bufs = BTreeMap::new();
                            let mut outcome = Self::replay_group(
                                &mut machine,
                                g,
                                group,
                                &mut bufs,
                                &mut prefetched,
                            );
                            if outcome.is_ok() && !bufs.is_empty() {
                                outcome = Err(EngineError::InvalidSchedule(format!(
                                    "{} buffer(s) left resident at end of task group {g}",
                                    bufs.len()
                                )));
                            }
                            for (_, buf) in bufs {
                                let _ = machine.discard(buf);
                            }
                            machine.note_group_end(g);
                            match outcome {
                                Ok(()) => groups.push(g),
                                Err(error) => {
                                    failure
                                        .lock()
                                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                                        .get_or_insert((w, g, error));
                                    abort.store(true, Ordering::Release);
                                    break;
                                }
                            }
                        }
                        machine.note_group_boundary();
                        // Release any prefetched buffers whose group never
                        // drained (abort mid-pipeline).
                        for (_, buf) in prefetched {
                            let _ = machine.discard(buf);
                        }
                        let (stats, trace) = finish(machine);
                        WorkerRun {
                            stats,
                            trace,
                            groups,
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("parallel worker panicked"))
                .collect()
        });

        let slot = failure
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        match slot {
            Some((worker, group, error)) => Err(ParallelError {
                error,
                worker: Some(worker),
                group: Some(group),
                runs,
            }),
            None => Ok(runs),
        }
    }

    /// Issues the hoistable loads of a worker's claimed-but-not-yet-drained
    /// groups (`pending`) before it drains group `current`. Admission is
    /// conservative: the live prefetch window plus the load plus the largest
    /// group footprint the worker still has in flight must fit its capacity;
    /// a rejected or failing load simply stays at its original program point
    /// (prefetching is an optimization, never a new failure mode).
    fn fill_worker_window<T: Scalar, M: MachineOps<T>>(
        machine: &mut M,
        schedule: &Schedule<T>,
        analysis: &[GroupAnalysis],
        current: usize,
        pending: &VecDeque<(usize, bool)>,
        default_phase: &str,
        prefetched: &mut PrefetchedBufs<T>,
    ) {
        let capacity = machine.capacity();
        let mut window: u64 = prefetched.values().map(|b| b.len() as u64).sum();
        // The bound must cover every group the worker drains while the
        // prefetched buffer is alive: the current group and all claimed ones.
        let mut max_peak = 0u64;
        for g in std::iter::once(current).chain(pending.iter().map(|&(g, _)| g)) {
            match analysis[g].0 {
                Some(peak) => max_peak = max_peak.max(peak as u64),
                // A non-self-contained group has no standalone footprint;
                // prefetching around it is off the table entirely.
                None => return,
            }
        }
        for &(h, _) in pending {
            for &(step_idx, size) in &analysis[h].1 {
                let Step::Load {
                    matrix,
                    region,
                    level,
                    ..
                } = &schedule.groups[h].steps[step_idx]
                else {
                    continue;
                };
                if prefetched.contains_key(&(h, step_idx)) {
                    continue;
                }
                if let Some(cap) = capacity {
                    if window + size as u64 + max_peak > cap as u64 {
                        continue;
                    }
                }
                machine.set_phase(schedule.groups[h].phase.as_deref().unwrap_or(default_phase));
                let Ok(buf) = machine.load_from(*matrix, region.clone(), *level) else {
                    continue; // fall back to loading at the original point
                };
                machine.note_prefetch(region.len());
                machine.note_prefetch_issue(h, step_idx, region.len());
                window += size as u64;
                prefetched.insert((h, step_idx), buf);
            }
        }
    }

    /// Runs one compute step on the resident buffers.
    ///
    /// The destination buffer is taken out of the table for the duration of
    /// the kernel so operand slices (which may alias each other, but never
    /// the destination) can be borrowed immutably.
    fn compute<T: Scalar>(bufs: &mut BTreeMap<BufId, FastBuf<T>>, op: &ComputeOp<T>) -> Result<()> {
        let dst_id = match op {
            ComputeOp::Ger { dst, .. }
            | ComputeOp::SprLower { dst, .. }
            | ComputeOp::TrianglePairs { dst, .. }
            | ComputeOp::CholeskyInPlace { dst, .. }
            | ComputeOp::LuInPlace { dst, .. }
            | ComputeOp::TrsmRightStep { dst, .. }
            | ComputeOp::LuColSolveStep { dst, .. }
            | ComputeOp::LuRowElimStep { dst, .. } => *dst,
        };
        let mut dst = bufs.remove(&dst_id).ok_or_else(|| missing(dst_id))?;
        let outcome = Self::compute_on(bufs, op, &mut dst);
        bufs.insert(dst_id, dst);
        outcome
    }

    fn compute_on<T: Scalar>(
        bufs: &BTreeMap<BufId, FastBuf<T>>,
        op: &ComputeOp<T>,
        dst: &mut FastBuf<T>,
    ) -> Result<()> {
        match op {
            ComputeOp::Ger { alpha, x, y, .. } => {
                let xs = slice_of(bufs, x)?;
                let ys = slice_of(bufs, y)?;
                let mut view = dst.rect_view_mut().map_err(EngineError::Memory)?;
                // Cache-blocked micro-kernel, bitwise-equal to `ger_view`
                // (asserted by the `kernel_equivalence` sweep).
                ger_view_auto(*alpha, xs, ys, &mut view)?;
            }
            ComputeOp::SprLower { alpha, x, .. } => {
                let xs = slice_of(bufs, x)?;
                let mut view = dst.packed_view_mut().map_err(EngineError::Memory)?;
                spr_lower_view_auto(*alpha, xs, &mut view)?;
            }
            ComputeOp::TrianglePairs { alpha, x, .. } => {
                let xs = slice_of(bufs, x)?;
                triangle_pairs_update(*alpha, xs, dst.as_mut_slice())?;
            }
            ComputeOp::CholeskyInPlace { pivot_base, .. } => {
                let mut view = dst.packed_view_mut().map_err(EngineError::Memory)?;
                cholesky_packed_view_in_place(&mut view).map_err(|e| match e {
                    MatrixError::NotPositiveDefinite { pivot, value } => {
                        EngineError::Matrix(MatrixError::NotPositiveDefinite {
                            pivot: pivot + pivot_base,
                            value,
                        })
                    }
                    other => EngineError::Matrix(other),
                })?;
            }
            ComputeOp::LuInPlace { pivot_base, .. } => {
                let mut view = dst.rect_view_mut().map_err(EngineError::Memory)?;
                lu_view_in_place(&mut view).map_err(|e| match e {
                    MatrixError::SingularPivot { pivot } => {
                        EngineError::Matrix(MatrixError::SingularPivot {
                            pivot: pivot + pivot_base,
                        })
                    }
                    other => EngineError::Matrix(other),
                })?;
            }
            ComputeOp::TrsmRightStep {
                seg, col, pivot, ..
            } => {
                let seg = bufs.get(seg).ok_or_else(|| missing(*seg))?.as_slice();
                let mut xv = dst.rect_view_mut().map_err(EngineError::Memory)?;
                let (rc, cc) = (xv.rows(), xv.cols());
                let kk = *col;
                if kk >= cc || seg.len() < cc - kk {
                    return Err(short_segment(
                        "TrsmRightStep",
                        seg.len(),
                        cc.saturating_sub(kk),
                    ));
                }
                let diag = seg[0];
                if diag == T::ZERO || !diag.is_finite_scalar() {
                    return Err(EngineError::Matrix(MatrixError::SingularPivot {
                        pivot: *pivot,
                    }));
                }
                let inv = diag.recip();
                for r in 0..rc {
                    let v = xv.get(r, kk) * inv;
                    xv.set(r, kk, v);
                }
                for j in (kk + 1)..cc {
                    let ljk = seg[j - kk];
                    if ljk == T::ZERO {
                        continue;
                    }
                    for r in 0..rc {
                        let v = xv.get(r, j) - xv.get(r, kk) * ljk;
                        xv.set(r, j, v);
                    }
                }
            }
            ComputeOp::LuColSolveStep {
                seg, col, pivot, ..
            } => {
                let seg = bufs.get(seg).ok_or_else(|| missing(*seg))?.as_slice();
                let kk = *col;
                let mut tv = dst.rect_view_mut().map_err(EngineError::Memory)?;
                if kk >= tv.cols() || seg.len() < kk + 1 {
                    return Err(short_segment("LuColSolveStep", seg.len(), kk + 1));
                }
                let diag = seg[kk];
                if diag == T::ZERO || !diag.is_finite_scalar() {
                    return Err(EngineError::Matrix(MatrixError::SingularPivot {
                        pivot: *pivot,
                    }));
                }
                let inv = diag.recip();
                let ic = tv.rows();
                for (q, &uqk) in seg.iter().enumerate().take(kk) {
                    if uqk == T::ZERO {
                        continue;
                    }
                    for r in 0..ic {
                        let v = tv.get(r, kk) - tv.get(r, q) * uqk;
                        tv.set(r, kk, v);
                    }
                }
                for r in 0..ic {
                    let v = tv.get(r, kk) * inv;
                    tv.set(r, kk, v);
                }
            }
            ComputeOp::LuRowElimStep { seg, row, .. } => {
                let seg = bufs.get(seg).ok_or_else(|| missing(*seg))?.as_slice();
                let kk = *row;
                let mut tv = dst.rect_view_mut().map_err(EngineError::Memory)?;
                if kk >= tv.rows() || seg.len() > tv.rows() - kk - 1 {
                    return Err(short_segment(
                        "LuRowElimStep",
                        seg.len(),
                        tv.rows().saturating_sub(kk + 1),
                    ));
                }
                let jc = tv.cols();
                for (off, &lik) in seg.iter().enumerate() {
                    if lik == T::ZERO {
                        continue;
                    }
                    let i = kk + 1 + off;
                    for c in 0..jc {
                        let v = tv.get(i, c) - lik * tv.get(kk, c);
                        tv.set(i, c, v);
                    }
                }
            }
        }
        Ok(())
    }

    /// Replays only the accounting of `schedule`: the returned [`IoStats`]
    /// equal what [`Engine::execute`] would leave in the machine's counters
    /// (same loads, stores, events, flops, peak residency and per-phase
    /// attribution), computed without data or capacity limits — it *is*
    /// that replay, on a [`CountingMachine`].
    ///
    /// Transfers of groups with no phase label are attributed to
    /// `default_phase` — pass the machine's current phase (usually
    /// `"main"`).
    ///
    /// Never panics: for a schedule the replay rejects (a step naming an
    /// unknown buffer, a buffer left resident at the end), the stats are the
    /// accounting made before the rejection, as an execution would leave
    /// them. Kernels do not run, so a kernel-level error (e.g. a short
    /// solve segment) does not stop a dry run.
    ///
    /// ```
    /// use symla_memory::{MatrixId, Region};
    /// use symla_sched::{Engine, ScheduleBuilder};
    ///
    /// // Dry runs need no machine: synthetic ids are enough.
    /// let id = MatrixId::synthetic(0);
    /// let mut b = ScheduleBuilder::<f64>::new();
    /// let c = b.load(id, Region::rect(0, 0, 3, 3));
    /// let a = b.load(id, Region::col_segment(3, 0, 3));
    /// b.discard(a);
    /// b.store(c);
    /// let stats = Engine::dry_run(&b.finish(), "main");
    /// assert_eq!(stats.volume.loads, 12);
    /// assert_eq!(stats.volume.stores, 9);
    /// assert_eq!(stats.peak_resident, 12);
    /// assert_eq!(stats.phase("main").loads, 12);
    /// ```
    pub fn dry_run<T: Scalar>(schedule: &Schedule<T>, default_phase: &str) -> IoStats {
        Self::dry_run_with(schedule, default_phase, &EngineConfig::default(), None)
    }

    /// [`Engine::dry_run`] of the **prefetching** replay: the exact
    /// accounting [`Engine::execute_with`] leaves in a machine of capacity
    /// `capacity` — same volumes, events, flops and per-phase split as the
    /// plain dry run, plus the overlapped/stalled load split
    /// ([`IoStats::prefetched_elements`] / `prefetch_events` /
    /// [`IoStats::stalled_loads`]) and the *prefetch-inflated* peak
    /// residency (which by planner admission never exceeds `capacity`).
    /// This is how the benefit of a lookahead is quantified without timing
    /// noise: the modelled overlap is the load volume removed from the
    /// critical path. Like [`Engine::dry_run`] it never panics and returns
    /// the accounting made before a rejection.
    ///
    /// ```
    /// use symla_memory::{MatrixId, Region};
    /// use symla_sched::{Engine, EngineConfig, ScheduleBuilder};
    ///
    /// let id = MatrixId::synthetic(0);
    /// let mut b = ScheduleBuilder::<f64>::new();
    /// for i in 0..2 {
    ///     b.begin_group();
    ///     let x = b.load(id, Region::rect(2 * i, 0, 2, 2));
    ///     b.store(x);
    /// }
    /// let schedule = b.finish();
    /// let stats = Engine::dry_run_with(
    ///     &schedule, "main", &EngineConfig::with_lookahead(1), Some(8),
    /// );
    /// // Group 1's load was issued while group 0 computed ...
    /// assert_eq!(stats.prefetched_elements, 4);
    /// assert_eq!(stats.stalled_loads(), 4);
    /// // ... at the price of double-buffered residency.
    /// assert_eq!(stats.peak_resident, 8);
    /// assert_eq!(stats.volume.loads, 8); // volumes never change
    /// ```
    pub fn dry_run_with<T: Scalar>(
        schedule: &Schedule<T>,
        default_phase: &str,
        config: &EngineConfig,
        capacity: Option<usize>,
    ) -> IoStats {
        count(schedule, default_phase, config, capacity, false).0
    }

    /// Synthesizes the transfer trace of `schedule`: the returned [`Trace`]
    /// equals what a machine with trace recording enabled would record while
    /// executing the schedule — it is that replay, on a trace-recording
    /// [`CountingMachine`]. Like [`Engine::dry_run`] it never panics; a
    /// rejected schedule yields the events recorded before the rejection.
    ///
    /// ```
    /// use symla_memory::{Direction, MatrixId, Region};
    /// use symla_sched::{Engine, ScheduleBuilder};
    ///
    /// let id = MatrixId::synthetic(7);
    /// let mut b = ScheduleBuilder::<f64>::new();
    /// let buf = b.load(id, Region::rect(0, 0, 2, 4));
    /// b.store(buf);
    /// let trace = Engine::trace(&b.finish(), "main");
    /// assert_eq!(trace.len(), 2);
    /// assert_eq!(trace.events()[0].direction, Direction::Load);
    /// assert_eq!(trace.events()[1].direction, Direction::Store);
    /// assert_eq!(trace.events()[1].resident_after, 0);
    /// ```
    pub fn trace<T: Scalar>(schedule: &Schedule<T>, default_phase: &str) -> Trace {
        Self::trace_with(schedule, default_phase, &EngineConfig::default(), None)
    }

    /// [`Engine::trace`] of the **prefetching** replay: the synthesized
    /// stream equals what a trace-recording machine of capacity `capacity`
    /// captures during [`Engine::execute_with`] — prefetched loads appear at
    /// the group boundary where they are issued (with the residency they
    /// observe there), attributed to the phase of their consuming group.
    pub fn trace_with<T: Scalar>(
        schedule: &Schedule<T>,
        default_phase: &str,
        config: &EngineConfig,
        capacity: Option<usize>,
    ) -> Trace {
        count(schedule, default_phase, config, capacity, true)
            .1
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::ScheduleBuilder;
    use symla_matrix::kernels::FlopCount;
    use symla_matrix::Matrix;
    use symla_memory::{MachineConfig, MatrixId, OocMachine, Region};

    /// A tiny rank-1 update schedule used by the mode-equivalence tests.
    fn rank1_schedule(id: MatrixId) -> Schedule<f64> {
        let mut b = ScheduleBuilder::new();
        b.begin_group();
        let c = b.load(id, Region::rect(0, 0, 3, 3));
        let x = b.load(id, Region::col_segment(3, 0, 3));
        b.compute(ComputeOp::Ger {
            alpha: 2.0,
            x: BufSlice::whole(x, 3),
            y: BufSlice::whole(x, 3),
            dst: c,
        });
        b.flops(FlopCount::new(9, 9));
        b.discard(x);
        b.store(c);
        b.finish()
    }

    #[test]
    fn execute_dry_run_and_trace_agree() {
        let a = Matrix::<f64>::from_fn(4, 4, |i, j| (i * 4 + j) as f64);
        let mut machine = OocMachine::new(MachineConfig::with_capacity(16).record_trace(true));
        let id = machine.insert_dense(a.clone());
        let schedule = rank1_schedule(id);

        Engine::execute(&mut machine, &schedule).unwrap();
        let stats = machine.stats().clone();
        assert_eq!(stats, Engine::dry_run(&schedule, "main"));
        assert_eq!(machine.trace().unwrap(), &Engine::trace(&schedule, "main"));
        assert_eq!(stats.volume.loads, 12);
        assert_eq!(stats.volume.stores, 9);
        assert_eq!(stats.peak_resident, 12);
        assert_eq!(stats.flops.mults, 9);

        // the kernel really ran: C[0,0] += 2 * A[0,3]^2
        let out = machine.take_dense(id).unwrap();
        assert_eq!(out[(0, 0)], a[(0, 0)] + 2.0 * a[(0, 3)] * a[(0, 3)]);
    }

    #[test]
    fn phases_are_attributed_per_group() {
        let mut b = ScheduleBuilder::<f64>::new();
        let id = MatrixId::synthetic(0);
        b.set_phase("alpha");
        b.begin_group();
        let x = b.load(id, Region::rect(0, 0, 2, 2));
        b.discard(x);
        b.set_phase("beta");
        b.begin_group();
        let y = b.load(id, Region::rect(0, 0, 5, 1));
        b.store(y);
        let schedule = b.finish();

        let stats = Engine::dry_run(&schedule, "main");
        assert_eq!(stats.phase("alpha").loads, 4);
        assert_eq!(stats.phase("beta").loads, 5);
        assert_eq!(stats.phase("beta").stores, 5);
        assert_eq!(stats.phase("main").total(), 0);
        assert_eq!(stats.peak_resident, 5);
    }

    #[test]
    fn unphased_groups_inherit_the_default_phase() {
        let mut b = ScheduleBuilder::<f64>::new();
        let id = MatrixId::synthetic(0);
        let x = b.load(id, Region::rect(0, 0, 2, 3));
        b.store(x);
        let schedule = b.finish();
        let stats = Engine::dry_run(&schedule, "lbc:trailing");
        assert_eq!(stats.phase("lbc:trailing").loads, 6);
        let trace = Engine::trace(&schedule, "lbc:trailing");
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.events()[0].phase, "lbc:trailing");
    }

    #[test]
    fn execute_rejects_malformed_schedules() {
        let mut machine = OocMachine::<f64>::with_capacity(100);
        let id = machine.insert_dense(Matrix::zeros(4, 4));

        // store of a never-loaded buffer
        let mut b = ScheduleBuilder::<f64>::new();
        b.store(99);
        let err = Engine::execute(&mut machine, &b.finish()).unwrap_err();
        assert!(matches!(err, EngineError::InvalidSchedule(_)));
        assert!(err.to_string().contains("99"));

        // buffer left resident at the end
        let mut b = ScheduleBuilder::<f64>::new();
        b.load(id, Region::rect(0, 0, 1, 1));
        let err = Engine::execute(&mut machine, &b.finish()).unwrap_err();
        assert!(matches!(err, EngineError::InvalidSchedule(_)));
    }

    #[test]
    fn failed_execution_releases_resident_buffers() {
        // A schedule that errors mid-flight (second load exceeds capacity
        // while the first buffer is resident) must leave the machine's
        // accounting clean: nothing resident, no leases outstanding.
        let mut machine = OocMachine::<f64>::with_capacity(10);
        let id = machine.insert_dense(Matrix::zeros(4, 4));
        let mut b = ScheduleBuilder::<f64>::new();
        let x = b.load(id, Region::rect(0, 0, 3, 3));
        let y = b.load(id, Region::rect(0, 0, 2, 2)); // 9 + 4 > 10
        b.discard(y);
        b.discard(x);
        let err = Engine::execute(&mut machine, &b.finish()).unwrap_err();
        assert!(matches!(err, EngineError::Memory(_)));
        assert_eq!(machine.resident(), 0);
        assert!(machine.take_dense(id).is_ok(), "no leases left behind");
    }

    #[test]
    fn short_solve_segments_are_rejected_not_panics() {
        let mut machine = OocMachine::<f64>::with_capacity(100);
        let id = machine.insert_dense(Matrix::zeros(6, 6));
        let mut b = ScheduleBuilder::<f64>::new();
        let tile = b.load(id, Region::rect(0, 0, 3, 3));
        let seg = b.load(id, Region::rect(0, 3, 1, 1)); // 1 element, needs 3
        b.compute(ComputeOp::TrsmRightStep {
            seg,
            dst: tile,
            col: 0,
            pivot: 0,
        });
        b.discard(seg);
        b.discard(tile);
        let err = Engine::execute(&mut machine, &b.finish()).unwrap_err();
        assert!(matches!(err, EngineError::InvalidSchedule(_)), "{err}");
        assert_eq!(machine.resident(), 0);
    }

    /// The infallible wrappers never panic. On a schedule or plan the replay
    /// rejects, they return the accounting made before the rejection — for
    /// the dry run and the trace, exactly what an execution leaves behind.
    #[test]
    fn infallible_wrappers_return_the_accounting_before_a_rejection() {
        use crate::timing::{modelled_group_times, modelled_time_planned};
        use symla_memory::{MachineModel, TimeStats};
        let id = MatrixId::synthetic(0);

        // An unknown buffer, and a buffer left resident at the end.
        let mut unknown = ScheduleBuilder::<f64>::new();
        unknown.store(99);
        let mut resident = ScheduleBuilder::<f64>::new();
        resident.load(id, Region::rect(0, 0, 1, 1));
        for schedule in [unknown.finish(), resident.finish()] {
            let mut machine =
                OocMachine::<f64>::new(MachineConfig::with_capacity(100).record_trace(true));
            machine.insert_dense(Matrix::zeros(4, 4));
            assert!(Engine::execute(&mut machine, &schedule).is_err());
            assert_eq!(&Engine::dry_run(&schedule, "main"), machine.stats());
            assert_eq!(&Engine::trace(&schedule, "main"), machine.trace().unwrap());
        }

        // A short solve segment fails the kernel, which a dry run skips: it
        // keeps the full accounting.
        let mut b = ScheduleBuilder::<f64>::new();
        let tile = b.load(id, Region::rect(0, 0, 3, 3));
        let seg = b.load(id, Region::rect(0, 3, 1, 1));
        b.compute(ComputeOp::TrsmRightStep {
            seg,
            dst: tile,
            col: 0,
            pivot: 0,
        });
        b.discard(seg);
        b.store(tile);
        let stats = Engine::dry_run(&b.finish(), "main");
        assert_eq!(stats.volume.loads, 10);
        assert_eq!(stats.volume.stores, 9);
        assert_eq!(stats.peak_resident, 10);

        // A plan built for a different schedule: its issues name steps
        // this schedule does not have, so pricing charges nothing.
        let two_groups = |loads: usize| {
            let mut b = ScheduleBuilder::<f64>::new();
            for i in 0..2 {
                b.begin_group();
                let bufs: Vec<_> = (0..loads)
                    .map(|j| b.load(id, Region::rect(i, j, 1, 1)))
                    .collect();
                for buf in bufs {
                    b.store(buf);
                }
            }
            b.finish()
        };
        let plan = PrefetchPlan::plan(&two_groups(3), 1, Some(100));
        assert!(!plan.is_empty());
        let model = MachineModel::dram();
        let narrow = two_groups(1);
        assert_eq!(
            modelled_time_planned(&narrow, &model, &plan),
            TimeStats::default()
        );
        assert!(modelled_group_times(&narrow, &model, &plan).is_empty());
    }

    /// One independent group per diagonal `t x t` block of an `n x n` dense
    /// matrix: load the block, scale it by 2 with a Ger against a loaded
    /// one-column probe, store it back.
    fn diagonal_block_schedule(id: MatrixId, n: usize, t: usize) -> Schedule<f64> {
        let mut b = ScheduleBuilder::new();
        for i0 in (0..n).step_by(t) {
            let tc = t.min(n - i0);
            b.begin_group();
            let c = b.load(id, Region::rect(i0, i0, tc, tc));
            let x = b.load(id, Region::col_segment(i0, i0, tc));
            b.compute(ComputeOp::Ger {
                alpha: 1.0,
                x: BufSlice::whole(x, tc),
                y: BufSlice::whole(x, tc),
                dst: c,
            });
            b.flops(FlopCount::new((tc * tc) as u128, (tc * tc) as u128));
            b.discard(x);
            b.store(c);
        }
        b.finish()
    }

    /// Dry-run accounting of exactly the groups a worker processed.
    fn dry_run_of_groups(schedule: &Schedule<f64>, groups: &[usize]) -> IoStats {
        let picked = Schedule {
            groups: groups.iter().map(|&g| schedule.groups[g].clone()).collect(),
        };
        Engine::dry_run(&picked, "main")
    }

    #[test]
    fn parallel_execution_equals_serial_for_all_worker_counts() {
        let n = 24;
        let a = Matrix::<f64>::from_fn(n, n, |i, j| ((i * n + j) % 13) as f64 - 6.0);
        let schedule = diagonal_block_schedule(MatrixId::synthetic(0), n, 4);
        assert_eq!(schedule.num_groups(), 6);

        // Serial reference execution.
        let mut machine = OocMachine::new(MachineConfig::with_capacity(20));
        let serial_id = machine.insert_dense(a.clone());
        Engine::execute(&mut machine, &schedule).unwrap();
        let expected = machine.take_dense(serial_id).unwrap();
        let dry = Engine::dry_run(&schedule, "main");

        for workers in [1, 2, 4, 8] {
            let shared = SharedSlowMemory::new();
            let id = shared.insert_dense(a.clone());
            let runs = Engine::execute_parallel(
                &shared,
                &schedule,
                workers,
                MachineConfig::with_capacity(20),
                "main",
            )
            .unwrap();
            assert_eq!(runs.len(), workers);

            // Every group ran exactly once.
            let mut all: Vec<usize> = runs.iter().flat_map(|r| r.groups.clone()).collect();
            all.sort_unstable();
            assert_eq!(all, (0..schedule.num_groups()).collect::<Vec<_>>());

            // Summed per-worker accounting equals the serial dry run, and
            // each worker's stats equal the dry run of its own groups.
            assert_eq!(WorkerRun::merged_stats(&runs), dry, "P={workers}");
            for (w, run) in runs.iter().enumerate() {
                assert_eq!(
                    run.stats,
                    dry_run_of_groups(&schedule, &run.groups),
                    "P={workers} worker {w}"
                );
            }

            // The computed result is bitwise-equal to the serial execution.
            let got = shared.take_dense(id).unwrap();
            assert_eq!(got, expected, "P={workers}");
        }
    }

    #[test]
    fn single_worker_reproduces_the_serial_trace() {
        let n = 12;
        let a = Matrix::<f64>::from_fn(n, n, |i, j| (i + 2 * j) as f64);
        let schedule = diagonal_block_schedule(MatrixId::synthetic(0), n, 4);
        let shared = SharedSlowMemory::new();
        shared.insert_dense(a);
        let runs = Engine::execute_parallel(
            &shared,
            &schedule,
            1,
            MachineConfig::with_capacity(20).record_trace(true),
            "main",
        )
        .unwrap();
        // One worker claims the groups in order, so its trace is the serial
        // trace of the whole schedule.
        assert_eq!(
            runs[0].trace.as_ref().unwrap(),
            &Engine::trace(&schedule, "main")
        );
        assert_eq!(runs[0].groups, vec![0, 1, 2]);
    }

    #[test]
    fn more_workers_than_groups_leaves_spare_workers_idle_but_consistent() {
        let n = 8;
        let schedule = diagonal_block_schedule(MatrixId::synthetic(0), n, 4);
        assert_eq!(schedule.num_groups(), 2);
        let shared = SharedSlowMemory::new();
        shared.insert_dense(Matrix::<f64>::identity(n));
        let runs = Engine::execute_parallel(
            &shared,
            &schedule,
            8,
            MachineConfig::with_capacity(20),
            "main",
        )
        .unwrap();
        assert_eq!(runs.len(), 8);
        let busy: usize = runs.iter().filter(|r| !r.groups.is_empty()).count();
        assert!(busy <= 2, "only two groups exist");
        for run in &runs {
            if run.groups.is_empty() {
                assert_eq!(run.stats, IoStats::new(), "idle workers count nothing");
            }
        }
        assert_eq!(
            WorkerRun::merged_stats(&runs),
            Engine::dry_run(&schedule, "main")
        );
    }

    #[test]
    fn an_empty_group_and_an_empty_schedule_execute_trivially() {
        let shared = SharedSlowMemory::<f64>::new();
        shared.insert_dense(Matrix::zeros(2, 2));

        // A hand-built schedule holding one empty group (the builder drops
        // empty groups, so construct it directly).
        let schedule = Schedule {
            groups: vec![TaskGroup::default()],
        };
        let runs =
            Engine::execute_parallel(&shared, &schedule, 4, MachineConfig::unlimited(), "main")
                .unwrap();
        let done: usize = runs.iter().map(|r| r.groups.len()).sum();
        assert_eq!(done, 1, "the empty group still counts as processed");
        assert_eq!(WorkerRun::merged_stats(&runs), IoStats::new());

        let empty = Schedule::<f64>::default();
        let runs = Engine::execute_parallel(&shared, &empty, 3, MachineConfig::unlimited(), "main")
            .unwrap();
        assert!(runs.iter().all(|r| r.groups.is_empty()));
    }

    #[test]
    fn zero_workers_are_rejected_without_fabricated_indices() {
        let shared = SharedSlowMemory::<f64>::new();
        let err = Engine::execute_parallel(
            &shared,
            &Schedule::default(),
            0,
            MachineConfig::unlimited(),
            "main",
        )
        .unwrap_err();
        assert!(matches!(err.error, EngineError::InvalidArgument(_)));
        // Regression: the invalid-argument rejection used to claim worker 0
        // failed on group 0 — indices that never existed. No worker ran and
        // no group was attempted, and the error says so.
        assert_eq!(err.worker, None);
        assert_eq!(err.group, None);
        assert!(err.runs.is_empty());
        assert!(err.to_string().contains("rejected"), "{err}");
        assert!(!err.to_string().contains("worker 0"), "{err}");
    }

    #[test]
    fn failing_group_aborts_propagates_and_keeps_other_workers_consistent() {
        let n = 24;
        let a = Matrix::<f64>::from_fn(n, n, |i, j| (i * n + j + 1) as f64);
        let id = MatrixId::synthetic(0);
        let mut schedule = diagonal_block_schedule(id, n, 4);
        // Corrupt group 3: its compute references a buffer that is never
        // loaded, so replay fails mid-group with two buffers resident.
        let poisoned_buf = 9999;
        schedule.groups[3].steps.insert(
            2,
            Step::Compute(ComputeOp::Ger {
                alpha: 1.0,
                x: BufSlice::whole(poisoned_buf, 4),
                y: BufSlice::whole(poisoned_buf, 4),
                dst: poisoned_buf,
            }),
        );

        let shared = SharedSlowMemory::new();
        let sid = shared.insert_dense(a.clone());
        let err = Engine::execute_parallel(
            &shared,
            &schedule,
            2,
            MachineConfig::with_capacity(20),
            "main",
        )
        .unwrap_err();

        // The error names the failing group and propagates the cause.
        assert_eq!(err.group, Some(3));
        assert!(matches!(err.error, EngineError::InvalidSchedule(_)));
        assert!(err.to_string().contains("task group 3"), "{err}");
        assert!(std::error::Error::source(&err).is_some());
        assert_eq!(err.runs.len(), 2);

        // Completed groups are fully accounted on their workers: each run's
        // stats equal the dry run of its completed groups, plus — for the
        // failing worker only — the partial loads of group 3.
        let failing_worker = err.worker.expect("a worker replayed the poisoned group");
        let failing = &err.runs[failing_worker];
        assert!(!failing.groups.contains(&3));
        let mut expected = dry_run_of_groups(&schedule, &failing.groups);
        // group 3 loaded its 4x4 block and its 4-element probe before dying
        expected.record_load(16, "main");
        expected.record_load(4, "main");
        expected.observe_resident(20);
        assert_eq!(failing.stats.volume, expected.volume);
        assert_eq!(failing.stats.load_events, expected.load_events);
        for (w, run) in err.runs.iter().enumerate() {
            if w != failing_worker {
                assert_eq!(
                    run.stats,
                    dry_run_of_groups(&schedule, &run.groups),
                    "worker {w}"
                );
            }
        }

        // The failed group's buffers were released: no leases are left, the
        // matrix can be taken out, and only completed groups touched it.
        let got = shared.take_dense(sid).unwrap();
        let done: Vec<usize> = err.runs.iter().flat_map(|r| r.groups.clone()).collect();
        for g in 0..schedule.num_groups() {
            let i0 = g * 4;
            let untouched = a[(i0, i0)];
            if done.contains(&g) {
                assert_ne!(got[(i0, i0)], untouched, "group {g} should have landed");
            } else {
                assert_eq!(got[(i0, i0)], untouched, "group {g} must not have landed");
            }
        }
    }

    #[test]
    fn parallel_groups_must_be_self_contained() {
        // A buffer loaded in one group and stored in the next is legal in
        // serial mode but rejected by the parallel path.
        let id = MatrixId::synthetic(0);
        let mut b = ScheduleBuilder::<f64>::new();
        b.begin_group();
        let buf = b.load(id, Region::rect(0, 0, 2, 2));
        b.begin_group();
        b.store(buf);
        let schedule = b.finish();

        let shared = SharedSlowMemory::new();
        shared.insert_dense(Matrix::<f64>::zeros(4, 4));
        let err =
            Engine::execute_parallel(&shared, &schedule, 1, MachineConfig::unlimited(), "main")
                .unwrap_err();
        assert!(matches!(err.error, EngineError::InvalidSchedule(_)));
        assert!(err.to_string().contains("left resident"), "{err}");

        // The serial path still accepts it.
        let mut machine = OocMachine::<f64>::with_capacity(16);
        let mid = machine.insert_dense(Matrix::zeros(4, 4));
        let schedule2 = {
            let mut b = ScheduleBuilder::<f64>::new();
            b.begin_group();
            let buf = b.load(mid, Region::rect(0, 0, 2, 2));
            b.begin_group();
            b.store(buf);
            b.finish()
        };
        Engine::execute(&mut machine, &schedule2).unwrap();
    }

    #[test]
    fn prefetching_execute_matches_its_dry_run_and_trace() {
        let n = 24;
        let a = Matrix::<f64>::from_fn(n, n, |i, j| ((i * n + j) % 11) as f64 - 5.0);
        let schedule = diagonal_block_schedule(MatrixId::synthetic(0), n, 4);

        // Reference: plain replay.
        let mut plain = OocMachine::new(MachineConfig::with_capacity(40).record_trace(true));
        let plain_id = plain.insert_dense(a.clone());
        Engine::execute(&mut plain, &schedule).unwrap();
        let expected = plain.take_dense(plain_id).unwrap();

        for lookahead in [1usize, 2, 5] {
            let config = EngineConfig::with_lookahead(lookahead);
            let mut machine = OocMachine::new(MachineConfig::with_capacity(40).record_trace(true));
            let id = machine.insert_dense(a.clone());
            Engine::execute_with(&mut machine, &schedule, &config).unwrap();

            // execute == dry-run == trace, at the same config and capacity.
            let dry = Engine::dry_run_with(&schedule, "main", &config, Some(40));
            assert_eq!(machine.stats(), &dry, "lookahead {lookahead}");
            let synthesized = Engine::trace_with(&schedule, "main", &config, Some(40));
            assert_eq!(
                machine.trace().unwrap(),
                &synthesized,
                "lookahead {lookahead}"
            );

            // Overlap is real, volumes and phases unchanged, capacity held.
            let plain_dry = Engine::dry_run(&schedule, "main");
            assert!(dry.prefetched_elements > 0, "lookahead {lookahead}");
            assert_eq!(dry.volume, plain_dry.volume);
            assert_eq!(dry.load_events, plain_dry.load_events);
            assert_eq!(dry.per_phase, plain_dry.per_phase);
            assert!(dry.peak_resident <= 40);
            assert!(dry.peak_resident >= plain_dry.peak_resident);

            // The computed result is bitwise-equal to the plain replay.
            assert_eq!(machine.take_dense(id).unwrap(), expected);
        }

        // Lookahead 0 is exactly the plain mode.
        assert_eq!(
            Engine::dry_run_with(&schedule, "main", &EngineConfig::default(), Some(40)),
            Engine::dry_run(&schedule, "main")
        );
    }

    #[test]
    fn prefetch_respects_a_tight_capacity() {
        // Capacity exactly one group's footprint: no slack, no prefetch,
        // and the replay still succeeds.
        let schedule = diagonal_block_schedule(MatrixId::synthetic(0), 12, 4);
        let dry = Engine::dry_run(&schedule, "main");
        let cap = dry.peak_resident;
        let config = EngineConfig::with_lookahead(1);
        let mut machine = OocMachine::new(MachineConfig::with_capacity(cap));
        machine.insert_dense(Matrix::<f64>::identity(12));
        Engine::execute_with(&mut machine, &schedule, &config).unwrap();
        assert_eq!(machine.stats().prefetched_elements, 0);
        assert_eq!(machine.stats().peak_resident, dry.peak_resident);
    }

    #[test]
    fn prefetching_phase_attribution_is_unchanged() {
        let id = MatrixId::synthetic(0);
        let mut b = ScheduleBuilder::<f64>::new();
        b.set_phase("alpha");
        b.begin_group();
        let x = b.load(id, Region::rect(0, 0, 2, 2));
        b.discard(x);
        b.set_phase("beta");
        b.begin_group();
        let y = b.load(id, Region::rect(4, 4, 2, 2));
        b.discard(y);
        let schedule = b.finish();
        let config = EngineConfig::with_lookahead(1);
        let stats = Engine::dry_run_with(&schedule, "main", &config, Some(8));
        // Group 1's load was prefetched at group 0's boundary but stays
        // attributed to its consuming phase.
        assert_eq!(stats.prefetched_elements, 4);
        assert_eq!(stats.phase("alpha").loads, 4);
        assert_eq!(stats.phase("beta").loads, 4);
        assert_eq!(stats.peak_resident, 8);
    }

    #[test]
    fn parallel_prefetch_keeps_results_volumes_and_capacity() {
        let n = 24;
        let a = Matrix::<f64>::from_fn(n, n, |i, j| ((i * 3 + j * 7) % 9) as f64 - 4.0);
        let schedule = diagonal_block_schedule(MatrixId::synthetic(0), n, 4);
        let dry = Engine::dry_run(&schedule, "main");

        // Serial reference.
        let mut machine = OocMachine::new(MachineConfig::with_capacity(40));
        let serial_id = machine.insert_dense(a.clone());
        Engine::execute(&mut machine, &schedule).unwrap();
        let expected = machine.take_dense(serial_id).unwrap();

        for workers in [1usize, 2, 4] {
            for lookahead in [1usize, 2] {
                let shared = SharedSlowMemory::new();
                let id = shared.insert_dense(a.clone());
                let runs = Engine::execute_parallel_with(
                    &shared,
                    &schedule,
                    workers,
                    MachineConfig::with_capacity(40),
                    "main",
                    &EngineConfig::with_lookahead(lookahead),
                )
                .unwrap();
                let ctx = format!("P={workers} L={lookahead}");

                let merged = WorkerRun::merged_stats(&runs);
                assert_eq!(merged.volume, dry.volume, "{ctx}");
                assert_eq!(merged.load_events, dry.load_events, "{ctx}");
                assert_eq!(merged.flops, dry.flops, "{ctx}");
                for (w, run) in runs.iter().enumerate() {
                    assert!(run.stats.peak_resident <= 40, "{ctx} worker {w}");
                }
                // A single pipelined worker genuinely overlaps.
                if workers == 1 {
                    assert!(merged.prefetched_elements > 0, "{ctx}");
                }
                assert!(WorkerRun::aggregate_peak(&runs) >= merged.peak_resident);

                let got = shared.take_dense(id).unwrap();
                assert_eq!(got, expected, "{ctx}");
            }
        }
    }

    #[test]
    fn capacity_violations_surface_as_memory_errors() {
        let mut machine = OocMachine::<f64>::with_capacity(4);
        let id = machine.insert_dense(Matrix::zeros(4, 4));
        let mut b = ScheduleBuilder::<f64>::new();
        let x = b.load(id, Region::rect(0, 0, 3, 3));
        b.discard(x);
        let err = Engine::execute(&mut machine, &b.finish()).unwrap_err();
        assert!(matches!(
            err,
            EngineError::Memory(MemoryError::CapacityExceeded { .. })
        ));
        assert!(std::error::Error::source(&err).is_some());
    }
}
