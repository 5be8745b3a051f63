//! Modelled wall-clock time of a schedule replay, without executing it.
//!
//! Every function here is the engine's one serial loop,
//! [`Engine::execute_planned`], over a data-free [`CountingMachine`] (no
//! data moves, no kernel runs) with a timing machine stacked on it:
//! [`modelled_time`] / [`modelled_time_planned`] return the [`TimeStats`]
//! of a [`LatencyMachine`]'s [`ModelClock`] — per-group windows of the
//! two-phase overlap model (see [`TimeStats::add_window`]) — and
//! [`modelled_group_times`] that clock's per-group windows;
//! [`modelled_run_trace`] stacks an [`InstrumentedMachine`] instead.
//!
//! Since the engine's own replay emits the events, the result is
//! **bitwise-equal** (as `f64`s) to what a [`LatencyMachine`] over a real
//! machine accumulates during [`Engine::execute_with`] of the same schedule
//! under the same model, lookahead and capacity — the timing analogue of
//! the `execute == dry_run` stats invariant, guarded for every builder by
//! `tests/wallclock_model.rs`.

use crate::engine::Engine;
use crate::ir::Schedule;
use crate::prefetch::PrefetchPlan;
use symla_matrix::Scalar;
use symla_memory::{
    CountingMachine, LatencyMachine, MachineConfig, MachineModel, ModelClock, TimeStats,
};
use symla_obs::{ExecutionObserver, InstrumentedMachine, ObsRecord, RunTrace, TraceRecorder};

/// Models the wall-clock of [`Engine::execute_with`] on a machine of
/// `capacity`, pricing transfers and flops with `model`.
///
/// `lookahead = 0` models the plain serial replay (every load is a demand
/// load; nothing overlaps). With `lookahead = L > 0` the same
/// [`PrefetchPlan`] the engine would compute decides which loads are issued
/// at a group boundary and therefore overlap that group's compute.
///
/// ```
/// use symla_memory::{MachineModel, MatrixId, Region};
/// use symla_sched::timing::modelled_time;
/// use symla_sched::ScheduleBuilder;
/// use symla_matrix::kernels::FlopCount;
///
/// let id = MatrixId::synthetic(0);
/// let mut b = ScheduleBuilder::<f64>::new();
/// for i in 0..4 {
///     b.begin_group();
///     let x = b.load(id, Region::rect(4 * i, 0, 4, 4));
///     b.flops(FlopCount::new(4096, 4096));
///     b.store(x);
/// }
/// let s = b.finish();
/// let model = MachineModel::dram();
/// let serial = modelled_time(&s, &model, 0, Some(64));
/// let overlapped = modelled_time(&s, &model, 1, Some(64));
/// // Volumes are unchanged, but prefetched loads hide behind compute.
/// assert_eq!(serial.io_ns, overlapped.io_ns);
/// assert!(overlapped.total_ns() < serial.total_ns());
/// ```
pub fn modelled_time<T: Scalar>(
    schedule: &Schedule<T>,
    model: &MachineModel,
    lookahead: usize,
    capacity: Option<usize>,
) -> TimeStats {
    let plan = PrefetchPlan::for_lookahead(schedule, lookahead, capacity);
    modelled_time_planned(schedule, model, &plan)
}

/// [`modelled_time`] with an already-computed [`PrefetchPlan`] (the
/// modelled-time analogue of [`Engine::execute_planned`]). An empty plan
/// models the plain serial replay.
///
/// Never panics: for a schedule or plan the replay rejects (e.g. a plan
/// built for a different schedule), the result is the time charged before
/// the rejection.
pub fn modelled_time_planned<T: Scalar>(
    schedule: &Schedule<T>,
    model: &MachineModel,
    plan: &PrefetchPlan,
) -> TimeStats {
    latency_replay(schedule, model, plan).time()
}

/// Synthesizes the [`RunTrace`] a serial [`Engine::execute_with`] on an
/// [`InstrumentedMachine`] would record, without executing anything — the
/// observability analogue of [`Engine::trace`].
///
/// It is that replay, on an instrumented counting machine, so the
/// synthesized events match an executed trace **bitwise** in their modelled
/// timestamps and exactly in kind and order. Real-clock stamps are `0`
/// (nothing ran) and all events sit on worker track `0`; exporting both
/// traces with [`TimeBase::Modelled`](symla_obs::TimeBase) yields
/// byte-identical documents — the `ab_obs` gate asserts exactly that. A
/// rejected schedule yields the events recorded before the rejection.
pub fn modelled_run_trace<T: Scalar>(
    schedule: &Schedule<T>,
    model: &MachineModel,
    lookahead: usize,
    capacity: Option<usize>,
) -> RunTrace {
    /// A recorder that keeps no real clock: every real stamp is `0`.
    struct Unclocked(TraceRecorder);

    impl ExecutionObserver for Unclocked {
        fn record(&self, record: ObsRecord) {
            self.0.record(record);
        }
    }

    let plan = PrefetchPlan::for_lookahead(schedule, lookahead, capacity);
    let recorder = TraceRecorder::new();
    let counting = CountingMachine::new(MachineConfig::unlimited());
    let mut machine = InstrumentedMachine::new(counting, *model, Unclocked(recorder.clone()), 0);
    let _ = Engine::execute_planned(&mut machine, schedule, &plan);
    recorder.finish()
}

/// Per-group wall-clock contributions under the same window model as
/// [`modelled_time_planned`]: entry `g` is the modelled ns group `g` adds to
/// the serial critical path, `demand + max(prefetch, compute)` (prefetched
/// loads are charged to the group whose boundary issues them). Groups whose
/// window is empty contribute `0.0`.
///
/// Summing the entries recovers [`TimeStats::total_ns`] of
/// [`modelled_time_planned`] up to floating-point association order; the
/// per-group view exists for schedulers that need the *distribution* of the
/// time — notably the autotuner's parallel makespan model
/// ([`crate::autotune`]), which assigns group windows to workers. A
/// rejected replay yields the windows of the groups settled before the
/// rejection.
pub fn modelled_group_times<T: Scalar>(
    schedule: &Schedule<T>,
    model: &MachineModel,
    plan: &PrefetchPlan,
) -> Vec<f64> {
    group_windows(latency_replay(schedule, model, plan).clock())
}

/// Replays `schedule` under `plan` on a counting machine priced by
/// `model`. A rejected replay keeps what was charged before the rejection.
pub(crate) fn latency_replay<T: Scalar>(
    schedule: &Schedule<T>,
    model: &MachineModel,
    plan: &PrefetchPlan,
) -> LatencyMachine<T, CountingMachine<T>> {
    let counting = CountingMachine::new(MachineConfig::unlimited());
    let mut machine = LatencyMachine::new(counting, *model);
    let _ = Engine::execute_planned(&mut machine, schedule, plan);
    machine
}

/// The per-group windows of a replay's clock: a replay settles once before
/// its first group, so group `g`'s window is the clock's window `g + 1`.
pub(crate) fn group_windows(clock: &ModelClock) -> Vec<f64> {
    clock.windows().get(1..).unwrap_or_default().to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, EngineConfig};
    use crate::ir::ScheduleBuilder;
    use symla_matrix::kernels::FlopCount;
    use symla_matrix::Matrix;
    use symla_memory::{LatencyMachine, MatrixId, OocMachine, Region};

    /// Two groups touching disjoint 3x3 blocks of one 6x6 matrix, with
    /// enough flops that a prefetched load hides completely.
    fn two_group_schedule() -> Schedule<f64> {
        let id = MatrixId::synthetic(0);
        let mut b = ScheduleBuilder::new();
        for i in 0..2 {
            b.begin_group();
            let x = b.load(id, Region::rect(3 * i, 0, 3, 3));
            b.flops(FlopCount::new(500, 500));
            b.store(x);
        }
        b.finish()
    }

    #[test]
    fn serial_time_is_priced_per_event() {
        let s = two_group_schedule();
        let model = MachineModel::dram();
        let t = modelled_time(&s, &model, 0, Some(64));
        let per_group = model.load_ns(9) + model.store_ns(9);
        assert_eq!(t.groups, 2);
        assert_eq!(t.io_ns, 2.0 * per_group);
        assert_eq!(t.compute_ns, 2.0 * model.compute_ns(1000));
        assert_eq!(t.hidden_ns, 0.0);
    }

    #[test]
    fn lookahead_hides_prefetched_loads() {
        let s = two_group_schedule();
        let model = MachineModel::dram();
        let serial = modelled_time(&s, &model, 0, Some(64));
        let overlapped = modelled_time(&s, &model, 1, Some(64));
        assert_eq!(serial.io_ns, overlapped.io_ns);
        assert!(overlapped.hidden_ns > 0.0);
        assert!(overlapped.total_ns() < serial.total_ns());
    }

    #[test]
    fn capacity_zero_slack_means_no_overlap() {
        let s = two_group_schedule();
        let model = MachineModel::dram();
        // Capacity 9 fits exactly one 3x3 block: no slack, no prefetch.
        let t = modelled_time(&s, &model, 1, Some(9));
        assert_eq!(t.hidden_ns, 0.0);
        assert_eq!(
            t.total_ns(),
            modelled_time(&s, &model, 0, Some(9)).total_ns()
        );
    }

    /// The core invariant: the model predicts exactly what a
    /// `LatencyMachine` measures during a real replay — bitwise, as `f64`s.
    #[test]
    fn model_matches_latency_machine_bitwise() {
        let s = two_group_schedule();
        let model = MachineModel::nvme();
        for lookahead in 0..3 {
            let mut machine = LatencyMachine::new(OocMachine::<f64>::with_capacity(64), model);
            let id = machine.inner_mut().insert_dense(Matrix::identity(6));
            assert_eq!(id, MatrixId::synthetic(0));
            Engine::execute_with(&mut machine, &s, &EngineConfig::with_lookahead(lookahead))
                .unwrap();
            let measured = machine.time();
            let modelled = modelled_time(&s, &model, lookahead, Some(64));
            assert_eq!(measured.io_ns.to_bits(), modelled.io_ns.to_bits());
            assert_eq!(measured.compute_ns.to_bits(), modelled.compute_ns.to_bits());
            assert_eq!(measured.hidden_ns.to_bits(), modelled.hidden_ns.to_bits());
            assert_eq!(measured.groups, modelled.groups);
        }
    }

    /// The leveled variant of the bitwise invariant: a schedule whose
    /// transfers name deeper tiers is priced with the per-level latency
    /// surcharges, and the prediction still matches a `LatencyMachine`
    /// replay over a `TieredMachine` bit for bit.
    #[test]
    fn leveled_model_matches_tiered_latency_machine_bitwise() {
        use symla_memory::{Level, TieredMachine};
        let id = MatrixId::synthetic(0);
        let mut b = ScheduleBuilder::<f64>::new();
        for i in 0..2 {
            b.begin_group();
            let x = b.load_from(id, Region::rect(3 * i, 0, 3, 3), Level::new(2 + i as u8));
            let y = b.load(id, Region::rect(0, 3, 2, 2));
            b.flops(FlopCount::new(500, 500));
            b.discard(y);
            b.store_to(x, Level::new(2 + i as u8));
        }
        let s = b.finish();
        assert!(s.is_leveled());
        let model = MachineModel::nvme()
            .with_level_extra(Level::new(2), 8.0)
            .with_level_extra(Level::new(3), 4000.0);
        for lookahead in 0..3 {
            let inner = {
                let mut m = OocMachine::<f64>::with_capacity(64);
                let mid = m.insert_dense(Matrix::identity(6));
                assert_eq!(mid, id);
                TieredMachine::new(m).with_tier(None).with_tier(None)
            };
            let mut machine = LatencyMachine::new(inner, model);
            Engine::execute_with(&mut machine, &s, &EngineConfig::with_lookahead(lookahead))
                .unwrap();
            let measured = machine.time();
            let modelled = modelled_time(&s, &model, lookahead, Some(64));
            assert_eq!(measured.io_ns.to_bits(), modelled.io_ns.to_bits());
            assert_eq!(measured.compute_ns.to_bits(), modelled.compute_ns.to_bits());
            assert_eq!(measured.hidden_ns.to_bits(), modelled.hidden_ns.to_bits());
            assert_eq!(measured.groups, modelled.groups);
            // leveled transfers cost strictly more than the two-level read
            // of the same volume under a surcharged model
            let collapsed = {
                let mut c = ScheduleBuilder::<f64>::new();
                for i in 0..2 {
                    c.begin_group();
                    let x = c.load(id, Region::rect(3 * i, 0, 3, 3));
                    let y = c.load(id, Region::rect(0, 3, 2, 2));
                    c.flops(FlopCount::new(500, 500));
                    c.discard(y);
                    c.store(x);
                }
                c.finish()
            };
            let flat = modelled_time(&collapsed, &model, lookahead, Some(64));
            assert!(modelled.io_ns > flat.io_ns);
        }
    }

    /// The observability analogue of the bitwise invariant: a synthesized
    /// trace exports byte-identically to the trace of a real instrumented
    /// replay (same events, same order, bitwise-equal modelled stamps).
    #[test]
    fn synthesized_trace_matches_executed_trace_bytewise() {
        use symla_obs::{InstrumentedMachine, TimeBase, TraceRecorder};
        let s = two_group_schedule();
        let model = MachineModel::nvme();
        for lookahead in 0..3 {
            let recorder = TraceRecorder::new();
            let mut inner = OocMachine::<f64>::with_capacity(64);
            let id = inner.insert_dense(Matrix::identity(6));
            assert_eq!(id, MatrixId::synthetic(0));
            let mut machine = InstrumentedMachine::new(inner, model, recorder.clone(), 0);
            Engine::execute_with(&mut machine, &s, &EngineConfig::with_lookahead(lookahead))
                .unwrap();
            let executed = recorder.finish();
            let synthesized = modelled_run_trace(&s, &model, lookahead, Some(64));
            assert_eq!(
                executed.to_chrome_trace(&[TimeBase::Modelled]),
                synthesized.to_chrome_trace(&[TimeBase::Modelled]),
                "lookahead {lookahead}"
            );
        }
    }

    #[test]
    fn planned_variant_matches_inline_planning() {
        let s = two_group_schedule();
        let model = MachineModel::dram();
        let plan = PrefetchPlan::plan(&s, 1, Some(64));
        let a = modelled_time(&s, &model, 1, Some(64));
        let b = modelled_time_planned(&s, &model, &plan);
        assert_eq!(a.total_ns().to_bits(), b.total_ns().to_bits());
    }
}
