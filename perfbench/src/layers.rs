//! Span timing around the public calls, and a `MachineOps` decorator that
//! times every transfer the engine makes into the machine.

use std::time::Instant;
use symla::matrix::kernels::FlopCount;
use symla::memory::{FastBuf, Level, MachineOps, MatrixId, Region, Result};

/// Durations of the named spans of one job, in seconds, in the order they
/// closed.
#[derive(Debug, Default, Clone)]
pub struct Spans(Vec<(&'static str, f64)>);

impl Spans {
    /// Runs `f` inside the span `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.0.push((name, start.elapsed().as_secs_f64()));
        out
    }

    /// Total seconds of the spans called `name` (0 if none ran).
    pub fn get(&self, name: &str) -> f64 {
        let spans = self.0.iter().filter(|(n, _)| *n == name);
        spans.fold(0.0, |acc, (_, s)| acc + s)
    }

    /// Total seconds of all spans.
    pub fn total(&self) -> f64 {
        self.0.iter().fold(0.0, |acc, (_, s)| acc + s)
    }
}

/// Calls, elements and seconds of one kind of machine call.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub calls: u64,
    pub elems: u64,
    pub secs: f64,
}

impl Tally {
    fn add(&mut self, elems: usize, start: Instant) {
        self.secs += start.elapsed().as_secs_f64();
        self.calls += 1;
        self.elems += elems as u64;
    }
}

/// Time spent inside the machine during one replay, by call kind.
#[derive(Debug, Default, Clone)]
pub struct MachineTimes {
    pub load: Tally,
    pub store: Tally,
    pub alloc: Tally,
    pub discard: Tally,
    /// Flops the engine passed to `record_flops`.
    pub flops: u128,
}

impl MachineTimes {
    /// Seconds spent inside timed machine calls.
    pub fn secs(&self) -> f64 {
        self.load.secs + self.store.secs + self.alloc.secs + self.discard.secs
    }
}

/// Forwards every call to `inner`, timing loads, stores, allocations and
/// discards. The bookkeeping calls (`note_*`, `set_phase`, `record_flops`)
/// are forwarded untimed, so their cost counts as engine time.
pub struct TimedMachine<'a, M> {
    pub inner: &'a mut M,
    pub times: MachineTimes,
}

impl<'a, M> TimedMachine<'a, M> {
    pub fn new(inner: &'a mut M) -> Self {
        Self {
            inner,
            times: MachineTimes::default(),
        }
    }
}

impl<M: MachineOps<f64>> MachineOps<f64> for TimedMachine<'_, M> {
    fn load(&mut self, id: MatrixId, region: Region) -> Result<FastBuf<f64>> {
        let elems = region.len();
        let start = Instant::now();
        let buf = self.inner.load(id, region);
        self.times.load.add(elems, start);
        buf
    }

    fn allocate_zeroed(&mut self, id: MatrixId, region: Region) -> Result<FastBuf<f64>> {
        let elems = region.len();
        let start = Instant::now();
        let buf = self.inner.allocate_zeroed(id, region);
        self.times.alloc.add(elems, start);
        buf
    }

    fn store(&mut self, buf: FastBuf<f64>) -> Result<()> {
        let elems = buf.len();
        let start = Instant::now();
        let out = self.inner.store(buf);
        self.times.store.add(elems, start);
        out
    }

    fn discard(&mut self, buf: FastBuf<f64>) -> Result<()> {
        let elems = buf.len();
        let start = Instant::now();
        let out = self.inner.discard(buf);
        self.times.discard.add(elems, start);
        out
    }

    fn load_from(&mut self, id: MatrixId, region: Region, level: Level) -> Result<FastBuf<f64>> {
        let elems = region.len();
        let start = Instant::now();
        let buf = self.inner.load_from(id, region, level);
        self.times.load.add(elems, start);
        buf
    }

    fn store_to(&mut self, buf: FastBuf<f64>, level: Level) -> Result<()> {
        let elems = buf.len();
        let start = Instant::now();
        let out = self.inner.store_to(buf, level);
        self.times.store.add(elems, start);
        out
    }

    fn record_flops(&mut self, flops: FlopCount) {
        self.times.flops += flops.total();
        self.inner.record_flops(flops);
    }

    fn set_phase(&mut self, phase: &str) {
        self.inner.set_phase(phase);
    }

    fn phase(&self) -> &str {
        self.inner.phase()
    }

    fn capacity(&self) -> Option<usize> {
        self.inner.capacity()
    }

    fn note_prefetch(&mut self, elements: usize) {
        self.inner.note_prefetch(elements);
    }

    fn note_group_boundary(&mut self) {
        self.inner.note_group_boundary();
    }

    fn note_group_start(&mut self, group: usize) {
        self.inner.note_group_start(group);
    }

    fn note_group_end(&mut self, group: usize) {
        self.inner.note_group_end(group);
    }

    fn note_compute(&mut self, kind: &'static str) {
        self.inner.note_compute(kind);
    }

    fn note_prefetch_issue(&mut self, group: usize, step: usize, elements: usize) {
        self.inner.note_prefetch_issue(group, step, elements);
    }

    fn note_prefetch_delivery(&mut self, group: usize, step: usize) {
        self.inner.note_prefetch_delivery(group, step);
    }

    fn note_claim(&mut self, group: usize, stolen: bool) {
        self.inner.note_claim(group, stolen);
    }
}
