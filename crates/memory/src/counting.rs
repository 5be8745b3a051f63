//! The data-free machine: a replay's accounting without its payload.
//!
//! [`CountingMachine`] keeps the same ledger as
//! [`OocMachine`](crate::OocMachine) — the [`IoStats`] and the optional
//! [`Trace`] — but holds no matrices. It accepts any [`MatrixId`] without
//! an insert, hands out buffers that carry a region and no payload, and
//! reports the capacity of its [`MachineConfig`] to planners without
//! enforcing it. Its [`MachineOps::carries_data`] is `false`, so a replayer
//! skips every kernel on it: an engine replay on it is a dry run (its
//! stats) or a trace synthesis (its trace), and under a
//! [`LatencyMachine`](crate::LatencyMachine) a static pricing.
//!
//! ```
//! use symla_memory::{CountingMachine, MachineConfig, MachineOps, MatrixId, Region};
//!
//! let mut m = CountingMachine::<f64>::new(MachineConfig::unlimited());
//! // No insert: any id is accepted.
//! let buf = m.load(MatrixId::synthetic(3), Region::rect(0, 0, 4, 4)).unwrap();
//! assert_eq!(buf.len(), 16);
//! assert!(buf.as_slice().is_empty());
//! m.store(buf).unwrap();
//! assert_eq!(m.stats().volume.loads, 16);
//! assert_eq!(m.stats().volume.stores, 16);
//! ```

use crate::error::Result;
use crate::level::Level;
use crate::machine::{FastBuf, Ledger, MachineConfig, MachineOps, MatrixId};
use crate::region::Region;
use crate::stats::IoStats;
use crate::trace::Trace;
use std::marker::PhantomData;
use symla_matrix::kernels::FlopCount;
use symla_matrix::Scalar;

/// A [`MachineOps`] machine that counts transfers but moves no data.
#[derive(Debug)]
pub struct CountingMachine<T: Scalar> {
    ledger: Ledger,
    _marker: PhantomData<fn() -> T>,
}

impl<T: Scalar> CountingMachine<T> {
    /// A counting machine; `config.record_trace` turns on the trace, and
    /// `config.capacity` is reported but never enforced.
    pub fn new(config: MachineConfig) -> Self {
        Self {
            ledger: Ledger::new(config),
            _marker: PhantomData,
        }
    }

    /// The accumulated statistics.
    pub fn stats(&self) -> &IoStats {
        self.ledger.stats()
    }

    /// Consumes the machine into its statistics and trace.
    pub fn into_accounting(self) -> (IoStats, Option<Trace>) {
        self.ledger.into_accounting()
    }

    /// A lease of `region` with no payload.
    fn buffer(&self, id: MatrixId, region: Region) -> FastBuf<T> {
        FastBuf::from_parts(Vec::new(), id, region, self.ledger.tag())
    }
}

impl<T: Scalar> MachineOps<T> for CountingMachine<T> {
    fn load(&mut self, id: MatrixId, region: Region) -> Result<FastBuf<T>> {
        self.load_from(id, region, Level::default())
    }

    fn allocate_zeroed(&mut self, id: MatrixId, region: Region) -> Result<FastBuf<T>> {
        self.ledger.admit_alloc(id, region.len());
        Ok(self.buffer(id, region))
    }

    fn store(&mut self, buf: FastBuf<T>) -> Result<()> {
        self.store_to(buf, Level::default())
    }

    fn discard(&mut self, buf: FastBuf<T>) -> Result<()> {
        self.ledger.check_owned(buf.machine_tag())?;
        self.ledger.release(buf.matrix_id().raw(), buf.len());
        Ok(())
    }

    fn load_from(&mut self, id: MatrixId, region: Region, level: Level) -> Result<FastBuf<T>> {
        self.ledger.admit_load(id, &region);
        self.ledger.note_level_load(level, region.len());
        Ok(self.buffer(id, region))
    }

    fn store_to(&mut self, buf: FastBuf<T>, level: Level) -> Result<()> {
        self.ledger.check_owned(buf.machine_tag())?;
        self.ledger.release(buf.matrix_id().raw(), buf.len());
        self.ledger.note_store(buf.matrix_id(), buf.region());
        self.ledger.note_level_store(level, buf.len());
        Ok(())
    }

    fn record_flops(&mut self, flops: FlopCount) {
        self.ledger.record_flops(flops);
    }

    fn set_phase(&mut self, phase: &str) {
        self.ledger.set_phase(phase);
    }

    fn phase(&self) -> &str {
        self.ledger.phase()
    }

    fn capacity(&self) -> Option<usize> {
        self.ledger.capacity()
    }

    fn note_prefetch(&mut self, elements: usize) {
        self.ledger.note_prefetch(elements);
    }

    fn carries_data(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_allocate_no_payload_and_count_at_the_region_length() {
        let mut m = CountingMachine::<f64>::new(MachineConfig::with_capacity(4).record_trace(true));
        let id = MatrixId::synthetic(9);
        // Over the capacity on purpose: it is reported, not enforced.
        let tile = m.load(id, Region::rect(0, 0, 3, 3)).unwrap();
        let pairs = m
            .allocate_zeroed(
                id,
                Region::SymPairs {
                    rows: vec![0, 2, 5],
                },
            )
            .unwrap();
        for buf in [&tile, &pairs] {
            assert!(buf.as_slice().is_empty(), "no payload");
            assert_eq!(buf.len(), buf.region().len());
        }
        assert_eq!(m.stats().peak_resident, 12);
        assert_eq!(MachineOps::<f64>::capacity(&m), Some(4));
        assert!(!MachineOps::<f64>::carries_data(&m));

        m.store_to(pairs, Level::new(2)).unwrap();
        m.store(tile).unwrap();
        let (stats, trace) = m.into_accounting();
        assert_eq!(stats.volume.loads, 9);
        assert_eq!(stats.volume.stores, 12);
        assert_eq!(stats.level(2).stores, 3);
        assert_eq!(trace.unwrap().len(), 3);
    }

    #[test]
    fn foreign_buffers_are_rejected() {
        let mut a = CountingMachine::<f64>::new(MachineConfig::unlimited());
        let mut b = CountingMachine::<f64>::new(MachineConfig::unlimited());
        let buf = a
            .load(MatrixId::synthetic(0), Region::rect(0, 0, 1, 1))
            .unwrap();
        assert!(b.discard(buf).is_err());
    }
}
