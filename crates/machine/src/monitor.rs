//! The hardware bus monitor.
//!
//! The paper's monitor snoops the memory bus and stores, for every bus
//! transaction, the physical address and the ID of the originating
//! processor, timestamped by a 60 ns counter, into a buffer of over two
//! million records. Synchronization accesses are diverted to a separate
//! bus and are invisible here.
//!
//! This module reproduces that observable: a [`BusRecord`] per
//! transaction, a bounded [`TraceBuffer`], and the dump bookkeeping used
//! by the master-process suspend/dump/restart protocol.

use crate::addr::{CpuId, PAddr};
use crate::bus::BusKind;

/// One monitored bus transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusRecord {
    /// Time of the transaction, in CPU cycles (30 ns at 33 MHz). The real
    /// monitor's counter ticks every 60 ns; [`BusRecord::monitor_time`]
    /// applies that granularity.
    pub time: u64,
    /// Originating CPU.
    pub cpu: CpuId,
    /// Physical address on the bus.
    pub paddr: PAddr,
    /// Transaction kind.
    pub kind: BusKind,
    /// Byte offset of the access within its 16-byte block, for cached
    /// transactions (the bus address itself is the block base). The
    /// real monitor latches the low address bits the cache drops; the
    /// hot-line analyzer uses them to build per-CPU sub-block
    /// footprints. Zero for writebacks; the full offset is already in
    /// `paddr` for uncached reads.
    pub sub: u8,
}

impl BusRecord {
    /// The timestamp as the monitor's 60 ns counter would report it.
    pub fn monitor_time(&self) -> u64 {
        self.time / 2
    }
}

/// Capacity policy of the trace buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BufferMode {
    /// Unbounded recording (used for analysis runs).
    Unbounded,
    /// Bounded, as the real hardware: records beyond the capacity are
    /// lost and counted, which is what the master-process protocol must
    /// prevent.
    Bounded(usize),
}

/// A fixed-capacity structure-of-arrays batch of monitored records:
/// the four record fields live in parallel columns instead of an array
/// of structs. Columnar batches keep each field's bytes contiguous, so
/// batch consumers that touch only some fields (the classifier's kind
/// scan, the chunk channel) stream cache lines of nothing but the data
/// they read, and column loops vectorize.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct RecordBlock {
    /// Transaction times, in CPU cycles.
    pub time: Vec<u64>,
    /// Originating CPUs.
    pub cpu: Vec<CpuId>,
    /// Physical addresses.
    pub paddr: Vec<PAddr>,
    /// Transaction kinds.
    pub kind: Vec<BusKind>,
    /// Sub-block byte offsets ([`BusRecord::sub`]).
    pub sub: Vec<u8>,
}

impl RecordBlock {
    /// An empty block with all columns pre-sized for `cap` records.
    pub fn with_capacity(cap: usize) -> Self {
        RecordBlock {
            time: Vec::with_capacity(cap),
            cpu: Vec::with_capacity(cap),
            paddr: Vec::with_capacity(cap),
            kind: Vec::with_capacity(cap),
            sub: Vec::with_capacity(cap),
        }
    }

    /// Number of records in the block.
    pub fn len(&self) -> usize {
        self.time.len()
    }

    /// Whether the block holds no records.
    pub fn is_empty(&self) -> bool {
        self.time.is_empty()
    }

    /// Clears all columns, keeping their capacity.
    pub fn clear(&mut self) {
        self.time.clear();
        self.cpu.clear();
        self.paddr.clear();
        self.kind.clear();
        self.sub.clear();
    }

    /// Appends one record to the columns.
    pub fn push(&mut self, rec: BusRecord) {
        self.time.push(rec.time);
        self.cpu.push(rec.cpu);
        self.paddr.push(rec.paddr);
        self.kind.push(rec.kind);
        self.sub.push(rec.sub);
    }

    /// Reassembles record `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn get(&self, i: usize) -> BusRecord {
        BusRecord {
            time: self.time[i],
            cpu: self.cpu[i],
            paddr: self.paddr[i],
            kind: self.kind[i],
            sub: self.sub[i],
        }
    }

    /// Iterates the block as reassembled [`BusRecord`]s, in order.
    pub fn iter(&self) -> impl Iterator<Item = BusRecord> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// Appends every record of `other` (columnar copies).
    pub fn append(&mut self, other: &RecordBlock) {
        self.time.extend_from_slice(&other.time);
        self.cpu.extend_from_slice(&other.cpu);
        self.paddr.extend_from_slice(&other.paddr);
        self.kind.extend_from_slice(&other.kind);
        self.sub.extend_from_slice(&other.sub);
    }

    /// The kind column as packed bytes ([`BusKind::code`] values), for
    /// the [`crate::kindscan`] scan kernels.
    pub fn kind_codes(&self) -> &[u8] {
        // Sound: BusKind is a fieldless repr(u8) enum, so a BusKind
        // column is byte-for-byte its discriminant column.
        unsafe { std::slice::from_raw_parts(self.kind.as_ptr() as *const u8, self.kind.len()) }
    }
}

/// A consumer of monitored records, for streaming analysis: while a
/// sink is attached, records bypass the in-memory buffer and are handed
/// to the sink instead, so memory use no longer scales with trace
/// length. This models the paper's master-process protocol, which ships
/// trace segments off the machine instead of holding the whole trace.
/// Records travel in one unit only, the columnar [`RecordBlock`].
pub trait TraceSink: Send {
    /// Receives a structure-of-arrays batch, in trace order.
    fn record_block(&mut self, block: &RecordBlock);
}

/// Records staged in the buffer before being handed to an attached sink
/// in one [`TraceSink::record_block`] call. Batch boundaries carry no
/// meaning, so the value only trades per-record virtual-call overhead
/// against staging memory.
const SINK_BATCH: usize = 1024;

/// The monitor's trace buffer.
pub struct TraceBuffer {
    mode: BufferMode,
    records: Vec<BusRecord>,
    lost: u64,
    total_seen: u64,
    enabled: bool,
    /// The attached sink, if any.
    sink: Option<Box<dyn TraceSink>>,
    /// Records seen while a sink is attached, not yet handed over,
    /// staged as structure-of-arrays columns.
    stage: RecordBlock,
}

impl std::fmt::Debug for TraceBuffer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceBuffer")
            .field("mode", &self.mode)
            .field("records", &self.records.len())
            .field("lost", &self.lost)
            .field("total_seen", &self.total_seen)
            .field("enabled", &self.enabled)
            .field("sink", &self.sink.is_some())
            .finish()
    }
}

impl TraceBuffer {
    /// Creates a buffer with the given capacity policy; recording starts
    /// enabled.
    pub fn new(mode: BufferMode) -> Self {
        TraceBuffer {
            mode,
            records: Vec::new(),
            lost: 0,
            total_seen: 0,
            enabled: true,
            sink: None,
            stage: RecordBlock::default(),
        }
    }

    /// Hands any staged records to the attached sink.
    fn flush_stage(&mut self) {
        if let Some(sink) = &mut self.sink {
            if !self.stage.is_empty() {
                sink.record_block(&self.stage);
                self.stage.clear();
            }
        }
    }

    /// Starts or stops recording (the monitor can be armed/disarmed).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Whether recording is currently enabled.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Attaches a streaming sink, replacing any already attached.
    /// Subsequent records (while enabled) go to the sink instead of the
    /// in-memory buffer, staged into batches. Any records staged for a
    /// previous sink are flushed to it first.
    pub fn set_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.flush_stage();
        self.sink = Some(sink);
    }

    /// Flushes staged records to the sink, then detaches and drops it
    /// (dropping typically flushes whatever the sink itself buffered).
    pub fn clear_sink(&mut self) {
        self.flush_stage();
        self.sink = None;
    }

    /// Whether a streaming sink is attached.
    pub fn has_sink(&self) -> bool {
        self.sink.is_some()
    }

    /// Appends a record, dropping it (and counting the loss) if the
    /// buffer is full. With a sink attached the record is staged and
    /// handed to the sink in batches ([`TraceSink::record_block`])
    /// rather than buffered; [`TraceBuffer::clear_sink`] (or dropping
    /// the buffer) flushes the partial last batch.
    pub fn record(&mut self, rec: BusRecord) {
        if !self.enabled {
            return;
        }
        self.total_seen += 1;
        if self.sink.is_some() {
            self.stage.push(rec);
            if self.stage.len() >= SINK_BATCH {
                self.flush_stage();
            }
            return;
        }
        match self.mode {
            BufferMode::Unbounded => self.records.push(rec),
            BufferMode::Bounded(cap) => {
                if self.records.len() < cap {
                    self.records.push(rec);
                } else {
                    self.lost += 1;
                }
            }
        }
    }

    /// Fraction of the buffer currently occupied (always < 1.0 for
    /// unbounded buffers only when empty capacity is infinite; returns
    /// 0.0 in unbounded mode).
    pub fn fill_fraction(&self) -> f64 {
        match self.mode {
            BufferMode::Unbounded => 0.0,
            BufferMode::Bounded(cap) => {
                if cap == 0 {
                    1.0
                } else {
                    self.records.len() as f64 / cap as f64
                }
            }
        }
    }

    /// Number of buffered records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the buffer holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records lost to overflow (must stay 0 under a correct master
    /// protocol).
    pub fn lost(&self) -> u64 {
        self.lost
    }

    /// Total records offered while enabled (buffered + lost).
    pub fn total_seen(&self) -> u64 {
        self.total_seen
    }

    /// Dumps and clears the buffer, as the master process does when it
    /// ships a trace segment to the remote disk.
    pub fn dump(&mut self) -> Vec<BusRecord> {
        std::mem::take(&mut self.records)
    }

    /// Read-only view of the buffered records.
    pub fn records(&self) -> &[BusRecord] {
        &self.records
    }

    /// Serializes the monitor cursor (enabled flag, loss/total counters,
    /// buffered records). The capacity policy comes from the
    /// constructor and is not written.
    ///
    /// # Panics
    ///
    /// Panics if a streaming sink is attached or records are staged for
    /// one: a sink holds live channels and cannot be frozen. Detach with
    /// [`TraceBuffer::clear_sink`] before snapshotting.
    pub fn save(&self, w: &mut crate::snap::SnapWriter) {
        assert!(
            self.sink.is_none() && self.stage.is_empty(),
            "cannot snapshot a trace buffer with an attached sink"
        );
        w.bool(self.enabled);
        w.u64(self.lost);
        w.u64(self.total_seen);
        w.usize(self.records.len());
        for rec in &self.records {
            w.u64(rec.time);
            w.u8(rec.cpu.0);
            w.u64(rec.paddr.raw());
            w.u8(match rec.kind {
                BusKind::Read => 0,
                BusKind::ReadEx => 1,
                BusKind::Upgrade => 2,
                BusKind::WriteBack => 3,
                BusKind::UncachedRead => 4,
            });
            w.u8(rec.sub);
        }
    }

    /// Restores state written by [`TraceBuffer::save`] into a buffer
    /// constructed with the same capacity policy.
    pub fn load(
        &mut self,
        r: &mut crate::snap::SnapReader<'_>,
    ) -> Result<(), crate::snap::SnapError> {
        use crate::snap::SnapError;
        assert!(
            self.sink.is_none() && self.stage.is_empty(),
            "cannot restore into a trace buffer with an attached sink"
        );
        self.enabled = r.bool()?;
        self.lost = r.u64()?;
        self.total_seen = r.u64()?;
        let n = r.usize()?;
        self.records.clear();
        self.records.reserve(n.min(1 << 20));
        for _ in 0..n {
            let time = r.u64()?;
            let cpu = CpuId(r.u8()?);
            let paddr = PAddr::new(r.u64()?);
            let kind = match r.u8()? {
                0 => BusKind::Read,
                1 => BusKind::ReadEx,
                2 => BusKind::Upgrade,
                3 => BusKind::WriteBack,
                4 => BusKind::UncachedRead,
                _ => return Err(SnapError::Corrupt("bus kind tag")),
            };
            let sub = r.u8()?;
            self.records.push(BusRecord {
                time,
                cpu,
                paddr,
                kind,
                sub,
            });
        }
        Ok(())
    }
}

impl Drop for TraceBuffer {
    fn drop(&mut self) {
        // An attached sink must still see the staged tail.
        self.flush_stage();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(t: u64) -> BusRecord {
        BusRecord {
            time: t,
            cpu: CpuId(0),
            paddr: PAddr::new(t * 16),
            kind: BusKind::Read,
            sub: 0,
        }
    }

    #[test]
    fn unbounded_records_everything() {
        let mut b = TraceBuffer::new(BufferMode::Unbounded);
        for t in 0..100 {
            b.record(rec(t));
        }
        assert_eq!(b.len(), 100);
        assert_eq!(b.lost(), 0);
        assert_eq!(b.fill_fraction(), 0.0);
    }

    #[test]
    fn bounded_overflow_counts_losses() {
        let mut b = TraceBuffer::new(BufferMode::Bounded(10));
        for t in 0..15 {
            b.record(rec(t));
        }
        assert_eq!(b.len(), 10);
        assert_eq!(b.lost(), 5);
        assert_eq!(b.total_seen(), 15);
        assert!((b.fill_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dump_clears_and_returns() {
        let mut b = TraceBuffer::new(BufferMode::Bounded(10));
        for t in 0..10 {
            b.record(rec(t));
        }
        let dumped = b.dump();
        assert_eq!(dumped.len(), 10);
        assert!(b.is_empty());
        // After a dump there is room again.
        b.record(rec(99));
        assert_eq!(b.len(), 1);
        assert_eq!(b.lost(), 0);
    }

    #[test]
    fn disabled_buffer_ignores_records() {
        let mut b = TraceBuffer::new(BufferMode::Unbounded);
        b.set_enabled(false);
        b.record(rec(1));
        assert!(b.is_empty());
        assert_eq!(b.total_seen(), 0);
        b.set_enabled(true);
        b.record(rec(2));
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn monitor_granularity_is_60ns() {
        let r = rec(101);
        assert_eq!(r.monitor_time(), 50);
    }

    /// A sink that forwards every record of each block over a channel.
    struct Tx(std::sync::mpsc::Sender<BusRecord>);

    impl TraceSink for Tx {
        fn record_block(&mut self, block: &RecordBlock) {
            for rec in block.iter() {
                self.0.send(rec).ok();
            }
        }
    }

    #[test]
    fn sink_diverts_records_from_the_buffer() {
        use std::sync::mpsc;

        let (tx, rx) = mpsc::channel();
        let mut b = TraceBuffer::new(BufferMode::Unbounded);
        b.set_sink(Box::new(Tx(tx)));
        assert!(b.has_sink());
        for t in 0..5 {
            b.record(rec(t));
        }
        // The buffer stays empty; records are staged for the sink.
        assert!(b.is_empty());
        assert_eq!(b.total_seen(), 5);
        // Disarming gates the sink too.
        b.set_enabled(false);
        b.record(rec(9));
        assert_eq!(b.total_seen(), 5);
        // Detaching flushes the staged batch: the sink saw everything,
        // in order.
        b.clear_sink();
        assert!(!b.has_sink());
        let got: Vec<BusRecord> = rx.try_iter().collect();
        assert_eq!(got.len(), 5);
        assert!(got.windows(2).all(|w| w[0].time < w[1].time));
    }

    #[test]
    fn set_sink_replaces_previous_sinks() {
        use std::sync::mpsc;

        let (tx1, rx1) = mpsc::channel();
        let (tx2, rx2) = mpsc::channel();
        let mut b = TraceBuffer::new(BufferMode::Unbounded);
        b.set_sink(Box::new(Tx(tx1)));
        b.record(rec(1));
        b.set_sink(Box::new(Tx(tx2)));
        b.record(rec(2));
        b.clear_sink();
        let times =
            |rx: mpsc::Receiver<BusRecord>| rx.try_iter().map(|r| r.time).collect::<Vec<_>>();
        assert_eq!(times(rx1), vec![1]);
        assert_eq!(times(rx2), vec![2]);
    }

    #[test]
    fn sink_sees_full_batches_promptly_and_tail_on_drop() {
        use std::sync::mpsc;

        struct Lens(mpsc::Sender<usize>);
        impl TraceSink for Lens {
            fn record_block(&mut self, block: &RecordBlock) {
                self.0.send(block.len()).ok();
            }
        }

        let (tx, rx) = mpsc::channel();
        let mut b = TraceBuffer::new(BufferMode::Unbounded);
        b.set_sink(Box::new(Lens(tx)));
        for t in 0..(SINK_BATCH as u64 + 3) {
            b.record(rec(t));
        }
        // One full batch was handed over without waiting for detach…
        assert_eq!(rx.try_iter().collect::<Vec<_>>(), vec![SINK_BATCH]);
        // …and dropping the buffer flushes the tail.
        drop(b);
        assert_eq!(rx.try_iter().collect::<Vec<_>>(), vec![3]);
    }
}
