//! The shared memory bus.
//!
//! All cache fills, upgrades, write-backs and uncached reads arbitrate
//! for the single bus; synchronization accesses travel on a separate
//! synchronization bus (see [`crate::machine::Machine::sync_op`]) and
//! never appear here — exactly the property that makes them invisible to
//! the paper's hardware monitor.

/// Kinds of bus transactions visible to the monitor.
///
/// `repr(u8)` with fixed discriminants: the monitor stages kinds as a
/// packed byte column ([`crate::monitor::RecordBlock::kind_codes`]),
/// and the SWAR scan kernel in [`crate::kindscan`] compares those
/// bytes directly against [`BusKind::code`] values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum BusKind {
    /// A cache fill for a read (instruction fetch or data load).
    Read = 0,
    /// A cache fill for a write (read-exclusive).
    ReadEx = 1,
    /// An ownership upgrade for a write hit on a shared line.
    Upgrade = 2,
    /// A write-back of a dirty victim (buffered; does not stall the CPU).
    WriteBack = 3,
    /// An uncached byte read (escape references use these).
    UncachedRead = 4,
}

impl BusKind {
    /// Whether this transaction fills a cache line (and therefore takes
    /// part in miss classification).
    pub fn is_fill(self) -> bool {
        matches!(self, BusKind::Read | BusKind::ReadEx)
    }

    /// The packed byte value of this kind — the discriminant, which is
    /// what a [`crate::monitor::RecordBlock`]'s kind column holds
    /// byte-for-byte.
    pub fn code(self) -> u8 {
        self as u8
    }
}

/// Timing outcome of one bus transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusGrant {
    /// Cycle at which the bus was granted.
    pub start: u64,
    /// Cycles the requesting CPU stalls (0 for buffered write-backs).
    pub stall: u64,
}

/// Occupancy/arbitration model of the shared bus.
#[derive(Debug, Clone)]
pub struct Bus {
    busy_until: u64,
    fill_cycles: u64,
    occupancy_cycles: u64,
    uncached_cycles: u64,
    transactions: u64,
    arbitration_wait: u64,
    invals_sent: u64,
    sharer_churn: u64,
}

impl Bus {
    /// Creates a bus with the given service times.
    pub fn new(fill_cycles: u64, occupancy_cycles: u64, uncached_cycles: u64) -> Self {
        Bus {
            busy_until: 0,
            fill_cycles,
            occupancy_cycles,
            uncached_cycles,
            transactions: 0,
            arbitration_wait: 0,
            invals_sent: 0,
            sharer_churn: 0,
        }
    }

    /// Arbitrates and services one transaction issued at `now`.
    pub fn transact(&mut self, now: u64, kind: BusKind) -> BusGrant {
        let start = now.max(self.busy_until);
        let wait = start - now;
        self.arbitration_wait += wait;
        self.transactions += 1;
        let (occupy, stall) = match kind {
            BusKind::Read | BusKind::ReadEx => (self.occupancy_cycles, wait + self.fill_cycles),
            // An upgrade is a short address-only transaction, but the
            // paper's stall estimate charges every bus access alike.
            BusKind::Upgrade => (self.occupancy_cycles / 2, wait + self.fill_cycles),
            BusKind::WriteBack => (self.occupancy_cycles, 0),
            BusKind::UncachedRead => (self.occupancy_cycles / 2, wait + self.uncached_cycles),
        };
        self.busy_until = start + occupy;
        BusGrant { start, stall }
    }

    /// Total transactions serviced.
    pub fn transactions(&self) -> u64 {
        self.transactions
    }

    /// Total cycles requesters spent waiting for arbitration.
    pub fn arbitration_wait(&self) -> u64 {
        self.arbitration_wait
    }

    /// Notes `n` caches invalidated by a write broadcast. The bus gets
    /// the broadcast for free, but the snoop results still reveal how
    /// many caches lost a copy — the hot-line analyzer reads this.
    pub fn note_invals(&mut self, n: u64) {
        self.invals_sent += n;
    }

    /// Notes a fill that found the line resident in another cache
    /// (sharer churn: the line is migrating between caches).
    pub fn note_shared_fill(&mut self) {
        self.sharer_churn += 1;
    }

    /// Total cache copies lost to write invalidations.
    pub fn invals_sent(&self) -> u64 {
        self.invals_sent
    }

    /// Total fills that found the line in another cache.
    pub fn sharer_churn(&self) -> u64 {
        self.sharer_churn
    }

    /// Serializes the dynamic bus state (occupancy horizon and
    /// counters). Service times come from the configuration and are not
    /// written.
    pub fn save(&self, w: &mut crate::snap::SnapWriter) {
        w.u64(self.busy_until);
        w.u64(self.transactions);
        w.u64(self.arbitration_wait);
        w.u64(self.invals_sent);
        w.u64(self.sharer_churn);
    }

    /// Restores state written by [`Bus::save`] into a bus constructed
    /// with the same service times.
    pub fn load(
        &mut self,
        r: &mut crate::snap::SnapReader<'_>,
    ) -> Result<(), crate::snap::SnapError> {
        self.busy_until = r.u64()?;
        self.transactions = r.u64()?;
        self.arbitration_wait = r.u64()?;
        self.invals_sent = r.u64()?;
        self.sharer_churn = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncontended_fill_stalls_for_fill_latency() {
        let mut bus = Bus::new(35, 24, 20);
        let g = bus.transact(100, BusKind::Read);
        assert_eq!(g.start, 100);
        assert_eq!(g.stall, 35);
    }

    #[test]
    fn back_to_back_transactions_queue() {
        let mut bus = Bus::new(35, 24, 20);
        bus.transact(100, BusKind::Read);
        let g = bus.transact(100, BusKind::Read);
        assert_eq!(g.start, 124, "second request waits for occupancy");
        assert_eq!(g.stall, 24 + 35);
        assert_eq!(bus.arbitration_wait(), 24);
    }

    #[test]
    fn writeback_does_not_stall() {
        let mut bus = Bus::new(35, 24, 20);
        let g = bus.transact(50, BusKind::WriteBack);
        assert_eq!(g.stall, 0);
        // ...but it occupies the bus.
        let g2 = bus.transact(50, BusKind::Read);
        assert_eq!(g2.start, 74);
    }

    #[test]
    fn uncached_read_uses_uncached_latency() {
        let mut bus = Bus::new(35, 24, 20);
        let g = bus.transact(0, BusKind::UncachedRead);
        assert_eq!(g.stall, 20);
    }

    #[test]
    fn fill_kinds() {
        assert!(BusKind::Read.is_fill());
        assert!(BusKind::ReadEx.is_fill());
        assert!(!BusKind::Upgrade.is_fill());
        assert!(!BusKind::WriteBack.is_fill());
        assert!(!BusKind::UncachedRead.is_fill());
    }

    #[test]
    fn transaction_count_accumulates() {
        let mut bus = Bus::new(35, 24, 20);
        for _ in 0..5 {
            bus.transact(0, BusKind::Read);
        }
        assert_eq!(bus.transactions(), 5);
    }
}
