//! The per-CPU translation lookaside buffer.
//!
//! The R3000 TLB is 64-entry and fully associative; entries are tagged
//! with an address-space identifier so a context switch does not flush
//! the TLB. Replacement is FIFO over the non-wired entries, approximating
//! the R3000's random-register convention deterministically.

use crate::addr::{Ppn, Vpn};
use crate::snap::{SnapError, SnapReader, SnapWriter};

/// Number of entries in the R3000 TLB.
pub const TLB_ENTRIES: usize = 64;

/// An address-space identifier (we use the owning process id).
pub type Asid = u32;

/// One TLB entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbEntry {
    /// Virtual page number.
    pub vpn: Vpn,
    /// Physical page number.
    pub ppn: Ppn,
    /// Owning address space.
    pub asid: Asid,
}

/// A 64-entry fully-associative TLB.
///
/// # Examples
///
/// ```
/// use oscar_machine::tlb::Tlb;
/// use oscar_machine::addr::{Vpn, Ppn};
///
/// let mut tlb = Tlb::new();
/// assert_eq!(tlb.lookup(Vpn(5), 1), None);
/// tlb.insert(Vpn(5), Ppn(42), 1);
/// assert_eq!(tlb.lookup(Vpn(5), 1), Some(Ppn(42)));
/// assert_eq!(tlb.lookup(Vpn(5), 2), None, "different address space");
/// ```
#[derive(Debug, Clone)]
pub struct Tlb {
    entries: [Option<TlbEntry>; TLB_ENTRIES],
    next_victim: usize,
    hits: u64,
    misses: u64,
    /// One-entry micro-TLB: a copy of the most recently used entry,
    /// consulted before the 64-entry scan. Replacement is FIFO, so
    /// lookups never affect which entry gets evicted — skipping the scan
    /// on a micro-TLB hit is invisible except for speed. Invalidated (or
    /// retargeted) whenever the mirrored entry could change.
    last: Option<TlbEntry>,
}

impl Tlb {
    /// Creates an empty TLB.
    pub fn new() -> Self {
        Tlb {
            entries: [None; TLB_ENTRIES],
            next_victim: 0,
            hits: 0,
            misses: 0,
            last: None,
        }
    }

    /// Translates `(vpn, asid)`, recording a hit or miss.
    pub fn lookup(&mut self, vpn: Vpn, asid: Asid) -> Option<Ppn> {
        if let Some(e) = &self.last {
            if e.vpn == vpn && e.asid == asid {
                self.hits += 1;
                return Some(e.ppn);
            }
        }
        for e in self.entries.iter().flatten() {
            if e.vpn == vpn && e.asid == asid {
                self.hits += 1;
                self.last = Some(*e);
                return Some(e.ppn);
            }
        }
        self.misses += 1;
        None
    }

    /// Records `n` lookups of `(vpn, asid)` that all hit, as `n` calls
    /// to [`Tlb::lookup`] would: the hit counter grows by `n` and the
    /// micro-TLB ends on the entry. A run of hits on several pages
    /// leaves the micro-TLB on the last page's entry, so a caller
    /// batching such a run passes the last page here. `n == 0` is a
    /// no-op.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the translation is not resident.
    pub fn note_hits(&mut self, n: u64, vpn: Vpn, asid: Asid) {
        if n == 0 {
            return;
        }
        self.hits += n;
        if matches!(&self.last, Some(e) if e.vpn == vpn && e.asid == asid) {
            return;
        }
        self.last = self
            .entries
            .iter()
            .flatten()
            .find(|e| e.vpn == vpn && e.asid == asid)
            .copied();
        debug_assert!(
            self.last.is_some(),
            "note_hits on a non-resident translation"
        );
    }

    /// Translates without touching the statistics (for mirrors and
    /// assertions).
    pub fn peek(&self, vpn: Vpn, asid: Asid) -> Option<Ppn> {
        self.entries
            .iter()
            .flatten()
            .find(|e| e.vpn == vpn && e.asid == asid)
            .map(|e| e.ppn)
    }

    /// Installs a translation, evicting the FIFO victim if full. Returns
    /// the slot index written (the paper's escape sequence reports it).
    pub fn insert(&mut self, vpn: Vpn, ppn: Ppn, asid: Asid) -> usize {
        // The inserted entry is resident afterwards in every case (even
        // when it displaces the micro-TLB's current target), so it can
        // simply become the new micro-TLB entry.
        self.last = Some(TlbEntry { vpn, ppn, asid });
        // Replace an existing mapping for the same (vpn, asid) in place.
        for (i, e) in self.entries.iter_mut().enumerate() {
            if let Some(entry) = e {
                if entry.vpn == vpn && entry.asid == asid {
                    entry.ppn = ppn;
                    return i;
                }
            }
        }
        // Else take the first empty slot, else the FIFO victim.
        let slot = self
            .entries
            .iter()
            .position(|e| e.is_none())
            .unwrap_or_else(|| {
                let v = self.next_victim;
                self.next_victim = (self.next_victim + 1) % TLB_ENTRIES;
                v
            });
        self.entries[slot] = Some(TlbEntry { vpn, ppn, asid });
        slot
    }

    /// Drops every translation belonging to `asid` (process exit).
    /// Returns how many entries were dropped.
    pub fn flush_asid(&mut self, asid: Asid) -> usize {
        if matches!(&self.last, Some(e) if e.asid == asid) {
            self.last = None;
        }
        let mut n = 0;
        for e in &mut self.entries {
            if matches!(e, Some(entry) if entry.asid == asid) {
                *e = None;
                n += 1;
            }
        }
        n
    }

    /// Drops any translation that maps to physical page `ppn` (page
    /// reclaimed). Returns how many entries were dropped.
    pub fn flush_ppn(&mut self, ppn: Ppn) -> usize {
        if matches!(&self.last, Some(e) if e.ppn == ppn) {
            self.last = None;
        }
        let mut n = 0;
        for e in &mut self.entries {
            if matches!(e, Some(entry) if entry.ppn == ppn) {
                *e = None;
                n += 1;
            }
        }
        n
    }

    /// Snapshot of the valid entries with their slot indices (dumped to
    /// the trace when tracing starts, as the paper's system call does).
    pub fn snapshot(&self) -> Vec<(usize, TlbEntry)> {
        self.entries
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.map(|e| (i, e)))
            .collect()
    }

    /// (hits, misses) counters accumulated by [`Tlb::lookup`].
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Number of valid entries.
    pub fn occupancy(&self) -> usize {
        self.entries.iter().filter(|e| e.is_some()).count()
    }

    /// Serializes the full TLB state (entries, FIFO cursor, hit/miss
    /// counters, micro-TLB) into `w`.
    pub fn save(&self, w: &mut SnapWriter) {
        fn entry(w: &mut SnapWriter, e: &Option<TlbEntry>) {
            match e {
                None => w.bool(false),
                Some(e) => {
                    w.bool(true);
                    w.u32(e.vpn.0);
                    w.u32(e.ppn.0);
                    w.u32(e.asid);
                }
            }
        }
        for e in &self.entries {
            entry(w, e);
        }
        w.usize(self.next_victim);
        w.u64(self.hits);
        w.u64(self.misses);
        entry(w, &self.last);
    }

    /// Restores state written by [`Tlb::save`].
    pub fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        fn entry(r: &mut SnapReader<'_>) -> Result<Option<TlbEntry>, SnapError> {
            Ok(if r.bool()? {
                Some(TlbEntry {
                    vpn: Vpn(r.u32()?),
                    ppn: Ppn(r.u32()?),
                    asid: r.u32()?,
                })
            } else {
                None
            })
        }
        for e in &mut self.entries {
            *e = entry(r)?;
        }
        self.next_victim = r.usize()?;
        if self.next_victim >= TLB_ENTRIES {
            return Err(SnapError::Corrupt("tlb victim cursor"));
        }
        self.hits = r.u64()?;
        self.misses = r.u64()?;
        self.last = entry(r)?;
        Ok(())
    }
}

impl Default for Tlb {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_insert_then_hit() {
        let mut t = Tlb::new();
        assert_eq!(t.lookup(Vpn(1), 7), None);
        t.insert(Vpn(1), Ppn(100), 7);
        assert_eq!(t.lookup(Vpn(1), 7), Some(Ppn(100)));
        assert_eq!(t.stats(), (1, 1));
    }

    #[test]
    fn note_hits_matches_repeated_lookups() {
        let mut a = Tlb::new();
        a.insert(Vpn(1), Ppn(10), 3);
        a.insert(Vpn(2), Ppn(20), 3);
        a.insert(Vpn(9), Ppn(90), 4);
        let mut b = a.clone();
        for vpn in [1, 1, 2, 2, 2] {
            assert!(a.lookup(Vpn(vpn), 3).is_some());
        }
        b.note_hits(5, Vpn(2), 3);
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.last, b.last);
        b.note_hits(0, Vpn(9), 4);
        assert_eq!(a.last, b.last, "an empty batch leaves the micro-TLB alone");
    }

    #[test]
    fn asid_isolation() {
        let mut t = Tlb::new();
        t.insert(Vpn(1), Ppn(100), 1);
        t.insert(Vpn(1), Ppn(200), 2);
        assert_eq!(t.lookup(Vpn(1), 1), Some(Ppn(100)));
        assert_eq!(t.lookup(Vpn(1), 2), Some(Ppn(200)));
    }

    #[test]
    fn reinsert_updates_in_place() {
        let mut t = Tlb::new();
        let s1 = t.insert(Vpn(1), Ppn(100), 1);
        let s2 = t.insert(Vpn(1), Ppn(101), 1);
        assert_eq!(s1, s2);
        assert_eq!(t.peek(Vpn(1), 1), Some(Ppn(101)));
        assert_eq!(t.occupancy(), 1);
    }

    #[test]
    fn fifo_eviction_when_full() {
        let mut t = Tlb::new();
        for i in 0..TLB_ENTRIES as u32 {
            t.insert(Vpn(i), Ppn(i), 1);
        }
        assert_eq!(t.occupancy(), TLB_ENTRIES);
        // Next insert evicts slot 0 (vpn 0).
        t.insert(Vpn(999), Ppn(999), 1);
        assert_eq!(t.peek(Vpn(0), 1), None);
        assert_eq!(t.peek(Vpn(999), 1), Some(Ppn(999)));
        // And the one after evicts slot 1.
        t.insert(Vpn(998), Ppn(998), 1);
        assert_eq!(t.peek(Vpn(1), 1), None);
    }

    #[test]
    fn flush_asid_drops_only_that_space() {
        let mut t = Tlb::new();
        t.insert(Vpn(1), Ppn(1), 1);
        t.insert(Vpn(2), Ppn(2), 1);
        t.insert(Vpn(3), Ppn(3), 2);
        assert_eq!(t.flush_asid(1), 2);
        assert_eq!(t.peek(Vpn(3), 2), Some(Ppn(3)));
        assert_eq!(t.occupancy(), 1);
    }

    #[test]
    fn flush_ppn_drops_reverse_mappings() {
        let mut t = Tlb::new();
        t.insert(Vpn(1), Ppn(50), 1);
        t.insert(Vpn(9), Ppn(50), 2);
        t.insert(Vpn(2), Ppn(51), 1);
        assert_eq!(t.flush_ppn(Ppn(50)), 2);
        assert_eq!(t.occupancy(), 1);
    }

    #[test]
    fn micro_tlb_never_outlives_its_entry() {
        let mut t = Tlb::new();
        for i in 0..TLB_ENTRIES as u32 {
            t.insert(Vpn(i), Ppn(i), 1);
        }
        // Pull vpn 0 into the micro-TLB, then evict it (FIFO slot 0).
        assert_eq!(t.lookup(Vpn(0), 1), Some(Ppn(0)));
        t.insert(Vpn(999), Ppn(999), 1);
        assert_eq!(t.lookup(Vpn(0), 1), None, "stale micro-TLB hit");
        // Flushes must also drop a cached translation.
        assert_eq!(t.lookup(Vpn(5), 1), Some(Ppn(5)));
        t.flush_asid(1);
        assert_eq!(t.lookup(Vpn(5), 1), None);
        t.insert(Vpn(7), Ppn(70), 2);
        assert_eq!(t.lookup(Vpn(7), 2), Some(Ppn(70)));
        t.flush_ppn(Ppn(70));
        assert_eq!(t.lookup(Vpn(7), 2), None);
    }

    #[test]
    fn snapshot_lists_valid_entries() {
        let mut t = Tlb::new();
        t.insert(Vpn(4), Ppn(5), 3);
        let snap = t.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].1.vpn, Vpn(4));
    }
}
