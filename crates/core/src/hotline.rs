//! Hot-line attribution: per-block contention tracking and the
//! "most actively shared data" exhibit.
//!
//! The paper's central move is attributing OS misses to the kernel data
//! structures that cause them — which cache lines ping-pong between
//! CPUs, and which structures are *falsely* shared (distinct objects
//! packed into one line). This module is that attribution layer: a
//! [`HotlineTracker`] fed from the analyzer's classified data-miss
//! stream accumulates, per 16-byte block, misses by class, invalidation
//! kills, sharer churn, read/write CPU sets and per-CPU sub-block
//! footprints; [`HotlineTracker::finish`] symbolizes the top offenders
//! through [`Layout::symbol_at`] and decides false vs. true sharing
//! from disjoint footprints.
//!
//! Memory is bounded the same way the classifier's `LossTable` bounds
//! loss records: a lazily-paged dense table of packed one-word entries
//! covers every block ever touched, and a full `BlockStat` is
//! allocated only when a *second* distinct CPU touches the block —
//! private blocks (the overwhelming majority: user frames, private
//! kernel stacks) never cost more than 8 bytes.

use oscar_machine::addr::BLOCK_SIZE;
use oscar_os::{KernelRegion, Layout};

use crate::classify::ArchClass;

/// Miss-class counter indices of `BlockStat::misses` (and
/// [`HotlineRow::misses`]), in label order.
pub const HOTLINE_CLASSES: [&str; 5] = ["cold", "disp_os", "disp_ap", "sharing", "inval"];

fn class_index(class: ArchClass) -> usize {
    match class {
        ArchClass::Cold => 0,
        ArchClass::DispOs { .. } => 1,
        ArchClass::DispAp => 2,
        ArchClass::Sharing => 3,
        ArchClass::Inval => 4,
    }
}

/// Entries per page of the packed table (the `LossTable` paging
/// scheme: dense block numbers, lazily allocated 32 KB pages).
const HOT_PAGE: usize = 1 << 12;

/// Number of activity buckets the measurement window is divided into
/// (drives the Perfetto counter track for top offender lines).
pub const HOTLINE_BUCKETS: usize = 16;

// Packed pre-promotion entry (one u64 per touched block):
//   bit 63        promoted flag; low 32 bits are then the stats index
//   bit 62        any pre-promotion access was a write
//   bits 22..54   saturating access count
//   bits 16..22   first (so far only) CPU
//   bits  0..16   union word-footprint mask
// A touched block always has a nonzero footprint mask, so 0 ⇔ never
// seen and no separate presence bit is needed.
const PROMOTED: u64 = 1 << 63;
const WRITTEN: u64 = 1 << 62;
const COUNT_SHIFT: u32 = 22;
const COUNT_MAX: u64 = (1 << 32) - 1;
const CPU_SHIFT: u32 = 16;
const FOOT_MASK: u64 = 0xffff;

/// Sub-block offset → word-granular footprint mask (16-byte blocks,
/// 4-byte words): one bit set per byte of the touched word.
fn foot_of(sub: u8) -> u16 {
    0xf << (sub & 0xc)
}

/// What kind of access a [`HotlineTracker::record`] call reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HotAccess {
    /// A read fill.
    Read,
    /// A write fill (read-exclusive).
    Write,
    /// An ownership upgrade: a write hit on a line held shared.
    Upgrade,
}

impl HotAccess {
    fn is_write(self) -> bool {
        !matches!(self, HotAccess::Read)
    }
}

/// Full contention statistics for one block shared by ≥ 2 CPUs.
#[derive(Debug, Clone)]
struct BlockStat {
    /// Block number (byte address >> 4).
    block: u64,
    /// Post-promotion misses by class ([`HOTLINE_CLASSES`] order;
    /// upgrades count under `sharing`, as the classifier folds them).
    misses: [u32; 5],
    /// Accesses while the block still had a single owner (folded in at
    /// promotion; the class split is not retained for them).
    single_cpu_misses: u32,
    /// Ownership upgrades (write hits on a shared line).
    upgrades: u32,
    /// Cache copies killed by writes from another CPU.
    invals: u32,
    /// Accesses by a different CPU than the previous access (the line
    /// migrating between caches).
    churn: u32,
    /// CPUs that read the block.
    read_cpus: u64,
    /// CPUs that wrote the block.
    write_cpus: u64,
    /// CPUs presumed to still hold a copy (reset by each write).
    present: u64,
    /// CPU of the most recent access.
    last_cpu: u8,
    /// Per-CPU union of word-footprint masks.
    foot: Box<[u16]>,
    /// Miss activity per window bucket.
    buckets: [u32; HOTLINE_BUCKETS],
}

impl BlockStat {
    fn record(&mut self, cpu: usize, sub: u8, access: HotAccess, class: ArchClass) {
        let bit = 1u64 << cpu;
        if cpu as u8 != self.last_cpu {
            self.churn += 1;
            self.last_cpu = cpu as u8;
        }
        if access.is_write() {
            self.invals += (self.present & !bit).count_ones();
            self.write_cpus |= bit;
            self.present = bit;
        } else {
            self.read_cpus |= bit;
            self.present |= bit;
        }
        if access == HotAccess::Upgrade {
            self.upgrades += 1;
        }
        self.foot[cpu] |= foot_of(sub);
        self.misses[class_index(class)] += 1;
    }

    fn total(&self) -> u64 {
        self.misses.iter().map(|&m| m as u64).sum::<u64>() + self.single_cpu_misses as u64
    }

    fn score(&self) -> u64 {
        self.total() + self.invals as u64 + self.churn as u64
    }

    /// False sharing: at least two CPUs with footprints, at least one
    /// writer, and *no* pair of CPUs whose footprints overlap — the
    /// CPUs contend on the line while touching disjoint bytes.
    fn false_sharing(&self) -> bool {
        if self.write_cpus == 0 {
            return false;
        }
        let mut participants = 0u32;
        let mut union = 0u16;
        let mut bits = 0u32;
        for &f in self.foot.iter() {
            if f != 0 {
                participants += 1;
                union |= f;
                bits += f.count_ones();
            }
        }
        participants >= 2 && bits == union.count_ones()
    }
}

/// One line of the "most actively shared data" table: a symbolized
/// block plus its contention counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HotlineRow {
    /// Physical byte address of the block base.
    pub paddr: u64,
    /// Symbol name resolved through [`Layout::symbol_at`].
    pub symbol: String,
    /// Kernel region of the block.
    pub region: KernelRegion,
    /// Misses by class ([`HOTLINE_CLASSES`] order), after the block
    /// became shared.
    pub misses: [u64; 5],
    /// Accesses while the block still had a single owner.
    pub single_cpu_misses: u64,
    /// Ownership upgrades.
    pub upgrades: u64,
    /// Cache copies killed by writes from another CPU.
    pub invals: u64,
    /// Accesses by a different CPU than the previous one.
    pub churn: u64,
    /// Number of distinct CPUs that touched the block.
    pub sharers: u32,
    /// Bitmask of CPUs that read the block.
    pub read_cpus: u64,
    /// Bitmask of CPUs that wrote the block.
    pub write_cpus: u64,
    /// Whether the contention is false sharing (disjoint footprints).
    pub false_sharing: bool,
    /// Ranking score: total misses + invals + churn.
    pub score: u64,
    /// Miss activity per window bucket (for the timeline track).
    pub buckets: [u64; HOTLINE_BUCKETS],
}

impl HotlineRow {
    /// Total misses (shared-phase plus single-owner phase).
    pub fn total_misses(&self) -> u64 {
        self.misses.iter().sum::<u64>() + self.single_cpu_misses
    }
}

/// The materialized hot-line exhibit: the symbolized top-K contended
/// lines plus coverage totals.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HotlineAnalysis {
    /// Top contended blocks, by descending score (ties by address).
    pub top: Vec<HotlineRow>,
    /// Blocks touched by the data-miss stream.
    pub blocks_seen: u64,
    /// Blocks touched by at least two CPUs.
    pub blocks_shared: u64,
    /// Data misses (and upgrades) the tracker observed.
    pub tracked: u64,
    /// Shared blocks classified as falsely shared.
    pub false_sharing_lines: u64,
}

/// Streaming per-block contention tracker. Fed by the analyzer on the
/// classified data-miss path (inline classification only, so the class
/// verdict is available access-by-access); sequential and
/// deterministic, so hot-line exhibits are byte-identical across
/// `--jobs`.
#[derive(Debug)]
pub struct HotlineTracker {
    start: u64,
    window: u64,
    n_cpus: usize,
    tracked: u64,
    blocks_seen: u64,
    pages: Vec<Option<Box<[u64]>>>,
    stats: Vec<BlockStat>,
}

impl HotlineTracker {
    /// Builds a tracker for `n_cpus` CPUs over the measurement window
    /// `[start, end)`.
    pub fn new(n_cpus: usize, start: u64, end: u64) -> Self {
        HotlineTracker {
            start,
            window: end.saturating_sub(start).max(1),
            n_cpus,
            tracked: 0,
            blocks_seen: 0,
            pages: Vec::new(),
            stats: Vec::new(),
        }
    }

    fn bucket_of(&self, time: u64) -> usize {
        let rel = time.saturating_sub(self.start);
        ((rel.saturating_mul(HOTLINE_BUCKETS as u64) / self.window) as usize)
            .min(HOTLINE_BUCKETS - 1)
    }

    /// Records one classified data fill or upgrade.
    pub fn record(
        &mut self,
        cpu: usize,
        block: u64,
        sub: u8,
        access: HotAccess,
        class: ArchClass,
        time: u64,
    ) {
        let write = access.is_write();
        self.tracked += 1;
        let idx = block as usize;
        let (p, o) = (idx / HOT_PAGE, idx % HOT_PAGE);
        if p >= self.pages.len() {
            self.pages.resize_with(p + 1, || None);
        }
        let bucket = self.bucket_of(time);
        let page = self.pages[p].get_or_insert_with(|| vec![0u64; HOT_PAGE].into_boxed_slice());
        let entry = page[o];
        if entry & PROMOTED != 0 {
            let s = &mut self.stats[(entry & 0xffff_ffff) as usize];
            s.record(cpu, sub, access, class);
            s.buckets[bucket] += 1;
            return;
        }
        if entry == 0 {
            self.blocks_seen += 1;
            page[o] = (foot_of(sub) as u64)
                | ((cpu as u64) << CPU_SHIFT)
                | (1 << COUNT_SHIFT)
                | if write { WRITTEN } else { 0 };
            return;
        }
        let first = ((entry >> CPU_SHIFT) & 0x3f) as usize;
        if first == cpu {
            let count = ((entry >> COUNT_SHIFT) & COUNT_MAX)
                .saturating_add(1)
                .min(COUNT_MAX);
            page[o] = (entry & (WRITTEN | FOOT_MASK | (0x3f << CPU_SHIFT)))
                | (count << COUNT_SHIFT)
                | (foot_of(sub) as u64)
                | if write { WRITTEN } else { 0 };
            return;
        }
        // Second distinct CPU: promote to a full stat record, folding
        // the single-owner phase in.
        let mut foot = vec![0u16; self.n_cpus].into_boxed_slice();
        foot[first] = (entry & FOOT_MASK) as u16;
        let first_bit = 1u64 << first;
        let mut stat = BlockStat {
            block,
            misses: [0; 5],
            single_cpu_misses: ((entry >> COUNT_SHIFT) & COUNT_MAX) as u32,
            upgrades: 0,
            invals: 0,
            churn: 0,
            read_cpus: if entry & WRITTEN == 0 { first_bit } else { 0 },
            write_cpus: if entry & WRITTEN != 0 { first_bit } else { 0 },
            present: first_bit,
            last_cpu: first as u8,
            foot,
            buckets: [0; HOTLINE_BUCKETS],
        };
        stat.record(cpu, sub, access, class);
        stat.buckets[bucket] += 1;
        let si = self.stats.len();
        assert!(si < u32::MAX as usize, "hotline stats overflow");
        self.stats.push(stat);
        page[o] = PROMOTED | si as u64;
    }

    /// Materializes the exhibit: symbolizes every shared block, ranks
    /// by score and keeps the top `top_k`.
    pub fn finish(&self, layout: &Layout, top_k: usize) -> HotlineAnalysis {
        let mut order: Vec<usize> = (0..self.stats.len()).collect();
        order.sort_by_key(|&i| {
            let s = &self.stats[i];
            (std::cmp::Reverse(s.score()), s.block)
        });
        let top = order
            .iter()
            .take(top_k)
            .map(|&i| {
                let s = &self.stats[i];
                let paddr = s.block * BLOCK_SIZE;
                let sym = layout.symbol_at(oscar_machine::addr::PAddr::new(paddr));
                let mut misses = [0u64; 5];
                for (d, &m) in misses.iter_mut().zip(&s.misses) {
                    *d = m as u64;
                }
                let mut buckets = [0u64; HOTLINE_BUCKETS];
                for (d, &b) in buckets.iter_mut().zip(&s.buckets) {
                    *d = b as u64;
                }
                HotlineRow {
                    paddr,
                    symbol: sym.name,
                    region: sym.region,
                    misses,
                    single_cpu_misses: s.single_cpu_misses as u64,
                    upgrades: s.upgrades as u64,
                    invals: s.invals as u64,
                    churn: s.churn as u64,
                    sharers: (s.read_cpus | s.write_cpus).count_ones(),
                    read_cpus: s.read_cpus,
                    write_cpus: s.write_cpus,
                    false_sharing: s.false_sharing(),
                    score: s.score(),
                    buckets,
                }
            })
            .collect();
        HotlineAnalysis {
            top,
            blocks_seen: self.blocks_seen,
            blocks_shared: self.stats.len() as u64,
            tracked: self.tracked,
            false_sharing_lines: self.stats.iter().filter(|s| s.false_sharing()).count() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracker() -> HotlineTracker {
        HotlineTracker::new(4, 1000, 2000)
    }

    fn fill(t: &mut HotlineTracker, cpu: usize, block: u64, sub: u8, write: bool) {
        let access = if write {
            HotAccess::Write
        } else {
            HotAccess::Read
        };
        t.record(cpu, block, sub, access, ArchClass::Sharing, 1500);
    }

    #[test]
    fn private_blocks_stay_packed() {
        let mut t = tracker();
        for i in 0..100 {
            fill(&mut t, 0, i, 0, i % 2 == 0);
        }
        assert_eq!(t.blocks_seen, 100);
        assert_eq!(t.stats.len(), 0, "single-CPU blocks never promote");
    }

    #[test]
    fn promotion_folds_the_single_owner_phase() {
        let mut t = tracker();
        fill(&mut t, 0, 7, 0, false);
        fill(&mut t, 0, 7, 4, false);
        fill(&mut t, 1, 7, 8, true);
        assert_eq!(t.stats.len(), 1);
        let s = &t.stats[0];
        assert_eq!(s.single_cpu_misses, 2);
        assert_eq!(s.read_cpus, 0b01);
        assert_eq!(s.write_cpus, 0b10);
        assert_eq!(s.foot[0], 0x00ff, "words 0 and 1");
        assert_eq!(s.foot[1], 0x0f00, "word 2");
        assert_eq!(s.churn, 1);
        assert_eq!(s.invals, 1, "the write killed CPU 0's copy");
    }

    #[test]
    fn false_sharing_requires_disjoint_footprints_and_a_writer() {
        let mut t = tracker();
        // Block 1: CPUs 0/1 write disjoint words — false sharing.
        fill(&mut t, 0, 1, 0, true);
        fill(&mut t, 1, 1, 8, true);
        // Block 2: CPUs 0/1 touch the same word — true sharing.
        fill(&mut t, 0, 2, 0, true);
        fill(&mut t, 1, 2, 0, true);
        // Block 3: disjoint but read-only — not (false) sharing.
        fill(&mut t, 0, 3, 0, false);
        fill(&mut t, 1, 3, 8, false);
        let fs: Vec<bool> = t.stats.iter().map(|s| s.false_sharing()).collect();
        assert_eq!(fs, vec![true, false, false]);
    }

    #[test]
    fn finish_ranks_by_score_and_symbolizes() {
        let l = Layout::new(32 * 1024 * 1024);
        let mut t = HotlineTracker::new(4, 0, 1000);
        let hot = l.run_queue().raw() / 16;
        let warm = l.proc_entry(oscar_os::ProcSlot(3)).raw() / 16;
        for i in 0..10 {
            t.record(
                i % 2,
                hot,
                0,
                HotAccess::Write,
                ArchClass::Sharing,
                i as u64 * 100,
            );
        }
        t.record(0, warm, 0, HotAccess::Read, ArchClass::Cold, 10);
        t.record(1, warm, 8, HotAccess::Read, ArchClass::Sharing, 900);
        let an = t.finish(&l, 10);
        assert_eq!(an.blocks_shared, 2);
        assert_eq!(an.top.len(), 2);
        assert_eq!(an.top[0].symbol, "runq");
        assert_eq!(an.top[0].region, KernelRegion::RunQueue);
        assert!(an.top[0].score > an.top[1].score);
        // 360-byte proc entries straddle 16-byte blocks, so the block
        // holding proc[3]'s first byte is named from the entry whose
        // extent contains the block *base* (proc[2] here).
        assert!(
            an.top[1].symbol.starts_with("proc["),
            "{}",
            an.top[1].symbol
        );
        assert_eq!(an.tracked, 12);
        // Buckets cover the shared phase only: 10 accesses minus the
        // one that happened before a second CPU arrived.
        assert_eq!(an.top[0].buckets.iter().sum::<u64>(), 9);
        assert_eq!(an.top[0].single_cpu_misses, 1);
    }

    #[test]
    fn top_k_truncates_deterministically() {
        let l = Layout::new(32 * 1024 * 1024);
        let mut t = HotlineTracker::new(2, 0, 100);
        for b in 0..20u64 {
            fill(&mut t, 0, 1000 + b, 0, false);
            fill(&mut t, 1, 1000 + b, 4, false);
        }
        let an = t.finish(&l, 5);
        assert_eq!(an.blocks_shared, 20);
        assert_eq!(an.top.len(), 5);
        // Equal scores tie-break by ascending block address.
        let addrs: Vec<u64> = an.top.iter().map(|r| r.paddr).collect();
        let mut sorted = addrs.clone();
        sorted.sort_unstable();
        assert_eq!(addrs, sorted);
    }
}
