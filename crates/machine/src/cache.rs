//! A set-associative cache model with LRU replacement, with a
//! specialized direct-mapped fast path.
//!
//! The model tracks tags only (the simulator never stores data). Each line
//! carries a dirty bit so the same type serves as the write-back second
//! level data cache and (with the bit unused) the write-through first
//! level and instruction caches.
//!
//! Every cache on the measured 4D/340 is direct-mapped (paper §2.1), so
//! [`Cache::new`] selects a specialized representation when
//! `assoc == 1`: one packed word per set (`block << 1 | dirty`, with a
//! sentinel for invalid), no `Option` discriminants and no LRU
//! bookkeeping. The two-way geometries used by the associativity
//! ablation sweeps get a similar packed representation with a one-bit
//! LRU per set. The generic set-associative representation is retained
//! for wider configurations and — via [`Cache::new_generic`] — as a
//! differential-testing oracle: `tests/props.rs` drives random streams
//! through both and asserts identical [`Lookup`]/victim sequences.

use crate::addr::{BlockAddr, Ppn, BLOCK_SHIFT, PAGE_SHIFT};
use crate::config::CacheConfig;
use crate::snap::{SnapError, SnapReader, SnapWriter};

/// Outcome of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// The block was present.
    Hit,
    /// The block was absent; it has been filled. If a valid line was
    /// evicted to make room, the victim is reported along with whether it
    /// was dirty (and therefore needs a write-back).
    Miss {
        /// Evicted block, if the chosen way held a valid line.
        victim: Option<Victim>,
    },
}

/// An evicted cache line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Victim {
    /// The block address that was evicted.
    pub block: BlockAddr,
    /// Whether the line was dirty (write-back required).
    pub dirty: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Line {
    block: BlockAddr,
    dirty: bool,
    /// Monotonic LRU stamp; larger = more recently used.
    stamp: u64,
}

/// Sentinel for an invalid direct-mapped slot. A valid slot packs
/// `block << 1 | dirty`, so the sentinel is unreachable for any block
/// address below `u64::MAX >> 1` (physical addresses top out far below
/// that).
const DM_EMPTY: u64 = u64::MAX;

#[derive(Debug, Clone)]
enum Repr {
    /// Direct-mapped: one packed `block << 1 | dirty` word per set.
    Direct {
        /// `sets` packed slots.
        slots: Vec<u64>,
    },
    /// Two-way: two packed words per set plus a one-bit LRU. Exact LRU
    /// needs only one bit here because every access that touches a line
    /// (hit or fill) makes it the MRU way, leaving the other way LRU;
    /// the bit is consulted only when both ways are valid, and fills
    /// prefer the lower invalid way exactly as the generic path does.
    TwoWay {
        /// `2 * sets` packed slots, way-major within each set.
        slots: Vec<u64>,
        /// One bit per set: the index of the LRU way.
        lru: Vec<u64>,
    },
    /// Generic set-associative with per-line LRU stamps.
    Assoc {
        assoc: usize,
        /// `sets * assoc` slots, set-major.
        lines: Vec<Option<Line>>,
        tick: u64,
    },
}

/// A set-associative, physically indexed, physically tagged cache.
///
/// # Examples
///
/// ```
/// use oscar_machine::cache::{Cache, Lookup};
/// use oscar_machine::config::CacheConfig;
/// use oscar_machine::addr::BlockAddr;
///
/// let mut c = Cache::new(CacheConfig::direct_mapped(1024));
/// assert!(matches!(c.access(BlockAddr(1), false), Lookup::Miss { .. }));
/// assert_eq!(c.access(BlockAddr(1), false), Lookup::Hit);
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    sets: u64,
    /// `sets - 1` when `sets` is a power of two (every geometry the
    /// paper and the sweeps use), letting the per-access set index be a
    /// mask instead of a hardware divide; `u64::MAX` otherwise.
    set_mask: u64,
    repr: Repr,
}

#[inline]
fn mask_for(sets: u64) -> u64 {
    if sets.is_power_of_two() {
        sets - 1
    } else {
        u64::MAX
    }
}

impl Cache {
    /// Creates an empty cache with the given geometry, selecting the
    /// specialized direct-mapped representation when `assoc == 1`.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide evenly (see
    /// [`CacheConfig::num_sets`]).
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.num_sets();
        let repr = match config.assoc {
            1 => Repr::Direct {
                slots: vec![DM_EMPTY; sets as usize],
            },
            2 => Repr::TwoWay {
                slots: vec![DM_EMPTY; 2 * sets as usize],
                lru: vec![0; (sets as usize).div_ceil(64)],
            },
            _ => Self::generic_repr(&config, sets),
        };
        Cache {
            config,
            sets,
            set_mask: mask_for(sets),
            repr,
        }
    }

    /// Creates an empty cache that uses the generic set-associative
    /// representation even when the geometry is direct-mapped. The
    /// differential property tests use this as the oracle for the fast
    /// path; behaviour is identical to [`Cache::new`].
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide evenly.
    pub fn new_generic(config: CacheConfig) -> Self {
        let sets = config.num_sets();
        Cache {
            repr: Self::generic_repr(&config, sets),
            config,
            sets,
            set_mask: mask_for(sets),
        }
    }

    fn generic_repr(config: &CacheConfig, sets: u64) -> Repr {
        let assoc = config.assoc as usize;
        Repr::Assoc {
            assoc,
            lines: vec![None; (sets as usize) * assoc],
            tick: 0,
        }
    }

    /// Whether this cache uses the specialized direct-mapped
    /// representation (for tests and benches).
    pub fn is_direct_fast_path(&self) -> bool {
        matches!(self.repr, Repr::Direct { .. })
    }

    /// Whether this cache uses the specialized packed two-way
    /// representation (for tests and benches).
    pub fn is_two_way_fast_path(&self) -> bool {
        matches!(self.repr, Repr::TwoWay { .. })
    }

    /// The geometry this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Number of sets.
    pub fn num_sets(&self) -> u64 {
        self.sets
    }

    /// The set index a block maps to.
    pub fn set_of(&self, block: BlockAddr) -> u64 {
        debug_assert_eq!(self.config.block_bytes, 1 << BLOCK_SHIFT);
        if self.set_mask != u64::MAX {
            block.0 & self.set_mask
        } else {
            block.0 % self.sets
        }
    }

    /// Whether `block` is currently resident (no state change).
    pub fn probe(&self, block: BlockAddr) -> bool {
        debug_assert!(block.0 < DM_EMPTY >> 1, "block collides with sentinel");
        match &self.repr {
            Repr::Direct { slots } => slots[self.set_of(block) as usize] >> 1 == block.0,
            Repr::TwoWay { slots, .. } => {
                let s = 2 * self.set_of(block) as usize;
                slots[s] >> 1 == block.0 || slots[s + 1] >> 1 == block.0
            }
            Repr::Assoc { assoc, lines, .. } => {
                let set = self.set_of(block);
                let s = set as usize * assoc;
                lines[s..s + assoc]
                    .iter()
                    .flatten()
                    .any(|l| l.block == block)
            }
        }
    }

    /// Whether `block` is resident and dirty (no state change).
    pub fn probe_dirty(&self, block: BlockAddr) -> bool {
        match &self.repr {
            Repr::Direct { slots } => slots[self.set_of(block) as usize] == (block.0 << 1) | 1,
            Repr::TwoWay { slots, .. } => {
                let s = 2 * self.set_of(block) as usize;
                let packed = (block.0 << 1) | 1;
                slots[s] == packed || slots[s + 1] == packed
            }
            Repr::Assoc { assoc, lines, .. } => {
                let set = self.set_of(block);
                let s = set as usize * assoc;
                lines[s..s + assoc]
                    .iter()
                    .flatten()
                    .any(|l| l.block == block && l.dirty)
            }
        }
    }

    /// Accesses `block`, filling it on a miss. `write` marks the line
    /// dirty on both hit and miss.
    pub fn access(&mut self, block: BlockAddr, write: bool) -> Lookup {
        debug_assert!(block.0 < DM_EMPTY >> 1, "block collides with sentinel");
        let si = self.set_of(block);
        match &mut self.repr {
            Repr::Direct { slots } => {
                let slot = &mut slots[si as usize];
                let cur = *slot;
                let packed = block.0 << 1;
                if cur >> 1 == block.0 {
                    // Store only when the dirty bit actually changes:
                    // read-heavy replay streams stay store-free.
                    if write && cur & 1 == 0 {
                        *slot = cur | 1;
                    }
                    return Lookup::Hit;
                }
                let victim = if cur != DM_EMPTY {
                    Some(Victim {
                        block: BlockAddr(cur >> 1),
                        dirty: cur & 1 == 1,
                    })
                } else {
                    None
                };
                *slot = packed | write as u64;
                Lookup::Miss { victim }
            }
            Repr::TwoWay { slots, lru } => {
                let set = si as usize;
                let s = 2 * set;
                let (w, bit) = (set / 64, 1u64 << (set % 64));
                let c0 = slots[s];
                if c0 >> 1 == block.0 {
                    if write && c0 & 1 == 0 {
                        slots[s] = c0 | 1;
                    }
                    lru[w] |= bit; // way 1 is now LRU
                    return Lookup::Hit;
                }
                let c1 = slots[s + 1];
                if c1 >> 1 == block.0 {
                    if write && c1 & 1 == 0 {
                        slots[s + 1] = c1 | 1;
                    }
                    lru[w] &= !bit; // way 0 is now LRU
                    return Lookup::Hit;
                }
                // Miss: lowest invalid way, else the LRU way.
                let way = if c0 == DM_EMPTY {
                    0
                } else if c1 == DM_EMPTY {
                    1
                } else {
                    (lru[w] & bit != 0) as usize
                };
                let cur = slots[s + way];
                let victim = if cur != DM_EMPTY {
                    Some(Victim {
                        block: BlockAddr(cur >> 1),
                        dirty: cur & 1 == 1,
                    })
                } else {
                    None
                };
                slots[s + way] = (block.0 << 1) | write as u64;
                // The filled way is MRU, so the other way is LRU.
                if way == 0 {
                    lru[w] |= bit;
                } else {
                    lru[w] &= !bit;
                }
                Lookup::Miss { victim }
            }
            Repr::Assoc { assoc, lines, tick } => {
                *tick += 1;
                let tick = *tick;
                let set = si;
                let start = set as usize * *assoc;
                let range = start..start + *assoc;

                // Hit?
                for line in lines[range.clone()].iter_mut().flatten() {
                    if line.block == block {
                        line.stamp = tick;
                        line.dirty |= write;
                        return Lookup::Hit;
                    }
                }

                // Miss: pick an invalid slot, else the LRU slot.
                let mut chosen = range.start;
                let mut best = u64::MAX;
                for i in range {
                    match &lines[i] {
                        None => {
                            chosen = i;
                            break;
                        }
                        Some(line) if line.stamp < best => {
                            chosen = i;
                            best = line.stamp;
                        }
                        Some(_) => {}
                    }
                }
                let victim = lines[chosen].map(|l| Victim {
                    block: l.block,
                    dirty: l.dirty,
                });
                lines[chosen] = Some(Line {
                    block,
                    dirty: write,
                    stamp: tick,
                });
                Lookup::Miss { victim }
            }
        }
    }

    /// Fills `block` without reporting (used when mirroring another
    /// level's contents). Returns the victim, if any.
    pub fn fill(&mut self, block: BlockAddr, dirty: bool) -> Option<Victim> {
        match self.access(block, dirty) {
            Lookup::Hit => None,
            Lookup::Miss { victim } => victim,
        }
    }

    /// Invalidates `block` if present; reports whether it was present and
    /// dirty.
    pub fn invalidate(&mut self, block: BlockAddr) -> Option<Victim> {
        let si = self.set_of(block);
        match &mut self.repr {
            Repr::Direct { slots } => {
                let slot = &mut slots[si as usize];
                let cur = *slot;
                if cur >> 1 == block.0 {
                    *slot = DM_EMPTY;
                    return Some(Victim {
                        block,
                        dirty: cur & 1 == 1,
                    });
                }
                None
            }
            // The LRU bit is left alone: it is consulted only when both
            // ways are valid, and the next fill of the emptied way
            // re-derives it (the filled way is MRU).
            Repr::TwoWay { slots, .. } => {
                let s = 2 * si as usize;
                for slot in &mut slots[s..s + 2] {
                    let cur = *slot;
                    if cur >> 1 == block.0 {
                        *slot = DM_EMPTY;
                        return Some(Victim {
                            block,
                            dirty: cur & 1 == 1,
                        });
                    }
                }
                None
            }
            Repr::Assoc { assoc, lines, .. } => {
                let start = si as usize * *assoc;
                for slot in &mut lines[start..start + *assoc] {
                    if let Some(line) = slot {
                        if line.block == block {
                            let v = Victim {
                                block: line.block,
                                dirty: line.dirty,
                            };
                            *slot = None;
                            return Some(v);
                        }
                    }
                }
                None
            }
        }
    }

    /// Clears the dirty bit of `block` if resident (after a snoop
    /// write-back, the line stays valid but clean).
    pub fn clean(&mut self, block: BlockAddr) {
        let si = self.set_of(block);
        match &mut self.repr {
            Repr::Direct { slots } => {
                let slot = &mut slots[si as usize];
                if *slot >> 1 == block.0 {
                    *slot &= !1;
                }
            }
            Repr::TwoWay { slots, .. } => {
                let s = 2 * si as usize;
                for slot in &mut slots[s..s + 2] {
                    if *slot >> 1 == block.0 {
                        *slot &= !1;
                    }
                }
            }
            Repr::Assoc { assoc, lines, .. } => {
                let start = si as usize * *assoc;
                for line in lines[start..start + *assoc].iter_mut().flatten() {
                    if line.block == block {
                        line.dirty = false;
                    }
                }
            }
        }
    }

    /// Invalidates every line belonging to physical page `page`. Returns
    /// the number of lines dropped. Used for I-cache flushes when a code
    /// page is reallocated.
    pub fn invalidate_page(&mut self, page: Ppn) -> usize {
        self.invalidate_page_each(page, |_| {})
    }

    /// [`Cache::invalidate_page`], calling `dropped` with each block it
    /// drops (in no particular order), so a caller that must know which
    /// blocks were resident needs no scan of its own.
    ///
    /// When the set count is a power of two of at least the page's
    /// block count, the page's blocks occupy distinct sets and only
    /// those slots are probed; other geometries scan every slot.
    pub fn invalidate_page_each(&mut self, page: Ppn, mut dropped: impl FnMut(BlockAddr)) -> usize {
        const PAGE_BLOCKS: u64 = 1 << (PAGE_SHIFT - BLOCK_SHIFT);
        let mut count = 0;
        let mut drop = |b: BlockAddr| {
            count += 1;
            dropped(b);
        };
        if self.set_mask != u64::MAX && self.sets >= PAGE_BLOCKS {
            let first = page.base().block().0;
            for b in (first..first + PAGE_BLOCKS).map(BlockAddr) {
                if self.invalidate(b).is_some() {
                    drop(b);
                }
            }
            return count;
        }
        match &mut self.repr {
            Repr::Direct { slots } | Repr::TwoWay { slots, .. } => {
                for slot in slots {
                    if *slot != DM_EMPTY && BlockAddr(*slot >> 1).page() == page {
                        drop(BlockAddr(*slot >> 1));
                        *slot = DM_EMPTY;
                    }
                }
            }
            Repr::Assoc { lines, .. } => {
                for slot in lines {
                    if let Some(line) = slot {
                        if line.block.page() == page {
                            drop(line.block);
                            *slot = None;
                        }
                    }
                }
            }
        }
        count
    }

    /// Invalidates the entire cache, returning the number of valid lines
    /// dropped.
    pub fn invalidate_all(&mut self) -> usize {
        let mut dropped = 0;
        match &mut self.repr {
            Repr::Direct { slots } | Repr::TwoWay { slots, .. } => {
                for slot in slots {
                    if *slot != DM_EMPTY {
                        *slot = DM_EMPTY;
                        dropped += 1;
                    }
                }
            }
            Repr::Assoc { lines, .. } => {
                for slot in lines {
                    if slot.take().is_some() {
                        dropped += 1;
                    }
                }
            }
        }
        dropped
    }

    /// Number of valid lines currently resident.
    pub fn resident_lines(&self) -> usize {
        match &self.repr {
            Repr::Direct { slots } | Repr::TwoWay { slots, .. } => {
                slots.iter().filter(|&&s| s != DM_EMPTY).count()
            }
            Repr::Assoc { lines, .. } => lines.iter().filter(|l| l.is_some()).count(),
        }
    }

    /// Serializes the dynamic contents (tags, dirty bits, LRU state)
    /// into `w`. Geometry is not written: [`Cache::load`] requires a
    /// cache constructed with the same configuration.
    pub fn save(&self, w: &mut SnapWriter) {
        match &self.repr {
            Repr::Direct { slots } => {
                w.u8(0);
                w.u64_slice(slots);
            }
            Repr::TwoWay { slots, lru } => {
                w.u8(1);
                w.u64_slice(slots);
                w.u64_slice(lru);
            }
            Repr::Assoc { lines, tick, .. } => {
                w.u8(2);
                w.u64(*tick);
                w.usize(lines.len());
                for line in lines {
                    match line {
                        None => w.bool(false),
                        Some(l) => {
                            w.bool(true);
                            w.u64(l.block.0);
                            w.bool(l.dirty);
                            w.u64(l.stamp);
                        }
                    }
                }
            }
        }
    }

    /// Restores contents written by [`Cache::save`] into this cache,
    /// which must have been constructed with the same geometry.
    pub fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let tag = r.u8()?;
        match &mut self.repr {
            Repr::Direct { slots } => {
                if tag != 0 {
                    return Err(SnapError::Corrupt("cache repr tag"));
                }
                let new = r.u64_vec()?;
                if new.len() != slots.len() {
                    return Err(SnapError::Corrupt("cache slot count"));
                }
                *slots = new;
            }
            Repr::TwoWay { slots, lru } => {
                if tag != 1 {
                    return Err(SnapError::Corrupt("cache repr tag"));
                }
                let new_slots = r.u64_vec()?;
                let new_lru = r.u64_vec()?;
                if new_slots.len() != slots.len() || new_lru.len() != lru.len() {
                    return Err(SnapError::Corrupt("cache slot count"));
                }
                *slots = new_slots;
                *lru = new_lru;
            }
            Repr::Assoc { lines, tick, .. } => {
                if tag != 2 {
                    return Err(SnapError::Corrupt("cache repr tag"));
                }
                *tick = r.u64()?;
                let n = r.usize()?;
                if n != lines.len() {
                    return Err(SnapError::Corrupt("cache slot count"));
                }
                for line in lines.iter_mut() {
                    *line = if r.bool()? {
                        Some(Line {
                            block: BlockAddr(r.u64()?),
                            dirty: r.bool()?,
                            stamp: r.u64()?,
                        })
                    } else {
                        None
                    };
                }
            }
        }
        Ok(())
    }

    /// Iterates over all resident blocks.
    pub fn iter_resident(&self) -> impl Iterator<Item = BlockAddr> + '_ {
        let (direct, assoc) = match &self.repr {
            Repr::Direct { slots } | Repr::TwoWay { slots, .. } => (Some(slots), None),
            Repr::Assoc { lines, .. } => (None, Some(lines)),
        };
        direct
            .into_iter()
            .flatten()
            .filter(|&&s| s != DM_EMPTY)
            .map(|&s| BlockAddr(s >> 1))
            .chain(assoc.into_iter().flatten().flatten().map(|l| l.block))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::PAddr;

    fn dm_1k() -> Cache {
        Cache::new(CacheConfig::direct_mapped(1024))
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = dm_1k();
        let b = PAddr::new(0x40).block();
        assert_eq!(c.access(b, false), Lookup::Miss { victim: None });
        assert_eq!(c.access(b, false), Lookup::Hit);
        assert!(c.probe(b));
    }

    #[test]
    fn direct_mapped_uses_fast_path_and_generic_opts_out() {
        assert!(dm_1k().is_direct_fast_path());
        assert!(!Cache::new_generic(CacheConfig::direct_mapped(1024)).is_direct_fast_path());
        let two_way = Cache::new(CacheConfig::set_associative(2048, 2));
        assert!(!two_way.is_direct_fast_path());
        assert!(two_way.is_two_way_fast_path());
        assert!(!Cache::new_generic(CacheConfig::set_associative(2048, 2)).is_two_way_fast_path());
        assert!(!Cache::new(CacheConfig::set_associative(4096, 4)).is_two_way_fast_path());
    }

    #[test]
    fn direct_mapped_conflict_evicts() {
        let mut c = dm_1k();
        // 1024-byte DM cache with 16B blocks: 64 sets. Blocks 0 and 64
        // conflict.
        let a = BlockAddr(0);
        let b = BlockAddr(64);
        c.access(a, true);
        match c.access(b, false) {
            Lookup::Miss { victim: Some(v) } => {
                assert_eq!(v.block, a);
                assert!(v.dirty, "a was written, eviction must be dirty");
            }
            other => panic!("expected conflict eviction, got {other:?}"),
        }
        assert!(!c.probe(a));
        assert!(c.probe(b));
    }

    #[test]
    fn two_way_lru_order() {
        let mut c = Cache::new(CacheConfig::set_associative(2048, 2));
        // 2048B 2-way: 64 sets. Blocks 0, 64, 128 share set 0.
        c.access(BlockAddr(0), false);
        c.access(BlockAddr(64), false);
        // Touch 0 so 64 becomes LRU.
        assert_eq!(c.access(BlockAddr(0), false), Lookup::Hit);
        match c.access(BlockAddr(128), false) {
            Lookup::Miss { victim: Some(v) } => assert_eq!(v.block, BlockAddr(64)),
            other => panic!("expected LRU eviction of 64, got {other:?}"),
        }
        assert!(c.probe(BlockAddr(0)));
        assert!(c.probe(BlockAddr(128)));
    }

    #[test]
    fn write_sets_dirty_and_clean_clears_it() {
        let mut c = dm_1k();
        let b = BlockAddr(5);
        c.access(b, false);
        assert!(!c.probe_dirty(b));
        c.access(b, true);
        assert!(c.probe_dirty(b));
        c.clean(b);
        assert!(!c.probe_dirty(b) && c.probe(b));
    }

    #[test]
    fn invalidate_reports_dirty_victim() {
        let mut c = dm_1k();
        let b = BlockAddr(7);
        c.access(b, true);
        let v = c.invalidate(b).expect("was resident");
        assert!(v.dirty);
        assert_eq!(v.block, b);
        assert!(c.invalidate(b).is_none());
    }

    #[test]
    fn invalidate_page_drops_all_page_lines() {
        let mut c = Cache::new(CacheConfig::direct_mapped(64 * 1024));
        let page = Ppn(3);
        let base = page.base().block();
        for i in 0..256 {
            c.access(BlockAddr(base.0 + i), false);
        }
        // One line from another page survives.
        c.access(Ppn(9).base().block(), false);
        assert_eq!(c.invalidate_page(page), 256);
        assert_eq!(c.resident_lines(), 1);
    }

    #[test]
    fn invalidate_all() {
        let mut c = dm_1k();
        for i in 0..10 {
            c.access(BlockAddr(i), false);
        }
        assert_eq!(c.invalidate_all(), 10);
        assert_eq!(c.resident_lines(), 0);
    }

    #[test]
    fn set_mapping_wraps_modulo_sets() {
        let c = dm_1k();
        assert_eq!(c.num_sets(), 64);
        assert_eq!(c.set_of(BlockAddr(65)), 1);
        assert_eq!(c.set_of(BlockAddr(64 * 3 + 7)), 7);
    }

    /// Every public operation agrees between the fast paths and the
    /// generic oracle over a deterministic mixed stream (the broader
    /// randomized check lives in `tests/props.rs`).
    #[test]
    fn fast_path_matches_generic_oracle() {
        differential_stream(CacheConfig::direct_mapped(1024));
        differential_stream(CacheConfig::set_associative(2048, 2));
    }

    fn differential_stream(config: CacheConfig) {
        let mut fast = Cache::new(config);
        let mut oracle = Cache::new_generic(config);
        let mut x = 1u64;
        for i in 0..2000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let b = BlockAddr((x >> 33) % 256);
            match i % 7 {
                0 => assert_eq!(fast.invalidate(b), oracle.invalidate(b), "step {i}"),
                1 => {
                    fast.clean(b);
                    oracle.clean(b);
                }
                2 => assert_eq!(
                    fast.fill(b, x & 1 == 0),
                    oracle.fill(b, x & 1 == 0),
                    "step {i}"
                ),
                3 => assert_eq!(
                    fast.invalidate_page(b.page()),
                    oracle.invalidate_page(b.page()),
                    "step {i}"
                ),
                _ => assert_eq!(
                    fast.access(b, x & 2 == 0),
                    oracle.access(b, x & 2 == 0),
                    "step {i}"
                ),
            }
            assert_eq!(fast.probe(b), oracle.probe(b), "step {i}");
            assert_eq!(fast.probe_dirty(b), oracle.probe_dirty(b), "step {i}");
            assert_eq!(fast.resident_lines(), oracle.resident_lines(), "step {i}");
        }
        let mut f: Vec<BlockAddr> = fast.iter_resident().collect();
        let mut o: Vec<BlockAddr> = oracle.iter_resident().collect();
        f.sort_unstable();
        o.sort_unstable();
        assert_eq!(f, o);
    }
}
