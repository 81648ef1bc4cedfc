//! Trace-driven cache re-simulation: Figure 6 (I-cache size and
//! associativity) and the Section 4.2.2 D-cache sweep.
//!
//! The paper: *"In our simulations, we use the references that miss in
//! the caches of the real machine to simulate larger caches."* We do the
//! same: the instruction-miss stream captured by the analyzer (both OS
//! and application fetches, as the paper notes) is replayed into caches
//! of different sizes and associativities, counting how many OS misses
//! remain — including the floor imposed by I-cache invalidations
//! (*Inval* misses), which is what saturates Pmake and Multpgm at
//! 256 KB in the paper. The data-miss stream is replayed the same way,
//! with every write invalidating the other CPUs' copies, so the
//! *sharing* floor survives at every size.
//!
//! # One pass over nested direct-mapped caches
//!
//! [`ISweep`] and [`DSweep`] simulate all the direct-mapped points of a
//! sweep at once: the five I-cache sizes (64 KB–1 MB) and the five
//! D-cache sizes (256 KB–4 MB) of each CPU form one stack of levels.
//! This is the forest simulation of Hill & Smith ("Evaluating
//! Associativity in CPU Caches", IEEE TC 1989), after the stack
//! algorithms of Mattson et al. (IBM Systems Journal, 1970).
//!
//! The argument is inclusion. With bit-selection indexing, a
//! direct-mapped set of a cache with `S` sets holds the most recently
//! referenced block of its class `block mod S`, unless an invalidation
//! has since removed that block. Every class of a cache with `2S` sets
//! (or any larger power of two) lies inside one class of the smaller
//! cache. So the block a small cache holds is also the latest of its
//! class in every larger cache, and only an invalidation of that very
//! block could have emptied the larger set, which would have emptied
//! the small one too. Invalidations remove a block from every size at
//! once, so inclusion survives them. Hence:
//!
//! - **Reference.** Probe the levels smallest first and stop at the
//!   first hit: every larger level hits too. Each smaller level misses
//!   and installs the block.
//! - **Invalidation** (a page flush, or another CPU's write). The levels
//!   holding the block are a suffix, so probe the largest level first
//!   and stop at the first level that does not hold it. For a write,
//!   that first probe is the holder check: a CPU whose largest level
//!   misses holds the block nowhere.
//! - **Floor marks.** A block an invalidation dropped from a level is
//!   marked there until the CPU next references it; that next miss is
//!   an *Inval* (or sharing) miss at the level. Marks are set on the
//!   levels that held the block, a suffix, and any reference clears
//!   them, so a CPU's marks for a block are always a suffix of levels
//!   too. A block that hits somewhere is held by the largest level and
//!   so carries no mark: only references that miss everywhere consult
//!   the marks, and the largest level's mark says whether there are any.
//!
//! Each reference is tallied once, by the first level that hit and (for
//! a miss everywhere) the first level that was marked; every level's
//! miss and floor counts are prefix sums of those tallies.
//!
//! # The two-way points
//!
//! LRU caches with set refinement have inclusion too, but an
//! invalidation leaves an empty way that the next fill takes ahead of
//! the LRU way, and inclusion under that rule is not proven here. Nor
//! would it save much: a hit must still refresh the LRU order of every
//! larger cache, so a reference cannot stop at the first hit. The four
//! two-way Figure 6 points therefore keep their own per-CPU LRU state
//! per geometry, probed for every item in the same item loop.
//!
//! [`IResimBank`] and [`DResimBank`] replay one geometry cache by cache
//! on the generic [`Cache`] model. They back the single-geometry
//! [`resim`] and [`resim_dcache`] and are the oracle the one-pass
//! sweeps are tested against (`tests/resim_differential.rs`).

use oscar_machine::addr::{BlockAddr, Ppn, BLOCK_SHIFT, PAGE_SHIFT};
use oscar_machine::cache::{Cache, Lookup};
use oscar_machine::config::CacheConfig;

use crate::analyze::{DStreamItem, IStreamItem};
use crate::classify::BlockSet;

/// An invalid slot of a [`Nest`] level. Slots hold tags (`block >>
/// set bits`), and a 32-bit block index shifted by at least one set bit
/// never reaches it.
const EMPTY: u32 = u32::MAX;

/// Per-CPU stacks of direct-mapped caches of nested power-of-two sizes,
/// simulated in one pass (see the module docs).
///
/// The slots of one set of one level sit side by side for every CPU, so
/// the holder check of a write reads the other CPUs' largest-level
/// slots from one cache line (a few, past 16 CPUs) instead of one line
/// per CPU.
#[derive(Debug)]
struct Nest {
    /// `log2` of each level's set count, smallest level first.
    bits: Vec<u32>,
    /// Where each level's slots start in `slots`.
    base: Vec<usize>,
    /// CPUs per set.
    cpus: usize,
    /// Tag slots, level by level, set by set, CPU by CPU.
    slots: Vec<u32>,
    /// Per CPU, per level: blocks an invalidation dropped from the
    /// level that the CPU has not referenced since.
    marks: Vec<Vec<BlockSet>>,
}

impl Nest {
    /// One stack per CPU of the given direct-mapped geometries.
    ///
    /// # Panics
    ///
    /// Panics unless every geometry is direct-mapped with a power-of-two
    /// set count larger than the previous one's (the nesting the
    /// one-pass argument needs).
    fn new(cpus: usize, configs: &[CacheConfig]) -> Self {
        let mut bits: Vec<u32> = Vec::with_capacity(configs.len());
        let mut base = Vec::with_capacity(configs.len());
        let mut len = 0;
        for c in configs {
            let sets = c.num_sets();
            assert!(
                c.assoc == 1 && sets.is_power_of_two() && sets > 1,
                "nested levels must be direct-mapped with 2^k sets: {c:?}"
            );
            let b = sets.trailing_zeros();
            assert!(bits.last().is_none_or(|&prev| prev < b), "levels must grow");
            bits.push(b);
            base.push(len);
            len += sets as usize * cpus;
        }
        Nest {
            slots: vec![EMPTY; len],
            marks: (0..cpus)
                .map(|_| (0..configs.len()).map(|_| BlockSet::default()).collect())
                .collect(),
            bits,
            base,
            cpus,
        }
    }

    fn levels(&self) -> usize {
        self.bits.len()
    }

    /// Index of `cpu`'s slot for `block` at `level`, and the tag it
    /// holds when the block is resident.
    #[inline]
    fn slot(&self, level: usize, cpu: usize, block: u32) -> (usize, u32) {
        let bits = self.bits[level];
        let set = (block & ((1 << bits) - 1)) as usize;
        (self.base[level] + set * self.cpus + cpu, block >> bits)
    }

    /// References `block` on `cpu`, installing it in every level that
    /// misses. Returns the first level that hit (every larger level
    /// hits too), or [`Nest::levels`] when all missed.
    #[inline]
    fn reference(&mut self, cpu: usize, block: u32) -> usize {
        for k in 0..self.bits.len() {
            let (i, tag) = self.slot(k, cpu, block);
            if self.slots[i] == tag {
                return k;
            }
            self.slots[i] = tag;
        }
        self.bits.len()
    }

    /// Clears `cpu`'s marks for `block` after a reference that missed
    /// at every level. Returns the first marked level, or
    /// [`Nest::levels`] when none was.
    fn take_marks(&mut self, cpu: usize, block: u32) -> usize {
        let marks = &mut self.marks[cpu];
        let mut from = marks.len();
        while from > 0 && marks[from - 1].clear(u64::from(block)) {
            from -= 1;
        }
        from
    }

    /// Drops `block` from every level of `cpu` that holds it, largest
    /// first, and marks those levels.
    fn invalidate(&mut self, cpu: usize, block: u32) {
        for k in (0..self.bits.len()).rev() {
            let (i, tag) = self.slot(k, cpu, block);
            if self.slots[i] != tag {
                return;
            }
            self.slots[i] = EMPTY;
            self.marks[cpu][k].set(u64::from(block));
        }
    }

    /// Drops `block` from every CPU but `writer`. The holder check reads
    /// the CPUs' largest-level slots for the block side by side; only a
    /// CPU whose largest level holds it holds it anywhere.
    fn invalidate_others(&mut self, writer: usize, block: u32) {
        let (row, tag) = self.slot(self.bits.len() - 1, 0, block);
        for cpu in 0..self.cpus {
            if cpu != writer && self.slots[row + cpu] == tag {
                self.invalidate(cpu, block);
            }
        }
    }
}

/// One CPU's reference outcomes on a [`Nest`], from which every level's
/// counts follow by prefix sums.
#[derive(Debug, Clone)]
struct Tally {
    /// References by issuer (`[os, app]`) and first level hit; the last
    /// bucket counts references that missed everywhere.
    first_hit: [Vec<u64>; 2],
    /// OS references that missed everywhere, by first marked level; the
    /// last bucket counts unmarked ones.
    marked_from: Vec<u64>,
}

/// [`Tally::first_hit`] index of OS references.
const OS: usize = 0;
/// [`Tally::first_hit`] index of application references.
const APP: usize = 1;

impl Tally {
    fn new(levels: usize) -> Self {
        Tally {
            first_hit: [vec![0; levels + 1], vec![0; levels + 1]],
            marked_from: vec![0; levels + 1],
        }
    }

    /// Tallies one reference by `who` whose first hit was level `hit`
    /// (`marked` is its first marked level, meaningful only when it
    /// missed everywhere).
    #[inline]
    fn note(&mut self, who: usize, hit: usize, marked: impl FnOnce() -> usize) {
        self.first_hit[who][hit] += 1;
        if hit + 1 == self.first_hit[who].len() {
            let from = marked();
            if who == OS {
                self.marked_from[from] += 1;
            }
        }
    }

    /// `who`'s misses at `level`: references whose first hit lies above.
    fn misses(&self, who: usize, level: usize) -> u64 {
        self.first_hit[who][level + 1..].iter().sum()
    }

    /// OS misses at `level` on a marked block (the floor).
    fn floor(&self, level: usize) -> u64 {
        self.marked_from[..=level].iter().sum()
    }
}

/// The two-way LRU points of Figure 6: per-CPU caches of each geometry,
/// all probed for every item (see the module docs for why there is no
/// early stop).
#[derive(Debug)]
struct TwoWay {
    configs: Vec<CacheConfig>,
    /// `log2` of each geometry's set count.
    bits: Vec<u32>,
    /// Where each geometry's sets start in `sets`.
    base: Vec<usize>,
    /// CPUs per set.
    cpus: usize,
    /// One word per set per CPU, geometry by geometry, set by set: the
    /// most recently used way's tag in the low half, the other way's in
    /// the high half. An [`EMPTY`] low half implies an empty high half.
    /// Only the order of use decides the victim (an empty way first,
    /// else the least recently used), so this holds exactly what the
    /// packed two-way [`Cache`] holds.
    sets: Vec<u64>,
    /// Per CPU, per geometry: blocks an invalidation dropped that the
    /// CPU has not missed on since.
    marks: Vec<Vec<BlockSet>>,
    /// Per CPU, per geometry: OS misses, OS *Inval* misses, application
    /// misses.
    counts: Vec<Vec<[u64; 3]>>,
}

impl TwoWay {
    fn new(cpus: usize, configs: Vec<CacheConfig>) -> Self {
        let mut bits = Vec::with_capacity(configs.len());
        let mut base = Vec::with_capacity(configs.len());
        let mut len = 0;
        for c in &configs {
            let sets = c.num_sets();
            assert!(
                c.assoc == 2 && sets.is_power_of_two() && sets > 1,
                "two-way geometries need 2^k sets: {c:?}"
            );
            bits.push(sets.trailing_zeros());
            base.push(len);
            len += sets as usize * cpus;
        }
        TwoWay {
            sets: vec![u64::MAX; len],
            marks: (0..cpus)
                .map(|_| configs.iter().map(|_| BlockSet::default()).collect())
                .collect(),
            counts: vec![vec![[0; 3]; configs.len()]; cpus],
            configs,
            bits,
            base,
            cpus,
        }
    }

    /// Index of `cpu`'s set for `block` in geometry `g`, and the block's
    /// tag there.
    #[inline]
    fn set(&self, g: usize, cpu: usize, block: u32) -> (usize, u32) {
        let bits = self.bits[g];
        let set = (block & ((1 << bits) - 1)) as usize;
        (self.base[g] + set * self.cpus + cpu, block >> bits)
    }

    /// Fetches `block` on `cpu` in every geometry.
    fn fetch(&mut self, cpu: usize, block: u32, os: bool) {
        for g in 0..self.configs.len() {
            let (i, tag) = self.set(g, cpu, block);
            let w = self.sets[i];
            let (mru, lru) = (w as u32, (w >> 32) as u32);
            if mru == tag {
                continue;
            }
            if lru == tag {
                self.sets[i] = u64::from(mru) << 32 | u64::from(tag);
                continue;
            }
            // Miss: the old MRU way becomes LRU, evicting the old LRU
            // way (or filling the empty one).
            self.sets[i] = u64::from(mru) << 32 | u64::from(tag);
            let marked = self.marks[cpu][g].clear(u64::from(block));
            let c = &mut self.counts[cpu][g];
            if os {
                c[0] += 1;
                c[1] += u64::from(marked);
            } else {
                c[2] += 1;
            }
        }
    }

    /// Drops `block` from every geometry of `cpu` that holds it, marking
    /// those.
    fn invalidate(&mut self, cpu: usize, block: u32) {
        for g in 0..self.configs.len() {
            let (i, tag) = self.set(g, cpu, block);
            let w = self.sets[i];
            let (mru, lru) = (w as u32, (w >> 32) as u32);
            let kept = if mru == tag {
                lru
            } else if lru == tag {
                mru
            } else {
                continue;
            };
            self.sets[i] = u64::from(EMPTY) << 32 | u64::from(kept);
            self.marks[cpu][g].set(u64::from(block));
        }
    }

    fn points(&self) -> impl Iterator<Item = ResimPoint> + '_ {
        self.configs.iter().enumerate().map(|(g, c)| {
            let sum = |k: usize| self.counts.iter().map(|cpu| cpu[g][k]).sum();
            ResimPoint {
                size_bytes: c.size_bytes,
                assoc: c.assoc,
                os_misses: sum(0),
                os_inval_misses: sum(1),
                app_misses: sum(2),
            }
        })
    }

    fn per_cpu(&self) -> impl Iterator<Item = Vec<(u64, u64)>> + '_ {
        (0..self.configs.len()).map(|g| self.counts.iter().map(|c| (c[g][0], c[g][1])).collect())
    }
}

/// The Figure 6 sweep, fed item by item: the direct-mapped points share
/// one pass down a per-CPU stack of levels per item, and the two-way
/// points are replayed in the same item loop (see the module docs). [`ISweep::points`] lists
/// the points in [`figure6_configs`] order.
#[derive(Debug)]
pub struct ISweep {
    direct: Vec<CacheConfig>,
    nest: Nest,
    tally: Vec<Tally>,
    two_way: TwoWay,
}

impl ISweep {
    /// The sweep over `num_cpus` per-CPU caches.
    pub fn new(num_cpus: usize) -> Self {
        let (direct, two_way): (Vec<_>, Vec<_>) =
            figure6_configs().into_iter().partition(|c| c.assoc == 1);
        let nest = Nest::new(num_cpus, &direct);
        ISweep {
            tally: vec![Tally::new(nest.levels()); num_cpus],
            nest,
            direct,
            two_way: TwoWay::new(num_cpus, two_way),
        }
    }

    /// Replays a run of stream items, in trace order.
    pub fn push_items(&mut self, items: &[IStreamItem]) {
        const PAGE_BLOCKS: u64 = 1 << (PAGE_SHIFT - BLOCK_SHIFT);
        let nest = &mut self.nest;
        for item in items {
            match *item {
                IStreamItem::Fetch { cpu, block, os } => {
                    let c = usize::from(cpu);
                    let hit = nest.reference(c, block);
                    let who = if os { OS } else { APP };
                    self.tally[c].note(who, hit, || nest.take_marks(c, block));
                    self.two_way.fetch(c, block, os);
                }
                IStreamItem::Flush { ppn } => {
                    // A page past the 32-bit block range holds no
                    // fetched block, so there is nothing to drop.
                    let Ok(first) = u32::try_from(u64::from(ppn) * PAGE_BLOCKS) else {
                        continue;
                    };
                    for c in 0..self.tally.len() {
                        for b in first..first + PAGE_BLOCKS as u32 {
                            nest.invalidate(c, b);
                            self.two_way.invalidate(c, b);
                        }
                    }
                }
            }
        }
    }

    /// The accumulated points, in [`figure6_configs`] order.
    pub fn points(&self) -> Vec<ResimPoint> {
        let sum = |f: &dyn Fn(&Tally) -> u64| self.tally.iter().map(f).sum::<u64>();
        self.direct
            .iter()
            .enumerate()
            .map(|(l, c)| ResimPoint {
                size_bytes: c.size_bytes,
                assoc: c.assoc,
                os_misses: sum(&|t| t.misses(OS, l)),
                os_inval_misses: sum(&|t| t.floor(l)),
                app_misses: sum(&|t| t.misses(APP, l)),
            })
            .chain(self.two_way.points())
            .collect()
    }

    /// Per point, per CPU `(os_misses, os_inval_misses)`; each point's
    /// sums equal its [`ResimPoint`] totals.
    pub fn per_cpu(&self) -> Vec<Vec<(u64, u64)>> {
        (0..self.direct.len())
            .map(|l| {
                self.tally
                    .iter()
                    .map(|t| (t.misses(OS, l), t.floor(l)))
                    .collect()
            })
            .chain(self.two_way.per_cpu())
            .collect()
    }
}

/// The Section 4.2.2 D-cache sweep, fed item by item: every point is
/// direct-mapped, so one pass down a per-CPU stack of levels per item
/// serves them all.
#[derive(Debug)]
pub struct DSweep {
    configs: Vec<CacheConfig>,
    nest: Nest,
    tally: Vec<Tally>,
}

impl DSweep {
    /// The sweep over `num_cpus` per-CPU caches.
    pub fn new(num_cpus: usize) -> Self {
        let configs = dcache_configs();
        let nest = Nest::new(num_cpus, &configs);
        DSweep {
            tally: vec![Tally::new(nest.levels()); num_cpus],
            nest,
            configs,
        }
    }

    /// Replays a run of stream items, in trace order, invalidating the
    /// other CPUs' copies on every write as the snooping protocol does.
    pub fn push_items(&mut self, items: &[DStreamItem]) {
        let nest = &mut self.nest;
        for item in items {
            let (c, block) = (usize::from(item.cpu), item.block);
            let hit = nest.reference(c, block);
            let who = if item.os { OS } else { APP };
            self.tally[c].note(who, hit, || nest.take_marks(c, block));
            if item.write {
                nest.invalidate_others(c, block);
            }
        }
    }

    /// The accumulated points, in [`dcache_configs`] order.
    pub fn points(&self) -> Vec<DResimPoint> {
        let sum = |f: &dyn Fn(&Tally) -> u64| self.tally.iter().map(f).sum::<u64>();
        self.configs
            .iter()
            .enumerate()
            .map(|(l, c)| DResimPoint {
                size_bytes: c.size_bytes,
                assoc: c.assoc,
                os_misses: sum(&|t| t.misses(OS, l)),
                os_sharing_misses: sum(&|t| t.floor(l)),
            })
            .collect()
    }

    /// Per point, per CPU `(os_misses, os_sharing_misses)`; each
    /// point's sums equal its [`DResimPoint`] totals.
    pub fn per_cpu(&self) -> Vec<Vec<(u64, u64)>> {
        (0..self.configs.len())
            .map(|l| {
                self.tally
                    .iter()
                    .map(|t| (t.misses(OS, l), t.floor(l)))
                    .collect()
            })
            .collect()
    }
}

/// Result of re-simulating one cache geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResimPoint {
    /// Cache size in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub assoc: u32,
    /// OS misses remaining.
    pub os_misses: u64,
    /// OS misses caused by invalidations (the *Inval* floor).
    pub os_inval_misses: u64,
    /// Application misses remaining (not plotted by the paper, but
    /// reported for completeness).
    pub app_misses: u64,
}

/// Incremental re-simulation of one I-cache geometry of any
/// associativity: feed the instruction-miss stream item by item and
/// read the [`ResimPoint`] off at the end. The sweeps use [`ISweep`];
/// this per-geometry replay is its test oracle.
#[derive(Debug)]
pub struct IResimBank {
    config: CacheConfig,
    caches: Vec<Cache>,
    // Blocks dropped by invalidation, per CPU: the next miss on them is
    // an Inval miss.
    invalidated: Vec<BlockSet>,
    os_misses: u64,
    os_inval: u64,
    app_misses: u64,
    /// Per-CPU `(os_misses, os_inval)` split of the totals above, for
    /// exhibit provenance.
    by_cpu: Vec<(u64, u64)>,
}

impl IResimBank {
    /// A bank of `num_cpus` caches of the given geometry.
    pub fn new(num_cpus: usize, config: CacheConfig) -> Self {
        IResimBank {
            config,
            caches: (0..num_cpus).map(|_| Cache::new(config)).collect(),
            invalidated: (0..num_cpus).map(|_| Default::default()).collect(),
            os_misses: 0,
            os_inval: 0,
            app_misses: 0,
            by_cpu: vec![(0, 0); num_cpus],
        }
    }

    /// Replays one stream item.
    pub fn push(&mut self, item: &IStreamItem) {
        match *item {
            IStreamItem::Fetch { cpu, block, os } => {
                let c = &mut self.caches[cpu as usize];
                let b = BlockAddr(u64::from(block));
                match c.access(b, false) {
                    Lookup::Hit => {}
                    Lookup::Miss { .. } => {
                        if os {
                            self.os_misses += 1;
                            self.by_cpu[cpu as usize].0 += 1;
                            if self.invalidated[cpu as usize].clear(b.0) {
                                self.os_inval += 1;
                                self.by_cpu[cpu as usize].1 += 1;
                            }
                        } else {
                            self.app_misses += 1;
                            self.invalidated[cpu as usize].clear(b.0);
                        }
                    }
                }
            }
            IStreamItem::Flush { ppn } => {
                for (c, inv) in self.caches.iter_mut().zip(&mut self.invalidated) {
                    // Mark the blocks that were resident, so the re-miss
                    // is attributable to the invalidation.
                    c.invalidate_page_each(Ppn(ppn), |b| {
                        inv.set(b.0);
                    });
                }
            }
        }
    }

    /// The accumulated result.
    pub fn point(&self) -> ResimPoint {
        ResimPoint {
            size_bytes: self.config.size_bytes,
            assoc: self.config.assoc,
            os_misses: self.os_misses,
            os_inval_misses: self.os_inval,
            app_misses: self.app_misses,
        }
    }

    /// Per-CPU `(os_misses, os_inval_misses)` contributions; the sums
    /// equal the [`ResimPoint`] totals.
    pub fn per_cpu(&self) -> Vec<(u64, u64)> {
        self.by_cpu.clone()
    }
}

/// Replays the instruction-miss stream into per-CPU caches of the given
/// geometry.
pub fn resim(istream: &[IStreamItem], num_cpus: usize, config: CacheConfig) -> ResimPoint {
    let mut bank = IResimBank::new(num_cpus, config);
    for item in istream {
        bank.push(item);
    }
    bank.point()
}

/// The cache geometries of the Figure 6 sweep: direct-mapped and two-way
/// caches from 64 KB to 1 MB (the paper cannot simulate the 64 KB
/// two-way point and neither do we).
pub fn figure6_configs() -> Vec<CacheConfig> {
    let sizes = [64, 128, 256, 512, 1024u64];
    let mut out: Vec<CacheConfig> = sizes
        .iter()
        .map(|&kb| CacheConfig::direct_mapped(kb * 1024))
        .collect();
    out.extend(
        sizes[1..]
            .iter()
            .map(|&kb| CacheConfig::set_associative(kb * 1024, 2)),
    );
    out
}

/// The Figure 6 sweep over a materialized stream, in one pass
/// ([`ISweep`]).
pub fn figure6_sweep(istream: &[IStreamItem], num_cpus: usize) -> Vec<ResimPoint> {
    let mut sweep = ISweep::new(num_cpus);
    sweep.push_items(istream);
    sweep.points()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fetch(cpu: u8, block: u32, os: bool) -> IStreamItem {
        IStreamItem::Fetch { cpu, block, os }
    }

    #[test]
    fn bigger_caches_never_miss_more() {
        // A conflict-heavy OS stream: blocks 0 and 4096 conflict in a
        // 64KB DM cache (4096 sets) but not in 128KB.
        let mut stream = Vec::new();
        for _ in 0..100 {
            stream.push(fetch(0, 0, true));
            stream.push(fetch(0, 4096, true));
        }
        let small = resim(&stream, 1, CacheConfig::direct_mapped(64 * 1024));
        let big = resim(&stream, 1, CacheConfig::direct_mapped(128 * 1024));
        assert_eq!(small.os_misses, 200, "every access conflicts");
        assert_eq!(big.os_misses, 2, "only the cold misses remain");
        assert!(big.os_misses <= small.os_misses);
    }

    #[test]
    fn associativity_removes_conflicts() {
        let mut stream = Vec::new();
        for _ in 0..50 {
            stream.push(fetch(0, 0, true));
            stream.push(fetch(0, 4096, true));
        }
        let dm = resim(&stream, 1, CacheConfig::direct_mapped(64 * 1024));
        let sa = resim(&stream, 1, CacheConfig::set_associative(64 * 1024, 2));
        assert!(sa.os_misses < dm.os_misses);
        assert_eq!(sa.os_misses, 2);
    }

    #[test]
    fn inval_misses_floor_survives_cache_growth() {
        // OS fetches a page's block, the page is invalidated, refetched.
        let blk = Ppn(5).base().block().0 as u32;
        let mut stream = Vec::new();
        for _ in 0..20 {
            stream.push(fetch(0, blk, true));
            stream.push(IStreamItem::Flush { ppn: 5 });
        }
        for kb in [64u64, 1024] {
            let p = resim(&stream, 1, CacheConfig::direct_mapped(kb * 1024));
            assert_eq!(p.os_misses, 20);
            assert_eq!(
                p.os_inval_misses, 19,
                "all but the cold miss are Inval at {kb}KB"
            );
        }
    }

    #[test]
    fn app_and_os_counted_separately() {
        let stream = vec![fetch(0, 1, true), fetch(0, 2, false), fetch(1, 1, true)];
        let p = resim(&stream, 2, CacheConfig::direct_mapped(64 * 1024));
        assert_eq!(p.os_misses, 2, "per-CPU caches: both OS fetches cold-miss");
        assert_eq!(p.app_misses, 1);
    }

    #[test]
    fn sweep_covers_both_associativities() {
        let stream = vec![fetch(0, 1, true)];
        let points = figure6_sweep(&stream, 1);
        assert_eq!(points.len(), 9);
        assert!(points.iter().any(|p| p.assoc == 2));
        assert!(points
            .windows(2)
            .take(4)
            .all(|w| w[1].os_misses <= w[0].os_misses));
    }
}

/// Result of re-simulating a data-cache geometry over the data-miss
/// stream, with coherence replayed (writes invalidate other caches).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DResimPoint {
    /// Cache size in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub assoc: u32,
    /// OS data misses remaining.
    pub os_misses: u64,
    /// OS data misses remaining that are coherence (sharing) misses —
    /// the component larger caches cannot remove.
    pub os_sharing_misses: u64,
}

/// Incremental D-cache re-simulation of one geometry (the data-stream
/// counterpart of [`IResimBank`]).
#[derive(Debug)]
pub struct DResimBank {
    config: CacheConfig,
    caches: Vec<Cache>,
    invalidated: Vec<BlockSet>,
    os_misses: u64,
    os_sharing: u64,
    /// Per-CPU `(os_misses, os_sharing)` split, for exhibit provenance.
    by_cpu: Vec<(u64, u64)>,
}

impl DResimBank {
    /// A bank of `num_cpus` caches of the given geometry.
    pub fn new(num_cpus: usize, config: CacheConfig) -> Self {
        DResimBank {
            config,
            caches: (0..num_cpus).map(|_| Cache::new(config)).collect(),
            invalidated: (0..num_cpus).map(|_| Default::default()).collect(),
            os_misses: 0,
            os_sharing: 0,
            by_cpu: vec![(0, 0); num_cpus],
        }
    }

    /// Replays one stream item, invalidating on writes as the snooping
    /// protocol does.
    pub fn push(&mut self, item: &DStreamItem) {
        let b = BlockAddr(u64::from(item.block));
        let i = item.cpu as usize;
        match self.caches[i].access(b, item.write) {
            Lookup::Hit => {}
            Lookup::Miss { .. } => {
                if item.os {
                    self.os_misses += 1;
                    self.by_cpu[i].0 += 1;
                    if self.invalidated[i].clear(b.0) {
                        self.os_sharing += 1;
                        self.by_cpu[i].1 += 1;
                    }
                } else {
                    self.invalidated[i].clear(b.0);
                }
            }
        }
        if item.write {
            for (j, c) in self.caches.iter_mut().enumerate() {
                if j != i && c.invalidate(b).is_some() {
                    self.invalidated[j].set(b.0);
                }
            }
        }
    }

    /// The accumulated result.
    pub fn point(&self) -> DResimPoint {
        DResimPoint {
            size_bytes: self.config.size_bytes,
            assoc: self.config.assoc,
            os_misses: self.os_misses,
            os_sharing_misses: self.os_sharing,
        }
    }

    /// Per-CPU `(os_misses, os_sharing_misses)` contributions; the sums
    /// equal the [`DResimPoint`] totals.
    pub fn per_cpu(&self) -> Vec<(u64, u64)> {
        self.by_cpu.clone()
    }
}

/// Replays the data-miss stream into per-CPU caches of the given
/// geometry, invalidating on writes as the snooping protocol does.
pub fn resim_dcache(dstream: &[DStreamItem], num_cpus: usize, config: CacheConfig) -> DResimPoint {
    let mut bank = DResimBank::new(num_cpus, config);
    for item in dstream {
        bank.push(item);
    }
    bank.point()
}

/// The geometries of the Section 4.2.2 D-cache sweep: 256 KB to 4 MB
/// direct-mapped.
pub fn dcache_configs() -> Vec<CacheConfig> {
    [256u64, 512, 1024, 2048, 4096]
        .iter()
        .map(|&kb| CacheConfig::direct_mapped(kb * 1024))
        .collect()
}

/// The Section 4.2.2 D-cache sweep over a materialized stream, in one
/// pass ([`DSweep`]).
/// Sharing misses survive every size — which is why the paper says
/// larger data caches can only moderately help the OS.
pub fn dcache_sweep(dstream: &[DStreamItem], num_cpus: usize) -> Vec<DResimPoint> {
    let mut sweep = DSweep::new(num_cpus);
    sweep.push_items(dstream);
    sweep.points()
}

#[cfg(test)]
mod dtests {
    use super::*;

    fn d(cpu: u8, block: u32, write: bool, os: bool) -> DStreamItem {
        DStreamItem {
            cpu,
            block,
            write,
            os,
        }
    }

    #[test]
    fn sharing_misses_survive_any_cache_size() {
        // Two CPUs ping-pong writes to one block: every re-access after
        // the other's write is a sharing miss, at any cache size.
        let mut stream = Vec::new();
        for i in 0..50 {
            stream.push(d((i % 2) as u8, 7, true, true));
        }
        for kb in [256u64, 4096] {
            let p = resim_dcache(&stream, 2, CacheConfig::direct_mapped(kb * 1024));
            assert_eq!(p.os_misses, 50, "every access misses at {kb}KB");
            assert_eq!(
                p.os_sharing_misses, 48,
                "all but the two cold misses are sharing at {kb}KB"
            );
        }
    }

    #[test]
    fn displacement_misses_vanish_with_size() {
        // One CPU alternates two conflicting blocks (256KB DM: 16384
        // sets; blocks 0 and 16384 conflict).
        let mut stream = Vec::new();
        for i in 0..40 {
            stream.push(d(0, if i % 2 == 0 { 0 } else { 16384 }, false, true));
        }
        let small = resim_dcache(&stream, 1, CacheConfig::direct_mapped(256 * 1024));
        let big = resim_dcache(&stream, 1, CacheConfig::direct_mapped(1024 * 1024));
        assert_eq!(small.os_misses, 40);
        assert_eq!(big.os_misses, 2, "conflicts disappear, cold remains");
        assert_eq!(big.os_sharing_misses, 0);
    }

    #[test]
    fn dcache_sweep_is_monotone_and_sharing_floored() {
        let mut stream = Vec::new();
        // Mix: ping-pong sharing + a conflict stream.
        for i in 0..30u32 {
            stream.push(d((i % 2) as u8, 5, true, true));
            stream.push(d(0, 100 + (i % 2) * 16384, false, true));
        }
        let points = dcache_sweep(&stream, 2);
        for w in points.windows(2) {
            assert!(w[1].os_misses <= w[0].os_misses);
        }
        let last = points.last().unwrap();
        assert!(
            last.os_sharing_misses > 0,
            "sharing floor survives at 4MB: {last:?}"
        );
    }
}
