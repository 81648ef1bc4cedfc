//! The assembled multiprocessor: per-CPU cache hierarchies, the
//! coherence protocol, the interconnect (snooping bus or directory
//! fabric), the synchronization bus and the bus monitor.
//!
//! Coherence follows the machine described in the paper: first-level data
//! caches are write-through (and therefore never dirty); second-level
//! data caches are write-back with a write-invalidate protocol.
//! Instruction caches are not snooped — stale code is removed by
//! explicit invalidation when the OS reallocates a code page, which is
//! what produces the paper's *Inval* misses.
//!
//! The invalidate protocol runs over one of two interconnects, chosen
//! by [`MachineConfig::coherence`](crate::config::Coherence): the
//! paper's snooping [`Bus`], or the banked directory/MESI
//! [`DirFabric`] for machines past snooping scale
//! (`docs/COHERENCE.md`). Both produce the same monitor record
//! stream shapes, so the paper's postprocessing pipeline is
//! backend-agnostic.

use crate::addr::{BlockAddr, CpuId, PAddr, Ppn};
use crate::bus::{Bus, BusGrant, BusKind};
use crate::cache::{Cache, Lookup};
use crate::config::{Coherence, MachineConfig};
use crate::dir::{DirFabric, DirStats};
use crate::monitor::{BufferMode, BusRecord, TraceBuffer};
use crate::snap::{SnapError, SnapReader, SnapWriter};
use crate::tlb::Tlb;

/// Where an access was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HitLevel {
    /// First-level cache hit (I-cache or L1 D-cache).
    L1,
    /// L1 miss that hit in the second-level data cache (invisible to the
    /// bus and to the monitor, as in the real machine).
    L2,
    /// Serviced by the bus (a monitored fill).
    Memory,
}

/// Timing and visibility outcome of one access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Total cycles charged to the CPU (base + stalls).
    pub cycles: u64,
    /// Where the access hit.
    pub level: HitLevel,
    /// Whether an upgrade transaction was required (write to a line
    /// shared by another cache).
    pub upgraded: bool,
}

impl AccessOutcome {
    /// Whether this access produced a bus fill.
    pub fn missed_to_bus(&self) -> bool {
        self.level == HitLevel::Memory
    }
}

/// Per-CPU stall and activity counters (simulator ground truth, i.e. what
/// a perfect observer would see; the monitor sees only bus activity).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuCounters {
    /// Cycles stalled on bus fills (35 cycles each plus arbitration).
    pub bus_stall: u64,
    /// Cycles stalled on L1-miss/L2-hit data accesses.
    pub l2_stall: u64,
    /// Cycles spent on uncached escape reads.
    pub uncached_stall: u64,
    /// Cycles spent on synchronization-bus operations.
    pub sync_stall: u64,
    /// Base (non-stall) cycles charged through the machine.
    pub base_cycles: u64,
    /// Instruction-fetch bus fills.
    pub ifetch_fills: u64,
    /// Data bus fills (read + read-exclusive).
    pub data_fills: u64,
    /// Upgrade transactions issued.
    pub upgrades: u64,
    /// Write-backs of dirty victims or snoop-flushed lines.
    pub writebacks: u64,
    /// Synchronization-bus operations issued.
    pub sync_ops: u64,
    /// Uncached reads issued.
    pub uncached_reads: u64,
    /// Lines lost from this CPU's caches to snoop invalidations.
    pub snoop_invalidations: u64,
    /// Lines lost from this CPU's I-cache to explicit page flushes.
    pub icache_flushed_lines: u64,
    /// Fills whose home cluster differed from the requester's (cluster
    /// mode only).
    pub remote_fills: u64,
}

#[derive(Debug)]
struct CpuCore {
    icache: Cache,
    l1d: Cache,
    l2d: Cache,
    tlb: Tlb,
    now: u64,
    counters: CpuCounters,
    /// Block of the most recent instruction fetch, used to short-circuit
    /// straight-line fetch runs. Only maintained when the I-cache is
    /// direct-mapped (a DM hit is a state no-op, so skipping the access
    /// is invisible; an associative hit would update LRU state).
    /// `u64::MAX` when invalid.
    last_ifetch: u64,
}

const NO_IFETCH_MEMO: u64 = u64::MAX;

/// Exact per-block directory of which CPUs' L2 data caches hold a block.
///
/// Every L2 residency change flows through [`Machine::data_access`] or
/// [`Machine::invalidate_others`], so the masks can be kept exact: bit
/// `j` of `masks[block]` is set iff CPU `j`'s L2 currently holds `block`.
/// Snoops and sharer probes then touch only CPUs that can actually hold
/// the line instead of probing every cache. Disabled (all loops fall
/// back to probing every CPU) when the machine has more CPUs than mask
/// bits.
#[derive(Debug)]
struct SharerDir {
    /// One bit per CPU, indexed by `BlockAddr.0`; grown lazily.
    masks: Vec<u64>,
    enabled: bool,
}

impl SharerDir {
    fn new(num_cpus: u8) -> Self {
        SharerDir {
            masks: Vec::new(),
            enabled: (num_cpus as u32) <= u64::BITS,
        }
    }

    #[inline]
    fn mask(&self, block: BlockAddr) -> u64 {
        self.masks.get(block.0 as usize).copied().unwrap_or(0)
    }

    #[inline]
    fn set(&mut self, block: BlockAddr, idx: usize) {
        if !self.enabled {
            return;
        }
        let i = block.0 as usize;
        if i >= self.masks.len() {
            self.masks.resize(i + 1, 0);
        }
        self.masks[i] |= 1 << idx;
    }

    #[inline]
    fn clear(&mut self, block: BlockAddr, idx: usize) {
        if let Some(m) = self.masks.get_mut(block.0 as usize) {
            *m &= !(1 << idx);
        }
    }
}

/// The CPUs a snoop must visit: either the exact sharer set from the
/// directory, or (fallback) every CPU except the requester.
enum SnoopSet {
    Mask(u64),
    AllExcept(std::ops::Range<usize>, usize),
}

impl Iterator for SnoopSet {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        match self {
            SnoopSet::Mask(m) => {
                if *m == 0 {
                    return None;
                }
                let j = m.trailing_zeros() as usize;
                *m &= *m - 1;
                Some(j)
            }
            SnoopSet::AllExcept(range, skip) => range.by_ref().find(|j| j != skip),
        }
    }
}

/// The MESI state of a block in one CPU's data-cache hierarchy, derived
/// from the L2 tags and the sharer directory. The simulator does not
/// store a separate state field: a dirty line is *Modified*, a clean
/// line with no other holder is *Exclusive*, a clean line with other
/// holders is *Shared* — exactly the invariant the write-invalidate
/// protocol maintains on both interconnects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MesiState {
    /// Dirty, sole holder.
    Modified,
    /// Clean, sole holder (a write needs no interconnect traffic —
    /// which is why the two backends agree on upgrade counts).
    Exclusive,
    /// Clean, held by more than one cache.
    Shared,
    /// Not resident.
    Invalid,
}

/// The interconnect that carries coherence traffic: the paper's
/// snooping bus, or the directory fabric for scaled machines. Both
/// expose the same transaction interface so [`Machine::data_access`]
/// and [`Machine::fetch`] are backend-agnostic; the directory
/// additionally routes by block home and counts protocol messages.
#[derive(Debug)]
enum Fabric {
    Bus(Bus),
    Dir(DirFabric),
}

impl Fabric {
    fn transact(&mut self, now: u64, kind: BusKind, block: BlockAddr) -> BusGrant {
        match self {
            Fabric::Bus(b) => b.transact(now, kind),
            Fabric::Dir(d) => d.transact(now, kind, block),
        }
    }

    /// Extra requester stall while a dirty owner supplies the line: the
    /// snoop flush on the bus, the three-hop forward on the directory.
    fn flush_penalty(&self, bus_occupancy_cycles: u64) -> u64 {
        match self {
            Fabric::Bus(_) => bus_occupancy_cycles / 2,
            Fabric::Dir(d) => d.forward_penalty(),
        }
    }

    fn note_forward(&mut self) {
        if let Fabric::Dir(d) = self {
            d.note_forward();
        }
    }

    fn note_invals(&mut self, n: u64) {
        match self {
            Fabric::Bus(b) => b.note_invals(n),
            Fabric::Dir(d) => d.note_invals(n),
        }
    }

    fn note_shared_fill(&mut self) {
        match self {
            Fabric::Bus(b) => b.note_shared_fill(),
            Fabric::Dir(d) => d.note_shared_fill(),
        }
    }

    fn transactions(&self) -> u64 {
        match self {
            Fabric::Bus(b) => b.transactions(),
            Fabric::Dir(d) => d.stats().requests(),
        }
    }
}

/// Interconnect occupancy summary, uniform across backends (what
/// replaces "bus occupancy" when the machine has no bus).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InterconnectStats {
    /// Total transactions/requests serviced.
    pub transactions: u64,
    /// Total cycles requesters spent waiting for the medium (bus
    /// arbitration or directory bank queueing).
    pub arbitration_wait: u64,
    /// Cache copies lost to write invalidations (broadcast snoop hits
    /// on the bus, point-to-point messages on the directory).
    pub invals_sent: u64,
    /// Fills that found the line resident in another cache (sharer
    /// churn: the line is migrating between caches).
    pub sharer_churn: u64,
    /// Directory message counters; `None` on the snooping bus.
    pub dir: Option<DirStats>,
}

/// The simulated multiprocessor.
///
/// # Examples
///
/// ```
/// use oscar_machine::{Machine, MachineConfig};
/// use oscar_machine::addr::{CpuId, PAddr};
///
/// let mut m = Machine::new(MachineConfig::sgi_4d340());
/// let cpu = CpuId(0);
/// let out = m.fetch(cpu, PAddr::new(0x1000), 4);
/// assert!(out.missed_to_bus());
/// let again = m.fetch(cpu, PAddr::new(0x1000), 4);
/// assert!(!again.missed_to_bus());
/// ```
#[derive(Debug)]
pub struct Machine {
    config: MachineConfig,
    fabric: Fabric,
    sync_busy_until: u64,
    cpus: Vec<CpuCore>,
    monitor: TraceBuffer,
    /// Home cluster of each physical page (Section 6 cluster mode;
    /// all-zero on the flat machine).
    page_home: Vec<u8>,
    sharers: SharerDir,
    /// Whether the straight-line ifetch memo is safe (direct-mapped
    /// I-cache; see [`CpuCore::last_ifetch`]).
    ifetch_memo: bool,
    /// Whether a data read that hits L1 changes no cache state
    /// (direct-mapped L1 and L2; see [`Machine::read_hits`]).
    read_hit_noop: bool,
}

impl Machine {
    /// Builds the machine with an unbounded monitor buffer (analysis
    /// mode).
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`MachineConfig::validate`].
    pub fn new(config: MachineConfig) -> Self {
        Self::with_buffer(config, BufferMode::Unbounded)
    }

    /// Builds the machine with an explicit monitor buffer mode (use
    /// [`BufferMode::Bounded`] to exercise the master-process dump
    /// protocol).
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`MachineConfig::validate`].
    pub fn with_buffer(config: MachineConfig, mode: BufferMode) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid machine configuration: {e}");
        }
        let cpus = (0..config.num_cpus)
            .map(|_| CpuCore {
                icache: Cache::new(config.icache),
                l1d: Cache::new(config.l1d),
                l2d: Cache::new(config.l2d),
                tlb: Tlb::new(),
                now: 0,
                counters: CpuCounters::default(),
                last_ifetch: NO_IFETCH_MEMO,
            })
            .collect();
        let page_home = vec![0u8; config.num_pages() as usize];
        let fabric = match config.coherence {
            Coherence::Snoop => Fabric::Bus(Bus::new(
                config.bus_fill_cycles,
                config.bus_occupancy_cycles,
                config.uncached_read_cycles,
            )),
            Coherence::MesiDir => Fabric::Dir(DirFabric::new(&config)),
        };
        Machine {
            fabric,
            sync_busy_until: 0,
            cpus,
            monitor: TraceBuffer::new(mode),
            page_home,
            sharers: SharerDir::new(config.num_cpus),
            ifetch_memo: config.icache.assoc == 1,
            read_hit_noop: config.l1d.assoc == 1 && config.l2d.assoc == 1,
            config,
        }
    }

    /// Sets the home cluster of a physical page (cluster mode).
    pub fn set_page_home(&mut self, ppn: Ppn, cluster: u8) {
        if let Some(h) = self.page_home.get_mut(ppn.0 as usize) {
            *h = cluster;
        }
    }

    /// The home cluster of a physical page.
    pub fn page_home(&self, ppn: Ppn) -> u8 {
        self.page_home.get(ppn.0 as usize).copied().unwrap_or(0)
    }

    /// Extra stall for a fill of `paddr` requested by `cpu` (zero on
    /// the flat machine or for local fills).
    fn remote_penalty(&self, cpu: CpuId, paddr: PAddr) -> u64 {
        if self.config.remote_fill_extra == 0 || self.config.clusters <= 1 {
            return 0;
        }
        let home = self.page_home(paddr.page());
        if home != self.config.cluster_of_cpu(cpu.0) {
            self.config.remote_fill_extra
        } else {
            0
        }
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Number of CPUs.
    pub fn num_cpus(&self) -> u8 {
        self.config.num_cpus
    }

    /// Current cycle count of `cpu`.
    pub fn now(&self, cpu: CpuId) -> u64 {
        self.cpus[cpu.index()].now
    }

    /// The CPU whose clock is furthest behind (the engine runs this one
    /// next to keep global time consistent).
    pub fn earliest_cpu(&self) -> CpuId {
        let idx = self
            .cpus
            .iter()
            .enumerate()
            .min_by_key(|(_, c)| c.now)
            .map(|(i, _)| i)
            .unwrap_or(0);
        CpuId(idx as u8)
    }

    /// Advances `cpu` by `cycles` of computation (no memory traffic).
    pub fn advance(&mut self, cpu: CpuId, cycles: u64) {
        let core = &mut self.cpus[cpu.index()];
        core.now += cycles;
        core.counters.base_cycles += cycles;
    }

    /// Per-CPU counters (ground truth).
    pub fn counters(&self, cpu: CpuId) -> &CpuCounters {
        &self.cpus[cpu.index()].counters
    }

    /// Mutable access to a CPU's TLB (the OS manages TLB contents).
    pub fn tlb_mut(&mut self, cpu: CpuId) -> &mut Tlb {
        &mut self.cpus[cpu.index()].tlb
    }

    /// Read access to a CPU's TLB.
    pub fn tlb(&self, cpu: CpuId) -> &Tlb {
        &self.cpus[cpu.index()].tlb
    }

    /// The monitor's trace buffer.
    pub fn monitor(&self) -> &TraceBuffer {
        &self.monitor
    }

    /// Mutable monitor access (dumping, arming).
    pub fn monitor_mut(&mut self) -> &mut TraceBuffer {
        &mut self.monitor
    }

    fn record(&mut self, cpu: CpuId, time: u64, paddr: PAddr, kind: BusKind) {
        // Cached transactions put the block base on the address lines;
        // the monitor additionally latches the dropped low bits as the
        // sub-block offset. Uncached escapes carry the full byte address
        // (their low bits encode the escape payload, not an offset).
        let (paddr, sub) = if kind == BusKind::UncachedRead {
            (paddr, 0)
        } else {
            (paddr.block().base(), paddr.offset_in_block() as u8)
        };
        self.monitor.record(BusRecord {
            time,
            cpu,
            paddr,
            kind,
            sub,
        });
    }

    /// Fetches `instrs` instructions (1–4) from the block containing
    /// `paddr`, charging one base cycle per instruction plus any miss
    /// stall.
    pub fn fetch(&mut self, cpu: CpuId, paddr: PAddr, instrs: u32) -> AccessOutcome {
        let block = paddr.block();
        let idx = cpu.index();
        let base = instrs as u64;
        // Straight-line runs fetch from the same block over and over; the
        // memoized last block is guaranteed resident (it can only leave
        // the I-cache by being displaced by a *different* fetch, which
        // retargets the memo, or by a page flush, which clears it).
        if block.0 == self.cpus[idx].last_ifetch {
            let core = &mut self.cpus[idx];
            core.now += base;
            core.counters.base_cycles += base;
            return AccessOutcome {
                cycles: base,
                level: HitLevel::L1,
                upgraded: false,
            };
        }
        let now = self.cpus[idx].now;
        let lookup = self.cpus[idx].icache.access(block, false);
        if self.ifetch_memo {
            self.cpus[idx].last_ifetch = block.0;
        }
        match lookup {
            Lookup::Hit => {
                let cycles = base;
                let core = &mut self.cpus[idx];
                core.now += cycles;
                core.counters.base_cycles += base;
                AccessOutcome {
                    cycles,
                    level: HitLevel::L1,
                    upgraded: false,
                }
            }
            Lookup::Miss { .. } => {
                // I-caches hold clean code only: victims are silent.
                let grant = self.fabric.transact(now, BusKind::Read, block);
                self.record(cpu, grant.start, paddr, BusKind::Read);
                let remote = self.remote_penalty(cpu, paddr);
                let core = &mut self.cpus[idx];
                core.counters.ifetch_fills += 1;
                if remote > 0 {
                    core.counters.remote_fills += 1;
                }
                core.counters.bus_stall += grant.stall + remote;
                core.counters.base_cycles += base;
                let cycles = base + grant.stall + remote;
                core.now += cycles;
                AccessOutcome {
                    cycles,
                    level: HitLevel::Memory,
                    upgraded: false,
                }
            }
        }
    }

    /// Charges a run of instruction fetches that all hit in `cpu`'s
    /// direct-mapped I-cache, the last of them from `last`: exactly what
    /// the run of [`Machine::fetch`] calls would do (a direct-mapped hit
    /// changes no cache state), in one call. `cycles` is the run's total
    /// instruction count. Only valid while the fetch memo is on
    /// ([`Machine::ifetch_memo`]) and every fetched block is resident.
    pub fn fetch_hits(&mut self, cpu: CpuId, last: BlockAddr, cycles: u64) {
        debug_assert!(
            self.ifetch_memo,
            "batched fetch hits need a direct-mapped I-cache"
        );
        debug_assert!(
            self.icache_probe(cpu, last),
            "batched fetch of a missing block"
        );
        let core = &mut self.cpus[cpu.index()];
        core.now += cycles;
        core.counters.base_cycles += cycles;
        core.last_ifetch = last.0;
    }

    /// Whether an I-cache hit is a state no-op (direct-mapped I-cache),
    /// so a run of hits can be charged in one [`Machine::fetch_hits`].
    pub fn ifetch_memo(&self) -> bool {
        self.ifetch_memo
    }

    /// Charges `n` one-cycle data reads of `block` that all hit in
    /// `cpu`'s L1: exactly what the run of [`Machine::data_access`]
    /// reads would do (a direct-mapped hit in L1 and L2 changes no cache
    /// state), in one call. Only valid while [`Machine::read_hit_noop`]
    /// holds and `block` is resident in L1.
    pub fn read_hits(&mut self, cpu: CpuId, block: BlockAddr, n: u64) {
        debug_assert!(
            self.read_hit_noop,
            "batched read hits need direct-mapped data caches"
        );
        debug_assert!(self.l1_probe(cpu, block), "batched read of a missing block");
        let core = &mut self.cpus[cpu.index()];
        core.now += n;
        core.counters.base_cycles += n;
    }

    /// Whether a data read that hits L1 is a state no-op (direct-mapped
    /// L1 and L2), so a run of such reads can be charged in one
    /// [`Machine::read_hits`].
    pub fn read_hit_noop(&self) -> bool {
        self.read_hit_noop
    }

    /// Performs a data access of one word at `paddr`, charging
    /// `base_cycles` of instruction-execution time plus any stalls.
    ///
    /// Writes are write-through at L1 (no allocate) and write-back at L2;
    /// writes to lines shared by another cache issue an upgrade and
    /// invalidate the sharers, which is how *Sharing* misses arise.
    pub fn data_access(
        &mut self,
        cpu: CpuId,
        paddr: PAddr,
        write: bool,
        base_cycles: u64,
    ) -> AccessOutcome {
        let block = paddr.block();
        let idx = cpu.index();
        let now = self.cpus[idx].now;

        let l1_hit = if write {
            // Write-through: update L1 only if present.
            let present = self.cpus[idx].l1d.probe(block);
            if present {
                // Refresh LRU without marking dirty (write-through).
                let _ = self.cpus[idx].l1d.access(block, false);
            }
            present
        } else {
            matches!(self.cpus[idx].l1d.access(block, false), Lookup::Hit)
        };

        // All writes and L1 read misses consult the L2.
        let l2_present = self.cpus[idx].l2d.probe(block);

        if l2_present {
            let mut upgraded = false;
            let mut stall = 0;
            if write {
                // Write hit: if any other cache holds the line, upgrade.
                if self.any_other_sharer(idx, block) {
                    let grant = self.fabric.transact(now, BusKind::Upgrade, block);
                    self.record(cpu, grant.start, paddr, BusKind::Upgrade);
                    self.invalidate_others(idx, block);
                    self.cpus[idx].counters.upgrades += 1;
                    stall += grant.stall;
                    upgraded = true;
                }
                let _ = self.cpus[idx].l2d.access(block, true);
            } else {
                let _ = self.cpus[idx].l2d.access(block, false);
            }
            let (level, extra) = if l1_hit {
                (HitLevel::L1, 0)
            } else {
                // L1 read miss filled from L2 (reads allocate in L1).
                if !write {
                    let _ = self.cpus[idx].l1d.fill(block, false);
                }
                (HitLevel::L2, self.config.l2_hit_cycles)
            };
            // A write that hits L1 still writes through to L2 in one
            // cycle; charge only the base cost for it.
            let l2_pen = if write && l1_hit { 0 } else { extra };
            let core = &mut self.cpus[idx];
            core.counters.l2_stall += l2_pen;
            core.counters.bus_stall += stall;
            core.counters.base_cycles += base_cycles;
            let cycles = base_cycles + l2_pen + stall;
            core.now += cycles;
            return AccessOutcome {
                cycles,
                level: if upgraded { HitLevel::L2 } else { level },
                upgraded,
            };
        }

        // L2 miss: go to the interconnect. With a write buffer, write
        // fills overlap with computation and stall only partially.
        let kind = if write {
            BusKind::ReadEx
        } else {
            BusKind::Read
        };
        let mut grant = self.fabric.transact(now, kind, block);
        if write && self.config.write_stall_pct < 100 {
            grant.stall = grant.stall * self.config.write_stall_pct as u64 / 100;
        }
        self.record(cpu, grant.start, paddr, kind);

        // A dirty copy elsewhere supplies the line and updates memory
        // first: the snoop flush on the bus, the dirty-owner forward on
        // the directory. The sharer directory narrows this to CPUs that
        // actually hold the line; non-holders can never be dirty. The
        // snoop results also reveal whether any clean copy exists —
        // sharer churn, which the hot-line analyzer reads.
        let mut extra_stall = 0;
        let mut shared = false;
        for j in self.other_holders(idx, block) {
            if self.cpus[j].l2d.probe(block) {
                shared = true;
                if self.cpus[j].l2d.probe_dirty(block) {
                    let wb_grant = self.fabric.transact(grant.start, BusKind::WriteBack, block);
                    self.record(
                        CpuId(j as u8),
                        wb_grant.start,
                        block.base(),
                        BusKind::WriteBack,
                    );
                    self.cpus[j].l2d.clean(block);
                    self.cpus[j].counters.writebacks += 1;
                    // The requester waits for the flush/forward.
                    extra_stall += self.fabric.flush_penalty(self.config.bus_occupancy_cycles);
                    self.fabric.note_forward();
                }
            }
        }
        if shared {
            self.fabric.note_shared_fill();
        }
        if write {
            self.invalidate_others(idx, block);
        }

        // Fill own L2 (and L1 for reads), handling the dirty victim.
        let victim = self.cpus[idx].l2d.fill(block, write);
        self.sharers.set(block, idx);
        if let Some(v) = victim {
            self.sharers.clear(v.block, idx);
            // Inclusion: the L1 must not keep a line the L2 dropped.
            self.cpus[idx].l1d.invalidate(v.block);
            if v.dirty {
                let wb_grant = self
                    .fabric
                    .transact(grant.start, BusKind::WriteBack, v.block);
                self.record(cpu, wb_grant.start, v.block.base(), BusKind::WriteBack);
                self.cpus[idx].counters.writebacks += 1;
            }
        }
        if !write {
            let _ = self.cpus[idx].l1d.fill(block, false);
        }

        let remote = self.remote_penalty(cpu, paddr);
        let core = &mut self.cpus[idx];
        core.counters.data_fills += 1;
        if remote > 0 {
            core.counters.remote_fills += 1;
        }
        let stall = grant.stall + extra_stall + remote;
        core.counters.bus_stall += stall;
        core.counters.base_cycles += base_cycles;
        let cycles = base_cycles + stall;
        core.now += cycles;
        AccessOutcome {
            cycles,
            level: HitLevel::Memory,
            upgraded: false,
        }
    }

    /// The CPUs (other than `idx`) whose L2 might hold `block`: the exact
    /// sharer set when the directory is maintained, every other CPU
    /// otherwise. Ascending order either way, so record and counter
    /// sequences match the brute-force probe loop exactly.
    fn other_holders(&self, idx: usize, block: BlockAddr) -> SnoopSet {
        if self.sharers.enabled {
            SnoopSet::Mask(self.sharers.mask(block) & !(1u64 << idx))
        } else {
            SnoopSet::AllExcept(0..self.cpus.len(), idx)
        }
    }

    fn any_other_sharer(&self, idx: usize, block: BlockAddr) -> bool {
        let mut holders = self.other_holders(idx, block);
        holders.any(|j| self.cpus[j].l2d.probe(block))
    }

    fn invalidate_others(&mut self, idx: usize, block: BlockAddr) {
        let mut caches_hit = 0;
        for j in self.other_holders(idx, block) {
            let mut lost = 0;
            if self.cpus[j].l2d.invalidate(block).is_some() {
                lost += 1;
                self.sharers.clear(block, j);
                caches_hit += 1;
            } else {
                debug_assert!(
                    !self.sharers.enabled,
                    "directory listed CPU {j} as holder of absent block {block:?}"
                );
            }
            // L1 contents are a subset of L2 (fills only follow an L2
            // fill; L2 victims invalidate L1), so a CPU outside the
            // sharer set has nothing to lose in L1 either.
            if self.cpus[j].l1d.invalidate(block).is_some() {
                lost += 1;
            }
            self.cpus[j].counters.snoop_invalidations += lost;
        }
        // On the directory these are point-to-point messages, one per
        // holding cache; the bus broadcasts and counts nothing.
        self.fabric.note_invals(caches_hit);
    }

    /// Issues an uncached byte read (an escape reference). The address is
    /// recorded verbatim on the bus; escapes always use odd addresses so
    /// the postprocessor can tell them apart from code misses.
    pub fn uncached_read(&mut self, cpu: CpuId, paddr: PAddr) -> AccessOutcome {
        let idx = cpu.index();
        let now = self.cpus[idx].now;
        let grant = self
            .fabric
            .transact(now, BusKind::UncachedRead, paddr.block());
        self.record(cpu, grant.start, paddr, BusKind::UncachedRead);
        let core = &mut self.cpus[idx];
        core.counters.uncached_reads += 1;
        core.counters.uncached_stall += grant.stall;
        core.now += grant.stall;
        AccessOutcome {
            cycles: grant.stall,
            level: HitLevel::Memory,
            upgraded: false,
        }
    }

    /// Issues one operation on the synchronization bus (invisible to the
    /// monitor). Returns the cycles charged.
    pub fn sync_op(&mut self, cpu: CpuId) -> u64 {
        let idx = cpu.index();
        let now = self.cpus[idx].now;
        let start = now.max(self.sync_busy_until);
        self.sync_busy_until = start + 4;
        let stall = (start - now) + self.config.sync_op_cycles;
        let core = &mut self.cpus[idx];
        core.counters.sync_ops += 1;
        core.counters.sync_stall += stall;
        core.now += stall;
        stall
    }

    /// Invalidates every I-cache line of physical page `ppn` on all CPUs
    /// (the OS does this when a code page is reallocated). Returns total
    /// lines dropped.
    pub fn flush_icache_page(&mut self, ppn: Ppn) -> usize {
        let mut total = 0;
        for core in &mut self.cpus {
            let n = core.icache.invalidate_page(ppn);
            core.counters.icache_flushed_lines += n as u64;
            core.last_ifetch = NO_IFETCH_MEMO;
            total += n;
        }
        total
    }

    /// Whether `block` is resident in `cpu`'s L2 data cache (for
    /// assertions and classifier cross-checks).
    pub fn l2_probe(&self, cpu: CpuId, block: BlockAddr) -> bool {
        self.cpus[cpu.index()].l2d.probe(block)
    }

    /// Whether `block` is resident in `cpu`'s L1 data cache.
    pub fn l1_probe(&self, cpu: CpuId, block: BlockAddr) -> bool {
        self.cpus[cpu.index()].l1d.probe(block)
    }

    /// Whether `block` is resident in `cpu`'s I-cache.
    pub fn icache_probe(&self, cpu: CpuId, block: BlockAddr) -> bool {
        self.cpus[cpu.index()].icache.probe(block)
    }

    /// Total interconnect transactions serviced so far (bus
    /// transactions or directory requests, depending on the backend).
    pub fn bus_transactions(&self) -> u64 {
        self.fabric.transactions()
    }

    /// Interconnect occupancy summary, uniform across backends.
    pub fn interconnect(&self) -> InterconnectStats {
        match &self.fabric {
            Fabric::Bus(b) => InterconnectStats {
                transactions: b.transactions(),
                arbitration_wait: b.arbitration_wait(),
                invals_sent: b.invals_sent(),
                sharer_churn: b.sharer_churn(),
                dir: None,
            },
            Fabric::Dir(d) => InterconnectStats {
                transactions: d.stats().requests(),
                arbitration_wait: d.stats().bank_wait,
                invals_sent: d.stats().invals_sent,
                sharer_churn: d.stats().sharer_churn,
                dir: Some(*d.stats()),
            },
        }
    }

    /// The MESI state of `block` in `cpu`'s data-cache hierarchy,
    /// derived from the L2 tags and the sharer directory (see
    /// [`MesiState`]). Meaningful on both backends — the snooping
    /// protocol maintains the same single-writer invariant.
    pub fn mesi_state(&self, cpu: CpuId, block: BlockAddr) -> MesiState {
        let idx = cpu.index();
        if !self.cpus[idx].l2d.probe(block) {
            return MesiState::Invalid;
        }
        if self.cpus[idx].l2d.probe_dirty(block) {
            return MesiState::Modified;
        }
        if self.any_other_sharer(idx, block) {
            MesiState::Shared
        } else {
            MesiState::Exclusive
        }
    }

    /// Disables the sharer presence directory, forcing every snoop to
    /// probe all other CPUs (the brute-force pre-filter behaviour).
    /// The filter is a pure optimization: differential tests drive two
    /// machines with identical streams, one with the filter disabled,
    /// and require identical outcomes, counters, and monitor records.
    /// Call on a fresh machine, before any accesses.
    pub fn disable_presence_filter(&mut self) {
        self.sharers.enabled = false;
    }

    /// Serializes the complete dynamic machine state — per-CPU caches,
    /// TLBs, clocks and counters, the bus, the synchronization bus, the
    /// page-home table, the sharer directory, and the monitor cursor —
    /// so the machine can be resumed bit-exactly by
    /// [`Machine::restore_snapshot`]. Configuration-derived structure is
    /// not written: restore rebuilds it from the same [`MachineConfig`].
    ///
    /// Two machines with identical dynamic state produce identical
    /// bytes, so snapshots double as a state-equality witness.
    ///
    /// # Panics
    ///
    /// Panics if the monitor has a streaming sink attached (see
    /// [`TraceBuffer::save`]).
    pub fn save_snapshot(&self, w: &mut SnapWriter) {
        w.u8(self.config.num_cpus);
        for core in &self.cpus {
            core.icache.save(w);
            core.l1d.save(w);
            core.l2d.save(w);
            core.tlb.save(w);
            w.u64(core.now);
            let c = &core.counters;
            w.u64(c.bus_stall);
            w.u64(c.l2_stall);
            w.u64(c.uncached_stall);
            w.u64(c.sync_stall);
            w.u64(c.base_cycles);
            w.u64(c.ifetch_fills);
            w.u64(c.data_fills);
            w.u64(c.upgrades);
            w.u64(c.writebacks);
            w.u64(c.sync_ops);
            w.u64(c.uncached_reads);
            w.u64(c.snoop_invalidations);
            w.u64(c.icache_flushed_lines);
            w.u64(c.remote_fills);
            w.u64(core.last_ifetch);
        }
        match &self.fabric {
            Fabric::Bus(b) => b.save(w),
            Fabric::Dir(d) => d.save(w),
        }
        w.u64(self.sync_busy_until);
        w.bytes(&self.page_home);
        // The sharer directory is block-indexed and mostly zero (bounded
        // by total L2 capacity); store only the nonzero masks.
        w.bool(self.sharers.enabled);
        w.usize(self.sharers.masks.len());
        let nonzero = self.sharers.masks.iter().filter(|&&m| m != 0).count();
        w.usize(nonzero);
        for (i, &m) in self.sharers.masks.iter().enumerate() {
            if m != 0 {
                w.usize(i);
                w.u64(m);
            }
        }
        self.monitor.save(w);
    }

    /// Rebuilds a machine from `config` (which must equal the
    /// configuration of the machine that was saved) plus the dynamic
    /// state written by [`Machine::save_snapshot`].
    pub fn restore_snapshot(
        config: MachineConfig,
        mode: BufferMode,
        r: &mut SnapReader<'_>,
    ) -> Result<Self, SnapError> {
        let mut m = Machine::with_buffer(config, mode);
        if r.u8()? != m.config.num_cpus {
            return Err(SnapError::Corrupt("cpu count"));
        }
        for core in &mut m.cpus {
            core.icache.load(r)?;
            core.l1d.load(r)?;
            core.l2d.load(r)?;
            core.tlb.load(r)?;
            core.now = r.u64()?;
            let c = &mut core.counters;
            c.bus_stall = r.u64()?;
            c.l2_stall = r.u64()?;
            c.uncached_stall = r.u64()?;
            c.sync_stall = r.u64()?;
            c.base_cycles = r.u64()?;
            c.ifetch_fills = r.u64()?;
            c.data_fills = r.u64()?;
            c.upgrades = r.u64()?;
            c.writebacks = r.u64()?;
            c.sync_ops = r.u64()?;
            c.uncached_reads = r.u64()?;
            c.snoop_invalidations = r.u64()?;
            c.icache_flushed_lines = r.u64()?;
            c.remote_fills = r.u64()?;
            core.last_ifetch = r.u64()?;
        }
        match &mut m.fabric {
            Fabric::Bus(b) => b.load(r)?,
            Fabric::Dir(d) => d.load(r)?,
        }
        m.sync_busy_until = r.u64()?;
        let page_home = r.bytes()?;
        if page_home.len() != m.page_home.len() {
            return Err(SnapError::Corrupt("page home table size"));
        }
        m.page_home = page_home;
        m.sharers.enabled = r.bool()?;
        let mask_len = r.usize()?;
        m.sharers.masks = vec![0u64; mask_len];
        let nonzero = r.usize()?;
        for _ in 0..nonzero {
            let i = r.usize()?;
            let mask = r.u64()?;
            *m.sharers
                .masks
                .get_mut(i)
                .ok_or(SnapError::Corrupt("sharer mask index"))? = mask;
        }
        m.monitor.load(r)?;
        Ok(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> Machine {
        Machine::new(MachineConfig::sgi_4d340())
    }

    const C0: CpuId = CpuId(0);
    const C1: CpuId = CpuId(1);

    #[test]
    fn ifetch_miss_then_hit() {
        let mut m = machine();
        let a = PAddr::new(0x2000);
        let miss = m.fetch(C0, a, 4);
        assert_eq!(miss.level, HitLevel::Memory);
        assert_eq!(miss.cycles, 4 + 35);
        let hit = m.fetch(C0, a.add(4), 4);
        assert_eq!(hit.level, HitLevel::L1);
        assert_eq!(hit.cycles, 4);
        assert_eq!(m.counters(C0).ifetch_fills, 1);
    }

    #[test]
    fn data_read_miss_fills_both_levels() {
        let mut m = machine();
        let a = PAddr::new(0x8000);
        let out = m.data_access(C0, a, false, 1);
        assert_eq!(out.level, HitLevel::Memory);
        // Immediately after, the same block hits in L1.
        let out2 = m.data_access(C0, a.add(8), false, 1);
        assert_eq!(out2.level, HitLevel::L1);
    }

    #[test]
    fn l2_hit_is_invisible_to_monitor() {
        let mut m = machine();
        let a = PAddr::new(0x8000);
        m.data_access(C0, a, false, 1);
        // Evict from L1 by conflicting reads (L1 64KB DM: 4096 sets).
        let conflict = PAddr::new(0x8000 + 64 * 1024);
        m.data_access(C0, conflict, false, 1);
        let before = m.monitor().len();
        let out = m.data_access(C0, a, false, 1);
        assert_eq!(out.level, HitLevel::L2, "L2 is 256KB: still resident");
        assert_eq!(m.monitor().len(), before, "no bus record for L2 hits");
    }

    #[test]
    fn write_to_shared_line_upgrades_and_invalidates() {
        let mut m = machine();
        let a = PAddr::new(0x9000);
        m.data_access(C0, a, false, 1);
        m.data_access(C1, a, false, 1);
        assert!(m.l2_probe(C0, a.block()) && m.l2_probe(C1, a.block()));
        let out = m.data_access(C0, a, true, 1);
        assert!(out.upgraded);
        assert!(!m.l2_probe(C1, a.block()), "sharer invalidated");
        assert_eq!(m.counters(C0).upgrades, 1);
        assert!(m.counters(C1).snoop_invalidations >= 1);
    }

    #[test]
    fn dirty_line_is_flushed_when_another_cpu_reads() {
        let mut m = machine();
        let a = PAddr::new(0xa000);
        m.data_access(C0, a, true, 1); // C0 holds it dirty
        let before_wb = m.counters(C0).writebacks;
        let out = m.data_access(C1, a, false, 1);
        assert_eq!(out.level, HitLevel::Memory);
        assert_eq!(
            m.counters(C0).writebacks,
            before_wb + 1,
            "owner flushed the dirty line"
        );
        // Both caches now share it clean; C0's next read hits.
        let again = m.data_access(C0, a, false, 1);
        assert_ne!(again.level, HitLevel::Memory);
    }

    #[test]
    fn write_miss_invalidates_other_copies() {
        let mut m = machine();
        let a = PAddr::new(0xb000);
        m.data_access(C1, a, false, 1);
        m.data_access(C0, a, true, 1); // ReadEx
        assert!(!m.l2_probe(C1, a.block()));
        // C1 reads again: misses (a sharing miss, in the paper's terms).
        let out = m.data_access(C1, a, false, 1);
        assert_eq!(out.level, HitLevel::Memory);
    }

    #[test]
    fn icache_page_flush_forces_refetch() {
        let mut m = machine();
        let a = PAddr::new(0x4000);
        m.fetch(C0, a, 4);
        assert!(m.icache_probe(C0, a.block()));
        let dropped = m.flush_icache_page(a.page());
        assert_eq!(dropped, 1);
        let out = m.fetch(C0, a, 4);
        assert_eq!(out.level, HitLevel::Memory);
    }

    #[test]
    fn uncached_reads_recorded_with_odd_addresses() {
        let mut m = machine();
        m.uncached_read(C0, PAddr::new(0x123));
        let recs = m.monitor().records();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].kind, BusKind::UncachedRead);
        assert!(recs[0].paddr.is_odd());
    }

    #[test]
    fn sync_ops_do_not_touch_the_monitor() {
        let mut m = machine();
        let before = m.monitor().len();
        let cycles = m.sync_op(C0);
        assert!(cycles >= 28);
        assert_eq!(m.monitor().len(), before);
        assert_eq!(m.counters(C0).sync_ops, 1);
    }

    #[test]
    fn earliest_cpu_tracks_clocks() {
        let mut m = machine();
        m.advance(C0, 100);
        assert_eq!(m.earliest_cpu(), CpuId(1));
        m.advance(CpuId(1), 50);
        m.advance(CpuId(2), 10);
        m.advance(CpuId(3), 10);
        assert_eq!(m.earliest_cpu(), CpuId(2));
    }

    #[test]
    fn dirty_victim_eviction_writes_back() {
        let mut m = machine();
        // Write a block, then evict it from the 256KB DM L2 by touching
        // the conflicting block 256KB away.
        let a = PAddr::new(0x10_0000);
        m.data_access(C0, a, true, 1);
        let conflict = PAddr::new(0x10_0000 + 256 * 1024);
        m.data_access(C0, conflict, false, 1);
        assert_eq!(m.counters(C0).writebacks, 1);
        assert!(!m.l2_probe(C0, a.block()));
    }

    #[test]
    fn snapshot_roundtrip_resumes_bit_exactly() {
        let mut m = machine();
        // Mixed traffic: fills, upgrades, snoops, write-backs, sync ops,
        // uncached reads, TLB state.
        for i in 0..500u64 {
            let cpu = m.earliest_cpu();
            match i % 5 {
                0 => {
                    m.fetch(cpu, PAddr::new(0x2000 + (i % 97) * 64), 4);
                }
                1 => {
                    m.data_access(cpu, PAddr::new(0x8000 + (i % 61) * 4096), i % 3 == 0, 1);
                }
                2 => {
                    m.sync_op(cpu);
                }
                3 => {
                    m.uncached_read(cpu, PAddr::new(0x123 + i * 2));
                }
                _ => {
                    m.tlb_mut(cpu).insert(
                        crate::addr::Vpn((i % 80) as u32),
                        Ppn((i % 40) as u32),
                        (i % 3) as u32,
                    );
                }
            }
        }
        let mut w = SnapWriter::new();
        m.save_snapshot(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let mut m2 =
            Machine::restore_snapshot(m.config().clone(), BufferMode::Unbounded, &mut r).unwrap();
        r.expect_end().unwrap();

        // The restored machine serializes identically...
        let mut w2 = SnapWriter::new();
        m2.save_snapshot(&mut w2);
        assert_eq!(bytes, w2.into_bytes());

        // ...and both worlds evolve identically from here.
        for i in 0..200u64 {
            let (c1, c2) = (m.earliest_cpu(), m2.earliest_cpu());
            assert_eq!(c1, c2);
            let a = PAddr::new(0x8000 + (i % 61) * 4096);
            let o1 = m.data_access(c1, a, i % 2 == 0, 1);
            let o2 = m2.data_access(c2, a, i % 2 == 0, 1);
            assert_eq!(o1, o2, "step {i}");
        }
        assert_eq!(m.monitor().records(), m2.monitor().records());
    }

    #[test]
    fn mesi_state_probe_tracks_protocol() {
        for config in [
            MachineConfig::sgi_4d340(),
            MachineConfig::mesi_dir_bus_equivalent(4),
        ] {
            let mut m = Machine::new(config);
            let a = PAddr::new(0xc000);
            assert_eq!(m.mesi_state(C0, a.block()), MesiState::Invalid);
            m.data_access(C0, a, false, 1);
            assert_eq!(m.mesi_state(C0, a.block()), MesiState::Exclusive);
            m.data_access(C1, a, false, 1);
            assert_eq!(m.mesi_state(C0, a.block()), MesiState::Shared);
            assert_eq!(m.mesi_state(C1, a.block()), MesiState::Shared);
            m.data_access(C1, a, true, 1);
            assert_eq!(m.mesi_state(C1, a.block()), MesiState::Modified);
            assert_eq!(m.mesi_state(C0, a.block()), MesiState::Invalid);
        }
    }

    #[test]
    fn silent_exclusive_to_modified_needs_no_traffic() {
        // The E→M transition is silent on both backends: the snoop
        // suppresses the upgrade because no other cache holds the line,
        // the directory because the requester is the sole sharer.
        for config in [MachineConfig::sgi_4d340(), MachineConfig::mesi_dir(4)] {
            let mut m = Machine::new(config);
            let a = PAddr::new(0xd000);
            m.data_access(C0, a, false, 1);
            let before = m.monitor().len();
            let out = m.data_access(C0, a, true, 1);
            assert!(!out.upgraded);
            assert_eq!(m.monitor().len(), before, "E→M is invisible");
            assert_eq!(m.mesi_state(C0, a.block()), MesiState::Modified);
        }
    }

    #[test]
    fn bus_equivalent_directory_matches_snoop_cycle_for_cycle() {
        let mut snoop = Machine::new(MachineConfig::sgi_4d340());
        let mut dir = Machine::new(MachineConfig::mesi_dir_bus_equivalent(4));
        for i in 0..3000u64 {
            let cpu = snoop.earliest_cpu();
            assert_eq!(cpu, dir.earliest_cpu(), "step {i}");
            let (o1, o2) = match i % 7 {
                0 | 1 => {
                    let a = PAddr::new(0x2000 + (i % 113) * 16);
                    (snoop.fetch(cpu, a, 4), dir.fetch(cpu, a, 4))
                }
                6 => {
                    let a = PAddr::new(0x123 + i * 2);
                    (snoop.uncached_read(cpu, a), dir.uncached_read(cpu, a))
                }
                _ => {
                    // Small shared region: plenty of upgrades, sharing
                    // misses and dirty-owner flushes.
                    let a = PAddr::new(0x8000 + (i % 37) * 4096);
                    let w = i % 3 == 0;
                    (
                        snoop.data_access(cpu, a, w, 1),
                        dir.data_access(cpu, a, w, 1),
                    )
                }
            };
            assert_eq!(o1, o2, "step {i}");
        }
        assert_eq!(snoop.monitor().records(), dir.monitor().records());
        let (si, di) = (snoop.interconnect(), dir.interconnect());
        assert_eq!(si.transactions, di.transactions);
        assert_eq!(si.arbitration_wait, di.arbitration_wait);
        assert!(si.dir.is_none());
        let stats = di.dir.expect("directory reports message stats");
        assert!(stats.upgrades > 0 && stats.forwards > 0 && stats.invals_sent > 0);
    }

    #[test]
    fn directory_snapshot_roundtrips() {
        let mut m = Machine::new(MachineConfig::mesi_dir(8));
        for i in 0..800u64 {
            let cpu = m.earliest_cpu();
            m.data_access(cpu, PAddr::new(0x8000 + (i % 53) * 4096), i % 3 == 0, 1);
        }
        let mut w = SnapWriter::new();
        m.save_snapshot(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let m2 =
            Machine::restore_snapshot(m.config().clone(), BufferMode::Unbounded, &mut r).unwrap();
        r.expect_end().unwrap();
        let mut w2 = SnapWriter::new();
        m2.save_snapshot(&mut w2);
        assert_eq!(bytes, w2.into_bytes());
        assert_eq!(m2.interconnect(), m.interconnect());
    }

    #[test]
    fn banked_directory_overlaps_independent_homes() {
        let mut m = Machine::new(MachineConfig::mesi_dir(4));
        // Two CPUs miss simultaneously on blocks homed on different
        // banks: neither waits.
        m.data_access(C0, PAddr::new(0x10_0000), false, 1);
        m.data_access(C1, PAddr::new(0x10_0010), false, 1);
        let stats = m.interconnect().dir.unwrap();
        assert_eq!(stats.bank_wait, 0, "adjacent blocks land on distinct banks");
    }

    #[test]
    fn trace_times_are_monotone_per_engine_order() {
        let mut m = machine();
        for i in 0..50 {
            let cpu = m.earliest_cpu();
            m.data_access(cpu, PAddr::new(0x1_0000 + i * 4096), false, 1);
        }
        let recs = m.monitor().records();
        for w in recs.windows(2) {
            assert!(w[0].time <= w[1].time, "{:?} then {:?}", w[0], w[1]);
        }
    }
}
