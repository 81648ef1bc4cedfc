//! Machine configuration.
//!
//! The defaults mirror the SGI POWER Station 4D/340 measured in the paper:
//! four 33 MHz MIPS R3000 CPUs, each with a 64 KB direct-mapped I-cache and
//! a two-level data cache (64 KB first level, 256 KB second level), 16-byte
//! blocks, 32 MB of main memory, and a 35-cycle bus service penalty.
//!
//! None of those numbers is baked in: CPU count, cache geometry and the
//! coherence scheme are first-class, sweepable axes. [`MachineConfig::validate`]
//! rejects shapes the simulator cannot model (so a bad flag fails in
//! milliseconds, not mid-run), and every field participates in the
//! checkpoint-cache key through the configuration's `Debug` rendering.

use std::fmt;
use std::str::FromStr;

use crate::addr::BLOCK_SIZE;

/// Which cache-coherence backend keeps the second-level data caches
/// consistent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Coherence {
    /// The 4D/340's write-invalidate snooping bus: every fill, upgrade
    /// and write-back arbitrates for one shared bus, and all other
    /// caches snoop it.
    #[default]
    Snoop,
    /// A directory-based MESI protocol: per-block owner/sharer state at
    /// interleaved home banks, point-to-point invalidation and
    /// forwarding messages, and per-bank (instead of whole-bus)
    /// occupancy. See `docs/COHERENCE.md`.
    MesiDir,
}

impl Coherence {
    /// The flag spelling (`snoop` / `mesi-dir`).
    pub fn label(self) -> &'static str {
        match self {
            Coherence::Snoop => "snoop",
            Coherence::MesiDir => "mesi-dir",
        }
    }
}

impl fmt::Display for Coherence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for Coherence {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "snoop" => Ok(Coherence::Snoop),
            "mesi-dir" | "mesi_dir" | "dir" => Ok(Coherence::MesiDir),
            other => Err(format!(
                "unknown coherence scheme `{other}` (snoop | mesi-dir)"
            )),
        }
    }
}

/// Geometry of a single cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (1 = direct-mapped).
    pub assoc: u32,
    /// Block (line) size in bytes.
    pub block_bytes: u64,
}

impl CacheConfig {
    /// A direct-mapped cache of `size_bytes` with 16-byte blocks.
    pub const fn direct_mapped(size_bytes: u64) -> Self {
        CacheConfig {
            size_bytes,
            assoc: 1,
            block_bytes: BLOCK_SIZE,
        }
    }

    /// A set-associative cache of `size_bytes` with 16-byte blocks.
    pub const fn set_associative(size_bytes: u64, assoc: u32) -> Self {
        CacheConfig {
            size_bytes,
            assoc,
            block_bytes: BLOCK_SIZE,
        }
    }

    /// Number of sets implied by this geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide evenly.
    pub fn num_sets(&self) -> u64 {
        self.checked_num_sets()
            .unwrap_or_else(|e| panic!("cache geometry must divide evenly: {e}"))
    }

    /// Number of sets implied by this geometry, or a description of why
    /// the geometry is unusable (the non-panicking form behind
    /// [`MachineConfig::validate`]).
    pub fn checked_num_sets(&self) -> Result<u64, String> {
        if self.block_bytes == 0 || !self.size_bytes.is_multiple_of(self.block_bytes) {
            return Err(format!(
                "{} bytes is not a whole number of {}-byte blocks",
                self.size_bytes, self.block_bytes
            ));
        }
        let lines = self.size_bytes / self.block_bytes;
        if lines == 0 || self.assoc == 0 || !lines.is_multiple_of(self.assoc as u64) {
            return Err(format!(
                "{} lines do not divide into {}-way sets",
                lines, self.assoc
            ));
        }
        Ok(lines / self.assoc as u64)
    }
}

/// The largest physical memory a machine may have: 64 GiB, the most
/// whose 16-byte block indices fit in 32 bits (the re-simulation miss
/// streams store them as `u32`).
pub const MAX_MEMORY_BYTES: u64 = 1 << 36;

/// The largest cache of one CPU: 16 MiB, 64 times the 4D/340's L2.
/// The analyzer mirrors every cache it is given, so a configuration
/// read from a trace header must not name a larger one.
pub const MAX_CACHE_BYTES: u64 = 16 << 20;

/// The largest total of every CPU's caches: 256 MiB (64 CPUs with
/// 4 MiB of cache each), which bounds the mirrors' memory.
pub const MAX_MACHINE_CACHE_BYTES: u64 = 256 << 20;

/// Full machine configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Number of CPUs on the bus.
    pub num_cpus: u8,
    /// Instruction cache geometry (per CPU).
    pub icache: CacheConfig,
    /// First-level data cache geometry (per CPU, write-through).
    pub l1d: CacheConfig,
    /// Second-level data cache geometry (per CPU, write-back, snooped).
    pub l2d: CacheConfig,
    /// Main memory size in bytes.
    pub memory_bytes: u64,
    /// CPU stall cycles charged per bus fill (the paper's estimate: 35).
    pub bus_fill_cycles: u64,
    /// Bus occupancy per transaction (arbitration + transfer).
    pub bus_occupancy_cycles: u64,
    /// Stall cycles for an L1-miss / L2-hit data access (invisible to the
    /// bus monitor, as in the real machine).
    pub l2_hit_cycles: u64,
    /// Cost in cycles of one uncached escape read (comparable to a miss).
    pub uncached_read_cycles: u64,
    /// Cost in cycles of one synchronization-bus operation.
    pub sync_op_cycles: u64,
    /// Nominal CPU clock in MHz (33 on the 4D/340); one cycle is 30 ns.
    pub clock_mhz: u32,
    /// Capacity of the hardware monitor's trace buffer, in records.
    /// The paper's monitor stores "over 2 million bus transactions".
    pub trace_buffer_records: usize,
    /// Number of clusters the CPUs are grouped into (1 = the flat
    /// bus-based machine of the paper; >1 models the DASH/Paradigm-style
    /// machines of the paper's Section 6).
    pub clusters: u8,
    /// Extra stall cycles for a fill whose home cluster differs from the
    /// requester's cluster (0 in the flat machine).
    pub remote_fill_extra: u64,
    /// Model a write buffer: write fills overlap with computation and
    /// stall the CPU for only this fraction (percent) of the fill
    /// penalty. 100 = no overlap (the paper's conservative stall
    /// estimate); the paper notes reality lies between full overlap and
    /// none.
    pub write_stall_pct: u8,
    /// Which coherence backend keeps the L2 data caches consistent.
    pub coherence: Coherence,
    /// Interleaved directory/memory banks (mesi-dir only): block `b`'s
    /// home bank is `b % dir_banks`, and occupancy is per bank instead
    /// of per machine.
    pub dir_banks: u16,
    /// Home-bank occupancy per directory message (mesi-dir): lookup +
    /// state update. Plays the role [`MachineConfig::bus_occupancy_cycles`]
    /// plays on the bus, but only serializes traffic to the same bank.
    pub dir_occupancy_cycles: u64,
    /// Requester stall for a clean two-hop directory fill (request →
    /// home → data). Slightly above the bus fill penalty: the
    /// point-to-point network adds a hop.
    pub dir_fill_cycles: u64,
    /// Extra requester stall when the home bank must intervene at a
    /// dirty owner (the three-hop forwarding case).
    pub dir_forward_cycles: u64,
}

impl MachineConfig {
    /// The configuration of the machine measured in the paper.
    pub fn sgi_4d340() -> Self {
        MachineConfig {
            num_cpus: 4,
            icache: CacheConfig::direct_mapped(64 * 1024),
            l1d: CacheConfig::direct_mapped(64 * 1024),
            l2d: CacheConfig::direct_mapped(256 * 1024),
            memory_bytes: 32 * 1024 * 1024,
            bus_fill_cycles: 35,
            bus_occupancy_cycles: 24,
            l2_hit_cycles: 14,
            uncached_read_cycles: 20,
            sync_op_cycles: 28,
            clock_mhz: 33,
            trace_buffer_records: 2_200_000,
            clusters: 1,
            remote_fill_extra: 0,
            write_stall_pct: 100,
            coherence: Coherence::Snoop,
            dir_banks: 4,
            dir_occupancy_cycles: 8,
            dir_fill_cycles: 42,
            dir_forward_cycles: 18,
        }
    }

    /// The 4D/340 scaled to `num_cpus` CPUs: same per-CPU cache
    /// hierarchy and timings, with memory grown in proportion (8 MB per
    /// CPU, exactly the 4D/340 at four CPUs) so weak-scaled workloads
    /// are not throttled by paging artifacts. The base configuration of
    /// the 4→64-CPU scalability study (`docs/SCALABILITY.md`).
    pub fn scaled(num_cpus: u8) -> Self {
        let mut c = Self::sgi_4d340();
        c.memory_bytes = (c.memory_bytes / 4) * num_cpus as u64;
        c.num_cpus = num_cpus;
        c
    }

    /// `num_cpus` CPUs under the directory/MESI backend with default
    /// directory timings.
    pub fn mesi_dir(num_cpus: u8) -> Self {
        let mut c = Self::scaled(num_cpus);
        c.coherence = Coherence::MesiDir;
        c
    }

    /// A directory configuration whose timing model degenerates to the
    /// snooping bus: one home bank and bus-equal service times. Under
    /// it the two backends are cycle-for-cycle identical — the anchor
    /// of the differential tests (`tests/scale.rs`), not a realistic
    /// machine.
    pub fn mesi_dir_bus_equivalent(num_cpus: u8) -> Self {
        let mut c = Self::mesi_dir(num_cpus);
        c.dir_banks = 1;
        c.dir_occupancy_cycles = c.bus_occupancy_cycles;
        c.dir_fill_cycles = c.bus_fill_cycles;
        c.dir_forward_cycles = c.bus_occupancy_cycles / 2;
        c
    }

    /// A clustered variant: `clusters` groups of CPUs with an extra
    /// inter-cluster fill penalty (Section 6's large machines).
    pub fn clustered(num_cpus: u8, clusters: u8, remote_fill_extra: u64) -> Self {
        let mut c = Self::sgi_4d340();
        c.num_cpus = num_cpus;
        c.clusters = clusters.max(1);
        c.remote_fill_extra = remote_fill_extra;
        c
    }

    /// Checks every knob against what the simulator can model. Called
    /// by `Machine::new` (which panics on a bad configuration) and by
    /// `oscar-reports` flag parsing (which turns the message into a
    /// clean usage error before any simulation starts).
    pub fn validate(&self) -> Result<(), String> {
        if self.num_cpus == 0 {
            return Err("a machine needs at least one CPU".into());
        }
        if self.coherence == Coherence::MesiDir && self.num_cpus as u32 > u64::BITS {
            return Err(format!(
                "mesi-dir tracks sharers in a 64-bit vector: {} CPUs > 64",
                self.num_cpus
            ));
        }
        for (name, cache) in [
            ("icache", &self.icache),
            ("l1d", &self.l1d),
            ("l2d", &self.l2d),
        ] {
            if cache.size_bytes > MAX_CACHE_BYTES {
                return Err(format!(
                    "{name}: {} bytes exceeds the {MAX_CACHE_BYTES}-byte cache limit",
                    cache.size_bytes
                ));
            }
            cache
                .checked_num_sets()
                .map_err(|e| format!("{name}: {e}"))?;
            if cache.block_bytes != BLOCK_SIZE {
                return Err(format!(
                    "{name}: the physical address map is fixed at {BLOCK_SIZE}-byte blocks \
                     (got {})",
                    cache.block_bytes
                ));
            }
        }
        let per_cpu = self.icache.size_bytes + self.l1d.size_bytes + self.l2d.size_bytes;
        if per_cpu * self.num_cpus as u64 > MAX_MACHINE_CACHE_BYTES {
            return Err(format!(
                "{} CPUs with {per_cpu} bytes of cache each exceed the \
                 {MAX_MACHINE_CACHE_BYTES}-byte machine cache limit",
                self.num_cpus
            ));
        }
        if self.l1d.size_bytes > self.l2d.size_bytes {
            return Err(format!(
                "the L2 must cover the L1 (inclusion): {} > {}",
                self.l1d.size_bytes, self.l2d.size_bytes
            ));
        }
        if self.memory_bytes == 0 || !self.memory_bytes.is_multiple_of(crate::addr::PAGE_SIZE) {
            return Err(format!(
                "memory_bytes must be a positive multiple of the {} B page",
                crate::addr::PAGE_SIZE
            ));
        }
        if self.memory_bytes > MAX_MEMORY_BYTES {
            return Err(format!(
                "memory_bytes {} exceeds the 64 GiB limit of 32-bit block indices; \
                 use at most {MAX_MEMORY_BYTES}",
                self.memory_bytes
            ));
        }
        if self.clusters == 0 || self.clusters > self.num_cpus {
            return Err(format!(
                "clusters must lie in 1..={} (got {})",
                self.num_cpus, self.clusters
            ));
        }
        if self.write_stall_pct > 100 {
            return Err(format!(
                "write_stall_pct is a percentage (got {})",
                self.write_stall_pct
            ));
        }
        if self.coherence == Coherence::MesiDir && self.dir_banks == 0 {
            return Err("mesi-dir needs at least one directory bank".into());
        }
        Ok(())
    }

    /// The cluster a CPU belongs to.
    pub fn cluster_of_cpu(&self, cpu: u8) -> u8 {
        let per = (self.num_cpus / self.clusters.max(1)).max(1);
        (cpu / per).min(self.clusters - 1)
    }

    /// Cycles per tick of the monitor's 60 ns counter (two 30 ns CPU
    /// cycles at 33 MHz).
    pub fn monitor_tick_cycles(&self) -> u64 {
        2
    }

    /// Total number of physical pages.
    pub fn num_pages(&self) -> u32 {
        (self.memory_bytes / crate::addr::PAGE_SIZE) as u32
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        Self::sgi_4d340()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_4d340() {
        let c = MachineConfig::default();
        assert_eq!(c.num_cpus, 4);
        assert_eq!(c.icache.num_sets(), 4096);
        assert_eq!(c.l1d.num_sets(), 4096);
        assert_eq!(c.l2d.num_sets(), 16384);
        assert_eq!(c.num_pages(), 8192);
        assert_eq!(c.bus_fill_cycles, 35);
        assert_eq!(c.clusters, 1);
    }

    #[test]
    fn clustered_cpu_mapping() {
        let c = MachineConfig::clustered(8, 2, 30);
        assert_eq!(c.cluster_of_cpu(0), 0);
        assert_eq!(c.cluster_of_cpu(3), 0);
        assert_eq!(c.cluster_of_cpu(4), 1);
        assert_eq!(c.cluster_of_cpu(7), 1);
        let odd = MachineConfig::clustered(6, 4, 30);
        // Uneven division clamps into range.
        for cpu in 0..6 {
            assert!(odd.cluster_of_cpu(cpu) < 4);
        }
    }

    #[test]
    fn set_associative_geometry() {
        let c = CacheConfig::set_associative(128 * 1024, 2);
        assert_eq!(c.num_sets(), 4096);
    }

    #[test]
    #[should_panic(expected = "divide evenly")]
    fn bad_geometry_panics() {
        CacheConfig {
            size_bytes: 100,
            assoc: 3,
            block_bytes: 16,
        }
        .num_sets();
    }

    #[test]
    fn coherence_parses_and_prints() {
        assert_eq!("snoop".parse::<Coherence>(), Ok(Coherence::Snoop));
        assert_eq!("mesi-dir".parse::<Coherence>(), Ok(Coherence::MesiDir));
        assert_eq!("dir".parse::<Coherence>(), Ok(Coherence::MesiDir));
        assert!("moesi".parse::<Coherence>().is_err());
        assert_eq!(Coherence::MesiDir.to_string(), "mesi-dir");
    }

    #[test]
    fn default_and_sweep_presets_validate() {
        MachineConfig::sgi_4d340().validate().unwrap();
        for n in [4u8, 8, 16, 32, 64] {
            MachineConfig::scaled(n).validate().unwrap();
            MachineConfig::mesi_dir(n).validate().unwrap();
            MachineConfig::mesi_dir_bus_equivalent(n)
                .validate()
                .unwrap();
        }
        MachineConfig::clustered(16, 4, 40).validate().unwrap();
    }

    #[test]
    fn validate_rejects_bad_knobs() {
        let reject = |f: &dyn Fn(&mut MachineConfig), needle: &str| {
            let mut c = MachineConfig::sgi_4d340();
            f(&mut c);
            let err = c.validate().expect_err(needle);
            assert!(err.contains(needle), "{err:?} should mention {needle:?}");
        };
        reject(&|c| c.num_cpus = 0, "at least one CPU");
        reject(
            &|c| {
                c.coherence = Coherence::MesiDir;
                c.num_cpus = 65;
            },
            "64",
        );
        reject(&|c| c.l2d.block_bytes = 32, "16-byte blocks");
        reject(&|c| c.l1d.size_bytes = 2 * 1024 * 1024, "inclusion");
        reject(&|c| c.memory_bytes = 100, "page");
        reject(&|c| c.clusters = 9, "clusters");
        reject(&|c| c.write_stall_pct = 101, "percentage");
        reject(
            &|c| {
                c.coherence = Coherence::MesiDir;
                c.dir_banks = 0;
            },
            "directory bank",
        );
        reject(&|c| c.icache.size_bytes = 100, "icache");
        reject(&|c| c.l2d.size_bytes = 1 << 40, "l2d");
        reject(
            &|c| {
                c.num_cpus = 255;
                c.l2d.size_bytes = 4 << 20;
            },
            "machine cache limit",
        );
    }

    #[test]
    fn validate_caps_memory_at_64_gib() {
        let mut c = MachineConfig::sgi_4d340();
        c.memory_bytes = MAX_MEMORY_BYTES;
        c.validate().expect("64 GiB is the largest valid memory");
        c.memory_bytes = MAX_MEMORY_BYTES + crate::addr::PAGE_SIZE;
        let err = c.validate().expect_err("past 64 GiB");
        assert!(
            err.contains("64 GiB") && err.contains(&MAX_MEMORY_BYTES.to_string()),
            "{err}"
        );
    }

    #[test]
    fn bus_equivalent_preset_mirrors_bus_timings() {
        let c = MachineConfig::mesi_dir_bus_equivalent(4);
        assert_eq!(c.dir_banks, 1);
        assert_eq!(c.dir_occupancy_cycles, c.bus_occupancy_cycles);
        assert_eq!(c.dir_fill_cycles, c.bus_fill_cycles);
        assert_eq!(c.dir_forward_cycles, c.bus_occupancy_cycles / 2);
    }
}
