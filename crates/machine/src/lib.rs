//! # oscar-machine
//!
//! An execution-driven simulator of the memory system of a bus-based,
//! cache-coherent multiprocessor in the style of the SGI POWER Station
//! 4D/340 measured in Torrellas, Gupta and Hennessy, *"Characterizing
//! the Caching and Synchronization Performance of a Multiprocessor
//! Operating System"* (ASPLOS 1992).
//!
//! The machine defaults to the paper's 4D/340 but every axis is a
//! first-class [`MachineConfig`] knob — CPU count (4…64 in the
//! scalability study), cache geometry, and the coherence backend:
//!
//! * per-CPU, a 64 KB direct-mapped instruction cache and a two-level
//!   data cache (64 KB write-through first level, 256 KB write-back
//!   second level), 16-byte blocks, physically addressed;
//! * either a shared memory bus with snooping write-invalidate
//!   coherence and a 35-cycle fill penalty
//!   ([`Coherence::Snoop`](config::Coherence)), or a banked
//!   directory/MESI fabric ([`Coherence::MesiDir`](config::Coherence),
//!   [`dir::DirFabric`]) with point-to-point invalidations and
//!   dirty-owner forwarding;
//! * a separate synchronization bus, invisible to the monitor;
//! * 64-entry fully-associative per-CPU TLBs managed by software;
//! * a bus monitor that records `(time, cpu, physical address, kind)`
//!   for every bus transaction into a bounded trace buffer.
//!
//! The crate simulates *tags and timing only*: no data values are
//! stored, which is all the paper's methodology requires.
//!
//! # Examples
//!
//! ```
//! use oscar_machine::{Machine, MachineConfig};
//! use oscar_machine::addr::{CpuId, PAddr};
//!
//! let mut m = Machine::new(MachineConfig::sgi_4d340());
//! // A cold fetch misses to the bus and is visible to the monitor...
//! let out = m.fetch(CpuId(0), PAddr::new(0x4_0000), 4);
//! assert!(out.missed_to_bus());
//! assert_eq!(m.monitor().len(), 1);
//! // ...while a synchronization operation is not.
//! m.sync_op(CpuId(0));
//! assert_eq!(m.monitor().len(), 1);
//! ```

pub mod addr;
pub mod bus;
pub mod cache;
pub mod config;
pub mod dir;
pub mod fasthash;
pub mod kindscan;
pub mod machine;
pub mod monitor;
pub mod snap;
pub mod tlb;

pub use addr::{BlockAddr, CpuId, PAddr, Ppn, VAddr, Vpn};
pub use bus::BusKind;
pub use config::{CacheConfig, Coherence, MachineConfig};
pub use dir::{DirFabric, DirStats};
pub use machine::{AccessOutcome, CpuCounters, HitLevel, InterconnectStats, Machine, MesiState};
pub use monitor::{BufferMode, BusRecord, TraceBuffer, TraceSink};
pub use snap::{SnapError, SnapReader, SnapWriter, SNAP_FORMAT_VERSION};
pub use tlb::{Tlb, TlbEntry};
