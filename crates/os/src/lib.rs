//! # oscar-os
//!
//! A System V–style multithreaded kernel model in the shape of IRIX 3.2,
//! running on the [`oscar_machine`] simulator. This is the *system under
//! measurement* for the reproduction of Torrellas, Gupta and Hennessy,
//! *"Characterizing the Caching and Synchronization Performance of a
//! Multiprocessor Operating System"* (ASPLOS 1992).
//!
//! The kernel executes mechanistically: every system call, fault and
//! interrupt is a sequence of instruction fetches over a synthetic
//! symbol table ([`layout`]) and data accesses to the structures of the
//! paper's Table 3 (process table, user structures, kernel stacks,
//! `pfdat`, buffer cache, inodes, run queue, ...), with the named locks
//! of Table 11 ([`locks`]) protecting them. It instruments itself with
//! the escape-reference scheme of the paper's Section 2.2
//! ([`instrument`]), so the postprocessor in `oscar-core` can recover
//! everything from the bus trace alone.
//!
//! # Examples
//!
//! ```
//! use oscar_machine::{Machine, MachineConfig};
//! use oscar_os::{OsWorld, OsTuning};
//! use oscar_os::user::{ScriptTask, UOp, segs};
//!
//! let mut m = Machine::new(MachineConfig::sgi_4d340());
//! let mut os = OsWorld::new(4, 32 * 1024 * 1024, OsTuning::default());
//! os.spawn_initial(Box::new(ScriptTask::new(
//!     "hello",
//!     vec![UOp::run(segs::TEXT_BASE, 256)],
//! )));
//! os.emit_trace_start(&mut m);
//! for _ in 0..10_000 {
//!     if !os.step_earliest(&mut m) {
//!         break;
//!     }
//! }
//! assert!(os.stats().total_cycles().total() > 0);
//! ```

mod engine;
pub mod exec;
pub mod fs;
pub mod instrument;
pub mod kernel;
pub mod layout;
pub mod locks;
mod paths;
pub mod proc;
pub mod sched;
pub mod snap;
pub mod stats;
pub mod types;
pub mod user;
pub mod vm;

pub use engine::{EngineStats, StepClass, NUM_STEP_CLASSES};
pub use exec::NUM_KOP_KINDS;
pub use instrument::{opcode_label, BlockOpKind, OsEvent, NUM_OPCODES};
pub use kernel::{KernelObsReport, KernelProbes, OsTuning, OsWorld};
pub use layout::{KernelRegion, Layout, Rid, Subsystem, Symbol};
pub use locks::{FamilyStats, LockFamily, LockId, LockObsStats, LockPhase, LockSpan, LockTable};
pub use paths::shm_base_vpn;
pub use sched::{SchedObs, SchedPolicy};
pub use snap::{TaskFactory, TaskRestorer, TaskSaver};
pub use stats::OsStats;
pub use types::{AttrCtx, BlockSizeClass, Mode, OpClass, Pid, ProcSlot};
pub use user::{ExecImage, SysReq, TaskEnv, UOp, UserTask};
