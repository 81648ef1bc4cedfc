//! Kernel code paths: frame builders for system calls, faults and
//! interrupts, and the handlers for deferred [`KCall`] decision points.
//!
//! Every path is composed of instruction-fetch windows over the symbol
//! table of [`crate::layout`] plus data accesses to the kernel
//! structures of Table 3, so the misses the paper attributes to
//! structures and routines arise mechanistically from execution.

use oscar_machine::addr::{CpuId, PAddr, Ppn, Vpn, PAGE_SIZE};
use oscar_machine::machine::Machine;
use oscar_rng::Rng;

use crate::exec::{Chan, Disposition, KCall, KFrame, KOp, PageInit, DISK_NO_BUF};
use crate::fs::GetBlk;
use crate::instrument::{BlockOpKind, OsEvent};
use crate::kernel::{FrameLoc, OsWorld};
use crate::layout::{sizes, Rid};
use crate::locks::{LockFamily, LockId};
use crate::proc::{ProcState, Pte};
use crate::types::{AttrCtx, OpClass, ProcSlot};
use crate::user::{segs, ExecImage, SysReq};
use crate::vm::{FrameAlloc, FrameUse};

fn runqlk(queue: usize) -> LockId {
    LockId::new(LockFamily::Runqlk, queue as u32)
}
const MEMLOCK: LockId = LockId {
    family: LockFamily::Memlock,
    instance: 0,
};
const IFREE: LockId = LockId {
    family: LockFamily::Ifree,
    instance: 0,
};
const DFBMAPLK: LockId = LockId {
    family: LockFamily::Dfbmaplk,
    instance: 0,
};
const BFREELOCK: LockId = LockId {
    family: LockFamily::Bfreelock,
    instance: 0,
};
const CALOCK: LockId = LockId {
    family: LockFamily::Calock,
    instance: 0,
};

fn ino_lock(inode: u32) -> LockId {
    LockId::new(LockFamily::Ino, inode % sizes::NINODE as u32)
}

fn shr_lock(slot: ProcSlot) -> LockId {
    LockId::new(LockFamily::Shr, slot.0 as u32)
}

/// Shared-memory vpn convention: segment `s` occupies a 4 MB window at
/// `SHM_BASE + 4s MB` (1024 pages per segment).
fn shm_seg_of(vpn: Vpn) -> (u32, u32) {
    let rel = vpn.0 - segs::SHM_BASE.page().0;
    (rel / 1024, rel % 1024)
}

/// Virtual base page of shared segment `seg`.
pub fn shm_base_vpn(seg: u32) -> Vpn {
    Vpn(segs::SHM_BASE.page().0 + seg * 1024)
}

impl OsWorld {
    // ----- small op-sequence helpers -------------------------------

    fn pt_entry_addr(&self, slot: ProcSlot, vpn: Vpn) -> PAddr {
        self.layout
            .page_table(slot)
            .add(((vpn.0 as u64) % (sizes::PAGE_TABLE / 4)) * 4)
    }

    fn eframe_target(&self, cpu: CpuId) -> PAddr {
        match self.cpus[cpu.index()].running {
            Some(slot) => self.layout.eframe(slot),
            // Interrupts in the idle loop save into a per-CPU area of
            // the kernel globals.
            None => self.layout.misc_data().add(256 * cpu.index() as u64),
        }
    }

    fn eframe_save_ops(&self, target: PAddr) -> Vec<KOp> {
        vec![
            KOp::Escape(OsEvent::CtxEnter(AttrCtx::LowLevelException)),
            self.win(Rid::VecGeneral),
            self.win(Rid::ExcSave),
            KOp::sweep(target, sizes::EFRAME, 16, true),
            KOp::Escape(OsEvent::CtxExit),
        ]
    }

    /// Kernel-stack activity at handler entry: frames pushed for locals
    /// and saved registers (a prime migration-miss source in the paper).
    fn kstack_ops(&self, slot: ProcSlot, write: bool) -> Vec<KOp> {
        vec![KOp::sweep(
            self.layout.kernel_stack(slot).add(1024),
            192,
            16,
            write,
        )]
    }

    fn eframe_restore_ops(&self, target: PAddr) -> Vec<KOp> {
        vec![
            KOp::Escape(OsEvent::CtxEnter(AttrCtx::LowLevelException)),
            self.win(Rid::ExcRestore),
            KOp::sweep(target, sizes::EFRAME, 16, false),
            KOp::Escape(OsEvent::CtxExit),
        ]
    }

    fn syscall_prologue(&mut self, slot: ProcSlot) -> Vec<KOp> {
        let mut ops = self.eframe_save_ops(self.layout.eframe(slot));
        ops.extend(self.kstack_ops(slot, true));
        ops.push(self.win_part(Rid::TrapDispatch, 0, 2));
        ops.push(self.win(Rid::SyscallEntry));
        // Argument validation / accounting: branchy low-density code.
        ops.push(self.cold_win(Rid::ColdMisc, 1536));
        ops.push(KOp::read(self.layout.u_rest(slot).add(8)));
        // Credential checks and accounting touch the proc entry — a
        // sharing-miss source when the process migrates.
        ops.push(KOp::read(self.layout.proc_entry(slot).add(8)));
        ops.push(KOp::write(self.layout.proc_entry(slot).add(200)));
        ops
    }

    fn syscall_epilogue(&self, slot: ProcSlot) -> Vec<KOp> {
        let mut ops = vec![
            self.win(Rid::SyscallExit),
            KOp::write(self.layout.u_rest(slot).add(16)),
            KOp::read(self.layout.proc_entry(slot).add(72)),
            KOp::write(self.layout.kernel_stack(slot).add(128)),
            KOp::read(self.layout.kernel_stack(slot).add(128)),
        ];
        ops.extend(self.eframe_restore_ops(self.layout.eframe(slot)));
        ops
    }

    /// `setrq` operations for one enqueue (the caller holds `Runqlk`).
    fn setrq_body_ops(&self, target: ProcSlot) -> Vec<KOp> {
        vec![
            self.win(Rid::Setrq),
            KOp::write(self.layout.run_queue()),
            KOp::write(self.layout.proc_entry(target).add(16)),
            KOp::write(self.layout.proc_entry(target).add(32)),
        ]
    }

    /// Block copy: the `bcopy` routine sweeping `bytes` from `src` to
    /// `dst` (or a cache-bypassing transfer under the ablation knob).
    pub(crate) fn bcopy_ops(&mut self, src: PAddr, dst: PAddr, bytes: u64) -> Vec<KOp> {
        self.stats.count_block_op(BlockOpKind::Copy, bytes);
        let mut ops = vec![
            KOp::Escape(OsEvent::CtxEnter(AttrCtx::BlockCopy)),
            KOp::Escape(OsEvent::BlockOp {
                kind: BlockOpKind::Copy,
                bytes: bytes as u32,
            }),
            self.win(Rid::Bcopy),
        ];
        if self.tuning.block_op_bypass {
            // Pay the transfer latency without polluting the caches.
            ops.push(KOp::Compute {
                cycles: 10 + (bytes / 16) * 9,
            });
        } else {
            ops.push(KOp::sweep(src, bytes, 16, false));
            ops.push(KOp::sweep(dst, bytes, 16, true));
        }
        ops.push(KOp::Escape(OsEvent::CtxExit));
        ops
    }

    /// Block clear: the `bzero` routine sweeping `bytes` at `dst`.
    pub(crate) fn bclear_ops(&mut self, dst: PAddr, bytes: u64) -> Vec<KOp> {
        self.stats.count_block_op(BlockOpKind::Clear, bytes);
        let mut ops = vec![
            KOp::Escape(OsEvent::CtxEnter(AttrCtx::BlockClear)),
            KOp::Escape(OsEvent::BlockOp {
                kind: BlockOpKind::Clear,
                bytes: bytes as u32,
            }),
            self.win(Rid::Bclear),
        ];
        if self.tuning.block_op_bypass {
            ops.push(KOp::Compute {
                cycles: 8 + (bytes / 16) * 6,
            });
        } else {
            ops.push(KOp::sweep(dst, bytes, 16, true));
        }
        ops.push(KOp::Escape(OsEvent::CtxExit));
        ops
    }

    /// Buffer-cache lookup ops. Returns the buffer index plus the
    /// operations (including disk I/O and sleep on a miss).
    /// `read_io` controls whether a miss reads the block from disk
    /// (false for whole-block overwrites).
    fn getblk_ops(&mut self, key: (u32, u32), read_io: bool) -> (usize, Vec<KOp>) {
        let hash = ((key.0 as u64 * 31 + key.1 as u64) % sizes::NBUF) as usize;
        let mut ops = vec![
            self.win(Rid::GetBlk),
            KOp::Lock(BFREELOCK),
            KOp::read(self.layout.buf_hdr(hash)),
            KOp::read(self.layout.buf_hdr((hash + 1) % sizes::NBUF as usize)),
        ];
        match self.bufcache.getblk(key) {
            GetBlk::Hit(b) => {
                self.stats.buffer_hits += 1;
                ops.push(KOp::read(self.layout.buf_hdr(b)));
                ops.push(KOp::Unlock(BFREELOCK));
                if self.bufcache.is_busy(b) {
                    // Another process's I/O is in flight; wait for it.
                    ops.push(self.win(Rid::BioWait));
                    ops.push(KOp::Call(KCall::Sleep { chan: Chan::Buf(b) }));
                }
                (b, ops)
            }
            GetBlk::Miss { buf, flushed_dirty } => {
                self.stats.buffer_misses += 1;
                ops.push(KOp::write(self.layout.buf_hdr(buf)));
                ops.push(KOp::Unlock(BFREELOCK));
                if flushed_dirty {
                    ops.push(self.win(Rid::BWrite));
                    ops.push(KOp::Call(KCall::DiskEnqueue {
                        buf: DISK_NO_BUF,
                        write: true,
                        seq: false,
                    }));
                }
                if read_io {
                    let seq = self.last_disk_key == Some((key.0, key.1.wrapping_sub(1)));
                    self.last_disk_key = Some(key);
                    ops.push(self.win(Rid::BRead));
                    ops.push(self.win_part(Rid::DkStrategy, 0, 1));
                    ops.push(self.win_part(Rid::ScsiCmd, 0, 2));
                    ops.push(self.cold_win(Rid::ColdDriver, 2048));
                    ops.push(KOp::Call(KCall::DiskEnqueue {
                        buf,
                        write: false,
                        seq,
                    }));
                    // breada: a sequential reader also schedules the
                    // next block asynchronously.
                    if self.tuning.read_ahead && seq {
                        let next = (key.0, key.1 + 1);
                        if !self.bufcache.probe(next) {
                            if let GetBlk::Miss {
                                buf: rbuf,
                                flushed_dirty,
                            } = self.bufcache.getblk(next)
                            {
                                self.stats.readaheads += 1;
                                ops.push(KOp::write(self.layout.buf_hdr(rbuf)));
                                if flushed_dirty {
                                    ops.push(KOp::Call(KCall::DiskEnqueue {
                                        buf: DISK_NO_BUF,
                                        write: true,
                                        seq: false,
                                    }));
                                }
                                ops.push(KOp::Call(KCall::DiskEnqueue {
                                    buf: rbuf,
                                    write: false,
                                    seq: true,
                                }));
                            }
                        }
                    }
                    ops.push(self.win(Rid::BioWait));
                    ops.push(KOp::Call(KCall::Sleep {
                        chan: Chan::Buf(buf),
                    }));
                } else {
                    self.bufcache.io_done(buf);
                }
                (buf, ops)
            }
        }
    }

    /// In-core inode activation ops (`iget`): every activation takes
    /// `Ifree`, which is why the paper finds it among the most
    /// frequently acquired locks.
    fn iget_ops(&mut self, inode: u32) -> Vec<KOp> {
        let addr = self.layout.inode(inode as usize % sizes::NINODE as usize);
        let mut ops = vec![self.win(Rid::IGet), KOp::Lock(IFREE), KOp::read(addr)];
        if !self.incore_inodes.contains_key(&inode) {
            if self.incore_inodes.len() >= sizes::NINODE as usize {
                // Steal the oldest in-core inode (deterministic enough).
                if let Some(&victim) = self.incore_inodes.keys().next() {
                    self.incore_inodes.remove(&victim);
                }
            }
            self.incore_inodes.insert(inode, inode as usize);
            ops.push(KOp::write(addr));
            ops.push(KOp::write(addr.add(64)));
            // Read the on-disk inode through the buffer cache.
            let (_, bops) = self.getblk_ops((u32::MAX - 1, inode / 16), true);
            ops.push(KOp::Unlock(IFREE));
            ops.extend(bops);
        } else {
            ops.push(KOp::write(addr.add(8)));
            ops.push(KOp::Unlock(IFREE));
        }
        ops
    }

    // ----- interrupt frames ----------------------------------------

    pub(crate) fn build_clock_frame(&mut self, cpu: CpuId) -> KFrame {
        let target = self.eframe_target(cpu);
        let mut ops = self.eframe_save_ops(target);
        ops.push(self.win(Rid::IntrDispatch));
        ops.push(self.win(Rid::ClockIntr));
        ops.push(self.cold_win(Rid::ColdMisc, 1024));
        ops.push(KOp::write(self.layout.misc_data().add(0)));
        ops.push(KOp::write(self.layout.misc_data().add(16)));
        ops.push(self.win(Rid::QuantumTick));
        ops.push(KOp::Call(KCall::ClockTick));
        ops.extend(self.eframe_restore_ops(target));
        KFrame::new(OpClass::Interrupt, ops)
    }

    /// An inter-CPU interrupt frame: the TLB-shootdown handler.
    pub(crate) fn build_ipi_frame(&mut self, cpu: CpuId) -> KFrame {
        let target = self.eframe_target(cpu);
        let mut ops = self.eframe_save_ops(target);
        ops.push(self.win(Rid::IntrDispatch));
        ops.push(self.win(Rid::TlbFlush));
        ops.push(KOp::read(self.layout.misc_data().add(96)));
        ops.extend(self.eframe_restore_ops(target));
        KFrame::new(OpClass::Interrupt, ops)
    }

    pub(crate) fn build_disk_frame(&mut self) -> KFrame {
        let cpu = self.disk_cpu;
        let target = self.eframe_target(cpu);
        let mut ops = self.eframe_save_ops(target);
        ops.push(self.win(Rid::IntrDispatch));
        ops.push(self.win_part(Rid::DkIntr, 0, 2));
        ops.push(self.win_part(Rid::ScsiDma, 0, 2));
        ops.push(self.cold_win(Rid::ColdDriver, 4096));
        ops.push(KOp::Call(KCall::DiskIntrDone));
        ops.extend(self.eframe_restore_ops(target));
        KFrame::new(OpClass::Interrupt, ops)
    }

    // ----- fault frames --------------------------------------------

    pub(crate) fn build_utlb_frame(&mut self, slot: ProcSlot, vpn: Vpn, write: bool) -> KFrame {
        if let Some(p) = &mut self.probes {
            p.utlb_refills += 1;
        }
        let ops = vec![
            self.win(Rid::VecUtlbMiss),
            KOp::read(self.pt_entry_addr(slot, vpn)),
            KOp::Call(KCall::TlbRefill { vpn: vpn.0, write }),
        ];
        KFrame::new(OpClass::UtlbFault, ops)
    }

    pub(crate) fn build_cow_fault_frame(&mut self, slot: ProcSlot, vpn: Vpn) -> KFrame {
        if let Some(p) = &mut self.probes {
            p.cow_faults += 1;
        }
        let src = self
            .procs
            .get(slot)
            .and_then(|p| p.page_table.get(&vpn))
            .map(|pte| pte.ppn.0)
            .expect("COW fault on unmapped page");
        let mut ops = self.eframe_save_ops(self.layout.eframe(slot));
        ops.push(self.win_part(Rid::TrapDispatch, 1, 2));
        ops.push(self.win(Rid::CowFault));
        ops.push(self.cold_win(Rid::ColdVm, 2048));
        ops.push(KOp::Lock(shr_lock(slot)));
        ops.push(KOp::read(self.pt_entry_addr(slot, vpn)));
        ops.push(KOp::Call(KCall::AllocPage {
            vpn: vpn.0,
            init: PageInit::CopyFrom(src),
        }));
        ops.push(KOp::Unlock(shr_lock(slot)));
        ops.extend(self.eframe_restore_ops(self.layout.eframe(slot)));
        KFrame::new(OpClass::ExpensiveTlbFault, ops)
    }

    // ----- system-call frames --------------------------------------

    /// Builds the kernel frame for a system call. Decisions that depend
    /// on kernel state (buffer hits, free inodes) are taken here, at
    /// trap time; decisions that depend on *future* state (I/O
    /// completion, child exits) become [`KCall`]s.
    pub(crate) fn build_syscall_frame(
        &mut self,
        _m: &mut Machine,
        _cpu: CpuId,
        slot: ProcSlot,
        req: SysReq,
    ) -> KFrame {
        match req {
            SysReq::Read { inode, bytes } => self.build_read(slot, inode, bytes, None),
            SysReq::Write { inode, bytes } => self.build_write(slot, inode, bytes, None, false),
            SysReq::SyncWrite { inode, bytes } => self.build_write(slot, inode, bytes, None, true),
            SysReq::ReadAt {
                inode,
                offset,
                bytes,
            } => self.build_read(slot, inode, bytes, Some(offset)),
            SysReq::WriteAt {
                inode,
                offset,
                bytes,
            } => self.build_write(slot, inode, bytes, Some(offset), false),
            SysReq::Open { inode, components } => self.build_open(slot, inode, components),
            SysReq::Close { inode } => self.build_close(slot, inode),
            SysReq::Sginap => {
                let mut ops = self.eframe_save_ops(self.layout.eframe(slot));
                ops.push(self.win(Rid::SyscallEntry));
                ops.push(self.win(Rid::SginapSys));
                ops.push(KOp::Call(KCall::Swtch(Disposition::Requeue)));
                ops.push(self.win(Rid::SyscallExit));
                ops.extend(self.eframe_restore_ops(self.layout.eframe(slot)));
                KFrame::new(OpClass::Sginap, ops)
            }
            SysReq::Fork { child } => {
                if let Some(p) = self.procs.get_mut(slot) {
                    p.pending_child = Some(child);
                }
                let mut ops = self.syscall_prologue(slot);
                ops.push(self.win(Rid::ForkSys));
                ops.push(self.cold_win(Rid::ColdMisc, 4096));
                ops.push(KOp::Call(KCall::ForkChild));
                ops.extend(self.syscall_epilogue(slot));
                KFrame::new(OpClass::OtherSyscall, ops)
            }
            SysReq::Exec { image } => {
                let mut ops = self.syscall_prologue(slot);
                let kstack = self.layout.kernel_stack(slot);
                let argsrc = self.user_io_buffer(slot, 0);
                ops.extend(self.bcopy_ops(argsrc, kstack.add(512), 192));
                ops.push(self.win(Rid::ExecSys));
                ops.push(self.cold_win(Rid::ColdMisc, 6144));
                ops.extend(self.iget_ops(image.inode));
                ops.push(KOp::Call(KCall::ExecReplace { image }));
                ops.extend(self.syscall_epilogue(slot));
                KFrame::new(OpClass::OtherSyscall, ops)
            }
            SysReq::Exit => {
                let mut ops = self.eframe_save_ops(self.layout.eframe(slot));
                ops.push(self.win_part(Rid::TrapDispatch, 0, 2));
                ops.push(self.win(Rid::SyscallEntry));
                ops.push(self.win(Rid::ExitSys));
                ops.push(KOp::Call(KCall::ExitFinish));
                ops.push(KOp::Call(KCall::Swtch(Disposition::Exit)));
                KFrame::new(OpClass::OtherSyscall, ops)
            }
            SysReq::Wait => {
                let mut ops = self.syscall_prologue(slot);
                ops.push(self.win(Rid::WaitSys));
                ops.push(KOp::Call(KCall::WaitCheck));
                ops.extend(self.syscall_epilogue(slot));
                KFrame::new(OpClass::OtherSyscall, ops)
            }
            SysReq::Brk { pages: _ } => {
                let mut ops = self.syscall_prologue(slot);
                ops.push(self.win(Rid::BrkSys));
                ops.push(self.win(Rid::GrowReg));
                ops.push(KOp::write(self.layout.u_rest(slot).add(64)));
                ops.extend(self.syscall_epilogue(slot));
                KFrame::new(OpClass::OtherSyscall, ops)
            }
            SysReq::ShmAttach { seg, pages } => {
                let mut ops = self.syscall_prologue(slot);
                ops.push(self.win(Rid::ShmAttach));
                ops.push(KOp::Lock(shr_lock(slot)));
                ops.push(KOp::sweep(
                    self.pt_entry_addr(slot, shm_base_vpn(seg)),
                    (pages as u64 * 4).min(sizes::PAGE_TABLE),
                    16,
                    true,
                ));
                ops.push(KOp::Call(KCall::ShmMap { seg, pages }));
                ops.push(KOp::Unlock(shr_lock(slot)));
                ops.extend(self.syscall_epilogue(slot));
                KFrame::new(OpClass::OtherSyscall, ops)
            }
            SysReq::SemOp { sem, delta } => {
                let semlock = LockId::singleton(LockFamily::Semlock);
                let mut ops = self.syscall_prologue(slot);
                ops.push(self.win(Rid::SemOp));
                ops.push(KOp::Lock(semlock));
                ops.push(KOp::read(
                    self.layout.misc_data().add(1024 + (sem as u64 % 64) * 16),
                ));
                ops.push(KOp::write(
                    self.layout.misc_data().add(1024 + (sem as u64 % 64) * 16),
                ));
                ops.push(KOp::Unlock(semlock));
                ops.push(KOp::Call(KCall::SemOpApply { sem, delta }));
                ops.extend(self.syscall_epilogue(slot));
                KFrame::new(OpClass::OtherSyscall, ops)
            }
            SysReq::PipeRead { pipe, bytes } => {
                let p = pipe as usize % self.pipes.len();
                let mut ops = self.syscall_prologue(slot);
                ops.push(self.win(Rid::PipeRead));
                ops.push(KOp::Lock(LockId::new(LockFamily::Pipe, p as u32)));
                ops.push(KOp::read(self.layout.pipe_buf(p)));
                ops.push(KOp::Unlock(LockId::new(LockFamily::Pipe, p as u32)));
                ops.push(KOp::Call(KCall::PipeXfer {
                    pipe: p,
                    bytes,
                    write: false,
                }));
                ops.extend(self.syscall_epilogue(slot));
                KFrame::new(OpClass::IoSyscall, ops)
            }
            SysReq::PipeWrite { pipe, bytes } => {
                let p = pipe as usize % self.pipes.len();
                let mut ops = self.syscall_prologue(slot);
                ops.push(self.win(Rid::PipeWrite));
                ops.push(KOp::Lock(LockId::new(LockFamily::Pipe, p as u32)));
                ops.push(KOp::read(self.layout.pipe_buf(p)));
                ops.push(KOp::Unlock(LockId::new(LockFamily::Pipe, p as u32)));
                ops.push(KOp::Call(KCall::PipeXfer {
                    pipe: p,
                    bytes,
                    write: true,
                }));
                ops.extend(self.syscall_epilogue(slot));
                KFrame::new(OpClass::IoSyscall, ops)
            }
            SysReq::TtyWrite { stream, bytes } => {
                let s = stream % 8;
                let lk = LockId::new(LockFamily::Streams, s);
                let buf = self.layout.pipe_buf(24 + s as usize % 8);
                let mut ops = self.syscall_prologue(slot);
                let src = self.user_io_buffer(slot, 0);
                ops.extend(self.bcopy_ops(
                    src,
                    self.layout.kernel_stack(slot).add(1024),
                    bytes.max(8) as u64,
                ));
                ops.push(self.win(Rid::StrWrite));
                ops.push(self.cold_win(Rid::ColdDriver, 2048));
                ops.push(KOp::Lock(lk));
                ops.push(self.win(Rid::StrPutq));
                ops.push(KOp::sweep(buf, (bytes.max(16)) as u64, 16, true));
                ops.push(KOp::Unlock(lk));
                ops.push(self.win_part(Rid::TtyOut, 0, 2));
                ops.extend(self.syscall_epilogue(slot));
                KFrame::new(OpClass::IoSyscall, ops)
            }
            SysReq::Nap { ticks } => {
                let mut ops = self.syscall_prologue(slot);
                ops.push(self.win(Rid::ItimerCheck));
                ops.push(KOp::Call(KCall::NapArm { ticks }));
                ops.extend(self.syscall_epilogue(slot));
                KFrame::new(OpClass::OtherSyscall, ops)
            }
            SysReq::SockRecv { bytes } => {
                // The network stack: long code paths (ip_input,
                // soreceive) plus an mbuf copy out to the user.
                let mut ops = self.syscall_prologue(slot);
                ops.push(self.win_part(Rid::NetInput, 0, 2));
                ops.push(self.win(Rid::SockRecv));
                ops.push(self.cold_win(Rid::ColdNet, 4096));
                ops.push(KOp::read(self.layout.pipe_buf(30)));
                let dst = self.user_io_buffer(slot, 1);
                let cops = self.bcopy_ops(
                    self.layout.pipe_buf(30),
                    dst,
                    (bytes.clamp(64, 4096)) as u64,
                );
                ops.extend(cops);
                ops.push(self.win_part(Rid::NetOutput, 0, 4));
                ops.extend(self.syscall_epilogue(slot));
                KFrame::new(OpClass::IoSyscall, ops)
            }
        }
    }

    fn build_read(&mut self, slot: ProcSlot, inode: u32, bytes: u32, at: Option<u64>) -> KFrame {
        let mut pos = at.unwrap_or_else(|| {
            self.procs
                .get(slot)
                .and_then(|p| p.files.get(&inode).copied())
                .unwrap_or(0)
        });
        let mut ops = self.syscall_prologue(slot);
        ops.push(KOp::Escape(OsEvent::CtxEnter(AttrCtx::ReadWriteSetup)));
        ops.push(self.win(Rid::ReadSys));
        ops.push(self.win(Rid::RdwrSetup));
        ops.push(KOp::read(self.layout.u_rest(slot).add(40)));
        ops.push(KOp::write(self.layout.u_rest(slot).add(104)));
        ops.push(self.win(Rid::CopyIn));
        ops.push(KOp::Escape(OsEvent::CtxExit));
        ops.push(KOp::Lock(ino_lock(inode)));
        ops.push(KOp::read(
            self.layout.inode(inode as usize % sizes::NINODE as usize),
        ));
        ops.push(self.win(Rid::Bmap));
        ops.push(self.cold_win(Rid::ColdFs, 4096));
        let mut remaining = bytes as u64;
        while remaining > 0 {
            let in_page = PAGE_SIZE - pos % PAGE_SIZE;
            let chunk = remaining
                .min(self.tuning.io_chunk_bytes as u64)
                .min(in_page);
            let key = (inode, (pos / PAGE_SIZE) as u32);
            let (b, bops) = self.getblk_ops(key, true);
            ops.extend(bops);
            if let Some(p) = &mut self.probes {
                p.io_chunks += 1;
            }
            ops.push(self.cold_win(Rid::ColdFs, 1024));
            ops.push(self.win(Rid::Uiomove));
            let src = self.layout.buf_data(b).add(pos % PAGE_SIZE);
            let dst_page = (pos / PAGE_SIZE) % 2;
            let dst = self.user_io_buffer(slot, dst_page).add(pos % PAGE_SIZE);
            ops.extend(self.bcopy_ops(src, dst, chunk));
            ops.push(self.win(Rid::BRelse));
            pos += chunk;
            remaining -= chunk;
        }
        ops.push(KOp::write(self.layout.u_rest(slot).add(48)));
        ops.push(KOp::Unlock(ino_lock(inode)));
        ops.extend(self.syscall_epilogue(slot));
        if at.is_none() {
            if let Some(p) = self.procs.get_mut(slot) {
                p.files.insert(inode, pos);
            }
        }
        KFrame::new(OpClass::IoSyscall, ops)
    }

    fn build_write(
        &mut self,
        slot: ProcSlot,
        inode: u32,
        bytes: u32,
        at: Option<u64>,
        sync: bool,
    ) -> KFrame {
        let mut pos = at.unwrap_or_else(|| {
            self.procs
                .get(slot)
                .and_then(|p| p.files.get(&inode).copied())
                .unwrap_or(0)
        });
        let mut ops = self.syscall_prologue(slot);
        ops.push(KOp::Escape(OsEvent::CtxEnter(AttrCtx::ReadWriteSetup)));
        ops.push(self.win(Rid::WriteSys));
        ops.push(self.win(Rid::RdwrSetup));
        ops.push(KOp::read(self.layout.u_rest(slot).add(40)));
        ops.push(KOp::write(self.layout.u_rest(slot).add(104)));
        ops.push(self.win(Rid::CopyIn));
        ops.push(KOp::Escape(OsEvent::CtxExit));
        ops.push(KOp::Lock(ino_lock(inode)));
        ops.push(KOp::read(
            self.layout.inode(inode as usize % sizes::NINODE as usize),
        ));
        ops.push(self.win(Rid::Bmap));
        ops.push(self.cold_win(Rid::ColdFs, 4096));
        let mut remaining = bytes as u64;
        let mut chunk_index = 0u64;
        let mut last_buf: Option<usize> = None;
        while remaining > 0 {
            let in_page = PAGE_SIZE - pos % PAGE_SIZE;
            let chunk = remaining
                .min(self.tuning.io_chunk_bytes as u64)
                .min(in_page);
            let size = self.file_sizes.get(&inode).copied().unwrap_or(0);
            let appending = pos >= size;
            if appending && pos.is_multiple_of(PAGE_SIZE) {
                // Allocate a fresh disk block for the file.
                ops.push(KOp::Lock(DFBMAPLK));
                ops.push(self.win(Rid::DiskBlkAlloc));
                ops.push(KOp::write(self.layout.misc_data().add(2048)));
                ops.push(KOp::Unlock(DFBMAPLK));
            }
            let key = (inode, (pos / PAGE_SIZE) as u32);
            // Whole-block overwrites and appends need no read I/O.
            let needs_read = !appending && chunk < PAGE_SIZE;
            let (b, bops) = self.getblk_ops(key, needs_read);
            ops.extend(bops);
            if let Some(p) = &mut self.probes {
                p.io_chunks += 1;
            }
            ops.push(self.win(Rid::Uiomove));
            let src_page = (pos / PAGE_SIZE) % 2;
            let src = self.user_io_buffer(slot, src_page).add(pos % PAGE_SIZE);
            let dst = self.layout.buf_data(b).add(pos % PAGE_SIZE);
            ops.extend(self.bcopy_ops(src, dst, chunk));
            self.bufcache.mark_dirty(b);
            last_buf = Some(b);
            let _ = chunk_index;
            pos += chunk;
            remaining -= chunk;
            chunk_index += 1;
            // Write-behind: a completed block goes to disk
            // asynchronously (the classic bawrite).
            if pos.is_multiple_of(PAGE_SIZE) {
                ops.push(self.win(Rid::BWrite));
                ops.push(KOp::Call(KCall::DiskEnqueue {
                    buf: b,
                    write: true,
                    seq: true,
                }));
                self.bufcache.mark_clean(b);
            }
            if pos > size {
                self.file_sizes.insert(inode, pos);
            }
        }
        // Synchronous writes (redo logs) wait for the final block to
        // reach the platter.
        if sync {
            if let Some(b) = last_buf {
                ops.push(self.win(Rid::BWrite));
                ops.push(KOp::Call(KCall::SyncWriteStart { buf: b }));
                ops.push(self.win(Rid::BioWait));
                ops.push(KOp::Call(KCall::Sleep { chan: Chan::Buf(b) }));
            }
        }
        ops.push(KOp::write(self.layout.u_rest(slot).add(48)));
        ops.push(KOp::write(
            self.layout
                .inode(inode as usize % sizes::NINODE as usize)
                .add(32),
        ));
        ops.push(KOp::Unlock(ino_lock(inode)));
        ops.extend(self.syscall_epilogue(slot));
        if at.is_none() {
            if let Some(p) = self.procs.get_mut(slot) {
                p.files.insert(inode, pos);
            }
        }
        KFrame::new(OpClass::IoSyscall, ops)
    }

    fn build_open(&mut self, slot: ProcSlot, inode: u32, components: u32) -> KFrame {
        let mut ops = self.syscall_prologue(slot);
        // copyin of the path string: an irregular block copy.
        let src = self.user_io_buffer(slot, 0);
        ops.extend(self.bcopy_ops(src, self.layout.kernel_stack(slot).add(256), 24));
        ops.push(self.win(Rid::OpenSys));
        ops.push(self.win(Rid::Namei));
        ops.push(self.cold_win(Rid::ColdFs, 3072));
        for c in 0..components.max(1) {
            ops.push(self.win_part(Rid::DirLookup, c % 2, 2));
            // Directory block read through the buffer cache.
            let (_, bops) = self.getblk_ops((1, inode.wrapping_add(c) % 64), true);
            ops.extend(bops);
        }
        ops.extend(self.iget_ops(inode));
        ops.push(self.win(Rid::FileAlloc));
        ops.push(KOp::write(self.layout.u_rest(slot).add(128)));
        ops.extend(self.syscall_epilogue(slot));
        if let Some(p) = self.procs.get_mut(slot) {
            p.files.entry(inode).or_insert(0);
        }
        KFrame::new(OpClass::OtherSyscall, ops)
    }

    fn build_close(&mut self, slot: ProcSlot, inode: u32) -> KFrame {
        let addr = self.layout.inode(inode as usize % sizes::NINODE as usize);
        let mut ops = self.syscall_prologue(slot);
        ops.push(self.win(Rid::CloseSys));
        ops.push(self.win(Rid::IPut));
        ops.push(KOp::Lock(IFREE));
        ops.push(KOp::write(addr.add(8)));
        ops.push(KOp::Unlock(IFREE));
        ops.push(KOp::write(self.layout.u_rest(slot).add(128)));
        ops.extend(self.syscall_epilogue(slot));
        if let Some(p) = self.procs.get_mut(slot) {
            p.files.remove(&inode);
        }
        KFrame::new(OpClass::OtherSyscall, ops)
    }

    // ----- context switching ---------------------------------------

    /// Builds and installs the dispatch frame for a context switch.
    pub(crate) fn do_swtch(&mut self, m: &mut Machine, cpu: CpuId, disp: Disposition) {
        let i = cpu.index();
        let old = self.cpus[i].running;
        let mut ops = vec![
            KOp::Escape(OsEvent::CtxEnter(AttrCtx::RunQueueMgmt)),
            self.win(Rid::Swtch),
        ];
        if let Some(oslot) = old {
            ops.push(self.win(Rid::SaveCtx));
            ops.push(KOp::sweep(self.layout.pcb(oslot), sizes::PCB, 16, true));
        }
        // State changes happen now; the memory traffic plays out in the
        // dispatch frame.
        let mut requeue_target = None;
        if let Some(oslot) = old {
            match disp {
                Disposition::Requeue => {
                    if let Some(p) = self.procs.get_mut(oslot) {
                        p.state = ProcState::Ready;
                    }
                    self.enqueue_proc(m, oslot);
                    requeue_target = Some(oslot);
                }
                Disposition::Sleep(chan) => {
                    if let Some(p) = self.procs.get_mut(oslot) {
                        p.state = ProcState::Sleeping(chan);
                    }
                }
                Disposition::Exit => {
                    let orphan = self
                        .procs
                        .get(oslot)
                        .is_some_and(|p| p.parent.and_then(|ps| self.procs.get(ps)).is_none());
                    if let Some(p) = self.procs.get_mut(oslot) {
                        p.state = ProcState::Zombie;
                        p.kstack.clear();
                        p.cur_uop = None;
                    }
                    if orphan {
                        self.procs.reap(oslot);
                    }
                }
                Disposition::FromIdle => unreachable!(),
            }
        }
        self.cpus[i].running = None;
        self.cpus[i].resched = false;
        let q = self.runq_index(cpu);
        ops.push(KOp::Lock(runqlk(q)));
        if let Some(t) = requeue_target {
            ops.extend(self.setrq_body_ops(t));
        }
        ops.push(self.win(Rid::PickProc));
        ops.push(KOp::read(self.layout.run_queue()));
        ops.push(KOp::Call(KCall::SwtchCommit));
        self.set_dispatch(cpu, KFrame::new(OpClass::OtherSyscall, ops));
    }

    /// Wakes all sleepers of `chan`, returning the `setrq` memory ops
    /// the waker executes.
    pub(crate) fn wakeup_ops(&mut self, m: &mut Machine, chan: Chan) -> Vec<KOp> {
        let sleepers = self.procs.sleepers(chan);
        if sleepers.is_empty() {
            return Vec::new();
        }
        let mut ops = Vec::new();
        for s in sleepers {
            if let Some(p) = self.procs.get_mut(s) {
                p.state = ProcState::Ready;
            }
            let q = self.enqueue_proc(m, s);
            ops.push(KOp::Lock(runqlk(q)));
            ops.extend(self.setrq_body_ops(s));
            ops.push(KOp::Unlock(runqlk(q)));
        }
        ops
    }

    /// Whether a sleep on `chan` is still warranted (closes lost-wakeup
    /// races for plan-ahead frames).
    fn sleep_condition_holds(&self, chan: Chan) -> bool {
        match chan {
            // Wait only for I/O that is actually outstanding: a buffer
            // marked busy by a frame that has not yet issued its disk
            // request must not be waited on (the issuer could itself be
            // blocked behind a lock the would-be waiter holds).
            Chan::Buf(b) => self.bufcache.is_busy(b) && self.disk.has_request(b),
            Chan::PipeData(p) => self.pipes[p] == 0,
            Chan::PipeSpace(p) => self.pipes[p] as u64 >= PAGE_SIZE,
            Chan::Timer(_) => self.callouts.iter().any(|c| c.chan == chan),
            Chan::Child(_) => true, // WaitCheck re-verifies
            Chan::Sem(s) => self.sems.get(&s).copied().unwrap_or(0) <= 0,
            Chan::InoWait(i) => self
                .locks
                .is_held(crate::locks::LockId::new(crate::locks::LockFamily::Ino, i)),
        }
    }

    // ----- KCall handlers ------------------------------------------

    pub(crate) fn handle_call(&mut self, m: &mut Machine, cpu: CpuId, loc: FrameLoc, call: KCall) {
        match call {
            KCall::Swtch(disp) => self.do_swtch(m, cpu, disp),
            KCall::SwtchCommit => self.swtch_commit(m, cpu),
            KCall::TlbRefill { vpn, write } => self.tlb_refill(m, cpu, loc, vpn, write),
            KCall::TlbInsert { vpn, ppn } => {
                let slot = self.cpus[cpu.index()].running.expect("process running");
                let asid = self.procs.get(slot).unwrap().pid.0;
                let index = m.tlb_mut(cpu).insert(Vpn(vpn), Ppn(ppn), asid) as u32;
                self.emit(
                    m,
                    cpu,
                    OsEvent::TlbSet {
                        index,
                        vpn,
                        ppn,
                        pid: asid,
                    },
                );
            }
            KCall::AllocPage { vpn, init } => self.alloc_page(m, cpu, loc, Vpn(vpn), init),
            KCall::SyncWriteStart { buf } => {
                let now = m.now(cpu);
                self.bufcache.set_busy(buf);
                self.bufcache.mark_clean(buf);
                self.catch_up_cpu(m, self.disk_cpu);
                self.assert_caught_up(m, self.disk_cpu, "sync-write disk submit");
                self.disk.submit(now, buf, true, true);
                self.stats.disk_writes += 1;
            }
            KCall::DiskEnqueue { buf, write, seq } => {
                let now = m.now(cpu);
                self.catch_up_cpu(m, self.disk_cpu);
                self.assert_caught_up(m, self.disk_cpu, "disk enqueue");
                self.disk.submit(now, buf, write, seq);
                if write {
                    self.stats.disk_writes += 1;
                } else {
                    self.stats.disk_reads += 1;
                }
            }
            KCall::Sleep { chan } => {
                if self.sleep_condition_holds(chan) {
                    self.do_swtch(m, cpu, Disposition::Sleep(chan));
                }
            }
            KCall::ForkChild => self.fork_child(m, cpu, loc),
            KCall::ExecReplace { image } => self.exec_replace(m, cpu, loc, image),
            KCall::ExecLoad { image, page } => self.exec_load(m, cpu, loc, image, page),
            KCall::ExitFinish => self.exit_finish(m, cpu, loc),
            KCall::WaitCheck => self.wait_check(m, cpu, loc),
            KCall::SemOpApply { sem, delta } => {
                let v = self.sems.entry(sem).or_insert(0);
                if delta < 0 && *v <= 0 {
                    let ops = vec![
                        KOp::Call(KCall::Sleep {
                            chan: Chan::Sem(sem),
                        }),
                        KOp::Call(KCall::SemOpApply { sem, delta }),
                    ];
                    self.frame_mut(cpu, loc).push_front_ops(ops);
                } else {
                    *v += delta as i64;
                    if delta > 0 {
                        let ops = self.wakeup_ops(m, Chan::Sem(sem));
                        self.frame_mut(cpu, loc).push_front_ops(ops);
                    }
                }
            }
            KCall::PipeXfer { pipe, bytes, write } => {
                self.pipe_xfer(m, cpu, loc, pipe, bytes, write)
            }
            KCall::NapArm { ticks } => {
                let slot = self.cpus[cpu.index()].running.expect("process running");
                let pid = self.procs.get(slot).unwrap().pid;
                let due_tick = self.global_tick + ticks.max(1) as u64;
                self.callouts.push(crate::kernel::Callout {
                    due_tick,
                    chan: Chan::Timer(pid),
                });
                let n = self.callouts.len().min(255) as u64;
                let ops = vec![
                    KOp::Lock(CALOCK),
                    self.win(Rid::AddCallout),
                    KOp::write(self.layout.callout().add(n * 16)),
                    KOp::Unlock(CALOCK),
                    KOp::Call(KCall::Sleep {
                        chan: Chan::Timer(pid),
                    }),
                ];
                self.frame_mut(cpu, loc).push_front_ops(ops);
            }
            KCall::ClockTick => self.clock_tick(m, cpu, loc),
            KCall::SchedCpuScan => {
                let live = self.procs.live().max(1) as u64;
                let span = (live * sizes::PROC_ENTRY).min(sizes::NPROC * sizes::PROC_ENTRY);
                let base = self.layout.proc_entry(ProcSlot(0));
                let ops = vec![
                    self.win(Rid::SchedCpu),
                    KOp::sweep(base, span, 64, false),
                    KOp::sweep(base.add(24), span, sizes::PROC_ENTRY as u32, true),
                ];
                self.frame_mut(cpu, loc).push_front_ops(ops);
            }
            KCall::DiskIntrDone => self.disk_intr_done(m, cpu, loc),
            KCall::ShmMap { seg, pages } => {
                self.frames.segment_mut(seg, pages);
            }
        }
    }

    fn swtch_commit(&mut self, _m: &mut Machine, cpu: CpuId) {
        let i = cpu.index();
        let quantum = self.tuning.quantum_ticks;
        let own = self.runq_index(cpu);
        let next = {
            let procs = &self.procs;
            let pick_from = |q: &mut crate::sched::RunQueue| {
                q.pick(
                    cpu,
                    |s| {
                        procs
                            .get(s)
                            .is_some_and(|p| p.pinned_cpu.is_none_or(|pin| pin == cpu))
                    },
                    |s| procs.get(s).and_then(|p| p.last_cpu),
                )
            };
            match pick_from(&mut self.runqs[own]) {
                Some(n) => Some(n),
                None => {
                    // Idle stealing across clusters for load balance.
                    let len = self.runqs.len();
                    (1..len)
                        .map(|d| (own + d) % len)
                        .find_map(|q| pick_from(&mut self.runqs[q]))
                }
            }
        };
        self.stats.dispatches += 1;
        let mut tail: Vec<KOp> = vec![KOp::Unlock(runqlk(own))];
        match next {
            Some(n) => {
                let migrated;
                {
                    let p = self.procs.get_mut(n).expect("picked process exists");
                    migrated = p.last_cpu.is_some_and(|c| c != cpu);
                    p.state = ProcState::Running(cpu);
                    p.last_cpu = Some(cpu);
                    p.quantum = quantum;
                }
                if migrated {
                    self.stats.migrations += 1;
                }
                self.cpus[i].running = Some(n);
                let pid = self.procs.get(n).unwrap().pid.0;
                tail.push(self.win(Rid::RestoreCtx));
                tail.push(KOp::sweep(self.layout.pcb(n), sizes::PCB, 16, false));
                tail.push(KOp::Escape(OsEvent::PidChange { pid }));
            }
            None => {
                tail.push(KOp::Escape(OsEvent::PidChange { pid: u32::MAX }));
            }
        }
        tail.push(KOp::Escape(OsEvent::CtxExit));
        self.frame_mut(cpu, FrameLoc::Dispatch).push_back_ops(tail);
    }

    fn tlb_refill(&mut self, m: &mut Machine, cpu: CpuId, loc: FrameLoc, vpn: u32, write: bool) {
        let slot = self.cpus[cpu.index()].running.expect("process running");
        let vpnn = Vpn(vpn);
        let pte = self.procs.get(slot).unwrap().page_table.get(&vpnn).copied();
        match pte {
            Some(p) if !(write && p.cow) => {
                let slow = {
                    let divisor = self.tuning.cheap_fault_divisor.max(1);
                    self.procs.get_mut(slot).unwrap().rng.gen_ratio(1, divisor)
                };
                if slow {
                    // Software reference-bit emulation: a full trap.
                    self.emit(m, cpu, OsEvent::OpReclass(OpClass::CheapTlbFault));
                    self.stats
                        .reclass(OpClass::UtlbFault, OpClass::CheapTlbFault);
                    let mut ops = self.eframe_save_ops(self.layout.eframe(slot));
                    ops.push(self.win(Rid::TlbMissSlow));
                    ops.push(KOp::read(self.pt_entry_addr(slot, vpnn)));
                    ops.push(KOp::write(self.pt_entry_addr(slot, vpnn)));
                    ops.push(self.win(Rid::TlbDropin));
                    ops.push(KOp::Call(KCall::TlbInsert { vpn, ppn: p.ppn.0 }));
                    ops.extend(self.eframe_restore_ops(self.layout.eframe(slot)));
                    self.frame_mut(cpu, loc).push_front_ops(ops);
                } else {
                    let ops = vec![
                        self.win(Rid::TlbDropin),
                        KOp::Call(KCall::TlbInsert { vpn, ppn: p.ppn.0 }),
                    ];
                    self.frame_mut(cpu, loc).push_front_ops(ops);
                }
            }
            other => {
                // Expensive fault: allocation or COW resolution.
                self.emit(m, cpu, OsEvent::OpReclass(OpClass::ExpensiveTlbFault));
                self.stats
                    .reclass(OpClass::UtlbFault, OpClass::ExpensiveTlbFault);
                let init = match other {
                    Some(p) if write && p.cow => PageInit::CopyFrom(p.ppn.0),
                    _ => PageInit::Zero,
                };
                let mut ops = self.eframe_save_ops(self.layout.eframe(slot));
                ops.push(self.win_part(Rid::TrapDispatch, 1, 2));
                ops.push(self.win(Rid::VFault));
                ops.push(self.cold_win(Rid::ColdVm, 3072));
                ops.push(KOp::Lock(shr_lock(slot)));
                ops.push(KOp::read(self.pt_entry_addr(slot, vpnn)));
                ops.push(KOp::Call(KCall::AllocPage { vpn, init }));
                ops.push(KOp::Unlock(shr_lock(slot)));
                ops.extend(self.eframe_restore_ops(self.layout.eframe(slot)));
                self.frame_mut(cpu, loc).push_front_ops(ops);
            }
        }
    }

    fn note_alloc_flush(&mut self, m: &mut Machine, cpu: CpuId, fa: &FrameAlloc) {
        // In cluster mode the frame's home is the faulting CPU's
        // cluster (first-touch placement).
        if self.tuning.clusters > 1 {
            m.set_page_home(fa.ppn, self.cluster_of(cpu));
        }
        if fa.needs_icache_flush {
            self.catch_up_others(m);
            for c in 0..self.num_cpus {
                self.assert_caught_up(m, CpuId(c), "I-cache page flush");
            }
            m.flush_icache_page(fa.ppn);
            self.frames.note_icache_flushed(fa.ppn);
            self.stats.icache_flushes += 1;
            self.emit(m, cpu, OsEvent::IcacheFlush { ppn: fa.ppn.0 });
        }
    }

    /// Inserts a page-table entry, keeping the process's `cow_pages`
    /// counter in sync with both the old and new entry's COW bit.
    fn pt_insert(&mut self, slot: ProcSlot, vpn: Vpn, pte: Pte) {
        let p = self.procs.get_mut(slot).unwrap();
        if p.page_table.insert(vpn, pte).is_some_and(|old| old.cow) {
            p.cow_pages -= 1;
        }
        if pte.cow {
            p.cow_pages += 1;
        }
    }

    fn alloc_page(&mut self, m: &mut Machine, cpu: CpuId, loc: FrameLoc, vpn: Vpn, init: PageInit) {
        let slot = self.cpus[cpu.index()].running.expect("process running");
        // Re-check after retries (another fault may have mapped it).
        if let Some(pte) = self.procs.get(slot).unwrap().page_table.get(&vpn).copied() {
            match init {
                PageInit::CopyFrom(src) if pte.cow => {
                    // COW resolution.
                    if self.frames.refs(Ppn(src)) == 1 {
                        // Sole owner: just take the page.
                        self.pt_insert(
                            slot,
                            vpn,
                            Pte {
                                ppn: Ppn(src),
                                cow: false,
                            },
                        );
                        let ops = vec![
                            KOp::write(self.pt_entry_addr(slot, vpn)),
                            KOp::Call(KCall::TlbInsert {
                                vpn: vpn.0,
                                ppn: src,
                            }),
                        ];
                        self.frame_mut(cpu, loc).push_front_ops(ops);
                        return;
                    }
                }
                _ => {
                    // Already mapped and not COW work: just refill.
                    self.frame_mut(cpu, loc)
                        .push_front_ops(vec![KOp::Call(KCall::TlbInsert {
                            vpn: vpn.0,
                            ppn: pte.ppn.0,
                        })]);
                    return;
                }
            }
        }

        // Memory pressure: run the page-out scan, then retry.
        if self.frames.free_count() < self.tuning.low_free_frames {
            let mut ops = self.build_pageout_ops(m, cpu);
            ops.push(KOp::Call(KCall::AllocPage { vpn: vpn.0, init }));
            self.frame_mut(cpu, loc).push_front_ops(ops);
            return;
        }

        let pid = self.procs.get(slot).unwrap().pid;
        // Shared-memory pages map an existing segment frame if present.
        if segs::is_shm(vpn) {
            let (seg, index) = shm_seg_of(vpn);
            if let Some(ppn) = self.frames.segment_frame(seg, index) {
                self.frames.add_ref(ppn);
                self.pt_insert(slot, vpn, Pte { ppn, cow: false });
                let ops = vec![
                    KOp::write(self.pt_entry_addr(slot, vpn)),
                    KOp::Call(KCall::TlbInsert {
                        vpn: vpn.0,
                        ppn: ppn.0,
                    }),
                ];
                self.frame_mut(cpu, loc).push_front_ops(ops);
                return;
            }
            let fa = self
                .frames
                .alloc_colored(FrameUse::Shm { seg, index }, false, (vpn.0 % 16) as u8)
                .expect("frame pool exhausted");
            self.note_alloc_flush(m, cpu, &fa);
            self.frames.set_segment_frame(seg, index, fa.ppn);
            self.pt_insert(
                slot,
                vpn,
                Pte {
                    ppn: fa.ppn,
                    cow: false,
                },
            );
            self.stats.demand_zero += 1;
            let mut ops = self.page_alloc_ops(fa.ppn);
            ops.extend(self.bclear_ops(fa.ppn.base(), PAGE_SIZE));
            ops.push(KOp::write(self.pt_entry_addr(slot, vpn)));
            ops.push(KOp::Call(KCall::TlbInsert {
                vpn: vpn.0,
                ppn: fa.ppn.0,
            }));
            self.frame_mut(cpu, loc).push_front_ops(ops);
            return;
        }

        let is_code = segs::is_text(vpn);
        let fa = self
            .frames
            .alloc_colored(
                FrameUse::User {
                    pid,
                    vpn,
                    text: is_code,
                },
                is_code,
                (vpn.0 % 16) as u8,
            )
            .expect("frame pool exhausted");
        self.note_alloc_flush(m, cpu, &fa);
        let mut ops = self.page_alloc_ops(fa.ppn);
        match init {
            PageInit::Zero | PageInit::None => {
                self.stats.demand_zero += 1;
                ops.extend(self.bclear_ops(fa.ppn.base(), PAGE_SIZE));
            }
            PageInit::CopyFrom(src) => {
                self.stats.cow_copies += 1;
                ops.extend(self.bcopy_ops(Ppn(src).base(), fa.ppn.base(), PAGE_SIZE));
                self.frames.release(Ppn(src));
            }
        }
        self.pt_insert(
            slot,
            vpn,
            Pte {
                ppn: fa.ppn,
                cow: false,
            },
        );
        ops.push(KOp::write(self.pt_entry_addr(slot, vpn)));
        ops.push(KOp::Call(KCall::TlbInsert {
            vpn: vpn.0,
            ppn: fa.ppn.0,
        }));
        self.frame_mut(cpu, loc).push_front_ops(ops);
    }

    /// `pagealloc` memory traffic: free-page bucket and pfdat updates
    /// under `Memlock`.
    fn page_alloc_ops(&mut self, ppn: Ppn) -> Vec<KOp> {
        let bucket = self
            .layout
            .free_pg_buck()
            .add((ppn.0 as u64 % 64) * (sizes::FREE_PG_BUCK / 64));
        vec![
            KOp::Lock(MEMLOCK),
            self.win(Rid::PageAlloc),
            KOp::read(bucket),
            KOp::write(bucket),
            KOp::sweep(self.layout.pfdat_entry(ppn), sizes::PFDAT_ENTRY, 16, true),
            KOp::Unlock(MEMLOCK),
        ]
    }

    /// Page-out scan: sweep the pfdat, steal victims, write dirty pages
    /// out.
    fn build_pageout_ops(&mut self, m: &mut Machine, cpu: CpuId) -> Vec<KOp> {
        let victims = self.frames.pageout_victims(self.tuning.pageout_batch);
        let mut shootdown_needed = false;
        let mut ops = vec![
            KOp::Escape(OsEvent::CtxEnter(AttrCtx::PfdatScan)),
            self.win(Rid::PageoutScan),
        ];
        // The scan reads descriptors from the region it walked.
        let (pf_base, pf_len) = self.layout.pfdat_region();
        let scan_span = ((victims.len().max(8) as u64) * 8 * sizes::PFDAT_ENTRY).min(pf_len);
        let offset = (self.stats.pageouts * 4096) % pf_len.saturating_sub(scan_span).max(1);
        ops.push(KOp::sweep(pf_base.add(offset), scan_span, 32, false));
        let mut writes = 0;
        for (ppn, use_) in victims {
            if let FrameUse::User { pid, vpn, .. } = use_ {
                // Invalidate the owner's mapping and TLB entries.
                let owner = self.procs.iter().find(|p| p.pid == pid).map(|p| p.slot);
                if let Some(oslot) = owner {
                    if let Some(p) = self.procs.get_mut(oslot) {
                        if p.page_table.remove(&vpn).is_some_and(|old| old.cow) {
                            p.cow_pages -= 1;
                        }
                    }
                }
                self.catch_up_others(m);
                for c in 0..self.num_cpus {
                    self.assert_caught_up(m, CpuId(c), "page-out TLB flush");
                    m.tlb_mut(CpuId(c)).flush_ppn(ppn);
                }
            }
            ops.push(KOp::sweep(
                self.layout.pfdat_entry(ppn),
                sizes::PFDAT_ENTRY,
                16,
                true,
            ));
            shootdown_needed = true;
            self.frames.release(ppn);
            self.stats.pageouts += 1;
            // Every few victims go to disk (dirty pages).
            writes += 1;
            if writes % 4 == 0 {
                ops.push(KOp::Call(KCall::DiskEnqueue {
                    buf: DISK_NO_BUF,
                    write: true,
                    seq: true,
                }));
            }
        }
        ops.push(self.win(Rid::SwapOut));
        ops.push(KOp::Escape(OsEvent::CtxExit));
        if shootdown_needed {
            self.post_tlb_shootdown(m, cpu);
        }
        ops
    }

    fn fork_child(&mut self, m: &mut Machine, cpu: CpuId, loc: FrameLoc) {
        let parent = self.cpus[cpu.index()].running.expect("process running");
        let Some(child_task) = self
            .procs
            .get_mut(parent)
            .and_then(|p| p.pending_child.take())
        else {
            return;
        };
        let quantum = self.tuning.quantum_ticks;
        let seed = self.tuning.seed;
        let Some(child) = self.procs.spawn(child_task, Some(parent), quantum, seed) else {
            return; // table full: fork fails silently
        };
        // Share the address space copy-on-write.
        let parent_pt: Vec<(Vpn, Pte)> = self
            .procs
            .get(parent)
            .unwrap()
            .page_table
            .iter()
            .map(|(k, v)| (*k, *v))
            .collect();
        let mut child_pt = oscar_machine::fasthash::FastMap::default();
        let mut child_cows = 0u32;
        for (vpn, mut pte) in parent_pt {
            self.frames.add_ref(pte.ppn);
            let shared_ro = segs::is_text(vpn) || segs::is_shm(vpn);
            if !shared_ro {
                pte.cow = true;
                child_cows += 1;
                // Parent side becomes COW too.
                if let Some(p) = self.procs.get_mut(parent) {
                    if let Some(ppte) = p.page_table.get_mut(&vpn) {
                        if !ppte.cow {
                            ppte.cow = true;
                            p.cow_pages += 1;
                        }
                    }
                }
            }
            child_pt.insert(vpn, pte);
        }
        let image = self.procs.get(parent).unwrap().image;
        let n_pte = child_pt.len() as u64;
        {
            let c = self.procs.get_mut(child).unwrap();
            c.page_table = child_pt;
            c.cow_pages = child_cows;
            c.image = image;
            c.state = ProcState::Ready;
        }
        self.procs.get(parent).unwrap().debug_assert_cow_count();
        self.procs.get(child).unwrap().debug_assert_cow_count();
        let child_q = self.enqueue_proc(m, child);
        self.stats.forks += 1;

        let mut ops = vec![KOp::sweep(
            self.layout.proc_entry(child),
            sizes::PROC_ENTRY,
            16,
            true,
        )];
        // Copy the live page-table span.
        let span = (n_pte * 4).clamp(64, sizes::PAGE_TABLE);
        ops.push(KOp::Lock(shr_lock(parent)));
        ops.push(KOp::sweep(self.layout.page_table(parent), span, 16, false));
        ops.push(KOp::sweep(self.layout.page_table(child), span, 16, true));
        ops.push(KOp::Unlock(shr_lock(parent)));
        // Duplicate the user structure (a block copy).
        let uops = self.bcopy_ops(
            self.layout.ustruct(parent),
            self.layout.ustruct(child),
            sizes::USTRUCT,
        );
        ops.extend(uops);
        ops.push(KOp::Lock(runqlk(child_q)));
        ops.extend(self.setrq_body_ops(child));
        ops.push(KOp::Unlock(runqlk(child_q)));
        self.frame_mut(cpu, loc).push_front_ops(ops);
    }

    fn exec_replace(&mut self, m: &mut Machine, cpu: CpuId, loc: FrameLoc, image: ExecImage) {
        let slot = self.cpus[cpu.index()].running.expect("process running");
        self.stats.execs += 1;
        // Tear down the old address space.
        let old_pt: Vec<(Vpn, Pte)> = self
            .procs
            .get_mut(slot)
            .unwrap()
            .page_table
            .drain()
            .collect();
        self.procs.get_mut(slot).unwrap().cow_pages = 0;
        let n_old = old_pt.len() as u64;
        for (_, pte) in old_pt {
            self.frames.release(pte.ppn);
        }
        let asid = self.procs.get(slot).unwrap().pid.0;
        self.catch_up_others(m);
        for c in 0..self.num_cpus {
            self.assert_caught_up(m, CpuId(c), "exec TLB flush");
            m.tlb_mut(CpuId(c)).flush_asid(asid);
        }
        {
            let p = self.procs.get_mut(slot).unwrap();
            p.image = Some(image);
            p.files.clear();
        }

        let ops = vec![
            self.win(Rid::TlbFlush),
            self.win(Rid::PageFree),
            KOp::Lock(MEMLOCK),
            KOp::sweep(
                self.layout.pfdat_entry(self.layout.frame_pool_first()),
                (n_old.max(4)) * sizes::PFDAT_ENTRY,
                16,
                true,
            ),
            KOp::Unlock(MEMLOCK),
            KOp::Call(KCall::ExecLoad { image, page: 0 }),
        ];
        self.frame_mut(cpu, loc).push_front_ops(ops);
    }

    /// Loads page `page` of `image` (text first, then initialized data)
    /// through the buffer cache, in 1 KB chunks — the paper's "regular
    /// page fragment" copies — then chains to the next page.
    fn exec_load(
        &mut self,
        m: &mut Machine,
        cpu: CpuId,
        loc: FrameLoc,
        image: ExecImage,
        page: u32,
    ) {
        let slot = self.cpus[cpu.index()].running.expect("process running");
        let text_pages = image.text_pages();
        let data_pages = image.data_bytes.div_ceil(PAGE_SIZE as u32);
        if page >= text_pages + data_pages {
            return;
        }
        let is_code = page < text_pages;
        let vpn = if is_code {
            Vpn(segs::TEXT_BASE.page().0 + page)
        } else {
            // Initialized data lands after the I/O buffer pages.
            Vpn(segs::DATA_BASE.page().0 + 8 + (page - text_pages))
        };
        let pid = self.procs.get(slot).unwrap().pid;
        let Some(fa) = self.frames.alloc_colored(
            FrameUse::User {
                pid,
                vpn,
                text: is_code,
            },
            is_code,
            (vpn.0 % 16) as u8,
        ) else {
            return; // out of memory: partial image (rare; tolerated)
        };
        self.note_alloc_flush(m, cpu, &fa);
        self.pt_insert(
            slot,
            vpn,
            Pte {
                ppn: fa.ppn,
                cow: false,
            },
        );
        let (b, mut ops) = self.getblk_ops((image.inode, page), true);
        for k in 0..4u64 {
            let cops = self.bcopy_ops(
                self.layout.buf_data(b).add(k * 1024),
                fa.ppn.base().add(k * 1024),
                1024,
            );
            ops.extend(cops);
        }
        ops.push(KOp::Call(KCall::ExecLoad {
            image,
            page: page + 1,
        }));
        self.frame_mut(cpu, loc).push_front_ops(ops);
    }

    fn exit_finish(&mut self, m: &mut Machine, cpu: CpuId, loc: FrameLoc) {
        let slot = self.cpus[cpu.index()].running.expect("process running");
        self.stats.exits += 1;
        let old_pt: Vec<(Vpn, Pte)> = self
            .procs
            .get_mut(slot)
            .unwrap()
            .page_table
            .drain()
            .collect();
        self.procs.get_mut(slot).unwrap().cow_pages = 0;
        let n_old = old_pt.len() as u64;
        for (_, pte) in old_pt {
            self.frames.release(pte.ppn);
        }
        let asid = self.procs.get(slot).unwrap().pid.0;
        self.catch_up_others(m);
        for c in 0..self.num_cpus {
            self.assert_caught_up(m, CpuId(c), "exit TLB flush");
            m.tlb_mut(CpuId(c)).flush_asid(asid);
        }
        let parent = self.procs.get(slot).unwrap().parent;
        let mut ops = vec![
            self.win(Rid::PageFree),
            KOp::Lock(MEMLOCK),
            KOp::sweep(
                self.layout.pfdat_entry(self.layout.frame_pool_first()),
                (n_old.max(4)) * sizes::PFDAT_ENTRY,
                32,
                true,
            ),
            KOp::Unlock(MEMLOCK),
            KOp::write(self.layout.proc_entry(slot).add(48)),
        ];
        if let Some(ps) = parent {
            if let Some(p) = self.procs.get_mut(ps) {
                p.zombie_children += 1;
                ops.extend(self.wakeup_ops(m, Chan::Child(ps)));
            }
        }
        self.frame_mut(cpu, loc).push_front_ops(ops);
    }

    fn wait_check(&mut self, _m: &mut Machine, cpu: CpuId, loc: FrameLoc) {
        let slot = self.cpus[cpu.index()].running.expect("process running");
        let has_zombie = self.procs.get(slot).unwrap().zombie_children > 0;
        if has_zombie {
            self.procs.get_mut(slot).unwrap().zombie_children -= 1;
            let child = self
                .procs
                .iter()
                .find(|p| p.parent == Some(slot) && p.state == ProcState::Zombie)
                .map(|p| p.slot);
            if let Some(c) = child {
                let ops = vec![
                    KOp::read(self.layout.proc_entry(c)),
                    KOp::read(self.layout.proc_entry(c).add(64)),
                    KOp::write(self.layout.proc_entry(c).add(48)),
                ];
                self.procs.reap(c);
                self.frame_mut(cpu, loc).push_front_ops(ops);
            }
        } else {
            self.frame_mut(cpu, loc).push_front_ops(vec![
                KOp::Call(KCall::Sleep {
                    chan: Chan::Child(slot),
                }),
                KOp::Call(KCall::WaitCheck),
            ]);
        }
    }

    fn pipe_xfer(
        &mut self,
        m: &mut Machine,
        cpu: CpuId,
        loc: FrameLoc,
        pipe: usize,
        bytes: u32,
        write: bool,
    ) {
        let slot = self.cpus[cpu.index()].running.expect("process running");
        let cap = PAGE_SIZE as u32;
        let level = self.pipes[pipe];
        if write {
            if level + bytes > cap {
                self.frame_mut(cpu, loc).push_front_ops(vec![
                    KOp::Call(KCall::Sleep {
                        chan: Chan::PipeSpace(pipe),
                    }),
                    KOp::Call(KCall::PipeXfer { pipe, bytes, write }),
                ]);
                return;
            }
            self.pipes[pipe] = level + bytes;
            let src = self.user_io_buffer(slot, 0);
            let mut ops = self.bcopy_ops(
                src,
                self.layout.pipe_buf(pipe).add(level as u64),
                bytes as u64,
            );
            ops.extend(self.wakeup_ops(m, Chan::PipeData(pipe)));
            self.frame_mut(cpu, loc).push_front_ops(ops);
        } else {
            if level == 0 {
                self.frame_mut(cpu, loc).push_front_ops(vec![
                    KOp::Call(KCall::Sleep {
                        chan: Chan::PipeData(pipe),
                    }),
                    KOp::Call(KCall::PipeXfer { pipe, bytes, write }),
                ]);
                return;
            }
            let take = level.min(bytes);
            self.pipes[pipe] = level - take;
            let dst = self.user_io_buffer(slot, 0);
            let mut ops = self.bcopy_ops(self.layout.pipe_buf(pipe), dst, take as u64);
            ops.extend(self.wakeup_ops(m, Chan::PipeSpace(pipe)));
            self.frame_mut(cpu, loc).push_front_ops(ops);
        }
    }

    fn clock_tick(&mut self, m: &mut Machine, cpu: CpuId, loc: FrameLoc) {
        // Quantum accounting for the interrupted process.
        if let Some(slot) = self.cpus[cpu.index()].running {
            if let Some(p) = self.procs.get_mut(slot) {
                if p.quantum > 0 {
                    p.quantum -= 1;
                }
                if p.quantum == 0 {
                    self.cpus[cpu.index()].resched = true;
                }
            }
        }
        // CPU 0 owns the callout table and schedcpu.
        if cpu.index() != 0 {
            return;
        }
        let tick = self.global_tick;
        let due: Vec<Chan> = {
            let mut due = Vec::new();
            self.callouts.retain(|c| {
                if c.due_tick <= tick {
                    due.push(c.chan);
                    false
                } else {
                    true
                }
            });
            due
        };
        let n = self.callouts.len().clamp(4, 64) as u64;
        let mut ops = vec![
            KOp::Lock(CALOCK),
            self.win(Rid::CalloutScan),
            KOp::sweep(self.layout.callout(), n * 16, 16, false),
        ];
        for chan in due {
            ops.push(KOp::write(self.layout.callout().add(8)));
            ops.extend(self.wakeup_ops(m, chan));
        }
        ops.push(KOp::Unlock(CALOCK));
        if tick.is_multiple_of(self.tuning.schedcpu_ticks) && tick > 0 {
            ops.push(KOp::Call(KCall::SchedCpuScan));
        }
        self.frame_mut(cpu, loc).push_front_ops(ops);
    }

    fn disk_intr_done(&mut self, m: &mut Machine, cpu: CpuId, loc: FrameLoc) {
        let now = m.now(cpu);
        let Some(req) = self.disk.pop_completed(now) else {
            return;
        };
        if req.buf == DISK_NO_BUF {
            return;
        }
        let mut ops = vec![
            self.win(Rid::BioDone),
            KOp::write(self.layout.buf_hdr(req.buf)),
        ];
        self.bufcache.io_done(req.buf);
        if req.write {
            self.bufcache.mark_clean(req.buf);
        }
        // Readers of the block and synchronous writers both sleep on
        // the buffer channel.
        ops.extend(self.wakeup_ops(m, Chan::Buf(req.buf)));
        self.frame_mut(cpu, loc).push_front_ops(ops);
    }
}
