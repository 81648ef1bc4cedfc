//! The kernel's physical memory layout: code symbol table and data
//! structures.
//!
//! The paper resolves miss addresses against the symbol table of the OS
//! image (Section 2.2); this module *is* that symbol table for our
//! synthetic kernel. Kernel text is laid out routine-by-routine from the
//! bottom of physical memory, followed by the statically allocated data
//! structures of Table 3 at their published sizes, per-process kernel
//! stacks and user structures, the buffer cache, and finally the frame
//! pool that backs user pages.

use crate::locks::LockFamily;
use crate::types::ProcSlot;
use oscar_machine::addr::{PAddr, Ppn, PAGE_SIZE};

/// Kernel subsystems, used to group routines in reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Subsystem {
    /// Assembly exception entry/exit and dispatch.
    LowLevel,
    /// Scheduler and run-queue management.
    Sched,
    /// Clock and callout handling.
    Clock,
    /// Virtual memory.
    Vm,
    /// File system and buffer cache.
    Fs,
    /// Disk driver.
    Driver,
    /// Terminal / STREAMS drivers.
    Streams,
    /// Pipes.
    Pipe,
    /// Process-management system calls.
    ProcMgmt,
    /// Network stack (runs on CPU 1, lightly used here).
    Net,
    /// The idle loop.
    Idle,
    /// Miscellaneous system calls.
    Misc,
    /// Rarely executed cold text.
    Cold,
}

macro_rules! routines {
    ($($variant:ident => ($name:literal, $size:literal, $sub:ident);)*) => {
        /// Identifier of one kernel routine in the synthetic symbol table.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        #[allow(missing_docs)]
        pub enum Rid {
            $($variant,)*
        }

        impl Rid {
            /// Every routine, in default link order.
            pub const ALL: &'static [Rid] = &[$(Rid::$variant,)*];

            /// The routine's symbol name.
            pub fn name(self) -> &'static str {
                match self { $(Rid::$variant => $name,)* }
            }

            /// The routine's code size in bytes.
            pub fn size(self) -> u32 {
                match self { $(Rid::$variant => $size,)* }
            }

            /// The subsystem the routine belongs to.
            pub fn subsystem(self) -> Subsystem {
                match self { $(Rid::$variant => Subsystem::$sub,)* }
            }
        }
    };
}

routines! {
    // --- low-level exception handling (assembly) ---
    VecUtlbMiss    => ("utlbmiss",        128, LowLevel);
    VecGeneral     => ("exception_vec",   256, LowLevel);
    ExcSave        => ("exc_save_regs",   640, LowLevel);
    ExcRestore     => ("exc_restore_regs",512, LowLevel);
    TrapDispatch   => ("trap",           2048, LowLevel);
    SyscallEntry   => ("syscall_entry",   896, LowLevel);
    SyscallExit    => ("syscall_exit",    640, LowLevel);
    IntrDispatch   => ("intr_dispatch",   768, LowLevel);
    // --- scheduler ---
    SaveCtx        => ("save_ctx",        320, Sched);
    RestoreCtx     => ("resume_ctx",      352, Sched);
    Setrq          => ("setrq",           416, Sched);
    Remrq          => ("remrq",           384, Sched);
    Swtch          => ("swtch",           832, Sched);
    PickProc       => ("choose_proc",     576, Sched);
    SchedCpu       => ("schedcpu",       1536, Sched);
    QuantumTick    => ("roundrobin",      288, Sched);
    // --- clock ---
    ClockIntr      => ("clock_intr",     1920, Clock);
    CalloutScan    => ("timeout_scan",    704, Clock);
    AddCallout     => ("timeout_add",     448, Clock);
    ItimerCheck    => ("itimer_check",    512, Clock);
    // --- virtual memory ---
    VFault         => ("vfault",         3072, Vm);
    TlbMissSlow    => ("tlbmiss_slow",   1024, Vm);
    TlbDropin      => ("tlb_dropin",      256, Vm);
    PageAlloc      => ("pagealloc",      1664, Vm);
    PageFree       => ("pagefree",       1024, Vm);
    PageoutScan    => ("pageout_scan",   1408, Vm);
    SwapOut        => ("swapout",        2048, Vm);
    Bcopy          => ("bcopy",           288, Vm);
    Bclear         => ("bzero",           160, Vm);
    CowFault       => ("cow_fault",      1280, Vm);
    GrowReg        => ("growreg",         960, Vm);
    PtAlloc        => ("ptalloc",         768, Vm);
    TlbFlush       => ("tlbflush",        224, Vm);
    IcacheFlushR   => ("icache_flush",    192, Vm);
    // --- file system ---
    ReadSys        => ("read",           1152, Fs);
    WriteSys       => ("write",          1216, Fs);
    RdwrSetup      => ("rdwr_setup",     1792, Fs);
    CopyIn         => ("copyin",          256, Fs);
    CopyOut        => ("copyout",         256, Fs);
    Uiomove        => ("uiomove",         640, Fs);
    GetBlk         => ("getblk",         1408, Fs);
    BRead          => ("bread",           896, Fs);
    BWrite         => ("bwrite",          960, Fs);
    BRelse         => ("brelse",          512, Fs);
    BioWait        => ("biowait",         384, Fs);
    BioDone        => ("biodone",         448, Fs);
    Namei          => ("namei",          3456, Fs);
    IGet           => ("iget",           1280, Fs);
    IPut           => ("iput",            896, Fs);
    IAlloc         => ("ialloc",         1152, Fs);
    IUpdate        => ("iupdat",          704, Fs);
    DirLookup      => ("dirlookup",      1536, Fs);
    FileAlloc      => ("falloc",          512, Fs);
    Bmap           => ("bmap",           1664, Fs);
    DiskBlkAlloc   => ("alloc_blk",      1088, Fs);
    DiskBlkFree    => ("free_blk",        768, Fs);
    // --- disk driver ---
    DkStrategy     => ("dksc_strategy",  1920, Driver);
    DkStart        => ("dksc_start",     1408, Driver);
    DkIntr         => ("dksc_intr",      2560, Driver);
    DiskSort       => ("disksort",        576, Driver);
    ScsiCmd        => ("scsi_cmd",       3328, Driver);
    ScsiDma        => ("scsi_dma",       1792, Driver);
    // --- terminal / STREAMS ---
    StrWrite       => ("strwrite",       2176, Streams);
    StrRead        => ("strread",        1984, Streams);
    StrPutq        => ("putq",            640, Streams);
    StrSvc         => ("str_runqueues",  1536, Streams);
    TtyOut         => ("ttyout",         1280, Streams);
    TtyIn          => ("ttyin",          1152, Streams);
    ConsPoll       => ("cons_poll",       512, Streams);
    // --- pipes ---
    PipeRead       => ("pipe_read",       896, Pipe);
    PipeWrite      => ("pipe_write",      960, Pipe);
    PipeAlloc      => ("pipe_alloc",      640, Pipe);
    // --- process management ---
    ForkSys        => ("fork",           2944, ProcMgmt);
    ExecSys        => ("exece",          4224, ProcMgmt);
    ExitSys        => ("exit",           1920, ProcMgmt);
    WaitSys        => ("wait",           1280, ProcMgmt);
    BrkSys         => ("sbrk",            768, ProcMgmt);
    SginapSys      => ("sginap",          448, ProcMgmt);
    GetPidMisc     => ("getpid_misc",     384, ProcMgmt);
    SigDeliver     => ("psig",           1664, ProcMgmt);
    SigSend        => ("kill_internal",   896, ProcMgmt);
    ShmAttach      => ("shmat",          1216, ProcMgmt);
    SemOp          => ("semop",          1408, ProcMgmt);
    // --- network ---
    NetInput       => ("ip_input",       3072, Net);
    NetOutput      => ("ip_output",      2816, Net);
    SockRecv       => ("soreceive",      2432, Net);
    // --- idle ---
    IdleLoop       => ("idle_loop",        96, Idle);
    // --- miscellaneous system calls ---
    OpenSys        => ("open",           1024, Misc);
    CloseSys       => ("close",           576, Misc);
    StatSys        => ("stat",            896, Misc);
    IoctlSys       => ("ioctl",          1344, Misc);
    DupSys         => ("dup",             320, Misc);
    LseekSys       => ("lseek",           288, Misc);
    AccessSys      => ("access",          512, Misc);
    UnlinkSys      => ("unlink",         1088, Misc);
    CreatSys       => ("creat",           960, Misc);
    ChdirSys       => ("chdir",           448, Misc);
    TimeSys        => ("gettimeofday",    256, Misc);
    UlimitMisc     => ("ulimit_misc",     320, Misc);
    // --- cold text (rarely executed bulk of the kernel image) ---
    ColdFs         => ("fs_cold_text",  49152, Cold);
    ColdVm         => ("vm_cold_text",  32768, Cold);
    ColdDriver     => ("drv_cold_text", 57344, Cold);
    ColdNet        => ("net_cold_text", 49152, Cold);
    ColdMisc       => ("misc_cold_text",65536, Cold);
}

/// Structural sizes (Table 3 of the paper, plus implementation-defined
/// companions). All byte counts.
pub mod sizes {
    /// Per-process kernel stack.
    pub const KERNEL_STACK: u64 = 4096;
    /// PCB section of the user structure (context-switch register save).
    pub const PCB: u64 = 240;
    /// Eframe section of the user structure (exception register save).
    pub const EFRAME: u64 = 172;
    /// Rest of the user structure (file descriptors, syscall state, ...).
    pub const U_REST: u64 = 3684;
    /// Whole user structure.
    pub const USTRUCT: u64 = PCB + EFRAME + U_REST;
    /// One process-table entry.
    pub const PROC_ENTRY: u64 = 360;
    /// Number of process-table slots.
    pub const NPROC: u64 = 128;
    /// One physical-page descriptor (pfdat entry).
    pub const PFDAT_ENTRY: u64 = 26;
    /// One buffer-cache header.
    pub const BUF_HDR: u64 = 128;
    /// Number of buffer-cache buffers.
    pub const NBUF: u64 = 136;
    /// One in-core inode.
    pub const INODE: u64 = 256;
    /// Number of in-core inodes.
    pub const NINODE: u64 = 268;
    /// The run-queue head structure.
    pub const RUNQ_HEAD: u64 = 24;
    /// The free-page hash buckets array.
    pub const FREE_PG_BUCK: u64 = 3072;
    /// The callout (timeout) table.
    pub const CALLOUT: u64 = 4096;
    /// Miscellaneous kernel globals (time, flags, `hi_ndproc`, ...).
    pub const MISC_DATA: u64 = 8192;
    /// Per-process page-table page (the `Shr_x`-protected structures).
    pub const PAGE_TABLE: u64 = 4096;
    /// Number of pipe buffers.
    pub const NPIPE: u64 = 32;
}

/// Classification of a physical address against the kernel layout
/// (what the paper gets by resolving the address in the symbol table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum KernelRegion {
    /// Kernel text.
    Text,
    /// The process table.
    ProcTable,
    /// Physical page descriptors.
    Pfdat,
    /// Buffer-cache headers.
    BufHeaders,
    /// The in-core inode table.
    InodeTable,
    /// The run-queue head.
    RunQueue,
    /// Free-page hash buckets.
    FreePgBuck,
    /// The callout table.
    Callout,
    /// Miscellaneous kernel globals.
    MiscData,
    /// Per-process page tables.
    PageTables,
    /// A per-process kernel stack.
    KernelStack,
    /// The PCB section of a user structure.
    Pcb,
    /// The eframe section of a user structure.
    Eframe,
    /// The rest of a user structure.
    URest,
    /// Buffer-cache data pages.
    BufData,
    /// Pipe buffers.
    PipeBuf,
    /// The user frame pool (not a kernel structure).
    FramePool,
}

impl KernelRegion {
    /// Short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            KernelRegion::Text => "kernel-text",
            KernelRegion::ProcTable => "process-table",
            KernelRegion::Pfdat => "pfdat",
            KernelRegion::BufHeaders => "buffer-headers",
            KernelRegion::InodeTable => "inode-table",
            KernelRegion::RunQueue => "run-queue",
            KernelRegion::FreePgBuck => "free-pg-buckets",
            KernelRegion::Callout => "callout-table",
            KernelRegion::MiscData => "misc-globals",
            KernelRegion::PageTables => "page-tables",
            KernelRegion::KernelStack => "kernel-stack",
            KernelRegion::Pcb => "pcb",
            KernelRegion::Eframe => "eframe",
            KernelRegion::URest => "u-rest",
            KernelRegion::BufData => "buffer-data",
            KernelRegion::PipeBuf => "pipe-buffers",
            KernelRegion::FramePool => "frame-pool",
        }
    }
}

/// A physical address resolved against the kernel symbol table: the
/// named object containing it plus its [`KernelRegion`]. This is what
/// the paper's postprocessor gets by looking a miss address up in the
/// OS image's symbol table (Section 2.2); the hot-line analyzer uses it
/// to attribute contended cache lines to kernel structures by name.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Symbol {
    /// Human-readable name, e.g. `text:swtch+0x20`, `proc[5]+0x8`,
    /// `pfdat[1234]`, `lock:runq`.
    pub name: String,
    /// The region the address classifies into.
    pub region: KernelRegion,
}

/// Byte stride of one named lock word in the misc-data carve-out.
const LOCK_WORD_BYTES: u64 = 16;

fn off_suffix(off: u64) -> String {
    if off == 0 {
        String::new()
    } else {
        format!("+0x{off:x}")
    }
}

fn page_align(x: u64) -> u64 {
    (x + PAGE_SIZE - 1) & !(PAGE_SIZE - 1)
}

/// The resolved kernel memory map.
#[derive(Debug, Clone)]
pub struct Layout {
    order: Vec<Rid>,
    routine_base: Vec<u64>, // indexed by Rid as usize via position in ALL
    text_base: u64,
    text_end: u64,
    proc_table: u64,
    pfdat: u64,
    pfdat_end: u64,
    buf_hdrs: u64,
    inode_table: u64,
    runq: u64,
    free_pg_buck: u64,
    callout: u64,
    misc_data: u64,
    page_tables: u64,
    kernel_stacks: u64,
    ustructs: u64,
    buf_data: u64,
    pipe_buf: u64,
    /// Base of the first *extra* text replica (cluster mode); 0 when
    /// there are none.
    replica_base: u64,
    /// Total text copies (1 = unreplicated).
    replicas: u8,
    frame_pool_first: Ppn,
    frame_pool_end: Ppn,
    memory_bytes: u64,
}

impl Layout {
    /// Physical base of the escape-address range: chosen above all real
    /// memory, so escape reads can never collide with genuine accesses.
    pub const ESCAPE_BASE: u64 = 0x1000_0000;

    /// Builds the layout for a machine with `memory_bytes` of memory
    /// using the default link order.
    pub fn new(memory_bytes: u64) -> Self {
        Self::with_order_and_replicas(memory_bytes, Rid::ALL.to_vec(), 1)
    }

    /// Builds the layout with the kernel text replicated `replicas`
    /// times (one copy per cluster, the paper's Section 6 proposal).
    pub fn replicated(memory_bytes: u64, replicas: u8) -> Self {
        Self::with_order_and_replicas(memory_bytes, Rid::ALL.to_vec(), replicas.max(1))
    }

    /// Builds the layout with an explicit routine link order (the code
    /// layout optimization ablation permutes hot routines to reduce
    /// I-cache conflicts).
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of [`Rid::ALL`], or if the
    /// layout does not fit in `memory_bytes`.
    pub fn with_order(memory_bytes: u64, order: Vec<Rid>) -> Self {
        Self::with_order_and_replicas(memory_bytes, order, 1)
    }

    /// Builds the layout with an explicit link order and text replica
    /// count.
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of [`Rid::ALL`], or if the
    /// layout does not fit in `memory_bytes`.
    pub fn with_order_and_replicas(memory_bytes: u64, order: Vec<Rid>, replicas: u8) -> Self {
        Self::try_with_order_and_replicas(memory_bytes, order, replicas)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// The fallible form of [`Layout::with_order_and_replicas`], for
    /// untrusted inputs such as a saved trace's header.
    ///
    /// # Errors
    ///
    /// Returns a message if `order` is not a permutation of
    /// [`Rid::ALL`], or if the layout does not fit in `memory_bytes`.
    pub fn try_with_order_and_replicas(
        memory_bytes: u64,
        order: Vec<Rid>,
        replicas: u8,
    ) -> Result<Self, String> {
        if order.len() != Rid::ALL.len() {
            return Err(format!(
                "order must cover all {} routines (got {})",
                Rid::ALL.len(),
                order.len()
            ));
        }
        {
            let mut seen = order.clone();
            seen.sort();
            seen.dedup();
            if seen.len() != Rid::ALL.len() {
                return Err("order must be a permutation of the kernel routines".into());
            }
        }
        let npages = memory_bytes / PAGE_SIZE;
        // Page numbers are `u32`; a larger memory cannot be mapped.
        if npages > u64::from(u32::MAX) {
            return Err(format!(
                "{memory_bytes} bytes of memory exceed the page-number range"
            ));
        }
        let text_base = PAGE_SIZE; // leave page 0 unused
        let mut routine_base = vec![0u64; Rid::ALL.len()];
        let mut cursor = text_base;
        for &rid in &order {
            // 32-byte alignment, as a linker would.
            cursor = (cursor + 31) & !31;
            routine_base[rid as usize] = cursor;
            cursor += rid.size() as u64;
        }
        let text_end = cursor;

        let mut at = page_align(text_end);
        let mut take = |bytes: u64| {
            let base = at;
            at = page_align(at + bytes);
            base
        };
        let proc_table = take(sizes::NPROC * sizes::PROC_ENTRY);
        let pfdat = take(npages * sizes::PFDAT_ENTRY);
        let pfdat_end = pfdat + npages * sizes::PFDAT_ENTRY;
        let buf_hdrs = take(sizes::NBUF * sizes::BUF_HDR);
        let inode_table = take(sizes::NINODE * sizes::INODE);
        let runq = take(sizes::RUNQ_HEAD);
        let free_pg_buck = take(sizes::FREE_PG_BUCK);
        let callout = take(sizes::CALLOUT);
        let misc_data = take(sizes::MISC_DATA);
        let page_tables = take(sizes::NPROC * sizes::PAGE_TABLE);
        let kernel_stacks = take(sizes::NPROC * sizes::KERNEL_STACK);
        let ustructs = take(sizes::NPROC * sizes::USTRUCT);
        let buf_data = take(sizes::NBUF * PAGE_SIZE);
        let pipe_buf = take(sizes::NPIPE * PAGE_SIZE);
        let replicas = replicas.max(1);
        let replica_stride = page_align(text_end);
        let replica_base = if replicas > 1 {
            take(replica_stride * (replicas as u64 - 1))
        } else {
            0
        };
        let frame_pool_first = Ppn((at / PAGE_SIZE) as u32);
        let frame_pool_end = Ppn(npages as u32);
        if frame_pool_first.0 >= frame_pool_end.0 {
            return Err(format!(
                "kernel layout does not fit in {memory_bytes} bytes"
            ));
        }
        Ok(Layout {
            order,
            routine_base,
            text_base,
            text_end,
            proc_table,
            pfdat,
            pfdat_end,
            buf_hdrs,
            inode_table,
            runq,
            free_pg_buck,
            callout,
            misc_data,
            page_tables,
            kernel_stacks,
            ustructs,
            buf_data,
            pipe_buf,
            replica_base,
            replicas,
            frame_pool_first,
            frame_pool_end,
            memory_bytes,
        })
    }

    /// Number of kernel-text copies (1 = unreplicated).
    pub fn replicas(&self) -> u8 {
        self.replicas
    }

    /// Stride between text replicas in bytes.
    fn replica_stride(&self) -> u64 {
        page_align(self.text_end)
    }

    /// Rebases a canonical text address into cluster `k`'s replica
    /// (identity for cluster 0 or unreplicated layouts).
    pub fn replicate_text_addr(&self, paddr: PAddr, cluster: u8) -> PAddr {
        if cluster == 0 || self.replicas <= 1 || paddr.raw() >= self.text_end {
            return paddr;
        }
        let k = (cluster as u64).min(self.replicas as u64 - 1);
        PAddr::new(self.replica_base + (k - 1) * self.replica_stride() + paddr.raw())
    }

    /// Maps an address inside any text replica back to the canonical
    /// copy (identity for everything else).
    pub fn canonical_text_addr(&self, paddr: PAddr) -> PAddr {
        let a = paddr.raw();
        if self.replicas <= 1 || a < self.replica_base {
            return paddr;
        }
        let span = self.replica_stride() * (self.replicas as u64 - 1);
        if a >= self.replica_base + span {
            return paddr;
        }
        PAddr::new((a - self.replica_base) % self.replica_stride())
    }

    /// `(first_page, pages)` of cluster `k`'s text copy (`k = 0` is the
    /// canonical copy).
    pub fn replica_page_range(&self, k: u8) -> (Ppn, u32) {
        let pages = (self.replica_stride() / PAGE_SIZE) as u32;
        if k == 0 || self.replicas <= 1 {
            (Ppn(0), pages)
        } else {
            let base = self.replica_base
                + (k as u64 - 1).min(self.replicas as u64 - 2) * self.replica_stride();
            (Ppn((base / PAGE_SIZE) as u32), pages)
        }
    }

    /// The link order in effect.
    pub fn order(&self) -> &[Rid] {
        &self.order
    }

    /// Base physical address of a routine's code.
    pub fn routine_base(&self, rid: Rid) -> PAddr {
        PAddr::new(self.routine_base[rid as usize])
    }

    /// `(base, size)` of a routine's code.
    pub fn routine_range(&self, rid: Rid) -> (PAddr, u32) {
        (self.routine_base(rid), rid.size())
    }

    /// The routine containing a text address, if any (replica
    /// addresses resolve to their canonical routine).
    ///
    /// The analyzer calls this on every kernel instruction miss.
    /// Routine bases ascend along the link order, so a binary search
    /// finds the only candidate: the last routine based at or below the
    /// address. Alignment padding after it resolves to `None`.
    pub fn routine_at(&self, paddr: PAddr) -> Option<Rid> {
        let a = self.canonical_text_addr(paddr).raw();
        if a < self.text_base || a >= self.text_end {
            return None;
        }
        let n = self
            .order
            .partition_point(|&rid| self.routine_base[rid as usize] <= a);
        let rid = self.order[n.checked_sub(1)?];
        (a < self.routine_base[rid as usize] + u64::from(rid.size())).then_some(rid)
    }

    /// Total kernel text bytes (including alignment padding).
    pub fn text_size(&self) -> u64 {
        self.text_end - self.text_base
    }

    /// Address of a process slot's process-table entry.
    pub fn proc_entry(&self, slot: ProcSlot) -> PAddr {
        PAddr::new(self.proc_table + slot.index() as u64 * sizes::PROC_ENTRY)
    }

    /// Address of a process slot's kernel stack (4 KB).
    pub fn kernel_stack(&self, slot: ProcSlot) -> PAddr {
        PAddr::new(self.kernel_stacks + slot.index() as u64 * sizes::KERNEL_STACK)
    }

    /// Address of a process slot's user structure (PCB at +0, eframe at
    /// +240, rest at +412).
    pub fn ustruct(&self, slot: ProcSlot) -> PAddr {
        PAddr::new(self.ustructs + slot.index() as u64 * sizes::USTRUCT)
    }

    /// Address of the PCB section of a slot's user structure.
    pub fn pcb(&self, slot: ProcSlot) -> PAddr {
        self.ustruct(slot)
    }

    /// Address of the eframe section of a slot's user structure.
    pub fn eframe(&self, slot: ProcSlot) -> PAddr {
        self.ustruct(slot).add(sizes::PCB)
    }

    /// Address of the "rest" section of a slot's user structure.
    pub fn u_rest(&self, slot: ProcSlot) -> PAddr {
        self.ustruct(slot).add(sizes::PCB + sizes::EFRAME)
    }

    /// Address of a slot's page-table page.
    pub fn page_table(&self, slot: ProcSlot) -> PAddr {
        PAddr::new(self.page_tables + slot.index() as u64 * sizes::PAGE_TABLE)
    }

    /// Address of the pfdat entry describing physical page `ppn`.
    pub fn pfdat_entry(&self, ppn: Ppn) -> PAddr {
        PAddr::new(self.pfdat + ppn.0 as u64 * sizes::PFDAT_ENTRY)
    }

    /// `(base, len)` of the whole pfdat array.
    pub fn pfdat_region(&self) -> (PAddr, u64) {
        (PAddr::new(self.pfdat), self.pfdat_end - self.pfdat)
    }

    /// Address of buffer header `i`.
    pub fn buf_hdr(&self, i: usize) -> PAddr {
        debug_assert!((i as u64) < sizes::NBUF);
        PAddr::new(self.buf_hdrs + i as u64 * sizes::BUF_HDR)
    }

    /// Address of buffer `i`'s 4 KB data page.
    pub fn buf_data(&self, i: usize) -> PAddr {
        debug_assert!((i as u64) < sizes::NBUF);
        PAddr::new(self.buf_data + i as u64 * PAGE_SIZE)
    }

    /// Address of in-core inode `i`.
    pub fn inode(&self, i: usize) -> PAddr {
        debug_assert!((i as u64) < sizes::NINODE);
        PAddr::new(self.inode_table + i as u64 * sizes::INODE)
    }

    /// Address of the run-queue head.
    pub fn run_queue(&self) -> PAddr {
        PAddr::new(self.runq)
    }

    /// Address of the free-page buckets array.
    pub fn free_pg_buck(&self) -> PAddr {
        PAddr::new(self.free_pg_buck)
    }

    /// Address of the callout table.
    pub fn callout(&self) -> PAddr {
        PAddr::new(self.callout)
    }

    /// Address of the miscellaneous kernel globals.
    pub fn misc_data(&self) -> PAddr {
        PAddr::new(self.misc_data)
    }

    /// Address of the named lock word for `family`.
    ///
    /// The synthetic kernel keeps its lock words in the tail of the
    /// misc-data globals, one cache line (16 bytes) per lock family —
    /// the real kernel's `Runqlk`, `Memlock`, ... are likewise globals
    /// the symbol table resolves by name. Synchronization accesses
    /// travel on the separate sync bus and never appear in the trace;
    /// these addresses exist so the symbolizer can attribute *data*
    /// accesses that land in the lock area, and so reports can name
    /// the lock words the paper talks about.
    pub fn lock_word(&self, family: LockFamily) -> PAddr {
        let carve = LockFamily::ALL.len() as u64 * LOCK_WORD_BYTES;
        let idx = LockFamily::ALL
            .iter()
            .position(|&f| f == family)
            .expect("ALL contains every family") as u64;
        PAddr::new(self.misc_data + sizes::MISC_DATA - carve + idx * LOCK_WORD_BYTES)
    }

    /// Address of pipe buffer `i`.
    pub fn pipe_buf(&self, i: usize) -> PAddr {
        debug_assert!((i as u64) < sizes::NPIPE);
        PAddr::new(self.pipe_buf + i as u64 * PAGE_SIZE)
    }

    /// First frame of the user frame pool.
    pub fn frame_pool_first(&self) -> Ppn {
        self.frame_pool_first
    }

    /// One past the last frame of the user frame pool.
    pub fn frame_pool_end(&self) -> Ppn {
        self.frame_pool_end
    }

    /// Number of frames available to user pages.
    pub fn frame_pool_len(&self) -> u32 {
        self.frame_pool_end.0 - self.frame_pool_first.0
    }

    /// Memory size this layout was built for.
    pub fn memory_bytes(&self) -> u64 {
        self.memory_bytes
    }

    /// Classifies a physical address against the kernel map.
    pub fn classify(&self, paddr: PAddr) -> KernelRegion {
        let a = paddr.raw();
        if a < self.text_end {
            return KernelRegion::Text;
        }
        // Every kernel region, text replicas included, lies below the
        // frame pool, so user fills and escapes stop here.
        if a >= self.frame_pool_first.base().raw() {
            return KernelRegion::FramePool;
        }
        let within = |base: u64, len: u64| a >= base && a < base + len;
        if within(self.proc_table, sizes::NPROC * sizes::PROC_ENTRY) {
            KernelRegion::ProcTable
        } else if a >= self.pfdat && a < self.pfdat_end {
            KernelRegion::Pfdat
        } else if within(self.buf_hdrs, sizes::NBUF * sizes::BUF_HDR) {
            KernelRegion::BufHeaders
        } else if within(self.inode_table, sizes::NINODE * sizes::INODE) {
            KernelRegion::InodeTable
        } else if within(self.runq, sizes::RUNQ_HEAD) {
            KernelRegion::RunQueue
        } else if within(self.free_pg_buck, sizes::FREE_PG_BUCK) {
            KernelRegion::FreePgBuck
        } else if within(self.callout, sizes::CALLOUT) {
            KernelRegion::Callout
        } else if within(self.misc_data, sizes::MISC_DATA) {
            KernelRegion::MiscData
        } else if within(self.page_tables, sizes::NPROC * sizes::PAGE_TABLE) {
            KernelRegion::PageTables
        } else if within(self.kernel_stacks, sizes::NPROC * sizes::KERNEL_STACK) {
            KernelRegion::KernelStack
        } else if within(self.ustructs, sizes::NPROC * sizes::USTRUCT) {
            let off = (a - self.ustructs) % sizes::USTRUCT;
            if off < sizes::PCB {
                KernelRegion::Pcb
            } else if off < sizes::PCB + sizes::EFRAME {
                KernelRegion::Eframe
            } else {
                KernelRegion::URest
            }
        } else if within(self.buf_data, sizes::NBUF * PAGE_SIZE) {
            KernelRegion::BufData
        } else if within(self.pipe_buf, sizes::NPIPE * PAGE_SIZE) {
            KernelRegion::PipeBuf
        } else if self.replicas > 1
            && within(
                self.replica_base,
                self.replica_stride() * (self.replicas as u64 - 1),
            )
        {
            KernelRegion::Text
        } else {
            KernelRegion::FramePool
        }
    }

    /// Resolves a physical address to a named kernel object — the
    /// symbolizer behind the hot-line attribution exhibits. Total:
    /// every address resolves to exactly one [`Symbol`], whose region
    /// always equals [`Layout::classify`] of the same address.
    ///
    /// Names are stable and index the containing object: `text:<routine>`
    /// (replica copies get a `replica<k>:` prefix), `proc[<slot>]`,
    /// `pfdat[<ppn>]`, `kstack[<slot>]`, `pcb[<slot>]`, `lock:<Family>`,
    /// `frame[<ppn>]`, ... with a `+0x<off>` suffix for nonzero offsets
    /// within the object. Addresses at or above [`Layout::ESCAPE_BASE`]
    /// resolve to `escape:0x<addr>`.
    pub fn symbol_at(&self, paddr: PAddr) -> Symbol {
        let a = paddr.raw();
        if a >= Self::ESCAPE_BASE {
            return Symbol {
                name: format!("escape:0x{a:x}"),
                region: self.classify(paddr),
            };
        }
        let region = self.classify(paddr);
        let name = match region {
            KernelRegion::Text => {
                let canon = self.canonical_text_addr(paddr);
                let prefix = if canon == paddr {
                    String::new()
                } else {
                    let k = (a - self.replica_base) / self.replica_stride() + 1;
                    format!("replica{k}:")
                };
                match self.routine_at(paddr) {
                    Some(rid) => {
                        let off = canon.raw() - self.routine_base[rid as usize];
                        format!("{prefix}text:{}{}", rid.name(), off_suffix(off))
                    }
                    // Alignment padding between routines (or page 0).
                    None => format!("{prefix}text{}", off_suffix(canon.raw())),
                }
            }
            KernelRegion::ProcTable => {
                let rel = a - self.proc_table;
                format!(
                    "proc[{}]{}",
                    rel / sizes::PROC_ENTRY,
                    off_suffix(rel % sizes::PROC_ENTRY)
                )
            }
            KernelRegion::Pfdat => {
                let rel = a - self.pfdat;
                format!(
                    "pfdat[{}]{}",
                    rel / sizes::PFDAT_ENTRY,
                    off_suffix(rel % sizes::PFDAT_ENTRY)
                )
            }
            KernelRegion::BufHeaders => {
                let rel = a - self.buf_hdrs;
                format!(
                    "bufhdr[{}]{}",
                    rel / sizes::BUF_HDR,
                    off_suffix(rel % sizes::BUF_HDR)
                )
            }
            KernelRegion::InodeTable => {
                let rel = a - self.inode_table;
                format!(
                    "inode[{}]{}",
                    rel / sizes::INODE,
                    off_suffix(rel % sizes::INODE)
                )
            }
            KernelRegion::RunQueue => format!("runq{}", off_suffix(a - self.runq)),
            KernelRegion::FreePgBuck => {
                format!("freepgbuck{}", off_suffix(a - self.free_pg_buck))
            }
            KernelRegion::Callout => format!("callout{}", off_suffix(a - self.callout)),
            KernelRegion::MiscData => {
                let carve = LockFamily::ALL.len() as u64 * LOCK_WORD_BYTES;
                let lock_base = self.misc_data + sizes::MISC_DATA - carve;
                if a >= lock_base {
                    let rel = a - lock_base;
                    let fam = LockFamily::ALL[(rel / LOCK_WORD_BYTES) as usize];
                    format!("lock:{}{}", fam.label(), off_suffix(rel % LOCK_WORD_BYTES))
                } else {
                    format!("misc{}", off_suffix(a - self.misc_data))
                }
            }
            KernelRegion::PageTables => {
                let rel = a - self.page_tables;
                format!(
                    "pagetable[{}]{}",
                    rel / sizes::PAGE_TABLE,
                    off_suffix(rel % sizes::PAGE_TABLE)
                )
            }
            KernelRegion::KernelStack => {
                let rel = a - self.kernel_stacks;
                format!(
                    "kstack[{}]{}",
                    rel / sizes::KERNEL_STACK,
                    off_suffix(rel % sizes::KERNEL_STACK)
                )
            }
            KernelRegion::Pcb | KernelRegion::Eframe | KernelRegion::URest => {
                let rel = a - self.ustructs;
                let (slot, off) = (rel / sizes::USTRUCT, rel % sizes::USTRUCT);
                match region {
                    KernelRegion::Pcb => format!("pcb[{slot}]{}", off_suffix(off)),
                    KernelRegion::Eframe => {
                        format!("eframe[{slot}]{}", off_suffix(off - sizes::PCB))
                    }
                    _ => format!("u[{slot}]{}", off_suffix(off - sizes::PCB - sizes::EFRAME)),
                }
            }
            KernelRegion::BufData => {
                let rel = a - self.buf_data;
                format!(
                    "bufdata[{}]{}",
                    rel / PAGE_SIZE,
                    off_suffix(rel % PAGE_SIZE)
                )
            }
            KernelRegion::PipeBuf => {
                let rel = a - self.pipe_buf;
                format!("pipe[{}]{}", rel / PAGE_SIZE, off_suffix(rel % PAGE_SIZE))
            }
            KernelRegion::FramePool => {
                format!("frame[{}]{}", a / PAGE_SIZE, off_suffix(a % PAGE_SIZE))
            }
        };
        Symbol { name, region }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> Layout {
        Layout::new(32 * 1024 * 1024)
    }

    #[test]
    fn routines_are_contiguous_and_disjoint() {
        let l = layout();
        let mut ranges: Vec<(u64, u64)> = Rid::ALL
            .iter()
            .map(|&r| {
                let (b, s) = l.routine_range(r);
                (b.raw(), b.raw() + s as u64)
            })
            .collect();
        ranges.sort();
        for w in ranges.windows(2) {
            assert!(w[0].1 <= w[1].0, "overlap: {w:?}");
        }
        assert!(l.text_size() > 300 * 1024, "kernel text should be sizable");
        assert!(l.text_size() < 1024 * 1024);
    }

    #[test]
    fn routine_at_resolves_addresses() {
        let l = layout();
        for &rid in Rid::ALL {
            let (base, size) = l.routine_range(rid);
            assert_eq!(l.routine_at(base), Some(rid));
            assert_eq!(l.routine_at(base.add(size as u64 - 1)), Some(rid));
        }
        assert_eq!(l.routine_at(PAddr::new(0)), None, "page 0 is unused");
    }

    /// The linear scan `routine_at` used before its binary search: the
    /// oracle for it.
    fn routine_at_linear(l: &Layout, paddr: PAddr) -> Option<Rid> {
        let a = l.canonical_text_addr(paddr).raw();
        if a < l.text_base || a >= l.text_end {
            return None;
        }
        Rid::ALL.iter().copied().find(|&rid| {
            let base = l.routine_base[rid as usize];
            a >= base && a < base + rid.size() as u64
        })
    }

    /// Every kernel region as `(base, len)`, replica span included.
    fn kernel_regions(l: &Layout) -> Vec<(u64, u64)> {
        vec![
            (l.text_base, l.text_end - l.text_base),
            (l.proc_table, sizes::NPROC * sizes::PROC_ENTRY),
            (l.pfdat, l.pfdat_end - l.pfdat),
            (l.buf_hdrs, sizes::NBUF * sizes::BUF_HDR),
            (l.inode_table, sizes::NINODE * sizes::INODE),
            (l.runq, sizes::RUNQ_HEAD),
            (l.free_pg_buck, sizes::FREE_PG_BUCK),
            (l.callout, sizes::CALLOUT),
            (l.misc_data, sizes::MISC_DATA),
            (l.page_tables, sizes::NPROC * sizes::PAGE_TABLE),
            (l.kernel_stacks, sizes::NPROC * sizes::KERNEL_STACK),
            (l.ustructs, sizes::NPROC * sizes::USTRUCT),
            (l.buf_data, sizes::NBUF * PAGE_SIZE),
            (l.pipe_buf, sizes::NPIPE * PAGE_SIZE),
            (l.replica_base, l.replica_stride() * (l.replicas as u64 - 1)),
        ]
    }

    /// The region chain `classify` ran before its frame-pool early
    /// exit: the oracle for it.
    fn classify_chain(l: &Layout, paddr: PAddr) -> KernelRegion {
        let a = paddr.raw();
        if a < l.text_end {
            return KernelRegion::Text;
        }
        let within = |base: u64, len: u64| a >= base && a < base + len;
        if within(l.proc_table, sizes::NPROC * sizes::PROC_ENTRY) {
            KernelRegion::ProcTable
        } else if a >= l.pfdat && a < l.pfdat_end {
            KernelRegion::Pfdat
        } else if within(l.buf_hdrs, sizes::NBUF * sizes::BUF_HDR) {
            KernelRegion::BufHeaders
        } else if within(l.inode_table, sizes::NINODE * sizes::INODE) {
            KernelRegion::InodeTable
        } else if within(l.runq, sizes::RUNQ_HEAD) {
            KernelRegion::RunQueue
        } else if within(l.free_pg_buck, sizes::FREE_PG_BUCK) {
            KernelRegion::FreePgBuck
        } else if within(l.callout, sizes::CALLOUT) {
            KernelRegion::Callout
        } else if within(l.misc_data, sizes::MISC_DATA) {
            KernelRegion::MiscData
        } else if within(l.page_tables, sizes::NPROC * sizes::PAGE_TABLE) {
            KernelRegion::PageTables
        } else if within(l.kernel_stacks, sizes::NPROC * sizes::KERNEL_STACK) {
            KernelRegion::KernelStack
        } else if within(l.ustructs, sizes::NPROC * sizes::USTRUCT) {
            let off = (a - l.ustructs) % sizes::USTRUCT;
            if off < sizes::PCB {
                KernelRegion::Pcb
            } else if off < sizes::PCB + sizes::EFRAME {
                KernelRegion::Eframe
            } else {
                KernelRegion::URest
            }
        } else if within(l.buf_data, sizes::NBUF * PAGE_SIZE) {
            KernelRegion::BufData
        } else if within(l.pipe_buf, sizes::NPIPE * PAGE_SIZE) {
            KernelRegion::PipeBuf
        } else if l.replicas > 1
            && within(l.replica_base, l.replica_stride() * (l.replicas as u64 - 1))
        {
            KernelRegion::Text
        } else {
            KernelRegion::FramePool
        }
    }

    /// The default layout, a hot-first custom order (the link order
    /// reversed) and a four-way replicated text.
    fn oracle_layouts() -> [Layout; 3] {
        let mut reversed = Rid::ALL.to_vec();
        reversed.reverse();
        [
            layout(),
            Layout::with_order(32 * 1024 * 1024, reversed),
            Layout::replicated(32 * 1024 * 1024, 4),
        ]
    }

    #[test]
    fn routine_at_matches_the_linear_scan() {
        for l in oracle_layouts() {
            // Every 4-byte address of every text copy, page 0, each
            // routine boundary and the page-alignment gap after
            // `text_end` included.
            for k in 0..l.replicas() {
                let copy = l.replicate_text_addr(PAddr::new(0), k).raw();
                for off in (0..=l.replica_stride()).step_by(4) {
                    let a = PAddr::new(copy + off);
                    assert_eq!(
                        l.routine_at(a),
                        routine_at_linear(&l, a),
                        "copy {k}, offset {off:#x}"
                    );
                }
            }
            assert_eq!(l.routine_at(PAddr::new(l.text_end)), None);
            assert_eq!(
                l.routine_at(PAddr::new(l.text_end - 1)),
                Some(l.order[l.order.len() - 1])
            );
        }
    }

    #[test]
    fn classify_matches_the_region_chain() {
        for l in oracle_layouts() {
            let mut probes = vec![0, Layout::ESCAPE_BASE, l.memory_bytes() - 1];
            // First and last byte of every region and the bytes just
            // outside, which lie in the page-alignment gaps.
            for (base, len) in kernel_regions(&l).into_iter().filter(|r| r.1 > 0) {
                probes.extend([base.saturating_sub(1), base, base + len - 1, base + len]);
            }
            // Every block of the kernel map, the whole replica span
            // included, and the first pages of the frame pool.
            let pool = l.frame_pool_first().base().raw();
            probes.extend((0..pool + 4 * PAGE_SIZE).step_by(16));
            for a in probes {
                let a = PAddr::new(a);
                assert_eq!(l.classify(a), classify_chain(&l, a), "{:#x}", a.raw());
            }
        }
    }

    #[test]
    fn table3_sizes_match_paper() {
        assert_eq!(sizes::KERNEL_STACK, 4096);
        assert_eq!(sizes::PCB, 240);
        assert_eq!(sizes::EFRAME, 172);
        assert_eq!(sizes::U_REST, 3684);
        assert_eq!(sizes::USTRUCT, 4096);
        assert_eq!(sizes::NPROC * sizes::PROC_ENTRY, 46080);
        assert_eq!(sizes::NBUF * sizes::BUF_HDR, 17408);
        assert_eq!(sizes::NINODE * sizes::INODE, 68608);
        assert_eq!(sizes::RUNQ_HEAD, 24);
        assert_eq!(sizes::FREE_PG_BUCK, 3072);
    }

    #[test]
    fn ustruct_sections_classify_correctly() {
        let l = layout();
        let s = ProcSlot(5);
        assert_eq!(l.classify(l.pcb(s)), KernelRegion::Pcb);
        assert_eq!(l.classify(l.pcb(s).add(239)), KernelRegion::Pcb);
        assert_eq!(l.classify(l.eframe(s)), KernelRegion::Eframe);
        assert_eq!(l.classify(l.eframe(s).add(171)), KernelRegion::Eframe);
        assert_eq!(l.classify(l.u_rest(s)), KernelRegion::URest);
        assert_eq!(
            l.classify(l.ustruct(s).add(sizes::USTRUCT - 1)),
            KernelRegion::URest
        );
    }

    #[test]
    fn structure_addresses_classify_to_their_regions() {
        let l = layout();
        assert_eq!(
            l.classify(l.proc_entry(ProcSlot(0))),
            KernelRegion::ProcTable
        );
        assert_eq!(
            l.classify(l.proc_entry(ProcSlot(127)).add(359)),
            KernelRegion::ProcTable
        );
        assert_eq!(l.classify(l.pfdat_entry(Ppn(0))), KernelRegion::Pfdat);
        assert_eq!(l.classify(l.buf_hdr(135)), KernelRegion::BufHeaders);
        assert_eq!(l.classify(l.inode(267)), KernelRegion::InodeTable);
        assert_eq!(l.classify(l.run_queue()), KernelRegion::RunQueue);
        assert_eq!(l.classify(l.free_pg_buck()), KernelRegion::FreePgBuck);
        assert_eq!(l.classify(l.callout()), KernelRegion::Callout);
        assert_eq!(
            l.classify(l.page_table(ProcSlot(3))),
            KernelRegion::PageTables
        );
        assert_eq!(
            l.classify(l.kernel_stack(ProcSlot(9))),
            KernelRegion::KernelStack
        );
        assert_eq!(l.classify(l.buf_data(10)), KernelRegion::BufData);
        assert_eq!(l.classify(l.pipe_buf(1)), KernelRegion::PipeBuf);
        assert_eq!(
            l.classify(l.frame_pool_first().base()),
            KernelRegion::FramePool
        );
        assert_eq!(l.classify(l.routine_base(Rid::Bcopy)), KernelRegion::Text);
    }

    #[test]
    fn frame_pool_has_most_of_memory() {
        let l = layout();
        // 32 MB machine: kernel should leave well over 20 MB of frames.
        assert!(l.frame_pool_len() > 5500, "{}", l.frame_pool_len());
        assert_eq!(l.frame_pool_end().0, 8192);
    }

    #[test]
    fn custom_order_places_first_routine_at_text_base() {
        let mut order = Rid::ALL.to_vec();
        // Move Bcopy to the front.
        let pos = order.iter().position(|&r| r == Rid::Bcopy).unwrap();
        order.swap(0, pos);
        let l = Layout::with_order(32 * 1024 * 1024, order);
        assert_eq!(l.routine_base(Rid::Bcopy).raw(), PAGE_SIZE);
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn duplicate_order_rejected() {
        let mut order = Rid::ALL.to_vec();
        order[1] = order[0];
        let _ = Layout::with_order(32 * 1024 * 1024, order);
    }

    #[test]
    fn fallible_constructor_reports_what_the_panicking_one_asserts() {
        let mut dup = Rid::ALL.to_vec();
        dup[1] = dup[0];
        let cases = [
            (32 * 1024 * 1024, Rid::ALL[1..].to_vec(), "cover all"),
            (32 * 1024 * 1024, dup, "permutation"),
            (
                1024 * 1024,
                Rid::ALL.to_vec(),
                "does not fit in 1048576 bytes",
            ),
            (PAGE_SIZE << 33, Rid::ALL.to_vec(), "page-number range"),
        ];
        for (memory, order, needle) in cases {
            let err = Layout::try_with_order_and_replicas(memory, order, 1).unwrap_err();
            assert!(err.contains(needle), "{err}");
        }
        let ok = Layout::try_with_order_and_replicas(32 * 1024 * 1024, Rid::ALL.to_vec(), 1)
            .expect("the stock machine fits");
        assert_eq!(ok.frame_pool_end().0, 8192);
    }

    #[test]
    fn escape_base_is_outside_memory() {
        let l = layout();
        assert!(Layout::ESCAPE_BASE >= l.memory_bytes());
    }

    /// The named kernel structures occupy pairwise-disjoint address
    /// ranges: no byte belongs to two symbols.
    #[test]
    fn structure_ranges_are_disjoint() {
        let l = layout();
        let mut ranges: Vec<(u64, u64, &str)> = vec![
            (l.text_base, l.text_end, "text"),
            (
                l.proc_table,
                l.proc_table + sizes::NPROC * sizes::PROC_ENTRY,
                "proc",
            ),
            (l.pfdat, l.pfdat_end, "pfdat"),
            (
                l.buf_hdrs,
                l.buf_hdrs + sizes::NBUF * sizes::BUF_HDR,
                "bufhdr",
            ),
            (
                l.inode_table,
                l.inode_table + sizes::NINODE * sizes::INODE,
                "inode",
            ),
            (l.runq, l.runq + sizes::RUNQ_HEAD, "runq"),
            (
                l.free_pg_buck,
                l.free_pg_buck + sizes::FREE_PG_BUCK,
                "freepgbuck",
            ),
            (l.callout, l.callout + sizes::CALLOUT, "callout"),
            (l.misc_data, l.misc_data + sizes::MISC_DATA, "misc"),
            (
                l.page_tables,
                l.page_tables + sizes::NPROC * sizes::PAGE_TABLE,
                "pagetable",
            ),
            (
                l.kernel_stacks,
                l.kernel_stacks + sizes::NPROC * sizes::KERNEL_STACK,
                "kstack",
            ),
            (
                l.ustructs,
                l.ustructs + sizes::NPROC * sizes::USTRUCT,
                "ustruct",
            ),
            (l.buf_data, l.buf_data + sizes::NBUF * PAGE_SIZE, "bufdata"),
            (l.pipe_buf, l.pipe_buf + sizes::NPIPE * PAGE_SIZE, "pipe"),
            (
                l.frame_pool_first.base().raw(),
                l.frame_pool_end.base().raw(),
                "frames",
            ),
        ];
        ranges.sort();
        for w in ranges.windows(2) {
            assert!(
                w[0].1 <= w[1].0,
                "{} [{:#x},{:#x}) overlaps {} [{:#x},{:#x})",
                w[0].2,
                w[0].0,
                w[0].1,
                w[1].2,
                w[1].0,
                w[1].1
            );
        }
    }

    /// Symbolization is total and consistent: every address in kernel
    /// space resolves to exactly one symbol (the resolver is a total
    /// function) whose region agrees with `classify`, and the symbol
    /// name matches the region's naming scheme.
    #[test]
    fn symbolization_is_total_and_consistent() {
        let l = layout();
        let end = l.frame_pool_first().base().raw() + 4 * PAGE_SIZE;
        // A coarse stride with a prime offset visits every structure,
        // both sides of each boundary, and intra-object offsets.
        let mut a = 0u64;
        while a < end {
            let p = PAddr::new(a);
            let sym = l.symbol_at(p);
            assert!(!sym.name.is_empty(), "no symbol for {a:#x}");
            assert_eq!(sym.region, l.classify(p), "region mismatch at {a:#x}");
            a += 13;
        }
        // The escape range resolves too.
        let esc = l.symbol_at(PAddr::new(Layout::ESCAPE_BASE + 0x21));
        assert!(esc.name.starts_with("escape:0x"));
    }

    /// The structure accessors round-trip through the resolver: the
    /// address of a named object symbolizes to that object's name.
    #[test]
    fn accessors_round_trip_through_symbolizer() {
        let l = layout();
        for &rid in Rid::ALL {
            let (base, size) = l.routine_range(rid);
            let s = l.symbol_at(base);
            assert_eq!(s.name, format!("text:{}", rid.name()));
            assert_eq!(s.region, KernelRegion::Text);
            let last = l.symbol_at(base.add(size as u64 - 1));
            assert!(
                last.name.starts_with(&format!("text:{}", rid.name())),
                "{}",
                last.name
            );
        }
        for slot in [0usize, 1, 63, 127] {
            let s = ProcSlot(slot as u16);
            assert_eq!(l.symbol_at(l.proc_entry(s)).name, format!("proc[{slot}]"));
            assert_eq!(
                l.symbol_at(l.proc_entry(s).add(8)).name,
                format!("proc[{slot}]+0x8")
            );
            assert_eq!(
                l.symbol_at(l.kernel_stack(s)).name,
                format!("kstack[{slot}]")
            );
            assert_eq!(l.symbol_at(l.pcb(s)).name, format!("pcb[{slot}]"));
            assert_eq!(l.symbol_at(l.eframe(s)).name, format!("eframe[{slot}]"));
            assert_eq!(l.symbol_at(l.u_rest(s)).name, format!("u[{slot}]"));
            assert_eq!(
                l.symbol_at(l.page_table(s)).name,
                format!("pagetable[{slot}]")
            );
        }
        for ppn in [0u32, 100, 8191] {
            assert_eq!(
                l.symbol_at(l.pfdat_entry(Ppn(ppn))).name,
                format!("pfdat[{ppn}]")
            );
        }
        assert_eq!(l.symbol_at(l.run_queue()).name, "runq");
        assert_eq!(l.symbol_at(l.run_queue().add(8)).name, "runq+0x8");
        assert_eq!(l.symbol_at(l.buf_hdr(5)).name, "bufhdr[5]");
        assert_eq!(l.symbol_at(l.inode(7)).name, "inode[7]");
        assert_eq!(l.symbol_at(l.misc_data()).name, "misc");
    }

    /// Every lock family has a named word inside misc-data, and the
    /// words symbolize back to `lock:<Family>`.
    #[test]
    fn lock_words_are_named_and_disjoint() {
        let l = layout();
        let mut seen = Vec::new();
        for &fam in &LockFamily::ALL {
            let w = l.lock_word(fam);
            assert_eq!(l.classify(w), KernelRegion::MiscData);
            let s = l.symbol_at(w);
            assert_eq!(s.name, format!("lock:{}", fam.label()));
            assert_eq!(
                l.symbol_at(w.add(4)).name,
                format!("lock:{}+0x4", fam.label())
            );
            seen.push(w.raw());
        }
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), LockFamily::ALL.len());
    }

    /// Replicated layouts symbolize replica text back to the canonical
    /// routine, tagged with the replica index.
    #[test]
    fn replica_text_symbolizes_to_canonical_routine() {
        let l = Layout::replicated(64 * 1024 * 1024, 3);
        let base = l.routine_base(Rid::Swtch);
        let rep = l.replicate_text_addr(base.add(4), 2);
        assert_ne!(rep, base.add(4));
        let s = l.symbol_at(rep);
        assert_eq!(s.region, KernelRegion::Text);
        assert_eq!(s.name, "replica2:text:swtch+0x4");
    }
}
