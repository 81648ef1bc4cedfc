//! The kernel world: per-CPU execution contexts, the step engine, and
//! interrupt delivery.
//!
//! `OsWorld::step` advances one CPU by one micro-operation: a kernel
//! frame op, a user-program op (with TLB translation), or one idle-loop
//! iteration. The companion module `paths` builds the kernel
//! code paths (system calls, faults, interrupts) and executes the
//! deferred [`KCall`](crate::exec::KCall) decision points.

use std::collections::HashMap;

use oscar_machine::addr::{CpuId, PAddr, Ppn, VAddr, Vpn, BLOCK_SIZE, PAGE_SIZE};
use oscar_machine::machine::Machine;

use crate::exec::{sweep_step, Chan, Disposition, KFrame, KOp, NUM_KOP_KINDS};
use crate::fs::{BufferCache, Disk};
use crate::instrument::{OsEvent, NUM_OPCODES};
use crate::layout::{sizes, Layout, Rid};
use crate::locks::{LockFamily, LockId, LockObsStats, LockSpan, LockTable, TryAcquire};
use crate::proc::{ProcTable, Process, Pte};
use crate::sched::{RunQueue, SchedObs, SchedPolicy};
use crate::stats::OsStats;
use crate::types::{Mode, Pid, ProcSlot};
use crate::user::{segs, SysReq, TaskEnv, UOp, UserTask};
use crate::vm::FrameDb;

/// Cycles of one user `Compute` step: a longer computation runs as
/// several steps of at most this many cycles.
pub(crate) const USER_COMPUTE_CHUNK: u64 = 5_000;

/// Tunable kernel parameters. Defaults approximate IRIX 3.2 on the
/// 33 MHz 4D/340 (one cycle = 30 ns).
#[derive(Debug, Clone)]
pub struct OsTuning {
    /// Cycles between clock interrupts (10 ms at 33 MHz).
    pub clock_tick_cycles: u64,
    /// Scheduling quantum in clock ticks.
    pub quantum_ticks: u32,
    /// `schedcpu` priority recomputation period, in ticks.
    pub schedcpu_ticks: u64,
    /// Nominal disk service latency in cycles.
    pub disk_latency_cycles: u64,
    /// Additional deterministic disk jitter span.
    pub disk_jitter_cycles: u64,
    /// Cycles burned per idle-loop iteration.
    pub idle_iter_cycles: u64,
    /// Extra backoff cycles per failed kernel lock spin.
    pub spin_retry_cycles: u64,
    /// Failed user-lock spins before the library calls `sginap`.
    pub user_spin_limit: u32,
    /// Bytes per buffer-cache transfer chunk in `read`/`write`.
    pub io_chunk_bytes: u32,
    /// Scheduling policy (free migration vs cache affinity).
    pub policy: SchedPolicy,
    /// Block operations bypass the caches (the paper's proposed
    /// optimization; an ablation knob).
    pub block_op_bypass: bool,
    /// Free-frame low watermark that triggers the page-out scan.
    pub low_free_frames: usize,
    /// Frames reclaimed per page-out scan.
    pub pageout_batch: usize,
    /// Master seed for per-process randomness.
    pub seed: u64,
    /// Fraction (1/n) of TLB refills that take the slow "cheap fault"
    /// path (software reference-bit emulation).
    pub cheap_fault_divisor: u32,
    /// Optional kernel text link order (the code-layout optimization
    /// ablation permutes hot routines to reduce I-cache conflicts).
    pub layout_order: Option<Vec<Rid>>,
    /// Number of clusters (Section 6 mode; 1 = the paper's flat
    /// machine). Must match the machine configuration.
    pub clusters: u8,
    /// Replicate the kernel text once per cluster, so instruction
    /// misses are serviced from cluster-local memory (Section 6's first
    /// proposal).
    pub replicate_os_text: bool,
    /// One run queue (and `Runqlk`) per cluster, with idle stealing for
    /// load balance (Section 6's second proposal).
    pub distributed_runq: bool,
    /// Sequential read-ahead in the buffer cache (`breada`): a
    /// sequential read miss also schedules the next block
    /// asynchronously. Off by default to match the calibrated baseline;
    /// an ablation knob.
    pub read_ahead: bool,
}

impl Default for OsTuning {
    fn default() -> Self {
        OsTuning {
            clock_tick_cycles: 330_000,
            quantum_ticks: 2,
            schedcpu_ticks: 16,
            disk_latency_cycles: 250_000,
            disk_jitter_cycles: 130_000,
            idle_iter_cycles: 40,
            spin_retry_cycles: 14,
            user_spin_limit: 20,
            io_chunk_bytes: 1024,
            policy: SchedPolicy::FreeMigration,
            block_op_bypass: false,
            low_free_frames: 96,
            pageout_batch: 48,
            seed: 0x05ca_4d34,
            cheap_fault_divisor: 20,
            layout_order: None,
            clusters: 1,
            replicate_os_text: false,
            distributed_runq: false,
            read_ahead: false,
        }
    }
}

impl OsTuning {
    /// A Section 6 cluster configuration: replicated OS text and
    /// distributed run queues over `clusters` clusters.
    pub fn clustered(clusters: u8) -> Self {
        OsTuning {
            clusters: clusters.max(1),
            replicate_os_text: true,
            distributed_runq: true,
            ..OsTuning::default()
        }
    }
}

/// Where a kernel frame lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FrameLoc {
    /// The CPU's dispatch (context-switch) frame.
    Dispatch,
    /// Top of the CPU's interrupt stack.
    Intr,
    /// Top of the running process's kernel stack.
    Proc(ProcSlot),
}

/// Per-CPU execution context.
#[derive(Debug)]
pub(crate) struct CpuCtx {
    pub running: Option<ProcSlot>,
    pub intr_stack: Vec<KFrame>,
    pub dispatch: Option<KFrame>,
    pub idle: bool,
    pub in_os: bool,
    pub resched: bool,
    pub next_tick_at: u64,
    /// Pending inter-CPU interrupts (TLB shootdowns).
    pub pending_ipi: u32,
    /// Spin locks currently held by code on this CPU. While non-zero,
    /// interrupt delivery is deferred (the spl mechanism of real
    /// kernels) — otherwise a nested handler could self-deadlock trying
    /// to take a lock its own CPU already holds.
    pub spl: u32,
}

impl CpuCtx {
    fn save(&self, w: &mut crate::snap::SnapWriter) {
        match self.running {
            None => w.bool(false),
            Some(s) => {
                w.bool(true);
                w.u16(s.0);
            }
        }
        w.usize(self.intr_stack.len());
        for f in &self.intr_stack {
            crate::snap::save_kframe(w, f);
        }
        match &self.dispatch {
            None => w.bool(false),
            Some(f) => {
                w.bool(true);
                crate::snap::save_kframe(w, f);
            }
        }
        w.bool(self.idle);
        w.bool(self.in_os);
        w.bool(self.resched);
        w.u64(self.next_tick_at);
        w.u32(self.pending_ipi);
        w.u32(self.spl);
    }

    fn load(&mut self, r: &mut crate::snap::SnapReader<'_>) -> Result<(), crate::snap::SnapError> {
        self.running = if r.bool()? {
            Some(ProcSlot(r.u16()?))
        } else {
            None
        };
        let n = r.usize()?;
        self.intr_stack.clear();
        for _ in 0..n {
            self.intr_stack.push(crate::snap::load_kframe(r)?);
        }
        self.dispatch = if r.bool()? {
            Some(crate::snap::load_kframe(r)?)
        } else {
            None
        };
        self.idle = r.bool()?;
        self.in_os = r.bool()?;
        self.resched = r.bool()?;
        self.next_tick_at = r.u64()?;
        self.pending_ipi = r.u32()?;
        self.spl = r.u32()?;
        Ok(())
    }

    fn new(first_tick: u64) -> Self {
        CpuCtx {
            running: None,
            intr_stack: Vec::new(),
            dispatch: None,
            idle: false,
            in_os: false,
            resched: false,
            next_tick_at: first_tick,
            pending_ipi: 0,
            spl: 0,
        }
    }
}

/// A pending callout (timeout table entry).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Callout {
    pub due_tick: u64,
    pub chan: Chan,
}

/// Kernel execution probes, kept only while observability is enabled
/// (a single `Option` check on the hot paths when it is not).
#[derive(Debug, Default)]
pub struct KernelProbes {
    /// Micro-ops executed, by [`KOp`] kind ([`KOp::KIND_LABELS`] order).
    pub kop: [u64; NUM_KOP_KINDS],
    /// Escape events emitted, by opcode
    /// ([`opcode_label`](crate::instrument::opcode_label) names them).
    pub escapes: [u64; NUM_OPCODES as usize],
    /// Buffer-cache transfer chunks moved by the `read`/`write` paths.
    pub io_chunks: u64,
    /// uTLB refill frames built.
    pub utlb_refills: u64,
    /// Copy-on-write fault frames built.
    pub cow_faults: u64,
}

/// Everything the kernel-side probes collected over a window, detached
/// by [`OsWorld::take_obs`].
#[derive(Debug, Default)]
pub struct KernelObsReport {
    /// Execution counters.
    pub probes: KernelProbes,
    /// Run-queue probes, merged across all queues.
    pub sched: SchedObs,
    /// Per-lock spin/hold profiles, most contended first.
    pub lock_profiles: Vec<(LockId, LockObsStats)>,
    /// Raw lock intervals in completion order, for timeline export.
    pub lock_spans: Vec<LockSpan>,
}

/// The simulated operating system.
pub struct OsWorld {
    pub(crate) layout: Layout,
    pub(crate) tuning: OsTuning,
    pub(crate) procs: ProcTable,
    pub(crate) runqs: Vec<RunQueue>,
    pub(crate) next_spawn_cluster: u8,
    pub(crate) frames: FrameDb,
    pub(crate) bufcache: BufferCache,
    pub(crate) disk: Disk,
    pub(crate) locks: LockTable,
    pub(crate) stats: OsStats,
    pub(crate) cpus: Vec<CpuCtx>,
    pub(crate) callouts: Vec<Callout>,
    pub(crate) global_tick: u64,
    pub(crate) sems: HashMap<u32, i64>,
    pub(crate) pipes: Vec<u32>,
    pub(crate) incore_inodes: HashMap<u32, usize>,
    pub(crate) file_sizes: HashMap<u32, u64>,
    pub(crate) last_disk_key: Option<(u32, u32)>,
    pub(crate) cold_cursor: u64,
    pub(crate) num_cpus: u8,
    pub(crate) disk_cpu: CpuId,
    pub(crate) probes: Option<Box<KernelProbes>>,
    pub(crate) engine: crate::engine::Engine,
}

impl std::fmt::Debug for OsWorld {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OsWorld")
            .field("live_procs", &self.procs.live())
            .field(
                "runq_len",
                &self.runqs.iter().map(|q| q.len()).sum::<usize>(),
            )
            .field("global_tick", &self.global_tick)
            .finish_non_exhaustive()
    }
}

impl OsWorld {
    /// Builds the OS for a machine with `num_cpus` CPUs and
    /// `memory_bytes` of memory.
    pub fn new(num_cpus: u8, memory_bytes: u64, tuning: OsTuning) -> Self {
        let text_copies = if tuning.replicate_os_text {
            tuning.clusters.max(1)
        } else {
            1
        };
        let layout = Layout::with_order_and_replicas(
            memory_bytes,
            tuning
                .layout_order
                .clone()
                .unwrap_or_else(|| Rid::ALL.to_vec()),
            text_copies,
        );
        let frames = FrameDb::new(layout.frame_pool_first(), layout.frame_pool_end());
        let first_tick = tuning.clock_tick_cycles;
        OsWorld {
            frames,
            bufcache: BufferCache::new(sizes::NBUF as usize),
            disk: Disk::new(tuning.disk_latency_cycles, tuning.disk_jitter_cycles),
            locks: LockTable::new(),
            stats: OsStats::new(num_cpus as usize),
            procs: ProcTable::new(sizes::NPROC as usize),
            runqs: (0..if tuning.distributed_runq {
                tuning.clusters.max(1)
            } else {
                1
            })
                .map(|_| RunQueue::new(tuning.policy))
                .collect(),
            next_spawn_cluster: 0,
            cpus: (0..num_cpus).map(|_| CpuCtx::new(first_tick)).collect(),
            callouts: Vec::new(),
            global_tick: 0,
            sems: HashMap::new(),
            pipes: vec![0; sizes::NPIPE as usize],
            incore_inodes: HashMap::new(),
            file_sizes: HashMap::new(),
            last_disk_key: None,
            cold_cursor: 0,
            num_cpus,
            disk_cpu: CpuId(0),
            probes: None,
            engine: crate::engine::Engine::default(),
            layout,
            tuning,
        }
    }

    /// Serializes the complete dynamic OS state into `w`.
    ///
    /// Configuration-derived state (layout, tuning, service latencies)
    /// is not written; [`OsWorld::restore_snapshot`] rebuilds it from
    /// the same constructor arguments. Observability probes are never
    /// part of a snapshot — a restored world starts with probes off.
    /// Maps are written with sorted keys so snapshot bytes are a
    /// deterministic function of state, making byte equality a valid
    /// state-equality witness.
    ///
    /// # Panics
    ///
    /// Panics if any live task does not implement
    /// [`UserTask::save`].
    pub fn save_snapshot(&self, w: &mut crate::snap::SnapWriter) {
        w.u8(self.num_cpus);
        let mut saver = crate::snap::TaskSaver::new(w);
        self.procs.save(&mut saver);
        let w = saver.writer();
        w.usize(self.runqs.len());
        for q in &self.runqs {
            q.save(w);
        }
        w.u8(self.next_spawn_cluster);
        self.frames.save(w);
        self.bufcache.save(w);
        self.disk.save(w);
        self.locks.save(w);
        self.stats.save(w);
        for cpu in &self.cpus {
            cpu.save(w);
        }
        w.usize(self.callouts.len());
        for c in &self.callouts {
            w.u64(c.due_tick);
            crate::snap::save_chan(w, &c.chan);
        }
        w.u64(self.global_tick);
        let mut sems: Vec<u32> = self.sems.keys().copied().collect();
        sems.sort_unstable();
        w.usize(sems.len());
        for k in sems {
            w.u32(k);
            w.i64(self.sems[&k]);
        }
        w.usize(self.pipes.len());
        for p in &self.pipes {
            w.u32(*p);
        }
        let mut inos: Vec<u32> = self.incore_inodes.keys().copied().collect();
        inos.sort_unstable();
        w.usize(inos.len());
        for k in inos {
            w.u32(k);
            w.usize(self.incore_inodes[&k]);
        }
        let mut sizes: Vec<u32> = self.file_sizes.keys().copied().collect();
        sizes.sort_unstable();
        w.usize(sizes.len());
        for k in sizes {
            w.u32(k);
            w.u64(self.file_sizes[&k]);
        }
        match self.last_disk_key {
            None => w.bool(false),
            Some((a, b)) => {
                w.bool(true);
                w.u32(a);
                w.u32(b);
            }
        }
        w.u64(self.cold_cursor);
    }

    /// Reconstructs a world from a snapshot written by
    /// [`OsWorld::save_snapshot`]. The constructor arguments must match
    /// the saved world's; `factory` maps task tags back to concrete
    /// workload types.
    pub fn restore_snapshot(
        num_cpus: u8,
        memory_bytes: u64,
        tuning: OsTuning,
        factory: &dyn crate::snap::TaskFactory,
        r: &mut crate::snap::SnapReader<'_>,
    ) -> Result<Self, crate::snap::SnapError> {
        use crate::snap::SnapError;
        let mut os = OsWorld::new(num_cpus, memory_bytes, tuning);
        if r.u8()? != os.num_cpus {
            return Err(SnapError::Corrupt("os cpu count"));
        }
        let mut restorer = crate::snap::TaskRestorer::new(r, factory);
        os.procs.load(&mut restorer)?;
        let r = restorer.reader();
        if r.usize()? != os.runqs.len() {
            return Err(SnapError::Corrupt("run queue count"));
        }
        for q in &mut os.runqs {
            q.load(r)?;
        }
        os.next_spawn_cluster = r.u8()?;
        os.frames.load(r)?;
        os.bufcache.load(r)?;
        os.disk.load(r)?;
        os.locks.load(r)?;
        os.stats.load(r)?;
        for cpu in &mut os.cpus {
            cpu.load(r)?;
        }
        let n = r.usize()?;
        os.callouts.clear();
        for _ in 0..n {
            os.callouts.push(Callout {
                due_tick: r.u64()?,
                chan: crate::snap::load_chan(r)?,
            });
        }
        os.global_tick = r.u64()?;
        let n = r.usize()?;
        os.sems.clear();
        for _ in 0..n {
            let k = r.u32()?;
            let v = r.i64()?;
            os.sems.insert(k, v);
        }
        if r.usize()? != os.pipes.len() {
            return Err(SnapError::Corrupt("pipe count"));
        }
        for p in &mut os.pipes {
            *p = r.u32()?;
        }
        let n = r.usize()?;
        os.incore_inodes.clear();
        for _ in 0..n {
            let k = r.u32()?;
            let v = r.usize()?;
            os.incore_inodes.insert(k, v);
        }
        let n = r.usize()?;
        os.file_sizes.clear();
        for _ in 0..n {
            let k = r.u32()?;
            let v = r.u64()?;
            os.file_sizes.insert(k, v);
        }
        os.last_disk_key = if r.bool()? {
            Some((r.u32()?, r.u32()?))
        } else {
            None
        };
        os.cold_cursor = r.u64()?;
        Ok(os)
    }

    /// Turns on kernel-side observability: the lock-table probes, the
    /// run-queue probes, and the execution counters. Enable at the
    /// measurement-window start `now` so warmup activity is excluded;
    /// locks still held from warmup are seeded as truncated spans
    /// clipped at `now`.
    pub fn enable_obs(&mut self, now: u64) {
        self.locks.enable_obs(now);
        for q in &mut self.runqs {
            q.enable_obs();
        }
        if self.probes.is_none() {
            self.probes = Some(Box::default());
        }
    }

    /// Detaches everything the kernel probes collected, disabling them.
    /// Lock intervals still open at the window end `now` are closed
    /// there as truncated spans. Returns `None` when observability was
    /// never enabled.
    pub fn take_obs(&mut self, now: u64) -> Option<Box<KernelObsReport>> {
        let probes = self.probes.take()?;
        let mut sched = SchedObs::default();
        for q in &mut self.runqs {
            if let Some(s) = q.take_obs() {
                sched.merge(&s);
            }
        }
        let (lock_profiles, lock_spans) = match self.locks.take_obs(now) {
            Some(obs) => {
                let profiles = obs
                    .profiles()
                    .into_iter()
                    .map(|(id, st)| (id, st.clone()))
                    .collect();
                (profiles, obs.into_spans())
            }
            None => (Vec::new(), Vec::new()),
        };
        Some(Box::new(KernelObsReport {
            probes: *probes,
            sched,
            lock_profiles,
            lock_spans,
        }))
    }

    /// The kernel layout (symbol table), needed by the trace
    /// postprocessor.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// The cluster `cpu` belongs to.
    pub(crate) fn cluster_of(&self, cpu: CpuId) -> u8 {
        let clusters = self.tuning.clusters.max(1);
        let per = (self.num_cpus / clusters).max(1);
        (cpu.0 / per).min(clusters - 1)
    }

    /// The run-queue index serving `cpu`.
    pub(crate) fn runq_index(&self, cpu: CpuId) -> usize {
        if self.runqs.len() <= 1 {
            0
        } else {
            self.cluster_of(cpu) as usize % self.runqs.len()
        }
    }

    /// Enqueues a process on the queue of its last CPU's cluster (or
    /// round-robin for fresh processes). Returns the queue index used.
    pub(crate) fn enqueue_proc(&mut self, m: &mut Machine, slot: ProcSlot) -> usize {
        if self.runqs.iter().all(RunQueue::is_empty) {
            // Hook: idle CPUs poll privately only while every queue is
            // empty, so the enqueue that ends that catches them up.
            self.catch_up_others(m);
            for c in 0..self.num_cpus {
                self.assert_caught_up(m, CpuId(c), "run-queue enqueue");
            }
        }
        self.enqueue(slot)
    }

    /// [`OsWorld::enqueue_proc`] without the catch-up hook, for boot-time
    /// spawns (outside [`OsWorld::run_until`]).
    fn enqueue(&mut self, slot: ProcSlot) -> usize {
        let idx = if self.runqs.len() <= 1 {
            0
        } else {
            match self.procs.get(slot).and_then(|p| p.last_cpu) {
                Some(cpu) => self.runq_index(cpu),
                None => {
                    let c = self.next_spawn_cluster as usize % self.runqs.len();
                    self.next_spawn_cluster = self.next_spawn_cluster.wrapping_add(1);
                    c
                }
            }
        };
        self.runqs[idx].enqueue(slot);
        idx
    }

    /// Whether any run queue has work visible to `cpu` (its own
    /// cluster's queue, or any queue when stealing is allowed).
    pub(crate) fn any_runnable(&self, cpu: CpuId) -> bool {
        if self.runqs.len() <= 1 {
            return !self.runqs[0].is_empty();
        }
        // Own cluster first; stealing makes all queues visible.
        let own = self.runq_index(cpu);
        !self.runqs[own].is_empty() || self.runqs.iter().any(|q| !q.is_empty())
    }

    /// Initializes the machine's page-home table for cluster mode:
    /// kernel structures live in cluster 0's memory, each text replica
    /// in its own cluster (the Section 6 replication).
    pub fn init_page_homes(&self, m: &mut Machine) {
        if self.tuning.clusters <= 1 {
            return;
        }
        for k in 1..self.layout.replicas() {
            let (first, pages) = self.layout.replica_page_range(k);
            for p in 0..pages {
                m.set_page_home(Ppn(first.0 + p), k);
            }
        }
    }

    /// The tuning in effect.
    pub fn tuning(&self) -> &OsTuning {
        &self.tuning
    }

    /// Ground-truth statistics.
    pub fn stats(&self) -> &OsStats {
        &self.stats
    }

    /// Lock statistics.
    pub fn locks(&self) -> &LockTable {
        &self.locks
    }

    /// Number of live processes.
    pub fn live_processes(&self) -> usize {
        self.procs.live()
    }

    /// Spawns an initial process running `task` (ready to run).
    /// Returns its slot.
    ///
    /// # Panics
    ///
    /// Panics if the process table is full.
    pub fn spawn_initial(&mut self, task: Box<dyn UserTask>) -> ProcSlot {
        let slot = self
            .procs
            .spawn(task, None, self.tuning.quantum_ticks, self.tuning.seed)
            .expect("process table full at boot");
        self.enqueue(slot);
        slot
    }

    /// Spawns an initial process pinned to one CPU (the paper's network
    /// functions run on CPU 1 only).
    ///
    /// # Panics
    ///
    /// Panics if the process table is full.
    pub fn spawn_initial_pinned(&mut self, task: Box<dyn UserTask>, cpu: CpuId) -> ProcSlot {
        let slot = self.spawn_initial(task);
        if let Some(p) = self.procs.get_mut(slot) {
            p.pinned_cpu = Some(cpu);
        }
        slot
    }

    /// Emits the trace-start state dump (the paper's tracing system
    /// call): a `TraceStart` marker, the current TLB contents of every
    /// CPU, and the running pid of every CPU.
    pub fn emit_trace_start(&mut self, m: &mut Machine) {
        self.emit(m, CpuId(0), OsEvent::TraceStart);
        for c in 0..self.num_cpus {
            let cpu = CpuId(c);
            let snap = m.tlb(cpu).snapshot();
            for (index, e) in snap {
                self.emit(
                    m,
                    cpu,
                    OsEvent::TlbSet {
                        index: index as u32,
                        vpn: e.vpn.0,
                        ppn: e.ppn.0,
                        pid: e.asid,
                    },
                );
            }
            let pid = self.cpus[cpu.index()]
                .running
                .and_then(|s| self.procs.get(s))
                .map_or(u32::MAX, |p| p.pid.0);
            self.emit(m, cpu, OsEvent::PidChange { pid });
        }
    }

    /// Emits one instrumentation event as its escape sequence.
    pub(crate) fn emit(&mut self, m: &mut Machine, cpu: CpuId, ev: OsEvent) {
        if let Some(p) = &mut self.probes {
            p.escapes[ev.opcode() as usize] += 1;
        }
        for addr in ev.encode() {
            let out = m.uncached_read(cpu, addr);
            self.stats.escape_reads += 1;
            self.stats.escape_cycles += out.cycles;
        }
    }

    /// Where `cpu` fetches kernel text at `paddr`: the cluster-local
    /// replica when text replication is on.
    pub(crate) fn text_addr(&self, cpu: CpuId, paddr: PAddr) -> PAddr {
        if self.tuning.replicate_os_text {
            self.layout.replicate_text_addr(paddr, self.cluster_of(cpu))
        } else {
            paddr
        }
    }

    /// The idle loop's fetch on `cpu`: its address and instruction
    /// count.
    pub(crate) fn idle_fetch(&self, cpu: CpuId) -> (PAddr, u32) {
        let (base, len) = self.layout.routine_range(Rid::IdleLoop);
        (self.text_addr(cpu, base), (len / 4).clamp(1, 8))
    }

    /// Hook for a kernel data write at `addr`: a write to the run-queue
    /// block invalidates every other CPU's copy, which idle polls read
    /// privately, so it catches the other CPUs up first.
    fn note_data_write(&mut self, m: &mut Machine, addr: u64) {
        if PAddr::new(addr).block() == self.layout.run_queue().block() {
            self.catch_up_others(m);
            for c in 0..self.num_cpus {
                self.assert_caught_up(m, CpuId(c), "run-queue write");
            }
        }
    }

    /// An instruction-fetch window over a whole routine.
    pub(crate) fn win(&self, rid: Rid) -> KOp {
        let (base, len) = self.layout.routine_range(rid);
        KOp::fetch(base, len)
    }

    /// An instruction-fetch window over slice `part` of `parts` of a
    /// routine (hot-path partial execution).
    pub(crate) fn win_part(&self, rid: Rid, part: u32, parts: u32) -> KOp {
        let (base, len) = self.layout.routine_range(rid);
        let piece = len / parts;
        KOp::fetch(base.add((part * piece) as u64), piece.max(32))
    }

    /// A rotating window of `bytes` into a cold-text routine. Kernel
    /// paths are long stretches of loop-less, low-density code; the hot
    /// routine windows model the dense part and these rotating cold
    /// windows model the branchy remainder (error paths, device layers,
    /// accounting), which is what gives the OS its large instruction
    /// footprint in the paper.
    pub(crate) fn cold_win(&mut self, rid: Rid, bytes: u32) -> KOp {
        let (base, len) = self.layout.routine_range(rid);
        let len = len as u64;
        let bytes = (bytes as u64).min(len);
        self.cold_cursor = self.cold_cursor.wrapping_add(0x260 * 7);
        let off = (self.cold_cursor % (len - bytes + 1)) & !15;
        KOp::fetch(base.add(off), bytes as u32)
    }

    /// Advances the CPU whose clock is furthest behind by one step.
    /// Returns `false` once no process exists anywhere (fully quiesced).
    pub fn step_earliest(&mut self, m: &mut Machine) -> bool {
        let cpu = m.earliest_cpu();
        self.step(m, cpu)
    }

    /// Advances `cpu` by one micro-step. Returns `false` when the whole
    /// system is quiesced (no work anywhere, ever again).
    pub fn step(&mut self, m: &mut Machine, cpu: CpuId) -> bool {
        let i = cpu.index();
        let before = m.now(cpu);

        if self.cpus[i].dispatch.is_none() {
            self.deliver_interrupts(m, cpu);
        }

        let mode = self.current_mode(cpu);
        if let Some(loc) = self.kernel_frame(cpu) {
            self.run_frame(m, cpu, loc);
        } else if let Some(slot) = self.cpus[i].running {
            self.step_user(m, cpu, slot);
        } else {
            self.step_idle(m, cpu);
        }

        self.settle(m, cpu);

        let mut delta = m.now(cpu) - before;
        if delta == 0 {
            // Every step must advance time so the engine makes progress.
            m.advance(cpu, 1);
            delta = 1;
        }
        self.stats.cycles[i].add(mode, delta);

        self.procs.live() > 0
    }

    /// The kernel frame `cpu`'s next step runs, if any: its dispatch
    /// frame, else its top interrupt frame, else the running process's
    /// kernel stack.
    pub(crate) fn kernel_frame(&self, cpu: CpuId) -> Option<FrameLoc> {
        let ctx = &self.cpus[cpu.index()];
        if ctx.dispatch.is_some() {
            Some(FrameLoc::Dispatch)
        } else if !ctx.intr_stack.is_empty() {
            Some(FrameLoc::Intr)
        } else {
            let slot = ctx.running?;
            self.procs
                .get(slot)?
                .in_kernel()
                .then_some(FrameLoc::Proc(slot))
        }
    }

    /// Mode the upcoming step executes in (for cycle accounting).
    fn current_mode(&self, cpu: CpuId) -> Mode {
        if self.kernel_frame(cpu).is_some() {
            Mode::Kernel
        } else if self.cpus[cpu.index()].running.is_some() {
            Mode::User
        } else {
            Mode::Idle
        }
    }

    fn account_miss(&mut self, mode: Mode, instr: bool, missed: bool) {
        if missed {
            let mc = self.stats.misses_mut(mode);
            if instr {
                mc.instr += 1;
            } else {
                mc.data += 1;
            }
        }
    }

    pub(crate) fn frame_mut(&mut self, cpu: CpuId, loc: FrameLoc) -> &mut KFrame {
        match loc {
            FrameLoc::Dispatch => self.cpus[cpu.index()]
                .dispatch
                .as_mut()
                .expect("dispatch frame missing"),
            FrameLoc::Intr => self.cpus[cpu.index()]
                .intr_stack
                .last_mut()
                .expect("interrupt frame missing"),
            FrameLoc::Proc(slot) => self
                .procs
                .get_mut(slot)
                .expect("process missing")
                .kstack
                .last_mut()
                .expect("process kernel frame missing"),
        }
    }

    /// Pushes a kernel frame for an operation and emits `EnterOs`.
    pub(crate) fn push_op_frame(
        &mut self,
        m: &mut Machine,
        cpu: CpuId,
        loc: FrameLoc,
        frame: KFrame,
    ) {
        let class = frame.class;
        self.emit(m, cpu, OsEvent::EnterOs(class));
        self.stats.count_op(class);
        self.cpus[cpu.index()].in_os = true;
        match loc {
            FrameLoc::Dispatch => unreachable!("dispatch frames are not operations"),
            FrameLoc::Intr => self.cpus[cpu.index()].intr_stack.push(frame),
            FrameLoc::Proc(slot) => self
                .procs
                .get_mut(slot)
                .expect("process missing")
                .kstack
                .push(frame),
        }
    }

    /// Installs a dispatch frame (part of the current operation; no
    /// markers).
    pub(crate) fn set_dispatch(&mut self, cpu: CpuId, frame: KFrame) {
        let ctx = &mut self.cpus[cpu.index()];
        debug_assert!(ctx.dispatch.is_none(), "nested dispatch");
        ctx.in_os = true;
        ctx.dispatch = Some(frame);
    }

    /// Executes one micro-op of the frame at `loc`.
    fn run_frame(&mut self, m: &mut Machine, cpu: CpuId, loc: FrameLoc) {
        let mode = Mode::Kernel;
        let Some(op) = self.frame_mut(cpu, loc).ops.pop_front() else {
            self.finish_frame(m, cpu, loc);
            return;
        };
        if let Some(p) = &mut self.probes {
            p.kop[op.kind_index()] += 1;
        }
        match op {
            KOp::IFetch { cur, end } => {
                // Fetch the remainder of the current block, from the
                // cluster-local text replica when replication is on.
                let block_end = (cur | (BLOCK_SIZE - 1)) + 1;
                let stop = block_end.min(end);
                let instrs = ((stop - cur) / 4).max(1) as u32;
                let out = m.fetch(cpu, self.text_addr(cpu, PAddr::new(cur)), instrs);
                self.account_miss(mode, true, out.missed_to_bus());
                if stop < end {
                    self.frame_mut(cpu, loc)
                        .ops
                        .push_front(KOp::IFetch { cur: stop, end });
                }
            }
            KOp::Data { addr, write } => {
                if write {
                    self.note_data_write(m, addr);
                }
                let out = m.data_access(cpu, PAddr::new(addr), write, 1);
                self.account_miss(mode, false, out.missed_to_bus() || out.upgraded);
            }
            KOp::DSweep {
                cur,
                end,
                stride,
                write,
            } => {
                if write {
                    self.note_data_write(m, cur);
                }
                let out = m.data_access(cpu, PAddr::new(cur), write, 1);
                self.account_miss(mode, false, out.missed_to_bus() || out.upgraded);
                let next = sweep_step(cur, stride);
                if next < end {
                    self.frame_mut(cpu, loc).ops.push_front(KOp::DSweep {
                        cur: next,
                        end,
                        stride,
                        write,
                    });
                }
            }
            KOp::Compute { cycles } => {
                let chunk = cycles.min(2_000);
                m.advance(cpu, chunk);
                if cycles > chunk {
                    self.frame_mut(cpu, loc).ops.push_front(KOp::Compute {
                        cycles: cycles - chunk,
                    });
                }
            }
            KOp::Escape(ev) => {
                self.emit(m, cpu, ev);
            }
            KOp::Lock(id) => {
                let now = m.now(cpu);
                m.sync_op(cpu);
                match self.locks.try_acquire(id, cpu, now) {
                    TryAcquire::Acquired => {
                        // Spin locks (everything except the Ino sleep
                        // locks) raise the interrupt priority level.
                        if id.family != LockFamily::Ino && id.family.is_kernel() {
                            self.cpus[cpu.index()].spl += 1;
                        }
                    }
                    TryAcquire::Busy => {
                        self.frame_mut(cpu, loc).ops.push_front(KOp::Lock(id));
                        if id.family == LockFamily::Ino {
                            // Inode locks are sleep locks: they are held
                            // across disk I/O, so spinning could starve
                            // the holder. Sleep until release.
                            self.do_swtch(m, cpu, Disposition::Sleep(Chan::InoWait(id.instance)));
                        } else {
                            m.advance(cpu, self.tuning.spin_retry_cycles);
                        }
                    }
                }
            }
            KOp::Unlock(id) => {
                let now = m.now(cpu);
                m.sync_op(cpu);
                if id.family != LockFamily::Ino && id.family.is_kernel() {
                    let spl = &mut self.cpus[cpu.index()].spl;
                    debug_assert!(*spl > 0, "unlock without spl");
                    *spl = spl.saturating_sub(1);
                }
                if id.family == LockFamily::Ino {
                    // Sleep locks may be released on a different CPU
                    // than they were acquired on (the holder slept).
                    self.locks.release_any(id, cpu, now);
                    let ops = self.wakeup_ops(m, Chan::InoWait(id.instance));
                    if !ops.is_empty() {
                        self.frame_mut(cpu, loc).push_front_ops(ops);
                    }
                } else {
                    self.locks.release(id, cpu, now);
                }
            }
            KOp::Call(call) => {
                self.handle_call(m, cpu, loc, call);
            }
        }
        // A frame that just became empty finishes on the next step,
        // keeping transitions simple.
        if self.peek_frame(cpu, loc).is_some_and(|f| f.ops.is_empty()) {
            self.finish_frame(m, cpu, loc);
        }
    }

    pub(crate) fn peek_frame(&self, cpu: CpuId, loc: FrameLoc) -> Option<&KFrame> {
        match loc {
            FrameLoc::Dispatch => self.cpus[cpu.index()].dispatch.as_ref(),
            FrameLoc::Intr => self.cpus[cpu.index()].intr_stack.last(),
            FrameLoc::Proc(slot) => self.procs.get(slot).and_then(|p| p.kstack.last()),
        }
    }

    fn finish_frame(&mut self, m: &mut Machine, cpu: CpuId, loc: FrameLoc) {
        let i = cpu.index();
        match loc {
            FrameLoc::Dispatch => {
                self.cpus[i].dispatch = None;
            }
            FrameLoc::Intr => {
                self.cpus[i].intr_stack.pop();
                self.emit(m, cpu, OsEvent::OpEnd);
                // Preempt only when the interrupt came in user mode
                // (the kernel is non-preemptible, as in IRIX 3.2).
                let user_below = self.cpus[i].intr_stack.is_empty()
                    && self.cpus[i]
                        .running
                        .and_then(|s| self.procs.get(s))
                        .is_some_and(|p| !p.in_kernel());
                if user_below && self.cpus[i].resched && self.cpus[i].dispatch.is_none() {
                    self.cpus[i].resched = false;
                    self.do_swtch(m, cpu, Disposition::Requeue);
                }
            }
            FrameLoc::Proc(slot) => {
                if let Some(p) = self.procs.get_mut(slot) {
                    p.kstack.pop();
                    let back_to_user = p.kstack.is_empty();
                    self.emit(m, cpu, OsEvent::OpEnd);
                    if back_to_user && self.cpus[i].resched && self.cpus[i].dispatch.is_none() {
                        self.cpus[i].resched = false;
                        self.do_swtch(m, cpu, Disposition::Requeue);
                    }
                }
            }
        }
    }

    /// Emits boundary events once a CPU fully leaves the OS or becomes
    /// idle.
    fn settle(&mut self, m: &mut Machine, cpu: CpuId) {
        let i = cpu.index();
        let os_active = self.kernel_frame(cpu).is_some();
        if self.cpus[i].in_os && !os_active {
            self.cpus[i].in_os = false;
            self.emit(m, cpu, OsEvent::ExitOs);
        }
        if self.cpus[i].running.is_none() && !os_active && !self.cpus[i].idle {
            self.cpus[i].idle = true;
            self.emit(m, cpu, OsEvent::EnterIdle);
        }
    }

    /// Delivers due clock and disk interrupts.
    fn deliver_interrupts(&mut self, m: &mut Machine, cpu: CpuId) {
        let i = cpu.index();
        if self.cpus[i].intr_stack.len() >= 2 {
            return; // bounded nesting
        }
        if self.cpus[i].spl > 0 {
            return; // interrupts masked while spin locks are held
        }
        let now = m.now(cpu);
        if now >= self.cpus[i].next_tick_at {
            self.cpus[i].next_tick_at = now + self.tuning.clock_tick_cycles;
            if cpu.index() == 0 {
                self.global_tick += 1;
            }
            self.stats.clock_interrupts += 1;
            let frame = self.build_clock_frame(cpu);
            self.push_op_frame(m, cpu, FrameLoc::Intr, frame);
            return;
        }
        if self.cpus[i].pending_ipi > 0 {
            self.cpus[i].pending_ipi -= 1;
            self.stats.ipis += 1;
            let frame = self.build_ipi_frame(cpu);
            self.push_op_frame(m, cpu, FrameLoc::Intr, frame);
            return;
        }
        if cpu == self.disk_cpu {
            if let Some(t) = self.disk.next_completion() {
                if t <= now {
                    self.stats.disk_interrupts += 1;
                    let frame = self.build_disk_frame();
                    self.push_op_frame(m, cpu, FrameLoc::Intr, frame);
                }
            }
        }
    }

    /// Posts a TLB-shootdown IPI to every CPU except `from` (the
    /// translations themselves are dropped synchronously; the IPI models
    /// the interrupt cost on the remote CPUs).
    pub(crate) fn post_tlb_shootdown(&mut self, m: &mut Machine, from: CpuId) {
        self.catch_up_others(m);
        for i in 0..self.cpus.len() {
            if i != from.index() {
                self.assert_caught_up(m, CpuId(i as u8), "TLB shootdown IPI");
                self.cpus[i].pending_ipi = self.cpus[i].pending_ipi.saturating_add(1);
            }
        }
    }

    /// One idle-loop iteration: fetch the loop, poll the run queue,
    /// dispatch if work appeared.
    fn step_idle(&mut self, m: &mut Machine, cpu: CpuId) {
        let (addr, instrs) = self.idle_fetch(cpu);
        let out = m.fetch(cpu, addr, instrs);
        self.account_miss(Mode::Idle, true, out.missed_to_bus());
        let out = m.data_access(cpu, self.layout.run_queue(), false, 1);
        self.account_miss(Mode::Idle, false, out.missed_to_bus());
        m.advance(cpu, self.tuning.idle_iter_cycles);
        if self.any_runnable(cpu) {
            self.cpus[cpu.index()].idle = false;
            self.emit(m, cpu, OsEvent::ExitIdle);
            self.do_swtch(m, cpu, Disposition::FromIdle);
        }
    }

    /// Translates a user reference, pushing a fault frame on a miss.
    /// Returns the physical address when the access may proceed now.
    fn translate(
        &mut self,
        m: &mut Machine,
        cpu: CpuId,
        slot: ProcSlot,
        vaddr: VAddr,
        write: bool,
    ) -> Option<PAddr> {
        let vpn = vaddr.page();
        let proc = self.procs.get(slot).expect("running process exists");
        let asid = proc.pid.0;
        // Copy-on-write writes must trap even on a TLB hit (the real
        // machine maps COW pages read-only). The `cow_pages` counter
        // skips the page-table probe for processes with no COW pages.
        if write && proc.cow_pages > 0 {
            if let Some(pte) = proc.page_table.get(&vpn) {
                if pte.cow {
                    let frame = self.build_cow_fault_frame(slot, vpn);
                    self.push_op_frame(m, cpu, FrameLoc::Proc(slot), frame);
                    return None;
                }
            }
        }
        if let Some(ppn) = m.tlb_mut(cpu).lookup(vpn, asid) {
            return Some(ppn.base().add(vaddr.offset_in_page()));
        }
        // UTLB fast path.
        let frame = self.build_utlb_frame(slot, vpn, write);
        self.push_op_frame(m, cpu, FrameLoc::Proc(slot), frame);
        None
    }

    /// Executes one user micro-step of the running process.
    fn step_user(&mut self, m: &mut Machine, cpu: CpuId, slot: ProcSlot) {
        // Fetch the next task op if needed.
        let needs_op = self.procs.get(slot).is_some_and(|p| p.cur_uop.is_none());
        if needs_op {
            let now = m.now(cpu);
            let p = self.procs.get_mut(slot).unwrap();
            let pid = p.pid;
            // Split borrows: rng and task are different fields.
            let Process { rng, task, .. } = p;
            let mut env = TaskEnv { rng, pid, now };
            match task.next(&mut env) {
                Some(op) => p.cur_uop = Some(op),
                None => {
                    // Program finished: implicit exit.
                    let frame = self.build_syscall_frame(m, cpu, slot, SysReq::Exit);
                    self.push_op_frame(m, cpu, FrameLoc::Proc(slot), frame);
                    return;
                }
            }
        }

        let op = self
            .procs
            .get_mut(slot)
            .unwrap()
            .cur_uop
            .take()
            .expect("uop present");
        match op {
            UOp::Run { cur, end } => {
                let va = VAddr::new(cur);
                if let Some(pa) = self.translate(m, cpu, slot, va, false) {
                    let block_end = (cur | (BLOCK_SIZE - 1)) + 1;
                    let stop = block_end.min(end);
                    let instrs = ((stop - cur) / 4).max(1) as u32;
                    let out = m.fetch(cpu, pa, instrs);
                    self.account_miss(Mode::User, true, out.missed_to_bus());
                    if stop < end {
                        self.put_back_uop(slot, UOp::Run { cur: stop, end });
                    }
                } else {
                    self.put_back_uop(slot, UOp::Run { cur, end });
                }
            }
            UOp::RunLoop {
                base,
                len,
                iters,
                off,
            } => {
                let cur = base + off as u64;
                let va = VAddr::new(cur);
                if let Some(pa) = self.translate(m, cpu, slot, va, false) {
                    let block_end = (cur | (BLOCK_SIZE - 1)) + 1;
                    let stop = block_end.min(base + len as u64);
                    let instrs = ((stop - cur) / 4).max(1) as u32;
                    let out = m.fetch(cpu, pa, instrs);
                    self.account_miss(Mode::User, true, out.missed_to_bus());
                    let (new_off, new_iters) = if stop >= base + len as u64 {
                        (0, iters - 1)
                    } else {
                        ((stop - base) as u32, iters)
                    };
                    if new_iters > 0 {
                        self.put_back_uop(
                            slot,
                            UOp::RunLoop {
                                base,
                                len,
                                iters: new_iters,
                                off: new_off,
                            },
                        );
                    }
                } else {
                    self.put_back_uop(
                        slot,
                        UOp::RunLoop {
                            base,
                            len,
                            iters,
                            off,
                        },
                    );
                }
            }
            UOp::Touch { addr, write } => {
                let va = VAddr::new(addr);
                if let Some(pa) = self.translate(m, cpu, slot, va, write) {
                    let out = m.data_access(cpu, pa, write, 1);
                    self.account_miss(Mode::User, false, out.missed_to_bus() || out.upgraded);
                } else {
                    self.put_back_uop(slot, UOp::Touch { addr, write });
                }
            }
            UOp::Sweep {
                cur,
                end,
                stride,
                write,
            } => {
                let va = VAddr::new(cur);
                if let Some(pa) = self.translate(m, cpu, slot, va, write) {
                    let out = m.data_access(cpu, pa, write, 1);
                    self.account_miss(Mode::User, false, out.missed_to_bus() || out.upgraded);
                    let next = sweep_step(cur, stride);
                    if next < end {
                        self.put_back_uop(
                            slot,
                            UOp::Sweep {
                                cur: next,
                                end,
                                stride,
                                write,
                            },
                        );
                    }
                } else {
                    self.put_back_uop(
                        slot,
                        UOp::Sweep {
                            cur,
                            end,
                            stride,
                            write,
                        },
                    );
                }
            }
            UOp::Compute { cycles } => {
                let chunk = cycles.min(USER_COMPUTE_CHUNK);
                m.advance(cpu, chunk);
                if cycles > chunk {
                    self.put_back_uop(
                        slot,
                        UOp::Compute {
                            cycles: cycles - chunk,
                        },
                    );
                }
            }
            UOp::Walk {
                base,
                span,
                left,
                state,
                write_ratio,
            } => {
                let off = (state.wrapping_mul(0x5851_f42d_4c95_7f2d) >> 17) % span;
                let addr = base + (off & !3);
                let write = (state & 0xff) as u8 <= write_ratio;
                let va = VAddr::new(addr);
                if let Some(pa) = self.translate(m, cpu, slot, va, write) {
                    let out = m.data_access(cpu, pa, write, 2);
                    self.account_miss(Mode::User, false, out.missed_to_bus() || out.upgraded);
                    if left > 1 {
                        self.put_back_uop(
                            slot,
                            UOp::Walk {
                                base,
                                span,
                                left: left - 1,
                                state: state
                                    .wrapping_mul(6364136223846793005)
                                    .wrapping_add(1442695040888963407),
                                write_ratio,
                            },
                        );
                    }
                } else {
                    self.put_back_uop(
                        slot,
                        UOp::Walk {
                            base,
                            span,
                            left,
                            state,
                            write_ratio,
                        },
                    );
                }
            }
            UOp::Syscall(req) => {
                let frame = self.build_syscall_frame(m, cpu, slot, req);
                self.push_op_frame(m, cpu, FrameLoc::Proc(slot), frame);
            }
            UOp::LockAcq { lock, spins } => {
                let now = m.now(cpu);
                m.sync_op(cpu);
                let id = LockId::new(LockFamily::User, lock);
                match self.locks.try_acquire(id, cpu, now) {
                    TryAcquire::Acquired => {}
                    TryAcquire::Busy => {
                        let spins = spins + 1;
                        self.put_back_uop(slot, UOp::LockAcq { lock, spins });
                        if spins % self.tuning.user_spin_limit == 0 {
                            // The library gives up and naps.
                            self.stats.sginap_calls += 1;
                            let frame = self.build_syscall_frame(m, cpu, slot, SysReq::Sginap);
                            self.push_op_frame(m, cpu, FrameLoc::Proc(slot), frame);
                        } else {
                            m.advance(cpu, self.tuning.spin_retry_cycles);
                        }
                    }
                }
            }
            UOp::LockRel { lock } => {
                let now = m.now(cpu);
                m.sync_op(cpu);
                // The holder may have napped (`sginap`) since the
                // acquire and resumed on another CPU, so release on
                // the holding process's behalf.
                self.locks
                    .release_any(LockId::new(LockFamily::User, lock), cpu, now);
            }
        }
    }

    fn put_back_uop(&mut self, slot: ProcSlot, op: UOp) {
        if let Some(p) = self.procs.get_mut(slot) {
            debug_assert!(p.cur_uop.is_none());
            p.cur_uop = Some(op);
        }
    }

    /// Resolves (allocating silently if necessary) the frame backing a
    /// user page — used when the kernel itself must touch user memory at
    /// plan time (I/O buffers).
    pub(crate) fn resolve_user_page_now(&mut self, slot: ProcSlot, vpn: Vpn) -> Ppn {
        if let Some(pte) = self.procs.get(slot).unwrap().page_table.get(&vpn) {
            return pte.ppn;
        }
        let p = self.procs.get(slot).unwrap();
        let pid = p.pid;
        let fa = self
            .frames
            .alloc_colored(
                crate::vm::FrameUse::User {
                    pid,
                    vpn,
                    text: false,
                },
                false,
                (vpn.0 % 16) as u8,
            )
            .expect("frame pool exhausted during plan-time resolution");
        self.procs.get_mut(slot).unwrap().page_table.insert(
            vpn,
            Pte {
                ppn: fa.ppn,
                cow: false,
            },
        );
        fa.ppn
    }

    /// Physical address of the user I/O buffer page `k` of a process
    /// (by convention the first pages of its heap).
    pub(crate) fn user_io_buffer(&mut self, slot: ProcSlot, k: u64) -> PAddr {
        let vpn = Vpn(segs::DATA_BASE.page().0 + k as u32);
        self.resolve_user_page_now(slot, vpn).base()
    }

    /// The pid currently running on `cpu`, if any.
    pub fn running_pid(&self, cpu: CpuId) -> Option<Pid> {
        self.cpus[cpu.index()]
            .running
            .and_then(|s| self.procs.get(s))
            .map(|p| p.pid)
    }

    /// Sums outstanding work: run-queue length + live processes (used by
    /// drivers to decide when a finite workload has drained).
    pub fn quiesced(&self) -> bool {
        self.procs.live() == 0
    }

    /// Page size re-export for convenience.
    pub const PAGE: u64 = PAGE_SIZE;

    /// A human-readable snapshot of a CPU's execution state (debugging
    /// aid for stuck simulations).
    pub fn debug_cpu_state(&self, cpu: CpuId) -> String {
        let ctx = &self.cpus[cpu.index()];
        let front = |f: &KFrame| {
            format!(
                "{:?} (class {:?}, {} ops left)",
                f.ops.front(),
                f.class,
                f.ops.len()
            )
        };
        if let Some(f) = &ctx.dispatch {
            return format!("{cpu}: dispatch {}", front(f));
        }
        if let Some(f) = ctx.intr_stack.last() {
            return format!("{cpu}: intr {}", front(f));
        }
        if let Some(slot) = ctx.running {
            if let Some(p) = self.procs.get(slot) {
                if let Some(f) = p.kstack.last() {
                    return format!(
                        "{cpu}: {} pid{} kernel {}",
                        p.task.name(),
                        p.pid.0,
                        front(f)
                    );
                }
                return format!(
                    "{cpu}: {} pid{} user {:?}",
                    p.task.name(),
                    p.pid.0,
                    p.cur_uop
                );
            }
        }
        format!(
            "{cpu}: idle (runq lens {:?})",
            self.runqs.iter().map(|q| q.len()).collect::<Vec<_>>()
        )
    }

    /// Disk/buffer state summary (debugging aid).
    pub fn debug_fs_state(&self) -> String {
        format!(
            "disk queue {} next_completion {:?}; busy bufs: {:?}",
            self.disk.queue_len(),
            self.disk.next_completion(),
            (0..crate::layout::sizes::NBUF as usize)
                .filter(|&i| self.bufcache.is_busy(i))
                .collect::<Vec<_>>()
        )
    }

    /// Sleeping/ready process summary (debugging aid).
    pub fn debug_procs(&self) -> String {
        self.procs
            .iter()
            .map(|p| {
                let front = p
                    .kstack
                    .last()
                    .map(|f| format!("{:?}", f.ops.front()))
                    .unwrap_or_default();
                format!(
                    "pid{} {} {:?} kstack {} front {}",
                    p.pid.0,
                    p.task.name(),
                    p.state,
                    p.kstack.len(),
                    front
                )
            })
            .collect::<Vec<_>>()
            .join("\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world(tuning: OsTuning) -> OsWorld {
        OsWorld::new(8, 32 * 1024 * 1024, tuning)
    }

    #[test]
    fn cluster_mapping_and_queue_index() {
        let w = world(OsTuning::clustered(2));
        assert_eq!(w.cluster_of(CpuId(0)), 0);
        assert_eq!(w.cluster_of(CpuId(3)), 0);
        assert_eq!(w.cluster_of(CpuId(4)), 1);
        assert_eq!(w.cluster_of(CpuId(7)), 1);
        assert_eq!(w.runq_index(CpuId(1)), 0);
        assert_eq!(w.runq_index(CpuId(6)), 1);
        assert_eq!(w.runqs.len(), 2);
    }

    #[test]
    fn flat_world_has_one_queue() {
        let w = world(OsTuning::default());
        assert_eq!(w.runqs.len(), 1);
        assert_eq!(w.runq_index(CpuId(7)), 0);
    }

    #[test]
    fn fresh_processes_round_robin_across_cluster_queues() {
        let mut w = world(OsTuning::clustered(2));
        let a = w.spawn_initial(Box::new(crate::user::ScriptTask::new("a", vec![])));
        let b = w.spawn_initial(Box::new(crate::user::ScriptTask::new("b", vec![])));
        let _ = (a, b);
        assert_eq!(w.runqs[0].len(), 1);
        assert_eq!(w.runqs[1].len(), 1);
        assert!(w.any_runnable(CpuId(0)));
        assert!(w.any_runnable(CpuId(7)));
    }

    #[test]
    fn replicated_layout_is_built_when_requested() {
        let w = world(OsTuning::clustered(4));
        assert_eq!(w.layout().replicas(), 4);
        let flat = world(OsTuning::default());
        assert_eq!(flat.layout().replicas(), 1);
    }

    #[test]
    fn clustered_tuning_enables_both_features() {
        let t = OsTuning::clustered(3);
        assert_eq!(t.clusters, 3);
        assert!(t.replicate_os_text);
        assert!(t.distributed_runq);
    }

    #[test]
    fn pinned_spawn_records_the_pin() {
        let mut w = world(OsTuning::default());
        let s = w.spawn_initial_pinned(
            Box::new(crate::user::ScriptTask::new("net", vec![])),
            CpuId(1),
        );
        assert_eq!(w.procs.get(s).unwrap().pinned_cpu, Some(CpuId(1)));
    }

    #[test]
    fn page_homes_follow_replicas() {
        use oscar_machine::{Machine, MachineConfig};
        let w = world(OsTuning::clustered(2));
        let mut m = Machine::new(MachineConfig::clustered(8, 2, 30));
        w.init_page_homes(&mut m);
        let (first, pages) = w.layout().replica_page_range(1);
        assert!(pages > 0);
        assert_eq!(m.page_home(first), 1);
        assert_eq!(m.page_home(Ppn(0)), 0, "canonical text is cluster 0");
    }
}
