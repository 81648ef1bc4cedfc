//! The run engine: advances every CPU to a horizon in the reference
//! order — each step runs on the CPU whose clock is furthest behind,
//! lowest index first on ties ([`OsWorld::step_earliest`]) — while
//! applying the steps no other CPU can observe in batches.
//!
//! A *private* step takes no interrupt — it starts before the CPU's
//! next clock tick, with no IPI pending and, on the disk CPU, no disk
//! completion due, unless interrupts are masked (a dispatch frame is
//! installed, two interrupts are nested, or a spin lock is held) — and
//! is one of:
//!
//! * a user-mode step, with `in_os` clear, of a `RunLoop` block whose
//!   page is in the TLB and whose block is in the direct-mapped
//!   I-cache, or of a `Compute` chunk;
//! * an idle-loop poll, with `in_os` clear and the CPU already marked
//!   idle, whose idle-text block is in the direct-mapped I-cache and
//!   whose run-queue block is in L1 (with direct-mapped L1 and L2, so
//!   the read hit changes no cache state), that finds every run queue
//!   empty;
//! * a kernel `KOp::IFetch` step of the CPU's current frame (dispatch
//!   frame, top interrupt frame or the running process's kernel stack)
//!   whose block is in the direct-mapped I-cache and that does not
//!   empty the frame (that step emits `OpEnd`).
//!
//! Such a step makes no bus transaction and writes only its own CPU's
//! state: clock, base cycles, TLB hit count and micro-TLB entry, I-fetch
//! memo, the running process's micro-op, the current frame's op queue,
//! the kernel probes' fetch count and the CPU's cycle split. Every other
//! step is *shared*. A two-way I-cache (or data cache, for idle polls)
//! updates LRU state on a hit, so those fetches (polls) stay shared.
//!
//! Shared steps run one by one through [`OsWorld::step`], in the
//! reference order. Each CPU caches a lookahead of where its private
//! run ends (the start cycle of its next shared step) and applies the
//! run lazily, in one batch, at one of three moments: before its own
//! next shared step, at the horizon, or when another CPU's shared step
//! is about to change what the run reads. A batch skips whole loop
//! passes and whole idle runs in O(1) and walks a kernel fetch run once.
//!
//! The last case is the *hook rule*: kernel code that is about to
//! change state a pending private step reads calls
//! [`OsWorld::catch_up_others`] or [`OsWorld::catch_up_cpu`] first. The
//! hooks sit at
//!
//! * the TLB-shootdown IPI post and the three all-CPU TLB flush loops
//!   (page-out, exec, exit);
//! * `flush_icache_page`'s caller, the page reallocation;
//! * the two `disk.submit` calls (the disk CPU's next completion);
//! * `OsWorld::enqueue_proc`, when every run queue is empty (idle polls
//!   read whether any queue has work);
//! * every kernel data write to the `Layout::run_queue` block (it
//!   invalidates the idle pollers' copies).
//!
//! The catch-up applies exactly the steps the reference order runs
//! before the current shared step, then drops the lookahead so it is
//! recomputed from the changed state. In debug builds each hook site
//! also calls [`OsWorld::assert_caught_up`], which panics, naming the
//! CPU and the cycle, when its hook is missing.
//!
//! Private steps read only state that changes in shared steps and write
//! only state no other CPU's step reads, so applying them late changes
//! nothing any step observes: the run is byte-identical to the
//! reference loop. (Another CPU's read miss may clean a dirty run-queue
//! line under an idle poller; a read hit never looks at the dirty bit,
//! so the two commute.) The engine keeps no state between
//! [`OsWorld::run_until`] calls — every CPU is caught up at the horizon
//! — so chained calls at increasing horizons reproduce one longer call.

use std::collections::VecDeque;

use oscar_machine::addr::{BlockAddr, CpuId, PAddr, VAddr, BLOCK_SIZE};
use oscar_machine::machine::Machine;

use crate::exec::KOp;
use crate::kernel::{FrameLoc, OsWorld, USER_COMPUTE_CHUNK};
use crate::types::Mode;
use crate::user::UOp;

/// Number of [`StepClass`]es.
pub const NUM_STEP_CLASSES: usize = 6;

/// What a step executes, judged from its CPU's state when the step
/// starts (before any interrupt it takes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepClass {
    /// An idle-loop poll.
    Idle,
    /// A kernel instruction fetch (`KOp::IFetch`).
    KernelFetch,
    /// Any other kernel micro-op: data, sweep, lock, escape, call or
    /// compute.
    KernelOther,
    /// A user instruction fetch (`Run`, `RunLoop`).
    UserFetch,
    /// A user data access (`Touch`, `Sweep`, `Walk`).
    UserData,
    /// Any other user step: compute, user lock, system call, or drawing
    /// the task's next micro-op.
    UserOther,
}

impl StepClass {
    /// Stable labels, indexed by `class as usize` (the `sim/<tag>`
    /// row's per-class keys).
    pub const LABELS: [&'static str; NUM_STEP_CLASSES] =
        ["idle", "kfetch", "kother", "ufetch", "udata", "uother"];
}

/// Deterministic counts of how [`OsWorld::run_until`] executed the
/// steps of a span of the run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Steps run one at a time through [`OsWorld::step`], by
    /// [`StepClass`].
    pub shared: [u64; NUM_STEP_CLASSES],
    /// Steps applied in batches without a call to [`OsWorld::step`], by
    /// [`StepClass`].
    pub private: [u64; NUM_STEP_CLASSES],
    /// Non-empty batches of private steps.
    pub private_batches: u64,
    /// The subset of `private_batches` applied because another CPU's
    /// shared step was about to touch the CPU's state.
    pub catch_ups: u64,
}

impl EngineStats {
    /// Counts accumulated since `earlier` (a copy taken from the same
    /// world).
    pub fn since(&self, earlier: &EngineStats) -> EngineStats {
        EngineStats {
            shared: std::array::from_fn(|k| self.shared[k] - earlier.shared[k]),
            private: std::array::from_fn(|k| self.private[k] - earlier.private[k]),
            private_batches: self.private_batches - earlier.private_batches,
            catch_ups: self.catch_ups - earlier.catch_ups,
        }
    }

    /// Adds another span's counts.
    pub fn add(&mut self, other: &EngineStats) {
        for k in 0..NUM_STEP_CLASSES {
            self.shared[k] += other.shared[k];
            self.private[k] += other.private[k];
        }
        self.private_batches += other.private_batches;
        self.catch_ups += other.catch_ups;
    }

    /// Steps run one at a time, of every class.
    pub fn shared_steps(&self) -> u64 {
        self.shared.iter().sum()
    }

    /// Steps applied in batches, of every class.
    pub fn private_steps(&self) -> u64 {
        self.private.iter().sum()
    }

    /// Every step the span ran, shared or private.
    pub fn total_steps(&self) -> u64 {
        self.shared_steps() + self.private_steps()
    }
}

/// The kind of private run a lane holds.
#[derive(Debug, Clone, Copy, Default)]
enum Run {
    /// No private steps.
    #[default]
    None,
    /// `Compute` chunks of the running process.
    Compute,
    /// Blocks of the running process's `RunLoop`, with the cycles and
    /// steps of one whole pass over the loop body ([`NO_PASS`] when the
    /// run ends before a whole pass).
    Loop { pass: (u64, u64) },
    /// Idle-loop polls.
    Idle,
    /// `IFetch` steps of the frame at this location.
    Fetch(FrameLoc),
}

/// One CPU's lookahead.
#[derive(Debug, Clone, Copy, Default)]
struct Lane {
    /// Start cycle of the CPU's first step not known to be private.
    /// Every step that starts earlier is private and not yet applied
    /// (when `fresh`); a stale lane has `until` equal to its clock.
    until: u64,
    /// Whether `until` comes from a lookahead over the CPU's current
    /// state. Stale lanes are recomputed when they come up next.
    fresh: bool,
    /// What the pending private steps are.
    run: Run,
}

/// Engine state inside [`OsWorld`]; lanes live only for one
/// [`OsWorld::run_until`] call.
#[derive(Debug, Default)]
pub(crate) struct Engine {
    lanes: Vec<Lane>,
    active: bool,
    /// Start cycle and CPU of the shared step being executed: the cut
    /// the hooks catch other CPUs up to.
    cut: (u64, usize),
    stats: EngineStats,
}

/// The `(cycles, steps)` recorded when a loop run ends before a whole
/// pass: no pass is ever skipped in O(1).
const NO_PASS: (u64, u64) = (u64::MAX, u64::MAX);

/// A private run through a `RunLoop` micro-op, with the CPU's clock.
struct LoopWalk {
    now: u64,
    iters: u32,
    off: u32,
    steps: u64,
    cycles: u64,
    /// Start address of the last step walked.
    last_cur: u64,
}

impl LoopWalk {
    fn new(now: u64, iters: u32, off: u32) -> Self {
        LoopWalk {
            now,
            iters,
            off,
            steps: 0,
            cycles: 0,
            last_cur: 0,
        }
    }

    /// Walks the steps of a loop of `len` bytes at `base` that start
    /// before `limit`, stopping after `max_steps` steps or when the
    /// loop ends. Whole passes (`pass_cycles`, `pass_steps`) are
    /// skipped in O(1); at most two partial passes are walked block by
    /// block. The per-block arithmetic is `step_user`'s `RunLoop` arm.
    fn walk(&mut self, base: u64, len: u32, pass: (u64, u64), limit: u64, max_steps: u64) {
        let (pass_cycles, pass_steps) = pass;
        let end = base + len as u64;
        while self.iters > 0 && self.now < limit && self.steps < max_steps {
            if self.off == 0 && pass != NO_PASS {
                let k = ((limit - self.now) / pass_cycles)
                    .min(self.iters as u64)
                    .min((max_steps - self.steps) / pass_steps);
                if k > 0 {
                    self.now += k * pass_cycles;
                    self.cycles += k * pass_cycles;
                    self.steps += k * pass_steps;
                    self.iters -= k as u32;
                    self.last_cur = ((end - 1) & !(BLOCK_SIZE - 1)).max(base);
                    continue;
                }
            }
            let cur = base + self.off as u64;
            let stop = ((cur | (BLOCK_SIZE - 1)) + 1).min(end);
            let instrs = ((stop - cur) / 4).max(1);
            self.now += instrs;
            self.cycles += instrs;
            self.steps += 1;
            self.last_cur = cur;
            if stop >= end {
                self.off = 0;
                self.iters -= 1;
            } else {
                self.off = (stop - base) as u32;
            }
        }
    }
}

/// Walks a `Compute` micro-op of `cycles` from `now`: the chunks that
/// start before `limit`. Returns `(steps, cycles applied)`.
fn walk_compute(now: u64, cycles: u64, limit: u64) -> (u64, u64) {
    if now >= limit {
        return (0, 0);
    }
    let chunks = cycles.div_ceil(USER_COMPUTE_CHUNK);
    let steps = chunks.min((limit - now).div_ceil(USER_COMPUTE_CHUNK));
    (steps, cycles.min(steps * USER_COMPUTE_CHUNK))
}

/// A run of kernel fetch steps over the front of a frame's op queue.
struct FetchWalk {
    now: u64,
    steps: u64,
    cycles: u64,
    /// Whole `IFetch` ops fetched to their end.
    done: usize,
    /// Where the op after those resumes, when the run fetched part of
    /// it.
    rest: Option<u64>,
    /// Block of the last step walked.
    last: BlockAddr,
}

/// Walks the `IFetch` steps at the front of `ops` that start before
/// `limit`, stopping before the step that would empty the frame and at
/// the first block `hits` rejects. `block` maps a fetch address to the
/// block the CPU fetches. The per-step arithmetic is `run_frame`'s
/// `IFetch` arm.
fn walk_fetches(
    ops: &VecDeque<KOp>,
    now: u64,
    limit: u64,
    block: impl Fn(u64) -> BlockAddr,
    hits: impl Fn(BlockAddr) -> bool,
) -> FetchWalk {
    let mut w = FetchWalk {
        now,
        steps: 0,
        cycles: 0,
        done: 0,
        rest: None,
        last: BlockAddr(0),
    };
    for (i, op) in ops.iter().enumerate() {
        let KOp::IFetch { mut cur, end } = *op else {
            break;
        };
        loop {
            let stop = ((cur | (BLOCK_SIZE - 1)) + 1).min(end);
            if w.now >= limit || (stop >= end && i + 1 == ops.len()) {
                return w;
            }
            let b = block(cur);
            if !hits(b) {
                return w;
            }
            let instrs = ((stop - cur) / 4).max(1);
            w.now += instrs;
            w.cycles += instrs;
            w.steps += 1;
            w.last = b;
            if stop >= end {
                w.done = i + 1;
                w.rest = None;
                break;
            }
            cur = stop;
            w.rest = Some(cur);
        }
    }
    w
}

impl OsWorld {
    /// Advances the system until every CPU clock passes `horizon` (or
    /// the workload fully drains), running steps in exactly the order
    /// of a [`OsWorld::step_earliest`] loop. Returns `false` once the
    /// workload has drained. The call is memoryless over (machine, os)
    /// state, so chained calls at increasing horizons reproduce a
    /// single longer call exactly. See the module documentation of
    /// `engine` for how private steps are batched.
    pub fn run_until(&mut self, m: &mut Machine, horizon: u64) -> bool {
        let n = self.cpus.len();
        self.engine.lanes.clear();
        self.engine.lanes.extend((0..n).map(|c| Lane {
            until: m.now(CpuId(c as u8)),
            ..Lane::default()
        }));
        self.engine.active = true;
        let alive = loop {
            let (c, lane) = self
                .engine
                .lanes
                .iter()
                .enumerate()
                .min_by_key(|(_, l)| l.until)
                .map(|(c, l)| (c, *l))
                .expect("a machine has CPUs");
            if lane.until >= horizon {
                break true;
            }
            if !lane.fresh {
                let until = self.lookahead(m, c);
                if until > m.now(CpuId(c as u8)) {
                    continue;
                }
            }
            self.apply(m, c, u64::MAX);
            let cpu = CpuId(c as u8);
            self.engine.cut = (m.now(cpu), c);
            let class = self.step_class(cpu);
            let alive = self.step(m, cpu);
            self.engine.stats.shared[class as usize] += 1;
            self.engine.lanes[c] = Lane {
                until: m.now(cpu),
                ..Lane::default()
            };
            if !alive {
                for other in 0..n {
                    self.catch_up(m, other, false);
                }
                break false;
            }
        };
        if alive {
            for c in 0..n {
                self.apply(m, c, horizon);
            }
        }
        self.engine.active = false;
        alive
    }

    /// Counts of shared and private steps run so far by
    /// [`OsWorld::run_until`] (never by [`OsWorld::step`] alone).
    pub fn engine_stats(&self) -> EngineStats {
        self.engine.stats
    }

    /// Hook: applies every other CPU's private steps that the reference
    /// order runs before the current shared step, and drops their
    /// lookaheads. Kernel code calls it before changing state another
    /// CPU's private steps read (see the module documentation). A no-op
    /// outside [`OsWorld::run_until`].
    pub(crate) fn catch_up_others(&mut self, m: &mut Machine) {
        if self.engine.active {
            for c in 0..self.engine.lanes.len() {
                self.catch_up(m, c, true);
            }
        }
    }

    /// Hook: [`OsWorld::catch_up_others`] for one CPU (the disk CPU,
    /// before a disk request can move its next completion).
    pub(crate) fn catch_up_cpu(&mut self, m: &mut Machine, cpu: CpuId) {
        if self.engine.active {
            self.catch_up(m, cpu.index(), true);
        }
    }

    /// Hook-rule audit, debug builds only: panics unless `cpu` has no
    /// private steps pending, so kernel code may now change state they
    /// read. A pending step, before the cut or after it, would run from
    /// state that the write changes, so the check fires when the write
    /// site lacks its catch-up hook. The message names the site, the
    /// target CPU and the cycle. A no-op outside
    /// [`OsWorld::run_until`].
    pub(crate) fn assert_caught_up(&self, m: &Machine, cpu: CpuId, site: &str) {
        if !cfg!(debug_assertions) || !self.engine.active {
            return;
        }
        let c = cpu.index();
        let lane = self.engine.lanes[c];
        let now = m.now(cpu);
        let (t, d) = self.engine.cut;
        assert!(
            !lane.fresh || lane.until <= now,
            "hook rule: {site} writes CPU {c}'s state at cycle {t} (shared step of CPU {d}), \
             but CPU {c} has private steps pending from cycle {now} to {}; \
             call a catch-up hook first",
            lane.until
        );
    }

    /// Catches CPU `c` up to the cut and marks its lane stale. The
    /// stepping CPU itself has nothing pending.
    fn catch_up(&mut self, m: &mut Machine, c: usize, hook: bool) {
        let (t, d) = self.engine.cut;
        if c == d || !self.engine.lanes[c].fresh {
            return;
        }
        // Steps starting at the cut's cycle run first on lower-numbered
        // CPUs.
        let limit = if c < d { t + 1 } else { t };
        if self.apply(m, c, limit) > 0 && hook {
            self.engine.stats.catch_ups += 1;
        }
        self.engine.lanes[c] = Lane {
            until: m.now(CpuId(c as u8)),
            ..Lane::default()
        };
    }

    /// The cycle before which CPU `c`'s steps take no interrupt: its
    /// next clock tick, or its next disk completion on the disk CPU;
    /// `u64::MAX` while interrupts are masked (a dispatch frame
    /// installed, two interrupts nested, or a spin lock held). `None`
    /// when an IPI is pending, so its next step takes it.
    fn intr_cap(&self, c: usize) -> Option<u64> {
        let ctx = &self.cpus[c];
        if ctx.dispatch.is_some() || ctx.intr_stack.len() >= 2 || ctx.spl > 0 {
            return Some(u64::MAX);
        }
        if ctx.pending_ipi > 0 {
            return None;
        }
        let mut cap = ctx.next_tick_at;
        if c == self.disk_cpu.index() {
            if let Some(t) = self.disk.next_completion() {
                cap = cap.min(t);
            }
        }
        Some(cap)
    }

    /// The class of the step `cpu` runs next, for the engine counts.
    fn step_class(&self, cpu: CpuId) -> StepClass {
        if let Some(loc) = self.kernel_frame(cpu) {
            let front = self.peek_frame(cpu, loc).and_then(|f| f.ops.front());
            return if matches!(front, Some(KOp::IFetch { .. })) {
                StepClass::KernelFetch
            } else {
                StepClass::KernelOther
            };
        }
        let Some(slot) = self.cpus[cpu.index()].running else {
            return StepClass::Idle;
        };
        match self.procs.get(slot).and_then(|p| p.cur_uop.as_ref()) {
            Some(UOp::Run { .. } | UOp::RunLoop { .. }) => StepClass::UserFetch,
            Some(UOp::Touch { .. } | UOp::Sweep { .. } | UOp::Walk { .. }) => StepClass::UserData,
            _ => StepClass::UserOther,
        }
    }

    /// The block `cpu` fetches for kernel text at `cur`.
    fn text_block(&self, cpu: CpuId, cur: u64) -> BlockAddr {
        self.text_addr(cpu, PAddr::new(cur)).block()
    }

    /// Cycles of one idle-loop poll that hits in both caches and finds
    /// nothing to run, with the poll's fetch address and instruction
    /// count.
    fn idle_poll(&self, cpu: CpuId) -> (u64, PAddr, u64) {
        let (addr, instrs) = self.idle_fetch(cpu);
        let instrs = instrs as u64;
        (instrs + 1 + self.tuning.idle_iter_cycles, addr, instrs)
    }

    /// Computes CPU `c`'s lookahead from its current state and stores
    /// it in a fresh lane. Returns the start cycle of its next shared
    /// step (its clock when the next step is shared).
    fn lookahead(&mut self, m: &Machine, c: usize) -> u64 {
        let now = m.now(CpuId(c as u8));
        let mut lane = Lane {
            until: now,
            fresh: true,
            run: Run::None,
        };
        if let Some(cap) = self.intr_cap(c).filter(|&cap| now < cap) {
            if let Some((until, run)) = self.private_run(m, c, now, cap) {
                (lane.until, lane.run) = (until, run);
            }
        }
        self.engine.lanes[c] = lane;
        lane.until
    }

    /// Where CPU `c`'s private run from `now` ends, given that no step
    /// starting before `cap` takes an interrupt, and what it runs.
    /// `None` when its next step is shared.
    fn private_run(&self, m: &Machine, c: usize, now: u64, cap: u64) -> Option<(u64, Run)> {
        let cpu = CpuId(c as u8);
        // A two-way I-cache hit moves LRU state: with one, fetches and
        // polls stay shared and only `Compute` chunks batch.
        let memo = m.ifetch_memo();
        if let Some(loc) = self.kernel_frame(cpu) {
            if !memo {
                return None;
            }
            let ops = &self.peek_frame(cpu, loc)?.ops;
            let w = walk_fetches(
                ops,
                now,
                cap,
                |cur| self.text_block(cpu, cur),
                |b| m.icache_probe(cpu, b),
            );
            return Some((w.now, Run::Fetch(loc)));
        }
        let ctx = &self.cpus[c];
        if ctx.in_os {
            // The step that leaves the OS emits `ExitOs`.
            return None;
        }
        let Some(slot) = ctx.running else {
            let (poll, addr, _) = self.idle_poll(cpu);
            let private = ctx.idle
                && memo
                && m.read_hit_noop()
                && !self.any_runnable(cpu)
                && m.icache_probe(cpu, addr.block())
                && m.l1_probe(cpu, self.layout.run_queue().block());
            let polls = (cap - now).div_ceil(poll);
            return private.then(|| (now.saturating_add(polls.saturating_mul(poll)), Run::Idle));
        };
        let p = self.procs.get(slot)?;
        match p.cur_uop {
            Some(UOp::Compute { cycles }) if cycles > 0 => {
                Some((now + walk_compute(now, cycles, cap).1, Run::Compute))
            }
            Some(UOp::RunLoop {
                base,
                len,
                iters,
                off,
            }) if memo && len > 0 && iters > 0 => {
                let (pass, max_steps) = loop_scan(m, cpu, p.pid.0, base, len, off);
                let mut w = LoopWalk::new(now, iters, off);
                w.walk(base, len, pass, cap, max_steps);
                Some((w.now, Run::Loop { pass }))
            }
            _ => None,
        }
    }

    /// Applies CPU `c`'s pending private steps that start before
    /// `limit` (and before its lane's `until`). Returns the number of
    /// steps applied.
    fn apply(&mut self, m: &mut Machine, c: usize, limit: u64) -> u64 {
        let lane = self.engine.lanes[c];
        let cpu = CpuId(c as u8);
        let limit = limit.min(lane.until);
        let now = m.now(cpu);
        if !lane.fresh || now >= limit {
            return 0;
        }
        let (class, mode, steps, cycles) = match lane.run {
            Run::Compute | Run::Loop { .. } => {
                let (class, steps, cycles) = self.apply_user(m, cpu, lane.run, limit);
                (class, Mode::User, steps, cycles)
            }
            Run::Idle => {
                let (poll, addr, instrs) = self.idle_poll(cpu);
                let polls = (limit - now).div_ceil(poll);
                m.fetch_hits(cpu, addr.block(), polls * instrs);
                m.read_hits(cpu, self.layout.run_queue().block(), polls);
                m.advance(cpu, polls * self.tuning.idle_iter_cycles);
                (StepClass::Idle, Mode::Idle, polls, polls * poll)
            }
            Run::Fetch(loc) => {
                let w = {
                    let ops = &self.peek_frame(cpu, loc).expect("fetch run's frame").ops;
                    walk_fetches(ops, now, limit, |cur| self.text_block(cpu, cur), |_| true)
                };
                let ops = &mut self.frame_mut(cpu, loc).ops;
                ops.drain(..w.done);
                if let Some(rest) = w.rest {
                    match ops.front_mut() {
                        Some(KOp::IFetch { cur, .. }) => *cur = rest,
                        _ => unreachable!("a partial fetch run stops inside an IFetch"),
                    }
                }
                m.fetch_hits(cpu, w.last, w.cycles);
                if let Some(p) = &mut self.probes {
                    p.kop[KOp::IFetch { cur: 0, end: 0 }.kind_index()] += w.steps;
                }
                (StepClass::KernelFetch, Mode::Kernel, w.steps, w.cycles)
            }
            Run::None => unreachable!("a fresh lane with pending steps has a private run"),
        };
        self.stats.cycles[c].add(mode, cycles);
        self.engine.stats.private[class as usize] += steps;
        self.engine.stats.private_batches += 1;
        steps
    }

    /// Applies a user run's steps that start before `limit`. Returns
    /// `(class, steps, cycles)`.
    fn apply_user(
        &mut self,
        m: &mut Machine,
        cpu: CpuId,
        run: Run,
        limit: u64,
    ) -> (StepClass, u64, u64) {
        let now = m.now(cpu);
        let slot = self.cpus[cpu.index()]
            .running
            .expect("private run has a process");
        let p = self
            .procs
            .get_mut(slot)
            .expect("private run's process exists");
        let asid = p.pid.0;
        match (p.cur_uop.take(), run) {
            (Some(UOp::Compute { cycles }), Run::Compute) => {
                let (steps, applied) = walk_compute(now, cycles, limit);
                if cycles > applied {
                    p.cur_uop = Some(UOp::Compute {
                        cycles: cycles - applied,
                    });
                }
                m.advance(cpu, applied);
                (StepClass::UserOther, steps, applied)
            }
            (
                Some(UOp::RunLoop {
                    base,
                    len,
                    iters,
                    off,
                }),
                Run::Loop { pass },
            ) => {
                let mut w = LoopWalk::new(now, iters, off);
                w.walk(base, len, pass, limit, u64::MAX);
                if w.iters > 0 {
                    p.cur_uop = Some(UOp::RunLoop {
                        base,
                        len,
                        iters: w.iters,
                        off: w.off,
                    });
                }
                let va = VAddr::new(w.last_cur);
                let tlb = m.tlb_mut(cpu);
                tlb.note_hits(w.steps, va.page(), asid);
                let ppn = tlb
                    .peek(va.page(), asid)
                    .expect("private fetch page is in the TLB");
                let block = ppn.base().add(va.offset_in_page()).block();
                m.fetch_hits(cpu, block, w.cycles);
                (StepClass::UserFetch, w.steps, w.cycles)
            }
            _ => unreachable!("a user lane runs the process's current micro-op"),
        }
    }
}

/// Scans a loop body for CPU `cpu` from offset `off`: a block's fetch
/// is private only while its page is in the TLB and the block is in
/// the I-cache. The scan stops at the first block that is not, so a
/// pass of cold misses costs O(1) per step; only when the rest of the
/// pass hits does it go on over `[0, off)` for the passes after it.
/// Returns the pass's `(cycles, steps)` when every block hits
/// ([`NO_PASS`] otherwise: the run then ends before a whole pass) and
/// how many steps from `off` stay private (`u64::MAX` when all do).
fn loop_scan(
    m: &Machine,
    cpu: CpuId,
    asid: u32,
    base: u64,
    len: u32,
    off: u32,
) -> ((u64, u64), u64) {
    let end = base + len as u64;
    let tlb = m.tlb(cpu);
    let mut page = None;
    let mut hits = |cur: u64| {
        let va = VAddr::new(cur);
        let vpn = va.page();
        let ppn = match page {
            Some((v, p)) if v == vpn => p,
            _ => {
                let p = tlb.peek(vpn, asid);
                page = Some((vpn, p));
                p
            }
        };
        ppn.is_some_and(|p| m.icache_probe(cpu, p.base().add(va.offset_in_page()).block()))
    };
    // Cycles and steps of the blocks in `[from, to)`, stopping early at
    // the first one that misses (then `true`).
    let mut scan = |from: u64, to: u64| {
        let (mut cycles, mut steps, mut cur) = (0u64, 0u64, from);
        while cur < to {
            if !hits(cur) {
                return (cycles, steps, true);
            }
            let stop = ((cur | (BLOCK_SIZE - 1)) + 1).min(end);
            cycles += ((stop - cur) / 4).max(1);
            steps += 1;
            cur = stop;
        }
        (cycles, steps, false)
    };
    let (tail_cycles, tail_steps, missed) = scan(base + off as u64, end);
    if missed {
        return (NO_PASS, tail_steps);
    }
    let (head_cycles, head_steps, missed) = scan(base, base + off as u64);
    if missed {
        return (NO_PASS, tail_steps + head_steps);
    }
    (
        (head_cycles + tail_cycles, head_steps + tail_steps),
        u64::MAX,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::KFrame;
    use crate::kernel::OsTuning;
    use crate::types::OpClass;

    /// Interrupts are masked while a dispatch frame is installed, two
    /// interrupts are nested or a spin lock is held: then nothing caps
    /// a private run, not even a pending IPI. Otherwise the tick caps
    /// it and a pending IPI makes the next step shared.
    #[test]
    fn masked_interrupts_do_not_cap_private_runs() {
        let mut w = OsWorld::new(2, 32 << 20, OsTuning::default());
        let tick = w.cpus[1].next_tick_at;
        assert_eq!(w.intr_cap(1), Some(tick));
        w.cpus[1].pending_ipi = 1;
        assert_eq!(w.intr_cap(1), None, "a pending IPI is taken next");
        w.cpus[1].spl = 1;
        assert_eq!(w.intr_cap(1), Some(u64::MAX), "a spin lock masks");
        w.cpus[1].spl = 0;
        let frame = || KFrame::new(OpClass::OtherSyscall, Vec::new());
        w.cpus[1].intr_stack.push(frame());
        assert_eq!(w.intr_cap(1), None, "one interrupt frame still nests");
        w.cpus[1].intr_stack.push(frame());
        assert_eq!(w.intr_cap(1), Some(u64::MAX), "two interrupts mask");
        w.cpus[1].intr_stack.clear();
        w.cpus[1].dispatch = Some(frame());
        assert_eq!(w.intr_cap(1), Some(u64::MAX), "a dispatch frame masks");
    }

    /// A fetch run stops before the step that would empty the frame, at
    /// the first step that starts at the limit, and at the first block
    /// that misses.
    #[test]
    fn fetch_walk_stops_where_a_step_stops_being_private() {
        let ops: VecDeque<KOp> = [
            KOp::IFetch {
                cur: 0x104,
                end: 0x128,
            },
            KOp::IFetch {
                cur: 0x200,
                end: 0x204,
            },
        ]
        .into();
        let block = |cur: u64| PAddr::new(cur).block();
        let w = walk_fetches(&ops, 100, u64::MAX, block, |_| true);
        // 3 + 4 + 2 instructions; the last op's only step empties the
        // frame.
        assert_eq!((w.steps, w.cycles, w.now), (3, 9, 109));
        assert_eq!((w.done, w.rest, w.last), (1, None, block(0x120)));
        let w = walk_fetches(&ops, 100, 105, block, |_| true);
        assert_eq!((w.steps, w.cycles, w.done, w.rest), (2, 7, 0, Some(0x120)));
        let w = walk_fetches(&ops, 100, u64::MAX, block, |b| b != block(0x110));
        assert_eq!((w.steps, w.done, w.rest), (1, 0, Some(0x110)));
    }
}
