//! The run engine: advances every CPU to a horizon in the reference
//! order — each step runs on the CPU whose clock is furthest behind,
//! lowest index first on ties ([`OsWorld::step_earliest`]) — while
//! applying the steps no other CPU can observe in batches.
//!
//! A *private* step is a user-mode step of a `RunLoop` block whose page
//! is in the TLB and whose block is in the direct-mapped I-cache, or of
//! a `Compute` chunk, that takes no interrupt (it starts before the
//! CPU's next clock tick, with no IPI pending and, on the disk CPU, no
//! disk completion due). Such a step makes no bus transaction and
//! writes only its own CPU's state: clock, base cycles, TLB hit count
//! and micro-TLB entry, I-fetch memo, the running process's micro-op and
//! the CPU's cycle split. Every other step is *shared*.
//!
//! Shared steps run one by one through [`OsWorld::step`], in the
//! reference order. Each CPU caches a lookahead of where its private
//! run ends (the start cycle of its next shared step) and applies the
//! run lazily, in one batch that skips whole loop passes in O(1), at
//! one of three moments: before its own next shared step, at the
//! horizon, or when another CPU's shared step is about to touch its
//! state. The last case is the
//! *hook rule*: kernel code that writes another CPU's TLB, I-cache,
//! pending IPIs or the disk queue calls [`OsWorld::catch_up_others`] or
//! [`OsWorld::catch_up_cpu`] first. The catch-up applies exactly the
//! steps the reference order runs before the current shared step, then
//! drops the lookahead so it is recomputed from the changed state. In
//! debug builds each such write site also calls
//! [`OsWorld::assert_caught_up`], which panics, naming the CPU and the
//! cycle, when its hook is missing.
//!
//! Private steps read only state that changes in shared steps and write
//! only state no other CPU's step reads, so applying them late changes
//! nothing any step observes: the run is byte-identical to the
//! reference loop. The engine keeps no state between
//! [`OsWorld::run_until`] calls — every CPU is caught up at the horizon
//! — so chained calls at increasing horizons reproduce one longer call.

use oscar_machine::addr::{CpuId, VAddr, BLOCK_SIZE};
use oscar_machine::machine::Machine;

use crate::kernel::{OsWorld, USER_COMPUTE_CHUNK};
use crate::types::Mode;
use crate::user::UOp;

/// Deterministic counts of how [`OsWorld::run_until`] executed the
/// steps of a span of the run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Steps run one at a time through [`OsWorld::step`].
    pub shared_steps: u64,
    /// Steps applied in batches without a call to [`OsWorld::step`].
    pub private_steps: u64,
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
            shared_steps: self.shared_steps - earlier.shared_steps,
            private_steps: self.private_steps - earlier.private_steps,
            private_batches: self.private_batches - earlier.private_batches,
            catch_ups: self.catch_ups - earlier.catch_ups,
        }
    }

    /// Adds another span's counts.
    pub fn add(&mut self, other: &EngineStats) {
        self.shared_steps += other.shared_steps;
        self.private_steps += other.private_steps;
        self.private_batches += other.private_batches;
        self.catch_ups += other.catch_ups;
    }

    /// Every step the span ran, shared or private.
    pub fn total_steps(&self) -> u64 {
        self.shared_steps + self.private_steps
    }
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
    /// Cycles and steps of one whole pass over the running loop body
    /// (for `RunLoop` runs; [`NO_PASS`] when the run ends before a
    /// whole pass).
    pass_cycles: u64,
    pass_steps: u64,
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
            let alive = self.step(m, cpu);
            self.engine.stats.shared_steps += 1;
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
    /// lookaheads. Kernel code calls it before writing another CPU's
    /// TLB, I-cache or pending IPIs. A no-op outside
    /// [`OsWorld::run_until`].
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
    /// private steps pending, so kernel code may now write its TLB,
    /// I-cache, pending IPIs or disk queue. A pending step, before the
    /// cut or after it, would run from state that the write changes, so
    /// the check fires when the write site lacks its catch-up hook. The
    /// message names the site, the target CPU and the cycle. A no-op
    /// outside [`OsWorld::run_until`].
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

    /// The cycle before which CPU `c` may run a private step: its next
    /// clock tick, or its next disk completion on the disk CPU. `None`
    /// when its next step is not a private candidate at all.
    fn private_cap(&self, c: usize) -> Option<u64> {
        let ctx = &self.cpus[c];
        if ctx.dispatch.is_some() || !ctx.intr_stack.is_empty() || ctx.in_os || ctx.pending_ipi > 0
        {
            return None;
        }
        let p = self.procs.get(ctx.running?)?;
        if p.in_kernel() {
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

    /// Computes CPU `c`'s lookahead from its current state and stores
    /// it in a fresh lane. Returns the start cycle of its next shared
    /// step (its clock when the next step is shared).
    fn lookahead(&mut self, m: &Machine, c: usize) -> u64 {
        let cpu = CpuId(c as u8);
        let now = m.now(cpu);
        let mut lane = Lane {
            until: now,
            fresh: true,
            ..Lane::default()
        };
        if let Some(cap) = self.private_cap(c).filter(|&cap| now < cap) {
            let p = self
                .procs
                .get(
                    self.cpus[c]
                        .running
                        .expect("private candidate runs a process"),
                )
                .expect("private candidate's process exists");
            match p.cur_uop {
                Some(UOp::Compute { cycles }) if cycles > 0 => {
                    lane.until = now + walk_compute(now, cycles, cap).1;
                }
                Some(UOp::RunLoop {
                    base,
                    len,
                    iters,
                    off,
                }) if len > 0 && iters > 0 && m.ifetch_memo() => {
                    let (pass, max_steps) = loop_scan(m, cpu, p.pid.0, base, len, off);
                    let mut w = LoopWalk::new(now, iters, off);
                    w.walk(base, len, pass, cap, max_steps);
                    lane.until = w.now;
                    (lane.pass_cycles, lane.pass_steps) = pass;
                }
                _ => {}
            }
        }
        self.engine.lanes[c] = lane;
        lane.until
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
        let slot = self.cpus[c].running.expect("private run has a process");
        let p = self
            .procs
            .get_mut(slot)
            .expect("private run's process exists");
        let asid = p.pid.0;
        let (steps, cycles) = match p.cur_uop.take() {
            Some(UOp::Compute { cycles }) => {
                let (steps, applied) = walk_compute(now, cycles, limit);
                if cycles > applied {
                    p.cur_uop = Some(UOp::Compute {
                        cycles: cycles - applied,
                    });
                }
                m.advance(cpu, applied);
                (steps, applied)
            }
            Some(UOp::RunLoop {
                base,
                len,
                iters,
                off,
            }) => {
                let mut w = LoopWalk::new(now, iters, off);
                w.walk(
                    base,
                    len,
                    (lane.pass_cycles, lane.pass_steps),
                    limit,
                    u64::MAX,
                );
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
                (w.steps, w.cycles)
            }
            _ => unreachable!("a fresh lane with pending steps runs a private micro-op"),
        };
        self.stats.cycles[c].add(Mode::User, cycles);
        self.engine.stats.private_steps += steps;
        self.engine.stats.private_batches += 1;
        steps
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
