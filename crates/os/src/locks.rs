//! Kernel spin locks and their statistics.
//!
//! The paper measures lock behaviour with OS-internal counters exported
//! through mapped statistics pages (Section 2.2), because lock accesses
//! ride a synchronization bus the hardware monitor cannot see. This
//! module keeps exactly those statistics, per lock family of Table 11:
//! acquire frequency, failed first attempts (contention), waiters at
//! release, same-CPU re-acquire locality, and — for Table 12's last
//! column and Table 10's LL/SC scenario — a per-lock cache-line
//! simulation that counts the misses the locks *would* take if they were
//! cacheable with load-linked/store-conditional support.
//!
//! With [`LockTable::enable_obs`] the table additionally keeps DTrace-
//! style dynamic-probe data per *lock instance*: spin-cycle and
//! hold-time [`Log2Histogram`]s plus the raw acquire→spin→hold→release
//! interval spans ([`LockSpan`]) for timeline export. The probes are
//! pure bookkeeping — they never touch the machine — and cost nothing
//! when disabled (a single `Option` check per lock operation).

use std::collections::HashMap;

use oscar_machine::addr::CpuId;
use oscar_obs::Log2Histogram;

/// The lock families of Table 11 (the `_x` families are arrays of locks,
/// one per protected structure), plus the pipe and user-level families
/// our workloads add.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LockFamily {
    /// Physical-memory allocation structures.
    Memlock,
    /// The scheduler's run queue.
    Runqlk,
    /// The list of free inodes.
    Ifree,
    /// The table of free disk blocks.
    Dfbmaplk,
    /// The buffer-cache free list.
    Bfreelock,
    /// The callout (alarm/timeout) table.
    Calock,
    /// Per-process page tables and related structures.
    Shr,
    /// Character-device (STREAMS) management.
    Streams,
    /// Per-inode operations.
    Ino,
    /// The array of semaphores for user programs.
    Semlock,
    /// Per-pipe locks (implementation companion to `Streams`).
    Pipe,
    /// User-level spin locks in shared memory (drive `sginap`; not an OS
    /// lock and excluded from the kernel tables).
    User,
}

impl LockFamily {
    /// Every family, kernel families first.
    pub const ALL: [LockFamily; 12] = [
        LockFamily::Memlock,
        LockFamily::Runqlk,
        LockFamily::Ifree,
        LockFamily::Dfbmaplk,
        LockFamily::Bfreelock,
        LockFamily::Calock,
        LockFamily::Shr,
        LockFamily::Streams,
        LockFamily::Ino,
        LockFamily::Semlock,
        LockFamily::Pipe,
        LockFamily::User,
    ];

    /// The paper's name for the family.
    pub fn label(self) -> &'static str {
        match self {
            LockFamily::Memlock => "Memlock",
            LockFamily::Runqlk => "Runqlk",
            LockFamily::Ifree => "Ifree",
            LockFamily::Dfbmaplk => "Dfbmaplk",
            LockFamily::Bfreelock => "Bfreelock",
            LockFamily::Calock => "Calock",
            LockFamily::Shr => "Shr_x",
            LockFamily::Streams => "Streams_x",
            LockFamily::Ino => "Ino_x",
            LockFamily::Semlock => "Semlock",
            LockFamily::Pipe => "Pipe_x",
            LockFamily::User => "User_x",
        }
    }

    /// What the lock protects (Table 11).
    pub fn function(self) -> &'static str {
        match self {
            LockFamily::Memlock => "Data struct. that allocate/deallocate physical memory",
            LockFamily::Runqlk => "Scheduler's run queue",
            LockFamily::Ifree => "List of free inodes",
            LockFamily::Dfbmaplk => "Table of free blocks on the disk",
            LockFamily::Bfreelock => "List of free buffers for the buffer cache",
            LockFamily::Calock => "Table of outstanding actions like alarms or timeouts",
            LockFamily::Shr => "Per-process page tables and related structures",
            LockFamily::Streams => "Management of a character-oriented device",
            LockFamily::Ino => "Operations on a given inode, like read or write",
            LockFamily::Semlock => "Array of semaphores for the programmer to use",
            LockFamily::Pipe => "Per-pipe buffer state",
            LockFamily::User => "User-level spin locks in shared memory",
        }
    }

    /// Whether this family belongs to the OS (Tables 10-12 cover only
    /// these).
    pub fn is_kernel(self) -> bool {
        !matches!(self, LockFamily::User)
    }

    /// Whether locks of this family are held by a *process* rather than
    /// a CPU: the holder may sleep (`Ino`) or be descheduled by
    /// `sginap` (`User`) and resume on a different CPU, so the
    /// CPU-indexed `held_by` bookkeeping cannot be used to detect
    /// recursive acquires or cross-CPU releases for them.
    pub fn is_process_held(self) -> bool {
        matches!(self, LockFamily::Ino | LockFamily::User)
    }

    /// The family's position in [`LockFamily::ALL`].
    pub fn index(self) -> usize {
        LockFamily::ALL.iter().position(|&f| f == self).unwrap()
    }
}

/// Identifies one lock: a family plus an instance number (0 for the
/// singleton locks; the structure index for `_x` families).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LockId {
    /// The family this lock belongs to.
    pub family: LockFamily,
    /// Instance within the family.
    pub instance: u32,
}

impl LockId {
    /// Shorthand constructor.
    pub fn new(family: LockFamily, instance: u32) -> Self {
        LockId { family, instance }
    }

    /// The singleton lock of a family.
    pub fn singleton(family: LockFamily) -> Self {
        LockId::new(family, 0)
    }
}

/// Aggregated statistics for one lock family.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FamilyStats {
    /// Successful acquires.
    pub acquires: u64,
    /// All acquire attempts (first tries and spins).
    pub attempts: u64,
    /// Acquire operations whose *first* attempt found the lock taken
    /// (the paper's contention metric; spinning retries are ignored).
    pub failed_first: u64,
    /// Releases.
    pub releases: u64,
    /// Releases that found at least one waiter.
    pub waiter_events: u64,
    /// Total waiters observed over those releases.
    pub waiter_sum: u64,
    /// Successful acquires by the same CPU as the previous one with no
    /// intervening attempt by another CPU (Table 12's locality column).
    pub local_reacquires: u64,
    /// Synchronization-bus operations (attempts + releases).
    pub sync_ops: u64,
    /// Misses the lock would take under a cacheable LL/SC protocol
    /// (Table 12's last column; Table 10's simulated scenario).
    pub llsc_misses: u64,
    /// Sum of cycle gaps between consecutive successful acquires.
    pub gap_cycles: u64,
    /// Number of gaps accumulated in [`FamilyStats::gap_cycles`].
    pub gap_count: u64,
}

impl FamilyStats {
    /// Mean cycles between successful acquires, if at least two occurred.
    pub fn mean_gap(&self) -> Option<f64> {
        (self.gap_count > 0).then(|| self.gap_cycles as f64 / self.gap_count as f64)
    }

    /// Fraction of acquire operations that found the lock taken.
    pub fn failed_fraction(&self) -> f64 {
        if self.acquires + self.failed_first == 0 {
            0.0
        } else {
            // An acquire op either succeeds first try or registers one
            // failed first attempt before eventually succeeding.
            self.failed_first as f64 / self.acquires.max(1) as f64
        }
    }

    /// Mean waiters at release, over releases that had any.
    pub fn mean_waiters(&self) -> Option<f64> {
        (self.waiter_events > 0).then(|| self.waiter_sum as f64 / self.waiter_events as f64)
    }

    /// Fraction of successful acquires that were local re-acquires.
    pub fn locality(&self) -> f64 {
        if self.acquires == 0 {
            0.0
        } else {
            self.local_reacquires as f64 / self.acquires as f64
        }
    }

    /// Ratio of cacheable-protocol misses to sync-bus operations
    /// (Table 12's "Misses Cached / Misses Uncached").
    pub fn cached_over_uncached(&self) -> f64 {
        if self.sync_ops == 0 {
            0.0
        } else {
            self.llsc_misses as f64 / self.sync_ops as f64
        }
    }
}

/// Dynamic-probe statistics for one lock instance (kept only while
/// observability is enabled).
#[derive(Debug, Clone, Default)]
pub struct LockObsStats {
    /// Successful acquires observed.
    pub acquires: u64,
    /// Acquires that had to wait (at least one failed attempt).
    pub contended: u64,
    /// Total cycles spent spinning (or sleeping, for sleep locks)
    /// before contended acquires.
    pub spin_cycles: u64,
    /// Total cycles the lock was held.
    pub hold_cycles: u64,
    /// Distribution of per-acquire spin times, in cycles.
    pub spin_hist: Log2Histogram,
    /// Distribution of per-acquire hold times, in cycles.
    pub hold_hist: Log2Histogram,
}

/// Which interval of a lock's life a [`LockSpan`] covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockPhase {
    /// From the first failed acquire attempt to the acquire.
    Spin,
    /// From the acquire to the release.
    Hold,
}

/// One observed lock interval, for timeline export. Attributed to the
/// acquiring CPU even when a sleep lock is released elsewhere.
#[derive(Debug, Clone, Copy)]
pub struct LockSpan {
    /// The lock instance.
    pub lock: LockId,
    /// The CPU that (eventually) acquired the lock.
    pub cpu: CpuId,
    /// Spin or hold.
    pub phase: LockPhase,
    /// Interval start cycle.
    pub start: u64,
    /// Interval end cycle.
    pub end: u64,
    /// Whether the interval was clipped at a window boundary (the lock
    /// was acquired before the probes were enabled, or still spinning /
    /// held when they were taken). Truncated intervals appear in the
    /// span list so wait-graph edges are never silently dropped, but
    /// never contribute to the spin/hold statistics.
    pub truncated: bool,
}

/// Dynamic lock probes: per-instance spin/hold statistics and the raw
/// interval spans, in the spirit of the DTrace lock-latency studies.
#[derive(Debug, Default)]
pub struct LockObs {
    stats: HashMap<LockId, LockObsStats>,
    spans: Vec<LockSpan>,
    /// First failed attempt time per (lock, spinning CPU).
    spin_since: HashMap<(LockId, CpuId), u64>,
    /// Acquire time, acquiring CPU and truncation flag per held lock.
    /// The flag marks holds already in flight when the probes came up
    /// (seeded at the window edge rather than the true acquire time).
    hold_since: HashMap<LockId, (CpuId, u64, bool)>,
}

impl LockObs {
    fn on_busy(&mut self, lock: LockId, cpu: CpuId, now: u64) {
        self.spin_since.entry((lock, cpu)).or_insert(now);
    }

    fn on_acquired(&mut self, lock: LockId, cpu: CpuId, now: u64) {
        let st = self.stats.entry(lock).or_default();
        st.acquires += 1;
        if let Some(t0) = self.spin_since.remove(&(lock, cpu)) {
            let spun = now.saturating_sub(t0);
            st.contended += 1;
            st.spin_cycles += spun;
            st.spin_hist.record(spun);
            self.spans.push(LockSpan {
                lock,
                cpu,
                phase: LockPhase::Spin,
                start: t0,
                end: now,
                truncated: false,
            });
        }
        self.hold_since.insert(lock, (cpu, now, false));
    }

    fn on_released(&mut self, lock: LockId, now: u64) {
        if let Some((cpu, t0, truncated)) = self.hold_since.remove(&lock) {
            let held = now.saturating_sub(t0);
            if !truncated {
                // Window-clipped holds have no real acquire time; keep
                // them out of the statistics (they only feed the span
                // list / wait graph).
                let st = self.stats.entry(lock).or_default();
                st.hold_cycles += held;
                st.hold_hist.record(held);
            }
            self.spans.push(LockSpan {
                lock,
                cpu,
                phase: LockPhase::Hold,
                start: t0,
                end: now,
                truncated,
            });
        }
    }

    /// Registers a hold already in flight when the probes come up,
    /// clipped at the window edge `now`.
    fn seed_hold(&mut self, lock: LockId, cpu: CpuId, now: u64) {
        self.hold_since.insert(lock, (cpu, now, true));
    }

    /// Closes every interval still open at the window end `now` as a
    /// truncated span. Drained deterministically (sorted by start,
    /// lock, cpu, phase) because map iteration order is not.
    fn finish(&mut self, now: u64) {
        let mut open: Vec<LockSpan> = Vec::new();
        for ((lock, cpu), t0) in self.spin_since.drain() {
            open.push(LockSpan {
                lock,
                cpu,
                phase: LockPhase::Spin,
                start: t0,
                end: now.max(t0),
                truncated: true,
            });
        }
        for (lock, (cpu, t0, _)) in self.hold_since.drain() {
            open.push(LockSpan {
                lock,
                cpu,
                phase: LockPhase::Hold,
                start: t0,
                end: now.max(t0),
                truncated: true,
            });
        }
        open.sort_by_key(|s| (s.start, s.lock, s.cpu, s.phase == LockPhase::Hold));
        self.spans.extend(open);
    }

    /// Per-lock profiles, most contended first (ties broken by
    /// acquires, then lock identity, for a deterministic order).
    pub fn profiles(&self) -> Vec<(LockId, &LockObsStats)> {
        let mut v: Vec<(LockId, &LockObsStats)> =
            self.stats.iter().map(|(id, st)| (*id, st)).collect();
        v.sort_by(|(ida, a), (idb, b)| {
            (b.contended, b.spin_cycles, b.acquires)
                .cmp(&(a.contended, a.spin_cycles, a.acquires))
                .then(ida.cmp(idb))
        });
        v
    }

    /// The observed intervals, in completion order (deterministic: the
    /// simulation is).
    pub fn spans(&self) -> &[LockSpan] {
        &self.spans
    }

    /// Consumes the probe data, returning the owned interval list.
    pub fn into_spans(self) -> Vec<LockSpan> {
        self.spans
    }
}

#[derive(Debug, Clone, Default)]
struct LockState {
    held_by: Option<CpuId>,
    /// Bitmask of CPUs currently spinning on this lock.
    spinning: u64,
    last_acquirer: Option<CpuId>,
    other_touched: bool,
    last_acquire_time: Option<u64>,
    /// Bitmask of CPUs whose (hypothetical) cache holds the lock line.
    llsc_sharers: u64,
    /// Whether the acquire op in flight per CPU already failed once.
    first_failed: u64,
}

/// The kernel lock table: lock state plus per-family statistics.
#[derive(Debug, Default)]
pub struct LockTable {
    locks: HashMap<LockId, LockState>,
    stats: [FamilyStats; LockFamily::ALL.len()],
    obs: Option<Box<LockObs>>,
}

/// Result of an acquire attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryAcquire {
    /// The lock was free and is now held by the caller.
    Acquired,
    /// The lock is held by another CPU; the caller should spin or yield.
    Busy,
}

impl LockTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Serializes the lock map (sorted for deterministic bytes) and the
    /// per-family statistics. Observers are never part of a snapshot.
    pub(crate) fn save(&self, w: &mut crate::snap::SnapWriter) {
        let mut ids: Vec<LockId> = self.locks.keys().copied().collect();
        ids.sort();
        w.usize(ids.len());
        for id in ids {
            let st = &self.locks[&id];
            crate::snap::save_lock_id(w, id);
            match st.held_by {
                None => w.bool(false),
                Some(c) => {
                    w.bool(true);
                    w.u8(c.0);
                }
            }
            w.u64(st.spinning);
            match st.last_acquirer {
                None => w.bool(false),
                Some(c) => {
                    w.bool(true);
                    w.u8(c.0);
                }
            }
            w.bool(st.other_touched);
            match st.last_acquire_time {
                None => w.bool(false),
                Some(t) => {
                    w.bool(true);
                    w.u64(t);
                }
            }
            w.u64(st.llsc_sharers);
            w.u64(st.first_failed);
        }
        for fs in &self.stats {
            for v in [
                fs.acquires,
                fs.attempts,
                fs.failed_first,
                fs.releases,
                fs.waiter_events,
                fs.waiter_sum,
                fs.local_reacquires,
                fs.sync_ops,
                fs.llsc_misses,
                fs.gap_cycles,
                fs.gap_count,
            ] {
                w.u64(v);
            }
        }
    }

    /// Restores state written by [`LockTable::save`].
    pub(crate) fn load(
        &mut self,
        r: &mut crate::snap::SnapReader<'_>,
    ) -> Result<(), crate::snap::SnapError> {
        use crate::snap::{SnapError, SnapReader};
        fn opt_cpu(r: &mut SnapReader<'_>) -> Result<Option<CpuId>, SnapError> {
            Ok(if r.bool()? {
                Some(CpuId(r.u8()?))
            } else {
                None
            })
        }
        let n = r.usize()?;
        self.locks.clear();
        for _ in 0..n {
            let id = crate::snap::load_lock_id(r)?;
            let st = LockState {
                held_by: opt_cpu(r)?,
                spinning: r.u64()?,
                last_acquirer: opt_cpu(r)?,
                other_touched: r.bool()?,
                last_acquire_time: if r.bool()? { Some(r.u64()?) } else { None },
                llsc_sharers: r.u64()?,
                first_failed: r.u64()?,
            };
            self.locks.insert(id, st);
        }
        for fs in &mut self.stats {
            for v in [
                &mut fs.acquires,
                &mut fs.attempts,
                &mut fs.failed_first,
                &mut fs.releases,
                &mut fs.waiter_events,
                &mut fs.waiter_sum,
                &mut fs.local_reacquires,
                &mut fs.sync_ops,
                &mut fs.llsc_misses,
                &mut fs.gap_cycles,
                &mut fs.gap_count,
            ] {
                *v = r.u64()?;
            }
        }
        Ok(())
    }

    fn mask(cpu: CpuId) -> u64 {
        1u64 << cpu.index()
    }

    /// Turns on the per-instance dynamic probes at window-start time
    /// `now`. Holds already in flight are seeded as truncated
    /// intervals clipped at `now`, so a lock acquired before the
    /// window still produces its wait-graph edges; spins in flight
    /// need no seeding (the next failed attempt re-registers them
    /// within cycles).
    pub fn enable_obs(&mut self, now: u64) {
        if self.obs.is_some() {
            return;
        }
        let mut obs = Box::<LockObs>::default();
        for (&lock, st) in &self.locks {
            if let Some(cpu) = st.held_by {
                obs.seed_hold(lock, cpu, now);
            }
        }
        self.obs = Some(obs);
    }

    /// Detaches and returns the probe data, disabling the probes.
    /// Intervals still open (locks spun on or held at the window end
    /// `now`) are closed at the window edge as truncated spans.
    pub fn take_obs(&mut self, now: u64) -> Option<Box<LockObs>> {
        let mut obs = self.obs.take();
        if let Some(o) = obs.as_mut() {
            o.finish(now);
        }
        obs
    }

    /// Attempts to acquire `lock` for `cpu` at time `now` (one
    /// synchronization-bus operation). Callers retry on [`TryAcquire::Busy`].
    pub fn try_acquire(&mut self, lock: LockId, cpu: CpuId, now: u64) -> TryAcquire {
        let st = self.locks.entry(lock).or_default();
        let fam = lock.family.index();
        let stats = &mut self.stats[fam];
        stats.attempts += 1;
        stats.sync_ops += 1;

        // LL/SC line simulation: the first attempt after someone else
        // touched the line misses; spinning re-reads hit in cache.
        if st.llsc_sharers & Self::mask(cpu) == 0 {
            stats.llsc_misses += 1;
            st.llsc_sharers |= Self::mask(cpu);
        }

        if st.last_acquirer != Some(cpu) {
            st.other_touched = true;
        }

        match st.held_by {
            None => {
                // Success. The SC store invalidates other copies.
                if st.llsc_sharers != Self::mask(cpu) {
                    stats.llsc_misses += 1;
                    st.llsc_sharers = Self::mask(cpu);
                }
                stats.acquires += 1;
                if let Some(t) = st.last_acquire_time {
                    stats.gap_cycles += now.saturating_sub(t);
                    stats.gap_count += 1;
                }
                st.last_acquire_time = Some(now);
                if st.last_acquirer == Some(cpu) && !st.other_touched {
                    stats.local_reacquires += 1;
                }
                st.last_acquirer = Some(cpu);
                st.other_touched = false;
                st.held_by = Some(cpu);
                st.spinning &= !Self::mask(cpu);
                st.first_failed &= !Self::mask(cpu);
                if let Some(obs) = &mut self.obs {
                    obs.on_acquired(lock, cpu, now);
                }
                TryAcquire::Acquired
            }
            Some(holder) => {
                // `held_by` is CPU-indexed, but process-held locks
                // (Ino sleep locks, User spin locks) stay with a
                // process that may sleep and yield its CPU, so a
                // same-CPU retry by a different process is legal
                // contention there, not a recursive acquire.
                debug_assert!(
                    holder != cpu || lock.family.is_process_held(),
                    "recursive kernel spin-lock acquire on {:?}",
                    lock.family
                );
                if st.first_failed & Self::mask(cpu) == 0 {
                    stats.failed_first += 1;
                    st.first_failed |= Self::mask(cpu);
                }
                st.spinning |= Self::mask(cpu);
                if let Some(obs) = &mut self.obs {
                    obs.on_busy(lock, cpu, now);
                }
                TryAcquire::Busy
            }
        }
    }

    /// Releases `lock` held by `cpu` at time `now` (one
    /// synchronization-bus operation).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the caller does not hold the lock.
    pub fn release(&mut self, lock: LockId, cpu: CpuId, now: u64) {
        debug_assert_eq!(
            self.locks.get(&lock).and_then(|s| s.held_by),
            Some(cpu),
            "release by non-holder of {lock:?}"
        );
        self.release_any(lock, cpu, now);
    }

    /// Releases `lock` on behalf of its holder, from whichever CPU the
    /// holding process resumed on (sleep locks migrate with their
    /// process).
    pub fn release_any(&mut self, lock: LockId, cpu: CpuId, now: u64) {
        let st = self.locks.entry(lock).or_default();
        debug_assert!(st.held_by.is_some(), "release of free lock {lock:?}");
        let fam = lock.family.index();
        let stats = &mut self.stats[fam];
        stats.releases += 1;
        stats.sync_ops += 1;
        let waiters = st.spinning.count_ones() as u64;
        if waiters > 0 {
            stats.waiter_events += 1;
            stats.waiter_sum += waiters;
        }
        // The release store invalidates spinners' copies.
        if st.llsc_sharers != Self::mask(cpu) {
            stats.llsc_misses += 1;
            st.llsc_sharers = Self::mask(cpu);
        }
        st.held_by = None;
        if let Some(obs) = &mut self.obs {
            obs.on_released(lock, now);
        }
    }

    /// Whether `lock` is currently held.
    pub fn is_held(&self, lock: LockId) -> bool {
        self.locks.get(&lock).is_some_and(|s| s.held_by.is_some())
    }

    /// The holder of `lock`, if held.
    pub fn holder(&self, lock: LockId) -> Option<CpuId> {
        self.locks.get(&lock).and_then(|s| s.held_by)
    }

    /// Statistics for one family.
    pub fn family_stats(&self, family: LockFamily) -> &FamilyStats {
        &self.stats[family.index()]
    }

    /// Iterates over `(family, stats)` pairs.
    pub fn iter_stats(&self) -> impl Iterator<Item = (LockFamily, &FamilyStats)> {
        LockFamily::ALL
            .iter()
            .map(move |&f| (f, &self.stats[f.index()]))
    }

    /// Total synchronization-bus operations across kernel families.
    pub fn kernel_sync_ops(&self) -> u64 {
        self.iter_stats()
            .filter(|(f, _)| f.is_kernel())
            .map(|(_, s)| s.sync_ops)
            .sum()
    }

    /// Total LL/SC-simulated misses across kernel families.
    pub fn kernel_llsc_misses(&self) -> u64 {
        self.iter_stats()
            .filter(|(f, _)| f.is_kernel())
            .map(|(_, s)| s.llsc_misses)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const C0: CpuId = CpuId(0);
    const C1: CpuId = CpuId(1);

    fn runq() -> LockId {
        LockId::singleton(LockFamily::Runqlk)
    }

    #[test]
    fn acquire_release_cycle() {
        let mut t = LockTable::new();
        assert_eq!(t.try_acquire(runq(), C0, 100), TryAcquire::Acquired);
        assert!(t.is_held(runq()));
        assert_eq!(t.holder(runq()), Some(C0));
        t.release(runq(), C0, 150);
        assert!(!t.is_held(runq()));
        let s = t.family_stats(LockFamily::Runqlk);
        assert_eq!(s.acquires, 1);
        assert_eq!(s.releases, 1);
        assert_eq!(s.sync_ops, 2);
    }

    #[test]
    fn cpus_above_31_have_their_own_mask_bits() {
        // CPU 33 must not alias CPU 1 in the spinner and first-failure
        // sets of a 64-CPU machine.
        let mut t = LockTable::new();
        t.try_acquire(runq(), C0, 0);
        for cpu in [C1, CpuId(33), CpuId(63)] {
            assert_eq!(t.try_acquire(runq(), cpu, 1), TryAcquire::Busy);
        }
        t.release(runq(), C0, 2);
        let s = t.family_stats(LockFamily::Runqlk);
        assert_eq!(s.failed_first, 3);
        assert_eq!(s.waiter_sum, 3, "three distinct spinners");
    }

    #[test]
    fn contention_counts_first_attempt_only() {
        let mut t = LockTable::new();
        t.try_acquire(runq(), C0, 0);
        // C1 spins three times: one failed first attempt.
        for _ in 0..3 {
            assert_eq!(t.try_acquire(runq(), C1, 10), TryAcquire::Busy);
        }
        let s = t.family_stats(LockFamily::Runqlk);
        assert_eq!(s.failed_first, 1);
        assert_eq!(s.attempts, 4);
    }

    #[test]
    fn waiters_recorded_at_release() {
        let mut t = LockTable::new();
        t.try_acquire(runq(), C0, 0);
        t.try_acquire(runq(), C1, 1);
        t.release(runq(), C0, 2);
        let s = t.family_stats(LockFamily::Runqlk);
        assert_eq!(s.waiter_events, 1);
        assert_eq!(s.waiter_sum, 1);
        assert_eq!(s.mean_waiters(), Some(1.0));
        // C1 can now take it.
        assert_eq!(t.try_acquire(runq(), C1, 2), TryAcquire::Acquired);
    }

    #[test]
    fn locality_tracks_same_cpu_reacquires() {
        let mut t = LockTable::new();
        for i in 0..4 {
            assert_eq!(t.try_acquire(runq(), C0, i * 100), TryAcquire::Acquired);
            t.release(runq(), C0, i * 100 + 50);
        }
        let s = t.family_stats(LockFamily::Runqlk);
        assert_eq!(s.acquires, 4);
        assert_eq!(s.local_reacquires, 3, "first acquire cannot be local");
        assert!((s.locality() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn intervening_attempt_breaks_locality() {
        let mut t = LockTable::new();
        t.try_acquire(runq(), C0, 0);
        // C1 tries while held.
        t.try_acquire(runq(), C1, 1);
        t.release(runq(), C0, 2);
        // C1 grabs and releases.
        t.try_acquire(runq(), C1, 2);
        t.release(runq(), C1, 3);
        // C0 again: not local (C1 held in between).
        t.try_acquire(runq(), C0, 3);
        t.release(runq(), C0, 4);
        // C0 again immediately: local.
        t.try_acquire(runq(), C0, 4);
        let s = t.family_stats(LockFamily::Runqlk);
        assert_eq!(s.local_reacquires, 1);
    }

    #[test]
    fn llsc_misses_stay_low_for_local_use() {
        let mut t = LockTable::new();
        for i in 0..100 {
            t.try_acquire(runq(), C0, i);
            t.release(runq(), C0, i);
        }
        let s = t.family_stats(LockFamily::Runqlk);
        // First attempt misses; everything after hits in C0's cache.
        assert_eq!(s.llsc_misses, 1);
        assert_eq!(s.sync_ops, 200);
        assert!(s.cached_over_uncached() < 0.01);
    }

    #[test]
    fn llsc_misses_grow_with_migration_of_the_lock() {
        let mut t = LockTable::new();
        for i in 0..10 {
            let cpu = if i % 2 == 0 { C0 } else { C1 };
            t.try_acquire(runq(), cpu, i);
            t.release(runq(), cpu, i);
        }
        let s = t.family_stats(LockFamily::Runqlk);
        // Every handoff misses at least once.
        assert!(s.llsc_misses >= 10, "llsc_misses = {}", s.llsc_misses);
    }

    #[test]
    fn gap_statistics() {
        let mut t = LockTable::new();
        t.try_acquire(runq(), C0, 1000);
        t.release(runq(), C0, 1500);
        t.try_acquire(runq(), C0, 3000);
        t.release(runq(), C0, 3500);
        t.try_acquire(runq(), C0, 6000);
        let s = t.family_stats(LockFamily::Runqlk);
        assert_eq!(s.gap_count, 2);
        assert_eq!(s.mean_gap(), Some(2500.0));
    }

    #[test]
    fn families_are_independent() {
        let mut t = LockTable::new();
        t.try_acquire(LockId::new(LockFamily::Ino, 7), C0, 0);
        t.try_acquire(LockId::new(LockFamily::Ino, 8), C1, 0);
        assert!(t.is_held(LockId::new(LockFamily::Ino, 7)));
        assert!(t.is_held(LockId::new(LockFamily::Ino, 8)));
        assert_eq!(t.family_stats(LockFamily::Ino).acquires, 2);
        assert_eq!(t.family_stats(LockFamily::Memlock).acquires, 0);
    }

    #[test]
    fn kernel_totals_exclude_user_locks() {
        let mut t = LockTable::new();
        t.try_acquire(LockId::new(LockFamily::User, 0), C0, 0);
        t.release(LockId::new(LockFamily::User, 0), C0, 1);
        assert_eq!(t.kernel_sync_ops(), 0);
        t.try_acquire(LockId::singleton(LockFamily::Memlock), C0, 0);
        assert_eq!(t.kernel_sync_ops(), 1);
    }

    #[test]
    fn table11_labels() {
        assert_eq!(LockFamily::Shr.label(), "Shr_x");
        assert!(LockFamily::Runqlk.function().contains("run queue"));
        assert!(!LockFamily::User.is_kernel());
    }

    #[test]
    fn obs_records_spin_and_hold_intervals() {
        let mut t = LockTable::new();
        t.enable_obs(0);
        // Uncontended acquire at 100, release at 400: one hold span.
        t.try_acquire(runq(), C0, 100);
        t.release(runq(), C0, 400);
        // Contended acquire: C1 fails at 410 and 450, wins at 500,
        // releases at 900.
        t.try_acquire(runq(), C0, 405);
        assert_eq!(t.try_acquire(runq(), C1, 410), TryAcquire::Busy);
        assert_eq!(t.try_acquire(runq(), C1, 450), TryAcquire::Busy);
        t.release(runq(), C0, 480);
        assert_eq!(t.try_acquire(runq(), C1, 500), TryAcquire::Acquired);
        t.release(runq(), C1, 900);

        let obs = t.take_obs(900).expect("obs enabled");
        let profiles = obs.profiles();
        assert_eq!(profiles.len(), 1);
        let (id, st) = profiles[0];
        assert_eq!(id, runq());
        assert_eq!(st.acquires, 3);
        assert_eq!(st.contended, 1);
        // Spin measured from the *first* failed attempt (410) to the
        // acquire (500).
        assert_eq!(st.spin_cycles, 90);
        assert_eq!(st.spin_hist.count(), 1);
        assert_eq!(st.hold_cycles, 300 + 75 + 400);
        assert_eq!(st.hold_hist.count(), 3);

        let spans = obs.spans();
        let spins: Vec<_> = spans
            .iter()
            .filter(|s| s.phase == LockPhase::Spin)
            .collect();
        assert_eq!(spins.len(), 1);
        assert_eq!((spins[0].start, spins[0].end, spins[0].cpu), (410, 500, C1));
        let holds: Vec<_> = spans
            .iter()
            .filter(|s| s.phase == LockPhase::Hold)
            .collect();
        assert_eq!(holds.len(), 3);
        assert_eq!((holds[2].start, holds[2].end, holds[2].cpu), (500, 900, C1));
        // No window-clipped intervals in this run.
        assert!(spans.iter().all(|s| !s.truncated));
        // Probes are off after take_obs.
        assert!(t.take_obs(900).is_none());
    }

    #[test]
    fn obs_truncates_spans_at_window_edges() {
        let mut t = LockTable::new();
        // Held across the window start: acquired before the probes.
        t.try_acquire(runq(), C0, 50);
        t.enable_obs(100);
        t.release(runq(), C0, 150);
        // Spinning and holding across the window end.
        t.try_acquire(runq(), C0, 200);
        assert_eq!(t.try_acquire(runq(), C1, 220), TryAcquire::Busy);
        let obs = t.take_obs(300).expect("obs enabled");

        let spans = obs.spans();
        assert_eq!(spans.len(), 3);
        // Seeded hold: clipped to [100, 150), flagged, kept out of the
        // hold statistics.
        assert_eq!(
            (spans[0].phase, spans[0].start, spans[0].end, spans[0].cpu),
            (LockPhase::Hold, 100, 150, C0)
        );
        assert!(spans[0].truncated);
        // Open spin and hold drained at the window end, in
        // (start, lock, cpu, phase) order.
        assert_eq!(
            (spans[1].phase, spans[1].start, spans[1].end, spans[1].cpu),
            (LockPhase::Hold, 200, 300, C0)
        );
        assert!(spans[1].truncated);
        assert_eq!(
            (spans[2].phase, spans[2].start, spans[2].end, spans[2].cpu),
            (LockPhase::Spin, 220, 300, C1)
        );
        assert!(spans[2].truncated);
        // Statistics only see the completed (non-clipped) intervals:
        // the second acquire, and no hold/spin cycles at all.
        let profiles = obs.profiles();
        let (_, st) = profiles[0];
        assert_eq!(st.acquires, 1);
        assert_eq!(st.hold_cycles, 0);
        assert_eq!(st.hold_hist.count(), 0);
        assert_eq!(st.spin_cycles, 0);
    }

    #[test]
    fn obs_profiles_sort_most_contended_first() {
        let mut t = LockTable::new();
        t.enable_obs(0);
        let quiet = LockId::new(LockFamily::Ino, 1);
        let busy = LockId::new(LockFamily::Ino, 2);
        t.try_acquire(quiet, C0, 0);
        t.release(quiet, C0, 10);
        t.try_acquire(busy, C0, 20);
        t.try_acquire(busy, C1, 25);
        t.release(busy, C0, 30);
        t.try_acquire(busy, C1, 35);
        t.release(busy, C1, 40);
        let obs = t.take_obs(40).unwrap();
        let profiles = obs.profiles();
        assert_eq!(profiles[0].0, busy);
        assert_eq!(profiles[1].0, quiet);
    }

    #[test]
    fn obs_disabled_keeps_no_state() {
        let mut t = LockTable::new();
        t.try_acquire(runq(), C0, 0);
        t.release(runq(), C0, 10);
        assert!(t.take_obs(10).is_none());
    }
}
