//! Live observability: per-CPU timelines from the monitor stream and
//! the metrics export.
//!
//! The [`TimelineBuilder`] reads the run's one escape decode: attached
//! to the analyzer ([`crate::analyze::StreamAnalyzer::set_timeline`]),
//! it counts each record block the analyzer takes and, after the analyzer
//! applies each decoded event, reads that CPU's [`CpuState`] — the
//! same copy the analyzer attributes misses with. Live runs attach it
//! on the analysis thread ([`crate::pipeline`]); `--from-trace` attaches
//! it to the re-analysis pass ([`crate::driver::report_from_trace`]).
//! From this it rebuilds, per CPU, the user/OS/idle mode track, the
//! operation-class segments (syscall classes, TLB-fault handling,
//! interrupts), and a bus-occupancy counter track — everything a trace
//! viewer needs to *see* the run the paper only reports in aggregate.
//! [`TimelineBuilder::push_chunk`] runs the same span writer over its
//! own decoder: the standalone path and the tests' reference.
//! Kernel-side probe data that the monitor cannot observe (lock
//! spin/hold intervals ride the synchronization bus, which is invisible
//! to the trace hardware — the paper's Section 2.2 point) is grafted on
//! afterwards by [`assemble_run_obs`] from [`KernelObsReport`].
//!
//! Everything here is deterministic: timestamps are simulated cycles,
//! orderings are insertion orderings of a deterministic simulation,
//! and the export renderers sort where insertion order is not already
//! canonical. The export helpers ([`merge_trace_json`],
//! [`merge_metrics_json`]) assemble multi-workload documents in
//! request order, so `--jobs N` cannot change a byte.

use std::collections::HashMap;

use oscar_machine::addr::CpuId;
use oscar_machine::monitor::{BusRecord, RecordBlock};
use oscar_machine::BusKind;
use oscar_obs::{Log2Histogram, Metrics, Timeline};
use oscar_os::{
    opcode_label, KernelObsReport, LockFamily, LockId, LockObsStats, LockPhase, LockSpan, Mode,
    OpClass, OsEvent, NUM_OPCODES,
};

use crate::analyze::{ExhibitProvenance, TraceAnalysis};
use crate::decode::{CpuState, Decoded, Decoder};
use crate::driver::ReportOutput;
use crate::experiment::RunArtifacts;
use crate::hotline::{HotlineAnalysis, HOTLINE_BUCKETS, HOTLINE_CLASSES};
use crate::resim::{dcache_configs, figure6_configs};

/// Cycles per bus-occupancy bucket (2^16 ≈ 2 ms of simulated time).
const BUS_BUCKET_SHIFT: u32 = 16;

/// Thread-track ids per CPU: `cpu*TRACKS_PER_CPU + {MODE,OP,LOCK}`.
pub(crate) const TRACKS_PER_CPU: u32 = 3;
pub(crate) const TRACK_MODE: u32 = 0;
pub(crate) const TRACK_OP: u32 = 1;
pub(crate) const TRACK_LOCK: u32 = 2;

/// Process id carrying the per-CPU thread tracks.
pub const PID_CPUS: u32 = 0;
/// Process id carrying the bus-occupancy counter track.
pub const PID_BUS: u32 = 1;
/// Process id carrying the per-symbol hot-line counter tracks (only
/// populated when the run tracked hot lines).
pub const PID_HOTLINES: u32 = 2;
/// Top offender lines that get their own timeline counter track.
const HOTLINE_TRACKS: usize = 8;
/// Pid range one run occupies in a merged export; run `i` is shifted
/// by `i * PID_STRIDE`.
pub const PID_STRIDE: u32 = 8;

/// One CPU's open mode and OS-operation spans: the label each track
/// shows and the window-relative cycle it began.
#[derive(Debug, Clone)]
struct SpanTrack {
    mode_label: &'static str,
    mode_since: u64,
    op_label: Option<&'static str>,
    op_since: u64,
}

/// Streaming consumer of monitor records that rebuilds per-CPU
/// timelines and the `trace.*` self-metrics. Attach it to the run's
/// analyzer ([`crate::analyze::StreamAnalyzer::set_timeline`]) so it
/// reads the analyzer's decode, or feed it records itself
/// ([`TimelineBuilder::push_chunk`]); then call
/// [`TimelineBuilder::finish`] to close open spans.
#[derive(Debug)]
pub struct TimelineBuilder {
    /// The escape decoder and per-CPU state of the standalone path
    /// ([`TimelineBuilder::push_chunk`]), made on its first call. A
    /// builder attached to an analyzer reads the analyzer's instead.
    own: Option<(Decoder, Vec<CpuState>)>,
    start: u64,
    tracks: Vec<SpanTrack>,
    timeline: Timeline,
    /// Records by [`BusKind`]: read, read-ex, upgrade, write-back,
    /// uncached (escape).
    kinds: [u64; 5],
    /// Cache fills (read / read-ex / upgrade) per originating CPU —
    /// the causal profiler's memory-stall estimate input. Window-exact
    /// (unlike the whole-run machine counters, this sees only the
    /// measured records).
    cpu_fills: Vec<u64>,
    records: u64,
    events: u64,
    escape_by_opcode: [u64; NUM_OPCODES as usize],
    /// Escape reads that did not decode, as of the last record.
    pub(crate) undecodable: u64,
    bus_bucket: u64,
    bus: [u64; 4],
    last_time: u64,
}

impl TimelineBuilder {
    /// A builder for `num_cpus` CPUs whose measured window starts at
    /// absolute cycle `measure_start` (timeline timestamps are
    /// window-relative).
    pub fn new(num_cpus: usize, measure_start: u64) -> Self {
        let mut timeline = Timeline::new();
        for c in 0..num_cpus as u32 {
            let base = c * TRACKS_PER_CPU;
            timeline.set_thread_name(PID_CPUS, base + TRACK_MODE, format!("cpu{c} mode"));
            timeline.set_thread_name(PID_CPUS, base + TRACK_OP, format!("cpu{c} os-op"));
            timeline.set_thread_name(PID_CPUS, base + TRACK_LOCK, format!("cpu{c} locks"));
        }
        TimelineBuilder {
            own: None,
            start: measure_start,
            tracks: vec![
                SpanTrack {
                    mode_label: "user",
                    mode_since: 0,
                    op_label: None,
                    op_since: 0,
                };
                num_cpus
            ],
            timeline,
            kinds: [0; 5],
            cpu_fills: vec![0; num_cpus],
            records: 0,
            events: 0,
            escape_by_opcode: [0; NUM_OPCODES as usize],
            undecodable: 0,
            bus_bucket: 0,
            bus: [0; 4],
            last_time: measure_start,
        }
    }

    fn rel(&self, t: u64) -> u64 {
        t.saturating_sub(self.start)
    }

    fn flush_bus_bucket(&mut self) {
        if self.bus.iter().any(|&n| n > 0) {
            self.timeline.push_counter(
                PID_BUS,
                self.bus_bucket << BUS_BUCKET_SHIFT,
                "bus",
                &[
                    ("reads", self.bus[0]),
                    ("writes", self.bus[1]),
                    ("writebacks", self.bus[2]),
                    ("escapes", self.bus[3]),
                ],
            );
            self.bus = [0; 4];
        }
    }

    /// Counts one record: its kind, its CPU's fills and its bus bucket.
    fn count(&mut self, time: u64, cpu: CpuId, kind: BusKind) {
        self.records += 1;
        self.last_time = self.last_time.max(time);
        let k = match kind {
            BusKind::Read => 0,
            BusKind::ReadEx => 1,
            BusKind::Upgrade => 2,
            BusKind::WriteBack => 3,
            BusKind::UncachedRead => 4,
        };
        self.kinds[k] += 1;
        // Reads, read-exclusives and upgrades are the CPU's fills.
        if k < 3 {
            if let Some(n) = self.cpu_fills.get_mut(cpu.index()) {
                *n += 1;
            }
        }
        let b = self.rel(time) >> BUS_BUCKET_SHIFT;
        if b != self.bus_bucket {
            self.flush_bus_bucket();
            self.bus_bucket = b;
        }
        // Series: reads, writes (read-ex and upgrade), write-backs,
        // escapes.
        self.bus[[0, 1, 1, 2, 3][k]] += 1;
    }

    /// Counts every record of a block, in trace order, from its time,
    /// CPU and kind columns.
    pub(crate) fn count_block(&mut self, block: &RecordBlock) {
        for i in 0..block.len() {
            self.count(block.time[i], block.cpu[i], block.kind[i]);
        }
    }

    /// Takes one decoded event at cycle `t` on `cpu`, whose state `st`
    /// the event has already moved: closes and opens the mode and
    /// OS-operation spans whose label changed.
    pub(crate) fn on_event(&mut self, t: u64, cpu: usize, ev: OsEvent, st: &CpuState) {
        self.events += 1;
        self.escape_by_opcode[ev.opcode() as usize] += 1;
        let rel = self.rel(t);
        let base = cpu as u32 * TRACKS_PER_CPU;
        let tr = &mut self.tracks[cpu];
        let mode = match st.mode() {
            Mode::Kernel => "os",
            Mode::Idle => "idle",
            Mode::User => "user",
        };
        if mode != tr.mode_label {
            if rel > tr.mode_since {
                self.timeline.push_span(
                    PID_CPUS,
                    base + TRACK_MODE,
                    tr.mode_since,
                    rel - tr.mode_since,
                    tr.mode_label,
                    "mode",
                );
            }
            tr.mode_label = mode;
            tr.mode_since = rel;
        }
        let op = (st.mode() == Mode::Kernel).then(|| st.top().map_or("dispatch", |c| c.label()));
        if op != tr.op_label {
            if let Some(label) = tr.op_label {
                if rel > tr.op_since {
                    self.timeline.push_span(
                        PID_CPUS,
                        base + TRACK_OP,
                        tr.op_since,
                        rel - tr.op_since,
                        label,
                        "os-op",
                    );
                }
            }
            tr.op_label = op;
            tr.op_since = rel;
        }
    }

    /// Feeds a batch of monitor records, in trace order, through the
    /// builder's own decoder — the standalone path, and the reference
    /// the analyzer-fed timeline is tested against.
    pub fn push_chunk(&mut self, recs: &[BusRecord]) {
        let n = self.tracks.len();
        let (mut decoder, mut cpus) = self
            .own
            .take()
            .unwrap_or_else(|| (Decoder::new(n), vec![CpuState::default(); n]));
        for &rec in recs {
            self.count(rec.time, rec.cpu, rec.kind);
            if let Some(Decoded::Event { time, cpu, event }) = decoder.push(rec) {
                let st = &mut cpus[cpu.index()];
                st.apply(event);
                self.on_event(time, cpu.index(), event, st);
            }
        }
        self.undecodable = decoder.undecodable;
        self.own = Some((decoder, cpus));
    }

    /// Closes open spans at `measure_end` (absolute cycles) and
    /// returns the finished timeline, the `trace.*` self-metrics, and
    /// the per-CPU fill counts.
    pub fn finish(mut self, measure_end: u64) -> (Timeline, Metrics, Vec<u64>) {
        let end = self.rel(measure_end.max(self.last_time));
        for (c, tr) in self.tracks.iter().enumerate() {
            let base = c as u32 * TRACKS_PER_CPU;
            if end > tr.mode_since {
                self.timeline.push_span(
                    PID_CPUS,
                    base + TRACK_MODE,
                    tr.mode_since,
                    end - tr.mode_since,
                    tr.mode_label,
                    "mode",
                );
            }
            if let Some(label) = tr.op_label {
                if end > tr.op_since {
                    self.timeline.push_span(
                        PID_CPUS,
                        base + TRACK_OP,
                        tr.op_since,
                        end - tr.op_since,
                        label,
                        "os-op",
                    );
                }
            }
        }
        self.flush_bus_bucket();

        let mut m = Metrics::new();
        m.add("trace.records", self.records);
        for (label, n) in ["read", "readex", "upgrade", "writeback", "uncached"]
            .iter()
            .zip(self.kinds)
        {
            m.add(&format!("trace.records.{label}"), n);
        }
        m.add("trace.events", self.events);
        m.add("trace.undecodable", self.undecodable);
        for (op, &n) in self.escape_by_opcode.iter().enumerate() {
            if n > 0 {
                m.add(&format!("trace.event.{}", opcode_label(op as u32)), n);
            }
        }
        (self.timeline, m, self.cpu_fills)
    }
}

/// Everything observability collected for one run: the timeline, the
/// deterministic metrics, and the per-lock profiles (for tooling like
/// `examples/lock_timeline.rs`). Channel-depth samples are wall-clock
/// artifacts and live in the perf summary instead — they would break
/// the byte-identical-across-`--jobs` guarantee here.
#[derive(Debug, Clone, Default)]
pub struct RunObs {
    /// Per-CPU timeline (modes, op segments, lock intervals, bus
    /// occupancy).
    pub timeline: Timeline,
    /// Deterministic counters, gauges and histograms.
    pub metrics: Metrics,
    /// Per-lock spin/hold profiles, most contended first.
    pub lock_profiles: Vec<(LockId, LockObsStats)>,
    /// Raw lock intervals in completion order (absolute cycles) — the
    /// row stream of the `locks` query source.
    pub lock_spans: Vec<LockSpan>,
    /// Cache fills per CPU over the measured window — the causal
    /// profiler's memory-stall estimate input.
    pub cpu_fills: Vec<u64>,
}

/// Combines the stream-side timeline and metrics with the analyzer's
/// results and the kernel-side probe report into one [`RunObs`].
pub fn assemble_run_obs(
    tag: &str,
    mut timeline: Timeline,
    mut metrics: Metrics,
    cpu_fills: Vec<u64>,
    art: &RunArtifacts,
    an: &TraceAnalysis,
    kernel: Option<Box<KernelObsReport>>,
) -> RunObs {
    timeline.set_process_name(PID_CPUS, format!("{tag} cpus"));
    timeline.set_process_name(PID_BUS, format!("{tag} bus"));

    // Analyzer results, re-exported as flat metrics.
    metrics.add("analyze.window_cycles", an.window_cycles);
    metrics.add("analyze.fills.os", an.fills.os);
    metrics.add("analyze.fills.app", an.fills.app);
    metrics.add("analyze.fills.idle", an.fills.idle);
    metrics.add("analyze.writebacks", an.writebacks);
    metrics.add("analyze.escapes", an.escapes);
    metrics.add("analyze.undecodable", an.undecodable);
    for (mode, id) in [("os", &an.os), ("app", &an.app), ("idle", &an.idle)] {
        for (kind, c) in [("instr", &id.instr), ("data", &id.data)] {
            let k = |leaf: &str| format!("analyze.classify.{mode}.{kind}.{leaf}");
            metrics.add(&k("cold"), c.cold);
            metrics.add(&k("disp_os"), c.disp_os);
            metrics.add(&k("disp_os_same"), c.disp_os_same);
            metrics.add(&k("disp_ap"), c.disp_ap);
            metrics.add(&k("sharing"), c.sharing);
            metrics.add(&k("inval"), c.inval);
        }
    }
    for class in OpClass::ALL {
        metrics.add(
            &format!("analyze.ops.{}", class.label()),
            an.ops_seen[class.code() as usize],
        );
    }
    // Simulated-time throughput: deterministic, unlike wall-clock
    // records/s (which the perf summary reports instead).
    if an.window_cycles > 0 {
        metrics.set_gauge(
            "analyze.records_per_mcycle",
            art.trace_records as f64 / (an.window_cycles as f64 / 1e6),
        );
    }

    // Interconnect occupancy: uniform across backends, with the
    // directory's message mix on top when the run used mesi-dir.
    metrics.add("machine.cpus", art.machine_config.num_cpus as u64);
    metrics.add(
        "machine.interconnect.transactions",
        art.interconnect.transactions,
    );
    metrics.add(
        "machine.interconnect.arbitration_wait",
        art.interconnect.arbitration_wait,
    );
    if let Some(d) = &art.interconnect.dir {
        let k = |leaf: &str| format!("machine.coherence.dir.{leaf}");
        metrics.add(&k("banks"), art.machine_config.dir_banks as u64);
        metrics.add(&k("get_s"), d.get_s);
        metrics.add(&k("get_x"), d.get_x);
        metrics.add(&k("upgrades"), d.upgrades);
        metrics.add(&k("writebacks"), d.writebacks);
        metrics.add(&k("uncached"), d.uncached);
        metrics.add(&k("invals_sent"), d.invals_sent);
        metrics.add(&k("forwards"), d.forwards);
        metrics.add(&k("bank_wait"), d.bank_wait);
    }

    // Kernel-side probes: invisible to the monitor (the sync bus the
    // locks ride is untraced), so they come from the OS itself.
    let mut lock_profiles = Vec::new();
    let mut lock_spans = Vec::new();
    if let Some(k) = kernel {
        for (i, label) in oscar_os::exec::KOp::KIND_LABELS.iter().enumerate() {
            metrics.add(&format!("kernel.kop.{label}"), k.probes.kop[i]);
        }
        for (op, &n) in k.probes.escapes.iter().enumerate() {
            if n > 0 {
                metrics.add(&format!("kernel.escape.{}", opcode_label(op as u32)), n);
            }
        }
        metrics.add("kernel.io_chunks", k.probes.io_chunks);
        metrics.add("kernel.utlb_refills", k.probes.utlb_refills);
        metrics.add("kernel.cow_faults", k.probes.cow_faults);
        metrics.add("sched.enqueues", k.sched.enqueues);
        metrics.add("sched.picks_affinity", k.sched.picks_affinity);
        metrics.add("sched.picks_head", k.sched.picks_head);
        metrics.add("sched.removes", k.sched.removes);
        metrics.insert_hist("sched.runq_depth", &k.sched.depth);

        // Aggregate the per-instance lock profiles by family for the
        // metrics document (instances are unbounded; families are the
        // paper's Table 11 vocabulary).
        let mut by_family: HashMap<LockFamily, LockObsStats> = HashMap::new();
        for (id, st) in &k.lock_profiles {
            let agg = by_family.entry(id.family).or_default();
            agg.acquires += st.acquires;
            agg.contended += st.contended;
            agg.spin_cycles += st.spin_cycles;
            agg.hold_cycles += st.hold_cycles;
            agg.spin_hist.merge(&st.spin_hist);
            agg.hold_hist.merge(&st.hold_hist);
        }
        for family in LockFamily::ALL {
            if let Some(st) = by_family.get(&family) {
                let k = |leaf: &str| format!("lock.{}.{leaf}", family.label());
                metrics.add(&k("acquires"), st.acquires);
                metrics.add(&k("contended"), st.contended);
                metrics.add(&k("spin_cycles"), st.spin_cycles);
                metrics.add(&k("hold_cycles"), st.hold_cycles);
                metrics.insert_hist(&k("spin_hist"), &st.spin_hist);
                metrics.insert_hist(&k("hold_hist"), &st.hold_hist);
            }
        }

        // Lock intervals onto the per-CPU lock tracks.
        for s in &k.lock_spans {
            let (cat, prefix) = match s.phase {
                LockPhase::Spin => ("lock-spin", "spin "),
                LockPhase::Hold => ("lock-hold", "hold "),
            };
            let dur = s.end.saturating_sub(s.start);
            timeline.push_span(
                PID_CPUS,
                s.cpu.index() as u32 * TRACKS_PER_CPU + TRACK_LOCK,
                s.start.saturating_sub(art.measure_start),
                dur,
                format!("{prefix}{}", s.lock.family.label()),
                cat,
            );
        }
        lock_profiles = k.lock_profiles;
        lock_spans = k.lock_spans;
    }

    RunObs {
        timeline,
        metrics,
        lock_profiles,
        lock_spans,
        cpu_fills,
    }
}

/// Flattens a run's [`ExhibitProvenance`] (plus the per-instance lock
/// profiles behind the sync tables) into `exhibit.*` metrics: every
/// cell of the paper-report exhibits keyed down to the contributing
/// CPU, class, operation or lock instance. Empty when the analysis ran
/// without [`crate::analyze::AnalyzeOptions::provenance`].
pub fn provenance_metrics(an: &TraceAnalysis, obs: Option<&RunObs>) -> Metrics {
    let mut m = Metrics::new();
    let Some(p) = an.provenance.as_deref() else {
        return m;
    };
    // Tables 5–7: miss classification per mode/unit/class/CPU. Zero
    // cells are exported too — a cell that disappears is drift, not
    // noise, and `diff` must see it.
    for (cpu, cells) in p.classify.iter().enumerate() {
        for (mi, mode) in ExhibitProvenance::MODE_LABELS.iter().enumerate() {
            for (ui, unit) in ExhibitProvenance::UNIT_LABELS.iter().enumerate() {
                for (ci, class) in ExhibitProvenance::CLASS_LABELS.iter().enumerate() {
                    m.add(
                        &format!("exhibit.classify.{mode}.{unit}.{class}.cpu{cpu}"),
                        cells[mi][ui][ci],
                    );
                }
            }
        }
    }
    // Figure 9: OS misses by operation class.
    for (cpu, ops) in p.os_by_op.iter().enumerate() {
        for (oi, op) in OpClass::ALL.iter().enumerate() {
            for (ui, unit) in ExhibitProvenance::UNIT_LABELS.iter().enumerate() {
                m.add(
                    &format!("exhibit.fig9.{}.{unit}.cpu{cpu}", op.label()),
                    ops[oi][ui],
                );
            }
        }
    }
    // Figure 8: kernel-data sharing misses by source structure (sparse:
    // the source vocabulary is observed, not enumerated).
    for (&(source, cpu), &n) in &p.sharing_by_source {
        m.add(&format!("exhibit.fig8.{}.cpu{cpu}", source.label()), n);
    }
    // Figure 6 / D-cache sweeps: per-geometry, per-CPU splits (present
    // only when the sweeps ran inline).
    for (cfg, per_cpu) in figure6_configs().iter().zip(&p.fig6_per_cpu) {
        let kb = cfg.size_bytes / 1024;
        let way = cfg.assoc;
        for (cpu, &(os, inval)) in per_cpu.iter().enumerate() {
            m.add(&format!("exhibit.fig6.{kb}KB.{way}way.os.cpu{cpu}"), os);
            m.add(
                &format!("exhibit.fig6.{kb}KB.{way}way.inval.cpu{cpu}"),
                inval,
            );
        }
    }
    for (cfg, per_cpu) in dcache_configs().iter().zip(&p.dcache_per_cpu) {
        let kb = cfg.size_bytes / 1024;
        for (cpu, &(os, sharing)) in per_cpu.iter().enumerate() {
            m.add(&format!("exhibit.dcache.{kb}KB.os.cpu{cpu}"), os);
            m.add(&format!("exhibit.dcache.{kb}KB.sharing.cpu{cpu}"), sharing);
        }
    }
    // Table 11/12 (sync): per-instance lock counters behind the
    // family-aggregated report rows. Kernel probes only — absent on
    // the from-trace path, where no kernel ran.
    if let Some(o) = obs {
        for (id, st) in &o.lock_profiles {
            let k =
                |leaf: &str| format!("exhibit.sync.{}.i{}.{leaf}", id.family.label(), id.instance);
            m.add(&k("acquires"), st.acquires);
            m.add(&k("contended"), st.contended);
            m.add(&k("spin_cycles"), st.spin_cycles);
            m.add(&k("hold_cycles"), st.hold_cycles);
        }
    }
    m
}

/// Merges the per-request provenance exports into one sorted JSON
/// object, each run's keys prefixed with its workload tag (same
/// contract as [`merge_metrics_json`]: `--jobs` cannot change a byte).
pub fn merge_provenance_json(outputs: &[ReportOutput]) -> String {
    let mut merged = Metrics::new();
    for out in outputs {
        if let Some(p) = &out.provenance {
            merged.merge_prefixed(&format!("{}.", out.tag), p);
        }
    }
    merged.to_json()
}

/// A run's hot-line exhibit paired with the machine fabric's coherence
/// counters (invalidations actually sent, shared-line fills observed) —
/// everything `--hotlines-out` exports for one run.
#[derive(Debug, Clone)]
pub struct HotlineExport {
    /// The symbolized top-K contended lines plus coverage totals.
    pub analysis: HotlineAnalysis,
    /// Invalidations the coherence fabric sent (bus or directory).
    pub invals_sent: u64,
    /// Fills that found the line in another CPU's cache (line
    /// migration as seen by the fabric).
    pub sharer_churn: u64,
    /// The measured window, for bucket timestamps.
    pub window_cycles: u64,
}

/// Folds a run's hot-line exhibit into its metrics registry as
/// `exhibit.hotline.*` keys: coverage totals, the fabric counters, and
/// one key group per surfaced symbol. Only called when the run tracked
/// hot lines, so runs without `--hotlines-out` export identical bytes.
pub fn add_hotline_metrics(m: &mut Metrics, h: &HotlineExport) {
    let a = &h.analysis;
    m.add("exhibit.hotline.blocks_seen", a.blocks_seen);
    m.add("exhibit.hotline.blocks_shared", a.blocks_shared);
    m.add("exhibit.hotline.tracked", a.tracked);
    m.add("exhibit.hotline.false_sharing_lines", a.false_sharing_lines);
    m.add("exhibit.hotline.machine.invals_sent", h.invals_sent);
    m.add("exhibit.hotline.machine.sharer_churn", h.sharer_churn);
    for row in &a.top {
        let k = |leaf: &str| format!("exhibit.hotline.line.{}.{leaf}", row.symbol);
        m.add(&k("misses"), row.total_misses());
        m.add(&k("invals"), row.invals);
        m.add(&k("churn"), row.churn);
        m.add(&k("upgrades"), row.upgrades);
        m.add(&k("sharers"), row.sharers as u64);
        m.add(&k("false_sharing"), row.false_sharing as u64);
        m.add(&k("score"), row.score);
    }
}

/// Appends one counter track per top offender line to the run's
/// timeline (process [`PID_HOTLINES`]), sampling the tracker's
/// [`HOTLINE_BUCKETS`] activity buckets across the measured window.
/// Only called when the run tracked hot lines, so timelines without
/// `--hotlines-out` render identical bytes.
pub fn add_hotline_tracks(timeline: &mut Timeline, tag: &str, h: &HotlineExport) {
    if h.analysis.top.is_empty() {
        return;
    }
    timeline.set_process_name(PID_HOTLINES, format!("{tag} hotlines"));
    let bucket_cycles = (h.window_cycles / HOTLINE_BUCKETS as u64).max(1);
    for row in h.analysis.top.iter().take(HOTLINE_TRACKS) {
        let name = format!("hotline {}", row.symbol);
        for (k, &n) in row.buckets.iter().enumerate() {
            timeline.push_counter(
                PID_HOTLINES,
                k as u64 * bucket_cycles,
                name.clone(),
                &[("misses", n)],
            );
        }
    }
}

/// Minimal JSON string escaping for symbol names (controlled ASCII,
/// but quotes and backslashes must never break the document).
pub(crate) fn jstr(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Merges the per-request hot-line exhibits into one JSON document
/// keyed by run tag, in request order (byte-identical for any
/// `--jobs`). Requests that ran without hot-line tracking contribute
/// nothing.
pub fn merge_hotlines_json(outputs: &[ReportOutput]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("{");
    let mut first_run = true;
    for o in outputs {
        let Some(h) = &o.hotlines else { continue };
        let a = &h.analysis;
        if !first_run {
            out.push(',');
        }
        first_run = false;
        let _ = write!(
            out,
            "\n{}: {{\"blocks_seen\": {}, \"blocks_shared\": {}, \"tracked\": {}, \
             \"false_sharing_lines\": {}, \"machine\": {{\"invals_sent\": {}, \
             \"sharer_churn\": {}}}, \"top\": [",
            jstr(&o.tag),
            a.blocks_seen,
            a.blocks_shared,
            a.tracked,
            a.false_sharing_lines,
            h.invals_sent,
            h.sharer_churn
        );
        for (i, r) in a.top.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = write!(
                out,
                "{{\"addr\": \"0x{:08x}\", \"symbol\": {}, \"region\": {}, \
                 \"false_sharing\": {}, \"sharers\": {}, \"score\": {}, \"misses\": {{",
                r.paddr,
                jstr(&r.symbol),
                jstr(r.region.label()),
                r.false_sharing,
                r.sharers,
                r.score
            );
            for (ci, class) in HOTLINE_CLASSES.iter().enumerate() {
                let _ = write!(out, "\"{class}\": {}, ", r.misses[ci]);
            }
            let _ = write!(
                out,
                "\"single_cpu\": {}}}, \"upgrades\": {}, \"invals\": {}, \"churn\": {}, \
                 \"read_cpus\": \"0x{:x}\", \"write_cpus\": \"0x{:x}\", \"buckets\": [",
                r.single_cpu_misses, r.upgrades, r.invals, r.churn, r.read_cpus, r.write_cpus
            );
            for (bi, b) in r.buckets.iter().enumerate() {
                if bi > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{b}");
            }
            out.push_str("]}");
        }
        out.push_str("\n]}");
    }
    out.push_str("\n}\n");
    out
}

/// Merges the per-request timelines into one Chrome trace-event JSON
/// document, in request order, each run shifted into its own pid range
/// (so the export is byte-identical for any `--jobs`). Requests that
/// ran without observability contribute nothing.
pub fn merge_trace_json(outputs: &[ReportOutput]) -> String {
    let mut merged = Timeline::new();
    for (i, out) in outputs.iter().enumerate() {
        if let Some(obs) = &out.obs {
            merged.merge_shifted(&obs.timeline, i as u32 * PID_STRIDE);
        }
    }
    merged.to_chrome_json()
}

/// Merges the per-request metrics into one sorted JSON object, each
/// run's keys prefixed with its workload tag (request order cannot
/// matter: the combined map is sorted).
pub fn merge_metrics_json(outputs: &[ReportOutput]) -> String {
    let mut merged = Metrics::new();
    for out in outputs {
        if let Some(obs) = &out.obs {
            merged.merge_prefixed(&format!("{}.", out.tag), &obs.metrics);
        }
    }
    merged.to_json()
}

/// Renders the top `n` most-contended locks of a run as an aligned
/// text table with log2 spin histograms (the `lock_timeline` example's
/// output; kept here so tests cover it).
pub fn lock_contention_table(obs: &RunObs, n: usize) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<14} {:>4} {:>9} {:>9} {:>11} {:>11}  spin cycles (log2 buckets)",
        "lock", "#", "acquires", "contended", "spin cyc", "hold cyc"
    );
    for (id, st) in obs.lock_profiles.iter().take(n) {
        let hist: Vec<String> = st
            .spin_hist
            .buckets()
            .map(|(lo, count)| format!("{lo}:{count}"))
            .collect();
        let _ = writeln!(
            s,
            "{:<14} {:>4} {:>9} {:>9} {:>11} {:>11}  {}",
            id.family.label(),
            id.instance,
            st.acquires,
            st.contended,
            st.spin_cycles,
            st.hold_cycles,
            if hist.is_empty() {
                "-".to_string()
            } else {
                hist.join(" ")
            }
        );
    }
    s
}

/// Renders the top hot lines as a fixed-width table — the companion to
/// [`lock_contention_table`] for data, not locks: which cache lines the
/// CPUs fought over, who they belong to, and whether the sharing is
/// true (overlapping footprints) or false (disjoint sub-block
/// footprints on one line).
pub fn hotline_table(h: &HotlineAnalysis, n: usize) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<30} {:<14} {:>7} {:>6} {:>6} {:>4}  sharing",
        "line", "region", "misses", "invals", "churn", "cpus"
    );
    for r in h.top.iter().take(n) {
        let _ = writeln!(
            s,
            "{:<30} {:<14} {:>7} {:>6} {:>6} {:>4}  {}",
            r.symbol,
            r.region.label(),
            r.total_misses(),
            r.invals,
            r.churn,
            r.sharers,
            if r.false_sharing { "FALSE" } else { "true" }
        );
    }
    s
}

/// A `Log2Histogram` of per-chunk record counts plus chunk totals,
/// collected by the streaming pipeline when observability is on. The
/// channel-depth samples depend on thread scheduling, so they live in
/// the `stage/analyze` perf row instead.
#[derive(Debug, Default, Clone)]
pub struct PipelineObs {
    /// Chunks that crossed the channel.
    pub chunks: u64,
    /// Records across those chunks.
    pub records: u64,
    /// Distribution of per-chunk record counts.
    pub chunk_size: Log2Histogram,
}

impl PipelineObs {
    /// Folds the counts into `metrics` under `pipeline.*`.
    pub fn export_into(&self, metrics: &mut Metrics) {
        metrics.add("pipeline.chunks", self.chunks);
        metrics.add("pipeline.records", self.records);
        metrics.insert_hist("pipeline.chunk_size", &self.chunk_size);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oscar_machine::addr::{CpuId, PAddr};

    fn escape(cpu: u8, time: u64, ev: OsEvent) -> Vec<BusRecord> {
        ev.encode()
            .into_iter()
            .map(|paddr| BusRecord {
                time,
                cpu: CpuId(cpu),
                paddr,
                kind: BusKind::UncachedRead,
                sub: 0,
            })
            .collect()
    }

    fn fill(cpu: u8, time: u64) -> BusRecord {
        BusRecord {
            time,
            cpu: CpuId(cpu),
            paddr: PAddr::new(0x4000),
            kind: BusKind::Read,
            sub: 0,
        }
    }

    #[test]
    fn builds_mode_and_op_spans_from_events() {
        let mut b = TimelineBuilder::new(2, 1000);
        let mut recs = Vec::new();
        recs.extend(escape(0, 1100, OsEvent::EnterOs(OpClass::IoSyscall)));
        recs.push(fill(0, 1200));
        recs.extend(escape(0, 1500, OsEvent::OpEnd));
        recs.extend(escape(0, 1500, OsEvent::ExitOs));
        b.push_chunk(&recs);
        let (tl, m, fills) = b.finish(2000);

        let modes: Vec<_> = tl.spans().iter().filter(|s| s.cat == "mode").collect();
        // cpu0: user [0,100), os [100,500), user [500,1000); cpu1: user
        // [0,1000).
        assert_eq!(modes.len(), 4);
        assert_eq!(
            (modes[0].ts, modes[0].dur, modes[0].name.as_str()),
            (0, 100, "user")
        );
        assert_eq!(
            (modes[1].ts, modes[1].dur, modes[1].name.as_str()),
            (100, 400, "os")
        );
        let ops: Vec<_> = tl.spans().iter().filter(|s| s.cat == "os-op").collect();
        assert_eq!(ops.len(), 1);
        assert_eq!(
            (ops[0].ts, ops[0].dur, ops[0].name.as_str()),
            (100, 400, OpClass::IoSyscall.label())
        );
        assert_eq!(m.counter("trace.records"), recs.len() as u64);
        assert_eq!(m.counter("trace.records.read"), 1);
        assert_eq!(fills, vec![1, 0]);
        assert_eq!(m.counter("trace.events"), 3);
        assert_eq!(m.counter("trace.undecodable"), 0);
    }

    #[test]
    fn idle_exit_enters_dispatcher() {
        let mut b = TimelineBuilder::new(1, 0);
        let mut recs = Vec::new();
        recs.extend(escape(0, 100, OsEvent::EnterIdle));
        recs.extend(escape(0, 300, OsEvent::ExitIdle));
        recs.extend(escape(0, 400, OsEvent::ExitOs));
        b.push_chunk(&recs);
        let (tl, _, _) = b.finish(500);
        let modes: Vec<_> = tl.spans().iter().filter(|s| s.cat == "mode").collect();
        let labels: Vec<&str> = modes.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(labels, ["user", "idle", "os", "user"]);
        // The dispatcher segment shows on the op track.
        let ops: Vec<_> = tl.spans().iter().filter(|s| s.cat == "os-op").collect();
        assert_eq!(ops.len(), 1);
        assert_eq!(ops[0].name, "dispatch");
    }

    #[test]
    fn pid_change_saves_and_restores_class_stacks() {
        let mut b = TimelineBuilder::new(1, 0);
        let mut recs = Vec::new();
        // Pid 7 blocks inside an io-syscall; pid 9 runs user code; pid 7
        // resumes and finishes the syscall.
        recs.extend(escape(0, 10, OsEvent::PidChange { pid: 7 }));
        recs.extend(escape(0, 20, OsEvent::EnterOs(OpClass::IoSyscall)));
        recs.extend(escape(0, 30, OsEvent::PidChange { pid: 9 }));
        recs.extend(escape(0, 30, OsEvent::ExitOs));
        recs.extend(escape(0, 50, OsEvent::EnterOs(OpClass::Interrupt)));
        recs.extend(escape(0, 60, OsEvent::OpEnd));
        recs.extend(escape(0, 60, OsEvent::ExitOs));
        recs.extend(escape(0, 70, OsEvent::PidChange { pid: 7 }));
        recs.extend(escape(0, 70, OsEvent::ExitIdle));
        recs.extend(escape(0, 90, OsEvent::OpEnd));
        recs.extend(escape(0, 95, OsEvent::ExitOs));
        b.push_chunk(&recs);
        let (tl, _, _) = b.finish(100);
        let ops: Vec<&str> = tl
            .spans()
            .iter()
            .filter(|s| s.cat == "os-op")
            .map(|s| s.name.as_str())
            .collect();
        // After pid 7 resumes, its io-syscall class is restored on the
        // op track (the [70,90) dispatch window re-shows it).
        assert!(ops.contains(&OpClass::IoSyscall.label()));
        assert!(ops.contains(&OpClass::Interrupt.label()));
    }

    #[test]
    fn operation_open_before_first_idle_pid_change_stays_open() {
        // The CPU's pre-window stack belongs to the idle pid, so the
        // first `PidChange` to it restores the open io-syscall rather
        // than showing the dispatcher.
        let mut b = TimelineBuilder::new(1, 0);
        let mut recs = escape(0, 10, OsEvent::EnterOs(OpClass::IoSyscall));
        recs.extend(escape(0, 20, OsEvent::PidChange { pid: u32::MAX }));
        b.push_chunk(&recs);
        let (tl, _, _) = b.finish(100);
        let ops: Vec<_> = tl
            .spans()
            .iter()
            .filter(|s| s.cat == "os-op")
            .map(|s| (s.ts, s.dur, s.name.as_str()))
            .collect();
        assert_eq!(ops, [(10, 90, OpClass::IoSyscall.label())]);
    }

    #[test]
    fn bus_counter_buckets_by_time() {
        let mut b = TimelineBuilder::new(1, 0);
        b.push_chunk(&[
            fill(0, 10),
            fill(0, 20),
            fill(0, (1 << BUS_BUCKET_SHIFT) + 5),
        ]);
        let (tl, _, _) = b.finish(1 << (BUS_BUCKET_SHIFT + 1));
        let samples = tl.counter_samples();
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0].ts, 0);
        assert_eq!(samples[0].series[0], ("reads", 2));
        assert_eq!(samples[1].ts, 1 << BUS_BUCKET_SHIFT);
        assert_eq!(samples[1].series[0], ("reads", 1));
    }

    #[test]
    fn merge_helpers_tolerate_missing_obs() {
        let out = ReportOutput {
            kind: oscar_workloads::WorkloadKind::Pmake,
            tag: "pmake".into(),
            report: String::new(),
            csv: Vec::new(),
            trace_blob: None,
            phases: Vec::new(),
            trace_records: 0,
            obs: None,
            provenance: None,
            hotlines: None,
            causal: None,
        };
        let outs = vec![out];
        let t = merge_trace_json(&outs);
        assert!(t.contains("\"traceEvents\""));
        assert_eq!(merge_metrics_json(&outs), Metrics::new().to_json());
        assert_eq!(merge_provenance_json(&outs), Metrics::new().to_json());
        assert_eq!(merge_hotlines_json(&outs), "{\n}\n");
    }

    #[test]
    fn lock_table_renders_top_n() {
        let mut obs = RunObs::default();
        let mut st = LockObsStats {
            acquires: 10,
            contended: 4,
            spin_cycles: 400,
            hold_cycles: 900,
            ..LockObsStats::default()
        };
        st.spin_hist.record(100);
        obs.lock_profiles
            .push((LockId::singleton(LockFamily::Runqlk), st));
        obs.lock_profiles
            .push((LockId::new(LockFamily::Ino, 3), LockObsStats::default()));
        let t = lock_contention_table(&obs, 1);
        assert!(t.contains("Runqlk"));
        assert!(!t.contains("Ino_x"), "top-1 must exclude the second lock");
    }
}
