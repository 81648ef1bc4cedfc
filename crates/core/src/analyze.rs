//! The single-pass trace analyzer: reconstructs OS/application context
//! from the escape events, classifies every miss against per-CPU cache
//! mirrors, attributes OS data misses to kernel structures and
//! contexts, and accumulates every statistic the paper's tables and
//! figures need.
//!
//! The analyzer is a *streaming* consumer: [`StreamAnalyzer`] accepts
//! structure-of-arrays record blocks ([`StreamAnalyzer::push_block`])
//! and never needs the whole trace in memory. Every run feeds it that
//! way: the streaming pipeline in [`crate::pipeline`] hands it the
//! blocks the simulation ships over a bounded channel, and [`analyze`]
//! (the batch wrapper, also behind `--from-trace`) packs a materialized
//! [`RunArtifacts::trace`] into blocks. The record-at-a-time entries
//! ([`StreamAnalyzer::push`], [`StreamAnalyzer::push_chunk`]) are the
//! reference path the block path is differentially tested against.
//!
//! Like the paper's post-processor, the analysis is one sequential pass:
//! every access is classified against the issuing CPU's mirror and
//! folded into the statistics as it arrives, on the analyzer's thread.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use oscar_machine::addr::{Ppn, Vpn};
use oscar_machine::monitor::{BusRecord, RecordBlock};
use oscar_machine::{BusKind, MachineConfig};
use oscar_os::stats::ModeCycles;
use oscar_os::user::segs;
use oscar_os::{AttrCtx, KernelRegion, Layout, Mode, OpClass, OsEvent, Rid};

use crate::classify::{ArchClass, IdCounts, Mirror};
use crate::decode::{CpuState, Decoded, Decoder};
use crate::experiment::RunArtifacts;
use crate::histogram::Histogram;
use crate::observe::TimelineBuilder;
use crate::perf::PhaseStats;
use crate::resim::{DResimPoint, DSweep, ISweep, ResimPoint};

/// Attribution source of a sharing miss (Figure 8's categories:
/// structures plus the block-copy/clear pseudo-sources).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SharingSource {
    /// A kernel structure or region.
    Region(KernelRegion),
    /// Pages touched by the block-copy routine.
    Bcopy,
    /// Pages touched by the block-clear routine.
    Bclear,
}

impl SharingSource {
    /// Label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            SharingSource::Region(r) => r.label(),
            SharingSource::Bcopy => "bcopy-pages",
            SharingSource::Bclear => "bclear-pages",
        }
    }
}

/// Migration-miss operation categories (Table 5).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MigrationByOp {
    /// Run-queue management.
    pub runq: u64,
    /// Low-level exception handling.
    pub low_level: u64,
    /// Read/write syscall recognition and setup.
    pub rw_setup: u64,
    /// Everything else.
    pub other: u64,
}

impl MigrationByOp {
    /// Total migration misses.
    pub fn total(&self) -> u64 {
        self.runq + self.low_level + self.rw_setup + self.other
    }
}

/// OS data misses inside block operations (Table 6).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockOpMisses {
    /// In `bcopy`.
    pub copy: u64,
    /// In `bzero`.
    pub clear: u64,
    /// In the page-descriptor traversal.
    pub pfdat_scan: u64,
}

impl BlockOpMisses {
    /// Total block-operation data misses.
    pub fn total(&self) -> u64 {
        self.copy + self.clear + self.pfdat_scan
    }
}

/// Per-mode bus-access counts (the stall-time basis: each access stalls
/// the CPU ~35 cycles).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FillCounts {
    /// Accesses charged to OS execution.
    pub os: u64,
    /// Accesses charged to the application.
    pub app: u64,
    /// Accesses in the idle loop.
    pub idle: u64,
}

/// An item of the data-miss stream, kept for the larger-D-cache
/// re-simulation (Section 4.2.2's "Removing Sharing Misses" argument).
/// Eight bytes: block indices fit 32 bits because physical memory is
/// capped at [`oscar_machine::config::MAX_MEMORY_BYTES`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DStreamItem {
    /// CPU index.
    pub cpu: u8,
    /// Block address.
    pub block: u32,
    /// Write (read-exclusive or upgrade).
    pub write: bool,
    /// Whether the OS (or idle loop) issued it.
    pub os: bool,
}

/// An item of the instruction-fetch miss stream, kept for the Figure 6
/// cache re-simulation. Eight bytes, like [`DStreamItem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IStreamItem {
    /// An instruction fill.
    Fetch {
        /// CPU index.
        cpu: u8,
        /// Block address.
        block: u32,
        /// Whether the OS (or idle loop) fetched it.
        os: bool,
    },
    /// An I-cache page invalidation.
    Flush {
        /// The flushed page.
        ppn: u32,
    },
}

/// One enriched record row offered to a query row sink: the raw bus
/// record's fields joined with the attribution context the analyzer
/// reconstructs at that point of the stream (mode, miss class,
/// operation, kernel region). Rows are borrowed stack values — the
/// engine never materializes or retains them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryRow {
    /// Cycles since the start of the measured window.
    pub time: u64,
    /// Issuing CPU index.
    pub cpu: u8,
    /// Bus transaction kind (escape reads appear as `UncachedRead`).
    pub kind: BusKind,
    /// Raw physical byte address.
    pub paddr: u64,
    /// Execution mode charged with the access.
    pub mode: Mode,
    /// Instruction fetch (vs data access); always false for
    /// write-backs and escapes.
    pub instr: bool,
    /// Miss class, for cache fills and upgrades (`None` for
    /// write-backs and escapes, which are not misses).
    pub class: Option<ArchClass>,
    /// Innermost kernel operation, when the CPU is in the OS.
    pub op: Option<OpClass>,
    /// Kernel structure/region of the address (`None` for escapes,
    /// whose addresses encode event payloads).
    pub region: Option<KernelRegion>,
}

/// A consumer of [`QueryRow`]s, installed with
/// [`StreamAnalyzer::set_row_sink`]. Runs on the analyzer's thread, so
/// no `Send` bound.
pub type RowSink = Box<dyn FnMut(&QueryRow)>;

/// Per-CPU contribution counts behind every cell of the paper-report
/// exhibits, collected when [`AnalyzeOptions::provenance`] is on. Each
/// aggregate number in the report can be decomposed here into the CPUs
/// (and for sharing misses, the source structures) that produced it.
#[derive(Debug, Clone, Default)]
pub struct ExhibitProvenance {
    /// Miss-classification counts per CPU, indexed
    /// `[mode][instr|data][class]` with the label orders in
    /// [`ExhibitProvenance::MODE_LABELS`] /
    /// [`ExhibitProvenance::UNIT_LABELS`] /
    /// [`ExhibitProvenance::CLASS_LABELS`]. As in
    /// [`crate::classify::ClassCounts`], `disp_os_same` is a subset of
    /// `disp_os`, not a sibling.
    pub classify: Vec<[[[u64; 6]; 2]; 3]>,
    /// Figure 9 contributions per CPU: OS misses by
    /// `[operation][instr|data]`, operation order as [`OpClass::ALL`].
    pub os_by_op: Vec<[[u64; 2]; OP_CLASSES]>,
    /// Figure 8 contributions: kernel-data sharing misses by
    /// `(source, cpu)`.
    pub sharing_by_source: BTreeMap<(SharingSource, u8), u64>,
    /// Figure 6 contributions: per sweep geometry (order of
    /// [`crate::resim::figure6_configs`]), per CPU `(os_misses, os_inval_misses)`.
    /// Filled only when the sweeps run online.
    pub fig6_per_cpu: Vec<Vec<(u64, u64)>>,
    /// D-cache sweep contributions: per geometry (order of
    /// [`crate::resim::dcache_configs`]), per CPU `(os_misses, os_sharing_misses)`.
    pub dcache_per_cpu: Vec<Vec<(u64, u64)>>,
}

/// Number of operation classes (array width of per-op exhibits).
pub const OP_CLASSES: usize = OpClass::ALL.len();

impl ExhibitProvenance {
    /// Mode labels, in `classify` index order.
    pub const MODE_LABELS: [&'static str; 3] = ["os", "app", "idle"];
    /// Instruction/data labels, in index order.
    pub const UNIT_LABELS: [&'static str; 2] = ["instr", "data"];
    /// Class labels, in index order (`disp_os_same` ⊆ `disp_os`).
    pub const CLASS_LABELS: [&'static str; 6] = [
        "cold",
        "disp_os",
        "disp_os_same",
        "disp_ap",
        "sharing",
        "inval",
    ];

    fn with_cpus(n: usize) -> Self {
        ExhibitProvenance {
            classify: vec![[[[0; 6]; 2]; 3]; n],
            os_by_op: vec![[[0; 2]; OP_CLASSES]; n],
            sharing_by_source: BTreeMap::new(),
            fig6_per_cpu: Vec::new(),
            dcache_per_cpu: Vec::new(),
        }
    }
}

/// Aggregated per-invocation statistics (Figures 1 and 3).
#[derive(Debug)]
pub struct InvocationStats {
    /// Number of OS invocations (excluding pure-UTLB ones).
    pub count: u64,
    /// Total cycles across invocations.
    pub cycles: u64,
    /// Total instruction misses.
    pub i_misses: u64,
    /// Total data misses.
    pub d_misses: u64,
    /// Distribution of instruction misses per invocation.
    pub hist_i: Histogram,
    /// Distribution of data misses per invocation.
    pub hist_d: Histogram,
    /// Distribution of cycles per invocation.
    pub hist_cycles: Histogram,
}

/// UTLB fast-path statistics (Figure 1).
#[derive(Debug, Clone, Copy, Default)]
pub struct UtlbStats {
    /// Fast-path faults handled.
    pub count: u64,
    /// Total handling cycles.
    pub cycles: u64,
    /// Total misses during handling.
    pub misses: u64,
}

/// Application-invocation statistics (Figure 1; the distributions are
/// the companion technical report's charts).
#[derive(Debug)]
pub struct AppSpanStats {
    /// Application invocations observed.
    pub count: u64,
    /// Total user-mode cycles across them.
    pub user_cycles: u64,
    /// Total misses during user execution.
    pub misses: u64,
    /// Total UTLB faults embedded in them.
    pub utlb_faults: u64,
    /// Distribution of user cycles per application invocation.
    pub hist_cycles: Histogram,
    /// Distribution of misses per application invocation.
    pub hist_misses: Histogram,
}

impl Default for AppSpanStats {
    fn default() -> Self {
        AppSpanStats {
            count: 0,
            user_cycles: 0,
            misses: 0,
            utlb_faults: 0,
            hist_cycles: Histogram::linear(400_000, 40),
            hist_misses: Histogram::linear(2_000, 40),
        }
    }
}

/// Everything the analyzer extracts from one trace.
#[derive(Debug)]
pub struct TraceAnalysis {
    /// Per-CPU user/kernel/idle cycles, reconstructed from events.
    pub cpu_cycles: Vec<ModeCycles>,
    /// OS miss classification.
    pub os: IdCounts,
    /// Application miss classification (`disp_os` = the paper's
    /// *Ap_dispos*).
    pub app: IdCounts,
    /// Idle-loop miss classification.
    pub idle: IdCounts,
    /// Sharing misses by source structure (Figure 8).
    pub sharing_by_source: BTreeMap<SharingSource, u64>,
    /// OS *Dispos* instruction misses by routine (Figure 5).
    pub dispos_i_by_routine: BTreeMap<Rid, u64>,
    /// OS *Dispos* instruction misses in 1 KB bins of kernel text
    /// (Figure 5's x-axis).
    pub dispos_i_bins_1k: Vec<u64>,
    /// OS instruction misses by kernel subsystem.
    pub os_i_by_subsystem: BTreeMap<oscar_os::Subsystem, u64>,
    /// OS misses by operation class `(instr, data)` (Figure 9).
    pub os_by_op: [(u64, u64); OpClass::ALL.len()],
    /// Operations observed, by class (Figure 2).
    pub ops_seen: [u64; OpClass::ALL.len()],
    /// OS data misses inside block operations (Table 6).
    pub blockop_d: BlockOpMisses,
    /// Migration misses (sharing misses in the per-process structures)
    /// by structure.
    pub migration_by_region: BTreeMap<KernelRegion, u64>,
    /// Migration misses by operation (Table 5).
    pub migration_by_op: MigrationByOp,
    /// Block-operation size classes from `BlockOp` events
    /// (Table 7): `[copy, clear] × [full, regular, irregular]`.
    pub block_op_sizes: [[u64; 3]; 2],
    /// OS invocation statistics.
    pub invocations: InvocationStats,
    /// UTLB fast-path statistics.
    pub utlb: UtlbStats,
    /// Application invocation statistics.
    pub app_spans: AppSpanStats,
    /// Bus accesses by mode (stall basis).
    pub fills: FillCounts,
    /// Write-backs observed (buffered; not part of stall).
    pub writebacks: u64,
    /// Escape reads observed.
    pub escapes: u64,
    /// Escape reads that failed to decode (must be 0).
    pub undecodable: u64,
    /// The instruction miss stream for cache re-simulation (Figure 6).
    /// Empty when the analyzer ran with
    /// [`AnalyzeOptions::keep_streams`] off (the streaming pipeline's
    /// bounded-memory mode); use [`TraceAnalysis::fig6`] then.
    pub istream: Vec<IStreamItem>,
    /// The data miss stream for D-cache re-simulation. Empty under
    /// bounded-memory streaming; use [`TraceAnalysis::dcache`] then.
    pub dstream: Vec<DStreamItem>,
    /// The Figure 6 sweep, when it was computed online
    /// ([`AnalyzeOptions::online_sweeps`]). Identical to
    /// [`crate::resim::figure6_sweep`] over `istream`.
    pub fig6: Option<Vec<ResimPoint>>,
    /// The Section 4.2.2 D-cache sweep, when computed online.
    pub dcache: Option<Vec<DResimPoint>>,
    /// Per-CPU exhibit provenance, when
    /// [`AnalyzeOptions::provenance`] was on.
    pub provenance: Option<Box<ExhibitProvenance>>,
    /// The symbolized hot-line exhibit, when
    /// [`AnalyzeOptions::hotlines`] was on.
    pub hotlines: Option<Box<crate::hotline::HotlineAnalysis>>,
    /// Measured window in cycles.
    pub window_cycles: u64,
}

impl TraceAnalysis {
    /// Total misses (OS + application, the paper's denominator for
    /// Table 1 column 5).
    pub fn total_misses(&self) -> u64 {
        self.os.total() + self.app.total()
    }

    /// Aggregate non-idle cycles.
    pub fn non_idle_cycles(&self) -> u64 {
        self.cpu_cycles.iter().map(|c| c.non_idle()).sum()
    }

    /// Aggregate cycles.
    pub fn total_cycles(&self) -> u64 {
        self.cpu_cycles.iter().map(|c| c.total()).sum()
    }

    /// The Figure 6 sweep: precomputed if the analyzer ran it online,
    /// otherwise replayed from the kept instruction stream.
    pub fn figure6_points(&self, num_cpus: usize) -> Vec<ResimPoint> {
        match &self.fig6 {
            Some(p) => p.clone(),
            None => crate::resim::figure6_sweep(&self.istream, num_cpus),
        }
    }

    /// The D-cache sweep: precomputed or replayed, like
    /// [`TraceAnalysis::figure6_points`].
    pub fn dcache_points(&self, num_cpus: usize) -> Vec<DResimPoint> {
        match &self.dcache {
            Some(p) => p.clone(),
            None => crate::resim::dcache_sweep(&self.dstream, num_cpus),
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Inv {
    start: u64,
    i: u64,
    d: u64,
    non_utlb: bool,
}

struct CpuAn {
    mode: Mode,
    last_time: u64,
    /// Mode, pid and open operations, as the events drive them (the
    /// attached timeline reads it too).
    state: CpuState,
    cycles: ModeCycles,
    last_class: OpClass,
    ctx_stack: Vec<AttrCtx>,
    epoch: u64,
    inv: Option<Inv>,
    span_active: bool,
    span_user_cycles_at_start: u64,
    span_user_misses_at_start: u64,
    span_utlb: u64,
    user_misses: u64,
    imirror: Mirror,
    dmirror: Mirror,
}

impl CpuAn {
    fn new(start: u64, isize: u64, dsize: u64) -> Self {
        CpuAn {
            mode: Mode::User,
            last_time: start,
            state: CpuState::default(),
            cycles: ModeCycles::default(),
            last_class: OpClass::OtherSyscall,
            ctx_stack: Vec::new(),
            epoch: 0,
            inv: None,
            span_active: false,
            span_user_cycles_at_start: 0,
            span_user_misses_at_start: 0,
            span_utlb: 0,
            user_misses: 0,
            imirror: Mirror::new(isize),
            dmirror: Mirror::new(dsize),
        }
    }

    fn set_mode(&mut self, t: u64, mode: Mode) {
        let dt = t.saturating_sub(self.last_time);
        self.cycles.add(self.mode, dt);
        self.last_time = t;
        if mode == Mode::User && self.mode != Mode::User {
            self.epoch += 1;
        }
        self.mode = mode;
    }

    fn top_class(&self) -> OpClass {
        self.state.top().unwrap_or(self.last_class)
    }
}

/// The trace-side metadata the analyzer needs before the first record
/// arrives: everything in [`RunArtifacts`] except the trace and the
/// OS-side ground truth.
#[derive(Debug, Clone)]
pub struct TraceMeta {
    /// The kernel symbol table.
    pub layout: Layout,
    /// The machine configuration that produced the trace.
    pub machine_config: MachineConfig,
    /// First cycle of the measured window.
    pub measure_start: u64,
    /// Horizon cycle (end of the measured window).
    pub measure_end: u64,
}

impl TraceMeta {
    /// Extracts the metadata of a materialized run.
    pub fn of(art: &RunArtifacts) -> Self {
        TraceMeta {
            layout: art.layout.clone(),
            machine_config: art.machine_config.clone(),
            measure_start: art.measure_start,
            measure_end: art.measure_end,
        }
    }
}

/// Analyzer behaviour knobs.
#[derive(Debug, Clone)]
pub struct AnalyzeOptions {
    /// Run the Figure 6 / D-cache sweeps online, filling
    /// [`TraceAnalysis::fig6`] and [`TraceAnalysis::dcache`] as records
    /// stream through instead of requiring a materialized miss stream.
    pub online_sweeps: bool,
    /// Keep the materialized `istream`/`dstream` vectors. Turning this
    /// off (with `online_sweeps` on) bounds the analyzer's memory
    /// regardless of trace length.
    pub keep_streams: bool,
    /// Collect per-CPU [`ExhibitProvenance`] alongside the aggregate
    /// exhibits. The sweep contributions require `online_sweeps` (the
    /// per-CPU bank counters exist only then).
    pub provenance: bool,
    /// Track per-block contention on the classified data-miss stream
    /// and materialize [`TraceAnalysis::hotlines`].
    pub hotlines: bool,
    /// How many top contended lines [`TraceAnalysis::hotlines`] keeps.
    pub hotlines_top: usize,
}

impl Default for AnalyzeOptions {
    fn default() -> Self {
        AnalyzeOptions {
            online_sweeps: false,
            keep_streams: true,
            provenance: false,
            hotlines: false,
            hotlines_top: 50,
        }
    }
}

/// Runs the full analysis over one run's materialized artifacts.
///
/// # Panics
///
/// Panics if the machine's caches are not direct-mapped (content
/// reconstruction from the miss trace requires direct mapping; use the
/// re-simulator for associative ablations).
pub fn analyze(art: &RunArtifacts) -> TraceAnalysis {
    analyze_with(art, AnalyzeOptions::default())
}

/// [`analyze`] with explicit options.
///
/// # Panics
///
/// Panics if the machine's caches are not direct-mapped.
pub fn analyze_with(art: &RunArtifacts, opts: AnalyzeOptions) -> TraceAnalysis {
    analyze_timed(art, opts, None).0
}

/// Records per [`StreamAnalyzer::push_block`] in [`analyze_timed`]: the
/// streaming pipeline's block size, so the staged re-simulation items
/// stay bounded and the layer rows time the same unit online and
/// offline.
const ANALYZE_BLOCK: usize = 4096;

/// [`analyze_with`], also returning the wall-clock split of the
/// analysis into its classify and re-simulation layers. A `timeline`
/// is attached to the pass ([`StreamAnalyzer::set_timeline`]) and
/// returned with it.
///
/// # Panics
///
/// Panics if the machine's caches are not direct-mapped.
pub fn analyze_timed(
    art: &RunArtifacts,
    opts: AnalyzeOptions,
    timeline: Option<TimelineBuilder>,
) -> (TraceAnalysis, LayerTimes, Option<TimelineBuilder>) {
    let mut a = StreamAnalyzer::new(TraceMeta::of(art), opts);
    if let Some(tl) = timeline {
        a.set_timeline(tl);
    }
    let mut block = RecordBlock::with_capacity(ANALYZE_BLOCK);
    for chunk in art.trace.chunks(ANALYZE_BLOCK) {
        block.clear();
        for &rec in chunk {
            block.push(rec);
        }
        a.push_block(&block);
    }
    let layers = a.layer_times();
    let timeline = a.take_timeline();
    (a.finish(), layers, timeline)
}

/// Wall-clock split of the analyzer's block entries
/// ([`StreamAnalyzer::push_block`], [`StreamAnalyzer::push_chunk`]):
/// the cache re-simulation replay, timed once per block, and the rest
/// (decode, classify, fold). Wall-clock data, so it lives beside the
/// deterministic [`TraceAnalysis`], never in it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTimes {
    /// Everything in a block entry except the re-simulation replay.
    pub classify: Duration,
    /// The Figure 6 / Section 4.2.2 re-simulation replay.
    pub resim: Duration,
    /// Records the timed block entries consumed.
    pub records: u64,
}

impl LayerTimes {
    /// The `layer/classify` and `layer/resim` perf rows (untagged; the
    /// report driver namespaces them under the run's tag).
    pub fn rows(&self) -> [PhaseStats; 2] {
        let row = |id: &str, d: Duration| PhaseStats {
            id: id.into(),
            wall_s: d.as_secs_f64(),
            records: self.records,
            ..PhaseStats::default()
        };
        [
            row("layer/classify", self.classify),
            row("layer/resim", self.resim),
        ]
    }
}

/// Attribution context captured at access time, joined with the class
/// verdict by [`fold_class`].
#[derive(Debug, Clone, Copy)]
struct PendingFill {
    mode: Mode,
    instr: bool,
    /// Kernel instruction miss: the routine fetched.
    rid: Option<Rid>,
    /// Kernel instruction miss: 1 KB text bin, `u32::MAX` otherwise.
    kb: u32,
    /// Kernel data miss: the structure region.
    region: KernelRegion,
    /// Kernel data miss: innermost attribution context.
    ctx: Option<AttrCtx>,
}

/// Folds one class verdict into the analysis (pure accumulation). `cpu`
/// is the issuing CPU, consumed only by the provenance probe;
/// `dispos_i_by_routine` is the dense form of
/// [`TraceAnalysis::dispos_i_by_routine`], indexed by `Rid as usize`.
fn fold_class(
    out: &mut TraceAnalysis,
    dispos_i_by_routine: &mut [u64],
    p: &PendingFill,
    class: ArchClass,
    cpu: usize,
) {
    if let Some(prov) = out.provenance.as_deref_mut() {
        let m = match p.mode {
            Mode::Kernel => 0,
            Mode::User => 1,
            Mode::Idle => 2,
        };
        let cell = &mut prov.classify[cpu][m][if p.instr { 0 } else { 1 }];
        match class {
            ArchClass::Cold => cell[0] += 1,
            ArchClass::DispOs { same_epoch } => {
                cell[1] += 1;
                if same_epoch {
                    cell[2] += 1;
                }
            }
            ArchClass::DispAp => cell[3] += 1,
            ArchClass::Sharing => cell[4] += 1,
            ArchClass::Inval => cell[5] += 1,
        }
    }
    let bucket = match p.mode {
        Mode::Kernel => &mut out.os,
        Mode::User => &mut out.app,
        Mode::Idle => &mut out.idle,
    };
    if p.instr {
        bucket.instr.record(class);
    } else {
        bucket.data.record(class);
    }
    if p.mode != Mode::Kernel {
        return;
    }
    if p.instr {
        if let ArchClass::DispOs { .. } = class {
            if let Some(rid) = p.rid {
                dispos_i_by_routine[rid as usize] += 1;
            }
            let kb = p.kb as usize;
            if kb < out.dispos_i_bins_1k.len() {
                out.dispos_i_bins_1k[kb] += 1;
            }
        }
        return;
    }
    if class == ArchClass::Sharing {
        let source = match p.ctx {
            Some(AttrCtx::BlockCopy) => SharingSource::Bcopy,
            Some(AttrCtx::BlockClear) => SharingSource::Bclear,
            _ => SharingSource::Region(p.region),
        };
        *out.sharing_by_source.entry(source).or_default() += 1;
        if let Some(prov) = out.provenance.as_deref_mut() {
            *prov
                .sharing_by_source
                .entry((source, cpu as u8))
                .or_default() += 1;
        }
        let migration = matches!(
            p.region,
            KernelRegion::KernelStack
                | KernelRegion::Pcb
                | KernelRegion::Eframe
                | KernelRegion::URest
                | KernelRegion::ProcTable
        );
        if migration {
            *out.migration_by_region.entry(p.region).or_default() += 1;
            match p.ctx {
                Some(AttrCtx::RunQueueMgmt) => out.migration_by_op.runq += 1,
                Some(AttrCtx::LowLevelException) => out.migration_by_op.low_level += 1,
                Some(AttrCtx::ReadWriteSetup) => out.migration_by_op.rw_setup += 1,
                _ => out.migration_by_op.other += 1,
            }
        }
    }
}

/// The streaming analyzer: owns all analysis state, consumes record
/// blocks in trace order, and yields the [`TraceAnalysis`] on
/// [`StreamAnalyzer::finish`].
pub struct StreamAnalyzer {
    meta: TraceMeta,
    opts: AnalyzeOptions,
    decoder: Decoder,
    cpus: Vec<CpuAn>,
    /// ppn → latest vpn published by TLB-set events, dense (the frame
    /// pool spans only a few thousand pages); `u32::MAX` = unknown.
    /// Probed per instruction-classified record, so a flat index beats
    /// a hash map.
    ppn_vpn: Vec<u32>,
    isweep: Option<ISweep>,
    dsweep: Option<DSweep>,
    /// Inline re-simulation staging (arena-style scratch, reused across
    /// blocks): stream items batch up per block and replay through the
    /// sweeps in [`StreamAnalyzer::replay_sweeps`], so the classify
    /// loop and the re-simulation each keep their own tables cache-hot
    /// for a whole batch.
    iscratch: Vec<IStreamItem>,
    dscratch: Vec<DStreamItem>,
    /// Kernel-instruction miss counts by subsystem, dense (indexed by
    /// `Subsystem as usize`): a flat add on the per-fill path instead
    /// of a `BTreeMap` probe. Materialized into
    /// [`TraceAnalysis::os_i_by_subsystem`] at finish.
    os_i_sub_dense: Vec<u64>,
    /// Kernel-instruction *Dispos* misses by routine, dense (indexed by
    /// `Rid as usize`), materialized into
    /// [`TraceAnalysis::dispos_i_by_routine`] at finish.
    dispos_i_routine_dense: [u64; Rid::ALL.len()],
    /// Columnar write-back prescan scratch for
    /// [`StreamAnalyzer::push_block`].
    kind_scan: crate::classify::KindScan,
    /// Enriched-row consumer, when a query is attached.
    row_sink: Option<RowSink>,
    /// Timeline fed from this analyzer's decode, when one is attached.
    timeline: Option<Box<TimelineBuilder>>,
    /// Wall-clock split of the block entries.
    layers: LayerTimes,
    /// Per-block contention tracker, when
    /// [`AnalyzeOptions::hotlines`] is on.
    hotline: Option<Box<crate::hotline::HotlineTracker>>,
    out: TraceAnalysis,
}

impl StreamAnalyzer {
    /// Builds an analyzer for a trace described by `meta`.
    ///
    /// # Panics
    ///
    /// Panics if the machine's caches are not direct-mapped.
    pub fn new(meta: TraceMeta, opts: AnalyzeOptions) -> Self {
        let cfg = &meta.machine_config;
        assert_eq!(
            cfg.icache.assoc, 1,
            "trace classification requires direct-mapped caches"
        );
        assert_eq!(
            cfg.l2d.assoc, 1,
            "trace classification requires direct-mapped caches"
        );
        let n = cfg.num_cpus as usize;
        let isize = cfg.icache.size_bytes;
        let dsize = cfg.l2d.size_bytes;
        let text_kb = (meta.layout.text_size() / 1024 + 1) as usize;
        let (isweep, dsweep) = if opts.online_sweeps {
            (Some(ISweep::new(n)), Some(DSweep::new(n)))
        } else {
            (None, None)
        };
        let hotline = opts.hotlines.then(|| {
            Box::new(crate::hotline::HotlineTracker::new(
                n,
                meta.measure_start,
                meta.measure_end,
            ))
        });
        StreamAnalyzer {
            decoder: Decoder::new(n),
            cpus: (0..n)
                .map(|_| CpuAn::new(meta.measure_start, isize, dsize))
                .collect(),
            ppn_vpn: Vec::new(),
            isweep,
            dsweep,
            iscratch: Vec::new(),
            dscratch: Vec::new(),
            os_i_sub_dense: Vec::new(),
            dispos_i_routine_dense: [0; Rid::ALL.len()],
            kind_scan: crate::classify::KindScan::default(),
            row_sink: None,
            timeline: None,
            layers: LayerTimes::default(),
            hotline,
            out: TraceAnalysis {
                cpu_cycles: vec![ModeCycles::default(); n],
                os: IdCounts::default(),
                app: IdCounts::default(),
                idle: IdCounts::default(),
                sharing_by_source: BTreeMap::new(),
                dispos_i_by_routine: BTreeMap::new(),
                dispos_i_bins_1k: vec![0; text_kb],
                os_i_by_subsystem: BTreeMap::new(),
                os_by_op: [(0, 0); OpClass::ALL.len()],
                ops_seen: [0; OpClass::ALL.len()],
                blockop_d: BlockOpMisses::default(),
                migration_by_region: BTreeMap::new(),
                migration_by_op: MigrationByOp::default(),
                block_op_sizes: [[0; 3]; 2],
                invocations: InvocationStats {
                    count: 0,
                    cycles: 0,
                    i_misses: 0,
                    d_misses: 0,
                    hist_i: Histogram::linear(800, 40),
                    hist_d: Histogram::linear(800, 40),
                    hist_cycles: Histogram::linear(40_000, 40),
                },
                utlb: UtlbStats::default(),
                app_spans: AppSpanStats::default(),
                fills: FillCounts::default(),
                writebacks: 0,
                escapes: 0,
                undecodable: 0,
                istream: Vec::new(),
                dstream: Vec::new(),
                fig6: None,
                dcache: None,
                provenance: opts
                    .provenance
                    .then(|| Box::new(ExhibitProvenance::with_cpus(n))),
                hotlines: None,
                window_cycles: meta.measure_end - meta.measure_start,
            },
            meta,
            opts,
        }
    }

    /// Installs a row sink: every record is offered to `sink` as an
    /// enriched [`QueryRow`], with no effect on the analysis itself.
    /// The sink does its own filtering.
    pub fn set_row_sink(&mut self, sink: RowSink) {
        self.row_sink = Some(sink);
    }

    /// Attaches a timeline: it counts the records of every block fed
    /// through [`StreamAnalyzer::push_block`] from now on, and after
    /// each decoded event it reads the CPU's new state to extend the
    /// mode and OS-operation tracks. Never affects the analysis.
    pub fn set_timeline(&mut self, timeline: TimelineBuilder) {
        self.timeline = Some(Box::new(timeline));
    }

    /// Detaches the timeline attached with
    /// [`StreamAnalyzer::set_timeline`], ready for
    /// [`TimelineBuilder::finish`].
    pub fn take_timeline(&mut self) -> Option<TimelineBuilder> {
        let mut tl = self.timeline.take()?;
        tl.undecodable = self.decoder.undecodable;
        Some(*tl)
    }

    /// Offers one enriched row to the sink. No-op without a sink.
    fn emit_row(
        &mut self,
        rec: &BusRecord,
        mode: Mode,
        instr: bool,
        class: Option<ArchClass>,
        op: Option<OpClass>,
        region: Option<KernelRegion>,
    ) {
        let Some(sink) = self.row_sink.as_mut() else {
            return;
        };
        sink(&QueryRow {
            time: rec.time.saturating_sub(self.meta.measure_start),
            cpu: rec.cpu.0,
            kind: rec.kind,
            paddr: rec.paddr.raw(),
            mode,
            instr,
            class,
            op,
            region,
        });
    }

    /// Consumes one bus record, in trace order.
    pub fn push(&mut self, rec: BusRecord) {
        if rec.kind == BusKind::UncachedRead {
            self.out.escapes += 1;
            if self.row_sink.is_some() {
                let ca = &self.cpus[rec.cpu.index()];
                let mode = ca.state.mode();
                let op = (mode == Mode::Kernel).then(|| ca.top_class());
                self.emit_row(&rec, mode, false, None, op, None);
            }
        }
        if let Some(item) = self.decoder.push(rec) {
            self.handle(item);
        }
    }

    /// Consumes a chunk of bus records, in trace order, one at a time —
    /// the record-at-a-time reference path the batched
    /// [`StreamAnalyzer::push_block`] is differentially tested against.
    /// Identical in observable effect to pushing each record
    /// individually.
    pub fn push_chunk(&mut self, recs: &[BusRecord]) {
        let started = Instant::now();
        for &rec in recs {
            self.push(rec);
        }
        self.replay_timed(started, recs.len());
    }

    /// Consumes a structure-of-arrays block of records, in trace order
    /// — the entry every run feeds. Identical in observable
    /// effect to pushing each record individually; the columnar walk
    /// reads the kind column once per record and dispatches the
    /// stateless transaction kinds straight to their handlers, leaving
    /// the escape decoder's per-CPU state machine to the rare
    /// instrumentation reads.
    pub fn push_block(&mut self, block: &RecordBlock) {
        if let Some(tl) = self.timeline.as_deref_mut() {
            tl.count_block(block);
        }
        let started = Instant::now();
        if self.row_sink.is_some() {
            self.push_block_rows(block);
        } else {
            self.push_block_scan(block);
        }
        self.replay_timed(started, block.len());
    }

    /// The wall-clock split of every block entry so far.
    pub fn layer_times(&self) -> LayerTimes {
        self.layers
    }

    /// Replays the staged stream items and charges the block entry that
    /// began at `started` to the classify and re-simulation layers.
    fn replay_timed(&mut self, started: Instant, records: usize) {
        let replay = Instant::now();
        self.replay_sweeps();
        self.layers.classify += replay - started;
        self.layers.resim += replay.elapsed();
        self.layers.records += records as u64;
    }

    /// The block dispatch loop without a row sink.
    fn push_block_scan(&mut self, block: &RecordBlock) {
        // No row sink: a write-back's only observable effect is the
        // counter bump (see `handle`), so one SWAR prescan over the
        // packed kind column bulk-counts every write-back lane and the
        // dispatch loop walks only the lanes that carry classification
        // state. Bitmap word order preserves trace order within and
        // across words.
        let n = block.len();
        self.kind_scan.scan(block.kind_codes());
        self.out.writebacks += self.kind_scan.writeback_count();
        let wb = std::mem::take(&mut self.kind_scan.writebacks);
        for (w, &wbits) in wb.iter().enumerate() {
            let base = w * 64;
            let mut lanes = !wbits;
            if n - base < 64 {
                lanes &= (1u64 << (n - base)) - 1;
            }
            while lanes != 0 {
                let i = base + lanes.trailing_zeros() as usize;
                lanes &= lanes - 1;
                let kind = block.kind[i];
                let rec = BusRecord {
                    time: block.time[i],
                    cpu: block.cpu[i],
                    paddr: block.paddr[i],
                    kind,
                    sub: block.sub[i],
                };
                match kind {
                    BusKind::Read => self.handle_access(rec, false, false),
                    BusKind::ReadEx => self.handle_access(rec, true, false),
                    BusKind::Upgrade => self.handle_access(rec, true, true),
                    // Excluded by the prescan bitmap.
                    BusKind::WriteBack => unreachable!(),
                    BusKind::UncachedRead => self.push(rec),
                }
            }
        }
        self.kind_scan.writebacks = wb;
    }

    /// The row-sink variant of the block dispatch loop: every record is
    /// walked in order, because rows are offered for write-backs too.
    fn push_block_rows(&mut self, block: &RecordBlock) {
        for i in 0..block.len() {
            let kind = block.kind[i];
            let rec = BusRecord {
                time: block.time[i],
                cpu: block.cpu[i],
                paddr: block.paddr[i],
                kind,
                sub: block.sub[i],
            };
            match kind {
                BusKind::Read => self.handle_access(rec, false, false),
                BusKind::ReadEx => self.handle_access(rec, true, false),
                BusKind::Upgrade => self.handle_access(rec, true, true),
                BusKind::WriteBack => self.handle(Decoded::WriteBack { rec }),
                BusKind::UncachedRead => self.push(rec),
            }
        }
    }

    /// Replays the staged miss-stream items through the inline
    /// re-simulation sweeps. The I and D sweeps are independent and each
    /// sees its items in trace order, so the result is identical to the
    /// per-record interleaving.
    fn replay_sweeps(&mut self) {
        if let Some(sweep) = &mut self.isweep {
            sweep.push_items(&self.iscratch);
        }
        self.iscratch.clear();
        if let Some(sweep) = &mut self.dsweep {
            sweep.push_items(&self.dscratch);
        }
        self.dscratch.clear();
    }

    /// Completes the analysis.
    pub fn finish(mut self) -> TraceAnalysis {
        // Stream items staged since the last block must reach the sweeps
        // before their points are read.
        self.replay_sweeps();
        // Materialize the dense subsystem and routine counters; only
        // keys that took a miss appear, exactly as map-entry insertion
        // did.
        for &rid in Rid::ALL {
            let s = rid.subsystem();
            if let Some(&n) = self.os_i_sub_dense.get(s as usize) {
                if n > 0 {
                    self.out.os_i_by_subsystem.insert(s, n);
                }
            }
            let n = self.dispos_i_routine_dense[rid as usize];
            if n > 0 {
                self.out.dispos_i_by_routine.insert(rid, n);
            }
        }
        self.out.undecodable = self.decoder.undecodable;
        // Close out mode integrals and dangling spans.
        let end = self.meta.measure_end;
        for (i, ca) in self.cpus.iter_mut().enumerate() {
            ca.set_mode(end, ca.state.mode());
            self.out.cpu_cycles[i] = ca.cycles;
        }
        self.finish_spans();
        if let Some(sweep) = &self.isweep {
            self.out.fig6 = Some(sweep.points());
        }
        if let Some(sweep) = &self.dsweep {
            self.out.dcache = Some(sweep.points());
        }
        if let Some(prov) = self.out.provenance.as_deref_mut() {
            if let Some(sweep) = &self.isweep {
                prov.fig6_per_cpu = sweep.per_cpu();
            }
            if let Some(sweep) = &self.dsweep {
                prov.dcache_per_cpu = sweep.per_cpu();
            }
        }
        if let Some(h) = &self.hotline {
            self.out.hotlines = Some(Box::new(
                h.finish(&self.meta.layout, self.opts.hotlines_top),
            ));
        }
        self.out
    }

    fn finish_spans(&mut self) {
        for ca in &mut self.cpus {
            if ca.span_active {
                let cycles = ca.cycles.user - ca.span_user_cycles_at_start;
                let misses = ca.user_misses - ca.span_user_misses_at_start;
                self.out.app_spans.count += 1;
                self.out.app_spans.user_cycles += cycles;
                self.out.app_spans.misses += misses;
                self.out.app_spans.utlb_faults += ca.span_utlb;
                self.out.app_spans.hist_cycles.record(cycles);
                self.out.app_spans.hist_misses.record(misses);
            }
        }
    }

    fn handle(&mut self, item: Decoded) {
        match item {
            Decoded::Fill { rec, write } => self.handle_access(rec, write, false),
            Decoded::Upgrade { rec } => self.handle_access(rec, true, true),
            Decoded::WriteBack { rec } => {
                self.out.writebacks += 1;
                if self.row_sink.is_some() {
                    let ca = &self.cpus[rec.cpu.index()];
                    let mode = ca.state.mode();
                    let op = (mode == Mode::Kernel).then(|| ca.top_class());
                    let region = Some(self.meta.layout.classify(rec.paddr));
                    self.emit_row(&rec, mode, false, None, op, region);
                }
            }
            Decoded::Event { time, cpu, event } => self.handle_event(time, cpu.index(), event),
        }
    }

    fn push_istream(&mut self, item: IStreamItem) {
        if self.isweep.is_some() {
            self.iscratch.push(item);
        }
        if self.opts.keep_streams {
            self.out.istream.push(item);
        }
    }

    fn push_dstream(&mut self, item: DStreamItem) {
        if self.dsweep.is_some() {
            self.dscratch.push(item);
        }
        if self.opts.keep_streams {
            self.out.dstream.push(item);
        }
    }

    /// Folds one event into the statistics, which read the CPU's state
    /// from before the event, then applies the event's transition and
    /// shows the new state to the attached timeline.
    fn handle_event(&mut self, t: u64, i: usize, ev: OsEvent) {
        match ev {
            OsEvent::TraceStart | OsEvent::OpEnd | OsEvent::PidChange { .. } => {}
            OsEvent::EnterOs(class) => {
                let ca = &mut self.cpus[i];
                if ca.state.mode() != Mode::Kernel {
                    ca.set_mode(t, Mode::Kernel);
                    // A non-UTLB operation ends the application span.
                    if class != OpClass::UtlbFault && ca.span_active {
                        ca.span_active = false;
                        let cycles = ca.cycles.user - ca.span_user_cycles_at_start;
                        let misses = ca.user_misses - ca.span_user_misses_at_start;
                        self.out.app_spans.count += 1;
                        self.out.app_spans.user_cycles += cycles;
                        self.out.app_spans.misses += misses;
                        self.out.app_spans.utlb_faults += ca.span_utlb;
                        self.out.app_spans.hist_cycles.record(cycles);
                        self.out.app_spans.hist_misses.record(misses);
                        ca.span_utlb = 0;
                    }
                    if ca.inv.is_none() {
                        ca.inv = Some(Inv {
                            start: t,
                            i: 0,
                            d: 0,
                            non_utlb: class != OpClass::UtlbFault,
                        });
                    }
                } else if let Some(inv) = &mut ca.inv {
                    inv.non_utlb |= class != OpClass::UtlbFault;
                }
                ca.last_class = class;
                self.out.ops_seen[class.code() as usize] += 1;
            }
            OsEvent::OpReclass(class) => {
                let ca = &mut self.cpus[i];
                if let Some(top) = ca.state.top() {
                    self.out.ops_seen[top.code() as usize] =
                        self.out.ops_seen[top.code() as usize].saturating_sub(1);
                    self.out.ops_seen[class.code() as usize] += 1;
                }
                ca.last_class = class;
                if let Some(inv) = &mut ca.inv {
                    inv.non_utlb |= class != OpClass::UtlbFault;
                }
            }
            OsEvent::ExitOs => {
                let ca = &mut self.cpus[i];
                let to_idle = ca.state.in_idle();
                ca.set_mode(t, if to_idle { Mode::Idle } else { Mode::User });
                if let Some(inv) = ca.inv.take() {
                    let cycles = t.saturating_sub(inv.start);
                    if inv.non_utlb {
                        let s = &mut self.out.invocations;
                        s.count += 1;
                        s.cycles += cycles;
                        s.i_misses += inv.i;
                        s.d_misses += inv.d;
                        s.hist_i.record(inv.i);
                        s.hist_d.record(inv.d);
                        s.hist_cycles.record(cycles);
                    } else {
                        self.out.utlb.count += 1;
                        self.out.utlb.cycles += cycles;
                        self.out.utlb.misses += inv.i + inv.d;
                        ca.span_utlb += 1;
                    }
                }
                if !to_idle && !ca.span_active {
                    ca.span_active = true;
                    ca.span_user_cycles_at_start = ca.cycles.user;
                    ca.span_user_misses_at_start = ca.user_misses;
                }
            }
            OsEvent::EnterIdle => {
                let ca = &mut self.cpus[i];
                if ca.state.mode() != Mode::Kernel {
                    ca.set_mode(t, Mode::Idle);
                }
                ca.span_active = false;
            }
            // The dispatcher runs next (kernel work without its own
            // operation marker).
            OsEvent::ExitIdle => self.cpus[i].set_mode(t, Mode::Kernel),
            OsEvent::TlbSet { vpn, ppn, .. } => {
                let p = ppn as usize;
                if p >= self.ppn_vpn.len() {
                    self.ppn_vpn.resize(p + 1, u32::MAX);
                }
                self.ppn_vpn[p] = vpn;
            }
            OsEvent::CtxEnter(ctx) => self.cpus[i].ctx_stack.push(ctx),
            OsEvent::CtxExit => {
                self.cpus[i].ctx_stack.pop();
            }
            OsEvent::IcacheFlush { ppn } => {
                for ca in &mut self.cpus {
                    ca.imirror.flush_page(Ppn(ppn));
                }
                self.push_istream(IStreamItem::Flush { ppn });
            }
            OsEvent::BlockOp { kind, bytes } => {
                let k = match kind {
                    oscar_os::BlockOpKind::Copy => 0,
                    oscar_os::BlockOpKind::Clear => 1,
                };
                let s = match oscar_os::BlockSizeClass::of(bytes as u64) {
                    oscar_os::BlockSizeClass::FullPage => 0,
                    oscar_os::BlockSizeClass::RegularFragment => 1,
                    oscar_os::BlockSizeClass::IrregularChunk => 2,
                };
                self.out.block_op_sizes[k][s] += 1;
            }
        }
        let state = &mut self.cpus[i].state;
        state.apply(ev);
        if let Some(tl) = self.timeline.as_deref_mut() {
            tl.on_event(t, i, ev, state);
        }
    }

    /// Whether a fill is an instruction fetch. `region` is
    /// [`Layout::classify`] of the record's address.
    fn is_instr(&self, i: usize, rec: &BusRecord, write: bool, region: KernelRegion) -> bool {
        if write {
            return false;
        }
        match region {
            // Kernel text, including per-cluster replicas.
            KernelRegion::Text => true,
            KernelRegion::FramePool => match self.ppn_vpn.get(rec.paddr.page().0 as usize) {
                Some(&vpn) if vpn != u32::MAX => {
                    segs::is_text(Vpn(vpn)) && self.cpus[i].state.mode() == Mode::User
                }
                _ => false,
            },
            _ => false,
        }
    }

    fn handle_access(&mut self, rec: BusRecord, write: bool, upgrade: bool) {
        let i = rec.cpu.index();
        // The one region lookup of this access: it serves the
        // instruction test, the data attribution and the query row.
        let region = self.meta.layout.classify(rec.paddr);
        let instr = self.is_instr(i, &rec, write, region);
        let block = rec.paddr.block();
        let mode = self.cpus[i].state.mode();
        let os_fill = mode != Mode::User;

        // --- Class-independent accounting ---
        match mode {
            Mode::Kernel => self.out.fills.os += 1,
            Mode::User => {
                self.out.fills.app += 1;
                self.cpus[i].user_misses += 1;
            }
            Mode::Idle => self.out.fills.idle += 1,
        }

        // Memory is capped at 64 GiB (`MachineConfig::validate`) and a
        // saved trace's addresses are checked against that cap on load,
        // so the block index fits 32 bits.
        debug_assert!(block.0 <= u64::from(u32::MAX), "block {block:?}");
        let block32 = block.0 as u32;
        if instr {
            self.push_istream(IStreamItem::Fetch {
                cpu: rec.cpu.0,
                block: block32,
                os: os_fill,
            });
        } else {
            self.push_dstream(DStreamItem {
                cpu: rec.cpu.0,
                block: block32,
                write,
                os: os_fill,
            });
        }

        // Attribution context for the class fold below.
        let mut pending = PendingFill {
            mode,
            instr,
            rid: None,
            kb: u32::MAX,
            region: KernelRegion::FramePool,
            ctx: None,
        };
        if mode == Mode::Kernel {
            let top_ctx = self.cpus[i].ctx_stack.last().copied();
            pending.ctx = top_ctx;
            if instr {
                let canon = self.meta.layout.canonical_text_addr(rec.paddr);
                pending.rid = self.meta.layout.routine_at(canon);
                pending.kb = (canon.raw() / 1024).min(u64::from(u32::MAX)) as u32;
            } else {
                pending.region = region;
            }

            let ca = &mut self.cpus[i];
            if let Some(inv) = &mut ca.inv {
                if instr {
                    inv.i += 1;
                } else {
                    inv.d += 1;
                }
            }
            let op = ca.top_class();
            let e = &mut self.out.os_by_op[op.code() as usize];
            if instr {
                e.0 += 1;
            } else {
                e.1 += 1;
            }
            if let Some(prov) = self.out.provenance.as_deref_mut() {
                prov.os_by_op[i][op.code() as usize][if instr { 0 } else { 1 }] += 1;
            }
            if instr {
                if let Some(rid) = pending.rid {
                    let s = rid.subsystem() as usize;
                    if s >= self.os_i_sub_dense.len() {
                        self.os_i_sub_dense.resize(s + 1, 0);
                    }
                    self.os_i_sub_dense[s] += 1;
                }
            } else if let Some(ctx) = top_ctx {
                match ctx {
                    AttrCtx::BlockCopy => self.out.blockop_d.copy += 1,
                    AttrCtx::BlockClear => self.out.blockop_d.clear += 1,
                    AttrCtx::PfdatScan => self.out.blockop_d.pfdat_scan += 1,
                    _ => {}
                }
            }
        }

        // --- Classification ---
        if upgrade {
            // An upgrade is coherence traffic on a resident line: the
            // class is Sharing by definition (no mirror lookup), but
            // other CPUs still lose the block.
            fold_class(
                &mut self.out,
                &mut self.dispos_i_routine_dense,
                &pending,
                ArchClass::Sharing,
                i,
            );
            for (j, other) in self.cpus.iter_mut().enumerate() {
                if j != i {
                    other.dmirror.invalidate(block);
                }
            }
            if let Some(h) = &mut self.hotline {
                if !instr {
                    h.record(
                        i,
                        block.0,
                        rec.sub,
                        crate::hotline::HotAccess::Upgrade,
                        ArchClass::Sharing,
                        rec.time,
                    );
                }
            }
            if self.row_sink.is_some() {
                let op = (mode == Mode::Kernel).then(|| self.cpus[i].top_class());
                self.emit_row(
                    &rec,
                    mode,
                    instr,
                    Some(ArchClass::Sharing),
                    op,
                    Some(region),
                );
            }
            return;
        }

        let ca = &mut self.cpus[i];
        let class = if instr {
            ca.imirror.classify_fill(block, os_fill, ca.epoch)
        } else {
            ca.dmirror.classify_fill(block, os_fill, ca.epoch)
        };
        // Coherence: writes invalidate other caches' copies.
        if write && !instr {
            for (j, other) in self.cpus.iter_mut().enumerate() {
                if j != i {
                    other.dmirror.invalidate(block);
                }
            }
        }
        fold_class(
            &mut self.out,
            &mut self.dispos_i_routine_dense,
            &pending,
            class,
            i,
        );
        if let Some(h) = &mut self.hotline {
            if !instr {
                let access = if write {
                    crate::hotline::HotAccess::Write
                } else {
                    crate::hotline::HotAccess::Read
                };
                h.record(i, block.0, rec.sub, access, class, rec.time);
            }
        }
        if self.row_sink.is_some() {
            let op = (mode == Mode::Kernel).then(|| self.cpus[i].top_class());
            self.emit_row(&rec, mode, instr, Some(class), op, Some(region));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{run, ExperimentConfig};
    use oscar_workloads::WorkloadKind;

    fn analysis() -> (RunArtifacts, TraceAnalysis) {
        let art = run(&ExperimentConfig::new(WorkloadKind::Pmake)
            .warmup(2_000_000)
            .measure(4_000_000));
        let an = analyze(&art);
        (art, an)
    }

    #[test]
    fn decodes_cleanly_and_balances_time() {
        let (art, an) = analysis();
        assert_eq!(an.undecodable, 0, "every escape must decode");
        // Reconstructed cycles cover the window (within instrumentation
        // slack per CPU).
        for mc in &an.cpu_cycles {
            let total = mc.total();
            let window = an.window_cycles;
            assert!(
                total as f64 >= 0.9 * window as f64 && total as f64 <= 1.1 * window as f64,
                "cpu cycles {total} vs window {window}"
            );
        }
        let _ = art;
    }

    #[test]
    fn trace_side_matches_ground_truth() {
        let (art, an) = analysis();
        let gt = &art.os_stats;
        // Kernel misses: trace classification vs OS ground truth.
        let trace_os = an.os.total();
        let gt_os = gt.kernel_misses.total();
        let rel = (trace_os as f64 - gt_os as f64).abs() / gt_os.max(1) as f64;
        assert!(
            rel < 0.08,
            "OS misses: trace {trace_os} vs ground truth {gt_os}"
        );
        // Mode cycle split close to ground truth.
        let t = an
            .cpu_cycles
            .iter()
            .fold(ModeCycles::default(), |mut a, c| {
                a.user += c.user;
                a.kernel += c.kernel;
                a.idle += c.idle;
                a
            });
        let g = gt.total_cycles();
        let rel_k = (t.kernel as f64 - g.kernel as f64).abs() / g.kernel.max(1) as f64;
        assert!(
            rel_k < 0.1,
            "kernel cycles: trace {} vs gt {}",
            t.kernel,
            g.kernel
        );
    }

    #[test]
    fn every_miss_is_classified_once() {
        let (_, an) = analysis();
        assert_eq!(
            an.fills.os + an.fills.app + an.fills.idle,
            an.os.total() + an.app.total() + an.idle.total()
        );
        assert!(an.os.total() > 0);
        assert!(an.app.total() > 0);
    }

    #[test]
    fn op_attribution_covers_all_os_misses() {
        let (_, an) = analysis();
        let by_op: u64 = an.os_by_op.iter().map(|(i, d)| i + d).sum();
        assert_eq!(by_op, an.os.total());
    }

    #[test]
    fn utlb_faults_are_cheap_and_frequent() {
        let art = run(&ExperimentConfig::new(WorkloadKind::Pmake)
            .warmup(45_000_000)
            .measure(10_000_000));
        let an = analyze(&art);
        assert!(an.utlb.count > 0);
        let per = an.utlb.misses as f64 / an.utlb.count as f64;
        assert!(per < 6.0, "UTLB faults must be nearly miss-free, got {per}");
        // Count matches ground truth closely.
        let gt = art.os_stats.utlb_faults;
        let rel = (an.utlb.count as f64 - gt as f64).abs() / gt.max(1) as f64;
        assert!(rel < 0.25, "utlb: trace {} vs gt {}", an.utlb.count, gt);
    }

    /// Online sweeps must equal the batch sweeps over the kept streams.
    #[test]
    fn online_sweeps_match_batch_resim() {
        let art = run(&ExperimentConfig::new(WorkloadKind::Pmake)
            .warmup(2_000_000)
            .measure(3_000_000));
        let an = analyze_with(
            &art,
            AnalyzeOptions {
                online_sweeps: true,
                ..AnalyzeOptions::default()
            },
        );
        let n = art.machine_config.num_cpus as usize;
        let batch_fig6 = crate::resim::figure6_sweep(&an.istream, n);
        let batch_dc = crate::resim::dcache_sweep(&an.dstream, n);
        assert_eq!(an.fig6.as_deref(), Some(batch_fig6.as_slice()));
        assert_eq!(an.dcache.as_deref(), Some(batch_dc.as_slice()));
    }
}
