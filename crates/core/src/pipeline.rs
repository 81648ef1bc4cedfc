//! The streaming run pipeline: simulation and analysis as concurrent
//! stages over a bounded channel.
//!
//! [`crate::experiment::run`] materializes the whole monitor trace
//! (hundreds of bytes per thousand cycles) before [`crate::analyze()`]
//! consumes it, so peak memory scales with the measured horizon.
//! [`run_streaming`] instead attaches a chunking [`TraceSink`] to the
//! machine's monitor: the simulation thread produces [`BusRecord`]s,
//! the sink batches them into chunks on a bounded channel, and the
//! analysis thread feeds them into a [`StreamAnalyzer`]. Backpressure
//! from the bounded channel keeps peak memory constant regardless of
//! trace length — the paper's master-process protocol (ship trace
//! segments off the machine before the 2M-record buffer fills) played
//! the same role for the real monitor.
//!
//! The analysis itself is one sequential pass on the calling thread.
//! The simulator is usually the slower stage, and splitting the
//! analysis across more threads was measured to buy no wall time (see
//! `EXPERIMENTS.md`, "Multi-core single-run pipeline").
//!
//! Both the simulation and the analysis are deterministic, so the
//! streamed result is byte-identical to the batch path; the tests (and
//! `tests/streaming.rs`) assert it.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TryRecvError, TrySendError};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use oscar_machine::monitor::{BusRecord, RecordBlock, TraceSink};

use crate::analyze::{AnalyzeOptions, RowSink, StreamAnalyzer, TraceAnalysis, TraceMeta};
use crate::checkpoint::{warm_prepare, CheckpointStats};
use crate::experiment::{ExperimentConfig, RunArtifacts};
use crate::observe::{assemble_run_obs, PipelineObs, TimelineBuilder};
use crate::perf::PhaseStats;

/// Channel capacity in chunks: the producer stalls once this many
/// chunks are in flight, bounding peak memory.
const CHANNEL_CHUNKS: usize = 32;

/// Tuning of the streaming pipeline.
#[derive(Debug, Clone)]
pub struct StreamOptions {
    /// Records batched per channel message (amortizes channel
    /// synchronization; the value does not affect results).
    pub chunk_records: usize,
    /// Also materialize the trace into the returned
    /// [`RunArtifacts::trace`] (for saving to disk; defeats the
    /// bounded-memory property).
    pub keep_trace: bool,
    /// Run the Figure 6 / D-cache sweeps online. The streamed analysis
    /// keeps no `istream`/`dstream` (bounded memory), so with this off
    /// it carries no sweep points at all; queries, which need none,
    /// turn it off.
    pub online_sweeps: bool,
    /// Enable observability: kernel probes, a timeline attached to the
    /// analyzer (it reads the analyzer's decode on the analysis
    /// thread), and pipeline self-metrics, delivered in
    /// [`RunArtifacts::obs`]. Off by default; when off no probe state is
    /// allocated and no per-record work happens.
    pub observe: bool,
    /// Accumulate per-cell exhibit provenance
    /// ([`crate::analyze::ExhibitProvenance`]) while analyzing; off by
    /// default and free when off.
    pub provenance: bool,
    /// Track per-block contention and materialize the symbolized
    /// hot-line exhibit ([`TraceAnalysis::hotlines`]); off by default
    /// and free when off.
    pub hotlines: bool,
    /// Top contended lines kept by the hot-line exhibit.
    pub hotlines_top: usize,
    /// Directory for the on-disk warm-up checkpoint cache
    /// ([`crate::checkpoint`]). `None` disables caching. Cache traffic
    /// is reported in [`RunArtifacts::checkpoint`].
    pub checkpoint_dir: Option<std::path::PathBuf>,
}

impl Default for StreamOptions {
    fn default() -> Self {
        StreamOptions {
            chunk_records: 4096,
            keep_trace: false,
            online_sweeps: true,
            observe: false,
            provenance: false,
            hotlines: false,
            hotlines_top: 50,
            checkpoint_dir: None,
        }
    }
}

/// Consumer-side occupancy accumulator for the analysis stage.
#[derive(Debug, Default)]
struct StageAcc {
    /// Total stage lifetime.
    wall: Duration,
    /// Time blocked receiving from an empty upstream channel.
    starve: Duration,
    /// Records processed.
    records: u64,
    /// Upstream channel depth samples, taken at each receive.
    depth_max: u64,
    depth_sum: u64,
    depth_samples: u64,
}

impl StageAcc {
    fn sample_depth(&mut self, depth: u64) {
        self.depth_max = self.depth_max.max(depth);
        self.depth_sum += depth;
        self.depth_samples += 1;
    }

    /// Renders the accumulator as a `stage/<id>` perf row.
    fn row(&self, id: String) -> PhaseStats {
        PhaseStats {
            id,
            wall_s: self.wall.as_secs_f64(),
            cycles: 0,
            records: self.records,
            chan_depth_max: (self.depth_samples > 0).then_some(self.depth_max),
            chan_depth_mean: (self.depth_samples > 0)
                .then(|| self.depth_sum as f64 / self.depth_samples as f64),
            stall_s: None,
            starve_s: Some(self.starve.as_secs_f64()),
            ..PhaseStats::default()
        }
    }
}

/// Receives one message, charging any blocking wait to `acc.starve`.
/// `None` once the channel is closed and drained.
fn recv_timed<T>(rx: &Receiver<T>, acc: &mut StageAcc) -> Option<T> {
    match rx.try_recv() {
        Ok(m) => Some(m),
        Err(TryRecvError::Empty) => {
            let t0 = Instant::now();
            let r = rx.recv().ok();
            acc.starve += t0.elapsed();
            r
        }
        Err(TryRecvError::Disconnected) => None,
    }
}

/// What flows from the simulation thread to the analysis thread.
enum StreamMsg {
    /// Trace metadata, sent once after warm-up, before any records.
    /// Boxed: the layout recipe makes it much larger than a chunk.
    Meta(Box<TraceMeta>),
    /// A batch of monitored records, in trace order, as
    /// structure-of-arrays columns (the monitor stages columns, so the
    /// channel carries them without reassembly).
    Block(RecordBlock),
}

/// A [`TraceSink`] that batches records into chunks on a bounded
/// channel. Dropping the sink (detaching it from the monitor) flushes
/// the partial last chunk and, once the last sender is gone, closes the
/// channel.
struct ChunkSink {
    buf: RecordBlock,
    cap: usize,
    tx: SyncSender<StreamMsg>,
    /// Chunks in flight on the channel, shared with the analysis loop
    /// for depth sampling.
    depth: Arc<AtomicUsize>,
    /// Nanoseconds the producer spent blocked on a full channel,
    /// shared with the coordinator that reports them.
    stall_ns: Arc<AtomicU64>,
}

impl ChunkSink {
    fn new(
        tx: SyncSender<StreamMsg>,
        cap: usize,
        depth: Arc<AtomicUsize>,
        stall_ns: Arc<AtomicU64>,
    ) -> Self {
        let cap = cap.max(1);
        ChunkSink {
            buf: RecordBlock::with_capacity(cap),
            cap,
            tx,
            depth,
            stall_ns,
        }
    }

    fn send(&mut self, chunk: RecordBlock) {
        self.depth.fetch_add(1, Ordering::Relaxed);
        // A closed channel means the analysis side is gone
        // (panicked); nothing useful to do with the records.
        match self.tx.try_send(StreamMsg::Block(chunk)) {
            Ok(()) | Err(TrySendError::Disconnected(_)) => {}
            Err(TrySendError::Full(msg)) => {
                let t0 = Instant::now();
                self.tx.send(msg).ok();
                self.stall_ns
                    .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            }
        }
    }

    fn flush_full(&mut self) {
        if self.buf.len() >= self.cap {
            let chunk = std::mem::replace(&mut self.buf, RecordBlock::with_capacity(self.cap));
            self.send(chunk);
        }
    }
}

impl TraceSink for ChunkSink {
    fn record_block(&mut self, block: &RecordBlock) {
        self.buf.append(block);
        self.flush_full();
    }
}

impl Drop for ChunkSink {
    fn drop(&mut self) {
        if !self.buf.is_empty() {
            let chunk = std::mem::take(&mut self.buf);
            self.send(chunk);
        }
    }
}

/// Runs one experiment with simulation and analysis pipelined.
///
/// Equivalent to `let art = run(config); let an = analyze(&art);`
/// except that the trace never exists in memory at once (unless
/// [`StreamOptions::keep_trace`] asks for it) and the analysis overlaps
/// the simulation. The returned artifacts and analysis are
/// deterministic and identical to the batch path's.
pub fn run_streaming(
    config: &ExperimentConfig,
    opts: &StreamOptions,
) -> (RunArtifacts, TraceAnalysis) {
    run_streaming_with(config, || config.build_workload(), opts)
}

/// [`run_streaming`] with an explicit workload builder (the analogue of
/// [`crate::experiment::run_with`]). The builder runs on the simulation
/// thread because built workloads (which may hold `Rc` state shared
/// between tasks) cannot cross threads.
pub fn run_streaming_with(
    config: &ExperimentConfig,
    build: impl FnOnce() -> oscar_workloads::Workload + Send,
    opts: &StreamOptions,
) -> (RunArtifacts, TraceAnalysis) {
    run_streaming_inner(config, build, opts, None)
}

/// [`run_streaming`] with a per-record row hook: `sink` observes one
/// [`crate::analyze::QueryRow`] per trace record, fully enriched (mode,
/// miss class, OS operation, kernel region) as the analyzer decodes
/// it. The hook runs on the calling thread, so the sink may capture
/// non-`Send` state. This is the `records` source of `oscar-reports
/// query`: the sink filters and aggregates per record, and memory
/// stays bounded regardless of trace length.
pub fn run_streaming_rows(
    config: &ExperimentConfig,
    opts: &StreamOptions,
    sink: RowSink,
) -> (RunArtifacts, TraceAnalysis) {
    run_streaming_inner(config, || config.build_workload(), opts, Some(sink))
}

fn run_streaming_inner(
    config: &ExperimentConfig,
    build: impl FnOnce() -> oscar_workloads::Workload + Send,
    opts: &StreamOptions,
    row_hook: Option<RowSink>,
) -> (RunArtifacts, TraceAnalysis) {
    let aopts = AnalyzeOptions {
        online_sweeps: opts.online_sweeps,
        keep_streams: false,
        provenance: opts.provenance,
        hotlines: opts.hotlines,
        hotlines_top: opts.hotlines_top,
    };
    let chunk_records = opts.chunk_records.max(1);
    let (tx, rx) = sync_channel::<StreamMsg>(CHANNEL_CHUNKS);
    let observe = opts.observe;
    let chan_depth = Arc::new(AtomicUsize::new(0));
    let producer_depth = chan_depth.clone();
    let stall_ns = Arc::new(AtomicU64::new(0));
    let producer_stall = stall_ns.clone();
    let checkpoint_dir = opts.checkpoint_dir.clone();

    thread::scope(|s| {
        // Simulation stage: warm up, publish the trace metadata, divert
        // the measured window into the channel, collect artifacts.
        let producer = s.spawn(move || {
            let prod_t0 = Instant::now();
            let mut ckpt = CheckpointStats::default();
            let mut prep = warm_prepare(config, build, checkpoint_dir.as_deref(), &mut ckpt);
            let measure_start = prep.measure_start();
            let meta = TraceMeta {
                layout: prep.os.layout().clone(),
                machine_config: config.machine.clone(),
                measure_start,
                measure_end: measure_start + config.measure_cycles,
            };
            tx.send(StreamMsg::Meta(Box::new(meta))).ok();
            // Kernel probes attach only for the measured window, so
            // warm-up never pollutes them.
            if observe {
                prep.os.enable_obs(measure_start);
            }
            prep.machine.monitor_mut().set_sink(Box::new(ChunkSink::new(
                tx,
                chunk_records,
                producer_depth,
                producer_stall,
            )));
            prep.measure();
            let kernel_obs = prep.os.take_obs(measure_start + config.measure_cycles);
            // finish() detaches (and so flushes) the sink; the channel
            // closes when the sink's sender drops.
            let mut art = prep.finish();
            if checkpoint_dir.is_some() {
                art.checkpoint = Some(ckpt);
            }
            (art, kernel_obs, prod_t0.elapsed())
        });

        // Analysis stage, on the calling thread. With observability on,
        // the analyzer feeds the timeline from its own decode of the
        // measured window's records.
        let mut analyzer: Option<StreamAnalyzer> = None;
        let mut kept: Vec<BusRecord> = Vec::new();
        let mut pobs = observe.then(PipelineObs::default);
        let mut an_acc = StageAcc::default();
        let an_t0 = Instant::now();
        let mut row_hook = row_hook;
        while let Some(msg) = recv_timed(&rx, &mut an_acc) {
            match msg {
                StreamMsg::Meta(meta) => {
                    let (n, start) = (meta.machine_config.num_cpus as usize, meta.measure_start);
                    let mut a = StreamAnalyzer::new(*meta, aopts.clone());
                    if let Some(sink) = row_hook.take() {
                        a.set_row_sink(sink);
                    }
                    if observe {
                        a.set_timeline(TimelineBuilder::new(n, start));
                    }
                    analyzer = Some(a);
                }
                StreamMsg::Block(recs) => {
                    // Sample the in-flight count (including this chunk)
                    // before releasing the slot.
                    let depth = chan_depth.fetch_sub(1, Ordering::Relaxed) as u64;
                    if let Some(p) = &mut pobs {
                        p.chunks += 1;
                        p.records += recs.len() as u64;
                        p.chunk_size.record(recs.len() as u64);
                    }
                    an_acc.records += recs.len() as u64;
                    an_acc.sample_depth(depth);
                    analyzer
                        .as_mut()
                        .expect("trace metadata must precede records")
                        .push_block(&recs);
                    if opts.keep_trace {
                        kept.extend(recs.iter());
                    }
                }
            }
        }
        an_acc.wall = an_t0.elapsed();

        let (mut art, kernel_obs, prod_wall) = producer.join().expect("simulation thread panicked");
        let mut analyzer = analyzer.expect("simulation ended without trace metadata");
        let built = analyzer.take_timeline().map(|t| t.finish(art.measure_end));
        let layers = analyzer.layer_times();
        let an = analyzer.finish();
        if opts.keep_trace {
            art.trace = kept;
        }
        art.stage_phases.push(PhaseStats {
            id: "stage/produce".into(),
            wall_s: prod_wall.as_secs_f64(),
            cycles: config.measure_cycles,
            records: art.trace_records,
            chan_depth_max: None,
            chan_depth_mean: None,
            stall_s: Some(stall_ns.load(Ordering::Relaxed) as f64 / 1e9),
            ..PhaseStats::default()
        });
        art.stage_phases.push(an_acc.row("stage/analyze".into()));
        art.stage_phases.extend(layers.rows());
        if let (Some(p), Some((timeline, mut metrics, cpu_fills))) = (pobs, built) {
            let tag = config.tag();
            p.export_into(&mut metrics);
            if let Some(cs) = &art.checkpoint {
                cs.export_into(&mut metrics);
            }
            let obs = assemble_run_obs(&tag, timeline, metrics, cpu_fills, &art, &an, kernel_obs);
            art.obs = Some(Box::new(obs));
        }
        (art, an)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::analyze;
    use crate::experiment::run;
    use oscar_workloads::WorkloadKind;

    fn cfg() -> ExperimentConfig {
        ExperimentConfig::new(WorkloadKind::Pmake)
            .warmup(2_000_000)
            .measure(3_000_000)
    }

    #[test]
    fn streaming_matches_batch_byte_for_byte() {
        let config = cfg();
        let batch_art = run(&config);
        let batch_an = analyze(&batch_art);
        let batch_report = crate::report::render_all(&batch_art, &batch_an);

        let opts = StreamOptions {
            keep_trace: true,
            chunk_records: 1000, // odd size: exercise partial-chunk flush
            ..StreamOptions::default()
        };
        let (stream_art, stream_an) = run_streaming(&config, &opts);

        assert_eq!(stream_art.trace, batch_art.trace, "trace must be identical");
        assert_eq!(stream_art.trace_records, batch_art.trace_records);
        assert_eq!(
            stream_art.os_stats.dispatches,
            batch_art.os_stats.dispatches
        );
        let stream_report = crate::report::render_all(&stream_art, &stream_an);
        assert_eq!(stream_report, batch_report);
    }

    #[test]
    fn stage_stats_rows_appear_and_results_stay_identical() {
        // Every streamed run keeps the stage accounting; the batch path
        // has none, and the reports agree.
        let config = cfg();
        let batch_art = run(&config);
        assert!(
            batch_art.stage_phases.is_empty(),
            "batch runs have no stages"
        );
        let base_report = crate::report::render_all(&batch_art, &analyze(&batch_art));

        let (art, an) = run_streaming(&config, &StreamOptions::default());
        assert_eq!(
            crate::report::render_all(&art, &an),
            base_report,
            "stage stats must not perturb results"
        );
        let ids: Vec<&str> = art.stage_phases.iter().map(|p| p.id.as_str()).collect();
        assert_eq!(
            ids,
            [
                "stage/produce",
                "stage/analyze",
                "layer/classify",
                "layer/resim"
            ]
        );
        let produce = &art.stage_phases[0];
        assert!(produce.records > 0);
        assert!(produce.stall_s.is_some() && produce.starve_s.is_none());
        let analyze = &art.stage_phases[1];
        assert_eq!(analyze.records, produce.records);
        assert!(analyze.starve_s.is_some() && analyze.stall_s.is_none());
        assert!(analyze.chan_depth_max.is_some() && analyze.chan_depth_mean.is_some());
        // The layer split covers every record the analysis stage took.
        for layer in &art.stage_phases[2..] {
            assert_eq!(layer.records, produce.records, "{}", layer.id);
            assert!(layer.wall_s > 0.0, "{}", layer.id);
        }
    }

    #[test]
    fn bounded_mode_materializes_nothing() {
        let config = cfg();
        let (art, an) = run_streaming(&config, &StreamOptions::default());
        assert!(art.trace.is_empty(), "streamed trace must not materialize");
        assert!(art.trace_records > 0);
        assert!(an.istream.is_empty() && an.dstream.is_empty());
        // The online sweeps still produced the resim exhibits.
        assert_eq!(an.fig6.as_ref().map(Vec::len), Some(9));
        assert_eq!(an.dcache.as_ref().map(Vec::len), Some(5));
    }
}
