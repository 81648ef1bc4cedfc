//! The batched SoA hot path against the retained per-record path: the
//! same materialized pmake trace pushed through the analyzer as
//! 4096-record SoA blocks (`push_block`, the streaming pipeline's
//! production path) versus per-record AoS chunks (`push_chunk`, the
//! differential reference), plus the raw staging cost of the monitor's
//! [`RecordBlock`] columns.

use oscar_bench::{black_box, Harness};

use oscar_core::analyze::{AnalyzeOptions, StreamAnalyzer, TraceMeta};
use oscar_core::pipeline::{run_streaming, StreamOptions};
use oscar_core::{run, ExperimentConfig};
use oscar_machine::monitor::RecordBlock;
use oscar_workloads::WorkloadKind;

const CHUNK: usize = 4096;

fn main() {
    let mut h = Harness::new("soa_micro");

    let art = run(&ExperimentConfig::new(WorkloadKind::Pmake)
        .warmup(45_000_000)
        .measure(12_000_000));
    let meta = TraceMeta::of(&art);
    let opts = AnalyzeOptions {
        online_sweeps: true,
        keep_streams: false,
        ..AnalyzeOptions::default()
    };
    println!(
        "soa: pmake 12M-cycle window, {} records, {}-record chunks",
        art.trace.len(),
        CHUNK
    );

    // Pre-stage the SoA blocks once; the pipeline's ChunkSink does this
    // incrementally at monitor-flush cadence.
    let blocks: Vec<RecordBlock> = art
        .trace
        .chunks(CHUNK)
        .map(|recs| {
            let mut b = RecordBlock::with_capacity(recs.len());
            for &rec in recs {
                b.push(rec);
            }
            b
        })
        .collect();

    h.bench("soa/stage_block_4096", || {
        let mut b = RecordBlock::with_capacity(CHUNK);
        for &rec in &art.trace[..CHUNK] {
            b.push(rec);
        }
        black_box(b.len())
    });

    h.bench("soa/analyze_per_record", || {
        let mut a = StreamAnalyzer::new(meta.clone(), opts.clone());
        for recs in art.trace.chunks(CHUNK) {
            a.push_chunk(recs);
        }
        black_box(a.finish().os.total())
    });

    h.bench("soa/analyze_block", || {
        let mut a = StreamAnalyzer::new(meta.clone(), opts.clone());
        for b in &blocks {
            a.push_block(b);
        }
        black_box(a.finish().os.total())
    });

    // One simulate+analyze run through the streaming pipeline: the
    // end-to-end anchor the per-block numbers above feed into.
    let cfg = ExperimentConfig::new(WorkloadKind::Pmake)
        .warmup(2_000_000)
        .measure(6_000_000);
    h.bench("soa/stream_serial", || {
        let (a, _) = run_streaming(&cfg, &StreamOptions::default());
        black_box(a.trace_records)
    });

    h.finish();
}
