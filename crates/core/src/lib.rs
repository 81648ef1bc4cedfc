//! # oscar-core
//!
//! The paper's measurement methodology: trace decoding, miss
//! classification, attribution, stall accounting, cache re-simulation
//! and lock statistics — everything needed to regenerate the tables and
//! figures of Torrellas, Gupta and Hennessy (ASPLOS 1992).

pub mod analyze;
pub mod causal;
pub mod checkpoint;
pub mod classify;
pub mod csv;
pub mod decode;
pub mod driver;
pub mod experiment;
pub mod histogram;
pub mod hotline;
pub mod observe;
pub mod pad;
pub mod perf;
pub mod pipeline;
pub mod query;
pub mod report;
pub mod resim;
pub mod stall;
pub mod summary;
pub mod syncstats;
pub mod tracefile;

pub use oscar_machine::fasthash;

pub use analyze::{
    analyze, analyze_timed, analyze_with, AnalyzeOptions, ExhibitProvenance, LayerTimes, QueryRow,
    RowSink, StreamAnalyzer, TraceAnalysis, TraceMeta,
};
pub use causal::{causal_for_run, merge_causal_json, render_causal_section, wait_chains_table};
pub use checkpoint::CheckpointStats;
pub use driver::{
    parallel_map, parallel_map_tallied, report_from_trace, run_reports, run_reports_pooled,
    ReportOutput, ReportRequest, WorkerTally,
};
pub use experiment::{run, ExperimentConfig, PreparedRun, RunArtifacts};
pub use hotline::{
    HotAccess, HotlineAnalysis, HotlineRow, HotlineTracker, HOTLINE_BUCKETS, HOTLINE_CLASSES,
};
pub use observe::{
    lock_contention_table, merge_metrics_json, merge_provenance_json, merge_trace_json,
    provenance_metrics, RunObs, TimelineBuilder,
};
pub use pipeline::{run_streaming, run_streaming_rows, StreamOptions};
pub use query::{compile, run_query, CompiledQuery, QueryRun};
pub use report::render_all;
pub use summary::Summary;
