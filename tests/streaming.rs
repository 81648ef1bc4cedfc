//! Integration tests for the streaming trace pipeline and the parallel
//! experiment driver: the tentpole claims — streamed analysis is
//! byte-identical to batch, and `--jobs N` never changes output bytes —
//! verified end to end.

use oscar_core::driver::{run_reports, ReportRequest};
use oscar_core::pipeline::{run_streaming, StreamOptions};
use oscar_core::{analyze, render_all, run, ExperimentConfig};
use oscar_workloads::WorkloadKind;

fn small(kind: WorkloadKind) -> ExperimentConfig {
    ExperimentConfig::new(kind)
        .warmup(2_000_000)
        .measure(2_500_000)
}

#[test]
fn streamed_pipeline_matches_batch_for_each_workload() {
    for kind in [WorkloadKind::Pmake, WorkloadKind::Multpgm] {
        let config = small(kind);
        let art = run(&config);
        let an = analyze(&art);
        let batch = render_all(&art, &an);

        let (sart, san) = run_streaming(
            &config,
            &StreamOptions {
                keep_trace: true,
                chunk_records: 777, // force ragged chunk boundaries
                ..StreamOptions::default()
            },
        );
        assert_eq!(sart.trace, art.trace, "{kind:?}: streamed trace differs");
        assert_eq!(sart.trace_records, art.trace_records);
        assert_eq!(
            render_all(&sart, &san),
            batch,
            "{kind:?}: streamed report differs from batch"
        );
    }
}

#[test]
fn streaming_without_keep_trace_bounds_memory_but_not_results() {
    let config = small(WorkloadKind::Pmake);
    let art = run(&config);
    let an = analyze(&art);

    let (sart, san) = run_streaming(&config, &StreamOptions::default());
    // Nothing materialized...
    assert!(sart.trace.is_empty());
    assert!(san.istream.is_empty() && san.dstream.is_empty());
    // ...yet the record count and the report text are the batch ones.
    assert_eq!(sart.trace_records, art.trace.len() as u64);
    assert_eq!(render_all(&sart, &san), render_all(&art, &an));
}

#[test]
fn report_driver_output_is_independent_of_jobs() {
    let reqs: Vec<ReportRequest> = [
        WorkloadKind::Pmake,
        WorkloadKind::Multpgm,
        WorkloadKind::Oracle,
    ]
    .iter()
    .map(|&k| ReportRequest {
        config: small(k),
        want_csv: true,
        want_trace: true,
        want_obs: false,
        want_provenance: false,
        want_hotlines: false,
        want_causal: false,
        hotlines_top: 50,
        checkpoint_dir: None,
        stage_stats: false,
    })
    .collect();

    let serial = run_reports(reqs.clone(), 1);
    let fanned = run_reports(reqs, 3);
    assert_eq!(serial.len(), fanned.len());
    for (a, b) in serial.iter().zip(&fanned) {
        assert_eq!(a.kind, b.kind, "request order must be preserved");
        assert_eq!(a.report, b.report, "{:?}: report bytes differ", a.kind);
        assert_eq!(a.csv, b.csv, "{:?}: csv bytes differ", a.kind);
        assert_eq!(
            a.trace_blob, b.trace_blob,
            "{:?}: trace bytes differ",
            a.kind
        );
        assert_eq!(a.trace_records, b.trace_records);
    }
    // The driver timed both phases of every request.
    for out in &serial {
        assert_eq!(out.phases.len(), 2);
        assert!(out.phases[0].records > 0);
    }
}
