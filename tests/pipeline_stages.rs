//! Byte-identity tests for the single-run pipeline (the simulation
//! producer overlapped with the analyzer over a bounded channel): every
//! export must stay bit-exact at any chunk size and with per-stage
//! occupancy rows on.

use oscar_core::driver::{run_reports, ReportRequest};
use oscar_core::pipeline::{run_streaming, run_streaming_rows, StreamOptions};
use oscar_core::query::compile;
use oscar_core::{analyze, merge_metrics_json, render_all, run, ExperimentConfig};
use oscar_machine::BusKind;
use oscar_obs::query::QuerySpec;
use oscar_workloads::WorkloadKind;

fn small(kind: WorkloadKind) -> ExperimentConfig {
    ExperimentConfig::new(kind)
        .warmup(2_000_000)
        .measure(2_500_000)
}

fn req(kind: WorkloadKind) -> ReportRequest {
    ReportRequest {
        config: small(kind),
        want_csv: true,
        want_obs: true,
        ..ReportRequest::new(kind, 0, 0)
    }
}

/// Ragged chunk sizes exercise the SWAR kernel's tail lanes (partial
/// bitmap words) across every block boundary.
#[test]
fn pipelined_streaming_is_identical_at_ragged_chunk_sizes() {
    let config = small(WorkloadKind::Multpgm);
    let art = run(&config);
    let an = analyze(&art);
    let batch = render_all(&art, &an);

    for chunk in [333, 777, 4096, 63] {
        let (sart, san) = run_streaming(
            &config,
            &StreamOptions {
                keep_trace: true,
                chunk_records: chunk,
                ..StreamOptions::default()
            },
        );
        assert_eq!(sart.trace, art.trace, "chunk {chunk}");
        assert_eq!(
            render_all(&sart, &san),
            batch,
            "chunk {chunk}: report differs"
        );
    }
}

/// Per-stage occupancy rows ride along without perturbing any export,
/// namespaced under the run's tag.
#[test]
fn stage_rows_leave_exports_unchanged() {
    let kind = WorkloadKind::Pmake;
    let base = run_reports(vec![req(kind)], 1);

    let staged = ReportRequest {
        stage_stats: true,
        ..req(kind)
    };
    let out = run_reports(vec![staged], 1);
    assert_eq!(out[0].report, base[0].report, "stage rows: report");
    assert_eq!(
        merge_metrics_json(&out),
        merge_metrics_json(&base),
        "stage rows: metrics export"
    );
    let stage_ids: Vec<&str> = out[0]
        .phases
        .iter()
        .filter(|p| p.id.starts_with("stage/"))
        .map(|p| p.id.as_str())
        .collect();
    assert_eq!(stage_ids, ["stage/pmake/produce", "stage/pmake/analyze"]);
}

/// The `records` query filter (CPU list, kind list with write-backs,
/// address and time windows) must admit exactly the rows the scalar
/// predicate admits, on rows the analyzer offers at ragged chunk sizes.
/// The oracle runs unfiltered and applies the predicate row by row.
#[test]
fn columnar_row_filter_matches_scalar_predicate() {
    let config = small(WorkloadKind::Pmake);
    let wheres: Vec<String> = [
        "cpu=0,2",
        "kind=read,writeback",
        "addr=0x100000..0x600000",
        "time=100000..2000000",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let query = compile(&QuerySpec::parse("records", &wheres, None, None, None).unwrap()).unwrap();

    let collect = |chunk: usize| {
        let rows = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let sink_rows = std::rc::Rc::clone(&rows);
        let opts = StreamOptions {
            chunk_records: chunk,
            ..StreamOptions::default()
        };
        run_streaming_rows(
            &config,
            &opts,
            Box::new(move |r| {
                sink_rows.borrow_mut().push(*r);
            }),
        );
        std::rc::Rc::try_unwrap(rows).unwrap().into_inner()
    };

    // Oracle: unfiltered rows, predicate applied scalar per row.
    let oracle: Vec<_> = collect(4096)
        .into_iter()
        .filter(|r| {
            (r.cpu == 0 || r.cpu == 2)
                && matches!(r.kind, BusKind::Read | BusKind::WriteBack)
                && (0x10_0000..=0x60_0000).contains(&r.paddr)
                && (100_000..=2_000_000).contains(&r.time)
        })
        .collect();
    assert!(!oracle.is_empty(), "filter must admit some rows");

    let admits = query.record_filter();
    for chunk in [63, 1000, 4096] {
        let got: Vec<_> = collect(chunk).into_iter().filter(|r| admits(r)).collect();
        assert_eq!(got, oracle, "chunk {chunk}: filtered rows diverge");
    }
}
