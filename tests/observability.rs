//! Integration tests for the observability layer: enabling it must
//! never change a report byte, and the exports themselves must be
//! byte-identical whatever `--jobs` the driver ran with.

use oscar_core::driver::{report_from_trace, run_reports, ReportRequest};
use oscar_core::observe::{merge_metrics_json, merge_trace_json, TimelineBuilder};
use oscar_core::pipeline::{run_streaming, StreamOptions};
use oscar_core::{render_all, ExperimentConfig};
use oscar_obs::MetricValue;
use oscar_workloads::WorkloadKind;

fn small(kind: WorkloadKind) -> ExperimentConfig {
    ExperimentConfig::new(kind)
        .warmup(2_000_000)
        .measure(2_500_000)
}

#[test]
fn observability_never_changes_report_bytes() {
    let config = small(WorkloadKind::Pmake);
    let (art_off, an_off) = run_streaming(&config, &StreamOptions::default());
    let (art_on, an_on) = run_streaming(
        &config,
        &StreamOptions {
            observe: true,
            ..StreamOptions::default()
        },
    );
    assert!(art_off.obs.is_none());
    assert!(art_on.obs.is_some());
    assert_eq!(
        render_all(&art_off, &an_off),
        render_all(&art_on, &an_on),
        "probes and the timeline decoder must be invisible to the report"
    );
}

#[test]
fn obs_payload_covers_every_layer() {
    let config = small(WorkloadKind::Pmake);
    let (art, an) = run_streaming(
        &config,
        &StreamOptions {
            observe: true,
            ..StreamOptions::default()
        },
    );
    let obs = art.obs.as_ref().expect("obs payload");

    // Timeline: mode spans for every CPU, OS-op segments, lock
    // intervals, bus-occupancy samples.
    let spans = obs.timeline.spans();
    let cpus = art.machine_config.num_cpus as usize;
    for c in 0..cpus {
        let tid = c as u32 * 3;
        assert!(
            spans.iter().any(|s| s.tid == tid && s.cat == "mode"),
            "cpu{c} must have a mode track"
        );
    }
    assert!(spans.iter().any(|s| s.cat == "os-op"));
    assert!(spans.iter().any(|s| s.cat == "lock-hold"));
    assert!(!obs.timeline.counter_samples().is_empty(), "bus track");

    // Metrics: every subsystem contributed, and cross-checkable
    // numbers agree with the analyzer and the artifacts.
    let m = &obs.metrics;
    assert_eq!(m.counter("trace.records"), art.trace_records);
    assert_eq!(m.counter("analyze.window_cycles"), an.window_cycles);
    assert_eq!(m.counter("analyze.escapes"), an.escapes);
    assert_eq!(m.counter("pipeline.records"), art.trace_records);
    assert!(m.counter("kernel.kop.ifetch") > 0);
    assert!(m.counter("sched.enqueues") > 0);
    assert!(m.counter("lock.Runqlk.acquires") > 0);
    assert!(matches!(
        m.get("lock.Runqlk.hold_hist"),
        Some(MetricValue::Hist(h)) if h.count() > 0
    ));
    assert!(!obs.lock_profiles.is_empty());

    // The kernel's own escape count matches what the decoder saw on
    // the bus (both count emitted events).
    assert_eq!(
        m.counter("kernel.escape.pid-change"),
        m.counter("trace.event.pid-change"),
        "kernel-side and bus-side event counts must agree"
    );
}

#[test]
fn exports_are_byte_identical_across_jobs() {
    let reqs: Vec<ReportRequest> = [WorkloadKind::Pmake, WorkloadKind::Multpgm]
        .iter()
        .map(|&k| ReportRequest {
            config: small(k),
            want_csv: false,
            want_trace: false,
            want_obs: true,
            want_provenance: false,
            want_hotlines: false,
            want_causal: false,
            hotlines_top: 50,
            checkpoint_dir: None,
            stage_stats: false,
        })
        .collect();

    let serial = run_reports(reqs.clone(), 1);
    let fanned = run_reports(reqs, 4);

    assert_eq!(
        merge_trace_json(&serial),
        merge_trace_json(&fanned),
        "trace-event JSON must not depend on --jobs"
    );
    assert_eq!(
        merge_metrics_json(&serial),
        merge_metrics_json(&fanned),
        "metrics JSON must not depend on --jobs"
    );
    // Reports stay byte-identical with observability on, too.
    for (a, b) in serial.iter().zip(&fanned) {
        assert_eq!(a.report, b.report);
    }
    // Multi-workload merging kept both runs distinguishable.
    let metrics = merge_metrics_json(&serial);
    assert!(metrics.contains("\"pmake.trace.records\""));
    assert!(metrics.contains("\"multpgm.trace.records\""));
    let trace = merge_trace_json(&serial);
    assert!(trace.contains("pmake cpus"));
    assert!(trace.contains("multpgm cpus"));
}

/// The live timeline reads the analyzer's decode of the blocks the
/// pipeline hands it, and `--from-trace` attaches it to the re-analysis
/// pass the same way. Both must equal what the builder's own decoder
/// rebuilds record by record from the run's kept trace: the `trace.*`
/// metrics, the per-CPU fills, the mode and OS-operation tracks and the
/// bus counter. A block dropped, fed twice or counted in part changes
/// them.
#[test]
fn live_timeline_matches_rebuild_from_kept_trace() {
    let config = small(WorkloadKind::Multpgm);
    let (art, _) = run_streaming(
        &config,
        &StreamOptions {
            observe: true,
            keep_trace: true,
            chunk_records: 777, // ragged block boundaries
            ..StreamOptions::default()
        },
    );
    assert!(!art.trace.is_empty());
    let offline = report_from_trace(
        &art,
        &ReportRequest {
            want_obs: true,
            ..ReportRequest::new(WorkloadKind::Multpgm, 0, 0)
        },
    );

    let mut b = TimelineBuilder::new(art.machine_config.num_cpus as usize, art.measure_start);
    b.push_chunk(&art.trace);
    let (timeline, metrics, fills) = b.finish(art.measure_end);

    let trace_keys = |m: &oscar_obs::Metrics| -> Vec<(String, String)> {
        m.iter()
            .filter(|(k, _)| k.starts_with("trace."))
            .map(|(k, v)| (k.to_string(), format!("{v:?}")))
            .collect()
    };
    let tracks = |t: &oscar_obs::Timeline| -> Vec<oscar_obs::timeline::Span> {
        t.spans()
            .iter()
            .filter(|s| s.cat == "mode" || s.cat == "os-op")
            .cloned()
            .collect()
    };
    let bus = |t: &oscar_obs::Timeline| -> Vec<oscar_obs::timeline::CounterSample> {
        t.counter_samples()
            .iter()
            .filter(|c| c.name == "bus")
            .cloned()
            .collect()
    };
    assert!(
        trace_keys(&metrics).len() > 5,
        "the rebuild exports trace.* metrics"
    );
    assert!(
        tracks(&timeline).iter().any(|s| s.cat == "os-op"),
        "os-op segments"
    );
    assert!(
        metrics.counter("trace.records.writeback") > 0,
        "the window has write-backs"
    );
    for (leg, obs) in [
        ("live", art.obs.as_deref()),
        ("offline", offline.obs.as_deref()),
    ] {
        let obs = obs.unwrap_or_else(|| panic!("{leg}: obs payload"));
        assert_eq!(obs.cpu_fills, fills, "{leg}: per-CPU fills");
        assert_eq!(
            trace_keys(&obs.metrics),
            trace_keys(&metrics),
            "{leg}: trace.* metrics"
        );
        assert_eq!(
            obs.metrics.counter("trace.records"),
            art.trace.len() as u64,
            "{leg}: trace.records"
        );
        assert_eq!(
            tracks(&obs.timeline),
            tracks(&timeline),
            "{leg}: mode and os-op tracks"
        );
        assert_eq!(
            bus(&obs.timeline),
            bus(&timeline),
            "{leg}: bus counter track"
        );
    }
}
