//! Integration tests for the causal synchronization profiler: the
//! five-bucket segment decomposition must tile the measured window
//! exactly, the critical path must respect its bounds (≤ wall cycles,
//! ≥ the busiest CPU), a 1.0× what-if speedup must predict zero
//! change, and the `--causal-out` export must be byte-identical
//! across `--jobs`. Finally, enabling
//! the profiler must never change a pre-existing export byte.

use oscar_core::driver::{run_reports, ReportRequest};
use oscar_core::observe::{merge_metrics_json, merge_trace_json};
use oscar_core::{
    causal_for_run, merge_causal_json, run_streaming, ExperimentConfig, StreamOptions,
};
use oscar_workloads::WorkloadKind;

fn small(kind: WorkloadKind) -> ExperimentConfig {
    ExperimentConfig::new(kind)
        .warmup(2_000_000)
        .measure(3_000_000)
}

fn causal_req(kind: WorkloadKind) -> ReportRequest {
    ReportRequest {
        config: small(kind),
        want_obs: true,
        want_causal: true,
        want_hotlines: true,
        ..ReportRequest::new(kind, 0, 0)
    }
}

#[test]
fn segments_tile_the_window_and_path_is_bounded() {
    for kind in [
        WorkloadKind::Pmake,
        WorkloadKind::Multpgm,
        WorkloadKind::Oracle,
    ] {
        let (art, an) = run_streaming(
            &small(kind),
            &StreamOptions {
                observe: true,
                ..StreamOptions::default()
            },
        );
        let obs = art.obs.as_deref().expect("observed run");
        let a = causal_for_run(&art, &an, obs);

        // Every CPU's compute + mem_stall + spin + hold + idle must sum
        // exactly to the measured window — no cycle lost or counted
        // twice.
        let window = art.measure_end - art.measure_start;
        assert_eq!(a.window_cycles, window, "{kind}: window mismatch");
        assert_eq!(
            a.segments.len(),
            art.machine_config.num_cpus as usize,
            "{kind}: one segment row per CPU"
        );
        for s in &a.segments {
            assert_eq!(
                s.total(),
                window,
                "{kind}: cpu{} buckets must tile the window",
                s.cpu
            );
        }

        // The critical path covers every instant at least one CPU is
        // busy, so it is bounded by the wall clock from above and by
        // the busiest single CPU from below.
        let cp = &a.critical_path;
        let max_busy = a.segments.iter().map(|s| s.busy()).max().unwrap_or(0);
        assert!(cp.cycles <= a.wall_cycles, "{kind}: path exceeds wall");
        assert!(
            cp.cycles >= max_busy,
            "{kind}: path {} shorter than busiest CPU {max_busy}",
            cp.cycles
        );
        assert_eq!(
            cp.cycles,
            cp.compute_cycles + cp.spin_cycles + cp.hold_cycles,
            "{kind}: path attribution must decompose exactly"
        );

        // A 1.0x speedup changes nothing: the what-if replay of the
        // unmodified schedule must land exactly on the observed wall.
        for wc in &a.what_if {
            let p0 = wc
                .points
                .iter()
                .find(|p| p.factor == 1.0)
                .expect("curves include the identity factor");
            assert_eq!(
                p0.predicted_wall_cycles, a.wall_cycles,
                "{kind}: identity what-if must predict the observed wall for {}",
                a.locks[wc.lock as usize]
            );
            assert_eq!(p0.delta_pct, 0.0, "{kind}: identity delta must be zero");
        }
    }
}

#[test]
fn causal_export_is_identical_across_jobs() {
    let kinds = [WorkloadKind::Pmake, WorkloadKind::Multpgm];
    let reqs = || -> Vec<ReportRequest> { kinds.iter().map(|&k| causal_req(k)).collect() };

    let serial = run_reports(reqs(), 1);
    let fanned = run_reports(reqs(), 4);

    let doc = merge_causal_json(&serial);
    assert_eq!(
        doc,
        merge_causal_json(&fanned),
        "--causal-out must not depend on --jobs"
    );
    for k in kinds {
        assert!(doc.contains(&format!("\"{k}\"").to_lowercase()));
    }
    assert!(doc.contains("\"critical_path\""));
    assert!(doc.contains("\"what_if\""));
    assert!(doc.contains("\"chains\""));

    // The reports grew exactly the "Critical path" section, and the
    // metrics export the exhibit.causal.* namespace with p50/p90/p99
    // histogram summaries.
    for out in &serial {
        assert!(out.report.contains("Critical path"));
    }
    let metrics = merge_metrics_json(&serial);
    assert!(metrics.contains("exhibit.causal.critical_path_cycles"));
    assert!(metrics.contains("exhibit.causal.chain_depth.p99"));
    assert!(metrics.contains("exhibit.causal.block_cycles.p50"));
}

#[test]
fn enabling_causal_never_changes_preexisting_exports() {
    let kind = WorkloadKind::Pmake;
    let off = run_reports(
        vec![ReportRequest {
            config: small(kind),
            want_obs: true,
            ..ReportRequest::new(kind, 0, 0)
        }],
        1,
    );
    let on = run_reports(
        vec![ReportRequest {
            config: small(kind),
            want_obs: true,
            want_causal: true,
            ..ReportRequest::new(kind, 0, 0)
        }],
        1,
    );

    // The report gains exactly the "Critical path" section; everything
    // before it is byte-identical.
    assert!(on[0].report.contains("Critical path"));
    assert!(!off[0].report.contains("Critical path"));
    let base = on[0]
        .report
        .split("Critical path")
        .next()
        .expect("section present");
    assert_eq!(off[0].report.trim_end(), base.trim_end());

    // The metrics export gains only exhibit.causal.* keys, and the
    // timeline gains only flow events: stripping both must recover the
    // causal-off bytes.
    let off_metrics = merge_metrics_json(&off);
    let on_metrics = merge_metrics_json(&on);
    for line in on_metrics.lines().filter(|l| l.contains("\"pmake.")) {
        if !line.contains("pmake.exhibit.causal.") {
            assert!(
                off_metrics.contains(line.trim_end_matches(',')),
                "unexpected metrics drift: {line}"
            );
        }
    }
    for line in off_metrics.lines() {
        assert!(
            on_metrics.contains(line.trim_end_matches(',')),
            "causal run lost a metric: {line}"
        );
    }
    let off_trace = merge_trace_json(&off);
    let on_trace = merge_trace_json(&on);
    assert!(on_trace.contains("\"ph\":\"s\""), "flow arrows expected");
    assert!(!off_trace.contains("\"ph\":\"s\""));
}
