//! Integration tests for hot-line contention attribution: every
//! tracked block must resolve to a named kernel symbol, stock
//! workloads must exhibit (and the tracker must flag) genuine false
//! sharing, the `--hotlines-out` export must be byte-identical across
//! `--jobs`, and enabling attribution
//! must never change a pre-existing export byte.

use oscar_core::driver::{run_reports, ReportRequest};
use oscar_core::observe::{merge_hotlines_json, merge_metrics_json, merge_trace_json};
use oscar_core::pipeline::{run_streaming, StreamOptions};
use oscar_core::ExperimentConfig;
use oscar_obs::{diff_documents, DiffKind};
use oscar_workloads::WorkloadKind;

fn small(kind: WorkloadKind) -> ExperimentConfig {
    ExperimentConfig::new(kind)
        .warmup(2_000_000)
        .measure(3_000_000)
}

fn hot_opts() -> StreamOptions {
    StreamOptions {
        hotlines: true,
        hotlines_top: usize::MAX,
        ..StreamOptions::default()
    }
}

#[test]
fn every_tracked_block_resolves_to_a_named_symbol() {
    for kind in [WorkloadKind::Pmake, WorkloadKind::Multpgm] {
        let (_, an) = run_streaming(&small(kind), &hot_opts());
        let h = an.hotlines.as_deref().expect("hotlines analysis");
        assert!(h.blocks_seen > 0, "{kind}: no blocks tracked");
        assert!(h.blocks_shared > 0, "{kind}: no shared blocks");
        assert!(!h.top.is_empty(), "{kind}: empty top list");
        assert_eq!(h.top.len() as u64, h.blocks_shared, "top uncapped");
        for r in &h.top {
            assert!(!r.symbol.is_empty(), "unnamed block 0x{:x}", r.paddr);
            assert!(
                !r.symbol.starts_with("escape:"),
                "0x{:x} fell through the layout: {}",
                r.paddr,
                r.symbol
            );
            assert!(r.sharers >= 2, "{}: promoted with <2 sharers", r.symbol);
            assert!(r.score > 0, "{}: zero score", r.symbol);
            let readers = r.read_cpus.count_ones();
            let writers = r.write_cpus.count_ones();
            assert!(
                readers + writers >= r.sharers,
                "{}: sharer sets inconsistent",
                r.symbol
            );
        }
        // Ranking is by descending score (ties by address).
        for w in h.top.windows(2) {
            assert!(w[0].score >= w[1].score, "top list not sorted by score");
        }
    }
}

#[test]
fn stock_workloads_exhibit_flagged_false_sharing() {
    let (_, an) = run_streaming(&small(WorkloadKind::Pmake), &hot_opts());
    let h = an.hotlines.as_deref().expect("hotlines analysis");
    let fs: Vec<_> = h.top.iter().filter(|r| r.false_sharing).collect();
    assert_eq!(fs.len() as u64, h.false_sharing_lines);
    assert!(
        !fs.is_empty(),
        "pmake must exhibit at least one false-sharing line"
    );
    for r in &fs {
        // The verdict's preconditions: a writer, 2+ participants, and
        // the per-CPU footprints genuinely disjoint (no true sharing).
        assert!(
            r.write_cpus != 0,
            "{}: false sharing needs a writer",
            r.symbol
        );
        assert!(r.sharers >= 2, "{}: false sharing needs 2+ CPUs", r.symbol);
    }
}

fn hot_req(kind: WorkloadKind) -> ReportRequest {
    ReportRequest {
        config: small(kind),
        want_obs: true,
        want_hotlines: true,
        ..ReportRequest::new(kind, 0, 0)
    }
}

#[test]
fn hotlines_export_is_identical_across_jobs() {
    let kinds = [WorkloadKind::Pmake, WorkloadKind::Multpgm];
    let reqs: Vec<ReportRequest> = kinds.iter().map(|&k| hot_req(k)).collect();
    let serial = run_reports(reqs.clone(), 1);
    let fanned = run_reports(reqs, 4);
    let json = merge_hotlines_json(&serial);
    assert_eq!(
        json,
        merge_hotlines_json(&fanned),
        "hotlines JSON must not depend on --jobs"
    );
    assert!(json.contains("\"pmake\""));
    assert!(json.contains("\"false_sharing\""));
}

#[test]
fn enabling_hotlines_only_adds_to_existing_exports() {
    let kind = WorkloadKind::Pmake;
    let off = run_reports(
        vec![ReportRequest {
            config: small(kind),
            want_obs: true,
            ..ReportRequest::new(kind, 0, 0)
        }],
        1,
    );
    let on = run_reports(vec![hot_req(kind)], 1);

    // The report gains exactly the "most actively shared data"
    // section: strip the hotlines analysis and the bytes must match.
    assert!(on[0].report.contains("Most actively shared data"));
    assert!(!off[0].report.contains("Most actively shared data"));

    // Metrics and timeline only gain keys — nothing pre-existing may
    // change value or vanish.
    let d = diff_documents(&merge_metrics_json(&off), &merge_metrics_json(&on), &[])
        .expect("both exports parse");
    assert!(!d.entries.is_empty(), "hotlines must add exhibit metrics");
    for e in &d.entries {
        assert_eq!(
            e.kind,
            DiffKind::Added,
            "{}: pre-existing metric changed under hotlines",
            e.key
        );
        assert!(e.key.contains("hotline"), "unexpected new key {}", e.key);
    }
    let t_on = merge_trace_json(&on);
    assert!(t_on.contains("hotline "), "timeline gains hotline tracks");
}
