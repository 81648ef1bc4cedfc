//! Integration tests for the trace query engine, exhibit provenance
//! and the diff gate: record filters must agree with a hand count over
//! a materialized replay,
//! provenance cells must sum to the aggregate analysis, everything
//! must be byte-identical across `--jobs`, and edge cases (empty
//! windows, zero-match queries) must stay well-formed.

use oscar_core::driver::{run_reports, ReportRequest};
use oscar_core::observe::{merge_provenance_json, provenance_metrics};
use oscar_core::pipeline::{run_streaming, StreamOptions};
use oscar_core::query::{compile, run_query};
use oscar_core::{parallel_map, render_all, ExperimentConfig};
use oscar_machine::{BusKind, MachineConfig};
use oscar_obs::query::QuerySpec;
use oscar_obs::{diff_documents, Tolerance};
use oscar_workloads::WorkloadKind;

fn small(kind: WorkloadKind) -> ExperimentConfig {
    ExperimentConfig::new(kind)
        .warmup(2_000_000)
        .measure(2_500_000)
}

fn spec(source: &str, wheres: &[&str], by: Option<&str>, agg: Option<&str>) -> QuerySpec {
    let ws: Vec<String> = wheres.iter().map(|s| s.to_string()).collect();
    QuerySpec::parse(source, &ws, by, agg, None).expect("spec parses")
}

#[test]
fn unfiltered_query_matches_every_record() {
    let config = small(WorkloadKind::Pmake);
    let q = run_query(&config, &spec("records", &[], Some("kind"), None)).unwrap();
    assert_eq!(
        q.table.matched(),
        q.trace_records,
        "rows must be 1:1 with monitor records"
    );
    assert!(q.table.len() >= 4, "reads, read-ex, writebacks, escapes");
}

/// The raw-field filters (`cpu`, `kind`, `addr`, `time`, as value
/// lists and ranges) admit exactly the records a hand count over the
/// materialized trace admits.
#[test]
fn pushdown_agrees_with_materialized_trace() {
    let config = small(WorkloadKind::Pmake);
    // Reference: materialize the trace and count by hand.
    let opts = StreamOptions {
        keep_trace: true,
        ..StreamOptions::default()
    };
    let (art, _an) = run_streaming(&config, &opts);
    type Keep = fn(u8, BusKind, u64, u64) -> bool;
    let cases: [(&[&str], Keep); 2] = [
        (&["cpu=1", "time=500000..1500000"], |cpu, _, _, t| {
            cpu == 1 && (500_000..=1_500_000).contains(&t)
        }),
        (
            &[
                "cpu=0,2",
                "kind=read,writeback",
                "addr=0x100000..0x600000",
                "time=100000..2000000",
            ],
            |cpu, kind, addr, t| {
                (cpu == 0 || cpu == 2)
                    && matches!(kind, BusKind::Read | BusKind::WriteBack)
                    && (0x10_0000..=0x60_0000).contains(&addr)
                    && (100_000..=2_000_000).contains(&t)
            },
        ),
    ];
    for (wheres, keep) in cases {
        let expected = art
            .trace
            .iter()
            .filter(|r| {
                // The analyzer rebases with saturating_sub; mirror it so
                // boundary records land in the same bucket.
                let t = r.time.saturating_sub(art.measure_start);
                keep(r.cpu.0, r.kind, r.paddr.raw(), t)
            })
            .count() as u64;
        let q = run_query(&config, &spec("records", wheres, None, None)).unwrap();
        assert_eq!(q.table.matched(), expected, "{wheres:?}: filter drops rows");
        assert!(
            expected > 0,
            "{wheres:?}: window must not be trivially empty"
        );
    }
}

/// CPUs 32-63 filter like any other: on a 64-CPU machine the full
/// range keeps every row and every CPU's group, and a high CPU alone
/// keeps its own rows.
#[test]
fn cpu_filter_covers_all_64_cpus() {
    let mut config = ExperimentConfig::new(WorkloadKind::Oracle)
        .warmup(300_000)
        .measure(300_000)
        .scaled_workload(true);
    config.machine = MachineConfig::mesi_dir(64);
    let all = run_query(&config, &spec("records", &[], Some("cpu"), None)).unwrap();
    assert_eq!(all.table.len(), 64, "every CPU issues records");
    let full = run_query(&config, &spec("records", &["cpu=0..63"], Some("cpu"), None)).unwrap();
    assert_eq!(full.table.matched(), all.table.matched());
    assert_eq!(full.table.len(), 64);
    assert_eq!(full.table.to_json(), all.table.to_json());
    let high = run_query(&config, &spec("records", &["cpu=40"], Some("cpu"), None)).unwrap();
    assert!(high.table.matched() > 0);
    assert!(high.table.to_json().contains("\"cpu40\""));
}

#[test]
fn query_outputs_are_identical_across_jobs() {
    let configs: Vec<ExperimentConfig> = [WorkloadKind::Pmake, WorkloadKind::Multpgm]
        .iter()
        .map(|&k| small(k))
        .collect();
    let s = spec(
        "records",
        &["mode=os"],
        Some("cpu,class"),
        Some("hist:time"),
    );
    let compiled = compile(&s).unwrap();
    let render = |jobs: usize| -> Vec<String> {
        parallel_map(configs.clone(), jobs, |_, c| {
            oscar_core::query::run_compiled(&c, &compiled)
                .unwrap()
                .table
                .to_json()
        })
    };
    assert_eq!(render(1), render(4), "query JSON must not depend on jobs");
}

#[test]
fn zero_match_query_renders_valid_empty_table() {
    let config = small(WorkloadKind::Pmake);
    // CPU 31 does not exist on the 4-CPU default machine.
    let q = run_query(&config, &spec("records", &["cpu=31"], Some("kind"), None)).unwrap();
    assert_eq!(q.table.matched(), 0);
    assert!(q.table.is_empty());
    let j = q.table.to_json();
    assert!(j.contains("\"matched\": 0"));
    assert_eq!(j.matches('{').count(), j.matches('}').count());
}

#[test]
fn locks_query_counts_probe_spans() {
    let config = small(WorkloadKind::Pmake);
    let q = run_query(
        &config,
        &spec("locks", &[], Some("family,phase"), Some("sum:dur")),
    )
    .unwrap();
    assert!(q.table.matched() > 0, "short Pmake still takes locks");
    // Every span is a spin or a hold of a known family.
    let j = q.table.to_json();
    assert!(j.contains("hold"), "hold spans must appear: {j}");
}

#[test]
fn provenance_never_changes_report_bytes_and_sums_to_aggregates() {
    let config = small(WorkloadKind::Pmake);
    let (art_off, an_off) = run_streaming(&config, &StreamOptions::default());
    let (art_on, an_on) = run_streaming(
        &config,
        &StreamOptions {
            provenance: true,
            observe: true,
            ..StreamOptions::default()
        },
    );
    assert_eq!(
        render_all(&art_off, &an_off),
        render_all(&art_on, &an_on),
        "provenance must be invisible to the report"
    );

    let p = an_on.provenance.as_deref().expect("provenance collected");
    // Classification cells sum to the aggregate mode/unit counts.
    let label_idx = |want: &str| {
        oscar_core::ExhibitProvenance::CLASS_LABELS
            .iter()
            .position(|&l| l == want)
            .unwrap()
    };
    for (mi, agg) in [&an_on.os, &an_on.app, &an_on.idle].iter().enumerate() {
        for (ui, id) in [&agg.instr, &agg.data].iter().enumerate() {
            let cell_sum = |ci: usize| -> u64 { p.classify.iter().map(|c| c[mi][ui][ci]).sum() };
            assert_eq!(cell_sum(label_idx("cold")), id.cold);
            assert_eq!(cell_sum(label_idx("disp_os")), id.disp_os);
            assert_eq!(cell_sum(label_idx("disp_os_same")), id.disp_os_same);
            assert_eq!(cell_sum(label_idx("disp_ap")), id.disp_ap);
            assert_eq!(cell_sum(label_idx("sharing")), id.sharing);
            assert_eq!(cell_sum(label_idx("inval")), id.inval);
        }
    }
    // Figure 9 cells sum to the aggregate per-op OS miss counts.
    for (oi, &(instr, data)) in an_on.os_by_op.iter().enumerate() {
        let i: u64 = p.os_by_op.iter().map(|ops| ops[oi][0]).sum();
        let d: u64 = p.os_by_op.iter().map(|ops| ops[oi][1]).sum();
        assert_eq!((i, d), (instr, data), "fig9 op {oi} must sum");
    }
    // Figure 8 cells sum to the aggregate per-source sharing counts.
    for (&source, &n) in &an_on.sharing_by_source {
        let by_cpu: u64 = p
            .sharing_by_source
            .iter()
            .filter(|((s, _), _)| *s == source)
            .map(|(_, &v)| v)
            .sum();
        assert_eq!(by_cpu, n, "fig8 {} must sum", source.label());
    }
    // Sweep splits sum to the published resim points.
    let fig6 = an_on.fig6.as_ref().expect("online sweeps ran");
    assert_eq!(p.fig6_per_cpu.len(), fig6.len());
    for (per_cpu, pt) in p.fig6_per_cpu.iter().zip(fig6) {
        let os: u64 = per_cpu.iter().map(|&(o, _)| o).sum();
        let inval: u64 = per_cpu.iter().map(|&(_, i)| i).sum();
        assert_eq!((os, inval), (pt.os_misses, pt.os_inval_misses));
    }
    let dcache = an_on.dcache.as_ref().expect("online sweeps ran");
    for (per_cpu, pt) in p.dcache_per_cpu.iter().zip(dcache) {
        let os: u64 = per_cpu.iter().map(|&(o, _)| o).sum();
        let sharing: u64 = per_cpu.iter().map(|&(_, s)| s).sum();
        assert_eq!((os, sharing), (pt.os_misses, pt.os_sharing_misses));
    }
    // And the flattened export carries the sync tables from the probes.
    let m = provenance_metrics(&an_on, art_on.obs.as_deref());
    let json = m.to_json();
    assert!(json.contains("exhibit.classify."));
    assert!(json.contains("exhibit.sync."));
}

#[test]
fn provenance_export_is_identical_across_jobs() {
    let reqs: Vec<ReportRequest> = [WorkloadKind::Pmake, WorkloadKind::Multpgm]
        .iter()
        .map(|&k| ReportRequest {
            want_provenance: true,
            ..ReportRequest::new(k, 2_500_000, 2_000_000)
        })
        .collect();
    let serial = merge_provenance_json(&run_reports(reqs.clone(), 1));
    let fanned = merge_provenance_json(&run_reports(reqs, 4));
    assert_eq!(serial, fanned, "provenance JSON must not depend on jobs");
    assert!(serial.contains("pmake.exhibit."));
    assert!(serial.contains("multpgm.exhibit."));
}

#[test]
fn diff_of_identical_seed_runs_is_clean() {
    let req = || {
        vec![ReportRequest {
            want_provenance: true,
            ..ReportRequest::new(WorkloadKind::Pmake, 2_500_000, 2_000_000)
        }]
    };
    let a = merge_provenance_json(&run_reports(req(), 1));
    let b = merge_provenance_json(&run_reports(req(), 2));
    let report = diff_documents(&a, &b, &[]).unwrap();
    assert!(report.is_clean(), "identical runs must show zero delta");
    assert!(report.compared > 100, "the export must not be trivial");

    // A doctored value must trip the gate, and a tolerance must
    // forgive it.
    let doctored = a.replacen("\"value\": 0", "\"value\": 1", 1);
    assert_ne!(a, doctored, "export must contain a zero cell to doctor");
    let tripped = diff_documents(&a, &doctored, &[]).unwrap();
    assert_eq!(tripped.drifted(), 1);
    let forgiven = diff_documents(
        &a,
        &doctored,
        &[Tolerance {
            prefix: String::new(),
            rel: 0.0,
            abs: 1.0,
        }],
    )
    .unwrap();
    assert!(forgiven.is_clean());
}

#[test]
fn probes_enabled_with_degenerate_window_stay_well_formed() {
    // A zero-cycle measured window: only the end-of-window flush
    // records survive, and every probe sees (nearly) nothing.
    let config = ExperimentConfig::new(WorkloadKind::Pmake)
        .warmup(1_000_000)
        .measure(0);
    let (art, an) = run_streaming(
        &config,
        &StreamOptions {
            observe: true,
            provenance: true,
            ..StreamOptions::default()
        },
    );
    assert!(
        art.trace_records < 100,
        "a zero-cycle window must be near-empty, got {}",
        art.trace_records
    );
    let m = provenance_metrics(&an, art.obs.as_deref());
    let json = m.to_json();
    assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
    // All classification cells still exist, mostly zero.
    assert!(json.contains("exhibit.classify."));

    // The query engine stays consistent with the trace even here, and
    // a filter that can match nothing renders a valid empty table.
    let q = run_query(&config, &spec("records", &[], Some("kind"), None)).unwrap();
    assert_eq!(q.table.matched(), art.trace_records);
    let none = run_query(&config, &spec("records", &["cpu=31"], None, None)).unwrap();
    assert_eq!(none.table.matched(), 0);
    assert!(none.table.to_json().contains("\"matched\": 0"));
}
