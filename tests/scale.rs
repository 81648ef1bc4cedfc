//! The 4→64-CPU scalability study's safety net: differential tests
//! between the snooping-bus and directory/MESI backends, machine-axis
//! checkpoint invalidation, and run determinism on machines larger
//! than the paper's 4D/340.

use oscar_core::{
    render_all, report_from_trace, run, run_reports, run_streaming, tracefile, ExperimentConfig,
    ReportRequest, StreamOptions,
};
use oscar_machine::{Coherence, MachineConfig};
use oscar_workloads::WorkloadKind;

/// A short scaled run: the weak-scaled workload mix on `machine`.
fn cfg(kind: WorkloadKind, machine: MachineConfig) -> ExperimentConfig {
    let mut c = ExperimentConfig::new(kind)
        .warmup(2_000_000)
        .measure(3_000_000)
        .scaled_workload(true);
    c.machine = machine;
    c
}

/// Under the bus-equivalent directory preset (one home bank, bus-equal
/// service times) the directory backend must reproduce the snooping
/// run record-for-record: same monitor trace, same kernel behaviour,
/// same interconnect occupancy. This pins the protocol logic of the
/// mesi-dir backend to the reference implementation, so any divergence
/// observed under realistic directory timings is attributable to the
/// timing model alone.
#[test]
fn bus_equivalent_directory_reproduces_snoop_run() {
    for cpus in [4u8, 8] {
        let snoop = run(&cfg(WorkloadKind::Pmake, MachineConfig::scaled(cpus)));
        let dir = run(&cfg(
            WorkloadKind::Pmake,
            MachineConfig::mesi_dir_bus_equivalent(cpus),
        ));
        assert_eq!(
            snoop.trace_records, dir.trace_records,
            "record counts must match at {cpus} CPUs"
        );
        assert_eq!(
            snoop.trace, dir.trace,
            "monitor records must be identical at {cpus} CPUs"
        );
        assert_eq!(snoop.os_stats.dispatches, dir.os_stats.dispatches);
        assert_eq!(
            snoop.interconnect.transactions,
            dir.interconnect.transactions
        );
        assert_eq!(
            snoop.interconnect.arbitration_wait,
            dir.interconnect.arbitration_wait
        );
        // Only the directory run carries directory statistics.
        assert!(snoop.interconnect.dir.is_none());
        let stats = dir.interconnect.dir.expect("dir stats under mesi-dir");
        assert!(stats.requests() > 0, "directory must have served requests");
    }
}

/// The realistic directory preset changes timing (banked homes, faster
/// occupancy, slower fills), so the interleaving — and therefore the
/// trace — may legitimately diverge from the bus. What must hold: the
/// run is deterministic, the protocol stays busy (sharing traffic
/// reaches the directory), and the report renders with the machine
/// banner naming the backend.
#[test]
fn realistic_directory_is_deterministic_and_active() {
    let config = cfg(WorkloadKind::Multpgm, MachineConfig::mesi_dir(8));
    let a = run(&config);
    let b = run(&config);
    assert_eq!(a.trace, b.trace, "mesi-dir runs must be reproducible");
    assert_eq!(a.trace_records, b.trace_records);

    let stats = a.interconnect.dir.expect("dir stats under mesi-dir");
    assert!(stats.get_s > 0, "read misses must reach the directory");
    assert!(stats.get_x > 0, "write misses must reach the directory");
    assert!(stats.invals_sent > 0, "sharing must trigger invalidations");
    assert!(stats.writebacks > 0, "dirty victims must write back");

    let (art, an) = run_streaming(&config, &StreamOptions::default());
    let report = render_all(&art, &an);
    assert!(
        report.contains("machine: 8 CPUs, mesi-dir coherence (4 directory banks)"),
        "non-default machines must be named in the report banner"
    );
}

fn scratch_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("oscar_scale_{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Every machine axis added by the scalability work — CPU count,
/// coherence backend, directory geometry — must hash into the warm-up
/// checkpoint key: a cached snapshot from one machine must never be
/// served to another.
#[test]
fn machine_axes_invalidate_warmup_checkpoints() {
    let dir = scratch_dir("axes");
    let opts = StreamOptions {
        checkpoint_dir: Some(dir.clone()),
        ..StreamOptions::default()
    };
    let run_with = |machine: MachineConfig| {
        let (art, _) = run_streaming(&cfg(WorkloadKind::Pmake, machine), &opts);
        art.checkpoint.expect("checkpoint stats when dir given")
    };

    // Cold, then warm on the same machine: the cache works at all.
    let cold = run_with(MachineConfig::scaled(8));
    assert_eq!(cold.hits, 0);
    assert!(cold.misses >= 1);
    let warm = run_with(MachineConfig::scaled(8));
    assert!(warm.hits >= 1, "identical machine must hit");
    assert_eq!(warm.misses, 0);

    // Each changed axis must key to a different entry.
    let mut shrunk_l2 = MachineConfig::scaled(8);
    shrunk_l2.l2d.size_bytes /= 2;
    let mut rebanked = MachineConfig::mesi_dir(8);
    rebanked.dir_banks = 2;
    for (label, machine) in [
        ("cpu count", MachineConfig::scaled(16)),
        ("coherence backend", MachineConfig::mesi_dir(8)),
        ("cache geometry", shrunk_l2),
        ("directory banks", rebanked),
    ] {
        let ckpt = run_with(machine);
        assert_eq!(ckpt.hits, 0, "changed {label} must not hit a stale entry");
        assert!(ckpt.misses >= 1, "changed {label} must record its miss");
    }

    std::fs::remove_dir_all(&dir).ok();
}

/// The run tag names every sweep artifact (CSV files, metric prefixes,
/// trace filenames). The paper's default machine keeps the historical
/// plain names; every other configuration is suffixed unambiguously.
#[test]
fn sweep_tags_are_stable_and_unique() {
    let plain = ExperimentConfig::new(WorkloadKind::Pmake);
    assert_eq!(plain.tag(), "pmake");

    let mut tags = std::collections::BTreeSet::new();
    for cpus in [4u8, 8, 16, 32, 64] {
        for scheme in [Coherence::Snoop, Coherence::MesiDir] {
            let mut c = ExperimentConfig::new(WorkloadKind::Pmake).scaled_workload(cpus != 4);
            c.machine = match scheme {
                Coherence::Snoop => MachineConfig::scaled(cpus),
                Coherence::MesiDir => MachineConfig::mesi_dir(cpus),
            };
            assert!(
                tags.insert(c.tag()),
                "sweep tags must be unique, got duplicate {}",
                c.tag()
            );
        }
    }
    assert!(
        tags.contains("pmake"),
        "default machine keeps the plain tag"
    );
    assert!(tags.contains("pmake-c8"));
    assert!(tags.contains("pmake-c64-dir"));
}

/// A saved trace from a non-default machine re-analyzes through the
/// same driver call `oscar-reports --from-trace` makes, and its figure
/// CSVs carry the run's tag and the live run's bytes. (`table12` is
/// left out: its lock counters come from the kernel, which a saved
/// trace does not hold.)
/// A run's CSVs but `table12`, whose lock counters come from the
/// kernel, which a saved trace does not hold.
fn figures(csv: &[(String, String)]) -> Vec<(String, String)> {
    csv.iter()
        .filter(|(name, _)| !name.ends_with("_table12.csv"))
        .cloned()
        .collect()
}

#[test]
fn offline_reanalysis_writes_the_live_figure_csvs() {
    let mut config = cfg(WorkloadKind::Multpgm, MachineConfig::scaled(8));
    config.machine.coherence = Coherence::MesiDir;
    config.machine.validate().expect("valid machine");
    let mut req = ReportRequest::new(WorkloadKind::Multpgm, 0, 0);
    req.config = config;
    req.want_csv = true;
    req.want_trace = true;
    let live = run_reports(vec![req.clone()], 1).remove(0);
    assert_eq!(live.tag, "multpgm-c8-dir");
    let (_, blob) = live.trace_blob.as_ref().expect("saved trace");
    let art = tracefile::load(&mut blob.as_slice()).expect("trace loads");

    let offline = report_from_trace(&art, &req);
    assert_eq!(offline.tag, live.tag);
    assert!(
        offline.trace_blob.is_none(),
        "a saved trace is not re-saved"
    );
    let want = figures(&live.csv);
    let names: Vec<&str> = want.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(
        names,
        [
            "multpgm-c8-dir_fig3.csv",
            "multpgm-c8-dir_fig5.csv",
            "multpgm-c8-dir_fig6.csv",
            "multpgm-c8-dir_fig8.csv",
            "multpgm-c8-dir_fig9.csv"
        ]
    );
    assert_eq!(figures(&offline.csv), want);
    let ids: Vec<&str> = offline.phases.iter().map(|p| p.id.as_str()).collect();
    assert_eq!(
        ids,
        [
            "analyze/multpgm-c8-dir",
            "layer/multpgm-c8-dir/classify",
            "layer/multpgm-c8-dir/resim",
            "render/multpgm-c8-dir"
        ]
    );
}

/// The report lines from `title` up to the next exhibit heading.
fn section<'a>(report: &'a str, title: &str) -> Vec<&'a str> {
    let mut lines = report.lines().skip_while(|l| !l.starts_with(title));
    let head = lines.next().expect("the report has the section");
    std::iter::once(head)
        .chain(lines.take_while(|l| !l.starts_with("Figure ") && !l.starts_with("Table ")))
        .collect()
}

/// A saved trace keeps the cache geometry it was recorded on
/// (`pmake 4000000 4000000 --icache-kb 16 --save-trace`): re-analyzed,
/// it gives the live run's Figure 4 and 5 and writes the live run's
/// CSV names and bytes.
#[test]
fn offline_reanalysis_keeps_the_cache_geometry() {
    let mut config = ExperimentConfig::new(WorkloadKind::Pmake)
        .warmup(4_000_000)
        .measure(4_000_000);
    config.machine.icache.size_bytes = 16 * 1024;
    let mut req = ReportRequest::new(WorkloadKind::Pmake, 0, 0);
    req.config = config;
    req.want_csv = true;
    req.want_trace = true;
    let live = run_reports(vec![req.clone()], 1).remove(0);
    assert_eq!(live.tag, "pmake-c4");
    let (_, blob) = live.trace_blob.as_ref().expect("saved trace");
    let art = tracefile::load(&mut blob.as_slice()).expect("trace loads");
    assert_eq!(art.machine_config, req.config.machine);

    let offline = report_from_trace(&art, &req);
    assert_eq!(offline.tag, live.tag);
    for title in ["Figure 4 ", "Figure 5 "] {
        assert_eq!(
            section(&offline.report, title),
            section(&live.report, title),
            "{title}"
        );
    }
    let want = figures(&live.csv);
    assert!(want.iter().all(|(name, _)| name.starts_with("pmake-c4_")));
    assert_eq!(figures(&offline.csv), want);
}
