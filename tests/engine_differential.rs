//! The batched run engine (`OsWorld::run_until`) against the reference
//! loop that steps the earliest CPU one micro-op at a time
//! (`OsWorld::step_earliest`). Both drive identical prepared runs
//! through a warm-up and a monitored window; every trace record, the
//! kernel's ground-truth statistics, the per-CPU counters, the lock
//! statistics, the TLB contents, the interconnect counters, the clocks
//! and the whole-state snapshot bytes must come out identical, and the
//! engine's shared plus private steps must equal the reference's steps.

use oscar_core::{run_reports, ExperimentConfig, PreparedRun, ReportRequest};
use oscar_machine::addr::CpuId;
use oscar_machine::snap::{SnapReader, SnapWriter};
use oscar_machine::{Coherence, MachineConfig};
use oscar_os::{EngineStats, StepClass};
use oscar_workloads::WorkloadKind;

/// Runs the reference loop until every clock passes `horizon`;
/// returns the steps taken.
fn reference_until(prep: &mut PreparedRun, horizon: u64) -> u64 {
    let mut steps = 0;
    loop {
        let cpu = prep.machine.earliest_cpu();
        if prep.machine.now(cpu) >= horizon {
            return steps;
        }
        steps += 1;
        if !prep.os.step_earliest(&mut prep.machine) {
            return steps;
        }
    }
}

/// Runs the engine through `horizons` in turn; returns its counts.
fn engine_until(prep: &mut PreparedRun, horizons: &[u64]) -> EngineStats {
    let before = prep.os.engine_stats();
    for &h in horizons {
        prep.os.run_until(&mut prep.machine, h);
    }
    prep.os.engine_stats().since(&before)
}

/// How the engine side reaches the end of the window.
#[derive(Clone, Copy)]
enum Drive {
    /// One `run_until` per phase.
    Straight,
    /// The window split into `n` uneven chained horizons.
    Chained(u64),
    /// Snapshot and restore halfway through the window.
    Restored,
}

/// The end of the warm-up: the latest CPU clock (what
/// `PreparedRun::warmup` reports as the window start).
fn window_start(prep: &PreparedRun) -> u64 {
    (0..prep.machine.num_cpus())
        .map(|c| prep.machine.now(CpuId(c)))
        .max()
        .unwrap_or(0)
}

/// Arms the monitor at the window start and, with `probes`, the
/// kernel probes.
fn arm(prep: &mut PreparedRun, probes: bool) {
    prep.machine.monitor_mut().set_enabled(true);
    prep.os.emit_trace_start(&mut prep.machine);
    if probes {
        let start = window_start(prep);
        prep.os.enable_obs(start);
    }
}

fn fingerprint(prep: &PreparedRun) -> Vec<u8> {
    let mut w = SnapWriter::new();
    prep.save_snapshot(&mut w);
    w.into_bytes()
}

/// Every observable of a finished side, rendered for comparison.
fn observables(prep: &PreparedRun) -> Vec<String> {
    let m = &prep.machine;
    let mut out = vec![format!("{:?}", prep.os.stats())];
    for c in 0..m.num_cpus() {
        let cpu = CpuId(c);
        out.push(format!(
            "cpu{c}: now {} {:?} tlb {:?} {:?}",
            m.now(cpu),
            m.counters(cpu),
            m.tlb(cpu).stats(),
            m.tlb(cpu).snapshot()
        ));
    }
    out.push(format!(
        "{:?}",
        prep.os.locks().iter_stats().collect::<Vec<_>>()
    ));
    out.push(format!("{:?}", m.interconnect()));
    out
}

/// Drives both sides through the configuration's warm-up and window and
/// asserts they agree on everything. Returns the engine's counts.
fn differential(config: &ExperimentConfig, drive: Drive) -> EngineStats {
    differential_with(config, drive, false)
}

/// [`differential`], with the kernel probes on over the window when
/// `probes` is set: their counters, run-queue and lock profiles must
/// agree too.
fn differential_with(config: &ExperimentConfig, drive: Drive, probes: bool) -> EngineStats {
    let mut reference = PreparedRun::new(config, config.build_workload());
    let mut engine = PreparedRun::new(config, config.build_workload());

    let ref_warm = reference_until(&mut reference, config.warmup_cycles);
    let mut stats = engine_until(&mut engine, &[config.warmup_cycles]);
    assert_eq!(stats.total_steps(), ref_warm, "warm-up step count");
    let start = window_start(&reference);
    assert_eq!(
        window_start(&engine),
        start,
        "warm-up ends at the same cycle"
    );

    arm(&mut reference, probes);
    arm(&mut engine, probes);
    let end = start + config.measure_cycles;
    let ref_steps = reference_until(&mut reference, end);
    let window = match drive {
        Drive::Straight => engine_until(&mut engine, &[end]),
        Drive::Chained(n) => {
            // Uneven pieces, so horizons fall mid-run at odd cycles.
            let horizons: Vec<u64> = (1..=n)
                .map(|k| start + config.measure_cycles * k * k / (n * n) + k % 3)
                .map(|h| h.min(end))
                .chain([end])
                .collect();
            engine_until(&mut engine, &horizons)
        }
        Drive::Restored => {
            let mut stats = engine_until(&mut engine, &[start + config.measure_cycles / 2]);
            let frozen = fingerprint(&engine);
            let mut r = SnapReader::new(&frozen);
            engine = PreparedRun::restore_snapshot(config, &mut r).expect("restore");
            assert!(!probes, "a restored world starts with probes off");
            stats.add(&engine_until(&mut engine, &[end]));
            stats
        }
    };
    assert_eq!(window.total_steps(), ref_steps, "window step count");
    stats.add(&window);

    assert!(
        fingerprint(&engine) == fingerprint(&reference),
        "{}: whole-state snapshots differ",
        config.tag()
    );
    let (a, b) = (observables(&reference), observables(&engine));
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x, y, "{}", config.tag());
    }
    if probes {
        let obs = |prep: &mut PreparedRun| {
            let end = window_start(prep);
            format!("{:?}", prep.os.take_obs(end).expect("probes were on"))
        };
        assert_eq!(obs(&mut reference), obs(&mut engine), "{}", config.tag());
    }
    let (ra, rb) = (
        reference.machine.monitor_mut().dump(),
        engine.machine.monitor_mut().dump(),
    );
    assert!(!ra.is_empty(), "the window must trace something");
    assert_eq!(ra.len(), rb.len(), "{}: record count", config.tag());
    if let Some(i) = ra.iter().zip(&rb).position(|(x, y)| x != y) {
        panic!(
            "{}: record {i} differs: {:?} vs {:?}",
            config.tag(),
            ra[i],
            rb[i]
        );
    }
    stats
}

fn small(kind: WorkloadKind, warmup: u64, measure: u64) -> ExperimentConfig {
    ExperimentConfig::new(kind).warmup(warmup).measure(measure)
}

/// Warm-up lengths after which each workload runs long user loops
/// (start-up is mostly exec, I/O and cold misses: all shared steps).
fn steady(kind: WorkloadKind, measure: u64) -> ExperimentConfig {
    let warmup = match kind {
        WorkloadKind::Pmake => 36_000_000,
        WorkloadKind::Multpgm => 10_000_000,
        _ => 20_000_000,
    };
    small(kind, warmup, measure)
}

const KINDS: [WorkloadKind; 3] = [
    WorkloadKind::Pmake,
    WorkloadKind::Multpgm,
    WorkloadKind::Oracle,
];

#[test]
fn default_machine_matches_reference_for_every_workload() {
    for kind in KINDS {
        let s = differential(&steady(kind, 3_000_000), Drive::Straight);
        assert!(s.private_steps() > 0, "{kind:?}: no step was batched");
        assert!(s.private_batches > 0 && s.shared_steps() > 0);
    }
}

#[test]
fn every_machine_size_and_backend_matches_reference() {
    let mut batched = 0;
    for cpus in [1u8, 2, 4, 8, 16, 64] {
        for coherence in [Coherence::Snoop, Coherence::MesiDir] {
            // Bigger machines step more CPUs per cycle: shrink the
            // window to keep the reference loop quick.
            let scale = (cpus as u64).max(4) / 4;
            let config = small(WorkloadKind::Pmake, 2_000_000 / scale, 1_500_000 / scale)
                .cpus(cpus)
                .coherence(coherence)
                .scaled_workload(true);
            batched += differential(&config, Drive::Straight).private_steps();
        }
    }
    assert!(batched > 0, "no step of the sweep was batched");
}

#[test]
fn clustered_machine_with_replicated_text_matches_reference() {
    let config = small(WorkloadKind::Pmake, 2_000_000, 1_500_000).clustered(8, 2, 40);
    assert!(config.tuning.replicate_os_text && config.tuning.distributed_runq);
    differential(&config, Drive::Straight);
}

#[test]
fn network_daemon_matches_reference() {
    let config = small(WorkloadKind::Multpgm, 2_000_000, 2_000_000).with_network_daemon();
    differential(&config, Drive::Straight);
}

/// `tests/pressure.rs`'s 8 MB machine: page-out scans steal pages from
/// running processes, post shootdown IPIs and flush recycled code pages
/// from every I-cache — every cross-CPU hook fires.
#[test]
fn memory_pressure_matches_reference() {
    // Page-outs start near 43 M cycles, code-page flushes near 57 M.
    let mut config = small(WorkloadKind::Pmake, 40_000_000, 20_000_000);
    config.machine.memory_bytes = 8 * 1024 * 1024;
    config.tuning.low_free_frames = 700;
    let s = differential(&config, Drive::Straight);
    let mut probe = PreparedRun::new(&config, config.build_workload());
    probe.warmup();
    probe.measure();
    let os = probe.finish().os_stats;
    assert!(os.pageouts > 0, "the window must page out");
    assert!(os.icache_flushes > 0, "the window must flush code pages");
    assert!(os.ipis > 0, "the window must post shootdowns");
    assert!(s.catch_ups > 0, "a hook must have caught a CPU up");
}

/// Pmake's first process exits fall near 65 M cycles. The exit path
/// flushes the dying address space from every CPU's TLB, so this
/// window runs the exit-time catch-up hook with other CPUs' private
/// steps pending (the debug-build hook audit checks it).
#[test]
fn process_exit_window_matches_reference() {
    let config = small(WorkloadKind::Pmake, 64_000_000, 4_000_000);
    let s = differential(&config, Drive::Straight);
    let mut probe = PreparedRun::new(&config, config.build_workload());
    probe.warmup();
    probe.measure();
    let os = probe.finish().os_stats;
    assert!(os.exits > 0, "the window must see a process exit");
    assert!(s.catch_ups > 0, "a hook must have caught a CPU up");
}

/// A 2-way I-cache hit updates LRU state, so neither user loop
/// fetches, kernel fetches nor idle polls can be batched; only compute
/// chunks are, and the run stays exact. A 2-way L1 or L2 read hit does
/// too, so there idle polls stay shared while fetches still batch.
#[test]
fn two_way_icache_falls_back_to_per_step_fetches() {
    let fetches = [
        StepClass::Idle,
        StepClass::KernelFetch,
        StepClass::UserFetch,
    ];
    let mut config = steady(WorkloadKind::Pmake, 2_000_000);
    config.machine.icache.assoc = 2;
    let s = differential(&config, Drive::Straight);
    for class in fetches {
        assert_eq!(s.private[class as usize], 0, "{class:?} batched");
        assert!(s.shared[class as usize] > 0, "{class:?} never ran");
    }
    for two_way in [
        |c: &mut ExperimentConfig| c.machine.l1d.assoc = 2,
        |c: &mut ExperimentConfig| c.machine.l2d.assoc = 2,
    ] {
        let mut config = steady(WorkloadKind::Pmake, 2_000_000);
        two_way(&mut config);
        let s = differential(&config, Drive::Straight);
        let idle = StepClass::Idle as usize;
        assert_eq!(s.private[idle], 0, "idle polls batched");
        assert!(s.shared[idle] > 0, "no idle poll ran");
        assert!(s.private[StepClass::KernelFetch as usize] > 0);
    }
}

/// The boot phase is idle-heavy: most CPUs poll empty run queues while
/// the first processes fork and exec. A window from cycle 0 (the
/// warm-up itself) batches idle polls at every machine size, on both
/// backends, and every enqueue and run-queue write catches the pollers
/// up.
#[test]
fn idle_heavy_boot_window_matches_reference() {
    for cpus in [1u8, 2, 4, 16, 64] {
        for coherence in [Coherence::Snoop, Coherence::MesiDir] {
            let scale = (cpus as u64).max(4) / 4;
            let config = small(WorkloadKind::Pmake, 0, 3_000_000 / scale)
                .cpus(cpus)
                .coherence(coherence)
                .scaled_workload(true);
            let s = differential(&config, Drive::Straight);
            let idle = StepClass::Idle as usize;
            assert!(
                s.private[idle] > 0,
                "{}: no idle poll was batched",
                config.tag()
            );
            // At 64 CPUs the window is too short for a hook to find
            // a poller with steps pending.
            if (2..=16).contains(&cpus) {
                assert!(s.catch_ups > 0, "{}: no hook caught a CPU up", config.tag());
            }
        }
    }
}

/// Kernel fetch runs with the kernel probes on (their fetch counts are
/// applied in bulk) and with the kernel text replicated per cluster
/// (the fetch address depends on the CPU).
#[test]
fn kernel_fetch_runs_match_reference_with_probes_and_replicated_text() {
    let kfetch = StepClass::KernelFetch as usize;
    for kind in KINDS {
        let s = differential_with(&steady(kind, 2_000_000), Drive::Straight, true);
        assert!(
            s.private[kfetch] > 0,
            "{kind:?}: no kernel fetch was batched"
        );
    }
    let config = small(WorkloadKind::Pmake, 2_000_000, 2_000_000).clustered(8, 2, 40);
    assert!(config.tuning.replicate_os_text);
    let s = differential_with(&config, Drive::Chained(5), true);
    assert!(
        s.private[kfetch] > 0,
        "no replicated-text fetch was batched"
    );
}

#[test]
fn chained_horizons_match_reference() {
    for kind in [WorkloadKind::Pmake, WorkloadKind::Oracle] {
        let s = differential(&steady(kind, 3_000_000), Drive::Chained(7));
        assert!(s.private_steps() > 0, "{kind:?}: no step was batched");
    }
}

#[test]
fn snapshot_restore_mid_window_matches_reference() {
    for kind in [WorkloadKind::Pmake, WorkloadKind::Multpgm] {
        let s = differential(&steady(kind, 3_000_000), Drive::Restored);
        assert!(s.private_steps() > 0, "{kind:?}: no step was batched");
    }
    // Machines past the paper's: the thaw restores 8 CPUs' state on
    // the bus and, on the 16-CPU directory, the home banks too.
    for machine in [MachineConfig::scaled(8), MachineConfig::mesi_dir(16)] {
        let mut config = small(WorkloadKind::Pmake, 2_000_000, 3_000_000).scaled_workload(true);
        config.machine = machine;
        differential(&config, Drive::Restored);
    }
}

/// The `sim/<tag>` perf row: present only with stage stats on, counts
/// that cover exactly the reference loop's steps over the window, and
/// the same counts at any `--jobs`.
#[test]
fn sim_rows_count_every_window_step_at_any_jobs() {
    let reqs = || {
        KINDS
            .iter()
            .map(|&k| {
                let config = steady(k, 3_000_000);
                ReportRequest {
                    stage_stats: true,
                    ..ReportRequest::new(k, config.measure_cycles, config.warmup_cycles)
                }
            })
            .collect::<Vec<_>>()
    };
    let sims = |jobs| {
        run_reports(reqs(), jobs)
            .into_iter()
            .map(|o| {
                let row = o
                    .phases
                    .iter()
                    .find(|p| p.id == format!("sim/{}", o.tag))
                    .expect("a sim row per run");
                row.sim.expect("sim rows carry engine counts")
            })
            .collect::<Vec<_>>()
    };
    let serial = sims(1);
    assert_eq!(serial, sims(3), "engine counts must not depend on --jobs");

    for (&kind, sim) in KINDS.iter().zip(&serial) {
        assert!(sim.private_steps() > 0, "{kind:?}: no step was batched");
        let batched = |class: StepClass| sim.private[class as usize];
        assert!(
            batched(StepClass::KernelFetch) > 0,
            "{kind:?}: no kernel fetch was batched"
        );
        // Pmake's steady window never idles: it runs no poll at all.
        if kind != WorkloadKind::Pmake {
            assert!(
                batched(StepClass::Idle) > 0,
                "{kind:?}: no idle poll was batched"
            );
        }
        let config = steady(kind, 3_000_000);
        let mut reference = PreparedRun::new(&config, config.build_workload());
        reference_until(&mut reference, config.warmup_cycles);
        let end = window_start(&reference) + config.measure_cycles;
        arm(&mut reference, false);
        assert_eq!(
            sim.total_steps(),
            reference_until(&mut reference, end),
            "{kind:?}"
        );
    }

    let plain = run_reports(
        vec![ReportRequest::new(
            WorkloadKind::Pmake,
            1_000_000,
            2_000_000,
        )],
        1,
    );
    assert!(plain[0].phases.iter().all(|p| p.sim.is_none()));
}
