//! The warm-up checkpoint cache: snapshot/resume bit-exactness,
//! hit/miss/invalidation behaviour, and corrupted cache files.

use oscar_core::{
    merge_metrics_json, render_all, run_reports, run_streaming, ExperimentConfig, PreparedRun,
    ReportRequest, StreamOptions,
};
use oscar_machine::snap::{SnapReader, SnapWriter};
use oscar_workloads::WorkloadKind;

fn cfg() -> ExperimentConfig {
    ExperimentConfig::new(WorkloadKind::Pmake)
        .warmup(2_000_000)
        .measure(3_000_000)
}

/// Snapshot bytes of a prepared run (the crate guarantees byte equality
/// iff state equality, so this doubles as a state fingerprint).
fn fingerprint(prep: &PreparedRun) -> Vec<u8> {
    let mut w = SnapWriter::new();
    prep.save_snapshot(&mut w);
    w.into_bytes()
}

#[test]
fn snapshot_resume_is_bit_exact() {
    let config = cfg();

    // Straight run: warmup + full measure.
    let mut straight = PreparedRun::new(&config, config.workload.build());
    straight.warmup();
    straight.measure();

    // Snapshotted run: freeze after warmup, thaw, then measure.
    let mut prep = PreparedRun::new(&config, config.workload.build());
    prep.warmup();
    let frozen = fingerprint(&prep);
    drop(prep);
    let mut r = SnapReader::new(&frozen);
    let mut resumed = PreparedRun::restore_snapshot(&config, &mut r).expect("restore");
    r.expect_end().expect("no trailing bytes");

    // The restored run must itself re-freeze to the same bytes...
    assert_eq!(
        fingerprint(&resumed),
        frozen,
        "restore → save must be the identity on snapshot bytes"
    );

    // ...and running it forward must reproduce the straight run
    // bit-exactly: same machine+kernel state, same monitor bytes.
    resumed.measure();
    assert_eq!(
        fingerprint(&resumed),
        fingerprint(&straight),
        "resumed run must end in the straight run's exact state"
    );
    let a = straight.finish();
    let b = resumed.finish();
    assert_eq!(a.trace_records, b.trace_records);
    assert_eq!(a.trace, b.trace, "monitor records must be identical");
    assert_eq!(a.os_stats.dispatches, b.os_stats.dispatches);
}

fn scratch_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("oscar_ckpt_{name}_{}", std::process::id()));
    // A fresh cache per test run; stale files from a crashed run would
    // turn misses into hits.
    std::fs::remove_dir_all(&dir).ok();
    dir
}

#[test]
fn warmup_cache_misses_then_hits_and_invalidates() {
    let dir = scratch_dir("warmup");
    let config = cfg();
    let opts = StreamOptions {
        checkpoint_dir: Some(dir.clone()),
        ..StreamOptions::default()
    };

    // Cold: the cache is empty, so the warmup must simulate and store.
    let (cold, _) = run_streaming(&config, &opts);
    let cold_ckpt = cold.checkpoint.expect("checkpoint stats when dir given");
    assert_eq!(cold_ckpt.hits, 0, "cold run cannot hit");
    assert!(cold_ckpt.misses >= 1, "cold run must record its miss");
    assert!(cold_ckpt.capture_us > 0, "cold run must capture a snapshot");

    // Warm: same configuration, so the stored checkpoint must be used —
    // and the run must stay byte-identical.
    let (warm, _) = run_streaming(&config, &opts);
    let warm_ckpt = warm.checkpoint.expect("checkpoint stats when dir given");
    assert!(warm_ckpt.hits >= 1, "warm run must hit the cache");
    assert_eq!(warm_ckpt.misses, 0, "warm run must not miss");
    assert_eq!(warm.trace_records, cold.trace_records);
    assert_eq!(warm.os_stats.dispatches, cold.os_stats.dispatches);

    // A changed configuration hashes to a different key: stale entries
    // are never served.
    let other = cfg().seed(99);
    let (stale, _) = run_streaming(
        &other,
        &StreamOptions {
            checkpoint_dir: Some(dir.clone()),
            ..StreamOptions::default()
        },
    );
    let stale_ckpt = stale.checkpoint.expect("checkpoint stats when dir given");
    assert_eq!(stale_ckpt.hits, 0, "changed config must not hit old entry");
    assert!(stale_ckpt.misses >= 1);

    // Runs without a checkpoint dir must not report (or export) any
    // checkpoint accounting at all.
    let (plain, _) = run_streaming(&config, &StreamOptions::default());
    assert!(plain.checkpoint.is_none());

    std::fs::remove_dir_all(&dir).ok();
}

/// A cached warm-up snapshot is untrusted input: one flipped byte must
/// turn the lookup into a miss (never a hit on altered state, never a
/// crash), and the re-simulated run must print the same report.
#[test]
fn corrupted_warmup_snapshot_is_a_miss_with_identical_report() {
    let dir = scratch_dir("corrupt");
    let config = cfg();
    let opts = StreamOptions {
        checkpoint_dir: Some(dir.clone()),
        ..StreamOptions::default()
    };
    let (cold, cold_an) = run_streaming(&config, &opts);
    let snaps: Vec<_> = std::fs::read_dir(&dir)
        .expect("cache dir")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "snap"))
        .collect();
    assert_eq!(snaps.len(), 1, "one warm-up snapshot cached");
    let mut bytes = std::fs::read(&snaps[0]).expect("read snapshot");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&snaps[0], &bytes).expect("write snapshot");

    let (again, again_an) = run_streaming(&config, &opts);
    let ckpt = again.checkpoint.expect("checkpoint stats when dir given");
    assert_eq!(ckpt.hits, 0, "a corrupted snapshot must not be served");
    assert_eq!(ckpt.misses, 1, "a corrupted snapshot is a cache miss");
    assert_eq!(
        render_all(&again, &again_an),
        render_all(&cold, &cold_an),
        "the re-simulated run prints the same report"
    );
    // The miss re-stored a good snapshot: the next run hits again.
    let (warm, _) = run_streaming(&config, &opts);
    assert_eq!(warm.checkpoint.expect("stats").hits, 1);

    std::fs::remove_dir_all(&dir).ok();
}

/// `--metrics-out` is deterministic with a checkpoint directory: two
/// warm runs write byte-identical metrics, with the cache traffic in
/// them and the wall-clock capture/restore costs only in the
/// `checkpoint/<tag>` perf row.
#[test]
fn warm_runs_write_identical_metrics() {
    let dir = scratch_dir("metrics");
    let config = cfg();
    let req = || {
        let mut req = ReportRequest::new(WorkloadKind::Pmake, 0, 0);
        req.config = config.clone();
        req.want_obs = true;
        req.checkpoint_dir = Some(dir.clone());
        req
    };
    let cold = run_reports(vec![req()], 1);
    let warm: Vec<_> = (0..2).map(|_| run_reports(vec![req()], 1)).collect();
    let text = merge_metrics_json(&warm[0]);
    assert_eq!(text, merge_metrics_json(&warm[1]));
    assert!(text.contains("\"pmake.checkpoint.hits\""), "{text}");
    assert!(!text.contains("_us\""), "no wall-clock keys in the metrics");
    assert_ne!(
        merge_metrics_json(&cold),
        text,
        "the cold run misses instead"
    );
    for (out, hits) in [(&cold[0], 0), (&warm[0][0], 1)] {
        let row = out
            .phases
            .iter()
            .find(|p| p.id == "checkpoint/pmake")
            .expect("a checkpoint row per run");
        let stats = row.checkpoint.expect("the row carries the cache stats");
        assert_eq!((stats.hits, stats.misses), (hits, 1 - hits));
    }
    std::fs::remove_dir_all(&dir).ok();
}
