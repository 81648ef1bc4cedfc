//! The on-disk warm-up checkpoint cache (`--checkpoint-dir`).
//!
//! Every run simulates a multi-million-cycle warm-up before its
//! measured window, and that warm-up depends only on the configuration.
//! Given a cache directory, [`crate::pipeline::run_streaming`] freezes
//! the post-warm-up state with the bit-exact snapshots of
//! `oscar_machine::snap` / `oscar_os::snap`
//! ([`PreparedRun::save_snapshot`]), keyed by a configuration and
//! format-revision hash, and later identical runs thaw it instead of
//! simulating. The cache only moves wall clock: a restored run is
//! bit-identical to a freshly simulated one.
//!
//! Cache files are untrusted input. Each is sealed with a checksum of
//! its payload, and a file that is missing, truncated, altered or
//! written by another revision is a miss that re-simulates and stores a
//! good entry; it never fails the run.

use std::fs;
use std::hash::Hasher as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use oscar_machine::fasthash::FxHasher;
use oscar_machine::snap::{SnapReader, SnapWriter, SNAP_FORMAT_VERSION};
use oscar_obs::Metrics;

use crate::experiment::{ExperimentConfig, PreparedRun};

/// Checkpoint-cache accounting for one run: cache traffic plus the
/// wall-clock cost of freezing and thawing state. The traffic is
/// exported as `checkpoint.*` metrics keys only when a checkpoint
/// directory was given, so runs without one keep their metrics exports
/// byte-identical to earlier revisions; the wall-clock costs go to the
/// `checkpoint/<tag>` perf row, so identical runs write identical
/// metrics files.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Cache lookups that produced a usable snapshot.
    pub hits: u64,
    /// Cache lookups that found nothing (or a stale/corrupt entry).
    pub misses: u64,
    /// Microseconds spent serializing snapshots (including writes).
    pub capture_us: u64,
    /// Microseconds spent restoring snapshots (including reads).
    pub restore_us: u64,
}

impl CheckpointStats {
    /// Folds the deterministic counters into `metrics` under
    /// `checkpoint.*` (the timings are wall clock and stay out).
    pub fn export_into(&self, metrics: &mut Metrics) {
        metrics.add("checkpoint.hits", self.hits);
        metrics.add("checkpoint.misses", self.misses);
    }
}

/// Cache path of the post-warmup snapshot, keyed by a hash of
/// everything the warm-up trajectory depends on. The debug rendering of
/// the configuration covers every field (machine geometry, kernel
/// tuning, seed, workload, horizons); the snapshot format version
/// stands in for the code revision — bump it whenever serialized state
/// changes meaning — and the crate version catches behavioural changes
/// that leave the wire format alone. The warm-up does not depend on the
/// measured horizon, so `measure_cycles` is masked out of the key and
/// runs differing only in window length share the entry.
fn warmup_path(dir: &Path, config: &ExperimentConfig) -> PathBuf {
    let mut keyed = config.clone();
    keyed.measure_cycles = 0;
    let mut h = FxHasher::default();
    h.write(format!("{keyed:?}").as_bytes());
    h.write(b"warmup");
    h.write_u64(SNAP_FORMAT_VERSION as u64);
    h.write(env!("CARGO_PKG_VERSION").as_bytes());
    dir.join(format!("warmup_{:016x}.snap", h.finish()))
}

/// Content checksum of a cache file's payload. Every step of the hash
/// is a bijection of its state for a fixed input word, so a change to
/// any one word of the payload always changes the sum.
fn checksum(payload: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(payload);
    h.write_u64(payload.len() as u64);
    h.finish()
}

/// A cache file's payload when its trailing checksum matches; `None`
/// for a truncated or altered file, which the caller treats as a miss.
/// Snapshots that still parse after a bit flip would otherwise be
/// served as hits and silently change the run.
fn unseal(file: &[u8]) -> Option<&[u8]> {
    let (payload, sum) = file.split_at_checked(file.len().checked_sub(8)?)?;
    (checksum(payload) == u64::from_le_bytes(sum.try_into().ok()?)).then_some(payload)
}

/// Best-effort cache write of `payload` sealed with its checksum: an
/// unwritable cache degrades to a miss on the next run, never to a
/// failure of this one.
fn store(dir: &Path, path: &Path, payload: &[u8]) {
    if fs::create_dir_all(dir).is_ok() {
        let mut file = Vec::with_capacity(payload.len() + 8);
        file.extend_from_slice(payload);
        file.extend_from_slice(&checksum(payload).to_le_bytes());
        fs::write(path, file).ok();
    }
}

/// The cached run at `path`, when the file is sealed intact and thaws
/// completely under `config`.
fn load(path: &Path, config: &ExperimentConfig) -> Option<PreparedRun> {
    let file = fs::read(path).ok()?;
    let mut r = SnapReader::new(unseal(&file)?);
    let prep = PreparedRun::restore_snapshot(config, &mut r).ok()?;
    r.expect_end().ok()?;
    Some(prep)
}

/// Builds (or restores from the checkpoint cache) a warmed-up run. The
/// result is bit-identical to `PreparedRun::new` + `warmup` under the
/// same configuration — the cache only skips the wall clock.
pub(crate) fn warm_prepare(
    config: &ExperimentConfig,
    build: impl FnOnce() -> oscar_workloads::Workload,
    checkpoint_dir: Option<&Path>,
    stats: &mut CheckpointStats,
) -> PreparedRun {
    let Some(dir) = checkpoint_dir else {
        let mut prep = PreparedRun::new(config, build());
        prep.warmup();
        return prep;
    };
    let path = warmup_path(dir, config);
    let t = Instant::now();
    if let Some(prep) = load(&path, config) {
        stats.hits += 1;
        stats.restore_us += t.elapsed().as_micros() as u64;
        return prep;
    }
    // Missing, stale or corrupt entry: regenerate it.
    stats.misses += 1;
    let mut prep = PreparedRun::new(config, build());
    prep.warmup();
    let t = Instant::now();
    let mut w = SnapWriter::new();
    prep.save_snapshot(&mut w);
    let bytes = w.into_bytes();
    stats.capture_us += t.elapsed().as_micros() as u64;
    store(dir, &path, &bytes);
    prep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sealed_files_reject_any_flipped_byte_or_truncation() {
        let dir = std::env::temp_dir().join(format!("oscar_seal_{}", std::process::id()));
        let path = dir.join("x.snap");
        let payload: Vec<u8> = (0..77u8).collect();
        store(&dir, &path, &payload);
        let file = fs::read(&path).expect("stored");
        fs::remove_dir_all(&dir).ok();
        assert_eq!(unseal(&file), Some(&payload[..]));
        for i in 0..file.len() {
            let mut bad = file.clone();
            bad[i] ^= 0x10;
            assert_eq!(unseal(&bad), None, "flip at byte {i}");
        }
        for n in 0..file.len() {
            assert_eq!(unseal(&file[..n]), None, "truncated to {n} bytes");
        }
    }
}
