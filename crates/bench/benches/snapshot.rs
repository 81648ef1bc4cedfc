//! Microbenchmarks of the warm-up checkpoint cache's cost: capturing a
//! warmed-up run's snapshot (what a cache miss pays on top of the
//! warm-up) and restoring it (what a cache hit pays instead of the
//! warm-up).

use oscar_bench::{black_box, Harness};

use oscar_core::{ExperimentConfig, PreparedRun};
use oscar_machine::snap::{SnapReader, SnapWriter};
use oscar_workloads::WorkloadKind;

fn main() {
    let mut h = Harness::new("snapshot");

    // One warmed-up world to freeze and thaw.
    let config = ExperimentConfig::new(WorkloadKind::Pmake)
        .warmup(2_000_000)
        .measure(1_000_000);
    let mut prep = PreparedRun::new(&config, config.workload.build());
    prep.warmup();
    let mut w = SnapWriter::new();
    prep.save_snapshot(&mut w);
    let frozen = w.into_bytes();
    eprintln!("snapshot size: {} bytes", frozen.len());

    h.bench("snapshot/capture", || {
        let mut w = SnapWriter::new();
        prep.save_snapshot(&mut w);
        black_box(w.into_bytes().len())
    });

    h.bench("snapshot/restore", || {
        let mut r = SnapReader::new(&frozen);
        let p = PreparedRun::restore_snapshot(&config, &mut r).expect("restore");
        black_box(p.measure_start())
    });

    h.finish();
}
