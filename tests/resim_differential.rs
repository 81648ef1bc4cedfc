//! The one-pass re-simulation sweeps (`ISweep`, `DSweep`) against the
//! per-geometry banks (`IResimBank`, `DResimBank`), which replay each
//! cache geometry on its own, cache by cache. Every point and every
//! per-CPU split must agree exactly: on seeded random streams fed in
//! ragged runs, on the memory-pressure machine whose page-outs flush
//! code pages from every I-cache, and on machines of 1 to 64 CPUs with
//! either coherence backend.

use oscar_core::analyze::{DStreamItem, IStreamItem};
use oscar_core::resim::{dcache_configs, figure6_configs, DResimBank, DSweep, IResimBank, ISweep};
use oscar_core::{analyze_with, run, AnalyzeOptions, ExperimentConfig, TraceAnalysis};
use oscar_machine::Coherence;
use oscar_rng::{Rng, SeedableRng, SmallRng};
use oscar_workloads::WorkloadKind;

/// Asserts the I sweep equals one bank per Figure 6 geometry.
fn check_i(sweep: &ISweep, stream: &[IStreamItem], cpus: usize, what: &str) {
    let (points, per_cpu) = (sweep.points(), sweep.per_cpu());
    assert_eq!(points.len(), figure6_configs().len(), "{what}");
    for (k, config) in figure6_configs().into_iter().enumerate() {
        let mut bank = IResimBank::new(cpus, config);
        for item in stream {
            bank.push(item);
        }
        assert_eq!(points[k], bank.point(), "{what}: {config:?}");
        assert_eq!(per_cpu[k], bank.per_cpu(), "{what}: {config:?} per CPU");
    }
}

/// Asserts the D sweep equals one bank per Section 4.2.2 geometry.
fn check_d(sweep: &DSweep, stream: &[DStreamItem], cpus: usize, what: &str) {
    let (points, per_cpu) = (sweep.points(), sweep.per_cpu());
    assert_eq!(points.len(), dcache_configs().len(), "{what}");
    for (k, config) in dcache_configs().into_iter().enumerate() {
        let mut bank = DResimBank::new(cpus, config);
        for item in stream {
            bank.push(item);
        }
        assert_eq!(points[k], bank.point(), "{what}: {config:?}");
        assert_eq!(per_cpu[k], bank.per_cpu(), "{what}: {config:?} per CPU");
    }
}

/// Feeds `stream` to `push` in runs of random length, empty ones too.
fn ragged<T>(rng: &mut SmallRng, stream: &[T], mut push: impl FnMut(&[T])) {
    let mut at = 0;
    while at < stream.len() {
        let take = rng.gen_range(0..300usize).min(stream.len() - at);
        push(&stream[at..at + take]);
        at += take;
    }
}

/// A block from a small pool that conflicts at every level: the low
/// bits pick one of a few sets and the bits from `shift` up pick one
/// of 32 tags, so two blocks share a set at the smaller sizes and part
/// at the larger ones.
fn conflicting(rng: &mut SmallRng, shift: u32) -> u32 {
    (rng.gen_range(0..32u32) << shift) | rng.gen_range(0..24u32)
}

#[test]
fn random_streams_with_flushes_match_the_banks() {
    for seed in 0..24u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let cpus = [1usize, 2, 3, 4, 16][seed as usize % 5];
        let istream: Vec<IStreamItem> = (0..4000)
            .map(|_| {
                if rng.gen_range(0..40u32) == 0 {
                    // The pool's pages: block >> 8, tags from bit 12.
                    IStreamItem::Flush {
                        ppn: rng.gen_range(0..32u32) << 4,
                    }
                } else {
                    IStreamItem::Fetch {
                        cpu: rng.gen_range(0..cpus) as u8,
                        block: conflicting(&mut rng, 12),
                        os: rng.gen_range(0..4u32) != 0,
                    }
                }
            })
            .collect();
        let mut sweep = ISweep::new(cpus);
        ragged(&mut rng, &istream, |run| sweep.push_items(run));
        check_i(&sweep, &istream, cpus, &format!("seed {seed} I"));

        let dstream: Vec<DStreamItem> = (0..4000)
            .map(|_| DStreamItem {
                cpu: rng.gen_range(0..cpus) as u8,
                block: conflicting(&mut rng, 14),
                write: rng.gen_range(0..3u32) == 0,
                os: rng.gen_range(0..4u32) != 0,
            })
            .collect();
        let mut sweep = DSweep::new(cpus);
        ragged(&mut rng, &dstream, |run| sweep.push_items(run));
        check_d(&sweep, &dstream, cpus, &format!("seed {seed} D"));
    }
}

/// A flush of a page past the 32-bit block range drops nothing and must
/// not wrap onto low blocks.
#[test]
fn flush_past_the_block_range_drops_nothing() {
    let stream = [
        IStreamItem::Fetch {
            cpu: 0,
            block: 5,
            os: true,
        },
        IStreamItem::Flush { ppn: 1 << 24 },
        IStreamItem::Flush { ppn: u32::MAX },
        IStreamItem::Fetch {
            cpu: 0,
            block: 5,
            os: true,
        },
    ];
    let mut sweep = ISweep::new(1);
    sweep.push_items(&stream);
    check_i(&sweep, &stream, 1, "high flush");
    assert!(sweep.points().iter().all(|p| p.os_misses == 1));
}

/// The online sweeps of an analysis (with provenance, so the per-CPU
/// splits exist) against banks replaying its kept miss streams.
fn check_run(config: &ExperimentConfig) -> TraceAnalysis {
    let art = run(config);
    let an = analyze_with(
        &art,
        AnalyzeOptions {
            online_sweeps: true,
            keep_streams: true,
            provenance: true,
            ..AnalyzeOptions::default()
        },
    );
    let cpus = art.machine_config.num_cpus as usize;
    let what = config.tag();
    assert!(!an.istream.is_empty() && !an.dstream.is_empty(), "{what}");
    let prov = an.provenance.as_deref().expect("provenance on");
    let mut sweep = ISweep::new(cpus);
    sweep.push_items(&an.istream);
    assert_eq!(an.fig6.as_ref(), Some(&sweep.points()), "{what}: online I");
    assert_eq!(
        prov.fig6_per_cpu,
        sweep.per_cpu(),
        "{what}: online I per CPU"
    );
    check_i(&sweep, &an.istream, cpus, &what);
    let mut sweep = DSweep::new(cpus);
    sweep.push_items(&an.dstream);
    assert_eq!(
        an.dcache.as_ref(),
        Some(&sweep.points()),
        "{what}: online D"
    );
    assert_eq!(
        prov.dcache_per_cpu,
        sweep.per_cpu(),
        "{what}: online D per CPU"
    );
    check_d(&sweep, &an.dstream, cpus, &what);
    an
}

/// `tests/pressure.rs`'s 8 MB machine: page-outs recycle code pages, so
/// the instruction stream carries I-cache flushes of resident blocks.
#[test]
fn memory_pressure_machine_matches_the_banks() {
    let mut config = ExperimentConfig::new(WorkloadKind::Pmake)
        .warmup(30_000_000)
        .measure(30_000_000);
    config.machine.memory_bytes = 8 * 1024 * 1024;
    config.tuning.low_free_frames = 700;
    let an = check_run(&config);
    let unflushed: Vec<IStreamItem> = an
        .istream
        .iter()
        .copied()
        .filter(|i| !matches!(i, IStreamItem::Flush { .. }))
        .collect();
    assert!(unflushed.len() < an.istream.len(), "the window must flush");
    let mut sweep = ISweep::new(config.machine.num_cpus as usize);
    sweep.push_items(&unflushed);
    assert_ne!(
        an.fig6.as_ref(),
        Some(&sweep.points()),
        "the flushes must drop resident blocks"
    );
}

#[test]
fn every_machine_size_and_backend_matches_the_banks() {
    for cpus in [1u8, 2, 16, 64] {
        for coherence in [Coherence::Snoop, Coherence::MesiDir] {
            let config = ExperimentConfig::new(WorkloadKind::Pmake)
                .warmup(2_000_000)
                .measure(1_000_000)
                .cpus(cpus)
                .coherence(coherence)
                .scaled_workload(true);
            let an = check_run(&config);
            if cpus > 1 {
                let dcache = an.dcache.as_deref().expect("online sweeps");
                assert!(
                    dcache.iter().all(|p| p.os_sharing_misses > 0),
                    "{}: writes leave a sharing floor: {dcache:?}",
                    config.tag()
                );
            }
        }
    }
}
