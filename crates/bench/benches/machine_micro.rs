//! Microbenchmarks of the simulator substrate itself: cache probes,
//! TLB lookups, coherence traffic and full-engine stepping throughput.

use oscar_bench::{black_box, Harness};

use oscar_machine::addr::{BlockAddr, CpuId, PAddr, Ppn, Vpn};
use oscar_machine::cache::Cache;
use oscar_machine::config::{CacheConfig, MachineConfig};
use oscar_machine::tlb::Tlb;
use oscar_machine::Machine;
use oscar_os::{OsTuning, OsWorld};

fn main() {
    let mut h = Harness::new("machine_micro");

    {
        let mut cache = Cache::new(CacheConfig::direct_mapped(64 * 1024));
        cache.access(BlockAddr(7), false);
        h.bench("cache/dm_hit", || {
            black_box(cache.access(black_box(BlockAddr(7)), false))
        });
    }
    {
        let mut cache = Cache::new(CacheConfig::direct_mapped(64 * 1024));
        let mut i = 0u64;
        h.bench("cache/dm_conflict_stream", || {
            i = i.wrapping_add(4096);
            black_box(cache.access(BlockAddr(i % (1 << 20)), false))
        });
    }
    {
        // The retained generic model on the same stream as cache/dm_hit:
        // the pair isolates the packed direct-mapped fast path's gain.
        let mut cache = Cache::new_generic(CacheConfig::direct_mapped(64 * 1024));
        cache.access(BlockAddr(7), false);
        h.bench("cache/dm_hit_generic", || {
            black_box(cache.access(black_box(BlockAddr(7)), false))
        });
    }
    {
        let mut cache = Cache::new(CacheConfig::set_associative(256 * 1024, 2));
        let mut i = 0u64;
        h.bench("cache/two_way_mixed", || {
            i = i.wrapping_mul(6364136223846793005).wrapping_add(1);
            black_box(cache.access(BlockAddr((i >> 20) % (1 << 18)), i & 1 == 0))
        });
    }
    {
        // Same mixed stream through the generic model: isolates the
        // packed two-way representation's gain.
        let mut cache = Cache::new_generic(CacheConfig::set_associative(256 * 1024, 2));
        let mut i = 0u64;
        h.bench("cache/two_way_mixed_generic", || {
            i = i.wrapping_mul(6364136223846793005).wrapping_add(1);
            black_box(cache.access(BlockAddr((i >> 20) % (1 << 18)), i & 1 == 0))
        });
    }
    {
        // Fill/invalidate round trip on one block: the snoop path's
        // cache-side cost without bus accounting.
        let mut cache = Cache::new(CacheConfig::direct_mapped(64 * 1024));
        h.bench("cache/fill_invalidate_cycle", || {
            cache.fill(BlockAddr(11), false);
            black_box(cache.invalidate(BlockAddr(11)))
        });
    }

    {
        let mut tlb = Tlb::new();
        tlb.insert(Vpn(5), Ppn(9), 1);
        h.bench("tlb/hit", || black_box(tlb.lookup(black_box(Vpn(5)), 1)));
    }
    {
        let mut tlb = Tlb::new();
        let mut v = 0u32;
        h.bench("tlb/miss_insert_cycle", || {
            v = v.wrapping_add(1) % 512;
            if tlb.lookup(Vpn(v), 1).is_none() {
                tlb.insert(Vpn(v), Ppn(v), 1);
            }
        });
    }

    {
        let mut m = Machine::new(MachineConfig::sgi_4d340());
        let mut i = 0u64;
        h.bench("machine/data_access_coherent", || {
            i = i.wrapping_add(1);
            let cpu = CpuId((i % 4) as u8);
            black_box(m.data_access(
                cpu,
                PAddr::new((i * 64) % (16 << 20)),
                i.is_multiple_of(5),
                1,
            ))
        });
    }

    {
        // Two CPUs ping-pong writes to one block: every access is an
        // upgrade-plus-invalidate, the worst case for the snoop path.
        // The presence filter narrows each snoop to the one real sharer.
        let mut m = Machine::new(MachineConfig::sgi_4d340());
        let mut i = 0u64;
        h.bench("machine/snoop_invalidate_pingpong", || {
            i = i.wrapping_add(1);
            let cpu = CpuId((i % 2) as u8);
            black_box(m.data_access(cpu, PAddr::new(0x4000), true, 1))
        });
    }
    {
        // Same ping-pong with the filter disabled: every snoop probes
        // all other CPUs. The pair isolates the filter's gain.
        let mut m = Machine::new(MachineConfig::sgi_4d340());
        m.disable_presence_filter();
        let mut i = 0u64;
        h.bench("machine/snoop_invalidate_brute", || {
            i = i.wrapping_add(1);
            let cpu = CpuId((i % 2) as u8);
            black_box(m.data_access(cpu, PAddr::new(0x4000), true, 1))
        });
    }
    {
        // Straight-line instruction fetch from one block: the memoized
        // ifetch fast path that batched fetches ride on.
        let mut m = Machine::new(MachineConfig::sgi_4d340());
        h.bench("machine/fetch_straightline", || {
            black_box(m.fetch(CpuId(0), PAddr::new(0x1000), 4))
        });
    }

    {
        // The columnar kind-classification kernel (SWAR): bitmap
        // select of write-back lanes over a 64 KiB kind column with a
        // trace-like mix, as the analyzer's block fast path runs it.
        use oscar_machine::kindscan::select_eq_any;
        use oscar_machine::BusKind;

        let codes: Vec<u8> = {
            let mut x = 0x9e3779b97f4a7c15u64;
            (0..64 * 1024)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    // Roughly trace-shaped: reads dominate, ~1/8
                    // write-backs, the rest split across the others.
                    match x % 16 {
                        0..=8 => BusKind::Read.code(),
                        9..=10 => BusKind::ReadEx.code(),
                        11 => BusKind::Upgrade.code(),
                        12..=13 => BusKind::WriteBack.code(),
                        _ => BusKind::UncachedRead.code(),
                    }
                })
                .collect()
        };
        let wb = [BusKind::WriteBack.code()];
        let mut out = Vec::new();
        h.bench("kindscan/select_wb_swar", || {
            select_eq_any(black_box(&codes), black_box(&wb), &mut out);
            black_box(out.last().copied())
        });
    }

    {
        // False-sharing ping-pong: the measured thread increments its
        // counter while a hammer thread increments the neighbouring
        // one. Packed on one cache line, every increment invalidates
        // the other core's copy (the MESI pathology the paper's §5
        // measures for test-and-set locks); padded to private lines
        // via `CachePadded`, the two threads never interfere. The
        // per-worker tallies and the claim cursor of the `--jobs` pool
        // use the padded layout. (On a single-core CI host the
        // pair collapses to scheduler noise; record it anyway.)
        use oscar_core::pad::CachePadded;
        use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
        use std::sync::Arc;

        fn pingpong<P: Send + Sync + 'static>(
            h: &mut Harness,
            id: &str,
            pair: Arc<P>,
            mine: fn(&P) -> &AtomicU64,
            theirs: fn(&P) -> &AtomicU64,
        ) {
            let stop = Arc::new(AtomicBool::new(false));
            let hammer = {
                let pair = Arc::clone(&pair);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        theirs(&pair).fetch_add(1, Ordering::Relaxed);
                    }
                })
            };
            h.bench(id, || mine(&pair).fetch_add(1, Ordering::Relaxed));
            stop.store(true, Ordering::Relaxed);
            hammer.join().expect("hammer thread panicked");
        }

        #[repr(C)]
        #[derive(Default)]
        struct Packed {
            a: AtomicU64,
            b: AtomicU64,
        }
        #[repr(C)]
        #[derive(Default)]
        struct Padded {
            a: CachePadded<AtomicU64>,
            b: CachePadded<AtomicU64>,
        }

        pingpong(
            &mut h,
            "pad/pingpong_packed",
            Arc::new(Packed::default()),
            |p| &p.a,
            |p| &p.b,
        );
        pingpong(
            &mut h,
            "pad/pingpong_padded",
            Arc::new(Padded::default()),
            |p| &p.a.0,
            |p| &p.b.0,
        );
    }

    h.bench("engine/pmake_steps_1m_cycles", || {
        let mut m = Machine::new(MachineConfig::sgi_4d340());
        let mut os = OsWorld::new(4, 32 * 1024 * 1024, OsTuning::default());
        for t in oscar_workloads::pmake().tasks {
            os.spawn_initial(t);
        }
        while m.now(m.earliest_cpu()) < 1_000_000 {
            if !os.step_earliest(&mut m) {
                break;
            }
        }
        black_box(m.bus_transactions())
    });

    h.finish();
}
