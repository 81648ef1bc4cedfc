//! Property-based tests on the core data structures and invariants,
//! driven by the workspace's own deterministic PRNG (the external
//! `proptest` dependency is gone so the repo builds offline). Each
//! property runs against many seeded random schedules; the seed is in
//! every assertion message, so failures replay exactly.

use oscar_core::classify::Mirror;
use oscar_machine::addr::{BlockAddr, CpuId, PAddr, Ppn, Vpn};
use oscar_machine::cache::{Cache, Lookup};
use oscar_machine::config::{CacheConfig, MachineConfig};
use oscar_machine::machine::Machine;
use oscar_machine::tlb::{Tlb, TLB_ENTRIES};
use oscar_os::{AttrCtx, OpClass, OsEvent};
use oscar_rng::{Rng, SeedableRng, SmallRng};

const CASES: u64 = 64;

/// The classifier's direct-mapped mirror tracks residency exactly
/// like the machine's cache when fed the same fill stream.
#[test]
fn mirror_matches_cache_residency() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed);
        let blocks: Vec<u64> = (0..rng.gen_range(1..400usize))
            .map(|_| rng.gen_range(0..2048u64))
            .collect();
        let mut cache = Cache::new(CacheConfig::direct_mapped(8 * 1024));
        let mut mirror = Mirror::new(8 * 1024);
        for &b in &blocks {
            let block = BlockAddr(b);
            match cache.access(block, false) {
                Lookup::Hit => {
                    assert!(mirror.resident(block), "seed {seed}: mirror lost {block}");
                }
                Lookup::Miss { .. } => {
                    assert!(!mirror.resident(block), "seed {seed}: mirror kept {block}");
                    mirror.classify_fill(block, true, 0);
                }
            }
        }
        // Final states agree for every block ever touched.
        for &b in &blocks {
            assert_eq!(
                cache.probe(BlockAddr(b)),
                mirror.resident(BlockAddr(b)),
                "seed {seed}"
            );
        }
    }
}

/// Any escape-encoded event decodes back to itself through the
/// address channel.
#[test]
fn escape_roundtrip() {
    for seed in 0..CASES * 4 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (a, b, c, d) = (
            rng.gen_range(0..1u32 << 13),
            rng.gen_range(0..1u32 << 13),
            rng.gen_range(0..1u32 << 13),
            rng.gen_range(0..1u32 << 13),
        );
        let ev = match rng.gen_range(0..8usize) {
            0 => OsEvent::EnterOs(OpClass::ALL[(a as usize) % OpClass::ALL.len()]),
            1 => OsEvent::ExitOs,
            2 => OsEvent::PidChange { pid: a },
            3 => OsEvent::TlbSet {
                index: a % 64,
                vpn: b,
                ppn: c,
                pid: d,
            },
            4 => OsEvent::CtxEnter(AttrCtx::ALL[(a as usize) % AttrCtx::ALL.len()]),
            5 => OsEvent::IcacheFlush { ppn: a },
            6 => OsEvent::OpEnd,
            _ => OsEvent::OpReclass(OpClass::ALL[(b as usize) % OpClass::ALL.len()]),
        };
        let seq = ev.encode();
        assert!(seq.iter().all(|p| p.is_odd()), "seed {seed}");
        let opcode = OsEvent::decode_opcode(seq[0]).expect("opcode");
        let payloads: Vec<u32> = seq[1..]
            .iter()
            .map(|&p| OsEvent::decode_payload(p))
            .collect();
        assert_eq!(OsEvent::decode(opcode, &payloads), Some(ev), "seed {seed}");
    }
}

/// The TLB never exceeds capacity, and a just-inserted entry is
/// always found.
#[test]
fn tlb_capacity_and_lookup() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed);
        let ops: Vec<(u32, u32, u32)> = (0..rng.gen_range(1..300usize))
            .map(|_| {
                (
                    rng.gen_range(0..200u32),
                    rng.gen_range(0..512u32),
                    rng.gen_range(1..6u32),
                )
            })
            .collect();
        let mut tlb = Tlb::new();
        for &(vpn, ppn, asid) in &ops {
            tlb.insert(Vpn(vpn), Ppn(ppn), asid);
            assert_eq!(tlb.peek(Vpn(vpn), asid), Some(Ppn(ppn)), "seed {seed}");
            assert!(tlb.occupancy() <= TLB_ENTRIES, "seed {seed}");
        }
        // Flushing an asid removes exactly its entries.
        let victim = ops[0].2;
        tlb.flush_asid(victim);
        for &(vpn, _, asid) in &ops {
            if asid == victim {
                assert_eq!(tlb.peek(Vpn(vpn), asid), None, "seed {seed}");
            }
        }
    }
}

/// A set-associative cache never exceeds its capacity and never
/// evicts a block that still hits.
#[test]
fn cache_capacity_invariant() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed);
        let assoc = [1u32, 2, 4][rng.gen_range(0..3usize)];
        let blocks: Vec<u64> = (0..rng.gen_range(1..300usize))
            .map(|_| rng.gen_range(0..4096u64))
            .collect();
        let config = CacheConfig::set_associative(16 * 1024, assoc);
        let lines = (config.size_bytes / config.block_bytes) as usize;
        let mut cache = Cache::new(config);
        for &b in &blocks {
            cache.access(BlockAddr(b), b % 3 == 0);
            assert!(cache.resident_lines() <= lines, "seed {seed}");
            assert!(
                cache.probe(BlockAddr(b)),
                "seed {seed}: just-filled block resident"
            );
        }
    }
}

/// Page invalidation drops exactly the page's resident lines and
/// reports each of them, on the page-targeted path (64 KB: 4096 sets)
/// and on the full-scan fallback (1 KB: 64 sets, fewer than a page's
/// 256 blocks), direct-mapped and two-way.
#[test]
fn invalidate_page_is_exact() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed);
        let blocks: Vec<u64> = (0..rng.gen_range(1..200usize))
            .map(|_| rng.gen_range(0..4096u64))
            .collect();
        let page = rng.gen_range(0..16u32);
        for config in [
            CacheConfig::direct_mapped(64 * 1024),
            CacheConfig::direct_mapped(1024),
            CacheConfig::set_associative(64 * 1024, 2),
            CacheConfig::set_associative(1024, 2),
        ] {
            let mut cache = Cache::new(config);
            for &b in &blocks {
                cache.access(BlockAddr(b), false);
            }
            let mut expect: Vec<BlockAddr> = cache
                .iter_resident()
                .filter(|b| b.page() == Ppn(page))
                .collect();
            let mut got = Vec::new();
            let dropped = cache.invalidate_page_each(Ppn(page), |b| got.push(b));
            expect.sort_unstable();
            got.sort_unstable();
            assert_eq!(dropped, expect.len(), "seed {seed} {config:?}");
            assert_eq!(got, expect, "seed {seed} {config:?}");
            for b in cache.iter_resident() {
                assert_ne!(b.page(), Ppn(page), "seed {seed} {config:?}");
            }
        }
    }
}

/// PAddr block/page arithmetic is consistent for any address.
#[test]
fn address_arithmetic() {
    for seed in 0..CASES * 8 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let raw = rng.gen_range(0..1u64 << 34);
        let a = PAddr::new(raw);
        assert_eq!(a.block().base().raw(), raw & !15, "seed {seed}");
        assert_eq!(a.page().base().raw(), raw & !4095, "seed {seed}");
        assert_eq!(a.block().page(), a.page(), "seed {seed}");
        assert!(a.offset_in_block() < 16, "seed {seed}");
        assert!(a.offset_in_page() < 4096, "seed {seed}");
    }
}

/// Lock-table invariants under random acquire/release schedules:
/// locality and contention counters never exceed acquires.
#[test]
fn lock_table_counters() {
    use oscar_os::{LockFamily, LockId, LockTable};
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed);
        let seq: Vec<(u8, bool)> = (0..rng.gen_range(1..400usize))
            .map(|_| (rng.gen_range(0..4u8), rng.gen_bool(0.5)))
            .collect();
        let mut t = LockTable::new();
        let id = LockId::singleton(LockFamily::Memlock);
        let mut holder: Option<u8> = None;
        let mut now = 0u64;
        for &(cpu, release) in &seq {
            now += 10;
            if release {
                if holder == Some(cpu) {
                    t.release(id, CpuId(cpu), now);
                    holder = None;
                }
            } else if holder.is_none() {
                if t.try_acquire(id, CpuId(cpu), now) == oscar_os::locks::TryAcquire::Acquired {
                    holder = Some(cpu);
                }
            } else if holder != Some(cpu) {
                let _ = t.try_acquire(id, CpuId(cpu), now);
            }
        }
        let s = t.family_stats(LockFamily::Memlock);
        assert!(s.local_reacquires <= s.acquires, "seed {seed}");
        assert!(s.failed_first <= s.attempts, "seed {seed}");
        assert!(s.releases <= s.acquires, "seed {seed}");
        assert!(s.llsc_misses <= s.sync_ops + s.acquires, "seed {seed}");
    }
}

/// Histograms preserve sample counts and means.
#[test]
fn histogram_conservation() {
    use oscar_core::histogram::Histogram;
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed);
        let values: Vec<u64> = (0..rng.gen_range(1..200usize))
            .map(|_| rng.gen_range(0..10_000u64))
            .collect();
        let mut h = Histogram::linear(5_000, 50);
        for &v in &values {
            h.record(v);
        }
        assert_eq!(h.count(), values.len() as u64, "seed {seed}");
        let binned: u64 = h.rows().map(|(_, _, n, _)| n).sum::<u64>() + h.overflow();
        assert_eq!(binned, values.len() as u64, "seed {seed}");
        let mean = values.iter().sum::<u64>() as f64 / values.len() as f64;
        assert!((h.mean() - mean).abs() < 1e-6, "seed {seed}");
    }
}

/// The positional escape decoder recovers every event even when
/// four CPUs' sequences interleave arbitrarily with miss traffic.
#[test]
fn decoder_survives_arbitrary_interleavings() {
    use oscar_core::decode::{Decoded, Decoder};
    use oscar_machine::monitor::BusRecord;
    use oscar_machine::BusKind;

    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed);
        let schedule: Vec<u8> = (0..rng.gen_range(40..160usize))
            .map(|_| rng.gen_range(0..4u8))
            .collect();
        let noise: u32 = rng.gen();

        // Each CPU repeatedly emits a TlbSet (5 escape reads) followed
        // by one even-address miss; the schedule drives whose next
        // record is appended.
        let mut queues: Vec<Vec<(PAddr, BusKind)>> = (0..4)
            .map(|c| {
                let ev = OsEvent::TlbSet {
                    index: c as u32,
                    vpn: noise.wrapping_add(c as u32) & 0xffff,
                    ppn: c as u32 * 7 + 1,
                    pid: c as u32 + 1,
                };
                let mut v: Vec<(PAddr, BusKind)> = ev
                    .encode()
                    .into_iter()
                    .map(|a| (a, BusKind::UncachedRead))
                    .collect();
                v.push((PAddr::new(0x1000 * (c as u64 + 1)), BusKind::Read));
                v
            })
            .collect();
        let mut cursors = [0usize; 4];
        let mut decoder = Decoder::new(4);
        let mut events = 0u32;
        let mut expected = [0u32; 4];
        for (t, &c) in schedule.iter().enumerate() {
            let q = &mut queues[c as usize];
            let (paddr, kind) = q[cursors[c as usize] % q.len()];
            cursors[c as usize] += 1;
            // The event completes when its fifth escape read (queue
            // index 4) has been pushed.
            if cursors[c as usize] % q.len() == 5 {
                expected[c as usize] += 1;
            }
            let rec = BusRecord {
                time: t as u64,
                cpu: CpuId(c),
                paddr,
                kind,
                sub: 0,
            };
            if let Some(Decoded::Event { event, cpu, .. }) = decoder.push(rec) {
                events += 1;
                // The decoded event must be the one this CPU emits.
                match event {
                    OsEvent::TlbSet { pid, .. } => {
                        assert_eq!(pid, cpu.0 as u32 + 1, "seed {seed}")
                    }
                    other => panic!("seed {seed}: unexpected event {other:?}"),
                }
            }
        }
        assert_eq!(events, expected.iter().sum::<u32>(), "seed {seed}");
        assert_eq!(decoder.undecodable, 0, "seed {seed}");
    }
}

/// The packed direct-mapped and two-way representations are drop-in
/// replacements for the generic associative model: random mixed-op
/// streams produce identical lookup results, victims, and final
/// contents.
#[test]
fn packed_fast_paths_match_generic_cache() {
    for config in [
        CacheConfig::direct_mapped(4 * 1024),
        CacheConfig::set_associative(8 * 1024, 2),
    ] {
        for seed in 0..CASES {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut fast = Cache::new(config);
            let mut oracle = Cache::new_generic(config);
            assert!(
                fast.is_direct_fast_path() || fast.is_two_way_fast_path(),
                "config {config:?} should select a packed representation"
            );
            assert!(
                !oracle.is_direct_fast_path() && !oracle.is_two_way_fast_path(),
                "new_generic must opt out of the packed paths"
            );
            for step in 0..rng.gen_range(100..800usize) {
                let block = BlockAddr(rng.gen_range(0..1536u64));
                match rng.gen_range(0..100u32) {
                    0..=59 => {
                        let write = rng.gen_range(0..4u32) == 0;
                        assert_eq!(
                            fast.access(block, write),
                            oracle.access(block, write),
                            "seed {seed} step {step}: access {block} write={write}"
                        );
                    }
                    60..=74 => {
                        assert_eq!(
                            fast.invalidate(block),
                            oracle.invalidate(block),
                            "seed {seed} step {step}: invalidate {block}"
                        );
                    }
                    75..=84 => {
                        fast.clean(block);
                        oracle.clean(block);
                    }
                    85..=92 => {
                        let dirty = rng.gen_range(0..2u32) == 1;
                        assert_eq!(
                            fast.fill(block, dirty),
                            oracle.fill(block, dirty),
                            "seed {seed} step {step}: fill {block} dirty={dirty}"
                        );
                    }
                    93..=97 => {
                        let page = Ppn(rng.gen_range(0..6u32));
                        assert_eq!(
                            fast.invalidate_page(page),
                            oracle.invalidate_page(page),
                            "seed {seed} step {step}: invalidate_page {page:?}"
                        );
                    }
                    _ => {
                        assert_eq!(
                            fast.invalidate_all(),
                            oracle.invalidate_all(),
                            "seed {seed} step {step}: invalidate_all"
                        );
                    }
                }
                assert_eq!(
                    fast.probe_dirty(block),
                    oracle.probe_dirty(block),
                    "seed {seed} step {step}: probe_dirty {block}"
                );
            }
            assert_eq!(
                fast.resident_lines(),
                oracle.resident_lines(),
                "seed {seed}: resident count diverged"
            );
            let mut fast_lines: Vec<BlockAddr> = fast.iter_resident().collect();
            let mut oracle_lines: Vec<BlockAddr> = oracle.iter_resident().collect();
            fast_lines.sort();
            oracle_lines.sort();
            assert_eq!(fast_lines, oracle_lines, "seed {seed}: contents diverged");
        }
    }
}

/// The sharer presence directory is observationally invisible: a
/// machine with the filter disabled (brute-force snoop of every other
/// CPU) produces identical access outcomes, counters, residency, and
/// monitor records for any access stream.
#[test]
fn presence_filter_is_observationally_invisible() {
    // Small caches so random streams produce displacements, sharing
    // invalidations, and upgrades, not just cold fills.
    let mut config = MachineConfig::sgi_4d340();
    config.icache = CacheConfig::direct_mapped(1024);
    config.l1d = CacheConfig::direct_mapped(512);
    config.l2d = CacheConfig::set_associative(2048, 2);
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut filtered = Machine::new(config.clone());
        let mut brute = Machine::new(config.clone());
        brute.disable_presence_filter();
        for step in 0..rng.gen_range(200..1000usize) {
            let cpu = CpuId(rng.gen_range(0..config.num_cpus));
            // 16 KB of physical addresses: 4 pages, 1024 blocks.
            let paddr = PAddr::new(rng.gen_range(0..0x4000u64) & !0x3);
            match rng.gen_range(0..12u32) {
                0..=6 => {
                    let write = rng.gen_range(0..3u32) == 0;
                    assert_eq!(
                        filtered.data_access(cpu, paddr, write, 1),
                        brute.data_access(cpu, paddr, write, 1),
                        "seed {seed} step {step}: data_access {paddr} write={write}"
                    );
                }
                7..=9 => {
                    let instrs = rng.gen_range(1..5u32);
                    assert_eq!(
                        filtered.fetch(cpu, paddr, instrs),
                        brute.fetch(cpu, paddr, instrs),
                        "seed {seed} step {step}: fetch {paddr}"
                    );
                }
                10 => {
                    assert_eq!(
                        filtered.uncached_read(cpu, paddr),
                        brute.uncached_read(cpu, paddr),
                        "seed {seed} step {step}: uncached_read {paddr}"
                    );
                }
                _ => {
                    let page = paddr.page();
                    assert_eq!(
                        filtered.flush_icache_page(page),
                        brute.flush_icache_page(page),
                        "seed {seed} step {step}: flush_icache_page {page:?}"
                    );
                }
            }
        }
        assert_eq!(
            filtered.bus_transactions(),
            brute.bus_transactions(),
            "seed {seed}: bus transaction counts diverged"
        );
        for c in 0..config.num_cpus {
            assert_eq!(
                filtered.counters(CpuId(c)),
                brute.counters(CpuId(c)),
                "seed {seed}: counters diverged on CPU {c}"
            );
        }
        for b in 0..1024u64 {
            let block = BlockAddr(b);
            for c in 0..config.num_cpus {
                assert_eq!(
                    filtered.l2_probe(CpuId(c), block),
                    brute.l2_probe(CpuId(c), block),
                    "seed {seed}: L2 residency diverged on CPU {c} block {block}"
                );
            }
        }
        assert_eq!(
            filtered.monitor().records(),
            brute.monitor().records(),
            "seed {seed}: monitor traces diverged"
        );
    }
}
