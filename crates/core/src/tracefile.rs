//! Trace persistence: save a monitor trace (plus the metadata the
//! postprocessor needs) to a compact binary file and load it back.
//!
//! The paper's setup ships trace segments to a remote machine for
//! offline postprocessing; this module is that offline path. A saved
//! trace carries everything [`crate::analyze()`] requires — the records,
//! the machine configuration essentials, the kernel layout recipe and
//! the measured window — so analysis can run later, elsewhere, or
//! repeatedly without re-simulation. OS-side ground-truth counters are
//! *not* stored (the real monitor never had them either).

use std::io::{self, Read, Write};

use oscar_machine::addr::{CpuId, PAddr};
use oscar_machine::config::MAX_MEMORY_BYTES;
use oscar_machine::monitor::BusRecord;
use oscar_machine::{BusKind, Coherence, MachineConfig};
use oscar_os::{Layout, OsStats, Rid};
use oscar_workloads::WorkloadKind;

use crate::experiment::RunArtifacts;

// TR2: each record carries a sub-block offset byte after the address.
// TR3: the header carries the coherence backend and directory bank
// count, so a trace from a directory machine keeps its run tag.
// TR4: the header carries each cache's size and associativity, so a
// trace re-analyzes against the caches it was recorded on.
const MAGIC: &[u8; 8] = b"OSCARTR4";

fn kind_code(k: BusKind) -> u8 {
    match k {
        BusKind::Read => 0,
        BusKind::ReadEx => 1,
        BusKind::Upgrade => 2,
        BusKind::WriteBack => 3,
        BusKind::UncachedRead => 4,
    }
}

fn kind_from(code: u8) -> io::Result<BusKind> {
    Ok(match code {
        0 => BusKind::Read,
        1 => BusKind::ReadEx,
        2 => BusKind::Upgrade,
        3 => BusKind::WriteBack,
        4 => BusKind::UncachedRead,
        other => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad record kind {other}"),
            ))
        }
    })
}

/// Encoded size of one record: time (`u64`), CPU, kind code, physical
/// address (`u64`), sub-block offset — little-endian, no padding.
const RECORD_BYTES: usize = 19;

/// Records [`load`] reads per `read_exact` (about 76 KiB a chunk).
const CHUNK_RECORDS: usize = 4096;

fn encode_record(rec: &BusRecord) -> [u8; RECORD_BYTES] {
    let mut b = [0u8; RECORD_BYTES];
    b[0..8].copy_from_slice(&rec.time.to_le_bytes());
    b[8] = rec.cpu.0;
    b[9] = kind_code(rec.kind);
    b[10..18].copy_from_slice(&rec.paddr.raw().to_le_bytes());
    b[18] = rec.sub;
    b
}

/// Decodes one record, rejecting a CPU the machine lacks, an unknown
/// kind code and an address past the largest physical memory (its
/// block index would not fit the analyzer's 32-bit miss streams).
fn decode_record(b: &[u8; RECORD_BYTES], num_cpus: u8) -> io::Result<BusRecord> {
    let le_u64 = |at: usize| u64::from_le_bytes(b[at..at + 8].try_into().expect("8 bytes"));
    if b[8] >= num_cpus {
        return Err(invalid(format!(
            "record from cpu {} on a {num_cpus}-CPU machine",
            b[8]
        )));
    }
    let paddr = le_u64(10);
    if paddr >= MAX_MEMORY_BYTES {
        return Err(invalid(format!(
            "record address {paddr:#x} beyond the 64 GiB physical limit"
        )));
    }
    Ok(BusRecord {
        time: le_u64(0),
        cpu: CpuId(b[8]),
        kind: kind_from(b[9])?,
        paddr: PAddr::new(paddr),
        sub: b[18],
    })
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn write_u64(w: &mut impl Write, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn read_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

/// Reads a header count stored as `u64` that must fit a `u8`.
fn read_u8_field(r: &mut impl Read, name: &str) -> io::Result<u8> {
    let v = read_u64(r)?;
    u8::try_from(v).map_err(|_| invalid(format!("{name} {v} out of range")))
}

fn coherence_from(code: u64) -> io::Result<Coherence> {
    match code {
        0 => Ok(Coherence::Snoop),
        1 => Ok(Coherence::MesiDir),
        other => Err(invalid(format!("bad coherence code {other}"))),
    }
}

fn workload_code(w: WorkloadKind) -> u64 {
    match w {
        WorkloadKind::Pmake => 0,
        WorkloadKind::Multpgm => 1,
        WorkloadKind::Oracle => 2,
    }
}

fn workload_from(code: u64) -> io::Result<WorkloadKind> {
    Ok(match code {
        0 => WorkloadKind::Pmake,
        1 => WorkloadKind::Multpgm,
        2 => WorkloadKind::Oracle,
        other => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad workload code {other}"),
            ))
        }
    })
}

/// Saves a run's trace and analysis metadata.
///
/// # Errors
///
/// Propagates any I/O error from the writer.
pub fn save(art: &RunArtifacts, w: &mut impl Write) -> io::Result<()> {
    w.write_all(MAGIC)?;
    write_u64(w, art.machine_config.num_cpus as u64)?;
    write_u64(w, art.machine_config.clusters as u64)?;
    write_u64(w, art.machine_config.remote_fill_extra)?;
    write_u64(w, art.machine_config.memory_bytes)?;
    write_u64(w, art.layout.replicas() as u64)?;
    write_u64(w, art.measure_start)?;
    write_u64(w, art.measure_end)?;
    write_u64(w, workload_code(art.workload))?;
    let m = &art.machine_config;
    write_u64(
        w,
        match m.coherence {
            Coherence::Snoop => 0,
            Coherence::MesiDir => 1,
        },
    )?;
    write_u64(w, u64::from(m.dir_banks))?;
    for cache in [&m.icache, &m.l1d, &m.l2d] {
        write_u64(w, cache.size_bytes)?;
        write_u64(w, u64::from(cache.assoc))?;
    }
    // Layout recipe: the routine link order as u16 indices into Rid::ALL.
    let order = art.layout.order();
    write_u64(w, order.len() as u64)?;
    for rid in order {
        let idx = Rid::ALL
            .iter()
            .position(|r| r == rid)
            .expect("order contains only known routines") as u16;
        w.write_all(&idx.to_le_bytes())?;
    }
    write_u64(w, art.trace.len() as u64)?;
    for rec in &art.trace {
        w.write_all(&encode_record(rec))?;
    }
    Ok(())
}

/// Loads a saved trace back into analyzable [`RunArtifacts`].
///
/// The returned artifacts carry *empty* OS ground-truth and lock
/// statistics (the monitor never sees those); everything
/// [`crate::analyze()`] needs is present.
///
/// # Errors
///
/// Returns `InvalidData` for malformed files — including a header that
/// describes an invalid machine, a kernel layout that does not fit its
/// memory, a window that ends before it starts, or a record from a CPU
/// the machine does not have — and propagates reader errors
/// (`UnexpectedEof` for a truncated file).
///
/// Reads exactly the trace's bytes, in chunks of records, so `r` needs
/// no buffering of its own and is left just past the trace.
pub fn load(r: &mut impl Read) -> io::Result<RunArtifacts> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "bad magic"));
    }
    let num_cpus = read_u8_field(r, "num_cpus")?;
    let clusters = read_u8_field(r, "clusters")?;
    let remote_fill_extra = read_u64(r)?;
    let memory_bytes = read_u64(r)?;
    let replicas = read_u8_field(r, "replicas")?;
    let measure_start = read_u64(r)?;
    let measure_end = read_u64(r)?;
    if measure_end < measure_start {
        return Err(invalid(format!(
            "window ends at {measure_end}, before its start {measure_start}"
        )));
    }
    let workload = workload_from(read_u64(r)?)?;
    let mut machine_config = MachineConfig::sgi_4d340();
    machine_config.num_cpus = num_cpus;
    machine_config.clusters = clusters;
    machine_config.remote_fill_extra = remote_fill_extra;
    machine_config.memory_bytes = memory_bytes;
    machine_config.coherence = coherence_from(read_u64(r)?)?;
    machine_config.dir_banks =
        u16::try_from(read_u64(r)?).map_err(|_| invalid("dir_banks out of range".into()))?;
    for cache in [
        &mut machine_config.icache,
        &mut machine_config.l1d,
        &mut machine_config.l2d,
    ] {
        cache.size_bytes = read_u64(r)?;
        cache.assoc =
            u32::try_from(read_u64(r)?).map_err(|_| invalid("cache assoc out of range".into()))?;
    }
    // Validation bounds the cache sizes before the analyzer allocates
    // mirrors of them.
    machine_config
        .validate()
        .map_err(|e| invalid(format!("bad machine: {e}")))?;
    let order_len = read_u64(r)? as usize;
    if order_len != Rid::ALL.len() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "layout order length mismatch (incompatible kernel version)",
        ));
    }
    let mut order_bytes = vec![0u8; 2 * order_len];
    r.read_exact(&mut order_bytes)?;
    let mut order = Vec::with_capacity(order_len);
    let mut seen = vec![false; order_len];
    for b in order_bytes.chunks_exact(2) {
        let idx = u16::from_le_bytes([b[0], b[1]]) as usize;
        if seen.get(idx).copied() != Some(false) {
            return Err(invalid(format!("bad or repeated routine index {idx}")));
        }
        seen[idx] = true;
        order.push(Rid::ALL[idx]);
    }
    let layout = Layout::try_with_order_and_replicas(memory_bytes, order, replicas.max(1))
        .map_err(|e| invalid(format!("bad layout: {e}")))?;

    // The record section, a chunk per `read_exact`: never a read past
    // the last record, so the reader is left just after the trace.
    let n = read_u64(r)? as usize;
    let mut trace = Vec::with_capacity(n.min(1 << 24));
    let mut chunk = vec![0u8; n.min(CHUNK_RECORDS) * RECORD_BYTES];
    let mut left = n;
    while left > 0 {
        let take = left.min(CHUNK_RECORDS);
        let bytes = &mut chunk[..take * RECORD_BYTES];
        r.read_exact(bytes)?;
        for rec in bytes.chunks_exact(RECORD_BYTES) {
            let rec = rec.try_into().expect("chunks_exact yields whole records");
            trace.push(decode_record(rec, num_cpus)?);
        }
        left -= take;
    }

    Ok(RunArtifacts {
        trace_records: trace.len() as u64,
        trace,
        os_stats: OsStats::new(num_cpus as usize),
        lock_stats: Vec::new(),
        cpu_counters: Vec::new(),
        layout,
        machine_config,
        measure_start,
        measure_end,
        workload,
        obs: None,
        stage_phases: Vec::new(),
        checkpoint: None,
        interconnect: Default::default(),
        engine: Default::default(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::analyze;
    use crate::experiment::{run, ExperimentConfig};

    #[test]
    fn roundtrip_preserves_trace_and_analysis() {
        let art = run(&ExperimentConfig::new(WorkloadKind::Pmake)
            .warmup(2_000_000)
            .measure(3_000_000));
        let mut buf = Vec::new();
        save(&art, &mut buf).expect("save");
        let loaded = load(&mut buf.as_slice()).expect("load");
        assert_eq!(loaded.trace.len(), art.trace.len());
        assert_eq!(loaded.trace, art.trace);
        assert_eq!(loaded.measure_start, art.measure_start);
        assert_eq!(loaded.workload, art.workload);
        // The offline analysis equals the online one.
        let a = analyze(&art);
        let b = analyze(&loaded);
        assert_eq!(a.os.total(), b.os.total());
        assert_eq!(a.app.total(), b.app.total());
        assert_eq!(a.invocations.count, b.invocations.count);
        assert_eq!(a.undecodable, 0);
        assert_eq!(b.undecodable, 0);
    }

    #[test]
    fn rejects_garbage() {
        assert!(load(&mut &b"not a trace"[..]).is_err());
        let mut bad = MAGIC.to_vec();
        bad.extend_from_slice(&[0u8; 16]);
        assert!(load(&mut bad.as_slice()).is_err());
    }

    /// Byte offset of header field `i` (the `u64`s after the magic, in
    /// `save` order: num_cpus, clusters, remote_fill_extra,
    /// memory_bytes, replicas, measure_start, measure_end, workload,
    /// coherence, dir_banks, then size and associativity of the
    /// I-cache, L1 and L2, and the routine count).
    fn field(i: usize) -> usize {
        MAGIC.len() + 8 * i
    }

    /// The `u64` header fields before the routine indices.
    const HEADER_FIELDS: usize = 17;

    /// Each malformed file used to abort the analyzer or report a
    /// nonsense window; each must now fail to load with `InvalidData`.
    #[test]
    fn rejects_malformed_machine_window_and_records() {
        let art = run(&ExperimentConfig::new(WorkloadKind::Pmake)
            .warmup(500_000)
            .measure(500_000));
        assert!(!art.trace.is_empty());
        let mut good = Vec::new();
        save(&art, &mut good).expect("save");
        assert!(load(&mut good.as_slice()).is_ok(), "unpatched file loads");
        let start = u64::from_le_bytes(good[field(5)..field(6)].try_into().unwrap());
        // The header fields, the routine order, the record count, then
        // the first record's time and its CPU byte.
        let cpu_byte = field(HEADER_FIELDS) + 2 * Rid::ALL.len() + 8 + 8;
        let patches: [(&str, usize, Vec<u8>); 4] = [
            // 256 CPUs used to wrap to 0 when narrowed.
            ("num_cpus 256", field(0), 256u64.to_le_bytes().to_vec()),
            (
                "window ends before it starts",
                field(6),
                (start - 1).to_le_bytes().to_vec(),
            ),
            ("record from cpu 200", cpu_byte, vec![200]),
            ("coherence code 7", field(8), 7u64.to_le_bytes().to_vec()),
        ];
        for (what, at, bytes) in patches {
            let mut buf = good.clone();
            buf[at..at + bytes.len()].copy_from_slice(&bytes);
            let err = load(&mut buf.as_slice()).expect_err(what);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {err}");
        }
    }

    #[test]
    fn file_size_is_compact() {
        let art = run(&ExperimentConfig::new(WorkloadKind::Pmake)
            .warmup(1_000_000)
            .measure(1_000_000));
        let mut buf = Vec::new();
        save(&art, &mut buf).expect("save");
        // The header, then RECORD_BYTES per record and nothing else.
        assert_eq!(buf.len(), records_at() + art.trace.len() * RECORD_BYTES);
    }

    /// Byte offset of the first record: the header fields, the routine
    /// order, then the record count.
    fn records_at() -> usize {
        field(HEADER_FIELDS) + 2 * Rid::ALL.len() + 8
    }

    /// A short real run whose trace is replaced by `n` synthetic records
    /// that cycle through every CPU, kind code and sub-block offset.
    fn with_records(n: usize) -> RunArtifacts {
        let mut art = run(&ExperimentConfig::new(WorkloadKind::Pmake)
            .warmup(100_000)
            .measure(100_000));
        let kinds = [
            BusKind::Read,
            BusKind::ReadEx,
            BusKind::Upgrade,
            BusKind::WriteBack,
            BusKind::UncachedRead,
        ];
        let cpus = art.machine_config.num_cpus as usize;
        art.trace = (0..n)
            .map(|i| BusRecord {
                time: art.measure_start + 3 * i as u64,
                cpu: CpuId((i % cpus) as u8),
                paddr: PAddr::new(0x40_0000 + 0x9e37 * i as u64),
                kind: kinds[i % kinds.len()],
                sub: (i % 251) as u8,
            })
            .collect();
        art.trace_records = n as u64;
        art
    }

    fn saved(art: &RunArtifacts) -> Vec<u8> {
        let mut buf = Vec::new();
        save(art, &mut buf).expect("save");
        buf
    }

    /// Everything `load` restores from a file.
    fn assert_same(a: &RunArtifacts, b: &RunArtifacts) {
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.trace_records, b.trace_records);
        assert_eq!(a.machine_config, b.machine_config);
        assert_eq!(a.layout.order(), b.layout.order());
        assert_eq!(a.layout.replicas(), b.layout.replicas());
        assert_eq!(a.layout.memory_bytes(), b.layout.memory_bytes());
        assert_eq!(
            (a.measure_start, a.measure_end, a.workload),
            (b.measure_start, b.measure_end, b.workload)
        );
    }

    #[test]
    fn roundtrips_at_chunk_boundaries() {
        for n in [0, 1, CHUNK_RECORDS - 1, CHUNK_RECORDS, CHUNK_RECORDS + 1] {
            let art = with_records(n);
            let buf = saved(&art);
            assert_eq!(buf.len(), records_at() + n * RECORD_BYTES, "{n} records");
            let loaded = load(&mut buf.as_slice()).expect("load");
            assert_same(&art, &loaded);
        }
    }

    /// A reader that hands out at most 7 bytes per `read`.
    struct Trickle<'a>(&'a [u8]);

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = buf.len().min(7).min(self.0.len());
            buf[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    #[test]
    fn short_reads_and_trailing_bytes_do_not_change_what_loads() {
        let buf = saved(&with_records(CHUNK_RECORDS + 5));
        let from_slice = load(&mut buf.as_slice()).expect("slice");
        let from_trickle = load(&mut Trickle(&buf)).expect("trickle");
        assert_same(&from_slice, &from_trickle);
        // `load` stops at the trace's last byte.
        let mut tailed = buf.clone();
        tailed.extend_from_slice(b"tail");
        let mut rest = tailed.as_slice();
        assert_same(&from_slice, &load(&mut rest).expect("tailed"));
        assert_eq!(rest, b"tail");
    }

    #[test]
    fn truncated_record_section_is_unexpected_eof() {
        let buf = saved(&with_records(CHUNK_RECORDS + 1));
        let first = records_at();
        for cut in [
            first + 1,
            first + RECORD_BYTES * CHUNK_RECORDS - 1,
            first + RECORD_BYTES * CHUNK_RECORDS + 3,
            buf.len() - 1,
        ] {
            let err = load(&mut &buf[..cut]).expect_err("truncated");
            assert_eq!(
                err.kind(),
                io::ErrorKind::UnexpectedEof,
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn record_count_beyond_the_records_present_fails() {
        let n = CHUNK_RECORDS + 2;
        let buf = saved(&with_records(n));
        let count_at = records_at() - 8;
        for count in [n as u64 + 1, 2 * n as u64, u64::MAX] {
            let mut bad = buf.clone();
            bad[count_at..records_at()].copy_from_slice(&count.to_le_bytes());
            assert!(load(&mut bad.as_slice()).is_err(), "count {count}");
        }
    }

    #[test]
    fn bad_cpu_or_kind_past_the_first_chunk_is_invalid_data() {
        let art = with_records(CHUNK_RECORDS + 3);
        let buf = saved(&art);
        let rec = records_at() + (CHUNK_RECORDS + 1) * RECORD_BYTES;
        let patches = [
            ("cpu", rec + 8, art.machine_config.num_cpus),
            ("kind", rec + 9, 5),
            // The address's top byte: 2^56, far past 64 GiB.
            ("address", rec + 17, 1),
        ];
        for (what, at, byte) in patches {
            let mut bad = buf.clone();
            bad[at] = byte;
            let err = load(&mut bad.as_slice()).expect_err(what);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {err}");
        }
    }

    /// A header whose memory cannot hold the kernel layout used to
    /// abort the process inside `Layout`.
    #[test]
    fn memory_too_small_for_the_kernel_is_invalid_data() {
        let mut buf = saved(&with_records(3));
        buf[field(3)..field(4)].copy_from_slice(&(1u64 << 20).to_le_bytes());
        let err = load(&mut buf.as_slice()).expect_err("1 MiB of memory");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains("does not fit"), "{err}");
    }

    /// Past 64 GiB a block index no longer fits 32 bits: the header is
    /// refused before any record is read.
    #[test]
    fn memory_past_64_gib_is_invalid_data() {
        let mut buf = saved(&with_records(3));
        let too_big = MAX_MEMORY_BYTES + 4096;
        buf[field(3)..field(4)].copy_from_slice(&too_big.to_le_bytes());
        let err = load(&mut buf.as_slice()).expect_err("64 GiB + 4 KiB of memory");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains("64 GiB"), "{err}");
    }

    /// The coherence backend and bank count round-trip, so a trace
    /// from a directory machine re-analyzes under its own run tag.
    #[test]
    fn directory_machine_keeps_its_tag() {
        let mut art = with_records(3);
        art.machine_config.coherence = Coherence::MesiDir;
        art.machine_config.dir_banks = 8;
        let loaded = load(&mut saved(&art).as_slice()).expect("load");
        assert_same(&art, &loaded);
        assert_eq!(loaded.tag(), "pmake-c4-dir");
    }

    /// Every cache's geometry round-trips, so the offline mirrors match
    /// the caches the trace was recorded on.
    #[test]
    fn cache_geometry_round_trips() {
        let mut art = with_records(3);
        art.machine_config.icache.size_bytes = 16 * 1024;
        art.machine_config.l1d.size_bytes = 32 * 1024;
        art.machine_config.l2d.size_bytes = 512 * 1024;
        art.machine_config.l2d.assoc = 2;
        let loaded = load(&mut saved(&art).as_slice()).expect("load");
        assert_same(&art, &loaded);
        assert_eq!(loaded.tag(), "pmake-c4");
    }

    /// A header naming an enormous cache is refused before the analyzer
    /// could allocate a mirror of it.
    #[test]
    fn oversized_cache_header_is_invalid_data() {
        let buf = saved(&with_records(3));
        for (what, at) in [
            ("icache", field(10)),
            ("l1d", field(12)),
            ("l2d", field(14)),
        ] {
            let mut bad = buf.clone();
            bad[at..at + 8].copy_from_slice(&(1u64 << 50).to_le_bytes());
            let err = load(&mut bad.as_slice()).expect_err(what);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {err}");
            assert!(err.to_string().contains(what), "{what}: {err}");
        }
        let mut bad = buf.clone();
        bad[field(11)..field(12)].copy_from_slice(&(1u64 << 40).to_le_bytes());
        let err = load(&mut bad.as_slice()).expect_err("assoc 2^40");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }
}
