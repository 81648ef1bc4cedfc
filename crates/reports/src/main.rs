//! `oscar-reports`: regenerate the paper's tables and figures.
//!
//! Run `oscar-reports --help` for the flag reference. Each workload
//! runs through the streaming pipeline (simulation and analysis
//! overlapped over a bounded channel), and independent workloads fan
//! across `--jobs` workers. Every run seeds its own RNG from its
//! configuration, so reports — and the `--trace-json` /
//! `--metrics-out` / `--provenance-out` observability exports — are
//! reproducible bit-for-bit regardless of parallelism.
//!
//! Two subcommands ride on the same engine: `oscar-reports query`
//! filters/groups/aggregates one of four row sources (monitor records,
//! lock spans, hot lines, wait-for edges) through one evaluator,
//! folding record rows as they stream instead of materializing the
//! trace, and `oscar-reports diff` compares two metrics/provenance
//! exports with per-prefix tolerances — the golden-metrics regression
//! gate in CI.

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

use oscar_core::driver::{report_from_trace, run_reports_pooled, ReportOutput, ReportRequest};
use oscar_core::observe::merge_hotlines_json;
use oscar_core::perf::{PerfSummary, PhaseStats};
use oscar_core::query::{compile, run_compiled};
use oscar_core::{
    merge_causal_json, merge_metrics_json, merge_provenance_json, merge_trace_json, parallel_map,
    tracefile, ExperimentConfig,
};
use oscar_machine::{Coherence, MachineConfig};
use oscar_obs::query::QuerySpec;
use oscar_obs::{diff_documents, Tolerance};
use oscar_workloads::WorkloadKind;

const HELP: &str = "\
oscar-reports: regenerate the ASPLOS 1992 OS-characterization tables and figures

usage: oscar-reports [WORKLOAD] [MEASURE] [WARMUP] [flags]
       oscar-reports query [WORKLOAD] [MEASURE] [WARMUP] [query flags]
       oscar-reports diff LEFT.json RIGHT.json [diff flags]

  WORKLOAD   pmake | multpgm | oracle | all        (default: all)
  MEASURE    measured window in cycles             (default: 45000000)
  WARMUP     warm-up cycles before measuring       (default: 45000000)

machine flags (report and query modes; see docs/SCALABILITY.md):
  --cpus LIST        comma-separated CPU counts to sweep (default: 4).
                     Counts other than 4 weak-scale the workload mix
                     and grow memory at the 4D/340's 8 MB per CPU
  --coherence LIST   coherence backends to sweep: snoop | mesi-dir |
                     both (default: snoop). Workloads x cpus x backends
                     runs as independent requests across --jobs;
                     non-default runs are tagged e.g. pmake-c8-dir
  --icache-kb N      per-CPU instruction-cache size in KB (default: 64)
  --l1-kb N          per-CPU L1 data-cache size in KB     (default: 64)
  --l2-kb N          per-CPU L2 data-cache size in KB     (default: 256)
  --l2-assoc N       L2 data-cache associativity          (default: 1)
  --dir-banks N      directory home banks under mesi-dir  (default: 4)
  Every combination is validated before any simulation starts.

flags:
  --jobs N, -j N     run workloads on N worker threads (default: 1;
                     all outputs are byte-identical for any N). Each
                     run simulates on one thread and analyzes on a
                     second, whatever N is
  --checkpoint-dir DIR
                     cache each run's post-warm-up snapshot in DIR,
                     keyed by configuration and code revision; later
                     runs of the same configuration (any MEASURE)
                     restore it instead of simulating the warm-up.
                     Outputs stay byte-identical. Adds checkpoint.*
                     counters to --metrics-out
  --csv DIR          also write the figure series as CSV files
  --save-trace DIR   save each run's raw monitor trace (.oscartrace)
  --from-trace FILE  skip simulation; analyze a saved trace on its own
                     machine and window (WORKLOAD, MEASURE, WARMUP and
                     flags that need a live run are ignored, with a
                     warning each)
  --perf-out FILE    write a BENCH_*.json-style perf summary
                     (wall-clock rates, plus per-stage occupancy rows —
                     stage/<tag>/{produce,analyze} with stall/starve
                     seconds and channel depth)
  --trace-json FILE  export per-CPU timelines (mode, OS-operation and
                     lock tracks, bus-occupancy counters) as Chrome
                     trace-event JSON; open in Perfetto or
                     chrome://tracing. Deterministic.
  --metrics-out FILE dump every counter/gauge/histogram (kernel probes,
                     per-lock spin/hold profiles with p50/p90/p99,
                     analyzer and pipeline self-metrics) as one sorted
                     JSON object. Deterministic.
  --provenance-out FILE
                     dump exhibit provenance: per-cell contribution
                     counts (which CPU/class/op/lock produced every
                     number in the paper report) as `exhibit.*` keys in
                     one sorted JSON object. Deterministic.
  --hotlines-out FILE
                     dump the hot-line attribution: the most actively
                     shared cache lines, symbolized against the kernel
                     layout, with per-class miss counts, invalidations,
                     sharer churn, CPU read/write sets and a
                     false-sharing verdict from per-CPU sub-block
                     footprints. Adds a \"most actively shared data\"
                     section to the report and hotline counter tracks
                     to --trace-json. Deterministic.
  --hotlines-top N   hot lines to keep per run (default: 50)
  --causal-out FILE  dump the causal synchronization profile: per-CPU
                     compute/memory-stall/spin/hold/idle segment
                     accounting, the cross-CPU wait-for graph (each
                     spin joined to the hold that blocked it, with the
                     holder's concurrent kernel op), the top wait
                     chains, the critical path with per-lock /
                     per-subsystem / per-symbol cycle attribution, and
                     Coz-style what-if curves predicting the makespan
                     change from speeding up each lock. Adds a
                     \"Critical path\" section to the report,
                     exhibit.causal.* metrics to --metrics-out and
                     wait-for flow arrows to --trace-json. Combine
                     with --hotlines-out to attach hot-line symbols to
                     each lock. Deterministic.
  --help, -h         print this help

query flags (see docs/OBSERVABILITY.md for the cookbook):
  --source S         records | locks | hotlines | waits
                                                   (default: records)
  --where F=V        predicate; repeatable, ANDed. Value lists
                     (class=sharing,inval) and ranges (time=0..500000)
  --by F1,F2         group-key fields              (default: one group)
  --agg A            count | sum:FIELD | hist:FIELD (default: count)
  --top N            keep only the N largest groups
  --out FILE         write the result JSON to FILE instead of stdout
  --jobs N, -j N     fan workloads across N threads (byte-identical)

diff flags:
  --tol [PREFIX=]REL    allowed relative delta for keys under PREFIX
                        (no prefix = all keys; default 0 = exact).
                        A prefix starting `*.` matches at any dot
                        boundary, e.g. `*.exhibit.causal.` covers the
                        causal keys of every tagged run
  --tol-abs [PREFIX=]N  allowed absolute delta for keys under PREFIX
  --max-lines N         drifted keys to print (default: 40)
  exits 1 when any key drifts beyond tolerance, 2 on usage errors

Observability is collected only when --trace-json, --metrics-out,
--provenance-out, --hotlines-out or --causal-out is given; flags that
are not given never change the exported bytes.";

/// Prints a clean error and exits with the usage status.
fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// Writes `data` to `path`, creating parent directories, with a clean
/// error (not a panic — the release profile aborts) on unwritable
/// paths.
fn write_file(path: &Path, data: &[u8]) {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        if let Err(e) = fs::create_dir_all(parent) {
            fail(&format!("cannot create {}: {e}", parent.display()));
        }
    }
    if let Err(e) = fs::write(path, data) {
        fail(&format!("cannot write {}: {e}", path.display()));
    }
    eprintln!("wrote {}", path.display());
}

fn parse_workloads(positional: &[String]) -> (Vec<WorkloadKind>, u64, u64) {
    let mut kinds = WorkloadKind::ALL.to_vec();
    if let Some(w) = positional.first() {
        kinds = match w.as_str() {
            "pmake" => vec![WorkloadKind::Pmake],
            "multpgm" => vec![WorkloadKind::Multpgm],
            "oracle" => vec![WorkloadKind::Oracle],
            "all" => WorkloadKind::ALL.to_vec(),
            other => fail(&format!(
                "unknown workload `{other}` (pmake | multpgm | oracle | all)"
            )),
        };
    }
    let parse_cycles = |s: &String| {
        s.parse()
            .unwrap_or_else(|_| fail(&format!("`{s}` is not a cycle count")))
    };
    let measure = positional.get(1).map_or(45_000_000, parse_cycles);
    let warmup = positional.get(2).map_or(45_000_000, parse_cycles);
    (kinds, measure, warmup)
}

fn parse_jobs(it: &mut std::slice::Iter<'_, String>) -> usize {
    it.next()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| fail("--jobs needs a positive integer"))
}

fn flag_value(it: &mut std::slice::Iter<'_, String>, flag: &str) -> String {
    it.next()
        .cloned()
        .unwrap_or_else(|| fail(&format!("{flag} needs a value")))
}

/// The machine axes of a sweep: CPU counts, coherence backends and
/// cache-geometry overrides. Shared by the report and query modes.
#[derive(Default)]
struct MachineFlags {
    cpus: Vec<u8>,
    coherence: Vec<Coherence>,
    icache_kb: Option<u64>,
    l1_kb: Option<u64>,
    l2_kb: Option<u64>,
    l2_assoc: Option<u32>,
    dir_banks: Option<u16>,
}

impl MachineFlags {
    /// Consumes `flag` (and its value) if it is a machine flag; returns
    /// whether it was one.
    fn parse_flag(&mut self, flag: &str, it: &mut std::slice::Iter<'_, String>) -> bool {
        fn num<T: std::str::FromStr>(it: &mut std::slice::Iter<'_, String>, flag: &str) -> T {
            let v = flag_value(it, flag);
            v.parse()
                .unwrap_or_else(|_| fail(&format!("{flag}: `{v}` is not a valid count")))
        }
        match flag {
            "--cpus" => {
                let v = flag_value(it, "--cpus");
                self.cpus = v
                    .split(',')
                    .map(|p| {
                        p.trim()
                            .parse::<u8>()
                            .ok()
                            .filter(|&n| n >= 1)
                            .unwrap_or_else(|| fail(&format!("--cpus: `{p}` is not a CPU count")))
                    })
                    .collect();
            }
            "--coherence" => {
                let v = flag_value(it, "--coherence");
                self.coherence = if v == "both" {
                    vec![Coherence::Snoop, Coherence::MesiDir]
                } else {
                    v.split(',')
                        .map(|p| {
                            p.trim().parse().unwrap_or_else(|_| {
                                fail(&format!(
                                    "--coherence: `{p}` is not a backend (snoop | mesi-dir | both)"
                                ))
                            })
                        })
                        .collect()
                };
            }
            "--icache-kb" => self.icache_kb = Some(num(it, "--icache-kb")),
            "--l1-kb" => self.l1_kb = Some(num(it, "--l1-kb")),
            "--l2-kb" => self.l2_kb = Some(num(it, "--l2-kb")),
            "--l2-assoc" => self.l2_assoc = Some(num(it, "--l2-assoc")),
            "--dir-banks" => self.dir_banks = Some(num(it, "--dir-banks")),
            _ => return false,
        }
        true
    }

    /// Expands one workload into the cpus x coherence cartesian product
    /// of validated experiment configurations. Every combination is
    /// checked before any simulation starts, so a bad geometry fails in
    /// milliseconds, not after a multi-minute run.
    fn configs(&self, kind: WorkloadKind, measure: u64, warmup: u64) -> Vec<ExperimentConfig> {
        let cpus = if self.cpus.is_empty() {
            vec![4]
        } else {
            self.cpus.clone()
        };
        let schemes = if self.coherence.is_empty() {
            vec![Coherence::Snoop]
        } else {
            self.coherence.clone()
        };
        let mut out = Vec::with_capacity(cpus.len() * schemes.len());
        for &n in &cpus {
            for &scheme in &schemes {
                let mut config = ExperimentConfig::new(kind).warmup(warmup).measure(measure);
                config.machine = MachineConfig::scaled(n);
                config.machine.coherence = scheme;
                if let Some(kb) = self.icache_kb {
                    config.machine.icache.size_bytes = kb * 1024;
                }
                if let Some(kb) = self.l1_kb {
                    config.machine.l1d.size_bytes = kb * 1024;
                }
                if let Some(kb) = self.l2_kb {
                    config.machine.l2d.size_bytes = kb * 1024;
                }
                if let Some(assoc) = self.l2_assoc {
                    config.machine.l2d.assoc = assoc;
                }
                if let Some(banks) = self.dir_banks {
                    config.machine.dir_banks = banks;
                }
                // The paper's fixed mix at 4 CPUs; the weak-scaled mix
                // beyond, so per-CPU offered load stays comparable.
                config.scale_workload = n != 4;
                if let Err(e) = config.machine.validate() {
                    fail(&format!("--cpus {n} --coherence {scheme}: {e}"));
                }
                out.push(config);
            }
        }
        out
    }
}

struct Args {
    kinds: Vec<WorkloadKind>,
    measure: u64,
    warmup: u64,
    machine: MachineFlags,
    jobs: usize,
    checkpoint_dir: Option<PathBuf>,
    csv_dir: Option<PathBuf>,
    save_trace_dir: Option<PathBuf>,
    from_trace: Option<PathBuf>,
    perf_out: Option<PathBuf>,
    trace_json: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
    provenance_out: Option<PathBuf>,
    hotlines_out: Option<PathBuf>,
    hotlines_top: usize,
    causal_out: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Args {
    let mut positional = Vec::new();
    let mut machine = MachineFlags::default();
    let mut jobs = 1usize;
    let mut checkpoint_dir = None;
    let mut csv_dir = None;
    let mut save_trace_dir = None;
    let mut from_trace = None;
    let mut perf_out = None;
    let mut trace_json = None;
    let mut metrics_out = None;
    let mut provenance_out = None;
    let mut hotlines_out = None;
    let mut hotlines_top = 50usize;
    let mut causal_out = None;
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--jobs" | "-j" => jobs = parse_jobs(&mut it),
            "--checkpoint-dir" => {
                checkpoint_dir = Some(PathBuf::from(flag_value(&mut it, "--checkpoint-dir")))
            }
            "--csv" => csv_dir = Some(PathBuf::from(flag_value(&mut it, "--csv"))),
            "--save-trace" => {
                save_trace_dir = Some(PathBuf::from(flag_value(&mut it, "--save-trace")))
            }
            "--from-trace" => from_trace = Some(PathBuf::from(flag_value(&mut it, "--from-trace"))),
            "--perf-out" => perf_out = Some(PathBuf::from(flag_value(&mut it, "--perf-out"))),
            "--trace-json" => trace_json = Some(PathBuf::from(flag_value(&mut it, "--trace-json"))),
            "--metrics-out" => {
                metrics_out = Some(PathBuf::from(flag_value(&mut it, "--metrics-out")))
            }
            "--provenance-out" => {
                provenance_out = Some(PathBuf::from(flag_value(&mut it, "--provenance-out")))
            }
            "--hotlines-out" => {
                hotlines_out = Some(PathBuf::from(flag_value(&mut it, "--hotlines-out")))
            }
            "--hotlines-top" => {
                hotlines_top = flag_value(&mut it, "--hotlines-top")
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| fail("--hotlines-top needs a positive integer"))
            }
            "--causal-out" => causal_out = Some(PathBuf::from(flag_value(&mut it, "--causal-out"))),
            "--help" | "-h" => {
                println!("{HELP}");
                std::process::exit(0);
            }
            other if machine.parse_flag(other, &mut it) => {}
            other if other.starts_with('-') => fail(&format!("unknown flag `{other}`")),
            other => positional.push(other.to_string()),
        }
    }
    let (kinds, measure, warmup) = parse_workloads(&positional);
    // A saved trace fixes its own workload and window.
    if from_trace.is_some() {
        for (name, value) in ["WORKLOAD", "MEASURE", "WARMUP"].iter().zip(&positional) {
            eprintln!("warning: {name} `{value}` needs a live run, ignored with --from-trace");
        }
    }
    Args {
        kinds,
        measure,
        warmup,
        machine,
        jobs,
        checkpoint_dir,
        csv_dir,
        save_trace_dir,
        from_trace,
        perf_out,
        trace_json,
        metrics_out,
        provenance_out,
        hotlines_out,
        hotlines_top,
        causal_out,
    }
}

/// The request for one run, with the output switches the flags set.
fn request(args: &Args, config: ExperimentConfig) -> ReportRequest {
    ReportRequest {
        config,
        want_csv: args.csv_dir.is_some(),
        want_trace: args.save_trace_dir.is_some(),
        want_obs: args.trace_json.is_some() || args.metrics_out.is_some(),
        want_provenance: args.provenance_out.is_some(),
        want_hotlines: args.hotlines_out.is_some(),
        want_causal: args.causal_out.is_some(),
        hotlines_top: args.hotlines_top,
        checkpoint_dir: args.checkpoint_dir.clone(),
        // Per-stage occupancy rows ride with the perf summary only
        // (wall-clock data; never in the deterministic exports).
        stage_stats: args.perf_out.is_some(),
    }
}

/// The live runs: every workload x machine configuration, fanned
/// across `--jobs` workers. The perf summary carries each run's rows,
/// then one row per pool worker.
fn run_live(args: &Args) -> (Vec<ReportOutput>, PerfSummary) {
    let reqs: Vec<ReportRequest> = args
        .kinds
        .iter()
        .flat_map(|&kind| args.machine.configs(kind, args.measure, args.warmup))
        .map(|config| request(args, config))
        .collect();
    let (outputs, pool_rows) = run_reports_pooled(reqs, args.jobs);
    let mut perf = PerfSummary::new("reports", args.jobs);
    for out in &outputs {
        perf.phases.extend(out.phases.iter().cloned());
    }
    // Per-pool-worker rows (wall-clock observability; records/cycles
    // here duplicate the per-run rows, so rate gates must filter by
    // phase id).
    perf.phases.extend(pool_rows);
    (outputs, perf)
}

/// The `--from-trace` path: load a saved trace (no simulation, nothing
/// to parallelize) and re-analyze it through the driver's report tail.
/// The perf summary opens with a `load/<tag>` row. The trace fixes the
/// machine and holds no lock spans, so the machine flags,
/// `--checkpoint-dir`, `--save-trace` and `--causal-out` are dropped,
/// each with a warning (as are the positionals, in `parse_args`).
fn run_from_trace(path: &Path, args: &mut Args) -> (Vec<ReportOutput>, PerfSummary) {
    let mut perf = PerfSummary::new("reports", 1);
    let load_started = Instant::now();
    let mut f = fs::File::open(path).unwrap_or_else(|e| {
        eprintln!("error: cannot open {}: {e}", path.display());
        std::process::exit(1);
    });
    let art = tracefile::load(&mut f).unwrap_or_else(|e| {
        eprintln!(
            "error: {} is not a readable oscar trace: {e}",
            path.display()
        );
        std::process::exit(1);
    });
    perf.phases.push(PhaseStats {
        id: format!("load/{}", art.tag()),
        wall_s: load_started.elapsed().as_secs_f64(),
        records: art.trace_records,
        ..PhaseStats::default()
    });
    eprintln!(
        "loaded {} records ({}, window {} cycles)",
        art.trace.len(),
        art.workload,
        art.measure_end - art.measure_start,
    );
    // The lock spans the wait-for graph is built from come from the
    // kernel-side probes of a live run; a saved trace has none.
    let m = &args.machine;
    for (flag, given) in [
        ("--cpus", !m.cpus.is_empty()),
        ("--coherence", !m.coherence.is_empty()),
        ("--icache-kb", m.icache_kb.is_some()),
        ("--l1-kb", m.l1_kb.is_some()),
        ("--l2-kb", m.l2_kb.is_some()),
        ("--l2-assoc", m.l2_assoc.is_some()),
        ("--dir-banks", m.dir_banks.is_some()),
        ("--checkpoint-dir", args.checkpoint_dir.is_some()),
        ("--save-trace", args.save_trace_dir.is_some()),
        ("--causal-out", args.causal_out.take().is_some()),
    ] {
        if given {
            eprintln!("warning: {flag} needs a live run, ignored with --from-trace");
        }
    }
    let out = report_from_trace(&art, &request(args, ExperimentConfig::new(art.workload)));
    perf.phases.extend(out.phases.iter().cloned());
    (vec![out], perf)
}

/// Writes what the runs produced, in request order: each report to
/// stdout, CSVs, saved traces, the merged exports, then the perf
/// summary. Live and `--from-trace` runs share it.
fn emit(args: &Args, outputs: &[ReportOutput], mut perf: PerfSummary, started: Instant) {
    for out in outputs {
        println!("{}", out.report);
        if let Some(dir) = &args.csv_dir {
            for (name, data) in &out.csv {
                write_file(&dir.join(name), data.as_bytes());
            }
        }
        if let Some(dir) = &args.save_trace_dir {
            if let Some((name, blob)) = &out.trace_blob {
                write_file(&dir.join(name), blob);
            }
        }
    }
    // Exports assemble in request order from per-run payloads, so the
    // bytes cannot depend on --jobs.
    if let Some(path) = &args.trace_json {
        write_file(path, merge_trace_json(outputs).as_bytes());
    }
    if let Some(path) = &args.metrics_out {
        write_file(path, merge_metrics_json(outputs).as_bytes());
    }
    if let Some(path) = &args.provenance_out {
        write_file(path, merge_provenance_json(outputs).as_bytes());
    }
    if let Some(path) = &args.hotlines_out {
        write_file(path, merge_hotlines_json(outputs).as_bytes());
    }
    if let Some(path) = &args.causal_out {
        write_file(path, merge_causal_json(outputs).as_bytes());
    }
    perf.finish(started);
    eprintln!("{}", perf.human_line());
    if let Some(path) = &args.perf_out {
        write_file(path, perf.to_json().as_bytes());
    }
}

fn report_main(argv: &[String]) {
    let mut args = parse_args(argv);
    let started = Instant::now();
    let (outputs, perf) = match args.from_trace.clone() {
        Some(path) => run_from_trace(&path, &mut args),
        None => run_live(&args),
    };
    emit(&args, &outputs, perf, started);
}

/// `oscar-reports query`: filter/group/aggregate the rows of one
/// source (records, locks, hotlines or waits) of fresh runs — no trace
/// is ever materialized, and the JSON is byte-identical for any --jobs.
fn query_main(argv: &[String]) {
    let mut positional = Vec::new();
    let mut machine = MachineFlags::default();
    let mut source = "records".to_string();
    let mut wheres = Vec::new();
    let mut by = None;
    let mut agg = None;
    let mut top = None;
    let mut out_path: Option<PathBuf> = None;
    let mut jobs = 1usize;
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--source" => source = flag_value(&mut it, "--source"),
            "--where" => wheres.push(flag_value(&mut it, "--where")),
            "--by" => by = Some(flag_value(&mut it, "--by")),
            "--agg" => agg = Some(flag_value(&mut it, "--agg")),
            "--top" => {
                top = Some(
                    flag_value(&mut it, "--top")
                        .parse()
                        .unwrap_or_else(|_| fail("--top needs a positive integer")),
                )
            }
            "--out" => out_path = Some(PathBuf::from(flag_value(&mut it, "--out"))),
            "--jobs" | "-j" => jobs = parse_jobs(&mut it),
            "--help" | "-h" => {
                println!("{HELP}");
                std::process::exit(0);
            }
            other if machine.parse_flag(other, &mut it) => {}
            other if other.starts_with('-') => fail(&format!("unknown query flag `{other}`")),
            other => positional.push(other.to_string()),
        }
    }
    let (kinds, measure, warmup) = parse_workloads(&positional);
    let spec = QuerySpec::parse(&source, &wheres, by.as_deref(), agg.as_deref(), top)
        .unwrap_or_else(|e| fail(&e));
    // Compile once, before any simulation: a typo in a field or value
    // fails in milliseconds, not after a multi-minute run.
    let compiled = compile(&spec).unwrap_or_else(|e| fail(&e));

    let configs: Vec<ExperimentConfig> = kinds
        .iter()
        .flat_map(|&kind| machine.configs(kind, measure, warmup))
        .collect();
    // The run tag keys the JSON: the plain workload name on the default
    // machine (unchanged output), `pmake-c8-dir`-style under a sweep.
    let tags: Vec<String> = configs.iter().map(|c| c.tag()).collect();
    let runs = parallel_map(configs, jobs, |_, config| {
        run_compiled(&config, &compiled).unwrap_or_else(|e| fail(&e))
    });

    let mut doc = String::from("{");
    for (i, (tag, run)) in tags.iter().zip(&runs).enumerate() {
        eprintln!(
            "{tag}: {} rows matched ({} records), {} groups",
            run.table.matched(),
            run.trace_records,
            run.table.len()
        );
        doc.push_str(if i == 0 { "\n" } else { ",\n" });
        let _ = write!(doc, "\"{tag}\": {}", run.table.to_json());
    }
    doc.push_str("\n}");
    match &out_path {
        Some(path) => write_file(path, doc.as_bytes()),
        None => println!("{doc}"),
    }
}

/// Parses `[PREFIX=]VALUE` into a prefix and a number.
fn parse_tol(arg: &str, flag: &str) -> (String, f64) {
    let (prefix, num) = match arg.split_once('=') {
        Some((p, n)) => (p.to_string(), n),
        None => (String::new(), arg),
    };
    let v: f64 = num
        .parse()
        .unwrap_or_else(|_| fail(&format!("{flag}: `{num}` is not a number")));
    if v < 0.0 {
        fail(&format!("{flag}: tolerance must be non-negative"));
    }
    (prefix, v)
}

/// `oscar-reports diff`: structural comparison of two metrics or
/// provenance exports, exiting 1 on out-of-tolerance drift (the CI
/// golden-metrics gate).
fn diff_main(argv: &[String]) {
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut tols: Vec<Tolerance> = Vec::new();
    let mut max_lines = 40usize;
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--tol" => {
                let (prefix, rel) = parse_tol(&flag_value(&mut it, "--tol"), "--tol");
                tols.push(Tolerance {
                    prefix,
                    rel,
                    abs: 0.0,
                });
            }
            "--tol-abs" => {
                let (prefix, abs) = parse_tol(&flag_value(&mut it, "--tol-abs"), "--tol-abs");
                tols.push(Tolerance {
                    prefix,
                    rel: 0.0,
                    abs,
                });
            }
            "--max-lines" => {
                max_lines = flag_value(&mut it, "--max-lines")
                    .parse()
                    .unwrap_or_else(|_| fail("--max-lines needs an integer"))
            }
            "--help" | "-h" => {
                println!("{HELP}");
                std::process::exit(0);
            }
            other if other.starts_with('-') => fail(&format!("unknown diff flag `{other}`")),
            other => paths.push(PathBuf::from(other)),
        }
    }
    let [left, right] = paths.as_slice() else {
        fail("diff needs exactly two files: oscar-reports diff LEFT.json RIGHT.json");
    };
    let read = |p: &PathBuf| {
        fs::read_to_string(p).unwrap_or_else(|e| fail(&format!("cannot read {}: {e}", p.display())))
    };
    let (a, b) = (read(left), read(right));
    let report = diff_documents(&a, &b, &tols).unwrap_or_else(|e| fail(&e));
    print!("{}", report.render(max_lines));
    if !report.is_clean() {
        eprintln!(
            "error: {} of {} keys drifted beyond tolerance",
            report.drifted(),
            report.compared
        );
        std::process::exit(1);
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("query") => query_main(&argv[1..]),
        Some("diff") => diff_main(&argv[1..]),
        _ => report_main(&argv),
    }
}
