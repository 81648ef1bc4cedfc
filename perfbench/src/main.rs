//! `oscar-perfbench`: the measured programs behind `perfbench/run.py`.
//!
//! Every subcommand runs in a process of its own, so a timing or a peak
//! RSS never includes another phase's work:
//!
//! ```text
//! oscar-perfbench prep   WORKLOAD SEED DIR          write the offline trace (untimed)
//! oscar-perfbench setup  WORKLOAD SEED DIR          host probe, then one timed online set-up
//! oscar-perfbench report WORKLOAD SEED DIR          one timed complete report
//! oscar-perfbench trace  WORKLOAD SEED DIR RUN FULL spanned layer pass + output checks
//! ```
//!
//! Each prints one JSON object as its last line of standard output.
//! The library is driven through the same public calls the
//! `oscar-reports` CLI makes, one report at a time (`--jobs 1`,
//! `--pipeline off`, no epochs).

use std::fmt::Write as _;
use std::fs::{self, File};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use oscar_core::causal::{
    add_causal_flows, add_causal_metrics, attach_symbols, build_causal_input, lock_ids,
};
use oscar_core::decode::Decoder;
use oscar_core::observe::{
    add_hotline_metrics, add_hotline_tracks, assemble_run_obs, merge_hotlines_json, HotlineExport,
};
use oscar_core::perf::peak_rss_kb;
use oscar_core::resim::{dcache_sweep, figure6_sweep};
use oscar_core::stall::{table1_row, Table1Row};
use oscar_core::{
    analyze_with, causal_for_run, merge_causal_json, merge_metrics_json, merge_provenance_json,
    merge_trace_json, provenance_metrics, render_all, render_causal_section, run_reports_pooled,
    run_streaming, tracefile, AnalyzeOptions, ExperimentConfig, PreparedRun, ReportOutput,
    ReportRequest, RunArtifacts, StreamOptions, TimelineBuilder, TraceAnalysis,
};
use oscar_machine::{Coherence, MachineConfig};
use oscar_os::Mode;
use oscar_workloads::WorkloadKind;

/// The ROADMAP's canonical window: 45 M cycles measured after a 45 M
/// cycle warm-up.
const MEASURE: u64 = 45_000_000;
const WARMUP: u64 = 45_000_000;

/// The seed `EXPERIMENTS.md` was tuned on; the benchmark never uses it.
const GOLDEN_SEED: u64 = 0x05ca_4d34;

/// File names inside the work directory shared with `run.py`.
const TRACE_FILE: &str = "multpgm.oscartrace";
const ONLINE_REPORT: &str = "online_report.txt";
const BATCH_REPORT: &str = "batch_report.txt";
const STREAM_REPORT: &str = "stream_report.txt";
const REPORT: &str = "report.txt";
const SPANS: &str = "spans.jsonl";

/// Renders one export document from a sweep's outputs.
type MergeFn = fn(&[ReportOutput]) -> String;

/// The observed workload's exports, written as `--trace-json`,
/// `--metrics-out`, `--provenance-out`, `--hotlines-out` and
/// `--causal-out` write them.
const EXPORTS: [(&str, MergeFn); 5] = [
    ("trace.json", merge_trace_json),
    ("metrics.json", merge_metrics_json),
    ("provenance.json", merge_provenance_json),
    ("hotlines.json", merge_hotlines_json),
    ("causal.json", merge_causal_json),
];

/// The paper's Table 1, as committed in `EXPERIMENTS.md`: user, sys,
/// idle, OS misses / total, appl+OS stall, OS stall, OS + induced
/// stall (all %).
fn paper_table1(kind: WorkloadKind) -> [f64; 7] {
    match kind {
        WorkloadKind::Pmake => [49.4, 31.1, 19.5, 52.6, 39.9, 21.0, 25.8],
        WorkloadKind::Multpgm => [53.2, 46.7, 0.1, 46.3, 46.5, 21.5, 24.9],
        WorkloadKind::Oracle => [62.4, 29.4, 8.2, 26.6, 62.5, 16.6, 26.8],
    }
}

fn table1_cells(r: &Table1Row) -> [f64; 7] {
    [
        r.user_pct,
        r.sys_pct,
        r.idle_pct,
        r.os_miss_pct,
        r.stall_all_pct,
        r.stall_os_pct,
        r.stall_os_induced_pct,
    ]
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Bench {
    /// `all 45000000 45000000` on the default 4-CPU snooping machine.
    PaperSuite,
    /// Oracle on `--cpus 16 --coherence mesi-dir` with every export on.
    C16DirObserved,
    /// `--from-trace` re-analysis of a saved multpgm window.
    MultpgmOffline,
}

impl Bench {
    fn parse(s: &str) -> Option<Bench> {
        match s {
            "paper-suite" => Some(Bench::PaperSuite),
            "c16-dir-observed" => Some(Bench::C16DirObserved),
            "multpgm-offline" => Some(Bench::MultpgmOffline),
            _ => None,
        }
    }

    /// The online configurations the workload runs (for
    /// `multpgm-offline`, the run whose trace is saved).
    fn configs(self, seed: u64) -> Vec<ExperimentConfig> {
        let base = |kind| {
            ExperimentConfig::new(kind)
                .warmup(WARMUP)
                .measure(MEASURE)
                .seed(seed)
        };
        match self {
            Bench::PaperSuite => WorkloadKind::ALL.iter().map(|&k| base(k)).collect(),
            Bench::C16DirObserved => {
                // What `oscar-reports --cpus 16 --coherence mesi-dir`
                // builds: the scaled machine and the weak-scaled mix.
                let mut c = base(WorkloadKind::Oracle);
                c.machine = MachineConfig::scaled(16);
                c.machine.coherence = Coherence::MesiDir;
                c.scale_workload = true;
                c.machine
                    .validate()
                    .expect("the 16-CPU directory machine is valid");
                vec![c]
            }
            Bench::MultpgmOffline => vec![base(WorkloadKind::Multpgm)],
        }
    }

    /// The request the CLI builds for `config` (exports on for the
    /// observed workload, as `--trace-json --metrics-out
    /// --provenance-out --hotlines-out --causal-out` set them).
    fn request(self, config: ExperimentConfig) -> ReportRequest {
        let mut req = ReportRequest::new(config.workload, MEASURE, WARMUP);
        req.config = config;
        if self == Bench::C16DirObserved {
            req.want_obs = true;
            req.want_provenance = true;
            req.want_hotlines = true;
            req.want_causal = true;
        }
        req
    }
}

/// Maps the benchmark's `--seed` to the workload RNG seed (splitmix64
/// of the seed, so neighbouring seeds give unrelated inputs).
fn workload_seed(n: u64) -> u64 {
    let mut z = n.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    let s = z ^ (z >> 31);
    assert_ne!(s, GOLDEN_SEED, "the benchmark must not run the tuned seed");
    s
}

/// A flat JSON object built field by field.
#[derive(Default)]
struct Json(String);

impl Json {
    fn field(&mut self, key: &str, raw: &str) -> &mut Self {
        self.0.push(if self.0.is_empty() { '{' } else { ',' });
        let _ = write!(self.0, "\"{key}\":{raw}");
        self
    }

    fn num(&mut self, key: &str, v: f64) -> &mut Self {
        self.field(key, &oscar_core::perf::json_f64(v))
    }

    fn finish(&self) -> String {
        if self.0.is_empty() {
            "{}".to_string()
        } else {
            format!("{}}}", self.0)
        }
    }
}

/// Named pass/fail output checks, serialized for `run.py`.
#[derive(Default)]
struct Checks(Vec<(String, bool)>);

impl Checks {
    fn check(&mut self, name: String, ok: bool) {
        if !ok {
            eprintln!("check failed: {name}");
        }
        self.0.push((name, ok));
    }

    fn to_json(&self) -> String {
        let items: Vec<String> = self
            .0
            .iter()
            .map(|(n, ok)| format!("{{\"name\":{},\"ok\":{ok}}}", oscar_core::perf::json_str(n)))
            .collect();
        format!("[{}]", items.join(","))
    }

    /// The trace-side checks every online run must pass: no escape
    /// failed to decode, and the trace-side OS and application miss
    /// counts are within 8 % of the simulator's `OsStats` (the bound
    /// `tests/end_to_end.rs` uses).
    fn online(&mut self, tag: &str, art: &RunArtifacts, an: &TraceAnalysis) {
        let rel_err = |a: u64, b: u64| (a as f64 - b as f64).abs() / (b.max(1) as f64);
        self.check(format!("{tag}: undecodable == 0"), an.undecodable == 0);
        self.check(
            format!("{tag}: OS misses within 8% of OsStats"),
            rel_err(an.os.total(), art.os_stats.kernel_misses.total()) < 0.08,
        );
        self.check(
            format!("{tag}: app misses within 8% of OsStats"),
            rel_err(an.app.total(), art.os_stats.misses(Mode::User).total()) < 0.08,
        );
    }
}

/// Mean absolute error, in percentage points, of Table 1 rows against
/// the paper's columns. The 16-CPU machine has no paper reference: its
/// score against the 4-CPU Oracle column tracks model drift only (the
/// model is unvalidated there).
#[derive(Default)]
struct Table1Err {
    abs_sum: f64,
    cells: u32,
}

impl Table1Err {
    fn add(&mut self, art: &RunArtifacts, an: &TraceAnalysis) {
        let ours = table1_cells(&table1_row(art, an));
        for (o, p) in ours.iter().zip(paper_table1(art.workload)) {
            self.abs_sum += (o - p).abs();
            self.cells += 1;
        }
    }

    fn mean(&self) -> f64 {
        self.abs_sum / f64::from(self.cells.max(1))
    }
}

fn write_file(path: &Path, data: &[u8]) {
    fs::write(path, data).unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
}

fn load_trace(dir: &Path) -> RunArtifacts {
    let path = dir.join(TRACE_FILE);
    // A plain `fs::File`, exactly as `oscar-reports --from-trace` reads.
    let mut f = File::open(&path).unwrap_or_else(|e| panic!("cannot open {}: {e}", path.display()));
    tracefile::load(&mut f).unwrap_or_else(|e| panic!("{} is unreadable: {e}", path.display()))
}

/// `prep`: run the multpgm window online, keep its report (the
/// reference for the offline Table 1) and save its trace the way
/// `--save-trace` does. Untimed except for the save itself.
fn cmd_prep(bench: Bench, seed: u64, dir: &Path) {
    assert_eq!(
        bench,
        Bench::MultpgmOffline,
        "only the offline workload needs a saved trace"
    );
    let config = &bench.configs(seed)[0];
    let opts = StreamOptions {
        keep_trace: true,
        ..StreamOptions::default()
    };
    let (art, an) = run_streaming(config, &opts);
    let mut checks = Checks::default();
    checks.online("multpgm online", &art, &an);
    write_file(
        &dir.join(ONLINE_REPORT),
        format!("{}\n", render_all(&art, &an)).as_bytes(),
    );
    let t0 = Instant::now();
    let mut buf = Vec::new();
    tracefile::save(&art, &mut buf).expect("serialize trace");
    write_file(&dir.join(TRACE_FILE), &buf);
    let save_s = t0.elapsed().as_secs_f64();
    println!(
        "{}",
        Json::default()
            .num("save_s", save_s)
            .num("records", art.trace_records as f64)
            .field("checks", &checks.to_json())
            .finish()
    );
}

/// A fixed memory-bound loop: a dependent pointer chase through a
/// 16 MiB single-cycle permutation. It shows slow host periods in the
/// data; it is never used to drop, re-run or rescale a measurement.
fn host_probe() -> f64 {
    const SLOTS: usize = 1 << 22;
    const STEPS: usize = 1 << 20;
    let mut next: Vec<u32> = (0..SLOTS as u32).collect();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    // Sattolo's shuffle: one cycle through every slot.
    for i in (1..SLOTS).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        next.swap(i, (x % i as u64) as usize);
    }
    black_box(&mut next);
    let t0 = Instant::now();
    let mut p = 0usize;
    for _ in 0..STEPS {
        p = next[p] as usize;
    }
    black_box(p);
    t0.elapsed().as_secs_f64()
}

/// `setup`: the host probe, then, for the online workloads, everything
/// before the first measured record reaches the analyzer — workload
/// construction, machine and kernel wiring and the warm-up per
/// configuration — timed as one interval with every result held until
/// it ends. `paper-suite` sets up twice per interval and reports the
/// mean, because one of its set-ups can take under a second. Offline,
/// the set-up is the trace load, which `report` times itself.
fn cmd_setup(bench: Bench, seed: u64) {
    let mut out = Json::default();
    out.num("probe_s", host_probe());
    if bench != Bench::MultpgmOffline {
        let repeats = if bench == Bench::PaperSuite { 2 } else { 1 };
        let t0 = Instant::now();
        let mut prepared = Vec::new();
        for _ in 0..repeats {
            for config in bench.configs(seed) {
                let mut prep = PreparedRun::new(&config, config.build_workload());
                black_box(prep.warmup());
                prepared.push(prep);
            }
        }
        out.num("setup_s", t0.elapsed().as_secs_f64() / f64::from(repeats));
        black_box(&prepared);
    }
    println!("{}", out.finish());
}

/// `report`: one complete report, timed from the first library call to
/// the last byte of its exports written. Offline, the trace load that
/// opens the report is also timed on its own: it is the set-up.
fn cmd_report(bench: Bench, seed: u64, dir: &Path) {
    let mut out = Json::default();
    let t0 = Instant::now();
    let records = if bench == Bench::MultpgmOffline {
        // The calls `oscar-reports --from-trace` makes.
        let art = load_trace(dir);
        out.num("setup_s", t0.elapsed().as_secs_f64());
        let an = analyze_with(&art, AnalyzeOptions::default());
        write_file(
            &dir.join(REPORT),
            format!("{}\n", render_all(&art, &an)).as_bytes(),
        );
        art.trace_records
    } else {
        let reqs = bench
            .configs(seed)
            .into_iter()
            .map(|c| bench.request(c))
            .collect();
        let (outputs, _) = run_reports_pooled(reqs, 1);
        let mut text = String::new();
        for out in &outputs {
            text.push_str(&out.report);
            text.push('\n');
        }
        write_file(&dir.join(REPORT), text.as_bytes());
        if bench == Bench::C16DirObserved {
            for (name, merge) in EXPORTS {
                write_file(&dir.join(name), merge(&outputs).as_bytes());
            }
        }
        outputs.iter().map(|o| o.trace_records).sum()
    };
    let wall_s = t0.elapsed().as_secs_f64();
    out.num("wall_s", wall_s)
        .num("records", records as f64)
        .num("peak_rss_kb", peak_rss_kb() as f64);
    println!("{}", out.finish());
}

/// One recorded span: a public call into one module.
struct Span {
    name: &'static str,
    start: f64,
    end: f64,
    parent: Option<usize>,
}

/// In-memory span recorder; the spans are written once, when the run
/// ends.
struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.t0.elapsed().as_secs_f64(),
            end: 0.0,
            parent: self.stack.last().copied(),
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end = self.t0.elapsed().as_secs_f64();
        out
    }

    fn write(&self, path: &Path, run_id: &str) {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"run\":{},\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_s\":{},\"end_s\":{}}}",
                oscar_core::perf::json_str(run_id),
                s.name,
                s.start,
                s.end
            );
        }
        write_file(path, out.as_bytes());
    }
}

/// Simulator counts of the measured window, summed over configurations.
/// Every one repeats bit-for-bit for a given seed.
#[derive(Default)]
struct Counts(Vec<(String, u64)>);

impl Counts {
    fn add(&mut self, key: &str, v: u64) {
        match self.0.iter_mut().find(|(k, _)| k == key) {
            Some((_, acc)) => *acc += v,
            None => self.0.push((key.to_string(), v)),
        }
    }

    fn add_run(&mut self, art: &RunArtifacts) {
        let s = &art.os_stats;
        self.add("monitor.records", art.trace_records);
        self.add("os.dispatches", s.dispatches);
        self.add("os.migrations", s.migrations);
        self.add("os.utlb_faults", s.utlb_faults);
        self.add("os.forks", s.forks);
        self.add("os.escape_reads", s.escape_reads);
        self.add("os.kernel_misses", s.kernel_misses.total());
        self.add("os.user_misses", s.user_misses.total());
        for (_, f) in &art.lock_stats {
            self.add("os.lock_acquires", f.acquires);
            self.add("os.lock_attempts", f.attempts);
            self.add("os.lock_first_try_acquires", f.acquires - f.failed_first);
        }
        for c in &art.cpu_counters {
            self.add("machine.ifetch_fills", c.ifetch_fills);
            self.add("machine.data_fills", c.data_fills);
            self.add("machine.upgrades", c.upgrades);
            self.add("machine.writebacks", c.writebacks);
            self.add("machine.snoop_invalidations", c.snoop_invalidations);
            self.add("machine.bus_stall_cycles", c.bus_stall);
        }
        let ic = &art.interconnect;
        self.add("machine.transactions", ic.transactions);
        self.add("machine.arbitration_wait", ic.arbitration_wait);
        self.add("machine.invals_sent", ic.invals_sent);
        let d = ic.dir.unwrap_or_default();
        self.add("machine.dir.get_s", d.get_s);
        self.add("machine.dir.get_x", d.get_x);
        self.add("machine.dir.upgrades", d.upgrades);
        self.add("machine.dir.writebacks", d.writebacks);
        self.add("machine.dir.invals_sent", d.invals_sent);
        self.add("machine.dir.forwards", d.forwards);
        self.add("machine.dir.bank_wait", d.bank_wait);
        self.add("machine.dir.sharer_churn", d.sharer_churn);
    }

    fn add_analysis(&mut self, an: &TraceAnalysis, undecodable_at_decode: u64) {
        self.add(
            "analyze.undecodable",
            an.undecodable + undecodable_at_decode,
        );
        self.add("analyze.fills", an.fills.os + an.fills.app + an.fills.idle);
    }

    fn to_json(&self) -> String {
        let mut j = Json::default();
        for (k, v) in &self.0 {
            j.field(k, &v.to_string());
        }
        j.finish()
    }
}

/// The decode pass alone: every record through one escape decoder.
/// Returns the escapes that failed to decode.
fn decode(t: &mut Tracer, art: &RunArtifacts) -> u64 {
    t.span("decode", |_| {
        let mut d = Decoder::new(art.machine_config.num_cpus as usize);
        let mut items = 0u64;
        for &rec in &art.trace {
            items += u64::from(d.push(rec).is_some());
        }
        black_box(items);
        d.undecodable
    })
}

/// The default analysis split at its public calls: the batch analyzer,
/// then the two cache re-simulation sweeps (which `render_all` would
/// otherwise run lazily).
fn default_analysis(t: &mut Tracer, art: &RunArtifacts) -> TraceAnalysis {
    let n = art.machine_config.num_cpus as usize;
    let mut an = t.span("analyze.batch", |_| {
        analyze_with(art, AnalyzeOptions::default())
    });
    t.span("resim.fig6", |_| {
        an.fig6 = Some(figure6_sweep(&an.istream, n))
    });
    t.span("resim.dcache", |_| {
        an.dcache = Some(dcache_sweep(&an.dstream, n))
    });
    an
}

/// The options the CLI's run uses with `--hotlines-out` and
/// `--provenance-out`: both observers inline, sweeps online.
fn observed_options(provenance: bool) -> AnalyzeOptions {
    AnalyzeOptions {
        online_sweeps: true,
        keep_streams: false,
        hotlines: true,
        provenance,
        ..AnalyzeOptions::default()
    }
}

/// Work the report does not need, run under a `bench.extra` span so
/// the traced wall time can leave it out: the standalone decode pass
/// and, for the observed workload with `full`, the default analysis and
/// two rounds of observer on/off pairs (each observer's marginal cost
/// is the difference of the faster run of each side).
fn extra_layers(t: &mut Tracer, bench: Bench, art: &RunArtifacts, full: bool) -> u64 {
    t.span("bench.extra", |t| {
        let undecodable = decode(t, art);
        if full && bench == Bench::C16DirObserved {
            black_box(default_analysis(t, art));
            let hot = AnalyzeOptions {
                hotlines: true,
                ..AnalyzeOptions::default()
            };
            for _ in 0..2 {
                t.span("analyze.pair.default", |_| {
                    black_box(analyze_with(art, AnalyzeOptions::default()));
                });
                t.span("analyze.pair.hotlines", |_| {
                    black_box(analyze_with(art, hot.clone()));
                });
                t.span("analyze.pair.observed", |_| {
                    black_box(analyze_with(art, observed_options(false)));
                });
                t.span("analyze.pair.provenance", |_| {
                    black_box(analyze_with(art, observed_options(true)));
                });
            }
        }
        undecodable
    })
}

/// One online configuration, materialized and analyzed call by call:
/// the batch counterpart of the streamed report. Returns its report.
fn trace_online(
    t: &mut Tracer,
    bench: Bench,
    config: &ExperimentConfig,
    full: bool,
    out: &mut TraceOut,
) -> String {
    let observed = bench == Bench::C16DirObserved;
    let mut prep = t.span("experiment.construct", |_| {
        PreparedRun::new(config, config.build_workload())
    });
    let start = t.span("experiment.warmup", |_| prep.warmup());
    if observed {
        prep.os.enable_obs(start);
    }
    t.span("experiment.measure", |_| prep.measure());
    let (art, kernel_obs) = t.span("experiment.finish", |_| {
        let kernel_obs = if observed {
            prep.os.take_obs(start + config.measure_cycles)
        } else {
            None
        };
        (prep.finish(), kernel_obs)
    });
    out.warmup_cycles += config.warmup_cycles;
    out.measure_cycles += config.measure_cycles;
    out.counts.add_run(&art);
    let undecodable = extra_layers(t, bench, &art, full);
    let an = t.span("analyze", |t| {
        if observed {
            t.span("analyze.observed", |_| {
                analyze_with(&art, observed_options(true))
            })
        } else {
            default_analysis(t, &art)
        }
    });
    out.counts.add_analysis(&an, undecodable);
    out.checks.online(&config.tag(), &art, &an);
    out.checks.check(
        format!("{}: decode pass undecodable == 0", config.tag()),
        undecodable == 0,
    );
    out.table1.add(&art, &an);
    if !observed {
        return t.span("report.render", |_| render_all(&art, &an));
    }

    // The observers, grafted the way the CLI's run grafts them.
    let tag = config.tag();
    let n = config.machine.num_cpus as usize;
    let mut obs = t.span("observe.timeline", |_| {
        let mut b = TimelineBuilder::new(n, art.measure_start);
        b.push_chunk(&art.trace);
        let (timeline, metrics, fills) = b.finish(art.measure_end);
        assemble_run_obs(&tag, timeline, metrics, fills, &art, &an, kernel_obs)
    });
    let provenance = t.span("observe.provenance", |_| {
        provenance_metrics(&an, Some(&obs))
    });
    let hot = t.span("observe.hotline_graft", |_| {
        let h = HotlineExport {
            analysis: an
                .hotlines
                .as_deref()
                .expect("hot lines were tracked")
                .clone(),
            invals_sent: art.interconnect.invals_sent,
            sharer_churn: art.interconnect.sharer_churn,
            window_cycles: an.window_cycles,
        };
        add_hotline_metrics(&mut obs.metrics, &h);
        add_hotline_tracks(&mut obs.timeline, &tag, &h);
        h
    });
    let causal = t.span("causal.analyze", |_| causal_for_run(&art, &an, &obs));
    t.span("causal.graft", |_| {
        let mut input = build_causal_input(&art, &obs);
        attach_symbols(&mut input, &an, &lock_ids(&obs));
        add_causal_metrics(&mut obs.metrics, &causal);
        add_causal_flows(&mut obs.timeline, &input);
    });
    let report = t.span("report.render", |_| {
        render_all(&art, &an) + &render_causal_section(&art, &causal)
    });
    t.span("observe.export", |_| {
        let outs = [ReportOutput {
            kind: config.workload,
            tag: tag.clone(),
            report: String::new(),
            csv: Vec::new(),
            trace_blob: None,
            phases: Vec::new(),
            trace_records: art.trace_records,
            obs: Some(Box::new(obs)),
            provenance: Some(provenance),
            hotlines: Some(Box::new(hot)),
            causal: Some(Box::new(causal)),
        }];
        for (_, merge) in EXPORTS {
            black_box(merge(&outs));
        }
    });
    report
}

#[derive(Default)]
struct TraceOut {
    checks: Checks,
    counts: Counts,
    table1: Table1Err,
    warmup_cycles: u64,
    measure_cycles: u64,
}

/// `trace`: the layer-by-layer pass. It rebuilds the workload's report
/// from the library's finer public calls with a span around each,
/// checks the outputs, and writes the batch report for `run.py` to
/// compare with the streamed reports of the timed runs. Measurement-only
/// work sits under `bench.extra` spans (see [`extra_layers`]); with
/// `full`, one streamed run with the pipeline's stage statistics on
/// follows, outside the `bench.run` tree.
fn cmd_trace(bench: Bench, seed: u64, dir: &Path, run_id: &str, full: bool) {
    let mut t = Tracer::new();
    let mut out = TraceOut::default();
    let report = t.span("bench.run", |t| {
        if bench == Bench::MultpgmOffline {
            let art = t.span("tracefile.load", |_| load_trace(dir));
            out.counts.add("monitor.records", art.trace_records);
            let undecodable = extra_layers(t, bench, &art, full);
            let an = t.span("analyze", |t| default_analysis(t, &art));
            out.counts.add_analysis(&an, undecodable);
            out.checks.check(
                "multpgm offline: undecodable == 0".into(),
                an.undecodable == 0,
            );
            out.checks.check(
                "multpgm offline: decode pass undecodable == 0".into(),
                undecodable == 0,
            );
            out.table1.add(&art, &an);
            return format!("{}\n", t.span("report.render", |_| render_all(&art, &an)));
        }
        let mut text = String::new();
        for config in bench.configs(seed) {
            text.push_str(&trace_online(t, bench, &config, full, &mut out));
            text.push('\n');
        }
        text
    });
    write_file(&dir.join(BATCH_REPORT), report.as_bytes());

    let mut pipeline = Json::default();
    if full && bench != Bench::MultpgmOffline {
        let reqs = bench
            .configs(seed)
            .into_iter()
            .map(|c| {
                let mut req = bench.request(c);
                req.stage_stats = true;
                req
            })
            .collect();
        let (outputs, _) = t.span("pipeline.stream", |_| run_reports_pooled(reqs, 1));
        let (mut produce, mut stall, mut starve, mut depth, mut rows) = (0.0, 0.0, 0.0, 0.0, 0);
        let mut text = String::new();
        for o in &outputs {
            text.push_str(&o.report);
            text.push('\n');
            for p in &o.phases {
                if p.id == format!("stage/{}/produce", o.tag) {
                    produce += p.wall_s;
                    stall += p.stall_s.unwrap_or(0.0);
                } else if p.id == format!("stage/{}/analyze", o.tag) {
                    starve += p.starve_s.unwrap_or(0.0);
                    depth += p.chan_depth_mean.unwrap_or(0.0);
                    rows += 1;
                }
            }
        }
        write_file(&dir.join(STREAM_REPORT), text.as_bytes());
        pipeline
            .num("produce_s", produce)
            .num("producer_stall_s", stall)
            .num("analyze_starve_s", starve)
            .num("chan_depth_mean", depth / f64::from(rows.max(1)));
    }
    t.write(&dir.join(SPANS), run_id);
    println!(
        "{}",
        Json::default()
            .field("checks", &out.checks.to_json())
            .field("counts", &out.counts.to_json())
            .field("pipeline", &pipeline.finish())
            .num("table1_err_pp", out.table1.mean())
            .num("warmup_cycles", out.warmup_cycles as f64)
            .num("measure_cycles", out.measure_cycles as f64)
            .finish()
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = "usage: oscar-perfbench prep|setup|report|trace WORKLOAD SEED DIR [RUN_ID FULL]";
    let (Some(cmd), Some(bench), Some(seed), Some(dir)) = (
        args.first(),
        args.get(1).and_then(|w| Bench::parse(w)),
        args.get(2).and_then(|s| s.parse::<u64>().ok()),
        args.get(3).map(PathBuf::from),
    ) else {
        eprintln!("{usage}");
        return ExitCode::from(2);
    };
    let seed = workload_seed(seed);
    match cmd.as_str() {
        "prep" => cmd_prep(bench, seed, &dir),
        "setup" => cmd_setup(bench, seed),
        "report" => cmd_report(bench, seed, &dir),
        "trace" => {
            let (Some(run_id), Some(full)) = (args.get(4), args.get(5)) else {
                eprintln!("{usage}");
                return ExitCode::from(2);
            };
            cmd_trace(bench, seed, &dir, run_id, full == "1");
        }
        _ => {
            eprintln!("{usage}");
            return ExitCode::from(2);
        }
    }
    ExitCode::SUCCESS
}
