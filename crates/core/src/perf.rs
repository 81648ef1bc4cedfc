//! Throughput and observability instrumentation for the experiment
//! engine: per-phase wall clock, records/sec, simulated cycles/sec and
//! peak RSS, emitted as a `BENCH_*.json`-compatible summary so every
//! run (and every future PR) has a machine-readable perf baseline.
//!
//! The JSON schema is shared with the `oscar-bench` harness:
//!
//! ```json
//! {
//!   "name": "reports",
//!   "jobs": 4,
//!   "peak_rss_kb": 123456,
//!   "wall_s": 1.25,
//!   "phases": [
//!     {"id": "run/pmake", "wall_s": 0.61, "cycles": 45000000,
//!      "records": 812345, "cycles_per_s": 7.3e7, "records_per_s": 1.3e6}
//!   ]
//! }
//! ```

use std::fmt::Write as _;
use std::time::Instant;

use oscar_os::StepClass;

/// One timed phase of a run (a workload simulation, an analysis pass, a
/// render, ...).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PhaseStats {
    /// Phase identifier, e.g. `run/pmake`.
    pub id: String,
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// Simulated cycles covered by the phase (0 when not applicable).
    pub cycles: u64,
    /// Bus records processed by the phase (0 when not applicable).
    pub records: u64,
    /// Highest streaming-channel depth observed (chunks in flight).
    /// `None` when the phase had no sampled channel — renders, or
    /// observability off — so the JSON omits the fields instead of
    /// reporting a misleading 0.
    /// Wall-clock dependent, hence here and not in the metrics export.
    pub chan_depth_max: Option<u64>,
    /// Mean sampled streaming-channel depth (`None` when not sampled).
    pub chan_depth_mean: Option<f64>,
    /// Seconds the stage spent blocked sending into a full downstream
    /// channel (producer stall). `None` when the phase is not an
    /// instrumented pipeline stage.
    pub stall_s: Option<f64>,
    /// Seconds the stage spent blocked receiving from an empty upstream
    /// channel (consumer starve). `None` when not instrumented.
    pub starve_s: Option<f64>,
    /// How the run engine executed the measured window (`sim/<tag>`
    /// rows only): deterministic step counts, so a silent fall-back to
    /// one step at a time shows as zero private steps.
    pub sim: Option<oscar_os::EngineStats>,
    /// Checkpoint-cache traffic and the wall-clock cost of capturing
    /// and restoring snapshots (`checkpoint/<tag>` rows only).
    pub checkpoint: Option<crate::checkpoint::CheckpointStats>,
}

impl PhaseStats {
    /// Simulated cycles per wall-clock second.
    pub fn cycles_per_s(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.cycles as f64 / self.wall_s
        } else {
            0.0
        }
    }

    /// Records processed per wall-clock second.
    pub fn records_per_s(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.records as f64 / self.wall_s
        } else {
            0.0
        }
    }
}

/// The perf summary of one engine invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfSummary {
    /// Summary name (becomes `BENCH_<name>.json`).
    pub name: String,
    /// Worker threads the engine ran with.
    pub jobs: usize,
    /// Total wall clock of the whole invocation, seconds.
    pub wall_s: f64,
    /// Peak resident set size in KB (0 where unavailable).
    pub peak_rss_kb: u64,
    /// Per-phase measurements.
    pub phases: Vec<PhaseStats>,
}

impl PerfSummary {
    /// An empty summary.
    pub fn new(name: &str, jobs: usize) -> Self {
        PerfSummary {
            name: name.to_string(),
            jobs,
            wall_s: 0.0,
            peak_rss_kb: 0,
            phases: Vec::new(),
        }
    }

    /// Phases that uniquely own their records/cycles. `pool/worker/*`,
    /// `stage/*`, `layer/*`, `sim/*` and `checkpoint/*` rows re-account
    /// work the `simulate+analyze/*` rows already carry, and a `load/*`
    /// row the records its `analyze/*` row analyzes, so summing them
    /// would double-count (and inflate the human throughput line).
    fn owning_phases(&self) -> impl Iterator<Item = &PhaseStats> {
        self.phases.iter().filter(|p| {
            !(p.id.starts_with("pool/")
                || p.id.starts_with("stage/")
                || p.id.starts_with("layer/")
                || p.id.starts_with("sim/")
                || p.id.starts_with("checkpoint/")
                || p.id.starts_with("load/"))
        })
    }

    /// Total records across phases, counting each record once.
    pub fn total_records(&self) -> u64 {
        self.owning_phases().map(|p| p.records).sum()
    }

    /// Total simulated cycles across phases, counting each cycle once.
    pub fn total_cycles(&self) -> u64 {
        self.owning_phases().map(|p| p.cycles).sum()
    }

    /// Finalizes the summary: stamps total wall clock and peak RSS.
    pub fn finish(&mut self, started: Instant) {
        self.wall_s = started.elapsed().as_secs_f64();
        self.peak_rss_kb = peak_rss_kb();
    }

    /// Renders the `BENCH_*.json`-compatible document.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\n  \"name\": {},\n  \"jobs\": {},\n  \"peak_rss_kb\": {},\n  \"wall_s\": {},\n  \"phases\": [",
            json_str(&self.name),
            self.jobs,
            self.peak_rss_kb,
            json_f64(self.wall_s)
        );
        for (i, p) in self.phases.iter().enumerate() {
            let _ = write!(
                s,
                "{}\n    {{\"id\": {}, \"wall_s\": {}, \"cycles\": {}, \"records\": {}, \"cycles_per_s\": {}, \"records_per_s\": {}",
                if i == 0 { "" } else { "," },
                json_str(&p.id),
                json_f64(p.wall_s),
                p.cycles,
                p.records,
                json_f64(p.cycles_per_s()),
                json_f64(p.records_per_s())
            );
            if let Some(max) = p.chan_depth_max {
                let _ = write!(s, ", \"chan_depth_max\": {max}");
            }
            if let Some(mean) = p.chan_depth_mean {
                let _ = write!(s, ", \"chan_depth_mean\": {}", json_f64(mean));
            }
            if let Some(v) = p.stall_s {
                let _ = write!(s, ", \"stall_s\": {}", json_f64(v));
            }
            if let Some(v) = p.starve_s {
                let _ = write!(s, ", \"starve_s\": {}", json_f64(v));
            }
            if let Some(e) = &p.sim {
                let _ = write!(
                    s,
                    ", \"shared_steps\": {}, \"private_steps\": {}, \"private_batches\": {}, \"catch_ups\": {}",
                    e.shared_steps(),
                    e.private_steps(),
                    e.private_batches,
                    e.catch_ups
                );
                for (key, counts) in [
                    ("shared_by_class", &e.shared),
                    ("private_by_class", &e.private),
                ] {
                    let _ = write!(s, ", \"{key}\": {{");
                    for (k, (label, n)) in StepClass::LABELS.iter().zip(counts).enumerate() {
                        let _ = write!(s, "{}\"{label}\": {n}", if k == 0 { "" } else { ", " });
                    }
                    s.push('}');
                }
            }
            if let Some(c) = &p.checkpoint {
                let _ = write!(
                    s,
                    ", \"hits\": {}, \"misses\": {}, \"capture_us\": {}, \"restore_us\": {}",
                    c.hits, c.misses, c.capture_us, c.restore_us
                );
            }
            s.push('}');
        }
        s.push_str("\n  ]\n}\n");
        s
    }

    /// One-line human rendering for stderr.
    pub fn human_line(&self) -> String {
        format!(
            "perf: {} phases, {:.2}s wall, {} jobs, {:.1} Mcycles/s, {:.2} Mrec/s, peak RSS {} KB",
            self.phases.len(),
            self.wall_s,
            self.jobs,
            self.total_cycles() as f64 / self.wall_s.max(1e-9) / 1e6,
            self.total_records() as f64 / self.wall_s.max(1e-9) / 1e6,
            self.peak_rss_kb
        )
    }
}

/// A scope timer that appends a [`PhaseStats`] on drop-free completion.
pub struct PhaseTimer {
    id: String,
    started: Instant,
}

impl PhaseTimer {
    /// Starts timing `id`.
    pub fn start(id: impl Into<String>) -> Self {
        PhaseTimer {
            id: id.into(),
            started: Instant::now(),
        }
    }

    /// Stops the timer and records the phase into `summary`.
    pub fn stop(self, summary: &mut PerfSummary, cycles: u64, records: u64) {
        summary.phases.push(PhaseStats {
            id: self.id,
            wall_s: self.started.elapsed().as_secs_f64(),
            cycles,
            records,
            ..PhaseStats::default()
        });
    }
}

/// JSON string escaping (control chars, quotes, backslash).
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Finite-number JSON rendering (NaN/inf degrade to 0).
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Peak resident set size in KB from `/proc/self/status` (`VmHWM`);
/// 0 on platforms without procfs.
pub fn peak_rss_kb() -> u64 {
    #[cfg(target_os = "linux")]
    {
        if let Ok(status) = std::fs::read_to_string("/proc/self/status") {
            for line in status.lines() {
                if let Some(rest) = line.strip_prefix("VmHWM:") {
                    return rest
                        .trim()
                        .trim_end_matches(" kB")
                        .trim()
                        .parse()
                        .unwrap_or(0);
                }
            }
        }
        0
    }
    #[cfg(not(target_os = "linux"))]
    {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_is_well_formed() {
        let mut s = PerfSummary::new("unit", 2);
        let t = PhaseTimer::start("run/pmake");
        t.stop(&mut s, 1_000, 50);
        s.finish(Instant::now());
        let j = s.to_json();
        assert!(j.contains("\"name\": \"unit\""));
        assert!(j.contains("\"jobs\": 2"));
        assert!(j.contains("\"id\": \"run/pmake\""));
        assert!(j.contains("\"cycles\": 1000"));
        // Balanced braces/brackets.
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn chan_depth_fields_appear_only_when_sampled() {
        let mut s = PerfSummary::new("unit", 1);
        s.phases.push(PhaseStats {
            id: "render/pmake".into(),
            wall_s: 0.1,
            ..PhaseStats::default()
        });
        s.phases.push(PhaseStats {
            id: "simulate+analyze/pmake".into(),
            wall_s: 0.2,
            chan_depth_max: Some(7),
            chan_depth_mean: Some(2.5),
            ..PhaseStats::default()
        });
        let j = s.to_json();
        // The unsampled phase omits the fields entirely; the sampled
        // one carries them.
        assert_eq!(j.matches("chan_depth_max").count(), 1);
        assert!(j.contains("\"chan_depth_max\": 7"));
        assert!(j.contains("\"chan_depth_mean\": 2.5"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }

    #[test]
    fn offline_load_rows_do_not_double_count_records() {
        let mut s = PerfSummary::new("unit", 1);
        for (id, cycles, records) in [
            ("load/multpgm", 0, 900),
            ("analyze/multpgm", 5_000, 900),
            ("layer/multpgm/classify", 0, 900),
            ("layer/multpgm/resim", 0, 900),
            ("render/multpgm", 0, 0),
        ] {
            s.phases.push(PhaseStats {
                id: id.into(),
                cycles,
                records,
                ..PhaseStats::default()
            });
        }
        assert_eq!(s.total_records(), 900);
        assert_eq!(s.total_cycles(), 5_000);
    }

    #[test]
    fn escaping_handles_special_chars() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_f64(f64::NAN), "0");
        assert_eq!(json_f64(1.5), "1.5");
    }

    #[test]
    fn rates_are_computed() {
        let p = PhaseStats {
            id: "x".into(),
            wall_s: 2.0,
            cycles: 4_000_000,
            records: 1_000,
            ..PhaseStats::default()
        };
        assert!((p.cycles_per_s() - 2_000_000.0).abs() < 1e-6);
        assert!((p.records_per_s() - 500.0).abs() < 1e-6);
    }

    #[test]
    fn peak_rss_reads_on_linux() {
        #[cfg(target_os = "linux")]
        assert!(peak_rss_kb() > 0, "VmHWM should be readable");
    }
}
