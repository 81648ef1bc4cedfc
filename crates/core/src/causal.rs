//! Core wiring for the causal synchronization profiler
//! ([`oscar_obs::causal`]): builds the profiler's window-relative
//! input from a run's artifacts, and interprets the analysis back into
//! the repo's export surfaces — `exhibit.causal.*` metrics, the
//! "Critical path" report section, the `--causal-out` JSON document,
//! and Perfetto flow arrows linking each spin span to the hold span
//! whose release enabled it.
//!
//! Everything here is gated on the request: a run without
//! `--causal-out` takes none of these paths and exports byte-identical
//! documents.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use oscar_obs::causal::{spin_links, wait_edges, CausalSpan, WaitEdge};
use oscar_obs::{causal_analyze, CausalAnalysis, CausalInput, Metrics, Timeline};
use oscar_os::KernelRegion;
use oscar_os::{LockFamily, LockId, LockPhase};

use crate::analyze::TraceAnalysis;
use crate::driver::ReportOutput;
use crate::experiment::RunArtifacts;
use crate::observe::{jstr, RunObs, PID_CPUS, TRACKS_PER_CPU, TRACK_LOCK, TRACK_MODE, TRACK_OP};

/// Hot-line symbols attached per lock in the export.
const SYMBOLS_PER_LOCK: usize = 3;

/// The kernel region a lock family's protected data lives in, for
/// joining lock contention to the hot-line exhibit's symbols. `None`
/// for families without a fixed kernel structure.
fn family_region(family: LockFamily) -> Option<KernelRegion> {
    match family {
        LockFamily::Memlock => Some(KernelRegion::Pfdat),
        LockFamily::Runqlk => Some(KernelRegion::RunQueue),
        LockFamily::Ifree | LockFamily::Ino => Some(KernelRegion::InodeTable),
        LockFamily::Bfreelock => Some(KernelRegion::BufHeaders),
        LockFamily::Calock => Some(KernelRegion::Callout),
        LockFamily::Pipe => Some(KernelRegion::PipeBuf),
        LockFamily::Shr | LockFamily::Semlock => Some(KernelRegion::ProcTable),
        LockFamily::Dfbmaplk | LockFamily::Streams => Some(KernelRegion::MiscData),
        LockFamily::User => None,
    }
}

/// The display name of one lock instance: the plain family label for
/// singletons, `Label[i]` for `_x` families.
fn lock_name(id: LockId) -> String {
    if id.instance == 0 {
        id.family.label().to_string()
    } else {
        format!("{}[{}]", id.family.label(), id.instance)
    }
}

/// Builds the causal profiler's input from a run's lock spans, mode /
/// op timeline tracks, and per-CPU fill counts. Deterministic: every
/// list derives from the deterministic simulation outputs.
pub fn build_causal_input(art: &RunArtifacts, obs: &RunObs) -> CausalInput {
    let cpus = art.machine_config.num_cpus as usize;
    let window = art.measure_end.saturating_sub(art.measure_start);

    // Lock-name table in (family, instance) order.
    let mut ids: Vec<LockId> = obs.lock_spans.iter().map(|s| s.lock).collect();
    ids.sort();
    ids.dedup();
    let index: BTreeMap<LockId, u32> = ids
        .iter()
        .enumerate()
        .map(|(i, &id)| (id, i as u32))
        .collect();
    let locks: Vec<String> = ids.iter().map(|&id| lock_name(id)).collect();

    let spans: Vec<CausalSpan> = obs
        .lock_spans
        .iter()
        .map(|s| {
            let start = s.start.saturating_sub(art.measure_start).min(window);
            let end = s.end.saturating_sub(art.measure_start).min(window);
            CausalSpan {
                lock: index[&s.lock],
                cpu: s.cpu.index(),
                hold: s.phase == LockPhase::Hold,
                start,
                end: end.max(start),
                truncated: s.truncated,
            }
        })
        .collect();

    // Idle and kernel-op intervals from the per-CPU timeline tracks.
    let mut idle: Vec<Vec<(u64, u64)>> = vec![Vec::new(); cpus];
    let mut ops: Vec<Vec<(u64, u64, String)>> = vec![Vec::new(); cpus];
    for sp in obs.timeline.spans() {
        if sp.pid != PID_CPUS {
            continue;
        }
        let cpu = (sp.tid / TRACKS_PER_CPU) as usize;
        if cpu >= cpus {
            continue;
        }
        let (a, b) = (sp.ts.min(window), (sp.ts + sp.dur).min(window));
        if b <= a {
            continue;
        }
        match sp.tid % TRACKS_PER_CPU {
            TRACK_MODE if sp.cat == "mode" && sp.name == "idle" => idle[cpu].push((a, b)),
            TRACK_OP if sp.cat == "os-op" => ops[cpu].push((a, b, sp.name.clone())),
            _ => {}
        }
    }
    for v in &mut idle {
        v.sort_unstable();
    }
    for v in &mut ops {
        v.sort_by_key(|iv| (iv.0, iv.1));
    }

    let fill_stall: Vec<u64> = (0..cpus)
        .map(|c| obs.cpu_fills.get(c).copied().unwrap_or(0) * art.machine_config.bus_fill_cycles)
        .collect();

    CausalInput {
        window_cycles: window,
        cpus,
        locks,
        spans,
        idle,
        ops,
        fill_stall,
        symbols: vec![Vec::new(); ids.len()],
    }
}

/// Attaches hot-line symbols to each lock of `input` by joining the
/// lock family's kernel region against the hot-line exhibit's top
/// rows. No-op when the run did not track hot lines.
pub fn attach_symbols(input: &mut CausalInput, an: &TraceAnalysis, ids: &[LockId]) {
    let Some(h) = an.hotlines.as_deref() else {
        return;
    };
    for (li, &id) in ids.iter().enumerate() {
        let Some(region) = family_region(id.family) else {
            continue;
        };
        let syms = &mut input.symbols[li];
        for r in h.top.iter().filter(|r| r.region == region) {
            if !syms.iter().any(|s| s == &r.symbol) {
                syms.push(r.symbol.clone());
            }
            if syms.len() >= SYMBOLS_PER_LOCK {
                break;
            }
        }
    }
}

/// The sorted lock-id table [`build_causal_input`] derives its name
/// table from (needed by [`attach_symbols`]).
pub fn lock_ids(obs: &RunObs) -> Vec<LockId> {
    let mut ids: Vec<LockId> = obs.lock_spans.iter().map(|s| s.lock).collect();
    ids.sort();
    ids.dedup();
    ids
}

/// Runs the full causal analysis for one run: input construction,
/// symbol attachment, and the profiler itself.
pub fn causal_for_run(art: &RunArtifacts, an: &TraceAnalysis, obs: &RunObs) -> CausalAnalysis {
    let mut input = build_causal_input(art, obs);
    attach_symbols(&mut input, an, &lock_ids(obs));
    causal_analyze(&input)
}

/// Folds the analysis into the run's metrics registry under the
/// `exhibit.causal.*` prefix (histograms auto-emit p50/p90/p99).
pub fn add_causal_metrics(metrics: &mut Metrics, a: &CausalAnalysis) {
    metrics.add("exhibit.causal.window_cycles", a.window_cycles);
    metrics.add("exhibit.causal.wall_cycles", a.wall_cycles);
    metrics.add("exhibit.causal.edges", a.edges.len() as u64);
    metrics.add("exhibit.causal.chains", a.chains.len() as u64);
    metrics.add("exhibit.causal.truncated_spans", a.truncated_spans);
    metrics.add("exhibit.causal.unmatched_spins", a.unmatched_spins);
    metrics.insert_hist("exhibit.causal.chain_depth", &a.depth_hist);
    metrics.insert_hist("exhibit.causal.block_cycles", &a.block_hist);

    let cp = &a.critical_path;
    metrics.add("exhibit.causal.critical_path_cycles", cp.cycles);
    metrics.add("exhibit.causal.path.compute_cycles", cp.compute_cycles);
    metrics.add("exhibit.causal.path.spin_cycles", cp.spin_cycles);
    metrics.add("exhibit.causal.path.hold_cycles", cp.hold_cycles);
    for l in &cp.locks {
        let name = &a.locks[l.lock as usize];
        metrics.add(&format!("exhibit.causal.path.lock.{name}.spin"), l.spin);
        metrics.add(&format!("exhibit.causal.path.lock.{name}.hold"), l.hold);
        if let Some(sym) = a.symbols.get(l.lock as usize).and_then(|v| v.first()) {
            metrics.add(
                &format!("exhibit.causal.path.symbol.{sym}"),
                l.spin + l.hold,
            );
        }
    }
    for (op, cycles) in &cp.ops {
        metrics.add(&format!("exhibit.causal.path.op.{op}"), *cycles);
    }

    let mut totals = [0u64; 5];
    for s in &a.segments {
        totals[0] += s.compute;
        totals[1] += s.mem_stall;
        totals[2] += s.spin;
        totals[3] += s.hold;
        totals[4] += s.idle;
    }
    for (leaf, v) in ["compute", "mem_stall", "spin", "hold", "idle"]
        .iter()
        .zip(totals)
    {
        metrics.add(&format!("exhibit.causal.segment.{leaf}"), v);
    }

    for wc in &a.what_if {
        let name = &a.locks[wc.lock as usize];
        if let Some(p) = wc.points.iter().find(|p| p.factor == 2.0) {
            metrics.set_gauge(
                &format!("exhibit.causal.what_if.{name}.x2_delta_pct"),
                p.delta_pct,
            );
        }
    }
}

/// The "Critical path" report section. Renders nothing when causal
/// profiling was not requested, keeping every pre-existing report
/// byte-identical.
pub fn render_causal_section(art: &RunArtifacts, a: &CausalAnalysis) -> String {
    let mut s = String::new();
    let cp = &a.critical_path;
    let _ = writeln!(s, "Critical path — {}", art.workload);
    let pct = |v: u64| {
        if cp.cycles > 0 {
            v as f64 / cp.cycles as f64 * 100.0
        } else {
            0.0
        }
    };
    let _ = writeln!(
        s,
        "  {} of {} wall cycles on the path ({} compute {:.1}%, {} spin {:.1}%, {} hold {:.1}%)",
        cp.cycles,
        cp.wall_cycles,
        cp.compute_cycles,
        pct(cp.compute_cycles),
        cp.spin_cycles,
        pct(cp.spin_cycles),
        cp.hold_cycles,
        pct(cp.hold_cycles),
    );
    let _ = writeln!(
        s,
        "  wait-for graph: {} edges, {} chains, {} truncated spans, {} unmatched spins",
        a.edges.len(),
        a.chains.len(),
        a.truncated_spans,
        a.unmatched_spins
    );
    if !cp.locks.is_empty() {
        let _ = writeln!(
            s,
            "  {:16} {:>12} {:>12}  symbols",
            "lock", "path spin", "path hold"
        );
        for l in cp.locks.iter().take(8) {
            let syms = a
                .symbols
                .get(l.lock as usize)
                .map(|v| v.join(", "))
                .unwrap_or_default();
            let _ = writeln!(
                s,
                "  {:16} {:>12} {:>12}  {}",
                a.locks[l.lock as usize], l.spin, l.hold, syms
            );
        }
    }
    if !a.what_if.is_empty() {
        let _ = writeln!(s, "  what-if (predicted wall-cycle change):");
        for wc in a.what_if.iter().take(5) {
            let mut curve = String::new();
            for p in &wc.points[1..] {
                let _ = write!(curve, "  {:.2}x {:+.2}%", p.factor, p.delta_pct);
            }
            let _ = writeln!(s, "    {:16}{}", a.locks[wc.lock as usize], curve);
        }
    }
    s
}

/// A compact top-wait-chains table for tooling
/// (`examples/lock_timeline.rs`).
pub fn wait_chains_table(a: &CausalAnalysis, n: usize) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:>10} {:>5}  chain (waiter -lock-> holder @op)",
        "blocked", "depth"
    );
    for ch in a.chains.iter().take(n) {
        let mut links = String::new();
        for (i, l) in ch.links.iter().enumerate() {
            if i > 0 {
                links.push_str(" -> ");
            }
            let _ = write!(
                links,
                "cpu{} -{}-> cpu{} @{}",
                l.waiter, a.locks[l.lock as usize], l.holder, l.holder_op
            );
        }
        let _ = writeln!(
            s,
            "{:>10} {:>5}  {}{}",
            ch.duration,
            ch.depth,
            links,
            if ch.truncated { "  [truncated]" } else { "" }
        );
    }
    s
}

/// Grafts viewer flow arrows onto the run's timeline: one arrow per
/// spin span, from the hold span whose release enabled the acquire to
/// the spinning slice it blocked. Anchors land strictly inside the
/// lock-track slices so the viewer can bind them.
pub fn add_causal_flows(timeline: &mut Timeline, input: &CausalInput) {
    let track = |cpu: usize| cpu as u32 * TRACKS_PER_CPU + TRACK_LOCK;
    for (id, (si, hi)) in spin_links(input).iter().enumerate() {
        let s = &input.spans[*si];
        let h = &input.spans[*hi];
        // Anchor inside each slice: the last cycle of the hold (its
        // release is what unblocks the waiter) and the last cycle of
        // the spin (the acquire).
        let from_ts = h.end.saturating_sub(1).max(h.start);
        let to_ts = s.end.saturating_sub(1).max(s.start);
        timeline.push_flow(
            id as u64,
            (PID_CPUS, track(h.cpu), from_ts),
            (PID_CPUS, track(s.cpu), to_ts),
            input.locks[s.lock as usize].clone(),
            "wait-for",
        );
    }
}

/// The wait-for edges for one run (the `waits` query row stream).
pub fn wait_edges_for_run(art: &RunArtifacts, obs: &RunObs) -> (Vec<WaitEdge>, Vec<String>) {
    let input = build_causal_input(art, obs);
    let edges = wait_edges(&input);
    (edges, input.locks)
}

/// Merges the per-request causal analyses into one JSON document keyed
/// by run tag, in request order (byte-identical for any `--jobs`).
/// Requests that ran without causal profiling contribute nothing.
pub fn merge_causal_json(outputs: &[ReportOutput]) -> String {
    let mut out = String::from("{");
    let mut first = true;
    for o in outputs {
        let Some(a) = &o.causal else { continue };
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "\n{}: ", jstr(&o.tag));
        out.push_str(&oscar_obs::render_causal_json(a));
    }
    out.push_str("\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::ExperimentConfig;
    use crate::pipeline::{run_streaming, StreamOptions};
    use oscar_workloads::WorkloadKind;

    /// An observed run; its [`RunObs`] is taken out of the artifacts.
    fn artifacts() -> (RunArtifacts, TraceAnalysis, RunObs) {
        let cfg = ExperimentConfig::new(WorkloadKind::Pmake)
            .warmup(200_000)
            .measure(600_000);
        let opts = StreamOptions {
            observe: true,
            ..StreamOptions::default()
        };
        let (mut art, an) = run_streaming(&cfg, &opts);
        let obs = *art.obs.take().expect("observed run");
        (art, an, obs)
    }

    #[test]
    fn input_segments_cover_the_window() {
        let (art, _, obs) = artifacts();
        let input = build_causal_input(&art, &obs);
        assert_eq!(input.window_cycles, art.measure_end - art.measure_start);
        assert_eq!(input.cpus, art.machine_config.num_cpus as usize);
        let a = causal_analyze(&input);
        for s in &a.segments {
            assert_eq!(
                s.total(),
                input.window_cycles,
                "cpu{} buckets must tile the window",
                s.cpu
            );
        }
    }

    #[test]
    fn metrics_and_section_render() {
        let (art, an, obs) = artifacts();
        let a = causal_for_run(&art, &an, &obs);
        let mut m = Metrics::new();
        add_causal_metrics(&mut m, &a);
        let j = m.to_json();
        assert!(j.contains("exhibit.causal.critical_path_cycles"));
        assert!(j.contains("exhibit.causal.chain_depth"));
        let sec = render_causal_section(&art, &a);
        assert!(sec.starts_with("Critical path"));
        let table = wait_chains_table(&a, 5);
        assert!(table.contains("blocked"));
    }

    #[test]
    fn lock_names_follow_instances() {
        assert_eq!(
            lock_name(LockId::new(LockFamily::Runqlk, 0)),
            "Runqlk".to_string()
        );
        assert_eq!(
            lock_name(LockId::new(LockFamily::Ino, 7)),
            "Ino_x[7]".to_string()
        );
    }
}
