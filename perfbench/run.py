#!/usr/bin/env python3
"""Benchmark runner for the oscar library.

    python3 perfbench/run.py --workload paper-suite --seed 7 --seconds 55 --trace 0

Builds `perfbench/` (a Cargo package of its own) against the crates in
this checkout, then runs one workload:

1. `multpgm-offline` only: an untimed process runs the multpgm window
   online and saves its trace.
2. The layer pass: one process rebuilds the workload's report call by
   call with a span around each public call (`oscar-perfbench trace`),
   checks the outputs and writes the batch report. With `--trace 1`,
   `paper-suite` also runs the layer pass of the 16-CPU directory
   configuration with every export on, for the directory and observer
   layers no timed workload drives.
3. The timed loop, for `--seconds`: report processes back to back (one
   complete report each, tracing off, its own peak RSS; offline each
   also times its trace load, the set-up), and at the start of each
   third of the window one set-up process (host probe, then one timed
   online set-up). Each report is checked against the batch report.

The last line of standard output is one JSON object: the end-to-end
metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
See perfbench/README.md for the workloads and what each metric means.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# `c16-dir-observed` is not in BENCHMARK.json: its reports are too noisy
# on a shared 2-vCPU host to time (see README.md). `paper-suite --trace 1`
# runs its layer pass; it can still be run on its own.
WORKLOADS = ("paper-suite", "c16-dir-observed", "multpgm-offline")
ONLINE = ("paper-suite", "c16-dir-observed")
OBSERVED = "c16-dir-observed"
EXPORTS = ("trace.json", "metrics.json", "provenance.json", "hotlines.json", "causal.json")
# Set-up processes per run, one at the start of each equal part of the
# window; also the fewest reports a run makes, however short --seconds.
SETUPS = 3
CHILD_TIMEOUT_S = 150

# Per-layer counts the simulator produces; each repeats exactly for a seed.
COUNT_KEYS = (
    "monitor.records",
    "os.dispatches", "os.migrations", "os.utlb_faults", "os.forks", "os.escape_reads",
    "os.kernel_misses", "os.user_misses", "os.lock_acquires", "os.lock_attempts",
    "machine.ifetch_fills", "machine.data_fills", "machine.upgrades", "machine.writebacks",
    "machine.snoop_invalidations", "machine.bus_stall_cycles", "machine.transactions",
    "machine.arbitration_wait", "machine.invals_sent",
    "machine.dir.get_s", "machine.dir.get_x", "machine.dir.upgrades", "machine.dir.writebacks",
    "machine.dir.invals_sent", "machine.dir.forwards", "machine.dir.bank_wait",
    "machine.dir.sharer_churn",
    "analyze.undecodable", "analyze.fills",
)
# Layers whose self time the report path's span tree is split into;
# `bench` is the benchmark's own glue between calls.
SELF_LAYERS = (
    "bench", "experiment", "tracefile", "analyze", "resim", "observe", "causal", "report",
)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg):
    log(f"error: {msg}")
    sys.exit(1)


def build(root):
    target = root / (os.environ.get("CARGO_TARGET_DIR") or "perfbench/target")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(root / "perfbench" / "Cargo.toml"),
           "--target-dir", str(target)]
    if subprocess.run(cmd, stdout=sys.stderr, cwd=root).returncode != 0:
        fail("cannot build perfbench (is this a full checkout of the repository?)")
    return target / "release" / "oscar-perfbench"


def child(binary, *args):
    """Runs one benchmark process to completion; returns its JSON result."""
    argv = [str(binary), *map(str, args)]
    try:
        p = subprocess.run(argv, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                           timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{' '.join(argv)} timed out")
    if p.returncode != 0:
        fail(f"{' '.join(argv)} exited with {p.returncode}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def table1_block(report):
    """The lines of the first Table 1 section of a report."""
    lines = report.splitlines()
    start = next(i for i, l in enumerate(lines) if l.startswith("Table 1 —"))
    end = next(i for i in range(start + 1, len(lines)) if lines[i].startswith("Figure 1 —"))
    return lines[start:end]


def span_metrics(spans):
    """Span durations summed by name, the fastest duration by name, self
    time by layer, and the traced wall: the root span less its
    `bench.extra` subtrees (work the report itself does not do)."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    length = lambda s: s["end_s"] - s["start_s"]
    dur, fastest = {}, {}
    for s in spans:
        dur[s["name"]] = dur.get(s["name"], 0.0) + length(s)
        fastest[s["name"]] = min(fastest.get(s["name"], float("inf")), length(s))
    self_by_layer = {layer: 0.0 for layer in SELF_LAYERS}
    root = next(s for s in spans if s["name"] == "bench.run")
    stack = [root]
    while stack:
        s = stack.pop()
        kids = [k for k in children.get(s["id"], []) if k["name"] != "bench.extra"]
        self_s = length(s) - sum(length(k) for k in children.get(s["id"], []))
        self_by_layer[s["name"].split(".")[0]] += self_s
        stack.extend(kids)
    return dur, fastest, self_by_layer, length(root) - dur.get("bench.extra", 0.0)


def per_layer(tr, prep, spans, wall_s, probes, checks_run, checks_failed, observed=None):
    dur, fastest, self_by_layer, traced_wall = span_metrics(spans)
    d = lambda name: dur.get(name, 0.0)
    # The directory and observer rows come from the observed
    # configuration's layer pass when one ran beside this workload's.
    obs_tr, obs_spans = observed or (tr, spans)
    obs_dur, obs_fastest, _, _ = span_metrics(obs_spans)
    od = lambda name: obs_dur.get(name, 0.0)
    # An observer's marginal cost: the faster "on" run less the faster
    # "off" run of its analyze.pair.* spans.
    marginal = lambda on, off: (obs_fastest[f"analyze.pair.{on}"] - obs_fastest[f"analyze.pair.{off}"]
                                if f"analyze.pair.{on}" in obs_fastest else 0.0)
    counts = tr["counts"]
    records = counts["monitor.records"]
    warm_k = tr["warmup_cycles"] / 1e3
    meas_k = tr["measure_cycles"] / 1e3
    analyze_s = d("analyze.batch") + d("resim.fig6") + d("resim.dcache")
    acquires = counts.get("os.lock_acquires", 0)
    m = {
        "experiment.construct_s": (d("experiment.construct"), "s"),
        "experiment.warmup_s": (d("experiment.warmup"), "s"),
        "experiment.warmup_ns_per_kcycle": (d("experiment.warmup") * 1e9 / warm_k if warm_k else 0.0, "ns/kcycle"),
        "experiment.measure_s": (d("experiment.measure"), "s"),
        "experiment.measure_ns_per_kcycle": (d("experiment.measure") * 1e9 / meas_k if meas_k else 0.0, "ns/kcycle"),
        "experiment.finish_s": (d("experiment.finish"), "s"),
    }
    for key in COUNT_KEYS:
        unit = "cycles" if key.endswith(("_cycles", "_wait")) else "count"
        src = obs_tr["counts"] if key.startswith("machine.dir.") else counts
        m[key] = (src.get(key, 0), unit)
    m["os.lock_first_try_ratio"] = (
        counts.get("os.lock_first_try_acquires", 0) / acquires if acquires else 0.0, "ratio")
    pipe = tr["pipeline"]
    m.update({
        "tracefile.load_s": (d("tracefile.load"), "s"),
        "tracefile.save_s": (prep["save_s"] if prep else 0.0, "s"),
        "decode.wall_s": (d("decode"), "s"),
        "decode.ns_per_record": (d("decode") * 1e9 / records, "ns/record"),
        "analyze.wall_s": (analyze_s, "s"),
        "analyze.ns_per_record": (analyze_s * 1e9 / records, "ns/record"),
        "analyze.batch_wall_s": (d("analyze.batch"), "s"),
        "resim.fig6_s": (d("resim.fig6"), "s"),
        "resim.dcache_s": (d("resim.dcache"), "s"),
        "observe.timeline_s": (od("observe.timeline"), "s"),
        "hotline.wall_s": (marginal("hotlines", "default"), "s"),
        "analyze.provenance_s": (marginal("provenance", "observed"), "s"),
        "causal.wall_s": (od("causal.analyze"), "s"),
        "observe.export_s": (od("observe.export"), "s"),
        "report.render_s": (d("report.render"), "s"),
        "pipeline.produce_s": (pipe.get("produce_s", 0.0), "s"),
        "pipeline.analyze_starve_s": (pipe.get("analyze_starve_s", 0.0), "s"),
        "pipeline.producer_stall_s": (pipe.get("producer_stall_s", 0.0), "s"),
        "pipeline.chan_depth_mean": (pipe.get("chan_depth_mean", 0.0), "chunks"),
        "host.probe_s": (statistics.median(probes), "s"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.overhead_s": (traced_wall - wall_s, "s"),
        "trace.self_sum_s": (sum(self_by_layer.values()), "s"),
    })
    for layer in SELF_LAYERS:
        m[f"{layer}.self_s"] = (self_by_layer[layer], "s")
    m["checks.run"] = (checks_run, "count")
    m["checks.failed"] = (checks_failed, "count")
    return m


def read_spans(work):
    return [json.loads(l) for l in (work / "spans.jsonl").read_text().splitlines()]


def parses(path):
    try:
        json.loads(path.read_bytes())
        return True
    except ValueError:
        return False


def observed_pass(binary, seed, work, run_id):
    """The layer pass of the 16-CPU directory configuration with every
    export on, then one streamed report of it with its exports written:
    the directory and observer layers, which no timed workload drives.
    Returns the pass's result, its spans and their checks."""
    obs = work / OBSERVED
    obs.mkdir()
    tr = child(binary, "trace", OBSERVED, seed, obs, f"{run_id}-{OBSERVED}", 1)
    child(binary, "report", OBSERVED, seed, obs)
    batch = (obs / "batch_report.txt").read_bytes()
    checks = [(c["name"], c["ok"]) for c in tr["checks"]]
    checks.append((f"{OBSERVED}: streamed (stage stats on) report == batch report",
                   (obs / "stream_report.txt").read_bytes() == batch))
    checks.append((f"{OBSERVED}: streamed report == batch report",
                   (obs / "report.txt").read_bytes() == batch))
    checks += [(f"{OBSERVED}: {name} parses", parses(obs / name)) for name in EXPORTS]
    spans = read_spans(obs)
    shutil.rmtree(obs)
    return tr, spans, checks


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path(__file__).resolve().parent.parent
    started = time.monotonic()
    binary = build(root)
    wl, seed = args.workload, args.seed
    work = root / "perfbench" / ".work" / wl
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run_id = f"{wl}-seed{seed}-pid{os.getpid()}"

    # Checks that hold for the seed as a whole, then per timed report.
    checks = []
    prep = None
    if wl == "multpgm-offline":
        prep = child(binary, "prep", wl, seed, work)
        checks += [(c["name"], c["ok"]) for c in prep["checks"]]
    tr = child(binary, "trace", wl, seed, work, run_id, args.trace)
    checks += [(c["name"], c["ok"]) for c in tr["checks"]]
    batch = (work / "batch_report.txt").read_bytes()
    if args.trace and wl in ONLINE:
        checks.append(("streamed (stage stats on) report == batch report",
                       (work / "stream_report.txt").read_bytes() == batch))
    if wl == "multpgm-offline":
        online_t1 = table1_block((work / "online_report.txt").read_text())
    spans = read_spans(work)
    observed = None
    if args.trace and wl == "paper-suite":
        obs_tr, obs_spans, obs_checks = observed_pass(binary, seed, work, run_id)
        observed = (obs_tr, obs_spans)
        checks += obs_checks
    log(f"build, prep and layer pass took {time.monotonic() - started:.1f} s")

    setups, probes, walls, rss, op_checks = [], [], [], [], []
    report_times = []
    export_digests = {}
    records = None
    t0 = time.monotonic()
    while True:
        elapsed = time.monotonic() - t0
        if len(probes) < SETUPS and elapsed >= len(probes) * args.seconds / SETUPS:
            s = child(binary, "setup", wl, seed, work)
            probes.append(s["probe_s"])
            if wl in ONLINE:
                setups.append(s["setup_s"])
            continue
        if (len(probes) == SETUPS and len(walls) >= SETUPS
                and elapsed + statistics.mean(report_times) > args.seconds):
            break
        report_started = time.monotonic()
        r = child(binary, "report", wl, seed, work)
        report_times.append(time.monotonic() - report_started)
        if wl == "multpgm-offline":
            # Offline, the set-up is the report's own trace load, timed inside it.
            setups.append(r["setup_s"])
        walls.append(r["wall_s"])
        rss.append(r["peak_rss_kb"] / 1024)
        records = int(r["records"])
        rep = len(walls)
        report = (work / "report.txt").read_bytes()
        mine = [(f"report {rep}: streamed bytes == batch report", report == batch)]
        if wl == "multpgm-offline":
            mine.append((f"report {rep}: offline Table 1 == online Table 1",
                         table1_block(report.decode()) == online_t1))
        if wl == OBSERVED:
            # Every report's exports must equal the first report's; those
            # are parsed once the timed loop is over.
            for name in EXPORTS:
                digest = hashlib.sha256((work / name).read_bytes()).hexdigest()
                mine.append((f"report {rep}: {name} identical across reports",
                             export_digests.setdefault(name, digest) == digest))
                if rep == 1:
                    (work / name).rename(work / f"first-{name}")
                else:
                    (work / name).unlink()
        op_checks.append(mine)
    if wl == OBSERVED:
        for name in EXPORTS:
            first = work / f"first-{name}"
            op_checks[0].append((f"report 1: {name} parses", parses(first)))
            first.unlink()
    (work / "report.txt").unlink()
    for name in ("multpgm.oscartrace", "batch_report.txt", "stream_report.txt",
                 "online_report.txt"):
        (work / name).unlink(missing_ok=True)

    for name, ok in checks + [c for op in op_checks for c in op]:
        if not ok:
            log(f"check failed: {name}")
    seed_ok = all(ok for _, ok in checks)
    failed = sum(1 for op in op_checks if not (seed_ok and all(ok for _, ok in op)))
    checks_run = len(checks) + sum(len(op) for op in op_checks)
    checks_failed = sum(1 for _, ok in checks if not ok) + sum(
        1 for op in op_checks for _, ok in op if not ok)

    # Every report of a run does the same work (one seed, a deterministic
    # simulator), so their spread is the host's, not the program's: the
    # mean uses every sample and varies less from run to run than the
    # median (see README.md, "Host noise").
    wall_s = statistics.mean(walls)
    log(f"{wl} seed {seed}: {len(walls)} reports, wall_s {['%.3f' % w for w in walls]} "
        f"(mean {wall_s:.3f}, median {statistics.median(walls):.3f}), "
        f"setup_s {['%.3f' % x for x in setups]}, host probe_s {['%.3f' % x for x in probes]}")
    if wl == OBSERVED:
        log("table1_err_pp: model unvalidated (no 16-CPU paper reference; "
            "scored against the 4-CPU Oracle column to track drift only)")
    if args.trace:
        metrics = per_layer(tr, prep, spans, wall_s, probes, checks_run, checks_failed,
                            observed)
    else:
        metrics = {
            "wall_s": (wall_s, "s"),
            "setup_s": (statistics.median(setups), "s"),
            "records_per_s": (records / wall_s, "1/s"),
            "peak_rss_mb": (statistics.median(rss), "MB"),
            "table1_err_pp": (tr["table1_err_pp"], "pp"),
        }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(op_checks),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
