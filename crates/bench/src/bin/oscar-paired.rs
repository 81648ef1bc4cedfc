//! `oscar-paired`: an alternating paired capture of two `oscar-reports`
//! builds. Host speed drifts by tens of percent within half an hour, so
//! two builds are compared in pairs of back-to-back runs that share the
//! drift, and every figure carries its spread (arXiv 1811.01412).
//!
//! ```text
//! oscar-paired A_BIN B_BIN PAIRS OUT.json -- ARGS...
//! ```
//!
//! Each side first runs `BIN ARGS... --perf-out <tmp>` once, untimed,
//! which warms the page cache and fills any `--checkpoint-dir` in
//! `ARGS`. Then come `PAIRS` pairs, A first in odd pairs and B first in
//! even ones. Every run's stdout must equal the first A run's byte for
//! byte; otherwise the capture stops with exit 1.
//!
//! `OUT.json` holds one row for the invocation's `wall`, one for its
//! `peak_rss_mb`, one for the `wall_s` of every `--perf-out` phase
//! (`stage/*`, `layer/*`, `checkpoint/*`, ...) and one `<phase>.<field>`
//! row for each of a phase's own numbers (a `stage` row's stall and
//! starve times, a `sim` row's step counts). Rows missing from any run,
//! or zero in every run, are left out. Each row gives both sides'
//! median, quartiles, IQR, min, max and per-pair values, and `b_wins`,
//! the pairs in which B was lower. The host (`nproc`, CPU model,
//! kernel) and whether the checkpoint cache was warm come with it.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{exit, Command};

use oscar_core::perf::{json_f64, json_str};
use oscar_obs::diff::{parse_json, JsonValue};

const USAGE: &str = "usage: oscar-paired A_BIN B_BIN PAIRS OUT.json -- ARGS...";

/// One run's stdout and its measured values by row id.
struct Run {
    stdout: Vec<u8>,
    values: BTreeMap<String, f64>,
}

fn run_once(bin: &Path, args: &[String], perf: &Path) -> Result<Run, String> {
    let out = Command::new(bin)
        .args(args)
        .arg("--perf-out")
        .arg(perf)
        .output()
        .map_err(|e| format!("{}: {e}", bin.display()))?;
    if !out.status.success() {
        return Err(format!(
            "{} exited with {}:\n{}",
            bin.display(),
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let text = std::fs::read_to_string(perf).map_err(|e| format!("{}: {e}", perf.display()))?;
    let Ok(JsonValue::Obj(top)) = parse_json(&text) else {
        return Err(format!("{}: not a perf summary", perf.display()));
    };
    let mut values = BTreeMap::new();
    if let Some(JsonValue::Num(w)) = top.get("wall_s") {
        values.insert("wall".to_string(), *w);
    }
    if let Some(JsonValue::Num(kb)) = top.get("peak_rss_kb") {
        values.insert("peak_rss_mb".to_string(), kb / 1024.0);
    }
    if let Some(JsonValue::Arr(phases)) = top.get("phases") {
        for phase in phases {
            let JsonValue::Obj(p) = phase else { continue };
            let Some(JsonValue::Str(id)) = p.get("id") else {
                continue;
            };
            for (field, v) in p {
                let JsonValue::Num(x) = v else { continue };
                match field.as_str() {
                    "wall_s" => values.insert(id.clone(), *x),
                    // Totals and rates the wall already gives.
                    "cycles" | "records" | "cycles_per_s" | "records_per_s" => continue,
                    _ => values.insert(format!("{id}.{field}"), *x),
                };
            }
        }
    }
    Ok(Run {
        stdout: out.stdout,
        values,
    })
}

/// The `q` quantile of ascending `sorted`, interpolated linearly.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn json_list(xs: &[f64]) -> String {
    let items: Vec<String> = xs.iter().map(|&x| json_f64(x)).collect();
    format!("[{}]", items.join(", "))
}

/// `{"median", "q1", "q3", "iqr", "min", "max", "runs"}` of one side.
fn side_json(runs: &[f64]) -> (f64, String) {
    let mut sorted = runs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let (q1, median, q3) = (
        quantile(&sorted, 0.25),
        quantile(&sorted, 0.5),
        quantile(&sorted, 0.75),
    );
    let json = format!(
        "{{\"median\": {}, \"q1\": {}, \"q3\": {}, \"iqr\": {}, \"min\": {}, \"max\": {}, \"runs\": {}}}",
        json_f64(median),
        json_f64(q1),
        json_f64(q3),
        json_f64(q3 - q1),
        json_f64(sorted[0]),
        json_f64(sorted[sorted.len() - 1]),
        json_list(runs)
    );
    (median, json)
}

/// The first `model name` of `/proc/cpuinfo`, or `unknown`.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn kernel() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}

/// The unit of a row: wall times in seconds, `*_us` fields in
/// microseconds, other phase fields counts.
fn unit(id: &str) -> &'static str {
    match id.rsplit_once('.') {
        None if id == "peak_rss_mb" => "MB",
        None => "s",
        Some((_, f)) if f.ends_with("_s") => "s",
        Some((_, f)) if f.ends_with("_us") => "us",
        Some(_) => "count",
    }
}

fn capture(a: &Path, b: &Path, pairs: usize, out: &Path, args: &[String]) -> Result<(), String> {
    let perf = PathBuf::from(format!("{}.perf.tmp", out.display()));
    let bins = [a, b];
    // The untimed warm-up of each side.
    let reference = run_once(a, args, &perf)?.stdout;
    if run_once(b, args, &perf)?.stdout != reference {
        return Err(format!(
            "warm-up: {} printed other bytes than {}",
            b.display(),
            a.display()
        ));
    }
    let mut runs: [Vec<Run>; 2] = [Vec::new(), Vec::new()];
    for pair in 1..=pairs {
        let order = if pair % 2 == 1 { [0, 1] } else { [1, 0] };
        for side in order {
            let run = run_once(bins[side], args, &perf)?;
            if run.stdout != reference {
                return Err(format!(
                    "pair {pair}: {} printed other bytes than {}",
                    bins[side].display(),
                    a.display()
                ));
            }
            runs[side].push(run);
        }
        eprintln!("pair {pair}/{pairs} done");
    }
    let _ = std::fs::remove_file(&perf);

    // Rows every run reported, wall and peak RSS first.
    let mut ids: Vec<String> = vec!["wall".into(), "peak_rss_mb".into()];
    ids.extend(
        runs[0][0]
            .values
            .keys()
            .filter(|id| !ids.contains(id))
            .cloned()
            .collect::<Vec<_>>(),
    );
    ids.retain(|id| {
        runs.iter().flatten().all(|r| r.values.contains_key(id))
            && runs.iter().flatten().any(|r| r.values[id] != 0.0)
    });
    let checkpoint = if args.iter().any(|a| a == "--checkpoint-dir") {
        "warm"
    } else {
        "none"
    };
    let mut json = String::new();
    let argv: Vec<String> = args.iter().map(|s| json_str(s)).collect();
    let _ = write!(
        json,
        "{{\n  \"a\": {},\n  \"b\": {},\n  \"args\": [{}],\n  \"pairs\": {pairs},\n  \
         \"order\": \"A first in odd pairs\",\n  \"checkpoint\": \"{checkpoint}\",\n  \
         \"stdout_equal\": true,\n  \"host\": {{\"nproc\": {}, \"cpu_model\": {}, \"kernel\": {}}},\n  \
         \"rows\": [",
        json_str(&a.display().to_string()),
        json_str(&b.display().to_string()),
        argv.join(", "),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        json_str(&cpu_model()),
        json_str(&kernel()),
    );
    println!(
        "{:<40} {:>10} {:>10} {:>8} {:>7}",
        "row", "A median", "B median", "delta", "B wins"
    );
    for (i, id) in ids.iter().enumerate() {
        let side = |s: usize| -> Vec<f64> { runs[s].iter().map(|r| r.values[id]).collect() };
        let (va, vb) = (side(0), side(1));
        let b_wins = va.iter().zip(&vb).filter(|(x, y)| y < x).count();
        let (ma, ja) = side_json(&va);
        let (mb, jb) = side_json(&vb);
        let _ = write!(
            json,
            "{}\n    {{\"id\": {}, \"unit\": \"{}\", \"b_wins\": {b_wins},\n     \"a\": {ja},\n     \"b\": {jb}}}",
            if i == 0 { "" } else { "," },
            json_str(id),
            unit(id),
        );
        let delta = if ma > 0.0 {
            (mb / ma - 1.0) * 100.0
        } else {
            0.0
        };
        println!("{id:<40} {ma:>10.4} {mb:>10.4} {delta:>+7.1}% {b_wins:>4}/{pairs}");
    }
    json.push_str("\n  ]\n}\n");
    std::fs::write(out, json).map_err(|e| format!("{}: {e}", out.display()))?;
    eprintln!("wrote {}", out.display());
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(dash) = argv.iter().position(|a| a == "--") else {
        eprintln!("{USAGE}");
        exit(2);
    };
    let (head, args) = (&argv[..dash], &argv[dash + 1..]);
    let [a, b, pairs, out] = head else {
        eprintln!("{USAGE}");
        exit(2);
    };
    let Some(pairs) = pairs.parse::<usize>().ok().filter(|&n| n > 0) else {
        eprintln!("PAIRS must be a positive count\n{USAGE}");
        exit(2);
    };
    if let Err(e) = capture(Path::new(a), Path::new(b), pairs, Path::new(out), args) {
        eprintln!("error: {e}");
        exit(1);
    }
}
