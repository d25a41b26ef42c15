//! The benchmark harness.
//!
//! ```text
//! perfbench --workload <suite|vm-cotenant|fleet-churn> --seed <n>
//!           --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! Each workload repeats its timed phase for `--seconds` and reports the
//! medians. `--trace 0` reports the end-to-end metrics; `--trace 1` runs
//! the same repetitions, then a span-wrapped one, and reports the
//! per-layer metrics (whose spans are written to `--out`). Every
//! repetition is checked: law verdicts, suite job status, and output
//! digests that must agree across repetitions, wrappers and worker
//! counts. The last stdout line is one JSON object; `perfbench/run.py`
//! builds this binary and turns that line into the benchmark's result.

mod cotenant;
mod fleet;
mod measure;
mod metrics;
mod micro;
mod span;
mod suite;
mod wrap;

use metrics::{Outcome, WORKLOADS};
use std::fmt::Write as _;
use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::time::Instant;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut out = PathBuf::from(".perfbench-out");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w:?} (one of {WORKLOADS:?})"));
                }
                workload = Some(w);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, got {v:?}")),
                })
            }
            "--out" => out = PathBuf::from(value()?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.ok_or("--trace is required")?,
        out,
    })
}

fn json_str(s: &str) -> String {
    simcore::json::Json::Str(s.to_string()).render()
}

/// The result line: the contract's four keys plus digest, failures and
/// run parameters.
fn render(a: &Args, o: &Outcome) -> String {
    let mut j = String::new();
    let _ = write!(
        j,
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        o.failed == 0,
        o.attempted,
        o.failed
    );
    for (i, (d, v)) in o.report(a.traced).iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(
            j,
            "{sep}{}:{{\"value\":{v:?},\"unit\":{}}}",
            json_str(&d.name),
            json_str(d.unit)
        );
    }
    let _ = write!(j, "}},\"digest\":{},\"failures\":[", json_str(&o.digest));
    for (i, f) in o.failures.iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(j, "{sep}{}", json_str(f));
    }
    let _ = write!(j, "],\"meta\":{{");
    for (i, (k, v)) in o.meta.iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(j, "{sep}{}:{}", json_str(k), json_str(v));
    }
    j.push_str("}}");
    j
}

fn main() {
    let a = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    let nproc = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    let t0 = Instant::now();
    let mut o = match a.workload.as_str() {
        "suite" => suite::run(a.seed, a.seconds, nproc, a.traced),
        "vm-cotenant" => cotenant::run(a.seed, a.seconds, a.traced),
        "fleet-churn" => fleet::run(
            a.seed,
            a.seconds,
            NonZeroUsize::new(nproc).expect("available_parallelism is non-zero"),
            a.traced,
        ),
        _ => unreachable!("workload validated by parse_args"),
    };
    o.meta("workload", &a.workload);
    o.meta("seed", a.seed);
    o.meta("seconds", a.seconds);
    o.meta("trace", u8::from(a.traced));
    o.meta("nproc", nproc);
    o.meta("elapsed_s", format!("{:.3}", t0.elapsed().as_secs_f64()));
    if let Some(spans) = o.spans.take() {
        let path = a
            .out
            .join(format!("{}-seed{}.spans.jsonl", a.workload, a.seed));
        let written = std::fs::create_dir_all(&a.out).and_then(|()| std::fs::write(&path, spans));
        match written {
            Ok(()) => o.meta("spans", path.display()),
            Err(e) => o.check(false, || format!("cannot write {}: {e}", path.display())),
        }
    }
    for (d, v) in o.report(a.traced) {
        eprintln!("perfbench: {:<40} {v:>16.6} {}", d.name, d.unit);
    }
    for f in &o.failures {
        eprintln!("perfbench: FAILED {f}");
    }
    eprintln!(
        "perfbench: {} checks, {} failed, digest {}",
        o.attempted, o.failed, o.digest
    );
    println!("{}", render(&a, &o));
    if o.failed > 0 {
        std::process::exit(1);
    }
}
