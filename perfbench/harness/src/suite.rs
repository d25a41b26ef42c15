//! `suite`: every registry job through `run_suite` at smoke scale.
//!
//! The one workload where the runner pool and the cross-job critical path
//! set the wall time, and the number a user reproducing the paper waits
//! for. The simulator layers run inside the suite's cells, out of reach
//! of outside wrappers, so the traced run splits time by job instead.

use crate::measure::{Digest, Reference, Reps};
use crate::metrics::Outcome;
use crate::span::{span, Kind, Tracer};
use experiments::runner::{registry, run_suite, SuiteOptions, SuiteResult};
use experiments::Scale;
use std::num::NonZeroUsize;
use std::time::Instant;

/// Set-up repetitions per invocation (median reported).
const SETUP_REPS: usize = 25;

fn options(seed: u64, workers: usize) -> SuiteOptions {
    SuiteOptions {
        jobs: workers,
        scale: Scale::Smoke,
        seed,
        // One stepping worker inside fleet cells keeps the process at
        // `workers` threads; the worker count never changes cell output.
        fleet_threads: Some(NonZeroUsize::MIN),
        ..SuiteOptions::default()
    }
}

/// Rows of every table with a `violations` column whose value is not 0,
/// out of all such rows.
pub fn violation_rows(output: &str) -> (u64, u64) {
    let (mut rows, mut bad) = (0, 0);
    let mut col: Option<usize> = None;
    for line in output.lines() {
        if !line.starts_with('|') {
            // A border or text line; a blank line or text ends the table.
            if !line.starts_with('+') {
                col = None;
            }
            continue;
        }
        let cells: Vec<&str> = line.split('|').map(str::trim).collect();
        match col {
            None => col = cells.iter().position(|c| *c == "violations"),
            Some(i) => {
                rows += 1;
                if cells.get(i).and_then(|c| c.parse::<u64>().ok()) != Some(0) {
                    bad += 1;
                }
            }
        }
    }
    (rows, bad)
}

/// Checks one suite result and returns its output digest.
fn check(o: &mut Outcome, res: &SuiteResult) -> Digest {
    let mut d = Digest::default();
    for r in &res.reports {
        d = d.bytes(r.name.as_bytes()).bytes(r.output.as_bytes());
        let (_, bad) = violation_rows(&r.output);
        o.check(r.ok && bad == 0, || {
            format!("suite job {} ok={} law-violating rows={bad}", r.name, r.ok)
        });
    }
    for f in &res.failures.failures {
        o.check(false, || format!("suite cell failed: {f:?}"));
    }
    d
}

fn setup_samples() -> Vec<f64> {
    (0..SETUP_REPS)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(registry());
            t0.elapsed().as_secs_f64()
        })
        .collect()
}

/// Repeats the suite for `seconds`; `traced` then adds one span-wrapped
/// repetition and reports per-layer metrics instead of end-to-end ones.
pub fn run(seed: u64, seconds: f64, workers: usize, traced: bool) -> Outcome {
    let mut o = Outcome::default();
    let opts = options(seed, workers);
    o.meta("scale", Scale::Smoke.label());
    o.meta("suite_workers", workers);
    o.meta("fleet_threads", 1);
    let setups = setup_samples();
    let start = Instant::now();
    let mut reference = Reference::new();
    let mut reps = Reps::default();
    let mut first: Option<Digest> = None;
    let mut last: Option<SuiteResult> = None;
    while reps.len() == 0 || start.elapsed().as_secs_f64() < seconds {
        let t = reference.time(|| run_suite(&opts).expect("unfiltered suite matches every job"));
        let d = check(&mut o, &t.out);
        o.check(first.is_none_or(|f| f == d), || {
            "suite digest differs between repetitions".into()
        });
        first.get_or_insert(d);
        reps.push(&t);
        last = Some(t.out);
    }
    let digest = first.expect("at least one repetition");
    o.digest = digest.hex();
    if !traced {
        o.set_end_to_end(&reps, &setups);
        return o;
    }
    // Traced: the same suite inside a span, after the untraced baseline.
    let tr = Tracer::shared(1);
    let t = reference.time(|| {
        span(&tr, Kind::RunSuite, || {
            run_suite(&opts).expect("suite matches")
        })
    });
    let d = check(&mut o, &t.out);
    o.check(d == digest, || {
        "traced suite digest differs from untraced".into()
    });
    let base = last.expect("untraced repetition");
    o.set("run.wall_s", reps.median_wall());
    o.set(
        "run.span_overhead_frac",
        t.wall_s / t.ref_s / reps.per_ref().0 - 1.0,
    );
    let w = base.workers as f64;
    let cpu: f64 = base.reports.iter().map(|r| r.cpu_secs).sum();
    o.set("experiments.busy_frac", cpu / (w * base.wall_secs));
    o.set("experiments.idle_s", w * base.wall_secs - cpu);
    for r in &base.reports {
        o.set(&format!("experiments.job.{}.cpu_s", r.name), r.cpu_secs);
    }
    crate::micro::report(&mut o);
    o.spans = Some(tr.borrow().render_jsonl());
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn violation_rows_reads_only_the_violations_column() {
        let out = "title\n\
            +------+------------+\n\
            | name | violations |\n\
            +------+------------+\n\
            | a    | 0          |\n\
            | b    | 3          |\n\
            +------+------------+\n\
            \n\
            +------+-------+\n\
            | name | count |\n\
            +------+-------+\n\
            | c    | 5     |\n\
            +------+-------+\n";
        assert_eq!(violation_rows(out), (2, 1));
        assert_eq!(violation_rows("no tables here"), (0, 0));
    }
}
