//! Runs the figure/table suite on the supervised deterministic runner.
//!
//! Figure outputs go to stdout (stable across `--jobs` values for a given
//! seed); the timing summary, failure report, and operational notes go to
//! stderr so output equality can be checked with a plain `diff`.
//!
//! ```text
//! cargo run --release -p experiments --bin suite -- [--jobs N] [--filter S]
//!     [--scale smoke|quick|paper] [--seed N] [--retries N] [--deadline-ms N]
//!     [--fleet-threads N] [--ckpt-dir PATH | --no-ckpt] [--resume] [--list]
//!     [--shrink KIND:SEED | --replay FILE]
//! ```
//!
//! * Cells run under supervision: a panicking or over-deadline cell is
//!   retried (same seed), and an exhausted cell fails **its job only** —
//!   the suite still exits 0 and prints the structured failure report to
//!   stderr (plus `FAILURES.json` next to the checkpoint). Supervision
//!   isolating a failure is the tool working, not a tool error.
//! * Finished jobs are checkpointed to `target/suite_ckpt/` (override with
//!   `--ckpt-dir`, disable with `--no-ckpt`); `--resume` replays them
//!   byte-for-byte and re-runs only the rest.
//! * `--shrink KIND:SEED` delta-debugs the plan that SEED generates for
//!   the KIND suite job — `chaos` (host `FaultPlan`), `fleet-chaos`
//!   (`FleetChaosPlan` host failures) or `adversary` (`AttackPlan`) — down
//!   to a locally-minimal event subset failing the same checker law, run
//!   under SEED, and writes the repro file
//!   `target/<KIND>_repro_<SEED>.json` (dashes as underscores): an
//!   envelope `{"kind", "seed", "law", "plan"}`. `--replay FILE`
//!   dispatches on the file's kind, re-runs the plan under its recorded
//!   seed, and exits 0 iff the recorded law fails again (1 when it does
//!   not, 2 on an unreadable or malformed file).
//!   `VSCHED_SHRINK_LAW=synthetic` swaps the real checkers for the
//!   synthetic canary laws (tests/CI).
//! * `VSCHED_CANARY=1` appends the always-failing canary job (CI
//!   supervision smoke).
//! * `--list` prints every registered job id with its cell count and a
//!   one-line description, then exits.
//! * `--fleet-threads N` bounds the host-stepping worker pool inside the
//!   fleet/fleet-replay cells' clusters (default: available parallelism;
//!   `0` is rejected with a named-field error). Worker count never
//!   changes suite output — only wall clock.

use experiments::runner::{registry, run_suite, SuiteOptions};
use experiments::shrink::{self, Oracle, ReproError};
use experiments::{checkpoint, Scale};
use std::path::PathBuf;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: suite [--jobs N] [--filter SUBSTR[,SUBSTR...]] \
         [--scale smoke|quick|paper] [--seed N] [--retries N] [--deadline-ms N] \
         [--fleet-threads N] [--ckpt-dir PATH | --no-ckpt] [--resume] [--list] \
         [--shrink KIND:SEED | --replay FILE]\n\
         \n\
         --fleet-threads N   host-stepping workers for fleet/fleet-replay \
         cells (default: available parallelism; output is byte-identical \
         at any worker count)\n\
         --shrink KIND:SEED  ddmin the seeded plan of KIND (chaos, \
         fleet-chaos, adversary) into target/<KIND>_repro_<SEED>.json\n\
         --replay FILE       re-run a repro file under its recorded seed; \
         exit 0 iff its recorded law fails again"
    );
    std::process::exit(2);
}

/// `--shrink KIND:SEED`: ddmin the kind's seeded plan to a 1-minimal
/// subset failing the same law, under an oracle run with that seed, and
/// write the repro file.
fn shrink_main(arg: &str, scale: Scale) -> ! {
    let Some((kind, seed)) = arg
        .split_once(':')
        .and_then(|(kind, seed)| Some((kind, seed.parse::<u64>().ok()?)))
    else {
        eprintln!(
            "--shrink needs KIND:SEED with KIND one of {}",
            shrink::KINDS.join(", ")
        );
        usage()
    };
    let oracle = Oracle::from_env();
    eprintln!(
        "# shrink: {kind} seed {seed}, {} scale, {oracle:?} law",
        scale.label()
    );
    let out = match shrink::shrink_seed(kind, seed, scale, oracle) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("# shrink: {e}");
            std::process::exit(if e == ReproError::PlanPasses { 1 } else { 2 });
        }
    };
    if let Some(parent) = out.path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    if let Err(e) = checkpoint::atomic_write(&out.path, out.file.as_bytes()) {
        eprintln!("# shrink: cannot write {}: {e}", out.path.display());
        std::process::exit(2);
    }
    eprintln!(
        "# shrink: {}; repro written to {}",
        out.summary,
        out.path.display()
    );
    std::process::exit(0);
}

/// `--replay FILE`: re-run a repro file under its recorded seed; exit 0
/// iff its recorded law fails again.
fn replay_main(path: &str) -> ! {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("# replay: cannot read {path}: {e}");
        std::process::exit(2);
    });
    match shrink::replay(&text, Oracle::from_env()) {
        Ok(r) => {
            eprintln!("# replay: {path}: {}", r.summary);
            std::process::exit(if r.reproduced { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("# replay: {path}: {e}");
            std::process::exit(2);
        }
    }
}

fn main() {
    let mut opts = SuiteOptions {
        scale: Scale::from_env(),
        checkpoint: Some(PathBuf::from("target/suite_ckpt")),
        canary: std::env::var("VSCHED_CANARY")
            .map(|v| v == "1")
            .unwrap_or(false),
        ..SuiteOptions::default()
    };
    let mut list = false;
    let mut no_ckpt = false;
    let mut shrink_arg: Option<String> = None;
    let mut replay_file: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--jobs" | "-j" => {
                opts.jobs = value("--jobs").parse().unwrap_or_else(|_| usage());
            }
            "--filter" | "-f" => opts.filter = Some(value("--filter")),
            "--scale" | "-s" => {
                opts.scale = Scale::parse(&value("--scale")).unwrap_or_else(|| usage());
            }
            "--seed" => {
                opts.seed = value("--seed").parse().unwrap_or_else(|_| usage());
            }
            "--retries" => {
                opts.supervise.retries = value("--retries").parse().unwrap_or_else(|_| usage());
            }
            "--deadline-ms" => {
                let ms: u64 = value("--deadline-ms").parse().unwrap_or_else(|_| usage());
                opts.supervise.deadline = Some(Duration::from_millis(ms));
            }
            "--fleet-threads" => match fleet::parse_fleet_threads(&value("--fleet-threads")) {
                Ok(n) => opts.fleet_threads = Some(n),
                Err(e) => {
                    eprintln!("--fleet-threads: {e}");
                    usage();
                }
            },
            "--ckpt-dir" => opts.checkpoint = Some(PathBuf::from(value("--ckpt-dir"))),
            "--no-ckpt" => no_ckpt = true,
            "--resume" => opts.resume = true,
            "--shrink" => shrink_arg = Some(value("--shrink")),
            "--replay" => replay_file = Some(value("--replay")),
            "--list" => list = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag: {other}");
                usage();
            }
        }
    }
    if no_ckpt {
        opts.checkpoint = None;
    }

    if list {
        for j in registry() {
            println!("{:<8} {:>3} cells  {}", j.name, j.cells.len(), j.desc);
        }
        println!(
            "# fleet/fleet-replay cells shard host stepping across a cluster \
             pool; override with --fleet-threads N (default: available \
             parallelism, byte-identical output at any worker count)"
        );
        return;
    }
    if let Some(arg) = shrink_arg {
        shrink_main(&arg, opts.scale);
    }
    if let Some(path) = replay_file {
        replay_main(&path);
    }

    let res = match run_suite(&opts) {
        Ok(res) => res,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    // Failed jobs print nothing: healthy output stays byte-identical to a
    // clean run's, and the failure report below carries the rest.
    for r in res.reports.iter().filter(|r| r.ok) {
        println!("=== {} ===", r.name);
        println!("{}", r.output);
    }

    let cpu: f64 = res.reports.iter().map(|r| r.cpu_secs).sum();
    eprintln!(
        "# suite: {} jobs, {} cells ({} executed, {} jobs resumed), scale={}, seed={}, workers={}",
        res.reports.len(),
        res.reports.iter().map(|r| r.cells).sum::<usize>(),
        res.executed_cells,
        res.resumed_jobs,
        opts.scale.label(),
        opts.seed,
        res.workers,
    );
    for r in &res.reports {
        let status = if !r.ok {
            " FAILED"
        } else if r.from_checkpoint {
            " (resumed)"
        } else {
            ""
        };
        eprintln!(
            "#   {:<8} {:>4} cells {:>8.2}s cpu{status}",
            r.name, r.cells, r.cpu_secs
        );
    }
    for note in &res.notes {
        eprintln!("# note: {note}");
    }
    eprintln!(
        "# wall {:.2}s, cpu {:.2}s, speedup {:.2}x",
        res.wall_secs,
        cpu,
        cpu / res.wall_secs.max(1e-9)
    );

    if !res.failures.is_empty() {
        eprint!("{}", res.failures);
        let report_path = opts
            .checkpoint
            .as_deref()
            .map(|d| d.join("FAILURES.json"))
            .unwrap_or_else(|| PathBuf::from("target/suite_failures.json"));
        if let Some(parent) = report_path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        match checkpoint::atomic_write(&report_path, res.failures.to_json().as_bytes()) {
            Ok(()) => eprintln!("# failure report: {}", report_path.display()),
            Err(e) => eprintln!("# failure report unwritable ({e})"),
        }
        // Supervised failures are isolated, reported, and non-fatal by
        // design: exit 0 so one bad cell doesn't fail a whole CI suite run.
    }
}
