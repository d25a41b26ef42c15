//! Offline wall-clock bench harness.
//!
//! Times the simulator's hot paths end to end — no criterion, no registry
//! deps, runs anywhere tier-1 builds — and writes the results to
//! `BENCH_vsched.json` in the working directory. Six micro benches plus
//! the suite wall clock:
//!
//! * `hostsim_dispatch` — events/sec through `Machine::run_until` on a
//!   two-VM contention scenario (the simulator's outer loop).
//! * `guest_context_switch` — guest context switches/sec under a
//!   wakeup-heavy hackbench workload (the guest scheduler's inner loop).
//! * `pelt_update` — ns per `Pelt::update` (the per-event decay math the
//!   fixed-point table optimizes).
//! * `llc_advance` — ns per `LlcModel::advance` on a contended two-socket
//!   occupancy model (the lazy math behind `Machine::llc_pressure` and
//!   the vcache probes).
//! * `fleet_step_rate` — events/sec stepping a churned 16-host fleet
//!   cluster in lockstep, pinned to one worker (the serial baseline the
//!   sharded-stepping rows below measure against).
//! * `figure_fig03_quick` — one full quick-scale figure, as simulated
//!   seconds per wall second (everything composed).
//! * `fleet` rows — the same churned cluster at 16/64/256/1000 hosts,
//!   each stepped serially (`--fleet-threads 1`) and on the auto-sized
//!   host-stepping pool, with the summaries asserted identical. The
//!   256-host speedup is the sharded-stepping acceptance metric on
//!   multi-core runners; single-core runners report `speedup: null`.
//! * `suite` — the full figure/table suite, serial (`--jobs 1`) vs
//!   parallel (auto-sized pool).
//!
//! Scale comes from `VSCHED_SCALE` (default quick) or `--scale`; use
//! `--skip-suite` for a micro-only pass and `--out` to redirect the JSON.

use experiments::runner::{run_suite, SuiteOptions};
use experiments::Scale;
use guestos::pelt::{Pelt, PeltState};
use hostsim::{HostSpec, ScenarioBuilder, VmSpec};
use simcore::time::MS;
use simcore::{SimRng, SimTime};
use std::fmt::Write as _;
use std::num::NonZeroUsize;
use std::time::Instant;
use workloads::{build, work_ms, Stressor};

/// One micro bench: `units` operations in `secs` of wall time.
struct Micro {
    name: &'static str,
    /// What one unit is (for the JSON's self-description).
    unit: &'static str,
    units: u64,
    secs: f64,
}

impl Micro {
    fn per_sec(&self) -> f64 {
        self.units as f64 / self.secs.max(1e-12)
    }
}

/// Host event dispatch: two stressor VMs contending on 8 threads, counting
/// popped events per wall second.
fn bench_hostsim_dispatch(sim_secs: u64) -> Micro {
    let (b, vm) = ScenarioBuilder::new(HostSpec::flat(8), 1).vm(VmSpec::pinned(8, 0));
    let (b, vm2) = b.vm(VmSpec::pinned(8, 0));
    let mut m = b.build();
    let (w0, _h0) = Stressor::new(8, work_ms(10.0));
    let (w1, _h1) = Stressor::new(8, work_ms(10.0));
    m.set_workload(vm, Box::new(w0));
    m.set_workload(vm2, Box::new(w1));
    m.start();
    let t0 = Instant::now();
    m.run_until(SimTime::from_secs(sim_secs));
    Micro {
        name: "hostsim_dispatch",
        unit: "events",
        units: m.events_dispatched,
        secs: t0.elapsed().as_secs_f64(),
    }
}

/// Guest context switches under a wakeup-heavy hackbench workload on an
/// overcommitted VM.
fn bench_guest_context_switch(sim_secs: u64) -> Micro {
    let (b, vm) = ScenarioBuilder::new(HostSpec::flat(8), 1).vm(VmSpec::pinned(8, 0));
    let (b, stress_vm) = b.vm(VmSpec::pinned(8, 0));
    let mut m = b.build();
    let (wl, _h) = build("hackbench", 16, SimRng::new(7));
    m.set_workload(vm, wl);
    let (sw, _s) = Stressor::new(8, work_ms(10.0));
    m.set_workload(stress_vm, Box::new(sw));
    m.start();
    let t0 = Instant::now();
    m.run_until(SimTime::from_secs(sim_secs));
    let switches = m.vms[vm].guest.kern.stats.context_switches.get();
    Micro {
        name: "guest_context_switch",
        unit: "switches",
        units: switches,
        secs: t0.elapsed().as_secs_f64(),
    }
}

/// Raw PELT decay math: a realistic spread of update deltas cycling through
/// all three entity states.
fn bench_pelt_update(iters: u64) -> Micro {
    let mut p = Pelt::new(SimTime(0));
    let mut now = 0u64;
    // Deltas spanning sub-tick to multi-half-life gaps, like real runs mix.
    let deltas = [50_000u64, 350_000, 1_000_000, 4_000_000, 48_000_000];
    let states = [PeltState::Running, PeltState::Runnable, PeltState::Sleeping];
    let t0 = Instant::now();
    for i in 0..iters {
        now += deltas[(i % deltas.len() as u64) as usize];
        p.update(SimTime(now), states[(i % 3) as usize]);
    }
    let secs = t0.elapsed().as_secs_f64();
    // Keep the accumulated averages observable so the loop can't be
    // dead-code-eliminated.
    assert!(p.util() >= 0.0 && p.load() >= 0.0);
    Micro {
        name: "pelt_update",
        unit: "updates",
        units: iters,
        secs,
    }
}

/// Raw LLC occupancy math: `LlcModel::advance` on a contended two-socket
/// model whose sockets hold a mix of running and descheduled working
/// sets, so every call exercises the fill, decay, and over-capacity
/// eviction passes (the lazy path behind `Machine::llc_pressure` and
/// every vcache probe slice).
fn bench_llc_advance(iters: u64) -> Micro {
    const MB: f64 = 1024.0 * 1024.0;
    let mut llc = hostsim::llc::LlcModel::new(2, 32.0 * MB);
    for _ in 0..6 {
        llc.add_vm();
    }
    for vm in 0..6 {
        llc.set_footprint(SimTime::ZERO, vm, (4 + vm) as f64 * 4.0 * MB);
    }
    // Footprints total 114 MB against 64 MB of LLC; one VM per socket
    // stays descheduled so decay runs alongside fill and eviction.
    for vm in 0..3 {
        llc.on_sched(SimTime::ZERO, vm, 0);
    }
    for vm in 3..5 {
        llc.on_sched(SimTime::ZERO, vm, 1);
    }
    let mut now = SimTime::ZERO;
    let t0 = Instant::now();
    for i in 0..iters {
        now = now.after(250_000 + (i % 7) * 50_000);
        llc.advance(now, (i % 2) as usize);
    }
    let secs = t0.elapsed().as_secs_f64();
    // Observable so the loop can't be dead-code-eliminated.
    assert!(llc.pressure() > 0.0);
    Micro {
        name: "llc_advance",
        unit: "advances",
        units: iters,
        secs,
    }
}

/// Fleet steady-state step rate: a churned 16-host cluster of vSched
/// guests under the probe-aware policy, counting simulation events
/// dispatched across all hosts per wall second. Pinned to one worker so
/// the row stays comparable across runners and releases — the `fleet`
/// rows below carry the serial-vs-pool comparison.
fn bench_fleet_step_rate(sim_secs: u64) -> Micro {
    let spec = fleet::FleetSpec::small(16, 4, sim_secs);
    let mut c = fleet::Cluster::with_threads(
        spec,
        fleet::GuestMode::Vsched,
        fleet::policy_by_name("probe-aware").expect("registered policy"),
        1,
        NonZeroUsize::MIN,
    );
    let t0 = Instant::now();
    let s = c.run();
    let secs = t0.elapsed().as_secs_f64();
    assert_eq!(s.violations, 0, "bench run must satisfy the fleet laws");
    assert!(s.placed > 0, "churn must place VMs");
    Micro {
        name: "fleet_step_rate",
        unit: "events",
        units: c.events_dispatched(),
        secs,
    }
}

/// One fleet-size point of the sharded-stepping comparison.
struct FleetRow {
    hosts: usize,
    horizon_secs: u64,
    arrival_mean_ms: u64,
    events: u64,
    serial_secs: f64,
    parallel_secs: f64,
    /// Effective workers in the parallel run (pool size capped at hosts).
    workers: usize,
}

impl FleetRow {
    fn serial_per_sec(&self) -> f64 {
        self.events as f64 / self.serial_secs.max(1e-12)
    }
    fn parallel_per_sec(&self) -> f64 {
        self.events as f64 / self.parallel_secs.max(1e-12)
    }
}

/// Steps the same churned vSched/probe-aware fleet twice — serial, then
/// on the auto-sized stepping pool — and asserts the runs are
/// indistinguishable (same events dispatched, same summary) before
/// reporting the wall-clock ratio.
fn bench_fleet_cluster(hosts: usize, horizon_secs: u64) -> FleetRow {
    let mut spec = fleet::FleetSpec::small(hosts, 4, horizon_secs);
    // Hold per-host placement pressure constant as the fleet grows: the
    // 16-host row keeps the historical 250 ms mean interarrival, larger
    // fleets arrive proportionally faster (floored at 4 ms).
    spec.arrival_mean_ns = (250 * MS * 16 / hosts as u64).max(4 * MS);
    let run = |workers: NonZeroUsize| {
        let mut c = fleet::Cluster::with_threads(
            spec.clone(),
            fleet::GuestMode::Vsched,
            fleet::policy_by_name("probe-aware").expect("registered policy"),
            1,
            workers,
        );
        let t0 = Instant::now();
        let s = c.run();
        let secs = t0.elapsed().as_secs_f64();
        assert_eq!(s.violations, 0, "bench run must satisfy the fleet laws");
        (s, c.events_dispatched(), secs, c.effective_workers())
    };
    let (ss, serial_events, serial_secs, _) = run(NonZeroUsize::MIN);
    let (ps, parallel_events, parallel_secs, workers) = run(fleet::default_fleet_threads());
    assert_eq!(
        serial_events, parallel_events,
        "parallel stepping dispatched different events at {hosts} hosts"
    );
    assert_eq!(
        (ss.admitted, ss.placed, ss.completed, ss.trace_events),
        (ps.admitted, ps.placed, ps.completed, ps.trace_events),
        "parallel stepping summary diverged from serial at {hosts} hosts"
    );
    assert_eq!(
        (ss.p99_ms.to_bits(), ss.mean_util.to_bits()),
        (ps.p99_ms.to_bits(), ps.mean_util.to_bits()),
        "parallel stepping floats diverged from serial at {hosts} hosts"
    );
    FleetRow {
        hosts,
        horizon_secs,
        arrival_mean_ms: spec.arrival_mean_ns / MS,
        events: serial_events,
        serial_secs,
        parallel_secs,
        workers,
    }
}

/// One complete quick-scale figure: simulated seconds per wall second.
fn bench_figure_fig03() -> Micro {
    let t0 = Instant::now();
    let fig = experiments::fig03::figure().run(42, Scale::Quick);
    let secs = t0.elapsed().as_secs_f64();
    assert!(fig.improvement() > 0.0);
    // Two modes at quick scale's 5 simulated seconds each.
    Micro {
        name: "figure_fig03_quick",
        unit: "simulated_secs",
        units: 10,
        secs,
    }
}

struct SuiteTiming {
    serial_secs: f64,
    parallel_secs: f64,
    workers: usize,
    jobs: usize,
    cells: usize,
}

/// The full suite, serial then parallel with an auto-sized pool.
fn bench_suite(scale: Scale) -> SuiteTiming {
    let serial = run_suite(&SuiteOptions {
        jobs: 1,
        scale,
        ..SuiteOptions::default()
    })
    .expect("unfiltered suite always matches");
    let parallel = run_suite(&SuiteOptions {
        jobs: 0,
        scale,
        ..SuiteOptions::default()
    })
    .expect("unfiltered suite always matches");
    for (s, p) in serial.reports.iter().zip(&parallel.reports) {
        assert_eq!(
            s.output, p.output,
            "suite output diverged between serial and parallel on {}",
            s.name
        );
    }
    SuiteTiming {
        serial_secs: serial.wall_secs,
        parallel_secs: parallel.wall_secs,
        workers: parallel.workers,
        jobs: parallel.reports.len(),
        cells: parallel.reports.iter().map(|r| r.cells).sum(),
    }
}

fn json_f(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.6}")
    } else {
        "null".into()
    }
}

fn main() {
    let mut scale = Scale::from_env();
    let mut out = String::from("BENCH_vsched.json");
    let mut skip_suite = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                let v = args.next().unwrap_or_default();
                scale = Scale::parse(&v).unwrap_or_else(|| {
                    eprintln!("bad --scale {v:?} (smoke|quick|paper)");
                    std::process::exit(2);
                });
            }
            "--out" => {
                out = args.next().unwrap_or_else(|| {
                    eprintln!("--out needs a path");
                    std::process::exit(2);
                });
            }
            "--skip-suite" => skip_suite = true,
            other => {
                eprintln!("unknown flag: {other} (--scale, --out, --skip-suite)");
                std::process::exit(2);
            }
        }
    }

    // Sized so each micro bench runs long enough to time stably (hundreds
    // of ms) but the whole pass stays CI-friendly.
    eprintln!("# micro benches (scale-independent)");
    let micros = [
        bench_hostsim_dispatch(30),
        bench_guest_context_switch(30),
        bench_pelt_update(20_000_000),
        bench_llc_advance(5_000_000),
        bench_fleet_step_rate(10),
        bench_figure_fig03(),
    ];
    for m in &micros {
        eprintln!(
            "#   {:<22} {:>12} {} in {:>7.3}s = {:>14.0} /s",
            m.name,
            m.units,
            m.unit,
            m.secs,
            m.per_sec()
        );
    }

    eprintln!("# fleet cluster stepping, serial vs pool");
    let fleet_rows = [
        bench_fleet_cluster(16, 10),
        bench_fleet_cluster(64, 4),
        bench_fleet_cluster(256, 2),
        bench_fleet_cluster(1000, 1),
    ];
    for r in &fleet_rows {
        if r.workers > 1 {
            eprintln!(
                "#   {:>4} hosts {:>10} events: serial {:>13.0} /s, pool({}) {:>13.0} /s = {:.2}x",
                r.hosts,
                r.events,
                r.serial_per_sec(),
                r.workers,
                r.parallel_per_sec(),
                r.serial_secs / r.parallel_secs.max(1e-9)
            );
        } else {
            // Same convention as the suite row below: on a single
            // effective core a "speedup" only measures pool overhead.
            eprintln!(
                "#   {:>4} hosts {:>10} events: serial {:>13.0} /s, pool(1) {:>13.0} /s \
                 (speedup skipped: single effective core)",
                r.hosts,
                r.events,
                r.serial_per_sec(),
                r.parallel_per_sec(),
            );
        }
    }

    let suite = if skip_suite {
        None
    } else {
        eprintln!("# suite ({} scale), serial then parallel...", scale.label());
        let s = bench_suite(scale);
        if s.workers > 1 {
            eprintln!(
                "#   suite: {} jobs / {} cells, serial {:.2}s, parallel {:.2}s on {} workers = {:.2}x",
                s.jobs,
                s.cells,
                s.serial_secs,
                s.parallel_secs,
                s.workers,
                s.serial_secs / s.parallel_secs.max(1e-9)
            );
        } else {
            // One effective core: "parallel" ran on a single worker, so a
            // speedup figure would only measure pool overhead. Skip it
            // rather than publish a lying ~1.0x row.
            eprintln!(
                "#   suite: {} jobs / {} cells, serial {:.2}s, parallel {:.2}s on 1 worker \
                 (speedup skipped: single effective core)",
                s.jobs, s.cells, s.serial_secs, s.parallel_secs,
            );
        }
        Some(s)
    };

    let mut j = String::new();
    let _ = writeln!(j, "{{");
    let _ = writeln!(j, "  \"schema\": \"vsched-bench-v1\",");
    let _ = writeln!(j, "  \"scale\": \"{}\",", scale.label());
    let _ = writeln!(j, "  \"micro\": {{");
    for (i, m) in micros.iter().enumerate() {
        let comma = if i + 1 < micros.len() { "," } else { "" };
        let _ = writeln!(
            j,
            "    \"{}\": {{\"unit\": \"{}\", \"units\": {}, \"secs\": {}, \"per_sec\": {}}}{comma}",
            m.name,
            m.unit,
            m.units,
            json_f(m.secs),
            json_f(m.per_sec())
        );
    }
    let _ = writeln!(j, "  }},");
    let _ = writeln!(j, "  \"fleet\": {{");
    let _ = writeln!(
        j,
        "    \"note\": \"sharded host stepping (per-epoch barriers); per-host scratch \
         (utilization series, placement host views) is preallocated at cluster \
         construction — the pre-preallocation 16-host serial baseline was \
         2677444 events/sec\","
    );
    let _ = writeln!(j, "    \"rows\": [");
    for (i, r) in fleet_rows.iter().enumerate() {
        let comma = if i + 1 < fleet_rows.len() { "," } else { "" };
        let speedup = if r.workers > 1 {
            format!(
                "\"speedup\": {}",
                json_f(r.serial_secs / r.parallel_secs.max(1e-9))
            )
        } else {
            "\"speedup\": null, \"speedup_note\": \"skipped: single effective core, \
             stepping pool had 1 worker\""
                .to_string()
        };
        let _ = writeln!(
            j,
            "      {{\"hosts\": {}, \"horizon_secs\": {}, \"arrival_mean_ms\": {}, \
             \"events\": {}, \"serial_secs\": {}, \"serial_per_sec\": {}, \
             \"parallel_secs\": {}, \"parallel_per_sec\": {}, \"workers\": {}, {speedup}}}{comma}",
            r.hosts,
            r.horizon_secs,
            r.arrival_mean_ms,
            r.events,
            json_f(r.serial_secs),
            json_f(r.serial_per_sec()),
            json_f(r.parallel_secs),
            json_f(r.parallel_per_sec()),
            r.workers,
        );
    }
    let _ = writeln!(j, "    ]");
    let _ = writeln!(j, "  }},");
    match &suite {
        Some(s) => {
            let _ = writeln!(j, "  \"suite\": {{");
            let _ = writeln!(j, "    \"jobs\": {},", s.jobs);
            let _ = writeln!(j, "    \"cells\": {},", s.cells);
            let _ = writeln!(j, "    \"workers\": {},", s.workers);
            let _ = writeln!(j, "    \"serial_wall_secs\": {},", json_f(s.serial_secs));
            let _ = writeln!(
                j,
                "    \"parallel_wall_secs\": {},",
                json_f(s.parallel_secs)
            );
            if s.workers > 1 {
                let _ = writeln!(
                    j,
                    "    \"speedup\": {}",
                    json_f(s.serial_secs / s.parallel_secs.max(1e-9))
                );
            } else {
                let _ = writeln!(j, "    \"speedup\": null,");
                let _ = writeln!(
                    j,
                    "    \"speedup_note\": \"skipped: single effective core, \
                     parallel pool had 1 worker\""
                );
            }
            let _ = writeln!(j, "  }}");
        }
        None => {
            let _ = writeln!(j, "  \"suite\": null");
        }
    }
    let _ = writeln!(j, "}}");

    std::fs::write(&out, &j).unwrap_or_else(|e| {
        eprintln!("cannot write {out}: {e}");
        std::process::exit(1);
    });
    eprintln!("# wrote {out}");
}
