//! `fleet-churn`: a stochastic-churn cluster of 4-thread hosts with CFS
//! guests, stepped in 50 ms epochs on the stepping pool.
//!
//! Time goes to fleet stepping, epoch barriers and placement views; host
//! simulation runs as hundreds of small flat machines with the LLC model
//! inert, and vSched does no work, so a vSched-only change must leave
//! this workload unchanged.

use crate::measure::{Digest, Reference, Reps};
use crate::metrics::Outcome;
use crate::span::{span, Kind, SharedTracer, Tracer};
use crate::wrap::TimedPolicy;
use fleet::{Cluster, FleetSpec, GuestMode, SloSummary};
use simcore::time::MS;
use std::num::NonZeroUsize;
use std::time::Instant;

/// Hosts in the cluster.
pub const HOSTS: usize = 256;
const THREADS_PER_HOST: usize = 4;
/// Simulated seconds per repetition.
pub const HORIZON_SECS: u64 = 6;
const POLICY: &str = "probe-aware";

fn spec() -> FleetSpec {
    let mut s = FleetSpec::small(HOSTS, THREADS_PER_HOST, HORIZON_SECS);
    // Arrivals outpace departures, so the live population sits at its
    // cap for most of the run, and every VM has the same size: which VMs
    // live where and for how long comes from the seed, but the amount of
    // simulated work varies little between seeds.
    s.arrival_mean_ns = 4 * MS;
    s.max_live_vms = HOSTS / 2;
    s.size_mix = vec![(2, 1)];
    s
}

/// Builds the cluster (every host machine constructed and started), its
/// placement policy timed when `tr` is given.
fn build_with(
    spec: FleetSpec,
    seed: u64,
    workers: NonZeroUsize,
    tr: Option<&SharedTracer>,
) -> Cluster {
    let policy = fleet::policy_by_name(POLICY).expect("registered policy");
    let policy: Box<dyn fleet::PlacementPolicy> = match tr {
        Some(tr) => Box::new(TimedPolicy::new(policy, tr.clone())),
        None => policy,
    };
    Cluster::with_threads(spec, GuestMode::Cfs, policy, seed, workers)
}

/// Builds the workload's cluster.
pub fn build(seed: u64, workers: NonZeroUsize, tr: Option<&SharedTracer>) -> Cluster {
    build_with(spec(), seed, workers, tr)
}

/// Digest of a finished run's outputs.
pub fn digest(c: &Cluster, s: &SloSummary) -> Digest {
    let mut d = Digest::default()
        .u64(c.events_dispatched())
        .u64(s.admitted)
        .u64(s.placed)
        .u64(s.rejected)
        .u64(s.completed)
        .u64(s.dropped)
        .f64(s.p50_ms)
        .f64(s.p99_ms)
        .f64(s.worst_tenant_p99_ms)
        .u64(s.slo_violations as u64)
        .f64(s.fairness)
        .f64(s.mean_util)
        .f64(s.peak_util)
        .u64(s.trace_events)
        .u64(s.violations);
    for series in c.host_util() {
        for &u in series {
            d = d.f64(u);
        }
    }
    d
}

fn check(o: &mut Outcome, c: &Cluster, s: &SloSummary, first: &mut Option<Digest>, what: &str) {
    o.check(s.violations == 0 && s.stranded == 0, || {
        format!(
            "{what}: {} law violations ({:?}), {} stranded",
            s.violations, s.first_law, s.stranded
        )
    });
    o.check(s.placed > 0, || format!("{what}: churn placed no VM"));
    let d = digest(c, s);
    o.check(first.is_none_or(|f| f == d), || {
        format!(
            "{what}: digest {} differs from the first repetition",
            d.hex()
        )
    });
    first.get_or_insert(d);
}

/// Repeats the churn for `seconds` on `workers` stepping workers after a
/// warm-up, then replays it on one worker (the summaries must match);
/// `traced` adds a span-wrapped repetition and reports per-layer metrics.
pub fn run(seed: u64, seconds: f64, workers: NonZeroUsize, traced: bool) -> Outcome {
    let mut o = Outcome::default();
    o.meta("hosts", HOSTS);
    o.meta("threads_per_host", THREADS_PER_HOST);
    o.meta("horizon_s", HORIZON_SECS);
    o.meta("policy", POLICY);
    o.meta("fleet_workers", workers);
    let mut reference = Reference::new();
    let mut first = None;
    let mut warm = build(seed, workers, None);
    let s = warm.run();
    check(&mut o, &warm, &s, &mut first, "warm-up");
    drop(warm);
    let (mut reps, mut setups) = (Reps::default(), Vec::new());
    let mut last = None;
    let start = Instant::now();
    while reps.len() == 0 || start.elapsed().as_secs_f64() < seconds {
        let t0 = Instant::now();
        let mut c = build(seed, workers, None);
        setups.push(t0.elapsed().as_secs_f64());
        let t = reference.time(|| c.run());
        check(&mut o, &c, &t.out, &mut first, "repetition");
        reps.push(&t);
        last = Some(t.out);
    }

    let mut serial = build(seed, NonZeroUsize::MIN, None);
    let st = reference.time(|| serial.run());
    check(&mut o, &serial, &st.out, &mut first, "one-worker replay");
    o.digest = first.expect("warm-up ran").hex();
    if !traced {
        o.set_end_to_end(&reps, &setups);
        return o;
    }
    let wall = reps.median_wall();

    let tr = Tracer::shared(1);
    let mut c = build(seed, workers, Some(&tr));
    let t = reference.time(|| span(&tr, Kind::ClusterRun, || c.run()));
    check(&mut o, &c, &t.out, &mut first, "traced repetition");
    let base = last.expect("a timed repetition");
    let t_ = tr.borrow();
    let place = t_.totals(Kind::Place);
    let events = serial.events_dispatched() as f64;
    let place_s = place.total_ns as f64 * 1e-9;
    o.set("run.sim_rate", (HOSTS as u64 * HORIZON_SECS) as f64 / wall);
    o.set("run.wall_s", wall);
    let per_ref = reps.per_ref().0;
    o.set("run.span_overhead_frac", t.wall_s / t.ref_s / per_ref - 1.0);
    o.set("hostsim.events", events);
    o.set("hostsim.ns_per_event", (st.wall_s - place_s) * 1e9 / events);
    o.set("trace.events", base.trace_events as f64);
    o.set("fleet.place_s", place_s);
    o.set("fleet.place_calls", place.calls as f64);
    o.set("fleet.placed", base.placed as f64);
    o.set("fleet.rejected", base.rejected as f64);
    o.set("fleet.events", c.schedule().len() as f64);
    o.set("fleet.pool_speedup", st.wall_s / st.ref_s / per_ref);
    crate::micro::report(&mut o);
    o.spans = Some(t_.render_jsonl());
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_wrapper_is_byte_neutral_at_any_worker_count() {
        let small = || {
            let mut s = FleetSpec::small(8, THREADS_PER_HOST, 2);
            s.arrival_mean_ns = 60 * MS;
            s
        };
        let run = |workers: usize, tr: Option<&SharedTracer>| {
            let workers = NonZeroUsize::new(workers).expect("non-zero");
            let mut c = build_with(small(), 9, workers, tr);
            let s = c.run();
            assert_eq!(s.violations, 0);
            digest(&c, &s)
        };
        let tr = Tracer::shared(0);
        let plain = run(1, None);
        assert_eq!(plain, run(1, Some(&tr)));
        assert_eq!(plain, run(2, None));
        assert!(tr.borrow().totals(Kind::Place).calls > 0);
    }
}
