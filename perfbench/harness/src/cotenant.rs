//! `vm-cotenant`: one 2-socket × 16-core host, a 32-vCPU full-vSched
//! victim and an 8-vCPU LLC-thrashing neighbour.
//!
//! The victim runs a closed-loop latency server beside message-passing
//! pairs; the neighbour streams through a working set larger than the
//! socket LLC on half of socket 1. Declared footprints keep the LLC model
//! live, a checked trace collector audits every event, and a frequency
//! step halfway through changes the capacity of socket 0's first eight
//! cores, which the probers must track. All host time goes to the
//! simulator stack on one thread: none to the suite runner or the fleet.
//!
//! Probe accuracy is measured here: every 250 ms a sampler compares each
//! victim vCPU's published capacity (`cap_override`) with host ground
//! truth, the hosting thread's capacity times the share of time the vCPU
//! ran while it wanted to run (`vcpu_active_ns` against `vcpu_steal`).
//! The reference is the host model, not hardware.

use crate::measure::{Digest, Reference, Reps};
use crate::metrics::Outcome;
use crate::span::{span, Kind, SharedTracer, Tracer};
use crate::wrap::{wrap_hooks, TimedWorkload};
use experiments::common::{check_report, checked_collector};
use experiments::Mode;
use guestos::Workload;
use hostsim::{HostSpec, Machine, Pinning, ScenarioBuilder, ScriptAction, VmSpec};
use simcore::time::{MS, SEC};
use simcore::{SimRng, SimTime};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;
use trace::SharedCollector;
use workloads::{
    work_ms, LatencyServer, LatencyServerCfg, LatencyStats, MsgPairs, MsgPairsCfg, MultiWorkload,
    Stressor, ThroughputStats,
};

/// Simulated seconds per repetition.
pub const HORIZON_SECS: u64 = 6;
const VICTIM_VCPUS: usize = 32;
const MB: f64 = 1024.0 * 1024.0;
const SAMPLE_NS: u64 = 250 * MS;
/// Samples before this are skipped: the probers' averages start cold.
const WARMUP_NS: u64 = 2 * SEC;

/// Running sums of the capacity error.
#[derive(Debug, Default)]
struct CapErr {
    prev: Vec<(u64, u64)>,
    probed: f64,
    default: f64,
    samples: u64,
}

impl CapErr {
    fn sample(&mut self, m: &Machine, victim: usize) {
        let now = m.q.now().ns();
        self.prev.resize(VICTIM_VCPUS, (0, 0));
        for v in 0..VICTIM_VCPUS {
            let gv = m.gv(victim, v);
            let (active, steal) = (m.vcpu_active_ns(gv), m.vcpu_steal(gv));
            let (pa, ps) = std::mem::replace(&mut self.prev[v], (active, steal));
            let (da, ds) = (active - pa, steal - ps);
            // A vCPU that barely wanted to run says nothing about its share.
            if now < WARMUP_NS || da + ds < SAMPLE_NS / 10 {
                continue;
            }
            let share = da as f64 / (da + ds) as f64;
            let truth = m.thread_cap(m.vcpu_affinity(gv)[0]) * share;
            if truth <= 0.0 {
                continue;
            }
            let published = m.vms[victim].guest.kern.vcpus[v]
                .cap_override
                .unwrap_or(1024.0);
            self.probed += (published - truth).abs() / truth;
            self.default += (1024.0 - truth).abs() / truth;
            self.samples += 1;
        }
    }

    fn pct(sum: f64, n: u64) -> f64 {
        100.0 * sum / n.max(1) as f64
    }
}

/// One built scenario and the handles its outputs are read through.
pub struct Scenario {
    /// The host.
    pub m: Machine,
    victim: usize,
    lat: Rc<RefCell<LatencyStats>>,
    pairs: Rc<RefCell<ThroughputStats>>,
    err: Rc<RefCell<CapErr>>,
    collector: Option<SharedCollector>,
}

fn boxed(w: impl Workload + 'static, tr: Option<&SharedTracer>) -> Box<dyn Workload> {
    match tr {
        Some(tr) => Box::new(TimedWorkload::new(Box::new(w), tr.clone())),
        None => Box::new(w),
    }
}

/// Builds and starts the scenario. `sink` attaches the checked trace
/// collector; `tr` wraps every workload and the victim's vSched hooks.
pub fn build(seed: u64, sink: bool, tr: Option<&SharedTracer>) -> Scenario {
    let (b, victim) = ScenarioBuilder::new(HostSpec::new(2, 16, 1), seed).vm(VmSpec {
        nr_vcpus: VICTIM_VCPUS,
        pinning: Pinning::OneToOne((0..VICTIM_VCPUS).collect()),
        weight: 1024,
        bandwidth: None,
        guest_cfg: None,
    });
    let (b, thrasher) = b.vm(VmSpec {
        nr_vcpus: 8,
        pinning: Pinning::OneToOne((16..24).collect()),
        weight: 1024,
        bandwidth: None,
        guest_cfg: None,
    });
    let mut m = b.build();
    let collector = sink.then(|| {
        let c = checked_collector();
        m.attach_trace(&c);
        c
    });
    let think = 3.0 * MS as f64;
    let (server, lat) = LatencyServer::new(
        LatencyServerCfg::new(16, work_ms(1.0), think)
            .with_closed_loop(32, think)
            .with_comm_group(50),
        SimRng::new(seed ^ 0xC1),
    );
    let mut pcfg = MsgPairsCfg::new(4, 2, 2, u64::MAX / 64);
    pcfg.comm_group_base = 60;
    let (msg, pairs) = MsgPairs::new(pcfg, SimRng::new(seed ^ 0xC2));
    let victim_wl = MultiWorkload::new(vec![Box::new(server), Box::new(msg)]);
    m.set_workload(victim, boxed(victim_wl, tr));
    let (stress, _) = Stressor::new(8, work_ms(0.5));
    m.set_workload(thrasher, boxed(stress, tr));
    m.set_vm_footprint(victim, 16.0 * MB);
    m.set_vm_footprint(thrasher, 96.0 * MB);
    Mode::Vsched.install(&mut m, victim);
    if let Some(tr) = tr {
        wrap_hooks(&mut m, victim, tr);
    }
    for core in 0..8 {
        m.at(
            SimTime::from_secs(HORIZON_SECS / 2),
            ScriptAction::SetFreq { core, factor: 0.6 },
        );
    }
    let err = Rc::new(RefCell::new(CapErr::default()));
    let e = Rc::clone(&err);
    m.add_sampler(
        SAMPLE_NS,
        Box::new(move |m: &Machine| e.borrow_mut().sample(m, victim)),
    );
    m.start();
    Scenario {
        m,
        victim,
        lat,
        pairs,
        err,
        collector,
    }
}

impl Scenario {
    /// Runs to the horizon, inside a `run_until` span when `tr` is given.
    pub fn run(&mut self, tr: Option<&SharedTracer>) {
        let until = SimTime::from_secs(HORIZON_SECS);
        match tr {
            Some(tr) => span(tr, Kind::RunUntil, || self.m.run_until(until)),
            None => self.m.run_until(until),
        }
    }

    /// Digest of the simulated outputs, independent of the trace sink.
    pub fn sim_digest(&self) -> Digest {
        let m = &self.m;
        let lat = self.lat.borrow();
        let pairs = self.pairs.borrow();
        let err = self.err.borrow();
        let mut d = Digest::default()
            .u64(m.events_dispatched)
            .u64(lat.completed)
            .u64(lat.e2e.count())
            .u64(lat.e2e.p50())
            .u64(lat.e2e.p99())
            .u64(pairs.completed)
            .f64(pairs.work_done)
            .f64(err.probed)
            .f64(err.default)
            .u64(err.samples);
        for vm in &m.vms {
            let s = &vm.guest.kern.stats;
            for c in [
                &s.context_switches,
                &s.wake_migrations,
                &s.balance_migrations,
                &s.resched_ipis,
                &s.ivh_attempts,
                &s.ivh_completed,
            ] {
                d = d.u64(c.get());
            }
        }
        for v in &m.vms[self.victim].guest.kern.vcpus {
            d = d.f64(v.cap_override.unwrap_or(-1.0));
        }
        d
    }

    /// Trace events seen and law violations found, if a sink is attached.
    pub fn verdict(&self) -> Option<(u64, u64)> {
        self.collector.as_ref().map(|c| {
            let r = check_report(c);
            (r.events, r.violations)
        })
    }

    /// Full digest: simulated outputs plus the law checker's verdict.
    pub fn digest(&self) -> Digest {
        let (events, violations) = self.verdict().unwrap_or((0, 0));
        self.sim_digest().u64(events).u64(violations)
    }

    /// Mean absolute error of the published capacities, and of the
    /// default abstraction (every vCPU at 1024), in percent.
    pub fn cap_err_pct(&self) -> (f64, f64) {
        let e = self.err.borrow();
        (
            CapErr::pct(e.probed, e.samples),
            CapErr::pct(e.default, e.samples),
        )
    }

    fn counter_sum(&self, pick: impl Fn(&guestos::KernelStats) -> u64) -> f64 {
        self.m
            .vms
            .iter()
            .map(|vm| pick(&vm.guest.kern.stats))
            .sum::<u64>() as f64
    }
}

/// Checks one finished repetition against the first one's digest.
fn check(o: &mut Outcome, s: &Scenario, first: &mut Option<Digest>, what: &str) {
    let (_, violations) = s.verdict().expect("checked repetitions carry a sink");
    o.check(violations == 0, || {
        format!("{what}: {violations} law violations")
    });
    let (probed, default) = s.cap_err_pct();
    o.check(probed < default, || {
        format!("{what}: probed capacity error {probed:.2}% not below the default abstraction's {default:.2}%")
    });
    let d = s.digest();
    o.check(first.is_none_or(|f| f == d), || {
        format!(
            "{what}: digest {} differs from the first repetition",
            d.hex()
        )
    });
    first.get_or_insert(d);
}

/// Repeats the scenario for `seconds` after one warm-up repetition;
/// `traced` then adds a span-wrapped repetition, sink-off repetitions and
/// the isolated rates, and reports per-layer metrics.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut o = Outcome::default();
    o.meta("host", "2 sockets x 16 cores, SMT off");
    o.meta("horizon_s", HORIZON_SECS);
    o.meta("workers", 1);
    let mut reference = Reference::new();
    let mut first = None;
    let mut warm = build(seed, true, None);
    warm.run(None);
    check(&mut o, &warm, &mut first, "warm-up");
    drop(warm);
    let (mut reps, mut setups) = (Reps::default(), Vec::new());
    let start = Instant::now();
    let mut last = None;
    while reps.len() == 0 || start.elapsed().as_secs_f64() < seconds {
        let t0 = Instant::now();
        let mut s = build(seed, true, None);
        setups.push(t0.elapsed().as_secs_f64());
        reps.push(&reference.time(|| s.run(None)));
        check(&mut o, &s, &mut first, "repetition");
        last = Some(s);
    }
    o.digest = first.expect("warm-up ran").hex();
    if !traced {
        o.set_end_to_end(&reps, &setups);
        return o;
    }
    let wall = reps.median_wall();
    let base = last.expect("a timed repetition");

    let tr = Tracer::shared(1);
    let mut s = build(seed, true, Some(&tr));
    let traced = reference.time(|| s.run(Some(&tr)));
    check(&mut o, &s, &mut first, "traced repetition");
    let mut off = Reps::default();
    for _ in 0..3 {
        let mut sink_off = build(seed, false, None);
        off.push(&reference.time(|| sink_off.run(None)));
        o.check(sink_off.sim_digest() == base.sim_digest(), || {
            "sink-off repetition simulated something else".into()
        });
    }

    let t_ = tr.borrow();
    let host_self = t_.totals(Kind::RunUntil).self_ns as f64 * 1e-9;
    let hook_self = t_.self_secs(Kind::is_hook);
    let wl_self = t_.self_secs(Kind::is_workload);
    let root = t_.totals(Kind::RunUntil).total_ns as f64 * 1e-9;
    let parts = host_self + hook_self + wl_self;
    o.check((parts - root).abs() <= 0.02 * root, || {
        format!("layer self times {parts:.4}s do not account for run_until {root:.4}s")
    });
    let events = base.m.events_dispatched as f64;
    let (probed, default) = base.cap_err_pct();
    let (trace_events, _) = base.verdict().expect("sink attached");
    let sel = |k| t_.totals(k).self_ns as f64 * 1e-9;
    o.set("run.sim_rate", HORIZON_SECS as f64 / wall);
    o.set("run.wall_s", wall);
    o.set(
        "run.span_overhead_frac",
        traced.wall_s / traced.ref_s / reps.per_ref().0 - 1.0,
    );
    o.set("hostsim.events", events);
    o.set("hostsim.self_s", host_self);
    o.set("hostsim.ns_per_event", host_self * 1e9 / events);
    o.set(
        "guestos.context_switches",
        base.counter_sum(|s| s.context_switches.get()),
    );
    o.set(
        "guestos.wake_migrations",
        base.counter_sum(|s| s.wake_migrations.get()),
    );
    o.set(
        "guestos.balance_migrations",
        base.counter_sum(|s| s.balance_migrations.get()),
    );
    o.set(
        "guestos.resched_ipis",
        base.counter_sum(|s| s.resched_ipis.get()),
    );
    let ivh_attempts = base.counter_sum(|s| s.ivh_attempts.get());
    o.set(
        "guestos.ivh_complete_frac",
        base.counter_sum(|s| s.ivh_completed.get()) / ivh_attempts.max(1.0),
    );
    o.set("vsched.hook_self_s", hook_self);
    o.set("vsched.hook_calls", t_.calls(Kind::is_hook) as f64);
    o.set("vsched.select_cpu_s", sel(Kind::HookSelectCpu));
    o.set("vsched.on_tick_s", sel(Kind::HookTick));
    o.set("vsched.on_timer_s", sel(Kind::HookTimer));
    o.set("vsched.vcap_err_pct", probed);
    o.set("vsched.vcap_default_err_pct", default);
    o.set("workloads.callback_self_s", wl_self);
    o.set("workloads.callbacks", t_.calls(Kind::is_workload) as f64);
    o.set("trace.events", trace_events as f64);
    o.set(
        "trace.overhead_frac",
        reps.per_ref().0 / off.per_ref().0 - 1.0,
    );
    crate::micro::report(&mut o);
    o.spans = Some(t_.render_jsonl());
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrappers_are_byte_neutral() {
        let tr = Tracer::shared(0);
        let mut plain = build(3, true, None);
        let mut wrapped = build(3, true, Some(&tr));
        // A short horizon keeps the test fast; the probers have opened
        // windows and the workloads have woken tasks by then.
        plain.m.run_until(SimTime::from_ns(300 * MS));
        wrapped.m.run_until(SimTime::from_ns(300 * MS));
        assert_eq!(plain.digest(), wrapped.digest());
        let t = tr.borrow();
        assert!(t.calls(Kind::is_hook) > 0 && t.totals(Kind::HookSelectCpu).calls > 0);
        assert!(t.calls(Kind::is_workload) > 0);
        // The hook wrapper forwards `as_any` to vSched's own hook set.
        let g = &mut wrapped.m.vms[wrapped.victim].guest;
        let hooks = g.hooks_mut().expect("vSched installed");
        assert!(hooks.as_any().downcast_mut::<vsched::Vsched>().is_some());
    }

    #[test]
    fn the_trace_sink_does_not_change_the_simulation() {
        let mut on = build(5, true, None);
        let mut off = build(5, false, None);
        on.m.run_until(SimTime::from_ns(300 * MS));
        off.m.run_until(SimTime::from_ns(300 * MS));
        assert_eq!(on.sim_digest(), off.sim_digest());
        assert!(off.verdict().is_none());
        assert_eq!(on.verdict().map(|v| v.1), Some(0));
    }
}
