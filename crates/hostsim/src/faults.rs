//! Chaos-mode fault injection.
//!
//! A [`FaultPlan`] is a seed-driven, fully precomputed schedule of host
//! misbehaviour: stressor bursts, quota/period churn, re-pinning, vCPU
//! offline/online, DVFS capacity steps, and probe-time measurement noise.
//! The plan is generated *before* the simulation starts from a
//! [`simcore::SimRng`] stream, so a given `(seed, spec)` pair always yields
//! the same injected-event sequence, byte for byte — chaos runs replay
//! exactly, across processes and thread counts.
//!
//! Each concrete fault is applied through the existing
//! [`ScriptAction`](crate::ScriptAction) machinery and paired with an
//! [`ScriptAction::AnnotateFault`] marker, so traces (and the streaming
//! invariant checker) see fault boundaries as first-class events.
//!
//! Transient faults carry a duration and schedule their own reversal:
//! stressor loads are removed, quotas lifted, offline vCPUs brought back,
//! frequencies restored, and noise cleared. A plan therefore leaves the
//! host in its nominal configuration once the last reversal fires.

use crate::machine::{Machine, ScriptAction};
use simcore::json::Json;
use simcore::time::MS;
use simcore::{SimRng, SimTime};
use std::fmt;
use trace::FaultClass;

/// Which VM / host surface a plan may touch.
#[derive(Debug, Clone)]
pub struct ChaosSpec {
    /// VM index the vCPU-level faults target.
    pub vm: usize,
    /// Number of vCPUs in that VM.
    pub nr_vcpus: usize,
    /// Hardware threads the VM's vCPUs occupy (stressor bursts and
    /// re-pinning stay inside this set).
    pub threads: Vec<usize>,
    /// Cores whose DVFS frequency may step (typically the cores backing
    /// `threads`).
    pub cores: Vec<usize>,
    /// Enabled fault classes. [`FaultClass::VcpuOnline`] is implied by
    /// [`FaultClass::VcpuOffline`] (every offline schedules its online).
    pub classes: Vec<FaultClass>,
    /// Injection horizon: faults are injected in `[start, start + horizon)`.
    pub start: SimTime,
    /// Horizon length in nanoseconds.
    pub horizon_ns: u64,
    /// Mean gap between consecutive faults of one class (ns).
    pub mean_interval_ns: u64,
}

impl ChaosSpec {
    /// A spec covering one pinned VM: vCPU `i` on thread `i`, one core per
    /// thread, every fault class enabled, faults from 500 ms to `horizon`.
    pub fn for_pinned_vm(vm: usize, nr_vcpus: usize, horizon_ns: u64) -> Self {
        Self {
            vm,
            nr_vcpus,
            threads: (0..nr_vcpus).collect(),
            cores: (0..nr_vcpus).collect(),
            classes: vec![
                FaultClass::StressorBurst,
                FaultClass::QuotaChurn,
                FaultClass::PinChange,
                FaultClass::VcpuOffline,
                FaultClass::CapacityStep,
                FaultClass::ProbeNoise,
            ],
            start: SimTime::from_ns(500 * MS),
            horizon_ns,
            mean_interval_ns: 800 * MS,
        }
    }

    /// Restricts the plan to a single fault class.
    pub fn only(mut self, class: FaultClass) -> Self {
        self.classes = vec![class];
        self
    }

    /// Overrides the mean inter-fault gap.
    pub fn mean_interval(mut self, ns: u64) -> Self {
        self.mean_interval_ns = ns;
        self
    }
}

/// Stable per-class RNG stream tag (independent of declaration order).
fn class_tag(class: FaultClass) -> u64 {
    match class {
        FaultClass::StressorBurst => 1,
        FaultClass::QuotaChurn => 2,
        FaultClass::PinChange => 3,
        FaultClass::VcpuOffline => 4,
        FaultClass::VcpuOnline => 5,
        FaultClass::CapacityStep => 6,
        FaultClass::ProbeNoise => 7,
    }
}

/// Largest magnitude a parsed plan may carry. Generated magnitudes are
/// stressor weights up to 8192, per-mille factors and thread indexes;
/// the cap keeps [`FaultPlan::apply`]'s integer arithmetic in range.
const MAX_MAGNITUDE: u64 = 1 << 20;

/// One planned fault with its concrete parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct InjectedFault {
    /// Injection time.
    pub at: SimTime,
    /// Classification (matches the `FaultInjected` trace marker).
    pub class: FaultClass,
    /// Affected guest-local vCPU, where one exists (0 for machine-wide).
    pub vcpu: usize,
    /// How long the fault persists before its reversal (0 = permanent
    /// within the run, e.g. a pin change).
    pub duration_ns: u64,
    /// Class-specific magnitude: stressor weight, quota fraction ×1000,
    /// DVFS factor ×1000, noise amplitude ×1000, target thread for pins.
    pub magnitude: u64,
}

impl fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:>12} {:?} vcpu={} dur={} mag={}",
            self.at.ns(),
            self.class,
            self.vcpu,
            self.duration_ns,
            self.magnitude
        )
    }
}

/// A replayable fault schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// The seed the plan was generated from.
    pub seed: u64,
    /// Planned faults, sorted by injection time (ties keep generation
    /// order, which is itself deterministic).
    pub events: Vec<InjectedFault>,
    spec: ChaosSpec,
}

// PartialEq on ChaosSpec is structural; derive would need it on SimTime
// (present) — implement manually to keep the field list explicit.
impl PartialEq for ChaosSpec {
    fn eq(&self, other: &Self) -> bool {
        self.vm == other.vm
            && self.nr_vcpus == other.nr_vcpus
            && self.threads == other.threads
            && self.cores == other.cores
            && self.classes == other.classes
            && self.start == other.start
            && self.horizon_ns == other.horizon_ns
            && self.mean_interval_ns == other.mean_interval_ns
    }
}

impl FaultPlan {
    /// Generates the plan. Each enabled class draws from its own forked
    /// RNG stream, so enabling or disabling one class never perturbs the
    /// schedule of another.
    pub fn generate(seed: u64, spec: &ChaosSpec) -> FaultPlan {
        let mut events: Vec<InjectedFault> = Vec::new();
        for &class in &spec.classes {
            // Each class gets a stream derived only from `(seed, class)` —
            // not from its position in `classes` or the other enabled
            // classes — so filtering classes never perturbs the streams of
            // the ones that remain.
            let mut rng = SimRng::new(seed ^ 0xC4A0_5F00).fork(class_tag(class));
            Self::plan_class(&mut rng, spec, class, &mut events);
        }
        // Stable sort: simultaneous faults keep class-order, which is
        // fixed by `spec.classes`.
        events.sort_by_key(|e| e.at);
        FaultPlan {
            seed,
            events,
            spec: spec.clone(),
        }
    }

    fn plan_class(
        rng: &mut SimRng,
        spec: &ChaosSpec,
        class: FaultClass,
        out: &mut Vec<InjectedFault>,
    ) {
        // Saturating horizon arithmetic: a spec with `start + horizon` near
        // `u64::MAX` must clip the injection window, not wrap it to zero
        // (which would silently plan nothing — or, pre-overflow-checks,
        // plan faults in the past).
        let end = spec.start.ns().saturating_add(spec.horizon_ns);
        let mut t = spec
            .start
            .ns()
            .saturating_add(rng.exp(spec.mean_interval_ns as f64) as u64);
        while t < end {
            let vcpu = rng.index(spec.nr_vcpus.max(1));
            // Transients last 50–400 ms and never outlive the horizon, so
            // the plan always restores the nominal configuration.
            let max_dur = (end - t).min(400 * MS);
            let duration_ns = (50 * MS + rng.range(0, 350 * MS)).min(max_dur).max(MS);
            let magnitude = match class {
                // Host stressor weight: 1×–8× a vCPU's default weight.
                FaultClass::StressorBurst => 1024 * rng.range(1, 9),
                // Quota as a fraction of the period, ×1000: 200–800 ‰.
                FaultClass::QuotaChurn => rng.range(200, 801),
                // Pin target: another thread from the allowed set.
                FaultClass::PinChange => spec.threads[rng.index(spec.threads.len())] as u64,
                FaultClass::VcpuOffline => 0,
                // DVFS factor ×1000: 300–900 ‰ of nominal.
                FaultClass::CapacityStep => rng.range(300, 901),
                // Noise amplitude ×1000: 100–500 ‰ (±10 % – ±50 %).
                FaultClass::ProbeNoise => rng.range(100, 501),
                // Onlines are scheduled by their offline, never drawn.
                FaultClass::VcpuOnline => 0,
            };
            out.push(InjectedFault {
                at: SimTime::from_ns(t),
                class,
                vcpu,
                duration_ns,
                magnitude,
            });
            t = t.saturating_add(rng.exp(spec.mean_interval_ns as f64).max(1.0) as u64);
        }
    }

    /// The spec the plan was generated against.
    pub fn spec(&self) -> &ChaosSpec {
        &self.spec
    }

    /// A plan with the same seed and spec but a different action list.
    /// The shrinker uses this to test subsets; `events` must preserve the
    /// original relative order (any subsequence does), so the result stays
    /// sorted and replays deterministically.
    pub fn with_events(&self, events: Vec<InjectedFault>) -> FaultPlan {
        debug_assert!(events.windows(2).all(|w| w[0].at <= w[1].at));
        FaultPlan {
            seed: self.seed,
            events,
            spec: self.spec.clone(),
        }
    }

    /// The plan truncated to its first `k` actions (reversals of those
    /// actions are still scheduled by [`FaultPlan::apply`]).
    pub fn prefix(&self, k: usize) -> FaultPlan {
        self.with_events(self.events[..k.min(self.events.len())].to_vec())
    }

    /// Schedules every planned fault (and its reversal) onto a machine.
    /// Call after the scenario is assembled but before [`Machine::start`].
    ///
    /// Stressor reversals remove loads by arena id, which is predicted
    /// from [`Machine::nr_host_loads`] — the plan must therefore be the
    /// only source of *scripted* `AddLoad` actions on this machine
    /// (loads added directly before `start` are fine).
    pub fn apply(&self, m: &mut Machine) {
        let spec = &self.spec;
        let mut next_load_id = m.nr_host_loads();
        for e in &self.events {
            let vm = spec.vm;
            let vcpu = e.vcpu;
            m.at(
                e.at,
                ScriptAction::AnnotateFault {
                    vm,
                    vcpu,
                    class: e.class,
                },
            );
            let until = e.at.after(e.duration_ns);
            match e.class {
                FaultClass::StressorBurst => {
                    // Stress the thread hosting the chosen vCPU.
                    let thread = spec.threads[vcpu % spec.threads.len()];
                    let weight = e.magnitude;
                    m.at(e.at, ScriptAction::AddLoad { thread, weight });
                    m.at(until, ScriptAction::RemoveLoad { id: next_load_id });
                    next_load_id += 1;
                }
                FaultClass::QuotaChurn => {
                    let period_ns = 10 * MS;
                    let quota_ns = period_ns * e.magnitude / 1000;
                    m.at(
                        e.at,
                        ScriptAction::SetBandwidth {
                            vm,
                            vcpu,
                            qp: Some((quota_ns, period_ns)),
                        },
                    );
                    m.at(until, ScriptAction::SetBandwidth { vm, vcpu, qp: None });
                }
                FaultClass::PinChange => {
                    m.at(
                        e.at,
                        ScriptAction::SetAffinity {
                            vm,
                            vcpu,
                            threads: vec![e.magnitude as usize],
                        },
                    );
                    // Restore the home thread after the transient.
                    let home = spec.threads[vcpu % spec.threads.len()];
                    m.at(
                        until,
                        ScriptAction::SetAffinity {
                            vm,
                            vcpu,
                            threads: vec![home],
                        },
                    );
                }
                FaultClass::VcpuOffline => {
                    m.at(e.at, ScriptAction::OfflineVcpu { vm, vcpu });
                    m.at(
                        until,
                        ScriptAction::AnnotateFault {
                            vm,
                            vcpu,
                            class: FaultClass::VcpuOnline,
                        },
                    );
                    m.at(until, ScriptAction::OnlineVcpu { vm, vcpu });
                }
                FaultClass::VcpuOnline => {}
                FaultClass::CapacityStep => {
                    let core = spec.cores[vcpu % spec.cores.len()];
                    let factor = e.magnitude as f64 / 1000.0;
                    m.at(e.at, ScriptAction::SetFreq { core, factor });
                    m.at(until, ScriptAction::SetFreq { core, factor: 1.0 });
                }
                FaultClass::ProbeNoise => {
                    let noise = e.magnitude as f64 / 1000.0;
                    m.at(e.at, ScriptAction::SetProbeNoise { noise });
                    m.at(until, ScriptAction::SetProbeNoise { noise: 0.0 });
                }
            }
        }
    }

    /// Serializes the full plan — spec, seed, and action list — as JSON.
    /// This is the `plan` member of a chaos repro file (`suite --shrink
    /// chaos:SEED` writes it, `suite --replay` reads it back); integers
    /// round-trip exactly.
    pub fn to_json(&self) -> String {
        let spec = &self.spec;
        let uints = |v: &[usize]| Json::Arr(v.iter().map(|&x| Json::Uint(x as u64)).collect());
        let events = self
            .events
            .iter()
            .map(|e| {
                Json::obj([
                    ("at_ns", Json::Uint(e.at.ns())),
                    ("class", e.class.name().into()),
                    ("vcpu", Json::Uint(e.vcpu as u64)),
                    ("duration_ns", Json::Uint(e.duration_ns)),
                    ("magnitude", Json::Uint(e.magnitude)),
                ])
            })
            .collect::<Vec<_>>();
        Json::obj([
            ("seed", Json::Uint(self.seed)),
            (
                "spec",
                Json::obj([
                    ("vm", Json::Uint(spec.vm as u64)),
                    ("nr_vcpus", Json::Uint(spec.nr_vcpus as u64)),
                    ("threads", uints(&spec.threads)),
                    ("cores", uints(&spec.cores)),
                    (
                        "classes",
                        Json::Arr(spec.classes.iter().map(|c| c.name().into()).collect()),
                    ),
                    ("start_ns", Json::Uint(spec.start.ns())),
                    ("horizon_ns", Json::Uint(spec.horizon_ns)),
                    ("mean_interval_ns", Json::Uint(spec.mean_interval_ns)),
                ]),
            ),
            ("events", Json::Arr(events)),
        ])
        .render()
    }

    /// Parses a plan previously written by [`FaultPlan::to_json`].
    pub fn from_json(text: &str) -> Result<FaultPlan, String> {
        let doc = Json::parse(text).map_err(|e| e.to_string())?;
        let class_of = |name: &str| {
            FaultClass::from_name(name).ok_or_else(|| format!("unknown fault class '{name}'"))
        };
        let sj = doc.field("spec")?;
        let usizes = |key| -> Result<Vec<usize>, String> {
            (sj.arr_field(key)?.iter())
                .map(|x| x.as_u64().map(|n| n as usize))
                .collect::<Option<_>>()
                .ok_or_else(|| format!("{key} not all u64"))
        };
        let spec = ChaosSpec {
            vm: sj.u64_field("vm")? as usize,
            nr_vcpus: sj.u64_field("nr_vcpus")? as usize,
            threads: usizes("threads")?,
            cores: usizes("cores")?,
            classes: (sj.arr_field("classes")?.iter())
                .map(|c| class_of(c.as_str().ok_or("classes not all strings")?))
                .collect::<Result<_, _>>()?,
            start: SimTime::from_ns(sj.u64_field("start_ns")?),
            horizon_ns: sj.u64_field("horizon_ns")?,
            mean_interval_ns: sj.u64_field("mean_interval_ns")?,
        };
        // apply() maps vCPUs onto these sets by remainder.
        if spec.threads.is_empty() {
            return Err("spec.threads is empty".into());
        }
        if spec.cores.is_empty() {
            return Err("spec.cores is empty".into());
        }
        let mut events = Vec::new();
        for ej in doc.arr_field("events")? {
            let vcpu = ej.u64_field("vcpu")? as usize;
            if vcpu >= spec.nr_vcpus {
                return Err(format!(
                    "event vcpu {vcpu} out of range (spec.nr_vcpus {})",
                    spec.nr_vcpus
                ));
            }
            let magnitude = ej.u64_field("magnitude")?;
            if magnitude > MAX_MAGNITUDE {
                return Err(format!("event magnitude {magnitude} above {MAX_MAGNITUDE}"));
            }
            events.push(InjectedFault {
                at: SimTime::from_ns(ej.u64_field("at_ns")?),
                class: class_of(ej.str_field("class")?)?,
                vcpu,
                duration_ns: ej.u64_field("duration_ns")?,
                magnitude,
            });
        }
        if !events.windows(2).all(|w| w[0].at <= w[1].at) {
            return Err("events not sorted by at_ns".into());
        }
        Ok(FaultPlan {
            seed: doc.u64_field("seed")?,
            events,
            spec,
        })
    }

    /// Stable one-line-per-fault rendering; determinism gates compare this
    /// byte-for-byte across runs and processes.
    pub fn describe(&self) -> String {
        let mut s = String::new();
        for e in &self.events {
            s.push_str(&e.to_string());
            s.push('\n');
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::HostSpec;
    use simcore::propcheck;

    fn spec(n: usize) -> ChaosSpec {
        ChaosSpec::for_pinned_vm(0, n, 3_000 * MS)
    }

    #[test]
    fn same_seed_same_plan() {
        let s = spec(8);
        let a = FaultPlan::generate(7, &s);
        let b = FaultPlan::generate(7, &s);
        assert_eq!(a, b);
        assert_eq!(a.describe(), b.describe());
        assert!(!a.events.is_empty(), "horizon long enough to draw faults");
    }

    #[test]
    fn different_seeds_differ() {
        let s = spec(8);
        let a = FaultPlan::generate(1, &s);
        let b = FaultPlan::generate(2, &s);
        assert_ne!(a.describe(), b.describe());
    }

    #[test]
    fn class_streams_are_independent() {
        // Dropping one class must not perturb another class's schedule.
        let full = FaultPlan::generate(11, &spec(4));
        let only = FaultPlan::generate(11, &spec(4).only(FaultClass::QuotaChurn));
        let full_quota: Vec<_> = full
            .events
            .iter()
            .filter(|e| e.class == FaultClass::QuotaChurn)
            .cloned()
            .collect();
        assert_eq!(full_quota, only.events);
    }

    #[test]
    fn events_sorted_and_bounded() {
        propcheck::forall(0xFA017, 16, |rng| {
            let s = spec(1 + rng.index(16));
            let plan = FaultPlan::generate(rng.u64(), &s);
            let end = s.start.ns() + s.horizon_ns;
            let mut prev = 0;
            for e in &plan.events {
                assert!(e.at.ns() >= prev, "sorted");
                prev = e.at.ns();
                assert!(e.at >= s.start && e.at.ns() < end, "inside horizon");
                assert!(e.vcpu < s.nr_vcpus);
                assert!(
                    e.at.ns() + e.duration_ns <= end + 400 * MS,
                    "reversal near horizon"
                );
            }
        });
    }

    #[test]
    fn json_round_trips_exactly() {
        propcheck::forall(0xFA018, 16, |rng| {
            let s = spec(1 + rng.index(8));
            let plan = FaultPlan::generate(rng.u64(), &s);
            let back = FaultPlan::from_json(&plan.to_json()).expect("parses back");
            assert_eq!(plan, back);
            assert_eq!(plan.to_json(), back.to_json());
        });
    }

    #[test]
    fn from_json_rejects_malformed_plans() {
        assert!(FaultPlan::from_json("{}").is_err());
        assert!(FaultPlan::from_json("not json").is_err());
        // Unsorted events are rejected: apply() assumes time order.
        let plan = FaultPlan::generate(5, &spec(4));
        assert!(plan.events.len() >= 2);
        let mut doc = Json::parse(&plan.to_json()).unwrap();
        if let Json::Obj(m) = &mut doc {
            if let Some(Json::Arr(events)) = m.get_mut("events") {
                events.reverse();
            }
        }
        assert!(FaultPlan::from_json(&doc.render()).is_err());
        // Shapes apply() cannot execute: an empty thread or core set (it
        // maps vCPUs onto them by remainder) and a vCPU outside the VM.
        let reject = |bad: FaultPlan| FaultPlan::from_json(&bad.to_json()).unwrap_err();
        let mut bad = plan.clone();
        bad.spec.threads.clear();
        assert!(reject(bad).contains("spec.threads"));
        let mut bad = plan.clone();
        bad.spec.cores.clear();
        assert!(reject(bad).contains("spec.cores"));
        let mut bad = plan.clone();
        bad.events[0].vcpu = bad.spec.nr_vcpus;
        assert!(reject(bad).contains("event vcpu 4 out of range"));
        let mut bad = plan.clone();
        bad.events[0].magnitude = u64::MAX;
        assert!(reject(bad).contains("magnitude"));
    }

    #[test]
    fn subsets_preserve_identity_and_order() {
        let plan = FaultPlan::generate(9, &spec(6));
        let n = plan.events.len();
        assert!(n >= 4, "want a non-trivial plan");
        let half: Vec<_> = plan.events.iter().step_by(2).cloned().collect();
        let sub = plan.with_events(half.clone());
        assert_eq!(sub.seed, plan.seed);
        assert_eq!(sub.spec(), plan.spec());
        assert_eq!(sub.events, half);
        let pre = plan.prefix(3);
        assert_eq!(pre.events, plan.events[..3].to_vec());
        assert_eq!(plan.prefix(n + 10).events.len(), n);
    }

    #[test]
    fn near_max_horizon_saturates_instead_of_wrapping() {
        // start + horizon would overflow; generation must clip, not wrap
        // (wrapped arithmetic would put `end` before `start` and plan
        // nothing — or abort under overflow-checks).
        let mut s = spec(4);
        s.start = SimTime::from_ns(u64::MAX - 100 * MS);
        s.horizon_ns = u64::MAX;
        let plan = FaultPlan::generate(3, &s);
        for e in &plan.events {
            assert!(e.at >= s.start);
        }
    }

    #[test]
    fn apply_schedules_reversals() {
        let s = spec(4);
        let plan = FaultPlan::generate(3, &s);
        let mut m = Machine::new(HostSpec::flat(4), 3);
        let cfg = guestos::GuestConfig::new(4);
        let aff = (0..4).map(|t| vec![t]).collect();
        m.add_vm(cfg, aff, 1024, None);
        plan.apply(&mut m);
        m.start();
        m.run_until(SimTime::from_ns(s.start.ns() + s.horizon_ns + 500 * MS));
        // All transients reversed: no live stressors, nominal noise.
        for th in 0..4 {
            assert_eq!(m.host_load_weight_on(th), 0, "thread {th} stressor left");
        }
    }
}
