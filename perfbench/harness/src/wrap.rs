//! Decorators that time calls into a layer through its public trait.
//!
//! Each wrapper forwards every trait method to the wrapped object and
//! opens a [`span`] around the methods that do work. Forwarding is exact
//! (same arguments, same return value, `as_any` reaching the inner
//! object), so a wrapped run simulates the same thing as an unwrapped one.

use crate::span::{span, Kind, SharedTracer};
use fleet::{HostView, PlacementPolicy, PlacementReq};
use guestos::{GuestOs, Kernel, Platform, SchedHooks, TaskAction, TaskId, VcpuId, Workload};
use hostsim::Machine;

/// Times a guest's scheduler hooks (vSched's `SchedHooks`).
pub struct TimedHooks {
    inner: Box<dyn SchedHooks>,
    tr: SharedTracer,
}

impl TimedHooks {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn SchedHooks>, tr: SharedTracer) -> Self {
        TimedHooks { inner, tr }
    }
}

impl SchedHooks for TimedHooks {
    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self.inner.as_any()
    }

    fn select_cpu(
        &mut self,
        kern: &mut Kernel,
        plat: &mut dyn Platform,
        task: TaskId,
        prev: VcpuId,
    ) -> Option<VcpuId> {
        span(&self.tr, Kind::HookSelectCpu, || {
            self.inner.select_cpu(kern, plat, task, prev)
        })
    }

    fn on_tick(&mut self, kern: &mut Kernel, plat: &mut dyn Platform, v: VcpuId) {
        span(&self.tr, Kind::HookTick, || {
            self.inner.on_tick(kern, plat, v)
        })
    }

    fn on_vcpu_start(&mut self, kern: &mut Kernel, plat: &mut dyn Platform, v: VcpuId) {
        span(&self.tr, Kind::HookVcpuStart, || {
            self.inner.on_vcpu_start(kern, plat, v)
        })
    }

    fn on_vcpu_stop(&mut self, kern: &mut Kernel, plat: &mut dyn Platform, v: VcpuId) {
        span(&self.tr, Kind::HookVcpuStop, || {
            self.inner.on_vcpu_stop(kern, plat, v)
        })
    }

    fn on_timer(&mut self, kern: &mut Kernel, plat: &mut dyn Platform, token: u64) {
        span(&self.tr, Kind::HookTimer, || {
            self.inner.on_timer(kern, plat, token)
        })
    }

    fn on_builtin_burst(&mut self, kern: &mut Kernel, plat: &mut dyn Platform, task: TaskId) {
        span(&self.tr, Kind::HookBuiltinBurst, || {
            self.inner.on_builtin_burst(kern, plat, task)
        })
    }
}

/// Replaces the hooks installed in `vm` (if any) with a timed wrapper.
pub fn wrap_hooks(m: &mut Machine, vm: usize, tr: &SharedTracer) {
    m.with_vm(vm, |g, _| {
        if let Some(inner) = g.take_hooks() {
            g.install_hooks(Box::new(TimedHooks::new(inner, tr.clone())));
        }
    });
}

/// Times a VM's workload callbacks.
pub struct TimedWorkload {
    inner: Box<dyn Workload>,
    tr: SharedTracer,
}

impl TimedWorkload {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn Workload>, tr: SharedTracer) -> Self {
        TimedWorkload { inner, tr }
    }
}

impl Workload for TimedWorkload {
    fn start(&mut self, guest: &mut GuestOs, plat: &mut dyn Platform) {
        span(&self.tr, Kind::WlStart, || self.inner.start(guest, plat))
    }

    fn on_timer(&mut self, guest: &mut GuestOs, plat: &mut dyn Platform, token: u64) {
        span(&self.tr, Kind::WlTimer, || {
            self.inner.on_timer(guest, plat, token)
        })
    }

    fn next_action(
        &mut self,
        guest: &mut GuestOs,
        plat: &mut dyn Platform,
        t: TaskId,
    ) -> TaskAction {
        span(&self.tr, Kind::WlNextAction, || {
            self.inner.next_action(guest, plat, t)
        })
    }

    fn finished(&self) -> bool {
        self.inner.finished()
    }

    fn owns_task(&self, t: TaskId) -> bool {
        self.inner.owns_task(t)
    }

    fn label(&self) -> &str {
        self.inner.label()
    }
}

/// Times a fleet placement policy.
pub struct TimedPolicy {
    inner: Box<dyn PlacementPolicy>,
    tr: SharedTracer,
}

impl TimedPolicy {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn PlacementPolicy>, tr: SharedTracer) -> Self {
        TimedPolicy { inner, tr }
    }
}

impl PlacementPolicy for TimedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn place(&mut self, req: &PlacementReq, hosts: &[HostView]) -> Option<usize> {
        span(&self.tr, Kind::Place, || self.inner.place(req, hosts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Tracer;
    use guestos::SpawnSpec;
    use simcore::SimTime;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Records the name of every method called on it.
    struct Probe {
        log: Rc<RefCell<Vec<&'static str>>>,
    }

    impl SchedHooks for Probe {
        fn as_any(&mut self) -> &mut dyn std::any::Any {
            self
        }
        fn select_cpu(
            &mut self,
            _: &mut Kernel,
            _: &mut dyn Platform,
            _: TaskId,
            prev: VcpuId,
        ) -> Option<VcpuId> {
            self.log.borrow_mut().push("select_cpu");
            Some(VcpuId(prev.0 + 1))
        }
        fn on_tick(&mut self, _: &mut Kernel, _: &mut dyn Platform, _: VcpuId) {
            self.log.borrow_mut().push("on_tick");
        }
        fn on_vcpu_start(&mut self, _: &mut Kernel, _: &mut dyn Platform, _: VcpuId) {
            self.log.borrow_mut().push("on_vcpu_start");
        }
        fn on_vcpu_stop(&mut self, _: &mut Kernel, _: &mut dyn Platform, _: VcpuId) {
            self.log.borrow_mut().push("on_vcpu_stop");
        }
        fn on_timer(&mut self, _: &mut Kernel, _: &mut dyn Platform, _: u64) {
            self.log.borrow_mut().push("on_timer");
        }
        fn on_builtin_burst(&mut self, _: &mut Kernel, _: &mut dyn Platform, _: TaskId) {
            self.log.borrow_mut().push("on_builtin_burst");
        }
    }

    impl Workload for Probe {
        fn start(&mut self, _: &mut GuestOs, _: &mut dyn Platform) {
            self.log.borrow_mut().push("start");
        }
        fn on_timer(&mut self, _: &mut GuestOs, _: &mut dyn Platform, _: u64) {
            self.log.borrow_mut().push("wl_on_timer");
        }
        fn next_action(&mut self, _: &mut GuestOs, _: &mut dyn Platform, _: TaskId) -> TaskAction {
            self.log.borrow_mut().push("next_action");
            TaskAction::Exit
        }
        fn finished(&self) -> bool {
            true
        }
        fn owns_task(&self, t: TaskId) -> bool {
            t.0.is_multiple_of(2)
        }
        fn label(&self) -> &str {
            "probe"
        }
    }

    impl PlacementPolicy for Probe {
        fn name(&self) -> &'static str {
            "probe-policy"
        }
        fn place(&mut self, req: &PlacementReq, hosts: &[HostView]) -> Option<usize> {
            self.log.borrow_mut().push("place");
            hosts.iter().position(|h| h.fits(req))
        }
    }

    /// A one-machine platform to call hooks and workloads with.
    fn machine() -> (Machine, usize) {
        let (b, vm) = hostsim::ScenarioBuilder::new(hostsim::HostSpec::flat(2), 1)
            .vm(hostsim::VmSpec::pinned(2, 0));
        (b.build(), vm)
    }

    #[test]
    fn hooks_forward_every_method_and_time_the_working_ones() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let tr = Tracer::shared(0);
        let mut w = TimedHooks::new(Box::new(Probe { log: log.clone() }), tr.clone());
        let (mut m, vm) = machine();
        m.with_vm(vm, |g, p| {
            let t = g.kern.spawn(SimTime::ZERO, SpawnSpec::normal(2));
            let k = &mut g.kern;
            assert_eq!(w.select_cpu(k, p, t, VcpuId(0)), Some(VcpuId(1)));
            w.on_tick(k, p, VcpuId(0));
            w.on_vcpu_start(k, p, VcpuId(0));
            w.on_vcpu_stop(k, p, VcpuId(0));
            w.on_timer(k, p, 9);
            w.on_builtin_burst(k, p, t);
        });
        assert_eq!(
            *log.borrow(),
            [
                "select_cpu",
                "on_tick",
                "on_vcpu_start",
                "on_vcpu_stop",
                "on_timer",
                "on_builtin_burst"
            ]
        );
        assert!(w.as_any().downcast_mut::<Probe>().is_some());
        let t = tr.borrow();
        assert_eq!(t.calls(Kind::is_hook), 6);
        for k in Kind::ALL.iter().filter(|k| k.is_hook()) {
            assert_eq!(t.totals(*k).calls, 1, "{}", k.name());
        }
    }

    #[test]
    fn workload_forwards_every_method_and_times_the_callbacks() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let tr = Tracer::shared(0);
        let mut w = TimedWorkload::new(Box::new(Probe { log: log.clone() }), tr.clone());
        let (mut m, vm) = machine();
        m.with_vm(vm, |g, p| {
            w.start(g, p);
            w.on_timer(g, p, 3);
            assert!(matches!(w.next_action(g, p, TaskId(4)), TaskAction::Exit));
        });
        assert!(w.finished());
        assert!(w.owns_task(TaskId(4)) && !w.owns_task(TaskId(5)));
        assert_eq!(w.label(), "probe");
        assert_eq!(*log.borrow(), ["start", "wl_on_timer", "next_action"]);
        assert_eq!(tr.borrow().calls(Kind::is_workload), 3);
    }

    #[test]
    fn policy_forwards_name_and_decision() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let tr = Tracer::shared(0);
        let mut w = TimedPolicy::new(Box::new(Probe { log: log.clone() }), tr.clone());
        let view = |host, committed| HostView {
            host,
            threads: 4,
            committed,
            cap: 6,
            probed_capacity: 0.0,
            llc_pressure: 0.0,
        };
        let req = PlacementReq { uid: 1, vcpus: 2 };
        assert_eq!(w.name(), "probe-policy");
        assert_eq!(w.place(&req, &[view(0, 6), view(1, 2)]), Some(1));
        assert_eq!(w.place(&req, &[view(0, 6)]), None);
        assert_eq!(log.borrow().len(), 2);
        assert_eq!(tr.borrow().totals(Kind::Place).calls, 2);
    }

    #[test]
    fn wrap_hooks_is_a_no_op_on_a_cfs_guest() {
        let tr = Tracer::shared(0);
        let (mut m, vm) = machine();
        wrap_hooks(&mut m, vm, &tr);
        assert!(!m.vms[vm].guest.has_hooks());
    }
}
