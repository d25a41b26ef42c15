//! `ivh`: intra-VM harvesting (paper §3.3).
//!
//! Proactively migrates a CPU-intensive running task off a
//! soon-to-be-inactive vCPU onto an unused vCPU where it keeps making
//! progress — harvesting cycles that would otherwise be wasted while the
//! task is stalled.
//!
//! The migration is *activity-aware*: because migration delay (extended
//! runqueue latency on the target) can eat the benefit, ivh **pre-wakes**
//! the target vCPU and only completes the migration when both source and
//! target are active. The three steps of Figure 9:
//!
//! 1. the source finds a target and sends it an interrupt (kick);
//! 2. when the target becomes active it issues the pull request;
//! 3. the stopper-thread migration detaches the running task and attaches
//!    it to the target's runqueue.
//!
//! If the pull arrives after the source has already been preempted (the
//! task already stalled), the migration is abandoned — there is no benefit.
//! The activity-unaware ablation (Table 4) migrates directly instead.

use crate::tunables::{
    IVH_COOLDOWN_NS, IVH_MIGRATION_THRESHOLD_NS, IVH_MIN_UTIL, IVH_PULL_TIMEOUT_NS,
    VACT_STEAL_JUMP_NS,
};
use crate::vact::{ActState, Vact};
use guestos::{Kernel, MigrateKind, Platform, TaskId, VcpuId};
use simcore::SimTime;
use trace::{EventKind, IvhPhase};

/// Builds the trace payload for one ivh pull phase.
fn pull_event(task: TaskId, src: VcpuId, target: VcpuId, phase: IvhPhase) -> EventKind {
    EventKind::IvhPull {
        task: task.0,
        src: src.0 as u16,
        target: target.0 as u16,
        phase,
    }
}

/// A pre-wake pull request pending on a target vCPU.
#[derive(Debug, Clone, Copy)]
struct Pending {
    src: VcpuId,
    task: TaskId,
    initiated: SimTime,
}

/// The harvesting engine.
pub struct Ivh {
    /// Pending pull per target vCPU.
    pending: Vec<Option<Pending>>,
    /// Last ivh migration per task id (cooldown), sparse map.
    last_migration: Vec<(TaskId, SimTime)>,
    /// Whether pre-waking is enabled (false = activity-unaware ablation).
    pub prewake: bool,
}

impl Ivh {
    /// Creates the engine for `nr_vcpus` vCPUs.
    pub fn new(nr_vcpus: usize, prewake: bool) -> Self {
        Self {
            pending: vec![None; nr_vcpus],
            last_migration: Vec::new(),
            prewake,
        }
    }

    fn in_cooldown(&self, t: TaskId, now: SimTime) -> bool {
        self.last_migration
            .iter()
            .any(|&(id, at)| id == t && now.since(at) < IVH_COOLDOWN_NS)
    }

    fn note_migration(&mut self, t: TaskId, now: SimTime) {
        self.last_migration.retain(|&(id, _)| id != t);
        self.last_migration.push((t, now));
        if self.last_migration.len() > 256 {
            self.last_migration.remove(0);
        }
    }

    /// Scheduler-tick hook on vCPU `v`: detect a stalling candidate and
    /// initiate harvesting.
    pub fn on_tick(&mut self, kern: &mut Kernel, plat: &mut dyn Platform, vact: &Vact, v: VcpuId) {
        let now = plat.now();
        let Some(curr) = kern.vcpus[v.0].curr else {
            return;
        };
        // Only CPU-intensive tasks that have run a minimum duration (2 ms)
        // on a vCPU that actually has inactive periods.
        let task = kern.task(curr);
        if task.policy.is_idle()
            || task.pelt.util() < IVH_MIN_UTIL
            || now.since(task.run_started) < IVH_MIGRATION_THRESHOLD_NS
            || vact.latency_ns(v) == 0
        {
            return;
        }
        // Soon-to-be-inactive: the current active stretch approaches the
        // average active period.
        let avg_active = vact.active_period_ns(v);
        if avg_active == u64::MAX {
            return;
        }
        match vact.state(v, now, true) {
            ActState::Active { for_ns } => {
                if for_ns + 2 * kern.cfg.tick_ns < avg_active {
                    return; // plenty of active time left
                }
            }
            _ => return,
        }
        if self.in_cooldown(curr, now) {
            return;
        }
        let Some(target) = self.find_target(kern, plat, vact, curr, v) else {
            return;
        };
        kern.stats.ivh_attempts.inc();
        kern.trace
            .emit(now, pull_event(curr, v, target, IvhPhase::Attempt));
        if !self.prewake {
            // Activity-unaware ablation: migrate immediately, whatever the
            // target's state.
            kern.migrate_running(plat, v, target, MigrateKind::Ivh);
            kern.stats.ivh_completed.inc();
            kern.trace
                .emit(now, pull_event(curr, v, target, IvhPhase::Complete));
            self.note_migration(curr, now);
            return;
        }
        let target_active = matches!(vact.state(target, now, true), ActState::Active { .. })
            && kern.vcpus[target.0].curr.is_some();
        if target_active {
            // Target is already active (running best-effort work): the
            // pull completes with no delay.
            self.complete(kern, plat, v, target, curr, now);
            return;
        }
        // Step 1: pre-wake the target and leave a pull request.
        self.pending[target.0] = Some(Pending {
            src: v,
            task: curr,
            initiated: now,
        });
        plat.send_ipi(target);
    }

    /// Removes and returns pulls that have been pending longer than
    /// `timeout_ns`: `(target, src, task, waited_ns)`. The resilience
    /// watchdog abandons these — a target that never started (offlined,
    /// crushed, or re-pinned away) would otherwise hold its pull slot
    /// forever and block future harvesting toward that vCPU.
    pub fn take_stale_pulls(
        &mut self,
        now: SimTime,
        timeout_ns: u64,
    ) -> Vec<(VcpuId, VcpuId, TaskId, u64)> {
        self.take_pulls_if(|p| now.since(p.initiated) > timeout_ns, now)
    }

    /// Removes and returns every pending pull (degraded-mode entry
    /// abandons all in-flight harvesting).
    pub fn take_all_pulls(&mut self, now: SimTime) -> Vec<(VcpuId, VcpuId, TaskId, u64)> {
        self.take_pulls_if(|_| true, now)
    }

    fn take_pulls_if(
        &mut self,
        cond: impl Fn(&Pending) -> bool,
        now: SimTime,
    ) -> Vec<(VcpuId, VcpuId, TaskId, u64)> {
        let mut out = Vec::new();
        for (target, slot) in self.pending.iter_mut().enumerate() {
            if slot.as_ref().is_some_and(&cond) {
                if let Some(p) = slot.take() {
                    out.push((VcpuId(target), p.src, p.task, now.since(p.initiated)));
                }
            }
        }
        out
    }

    /// vCPU-start hook: the pre-woken target issues its pull request
    /// (steps 2–3 of Figure 9).
    pub fn on_vcpu_start(
        &mut self,
        kern: &mut Kernel,
        plat: &mut dyn Platform,
        vact: &Vact,
        v: VcpuId,
    ) {
        let Some(p) = self.pending[v.0].take() else {
            return;
        };
        let now = plat.now();
        if now.since(p.initiated) > IVH_PULL_TIMEOUT_NS {
            kern.trace
                .emit(now, pull_event(p.task, p.src, v, IvhPhase::Abandon));
            return; // stale request
        }
        // The pull only helps if the task is still running on an active
        // source (judged by the source's heartbeat); otherwise the task has
        // already stalled — abandon (§3.3).
        let src_active = matches!(vact.state(p.src, now, true), ActState::Active { .. });
        if kern.vcpus[p.src.0].curr != Some(p.task) || !src_active {
            kern.stats.ivh_abandoned.inc();
            kern.trace
                .emit(now, pull_event(p.task, p.src, v, IvhPhase::Abandon));
            return;
        }
        self.complete(kern, plat, p.src, v, p.task, now);
    }

    fn complete(
        &mut self,
        kern: &mut Kernel,
        plat: &mut dyn Platform,
        src: VcpuId,
        target: VcpuId,
        task: TaskId,
        now: SimTime,
    ) {
        if kern
            .migrate_running(plat, src, target, MigrateKind::Ivh)
            .is_some()
        {
            kern.stats.ivh_completed.inc();
            kern.trace
                .emit(now, pull_event(task, src, target, IvhPhase::Complete));
            self.note_migration(task, now);
            // If the target currently runs a best-effort task, preempt it
            // so the harvested task starts immediately.
            if let Some(curr) = kern.vcpus[target.0].curr {
                if kern.task(curr).policy.is_idle() {
                    kern.resched(plat, target);
                }
            }
        } else {
            // Nothing moved (the source lost its task in the meantime);
            // resolve the attempt so every pull has exactly one outcome.
            kern.trace
                .emit(now, pull_event(task, src, target, IvhPhase::Abandon));
        }
    }

    /// bvs-like target search: an unused vCPU where the task can continue
    /// quickly — idle, or occupied only by `SCHED_IDLE` tasks; prefer
    /// active (or soon-active) targets.
    fn find_target(
        &self,
        kern: &Kernel,
        plat: &mut dyn Platform,
        vact: &Vact,
        t: TaskId,
        src: VcpuId,
    ) -> Option<VcpuId> {
        let now = plat.now();
        let allowed = kern.placement_mask(t);
        let mut fallback: Option<VcpuId> = None;
        for c in allowed.iter() {
            let v = VcpuId(c);
            if v == src {
                continue;
            }
            if self.pending[c].is_some() {
                continue; // already targeted by another migration
            }
            let d = &kern.vcpus[c];
            let only_idle_policy = match d.curr {
                Some(curr) => kern.task(curr).policy.is_idle() && d.rq.nr_normal == 0,
                None => d.rq.is_empty(),
            };
            if !only_idle_policy {
                continue;
            }
            // Ideal: an active target (pull completes with no delay).
            let active = matches!(vact.state(v, now, true), ActState::Active { .. });
            if active && d.curr.is_some() {
                return Some(v);
            }
            // Acceptable: long-inactive, low-latency (likely active soon),
            // or simply idle (pre-wake it).
            let lat = vact.latency_ns(v);
            if fallback.is_none() && lat <= vact.median_latency_ns.max(VACT_STEAL_JUMP_NS) {
                fallback = Some(v);
            }
        }
        fallback
    }
}
