//! `rwc`: relaxed work conservation (paper §3.4).
//!
//! Work conservation — "no task waits while any CPU idles" — is a design
//! invariant for physical CPUs but harmful for problematic vCPUs. rwc
//! intentionally hides them from task placement via the cgroup mechanism:
//!
//! * **Straggler vCPUs** (probed capacity far below the mean, 10× by
//!   default) are restricted to best-effort (`SCHED_IDLE`) tasks only, so
//!   `vcap`'s light sampling keeps probing them and detects recovery.
//! * **Stacked vCPUs**: only one vCPU of each stacking group stays
//!   placeable; the rest are banned outright (no tasks at all, not even
//!   best-effort or vcap probers — only `vtop`'s cgroup-bypassing probers
//!   may touch them) to prevent expensive vCPU switches, LHP, and priority
//!   inversion.
//!
//! When a ban lands on a vCPU that currently holds tasks, they are
//! evacuated through the regular CFS selection path.

use crate::error::ProbeError;
use crate::tunables::RWC_STRAGGLER_FACTOR;
use crate::vcap::Vcap;
use guestos::{Kernel, MigrateKind, Platform, VcpuId};
use trace::ProbeKind;

/// The relaxed-work-conservation policy engine.
pub struct Rwc {
    nr_vcpus: usize,
    /// Currently restricted-to-idle (straggler) vCPUs.
    pub stragglers: Vec<bool>,
    /// Currently fully banned (stacked-extra) vCPUs.
    pub banned: Vec<bool>,
}

impl Rwc {
    /// Creates the engine.
    pub fn new(nr_vcpus: usize) -> Self {
        Self {
            nr_vcpus,
            stragglers: vec![false; nr_vcpus],
            banned: vec![false; nr_vcpus],
        }
    }

    /// Re-evaluates straggler status from the latest vcap estimates.
    /// Call after every vcap sampling window.
    pub fn update_stragglers(&mut self, kern: &mut Kernel, plat: &mut dyn Platform, vcap: &Vcap) {
        let threshold = RWC_STRAGGLER_FACTOR * vcap.mean_cap;
        for v in 0..self.nr_vcpus {
            if self.banned[v] {
                continue;
            }
            let is_straggler = vcap.capacity(VcpuId(v)) < threshold;
            if is_straggler && !self.stragglers[v] {
                self.stragglers[v] = true;
                kern.cgroup.restrict_to_idle(v);
                self.evacuate(kern, plat, VcpuId(v), false);
            } else if !is_straggler && self.stragglers[v] {
                self.stragglers[v] = false;
                kern.cgroup.allow(v);
            }
        }
    }

    /// Applies stacking bans from the latest vtop topology: in each
    /// stacking group the lowest-numbered vCPU stays, the rest are banned.
    /// Returns the vCPUs whose ban state changed to banned (so vcap can
    /// retire its probers there).
    ///
    /// Errors — without changing any ban — on a malformed topology (an
    /// empty or out-of-range stacking group): under chaos the probed
    /// topology is untrusted input, so it is validated before any vCPU is
    /// hidden from the scheduler.
    pub fn update_stacking(
        &mut self,
        kern: &mut Kernel,
        plat: &mut dyn Platform,
        stacked_groups: &[Vec<usize>],
    ) -> Result<Vec<usize>, ProbeError> {
        let mut should_ban = vec![false; self.nr_vcpus];
        for group in stacked_groups {
            let Some(keep) = group.iter().copied().min() else {
                return Err(ProbeError::Inconsistent(
                    ProbeKind::Vtop,
                    "empty stacking group",
                ));
            };
            if group.iter().any(|&v| v >= self.nr_vcpus) {
                return Err(ProbeError::Inconsistent(
                    ProbeKind::Vtop,
                    "stacking group references unknown vCPU",
                ));
            }
            for &v in group {
                if v != keep {
                    should_ban[v] = true;
                }
            }
        }
        let mut newly_banned = Vec::new();
        #[allow(clippy::needless_range_loop)]
        for v in 0..self.nr_vcpus {
            if should_ban[v] && !self.banned[v] {
                self.banned[v] = true;
                kern.cgroup.ban(v);
                self.evacuate(kern, plat, VcpuId(v), true);
                newly_banned.push(v);
            } else if !should_ban[v] && self.banned[v] {
                self.banned[v] = false;
                if self.stragglers[v] {
                    kern.cgroup.restrict_to_idle(v);
                } else {
                    kern.cgroup.allow(v);
                }
            }
        }
        Ok(newly_banned)
    }

    /// Lifts every straggler restriction (degraded mode caps rwc
    /// relaxation: with the capacity estimates untrusted, hiding vCPUs
    /// from placement does more harm than the stragglers would).
    pub fn clear_stragglers(&mut self, kern: &mut Kernel) {
        for v in 0..self.nr_vcpus {
            if self.stragglers[v] {
                self.stragglers[v] = false;
                if !self.banned[v] {
                    kern.cgroup.allow(v);
                }
            }
        }
    }

    /// Moves tasks off a newly restricted vCPU. With `all`, even
    /// best-effort tasks leave; otherwise only normal-policy tasks do.
    fn evacuate(&self, kern: &mut Kernel, plat: &mut dyn Platform, v: VcpuId, all: bool) {
        // Waiting tasks first.
        let queued: Vec<_> = kern.vcpus[v.0].rq.iter().map(|(_, t)| t).collect();
        for t in queued {
            if kern.task(t).bypass_cgroup {
                continue;
            }
            if !all && kern.task(t).policy.is_idle() {
                continue;
            }
            let now = plat.now();
            let to = kern.select_cpu_fair(plat, t, now);
            if to != v {
                kern.migrate_runnable(plat, t, to, MigrateKind::Balance);
            }
        }
        // Then the current task.
        if let Some(curr) = kern.vcpus[v.0].curr {
            let movable =
                !kern.task(curr).bypass_cgroup && (all || !kern.task(curr).policy.is_idle());
            if movable {
                let now = plat.now();
                let to = kern.select_cpu_fair(plat, curr, now);
                if to != v {
                    kern.migrate_running(plat, v, to, MigrateKind::Active);
                }
            }
        }
    }
}
