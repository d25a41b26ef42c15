//! Focused unit tests of the vSched policies against a mock platform:
//! bvs's Figure 8 decision tree, rwc's ban bookkeeping, and ivh's
//! pre-wake protocol — all without the full host simulator.

use guestos::{CommDistance, GuestConfig, Kernel, Platform, RunDelta, SpawnSpec, TaskId, VcpuId};
use simcore::time::MS;
use simcore::SimTime;
use vsched::{bvs, BvsStats, Ivh, Rwc, Vact, Vcap};

/// A minimal always-active platform.
struct MockPlat {
    now: SimTime,
    active: Vec<bool>,
    kicked: Vec<VcpuId>,
}

impl MockPlat {
    fn new(nr: usize) -> Self {
        Self {
            now: SimTime::ZERO,
            active: vec![true; nr],
            kicked: Vec::new(),
        }
    }
}

impl Platform for MockPlat {
    fn now(&self) -> SimTime {
        self.now
    }
    fn steal_ns(&self, _v: VcpuId) -> u64 {
        0
    }
    fn vcpu_active(&self, v: VcpuId) -> bool {
        self.active[v.0]
    }
    fn kick(&mut self, v: VcpuId) {
        self.kicked.push(v);
    }
    fn vcpu_idle(&mut self, _v: VcpuId) {}
    fn run_task(&mut self, _v: VcpuId, _t: TaskId, _r: f64, _f: f64, _p: f64) {}
    fn stop_task(&mut self, _v: VcpuId) -> RunDelta {
        RunDelta::default()
    }
    fn poll_task(&mut self, _v: VcpuId) -> RunDelta {
        RunDelta::default()
    }
    fn update_factor(&mut self, _v: VcpuId, _f: f64) {}
    fn send_ipi(&mut self, to: VcpuId) {
        self.kicked.push(to);
    }
    fn comm_distance(&self, _a: VcpuId, _b: VcpuId) -> CommDistance {
        CommDistance::SameLlc
    }
    fn cacheline_latency_ns(&mut self, _a: VcpuId, _b: VcpuId) -> Option<f64> {
        Some(48.0)
    }
    fn set_timer(&mut self, _token: u64, _at: SimTime) {}
}

fn setup(nr: usize) -> (Kernel, MockPlat, Vact, Vcap) {
    let kern = Kernel::new(GuestConfig::new(nr), SimTime::ZERO);
    let plat = MockPlat::new(nr);
    let vact = Vact::new(nr, 1_000_000, SimTime::ZERO);
    let vcap = Vcap::new(nr);
    (kern, plat, vact, vcap)
}

/// Feeds vact ticks so vCPU `v` publishes the given latency.
fn teach_latency(vact: &mut Vact, kern: &Kernel, v: usize, latency: u64) {
    let mut steal = 0u64;
    let mut t = 1u64;
    for _ in 0..5 {
        for _ in 0..5 {
            vact.on_tick(VcpuId(v), SimTime::from_ms(t), steal);
            t += 1;
        }
        steal += latency;
        t += latency / MS + 1;
        vact.on_tick(VcpuId(v), SimTime::from_ms(t), steal);
    }
    vact.close_window(kern, SimTime::from_ms(t));
}

#[test]
fn bvs_skips_non_latency_sensitive_tasks() {
    let (mut kern, mut plat, vact, vcap) = setup(4);
    let t = kern.spawn(SimTime::ZERO, SpawnSpec::normal(4));
    let mut stats = BvsStats::default();
    let pick = bvs::select(
        &mut kern, &mut plat, &vact, &vcap, None, &mut stats, t, true,
    );
    assert_eq!(pick, None, "plain tasks fall through to CFS");
}

#[test]
fn bvs_skips_large_tasks() {
    let (mut kern, mut plat, vact, vcap) = setup(4);
    let t = kern.spawn(SimTime::ZERO, SpawnSpec::normal(4).latency_sensitive());
    // Fresh tasks start with PELT at half charge (512 > small threshold).
    let mut stats = BvsStats::default();
    let pick = bvs::select(
        &mut kern, &mut plat, &vact, &vcap, None, &mut stats, t, true,
    );
    assert_eq!(pick, None, "large tasks are not bvs material");
}

#[test]
fn bvs_prefers_low_latency_idle_vcpu() {
    let (mut kern, mut plat, mut vact, vcap) = setup(4);
    // vCPUs 0,1 high latency; 2,3 low latency.
    teach_latency(&mut vact, &kern, 0, 8 * MS);
    teach_latency(&mut vact, &kern, 1, 8 * MS);
    teach_latency(&mut vact, &kern, 2, MS);
    teach_latency(&mut vact, &kern, 3, MS);
    let t = kern.spawn(SimTime::ZERO, SpawnSpec::normal(4).latency_sensitive());
    // Decay PELT so the task classifies as small.
    kern.task_mut(t)
        .pelt
        .update(SimTime::from_secs(1), guestos::pelt::PeltState::Sleeping);
    plat.now = SimTime::from_secs(1);
    let mut stats = BvsStats::default();
    let pick = bvs::select(
        &mut kern, &mut plat, &vact, &vcap, None, &mut stats, t, true,
    )
    .expect("bvs places the task");
    assert!(
        pick == VcpuId(2) || pick == VcpuId(3),
        "picked {pick:?}, expected a low-latency vCPU"
    );
    assert_eq!(stats.placed, 1);
}

#[test]
fn rwc_ban_and_recovery_roundtrip() {
    let (mut kern, mut plat, _vact, _vcap) = setup(4);
    let mut rwc = Rwc::new(4);
    // Stacked group {2,3}: keep 2, ban 3.
    let banned = rwc
        .update_stacking(&mut kern, &mut plat, &[vec![2, 3]])
        .unwrap();
    assert_eq!(banned, vec![3]);
    assert!(!kern.cgroup.any.contains(3));
    assert!(kern.cgroup.normal.contains(2));
    // Topology change: no more stacking — the ban lifts.
    let banned = rwc.update_stacking(&mut kern, &mut plat, &[]).unwrap();
    assert!(banned.is_empty());
    assert!(kern.cgroup.any.contains(3));
    assert!(kern.cgroup.normal.contains(3));
}

#[test]
fn rwc_straggler_restriction_tracks_capacity() {
    let (mut kern, mut plat, _vact, mut vcap) = setup(4);
    let mut rwc = Rwc::new(4);
    // Fake capacities: vCPU 3 at 2% of the mean.
    for v in 0..3 {
        vcap.cap[v].update(1000.0);
    }
    vcap.cap[3].update(20.0);
    vcap.mean_cap = 755.0;
    rwc.update_stragglers(&mut kern, &mut plat, &vcap);
    assert!(rwc.stragglers[3]);
    assert!(
        !kern.cgroup.normal.contains(3),
        "straggler hidden from normal tasks"
    );
    assert!(kern.cgroup.any.contains(3), "but still open to best-effort");
    // Recovery.
    for _ in 0..8 {
        vcap.cap[3].update(900.0);
    }
    rwc.update_stragglers(&mut kern, &mut plat, &vcap);
    assert!(!rwc.stragglers[3]);
    assert!(kern.cgroup.normal.contains(3));
}

#[test]
fn rwc_evacuates_tasks_from_banned_vcpu() {
    let (mut kern, mut plat, _vact, _vcap) = setup(4);
    // Put a running task on vCPU 3.
    let t = kern.spawn(SimTime::ZERO, SpawnSpec::normal(4));
    kern.wake_to(&mut plat, t, VcpuId(3), None);
    kern.schedule(&mut plat, VcpuId(3));
    kern.task_mut(t).remaining = 1e12;
    assert_eq!(kern.vcpus[3].curr, Some(t));
    let mut rwc = Rwc::new(4);
    rwc.update_stacking(&mut kern, &mut plat, &[vec![2, 3]])
        .unwrap();
    // The task left vCPU 3.
    assert_ne!(kern.task(t).state.vcpu(), Some(VcpuId(3)));
}

#[test]
fn ivh_abandons_stale_pull_requests() {
    let (mut kern, mut plat, mut vact, _vcap) = setup(2);
    let mut ivh = Ivh::new(2, true);
    // A CPU-hog on vCPU 0 with known inactivity; vCPU 1 idle.
    teach_latency(&mut vact, &kern, 0, 5 * MS);
    let t = kern.spawn(SimTime::ZERO, SpawnSpec::normal(2));
    kern.wake_to(&mut plat, t, VcpuId(0), None);
    kern.schedule(&mut plat, VcpuId(0));
    kern.task_mut(t).remaining = 1e12;
    // The source died down before the pull: the task has been context
    // switched away, so the pull must abandon.
    plat.now = SimTime::from_ms(100);
    // Manufacture a pending pull by invoking on_tick at a moment vact
    // considers "about to go inactive". Easiest: call on_vcpu_start with a
    // stale pending — simulate by ticking first.
    vact.on_tick(VcpuId(0), plat.now, 0);
    ivh.on_tick(&mut kern, &mut plat, &vact, VcpuId(0));
    // Whatever ivh decided, a later vcpu-start on vCPU 1 with the source
    // gone must not panic and must not migrate a dead task.
    kern.kill_task(&mut plat, t);
    ivh.on_vcpu_start(&mut kern, &mut plat, &vact, VcpuId(1));
    assert!(kern.vcpus[1].curr.is_none());
}

#[test]
fn vcap_capacity_defaults_to_full_before_probing() {
    let (_kern, _plat, _vact, vcap) = setup(2);
    assert_eq!(vcap.capacity(VcpuId(0)), 1024.0);
    assert_eq!(vcap.median_cap, 1024.0);
}

#[test]
fn vact_median_uses_lower_middle() {
    let (kern, _plat, mut vact, _vcap) = setup(4);
    teach_latency(&mut vact, &kern, 0, MS);
    teach_latency(&mut vact, &kern, 1, MS);
    teach_latency(&mut vact, &kern, 2, 9 * MS);
    teach_latency(&mut vact, &kern, 3, 9 * MS);
    // With a half/half split the median must land in the low class.
    assert_eq!(vact.median_latency_ns, MS);
}

#[test]
fn bvs_first_fit_starts_from_prev_vcpu() {
    let (mut kern, mut plat, mut vact, vcap) = setup(4);
    for v in 0..4 {
        teach_latency(&mut vact, &kern, v, MS);
    }
    let t = kern.spawn(SimTime::ZERO, SpawnSpec::normal(4).latency_sensitive());
    kern.task_mut(t)
        .pelt
        .update(SimTime::from_secs(1), guestos::pelt::PeltState::Sleeping);
    kern.task_mut(t).last_vcpu = VcpuId(2);
    plat.now = SimTime::from_secs(1);
    let mut stats = BvsStats::default();
    let pick = bvs::select(
        &mut kern, &mut plat, &vact, &vcap, None, &mut stats, t, true,
    )
    .expect("all vCPUs acceptable");
    assert_eq!(pick, VcpuId(2), "first fit begins at the previous vCPU");
}

#[test]
fn bvs_capacity_gate_skips_weak_vcpus() {
    let (mut kern, mut plat, mut vact, mut vcap) = setup(4);
    for v in 0..4 {
        teach_latency(&mut vact, &kern, v, MS);
    }
    // vCPUs 0,1 weak (below 0.9x median), 2,3 strong.
    kern.vcpus[0].cap_override = Some(100.0);
    kern.vcpus[1].cap_override = Some(100.0);
    kern.vcpus[2].cap_override = Some(1000.0);
    kern.vcpus[3].cap_override = Some(1000.0);
    vcap.median_cap = 1000.0;
    let t = kern.spawn(SimTime::ZERO, SpawnSpec::normal(4).latency_sensitive());
    kern.task_mut(t)
        .pelt
        .update(SimTime::from_secs(1), guestos::pelt::PeltState::Sleeping);
    kern.task_mut(t).last_vcpu = VcpuId(0);
    plat.now = SimTime::from_secs(1);
    let mut stats = BvsStats::default();
    let pick = bvs::select(
        &mut kern, &mut plat, &vact, &vcap, None, &mut stats, t, true,
    )
    .expect("strong vCPUs exist");
    assert!(
        pick == VcpuId(2) || pick == VcpuId(3),
        "picked {pick:?}, expected a high-capacity vCPU"
    );
}

#[test]
fn bvs_respects_cgroup_bans() {
    let (mut kern, mut plat, mut vact, vcap) = setup(4);
    for v in 0..4 {
        teach_latency(&mut vact, &kern, v, MS);
    }
    // Only vCPU 3 remains placeable.
    kern.cgroup.ban(0);
    kern.cgroup.ban(1);
    kern.cgroup.restrict_to_idle(2);
    let t = kern.spawn(SimTime::ZERO, SpawnSpec::normal(4).latency_sensitive());
    kern.task_mut(t)
        .pelt
        .update(SimTime::from_secs(1), guestos::pelt::PeltState::Sleeping);
    plat.now = SimTime::from_secs(1);
    let mut stats = BvsStats::default();
    let pick = bvs::select(
        &mut kern, &mut plat, &vact, &vcap, None, &mut stats, t, true,
    )
    .expect("one placeable vCPU remains");
    assert_eq!(pick, VcpuId(3), "bvs honours the rwc cgroup state");
}

#[test]
fn bvs_without_state_check_uses_latency_alone() {
    let (mut kern, mut plat, mut vact, vcap) = setup(2);
    teach_latency(&mut vact, &kern, 0, 8 * MS);
    teach_latency(&mut vact, &kern, 1, MS);
    // Occupy vCPU 1 with a best-effort task so the sched_idle branch runs.
    let hog = kern.spawn(
        SimTime::ZERO,
        SpawnSpec::normal(2).policy(guestos::Policy::Idle),
    );
    kern.wake_to(&mut plat, hog, VcpuId(1), None);
    kern.schedule(&mut plat, VcpuId(1));
    kern.task_mut(hog).remaining = 1e12;
    let t = kern.spawn(SimTime::ZERO, SpawnSpec::normal(2).latency_sensitive());
    kern.task_mut(t)
        .pelt
        .update(SimTime::from_secs(1), guestos::pelt::PeltState::Sleeping);
    kern.task_mut(t).last_vcpu = VcpuId(1);
    plat.now = SimTime::from_secs(1);
    let mut stats = BvsStats::default();
    let pick = bvs::select(
        &mut kern, &mut plat, &vact, &vcap, None, &mut stats, t, false,
    );
    assert_eq!(pick, Some(VcpuId(1)), "latency-only ablation places here");
    assert_eq!(stats.blue_path, 0, "no state check, no blue path");
}

#[test]
fn rwc_keeps_lowest_vcpu_of_each_stack() {
    let (mut kern, mut plat, _vact, _vcap) = setup(6);
    let mut rwc = Rwc::new(6);
    let banned = rwc
        .update_stacking(&mut kern, &mut plat, &[vec![0, 1], vec![4, 2, 5]])
        .unwrap();
    assert_eq!(banned, vec![1, 4, 5]);
    assert!(kern.cgroup.normal.contains(0));
    assert!(
        kern.cgroup.normal.contains(2),
        "lowest of {{2,4,5}} survives"
    );
    assert!(kern.cgroup.normal.contains(3), "unstacked untouched");
}

#[test]
fn rwc_unban_restores_straggler_restriction() {
    let (mut kern, mut plat, _vact, mut vcap) = setup(4);
    let mut rwc = Rwc::new(4);
    // vCPU 3 is a straggler...
    for v in 0..3 {
        vcap.cap[v].update(1000.0);
    }
    vcap.cap[3].update(20.0);
    vcap.mean_cap = 755.0;
    rwc.update_stragglers(&mut kern, &mut plat, &vcap);
    assert!(rwc.stragglers[3]);
    // ...then also gets stacked: the full ban wins.
    rwc.update_stacking(&mut kern, &mut plat, &[vec![2, 3]])
        .unwrap();
    assert!(!kern.cgroup.any.contains(3));
    // The stack dissolves: the straggler restriction must come back, not
    // full placement.
    rwc.update_stacking(&mut kern, &mut plat, &[]).unwrap();
    assert!(!kern.cgroup.normal.contains(3), "still a straggler");
    assert!(kern.cgroup.any.contains(3), "best-effort allowed again");
}

#[test]
fn rwc_straggler_updates_skip_banned_vcpus() {
    let (mut kern, mut plat, _vact, mut vcap) = setup(4);
    let mut rwc = Rwc::new(4);
    rwc.update_stacking(&mut kern, &mut plat, &[vec![2, 3]])
        .unwrap();
    // vCPU 3 is banned; even at straggler-level capacity it must not be
    // reclassified (vcap's probers are off it, the estimate is stale).
    vcap.cap[3].update(1.0);
    vcap.mean_cap = 800.0;
    rwc.update_stragglers(&mut kern, &mut plat, &vcap);
    assert!(!rwc.stragglers[3], "banned vCPUs are not classified");
    assert!(!kern.cgroup.any.contains(3), "ban stands");
}
