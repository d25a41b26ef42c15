//! Replayed-day cell: every placement policy × guest mode over one trace.
//!
//! The stochastic `fleet` job re-draws its churn from the cell seed, so
//! two policies never see *exactly* the same day. This cell fixes that:
//! a SAP-shaped trace is synthesized from the profile's canonical
//! [`day_seed`] — deliberately independent of the suite's cell seeds —
//! and compiled into the spec as [`ChurnModel::Trace`], so every
//! `(policy, guest mode)` pair replays the identical arrival/departure/
//! resize schedule. The cell seed still reaches workload phases and host
//! streams, but never the day itself. Reported columns add per-priority-
//! tier p99 (critical/standard/batch), the slice the trace's tenant
//! tiers exist for.
//!
//! [`ChurnModel::Trace`]: ::fleet::ChurnModel::Trace

use crate::common::Scale;
use crate::figure::{cell, got, Figure};
use crate::fleet::{HOSTS, THREADS_PER_HOST};
use ::fleet::{
    day_seed, policy_by_name, profile_by_name, spec_for_trace, synthesize, Cluster, GuestMode,
    POLICIES, PROFILES,
};
use metrics::Table;
use std::fmt;

/// Generator profiles the job grids over, in cell order.
pub fn profile_names() -> Vec<&'static str> {
    PROFILES.iter().map(|p| p.name).collect()
}

/// One replayed run's outcome (one policy, one guest mode).
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// VMs a policy successfully sited.
    pub placed: u64,
    /// VMs rejected (no host fit under the overcommit cap).
    pub rejected: u64,
    /// Requests completed fleet-wide.
    pub completed: u64,
    /// Fleet-merged median end-to-end latency (ms).
    pub p50_ms: f64,
    /// Fleet-merged tail end-to-end latency (ms).
    pub p99_ms: f64,
    /// Merged p99 per priority tier (critical, standard, batch), ms.
    pub tier_p99_ms: [f64; 3],
    /// Measured tenants per tier (same order).
    pub tier_tenants: [usize; 3],
    /// Tenants whose own p99 busted the spec's SLO.
    pub slo_violations: usize,
    /// Tenants with at least one completed request.
    pub measured_tenants: usize,
    /// Jain's fairness index over per-tenant completion rates.
    pub fairness: f64,
    /// Invariant violations (must be 0).
    pub violations: u64,
}

/// Runs one `(profile, policy)` cell: the profile's canonical day,
/// replayed once with CFS guests and once with vSched guests.
pub fn run_cell(
    policy: &'static str,
    profile: &'static str,
    horizon_secs: u64,
    seed: u64,
) -> (ReplayOutcome, ReplayOutcome) {
    let p = profile_by_name(profile).expect("registered profile");
    let trace = synthesize(p, horizon_secs * 1_000_000_000, day_seed(p.name));
    let spec = spec_for_trace(&trace, HOSTS, THREADS_PER_HOST);
    let run_mode = |mode| {
        let mut c = Cluster::new(
            spec.clone(),
            mode,
            policy_by_name(policy).expect("registered policy"),
            seed,
        );
        outcome(c.run())
    };
    (run_mode(GuestMode::Cfs), run_mode(GuestMode::Vsched))
}

fn outcome(s: ::fleet::SloSummary) -> ReplayOutcome {
    ReplayOutcome {
        placed: s.placed,
        rejected: s.rejected,
        completed: s.completed,
        p50_ms: s.p50_ms,
        p99_ms: s.p99_ms,
        tier_p99_ms: s.tier_p99_ms,
        tier_tenants: s.tier_tenants,
        slo_violations: s.slo_violations,
        measured_tenants: s.measured_tenants,
        fairness: s.fairness,
        violations: s.violations,
    }
}

/// The rendered replay cell grid: one `(CFS, vSched)` pair per
/// `(profile, policy)`, profiles outermost.
pub struct Replay {
    /// `(profile, policy, cfs, vsched)` rows.
    pub rows: Vec<(&'static str, &'static str, ReplayOutcome, ReplayOutcome)>,
}

impl fmt::Display for Replay {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Fleet replay: policies x guest modes over one trace per profile \
             ({HOSTS}x{THREADS_PER_HOST} cluster)"
        )?;
        let mut t = Table::new(&[
            "profile",
            "policy",
            "guests",
            "placed",
            "rejected",
            "p99 ms",
            "crit p99",
            "std p99",
            "batch p99",
            "SLO viol",
            "fairness",
            "violations",
        ]);
        for (profile, policy, cfs, vs) in &self.rows {
            for (mode, o) in [(GuestMode::Cfs, cfs), (GuestMode::Vsched, vs)] {
                t.row_owned(vec![
                    profile.to_string(),
                    policy.to_string(),
                    mode.label().to_string(),
                    o.placed.to_string(),
                    o.rejected.to_string(),
                    format!("{:.2}", o.p99_ms),
                    format!("{:.2}", o.tier_p99_ms[0]),
                    format!("{:.2}", o.tier_p99_ms[1]),
                    format!("{:.2}", o.tier_p99_ms[2]),
                    format!("{}/{}", o.slo_violations, o.measured_tenants),
                    format!("{:.3}", o.fairness),
                    o.violations.to_string(),
                ]);
            }
        }
        write!(f, "{t}")?;
        for (profile, policy, cfs, vs) in &self.rows {
            write!(
                f,
                "\n{profile}/{policy}: p99 ratio (vSched/CFS) {:.2}x",
                vs.p99_ms / cfs.p99_ms.max(1e-9)
            )?;
        }
        Ok(())
    }
}

/// The job: one cell per (generator profile, placement policy). The day
/// is pinned by the profile's canonical day_seed — not the cell seed — so
/// every cell in a profile replays the identical generated trace; within a
/// cell, CFS and vSched guests run it back to back.
pub fn figure() -> Figure<Replay> {
    let mut cells = Vec::new();
    for profile in profile_names() {
        for &policy in POLICIES.iter() {
            cells.push(cell(
                format!("{profile}/{policy}"),
                move |seed, scale: Scale| run_cell(policy, profile, scale.secs(4, 16), seed),
            ));
        }
    }
    Figure::new(
        "fleet-replay",
        "placement policies x guest modes over one replayed SAP-shaped day per profile",
        cells,
        |parts, _| {
            let mut it = parts.into_iter().map(got::<(ReplayOutcome, ReplayOutcome)>);
            let mut rows = Vec::new();
            for profile in profile_names() {
                for &policy in POLICIES.iter() {
                    let (cfs, vs) = it.next().unwrap();
                    rows.push((profile, policy, cfs, vs));
                }
            }
            Replay { rows }
        },
    )
}
