//! Automatic shrinking and replay of failing plans.
//!
//! A seed that trips the streaming invariant checker hands you a plan
//! with hundreds of events — useless as a bug report. This module
//! delta-debugs the plan down to a locally-minimal event subset that
//! still fails the *same checker law* (compared by
//! [`trace::check::ViolationKind::law_name`] via `CheckReport::first_law`),
//! using the classic ddmin algorithm: try dropping chunks (and keeping
//! complements) at progressively finer granularity, re-running the checker
//! on each candidate, until no single removal preserves the failure.
//!
//! The result is 1-minimal — removing **any one** remaining event makes
//! the violation disappear — which is exactly the property that makes a
//! repro plan readable. Minimality is *local*: a different, smaller
//! failing subset may exist elsewhere in the lattice; ddmin trades that
//! global guarantee for a number of checker runs linear-ish in plan size.
//!
//! Three plan kinds implement [`Repro`], tagged by their suite job:
//! `chaos` ([`FaultPlan`]), `fleet-chaos` ([`FleetChaosPlan`]) and
//! `adversary` ([`AttackPlan`]). `suite --shrink KIND:SEED` runs
//! [`shrink_seed`]; `suite --replay FILE` runs [`replay`]. A repro file is
//! an envelope `{"kind", "seed", "law", "plan"}`: `plan` is the plan's own
//! JSON codec output, `seed` the oracle seed the shrink ran under, and
//! `law` the law it preserved. Replay runs the oracle under the recorded
//! seed and reproduces only when the recorded law fails again.
//!
//! The oracle is pluggable: the real checker runs the kind's suite cell,
//! and a seed-blind synthetic canary law (`VSCHED_SHRINK_LAW=synthetic`)
//! exercises the machinery without a genuine simulator bug on tap.

use crate::adversary::{self, GuestMode, HostPolicy};
use crate::chaos::{self, ChaosMode};
use crate::common::Scale;
use crate::fleet_chaos::{self, ChaosGuests};
use ::fleet::{FleetChaosPlan, HostFault, HostOp};
use hostsim::{FaultPlan, InjectedFault};
use simcore::json::Json;
use std::path::PathBuf;
use trace::FaultClass;
use workloads::{AttackAction, AttackKind, AttackPlan};

/// A plan kind that can be shrunk to, and replayed from, a repro file.
pub trait Repro: Sized {
    /// Kind tag: the suite job the plan drives and the repro file's `kind`.
    const KIND: &'static str;
    /// What one event is called in reports.
    const NOUN: &'static str;
    /// One plan entry; ddmin keeps or drops whole events.
    type Event: Clone;
    /// The plan's events in replay order.
    fn events(&self) -> &[Self::Event];
    /// The same plan (seed and spec) over a subsequence of its events.
    fn with_events(&self, events: Vec<Self::Event>) -> Self;
    /// The plan the kind's suite cell generates for `seed` at `scale`.
    fn for_seed(seed: u64, scale: Scale) -> Self;
    /// The production oracle: the law the kind's checked cell breaks
    /// first under `seed`, if any.
    fn checker_law(&self, seed: u64) -> Option<String>;
    /// A seed-blind canary law for tests and CI.
    fn synthetic_law(&self) -> Option<String>;
    /// The plan's JSON codec.
    fn to_json(&self) -> String;
    /// Parses [`Repro::to_json`] output, rejecting any plan the kind's
    /// cell cannot run.
    fn from_json(text: &str) -> Result<Self, String>;
}

/// Which law a shrink preserves and a replay checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Oracle {
    /// The kind's suite cell under the streaming invariant checker.
    Checker,
    /// The kind's synthetic canary law.
    Synthetic,
}

impl Oracle {
    /// `VSCHED_SHRINK_LAW=synthetic` selects the synthetic law.
    pub fn from_env() -> Oracle {
        match std::env::var("VSCHED_SHRINK_LAW").as_deref() {
            Ok("synthetic") => Oracle::Synthetic,
            _ => Oracle::Checker,
        }
    }

    /// The law `plan` fails under this oracle and `seed`, if any.
    pub fn law<P: Repro>(self, plan: &P, seed: u64) -> Option<String> {
        match self {
            Oracle::Checker => plan.checker_law(seed),
            Oracle::Synthetic => plan.synthetic_law(),
        }
    }
}

/// What a completed shrink reports.
#[derive(Debug, Clone)]
pub struct ShrinkOutcome<P> {
    /// The minimized plan (same seed and spec, fewer events).
    pub plan: P,
    /// The checker law every kept candidate failed.
    pub law: String,
    /// Events in the original plan.
    pub original_events: usize,
    /// Oracle invocations spent.
    pub oracle_runs: usize,
}

/// Why a shrink or replay could not run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReproError {
    /// The full plan does not fail any law — nothing to shrink.
    PlanPasses,
    /// The kind tag names no plan kind.
    UnknownKind(String),
    /// The file carries no string `kind` tag.
    Untagged,
    /// The file is not a well-formed repro of its kind.
    Malformed(String),
}

impl std::fmt::Display for ReproError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReproError::PlanPasses => {
                write!(f, "plan passes every checker law; nothing to shrink")
            }
            ReproError::UnknownKind(k) => write!(
                f,
                "unknown repro kind '{k}' (expected one of {})",
                KINDS.join(", ")
            ),
            ReproError::Untagged => write!(f, "not a repro file: no \"kind\" tag"),
            ReproError::Malformed(e) => write!(f, "malformed repro: {e}"),
        }
    }
}

/// Every kind tag, in suite-job order.
pub const KINDS: [&str; 3] = [FaultPlan::KIND, AttackPlan::KIND, FleetChaosPlan::KIND];

/// The core ddmin loop, generic over the event list (host-level fault
/// actions, fleet-level host faults, anything orderable into a plan):
/// repeatedly drops one chunk at a time — keeping any complement that
/// still fails `target` — at progressively finer granularity, until no
/// single removal preserves the failure. `fails` runs the oracle on a
/// candidate subsequence and returns the law it breaks, if any.
fn ddmin<E: Clone>(
    mut events: Vec<E>,
    target: &str,
    mut fails: impl FnMut(&[E]) -> Option<String>,
) -> Vec<E> {
    let mut n = 2usize;
    while events.len() >= 2 {
        let chunk = events.len().div_ceil(n);
        let mut reduced = false;
        // Try each chunk's *complement* (i.e. drop one chunk at a time);
        // for n == 2 this also covers "keep one half".
        for start in (0..events.len()).step_by(chunk) {
            let candidate: Vec<E> = events[..start]
                .iter()
                .chain(events[(start + chunk).min(events.len())..].iter())
                .cloned()
                .collect();
            if candidate.is_empty() {
                continue;
            }
            if fails(&candidate).as_deref() == Some(target) {
                events = candidate;
                n = n.saturating_sub(1).max(2);
                reduced = true;
                break;
            }
        }
        if !reduced {
            if n >= events.len() {
                break; // singleton granularity exhausted: 1-minimal
            }
            n = (n * 2).min(events.len());
        }
    }
    events
}

/// Delta-debugs `plan` against `law`, which returns the name of the law a
/// candidate plan fails (or `None` if it passes). Returns a locally
/// minimal plan failing the same law as the full plan.
pub fn shrink<P: Repro>(
    plan: &P,
    mut law: impl FnMut(&P) -> Option<String>,
) -> Result<ShrinkOutcome<P>, ReproError> {
    let mut runs = 1usize;
    let target = law(plan).ok_or(ReproError::PlanPasses)?;
    let events = ddmin(plan.events().to_vec(), &target, |evs| {
        runs += 1;
        law(&plan.with_events(evs.to_vec()))
    });
    Ok(ShrinkOutcome {
        plan: plan.with_events(events),
        law: target,
        original_events: plan.events().len(),
        oracle_runs: runs,
    })
}

/// A repro file: the plan plus the oracle seed and law that reproduce it.
#[derive(Debug, Clone, PartialEq)]
pub struct ReproFile<P> {
    /// The oracle seed the shrink ran under.
    pub seed: u64,
    /// The law the shrink preserved.
    pub law: String,
    /// The minimized plan.
    pub plan: P,
}

impl<P: Repro> ReproFile<P> {
    /// Where `suite --shrink` writes it: `target/<kind>_repro_<seed>.json`
    /// with the kind's dashes as underscores.
    pub fn path(&self) -> PathBuf {
        PathBuf::from(format!(
            "target/{}_repro_{}.json",
            P::KIND.replace('-', "_"),
            self.seed
        ))
    }

    /// Renders the envelope; `plan` is exactly [`Repro::to_json`]'s bytes
    /// (the codec renders canonically, so parsing and re-rendering it
    /// changes nothing).
    pub fn to_json(&self) -> String {
        let plan = Json::parse(&self.plan.to_json()).expect("plan codecs render valid JSON");
        Json::obj([
            ("kind", P::KIND.into()),
            ("seed", Json::Uint(self.seed)),
            ("law", self.law.as_str().into()),
            ("plan", plan),
        ])
        .render()
    }

    /// Parses the envelope fields of a document whose kind tag is
    /// already known to be `P::KIND`.
    fn from_doc(doc: &Json) -> Result<Self, ReproError> {
        let plan = doc.field("plan").map_err(ReproError::Malformed)?;
        Ok(ReproFile {
            seed: doc.u64_field("seed").map_err(ReproError::Malformed)?,
            law: doc.str_field("law").map_err(ReproError::Malformed)?.into(),
            plan: P::from_json(&plan.render())
                .map_err(|e| ReproError::Malformed(format!("{} plan: {e}", P::KIND)))?,
        })
    }
}

fn kind_of(doc: &Json) -> Result<&str, ReproError> {
    doc.get("kind")
        .and_then(Json::as_str)
        .ok_or(ReproError::Untagged)
}

/// A finished `suite --shrink KIND:SEED`.
#[derive(Debug, Clone)]
pub struct Shrunk {
    /// Where the repro file belongs.
    pub path: PathBuf,
    /// The repro-file envelope.
    pub file: String,
    /// `law '<law>' holds at <kept> of <original> <noun> (<runs> oracle runs)`.
    pub summary: String,
}

/// Shrinks the plan kind `kind`'s suite cell generates for `seed` at
/// `scale`, under `oracle` run with that same seed.
pub fn shrink_seed(
    kind: &str,
    seed: u64,
    scale: Scale,
    oracle: Oracle,
) -> Result<Shrunk, ReproError> {
    fn go<P: Repro>(seed: u64, scale: Scale, oracle: Oracle) -> Result<Shrunk, ReproError> {
        let out = shrink(&P::for_seed(seed, scale), |p| oracle.law(p, seed))?;
        let summary = format!(
            "law '{}' holds at {} of {} {} ({} oracle runs)",
            out.law,
            out.plan.events().len(),
            out.original_events,
            P::NOUN,
            out.oracle_runs
        );
        let repro = ReproFile {
            seed,
            law: out.law,
            plan: out.plan,
        };
        Ok(Shrunk {
            path: repro.path(),
            file: repro.to_json(),
            summary,
        })
    }
    match kind {
        FaultPlan::KIND => go::<FaultPlan>(seed, scale, oracle),
        FleetChaosPlan::KIND => go::<FleetChaosPlan>(seed, scale, oracle),
        AttackPlan::KIND => go::<AttackPlan>(seed, scale, oracle),
        other => Err(ReproError::UnknownKind(other.to_string())),
    }
}

/// A finished `suite --replay FILE`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Replayed {
    /// Whether the recorded law failed again.
    pub reproduced: bool,
    /// What the replay saw, naming the kind, event count, seed and law.
    pub summary: String,
}

/// Replays a repro file: dispatches on its kind tag and runs `oracle`
/// under the recorded seed.
pub fn replay(text: &str, oracle: Oracle) -> Result<Replayed, ReproError> {
    fn go<P: Repro>(doc: &Json, oracle: Oracle) -> Result<Replayed, ReproError> {
        let file = ReproFile::<P>::from_doc(doc)?;
        let (n, kind, noun, seed) = (file.plan.events().len(), P::KIND, P::NOUN, file.seed);
        let what = format!("{n} {kind} {noun} under seed {seed}");
        let observed = oracle.law(&file.plan, seed);
        let summary = match &observed {
            Some(law) if *law == file.law => format!("reproduced law '{law}' with {what}"),
            Some(law) => format!("{what} fail law '{law}', not the recorded '{}'", file.law),
            None => format!("{what} pass every law; no reproduction"),
        };
        Ok(Replayed {
            reproduced: observed == Some(file.law),
            summary,
        })
    }
    let doc = Json::parse(text).map_err(|e| ReproError::Malformed(e.to_string()))?;
    match kind_of(&doc)? {
        FaultPlan::KIND => go::<FaultPlan>(&doc, oracle),
        FleetChaosPlan::KIND => go::<FleetChaosPlan>(&doc, oracle),
        AttackPlan::KIND => go::<AttackPlan>(&doc, oracle),
        other => Err(ReproError::UnknownKind(other.to_string())),
    }
}

/// Every scale a repro may have been shrunk at.
const SCALES: [Scale; 3] = [Scale::Smoke, Scale::Quick, Scale::Paper];

/// Accepts a decoded plan only when its spec is one the kind's cell
/// generates at some scale: the cell's scenario (VM shape, fleet size,
/// horizon) is fixed, so any other spec cannot replay it.
fn fitting<P: Repro, S: PartialEq>(plan: P, spec: impl Fn(&P) -> &S) -> Result<P, String> {
    if SCALES
        .iter()
        .any(|&s| spec(&P::for_seed(0, s)) == spec(&plan))
    {
        Ok(plan)
    } else {
        Err(format!("spec matches no scale of the {} cell", P::KIND))
    }
}

/// The single-host chaos cell: resilient vSched under a host fault plan.
impl Repro for FaultPlan {
    const KIND: &'static str = "chaos";
    const NOUN: &'static str = "actions";
    type Event = InjectedFault;

    fn events(&self) -> &[InjectedFault] {
        &self.events
    }

    fn with_events(&self, events: Vec<InjectedFault>) -> Self {
        FaultPlan::with_events(self, events)
    }

    fn for_seed(seed: u64, scale: Scale) -> Self {
        chaos::plan_for(scale.secs(6, 20), seed)
    }

    fn checker_law(&self, seed: u64) -> Option<String> {
        chaos::run_plan(ChaosMode::VschedResilient, self, seed).first_law
    }

    /// Fails iff the plan still contains at least two `QuotaChurn`
    /// actions and at least one `StressorBurst` — so the minimal repro is
    /// exactly three actions.
    fn synthetic_law(&self) -> Option<String> {
        let count = |c: FaultClass| self.events.iter().filter(|e| e.class == c).count();
        (count(FaultClass::QuotaChurn) >= 2 && count(FaultClass::StressorBurst) >= 1)
            .then(|| "synthetic-canary".to_string())
    }

    fn to_json(&self) -> String {
        FaultPlan::to_json(self)
    }

    fn from_json(text: &str) -> Result<Self, String> {
        fitting(FaultPlan::from_json(text)?, FaultPlan::spec)
    }
}

/// The fleet-chaos cell's canonical day (vSched guests, probe-state
/// handoff, probe-aware placement) under a host-failure plan.
impl Repro for FleetChaosPlan {
    const KIND: &'static str = "fleet-chaos";
    const NOUN: &'static str = "host faults";
    type Event = HostFault;

    fn events(&self) -> &[HostFault] {
        &self.events
    }

    fn with_events(&self, events: Vec<HostFault>) -> Self {
        FleetChaosPlan::with_events(self, events)
    }

    fn for_seed(seed: u64, scale: Scale) -> Self {
        fleet_chaos::plan_for_seed(seed, scale.secs(4, 16))
    }

    fn checker_law(&self, seed: u64) -> Option<String> {
        let spec = self.spec();
        let horizon_ns = spec.start.ns().saturating_add(spec.horizon_ns).max(1);
        fleet_chaos::run_plan(
            "probe-aware",
            ChaosGuests::VschedHandoff,
            self,
            horizon_ns,
            seed,
        )
        .first_law
    }

    /// Fails iff the plan still contains at least one crash *and* at least
    /// one drain — so the minimal repro is exactly two host faults.
    fn synthetic_law(&self) -> Option<String> {
        let count = |op: HostOp| self.events.iter().filter(|e| e.op == op).count();
        (count(HostOp::Crash) >= 1 && count(HostOp::Drain) >= 1)
            .then(|| "fleet-synthetic-canary".to_string())
    }

    fn to_json(&self) -> String {
        FleetChaosPlan::to_json(self)
    }

    fn from_json(text: &str) -> Result<Self, String> {
        fitting(FleetChaosPlan::from_json(text)?, FleetChaosPlan::spec)
    }
}

/// The adversary cell's richest configuration — domain-partitioned host,
/// hardened vSched victim — so the domain ownership/steal laws *and* the
/// probe-rejection path are all live.
impl Repro for AttackPlan {
    const KIND: &'static str = "adversary";
    const NOUN: &'static str = "attack actions";
    type Event = AttackAction;

    fn events(&self) -> &[AttackAction] {
        &self.events
    }

    fn with_events(&self, events: Vec<AttackAction>) -> Self {
        AttackPlan::with_events(self, events)
    }

    fn for_seed(seed: u64, scale: Scale) -> Self {
        adversary::plan_for(None, scale.secs(8, 30), seed)
    }

    fn checker_law(&self, seed: u64) -> Option<String> {
        adversary::run_attack(HostPolicy::Domain, GuestMode::VschedHardened, self, seed).first_law
    }

    /// Fails iff the plan still contains at least two `ProbeBurst` actions
    /// and at least one `DodgeRun` — so the minimal repro is exactly three
    /// actions.
    fn synthetic_law(&self) -> Option<String> {
        let count = |k: AttackKind| self.events.iter().filter(|e| e.kind == k).count();
        (count(AttackKind::ProbeBurst) >= 2 && count(AttackKind::DodgeRun) >= 1)
            .then(|| "adversary-synthetic-canary".to_string())
    }

    fn to_json(&self) -> String {
        AttackPlan::to_json(self)
    }

    fn from_json(text: &str) -> Result<Self, String> {
        fitting(AttackPlan::from_json(text)?, AttackPlan::spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Debug;

    /// The seed CI shrinks every kind under.
    const SEED: u64 = 0xDEAD_BEEF;

    fn full<P: Repro>() -> P {
        P::for_seed(SEED, Scale::Quick)
    }

    fn synthetic<P: Repro>(p: &P) -> Option<String> {
        p.synthetic_law()
    }

    /// The shrunk plan is `min` events, still fails the same law, and
    /// removing any one remaining event passes.
    fn one_minimal<P: Repro>(min: usize) {
        let full = full::<P>();
        let law = synthetic(&full).expect("seed must fail the synthetic law to start");
        let out = shrink(&full, synthetic::<P>).unwrap();
        assert_eq!(out.law, law);
        assert_eq!(out.plan.events().len(), min, "{} minimum", P::KIND);
        assert!(synthetic(&out.plan).is_some(), "repro still fails");
        for skip in 0..min {
            let mut fewer = out.plan.events().to_vec();
            fewer.remove(skip);
            assert!(
                synthetic(&out.plan.with_events(fewer)).is_none(),
                "{} not 1-minimal at index {skip}",
                P::KIND
            );
        }
    }

    fn deterministic<P: Repro + PartialEq + Debug>() {
        let a = shrink(&full::<P>(), synthetic::<P>).unwrap();
        let b = shrink(&full::<P>(), synthetic::<P>).unwrap();
        assert_eq!(a.plan, b.plan);
        assert_eq!(a.oracle_runs, b.oracle_runs);
    }

    /// The envelope round-trips the shrunk plan exactly, and the parsed
    /// repro still fails.
    fn round_trips<P: Repro + PartialEq + Debug>() {
        let out = shrink(&full::<P>(), synthetic::<P>).unwrap();
        let file = ReproFile {
            seed: SEED,
            law: out.law,
            plan: out.plan,
        };
        let back = ReproFile::<P>::from_doc(&Json::parse(&file.to_json()).unwrap()).unwrap();
        assert_eq!(back, file);
        assert!(synthetic(&back.plan).is_some(), "parsed repro still fails");
    }

    /// A one-event prefix satisfies no synthetic law (each needs two or
    /// more events).
    fn passing_plan_is_refused<P: Repro>() {
        let full = full::<P>();
        let one = full.with_events(full.events()[..1].to_vec());
        assert!(matches!(
            shrink(&one, synthetic::<P>),
            Err(ReproError::PlanPasses)
        ));
    }

    macro_rules! per_kind {
        ($($name:ident => $body:ident::<$plan:ty>($($arg:expr)?);)*) => {
            $(#[test]
            fn $name() {
                $body::<$plan>($($arg)?)
            })*
        };
    }

    per_kind! {
        shrinks_to_a_one_minimal_repro_of_the_same_law => one_minimal::<FaultPlan>(3);
        fleet_plans_shrink_to_a_one_minimal_crash_drain_pair => one_minimal::<FleetChaosPlan>(2);
        attack_plans_shrink_to_a_one_minimal_burst_dodge_triple => one_minimal::<AttackPlan>(3);
        shrink_is_deterministic => deterministic::<FaultPlan>();
        fleet_shrink_is_deterministic => deterministic::<FleetChaosPlan>();
        attack_shrink_is_deterministic => deterministic::<AttackPlan>();
        shrunk_plan_round_trips_through_the_repro_file_format => round_trips::<FaultPlan>();
        shrunk_fleet_plan_round_trips_through_the_repro_file_format => round_trips::<FleetChaosPlan>();
        shrunk_attack_plan_round_trips_through_the_repro_file_format => round_trips::<AttackPlan>();
        passing_plan_reports_nothing_to_shrink => passing_plan_is_refused::<FaultPlan>();
        passing_fleet_plan_reports_nothing_to_shrink => passing_plan_is_refused::<FleetChaosPlan>();
        passing_attack_plan_reports_nothing_to_shrink => passing_plan_is_refused::<AttackPlan>();
    }

    #[test]
    fn repro_file_records_the_oracle_seed_and_law() {
        let want = [
            (
                "chaos",
                "synthetic-canary",
                "3 of 31 actions (22 oracle runs)",
                "3 chaos actions",
            ),
            (
                "fleet-chaos",
                "fleet-synthetic-canary",
                "2 of 6 host faults (7 oracle runs)",
                "2 fleet-chaos host faults",
            ),
            (
                "adversary",
                "adversary-synthetic-canary",
                "3 of 169 attack actions (24 oracle runs)",
                "3 adversary attack actions",
            ),
        ];
        for (kind, law, counts, kept) in want {
            let out = shrink_seed(kind, SEED, Scale::Quick, Oracle::Synthetic).unwrap();
            assert_eq!(out.summary, format!("law '{law}' holds at {counts}"));
            let stem = kind.replace('-', "_");
            assert_eq!(
                out.path,
                PathBuf::from(format!("target/{stem}_repro_{SEED}.json"))
            );
            let doc = Json::parse(&out.file).unwrap();
            assert_eq!(
                (doc.u64_field("seed"), doc.str_field("law")),
                (Ok(SEED), Ok(law))
            );
            let r = replay(&out.file, Oracle::Synthetic).unwrap();
            assert!(r.reproduced, "{kind} replays its recorded law");
            assert_eq!(
                r.summary,
                format!("reproduced law '{law}' with {kept} under seed {SEED}")
            );
        }
        assert_eq!(
            shrink_seed("fleet", SEED, Scale::Quick, Oracle::Synthetic).unwrap_err(),
            ReproError::UnknownKind("fleet".into())
        );
    }

    #[test]
    fn untagged_unknown_or_truncated_files_are_named_errors() {
        let file = shrink_seed("chaos", SEED, Scale::Quick, Oracle::Synthetic)
            .unwrap()
            .file;
        // A 9-vCPU plan cannot drive the 8-vCPU chaos cell.
        let nine = hostsim::ChaosSpec::for_pinned_vm(0, 9, 6 * simcore::time::SEC);
        let off_scenario = ReproFile {
            seed: SEED,
            law: "synthetic-canary".into(),
            plan: FaultPlan::generate(1, &nine),
        };
        let cases = [
            (FaultPlan::to_json(&full()), "no \"kind\" tag"),
            (
                file.replace("\"chaos\"", "\"chaos2\""),
                "unknown repro kind 'chaos2'",
            ),
            (file[..file.len() / 2].to_string(), "malformed repro"),
            (
                file.replace("\"seed\":3735928559", "\"seed\":\"x\""),
                "seed not a u64",
            ),
            (
                file.replace("\"threads\":[0,1,2,3,4,5,6,7]", "\"threads\":[]"),
                "spec.threads is empty",
            ),
            (
                off_scenario.to_json(),
                "spec matches no scale of the chaos cell",
            ),
        ];
        for (text, want) in cases {
            let err = replay(&text, Oracle::Synthetic).unwrap_err().to_string();
            assert!(err.contains(want), "{err:?} should name {want:?}");
        }
    }
}
