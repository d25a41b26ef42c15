//! Compact, versioned fleet-trace format.
//!
//! A trace is a replayable day of VM lifecycle churn: timestamped
//! arrive/depart/resize records with tenant priority class and requested
//! vCPU shape. The on-disk shape is JSON-lines so validation errors can
//! point at the offending line:
//!
//! ```text
//! {"day_seed":7,"format":"vsched-fleet-trace","horizon_ns":...,"profile":"sap-diurnal","records":2,"version":1}
//! {"at":12000000,"op":"arrive","prio":"standard","uid":0,"vcpus":2}
//! {"at":52000000,"op":"depart","uid":0}
//! ```
//!
//! Every value is an integer or a short enum string, rendered through
//! [`simcore::json`] (sorted keys, exact u64), so `encode` is a pure
//! function of the trace and `decode(encode(t)) == t` exactly.

use crate::lifecycle::{LifecycleEvent, VmOp};
use simcore::json::Json;
use simcore::SimTime;
use std::collections::BTreeSet;
use std::fmt;
use trace::PriorityClass;

/// Format tag in the header line; anything else is rejected.
pub const FORMAT_TAG: &str = "vsched-fleet-trace";
/// Current (only) format version.
pub const FORMAT_VERSION: u64 = 1;

/// A decoded fleet trace: provenance (which generator profile and day
/// seed produced it) plus the event schedule itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetTrace {
    /// Generator profile name (or a free-form label for hand-written traces).
    pub profile: String,
    /// Seed the generator ran with — provenance only; replay never re-draws.
    pub day_seed: u64,
    /// Simulated duration the trace covers; every record's `at` is below it.
    pub horizon_ns: u64,
    /// Time-sorted lifecycle schedule.
    pub events: Vec<LifecycleEvent>,
}

/// A line-precise trace decode/validation error. Line 1 is the header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceError {
    /// 1-based line number the error was detected on (0 = whole-file).
    pub line: usize,
    /// What was wrong.
    pub msg: String,
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "{}", self.msg)
        } else {
            write!(f, "line {}: {}", self.line, self.msg)
        }
    }
}

impl std::error::Error for TraceError {}

fn err<T>(line: usize, msg: impl Into<String>) -> Result<T, TraceError> {
    Err(TraceError {
        line,
        msg: msg.into(),
    })
}

fn record_json(e: &LifecycleEvent) -> Json {
    let at = Json::Uint(e.at.ns());
    match e.op {
        VmOp::Arrive { uid, vcpus, prio } => Json::obj([
            ("at", at),
            ("op", Json::Str("arrive".into())),
            ("prio", Json::Str(prio.name().into())),
            ("uid", Json::Uint(uid as u64)),
            ("vcpus", Json::Uint(vcpus as u64)),
        ]),
        VmOp::Depart { uid } => Json::obj([
            ("at", at),
            ("op", Json::Str("depart".into())),
            ("uid", Json::Uint(uid as u64)),
        ]),
        VmOp::Resize { uid, quota_pct } => Json::obj([
            ("at", at),
            ("op", Json::Str("resize".into())),
            ("quota_pct", Json::Uint(quota_pct as u64)),
            ("uid", Json::Uint(uid as u64)),
        ]),
    }
}

fn parse_record(doc: &Json, line: usize) -> Result<LifecycleEvent, TraceError> {
    let u = |key: &str| -> Result<u64, TraceError> {
        match doc.get(key).and_then(|v| v.as_u64()) {
            Some(n) => Ok(n),
            None => err(line, format!("record field {key:?} missing or not a u64")),
        }
    };
    let at = SimTime::from_ns(u("at")?);
    let op = match doc.get("op").and_then(|v| v.as_str()) {
        Some("arrive") => {
            let prio_name = match doc.get("prio").and_then(|v| v.as_str()) {
                Some(s) => s,
                None => return err(line, "arrive record missing string field \"prio\""),
            };
            let prio = match PriorityClass::from_name(prio_name) {
                Some(p) => p,
                None => return err(line, format!("unknown priority class {prio_name:?}")),
            };
            VmOp::Arrive {
                uid: u("uid")? as u32,
                vcpus: u("vcpus")? as usize,
                prio,
            }
        }
        Some("depart") => VmOp::Depart {
            uid: u("uid")? as u32,
        },
        Some("resize") => VmOp::Resize {
            uid: u("uid")? as u32,
            quota_pct: u("quota_pct")? as u8,
        },
        Some(other) => return err(line, format!("unknown op {other:?}")),
        None => return err(line, "record missing string field \"op\""),
    };
    Ok(LifecycleEvent { at, op })
}

impl FleetTrace {
    /// Renders the trace as JSON-lines: header, then one record per line.
    /// Deterministic byte-for-byte (sorted keys, exact integers).
    pub fn encode(&self) -> String {
        let mut out = String::new();
        out.push_str(
            &Json::obj([
                ("day_seed", Json::Uint(self.day_seed)),
                ("format", Json::Str(FORMAT_TAG.into())),
                ("horizon_ns", Json::Uint(self.horizon_ns)),
                ("profile", Json::Str(self.profile.clone())),
                ("records", Json::Uint(self.events.len() as u64)),
                ("version", Json::Uint(FORMAT_VERSION)),
            ])
            .render(),
        );
        out.push('\n');
        for e in &self.events {
            out.push_str(&record_json(e).render());
            out.push('\n');
        }
        out
    }

    /// Parses and validates a trace written by [`FleetTrace::encode`].
    /// Errors carry the 1-based line they were detected on.
    pub fn decode(text: &str) -> Result<FleetTrace, TraceError> {
        let mut lines = text.lines().enumerate();
        let (_, header_line) = match lines.next() {
            Some(pair) => pair,
            None => return err(0, "empty trace: missing header line"),
        };
        let header = Json::parse(header_line).map_err(|e| TraceError {
            line: 1,
            msg: format!("header is not valid JSON: {e}"),
        })?;
        match header.get("format").and_then(|v| v.as_str()) {
            Some(FORMAT_TAG) => {}
            Some(other) => return err(1, format!("format {other:?} is not {FORMAT_TAG:?}")),
            None => return err(1, "header missing string field \"format\""),
        }
        match header.get("version").and_then(|v| v.as_u64()) {
            Some(FORMAT_VERSION) => {}
            Some(v) => {
                return err(
                    1,
                    format!("unsupported version {v} (want {FORMAT_VERSION})"),
                )
            }
            None => return err(1, "header missing u64 field \"version\""),
        }
        let hu = |key: &str| -> Result<u64, TraceError> {
            match header.get(key).and_then(|v| v.as_u64()) {
                Some(n) => Ok(n),
                None => err(1, format!("header missing u64 field {key:?}")),
            }
        };
        let profile = match header.get("profile").and_then(|v| v.as_str()) {
            Some(s) => s.to_string(),
            None => return err(1, "header missing string field \"profile\""),
        };
        let declared = hu("records")? as usize;
        let mut events = Vec::with_capacity(declared);
        for (idx, line) in lines {
            let lineno = idx + 1;
            if line.trim().is_empty() {
                return err(lineno, "blank line inside trace body");
            }
            let doc = Json::parse(line).map_err(|e| TraceError {
                line: lineno,
                msg: format!("record is not valid JSON: {e}"),
            })?;
            events.push(parse_record(&doc, lineno)?);
        }
        if events.len() != declared {
            return err(
                0,
                format!(
                    "header declares {declared} records but body has {}",
                    events.len()
                ),
            );
        }
        let trace = FleetTrace {
            profile,
            day_seed: hu("day_seed")?,
            horizon_ns: hu("horizon_ns")?,
            events,
        };
        trace.validate()?;
        Ok(trace)
    }

    /// Semantic validation: sorted timestamps inside the horizon, unique
    /// arrivals, and depart/resize only against live VMs. Errors name the
    /// offending record's line (header is line 1, so record `i` is line
    /// `i + 2`).
    pub fn validate(&self) -> Result<(), TraceError> {
        if self.horizon_ns == 0 {
            return err(1, "horizon_ns must be positive (got 0)");
        }
        let mut last_at = 0u64;
        let mut live: BTreeSet<u32> = BTreeSet::new();
        let mut ever: BTreeSet<u32> = BTreeSet::new();
        for (i, e) in self.events.iter().enumerate() {
            let lineno = i + 2;
            let at = e.at.ns();
            if at < last_at {
                return err(
                    lineno,
                    format!("timestamp {at} goes backwards (previous record at {last_at})"),
                );
            }
            if at >= self.horizon_ns {
                return err(
                    lineno,
                    format!(
                        "timestamp {at} is at or past horizon_ns {}",
                        self.horizon_ns
                    ),
                );
            }
            last_at = at;
            match e.op {
                VmOp::Arrive { uid, vcpus, .. } => {
                    if vcpus == 0 {
                        return err(lineno, format!("vm {uid} arrives with 0 vcpus"));
                    }
                    if !ever.insert(uid) {
                        return err(lineno, format!("vm {uid} arrives twice"));
                    }
                    live.insert(uid);
                }
                VmOp::Depart { uid } => {
                    if !live.remove(&uid) {
                        return err(lineno, format!("vm {uid} departs while not live"));
                    }
                }
                VmOp::Resize { uid, quota_pct } => {
                    if !live.contains(&uid) {
                        return err(lineno, format!("vm {uid} resized while not live"));
                    }
                    if quota_pct == 0 || quota_pct > 100 {
                        return err(
                            lineno,
                            format!("vm {uid} resize quota_pct {quota_pct} outside 1..=100"),
                        );
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FleetTrace {
        FleetTrace {
            profile: "hand-written".into(),
            day_seed: 7,
            horizon_ns: 1_000_000_000,
            events: vec![
                LifecycleEvent {
                    at: SimTime::from_ns(10_000_000),
                    op: VmOp::Arrive {
                        uid: 0,
                        vcpus: 2,
                        prio: PriorityClass::Critical,
                    },
                },
                LifecycleEvent {
                    at: SimTime::from_ns(20_000_000),
                    op: VmOp::Resize {
                        uid: 0,
                        quota_pct: 50,
                    },
                },
                LifecycleEvent {
                    at: SimTime::from_ns(900_000_000),
                    op: VmOp::Depart { uid: 0 },
                },
            ],
        }
    }

    #[test]
    fn encode_decode_round_trips_exactly() {
        let t = sample();
        let text = t.encode();
        let back = FleetTrace::decode(&text).expect("decodes");
        assert_eq!(t, back);
        assert_eq!(text, back.encode(), "re-encode is byte-identical");
    }

    #[test]
    fn decode_errors_carry_line_numbers() {
        let t = sample();
        let text = t.encode();

        // Corrupt record 2 (line 3): flip "depart" to an unknown op.
        let corrupted = text.replace("\"depart\"", "\"explode\"");
        let e = FleetTrace::decode(&corrupted).unwrap_err();
        assert_eq!(e.line, 4);
        assert!(e.msg.contains("unknown op"), "{e}");

        // Drop the last record: header count no longer matches.
        let mut lines: Vec<&str> = text.lines().collect();
        lines.pop();
        let truncated = lines.join("\n");
        let e = FleetTrace::decode(&truncated).unwrap_err();
        assert!(e.msg.contains("declares 3 records"), "{e}");

        // Bad header format tag.
        let bad_tag = text.replace(FORMAT_TAG, "other-format");
        let e = FleetTrace::decode(&bad_tag).unwrap_err();
        assert_eq!(e.line, 1);
    }

    #[test]
    fn validate_rejects_semantic_violations() {
        let mut t = sample();
        t.events[2].op = VmOp::Depart { uid: 9 };
        let e = t.validate().unwrap_err();
        assert_eq!(e.line, 4);
        assert!(e.msg.contains("vm 9 departs while not live"), "{e}");

        let mut t = sample();
        t.events[1].at = SimTime::from_ns(5_000_000); // before the arrival
        assert!(t.validate().unwrap_err().msg.contains("goes backwards"));

        let mut t = sample();
        t.horizon_ns = 100_000_000; // depart lands past the horizon
        assert!(t.validate().unwrap_err().msg.contains("past horizon_ns"));
    }
}
