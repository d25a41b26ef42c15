//! Byte-mutation sweep over every decoder that reads input from outside
//! the process.
//!
//! Each case takes a valid input — a plan codec's output, a committed
//! example fleet trace, a checkpoint manifest or a repro-file envelope —
//! applies a few random byte mutations (flip, delete, insert, truncate,
//! duplicate, or an extreme number in place of a number) and feeds the
//! result to its decoder. The decoder must return `Ok` or its typed
//! error; a panic or an aborted allocation fails the test, and
//! `propcheck::forall` prints the seed. `HOSTILE_SEED=<seed>` re-seeds
//! the sweep:
//! `HOSTILE_SEED=<seed> cargo test -p experiments --test hostile_input`.

use experiments::checkpoint::{Checkpoint, CkptKey};
use experiments::shrink::{self, Oracle, Repro};
use experiments::Scale;
use fleet::{FleetChaosPlan, FleetTrace};
use hostsim::FaultPlan;
use simcore::json::Json;
use simcore::{propcheck, SimRng};
use workloads::AttackPlan;

const CASES: usize = 1024;

const EXAMPLE_TRACES: [&str; 5] = [
    include_str!("../../../examples/sap_day.trace.jsonl"),
    include_str!("../../../examples/sap_drain.trace.jsonl"),
    include_str!("../../../examples/sap_flash.trace.jsonl"),
    include_str!("../../../examples/sap_storm.trace.jsonl"),
    include_str!("../../../examples/sap_storm_chaos.trace.jsonl"),
];

fn base_seed() -> u64 {
    std::env::var("HOSTILE_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x5EED_B17E)
}

/// Bytes a JSON decoder branches on, so insertions reach past the first
/// syntax check more often than uniform random bytes would.
const SALIENT: &[u8] = b"[]{}\",:\\-.0123456789eEtfnu \n";

/// Numbers that sizes, counts and times read from input must survive.
const EXTREMES: [&str; 5] = ["0", "-1", "4294967296", "18446744073709551615", "1e308"];

/// Applies one to four random byte mutations.
fn mutate(rng: &mut SimRng, input: &[u8]) -> Vec<u8> {
    let mut b = input.to_vec();
    for _ in 0..1 + rng.index(4) {
        let len = b.len();
        match rng.index(6) {
            0 if len > 0 => {
                let i = rng.index(len);
                b[i] ^= 1 << rng.index(8);
            }
            1 if len > 0 => {
                let i = rng.index(len);
                let n = (1 + rng.index(8)).min(len - i);
                b.drain(i..i + n);
            }
            2 => {
                let byte = if rng.chance(0.5) {
                    SALIENT[rng.index(SALIENT.len())]
                } else {
                    rng.index(256) as u8
                };
                b.insert(rng.index(len + 1), byte);
            }
            3 => b.truncate(rng.index(len + 1)),
            4 if len > 0 => {
                let i = rng.index(len);
                let n = (1 + rng.index(32)).min(len - i);
                let chunk = b[i..i + n].to_vec();
                let at = rng.index(len + 1);
                b.splice(at..at, chunk);
            }
            5 if len > 0 => {
                // Swap the next run of digits for an extreme number.
                let from = rng.index(len);
                if let Some(i) = (from..len).find(|&i| b[i].is_ascii_digit()) {
                    let end = (i..len).find(|&j| !b[j].is_ascii_digit()).unwrap_or(len);
                    b.splice(i..end, EXTREMES[rng.index(EXTREMES.len())].bytes());
                }
            }
            _ => {}
        }
    }
    b
}

/// Mutates `input` and hands the decoder the text a file read would
/// (invalid UTF-8 replaced, as `read_to_string` callers never see it).
fn sweep(inputs: &[String], decode: impl Fn(&str)) {
    propcheck::forall(base_seed(), CASES, |rng| {
        let input = &inputs[rng.index(inputs.len())];
        let bytes = mutate(rng, input.as_bytes());
        decode(&String::from_utf8_lossy(&bytes));
    });
}

fn plans<P: Repro>() -> Vec<String> {
    (0..4)
        .map(|s| P::for_seed(s, Scale::Smoke).to_json())
        .collect()
}

/// A repro-file envelope per plan kind, as `suite --shrink` writes them.
fn repro_files() -> Vec<String> {
    fn envelope<P: Repro>(plan: &P) -> String {
        Json::obj([
            ("kind", P::KIND.into()),
            ("seed", Json::Uint(7)),
            ("law", "synthetic-canary".into()),
            ("plan", Json::parse(&plan.to_json()).unwrap()),
        ])
        .render()
    }
    vec![
        envelope(&FaultPlan::for_seed(1, Scale::Smoke)),
        envelope(&FleetChaosPlan::for_seed(1, Scale::Smoke)),
        envelope(&AttackPlan::for_seed(1, Scale::Smoke)),
    ]
}

#[test]
fn json_parse_never_panics() {
    let mut inputs = plans::<FaultPlan>();
    inputs.extend(plans::<AttackPlan>());
    inputs.extend(repro_files());
    inputs.extend(
        EXAMPLE_TRACES
            .iter()
            .flat_map(|t| t.lines().take(3).map(str::to_string)),
    );
    sweep(&inputs, |text| {
        let _ = Json::parse(text);
    });
}

#[test]
fn plan_decoders_never_panic() {
    sweep(&plans::<FaultPlan>(), |text| {
        let _ = FaultPlan::from_json(text);
    });
    sweep(&plans::<AttackPlan>(), |text| {
        let _ = AttackPlan::from_json(text);
    });
    sweep(&plans::<FleetChaosPlan>(), |text| {
        let _ = FleetChaosPlan::from_json(text);
    });
}

#[test]
fn repro_replay_never_panics() {
    sweep(&repro_files(), |text| {
        let _ = shrink::replay(text, Oracle::Synthetic);
    });
}

#[test]
fn fleet_trace_decode_never_panics() {
    let traces: Vec<String> = EXAMPLE_TRACES.iter().map(|t| t.to_string()).collect();
    sweep(&traces, |text| {
        let _ = FleetTrace::decode(text);
    });
}

#[test]
fn checkpoint_resume_never_panics() {
    let dir = std::env::temp_dir().join(format!("vsched_hostile_ckpt_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let key = CkptKey {
        version: "test-v1".into(),
        seed: 42,
        scale: "smoke".into(),
        filter: "fig03,fig11".into(),
    };
    let mut ck = Checkpoint::create(&dir, key.clone()).unwrap();
    ck.record("fig03", "fig03 output\n").unwrap();
    ck.record("fig11", "fig11 output\n").unwrap();
    let manifest_path = dir.join("MANIFEST.json");
    let manifest = std::fs::read(&manifest_path).unwrap();
    propcheck::forall(base_seed(), CASES, |rng| {
        // Raw bytes: the manifest reaches `resume` through the file system.
        std::fs::write(&manifest_path, mutate(rng, &manifest)).unwrap();
        let (resumed, _note) = Checkpoint::resume(&dir, key.clone()).unwrap();
        for job in resumed.replayable() {
            let _ = resumed.load(&job);
        }
    });
    let _ = std::fs::remove_dir_all(&dir);
}
