#!/usr/bin/env bash
# Offline CI gate: formatting and lints (workspace and benchmark harness),
# rustdoc links, the tier-1 build + test suite, the golden smoke-suite
# output, serial-vs-parallel determinism gates, randomized invariant
# sweeps, shrink/replay and supervision smokes, and the benchmark
# harness's own tests. Everything here must pass without network access,
# and a run leaves the working tree clean.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy (workspace, -D warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== cargo doc (workspace, -D warnings)"
# Broken or private intra-doc links fail here, so renaming an item that a
# doc comment links to cannot go unnoticed.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

# The benchmark harness is its own Cargo workspace, which the
# workspace-level steps above skip.
echo "== cargo fmt --check (perfbench harness)"
cargo fmt --check --manifest-path perfbench/harness/Cargo.toml

echo "== cargo clippy (perfbench harness, -D warnings)"
CARGO_TARGET_DIR=.bench_build cargo clippy --all-targets --offline \
    --manifest-path perfbench/harness/Cargo.toml -- -D warnings

echo "== tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

echo "== golden: smoke suite stdout vs tests/golden/suite_smoke_seed42.txt"
# Pins every job's figure bytes at smoke scale, seed 42. A deliberate
# behaviour change regenerates the file with this command and says why in
# CHANGES.md.
./target/release/suite --scale smoke --seed 42 --no-ckpt 2>/dev/null \
    | diff tests/golden/suite_smoke_seed42.txt -

echo "== golden, serial: the same suite at --jobs 1"
# All 24 jobs on one worker must print the pooled run's bytes.
./target/release/suite --scale smoke --seed 42 --no-ckpt --jobs 1 2>/dev/null \
    | diff tests/golden/suite_smoke_seed42.txt -

echo "== determinism: serial vs parallel byte-identity"
# Every row runs one command serially and in parallel, requires
# byte-identical stdout, and requires each comma-separated marker in the
# serial output. Suite rows run at smoke scale, seed 42: the suite's job
# pool (--jobs 1 vs 4) and, for the fleet jobs, the cluster-stepping pool
# inside each cell (default vs --fleet-threads 4). Day rows replay the
# committed example traces at 1 vs 4 host-stepping workers, with a chaos
# overlay on the drain and storm days.
tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT
suite() { VSCHED_SCALE=smoke ./target/release/suite --seed 42 --no-ckpt "$@" 2>/dev/null; }
day() {
    ./target/release/fleettrace replay "examples/$1.trace.jsonl" \
        --policy probe-aware --mode vsched "${@:2}"
}
gates=(
    "suite --filter fig03 --jobs 1|suite --filter fig03 --jobs 4|"
    "suite --filter chaos --jobs 1|suite --filter chaos --jobs 4|"
    "suite --filter fleet --jobs 1|suite --filter fleet --jobs 4|violations"
    "suite --filter fleet --jobs 1|suite --filter fleet --jobs 1 --fleet-threads 4|"
    "suite --filter fleet-replay --jobs 1|suite --filter fleet-replay --jobs 4|violations"
    "suite --filter fleet-chaos --jobs 1|suite --filter fleet-chaos --jobs 4|stranded"
    "suite --filter fleet-chaos --jobs 1|suite --filter fleet-chaos --jobs 1 --fleet-threads 4|"
    "suite --filter adversary --jobs 1|suite --filter adversary --jobs 4|steal"
    "suite --filter vcache --jobs 1|suite --filter vcache --jobs 4|cache picks,violations"
    "day sap_day --fleet-threads 1|day sap_day --fleet-threads 4|"
    "day sap_drain --chaos-seed 99 --migration handoff --fleet-threads 1|day sap_drain --chaos-seed 99 --migration handoff --fleet-threads 4|chaos seed"
    "day sap_storm_chaos --chaos-seed 7 --migration handoff --fleet-threads 1|day sap_storm_chaos --chaos-seed 7 --migration handoff --fleet-threads 4|chaos seed"
)
for gate in "${gates[@]}"; do
    IFS='|' read -r serial parallel markers <<< "$gate"
    echo "   $serial  vs  $parallel"
    $serial > "$tmpdir/serial.txt"
    $parallel > "$tmpdir/parallel.txt"
    diff "$tmpdir/serial.txt" "$tmpdir/parallel.txt"
    IFS=',' read -ra wanted <<< "$markers"
    for marker in "${wanted[@]}"; do
        grep -q "$marker" "$tmpdir/serial.txt"
    done
done

echo "== randomized seed sweeps"
# Fault-class, migration, attack-archetype and LLC-occupancy invariants,
# and byte-mutated input to every decoder, on a fresh seed each run. The
# seed is printed so a CI failure replays locally with
# <VAR>=<seed> cargo test --release <target>.
sweeps=(
    "CHAOS_SEED|--test chaos invariants"
    "FLEET_CHAOS_SEED|-p vsched-fleet --test fleet_chaos"
    "ADVERSARY_SEED|--test adversary invariants"
    "VCACHE_SEED|-p vsched-hostsim --test llc_propcheck"
    "HOSTILE_SEED|-p experiments --test hostile_input"
)
for sweep in "${sweeps[@]}"; do
    IFS='|' read -r var target <<< "$sweep"
    seed=$(date +%s%N)
    echo "   $var=$seed cargo test --release $target"
    if ! env "$var=$seed" cargo test -q --release $target; then
        echo "sweep FAILED with $var=$seed (replay locally with that env var)" >&2
        exit 1
    fi
done

echo "== fleettrace: validate, corrupt and non-canonical traces"
# Generate a small trace with the CLI and validate it; a corrupted copy
# must be rejected with a nonzero exit and a line-precise error.
./target/release/fleettrace gen --profile sap-diurnal --horizon-secs 2 \
    --out "$tmpdir/day.trace.jsonl" 2>/dev/null
./target/release/fleettrace validate "$tmpdir/day.trace.jsonl" > /dev/null
sed 's/"op":"depart"/"op":"explode"/' "$tmpdir/day.trace.jsonl" \
    > "$tmpdir/corrupt.trace.jsonl"
if ./target/release/fleettrace validate "$tmpdir/corrupt.trace.jsonl" \
    2> "$tmpdir/corrupt_err.txt"; then
    echo "fleettrace validate accepted a corrupted trace" >&2
    exit 1
fi
grep -q "line " "$tmpdir/corrupt_err.txt"
# A trace that *parses* but is not the codec's canonical byte encoding
# (here: one extra space) must fail the round-trip gate, and every
# committed example must pass it.
sed '2s/"op":"arrive"/"op": "arrive"/' "$tmpdir/day.trace.jsonl" \
    > "$tmpdir/noncanon.trace.jsonl"
if ./target/release/fleettrace validate "$tmpdir/noncanon.trace.jsonl" \
    2> "$tmpdir/noncanon_err.txt"; then
    echo "fleettrace validate accepted a non-canonical trace" >&2
    exit 1
fi
grep -q "canonical encoding" "$tmpdir/noncanon_err.txt"
for example in examples/*.trace.jsonl; do
    ./target/release/fleettrace validate "$example" | grep -q "round-trip clean"
done

echo "== shrink/replay round-trip per repro kind (synthetic law)"
# The real checkers pass on healthy code, so CI exercises ddmin and the
# repro-file envelope with each kind's synthetic canary law.
for row in chaos:synthetic-canary fleet-chaos:fleet-synthetic-canary \
    adversary:adversary-synthetic-canary; do
    kind=${row%%:*}
    VSCHED_SHRINK_LAW=synthetic ./target/release/suite --shrink "$kind:3735928559" \
        2> "$tmpdir/shrink_err.txt"
    grep -q "repro written" "$tmpdir/shrink_err.txt"
    VSCHED_SHRINK_LAW=synthetic ./target/release/suite \
        --replay "target/${kind//-/_}_repro_3735928559.json" 2> "$tmpdir/replay_err.txt"
    grep -q "reproduced law '${row#*:}'" "$tmpdir/replay_err.txt"
done

echo "== supervision-smoke: canary isolation, kill/resume"
# 1) Canary: two cells fail on purpose (panic + blown deadline). The suite
#    must exit 0, name both cells in the stderr failure report and the JSON
#    report, and leave the healthy jobs' stdout byte-identical to a clean
#    run.
VSCHED_SCALE=smoke ./target/release/suite --filter fig03 --jobs 2 --seed 42 \
    --no-ckpt > "$tmpdir/clean.txt" 2>/dev/null
VSCHED_CANARY=1 VSCHED_SCALE=smoke ./target/release/suite --filter fig03 --jobs 2 \
    --seed 42 --retries 1 --ckpt-dir "$tmpdir/canary_ckpt" \
    > "$tmpdir/canary.txt" 2> "$tmpdir/canary_err.txt"
diff "$tmpdir/clean.txt" "$tmpdir/canary.txt"
grep -q "canary/panic" "$tmpdir/canary_err.txt"
grep -q "canary/deadline" "$tmpdir/canary_err.txt"
grep -q '"failed_cells":2' "$tmpdir/canary_ckpt/FAILURES.json"
# 2) Crash-safe resume: kill a checkpointing run mid-flight, resume it, and
#    require byte-identity with a clean serial run. (If the run finishes
#    before the kill lands, the resume degenerates to a full replay — the
#    byte-identity requirement is the same.)
VSCHED_SCALE=smoke ./target/release/suite --filter fig03,fig11 --jobs 2 --seed 42 \
    --ckpt-dir "$tmpdir/resume_ckpt" > /dev/null 2>&1 &
suite_pid=$!
sleep 0.3
kill -9 "$suite_pid" 2>/dev/null || true
wait "$suite_pid" 2>/dev/null || true
VSCHED_SCALE=smoke ./target/release/suite --filter fig03,fig11 --jobs 1 --seed 42 \
    --no-ckpt > "$tmpdir/clean2.txt" 2>/dev/null
VSCHED_SCALE=smoke ./target/release/suite --filter fig03,fig11 --jobs 2 --seed 42 \
    --ckpt-dir "$tmpdir/resume_ckpt" --resume > "$tmpdir/resumed.txt" 2>/dev/null
diff "$tmpdir/clean2.txt" "$tmpdir/resumed.txt"

echo "== perfbench harness tests"
# Builds into the directory perfbench/run.py uses, so a crate API change
# that breaks the harness fails here rather than in a benchmark run.
CARGO_TARGET_DIR=.bench_build cargo test -q --release --offline \
    --manifest-path perfbench/harness/Cargo.toml

echo "CI OK"
