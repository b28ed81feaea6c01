#!/usr/bin/env bash
# Local CI gate: formatting, lints (warnings are errors, including
# missing docs on public items), and the full test suite.
#
# Usage: scripts/ci-gate.sh
#   Takes no arguments; any argument is a usage error (exit 2). Wall time
#   and peak heap are measured by perfbench (BENCHMARK.json), not here.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -ne 0 ]]; then
    echo "usage: scripts/ci-gate.sh (takes no arguments)" >&2
    exit 2
fi

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

echo "==> cargo doc --no-deps (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --quiet

echo "==> cargo test"
cargo test -q

echo "==> vendored serde_json unit tests (not a workspace member)"
cargo test -q -p serde_json

echo "==> perfbench tests (benchmark build + engine-independent reference checks)"
cargo test --release --offline -q --manifest-path perfbench/Cargo.toml

echo "==> chaos suite (fault injection against the live runtime)"
cargo test -q -p velodrome-monitor --test chaos

echo "==> malformed trace input exits with code 4"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
printf '{"truncated' > "$tmp/bad.json"
set +e
cargo run --release -q -p velodrome-cli -- trace "$tmp/bad.json" >/dev/null 2>"$tmp/err"
code=$?
set -e
if [[ "$code" -ne 4 ]]; then
    echo "expected exit code 4 for malformed input, got $code" >&2
    cat "$tmp/err" >&2
    exit 1
fi

echo "==> metrics smoke (fixed-seed workload, JSONL snapshot contract)"
cargo run --release -q -p velodrome-cli -- check multiset --seed=1 --scale=4 \
    --metrics-out="$tmp/metrics.jsonl" --metrics-interval=200 >/dev/null
phases=phase.advance,phase.add_edge,phase.cycle_check,phase.gc
cargo run --release -q -p velodrome-cli -- metrics-verify "$tmp/metrics.jsonl" \
    --require="$phases,phase.scheduler_step,phase.decode" >/dev/null
for name in arena.allocated arena.cur_alive engine.ops engine.ladder watchdog.pauses_issued; do
    if ! grep -q "\"$name\"" "$tmp/metrics.jsonl"; then
        echo "metrics smoke: required metric $name missing from snapshots" >&2
        exit 1
    fi
done

echo "==> batch smoke (fixed-seed corpus, JSONL schema + batch.* gauges)"
mkdir -p "$tmp/batch"
cargo run --release -q -p velodrome-cli -- record multiset --seed=1 --scale=4 \
    --out="$tmp/batch/a.json" >/dev/null
cargo run --release -q -p velodrome-cli -- record multiset --seed=2 --scale=2 \
    --out="$tmp/batch/b.json" >/dev/null
cargo run --release -q -p velodrome-cli -- convert "$tmp/batch/a.json" "$tmp/batch/a.vbt" >/dev/null
# Back to JSON (streamed, block by block) outside the batch directory: the
# roundtrip must give back the recorded bytes.
cargo run --release -q -p velodrome-cli -- convert "$tmp/batch/a.vbt" "$tmp/back.json" >/dev/null
if ! cmp -s "$tmp/back.json" "$tmp/batch/a.json"; then
    echo "batch smoke: convert a.vbt back.json differs from a.json" >&2
    exit 1
fi
cargo run --release -q -p velodrome-cli -- check-batch "$tmp/batch" --jobs=4 \
    --backend=velodrome --report="$tmp/batch/report.jsonl" \
    --metrics-out="$tmp/batch/metrics.jsonl" >/dev/null
if [[ "$(wc -l < "$tmp/batch/report.jsonl")" -ne 4 ]]; then
    echo "batch smoke: expected 4 JSONL lines (3 traces + summary)" >&2
    cat "$tmp/batch/report.jsonl" >&2
    exit 1
fi
for field in '"path"' '"status":"ok"' '"decode_ms"' '"analyze_ms"' '"warnings"' '"summary"' \
             '"events_per_sec"'; do
    if ! grep -q "$field" "$tmp/batch/report.jsonl"; then
        echo "batch smoke: JSONL report is missing $field" >&2
        cat "$tmp/batch/report.jsonl" >&2
        exit 1
    fi
done
cargo run --release -q -p velodrome-cli -- metrics-verify "$tmp/batch/metrics.jsonl" \
    --require="batch.traces_checked,batch.traces_failed,batch.traces_quarantined,batch.events_total,batch.events_per_sec,batch.warnings_total,batch.jobs,$phases,phase.decode" \
    >/dev/null

echo "==> a whitespace-perturbed JSON trace prints what the canonical one prints"
# A space after every `,` and `:` takes each op off the canonical-shape
# fast path and onto the general parser. Every string in the file (tags,
# keys, names) must be free of both characters, or sed would change it.
if grep -o '"[^"]*"' "$tmp/batch/a.json" | grep -q '[,:]'; then
    echo "whitespace smoke: a string in a.json contains \`,\` or \`:\`" >&2
    exit 1
fi
sed 's/,/, /g; s/:/: /g' "$tmp/batch/a.json" > "$tmp/spaced.json"
if cmp -s "$tmp/batch/a.json" "$tmp/spaced.json"; then
    echo "whitespace smoke: sed did not change a.json" >&2
    exit 1
fi
cargo run --release -q -p velodrome-cli -- trace "$tmp/batch/a.json" > "$tmp/canonical.out"
cargo run --release -q -p velodrome-cli -- trace "$tmp/spaced.json" > "$tmp/spaced.out"
if ! cmp -s "$tmp/canonical.out" "$tmp/spaced.out"; then
    echo "whitespace smoke: trace output differs for the perturbed file" >&2
    diff "$tmp/canonical.out" "$tmp/spaced.out" | head -20 >&2
    exit 1
fi

echo "==> a VBT trace with multi-byte varint ids prints what its JSON source prints"
# Ids of 2 to 5 varint bytes (≥ 128, ≥ 2^14, ≥ 2^21, ≥ 2^28). Thread ids
# stay below 2^15: the engine keeps a dense per-thread table, so a thread
# id of 2^28 would allocate gigabytes. The JSON is canonical, so the
# VBT → JSON convert must give back its bytes.
printf '{"ops":[%s],"names":{%s}}' \
    '{"Fork":{"t":130,"child":20000}},{"Begin":{"t":130,"l":128}},{"Read":{"t":130,"x":129}},{"Write":{"t":20000,"x":129}},{"Write":{"t":130,"x":129}},{"End":{"t":130}},{"Begin":{"t":20000,"l":16384}},{"Acquire":{"t":20000,"m":70000}},{"Write":{"t":20000,"x":16500}},{"Release":{"t":20000,"m":70000}},{"End":{"t":20000}},{"Begin":{"t":130,"l":268435456}},{"Read":{"t":130,"x":268435500}},{"Write":{"t":130,"x":3000000}},{"End":{"t":130}},{"Join":{"t":130,"child":20000}}' \
    '"threads":{"130":"main","20000":"worker"},"vars":{"129":"x","16500":"y","268435500":"z","3000000":"w"},"locks":{"70000":"lock"},"labels":{"128":"inc","16384":"put","268435456":"far"}' \
    > "$tmp/wide.json"
cargo run --release -q -p velodrome-cli -- convert "$tmp/wide.json" "$tmp/wide.vbt" >/dev/null
cargo run --release -q -p velodrome-cli -- convert "$tmp/wide.vbt" "$tmp/wide-back.json" >/dev/null
if ! cmp -s "$tmp/wide.json" "$tmp/wide-back.json"; then
    echo "wide-id smoke: convert wide.vbt wide-back.json differs from wide.json" >&2
    exit 1
fi
for flag in "" --json; do
    cargo run --release -q -p velodrome-cli -- trace "$tmp/wide.json" $flag > "$tmp/wide-json.out"
    cargo run --release -q -p velodrome-cli -- trace "$tmp/wide.vbt" $flag > "$tmp/wide-vbt.out"
    if ! cmp -s "$tmp/wide-json.out" "$tmp/wide-vbt.out"; then
        echo "wide-id smoke: trace ${flag:-(plain)} output differs for wide.vbt" >&2
        diff "$tmp/wide-json.out" "$tmp/wide-vbt.out" | head -20 >&2
        exit 1
    fi
done
if ! grep -q "inc is not atomic" "$tmp/wide-vbt.out"; then
    echo "wide-id smoke: expected the violation of inc" >&2
    cat "$tmp/wide-vbt.out" >&2
    exit 1
fi

echo "==> a long transaction holding 60,000 short ones alive checks within 1 GiB"
# T0 writes x inside one block while T1 runs 60,000 short blocks reading
# it; every reader stays alive until T0 ends. Memory must stay linear in
# the alive nodes (the per-node ancestor sets this replaced took ~3.5 GiB).
awk 'BEGIN {
    printf "{\"ops\":[{\"Begin\":{\"t\":0,\"l\":0}},{\"Write\":{\"t\":0,\"x\":0}}"
    for (i = 0; i < 60000; i++)
        printf ",{\"Begin\":{\"t\":1,\"l\":1}},{\"Read\":{\"t\":1,\"x\":0}},{\"End\":{\"t\":1}}"
    printf ",{\"End\":{\"t\":0}}],\"names\":{\"threads\":{\"0\":\"T0\",\"1\":\"T1\"},"
    printf "\"vars\":{\"0\":\"x\"},\"locks\":{},\"labels\":{\"0\":\"long\",\"1\":\"short\"}}}"
}' > "$tmp/longtxn.json"
cargo build --release -q -p velodrome-cli
if ! (ulimit -v 1048576 && timeout 30 target/release/velodrome trace "$tmp/longtxn.json") \
    >"$tmp/longtxn.out" 2>&1; then
    echo "long-transaction smoke: trace failed within 1 GiB and 30 s" >&2
    cat "$tmp/longtxn.out" >&2
    exit 1
fi
if ! grep -q "no warnings" "$tmp/longtxn.out"; then
    echo "long-transaction smoke: expected no violation" >&2
    cat "$tmp/longtxn.out" >&2
    exit 1
fi

echo "==> a VBT trace cut after its first frames exits with code 4 and leaves no metrics file"
# a.vbt holds several 4096-op frames; three quarters of its bytes end
# inside a later frame, after the first blocks were already analyzed.
head -c $(( $(wc -c < "$tmp/batch/a.vbt") * 3 / 4 )) "$tmp/batch/a.vbt" > "$tmp/cut.vbt"
set +e
cargo run --release -q -p velodrome-cli -- trace "$tmp/cut.vbt" \
    --metrics-out="$tmp/cut.jsonl" --metrics-interval=1000 >"$tmp/out" 2>"$tmp/err"
code=$?
set -e
if [[ "$code" -ne 4 || -s "$tmp/out" || -e "$tmp/cut.jsonl" ]]; then
    echo "expected exit code 4, no stdout and no metrics file for a cut VBT trace, got $code" >&2
    cat "$tmp/err" >&2
    exit 1
fi

echo "==> check-batch rejects an unknown backend with exit code 2, before checking"
set +e
cargo run --release -q -p velodrome-cli -- check-batch "$tmp/batch" --backend=NOPE \
    --report="$tmp/batch/nope.jsonl" >/dev/null 2>"$tmp/err"
code=$?
set -e
if [[ "$code" -ne 2 || -e "$tmp/batch/nope.jsonl" ]]; then
    echo "expected exit code 2 and no report for an unknown backend, got $code" >&2
    cat "$tmp/err" >&2
    exit 1
fi

echo "==> the retired velodrome-hybrid backend is a usage error (exit code 2)"
set +e
cargo run --release -q -p velodrome-cli -- check multiset --backend=velodrome-hybrid \
    >/dev/null 2>"$tmp/err"
code=$?
set -e
if [[ "$code" -ne 2 ]]; then
    echo "expected exit code 2 for --backend=velodrome-hybrid, got $code" >&2
    cat "$tmp/err" >&2
    exit 1
fi

echo "==> cross-backend differential suite + conformance corpus (fixed seeds)"
cargo test -q -p velodrome-integration --test atomicity_differential >/dev/null
cargo test -q -p velodrome-integration --test corpus_conformance >/dev/null

echo "==> CI gate passed"
