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

echo "==> malformed trace input exits with code 4, naming the bad byte"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
printf '{"truncated' > "$tmp/bad.json"
# An op object with a second entry, which must not be dropped silently.
printf '%s' '{"ops":[{"Read":{"t":0,"x":1},"Write":{"t":0,"x":1}}],' \
    '"names":{"threads":{},"vars":{},"locks":{},"labels":{}}}' > "$tmp/two-entries.json"
# The corpus Figure 1 trace with its first op tag (byte 28) set to 0xEE.
cp tests/corpus/figure1_rmw_violation.trace.vbt "$tmp/bad-tag.vbt"
printf '\xee' | dd of="$tmp/bad-tag.vbt" bs=1 seek=28 conv=notrunc status=none
for case in "bad.json:byte 11" "two-entries.json:byte 30" "bad-tag.vbt:byte 28"; do
    file="$tmp/${case%%:*}"
    want="$file: ${case#*:}: "
    set +e
    cargo run --release -q -p velodrome-cli -- trace "$file" >/dev/null 2>"$tmp/err"
    code=$?
    set -e
    if [[ "$code" -ne 4 ]] || ! grep -qF "$want" "$tmp/err"; then
        echo "expected exit code 4 and \`$want\` for malformed input, got $code:" >&2
        cat "$tmp/err" >&2
        exit 1
    fi
done

echo "==> metrics smoke (fixed-seed workload, JSONL snapshot contract)"
cargo run --release -q -p velodrome-cli -- check multiset --seed=1 --scale=4 \
    --metrics-out="$tmp/metrics.jsonl" --metrics-interval=200 >/dev/null
phases=phase.advance,phase.add_edge,phase.cycle_check,phase.gc
cargo run --release -q -p velodrome-cli -- metrics-verify "$tmp/metrics.jsonl" \
    --require="$phases,phase.scheduler_step,phase.decode" >/dev/null
for name in arena.allocated arena.cur_alive arena.exhausted arena.ts_overflow \
            engine.ops engine.degradations engine.ladder watchdog.pauses_issued; do
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
# Workers finish in any order, but each line is written in input order:
# the parallel report equals the one-worker report apart from timings.
cargo run --release -q -p velodrome-cli -- check-batch "$tmp/batch" --jobs=1 \
    --backend=velodrome --report="$tmp/report-jobs1.jsonl" >/dev/null
strip_timings='s/"(millis|decode_ms|analyze_ms|wall_millis|events_per_sec|jobs)":[0-9]+,?//g'
sed -E "$strip_timings" "$tmp/batch/report.jsonl" > "$tmp/report-jobs4.stripped"
sed -E "$strip_timings" "$tmp/report-jobs1.jsonl" > "$tmp/report-jobs1.stripped"
if ! cmp -s "$tmp/report-jobs4.stripped" "$tmp/report-jobs1.stripped"; then
    echo "batch smoke: the --jobs=4 report differs from the --jobs=1 report beyond timings" >&2
    diff "$tmp/report-jobs4.stripped" "$tmp/report-jobs1.stripped" | head -20 >&2
    exit 1
fi
# The same on the conformance corpus: directory mode skips its
# `*.expect.json` oracle files, and its violating traces carry DOT graphs
# in `details`, so the lines hold quotes, newlines and nested text.
corpus_traces="$(find tests/corpus -maxdepth 1 \( -name '*.json' -o -name '*.vbt' \) \
    ! -name '*.expect.json' | wc -l)"
for jobs in 1 4; do
    cargo run --release -q -p velodrome-cli -- check-batch tests/corpus --jobs="$jobs" \
        --backend=velodrome --report="$tmp/corpus-jobs$jobs.jsonl" >/dev/null
    sed -E "$strip_timings" "$tmp/corpus-jobs$jobs.jsonl" > "$tmp/corpus-jobs$jobs.stripped"
done
if [[ "$(wc -l < "$tmp/corpus-jobs1.jsonl")" -ne $((corpus_traces + 1)) ]] \
    || grep -q '"status":"error"' "$tmp/corpus-jobs1.jsonl" \
    || ! grep -q '"details":"digraph' "$tmp/corpus-jobs1.jsonl"; then
    echo "batch smoke: expected $corpus_traces ok corpus lines + summary, with DOT details" >&2
    head -c 2000 "$tmp/corpus-jobs1.jsonl" >&2
    exit 1
fi
if ! cmp -s "$tmp/corpus-jobs4.stripped" "$tmp/corpus-jobs1.stripped"; then
    echo "batch smoke: on tests/corpus the --jobs=4 report differs from --jobs=1 beyond timings" >&2
    diff "$tmp/corpus-jobs4.stripped" "$tmp/corpus-jobs1.stripped" | head -20 >&2
    exit 1
fi

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
# Ids of 2 to 5 varint bytes (≥ 128, ≥ 2^14, ≥ 2^21, ≥ 2^28), the worker
# thread's among them. Ids are arbitrary u32s, not indices: the checker
# maps each distinct id to a row when first seen, so its memory follows
# the number of threads, not the largest id, and the trace checks within
# 1 GiB. The JSON is canonical, so the VBT → JSON convert must give back
# its bytes.
printf '{"ops":[%s],"names":{%s}}' \
    '{"Fork":{"t":130,"child":300000000}},{"Begin":{"t":130,"l":128}},{"Read":{"t":130,"x":129}},{"Write":{"t":300000000,"x":129}},{"Write":{"t":130,"x":129}},{"End":{"t":130}},{"Begin":{"t":300000000,"l":16384}},{"Acquire":{"t":300000000,"m":70000}},{"Write":{"t":300000000,"x":16500}},{"Release":{"t":300000000,"m":70000}},{"End":{"t":300000000}},{"Begin":{"t":130,"l":268435456}},{"Read":{"t":130,"x":268435500}},{"Write":{"t":130,"x":3000000}},{"End":{"t":130}},{"Join":{"t":130,"child":300000000}}' \
    '"threads":{"130":"main","300000000":"worker"},"vars":{"129":"x","16500":"y","268435500":"z","3000000":"w"},"locks":{"70000":"lock"},"labels":{"128":"inc","16384":"put","268435456":"far"}' \
    > "$tmp/wide.json"
cargo run --release -q -p velodrome-cli -- convert "$tmp/wide.json" "$tmp/wide.vbt" >/dev/null
cargo run --release -q -p velodrome-cli -- convert "$tmp/wide.vbt" "$tmp/wide-back.json" >/dev/null
if ! cmp -s "$tmp/wide.json" "$tmp/wide-back.json"; then
    echo "wide-id smoke: convert wide.vbt wide-back.json differs from wide.json" >&2
    exit 1
fi
for flag in "" --json; do
    for ext in json vbt; do
        if ! (ulimit -v 1048576 && target/release/velodrome trace "$tmp/wide.$ext" $flag) \
            > "$tmp/wide-$ext.out" 2>&1; then
            echo "wide-id smoke: trace wide.$ext ${flag:-(plain)} failed within 1 GiB" >&2
            cat "$tmp/wide-$ext.out" >&2
            exit 1
        fi
    done
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
# The vector-clock backends store one entry per thread a clock has heard
# of, not one per id up to the largest, so they fit in 1 GiB too.
for backend in fasttrack hb-race all; do
    if ! (ulimit -v 1048576 && target/release/velodrome trace "$tmp/wide.json" \
        --backend="$backend") > "$tmp/wide-$backend.out" 2>&1; then
        echo "wide-id smoke: trace wide.json --backend=$backend failed within 1 GiB" >&2
        cat "$tmp/wide-$backend.out" >&2
        exit 1
    fi
    if ! grep -q "race warning at op 3" "$tmp/wide-$backend.out"; then
        echo "wide-id smoke: --backend=$backend missed the race on x" >&2
        cat "$tmp/wide-$backend.out" >&2
        exit 1
    fi
done

echo "==> a long transaction holding 100,000 short ones alive checks within 1 GiB"
# T0 writes x inside one block while T1 runs 100,000 short blocks reading
# it; every reader stays alive until T0 ends. Memory must stay linear in
# the alive nodes (the per-node ancestor sets this replaced took ~3.5 GiB
# at 60,000), and more than 65,535 nodes must fit in the arena (a 16-bit
# slot index degraded here).
awk 'BEGIN {
    printf "{\"ops\":[{\"Begin\":{\"t\":0,\"l\":0}},{\"Write\":{\"t\":0,\"x\":0}}"
    for (i = 0; i < 100000; i++)
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
# check-batch analyzes under the same flags as trace: with a 10,000-node
# budget both step the engine down its degradation ladder to one rung.
mkdir "$tmp/longtxn"
mv "$tmp/longtxn.json" "$tmp/longtxn/"
target/release/velodrome trace "$tmp/longtxn/longtxn.json" --max-alive=10000 \
    --metrics-out="$tmp/longtxn-trace.jsonl" >/dev/null
target/release/velodrome check-batch "$tmp/longtxn" --jobs=2 --max-alive=10000 \
    --report="$tmp/longtxn-report.jsonl" --metrics-out="$tmp/longtxn-batch.jsonl" >/dev/null
ladder() {
    tail -n 1 "$1" | sed -nE 's/.*"engine\.ladder":\{"type":"gauge","value":([0-9]+)\}.*/\1/p'
}
want="$(ladder "$tmp/longtxn-trace.jsonl")"
got="$(ladder "$tmp/longtxn-batch.jsonl")"
if [[ -z "$want" || "$want" -eq 0 || "$got" != "$want" ]]; then
    echo "long-transaction smoke: --max-alive=10000 gives engine.ladder '$want' under" \
        "trace but '$got' under check-batch (want equal and above 0)" >&2
    exit 1
fi
rm -r "$tmp/longtxn"

echo "==> 400,000 forked and joined threads check within 10 s and 64 MiB"
# T0 forks child i; the child runs one block that reads and writes x; T0
# joins it before the next fork. At most two threads are alive at once, so
# memory must follow them, not every thread ever joined (a row kept per
# joined thread ran out of memory here at about 50,000 children).
awk 'BEGIN {
    n = 400000
    printf "{\"ops\":["
    for (i = 1; i <= n; i++)
        printf "%s{\"Fork\":{\"t\":0,\"child\":%d}},{\"Begin\":{\"t\":%d,\"l\":0}},{\"Read\":{\"t\":%d,\"x\":0}},{\"Write\":{\"t\":%d,\"x\":0}},{\"End\":{\"t\":%d}},{\"Join\":{\"t\":0,\"child\":%d}}", (i > 1 ? "," : ""), i, i, i, i, i, i
    printf "],\"names\":{\"threads\":{\"0\":\"main\"},\"vars\":{\"0\":\"x\"},\"locks\":{},\"labels\":{\"0\":\"work\"}}}"
}' > "$tmp/churn.json"
set +e
(ulimit -v 65536 && timeout 10 target/release/velodrome trace "$tmp/churn.json") \
    >"$tmp/churn.out" 2>&1
code=$?
set -e
if [[ "$code" -ne 0 ]] || ! grep -q "no warnings" "$tmp/churn.out"; then
    echo "thread-churn smoke: trace exited $code within 64 MiB and 10 s, want 0 and no warnings" >&2
    tail -c 2000 "$tmp/churn.out" >&2
    exit 1
fi
rm "$tmp/churn.json" "$tmp/churn.out"

echo "==> a cycle through 60,001 nodes is reported within 5 s and 1 GiB"
# T0 opens a block and writes x; T1 runs 60,000 short blocks, the first
# reading x and the last writing z, so each stays alive behind the one
# before; then T0 reads z, closing one cycle through every block. Cycle
# reconstruction must be linear in the path (a search that copied the
# path on every step took about 38 s here).
awk 'BEGIN {
    n = 60000
    printf "{\"ops\":[{\"Begin\":{\"t\":0,\"l\":0}},{\"Write\":{\"t\":0,\"x\":0}}"
    for (i = 0; i < n; i++) {
        printf ",{\"Begin\":{\"t\":1,\"l\":1}}"
        if (i == 0) printf ",{\"Read\":{\"t\":1,\"x\":0}}"
        if (i == n - 1) printf ",{\"Write\":{\"t\":1,\"x\":1}}"
        printf ",{\"End\":{\"t\":1}}"
    }
    printf ",{\"Read\":{\"t\":0,\"x\":1}},{\"End\":{\"t\":0}}],\"names\":{\"threads\":{\"0\":\"T0\",\"1\":\"T1\"},"
    printf "\"vars\":{\"0\":\"x\",\"1\":\"z\"},\"locks\":{},\"labels\":{\"0\":\"long\",\"1\":\"short\"}}}"
}' > "$tmp/deep.json"
if ! (ulimit -v 1048576 && timeout 5 target/release/velodrome trace "$tmp/deep.json") \
    >"$tmp/deep.out" 2>&1; then
    echo "deep-chain smoke: trace failed within 1 GiB and 5 s" >&2
    tail -c 2000 "$tmp/deep.out" >&2
    exit 1
fi
if [[ "$(grep -c '^\[velodrome\] atomicity warning' "$tmp/deep.out")" -ne 1 ]] \
    || ! grep -q "long is not atomic" "$tmp/deep.out"; then
    echo "deep-chain smoke: expected exactly one warning, on long" >&2
    tail -c 2000 "$tmp/deep.out" >&2
    exit 1
fi
rm "$tmp/deep.json" "$tmp/deep.out"

echo "==> 500,000 labels listed in string order check within 5 s and 1 GiB"
# One block per label on one thread, and a `labels` map whose keys come in
# string order ("10" before "2"), as the JSON writer lists them: the
# readers must take names in any order at O(n log n), not one sorted
# insert per key (about 12 s here).
{
    awk 'BEGIN {
        printf "{\"ops\":["
        for (i = 0; i < 500000; i++)
            printf "%s{\"Begin\":{\"t\":0,\"l\":%d}},{\"End\":{\"t\":0}}", (i ? "," : ""), i
        printf "],\"names\":{\"threads\":{},\"vars\":{},\"locks\":{},\"labels\":{"
    }'
    seq 0 499999 | LC_ALL=C sort | awk '{ printf "%s\"%s\":\"method_%s\"", (NR > 1 ? "," : ""), $1, $1 }'
    printf '}}}'
} > "$tmp/labels.json"
target/release/velodrome convert "$tmp/labels.json" "$tmp/labels.vbt" >/dev/null
for ext in json vbt; do
    if ! (ulimit -v 1048576 && timeout 5 target/release/velodrome trace "$tmp/labels.$ext") \
        >"$tmp/labels.out" 2>&1; then
        echo "label smoke: trace labels.$ext failed within 1 GiB and 5 s" >&2
        cat "$tmp/labels.out" >&2
        exit 1
    fi
    if ! grep -q "no warnings" "$tmp/labels.out"; then
        echo "label smoke: expected labels.$ext to be serializable" >&2
        cat "$tmp/labels.out" >&2
        exit 1
    fi
done
rm "$tmp/labels.json" "$tmp/labels.vbt"

echo "==> 400,000 repeats of one violation check within 128 MiB"
# Each round is Figure 1's non-atomic read-modify-write, so each closes a
# cycle while at most two transactions are alive. Dedup emits one warning,
# and the engine keeps a cycle report only for a warning, so memory must
# not grow with the cycles (one report per cycle took ~130 MiB here).
awk 'BEGIN {
    printf "{\"ops\":["
    for (i = 0; i < 400000; i++)
        printf "%s{\"Begin\":{\"t\":0,\"l\":0}},{\"Read\":{\"t\":0,\"x\":0}},{\"Write\":{\"t\":1,\"x\":0}},{\"Write\":{\"t\":0,\"x\":0}},{\"End\":{\"t\":0}}", (i ? "," : "")
    printf "],\"names\":{\"threads\":{\"0\":\"T0\",\"1\":\"T1\"},"
    printf "\"vars\":{\"0\":\"x\"},\"locks\":{},\"labels\":{\"0\":\"inc\"}}}"
}' > "$tmp/rmw.json"
for backend in velodrome all; do
    if ! (ulimit -v 131072 && timeout 30 target/release/velodrome trace "$tmp/rmw.json" \
        --backend="$backend") > "$tmp/rmw.out" 2>&1; then
        echo "repeated-violation smoke: --backend=$backend failed within 128 MiB and 30 s" >&2
        cat "$tmp/rmw.out" >&2
        exit 1
    fi
    if [[ "$(grep -c '^\[velodrome\] atomicity warning' "$tmp/rmw.out")" -ne 1 ]] \
        || ! grep -q "inc is not atomic" "$tmp/rmw.out"; then
        echo "repeated-violation smoke: --backend=$backend expected one warning on inc" >&2
        cat "$tmp/rmw.out" >&2
        exit 1
    fi
done
rm "$tmp/rmw.json"

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

echo "==> the retired backends are usage errors (exit code 2)"
for retired in velodrome-hybrid velodrome-nomerge; do
    set +e
    cargo run --release -q -p velodrome-cli -- check multiset --backend="$retired" \
        >/dev/null 2>"$tmp/err"
    code=$?
    set -e
    if [[ "$code" -ne 2 ]]; then
        echo "expected exit code 2 for --backend=$retired, got $code" >&2
        cat "$tmp/err" >&2
        exit 1
    fi
done

echo "==> cross-backend differential suite + conformance corpus (fixed seeds)"
cargo test -q -p velodrome-integration --test atomicity_differential >/dev/null
cargo test -q -p velodrome-integration --test corpus_conformance >/dev/null

echo "==> CI gate passed"
