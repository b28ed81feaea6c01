#!/usr/bin/env bash
# Local CI gate: formatting, lints (warnings are errors, including
# missing docs on public items), and the full test suite.
#
# Usage: scripts/ci-gate.sh [--with-bench]
#   --with-bench  also run the hotpath and batch benchmark binaries, which
#                 assert output identity (and the >=30% edge-reduction
#                 floor), rewriting BENCH_hotpath.json and BENCH_batch.json.
set -euo pipefail
cd "$(dirname "$0")/.."

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

echo "==> chaos smoke (fixed-seed fault-plan set, asserts the contract)"
cargo run --release -p velodrome-bench --bin chaos >/dev/null

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
cargo run --release -q -p velodrome-cli -- metrics-verify "$tmp/metrics.jsonl" >/dev/null
for name in arena.allocated arena.cur_alive engine.ops engine.ladder watchdog.pauses_issued; do
    if ! grep -q "\"$name\"" "$tmp/metrics.jsonl"; then
        echo "metrics smoke: required metric $name missing from snapshots" >&2
        exit 1
    fi
done

echo "==> hybrid metrics smoke (screen gauges present alongside the base contract)"
cargo run --release -q -p velodrome-cli -- check multiset --seed=1 --scale=4 \
    --backend=velodrome-hybrid \
    --metrics-out="$tmp/hybrid.jsonl" --metrics-interval=200 >/dev/null
cargo run --release -q -p velodrome-cli -- metrics-verify "$tmp/hybrid.jsonl" \
    --require=aerodrome.joins,aerodrome.epoch_hits,hybrid.escalations,hybrid.graph_ops \
    >/dev/null
for name in aerodrome.joins hybrid.escalations; do
    if ! grep -q "\"$name\"" "$tmp/hybrid.jsonl"; then
        echo "hybrid metrics smoke: required metric $name missing from snapshots" >&2
        exit 1
    fi
done

echo "==> batch smoke (fixed-seed corpus, JSONL schema + batch.* gauges)"
mkdir -p "$tmp/batch"
cargo run --release -q -p velodrome-cli -- record multiset --seed=1 --scale=2 \
    --out="$tmp/batch/a.json" >/dev/null
cargo run --release -q -p velodrome-cli -- record multiset --seed=2 --scale=2 \
    --out="$tmp/batch/b.json" >/dev/null
cargo run --release -q -p velodrome-cli -- convert "$tmp/batch/a.json" "$tmp/batch/a.vbt" >/dev/null
cargo run --release -q -p velodrome-cli -- check-batch "$tmp/batch" --jobs=4 \
    --backend=velodrome-hybrid --report="$tmp/batch/report.jsonl" \
    --metrics-out="$tmp/batch/metrics.jsonl" >/dev/null
if [[ "$(wc -l < "$tmp/batch/report.jsonl")" -ne 4 ]]; then
    echo "batch smoke: expected 4 JSONL lines (3 traces + summary)" >&2
    cat "$tmp/batch/report.jsonl" >&2
    exit 1
fi
for field in '"path"' '"status":"ok"' '"warnings"' '"summary"' '"events_per_sec"'; do
    if ! grep -q "$field" "$tmp/batch/report.jsonl"; then
        echo "batch smoke: JSONL report is missing $field" >&2
        cat "$tmp/batch/report.jsonl" >&2
        exit 1
    fi
done
cargo run --release -q -p velodrome-cli -- metrics-verify "$tmp/batch/metrics.jsonl" \
    --require=batch.traces_checked,batch.traces_failed,batch.traces_quarantined,batch.events_total,batch.events_per_sec,batch.warnings_total,batch.jobs \
    >/dev/null

echo "==> cross-backend differential suite + conformance corpus (fixed seeds)"
cargo test -q -p velodrome-integration --test atomicity_differential >/dev/null
cargo test -q -p velodrome-integration --test corpus_conformance >/dev/null

echo "==> BENCH_hotpath.json carries the documented fields"
if [[ -f BENCH_hotpath.json ]]; then
    for field in events millis ops_per_sec edges_added edges_elided epoch_hits \
                 warnings cycles_detected edges_added_reduction_pct outputs_identical \
                 graph_ops graph_ops_velodrome graph_ops_hybrid graph_ops_reduction_pct \
                 hybrid_escalations hybrid_outputs_identical screen_epoch_hits; do
        if ! grep -q "\"$field\"" BENCH_hotpath.json; then
            echo "BENCH_hotpath.json is missing documented field: $field" >&2
            exit 1
        fi
    done
else
    echo "    (no BENCH_hotpath.json checked in; run with --with-bench to generate)"
fi

echo "==> BENCH_batch.json carries the documented fields"
if [[ -f BENCH_batch.json ]]; then
    for field in corpus_traces corpus_events seed jobs backend json_bytes vbt_bytes \
                 json_serial_millis json_serial_events_per_sec vbt_parallel_millis \
                 vbt_parallel_events_per_sec speedup outputs_identical; do
        if ! grep -q "\"$field\"" BENCH_batch.json; then
            echo "BENCH_batch.json is missing documented field: $field" >&2
            exit 1
        fi
    done
    if ! grep -q '"outputs_identical": true' BENCH_batch.json; then
        echo "BENCH_batch.json: parallel and serial outputs were not identical" >&2
        exit 1
    fi
else
    echo "    (no BENCH_batch.json checked in; run with --with-bench to generate)"
fi

if [[ "${1:-}" == "--with-bench" ]]; then
    echo "==> hotpath benchmark (asserts output identity + elision floor)"
    cargo run --release -p velodrome-bench --bin hotpath >/dev/null
    echo "==> batch benchmark (asserts output identity, rewrites BENCH_batch.json)"
    cargo run --release -p velodrome-bench --bin batch >/dev/null
fi

echo "==> CI gate passed"
