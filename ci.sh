#!/usr/bin/env bash
# Offline CI gate: formatting, lints, and the tier-1 build+test cycle.
# Everything runs with --offline; the workspace has no external
# dependencies, so no network access is ever required.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> tier-1: build + test"
cargo build --offline --release
cargo test --offline -q

echo "==> rustdoc (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps

echo "==> certification smoke (reproduce --check, fast subset)"
cargo run --offline --release -p rtise-bench --bin reproduce -- --check fig3_2 tab5_1 fig4_1

echo "==> full reproduce --check on 4 workers (cold cache, virtual-clock trace)"
CACHE_DIR=target/ci-curve-cache
rm -rf "$CACHE_DIR"
mkdir -p target/artifacts
cargo run --offline --release -p rtise-bench --bin reproduce -- \
  --check --jobs 4 --cache-dir "$CACHE_DIR" --json target/artifacts/reproduce-cold.json \
  --trace-out target/artifacts/reproduce.trace.json --trace-clock virtual
# reproduce schema-checks the trace before writing it; here we additionally
# prove the artifact parses back, that every experiment got its own track
# (a cold run adds curve/problem generation tracks on top of the 22), and
# that every branch-and-bound solver left prune-reason events.
cargo run --offline --release -p rtise-trace --bin trace -- \
  summary target/artifacts/reproduce.trace.json > /dev/null
TRACKS=$(grep -c 'thread_name' target/artifacts/reproduce.trace.json)
if [ "$TRACKS" -lt 22 ]; then
  echo "FAIL: trace has $TRACKS tracks, expected at least the 22 experiments"
  exit 1
fi
for EV in ilp.prune ise.bnb.prune select.rms.prune; do
  if ! grep -q "$EV" target/artifacts/reproduce.trace.json; then
    echo "FAIL: no $EV events in the trace"
    exit 1
  fi
done
echo "    trace parses; $TRACKS tracks; all B&B solvers left prune events"

# Certificate gate: the certified run must have replayed branch-and-bound
# optimality certificates for all three solver families. The counters
# appear in the JSON only when a certifier replayed a log, and any replay
# failure already failed the run above — so presence == proven optimal.
for KEY in check.certb.ilp check.certb.ise check.certb.rms; do
  if ! grep -q "\"$KEY\"" target/artifacts/reproduce-cold.json; then
    echo "FAIL: no $KEY certificate replays in the certified reproduce run"
    exit 1
  fi
done
echo "    ILP/ISE/RMS searches certified optimal by certificate replay"

echo "==> warm-cache second pass (must hit the curve cache)"
cargo run --offline --release -p rtise-bench --bin reproduce -- \
  --check --jobs 4 --cache-dir "$CACHE_DIR" --json target/artifacts/reproduce-warm.json
# Every artifact the cold pass stored is read back exactly once (the
# in-process memo answers repeats) and none is regenerated.
python3 - target/artifacts/reproduce-cold.json target/artifacts/reproduce-warm.json <<'PY'
import json, sys
cold, warm = (json.load(open(path))["cache"] for path in sys.argv[1:3])
if warm["misses"] != 0:
    sys.exit(f"FAIL: warm pass recomputed {warm['misses']} artifacts (cache misses > 0)")
if cold["stores"] == 0 or warm["hits"] != cold["stores"]:
    sys.exit(f"FAIL: warm pass read {warm['hits']} entries, cold pass stored {cold['stores']}")
print(f"    warm pass read all {warm['hits']} stored artifacts once, recomputed none")
PY
# target/artifacts/ is the CI artifact directory: both JSON reports are
# uploaded by the pipeline for offline inspection.

echo "==> --json determinism: tracing on vs off must not change the report"
# The cold pass traced, the warm pass did not; canonicalization strips the
# wall-clock and cache-traffic fields, so this cmp also covers cold vs warm
# cache replay. The five running-time-table experiments print measured
# milliseconds into their captured stdout — wall-clock data, stripped like
# wall_ms; their counters/hists/ok fields stay in the comparison.
TIMING_TABLES=tab4_2,fig5_4,fig5_5,tab6_1,tab7_2
cargo run --offline --release -p rtise-trace --bin trace -- \
  canon target/artifacts/reproduce-cold.json --drop-output "$TIMING_TABLES" \
  > target/artifacts/canon-cold.json
cargo run --offline --release -p rtise-trace --bin trace -- \
  canon target/artifacts/reproduce-warm.json --drop-output "$TIMING_TABLES" \
  > target/artifacts/canon-warm.json
if ! cmp -s target/artifacts/canon-cold.json target/artifacts/canon-warm.json; then
  echo "FAIL: canonical reports differ between traced and untraced runs"
  diff target/artifacts/canon-cold.json target/artifacts/canon-warm.json | head -40
  exit 1
fi
echo "    canonical reports are byte-identical"

echo "==> experiment-pool determinism: --jobs 1 must reproduce a --jobs 4 run"
# Two warm, certified, virtual-clock passes that differ only in the number
# of experiment workers. Each experiment's scope follows its work into
# whichever pool worker runs it, so any counter or trace event that
# escaped (or leaked into) an experiment's scope shows up here as a byte
# difference in the canonical report or the trace. Canonicalization keeps
# every counter, including the check.certb.* certificate-replay counters.
cargo run --offline --release -p rtise-bench --bin reproduce -- \
  --check --jobs 4 --cache-dir "$CACHE_DIR" \
  --json target/artifacts/reproduce-jobs4.json \
  --trace-out target/artifacts/reproduce-jobs4.trace.json --trace-clock virtual
cargo run --offline --release -p rtise-bench --bin reproduce -- \
  --check --jobs 1 --cache-dir "$CACHE_DIR" \
  --json target/artifacts/reproduce-jobs1.json \
  --trace-out target/artifacts/reproduce-jobs1.trace.json --trace-clock virtual
for RUN in jobs4 jobs1; do
  cargo run --offline --release -p rtise-trace --bin trace -- \
    canon "target/artifacts/reproduce-$RUN.json" --drop-output "$TIMING_TABLES" \
    > "target/artifacts/canon-$RUN.json"
done
if ! cmp -s target/artifacts/canon-jobs4.json target/artifacts/canon-jobs1.json; then
  echo "FAIL: certified reports differ between --jobs 4 and --jobs 1"
  diff target/artifacts/canon-jobs4.json target/artifacts/canon-jobs1.json | head -40
  exit 1
fi
if ! cmp -s target/artifacts/reproduce-jobs4.trace.json target/artifacts/reproduce-jobs1.trace.json; then
  echo "FAIL: virtual-clock traces differ between --jobs 4 and --jobs 1"
  exit 1
fi
echo "    --jobs 1 and --jobs 4 give byte-identical reports and traces"

echo "==> panic-safety regression gates (lane runner callback, serve computation panic)"
# cargo test above already runs these; naming them here keeps the gates
# from silently disappearing if the suites are reorganised. The grep on
# the pass count makes a renamed (and therefore unmatched) test a failure.
cargo test --offline --release -q -p rtise-obs --lib -- --exact \
  lanes::tests::panicking_on_ready_does_not_poison_the_run \
  | grep -q "1 passed"
cargo test --offline --release -q -p rtise-serve --lib -- --exact \
  server::tests::a_panicking_computation_answers_every_waiter_and_the_server_keeps_serving \
  | grep -q "1 passed"
echo "    lane runner survives panicking callbacks; serve answers every waiter of a panicked request"

echo "==> reconfig equivalence gates (in-place polish, memoized exhaustive search)"
# Each test compares the optimized partitioner with a test-only copy of the
# code it replaced, solution for solution; named here for the same reason
# as the panic-safety gates above.
cargo test --offline --release -q -p rtise-reconfig --lib -- --exact \
  partition::tests::polish_matches_the_reference_on_seeded_instances \
  partition::tests::exhaustive_matches_the_unmemoized_reference \
  | grep -q "2 passed"
echo "    polish and exhaustive search match their references move for move"

echo "==> certificate-replay gate (nine forgery classes over the ILP, ISE and RMS replays)"
# The suite forges verified-clean ILP, ISE and RMS certificates and
# asserts each rejection's code; its table test pins the code and the
# exact rendered message of every check of the shared replay frame.
# Named here for the same reason as the panic-safety gates above: the
# exact pass count makes a renamed or dropped forgery class a failure.
cargo test --offline --release -q -p rtise-check --test bnb_mutations \
  | grep -q "test result: ok. 9 passed"
echo "    every forged certificate is rejected with its pinned diagnostic"

echo "==> enumeration equivalence gate (bitset path at both widths vs the generic walk)"
# The test compares the bitset enumerator with the generic walk, results
# and stats, on every suite block and on seeded DFGs on both sides of each
# width boundary (128 and 1024 nodes); named here for the same
# reason as the panic-safety gates above.
cargo test --offline --release -q -p rtise-fuzz --test differential -- --exact \
  every_enumeration_width_matches_the_generic_reference \
  | grep -q "1 passed"
echo "    bitset enumeration matches the generic walk at 2 and 16 words"

echo "==> fuzz smoke (fixed seed, all families, 4 workers; fails on any diagnostic)"
cargo run --offline --release -p rtise-fuzz --bin fuzz -- \
  --seed 7 --iters 200 --family all --jobs 4 --json target/fuzz-smoke.json \
  --trace-out target/artifacts/fuzz-smoke.trace.json
# The ILP differential oracle must have certified at least one instance
# past the 12-variable exhaustive-search cap purely by certificate replay.
if ! grep -Eq '"solver\.fuzz\.ilp\.cert_replay_large": *[1-9]' target/fuzz-smoke.json; then
  echo "FAIL: fuzz campaign never took the >12-variable certificate-replay ILP path"
  exit 1
fi
echo "    fuzz certified >12-variable ILP instances by certificate replay"

echo "==> bench smoke (same sweep as the committed baseline, fewer samples)"
cargo run --offline --release -p rtise-perf --bin bench -- \
  --smoke --out target/artifacts/bench-smoke.json --baseline BENCH_9.json
# --baseline validates both documents' schemas and fails on any (kernel,
# size) point regressing past 2.5x the committed BENCH_9.json figure;
# BENCH_9 is BENCH_8 without the two retired iterative-generator kernels,
# and BENCH_8 is BENCH_7 without the retired *_par kernels (every remaining
# point is byte-for-byte BENCH_7's).

echo "==> serve smoke (seeded 1000-request loadtest, 4 lanes, cold then warm store)"
# The serve binary certifies every response via rtise-check internally and
# schema-checks the Chrome Trace export before writing it; a nonzero exit
# already fails CI. On top of that we grep the certification line and prove
# the warm pass hits the sharded response store strictly more often.
SERVE_STORE=target/ci-serve-store
rm -rf "$SERVE_STORE"
cargo run --offline --release -p rtise-serve --bin serve -- \
  loadtest --seed 42 --requests 1000 --jobs 4 --clock virtual \
  --cache-dir "$SERVE_STORE" --json target/artifacts/serve-cold.json \
  --trace-out target/artifacts/serve-loadtest.trace.json \
  | tee target/serve-cold.log
if ! grep -q "all 1000 responses certified clean" target/serve-cold.log; then
  echo "FAIL: cold loadtest did not certify every response"
  exit 1
fi
cargo run --offline --release -p rtise-trace --bin trace -- \
  summary target/artifacts/serve-loadtest.trace.json > /dev/null
cargo run --offline --release -p rtise-serve --bin serve -- \
  loadtest --seed 42 --requests 1000 --jobs 4 --clock virtual \
  --cache-dir "$SERVE_STORE" --json target/artifacts/serve-warm.json \
  --min-hit-rate 90 \
  | tee target/serve-warm.log
if ! grep -q "all 1000 responses certified clean" target/serve-warm.log; then
  echo "FAIL: warm loadtest did not certify every response"
  exit 1
fi
COLD_HITS=$(grep -o '"hit_rate_pct": [0-9.]*' target/artifacts/serve-cold.json | head -1 | grep -o '[0-9.]*$')
WARM_HITS=$(grep -o '"hit_rate_pct": [0-9.]*' target/artifacts/serve-warm.json | head -1 | grep -o '[0-9.]*$')
if ! awk -v w="$WARM_HITS" -v c="$COLD_HITS" 'BEGIN { exit !(w > c) }'; then
  echo "FAIL: warm hit rate $WARM_HITS% not strictly above cold $COLD_HITS%"
  exit 1
fi
echo "    warm pass hit rate $WARM_HITS% > cold $COLD_HITS%; store at $SERVE_STORE"

echo "==> benchmark harness self-tests"
# PYTHONDONTWRITEBYTECODE keeps the run from writing __pycache__ into
# e2ebench/.
PYTHONDONTWRITEBYTECODE=1 python3 e2ebench/test_run.py

echo "==> serve TCP smoke (explore benchmark workload, 1000 certified requests)"
# Drives the real `serve --listen` binary over two TCP connections with the
# seeded request stream and certifies every response with check_response.
# A correctness gate, not a timing gate: it fails unless the run reports
# correct with no failed request.
CARGO_TARGET_DIR=target python3 e2ebench/run.py --workload explore --seed 7 --seconds 1 --trace 0 \
  | tee target/e2e-explore.log
if ! tail -n 1 target/e2e-explore.log | python3 -c '
import json, sys
r = json.loads(sys.stdin.read())
sys.exit(0 if r["correct"] and r["failed"] == 0 else 1)'; then
  echo "FAIL: explore TCP smoke was not correct or had failed requests"
  exit 1
fi
echo "    every TCP response certified clean"

echo "==> serve byte-identity gate (seed-42 stream, --stdin --jobs 2 and 1, cold, warm, re-indented, float-rewritten and corrupted store)"
# The memo answers repeats from bytes rendered once and stamped with each
# caller's id; a warm store answers every distinct request from disk. A
# copy of the warm store re-indented by another JSON writer must answer
# from disk too: entry checksums cover compact renders, not file bytes.
# So must a copy with every integer rewritten as a float and no
# whitespace: compact, but not the render, so a load must not serve its
# bytes as they are.
# A cold --jobs 1 pass on a store of its own computes the piped lines one
# at a time, where --jobs 2 computes them two at a time; its output and
# its store must match the --jobs 2 pass's.
# All four passes must write exactly the same 1000 lines, and no pass
# after the first may discard an entry (a recompute would give the same
# bytes and hide the reject).
# A fifth pass runs on a copy of the warm store with entries corrupted:
# some cut short by one byte, some with one digit changed inside their
# `result`, and two whose files are swapped. It must discard exactly
# those entries, once each, write the same 1000 lines, and leave the
# store as the cold pass wrote it.
CARGO_TARGET_DIR=target cargo build --offline --release -q \
  --manifest-path e2ebench/probe/Cargo.toml
target/release/e2eprobe stream --seed 42 --requests 1000 | cut -f3 > target/serve-stream-42.jsonl
STDIN_STORE=target/ci-serve-stdin-store
SERIAL_STORE=target/ci-serve-stdin-store-serial
REINDENTED_STORE=target/ci-serve-stdin-store-reindented
FLOATS_STORE=target/ci-serve-stdin-store-floats
CORRUPT_STORE=target/ci-serve-stdin-store-corrupt
rm -rf "$STDIN_STORE" "$SERIAL_STORE" "$REINDENTED_STORE" "$FLOATS_STORE" "$CORRUPT_STORE"
target/release/serve --stdin --jobs 2 --cache-dir "$STDIN_STORE" \
  < target/serve-stream-42.jsonl > target/serve-stdin-cold.jsonl
target/release/serve --stdin --jobs 1 --cache-dir "$SERIAL_STORE" \
  < target/serve-stream-42.jsonl > target/serve-stdin-serial.jsonl 2> target/serve-stdin-serial.err
if ! diff -r "$STDIN_STORE" "$SERIAL_STORE" > /dev/null; then
  echo "FAIL: the cold --jobs 1 and --jobs 2 passes wrote different stores"
  diff -r "$STDIN_STORE" "$SERIAL_STORE" | head -5
  exit 1
fi
target/release/serve --stdin --jobs 2 --cache-dir "$STDIN_STORE" \
  < target/serve-stream-42.jsonl > target/serve-stdin-warm.jsonl 2> target/serve-stdin-warm.err
cp -r "$STDIN_STORE" "$REINDENTED_STORE"
python3 - "$REINDENTED_STORE" <<'PY'
import json, pathlib, sys
for path in pathlib.Path(sys.argv[1]).rglob("*.json"):
    with open(path) as f:
        doc = json.load(f)
    with open(path, "w") as f:
        json.dump(doc, f, indent=2)
PY
target/release/serve --stdin --jobs 2 --cache-dir "$REINDENTED_STORE" \
  < target/serve-stream-42.jsonl > target/serve-stdin-reindented.jsonl \
  2> target/serve-stdin-reindented.err
cp -r "$STDIN_STORE" "$FLOATS_STORE"
python3 - "$FLOATS_STORE" <<'PY'
import json, pathlib, sys
for path in pathlib.Path(sys.argv[1]).rglob("*.json"):
    with open(path) as f:
        doc = json.load(f, parse_int=float)
    with open(path, "w") as f:
        json.dump(doc, f, separators=(",", ":"))
PY
target/release/serve --stdin --jobs 2 --cache-dir "$FLOATS_STORE" \
  < target/serve-stream-42.jsonl > target/serve-stdin-floats.jsonl \
  2> target/serve-stdin-floats.err
cp -r "$STDIN_STORE" "$CORRUPT_STORE"
CORRUPTED=$(python3 - "$CORRUPT_STORE" <<'PY'
import pathlib, sys
files = sorted(pathlib.Path(sys.argv[1]).rglob("*.json"))[:8]
texts = {path: path.read_text() for path in files}
for path in files[0::3]:  # cut short by one byte
    path.write_text(texts[path][:-1])
for path in files[1::3]:  # one digit changed inside the result
    text = texts[path]
    at = text.index('"result":')
    at = next(i for i in range(at, len(text)) if text[i].isdigit())
    path.write_text(text[:at] + str((int(text[at]) + 1) % 10) + text[at + 1:])
files[2].write_text(texts[files[5]])  # two entries swap files
files[5].write_text(texts[files[2]])
print(len(files))
PY
)
target/release/serve --stdin --jobs 2 --cache-dir "$CORRUPT_STORE" \
  < target/serve-stream-42.jsonl > target/serve-stdin-corrupt.jsonl \
  2> target/serve-stdin-corrupt.err
DISCARDED=$(grep -c discarding target/serve-stdin-corrupt.err || true)
if [ "$DISCARDED" -ne "$CORRUPTED" ]; then
  echo "FAIL: the corrupted-store pass discarded $DISCARDED entries, expected $CORRUPTED"
  exit 1
fi
if ! cmp -s target/serve-stdin-cold.jsonl target/serve-stdin-corrupt.jsonl; then
  echo "FAIL: corrupt --stdin output differs from the cold pass"
  cmp target/serve-stdin-cold.jsonl target/serve-stdin-corrupt.jsonl | head -5
  exit 1
fi
if ! diff -r "$STDIN_STORE" "$CORRUPT_STORE" > /dev/null; then
  echo "FAIL: the corrupted-store pass left a store unlike the cold pass's"
  diff -r "$STDIN_STORE" "$CORRUPT_STORE" | head -5
  exit 1
fi
LINES=$(wc -l < target/serve-stdin-cold.jsonl)
if [ "$LINES" -ne 1000 ]; then
  echo "FAIL: cold --stdin pass wrote $LINES response lines, expected 1000"
  exit 1
fi
for PASS in serial warm reindented floats; do
  if ! cmp -s target/serve-stdin-cold.jsonl "target/serve-stdin-$PASS.jsonl"; then
    echo "FAIL: $PASS --stdin output differs from the cold pass"
    cmp target/serve-stdin-cold.jsonl "target/serve-stdin-$PASS.jsonl" | head -5
    exit 1
  fi
  if grep -q discarding "target/serve-stdin-$PASS.err"; then
    echo "FAIL: the $PASS --stdin pass discarded store entries"
    grep discarding "target/serve-stdin-$PASS.err" | head -5
    exit 1
  fi
done
echo "    cold --jobs 2 and --jobs 1, warm, re-indented- and float-store --stdin passes wrote identical bytes and stores"
echo "    the corrupted-store pass discarded its $CORRUPTED corrupted entries once each and left the cold pass's store"

echo "CI OK"
