#!/usr/bin/env bash
# Local CI: builds and runs the test suite in the default configuration and
# under ASan/UBSan (BEPI_SANITIZE in CMakeLists.txt). The default
# configuration runs ctest twice, at BEPI_THREADS=1 and at
# BEPI_THREADS=max(4, nproc), so a fork hang or a thread-count-dependent
# result fails here. Build trees live under
# build-ci/ so the developer's build/ directory is left alone. The IO/crash
# fault-injection tests (test_durability, test_checkpoint) run under all
# sanitizer configurations as part of the normal ctest pass.
#
# After a default-configuration build, several smoke tests run against
# the real binaries:
#   * kill-and-resume: preprocessing is SIGKILLed at every checkpoint
#     commit in turn (checkpoint.crash fault site), resumed until it
#     completes, and the resumed model must be byte-identical to a
#     from-scratch run; full checkpointed runs at --threads=1 and 4 must
#     write byte-identical checkpoint files;
#   * telemetry: preprocess + query with --metrics-out/--trace-out, then
#     the emitted JSON is parsed and probed for the expected solver
#     counters, latency histogram and trace spans;
#   * kernel paths: preprocessing a small graph must auto-select the
#     compact 32-bit kernel path, and full-precision score dumps must be
#     byte-identical across --kernel=compact/wide and --threads=1/4;
#   * seeds file: a 40-seed `query --seeds-file` (repeats included, so one
#     solve span split into panels) must give the same per-seed
#     iterations, top node and score at --threads=1 and 4, dense and
#     top-k; an out-of-range seed fails the batch naming its index, and
#     an integer past int64 fails naming its line;
#   * serve: the long-running query server's operational contract —
#     responses bit-identical to one-shot queries, hostile input and
#     injected protocol faults answered without killing the process,
#     sub-solve deadlines reported as deadline_exceeded, a full bounded
#     queue shedding load as "overloaded", concurrent socket clients,
#     SIGTERM draining to exit 0 with telemetry flushed, and SIGKILL
#     leaving the model file untouched;
#   * batch serve: the coalescing scheduler and the hot-seed score cache
#     against an interactive two-wave session — wave 1 floods duplicate
#     and distinct seeds into one batch window and every coalesced
#     response must be bit-identical to a one-shot `query --dump-scores`
#     of the same seed; wave 2 repeats the seeds and must be answered
#     entirely from the cache (stage "cache", counters to match); then a
#     faulted batch (gmres.stagnate on one column) must degrade that
#     column alone to power — equal to a one-shot query of that
#     seed under the same fault — while the rest stay coalesced and equal
#     to the clean dumps;
#   * crosscheck: the Monte-Carlo oracle against the exact solve on two
#     example graphs, then with every linear-algebra stage fault-injected
#     so the degradation chain must bottom out in the MC terminal stage
#     and still answer (CLI and serve) with a bounded-error reply;
#   * top-k: exact-mode `query --top-k` dumps must be byte-identical to
#     the top of the same seed's full `--dump-scores` dump across
#     --kernel=compact/wide and --threads=1/4 on two example graphs,
#     crosscheck --query-eps verifies the eps-mode per-score bound
#     against the MC oracle, clean and with the Krylov stage faulted so
#     the power stage answers, and a fully faulted chain must still answer
#     a top-k query with an explicit bound;
#   * observability: a request_id-tagged flood scraped mid-flight with the
#     metrics verb and re-rendered offline via metrics-export (both must
#     pass a strict Prometheus text-format parse with cumulative buckets
#     and a request_id exemplar), the fully fault-injected degradation
#     chain with the response's per-stage timing, the flight-recorder hop
#     trail and the slow-query log all agreeing on one request_id, a
#     watchdog trip auto-dumping a Perfetto trace, and score bit-identity
#     with the forensics features on and off;
#   * bench artifacts: bench_kernels, bench_fig1_query,
#     bench_fig5_scalability, bench_serve, bench_batch_serve, bench_mc,
#     bench_topk and bench_observability write BENCH_kernels.json /
#     BENCH_fig1_query.json / BENCH_parallel_scaling.json /
#     BENCH_serve.json / BENCH_batch_serve.json / BENCH_mc.json /
#     BENCH_topk.json / BENCH_observability.json (smallest dataset
#     scale, except the observability overhead run which needs full-size
#     queries) under build-ci/artifacts/, and all must parse — the mc
#     artifact additionally asserts every estimate stayed within its
#     confidence bound and was bit-identical across threads, the
#     batch-serve artifact asserts per-query stream bytes fall
#     monotonically with the batch width and cache hits beat cold
#     solves, the topk artifact asserts exact-mode answers matched the
#     dense sort, and the observability artifact asserts bit-identical
#     scores and <2% query overhead with the forensics machinery on;
#   * flag rejections: every `bepi_cli` flag combination that would be
#     silently ignored, every removed flag, every --mode outside
#     bepi|bepi-s|bepi-b, every integer flag value that does not fit the
#     type the program keeps it in, a serve --batch-max outside one
#     Solve panel's 1 to 16 and a serve --slots below 1 must exit 2
#     naming the flag;
#   * docs cross-check: tools/check_docs.sh verifies every flag and
#     BEPI_* variable documented in README/docs against the binary and
#     the source tree.
#
# The "thread" configuration is narrower than the others: it builds only
# the concurrency-sensitive tests (test_metrics, test_trace,
# test_parallel, test_kernel, test_cancel, test_mc, test_topk,
# test_server, test_cache, test_flightrec, test_promtext) under TSan and
# runs them directly at BEPI_THREADS=max(4, nproc) — the registry's
# sharded counters, the per-thread trace buffers, the work-stealing pool,
# the row-partitioned kernels, mid-solve cancellation, the Monte-Carlo
# walk engine's atomic visit counters, a wide solve span's panels on the
# pool, the query server's worker pool, the score cache's LRU under
# concurrent readers/writers, the flight recorder's seqlock rings and the
# concurrent Prometheus render are where new data races would land.
#
# Usage: tools/ci.sh [default|address|undefined|thread ...]
#   With no arguments all four configurations run.
set -euo pipefail

cd "$(dirname "$0")/.."
jobs="$(nproc 2>/dev/null || echo 4)"
configs=("$@")
if [ "${#configs[@]}" -eq 0 ]; then
  configs=(default address undefined thread)
fi

smoke_flag_rejections() {
  local cli="$1"
  local work
  work="$(mktemp -d)"
  echo "=== flag rejection smoke test ==="
  "$cli" generate --out="$work/g.txt" --nodes=200 --edges=900 --seed=3 \
    >/dev/null
  "$cli" preprocess --graph="$work/g.txt" --model="$work/m.txt" >/dev/null
  printf '1\n2\n' >"$work/seeds.txt"
  # expect_usage_error FLAG ARGS...: exit status 2 and FLAG named on stderr.
  expect_usage_error() {
    local flag="$1" rc=0
    shift
    "$cli" "$@" >/dev/null 2>"$work/err" || rc=$?
    if [ "$rc" -ne 2 ] || ! grep -q -- "$flag" "$work/err"; then
      echo "expected exit 2 naming $flag from: bepi_cli $*" \
        "(got $rc: $(cat "$work/err"))" >&2
      exit 1
    fi
  }
  local q=(query --model="$work/m.txt" --seed-node=3)
  expect_usage_error --c "${q[@]}" --c=0.9
  expect_usage_error --deadline-ms "${q[@]}" --deadline-ms=0.001
  expect_usage_error --eps "${q[@]}" --eps=1e-3
  expect_usage_error --top-k "${q[@]}" --top-k=5 --stats
  expect_usage_error --dump-scores query --model="$work/m.txt" \
    --seeds-file="$work/seeds.txt" --dump-scores="$work/d.txt"
  expect_usage_error --walks "${q[@]}" --walks=1000
  expect_usage_error --delta "${q[@]}" --delta=0.1
  expect_usage_error --walk-seed "${q[@]}" --walk-seed=5
  expect_usage_error --num-queries "${q[@]}" --num-queries=5
  expect_usage_error --topk query --model="$work/m.txt" \
    --seeds-file="$work/seeds.txt" --topk=3
  expect_usage_error --topk "${q[@]}" --stats --topk=3
  expect_usage_error --topk "${q[@]}" --top-k=5 --topk=3
  # A flag that no longer exists is rejected like any unknown flag: the
  # pruned top-k path, the MC warm start and the switch that disabled the
  # degradation chain are gone.
  expect_usage_error --topk-via "${q[@]}" --topk-via=dense
  expect_usage_error --warm-start "${q[@]}" --warm-start=mc
  expect_usage_error --warm-start query --model="$work/m.txt" \
    --graph="$work/g.txt" --seed-node=3 --warm-start=mc
  expect_usage_error --warm-start query --engine=mc --graph="$work/g.txt" \
    --seed-node=3 --warm-start=mc
  expect_usage_error --no-fallbacks "${q[@]}" --no-fallbacks
  expect_usage_error --no-fallbacks preprocess --graph="$work/g.txt" \
    --model="$work/m2.txt" --no-fallbacks
  expect_usage_error --no-fallbacks verify-model --model="$work/m.txt" \
    --no-fallbacks
  # --mode names one of three variants; any other value (a typo, another
  # case) is an error, not a silent BePI model.
  expect_usage_error --mode preprocess --graph="$work/g.txt" \
    --model="$work/m2.txt" --mode=bogus
  expect_usage_error --mode preprocess --graph="$work/g.txt" \
    --model="$work/m2.txt" --mode=BEPI-S
  expect_usage_error --mode rank --graph="$work/g.txt" --seed-node=3 \
    --mode=bepi-x
  expect_usage_error --mode crosscheck --graph="$work/g.txt" --mode=
  if [ -e "$work/m2.txt" ]; then
    echo "a rejected preprocess wrote a model" >&2
    exit 1
  fi
  # --stats times consecutive seeds from --seed-node.
  expect_usage_error --stats query --model="$work/m.txt" --stats \
    --num-queries=5
  expect_usage_error --dump-topk "${q[@]}" --dump-topk="$work/t.txt"
  expect_usage_error --model query --engine=mc --graph="$work/g.txt" \
    --seed-node=3 --model="$work/m.txt"
  expect_usage_error --stats query --engine=mc --graph="$work/g.txt" \
    --seed-node=3 --stats
  expect_usage_error --seeds-file query --engine=mc --graph="$work/g.txt" \
    --seeds-file="$work/seeds.txt"
  expect_usage_error --seed-node query --model="$work/m.txt" \
    --seeds-file="$work/seeds.txt" --seed-node=5
  expect_usage_error --stats query --model="$work/m.txt" \
    --seeds-file="$work/seeds.txt" --stats --num-queries=5
  # Integer values that do not fit are rejected, not truncated: 2^32 + 2
  # threads would run 2, a 2^32 MiB cache would be none.
  expect_usage_error --threads generate --out="$work/g2.txt" --nodes=50 \
    --edges=200 --threads=4294967298
  expect_usage_error --cache-mb serve --model="$work/m.txt" \
    --cache-mb=4294967296
  expect_usage_error --seed-node "${q[@]}" --seed-node=99999999999999999999
  # A serve batch is one Solve panel of 1 to 16 queries, and a server
  # needs a slot to answer.
  expect_usage_error --batch-max serve --model="$work/m.txt" --batch-max=17
  expect_usage_error --batch-max serve --model="$work/m.txt" --batch-max=0
  expect_usage_error --batch-max serve --model="$work/m.txt" --batch-max=-5
  expect_usage_error --slots serve --model="$work/m.txt" --slots=0
  echo "    every ignored flag combination and out-of-range integer exits 2" \
    "naming the flag"
  rm -rf "$work"
}

smoke_kill_resume() {
  local cli="$1"
  local work
  work="$(mktemp -d)"
  echo "=== kill-and-resume smoke test ==="
  "$cli" generate --out="$work/graph.txt" --nodes=400 --edges=1800 \
    --deadends=0.2 --seed=7 >/dev/null
  "$cli" preprocess --graph="$work/graph.txt" --model="$work/scratch.txt" \
    >/dev/null

  # Kill preprocessing at its first checkpoint commit, over and over: each
  # attempt makes exactly one more stage durable, so the loop sweeps every
  # crash point. A fully resumed run writes no checkpoints and completes.
  local attempts=0 status
  while :; do
    status=0
    "$cli" preprocess --graph="$work/graph.txt" --model="$work/resumed.txt" \
      --checkpoint-dir="$work/ckpt" --fault-inject=checkpoint.crash:0:1 \
      >/dev/null 2>&1 || status=$?
    [ "$status" -eq 0 ] && break
    if [ "$status" -ne 137 ]; then
      echo "preprocess exited with unexpected status $status (want 137)" >&2
      exit 1
    fi
    attempts=$((attempts + 1))
    if [ "$attempts" -gt 64 ]; then
      echo "kill-and-resume did not converge after $attempts kills" >&2
      exit 1
    fi
  done
  echo "    survived $attempts SIGKILLs; comparing resumed model to scratch"
  cmp "$work/scratch.txt" "$work/resumed.txt"
  "$cli" verify-model --model="$work/resumed.txt" >/dev/null

  # The checkpoint stream does not depend on the thread count: a full
  # checkpointed run at --threads=1 and one at --threads=4 leave the same
  # files with the same bytes.
  local threads ckpt
  for threads in 1 4; do
    "$cli" preprocess --graph="$work/graph.txt" \
      --model="$work/threads$threads.txt" \
      --checkpoint-dir="$work/ckpt_threads$threads" --threads="$threads" \
      >/dev/null
  done
  diff <(ls "$work/ckpt_threads1") <(ls "$work/ckpt_threads4")
  for ckpt in "$work"/ckpt_threads1/*.ckpt; do
    cmp "$ckpt" "$work/ckpt_threads4/$(basename "$ckpt")"
  done
  echo "    checkpoints byte-identical at --threads=1 and --threads=4"

  # And the fsck must catch a corrupted model. Flip one bit of byte 200
  # rather than writing a fixed value: in a binary model that value may
  # already be there, and the write would corrupt nothing.
  python3 - "$work/resumed.txt" <<'EOF'
import sys
with open(sys.argv[1], "r+b") as f:
    f.seek(200)
    byte = f.read(1)[0]
    f.seek(200)
    f.write(bytes([byte ^ 0x01]))
EOF
  if "$cli" verify-model --model="$work/resumed.txt" >/dev/null 2>&1; then
    echo "verify-model missed an injected corruption" >&2
    exit 1
  fi
  echo "    resumed model byte-identical; verify-model catches corruption"
  rm -rf "$work"
}

smoke_telemetry() {
  local cli="$1"
  local work
  work="$(mktemp -d)"
  echo "=== telemetry smoke test ==="
  "$cli" generate --out="$work/graph.txt" --nodes=400 --edges=1800 \
    --deadends=0.2 --seed=7 >/dev/null
  "$cli" preprocess --graph="$work/graph.txt" --model="$work/model.txt" \
    --metrics-out="$work/pre_metrics.json" \
    --trace-out="$work/pre_trace.json" >/dev/null
  "$cli" query --model="$work/model.txt" --seed-node=0 --stats \
    --num-queries=25 \
    --metrics-out="$work/query_metrics.json" \
    --trace-out="$work/query_trace.json" >/dev/null
  python3 - "$work" <<'EOF'
import json, sys
work = sys.argv[1]

pre = json.load(open(f"{work}/pre_metrics.json"))
for key in ("counters", "gauges", "histograms"):
    assert key in pre, f"preprocess metrics missing {key!r}"
assert pre["counters"].get("slashburn.rounds", 0) > 0, pre["counters"]

qm = json.load(open(f"{work}/query_metrics.json"))
counters = qm["counters"]
assert counters.get("query.count") == 25, counters
assert counters.get("gmres.solves", 0) > 0, counters
assert counters.get("spmv.calls", 0) > 0, counters
# The preconditioner's traffic is counted apart from spmv.*/spmm.*.
assert counters.get("ilu0.applies", 0) > 0, counters
assert counters.get("ilu0.bytes", 0) > 0, counters
latency = qm["histograms"]["query.latency_seconds"]
assert latency["count"] == 25, latency
for q in ("p50", "p95", "p99"):
    assert latency[q] > 0, latency

# Cold start: the model load's stages, as gauges and as spans.
stages = ("map", "verify", "validate", "bind")
gauges = qm["gauges"]
for stage in stages:
    assert f"model.load_seconds.{stage}" in gauges, sorted(gauges)

for name, wants in (("pre_trace", ("preprocess",)),
                    ("query_trace", ("query", "model.load") +
                     tuple(f"model.load.{s}" for s in stages))):
    trace = json.load(open(f"{work}/{name}.json"))
    events = trace["traceEvents"]
    assert events, f"{name}: no trace events"
    names = {e["name"] for e in events}
    for want in wants:
        assert want in names, f"{name}: no span {want!r} in {sorted(names)}"
    assert all(e["ph"] == "X" for e in events), name
print("    telemetry JSON parses; counters, histogram, load gauges, spans")
EOF
  rm -rf "$work"
}

smoke_kernel_paths() {
  local cli="$1"
  local work
  work="$(mktemp -d)"
  echo "=== kernel-path smoke test ==="
  "$cli" generate --out="$work/graph.txt" --nodes=400 --edges=1800 \
    --deadends=0.2 --seed=7 >/dev/null
  "$cli" preprocess --graph="$work/graph.txt" --model="$work/model.txt" \
    >"$work/pre.out"
  if ! grep -q "kernel path: compact" "$work/pre.out"; then
    echo "preprocess did not auto-select the compact kernel path:" >&2
    cat "$work/pre.out" >&2
    exit 1
  fi
  # One query per (kernel, threads) combination. The dumps are
  # full-precision (%.17g round-trips doubles exactly), so cmp checks
  # bit-identity of the whole score vector, not a tolerance.
  local kernel threads
  for kernel in compact wide; do
    for threads in 1 4; do
      "$cli" query --model="$work/model.txt" --seed-node=3 \
        --kernel="$kernel" --threads="$threads" \
        --dump-scores="$work/scores_${kernel}_${threads}.txt" >/dev/null
    done
  done
  cmp "$work/scores_compact_1.txt" "$work/scores_wide_1.txt"
  cmp "$work/scores_compact_1.txt" "$work/scores_compact_4.txt"
  cmp "$work/scores_compact_1.txt" "$work/scores_wide_4.txt"
  echo "    compact auto-selected; scores bit-identical across" \
    "--kernel compact/wide and --threads 1/4"
  rm -rf "$work"
}

smoke_seeds_file() {
  local cli="$1"
  local work
  work="$(mktemp -d)"
  echo "=== seeds-file smoke test ==="
  "$cli" generate --out="$work/graph.txt" --nodes=400 --edges=1800 \
    --deadends=0.2 --seed=7 >/dev/null
  "$cli" preprocess --graph="$work/graph.txt" --model="$work/model.txt" \
    >/dev/null
  # 40 seeds, the last 8 repeating the first 8: more than one 16-wide
  # panel, so the solve span is split (and spread over 4 threads).
  seq 0 39 | awk '{print ($1 % 32) * 37 % 400}' >"$work/seeds.txt"
  local shape threads
  for shape in "" --top-k=5; do
    for threads in 1 4; do
      # The seed, iterations, top node and score columns (ms is a time);
      # an empty $shape is the dense query.
      "$cli" query --model="$work/model.txt" --seeds-file="$work/seeds.txt" \
        --threads="$threads" $shape 2>/dev/null |
        awk 'NF == 5 && $1 ~ /^[0-9]+$/ {print $1, $3, $4, $5}' \
          >"$work/rows_$threads.txt"
    done
    if [ "$(wc -l <"$work/rows_1.txt")" -ne 40 ]; then
      echo "--seeds-file ${shape:-dense} did not answer 40 seeds" >&2
      exit 1
    fi
    cmp "$work/rows_1.txt" "$work/rows_4.txt"
  done
  # All or nothing: an out-of-range seed fails the batch naming its index,
  # and an integer past int64 fails the read naming its line.
  printf '1\n400\n2\n' >"$work/bad_1.txt"
  printf '1\n99999999999999999999\n2\n' >"$work/bad_2.txt"
  local i want rc
  for i in 1 2; do
    want="seed index 1"
    [ "$i" = 2 ] && want="line 2: node id overflows index_t"
    rc=0
    "$cli" query --model="$work/model.txt" --seeds-file="$work/bad_$i.txt" \
      >/dev/null 2>"$work/err" || rc=$?
    if [ "$rc" -ne 1 ] || ! grep -q -- "$want" "$work/err"; then
      echo "expected exit 1 naming '$want' (got $rc: $(cat "$work/err"))" >&2
      exit 1
    fi
  done
  echo "    40 seeds (8 repeated) identical at --threads 1/4, dense and" \
    "top-k; a bad seed fails the batch by index or line"
  rm -rf "$work"
}

smoke_crosscheck() {
  local cli="$1"
  local work
  work="$(mktemp -d)"
  echo "=== crosscheck smoke test ==="
  # 1. Healthy path: the Monte-Carlo oracle against the exact (linear-
  # algebra) solve on two example graphs. crosscheck exits non-zero if
  # any per-node difference leaves the MC confidence interval.
  "$cli" generate --out="$work/graph.txt" --nodes=400 --edges=1800 \
    --deadends=0.2 --seed=7 >/dev/null
  "$cli" crosscheck --graph="$work/graph.txt" --seeds=3 --walks=100000 \
    >/dev/null
  "$cli" generate --out="$work/dense.txt" --nodes=200 --edges=3000 \
    --seed=11 >/dev/null
  "$cli" crosscheck --graph="$work/dense.txt" --seeds=2 --walks=100000 \
    >/dev/null
  echo "    MC oracle agrees with the exact solve on both example graphs"

  # 2. Every linear-algebra stage fault-injected: the degradation chain
  # must bottom out in the MC terminal stage and still answer with a
  # bounded-error reply — over the CLI and over serve.
  local faults="ilu0.factor,gmres.stagnate,power.stall"
  "$cli" preprocess --graph="$work/graph.txt" --model="$work/model.txt" \
    >/dev/null
  # Seed 5 is not a deadend in this graph: a deadend seed's RWR vector is
  # identically zero, the Schur solve then converges in 0 iterations and
  # the chain never needs to degrade.
  # Both streams: the ranking and "mc terminal stage answered" go to
  # stdout, the "solver chain: ..." hop summary to stderr.
  BEPI_FAULT_INJECT="$faults" "$cli" query --model="$work/model.txt" \
    --graph="$work/graph.txt" --seed-node=5 >"$work/faulted.out" 2>&1
  grep -q "mc -> Converged" "$work/faulted.out"
  grep -q "mc terminal stage answered" "$work/faulted.out"
  # The crosscheck verb itself must also pass in this regime: the oracle
  # walks an independent RNG stream, so MC-vs-MC still validates bounds.
  BEPI_FAULT_INJECT="$faults" "$cli" crosscheck --graph="$work/graph.txt" \
    --seeds=2 --walks=150000 >"$work/faulted_cc.out"
  grep -q "mc" "$work/faulted_cc.out"
  printf '{"op":"query","seed":5}\n' |
    BEPI_FAULT_INJECT="$faults" "$cli" serve --model="$work/model.txt" \
      --graph="$work/graph.txt" >"$work/serve_mc.out" 2>/dev/null ||
    true
  python3 - "$work" <<'EOF'
import json, sys
work = sys.argv[1]
line = open(f"{work}/serve_mc.out").read().splitlines()[0]
response = json.loads(line)
assert response["ok"], response
assert response["stage"] == "mc", response
assert response["outcome"] == "Converged", response
assert 0.0 < response["residual"] < 0.1, response  # the confidence bound
print("    chain bottomed out in MC over serve: stage=mc, "
      f"bound +/-{response['residual']:.4f}")
EOF
  rm -rf "$work"
}

smoke_topk() {
  local cli="$1"
  local work
  work="$(mktemp -d)"
  echo "=== top-k smoke test ==="
  # 1. Exact mode is bitwise exact: the top-k dump must be byte-identical
  # to the top 25 of the same seed's full --dump-scores dump (score
  # descending, then node ascending), across both kernel paths and thread
  # counts, on a deadend-heavy and a dense example graph. The dumps are
  # full-precision (%.17g round-trips doubles) and the reference reuses
  # the score dump's own strings, so cmp checks bit equality, not a
  # tolerance.
  "$cli" generate --out="$work/spoke.txt" --nodes=400 --edges=1800 \
    --deadends=0.2 --seed=7 >/dev/null
  "$cli" generate --out="$work/dense.txt" --nodes=200 --edges=3000 \
    --seed=11 >/dev/null
  local name kernel threads
  for name in spoke dense; do
    "$cli" preprocess --graph="$work/$name.txt" --model="$work/$name.model" \
      >/dev/null
    "$cli" query --model="$work/$name.model" --seed-node=3 \
      --dump-scores="$work/${name}_scores.txt" >/dev/null
    python3 - "$work/${name}_scores.txt" >"$work/${name}_ref.txt" <<'EOF'
import sys
scores = open(sys.argv[1]).read().split()
ranked = sorted(range(len(scores)), key=lambda i: (-float(scores[i]), i))
for node in ranked[:25]:
    print(node, scores[node])
EOF
    for kernel in compact wide; do
      for threads in 1 4; do
        "$cli" query --model="$work/$name.model" --seed-node=3 --top-k=25 \
          --kernel="$kernel" --threads="$threads" \
          --dump-topk="$work/${name}_${kernel}_${threads}.txt" >/dev/null
        cmp "$work/${name}_ref.txt" "$work/${name}_${kernel}_${threads}.txt"
      done
    done
  done
  echo "    exact top-k byte-identical to the sorted --dump-scores solve" \
    "across --kernel compact/wide and --threads 1/4 on both graphs"

  # 2. Eps mode's per-score bound must be honest: crosscheck --query-eps
  # runs every query in eps mode and fails if any node's deviation from
  # the MC oracle exceeds the reported bound plus the MC half-width.
  "$cli" crosscheck --graph="$work/spoke.txt" --seeds=2 --walks=100000 \
    --query-eps=1e-4 >/dev/null
  echo "    eps-mode per-score bound verified against the MC oracle"
  # The same check with the Krylov stage faulted: the power stage answers
  # with a Schur iterate, and the bound of its back-substituted answer
  # must hold too.
  BEPI_FAULT_INJECT=gmres.stagnate "$cli" crosscheck \
    --graph="$work/spoke.txt" --seeds=2 --walks=100000 --query-eps=1e-4 \
    >"$work/power_crosscheck.out"
  grep -q -E '^[0-9]+ +power ' "$work/power_crosscheck.out"
  echo "    power-stage eps bound verified against the MC oracle"

  # 3. A fully faulted chain must still answer a top-k query: the MC
  # terminal stage produces the full vector, the CLI sorts it, and eps
  # mode keeps carrying an explicit per-score bound.
  local faults="ilu0.factor,gmres.stagnate,power.stall"
  BEPI_FAULT_INJECT="$faults" "$cli" query --model="$work/spoke.model" \
    --graph="$work/spoke.txt" --seed-node=5 --top-k=10 --eps=1e-3 \
    >"$work/faulted_topk.out" 2>&1
  grep -q "mc -> Converged" "$work/faulted_topk.out"
  grep -q "per-score error bound" "$work/faulted_topk.out"
  echo "    faulted chain still answered top-k with an explicit bound"
  rm -rf "$work"
}

smoke_serve() {
  local cli="$1"
  local work
  work="$(mktemp -d)"
  echo "=== serve smoke test ==="
  "$cli" generate --out="$work/graph.txt" --nodes=400 --edges=1800 \
    --deadends=0.2 --seed=7 >/dev/null
  "$cli" preprocess --graph="$work/graph.txt" --model="$work/model.txt" \
    >/dev/null

  # 1. Bit-identity: the scores a serve session returns must match a
  # one-shot query's full-precision dump exactly (both sides print %.17g,
  # which round-trips doubles, so parsed-float equality is bit equality).
  "$cli" query --model="$work/model.txt" --seed-node=3 \
    --dump-scores="$work/direct.txt" >/dev/null
  printf '{"op":"query","seed":3,"scores":true}\n' |
    "$cli" serve --model="$work/model.txt" >"$work/serve_scores.out"
  python3 - "$work" <<'EOF'
import json, sys
work = sys.argv[1]
response = json.loads(open(f"{work}/serve_scores.out").read().splitlines()[0])
assert response["ok"] and not response["partial"], response
direct = [float(l) for l in open(f"{work}/direct.txt")]
assert len(response["scores"]) == len(direct) > 0
for i, (a, b) in enumerate(zip(response["scores"], direct)):
    assert a == b, f"score {i} differs: serve={a!r} direct={b!r}"
print("    serve scores bit-identical to one-shot query --dump-scores")
EOF

  # 2. Hostile input + injected protocol faults never kill the process:
  # garbage, an injected corrupted line, an expired deadline and a valid
  # query all get one JSON response line each, and the session exits 0.
  printf '%s\n' \
    'garbage{{{' \
    '{"op":"query","seed":1}' \
    '{"op":"query","id":"dl","seed":1,"deadline_ms":0.0001}' \
    '{"op":"query","id":"ok","seed":1}' |
    "$cli" serve --model="$work/model.txt" \
      --fault-inject=server.parse_garbage:1:1 >"$work/hostile.out"
  python3 - "$work" <<'EOF'
import json, sys
work = sys.argv[1]
lines = [json.loads(l) for l in open(f"{work}/hostile.out")]
assert len(lines) == 4, lines
errors = [l.get("error") for l in lines]
assert errors.count("parse_error") == 2, errors      # garbage + injected
assert "deadline_exceeded" in errors, errors
final = [l for l in lines if l.get("id") == "ok"]
assert final and final[0]["ok"], lines
print("    garbage, injected faults and a 0.1us deadline all answered;"
      " session survived")
EOF

  # 3. Overload: one slot and a one-deep queue against a 500-request
  # flood must shed load with "overloaded" + retry_after_ms while still
  # answering every line.
  awk 'BEGIN { for (i = 0; i < 500; i++) print "{\"op\":\"query\",\"seed\":1}" }' |
    "$cli" serve --model="$work/model.txt" --slots=1 --max-queue=1 \
      >"$work/flood.out"
  python3 - "$work" <<'EOF'
import json, sys
work = sys.argv[1]
lines = [json.loads(l) for l in open(f"{work}/flood.out")]
assert len(lines) == 500, len(lines)
shed = [l for l in lines if l.get("error") == "overloaded"]
served = [l for l in lines if l.get("ok")]
assert shed, "500-request flood against slots=1/max-queue=1 shed nothing"
assert all(l["retry_after_ms"] >= 1 for l in shed)
assert served, "flood starved every request"
print(f"    flood: {len(served)} served, {len(shed)} shed with retry hints")
EOF

  # 4. Socket mode: two concurrent clients get valid, identical answers
  # for the same seed; SIGTERM then drains cleanly — exit 0 with the
  # metrics flushed to --metrics-out.
  "$cli" serve --model="$work/model.txt" --socket="$work/serve.sock" \
    --metrics-out="$work/serve_metrics.json" >/dev/null 2>&1 &
  local serve_pid=$!
  local i=0
  while [ ! -S "$work/serve.sock" ]; do
    i=$((i + 1))
    [ "$i" -gt 100 ] && { echo "serve socket never appeared" >&2; exit 1; }
    sleep 0.05
  done
  python3 - "$work" <<'EOF'
import json, socket, sys, threading
work = sys.argv[1]
results = [None, None]
def client(slot):
    s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    s.connect(f"{work}/serve.sock")
    s.sendall(b'{"op":"query","seed":5,"topk":3}\n')
    buf = b""
    while b"\n" not in buf:
        buf += s.recv(4096)
    s.close()
    results[slot] = buf.split(b"\n")[0]
threads = [threading.Thread(target=client, args=(i,)) for i in range(2)]
for t in threads: t.start()
for t in threads: t.join()
parsed = [json.loads(r) for r in results]
for p in parsed:
    assert p["ok"], p
    # Per-request context legitimately varies: wall-clock timings and the
    # server-minted request_id. Everything else — scores included — must
    # be identical.
    p.pop("ms")
    p.pop("timing")
    assert p.pop("request_id").startswith("srv-"), p
assert parsed[0] == parsed[1], results
print("    two concurrent socket clients answered identically")
EOF
  kill -TERM "$serve_pid"
  local drain_status=0
  wait "$serve_pid" || drain_status=$?
  if [ "$drain_status" -ne 0 ]; then
    echo "SIGTERM drain exited with $drain_status (want 0)" >&2
    exit 1
  fi
  python3 -c "
import json, sys
m = json.load(open('$work/serve_metrics.json'))
assert m['counters'].get('server.completed', 0) >= 1, m['counters']
"
  echo "    SIGTERM drained to exit 0; metrics flushed"

  # 5. SIGKILL mid-serve must leave the model file untouched (the server
  # only ever reads it).
  cp "$work/model.txt" "$work/model.before"
  "$cli" serve --model="$work/model.txt" --socket="$work/kill.sock" \
    >/dev/null 2>&1 &
  local kill_pid=$!
  i=0
  while [ ! -S "$work/kill.sock" ]; do
    i=$((i + 1))
    [ "$i" -gt 100 ] && { echo "serve socket never appeared" >&2; exit 1; }
    sleep 0.05
  done
  kill -KILL "$kill_pid"
  wait "$kill_pid" 2>/dev/null || true
  cmp "$work/model.txt" "$work/model.before"
  echo "    SIGKILL mid-serve left the model byte-identical"
  rm -rf "$work"
}

smoke_batch_serve() {
  local cli="$1"
  local work
  work="$(mktemp -d)"
  echo "=== batch-serve smoke test ==="
  "$cli" generate --out="$work/graph.txt" --nodes=400 --edges=1800 \
    --deadends=0.2 --seed=7 >/dev/null
  "$cli" preprocess --graph="$work/graph.txt" --model="$work/model.txt" \
    >/dev/null
  # One-shot full-precision references (%.17g round-trips doubles, so
  # parsed-float equality below is bit equality).
  local s
  for s in 3 9; do
    "$cli" query --model="$work/model.txt" --seed-node="$s" \
      --dump-scores="$work/direct_$s.txt" >/dev/null
  done

  # 1. Two-wave interactive session against one serve process: wave 1
  # floods duplicate + distinct seeds into a single batch window (every
  # response must match the one-shot dumps exactly, and the distinct
  # seeds must coalesce); wave 2 repeats the seeds after wave 1 finished,
  # so every answer must come from the score cache with the same bytes.
  python3 - "$work" "$cli" <<'EOF'
import json, subprocess, sys
work, cli = sys.argv[1], sys.argv[2]
direct = {s: [float(l) for l in open(f"{work}/direct_{s}.txt")]
          for s in (3, 9)}
proc = subprocess.Popen(
    [cli, "serve", f"--model={work}/model.txt", "--slots=1",
     "--batch-max=8", "--batch-window-ms=500", "--cache-mb=16"],
    stdin=subprocess.PIPE, stdout=subprocess.PIPE,
    stderr=subprocess.DEVNULL, text=True)

def wave(seeds):
    for i, seed in enumerate(seeds):
        proc.stdin.write(json.dumps(
            {"op": "query", "id": i, "seed": seed, "scores": True}) + "\n")
    proc.stdin.flush()
    responses = {}
    for _ in seeds:
        r = json.loads(proc.stdout.readline())
        responses[r["id"]] = r
    for i, seed in enumerate(seeds):
        r = responses[i]
        assert r["ok"] and not r["partial"], r
        assert r["scores"] == direct[seed], f"seed {seed} differs from dump"
    return responses

wave1 = wave([3, 9, 3, 9, 3])
coalesced = [r for r in wave1.values() if r.get("coalesced")]
assert len(coalesced) >= 2, "batch window never coalesced wave 1"
assert all(r["outcome"] == "Converged" for r in wave1.values())

wave2 = wave([3, 9, 3, 9])
assert all(r["stage"] == "cache" for r in wave2.values()), \
    "wave 2 was not answered from the cache"

proc.stdin.write('{"op":"stats","id":"s"}\n')
proc.stdin.flush()
stats = json.loads(proc.stdout.readline())
assert stats["cache_hits"] == 4, stats
assert stats["cache_misses"] >= 2, stats
assert stats["coalesced"] >= 2, stats
proc.stdin.close()
assert proc.wait() == 0
print(f"    wave 1: {len(coalesced)} coalesced responses, all bit-identical"
      f" to dumps; wave 2: 4/4 cache hits; stats counters agree")
EOF

  # 2. A faulted column degrades alone: gmres.stagnate fires once. Seed 3's
  # Schur right-hand side is zero, so its column converges in 0 iterations
  # before the fault site and the hit lands on seed 9's column. That
  # column moves on to power by itself, exactly as seed 9 solved
  # alone under the same fault does, while seed 3 stays coalesced and
  # equal to its clean dump.
  "$cli" query --model="$work/model.txt" --seed-node=9 \
    --fault-inject=gmres.stagnate:0:1 \
    --dump-scores="$work/faulted_9.txt" >/dev/null 2>&1
  python3 - "$work" "$cli" <<'EOF'
import json, subprocess, sys
work, cli = sys.argv[1], sys.argv[2]
direct = {3: [float(l) for l in open(f"{work}/direct_3.txt")],
          9: [float(l) for l in open(f"{work}/faulted_9.txt")]}
proc = subprocess.Popen(
    [cli, "serve", f"--model={work}/model.txt", "--slots=1",
     "--batch-max=8", "--batch-window-ms=500",
     "--fault-inject=gmres.stagnate:0:1"],
    stdin=subprocess.PIPE, stdout=subprocess.PIPE,
    stderr=subprocess.DEVNULL, text=True)
seeds = [3, 9, 3, 9]
for i, seed in enumerate(seeds):
    proc.stdin.write(json.dumps(
        {"op": "query", "id": i, "seed": seed, "scores": True}) + "\n")
proc.stdin.flush()
responses = {}
for _ in seeds:
    r = json.loads(proc.stdout.readline())
    responses[r["id"]] = r
proc.stdin.close()
assert proc.wait() == 0
flags = {r.get("coalesced", False) for r in responses.values()}
assert flags == {True, False}, \
    f"expected a mix of coalesced and degraded columns, got {flags}"
for i, seed in enumerate(seeds):
    r = responses[i]
    assert r["ok"] and not r["partial"], r
    if seed == 9:
        assert r["stage"] == "power", r
    assert r["scores"] == direct[seed], f"seed {seed} differs under fault"
print("    faulted column degraded alone to power (coalesced flags "
      f"{sorted(r.get('coalesced', False) for r in responses.values())}); "
      "seed 9 equals its solo faulted dump, seed 3 its clean dump")
EOF
  rm -rf "$work"
}

smoke_observability() {
  local cli="$1"
  local work
  work="$(mktemp -d)"
  echo "=== observability smoke test ==="
  "$cli" generate --out="$work/graph.txt" --nodes=400 --edges=1800 \
    --deadends=0.2 --seed=7 >/dev/null
  "$cli" preprocess --graph="$work/graph.txt" --model="$work/model.txt" \
    >/dev/null

  # 1. Flood with client request_ids, scrape mid-flood with the metrics
  # verb, then render the drained --metrics-out snapshot offline with
  # metrics-export. Both expositions must pass a strict text-format parse
  # (every line a well-formed comment or sample, histogram buckets
  # cumulative, +Inf == _count), and the tiny --slow-ms threshold must
  # have pinned a request_id exemplar to the latency histogram and logged
  # slow-query lines carrying the same ids.
  (
    awk 'BEGIN { for (i = 0; i < 200; i++)
      printf "{\"op\":\"query\",\"request_id\":\"flood-%d\",\"seed\":1}\n", i }'
    sleep 1 # metrics answers inline; let the accepted queries finish first
    printf '{"op":"metrics","id":"m"}\n'
  ) | "$cli" serve --model="$work/model.txt" --slots=2 --max-queue=4 \
    --slow-ms=0.000001 --metrics-out="$work/snapshot.json" \
    >"$work/flood.out" 2>"$work/flood.log"
  "$cli" metrics-export --snapshot="$work/snapshot.json" \
    --out="$work/exported.prom" >/dev/null
  grep -q 'slow query: request_id=flood-' "$work/flood.log"
  python3 - "$work" <<'EOF'
import json, re, sys
work = sys.argv[1]

def parse_exposition(text):
    """Strict Prometheus text-format 0.0.4 parse; returns family->type."""
    sample = re.compile(
        r'^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? '
        r'(-?[0-9.eE+-]+|NaN|\+Inf|-Inf)'
        r'( # \{[^}]*\} (-?[0-9.eE+-]+|NaN|\+Inf|-Inf)( [0-9.eE+-]+)?)?$')
    families, buckets, counts = {}, {}, {}
    for line in text.splitlines():
        if line.startswith("# HELP "):
            continue
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ")
            assert kind in ("counter", "gauge", "histogram"), line
            families[name] = kind
            continue
        m = sample.match(line)
        assert m, f"malformed exposition line: {line!r}"
        name, labels, value = m.group(1), m.group(2) or "", m.group(3)
        assert name.startswith("bepi_"), line
        if name.endswith("_bucket"):
            le = re.search(r'le="([^"]+)"', labels).group(1)
            buckets.setdefault(name[:-7], []).append((le, float(value)))
        elif name.endswith("_count"):
            counts[name[:-6]] = float(value)
    for hist, series in buckets.items():
        values = [v for _, v in series]
        assert values == sorted(values), f"{hist} buckets not cumulative"
        assert series[-1][0] == "+Inf", f"{hist} missing +Inf bucket"
        assert series[-1][1] == counts[hist], f"{hist} +Inf != _count"
    return families

lines = [json.loads(l) for l in open(f"{work}/flood.out")]
assert len(lines) == 201, len(lines)
scrape = [l for l in lines if l.get("id") == "m"]
assert scrape and scrape[0]["ok"], "metrics verb got no response"
live = parse_exposition(scrape[0]["metrics"])
assert live.get("bepi_server_latency_seconds") == "histogram", live
for family in ("bepi_server_accepted", "bepi_server_slow_queries",
               "bepi_process_rss_bytes", "bepi_process_open_fds"):
    assert family in live, f"live scrape missing {family}"
# Every query is an offender under --slow-ms=1ns: the exemplar is a
# flood request_id on the latency histogram.
assert re.search(r'_bucket\{le="[^"]+"\} \d+ # \{request_id="flood-\d+"\}',
                 scrape[0]["metrics"]), "no request_id exemplar in scrape"
exported = parse_exposition(open(f"{work}/exported.prom").read())
assert exported.get("bepi_server_latency_seconds") == "histogram", exported
missing = {f for f, k in live.items() if k != "gauge"} - set(exported)
assert not missing, f"metrics-export lost families: {sorted(missing)}"
# Responses echo the client's request_id and carry per-stage timing.
served = [l for l in lines if l.get("ok") and "timing" in l]
assert served, "flood produced no timed responses"
assert all(l["request_id"].startswith("flood-") for l in served)
stages = served[0]["timing"]["stages"]
assert stages and stages[0]["stage"] == "ilu0+gmres", stages
slow_ids = set(re.findall(r"slow query: request_id=(\S+)",
                          open(f"{work}/flood.log").read()))
assert slow_ids & {l["request_id"] for l in served}, "slow log ids differ"
print(f"    flood: {len(served)} timed responses, strict exposition parse "
      f"ok (live + metrics-export), {len(slow_ids)} slow-query log lines")
EOF

  # 2. The acceptance scenario: every linear-algebra stage fault-injected,
  # one request degrades ilu0+gmres -> power -> mc. The response's timing
  # must name all three stages, the flight-recorder dump must reconstruct
  # the same hop sequence under the request_id, and the slow-query log
  # must attribute the same request.
  local faults="gmres.stagnate,power.stall"
  (
    printf '{"op":"query","request_id":"chain-1","seed":5}\n'
    sleep 2 # the dump verb answers inline; let the query finish first
    printf '{"op":"dump","id":"d"}\n'
  ) | BEPI_FAULT_INJECT="$faults" "$cli" serve --model="$work/model.txt" \
    --graph="$work/graph.txt" --slow-ms=0.000001 \
    >"$work/chain.out" 2>"$work/chain.log"
  grep -q 'slow query: request_id=chain-1' "$work/chain.log"
  python3 - "$work" <<'EOF'
import json, sys
work = sys.argv[1]
lines = [json.loads(l) for l in open(f"{work}/chain.out")]
expected = ["ilu0+gmres", "power", "mc"]
response = [l for l in lines if l.get("request_id") == "chain-1"][0]
assert response["ok"] and response["stage"] == "mc", response
stages = response["timing"]["stages"]
assert [s["stage"] for s in stages] == expected, stages
assert all(s["ns"] >= 0 for s in stages), stages
dump = [l for l in lines if l.get("id") == "d"][0]
hops = [e["args"]["detail"] for e in dump["flightrec"]["traceEvents"]
        if e["name"] == "stage_hop"
        and e["args"]["request_id"] == "chain-1"]
assert hops == expected, hops
print("    3-stage chain: response timing names every stage; flight "
      "recorder reconstructs the hop sequence by request_id")
EOF

  # 3. Watchdog trip auto-dump: a worker stalled by server.exec_stall past
  # --wedge-ms gets cancelled and the rings are persisted to --flight-dump
  # while the wedged request's trail is still in the buffer.
  (
    printf '{"op":"query","request_id":"wedge-1","seed":5}\n'
    sleep 1 # hold the session open so the watchdog patrols pre-drain
  ) | "$cli" serve --model="$work/model.txt" \
    --fault-inject=server.exec_stall:0:1 --watchdog-ms=10 --wedge-ms=50 \
    --flight-dump="$work/wedge_dump.json" \
    >"$work/wedge.out" 2>"$work/wedge.log"
  grep -q 'request_id=wedge-1' "$work/wedge.log"
  python3 - "$work" <<'EOF'
import json, sys
work = sys.argv[1]
dump = json.load(open(f"{work}/wedge_dump.json"))
events = dump["traceEvents"]
names = {e["name"] for e in events
         if e["args"].get("request_id") == "wedge-1"}
assert "watchdog" in names, sorted(names)
response = json.loads(open(f"{work}/wedge.out").read().splitlines()[0])
assert response["request_id"] == "wedge-1", response
assert response.get("error") in ("cancelled", "deadline_exceeded"), response
print("    watchdog trip auto-dumped a trace naming the wedged request")
EOF

  # 4. Bit-identity: the forensics features on the hot path (slow-query
  # accounting, flight recording, request tracing) must not perturb the
  # answers. Full-precision scores with and without them are compared
  # exactly (%.17g round-trips doubles).
  printf '{"op":"query","seed":3,"scores":true}\n' |
    "$cli" serve --model="$work/model.txt" >"$work/plain.out" 2>/dev/null
  printf '{"op":"query","seed":3,"scores":true}\n' |
    "$cli" serve --model="$work/model.txt" --slow-ms=0.000001 \
      --flight-dump="$work/fr.json" >"$work/instr.out" 2>/dev/null
  python3 - "$work" <<'EOF'
import json, sys
work = sys.argv[1]
plain = json.loads(open(f"{work}/plain.out").read().splitlines()[0])
instr = json.loads(open(f"{work}/instr.out").read().splitlines()[0])
assert plain["ok"] and instr["ok"]
assert len(plain["scores"]) == len(instr["scores"]) > 0
for i, (a, b) in enumerate(zip(plain["scores"], instr["scores"])):
    assert a == b, f"score {i} differs under instrumentation: {a!r} {b!r}"
print("    scores bit-identical with observability features on and off")
EOF
  rm -rf "$work"
}

bench_artifacts() {
  local build_dir="$1"
  local out="$build_dir/../artifacts"
  mkdir -p "$out"
  echo "=== benchmark artifacts ==="
  # Cheapest sizes only: the artifact's job is to prove the JSON emitters
  # work end to end, not to produce stable timings. The kernel-layer
  # benchmarks (wide vs compact, fused vs unfused, the serial triangular
  # solve and ILU(0) apply) also run at 16384, where the working set
  # leaves L2 and the index-width bandwidth effect is actually visible.
  "$build_dir/bench/bench_kernels" \
    --benchmark_filter='/4096$|/1024$|/512$|^BM_(KernelSpMV|Residual|Trisolve|Ilu0Apply)[A-Za-z]+/16384$' \
    --benchmark_min_time=0.05 \
    --benchmark_out="$out/BENCH_kernels.json" \
    --benchmark_out_format=json >/dev/null
  "$build_dir/bench/bench_fig1_query" --scale=0.05 --queries=3 \
    --json-out="$out/BENCH_fig1_query.json" >/dev/null
  "$build_dir/bench/bench_fig5_scalability" --scale=0.05 --slices=2 \
    --queries=2 --threads=4 --batch=40 \
    --json-out="$out/BENCH_parallel_scaling.json" >/dev/null
  "$build_dir/bench/bench_serve" --scale=0.05 --queries=20 \
    --json-out="$out/BENCH_serve.json" >/dev/null 2>&1
  "$build_dir/bench/bench_batch_serve" --scale=0.05 --queries=16 \
    --repeats=2 --json-out="$out/BENCH_batch_serve.json" >/dev/null 2>&1
  "$build_dir/bench/bench_mc" --scale=0.05 --queries=2 --walks=50000 \
    --json-out="$out/BENCH_mc.json" >/dev/null
  "$build_dir/bench/bench_topk" --scale=0.05 --queries=2 \
    --json-out="$out/BENCH_topk.json" >/dev/null
  # Full-scale queries here: the per-query instrumentation cost is a few
  # microseconds flat, so on toy queries it reads as tens of percent while
  # on real ones it is noise. The <2% gate is only meaningful at scale 1.
  "$build_dir/bench/bench_observability" --scale=1.0 --queries=50 --rounds=9 \
    --json-out="$out/BENCH_observability.json" >/dev/null
  python3 - "$out" <<'EOF'
import json, sys
out = sys.argv[1]
kernels = json.load(open(f"{out}/BENCH_kernels.json"))
assert kernels["benchmarks"], "BENCH_kernels.json has no benchmarks"
fig1 = json.load(open(f"{out}/BENCH_fig1_query.json"))
assert fig1["bench"] == "fig1_query", fig1.get("bench")
results = fig1["results"]
assert results, "BENCH_fig1_query.json has no results"
methods = {r["method"] for r in results}
assert "bepi" in methods, sorted(methods)
serve = json.load(open(f"{out}/BENCH_serve.json"))
assert serve["bench"] == "serve", serve.get("bench")
serve_methods = {r["method"] for r in serve["results"]}
assert "clients=1" in serve_methods and "clients=8" in serve_methods, \
    sorted(serve_methods)
batch = json.load(open(f"{out}/BENCH_batch_serve.json"))
assert batch["bench"] == "batch_serve", batch.get("bench")
brec = batch["results"]
stream = {r["method"]: r["value"] for r in brec
          if r["metric"] == "stream_bytes_per_query"}
widths = [f"k={k}" for k in (1, 2, 4, 8, 16)]
assert all(w in stream for w in widths), sorted(stream)
per_query = [stream[w] for w in widths]
assert per_query == sorted(per_query, reverse=True), \
    f"per-query stream bytes must fall with batch width: {per_query}"
cache = {r["metric"]: r["value"] for r in brec if r["method"] == "cache"}
assert cache["hit_p50_ms"] < cache["cold_p50_ms"], cache
assert cache["p50_speedup"] > 1.5, cache  # >=10x at scale 1; toy graphs
                                          # are protocol-bound
scaling = json.load(open(f"{out}/BENCH_parallel_scaling.json"))
assert scaling["bench"] == "parallel_scaling", scaling.get("bench")
srec = scaling["results"]
assert srec, "BENCH_parallel_scaling.json has no results"
widths = {r["method"] for r in srec}
assert "threads=1" in widths and "threads=4" in widths, sorted(widths)
ident = [r for r in srec if r["metric"] == "bit_identical"]
assert ident and all(r["value"] == 1.0 for r in ident), ident
mc = json.load(open(f"{out}/BENCH_mc.json"))
assert mc["bench"] == "mc", mc.get("bench")
mrec = mc["results"]
assert mrec, "BENCH_mc.json has no results"
in_bound = [r for r in mrec if r["metric"] == "within_bound"]
assert in_bound and all(r["value"] == 1.0 for r in in_bound), in_bound
mc_ident = [r for r in mrec if r["metric"] == "bit_identical"]
assert mc_ident and all(r["value"] == 1.0 for r in mc_ident), mc_ident
topk = json.load(open(f"{out}/BENCH_topk.json"))
assert topk["bench"] == "topk", topk.get("bench")
trec = topk["results"]
assert trec, "BENCH_topk.json has no results"
exact = [r for r in trec if r["metric"] == "exact_match"]
assert exact and all(r["value"] == 1.0 for r in exact), exact
obs = json.load(open(f"{out}/BENCH_observability.json"))
assert obs["bench"] == "observability", obs.get("bench")
orec = obs["results"]
obs_ident = [r for r in orec if r["metric"] == "bit_identical"]
assert obs_ident and all(r["value"] == 1.0 for r in obs_ident), obs_ident
overhead = [r for r in orec if r["metric"] == "overhead_percent"]
assert overhead and all(r["value"] < 2.0 for r in overhead), overhead
print(f"    {len(kernels['benchmarks'])} kernel benchmarks, "
      f"{len(results)} fig1 records, {len(srec)} scaling records, "
      f"{len(mrec)} mc records, {len(trec)} topk records, "
      f"{len(orec)} observability records")
EOF
}

for config in "${configs[@]}"; do
  case "$config" in
    default) sanitize="" ;;
    address | undefined | thread) sanitize="$config" ;;
    *)
      echo "unknown configuration: $config" \
        "(want default|address|undefined|thread)" >&2
      exit 2
      ;;
  esac
  build_dir="build-ci/$config"
  echo "=== [$config] configure ==="
  cmake -B "$build_dir" -S . -DBEPI_SANITIZE="$sanitize" >/dev/null
  if [ "$config" = thread ]; then
    # TSan pass: the telemetry tests (sharded registry, per-thread trace
    # buffers), the parallel layer (work-stealing pool, TaskGroup, a wide
    # solve span's panels) and the kernel layer (row-partitioned SpMV at any
    # thread count beside an ILU(0) apply that runs serially) are the
    # concurrency-bearing surface.
    echo "=== [$config] build (test_metrics, test_trace, test_parallel," \
      "test_kernel, test_cancel, test_mc, test_topk, test_server," \
      "test_cache, test_flightrec, test_promtext) ==="
    cmake --build "$build_dir" -j "$jobs" \
      --target test_metrics test_trace test_parallel test_kernel \
      test_cancel test_mc test_topk test_server test_cache \
      test_flightrec test_promtext
    # At more than one worker thread even on a small runner, so the pool
    # and the parallel kernels really race.
    echo "=== [$config] test (BEPI_THREADS=$((jobs > 4 ? jobs : 4))) ==="
    export BEPI_THREADS="$((jobs > 4 ? jobs : 4))"
    "$build_dir/tests/test_metrics"
    "$build_dir/tests/test_trace"
    "$build_dir/tests/test_parallel"
    "$build_dir/tests/test_kernel"
    "$build_dir/tests/test_cancel"
    "$build_dir/tests/test_mc"
    "$build_dir/tests/test_topk"
    "$build_dir/tests/test_server"
    "$build_dir/tests/test_cache"
    "$build_dir/tests/test_flightrec"
    "$build_dir/tests/test_promtext"
    unset BEPI_THREADS
    continue
  fi
  echo "=== [$config] build ==="
  cmake --build "$build_dir" -j "$jobs"
  if [ "$config" = default ]; then
    # Serial and real-core passes: the parallel layer must terminate and
    # agree at any thread count.
    for threads in 1 "$((jobs > 4 ? jobs : 4))"; do
      echo "=== [$config] test (BEPI_THREADS=$threads) ==="
      BEPI_THREADS="$threads" ctest --test-dir "$build_dir" \
        --output-on-failure -j "$jobs"
    done
    smoke_flag_rejections "$build_dir/tools/bepi_cli"
    smoke_kill_resume "$build_dir/tools/bepi_cli"
    smoke_telemetry "$build_dir/tools/bepi_cli"
    smoke_kernel_paths "$build_dir/tools/bepi_cli"
    smoke_seeds_file "$build_dir/tools/bepi_cli"
    smoke_serve "$build_dir/tools/bepi_cli"
    smoke_batch_serve "$build_dir/tools/bepi_cli"
    smoke_crosscheck "$build_dir/tools/bepi_cli"
    smoke_topk "$build_dir/tools/bepi_cli"
    smoke_observability "$build_dir/tools/bepi_cli"
    bench_artifacts "$build_dir"
    echo "=== docs cross-check ==="
    tools/check_docs.sh "$build_dir/tools/bepi_cli"
  else
    echo "=== [$config] test ==="
    ctest --test-dir "$build_dir" --output-on-failure -j "$jobs"
  fi
done

echo "=== all configurations passed ==="
