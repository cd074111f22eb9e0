#!/usr/bin/env bash
# Docs <-> binary cross-check: every --flag and BEPI_* environment
# variable mentioned in README.md / docs/ must resolve to something real
# (bepi_cli help output, a Flags lookup in the source tree, a known
# third-party flag, or a getenv/macro in the source), and every
# environment variable the code actually reads must be documented in
# docs/OPERATIONS.md. The metric glossary in docs/OPERATIONS.md is
# additionally cross-checked both ways: every key the binary's
# --metrics-out snapshots emit must have a glossary row, and every
# glossary row must name a metric registered in src/. Run by
# tools/ci.sh in the default configuration.
#
# Usage: tools/check_docs.sh [path/to/bepi_cli]
set -euo pipefail

cd "$(dirname "$0")/.."

cli="${1:-}"
if [ -z "$cli" ]; then
  for candidate in build/tools/bepi_cli build-ci/default/tools/bepi_cli; do
    [ -x "$candidate" ] && cli="$candidate" && break
  done
fi
if [ -z "$cli" ] || [ ! -x "$cli" ]; then
  echo "check_docs: bepi_cli binary not found (pass its path)" >&2
  exit 2
fi

docs=(README.md DESIGN.md EXPERIMENTS.md docs/ARCHITECTURE.md docs/OPERATIONS.md docs/SERVING.md)
for doc in "${docs[@]}"; do
  if [ ! -f "$doc" ]; then
    echo "check_docs: missing documentation file $doc" >&2
    exit 1
  fi
done

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

# --- Known flags -----------------------------------------------------------
# 1. Everything bepi_cli prints in its usage and per-command help.
"$cli" help >"$workdir/help.txt" 2>&1 || true
grep -E '^  [a-z][a-z-]+ ' "$workdir/help.txt" | awk '{print $1}' |
  sort -u >"$workdir/commands.txt"
while read -r cmd; do
  "$cli" help "$cmd" >>"$workdir/help.txt" 2>&1 || true
done <"$workdir/commands.txt"

# 2. Every flag any binary in the tree looks up through common/flags.
grep -rhoE '(GetString|GetInt|GetDouble|GetBool|Has)\("[a-z][a-z0-9_-]*"' \
  src tools bench examples |
  sed -E 's/.*\("([a-z][a-z0-9_-]*)"/--\1/' >"$workdir/known_flags.txt"
grep -oE -- '--[a-z][a-z0-9_-]+' "$workdir/help.txt" >>"$workdir/known_flags.txt"
# 3. Third-party flags legitimately mentioned in the docs: google
#    benchmark's native flags, ctest options, cmake --build.
cat >>"$workdir/known_flags.txt" <<'EOF'
--benchmark_filter
--benchmark_min_time
--benchmark_out
--benchmark_out_format
--test-dir
--output-on-failure
--gtest_filter
--build
EOF
sort -u "$workdir/known_flags.txt" -o "$workdir/known_flags.txt"

grep -hoE -- '--[a-z][a-z0-9_-]+' "${docs[@]}" | sort -u \
  >"$workdir/doc_flags.txt"

bad_flags="$(comm -23 "$workdir/doc_flags.txt" "$workdir/known_flags.txt")"
if [ -n "$bad_flags" ]; then
  echo "check_docs: documented flags with no implementation:" >&2
  echo "$bad_flags" >&2
  exit 1
fi

# --- Known environment variables -------------------------------------------
# getenv() calls, the BEPI_SANITIZE CMake cache variable, and BEPI_*
# macro names (so prose about BEPI_CHECK etc. is not flagged as a
# phantom env var).
{
  grep -rh 'getenv' src tools bench examples | grep -oE 'BEPI_[A-Z_]+' || true
  echo "BEPI_SANITIZE"
  grep -rhoE '#define (BEPI_[A-Z_]+)' src | awk '{print $2}'
} | sort -u >"$workdir/known_envs.txt"

grep -hoE 'BEPI_[A-Z_]+' "${docs[@]}" | sort -u >"$workdir/doc_envs.txt"

# Prose like "the BEPI_METRIC_* macros" extracts as the prefix
# "BEPI_METRIC_"; accept a doc token when it is a prefix of a known name.
bad_envs="$(while read -r token; do
  grep -q "^$token" "$workdir/known_envs.txt" || echo "$token"
done <"$workdir/doc_envs.txt")"
if [ -n "$bad_envs" ]; then
  echo "check_docs: documented BEPI_* names the code never reads/defines:" >&2
  echo "$bad_envs" >&2
  exit 1
fi

# Reverse direction: every env var the code reads must be documented in
# OPERATIONS.md (macros are exempt — they are API, not operations).
undocumented="$(
  {
    grep -rh 'getenv' src tools bench examples | grep -oE 'BEPI_[A-Z_]+' || true
    echo "BEPI_SANITIZE"
  } | sort -u | while read -r var; do
    grep -q "$var" docs/OPERATIONS.md || echo "$var"
  done
)"
if [ -n "$undocumented" ]; then
  echo "check_docs: env vars read by the code but absent from docs/OPERATIONS.md:" >&2
  echo "$undocumented" >&2
  exit 1
fi

# Every subcommand must be covered in OPERATIONS.md.
missing_cmds="$(while read -r cmd; do
  grep -q "### $cmd" docs/OPERATIONS.md || echo "$cmd"
done <"$workdir/commands.txt")"
if [ -n "$missing_cmds" ]; then
  echo "check_docs: bepi_cli commands missing from docs/OPERATIONS.md:" >&2
  echo "$missing_cmds" >&2
  exit 1
fi

# --- Metric glossary -------------------------------------------------------
# Both directions against the "## Metric glossary" table in
# docs/OPERATIONS.md:
#  1. every metric key that instrumented runs (preprocess, a fully
#     fault-injected query, a serve session) actually emit in their
#     --metrics-out snapshots must match a glossary row — rows may use
#     <placeholder> wildcards like solver.attempts.<stage>;
#  2. every glossary row must correspond to a metric name registered
#     somewhere in src/ (BEPI_METRIC_* / Get{Counter,Gauge,Histogram}),
#     so a renamed or deleted metric cannot linger in the docs.
"$cli" generate --out="$workdir/g.txt" --nodes=400 --edges=1800 \
  --deadends=0.2 --seed=7 >/dev/null
"$cli" preprocess --graph="$workdir/g.txt" --model="$workdir/m.txt" \
  --metrics-out="$workdir/metrics_pre.json" >/dev/null 2>&1
BEPI_FAULT_INJECT=gmres.stagnate,power.stall \
  "$cli" query --model="$workdir/m.txt" --graph="$workdir/g.txt" \
  --seed-node=5 --metrics-out="$workdir/metrics_query.json" >/dev/null 2>&1
printf '{"op":"query","seed":1}\n' |
  "$cli" serve --model="$workdir/m.txt" --slow-ms=0.000001 \
    --metrics-out="$workdir/metrics_serve.json" >/dev/null 2>&1
grep -rhE 'BEPI_METRIC_|GetCounter\(|GetGauge\(|GetHistogram\(' src |
  grep -oE '"[a-z][a-z0-9_.+]+"' | tr -d '"' | sort -u \
  >"$workdir/registered_metrics.txt"
python3 - "$workdir" <<'EOF'
import json, re, sys
work = sys.argv[1]
doc = open("docs/OPERATIONS.md").read()
section = re.search(r"## Metric glossary\n(.*?)(?:\n## |\Z)", doc, re.S)
assert section, "docs/OPERATIONS.md has no '## Metric glossary' section"
rows = re.findall(r"`([a-z][a-z0-9_.+]*(?:<[a-z]+>)?[a-z0-9_.+]*)`",
                  section.group(1))
rows = sorted(set(r for r in rows if "." in r))
assert rows, "metric glossary has no rows"

def to_regex(row):
    parts = re.split(r"(<[^>]+>)", row)
    return re.compile("^" + "".join(
        "[A-Za-z0-9_+]+" if p.startswith("<") else re.escape(p)
        for p in parts) + "$")

patterns = [(row, to_regex(row)) for row in rows]
emitted = set()
for run in ("pre", "query", "serve"):
    snap = json.load(open(f"{work}/metrics_{run}.json"))
    for kind in ("counters", "gauges", "histograms"):
        emitted |= set(snap.get(kind, {}))
undocumented = [k for k in sorted(emitted)
                if not any(p.match(k) for _, p in patterns)]
assert not undocumented, (
    f"metrics emitted but absent from the glossary: {undocumented}")
registered = set(open(f"{work}/registered_metrics.txt").read().split())
stale = []
for row, _ in patterns:
    prefix = row.split("<")[0]
    if "<" in row:
        if not any(n.startswith(prefix) for n in registered):
            stale.append(row)
    elif row not in registered:
        stale.append(row)
assert not stale, f"glossary rows with no registered metric: {stale}"
print(f"check_docs: metric glossary covers all {len(emitted)} emitted "
      f"keys; all {len(patterns)} glossary rows are registered in src/")
EOF

# --- Serve protocol reference ----------------------------------------------
# docs/SERVING.md is the wire reference for `serve`, cross-checked both
# ways against the binary and the protocol implementation:
#  1. its flag table must list exactly the serve-specific flags that
#     `bepi_cli help serve` prints (before the "global flags" section);
#  2. every request key ParseRequest accepts, every response key the
#     server emits, and every stable error code must appear backticked
#     in SERVING.md — so a new or renamed field cannot ship undocumented;
#  3. every first-column `field` in SERVING.md's tables must be parsed
#     or emitted somewhere in src/server/ — so a stale field cannot
#     linger in the docs.
"$cli" help serve >"$workdir/help_serve.txt" 2>&1 || true
python3 - "$workdir" <<'EOF'
import re, sys
work = sys.argv[1]
doc = open("docs/SERVING.md").read()
src = ""
for f in ("server.cpp", "server.hpp", "protocol.cpp", "protocol.hpp",
          "admission.cpp", "admission.hpp", "cache.cpp", "cache.hpp"):
    src += open(f"src/server/{f}").read()

# Flags: help serve's serve-specific section vs the SERVING.md table.
help_text = open(f"{work}/help_serve.txt").read()
serve_help = help_text.split("global flags:")[0]
help_flags = set(re.findall(r"--[a-z][a-z0-9-]+", serve_help))
doc_flags = set(re.findall(r"^\| `(--[a-z][a-z0-9-]+)", doc, re.M))
assert doc_flags == help_flags, (
    "SERVING.md flag table out of sync with `bepi_cli help serve`: "
    f"missing {sorted(help_flags - doc_flags)}, "
    f"stale {sorted(doc_flags - help_flags)}")

# Protocol schema: request keys, emitted response keys, error codes.
request_keys = set(re.findall(r'key == "([a-z_]+)"', src)) | {"op"}
emitted_keys = (set(re.findall(r'\\"([a-z][a-z0-9_]*)\\":', src)) |
                set(re.findall(r'field\("([a-z0-9_]+)"', src)))
error_codes = set(
    re.findall(r'inline constexpr char k\w+\[\] = "([a-z_]+)"', src))
known = request_keys | emitted_keys | error_codes
documented = set(re.findall(r"`([a-z][a-z0-9_]*)`", doc))
undocumented = sorted((request_keys | emitted_keys | error_codes)
                      - documented)
assert not undocumented, (
    f"protocol names absent from SERVING.md: {undocumented}")
table_fields = set(re.findall(r"^\| `([a-z][a-z0-9_]*)`", doc, re.M))
stale = sorted(table_fields - known)
assert not stale, (
    f"SERVING.md documents fields src/server/ never parses or emits: "
    f"{stale}")
print(f"check_docs: SERVING.md covers all {len(help_flags)} serve flags, "
      f"{len(request_keys)} request keys, {len(emitted_keys)} response "
      f"keys and {len(error_codes)} error codes; all "
      f"{len(table_fields)} table fields are real")
EOF

echo "check_docs: $(wc -l <"$workdir/doc_flags.txt") flags and" \
  "$(wc -l <"$workdir/doc_envs.txt") BEPI_* names verified across" \
  "${#docs[@]} documentation files"
