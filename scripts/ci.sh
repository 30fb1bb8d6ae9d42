#!/usr/bin/env bash
# Tier-1 verification sequence: docs check, configure, build, test.
#
# Every library source under src/ is held to -Wall -Wextra with warnings
# treated as errors; tests, benches and examples build with default flags.
#
#   scripts/ci.sh          # docs check + regular build + full test suite
#   scripts/ci.sh --docs   # docs check only (no build): README/docs/DESIGN
#                          # relative links resolve, every bench_*.cc has
#                          # a docs/experiments.md entry, and every README
#                          # knob-table row names a field (and setter) the
#                          # service config headers declare
#   scripts/ci.sh --tsan   # additionally: ThreadSanitizer build (build-tsan/)
#                          # running the whole test suite in one process
#   scripts/ci.sh --asan   # additionally: AddressSanitizer + UBSan build
#                          # (build-asan/) running the whole test suite
#   scripts/ci.sh --claims # additionally: the paper-claims gate
#                          # (build/bench_paper_claims, ~4 min): prints
#                          # every claim's verdict and the known-failing
#                          # list, and fails on a claim that fails off the
#                          # list or holds on it; the figure tables go to
#                          # build/paper_claims.txt
#   scripts/ci.sh --bench  # additionally: benchmark determinism self-check
#                          # (benchmark/run.sh --selfcheck, Release build in
#                          # build-bench/): smoke runs of every maliva_bench
#                          # workload twice at seed 1 must give identical
#                          # decision digests and exact metrics, and a seed-2
#                          # run must give different digests (~1 min), and
#                          # the seed-1 digests of the closed loops must
#                          # equal the ones pinned in scripts/bench_digests.txt
set -euo pipefail

cd "$(dirname "$0")/.."

# Docs leg: every relative markdown link in README.md, DESIGN.md, and docs/
# must resolve to a file or directory, every bench binary must have an
# entry in docs/experiments.md (the authoritative experiment index), and
# every README knob-table row must name a declared config field.
check_docs() {
  echo "== docs check: links + experiment coverage =="
  local fail=0
  local doc dir link target
  for doc in README.md DESIGN.md docs/*.md; do
    [[ -f "$doc" ]] || continue
    dir="$(dirname "$doc")"
    # Markdown link targets: the (...) of ](...) occurrences, with fenced
    # code blocks skipped (example snippets are not links) and optional
    # quoted titles ([text](file "title")) stripped.
    while IFS= read -r link; do
      case "$link" in
        http://*|https://*|mailto:*|\#*) continue ;;
      esac
      target="${link%%#*}"
      target="${target%% \"*}"
      [[ -n "$target" ]] || continue
      if [[ ! -e "$dir/$target" ]]; then
        echo "BROKEN LINK in $doc: ($link)"
        fail=1
      fi
    done < <(awk '/^[[:space:]]*```/ { fence = !fence; next } !fence' "$doc" \
               | grep -oE '\]\([^)]+\)' | sed -E 's/^\]\(//; s/\)$//')
  done
  local bench name
  for bench in bench/bench_*.cc; do
    name="$(basename "$bench" .cc)"
    if ! grep -q "$name" docs/experiments.md; then
      echo "MISSING EXPERIMENT DOC: $name has no entry in docs/experiments.md"
      fail=1
    fi
  done
  # Knob tables: every README row under a "| knob (setter) |" header must
  # name a field, and the setter in parentheses if it lists one, that the
  # config headers still declare, so a deleted knob cannot linger in the
  # docs.
  local headers=(src/service/service.h src/service/service_fleet.h
                 src/service/admission_controller.h)
  local row field setter
  while IFS= read -r row; do
    field="$(sed -E 's/^\| `([A-Za-z_]+)`.*/\1/' <<<"$row")"
    if ! grep -qE "^[[:space:]]+[A-Za-z0-9_:<>, ]+[[:space:]]${field}( = [^;]*)?;" "${headers[@]}"; then
      echo "UNKNOWN KNOB in README.md: ${field} is not a field of ${headers[*]}"
      fail=1
    fi
    setter="$(sed -nE 's/^\| `[A-Za-z_]+` \(`(With[A-Za-z]+).*/\1/p' <<<"$row")"
    if [[ -n "$setter" ]] && ! grep -qE "& ${setter}\(" "${headers[@]}"; then
      echo "UNKNOWN SETTER in README.md: ${setter} (row ${field}) is not declared in ${headers[*]}"
      fail=1
    fi
  done < <(awk '/^\| knob \(setter\) \|/ { table = 1; next }
               table && /^\|/ { if ($0 !~ /^\|-/) print; next }
               { table = 0 }' README.md)
  if [[ "$fail" != 0 ]]; then
    echo "docs check FAILED" >&2
    exit 1
  fi
  echo "docs check OK"
}

# Pinned decisions: each "<workload> <digest>" line of scripts/bench_digests.txt
# must match the decision_digest of <workload>.json in the given maliva_bench
# output directory.
check_bench_digests() {
  local dir="$1" fail=0 workload want got
  echo "== benchmark digests: ${dir} against scripts/bench_digests.txt =="
  while read -r workload want; do
    [[ -z "$workload" || "$workload" == \#* ]] && continue
    got="$(sed -nE 's/.*"decision_digest": "([0-9a-f]+)".*/\1/p' "${dir}/${workload}.json")"
    if [[ "$got" == "$want" ]]; then
      echo "${workload}: ${got} as pinned"
    else
      echo "DIGEST MISMATCH ${workload}: pinned ${want}, got ${got:-none}"
      fail=1
    fi
  done < scripts/bench_digests.txt
  if [[ "$fail" != 0 ]]; then
    echo "benchmark digests FAILED" >&2
    exit 1
  fi
}

run_tsan=0
run_asan=0
run_bench=0
run_claims=0
docs_only=0
for arg in "$@"; do
  case "$arg" in
    --docs) docs_only=1 ;;
    --tsan) run_tsan=1 ;;
    --asan) run_asan=1 ;;
    --bench) run_bench=1 ;;
    --claims) run_claims=1 ;;
    *) echo "unknown option: $arg (supported: --docs, --tsan, --asan, --bench, --claims)" >&2; exit 2 ;;
  esac
done

check_docs
if [[ "$docs_only" == 1 && "$run_tsan" == 0 && "$run_asan" == 0 && "$run_bench" == 0 &&
      "$run_claims" == 0 ]]; then
  exit 0
fi

cmake -B build -S . -DMALIVA_WERROR=ON
cmake --build build -j"$(nproc)"
ctest --test-dir build --output-on-failure -j"$(nproc)"

# One bench smoke leg: run `./build/<bench> --smoke --out build/<json>` (the
# binary's own acceptance checks gate the exit code), then validate the
# emitted JSON against the schema snippet fed on stdin (python3 source
# reading the path from $BENCH_JSON; validation is skipped when python3 is
# unavailable).
run_bench_smoke() {
  local title="$1" bench="$2" json="$3"
  local schema
  schema="$(cat)"
  echo "== ${title}: ${bench} --smoke =="
  "./build/${bench}" --smoke --out "build/${json}"
  if command -v python3 >/dev/null 2>&1; then
    BENCH_JSON="build/${json}" python3 -c "$schema" \
      || { echo "${json} schema check failed" >&2; exit 1; }
    echo "${json} schema OK"
  else
    echo "python3 unavailable; skipping JSON validation"
  fi
}

# Overload-plane smoke: nonzero shed + degrade, admitted p95 inside the
# budget (the binary's checks); the JSON must parse.
run_bench_smoke "overload smoke" bench_overload BENCH_admission.json <<'EOF'
import json, os
json.load(open(os.environ['BENCH_JSON']))
EOF

# Selectivity-tier smoke: >=2x cold-serve speedup with the histogram tier
# on, estimate error below the demotion threshold, rung-1 hits on the warm
# pass.
run_bench_smoke "selectivity-tier smoke" bench_selectivity_tiers BENCH_selectivity.json <<'EOF'
import json, os
d = json.load(open(os.environ['BENCH_JSON']))
assert d['bench'] == 'bench_selectivity_tiers'
for key in ('off_qps', 'on_qps', 'speedup', 'on_histogram_slots'):
    assert key in d['cold'], key
assert d['cold']['on_histogram_slots'] > 0
assert d['accuracy']['mean_abs_rel_error'] < d['accuracy']['demotion_threshold']
for rung in ('shared', 'histogram', 'probe'):
    assert rung in d['ladder']['pass1'] and rung in d['ladder']['pass2'], rung
EOF

# Rewrite-cache smoke: >=3x hot-stream speedup with the cache on, zero
# hit/miss byte mismatches, single-flight + in-batch dedup coalescing.
run_bench_smoke "rewrite-cache smoke" bench_rewrite_cache BENCH_rewrite_cache.json <<'EOF'
import json, os
d = json.load(open(os.environ['BENCH_JSON']))
assert d['bench'] == 'bench_rewrite_cache'
for key in ('off_qps', 'on_qps', 'speedup', 'hits', 'misses'):
    assert key in d['hot'], key
assert d['hot']['speedup'] >= 3.0
assert d['equality']['compared'] > 0 and d['equality']['mismatches'] == 0
assert d['burst']['searches'] < d['burst']['threads']
assert d['batch']['searches'] == 1
assert d['batch']['replays'] == d['batch']['copies'] - 1
EOF

# Replay smoke: golden-trace digests identical across thread counts and
# profiler/admission variants AND matching the committed tests/data goldens;
# overload phase degrades + sheds (and trips the SLO watchdog, while the
# steady phase does not); burst phase sheds on queue overflow.
run_bench_smoke "replay smoke" bench_replay BENCH_replay.json <<'EOF'
import json, os
d = json.load(open(os.environ['BENCH_JSON']))
assert d['bench'] == 'bench_replay'
assert d['determinism']['match'] is True
assert d['determinism']['golden'] == 'ok'
for phase in ('steady', 'overload_2x', 'flash_burst'):
    p = d['phases'][phase]
    assert 'latency_ms' in p and 'scenarios' in p, phase
    assert p['errors'] == 0, phase
over = d['phases']['overload_2x']
assert over['degraded'] + over['shed_overload'] + over['shed_deadline'] > 0
assert d['phases']['flash_burst']['shed_overload'] > 0
assert not any(s['breached'] for s in d['slo']['steady'])
assert any(s['breached'] for s in d['slo']['overload_2x'])
prof = d['phases']['golden_profiled']
assert prof['profiled'] == prof['records'] > 0
assert prof['profile_ms']['search'] > 0.0
EOF

# Metrics-plane smoke: zero registry lookups on the serve hot path, one
# flusher window carrying every serve, FleetStats counting exactly the
# requests the window counts (one counter store behind both), exporters
# rendering the expected series, bounded trace-ring retention.
run_bench_smoke "metrics-plane smoke" bench_metrics_plane BENCH_metrics.json <<'EOF'
import json, os
d = json.load(open(os.environ['BENCH_JSON']))
assert d['bench'] == 'bench_metrics_plane'
assert d['serve_lookups'] == 0
assert d['window_requests'] == d['serves'] > 0
assert d['stats_requests'] == d['window_requests']
assert d['prometheus_bytes'] > 0 and d['json_bytes'] > 0
assert d['ring_appended'] >= d['ring_retained'] > 0
EOF

# One sanitizer leg: build maliva_tests with the given cmake flags and run
# the whole binary in one process (ctest would start a process per test and
# rebuild each suite's shared fixture every time). The leg prints how many
# tests passed and fails when that is below what --gtest_list_tests lists,
# so no filter can shrink it silently.
run_sanitizer_leg() {
  local title="$1" dir="$2"
  shift 2
  cmake -B "$dir" -S . "$@" \
    -DMALIVA_BUILD_BENCHES=OFF -DMALIVA_BUILD_EXAMPLES=OFF \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "$dir" -j"$(nproc)" --target maliva_tests
  local listed passed start
  listed="$(env -u GTEST_FILTER "$dir/maliva_tests" --gtest_list_tests | grep -c '^  ')"
  echo "== ${title}: maliva_tests, ${listed} tests in one process =="
  start=$SECONDS
  "$dir/maliva_tests" 2>&1 | tee "$dir/sanitizer_leg.log"
  passed="$(sed -nE 's/^\[  PASSED  \] ([0-9]+) tests?\.$/\1/p' "$dir/sanitizer_leg.log")"
  echo "${title}: ${passed:-0} of ${listed} tests passed in $((SECONDS - start)) s"
  if (( ${passed:-0} < listed )); then
    echo "${title}: fewer tests passed than the binary lists" >&2
    exit 1
  fi
}

if [[ "$run_tsan" == 1 ]]; then
  TSAN_OPTIONS="halt_on_error=1" \
    run_sanitizer_leg "TSan" build-tsan -DMALIVA_TSAN=ON
fi

if [[ "$run_asan" == 1 ]]; then
  ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="print_stacktrace=1" \
    run_sanitizer_leg "ASan+UBSan" build-asan -DMALIVA_ASAN=ON
fi

if [[ "$run_claims" == 1 ]]; then
  # Paper-claims leg: the binary's exit status is the gate. Its stderr (one
  # verdict per claim, then the known-failing list) stays on the console.
  echo "== paper claims: bench_paper_claims (tables in build/paper_claims.txt) =="
  ./build/bench_paper_claims > build/paper_claims.txt
fi

if [[ "$run_bench" == 1 ]]; then
  # Benchmark leg: the decision digests maliva_bench reports are a function
  # of the seed alone, so a change that keeps decisions must keep them.
  echo "== benchmark self-check: benchmark/run.sh --selfcheck =="
  benchmark/run.sh --selfcheck
  check_bench_digests build-bench/selfcheck/a
fi
