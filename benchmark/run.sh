#!/usr/bin/env bash
# Builds maliva_bench into build-bench/ and runs it. Run from anywhere;
# paths are relative to the repository root.
#
#   benchmark/run.sh --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>]
#       One run of one workload. The last line of stdout is the JSON result;
#       build output goes to stderr. The run JSON lands in build-bench/out/.
#   benchmark/run.sh [--seed <n>] [--out <dir>] [--smoke]
#       Every workload untraced, then every workload traced.
#   benchmark/run.sh --pairs <N> --parent <build-dir> --change <build-dir>
#                    [--seed <n>] [--out <dir>] [--smoke]
#       N pairs of untraced runs of every workload, alternating which side
#       runs first, then compare.py on the two result sets.
#   benchmark/run.sh --selfcheck
#       Smoke runs twice with seed 1 (decision digests and exact decision
#       metrics must be identical) and once with seed 2 (digests must differ).
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
build=build-bench

build_bench() {
  if [[ ! -f CMakeLists.txt || ! -d src ]]; then
    echo "run.sh: the library sources (CMakeLists.txt, src/) are not in $root" >&2
    exit 2
  fi
  mkdir -p "$build"
  (
    flock 9
    if [[ ! -f "$build/CMakeCache.txt" ]]; then
      cmake -S benchmark -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
    fi
    cmake --build "$build" -j "$(nproc)" >&2
  ) 9>"$build/.lock"
}

selfcheck() {
  build_bench
  local dir="$build/selfcheck"
  rm -rf "$dir"
  for run in a b; do
    "$build/maliva_bench" --workload all --seed 1 --smoke --out "$dir/$run" >/dev/null
  done
  "$build/maliva_bench" --workload all --seed 2 --smoke --out "$dir/c" >/dev/null
  python3 - "$dir" <<'PY'
import json, sys
d = sys.argv[1]
ok = True
for w in ["cold_explore", "warm_replan", "hot_dashboard", "open_gated"]:
    a, b, c = (json.load(open(f"{d}/{r}/{w}.json")) for r in "abc")
    if a["deterministic"]:  # closed loops: decisions are a function of the seed
        same = a["decision_digest"] == b["decision_digest"] and all(
            a["metrics"][m] == b["metrics"][m] for m in a["exact_metrics"])
        print(f"{w}: seed 1 twice {'identical' if same else 'DIFFERENT'}")
        ok = ok and same
    differs = a["decision_digest"] != c["decision_digest"]
    print(f"{w}: seed 2 digest {'differs' if differs else 'EQUALS seed 1'}")
    ok = ok and differs
print("selfcheck passed" if ok else "selfcheck FAILED")
sys.exit(0 if ok else 1)
PY
}

case "${1:-}" in
  --workload)
    build_bench
    exec "$build/maliva_bench" "$@" --out "$build/out"
    ;;
  --selfcheck)
    selfcheck
    exit
    ;;
esac

seed=1
out=""
smoke=()
pairs=0
parent=""
change=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --seed) seed=$2; shift 2 ;;
    --out) out=$2; shift 2 ;;
    --smoke) smoke=(--smoke); shift ;;
    --pairs) pairs=$2; shift 2 ;;
    --parent) parent=$2; shift 2 ;;
    --change) change=$2; shift 2 ;;
    *) echo "run.sh: unknown argument $1 (see the header of this script)" >&2; exit 2 ;;
  esac
done

if [[ $pairs -gt 0 ]]; then
  if [[ -z $parent || -z $change ]]; then
    echo "run.sh: --pairs needs --parent and --change build directories" >&2
    exit 2
  fi
  out=${out:-$build/pairs}
  for ((i = 1; i <= pairs; i++)); do
    sides=(parent change)
    ((i % 2 == 0)) && sides=(change parent)
    for side in "${sides[@]}"; do
      bin=$parent/maliva_bench
      [[ $side == change ]] && bin=$change/maliva_bench
      echo "pair $i: $side" >&2
      "$bin" --workload all --seed "$seed" ${smoke[@]+"${smoke[@]}"} \
        --out "$out/$side/$i" >/dev/null || echo "pair $i: $side run failed its checks" >&2
    done
  done
  exec python3 benchmark/compare.py "$out/parent" "$out/change"
fi

build_bench
out=${out:-$build/out}
rc=0
"$build/maliva_bench" --workload all --seed "$seed" ${smoke[@]+"${smoke[@]}"} --out "$out" || rc=1
"$build/maliva_bench" --workload all --seed "$seed" ${smoke[@]+"${smoke[@]}"} --trace 1 \
  --out "$out" || rc=1
exit $rc
