#!/usr/bin/env bash
# The end-to-end serving benchmark in one command (bench/e2e/README.md).
#
#   bench/e2e/run.sh [--seed N] [--smoke] [--traced] [--out DIR]
#       Builds apnn_bench, runs every workload in its own process and prints
#       each metric as "workload metric value unit". --traced adds one traced
#       run per workload (per-layer metrics, span files) and prints the
#       tracing overhead. --smoke runs each workload for 2 s.
#
#   bench/e2e/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       Builds, then runs one workload once. The last stdout line is the
#       result JSON ({"correct", "attempted", "failed", "metrics"}).
#
# Paths resolve against the repository root: the build goes to
# .bench_build/e2e, results (one JSON per run, span files) to DIR, by default
# .bench_build/e2e/results.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/.bench_build/e2e"
out="$build/results"
seed=1
seconds=25
smoke=0
traced=0
workload=""
trace=0

while (($#)); do
  case "$1" in
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --smoke) smoke=1; shift ;;
    --traced) traced=1; shift ;;
    --out) out="$2"; shift 2 ;;
    --workload) workload="$2"; shift 2 ;;
    --trace) trace="$2"; shift 2 ;;
    *) echo "run.sh: unknown argument '$1'" >&2; exit 2 ;;
  esac
done

jobs="$(nproc)"
((jobs > 4)) && jobs=4
cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" --target apnn_bench -j "$jobs" >&2
mkdir -p "$out"
cd "$root"

if [[ -n "$workload" ]]; then
  exec "$build/apnn_bench" --workload "$workload" --seed "$seed" \
    --seconds "$seconds" --trace "$trace" --out "$out"
fi

extra=()
if ((smoke)); then
  seconds=2
  extra=(--smoke)
fi
log="$out/run-s$seed.txt"
: >"$log"
for w in resnet_open vgg_batch transformer_mixed coresident_reload; do
  "$build/apnn_bench" --workload "$w" --seed "$seed" --seconds "$seconds" \
    --trace 0 --out "$out" "${extra[@]}" | grep -v '^{' | tee -a "$log"
  if ((traced)); then
    "$build/apnn_bench" --workload "$w" --seed "$seed" --seconds "$seconds" \
      --trace 1 --out "$out" "${extra[@]}" | grep -v '^{' | tee -a "$log"
  fi
done

if ((traced)); then
  echo "# tracing overhead: traced minus untraced p50_ms, per workload"
  awk '$2 == "p50_ms" { u[$1] = $3 } $2 == "loadgen.traced_p50_ms" { t[$1] = $3 }
       END { for (w in u) if (w in t)
               printf "%s tracing_overhead_ms %.4f ms (%.1f %%)\n",
                      w, t[w] - u[w], 100 * (t[w] - u[w]) / u[w] }' "$log"
fi
echo "# results in $out"
