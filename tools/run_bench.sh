#!/usr/bin/env bash
# Builds (if needed) and runs the wall-clock benchmarks:
#   * bench/micro_host_kernels     (google-benchmark host primitives)
#   * bench/apmm_hotpath           (seed loop vs microkernel pipeline)
#   * bench/apmm_sparsity_sweep    (occupancy-map skip kernels vs the dense
#                                   sweep, 0-95% activation sparsity)
#   * bench/apconv_hotpath         (materialized-im2col vs fused APConv)
#   * bench/apnn_forward_hotpath   (interpreter vs InferenceSession)
#   * bench/attention_hotpath      (compiled attention plan family vs the
#                                   hand-built per-call apmm baseline, every
#                                   bucket bit-exact, mixed-length serving)
#   * bench/serving_throughput     (replicated InferenceServer pool vs the
#                                   single-replica server, deadline overhead)
#   * bench/gateway_throughput     (two co-resident models over loopback TCP
#                                   through the apnn_serve gateway stack,
#                                   hot-reload zero-drop drill)
# and writes the BENCH_*.json files at the repo root — these are the
# checked-in baselines the CI perf gate (tools/check_bench.py) compares
# fresh runs against, so refresh them deliberately and on an otherwise idle
# machine.
#
# Usage: tools/run_bench.sh [build_dir]
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR=${1:-build}

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" -j "$(nproc)" \
  --target apmm_hotpath apmm_sparsity_sweep apconv_hotpath \
  apnn_forward_hotpath attention_hotpath serving_throughput \
  gateway_throughput
if cmake --build "$BUILD_DIR" -j "$(nproc)" --target micro_host_kernels \
    2>/dev/null; then
  "$BUILD_DIR/micro_host_kernels" --benchmark_min_time=0.05s || \
    "$BUILD_DIR/micro_host_kernels"
else
  echo "micro_host_kernels skipped (google-benchmark not available)"
fi

"$BUILD_DIR/apmm_hotpath" BENCH_apmm_hotpath.json
echo "BENCH_apmm_hotpath.json:"
cat BENCH_apmm_hotpath.json

"$BUILD_DIR/apmm_sparsity_sweep" BENCH_apmm_sparsity.json
echo "BENCH_apmm_sparsity.json:"
cat BENCH_apmm_sparsity.json

"$BUILD_DIR/apconv_hotpath" BENCH_apconv_hotpath.json
echo "BENCH_apconv_hotpath.json:"
cat BENCH_apconv_hotpath.json

"$BUILD_DIR/apnn_forward_hotpath" BENCH_apnn_forward_hotpath.json
echo "BENCH_apnn_forward_hotpath.json:"
cat BENCH_apnn_forward_hotpath.json

"$BUILD_DIR/attention_hotpath" BENCH_attention_hotpath.json
echo "BENCH_attention_hotpath.json:"
cat BENCH_attention_hotpath.json

"$BUILD_DIR/serving_throughput" BENCH_serving_throughput.json
echo "BENCH_serving_throughput.json:"
cat BENCH_serving_throughput.json

"$BUILD_DIR/gateway_throughput" BENCH_gateway_throughput.json
echo "BENCH_gateway_throughput.json:"
cat BENCH_gateway_throughput.json
