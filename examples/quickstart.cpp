// Quickstart: emulate an arbitrary-precision GEMM on the simulated Ampere
// tensor cores, verify it against a plain integer GEMM, and compare its
// modeled latency with the int4/int8 baselines.
//
//   build/examples/quickstart
#include <cstdio>

#include "src/baselines/gemm.hpp"
#include "src/common/rng.hpp"
#include "src/core/apmm.hpp"
#include "src/tcsim/cost_model.hpp"

using namespace apnn;

int main() {
  // A typical fully connected layer: batch 64, 512 -> 512 features, with
  // 1-bit (±1) weights and 2-bit activations — the paper's w1a2 setting.
  const std::int64_t m = 512, n = 64, k = 512;
  Rng rng(7);

  Tensor<std::int32_t> w_logical({m, k});  // ±1 weights
  for (std::int64_t i = 0; i < w_logical.numel(); ++i) {
    w_logical[i] = rng.bernoulli(0.5) ? 1 : -1;
  }
  Tensor<std::int32_t> x_logical({n, k});  // 2-bit activations, 0..3
  x_logical.randomize(rng, 0, 3);

  // 1. Build operands: values are encoded and decomposed into bit planes.
  const core::ApOperand w =
      core::make_operand(w_logical, core::Encoding::kSignedPM1, 1);
  const core::ApOperand x =
      core::make_operand(x_logical, core::Encoding::kUnsigned01, 2);

  // 2. Run APMM: the operator (AND + popc with the Case-III correction) is
  //    selected from the encodings; tiling follows the §4.3.2 heuristic.
  const auto& dev = tcsim::rtx3090();
  const core::ApmmResult r = core::apmm(w, x, dev);

  // 3. Verify against a plain integer GEMM on the logical values.
  std::int64_t errors = 0;
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      std::int64_t acc = 0;
      for (std::int64_t kk = 0; kk < k; ++kk) {
        acc += static_cast<std::int64_t>(w_logical(i, kk)) * x_logical(j, kk);
      }
      if (r.y(i, j) != acc) ++errors;
    }
  }
  std::printf("APMM-w1a2 %ldx%ldx%ld: %ld mismatches vs integer GEMM\n", m,
              n, k, errors);

  // 4. Compare modeled latencies.
  const tcsim::CostModel cm(dev);
  const double t_ap = cm.estimate(r.profile).total_us;
  const double t_i4 =
      cm.estimate(baselines::cutlass_gemm_profile(tcsim::Precision::kInt4, m,
                                                  n, k))
          .total_us;
  const double t_i8 =
      cm.estimate(baselines::cublas_gemm_int8_profile(m, n, k)).total_us;
  std::printf("modeled latency on %s:\n", dev.name.c_str());
  std::printf("  APMM-w1a2          %6.2f us  (tile %dx%d)\n", t_ap,
              r.tile.bm, r.tile.bn);
  std::printf("  cutlass-gemm-int4  %6.2f us  (%.2fx slower)\n", t_i4,
              t_i4 / t_ap);
  std::printf("  cublas-gemm-int8   %6.2f us  (%.2fx slower)\n", t_i8,
              t_i8 / t_ap);
  std::printf("kernel traffic: %.1f KiB global, %lld bmma tile ops\n",
              static_cast<double>(
                  r.profile.total_counters().total_global_bytes()) / 1024.0,
              static_cast<long long>(r.profile.total_counters().bmma_b1));
  return errors == 0 ? 0 : 1;
}
