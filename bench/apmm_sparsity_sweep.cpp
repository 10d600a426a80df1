// Activation-sparsity sweep: occupancy-map skip kernels vs the dense sweep.
//
// Packed ReLU-fed activations are sparse at 64-bit-word granularity in the
// channel-major layout — whole k-slabs go zero when the previous layer
// clips a region or a channel. This harness reproduces that structure
// synthetically: word-aligned zero chunks shared across the feature rows
// (element-wise random sparsity would almost never zero a full 64-bit word
// and would measure nothing), swept from 0% to 95% zero words at the two
// low-bit schemes the paper leads with (w1a2 Case III, w2a2 Case I).
//
// At each point the same operands run with MicroConfig::sparse_staging =
// kOff (dense baseline), kAuto (production gate), and kOn (forced sparse);
// all three must agree bit-exactly — a skipped word that mattered is a hard
// failure, not a slow run. Two ratios gate the result:
//   * sparsity_speedup_90   : kOff/kAuto at 90% zero words, >= 1.30x
//   * dense_parity_speedup_0: kOff/kAuto on dense operands, >= 0.97x —
//     the occupancy build + density gate must be ~free when there is
//     nothing to skip.
//
// Usage: apmm_sparsity_sweep [out.json] [size] [reps]
#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "src/common/rng.hpp"
#include "src/common/timer.hpp"
#include "src/core/apmm.hpp"
#include "src/parallel/thread_pool.hpp"

namespace apnn {
namespace {

using core::ApmmOptions;
using core::ApOperand;
using core::Encoding;
using Sparse = core::microkernel::MicroConfig::Sparse;

constexpr int kPoints[] = {0, 25, 50, 75, 90, 95};

struct Scheme {
  const char* name;
  Encoding we, xe;
  int p, q;
};

constexpr Scheme kSchemes[] = {
    {"w1a2", Encoding::kSignedPM1, Encoding::kUnsigned01, 1, 2},
    {"w2a2", Encoding::kUnsigned01, Encoding::kUnsigned01, 2, 2},
};

/// Feature operand with `pct`% of its 64-bit plane words zeroed, shared
/// across rows (dead k-slabs, the channel-major shape of real ReLU
/// sparsity). The pattern is the even Bresenham spread — exact fraction at
/// every point, contiguous word runs emerging at high sparsity (e.g. 90%
/// zeroes words in runs of nine). Returns the realized zero-word share.
ApOperand sparse_features(Rng& rng, std::int64_t n, std::int64_t k,
                          Encoding enc, int q, int pct, double* realized) {
  Tensor<std::int32_t> t({n, k});
  const core::ValueRange r = core::encoding_range(enc, q);
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    // Bias away from logical zero so dense words stay dense in every plane.
    t[i] = static_cast<std::int32_t>(rng.uniform_int(std::max<std::int64_t>(
                                                         r.lo, 1),
                                                     r.hi));
  }
  const std::int64_t words = (k + 63) / 64;
  std::int64_t zero_words = 0;
  for (std::int64_t w = 0; w < words; ++w) {
    if ((w + 1) * pct / 100 == w * pct / 100) continue;
    ++zero_words;
    const std::int64_t k1 = std::min(k, (w + 1) * 64);
    for (std::int64_t j = 0; j < n; ++j) {
      for (std::int64_t kk = w * 64; kk < k1; ++kk) t(j, kk) = 0;
    }
  }
  *realized = static_cast<double>(zero_words) / static_cast<double>(words);
  return core::make_operand(t, enc, q);
}

template <typename Fn>
double best_of_ms(int reps, Fn&& fn) {
  double best = 1e30;
  for (int r = 0; r < reps; ++r) {
    WallTimer t;
    fn();
    best = std::min(best, t.millis());
  }
  return best;
}

}  // namespace
}  // namespace apnn

int main(int argc, char** argv) {
  using namespace apnn;
  const std::string out_path =
      argc > 1 ? argv[1] : "BENCH_apmm_sparsity.json";
  const std::int64_t size = argc > 2 ? std::atoll(argv[2]) : 1024;
  const int reps = argc > 3 ? std::atoi(argv[3]) : 5;

  const auto& dev = tcsim::rtx3090();
  Rng rng(42);

  const std::size_t npoints = sizeof(kPoints) / sizeof(kPoints[0]);
  const std::size_t nschemes = sizeof(kSchemes) / sizeof(kSchemes[0]);
  // [scheme][point]
  std::vector<std::vector<double>> dense_ms(nschemes),
      sparse_ms(nschemes), realized(nschemes);
  bool bit_exact = true;

  Tensor<std::int32_t> y_dense, y_sparse, y_forced;
  for (std::size_t si = 0; si < nschemes; ++si) {
    const Scheme& sc = kSchemes[si];
    Tensor<std::int32_t> wl({size, size});
    const core::ValueRange wr = core::encoding_range(sc.we, sc.p);
    for (std::int64_t i = 0; i < wl.numel(); ++i) {
      wl[i] = sc.we == Encoding::kSignedPM1
                  ? (rng.bernoulli(0.5) ? 1 : -1)
                  : static_cast<std::int32_t>(rng.uniform_int(wr.lo, wr.hi));
    }
    const ApOperand w = core::make_operand(wl, sc.we, sc.p);

    std::printf("%s %lldx%lldx%lld (p=%d q=%d)\n", sc.name,
                static_cast<long long>(size), static_cast<long long>(size),
                static_cast<long long>(size), sc.p, sc.q);
    for (std::size_t pi = 0; pi < npoints; ++pi) {
      double rz = 0.0;
      const ApOperand x = sparse_features(rng, size, size, sc.xe, sc.q,
                                          kPoints[pi], &rz);
      realized[si].push_back(rz);

      auto run = [&](Sparse mode, Tensor<std::int32_t>* y) {
        ApmmOptions o;
        o.micro.sparse_staging = mode;
        o.collect_profile = false;
        o.y_out = y;
        core::apmm(w, x, dev, o);
      };
      // Correctness gate before timing: all three modes bit-exact.
      run(Sparse::kOff, &y_dense);
      run(Sparse::kAuto, &y_sparse);
      run(Sparse::kOn, &y_forced);
      for (std::int64_t i = 0; i < y_dense.numel(); ++i) {
        if (y_dense[i] != y_sparse[i] || y_dense[i] != y_forced[i]) {
          std::fprintf(stderr,
                       "FATAL: %s @%d%%: mode mismatch at %lld: "
                       "dense %d auto %d forced %d\n",
                       sc.name, kPoints[pi], static_cast<long long>(i),
                       y_dense[i], y_sparse[i], y_forced[i]);
          bit_exact = false;
          break;
        }
      }
      if (!bit_exact) break;

      const double dms =
          best_of_ms(reps, [&] { run(Sparse::kOff, &y_dense); });
      const double sms =
          best_of_ms(reps, [&] { run(Sparse::kAuto, &y_sparse); });
      dense_ms[si].push_back(dms);
      sparse_ms[si].push_back(sms);
      std::printf(
          "  %2d%% zero words (realized %4.1f%%): dense %7.2f ms  "
          "sparse %7.2f ms  ratio %5.2fx\n",
          kPoints[pi], rz * 100.0, dms, sms, dms / sms);
    }
    if (!bit_exact) break;
  }
  if (!bit_exact) return 1;

  // Acceptance ratios: worst scheme at the 90% and 0% points.
  double speedup_90 = 1e30, parity_0 = 1e30;
  for (std::size_t si = 0; si < nschemes; ++si) {
    for (std::size_t pi = 0; pi < npoints; ++pi) {
      const double ratio = dense_ms[si][pi] / sparse_ms[si][pi];
      if (kPoints[pi] == 90) speedup_90 = std::min(speedup_90, ratio);
      if (kPoints[pi] == 0) parity_0 = std::min(parity_0, ratio);
    }
  }
  std::printf("sparsity_speedup_90    : %5.2fx (gate >= 1.30)\n", speedup_90);
  std::printf("dense_parity_speedup_0 : %5.2fx (gate >= 0.97)\n", parity_0);
  bool ok = true;
  if (speedup_90 < 1.30) {
    std::fprintf(stderr, "FATAL: 90%%-sparsity speedup %.2f < 1.30\n",
                 speedup_90);
    ok = false;
  }
  if (parity_0 < 0.97) {
    std::fprintf(stderr, "FATAL: dense-parity ratio %.2f < 0.97\n", parity_0);
    ok = false;
  }

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"apmm_sparsity_sweep\",\n"
               "  \"m\": %lld,\n  \"n\": %lld,\n  \"k\": %lld,\n"
               "  \"reps\": %d,\n"
               "  \"hardware_threads\": %u,\n"
               "  \"bit_exact\": %s,\n",
               static_cast<long long>(size), static_cast<long long>(size),
               static_cast<long long>(size), reps,
               std::max(1u, std::thread::hardware_concurrency()), bit_exact ? "true" : "false");
  for (std::size_t si = 0; si < nschemes; ++si) {
    for (std::size_t pi = 0; pi < npoints; ++pi) {
      // Only the acceptance points carry ceiling-gated *_ms keys; the
      // mid-sweep *_millis times are informational (tools/check_bench.py
      // declares each key's gate).
      const bool gated = kPoints[pi] == 0 || kPoints[pi] == 90;
      std::fprintf(f,
                   "  \"%s_dense_%d_%s\": %.3f,\n"
                   "  \"%s_sparse_%d_%s\": %.3f,\n"
                   "  \"%s_ratio_%d\": %.3f,\n",
                   kSchemes[si].name, kPoints[pi], gated ? "ms" : "millis",
                   dense_ms[si][pi], kSchemes[si].name, kPoints[pi],
                   gated ? "ms" : "millis", sparse_ms[si][pi],
                   kSchemes[si].name, kPoints[pi],
                   dense_ms[si][pi] / sparse_ms[si][pi]);
    }
  }
  std::fprintf(f,
               "  \"sparsity_speedup_90\": %.3f,\n"
               "  \"dense_parity_speedup_0\": %.3f\n"
               "}\n",
               speedup_90, parity_0);
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return ok ? 0 : 1;
}
