// Seeded input generators shared by the serving workloads and the replays.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/common/rng.hpp"
#include "src/layout/tensor.hpp"

namespace apnn::e2e {

/// A {1, 32, 32, 3} vgg_lite image whose top and bottom rows are zeroed in
/// a band covering 25-50 % of the image (letterboxing), so the sparse
/// kernels see realistic all-zero words.
inline Tensor<std::int32_t> letterboxed_image(Rng& rng) {
  constexpr std::int64_t kHw = 32, kC = 3;
  Tensor<std::int32_t> t({1, kHw, kHw, kC});
  t.randomize(rng, 0, 255);
  const std::int64_t band = rng.uniform_int(kHw / 4, kHw / 2);
  const std::int64_t top = band / 2;
  for (std::int64_t y = 0; y < kHw; ++y) {
    if (y >= top && y < kHw - (band - top)) continue;
    for (std::int64_t i = 0; i < kHw * kC; ++i) t[y * kHw * kC + i] = 0;
  }
  return t;
}

/// Token count at quantile u in [0, 1) of the transformer_mixed length mix:
/// 60 % in [8, 32], 25 % in [33, 128], 12 % in [129, 256] and 3 % in
/// [257, 512], uniform within each range.
inline std::int64_t seq_len_at(double u) {
  struct Range {
    double share;
    std::int64_t lo, hi;
  };
  constexpr Range kMix[] = {
      {0.60, 8, 32}, {0.25, 33, 128}, {0.12, 129, 256}, {0.03, 257, 512}};
  for (const Range& r : kMix) {
    if (u < r.share) {
      const auto off = static_cast<std::int64_t>(
          u / r.share * static_cast<double>(r.hi - r.lo + 1));
      return std::min(r.hi, r.lo + off);
    }
    u -= r.share;
  }
  return kMix[3].hi;
}

/// `n` lengths from the mix, one per 1/n quantile slice (jittered by the
/// seed within its slice): every seed sends the same proportions, so the
/// seed moves which tokens are sent, not how much work they are.
inline std::vector<std::int64_t> seq_lens(Rng& rng, int n) {
  std::vector<std::int64_t> lens;
  for (int i = 0; i < n; ++i) lens.push_back(seq_len_at((i + rng.uniform()) / n));
  return lens;
}

/// Smallest sequence bucket holding `len` tokens (buckets ascending).
inline std::int64_t bucket_for(const std::vector<std::int64_t>& buckets,
                               std::int64_t len) {
  for (const std::int64_t b : buckets) {
    if (b >= len) return b;
  }
  return buckets.back();
}

}  // namespace apnn::e2e
