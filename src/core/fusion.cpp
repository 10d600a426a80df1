#include "src/core/fusion.hpp"

#include <algorithm>
#include <limits>

#include "src/core/microkernel.hpp"

namespace apnn::core {

int row_softmax_thresholds(std::int32_t row_max, const RowSoftmax& sm,
                           std::int32_t* thr) {
  APNN_DCHECK(sm.bits >= 1 && sm.bits <= 16 && sm.shift >= 0 &&
              sm.shift <= 31)
      << "bits=" << sm.bits << " shift=" << sm.shift;
  const std::int64_t levels = std::int64_t{1} << sm.bits;
  const std::int64_t span =
      std::max<std::int64_t>(1, std::max(0, row_max) >> sm.shift);
  int n = 0;
  for (std::int64_t t = 1; t < levels; ++t) {
    // floor(s * levels / (span + 1)) >= t  <=>  s >= ceil(t * (span + 1) /
    // levels), and for s = max(0, raw >> shift) with that bound >= 1,
    // s >= c  <=>  raw >= c << shift.
    const std::int64_t c = (t * (span + 1) + levels - 1) / levels;
    const std::int64_t raw = c << sm.shift;
    if (raw > std::numeric_limits<std::int32_t>::max()) break;
    thr[n++] = static_cast<std::int32_t>(raw);
  }
  return n;
}

void row_softmax_pack(const std::int32_t* row, std::int64_t n,
                      const RowSoftmax& sm, std::int32_t* thr,
                      std::uint64_t* const* planes, std::int64_t row_words) {
  std::int32_t row_max = std::numeric_limits<std::int32_t>::min();
  for (std::int64_t j = 0; j < n; ++j) row_max = std::max(row_max, row[j]);
  const int nthr = row_softmax_thresholds(row_max, sm, thr);
  for (std::int64_t w = 0; w < row_words; ++w) {
    // Thermometer masks g_t = [raw >= T_t]; the code's bit u is the parity
    // of the g_t with t a multiple of 2^u (t <= code), i.e. the XOR of
    // those masks. The masks only shrink as t grows, so the first empty
    // one ends the word.
    std::uint64_t acc[16] = {};
    const std::int64_t live = n - w * 64;
    if (live > 0) {
      const std::uint64_t valid =
          live >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << live) - 1;
      for (int t = 1; t <= nthr; ++t) {
        const std::uint64_t g =
            microkernel::ge_mask64(row + w * 64, thr[t - 1]) & valid;
        if (g == 0) break;
        for (int u = 0, top = __builtin_ctz(static_cast<unsigned>(t));
             u <= top; ++u) {
          acc[u] ^= g;
        }
      }
    }
    for (int u = 0; u < sm.bits; ++u) planes[u][w] = acc[u];
  }
}

}  // namespace apnn::core
