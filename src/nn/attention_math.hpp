// The integer attention tail: the score shift and the reference softmax row.
//
// The reference walker (ApnnNetwork) and the hand-built attention bench
// funnel raw QK^T scores through attn_softmax_row. The compiled
// session does not: its score step runs core::RowSoftmax in the APMM block
// epilogue, an independent division-free threshold form of the same
// arithmetic. tests/test_apmm.cpp pins the two equal on the whole small
// domain (code widths 1-8, shifts 0-3, row maxima 0-4096) in every kernel
// flavor.
#pragma once

#include <algorithm>
#include <cstdint>

#include "src/nn/model.hpp"

namespace apnn::nn {

/// Effective score shift for an attention layer: the explicit spec value,
/// or floor(log2(d_head)) / 2 — the integer analogue of 1/sqrt(d_head).
inline int attn_scale_shift(const AttentionParams& p) {
  if (p.scale_shift >= 0) return p.scale_shift;
  int lg = 0;
  while ((std::int64_t{1} << (lg + 1)) <= p.d_head) ++lg;
  return lg / 2;
}

/// Scale -> integer softmax -> requantize for one row of raw QK^T scores.
/// Scores are arithmetic-shifted right by `shift`, clamped at zero, and
/// renormalized against the row maximum into [0, 2^abits - 1] codes:
/// rows dominated by one key saturate near qmax while flat rows spread
/// their mass — a monotone, overflow-free stand-in for softmax that stays
/// in integer arithmetic end to end.
inline void attn_softmax_row(const std::int32_t* scores, std::int64_t n,
                             int shift, int abits, std::int32_t* codes) {
  std::int64_t row_max = 0;
  for (std::int64_t j = 0; j < n; ++j) {
    row_max = std::max<std::int64_t>(row_max, scores[j] >> shift);
  }
  const std::int64_t span = std::max<std::int64_t>(1, row_max);
  const std::int64_t levels = std::int64_t{1} << abits;
  const std::int64_t qmax = levels - 1;
  for (std::int64_t j = 0; j < n; ++j) {
    const std::int64_t s =
        std::max<std::int64_t>(0, scores[j] >> shift);
    codes[j] = static_cast<std::int32_t>(
        std::min<std::int64_t>(qmax, s * levels / (span + 1)));
  }
}

}  // namespace apnn::nn
