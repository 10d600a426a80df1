// Semantic-aware kernel fusion (§5.2): the elementwise tail of an NN layer —
// batch normalization, ReLU, quantization — applied to each 32-bit
// accumulator while it is still in a register, immediately after the
// in-shared-memory bit combination. Fusing removes the global-memory round
// trips (and kernel launches) separate BN / ReLU / quantize kernels cost.
//
// Pooling is fused at the APConv level (it is spatial, not elementwise) —
// see apconv.hpp. The row-softmax requantize of an attention score step is
// row-wise, not elementwise: APMM runs it on each complete output row (see
// RowSoftmax).
#pragma once

#include <cstdint>
#include <vector>

#include "src/common/check.hpp"
#include "src/quant/quantizer.hpp"

namespace apnn::core {

/// Per-output-channel affine BN folded to y = x * scale + bias
/// (scale = gamma / sqrt(var + eps), bias = beta - mean * scale).
struct BatchNormParams {
  std::vector<float> scale;
  std::vector<float> bias;
};

/// Row-softmax requantize, the integer attention-score tail: every score of
/// an output row is arithmetic-shifted right by `shift`, clamped at zero and
/// renormalized against the row's maximum into `bits`-bit codes,
///   code = floor(max(0, s >> shift) * 2^bits / (span + 1)),
///   span = max(1, max(0, row max) >> shift).
/// It needs no division per element: code >= t holds exactly when
/// s >= T_t = ceil(t * (span + 1) / 2^bits) << shift, so the codes are
/// built from compare masks against the qmax thresholds (see
/// row_softmax_pack).
struct RowSoftmax {
  int shift = 0;
  int bits = 0;
};

/// Fills thr[0, 2^bits - 1) with T_1..T_qmax for a row whose largest raw
/// score is `row_max`, and returns how many of them fit in int32 (the codes
/// never reach the larger ones). Thresholds are non-decreasing in t.
int row_softmax_thresholds(std::int32_t row_max, const RowSoftmax& sm,
                           std::int32_t* thr);

/// Requantizes one row of `n` raw scores and writes its codes as bit planes:
/// word w of plane u goes to planes[u][w] for every w < row_words (words
/// past the row's last column are zero). `row` must be readable up to the
/// next multiple of 64 elements; the values past n are ignored. `thr` is
/// scratch for 2^bits - 1 thresholds.
void row_softmax_pack(const std::int32_t* row, std::int64_t n,
                      const RowSoftmax& sm, std::int32_t* thr,
                      std::uint64_t* const* planes, std::int64_t row_words);

/// Elementwise epilogue configuration. Operations apply in the fixed order
/// BN -> ReLU -> quantize (the composition the paper writes out in §5.2).
struct Epilogue {
  bool has_bn = false;
  BatchNormParams bn;

  bool has_relu = false;

  /// Quantize the (float) result to `quant.bits` unsigned codes; the kernel
  /// then emits bit-packed planes instead of int32 (minimal-traffic
  /// dataflow, §5.1).
  bool has_quant = false;
  quant::QuantParams quant;

  /// Requantize each output row through the row softmax instead (nothing
  /// else may be set). The kernel emits the codes as row-major bit planes —
  /// output row m is plane row m — and needs a row-complete tile.
  bool has_softmax = false;
  RowSoftmax softmax;

  bool identity() const {
    return !has_bn && !has_relu && !has_quant && !has_softmax;
  }

  /// True when the kernel emits bit-packed codes instead of int32.
  bool packs() const { return has_quant || has_softmax; }

  /// ALU ops per element this epilogue costs (for the traffic counters).
  std::int64_t alu_ops_per_element() const {
    std::int64_t ops = 0;
    if (has_bn) ops += 2;     // fma
    if (has_relu) ops += 1;   // max
    if (has_quant) ops += 2;  // sub + mul(floor)
    if (has_softmax) {
      // Row-max update plus one threshold compare per code level.
      ops += 1 + ((std::int64_t{1} << softmax.bits) - 1);
    }
    return ops;
  }

  /// Applies the epilogue to one 32-bit accumulator of output channel `ch`.
  /// Returns the (possibly quantized) integer result. Not defined for the
  /// row softmax, which needs the whole row. An identity epilogue
  /// is exact — no float round trip — so it agrees with the integer fast
  /// paths for accumulators beyond float's 2^24 integer range.
  std::int32_t apply(std::int32_t acc, std::int64_t ch) const {
    APNN_DCHECK(!has_softmax) << "the row softmax is not elementwise";
    if (identity()) return acc;
    float v = static_cast<float>(acc);
    if (has_bn) {
      APNN_DCHECK(ch < static_cast<std::int64_t>(bn.scale.size()));
      v = v * bn.scale[static_cast<std::size_t>(ch)] +
          bn.bias[static_cast<std::size_t>(ch)];
    }
    if (has_relu && v < 0.f) v = 0.f;
    if (has_quant) return quant::quantize_value(v, quant);
    return static_cast<std::int32_t>(v);
  }

  /// Bit width of the emitted values: the code width when packing, else 32.
  int output_bits() const {
    return has_softmax ? softmax.bits : has_quant ? quant.bits : 32;
  }
};

}  // namespace apnn::core
