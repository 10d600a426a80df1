// Uniform affine quantization (the paper's quantization layer, §5.2):
//   code = clamp(floor((x - z) / s), 0, 2^bits - 1)
// plus symmetric signed helpers for weights.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "src/layout/tensor.hpp"

namespace apnn::quant {

struct QuantParams {
  double scale = 1.0;
  double zero_point = 0.0;  ///< the paper's z_i (float offset)
  int bits = 8;

  std::int32_t qmax() const { return (1 << bits) - 1; }
};

/// Quantizes one value with floor semantics (paper §5.2). Floor is monotone
/// and the bounds are integers, so clamping first and then truncating the
/// non-negative result equals flooring first; unlike std::floor, this form
/// lets the kernel epilogues vectorize their inlined per-row quantize passes.
inline std::int32_t quantize_value(float x, const QuantParams& p) {
  const double q = (static_cast<double>(x) - p.zero_point) / p.scale;
  return static_cast<std::int32_t>(
      std::min(std::max(q, 0.0), static_cast<double>(p.qmax())));
}

/// Midpoint dequantization: code -> z + (code + 0.5) * s.
float dequantize_value(std::int32_t code, const QuantParams& p);

/// Chooses (scale, zero_point) covering [min(xs), max(xs)] with 2^bits
/// uniform buckets. Degenerate (constant) inputs get scale 1.
QuantParams choose_uniform_params(std::span<const float> xs, int bits);

/// Chooses symmetric parameters for signed data: zero_point = -A with
/// A = max|x|, so codes span [0, 2^bits) around zero. With bits = 1 this is
/// the classic sign(x) binarization onto {0, 1} codes encoding {-1, +1}.
QuantParams choose_symmetric_params(std::span<const float> xs, int bits);

/// Elementwise quantization of a tensor.
Tensor<std::int32_t> quantize_tensor(const Tensor<float>& x,
                                     const QuantParams& p);

/// Elementwise dequantization.
Tensor<float> dequantize_tensor(const Tensor<std::int32_t>& q,
                                const QuantParams& p);

/// Mean squared error between x and its quantize->dequantize round trip —
/// the objective the QEM quantizer minimizes.
double quantization_mse(std::span<const float> xs, const QuantParams& p);

}  // namespace apnn::quant
