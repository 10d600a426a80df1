#include "src/quant/quantizer.hpp"

#include <algorithm>
#include <cmath>

namespace apnn::quant {

float dequantize_value(std::int32_t code, const QuantParams& p) {
  return static_cast<float>(p.zero_point + (code + 0.5) * p.scale);
}

QuantParams choose_uniform_params(std::span<const float> xs, int bits) {
  APNN_CHECK(bits >= 1 && bits <= 16) << "bits=" << bits;
  QuantParams p;
  p.bits = bits;
  if (xs.empty()) return p;
  float lo = xs[0], hi = xs[0];
  for (float x : xs) {
    lo = std::min(lo, x);
    hi = std::max(hi, x);
  }
  if (hi <= lo) {
    p.zero_point = lo;
    p.scale = 1.0;
    return p;
  }
  const int levels = 1 << bits;
  p.zero_point = lo;
  // Slightly inflate the range so hi itself floors into the top bucket.
  p.scale = (static_cast<double>(hi) - lo) / levels * (1.0 + 1e-6);
  return p;
}

QuantParams choose_symmetric_params(std::span<const float> xs, int bits) {
  APNN_CHECK(bits >= 1 && bits <= 16) << "bits=" << bits;
  QuantParams p;
  p.bits = bits;
  float amax = 0.f;
  for (float x : xs) amax = std::max(amax, std::abs(x));
  if (amax == 0.f) amax = 1.f;
  const int levels = 1 << bits;
  p.scale = 2.0 * amax / levels * (1.0 + 1e-6);
  p.zero_point = -static_cast<double>(amax) * (1.0 + 1e-6);
  return p;
}

Tensor<std::int32_t> quantize_tensor(const Tensor<float>& x,
                                     const QuantParams& p) {
  Tensor<std::int32_t> q(x.shape());
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    q[i] = quantize_value(x[i], p);
  }
  return q;
}

Tensor<float> dequantize_tensor(const Tensor<std::int32_t>& q,
                                const QuantParams& p) {
  Tensor<float> x(q.shape());
  for (std::int64_t i = 0; i < q.numel(); ++i) {
    x[i] = dequantize_value(q[i], p);
  }
  return x;
}

double quantization_mse(std::span<const float> xs, const QuantParams& p) {
  if (xs.empty()) return 0.0;
  double se = 0.0;
  for (float x : xs) {
    const float r = dequantize_value(quantize_value(x, p), p);
    se += static_cast<double>(x - r) * (x - r);
  }
  return se / static_cast<double>(xs.size());
}

}  // namespace apnn::quant
