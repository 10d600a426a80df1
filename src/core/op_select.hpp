// Data-adaptive operator selection (paper §3.2).
//
// The 1-bit planes of quantized tensors can encode different value pairs;
// the right tensor-core bit op and post-accumulation transform depend on the
// encodings of both operands:
//
//   Case I   : W in {0,1},  X in {0,1}   -> AND;  dot = popc
//   Case II  : W in {-1,1}, X in {-1,1}  -> XOR;  dot = n - 2*popc
//   Case III : W in {-1,1}, X in {0,1}   -> AND on W^=(W+J)/2;
//              dot = 2*popc(W^ & X) - popc(X)
//
// We additionally support a two's-complement extension for signed multi-bit
// operands (MSB plane weighted -2^(p-1)); the paper needs only the three
// cases above.
#pragma once

#include <cstdint>

#include "src/common/check.hpp"
#include "src/tcsim/mma.hpp"

namespace apnn::core {

/// What the bits of an operand's planes encode.
enum class Encoding {
  kUnsigned01,       ///< planes are positional bits of an unsigned integer
  kSignedPM1,        ///< single plane, bit 0/1 encode -1/+1 (p or q must be 1)
  kTwosComplement,   ///< positional bits of a two's-complement integer
};

enum class EmulationCase { kCaseI, kCaseII, kCaseIII };

struct OpSelection {
  EmulationCase kind = EmulationCase::kCaseI;
  tcsim::BitOp bit_op = tcsim::BitOp::kAnd;
};

/// Encoding pair for a GEMM / convolution.
struct EncodingConfig {
  Encoding w = Encoding::kUnsigned01;
  Encoding x = Encoding::kUnsigned01;
};

/// Picks the emulation case + tensor-core bit op for an encoding pair.
/// kSignedPM1 x kUnsigned01 (and only that signed/unsigned mix) maps to
/// Case III; kUnsigned01/kTwosComplement pairs use Case I's AND datapath.
OpSelection select_operator(const EncodingConfig& enc);

/// Post-accumulation transform of one (s, t) plane-pair partial product:
/// turns the raw popc accumulation `raw` over `k` valid bits into the
/// integer partial dot. `x_popc` is popc of the X plane row (Case III only).
inline std::int64_t finalize_partial(EmulationCase kind, std::int64_t raw,
                                     std::int64_t k, std::int64_t x_popc) {
  switch (kind) {
    case EmulationCase::kCaseI: return raw;
    case EmulationCase::kCaseII: return k - 2 * raw;
    case EmulationCase::kCaseIII: return 2 * raw - x_popc;
  }
  return 0;
}

/// Positional weight of plane s under an encoding ("bit combination"
/// multiplier): 2^s, except the sign-flipped MSB for two's complement and a
/// unit weight for the single ±1 plane.
inline std::int64_t plane_multiplier(Encoding enc, int s, int bits) {
  switch (enc) {
    case Encoding::kUnsigned01:
      return std::int64_t{1} << s;
    case Encoding::kSignedPM1:
      APNN_DCHECK(bits == 1) << "kSignedPM1 requires 1 bit";
      return 1;
    case Encoding::kTwosComplement:
      return s == bits - 1 ? -(std::int64_t{1} << s) : (std::int64_t{1} << s);
  }
  return 1;
}

/// Integer value range an encoding/bit-width can represent, inclusive.
struct ValueRange {
  std::int64_t lo = 0;
  std::int64_t hi = 0;
};
ValueRange encoding_range(Encoding enc, int bits);

/// Maps a logical value (e.g. -1/+1, or a signed integer) to the
/// non-negative plane code stored in bit planes.
std::int32_t encode_value(Encoding enc, int bits, std::int64_t value);

/// Inverse of encode_value.
std::int64_t decode_value(Encoding enc, int bits, std::int32_t code);

}  // namespace apnn::core
