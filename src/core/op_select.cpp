#include "src/core/op_select.hpp"

namespace apnn::core {

OpSelection select_operator(const EncodingConfig& enc) {
  OpSelection sel;
  const bool w_signed_pm1 = enc.w == Encoding::kSignedPM1;
  const bool x_signed_pm1 = enc.x == Encoding::kSignedPM1;
  if (w_signed_pm1 && x_signed_pm1) {
    sel.kind = EmulationCase::kCaseII;
    sel.bit_op = tcsim::BitOp::kXor;
  } else if (w_signed_pm1 && !x_signed_pm1) {
    sel.kind = EmulationCase::kCaseIII;
    sel.bit_op = tcsim::BitOp::kAnd;
  } else if (!w_signed_pm1 && x_signed_pm1) {
    // Symmetric to Case III; swap roles is not supported by the kernels (the
    // paper's networks always put the ±1 encoding on the weights).
    APNN_CHECK(false) << "±1-encoded activations with multi-bit weights are "
                         "not supported; put the ±1 encoding on W";
  } else {
    sel.kind = EmulationCase::kCaseI;
    sel.bit_op = tcsim::BitOp::kAnd;
  }
  return sel;
}

ValueRange encoding_range(Encoding enc, int bits) {
  switch (enc) {
    case Encoding::kUnsigned01:
      return {0, (std::int64_t{1} << bits) - 1};
    case Encoding::kSignedPM1:
      return {-1, 1};
    case Encoding::kTwosComplement:
      return {-(std::int64_t{1} << (bits - 1)),
              (std::int64_t{1} << (bits - 1)) - 1};
  }
  return {0, 0};
}

std::int32_t encode_value(Encoding enc, int bits, std::int64_t value) {
  const ValueRange r = encoding_range(enc, bits);
  APNN_CHECK(value >= r.lo && value <= r.hi)
      << "value " << value << " outside encoding range [" << r.lo << ", "
      << r.hi << "]";
  switch (enc) {
    case Encoding::kUnsigned01:
      return static_cast<std::int32_t>(value);
    case Encoding::kSignedPM1:
      APNN_CHECK(value == -1 || value == 1)
          << "±1 encoding cannot represent " << value;
      return value == 1 ? 1 : 0;
    case Encoding::kTwosComplement:
      return static_cast<std::int32_t>(value & ((std::int64_t{1} << bits) - 1));
  }
  return 0;
}

std::int64_t decode_value(Encoding enc, int bits, std::int32_t code) {
  switch (enc) {
    case Encoding::kUnsigned01:
      return code;
    case Encoding::kSignedPM1:
      return code ? 1 : -1;
    case Encoding::kTwosComplement: {
      const std::int64_t sign_bit = std::int64_t{1} << (bits - 1);
      std::int64_t v = code;
      if (v & sign_bit) v -= std::int64_t{1} << bits;
      return v;
    }
  }
  return 0;
}

}  // namespace apnn::core
