// Arbitrary-Precision Convolution (APConv, paper §4.2).
//
// Convolution of a p-bit weight tensor (Cout x KH x KW x Cin) with a q-bit
// activation tensor (channel-major NPHWC) is lowered to the virtually
// batched bit-GEMM of apmm_internal, with three conv-specific designs:
//
//  * Channel-major data organization (§4.2a): activations arrive as
//    layout::PackedActivations; each (kh, kw) tap of the patch matrix is a
//    contiguous C-bit slab, so loads are aligned and coalesced.
//  * Input-aware padding (§4.2b): the out-of-image padding bit depends on
//    the encoding — 0/1 features pad 0; ±1 features pad 1 and the result is
//    amended with a popc-mask counter correction; Case III pads 0. All three
//    reproduce the zero-pad semantics of standard convolution.
//  * Fused epilogue (§5.2, Fig. 10): BN -> ReLU -> pooling -> quantize ->
//    bit-plane repacking can run inside the conv kernel; with fusion off the
//    pipeline issues separate pool / quantize kernels (global round trips).
#pragma once

#include <cstdint>

#include "src/core/apmm.hpp"
#include "src/layout/im2col.hpp"
#include "src/layout/packed_activations.hpp"

namespace apnn::core {

struct PoolSpec {
  enum class Kind { kNone, kMax, kAvg };
  Kind kind = Kind::kNone;
  int size = 2;  ///< pooling window and stride (paper uses 2x2)

  bool active() const { return kind != Kind::kNone; }
};

struct ApconvOptions {
  bool autotune = true;
  TileConfig tile;
  double tlp_threshold = 64.0;

  /// Host-microkernel execution knob; see ApmmOptions::micro.
  microkernel::MicroConfig micro;

  bool batch_planes = true;
  bool double_caching = true;
  bool fragment_caching = true;
  bool semantic_aware = true;

  /// Fuse BN/ReLU/pool/quantize into the conv kernel (true) or launch them
  /// as separate kernels (false) — the Fig. 10 comparison.
  bool fuse_epilogue = true;

  ExecMode mode = ExecMode::kFull;

  /// Caller-provided output storage (e.g. an InferenceSession slab slot):
  /// when set, the corresponding result is written here — the buffer is
  /// reshaped in place, reusing its capacity, so steady-state reuse performs
  /// zero heap allocations — and the matching ApconvResult field stays
  /// empty. y_out receives the dense post-pool NHWC output (non-quantizing
  /// epilogue); packed_out the channel-major planes of a quantizing one.
  Tensor<std::int32_t>* y_out = nullptr;
  layout::PackedActivations* packed_out = nullptr;

  /// Build launch records in the result (true) or leave the profile empty —
  /// the steady-state serving path skips the per-call record churn.
  bool collect_profile = true;

  /// Pool the block loops run on; nullptr = ThreadPool::global(). Non-owning
  /// — must outlive the call. See ApmmOptions::pool.
  ThreadPool* pool = nullptr;

  /// Occupancy/elision counters; see ApmmOptions::sparsity_stats.
  microkernel::SparsityStats* sparsity_stats = nullptr;
};

struct ApconvResult {
  /// Post-pool NHWC int32 output {N, OH', OW', Cout}; empty when the
  /// epilogue quantizes (then `packed` is set) or in profile-only mode.
  Tensor<std::int32_t> y;

  /// Quantized output as channel-major packed activations, ready for the
  /// next APConv (minimal-traffic dataflow).
  layout::PackedActivations packed;

  tcsim::SequenceProfile profile;
  TileConfig tile;
};

/// Builds the weight operand from logical values in OHWI order
/// ({Cout, KH, KW, Cin}) — the tap order the channel-major patch matrix
/// uses.
ApOperand make_conv_weights(const Tensor<std::int32_t>& ohwi, Encoding enc,
                            int bits);

/// Runs APConv. `x_enc` declares what the activation bits encode; `pool`
/// optionally fuses a pool.size x pool.size pooling stage (output spatial
/// dims must divide evenly).
ApconvResult apconv(const ApOperand& w, const layout::PackedActivations& x,
                    Encoding x_enc, const layout::ConvGeometry& g,
                    const tcsim::DeviceSpec& dev,
                    const ApconvOptions& opts = {}, const Epilogue& epi = {},
                    const PoolSpec& pool = {});

/// Launch records only, from the convolution geometry (no operand data) —
/// identical to the profile apconv() returns for the same problem.
tcsim::SequenceProfile apconv_profile(const layout::ConvGeometry& g, int p,
                                      int q, const EncodingConfig& enc,
                                      const tcsim::DeviceSpec& dev,
                                      const ApconvOptions& opts = {},
                                      const Epilogue& epi = {},
                                      const PoolSpec& pool = {});

/// Golden-model direct convolution on logical values: x is NHWC
/// ({N, H, W, C}) logical activations, w is OHWI logical weights; standard
/// zero padding. Returns NHWC {N, OH, OW, Cout}. Every input-aware padding
/// strategy must reproduce exactly this.
Tensor<std::int32_t> conv2d_reference(const Tensor<std::int32_t>& x_nhwc,
                                      const Tensor<std::int32_t>& w_ohwi,
                                      const layout::ConvGeometry& g);

}  // namespace apnn::core
