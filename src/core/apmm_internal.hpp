// Internal machinery shared by the APMM and APConv kernels. Not part of the
// public API — include apmm.hpp / apconv.hpp instead.
//
// Both kernels are instances of the same virtually batched, plane-
// interleaved block GEMM; APConv differs only in how operands are produced
// (channel-major im2col), the input-aware padding correction, and the fused
// pooling tail.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/bitops/bit_matrix.hpp"
#include "src/core/apconv.hpp"
#include "src/core/apmm.hpp"
#include "src/core/microkernel.hpp"
#include "src/parallel/thread_pool.hpp"

namespace apnn::core::internal {

constexpr std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  return (a + b - 1) / b;
}
constexpr std::int64_t round_up(std::int64_t a, std::int64_t b) {
  return ceil_div(a, b) * b;
}

/// Geometry shared between the compute path and the counter formulas.
struct BatchedGeometry {
  std::int64_t m, n, k;
  int p, q;
  TileConfig tile;
  std::int64_t om, on;    ///< output rows/cols per block
  std::int64_t vtm, vtn;  ///< virtual tile dims (om*p, on*q)
  std::int64_t vtm8, vtn8;
  std::int64_t grid_m, grid_n, blocks;
  std::int64_t ktiles;    ///< 128-bit k-slabs
  std::int64_t row_words;

  /// Pool the block loops run on; nullptr = ThreadPool::global(). Execution
  /// knob only — results and launch records are identical for every pool.
  ThreadPool* pool = nullptr;

  /// Optional plane-elision counters filled during the run (thread-safe;
  /// observability only, never consulted for dispatch). nullptr = don't
  /// collect.
  microkernel::SparsityStats* sparsity = nullptr;

  /// Row-softmax epilogue: output row m lands in packed plane row
  /// packed_row0 + m (ApmmOptions::packed_row0).
  std::int64_t packed_row0 = 0;
};

BatchedGeometry make_geometry(const ApOperand& w, const ApOperand& x,
                              const TileConfig& tile);

/// Dimension-only overload (profile-only callers have no operands in hand).
/// `col_align` rounds the per-block output-column count `on` up to a
/// multiple — the fused conv tail aligns blocks to whole pooling windows
/// (win² columns) so every window reduces inside exactly one block. 1 (the
/// default) reproduces the plain tiling.
BatchedGeometry make_geometry(std::int64_t m, std::int64_t n, std::int64_t k,
                              int p, int q, const TileConfig& tile,
                              std::int64_t col_align = 1);

/// Counter formulas for the batched kernel; full and profile-only execution
/// share them, so the two modes produce identical profiles by construction.
/// `store_scale` divides the number of stored output elements (fused pooling
/// stores one element per pool window); `extra_alu_per_out` adds per-stored-
/// element epilogue work beyond the Epilogue's own ops (e.g. pool reads).
tcsim::KernelProfile batched_profile(const BatchedGeometry& g,
                                     const OpSelection& sel,
                                     const ApmmOptions& opts,
                                     const Epilogue& epi,
                                     const std::string& name,
                                     std::int64_t store_scale = 1,
                                     std::int64_t extra_alu_per_out = 0);

/// The separate bit-combination kernel of the non-semantic-aware path.
tcsim::KernelProfile combine_kernel_profile(const BatchedGeometry& g,
                                            const Epilogue& epi);

/// Where the feature (B) operand's panels come from — the staging-source
/// abstraction of the batched kernel. Exactly one of the two layouts is
/// set:
///  * `planes`: contiguous packed bit planes (the APMM case, and any
///    pre-materialized patch matrix) staged through row-pointer tables;
///  * `fmap` + `conv`: a packed channel-major feature map whose patch rows
///    are window-gathered on the fly per k-strip (im2col-free APConv).
struct FeatureSource {
  const bitops::BitPlanes* planes = nullptr;

  const layout::PackedActivations* fmap = nullptr;
  const layout::ConvGeometry* conv = nullptr;
  bool pad_one = false;  ///< §4.2b input-aware padding bit for window gather
  int pool_win = 1;      ///< window-major column order granularity

  Encoding encoding = Encoding::kUnsigned01;
  int bits = 1;  ///< q: planes per GEMM column

  bool window_gather() const { return fmap != nullptr; }
};

/// Fused conv tail executed inside each block's epilogue (no separate
/// full-output pass): Case-II border correction, BN -> ReLU, pooling over
/// the block's (window-aligned) columns, then the quantize + bit-repack or
/// the dense NHWC store. `corr`, when set, is the §4.2b Case-II padding
/// amendment indexed [m * out_h*out_w + oy * out_w + ox].
struct ConvTail {
  const layout::ConvGeometry* g = nullptr;
  PoolSpec pool;
  const std::int32_t* corr = nullptr;

  bool active() const { return g != nullptr; }
};

/// Functional computation (identical for every option set — options only
/// change where bytes move). Writes either y (m x n int32) or, when the
/// epilogue quantizes, packed planes (n x m); the row softmax writes
/// row-major planes, rows [g.packed_row0, g.packed_row0 + m).
void run_batched_compute(const ApOperand& w, const ApOperand& x,
                         const OpSelection& sel, const BatchedGeometry& g,
                         const Epilogue& epi, Tensor<std::int32_t>* y,
                         bitops::BitPlanes* packed);

/// Generalized driver: the feature operand comes from `x` (contiguous
/// planes or window gather); when `tail` is active the block epilogue runs
/// the fused conv tail and the outputs are conv-shaped:
///  * y: dense post-pool NHWC {N, OH', OW', Cout} (epilogue not quantizing);
///  * packed: channel-major planes, rows = N*OH'*OW' pooled positions, cols
///    = Cout (quantizing epilogue) — ready to feed the next conv layer.
/// With an inactive tail the outputs are the APMM shapes above. The block
/// geometry `g` must have been built with col_align = pool window² when the
/// tail pools (see make_geometry).
void run_batched_compute(const ApOperand& w, const FeatureSource& x,
                         const OpSelection& sel, const BatchedGeometry& g,
                         const Epilogue& epi, const ConvTail& tail,
                         Tensor<std::int32_t>* y, bitops::BitPlanes* packed);

}  // namespace apnn::core::internal
