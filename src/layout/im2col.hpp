// Convolution lowering (im2col) for packed bit planes and dense tensors.
//
// APConv computes a p-bit x q-bit convolution as an emulated GEMM over
// patch matrices: for each 1-bit activation plane, the (N*OH*OW) x (K*K*C)
// patch matrix is assembled from the channel-major layout; each (kh, kw)
// tap contributes one contiguous C-bit slab, which is what makes the
// access coalesced (§4.2a). Out-of-image taps are filled with the padding
// bit selected by the input-aware padding design (§4.2b).
#pragma once

#include <cstdint>

#include "src/bitops/bit_matrix.hpp"
#include "src/core/microkernel.hpp"
#include "src/layout/packed_activations.hpp"
#include "src/layout/tensor.hpp"

namespace apnn {
class ThreadPool;
}  // namespace apnn

namespace apnn::layout {

/// Static geometry of a 2D convolution.
struct ConvGeometry {
  std::int64_t batch = 1;
  std::int64_t in_c = 0, in_h = 0, in_w = 0;
  std::int64_t out_c = 0;
  int kernel = 3;
  int stride = 1;
  int pad = 1;

  std::int64_t out_h() const { return (in_h + 2 * pad - kernel) / stride + 1; }
  std::int64_t out_w() const { return (in_w + 2 * pad - kernel) / stride + 1; }
  /// GEMM dims of the lowered convolution: M x N x K.
  std::int64_t gemm_m() const { return out_c; }
  std::int64_t gemm_n() const { return batch * out_h() * out_w(); }
  std::int64_t gemm_k() const {
    return static_cast<std::int64_t>(kernel) * kernel * in_c;
  }
  /// Multiply-accumulates of the direct convolution.
  std::int64_t macs() const { return gemm_m() * gemm_n() * gemm_k(); }
};

/// Lowers one 1-bit activation plane (rows = N*H*W, cols = C, channel-major)
/// to the patch matrix (rows = N*OH*OW, cols = K*K*C). `pad_value` is the
/// bit written at out-of-image taps (input-aware padding). `pool` is the
/// pool the row loop runs on; nullptr = ThreadPool::global().
bitops::BitMatrix im2col_bits(const bitops::BitMatrix& plane,
                              const ConvGeometry& g, bool pad_value,
                              ThreadPool* pool = nullptr);

/// An output position of the lowered convolution.
struct OutPos {
  std::int64_t n = 0, oy = 0, ox = 0;
};

/// Maps GEMM column `col` to its output position. `pool_win` selects the
/// column enumeration order: 1 is the natural (n, oy, ox) row-major order;
/// win > 1 enumerates pool-window-major — each run of win*win consecutive
/// columns is one complete win x win pooling window (window index
/// col / win², i.e. the pooled output position), which is what lets the
/// fused conv tail reduce a pooling window entirely inside one block.
/// Requires out_h % win == 0 and out_w % win == 0.
OutPos conv_col_position(const ConvGeometry& g, std::int64_t col,
                         int pool_win);

/// PanelSource assembling convolution patch rows on the fly from the packed
/// channel-major feature-map planes — the im2col-free staging of §4.2: no
/// gemm_n x gemm_k patch matrix ever exists; each k-strip of each virtual B
/// row is gathered directly into the staged panel (stride/pad window walk,
/// §4.2b input-aware padding included).
///
/// Virtual row j covers plane (j % q) of GEMM column col0 + j / q under the
/// `pool_win` column order; rows >= nvalid and columns >= gemm_n stage as
/// zeros (the virtual padding of non-tile-aligned block edges).
class WindowGatherSource final : public core::microkernel::PanelSource {
 public:
  WindowGatherSource(const PackedActivations& x, const ConvGeometry& g,
                     bool pad_one, int pool_win, std::int64_t col0,
                     std::int64_t nrows8, std::int64_t nvalid);

  std::int64_t rows() const override { return nrows8_; }
  void stage(std::int64_t w0, std::int64_t words,
             std::uint64_t* panel) const override;
  /// Word-interleaved staging without a row-major round trip: each patch
  /// row is gathered into a strip-sized local buffer and scattered straight
  /// into the interleaved panel.
  void stage_transposed(std::int64_t w0, std::int64_t words,
                        std::uint64_t* panel) const override;

 private:
  /// Assembles bits [w0*64, w0*64 + words*64) of column `col`'s patch row
  /// for plane `t` into dst (pre-zeroed).
  void gather_row(std::int64_t col, int t, std::int64_t w0,
                  std::int64_t words, std::uint64_t* dst) const;

  const PackedActivations* x_;
  const ConvGeometry* g_;
  bool pad_one_;
  int win_;
  std::int64_t col0_, nrows8_, nvalid_;
  std::int64_t gemm_n_, gemm_k_;
};

/// Dense im2col for baseline kernels: src is NHWC ({N, H, W, C}); output is
/// {N*OH*OW, K*K*C}. Out-of-image taps read `pad_value`.
template <typename T>
Tensor<T> im2col_dense(const Tensor<T>& src, const ConvGeometry& g,
                       T pad_value = T{}) {
  APNN_CHECK(src.rank() == 4);
  APNN_CHECK(src.dim(0) == g.batch && src.dim(1) == g.in_h &&
             src.dim(2) == g.in_w && src.dim(3) == g.in_c)
      << "input shape mismatch";
  const std::int64_t oh = g.out_h(), ow = g.out_w();
  Tensor<T> out({g.batch * oh * ow, g.gemm_k()});
  std::int64_t row = 0;
  for (std::int64_t n = 0; n < g.batch; ++n) {
    for (std::int64_t y = 0; y < oh; ++y) {
      for (std::int64_t x = 0; x < ow; ++x, ++row) {
        std::int64_t col = 0;
        for (int kh = 0; kh < g.kernel; ++kh) {
          for (int kw = 0; kw < g.kernel; ++kw) {
            const std::int64_t ih = y * g.stride + kh - g.pad;
            const std::int64_t iw = x * g.stride + kw - g.pad;
            for (std::int64_t c = 0; c < g.in_c; ++c, ++col) {
              out(row, col) = (ih >= 0 && ih < g.in_h && iw >= 0 && iw < g.in_w)
                                  ? src(n, ih, iw, c)
                                  : pad_value;
            }
          }
        }
      }
    }
  }
  return out;
}

}  // namespace apnn::layout
