#include "src/layout/im2col.hpp"

#include <algorithm>
#include <cstring>

#include "src/bitops/bitcopy.hpp"
#include "src/parallel/thread_pool.hpp"

namespace apnn::layout {

bitops::BitMatrix im2col_bits(const bitops::BitMatrix& plane,
                              const ConvGeometry& g, bool pad_value,
                              ThreadPool* pool) {
  APNN_CHECK(plane.rows() == g.batch * g.in_h * g.in_w)
      << "plane rows " << plane.rows() << " vs geometry "
      << g.batch * g.in_h * g.in_w;
  APNN_CHECK(plane.cols() == g.in_c);
  const std::int64_t oh = g.out_h(), ow = g.out_w();
  bitops::BitMatrix out(g.batch * oh * ow, g.gemm_k());

  // Each patch row is independent (it writes only its own padded row of
  // `out`), so the lowering parallelizes over output positions. The grain
  // keeps one task per whole output row of the image to preserve the
  // sequential-slab access pattern within a task.
  ThreadPool& tp = pool != nullptr ? *pool : ThreadPool::global();
  tp.parallel_for(0, g.batch * oh * ow, [&](std::int64_t row) {
    const std::int64_t x = row % ow;
    const std::int64_t y = (row / ow) % oh;
    const std::int64_t n = row / (oh * ow);
    std::uint64_t* dst = out.row(row);
    for (int kh = 0; kh < g.kernel; ++kh) {
      for (int kw = 0; kw < g.kernel; ++kw) {
        const std::int64_t ih = y * g.stride + kh - g.pad;
        const std::int64_t iw = x * g.stride + kw - g.pad;
        const std::int64_t dst_bit =
            (static_cast<std::int64_t>(kh) * g.kernel + kw) * g.in_c;
        if (ih >= 0 && ih < g.in_h && iw >= 0 && iw < g.in_w) {
          const std::int64_t src_row = (n * g.in_h + ih) * g.in_w + iw;
          // One contiguous C-bit channel slab — the coalesced access the
          // channel-major layout provides.
          bitops::copy_bits(dst, dst_bit, plane.row(src_row), 0, g.in_c);
        } else if (pad_value) {
          bitops::fill_bits(dst, dst_bit, g.in_c, true);
        }
        // pad_value == 0 needs no action: rows start zeroed.
      }
    }
  }, /*grain=*/ow);
  return out;
}

OutPos conv_col_position(const ConvGeometry& g, std::int64_t col,
                         int pool_win) {
  const std::int64_t oh = g.out_h(), ow = g.out_w();
  OutPos pos;
  if (pool_win <= 1) {
    pos.ox = col % ow;
    pos.oy = (col / ow) % oh;
    pos.n = col / (oh * ow);
    return pos;
  }
  const std::int64_t win = pool_win;
  const std::int64_t ph = oh / win, pw = ow / win;
  const std::int64_t widx = col / (win * win);
  const std::int64_t within = col % (win * win);
  const std::int64_t px = widx % pw;
  const std::int64_t py = (widx / pw) % ph;
  pos.n = widx / (ph * pw);
  pos.oy = py * win + within / win;
  pos.ox = px * win + within % win;
  return pos;
}

WindowGatherSource::WindowGatherSource(const PackedActivations& x,
                                       const ConvGeometry& g, bool pad_one,
                                       int pool_win, std::int64_t col0,
                                       std::int64_t nrows8,
                                       std::int64_t nvalid)
    : x_(&x),
      g_(&g),
      pad_one_(pad_one),
      win_(pool_win),
      col0_(col0),
      nrows8_(nrows8),
      nvalid_(nvalid),
      gemm_n_(g.gemm_n()),
      gemm_k_(g.gemm_k()) {
  APNN_DCHECK(x.n == g.batch && x.h == g.in_h && x.w == g.in_w &&
              x.c == g.in_c);
}

void WindowGatherSource::gather_row(std::int64_t col, int t, std::int64_t w0,
                                    std::int64_t words,
                                    std::uint64_t* dst) const {
  const std::int64_t bit_lo = w0 * bitops::kWordBits;
  const std::int64_t bit_hi =
      std::min(bit_lo + words * bitops::kWordBits, gemm_k_);
  if (bit_lo >= bit_hi) return;  // only 128-bit alignment padding: stays zero
  const OutPos pos = conv_col_position(*g_, col, win_);
  const bitops::BitMatrix& plane = x_->planes[static_cast<std::size_t>(t)];
  const std::int64_t in_c = g_->in_c;
  const std::int64_t base_ih = pos.oy * g_->stride - g_->pad;
  const std::int64_t base_iw = pos.ox * g_->stride - g_->pad;
  const std::int64_t plane_row0 = pos.n * g_->in_h;
  // Taps whose C-bit channel slab intersects the word range; kh/kw advance
  // incrementally so the walk is division-free past the first tap.
  const std::int64_t tap_lo = bit_lo / in_c;
  const std::int64_t tap_hi = (bit_hi - 1) / in_c;
  std::int64_t kh = tap_lo / g_->kernel;
  std::int64_t kw = tap_lo % g_->kernel;
  const bool word_aligned = (in_c % bitops::kWordBits) == 0;
  for (std::int64_t tap = tap_lo; tap <= tap_hi;
       ++tap, (++kw == g_->kernel ? (kw = 0, ++kh) : 0)) {
    const std::int64_t tap_bit = tap * in_c;
    const std::int64_t lo = std::max(bit_lo, tap_bit);
    const std::int64_t hi = std::min(bit_hi, tap_bit + in_c);
    const std::int64_t ih = base_ih + kh;
    const std::int64_t iw = base_iw + kw;
    if (ih >= 0 && ih < g_->in_h && iw >= 0 && iw < g_->in_w) {
      // One contiguous channel slab — the coalesced §4.2a access.
      const std::uint64_t* src = plane.row((plane_row0 + ih) * g_->in_w + iw);
      if (word_aligned && lo == tap_bit && hi == tap_bit + in_c) {
        // Whole slab at word granularity (the steady state for C % 64 == 0).
        std::uint64_t* d = dst + (lo - bit_lo) / bitops::kWordBits;
        for (std::int64_t i = 0; i < in_c / bitops::kWordBits; ++i) {
          d[i] = src[i];
        }
      } else {
        bitops::copy_bits(dst, lo - bit_lo, src, lo - tap_bit, hi - lo);
      }
    } else if (pad_one_) {
      bitops::fill_bits(dst, lo - bit_lo, hi - lo, true);
    }
    // pad bit 0 needs no action: the strip row starts zeroed.
  }
}

void WindowGatherSource::stage(std::int64_t w0, std::int64_t words,
                               std::uint64_t* panel) const {
  const int q = x_->bits;
  for (std::int64_t j = 0; j < nrows8_; ++j) {
    std::uint64_t* dst = panel + j * words;
    std::memset(dst, 0, static_cast<std::size_t>(words) * sizeof(*dst));
    if (j >= nvalid_) continue;
    const std::int64_t col = col0_ + j / q;
    if (col >= gemm_n_) continue;
    gather_row(col, static_cast<int>(j % q), w0, words, dst);
  }
}

void WindowGatherSource::stage_transposed(std::int64_t w0, std::int64_t words,
                                          std::uint64_t* panel) const {
  const int q = x_->bits;
  std::uint64_t row_buf[core::microkernel::kStripWords];
  APNN_DCHECK(words <= core::microkernel::kStripWords);
  for (std::int64_t j = 0; j < nrows8_; ++j) {
    const std::int64_t col = col0_ + j / q;
    if (j >= nvalid_ || col >= gemm_n_) {
      for (std::int64_t w = 0; w < words; ++w) panel[w * nrows8_ + j] = 0;
      continue;
    }
    std::memset(row_buf, 0, static_cast<std::size_t>(words) * sizeof(*row_buf));
    gather_row(col, static_cast<int>(j % q), w0, words, row_buf);
    for (std::int64_t w = 0; w < words; ++w) {
      panel[w * nrows8_ + j] = row_buf[w];
    }
  }
}

}  // namespace apnn::layout
