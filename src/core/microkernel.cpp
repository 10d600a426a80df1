#include "src/core/microkernel.hpp"

#include <algorithm>
#include <cstring>

#include "src/common/check.hpp"
#include "src/parallel/scratch.hpp"

namespace apnn::core::microkernel {

namespace {

/// Copies words [w0, w0 + words) of each row into a contiguous panel
/// (row i at panel + i * words). A nullptr row stands for virtual zero
/// padding (out-of-range rows of the plane-interleaved tile) and stages as
/// zeros, so the microkernel never branches on row validity.
void stage_panel(const std::uint64_t* const* rows, std::int64_t nrows,
                 std::int64_t w0, std::int64_t words, std::uint64_t* panel) {
  for (std::int64_t i = 0; i < nrows; ++i) {
    std::uint64_t* dst = panel + i * words;
    if (rows[i] != nullptr) {
      std::memcpy(dst, rows[i] + w0,
                  static_cast<std::size_t>(words) * sizeof(std::uint64_t));
    } else {
      std::memset(dst, 0,
                  static_cast<std::size_t>(words) * sizeof(std::uint64_t));
    }
  }
}

/// Word-interleaved variant: panel[w * nrows + j] = rows[j][w0 + w]. The
/// SIMD row-block kernels stage B this way so one vector load spans word w
/// of several consecutive output columns and the 64-bit count lanes align
/// with columns (no per-element horizontal reduction).
void stage_panel_transposed(const std::uint64_t* const* rows,
                            std::int64_t nrows, std::int64_t w0,
                            std::int64_t words, std::uint64_t* panel) {
  for (std::int64_t j = 0; j < nrows; ++j) {
    const std::uint64_t* src = rows[j];
    if (src != nullptr) {
      for (std::int64_t w = 0; w < words; ++w) {
        panel[w * nrows + j] = src[w0 + w];
      }
    } else {
      for (std::int64_t w = 0; w < words; ++w) {
        panel[w * nrows + j] = 0;
      }
    }
  }
}

#if defined(__AVX512BW__) && defined(__AVX512VPOPCNTDQ__)

// raw[0..8) += the eight 64-bit lanes (each fits int32).
inline void add_lanes512(std::int32_t* raw, __m512i acc64) {
  // maskz form: the plain _mm512_cvtepi64_epi32 seeds its destination with
  // _mm256_undefined_si256, which trips gcc's -Wmaybe-uninitialized at -O3
  // (GCC PR105593); the zero seed emits the same vpmovqd.
  const __m256i lanes = _mm512_maskz_cvtepi64_epi32(0xff, acc64);
  _mm256_storeu_si256(
      reinterpret_cast<__m256i*>(raw),
      _mm256_add_epi32(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(raw)), lanes));
}

// B is staged word-interleaved (panel[w * cols8 + j]), so one 512-bit load
// covers word w of 8 consecutive output columns and vpopcntq's eight 64-bit
// lanes ARE the eight per-column partial sums — no horizontal reduction per
// output element, the killer overhead when K is only a few words. The lanes
// accumulate across the whole strip (at most 64 * kStripWords per lane), so
// there is no counter flush.
template <tcsim::BitOp Op>
void rowblock_strip(const std::uint64_t* a_panel, std::int64_t rows8,
                    const std::uint64_t* bt_panel, std::int64_t cols8,
                    std::int64_t words, std::int32_t* raw) {
  for (std::int64_t i = 0; i < rows8; ++i) {
    const std::uint64_t* ap = a_panel + i * words;
    for (std::int64_t j = 0; j < cols8; j += 8) {
      __m512i acc64 = _mm512_setzero_si512();
      for (std::int64_t w = 0; w < words; ++w) {
        const __m512i av = _mm512_set1_epi64(static_cast<long long>(ap[w]));
        const __m512i bv = _mm512_loadu_si512(bt_panel + w * cols8 + j);
        acc64 = _mm512_add_epi64(acc64, detail::popc_op512<Op>(av, bv));
      }
      add_lanes512(raw + i * cols8 + j, acc64);
    }
  }
}

#elif defined(__AVX2__)

// AVX2 flavor of the word-interleaved kernel: 256-bit vectors cover word w
// of 4 consecutive output columns; psadbw's four 64-bit lanes are the four
// per-column partials.
template <tcsim::BitOp Op>
void rowblock_strip(const std::uint64_t* a_panel, std::int64_t rows8,
                    const std::uint64_t* bt_panel, std::int64_t cols8,
                    std::int64_t words, std::int32_t* raw) {
  constexpr std::int64_t kMaxWordsPerChunk = 31;
  for (std::int64_t i = 0; i < rows8; ++i) {
    const std::uint64_t* ap = a_panel + i * words;
    for (std::int64_t j = 0; j < cols8; j += 4) {
      __m256i acc64 = _mm256_setzero_si256();
      std::int64_t w = 0;
      while (w < words) {
        const std::int64_t chunk =
            std::min<std::int64_t>(words - w, kMaxWordsPerChunk);
        __m256i bytes = _mm256_setzero_si256();
        for (std::int64_t s = 0; s < chunk; ++s, ++w) {
          const __m256i av =
              _mm256_set1_epi64x(static_cast<long long>(ap[w]));
          const __m256i bv = _mm256_loadu_si256(
              reinterpret_cast<const __m256i*>(bt_panel + w * cols8 + j));
          bytes = _mm256_add_epi8(
              bytes, detail::popcount_bytes(detail::bit_op256<Op>(av, bv)));
        }
        acc64 = _mm256_add_epi64(acc64,
                                 _mm256_sad_epu8(bytes, _mm256_setzero_si256()));
      }
      alignas(32) std::int64_t lanes[4];
      _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc64);
      std::int32_t* dst = raw + i * cols8 + j;
      dst[0] += static_cast<std::int32_t>(lanes[0]);
      dst[1] += static_cast<std::int32_t>(lanes[1]);
      dst[2] += static_cast<std::int32_t>(lanes[2]);
      dst[3] += static_cast<std::int32_t>(lanes[3]);
    }
  }
}

#endif

// B is either a row-pointer table (b_rows) or a panel source (b_src).
template <tcsim::BitOp Op>
void block_bitgemm_impl(const std::uint64_t* const* a_rows, std::int64_t rows8,
                        const std::uint64_t* const* b_rows,
                        const PanelSource* b_src, std::int64_t cols8,
                        std::int64_t row_words, std::int32_t* acc,
                        parallel::ScratchArena& arena) {
  const std::int64_t strip = std::min<std::int64_t>(kStripWords, row_words);
  std::uint64_t* a_panel = arena.get<std::uint64_t>(rows8 * strip);
  std::uint64_t* b_panel = arena.get<std::uint64_t>(cols8 * strip);
  for (std::int64_t w0 = 0; w0 < row_words; w0 += strip) {
    const std::int64_t wc = std::min<std::int64_t>(strip, row_words - w0);
    stage_panel(a_rows, rows8, w0, wc, a_panel);
    // SIMD builds stage B word-interleaved for the row-block kernel; scalar
    // builds stage it row-major for the 8x8 tile kernel.
    if constexpr (kHasRowBlockKernel) {
      if (b_rows != nullptr) {
        stage_panel_transposed(b_rows, cols8, w0, wc, b_panel);
      } else {
        b_src->stage_transposed(w0, wc, b_panel);
      }
      rowblock_strip<Op>(a_panel, rows8, b_panel, cols8, wc, acc);
    } else {
      if (b_rows != nullptr) {
        stage_panel(b_rows, cols8, w0, wc, b_panel);
      } else {
        b_src->stage(w0, wc, b_panel);
      }
      for (std::int64_t ii = 0; ii < rows8; ii += 8) {
        const std::uint64_t* a_tile = a_panel + ii * wc;
        std::int32_t* acc_row = acc + ii * cols8;
        for (std::int64_t jj = 0; jj < cols8; jj += 8) {
          tile_8x8_strip<Op>(a_tile, wc, b_panel + jj * wc, wc, wc,
                             acc_row + jj, cols8);
        }
      }
    }
  }
}

void block_bitgemm_dispatch(tcsim::BitOp op,
                            const std::uint64_t* const* a_rows,
                            std::int64_t rows8,
                            const std::uint64_t* const* b_rows,
                            const PanelSource* b_src, std::int64_t cols8,
                            std::int64_t row_words, std::int32_t* acc,
                            parallel::ScratchArena& arena) {
  APNN_DCHECK(rows8 % 8 == 0 && cols8 % 8 == 0)
      << "tile dims must be multiples of 8: " << rows8 << "x" << cols8;
  if (rows8 == 0 || cols8 == 0 || row_words == 0) return;
  if (op == tcsim::BitOp::kXor) {
    block_bitgemm_impl<tcsim::BitOp::kXor>(a_rows, rows8, b_rows, b_src,
                                           cols8, row_words, acc, arena);
  } else {
    block_bitgemm_impl<tcsim::BitOp::kAnd>(a_rows, rows8, b_rows, b_src,
                                           cols8, row_words, acc, arena);
  }
}

}  // namespace

void block_bitgemm(tcsim::BitOp op, const std::uint64_t* const* a_rows,
                   std::int64_t rows8, const std::uint64_t* const* b_rows,
                   std::int64_t cols8, std::int64_t row_words,
                   std::int32_t* acc, parallel::ScratchArena& arena) {
  block_bitgemm_dispatch(op, a_rows, rows8, b_rows, nullptr, cols8,
                         row_words, acc, arena);
}

void block_bitgemm(tcsim::BitOp op, const std::uint64_t* const* a_rows,
                   std::int64_t rows8, const PanelSource& b,
                   std::int64_t row_words, std::int32_t* acc,
                   parallel::ScratchArena& arena) {
  block_bitgemm_dispatch(op, a_rows, rows8, nullptr, &b, b.rows(), row_words,
                         acc, arena);
}

}  // namespace apnn::core::microkernel
