#include "src/core/microkernel.hpp"

#include <algorithm>
#include <cstring>

#include "src/common/check.hpp"
#include "src/parallel/scratch.hpp"

namespace apnn::core::microkernel {

namespace {

/// Words of occupancy bitmap per staged row: one bit per staged 64-bit
/// word, packed into uint64 mask words.
constexpr std::int64_t occ_words(std::int64_t words) {
  return (words + 63) / 64;
}

/// Occupancy mask of up to 64 consecutive words: bit w set iff src[w] != 0.
/// A word-at-a-time compare-shift-or chain is slow enough to cost dense
/// workloads several percent at staging time; the SIMD forms test 8 (or 4)
/// words per issue, keeping the occupancy build within memcpy noise.
inline std::uint64_t occ_scan(const std::uint64_t* src, std::int64_t words) {
  std::uint64_t m = 0;
  std::int64_t w = 0;
#if defined(__AVX512BW__)
  for (; w + 8 <= words; w += 8) {
    const __m512i v = _mm512_loadu_si512(src + w);
    m |= static_cast<std::uint64_t>(_mm512_test_epi64_mask(v, v)) << w;
  }
#elif defined(__AVX2__)
  const __m256i zero = _mm256_setzero_si256();
  for (; w + 4 <= words; w += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + w));
    const unsigned z = static_cast<unsigned>(_mm256_movemask_pd(
        _mm256_castsi256_pd(_mm256_cmpeq_epi64(v, zero))));
    m |= static_cast<std::uint64_t>(~z & 0xfu) << w;
  }
#endif
  for (; w < words; ++w) {
    m |= static_cast<std::uint64_t>(src[w] != 0) << w;
  }
  return m;
}

/// Fills the occupancy words of one row from its contiguous staged (or
/// source) form; returns how many of `words` are zero.
inline std::int64_t occ_scan_row(const std::uint64_t* src, std::int64_t words,
                                 std::uint64_t* oc) {
  std::int64_t zeros = 0;
  for (std::int64_t c = 0; c * 64 < words; ++c) {
    const std::int64_t n = std::min<std::int64_t>(64, words - c * 64);
    oc[c] = occ_scan(src + c * 64, n);
    zeros += n - __builtin_popcountll(oc[c]);
  }
  return zeros;
}

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
/// of several consecutive output columns and psadbw lanes align with
/// columns (no per-element horizontal reduction).
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

/// stage_panel + zero-word occupancy map: bit (w % 64) of
/// occ[i * occ_words(words) + w / 64] is set iff row i's staged word w is
/// NONZERO; mask bits past `words` stay clear. Returns the number of
/// all-zero staged words (the density-gate input).
std::int64_t stage_panel_occ(const std::uint64_t* const* rows,
                             std::int64_t nrows, std::int64_t w0,
                             std::int64_t words, std::uint64_t* panel,
                             std::uint64_t* occ) {
  const std::int64_t mw = occ_words(words);
  std::int64_t zeros = 0;
  for (std::int64_t i = 0; i < nrows; ++i) {
    std::uint64_t* dst = panel + i * words;
    std::uint64_t* oc = occ + i * mw;
    const std::uint64_t* src = rows[i];
    if (src == nullptr) {
      std::memset(dst, 0,
                  static_cast<std::size_t>(words) * sizeof(std::uint64_t));
      for (std::int64_t c = 0; c < mw; ++c) oc[c] = 0;
      zeros += words;  // virtual padding rows are entirely skippable
      continue;
    }
    std::memcpy(dst, src + w0,
                static_cast<std::size_t>(words) * sizeof(std::uint64_t));
    zeros += occ_scan_row(dst, words, oc);
  }
  return zeros;
}

/// stage_panel_transposed + the same occupancy map (occ stays row-indexed
/// even though the panel is word-interleaved).
std::int64_t stage_panel_transposed_occ(const std::uint64_t* const* rows,
                                        std::int64_t nrows, std::int64_t w0,
                                        std::int64_t words,
                                        std::uint64_t* panel,
                                        std::uint64_t* occ) {
  const std::int64_t mw = occ_words(words);
  std::int64_t zeros = 0;
  for (std::int64_t j = 0; j < nrows; ++j) {
    std::uint64_t* oc = occ + j * mw;
    const std::uint64_t* src = rows[j];
    if (src == nullptr) {
      for (std::int64_t w = 0; w < words; ++w) panel[w * nrows + j] = 0;
      for (std::int64_t c = 0; c < mw; ++c) oc[c] = 0;
      zeros += words;
      continue;
    }
    for (std::int64_t w = 0; w < words; ++w) {
      panel[w * nrows + j] = src[w0 + w];
    }
    // Scan the contiguous source row, not the word-interleaved panel.
    zeros += occ_scan_row(src + w0, words, oc);
  }
  return zeros;
}

#if defined(__AVX512BW__)

// B is staged word-interleaved (panel[w * cols8 + j]), so one 512-bit load
// covers word w of 8 consecutive output columns and psadbw's eight 64-bit
// lanes ARE the eight per-column partial sums — no horizontal reduction per
// output element, the killer overhead when K is only a few words. Byte-wise
// counters flush to the lane accumulator at most every 31 words (8 bits max
// per byte per word, 255 ceiling).
template <tcsim::BitOp Op>
void rowblock_strip(const std::uint64_t* a_panel, std::int64_t rows8,
                    const std::uint64_t* bt_panel, std::int64_t cols8,
                    std::int64_t words, std::int32_t* raw) {
  constexpr std::int64_t kMaxWordsPerChunk = 31;
  for (std::int64_t i = 0; i < rows8; ++i) {
    const std::uint64_t* ap = a_panel + i * words;
    for (std::int64_t j = 0; j < cols8; j += 8) {
      __m512i acc64 = _mm512_setzero_si512();
      std::int64_t w = 0;
      while (w < words) {
        const std::int64_t chunk =
            std::min<std::int64_t>(words - w, kMaxWordsPerChunk);
        __m512i bytes = _mm512_setzero_si512();
        for (std::int64_t s = 0; s < chunk; ++s, ++w) {
          const __m512i av =
              _mm512_set1_epi64(static_cast<long long>(ap[w]));
          const __m512i bv = _mm512_loadu_si512(bt_panel + w * cols8 + j);
          bytes = _mm512_add_epi8(
              bytes, detail::popcount_bytes512(detail::bit_op512<Op>(av, bv)));
        }
        acc64 = _mm512_add_epi64(acc64,
                                 _mm512_sad_epu8(bytes, _mm512_setzero_si512()));
      }
      std::int32_t* dst = raw + i * cols8 + j;
      // maskz form: the plain _mm512_cvtepi64_epi32 seeds its destination
      // with _mm256_undefined_si256, which trips gcc's -Wmaybe-uninitialized
      // at -O3 (GCC PR105593); the zero seed emits the same vpmovqd.
      const __m256i lanes = _mm512_maskz_cvtepi64_epi32(0xff, acc64);
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(dst),
          _mm256_add_epi32(
              _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst)),
              lanes));
    }
  }
}

// Column-block width of the row-block kernel: occupancy masks for B are
// OR-combined over this many columns before the skip sweep.
constexpr std::int64_t kColBlock = 8;

// Occupancy-consulting flavor: per (row, column-block) lane, words whose
// combined mask bit is clear contribute exactly zero (AND: either operand
// word is zero; XOR: both are) and are skipped outright. Saturated lanes
// fall back to the sequential sweep so dense data never pays the bit-scan;
// the 31-word byte-counter budget carries across skip runs.
template <tcsim::BitOp Op>
void rowblock_strip_sparse(const std::uint64_t* a_panel, std::int64_t rows8,
                           const std::uint64_t* bt_panel, std::int64_t cols8,
                           std::int64_t words, const std::uint64_t* occ_a,
                           const std::uint64_t* occ_gb, std::int64_t mw,
                           std::int32_t* raw) {
  constexpr std::int64_t kMaxWordsPerChunk = 31;
  for (std::int64_t i = 0; i < rows8; ++i) {
    const std::uint64_t* ap = a_panel + i * words;
    const std::uint64_t* oa = occ_a + i * mw;
    for (std::int64_t j = 0; j < cols8; j += kColBlock) {
      const std::uint64_t* ob = occ_gb + (j / kColBlock) * mw;
      std::int64_t active = 0;
      for (std::int64_t c = 0; c < mw; ++c) {
        const std::uint64_t m =
            Op == tcsim::BitOp::kAnd ? oa[c] & ob[c] : oa[c] | ob[c];
        active += __builtin_popcountll(m);
      }
      if (active == 0) continue;  // whole lane contributes nothing
      __m512i acc64 = _mm512_setzero_si512();
      if (active == words) {
        std::int64_t w = 0;
        while (w < words) {
          const std::int64_t chunk =
              std::min<std::int64_t>(words - w, kMaxWordsPerChunk);
          __m512i bytes = _mm512_setzero_si512();
          for (std::int64_t s = 0; s < chunk; ++s, ++w) {
            const __m512i av =
                _mm512_set1_epi64(static_cast<long long>(ap[w]));
            const __m512i bv = _mm512_loadu_si512(bt_panel + w * cols8 + j);
            bytes = _mm512_add_epi8(
                bytes,
                detail::popcount_bytes512(detail::bit_op512<Op>(av, bv)));
          }
          acc64 = _mm512_add_epi64(
              acc64, _mm512_sad_epu8(bytes, _mm512_setzero_si512()));
        }
      } else {
        __m512i bytes = _mm512_setzero_si512();
        std::int64_t budget = kMaxWordsPerChunk;
        for (std::int64_t c = 0; c < mw; ++c) {
          std::uint64_t m =
              Op == tcsim::BitOp::kAnd ? oa[c] & ob[c] : oa[c] | ob[c];
          const std::int64_t base = c * 64;
          while (m != 0) {
            const std::int64_t w = base + __builtin_ctzll(m);
            m &= m - 1;
            const __m512i av =
                _mm512_set1_epi64(static_cast<long long>(ap[w]));
            const __m512i bv = _mm512_loadu_si512(bt_panel + w * cols8 + j);
            bytes = _mm512_add_epi8(
                bytes,
                detail::popcount_bytes512(detail::bit_op512<Op>(av, bv)));
            if (--budget == 0) {
              acc64 = _mm512_add_epi64(
                  acc64, _mm512_sad_epu8(bytes, _mm512_setzero_si512()));
              bytes = _mm512_setzero_si512();
              budget = kMaxWordsPerChunk;
            }
          }
        }
        acc64 = _mm512_add_epi64(
            acc64, _mm512_sad_epu8(bytes, _mm512_setzero_si512()));
      }
      std::int32_t* dst = raw + i * cols8 + j;
      const __m256i lanes = _mm512_maskz_cvtepi64_epi32(0xff, acc64);
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(dst),
          _mm256_add_epi32(
              _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst)),
              lanes));
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

constexpr std::int64_t kColBlock = 4;

// Occupancy-consulting AVX2 flavor; see the AVX-512 variant for the skip
// rules. Column-block masks cover 4 columns here (one 256-bit lane group).
template <tcsim::BitOp Op>
void rowblock_strip_sparse(const std::uint64_t* a_panel, std::int64_t rows8,
                           const std::uint64_t* bt_panel, std::int64_t cols8,
                           std::int64_t words, const std::uint64_t* occ_a,
                           const std::uint64_t* occ_gb, std::int64_t mw,
                           std::int32_t* raw) {
  constexpr std::int64_t kMaxWordsPerChunk = 31;
  for (std::int64_t i = 0; i < rows8; ++i) {
    const std::uint64_t* ap = a_panel + i * words;
    const std::uint64_t* oa = occ_a + i * mw;
    for (std::int64_t j = 0; j < cols8; j += kColBlock) {
      const std::uint64_t* ob = occ_gb + (j / kColBlock) * mw;
      std::int64_t active = 0;
      for (std::int64_t c = 0; c < mw; ++c) {
        const std::uint64_t m =
            Op == tcsim::BitOp::kAnd ? oa[c] & ob[c] : oa[c] | ob[c];
        active += __builtin_popcountll(m);
      }
      if (active == 0) continue;
      __m256i acc64 = _mm256_setzero_si256();
      if (active == words) {
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
          acc64 = _mm256_add_epi64(
              acc64, _mm256_sad_epu8(bytes, _mm256_setzero_si256()));
        }
      } else {
        __m256i bytes = _mm256_setzero_si256();
        std::int64_t budget = kMaxWordsPerChunk;
        for (std::int64_t c = 0; c < mw; ++c) {
          std::uint64_t m =
              Op == tcsim::BitOp::kAnd ? oa[c] & ob[c] : oa[c] | ob[c];
          const std::int64_t base = c * 64;
          while (m != 0) {
            const std::int64_t w = base + __builtin_ctzll(m);
            m &= m - 1;
            const __m256i av =
                _mm256_set1_epi64x(static_cast<long long>(ap[w]));
            const __m256i bv = _mm256_loadu_si256(
                reinterpret_cast<const __m256i*>(bt_panel + w * cols8 + j));
            bytes = _mm256_add_epi8(
                bytes, detail::popcount_bytes(detail::bit_op256<Op>(av, bv)));
            if (--budget == 0) {
              acc64 = _mm256_add_epi64(
                  acc64, _mm256_sad_epu8(bytes, _mm256_setzero_si256()));
              bytes = _mm256_setzero_si256();
              budget = kMaxWordsPerChunk;
            }
          }
        }
        acc64 = _mm256_add_epi64(
            acc64, _mm256_sad_epu8(bytes, _mm256_setzero_si256()));
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

#else

constexpr std::int64_t kColBlock = 8;

#endif

// kAuto engages the skip kernels only when staging saw at least this share
// of all-zero words on the gating operand (AND: max of the two sides, since
// either side's zero kills the word; XOR: min, since both must be zero).
// Break-even sits well above the first nonzero occupancy: per-lane mask
// plumbing costs the skip kernels ~10-20% of the dense sweep, and B-side
// zeros dilute through the column-group OR, so strips below ~a third zero
// words run faster dense (the w1a2 forward bench regresses with a lower
// gate; the sparsity sweep's 50%+ points keep their full win).
constexpr double kSparseZeroGate = 0.34;

// kAuto occupancy-sampling floor on the smaller panel dimension: a full
// default tile block on both sides. Skinnier blocks (classifier heads)
// spend comparably on the O(rows8+cols8) scan and bookkeeping as on the
// strip's popcount sweep, so sampling them can never pay for itself there.
constexpr std::int64_t kSparseMinDim = 64;

// OR-combine each group of `group` consecutive occupancy rows into one mask
// (column blocks for the row-block kernel, 8-row tiles for the tile path).
void build_group_occ(const std::uint64_t* occ, std::int64_t nrows,
                     std::int64_t group, std::int64_t mw, std::uint64_t* out) {
  for (std::int64_t g0 = 0, o = 0; g0 < nrows; g0 += group, ++o) {
    std::uint64_t* dst = out + o * mw;
    for (std::int64_t c = 0; c < mw; ++c) dst[c] = 0;
    for (std::int64_t r = 0; r < group; ++r) {
      const std::uint64_t* src = occ + (g0 + r) * mw;
      for (std::int64_t c = 0; c < mw; ++c) dst[c] |= src[c];
    }
  }
}

// B is either a row-pointer table (b_rows) or a panel source (b_src, which
// always stages dense): occupancy staging exists for row tables only.
template <tcsim::BitOp Op>
void block_bitgemm_impl(const std::uint64_t* const* a_rows, std::int64_t rows8,
                        const std::uint64_t* const* b_rows,
                        const PanelSource* b_src, std::int64_t cols8,
                        std::int64_t row_words, std::int32_t* acc,
                        parallel::ScratchArena& arena,
                        const MicroConfig& micro, SparsityStats* stats) {
  const std::int64_t strip = std::min<std::int64_t>(kStripWords, row_words);
  // kAuto adaptivity: occupancy staging costs a few percent over memcpy
  // staging, so once a strip measures hopelessly dense (under half the gate
  // on the op's skip side) the remaining strips of this block stage dense.
  // Every call re-samples from its first strip, so a stage whose inputs
  // turn sparse regains the fast path on the next kernel invocation.
  // kAuto only samples blocks at least kSparseMinDim on both panel sides;
  // skinnier blocks stage dense outright. kOn still forces occupancy on
  // every row-table block.
  bool build_occ =
      b_rows != nullptr &&
      (micro.sparse_staging == MicroConfig::Sparse::kOn ||
       (micro.sparse_staging == MicroConfig::Sparse::kAuto &&
        std::min(rows8, cols8) >= kSparseMinDim));
  const std::int64_t mw = build_occ ? occ_words(strip) : 0;
  std::uint64_t* a_panel = arena.get<std::uint64_t>(rows8 * strip);
  std::uint64_t* b_panel = arena.get<std::uint64_t>(cols8 * strip);
  // Occupancy buffers live alongside the panels: allocated once up front so
  // the per-strip loop stays free of arena growth (bump allocator).
  std::uint64_t* occ_a = nullptr;
  std::uint64_t* occ_b = nullptr;
  std::uint64_t* occ_ga = nullptr;   // 8-row tile masks of A (tile path)
  std::uint64_t* occ_gb = nullptr;   // column-group masks of B
  std::uint64_t* maskbuf = nullptr;  // combined run mask (tile path)
  if (build_occ) {
    occ_a = arena.get<std::uint64_t>(rows8 * mw);
    occ_b = arena.get<std::uint64_t>(cols8 * mw);
    if constexpr (kHasRowBlockKernel) {
      occ_gb = arena.get<std::uint64_t>((cols8 / kColBlock) * mw);
    } else {
      occ_ga = arena.get<std::uint64_t>((rows8 / 8) * mw);
      occ_gb = arena.get<std::uint64_t>((cols8 / 8) * mw);
      maskbuf = arena.get<std::uint64_t>(mw);
    }
  }

  std::int64_t st_staged = 0, st_zero = 0, st_sparse = 0, st_dense = 0;
  for (std::int64_t w0 = 0; w0 < row_words; w0 += strip) {
    const std::int64_t wc = std::min<std::int64_t>(strip, row_words - w0);
    const std::int64_t mwc = build_occ ? occ_words(wc) : 0;
    // Shared by both staging layouts: density gate + the adaptive opt-out
    // (only kAuto reaches the threshold math; kOn returns early).
    auto gate_sparse = [&](std::int64_t za_words, std::int64_t zb_words) {
      if (micro.sparse_staging == MicroConfig::Sparse::kOn) return true;
      const double za = static_cast<double>(za_words) /
                        static_cast<double>(rows8 * wc);
      const double zb = static_cast<double>(zb_words) /
                        static_cast<double>(cols8 * wc);
      const double g = Op == tcsim::BitOp::kAnd ? std::max(za, zb)
                                                : std::min(za, zb);
      if (g < 0.5 * kSparseZeroGate) build_occ = false;
      return g >= kSparseZeroGate;
    };
    std::int64_t zero_a = 0;
    if (build_occ) {
      zero_a = stage_panel_occ(a_rows, rows8, w0, wc, a_panel, occ_a);
    } else {
      stage_panel(a_rows, rows8, w0, wc, a_panel);
    }
    // SIMD builds stage B word-interleaved for the row-block kernel; scalar
    // builds stage it row-major for the 8x8 tile kernel.
    std::int64_t zero_b = 0;
    if constexpr (kHasRowBlockKernel) {
      if (build_occ) {
        zero_b = stage_panel_transposed_occ(b_rows, cols8, w0, wc, b_panel,
                                            occ_b);
      } else if (b_rows != nullptr) {
        stage_panel_transposed(b_rows, cols8, w0, wc, b_panel);
      } else {
        b_src->stage_transposed(w0, wc, b_panel);
      }
    } else {
      if (build_occ) {
        zero_b = stage_panel_occ(b_rows, cols8, w0, wc, b_panel, occ_b);
      } else if (b_rows != nullptr) {
        stage_panel(b_rows, cols8, w0, wc, b_panel);
      } else {
        b_src->stage(w0, wc, b_panel);
      }
    }
    bool use_sparse = false;
    if (build_occ) {
      st_staged += (rows8 + cols8) * wc;
      st_zero += zero_a + zero_b;
      use_sparse = gate_sparse(zero_a, zero_b);
    }
    ++(use_sparse ? st_sparse : st_dense);
    if constexpr (kHasRowBlockKernel) {
      if (use_sparse) {
        build_group_occ(occ_b, cols8, kColBlock, mwc, occ_gb);
        rowblock_strip_sparse<Op>(a_panel, rows8, b_panel, cols8, wc, occ_a,
                                  occ_gb, mwc, acc);
      } else {
        rowblock_strip<Op>(a_panel, rows8, b_panel, cols8, wc, acc);
      }
    } else if (use_sparse) {
      // Run-sliced tile path: OR the 8 per-row masks of each tile on both
      // sides, then feed maximal runs of active words to the dense 8x8
      // kernel unchanged — acc is +=, so per-run calls compose exactly.
      build_group_occ(occ_a, rows8, 8, mwc, occ_ga);
      build_group_occ(occ_b, cols8, 8, mwc, occ_gb);
      for (std::int64_t ii = 0; ii < rows8; ii += 8) {
        const std::uint64_t* ga = occ_ga + (ii / 8) * mwc;
        const std::uint64_t* a_tile = a_panel + ii * wc;
        std::int32_t* acc_row = acc + ii * cols8;
        for (std::int64_t jj = 0; jj < cols8; jj += 8) {
          const std::uint64_t* gb = occ_gb + (jj / 8) * mwc;
          for (std::int64_t c = 0; c < mwc; ++c) {
            maskbuf[c] =
                Op == tcsim::BitOp::kAnd ? ga[c] & gb[c] : ga[c] | gb[c];
          }
          const std::uint64_t* b_tile = b_panel + jj * wc;
          std::int64_t w = 0;
          while (w < wc) {
            if (((maskbuf[w >> 6] >> (w & 63)) & 1u) == 0) {
              ++w;
              continue;
            }
            const std::int64_t lo = w;
            while (w < wc && ((maskbuf[w >> 6] >> (w & 63)) & 1u) != 0) ++w;
            tile_8x8_strip<Op>(a_tile + lo, wc, b_tile + lo, wc, w - lo,
                               acc_row + jj, cols8);
          }
        }
      }
    } else {
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
  if (stats != nullptr) {
    stats->staged_words.fetch_add(st_staged, std::memory_order_relaxed);
    stats->zero_words.fetch_add(st_zero, std::memory_order_relaxed);
    stats->sparse_strips.fetch_add(st_sparse, std::memory_order_relaxed);
    stats->dense_strips.fetch_add(st_dense, std::memory_order_relaxed);
  }
}

void block_bitgemm_dispatch(tcsim::BitOp op,
                            const std::uint64_t* const* a_rows,
                            std::int64_t rows8,
                            const std::uint64_t* const* b_rows,
                            const PanelSource* b_src, std::int64_t cols8,
                            std::int64_t row_words, std::int32_t* acc,
                            parallel::ScratchArena& arena,
                            const MicroConfig& micro, SparsityStats* stats) {
  APNN_DCHECK(rows8 % 8 == 0 && cols8 % 8 == 0)
      << "tile dims must be multiples of 8: " << rows8 << "x" << cols8;
  if (rows8 == 0 || cols8 == 0 || row_words == 0) return;
  if (op == tcsim::BitOp::kXor) {
    block_bitgemm_impl<tcsim::BitOp::kXor>(a_rows, rows8, b_rows, b_src,
                                           cols8, row_words, acc, arena,
                                           micro, stats);
  } else {
    block_bitgemm_impl<tcsim::BitOp::kAnd>(a_rows, rows8, b_rows, b_src,
                                           cols8, row_words, acc, arena,
                                           micro, stats);
  }
}

}  // namespace

void block_bitgemm(tcsim::BitOp op, const std::uint64_t* const* a_rows,
                   std::int64_t rows8, const std::uint64_t* const* b_rows,
                   std::int64_t cols8, std::int64_t row_words,
                   std::int32_t* acc, parallel::ScratchArena& arena,
                   const MicroConfig& micro, SparsityStats* stats) {
  block_bitgemm_dispatch(op, a_rows, rows8, b_rows, nullptr, cols8,
                         row_words, acc, arena, micro, stats);
}

void block_bitgemm(tcsim::BitOp op, const std::uint64_t* const* a_rows,
                   std::int64_t rows8, const PanelSource& b,
                   std::int64_t row_words, std::int32_t* acc,
                   parallel::ScratchArena& arena, SparsityStats* stats) {
  block_bitgemm_dispatch(op, a_rows, rows8, nullptr, &b, b.rows(), row_words,
                         acc, arena, {}, stats);
}

}  // namespace apnn::core::microkernel
