// Staged, cache-blocked, allocation-free bit-GEMM microkernels.
//
// This is the functional analogue of the paper's §4.2 kernel structure. A
// simulated thread block computes raw popc accumulations for its virtual
// tile (vtm8 x vtn8 plane-interleaved rows) in three moves:
//
//   1. *Staging* (double caching, §4.1a/§4.2): the block's A and B rows —
//      which live scattered across per-plane BitMatrix storage and may be
//      virtual zero padding — are copied ONCE per k-strip into contiguous
//      per-thread panels. All subsequent accesses are dense unit-stride
//      loads, exactly as the device kernel reads tiles out of shared memory
//      instead of global row pointers.
//   2. *Microkernel* (fragment reuse): an 8x8 output tile walks the whole
//      k-strip in one call, holding the 8 B words of the current k-slab in
//      locals (registers) and the 64 partial sums in a local accumulator
//      block — the seed loop reloaded every B word 8x per 8x8 tile and
//      round-tripped accumulators through memory every 128-bit slab.
//   3. *Cache blocking*: k is walked in strips of kStripWords so the two
//      staged panels plus the accumulator tile stay cache-resident even for
//      large K; partial sums accumulate in place across strips.
//
// The microkernels are templated on the tensor-core BitOp so the op is
// resolved at compile time (one branch per block, not per word). All scratch
// comes from a parallel::ScratchArena — the hot path performs no heap
// allocation in steady state.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>

#if defined(__AVX2__) || defined(__AVX512BW__)
#include <immintrin.h>
#endif

#include "src/tcsim/mma.hpp"

namespace apnn::parallel {
class ScratchArena;
}

namespace apnn::core::microkernel {

/// k-strip depth in 64-bit words. 32 words = 2048 k-bits = 16 bmma slabs:
/// the worst-case staged footprint (two 136-row panels) is ~70 KiB, which
/// fits L2 comfortably while amortizing the staging pass over many 8x8
/// tiles.
inline constexpr std::int64_t kStripWords = 32;

/// Compile-time SIMD flavor of the popcount kernels. SIMD builds have the
/// word-interleaved row-block kernel and always stage B for it; scalar
/// builds stage row-major for the 8x8 tile kernel. The AVX-512 flavor needs
/// VPOPCNTDQ (native 64-bit-lane popcount) as well as BW; a host with BW
/// alone builds the AVX2 flavor.
#if defined(__AVX512BW__) && defined(__AVX512VPOPCNTDQ__)
inline constexpr const char* kSimdFlavor = "avx512vpopcntdq";
inline constexpr bool kHasRowBlockKernel = true;
#elif defined(__AVX2__)
inline constexpr const char* kSimdFlavor = "avx2";
inline constexpr bool kHasRowBlockKernel = true;
#else
inline constexpr const char* kSimdFlavor = "scalar";
inline constexpr bool kHasRowBlockKernel = false;
#endif

/// One 64-bit lane of the 1-bit dot product: popc(a XOR b) or popc(a AND b),
/// selected at compile time.
template <tcsim::BitOp Op>
inline std::int32_t bit_dot_word(std::uint64_t a, std::uint64_t b) {
  if constexpr (Op == tcsim::BitOp::kXor) {
    return __builtin_popcountll(a ^ b);
  } else {
    return __builtin_popcountll(a & b);
  }
}

#if defined(__AVX512BW__) && defined(__AVX512VPOPCNTDQ__)

namespace detail {

template <tcsim::BitOp Op>
inline __m512i bit_op512(__m512i a, __m512i b) {
  if constexpr (Op == tcsim::BitOp::kXor) {
    return _mm512_xor_si512(a, b);
  } else {
    return _mm512_and_si512(a, b);
  }
}

/// popc(op(a, b)) per 64-bit lane: one native vpopcntq per 512 bits.
template <tcsim::BitOp Op>
inline __m512i popc_op512(__m512i a, __m512i b) {
  return _mm512_popcnt_epi64(bit_op512<Op>(a, b));
}

/// Horizontal sum of the eight 64-bit lanes. Open-coded instead of
/// _mm512_reduce_add_epi64: gcc lowers that (and even the plain 512→256
/// cast) through extracts seeded with _mm256_undefined_*, which trips
/// -Wmaybe-uninitialized at -O3 (GCC PR105593); the maskz extracts seed
/// with zeros and generate the same instructions.
inline std::int64_t hsum_epi64_512(__m512i v) {
  const __m256i lo = _mm512_maskz_extracti64x4_epi64(0xff, v, 0);
  const __m256i hi = _mm512_maskz_extracti64x4_epi64(0xff, v, 1);
  const __m256i s = _mm256_add_epi64(lo, hi);
  const __m128i lo128 = _mm256_castsi256_si128(s);
  const __m128i hi128 = _mm256_extracti128_si256(s, 1);
  const __m128i s2 = _mm_add_epi64(lo128, hi128);
  return _mm_cvtsi128_si64(s2) + _mm_extract_epi64(s2, 1);
}

}  // namespace detail

/// 8x8 k-strip microkernel, AVX-512 VPOPCNTDQ flavor: one A row against all
/// 8 staged B rows, 512 bits / 8 words per step. Counts accumulate in the
/// 64-bit lanes vpopcntq produces — no lane can overflow for any strip, so
/// there is no counter flush — and each B row's lanes are summed once per
/// A row.
template <tcsim::BitOp Op>
inline void tile_8x8_strip(const std::uint64_t* a, std::int64_t lda,
                           const std::uint64_t* b, std::int64_t ldb,
                           std::int64_t words, std::int32_t* acc,
                           std::int64_t ldacc) {
  constexpr std::int64_t kWordsPerStep = 8;  // 512 bits
  for (int i = 0; i < 8; ++i) {
    const std::uint64_t* ap = a + i * lda;
    __m512i lanes[8];
    for (int j = 0; j < 8; ++j) lanes[j] = _mm512_setzero_si512();
    std::int64_t w = 0;
    for (; w + kWordsPerStep <= words; w += kWordsPerStep) {
      const __m512i av = _mm512_loadu_si512(ap + w);
      for (int j = 0; j < 8; ++j) {
        lanes[j] = _mm512_add_epi64(
            lanes[j], detail::popc_op512<Op>(
                          av, _mm512_loadu_si512(b + j * ldb + w)));
      }
    }
    std::int32_t* out = acc + i * ldacc;
    for (int j = 0; j < 8; ++j) {
      std::int64_t c = detail::hsum_epi64_512(lanes[j]);
      for (std::int64_t t = w; t < words; ++t) {  // scalar tail (< 8 words)
        c += bit_dot_word<Op>(ap[t], b[j * ldb + t]);
      }
      out[j] += static_cast<std::int32_t>(c);
    }
  }
}

#elif defined(__AVX2__)

namespace detail {

/// Per-byte popcount of a 256-bit vector via the 4-bit pshufb lookup
/// (Muła's technique): two table shuffles + an add per 32 bytes.
inline __m256i popcount_bytes(__m256i v) {
  const __m256i lookup = _mm256_setr_epi8(
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low_mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
  return _mm256_add_epi8(_mm256_shuffle_epi8(lookup, lo),
                         _mm256_shuffle_epi8(lookup, hi));
}

template <tcsim::BitOp Op>
inline __m256i bit_op256(__m256i a, __m256i b) {
  if constexpr (Op == tcsim::BitOp::kXor) {
    return _mm256_xor_si256(a, b);
  } else {
    return _mm256_and_si256(a, b);
  }
}

/// Horizontal sum of the four 64-bit lanes.
inline std::int64_t hsum_epi64(__m256i v) {
  const __m128i lo = _mm256_castsi256_si128(v);
  const __m128i hi = _mm256_extracti128_si256(v, 1);
  const __m128i s = _mm_add_epi64(lo, hi);
  return _mm_cvtsi128_si64(s) + _mm_extract_epi64(s, 1);
}

}  // namespace detail

/// 8x8 k-strip microkernel: for i, j in [0, 8),
///   acc[i * ldacc + j] += sum_{w < words} popc(op(a[i*lda + w], b[j*ldb + w]))
/// One A row at a time against all 8 staged B rows, 256 bits (4 words) per
/// step. The partial counts accumulate BYTE-wise in 8 ymm registers across
/// the whole strip — the register-fragment reuse of §4.1a — and are reduced
/// with a single psadbw per B row per chunk, keeping the shuffle-port
/// pressure (the throughput limit of pshufb popcounts) at two shuffles per
/// 32 bytes. Byte counters saturate at 255, so chunks are capped at 31
/// steps (31 * 8 = 248 max per byte).
template <tcsim::BitOp Op>
inline void tile_8x8_strip(const std::uint64_t* a, std::int64_t lda,
                           const std::uint64_t* b, std::int64_t ldb,
                           std::int64_t words, std::int32_t* acc,
                           std::int64_t ldacc) {
  constexpr std::int64_t kWordsPerStep = 4;   // 256 bits
  constexpr std::int64_t kMaxStepsPerChunk = 31;
  const std::uint64_t* bp[8];
  for (int j = 0; j < 8; ++j) bp[j] = b + j * ldb;

  for (int i = 0; i < 8; ++i) {
    const std::uint64_t* ap = a + i * lda;
    std::int64_t c[8] = {0};
    std::int64_t w = 0;
    while (words - w >= kWordsPerStep) {
      const std::int64_t steps = std::min<std::int64_t>(
          (words - w) / kWordsPerStep, kMaxStepsPerChunk);
      __m256i b0 = _mm256_setzero_si256(), b1 = b0, b2 = b0, b3 = b0;
      __m256i b4 = b0, b5 = b0, b6 = b0, b7 = b0;
      for (std::int64_t s = 0; s < steps; ++s, w += kWordsPerStep) {
        const __m256i av =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ap + w));
        b0 = _mm256_add_epi8(b0, detail::popcount_bytes(detail::bit_op256<Op>(
                av, _mm256_loadu_si256(
                        reinterpret_cast<const __m256i*>(bp[0] + w)))));
        b1 = _mm256_add_epi8(b1, detail::popcount_bytes(detail::bit_op256<Op>(
                av, _mm256_loadu_si256(
                        reinterpret_cast<const __m256i*>(bp[1] + w)))));
        b2 = _mm256_add_epi8(b2, detail::popcount_bytes(detail::bit_op256<Op>(
                av, _mm256_loadu_si256(
                        reinterpret_cast<const __m256i*>(bp[2] + w)))));
        b3 = _mm256_add_epi8(b3, detail::popcount_bytes(detail::bit_op256<Op>(
                av, _mm256_loadu_si256(
                        reinterpret_cast<const __m256i*>(bp[3] + w)))));
        b4 = _mm256_add_epi8(b4, detail::popcount_bytes(detail::bit_op256<Op>(
                av, _mm256_loadu_si256(
                        reinterpret_cast<const __m256i*>(bp[4] + w)))));
        b5 = _mm256_add_epi8(b5, detail::popcount_bytes(detail::bit_op256<Op>(
                av, _mm256_loadu_si256(
                        reinterpret_cast<const __m256i*>(bp[5] + w)))));
        b6 = _mm256_add_epi8(b6, detail::popcount_bytes(detail::bit_op256<Op>(
                av, _mm256_loadu_si256(
                        reinterpret_cast<const __m256i*>(bp[6] + w)))));
        b7 = _mm256_add_epi8(b7, detail::popcount_bytes(detail::bit_op256<Op>(
                av, _mm256_loadu_si256(
                        reinterpret_cast<const __m256i*>(bp[7] + w)))));
      }
      const __m256i zero = _mm256_setzero_si256();
      c[0] += detail::hsum_epi64(_mm256_sad_epu8(b0, zero));
      c[1] += detail::hsum_epi64(_mm256_sad_epu8(b1, zero));
      c[2] += detail::hsum_epi64(_mm256_sad_epu8(b2, zero));
      c[3] += detail::hsum_epi64(_mm256_sad_epu8(b3, zero));
      c[4] += detail::hsum_epi64(_mm256_sad_epu8(b4, zero));
      c[5] += detail::hsum_epi64(_mm256_sad_epu8(b5, zero));
      c[6] += detail::hsum_epi64(_mm256_sad_epu8(b6, zero));
      c[7] += detail::hsum_epi64(_mm256_sad_epu8(b7, zero));
    }
    for (; w < words; ++w) {  // scalar tail (< 4 words)
      const std::uint64_t av = ap[w];
      for (int j = 0; j < 8; ++j) c[j] += bit_dot_word<Op>(av, bp[j][w]);
    }
    std::int32_t* out = acc + i * ldacc;
    for (int j = 0; j < 8; ++j) out[j] += static_cast<std::int32_t>(c[j]);
  }
}

#else  // scalar fallback

/// 8x8 k-strip microkernel: for i, j in [0, 8),
///   acc[i * ldacc + j] += sum_{w < words} popc(op(a[i*lda + w], b[j*ldb + w]))
/// One A row is processed at a time with its 8 partial sums pinned in
/// registers for the whole k-strip — the register-fragment reuse of §4.1a.
/// The 8 B rows of the staged panel (a strip is at most 8 * kStripWords * 8
/// = 2 KiB) stay L1-resident, so re-walking them per A row is cheap; what
/// the seed loop paid for was the accumulator round trip through memory on
/// every 128-bit slab, which this shape eliminates entirely.
template <tcsim::BitOp Op>
inline void tile_8x8_strip(const std::uint64_t* a, std::int64_t lda,
                           const std::uint64_t* b, std::int64_t ldb,
                           std::int64_t words, std::int32_t* acc,
                           std::int64_t ldacc) {
  const std::uint64_t* b0p = b + 0 * ldb;
  const std::uint64_t* b1p = b + 1 * ldb;
  const std::uint64_t* b2p = b + 2 * ldb;
  const std::uint64_t* b3p = b + 3 * ldb;
  const std::uint64_t* b4p = b + 4 * ldb;
  const std::uint64_t* b5p = b + 5 * ldb;
  const std::uint64_t* b6p = b + 6 * ldb;
  const std::uint64_t* b7p = b + 7 * ldb;
  for (int i = 0; i < 8; ++i) {
    const std::uint64_t* ap = a + i * lda;
    std::int32_t c0 = 0, c1 = 0, c2 = 0, c3 = 0;
    std::int32_t c4 = 0, c5 = 0, c6 = 0, c7 = 0;
    for (std::int64_t w = 0; w < words; ++w) {
      const std::uint64_t av = ap[w];
      c0 += bit_dot_word<Op>(av, b0p[w]);
      c1 += bit_dot_word<Op>(av, b1p[w]);
      c2 += bit_dot_word<Op>(av, b2p[w]);
      c3 += bit_dot_word<Op>(av, b3p[w]);
      c4 += bit_dot_word<Op>(av, b4p[w]);
      c5 += bit_dot_word<Op>(av, b5p[w]);
      c6 += bit_dot_word<Op>(av, b6p[w]);
      c7 += bit_dot_word<Op>(av, b7p[w]);
    }
    std::int32_t* out = acc + i * ldacc;
    out[0] += c0;
    out[1] += c1;
    out[2] += c2;
    out[3] += c3;
    out[4] += c4;
    out[5] += c5;
    out[6] += c6;
    out[7] += c7;
  }
}

#endif  // SIMD dispatch

/// Runtime-op dispatch of tile_8x8_strip (single branch per call).
inline void tile_8x8_strip(tcsim::BitOp op, const std::uint64_t* a,
                           std::int64_t lda, const std::uint64_t* b,
                           std::int64_t ldb, std::int64_t words,
                           std::int32_t* acc, std::int64_t ldacc) {
  if (op == tcsim::BitOp::kXor) {
    tile_8x8_strip<tcsim::BitOp::kXor>(a, lda, b, ldb, words, acc, ldacc);
  } else {
    tile_8x8_strip<tcsim::BitOp::kAnd>(a, lda, b, ldb, words, acc, ldacc);
  }
}

/// Compare mask of one 64-column word: bit j is set when v[j] >= thr, for
/// the 64 values at v. The one flavor-specific step of the row-softmax
/// requantize (core::row_softmax_pack); the three versions differ in the
/// compare instruction alone.
inline std::uint64_t ge_mask64(const std::int32_t* v, std::int32_t thr) {
  std::uint64_t m = 0;
#if defined(__AVX512BW__) && defined(__AVX512VPOPCNTDQ__)
  const __m512i t = _mm512_set1_epi32(thr);
  for (int c = 0; c < 4; ++c) {
    const __m512i x = _mm512_loadu_si512(v + 16 * c);
    m |= std::uint64_t{_mm512_cmpge_epi32_mask(x, t)} << (16 * c);
  }
#elif defined(__AVX2__)
  const __m256i t = _mm256_set1_epi32(thr);
  for (int c = 0; c < 8; ++c) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + 8 * c));
    // v >= thr  <=>  !(thr > v): no thr - 1, so no overflow at INT32_MIN.
    const int lt = _mm256_movemask_ps(
        _mm256_castsi256_ps(_mm256_cmpgt_epi32(t, x)));
    m |= std::uint64_t{static_cast<std::uint8_t>(~lt)} << (8 * c);
  }
#else
  for (int j = 0; j < 64; ++j) {
    m |= std::uint64_t{v[j] >= thr} << j;
  }
#endif
  return m;
}

/// Whole-bit-plane elision counters of the combine layer: how many operand
/// planes a call examined and how many were all-zero and dropped. One
/// instance may aggregate any number of concurrent calls (atomic counters).
struct SparsityStats {
  std::atomic<std::int64_t> planes{0};         ///< operand planes examined
  std::atomic<std::int64_t> planes_elided{0};  ///< all-zero planes dropped
};

/// Where block_bitgemm's B-panel k-strips come from when B is not a
/// row-pointer table: layout::WindowGatherSource assembles convolution
/// patch rows on the fly from the packed feature-map planes (im2col-free
/// APConv, §4.2), so the patch matrix is never materialized.
class PanelSource {
 public:
  virtual ~PanelSource() = default;

  /// Number of virtual rows this source stages (a multiple of 8).
  virtual std::int64_t rows() const = 0;

  /// Row-major staging: words [w0, w0 + words) of every virtual row into
  /// panel (row j at panel + j * words). Out-of-range virtual rows stage as
  /// zeros.
  virtual void stage(std::int64_t w0, std::int64_t words,
                     std::uint64_t* panel) const = 0;

  /// Word-interleaved staging: panel[w * rows() + j] = row j's word w0 + w,
  /// for words <= kStripWords.
  virtual void stage_transposed(std::int64_t w0, std::int64_t words,
                                std::uint64_t* panel) const = 0;
};

/// Block-level driver: for a block's plane-interleaved A row-pointer table
/// (rows8 entries, a multiple of 8; nullptr = zero row) and a B
/// plane-interleaved row-pointer table (cols8 entries, likewise), accumulates
///   acc[i * cols8 + j] += sum_{w < row_words} popc(op(a_i[w], b_j[w]))
/// walking k in kStripWords strips, staging each strip once, and invoking
/// the build's inner kernel per output tile. All temporaries come from
/// `arena` (valid until the caller's next reset()).
void block_bitgemm(tcsim::BitOp op, const std::uint64_t* const* a_rows,
                   std::int64_t rows8, const std::uint64_t* const* b_rows,
                   std::int64_t cols8, std::int64_t row_words,
                   std::int32_t* acc, parallel::ScratchArena& arena);

/// The same sweep with B staged from a panel source (b.rows() a multiple
/// of 8).
void block_bitgemm(tcsim::BitOp op, const std::uint64_t* const* a_rows,
                   std::int64_t rows8, const PanelSource& b,
                   std::int64_t row_words, std::int32_t* acc,
                   parallel::ScratchArena& arena);

}  // namespace apnn::core::microkernel
