// Pins the staged cache-blocked microkernel pipeline bit-exact against the
// scalar dot-product references and the dense golden models, including the
// shapes that provoke the packed-output word race the seed had.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/baselines/gemm.hpp"
#include "src/bitops/bit_matrix.hpp"
#include "src/core/apmm.hpp"
#include "src/core/apmm_internal.hpp"
#include "src/core/microkernel.hpp"
#include "src/layout/im2col.hpp"
#include "src/layout/packed_activations.hpp"
#include "src/parallel/scratch.hpp"
#include "src/quant/quantizer.hpp"
#include "src/tcsim/device_spec.hpp"
#include "test_util.hpp"

namespace apnn::core {
namespace {

using apnn::testing::naive_gemm;
using apnn::testing::random_logical;
using bitops::BitMatrix;
using internal::make_geometry;

const tcsim::DeviceSpec& dev() { return tcsim::rtx3090(); }

std::int64_t scalar_dot(tcsim::BitOp op, const std::uint64_t* a,
                        const std::uint64_t* b, std::int64_t words) {
  return op == tcsim::BitOp::kXor ? bitops::dot_xor_popc(a, b, words)
                                  : bitops::dot_and_popc(a, b, words);
}

// --- block_bitgemm vs scalar popc dot products ----------------------------

struct BlockShape {
  std::int64_t rows8, cols8, k_bits;
};

class BlockBitgemm
    : public ::testing::TestWithParam<std::tuple<tcsim::BitOp, BlockShape>> {};

TEST_P(BlockBitgemm, MatchesScalarDotProducts) {
  const auto [op, shape] = GetParam();
  Rng rng(shape.rows8 * 131 + shape.cols8 * 17 + shape.k_bits);
  BitMatrix a(shape.rows8, shape.k_bits), b(shape.cols8, shape.k_bits);
  a.randomize(rng);
  b.randomize(rng);
  const std::int64_t words = a.row_words();

  // Mark a few rows as virtual padding (nullptr) like the batched kernel
  // does for out-of-range tile rows.
  std::vector<const std::uint64_t*> a_rows(
      static_cast<std::size_t>(shape.rows8));
  std::vector<const std::uint64_t*> b_rows(
      static_cast<std::size_t>(shape.cols8));
  for (std::int64_t i = 0; i < shape.rows8; ++i) {
    a_rows[static_cast<std::size_t>(i)] = i % 7 == 5 ? nullptr : a.row(i);
  }
  for (std::int64_t j = 0; j < shape.cols8; ++j) {
    b_rows[static_cast<std::size_t>(j)] = j % 5 == 3 ? nullptr : b.row(j);
  }

  parallel::ScratchArena arena;
  std::vector<std::int32_t> acc(
      static_cast<std::size_t>(shape.rows8 * shape.cols8), 7);
  microkernel::block_bitgemm(op, a_rows.data(), shape.rows8, b_rows.data(),
                             shape.cols8, words, acc.data(), arena);

  const std::vector<std::uint64_t> zeros(static_cast<std::size_t>(words), 0);
  for (std::int64_t i = 0; i < shape.rows8; ++i) {
    const std::uint64_t* ar = a_rows[static_cast<std::size_t>(i)] != nullptr
                                  ? a_rows[static_cast<std::size_t>(i)]
                                  : zeros.data();
    for (std::int64_t j = 0; j < shape.cols8; ++j) {
      const std::uint64_t* br = b_rows[static_cast<std::size_t>(j)] != nullptr
                                    ? b_rows[static_cast<std::size_t>(j)]
                                    : zeros.data();
      // acc started at 7 — block_bitgemm accumulates, never overwrites.
      EXPECT_EQ(acc[static_cast<std::size_t>(i * shape.cols8 + j)],
                7 + scalar_dot(op, ar, br, words))
          << "(" << i << ", " << j << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BlockBitgemm,
    ::testing::Combine(
        ::testing::Values(tcsim::BitOp::kXor, tcsim::BitOp::kAnd),
        ::testing::Values(
            BlockShape{8, 8, 128},      // one bmma tile
            BlockShape{8, 8, 64},       // sub-slab K (padded row)
            BlockShape{16, 32, 1024},   // multiple tiles, single strip
            BlockShape{24, 8, 2048},    // exactly one full strip
            BlockShape{32, 16, 2111},   // strip + byte-chunk + scalar tails
            BlockShape{64, 64, 8192}    // several strips
            )));

TEST(TileStrip, Bmma128SlabMatchesScalar) {
  Rng rng(99);
  BitMatrix a(8, 256), b(8, 256);
  a.randomize(rng);
  b.randomize(rng);
  for (const auto op : {tcsim::BitOp::kXor, tcsim::BitOp::kAnd}) {
    std::int32_t acc[64] = {0};
    // Two 128-bit slabs through the public bmma entry point.
    tcsim::bmma_8x8x128(op, a.row(0), a.row_words(), b.row(0), b.row_words(),
                        acc);
    tcsim::bmma_8x8x128(op, a.row(0) + 2, a.row_words(), b.row(0) + 2,
                        b.row_words(), acc);
    for (int i = 0; i < 8; ++i) {
      for (int j = 0; j < 8; ++j) {
        EXPECT_EQ(acc[i * 8 + j], scalar_dot(op, a.row(i), b.row(j), 4));
      }
    }
  }
}

// --- count lanes at their ceiling -----------------------------------------

// A panel source whose every word is `fill`.
class ConstPanel : public microkernel::PanelSource {
 public:
  ConstPanel(std::int64_t rows, std::uint64_t fill)
      : rows_(rows), fill_(fill) {}
  std::int64_t rows() const override { return rows_; }
  void stage(std::int64_t, std::int64_t words,
             std::uint64_t* panel) const override {
    std::fill(panel, panel + rows_ * words, fill_);
  }
  void stage_transposed(std::int64_t, std::int64_t words,
                        std::uint64_t* panel) const override {
    std::fill(panel, panel + rows_ * words, fill_);
  }

 private:
  std::int64_t rows_;
  std::uint64_t fill_;
};

// Every output at its maximum, 64 per word: AND of ones with ones, XOR of
// ones with zeros. Random bits average 32 per word and never come near the
// ceiling of a narrow counter, so only saturated operands pin the count
// lanes at (and across) strip and chunk boundaries.
TEST(MaxCount, EveryOutputReadsSixtyFourPerWord) {
  constexpr std::int64_t kRows = 16, kCols = 16;
  std::vector<std::int64_t> word_counts;
  for (std::int64_t w = 1; w <= 33; ++w) word_counts.push_back(w);
  word_counts.push_back(8192 / 64);
  parallel::ScratchArena arena;
  for (const std::int64_t words : word_counts) {
    const std::vector<std::uint64_t> ones(static_cast<std::size_t>(words),
                                          ~std::uint64_t{0});
    const std::vector<std::uint64_t> zeros(static_cast<std::size_t>(words),
                                           0);
    const std::int32_t want = static_cast<std::int32_t>(64 * words);
    for (const auto op : {tcsim::BitOp::kXor, tcsim::BitOp::kAnd}) {
      const std::vector<std::uint64_t>& b_row =
          op == tcsim::BitOp::kAnd ? ones : zeros;
      const std::vector<const std::uint64_t*> a_rows(kRows, ones.data());
      const std::vector<const std::uint64_t*> b_rows(kCols, b_row.data());
      std::vector<std::int32_t> acc(kRows * kCols, 0);
      arena.reset();
      microkernel::block_bitgemm(op, a_rows.data(), kRows, b_rows.data(),
                                 kCols, words, acc.data(), arena);
      for (const std::int32_t v : acc) {
        ASSERT_EQ(v, want) << "row table words=" << words
                           << " op=" << static_cast<int>(op);
      }
      const ConstPanel src(kCols, b_row[0]);
      std::fill(acc.begin(), acc.end(), 0);
      arena.reset();
      microkernel::block_bitgemm(op, a_rows.data(), kRows, src, words,
                                 acc.data(), arena);
      for (const std::int32_t v : acc) {
        ASSERT_EQ(v, want) << "panel source words=" << words
                           << " op=" << static_cast<int>(op);
      }
      // The 8x8 tile kernel over the whole k range in one call.
      std::vector<std::int32_t> tile(64, 0);
      microkernel::tile_8x8_strip(op, ones.data(), 0, b_row.data(), 0, words,
                                  tile.data(), 8);
      for (const std::int32_t v : tile) {
        ASSERT_EQ(v, want) << "tile words=" << words;
      }
    }
  }
}

// --- end-to-end equivalence on odd / non-tile-aligned shapes --------------

struct OddCase {
  Encoding w_enc;
  int p;
  Encoding x_enc;
  int q;
  std::int64_t m, n, k;
};

class MicrokernelOddShapes : public ::testing::TestWithParam<OddCase> {};

TEST_P(MicrokernelOddShapes, ApmmMatchesDenseReference) {
  const OddCase c = GetParam();
  Rng rng(static_cast<std::uint64_t>(c.m * 7919 + c.n * 104729 + c.k));
  const auto wl = random_logical(rng, c.m, c.k, c.w_enc, c.p);
  const auto xl = random_logical(rng, c.n, c.k, c.x_enc, c.q);
  const ApmmResult r = apmm(make_operand(wl, c.w_enc, c.p),
                            make_operand(xl, c.x_enc, c.q), dev());
  EXPECT_EQ(r.y, naive_gemm(wl, xl));
}

INSTANTIATE_TEST_SUITE_P(
    Cases, MicrokernelOddShapes,
    ::testing::Values(
        // Case I (0/1 x 0/1, AND), deliberately off every tile boundary.
        OddCase{Encoding::kUnsigned01, 2, Encoding::kUnsigned01, 3, 13, 17,
                129},
        OddCase{Encoding::kUnsigned01, 1, Encoding::kUnsigned01, 1, 1, 1, 1},
        OddCase{Encoding::kUnsigned01, 3, Encoding::kUnsigned01, 2, 67, 5,
                257},
        // Case II (±1 x ±1, XOR).
        OddCase{Encoding::kSignedPM1, 1, Encoding::kSignedPM1, 1, 21, 35,
                100},
        OddCase{Encoding::kSignedPM1, 1, Encoding::kSignedPM1, 1, 130, 9,
                2113},
        // Case III (±1 x 0/1, AND on W^).
        OddCase{Encoding::kSignedPM1, 1, Encoding::kUnsigned01, 2, 33, 65,
                127},
        OddCase{Encoding::kSignedPM1, 1, Encoding::kUnsigned01, 4, 7, 129,
                500},
        // Two's-complement extension rides the Case I datapath.
        OddCase{Encoding::kTwosComplement, 4, Encoding::kUnsigned01, 2, 19,
                23, 222}));

TEST(MicrokernelEquivalence, MatchesInt8BaselineGemm) {
  // Cross-check against the independent baselines::gemm_int8 golden model
  // (imma tiles), not just the scalar naive_gemm.
  Rng rng(4242);
  const std::int64_t m = 24, n = 40, k = 160;
  const auto wl = random_logical(rng, m, k, Encoding::kUnsigned01, 2);
  const auto xl = random_logical(rng, n, k, Encoding::kUnsigned01, 2);
  Tensor<std::int8_t> a8({m, k}), b8({n, k});
  for (std::int64_t i = 0; i < wl.numel(); ++i) {
    a8[i] = static_cast<std::int8_t>(wl[i]);
  }
  for (std::int64_t i = 0; i < xl.numel(); ++i) {
    b8[i] = static_cast<std::int8_t>(xl[i]);
  }
  const Tensor<std::int32_t> ref = baselines::gemm_int8(a8, b8);
  const ApmmResult r = apmm(make_operand(wl, Encoding::kUnsigned01, 2),
                            make_operand(xl, Encoding::kUnsigned01, 2), dev());
  EXPECT_EQ(r.y, ref);
}

// --- quantized epilogue + the packed-output word race ---------------------

TEST(PackedOutputRace, NonWordAlignedBlocksMergeExactly) {
  // bm = 64 with p = 3 gives om = 21 output rows per block: packed output
  // words (64 output bits along m) straddle block boundaries, so adjacent
  // blocks read-modify-write the same std::uint64_t. The seed's unsynchronized
  // BitMatrix::set() lost bits here; the merge must be exact on every run.
  const int p = 3, q = 1;
  const std::int64_t m = 210, n = 96, k = 256;  // 10 m-blocks x 2 n-blocks
  Rng rng(777);
  const auto wl = random_logical(rng, m, k, Encoding::kUnsigned01, p);
  const auto xl = random_logical(rng, n, k, Encoding::kUnsigned01, q);
  const ApOperand w = make_operand(wl, Encoding::kUnsigned01, p);
  const ApOperand x = make_operand(xl, Encoding::kUnsigned01, q);

  Epilogue epi;
  epi.has_quant = true;
  epi.quant.bits = 2;
  epi.quant.scale = 64.0;
  epi.quant.zero_point = 0.0;

  ApmmOptions opts;
  opts.autotune = false;
  opts.tile.bm = 64;
  opts.tile.bn = 64;

  const Tensor<std::int32_t> ref = naive_gemm(wl, xl);
  ASSERT_EQ(make_geometry(w, x, opts.tile).om, 21);

  // Repeat: a race would make results flicker run to run.
  for (int rep = 0; rep < 5; ++rep) {
    const ApmmResult r = apmm(w, x, dev(), opts, epi);
    const std::vector<std::int32_t> codes = bitops::recompose(r.packed);
    for (std::int64_t mm = 0; mm < m; ++mm) {
      for (std::int64_t nn = 0; nn < n; ++nn) {
        const std::int32_t expect = quant::quantize_value(
            static_cast<float>(ref(mm, nn)), epi.quant);
        ASSERT_EQ(codes[static_cast<std::size_t>(nn * m + mm)], expect)
            << "rep " << rep << " m=" << mm << " n=" << nn;
      }
    }
  }
}

// --- window-gather staging source (im2col-free conv B panels) -------------

namespace {

layout::ConvGeometry gather_geom() {
  layout::ConvGeometry g;
  g.batch = 2;
  g.in_c = 7;  // deliberately not word-aligned: exercises the shifting copy
  g.in_h = 6;
  g.in_w = 6;
  g.out_c = 4;
  g.kernel = 3;
  g.stride = 1;
  g.pad = 1;
  return g;
}

layout::PackedActivations random_packed(Rng& rng,
                                        const layout::ConvGeometry& g,
                                        int q) {
  Tensor<std::int32_t> codes({g.batch, g.in_h, g.in_w, g.in_c});
  codes.randomize(rng, 0, (1 << q) - 1);
  return layout::pack_activations(codes, layout::DenseLayout::kNHWC, q);
}

}  // namespace

TEST(WindowGather, StagesExactlyTheIm2colPatchRows) {
  const layout::ConvGeometry g = gather_geom();
  Rng rng(555);
  const int q = 2;
  const layout::PackedActivations x = random_packed(rng, g, q);
  const std::int64_t words = bitops::padded_words(g.gemm_k());

  for (const bool pad_one : {false, true}) {
    // Materialized golden: the full patch matrix per plane.
    std::vector<bitops::BitMatrix> patches;
    for (int t = 0; t < q; ++t) {
      patches.push_back(layout::im2col_bits(x.planes[t], g, pad_one));
    }
    for (const int win : {1, 2}) {  // natural and pool-window-major orders
      const std::int64_t nvalid = 16 * q;
      const std::int64_t nrows8 = 16 * q;  // multiple of 8 for q in {1,2}
      for (const std::int64_t col0 : {std::int64_t{0}, std::int64_t{32}}) {
        layout::WindowGatherSource src(x, g, pad_one, win, col0, nrows8,
                                       nvalid);
        std::vector<std::uint64_t> panel(
            static_cast<std::size_t>(nrows8 * words));
        // Stage in two k-strips to exercise the strip clipping.
        const std::int64_t w0s[] = {0, words / 2};
        for (int strip = 0; strip < 2; ++strip) {
          const std::int64_t w0 = w0s[strip];
          const std::int64_t wc = strip == 0 ? words / 2 : words - words / 2;
          std::vector<std::uint64_t> part(
              static_cast<std::size_t>(nrows8 * wc));
          src.stage(w0, wc, part.data());
          for (std::int64_t j = 0; j < nrows8; ++j) {
            for (std::int64_t w = 0; w < wc; ++w) {
              panel[static_cast<std::size_t>(j * words + w0 + w)] =
                  part[static_cast<std::size_t>(j * wc + w)];
            }
          }
        }
        for (std::int64_t j = 0; j < nrows8; ++j) {
          const std::int64_t col = col0 + j / q;
          const layout::OutPos pos = layout::conv_col_position(g, col, win);
          const std::int64_t patch_row =
              (pos.n * g.out_h() + pos.oy) * g.out_w() + pos.ox;
          const std::uint64_t* want =
              patches[static_cast<std::size_t>(j % q)].row(patch_row);
          for (std::int64_t w = 0; w < words; ++w) {
            ASSERT_EQ(panel[static_cast<std::size_t>(j * words + w)],
                      want[w])
                << "pad_one=" << pad_one << " win=" << win << " col0="
                << col0 << " row " << j << " word " << w;
          }
        }
      }
    }
  }
}

TEST(WindowGather, TransposedStagingMatchesRowMajor) {
  const layout::ConvGeometry g = gather_geom();
  Rng rng(556);
  const layout::PackedActivations x = random_packed(rng, g, 1);
  const std::int64_t words = bitops::padded_words(g.gemm_k());
  const std::int64_t nrows8 = 24;
  layout::WindowGatherSource src(x, g, false, 1, 5, nrows8, 19);
  std::vector<std::uint64_t> rowmajor(
      static_cast<std::size_t>(nrows8 * words));
  std::vector<std::uint64_t> interleaved(
      static_cast<std::size_t>(nrows8 * words));
  src.stage(0, words, rowmajor.data());
  src.stage_transposed(0, words, interleaved.data());
  for (std::int64_t j = 0; j < nrows8; ++j) {
    for (std::int64_t w = 0; w < words; ++w) {
      ASSERT_EQ(interleaved[static_cast<std::size_t>(w * nrows8 + j)],
                rowmajor[static_cast<std::size_t>(j * words + w)])
          << j << "," << w;
    }
  }
}

// --- steady-state allocation behavior -------------------------------------

TEST(ScratchSteadyState, BlockBitgemmAllocatesOnlyOnFirstUse) {
  Rng rng(31337);
  BitMatrix a(64, 4096), b(64, 4096);
  a.randomize(rng);
  b.randomize(rng);
  std::vector<const std::uint64_t*> a_rows(64), b_rows(64);
  for (int i = 0; i < 64; ++i) {
    a_rows[static_cast<std::size_t>(i)] = a.row(i);
    b_rows[static_cast<std::size_t>(i)] = b.row(i);
  }
  std::vector<std::int32_t> acc(64 * 64, 0);

  parallel::ScratchArena arena;
  arena.reset();
  microkernel::block_bitgemm(tcsim::BitOp::kXor, a_rows.data(), 64,
                             b_rows.data(), 64, a.row_words(), acc.data(),
                             arena);
  arena.reset();  // coalesces if the first pass spilled
  microkernel::block_bitgemm(tcsim::BitOp::kXor, a_rows.data(), 64,
                             b_rows.data(), 64, a.row_words(), acc.data(),
                             arena);
  const std::int64_t settled = arena.heap_alloc_count();
  for (int rep = 0; rep < 10; ++rep) {
    arena.reset();
    microkernel::block_bitgemm(tcsim::BitOp::kXor, a_rows.data(), 64,
                               b_rows.data(), 64, a.row_words(), acc.data(),
                               arena);
  }
  EXPECT_EQ(arena.heap_alloc_count(), settled)
      << "hot path heap-allocated in steady state";
}

TEST(ScratchSteadyState, WindowGatherConvPathAllocatesOnlyOnFirstUse) {
  // The im2col-free conv staging must keep the zero-steady-state-allocation
  // invariant: repeated block sweeps through a WindowGatherSource neither
  // heap-allocate nor move the arena high-water mark after the first pass.
  layout::ConvGeometry g;
  g.batch = 1;
  g.in_c = 64;
  g.in_h = g.in_w = 8;
  g.out_c = 16;
  g.kernel = 3;
  g.stride = 1;
  g.pad = 1;
  Rng rng(31338);
  Tensor<std::int32_t> codes({g.batch, g.in_h, g.in_w, g.in_c});
  codes.randomize(rng, 0, 3);
  const layout::PackedActivations x =
      layout::pack_activations(codes, layout::DenseLayout::kNHWC, 2);
  const std::int64_t words = bitops::padded_words(g.gemm_k());

  BitMatrix a(16, g.gemm_k());
  a.randomize(rng);
  std::vector<const std::uint64_t*> a_rows(16);
  for (int i = 0; i < 16; ++i) {
    a_rows[static_cast<std::size_t>(i)] = a.row(i);
  }
  const std::int64_t cols8 = 32;  // 16 columns x q=2 planes
  std::vector<std::int32_t> acc(static_cast<std::size_t>(16 * cols8), 0);
  layout::WindowGatherSource src(x, g, false, 1, 0, cols8, cols8);

  parallel::ScratchArena arena;
  arena.reset();
  microkernel::block_bitgemm(tcsim::BitOp::kAnd, a_rows.data(), 16, src,
                             words, acc.data(), arena);
  arena.reset();  // coalesces if the first pass spilled
  microkernel::block_bitgemm(tcsim::BitOp::kAnd, a_rows.data(), 16, src,
                             words, acc.data(), arena);
  const std::int64_t settled = arena.heap_alloc_count();
  const std::size_t high_water = arena.high_water_bytes();
  for (int rep = 0; rep < 10; ++rep) {
    arena.reset();
    microkernel::block_bitgemm(tcsim::BitOp::kAnd, a_rows.data(), 16, src,
                               words, acc.data(), arena);
  }
  EXPECT_EQ(arena.heap_alloc_count(), settled)
      << "window-gather conv path heap-allocated in steady state";
  EXPECT_EQ(arena.high_water_bytes(), high_water)
      << "window-gather arena footprint crept between cycles";

  // The gathered sweep must also be bit-identical to the same sweep over
  // the materialized patch matrix.
  std::vector<std::int32_t> acc_mat(static_cast<std::size_t>(16 * cols8), 0);
  std::vector<bitops::BitMatrix> patches;
  for (int t = 0; t < 2; ++t) {
    patches.push_back(layout::im2col_bits(x.planes[t], g, false));
  }
  std::vector<const std::uint64_t*> b_rows(static_cast<std::size_t>(cols8));
  for (std::int64_t j = 0; j < cols8; ++j) {
    b_rows[static_cast<std::size_t>(j)] =
        patches[static_cast<std::size_t>(j % 2)].row(j / 2);
  }
  arena.reset();
  microkernel::block_bitgemm(tcsim::BitOp::kAnd, a_rows.data(), 16,
                             b_rows.data(), cols8, words, acc_mat.data(),
                             arena);
  std::vector<std::int32_t> acc_once(static_cast<std::size_t>(16 * cols8),
                                     0);
  arena.reset();
  microkernel::block_bitgemm(tcsim::BitOp::kAnd, a_rows.data(), 16, src,
                             words, acc_once.data(), arena);
  EXPECT_EQ(acc_once, acc_mat);
}

}  // namespace
}  // namespace apnn::core
