#include <gtest/gtest.h>

#include "src/common/rng.hpp"
#include "src/layout/bit_transpose.hpp"
#include "src/layout/im2col.hpp"
#include "src/layout/packed_activations.hpp"
#include "src/layout/tensor.hpp"

namespace apnn::layout {
namespace {

// --- Tensor ------------------------------------------------------------------

TEST(Tensor, ShapeAndIndexing) {
  Tensor<std::int32_t> t({2, 3, 4});
  EXPECT_EQ(t.numel(), 24);
  EXPECT_EQ(t.rank(), 3);
  t(1, 2, 3) = 42;
  EXPECT_EQ(t[1 * 12 + 2 * 4 + 3], 42);
}

TEST(Tensor, ReshapePreservesData) {
  Tensor<std::int32_t> t({2, 6});
  for (std::int64_t i = 0; i < 12; ++i) t[i] = static_cast<std::int32_t>(i);
  const auto r = t.reshaped({3, 4});
  EXPECT_EQ(r.dim(0), 3);
  for (std::int64_t i = 0; i < 12; ++i) EXPECT_EQ(r[i], i);
  EXPECT_THROW(t.reshaped({5, 5}), apnn::Error);
}

TEST(Tensor, RandomizeRanges) {
  apnn::Rng rng(3);
  Tensor<std::int32_t> t({100});
  t.randomize(rng, 0, 7);
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    EXPECT_GE(t[i], 0);
    EXPECT_LE(t[i], 7);
  }
  Tensor<float> f({100});
  f.randomize(rng, -1.f, 1.f);
  for (std::int64_t i = 0; i < f.numel(); ++i) {
    EXPECT_GE(f[i], -1.f);
    EXPECT_LT(f[i], 1.f);
  }
}

// --- layout transforms ---------------------------------------------------------

TEST(Layouts, NchwNhwcRoundTrip) {
  apnn::Rng rng(4);
  Tensor<std::int32_t> nchw({2, 3, 4, 5});
  nchw.randomize(rng, 0, 100);
  const auto nhwc = nchw_to_nhwc(nchw);
  EXPECT_EQ(nhwc.shape(), (std::vector<std::int64_t>{2, 4, 5, 3}));
  EXPECT_EQ(nhwc_to_nchw(nhwc), nchw);
  EXPECT_EQ(nhwc(1, 2, 3, 0), nchw(1, 0, 2, 3));
}

// --- packed activations ---------------------------------------------------------

class PackedActTest : public ::testing::TestWithParam<int> {};

TEST_P(PackedActTest, PackUnpackRoundTrip) {
  const int bits = GetParam();
  apnn::Rng rng(bits);
  Tensor<std::int32_t> nhwc({2, 5, 6, 7});
  nhwc.randomize(rng, 0, (1 << bits) - 1);
  const PackedActivations p =
      pack_activations(nhwc, DenseLayout::kNHWC, bits);
  EXPECT_EQ(p.bits, bits);
  EXPECT_EQ(static_cast<int>(p.planes.size()), bits);
  EXPECT_EQ(p.spatial_rows(), 2 * 5 * 6);
  EXPECT_EQ(unpack_activations(p), nhwc);
}

INSTANTIATE_TEST_SUITE_P(Bits, PackedActTest, ::testing::Values(1, 2, 3, 5, 8));

TEST(PackedActivations, NchwInputMatchesNhwc) {
  apnn::Rng rng(9);
  Tensor<std::int32_t> nchw({2, 3, 4, 4});
  nchw.randomize(rng, 0, 3);
  const auto from_nchw = pack_activations(nchw, DenseLayout::kNCHW, 2);
  const auto from_nhwc =
      pack_activations(nchw_to_nhwc(nchw), DenseLayout::kNHWC, 2);
  EXPECT_EQ(unpack_activations(from_nchw), unpack_activations(from_nhwc));
}

TEST(PackedActivations, ChannelMajorRowsAreContiguous) {
  // All channels of one spatial position live in one row — the §4.2a
  // coalescing property.
  Tensor<std::int32_t> nhwc({1, 2, 2, 9});
  for (std::int64_t i = 0; i < nhwc.numel(); ++i) {
    nhwc[i] = static_cast<std::int32_t>(i % 2);
  }
  const auto p = pack_activations(nhwc, DenseLayout::kNHWC, 1);
  EXPECT_EQ(p.planes[0].rows(), 4);  // spatial positions
  EXPECT_EQ(p.planes[0].cols(), 9);  // channels within a row
}

TEST(PackedActivations, PayloadBytesMatchBitWidth) {
  Tensor<std::int32_t> nhwc({1, 4, 4, 16});
  const auto p2 = pack_activations(nhwc, DenseLayout::kNHWC, 2);
  const auto p8 = pack_activations(nhwc, DenseLayout::kNHWC, 8);
  EXPECT_EQ(p2.payload_bytes() * 4, p8.payload_bytes());
  EXPECT_EQ(p2.payload_bytes(), 2 * 16 * (16 / 8));  // 2 planes, 16 rows, 2B
}

// --- conv geometry ---------------------------------------------------------------

TEST(ConvGeometry, OutputDims) {
  ConvGeometry g;
  g.batch = 2;
  g.in_c = 3;
  g.in_h = 16;
  g.in_w = 16;
  g.out_c = 8;
  g.kernel = 3;
  g.stride = 1;
  g.pad = 1;
  EXPECT_EQ(g.out_h(), 16);
  EXPECT_EQ(g.out_w(), 16);
  EXPECT_EQ(g.gemm_m(), 8);
  EXPECT_EQ(g.gemm_n(), 2 * 16 * 16);
  EXPECT_EQ(g.gemm_k(), 27);
  g.stride = 2;
  EXPECT_EQ(g.out_h(), 8);
  g.stride = 1;
  g.pad = 0;
  EXPECT_EQ(g.out_h(), 14);
}

// --- im2col -----------------------------------------------------------------------

ConvGeometry small_geom(int kernel, int stride, int pad) {
  ConvGeometry g;
  g.batch = 2;
  g.in_c = 5;
  g.in_h = 7;
  g.in_w = 6;
  g.out_c = 4;
  g.kernel = kernel;
  g.stride = stride;
  g.pad = pad;
  return g;
}

class Im2colTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(Im2colTest, BitsMatchDense) {
  const auto [kernel, stride, pad] = GetParam();
  const ConvGeometry g = small_geom(kernel, stride, pad);
  if (g.out_h() <= 0 || g.out_w() <= 0) GTEST_SKIP();
  apnn::Rng rng(kernel * 100 + stride * 10 + pad);
  Tensor<std::int32_t> nhwc({g.batch, g.in_h, g.in_w, g.in_c});
  nhwc.randomize(rng, 0, 1);

  const auto packed = pack_activations(nhwc, DenseLayout::kNHWC, 1);
  const bitops::BitMatrix bits = im2col_bits(packed.planes[0], g, false);
  const Tensor<std::int32_t> dense = im2col_dense<std::int32_t>(nhwc, g, 0);

  ASSERT_EQ(bits.rows(), dense.dim(0));
  ASSERT_EQ(bits.cols(), dense.dim(1));
  for (std::int64_t r = 0; r < bits.rows(); ++r) {
    for (std::int64_t c = 0; c < bits.cols(); ++c) {
      ASSERT_EQ(bits.get(r, c) ? 1 : 0, dense(r, c))
          << "r=" << r << " c=" << c;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, Im2colTest,
    ::testing::Values(std::make_tuple(1, 1, 0), std::make_tuple(3, 1, 1),
                      std::make_tuple(3, 2, 1), std::make_tuple(5, 1, 2),
                      std::make_tuple(3, 1, 0), std::make_tuple(5, 2, 2)));

TEST(Im2col, PadOneFillsOutOfFrame) {
  ConvGeometry g = small_geom(3, 1, 1);
  Tensor<std::int32_t> nhwc({g.batch, g.in_h, g.in_w, g.in_c});
  nhwc.fill(0);  // image all zero; only padding can contribute ones
  const auto packed = pack_activations(nhwc, DenseLayout::kNHWC, 1);
  const bitops::BitMatrix bits = im2col_bits(packed.planes[0], g, true);
  // Top-left output position: the (kh=0, *) taps are out of frame.
  std::int64_t ones = 0;
  for (std::int64_t c = 0; c < bits.cols(); ++c) ones += bits.get(0, c);
  // 3 taps of row kh=0 plus tap (1,0) and (2,0): 5 taps * 5 channels.
  EXPECT_EQ(ones, 5 * g.in_c);
}

TEST(Im2col, InteriorIgnoresPadValue) {
  ConvGeometry g = small_geom(3, 1, 1);
  apnn::Rng rng(5);
  Tensor<std::int32_t> nhwc({g.batch, g.in_h, g.in_w, g.in_c});
  nhwc.randomize(rng, 0, 1);
  const auto packed = pack_activations(nhwc, DenseLayout::kNHWC, 1);
  const auto pad0 = im2col_bits(packed.planes[0], g, false);
  const auto pad1 = im2col_bits(packed.planes[0], g, true);
  // An interior output position touches no padding: rows must agree.
  const std::int64_t row = 1 * g.out_w() + 2;  // (oy=1, ox=2) of batch 0
  for (std::int64_t c = 0; c < pad0.cols(); ++c) {
    EXPECT_EQ(pad0.get(row, c), pad1.get(row, c));
  }
}


// --- bit-matrix transpose ----------------------------------------------------

TEST(BitTranspose, PlanesMatchNaiveGetSet) {
  // The word-granular tile kernel against the bit-by-bit loop it replaced,
  // across shapes that hit partial tiles on both axes.
  Rng rng(77);
  for (const auto& [rows, cols] :
       {std::pair<std::int64_t, std::int64_t>{64, 64},
        {1, 1},
        {63, 65},
        {128, 37},
        {200, 130}}) {
    for (const int bits : {1, 2, 3}) {
      Tensor<std::int32_t> vals({rows, cols});
      vals.randomize(rng, 0, (1 << bits) - 1);
      const bitops::BitPlanes src =
          bitops::decompose(vals.data(), rows, cols, bits);
      bitops::BitPlanes fast;
      transpose_planes(src, fast);
      ASSERT_EQ(fast.rows, cols);
      ASSERT_EQ(fast.cols, rows);
      ASSERT_EQ(fast.bits, bits);
      for (int t = 0; t < bits; ++t) {
        const bitops::BitMatrix& s = src.planes[static_cast<std::size_t>(t)];
        const bitops::BitMatrix& d = fast.planes[static_cast<std::size_t>(t)];
        for (std::int64_t r = 0; r < rows; ++r) {
          for (std::int64_t c = 0; c < cols; ++c) {
            ASSERT_EQ(d.get(c, r), s.get(r, c))
                << rows << "x" << cols << " bit " << t << " (" << r << ","
                << c << ")";
          }
        }
        // Padding invariant: every bit past the logical columns stays zero.
        for (std::int64_t r = 0; r < cols; ++r) {
          for (std::int64_t c = rows; c < ((rows + 63) / 64) * 64; ++c) {
            ASSERT_FALSE(d.get(r, c)) << "padding bit set at (" << r << ","
                                      << c << ")";
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace apnn::layout
