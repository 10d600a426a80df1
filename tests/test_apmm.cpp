#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <tuple>
#include <vector>

#include "src/bitops/decompose.hpp"
#include "src/core/apmm.hpp"
#include "src/nn/attention_math.hpp"
#include "src/tcsim/cost_model.hpp"
#include "test_util.hpp"

namespace apnn::core {
namespace {

using apnn::testing::naive_gemm;
using apnn::testing::random_logical;

const tcsim::DeviceSpec& dev() { return tcsim::rtx3090(); }

struct MmCase {
  Encoding w_enc;
  int p;
  Encoding x_enc;
  int q;
  std::int64_t m, n, k;
};

class ApmmCorrectness : public ::testing::TestWithParam<MmCase> {};

TEST_P(ApmmCorrectness, MatchesNaiveGemm) {
  const MmCase c = GetParam();
  Rng rng(static_cast<std::uint64_t>(c.m * 31 + c.n * 7 + c.k + c.p + c.q));
  const auto wl = random_logical(rng, c.m, c.k, c.w_enc, c.p);
  const auto xl = random_logical(rng, c.n, c.k, c.x_enc, c.q);
  const ApOperand w = make_operand(wl, c.w_enc, c.p);
  const ApOperand x = make_operand(xl, c.x_enc, c.q);
  const ApmmResult r = apmm(w, x, dev());
  EXPECT_EQ(r.y, naive_gemm(wl, xl));
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ApmmCorrectness,
    ::testing::Values(
        // w1a2 — the headline configuration (Case III).
        MmCase{Encoding::kSignedPM1, 1, Encoding::kUnsigned01, 2, 64, 128,
               128},
        // Larger-than-tile shapes, ragged in every dimension.
        MmCase{Encoding::kSignedPM1, 1, Encoding::kUnsigned01, 2, 130, 70,
               300},
        MmCase{Encoding::kSignedPM1, 1, Encoding::kUnsigned01, 3, 65, 129,
               257},
        MmCase{Encoding::kSignedPM1, 1, Encoding::kUnsigned01, 8, 40, 40,
               512},
        // Case I multi-bit weights.
        MmCase{Encoding::kUnsigned01, 2, Encoding::kUnsigned01, 2, 96, 96,
               256},
        MmCase{Encoding::kUnsigned01, 3, Encoding::kUnsigned01, 5, 33, 47,
               129},
        MmCase{Encoding::kUnsigned01, 5, Encoding::kUnsigned01, 1, 64, 64,
               128},
        MmCase{Encoding::kUnsigned01, 6, Encoding::kUnsigned01, 2, 24, 100,
               140},
        MmCase{Encoding::kUnsigned01, 4, Encoding::kUnsigned01, 4, 64, 64,
               1024},
        // Case II (BNN).
        MmCase{Encoding::kSignedPM1, 1, Encoding::kSignedPM1, 1, 100, 90,
               333},
        // Two's complement extension.
        MmCase{Encoding::kTwosComplement, 4, Encoding::kUnsigned01, 4, 50,
               60, 200},
        // Tiny shapes (single tile, single output).
        MmCase{Encoding::kSignedPM1, 1, Encoding::kUnsigned01, 2, 1, 1, 1},
        MmCase{Encoding::kUnsigned01, 2, Encoding::kUnsigned01, 2, 3, 2, 5}));

TEST(Apmm, MatchesReferenceImplementation) {
  Rng rng(77);
  const auto wl = random_logical(rng, 45, 200, Encoding::kSignedPM1, 1);
  const auto xl = random_logical(rng, 61, 200, Encoding::kUnsigned01, 3);
  const ApOperand w = make_operand(wl, Encoding::kSignedPM1, 1);
  const ApOperand x = make_operand(xl, Encoding::kUnsigned01, 3);
  EXPECT_EQ(apmm(w, x, dev()).y, ap_gemm_reference(w, x));
}

// --- option toggles preserve results, change traffic ---------------------------

struct Operands {
  Tensor<std::int32_t> wl, xl;
  ApOperand w, x;
};

Operands sample_operands(std::uint64_t seed, std::int64_t m = 64,
                         std::int64_t n = 256, std::int64_t k = 256,
                         int p = 1, int q = 2) {
  Rng rng(seed);
  Operands o;
  const Encoding we = p == 1 ? Encoding::kSignedPM1 : Encoding::kUnsigned01;
  o.wl = random_logical(rng, m, k, we, p);
  o.xl = random_logical(rng, n, k, Encoding::kUnsigned01, q);
  o.w = make_operand(o.wl, we, p);
  o.x = make_operand(o.xl, Encoding::kUnsigned01, q);
  return o;
}

TEST(ApmmOptions, NoBatchingSameResultMoreLaunches) {
  const Operands o = sample_operands(1, 48, 96, 256, 2, 2);
  ApmmOptions batched, naive;
  naive.batch_planes = false;
  const ApmmResult rb = apmm(o.w, o.x, dev(), batched);
  const ApmmResult rn = apmm(o.w, o.x, dev(), naive);
  EXPECT_EQ(rb.y, rn.y);
  EXPECT_EQ(rb.profile.kernels.size(), 1u);
  EXPECT_EQ(rn.profile.kernels.size(), 5u);  // p*q BMMAs + combine
  EXPECT_GT(rn.profile.total_counters().total_global_bytes(),
            rb.profile.total_counters().total_global_bytes());
}

TEST(ApmmOptions, NoDoubleCachingSameResultMoreGlobalTraffic) {
  const Operands o = sample_operands(2);
  ApmmOptions cached, uncached;
  uncached.double_caching = false;
  const ApmmResult rc = apmm(o.w, o.x, dev(), cached);
  const ApmmResult ru = apmm(o.w, o.x, dev(), uncached);
  EXPECT_EQ(rc.y, ru.y);
  EXPECT_GT(ru.profile.total_counters().global_load_bytes,
            rc.profile.total_counters().global_load_bytes);
}

TEST(ApmmOptions, NoFragmentCachingSameResultMoreSharedTraffic) {
  const Operands o = sample_operands(3);
  ApmmOptions frag, nofrag;
  nofrag.fragment_caching = false;
  const ApmmResult rf = apmm(o.w, o.x, dev(), frag);
  const ApmmResult rn = apmm(o.w, o.x, dev(), nofrag);
  EXPECT_EQ(rf.y, rn.y);
  EXPECT_GT(rn.profile.total_counters().total_shared_bytes(),
            rf.profile.total_counters().total_shared_bytes());
}

TEST(ApmmOptions, NonSemanticAwareSpillsPartialsToGlobal) {
  const Operands o = sample_operands(4);
  ApmmOptions sem, nonsem;
  nonsem.semantic_aware = false;
  const ApmmResult rs = apmm(o.w, o.x, dev(), sem);
  const ApmmResult rn = apmm(o.w, o.x, dev(), nonsem);
  EXPECT_EQ(rs.y, rn.y);
  EXPECT_EQ(rn.profile.kernels.size(), 2u);  // main + combine
  EXPECT_GT(rn.profile.total_counters().global_store_bytes,
            rs.profile.total_counters().global_store_bytes);
}

TEST(ApmmOptions, ProfileOnlyMatchesFullCounters) {
  const Operands o = sample_operands(5, 70, 140, 384, 2, 3);
  ApmmOptions full, prof;
  prof.mode = ExecMode::kProfileOnly;
  for (bool sem : {true, false}) {
    full.semantic_aware = sem;
    prof.semantic_aware = sem;
    const ApmmResult rf = apmm(o.w, o.x, dev(), full);
    const ApmmResult rp = apmm(o.w, o.x, dev(), prof);
    EXPECT_EQ(rp.y.numel(), 0);
    ASSERT_EQ(rf.profile.kernels.size(), rp.profile.kernels.size());
    const auto cf = rf.profile.total_counters();
    const auto cp = rp.profile.total_counters();
    EXPECT_EQ(cf.total_global_bytes(), cp.total_global_bytes());
    EXPECT_EQ(cf.total_shared_bytes(), cp.total_shared_bytes());
    EXPECT_EQ(cf.bmma_b1, cp.bmma_b1);
    EXPECT_EQ(cf.total_alu_ops(), cp.total_alu_ops());
  }
}

TEST(ApmmOptions, FixedTileOverridesAutotune) {
  const Operands o = sample_operands(6);
  ApmmOptions opts;
  opts.autotune = false;
  opts.tile.bm = 32;
  opts.tile.bn = 32;
  const ApmmResult r = apmm(o.w, o.x, dev(), opts);
  EXPECT_EQ(r.tile.bm, 32);
  EXPECT_EQ(r.tile.bn, 32);
  EXPECT_EQ(r.y, naive_gemm(o.wl, o.xl));
}

TEST(Apmm, BmmaCountMatchesEmulationCost) {
  // p*q planes: the bmma issue count must scale with p*q (the paper's
  // "w2a8 needs 16 1-bit matrices" arithmetic, §6.2).
  const Operands o12 = sample_operands(7, 64, 64, 512, 1, 2);
  const Operands o28 = sample_operands(8, 64, 64, 512, 2, 8);
  ApmmOptions opts;
  opts.autotune = false;  // same tile so the grids are comparable
  opts.tile.bm = 32;
  opts.tile.bn = 32;
  const auto c12 = apmm(o12.w, o12.x, dev(), opts).profile.total_counters();
  const auto c28 = apmm(o28.w, o28.x, dev(), opts).profile.total_counters();
  EXPECT_NEAR(static_cast<double>(c28.bmma_b1) / c12.bmma_b1, 8.0, 0.2);
}

// --- fused epilogue -------------------------------------------------------------

TEST(ApmmEpilogue, ReluClampsNegative) {
  const Operands o = sample_operands(9, 32, 32, 128, 1, 2);
  Epilogue epi;
  epi.has_relu = true;
  const ApmmResult r = apmm(o.w, o.x, dev(), {}, epi);
  const Tensor<std::int32_t> ref = naive_gemm(o.wl, o.xl);
  for (std::int64_t i = 0; i < ref.numel(); ++i) {
    EXPECT_EQ(r.y[i], std::max(ref[i], 0));
  }
}

TEST(ApmmEpilogue, BatchNormAppliesPerChannel) {
  const Operands o = sample_operands(10, 16, 24, 128, 1, 2);
  Epilogue epi;
  epi.has_bn = true;
  epi.bn.scale.assign(16, 2.0f);
  epi.bn.bias.assign(16, 10.0f);
  epi.bn.scale[3] = -1.0f;
  const ApmmResult r = apmm(o.w, o.x, dev(), {}, epi);
  const Tensor<std::int32_t> ref = naive_gemm(o.wl, o.xl);
  for (std::int64_t m = 0; m < 16; ++m) {
    for (std::int64_t n = 0; n < 24; ++n) {
      const float scale = m == 3 ? -1.f : 2.f;
      EXPECT_EQ(r.y(m, n),
                static_cast<std::int32_t>(ref(m, n) * scale + 10.f));
    }
  }
}

TEST(ApmmEpilogue, QuantizedOutputPacksTransposed) {
  const Operands o = sample_operands(11, 20, 30, 256, 1, 2);
  Epilogue epi;
  epi.has_relu = true;
  epi.has_quant = true;
  epi.quant.bits = 2;
  epi.quant.scale = 16.0;
  epi.quant.zero_point = 0.0;
  const ApmmResult r = apmm(o.w, o.x, dev(), {}, epi);
  EXPECT_EQ(r.y.numel(), 0);
  EXPECT_EQ(r.packed.rows, 30);  // N x M, ready for the next layer
  EXPECT_EQ(r.packed.cols, 20);
  EXPECT_EQ(r.packed.bits, 2);
  const Tensor<std::int32_t> ref = naive_gemm(o.wl, o.xl);
  const std::vector<std::int32_t> codes = bitops::recompose(r.packed);
  for (std::int64_t m = 0; m < 20; ++m) {
    for (std::int64_t n = 0; n < 30; ++n) {
      const std::int32_t expect = quant::quantize_value(
          static_cast<float>(std::max(ref(m, n), 0)), epi.quant);
      EXPECT_EQ(codes[static_cast<std::size_t>(n * 20 + m)], expect)
          << m << "," << n;
    }
  }
}

TEST(ApmmEpilogue, PackedOutputSmallerThanInt32Store) {
  const Operands o = sample_operands(12, 64, 256, 256, 1, 2);
  Epilogue quant_epi;
  quant_epi.has_quant = true;
  quant_epi.quant.bits = 2;
  quant_epi.quant.scale = 64;
  const auto c32 = apmm(o.w, o.x, dev(), {}).profile.total_counters();
  const auto cq =
      apmm(o.w, o.x, dev(), {}, quant_epi).profile.total_counters();
  // Minimal-traffic dataflow: 2-bit stores are 16x smaller than 32-bit.
  EXPECT_LT(cq.global_store_bytes, c32.global_store_bytes / 8);
}

// Differential sweep of the block epilogue: every emulation case and plane
// count through every epilogue kind, on fixed tiles whose blocks share
// 64-bit output words, against naive_gemm followed by Epilogue::apply.
// Quantized outputs are compared after bitops::recompose.

struct SweepEncoding {
  Encoding w_enc;
  int p;
  Encoding x_enc;
  int q;
};

std::vector<SweepEncoding> sweep_encodings() {
  std::vector<SweepEncoding> out;
  out.push_back({Encoding::kSignedPM1, 1, Encoding::kSignedPM1, 1});  // II
  for (int q = 1; q <= 4; ++q) {
    out.push_back({Encoding::kSignedPM1, 1, Encoding::kUnsigned01, q});  // III
  }
  for (int p = 1; p <= 4; ++p) {
    for (int q = 1; q <= 4; ++q) {
      out.push_back({Encoding::kUnsigned01, p, Encoding::kUnsigned01, q});
      out.push_back({Encoding::kTwosComplement, p, Encoding::kUnsigned01, q});
    }
  }
  return out;
}

/// Clears bit-plane `plane` of every value (two's complement reinterprets
/// the remaining `bits`-bit pattern), so the decomposed plane is all zero.
void clear_plane(Tensor<std::int32_t>& t, Encoding enc, int bits,
                 int plane) {
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    std::int32_t u = (t[i] & ((1 << bits) - 1)) & ~(1 << plane);
    if (enc == Encoding::kTwosComplement && ((u >> (bits - 1)) & 1)) {
      u -= 1 << bits;
    }
    t[i] = u;
  }
}

std::vector<Epilogue> sweep_epilogues(std::int64_t m, std::int32_t hi,
                                      Rng& rng) {
  Epilogue bn;
  bn.has_bn = true;
  for (std::int64_t i = 0; i < m; ++i) {
    bn.bn.scale.push_back(static_cast<float>(rng.uniform(-2.0, 2.0)));
    bn.bn.bias.push_back(static_cast<float>(rng.uniform(-20.0, 20.0)));
  }
  Epilogue bn_relu = bn;
  bn_relu.has_relu = true;
  std::vector<Epilogue> out = {Epilogue{}, bn, bn_relu};
  for (int bits = 1; bits <= 3; ++bits) {
    Epilogue q;
    q.has_relu = true;
    q.has_quant = true;
    q.quant.bits = bits;
    q.quant.scale = std::max(1.0, static_cast<double>(hi) / (1 << bits));
    q.quant.zero_point = -0.5;
    out.push_back(q);
  }
  Epilogue bn_relu_q = bn_relu;
  bn_relu_q.has_quant = true;
  bn_relu_q.quant.bits = 2;
  bn_relu_q.quant.scale = std::max(1.0, static_cast<double>(hi) / 4);
  out.push_back(bn_relu_q);
  return out;
}

TEST(ApmmEpilogue, DifferentialSweepMatchesNaiveGemmThenApply) {
  const std::int64_t ms[] = {1, 63, 65, 130};
  const std::int64_t ns[] = {97, 70, 37, 129};
  const int tiles[] = {16, 32, 64, 128};
  std::uint64_t seed = 0;
  for (const SweepEncoding& e : sweep_encodings()) {
    for (int mi = 0; mi < 4; ++mi) {
      Rng rng(++seed);
      const std::int64_t m = ms[mi], n = ns[mi], k = mi % 2 ? 75 : 200;
      auto wl = random_logical(rng, m, k, e.w_enc, e.p);
      auto xl = random_logical(rng, n, k, e.x_enc, e.q);
      // One all-zero plane so plane elision runs: an activation plane on
      // the third shape, a Case-I weight plane on the fourth.
      if (mi == 2 && e.x_enc == Encoding::kUnsigned01) {
        clear_plane(xl, e.x_enc, e.q, static_cast<int>(seed % e.q));
      }
      if (mi == 3 && e.w_enc != Encoding::kSignedPM1) {
        clear_plane(wl, e.w_enc, e.p, static_cast<int>(seed % e.p));
      }
      const ApOperand w = make_operand(wl, e.w_enc, e.p);
      const ApOperand x = make_operand(xl, e.x_enc, e.q);
      const Tensor<std::int32_t> ref = naive_gemm(wl, xl);
      std::int32_t hi = 1;
      for (std::int64_t i = 0; i < ref.numel(); ++i) hi = std::max(hi, ref[i]);

      for (const Epilogue& epi : sweep_epilogues(m, hi, rng)) {
        for (int ti = 0; ti < 4; ++ti) {
          ApmmOptions opts;
          opts.autotune = false;
          opts.tile.bm = tiles[ti];
          opts.tile.bn = tiles[(ti + mi + 1) % 4];
          opts.collect_profile = false;
          const ApmmResult r = apmm(w, x, dev(), opts, epi);
          SCOPED_TRACE(::testing::Message()
                       << "w enc " << static_cast<int>(e.w_enc) << " p="
                       << e.p << ", x enc " << static_cast<int>(e.x_enc)
                       << " q=" << e.q << ", " << m << "x" << n << "x" << k
                       << ", tile " << opts.tile.bm << "x" << opts.tile.bn
                       << ", bn=" << epi.has_bn << " relu=" << epi.has_relu
                       << " quant=" << epi.output_bits());
          const std::vector<std::int32_t> codes =
              epi.has_quant ? bitops::recompose(r.packed)
                            : std::vector<std::int32_t>{};
          std::int64_t bad = 0;
          for (std::int64_t i = 0; i < m; ++i) {
            for (std::int64_t j = 0; j < n; ++j) {
              const std::int32_t got =
                  epi.has_quant ? codes[static_cast<std::size_t>(j * m + i)]
                                : r.y(i, j);
              const std::int32_t want = epi.apply(ref(i, j), i);
              if (got != want && bad++ == 0) {
                ADD_FAILURE() << "first mismatch at (" << i << "," << j
                              << "): " << got << " vs " << want;
              }
            }
          }
          EXPECT_EQ(bad, 0);
        }
      }
    }
  }
}

// --- row-softmax requantize ------------------------------------------------------
//
// The score epilogue builds codes from compare masks against per-row
// thresholds; nn::attn_softmax_row divides per element. Nothing shares code
// between the two, so these tests pin them equal.

/// Runs row_softmax_pack on `row` (n live values) and checks every plane
/// word against the codes attn_softmax_row assigns. The padding past n is
/// poisoned with INT32_MAX and the destination words with all-ones, so a
/// mask that read the padding or a word left unwritten shows up.
::testing::AssertionResult pack_matches_reference(std::vector<std::int32_t> row,
                                                  std::int64_t n,
                                                  const RowSoftmax& sm) {
  const std::int64_t row_words = bitops::padded_words(n);
  row.resize(static_cast<std::size_t>(row_words * 64),
             std::numeric_limits<std::int32_t>::max());
  std::vector<std::int32_t> codes(static_cast<std::size_t>(n));
  nn::attn_softmax_row(row.data(), n, sm.shift, sm.bits, codes.data());

  std::vector<std::uint64_t> words(
      static_cast<std::size_t>(sm.bits * row_words), ~std::uint64_t{0});
  std::uint64_t* planes[16];
  for (int u = 0; u < sm.bits; ++u) planes[u] = words.data() + u * row_words;
  std::vector<std::int32_t> thr(
      static_cast<std::size_t>((1 << sm.bits) - 1));
  row_softmax_pack(row.data(), n, sm, thr.data(), planes, row_words);

  for (std::int64_t w = 0; w < row_words; ++w) {
    for (int u = 0; u < sm.bits; ++u) {
      std::uint64_t expect = 0;
      for (std::int64_t j = w * 64; j < std::min(n, w * 64 + 64); ++j) {
        expect |= std::uint64_t{(codes[static_cast<std::size_t>(j)] >> u) &
                                1u}
                  << (j - w * 64);
      }
      if (planes[u][w] != expect) {
        return ::testing::AssertionFailure()
               << "n " << n << " bits " << sm.bits << " shift " << sm.shift
               << ": plane " << u << " word " << w << " is " << std::hex
               << planes[u][w] << ", expected " << expect;
      }
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(RowSoftmax, ThresholdCodesMatchDivisionOnTheWholeSmallDomain) {
  // Every code width 1..8, shift 0..3 and row maximum R in [0, 4096], over
  // a row holding every score in [-4, R] once: n = R + 5 columns, so the
  // widths also sweep every remainder mod 64.
  for (int bits = 1; bits <= 8; ++bits) {
    for (int shift = 0; shift <= 3; ++shift) {
      const RowSoftmax sm{shift, bits};
      for (std::int32_t r = 0; r <= 4096; ++r) {
        std::vector<std::int32_t> row;
        for (std::int32_t v = -4; v <= r; ++v) row.push_back(v);
        const auto n = static_cast<std::int64_t>(row.size());
        ASSERT_TRUE(pack_matches_reference(std::move(row), n, sm))
            << "row max " << r;
      }
    }
  }
}

TEST(RowSoftmax, ExtremeRowsAndThresholdsPastInt32) {
  constexpr std::int32_t kMax = std::numeric_limits<std::int32_t>::max();
  constexpr std::int32_t kMin = std::numeric_limits<std::int32_t>::min();
  const std::vector<std::vector<std::int32_t>> rows = {
      {kMax, kMax - 1, kMax / 2, kMax / 3, 1, 0, -1, kMin},
      {kMax - 7, kMax - 8, kMax / 255, 1 << 20, 0},
      {kMin, -1, kMin + 1},  // no positive score: every code is 0
      {0, 0, 0},
  };
  bool saw_short = false;
  for (int bits = 1; bits <= 8; ++bits) {
    for (int shift = 0; shift <= 31; ++shift) {
      const RowSoftmax sm{shift, bits};
      for (const auto& row : rows) {
        EXPECT_TRUE(pack_matches_reference(
            row, static_cast<std::int64_t>(row.size()), sm));
        std::vector<std::int32_t> thr(
            static_cast<std::size_t>((1 << bits) - 1));
        std::int32_t row_max = kMin;
        for (const std::int32_t v : row) row_max = std::max(row_max, v);
        const int nthr = row_softmax_thresholds(row_max, sm, thr.data());
        saw_short = saw_short || nthr < (1 << bits) - 1;
        for (int t = 1; t < nthr; ++t) EXPECT_LE(thr[t - 1], thr[t]);
      }
    }
  }
  // Large shifts push thresholds past INT32_MAX; those levels are
  // unreachable and their masks empty.
  EXPECT_TRUE(saw_short);
}

TEST(RowSoftmax, ApmmEpilogueWritesWholeRowsAtAnOffset) {
  // The fused score epilogue against the dense GEMM followed by
  // attn_softmax_row, on row-complete tiles: widths that are not multiples
  // of 64 (their padding bits and words must come out zero), several row
  // blocks, and an output row offset inside a larger plane set whose other
  // rows must stay untouched.
  struct Case {
    std::int64_t m, n, k;
    int p, q, shift;
  };
  for (const Case c : {Case{32, 32, 16, 2, 2, 2}, Case{50, 50, 16, 2, 2, 2},
                       Case{17, 130, 100, 3, 3, 1}, Case{9, 64, 16, 1, 2, 0},
                       Case{40, 200, 48, 2, 2, 3}}) {
    Rng rng(static_cast<std::uint64_t>(c.m * 131 + c.n));
    const auto wl = random_logical(rng, c.m, c.k, Encoding::kUnsigned01, c.p);
    const auto xl = random_logical(rng, c.n, c.k, Encoding::kUnsigned01, c.q);
    const ApOperand w = make_operand(wl, Encoding::kUnsigned01, c.p);
    const ApOperand x = make_operand(xl, Encoding::kUnsigned01, c.q);
    const Tensor<std::int32_t> scores = naive_gemm(wl, xl);

    Epilogue epi;
    epi.has_softmax = true;
    epi.softmax = {c.shift, c.q};
    constexpr std::int64_t kRow0 = 3;
    bitops::BitPlanes dst;
    dst.reset_shape(c.m + 2 * kRow0, c.n, c.q);
    for (auto& pm : dst.planes) {
      for (std::int64_t r = 0; r < pm.rows(); ++r) {
        std::fill_n(pm.row(r), pm.row_words(), ~std::uint64_t{0});
      }
    }
    ApmmOptions o;
    o.autotune = false;
    o.tile = row_complete_tile(c.n, c.q);
    o.packed_out = &dst;
    o.packed_row0 = kRow0;
    apmm(w, x, dev(), o, epi);
    const ApmmResult own = apmm(w, x, dev(), {}, epi);  // autotuned tile
    EXPECT_EQ(own.tile.bn, o.tile.bn);
    ASSERT_EQ(own.packed.rows, c.m);

    std::vector<std::int32_t> codes(static_cast<std::size_t>(c.n));
    for (std::int64_t i = 0; i < c.m; ++i) {
      nn::attn_softmax_row(&scores(i, 0), c.n, c.shift, c.q, codes.data());
      for (int u = 0; u < c.q; ++u) {
        const bitops::BitMatrix& pm = dst.plane(u);
        for (std::int64_t wd = 0; wd < pm.row_words(); ++wd) {
          std::uint64_t expect = 0;
          for (std::int64_t j = wd * 64; j < std::min(c.n, wd * 64 + 64);
               ++j) {
            expect |= std::uint64_t{
                          (codes[static_cast<std::size_t>(j)] >> u) & 1u}
                      << (j - wd * 64);
          }
          EXPECT_EQ(pm.row(kRow0 + i)[wd], expect)
              << c.m << "x" << c.n << " row " << i << " plane " << u;
          EXPECT_EQ(own.packed.plane(u).row(i)[wd], expect);
        }
      }
    }
    for (int u = 0; u < c.q; ++u) {  // rows outside the call's range
      const bitops::BitMatrix& pm = dst.plane(u);
      for (const std::int64_t r : {std::int64_t{0}, kRow0 - 1, kRow0 + c.m,
                                   pm.rows() - 1}) {
        EXPECT_EQ(pm.row(r)[0], ~std::uint64_t{0}) << "row " << r;
      }
    }
  }
}

TEST(RowSoftmax, RejectsTilesThatSplitARow) {
  const Operands o = sample_operands(15, 16, 128, 16, 2, 2);
  Epilogue epi;
  epi.has_softmax = true;
  epi.softmax = {0, 2};
  ApmmOptions split;
  split.autotune = false;
  split.tile.bm = 16;
  split.tile.bn = 64;  // 32 of the 128 columns per block
  EXPECT_THROW(apmm(o.w, o.x, dev(), split, epi), Error);
}

TEST(RowSoftmax, ProfileCountsPackedStoresNotInt32Scores) {
  // The launch record of the fused score step stores seq*seq*bits/8 bytes
  // of codes and prices the threshold compares, where the dense-output GEMM
  // stored seq*seq 4-byte scores.
  constexpr std::int64_t kSeq = 512;
  ApmmOptions o;
  o.autotune = false;
  o.tile = row_complete_tile(kSeq, 2);
  const EncodingConfig enc{Encoding::kUnsigned01, Encoding::kUnsigned01};
  Epilogue epi;
  epi.has_softmax = true;
  epi.softmax = {1, 2};
  const auto fused =
      apmm_profile(kSeq, kSeq, 16, 2, 2, enc, dev(), o, epi).total_counters();
  const auto dense =
      apmm_profile(kSeq, kSeq, 16, 2, 2, enc, dev(), o, {}).total_counters();
  EXPECT_EQ(fused.global_store_bytes, kSeq * kSeq * 2 / 8);
  EXPECT_EQ(dense.global_store_bytes, kSeq * kSeq * 4);
  EXPECT_EQ(fused.alu_epilogue_ops, kSeq * kSeq * (1 + 3));
  EXPECT_GT(fused.alu_decompose_ops, 0);
}

// --- cost-model integration -----------------------------------------------------

TEST(ApmmCost, BatchingImprovesModeledLatencyOnSmallGemm) {
  // The §4.1a claim: batching many small BMMAs into one launch beats
  // independent launches (launch overhead + utilization).
  const Operands o = sample_operands(13, 64, 256, 256, 2, 2);
  ApmmOptions batched, naive;
  naive.batch_planes = false;
  const tcsim::CostModel cm(dev());
  const double tb = cm.estimate(apmm(o.w, o.x, dev(), batched).profile).total_us;
  const double tn = cm.estimate(apmm(o.w, o.x, dev(), naive).profile).total_us;
  EXPECT_LT(tb, tn);
}

TEST(ApmmCost, SemanticAwareCombinationFasterThanSeparateKernel) {
  const Operands o = sample_operands(14, 64, 512, 512, 1, 2);
  ApmmOptions sem, nonsem;
  nonsem.semantic_aware = false;
  const tcsim::CostModel cm(dev());
  const double ts = cm.estimate(apmm(o.w, o.x, dev(), sem).profile).total_us;
  const double tn =
      cm.estimate(apmm(o.w, o.x, dev(), nonsem).profile).total_us;
  EXPECT_LT(ts, tn);
}

TEST(DecomposeProfile, ScalesWithBits) {
  const auto p2 = decompose_profile(1024, 256, 2, 1.0);
  const auto p8 = decompose_profile(1024, 256, 8, 1.0);
  EXPECT_EQ(p8.counters.global_store_bytes, 4 * p2.counters.global_store_bytes);
  EXPECT_EQ(p8.counters.alu_decompose_ops, 4 * p2.counters.alu_decompose_ops);
  EXPECT_EQ(p2.counters.global_load_bytes, 1024 * 256);
}

}  // namespace
}  // namespace apnn::core
