// Hot-path micro-benchmark: seed bit-GEMM block loop vs the staged,
// cache-blocked, allocation-free microkernel pipeline.
//
// The seed executed every block by (a) heap-allocating row-pointer tables
// and a raw accumulator per block, (b) dispatching each 128-bit k-slab
// through bmma_8x8x128_rows' double-indirect row pointers, reloading every
// B word 8x per 8x8 tile. This harness re-implements that loop verbatim
// (including a local copy of the seed's bmma popcount kernel, so later
// changes to the library entry points cannot silently move the baseline)
// and times it against internal::run_batched_compute, which now runs on
// src/core/microkernel.hpp. Results are written as JSON so CI can track the
// speedup from PR 1 onward.
//
// Two attention-step shapes of tiny_transformer at seq 512 time the block
// epilogue (the §4.1b plane combine plus the fused epilogue) on one thread,
// each checked against ap_gemm_reference followed by Epilogue::apply:
//   * scores_w2a2: QK^T, w2a2 (p = q = 2) 512x512x16, identity epilogue;
//   * proj_w1a2_quant: a Q/K/V projection, w1a2 (Case III) 32x512x32,
//     ReLU + 2-bit quantize into packed planes.
//
// Usage: apmm_hotpath [out.json] [size] [reps]
#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "src/bitops/decompose.hpp"
#include "src/common/rng.hpp"
#include "src/common/timer.hpp"
#include "src/core/apmm.hpp"
#include "src/core/apmm_internal.hpp"
#include "src/parallel/thread_pool.hpp"
#include "test_helpers_for_bench.hpp"

namespace apnn {
namespace {

using core::ApOperand;
using core::Epilogue;
using core::OpSelection;
using core::internal::BatchedGeometry;

/// Verbatim copy of the seed's bmma_8x8x128_rows (row-pointer dispatch, B
/// words reloaded per A row) — the baseline kernel being measured against.
void seed_bmma_8x8x128_rows(tcsim::BitOp op, const std::uint64_t* const* a_rows,
                            const std::uint64_t* const* b_rows,
                            std::int64_t word_offset, std::int32_t* acc) {
  for (int i = 0; i < 8; ++i) {
    const std::uint64_t a0 = a_rows[i][word_offset];
    const std::uint64_t a1 = a_rows[i][word_offset + 1];
    std::int32_t* arow = acc + i * 8;
    if (op == tcsim::BitOp::kXor) {
      for (int j = 0; j < 8; ++j) {
        const std::uint64_t b0 = b_rows[j][word_offset];
        const std::uint64_t b1 = b_rows[j][word_offset + 1];
        arow[j] +=
            __builtin_popcountll(a0 ^ b0) + __builtin_popcountll(a1 ^ b1);
      }
    } else {
      for (int j = 0; j < 8; ++j) {
        const std::uint64_t b0 = b_rows[j][word_offset];
        const std::uint64_t b1 = b_rows[j][word_offset + 1];
        arow[j] +=
            __builtin_popcountll(a0 & b0) + __builtin_popcountll(a1 & b1);
      }
    }
  }
}

/// Verbatim re-implementation of the seed run_batched_compute block loop
/// (non-quantized path): three heap allocations per block, per-k-tile
/// row-pointer dispatch, copy-out of each 8x8 accumulator.
void seed_run_batched_compute(const ApOperand& w, const ApOperand& x,
                              const OpSelection& sel,
                              const BatchedGeometry& g,
                              Tensor<std::int32_t>* y) {
  std::vector<std::int64_t> wmult(static_cast<std::size_t>(g.p));
  std::vector<std::int64_t> xmult(static_cast<std::size_t>(g.q));
  for (int s = 0; s < g.p; ++s) {
    wmult[static_cast<std::size_t>(s)] =
        core::plane_multiplier(w.encoding, s, g.p);
  }
  for (int t = 0; t < g.q; ++t) {
    xmult[static_cast<std::size_t>(t)] =
        core::plane_multiplier(x.encoding, t, g.q);
  }
  const std::vector<std::uint64_t> zero_row(
      static_cast<std::size_t>(g.row_words), 0);

  parallel_for(0, g.blocks, [&](std::int64_t b) {
    const std::int64_t bm_idx = b / g.grid_n;
    const std::int64_t bn_idx = b % g.grid_n;
    const std::int64_t m0 = bm_idx * g.om;
    const std::int64_t n0 = bn_idx * g.on;

    std::vector<const std::uint64_t*> wrows(static_cast<std::size_t>(g.vtm8),
                                            zero_row.data());
    std::vector<const std::uint64_t*> xrows(static_cast<std::size_t>(g.vtn8),
                                            zero_row.data());
    for (std::int64_t i = 0; i < g.vtm; ++i) {
      const std::int64_t m = m0 + i / g.p;
      const int s = static_cast<int>(i % g.p);
      if (m < g.m) {
        wrows[static_cast<std::size_t>(i)] = w.planes.plane(s).row(m);
      }
    }
    for (std::int64_t j = 0; j < g.vtn; ++j) {
      const std::int64_t n = n0 + j / g.q;
      const int t = static_cast<int>(j % g.q);
      if (n < g.n) {
        xrows[static_cast<std::size_t>(j)] = x.planes.plane(t).row(n);
      }
    }

    std::vector<std::int32_t> raw(static_cast<std::size_t>(g.vtm8 * g.vtn8),
                                  0);
    for (std::int64_t ii = 0; ii < g.vtm8; ii += 8) {
      for (std::int64_t jj = 0; jj < g.vtn8; jj += 8) {
        std::int32_t acc[64] = {0};
        for (std::int64_t kt = 0; kt < g.ktiles; ++kt) {
          seed_bmma_8x8x128_rows(sel.bit_op,
                                 &wrows[static_cast<std::size_t>(ii)],
                                 &xrows[static_cast<std::size_t>(jj)],
                                 kt * bitops::kWordsPerTile, acc);
        }
        for (int di = 0; di < 8; ++di) {
          std::int32_t* dst = raw.data() + (ii + di) * g.vtn8 + jj;
          const std::int32_t* src = acc + di * 8;
          for (int dj = 0; dj < 8; ++dj) dst[dj] = src[dj];
        }
      }
    }

    for (std::int64_t mo = 0; mo < g.om; ++mo) {
      const std::int64_t m = m0 + mo;
      if (m >= g.m) break;
      for (std::int64_t no = 0; no < g.on; ++no) {
        const std::int64_t n = n0 + no;
        if (n >= g.n) break;
        std::int64_t acc = 0;
        for (int s = 0; s < g.p; ++s) {
          for (int t = 0; t < g.q; ++t) {
            const std::int32_t rawv =
                raw[static_cast<std::size_t>((mo * g.p + s) * g.vtn8 +
                                             (no * g.q + t))];
            acc += wmult[static_cast<std::size_t>(s)] *
                   xmult[static_cast<std::size_t>(t)] *
                   core::finalize_partial(sel.kind, rawv, g.k, 0);
          }
        }
        (*y)(m, n) = static_cast<std::int32_t>(acc);
      }
    }
  });
}

template <typename Fn>
double best_of_ms(int reps, Fn&& fn) {
  double best = 1e30;
  for (int r = 0; r < reps; ++r) {
    WallTimer t;
    fn();
    best = std::min(best, t.millis());
  }
  return best;
}

/// One-thread best-of-`reps` ms of run_batched_compute at an attention-step
/// shape with the session's tile heuristic, or -1 when the output disagrees
/// with ap_gemm_reference followed by Epilogue::apply.
double attention_step_ms(Rng& rng, std::int64_t m, std::int64_t n,
                         std::int64_t k, core::Encoding w_enc, int p,
                         core::Encoding x_enc, int q, const Epilogue& epi,
                         int reps) {
  const ApOperand w = bench_helpers::random_operand(rng, m, k, w_enc, p);
  const ApOperand x = bench_helpers::random_operand(rng, n, k, x_enc, q);
  const OpSelection sel = core::select_operator({w.encoding, x.encoding});
  const core::TileConfig tile = core::clamp_tile_rows(
      core::autotune_tile(m, n, k, p, q, tcsim::rtx3090()).tile, m, p);
  ThreadPool serial(1);
  BatchedGeometry g = core::internal::make_geometry(w, x, tile);
  g.pool = &serial;

  Tensor<std::int32_t> y;
  bitops::BitPlanes packed;
  const auto run = [&] {
    // As apmm() does: the packed planes are OR targets, so they are
    // re-zeroed; the dense output keeps its storage.
    if (epi.has_quant) {
      packed.reset_shape(n, m, epi.quant.bits);
    } else {
      y.reset_shape({m, n});
    }
    core::internal::run_batched_compute(w, x, sel, g, epi, &y, &packed);
  };
  run();
  const Tensor<std::int32_t> ref = core::ap_gemm_reference(w, x);
  const std::vector<std::int32_t> codes =
      epi.has_quant ? bitops::recompose(packed) : std::vector<std::int32_t>{};
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      const std::int32_t got =
          epi.has_quant ? codes[static_cast<std::size_t>(j * m + i)]
                        : y(i, j);
      if (got != epi.apply(ref(i, j), i)) return -1.0;
    }
  }
  return best_of_ms(reps, run);
}

}  // namespace
}  // namespace apnn

int main(int argc, char** argv) {
  using namespace apnn;
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_apmm_hotpath.json";
  const std::int64_t size = argc > 2 ? std::atoll(argv[2]) : 1024;
  const int reps = argc > 3 ? std::atoi(argv[3]) : 5;

  // 1-bit x 1-bit (BNN / Case II, XOR datapath) at size^3 — the paper's
  // headline emulation workload and the acceptance shape of PR 1.
  Rng rng(42);
  const core::ApOperand w = bench_helpers::random_operand(
      rng, size, size, core::Encoding::kSignedPM1, 1);
  const core::ApOperand x = bench_helpers::random_operand(
      rng, size, size, core::Encoding::kSignedPM1, 1);
  const core::OpSelection sel =
      core::select_operator({w.encoding, x.encoding});

  const auto& dev = tcsim::rtx3090();
  const core::TileConfig tile =
      core::autotune_tile(size, size, size, 1, 1, dev).tile;
  const core::internal::BatchedGeometry g =
      core::internal::make_geometry(w, x, tile);

  Tensor<std::int32_t> y_seed({g.m, g.n});
  Tensor<std::int32_t> y_new({g.m, g.n});
  bitops::BitPlanes unused;

  // Correctness gate first: both paths must agree bit-exactly.
  seed_run_batched_compute(w, x, sel, g, &y_seed);
  core::internal::run_batched_compute(w, x, sel, g, core::Epilogue{}, &y_new,
                                      &unused);
  for (std::int64_t i = 0; i < y_seed.numel(); ++i) {
    if (y_seed[i] != y_new[i]) {
      std::fprintf(stderr, "FATAL: path mismatch at %lld: %d vs %d\n",
                   static_cast<long long>(i), y_seed[i], y_new[i]);
      return 1;
    }
  }

  const double seed_ms = best_of_ms(
      reps, [&] { seed_run_batched_compute(w, x, sel, g, &y_seed); });
  const double new_ms = best_of_ms(reps, [&] {
    core::internal::run_batched_compute(w, x, sel, g, core::Epilogue{},
                                        &y_new, &unused);
  });

  const double ops = 2.0 * static_cast<double>(size) * size * size;
  const double seed_gops = ops / (seed_ms * 1e6);
  const double new_gops = ops / (new_ms * 1e6);
  const double speedup = seed_ms / new_ms;

  std::printf("apmm hot path, %lldx%lldx%lld 1-bit x 1-bit (Case II)\n",
              static_cast<long long>(size), static_cast<long long>(size),
              static_cast<long long>(size));
  std::printf("  seed loop       : %8.2f ms  (%7.2f Gop/s)\n", seed_ms,
              seed_gops);
  std::printf("  microkernel path: %8.2f ms  (%7.2f Gop/s)\n", new_ms,
              new_gops);
  std::printf("  speedup         : %6.2fx\n", speedup);

  // The seq-512 attention steps of tiny_transformer w1a2 (d_model 32,
  // 2 heads of d_head 16).
  Rng attn_rng(512);
  const double scores_ms = attention_step_ms(
      attn_rng, 512, 512, 16, core::Encoding::kUnsigned01, 2,
      core::Encoding::kUnsigned01, 2, Epilogue{}, reps);
  Epilogue proj_epi;
  proj_epi.has_relu = true;
  proj_epi.has_quant = true;
  proj_epi.quant.bits = 2;
  proj_epi.quant.scale = 4.0;
  const double proj_ms = attention_step_ms(
      attn_rng, 32, 512, 32, core::Encoding::kSignedPM1, 1,
      core::Encoding::kUnsigned01, 2, proj_epi, reps);
  if (scores_ms < 0 || proj_ms < 0) {
    std::fprintf(stderr, "FATAL: attention-step output mismatch\n");
    return 1;
  }
  const unsigned hw_threads =
      std::max(1u, std::thread::hardware_concurrency());
  std::printf("  seq-512 scores w2a2 512x512x16, 1 thread : %8.3f ms "
              "(%5.2f ns/output)\n",
              scores_ms, scores_ms * 1e6 / (512.0 * 512));
  std::printf("  seq-512 proj w1a2 quant 32x512x32, 1 thread: %8.3f ms "
              "(%5.2f ns/output)\n",
              proj_ms, proj_ms * 1e6 / (32.0 * 512));

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"apmm_hotpath\",\n"
               "  \"workload\": \"w1a1_case2_xor\",\n"
               "  \"m\": %lld,\n  \"n\": %lld,\n  \"k\": %lld,\n"
               "  \"tile_bm\": %d,\n  \"tile_bn\": %d,\n"
               "  \"reps\": %d,\n"
               "  \"hardware_threads\": %u,\n"
               "  \"simd\": \"%s\",\n"
               "  \"seed_ms\": %.3f,\n"
               "  \"microkernel_ms\": %.3f,\n"
               "  \"seed_gops\": %.2f,\n"
               "  \"microkernel_gops\": %.2f,\n"
               "  \"speedup\": %.3f,\n"
               "  \"scores_w2a2_seq512_millis\": %.3f,\n"
               "  \"proj_w1a2_quant_seq512_millis\": %.3f\n"
               "}\n",
               static_cast<long long>(size), static_cast<long long>(size),
               static_cast<long long>(size), tile.bm, tile.bn, reps,
               hw_threads, core::microkernel::kSimdFlavor, seed_ms, new_ms,
               seed_gops, new_gops, speedup, scores_ms, proj_ms);
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
