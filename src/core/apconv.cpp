#include "src/core/apconv.hpp"

#include <algorithm>
#include <string>
#include <vector>

#include "src/core/apmm_internal.hpp"
#include "src/parallel/scratch.hpp"

namespace apnn::core {

using internal::BatchedGeometry;
using internal::ceil_div;

namespace {

std::string kernel_name(int p, int q) {
  return "apconv-w" + std::to_string(p) + "a" + std::to_string(q);
}

ApmmOptions as_apmm_options(const ApconvOptions& o) {
  ApmmOptions a;
  a.autotune = false;  // tile already resolved by apconv
  a.micro = o.micro;
  a.batch_planes = o.batch_planes;
  a.double_caching = o.double_caching;
  a.fragment_caching = o.fragment_caching;
  a.semantic_aware = o.semantic_aware;
  a.mode = o.mode;
  a.pool = o.pool;
  a.sparsity_stats = o.sparsity_stats;
  return a;
}

/// Separate pooling kernel of the unfused path: one global round trip.
tcsim::KernelProfile pool_kernel_profile(std::int64_t channels,
                                         std::int64_t spatial,
                                         const PoolSpec& pool) {
  tcsim::KernelProfile prof;
  prof.name = pool.kind == PoolSpec::Kind::kMax ? "maxpool" : "avgpool";
  prof.family = "apnn";
  prof.grid_blocks = ceil_div(channels * spatial, 4096);
  prof.threads_per_block = 256;
  auto& c = prof.counters;
  c.kernel_launches = 1;
  c.global_load_bytes += channels * spatial * 4;
  c.global_store_bytes +=
      channels * spatial / (pool.size * pool.size) * 4;
  c.alu_epilogue_ops += channels * spatial;
  return prof;
}

/// Separate elementwise epilogue kernel of the unfused path (BN/ReLU/quant
/// + bit repacking).
tcsim::KernelProfile epilogue_kernel_profile(std::int64_t elems,
                                             const Epilogue& epi) {
  tcsim::KernelProfile prof;
  prof.name = "epilogue";
  prof.family = "apnn";
  prof.grid_blocks = ceil_div(elems, 4096);
  prof.threads_per_block = 256;
  auto& c = prof.counters;
  c.kernel_launches = 1;
  c.global_load_bytes += elems * 4;
  c.alu_epilogue_ops += elems * epi.alu_ops_per_element();
  if (epi.has_quant) {
    const int qo = epi.quant.bits;
    c.alu_decompose_ops += elems * qo + ceil_div(elems, 32) * qo;
    c.global_store_bytes += ceil_div(elems, 32) * 4 * qo;
  } else {
    c.global_store_bytes += elems * 4;
  }
  return prof;
}

/// Precomputes the §4.2b Case-II amendment: out-of-frame taps were padded
/// with bit 1 (+1); the fused block epilogue subtracts their contribution so
/// the result matches zero-pad semantics. The correction for one output
/// position is
///   2 * popc(W_row & pad_mask) - popc(pad_mask)
/// shared across the batch; the table is indexed [m * oh*ow + oy*ow + ox]
/// and is zero at interior positions (most of it, so the build parallelizes
/// over positions and skips the pad-free ones).
std::vector<std::int32_t> build_case2_correction(
    const ApOperand& w, const layout::ConvGeometry& g, ThreadPool& tp) {
  const bitops::BitMatrix& w0 = w.planes.plane(0);
  const std::int64_t row_words = w0.row_words();
  const std::int64_t oh = g.out_h(), ow = g.out_w();
  std::vector<std::int32_t> corr(
      static_cast<std::size_t>(g.out_c * oh * ow), 0);
  tp.parallel_for(0, oh * ow, [&](std::int64_t pos) {
    const std::int64_t oy = pos / ow, ox = pos % ow;
    // Mask scratch comes from the worker's arena (pointer bump, no heap
    // after the first position on each thread).
    auto& arena = parallel::ScratchArena::tls();
    arena.reset();
    std::uint64_t* mask = arena.get<std::uint64_t>(row_words);
    std::fill_n(mask, row_words, 0);
    std::int64_t npad = 0;
    for (int kh = 0; kh < g.kernel; ++kh) {
      for (int kw = 0; kw < g.kernel; ++kw) {
        const std::int64_t ih = oy * g.stride + kh - g.pad;
        const std::int64_t iw = ox * g.stride + kw - g.pad;
        if (ih < 0 || ih >= g.in_h || iw < 0 || iw >= g.in_w) {
          const std::int64_t bit =
              (static_cast<std::int64_t>(kh) * g.kernel + kw) * g.in_c;
          for (std::int64_t c = 0; c < g.in_c; ++c) {
            mask[static_cast<std::size_t>((bit + c) / 64)] |=
                1ULL << ((bit + c) % 64);
          }
          npad += g.in_c;
        }
      }
    }
    if (npad == 0) return;
    for (std::int64_t m = 0; m < g.out_c; ++m) {
      const std::int64_t ones = bitops::dot_and_popc(w0.row(m), mask,
                                                     row_words);
      corr[static_cast<std::size_t>(m * oh * ow + pos)] =
          static_cast<std::int32_t>(2 * ones - npad);
    }
  }, /*grain=*/ow);
  return corr;
}

}  // namespace

tcsim::SequenceProfile apconv_profile(const layout::ConvGeometry& g, int p,
                                      int q, const EncodingConfig& enc,
                                      const tcsim::DeviceSpec& dev,
                                      const ApconvOptions& opts,
                                      const Epilogue& epi,
                                      const PoolSpec& pool) {
  const OpSelection sel = select_operator(enc);
  TileConfig tile = opts.tile;
  if (opts.autotune) {
    tile = autotune_tile(g.gemm_m(), g.gemm_n(), g.gemm_k(), p, q, dev,
                         opts.tlp_threshold)
               .tile;
  } else {
    assign_warp_grid(tile);
  }
  const BatchedGeometry geom = internal::make_geometry(
      g.gemm_m(), g.gemm_n(), g.gemm_k(), p, q, tile);
  const std::string name = kernel_name(p, q);
  const ApmmOptions aopts = as_apmm_options(opts);
  const std::int64_t oh = g.out_h(), ow = g.out_w();
  const std::int64_t pooled_spatial =
      pool.active() ? g.gemm_n() / (pool.size * pool.size) : g.gemm_n();

  tcsim::SequenceProfile seq;
  const Epilogue fused_epi = opts.fuse_epilogue ? epi : Epilogue{};
  const std::int64_t store_scale =
      (opts.fuse_epilogue && pool.active())
          ? static_cast<std::int64_t>(pool.size) * pool.size
          : 1;
  const std::int64_t extra_alu =
      (opts.fuse_epilogue && pool.active())
          ? static_cast<std::int64_t>(pool.size) * pool.size
          : 0;
  tcsim::KernelProfile main_prof = internal::batched_profile(
      geom, sel, aopts, fused_epi, name, store_scale, extra_alu);
  // Narrow-channel coalescing penalty (§4.2a): the channel-major layout
  // yields C-bit feature slabs; when C is far below the 32-bit transaction
  // granularity (e.g. the 3-channel input layer) most of every transaction
  // is wasted. The GEMM-side W loads are dense and unaffected.
  if (g.in_c < 32) {
    const double factor = std::min(8.0, 32.0 / static_cast<double>(g.in_c));
    const double feat_frac = static_cast<double>(geom.vtn) /
                             static_cast<double>(geom.vtm + geom.vtn);
    const auto extra = static_cast<std::int64_t>(
        static_cast<double>(main_prof.counters.global_load_bytes) *
        feat_frac * (factor - 1.0));
    main_prof.counters.global_load_bytes += extra;
  }
  if (sel.kind == EmulationCase::kCaseII) {
    // Border amendment: one masked popc per (border position, out channel).
    const std::int64_t border = 2 * (oh + ow);  // ~perimeter positions
    main_prof.counters.alu_combine_ops += border * g.out_c * geom.row_words;
  }
  seq.add(std::move(main_prof));
  if (!opts.semantic_aware) {
    seq.add(internal::combine_kernel_profile(geom, fused_epi));
  }
  if (!opts.fuse_epilogue) {
    if (pool.active()) {
      seq.add(pool_kernel_profile(g.out_c, g.gemm_n(), pool));
    }
    if (!epi.identity()) {
      seq.add(epilogue_kernel_profile(g.out_c * pooled_spatial, epi));
    }
  }
  return seq;
}

ApOperand make_conv_weights(const Tensor<std::int32_t>& ohwi, Encoding enc,
                            int bits) {
  APNN_CHECK(ohwi.rank() == 4) << "conv weights must be {Cout, KH, KW, Cin}";
  const Tensor<std::int32_t> flat = ohwi.reshaped(
      {ohwi.dim(0), ohwi.dim(1) * ohwi.dim(2) * ohwi.dim(3)});
  return make_operand(flat, enc, bits);
}

Tensor<std::int32_t> conv2d_reference(const Tensor<std::int32_t>& x_nhwc,
                                      const Tensor<std::int32_t>& w_ohwi,
                                      const layout::ConvGeometry& g) {
  APNN_CHECK(x_nhwc.rank() == 4 && w_ohwi.rank() == 4);
  const std::int64_t oh = g.out_h(), ow = g.out_w();
  Tensor<std::int32_t> y({g.batch, oh, ow, g.out_c});
  for (std::int64_t n = 0; n < g.batch; ++n) {
    for (std::int64_t oy = 0; oy < oh; ++oy) {
      for (std::int64_t ox = 0; ox < ow; ++ox) {
        for (std::int64_t m = 0; m < g.out_c; ++m) {
          std::int64_t acc = 0;
          for (int kh = 0; kh < g.kernel; ++kh) {
            for (int kw = 0; kw < g.kernel; ++kw) {
              const std::int64_t ih = oy * g.stride + kh - g.pad;
              const std::int64_t iw = ox * g.stride + kw - g.pad;
              if (ih < 0 || ih >= g.in_h || iw < 0 || iw >= g.in_w) continue;
              for (std::int64_t c = 0; c < g.in_c; ++c) {
                acc += static_cast<std::int64_t>(x_nhwc(n, ih, iw, c)) *
                       w_ohwi(m, kh, kw, c);
              }
            }
          }
          y(n, oy, ox, m) = static_cast<std::int32_t>(acc);
        }
      }
    }
  }
  return y;
}

ApconvResult apconv(const ApOperand& w, const layout::PackedActivations& x,
                    Encoding x_enc, const layout::ConvGeometry& g,
                    const tcsim::DeviceSpec& dev, const ApconvOptions& opts,
                    const Epilogue& epi, const PoolSpec& pool) {
  APNN_CHECK(w.rows() == g.out_c) << "Cout mismatch";
  APNN_CHECK(w.cols() == g.gemm_k()) << "weight K mismatch";
  APNN_CHECK(x.n == g.batch && x.h == g.in_h && x.w == g.in_w &&
             x.c == g.in_c)
      << "activation shape mismatch";
  APNN_CHECK(opts.batch_planes)
      << "the unbatched plane strategy is exposed through apmm(); APConv "
         "always uses the virtually batched kernel";
  const OpSelection sel = select_operator({w.encoding, x_enc});
  if (sel.kind == EmulationCase::kCaseII) {
    APNN_CHECK(w.bits() == 1 && x.bits == 1)
        << "Case II requires 1-bit operands";
  }
  const std::int64_t oh = g.out_h(), ow = g.out_w();
  std::int64_t pooled_h = oh, pooled_w = ow;
  if (pool.active()) {
    APNN_CHECK(oh % pool.size == 0 && ow % pool.size == 0)
        << "pooling window must tile the output (" << oh << "x" << ow << ")";
    pooled_h = oh / pool.size;
    pooled_w = ow / pool.size;
  }

  ApconvResult res;
  TileConfig tile = opts.tile;
  if (opts.autotune) {
    tile = autotune_tile(g.gemm_m(), g.gemm_n(), g.gemm_k(), w.bits(), x.bits,
                         dev, opts.tlp_threshold)
               .tile;
  } else {
    assign_warp_grid(tile);
  }
  res.tile = tile;
  const BatchedGeometry geom = internal::make_geometry(
      g.gemm_m(), g.gemm_n(), g.gemm_k(), w.bits(), x.bits, tile);

  // Input-aware padding (§4.2b): ±1 features pad bit 1 (+1) and get the
  // counter amendment; 0/1 features (Cases I and III) pad bit 0.
  const bool pad_one = sel.kind == EmulationCase::kCaseII;

  // --- Launch records -------------------------------------------------
  if (opts.collect_profile) {
    ApconvOptions resolved = opts;
    resolved.autotune = false;
    resolved.tile = tile;
    res.profile = apconv_profile(g, w.bits(), x.bits,
                                 {w.encoding, x_enc}, dev, resolved, epi,
                                 pool);
  }

  // --- Functional execution -------------------------------------------
  if (opts.mode == ExecMode::kFull) {
    // Im2col-free fused path: no patch matrix is ever materialized — the
    // microkernel's staging layer window-gathers each B-panel k-strip
    // straight from the packed feature-map planes, and the whole
    // BN -> ReLU -> pool -> quantize tail runs inside each block's epilogue.
    // Blocks are aligned to whole pooling windows (window-major column
    // order) so a window never straddles blocks; this functional geometry
    // does not alter the launch records above, which model the nominal
    // tiling.
    const std::int64_t win = pool.active() ? pool.size : 1;
    internal::BatchedGeometry fgeom = internal::make_geometry(
        g.gemm_m(), g.gemm_n(), g.gemm_k(), w.bits(), x.bits, tile,
        win * win);
    fgeom.micro = opts.micro;
    fgeom.pool = opts.pool;
    fgeom.sparsity = opts.sparsity_stats;

    std::vector<std::int32_t> corr;
    if (sel.kind == EmulationCase::kCaseII && g.pad > 0) {
      corr = build_case2_correction(
          w, g, opts.pool != nullptr ? *opts.pool : ThreadPool::global());
    }

    internal::FeatureSource src;
    src.fmap = &x;
    src.conv = &g;
    src.pad_one = pad_one;
    src.pool_win = static_cast<int>(win);
    src.encoding = x_enc;
    src.bits = x.bits;

    internal::ConvTail tail;
    tail.g = &g;
    tail.pool = pool;
    tail.corr = corr.empty() ? nullptr : corr.data();

    const std::int64_t pooled_cols = g.batch * pooled_h * pooled_w;
    if (epi.has_quant) {
      layout::PackedActivations* dst =
          opts.packed_out != nullptr ? opts.packed_out : &res.packed;
      dst->reset_shape(g.batch, pooled_h, pooled_w, geom.m, epi.quant.bits);
      // run_batched_compute's packed sink is a BitPlanes; lend it the
      // destination's plane storage (vector moves, no data copies).
      bitops::BitPlanes planes;
      planes.rows = pooled_cols;
      planes.cols = geom.m;
      planes.bits = epi.quant.bits;
      planes.planes = std::move(dst->planes);
      internal::run_batched_compute(w, src, sel, fgeom, epi, tail, nullptr,
                                    &planes);
      dst->planes = std::move(planes.planes);
    } else {
      Tensor<std::int32_t>* dst =
          opts.y_out != nullptr ? opts.y_out : &res.y;
      dst->reset_shape({g.batch, pooled_h, pooled_w, geom.m});
      internal::run_batched_compute(w, src, sel, fgeom, epi, tail, dst,
                                    nullptr);
    }
  }
  return res;
}

}  // namespace apnn::core
