#include "src/core/apmm_internal.hpp"

#include <algorithm>
#include <atomic>
#include <limits>

#include "src/core/microkernel.hpp"
#include "src/layout/im2col.hpp"
#include "src/parallel/scratch.hpp"

namespace apnn::core::internal {

namespace {

/// Pool the geometry's block loops run on (nullptr = process-global).
ThreadPool& geometry_pool(const BatchedGeometry& g) {
  return g.pool != nullptr ? *g.pool : ThreadPool::global();
}

/// The calling thread's buffer, grown to at least `n` elements. It keeps its
/// high-water size, so a recurring shape allocates only on its first call.
/// (Not the block ScratchArena: every block resets that.)
std::uint32_t* grown(std::vector<std::uint32_t>& buf, std::int64_t n) {
  if (buf.size() < static_cast<std::size_t>(n)) {
    buf.resize(static_cast<std::size_t>(n));
  }
  return buf.data();
}

}  // namespace

BatchedGeometry make_geometry(const ApOperand& w, const ApOperand& x,
                              const TileConfig& tile) {
  return make_geometry(w.rows(), x.rows(), w.cols(), w.bits(), x.bits(),
                       tile);
}

BatchedGeometry make_geometry(std::int64_t m, std::int64_t n, std::int64_t k,
                              int p, int q, const TileConfig& tile,
                              std::int64_t col_align) {
  BatchedGeometry g;
  g.m = m;
  g.n = n;
  g.k = k;
  g.p = p;
  g.q = q;
  g.tile = tile;
  // Blocks own whole output elements (all p*q plane partials), so the block
  // tile is expressed in output space and expanded by the plane counts.
  g.om = std::max<std::int64_t>(1, tile.bm / g.p);
  g.on = round_up(std::max<std::int64_t>(1, tile.bn / g.q), col_align);
  g.vtm = g.om * g.p;
  g.vtn = g.on * g.q;
  g.vtm8 = round_up(g.vtm, 8);
  g.vtn8 = round_up(g.vtn, 8);
  g.grid_m = ceil_div(g.m, g.om);
  g.grid_n = ceil_div(g.n, g.on);
  g.blocks = g.grid_m * g.grid_n;
  g.row_words = bitops::padded_words(k);
  g.ktiles = g.row_words / bitops::kWordsPerTile;
  return g;
}

tcsim::KernelProfile batched_profile(const BatchedGeometry& g,
                                     const OpSelection& sel,
                                     const ApmmOptions& opts,
                                     const Epilogue& epi,
                                     const std::string& name,
                                     std::int64_t store_scale,
                                     std::int64_t extra_alu_per_out) {
  tcsim::KernelProfile prof;
  prof.name = name;
  prof.family = "apnn";
  prof.grid_blocks = g.blocks;
  prof.threads_per_block = g.tile.warps_per_block() * 32;
  prof.shmem_per_block = g.tile.shmem_bytes();
  prof.ci = compute_intensity(g.tile);
  auto& c = prof.counters;
  c.kernel_launches = 1;

  const std::int64_t tile_bits = (g.vtm + g.vtn) * g.tile.bk;
  const int wr = g.tile.warp_rows, wc = g.tile.warp_cols;
  const std::int64_t wm_t = ceil_div(g.vtm, wr), wn_t = ceil_div(g.vtn, wc);
  const std::int64_t warp_bits = static_cast<std::int64_t>(wr) * wc *
                                 (wm_t + wn_t) * g.tile.bk;

  if (opts.double_caching) {
    // Warps collaboratively stage tiles in SHMEM, then fetch their subtiles.
    c.global_load_bytes += g.blocks * g.ktiles * tile_bits / 8;
    c.shared_store_bytes += g.blocks * g.ktiles * tile_bits / 8;
    c.shared_load_bytes += g.blocks * g.ktiles * warp_bits / 8;
  } else {
    // Each warp pulls its own tiles straight from global memory.
    c.global_load_bytes += g.blocks * g.ktiles * warp_bits / 8;
  }

  if (!opts.fragment_caching) {
    // Partial accumulators spill to SHMEM and reload every k-tile instead of
    // staying in register fragments.
    c.shared_store_bytes += g.blocks * g.ktiles * g.vtm8 * g.vtn8 * 4;
    c.shared_load_bytes += g.blocks * g.ktiles * g.vtm8 * g.vtn8 * 4;
  }

  c.bmma_b1 += g.blocks * g.ktiles * (g.vtm8 / 8) * (g.vtn8 / 8);

  if (sel.kind == EmulationCase::kCaseIII) {
    // J·X correction: one popc per loaded feature word.
    c.alu_combine_ops += g.q * g.n * g.row_words;
  }

  const std::int64_t out_per_block =
      std::max<std::int64_t>(1, g.om * g.on / store_scale);
  if (opts.semantic_aware) {
    // In-SHMEM reduction of the p*q partials of each output element.
    c.shared_store_bytes += g.blocks * g.vtm * g.vtn * 4;
    c.shared_load_bytes += g.blocks * g.vtm * g.vtn * 4;
    c.alu_combine_ops += g.blocks * g.vtm * g.vtn * 2;
    c.alu_epilogue_ops +=
        g.blocks * out_per_block *
        (epi.alu_ops_per_element() + extra_alu_per_out);
    if (epi.has_quant) {
      const int qo = epi.quant.bits;
      // Plane split (shift+and per bit) plus one ballot per 32 lanes/plane.
      c.alu_decompose_ops += g.blocks * out_per_block * qo;
      c.alu_decompose_ops += g.blocks * ceil_div(out_per_block, 32) * qo;
      c.global_store_bytes += g.blocks * ceil_div(out_per_block, 32) * 4 * qo;
    } else {
      c.global_store_bytes += g.blocks * out_per_block * 4;
    }
  } else {
    // Partials leave the kernel unreduced; a second kernel combines them.
    c.global_store_bytes += g.blocks * g.vtm * g.vtn * 4;
  }
  return prof;
}

tcsim::KernelProfile combine_kernel_profile(const BatchedGeometry& g,
                                            const Epilogue& epi) {
  tcsim::KernelProfile prof;
  prof.name = "bit-combine";
  prof.family = "apnn";
  prof.grid_blocks = ceil_div(g.m * g.n, 4096);
  prof.threads_per_block = 256;
  prof.ci = 0;
  auto& c = prof.counters;
  c.kernel_launches = 1;
  c.global_load_bytes += g.p * g.q * g.m * g.n * 4;
  c.alu_combine_ops += g.p * g.q * g.m * g.n * 2;
  c.alu_epilogue_ops += g.m * g.n * epi.alu_ops_per_element();
  if (epi.has_quant) {
    const int qo = epi.quant.bits;
    c.alu_decompose_ops += g.m * g.n * qo + ceil_div(g.m * g.n, 32) * qo;
    c.global_store_bytes += ceil_div(g.m * g.n, 32) * 4 * qo;
  } else {
    c.global_store_bytes += g.m * g.n * 4;
  }
  return prof;
}

void run_batched_compute(const ApOperand& w, const ApOperand& x,
                         const OpSelection& sel, const BatchedGeometry& g,
                         const Epilogue& epi, Tensor<std::int32_t>* y,
                         bitops::BitPlanes* packed) {
  FeatureSource src;
  src.planes = &x.planes;
  src.encoding = x.encoding;
  src.bits = x.bits();
  run_batched_compute(w, src, sel, g, epi, ConvTail{}, y, packed);
}

void run_batched_compute(const ApOperand& w, const FeatureSource& x,
                         const OpSelection& sel, const BatchedGeometry& g,
                         const Epilogue& epi, const ConvTail& tail,
                         Tensor<std::int32_t>* y, bitops::BitPlanes* packed) {
  // Whole-plane elision (the plane-level sparse fast path): a bit-plane
  // whose payload is entirely zero contributes an exactly-zero term and is
  // dropped from the combine and the Case-III popcount pass. Rules:
  //   - weight plane s, Case I only: term = wmult*xmult*raw with
  //     raw = popc(AND) = 0 (exact for kTwosComplement too — the sign
  //     multiplier scales an exact zero).
  //   - activation plane t, Case I (raw = 0) and Case III (raw = 0 and
  //     x_popc = 0, so 2*raw - x_popc = 0).
  //   - Case II never elides: in ±1 encoding a zero plane encodes all -1
  //     values and its term k - 2*raw = k is nonzero. That also keeps the
  //     window-gather check sound — pad_one is only ever set for Case II,
  //     so in the elidable cases padding stages 0 bits and a zero
  //     feature-map plane implies all-zero patch rows.
  //   - Case III weight planes never elide (term = -wmult*xmult*x_popc).
  std::uint32_t elide_w = 0, elide_x = 0;
  if (sel.kind != EmulationCase::kCaseII) {
    const auto plane_zero = [](const bitops::BitMatrix& pm) {
      for (std::int64_t r = 0; r < pm.rows(); ++r) {
        if (pm.row_popcount(r) != 0) return false;
      }
      return true;
    };
    if (sel.kind == EmulationCase::kCaseI) {
      for (int s = 0; s < g.p; ++s) {
        if (plane_zero(w.planes.plane(s))) elide_w |= 1u << s;
      }
    }
    for (int t = 0; t < g.q; ++t) {
      const bitops::BitMatrix& pm =
          x.window_gather() ? x.fmap->planes[static_cast<std::size_t>(t)]
                            : x.planes->plane(t);
      if (plane_zero(pm)) elide_x |= 1u << t;
    }
  }
  if (g.sparsity != nullptr) {
    g.sparsity->planes.fetch_add(g.p + g.q, std::memory_order_relaxed);
    g.sparsity->planes_elided.fetch_add(
        __builtin_popcount(elide_w) + __builtin_popcount(elide_x),
        std::memory_order_relaxed);
  }
  const bool all_x_elided =
      elide_x != 0 && elide_x == (1u << static_cast<unsigned>(g.q)) - 1;

  // Case III needs popc(X row) per feature plane; flattened q x n, column
  // xpopc[n * q + t] so one output column's planes sit contiguously. For the
  // window-gathered operand the patch row never exists, but its popcount is
  // the sum of the in-frame channel-slab popcounts (§4.2b pads 0 here, so
  // padding taps contribute nothing). Stored as uint32 for the modulo-2^32
  // row combine (a popcount never exceeds k).
  static thread_local std::vector<std::uint32_t> xpopc_buf, slab_popc_buf;
  std::uint32_t* xpopc = nullptr;
  if (sel.kind == EmulationCase::kCaseIII) {
    xpopc = grown(xpopc_buf, g.n * g.q);
    if (x.window_gather()) {
      // Two stages: popc of each spatial position's C-bit slab once per
      // plane, then per column a pure-integer sum over its in-frame taps.
      const layout::ConvGeometry& cg = *x.conv;
      const std::int64_t spatial = cg.batch * cg.in_h * cg.in_w;
      std::uint32_t* slab_popc = grown(slab_popc_buf, spatial * g.q);
      geometry_pool(g).parallel_for(0, spatial, [&](std::int64_t r) {
        for (int t = 0; t < g.q; ++t) {
          slab_popc[r * g.q + t] =
              ((elide_x >> t) & 1)  // plane is zero: so is its popc
                  ? 0
                  : static_cast<std::uint32_t>(
                        x.fmap->planes[static_cast<std::size_t>(t)]
                            .row_popcount(r));
        }
      }, /*grain=*/256);
      geometry_pool(g).parallel_for(0, g.n, [&](std::int64_t j) {
        const layout::OutPos pos =
            layout::conv_col_position(cg, j, x.pool_win);
        std::uint32_t* out = xpopc + j * g.q;
        for (int t = 0; t < g.q; ++t) out[t] = 0;
        for (int kh = 0; kh < cg.kernel; ++kh) {
          const std::int64_t ih = pos.oy * cg.stride + kh - cg.pad;
          if (ih < 0 || ih >= cg.in_h) continue;
          for (int kw = 0; kw < cg.kernel; ++kw) {
            const std::int64_t iw = pos.ox * cg.stride + kw - cg.pad;
            if (iw < 0 || iw >= cg.in_w) continue;
            const std::uint32_t* sp =
                slab_popc + ((pos.n * cg.in_h + ih) * cg.in_w + iw) * g.q;
            for (int t = 0; t < g.q; ++t) out[t] += sp[t];
          }
        }
      }, /*grain=*/256);
    } else {
      geometry_pool(g).parallel_for(0, g.n, [&](std::int64_t j) {
        for (int t = 0; t < g.q; ++t) {
          xpopc[j * g.q + t] =
              ((elide_x >> t) & 1)  // plane is zero: so is its popc
                  ? 0
                  : static_cast<std::uint32_t>(
                        x.planes->plane(t).row_popcount(j));
        }
      }, /*grain=*/256);
    }
  }

  // Plane combination multipliers. 16 is the plane-count ceiling enforced
  // by bitops::decompose / layout::pack_activations.
  APNN_DCHECK(g.p <= 16 && g.q <= 16) << "p=" << g.p << " q=" << g.q;
  std::int64_t wmult[16], xmult[16];
  for (int s = 0; s < g.p; ++s) wmult[s] = plane_multiplier(w.encoding, s, g.p);
  for (int t = 0; t < g.q; ++t) xmult[t] = plane_multiplier(x.encoding, t, g.q);

  const int qbits = epi.has_quant ? epi.quant.bits : 0;

  // §4.1b in-place bit combination of one output row: reduces the p*q plane
  // partials of block row `mo` (`rows` = raw + mo*p*vtn8) into out[0, cols)
  // with one flat pass per weight plane. All q plane partials of a column
  // sit adjacent in a plane row, so each pass reads contiguously; the case
  // switch is hoisted out of the element loop, and q = 1 (the BNN case) and
  // q = 2 (the dominant w1a2/w2a2 steps) get unrolled maps. The sums are
  // taken modulo 2^32: exactly the int32 truncation of the integer dot
  // product, with no signed overflow for any p, q or k.
  const auto k32 = static_cast<std::uint32_t>(g.k);
  const auto combine_row = [&](const std::int32_t* rows,
                               const std::uint32_t* xp, std::int64_t cols,
                               std::uint32_t* out) {
    std::fill_n(out, cols, 0u);
    if (all_x_elided) return;
    for (int s = 0; s < g.p; ++s) {
      if ((elide_w >> s) & 1) continue;  // whole-plane term is zero
      const auto* pr =
          reinterpret_cast<const std::uint32_t*>(rows + s * g.vtn8);
      std::uint32_t mult[16];
      for (int t = 0; t < g.q; ++t) {
        mult[t] = static_cast<std::uint32_t>(wmult[s] * xmult[t]);
      }
      switch (sel.kind) {
        case EmulationCase::kCaseI:
          if (g.q == 1) {
            for (std::int64_t no = 0; no < cols; ++no) {
              out[no] += mult[0] * pr[no];
            }
          } else if (g.q == 2) {
            for (std::int64_t no = 0; no < cols; ++no) {
              out[no] += mult[0] * pr[no * 2] + mult[1] * pr[no * 2 + 1];
            }
          } else {
            for (std::int64_t no = 0; no < cols; ++no) {
              const std::uint32_t* pp = pr + no * g.q;
              std::uint32_t acc = 0;
              for (int t = 0; t < g.q; ++t) {
                if ((elide_x >> t) & 1) continue;
                acc += mult[t] * pp[t];
              }
              out[no] += acc;
            }
          }
          break;
        case EmulationCase::kCaseII:
          if (g.q == 1) {
            for (std::int64_t no = 0; no < cols; ++no) {
              out[no] += mult[0] * (k32 - 2 * pr[no]);
            }
          } else {
            for (std::int64_t no = 0; no < cols; ++no) {
              const std::uint32_t* pp = pr + no * g.q;
              std::uint32_t acc = 0;
              for (int t = 0; t < g.q; ++t) {
                acc += mult[t] * (k32 - 2 * pp[t]);
              }
              out[no] += acc;
            }
          }
          break;
        case EmulationCase::kCaseIII:
          if (g.q == 1) {
            for (std::int64_t no = 0; no < cols; ++no) {
              out[no] += mult[0] * (2 * pr[no] - xp[no]);
            }
          } else if (g.q == 2) {
            for (std::int64_t no = 0; no < cols; ++no) {
              out[no] += mult[0] * (2 * pr[no * 2] - xp[no * 2]) +
                         mult[1] * (2 * pr[no * 2 + 1] - xp[no * 2 + 1]);
            }
          } else {
            for (std::int64_t no = 0; no < cols; ++no) {
              const std::uint32_t* pp = pr + no * g.q;
              const std::uint32_t* xpp = xp + no * g.q;
              std::uint32_t acc = 0;
              for (int t = 0; t < g.q; ++t) {
                if ((elide_x >> t) & 1) continue;
                acc += mult[t] * (2 * pp[t] - xpp[t]);
              }
              out[no] += acc;
            }
          }
          break;
      }
    }
  };

  geometry_pool(g).parallel_for(0, g.blocks, [&](std::int64_t b) {
    // Every temporary below is a pointer bump into the worker's private
    // arena; after the first block on each thread the hot path allocates
    // nothing.
    auto& arena = parallel::ScratchArena::tls();
    arena.reset();

    const std::int64_t bm_idx = b / g.grid_n;
    const std::int64_t bn_idx = b % g.grid_n;
    const std::int64_t m0 = bm_idx * g.om;
    const std::int64_t n0 = bn_idx * g.on;
    const std::int64_t m_end = std::min(m0 + g.om, g.m);
    const std::int64_t n_end = std::min(n0 + g.on, g.n);

    // Virtual rows are plane-interleaved: r = local_m * p + s, so a block
    // always owns every plane partial of its output rows (§4.1b). nullptr
    // marks out-of-range rows; the staging pass turns them into zeros.
    const std::uint64_t** wrows =
        arena.get<const std::uint64_t*>(g.vtm8);
    for (std::int64_t i = 0; i < g.vtm8; ++i) {
      const std::int64_t m = m0 + i / g.p;
      wrows[i] = (i < g.vtm && m < g.m)
                     ? w.planes.plane(static_cast<int>(i % g.p)).row(m)
                     : nullptr;
    }

    // Raw popc accumulation over all k-strips ("fragment" storage), then the
    // staged cache-blocked microkernel sweep. The feature panels come from
    // a row-pointer table over contiguous planes, or from the im2col-free
    // window gather that assembles each k-strip straight from the packed
    // feature map.
    std::int32_t* raw = arena.get<std::int32_t>(g.vtm8 * g.vtn8);
    std::fill_n(raw, g.vtm8 * g.vtn8, 0);
    if (x.window_gather()) {
      const layout::WindowGatherSource gather(*x.fmap, *x.conv, x.pad_one,
                                              x.pool_win, n0, g.vtn8, g.vtn);
      microkernel::block_bitgemm(sel.bit_op, wrows, g.vtm8, gather,
                                 g.row_words, raw, arena);
    } else {
      const std::uint64_t** xrows = arena.get<const std::uint64_t*>(g.vtn8);
      for (std::int64_t j = 0; j < g.vtn8; ++j) {
        const std::int64_t n = n0 + j / g.q;
        xrows[j] = (j < g.vtn && n < g.n)
                       ? x.planes->plane(static_cast<int>(j % g.q)).row(n)
                       : nullptr;
      }
      microkernel::block_bitgemm(sel.bit_op, wrows, g.vtm8, xrows, g.vtn8,
                                 g.row_words, raw, arena);
    }

    // Block epilogue, the host analogue of the in-SHMEM plane reduction
    // followed by the in-register epilogue: one combined output row at a
    // time (m-outer, so `raw` is read row-major) in flat vectorizable
    // passes over an L1-resident row —
    //   (1) the bit combination (combine_row),
    //   (2) the conv tail's border correction, then BN/ReLU with the
    //       channel's scale/bias held in scalars,
    //   (3) the conv tail's pooling over the win² *contiguous* columns of
    //       each window (the window-major column order makes them adjacent),
    //   (4) quantize + mask build, or the dense store.
    // A dense APMM row is contiguous in y, so it is combined in place.
    const std::int64_t win =
        tail.active() && tail.pool.active() ? tail.pool.size : 1;
    const std::int64_t wsz = win * win;
    const bool max_pool = tail.pool.kind == PoolSpec::Kind::kMax;
    APNN_DCHECK(n0 % wsz == 0 && n_end % wsz == 0)
        << "conv blocks must be pool-window aligned (make_geometry "
           "col_align)";
    const std::int64_t cols = n_end - n0;
    const std::int64_t nwin = cols / wsz;
    const bool pre_active = epi.has_bn || epi.has_relu;
    const std::uint32_t* xp = xpopc != nullptr ? xpopc + n0 * g.q : nullptr;

    // Per-column index of the Case-II correction entry, hoisted out of the
    // m loop (the mapping depends only on the column).
    const std::int32_t* corr_idx = nullptr;
    if (tail.corr != nullptr) {
      std::int32_t* idx = arena.get<std::int32_t>(cols);
      for (std::int64_t no = 0; no < cols; ++no) {
        const layout::OutPos pos = layout::conv_col_position(
            *tail.g, n0 + no, static_cast<int>(win));
        idx[no] = static_cast<std::int32_t>(pos.oy * tail.g->out_w() +
                                            pos.ox);
      }
      corr_idx = idx;
    }

    // Quantized output is transposed for the next layer: the codes of
    // output row m land at bit m of packed rows n0/wsz + [0, nwin). When om
    // is not a multiple of 64 those bit spans share 64-bit words with the
    // horizontally adjacent blocks, so the block builds all its masks in
    // scratch, masks[(plane * nw + word) * nwin + wloc], and publishes them
    // with one atomic OR per touched word (§4.1b repack).
    const std::int64_t w_lo = m0 >> 6;
    const std::int64_t nw = ((m_end - 1) >> 6) - w_lo + 1;
    std::uint64_t* masks = nullptr;
    if (qbits > 0) {
      masks = arena.get<std::uint64_t>(qbits * nw * nwin);
      std::fill_n(masks, qbits * nw * nwin, 0);
    }

    const bool in_place = !tail.active() && qbits == 0;
    std::int32_t* buf = in_place ? nullptr : arena.get<std::int32_t>(cols);
    for (std::int64_t mo = 0; mo < m_end - m0; ++mo) {
      const std::int64_t m = m0 + mo;
      std::int32_t* yrow = in_place ? y->data() + m * g.n + n0 : buf;
      combine_row(raw + mo * g.p * g.vtn8, xp, cols,
                  reinterpret_cast<std::uint32_t*>(yrow));
      if (corr_idx != nullptr) {
        const std::int32_t* mcorr =
            tail.corr + m * tail.g->out_h() * tail.g->out_w();
        for (std::int64_t no = 0; no < cols; ++no) {
          yrow[no] -= mcorr[corr_idx[no]];
        }
      }
      // The float arithmetic of Epilogue::apply with the channel's
      // parameters hoisted (x*1+0 is exact, so the hoisted form also covers
      // the BN-less ReLU and the bare quantizer).
      const float scale =
          epi.has_bn ? epi.bn.scale[static_cast<std::size_t>(m)] : 1.0f;
      const float bias =
          epi.has_bn ? epi.bn.bias[static_cast<std::size_t>(m)] : 0.0f;
      if (qbits > 0 && !tail.active()) {
        // APMM quantizes the epilogue's float itself; only the conv tail
        // truncates to int first, so that it pools integers. max(v, -inf)
        // is v, so one loop serves both ReLU settings.
        const float floor_v = epi.has_relu
                                  ? 0.0f
                                  : -std::numeric_limits<float>::infinity();
        for (std::int64_t no = 0; no < cols; ++no) {
          const float v = static_cast<float>(yrow[no]) * scale + bias;
          yrow[no] = quant::quantize_value(std::max(v, floor_v), epi.quant);
        }
      } else if (pre_active) {
        if (epi.has_relu) {
          for (std::int64_t no = 0; no < cols; ++no) {
            const float v = static_cast<float>(yrow[no]) * scale + bias;
            yrow[no] = static_cast<std::int32_t>(v < 0.0f ? 0.0f : v);
          }
        } else {
          for (std::int64_t no = 0; no < cols; ++no) {
            yrow[no] = static_cast<std::int32_t>(
                static_cast<float>(yrow[no]) * scale + bias);
          }
        }
      }
      if (wsz > 1) {  // conv tail only
        if (max_pool) {
          for (std::int64_t wloc = 0; wloc < nwin; ++wloc) {
            const std::int32_t* src = yrow + wloc * wsz;
            std::int32_t agg = src[0];
            for (std::int64_t e = 1; e < wsz; ++e) {
              agg = std::max(agg, src[e]);
            }
            yrow[wloc] = agg;
          }
        } else {
          for (std::int64_t wloc = 0; wloc < nwin; ++wloc) {
            const std::int32_t* src = yrow + wloc * wsz;
            std::int64_t agg = 0;
            for (std::int64_t e = 0; e < wsz; ++e) agg += src[e];
            // The device epilogue truncates the average (see PoolSpec).
            yrow[wloc] = static_cast<std::int32_t>(agg / wsz);
          }
        }
      }
      if (qbits > 0) {
        if (tail.active()) {
          for (std::int64_t wloc = 0; wloc < nwin; ++wloc) {
            yrow[wloc] = quant::quantize_value(
                static_cast<float>(yrow[wloc]), epi.quant);
          }
        }
        // Bit m of every column's word, one flat pass per plane.
        const auto sh = static_cast<unsigned>(m & 63);
        const auto* codes = reinterpret_cast<const std::uint32_t*>(yrow);
        for (int plane = 0; plane < qbits; ++plane) {
          std::uint64_t* mk = masks + (plane * nw + (m >> 6) - w_lo) * nwin;
          for (std::int64_t wloc = 0; wloc < nwin; ++wloc) {
            mk[wloc] |= std::uint64_t{(codes[wloc] >> plane) & 1u} << sh;
          }
        }
      } else if (tail.active()) {
        // Dense post-pool NHWC store.
        std::int32_t* dst = y->data() + (n0 / wsz) * tail.g->out_c + m;
        for (std::int64_t wloc = 0; wloc < nwin; ++wloc) {
          dst[wloc * tail.g->out_c] = yrow[wloc];
        }
      }
    }
    if (qbits > 0) {
      for (std::int64_t wloc = 0; wloc < nwin; ++wloc) {
        for (int plane = 0; plane < qbits; ++plane) {
          std::uint64_t* row = packed->planes[static_cast<std::size_t>(plane)]
                                   .row(n0 / wsz + wloc) +
                               w_lo;
          for (std::int64_t wi = 0; wi < nw; ++wi) {
            const std::uint64_t mask = masks[(plane * nw + wi) * nwin + wloc];
            if (mask != 0) {
              std::atomic_ref<std::uint64_t>(row[wi]).fetch_or(
                  mask, std::memory_order_relaxed);
            }
          }
        }
      }
    }
  });
}

}  // namespace apnn::core::internal
