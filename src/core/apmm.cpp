#include "src/core/apmm.hpp"

#include <string>

#include "src/core/apmm_internal.hpp"

namespace apnn::core {

using internal::BatchedGeometry;
using internal::ceil_div;
using internal::round_up;

namespace {

std::string kernel_name(int p, int q) {
  return "apmm-w" + std::to_string(p) + "a" + std::to_string(q);
}

}  // namespace

ApmmResult apmm(const ApOperand& w, const ApOperand& x,
                const tcsim::DeviceSpec& dev, const ApmmOptions& opts,
                const Epilogue& epi) {
  APNN_CHECK(w.cols() == x.cols())
      << "K mismatch: " << w.cols() << " vs " << x.cols();
  const OpSelection sel = select_operator({w.encoding, x.encoding});
  if (sel.kind == EmulationCase::kCaseII) {
    APNN_CHECK(w.bits() == 1 && x.bits() == 1)
        << "Case II (±1 x ±1) requires 1-bit operands";
  }

  ApmmResult res;
  TileConfig tile = opts.tile;
  if (opts.autotune) {
    tile = autotune_tile(w.rows(), x.rows(), w.cols(), w.bits(), x.bits(),
                         dev, opts.tlp_threshold)
               .tile;
  } else {
    assign_warp_grid(tile);
  }
  res.tile = tile;
  BatchedGeometry g = internal::make_geometry(w, x, tile);
  g.pool = opts.pool;
  g.sparsity = opts.sparsity_stats;

  // --- Launch records -------------------------------------------------
  if (opts.collect_profile) {
    ApmmOptions resolved = opts;
    resolved.autotune = false;
    resolved.tile = tile;
    res.profile = apmm_profile(w.rows(), x.rows(), w.cols(), w.bits(),
                               x.bits(), {w.encoding, x.encoding}, dev,
                               resolved, epi);
  }

  // --- Functional execution -------------------------------------------
  if (opts.mode == ExecMode::kFull) {
    Tensor<std::int32_t>* y = &res.y;
    bitops::BitPlanes* packed = &res.packed;
    if (epi.has_quant) {
      if (opts.packed_out != nullptr) packed = opts.packed_out;
      packed->reset_shape(g.n, g.m, epi.quant.bits);
    } else {
      if (opts.y_out != nullptr) y = opts.y_out;
      y->reset_shape({g.m, g.n});
    }
    internal::run_batched_compute(w, x, sel, g, epi, y, packed);
  }
  return res;
}

tcsim::SequenceProfile apmm_profile(std::int64_t m, std::int64_t n,
                                    std::int64_t k, int p, int q,
                                    const EncodingConfig& enc,
                                    const tcsim::DeviceSpec& dev,
                                    const ApmmOptions& opts,
                                    const Epilogue& epi) {
  const OpSelection sel = select_operator(enc);
  TileConfig tile = opts.tile;
  if (opts.autotune) {
    tile = autotune_tile(m, n, k, p, q, dev, opts.tlp_threshold).tile;
  } else {
    assign_warp_grid(tile);
  }
  const BatchedGeometry g = internal::make_geometry(m, n, k, p, q, tile);
  const std::string name = kernel_name(p, q);

  tcsim::SequenceProfile seq;
  if (opts.batch_planes) {
    seq.add(internal::batched_profile(g, sel, opts, epi, name));
    if (!opts.semantic_aware) {
      seq.add(internal::combine_kernel_profile(g, epi));
    }
    return seq;
  }

  // Naive strategy (§4.1): one independent BMMA launch per (s, t) plane
  // pair, each writing its partial matrix to global memory, then a separate
  // combination kernel.
  TileConfig bt = opts.tile;
  if (opts.autotune) {
    bt = autotune_tile(m, n, k, 1, 1, dev, opts.tlp_threshold).tile;
  } else {
    assign_warp_grid(bt);
  }
  for (int s = 0; s < p; ++s) {
    for (int t = 0; t < q; ++t) {
      tcsim::KernelProfile kp;
      kp.name =
          name + "-bmma(" + std::to_string(s) + "," + std::to_string(t) + ")";
      kp.family = "apnn";
      const std::int64_t gm = ceil_div(g.m, bt.bm);
      const std::int64_t gn = ceil_div(g.n, bt.bn);
      kp.grid_blocks = gm * gn;
      kp.threads_per_block = bt.warps_per_block() * 32;
      kp.shmem_per_block = bt.shmem_bytes();
      kp.ci = compute_intensity(bt);
      auto& c = kp.counters;
      c.kernel_launches = 1;
      const std::int64_t tile_bytes =
          static_cast<std::int64_t>(bt.bm + bt.bn) * bt.bk / 8;
      c.global_load_bytes += kp.grid_blocks * g.ktiles * tile_bytes;
      c.shared_store_bytes += kp.grid_blocks * g.ktiles * tile_bytes;
      c.shared_load_bytes += kp.grid_blocks * g.ktiles * tile_bytes;
      c.bmma_b1 += kp.grid_blocks * g.ktiles * (round_up(bt.bm, 8) / 8) *
                   (round_up(bt.bn, 8) / 8);
      if (sel.kind == EmulationCase::kCaseIII && s == 0) {
        c.alu_combine_ops += g.n * g.row_words;
      }
      c.global_store_bytes += g.m * g.n * 4;  // partial matrix
      seq.add(std::move(kp));
    }
  }
  seq.add(internal::combine_kernel_profile(g, epi));
  return seq;
}

tcsim::KernelProfile decompose_profile(std::int64_t rows, std::int64_t cols,
                                       int bits, double elem_bytes) {
  tcsim::KernelProfile prof;
  prof.name = "bit-decompose";
  prof.family = "apnn";
  prof.grid_blocks = (rows * cols + 4095) / 4096;
  prof.threads_per_block = 256;
  prof.ci = 0;
  auto& c = prof.counters;
  c.kernel_launches = 1;
  c.global_load_bytes = static_cast<std::int64_t>(
      static_cast<double>(rows * cols) * elem_bytes);
  c.global_store_bytes = rows * cols * bits / 8;
  c.alu_decompose_ops = rows * cols * bits * 2;
  return prof;
}

}  // namespace apnn::core
