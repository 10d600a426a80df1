// Performance analysis and auto-tuning of the APNN-TC tiling knobs (§4.3).
//
// Six knobs exist (bm, bn, bk, wm, wn, wk); following the paper we fix
// bk = 128, 8 warps per block with the block workload split evenly
// (wm = bm/4, wn = bn/2, wk = bk — adapted when bm or bn is too small for
// the 4x2 warp grid), and tune bm, bn in {16, 32, 64, 128} with the
// TLP-priority-queue heuristic of §4.3.2 (threshold T = 64).
#pragma once

#include <cstdint>

#include "src/tcsim/device_spec.hpp"

namespace apnn::core {

/// Block/warp tiling of an APNN-TC kernel.
struct TileConfig {
  int bm = 64, bn = 64, bk = 128;
  int warp_rows = 4, warp_cols = 2;  ///< 8 warps in a warp_rows x warp_cols grid

  int warps_per_block() const { return warp_rows * warp_cols; }
  int wm() const { return bm / warp_rows; }
  int wn() const { return bn / warp_cols; }
  int wk() const { return bk; }

  /// Shared memory per block: double-buffered W/X tiles + the int32 output
  /// staging used by the in-SHMEM bit combination.
  std::int64_t shmem_bytes() const {
    const std::int64_t tile_bits =
        static_cast<std::int64_t>(bm + bn) * bk;
    return 2 * tile_bits / 8 + static_cast<std::int64_t>(bm) * bn * 4;
  }
};

/// Thread-level parallelism (Eq. 3): the number of blocks the virtually
/// batched pM x qN output grid spawns.
double tlp(std::int64_t m, std::int64_t n, int p, int q, const TileConfig& t);

/// Compute intensity (Eq. 4): CI = 2*bm*bn / (bm + bn).
double compute_intensity(const TileConfig& t);

struct TuneResult {
  TileConfig tile;
  double tlp = 0;
  double ci = 0;
};

/// §4.3.2 heuristic: enumerate bm, bn in {16,32,64,128}; order by TLP
/// descending; take the head; while candidates keep TLP >= T, prefer the one
/// with the best CI. Configs whose shared-memory footprint exceeds the
/// device are discarded.
TuneResult autotune_tile(std::int64_t m, std::int64_t n, std::int64_t k,
                         int p, int q, const tcsim::DeviceSpec& dev,
                         double tlp_threshold = 64.0);

/// Picks the 8-warp partition for a block tile: prefers the paper's 4x2,
/// falling back to shapes that keep wm and wn multiples of 8 (the bmma
/// fragment size). Asserts bm*bn is large enough for 8 warps of 8x8 tiles
/// unless fewer warps are required (then warps idle, matching hardware).
void assign_warp_grid(TileConfig& t);

/// Clamps bm to the stage's virtual row count (m * p, rounded up to 16) so
/// short-M stages stop staging padded zero A rows — the plan-time
/// refinement InferenceSession applies on top of the heuristic.
TileConfig clamp_tile_rows(TileConfig t, std::int64_t m, int p);

}  // namespace apnn::core
