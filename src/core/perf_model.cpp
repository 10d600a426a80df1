#include "src/core/perf_model.hpp"

#include <algorithm>
#include <queue>
#include <vector>

#include "src/common/check.hpp"

namespace apnn::core {

double tlp(std::int64_t m, std::int64_t n, int p, int q, const TileConfig& t) {
  const double pm = static_cast<double>(p) * static_cast<double>(m);
  const double qn = static_cast<double>(q) * static_cast<double>(n);
  return pm * qn / (static_cast<double>(t.bm) * t.bn);
}

double compute_intensity(const TileConfig& t) {
  return 2.0 * t.bm * t.bn / static_cast<double>(t.bm + t.bn);
}

void assign_warp_grid(TileConfig& t) {
  // Candidate 8-warp partitions, the paper's 4x2 first.
  static constexpr int kGrids[][2] = {{4, 2}, {2, 4}, {8, 1}, {1, 8},
                                      {2, 2}, {4, 1}, {1, 4}, {2, 1},
                                      {1, 2}, {1, 1}};
  for (const auto& g : kGrids) {
    const int rows = g[0], cols = g[1];
    if (t.bm % (rows * 8) == 0 && t.bn % (cols * 8) == 0) {
      t.warp_rows = rows;
      t.warp_cols = cols;
      return;
    }
  }
  APNN_CHECK(false) << "no warp partition for bm=" << t.bm << " bn=" << t.bn;
}

TuneResult autotune_tile(std::int64_t m, std::int64_t n, std::int64_t k,
                         int p, int q, const tcsim::DeviceSpec& dev,
                         double tlp_threshold) {
  APNN_CHECK(m > 0 && n > 0 && k > 0);
  APNN_CHECK(p >= 1 && q >= 1);
  static constexpr int kSizes[] = {16, 32, 64, 128};

  struct Candidate {
    TileConfig tile;
    double tlp_v;
    double ci_v;
  };
  std::vector<Candidate> cands;
  for (int bm : kSizes) {
    for (int bn : kSizes) {
      TileConfig t;
      t.bm = bm;
      t.bn = bn;
      t.bk = 128;
      assign_warp_grid(t);
      if (t.shmem_bytes() > dev.shmem_per_sm) continue;
      cands.push_back({t, tlp(m, n, p, q, t), compute_intensity(t)});
    }
  }
  APNN_CHECK(!cands.empty());

  // Priority queue: highest TLP first (stable tie-break on CI then size so
  // the search is deterministic).
  std::sort(cands.begin(), cands.end(), [](const Candidate& a,
                                           const Candidate& b) {
    if (a.tlp_v != b.tlp_v) return a.tlp_v > b.tlp_v;
    if (a.ci_v != b.ci_v) return a.ci_v > b.ci_v;
    if (a.tile.bm != b.tile.bm) return a.tile.bm < b.tile.bm;
    return a.tile.bn < b.tile.bn;
  });

  // Head of the queue: maximum-TLP config. If even it is below the
  // threshold, stick with it (§4.3.2 step 1).
  Candidate best = cands.front();
  if (best.tlp_v < tlp_threshold) {
    TuneResult r{best.tile, best.tlp_v, best.ci_v};
    return r;
  }
  // Otherwise keep popping while TLP stays above the threshold, upgrading to
  // better CI (§4.3.2 step 2).
  for (const Candidate& c : cands) {
    if (c.tlp_v < tlp_threshold) break;
    if (c.ci_v > best.ci_v) best = c;
  }
  (void)k;  // k does not enter TLP/CI; kept for signature symmetry
  return TuneResult{best.tile, best.tlp_v, best.ci_v};
}

TileConfig clamp_tile_rows(TileConfig t, std::int64_t m, int p) {
  const std::int64_t vrows = m * static_cast<std::int64_t>(p);
  const auto cap =
      static_cast<int>(std::max<std::int64_t>(16, (vrows + 15) / 16 * 16));
  t.bm = std::min(t.bm, cap);
  return t;
}

TileConfig row_complete_tile(std::int64_t n, int q) {
  TileConfig t;
  t.bm = 16;
  t.bn = static_cast<int>((n * q + 7) / 8 * 8);
  assign_warp_grid(t);
  return t;
}

}  // namespace apnn::core
