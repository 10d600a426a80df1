// Ablation bench for the design choices DESIGN.md calls out: each APNN-TC
// mechanism is disabled in isolation and the modeled latency re-measured on
// a representative layer (the paper motivates each design qualitatively;
// this quantifies them on the simulated device).
#include <cstdio>

#include "bench_util.hpp"

namespace {

using apnn::bench::print_header;
using apnn::bench::print_row;
using apnn::bench::print_rule;
using apnn::strf;
using namespace apnn::core;

double gemm_us(const apnn::tcsim::DeviceSpec& dev, const ApmmOptions& opts,
               std::int64_t m, std::int64_t n, std::int64_t k, int p, int q) {
  const EncodingConfig enc{Encoding::kSignedPM1, Encoding::kUnsigned01};
  const apnn::tcsim::CostModel cm(dev);
  return cm.estimate(apmm_profile(m, n, k, p, q, enc, dev, opts)).total_us;
}

}  // namespace

int main() {
  const auto& dev = apnn::tcsim::rtx3090();
  const std::int64_t m = 64, n = 512, k = 512;
  const int p = 1, q = 2;

  print_header(strf("Ablation: APMM-w%da%d on %ldx%ldx%ld (%s)", p, q, m, n,
                    k, dev.name.c_str()));
  ApmmOptions base;
  const double t_base = gemm_us(dev, base, m, n, k, p, q);
  print_row({"configuration", "latency", "slowdown"}, 26);
  print_rule(3, 26);
  print_row({"full APNN-TC design", strf("%.2fus", t_base), "1.00x"}, 26);

  struct Toggle {
    const char* label;
    ApmmOptions opts;
  };
  std::vector<Toggle> toggles;
  {
    ApmmOptions o;
    o.batch_planes = false;
    toggles.push_back({"- plane batching (p*q launches)", o});
  }
  {
    ApmmOptions o;
    o.double_caching = false;
    toggles.push_back({"- double caching (per-warp loads)", o});
  }
  {
    ApmmOptions o;
    o.fragment_caching = false;
    toggles.push_back({"- fragment caching (SHMEM spills)", o});
  }
  {
    ApmmOptions o;
    o.semantic_aware = false;
    toggles.push_back({"- semantic-aware combination", o});
  }
  {
    ApmmOptions o;
    o.autotune = false;
    o.tile.bm = 32;
    o.tile.bn = 32;
    toggles.push_back({"- tile heuristic (fixed 32x32 tiles)", o});
  }
  for (const Toggle& t : toggles) {
    const double us = gemm_us(dev, t.opts, m, n, k, p, q);
    print_row({t.label, strf("%.2fus", us), strf("%.2fx", us / t_base)}, 26);
  }

  // Tail: TLP threshold sensitivity of the §4.3.2 tile heuristic (T knob).
  print_header("Tile-heuristic TLP threshold sensitivity (same layer)");
  print_row({"threshold T", "tile", "latency"}, 18);
  print_rule(3, 18);
  for (double threshold : {8.0, 32.0, 64.0, 256.0, 1024.0}) {
    ApmmOptions o;
    o.tlp_threshold = threshold;
    const TuneResult r = autotune_tile(m, n, k, p, q, dev, threshold);
    print_row({strf("%.0f", threshold),
               strf("%dx%d", r.tile.bm, r.tile.bn),
               strf("%.2fus", gemm_us(dev, o, m, n, k, p, q))},
              18);
  }
  return 0;
}
