// Kernel launch records consumed by the cost model.
//
// Every simulated kernel (APNN-TC or baseline) produces a KernelProfile:
// its grid shape, resource usage, tile compute intensity, and the traffic
// counters gathered while the host emulation executed the same loop
// structure the device kernel would.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/tcsim/traffic.hpp"

namespace apnn::tcsim {

struct KernelProfile {
  std::string name;    ///< e.g. "apmm-w1a2"
  std::string family;  ///< efficiency family ("apnn", "cutlass-gemm", ...)

  std::int64_t grid_blocks = 0;
  int threads_per_block = 256;  ///< paper uses 8 warps per block
  std::int64_t shmem_per_block = 0;

  /// Compute intensity of the block tile, CI = 2*bm*bn/(bm+bn) (Eq. 4);
  /// 0 means "not tile-structured" (elementwise kernels).
  double ci = 0;

  /// Whole bit-planes of the stage's operands examined and elided from the
  /// combine (0 when not measured: profile-only runs).
  std::int64_t sparsity_planes = 0;
  std::int64_t sparsity_planes_elided = 0;
  /// k-strips taken by a skip-zero kernel vs the dense sweep. The host
  /// kernel has no skip path and does not fill them; bench/e2e's replay
  /// still reports their ratio.
  std::int64_t sparsity_sparse_strips = 0;
  std::int64_t sparsity_dense_strips = 0;

  TrafficCounters counters;
};

/// A sequence of kernel launches (e.g. one NN layer or one whole model).
struct SequenceProfile {
  std::vector<KernelProfile> kernels;

  void add(KernelProfile k) { kernels.push_back(std::move(k)); }
  void add(const SequenceProfile& s) {
    kernels.insert(kernels.end(), s.kernels.begin(), s.kernels.end());
  }

  TrafficCounters total_counters() const {
    TrafficCounters t;
    for (const auto& k : kernels) t += k.counters;
    return t;
  }
};

}  // namespace apnn::tcsim
