// Arbitrary-Precision Matrix Multiplication (APMM, paper §4.1).
//
// Computes Y[m][n] = sum_k W[m][k] * X[n][k] for a p-bit weight operand
// (M x K) and a q-bit feature operand (N x K) by emulating the product with
// 1-bit tensor-core tiles. The production kernel implements the paper's
// layer-level designs:
//
//  * Batch-based double caching (§4.1a): the p weight planes and q feature
//    planes are *virtually* batched into one pM x K by qN x K BMMA — one
//    kernel launch, one tiling — with collaborative shared-memory tile
//    loads and register-fragment output accumulation.
//  * Memory-efficient bit combination (§4.1b): virtual rows/columns are
//    plane-interleaved so every block owns all p*q partials of its output
//    elements and reduces them in shared memory (semantic-aware workload
//    allocation); quantized outputs are repacked to bit planes in registers
//    via ballots before the single global store.
//  * Data-adaptive operator selection (§3.2) and the tuned tiling of §4.3.
//
// Setting the knobs off reproduces the naive strategies the paper compares
// against (independent BMMA kernels + a separate combination kernel).
#pragma once

#include <cstdint>

#include "src/core/ap_bit.hpp"
#include "src/core/fusion.hpp"
#include "src/core/microkernel.hpp"
#include "src/core/perf_model.hpp"
#include "src/tcsim/cost_model.hpp"
#include "src/tcsim/device_spec.hpp"
#include "src/tcsim/kernel.hpp"

namespace apnn {
class ThreadPool;
}  // namespace apnn

namespace apnn::core {

/// Full emulation computes results and counters; profile-only walks the same
/// launch structure but skips the math (used for large latency sweeps — the
/// counters are identical by construction).
enum class ExecMode { kFull, kProfileOnly };

struct ApmmOptions {
  /// Tile selection: when autotune is true (default) the §4.3.2 heuristic
  /// picks bm/bn; otherwise `tile` is used as given.
  bool autotune = true;
  TileConfig tile;
  double tlp_threshold = 64.0;

  /// §4.1a batch strategy: one virtually batched BMMA vs p*q independent
  /// BMMA launches (the "existing BMMA kernels" baseline).
  bool batch_planes = true;

  /// §4.1a double caching: collaborative SHMEM tile loads (vs each warp
  /// loading its own tiles from global memory).
  bool double_caching = true;

  /// §4.1a fragment caching: output partials stay in register fragments
  /// across the K loop (vs spilling to shared memory every k-tile).
  bool fragment_caching = true;

  /// §4.1b semantic-aware workload allocation: in-block (SHMEM) reduction of
  /// plane partials vs writing p*q partial matrices to global memory and
  /// combining in a second kernel.
  bool semantic_aware = true;

  ExecMode mode = ExecMode::kFull;

  /// Caller-provided output storage (e.g. an InferenceSession slab slot):
  /// when set, the corresponding result is written here — the buffer is
  /// reshaped in place, reusing its capacity, so steady-state reuse performs
  /// zero heap allocations — and the matching ApmmResult field stays empty.
  /// y_out receives the M x N int32 output (identity/non-quantizing
  /// epilogue); packed_out receives the N x M planes of a quantizing one.
  Tensor<std::int32_t>* y_out = nullptr;
  bitops::BitPlanes* packed_out = nullptr;

  /// Row-softmax epilogue only: output row m lands in plane row
  /// packed_row0 + m, bit n (row-major, not transposed). With packed_out
  /// set the caller shapes it (at least packed_row0 + M rows, N columns,
  /// the code width) and each call overwrites its rows whole, padding
  /// words included — per-sample calls fill one batch-wide plane set with
  /// no zero fill and no atomics.
  std::int64_t packed_row0 = 0;

  /// Build launch records in the result (true) or leave the profile empty —
  /// the steady-state serving path skips the per-call record churn.
  bool collect_profile = true;

  /// Pool the block loops run on; nullptr = ThreadPool::global(). Non-owning
  /// — must outlive the call. InferenceServer replicas pass their private
  /// slice so N replicas don't oversubscribe the global pool N×.
  ThreadPool* pool = nullptr;

  /// Plane-elision counters filled during the run (observability only;
  /// thread-safe, non-owning). nullptr = don't collect.
  microkernel::SparsityStats* sparsity_stats = nullptr;
};

struct ApmmResult {
  /// Final 32-bit output, M x N. Empty in profile-only mode.
  Tensor<std::int32_t> y;

  /// When the epilogue quantizes: the packed activation planes, transposed
  /// to N x M so they feed the next layer directly (encoding kUnsigned01);
  /// M x N row-major codes for the row softmax. Empty otherwise.
  bitops::BitPlanes packed;

  /// Launch records (1 kernel for the fused path; p*q + 1 for the naive
  /// path) for the cost model.
  tcsim::SequenceProfile profile;

  /// The tile the kernel actually ran with (after heuristic selection).
  TileConfig tile;
};

/// Runs APMM. `w` is M x K (p-bit), `x` is N x K (q-bit); `epi` is the fused
/// epilogue (pass {} for the raw 32-bit GEMM). A row-softmax epilogue needs
/// a row-complete tile: the autotuned pick is row_complete_tile, and a
/// fixed tile must have bn >= q * N.
ApmmResult apmm(const ApOperand& w, const ApOperand& x,
                const tcsim::DeviceSpec& dev, const ApmmOptions& opts = {},
                const Epilogue& epi = {});

/// Launch records only, from dimensions (no operand data needed) — what the
/// NN profiling engine uses for large-model latency sweeps. Identical to the
/// profile apmm() returns for the same problem.
tcsim::SequenceProfile apmm_profile(std::int64_t m, std::int64_t n,
                                    std::int64_t k, int p, int q,
                                    const EncodingConfig& enc,
                                    const tcsim::DeviceSpec& dev,
                                    const ApmmOptions& opts = {},
                                    const Epilogue& epi = {});

/// Profile of the standalone bit-decomposition pass that converts a dense
/// `elem_bytes`-byte activation matrix (rows x cols) into `bits` planes —
/// the front of the pipeline when inputs are not already packed (Fig. 11).
tcsim::KernelProfile decompose_profile(std::int64_t rows, std::int64_t cols,
                                       int bits, double elem_bytes);

}  // namespace apnn::core
