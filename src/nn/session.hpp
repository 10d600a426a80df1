// Compiled network execution: InferenceSession (§5 network-level designs as
// a compile-once / run-many pipeline).
//
// ApnnNetwork::forward() used to interpret the layer list on every call:
// rebuild the stage map, keep every layer's activation alive for the whole
// pass, run residual adds / standalone ReLU / pool / quantize as serial
// dense scalar loops, and round-trip packed planes through dense codes on
// the linear path. An InferenceSession compiles the network once into an
// ExecutionPlan:
//
//  * resolved stage/tail structure — one step list, no per-call spec walk;
//  * buffer-lifetime analysis — every intermediate value gets a slot in a
//    reusable parallel::ActivationSlab (liveness-based slot reuse), and the
//    apconv/apmm kernels write straight into the slab (y_out / packed_out),
//    so steady-state forward passes perform zero heap allocations;
//  * pre-resolved glue ops — residual add, standalone ReLU / pool /
//    quantize, packing and linear-operand assembly run as word-granular
//    blocked kernels farmed over the thread pool, operating directly on the
//    packed/dense slab buffers (no to_dense copy churn, no packed -> dense
//    recompose round trip on the linear path).
//
// The plan is batch-agnostic: per-batch conv geometries and tiles are
// resolved lazily and cached, so one session serves any request size (the
// dynamic-batching nn::InferenceServer relies on this). Results are
// bit-exact with ApnnNetwork::forward_reference().
//
// Dynamic sequence lengths (ModelSpec::seq_buckets) compile a plan *family*:
// one plan per bucket, sharing the network's weights and a single
// session-owned slab sized to the largest plan's slot count. run() picks the
// smallest bucket that fits the request's token count and zero-pads up to
// it, so serving mixed-length attention traffic never recompiles.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/nn/apnn_network.hpp"
#include "src/parallel/slab.hpp"
#include "src/tcsim/device_spec.hpp"
#include "src/tcsim/trace.hpp"

namespace apnn::nn {

/// Compile-time behavior of an InferenceSession.
struct SessionOptions {
  /// Pool every kernel and glue loop of this session runs on; nullptr =
  /// ThreadPool::global(). Non-owning — must outlive the session. The
  /// replicated InferenceServer gives each replica's session a private pool
  /// slice so N replicas never oversubscribe the global pool N×.
  ThreadPool* pool = nullptr;
};

class InferenceSession {
 public:
  /// Compiles `net` (must be calibrated) for `dev`. The network must
  /// outlive the session; recompile after re-calibrating.
  InferenceSession(const ApnnNetwork& net, const tcsim::DeviceSpec& dev,
                   const SessionOptions& opts = {});
  ~InferenceSession();

  InferenceSession(const InferenceSession&) = delete;
  InferenceSession& operator=(const InferenceSession&) = delete;

  /// Runs one forward pass. `input_u8` is NHWC uint8 codes {B, H, W, C};
  /// logits land in `*logits` ({B, classes}), which is reshaped in place so
  /// a reused tensor costs no allocation. Appends kernel launch records to
  /// `prof` when given (the steady-state path skips record-keeping
  /// entirely when it is null). Not thread-safe: one run at a time per
  /// session. Distinct sessions over the same (const) network may run
  /// concurrently — they share only their execution pool (the global pool,
  /// or per-session slices via SessionOptions::pool), which tolerates
  /// concurrent callers; the replicated InferenceServer relies on this.
  void run(const Tensor<std::int32_t>& input_u8, Tensor<std::int32_t>* logits,
           tcsim::SequenceProfile* prof = nullptr);

  /// Convenience overload returning the logits by value.
  Tensor<std::int32_t> run(const Tensor<std::int32_t>& input_u8,
                           tcsim::SequenceProfile* prof = nullptr);

  const ApnnNetwork& network() const { return net_; }

  /// Admission check for serving front-ends: `frame` is one sample
  /// {H, W, C} or a frame of N >= 1 samples {N, H, W, C}, matching `shape`,
  /// with every value a valid 8-bit input code in [0, 255]. With
  /// `seq_buckets` non-empty (sorted ascending, as ModelSpec carries them)
  /// H is a token count and may be any value in [1, seq_buckets.back()];
  /// W and C must still match. Returns the sample count. Throws apnn::Error
  /// naming the offending dimension or value. Validating at admission keeps
  /// one bad sample from poisoning the micro-batch it would have joined: the
  /// error surfaces in the offending caller's infer(), never inside a
  /// shared batched run.
  static std::int64_t validate_frame(
      const ActShape& shape, const std::vector<std::int64_t>& seq_buckets,
      const Tensor<std::int32_t>& frame);

  /// Opaque compiled plan (defined in session.cpp).
  struct Plan;

  /// The session-owned activation slab (footprint inspection).
  const parallel::ActivationSlab& slab() const;

  /// Compiled plan shape of the *default* plan (the bucket serving the
  /// spec's calibration length; the only plan for fixed-shape models):
  /// executable steps and distinct slab slots. The slot count is below the
  /// value count whenever liveness found reuse.
  std::size_t step_count() const;
  std::size_t slot_count() const;

  /// Number of compiled plans (1 for fixed-shape models, one per sequence
  /// bucket otherwise).
  std::size_t plan_count() const;

 private:
  /// The plan serving `seq_len` tokens: smallest bucket >= seq_len. Throws
  /// when seq_len exceeds the largest bucket.
  Plan& plan_for(std::int64_t seq_len) const;
  Plan& default_plan() const;

  /// Executes one compiled plan; `input` rows must match the plan's bucket.
  void run_plan(Plan& plan, const Tensor<std::int32_t>& input,
                Tensor<std::int32_t>* logits, tcsim::SequenceProfile* prof);

  const ApnnNetwork& net_;
  tcsim::DeviceSpec dev_;
  SessionOptions opts_;
  /// Plan family, ascending by bucket (a single entry for fixed shapes).
  std::vector<std::unique_ptr<Plan>> plans_;
  /// One slab shared by every plan (slots sized to the largest plan).
  parallel::ActivationSlab slab_;
  /// Reusable zero-padded staging input for sub-bucket requests.
  Tensor<std::int32_t> padded_;
};

}  // namespace apnn::nn
