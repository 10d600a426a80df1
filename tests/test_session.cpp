// InferenceSession gates:
//   * session forward bit-exact vs forward_reference (residual dataflow,
//     standalone-quantize path, multi-bit, binary, varying batch);
//   * steady-state memory discipline: the slab footprint settles at its
//     high-water mark and a warm run() performs zero heap allocations at
//     pool widths 1, 2 and 4.
// The serving front-end (replicated InferenceServer) is gated separately in
// tests/test_server.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <vector>

#include "src/nn/apnn_network.hpp"
#include "src/nn/model.hpp"
#include "src/nn/session.hpp"
#include "src/parallel/thread_pool.hpp"
#include "src/tcsim/device_spec.hpp"

// --- global allocation counter ----------------------------------------------
// Counts every operator-new in the binary, worker threads included. The
// steady-state tests pin that a run() allocates nothing once the slab, the
// scratch arenas and the per-thread kernel buffers have reached their
// high-water marks. Overriding new/delete is per-binary, so this affects
// only test_session.
namespace {
std::atomic<std::int64_t> g_allocs{0};
}

// noinline: if GCC inlines both sides of the pair it "sees" a new
// expression freed by free() and raises -Wmismatched-new-delete (a false
// positive for a counting allocator that is malloc/free on both sides).
#if defined(__GNUC__)
#define APNN_TEST_NOINLINE __attribute__((noinline))
#else
#define APNN_TEST_NOINLINE
#endif

APNN_TEST_NOINLINE void* operator new(std::size_t sz) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(sz ? sz : 1)) return p;
  throw std::bad_alloc();
}
APNN_TEST_NOINLINE void* operator new[](std::size_t sz) {
  return ::operator new(sz);
}
APNN_TEST_NOINLINE void operator delete(void* p) noexcept { std::free(p); }
APNN_TEST_NOINLINE void operator delete[](void* p) noexcept { std::free(p); }
APNN_TEST_NOINLINE void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
APNN_TEST_NOINLINE void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace apnn::nn {
namespace {

const tcsim::DeviceSpec& dev() { return tcsim::rtx3090(); }

/// Pool widths the allocation tests run at, each through
/// SessionOptions::pool, so a narrow host cannot hide a multi-worker
/// regression.
constexpr unsigned kPoolWidths[] = {1, 2, 4};

std::int64_t allocs_of_run(InferenceSession& session,
                           const Tensor<std::int32_t>& in,
                           Tensor<std::int32_t>* logits) {
  const std::int64_t before = g_allocs.load(std::memory_order_relaxed);
  session.run(in, logits);
  return g_allocs.load(std::memory_order_relaxed) - before;
}

Tensor<std::int32_t> random_input(std::int64_t b, const ModelSpec& m,
                                  std::uint64_t seed) {
  Rng rng(seed);
  Tensor<std::int32_t> in({b, m.input.h, m.input.w, m.input.c});
  in.randomize(rng, 0, 255);
  return in;
}

// --- bit-exactness ----------------------------------------------------------

TEST(Session, MatchesReferenceMiniResNet) {
  // Residual dataflow: packed + dense residual adds, standalone ReLU and
  // quantize after the adds, final average pool, linear head.
  const ModelSpec m = mini_resnet(3, 8, 5);
  ApnnNetwork net = ApnnNetwork::random(m, 1, 2, 301);
  const auto input = random_input(2, m, 302);
  net.calibrate(input);
  InferenceSession session(net, dev());
  const auto ref = net.forward_reference(input);
  EXPECT_EQ(session.run(input), ref);
  EXPECT_EQ(session.run(input), ref);  // slab reuse changes nothing
}

TEST(Session, MatchesReferenceMiniResNetMultiBit) {
  const ModelSpec m = mini_resnet(3, 8, 4);
  ApnnNetwork net = ApnnNetwork::random(m, 2, 3, 303);
  const auto input = random_input(2, m, 304);
  net.calibrate(input);
  InferenceSession session(net, dev());
  EXPECT_EQ(session.run(input), net.forward_reference(input));
}

TEST(Session, MatchesReferenceVggLite) {
  // Conv stack with fully fused tails, then the two-linear head: fc1's
  // quantized feature planes feed fc2 without any dense round trip.
  const ModelSpec m = vgg_lite(16, 6);
  ApnnNetwork net = ApnnNetwork::random(m, 1, 2, 305);
  const auto input = random_input(2, m, 306);
  net.calibrate(input);
  InferenceSession session(net, dev());
  EXPECT_EQ(session.run(input), net.forward_reference(input));
}

TEST(Session, MatchesReferenceBinaryVggLite) {
  // ±1 activations: the linear stage consumes packed codes through the
  // word-granular gather with kSignedPM1 encoding.
  const ModelSpec m = vgg_lite(16, 5);
  ApnnNetwork net = ApnnNetwork::random_binary(m, 307);
  const auto input = random_input(1, m, 308);
  net.calibrate(input);
  InferenceSession session(net, dev());
  EXPECT_EQ(session.run(input), net.forward_reference(input));
}

TEST(Session, VaryingBatchReusesPlan) {
  const ModelSpec m = mini_resnet(3, 8, 5);
  ApnnNetwork net = ApnnNetwork::random(m, 1, 2, 309);
  net.calibrate(random_input(2, m, 310));
  InferenceSession session(net, dev());
  for (std::int64_t b : {1, 3, 2, 3}) {
    const auto input = random_input(b, m, 311 + static_cast<unsigned>(b));
    EXPECT_EQ(session.run(input), net.forward_reference(input))
        << "batch " << b;
  }
}

TEST(Session, CollectsProfilesLikeForward) {
  const ModelSpec m = mini_cnn(4, 8, 5);
  ApnnNetwork net = ApnnNetwork::random(m, 1, 2, 312);
  const auto input = random_input(1, m, 313);
  net.calibrate(input);
  InferenceSession session(net, dev());
  tcsim::SequenceProfile prof;
  Tensor<std::int32_t> logits;
  session.run(input, &logits, &prof);
  // decompose + 2 convs + 1 linear at least, with real MMA counters.
  EXPECT_GE(prof.kernels.size(), 4u);
  EXPECT_GT(prof.total_counters().bmma_b1, 0);
}

TEST(Session, LivenessSharesSlots) {
  const ModelSpec m = mini_resnet(3, 8, 5);
  ApnnNetwork net = ApnnNetwork::random(m, 1, 2, 314);
  net.calibrate(random_input(1, m, 315));
  InferenceSession session(net, dev());
  EXPECT_GT(session.step_count(), 0u);
  // Liveness-based reuse keeps the slab far smaller than one-slot-per-step.
  EXPECT_LT(session.slot_count(), session.step_count());
}

TEST(Session, RequiresCalibration) {
  const ModelSpec m = mini_cnn(4, 8, 5);
  ApnnNetwork net = ApnnNetwork::random(m, 1, 2, 316);
  EXPECT_THROW(InferenceSession(net, dev()), apnn::Error);
}

// --- standalone BatchNorm is a hard error -----------------------------------

TEST(Session, StandaloneBatchNormHardErrors) {
  // A BN separated from its conv (here by the quantize: tails fuse at most
  // BN -> ReLU -> pool -> quantize, quantize last) has no parameters to
  // apply; it must fail loudly instead of silently acting as identity.
  ModelSpec m;
  m.name = "bn-after-quant";
  m.input = {4, 8, 8};
  LayerSpec conv;
  conv.kind = LayerKind::kConv;
  conv.name = "conv";
  conv.conv = {8, 3, 1, 1};
  m.layers.push_back(conv);
  LayerSpec q;
  q.kind = LayerKind::kQuantize;
  q.name = "conv.quant";
  m.layers.push_back(q);
  LayerSpec bn;
  bn.kind = LayerKind::kBatchNorm;
  bn.name = "stray.bn";
  m.layers.push_back(bn);
  LayerSpec fc;
  fc.kind = LayerKind::kLinear;
  fc.name = "fc";
  fc.out_features = 3;
  m.layers.push_back(fc);

  ApnnNetwork net = ApnnNetwork::random(m, 1, 2, 317);
  const auto input = random_input(1, m, 318);
  // The reference walker (calibration) refuses the spec outright.
  EXPECT_THROW(net.calibrate(input), apnn::Error);
}

// --- steady-state memory discipline -----------------------------------------

TEST(Session, SteadyStateFootprintAndAllocationsStable) {
  const ModelSpec m = mini_resnet(3, 8, 5);
  ApnnNetwork net = ApnnNetwork::random(m, 1, 2, 320);
  const auto input = random_input(4, m, 321);
  net.calibrate(input);
  for (const unsigned width : kPoolWidths) {
    ThreadPool pool(width);
    SessionOptions so;
    so.pool = &pool;
    InferenceSession session(net, dev(), so);
    Tensor<std::int32_t> logits;

    // Warm up: slab buffers, scratch arenas, and worker threads reach their
    // high-water marks.
    for (int i = 0; i < 5; ++i) session.run(input, &logits);

    const std::size_t settled_capacity = session.slab().capacity_bytes();
    const std::size_t settled_high_water = session.slab().high_water_bytes();
    EXPECT_GT(settled_capacity, 0u);
    EXPECT_EQ(settled_capacity, settled_high_water);

    // The slab stopped growing: the pass runs entirely out of recycled
    // slots (every kernel writes into caller-provided storage), and a run
    // allocates nothing — no buffer churn, no per-loop bookkeeping.
    for (int i = 0; i < 2; ++i) {
      EXPECT_EQ(allocs_of_run(session, input, &logits), 0)
          << "width " << width;
    }
    EXPECT_EQ(session.slab().capacity_bytes(), settled_capacity);
    EXPECT_EQ(session.slab().high_water_bytes(), settled_high_water);
  }
}

TEST(Session, SlabGrowsOnlyForLargerBatches) {
  const ModelSpec m = mini_resnet(3, 8, 5);
  ApnnNetwork net = ApnnNetwork::random(m, 1, 2, 322);
  net.calibrate(random_input(1, m, 323));
  InferenceSession session(net, dev());
  Tensor<std::int32_t> logits;

  session.run(random_input(4, m, 324), &logits);
  session.run(random_input(4, m, 325), &logits);
  const std::size_t cap4 = session.slab().capacity_bytes();
  // Smaller batches live inside the batch-4 footprint.
  session.run(random_input(2, m, 326), &logits);
  session.run(random_input(1, m, 327), &logits);
  EXPECT_EQ(session.slab().capacity_bytes(), cap4);
  // A larger batch may grow it — once.
  session.run(random_input(6, m, 328), &logits);
  const std::size_t cap6 = session.slab().capacity_bytes();
  EXPECT_GE(cap6, cap4);
  session.run(random_input(6, m, 329), &logits);
  EXPECT_EQ(session.slab().capacity_bytes(), cap6);
}

TEST(Session, AlternatingSeenBatchesStayAllocationFlat) {
  // The serving pattern: micro-batch sizes vary run to run. Batch-resolved
  // state (geometries, tiles) is cached per size, so alternating between
  // already-seen sizes must not re-resolve tiles or grow anything.
  const ModelSpec m = mini_resnet(3, 8, 5);
  ApnnNetwork net = ApnnNetwork::random(m, 1, 2, 350);
  net.calibrate(random_input(1, m, 351));
  const auto in4 = random_input(4, m, 352);
  const auto in2 = random_input(2, m, 353);
  for (const unsigned width : kPoolWidths) {
    ThreadPool pool(width);
    SessionOptions so;
    so.pool = &pool;
    InferenceSession session(net, dev(), so);
    Tensor<std::int32_t> logits;
    for (int i = 0; i < 3; ++i) {  // warm both sizes
      session.run(in4, &logits);
      session.run(in2, &logits);
    }
    const std::size_t cap = session.slab().capacity_bytes();
    for (int i = 0; i < 2; ++i) {  // alternation allocates nothing
      EXPECT_EQ(allocs_of_run(session, in4, &logits), 0) << "width " << width;
      EXPECT_EQ(allocs_of_run(session, in2, &logits), 0) << "width " << width;
    }
    EXPECT_EQ(session.slab().capacity_bytes(), cap);
  }
}


// --- compiled attention: dynamic-shape plan families ------------------------

Tensor<std::int32_t> random_tokens(std::int64_t b, std::int64_t seq,
                                   std::int64_t d_model, std::uint64_t seed) {
  Rng rng(seed);
  Tensor<std::int32_t> in({b, seq, 1, d_model});
  in.randomize(rng, 0, 255);
  return in;
}

TEST(Session, AttentionMatchesReferenceEveryBucketAndScheme) {
  // The compiled attention plan family must be bit-exact against the dense
  // integer reference for every sequence bucket under every w/a scheme the
  // bit-GEMM lowering distinguishes (±1 weights, multi-bit weights, wider
  // activations).
  const ModelSpec m = tiny_transformer();
  const struct { int w, a; } schemes[] = {{1, 2}, {2, 2}, {1, 3}};
  for (const auto& sc : schemes) {
    ApnnNetwork net = ApnnNetwork::random(m, sc.w, sc.a, 401);
    net.calibrate(random_tokens(2, m.input.h, m.input.c, 402));
    InferenceSession session(net, dev());
    EXPECT_EQ(session.plan_count(), m.seq_buckets.size());
    for (const std::int64_t seq : m.seq_buckets) {
      const auto input = random_tokens(1, seq, m.input.c,
                                       403 + static_cast<unsigned>(seq));
      EXPECT_EQ(session.run(input), net.forward_reference(input))
          << "w" << sc.w << "a" << sc.a << " seq " << seq;
    }
    // Batched run through one bucket as well.
    const auto batched = random_tokens(3, m.seq_buckets.front(), m.input.c,
                                       404);
    EXPECT_EQ(session.run(batched), net.forward_reference(batched))
        << "w" << sc.w << "a" << sc.a << " batched";
  }
}

TEST(Session, AttentionPadsOffBucketLengthsUp) {
  // A request whose token count is not itself a bucket runs on the smallest
  // covering bucket with a zero-padded tail — bit-exact vs the reference on
  // the same padded input.
  const ModelSpec m = tiny_transformer();
  ApnnNetwork net = ApnnNetwork::random(m, 1, 2, 405);
  net.calibrate(random_tokens(2, m.input.h, m.input.c, 406));
  InferenceSession session(net, dev());
  for (const std::int64_t seq : {std::int64_t{1}, std::int64_t{20},
                                 std::int64_t{100}, std::int64_t{300}}) {
    const auto input = random_tokens(1, seq, m.input.c,
                                     407 + static_cast<unsigned>(seq));
    std::int64_t bucket = m.seq_buckets.back();
    for (const std::int64_t b : m.seq_buckets) {
      if (b >= seq) {
        bucket = b;
        break;
      }
    }
    Tensor<std::int32_t> padded({1, bucket, 1, m.input.c});
    padded.fill(0);
    for (std::int64_t i = 0; i < input.numel(); ++i) padded[i] = input[i];
    EXPECT_EQ(session.run(input), net.forward_reference(padded))
        << "seq " << seq << " bucket " << bucket;
  }
}

TEST(Session, AttentionSteadyStateAcrossBucketsStaysFlat) {
  // One plan family serving mixed sequence lengths: after a warm pass over
  // every bucket, further traffic (any bucket order, padded lengths
  // included) must not grow the slab and must allocate nothing — serving
  // mixed lengths allocates nothing in steady state.
  const ModelSpec m = tiny_transformer();
  ApnnNetwork net = ApnnNetwork::random(m, 1, 2, 410);
  net.calibrate(random_tokens(2, m.input.h, m.input.c, 411));
  std::vector<Tensor<std::int32_t>> inputs;
  for (const std::int64_t seq : m.seq_buckets) {
    inputs.push_back(random_tokens(1, seq, m.input.c,
                                   412 + static_cast<unsigned>(seq)));
  }
  inputs.push_back(random_tokens(1, 50, m.input.c, 413));  // pads to 64
  for (const unsigned width : kPoolWidths) {
    ThreadPool pool(width);
    SessionOptions so;
    so.pool = &pool;
    InferenceSession session(net, dev(), so);
    Tensor<std::int32_t> logits;
    for (int warm = 0; warm < 3; ++warm) {
      for (const auto& in : inputs) session.run(in, &logits);
    }
    const std::size_t cap = session.slab().capacity_bytes();
    EXPECT_EQ(cap, session.slab().high_water_bytes());
    for (int i = 0; i < 2; ++i) {
      for (const auto& in : inputs) {
        EXPECT_EQ(allocs_of_run(session, in, &logits), 0)
            << "width " << width << " seq " << in.shape()[1];
      }
    }
    EXPECT_EQ(session.slab().capacity_bytes(), cap);
    EXPECT_EQ(session.slab().high_water_bytes(), cap);
  }
}

TEST(Session, BucketedValidateSampleRejectsBadShapes) {
  const ModelSpec m = tiny_transformer();
  ApnnNetwork net = ApnnNetwork::random(m, 1, 2, 420);
  net.calibrate(random_tokens(1, m.input.h, m.input.c, 421));
  InferenceSession session(net, dev());
  // Longer than the largest bucket: no plan can serve it.
  EXPECT_THROW(session.run(random_tokens(
                   1, m.seq_buckets.back() + 1, m.input.c, 422)),
               Error);
  // Wrong feature width.
  EXPECT_THROW(session.run(Tensor<std::int32_t>({1, 32, 1, m.input.c + 1})),
               Error);
}

}  // namespace
}  // namespace apnn::nn

