// Serving demo: a replicated session pool with dynamic micro-batching.
//
// Spins up an nn::InferenceServer on a small VGG-Lite APNN and fires
// concurrent single-sample requests at it through the shared closed-loop
// load driver (bench/serve_load.hpp — the same driver `apnn_cli serve`,
// the serving bench, and the TCP gateway bench use). Requests pass a
// bounded admission queue and are drained by two dispatcher replicas, each
// owning a compiled InferenceSession (its own activation slab and
// gather/scatter buffers — the replicas share only the const weights and
// the admission queue). Each replica forms micro-batches inside a short
// batch window, runs its session once per batch, and scatters the logits
// back; the demo prints the batching, per-replica, and latency statistics,
// and the driver verifies every response against a sequential batch-1
// session run — serving is bit-exact no matter which replica served which
// batch mix.
//
// Multi-model serving over TCP lives in tools/apnn_serve
// (docs/OPERATIONS.md).
#include <cstdio>
#include <vector>

#include "bench/serve_load.hpp"
#include "src/common/rng.hpp"
#include "src/nn/server.hpp"
#include "src/nn/session.hpp"
#include "src/tcsim/device_spec.hpp"

int main() {
  using namespace apnn;
  const nn::ModelSpec m = nn::vgg_lite(16, 10);
  nn::ApnnNetwork net = nn::ApnnNetwork::random(m, 1, 2, 7);
  Rng rng(8);
  Tensor<std::int32_t> calib({2, 16, 16, 3});
  calib.randomize(rng, 0, 255);
  net.calibrate(calib);
  const auto& dev = tcsim::rtx3090();

  constexpr int kClients = 8;
  constexpr int kRequests = 32;
  std::vector<Tensor<std::int32_t>> samples;
  for (int i = 0; i < kRequests; ++i) {
    Tensor<std::int32_t> s({1, 16, 16, 3});
    s.randomize(rng, 0, 255);
    samples.push_back(std::move(s));
  }

  // Golden answers from sequential batch-1 session runs.
  nn::InferenceSession session(net, dev);
  std::vector<Tensor<std::int32_t>> expected;
  for (const auto& s : samples) expected.push_back(session.run(s));

  nn::ServerOptions opts;
  opts.replicas = 2;  // the default derives from hardware width
  opts.max_batch = 8;
  opts.batch_window = std::chrono::microseconds(2000);
  nn::InferenceServer server(net, dev, opts);

  const bench::LoadResult load =
      bench::serve_load(server, samples, expected, kClients, kRequests);

  const auto& stats = load.stats;
  std::printf("served %lld requests in %.1f ms (%.1f req/s) on %d replicas\n",
              static_cast<long long>(stats.requests), load.wall_ms,
              1000.0 * static_cast<double>(stats.requests) / load.wall_ms,
              server.replicas());
  std::printf("  batches: %lld (largest micro-batch %lld, peak queue %lld)\n",
              static_cast<long long>(stats.batches),
              static_cast<long long>(stats.max_batch),
              static_cast<long long>(stats.peak_queue_depth));
  std::printf("  per replica:");
  for (std::size_t r = 0; r < stats.replica_batches.size(); ++r) {
    std::printf(" #%zu=%lld batches/%lld requests", r,
                static_cast<long long>(stats.replica_batches[r]),
                static_cast<long long>(stats.replica_requests[r]));
  }
  std::printf("\n");
  std::printf("  latency: mean %.2f ms, max %.2f ms\n",
              stats.requests > 0 ? stats.total_latency_ms /
                                       static_cast<double>(stats.requests)
                                 : 0.0,
              stats.max_latency_ms);
  std::printf("  responses vs sequential session runs: %s\n",
              load.mismatches == 0 && load.failed == 0 ? "bit-exact"
                                                       : "MISMATCH");
  return load.mismatches == 0 && load.failed == 0 ? 0 : 1;
}
