// Gateway regression gate: two co-resident models served over loopback TCP
// through tools/apnn_serve's stack (ModelRegistry + Gateway + the APGW
// binary protocol), driven by the shared closed-loop load driver with one
// wire::Client connection per client thread.
//
// Three properties are gated (hard process failure, before any JSON is
// written for CI to diff):
//
//   * serving through the gateway is exact — every response that crossed
//     the wire, for either model, under whatever batch mix the concurrent
//     traffic produced, is bit-identical to a direct sequential batch-1
//     session run of the same network;
//   * co-residency is fair — both models keep serving while loaded
//     together (each model's load completes with zero typed failures);
//   * hot reload drops nothing it shouldn't — while model A is reloaded
//     mid-traffic, the closed-loop load on model B completes with zero
//     failures and zero mismatches, and A answers with a bumped generation
//     afterwards.
//
// The wall/latency figures are queueing metrics of an oversubscribed
// loopback run, so tools/check_bench.py only presence-checks them (info),
// unlike the compute benches' ceiling-gated best-of-reps times; exactness
// and the zero-drop drill are the hard gates.
//
// Usage: gateway_throughput [out.json] [requests_per_model] [clients_per_model]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/serve_load.hpp"
#include "src/common/rng.hpp"
#include "src/nn/apnn_network.hpp"
#include "src/nn/gateway.hpp"
#include "src/nn/registry.hpp"
#include "src/nn/serialize.hpp"
#include "src/nn/session.hpp"
#include "src/tcsim/device_spec.hpp"

namespace {

double quantile_ms(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t i = static_cast<std::size_t>(
      q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(i, v.size() - 1)];
}

}  // namespace

int main(int argc, char** argv) {
  using namespace apnn;
  const std::string out_path =
      argc > 1 ? argv[1] : "BENCH_gateway_throughput.json";
  const int requests = argc > 2 ? std::atoi(argv[2]) : 64;
  const int clients = argc > 3 ? std::atoi(argv[3]) : 4;
  if (requests < 1 || clients < 1) {
    std::fprintf(stderr, "usage: gateway_throughput [out.json] "
                         "[requests_per_model>=1] [clients_per_model>=1]\n");
    return 2;
  }
  const auto& dev = tcsim::rtx3090();

  // Two distinct zoo architectures, serialized the way production models
  // arrive (apnn_cli export writes the same format).
  struct Model {
    const char* id;
    nn::ModelSpec spec;
    std::string path;
    std::vector<Tensor<std::int32_t>> samples;
    std::vector<Tensor<std::int32_t>> golden;
  };
  Model models[2];
  models[0].id = "mini_resnet";
  models[0].spec = nn::mini_resnet(4, 16, 10);
  models[0].path = "BENCH_gateway_mini_resnet.apnn";
  models[1].id = "vgg_lite";
  models[1].spec = nn::vgg_lite(16, 10);
  models[1].path = "BENCH_gateway_vgg_lite.apnn";

  Rng rng(43);
  constexpr int kSamples = 16;
  for (int mi = 0; mi < 2; ++mi) {
    Model& m = models[mi];
    nn::ApnnNetwork net =
        nn::ApnnNetwork::random(m.spec, 1, 2, 42 + static_cast<unsigned>(mi));
    Tensor<std::int32_t> calib(
        {4, m.spec.input.h, m.spec.input.w, m.spec.input.c});
    calib.randomize(rng, 0, 255);
    net.calibrate(calib);
    if (!nn::save_network(net, m.path)) {
      std::fprintf(stderr, "cannot write %s\n", m.path.c_str());
      return 1;
    }
    // Golden answers from direct sequential batch-1 session runs — the
    // gateway round trip must change nothing.
    nn::InferenceSession session(net, dev);
    for (int i = 0; i < kSamples; ++i) {
      Tensor<std::int32_t> s(
          {1, m.spec.input.h, m.spec.input.w, m.spec.input.c});
      s.randomize(rng, 0, 255);
      m.golden.push_back(session.run(s));
      m.samples.push_back(std::move(s));
    }
  }

  nn::gw::ModelRegistry registry(dev, /*expected_models=*/2);
  for (const Model& m : models) {
    nn::gw::ModelConfig cfg;
    cfg.id = m.id;
    cfg.path = m.path;
    cfg.max_batch = 8;
    cfg.batch_window_us = 200;
    registry.load(cfg);
  }
  nn::gw::Gateway gateway(registry, {});
  const int port = gateway.port();

  auto tcp_factory = [port](const char* model_id) -> bench::IssueFactory {
    return [port, model_id](int) -> bench::IssueFn {
      auto client = std::make_shared<nn::wire::Client>(port);
      return [client, model_id](const Tensor<std::int32_t>& sample) {
        return client->infer(model_id, sample);
      };
    };
  };

  // --- co-resident throughput: both models under load at once ---------------
  bench::LoadOptions lopts;
  lopts.collect_latencies = true;
  bench::LoadResult results[2];
  {
    WallTimer warmup;  // one warm pass each, off the record
    for (int mi = 0; mi < 2; ++mi) {
      bench::drive_load(tcp_factory(models[mi].id), models[mi].samples,
                        models[mi].golden, 1, 4);
    }
    (void)warmup;
  }
  WallTimer wall;
  {
    std::vector<std::thread> drivers;
    for (int mi = 0; mi < 2; ++mi) {
      drivers.emplace_back([&, mi] {
        results[mi] =
            bench::drive_load(tcp_factory(models[mi].id), models[mi].samples,
                              models[mi].golden, clients, requests, lopts);
      });
    }
    for (auto& t : drivers) t.join();
  }
  const double wall_ms = wall.millis();

  std::int64_t mismatches = 0, failures = 0;
  for (const bench::LoadResult& r : results) {
    mismatches += r.mismatches;
    failures += r.failed + r.injected + r.other_failures;
  }
  if (mismatches != 0) {
    std::fprintf(stderr,
                 "FATAL: %lld gateway responses mismatched the direct "
                 "session logits\n",
                 static_cast<long long>(mismatches));
    return 1;
  }
  if (failures != 0) {
    std::fprintf(stderr,
                 "FATAL: %lld requests failed under plain co-resident load\n",
                 static_cast<long long>(failures));
    return 1;
  }

  // --- hot-reload drill: reload model A under load on model B ---------------
  // The registry swaps A's entry while B's closed loop runs; B must finish
  // with zero failures and zero mismatches — reloads are per-model events.
  bench::LoadResult drill;
  std::uint32_t generation_before = 0, generation_after = 0;
  {
    nn::wire::Client admin(port);
    for (const auto& d : admin.list()) {
      if (d.id == std::string(models[0].id)) generation_before = d.generation;
    }
    std::thread traffic([&] {
      drill = bench::drive_load(tcp_factory(models[1].id), models[1].samples,
                                models[1].golden, clients, 2 * requests);
    });
    admin.reload(models[0].id);
    admin.reload(models[0].id);
    traffic.join();
    for (const auto& d : admin.list()) {
      if (d.id == std::string(models[0].id)) generation_after = d.generation;
    }
  }
  if (drill.mismatches != 0 || drill.failed != 0 || drill.injected != 0 ||
      drill.other_failures != 0) {
    std::fprintf(stderr,
                 "FATAL: reloading %s dropped traffic on %s (%lld failed, "
                 "%lld mismatched)\n",
                 models[0].id, models[1].id,
                 static_cast<long long>(drill.failed + drill.injected +
                                        drill.other_failures),
                 static_cast<long long>(drill.mismatches));
    return 1;
  }
  if (generation_after <= generation_before) {
    std::fprintf(stderr, "FATAL: reload did not bump %s's generation\n",
                 models[0].id);
    return 1;
  }
  // The reloaded model still answers, bit-exactly.
  {
    const bench::LoadResult after =
        bench::drive_load(tcp_factory(models[0].id), models[0].samples,
                          models[0].golden, 1, kSamples);
    if (after.mismatches != 0 || after.failed != 0) {
      std::fprintf(stderr, "FATAL: %s misbehaves after reload\n",
                   models[0].id);
      return 1;
    }
  }

  const double total_requests = 2.0 * requests;
  const double gateway_rps = 1000.0 * total_requests / wall_ms;
  std::printf("gateway throughput, 2 co-resident models over loopback TCP, "
              "%d requests x %d clients each\n",
              requests, clients);
  for (int mi = 0; mi < 2; ++mi) {
    std::printf("  %-12s: %8.1f req/s  p50 %.2f ms  p99 %.2f ms\n",
                models[mi].id, 1000.0 * requests / results[mi].wall_ms,
                quantile_ms(results[mi].latency_ms, 0.50),
                quantile_ms(results[mi].latency_ms, 0.99));
  }
  std::printf("  combined    : %8.1f req/s (%.1f ms wall)\n", gateway_rps,
              wall_ms);
  std::printf("  hot reload  : %s reloaded twice under %s load — 0 drops, "
              "generation %u -> %u\n",
              models[0].id, models[1].id, generation_before,
              generation_after);
  std::printf("  responses vs direct session runs: bit-exact\n");

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"gateway_throughput\",\n"
               "  \"workload\": \"two_model_gateway_loopback_tcp\",\n"
               "  \"requests_per_model\": %d,\n"
               "  \"clients_per_model\": %d,\n"
               "  \"hardware_threads\": %u,\n"
               "  \"bit_exact\": true,\n"
               "  \"reload_drill_drops\": 0,\n"
               "  \"gateway_rps\": %.1f,\n"
               "  \"wall_millis\": %.3f,\n"
               "  \"model0_p50_millis\": %.3f,\n"
               "  \"model0_p99_millis\": %.3f,\n"
               "  \"model1_p50_millis\": %.3f,\n"
               "  \"model1_p99_millis\": %.3f\n"
               "}\n",
               requests, clients,
               std::max(1u, std::thread::hardware_concurrency()), gateway_rps,
               wall_ms,
               quantile_ms(results[0].latency_ms, 0.50),
               quantile_ms(results[0].latency_ms, 0.99),
               quantile_ms(results[1].latency_ms, 0.50),
               quantile_ms(results[1].latency_ms, 0.99));
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  std::remove(models[0].path.c_str());
  std::remove(models[1].path.c_str());
  return 0;
}
