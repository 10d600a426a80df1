// Serving-tier regression gate: replicated InferenceServer session pool vs
// the single-replica server, under high closed-loop client concurrency.
//
// Three properties are gated (hard process failure, before any JSON is
// written for CI to diff):
//
//   * serving is exact — every response, on every replica, in every batch
//     mix, is bit-identical to a sequential batch-1 session run;
//   * deadline-enforcement overhead — the same serving path with a
//     generous never-firing per-request deadline must stay within 2% of the
//     plain path's throughput (deadline_overhead_speedup >= 0.98, hard
//     gate), measured on a minimally contended single-replica loop so the
//     gate sees bookkeeping cost rather than scheduler noise;
//     tools/check_bench.py also floors it (overhead_floor, an absolute
//     0.98 — the ratio's ideal is 1.0 by construction);
//   * replica scaling — aggregate throughput of the N-replica pool vs the
//     single-replica server under the same client load. The comparison is
//     topology-fair: derive_topology gives the single server one hw-wide
//     pool slice and the N-replica pool N slices of hw/N each, so both
//     sides own the same total hardware and the ratio isolates what
//     replication buys (overlap of the serial dispatch sections, no global
//     pool contention). The speedup gate (>= 2x at >= 4 replicas) is
//     enforced only where the hardware can host it
//     (hardware_concurrency >= 2x replicas); on narrower hosts
//     (e.g. a 1-core CI container, where the kernel thread pool already
//     runs inline) a replica pool measures scheduler noise around 1.0x, so
//     the scaling is recorded (replica_scaling_x, scaling_enforced=false)
//     but tools/check_bench.py only reports it (info) — a ratio gate would
//     flake on a number that means nothing there. The wall/latency figures
//     are likewise queueing metrics of a ~50 ms oversubscribed run, so they
//     are reported, not ceiling-gated like the compute benches' best-of-reps
//     timings.
//
// Usage: serving_throughput [out.json] [requests] [replicas]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench/serve_load.hpp"
#include "src/common/timer.hpp"
#include "src/nn/apnn_network.hpp"
#include "src/nn/model.hpp"
#include "src/nn/server.hpp"
#include "src/nn/session.hpp"
#include "src/tcsim/device_spec.hpp"

int main(int argc, char** argv) {
  using namespace apnn;
  const std::string out_path =
      argc > 1 ? argv[1] : "BENCH_serving_throughput.json";
  const int requests = argc > 2 ? std::atoi(argv[2]) : 96;
  const int replicas = argc > 3 ? std::atoi(argv[3]) : 4;
  if (requests < 1 || replicas < 1) {
    std::fprintf(stderr, "usage: serving_throughput [out.json] [requests>=1] "
                         "[replicas>=1]\n");
    return 2;
  }

  // Serving workload: the residual zoo network at single-sample request
  // size — every request passes the full packed pipeline (input pack, fused
  // conv tails, residual glue, linear head).
  const std::int64_t hw = 16, in_c = 4, classes = 10;
  const nn::ModelSpec m = nn::mini_resnet(in_c, hw, classes);
  nn::ApnnNetwork net = nn::ApnnNetwork::random(m, 1, 2, 42);
  Rng rng(43);
  Tensor<std::int32_t> calib({4, hw, hw, in_c});
  calib.randomize(rng, 0, 255);
  net.calibrate(calib);
  const auto& dev = tcsim::rtx3090();

  // Golden answers: sequential batch-1 session runs over the sample set.
  constexpr int kSamples = 24;
  std::vector<Tensor<std::int32_t>> samples;
  std::vector<Tensor<std::int32_t>> golden;
  {
    nn::InferenceSession session(net, dev);
    for (int i = 0; i < kSamples; ++i) {
      Tensor<std::int32_t> s({1, hw, hw, in_c});
      s.randomize(rng, 0, 255);
      golden.push_back(session.run(s));
      samples.push_back(std::move(s));
    }
  }

  const int clients = 4 * replicas;  // high concurrency: pool stays saturated
  const int hw_threads =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));

  nn::ServerOptions base;
  base.max_batch = 8;
  base.batch_window = std::chrono::microseconds(200);

  // --- throughput: single replica vs the replicated pool, same load ---------
  nn::ServerOptions single = base;
  single.replicas = 1;
  std::int64_t mismatches = 0;
  double single_ms = 1e30, replicated_ms = 1e30;
  bench::LoadResult rep_result;
  constexpr int kReps = 3;  // best-of-N: thread-churn noise
  for (int rep = 0; rep < kReps; ++rep) {
    nn::InferenceServer server(net, dev, single);
    const bench::LoadResult r =
        bench::serve_load(server, samples, golden, clients, requests);
    mismatches += r.mismatches;
    single_ms = std::min(single_ms, r.wall_ms);
  }
  nn::ServerOptions pool = base;
  pool.replicas = replicas;
  int slice_threads = 0;  // resolved per-replica pool width (topology)
  for (int rep = 0; rep < kReps; ++rep) {
    nn::InferenceServer server(net, dev, pool);
    slice_threads = server.slice_threads();
    const bench::LoadResult r =
        bench::serve_load(server, samples, golden, clients, requests);
    mismatches += r.mismatches;
    if (r.wall_ms < replicated_ms) {
      replicated_ms = r.wall_ms;
      rep_result = r;
    }
  }
  // --- deadline-enforcement overhead ----------------------------------------
  // Same server code, same samples, but every request carries a (generous,
  // never firing) deadline, so the whole robustness bookkeeping — admission
  // deadline checks, queue expiry sweeps, window clipping against the
  // earliest queued deadline, deadline-aware CV waits — runs on every
  // single request. Gated hard at 2% of the plain loop's throughput: the
  // lifecycle machinery must be effectively free when nothing goes wrong.
  //
  // Measured on a minimally contended loop (one replica, one client, zero
  // batch window) rather than the oversubscribed pool above: on a narrow
  // host the pool's wall clock is dominated by scheduler ordering noise far
  // above 2%, while the serial loop's wall clock is compute + bookkeeping —
  // exactly the quantity the gate is about. Plain and deadline passes
  // alternate on one warm server and each side keeps its floor (scheduler
  // noise is one-sided, so min-of-N converges on the true cost).
  nn::ServerOptions lean = base;
  lean.replicas = 1;
  lean.batch_window = std::chrono::microseconds(0);
  bench::LoadOptions with_deadline;
  with_deadline.deadline = std::chrono::milliseconds(60 * 1000);
  const int overhead_requests = 8 * requests;
  double plain_wall_ms = 1e30;
  double deadline_wall_ms = 1e30;
  constexpr int kOverheadReps = 12;
  {
    nn::InferenceServer server(net, dev, lean);
    // Warm-up pass: first-touch pages, allocator steady state, scheduler
    // placement — none of which either side should pay for.
    const bench::LoadResult warm = bench::serve_load(server, samples, golden,
                                                     /*clients=*/1,
                                                     overhead_requests);
    mismatches += warm.mismatches;
    for (int rep = 0; rep < kOverheadReps; ++rep) {
      const bench::LoadResult p = bench::serve_load(server, samples, golden,
                                                    /*clients=*/1,
                                                    overhead_requests);
      mismatches += p.mismatches;
      plain_wall_ms = std::min(plain_wall_ms, p.wall_ms);
      const bench::LoadResult d = bench::serve_load(server, samples, golden,
                                                    /*clients=*/1,
                                                    overhead_requests,
                                                    with_deadline);
      mismatches += d.mismatches;
      if (d.failed != 0 || d.injected != 0) {
        std::fprintf(stderr,
                     "FATAL: %lld requests failed under a 60 s deadline\n",
                     static_cast<long long>(d.failed + d.injected));
        return 1;
      }
      deadline_wall_ms = std::min(deadline_wall_ms, d.wall_ms);
    }
  }
  if (mismatches != 0) {
    std::fprintf(stderr,
                 "FATAL: %lld responses mismatched the sequential batch-1 "
                 "logits\n",
                 static_cast<long long>(mismatches));
    return 1;
  }
  // >= 1.0 means deadlines cost nothing measurable.
  const double deadline_overhead_speedup = plain_wall_ms / deadline_wall_ms;
  if (deadline_overhead_speedup < 0.98) {
    std::fprintf(stderr,
                 "FATAL: deadline bookkeeping cost %.1f%% of pool throughput "
                 "(gate: <= 2%%)\n",
                 100.0 * (1.0 - deadline_overhead_speedup));
    return 1;
  }

  const double single_rps = 1000.0 * requests / single_ms;
  const double replicated_rps = 1000.0 * requests / replicated_ms;
  const double speedup = replicated_rps / single_rps;

  // --- scaling gate ----------------------------------------------------------
  const bool scaling_enforced = replicas >= 4 && hw_threads >= 2 * replicas;
  if (scaling_enforced && speedup < 2.0) {
    std::fprintf(stderr,
                 "FATAL: %d replicas on %d hardware threads reached only "
                 "%.2fx the single-replica throughput (gate: 2.0x)\n",
                 replicas, hw_threads, speedup);
    return 1;
  }

  const auto& st = rep_result.stats;
  const double mean_latency_ms =
      st.requests > 0 ? st.total_latency_ms / static_cast<double>(st.requests)
                      : 0.0;
  std::printf("serving throughput, MiniResNet %lldx%lldx%lld w1a2, "
              "%d requests x %d clients\n",
              static_cast<long long>(hw), static_cast<long long>(hw),
              static_cast<long long>(in_c), requests, clients);
  std::printf("  single replica      : %8.1f req/s  (%.1f ms wall)\n",
              single_rps, single_ms);
  std::printf("  %d replicas x %d wide: %8.1f req/s  (%.1f ms wall, "
              "%.2fx)%s\n",
              replicas, slice_threads, replicated_rps, replicated_ms, speedup,
              scaling_enforced ? "" : "  [scaling not enforced: narrow host]");
  std::printf("  batches             : %lld (largest %lld, peak queue %lld)\n",
              static_cast<long long>(st.batches),
              static_cast<long long>(st.max_batch),
              static_cast<long long>(st.peak_queue_depth));
  std::printf("  latency             : mean %.2f ms, max %.2f ms\n",
              mean_latency_ms, st.max_latency_ms);
  std::printf("  with deadlines      : %8.1f req/s  (%.1f ms wall, %.3fx "
              "of the plain serial loop; gate >= 0.98x)\n",
              1000.0 * overhead_requests / deadline_wall_ms, deadline_wall_ms,
              deadline_overhead_speedup);
  std::printf("  responses vs sequential batch-1 runs: bit-exact\n");

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"serving_throughput\",\n"
               "  \"workload\": \"mini_resnet_w1a2_serving_pool\",\n"
               "  \"requests\": %d,\n"
               "  \"clients\": %d,\n"
               "  \"replicas\": %d,\n"
               "  \"slice_threads\": %d,\n"
               "  \"hardware_threads\": %d,\n"
               "  \"bit_exact\": true,\n"
               "  \"single_rps\": %.1f,\n"
               "  \"replicated_rps\": %.1f,\n"
               "  \"replica_scaling_x\": %.3f,\n"
               "  \"scaling_enforced\": %s,\n"
               "  \"single_wall_millis\": %.3f,\n"
               "  \"replicated_wall_millis\": %.3f,\n"
               "  \"deadline_wall_millis\": %.3f,\n"
               "  \"deadline_overhead_speedup\": %.3f,\n"
               "  \"mean_latency_millis\": %.3f,\n"
               "  \"peak_queue_depth\": %lld,\n"
               "  \"max_batch_formed\": %lld\n"
               "}\n",
               requests, clients, replicas, slice_threads, hw_threads,
               single_rps,
               replicated_rps, speedup, scaling_enforced ? "true" : "false",
               single_ms, replicated_ms, deadline_wall_ms,
               deadline_overhead_speedup, mean_latency_ms,
               static_cast<long long>(st.peak_queue_depth),
               static_cast<long long>(st.max_batch));
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
