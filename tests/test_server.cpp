// Replicated InferenceServer gates:
//   * concurrent requests across any number of client threads and replicas
//     produce logits bit-identical to sequential batch-1 session runs, and
//     micro-batching actually forms batches;
//   * per-sample admission validation: one malformed sample fails in its
//     own infer() call and never poisons the micro-batch it would have
//     joined — co-batched healthy requests still succeed and the
//     dispatchers stay alive;
//   * frame admission: an N-sample infer_frame() is bit-exact per sample
//     and in order against batch-1 runs; it is validated whole before
//     anything queues, fails whole under kReject when it cannot fit, and
//     leaves nothing queued when it fails mid-frame;
//   * admission control: the bounded queue rejects (kReject) or
//     backpressures (kBlock) when full, and the stats account for it;
//   * shutdown: queued requests are drained, late callers get the
//     "shutting down" error, destruction never hangs — including with
//     clients still in flight (the done_cv_ thundering-herd path);
//   * execution topology: derive_topology never oversubscribes the
//     hardware, and serving across per-replica pool slices that steal from
//     each other stays bit-exact (the TSan CI leg runs these against the
//     race detector).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "src/common/faultinject.hpp"
#include "src/nn/apnn_network.hpp"
#include "src/nn/model.hpp"
#include "src/nn/server.hpp"
#include "src/nn/session.hpp"
#include "src/tcsim/device_spec.hpp"

namespace apnn::nn {
namespace {

const tcsim::DeviceSpec& dev() { return tcsim::rtx3090(); }

Tensor<std::int32_t> random_input(std::int64_t b, const ModelSpec& m,
                                  std::uint64_t seed) {
  Rng rng(seed);
  Tensor<std::int32_t> in({b, m.input.h, m.input.w, m.input.c});
  in.randomize(rng, 0, 255);
  return in;
}

void expect_same_logits(const Tensor<std::int32_t>& got,
                        const Tensor<std::int32_t>& want, int client) {
  // Server logits are {classes}; the sequential run's are {1, classes}.
  ASSERT_EQ(got.numel(), want.numel()) << "client " << client;
  for (std::int64_t j = 0; j < got.numel(); ++j) {
    EXPECT_EQ(got[j], want[j]) << "client " << client << " logit " << j;
  }
}

// --- batching correctness ---------------------------------------------------

TEST(Server, ConcurrentRequestsMatchSequentialRuns) {
  const ModelSpec m = mini_resnet(3, 8, 5);
  ApnnNetwork net = ApnnNetwork::random(m, 1, 2, 330);
  net.calibrate(random_input(2, m, 331));

  constexpr int kClients = 6;
  std::vector<Tensor<std::int32_t>> samples;
  std::vector<Tensor<std::int32_t>> expected;
  {
    InferenceSession session(net, dev());
    for (int i = 0; i < kClients; ++i) {
      samples.push_back(random_input(1, m, 332 + static_cast<unsigned>(i)));
      expected.push_back(session.run(samples.back()));
    }
  }

  ServerOptions opts;
  opts.max_batch = 4;
  opts.replicas = 1;  // a lone replica must still batch correctly
  // Generous window: client threads must only *start* within it for a
  // micro-batch to form, even under sanitizer slowdowns on a loaded runner.
  opts.batch_window = std::chrono::microseconds(1000 * 1000);
  InferenceServer server(net, dev(), opts);
  std::vector<Tensor<std::int32_t>> got(kClients);
  {
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int i = 0; i < kClients; ++i) {
      clients.emplace_back(
          [&, i] { got[static_cast<std::size_t>(i)] = server.infer(
                       samples[static_cast<std::size_t>(i)]); });
    }
    for (auto& t : clients) t.join();
  }

  for (int i = 0; i < kClients; ++i) {
    expect_same_logits(got[static_cast<std::size_t>(i)],
                       expected[static_cast<std::size_t>(i)], i);
  }

  const InferenceServer::Stats stats = server.stats();
  EXPECT_EQ(stats.requests, kClients);
  EXPECT_GE(stats.batches, (kClients + opts.max_batch - 1) / opts.max_batch);
  EXPECT_LE(stats.batches, kClients);
  // With a one-second window and six concurrent clients, at least one
  // micro-batch must have formed.
  EXPECT_GE(stats.max_batch, 2);
}

TEST(Server, ReplicatedPoolServesBitExactAndAccountsPerReplica) {
  const ModelSpec m = mini_resnet(3, 8, 5);
  ApnnNetwork net = ApnnNetwork::random(m, 1, 2, 360);
  net.calibrate(random_input(2, m, 361));

  constexpr int kClients = 8;
  constexpr int kRequestsPerClient = 3;
  constexpr int kTotal = kClients * kRequestsPerClient;
  std::vector<Tensor<std::int32_t>> samples;
  std::vector<Tensor<std::int32_t>> expected;
  {
    InferenceSession session(net, dev());
    for (int i = 0; i < kTotal; ++i) {
      samples.push_back(random_input(1, m, 362 + static_cast<unsigned>(i)));
      expected.push_back(session.run(samples.back()));
    }
  }

  ServerOptions opts;
  opts.replicas = 3;
  opts.max_batch = 4;
  opts.batch_window = std::chrono::microseconds(200);
  InferenceServer server(net, dev(), opts);
  ASSERT_EQ(server.replicas(), 3);

  std::vector<Tensor<std::int32_t>> got(kTotal);
  {
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (int r = 0; r < kRequestsPerClient; ++r) {
          const int i = c * kRequestsPerClient + r;
          got[static_cast<std::size_t>(i)] =
              server.infer(samples[static_cast<std::size_t>(i)]);
        }
      });
    }
    for (auto& t : clients) t.join();
  }
  for (int i = 0; i < kTotal; ++i) {
    expect_same_logits(got[static_cast<std::size_t>(i)],
                       expected[static_cast<std::size_t>(i)], i);
  }

  // Per-replica accounting must tie out with the totals.
  const InferenceServer::Stats stats = server.stats();
  EXPECT_EQ(stats.requests, kTotal);
  ASSERT_EQ(stats.replica_batches.size(), 3u);
  ASSERT_EQ(stats.replica_requests.size(), 3u);
  std::int64_t batches = 0, requests = 0;
  for (int r = 0; r < 3; ++r) {
    batches += stats.replica_batches[static_cast<std::size_t>(r)];
    requests += stats.replica_requests[static_cast<std::size_t>(r)];
  }
  EXPECT_EQ(batches, stats.batches);
  EXPECT_EQ(requests, stats.requests);
  EXPECT_EQ(stats.queue_depth, 0);
  EXPECT_GE(stats.peak_queue_depth, 1);
  EXPECT_GT(stats.total_batch_ms, 0.0);
  EXPECT_GT(stats.total_latency_ms, 0.0);
  EXPECT_GE(stats.max_latency_ms,
            stats.total_latency_ms / static_cast<double>(stats.requests));
}

TEST(Server, SingleRequestServedWithinWindow) {
  const ModelSpec m = mini_cnn(4, 8, 5);
  ApnnNetwork net = ApnnNetwork::random(m, 1, 2, 340);
  net.calibrate(random_input(1, m, 341));
  InferenceServer server(net, dev(), {});
  EXPECT_GE(server.replicas(), 1);  // hardware-width derivation resolved
  const auto sample = random_input(1, m, 342);
  const auto logits = server.infer(sample);
  EXPECT_EQ(logits.numel(), 5);
  const auto stats = server.stats();
  EXPECT_EQ(stats.requests, 1);
  EXPECT_EQ(stats.batches, 1);
}

// --- per-sample admission validation ----------------------------------------

TEST(Server, RejectsWrongSampleShape) {
  const ModelSpec m = mini_cnn(4, 8, 5);
  ApnnNetwork net = ApnnNetwork::random(m, 1, 2, 343);
  net.calibrate(random_input(1, m, 344));
  InferenceServer server(net, dev(), {});
  Tensor<std::int32_t> bad({2, 8, 8, 4});  // a batch, not a sample
  EXPECT_THROW(server.infer(bad), apnn::Error);
  Tensor<std::int32_t> wrong_hw({1, 4, 4, 4});
  EXPECT_THROW(server.infer(wrong_hw), apnn::Error);
}

TEST(Server, PoisonSampleDoesNotPoisonItsBatch) {
  const ModelSpec m = mini_cnn(4, 8, 5);
  ApnnNetwork net = ApnnNetwork::random(m, 1, 2, 345);
  net.calibrate(random_input(1, m, 346));

  constexpr int kHealthy = 3;
  std::vector<Tensor<std::int32_t>> samples;
  std::vector<Tensor<std::int32_t>> expected;
  {
    InferenceSession session(net, dev());
    for (int i = 0; i < kHealthy; ++i) {
      samples.push_back(random_input(1, m, 347 + static_cast<unsigned>(i)));
      expected.push_back(session.run(samples.back()));
    }
  }
  Tensor<std::int32_t> poisoned = random_input(1, m, 350);
  poisoned[7] = 999;  // not an 8-bit code — used to fail the whole batch
  Tensor<std::int32_t> negative = random_input(1, m, 351);
  negative[3] = -1;

  ServerOptions opts;
  opts.replicas = 1;
  opts.max_batch = 8;
  // A wide-open window co-batches everything below, so a poisoned sample
  // reaching the batch would corrupt every healthy response.
  opts.batch_window = std::chrono::microseconds(1000 * 1000);
  InferenceServer server(net, dev(), opts);

  std::vector<Tensor<std::int32_t>> got(kHealthy);
  std::atomic<int> poison_errors{0};
  {
    std::vector<std::thread> clients;
    for (int i = 0; i < kHealthy; ++i) {
      clients.emplace_back([&, i] {
        got[static_cast<std::size_t>(i)] =
            server.infer(samples[static_cast<std::size_t>(i)]);
      });
    }
    clients.emplace_back([&] {
      EXPECT_THROW(server.infer(poisoned), apnn::Error);
      EXPECT_THROW(server.infer(negative), apnn::Error);
      poison_errors.fetch_add(1);
    });
    for (auto& t : clients) t.join();
  }
  EXPECT_EQ(poison_errors.load(), 1);
  for (int i = 0; i < kHealthy; ++i) {
    expect_same_logits(got[static_cast<std::size_t>(i)],
                       expected[static_cast<std::size_t>(i)], i);
  }

  // The dispatcher survived and the server still serves.
  const auto again = server.infer(samples[0]);
  expect_same_logits(again, expected[0], 0);
  EXPECT_EQ(server.stats().requests, kHealthy + 1);  // poison never admitted
}

// --- frame admission --------------------------------------------------------

// Goldens for every sample of `frame`, each from its own batch-1 run.
std::vector<Tensor<std::int32_t>> per_sample_goldens(
    const ApnnNetwork& net, const Tensor<std::int32_t>& frame) {
  InferenceSession session(net, dev());
  const std::int64_t n = frame.dim(0);
  const std::int64_t elems = frame.numel() / n;
  std::vector<Tensor<std::int32_t>> out;
  for (std::int64_t i = 0; i < n; ++i) {
    Tensor<std::int32_t> one({1, frame.dim(1), frame.dim(2), frame.dim(3)});
    std::copy(frame.data() + i * elems, frame.data() + (i + 1) * elems,
              one.data());
    out.push_back(session.run(one));
  }
  return out;
}

ErrorKind frame_error_kind(InferenceServer& server,
                           const Tensor<std::int32_t>& frame,
                           InferenceServer::Deadline deadline =
                               InferenceServer::kNoDeadline) {
  Tensor<std::int32_t> logits;
  try {
    server.infer_frame(frame, &logits, deadline);
  } catch (const ServerError& e) {
    return e.kind();
  }
  ADD_FAILURE() << "infer_frame() unexpectedly succeeded";
  return ErrorKind::kReplicaFailed;
}

TEST(ServerFrame, SamplesMatchBatchOneRunsInOrder) {
  const ModelSpec m = mini_resnet(3, 8, 5);
  ApnnNetwork net = ApnnNetwork::random(m, 1, 2, 800);
  net.calibrate(random_input(2, m, 801));

  ServerOptions opts;
  opts.max_batch = 4;
  opts.replicas = 2;  // derived max_queue 32: the 64-sample frame blocks
  InferenceServer server(net, dev(), opts);
  std::int64_t served = 0;
  Tensor<std::int32_t> logits;  // reused across frames, like a connection
  for (const std::int64_t n : {1, 3, 8, 64}) {
    const Tensor<std::int32_t> frame =
        random_input(n, m, 802 + static_cast<std::uint64_t>(n));
    const auto golden = per_sample_goldens(net, frame);
    server.infer_frame(frame, &logits);
    ASSERT_EQ(logits.rank(), 2);
    ASSERT_EQ(logits.dim(0), n);
    ASSERT_EQ(logits.dim(1), 5);
    for (std::int64_t i = 0; i < n; ++i) {
      for (std::int64_t j = 0; j < 5; ++j) {
        EXPECT_EQ(logits[i * 5 + j], golden[static_cast<std::size_t>(i)][j])
            << "frame of " << n << ", sample " << i << ", logit " << j;
      }
    }
    served += n;
  }
  const auto st = server.stats();
  EXPECT_EQ(st.requests, served);
  EXPECT_LE(st.max_batch, 4);
  EXPECT_GE(st.max_batch, 2);  // a frame batches with itself
  EXPECT_EQ(st.queue_depth, 0);
}

TEST(ServerFrame, OneInvalidSampleFailsTheFrameBeforeAnythingQueues) {
  const ModelSpec m = mini_cnn(4, 8, 5);
  ApnnNetwork net = ApnnNetwork::random(m, 1, 2, 810);
  net.calibrate(random_input(1, m, 811));
  ServerOptions opts;
  opts.max_batch = 4;
  InferenceServer server(net, dev(), opts);

  Tensor<std::int32_t> frame = random_input(4, m, 812);
  frame[2 * 8 * 8 * 4 + 5] = 256;  // sample 2 holds a non-8-bit code
  EXPECT_EQ(frame_error_kind(server, frame), ErrorKind::kInvalidSample);
  auto st = server.stats();
  EXPECT_EQ(st.requests, 0);
  EXPECT_EQ(st.batches, 0);
  EXPECT_EQ(st.errors(ErrorKind::kInvalidSample), 1);

  // A frame of N samples is not a single sample.
  EXPECT_THROW(server.infer(random_input(2, m, 813)), ServerError);
  frame[2 * 8 * 8 * 4 + 5] = 255;
  Tensor<std::int32_t> logits;
  server.infer_frame(frame, &logits);
  EXPECT_EQ(server.stats().requests, 4);
}

TEST(ServerFrame, RejectFailsAFrameThatDoesNotFitAsAWhole) {
  const ModelSpec m = mini_cnn(4, 8, 5);
  ApnnNetwork net = ApnnNetwork::random(m, 1, 2, 820);
  net.calibrate(random_input(1, m, 821));
  ServerOptions opts;
  opts.replicas = 1;
  opts.max_batch = 4;
  opts.max_queue = 4;
  opts.admission = ServerOptions::Admission::kReject;
  InferenceServer server(net, dev(), opts);

  EXPECT_EQ(frame_error_kind(server, random_input(5, m, 822)),
            ErrorKind::kQueueFull);
  auto st = server.stats();
  EXPECT_EQ(st.rejected, 1);  // one frame, one rejection
  EXPECT_EQ(st.errors(ErrorKind::kQueueFull), 1);
  EXPECT_EQ(st.requests, 0);
  EXPECT_EQ(st.batches, 0);
  EXPECT_EQ(st.peak_queue_depth, 0);  // nothing was queued

  // A frame that fits is served whole.
  const Tensor<std::int32_t> fits = random_input(4, m, 823);
  const auto golden = per_sample_goldens(net, fits);
  Tensor<std::int32_t> logits;
  server.infer_frame(fits, &logits);
  for (std::int64_t i = 0; i < 4; ++i) {
    for (std::int64_t j = 0; j < 5; ++j) {
      EXPECT_EQ(logits[i * 5 + j], golden[static_cast<std::size_t>(i)][j]);
    }
  }
}

TEST(ServerFrame, DeadlineExpiringMidFrameFailsItAndLeavesNothingQueued) {
  const ModelSpec m = mini_cnn(4, 8, 5);
  ApnnNetwork net = ApnnNetwork::random(m, 1, 2, 840);
  net.calibrate(random_input(1, m, 841));
  ServerOptions opts;
  opts.replicas = 1;
  opts.max_batch = 4;
  InferenceServer server(net, dev(), opts);

  // The first batch (samples 0-3) stalls past the frame's deadline, so
  // samples 4-7 expire in the queue: the frame fails with the deadline,
  // after its first batch has completed.
  faultinject::arm(faultinject::kSessionRun, 1, 1,
                   std::chrono::milliseconds(300));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(100);
  EXPECT_EQ(frame_error_kind(server, random_input(8, m, 842), deadline),
            ErrorKind::kDeadlineExceeded);
  faultinject::disarm_all();
  const auto st = server.stats();
  EXPECT_EQ(st.queue_depth, 0);
  EXPECT_EQ(st.requests, 4);
  EXPECT_EQ(st.errors(ErrorKind::kDeadlineExceeded), 4);

  Tensor<std::int32_t> logits;
  server.infer_frame(random_input(8, m, 843), &logits);
  EXPECT_EQ(server.stats().requests, 12);
}

// --- admission control ------------------------------------------------------

TEST(Server, RejectPolicyShedsLoadWhenQueueIsFull) {
  const ModelSpec m = mini_cnn(4, 8, 5);
  ApnnNetwork net = ApnnNetwork::random(m, 1, 2, 352);
  net.calibrate(random_input(1, m, 353));

  ServerOptions opts;
  opts.replicas = 1;
  opts.max_batch = 2;
  opts.max_queue = 1;
  opts.admission = ServerOptions::Admission::kReject;
  // The first request sits in the queue for the whole window (requests stay
  // queued while a dispatcher holds its batch open), keeping the queue full
  // long enough to observe a deterministic rejection — generous so even a
  // sanitizer-slowed runner cannot blow past it between the depth poll and
  // the rejecting infer(). shutdown() below skips the window's tail, so
  // the test never actually waits this long.
  opts.batch_window = std::chrono::microseconds(10 * 1000 * 1000);
  InferenceServer server(net, dev(), opts);

  const auto sample = random_input(1, m, 354);
  Tensor<std::int32_t> first_logits;
  std::thread first([&] { first_logits = server.infer(sample); });
  while (server.stats().queue_depth < 1) std::this_thread::yield();

  EXPECT_THROW(server.infer(sample), apnn::Error);  // queue full -> rejected
  {
    const auto stats = server.stats();
    EXPECT_EQ(stats.rejected, 1);
    EXPECT_EQ(stats.requests, 0);  // the first request is still queued
  }

  // Drain: the queued request is served (the rejection shed load, it did
  // not poison the queue), and the rejected caller's slot was never admitted.
  server.shutdown();
  first.join();
  EXPECT_EQ(first_logits.numel(), 5);
  EXPECT_EQ(server.stats().requests, 1);
}

TEST(Server, BlockPolicyAppliesBackpressureAndLosesNothing) {
  const ModelSpec m = mini_cnn(4, 8, 5);
  ApnnNetwork net = ApnnNetwork::random(m, 1, 2, 355);
  net.calibrate(random_input(1, m, 356));

  constexpr int kClients = 6;
  std::vector<Tensor<std::int32_t>> samples;
  std::vector<Tensor<std::int32_t>> expected;
  {
    InferenceSession session(net, dev());
    for (int i = 0; i < kClients; ++i) {
      samples.push_back(random_input(1, m, 357 + static_cast<unsigned>(i)));
      expected.push_back(session.run(samples.back()));
    }
  }

  ServerOptions opts;
  opts.replicas = 1;
  opts.max_batch = 2;
  opts.max_queue = 1;  // almost every admission must wait for space
  opts.admission = ServerOptions::Admission::kBlock;
  opts.batch_window = std::chrono::microseconds(100);
  InferenceServer server(net, dev(), opts);

  std::vector<Tensor<std::int32_t>> got(kClients);
  {
    std::vector<std::thread> clients;
    for (int i = 0; i < kClients; ++i) {
      clients.emplace_back([&, i] {
        got[static_cast<std::size_t>(i)] =
            server.infer(samples[static_cast<std::size_t>(i)]);
      });
    }
    for (auto& t : clients) t.join();
  }
  for (int i = 0; i < kClients; ++i) {
    expect_same_logits(got[static_cast<std::size_t>(i)],
                       expected[static_cast<std::size_t>(i)], i);
  }
  const auto stats = server.stats();
  EXPECT_EQ(stats.requests, kClients);
  EXPECT_EQ(stats.rejected, 0);
  EXPECT_LE(stats.peak_queue_depth, 1);
}

// --- shutdown ---------------------------------------------------------------

TEST(Server, ShutdownDrainsQueuedRequestsThenRejectsLateCallers) {
  const ModelSpec m = mini_cnn(4, 8, 5);
  ApnnNetwork net = ApnnNetwork::random(m, 1, 2, 370);
  net.calibrate(random_input(1, m, 371));

  constexpr int kClients = 4;
  std::vector<Tensor<std::int32_t>> samples;
  std::vector<Tensor<std::int32_t>> expected;
  {
    InferenceSession session(net, dev());
    for (int i = 0; i < kClients; ++i) {
      samples.push_back(random_input(1, m, 372 + static_cast<unsigned>(i)));
      expected.push_back(session.run(samples.back()));
    }
  }

  ServerOptions opts;
  opts.replicas = 1;
  opts.max_batch = 8;
  // A very long window parks the queued requests; only shutdown's drain
  // (which skips the window) releases them — if draining were broken this
  // test would time out rather than pass by luck.
  opts.batch_window = std::chrono::microseconds(60 * 1000 * 1000);
  InferenceServer server(net, dev(), opts);

  std::vector<Tensor<std::int32_t>> got(kClients);
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      got[static_cast<std::size_t>(i)] =
          server.infer(samples[static_cast<std::size_t>(i)]);
    });
  }
  while (server.stats().queue_depth < kClients) std::this_thread::yield();

  server.shutdown();  // must serve all four queued requests, then return
  for (auto& t : clients) t.join();
  for (int i = 0; i < kClients; ++i) {
    expect_same_logits(got[static_cast<std::size_t>(i)],
                       expected[static_cast<std::size_t>(i)], i);
  }
  EXPECT_EQ(server.stats().requests, kClients);

  // Late callers fail fast with the shutdown error instead of hanging.
  EXPECT_THROW(server.infer(samples[0]), apnn::Error);
  server.shutdown();  // idempotent
}

TEST(Server, DestructionWithConcurrentClientsNeverHangs) {
  // The done_cv_ thundering-herd path: many clients block on the shared
  // completion cv; every batch completion wakes all of them and each
  // re-checks its own request. Destruction overlaps the tail of the herd.
  const ModelSpec m = mini_cnn(4, 8, 5);
  ApnnNetwork net = ApnnNetwork::random(m, 1, 2, 380);
  net.calibrate(random_input(1, m, 381));

  constexpr int kClients = 16;
  std::vector<Tensor<std::int32_t>> samples;
  std::vector<Tensor<std::int32_t>> expected;
  {
    InferenceSession session(net, dev());
    for (int i = 0; i < kClients; ++i) {
      samples.push_back(random_input(1, m, 382 + static_cast<unsigned>(i)));
      expected.push_back(session.run(samples.back()));
    }
  }

  std::vector<Tensor<std::int32_t>> got(kClients);
  {
    ServerOptions opts;
    opts.replicas = 2;
    opts.max_batch = 4;
    opts.batch_window = std::chrono::microseconds(500);
    InferenceServer server(net, dev(), opts);
    std::vector<std::thread> clients;
    for (int i = 0; i < kClients; ++i) {
      clients.emplace_back([&, i] {
        got[static_cast<std::size_t>(i)] =
            server.infer(samples[static_cast<std::size_t>(i)]);
      });
    }
    // Join the herd, then let the server destruct with stats intact.
    for (auto& t : clients) t.join();
    EXPECT_EQ(server.stats().requests, kClients);
  }
  for (int i = 0; i < kClients; ++i) {
    expect_same_logits(got[static_cast<std::size_t>(i)],
                       expected[static_cast<std::size_t>(i)], i);
  }
}

TEST(Server, DestructionDrainsEnqueuedRequests) {
  // infer() racing ~InferenceServer: requests enqueued before destruction
  // begins are served, not dropped, and destruction does not hang.
  const ModelSpec m = mini_cnn(4, 8, 5);
  ApnnNetwork net = ApnnNetwork::random(m, 1, 2, 390);
  net.calibrate(random_input(1, m, 391));

  constexpr int kClients = 3;
  std::vector<Tensor<std::int32_t>> samples;
  std::vector<Tensor<std::int32_t>> expected;
  {
    InferenceSession session(net, dev());
    for (int i = 0; i < kClients; ++i) {
      samples.push_back(random_input(1, m, 392 + static_cast<unsigned>(i)));
      expected.push_back(session.run(samples.back()));
    }
  }

  std::vector<Tensor<std::int32_t>> got(kClients);
  std::vector<std::thread> clients;
  {
    ServerOptions opts;
    opts.replicas = 1;
    opts.max_batch = 8;
    opts.batch_window = std::chrono::microseconds(60 * 1000 * 1000);
    InferenceServer server(net, dev(), opts);
    for (int i = 0; i < kClients; ++i) {
      clients.emplace_back([&, i] {
        got[static_cast<std::size_t>(i)] =
            server.infer(samples[static_cast<std::size_t>(i)]);
      });
    }
    while (server.stats().queue_depth < kClients) std::this_thread::yield();
    // ~InferenceServer runs here with all three requests still queued.
  }
  for (auto& t : clients) t.join();
  for (int i = 0; i < kClients; ++i) {
    expect_same_logits(got[static_cast<std::size_t>(i)],
                       expected[static_cast<std::size_t>(i)], i);
  }
}

// --- dispatcher death must not strand dequeued clients ----------------------

TEST(Server, DispatcherDeathFailsItsDequeuedRequestsInsteadOfStranding) {
  // Regression: an exception escaping the dispatch cycle outside the
  // per-batch handler (injected at replica.dispatch, right after dequeue)
  // used to unwind out of the dispatcher thread with the dequeued requests
  // still waiting on done_cv_ — every one of those clients hung forever.
  // They must instead fail promptly, in their own infer() calls.
  const ModelSpec m = mini_cnn(4, 8, 5);
  ApnnNetwork net = ApnnNetwork::random(m, 1, 2, 400);
  net.calibrate(random_input(1, m, 401));

  struct DisarmGuard {
    ~DisarmGuard() { faultinject::disarm_all(); }
  } guard;
  faultinject::arm(faultinject::kReplicaDispatch, 1);

  ServerOptions opts;
  opts.replicas = 1;
  opts.max_batch = 3;
  // The dispatcher holds the batch open until all three clients are
  // co-dequeued, so the injected death strands (or, fixed, fails) all of
  // them at once.
  opts.batch_window = std::chrono::microseconds(1000 * 1000);
  InferenceServer server(net, dev(), opts);

  constexpr int kClients = 3;
  std::vector<Tensor<std::int32_t>> samples;
  for (int i = 0; i < kClients; ++i) {
    samples.push_back(random_input(1, m, 402 + static_cast<unsigned>(i)));
  }
  std::atomic<int> failed{0};
  {
    std::vector<std::thread> clients;
    for (int i = 0; i < kClients; ++i) {
      clients.emplace_back([&, i] {
        try {
          server.infer(samples[static_cast<std::size_t>(i)]);
        } catch (const ServerError& e) {
          // The injected FaultInjected is a replica crash from the client's
          // point of view; the server reports it as a typed kReplicaFailed.
          if (e.kind() == ErrorKind::kReplicaFailed) failed.fetch_add(1);
        }
      });
    }
    for (auto& t : clients) t.join();  // used to hang here
  }
  EXPECT_EQ(failed.load(), kClients);
  EXPECT_EQ(faultinject::fires(faultinject::kReplicaDispatch), 1);
}

// --- execution topology (per-replica pool slices) ---------------------------

TEST(ServerTopology, DeriveTopologyNeverOversubscribes) {
  ServerOptions o;  // both fields 0: full joint derivation
  {
    const auto t = InferenceServer::derive_topology(o, 8);
    EXPECT_EQ(t.replicas, 4);
    EXPECT_EQ(t.slice_threads, 2);
  }
  {
    const auto t = InferenceServer::derive_topology(o, 1);
    EXPECT_EQ(t.replicas, 1);
    EXPECT_EQ(t.slice_threads, 1);
  }
  {
    // 32 hardware threads: replica count clamps at 8, the width spreads.
    const auto t = InferenceServer::derive_topology(o, 32);
    EXPECT_EQ(t.replicas, 8);
    EXPECT_EQ(t.slice_threads, 4);
  }
  {
    ServerOptions r;
    r.replicas = 2;
    const auto t = InferenceServer::derive_topology(r, 8);
    EXPECT_EQ(t.replicas, 2);
    EXPECT_EQ(t.slice_threads, 4);
  }
  {
    ServerOptions s;
    s.slice_threads = 2;
    const auto t = InferenceServer::derive_topology(s, 8);
    EXPECT_EQ(t.replicas, 4);
    EXPECT_EQ(t.slice_threads, 2);
  }
  {
    // A slice wider than the machine still yields a sane topology.
    ServerOptions s;
    s.slice_threads = 16;
    const auto t = InferenceServer::derive_topology(s, 8);
    EXPECT_EQ(t.replicas, 1);
    EXPECT_EQ(t.slice_threads, 16);
  }
  {
    // Both explicit: taken as given, even oversubscribed (opt-in).
    ServerOptions b;
    b.replicas = 3;
    b.slice_threads = 5;
    const auto t = InferenceServer::derive_topology(b, 4);
    EXPECT_EQ(t.replicas, 3);
    EXPECT_EQ(t.slice_threads, 5);
  }
  // The derived default always fits: replicas * slice <= hw.
  for (unsigned hw = 1; hw <= 64; ++hw) {
    const auto t = InferenceServer::derive_topology(o, hw);
    EXPECT_GE(t.replicas, 1);
    EXPECT_GE(t.slice_threads, 1);
    EXPECT_LE(static_cast<unsigned>(t.replicas * t.slice_threads), hw)
        << "hw=" << hw;
  }
}

// Serving across explicit per-replica pool slices in one stealing group
// stays bit-exact vs sequential batch-1 runs. Runs under TSan in CI, so this
// also drives the slice/steal machinery through the race detector with real
// sessions on top.
TEST(ServerTopology, SlicedStolenServingStaysBitExact) {
  const ModelSpec m = mini_resnet(3, 8, 5);
  ApnnNetwork net = ApnnNetwork::random(m, 1, 2, 640);
  net.calibrate(random_input(2, m, 641));

  constexpr int kClients = 6;
  constexpr int kRequestsPerClient = 2;
  constexpr int kTotal = kClients * kRequestsPerClient;
  std::vector<Tensor<std::int32_t>> samples;
  std::vector<Tensor<std::int32_t>> expected;
  {
    InferenceSession session(net, dev());
    for (int i = 0; i < kTotal; ++i) {
      samples.push_back(random_input(1, m, 642 + static_cast<unsigned>(i)));
      expected.push_back(session.run(samples.back()));
    }
  }

  ServerOptions opts;
  opts.replicas = 2;
  opts.slice_threads = 2;
  opts.max_batch = 4;
  opts.batch_window = std::chrono::microseconds(200);

  {
    InferenceServer server(net, dev(), opts);
    ASSERT_EQ(server.replicas(), 2);
    ASSERT_EQ(server.slice_threads(), 2);
    std::vector<Tensor<std::int32_t>> got(kTotal);
    {
      std::vector<std::thread> clients;
      clients.reserve(kClients);
      for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
          for (int r = 0; r < kRequestsPerClient; ++r) {
            const int i = c * kRequestsPerClient + r;
            got[static_cast<std::size_t>(i)] =
                server.infer(samples[static_cast<std::size_t>(i)]);
          }
        });
      }
      for (auto& t : clients) t.join();
    }
    for (int i = 0; i < kTotal; ++i) {
      expect_same_logits(got[static_cast<std::size_t>(i)],
                         expected[static_cast<std::size_t>(i)], i);
    }
    EXPECT_EQ(server.stats().requests, kTotal);
  }
}

// --- bucketed batch formation (dynamic-shape models) ------------------------

Tensor<std::int32_t> random_tokens(std::int64_t seq, const ModelSpec& m,
                                   std::uint64_t seed) {
  Rng rng(seed);
  Tensor<std::int32_t> in({seq, std::int64_t{1}, m.input.c});
  in.randomize(rng, 0, 255);
  return in;
}

TEST(Server, BucketedMixedLengthsServeBitExact) {
  // One server, one compiled plan family, concurrent requests spanning
  // several buckets and off-bucket lengths. Every response must equal the
  // sequential batch-1 session run of the same sample — which also pins
  // that micro-batches never mix buckets: co-batching a short request with
  // a longer bucket would pad it further and shift the pooled head's
  // divisor, so a mixed batch cannot reproduce the per-bucket logits.
  const ModelSpec m = tiny_transformer();
  ApnnNetwork net = ApnnNetwork::random(m, 1, 2, 700);
  Rng rng(701);
  Tensor<std::int32_t> calib({2, m.input.h, m.input.w, m.input.c});
  calib.randomize(rng, 0, 255);
  net.calibrate(calib);

  const std::vector<std::int64_t> lengths = {20, 32, 32, 50, 64,
                                             64, 100, 128, 256, 512};
  std::vector<Tensor<std::int32_t>> samples;
  std::vector<Tensor<std::int32_t>> expected;
  {
    InferenceSession session(net, dev());
    for (std::size_t i = 0; i < lengths.size(); ++i) {
      samples.push_back(random_tokens(lengths[i], m,
                                      702 + static_cast<std::uint64_t>(i)));
      Tensor<std::int32_t> batched = samples.back().reshaped(
          {1, lengths[i], std::int64_t{1}, m.input.c});
      expected.push_back(session.run(batched));
    }
  }

  ServerOptions opts;
  opts.max_batch = 4;
  opts.batch_window = std::chrono::microseconds(2000);
  InferenceServer server(net, dev(), opts);
  std::vector<Tensor<std::int32_t>> got(samples.size());
  {
    std::vector<std::thread> clients;
    for (std::size_t i = 0; i < samples.size(); ++i) {
      clients.emplace_back([&, i] { got[i] = server.infer(samples[i]); });
    }
    for (auto& t : clients) t.join();
  }
  for (std::size_t i = 0; i < samples.size(); ++i) {
    expect_same_logits(got[i], expected[i], static_cast<int>(i));
  }
  const InferenceServer::Stats stats = server.stats();
  EXPECT_EQ(stats.requests, static_cast<std::int64_t>(samples.size()));
}

TEST(Server, BucketedBatchesGroupByBucketNotArrival) {
  // Queue requests of two buckets while no dispatcher can run (replica
  // count 1, every sample pre-queued by parked clients), then check the
  // dispatch accounting: same-bucket requests co-batch even when they
  // interleave in arrival order, so serving 4+4 requests of two buckets
  // under max_batch 4 takes at least 2 and at most 4 batches — never 8 —
  // and each response is the per-bucket bit-exact result.
  const ModelSpec m = tiny_transformer();
  ApnnNetwork net = ApnnNetwork::random(m, 1, 2, 710);
  Rng rng(711);
  Tensor<std::int32_t> calib({2, m.input.h, m.input.w, m.input.c});
  calib.randomize(rng, 0, 255);
  net.calibrate(calib);

  // Alternate buckets in submission order: 32, 64, 32, 64, ...
  std::vector<std::int64_t> lengths;
  for (int i = 0; i < 4; ++i) {
    lengths.push_back(32);
    lengths.push_back(64);
  }
  std::vector<Tensor<std::int32_t>> samples;
  std::vector<Tensor<std::int32_t>> expected;
  {
    InferenceSession session(net, dev());
    for (std::size_t i = 0; i < lengths.size(); ++i) {
      samples.push_back(random_tokens(lengths[i], m,
                                      712 + static_cast<std::uint64_t>(i)));
      Tensor<std::int32_t> batched = samples.back().reshaped(
          {1, lengths[i], std::int64_t{1}, m.input.c});
      expected.push_back(session.run(batched));
    }
  }

  ServerOptions opts;
  opts.max_batch = 4;
  opts.replicas = 1;
  opts.batch_window = std::chrono::microseconds(20000);
  InferenceServer server(net, dev(), opts);
  std::vector<Tensor<std::int32_t>> got(samples.size());
  {
    std::vector<std::thread> clients;
    for (std::size_t i = 0; i < samples.size(); ++i) {
      clients.emplace_back([&, i] { got[i] = server.infer(samples[i]); });
    }
    for (auto& t : clients) t.join();
  }
  for (std::size_t i = 0; i < samples.size(); ++i) {
    expect_same_logits(got[i], expected[i], static_cast<int>(i));
  }
  const InferenceServer::Stats stats = server.stats();
  EXPECT_EQ(stats.requests, static_cast<std::int64_t>(samples.size()));
  EXPECT_GE(stats.batches, 2);
  EXPECT_LE(stats.batches, 8);  // grouping may be imperfect under timing,
                                // but mixing buckets in one batch is not
                                // possible (the responses above prove it)
}

TEST(Server, BucketedRejectsOutOfRangeSequences) {
  const ModelSpec m = tiny_transformer();
  ApnnNetwork net = ApnnNetwork::random(m, 1, 2, 720);
  Rng rng(721);
  Tensor<std::int32_t> calib({1, m.input.h, m.input.w, m.input.c});
  calib.randomize(rng, 0, 255);
  net.calibrate(calib);
  InferenceServer server(net, dev());

  // Longer than the largest bucket: fails admission in its own call.
  try {
    server.infer(random_tokens(m.seq_buckets.back() + 1, m, 722));
    FAIL() << "expected kInvalidSample";
  } catch (const ServerError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kInvalidSample);
  }
  // Wrong feature width.
  Tensor<std::int32_t> bad({std::int64_t{32}, std::int64_t{1},
                            m.input.c + 1});
  try {
    server.infer(bad);
    FAIL() << "expected kInvalidSample";
  } catch (const ServerError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kInvalidSample);
  }
  // A healthy variable-length request still serves after the rejects.
  const Tensor<std::int32_t> ok = server.infer(random_tokens(48, m, 723));
  EXPECT_EQ(ok.numel(), 10);
}

}  // namespace
}  // namespace apnn::nn

