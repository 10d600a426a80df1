// Fault-injection drills for the deadline-aware request lifecycle and the
// self-healing replica pool (runs in CI under TSan with every site armed):
//   * every faultinject site is driven: session.run, replica.dispatch,
//     server.admission;
//   * an injected replica crash fails exactly the requests that replica
//     held (typed kReplicaFailed), the monitor restarts the replica, and
//     every non-injected request before/after is served bit-exact; a frame
//     that loses a batch fails whole and withdraws its queued rest;
//   * repeated crashes quarantine the replica; with no replicas left the
//     server fails fast instead of stranding clients;
//   * a stuck dispatch cycle unblocks its waiting clients long before the
//     stall resolves, then the replica recovers;
//   * deadlines fail fast at every lifecycle stage: admission, blocked on
//     backpressure, and queued behind a stalled replica;
//   * shutdown racing deadline expiry never strands or double-completes a
//     request.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <string>
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
                        const Tensor<std::int32_t>& want, int which) {
  ASSERT_EQ(got.numel(), want.numel()) << "request " << which;
  for (std::int64_t j = 0; j < got.numel(); ++j) {
    EXPECT_EQ(got[j], want[j]) << "request " << which << " logit " << j;
  }
}

// Every test arms sites; none may leak arming into the next test.
struct ChaosTest : ::testing::Test {
  ~ChaosTest() override { faultinject::disarm_all(); }
};

// Polls `pred` until it holds or `timeout` passes (sanitizer-friendly: no
// fixed sleep long enough to matter when the condition is already true).
bool eventually(const std::function<bool()>& pred,
                std::chrono::milliseconds timeout =
                    std::chrono::milliseconds(10000)) {
  const auto give_up = std::chrono::steady_clock::now() + timeout;
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= give_up) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return true;
}

struct Fixture {
  ModelSpec m;
  ApnnNetwork net;
  std::vector<Tensor<std::int32_t>> samples;
  std::vector<Tensor<std::int32_t>> golden;

  explicit Fixture(int n_samples, std::uint64_t seed = 500)
      : m(mini_cnn(4, 8, 5)), net(ApnnNetwork::random(m, 1, 2, seed)) {
    net.calibrate(random_input(1, m, seed + 1));
    // Goldens run before any site is armed: unarmed sites count no
    // traversals, so fault ordinals below start at the serving work.
    InferenceSession session(net, dev());
    for (int i = 0; i < n_samples; ++i) {
      samples.push_back(random_input(1, m, seed + 2 + static_cast<unsigned>(i)));
      golden.push_back(session.run(samples.back()));
    }
  }
};

ErrorKind infer_error_kind(InferenceServer& server,
                           const Tensor<std::int32_t>& sample,
                           InferenceServer::Deadline deadline =
                               InferenceServer::kNoDeadline) {
  try {
    server.infer(sample, deadline);
  } catch (const ServerError& e) {
    return e.kind();
  }
  ADD_FAILURE() << "infer() unexpectedly succeeded";
  return ErrorKind::kReplicaFailed;
}

// --- replica crash + self-healing -------------------------------------------

TEST_F(ChaosTest, ReplicaCrashFailsItsBatchRestartsAndStaysBitExact) {
  Fixture f(4);
  ServerOptions opts;
  opts.replicas = 1;
  opts.max_batch = 2;
  InferenceServer server(f.net, dev(), opts);

  // First dispatch dies right after dequeue: the request it held fails with
  // the typed replica error, not the raw injected exception.
  faultinject::arm(faultinject::kReplicaDispatch, 1);
  EXPECT_EQ(infer_error_kind(server, f.samples[0]),
            ErrorKind::kReplicaFailed);
  EXPECT_EQ(faultinject::fires(faultinject::kReplicaDispatch), 1);

  // The monitor joins the dead dispatcher and brings a fresh one up.
  ASSERT_TRUE(eventually([&] {
    const auto st = server.stats();
    return st.replica_restarts >= 1 &&
           st.replica_health[0] == ReplicaHealth::kHealthy;
  }));

  // Everything after the crash is served bit-exact by the restarted replica.
  for (std::size_t i = 0; i < f.samples.size(); ++i) {
    expect_same_logits(server.infer(f.samples[i]), f.golden[i],
                       static_cast<int>(i));
  }
  const auto st = server.stats();
  EXPECT_EQ(st.errors(ErrorKind::kReplicaFailed), 1);
  EXPECT_EQ(st.requests, static_cast<std::int64_t>(f.samples.size()));
}

TEST_F(ChaosTest, ReplicaCrashMidFrameFailsTheFrameAndWithdrawsTheRest) {
  Fixture f(0);
  ServerOptions opts;
  opts.replicas = 1;
  opts.max_batch = 4;
  InferenceServer server(f.net, dev(), opts);

  // The first batch (samples 0-3) dies with its replica; samples 4-7 are
  // still queued and are withdrawn, so nothing of the frame outlives it.
  faultinject::arm(faultinject::kReplicaDispatch, 1);
  const Tensor<std::int32_t> frame = random_input(8, f.m, 520);
  Tensor<std::int32_t> logits;
  try {
    server.infer_frame(frame, &logits);
    ADD_FAILURE() << "infer_frame() unexpectedly succeeded";
  } catch (const ServerError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kReplicaFailed);
  }
  auto st = server.stats();
  EXPECT_EQ(st.queue_depth, 0);
  EXPECT_EQ(st.errors(ErrorKind::kReplicaFailed), 4);
  // The restarted replica may have served the tail before the withdrawal.
  EXPECT_TRUE(st.requests == 0 || st.requests == 4) << st.requests;

  ASSERT_TRUE(eventually([&] {
    return server.stats().replica_restarts >= 1;
  }));
  server.infer_frame(frame, &logits);
  InferenceSession session(f.net, dev());
  const Tensor<std::int32_t> want = session.run(frame);
  expect_same_logits(logits, want, 0);
}

TEST_F(ChaosTest, SessionRunFaultEscalatesToReplicaFailureAndHeals) {
  Fixture f(3);
  ServerOptions opts;
  opts.replicas = 1;
  InferenceServer server(f.net, dev(), opts);

  // The compiled forward pass itself throws: same contract as a dispatch
  // crash — typed failure for the batch, restart, bit-exact afterwards.
  faultinject::arm(faultinject::kSessionRun, 1);
  EXPECT_EQ(infer_error_kind(server, f.samples[0]),
            ErrorKind::kReplicaFailed);
  ASSERT_TRUE(eventually([&] {
    return server.stats().replica_restarts >= 1;
  }));
  for (std::size_t i = 0; i < f.samples.size(); ++i) {
    expect_same_logits(server.infer(f.samples[i]), f.golden[i],
                       static_cast<int>(i));
  }
}

TEST_F(ChaosTest, RepeatedCrashesQuarantineAndThenFailFast) {
  Fixture f(1);
  ServerOptions opts;
  opts.replicas = 1;
  opts.max_replica_restarts = 0;  // first crash is one too many
  InferenceServer server(f.net, dev(), opts);

  faultinject::arm(faultinject::kReplicaDispatch, 1, /*repeat=*/-1);
  EXPECT_EQ(infer_error_kind(server, f.samples[0]),
            ErrorKind::kReplicaFailed);

  // The monitor quarantines instead of restarting; with no replica left the
  // server must fail admissions immediately, not strand them.
  ASSERT_TRUE(eventually([&] {
    return server.stats().replica_health[0] == ReplicaHealth::kQuarantined;
  }));
  EXPECT_EQ(infer_error_kind(server, f.samples[0]),
            ErrorKind::kReplicaFailed);
  const auto st = server.stats();
  EXPECT_EQ(st.replica_restarts, 0);
  EXPECT_EQ(st.requests, 0);
}

TEST_F(ChaosTest, StuckReplicaUnblocksClientsPromptlyThenRecovers) {
  Fixture f(2);
  ServerOptions opts;
  opts.replicas = 1;
  opts.stuck_threshold = std::chrono::milliseconds(50);
  InferenceServer server(f.net, dev(), opts);

  // The first dispatch stalls for 600 ms — far past the 50 ms watchdog. The
  // waiting client must be failed by the monitor mid-stall, not ride out
  // the sleep.
  faultinject::arm(faultinject::kReplicaDispatch, 1, /*repeat=*/1,
                   std::chrono::milliseconds(600));
  const auto before = std::chrono::steady_clock::now();
  EXPECT_EQ(infer_error_kind(server, f.samples[0]),
            ErrorKind::kReplicaFailed);
  const auto waited = std::chrono::steady_clock::now() - before;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(waited)
                .count(),
            500)
      << "client should unblock at the watchdog, not at the end of the stall";

  // Once the stalled cycle returns the replica retires and is restarted.
  ASSERT_TRUE(eventually([&] {
    const auto st = server.stats();
    return st.replica_restarts >= 1 &&
           st.replica_health[0] == ReplicaHealth::kHealthy;
  }));
  for (std::size_t i = 0; i < f.samples.size(); ++i) {
    expect_same_logits(server.infer(f.samples[i]), f.golden[i],
                       static_cast<int>(i));
  }
}

// --- admission fault ---------------------------------------------------------

TEST_F(ChaosTest, AdmissionFaultHitsOnlyItsCaller) {
  Fixture f(2);
  ServerOptions opts;
  opts.replicas = 1;
  InferenceServer server(f.net, dev(), opts);

  faultinject::arm(faultinject::kAdmission, 1);
  EXPECT_THROW(server.infer(f.samples[0]), faultinject::FaultInjected);
  // The fault fired before the request existed: no replica saw it, and the
  // very next request sails through bit-exact.
  expect_same_logits(server.infer(f.samples[1]), f.golden[1], 1);
  const auto st = server.stats();
  EXPECT_EQ(st.requests, 1);
  EXPECT_EQ(st.replica_restarts, 0);
}

// --- deadlines at every lifecycle stage --------------------------------------

TEST_F(ChaosTest, ExpiredDeadlineFailsAtAdmission) {
  Fixture f(1);
  ServerOptions opts;
  opts.replicas = 1;
  InferenceServer server(f.net, dev(), opts);

  const auto past =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  EXPECT_EQ(infer_error_kind(server, f.samples[0], past),
            ErrorKind::kDeadlineExceeded);
  const auto st = server.stats();
  EXPECT_EQ(st.errors(ErrorKind::kDeadlineExceeded), 1);
  EXPECT_EQ(st.requests, 0);

  // A budget that cannot be met behaves identically via the convenience
  // overload.
  EXPECT_THROW(server.infer(f.samples[0], std::chrono::milliseconds(0)),
               ServerError);
}

TEST_F(ChaosTest, DeadlineExpiresWhileQueuedBehindAStalledReplica) {
  Fixture f(2);
  ServerOptions opts;
  opts.replicas = 1;
  opts.max_batch = 1;  // the urgent request can never join the first batch
  InferenceServer server(f.net, dev(), opts);

  // Request A occupies the lone replica for 400 ms; request B's 50 ms
  // deadline expires while it sits queued. It must fail at dequeue —
  // before occupying a batch slot — and never reach a session run.
  faultinject::arm(faultinject::kReplicaDispatch, 1, /*repeat=*/1,
                   std::chrono::milliseconds(400));
  std::thread a([&] {
    expect_same_logits(server.infer(f.samples[0]), f.golden[0], 0);
  });
  // A is dequeued as soon as the dispatcher sees it; give it a beat.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(infer_error_kind(
                server, f.samples[1],
                std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(50)),
            ErrorKind::kDeadlineExceeded);
  a.join();
  const auto st = server.stats();
  EXPECT_EQ(st.requests, 1);  // only A produced logits
  EXPECT_EQ(st.errors(ErrorKind::kDeadlineExceeded), 1);
}

TEST_F(ChaosTest, DeadlineExpiresWhileBlockedOnBackpressure) {
  Fixture f(3);
  ServerOptions opts;
  opts.replicas = 1;
  opts.max_batch = 1;
  opts.max_queue = 1;
  opts.admission = ServerOptions::Admission::kBlock;
  InferenceServer server(f.net, dev(), opts);

  // A stalls the replica, B fills the one-slot queue, so C blocks on
  // admission. C's deadline must cut the wait short — well before the
  // stall resolves.
  faultinject::arm(faultinject::kReplicaDispatch, 1, /*repeat=*/1,
                   std::chrono::milliseconds(500));
  std::thread a([&] {
    expect_same_logits(server.infer(f.samples[0]), f.golden[0], 0);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  std::thread b([&] {
    expect_same_logits(server.infer(f.samples[1]), f.golden[1], 1);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  const auto before = std::chrono::steady_clock::now();
  EXPECT_EQ(infer_error_kind(server, f.samples[2],
                             before + std::chrono::milliseconds(60)),
            ErrorKind::kDeadlineExceeded);
  const auto waited = std::chrono::steady_clock::now() - before;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(waited)
                .count(),
            350)
      << "backpressure wait must end at the deadline, not at queue space";
  a.join();
  b.join();
  EXPECT_EQ(server.stats().errors(ErrorKind::kDeadlineExceeded), 1);
}

// --- shutdown races ----------------------------------------------------------

TEST_F(ChaosTest, ShutdownRacingDeadlineExpiryNeverStrandsAClient) {
  Fixture f(1);
  for (int round = 0; round < 8; ++round) {
    ServerOptions opts;
    opts.replicas = 1;
    opts.max_batch = 4;
    InferenceServer server(f.net, dev(), opts);
    std::vector<std::thread> clients;
    for (int c = 0; c < 4; ++c) {
      clients.emplace_back([&] {
        try {
          server.infer(f.samples[0], std::chrono::milliseconds(1));
        } catch (const ServerError& e) {
          // Whichever wins the race, the failure is typed; anything else
          // (or a hang, which the join below would become) is a bug.
          EXPECT_TRUE(e.kind() == ErrorKind::kDeadlineExceeded ||
                      e.kind() == ErrorKind::kShuttingDown)
              << error_kind_name(e.kind());
        }
      });
    }
    if (round % 2 == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    server.shutdown();  // drain races the 1 ms deadlines (and late arrivals)
    for (auto& t : clients) t.join();
  }
}

}  // namespace
}  // namespace apnn::nn
