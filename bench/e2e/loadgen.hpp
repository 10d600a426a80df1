// Load generation over the APGW wire protocol, one wire::Client connection
// per client thread.
//
// A phase is either an open loop (Poisson arrivals at a fixed offered rate,
// split evenly over the connections; each request is timed from when it was
// due, so a stalled response delays and charges the requests queued behind
// it) or a closed loop (each connection sends its next request as soon as the
// previous response lands). Every response is compared bit for bit against
// the request's golden logits.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench/e2e/trace.hpp"
#include "src/nn/protocol.hpp"

namespace apnn::e2e {

/// One pre-encoded INFER frame and the logits a correct gateway returns.
struct Request {
  nn::wire::InferRequest frame;
  std::vector<std::int32_t> golden;  ///< frame.count * classes values
  std::int64_t items = 1;  ///< work the request carries: samples or tokens
};

/// One request as the client saw it. Times are milliseconds.
struct Outcome {
  double due_ms = 0;      ///< since phase start (closed loop: the send time)
  double latency_ms = 0;  ///< due -> response; a failure counts as the
                          ///< whole phase length (it misses any limit)
  double service_ms = 0;  ///< send -> response
  double late_ms = 0;     ///< open loop: send - due; closed loop: the gap
                          ///< between the previous response and this send
  bool ok = false;
  std::int64_t items = 0;  ///< Request::items when ok, else 0
};

struct PhaseResult {
  std::string name;
  double offered_rps = 0;  ///< 0 for a closed loop
  int connections = 0;
  double wall_s = 0;        ///< phase start to the last response
  std::vector<Outcome> outcomes;  ///< ordered by due time
  std::int64_t sent = 0, ok = 0, failed = 0, mismatched = 0;
};

struct Traffic {
  int port = 0;
  /// Sent in a seeded random order, each request equally often; the
  /// connections start at evenly spaced points of that order.
  const std::vector<Request>* pool = nullptr;
  int connections = 1;
  double rate_rps = 0;  ///< total offered rate; 0 = closed loop
  std::uint64_t seed = 0;
  Tracer* tracer = nullptr;  ///< records a client.infer span per request
};

/// Runs `seconds` of traffic and waits for every response. Typed serving
/// errors (ERROR frames) count as failures; a transport failure throws.
PhaseResult run_phase(const std::string& name, const Traffic& traffic,
                      double seconds);

/// Nearest-rank quantile, q in [0, 1]. 0 for an empty input.
double quantile(std::vector<double> v, double q);

/// Summary of a phase. Each figure is a median over windows: latency
/// quantiles over equal windows of consecutive requests (at least
/// kMinWindow requests for p50 and p90, kMinTailWindow for p99, so at least
/// ten lie beyond each quantile), the rate over equal time windows of about
/// a second. A stall then moves a few windows instead of the whole figure.
struct Summary {
  double p50_ms = 0;
  double p90_ms = 0;
  double p99_ms = 0;
  double worst_window_p99_ms = 0;
  double late_p99_ms = 0;    ///< over all requests
  double items_per_s = 0;    ///< Outcome::items completed per second
  int tail_windows = 0;      ///< windows behind p99_ms
  std::int64_t samples = 0;
};
inline constexpr std::int64_t kMinWindow = 100;
inline constexpr std::int64_t kMinTailWindow = 1000;
Summary summarize(const PhaseResult& phase);

}  // namespace apnn::e2e
