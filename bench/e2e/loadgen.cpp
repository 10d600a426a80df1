#include "bench/e2e/loadgen.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <memory>
#include <numeric>
#include <thread>

#include "src/common/rng.hpp"

namespace apnn::e2e {

namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Per-connection tallies, merged after the threads join.
struct ConnResult {
  std::vector<Outcome> outcomes;
  std::int64_t mismatched = 0;
  Clock::time_point last_done;
  std::exception_ptr error;
};

void drive_connection(const Traffic& t, int conn,
                      const std::vector<std::size_t>& order,
                      nn::wire::Client& client, Clock::time_point start,
                      double seconds, ConnResult& out) {
  const std::vector<Request>& pool = *t.pool;
  std::size_t next = order.size() * static_cast<std::size_t>(conn) /
                     static_cast<std::size_t>(t.connections);
  Rng rng(t.seed * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(conn) + 1);
  const double conn_rate = t.rate_rps / t.connections;
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  double due_s = 0;
  Clock::time_point prev_done = start;
  out.last_done = start;
  while (true) {
    Clock::time_point due;
    if (conn_rate > 0) {
      due_s += -std::log(1.0 - rng.uniform()) / conn_rate;
      if (due_s >= seconds) break;
      due = start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(due_s));
      std::this_thread::sleep_until(due);
    } else {
      due = Clock::now();
      if (due >= end) break;
    }
    const Request& req = pool[order[next++ % order.size()]];

    Outcome o;
    const Clock::time_point sent = Clock::now();
    bool ok = true;
    nn::wire::InferResponse resp;
    {
      const std::uint64_t rid = t.tracer != nullptr ? t.tracer->new_id() : 0;
      Span span(t.tracer, "client.infer", 0, rid);
      try {
        resp = client.infer_batch(req.frame);
      } catch (const nn::wire::RemoteError&) {
        ok = false;
      }
    }
    const Clock::time_point done = Clock::now();
    o.due_ms = ms_between(start, due);
    o.service_ms = ms_between(sent, done);
    o.late_ms = conn_rate > 0 ? ms_between(due, sent)
                              : ms_between(prev_done, sent);
    o.ok = ok;
    o.latency_ms = ok ? ms_between(due, done) : seconds * 1e3;
    if (ok) {
      if (resp.logits != req.golden) out.mismatched += 1;
      o.items = req.items;
    }
    out.outcomes.push_back(o);
    prev_done = done;
    out.last_done = done;
  }
}

}  // namespace

PhaseResult run_phase(const std::string& name, const Traffic& traffic,
                      double seconds) {
  // Connect first so connection set-up stays out of the measured phase.
  std::vector<std::unique_ptr<nn::wire::Client>> clients;
  for (int c = 0; c < traffic.connections; ++c) {
    clients.push_back(std::make_unique<nn::wire::Client>(traffic.port));
  }
  std::vector<std::size_t> order(traffic.pool->size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  Rng shuffle(traffic.seed);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[static_cast<std::size_t>(shuffle.uniform_int(
                                0, static_cast<std::int64_t>(i) - 1))]);
  }
  std::vector<ConnResult> results(static_cast<std::size_t>(traffic.connections));
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(2);
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < traffic.connections; ++c) {
      threads.emplace_back([&, c] {
        ConnResult& r = results[static_cast<std::size_t>(c)];
        try {
          drive_connection(traffic, c, order,
                           *clients[static_cast<std::size_t>(c)], start,
                           seconds, r);
        } catch (...) {
          r.error = std::current_exception();
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }

  PhaseResult p;
  p.name = name;
  p.offered_rps = traffic.rate_rps;
  p.connections = traffic.connections;
  Clock::time_point last = start;
  for (ConnResult& r : results) {
    if (r.error) std::rethrow_exception(r.error);
    p.outcomes.insert(p.outcomes.end(), r.outcomes.begin(), r.outcomes.end());
    p.mismatched += r.mismatched;
    last = std::max(last, r.last_done);
  }
  std::sort(p.outcomes.begin(), p.outcomes.end(),
            [](const Outcome& a, const Outcome& b) { return a.due_ms < b.due_ms; });
  p.wall_s = ms_between(start, last) / 1e3;
  p.sent = static_cast<std::int64_t>(p.outcomes.size());
  for (const Outcome& o : p.outcomes) (o.ok ? p.ok : p.failed) += 1;
  return p;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

namespace {

/// Number of equal windows of at least `min_size` out of `n` values.
std::size_t window_count(std::size_t n, std::int64_t min_size) {
  return std::max<std::size_t>(1, n / static_cast<std::size_t>(min_size));
}

/// The q-quantile of each of `count` equal windows of consecutive values.
std::vector<double> window_quantiles(const std::vector<double>& v, double q,
                                     std::size_t count) {
  std::vector<double> out;
  for (std::size_t w = 0; w < count; ++w) {
    const auto lo = static_cast<std::ptrdiff_t>(v.size() * w / count);
    const auto hi = static_cast<std::ptrdiff_t>(v.size() * (w + 1) / count);
    out.push_back(
        quantile(std::vector<double>(v.begin() + lo, v.begin() + hi), q));
  }
  return out;
}

}  // namespace

Summary summarize(const PhaseResult& phase) {
  Summary s;
  const std::vector<Outcome>& o = phase.outcomes;
  s.samples = static_cast<std::int64_t>(o.size());
  if (o.empty()) return s;
  std::vector<double> latency, late;
  for (const Outcome& x : o) {
    latency.push_back(x.latency_ms);
    late.push_back(x.late_ms);
  }
  s.late_p99_ms = quantile(late, 0.99);
  const std::size_t n = window_count(o.size(), kMinWindow);
  s.p50_ms = quantile(window_quantiles(latency, 0.50, n), 0.5);
  s.p90_ms = quantile(window_quantiles(latency, 0.90, n), 0.5);
  const std::vector<double> p99 = window_quantiles(
      latency, 0.99, window_count(o.size(), kMinTailWindow));
  s.tail_windows = static_cast<int>(p99.size());
  s.p99_ms = quantile(p99, 0.5);
  s.worst_window_p99_ms = *std::max_element(p99.begin(), p99.end());

  // Items completed in each of the equal ~1-s windows spanning the phase.
  if (!(phase.wall_s > 0)) return s;
  const std::size_t rate_windows =
      std::max<std::size_t>(1, static_cast<std::size_t>(phase.wall_s));
  const double window_ms = 1e3 * phase.wall_s / static_cast<double>(rate_windows);
  std::vector<double> per_s(rate_windows, 0.0);
  for (const Outcome& x : o) {
    const auto w = static_cast<std::size_t>((x.due_ms + x.latency_ms) / window_ms);
    per_s[std::min(w, rate_windows - 1)] +=
        static_cast<double>(x.items) / (window_ms / 1e3);
  }
  s.items_per_s = quantile(per_s, 0.5);
  return s;
}

}  // namespace apnn::e2e
