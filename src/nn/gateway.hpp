// The serving gateway: one loopback TCP listener multiplexing three
// protocols onto a ModelRegistry, sniffed from the first byte of each
// connection (none of the three can start with another's byte):
//
//   'A' (0x41)  the APGW binary protocol (src/nn/protocol.hpp) — INFER,
//               LIST, STATS, PING, and the admin ops LOAD/UNLOAD/RELOAD.
//               Persistent: one connection serves any number of frames.
//   '{' (0x7b)  the JSON line protocol — one request object per line, one
//               response object per line. Same operations, for humans and
//               scripts without a frame encoder (docs/PROTOCOL.md §6).
//   'G'/'H'     HTTP/1.x GET — /stats (Prometheus text), /healthz.
//               One request per connection, closed after the response.
//
// Threading: one accept loop, one thread per connection (loopback serving
// for a handful of bench/operator clients; finished connection slots are
// reaped on each accept). Request concurrency comes from connections — the
// per-model micro-batching and replica parallelism live in the registry's
// InferenceServers, not here.
//
// Error discipline: serving failures (deadline, queue full, unknown model,
// bad sample dims) answer an ERROR frame / {"ok":false} line and keep the
// connection; framing failures (bad magic, foreign version, oversized or
// truncated frame) answer when possible and then close — a peer that
// cannot frame cannot be resynchronized.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "src/common/net.hpp"
#include "src/nn/registry.hpp"

namespace apnn::nn::gw {

/// Fixed log-spaced latency histogram (sub-microsecond to ~an hour in
/// half-power-of-two steps). quantile() returns the upper bound of the
/// bucket holding the q-th sample — an overestimate by at most one bucket
/// width (~41%), stable regardless of request count.
class LatencyHistogram {
 public:
  void record(double ms);
  double quantile(double q) const;  ///< q in [0, 1]; 0 when empty
  std::int64_t count() const { return count_; }
  double sum_ms() const { return sum_ms_; }
  double max_ms() const { return max_ms_; }

  static constexpr int kBuckets = 64;

 private:
  std::int64_t counts_[kBuckets] = {};
  std::int64_t count_ = 0;
  double sum_ms_ = 0.0;
  double max_ms_ = 0.0;
};

struct GatewayOptions {
  int port = 0;  ///< 0 = ephemeral; the bound port is Gateway::port()
  std::size_t max_frame_bytes = wire::kDefaultMaxFrameBytes;
  /// Accept LOAD/UNLOAD/RELOAD over the wire. Off turns them into
  /// UNSUPPORTED_TYPE errors (a gateway whose model set is fixed at boot).
  bool allow_admin = true;
};

class Gateway {
 public:
  /// Binds the listener and starts the accept loop. `registry` must
  /// outlive the gateway.
  Gateway(ModelRegistry& registry, GatewayOptions opts = {});
  ~Gateway();

  Gateway(const Gateway&) = delete;
  Gateway& operator=(const Gateway&) = delete;

  /// The bound TCP port (resolved when options asked for 0).
  int port() const { return port_; }

  /// Stops accepting, shuts every open connection, joins all threads.
  /// In-flight requests inside the registry's servers still complete — the
  /// registry owns draining. Idempotent; the destructor calls it.
  void shutdown();

  /// The /stats document: every model's serving stats plus gateway-level
  /// connection/frame/error counters, in Prometheus text exposition format.
  std::string prometheus_text() const;

  /// Gateway-level counters (connections accepted, frames served, wire
  /// errors sent by code) — exported in prometheus_text(), exposed for
  /// tests.
  struct Counters {
    std::int64_t connections = 0;
    std::int64_t frames = 0;       ///< binary frames answered
    std::int64_t json_lines = 0;   ///< JSON requests answered
    std::int64_t http_requests = 0;
    std::map<std::uint16_t, std::int64_t> wire_errors;  ///< code -> sent
  };
  Counters counters() const;

 private:
  struct Conn {
    net::Socket sock;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void accept_loop();
  void serve_connection(Conn* conn);
  void serve_binary(net::Socket& sock);
  void serve_json(net::Socket& sock);
  void serve_http(net::Socket& sock);
  void reap_finished_locked();

  /// One connection's INFER buffers, reused frame to frame: the frame's
  /// codes widened into one {count, h, w, c} tensor, and its logits.
  struct FrameBuffers {
    Tensor<std::int32_t> codes;
    Tensor<std::int32_t> logits;
  };

  /// Runs one decoded INFER frame against the registry as one call,
  /// recording its wall time as one per-model latency observation. Throws
  /// wire::RemoteError / ServerError upward.
  wire::InferResponse run_infer(const wire::InferRequest& req,
                                FrameBuffers& buf);

  void count_wire_error(wire::WireError code);

  ModelRegistry& registry_;
  const GatewayOptions opts_;
  int port_ = 0;
  net::Socket listener_;
  std::thread accept_thread_;
  std::atomic<bool> stopping_{false};

  std::mutex conns_mu_;
  std::list<std::unique_ptr<Conn>> conns_;

  mutable std::mutex stats_mu_;
  Counters counters_;
  std::map<std::string, LatencyHistogram> latency_;  ///< by model id
};

}  // namespace apnn::nn::gw
