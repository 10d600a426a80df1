#include "src/nn/gateway.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/common/check.hpp"
#include "src/common/json.hpp"
#include "src/common/strings.hpp"
#include "src/common/timer.hpp"

namespace apnn::nn::gw {

// --- LatencyHistogram -------------------------------------------------------

namespace {

/// Bucket i spans (kBase * 2^((i-1)/2), kBase * 2^(i/2)] milliseconds.
constexpr double kHistBaseMs = 0.001;

int bucket_for(double ms) {
  if (!(ms > kHistBaseMs)) return 0;
  const int i = static_cast<int>(std::ceil(2.0 * std::log2(ms / kHistBaseMs)));
  return std::min(i, LatencyHistogram::kBuckets - 1);
}

double bucket_upper_ms(int i) {
  return kHistBaseMs * std::pow(2.0, static_cast<double>(i) / 2.0);
}

}  // namespace

void LatencyHistogram::record(double ms) {
  counts_[bucket_for(ms)] += 1;
  count_ += 1;
  sum_ms_ += ms;
  max_ms_ = std::max(max_ms_, ms);
}

double LatencyHistogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  const double clamped = std::min(1.0, std::max(0.0, q));
  // Rank of the q-th sample, 1-based: ceil(q * count), at least 1.
  const std::int64_t rank = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(
             std::ceil(clamped * static_cast<double>(count_))));
  std::int64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += counts_[i];
    if (seen >= rank) return std::min(bucket_upper_ms(i), max_ms_);
  }
  return max_ms_;
}

// --- Gateway ----------------------------------------------------------------

Gateway::Gateway(ModelRegistry& registry, GatewayOptions opts)
    : registry_(registry), opts_(opts) {
  listener_ = net::listen_loopback(opts_.port, /*backlog=*/64, &port_);
  accept_thread_ = std::thread([this] { accept_loop(); });
}

Gateway::~Gateway() { shutdown(); }

void Gateway::shutdown() {
  if (stopping_.exchange(true)) return;
  // Unblock accept() first (shutdown, not close: closing the fd while
  // accept() sleeps on it would race fd reuse), then every open connection.
  listener_.shutdown_both();
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.close();
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto& conn : conns_) conn->sock.shutdown_both();
  }
  // No new conns_ entries can appear (the accept loop is dead); joining
  // without the lock keeps connection exits from deadlocking against us.
  for (auto& conn : conns_) {
    if (conn->thread.joinable()) conn->thread.join();
  }
  conns_.clear();
}

void Gateway::reap_finished_locked() {
  for (auto it = conns_.begin(); it != conns_.end();) {
    if ((*it)->done.load()) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

void Gateway::accept_loop() {
  while (!stopping_.load()) {
    net::Socket sock = net::accept_conn(listener_);
    if (!sock.valid()) return;  // listener shut down
    auto conn = std::make_unique<Conn>();
    conn->sock = std::move(sock);
    Conn* raw = conn.get();
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      reap_finished_locked();
      conns_.push_back(std::move(conn));
    }
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      counters_.connections += 1;
    }
    raw->thread = std::thread([this, raw] { serve_connection(raw); });
  }
}

void Gateway::serve_connection(Conn* conn) {
  try {
    const int first = conn->sock.peek_byte();
    if (first == 'A') {
      serve_binary(conn->sock);
    } else if (first == '{') {
      serve_json(conn->sock);
    } else if (first == 'G' || first == 'H') {
      serve_http(conn->sock);
    } else if (first >= 0) {
      // Unrecognizable first byte: answer on the one protocol whose
      // decoder tolerates garbage (binary ERROR frame), then close.
      count_wire_error(wire::WireError::kMalformedFrame);
      wire::write_frame(
          conn->sock, wire::MsgType::kError,
          wire::encode_error_response(
              {wire::WireError::kMalformedFrame,
               strf("unrecognized protocol (first byte 0x%02x)", first)}));
    }
    // first < 0: the peer connected and left; nothing to do.
  } catch (...) {
    // Transport failures on a dying connection are the peer's problem;
    // the gateway must outlive every misbehaving client.
  }
  conn->sock.shutdown_both();
  conn->done.store(true);
}

void Gateway::count_wire_error(wire::WireError code) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  counters_.wire_errors[static_cast<std::uint16_t>(code)] += 1;
}

wire::InferResponse Gateway::run_infer(const wire::InferRequest& req,
                                       FrameBuffers& buf) {
  const InferenceServer::Deadline deadline =
      req.deadline_ms > 0
          ? std::chrono::steady_clock::now() +
                std::chrono::milliseconds(req.deadline_ms)
          : InferenceServer::kNoDeadline;
  buf.codes.reset_shape({req.count, req.h, req.w, req.c});
  APNN_CHECK(req.samples.size() == static_cast<std::size_t>(buf.codes.numel()))
      << "INFER carries " << req.samples.size() << " codes for "
      << buf.codes.numel();
  std::copy(req.samples.begin(), req.samples.end(), buf.codes.data());
  // The frame's samples are admitted together and may overlap across
  // replicas, so the frame is the one latency observation. A failed sample
  // fails the whole frame: the client sees one ERROR for the batch, never
  // a partial response (PROTOCOL.md §4.1).
  WallTimer timer;
  registry_.infer_frame(req.model, buf.codes, &buf.logits, deadline,
                        req.seq_len);
  const double ms = timer.millis();
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    latency_[req.model].record(ms);
  }
  wire::InferResponse resp;
  resp.count = req.count;
  resp.classes = static_cast<std::uint32_t>(buf.logits.dim(1));
  resp.logits.assign(buf.logits.data(),
                     buf.logits.data() + buf.logits.numel());
  return resp;
}

void Gateway::serve_binary(net::Socket& sock) {
  wire::Frame frame;
  FrameBuffers buf;
  while (true) {
    try {
      if (!wire::read_frame(sock, &frame, opts_.max_frame_bytes)) return;
    } catch (const wire::WireFormatError& e) {
      count_wire_error(e.code());
      try {
        wire::write_frame(sock, wire::MsgType::kError,
                          wire::encode_error_response({e.code(), e.what()}));
      } catch (...) {
      }
      return;  // framing is broken; no resynchronization
    } catch (const Error&) {
      return;  // transport died (EOF mid-frame, reset)
    }

    bool close_after_error = false;
    try {
      switch (frame.type) {
        case wire::MsgType::kInfer: {
          const wire::InferRequest req =
              wire::decode_infer_request(frame.payload);
          const wire::InferResponse resp = run_infer(req, buf);
          wire::write_frame(sock, wire::MsgType::kInferOk,
                            wire::encode_infer_response(resp));
          break;
        }
        case wire::MsgType::kStats: {
          wire::Reader(frame.payload).expect_end();
          const std::string text = prometheus_text();
          wire::write_frame(
              sock, wire::MsgType::kStatsOk,
              std::vector<std::uint8_t>(text.begin(), text.end()));
          break;
        }
        case wire::MsgType::kList: {
          wire::Reader(frame.payload).expect_end();
          wire::write_frame(sock, wire::MsgType::kListOk,
                            wire::encode_list_response(registry_.list()));
          break;
        }
        case wire::MsgType::kLoad: {
          wire::Reader r(frame.payload);
          ModelConfig cfg;
          cfg.id = r.str();
          cfg.path = r.str();
          r.expect_end();
          if (!opts_.allow_admin) {
            throw wire::RemoteError(wire::WireError::kUnsupportedType,
                                    "admin operations are disabled");
          }
          registry_.load(cfg);
          wire::write_frame(sock, wire::MsgType::kAdminOk, {});
          break;
        }
        case wire::MsgType::kUnload:
        case wire::MsgType::kReload: {
          wire::Reader r(frame.payload);
          const std::string id = r.str();
          r.expect_end();
          if (!opts_.allow_admin) {
            throw wire::RemoteError(wire::WireError::kUnsupportedType,
                                    "admin operations are disabled");
          }
          if (frame.type == wire::MsgType::kUnload) {
            registry_.unload(id);
          } else {
            registry_.reload(id);
          }
          wire::write_frame(sock, wire::MsgType::kAdminOk, {});
          break;
        }
        case wire::MsgType::kPing: {
          wire::Reader(frame.payload).expect_end();
          wire::write_frame(sock, wire::MsgType::kPong, {});
          break;
        }
        default:
          // Reply types (and unknown types) are not requests; this peer
          // is confused, so answer and close.
          close_after_error = true;
          throw wire::RemoteError(
              wire::WireError::kUnsupportedType,
              strf("message type 0x%02x is not a request",
                   static_cast<unsigned>(frame.type)));
      }
      std::lock_guard<std::mutex> lock(stats_mu_);
      counters_.frames += 1;
    } catch (const wire::WireFormatError& e) {
      // Malformed payload inside a well-framed message: answer, close.
      count_wire_error(e.code());
      try {
        wire::write_frame(sock, wire::MsgType::kError,
                          wire::encode_error_response({e.code(), e.what()}));
      } catch (...) {
      }
      return;
    } catch (const wire::RemoteError& e) {
      count_wire_error(e.code());
      try {
        wire::write_frame(sock, wire::MsgType::kError,
                          wire::encode_error_response({e.code(), e.what()}));
      } catch (...) {
        return;
      }
      if (close_after_error) return;
    } catch (const ServerError& e) {
      const wire::WireError code = wire::wire_error_for(e.kind());
      count_wire_error(code);
      try {
        wire::write_frame(sock, wire::MsgType::kError,
                          wire::encode_error_response({code, e.what()}));
      } catch (...) {
        return;
      }
    } catch (const Error& e) {
      count_wire_error(wire::WireError::kInternal);
      try {
        wire::write_frame(
            sock, wire::MsgType::kError,
            wire::encode_error_response({wire::WireError::kInternal,
                                         e.what()}));
      } catch (...) {
        return;
      }
    }
  }
}

// --- JSON line protocol -----------------------------------------------------

namespace {

std::string json_error_line(wire::WireError code, const std::string& msg) {
  return strf("{\"ok\":false,\"code\":\"%s\",\"error\":\"%s\"}\n",
              wire_error_name(code), json::escape(msg).c_str());
}

/// Required string member, or a malformed-frame error naming the key.
std::string need_str(const json::Value& v, const char* key) {
  const json::Value* m = v.find(key);
  if (m == nullptr || !m->is_string()) {
    throw wire::RemoteError(wire::WireError::kMalformedFrame,
                            strf("missing string field \"%s\"", key));
  }
  return m->str;
}

std::int64_t opt_int(const json::Value& v, const char* key,
                     std::int64_t fallback) {
  const json::Value* m = v.find(key);
  if (m == nullptr) return fallback;
  if (!m->is_number()) {
    throw wire::RemoteError(wire::WireError::kMalformedFrame,
                            strf("field \"%s\" is not a number", key));
  }
  return m->as_int64();
}

}  // namespace

void Gateway::serve_json(net::Socket& sock) {
  std::string buf;
  FrameBuffers frame_buf;
  char chunk[4096];
  while (true) {
    // Pull complete lines out of the buffer; refill from the socket when
    // none remains.
    const std::size_t nl = buf.find('\n');
    if (nl == std::string::npos) {
      if (buf.size() > opts_.max_frame_bytes) {
        const std::string err = json_error_line(
            wire::WireError::kFrameTooLarge,
            "JSON line exceeds the frame bound");
        count_wire_error(wire::WireError::kFrameTooLarge);
        sock.write_all(err.data(), err.size());
        return;
      }
      const std::size_t got = sock.read_some(chunk, sizeof(chunk));
      if (got == 0) return;  // EOF
      buf.append(chunk, got);
      continue;
    }
    const std::string line = buf.substr(0, nl);
    buf.erase(0, nl + 1);
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;

    std::string reply;
    try {
      const json::Value req = json::parse(line);
      if (!req.is_object()) {
        throw wire::RemoteError(wire::WireError::kMalformedFrame,
                                "request is not a JSON object");
      }
      const std::string op = need_str(req, "op");
      if (op == "infer") {
        wire::InferRequest ireq;
        ireq.model = need_str(req, "model");
        ireq.deadline_ms =
            static_cast<std::uint32_t>(opt_int(req, "deadline_ms", 0));
        ireq.count = 1;
        ireq.h = static_cast<std::uint16_t>(opt_int(req, "h", 0));
        ireq.w = static_cast<std::uint16_t>(opt_int(req, "w", 0));
        ireq.c = static_cast<std::uint16_t>(opt_int(req, "c", 0));
        ireq.seq_len =
            static_cast<std::uint16_t>(opt_int(req, "seq_len", 0));
        if (ireq.seq_len != 0 && ireq.seq_len != ireq.h) {
          throw wire::RemoteError(
              wire::WireError::kMalformedFrame,
              strf("seq_len %u does not match h %u", ireq.seq_len, ireq.h));
        }
        const json::Value* sample = req.find("sample");
        if (sample == nullptr || !sample->is_array()) {
          throw wire::RemoteError(wire::WireError::kMalformedFrame,
                                  "missing array field \"sample\"");
        }
        const std::size_t expect =
            static_cast<std::size_t>(ireq.h) * ireq.w * ireq.c;
        if (ireq.h == 0 || ireq.w == 0 || ireq.c == 0 ||
            sample->array.size() != expect) {
          throw wire::RemoteError(
              wire::WireError::kMalformedFrame,
              strf("sample has %zu values; h*w*c = %zu", sample->array.size(),
                   expect));
        }
        ireq.samples.reserve(expect);
        for (const json::Value& v : sample->array) {
          const std::int64_t code = v.as_int64();
          if (code < 0 || code > 255) {
            throw wire::RemoteError(
                wire::WireError::kInvalidSample,
                strf("sample value %lld is not an 8-bit code",
                     static_cast<long long>(code)));
          }
          ireq.samples.push_back(static_cast<std::uint8_t>(code));
        }
        const wire::InferResponse resp = run_infer(ireq, frame_buf);
        reply = strf("{\"ok\":true,\"classes\":%u,\"logits\":[",
                     resp.classes);
        for (std::size_t i = 0; i < resp.logits.size(); ++i) {
          reply += strf(i == 0 ? "%d" : ",%d", resp.logits[i]);
        }
        reply += "]}\n";
      } else if (op == "list") {
        reply = "{\"ok\":true,\"models\":[";
        bool first = true;
        for (const wire::ModelDescriptor& m : registry_.list()) {
          reply += strf(
              "%s{\"id\":\"%s\",\"h\":%u,\"w\":%u,\"c\":%u,\"classes\":%u,"
              "\"generation\":%u}",
              first ? "" : ",", json::escape(m.id).c_str(), m.h, m.w, m.c,
              m.classes, m.generation);
          first = false;
        }
        reply += "]}\n";
      } else if (op == "stats") {
        reply = strf("{\"ok\":true,\"stats\":\"%s\"}\n",
                     json::escape(prometheus_text()).c_str());
      } else if (op == "ping") {
        reply = "{\"ok\":true}\n";
      } else if (op == "load" || op == "unload" || op == "reload") {
        if (!opts_.allow_admin) {
          throw wire::RemoteError(wire::WireError::kUnsupportedType,
                                  "admin operations are disabled");
        }
        const std::string id = need_str(req, "model");
        if (op == "load") {
          ModelConfig cfg;
          cfg.id = id;
          cfg.path = need_str(req, "path");
          registry_.load(cfg);
        } else if (op == "unload") {
          registry_.unload(id);
        } else {
          registry_.reload(id);
        }
        reply = "{\"ok\":true}\n";
      } else {
        throw wire::RemoteError(wire::WireError::kUnsupportedType,
                                strf("unknown op \"%s\"", op.c_str()));
      }
      std::lock_guard<std::mutex> lock(stats_mu_);
      counters_.json_lines += 1;
    } catch (const wire::RemoteError& e) {
      count_wire_error(e.code());
      reply = json_error_line(e.code(), e.what());
    } catch (const ServerError& e) {
      const wire::WireError code = wire::wire_error_for(e.kind());
      count_wire_error(code);
      reply = json_error_line(code, e.what());
    } catch (const Error& e) {
      // json::parse failures land here: malformed request line.
      count_wire_error(wire::WireError::kMalformedFrame);
      reply = json_error_line(wire::WireError::kMalformedFrame, e.what());
    }
    sock.write_all(reply.data(), reply.size());
  }
}

// --- HTTP (GET /stats, /healthz) --------------------------------------------

void Gateway::serve_http(net::Socket& sock) {
  std::string req;
  char chunk[2048];
  while (req.find("\r\n\r\n") == std::string::npos) {
    if (req.size() > 16384) return;  // header flood; drop
    const std::size_t got = sock.read_some(chunk, sizeof(chunk));
    if (got == 0) break;
    req.append(chunk, got);
  }
  const std::size_t line_end = req.find("\r\n");
  const std::string request_line =
      line_end == std::string::npos ? req : req.substr(0, line_end);

  std::string body;
  const char* status = "200 OK";
  const char* content_type = "text/plain; version=0.0.4; charset=utf-8";
  if (request_line.rfind("GET /stats", 0) == 0) {
    body = prometheus_text();
  } else if (request_line.rfind("GET /healthz", 0) == 0) {
    content_type = "text/plain; charset=utf-8";
    body = "ok\n";
  } else {
    status = "404 Not Found";
    content_type = "text/plain; charset=utf-8";
    body = "only GET /stats and GET /healthz are served\n";
  }
  const std::string response = strf(
      "HTTP/1.0 %s\r\nContent-Type: %s\r\nContent-Length: %zu\r\n"
      "Connection: close\r\n\r\n%s",
      status, content_type, body.size(), body.c_str());
  sock.write_all(response.data(), response.size());
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    counters_.http_requests += 1;
  }
}

// --- /stats document --------------------------------------------------------

namespace {

void metric_header(std::string& out, const char* name, const char* help,
                   const char* type) {
  out += strf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, type);
}

}  // namespace

std::string Gateway::prometheus_text() const {
  const std::vector<ModelRegistry::ModelStats> models = registry_.stats();
  Counters counters;
  std::map<std::string, LatencyHistogram> latency;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    counters = counters_;
    latency = latency_;
  }

  std::string out;
  metric_header(out, "apnn_gateway_connections_total",
                "Connections accepted by the gateway listener.", "counter");
  out += strf("apnn_gateway_connections_total %lld\n",
              static_cast<long long>(counters.connections));
  metric_header(out, "apnn_gateway_requests_total",
                "Requests answered, by protocol.", "counter");
  out += strf("apnn_gateway_requests_total{protocol=\"binary\"} %lld\n",
              static_cast<long long>(counters.frames));
  out += strf("apnn_gateway_requests_total{protocol=\"json\"} %lld\n",
              static_cast<long long>(counters.json_lines));
  out += strf("apnn_gateway_requests_total{protocol=\"http\"} %lld\n",
              static_cast<long long>(counters.http_requests));
  metric_header(out, "apnn_gateway_wire_errors_total",
                "ERROR responses sent, by wire error code.", "counter");
  for (const auto& [code, count] : counters.wire_errors) {
    out += strf(
        "apnn_gateway_wire_errors_total{code=\"%u\",name=\"%s\"} %lld\n",
        code, wire::wire_error_name(static_cast<wire::WireError>(code)),
        static_cast<long long>(count));
  }
  metric_header(out, "apnn_gateway_models", "Models currently routed.",
                "gauge");
  out += strf("apnn_gateway_models %zu\n", models.size());

  metric_header(out, "apnn_model_generation",
                "Load generation of the routed model (bumps on reload).",
                "gauge");
  for (const auto& m : models) {
    out += strf("apnn_model_generation{model=\"%s\"} %u\n", m.id.c_str(),
                m.generation);
  }
  metric_header(out, "apnn_model_topology",
                "Resolved serving topology of the model's pool.", "gauge");
  for (const auto& m : models) {
    out += strf("apnn_model_topology{model=\"%s\",dim=\"replicas\"} %d\n",
                m.id.c_str(), m.replicas);
    out += strf(
        "apnn_model_topology{model=\"%s\",dim=\"slice_threads\"} %d\n",
        m.id.c_str(), m.slice_threads);
  }
  metric_header(out, "apnn_model_requests_total",
                "Samples served successfully.", "counter");
  for (const auto& m : models) {
    out += strf("apnn_model_requests_total{model=\"%s\"} %lld\n",
                m.id.c_str(), static_cast<long long>(m.stats.requests));
  }
  metric_header(out, "apnn_model_batches_total",
                "Micro-batches dispatched across all replicas.", "counter");
  for (const auto& m : models) {
    out += strf("apnn_model_batches_total{model=\"%s\"} %lld\n",
                m.id.c_str(), static_cast<long long>(m.stats.batches));
  }
  metric_header(out, "apnn_model_max_batch",
                "Largest micro-batch formed so far.", "gauge");
  for (const auto& m : models) {
    out += strf("apnn_model_max_batch{model=\"%s\"} %lld\n", m.id.c_str(),
                static_cast<long long>(m.stats.max_batch));
  }
  metric_header(out, "apnn_model_queue_depth",
                "Requests in the admission queue right now.", "gauge");
  for (const auto& m : models) {
    out += strf("apnn_model_queue_depth{model=\"%s\"} %lld\n", m.id.c_str(),
                static_cast<long long>(m.stats.queue_depth));
  }
  metric_header(out, "apnn_model_peak_queue_depth",
                "High-water mark of the admission queue.", "gauge");
  for (const auto& m : models) {
    out += strf("apnn_model_peak_queue_depth{model=\"%s\"} %lld\n",
                m.id.c_str(),
                static_cast<long long>(m.stats.peak_queue_depth));
  }
  metric_header(out, "apnn_model_errors_total",
                "Failed requests, by ErrorKind.", "counter");
  for (const auto& m : models) {
    for (std::size_t k = 0; k < kErrorKindCount; ++k) {
      out += strf("apnn_model_errors_total{model=\"%s\",kind=\"%s\"} %lld\n",
                  m.id.c_str(),
                  error_kind_name(static_cast<ErrorKind>(k)),
                  static_cast<long long>(m.stats.error_counts[k]));
    }
  }
  metric_header(out, "apnn_model_replica_restarts_total",
                "Replica self-healing restarts.", "counter");
  for (const auto& m : models) {
    out += strf("apnn_model_replica_restarts_total{model=\"%s\"} %lld\n",
                m.id.c_str(),
                static_cast<long long>(m.stats.replica_restarts));
  }
  metric_header(
      out, "apnn_model_replica_health",
      "Replica health (0 healthy, 1 restarting, 2 quarantined).", "gauge");
  for (const auto& m : models) {
    for (std::size_t r = 0; r < m.stats.replica_health.size(); ++r) {
      out += strf(
          "apnn_model_replica_health{model=\"%s\",replica=\"%zu\","
          "state=\"%s\"} %d\n",
          m.id.c_str(), r, replica_health_name(m.stats.replica_health[r]),
          static_cast<int>(m.stats.replica_health[r]));
    }
  }
  metric_header(out, "apnn_model_replica_batches_total",
                "Micro-batches dispatched, per replica.", "counter");
  for (const auto& m : models) {
    for (std::size_t r = 0; r < m.stats.replica_batches.size(); ++r) {
      out += strf(
          "apnn_model_replica_batches_total{model=\"%s\",replica=\"%zu\"} "
          "%lld\n",
          m.id.c_str(), r,
          static_cast<long long>(m.stats.replica_batches[r]));
    }
  }
  metric_header(out, "apnn_model_latency_ms",
                "Gateway-measured per-frame serving latency quantiles "
                "(log-bucket upper bounds).",
                "summary");
  for (const auto& m : models) {
    const auto it = latency.find(m.id);
    if (it == latency.end()) continue;
    const LatencyHistogram& h = it->second;
    for (const double q : {0.5, 0.9, 0.99}) {
      out += strf("apnn_model_latency_ms{model=\"%s\",quantile=\"%g\"} %.3f\n",
                  m.id.c_str(), q, h.quantile(q));
    }
    out += strf("apnn_model_latency_ms_sum{model=\"%s\"} %.3f\n",
                m.id.c_str(), h.sum_ms());
    out += strf("apnn_model_latency_ms_count{model=\"%s\"} %lld\n",
                m.id.c_str(), static_cast<long long>(h.count()));
    out += strf("apnn_model_latency_ms_max{model=\"%s\"} %.3f\n",
                m.id.c_str(), h.max_ms());
  }
  return out;
}

Gateway::Counters Gateway::counters() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return counters_;
}

}  // namespace apnn::nn::gw
