#include "src/nn/registry.hpp"

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "src/common/check.hpp"
#include "src/common/strings.hpp"
#include "src/nn/serialize.hpp"

namespace apnn::nn::gw {

namespace {

std::string trim(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t' || s[b] == '\r')) ++b;
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t' || s[e - 1] == '\r')) {
    --e;
  }
  return s.substr(b, e - b);
}

std::int64_t parse_int(const std::string& v, int lineno, const char* key) {
  char* end = nullptr;
  const long long x = std::strtoll(v.c_str(), &end, 10);
  APNN_CHECK(end == v.c_str() + v.size() && !v.empty())
      << "config line " << lineno << ": " << key << " = '" << v
      << "' is not an integer";
  return x;
}

/// `where` names the value's origin in the error ("config line 7").
ServerOptions::Admission admission_for(const std::string& s,
                                       const std::string& where) {
  if (s == "block") return ServerOptions::Admission::kBlock;
  if (s == "reject") return ServerOptions::Admission::kReject;
  throw Error(strf("%s: admission '%s' is not block|reject", where.c_str(),
                   s.c_str()));
}

}  // namespace

GatewayConfig parse_gateway_config(const std::string& text) {
  GatewayConfig cfg;
  ModelConfig* cur = nullptr;
  std::istringstream in(text);
  std::string raw;
  int lineno = 0;
  while (std::getline(in, raw)) {
    ++lineno;
    const std::size_t hash = raw.find_first_of("#;");
    std::string line = trim(hash == std::string::npos ? raw
                                                      : raw.substr(0, hash));
    if (line.empty()) continue;

    if (line.front() == '[') {
      APNN_CHECK(line.back() == ']')
          << "config line " << lineno << ": unterminated section header";
      const std::string inner = trim(line.substr(1, line.size() - 2));
      APNN_CHECK(inner.rfind("model ", 0) == 0)
          << "config line " << lineno << ": only [model <id>] sections are "
          << "recognized, got [" << inner << "]";
      const std::string id = trim(inner.substr(6));
      APNN_CHECK(!id.empty())
          << "config line " << lineno << ": [model] needs an id";
      for (const ModelConfig& m : cfg.models) {
        APNN_CHECK(m.id != id) << "config line " << lineno
                               << ": duplicate model id '" << id << "'";
      }
      cfg.models.emplace_back();
      cur = &cfg.models.back();
      cur->id = id;
      continue;
    }

    const std::size_t eq = line.find('=');
    APNN_CHECK(eq != std::string::npos)
        << "config line " << lineno << ": expected key = value, got '" << line
        << "'";
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    APNN_CHECK(!key.empty() && !value.empty())
        << "config line " << lineno << ": empty key or value";

    if (cur == nullptr) {
      if (key == "port") {
        const std::int64_t p = parse_int(value, lineno, "port");
        APNN_CHECK(p >= 0 && p <= 65535)
            << "config line " << lineno << ": port " << p << " out of range";
        cfg.port = static_cast<int>(p);
      } else if (key == "max_frame_bytes") {
        const std::int64_t b = parse_int(value, lineno, "max_frame_bytes");
        APNN_CHECK(b >= static_cast<std::int64_t>(wire::kHeaderBytes))
            << "config line " << lineno << ": max_frame_bytes too small";
        cfg.max_frame_bytes = static_cast<std::size_t>(b);
      } else if (key == "device") {
        APNN_CHECK(value == "3090" || value == "a100")
            << "config line " << lineno << ": device must be 3090|a100";
        cfg.device = value;
      } else {
        throw Error(strf("config line %d: unknown gateway key '%s'", lineno,
                         key.c_str()));
      }
      continue;
    }

    if (key == "path") {
      cur->path = value;
    } else if (key == "max_batch") {
      cur->max_batch = parse_int(value, lineno, "max_batch");
      APNN_CHECK(cur->max_batch >= 1)
          << "config line " << lineno << ": max_batch must be >= 1";
    } else if (key == "replicas") {
      cur->replicas = static_cast<int>(parse_int(value, lineno, "replicas"));
      APNN_CHECK(cur->replicas >= 0)
          << "config line " << lineno << ": replicas must be >= 0";
    } else if (key == "slice_threads") {
      cur->slice_threads =
          static_cast<int>(parse_int(value, lineno, "slice_threads"));
      APNN_CHECK(cur->slice_threads >= 0)
          << "config line " << lineno << ": slice_threads must be >= 0";
    } else if (key == "max_queue") {
      cur->max_queue = parse_int(value, lineno, "max_queue");
      APNN_CHECK(cur->max_queue >= 0)
          << "config line " << lineno << ": max_queue must be >= 0";
    } else if (key == "admission") {
      admission_for(value, strf("config line %d", lineno));  // validate
      cur->admission = value;
    } else if (key == "batch_window_us") {
      cur->batch_window_us = parse_int(value, lineno, "batch_window_us");
      APNN_CHECK(cur->batch_window_us >= 0)
          << "config line " << lineno << ": batch_window_us must be >= 0";
    } else {
      throw Error(
          strf("config line %d: unknown model key '%s'", lineno, key.c_str()));
    }
  }

  for (const ModelConfig& m : cfg.models) {
    APNN_CHECK(!m.path.empty())
        << "config: [model " << m.id << "] has no path";
  }
  return cfg;
}

GatewayConfig load_gateway_config(const std::string& path) {
  std::ifstream in(path);
  APNN_CHECK(in.good()) << "cannot read gateway config " << path;
  std::ostringstream text;
  text << in.rdbuf();
  return parse_gateway_config(text.str());
}

ModelRegistry::ModelRegistry(const tcsim::DeviceSpec& dev,
                             std::size_t expected_models, unsigned hw_threads)
    : dev_(dev),
      hw_threads_(hw_threads != 0 ? hw_threads
                                  : std::thread::hardware_concurrency()),
      expected_models_(expected_models == 0 ? 1 : expected_models) {}

ModelRegistry::~ModelRegistry() {
  // Drop routing first, then drain each pool outside the lock — the same
  // discipline unload() follows, so destruction cannot deadlock with a
  // stats() scrape racing shutdown.
  std::vector<std::pair<std::string, std::shared_ptr<Entry>>> dying;
  {
    std::lock_guard<std::mutex> lock(mu_);
    dying.swap(models_);
  }
}

std::shared_ptr<ModelRegistry::Entry> ModelRegistry::find(
    const std::string& id) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [mid, entry] : models_) {
    if (mid == id) return entry;
  }
  return nullptr;
}

std::shared_ptr<ModelRegistry::Entry> ModelRegistry::make_entry(
    ModelConfig cfg, std::uint32_t generation) const {
  auto entry = std::make_shared<Entry>();
  entry->cfg = std::move(cfg);
  entry->generation = generation;
  const ModelConfig& c = entry->cfg;
  try {
    entry->net = std::make_unique<ApnnNetwork>(load_network(c.path));
    APNN_CHECK(entry->net->calibrated())
        << c.path << " holds an uncalibrated network — run calibrate() "
        << "before save_network() (apnn_cli export does)";
    entry->input = entry->net->spec().input;
    entry->classes =
        static_cast<std::uint32_t>(entry->net->shapes().back().numel());
    for (const std::int64_t b : entry->net->spec().seq_buckets) {
      entry->max_seq_bucket = std::max(entry->max_seq_bucket, b);
    }

    ServerOptions opts;
    opts.max_batch = c.max_batch;
    opts.batch_window = std::chrono::microseconds(c.batch_window_us);
    opts.max_queue = c.max_queue;
    opts.admission = admission_for(c.admission, "[model " + c.id + "]");
    opts.replicas = c.replicas;
    opts.slice_threads = c.slice_threads;

    // Resolve the topology against this model's share of the machine, not
    // the whole machine: co-resident pools must sum within the hardware.
    const unsigned budget = std::max<unsigned>(
        1, hw_threads_ / static_cast<unsigned>(expected_models_));
    const InferenceServer::Topology topo =
        InferenceServer::derive_topology(opts, budget);
    opts.replicas = topo.replicas;
    opts.slice_threads = topo.slice_threads;

    entry->server = std::make_unique<InferenceServer>(*entry->net, dev_, opts);
  } catch (const wire::RemoteError&) {
    throw;
  } catch (const Error& e) {
    throw wire::RemoteError(
        wire::WireError::kModelLoadFailed,
        strf("model '%s' from %s: %s", c.id.c_str(), c.path.c_str(),
             e.what()));
  }
  return entry;
}

void ModelRegistry::load(const ModelConfig& cfg) {
  std::uint32_t generation = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [mid, entry] : models_) {
      if (mid == cfg.id) {
        throw wire::RemoteError(
            wire::WireError::kInternal,
            strf("model '%s' is already loaded (reload to replace it)",
                 cfg.id.c_str()));
      }
    }
    generation = next_generation_++;
  }
  // Build outside the lock — compiles replicas.
  std::shared_ptr<Entry> entry = make_entry(cfg, generation);
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [mid, existing] : models_) {
    if (mid == cfg.id) {
      throw wire::RemoteError(
          wire::WireError::kInternal,
          strf("model '%s' was loaded concurrently", cfg.id.c_str()));
    }
  }
  models_.emplace_back(cfg.id, std::move(entry));
}

void ModelRegistry::unload(const std::string& id) {
  std::shared_ptr<Entry> dying;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = models_.begin(); it != models_.end(); ++it) {
      if (it->first == id) {
        dying = std::move(it->second);
        models_.erase(it);
        break;
      }
    }
  }
  if (dying == nullptr) {
    throw wire::RemoteError(wire::WireError::kUnknownModel,
                            strf("no model '%s' to unload", id.c_str()));
  }
  // `dying` drains here (or on the last in-flight infer thread) — outside
  // mu_, so other models' routing never blocks on the drain.
}

void ModelRegistry::reload(const std::string& id) {
  ModelConfig cfg;
  std::uint32_t generation = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto* found = static_cast<const std::shared_ptr<Entry>*>(nullptr);
    for (const auto& [mid, entry] : models_) {
      if (mid == id) {
        found = &entry;
        break;
      }
    }
    if (found == nullptr) {
      throw wire::RemoteError(wire::WireError::kUnknownModel,
                              strf("no model '%s' to reload", id.c_str()));
    }
    cfg = (*found)->cfg;
    generation = next_generation_++;
  }
  std::shared_ptr<Entry> fresh = make_entry(std::move(cfg), generation);
  std::shared_ptr<Entry> old;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [mid, entry] : models_) {
      if (mid == id) {
        old = std::move(entry);
        entry = std::move(fresh);
        break;
      }
    }
  }
  if (old == nullptr) {
    // Unloaded while we were rebuilding; `fresh` drains and dies here.
    throw wire::RemoteError(
        wire::WireError::kUnknownModel,
        strf("model '%s' was unloaded during reload", id.c_str()));
  }
  // `old` keeps serving its in-flight requests and drains on release.
}

void ModelRegistry::infer_frame(const std::string& id,
                                const Tensor<std::int32_t>& frame_u8,
                                Tensor<std::int32_t>* logits,
                                InferenceServer::Deadline deadline,
                                std::int64_t seq_len) {
  // Snapshot the entry: a concurrent unload/reload cannot destroy the pool
  // under this request, and the route costs one lock'd list walk.
  std::shared_ptr<Entry> entry = find(id);
  if (entry == nullptr) {
    throw wire::RemoteError(wire::WireError::kUnknownModel,
                            strf("unknown model '%s'", id.c_str()));
  }
  const std::int64_t sample_h =
      frame_u8.rank() == 4 ? frame_u8.dim(1) : frame_u8.dim(0);
  if (seq_len > 0) {
    if (entry->max_seq_bucket == 0) {
      throw wire::RemoteError(
          wire::WireError::kMalformedFrame,
          strf("model '%s' is shape-static; seq_len is not supported",
               id.c_str()));
    }
    if (seq_len != sample_h) {
      throw wire::RemoteError(
          wire::WireError::kMalformedFrame,
          strf("seq_len %lld does not match the sample's %lld tokens",
               static_cast<long long>(seq_len),
               static_cast<long long>(sample_h)));
    }
  } else if (entry->max_seq_bucket > 0 && sample_h != entry->input.h) {
    // No seq_len declaration: even a dynamic-shape model demands the exact
    // calibration shape, so a v1-style client can never pad wrong silently.
    throw wire::RemoteError(
        wire::WireError::kMalformedFrame,
        strf("model '%s' expects %lld tokens without seq_len; got %lld",
             id.c_str(), static_cast<long long>(entry->input.h),
             static_cast<long long>(sample_h)));
  }
  entry->server->infer_frame(frame_u8, logits, deadline);
}

std::vector<wire::ModelDescriptor> ModelRegistry::list() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<wire::ModelDescriptor> out;
  out.reserve(models_.size());
  for (const auto& [mid, entry] : models_) {
    wire::ModelDescriptor d;
    d.id = mid;
    d.h = static_cast<std::uint16_t>(entry->input.h);
    d.w = static_cast<std::uint16_t>(entry->input.w);
    d.c = static_cast<std::uint16_t>(entry->input.c);
    d.classes = entry->classes;
    d.generation = entry->generation;
    out.push_back(std::move(d));
  }
  return out;
}

std::vector<ModelRegistry::ModelStats> ModelRegistry::stats() const {
  // Snapshot the entries, then scrape outside mu_ — each server's stats()
  // takes that server's own lock, and a slow scrape must not stall routing.
  std::vector<std::pair<std::string, std::shared_ptr<Entry>>> snapshot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snapshot = models_;
  }
  std::vector<ModelStats> out;
  out.reserve(snapshot.size());
  for (const auto& [mid, entry] : snapshot) {
    ModelStats s;
    s.id = mid;
    s.generation = entry->generation;
    s.replicas = entry->server->replicas();
    s.slice_threads = entry->server->slice_threads();
    s.stats = entry->server->stats();
    out.push_back(std::move(s));
  }
  return out;
}

std::size_t ModelRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return models_.size();
}

}  // namespace apnn::nn::gw
