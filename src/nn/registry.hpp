// Multi-model registry behind the gateway: loads serialized networks
// (nn/serialize.hpp, v2 conv-only or v3 attention/bucketed) into per-model
// InferenceServer pools and routes requests by model id.
//
// Co-residency without oversubscription: a machine serving M models cannot
// give each model's server the full hardware width — M servers each sized
// for the whole machine would run M× more kernel threads than cores, the
// exact topology bug DESIGN.md §10 removed for replicas within one server.
// The registry therefore resolves each model's topology through
// InferenceServer::derive_topology against a per-model thread budget of
// hw_threads / expected_models (floor 1), then passes the resolved
// replicas × slice_threads explicitly, so the sum across co-resident models
// stays within the machine.
//
// Hot lifecycle: load/unload/reload swap a shared_ptr<Entry> under a small
// lock; in-flight infer() calls hold a snapshot of the entry they routed
// to, so a swapped-out entry keeps serving its in-flight requests and is
// destroyed — draining its InferenceServer — only when the last holder
// releases it. Traffic on *other* models never crosses the lock for more
// than the map lookup, so reloading model A drops zero requests on model B
// (tests/test_gateway.cpp pins this; the CI gateway smoke drills it over
// TCP).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/nn/protocol.hpp"
#include "src/nn/server.hpp"

namespace apnn::nn::gw {

/// One model's serving configuration (an ini section, or admin-op fields).
struct ModelConfig {
  std::string id;
  std::string path;  ///< v2-serialized network file (nn/serialize.hpp)

  std::int64_t max_batch = ServerOptions{}.max_batch;
  /// 0 = derive via derive_topology against the registry's per-model budget.
  int replicas = 0;
  int slice_threads = 0;
  std::int64_t max_queue = 0;          ///< 0 = server default
  std::string admission = "block";     ///< block | reject
  /// Micro-batch formation window.
  std::int64_t batch_window_us = ServerOptions{}.batch_window.count();
};

/// Top-level gateway configuration (the ini file's unsectioned keys plus
/// one ModelConfig per [model <id>] section).
struct GatewayConfig {
  int port = 0;  ///< 0 = ephemeral (the bound port is printed/exported)
  std::size_t max_frame_bytes = wire::kDefaultMaxFrameBytes;
  std::string device = "3090";  ///< 3090 | a100
  std::vector<ModelConfig> models;
};

/// Parses the gateway ini dialect:
///
///   # comment (';' also starts one); blank lines ignored
///   port = 7070
///   [model mini]
///   path = models/mini.apnn
///   max_batch = 8
///
/// Unsectioned keys configure the gateway; each `[model <id>]` section
/// opens a ModelConfig. Unknown keys and malformed lines throw apnn::Error
/// with the line number — a typo'd knob must not silently become a default.
GatewayConfig parse_gateway_config(const std::string& text);

/// Reads `path` and parses it. Throws apnn::Error on I/O failure.
GatewayConfig load_gateway_config(const std::string& path);

/// Thread-safe model table: id -> loaded network + its serving pool.
class ModelRegistry {
 public:
  /// `expected_models` sizes the per-model thread budget (see the header
  /// comment); pass the config's model count. Loading more models than
  /// expected is allowed — they just share budgets sized for fewer.
  ModelRegistry(const tcsim::DeviceSpec& dev, std::size_t expected_models,
                unsigned hw_threads = 0);  ///< 0 = hardware_concurrency()
  /// Unloads every model (each server drains its queue before dying).
  ~ModelRegistry();

  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  /// Loads `cfg.path` and starts its serving pool. Throws
  /// wire::RemoteError(kModelLoadFailed) when the file cannot be read or
  /// the network is not calibrated, and kInternal on a duplicate id.
  void load(const ModelConfig& cfg);

  /// Removes the model from routing. Requests already inside its server
  /// finish; the pool drains and dies when the last in-flight reference
  /// releases. Throws wire::RemoteError(kUnknownModel) on a miss.
  void unload(const std::string& id);

  /// Rebuilds the model from its configured file (picking up a rewritten
  /// network) and swaps it into routing with a bumped generation. The old
  /// pool serves its in-flight requests to completion; requests admitted
  /// after the swap land on the new pool. Other models are untouched.
  void reload(const std::string& id);

  /// Routes one frame {N, H, W, C} to `id`'s pool and writes the logits
  /// {N, classes} into *logits (InferenceServer::infer_frame). `seq_len` is
  /// the wire-level variable-length declaration, checked once per frame: 0
  /// means the samples must match the model's input dims exactly (even for
  /// a dynamic-shape model); nonzero means "these are seq_len-token
  /// samples" and is only legal for a model with sequence buckets
  /// (kMalformedFrame otherwise). Throws wire::RemoteError(kUnknownModel)
  /// when no such model is routed, and ServerError (the gateway maps its
  /// kind onto the wire) on serving failures.
  void infer_frame(const std::string& id, const Tensor<std::int32_t>& frame_u8,
                   Tensor<std::int32_t>* logits,
                   InferenceServer::Deadline deadline,
                   std::int64_t seq_len = 0);

  /// Expected input dims + classes per routed model, in load order.
  std::vector<wire::ModelDescriptor> list() const;

  /// One model's serving stats snapshot, with identity attached.
  struct ModelStats {
    std::string id;
    std::uint32_t generation = 0;
    int replicas = 0;
    int slice_threads = 0;
    InferenceServer::Stats stats;
  };
  std::vector<ModelStats> stats() const;

  std::size_t size() const;

 private:
  /// A loaded model. Member order is destruction order in reverse: the
  /// server dies first (drains, joins its replicas), then the network it
  /// reads.
  struct Entry {
    ModelConfig cfg;
    std::uint32_t generation = 0;
    ActShape input;
    std::uint32_t classes = 0;
    /// Largest sequence bucket (0 = shape-static model).
    std::int64_t max_seq_bucket = 0;
    std::unique_ptr<ApnnNetwork> net;
    std::unique_ptr<InferenceServer> server;
  };

  std::shared_ptr<Entry> find(const std::string& id) const;
  /// Builds a ready-to-route entry (file load, calibrated check, topology
  /// resolution, server start). Called outside mu_ — compilation is slow.
  std::shared_ptr<Entry> make_entry(ModelConfig cfg,
                                    std::uint32_t generation) const;

  const tcsim::DeviceSpec& dev_;
  const unsigned hw_threads_;
  const std::size_t expected_models_;

  mutable std::mutex mu_;
  /// Insertion-ordered so list()/stats() are stable for operators.
  std::vector<std::pair<std::string, std::shared_ptr<Entry>>> models_;
  std::uint32_t next_generation_ = 1;
};

}  // namespace apnn::nn::gw
