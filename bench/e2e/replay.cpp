#include "bench/e2e/replay.hpp"

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench/e2e/inputs.hpp"
#include "src/bitops/decompose.hpp"
#include "src/core/apconv.hpp"
#include "src/layout/bit_transpose.hpp"
#include "src/layout/packed_activations.hpp"
#include "src/nn/session.hpp"
#include "src/parallel/thread_pool.hpp"
#include "src/tcsim/device_spec.hpp"

namespace apnn::e2e {

namespace {

using Clock = std::chrono::steady_clock;

/// One replayed call; `fn` runs a single repetition.
struct Item {
  const char* span = "";
  std::function<void()> fn;
  std::vector<double> ms;

  double median_ms() const { return quantile(ms, 0.5); }
};

/// Warms every item once (lazy plan resolution, caches), then runs three
/// rounds in which each item repeats for an equal share of `seconds` (at
/// most kMaxReps times), so a transient stall lands in one round of one
/// item, not in a whole series.
void run_interleaved(std::vector<Item>& items, double seconds,
                     Tracer* tracer) {
  constexpr int kRounds = 3;
  constexpr int kMaxReps = 1000;
  const double budget_ms =
      1e3 * seconds / (kRounds * static_cast<double>(items.size()));
  for (Item& it : items) it.fn();
  for (int r = 0; r < kRounds; ++r) {
    for (Item& it : items) {
      Span round(tracer, "replay.round");
      double spent = 0;
      for (int rep = 0; rep < kMaxReps && spent < budget_ms; ++rep) {
        Span span(tracer, it.span, round.id());
        const Clock::time_point t0 = Clock::now();
        it.fn();
        const double ms = ms_since(t0);
        it.ms.push_back(ms);
        spent += ms;
      }
    }
  }
}

/// Allocations per call over `reps` calls after one warm call.
double allocs_per_call(const std::function<void()>& fn, int reps) {
  fn();
  const std::int64_t before = allocations();
  for (int i = 0; i < reps; ++i) fn();
  return static_cast<double>(allocations() - before) / reps;
}

std::int64_t macs_at(const nn::ModelSpec& spec, std::int64_t seq) {
  nn::ModelSpec s = spec;
  if (seq > 0) s.input.h = seq;
  return nn::model_macs(s);
}

const nn::ApnnStage& stage_named(const nn::ApnnNetwork& net,
                                 const std::string& layer, std::size_t* li) {
  for (const nn::ApnnStage& st : net.stages()) {
    if (net.spec().layers[st.layer_index].name == layer) {
      *li = st.layer_index;
      return st;
    }
  }
  throw Error("no stage named " + layer + " in " + net.spec().name);
}

constexpr double kMiB = 1024.0 * 1024.0;

}  // namespace

void replay_layers(const Zoo& zoo, std::uint64_t seed, double seconds,
                   Tracer* tracer, Metrics& out) {
  const tcsim::DeviceSpec& dev = tcsim::rtx3090();
  Rng rng(seed * 0x2545f4914f6cdd1dULL + 7);

  struct Replayed {
    const char* id;
    const nn::ApnnNetwork* net;
    std::unique_ptr<nn::InferenceSession> session;
    Tensor<std::int32_t> logits;
  };
  Replayed models[3] = {
      {"mini_resnet", &zoo.mini_resnet, nullptr, {}},
      {"vgg_lite", &zoo.vgg_lite, nullptr, {}},
      {"tiny_transformer", &zoo.tiny_transformer, nullptr, {}}};
  for (Replayed& m : models) {
    m.session = std::make_unique<nn::InferenceSession>(*m.net, dev);
  }

  // --- session: whole forward passes at the served shapes -------------------
  struct SessionCase {
    Replayed* model;
    std::string suffix;
    Tensor<std::int32_t> input;
    double gop;  ///< 2 ops per MAC, times batch
  };
  std::vector<SessionCase> cases;
  for (const std::int64_t b : {1, 2, 4, 8}) {
    const nn::ActShape in = zoo.mini_resnet.spec().input;
    Tensor<std::int32_t> x({b, in.h, in.w, in.c});
    x.randomize(rng, 0, 255);
    cases.push_back({&models[0], "b" + std::to_string(b), std::move(x),
                     2e-9 * macs_at(zoo.mini_resnet.spec(), 0) * b});
  }
  for (const std::int64_t b : {1, 8}) {
    Tensor<std::int32_t> x({b, 32, 32, 3});
    for (std::int64_t i = 0; i < b; ++i) {
      const Tensor<std::int32_t> img = letterboxed_image(rng);
      for (std::int64_t j = 0; j < img.numel(); ++j) {
        x[i * img.numel() + j] = img[j];
      }
    }
    cases.push_back({&models[1], "b" + std::to_string(b), std::move(x),
                     2e-9 * macs_at(zoo.vgg_lite.spec(), 0) * b});
  }
  for (const std::int64_t s : {32, 128, 512}) {
    const nn::ModelSpec& spec = zoo.tiny_transformer.spec();
    Tensor<std::int32_t> x({1, s, 1, spec.input.c});
    x.randomize(rng, 0, 255);
    cases.push_back({&models[2], "s" + std::to_string(s), std::move(x),
                     2e-9 * macs_at(spec, s)});
  }

  std::vector<Item> items;
  for (SessionCase& c : cases) {
    items.push_back(
        {"session.run",
         [&c] { c.model->session->run(c.input, &c.model->logits); },
         {}});
  }

  // --- core: apconv at the heaviest conv geometries -------------------------
  struct ConvCase {
    std::string metric;
    const nn::ApnnStage* stage;
    layout::ConvGeometry g;
    layout::PackedActivations x;
  };
  std::vector<std::unique_ptr<ConvCase>> convs;
  const auto add_conv = [&](const nn::ApnnNetwork& net, const char* id,
                            const std::string& layer, std::int64_t batch) {
    auto c = std::make_unique<ConvCase>();
    c->metric = "core.apconv_gops." + std::string(id) + "." + layer;
    std::size_t li = 0;
    c->stage = &stage_named(net, layer, &li);
    c->g = nn::conv_geometry(net.spec(), net.shapes(), li, batch);
    Tensor<std::int32_t> codes({batch, c->g.in_h, c->g.in_w, c->g.in_c});
    codes.randomize(rng, 0, (1 << c->stage->in_bits) - 1);
    c->x = layout::pack_activations(codes, layout::DenseLayout::kNHWC,
                                    c->stage->in_bits);
    ConvCase* raw = c.get();
    items.push_back({"core.apconv",
                     [raw, &dev] {
                       core::ApconvOptions o;
                       o.collect_profile = false;
                       core::apconv(raw->stage->weights, raw->x,
                                    raw->stage->in_enc, raw->g, dev, o,
                                    raw->stage->epilogue, raw->stage->pool);
                     },
                     {}});
    convs.push_back(std::move(c));
  };
  add_conv(zoo.vgg_lite, "vgg_lite", "conv1_2", 8);
  add_conv(zoo.vgg_lite, "vgg_lite", "conv2_2", 8);
  add_conv(zoo.mini_resnet, "mini_resnet", "block1.conv1", 1);

  // --- layout: one attention head's V transpose at seq 512 ------------------
  const nn::AttentionParams& attn =
      zoo.tiny_transformer.spec().layers.front().attn;
  std::vector<std::int32_t> v_codes(
      static_cast<std::size_t>(512 * attn.d_head));
  for (std::int32_t& v : v_codes) {
    v = static_cast<std::int32_t>(
        rng.uniform_int(0, (1 << zoo.tiny_transformer.abits()) - 1));
  }
  const bitops::BitPlanes v_planes = bitops::decompose(
      v_codes.data(), 512, attn.d_head, zoo.tiny_transformer.abits());
  bitops::BitPlanes v_t;
  items.push_back({"layout.transpose_planes",
                   [&] { layout::transpose_planes(v_planes, v_t); }, {}});

  // --- parallel: empty-body loops over 64 chunks ----------------------------
  const std::function<void(std::int64_t)> empty_body = [](std::int64_t) {};
  std::vector<std::unique_ptr<ThreadPool>> pools;
  for (const unsigned w : {1u, 2u, 4u}) {
    pools.push_back(std::make_unique<ThreadPool>(w));
    ThreadPool* pool = pools.back().get();
    items.push_back({"parallel_for",
                     [pool, &empty_body] {
                       pool->parallel_for(0, 64, empty_body, 1);
                     },
                     {}});
  }

  run_interleaved(items, seconds, tracer);

  std::size_t k = 0;
  for (const SessionCase& c : cases) {
    const double ms = items[k++].median_ms();
    const std::string tail = std::string(c.model->id) + "." + c.suffix;
    out.push_back({"session.run_ms." + tail, ms, "ms"});
    out.push_back({"session.gops." + tail, c.gop / (ms * 1e-3), "GOPS"});
  }
  for (const auto& c : convs) {
    out.push_back({c->metric,
                   2e-9 * c->g.macs() / (items[k++].median_ms() * 1e-3),
                   "GOPS"});
  }
  out.push_back({"layout.transpose_us.s512", 1e3 * items[k++].median_ms(),
                 "us"});
  for (const unsigned w : {1u, 2u, 4u}) {
    out.push_back({"parallel.loop_us.w" + std::to_string(w),
                   1e3 * items[k++].median_ms(), "us"});
  }

  // Allocation counts: batch 1 (seq 32), 100 warm runs each.
  const std::size_t first_case[3] = {0, 4, 6};
  for (int m = 0; m < 3; ++m) {
    SessionCase& c = cases[first_case[m]];
    out.push_back({"session.allocs_per_run." + std::string(models[m].id),
                   allocs_per_call(
                       [&c] { c.model->session->run(c.input, &c.model->logits); },
                       100),
                   "count"});
  }
  for (std::size_t p = 0; p < pools.size(); ++p) {
    ThreadPool* pool = pools[p].get();
    out.push_back({"parallel.allocs_per_loop.w" + std::to_string(1u << p),
                   allocs_per_call(
                       [pool, &empty_body] {
                         pool->parallel_for(0, 64, empty_body, 1);
                       },
                       100),
                   "count"});
  }
  for (const Replayed& m : models) {
    out.push_back({"session.slab_mb." + std::string(m.id),
                   static_cast<double>(m.session->slab().capacity_bytes()) /
                       kMiB,
                   "MB"});
  }

  // Padding waste of the transformer_mixed length mix against the buckets.
  {
    Rng lens(seed);
    const std::vector<std::int64_t>& buckets =
        zoo.tiny_transformer.spec().seq_buckets;
    double padded = 0, total = 0;
    for (const std::int64_t len : seq_lens(lens, 4096)) {
      const std::int64_t b = bucket_for(buckets, len);
      padded += static_cast<double>(b - len);
      total += static_cast<double>(b);
    }
    out.push_back({"session.pad_frac", padded / total, "fraction"});
  }

  // Sparse-path decisions on served (letterboxed) vgg_lite inputs.
  {
    SessionCase& c = cases[5];  // vgg_lite b8
    tcsim::SequenceProfile prof;
    c.model->session->run(c.input, &c.model->logits, &prof);
    double sparse = 0, dense = 0;
    for (const tcsim::KernelProfile& kp : prof.kernels) {
      sparse += static_cast<double>(kp.sparsity_sparse_strips);
      dense += static_cast<double>(kp.sparsity_dense_strips);
    }
    out.push_back({"core.sparse_strip_frac.vgg_lite",
                   sparse + dense > 0 ? sparse / (sparse + dense) : 0.0,
                   "fraction"});
  }
}

double codec_us(const std::vector<Request>& pool, std::uint32_t classes,
                double seconds) {
  std::vector<nn::wire::InferResponse> responses;
  for (const Request& r : pool) {
    nn::wire::InferResponse resp;
    resp.count = r.frame.count;
    resp.classes = classes;
    resp.logits = r.golden;
    responses.push_back(std::move(resp));
  }
  const auto round_trip = [&](std::size_t i) {
    return std::make_pair(
        nn::wire::decode_infer_request(
            nn::wire::encode_infer_request(pool[i].frame)),
        nn::wire::decode_infer_response(
            nn::wire::encode_infer_response(responses[i])));
  };
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const auto [req, resp] = round_trip(i);
    if (req.samples != pool[i].frame.samples ||
        resp.logits != responses[i].logits) {
      throw Error("codec round trip changed a frame");
    }
  }
  std::vector<double> us;
  const Clock::time_point stop =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  do {
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < pool.size(); ++i) round_trip(i);
    us.push_back(1e3 * ms_since(t0) / static_cast<double>(pool.size()));
  } while (Clock::now() < stop);
  return quantile(us, 0.5);
}

}  // namespace apnn::e2e
