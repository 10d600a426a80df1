// Command-line front end for the library: price arbitrary GEMM / conv /
// model configurations on the simulated devices without writing code.
//
//   apnn_cli gemm  M N K p q        [--device 3090|a100] [--trace out.json]
//   apnn_cli conv  C HW Cout k s    [--wbits p] [--abits q] [--device ...]
//   apnn_cli model alexnet|vgg|resnet18 [--scheme fp32|fp16|int8|bnn|wXaY]
//                                   [--batch N] [--device ...] [--no-fuse]
//   apnn_cli serve mini_resnet|vgg_lite [--scheme wXaY] [--replicas N]
//                                   [--slice-threads T] [--clients N]
//                                   [--requests N] [--max-batch B]
//                                   [--deadline-ms D] [--fault site:n[:mod]]
//   apnn_cli export mini_resnet|vgg_lite|tiny_transformer <out.apnn> ...
//   apnn_cli inspect <model.apnn> [--batch N] [--device ...]
//   apnn_cli devices
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/serve_load.hpp"
#include "src/common/faultinject.hpp"
#include "src/baselines/conv.hpp"
#include "src/baselines/gemm.hpp"
#include "src/common/strings.hpp"
#include "src/common/timer.hpp"
#include "src/core/apconv.hpp"
#include "src/core/apmm.hpp"
#include "src/nn/apnn_network.hpp"
#include "src/nn/engine.hpp"
#include "src/nn/serialize.hpp"
#include "src/nn/server.hpp"
#include "src/nn/session.hpp"
#include "src/tcsim/cost_model.hpp"
#include "src/tcsim/trace.hpp"

using namespace apnn;

namespace {

struct Args {
  std::vector<std::string> positional;
  std::string device = "3090";
  std::string scheme = "w1a2";
  std::string trace_path;
  std::int64_t batch = 8;
  int wbits = 1, abits = 2;
  bool fuse = true;
  // serve
  int replicas = 0;       // 0 = derive jointly with slice_threads
  int slice_threads = 0;  // per-replica pool width; 0 = derive
  int clients = 8;
  int requests = 64;
  std::int64_t deadline_ms = 0;           // 0 = no per-request deadline
  std::vector<std::string> fault_specs;   // faultinject site:n[:xR|:delay=Dms]
  std::int64_t hw = 0;                    // export: input H=W override
  std::uint64_t seed = 42;                // export: weight/calibration seed
  std::string seq_buckets;                // export: CSV bucket override
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string s = argv[i];
    auto next = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (s == "--device") {
      a.device = next("--device");
    } else if (s == "--scheme") {
      a.scheme = next("--scheme");
    } else if (s == "--trace") {
      a.trace_path = next("--trace");
    } else if (s == "--batch") {
      a.batch = std::atoll(next("--batch").c_str());
    } else if (s == "--max-batch") {
      a.batch = std::atoll(next("--max-batch").c_str());
    } else if (s == "--replicas") {
      a.replicas = std::atoi(next("--replicas").c_str());
    } else if (s == "--slice-threads") {
      a.slice_threads = std::atoi(next("--slice-threads").c_str());
    } else if (s == "--clients") {
      a.clients = std::atoi(next("--clients").c_str());
    } else if (s == "--requests") {
      a.requests = std::atoi(next("--requests").c_str());
    } else if (s == "--deadline-ms") {
      a.deadline_ms = std::atoll(next("--deadline-ms").c_str());
    } else if (s == "--fault") {
      a.fault_specs.push_back(next("--fault"));
    } else if (s == "--hw") {
      a.hw = std::atoll(next("--hw").c_str());
    } else if (s == "--seq-buckets") {
      a.seq_buckets = next("--seq-buckets");
    } else if (s == "--seed") {
      a.seed = static_cast<std::uint64_t>(std::atoll(next("--seed").c_str()));
    } else if (s == "--wbits") {
      a.wbits = std::atoi(next("--wbits").c_str());
    } else if (s == "--abits") {
      a.abits = std::atoi(next("--abits").c_str());
    } else if (s == "--no-fuse") {
      a.fuse = false;
    } else {
      a.positional.push_back(s);
    }
  }
  return a;
}

const tcsim::DeviceSpec& device_for(const std::string& name) {
  if (name == "a100" || name == "A100") return tcsim::a100();
  return tcsim::rtx3090();
}

nn::SchemeConfig scheme_for(const Args& a) {
  nn::SchemeConfig cfg;
  cfg.fuse = a.fuse;
  if (a.scheme == "fp32") {
    cfg.scheme = nn::Scheme::kFloat32;
  } else if (a.scheme == "fp16") {
    cfg.scheme = nn::Scheme::kFloat16;
  } else if (a.scheme == "int8") {
    cfg.scheme = nn::Scheme::kInt8;
  } else if (a.scheme == "bnn") {
    cfg.scheme = nn::Scheme::kBnn;
  } else {
    // wXaY
    int p = 1, q = 2;
    if (std::sscanf(a.scheme.c_str(), "w%da%d", &p, &q) != 2) {
      std::fprintf(stderr, "unknown scheme '%s'\n", a.scheme.c_str());
      std::exit(2);
    }
    cfg.scheme = nn::Scheme::kApnn;
    cfg.wbits = p;
    cfg.abits = q;
  }
  return cfg;
}

int cmd_gemm(const Args& a) {
  if (a.positional.size() != 6) {
    std::fprintf(stderr, "usage: apnn_cli gemm M N K p q\n");
    return 2;
  }
  const std::int64_t m = std::atoll(a.positional[1].c_str());
  const std::int64_t n = std::atoll(a.positional[2].c_str());
  const std::int64_t k = std::atoll(a.positional[3].c_str());
  const int p = std::atoi(a.positional[4].c_str());
  const int q = std::atoi(a.positional[5].c_str());
  const auto& dev = device_for(a.device);
  const tcsim::CostModel cm(dev);
  const core::EncodingConfig enc{
      p == 1 ? core::Encoding::kSignedPM1 : core::Encoding::kUnsigned01,
      core::Encoding::kUnsigned01};
  const auto prof = core::apmm_profile(m, n, k, p, q, enc, dev);
  const auto est = cm.estimate(prof);
  std::printf("APMM-w%da%d %ldx%ldx%ld on %s\n", p, q, m, n, k,
              dev.name.c_str());
  std::printf("  modeled latency : %.2f us (compute %.2f, mem %.2f, "
              "launch %.2f)\n",
              est.total_us, est.compute_us, est.global_mem_us,
              est.launch_us);
  const auto c = prof.total_counters();
  std::printf("  traffic         : %s global, %s shared, %lld bmma tiles\n",
              format_bytes(static_cast<double>(c.total_global_bytes())).c_str(),
              format_bytes(static_cast<double>(c.total_shared_bytes())).c_str(),
              static_cast<long long>(c.bmma_b1));
  for (auto prec : {tcsim::Precision::kInt4, tcsim::Precision::kInt8,
                    tcsim::Precision::kFp16}) {
    const double t =
        cm.estimate(baselines::cutlass_gemm_profile(prec, m, n, k)).total_us;
    std::printf("  vs cutlass-%-5s: %.2f us (%.2fx)\n",
                tcsim::precision_name(prec), t, t / est.total_us);
  }
  if (!a.trace_path.empty() &&
      tcsim::write_chrome_trace(prof, cm, a.trace_path)) {
    std::printf("  trace written to %s\n", a.trace_path.c_str());
  }
  return 0;
}

int cmd_conv(const Args& a) {
  if (a.positional.size() != 6) {
    std::fprintf(stderr, "usage: apnn_cli conv Cin HW Cout k s\n");
    return 2;
  }
  layout::ConvGeometry g;
  g.in_c = std::atoll(a.positional[1].c_str());
  g.in_h = g.in_w = std::atoll(a.positional[2].c_str());
  g.out_c = std::atoll(a.positional[3].c_str());
  g.kernel = std::atoi(a.positional[4].c_str());
  g.stride = std::atoi(a.positional[5].c_str());
  g.pad = g.kernel / 2;
  g.batch = a.batch;
  const auto& dev = device_for(a.device);
  const tcsim::CostModel cm(dev);
  const core::EncodingConfig enc{
      a.wbits == 1 ? core::Encoding::kSignedPM1 : core::Encoding::kUnsigned01,
      core::Encoding::kUnsigned01};
  const auto prof =
      core::apconv_profile(g, a.wbits, a.abits, enc, dev);
  const auto est = cm.estimate(prof);
  std::printf("APConv-w%da%d %ldx%ldx%ld -> %ld (k=%d s=%d batch=%ld) on "
              "%s\n",
              a.wbits, a.abits, g.in_c, g.in_h, g.in_w, g.out_c, g.kernel,
              g.stride, g.batch, dev.name.c_str());
  std::printf("  lowered GEMM    : %ldx%ldx%ld\n", g.gemm_m(), g.gemm_n(),
              g.gemm_k());
  std::printf("  modeled latency : %.2f us\n", est.total_us);
  for (auto prec : {tcsim::Precision::kInt4, tcsim::Precision::kInt8}) {
    const double t =
        cm.estimate(baselines::cutlass_conv_profile(prec, g)).total_us;
    std::printf("  vs cutlass-conv-%-5s: %.2f us (%.2fx)\n",
                tcsim::precision_name(prec), t, t / est.total_us);
  }
  if (!a.trace_path.empty() &&
      tcsim::write_chrome_trace(prof, cm, a.trace_path)) {
    std::printf("  trace written to %s\n", a.trace_path.c_str());
  }
  return 0;
}

int cmd_model(const Args& a) {
  if (a.positional.size() != 2) {
    std::fprintf(stderr, "usage: apnn_cli model alexnet|vgg|resnet18\n");
    return 2;
  }
  const std::string& name = a.positional[1];
  nn::ModelSpec spec;
  if (name == "alexnet") {
    spec = nn::alexnet();
  } else if (name == "vgg") {
    spec = nn::vgg_variant();
  } else if (name == "resnet18") {
    spec = nn::resnet18();
  } else if (name == "vgg_lite") {
    spec = nn::vgg_lite();
  } else {
    std::fprintf(stderr, "unknown model '%s'\n", name.c_str());
    return 2;
  }
  const auto& dev = device_for(a.device);
  const nn::SchemeConfig cfg = scheme_for(a);
  const nn::ModelProfile p = nn::profile_model(spec, a.batch, cfg, dev);
  std::printf("%s under %s on %s, batch %ld\n", spec.name.c_str(),
              cfg.label().c_str(), dev.name.c_str(), a.batch);
  std::printf("  total latency   : %.3f ms  (%.1f fps)\n", p.latency_ms(),
              p.throughput_fps());
  std::printf("  %.2f GMACs/sample\n",
              static_cast<double>(nn::model_macs(spec)) / 1e9);
  std::printf("\n  %-22s %12s %8s\n", "layer", "latency", "share");
  for (const auto& lp : p.layers) {
    if (lp.fused_away) continue;
    const double share = 100.0 * lp.latency.total_us / p.total_us;
    if (share < 0.5) continue;
    std::printf("  %-22s %12s %7.1f%%\n", lp.name.c_str(),
                format_time_us(lp.latency.total_us).c_str(), share);
  }
  return 0;
}

int cmd_serve(const Args& a) {
  if (a.positional.size() != 2) {
    std::fprintf(stderr,
                 "usage: apnn_cli serve mini_resnet|vgg_lite [--scheme wXaY] "
                 "[--replicas N] [--slice-threads T] [--clients N] "
                 "[--requests N] [--max-batch B] "
                 "[--deadline-ms D] "
                 "[--fault site:n[:xR|:delay=Dms]] [--device ...]\n");
    return 2;
  }
  const std::string& name = a.positional[1];
  nn::ModelSpec spec;
  if (name == "mini_resnet") {
    spec = nn::mini_resnet(8, 32, 10);  // the serving-size bench workload
  } else if (name == "vgg_lite") {
    spec = nn::vgg_lite();
  } else {
    std::fprintf(stderr,
                 "serve runs real kernels and supports the executable zoo "
                 "specs: mini_resnet, vgg_lite\n");
    return 2;
  }
  int p = 1, q = 2;
  if (std::sscanf(a.scheme.c_str(), "w%da%d", &p, &q) != 2) {
    std::fprintf(stderr, "serve needs a wXaY scheme, got '%s'\n",
                 a.scheme.c_str());
    return 2;
  }
  if (a.clients < 1 || a.requests < 1 || a.batch < 1 || a.replicas < 0 ||
      a.slice_threads < 0) {
    std::fprintf(stderr,
                 "--clients/--requests/--max-batch must be >= 1, "
                 "--replicas/--slice-threads >= 0 (0 derives from hardware "
                 "width)\n");
    return 2;
  }
  if (a.deadline_ms < 0) {
    std::fprintf(stderr, "--deadline-ms must be >= 0 (0 = no deadline)\n");
    return 2;
  }
  const auto& dev = device_for(a.device);

  nn::ServerOptions opts;
  opts.max_batch = a.batch;
  opts.replicas = a.replicas;
  opts.slice_threads = a.slice_threads;

  nn::ApnnNetwork net = nn::ApnnNetwork::random(spec, p, q, 42);
  Rng rng(43);
  Tensor<std::int32_t> calib(
      {a.batch, spec.input.h, spec.input.w, spec.input.c});
  calib.randomize(rng, 0, 255);
  net.calibrate(calib);

  // Golden answers from sequential batch-1 session runs: every served
  // response is bit-compared below, so a run that prints throughput has
  // also proven exactness under whatever batch mix the traffic produced.
  const int distinct = std::min(a.requests, 32);
  std::vector<Tensor<std::int32_t>> samples;
  std::vector<Tensor<std::int32_t>> golden;
  {
    nn::InferenceSession session(net, dev);
    for (int i = 0; i < distinct; ++i) {
      Tensor<std::int32_t> s({1, spec.input.h, spec.input.w, spec.input.c});
      s.randomize(rng, 0, 255);
      golden.push_back(session.run(s));
      samples.push_back(std::move(s));
    }
  }

  // Faults arm only now — after the golden runs — so a --fault trigger
  // ordinal counts traversals from server startup on, not from whatever the
  // golden generation happened to execute.
  for (const std::string& spec : a.fault_specs) {
    std::string err;
    if (!faultinject::parse_and_arm(spec, &err)) {
      std::fprintf(stderr, "--fault %s: %s\n", spec.c_str(), err.c_str());
      return 2;
    }
    std::printf("fault armed: %s\n", spec.c_str());
  }

  WallTimer start_timer;
  nn::InferenceServer server(net, dev, opts);
  const double start_ms = start_timer.millis();
  std::printf("%s w%da%d on %s: %d replicas x %d-wide slices up in "
              "%.1f ms\n",
              spec.name.c_str(), p, q, dev.name.c_str(), server.replicas(),
              server.slice_threads(), start_ms);

  bench::LoadOptions lopts;
  lopts.deadline = std::chrono::milliseconds(a.deadline_ms);
  if (a.deadline_ms > 0) {
    std::printf("per-request deadline: %lld ms\n",
                static_cast<long long>(a.deadline_ms));
  }
  const bench::LoadResult load =
      bench::serve_load(server, samples, golden, a.clients, a.requests, lopts);
  const double ms = load.wall_ms;
  const std::int64_t bad = load.mismatches;
  const nn::InferenceServer::Stats& st = load.stats;
  std::printf("served %lld requests from %d clients in %.1f ms "
              "(%.1f req/s)\n",
              static_cast<long long>(st.requests), a.clients, ms,
              1000.0 * static_cast<double>(st.requests) / ms);
  std::printf("  batches   : %lld (largest %lld, peak queue %lld)\n",
              static_cast<long long>(st.batches),
              static_cast<long long>(st.max_batch),
              static_cast<long long>(st.peak_queue_depth));
  std::printf("  replicas  :");
  for (std::size_t r = 0; r < st.replica_batches.size(); ++r) {
    std::printf(" #%zu=%lldb/%lldr", r,
                static_cast<long long>(st.replica_batches[r]),
                static_cast<long long>(st.replica_requests[r]));
  }
  std::printf("\n");
  std::printf("  latency   : mean %.2f ms, max %.2f ms\n",
              st.requests > 0
                  ? st.total_latency_ms / static_cast<double>(st.requests)
                  : 0.0,
              st.max_latency_ms);
  std::printf("  responses : %s\n",
              bad == 0 ? "bit-exact vs sequential batch-1 runs"
                       : "MISMATCH vs sequential batch-1 runs");
  if (load.failed > 0 || load.injected > 0) {
    std::printf("  failed    : %lld typed",
                static_cast<long long>(load.failed));
    for (std::size_t k = 0; k < nn::kErrorKindCount; ++k) {
      if (load.error_counts[k] == 0) continue;
      std::printf(" %s=%lld",
                  nn::error_kind_name(static_cast<nn::ErrorKind>(k)),
                  static_cast<long long>(load.error_counts[k]));
    }
    if (load.injected > 0) {
      std::printf(", %lld raw injected",
                  static_cast<long long>(load.injected));
    }
    std::printf("\n");
  }
  if (st.replica_restarts > 0 || !a.fault_specs.empty()) {
    std::printf("  health    : %lld restarts;",
                static_cast<long long>(st.replica_restarts));
    for (std::size_t r = 0; r < st.replica_health.size(); ++r) {
      std::printf(" #%zu=%s", r,
                  nn::replica_health_name(st.replica_health[r]));
    }
    std::printf("\n");
  }

  // Distinct exit codes so CI smoke runs can tell the failure modes apart:
  //   0  drained, responses bit-exact (typed failures allowed only under an
  //      armed fault or an explicit deadline — they are the drill)
  //   1  a served response differed from the sequential golden run
  //   2  usage error (bad flags, bad --fault spec)
  //   4  requests failed with nothing armed to explain it
  if (bad != 0) return 1;
  const bool failures_expected = !a.fault_specs.empty() || a.deadline_ms > 0;
  if ((load.failed > 0 || load.injected > 0) && !failures_expected) return 4;
  return 0;
}

/// `inspect <model.apnn>`: load any exported network, run one profiled
/// forward pass at --batch, and print per stage how many all-zero operand
/// bit-planes the combine elided and the bytes its launch record stores
/// (packed codes for quantizing and row-softmax epilogues, int32 else).
int cmd_inspect(const Args& a) {
  if (a.positional.size() != 2 || a.batch < 1) {
    std::fprintf(stderr,
                 "usage: apnn_cli inspect <model.apnn> [--batch N] "
                 "[--device ...]\n");
    return 2;
  }
  const std::string& path = a.positional[1];
  const auto& dev = device_for(a.device);
  std::unique_ptr<nn::ApnnNetwork> net;
  try {
    net = std::make_unique<nn::ApnnNetwork>(nn::load_network(path));
  } catch (const Error& e) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), e.what());
    return 1;
  }
  if (!net->calibrated()) {
    std::fprintf(stderr, "%s holds an uncalibrated network\n", path.c_str());
    return 1;
  }
  const nn::ModelSpec& spec = net->spec();
  Rng rng(43);
  Tensor<std::int32_t> input(
      {a.batch, spec.input.h, spec.input.w, spec.input.c});
  input.randomize(rng, 0, 255);

  nn::InferenceSession session(*net, dev);
  Tensor<std::int32_t> logits;
  tcsim::SequenceProfile prof;
  session.run(input, &logits, &prof);

  std::printf("%s w%da%d, batch %lld, device %s — per-stage plane "
              "elision and modeled stores\n",
              spec.name.c_str(), net->wbits(), net->abits(),
              static_cast<long long>(a.batch), dev.name.c_str());
  std::printf("  %-24s %-14s %s\n", "kernel", "planes elided",
              "store bytes");
  for (const auto& k : prof.kernels) {
    if (k.sparsity_planes == 0) continue;  // glue kernels combine no planes
    const std::string elided =
        std::to_string(k.sparsity_planes_elided) + "/" +
        std::to_string(k.sparsity_planes);
    std::printf("  %-24s %-14s %lld\n", k.name.c_str(), elided.c_str(),
                static_cast<long long>(k.counters.global_store_bytes));
  }
  return 0;
}

int cmd_devices() {
  for (const auto* d : {&tcsim::rtx3090(), &tcsim::a100()}) {
    std::printf("%s: %d SMs @ %.2f GHz, %.0f GB/s, peaks int1/int4/int8/"
                "fp16 = %.0f/%.0f/%.0f/%.0f TOPS\n",
                d->name.c_str(), d->num_sms, d->clock_ghz, d->mem_bw_gbps,
                d->peak(tcsim::Precision::kInt1),
                d->peak(tcsim::Precision::kInt4),
                d->peak(tcsim::Precision::kInt8),
                d->peak(tcsim::Precision::kFp16));
  }
  return 0;
}

// Writes a calibrated zoo network to a serialized file — the format the
// gateway's ModelRegistry loads (v2 for conv-only models, v3 when the
// model carries attention layers or sequence buckets). The CI gateway
// smoke and operators standing up a test gateway use this instead of
// shipping binary fixtures.
int cmd_export(const Args& a) {
  if (a.positional.size() != 3) {
    std::fprintf(stderr,
                 "usage: apnn_cli export "
                 "mini_resnet|vgg_lite|tiny_transformer <out.apnn> "
                 "[--scheme wXaY] [--hw N] [--seq-buckets 32,64,...] "
                 "[--seed S]\n");
    return 2;
  }
  const std::string& name = a.positional[1];
  const std::string& out = a.positional[2];
  nn::ModelSpec spec;
  if (name == "mini_resnet") {
    spec = nn::mini_resnet(8, a.hw > 0 ? a.hw : 32, 10);
  } else if (name == "vgg_lite") {
    spec = nn::vgg_lite(a.hw > 0 ? a.hw : 32, 10);
  } else if (name == "tiny_transformer") {
    spec = nn::tiny_transformer();
  } else {
    std::fprintf(stderr,
                 "export supports the executable zoo specs: mini_resnet, "
                 "vgg_lite, tiny_transformer\n");
    return 2;
  }
  if (!a.seq_buckets.empty()) {
    if (name != "tiny_transformer") {
      std::fprintf(stderr,
                   "--seq-buckets only applies to dynamic-shape models "
                   "(tiny_transformer)\n");
      return 2;
    }
    spec.seq_buckets.clear();
    const char* s = a.seq_buckets.c_str();
    char* end = nullptr;
    for (;;) {
      const long long b = std::strtoll(s, &end, 10);
      if (end == s || b <= 0) {
        std::fprintf(stderr, "--seq-buckets wants a CSV of positive "
                             "lengths, got '%s'\n", a.seq_buckets.c_str());
        return 2;
      }
      spec.seq_buckets.push_back(b);
      if (*end == '\0') break;
      if (*end != ',') {
        std::fprintf(stderr, "--seq-buckets wants a CSV of positive "
                             "lengths, got '%s'\n", a.seq_buckets.c_str());
        return 2;
      }
      s = end + 1;
    }
    std::sort(spec.seq_buckets.begin(), spec.seq_buckets.end());
    if (spec.input.h > spec.seq_buckets.back()) {
      // The calibration/default length must fit the largest bucket.
      spec.input.h = spec.seq_buckets.back();
    }
  }
  int p = 1, q = 2;
  if (std::sscanf(a.scheme.c_str(), "w%da%d", &p, &q) != 2) {
    std::fprintf(stderr, "export needs a wXaY scheme, got '%s'\n",
                 a.scheme.c_str());
    return 2;
  }
  nn::ApnnNetwork net =
      nn::ApnnNetwork::random(spec, p, q, static_cast<unsigned>(a.seed));
  Rng rng(a.seed + 1);
  Tensor<std::int32_t> calib({4, spec.input.h, spec.input.w, spec.input.c});
  calib.randomize(rng, 0, 255);
  net.calibrate(calib);
  if (!nn::save_network(net, out)) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 3;
  }
  std::printf("exported %s w%da%d (input %lldx%lldx%lld, %lld classes) to "
              "%s\n",
              spec.name.c_str(), p, q, static_cast<long long>(spec.input.h),
              static_cast<long long>(spec.input.w),
              static_cast<long long>(spec.input.c),
              static_cast<long long>(spec.layers.empty()
                                         ? 0
                                         : net.shapes().back().numel()),
              out.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  if (a.positional.empty()) {
    std::fprintf(stderr,
                 "usage: apnn_cli gemm|conv|model|serve|export|inspect|"
                 "devices ...\n"
                 "  gemm M N K p q\n"
                 "  conv Cin HW Cout k s [--wbits p --abits q --batch N]\n"
                 "  model alexnet|vgg|resnet18|vgg_lite [--scheme wXaY|fp32|"
                 "fp16|int8|bnn] [--batch N] [--no-fuse]\n"
                 "  serve mini_resnet|vgg_lite [--scheme wXaY] [--replicas N]"
                 " [--clients N]\n"
                 "        [--slice-threads T] [--requests N] "
                 "[--max-batch B]\n"
                 "        [--deadline-ms D] "
                 "[--fault site:n[:xR|:delay=Dms]]\n"
                 "  export mini_resnet|vgg_lite|tiny_transformer <out.apnn> "
                 "[--scheme wXaY]\n"
                 "         [--hw N] [--seq-buckets 32,64,...] [--seed S]\n"
                 "  inspect <model.apnn> [--batch N]\n"
                 "  common: [--device 3090|a100] [--trace out.json]\n");
    return 2;
  }
  const std::string& cmd = a.positional[0];
  if (cmd == "gemm") return cmd_gemm(a);
  if (cmd == "conv") return cmd_conv(a);
  if (cmd == "model") return cmd_model(a);
  if (cmd == "serve") return cmd_serve(a);
  if (cmd == "export") return cmd_export(a);
  if (cmd == "inspect") return cmd_inspect(a);
  if (cmd == "devices") return cmd_devices();
  std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
  return 2;
}
