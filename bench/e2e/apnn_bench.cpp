// apnn_bench: the end-to-end serving benchmark (bench/e2e/README.md).
//
//   apnn_bench --workload NAME --seed N --seconds S --trace 0|1
//              [--smoke] [--out DIR]
//
// One invocation runs one workload. It writes the workload's models (fixed
// weights) with save_network, computes golden logits with sequential
// batch-1 InferenceSession runs, cold-starts the stack apnn_serve runs
// (ModelRegistry + Gateway on loopback) several times to time set-up, and
// then drives traffic through wire::Client connections from at most nproc
// client threads. --seed drives sample codes, arrival times and which
// tokens are sent; the weights and the amount of work are fixed.
//
// The last stdout line is one JSON object {"correct", "attempted", "failed",
// "metrics"} holding the end-to-end metrics (--trace 0) or the per-layer ones
// (--trace 1). Before it, every metric is printed as
// "workload metric value unit". A response that differs from its golden
// logits fails the run: correct is false, no metric is emitted, and the
// exit code is 1. The run also writes DIR/<workload>-s<seed>-t<trace>.json
// (per-phase counts, host record, metrics) and, traced, the span file
// DIR/<workload>-s<seed>.spans.jsonl; DIR is --out, by default
// .bench_build/e2e/results.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <exception>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/e2e/inputs.hpp"
#include "bench/e2e/loadgen.hpp"
#include "bench/e2e/replay.hpp"
#include "bench/e2e/trace.hpp"
#include "src/common/strings.hpp"
#include "src/core/microkernel.hpp"
#include "src/nn/gateway.hpp"
#include "src/nn/registry.hpp"
#include "src/nn/serialize.hpp"
#include "src/nn/session.hpp"
#include "src/tcsim/device_spec.hpp"

namespace apnn::e2e {
namespace {

using Clock = std::chrono::steady_clock;

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double ratio(double num, double den) { return den != 0 ? num / den : 0.0; }

// --- options ----------------------------------------------------------------

const char* const kWorkloads[] = {"resnet_open", "vgg_batch",
                                  "transformer_mixed", "coresident_reload"};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string out;
};

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: apnn_bench --workload resnet_open|vgg_batch|"
               "transformer_mixed|coresident_reload --seed N --seconds S "
               "--trace 0|1 [--smoke] [--out DIR]\n");
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
    } else if (a == "--seed") {
      o.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::atof(value().c_str());
    } else if (a == "--trace") {
      o.trace = value() == "1";
    } else if (a == "--smoke") {
      o.smoke = true;
    } else if (a == "--out") {
      o.out = value();
    } else {
      usage();
    }
  }
  const bool known = std::any_of(std::begin(kWorkloads), std::end(kWorkloads),
                                 [&](const char* w) { return o.workload == w; });
  if (!known || !(o.seconds > 0)) usage();
  return o;
}

// --- models and request pools -----------------------------------------------

constexpr std::uint64_t kWeightSeed = 42;

nn::ApnnNetwork build_network(const std::string& id) {
  nn::ModelSpec spec;
  int wbits = 1;
  if (id == "mini_resnet") {
    spec = nn::mini_resnet(4, 16, 10);
  } else if (id == "vgg_lite") {
    spec = nn::vgg_lite(32, 10);
    wbits = 2;
  } else {
    spec = nn::tiny_transformer();
  }
  nn::ApnnNetwork net = nn::ApnnNetwork::random(spec, wbits, 2, kWeightSeed);
  Rng rng(kWeightSeed + 1);
  Tensor<std::int32_t> calib({4, spec.input.h, spec.input.w, spec.input.c});
  calib.randomize(rng, 0, 255);
  net.calibrate(calib);
  return net;
}

/// One served model: its file, the network as read back from the file, and
/// the requests the workload sends it.
struct Served {
  std::string id;
  std::string path;
  nn::ApnnNetwork net;
  std::vector<Request> pool;
  std::uint32_t classes = 0;
};

Served write_model(const std::string& id, const std::string& dir) {
  Served s;
  s.id = id;
  s.path = dir + "/" + id + ".apnn";
  if (!nn::save_network(build_network(id), s.path)) {
    throw Error("cannot write " + s.path);
  }
  s.net = nn::load_network(s.path);
  s.classes = static_cast<std::uint32_t>(s.net.shapes().back().numel());
  return s;
}

/// A frame of `samples` ({1, H, W, C} each) with golden logits from
/// sequential batch-1 session runs.
Request make_request(const Served& m, nn::InferenceSession& golden,
                     const std::vector<Tensor<std::int32_t>>& samples,
                     bool variable_seq) {
  Request r;
  r.frame.model = m.id;
  r.frame.count = static_cast<std::uint16_t>(samples.size());
  r.frame.h = static_cast<std::uint16_t>(samples[0].dim(1));
  r.frame.w = static_cast<std::uint16_t>(samples[0].dim(2));
  r.frame.c = static_cast<std::uint16_t>(samples[0].dim(3));
  if (variable_seq) r.frame.seq_len = r.frame.h;
  for (const Tensor<std::int32_t>& s : samples) {
    const std::vector<std::uint8_t> bytes = nn::wire::pack_sample_u8(s);
    r.frame.samples.insert(r.frame.samples.end(), bytes.begin(), bytes.end());
    const Tensor<std::int32_t> logits = golden.run(s);
    r.golden.insert(r.golden.end(), logits.data(),
                    logits.data() + logits.numel());
  }
  r.items = static_cast<std::int64_t>(samples.size());
  return r;
}

/// `n` single-sample requests of uniform codes.
void fill_uniform(Served& m, Rng& rng, int n) {
  nn::InferenceSession golden(m.net, tcsim::rtx3090());
  const nn::ActShape in = m.net.spec().input;
  for (int i = 0; i < n; ++i) {
    Tensor<std::int32_t> s({1, in.h, in.w, in.c});
    s.randomize(rng, 0, 255);
    m.pool.push_back(make_request(m, golden, {s}, false));
  }
}

/// `n` 8-sample frames drawn from 64 letterboxed images.
void fill_letterboxed_frames(Served& m, Rng& rng, int n) {
  nn::InferenceSession golden(m.net, tcsim::rtx3090());
  std::vector<Tensor<std::int32_t>> images;
  for (int i = 0; i < 64; ++i) images.push_back(letterboxed_image(rng));
  for (int f = 0; f < n; ++f) {
    std::vector<Tensor<std::int32_t>> frame;
    for (int s = 0; s < 8; ++s) {
      frame.push_back(images[static_cast<std::size_t>(rng.uniform_int(0, 63))]);
    }
    m.pool.push_back(make_request(m, golden, frame, false));
  }
}

/// `n` single-sample token requests. With `fixed_len` 0 the lengths come
/// from seq_lens, travel as seq_len on the wire, and each request's items
/// are its unpadded tokens; otherwise every request is a plain
/// `fixed_len`-token sample.
void fill_tokens(Served& m, Rng& rng, int n, std::int64_t fixed_len) {
  nn::InferenceSession golden(m.net, tcsim::rtx3090());
  const nn::ActShape in = m.net.spec().input;
  const std::vector<std::int64_t> lens = seq_lens(rng, n);
  for (int i = 0; i < n; ++i) {
    const bool mixed = fixed_len == 0;
    const std::int64_t len = mixed ? lens[static_cast<std::size_t>(i)] : fixed_len;
    Tensor<std::int32_t> s({1, len, in.w, in.c});
    s.randomize(rng, 0, 255);
    Request r = make_request(m, golden, {s}, mixed);
    if (mixed) r.items = len;
    m.pool.push_back(std::move(r));
  }
}

// --- the serving stack --------------------------------------------------------

/// What apnn_serve runs, in process. Members are destroyed in reverse: the
/// gateway (joining its connection threads) before the registry it routes to.
struct Stack {
  std::unique_ptr<nn::gw::ModelRegistry> registry;
  std::unique_ptr<nn::gw::Gateway> gateway;
  int port() const { return gateway->port(); }
};

/// Per-run bookkeeping shared by every phase.
struct Run {
  Options opt;
  Tracer* tracer = nullptr;
  std::int64_t attempted = 0, failed = 0, mismatched = 0;
  std::deque<PhaseResult> phases;

  const PhaseResult& record(PhaseResult p) {
    attempted += p.sent;
    failed += p.failed;
    mismatched += p.mismatched;
    phases.push_back(std::move(p));
    return phases.back();
  }
};

/// Constructs the registry, loads every model, binds the gateway and gets
/// the first response per model on a fresh connection (which resolves the
/// batch-1 plan lazily). `load_ms` receives the summed registry.load time.
std::unique_ptr<Stack> cold_start(Run& run, const std::vector<Served>& models,
                                  double* load_ms) {
  auto st = std::make_unique<Stack>();
  st->registry = std::make_unique<nn::gw::ModelRegistry>(tcsim::rtx3090(),
                                                         models.size());
  *load_ms = 0;
  for (const Served& m : models) {
    nn::gw::ModelConfig cfg;
    cfg.id = m.id;
    cfg.path = m.path;
    Span span(run.tracer, "registry.load");
    const Clock::time_point t0 = Clock::now();
    st->registry->load(cfg);
    *load_ms += ms_since(t0);
  }
  st->gateway = std::make_unique<nn::gw::Gateway>(*st->registry);
  for (const Served& m : models) {
    nn::wire::Client client(st->port());
    const Request& r = m.pool.front();
    if (client.infer_batch(r.frame).logits != r.golden) run.mismatched += 1;
  }
  return st;
}

/// Serving counters of one model at a phase boundary.
struct Snapshot {
  nn::InferenceServer::Stats stats;
  int replicas = 1;
  double gateway_sum_ms = 0;  ///< apnn_model_latency_ms_sum
};

double prom_value(const std::string& text, const std::string& series) {
  const std::string key = "\n" + series + " ";
  const std::size_t at = text.find(key);
  return at == std::string::npos
             ? 0.0
             : std::strtod(text.c_str() + at + key.size(), nullptr);
}

Snapshot snapshot(const Stack& st, const std::string& id) {
  Snapshot s;
  for (const auto& m : st.registry->stats()) {
    if (m.id == id) {
      s.stats = m.stats;
      s.replicas = m.replicas;
    }
  }
  s.gateway_sum_ms =
      prom_value(st.gateway->prometheus_text(),
                 "apnn_model_latency_ms_sum{model=\"" + id + "\"}");
  return s;
}

// --- workloads ----------------------------------------------------------------

/// What a workload's traffic produced, beyond the recorded phases.
struct Outcomes {
  const PhaseResult* primary = nullptr;  ///< the latency series
  Snapshot before, after;   ///< around the primary phase
  double throughput = 0;    ///< the workload's work per second
  double max_rate_rps = 0;  ///< resnet_open's SLO search (not gated)
  std::vector<double> reload_ms;  ///< RELOAD round trips under traffic
};

Traffic traffic_for(const Run& run, const Stack& st, const Served& m,
                    int connections, double rate, std::uint64_t stream) {
  Traffic t;
  t.port = st.port();
  t.pool = &m.pool;
  t.connections = connections;
  t.rate_rps = rate;
  t.seed = run.opt.seed * 1000003ULL + stream;
  t.tracer = run.tracer;
  return t;
}

int client_threads(int wanted) {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return static_cast<int>(std::max<long>(1, std::min<long>(wanted, n)));
}

/// mini_resnet under open-loop Poisson arrivals: latency at a low and a high
/// fixed rate, the capacity of two closed-loop connections, and a
/// log-bisection for the highest rate whose p99 meets the SLO without a
/// growing backlog. The bisection is reported but not gated: near the SLO
/// the p99-versus-rate curve is flat, so one stall moves the answer by more
/// than any useful bound (README.md, "What changed from the first design").
Outcomes resnet_open(Run& run, Stack& st, const Served& m, double secs) {
  constexpr double kLo = 600, kHi = 1200, kMaxProbe = 4800, kSloMs = 5.0;
  constexpr int kProbes = 6;
  const int conns = client_threads(4);
  Outcomes o;
  o.before = snapshot(st, m.id);
  o.primary = &run.record(
      run_phase("lo", traffic_for(run, st, m, conns, kLo, 1), 0.4 * secs));
  o.after = snapshot(st, m.id);
  run.record(
      run_phase("hi", traffic_for(run, st, m, conns, kHi, 2), 0.2 * secs));
  // Two back-to-back connections, as in the closed-loop workloads: with
  // four, client, gateway and replica threads oversubscribe the cores and
  // the rate becomes a scheduling lottery.
  o.throughput =
      summarize(run.record(run_phase(
                    "capacity",
                    traffic_for(run, st, m, client_threads(2), 0, 3),
                    0.25 * secs)))
          .items_per_s;

  double pass = kLo, fail = kMaxProbe;
  for (int i = 0; i < kProbes; ++i) {
    const double rate = std::sqrt(pass * fail);
    const PhaseResult& p = run.record(
        run_phase(strf("probe%d", i),
                  traffic_for(run, st, m, conns, rate, 10 + i),
                  0.15 * secs / kProbes));
    const bool ok = p.failed == 0 && !p.outcomes.empty() &&
                    summarize(p).p99_ms <= kSloMs &&
                    p.outcomes.back().late_ms <= kSloMs;
    (ok ? pass : fail) = rate;
  }
  o.max_rate_rps = pass;
  return o;
}

/// One closed loop over `conns` connections; throughput is items per second.
Outcomes closed_loop(Run& run, Stack& st, const Served& m, int conns,
                     double secs) {
  Outcomes o;
  o.before = snapshot(st, m.id);
  o.primary = &run.record(
      run_phase("main", traffic_for(run, st, m, conns, 0, 1), secs));
  o.after = snapshot(st, m.id);
  o.throughput = summarize(*o.primary).items_per_s;
  return o;
}

/// mini_resnet and tiny_transformer co-resident under open-loop traffic
/// while an admin connection RELOADs the transformer once a second.
Outcomes coresident(Run& run, Stack& st, const Served& resnet,
                    const Served& transformer, double secs) {
  Outcomes o;
  const double period = std::min(1.0, secs / 4);
  PhaseResult r, t;
  std::exception_ptr errors[3];
  const auto guarded = [&errors](int i, auto fn) {
    return std::thread([&errors, i, fn] {
      try {
        fn();
      } catch (...) {
        errors[i] = std::current_exception();
      }
    });
  };
  o.before = snapshot(st, resnet.id);
  {
    std::thread threads[] = {
        guarded(0, [&] {
          r = run_phase(
              "resnet",
              traffic_for(run, st, resnet, client_threads(2), 400, 1), secs);
        }),
        guarded(1, [&] {
          t = run_phase("transformer",
                        traffic_for(run, st, transformer, 1, 150, 2), secs);
        }),
        guarded(2, [&] {
          nn::wire::Client admin(st.port());
          const Clock::time_point start = Clock::now();
          for (double at = period / 2; at < secs - 0.25; at += period) {
            std::this_thread::sleep_until(
                start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(at)));
            Span span(run.tracer, "client.reload");
            const Clock::time_point t0 = Clock::now();
            admin.reload(transformer.id);
            o.reload_ms.push_back(ms_since(t0));
          }
        })};
    for (std::thread& th : threads) th.join();
  }
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  o.after = snapshot(st, resnet.id);
  o.primary = &run.record(std::move(r));
  o.throughput = summarize(*o.primary).items_per_s +
                 summarize(run.record(std::move(t))).items_per_s;
  return o;
}

// --- reporting ------------------------------------------------------------------

std::string num(double v) {
  return std::isfinite(v) ? strf("%.17g", v) : std::string("0");
}

std::string metrics_json(const Metrics& ms) {
  std::string s = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    s += strf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}", i ? ", " : "",
              ms[i].name.c_str(), num(ms[i].value).c_str(),
              ms[i].unit.c_str());
  }
  return s + "}";
}

std::string phases_json(const std::deque<PhaseResult>& phases) {
  std::string s = "[";
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const PhaseResult& p = phases[i];
    const Summary l = summarize(p);
    s += strf(
        "%s\n    {\"name\": \"%s\", \"offered_rps\": %s, \"connections\": %d, "
        "\"wall_s\": %s, \"sent\": %lld, \"ok\": %lld, \"failed\": %lld, "
        "\"mismatched\": %lld, \"p50_ms\": %s, \"p90_ms\": %s, "
        "\"p99_ms\": %s, \"p99_windows\": %d, \"late_p99_ms\": %s, "
        "\"items_per_s\": %s}",
        i ? "," : "", p.name.c_str(), num(p.offered_rps).c_str(),
        p.connections, num(p.wall_s).c_str(), static_cast<long long>(p.sent),
        static_cast<long long>(p.ok), static_cast<long long>(p.failed),
        static_cast<long long>(p.mismatched), num(l.p50_ms).c_str(),
        num(l.p90_ms).c_str(), num(l.p99_ms).c_str(), l.tail_windows,
        num(l.late_p99_ms).c_str(), num(l.items_per_s).c_str());
  }
  return s + "\n  ]";
}

std::string host_json(const Stack& st) {
  std::string topo;
  for (const auto& m : st.registry->stats()) {
    topo += strf("%s\"%s\": \"%dx%d\"", topo.empty() ? "" : ", ",
                 m.id.c_str(), m.replicas, m.slice_threads);
  }
  return strf(
      "{\"nproc\": %ld, \"hardware_threads\": %u, \"simd\": \"%s\", "
      "\"replicas_x_slice\": {%s}}",
      sysconf(_SC_NPROCESSORS_ONLN), std::thread::hardware_concurrency(),
      core::microkernel::kSimdFlavor, topo.c_str());
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int run_workload(const Options& opt) {
  const double started_unix =
      std::chrono::duration<double>(
          std::chrono::system_clock::now().time_since_epoch())
          .count();
  std::unique_ptr<Tracer> tracer;
  if (opt.trace) tracer = std::make_unique<Tracer>(std::size_t{1} << 18);
  Run run;
  run.opt = opt;
  run.tracer = tracer.get();

  const std::string out_dir =
      opt.out.empty() ? std::string(".bench_build/e2e/results") : opt.out;
  const std::string model_dir =
      strf("%s/models-%s-%ld", out_dir.c_str(), opt.workload.c_str(),
           static_cast<long>(getpid()));
  std::filesystem::create_directories(model_dir);

  // Traced runs spend a share of their time on the layer replays.
  const double serve_s = opt.trace ? 0.65 * opt.seconds : opt.seconds;
  const bool coresident_wl = opt.workload == "coresident_reload";
  Rng rng(opt.seed);
  std::vector<Served> models;
  if (opt.workload == "resnet_open" || coresident_wl) {
    models.push_back(write_model("mini_resnet", model_dir));
    fill_uniform(models.back(), rng, 256);
  }
  if (opt.workload == "vgg_batch") {
    models.push_back(write_model("vgg_lite", model_dir));
    fill_letterboxed_frames(models.back(), rng, 64);
  }
  if (opt.workload == "transformer_mixed" || coresident_wl) {
    models.push_back(write_model("tiny_transformer", model_dir));
    fill_tokens(models.back(), rng, coresident_wl ? 64 : 256,
                coresident_wl ? 64 : 0);
  }

  // Set-up: the median of several cold starts; the last one serves. Each
  // takes milliseconds, so many are cheap and make the median steady.
  const int cold_starts = opt.smoke ? 3 : 11;
  std::vector<double> setup_s, load_ms;
  std::unique_ptr<Stack> stack;
  for (int i = 0; i < cold_starts; ++i) {
    stack.reset();
    double lm = 0;
    const Clock::time_point t0 = Clock::now();
    stack = cold_start(run, models, &lm);
    setup_s.push_back(ms_since(t0) / 1e3);
    load_ms.push_back(lm);
  }
  const std::string host = host_json(*stack);

  // Warm-up off the record: lazy plan resolution for the batch sizes (and
  // sequence buckets) the traffic forms.
  const double warm_s = std::min(0.5, 0.05 * opt.seconds);
  for (std::size_t i = 0; i < models.size(); ++i) {
    run.record(run_phase("warmup", traffic_for(run, *stack, models[i],
                                               client_threads(4), 0, 90 + i),
                         warm_s));
  }

  Outcomes o;
  if (opt.workload == "resnet_open") {
    o = resnet_open(run, *stack, models[0], serve_s);
  } else if (coresident_wl) {
    o = coresident(run, *stack, models[0], models[1], serve_s);
  } else {  // vgg_batch, transformer_mixed
    o = closed_loop(run, *stack, models[0], client_threads(2), serve_s);
  }
  const Served& primary = models[0];
  const Served& reloaded = coresident_wl ? models[1] : models[0];

  const Summary lat = summarize(*o.primary);
  Metrics metrics;
  if (!opt.trace) {
    metrics.push_back({"setup_s", median(setup_s), "s"});
    metrics.push_back({"p50_ms", lat.p50_ms, "ms"});
    metrics.push_back({"p90_ms", lat.p90_ms, "ms"});
    metrics.push_back({"throughput", o.throughput, "1/s"});
    metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
  } else {
    std::int64_t sent = 0, ok = 0, failed = 0;
    for (const PhaseResult& p : run.phases) {
      if (p.name == "warmup") continue;
      sent += p.sent;
      ok += p.ok;
      failed += p.failed;
    }
    metrics.push_back({"loadgen.sent", static_cast<double>(sent), "count"});
    metrics.push_back({"loadgen.ok", static_cast<double>(ok), "count"});
    metrics.push_back({"loadgen.failed", static_cast<double>(failed), "count"});
    metrics.push_back({"loadgen.late_p99_ms", lat.late_p99_ms, "ms"});
    metrics.push_back({"loadgen.p99_ms", lat.p99_ms, "ms"});
    metrics.push_back(
        {"loadgen.p99_worst_window_ms", lat.worst_window_p99_ms, "ms"});
    metrics.push_back({"loadgen.traced_p50_ms", lat.p50_ms, "ms"});

    // Gateway: client time not spent inside the registry's infer().
    const PhaseResult& pp = *o.primary;
    double client_ms = 0;
    for (const Outcome& x : pp.outcomes) {
      if (x.ok) client_ms += x.service_ms;
    }
    const double served_ms = o.after.gateway_sum_ms - o.before.gateway_sum_ms;
    metrics.push_back({"gateway.self_ms",
                       ratio(client_ms - served_ms, static_cast<double>(pp.ok)),
                       "ms"});
    const std::size_t codec_n = std::min<std::size_t>(64, primary.pool.size());
    metrics.push_back(
        {"gateway.codec_us",
         codec_us(std::vector<Request>(primary.pool.begin(),
                                       primary.pool.begin() +
                                           static_cast<std::ptrdiff_t>(codec_n)),
                  primary.classes, 0.02 * opt.seconds),
         "us"});

    const nn::InferenceServer::Stats& a = o.before.stats;
    const nn::InferenceServer::Stats& b = o.after.stats;
    const double batches = static_cast<double>(b.batches - a.batches);
    const double requests = static_cast<double>(b.requests - a.requests);
    const double batch_ms = b.total_batch_ms - a.total_batch_ms;
    const double batch_mean = ratio(requests, batches);
    const double service_ms = ratio(batch_ms, batches);
    metrics.push_back({"gateway.frame_batch_ratio",
                       batch_mean / primary.pool.front().frame.count, "ratio"});

    // Registry: load from the cold starts, reload by direct calls.
    std::vector<double> reload_direct;
    for (int i = 0; i < 3; ++i) {
      Span span(run.tracer, "registry.reload");
      const Clock::time_point t0 = Clock::now();
      stack->registry->reload(reloaded.id);
      reload_direct.push_back(ms_since(t0));
    }
    metrics.push_back({"registry.load_ms", median(load_ms), "ms"});
    metrics.push_back({"registry.reload_ms.p50", median(reload_direct), "ms"});
    metrics.push_back(
        {"registry.reload_ms.max",
         *std::max_element(reload_direct.begin(), reload_direct.end()), "ms"});

    metrics.push_back({"server.batch_mean", batch_mean, "samples"});
    metrics.push_back({"server.service_ms", service_ms, "ms"});
    metrics.push_back(
        {"server.wait_ms",
         ratio(b.total_latency_ms - a.total_latency_ms, requests) - service_ms,
         "ms"});
    metrics.push_back(
        {"server.busy_frac",
         ratio(batch_ms, 1e3 * pp.wall_s * o.after.replicas), "fraction"});
    metrics.push_back({"server.peak_queue",
                       static_cast<double>(b.peak_queue_depth), "count"});

    // Layer replays run with the serving stack gone.
    stack.reset();
    Zoo zoo{build_network("mini_resnet"), build_network("vgg_lite"),
            build_network("tiny_transformer")};
    replay_layers(zoo, opt.seed, opt.seconds - serve_s, run.tracer, metrics);
  }
  stack.reset();
  std::filesystem::remove_all(model_dir);

  const bool correct = run.mismatched == 0;
  if (!correct) {
    std::fprintf(stderr, "FATAL: %lld responses differ from the golden logits\n",
                 static_cast<long long>(run.mismatched));
    metrics.clear();
  }
  for (const PhaseResult& p : run.phases) {
    const Summary l = summarize(p);
    std::printf("# %s phase %s: sent %lld ok %lld failed %lld, p50 %.3f ms, "
                "p90 %.3f ms, p99 %.3f ms (median of %d windows over %lld "
                "samples), late p99 %.3f ms, %.1f items/s\n",
                opt.workload.c_str(), p.name.c_str(),
                static_cast<long long>(p.sent), static_cast<long long>(p.ok),
                static_cast<long long>(p.failed), l.p50_ms, l.p90_ms, l.p99_ms,
                l.tail_windows, static_cast<long long>(l.samples),
                l.late_p99_ms, l.items_per_s);
  }
  if (o.max_rate_rps > 0) {
    std::printf("# %s max_rate_rps %.0f (SLO p99 <= 5 ms; not gated)\n",
                opt.workload.c_str(), o.max_rate_rps);
  }
  const double reload_ms = median(o.reload_ms);
  if (!o.reload_ms.empty()) {
    std::printf("# %s RELOAD round trip under traffic: median %.3f ms over "
                "%zu (not gated)\n",
                opt.workload.c_str(), reload_ms, o.reload_ms.size());
  }
  std::printf("# host %s\n", host.c_str());
  for (const Metric& m : metrics) {
    std::printf("%s %s %.6g %s\n", opt.workload.c_str(), m.name.c_str(),
                m.value, m.unit.c_str());
  }

  const std::string base =
      strf("%s/%s-s%llu", out_dir.c_str(), opt.workload.c_str(),
           static_cast<unsigned long long>(opt.seed));
  if (tracer != nullptr) {
    tracer->write_jsonl(base + ".spans.jsonl");
    std::printf("# spans %zu recorded, %lld dropped, in %s.spans.jsonl\n",
                tracer->recorded(), static_cast<long long>(tracer->dropped()),
                base.c_str());
  }
  const std::string result = strf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": %s}",
      correct ? "true" : "false", static_cast<long long>(run.attempted),
      static_cast<long long>(run.failed), metrics_json(metrics).c_str());
  std::string cold_starts_s;
  for (const double s : setup_s) {
    cold_starts_s += (cold_starts_s.empty() ? "" : ", ") + num(s);
  }
  if (std::FILE* f = std::fopen(strf("%s-t%d.json", base.c_str(),
                                     opt.trace ? 1 : 0).c_str(), "w")) {
    std::fprintf(
        f,
        "{\n  \"workload\": \"%s\",\n  \"seed\": %llu,\n  \"seconds\": %s,\n"
        "  \"trace\": %d,\n  \"smoke\": %s,\n  \"started_unix\": %.3f,\n"
        "  \"host\": %s,\n  \"mismatched\": %lld,\n  \"cold_starts_s\": [%s],\n"
        "  \"max_rate_rps\": %s,\n  \"reload_ms_median\": %s,\n"
        "  \"phases\": %s,\n  \"result\": %s\n}\n",
        opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
        num(opt.seconds).c_str(), opt.trace ? 1 : 0,
        opt.smoke ? "true" : "false", started_unix, host.c_str(),
        static_cast<long long>(run.mismatched), cold_starts_s.c_str(),
        num(o.max_rate_rps).c_str(), num(reload_ms).c_str(),
        phases_json(run.phases).c_str(), result.c_str());
    std::fclose(f);
  }
  std::printf("%s\n", result.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace apnn::e2e

int main(int argc, char** argv) {
  const apnn::e2e::Options opt = apnn::e2e::parse_args(argc, argv);
  try {
    return apnn::e2e::run_workload(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "apnn_bench: %s\n", e.what());
    return 1;
  }
}
