// Network-level hot-path regression gate: the pre-session interpreter
// forward (verbatim re-implementation of the old ApnnNetwork::forward) vs
// the compiled InferenceSession on a MiniResNet workload.
//
// The interpreter baseline is copied here verbatim from the pre-refactor
// code so later library changes cannot silently move it: it rebuilds the
// stage map on every call, keeps every layer's activation alive for the
// whole pass, materializes to_dense copies for the glue layers, runs
// residual adds / standalone ReLU / pool / quantize as serial dense scalar
// loops, packs dense codes bit-by-bit for the next conv, and round-trips
// the linear path through dense codes (±1 decode loop, make_operand
// re-decomposition, recompose into a vector followed by an element loop —
// the linear-stage double copy). The session compiles the network once:
// slab-owned buffers, kernels writing into caller storage, word-granular
// glue ops farmed over the thread pool.
//
// Bit-exactness of the two paths (and the dense reference model) is checked
// before any timing. Results are written as JSON, with the hardware thread
// count they were measured at, so CI can track the end-to-end forward
// speedup.
//
// Usage: apnn_forward_hotpath [out.json] [reps]
#include <algorithm>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/common/timer.hpp"
#include "src/nn/apnn_network.hpp"
#include "src/nn/model.hpp"
#include "src/nn/session.hpp"
#include "src/tcsim/device_spec.hpp"

namespace apnn {
namespace {

using nn::ApnnNetwork;
using nn::ApnnStage;
using nn::LayerKind;
using nn::LayerSpec;
using nn::ModelSpec;

// --- verbatim pre-session interpreter ---------------------------------------

struct Value {
  std::optional<layout::PackedActivations> packed;
  std::optional<Tensor<std::int32_t>> dense;

  bool valid() const { return packed.has_value() || dense.has_value(); }
};

Tensor<std::int32_t> to_dense(const Value& v) {
  APNN_CHECK(v.valid());
  if (v.dense) return *v.dense;
  return layout::unpack_activations(*v.packed);
}

const layout::PackedActivations& to_packed(
    const Value& v, int bits, layout::PackedActivations* storage) {
  APNN_CHECK(v.valid());
  if (v.packed) return *v.packed;
  APNN_CHECK(v.dense->rank() == 4) << "cannot pack feature vectors";
  *storage =
      layout::pack_activations(*v.dense, layout::DenseLayout::kNHWC, bits);
  return *storage;
}

Tensor<std::int32_t> to_features(const Value& v, std::int64_t batch) {
  Tensor<std::int32_t> d = to_dense(v);
  return d.reshaped({batch, d.numel() / batch});
}

Tensor<std::int32_t> pool_dense(const Tensor<std::int32_t>& x,
                                const core::PoolSpec& pool) {
  const std::int64_t b = x.dim(0), h = x.dim(1), w = x.dim(2), c = x.dim(3);
  const std::int64_t ph = h / pool.size, pw = w / pool.size;
  Tensor<std::int32_t> y({b, ph, pw, c});
  for (std::int64_t n = 0; n < b; ++n) {
    for (std::int64_t py = 0; py < ph; ++py) {
      for (std::int64_t px = 0; px < pw; ++px) {
        for (std::int64_t ch = 0; ch < c; ++ch) {
          std::int64_t agg =
              pool.kind == core::PoolSpec::Kind::kMax ? INT64_MIN : 0;
          for (int dy = 0; dy < pool.size; ++dy) {
            for (int dx = 0; dx < pool.size; ++dx) {
              const std::int32_t v =
                  x(n, py * pool.size + dy, px * pool.size + dx, ch);
              if (pool.kind == core::PoolSpec::Kind::kMax) {
                agg = std::max<std::int64_t>(agg, v);
              } else {
                agg += v;
              }
            }
          }
          if (pool.kind == core::PoolSpec::Kind::kAvg) {
            agg /= static_cast<std::int64_t>(pool.size) * pool.size;
          }
          y(n, py, px, ch) = static_cast<std::int32_t>(agg);
        }
      }
    }
  }
  return y;
}

/// The old per-call interpreter, expressed over the public ApnnNetwork API.
Tensor<std::int32_t> interpreter_forward(const ApnnNetwork& net,
                                         const Tensor<std::int32_t>& input_u8,
                                         const tcsim::DeviceSpec& dev) {
  const ModelSpec& spec = net.spec();
  const std::int64_t batch = input_u8.dim(0);
  std::map<std::size_t, const ApnnStage*> stage_at;
  for (const auto& st : net.stages()) stage_at[st.layer_index] = &st;

  std::vector<Value> vals(spec.layers.size());
  Value input_val;
  input_val.packed =
      layout::pack_activations(input_u8, layout::DenseLayout::kNHWC, 8);

  std::vector<bool> consumed(spec.layers.size(), false);
  Tensor<std::int32_t> logits;

  auto input_value = [&](std::size_t li) -> const Value& {
    const int src = spec.layers[li].input;
    if (src < 0) return li == 0 ? input_val : vals[li - 1];
    return vals[static_cast<std::size_t>(src)];
  };

  for (std::size_t li = 0; li < spec.layers.size(); ++li) {
    if (consumed[li]) continue;
    const LayerSpec& l = spec.layers[li];
    const Value& in = input_value(li);

    switch (l.kind) {
      case LayerKind::kConv: {
        const ApnnStage& st = *stage_at.at(li);
        const layout::ConvGeometry g =
            conv_geometry(spec, net.shapes(), li, batch);
        layout::PackedActivations packed_storage;
        const layout::PackedActivations& x =
            to_packed(in, st.in_bits, &packed_storage);
        core::ApconvOptions opts;
        core::ApconvResult r = core::apconv(st.weights, x, st.in_enc, g, dev,
                                            opts, st.epilogue, st.pool);
        Value out;
        if (st.epilogue.has_quant) {
          out.packed = std::move(r.packed);
        } else {
          out.dense = std::move(r.y);
        }
        vals[li] = out;
        for (std::size_t j : st.absorbed) {
          vals[j] = out;
          consumed[j] = true;
        }
        break;
      }
      case LayerKind::kLinear: {
        const ApnnStage& st = *stage_at.at(li);
        Tensor<std::int32_t> xf = to_features(in, batch);  // codes
        if (st.in_enc == core::Encoding::kSignedPM1) {
          for (std::int64_t i = 0; i < xf.numel(); ++i) {
            xf[i] = 2 * xf[i] - 1;  // decode to the ±1 logical values
          }
        }
        const core::ApOperand xop =
            core::make_operand(xf, st.in_enc, st.in_bits);
        core::ApmmOptions opts;
        core::ApmmResult r = core::apmm(st.weights, xop, dev, opts,
                                        st.epilogue);
        Value out;
        if (st.epilogue.has_quant) {
          // Unpack the N x M planes back to dense {B, F} codes (the
          // recompose-then-copy double pass the session eliminates).
          Tensor<std::int32_t> d({batch, st.weights.rows()});
          const std::vector<std::int32_t> codes = bitops::recompose(r.packed);
          for (std::int64_t i = 0; i < d.numel(); ++i) {
            d[i] = codes[static_cast<std::size_t>(i)];
          }
          out.dense = std::move(d);
        } else {
          Tensor<std::int32_t> d({batch, st.weights.rows()});
          for (std::int64_t b = 0; b < batch; ++b) {
            for (std::int64_t o = 0; o < st.weights.rows(); ++o) {
              d(b, o) = r.y(o, b);
            }
          }
          out.dense = std::move(d);
        }
        vals[li] = out;
        logits = *out.dense;
        for (std::size_t j : st.absorbed) {
          vals[j] = out;
          consumed[j] = true;
        }
        break;
      }
      case LayerKind::kBatchNorm:
        vals[li] = in;  // identity (zoo specs never hit this standalone)
        break;
      case LayerKind::kReLU: {
        Tensor<std::int32_t> y = to_dense(in);
        for (std::int64_t i = 0; i < y.numel(); ++i) y[i] = std::max(y[i], 0);
        Value v;
        v.dense = std::move(y);
        vals[li] = std::move(v);
        break;
      }
      case LayerKind::kPool: {
        Value v;
        v.dense = pool_dense(to_dense(in), l.pool);
        vals[li] = std::move(v);
        break;
      }
      case LayerKind::kQuantize: {
        const auto it = net.standalone_quant().find(li);
        APNN_CHECK(it != net.standalone_quant().end());
        Tensor<std::int32_t> y = to_dense(in);
        for (std::int64_t i = 0; i < y.numel(); ++i) {
          y[i] = quant::quantize_value(static_cast<float>(y[i]), it->second);
        }
        Value v;
        v.dense = std::move(y);
        vals[li] = std::move(v);
        break;
      }
      case LayerKind::kResidualAdd: {
        Tensor<std::int32_t> a = to_dense(in);
        const Tensor<std::int32_t> b =
            to_dense(vals[static_cast<std::size_t>(l.residual)]);
        APNN_CHECK(a.numel() == b.numel());
        for (std::int64_t i = 0; i < a.numel(); ++i) a[i] += b[i];
        Value v;
        v.dense = std::move(a);
        vals[li] = std::move(v);
        break;
      }
      case LayerKind::kSoftmax:
        vals[li] = in;
        break;
      case LayerKind::kAttention:
        APNN_CHECK(false) << "interpreter baseline: attention layer "
                          << l.name << " is not modeled";
        break;
    }
  }
  APNN_CHECK(logits.numel() > 0) << "network has no linear head";
  return logits;
}

template <typename Fn>
double best_of_ms(int reps, Fn&& fn) {
  double best = 1e30;
  for (int r = 0; r < reps; ++r) {
    WallTimer t;
    fn();
    best = std::min(best, t.millis());
  }
  return best;
}

}  // namespace
}  // namespace apnn

int main(int argc, char** argv) {
  using namespace apnn;
  const std::string out_path =
      argc > 1 ? argv[1] : "BENCH_apnn_forward_hotpath.json";
  const int reps = argc > 2 ? std::atoi(argv[2]) : 5;

  // Reference workload: a residual network at serving size — every glue op
  // the session parallelized is on the path (residual adds over packed and
  // dense values, standalone ReLU/quantize, avgpool, the linear head), plus
  // the 8-bit input pack and the per-layer packed handoffs.
  const std::int64_t batch = 8, hw = 32, in_c = 8, classes = 10;
  const nn::ModelSpec m = nn::mini_resnet(in_c, hw, classes);
  nn::ApnnNetwork net = nn::ApnnNetwork::random(m, 1, 2, 42);
  Rng rng(43);
  Tensor<std::int32_t> input({batch, hw, hw, in_c});
  input.randomize(rng, 0, 255);
  net.calibrate(input);
  const auto& dev = tcsim::rtx3090();

  // Correctness gate first: interpreter, session, and the dense integer
  // reference must agree bit-exactly.
  const Tensor<std::int32_t> ref = net.forward_reference(input);
  const Tensor<std::int32_t> interp = interpreter_forward(net, input, dev);
  nn::InferenceSession session(net, dev);
  Tensor<std::int32_t> sess_logits;
  session.run(input, &sess_logits);
  if (!(interp == ref)) {
    std::fprintf(stderr, "FATAL: interpreter mismatches reference\n");
    return 1;
  }
  if (!(sess_logits == ref)) {
    std::fprintf(stderr, "FATAL: session mismatches reference\n");
    return 1;
  }

  const double interp_ms = best_of_ms(reps, [&] {
    interpreter_forward(net, input, dev);
  });
  const double session_ms = best_of_ms(reps, [&] {
    session.run(input, &sess_logits);
  });
  // A fresh compile per call (what ApnnNetwork::forward does) for context.
  const double compile_run_ms = best_of_ms(reps, [&] {
    nn::InferenceSession s(net, dev);
    Tensor<std::int32_t> l;
    s.run(input, &l);
  });

  const double speedup = interp_ms / session_ms;
  const double fps_interp = 1000.0 / interp_ms * static_cast<double>(batch);
  const double fps_session = 1000.0 / session_ms * static_cast<double>(batch);
  const unsigned hw_threads = std::max(1u, std::thread::hardware_concurrency());

  std::printf("apnn forward hot path, MiniResNet %lldx%lldx%lld w1a2, batch %lld\n",
              static_cast<long long>(hw), static_cast<long long>(hw),
              static_cast<long long>(in_c), static_cast<long long>(batch));
  std::printf("  interpreter forward : %8.2f ms  (%8.1f samples/s)\n",
              interp_ms, fps_interp);
  std::printf("  session run         : %8.2f ms  (%8.1f samples/s)\n",
              session_ms, fps_session);
  std::printf("  compile+run         : %8.2f ms\n", compile_run_ms);
  std::printf("  speedup             : %6.2fx\n", speedup);
  std::printf("  slab footprint      : %8.1f KiB over %zu slots (%zu steps)\n",
              static_cast<double>(session.slab().capacity_bytes()) / 1024.0,
              session.slot_count(), session.step_count());

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"apnn_forward_hotpath\",\n"
               "  \"workload\": \"mini_resnet_w1a2_residual_serving\",\n"
               "  \"batch\": %lld,\n  \"hw\": %lld,\n  \"in_c\": %lld,\n"
               "  \"classes\": %lld,\n"
               "  \"reps\": %d,\n"
               "  \"hardware_threads\": %u,\n"
               "  \"bit_exact\": true,\n"
               "  \"interpreter_ms\": %.3f,\n"
               "  \"session_ms\": %.3f,\n"
               "  \"compile_run_ms\": %.3f,\n"
               "  \"interpreter_fps\": %.1f,\n"
               "  \"session_fps\": %.1f,\n"
               "  \"slab_bytes\": %zu,\n"
               "  \"slots\": %zu,\n"
               "  \"steps\": %zu,\n"
               "  \"speedup\": %.3f\n"
               "}\n",
               static_cast<long long>(batch), static_cast<long long>(hw),
               static_cast<long long>(in_c), static_cast<long long>(classes),
               reps, hw_threads, interp_ms, session_ms, compile_run_ms,
               fps_interp, fps_session, session.slab().capacity_bytes(),
               session.slot_count(), session.step_count(), speedup);
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
