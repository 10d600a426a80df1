#include "src/nn/engine.hpp"

#include <cmath>

#include "src/baselines/bnn.hpp"
#include "src/baselines/conv.hpp"
#include "src/baselines/gemm.hpp"
#include "src/common/check.hpp"
#include "src/common/strings.hpp"
#include "src/core/apconv.hpp"
#include "src/core/apmm.hpp"

namespace apnn::nn {

namespace {

using core::Encoding;
using core::EncodingConfig;
using core::Epilogue;
using core::PoolSpec;

constexpr std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  return (a + b - 1) / b;
}

tcsim::Precision scheme_precision(Scheme s) {
  switch (s) {
    case Scheme::kFloat32: return tcsim::Precision::kFp32;
    case Scheme::kFloat16: return tcsim::Precision::kFp16;
    case Scheme::kInt8: return tcsim::Precision::kInt8;
    case Scheme::kBnn: return tcsim::Precision::kInt1;
    case Scheme::kApnn: return tcsim::Precision::kInt1;
  }
  return tcsim::Precision::kFp32;
}

/// Bytes per activation element as it crosses layer boundaries.
double act_bytes(const SchemeConfig& cfg) {
  switch (cfg.scheme) {
    case Scheme::kFloat32: return 4.0;
    case Scheme::kFloat16: return 2.0;
    case Scheme::kInt8: return 1.0;
    case Scheme::kBnn: return 1.0 / 8.0;
    case Scheme::kApnn: return cfg.abits / 8.0;
  }
  return 4.0;
}

/// Generic elementwise kernel profile (BN / ReLU / pool / quantize /
/// residual add when not fused).
tcsim::KernelProfile elementwise_profile(const std::string& name,
                                         std::int64_t elems, double in_bytes,
                                         double out_bytes,
                                         std::int64_t alu_per_elem) {
  tcsim::KernelProfile prof;
  prof.name = name;
  prof.family = "apnn";
  prof.grid_blocks = ceil_div(elems, 4096);
  prof.threads_per_block = 256;
  prof.ci = 0;
  auto& c = prof.counters;
  c.kernel_launches = 1;
  c.global_load_bytes =
      static_cast<std::int64_t>(std::ceil(static_cast<double>(elems) * in_bytes));
  c.global_store_bytes =
      static_cast<std::int64_t>(std::ceil(static_cast<double>(elems) * out_bytes));
  c.alu_epilogue_ops = elems * alu_per_elem;
  return prof;
}

Epilogue tail_epilogue(const TailScan& t, std::int64_t channels, int abits) {
  Epilogue epi;
  if (t.has_bn) {
    epi.has_bn = true;
    epi.bn.scale.assign(static_cast<std::size_t>(channels), 1.0f);
    epi.bn.bias.assign(static_cast<std::size_t>(channels), 0.0f);
  }
  epi.has_relu = t.has_relu;
  if (t.has_quant) {
    epi.has_quant = true;
    epi.quant.bits = abits;
    epi.quant.scale = 1.0;  // parameters are irrelevant for profiling
  }
  return epi;
}

}  // namespace

const char* scheme_name(Scheme s) {
  switch (s) {
    case Scheme::kFloat32: return "CUTLASS-Single";
    case Scheme::kFloat16: return "CUTLASS-Half-TC";
    case Scheme::kInt8: return "CUTLASS-INT8-TC";
    case Scheme::kBnn: return "BNN";
    case Scheme::kApnn: return "APNN";
  }
  return "?";
}

std::string SchemeConfig::label() const {
  if (scheme == Scheme::kApnn) {
    return strf("APNN-w%da%d", wbits, abits);
  }
  return scheme_name(scheme);
}

ModelProfile profile_model(const ModelSpec& m, std::int64_t batch,
                           const SchemeConfig& cfg,
                           const tcsim::DeviceSpec& dev) {
  APNN_CHECK(batch >= 1);
  const auto shapes = propagate_shapes(m);
  const tcsim::CostModel cm(dev);
  ModelProfile mp;
  mp.model = m.name;
  mp.scheme = cfg.label();
  mp.batch = batch;

  const bool bitwise =
      cfg.scheme == Scheme::kApnn || cfg.scheme == Scheme::kBnn;
  const int p = cfg.scheme == Scheme::kBnn ? 1 : cfg.wbits;
  const int q = cfg.scheme == Scheme::kBnn ? 1 : cfg.abits;
  const EncodingConfig enc{
      p == 1 ? Encoding::kSignedPM1 : Encoding::kUnsigned01,
      cfg.scheme == Scheme::kBnn ? Encoding::kSignedPM1
                                 : Encoding::kUnsigned01};

  auto add_layer = [&](const std::string& name, LayerKind kind,
                       const tcsim::SequenceProfile& seq) {
    LayerProfile lp;
    lp.name = name;
    lp.kind = kind;
    lp.latency = cm.estimate(seq);
    lp.counters = seq.total_counters();
    mp.total_us += lp.latency.total_us;
    mp.layers.push_back(std::move(lp));
  };
  auto add_fused = [&](const std::string& name, LayerKind kind) {
    LayerProfile lp;
    lp.name = name;
    lp.kind = kind;
    lp.fused_away = true;
    mp.layers.push_back(std::move(lp));
  };

  // §5.1: the int8 image is decomposed into bit planes; the first
  // conv/linear layer consumes all 8 of them (its epilogue quantizes down to
  // q bits for the intermediate layers). This is why the first layer
  // dominates the Fig. 9 breakdown.
  const int input_bits = cfg.scheme == Scheme::kBnn ? 1 : 8;
  if (bitwise) {
    tcsim::SequenceProfile seq;
    seq.add(core::decompose_profile(batch * m.input.h * m.input.w, m.input.c,
                                    input_bits, 1.0));
    add_layer("input.quant", LayerKind::kQuantize, seq);
  }

  std::vector<bool> consumed(m.layers.size(), false);
  bool first_gemm_seen = false;

  for (std::size_t li = 0; li < m.layers.size(); ++li) {
    const LayerSpec& l = m.layers[li];
    if (consumed[li]) {
      add_fused(l.name, l.kind);
      continue;
    }
    const ActShape in_shape =
        l.input >= 0 ? shapes[static_cast<std::size_t>(l.input)]
                     : (li == 0 ? m.input : shapes[li - 1]);
    const ActShape out_shape = shapes[li];
    const std::int64_t out_elems = batch * out_shape.numel();

    switch (l.kind) {
      case LayerKind::kConv: {
        const layout::ConvGeometry g = conv_geometry(m, shapes, li, batch);
        tcsim::SequenceProfile seq;
        if (cfg.scheme == Scheme::kApnn) {
          TailScan tail = scan_tail(m, li);
          if (!cfg.fuse) tail.absorbed.clear();  // priced as separate kernels
          core::ApconvOptions opts;
          opts.fuse_epilogue = cfg.fuse;
          const int q_in = first_gemm_seen ? q : 8;
          seq = core::apconv_profile(g, p, q_in, enc, dev, opts,
                                     tail_epilogue(tail, g.out_c, q),
                                     cfg.fuse ? tail.pool : PoolSpec{});
          add_layer(l.name, l.kind, seq);
          for (std::size_t j : tail.absorbed) consumed[j] = true;
        } else if (cfg.scheme == Scheme::kBnn) {
          seq.add(baselines::bnn_conv_profile(g));
          add_layer(l.name, l.kind, seq);
        } else {
          seq.add(baselines::cutlass_conv_profile(scheme_precision(cfg.scheme),
                                                  g));
          add_layer(l.name, l.kind, seq);
        }
        first_gemm_seen = true;
        break;
      }
      case LayerKind::kLinear: {
        const std::int64_t in_features = in_shape.numel();
        tcsim::SequenceProfile seq;
        if (cfg.scheme == Scheme::kApnn) {
          TailScan tail = scan_tail(m, li);
          if (!cfg.fuse) tail.absorbed.clear();
          core::ApmmOptions opts;
          const int q_in = first_gemm_seen ? q : 8;
          seq = core::apmm_profile(l.out_features, batch, in_features, p,
                                   q_in, enc, dev, opts,
                                   tail_epilogue(tail, l.out_features, q));
          add_layer(l.name, l.kind, seq);
          for (std::size_t j : tail.absorbed) consumed[j] = true;
        } else if (cfg.scheme == Scheme::kBnn) {
          seq.add(baselines::bnn_gemm_profile(l.out_features, batch,
                                              in_features));
          add_layer(l.name, l.kind, seq);
        } else if (cfg.scheme == Scheme::kInt8) {
          seq.add(baselines::cublas_gemm_int8_profile(l.out_features, batch,
                                                      in_features));
          add_layer(l.name, l.kind, seq);
        } else {
          seq.add(baselines::cutlass_gemm_profile(
              scheme_precision(cfg.scheme), l.out_features, batch,
              in_features));
          add_layer(l.name, l.kind, seq);
        }
        first_gemm_seen = true;
        break;
      }
      case LayerKind::kAttention: {
        // Attention lowers to GEMMs — Q/K/V projections, per-(sample, head)
        // QK^T and attn x V, and the output projection — plus the integer
        // softmax over the score matrices: fused into the QK^T epilogue
        // for fused APNN (packed codes leave the kernel), else a separate
        // elementwise pass.
        const std::int64_t seq_len = in_shape.h;
        const std::int64_t d_model = in_shape.c;
        const std::int64_t dh = l.attn.d_head;
        const std::int64_t heads = l.attn.heads;
        const std::int64_t proj = heads * dh;
        const std::int64_t tokens = batch * seq_len;
        tcsim::SequenceProfile seq;
        const bool apnn = cfg.scheme == Scheme::kApnn;
        const bool fused_scores = apnn && cfg.fuse;
        auto add_gemm = [&](std::int64_t gm, std::int64_t gn,
                            std::int64_t gk, int q_act, std::int64_t count,
                            bool scores = false) {
          tcsim::SequenceProfile one;
          if (apnn) {
            core::ApmmOptions opts;
            Epilogue epi;
            if (scores) {
              epi.has_softmax = true;
              epi.softmax.bits = q;
            } else {
              epi.has_relu = true;
              epi.has_quant = true;
              epi.quant.bits = q;
              epi.quant.scale = 1.0;
            }
            one = core::apmm_profile(gm, gn, gk, p, q_act, enc, dev, opts,
                                     epi);
          } else if (cfg.scheme == Scheme::kBnn) {
            one.add(baselines::bnn_gemm_profile(gm, gn, gk));
          } else if (cfg.scheme == Scheme::kInt8) {
            one.add(baselines::cublas_gemm_int8_profile(gm, gn, gk));
          } else {
            one.add(baselines::cutlass_gemm_profile(
                scheme_precision(cfg.scheme), gm, gn, gk));
          }
          for (std::int64_t i = 0; i < count; ++i) {
            for (const auto& kp : one.kernels) seq.add(kp);
          }
        };
        const int q_in = first_gemm_seen ? q : 8;
        add_gemm(proj, tokens, d_model, q_in, 3);           // Q/K/V
        add_gemm(seq_len, seq_len, dh, q, batch * heads,  // QK^T
                 fused_scores);
        add_gemm(seq_len, dh, seq_len, q, batch * heads);   // attn x V
        add_gemm(d_model, tokens, proj, q, 1);              // output proj
        if (!fused_scores) {
          seq.add(elementwise_profile(l.name + ".softmax",
                                      batch * heads * seq_len * seq_len, 4.0,
                                      act_bytes(cfg), 4));
        }
        add_layer(l.name, l.kind, seq);
        first_gemm_seen = true;
        break;
      }
      case LayerKind::kBatchNorm:
      case LayerKind::kReLU: {
        tcsim::SequenceProfile seq;
        // Pre-quantization activations are 32-bit accumulators for the
        // integer schemes; float schemes stay at their native width.
        const double w = cfg.scheme == Scheme::kFloat16 ? 2.0 : 4.0;
        seq.add(elementwise_profile(l.name, out_elems, w, w,
                                    l.kind == LayerKind::kBatchNorm ? 2 : 1));
        add_layer(l.name, l.kind, seq);
        break;
      }
      case LayerKind::kPool: {
        tcsim::SequenceProfile seq;
        const double w = cfg.scheme == Scheme::kFloat16 ? 2.0 : 4.0;
        const std::int64_t in_elems = batch * in_shape.numel();
        const double win =
            l.pool.size == 0
                ? static_cast<double>(in_shape.h * in_shape.w)  // global
                : static_cast<double>(l.pool.size * l.pool.size);
        seq.add(elementwise_profile(l.name, in_elems, w, w / win, 1));
        add_layer(l.name, l.kind, seq);
        break;
      }
      case LayerKind::kQuantize: {
        if (cfg.scheme == Scheme::kFloat32 ||
            cfg.scheme == Scheme::kFloat16) {
          add_fused(l.name, l.kind);  // no quantization in float schemes
          break;
        }
        tcsim::SequenceProfile seq;
        seq.add(elementwise_profile(l.name, out_elems, 4.0, act_bytes(cfg),
                                    2 + (bitwise ? q : 0)));
        add_layer(l.name, l.kind, seq);
        break;
      }
      case LayerKind::kResidualAdd: {
        tcsim::SequenceProfile seq;
        const double w = cfg.scheme == Scheme::kFloat16 ? 2.0 : 4.0;
        seq.add(elementwise_profile(l.name, out_elems, 2.0 * w, w, 1));
        add_layer(l.name, l.kind, seq);
        break;
      }
      case LayerKind::kSoftmax: {
        tcsim::SequenceProfile seq;
        seq.add(elementwise_profile(l.name, out_elems, 4.0, 4.0, 4));
        add_layer(l.name, l.kind, seq);
        break;
      }
    }
  }
  return mp;
}

}  // namespace apnn::nn
