#include "src/nn/session.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <vector>

#include "src/bitops/bitcopy.hpp"
#include "src/common/check.hpp"
#include "src/common/faultinject.hpp"
#include "src/core/perf_model.hpp"
#include "src/layout/bit_transpose.hpp"
#include "src/nn/attention_math.hpp"
#include "src/parallel/thread_pool.hpp"
#include "src/quant/quantizer.hpp"

namespace apnn::nn {

namespace {

using core::Encoding;
using core::PoolSpec;

constexpr std::size_t kNoLayer = std::numeric_limits<std::size_t>::max();

/// How a plan value is materialized in its slab slot.
enum class ValueFormat {
  kDense,         ///< SlabSlot::dense — NHWC {B,H,W,C} or features {B,F}
  kPackedConv,    ///< SlabSlot::packed — channel-major packed activations
  kPackedLinear,  ///< SlabSlot::planes — N x M planes from a quantizing apmm
  kPackedTokens,  ///< SlabSlot::planes — (B*seq) x C token-major planes
};

enum class StepKind {
  kPackInput,     ///< dense uint8 image -> 8-bit packed planes
  kConv,          ///< apconv stage (fused tail)
  kLinear,        ///< apmm stage (operand assembly fused in)
  kResidualAdd,   ///< dense/packed + dense/packed -> dense
  kRelu,          ///< dense -> dense
  kPool,          ///< dense -> dense
  kQuantize,      ///< dense -> dense codes or packed planes (fused repack)
  kPack,          ///< dense codes -> packed conv planes
  kUnpack,        ///< packed conv planes -> dense codes
  kUnpackLinear,  ///< N x M feature planes -> dense {B, F} codes
  kAttnProj,      ///< Q/K/V projection apmm (aux = 0/1/2), quantizing tail
  kAttnScores,    ///< per-head QK^T, row-softmax epilogue -> codes (aux=head)
  kAttnContext,   ///< per-head attn x V via packed transpose (aux = head)
  kAttnOut,       ///< concat heads (extra_in) + output projection apmm
  kUnpackTokens,  ///< token-major planes -> dense NHWC {B, seq, 1, C} codes
};

// --- glue kernels -----------------------------------------------------------
//
// The word-granular blocked bodies of the plan's glue ops. Each parallel_for
// task owns whole packed rows (or disjoint dense ranges), so tasks never
// share a 64-bit word and the kernels are race-free by construction.

constexpr int kMaxBits = 16;  // plane-count ceiling of pack_activations
constexpr std::int64_t kRowGrain = 64;

/// Shared word-granular bit-plane transpose: for each of `rows` rows of `c`
/// elements, `code_of(v)` yields the code whose bits land in the planes
/// starting at plane row `row_off`. Every word of every written padded row
/// is overwritten (zeros beyond column c), so destinations may skip the
/// reset_shape zero fill — the bit-packed output needs no second pass.
template <typename CodeFn>
void pack_rows(ThreadPool& tp, const std::int32_t* src, std::int64_t rows,
               std::int64_t c, int bits,
               std::vector<bitops::BitMatrix>& planes, std::int64_t grain,
               std::int64_t row_off, CodeFn&& code_of) {
  APNN_CHECK(bits >= 1 && bits <= kMaxBits);
  const std::int64_t row_words = planes[0].row_words();
  tp.parallel_for(0, rows, [&](std::int64_t r) {
    const std::int32_t* s = src + r * c;
    for (std::int64_t w = 0; w < row_words; ++w) {
      const std::int64_t w0 = w * 64;
      const int jmax = static_cast<int>(
          std::clamp<std::int64_t>(c - w0, 0, 64));
      std::uint64_t acc[kMaxBits] = {};
      for (int j = 0; j < jmax; ++j) {
        const std::int32_t code = code_of(s[w0 + j]);
        for (int t = 0; t < bits; ++t) {
          acc[t] |= static_cast<std::uint64_t>((code >> t) & 1) << j;
        }
      }
      for (int t = 0; t < bits; ++t) {
        planes[static_cast<std::size_t>(t)].row(row_off + r)[w] = acc[t];
      }
    }
  }, grain);
}

/// Packs `rows` x `c` non-negative codes (row-major, values < 2^bits).
/// Throws on out-of-range values.
void pack_codes(ThreadPool& tp, const std::int32_t* src, std::int64_t rows,
                std::int64_t c, int bits,
                std::vector<bitops::BitMatrix>& planes,
                std::int64_t grain = kRowGrain, std::int64_t row_off = 0) {
  const std::int32_t hi = static_cast<std::int32_t>(1u << bits);
  pack_rows(tp, src, rows, c, bits, planes, grain, row_off,
            [&](std::int32_t v) {
    APNN_CHECK(v >= 0 && v < hi)
        << "activation " << v << " out of range for " << bits << " bits";
    return v;
  });
}

/// Decodes packed planes back to dense codes; `accumulate` adds instead of
/// overwriting (the packed-input side of a residual add).
void decode_planes(ThreadPool& tp,
                   const std::vector<bitops::BitMatrix>& planes, int bits,
                   std::int64_t rows, std::int64_t c, std::int32_t* dst,
                   bool accumulate) {
  tp.parallel_for(0, rows, [&](std::int64_t r) {
    std::int32_t* d = dst + r * c;
    for (std::int64_t w0 = 0; w0 < c; w0 += 64) {
      const int jmax = static_cast<int>(std::min<std::int64_t>(64, c - w0));
      std::uint64_t wt[kMaxBits];
      for (int t = 0; t < bits; ++t) {
        wt[t] = planes[static_cast<std::size_t>(t)].row(r)[w0 / 64];
      }
      for (int j = 0; j < jmax; ++j) {
        std::int32_t v = 0;
        for (int t = 0; t < bits; ++t) {
          v |= static_cast<std::int32_t>((wt[t] >> j) & 1) << t;
        }
        if (accumulate) {
          d[w0 + j] += v;
        } else {
          d[w0 + j] = v;
        }
      }
    }
  }, kRowGrain);
}

void add_dense(ThreadPool& tp, const std::int32_t* src, std::int32_t* dst,
               std::int64_t n) {
  tp.parallel_for(0, (n + 4095) / 4096, [&](std::int64_t blk) {
    const std::int64_t lo = blk * 4096;
    const std::int64_t hi = std::min(n, lo + 4096);
    for (std::int64_t i = lo; i < hi; ++i) dst[i] += src[i];
  });
}

void relu_dense(ThreadPool& tp, const std::int32_t* src, std::int32_t* dst,
                std::int64_t n) {
  tp.parallel_for(0, (n + 4095) / 4096, [&](std::int64_t blk) {
    const std::int64_t lo = blk * 4096;
    const std::int64_t hi = std::min(n, lo + 4096);
    for (std::int64_t i = lo; i < hi; ++i) dst[i] = std::max(src[i], 0);
  });
}

void quantize_dense(ThreadPool& tp, const std::int32_t* src,
                    std::int32_t* dst, std::int64_t n,
                    const quant::QuantParams& p) {
  tp.parallel_for(0, (n + 4095) / 4096, [&](std::int64_t blk) {
    const std::int64_t lo = blk * 4096;
    const std::int64_t hi = std::min(n, lo + 4096);
    for (std::int64_t i = lo; i < hi; ++i) {
      dst[i] = quant::quantize_value(static_cast<float>(src[i]), p);
    }
  });
}

/// Fused standalone quantize + bit repack: dense pre-quant values straight
/// into packed planes — the dense code tensor never exists.
void quantize_pack(ThreadPool& tp, const std::int32_t* src,
                   std::int64_t rows, std::int64_t c,
                   const quant::QuantParams& p,
                   std::vector<bitops::BitMatrix>& planes,
                   std::int64_t row_off = 0) {
  pack_rows(tp, src, rows, c, p.bits, planes, kRowGrain, row_off,
            [&](std::int32_t v) {
    return quant::quantize_value(static_cast<float>(v), p);
  });
}

/// ReLU + quantize + repack in one pass — the attention context tail. The
/// ReLU must run before quantization (a negative zero-point would otherwise
/// map negative accumulators to nonzero codes).
void relu_quantize_pack(ThreadPool& tp, const std::int32_t* src,
                        std::int64_t rows, std::int64_t c,
                        const quant::QuantParams& p,
                        std::vector<bitops::BitMatrix>& planes,
                        std::int64_t row_off) {
  pack_rows(tp, src, rows, c, p.bits, planes, kRowGrain, row_off,
            [&](std::int32_t v) {
    return quant::quantize_value(static_cast<float>(std::max(v, 0)), p);
  });
}

/// Integer max/avg pooling, NHWC, identical arithmetic to the reference
/// walker's pool_dense (int64 aggregate, truncating average). size == 0 is
/// the global-pool convention: one window covering the whole spatial map.
void pool_nhwc(ThreadPool& tp, const std::int32_t* src, std::int64_t b,
               std::int64_t h, std::int64_t w, std::int64_t c,
               const PoolSpec& pool, std::int32_t* dst) {
  const std::int64_t win_h = pool.size == 0 ? h : pool.size;
  const std::int64_t win_w = pool.size == 0 ? w : pool.size;
  const std::int64_t ph = h / win_h, pw = w / win_w;
  tp.parallel_for(0, b * ph, [&](std::int64_t row) {
    const std::int64_t n = row / ph, py = row % ph;
    for (std::int64_t px = 0; px < pw; ++px) {
      for (std::int64_t ch = 0; ch < c; ++ch) {
        std::int64_t agg = pool.kind == PoolSpec::Kind::kMax ? INT64_MIN : 0;
        for (std::int64_t dy = 0; dy < win_h; ++dy) {
          for (std::int64_t dx = 0; dx < win_w; ++dx) {
            const std::int32_t v =
                src[(((n * h) + py * win_h + dy) * w + px * win_w +
                     dx) * c + ch];
            if (pool.kind == PoolSpec::Kind::kMax) {
              agg = std::max<std::int64_t>(agg, v);
            } else {
              agg += v;
            }
          }
        }
        if (pool.kind == PoolSpec::Kind::kAvg) {
          agg /= win_h * win_w;
        }
        dst[((n * ph + py) * pw + px) * c + ch] =
            static_cast<std::int32_t>(agg);
      }
    }
  });
}

/// Assembles the linear-stage feature operand straight from packed
/// channel-major activations: sample b's operand row is the concatenation
/// of its h*w C-bit channel slabs, copied at word granularity — the packed
/// planes never round-trip through dense codes.
void gather_linear_operand(ThreadPool& tp,
                           const layout::PackedActivations& x,
                           bitops::BitPlanes& dst) {
  const std::int64_t per_sample = x.h * x.w;
  tp.parallel_for(0, x.n * x.bits, [&](std::int64_t task) {
    const std::int64_t b = task / x.bits;
    const int t = static_cast<int>(task % x.bits);
    const bitops::BitMatrix& plane = x.planes[static_cast<std::size_t>(t)];
    std::uint64_t* out = dst.planes[static_cast<std::size_t>(t)].row(b);
    for (std::int64_t r = 0; r < per_sample; ++r) {
      bitops::copy_bits(out, r * x.c, plane.row(b * per_sample + r), 0, x.c);
    }
  });
}

/// Decomposes dense codes ({B, F} row-major) into operand planes. The
/// range check mirrors what make_operand/encode_value enforced on the old
/// linear path: an un-quantized value reaching a narrow operand must fail
/// loudly, not truncate to its low bits.
void decompose_linear_operand(ThreadPool& tp, const std::int32_t* src,
                              std::int64_t batch, std::int64_t feat, int bits,
                              bitops::BitPlanes& dst) {
  pack_codes(tp, src, batch, feat, bits, dst.planes, /*grain=*/1);
}

/// M x N -> {N, M} transpose (apmm emits out_features x batch).
void transpose_mn(ThreadPool& tp, const std::int32_t* src, std::int64_t m,
                  std::int64_t n, std::int32_t* dst) {
  tp.parallel_for(0, n, [&](std::int64_t j) {
    for (std::int64_t i = 0; i < m; ++i) dst[j * m + i] = src[i * n + j];
  }, kRowGrain);
}

// --- attention staging ------------------------------------------------------
//
// Per-(sample, head) operand slices for the score/context GEMMs. Both
// helpers reshape scratch planes in place, so steady-state reuse allocates
// nothing once each scratch slot reached its high-water capacity.

/// Copies the column window [col0, col0 + ncols) of token rows
/// [row0, row0 + nrows) from token-major planes into a compact
/// nrows x ncols operand (one head's Q/K/V slice).
void stage_col_slice(ThreadPool& tp, const bitops::BitPlanes& src,
                     std::int64_t row0, std::int64_t nrows, std::int64_t col0,
                     std::int64_t ncols, bitops::BitPlanes& dst) {
  // copy_bits only touches [0, ncols); the zero fill keeps the word padding
  // beyond it honest.
  dst.reset_shape(nrows, ncols, src.bits, /*zero_fill=*/true);
  tp.parallel_for(0, nrows * src.bits, [&](std::int64_t task) {
    const std::int64_t r = task / src.bits;
    const int t = static_cast<int>(task % src.bits);
    bitops::copy_bits(dst.planes[static_cast<std::size_t>(t)].row(r), 0,
                      src.planes[static_cast<std::size_t>(t)].row(row0 + r),
                      col0, ncols);
  }, kRowGrain);
}

/// Copies whole token rows [row0, row0 + nrows) (all columns) — word-aligned
/// memcpy per plane, used to slice one sample's attention-code block.
void stage_row_block(const bitops::BitPlanes& src, std::int64_t row0,
                     std::int64_t nrows, bitops::BitPlanes& dst) {
  dst.reset_shape(nrows, src.cols, src.bits, /*zero_fill=*/false);
  const std::int64_t row_words = src.planes[0].row_words();
  for (int t = 0; t < src.bits; ++t) {
    std::memcpy(dst.planes[static_cast<std::size_t>(t)].row(0),
                src.planes[static_cast<std::size_t>(t)].row(row0),
                sizeof(std::uint64_t) *
                    static_cast<std::size_t>(nrows * row_words));
  }
}

/// The projection operand/quantizer a kAttnProj step's aux index selects.
const core::ApOperand& attn_proj_weights(const ApnnStage& st, int aux) {
  return aux == 0 ? st.weights : aux == 1 ? st.attn_wk : st.attn_wv;
}
const quant::QuantParams& attn_proj_quant(const ApnnStage& st, int aux) {
  return aux == 0 ? st.attn_q_quant
                  : aux == 1 ? st.attn_k_quant : st.attn_v_quant;
}

/// Scratch slots an attention step needs beyond its output slot.
int attn_scratch_count(StepKind k) {
  switch (k) {
    case StepKind::kAttnScores:
      return 2;  // Q-head + K-head slices (the epilogue writes the codes)
    case StepKind::kAttnContext:
      return 3;  // attn block, V-head slice, transposed V-head
    case StepKind::kAttnOut:
      return 1;  // concatenated head operand
    default:
      return 0;
  }
}

}  // namespace

// --- the compiled plan ------------------------------------------------------

struct InferenceSession::Plan {
  struct Value {
    ValueFormat format = ValueFormat::kDense;
    std::int64_t c = 0, h = 1, w = 1;  ///< per-sample dims (features in c)
    bool spatial = false;              ///< dense values: NHWC vs {B, F}
    int bits = 0;                      ///< code bits of packed formats
    std::size_t last_use = 0;          ///< step index of the last read
    int slot = -1;

    std::int64_t per_sample() const { return c * h * w; }
  };

  struct Step {
    StepKind kind;
    std::size_t layer = kNoLayer;  ///< spec layer (diagnostics)
    std::size_t stage = kNoLayer;  ///< index into net.stages()
    int in = -1, in2 = -1, out = -1;
    quant::QuantParams quant;  ///< kQuantize
    PoolSpec pool;             ///< kPool
    int operand_slot = -1, scratch_slot = -1;  ///< kLinear temporaries
    /// kAttnProj: projection index (0/1/2 = Q/K/V);
    /// kAttnScores/kAttnContext: head index.
    int aux = 0;
    std::vector<int> extra_in;       ///< kAttnOut: per-head context values
    std::vector<int> scratch_slots;  ///< attention staging slots
  };

  /// Batch-dependent step state, resolved once per distinct batch size and
  /// cached (the dynamic-batching server alternates sizes every run; a
  /// single-entry cache would re-resolve tiles — and allocate — each time).
  struct ResolvedBatch {
    std::vector<layout::ConvGeometry> geom;  ///< per step (kConv only)
    std::vector<core::TileConfig> tile;      ///< per step (GEMM steps only)
  };

  /// This plan's bucketed view of the network: the spec with input.h set to
  /// the plan's sequence bucket, plus the shapes propagated from it. Conv
  /// geometry, attention lowering, and batch resolution all read these —
  /// never the network's calibration-length spec — so one network compiles
  /// into a family of shape-specialized plans over shared weights.
  ModelSpec spec;
  std::vector<ActShape> shapes;
  std::int64_t bucket = 0;  ///< tokens per sample this plan serves

  std::vector<Value> values;
  std::vector<Step> steps;
  int input_value = -1;
  int logits_value = -1;
  std::size_t num_slots = 0;
  std::map<std::int64_t, ResolvedBatch> resolved;  ///< keyed by batch

  // Reads of compile-time network state (stages are referenced by index so
  // the plan stays valid if the stage vector reallocates). The activation
  // slab lives on the session, shared by every plan of the family.
};

namespace {

/// Plan builder: mirrors the old interpreter's layer walk once, at compile
/// time, producing the step list, value formats, and slot assignment.
class Compiler {
 public:
  /// `plan.spec` and `plan.shapes` must already carry the plan's bucketed
  /// view (InferenceSession's constructor sets them before compiling).
  Compiler(const ApnnNetwork& net, InferenceSession::Plan& plan)
      : net_(net), spec_(plan.spec), plan_(plan) {}

  void compile() {
    index_stages();
    scan_consumers();
    build_steps();
    assign_slots();
  }

 private:
  using Value = InferenceSession::Plan::Value;
  using Step = InferenceSession::Plan::Step;

  void index_stages() {
    consumed_.assign(spec_.layers.size(), false);
    stage_of_.assign(spec_.layers.size(), kNoLayer);
    for (std::size_t si = 0; si < net_.stages().size(); ++si) {
      const ApnnStage& st = net_.stages()[si];
      stage_of_[st.layer_index] = si;
      for (std::size_t j : st.absorbed) consumed_[j] = true;
    }
  }

  /// Canonical producer layer of the value layer `li` outputs (resolves
  /// stage absorption and pass-through layers). spec_.layers.size() denotes
  /// the network input.
  std::size_t canon(std::size_t li) const { return canon_[li]; }

  std::size_t input_layer_of(std::size_t li) const {
    const int src = spec_.layers[li].input;
    if (src >= 0) return static_cast<std::size_t>(src);
    return li == 0 ? spec_.layers.size() : li - 1;
  }

  /// Pass 1: which executed layer kinds read each canonical producer.
  void scan_consumers() {
    const std::size_t n = spec_.layers.size();
    canon_.assign(n + 1, n);
    canon_[n] = n;  // network input
    consumers_.assign(n + 1, std::vector<LayerKind>{});
    auto resolve = [&](std::size_t li) {
      return li == n ? n : canon_[li];
    };
    for (std::size_t li = 0; li < n; ++li) {
      const LayerSpec& l = spec_.layers[li];
      if (consumed_[li]) {
        // Absorbed tail layers alias their stage's output.
        canon_[li] = canon_[input_layer_of(li)];
        continue;
      }
      switch (l.kind) {
        case LayerKind::kConv:
        case LayerKind::kLinear:
          consumers_[resolve(input_layer_of(li))].push_back(l.kind);
          canon_[li] = li;
          break;
        case LayerKind::kResidualAdd:
          consumers_[resolve(input_layer_of(li))].push_back(l.kind);
          consumers_[resolve(static_cast<std::size_t>(l.residual))].push_back(
              l.kind);
          canon_[li] = li;
          break;
        case LayerKind::kSoftmax:
          canon_[li] = canon_[input_layer_of(li)];
          break;
        case LayerKind::kBatchNorm:
          APNN_CHECK(false)
              << "standalone BatchNorm layer '" << l.name
              << "' is not executable: it has no parameters outside a "
                 "conv/linear epilogue — restructure the spec so the BN "
                 "directly follows a conv/linear (where it fuses into the "
                 "stage tail)";
          break;
        default:
          consumers_[resolve(input_layer_of(li))].push_back(l.kind);
          canon_[li] = li;
          break;
      }
    }
  }

  bool all_conv_consumers(std::size_t li) const {
    const auto& cs = consumers_[li];
    if (cs.empty()) return false;
    for (LayerKind k : cs) {
      if (k != LayerKind::kConv) return false;
    }
    return true;
  }

  int new_value(ValueFormat fmt, std::int64_t c, std::int64_t h,
                std::int64_t w, bool spatial, int bits) {
    Value v;
    v.format = fmt;
    v.c = c;
    v.h = h;
    v.w = w;
    v.spatial = spatial;
    v.bits = bits;
    plan_.values.push_back(v);
    return static_cast<int>(plan_.values.size() - 1);
  }

  Step& add_step(StepKind kind, std::size_t layer) {
    Step s;
    s.kind = kind;
    s.layer = layer;
    plan_.steps.push_back(s);
    return plan_.steps.back();
  }

  /// Value id holding layer `li`'s output (network input for li == size).
  int value_of(std::size_t li) {
    const std::size_t producer = li == spec_.layers.size()
                                     ? spec_.layers.size()
                                     : canon_[li];
    if (producer == spec_.layers.size()) return plan_.input_value;
    const int v = val_of_layer_[producer];
    APNN_CHECK(v >= 0) << "layer " << spec_.layers[producer].name
                       << " has no materialized value";
    return v;
  }

  /// Dense view of `vid`, inserting a decode step at most once per value.
  int ensure_dense(int vid) {
    Value& v = plan_.values[static_cast<std::size_t>(vid)];
    if (v.format == ValueFormat::kDense) return vid;
    if (dense_shadow_.count(vid) != 0) return dense_shadow_[vid];
    const bool spatial = v.format == ValueFormat::kPackedConv ||
                         v.format == ValueFormat::kPackedTokens;
    const int dv = new_value(ValueFormat::kDense, v.c, v.h, v.w, spatial, 0);
    const StepKind kind = v.format == ValueFormat::kPackedConv
                              ? StepKind::kUnpack
                              : v.format == ValueFormat::kPackedTokens
                                    ? StepKind::kUnpackTokens
                                    : StepKind::kUnpackLinear;
    Step& s = add_step(kind, kNoLayer);
    s.in = vid;
    s.out = dv;
    dense_shadow_[vid] = dv;
    return dv;
  }

  /// Packed channel-major view of `vid` with `bits` code planes, inserting
  /// a pack step at most once per value.
  int ensure_packed(int vid, int bits) {
    Value& v = plan_.values[static_cast<std::size_t>(vid)];
    if (v.format == ValueFormat::kPackedConv) {
      APNN_CHECK(v.bits == bits)
          << "packed value carries " << v.bits << " bits, stage wants "
          << bits;
      return vid;
    }
    if (v.format == ValueFormat::kPackedLinear ||
        v.format == ValueFormat::kPackedTokens) {
      vid = ensure_dense(vid);
    }
    if (packed_shadow_.count(vid) != 0) return packed_shadow_[vid];
    Value& dv = plan_.values[static_cast<std::size_t>(vid)];
    APNN_CHECK(dv.spatial) << "cannot pack feature vectors";
    const int pv =
        new_value(ValueFormat::kPackedConv, dv.c, dv.h, dv.w, true, bits);
    Step& s = add_step(StepKind::kPack, kNoLayer);
    s.in = vid;
    s.out = pv;
    packed_shadow_[vid] = pv;
    return pv;
  }

  /// Pass 2: the step list.
  void build_steps() {
    const std::size_t n = spec_.layers.size();
    val_of_layer_.assign(n, -1);

    // Input image: 8-bit packed planes (§5.1 — the uint8 codes are the
    // first stage's activations).
    plan_.input_value =
        new_value(ValueFormat::kPackedConv, spec_.input.c, spec_.input.h,
                  spec_.input.w, true, 8);
    Step& pack_in = add_step(StepKind::kPackInput, kNoLayer);
    pack_in.out = plan_.input_value;

    const auto& shapes = plan_.shapes;
    for (std::size_t li = 0; li < n; ++li) {
      if (consumed_[li]) continue;
      const LayerSpec& l = spec_.layers[li];
      switch (l.kind) {
        case LayerKind::kConv: {
          const std::size_t si = stage_of_[li];
          const ApnnStage& st = net_.stages()[si];
          const int in_v = ensure_packed(value_of(input_layer_of(li)),
                                         st.in_bits);
          const std::size_t out_layer =
              st.absorbed.empty() ? li : st.absorbed.back();
          const ActShape& os = shapes[out_layer];
          const int out_v =
              st.epilogue.has_quant
                  ? new_value(ValueFormat::kPackedConv, os.c, os.h, os.w,
                              true, st.epilogue.quant.bits)
                  : new_value(ValueFormat::kDense, os.c, os.h, os.w, true, 0);
          Step& s = add_step(StepKind::kConv, li);
          s.stage = si;
          s.in = in_v;
          s.out = out_v;
          val_of_layer_[li] = out_v;
          break;
        }
        case LayerKind::kLinear: {
          const std::size_t si = stage_of_[li];
          const ApnnStage& st = net_.stages()[si];
          int in_v = value_of(input_layer_of(li));
          // Token-major planes have no per-sample row layout a linear
          // operand can borrow; take the dense shadow and decompose.
          if (plan_.values[static_cast<std::size_t>(in_v)].format ==
              ValueFormat::kPackedTokens) {
            in_v = ensure_dense(in_v);
          }
          {
            const Value& v = plan_.values[static_cast<std::size_t>(in_v)];
            if (v.format == ValueFormat::kPackedConv ||
                v.format == ValueFormat::kPackedLinear) {
              APNN_CHECK(v.bits == st.in_bits)
                  << "linear stage wants " << st.in_bits
                  << "-bit features, producer emits " << v.bits;
            }
          }
          const std::size_t out_layer =
              st.absorbed.empty() ? li : st.absorbed.back();
          const std::int64_t out_f = shapes[out_layer].c;
          const int out_v =
              st.epilogue.has_quant
                  ? new_value(ValueFormat::kPackedLinear, out_f, 1, 1, false,
                              st.epilogue.quant.bits)
                  : new_value(ValueFormat::kDense, out_f, 1, 1, false, 0);
          Step& s = add_step(StepKind::kLinear, li);
          s.stage = si;
          s.in = in_v;
          s.out = out_v;
          val_of_layer_[li] = out_v;
          plan_.logits_value = out_v;
          break;
        }
        case LayerKind::kResidualAdd: {
          int a = value_of(input_layer_of(li));
          int b = value_of(static_cast<std::size_t>(l.residual));
          // Feature/token planes can't be decoded by the packed-conv side
          // helper; take the dense shadow. Channel-major packed inputs
          // decode inline.
          auto densify_planes = [&](int vid) {
            const ValueFormat f =
                plan_.values[static_cast<std::size_t>(vid)].format;
            return f == ValueFormat::kPackedLinear ||
                           f == ValueFormat::kPackedTokens
                       ? ensure_dense(vid)
                       : vid;
          };
          a = densify_planes(a);
          b = densify_planes(b);
          const Value& av = plan_.values[static_cast<std::size_t>(a)];
          const int out_v = new_value(ValueFormat::kDense, av.c, av.h, av.w,
                                      av.spatial, 0);
          Step& s = add_step(StepKind::kResidualAdd, li);
          s.in = a;
          s.in2 = b;
          s.out = out_v;
          val_of_layer_[li] = out_v;
          break;
        }
        case LayerKind::kReLU: {
          const int in_v = ensure_dense(value_of(input_layer_of(li)));
          const Value& iv = plan_.values[static_cast<std::size_t>(in_v)];
          const int out_v = new_value(ValueFormat::kDense, iv.c, iv.h, iv.w,
                                      iv.spatial, 0);
          Step& s = add_step(StepKind::kRelu, li);
          s.in = in_v;
          s.out = out_v;
          val_of_layer_[li] = out_v;
          break;
        }
        case LayerKind::kPool: {
          const int in_v = ensure_dense(value_of(input_layer_of(li)));
          const Value& iv = plan_.values[static_cast<std::size_t>(in_v)];
          APNN_CHECK(iv.spatial) << "pool needs a spatial input";
          const std::int64_t oh = l.pool.size == 0 ? 1 : iv.h / l.pool.size;
          const std::int64_t ow = l.pool.size == 0 ? 1 : iv.w / l.pool.size;
          const int out_v = new_value(ValueFormat::kDense, iv.c, oh, ow,
                                      true, 0);
          Step& s = add_step(StepKind::kPool, li);
          s.in = in_v;
          s.out = out_v;
          s.pool = l.pool;
          val_of_layer_[li] = out_v;
          break;
        }
        case LayerKind::kQuantize: {
          const auto it = net_.standalone_quant().find(li);
          APNN_CHECK(it != net_.standalone_quant().end())
              << "standalone quantize layer " << l.name << " not calibrated";
          const int in_v = ensure_dense(value_of(input_layer_of(li)));
          const Value& iv = plan_.values[static_cast<std::size_t>(in_v)];
          // When every consumer is a conv the quantize emits packed planes
          // directly (fused repack — the dense code tensor never exists).
          const bool to_packed = iv.spatial && all_conv_consumers(li);
          const int out_v =
              to_packed ? new_value(ValueFormat::kPackedConv, iv.c, iv.h,
                                    iv.w, true, it->second.bits)
                        : new_value(ValueFormat::kDense, iv.c, iv.h, iv.w,
                                    iv.spatial, it->second.bits);
          Step& s = add_step(StepKind::kQuantize, li);
          s.in = in_v;
          s.out = out_v;
          s.quant = it->second;
          val_of_layer_[li] = out_v;
          break;
        }
        case LayerKind::kAttention: {
          // Lowering (§5 extended to attention): three quantizing bit-GEMM
          // projections over the token operand, per-head QK^T with the
          // fused integer-softmax tail, per-head attn x V through a packed
          // word-granular transpose of the V slice, then the quantizing
          // output projection over the concatenated heads.
          const std::size_t si = stage_of_[li];
          const ApnnStage& st = net_.stages()[si];
          int in_v = value_of(input_layer_of(li));
          if (plan_.values[static_cast<std::size_t>(in_v)].format ==
              ValueFormat::kDense) {
            in_v = ensure_packed(in_v, st.in_bits);
          }
          const Value& iv = plan_.values[static_cast<std::size_t>(in_v)];
          APNN_CHECK(iv.format == ValueFormat::kPackedConv ||
                     iv.format == ValueFormat::kPackedTokens)
              << "attention layer '" << l.name << "' needs packed tokens";
          APNN_CHECK(iv.w == 1)
              << "attention tokens run along H; W must be 1";
          APNN_CHECK(iv.bits == st.in_bits)
              << "attention stage wants " << st.in_bits
              << "-bit tokens, producer emits " << iv.bits;
          const std::int64_t seq = iv.h;
          const std::int64_t d_model = iv.c;
          const int heads = l.attn.heads;
          const std::int64_t dh = l.attn.d_head;
          const std::int64_t proj = heads * dh;
          const int abits = st.epilogue.quant.bits;
          APNN_CHECK(st.epilogue.has_quant)
              << "attention output projection must quantize";

          // Q/K/V projections (aux picks the weight/requantizer triple).
          int qkv[3];
          for (int p = 0; p < 3; ++p) {
            qkv[p] = new_value(ValueFormat::kPackedTokens, proj, seq, 1,
                               true, abits);
            Step& s = add_step(StepKind::kAttnProj, li);
            s.stage = si;
            s.aux = p;
            s.in = in_v;
            s.out = qkv[p];
          }

          // Per-head score/context chains.
          std::vector<int> ctx;
          for (int h = 0; h < heads; ++h) {
            const int sv = new_value(ValueFormat::kPackedTokens, seq, seq, 1,
                                     true, abits);
            Step& ss = add_step(StepKind::kAttnScores, li);
            ss.stage = si;
            ss.aux = h;
            ss.in = qkv[0];
            ss.in2 = qkv[1];
            ss.out = sv;
            const int cv = new_value(ValueFormat::kPackedTokens, dh, seq, 1,
                                     true, abits);
            Step& cs = add_step(StepKind::kAttnContext, li);
            cs.stage = si;
            cs.aux = h;
            cs.in = sv;
            cs.in2 = qkv[2];
            cs.out = cv;
            ctx.push_back(cv);
          }

          // Output projection over the head concatenation.
          const int out_v = new_value(ValueFormat::kPackedTokens, d_model,
                                      seq, 1, true, abits);
          Step& os = add_step(StepKind::kAttnOut, li);
          os.stage = si;
          os.extra_in = ctx;
          os.out = out_v;
          val_of_layer_[li] = out_v;
          break;
        }
        case LayerKind::kSoftmax:
          // Logits are returned raw (softmax is monotonic); the value
          // aliases through canon_.
          break;
        case LayerKind::kBatchNorm:
          break;  // scan_consumers() already hard-errored
      }
    }
    APNN_CHECK(plan_.logits_value >= 0) << "network has no linear head";

    // The returned logits must be dense codes; recompose feature planes
    // straight into the destination tensor (no intermediate code vector).
    if (plan_.values[static_cast<std::size_t>(plan_.logits_value)].format !=
        ValueFormat::kDense) {
      plan_.logits_value = ensure_dense(plan_.logits_value);
    }
  }

  /// Pass 3: liveness + greedy slot reuse. Values with disjoint live ranges
  /// share a slot; the logits value survives the whole plan.
  void assign_slots() {
    const std::size_t nsteps = plan_.steps.size();
    for (auto& v : plan_.values) v.last_use = 0;
    for (std::size_t s = 0; s < nsteps; ++s) {
      const Step& st = plan_.steps[s];
      for (int vid : {st.in, st.in2}) {
        if (vid >= 0) plan_.values[static_cast<std::size_t>(vid)].last_use = s;
      }
      for (int vid : st.extra_in) {
        plan_.values[static_cast<std::size_t>(vid)].last_use = s;
      }
    }
    plan_.values[static_cast<std::size_t>(plan_.logits_value)].last_use =
        nsteps;  // survives

    std::vector<int> free;
    int next = 0;
    auto acquire = [&]() {
      if (!free.empty()) {
        const int s = free.back();
        free.pop_back();
        return s;
      }
      return next++;
    };
    auto release_inputs = [&](const Step& st, std::size_t s) {
      // A step reading the same value twice (x + x) must free it once.
      std::vector<int> seen;
      auto release = [&](int vid) {
        if (vid < 0) return;
        if (std::find(seen.begin(), seen.end(), vid) != seen.end()) return;
        seen.push_back(vid);
        Value& v = plan_.values[static_cast<std::size_t>(vid)];
        // v.slot stays recorded — the step executing at v.last_use still
        // reads through it; only *later* outputs may take the slot over.
        if (v.last_use == s && v.slot >= 0) free.push_back(v.slot);
      };
      release(st.in);
      release(st.in2);
      for (int vid : st.extra_in) release(vid);
    };

    for (std::size_t s = 0; s < nsteps; ++s) {
      Step& st = plan_.steps[s];
      const bool elementwise = st.kind == StepKind::kRelu ||
                               st.kind == StepKind::kQuantize ||
                               st.kind == StepKind::kResidualAdd;
      if (elementwise) {
        // Same-index reads and writes (and packed/dense buffers of one slot
        // are distinct), so an input slot freed here can carry the output —
        // the in-place steady state of a residual/ReLU/quantize chain.
        release_inputs(st, s);
        plan_.values[static_cast<std::size_t>(st.out)].slot = acquire();
      } else {
        plan_.values[static_cast<std::size_t>(st.out)].slot = acquire();
        if (st.kind == StepKind::kLinear) {
          const Value& in = plan_.values[static_cast<std::size_t>(st.in)];
          if (in.format != ValueFormat::kPackedLinear) {
            st.operand_slot = acquire();
          }
          const ApnnStage& stage = net_.stages()[st.stage];
          if (!stage.epilogue.has_quant) st.scratch_slot = acquire();
        }
        for (int i = 0; i < attn_scratch_count(st.kind); ++i) {
          st.scratch_slots.push_back(acquire());
        }
        release_inputs(st, s);
        if (st.operand_slot >= 0) free.push_back(st.operand_slot);
        if (st.scratch_slot >= 0) free.push_back(st.scratch_slot);
        for (int slot : st.scratch_slots) free.push_back(slot);
      }
    }
    plan_.num_slots = static_cast<std::size_t>(next);
  }

  const ApnnNetwork& net_;
  const ModelSpec& spec_;
  InferenceSession::Plan& plan_;

  std::vector<bool> consumed_;
  std::vector<std::size_t> stage_of_;
  std::vector<std::size_t> canon_;
  std::vector<std::vector<LayerKind>> consumers_;
  std::vector<int> val_of_layer_;
  std::map<int, int> dense_shadow_;
  std::map<int, int> packed_shadow_;
};

}  // namespace

// --- session ---------------------------------------------------------------

InferenceSession::~InferenceSession() = default;

const parallel::ActivationSlab& InferenceSession::slab() const {
  return slab_;
}
std::size_t InferenceSession::step_count() const {
  return default_plan().steps.size();
}
std::size_t InferenceSession::slot_count() const {
  return default_plan().num_slots;
}
std::size_t InferenceSession::plan_count() const { return plans_.size(); }

InferenceSession::Plan& InferenceSession::plan_for(
    std::int64_t seq_len) const {
  for (const auto& p : plans_) {
    if (p->bucket >= seq_len) return *p;
  }
  APNN_CHECK(false) << "sequence length " << seq_len
                    << " exceeds the largest compiled bucket "
                    << plans_.back()->bucket;
  return *plans_.back();  // unreachable
}

InferenceSession::Plan& InferenceSession::default_plan() const {
  return plan_for(net_.spec().input.h);
}

namespace {

/// Resolves the batch-dependent step state (conv geometries, per-stage
/// tiles) once per distinct batch size; later runs at an already-seen batch
/// are pure map lookups (no allocations).
///
/// Every tile is the §4.3.2 heuristic pick with bm clamped to the stage's
/// virtual row count (short-M stages stop staging padded zero A-rows —
/// e.g. the 8-channel stem, a small classifier head; the kernel result is
/// bit-exact for any tile).
const InferenceSession::Plan::ResolvedBatch& resolve_batch(
    const ApnnNetwork& net, const tcsim::DeviceSpec& dev,
    InferenceSession::Plan& plan, std::int64_t batch) {
  const auto it = plan.resolved.find(batch);
  if (it != plan.resolved.end()) return it->second;

  InferenceSession::Plan::ResolvedBatch rb;
  rb.geom.resize(plan.steps.size());
  rb.tile.resize(plan.steps.size());
  const auto heuristic = [&](std::int64_t m, std::int64_t n, std::int64_t k,
                             int p, int q) {
    return core::clamp_tile_rows(core::autotune_tile(m, n, k, p, q, dev).tile,
                                 m, p);
  };
  for (std::size_t si = 0; si < plan.steps.size(); ++si) {
    const auto& s = plan.steps[si];
    if (s.kind == StepKind::kConv) {
      const ApnnStage& st = net.stages()[s.stage];
      const layout::ConvGeometry& g = rb.geom[si] =
          conv_geometry(plan.spec, plan.shapes, s.layer, batch);
      rb.tile[si] = heuristic(g.gemm_m(), g.gemm_n(), g.gemm_k(),
                              st.weights.bits(), st.in_bits);
    } else if (s.kind == StepKind::kLinear) {
      const ApnnStage& st = net.stages()[s.stage];
      rb.tile[si] = heuristic(st.weights.rows(), batch, st.weights.cols(),
                              st.weights.bits(), st.in_bits);
    } else if (s.kind == StepKind::kAttnProj ||
               s.kind == StepKind::kAttnOut) {
      // Token-count GEMMs: N is batch * bucket.
      const ApnnStage& st = net.stages()[s.stage];
      const bool is_out = s.kind == StepKind::kAttnOut;
      const core::ApOperand& w =
          is_out ? st.attn_wo : attn_proj_weights(st, s.aux);
      const int in_bits = is_out ? st.epilogue.quant.bits : st.in_bits;
      const std::int64_t n =
          batch * plan.values[static_cast<std::size_t>(s.out)].h;
      rb.tile[si] = heuristic(w.rows(), n, w.cols(), w.bits(), in_bits);
    } else if (s.kind == StepKind::kAttnScores ||
               s.kind == StepKind::kAttnContext) {
      // Per-(sample, head) GEMMs on freshly staged operands.
      const auto& out = plan.values[static_cast<std::size_t>(s.out)];
      const std::int64_t seq = out.h;
      const std::int64_t dh =
          plan.spec.layers[s.layer].attn.d_head;
      const int abits = out.bits;
      if (s.kind == StepKind::kAttnScores) {
        // The row-softmax epilogue needs every key column of a query row
        // in one block.
        rb.tile[si] = core::row_complete_tile(seq, abits);
      } else {
        rb.tile[si] = heuristic(seq, dh, seq, abits, abits);
      }
    }
  }
  return plan.resolved.emplace(batch, std::move(rb)).first->second;
}

}  // namespace

InferenceSession::InferenceSession(const ApnnNetwork& net,
                                   const tcsim::DeviceSpec& dev,
                                   const SessionOptions& opts)
    : net_(net), dev_(dev), opts_(opts) {
  APNN_CHECK(net.calibrated()) << "call calibrate() before compiling";

  // One plan per sequence bucket (a single plan at the spec's input length
  // for fixed-shape models), all sharing the network's weights and the
  // session's slab.
  std::vector<std::int64_t> buckets = net.spec().seq_buckets;
  if (buckets.empty()) {
    buckets.push_back(net.spec().input.h);
  } else {
    std::sort(buckets.begin(), buckets.end());
    buckets.erase(std::unique(buckets.begin(), buckets.end()), buckets.end());
    APNN_CHECK(buckets.front() >= 1) << "sequence buckets must be positive";
    APNN_CHECK(net.spec().input.h <= buckets.back())
        << "calibration length " << net.spec().input.h
        << " exceeds the largest bucket " << buckets.back();
  }
  std::size_t max_slots = 0;
  for (std::int64_t b : buckets) {
    auto plan = std::make_unique<Plan>();
    plan->bucket = b;
    plan->spec = net.spec();
    plan->spec.input.h = b;
    plan->shapes = propagate_shapes(plan->spec);
    Compiler(net, *plan).compile();
    max_slots = std::max(max_slots, plan->num_slots);
    plans_.push_back(std::move(plan));
  }
  slab_.require(max_slots);
}

std::int64_t InferenceSession::validate_frame(
    const ActShape& shape, const std::vector<std::int64_t>& seq_buckets,
    const Tensor<std::int32_t>& frame) {
  const bool batched_rank = frame.rank() == 4;
  APNN_CHECK((frame.rank() == 3 || batched_rank) &&
             (!batched_rank || frame.dim(0) >= 1))
      << "frame must be {H, W, C} or {N, H, W, C} with N >= 1";
  const int off = batched_rank ? 1 : 0;
  const std::int64_t h = frame.dim(off);
  if (seq_buckets.empty()) {
    APNN_CHECK(h == shape.h && frame.dim(off + 1) == shape.w &&
               frame.dim(off + 2) == shape.c)
        << "sample must be {" << shape.h << ", " << shape.w << ", "
        << shape.c << "}, got {" << h << ", " << frame.dim(off + 1) << ", "
        << frame.dim(off + 2) << "}";
  } else {
    APNN_CHECK(h >= 1 && h <= seq_buckets.back())
        << "sequence length " << h << " outside the bucket range [1, "
        << seq_buckets.back() << "]";
    APNN_CHECK(frame.dim(off + 1) == shape.w && frame.dim(off + 2) == shape.c)
        << "sample must be {seq, " << shape.w << ", " << shape.c << "}, got {"
        << h << ", " << frame.dim(off + 1) << ", " << frame.dim(off + 2)
        << "}";
  }
  const std::int32_t* s = frame.data();
  for (std::int64_t i = 0; i < frame.numel(); ++i) {
    APNN_CHECK(s[i] >= 0 && s[i] <= 255)
        << "sample value " << s[i] << " at index " << i
        << " is not an 8-bit input code";
  }
  return batched_rank ? frame.dim(0) : 1;
}

namespace {

/// Stamps the plane-elision counters a step collected onto the launch
/// records that step just appended ([first, end) of the sequence).
void annotate_sparsity(tcsim::SequenceProfile* prof, std::size_t first,
                       const core::microkernel::SparsityStats& st) {
  for (std::size_t i = first; i < prof->kernels.size(); ++i) {
    tcsim::KernelProfile& k = prof->kernels[i];
    k.sparsity_planes = st.planes.load(std::memory_order_relaxed);
    k.sparsity_planes_elided =
        st.planes_elided.load(std::memory_order_relaxed);
  }
}

}  // namespace

void InferenceSession::run(const Tensor<std::int32_t>& input_u8,
                           Tensor<std::int32_t>* logits,
                           tcsim::SequenceProfile* prof) {
  // Chaos drill: an injected throw here exercises every caller's "the
  // compiled forward pass itself failed" path (the server treats it as a
  // replica failure).
  faultinject::point(faultinject::kSessionRun);
  const ModelSpec& spec = net_.spec();
  APNN_CHECK(input_u8.rank() == 4) << "input must be NHWC {B, S, W, C}";
  const std::int64_t batch = input_u8.dim(0);
  APNN_CHECK(batch >= 1);
  if (spec.seq_buckets.empty()) {
    APNN_CHECK(input_u8.dim(1) == spec.input.h &&
               input_u8.dim(2) == spec.input.w &&
               input_u8.dim(3) == spec.input.c)
        << "input must be NHWC {B, " << spec.input.h << ", " << spec.input.w
        << ", " << spec.input.c << "}";
    run_plan(*plans_.front(), input_u8, logits, prof);
    return;
  }

  // Bucketed sequences: pick the smallest plan that fits and zero-pad the
  // token tail up to its bucket (padded tokens are all-zero codes; their
  // rows never feed back into real tokens' logits through the pooled head).
  APNN_CHECK(input_u8.dim(2) == spec.input.w &&
             input_u8.dim(3) == spec.input.c)
      << "input must be NHWC {B, seq, " << spec.input.w << ", "
      << spec.input.c << "}";
  const std::int64_t seq = input_u8.dim(1);
  APNN_CHECK(seq >= 1) << "input has no tokens";
  Plan& plan = plan_for(seq);
  if (seq == plan.bucket) {
    run_plan(plan, input_u8, logits, prof);
    return;
  }
  const std::int64_t per_tok = spec.input.w * spec.input.c;
  const std::int64_t in_per = seq * per_tok;
  const std::int64_t out_per = plan.bucket * per_tok;
  padded_.reset_shape({batch, plan.bucket, spec.input.w, spec.input.c});
  for (std::int64_t b = 0; b < batch; ++b) {
    std::memcpy(padded_.data() + b * out_per, input_u8.data() + b * in_per,
                sizeof(std::int32_t) * static_cast<std::size_t>(in_per));
    std::memset(padded_.data() + b * out_per + in_per, 0,
                sizeof(std::int32_t) *
                    static_cast<std::size_t>(out_per - in_per));
  }
  run_plan(plan, padded_, logits, prof);
}

void InferenceSession::run_plan(Plan& plan,
                                const Tensor<std::int32_t>& input_u8,
                                Tensor<std::int32_t>* logits,
                                tcsim::SequenceProfile* prof) {
  const std::int64_t batch = input_u8.dim(0);
  // Every kernel and glue loop of this pass runs on the session's pool (a
  // replica's private slice under the server; the global pool otherwise).
  ThreadPool& tp = opts_.pool != nullptr ? *opts_.pool : ThreadPool::global();
  const Plan::ResolvedBatch& rb =
      resolve_batch(net_, dev_, plan, batch);

  auto slot_of = [&](int vid) -> parallel::SlabSlot& {
    const auto& v = plan.values[static_cast<std::size_t>(vid)];
    APNN_DCHECK(v.slot >= 0);
    return slab_.slot(static_cast<std::size_t>(v.slot));
  };
  auto value = [&](int vid) -> const Plan::Value& {
    return plan.values[static_cast<std::size_t>(vid)];
  };

  for (std::size_t si = 0; si < plan.steps.size(); ++si) {
    const auto& step = plan.steps[si];
    switch (step.kind) {
      case StepKind::kPackInput: {
        const Plan::Value& out = value(step.out);
        parallel::SlabSlot& dst = slot_of(step.out);
        // pack_rows overwrites every padded word — no zero-fill pass.
        dst.packed.reset_shape(batch, out.h, out.w, out.c, 8,
                               /*zero_fill=*/false);
        pack_codes(tp, input_u8.data(), batch * out.h * out.w, out.c, 8,
                   dst.packed.planes);
        if (prof != nullptr) {
          prof->add(core::decompose_profile(batch * out.h * out.w, out.c, 8,
                                            1.0));
        }
        break;
      }
      case StepKind::kConv: {
        const ApnnStage& st = net_.stages()[step.stage];
        core::ApconvOptions o;
        o.autotune = false;
        o.tile = rb.tile[si];
        o.collect_profile = prof != nullptr;
        o.pool = opts_.pool;
        core::microkernel::SparsityStats sstats;
        o.sparsity_stats = prof != nullptr ? &sstats : nullptr;
        parallel::SlabSlot& dst = slot_of(step.out);
        if (st.epilogue.has_quant) {
          o.packed_out = &dst.packed;
        } else {
          o.y_out = &dst.dense;
        }
        const std::size_t first = prof != nullptr ? prof->kernels.size() : 0;
        core::ApconvResult r =
            core::apconv(st.weights, slot_of(step.in).packed, st.in_enc,
                         rb.geom[si], dev_, o, st.epilogue, st.pool);
        if (prof != nullptr) {
          prof->add(r.profile);
          annotate_sparsity(prof, first, sstats);
        }
        break;
      }
      case StepKind::kLinear: {
        const ApnnStage& st = net_.stages()[step.stage];
        const Plan::Value& in = value(step.in);
        const std::int64_t feat = st.weights.cols();

        // Feature operand: lend the kernel existing plane storage — either
        // the producer's own planes (a quantizing apmm upstream) or the
        // step's operand slot filled by the word-granular gather/decompose.
        core::ApOperand xop;
        xop.encoding = st.in_enc;
        bitops::BitPlanes* lender = nullptr;
        if (in.format == ValueFormat::kPackedLinear) {
          APNN_CHECK(in.per_sample() == feat) << "feature count mismatch";
          lender = &slot_of(step.in).planes;
        } else {
          lender = &slab_.slot(static_cast<std::size_t>(step.operand_slot))
                        .planes;
          // The gather writes C-bit slabs into otherwise-untouched rows and
          // needs the zeroed padding; the decompose overwrites every word.
          const bool gather = in.format == ValueFormat::kPackedConv;
          lender->reset_shape(batch, feat, st.in_bits, /*zero_fill=*/gather);
          if (gather) {
            const layout::PackedActivations& x = slot_of(step.in).packed;
            APNN_CHECK(x.h * x.w * x.c == feat) << "feature count mismatch";
            gather_linear_operand(tp, x, *lender);
          } else {
            APNN_CHECK(in.per_sample() == feat) << "feature count mismatch";
            decompose_linear_operand(tp, slot_of(step.in).dense.data(),
                                     batch, feat, st.in_bits, *lender);
          }
        }
        xop.planes = std::move(*lender);

        core::ApmmOptions o;
        o.autotune = false;
        o.tile = rb.tile[si];
        o.collect_profile = prof != nullptr;
        o.pool = opts_.pool;
        core::microkernel::SparsityStats sstats;
        o.sparsity_stats = prof != nullptr ? &sstats : nullptr;
        parallel::SlabSlot& dst = slot_of(step.out);
        Tensor<std::int32_t>* raw = nullptr;
        if (st.epilogue.has_quant) {
          o.packed_out = &dst.planes;
        } else {
          raw = &slab_.slot(static_cast<std::size_t>(step.scratch_slot))
                     .dense;
          o.y_out = raw;
        }
        const std::size_t first = prof != nullptr ? prof->kernels.size() : 0;
        core::ApmmResult r = core::apmm(st.weights, xop, dev_, o,
                                        st.epilogue);
        if (prof != nullptr) {
          prof->add(r.profile);
          annotate_sparsity(prof, first, sstats);
        }
        *lender = std::move(xop.planes);

        if (!st.epilogue.has_quant) {
          // apmm emits M x N; the dense value is {B, F}.
          const Plan::Value& out = value(step.out);
          dst.dense.reset_shape({batch, out.c});
          transpose_mn(tp, raw->data(), out.c, batch, dst.dense.data());
        }
        break;
      }
      case StepKind::kResidualAdd: {
        const Plan::Value& out = value(step.out);
        const std::int64_t rows = batch * out.h * out.w;
        const std::int64_t n = rows * out.c;
        parallel::SlabSlot& ds = slot_of(step.out);
        struct Side {
          const std::int32_t* dense;               // null when packed
          const layout::PackedActivations* packed;
        };
        auto side = [&](int vid) -> Side {
          if (value(vid).format == ValueFormat::kDense) {
            return {slot_of(vid).dense.data(), nullptr};
          }
          return {nullptr, &slot_of(vid).packed};
        };
        // Reshape the destination before capturing input pointers: when the
        // output slot aliases an input (same shape) this is a no-op, and
        // otherwise a first-run growth must not invalidate captured data().
        ds.dense.reset_shape({batch, out.h, out.w, out.c});
        Side a = side(step.in), b = side(step.in2);
        std::int32_t* d = ds.dense.data();
        // The output slot may alias either dense input (elementwise slot
        // reuse); materialize the aliasing side first so nothing is
        // clobbered, then accumulate the other (packed sides decode
        // word-wise on the fly — no to_dense copy ever happens).
        if (b.dense == d && b.dense != nullptr) std::swap(a, b);
        if (a.dense != nullptr) {
          if (a.dense != d) {
            std::memcpy(d, a.dense,
                        sizeof(std::int32_t) * static_cast<std::size_t>(n));
          }
        } else {
          decode_planes(tp, a.packed->planes, a.packed->bits, rows, out.c,
                        d, false);
        }
        if (b.dense != nullptr) {
          add_dense(tp, b.dense, d, n);
        } else {
          decode_planes(tp, b.packed->planes, b.packed->bits, rows, out.c,
                        d, true);
        }
        break;
      }
      case StepKind::kRelu: {
        const Plan::Value& out = value(step.out);
        const std::int64_t n = batch * out.per_sample();
        const Tensor<std::int32_t>& src = slot_of(step.in).dense;
        parallel::SlabSlot& ds = slot_of(step.out);
        const std::int32_t* s = src.data();
        if (&ds.dense != &src) {  // in-place when the slot was reused
          if (out.spatial) {
            ds.dense.reset_shape({batch, out.h, out.w, out.c});
          } else {
            ds.dense.reset_shape({batch, out.c});
          }
        }
        relu_dense(tp, s, ds.dense.data(), n);
        break;
      }
      case StepKind::kPool: {
        const Plan::Value& in = value(step.in);
        const Plan::Value& out = value(step.out);
        parallel::SlabSlot& ds = slot_of(step.out);
        ds.dense.reset_shape({batch, out.h, out.w, out.c});
        pool_nhwc(tp, slot_of(step.in).dense.data(), batch, in.h, in.w,
                  in.c, step.pool, ds.dense.data());
        break;
      }
      case StepKind::kQuantize: {
        const Plan::Value& out = value(step.out);
        const std::int64_t rows = batch * out.h * out.w;
        const Tensor<std::int32_t>& src = slot_of(step.in).dense;
        parallel::SlabSlot& ds = slot_of(step.out);
        if (out.format == ValueFormat::kPackedConv) {
          ds.packed.reset_shape(batch, out.h, out.w, out.c, out.bits,
                                /*zero_fill=*/false);
          quantize_pack(tp, src.data(), rows, out.c, step.quant,
                        ds.packed.planes);
        } else {
          const std::int32_t* s = src.data();
          if (&ds.dense != &src) {  // in-place when the slot was reused
            if (out.spatial) {
              ds.dense.reset_shape({batch, out.h, out.w, out.c});
            } else {
              ds.dense.reset_shape({batch, out.c});
            }
          }
          quantize_dense(tp, s, ds.dense.data(), rows * out.c, step.quant);
        }
        break;
      }
      case StepKind::kPack: {
        const Plan::Value& out = value(step.out);
        parallel::SlabSlot& ds = slot_of(step.out);
        ds.packed.reset_shape(batch, out.h, out.w, out.c, out.bits,
                              /*zero_fill=*/false);
        pack_codes(tp, slot_of(step.in).dense.data(),
                   batch * out.h * out.w, out.c, out.bits, ds.packed.planes);
        break;
      }
      case StepKind::kUnpack: {
        const Plan::Value& out = value(step.out);
        const layout::PackedActivations& src = slot_of(step.in).packed;
        parallel::SlabSlot& ds = slot_of(step.out);
        ds.dense.reset_shape({batch, out.h, out.w, out.c});
        decode_planes(tp, src.planes, src.bits, batch * out.h * out.w,
                      out.c, ds.dense.data(), false);
        break;
      }
      case StepKind::kUnpackLinear: {
        const Plan::Value& out = value(step.out);
        const bitops::BitPlanes& src = slot_of(step.in).planes;
        parallel::SlabSlot& ds = slot_of(step.out);
        ds.dense.reset_shape({batch, out.c});
        decode_planes(tp, src.planes, src.bits, batch, out.c,
                      ds.dense.data(), false);
        break;
      }
      case StepKind::kAttnProj: {
        const ApnnStage& st = net_.stages()[step.stage];
        const Plan::Value& in = value(step.in);
        const std::int64_t tokens = batch * in.h * in.w;
        // Lend the producer's plane storage (the input pack, or a previous
        // attention layer's token planes) to the kernel as the N x K token
        // operand — no copy, restored after the call.
        std::vector<bitops::BitMatrix>* lender =
            in.format == ValueFormat::kPackedConv
                ? &slot_of(step.in).packed.planes
                : &slot_of(step.in).planes.planes;
        core::ApOperand xop;
        xop.encoding = st.in_enc;
        xop.planes.rows = tokens;
        xop.planes.cols = in.c;
        xop.planes.bits = in.bits;
        xop.planes.planes = std::move(*lender);

        core::Epilogue epi;
        epi.has_relu = true;
        epi.has_quant = true;
        epi.quant = attn_proj_quant(st, step.aux);

        core::ApmmOptions o;
        o.autotune = false;
        o.tile = rb.tile[si];
        o.collect_profile = prof != nullptr;
        o.pool = opts_.pool;
        o.packed_out = &slot_of(step.out).planes;
        core::microkernel::SparsityStats sstats;
        o.sparsity_stats = prof != nullptr ? &sstats : nullptr;
        const std::size_t first = prof != nullptr ? prof->kernels.size() : 0;
        core::ApmmResult r =
            core::apmm(attn_proj_weights(st, step.aux), xop, dev_, o, epi);
        if (prof != nullptr) {
          prof->add(r.profile);
          annotate_sparsity(prof, first, sstats);
        }
        *lender = std::move(xop.planes.planes);
        break;
      }
      case StepKind::kAttnScores: {
        const AttentionParams& ap = plan.spec.layers[step.layer].attn;
        const Plan::Value& out = value(step.out);
        const std::int64_t seq = out.h;
        const std::int64_t dh = ap.d_head;
        const std::int64_t col0 = static_cast<std::int64_t>(step.aux) * dh;
        const int shift = attn_scale_shift(ap);
        const int abits = out.bits;
        parallel::SlabSlot& s0 =
            slab_.slot(static_cast<std::size_t>(step.scratch_slots[0]));
        parallel::SlabSlot& s1 =
            slab_.slot(static_cast<std::size_t>(step.scratch_slots[1]));
        parallel::SlabSlot& dst = slot_of(step.out);
        // Each call's epilogue overwrites every padded word of its sample's
        // rows: scale -> integer softmax -> requantize on each complete
        // score row, written straight into the output planes.
        dst.planes.reset_shape(batch * seq, seq, abits, /*zero_fill=*/false);
        const bitops::BitPlanes& q = slot_of(step.in).planes;
        const bitops::BitPlanes& k = slot_of(step.in2).planes;
        core::Epilogue epi;
        epi.has_softmax = true;
        epi.softmax.shift = shift;
        epi.softmax.bits = abits;
        for (std::int64_t b = 0; b < batch; ++b) {
          stage_col_slice(tp, q, b * seq, seq, col0, dh, s0.planes);
          stage_col_slice(tp, k, b * seq, seq, col0, dh, s1.planes);
          core::ApOperand qop, kop;
          qop.encoding = Encoding::kUnsigned01;
          kop.encoding = Encoding::kUnsigned01;
          qop.planes = std::move(s0.planes);
          kop.planes = std::move(s1.planes);
          core::ApmmOptions o;
          o.autotune = false;
          o.tile = rb.tile[si];
          o.collect_profile = prof != nullptr;
          o.pool = opts_.pool;
          o.packed_out = &dst.planes;
          o.packed_row0 = b * seq;
          core::microkernel::SparsityStats sstats;
          o.sparsity_stats = prof != nullptr ? &sstats : nullptr;
          const std::size_t first =
              prof != nullptr ? prof->kernels.size() : 0;
          core::ApmmResult r = core::apmm(qop, kop, dev_, o, epi);
          if (prof != nullptr) {
            prof->add(r.profile);
            annotate_sparsity(prof, first, sstats);
          }
          s0.planes = std::move(qop.planes);
          s1.planes = std::move(kop.planes);
        }
        break;
      }
      case StepKind::kAttnContext: {
        const ApnnStage& st = net_.stages()[step.stage];
        const AttentionParams& ap = plan.spec.layers[step.layer].attn;
        const Plan::Value& out = value(step.out);
        const std::int64_t seq = out.h;
        const std::int64_t dh = ap.d_head;
        const std::int64_t col0 = static_cast<std::int64_t>(step.aux) * dh;
        const int abits = out.bits;
        parallel::SlabSlot& s0 =
            slab_.slot(static_cast<std::size_t>(step.scratch_slots[0]));
        parallel::SlabSlot& s1 =
            slab_.slot(static_cast<std::size_t>(step.scratch_slots[1]));
        parallel::SlabSlot& s2 =
            slab_.slot(static_cast<std::size_t>(step.scratch_slots[2]));
        parallel::SlabSlot& dst = slot_of(step.out);
        dst.planes.reset_shape(batch * seq, dh, abits, /*zero_fill=*/false);
        const bitops::BitPlanes& attn = slot_of(step.in).planes;
        const bitops::BitPlanes& v = slot_of(step.in2).planes;
        for (std::int64_t b = 0; b < batch; ++b) {
          stage_row_block(attn, b * seq, seq, s0.planes);
          stage_col_slice(tp, v, b * seq, seq, col0, dh, s1.planes);
          // Word-granular packed transpose: V_h -> V_h^T is the K-major
          // feature operand of attn x V (replaces the example's old
          // element-wise transpose loop).
          layout::transpose_planes(s1.planes, s2.planes);
          core::ApOperand wop, xop;
          wop.encoding = Encoding::kUnsigned01;
          xop.encoding = Encoding::kUnsigned01;
          wop.planes = std::move(s0.planes);
          xop.planes = std::move(s2.planes);
          core::ApmmOptions o;
          o.autotune = false;
          o.tile = rb.tile[si];
          o.collect_profile = prof != nullptr;
          o.pool = opts_.pool;
          o.y_out = &s1.dense;  // raw seq x d_head context
          core::microkernel::SparsityStats sstats;
          o.sparsity_stats = prof != nullptr ? &sstats : nullptr;
          const std::size_t first =
              prof != nullptr ? prof->kernels.size() : 0;
          core::ApmmResult r =
              core::apmm(wop, xop, dev_, o, core::Epilogue{});
          if (prof != nullptr) {
            prof->add(r.profile);
            annotate_sparsity(prof, first, sstats);
          }
          s0.planes = std::move(wop.planes);
          s2.planes = std::move(xop.planes);
          relu_quantize_pack(tp, s1.dense.data(), seq, dh,
                             st.attn_ctx_quant, dst.planes.planes, b * seq);
        }
        break;
      }
      case StepKind::kAttnOut: {
        const ApnnStage& st = net_.stages()[step.stage];
        const Plan::Value& out = value(step.out);
        const std::int64_t tokens = batch * out.h;
        const std::int64_t dh =
            plan.spec.layers[step.layer].attn.d_head;
        const int heads = static_cast<int>(step.extra_in.size());
        const int abits = value(step.extra_in[0]).bits;
        parallel::SlabSlot& s0 =
            slab_.slot(static_cast<std::size_t>(step.scratch_slots[0]));
        // Concatenate the heads' context planes into one token-major
        // operand (zero fill keeps the word padding honest; copy_bits
        // writes only each head's column window).
        s0.planes.reset_shape(tokens, static_cast<std::int64_t>(heads) * dh,
                              abits, /*zero_fill=*/true);
        tp.parallel_for(0, tokens, [&](std::int64_t r) {
          for (int h = 0; h < heads; ++h) {
            const bitops::BitPlanes& c = slot_of(step.extra_in[h]).planes;
            for (int t = 0; t < abits; ++t) {
              bitops::copy_bits(
                  s0.planes.planes[static_cast<std::size_t>(t)].row(r),
                  h * dh, c.planes[static_cast<std::size_t>(t)].row(r), 0,
                  dh);
            }
          }
        }, kRowGrain);
        core::ApOperand xop;
        xop.encoding = Encoding::kUnsigned01;
        xop.planes = std::move(s0.planes);
        core::ApmmOptions o;
        o.autotune = false;
        o.tile = rb.tile[si];
        o.collect_profile = prof != nullptr;
        o.pool = opts_.pool;
        o.packed_out = &slot_of(step.out).planes;
        core::microkernel::SparsityStats sstats;
        o.sparsity_stats = prof != nullptr ? &sstats : nullptr;
        const std::size_t first = prof != nullptr ? prof->kernels.size() : 0;
        core::ApmmResult r =
            core::apmm(st.attn_wo, xop, dev_, o, st.epilogue);
        if (prof != nullptr) {
          prof->add(r.profile);
          annotate_sparsity(prof, first, sstats);
        }
        s0.planes = std::move(xop.planes);
        break;
      }
      case StepKind::kUnpackTokens: {
        const Plan::Value& out = value(step.out);
        const bitops::BitPlanes& src = slot_of(step.in).planes;
        parallel::SlabSlot& ds = slot_of(step.out);
        ds.dense.reset_shape({batch, out.h, out.w, out.c});
        decode_planes(tp, src.planes, src.bits, batch * out.h * out.w,
                      out.c, ds.dense.data(), false);
        break;
      }
    }
  }

  // Copy the logits out (the slab keeps ownership of every intermediate).
  const Plan::Value& lv = value(plan.logits_value);
  const Tensor<std::int32_t>& ld = slot_of(plan.logits_value).dense;
  logits->reset_shape({batch, lv.c});
  std::memcpy(logits->data(), ld.data(),
              sizeof(std::int32_t) * static_cast<std::size_t>(batch * lv.c));
  slab_.note_high_water();
}

Tensor<std::int32_t> InferenceSession::run(const Tensor<std::int32_t>& input_u8,
                                           tcsim::SequenceProfile* prof) {
  Tensor<std::int32_t> logits;
  run(input_u8, &logits, prof);
  return logits;
}

}  // namespace apnn::nn
