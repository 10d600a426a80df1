// Per-layer replays: the benchmark times its own direct calls into the
// session, core, layout and parallel layers, with the serving stack torn
// down so nothing else competes for the cores.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench/e2e/loadgen.hpp"
#include "bench/e2e/trace.hpp"
#include "src/nn/apnn_network.hpp"

namespace apnn::e2e {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// The three served networks. Weights are fixed (seed 42, calibrated like
/// `apnn_cli export`); only the traffic depends on the benchmark seed.
struct Zoo {
  nn::ApnnNetwork mini_resnet;       ///< mini_resnet(4, 16, 10) w1a2
  nn::ApnnNetwork vgg_lite;          ///< vgg_lite(32, 10) w2a2
  nn::ApnnNetwork tiny_transformer;  ///< tiny_transformer() w1a2
};

/// Appends session.*, core.*, layout.* and parallel.* metrics, spending
/// about `seconds` on timed repetitions. Each timing is the median over
/// repetitions spread across three interleaved rounds.
void replay_layers(const Zoo& zoo, std::uint64_t seed, double seconds,
                   Tracer* tracer, Metrics& out);

/// Microseconds to encode and decode one INFER request and its response
/// (`classes` logits per sample), averaged over the frames of `pool` — the
/// median over repetitions of one pass through the pool.
double codec_us(const std::vector<Request>& pool, std::uint32_t classes,
                double seconds);

}  // namespace apnn::e2e
