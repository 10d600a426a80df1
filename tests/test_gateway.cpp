// Multi-model gateway gates (protocol codec, registry, TCP server):
//   * frame codec: every encoder round-trips through its decoder; bad
//     magic, foreign version, nonzero reserved, oversized payloads, and
//     truncated frames fail loudly with the right WireError — never a
//     silent resync;
//   * payload validation: INFER batches outside [1, kMaxFrameSamples],
//     zero dims, short/long sample bytes, and trailing garbage are all
//     malformed frames;
//   * gateway config parsing: ini sections to ModelConfigs, typo'd keys
//     and duplicate ids throw with line numbers instead of becoming
//     defaults;
//   * registry: multi-model routing is bit-exact against direct session
//     runs, unknown ids throw kUnknownModel, reload bumps the generation
//     and drops zero requests on the model that was not reloaded;
//   * one INFER frame is one registry call: its samples batch with each
//     other on a 2-replica model and count as one latency observation;
//   * gateway over loopback TCP: binary INFER/LIST/PING round trips,
//     typed errors for unknown models and invalid samples, the JSON line
//     protocol (including malformed lines keeping the connection), the
//     HTTP /stats and /healthz endpoints, and clean shutdown with
//     connections open.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/rng.hpp"

#include "src/common/net.hpp"
#include "src/nn/apnn_network.hpp"
#include "src/nn/gateway.hpp"
#include "src/nn/model.hpp"
#include "src/nn/protocol.hpp"
#include "src/nn/registry.hpp"
#include "src/nn/serialize.hpp"
#include "src/nn/session.hpp"
#include "src/tcsim/device_spec.hpp"

namespace apnn::nn {
namespace {

const tcsim::DeviceSpec& dev() { return tcsim::rtx3090(); }

// --- frame codec ------------------------------------------------------------

TEST(WireCodec, FrameHeaderRoundTrip) {
  std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};
  const std::vector<std::uint8_t> bytes =
      wire::encode_frame(wire::MsgType::kInfer, payload);
  ASSERT_EQ(bytes.size(), wire::kHeaderBytes + payload.size());
  wire::MsgType type;
  const std::size_t len =
      wire::decode_header(bytes.data(), &type, wire::kDefaultMaxFrameBytes);
  EXPECT_EQ(type, wire::MsgType::kInfer);
  EXPECT_EQ(len, payload.size());
}

TEST(WireCodec, BadMagicFailsLoudly) {
  std::vector<std::uint8_t> bytes =
      wire::encode_frame(wire::MsgType::kPing, {});
  bytes[0] = 'X';
  wire::MsgType type;
  try {
    wire::decode_header(bytes.data(), &type, wire::kDefaultMaxFrameBytes);
    FAIL() << "bad magic must throw";
  } catch (const wire::WireFormatError& e) {
    EXPECT_EQ(e.code(), wire::WireError::kMalformedFrame);
  }
}

TEST(WireCodec, ForeignVersionFailsLoudly) {
  std::vector<std::uint8_t> bytes =
      wire::encode_frame(wire::MsgType::kPing, {});
  bytes[4] = wire::kProtocolVersion + 7;
  wire::MsgType type;
  try {
    wire::decode_header(bytes.data(), &type, wire::kDefaultMaxFrameBytes);
    FAIL() << "foreign version must throw";
  } catch (const wire::WireFormatError& e) {
    EXPECT_EQ(e.code(), wire::WireError::kUnsupportedVersion);
  }
}

TEST(WireCodec, NonzeroReservedFailsLoudly) {
  std::vector<std::uint8_t> bytes =
      wire::encode_frame(wire::MsgType::kPing, {});
  bytes[6] = 1;
  wire::MsgType type;
  EXPECT_THROW(
      wire::decode_header(bytes.data(), &type, wire::kDefaultMaxFrameBytes),
      wire::WireFormatError);
}

TEST(WireCodec, OversizedPayloadFailsLoudly) {
  std::vector<std::uint8_t> bytes =
      wire::encode_frame(wire::MsgType::kPing, {});
  bytes[8] = 0xff;  // payload_len = 0x000000ff, bound = 16
  wire::MsgType type;
  try {
    wire::decode_header(bytes.data(), &type, /*max_payload_bytes=*/16);
    FAIL() << "oversized payload must throw";
  } catch (const wire::WireFormatError& e) {
    EXPECT_EQ(e.code(), wire::WireError::kFrameTooLarge);
  }
}

TEST(WireCodec, TruncatedFrameOverSocketFailsLoudly) {
  int port = 0;
  net::Socket listener = net::listen_loopback(0, 4, &port);
  std::thread peer([port] {
    net::Socket c = net::connect_loopback(port);
    // A valid header promising 100 payload bytes, then only 3, then EOF.
    std::vector<std::uint8_t> partial =
        wire::encode_frame(wire::MsgType::kInfer,
                           std::vector<std::uint8_t>(100, 0));
    partial.resize(wire::kHeaderBytes + 3);
    c.write_all(partial.data(), partial.size());
  });
  net::Socket server = net::accept_conn(listener);
  wire::Frame f;
  EXPECT_THROW(wire::read_frame(server, &f, wire::kDefaultMaxFrameBytes),
               Error);
  peer.join();
}

TEST(WireCodec, ReaderBoundsChecked) {
  std::vector<std::uint8_t> b;
  wire::put_u16(b, 7);
  wire::Reader r(b);
  EXPECT_EQ(r.u16(), 7);
  EXPECT_THROW(r.u32(), wire::WireFormatError);  // overrun
  std::vector<std::uint8_t> c;
  wire::put_u32(c, 1);
  wire::put_u8(c, 9);  // trailing byte after the last field
  wire::Reader r2(c);
  (void)r2.u32();
  EXPECT_THROW(r2.expect_end(), wire::WireFormatError);
}

TEST(WireCodec, InferPayloadRoundTrip) {
  wire::InferRequest req;
  req.model = "mini";
  req.deadline_ms = 250;
  req.count = 2;
  req.h = 2;
  req.w = 3;
  req.c = 1;
  req.samples.assign(2 * 2 * 3 * 1, 0);
  for (std::size_t i = 0; i < req.samples.size(); ++i) {
    req.samples[i] = static_cast<std::uint8_t>(i * 17);
  }
  const wire::InferRequest back =
      wire::decode_infer_request(wire::encode_infer_request(req));
  EXPECT_EQ(back.model, req.model);
  EXPECT_EQ(back.deadline_ms, req.deadline_ms);
  EXPECT_EQ(back.count, req.count);
  EXPECT_EQ(back.h, req.h);
  EXPECT_EQ(back.w, req.w);
  EXPECT_EQ(back.c, req.c);
  EXPECT_EQ(back.samples, req.samples);

  wire::InferResponse resp;
  resp.count = 2;
  resp.classes = 3;
  resp.logits = {1, -2, 3, 4, 5, -6};
  const wire::InferResponse rback =
      wire::decode_infer_response(wire::encode_infer_response(resp));
  EXPECT_EQ(rback.count, resp.count);
  EXPECT_EQ(rback.classes, resp.classes);
  EXPECT_EQ(rback.logits, resp.logits);
}

TEST(WireCodec, InferPayloadValidation) {
  // The encoder APNN_CHECKs its own invariants, so malformed payloads are
  // hand-built here the way a hostile peer would send them:
  // str(model) u32(deadline) u16(count) u16(h) u16(w) u16(c) u16(seq_len)
  // bytes.
  auto raw = [](std::uint16_t count, std::uint16_t h, std::uint16_t w,
                std::uint16_t c, std::size_t nbytes,
                std::uint16_t seq_len = 0) {
    std::vector<std::uint8_t> b;
    wire::put_str(b, "m");
    wire::put_u32(b, 0);
    wire::put_u16(b, count);
    wire::put_u16(b, h);
    wire::put_u16(b, w);
    wire::put_u16(b, c);
    wire::put_u16(b, seq_len);
    b.insert(b.end(), nbytes, 0);
    return b;
  };
  // Short sample bytes (3 where count*h*w*c = 4).
  EXPECT_THROW(wire::decode_infer_request(raw(1, 2, 2, 1, 3)),
               wire::WireFormatError);
  // Zero dim.
  EXPECT_THROW(wire::decode_infer_request(raw(1, 2, 2, 0, 0)),
               wire::WireFormatError);
  // Zero count and count over the frame bound.
  EXPECT_THROW(wire::decode_infer_request(raw(0, 2, 2, 1, 0)),
               wire::WireFormatError);
  EXPECT_THROW(
      wire::decode_infer_request(raw(
          wire::kMaxFrameSamples + 1, 2, 2, 1,
          static_cast<std::size_t>(wire::kMaxFrameSamples + 1) * 4)),
      wire::WireFormatError);
  // A nonzero seq_len that does not match the sample token count.
  EXPECT_THROW(wire::decode_infer_request(raw(1, 2, 2, 1, 4, /*seq_len=*/3)),
               wire::WireFormatError);
  // seq_len == h is well-formed at the codec layer (model-shape checks
  // happen at admission, not here).
  EXPECT_NO_THROW(wire::decode_infer_request(raw(1, 2, 2, 1, 4,
                                                 /*seq_len=*/2)));
  // Trailing garbage after a well-formed request.
  std::vector<std::uint8_t> bytes = raw(1, 2, 2, 1, 4);
  EXPECT_NO_THROW(wire::decode_infer_request(bytes));
  bytes.push_back(0);
  EXPECT_THROW(wire::decode_infer_request(bytes), wire::WireFormatError);
}

TEST(WireCodec, ErrorAndListRoundTrip) {
  wire::ErrorResponse err;
  err.code = wire::WireError::kUnknownModel;
  err.message = "no model 'x'";
  const wire::ErrorResponse eback =
      wire::decode_error_response(wire::encode_error_response(err));
  EXPECT_EQ(eback.code, err.code);
  EXPECT_EQ(eback.message, err.message);

  std::vector<wire::ModelDescriptor> models(2);
  models[0] = {"mini", 16, 16, 4, 10, 3};
  models[1] = {"vgg", 16, 16, 3, 10, 1};
  const auto mback =
      wire::decode_list_response(wire::encode_list_response(models));
  ASSERT_EQ(mback.size(), 2u);
  EXPECT_EQ(mback[0].id, "mini");
  EXPECT_EQ(mback[0].c, 4);
  EXPECT_EQ(mback[0].generation, 3u);
  EXPECT_EQ(mback[1].id, "vgg");
}

TEST(WireCodec, ErrorTaxonomyMirrorsErrorKind) {
  for (std::size_t k = 0; k < kErrorKindCount; ++k) {
    const auto kind = static_cast<ErrorKind>(k);
    EXPECT_EQ(static_cast<std::uint16_t>(wire::wire_error_for(kind)),
              static_cast<std::uint16_t>(k) + 1);
  }
  // The generated doc table covers every enumerator (docs lint depends on
  // this being complete).
  const std::string table = wire::error_table_markdown();
  for (const char* name :
       {"DEADLINE_EXCEEDED", "QUEUE_FULL", "SHUTTING_DOWN", "INVALID_SAMPLE",
        "REPLICA_FAILED", "UNKNOWN_MODEL", "MALFORMED_FRAME",
        "UNSUPPORTED_VERSION", "FRAME_TOO_LARGE", "UNSUPPORTED_TYPE",
        "MODEL_LOAD_FAILED", "INTERNAL"}) {
    EXPECT_NE(table.find(name), std::string::npos) << name;
  }
}

// --- latency histogram ------------------------------------------------------

TEST(LatencyHistogram, QuantileWithinBucketBound) {
  gw::LatencyHistogram h;
  EXPECT_EQ(h.quantile(0.5), 0.0);  // empty
  for (int i = 0; i < 99; ++i) h.record(1.0);
  h.record(100.0);
  EXPECT_EQ(h.count(), 100);
  EXPECT_NEAR(h.sum_ms(), 199.0, 1e-9);
  EXPECT_EQ(h.max_ms(), 100.0);
  // p50 lands in 1.0's bucket: >= the sample, overestimates by at most one
  // half-power-of-two bucket width.
  EXPECT_GE(h.quantile(0.5), 1.0);
  EXPECT_LE(h.quantile(0.5), 1.0 * 1.4143);
  // The top sample is clamped to the observed max, not the bucket bound.
  EXPECT_EQ(h.quantile(1.0), 100.0);
}

// --- config parsing ---------------------------------------------------------

TEST(GatewayConfig, ParsesSectionsAndKeys) {
  const gw::GatewayConfig cfg = gw::parse_gateway_config(
      "# gateway\n"
      "port = 7071\n"
      "max_frame_bytes = 1048576\n"
      "device = a100\n"
      "\n"
      "[model mini]\n"
      "path = models/mini.apnn\n"
      "max_batch = 4\n"
      "replicas = 2\n"
      "slice_threads = 1\n"
      "max_queue = 32\n"
      "admission = reject\n"
      "batch_window_us = 250\n"
      "\n"
      "; second model rides the defaults\n"
      "[model vgg]\n"
      "path = models/vgg.apnn\n");
  EXPECT_EQ(cfg.port, 7071);
  EXPECT_EQ(cfg.max_frame_bytes, 1048576u);
  EXPECT_EQ(cfg.device, "a100");
  ASSERT_EQ(cfg.models.size(), 2u);
  EXPECT_EQ(cfg.models[0].id, "mini");
  EXPECT_EQ(cfg.models[0].path, "models/mini.apnn");
  EXPECT_EQ(cfg.models[0].max_batch, 4);
  EXPECT_EQ(cfg.models[0].replicas, 2);
  EXPECT_EQ(cfg.models[0].slice_threads, 1);
  EXPECT_EQ(cfg.models[0].max_queue, 32);
  EXPECT_EQ(cfg.models[0].admission, "reject");
  EXPECT_EQ(cfg.models[0].batch_window_us, 250);
  EXPECT_EQ(cfg.models[1].id, "vgg");
  // Unset keys inherit the server defaults.
  EXPECT_EQ(cfg.models[1].max_batch, ServerOptions{}.max_batch);
  EXPECT_EQ(cfg.models[1].batch_window_us,
            ServerOptions{}.batch_window.count());
}

TEST(GatewayConfig, RejectsTyposAndDuplicates) {
  // A typo'd knob must not silently become a default.
  EXPECT_THROW(gw::parse_gateway_config("[model m]\npath = x\nmax_bach = 4\n"),
               Error);
  // Model keys outside a section are gateway-key typos.
  EXPECT_THROW(gw::parse_gateway_config("path = x\n"), Error);
  // Two sections for one id.
  EXPECT_THROW(gw::parse_gateway_config(
                   "[model m]\npath = x\n[model m]\npath = y\n"),
               Error);
  // A model without a path cannot be loaded.
  EXPECT_THROW(gw::parse_gateway_config("[model m]\nmax_batch = 4\n"), Error);
  // Garbage line.
  EXPECT_THROW(gw::parse_gateway_config("not an assignment\n"), Error);
  // autotune/cache_path are not model keys: a config that still sets them
  // fails on the offending line. So does a removed admission value.
  try {
    gw::parse_gateway_config("[model m]\npath = x\nadmission = degrade\n");
    ADD_FAILURE() << "admission = degrade parsed";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "config line 3: admission 'degrade' is not block|reject"),
              std::string::npos)
        << e.what();
  }
  for (const std::string key : {"autotune = true", "cache_path = x"}) {
    try {
      gw::parse_gateway_config("[model m]\npath = x\n" + key + "\n");
      ADD_FAILURE() << "'" << key << "' parsed";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("config line 3: unknown model key"),
                std::string::npos)
          << e.what();
    }
  }
}

// --- registry + gateway end-to-end ------------------------------------------

struct ServedModel {
  std::string id;
  std::string path;
  ModelSpec spec;
  std::vector<Tensor<std::int32_t>> samples;
  std::vector<Tensor<std::int32_t>> golden;
};

// Builds, calibrates, serializes, and golden-runs a small model zoo entry.
ServedModel make_served(const std::string& id, const ModelSpec& spec,
                        unsigned seed, int n_samples = 4) {
  ServedModel m;
  m.id = id;
  m.path = "test_gateway_" + id + ".apnn";
  m.spec = spec;
  ApnnNetwork net = ApnnNetwork::random(spec, 1, 2, seed);
  Rng rng(seed + 1);
  Tensor<std::int32_t> calib({2, spec.input.h, spec.input.w, spec.input.c});
  calib.randomize(rng, 0, 255);
  net.calibrate(calib);
  EXPECT_TRUE(save_network(net, m.path));
  InferenceSession session(net, dev());
  for (int i = 0; i < n_samples; ++i) {
    Tensor<std::int32_t> s({1, spec.input.h, spec.input.w, spec.input.c});
    s.randomize(rng, 0, 255);
    m.golden.push_back(session.run(s));
    m.samples.push_back(std::move(s));
  }
  return m;
}

void expect_bit_exact(const Tensor<std::int32_t>& got,
                      const Tensor<std::int32_t>& want) {
  ASSERT_EQ(got.numel(), want.numel());
  for (std::int64_t i = 0; i < got.numel(); ++i) {
    ASSERT_EQ(got[i], want[i]) << "logit " << i;
  }
}

gw::ModelConfig config_for(const ServedModel& m) {
  gw::ModelConfig cfg;
  cfg.id = m.id;
  cfg.path = m.path;
  cfg.max_batch = 4;
  cfg.batch_window_us = 100;
  return cfg;
}

class GatewayEndToEnd : public ::testing::Test {
 protected:
  void SetUp() override {
    mini_ = make_served("mini", mini_resnet(4, 8, 10), 11);
    vgg_ = make_served("vgg", vgg_lite(8, 10), 22);
    registry_ = std::make_unique<gw::ModelRegistry>(dev(), 2);
    registry_->load(config_for(mini_));
    registry_->load(config_for(vgg_));
    gateway_ = std::make_unique<gw::Gateway>(*registry_);
  }
  void TearDown() override {
    gateway_.reset();
    registry_.reset();
    std::remove(mini_.path.c_str());
    std::remove(vgg_.path.c_str());
  }

  ServedModel mini_, vgg_;
  std::unique_ptr<gw::ModelRegistry> registry_;
  std::unique_ptr<gw::Gateway> gateway_;
};

TEST_F(GatewayEndToEnd, RoutesByModelIdBitExactly) {
  wire::Client client(gateway_->port());
  for (std::size_t i = 0; i < mini_.samples.size(); ++i) {
    expect_bit_exact(client.infer("mini", mini_.samples[i]), mini_.golden[i]);
    expect_bit_exact(client.infer("vgg", vgg_.samples[i]), vgg_.golden[i]);
  }
  const auto models = client.list();
  ASSERT_EQ(models.size(), 2u);
  EXPECT_EQ(models[0].id, "mini");
  EXPECT_EQ(models[0].c, 4);
  EXPECT_EQ(models[0].classes, 10u);
  EXPECT_EQ(models[1].id, "vgg");
  EXPECT_EQ(models[1].c, 3);
  client.ping();
}

TEST_F(GatewayEndToEnd, BatchedInferMatchesPerSample) {
  wire::Client client(gateway_->port());
  wire::InferRequest req;
  req.model = "mini";
  req.count = static_cast<std::uint16_t>(mini_.samples.size());
  req.h = static_cast<std::uint16_t>(mini_.spec.input.h);
  req.w = static_cast<std::uint16_t>(mini_.spec.input.w);
  req.c = static_cast<std::uint16_t>(mini_.spec.input.c);
  for (const auto& s : mini_.samples) {
    const auto bytes = wire::pack_sample_u8(s);
    req.samples.insert(req.samples.end(), bytes.begin(), bytes.end());
  }
  const wire::InferResponse resp = client.infer_batch(req);
  ASSERT_EQ(resp.count, req.count);
  ASSERT_EQ(resp.classes, 10u);
  for (std::size_t i = 0; i < mini_.samples.size(); ++i) {
    for (std::uint32_t j = 0; j < resp.classes; ++j) {
      EXPECT_EQ(resp.logits[i * resp.classes + j], mini_.golden[i][j]);
    }
  }
}

TEST_F(GatewayEndToEnd, TypedErrorsOverTheWire) {
  wire::Client client(gateway_->port());
  try {
    client.infer("nope", mini_.samples[0]);
    FAIL() << "unknown model must fail";
  } catch (const wire::RemoteError& e) {
    EXPECT_EQ(e.code(), wire::WireError::kUnknownModel);
  }
  // Wrong dims for the routed model: the server's admission validation
  // travels the wire as INVALID_SAMPLE.
  Tensor<std::int32_t> wrong({1, 2, 2, 1});
  try {
    client.infer("mini", wrong);
    FAIL() << "wrong dims must fail";
  } catch (const wire::RemoteError& e) {
    EXPECT_EQ(e.code(), wire::WireError::kInvalidSample);
  }
  // The connection survives typed errors.
  expect_bit_exact(client.infer("mini", mini_.samples[0]), mini_.golden[0]);
}

TEST_F(GatewayEndToEnd, MalformedFrameAnswersErrorAndCloses) {
  net::Socket sock = net::connect_loopback(gateway_->port());
  // First byte 'A' routes to the binary server, then the magic goes bad.
  const char garbage[12] = {'A', 'X', 'X', 'X', 0, 0, 0, 0, 0, 0, 0, 0};
  sock.write_all(garbage, sizeof(garbage));
  wire::Frame f;
  ASSERT_TRUE(wire::read_frame(sock, &f, wire::kDefaultMaxFrameBytes));
  ASSERT_EQ(f.type, wire::MsgType::kError);
  const wire::ErrorResponse err = wire::decode_error_response(f.payload);
  EXPECT_EQ(err.code, wire::WireError::kMalformedFrame);
  // ...and the gateway closes: the next read sees EOF.
  EXPECT_FALSE(wire::read_frame(sock, &f, wire::kDefaultMaxFrameBytes));
}

TEST_F(GatewayEndToEnd, ForeignVersionRejectedOverTheWire) {
  net::Socket sock = net::connect_loopback(gateway_->port());
  std::vector<std::uint8_t> frame =
      wire::encode_frame(wire::MsgType::kPing, {});
  frame[4] = 9;  // foreign protocol version
  sock.write_all(frame.data(), frame.size());
  wire::Frame f;
  ASSERT_TRUE(wire::read_frame(sock, &f, wire::kDefaultMaxFrameBytes));
  ASSERT_EQ(f.type, wire::MsgType::kError);
  EXPECT_EQ(wire::decode_error_response(f.payload).code,
            wire::WireError::kUnsupportedVersion);
}

TEST_F(GatewayEndToEnd, JsonLineProtocol) {
  net::Socket sock = net::connect_loopback(gateway_->port());
  auto ask = [&sock](const std::string& line) {
    sock.write_all(line.data(), line.size());
    std::string reply;
    char ch;
    while (sock.read_exact(&ch, 1) && ch != '\n') reply.push_back(ch);
    return reply;
  };
  EXPECT_EQ(ask("{\"op\":\"ping\"}\n"), "{\"ok\":true}");
  EXPECT_NE(ask("{\"op\":\"list\"}\n").find("\"id\":\"mini\""),
            std::string::npos);
  // A malformed line answers an error and keeps the connection.
  EXPECT_NE(ask("{oops\n").find("\"code\":\"MALFORMED_FRAME\""),
            std::string::npos);
  // An unknown op is typed too.
  EXPECT_NE(ask("{\"op\":\"frobnicate\"}\n").find("UNSUPPORTED_TYPE"),
            std::string::npos);
  // A full infer round trip, checked against the golden logits.
  std::string req = "{\"op\":\"infer\",\"model\":\"vgg\",\"h\":8,\"w\":8,"
                    "\"c\":3,\"sample\":[";
  const Tensor<std::int32_t>& s = vgg_.samples[0];
  for (std::int64_t i = 0; i < s.numel(); ++i) {
    if (i > 0) req += ',';
    req += std::to_string(s[i]);
  }
  req += "]}\n";
  const std::string reply = ask(req);
  std::string want = "\"logits\":[";
  const Tensor<std::int32_t>& g = vgg_.golden[0];
  for (std::int64_t i = 0; i < g.numel(); ++i) {
    if (i > 0) want += ',';
    want += std::to_string(g[i]);
  }
  want += "]";
  EXPECT_NE(reply.find("\"ok\":true"), std::string::npos) << reply;
  EXPECT_NE(reply.find(want), std::string::npos) << reply;
}

TEST_F(GatewayEndToEnd, HttpStatsAndHealth) {
  auto get = [this](const std::string& path) {
    net::Socket sock = net::connect_loopback(gateway_->port());
    const std::string req = "GET " + path + " HTTP/1.0\r\n\r\n";
    sock.write_all(req.data(), req.size());
    std::string resp;
    char chunk[4096];
    for (std::size_t got; (got = sock.read_some(chunk, sizeof(chunk))) > 0;) {
      resp.append(chunk, got);
    }
    return resp;
  };
  // Serve some traffic first so the counters are nonzero.
  wire::Client client(gateway_->port());
  client.infer("mini", mini_.samples[0]);

  const std::string stats = get("/stats");
  EXPECT_NE(stats.find("200 OK"), std::string::npos);
  for (const char* metric :
       {"apnn_gateway_connections_total", "apnn_gateway_models 2",
        "apnn_model_requests_total{model=\"mini\"}",
        "apnn_model_generation{model=\"vgg\"}",
        "apnn_model_latency_ms{model=\"mini\",quantile=\"0.99\"}",
        "apnn_model_replica_health"}) {
    EXPECT_NE(stats.find(metric), std::string::npos) << metric;
  }
  EXPECT_NE(get("/healthz").find("ok"), std::string::npos);
  EXPECT_NE(get("/nope").find("404"), std::string::npos);
}

TEST_F(GatewayEndToEnd, HotReloadDropsNothingOnOtherModel) {
  const std::uint32_t gen_before = registry_->list()[0].generation;
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::atomic<int> served{0};
  // Continuous traffic on vgg from two client connections while mini is
  // reloaded underneath them.
  std::vector<std::thread> traffic;
  for (int t = 0; t < 2; ++t) {
    traffic.emplace_back([&, t] {
      wire::Client client(gateway_->port());
      for (int i = 0; !stop.load(); ++i) {
        const std::size_t s = static_cast<std::size_t>(i + t) %
                              vgg_.samples.size();
        try {
          const Tensor<std::int32_t> logits =
              client.infer("vgg", vgg_.samples[s]);
          bool match = logits.numel() == vgg_.golden[s].numel();
          for (std::int64_t j = 0; match && j < logits.numel(); ++j) {
            match = logits[j] == vgg_.golden[s][j];
          }
          if (!match) failures.fetch_add(1);
          served.fetch_add(1);
        } catch (const Error&) {
          failures.fetch_add(1);
        }
      }
    });
  }
  wire::Client admin(gateway_->port());
  for (int r = 0; r < 3; ++r) admin.reload("mini");
  stop.store(true);
  for (auto& t : traffic) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(served.load(), 0);
  // The reloads bumped mini's generation (a global counter, so only
  // monotonicity is pinned) and it still answers bit-exactly.
  const auto models = admin.list();
  EXPECT_GT(models[0].generation, gen_before);
  expect_bit_exact(admin.infer("mini", mini_.samples[0]), mini_.golden[0]);
}

TEST_F(GatewayEndToEnd, UnloadRemovesOnlyThatModel) {
  wire::Client client(gateway_->port());
  client.unload("mini");
  EXPECT_EQ(registry_->size(), 1u);
  try {
    client.infer("mini", mini_.samples[0]);
    FAIL() << "unloaded model must be unrouted";
  } catch (const wire::RemoteError& e) {
    EXPECT_EQ(e.code(), wire::WireError::kUnknownModel);
  }
  expect_bit_exact(client.infer("vgg", vgg_.samples[0]), vgg_.golden[0]);
  // load() puts it back under a fresh generation.
  client.load("mini", mini_.path);
  expect_bit_exact(client.infer("mini", mini_.samples[0]), mini_.golden[0]);
}

TEST_F(GatewayEndToEnd, AdminOpsCanBeDisabled) {
  gw::GatewayOptions opts;
  opts.allow_admin = false;
  gw::Gateway locked(*registry_, opts);
  wire::Client client(locked.port());
  try {
    client.reload("mini");
    FAIL() << "admin op must be refused";
  } catch (const wire::RemoteError& e) {
    EXPECT_EQ(e.code(), wire::WireError::kUnsupportedType);
  }
  // Serving is unaffected.
  expect_bit_exact(client.infer("mini", mini_.samples[0]), mini_.golden[0]);
}

TEST_F(GatewayEndToEnd, ShutdownWithConnectionsOpen) {
  wire::Client client(gateway_->port());
  client.ping();
  gateway_->shutdown();   // must not hang on the open connection
  gateway_->shutdown();   // idempotent
  EXPECT_THROW(net::connect_loopback(gateway_->port()), Error);
}

// One INFER frame is one registry call: its samples are admitted together,
// batch with each other across replicas, and count as one gateway latency
// observation.
TEST(GatewayFrames, FrameBatchesWithItselfAndRecordsOneLatency) {
  ServedModel m = make_served("frames", mini_resnet(4, 8, 10), 55, 8);
  {
    gw::ModelRegistry registry(dev(), 1);
    gw::ModelConfig cfg = config_for(m);
    cfg.replicas = 2;
    cfg.slice_threads = 1;
    registry.load(cfg);
    gw::Gateway gateway(registry);
    auto metric = [&](const std::string& series) {
      const std::string text = gateway.prometheus_text();
      const std::string key = "\n" + series + " ";
      const std::size_t at = text.find(key);
      EXPECT_NE(at, std::string::npos) << series;
      return at == std::string::npos
                 ? -1.0
                 : std::strtod(text.c_str() + at + key.size(), nullptr);
    };
    const std::string count = "apnn_model_latency_ms_count{model=\"frames\"}";

    wire::Client client(gateway.port());
    expect_bit_exact(client.infer("frames", m.samples[0]), m.golden[0]);
    EXPECT_EQ(metric(count), 1.0);
    EXPECT_EQ(metric("apnn_model_max_batch{model=\"frames\"}"), 1.0);

    wire::InferRequest req;
    req.model = "frames";
    req.count = static_cast<std::uint16_t>(m.samples.size());
    req.h = static_cast<std::uint16_t>(m.spec.input.h);
    req.w = static_cast<std::uint16_t>(m.spec.input.w);
    req.c = static_cast<std::uint16_t>(m.spec.input.c);
    for (const auto& s : m.samples) {
      const auto bytes = wire::pack_sample_u8(s);
      req.samples.insert(req.samples.end(), bytes.begin(), bytes.end());
    }
    const wire::InferResponse resp = client.infer_batch(req);
    ASSERT_EQ(resp.count, req.count);
    for (std::size_t i = 0; i < m.samples.size(); ++i) {
      for (std::uint32_t j = 0; j < resp.classes; ++j) {
        EXPECT_EQ(resp.logits[i * resp.classes + j], m.golden[i][j])
            << "sample " << i << " logit " << j;
      }
    }
    EXPECT_EQ(metric(count), 2.0);
    EXPECT_GE(metric("apnn_model_max_batch{model=\"frames\"}"), 2.0);
    EXPECT_EQ(metric("apnn_model_requests_total{model=\"frames\"}"), 9.0);
  }
  std::remove(m.path.c_str());
}

// --- protocol v2: variable-length sequences over the wire --------------------

class BucketedGatewayEndToEnd : public ::testing::Test {
 protected:
  void SetUp() override {
    // One bucketed transformer next to one shape-static conv model, so the
    // tests can probe both sides of the seq_len admission rules.
    attn_spec_ = tiny_transformer();
    attn_net_ = std::make_unique<ApnnNetwork>(
        ApnnNetwork::random(attn_spec_, 1, 2, 33));
    Rng rng(34);
    Tensor<std::int32_t> calib(
        {2, attn_spec_.input.h, attn_spec_.input.w, attn_spec_.input.c});
    calib.randomize(rng, 0, 255);
    attn_net_->calibrate(calib);
    attn_path_ = "test_gateway_attn.apnn";
    ASSERT_TRUE(save_network(*attn_net_, attn_path_));
    // The session borrows the network, so the fixture must outlive it.
    golden_ = std::make_unique<InferenceSession>(*attn_net_, dev());

    mini_ = make_served("mini", mini_resnet(4, 8, 10), 44);
    registry_ = std::make_unique<gw::ModelRegistry>(dev(), 2);
    gw::ModelConfig attn_cfg;
    attn_cfg.id = "attn";
    attn_cfg.path = attn_path_;
    attn_cfg.max_batch = 4;
    attn_cfg.batch_window_us = 100;
    registry_->load(attn_cfg);
    registry_->load(config_for(mini_));
    gateway_ = std::make_unique<gw::Gateway>(*registry_);
  }
  void TearDown() override {
    gateway_.reset();
    registry_.reset();
    golden_.reset();
    attn_net_.reset();
    std::remove(attn_path_.c_str());
    std::remove(mini_.path.c_str());
  }

  ModelSpec attn_spec_;
  std::unique_ptr<ApnnNetwork> attn_net_;
  std::string attn_path_;
  std::unique_ptr<InferenceSession> golden_;
  ServedModel mini_;
  std::unique_ptr<gw::ModelRegistry> registry_;
  std::unique_ptr<gw::Gateway> gateway_;
};

TEST_F(BucketedGatewayEndToEnd, VariableSeqInferBitExact) {
  // seq_len-declared samples of assorted lengths — on-bucket, off-bucket,
  // and the exact calibration shape — all route through the bucketed pool
  // and match a local session on the same tokens.
  wire::Client client(gateway_->port());
  Rng rng(55);
  for (const std::int64_t seq :
       {std::int64_t{20}, std::int64_t{32}, std::int64_t{64},
        std::int64_t{100}, std::int64_t{512}}) {
    Tensor<std::int32_t> tokens({seq, std::int64_t{1}, attn_spec_.input.c});
    tokens.randomize(rng, 0, 255);
    Tensor<std::int32_t> local({1, seq, std::int64_t{1},
                                attn_spec_.input.c});
    for (std::int64_t i = 0; i < tokens.numel(); ++i) local[i] = tokens[i];
    expect_bit_exact(client.infer("attn", tokens, 0, /*variable_seq=*/true),
                     golden_->run(local));
  }
}

TEST_F(BucketedGatewayEndToEnd, SeqLenOnStaticModelRejected) {
  // Declaring seq_len against a shape-static model is a protocol misuse,
  // not a bad sample: the wire answer is MALFORMED_FRAME.
  wire::Client client(gateway_->port());
  try {
    client.infer("mini", mini_.samples[0], 0, /*variable_seq=*/true);
    FAIL() << "seq_len on a static model must fail";
  } catch (const wire::RemoteError& e) {
    EXPECT_EQ(e.code(), wire::WireError::kMalformedFrame);
  }
  // The connection survives and plain inference still works.
  expect_bit_exact(client.infer("mini", mini_.samples[0]), mini_.golden[0]);
}

TEST_F(BucketedGatewayEndToEnd, UndeclaredShortSampleRejected) {
  // Without a seq_len declaration even a bucketed model demands the exact
  // calibration shape — a v1-style client cannot pad wrong silently.
  wire::Client client(gateway_->port());
  Rng rng(66);
  Tensor<std::int32_t> short_sample(
      {std::int64_t{20}, std::int64_t{1}, attn_spec_.input.c});
  short_sample.randomize(rng, 0, 255);
  try {
    client.infer("attn", short_sample);
    FAIL() << "undeclared short sample must fail";
  } catch (const wire::RemoteError& e) {
    EXPECT_EQ(e.code(), wire::WireError::kMalformedFrame);
  }
  // Over-long sequences are bad samples, not framing errors: they clear the
  // wire checks and die in the server's bucket admission.
  Tensor<std::int32_t> too_long(
      {std::int64_t{513}, std::int64_t{1}, attn_spec_.input.c});
  too_long.randomize(rng, 0, 255);
  try {
    client.infer("attn", too_long, 0, /*variable_seq=*/true);
    FAIL() << "seq beyond the largest bucket must fail";
  } catch (const wire::RemoteError& e) {
    EXPECT_EQ(e.code(), wire::WireError::kInvalidSample);
  }
}

}  // namespace
}  // namespace apnn::nn

