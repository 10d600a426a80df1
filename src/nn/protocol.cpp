#include "src/nn/protocol.hpp"

#include <cstring>

#include "src/common/strings.hpp"

namespace apnn::nn::wire {

namespace {

/// One row of the error-code table: the single source of truth for the
/// WireError <-> ErrorKind mapping, wire_error_name(), and the generated
/// PROTOCOL.md table. Append rows; never renumber.
struct ErrorRow {
  WireError code;
  const char* name;
  const char* mirrors;  ///< ErrorKind enumerator name, or nullptr
  const char* meaning;
};

constexpr ErrorRow kErrorRows[] = {
    {WireError::kDeadlineExceeded, "DEADLINE_EXCEEDED", "kDeadlineExceeded",
     "the request's deadline passed before a replica dispatched it"},
    {WireError::kQueueFull, "QUEUE_FULL", "kQueueFull",
     "admission control rejected the request (queue at capacity)"},
    {WireError::kShuttingDown, "SHUTTING_DOWN", "kShuttingDown",
     "the model's server (or the gateway) is draining for shutdown"},
    {WireError::kInvalidSample, "INVALID_SAMPLE", "kInvalidSample",
     "sample failed admission validation (wrong dims, or a code outside "
     "[0, 255])"},
    {WireError::kReplicaFailed, "REPLICA_FAILED", "kReplicaFailed",
     "the dispatcher replica holding the request died"},
    {WireError::kUnknownModel, "UNKNOWN_MODEL", nullptr,
     "no model is registered under the requested id"},
    {WireError::kMalformedFrame, "MALFORMED_FRAME", nullptr,
     "frame header or payload failed to parse; the connection is closed"},
    {WireError::kUnsupportedVersion, "UNSUPPORTED_VERSION", nullptr,
     "frame version differs from the gateway's protocol version"},
    {WireError::kFrameTooLarge, "FRAME_TOO_LARGE", nullptr,
     "payload length exceeds the gateway's frame bound"},
    {WireError::kUnsupportedType, "UNSUPPORTED_TYPE", nullptr,
     "unknown message type, or a response type sent as a request"},
    {WireError::kModelLoadFailed, "MODEL_LOAD_FAILED", nullptr,
     "load/reload could not read, parse, or compile the network file"},
    {WireError::kInternal, "INTERNAL", nullptr,
     "unexpected gateway-side failure (bug; see the gateway log)"},
};

// Every ErrorKind must have a mirror row; adding a kind without extending
// kErrorRows (and PROTOCOL.md via the docs lint) fails here.
static_assert(kErrorKindCount == 5,
              "ErrorKind grew: add the mirror row to kErrorRows, bump the "
              "mapping in wire_error_for, and regenerate the PROTOCOL.md "
              "error table");

}  // namespace

const char* wire_error_name(WireError e) {
  for (const ErrorRow& r : kErrorRows) {
    if (r.code == e) return r.name;
  }
  return "UNKNOWN";
}

WireError wire_error_for(ErrorKind kind) {
  // Wire value = ErrorKind value + 1 by construction (0 is reserved).
  return static_cast<WireError>(static_cast<std::uint16_t>(kind) + 1);
}

std::string error_table_markdown() {
  std::string out;
  out += "| code | name | mirrors `ErrorKind` | meaning |\n";
  out += "|-----:|------|---------------------|---------|\n";
  for (const ErrorRow& r : kErrorRows) {
    const std::string mirrors =
        r.mirrors != nullptr ? strf("`%s`", r.mirrors) : std::string("—");
    out += strf("| %u | `%s` | %s | %s |\n", static_cast<unsigned>(r.code),
                r.name, mirrors.c_str(), r.meaning);
  }
  return out;
}

// --- little-endian primitives -----------------------------------------------

void put_u8(std::vector<std::uint8_t>& b, std::uint8_t v) { b.push_back(v); }

void put_u16(std::vector<std::uint8_t>& b, std::uint16_t v) {
  b.push_back(static_cast<std::uint8_t>(v & 0xff));
  b.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<std::uint8_t>& b, std::uint32_t v) {
  b.push_back(static_cast<std::uint8_t>(v & 0xff));
  b.push_back(static_cast<std::uint8_t>((v >> 8) & 0xff));
  b.push_back(static_cast<std::uint8_t>((v >> 16) & 0xff));
  b.push_back(static_cast<std::uint8_t>(v >> 24));
}

void put_i32(std::vector<std::uint8_t>& b, std::int32_t v) {
  put_u32(b, static_cast<std::uint32_t>(v));
}

void put_str(std::vector<std::uint8_t>& b, const std::string& s) {
  APNN_CHECK(s.size() <= 0xffff) << "wire string too long";
  put_u16(b, static_cast<std::uint16_t>(s.size()));
  b.insert(b.end(), s.begin(), s.end());
}

std::uint8_t Reader::u8() {
  if (pos_ + 1 > size_) {
    throw WireFormatError(WireError::kMalformedFrame, "payload truncated");
  }
  return data_[pos_++];
}

std::uint16_t Reader::u16() {
  if (pos_ + 2 > size_) {
    throw WireFormatError(WireError::kMalformedFrame, "payload truncated");
  }
  const std::uint16_t v = static_cast<std::uint16_t>(
      data_[pos_] | (static_cast<std::uint16_t>(data_[pos_ + 1]) << 8));
  pos_ += 2;
  return v;
}

std::uint32_t Reader::u32() {
  if (pos_ + 4 > size_) {
    throw WireFormatError(WireError::kMalformedFrame, "payload truncated");
  }
  const std::uint32_t v =
      static_cast<std::uint32_t>(data_[pos_]) |
      (static_cast<std::uint32_t>(data_[pos_ + 1]) << 8) |
      (static_cast<std::uint32_t>(data_[pos_ + 2]) << 16) |
      (static_cast<std::uint32_t>(data_[pos_ + 3]) << 24);
  pos_ += 4;
  return v;
}

std::int32_t Reader::i32() { return static_cast<std::int32_t>(u32()); }

std::string Reader::str() {
  const std::uint16_t n = u16();
  const std::uint8_t* p = bytes(n);
  return std::string(reinterpret_cast<const char*>(p), n);
}

const std::uint8_t* Reader::bytes(std::size_t n) {
  if (pos_ + n > size_) {
    throw WireFormatError(WireError::kMalformedFrame, "payload truncated");
  }
  const std::uint8_t* p = data_ + pos_;
  pos_ += n;
  return p;
}

void Reader::expect_end() const {
  if (pos_ != size_) {
    throw WireFormatError(
        WireError::kMalformedFrame,
        strf("%zu trailing bytes after the last payload field", size_ - pos_));
  }
}

// --- frames -----------------------------------------------------------------

std::vector<std::uint8_t> encode_frame(MsgType type,
                                       std::vector<std::uint8_t> payload) {
  std::vector<std::uint8_t> out;
  out.reserve(kHeaderBytes + payload.size());
  for (const unsigned char c : kMagic) out.push_back(c);
  out.push_back(kProtocolVersion);
  out.push_back(static_cast<std::uint8_t>(type));
  put_u16(out, 0);  // reserved
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

std::size_t decode_header(const std::uint8_t header[kHeaderBytes],
                          MsgType* type, std::size_t max_payload_bytes) {
  if (std::memcmp(header, kMagic, 4) != 0) {
    throw WireFormatError(WireError::kMalformedFrame,
                          "bad frame magic (expected \"APGW\")");
  }
  const std::uint8_t version = header[4];
  if (version != kProtocolVersion) {
    throw WireFormatError(
        WireError::kUnsupportedVersion,
        strf("frame version %u; this gateway speaks version %u",
             version, kProtocolVersion));
  }
  if (header[6] != 0 || header[7] != 0) {
    throw WireFormatError(WireError::kMalformedFrame,
                          "reserved header bytes must be 0");
  }
  const std::size_t payload_len =
      static_cast<std::size_t>(header[8]) |
      (static_cast<std::size_t>(header[9]) << 8) |
      (static_cast<std::size_t>(header[10]) << 16) |
      (static_cast<std::size_t>(header[11]) << 24);
  if (payload_len > max_payload_bytes) {
    throw WireFormatError(
        WireError::kFrameTooLarge,
        strf("payload of %zu bytes exceeds the %zu-byte frame bound",
             payload_len, max_payload_bytes));
  }
  *type = static_cast<MsgType>(header[5]);
  return payload_len;
}

bool read_frame(net::Socket& sock, Frame* out, std::size_t max_payload_bytes) {
  std::uint8_t header[kHeaderBytes];
  if (!sock.read_exact(header, kHeaderBytes)) return false;
  MsgType type;
  const std::size_t payload_len =
      decode_header(header, &type, max_payload_bytes);
  out->type = type;
  out->payload.resize(payload_len);
  if (payload_len > 0 && !sock.read_exact(out->payload.data(), payload_len)) {
    throw Error("connection closed between frame header and payload");
  }
  return true;
}

void write_frame(net::Socket& sock, MsgType type,
                 std::vector<std::uint8_t> payload) {
  const std::vector<std::uint8_t> frame =
      encode_frame(type, std::move(payload));
  sock.write_all(frame.data(), frame.size());
}

// --- payloads ---------------------------------------------------------------

std::vector<std::uint8_t> encode_infer_request(const InferRequest& req) {
  APNN_CHECK(req.count >= 1 && req.count <= kMaxFrameSamples)
      << "frame sample count " << req.count;
  const std::size_t expect = static_cast<std::size_t>(req.count) * req.h *
                             req.w * req.c;
  APNN_CHECK(req.samples.size() == expect)
      << "sample bytes " << req.samples.size() << " != count*h*w*c "
      << expect;
  std::vector<std::uint8_t> b;
  b.reserve(16 + req.model.size() + req.samples.size());
  APNN_CHECK(req.seq_len == 0 || req.seq_len == req.h)
      << "seq_len " << req.seq_len << " != sample token count " << req.h;
  put_str(b, req.model);
  put_u32(b, req.deadline_ms);
  put_u16(b, req.count);
  put_u16(b, req.h);
  put_u16(b, req.w);
  put_u16(b, req.c);
  put_u16(b, req.seq_len);
  b.insert(b.end(), req.samples.begin(), req.samples.end());
  return b;
}

InferRequest decode_infer_request(const std::vector<std::uint8_t>& payload) {
  Reader r(payload);
  InferRequest req;
  req.model = r.str();
  req.deadline_ms = r.u32();
  req.count = r.u16();
  req.h = r.u16();
  req.w = r.u16();
  req.c = r.u16();
  req.seq_len = r.u16();
  if (req.seq_len != 0 && req.seq_len != req.h) {
    throw WireFormatError(
        WireError::kMalformedFrame,
        strf("seq_len %u does not match the sample token count %u",
             req.seq_len, req.h));
  }
  if (req.count < 1 || req.count > kMaxFrameSamples) {
    throw WireFormatError(
        WireError::kMalformedFrame,
        strf("sample count %u outside [1, %u]", req.count, kMaxFrameSamples));
  }
  if (req.h == 0 || req.w == 0 || req.c == 0) {
    throw WireFormatError(WireError::kMalformedFrame,
                          "zero sample dimension");
  }
  const std::size_t n =
      static_cast<std::size_t>(req.count) * req.h * req.w * req.c;
  const std::uint8_t* p = r.bytes(n);
  req.samples.assign(p, p + n);
  r.expect_end();
  return req;
}

std::vector<std::uint8_t> encode_infer_response(const InferResponse& resp) {
  APNN_CHECK(resp.logits.size() ==
             static_cast<std::size_t>(resp.count) * resp.classes)
      << "logit count mismatch";
  std::vector<std::uint8_t> b;
  b.reserve(8 + resp.logits.size() * 4);
  put_u16(b, resp.count);
  put_u32(b, resp.classes);
  for (const std::int32_t v : resp.logits) put_i32(b, v);
  return b;
}

InferResponse decode_infer_response(const std::vector<std::uint8_t>& payload) {
  Reader r(payload);
  InferResponse resp;
  resp.count = r.u16();
  resp.classes = r.u32();
  const std::size_t n =
      static_cast<std::size_t>(resp.count) * resp.classes;
  if (n > (64u << 20)) {
    throw WireFormatError(WireError::kMalformedFrame,
                          "implausible logit count");
  }
  resp.logits.reserve(n);
  for (std::size_t i = 0; i < n; ++i) resp.logits.push_back(r.i32());
  r.expect_end();
  return resp;
}

std::vector<std::uint8_t> encode_error_response(const ErrorResponse& resp) {
  std::vector<std::uint8_t> b;
  put_u16(b, static_cast<std::uint16_t>(resp.code));
  put_str(b, resp.message);
  return b;
}

ErrorResponse decode_error_response(const std::vector<std::uint8_t>& payload) {
  Reader r(payload);
  ErrorResponse resp;
  resp.code = static_cast<WireError>(r.u16());
  resp.message = r.str();
  r.expect_end();
  return resp;
}

std::vector<std::uint8_t> encode_list_response(
    const std::vector<ModelDescriptor>& models) {
  APNN_CHECK(models.size() <= 0xffff) << "model count";
  std::vector<std::uint8_t> b;
  put_u16(b, static_cast<std::uint16_t>(models.size()));
  for (const ModelDescriptor& m : models) {
    put_str(b, m.id);
    put_u16(b, m.h);
    put_u16(b, m.w);
    put_u16(b, m.c);
    put_u32(b, m.classes);
    put_u32(b, m.generation);
  }
  return b;
}

std::vector<ModelDescriptor> decode_list_response(
    const std::vector<std::uint8_t>& payload) {
  Reader r(payload);
  const std::uint16_t n = r.u16();
  std::vector<ModelDescriptor> models;
  models.reserve(n);
  for (std::uint16_t i = 0; i < n; ++i) {
    ModelDescriptor m;
    m.id = r.str();
    m.h = r.u16();
    m.w = r.u16();
    m.c = r.u16();
    m.classes = r.u32();
    m.generation = r.u32();
    models.push_back(std::move(m));
  }
  r.expect_end();
  return models;
}

// --- reference client -------------------------------------------------------

std::vector<std::uint8_t> pack_sample_u8(const Tensor<std::int32_t>& sample) {
  std::vector<std::uint8_t> bytes;
  bytes.reserve(static_cast<std::size_t>(sample.numel()));
  for (std::int64_t i = 0; i < sample.numel(); ++i) {
    const std::int32_t v = sample[i];
    APNN_CHECK(v >= 0 && v <= 255)
        << "sample value " << v << " at " << i << " is not an 8-bit code";
    bytes.push_back(static_cast<std::uint8_t>(v));
  }
  return bytes;
}

Client::Client(int port) : sock_(net::connect_loopback(port)) {}

Frame Client::round_trip(MsgType type, std::vector<std::uint8_t> payload,
                         MsgType expect) {
  write_frame(sock_, type, std::move(payload));
  Frame reply;
  if (!read_frame(sock_, &reply, kDefaultMaxFrameBytes)) {
    throw Error("gateway closed the connection without replying");
  }
  if (reply.type == MsgType::kError) {
    const ErrorResponse err = decode_error_response(reply.payload);
    throw RemoteError(err.code, strf("[%s] %s", wire_error_name(err.code),
                                     err.message.c_str()));
  }
  if (reply.type != expect) {
    throw WireFormatError(
        WireError::kUnsupportedType,
        strf("expected reply type %u, got %u", static_cast<unsigned>(expect),
             static_cast<unsigned>(reply.type)));
  }
  return reply;
}

Tensor<std::int32_t> Client::infer(const std::string& model,
                                   const Tensor<std::int32_t>& sample_u8,
                                   std::uint32_t deadline_ms,
                                   bool variable_seq) {
  const int rank = sample_u8.rank();
  APNN_CHECK(rank == 3 || (rank == 4 && sample_u8.dim(0) == 1))
      << "sample must be {H, W, C} or {1, H, W, C}";
  const int base = rank == 4 ? 1 : 0;
  InferRequest req;
  req.model = model;
  req.deadline_ms = deadline_ms;
  req.count = 1;
  req.h = static_cast<std::uint16_t>(sample_u8.dim(base + 0));
  req.w = static_cast<std::uint16_t>(sample_u8.dim(base + 1));
  req.c = static_cast<std::uint16_t>(sample_u8.dim(base + 2));
  if (variable_seq) req.seq_len = req.h;
  req.samples = pack_sample_u8(sample_u8);
  const InferResponse resp = infer_batch(req);
  Tensor<std::int32_t> logits({static_cast<std::int64_t>(resp.classes)});
  for (std::uint32_t i = 0; i < resp.classes; ++i) {
    logits[i] = resp.logits[i];
  }
  return logits;
}

InferResponse Client::infer_batch(const InferRequest& req) {
  const Frame reply =
      round_trip(MsgType::kInfer, encode_infer_request(req), MsgType::kInferOk);
  const InferResponse resp = decode_infer_response(reply.payload);
  if (resp.count != req.count) {
    throw WireFormatError(
        WireError::kMalformedFrame,
        strf("response carries %u samples for a %u-sample request",
             resp.count, req.count));
  }
  return resp;
}

std::vector<ModelDescriptor> Client::list() {
  const Frame reply = round_trip(MsgType::kList, {}, MsgType::kListOk);
  return decode_list_response(reply.payload);
}

std::string Client::stats() {
  const Frame reply = round_trip(MsgType::kStats, {}, MsgType::kStatsOk);
  return std::string(reply.payload.begin(), reply.payload.end());
}

void Client::load(const std::string& id, const std::string& path) {
  std::vector<std::uint8_t> b;
  put_str(b, id);
  put_str(b, path);
  round_trip(MsgType::kLoad, std::move(b), MsgType::kAdminOk);
}

void Client::unload(const std::string& id) {
  std::vector<std::uint8_t> b;
  put_str(b, id);
  round_trip(MsgType::kUnload, std::move(b), MsgType::kAdminOk);
}

void Client::reload(const std::string& id) {
  std::vector<std::uint8_t> b;
  put_str(b, id);
  round_trip(MsgType::kReload, std::move(b), MsgType::kAdminOk);
}

void Client::ping() { round_trip(MsgType::kPing, {}, MsgType::kPong); }

}  // namespace apnn::nn::wire
