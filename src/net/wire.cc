#include "net/wire.h"

#include <utility>

#include "graph/serialize.h"
#include "util/binary.h"
#include "util/strings.h"

namespace graphsig::net::wire {

namespace {

// Decoders reject payloads with trailing garbage: a well-formed message
// consumes its payload exactly, and accepting extra bytes would let two
// different byte strings decode to the same value (breaking the
// re-encode round-trip the fuzzer pins).
util::Status ExpectExhausted(const util::ByteReader& reader) {
  if (!reader.exhausted()) {
    return util::Status::ParseError(util::StrPrintf(
        "%s: %zu trailing bytes after message", reader.section().c_str(),
        reader.remaining()));
  }
  return util::Status::Ok();
}

void EncodeOptions(const QueryOptions& options, util::ByteWriter* w) {
  uint8_t flags = 0;
  if (options.compute_matches) flags |= 1;
  if (options.compute_score) flags |= 2;
  w->WriteU8(flags);
}

util::Result<QueryOptions> DecodeOptions(util::ByteReader* reader) {
  uint8_t flags = 0;
  GS_RETURN_IF_ERROR(reader->ReadU8(&flags));
  if (flags & ~uint8_t{3}) {
    return util::Status::ParseError(
        util::StrPrintf("unknown query option bits 0x%02x", flags));
  }
  QueryOptions options;
  options.compute_matches = (flags & 1) != 0;
  options.compute_score = (flags & 2) != 0;
  return options;
}

}  // namespace

const char* MessageTypeName(MessageType type) {
  switch (type) {
    case MessageType::kQuery:
      return "Query";
    case MessageType::kStats:
      return "Stats";
    case MessageType::kHealth:
      return "Health";
    case MessageType::kApproxQuery:
      return "ApproxQuery";
    case MessageType::kQueryReply:
      return "QueryReply";
    case MessageType::kStatsReply:
      return "StatsReply";
    case MessageType::kHealthReply:
      return "HealthReply";
    case MessageType::kApproxReply:
      return "ApproxReply";
    case MessageType::kError:
      return "Error";
    case MessageType::kRetryLater:
      return "RetryLater";
  }
  return "Unknown";
}

namespace {

bool IsKnownType(uint8_t raw) {
  switch (static_cast<MessageType>(raw)) {
    case MessageType::kQuery:
    case MessageType::kStats:
    case MessageType::kHealth:
    case MessageType::kApproxQuery:
    case MessageType::kQueryReply:
    case MessageType::kStatsReply:
    case MessageType::kHealthReply:
    case MessageType::kApproxReply:
    case MessageType::kError:
    case MessageType::kRetryLater:
      return true;
  }
  return false;
}

}  // namespace

std::string EncodeFrame(MessageType type, std::string_view payload) {
  util::ByteWriter w;
  w.WriteU32(kMagic);
  w.WriteU8(kWireVersion);
  w.WriteU8(static_cast<uint8_t>(type));
  w.WriteU16(0);  // reserved
  w.WriteU32(static_cast<uint32_t>(payload.size()));
  w.WriteU32(util::Crc32(payload));
  w.WriteBytes(payload);
  return std::move(w.TakeBuffer());
}

util::Result<std::optional<Frame>> FrameDecoder::Next() {
  // Drop the consumed prefix lazily, once it dominates the buffer, so a
  // pipelined burst of small frames is not O(n^2) in memmoves.
  if (consumed_ > 0 && consumed_ * 2 >= buffer_.size()) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  const std::string_view pending =
      std::string_view(buffer_).substr(consumed_);
  if (pending.size() < kFrameHeaderBytes) return std::optional<Frame>();

  util::ByteReader reader(pending, "frame header");
  uint32_t magic = 0;
  uint8_t version = 0;
  uint8_t raw_type = 0;
  uint16_t reserved = 0;
  uint32_t payload_size = 0;
  uint32_t payload_crc = 0;
  GS_RETURN_IF_ERROR(reader.ReadU32(&magic));
  GS_RETURN_IF_ERROR(reader.ReadU8(&version));
  GS_RETURN_IF_ERROR(reader.ReadU8(&raw_type));
  GS_RETURN_IF_ERROR(reader.ReadU16(&reserved));
  GS_RETURN_IF_ERROR(reader.ReadU32(&payload_size));
  GS_RETURN_IF_ERROR(reader.ReadU32(&payload_crc));
  if (magic != kMagic) {
    return util::Status::ParseError(
        util::StrPrintf("bad frame magic 0x%08x", magic));
  }
  if (version != kWireVersion) {
    return util::Status::FailedPrecondition(util::StrPrintf(
        "frame version %u, this build speaks only %u", version,
        kWireVersion));
  }
  if (reserved != 0) {
    return util::Status::ParseError(util::StrPrintf(
        "reserved frame header bits set: 0x%04x", reserved));
  }
  if (!IsKnownType(raw_type)) {
    return util::Status::ParseError(
        util::StrPrintf("unknown message type %u", raw_type));
  }
  if (payload_size > max_payload_bytes_) {
    return util::Status::OutOfRange(util::StrPrintf(
        "frame payload of %u bytes exceeds limit %zu", payload_size,
        max_payload_bytes_));
  }
  if (pending.size() - kFrameHeaderBytes < payload_size) {
    return std::optional<Frame>();  // wait for the rest of the payload
  }
  Frame frame;
  frame.type = static_cast<MessageType>(raw_type);
  frame.payload.assign(pending.substr(kFrameHeaderBytes, payload_size));
  if (util::Crc32(frame.payload) != payload_crc) {
    return util::Status::ParseError(util::StrPrintf(
        "frame payload CRC mismatch (%s, %u bytes)",
        MessageTypeName(frame.type), payload_size));
  }
  consumed_ += kFrameHeaderBytes + payload_size;
  return std::optional<Frame>(std::move(frame));
}

std::string EncodeQueryRequest(const QueryRequest& request) {
  util::ByteWriter w;
  EncodeOptions(request.options, &w);
  graph::EncodeGraph(request.query, &w);
  return std::move(w.TakeBuffer());
}

util::Result<QueryRequest> DecodeQueryRequest(std::string_view payload) {
  util::ByteReader reader(payload, "query request");
  QueryRequest request;
  GS_ASSIGN_OR_RETURN(request.options, DecodeOptions(&reader));
  GS_ASSIGN_OR_RETURN(request.query, graph::DecodeGraph(&reader));
  GS_RETURN_IF_ERROR(ExpectExhausted(reader));
  return request;
}

std::string EncodeQueryReply(const QueryReply& reply) {
  util::ByteWriter w;
  w.WriteU32(static_cast<uint32_t>(reply.matched_patterns.size()));
  for (int32_t id : reply.matched_patterns) w.WriteI32(id);
  w.WriteU8(reply.has_score ? 1 : 0);
  w.WriteF64(reply.score);
  w.WriteI32(reply.iso_calls);
  w.WriteI32(reply.pruned);
  return std::move(w.TakeBuffer());
}

util::Result<QueryReply> DecodeQueryReply(std::string_view payload) {
  util::ByteReader reader(payload, "query reply");
  QueryReply reply;
  uint32_t num_matches = 0;
  GS_RETURN_IF_ERROR(reader.ReadU32(&num_matches));
  // Each id costs 4 payload bytes, so a count the buffer cannot back is
  // rejected before any allocation.
  if (num_matches > reader.remaining() / 4) {
    return util::Status::ParseError(util::StrPrintf(
        "match count %u exceeds remaining payload", num_matches));
  }
  reply.matched_patterns.resize(num_matches);
  for (uint32_t i = 0; i < num_matches; ++i) {
    GS_RETURN_IF_ERROR(reader.ReadI32(&reply.matched_patterns[i]));
  }
  uint8_t has_score = 0;
  GS_RETURN_IF_ERROR(reader.ReadU8(&has_score));
  if (has_score > 1) {
    return util::Status::ParseError("has_score flag must be 0 or 1");
  }
  reply.has_score = has_score != 0;
  GS_RETURN_IF_ERROR(reader.ReadF64(&reply.score));
  GS_RETURN_IF_ERROR(reader.ReadI32(&reply.iso_calls));
  GS_RETURN_IF_ERROR(reader.ReadI32(&reply.pruned));
  GS_RETURN_IF_ERROR(ExpectExhausted(reader));
  return reply;
}

std::string EncodeStatsReply(const StatsReply& reply) {
  util::ByteWriter w;
  w.WriteI64(reply.serving.queries);
  w.WriteF64(reply.serving.total_latency_ms);
  w.WriteF64(reply.serving.max_latency_ms);
  w.WriteI64(reply.serving.iso_calls);
  w.WriteI64(reply.serving.pruned);
  w.WriteI64(reply.serving.pattern_matches);
  w.WriteU64(reply.connections_accepted);
  w.WriteU64(reply.connections_active);
  w.WriteU64(reply.frames_received);
  w.WriteU64(reply.requests_served);
  w.WriteU64(reply.protocol_errors);
  w.WriteU64(reply.retries_sent);
  w.WriteU32(static_cast<uint32_t>(reply.work_counters.size()));
  for (const auto& [name, value] : reply.work_counters) {
    w.WriteString(name);
    w.WriteU64(value);
  }
  w.WriteU64(reply.generation);
  return std::move(w.TakeBuffer());
}

util::Result<StatsReply> DecodeStatsReply(std::string_view payload) {
  util::ByteReader reader(payload, "stats reply");
  StatsReply reply;
  GS_RETURN_IF_ERROR(reader.ReadI64(&reply.serving.queries));
  GS_RETURN_IF_ERROR(reader.ReadF64(&reply.serving.total_latency_ms));
  GS_RETURN_IF_ERROR(reader.ReadF64(&reply.serving.max_latency_ms));
  GS_RETURN_IF_ERROR(reader.ReadI64(&reply.serving.iso_calls));
  GS_RETURN_IF_ERROR(reader.ReadI64(&reply.serving.pruned));
  GS_RETURN_IF_ERROR(reader.ReadI64(&reply.serving.pattern_matches));
  GS_RETURN_IF_ERROR(reader.ReadU64(&reply.connections_accepted));
  GS_RETURN_IF_ERROR(reader.ReadU64(&reply.connections_active));
  GS_RETURN_IF_ERROR(reader.ReadU64(&reply.frames_received));
  GS_RETURN_IF_ERROR(reader.ReadU64(&reply.requests_served));
  GS_RETURN_IF_ERROR(reader.ReadU64(&reply.protocol_errors));
  GS_RETURN_IF_ERROR(reader.ReadU64(&reply.retries_sent));
  uint32_t count = 0;
  GS_RETURN_IF_ERROR(reader.ReadU32(&count));
  // Each entry costs at least 12 bytes (u32 name length + u64 value), so
  // a count the buffer cannot back is rejected before any allocation.
  if (count > reader.remaining() / 12) {
    return util::Status::ParseError(util::StrPrintf(
        "work counter count %u exceeds remaining payload", count));
  }
  reply.work_counters.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    std::string name;
    uint64_t value = 0;
    GS_RETURN_IF_ERROR(reader.ReadString(&name));
    GS_RETURN_IF_ERROR(reader.ReadU64(&value));
    reply.work_counters.emplace_back(std::move(name), value);
  }
  GS_RETURN_IF_ERROR(reader.ReadU64(&reply.generation));
  GS_RETURN_IF_ERROR(ExpectExhausted(reader));
  return reply;
}

std::string EncodeHealthReply(const HealthReply& reply) {
  util::ByteWriter w;
  w.WriteU8(reply.ok ? 1 : 0);
  w.WriteU8(reply.draining ? 1 : 0);
  w.WriteU64(reply.num_patterns);
  w.WriteU8(reply.has_classifier ? 1 : 0);
  return std::move(w.TakeBuffer());
}

util::Result<HealthReply> DecodeHealthReply(std::string_view payload) {
  util::ByteReader reader(payload, "health reply");
  HealthReply reply;
  uint8_t ok = 0, draining = 0, has_classifier = 0;
  GS_RETURN_IF_ERROR(reader.ReadU8(&ok));
  GS_RETURN_IF_ERROR(reader.ReadU8(&draining));
  GS_RETURN_IF_ERROR(reader.ReadU64(&reply.num_patterns));
  GS_RETURN_IF_ERROR(reader.ReadU8(&has_classifier));
  if (ok > 1 || draining > 1 || has_classifier > 1) {
    return util::Status::ParseError("health flags must be 0 or 1");
  }
  reply.ok = ok != 0;
  reply.draining = draining != 0;
  reply.has_classifier = has_classifier != 0;
  GS_RETURN_IF_ERROR(ExpectExhausted(reader));
  return reply;
}

std::string EncodeApproxRequest(const ApproxRequest& request) {
  util::ByteWriter w;
  w.WriteU8(request.mode);
  w.WriteU64(request.seed);
  w.WriteU32(request.samples);
  w.WriteF64(request.confidence);
  graph::EncodeGraph(request.pattern, &w);
  return std::move(w.TakeBuffer());
}

util::Result<ApproxRequest> DecodeApproxRequest(std::string_view payload) {
  util::ByteReader reader(payload, "approx request");
  ApproxRequest request;
  GS_RETURN_IF_ERROR(reader.ReadU8(&request.mode));
  if (request.mode > 1) {
    return util::Status::ParseError(util::StrPrintf(
        "unknown approx estimator mode %u", request.mode));
  }
  GS_RETURN_IF_ERROR(reader.ReadU64(&request.seed));
  GS_RETURN_IF_ERROR(reader.ReadU32(&request.samples));
  if (request.samples == 0) {
    return util::Status::ParseError("approx sample count must be >= 1");
  }
  GS_RETURN_IF_ERROR(reader.ReadF64(&request.confidence));
  // The negated comparison also rejects NaN, which would otherwise
  // survive decode and break the request's value round trip.
  if (!(request.confidence > 0.0 && request.confidence < 1.0)) {
    return util::Status::ParseError(
        "approx confidence must be strictly inside (0, 1)");
  }
  GS_ASSIGN_OR_RETURN(request.pattern, graph::DecodeGraph(&reader));
  GS_RETURN_IF_ERROR(ExpectExhausted(reader));
  return request;
}

std::string EncodeApproxReply(const ApproxReply& reply) {
  util::ByteWriter w;
  w.WriteU8(reply.mode);
  w.WriteU32(reply.samples);
  w.WriteU64(reply.hits);
  w.WriteU64(reply.db_size);
  w.WriteF64(reply.estimate);
  w.WriteF64(reply.ci_lo);
  w.WriteF64(reply.ci_hi);
  w.WriteF64(reply.confidence);
  return std::move(w.TakeBuffer());
}

util::Result<ApproxReply> DecodeApproxReply(std::string_view payload) {
  util::ByteReader reader(payload, "approx reply");
  ApproxReply reply;
  GS_RETURN_IF_ERROR(reader.ReadU8(&reply.mode));
  if (reply.mode > 1) {
    return util::Status::ParseError(
        util::StrPrintf("unknown approx estimator mode %u", reply.mode));
  }
  GS_RETURN_IF_ERROR(reader.ReadU32(&reply.samples));
  GS_RETURN_IF_ERROR(reader.ReadU64(&reply.hits));
  if (reply.hits > reply.samples) {
    return util::Status::ParseError(util::StrPrintf(
        "approx reply hits %llu exceed sample count %u",
        static_cast<unsigned long long>(reply.hits), reply.samples));
  }
  GS_RETURN_IF_ERROR(reader.ReadU64(&reply.db_size));
  GS_RETURN_IF_ERROR(reader.ReadF64(&reply.estimate));
  GS_RETURN_IF_ERROR(reader.ReadF64(&reply.ci_lo));
  GS_RETURN_IF_ERROR(reader.ReadF64(&reply.ci_hi));
  GS_RETURN_IF_ERROR(reader.ReadF64(&reply.confidence));
  GS_RETURN_IF_ERROR(ExpectExhausted(reader));
  return reply;
}

std::string EncodeErrorReply(const ErrorReply& reply) {
  util::ByteWriter w;
  w.WriteU8(static_cast<uint8_t>(reply.code));
  w.WriteString(reply.message);
  return std::move(w.TakeBuffer());
}

util::Result<ErrorReply> DecodeErrorReply(std::string_view payload) {
  util::ByteReader reader(payload, "error reply");
  ErrorReply reply;
  uint8_t code = 0;
  GS_RETURN_IF_ERROR(reader.ReadU8(&code));
  if (code == 0 ||
      code > static_cast<uint8_t>(util::StatusCode::kDeadlineExceeded)) {
    return util::Status::ParseError(
        util::StrPrintf("error reply carries invalid status code %u", code));
  }
  reply.code = static_cast<util::StatusCode>(code);
  GS_RETURN_IF_ERROR(reader.ReadString(&reply.message));
  GS_RETURN_IF_ERROR(ExpectExhausted(reader));
  return reply;
}

QueryReply ReplyFromResult(const serve::QueryResult& result) {
  QueryReply reply;
  reply.matched_patterns = result.matched_patterns;
  reply.has_score = result.has_score;
  reply.score = result.score;
  reply.iso_calls = result.iso_calls;
  reply.pruned = result.pruned;
  return reply;
}

ApproxReply ReplyFromApprox(const serve::ApproxResult& result) {
  ApproxReply reply;
  reply.mode = static_cast<uint8_t>(result.mode);
  reply.samples = static_cast<uint32_t>(result.samples);
  reply.hits = static_cast<uint64_t>(result.hits);
  reply.db_size = result.db_size;
  reply.estimate = result.estimate;
  reply.ci_lo = result.ci.lo;
  reply.ci_hi = result.ci.hi;
  reply.confidence = result.ci.confidence;
  return reply;
}

}  // namespace graphsig::net::wire
