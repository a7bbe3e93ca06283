#include "net/client.h"

#include <utility>

#include "util/binary.h"
#include "util/strings.h"

namespace graphsig::net {

namespace {

// Frame headers are validated with the same FrameDecoder the server
// uses, so both sides enforce identical limits.
util::Result<wire::Frame> ParseOneFrame(wire::FrameDecoder* decoder) {
  auto next = decoder->Next();
  GS_RETURN_IF_ERROR(next.status());
  if (!next.value().has_value()) {
    return util::Status::Internal("frame decoder demanded more bytes "
                                  "after a full frame was read");
  }
  return std::move(*next.value());
}

}  // namespace

util::Status Client::Connect() {
  Close();
  GS_ASSIGN_OR_RETURN(
      socket_, ConnectTcp(config_.host, config_.port,
                          config_.connect_timeout_seconds));
  GS_RETURN_IF_ERROR(
      SetIoTimeout(socket_.fd(), config_.io_timeout_seconds));
  return util::Status::Ok();
}

util::Status Client::SendFrame(wire::MessageType type,
                               std::string_view payload) {
  if (!connected()) {
    return util::Status::FailedPrecondition("client is not connected");
  }
  return WriteAll(socket_.fd(), wire::EncodeFrame(type, payload));
}

util::Result<wire::Frame> Client::ReadFrame() {
  if (!connected()) {
    return util::Status::FailedPrecondition("client is not connected");
  }
  std::string header;
  GS_RETURN_IF_ERROR(
      ReadExact(socket_.fd(), wire::kFrameHeaderBytes, &header));
  wire::FrameDecoder decoder;
  decoder.Append(header);
  // The header alone never completes a frame unless the payload is
  // empty; probe once, then read the announced payload.
  auto probe = decoder.Next();
  GS_RETURN_IF_ERROR(probe.status());
  if (probe.value().has_value()) return std::move(*probe.value());
  // Header is valid (Next would have errored otherwise) but the payload
  // is pending; its size lives at offset 8.
  util::ByteReader size_reader(std::string_view(header).substr(8),
                               "frame size");
  uint32_t payload_size = 0;
  GS_RETURN_IF_ERROR(size_reader.ReadU32(&payload_size));
  std::string payload;
  GS_RETURN_IF_ERROR(ReadExact(socket_.fd(), payload_size, &payload));
  decoder.Append(payload);
  return ParseOneFrame(&decoder);
}

util::Result<wire::Frame> Client::RoundTrip(wire::MessageType type,
                                            const std::string& payload) {
  util::Status last = util::Status::Ok();
  for (int attempt = 0; attempt <= config_.max_reconnect_attempts;
       ++attempt) {
    if (!connected()) {
      const util::Status reconnected = Connect();
      if (!reconnected.ok()) {
        last = reconnected;
        continue;
      }
    }
    util::Status sent = SendFrame(type, payload);
    if (sent.ok()) {
      auto frame = ReadFrame();
      if (frame.ok()) return frame;
      last = frame.status();
    } else {
      last = sent;
    }
    // Timeouts and protocol violations are not cured by reconnecting
    // with the same request; only a broken connection is.
    if (last.code() != util::StatusCode::kIoError) return last;
    Close();
  }
  return last;
}

util::Result<wire::Frame> Client::ExpectType(wire::Frame frame,
                                             wire::MessageType expected) {
  if (frame.type == expected) return frame;
  if (frame.type == wire::MessageType::kRetryLater) {
    return util::Status::Unavailable(
        "server busy: admission queue full, retry later");
  }
  if (frame.type == wire::MessageType::kError) {
    auto error = wire::DecodeErrorReply(frame.payload);
    if (!error.ok()) return error.status();
    return error.value().ToStatus();
  }
  return util::Status::ParseError(util::StrPrintf(
      "expected %s reply, got %s", wire::MessageTypeName(expected),
      wire::MessageTypeName(frame.type)));
}

util::Result<wire::QueryReply> Client::Query(
    const graph::Graph& query, const wire::QueryOptions& options) {
  wire::QueryRequest request;
  request.options = options;
  request.query = query;
  GS_ASSIGN_OR_RETURN(
      wire::Frame raw,
      RoundTrip(wire::MessageType::kQuery,
                wire::EncodeQueryRequest(request)));
  GS_ASSIGN_OR_RETURN(
      wire::Frame frame,
      ExpectType(std::move(raw), wire::MessageType::kQueryReply));
  return wire::DecodeQueryReply(frame.payload);
}

util::Result<std::vector<wire::QueryReply>> Client::PipelineQueries(
    const std::vector<graph::Graph>& queries,
    const wire::QueryOptions& options) {
  if (!connected()) GS_RETURN_IF_ERROR(Connect());
  // Write every request first (no reconnect mid-pipeline: replies for
  // already-sent requests would be lost), then read replies in order.
  for (const graph::Graph& query : queries) {
    wire::QueryRequest request;
    request.options = options;
    request.query = query;
    util::Status sent = SendFrame(wire::MessageType::kQuery,
                                  wire::EncodeQueryRequest(request));
    if (!sent.ok()) {
      Close();
      return sent;
    }
  }
  std::vector<wire::QueryReply> replies;
  replies.reserve(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    auto raw = ReadFrame();
    if (!raw.ok()) {
      Close();
      return raw.status();
    }
    GS_ASSIGN_OR_RETURN(
        wire::Frame frame,
        ExpectType(std::move(raw).value(), wire::MessageType::kQueryReply));
    GS_ASSIGN_OR_RETURN(wire::QueryReply reply,
                        wire::DecodeQueryReply(frame.payload));
    replies.push_back(std::move(reply));
  }
  return replies;
}

util::Result<wire::ApproxReply> Client::Approx(
    const wire::ApproxRequest& request) {
  GS_ASSIGN_OR_RETURN(
      wire::Frame raw,
      RoundTrip(wire::MessageType::kApproxQuery,
                wire::EncodeApproxRequest(request)));
  GS_ASSIGN_OR_RETURN(
      wire::Frame frame,
      ExpectType(std::move(raw), wire::MessageType::kApproxReply));
  return wire::DecodeApproxReply(frame.payload);
}

util::Result<wire::StatsReply> Client::Stats() {
  GS_ASSIGN_OR_RETURN(wire::Frame raw,
                      RoundTrip(wire::MessageType::kStats, ""));
  GS_ASSIGN_OR_RETURN(
      wire::Frame frame,
      ExpectType(std::move(raw), wire::MessageType::kStatsReply));
  return wire::DecodeStatsReply(frame.payload);
}

util::Result<wire::HealthReply> Client::Health() {
  GS_ASSIGN_OR_RETURN(wire::Frame raw,
                      RoundTrip(wire::MessageType::kHealth, ""));
  GS_ASSIGN_OR_RETURN(
      wire::Frame frame,
      ExpectType(std::move(raw), wire::MessageType::kHealthReply));
  return wire::DecodeHealthReply(frame.payload);
}

}  // namespace graphsig::net
