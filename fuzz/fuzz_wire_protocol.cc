// Fuzz target for the wire protocol (src/net/wire.h) — the server-side
// untrusted surface: every byte a client sends crosses FrameDecoder and
// then a typed request decoder, so arbitrary input must come back as a
// clean util::Status (or a completed frame), never a crash, hang,
// over-allocation, or sanitizer report.
//
// The input bytes are fed to a FrameDecoder in two passes — whole-buffer
// and split into small chunks — which must agree frame-for-frame (the
// incremental parser cannot depend on TCP segmentation). Every completed
// frame's payload then runs through the matching typed decoder, and any
// successfully decoded message is re-encoded and re-decoded to pin the
// round-trip contract.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "net/wire.h"
#include "util/check.h"

namespace wire = graphsig::net::wire;

namespace {

// A small max-payload bound keeps the fuzzer exploring header/CRC edges
// instead of waiting on multi-megabyte announced sizes.
constexpr size_t kFuzzMaxPayload = 1 << 16;

void FuzzTypedDecoders(const wire::Frame& frame) {
  const std::string_view payload = frame.payload;
  switch (frame.type) {
    case wire::MessageType::kQuery: {
      auto req = wire::DecodeQueryRequest(payload);
      if (req.ok()) {
        auto again =
            wire::DecodeQueryRequest(wire::EncodeQueryRequest(req.value()));
        GS_CHECK(again.ok());
        GS_CHECK(again.value() == req.value());
      }
      break;
    }
    case wire::MessageType::kQueryReply: {
      auto reply = wire::DecodeQueryReply(payload);
      if (reply.ok()) {
        auto again =
            wire::DecodeQueryReply(wire::EncodeQueryReply(reply.value()));
        GS_CHECK(again.ok());
        GS_CHECK(again.value() == reply.value());
      }
      break;
    }
    case wire::MessageType::kStatsReply: {
      auto stats = wire::DecodeStatsReply(payload);
      if (stats.ok()) {
        // The reply has one encoding, always written in full, so decode
        // must invert encode byte-for-byte.
        GS_CHECK(wire::EncodeStatsReply(stats.value()) == payload);
        auto again =
            wire::DecodeStatsReply(wire::EncodeStatsReply(stats.value()));
        GS_CHECK(again.ok());
        GS_CHECK_EQ(again.value().requests_served,
                    stats.value().requests_served);
        GS_CHECK(again.value().work_counters == stats.value().work_counters);
        GS_CHECK_EQ(again.value().generation, stats.value().generation);
      }
      break;
    }
    case wire::MessageType::kApproxQuery: {
      auto req = wire::DecodeApproxRequest(payload);
      if (req.ok()) {
        auto again =
            wire::DecodeApproxRequest(wire::EncodeApproxRequest(req.value()));
        GS_CHECK(again.ok());
        GS_CHECK(again.value() == req.value());
      }
      break;
    }
    case wire::MessageType::kApproxReply: {
      // The reply is all fixed-width fields with validated ranges, so
      // every accepted payload has exactly one spelling: decode must
      // invert encode byte-for-byte.
      auto reply = wire::DecodeApproxReply(payload);
      if (reply.ok()) {
        GS_CHECK(wire::EncodeApproxReply(reply.value()) == payload);
      }
      break;
    }
    case wire::MessageType::kHealthReply: {
      auto health = wire::DecodeHealthReply(payload);
      if (health.ok()) {
        auto again =
            wire::DecodeHealthReply(wire::EncodeHealthReply(health.value()));
        GS_CHECK(again.ok());
        GS_CHECK(again.value() == health.value());
      }
      break;
    }
    case wire::MessageType::kError: {
      auto error = wire::DecodeErrorReply(payload);
      if (error.ok()) {
        auto again =
            wire::DecodeErrorReply(wire::EncodeErrorReply(error.value()));
        GS_CHECK(again.ok());
        GS_CHECK(again.value() == error.value());
      }
      break;
    }
    case wire::MessageType::kStats:
    case wire::MessageType::kHealth:
    case wire::MessageType::kRetryLater:
      break;  // no payload to decode
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string_view bytes(reinterpret_cast<const char*>(data), size);

  // Pass 1: the whole input in one Append.
  std::vector<wire::Frame> whole_frames;
  {
    wire::FrameDecoder decoder(kFuzzMaxPayload);
    decoder.Append(bytes);
    while (true) {
      auto next = decoder.Next();
      if (!next.ok()) break;  // fatal stream error: stop, like the server
      if (!next.value().has_value()) break;  // need more bytes
      FuzzTypedDecoders(*next.value());
      whole_frames.push_back(std::move(*next.value()));
    }
  }

  // Pass 2: drip-fed in 7-byte chunks — segmentation must not change
  // what the decoder produces.
  {
    wire::FrameDecoder decoder(kFuzzMaxPayload);
    size_t produced = 0;
    bool failed = false;
    for (size_t off = 0; off < bytes.size() && !failed; off += 7) {
      decoder.Append(bytes.substr(off, 7));
      while (true) {
        auto next = decoder.Next();
        if (!next.ok()) {
          failed = true;
          break;
        }
        if (!next.value().has_value()) break;
        GS_CHECK(produced < whole_frames.size());
        GS_CHECK(next.value()->type == whole_frames[produced].type);
        GS_CHECK(next.value()->payload == whole_frames[produced].payload);
        ++produced;
      }
    }
    if (!failed) GS_CHECK_EQ(produced, whole_frames.size());
  }
  return 0;
}
