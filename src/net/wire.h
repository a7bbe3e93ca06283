#ifndef GRAPHSIG_NET_WIRE_H_
#define GRAPHSIG_NET_WIRE_H_

// The GraphSig wire protocol: a versioned, length-prefixed binary frame
// format plus the typed request/response messages the query server
// speaks. Framing and payload encoding both ride on util/binary
// (ByteWriter/ByteReader), so every field is little-endian and every
// decode path reports malformed input as a clean util::Status — these
// bytes arrive from the network and are fully untrusted
// (fuzz/fuzz_wire_protocol.cc hammers exactly this surface).
//
// Frame layout (header is kFrameHeaderBytes = 16 bytes):
//
//   offset 0   u32 magic        0x31575347 ("GSW1" as bytes G S W 1)
//   offset 4   u8  version      see below; peers reject newer
//   offset 5   u8  type         MessageType
//   offset 6   u16 reserved     must be zero
//   offset 8   u32 payload size (bounded by the decoder's max)
//   offset 12  u32 payload CRC-32
//   offset 16  payload bytes
//
// Versioning (DESIGN.md §12): kWireVersion is the newest version this
// build understands; a frame is stamped with the LOWEST version whose
// decoder understands its payload, so a v1 peer keeps interoperating
// until someone actually uses a v2 feature. Version history:
//   v1  original protocol
//   v2  Stats request may carry a version byte; StatsReply may append a
//       named work-counter section (obs::MetricsRegistry export)
//   v3  ApproxQuery/ApproxReply: the sampling tier's estimate-with-
//       confidence-interval query class (src/approx)
//   v4  StatsReply may append the served catalog's ingest generation
//       after the work-counter section, so streaming clients can watch
//       catalog hot-swaps land (src/stream, DESIGN.md §16)
//
// Every reply payload is a pure function of the request and the served
// catalog — server-side latency is deliberately *not* in QueryReply (it
// aggregates into the Stats RPC instead), so a reply to the same query
// against the same artifact is byte-identical across runs, processes,
// and thread counts. The loopback e2e tests assert this.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "serve/pattern_catalog.h"
#include "util/status.h"

namespace graphsig::net::wire {

inline constexpr uint32_t kMagic = 0x31575347;  // "GSW1"
// Newest protocol version this build speaks (and the oldest that still
// interoperates: every v1 byte stream is valid v2).
inline constexpr uint8_t kWireVersion = 4;
// Version stamped on frames that use no post-v1 feature.
inline constexpr uint8_t kBaseWireVersion = 1;
// Version stamped on ApproxQuery/ApproxReply frames: the lowest version
// whose decoder knows the approx message pair.
inline constexpr uint8_t kApproxWireVersion = 3;
// Lowest version whose StatsReply decoder knows the trailing catalog
// generation field (and whose StatsRequest version byte asks for it).
inline constexpr uint8_t kStatsGenerationWireVersion = 4;
inline constexpr size_t kFrameHeaderBytes = 16;
// Default cap on one frame's payload; a header announcing more is a
// protocol error, not an allocation.
inline constexpr size_t kDefaultMaxFrameBytes = 16u << 20;

enum class MessageType : uint8_t {
  // Requests (client -> server).
  kQuery = 1,
  kBatchQuery = 2,
  kStats = 3,
  kHealth = 4,
  kApproxQuery = 5,  // wire v3
  // Responses (server -> client); request type + 64.
  kQueryReply = 65,
  kBatchQueryReply = 66,
  kStatsReply = 67,
  kHealthReply = 68,
  kApproxReply = 69,  // wire v3
  // Error envelope for a request the server could not serve.
  kError = 96,
  // Backpressure: the admission queue is full; retry after a pause.
  // Carries no payload and closes nothing — the connection stays usable.
  kRetryLater = 97,
};

// Returns a stable name for logging ("Query", "RetryLater", ...).
const char* MessageTypeName(MessageType type);

// One decoded frame: the type tag plus its raw payload bytes (already
// CRC-verified). Typed decoding happens separately so the event loop
// can hand payloads to worker threads without parsing them first.
struct Frame {
  MessageType type = MessageType::kError;
  std::string payload;
  // Header version the sender stamped (<= kWireVersion once decoded).
  uint8_t version = kBaseWireVersion;
};

// Serializes a complete frame (header + payload) ready to write to a
// socket. `version` must be in [kBaseWireVersion, kWireVersion]; stamp
// the lowest version able to decode the payload so old peers keep
// accepting frames that use no new feature.
std::string EncodeFrame(MessageType type, std::string_view payload,
                        uint8_t version = kBaseWireVersion);

// Incremental frame parser for a byte stream. Feed arbitrary chunks
// with Append(); Next() yields completed frames in order, nullopt when
// more bytes are needed, and a Status error on any protocol violation
// (bad magic, unsupported version, nonzero reserved bits, oversized
// payload, CRC mismatch). Errors are fatal for the stream: the
// connection that produced them must be closed.
class FrameDecoder {
 public:
  explicit FrameDecoder(size_t max_payload_bytes = kDefaultMaxFrameBytes)
      : max_payload_bytes_(max_payload_bytes) {}

  void Append(std::string_view bytes) { buffer_.append(bytes); }

  util::Result<std::optional<Frame>> Next();

  // Bytes buffered but not yet consumed by a complete frame.
  size_t buffered_bytes() const { return buffer_.size() - consumed_; }

 private:
  size_t max_payload_bytes_;
  std::string buffer_;
  size_t consumed_ = 0;  // prefix of buffer_ already handed out
};

// ---------------------------------------------------------------------
// Typed messages. Each has an Encode (to payload bytes) and a Decode
// (payload bytes -> Result). Requests carry the per-query compute
// flags; replies carry only deterministic fields (see header comment).

struct QueryOptions {
  bool compute_matches = true;
  bool compute_score = true;

  bool operator==(const QueryOptions&) const = default;
};

struct QueryRequest {
  QueryOptions options;
  graph::Graph query;

  bool operator==(const QueryRequest&) const = default;
};

struct BatchQueryRequest {
  QueryOptions options;
  std::vector<graph::Graph> queries;

  bool operator==(const BatchQueryRequest&) const = default;
};

struct QueryReply {
  std::vector<int32_t> matched_patterns;
  bool has_score = false;
  double score = 0.0;
  int32_t iso_calls = 0;
  int32_t pruned = 0;

  bool operator==(const QueryReply&) const = default;
};

// Stats request. v1 clients send an empty payload; v2 clients send one
// version byte asking for the extended reply. The empty encoding IS the
// v1 encoding, so old servers still accept new clients that ask for v1.
struct StatsRequest {
  uint8_t version = kBaseWireVersion;

  bool operator==(const StatsRequest&) const = default;
};

// Serving counters over the wire: the catalog's cumulative ServingStats
// snapshot plus the server's own transport counters. Since wire v2 the
// reply may also carry the server's named deterministic work counters
// (obs::MetricsRegistry::WorkValues()); `work_counters` stays empty for
// v1 peers and the encoding of an empty section is byte-identical to
// v1, so EncodeStatsReply picks the frame version from the value (see
// StatsReplyWireVersion). Since wire v4 the reply may additionally end
// with the served catalog's ingest generation; the field rides AFTER
// the counter section and is only encoded when that section is
// non-empty (an empty counter section encodes as nothing, which would
// leave a bare trailing u64 ambiguous), so `has_generation` without
// counters is silently dropped on the wire.
struct StatsReply {
  serve::ServingStats serving;
  uint64_t connections_accepted = 0;
  uint64_t connections_active = 0;
  uint64_t frames_received = 0;
  uint64_t requests_served = 0;
  uint64_t protocol_errors = 0;
  uint64_t retries_sent = 0;
  std::vector<std::pair<std::string, uint64_t>> work_counters;
  // v4 extension: the generation of the catalog the server is serving
  // (serve::PatternCatalog::generation(); 0 = batch artifact).
  bool has_generation = false;
  uint64_t generation = 0;
};

// Lowest frame version able to carry this reply: kBaseWireVersion when
// work_counters is empty, kStatsGenerationWireVersion when the
// generation is actually encoded, 2 otherwise. Pass to EncodeFrame.
uint8_t StatsReplyWireVersion(const StatsReply& reply);

struct HealthReply {
  bool ok = false;
  bool draining = false;
  uint8_t wire_version = kWireVersion;
  uint64_t num_patterns = 0;
  bool has_classifier = false;

  bool operator==(const HealthReply&) const = default;
};

// Approximate-estimate request (wire v3, src/approx). `mode` is an
// approx::ApproxMode value: 0 asks for the sampled support of `pattern`
// in the served database, 1 for its waddling-random-walk embedding
// count. The RNG seed travels IN the request so the reply stays a pure
// function of (request, catalog) — byte-identical across runs, server
// processes, and thread counts like every other reply on this wire.
struct ApproxRequest {
  uint8_t mode = 0;
  uint64_t seed = 1;
  // Sample draws (mode 0) or walks (mode 1); must be >= 1 on the wire.
  uint32_t samples = 256;
  // Nominal CI coverage, strictly inside (0, 1).
  double confidence = 0.95;
  graph::Graph pattern;

  bool operator==(const ApproxRequest&) const = default;
};

// The estimate with its confidence interval. `estimate` is a support
// count (mode 0) or a total embedding count (mode 1); `hits` is the
// number of sampled graphs that contained the pattern (mode 0) or of
// walks that completed an embedding (mode 1), never above `samples`.
struct ApproxReply {
  uint8_t mode = 0;
  uint32_t samples = 0;
  uint64_t hits = 0;
  // Size of the served database the estimate extrapolates over.
  uint64_t db_size = 0;
  double estimate = 0.0;
  double ci_lo = 0.0;
  double ci_hi = 0.0;
  double confidence = 0.0;

  bool operator==(const ApproxReply&) const = default;
};

struct ErrorReply {
  util::StatusCode code = util::StatusCode::kInternal;
  std::string message;

  bool operator==(const ErrorReply&) const = default;
  // Reconstructs the Status a failed RPC reported.
  util::Status ToStatus() const { return {code, message}; }
};

std::string EncodeQueryRequest(const QueryRequest& request);
util::Result<QueryRequest> DecodeQueryRequest(std::string_view payload);

std::string EncodeBatchQueryRequest(const BatchQueryRequest& request);
util::Result<BatchQueryRequest> DecodeBatchQueryRequest(
    std::string_view payload);

std::string EncodeQueryReply(const QueryReply& reply);
util::Result<QueryReply> DecodeQueryReply(std::string_view payload);

std::string EncodeBatchQueryReply(const std::vector<QueryReply>& replies);
util::Result<std::vector<QueryReply>> DecodeBatchQueryReply(
    std::string_view payload);

std::string EncodeStatsRequest(const StatsRequest& request);
util::Result<StatsRequest> DecodeStatsRequest(std::string_view payload);

std::string EncodeStatsReply(const StatsReply& reply);
util::Result<StatsReply> DecodeStatsReply(std::string_view payload);

std::string EncodeHealthReply(const HealthReply& reply);
util::Result<HealthReply> DecodeHealthReply(std::string_view payload);

std::string EncodeApproxRequest(const ApproxRequest& request);
util::Result<ApproxRequest> DecodeApproxRequest(std::string_view payload);

std::string EncodeApproxReply(const ApproxReply& reply);
util::Result<ApproxReply> DecodeApproxReply(std::string_view payload);

std::string EncodeErrorReply(const ErrorReply& reply);
util::Result<ErrorReply> DecodeErrorReply(std::string_view payload);

// Projects a served QueryResult onto the deterministic wire fields
// (drops latency; see the framing comment above).
QueryReply ReplyFromResult(const serve::QueryResult& result);

// Projects a served approximate estimate onto the wire reply.
ApproxReply ReplyFromApprox(const serve::ApproxResult& result);

}  // namespace graphsig::net::wire

#endif  // GRAPHSIG_NET_WIRE_H_
