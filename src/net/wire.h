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
//   offset 4   u8  version      always kWireVersion; any other is refused
//   offset 5   u8  type         MessageType
//   offset 6   u16 reserved     must be zero
//   offset 8   u32 payload size (bounded by the decoder's max)
//   offset 12  u32 payload CRC-32
//   offset 16  payload bytes
//
// One wire version (DESIGN.md §12): every peer that speaks this protocol
// is built from this repository, so any change to a payload's bytes
// bumps kWireVersion and a peer from another build fails at the frame
// header instead of partway through a payload.
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
// The one protocol version this build speaks, stamped on every frame.
inline constexpr uint8_t kWireVersion = 5;
inline constexpr size_t kFrameHeaderBytes = 16;
// Default cap on one frame's payload; a header announcing more is a
// protocol error, not an allocation.
inline constexpr size_t kDefaultMaxFrameBytes = 16u << 20;

// Every request frame carries one request. Types 2 and 66, the retired
// BatchQuery pair, stay unassigned, so a frame of either is refused at
// the header as an unknown type.
enum class MessageType : uint8_t {
  // Requests (client -> server).
  kQuery = 1,
  kStats = 3,   // no payload
  kHealth = 4,  // no payload
  kApproxQuery = 5,
  // Responses (server -> client); request type + 64.
  kQueryReply = 65,
  kStatsReply = 67,
  kHealthReply = 68,
  kApproxReply = 69,
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
};

// Serializes a complete frame (header + payload), stamped kWireVersion,
// ready to write to a socket.
std::string EncodeFrame(MessageType type, std::string_view payload);

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

struct QueryReply {
  std::vector<int32_t> matched_patterns;
  bool has_score = false;
  double score = 0.0;
  int32_t iso_calls = 0;
  int32_t pruned = 0;

  bool operator==(const QueryReply&) const = default;
};

// Serving counters over the wire: the catalog's cumulative ServingStats
// snapshot, the server's own transport counters, its named
// deterministic work counters (obs::MetricsRegistry::WorkValues()) and
// the generation of the catalog it is serving.
struct StatsReply {
  serve::ServingStats serving;
  uint64_t connections_accepted = 0;
  uint64_t connections_active = 0;
  uint64_t frames_received = 0;
  uint64_t requests_served = 0;
  uint64_t protocol_errors = 0;
  uint64_t retries_sent = 0;
  std::vector<std::pair<std::string, uint64_t>> work_counters;
  // serve::PatternCatalog::generation(); 0 = batch artifact.
  uint64_t generation = 0;
};

struct HealthReply {
  bool ok = false;
  bool draining = false;
  uint64_t num_patterns = 0;
  bool has_classifier = false;

  bool operator==(const HealthReply&) const = default;
};

// Approximate-estimate request (src/approx). `mode` is an
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

std::string EncodeQueryReply(const QueryReply& reply);
util::Result<QueryReply> DecodeQueryReply(std::string_view payload);

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
