// Wire-protocol and server tests: codec round-trips and decoder
// rejection cases (Wire*), then the server end to end over a loopback
// socket (NetServer*) — an in-thread Server on an ephemeral port, real
// Clients hammering it concurrently, and raw socket writes for the
// malformed/truncated/oversized attack shapes. The load-bearing
// property throughout: a reply over the wire is byte-identical to an
// in-process PatternCatalog::Query against the same artifact.
//
// The CI TSan job runs these suites with 8 concurrent clients — in a
// single-core container, correctness under the race detector is the
// evidence of thread-safety, not wall-clock speedup.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>

#include <atomic>
#include <chrono>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/graphsig.h"
#include "data/datasets.h"
#include "model/artifact.h"
#include "net/client.h"
#include "net/server.h"
#include "net/socket.h"
#include "net/wire.h"
#include "serve/catalog_handle.h"
#include "serve/pattern_catalog.h"
#include "util/check.h"
#include "util/logging.h"
#include "util/status.h"

namespace graphsig::net {
namespace {

// ---------------------------------------------------------------------
// Shared fixture: one small mined artifact + catalog for every test
// (mining dominates runtime, so pay it once).

struct Fixture {
  graph::GraphDatabase db;
  // shared_ptr because that is what a CatalogHandle publishes; tests
  // also query it directly for expected-bytes comparisons.
  std::shared_ptr<const serve::PatternCatalog> catalog;
  // optional<> because CatalogHandle is neither movable nor default-
  // constructible (it always points at a live catalog).
  std::optional<serve::CatalogHandle> handle;
};

const Fixture& SharedFixture() {
  static const Fixture* fixture = [] {
    auto* f = new Fixture();
    data::DatasetOptions options;
    options.size = 40;
    options.seed = 77;
    options.active_fraction = 0.3;
    f->db = data::MakeCancerScreen("MCF-7", options);

    core::GraphSigConfig config;
    config.cutoff_radius = 3;
    config.min_freq_percent = 5.0;
    config.fsm_max_edges = 10;
    core::GraphSig miner(config);
    core::GraphSigResult mined = miner.Mine(f->db.FilterByTag(1));

    model::ModelArtifact artifact;
    artifact.database = f->db;
    artifact.feature_space = std::move(mined.feature_space);
    artifact.catalog = std::move(mined.subgraphs);
    auto catalog = serve::PatternCatalog::FromArtifact(std::move(artifact));
    GS_CHECK(catalog.ok());
    f->catalog = std::make_shared<const serve::PatternCatalog>(
        std::move(catalog).value());
    f->handle.emplace(f->catalog);
    return f;
  }();
  return *fixture;
}

// The bytes the server must produce for one Query frame: the in-process
// result projected onto the wire reply. Must mirror ProcessQuery's
// config exactly.
std::string ExpectedReplyBytes(const graph::Graph& query,
                               const wire::QueryOptions& options = {}) {
  serve::CatalogQueryConfig config;
  config.compute_matches = options.compute_matches;
  config.compute_score = options.compute_score;
  return wire::EncodeQueryReply(
      wire::ReplyFromResult(SharedFixture().catalog->Query(query, config)));
}

// Server on an ephemeral loopback port, event loop on its own thread.
// Serves the shared fixture's catalog unless a handle is passed in
// (the hot-swap tests bring their own so they can Swap() mid-load).
class TestServer {
 public:
  explicit TestServer(ServerConfig config = {},
                      const serve::CatalogHandle* handle = nullptr)
      : server_(handle != nullptr ? handle : &*SharedFixture().handle,
                std::move(config)) {
    GS_CHECK(server_.Start().ok());
    thread_ = std::thread([this] { serve_status_ = server_.Serve(); });
  }

  ~TestServer() { Shutdown(); }

  void Shutdown() {
    if (thread_.joinable()) {
      server_.RequestShutdown();
      thread_.join();
      EXPECT_TRUE(serve_status_.ok()) << serve_status_.ToString();
    }
  }

  uint16_t port() const { return server_.port(); }
  Server& server() { return server_; }

 private:
  Server server_;
  std::thread thread_;
  util::Status serve_status_;
};

ClientConfig MakeClientConfig(uint16_t port) {
  ClientConfig config;
  config.port = port;
  config.io_timeout_seconds = 30.0;
  return config;
}

// ---------------------------------------------------------------------
// Wire codec.

TEST(WireFrameTest, RoundTripWholeAndByteAtATime) {
  const std::string payload = "hello frame payload \x00\x01\x02 bytes";
  const std::string encoded =
      wire::EncodeFrame(wire::MessageType::kQueryReply, payload);
  ASSERT_EQ(encoded.size(), wire::kFrameHeaderBytes + payload.size());

  wire::FrameDecoder whole;
  whole.Append(encoded);
  auto frame = whole.Next();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  ASSERT_TRUE(frame.value().has_value());
  EXPECT_EQ(frame.value()->type, wire::MessageType::kQueryReply);
  EXPECT_EQ(frame.value()->payload, payload);
  auto drained = whole.Next();
  ASSERT_TRUE(drained.ok());
  EXPECT_FALSE(drained.value().has_value());

  // Byte-at-a-time segmentation must produce the identical frame.
  wire::FrameDecoder dripped;
  for (size_t i = 0; i < encoded.size(); ++i) {
    dripped.Append(std::string_view(encoded).substr(i, 1));
    auto next = dripped.Next();
    ASSERT_TRUE(next.ok());
    if (i + 1 < encoded.size()) {
      EXPECT_FALSE(next.value().has_value());
    } else {
      ASSERT_TRUE(next.value().has_value());
      EXPECT_EQ(next.value()->payload, payload);
    }
  }
}

TEST(WireFrameTest, BackToBackFramesSplitCleanly) {
  const std::string stream =
      wire::EncodeFrame(wire::MessageType::kHealth, "") +
      wire::EncodeFrame(wire::MessageType::kStats, "") +
      wire::EncodeFrame(wire::MessageType::kRetryLater, "");
  wire::FrameDecoder decoder;
  decoder.Append(stream);
  std::vector<wire::MessageType> types;
  while (true) {
    auto next = decoder.Next();
    ASSERT_TRUE(next.ok());
    if (!next.value().has_value()) break;
    types.push_back(next.value()->type);
  }
  EXPECT_EQ(types,
            (std::vector<wire::MessageType>{wire::MessageType::kHealth,
                                            wire::MessageType::kStats,
                                            wire::MessageType::kRetryLater}));
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

TEST(WireFrameTest, RejectsCorruptHeaders) {
  const std::string good = wire::EncodeFrame(wire::MessageType::kHealth, "ok");

  {  // Bad magic.
    std::string bad = good;
    bad[0] ^= 0xFF;
    wire::FrameDecoder decoder;
    decoder.Append(bad);
    EXPECT_FALSE(decoder.Next().ok());
  }
  {  // Unsupported version.
    std::string bad = good;
    bad[4] = 9;
    wire::FrameDecoder decoder;
    decoder.Append(bad);
    EXPECT_FALSE(decoder.Next().ok());
  }
  // Unknown message types, including 2 and 66, which stay unassigned.
  for (const int type : {200, 2, 66}) {
    std::string bad = good;
    bad[5] = static_cast<char>(type);
    wire::FrameDecoder decoder;
    decoder.Append(bad);
    EXPECT_FALSE(decoder.Next().ok()) << "type " << type;
  }
  {  // Nonzero reserved bits.
    std::string bad = good;
    bad[6] = 1;
    wire::FrameDecoder decoder;
    decoder.Append(bad);
    EXPECT_FALSE(decoder.Next().ok());
  }
  {  // Payload corruption flips the CRC check.
    std::string bad = good;
    bad[wire::kFrameHeaderBytes] ^= 0x01;
    wire::FrameDecoder decoder;
    decoder.Append(bad);
    EXPECT_FALSE(decoder.Next().ok());
  }
}

TEST(WireFrameTest, OversizedAnnouncementIsAnErrorNotAnAllocation) {
  // Header announcing a payload beyond the decoder's max: rejected as
  // soon as the header is complete, without waiting for payload bytes.
  std::string frame = wire::EncodeFrame(wire::MessageType::kQuery,
                                        std::string(1024, 'x'));
  wire::FrameDecoder decoder(/*max_payload_bytes=*/512);
  decoder.Append(frame.substr(0, wire::kFrameHeaderBytes));
  auto next = decoder.Next();
  EXPECT_FALSE(next.ok());
}

TEST(WireFrameTest, TruncatedFrameParksAsNeedsMore) {
  const std::string encoded =
      wire::EncodeFrame(wire::MessageType::kHealth, "payload");
  wire::FrameDecoder decoder;
  decoder.Append(encoded.substr(0, encoded.size() - 1));
  auto next = decoder.Next();
  ASSERT_TRUE(next.ok());
  EXPECT_FALSE(next.value().has_value());
  decoder.Append(encoded.substr(encoded.size() - 1));
  auto completed = decoder.Next();
  ASSERT_TRUE(completed.ok());
  ASSERT_TRUE(completed.value().has_value());
  EXPECT_EQ(completed.value()->payload, "payload");
}

// ---------------------------------------------------------------------
// One wire version: every frame carries kWireVersion, and the decoder
// refuses any other on the header alone, before it reads a payload.

TEST(WireVersionTest, RejectsVersionsOutsideTheSupportedRange) {
  ASSERT_EQ(wire::kWireVersion, 5);
  const std::string frame = wire::EncodeFrame(wire::MessageType::kHealth, "");
  ASSERT_EQ(static_cast<uint8_t>(frame[4]), wire::kWireVersion);
  // The CRC covers only the payload, so restamping the header byte
  // leaves the frame otherwise valid. Versions 1 to 4 are what peers
  // built before version 5 stamped.
  for (int version = 0; version <= 255; ++version) {
    std::string stamped = frame;
    stamped[4] = static_cast<char>(version);
    wire::FrameDecoder decoder;
    decoder.Append(stamped);
    auto next = decoder.Next();
    if (version == wire::kWireVersion) {
      ASSERT_TRUE(next.ok()) << next.status().ToString();
      EXPECT_TRUE(next.value().has_value());
    } else {
      EXPECT_FALSE(next.ok()) << "version " << version;
    }
  }
}

TEST(WireVersionTest, StatsReplyGenerationTrailer) {
  wire::StatsReply reply;
  reply.requests_served = 3;
  reply.generation = 42;

  // One encoding, always written in full: the 12 fixed 8-byte fields, a
  // u32 work-counter count (0 allowed), the entries, the u64 generation.
  constexpr size_t kFixedBytes = 12 * 8;
  const std::string bare = wire::EncodeStatsReply(reply);
  ASSERT_EQ(bare.size(), kFixedBytes + 4 + 8);
  auto bare_again = wire::DecodeStatsReply(bare);
  ASSERT_TRUE(bare_again.ok()) << bare_again.status().ToString();
  EXPECT_TRUE(bare_again.value().work_counters.empty());
  EXPECT_EQ(bare_again.value().generation, 42u);

  reply.work_counters = {{"serve/queries", 3}};
  const std::string full = wire::EncodeStatsReply(reply);
  auto full_again = wire::DecodeStatsReply(full);
  ASSERT_TRUE(full_again.ok()) << full_again.status().ToString();
  EXPECT_EQ(full_again.value().work_counters, reply.work_counters);
  EXPECT_EQ(full_again.value().generation, 42u);

  // Generation zero is a valid stamp (a batch-mined catalog) and must
  // survive the round trip.
  reply.generation = 0;
  auto zero = wire::DecodeStatsReply(wire::EncodeStatsReply(reply));
  ASSERT_TRUE(zero.ok());
  EXPECT_EQ(zero.value().generation, 0u);

  // A payload that stops after the fixed fields (the old v1 shape), a
  // partial trailer, and bytes beyond the trailer are all rejected.
  EXPECT_FALSE(wire::DecodeStatsReply(full.substr(0, kFixedBytes)).ok());
  EXPECT_FALSE(wire::DecodeStatsReply(full.substr(0, full.size() - 3)).ok());
  EXPECT_FALSE(wire::DecodeStatsReply(full + std::string(1, '\0')).ok());
}

TEST(WireCodecTest, TypedMessagesRoundTrip) {
  const Fixture& f = SharedFixture();

  wire::QueryRequest query;
  query.options.compute_score = false;
  query.query = f.db.graph(0);
  auto query_again = wire::DecodeQueryRequest(wire::EncodeQueryRequest(query));
  ASSERT_TRUE(query_again.ok());
  EXPECT_TRUE(query_again.value() == query);

  wire::QueryReply reply;
  reply.matched_patterns = {1, 5, 9};
  reply.has_score = true;
  reply.score = -0.75;
  reply.iso_calls = 4;
  reply.pruned = 11;
  auto reply_again = wire::DecodeQueryReply(wire::EncodeQueryReply(reply));
  ASSERT_TRUE(reply_again.ok());
  EXPECT_TRUE(reply_again.value() == reply);

  wire::StatsReply stats;
  stats.serving.queries = 7;
  stats.serving.total_latency_ms = 3.25;
  stats.serving.max_latency_ms = 1.5;
  stats.serving.iso_calls = 20;
  stats.serving.pruned = 80;
  stats.serving.pattern_matches = 13;
  stats.connections_accepted = 2;
  stats.frames_received = 9;
  stats.requests_served = 7;
  auto stats_again = wire::DecodeStatsReply(wire::EncodeStatsReply(stats));
  ASSERT_TRUE(stats_again.ok());
  EXPECT_EQ(stats_again.value().serving.queries, 7);
  EXPECT_EQ(stats_again.value().serving.total_latency_ms, 3.25);
  EXPECT_EQ(stats_again.value().frames_received, 9u);

  wire::HealthReply health;
  health.ok = true;
  health.draining = true;
  health.num_patterns = 42;
  health.has_classifier = true;
  auto health_again = wire::DecodeHealthReply(wire::EncodeHealthReply(health));
  ASSERT_TRUE(health_again.ok());
  EXPECT_TRUE(health_again.value() == health);

  wire::ErrorReply error;
  error.code = util::StatusCode::kInvalidArgument;
  error.message = "bad query";
  auto error_again = wire::DecodeErrorReply(wire::EncodeErrorReply(error));
  ASSERT_TRUE(error_again.ok());
  EXPECT_TRUE(error_again.value() == error);
  EXPECT_EQ(error_again.value().ToStatus().code(),
            util::StatusCode::kInvalidArgument);
}

TEST(WireCodecTest, TrailingBytesAreRejected) {
  wire::QueryReply reply;
  reply.matched_patterns = {3};
  std::string payload = wire::EncodeQueryReply(reply);
  payload.push_back('\0');
  EXPECT_FALSE(wire::DecodeQueryReply(payload).ok());
}

TEST(WireCodecTest, ApproxMessagesRoundTrip) {
  const Fixture& f = SharedFixture();

  wire::ApproxRequest request;
  request.mode = 1;
  request.seed = 0xDEADBEEFCAFEull;
  request.samples = 512;
  request.confidence = 0.99;
  request.pattern = f.db.graph(2);
  auto request_again =
      wire::DecodeApproxRequest(wire::EncodeApproxRequest(request));
  ASSERT_TRUE(request_again.ok()) << request_again.status().ToString();
  EXPECT_TRUE(request_again.value() == request);

  wire::ApproxReply reply;
  reply.mode = 0;
  reply.samples = 200;
  reply.hits = 137;
  reply.db_size = 40;
  reply.estimate = 27.4;
  reply.ci_lo = 24.1;
  reply.ci_hi = 30.0;
  reply.confidence = 0.95;
  auto reply_again = wire::DecodeApproxReply(wire::EncodeApproxReply(reply));
  ASSERT_TRUE(reply_again.ok()) << reply_again.status().ToString();
  EXPECT_TRUE(reply_again.value() == reply);
}

TEST(WireCodecTest, ApproxNonCanonicalEncodingsRejected) {
  const Fixture& f = SharedFixture();
  wire::ApproxRequest request;
  request.pattern = f.db.graph(0);
  const std::string good = wire::EncodeApproxRequest(request);
  ASSERT_TRUE(wire::DecodeApproxRequest(good).ok());

  {  // Trailing bytes.
    std::string bad = good;
    bad.push_back('\0');
    EXPECT_FALSE(wire::DecodeApproxRequest(bad).ok());
  }
  {  // Unknown mode.
    wire::ApproxRequest bad = request;
    bad.mode = 2;
    EXPECT_FALSE(
        wire::DecodeApproxRequest(wire::EncodeApproxRequest(bad)).ok());
  }
  {  // Zero samples would buy zero work — refused at the wire.
    wire::ApproxRequest bad = request;
    bad.samples = 0;
    EXPECT_FALSE(
        wire::DecodeApproxRequest(wire::EncodeApproxRequest(bad)).ok());
  }
  {  // Confidence outside (0, 1) — including NaN, which fails every
    // ordered comparison and must not sneak through a negated check.
    wire::ApproxRequest bad = request;
    bad.confidence = 1.0;
    EXPECT_FALSE(
        wire::DecodeApproxRequest(wire::EncodeApproxRequest(bad)).ok());
    bad.confidence = std::numeric_limits<double>::quiet_NaN();
    EXPECT_FALSE(
        wire::DecodeApproxRequest(wire::EncodeApproxRequest(bad)).ok());
  }

  wire::ApproxReply reply;
  reply.samples = 10;
  reply.hits = 11;  // hits > samples is unrepresentable estimator state
  EXPECT_FALSE(wire::DecodeApproxReply(wire::EncodeApproxReply(reply)).ok());
  reply.hits = 10;
  std::string reply_bytes = wire::EncodeApproxReply(reply);
  ASSERT_TRUE(wire::DecodeApproxReply(reply_bytes).ok());
  reply_bytes.push_back('x');
  EXPECT_FALSE(wire::DecodeApproxReply(reply_bytes).ok());
}

// ---------------------------------------------------------------------
// Loopback end-to-end.

TEST(NetServerTest, ConcurrentClientsMatchInProcessByteForByte) {
  const Fixture& f = SharedFixture();
  TestServer server;

  constexpr int kClients = 8;
  std::vector<std::string> failures(kClients);
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client client(MakeClientConfig(server.port()));
      util::Status connected = client.Connect();
      if (!connected.ok()) {
        failures[c] = connected.ToString();
        return;
      }
      // Each client walks the database at a different stride so the
      // in-flight mix differs across clients.
      for (size_t i = 0; i < f.db.size(); ++i) {
        const size_t g = (i * (c + 1)) % f.db.size();
        auto reply = client.Query(f.db.graph(g));
        if (!reply.ok()) {
          failures[c] = reply.status().ToString();
          return;
        }
        if (wire::EncodeQueryReply(reply.value()) !=
            ExpectedReplyBytes(f.db.graph(g))) {
          failures[c] = "reply bytes diverge from in-process Query";
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(failures[c], "") << "client " << c;
  }
}

TEST(NetServerTest, QueryOptionsFlagsReachTheCatalog) {
  const Fixture& f = SharedFixture();
  TestServer server;
  Client client(MakeClientConfig(server.port()));
  ASSERT_TRUE(client.Connect().ok());

  wire::QueryOptions score_only;
  score_only.compute_matches = false;
  auto reply = client.Query(f.db.graph(0), score_only);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_TRUE(reply.value().matched_patterns.empty());
  EXPECT_EQ(wire::EncodeQueryReply(reply.value()),
            ExpectedReplyBytes(f.db.graph(0), score_only));

  wire::QueryOptions match_only;
  match_only.compute_score = false;
  auto matches = client.Query(f.db.graph(0), match_only);
  ASSERT_TRUE(matches.ok());
  EXPECT_FALSE(matches.value().has_score);
  EXPECT_EQ(wire::EncodeQueryReply(matches.value()),
            ExpectedReplyBytes(f.db.graph(0), match_only));
}

// Pool workers finish pipelined requests in any order; the server must
// still write their replies in request order.
TEST(NetServerTest, PipelineAgreesWithSingles) {
  const Fixture& f = SharedFixture();
  TestServer server;
  Client client(MakeClientConfig(server.port()));
  ASSERT_TRUE(client.Connect().ok());

  std::vector<graph::Graph> queries;
  for (size_t g = 0; g < 10 && g < f.db.size(); ++g) {
    queries.push_back(f.db.graph(g));
  }
  auto pipelined = client.PipelineQueries(queries);
  ASSERT_TRUE(pipelined.ok()) << pipelined.status().ToString();
  ASSERT_EQ(pipelined.value().size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(wire::EncodeQueryReply(pipelined.value()[i]),
              ExpectedReplyBytes(queries[i]))
        << i;
  }
}

TEST(NetServerTest, StatsAndHealthServeInline) {
  const Fixture& f = SharedFixture();
  TestServer server;
  Client client(MakeClientConfig(server.port()));
  ASSERT_TRUE(client.Connect().ok());

  auto health = client.Health();
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_TRUE(health.value().ok);
  EXPECT_FALSE(health.value().draining);
  EXPECT_EQ(health.value().num_patterns, f.catalog->num_patterns());
  EXPECT_EQ(health.value().has_classifier, f.catalog->has_classifier());

  ASSERT_TRUE(client.Query(f.db.graph(0)).ok());
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GE(stats.value().requests_served, 1u);
  EXPECT_GE(stats.value().frames_received, 2u);
  EXPECT_EQ(stats.value().protocol_errors, 0u);
  EXPECT_GE(stats.value().connections_active, 1u);

  // The reply carries the server's named work counters, including the
  // registry entries this very workload just bumped.
  uint64_t serve_queries = 0, stats_frames = 0;
  bool saw_queries = false, saw_stats_frames = false;
  for (const auto& [name, value] : stats.value().work_counters) {
    if (name == "serve/queries") {
      serve_queries = value;
      saw_queries = true;
    }
    if (name == "net/frames/stats") {
      stats_frames = value;
      saw_stats_frames = true;
    }
  }
  EXPECT_TRUE(saw_queries);
  EXPECT_GE(serve_queries, 1u);
  EXPECT_TRUE(saw_stats_frames);
  EXPECT_GE(stats_frames, 1u);
}

TEST(NetServerTest, StatsReportsActiveGeneration) {
  {
    // The shared fixture is a batch-mined artifact: generation 0.
    TestServer server;
    Client client(MakeClientConfig(server.port()));
    ASSERT_TRUE(client.Connect().ok());
    auto stats = client.Stats();
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats.value().generation, 0u);
  }

  // A generation-stamped artifact reports its own stamp.
  model::ModelArtifact artifact = SharedFixture().catalog->artifact();
  artifact.generation = 9;
  auto catalog = serve::PatternCatalog::FromArtifact(std::move(artifact));
  ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
  serve::CatalogHandle handle(std::make_shared<const serve::PatternCatalog>(
      std::move(catalog).value()));
  TestServer server({}, &handle);
  Client client(MakeClientConfig(server.port()));
  ASSERT_TRUE(client.Connect().ok());
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats.value().generation, 9u);
}

// ServerConfig::stats_log_period_seconds turns on one structured
// "stats: {...}" log line per period. A few served queries must show up
// in a later line's "queries" count.
TEST(NetServerTest, PeriodicStatsLineCarriesServedQueries) {
  const Fixture& f = SharedFixture();
  // A catalog of its own, so the cumulative count holds only the
  // queries served here.
  auto catalog = serve::PatternCatalog::FromArtifact(f.catalog->artifact());
  ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
  serve::CatalogHandle handle(std::make_shared<const serve::PatternCatalog>(
      std::move(catalog).value()));

  // The log goes to a file that this test reads back through its own
  // stream; the guard restores stderr and the level on every exit.
  const std::string path = testing::TempDir() + "/net_stats_log.txt";
  std::FILE* log = std::fopen(path.c_str(), "w");
  ASSERT_NE(log, nullptr);
  struct LogGuard {
    std::FILE* file;
    const std::string& path;
    util::LogLevel level = util::GetLogLevel();
    ~LogGuard() {
      util::SetLogTarget(nullptr);
      util::SetLogLevel(level);
      std::fclose(file);
      std::remove(path.c_str());
    }
  } guard{log, path};
  util::SetLogLevel(util::LogLevel::kInfo);
  util::SetLogTarget(log);

  ServerConfig config;
  config.stats_log_period_seconds = 0.05;
  TestServer server(config, &handle);
  Client client(MakeClientConfig(server.port()));
  ASSERT_TRUE(client.Connect().ok());
  constexpr int kQueries = 3;
  for (int i = 0; i < kQueries; ++i) {
    ASSERT_TRUE(client.Query(f.db.graph(static_cast<size_t>(i))).ok());
  }

  const std::string wanted =
      "\"queries\": " + std::to_string(kQueries) + ",";
  bool found = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!found && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    util::FlushLogs();
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
      if (line.find("stats: {") != std::string::npos &&
          line.find(wanted) != std::string::npos) {
        found = true;
      }
    }
  }
  server.Shutdown();
  EXPECT_TRUE(found) << "no stats line carries " << wanted;
}

// The streaming pipeline's serving contract: a generation swap while
// clients are mid-flight drops nothing — every request is answered by
// exactly one catalog snapshot (the old one stays alive until its last
// in-flight reply is written), and the next Stats reports the new
// generation. The CI TSan job runs this under the race detector.
TEST(NetServerTest, GenerationHotSwapDropsNoQueries) {
  const Fixture& f = SharedFixture();

  // Two generations of one mined catalog, differing only in the stream
  // provenance stamp — so replies are byte-identical across the swap
  // and any divergence is a server bug, not a data difference.
  core::GraphSigConfig config;
  config.cutoff_radius = 3;
  config.min_freq_percent = 5.0;
  config.fsm_max_edges = 10;
  core::GraphSigResult mined =
      core::GraphSig(config).Mine(f.db.FilterByTag(1));
  auto catalog_at = [&](uint64_t generation) {
    model::ModelArtifact artifact;
    artifact.database = f.db;
    artifact.feature_space = mined.feature_space;
    artifact.catalog = mined.subgraphs;
    artifact.generation = generation;
    auto catalog = serve::PatternCatalog::FromArtifact(std::move(artifact));
    GS_CHECK(catalog.ok());
    return std::make_shared<const serve::PatternCatalog>(
        std::move(catalog).value());
  };

  serve::CatalogHandle handle(catalog_at(1));
  TestServer server({}, &handle);

  constexpr int kClients = 4;
  std::atomic<bool> stop{false};
  std::atomic<int> completed{0};
  std::vector<std::string> failures(kClients);
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client client(MakeClientConfig(server.port()));
      util::Status connected = client.Connect();
      if (!connected.ok()) {
        failures[c] = connected.ToString();
        return;
      }
      for (size_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        const size_t g = (i * (c + 1)) % f.db.size();
        auto reply = client.Query(f.db.graph(g));
        if (!reply.ok()) {
          failures[c] = reply.status().ToString();
          return;
        }
        completed.fetch_add(1, std::memory_order_relaxed);
      }
      // The connection opened against generation 1 sees generation 2
      // on its very next Stats — the handle is read per-request, not
      // per-connection.
      auto stats = client.Stats();
      if (!stats.ok()) {
        failures[c] = stats.status().ToString();
        return;
      }
      if (stats.value().generation != 2) {
        failures[c] = "post-swap stats did not report generation 2";
      }
    });
  }

  // Let the load ramp, swap mid-flight, let it keep running against
  // the new generation, then stop.
  while (completed.load(std::memory_order_relaxed) < kClients * 3) {
    std::this_thread::yield();
  }
  std::shared_ptr<const serve::PatternCatalog> old =
      handle.Swap(catalog_at(2));
  EXPECT_EQ(old->generation(), 1u);
  const int at_swap = completed.load(std::memory_order_relaxed);
  while (completed.load(std::memory_order_relaxed) < at_swap + kClients) {
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads) t.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(failures[c], "") << "client " << c;
  }
  EXPECT_EQ(handle.Current()->generation(), 2u);
}

// Writes raw bytes and expects an Error frame followed by EOF — the
// server's contract for a protocol violation.
// Reads one server-sent frame from a blocking raw socket: the header
// first, to learn the payload size at offset 8, then the payload.
util::Result<wire::Frame> ReadRawFrame(int fd) {
  std::string header;
  GS_RETURN_IF_ERROR(ReadExact(fd, wire::kFrameHeaderBytes, &header));
  uint32_t payload_size = 0;
  std::memcpy(&payload_size, header.data() + 8, sizeof(payload_size));
  std::string payload;
  GS_RETURN_IF_ERROR(ReadExact(fd, payload_size, &payload));
  wire::FrameDecoder decoder;
  decoder.Append(header + payload);
  GS_ASSIGN_OR_RETURN(std::optional<wire::Frame> frame, decoder.Next());
  if (!frame.has_value()) return util::Status::Internal("incomplete frame");
  return std::move(*frame);
}

void ExpectErrorThenClose(uint16_t port, const std::string& bytes) {
  auto socket = ConnectTcp("127.0.0.1", port, 5.0);
  ASSERT_TRUE(socket.ok()) << socket.status().ToString();
  const int fd = socket.value().fd();
  ASSERT_TRUE(SetIoTimeout(fd, 10.0).ok());
  ASSERT_TRUE(WriteAll(fd, bytes).ok());

  auto frame = ReadRawFrame(fd);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame.value().type, wire::MessageType::kError);

  // Then the server closes: the next read sees EOF, not a hang.
  std::string rest;
  util::Status eof = ReadExact(fd, 1, &rest);
  EXPECT_FALSE(eof.ok());
}

TEST(NetServerTest, ApproxQueriesServeOverTheWire) {
  const Fixture& f = SharedFixture();
  TestServer server;
  Client client(MakeClientConfig(server.port()));
  ASSERT_TRUE(client.Connect().ok());

  for (const uint8_t mode : {uint8_t{0}, uint8_t{1}}) {
    wire::ApproxRequest request;
    request.mode = mode;
    request.seed = 99 + mode;
    request.samples = 64;
    request.confidence = 0.95;
    request.pattern = f.db.graph(3);
    auto reply = client.Approx(request);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();

    // The wire reply must be byte-identical to the in-process estimate
    // under ProcessApprox's config (num_threads = 1).
    serve::ApproxQueryConfig config;
    config.mode = static_cast<approx::ApproxMode>(request.mode);
    config.seed = request.seed;
    config.samples = static_cast<int32_t>(request.samples);
    config.confidence = request.confidence;
    config.num_threads = 1;
    auto expected = f.catalog->ApproxQuery(request.pattern, config);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    EXPECT_EQ(
        wire::EncodeApproxReply(reply.value()),
        wire::EncodeApproxReply(wire::ReplyFromApprox(expected.value())));
    EXPECT_EQ(reply.value().db_size, f.db.size());
  }

  // A sample count above the serving cap is refused with an error reply,
  // not served; the connection stays usable afterwards.
  wire::ApproxRequest oversized;
  oversized.samples =
      static_cast<uint32_t>(serve::kMaxApproxSamplesPerQuery) + 1;
  oversized.pattern = f.db.graph(0);
  EXPECT_FALSE(client.Approx(oversized).ok());
  wire::ApproxRequest again;
  again.pattern = f.db.graph(0);
  EXPECT_TRUE(client.Approx(again).ok());
}

TEST(NetServerTest, MalformedFrameGetsErrorReplyThenClose) {
  const Fixture& f = SharedFixture();
  TestServer server;

  ExpectErrorThenClose(server.port(), "this is not a GSW1 frame at all");

  const uint64_t errors_before = server.server().counters().protocol_errors;
  EXPECT_GE(errors_before, 1u);

  // A frame with a corrupted payload (CRC mismatch) is also fatal.
  const std::string query = wire::EncodeQueryRequest({{}, f.db.graph(0)});
  std::string corrupt = wire::EncodeFrame(wire::MessageType::kQuery, query);
  corrupt[wire::kFrameHeaderBytes] ^= 0x40;
  ExpectErrorThenClose(server.port(), corrupt);

  // Types 2 and 66 are unassigned: a frame of either is refused at the
  // header. The payload is a one-query batch as the retired type-2
  // request spelled it: options, a u32 count, the graph.
  const std::string batch =
      query.substr(0, 1) + std::string("\x01\0\0\0", 4) + query.substr(1);
  for (const int type : {2, 66}) {
    SCOPED_TRACE(type);
    const uint64_t before = server.server().counters().protocol_errors;
    ExpectErrorThenClose(
        server.port(),
        wire::EncodeFrame(static_cast<wire::MessageType>(type), batch));
    EXPECT_EQ(server.server().counters().protocol_errors, before + 1);
  }

  // The server survives all of them: a fresh client still gets served.
  Client client(MakeClientConfig(server.port()));
  ASSERT_TRUE(client.Connect().ok());
  auto reply = client.Query(f.db.graph(0));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(wire::EncodeQueryReply(reply.value()),
            ExpectedReplyBytes(f.db.graph(0)));
  EXPECT_GE(server.server().counters().protocol_errors, errors_before + 1);
}

TEST(NetServerTest, FrameFromAnotherWireVersionGetsErrorThenClose) {
  const Fixture& f = SharedFixture();
  TestServer server;

  // A client built at wire version 4 stamped every Query frame 1. The
  // server refuses it on the header, counts a protocol error and closes.
  std::string old_query = wire::EncodeFrame(
      wire::MessageType::kQuery,
      wire::EncodeQueryRequest({{}, f.db.graph(0)}));
  old_query[4] = 1;
  const uint64_t errors_before = server.server().counters().protocol_errors;
  ExpectErrorThenClose(server.port(), old_query);
  EXPECT_EQ(server.server().counters().protocol_errors, errors_before + 1);
}

TEST(NetServerTest, InlineRequestWithPayloadGetsParseErrorAndStaysOpen) {
  TestServer server;
  auto socket = ConnectTcp("127.0.0.1", server.port(), 5.0);
  ASSERT_TRUE(socket.ok()) << socket.status().ToString();
  const int fd = socket.value().fd();
  ASSERT_TRUE(SetIoTimeout(fd, 10.0).ok());

  // The byte 0x04 is the Stats request a version-4 client sent; Health
  // never had a payload.
  const std::pair<wire::MessageType, std::string> malformed[] = {
      {wire::MessageType::kStats, std::string(1, '\x04')},
      {wire::MessageType::kHealth, std::string(1, '\0')}};
  for (const auto& [type, payload] : malformed) {
    SCOPED_TRACE(wire::MessageTypeName(type));
    ASSERT_TRUE(WriteAll(fd, wire::EncodeFrame(type, payload)).ok());
    auto error = ReadRawFrame(fd);
    ASSERT_TRUE(error.ok()) << error.status().ToString();
    ASSERT_EQ(error.value().type, wire::MessageType::kError);
    auto decoded = wire::DecodeErrorReply(error.value().payload);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded.value().code, util::StatusCode::kParseError);

    // The same connection still answers a plain Health.
    ASSERT_TRUE(
        WriteAll(fd, wire::EncodeFrame(wire::MessageType::kHealth, "")).ok());
    auto health = ReadRawFrame(fd);
    ASSERT_TRUE(health.ok()) << health.status().ToString();
    EXPECT_EQ(health.value().type, wire::MessageType::kHealthReply);
  }
  // A bad payload is a request error, not a protocol error: the frame
  // stream is still in sync.
  EXPECT_EQ(server.server().counters().protocol_errors, 0u);
}

TEST(NetServerTest, OversizedFrameAnnouncementIsRejected) {
  ServerConfig config;
  config.max_frame_bytes = 1024;
  TestServer server(config);

  // A header announcing 1 MiB against a 1 KiB cap: the server must
  // reject on the header alone — no buffering of the announced size.
  ExpectErrorThenClose(server.port(),
                       wire::EncodeFrame(wire::MessageType::kQuery,
                                         std::string(1 << 20, 'x'))
                           .substr(0, wire::kFrameHeaderBytes));
}

TEST(NetServerTest, TruncatedWriteThenDisconnectIsSurvivable) {
  const Fixture& f = SharedFixture();
  TestServer server;

  {
    // Half a frame, then the peer vanishes.
    auto socket = ConnectTcp("127.0.0.1", server.port(), 5.0);
    ASSERT_TRUE(socket.ok());
    const std::string frame = wire::EncodeFrame(
        wire::MessageType::kQuery,
        wire::EncodeQueryRequest({{}, f.db.graph(0)}));
    ASSERT_TRUE(WriteAll(socket.value().fd(),
                         frame.substr(0, frame.size() / 2))
                    .ok());
  }  // socket closes here

  // The server shrugs it off and keeps serving.
  Client client(MakeClientConfig(server.port()));
  ASSERT_TRUE(client.Connect().ok());
  auto reply = client.Query(f.db.graph(1));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(wire::EncodeQueryReply(reply.value()),
            ExpectedReplyBytes(f.db.graph(1)));
}

TEST(NetServerTest, AdmissionFullAnswersRetryLater) {
  const Fixture& f = SharedFixture();
  ServerConfig config;
  config.max_inflight_requests = 0;  // every query over budget
  TestServer server(config);

  Client client(MakeClientConfig(server.port()));
  ASSERT_TRUE(client.Connect().ok());
  auto reply = client.Query(f.db.graph(0));
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), util::StatusCode::kUnavailable);

  // Backpressure is per-request, not per-connection: the same
  // connection still answers Stats/Health (served inline) afterwards.
  auto health = client.Health();
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_TRUE(health.value().ok);
  EXPECT_GE(server.server().counters().retries_sent, 1u);
}

TEST(NetServerTest, DrainFlushesInflightRepliesBeforeExit) {
  const Fixture& f = SharedFixture();
  TestServer server;

  // Pipeline a burst of queries raw, then request shutdown while they
  // are (potentially) still in flight. Drain semantics: every accepted
  // request's reply must still arrive, then the connection closes.
  constexpr int kBurst = 16;
  auto socket = ConnectTcp("127.0.0.1", server.port(), 5.0);
  ASSERT_TRUE(socket.ok());
  const int fd = socket.value().fd();
  ASSERT_TRUE(SetIoTimeout(fd, 30.0).ok());
  std::string burst;
  for (int i = 0; i < kBurst; ++i) {
    burst += wire::EncodeFrame(
        wire::MessageType::kQuery,
        wire::EncodeQueryRequest(
            {{}, f.db.graph(static_cast<size_t>(i) % f.db.size())}));
  }
  ASSERT_TRUE(WriteAll(fd, burst).ok());
  // Wait until the loop has read and dispatched the whole burst, then
  // start the drain while (some of) those requests are still in flight.
  // Drain stops *reads*, not dispatched work: every accepted request's
  // reply must still arrive.
  while (server.server().counters().frames_received <
         static_cast<uint64_t>(kBurst)) {
    std::this_thread::yield();
  }
  server.server().RequestShutdown();

  // Read replies frame by frame; the socket is blocking with a generous
  // timeout.
  int replies = 0;
  for (; replies < kBurst; ++replies) {
    auto frame = ReadRawFrame(fd);
    ASSERT_TRUE(frame.ok()) << "connection died after " << replies
                            << " replies: " << frame.status().ToString();
    ASSERT_EQ(frame.value().type, wire::MessageType::kQueryReply);
    auto decoded = wire::DecodeQueryReply(frame.value().payload);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(wire::EncodeQueryReply(decoded.value()),
              ExpectedReplyBytes(
                  f.db.graph(static_cast<size_t>(replies) % f.db.size())));
  }
  EXPECT_EQ(replies, kBurst);

  // After the last reply the server closes the connection and Serve()
  // returns (TestServer::Shutdown checks its status).
  server.Shutdown();
}

TEST(NetServerTest, NewConnectionsRefusedWhileDraining) {
  TestServer server;
  const uint16_t port = server.port();
  server.Shutdown();  // full drain: listener closed

  Client client(MakeClientConfig(port));
  util::Status connected = client.Connect();
  EXPECT_FALSE(connected.ok());
}

}  // namespace
}  // namespace graphsig::net
