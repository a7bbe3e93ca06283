// Streaming-ingest subsystem tests (src/stream, DESIGN.md §16): the
// append-only IngestLog (round trips, torn-tail recovery, corruption
// rejection), the IncrementalMiner shell's checkpoint contract, and the
// guarantee that mining through the stream after N appends is
// byte-identical (artifact bytes AND deterministic work-counter dump)
// to a cold mine of the final database, across thread counts and batch
// splits.

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/resource.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/graphsig.h"
#include "data/datasets.h"
#include "data/smiles.h"
#include "graph/graph_database.h"
#include "model/artifact.h"
#include "obs/metrics.h"
#include "stream/incremental.h"
#include "stream/ingest_log.h"
#include "util/binary.h"

namespace graphsig::stream {
namespace {

graph::GraphDatabase SmallScreen(size_t size, uint64_t seed) {
  data::DatasetOptions options;
  options.size = size;
  options.seed = seed;
  options.active_fraction = 0.3;
  return data::MakeCancerScreen("MCF-7", options);
}

core::GraphSigConfig SmallConfig(int num_threads) {
  core::GraphSigConfig config;
  config.cutoff_radius = 3;
  config.min_freq_percent = 5.0;
  config.fsm_max_edges = 8;
  config.num_threads = num_threads;
  return config;
}

// ---------------------------------------------------------------------
// IngestLog.

TEST(IngestLogTest, OpenAppendReopenRoundTrip) {
  const std::string path = testing::TempDir() + "/ingest_roundtrip.gsl";
  ::remove(path.c_str());
  const graph::GraphDatabase db = SmallScreen(6, 3);

  {
    auto log = IngestLog::Open(path);
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    EXPECT_EQ(log.value().last_generation(), 0u);
    auto g1 = log.value().AppendBatch(
        {db.graphs().begin(), db.graphs().begin() + 4});
    ASSERT_TRUE(g1.ok());
    EXPECT_EQ(g1.value(), 1u);
    auto g2 = log.value().AppendBatch(
        {db.graphs().begin() + 4, db.graphs().end()});
    ASSERT_TRUE(g2.ok());
    EXPECT_EQ(g2.value(), 2u);
    ASSERT_TRUE(log.value().AppendCheckpoint(2, "opaque state").ok());
  }

  auto reopened = IngestLog::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const IngestLogContents& contents = reopened.value().contents();
  ASSERT_EQ(contents.batches.size(), 2u);
  EXPECT_EQ(contents.batches[0].generation, 1u);
  EXPECT_EQ(contents.batches[0].graphs.size(), 4u);
  EXPECT_EQ(contents.batches[1].generation, 2u);
  EXPECT_EQ(contents.batches[1].graphs.size(), 2u);
  EXPECT_EQ(contents.checkpoint_generation, 2u);
  EXPECT_EQ(contents.checkpoint, "opaque state");

  const graph::GraphDatabase replayed = reopened.value().ReplayDatabase();
  ASSERT_EQ(replayed.size(), db.size());
  for (size_t i = 0; i < db.size(); ++i) {
    EXPECT_EQ(replayed.graph(i).num_vertices(), db.graph(i).num_vertices());
    EXPECT_EQ(replayed.graph(i).num_edges(), db.graph(i).num_edges());
  }
}

TEST(IngestLogTest, CheckpointLastOneWins) {
  const graph::GraphDatabase db = SmallScreen(4, 4);
  std::string image(kLogMagic, 8);
  {
    util::ByteWriter w;
    w.WriteU32(kLogFormatVersion);
    image += w.buffer();
  }
  image += EncodeBatchRecord(1, db.graphs());
  image += EncodeCheckpointRecord(1, "first");
  image += EncodeCheckpointRecord(1, "second");
  auto contents = DecodeIngestLog(image);
  ASSERT_TRUE(contents.ok()) << contents.status().ToString();
  EXPECT_EQ(contents.value().checkpoint, "second");
}

TEST(IngestLogTest, TornTailRecoversValidPrefixAndTruncates) {
  const std::string path = testing::TempDir() + "/ingest_torn.gsl";
  ::remove(path.c_str());
  const graph::GraphDatabase db = SmallScreen(5, 5);
  {
    auto log = IngestLog::Open(path);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE(log.value().AppendBatch(db.graphs()).ok());
  }
  // Simulate a crash mid-append: a second record missing its tail.
  std::string full;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    full = buffer.str();
  }
  const std::string record = EncodeBatchRecord(2, db.graphs());
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out.write(record.data(),
              static_cast<std::streamsize>(record.size() / 2));
  }

  auto reopened = IngestLog::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.value().last_generation(), 1u);
  // Open truncated the torn tail: the next append must land cleanly
  // and a further reopen must see both generations.
  ASSERT_TRUE(reopened.value().AppendBatch(db.graphs()).ok());
  auto again = IngestLog::Open(path);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again.value().last_generation(), 2u);
}

TEST(IngestLogTest, TornHeaderOpensAsEmptyLog) {
  const std::string path = testing::TempDir() + "/ingest_torn_header.gsl";
  const graph::GraphDatabase db = SmallScreen(3, 8);
  std::string header(kLogMagic, 8);
  {
    util::ByteWriter w;
    w.WriteU32(kLogFormatVersion);
    header += w.buffer();
  }
  ASSERT_EQ(header.size(), 12u);
  auto write_file = [&](const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  };

  // A crash while a fresh log's header was written leaves any 1..11-byte
  // prefix of it: each opens as an empty log that takes appends.
  obs::Counter* const torn =
      obs::MetricsRegistry::Global().GetCounter("stream/log_torn_tails");
  const uint64_t torn_before = torn->value();
  for (size_t cut = 1; cut < header.size(); ++cut) {
    SCOPED_TRACE(cut);
    write_file(header.substr(0, cut));
    {
      auto log = IngestLog::Open(path);
      ASSERT_TRUE(log.ok()) << log.status().ToString();
      EXPECT_TRUE(log.value().contents().batches.empty());
      auto generation = log.value().AppendBatch(db.graphs());
      ASSERT_TRUE(generation.ok()) << generation.status().ToString();
      EXPECT_EQ(generation.value(), 1u);
    }
    auto reopened = IngestLog::Open(path);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    ASSERT_EQ(reopened.value().contents().batches.size(), 1u);
    EXPECT_EQ(reopened.value().contents().batches[0].graphs.size(),
              db.size());
  }
  EXPECT_EQ(torn->value() - torn_before, header.size() - 1);

  // A short file that is not a prefix of the header is not a log.
  write_file("ABCDE");
  auto other = IngestLog::Open(path);
  EXPECT_FALSE(other.ok());
  EXPECT_EQ(other.status().code(), util::StatusCode::kParseError);
}

TEST(IngestLogTest, FailedAppendLeavesLogUnchanged) {
  const std::string path = testing::TempDir() + "/ingest_failed_append.gsl";
  std::filesystem::remove_all(path);
  const graph::GraphDatabase db = SmallScreen(3, 9);
  auto log = IngestLog::Open(path);
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  ASSERT_TRUE(log.value().AppendBatch(db.graphs()).ok());
  const size_t valid_bytes = log.value().contents().valid_bytes;

  // A directory where the log file was: the append cannot open it.
  ASSERT_TRUE(std::filesystem::remove(path));
  ASSERT_TRUE(std::filesystem::create_directory(path));
  auto generation = log.value().AppendBatch(db.graphs());
  ASSERT_FALSE(generation.ok());
  EXPECT_EQ(generation.status().code(), util::StatusCode::kIoError);
  EXPECT_NE(generation.status().message().find("open " + path),
            std::string::npos)
      << generation.status().ToString();
  EXPECT_EQ(log.value().last_generation(), 1u);
  EXPECT_EQ(log.value().contents().valid_bytes, valid_bytes);
  std::filesystem::remove(path);
}

TEST(IngestLogTest, ShortWriteIsRolledBack) {
  const std::string path = testing::TempDir() + "/ingest_short_write.gsl";
  std::filesystem::remove_all(path);
  const graph::GraphDatabase db = SmallScreen(3, 9);
  auto log = IngestLog::Open(path);
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  ASSERT_TRUE(log.value().AppendBatch(db.graphs()).ok());
  const size_t valid_bytes = log.value().contents().valid_bytes;
  const size_t record_bytes = EncodeBatchRecord(2, db.graphs()).size();

  // A file-size limit half way into the next record: the append's first
  // write stops short at the limit and its next one fails with EFBIG
  // (SIGXFSZ ignored, so the process lives to see it).
  struct sigaction ignore = {};
  ignore.sa_handler = SIG_IGN;
  struct sigaction old_action = {};
  ASSERT_EQ(::sigaction(SIGXFSZ, &ignore, &old_action), 0);
  struct rlimit old_limit = {};
  ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &old_limit), 0);
  struct rlimit limit = old_limit;
  limit.rlim_cur = valid_bytes + record_bytes / 2;
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &limit), 0);
  auto failed = log.value().AppendBatch(db.graphs());
  const size_t size_after_failure = std::filesystem::file_size(path);
  EXPECT_EQ(::setrlimit(RLIMIT_FSIZE, &old_limit), 0);
  EXPECT_EQ(::sigaction(SIGXFSZ, &old_action, nullptr), 0);

  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), util::StatusCode::kIoError);
  EXPECT_NE(failed.status().message().find("write " + path),
            std::string::npos)
      << failed.status().ToString();
  EXPECT_EQ(size_after_failure, valid_bytes);
  EXPECT_EQ(log.value().last_generation(), 1u);
  EXPECT_EQ(log.value().contents().valid_bytes, valid_bytes);

  // The retry lands where the failed append should have.
  auto retried = log.value().AppendBatch(db.graphs());
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_EQ(retried.value(), 2u);
  auto reopened = IngestLog::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const IngestLogContents& contents = reopened.value().contents();
  ASSERT_EQ(contents.batches.size(), 2u);
  EXPECT_EQ(contents.batches[0].generation, 1u);
  EXPECT_EQ(contents.batches[1].generation, 2u);
  EXPECT_EQ(contents.valid_bytes, valid_bytes + record_bytes);
  std::filesystem::remove(path);
}

TEST(IngestLogTest, RejectsCorruptionInsideRecords) {
  const graph::GraphDatabase db = SmallScreen(4, 6);
  std::string header(kLogMagic, 8);
  {
    util::ByteWriter w;
    w.WriteU32(kLogFormatVersion);
    header += w.buffer();
  }
  // CRC mismatch: flip a payload byte of a fully present record.
  {
    std::string image = header + EncodeBatchRecord(1, db.graphs());
    image[image.size() - 1] ^= 0x01;
    EXPECT_FALSE(DecodeIngestLog(image).ok());
  }
  // Out-of-order generation (first batch must be generation 1).
  {
    const std::string image = header + EncodeBatchRecord(2, db.graphs());
    EXPECT_FALSE(DecodeIngestLog(image).ok());
  }
  // Checkpoint ahead of the last appended batch.
  {
    const std::string image = header + EncodeBatchRecord(1, db.graphs()) +
                              EncodeCheckpointRecord(5, "state");
    EXPECT_FALSE(DecodeIngestLog(image).ok());
  }
  // Bad magic.
  {
    std::string image = header + EncodeBatchRecord(1, db.graphs());
    image[0] ^= 0x01;
    EXPECT_FALSE(DecodeIngestLog(image).ok());
  }
}

// ---------------------------------------------------------------------
// IncrementalMiner checkpoints: the config fingerprint.

TEST(MineStateTest, CheckpointRoundTripsThroughRestore) {
  const core::GraphSigConfig config = SmallConfig(2);
  const std::string checkpoint = IncrementalMiner(config).Checkpoint();
  ASSERT_FALSE(checkpoint.empty());

  // Same config: restore succeeds.
  auto ok = IncrementalMiner(config).Restore(checkpoint);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_TRUE(ok.value());

  // Changed mining config: false, not an error.
  core::GraphSigConfig other = config;
  other.max_pvalue = 0.05;
  auto mismatch = IncrementalMiner(other).Restore(checkpoint);
  ASSERT_TRUE(mismatch.ok()) << mismatch.status().ToString();
  EXPECT_FALSE(mismatch.value());

  // Thread count is NOT part of the fingerprint: a checkpoint written
  // at 2 threads restores at 8.
  core::GraphSigConfig threads = config;
  threads.num_threads = 8;
  auto portable = IncrementalMiner(threads).Restore(checkpoint);
  ASSERT_TRUE(portable.ok());
  EXPECT_TRUE(portable.value());

  // The old miner's checkpoints opened with a u32 version, the
  // fingerprint and the generation, then its cached state. Such bytes,
  // whole or cut short, give false, not an error.
  util::ByteWriter parent_format;
  parent_format.WriteU32(1);
  parent_format.WriteString(checkpoint);
  parent_format.WriteU64(1);
  for (size_t size : {parent_format.size(), parent_format.size() / 2,
                      size_t{0}}) {
    SCOPED_TRACE("size=" + std::to_string(size));
    auto old = IncrementalMiner(config).Restore(
        std::string_view(parent_format.buffer()).substr(0, size));
    ASSERT_TRUE(old.ok()) << old.status().ToString();
    EXPECT_FALSE(old.value());
  }
}

// ---------------------------------------------------------------------
// The headline guarantee: mining through the stream == cold, byte for
// byte, counter dump included.

std::map<std::string, uint64_t> WorkValues() {
  return obs::MetricsRegistry::Global().WorkValues();
}

std::string ArtifactBytes(core::GraphSigResult result,
                          const graph::GraphDatabase& db) {
  model::ModelArtifact artifact;
  artifact.database = db;
  artifact.feature_space = std::move(result.feature_space);
  artifact.catalog = std::move(result.subgraphs);
  return model::EncodeArtifact(artifact);
}

void CheckIncrementalMatchesCold(int num_threads, size_t num_batches) {
  SCOPED_TRACE("threads=" + std::to_string(num_threads) +
               " batches=" + std::to_string(num_batches));
  const graph::GraphDatabase db = SmallScreen(20, 11);
  const core::GraphSigConfig config = SmallConfig(num_threads);

  // Streamed: mine after every append; only the final mine's counters
  // are compared (Reset() zeroes values but keeps every registered
  // name, so both modes dump the same key set).
  IncrementalMiner miner(config);
  graph::GraphDatabase cumulative;
  std::vector<uint64_t> generations;
  core::GraphSigResult incremental;
  const size_t per_batch = (db.size() + num_batches - 1) / num_batches;
  size_t next = 0;
  for (size_t b = 0; b < num_batches; ++b) {
    const uint64_t generation = b + 1;
    for (size_t i = 0; i < per_batch && next < db.size(); ++i, ++next) {
      cumulative.Add(db.graph(next));
      generations.push_back(generation);
    }
    if (b + 1 < num_batches) {
      miner.Mine(cumulative, generations, generation);
      // Exercise the checkpoint path mid-stream: the final mine runs
      // from a restored miner.
      IncrementalMiner restored(config);
      auto ok = restored.Restore(miner.Checkpoint());
      ASSERT_TRUE(ok.ok()) << ok.status().ToString();
      ASSERT_TRUE(ok.value());
      miner = std::move(restored);
    } else {
      obs::MetricsRegistry::Global().Reset();
      incremental = miner.Mine(cumulative, generations, generation);
    }
  }
  const std::map<std::string, uint64_t> inc_counters = WorkValues();
  const core::GraphSigStats inc_stats = incremental.stats;
  const std::string inc_bytes = ArtifactBytes(std::move(incremental), db);

  // Cold: one full mine of the final database.
  obs::MetricsRegistry::Global().Reset();
  core::GraphSig cold(config);
  core::GraphSigResult full = cold.Mine(db);
  const std::map<std::string, uint64_t> cold_counters = WorkValues();
  const core::GraphSigStats cold_stats = full.stats;
  const std::string cold_bytes = ArtifactBytes(std::move(full), db);

  EXPECT_EQ(inc_bytes, cold_bytes);
  EXPECT_EQ(inc_counters, cold_counters);
  EXPECT_EQ(inc_stats, cold_stats);
}

TEST(IncrementalMineTest, MatchesColdMineSingleThread) {
  CheckIncrementalMatchesCold(1, 1);
  CheckIncrementalMatchesCold(1, 2);
  CheckIncrementalMatchesCold(1, 5);
}

TEST(IncrementalMineTest, MatchesColdMineFourThreads) {
  CheckIncrementalMatchesCold(4, 1);
  CheckIncrementalMatchesCold(4, 2);
  CheckIncrementalMatchesCold(4, 5);
}

TEST(IncrementalMineTest, MatchesColdMineEightThreads) {
  CheckIncrementalMatchesCold(8, 1);
  CheckIncrementalMatchesCold(8, 2);
  CheckIncrementalMatchesCold(8, 5);
}

// Tarone mode rides the same guarantee: the solved threshold is a pure
// function of the family, so the streamed and cold mines agree byte for
// byte with the correction on.
void CheckTaroneIncrementalMatchesCold(uint64_t seed, double alpha) {
  SCOPED_TRACE("seed=" + std::to_string(seed) +
               " alpha=" + std::to_string(alpha));
  const graph::GraphDatabase db = SmallScreen(16, seed);
  core::GraphSigConfig config = SmallConfig(4);
  config.tarone_alpha = alpha;

  IncrementalMiner miner(config);
  graph::GraphDatabase cumulative;
  std::vector<uint64_t> generations;
  for (size_t i = 0; i < db.size() / 2; ++i) {
    cumulative.Add(db.graph(i));
    generations.push_back(1);
  }
  miner.Mine(cumulative, generations, 1);
  for (size_t i = db.size() / 2; i < db.size(); ++i) {
    cumulative.Add(db.graph(i));
    generations.push_back(2);
  }
  obs::MetricsRegistry::Global().Reset();
  core::GraphSigResult incremental = miner.Mine(cumulative, generations, 2);
  const auto inc_counters = WorkValues();

  obs::MetricsRegistry::Global().Reset();
  core::GraphSigResult full = core::GraphSig(config).Mine(db);
  const auto cold_counters = WorkValues();

  EXPECT_GT(full.stats.tarone_filtered_vectors, 0);
  EXPECT_EQ(incremental.stats, full.stats);
  EXPECT_EQ(ArtifactBytes(std::move(incremental), db),
            ArtifactBytes(std::move(full), db));
  EXPECT_EQ(inc_counters, cold_counters);
}

TEST(IncrementalMineTest, MatchesColdMineWithTarone) {
  CheckTaroneIncrementalMatchesCold(13, 0.1);
  // In these two, delta* keeps the first candidates in label order,
  // ahead of any it filters: the filter must keep them in place without
  // emptying them.
  CheckTaroneIncrementalMatchesCold(2, 1.0);
  CheckTaroneIncrementalMatchesCold(9, 1.0);
}

// Mining bumps no stream/* counter, through either entry point. Values
// are compared before and after, not key presence, so the test holds
// when other tests in the same process have registered the keys.
// (Tarone mode is off: its stream/tarone_* work counters count the
// correction, not the stream.)
TEST(IncrementalMineTest, ColdMineLeavesStreamCountersUnchanged) {
  const auto stream_values = [] {
    std::map<std::string, uint64_t> values;
    for (const auto& [name, value] : WorkValues()) {
      if (name.rfind("stream/", 0) == 0) values.emplace(name, value);
    }
    return values;
  };
  const graph::GraphDatabase db = SmallScreen(12, 17);
  const core::GraphSigConfig config = SmallConfig(2);

  const auto before = stream_values();
  core::GraphSig(config).Mine(db);
  EXPECT_EQ(stream_values(), before);
  IncrementalMiner(config).Mine(db, std::vector<uint64_t>(db.size(), 1), 1);
  EXPECT_EQ(stream_values(), before);
}

}  // namespace
}  // namespace graphsig::stream
