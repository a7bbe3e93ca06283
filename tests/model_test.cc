#include <gtest/gtest.h>
#include <signal.h>
#include <sys/resource.h>

#include <filesystem>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "classify/sig_knn.h"
#include "core/graphsig.h"
#include "data/datasets.h"
#include "graph/serialize.h"
#include "model/artifact.h"
#include "util/binary.h"

namespace graphsig::model {
namespace {

// --- wire primitives --------------------------------------------------

TEST(BinaryTest, WriterReaderRoundTrip) {
  util::ByteWriter w;
  w.WriteU8(0xab);
  w.WriteU16(0xbeef);
  w.WriteU32(0xdeadbeefu);
  w.WriteU64(0x0123456789abcdefull);
  w.WriteI32(-42);
  w.WriteI64(-1234567890123ll);
  w.WriteF64(-2.5e-11);
  w.WriteString("hello");

  util::ByteReader r(w.buffer());
  uint8_t u8;
  uint16_t u16;
  uint32_t u32;
  uint64_t u64;
  int32_t i32;
  int64_t i64;
  double f64;
  std::string s;
  ASSERT_TRUE(r.ReadU8(&u8).ok());
  ASSERT_TRUE(r.ReadU16(&u16).ok());
  ASSERT_TRUE(r.ReadU32(&u32).ok());
  ASSERT_TRUE(r.ReadU64(&u64).ok());
  ASSERT_TRUE(r.ReadI32(&i32).ok());
  ASSERT_TRUE(r.ReadI64(&i64).ok());
  ASSERT_TRUE(r.ReadF64(&f64).ok());
  ASSERT_TRUE(r.ReadString(&s).ok());
  EXPECT_EQ(u8, 0xab);
  EXPECT_EQ(u16, 0xbeef);
  EXPECT_EQ(u32, 0xdeadbeefu);
  EXPECT_EQ(u64, 0x0123456789abcdefull);
  EXPECT_EQ(i32, -42);
  EXPECT_EQ(i64, -1234567890123ll);
  EXPECT_EQ(f64, -2.5e-11);
  EXPECT_EQ(s, "hello");
  EXPECT_TRUE(r.exhausted());
}

TEST(BinaryTest, ReadsPastEndFailCleanly) {
  util::ByteWriter w;
  w.WriteU16(7);
  util::ByteReader r(w.buffer());
  uint32_t u32;
  EXPECT_FALSE(r.ReadU32(&u32).ok());
  // The failed read leaves the cursor unchanged.
  uint16_t u16;
  EXPECT_TRUE(r.ReadU16(&u16).ok());
  EXPECT_EQ(u16, 7);
}

TEST(BinaryTest, TruncatedStringFails) {
  util::ByteWriter w;
  w.WriteU64(1000);  // declares far more bytes than present
  w.WriteBytes("xy");
  util::ByteReader r(w.buffer());
  std::string s;
  EXPECT_FALSE(r.ReadString(&s).ok());
}

TEST(BinaryTest, Crc32KnownVector) {
  // The standard CRC-32 check value.
  EXPECT_EQ(util::Crc32("123456789"), 0xcbf43926u);
  EXPECT_EQ(util::Crc32(""), 0u);
}

// --- graph codec ------------------------------------------------------

graph::Graph SampleGraph() {
  graph::Graph g(77);
  g.set_tag(1);
  graph::VertexId a = g.AddVertex(6);
  graph::VertexId b = g.AddVertex(7);
  graph::VertexId c = g.AddVertex(8);
  graph::VertexId d = g.AddVertex(6);
  g.AddEdge(a, b, 1);
  g.AddEdge(b, c, 2);
  g.AddEdge(c, d, 1);
  g.AddEdge(d, a, 3);
  return g;
}

TEST(GraphCodecTest, RoundTripPreservesEverything) {
  const graph::Graph g = SampleGraph();
  util::ByteWriter w;
  graph::EncodeGraph(g, &w);
  util::ByteReader r(w.buffer());
  auto decoded = graph::DecodeGraph(&r);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value(), g);
  EXPECT_TRUE(r.exhausted());
}

TEST(GraphCodecTest, EncodingIsDeterministic) {
  const graph::Graph g = SampleGraph();
  util::ByteWriter w1, w2;
  graph::EncodeGraph(g, &w1);
  graph::EncodeGraph(g, &w2);
  EXPECT_EQ(w1.buffer(), w2.buffer());
}

TEST(GraphCodecTest, DatabaseRoundTrip) {
  graph::GraphDatabase db;
  db.Add(SampleGraph());
  graph::Graph single(3);
  single.AddVertex(16);
  db.Add(single);
  util::ByteWriter w;
  graph::EncodeDatabase(db, &w);
  util::ByteReader r(w.buffer());
  auto decoded = graph::DecodeDatabase(&r);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().graphs(), db.graphs());
}

TEST(GraphCodecTest, RejectsMalformedEdgesWithoutCrashing) {
  // Hand-assemble a graph record with an out-of-range endpoint.
  auto encode_bad = [](int32_t u, int32_t v) {
    util::ByteWriter w;
    w.WriteI64(1);   // id
    w.WriteI32(0);   // tag
    w.WriteU32(2);   // vertices
    w.WriteI32(6);
    w.WriteI32(6);
    w.WriteU32(1);   // edges
    w.WriteI32(u);
    w.WriteI32(v);
    w.WriteI32(1);
    return w.TakeBuffer();
  };
  for (auto [u, v] : {std::pair<int32_t, int32_t>{0, 5},
                      {-1, 1},
                      {1, 1}}) {
    const std::string bytes = encode_bad(u, v);
    util::ByteReader r(bytes);
    auto decoded = graph::DecodeGraph(&r);
    EXPECT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), util::StatusCode::kParseError);
  }
}

TEST(GraphCodecTest, RejectsImplausibleCounts) {
  util::ByteWriter w;
  w.WriteI64(1);
  w.WriteI32(0);
  w.WriteU32(0xffffffffu);  // 4 billion vertices in a 20-byte record
  const std::string bytes = w.TakeBuffer();
  util::ByteReader r(bytes);
  auto decoded = graph::DecodeGraph(&r);
  EXPECT_FALSE(decoded.ok());
}

// --- artifact ---------------------------------------------------------

// A small mined-and-trained artifact shared by the round-trip tests.
// Built once: mining dominates the suite's runtime.
const ModelArtifact& TestArtifact() {
  static const ModelArtifact* artifact = [] {
    data::DatasetOptions options;
    options.size = 70;
    options.seed = 411;
    options.active_fraction = 0.25;
    options.molecule.min_atoms = 8;
    options.molecule.max_atoms = 16;
    graph::GraphDatabase db = data::MakeCancerScreen("MCF-7", options);

    core::GraphSigConfig mining;
    mining.cutoff_radius = 3;
    mining.min_freq_percent = 3.0;
    mining.fsm_max_edges = 12;

    auto* result = new ModelArtifact();
    core::GraphSig miner(mining);
    core::GraphSigResult mined = miner.Mine(db.FilterByTag(1));
    result->feature_space = std::move(mined.feature_space);
    result->catalog = std::move(mined.subgraphs);

    classify::SigKnnConfig knn;
    knn.mining = mining;
    classify::GraphSigClassifier classifier(knn);
    classifier.Train(db);
    result->classifier = classifier.ExportModel();
    result->database = std::move(db);
    return result;
  }();
  return *artifact;
}

void ExpectArtifactsEqual(const ModelArtifact& a, const ModelArtifact& b) {
  EXPECT_EQ(a.database.graphs(), b.database.graphs());
  EXPECT_EQ(a.feature_space, b.feature_space);
  ASSERT_EQ(a.catalog.size(), b.catalog.size());
  for (size_t i = 0; i < a.catalog.size(); ++i) {
    const core::SignificantSubgraph& x = a.catalog[i];
    const core::SignificantSubgraph& y = b.catalog[i];
    EXPECT_EQ(x.subgraph, y.subgraph);
    EXPECT_EQ(x.vector, y.vector);
    EXPECT_EQ(x.vector_pvalue, y.vector_pvalue);  // bit-exact
    EXPECT_EQ(x.vector_support, y.vector_support);
    EXPECT_EQ(x.anchor_label, y.anchor_label);
    EXPECT_EQ(x.set_size, y.set_size);
    EXPECT_EQ(x.set_support, y.set_support);
    EXPECT_EQ(x.db_frequency, y.db_frequency);
  }
  EXPECT_EQ(a.classifier.empty(), b.classifier.empty());
  EXPECT_EQ(a.classifier.k, b.classifier.k);
  EXPECT_EQ(a.classifier.delta, b.classifier.delta);
  EXPECT_EQ(a.classifier.rwr.restart_prob, b.classifier.rwr.restart_prob);
  EXPECT_EQ(a.classifier.rwr.epsilon, b.classifier.rwr.epsilon);
  EXPECT_EQ(a.classifier.rwr.max_iterations,
            b.classifier.rwr.max_iterations);
  EXPECT_EQ(a.classifier.rwr.bins, b.classifier.rwr.bins);
  EXPECT_EQ(a.classifier.rwr.radius, b.classifier.rwr.radius);
  EXPECT_EQ(a.classifier.rwr.featurizer, b.classifier.rwr.featurizer);
  EXPECT_EQ(a.classifier.space, b.classifier.space);
  EXPECT_EQ(a.classifier.positive, b.classifier.positive);
  EXPECT_EQ(a.classifier.negative, b.classifier.negative);
}

TEST(ModelArtifactTest, EncodeDecodeRoundTrip) {
  const ModelArtifact& artifact = TestArtifact();
  ASSERT_FALSE(artifact.catalog.empty());
  ASSERT_FALSE(artifact.classifier.empty());
  const std::string bytes = EncodeArtifact(artifact);
  auto decoded = DecodeArtifact(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectArtifactsEqual(artifact, decoded.value());
}

TEST(ModelArtifactTest, EncodingIsDeterministic) {
  const ModelArtifact& artifact = TestArtifact();
  EXPECT_EQ(EncodeArtifact(artifact), EncodeArtifact(artifact));
}

TEST(ModelArtifactTest, FileRoundTrip) {
  const ModelArtifact& artifact = TestArtifact();
  const std::string path = testing::TempDir() + "/model_roundtrip.gsig";
  ASSERT_TRUE(SaveArtifact(artifact, path).ok());
  auto loaded = LoadArtifact(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectArtifactsEqual(artifact, loaded.value());
}

TEST(ModelArtifactTest, FailedSaveKeepsPreviousArtifact) {
  const std::string path = testing::TempDir() + "/model_failed_save.gsig";
  const ModelArtifact previous;
  ASSERT_TRUE(SaveArtifact(previous, path).ok());
  const ModelArtifact& artifact = TestArtifact();
  const size_t new_bytes = EncodeArtifact(artifact).size();

  // A file-size limit half way into the new artifact: the save's first
  // write stops short at the limit and its next one fails with EFBIG
  // (SIGXFSZ ignored, so the process lives to see it).
  struct sigaction ignore = {};
  ignore.sa_handler = SIG_IGN;
  struct sigaction old_action = {};
  ASSERT_EQ(::sigaction(SIGXFSZ, &ignore, &old_action), 0);
  struct rlimit old_limit = {};
  ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &old_limit), 0);
  struct rlimit limit = old_limit;
  limit.rlim_cur = new_bytes / 2;
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &limit), 0);
  const util::Status failed = SaveArtifact(artifact, path);
  EXPECT_EQ(::setrlimit(RLIMIT_FSIZE, &old_limit), 0);
  EXPECT_EQ(::sigaction(SIGXFSZ, &old_action, nullptr), 0);

  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.code(), util::StatusCode::kIoError);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  auto loaded = LoadArtifact(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectArtifactsEqual(previous, loaded.value());
  std::filesystem::remove(path);
}

TEST(ModelArtifactTest, EmptyArtifactRoundTrips) {
  ModelArtifact empty;
  const std::string bytes = EncodeArtifact(empty);
  auto decoded = DecodeArtifact(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(decoded.value().database.empty());
  EXPECT_TRUE(decoded.value().catalog.empty());
  EXPECT_TRUE(decoded.value().classifier.empty());
  EXPECT_EQ(decoded.value().feature_space.size(), 0u);
}

// Re-stamps the trailing CRC after a deliberate mutation, so the test
// reaches the check the mutation targets instead of the checksum.
std::string RestampChecksum(std::string bytes) {
  util::ByteWriter w;
  w.WriteBytes(bytes);
  const uint32_t crc = util::Crc32(
      std::string_view(bytes).substr(0, bytes.size() - 4));
  w.PatchU32(bytes.size() - 4, crc);
  return std::move(w.TakeBuffer());
}

TEST(ModelArtifactTest, RejectsTruncationAtEveryCoarsePrefix) {
  const std::string bytes = EncodeArtifact(TestArtifact());
  ASSERT_GT(bytes.size(), 64u);
  // Every strict prefix must be rejected; step keeps the loop fast.
  for (size_t len : {size_t{0}, size_t{7}, size_t{15}, size_t{16},
                     bytes.size() / 4, bytes.size() / 2,
                     bytes.size() - 5, bytes.size() - 1}) {
    auto decoded = DecodeArtifact(std::string_view(bytes).substr(0, len));
    EXPECT_FALSE(decoded.ok()) << "prefix of " << len << " bytes accepted";
  }
}

TEST(ModelArtifactTest, RejectsBitFlipAnywhere) {
  const std::string pristine = EncodeArtifact(TestArtifact());
  for (size_t pos : {size_t{0}, size_t{9}, size_t{20},
                     pristine.size() / 2, pristine.size() - 1}) {
    std::string bytes = pristine;
    bytes[pos] = static_cast<char>(bytes[pos] ^ 0x40);
    auto decoded = DecodeArtifact(bytes);
    EXPECT_FALSE(decoded.ok()) << "flip at " << pos << " accepted";
  }
}

TEST(ModelArtifactTest, RejectsBadMagic) {
  std::string bytes = EncodeArtifact(TestArtifact());
  bytes[0] = 'X';
  auto decoded = DecodeArtifact(RestampChecksum(std::move(bytes)));
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), util::StatusCode::kParseError);
  EXPECT_NE(decoded.status().message().find("magic"), std::string::npos);
}

TEST(ModelArtifactTest, RejectsFutureVersion) {
  std::string bytes = EncodeArtifact(TestArtifact());
  util::ByteWriter w;
  w.WriteBytes(bytes);
  w.PatchU32(8, kFormatVersion + 1);  // version field follows the magic
  auto decoded = DecodeArtifact(RestampChecksum(std::move(w.TakeBuffer())));
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(),
            util::StatusCode::kFailedPrecondition);
  EXPECT_NE(decoded.status().message().find("newer"), std::string::npos);
}

TEST(ModelArtifactTest, IgnoresUnknownSections) {
  // Rewrite the database section's id to an unassigned value: the loader
  // must skip it (future-revision compatibility) and still decode the
  // rest, leaving the database empty.
  std::string bytes = EncodeArtifact(TestArtifact());
  util::ByteWriter w;
  w.WriteBytes(bytes);
  w.PatchU32(16, 999);  // first table entry's id (database)
  auto decoded = DecodeArtifact(RestampChecksum(std::move(w.TakeBuffer())));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(decoded.value().database.empty());
  EXPECT_EQ(decoded.value().catalog.size(), TestArtifact().catalog.size());
}

TEST(ModelArtifactTest, MissingFileIsIoError) {
  auto loaded = LoadArtifact("/nonexistent/path/model.gsig");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kIoError);
}

// Each case is a copy of the shared artifact with one classifier value
// that Score cannot run with: the loader must refuse it, not the first
// query.
TEST(ModelArtifactTest, RejectsClassifierTheScorerCannotRun) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  struct Case {
    const char* name;
    const char* field;  // the error must name it
    std::function<void(classify::SigKnnModel*)> mutate;
  };
  const std::vector<Case> cases = {
      {"wide positive vector", "positive",
       [](classify::SigKnnModel* m) {
         m->positive.back().resize(m->space.size() + 8, 1);
       }},
      {"wide negative vector", "negative",
       [](classify::SigKnnModel* m) {
         m->negative.front().resize(m->space.size() + 8, 1);
       }},
      {"narrow negative vector", "negative",
       [](classify::SigKnnModel* m) { m->negative.back().pop_back(); }},
      {"restart_prob 0", "restart_prob",
       [](classify::SigKnnModel* m) { m->rwr.restart_prob = 0.0; }},
      {"restart_prob above 1", "restart_prob",
       [](classify::SigKnnModel* m) { m->rwr.restart_prob = 1.5; }},
      {"restart_prob NaN", "restart_prob",
       [nan](classify::SigKnnModel* m) { m->rwr.restart_prob = nan; }},
      {"bins 0", "bins",
       [](classify::SigKnnModel* m) { m->rwr.bins = 0; }},
      {"k 0", "k must",
       [](classify::SigKnnModel* m) { m->k = 0; }},
      {"k negative", "k must",
       [](classify::SigKnnModel* m) { m->k = -3; }},
      {"delta 0", "delta",
       [](classify::SigKnnModel* m) { m->delta = 0.0; }},
      {"delta negative", "delta",
       [](classify::SigKnnModel* m) { m->delta = -1e-3; }},
      {"delta infinite", "delta",
       [inf](classify::SigKnnModel* m) { m->delta = inf; }},
      {"delta NaN", "delta",
       [nan](classify::SigKnnModel* m) { m->delta = nan; }},
  };
  ASSERT_FALSE(TestArtifact().classifier.positive.empty());
  ASSERT_FALSE(TestArtifact().classifier.negative.empty());
  for (const Case& c : cases) {
    ModelArtifact artifact = TestArtifact();
    c.mutate(&artifact.classifier);
    auto decoded = DecodeArtifact(EncodeArtifact(artifact));
    ASSERT_FALSE(decoded.ok()) << c.name << " decoded";
    EXPECT_EQ(decoded.status().code(), util::StatusCode::kParseError)
        << c.name;
    EXPECT_NE(decoded.status().message().find(c.field), std::string::npos)
        << c.name << ": " << decoded.status().ToString();
  }
  // restart_prob 1 and the smallest k stay valid.
  ModelArtifact edge = TestArtifact();
  edge.classifier.rwr.restart_prob = 1.0;
  edge.classifier.k = 1;
  EXPECT_TRUE(DecodeArtifact(EncodeArtifact(edge)).ok());
}

TEST(ModelArtifactTest, ClassifierScoresSurviveRoundTrip) {
  const ModelArtifact& artifact = TestArtifact();
  auto decoded = DecodeArtifact(EncodeArtifact(artifact));
  ASSERT_TRUE(decoded.ok());
  auto original =
      classify::GraphSigClassifier::FromModel(artifact.classifier);
  auto restored =
      classify::GraphSigClassifier::FromModel(decoded.value().classifier);
  for (size_t i = 0; i < artifact.database.size(); i += 7) {
    const graph::Graph& g = artifact.database.graph(i);
    EXPECT_EQ(original.Score(g), restored.Score(g));
  }
}

}  // namespace
}  // namespace graphsig::model
