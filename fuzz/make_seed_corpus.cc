// Regenerates the checked-in seed corpora under fuzz/corpus/. Run after
// a format change so the seeds stay decodable (stale seeds still must
// not crash, but decodable seeds give the fuzzer real structure to
// mutate past the CRC/section-table gates):
//
//   ./make_seed_corpus <repo-root>/fuzz/corpus
//
// Everything here is deterministic (fixed seeds, no clocks), so
// regenerated corpora are byte-identical and diff cleanly.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "classify/sig_knn.h"
#include "data/datasets.h"
#include "data/molfile.h"
#include "data/smiles.h"
#include "graph/io.h"
#include "graph/serialize.h"
#include "model/artifact.h"
#include "net/wire.h"
#include "stream/incremental.h"
#include "stream/ingest_log.h"
#include "util/binary.h"
#include "util/check.h"

namespace {

using graphsig::graph::Graph;
using graphsig::graph::GraphDatabase;

void WriteFileOrDie(const std::filesystem::path& path,
                    const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  GS_CHECK(out.good());
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  GS_CHECK(out.good());
  std::printf("wrote %s (%zu bytes)\n", path.c_str(), bytes.size());
}

GraphDatabase SmallScreen(size_t size, uint64_t seed) {
  graphsig::data::DatasetOptions options;
  options.size = size;
  options.seed = seed;
  return graphsig::data::MakeAidsLike(options);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <corpus-root>\n", argv[0]);
    return 2;
  }
  const std::filesystem::path root(argv[1]);
  std::filesystem::create_directories(root / "graph_codec");
  std::filesystem::create_directories(root / "artifact");
  std::filesystem::create_directories(root / "chem");
  std::filesystem::create_directories(root / "wire");
  std::filesystem::create_directories(root / "ingest_log");

  const GraphDatabase db = SmallScreen(6, 1);

  // graph_codec: encoded database + single graph + an empty database.
  {
    graphsig::util::ByteWriter w;
    graphsig::graph::EncodeDatabase(db, &w);
    WriteFileOrDie(root / "graph_codec" / "db_small.bin", w.buffer());
  }
  {
    graphsig::util::ByteWriter w;
    graphsig::graph::EncodeGraph(db.graph(0), &w);
    WriteFileOrDie(root / "graph_codec" / "graph_single.bin", w.buffer());
  }
  {
    graphsig::util::ByteWriter w;
    graphsig::graph::EncodeDatabase(GraphDatabase(), &w);
    WriteFileOrDie(root / "graph_codec" / "db_empty.bin", w.buffer());
  }

  // artifact: a full valid artifact (database + feature space + small
  // catalog, no classifier), the same with a hand-built classifier, and
  // a minimal empty one. Valid CRCs let the fuzzer's mutations reach the
  // section decoders.
  {
    graphsig::model::ModelArtifact artifact;
    artifact.database = db;
    artifact.feature_space =
        graphsig::features::FeatureSpace::ForChemicalDatabase(db, 4);
    graphsig::core::SignificantSubgraph sg;
    sg.subgraph = db.graph(0);
    sg.vector = {1, 0, 2, 1};
    sg.vector_pvalue = 0.01;
    sg.vector_support = 3;
    sg.anchor_label = db.graph(0).vertex_label(0);
    sg.set_size = 3;
    sg.set_support = 2;
    artifact.catalog.push_back(sg);
    WriteFileOrDie(root / "artifact" / "artifact_small.gsig",
                   graphsig::model::EncodeArtifact(artifact));

    // The classifier section over the artifact's feature space: a few
    // sparse sub-vectors per class, in [0, bins] like Discretize's
    // output, and an all-zero negative that every node vector dominates.
    graphsig::classify::SigKnnModel& model = artifact.classifier;
    model.k = 3;
    model.space = artifact.feature_space;
    const size_t width = model.space.size();
    for (size_t i = 0; i < 3; ++i) {
      graphsig::features::FeatureVec pos(width, 0), neg(width, 0);
      pos[i % width] = static_cast<int16_t>(i + 1);
      neg[(i + 1) % width] = static_cast<int16_t>(2 * i + 1);
      model.positive.push_back(pos);
      model.negative.push_back(neg);
    }
    model.negative.push_back(graphsig::features::FeatureVec(width, 0));
    WriteFileOrDie(root / "artifact" / "artifact_classifier.gsig",
                   graphsig::model::EncodeArtifact(artifact));
  }
  {
    WriteFileOrDie(root / "artifact" / "artifact_empty.gsig",
                   graphsig::model::EncodeArtifact(
                       graphsig::model::ModelArtifact{}));
  }

  // chem: one seed per accepted text format, plus edge-case SMILES
  // exercising brackets, ring closures, branches, and aromatics.
  WriteFileOrDie(root / "chem" / "lines.smi",
                 graphsig::data::WriteSmilesLines(db));
  WriteFileOrDie(root / "chem" / "screen.sdf",
                 graphsig::data::WriteSdf(db));
  {
    std::ostringstream os;
    graphsig::graph::WriteGSpanText(db, os);
    WriteFileOrDie(root / "chem" / "screen.gspan", os.str());
  }
  WriteFileOrDie(root / "chem" / "tricky.smi",
                 "c1ccccc1 1 10\n"
                 "C(=O)N 0 11\n"
                 "[Na]Cl 1 12\n"
                 "C1CC1C(C#N)=C2CCC2 0 13\n"
                 "# comment line\n"
                 "ClBr(I)F 1 14\n");

  // wire: one valid frame per message type (CRC intact so mutations
  // reach the typed decoders), a back-to-back multi-frame stream, and a
  // truncated header — the exact shapes fuzz_wire_protocol chunks up.
  {
    namespace wire = graphsig::net::wire;
    wire::QueryRequest query;
    query.options.compute_score = false;
    query.query = db.graph(0);
    WriteFileOrDie(root / "wire" / "query.bin",
                   wire::EncodeFrame(wire::MessageType::kQuery,
                                     wire::EncodeQueryRequest(query)));
    WriteFileOrDie(root / "wire" / "stats.bin",
                   wire::EncodeFrame(wire::MessageType::kStats, ""));
    WriteFileOrDie(root / "wire" / "health.bin",
                   wire::EncodeFrame(wire::MessageType::kHealth, ""));
    wire::QueryReply reply;
    reply.matched_patterns = {0, 3, 17};
    reply.has_score = true;
    reply.score = -0.25;
    reply.iso_calls = 5;
    reply.pruned = 12;
    const std::string reply_frame = wire::EncodeFrame(
        wire::MessageType::kQueryReply, wire::EncodeQueryReply(reply));
    WriteFileOrDie(root / "wire" / "query_reply.bin", reply_frame);
    wire::StatsReply stats;
    stats.serving.queries = 42;
    stats.serving.total_latency_ms = 12.5;
    stats.requests_served = 42;
    stats.frames_received = 43;
    stats.work_counters = {{"fvmine/expansions", 1234},
                           {"rwr/power_iterations", 56},
                           {"span/mine/work", 789}};
    stats.generation = 7;
    WriteFileOrDie(root / "wire" / "stats_reply.bin",
                   wire::EncodeFrame(wire::MessageType::kStatsReply,
                                     wire::EncodeStatsReply(stats)));
    // Approx tier: a support-mode request over a real graph and the
    // matching reply shape.
    wire::ApproxRequest approx;
    approx.mode = 0;
    approx.seed = 7;
    approx.samples = 64;
    approx.confidence = 0.95;
    approx.pattern = db.graph(1);
    WriteFileOrDie(root / "wire" / "approx_query.bin",
                   wire::EncodeFrame(wire::MessageType::kApproxQuery,
                                     wire::EncodeApproxRequest(approx)));
    wire::ApproxReply approx_reply;
    approx_reply.mode = 0;
    approx_reply.samples = 64;
    approx_reply.hits = 41;
    approx_reply.db_size = 6;
    approx_reply.estimate = 3.84;
    approx_reply.ci_lo = 3.1;
    approx_reply.ci_hi = 4.5;
    approx_reply.confidence = 0.95;
    WriteFileOrDie(root / "wire" / "approx_reply.bin",
                   wire::EncodeFrame(wire::MessageType::kApproxReply,
                                     wire::EncodeApproxReply(approx_reply)));
    wire::HealthReply health;
    health.ok = true;
    health.num_patterns = 64;
    health.has_classifier = true;
    WriteFileOrDie(root / "wire" / "health_reply.bin",
                   wire::EncodeFrame(wire::MessageType::kHealthReply,
                                     wire::EncodeHealthReply(health)));
    wire::ErrorReply error;
    error.code = graphsig::util::StatusCode::kInvalidArgument;
    error.message = "bad query";
    WriteFileOrDie(root / "wire" / "error.bin",
                   wire::EncodeFrame(wire::MessageType::kError,
                                     wire::EncodeErrorReply(error)));
    WriteFileOrDie(root / "wire" / "retry_later.bin",
                   wire::EncodeFrame(wire::MessageType::kRetryLater, ""));
    // Pipelined stream: three frames back to back on one "connection".
    WriteFileOrDie(root / "wire" / "pipelined.bin",
                   wire::EncodeFrame(wire::MessageType::kHealth, "") +
                       wire::EncodeFrame(wire::MessageType::kQuery,
                                         wire::EncodeQueryRequest(query)) +
                       reply_frame);
    // Truncated mid-header and mid-payload: must park as needs-more.
    WriteFileOrDie(root / "wire" / "truncated_header.bin",
                   reply_frame.substr(0, 9));
    WriteFileOrDie(root / "wire" / "truncated_payload.bin",
                   reply_frame.substr(0, reply_frame.size() - 3));
  }

  // ingest_log: a valid streaming log (two batches + a checkpoint
  // record, CRCs intact so mutations reach the payload decoders), an
  // empty log, and a torn tail the decoder must recover from. The
  // checked-in log_v1_checkpoint.bin, written by the older miner, is
  // not regenerated here: it keeps a real old-format checkpoint in the
  // corpus.
  {
    namespace stream = graphsig::stream;
    graphsig::util::ByteWriter header;
    header.WriteBytes(std::string_view(stream::kLogMagic, 8));
    header.WriteU32(stream::kLogFormatVersion);

    const GraphDatabase more = SmallScreen(4, 2);
    std::vector<Graph> batch1(db.graphs().begin(), db.graphs().end());
    std::vector<Graph> batch2(more.graphs().begin(), more.graphs().end());

    // The checkpoint bytes are exactly what IncrementalMiner::Restore
    // accepts.
    graphsig::core::GraphSigConfig config;
    config.cutoff_radius = 2;
    config.min_freq_percent = 10.0;
    config.fsm_max_edges = 6;
    const stream::IncrementalMiner miner(config);

    const std::string full = header.buffer() +
                             stream::EncodeBatchRecord(1, batch1) +
                             stream::EncodeCheckpointRecord(
                                 1, miner.Checkpoint()) +
                             stream::EncodeBatchRecord(2, batch2);
    WriteFileOrDie(root / "ingest_log" / "log_small.bin", full);
    WriteFileOrDie(root / "ingest_log" / "log_empty.bin", header.buffer());
    WriteFileOrDie(root / "ingest_log" / "log_torn.bin",
                   full.substr(0, full.size() - 5));
  }
  return 0;
}
