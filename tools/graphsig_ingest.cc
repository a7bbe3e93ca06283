// graphsig_ingest: the streaming half of the pipeline (DESIGN.md §16).
// Appends graph batches to an append-only ingest log, then mines the
// whole logged database cold with core::GraphSig::Mine and writes a
// model artifact stamped with the log's generation for graphsig_serve
// to hot-swap in.
//
//   graphsig_ingest --log=FILE [--append=FILE] [--format=smiles|sdf|gspan]
//                   [--output=model.gsig] [--mine] [--tarone-alpha=A]
//                   [--max-pvalue=0.1] [--min-freq=0.1] [--radius=8]
//                   [--fsg-freq=80] [--threads=1 (0 = auto)]
//                   [--no-frequency] [--metrics-out=FILE]
//
// One invocation = append (optional) then mine (when --mine or --output
// is given). The artifact is a pure function of the log's graphs and
// the mining flags, at any thread count. Checkpoint records in a log
// written by an older build are skipped.

#include <cstdio>

#include <optional>
#include <string>
#include <utility>

#include "core/graphsig.h"
#include "graph/statistics.h"
#include "model/artifact.h"
#include "stream/ingest_log.h"
#include "tools/tool_util.h"

int main(int argc, char** argv) {
  using namespace graphsig;
  tools::Flags flags(argc, argv);
  const std::string log_path = flags.GetString("log", "");
  if (log_path.empty()) {
    std::fprintf(stderr,
                 "usage: graphsig_ingest --log=FILE [--append=FILE] "
                 "[--format=smiles|sdf|gspan] [--output=FILE] [--mine] "
                 "[--tarone-alpha=A] [--max-pvalue=P] [--min-freq=F%%] "
                 "[--radius=R] "
                 "[--fsg-freq=F%%] [--threads=N (0 = auto)] "
                 "[--no-frequency] [--metrics-out=FILE]\n");
    return 1;
  }

  std::optional<core::GraphSigConfig> config =
      tools::MiningConfigFromFlags(flags);
  const std::optional<double> tarone_alpha = tools::FlagInRange(
      flags, "tarone-alpha", core::GraphSigConfig().tarone_alpha, 0.0, 1.0);
  if (!config || !tarone_alpha) return 1;
  config->tarone_alpha = *tarone_alpha;

  auto opened = stream::IngestLog::Open(log_path);
  if (!opened.ok()) tools::Fail(opened.status());
  stream::IngestLog log = std::move(opened).value();
  std::printf("log %s: %zu batches, generation %llu\n", log_path.c_str(),
              log.contents().batches.size(),
              static_cast<unsigned long long>(log.last_generation()));

  const std::string append_path = flags.GetString("append", "");
  if (!append_path.empty()) {
    auto batch = tools::LoadDatabase(append_path,
                                     flags.GetString("format", "smiles"));
    if (!batch.ok()) tools::Fail(batch.status());
    if (batch.value().empty()) {
      std::fprintf(stderr, "error: %s holds no graphs\n",
                   append_path.c_str());
      return 1;
    }
    auto generation = log.AppendBatch(batch.value().graphs());
    if (!generation.ok()) tools::Fail(generation.status());
    std::printf("appended %zu graphs as generation %llu\n",
                batch.value().size(),
                static_cast<unsigned long long>(generation.value()));
  }

  const std::string output = flags.GetString("output", "");
  const bool mine = flags.GetBool("mine") || !output.empty();
  if (mine) {
    if (log.last_generation() == 0) {
      std::fprintf(stderr, "error: nothing to mine (log is empty)\n");
      return 1;
    }
    graph::GraphDatabase db = log.ReplayDatabase();
    std::printf("mining %s\n", graph::DescribeDatabase(db).c_str());
    core::GraphSigResult result = core::GraphSig(*config).Mine(db);
    std::printf("mined %zu significant subgraphs in %.2fs\n",
                result.subgraphs.size(), result.profile.total_seconds);
    if (config->tarone_alpha > 0) {
      std::printf("tarone: family %lld, delta* %.3e, %lld filtered\n",
                  static_cast<long long>(result.stats.tarone_family_size),
                  result.stats.tarone_delta_star,
                  static_cast<long long>(
                      result.stats.tarone_filtered_vectors));
    }

    if (!output.empty()) {
      model::ModelArtifact artifact;
      artifact.database = std::move(db);
      artifact.feature_space = std::move(result.feature_space);
      artifact.catalog = std::move(result.subgraphs);
      artifact.generation = log.last_generation();
      artifact.tarone_alpha = config->tarone_alpha;
      artifact.tarone_delta_star = result.stats.tarone_delta_star;
      artifact.tarone_family_size =
          static_cast<uint64_t>(result.stats.tarone_family_size);
      artifact.tarone_filtered =
          static_cast<uint64_t>(result.stats.tarone_filtered_vectors);
      util::Status saved = model::SaveArtifact(artifact, output);
      if (!saved.ok()) tools::Fail(saved);
      std::printf("artifact written to %s (generation %llu, %zu graphs, "
                  "%zu patterns)\n",
                  output.c_str(),
                  static_cast<unsigned long long>(artifact.generation),
                  artifact.database.size(), artifact.catalog.size());
    }
  }

  const std::string metrics_path = flags.GetString("metrics-out", "");
  if (!metrics_path.empty()) {
    util::Status written = tools::WriteMetricsJson(metrics_path);
    if (!written.ok()) tools::Fail(written);
    std::printf("metrics written to %s\n", metrics_path.c_str());
  }
  return 0;
}
