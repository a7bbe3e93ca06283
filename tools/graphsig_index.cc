// graphsig_index: the offline half of the serving split. Mines the
// significant-subgraph catalog, trains the k-NN activity classifier, and
// saves everything as one versioned, checksummed model artifact that
// graphsig_query serves without re-mining.
//
//   graphsig_index --input=screen.smi --output=model.gsig
//                  [--format=smiles|sdf|gspan] [--mine-all]
//                  [--max-pvalue=0.1] [--min-freq=0.1] [--radius=8]
//                  [--fsg-freq=80] [--k=9] [--threads=1 (0 = auto)]
//                  [--no-frequency]
//
// The catalog is mined from the active class (tag 1) unless --mine-all
// is given or the input has no actives. The classifier is trained when
// both classes are present; otherwise the artifact ships without one
// (graphsig_query then reports matches only).

#include <cstdint>
#include <cstdio>

#include <limits>
#include <optional>

#include "classify/sig_knn.h"
#include "core/graphsig.h"
#include "graph/statistics.h"
#include "model/artifact.h"
#include "tools/tool_util.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace graphsig;
  tools::Flags flags(argc, argv);
  // Ctrl-C mid-write must not leave a partial output file behind.
  tools::InstallSignalGuard();
  const std::string input = flags.GetString("input", "");
  const std::string output = flags.GetString("output", "");
  if (input.empty() || output.empty()) {
    std::fprintf(stderr,
                 "usage: graphsig_index --input=FILE --output=FILE "
                 "[--format=smiles|sdf|gspan] [--mine-all] "
                 "[--max-pvalue=P] [--min-freq=F%%] [--radius=R] "
                 "[--fsg-freq=F%%] [--k=K] [--threads=N (0 = auto)] "
                 "[--no-frequency]\n");
    return 1;
  }
  const std::optional<core::GraphSigConfig> config =
      tools::MiningConfigFromFlags(flags);
  const std::optional<int64_t> k = tools::FlagInRange<int64_t>(
      flags, "k", classify::SigKnnConfig{}.k, 1,
      std::numeric_limits<int>::max());
  if (!config || !k) return 1;
  auto loaded =
      tools::LoadDatabase(input, flags.GetString("format", "smiles"));
  if (!loaded.ok()) tools::Fail(loaded.status());
  graph::GraphDatabase db = std::move(loaded).value();
  if (db.empty()) {
    std::fprintf(stderr, "error: no graphs to index\n");
    return 1;
  }

  // Mine the catalog from the actives (the paper's workload) unless the
  // caller asks for everything or no actives exist.
  graph::GraphDatabase actives = db.FilterByTag(1);
  const bool mine_all = flags.GetBool("mine-all") || actives.empty();
  const graph::GraphDatabase& mine_db = mine_all ? db : actives;
  std::printf("indexing %s\n", graph::DescribeDatabase(db).c_str());
  std::printf("mining catalog from %s (%zu graphs)\n",
              mine_all ? "all graphs" : "active class", mine_db.size());

  core::GraphSigResult mined = core::GraphSig(*config).Mine(mine_db);
  std::printf("mined %zu significant subgraphs in %.2fs\n",
              mined.subgraphs.size(), mined.profile.total_seconds);

  model::ModelArtifact artifact;
  artifact.database = std::move(db);
  artifact.feature_space = std::move(mined.feature_space);
  artifact.catalog = std::move(mined.subgraphs);

  // Train the activity model when both classes exist.
  const size_t num_active = actives.size();
  const size_t num_inactive = artifact.database.size() - num_active;
  if (num_active > 0 && num_inactive > 0) {
    classify::SigKnnConfig knn_config;
    knn_config.mining = *config;
    knn_config.k = static_cast<int>(*k);
    classify::GraphSigClassifier classifier(knn_config);
    util::WallTimer train_timer;
    classifier.Train(artifact.database);
    artifact.classifier = classifier.ExportModel();
    std::printf("trained classifier in %.2fs (%zu positive / %zu "
                "negative significant vectors)\n",
                train_timer.ElapsedSeconds(),
                artifact.classifier.positive.size(),
                artifact.classifier.negative.size());
  } else {
    std::printf("skipping classifier: need both classes (%zu active / "
                "%zu inactive)\n",
                num_active, num_inactive);
  }

  // SaveArtifact renames a complete temp file into place, so a signal
  // mid-save leaves the previous artifact, never a truncated one.
  util::Status saved = model::SaveArtifact(artifact, output);
  if (!saved.ok()) tools::Fail(saved);
  std::printf("artifact written to %s (%zu graphs, %zu patterns, "
              "classifier: %s)\n",
              output.c_str(), artifact.database.size(),
              artifact.catalog.size(),
              artifact.classifier.empty() ? "no" : "yes");
  return 0;
}
