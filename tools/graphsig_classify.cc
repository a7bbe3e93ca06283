// graphsig_classify: train the significant-pattern classifier on one
// file and score another.
//
//   graphsig_classify --train=train.smi --test=test.smi
//                     [--format=smiles|sdf|gspan] [--k=9]
//                     [--max-pvalue=0.1] [--min-freq=0.1]
//                     [--threads=1 (0 = auto)] [--predictions=out.tsv]
//
// Prints AUC over the test file (using its tags as truth) and optionally
// writes per-graph scores.

#include <cstdint>
#include <cstdio>

#include <limits>
#include <optional>

#include "classify/auc.h"
#include "classify/sig_knn.h"
#include "tools/tool_util.h"
#include "util/parallel.h"
#include "util/strings.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace graphsig;
  tools::Flags flags(argc, argv);
  const std::string train_path = flags.GetString("train", "");
  const std::string test_path = flags.GetString("test", "");
  if (train_path.empty() || test_path.empty()) {
    std::fprintf(stderr,
                 "usage: graphsig_classify --train=FILE --test=FILE "
                 "[--format=smiles|sdf|gspan] [--k=9] [--max-pvalue=P] "
                 "[--min-freq=F%%] [--threads=N (0 = auto)] "
                 "[--predictions=FILE] [--metrics-out=FILE]\n");
    return 1;
  }
  const std::optional<core::GraphSigConfig> mining =
      tools::MiningConfigFromFlags(flags);
  const std::optional<int64_t> k = tools::FlagInRange<int64_t>(
      flags, "k", classify::SigKnnConfig{}.k, 1,
      std::numeric_limits<int>::max());
  if (!mining || !k) return 1;
  const std::string format = flags.GetString("format", "smiles");
  auto train = tools::LoadDatabase(train_path, format);
  if (!train.ok()) tools::Fail(train.status());
  auto test = tools::LoadDatabase(test_path, format);
  if (!test.ok()) tools::Fail(test.status());

  classify::SigKnnConfig config;
  config.k = static_cast<int>(*k);
  config.mining = *mining;
  const int threads = config.mining.num_threads;

  classify::GraphSigClassifier classifier(config);
  util::WallTimer train_timer;
  classifier.Train(train.value());
  std::printf("trained on %zu graphs in %.2fs (%zu positive / %zu "
              "negative significant vectors)\n",
              train.value().size(), train_timer.ElapsedSeconds(),
              classifier.positive_vectors().size(),
              classifier.negative_vectors().size());

  util::WallTimer test_timer;
  const std::vector<graph::Graph>& test_graphs = test.value().graphs();
  std::vector<double> scores(test_graphs.size());
  util::ParallelFor(threads, test_graphs.size(), [&](size_t i) {
    scores[i] = classifier.Score(test_graphs[i]);
  });
  std::vector<classify::ScoredExample> scored;
  std::string predictions = "id\ttruth\tscore\tprediction\n";
  for (size_t i = 0; i < test_graphs.size(); ++i) {
    const graph::Graph& g = test_graphs[i];
    scored.push_back({scores[i], g.tag() == 1});
    predictions += util::StrPrintf(
        "%lld\t%d\t%.6f\t%d\n", static_cast<long long>(g.id()), g.tag(),
        scores[i], scores[i] > 0.0 ? 1 : 0);
  }
  std::printf("scored %zu graphs in %.2fs\n", test.value().size(),
              test_timer.ElapsedSeconds());
  std::printf("AUC: %.4f\n", classify::AreaUnderRoc(scored));

  const std::string predictions_path = flags.GetString("predictions", "");
  if (!predictions_path.empty()) {
    util::Status written = tools::WriteFile(predictions_path, predictions);
    if (!written.ok()) tools::Fail(written);
    std::printf("predictions written to %s\n", predictions_path.c_str());
  }

  const std::string metrics_path = flags.GetString("metrics-out", "");
  if (!metrics_path.empty()) {
    util::Status written = tools::WriteMetricsJson(metrics_path);
    if (!written.ok()) tools::Fail(written);
    std::printf("metrics written to %s\n", metrics_path.c_str());
  }
  return 0;
}
