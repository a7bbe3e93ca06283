// graphsig_sample: the approximate mining tier (src/approx) from the
// command line. Three modes over a graph database:
//
//   --mode=topk     FS^3-style sampled top-k frequent subgraphs, each
//                   with a sampled-support confidence interval
//   --mode=support  sampled support of one --pattern (Wilson CI)
//   --mode=freq     waddling-random-walk embedding-count estimate of
//                   one --pattern (CLT CI)
//
//   graphsig_sample --input=db.smi [--format=smiles|sdf|gspan]
//                   [--mode=topk] [--k=10] [--edges=3] [--samples=2000]
//                   [--support-samples=128] [--pattern=SMILES]
//                   [--seed=1] [--confidence=0.95] [--threads=0 (auto)]
//                   [--json=FILE] [--metrics-out=FILE]
//
// Output (stdout and --json) is byte-identical for a fixed seed across
// --threads values — the determinism contract the approx tier inherits
// from the rest of the pipeline. CI diffs runs at --threads=1 and 4.

#include <cstdio>
#include <limits>
#include <string>

#include "approx/estimators.h"
#include "data/smiles.h"
#include "tools/tool_util.h"
#include "util/strings.h"

namespace {

using namespace graphsig;

std::string IntervalString(const approx::ConfidenceInterval& ci) {
  return util::StrPrintf("[%.4f, %.4f] @%g%%", ci.lo, ci.hi,
                         ci.confidence * 100.0);
}

void AppendIntervalJson(const char* name,
                        const approx::ConfidenceInterval& ci,
                        std::string* out) {
  out->append(util::StrPrintf(
      "\"%s\": {\"lo\": %.17g, \"hi\": %.17g, \"confidence\": %.17g}",
      name, ci.lo, ci.hi, ci.confidence));
}

int RunTopK(const graph::GraphDatabase& db, const approx::TopKConfig& config,
            const std::string& json_path) {
  auto result = approx::SampleTopK(db, config);
  if (!result.ok()) tools::Fail(result.status());
  const approx::TopKResult& top = result.value();
  std::printf(
      "sampled %lld subgraphs (%lld kept, %lld distinct patterns)\n",
      static_cast<long long>(top.samples_drawn),
      static_cast<long long>(top.samples_kept),
      static_cast<long long>(top.distinct_patterns));
  for (size_t i = 0; i < top.top.size(); ++i) {
    const approx::TopKCandidate& c = top.top[i];
    std::printf(
        "#%zu drawn %lld times | support ~%.2f %s | %s\n", i + 1,
        static_cast<long long>(c.times_sampled), c.support.support,
        IntervalString(c.support.support_ci).c_str(),
        c.pattern.ToString().c_str());
  }
  if (json_path.empty()) return 0;
  std::string json = "{\n  \"mode\": \"topk\",\n";
  json += util::StrPrintf(
      "  \"samples_drawn\": %lld, \"samples_kept\": %lld, "
      "\"distinct_patterns\": %lld,\n  \"top\": [\n",
      static_cast<long long>(top.samples_drawn),
      static_cast<long long>(top.samples_kept),
      static_cast<long long>(top.distinct_patterns));
  for (size_t i = 0; i < top.top.size(); ++i) {
    const approx::TopKCandidate& c = top.top[i];
    json += util::StrPrintf(
        "    {\"times_sampled\": %lld, \"support\": %.17g, ",
        static_cast<long long>(c.times_sampled), c.support.support);
    AppendIntervalJson("support_ci", c.support.support_ci, &json);
    json += util::StrPrintf(", \"pattern\": \"%s\"}%s\n",
                            c.pattern.ToString().c_str(),
                            i + 1 < top.top.size() ? "," : "");
  }
  json += "  ]\n}\n";
  util::Status written = tools::WriteFile(json_path, json);
  if (!written.ok()) tools::Fail(written);
  return 0;
}

int RunSupport(const graph::GraphDatabase& db, const graph::Graph& pattern,
               const approx::SupportConfig& config,
               const std::string& json_path) {
  auto result = approx::EstimateSupport(db, pattern, config);
  if (!result.ok()) tools::Fail(result.status());
  const approx::SupportEstimate& e = result.value();
  std::printf(
      "support ~%.2f of %zu graphs %s (%lld/%d sampled graphs hit)\n",
      e.support, db.size(), IntervalString(e.support_ci).c_str(),
      static_cast<long long>(e.hits), e.num_samples);
  if (json_path.empty()) return 0;
  std::string json = util::StrPrintf(
      "{\n  \"mode\": \"support\",\n  \"hits\": %lld, \"samples\": %d, "
      "\"fraction\": %.17g, \"support\": %.17g,\n  ",
      static_cast<long long>(e.hits), e.num_samples, e.fraction, e.support);
  AppendIntervalJson("fraction_ci", e.fraction_ci, &json);
  json += ",\n  ";
  AppendIntervalJson("support_ci", e.support_ci, &json);
  json += "\n}\n";
  util::Status written = tools::WriteFile(json_path, json);
  if (!written.ok()) tools::Fail(written);
  return 0;
}

int RunFrequency(const graph::GraphDatabase& db, const graph::Graph& pattern,
                 const approx::FrequencyConfig& config,
                 const std::string& json_path) {
  auto result = approx::EstimateFrequency(db, pattern, config);
  if (!result.ok()) tools::Fail(result.status());
  const approx::FrequencyEstimate& e = result.value();
  std::printf("embeddings ~%.2f %s (%lld/%d walks completed)\n",
              e.embeddings, IntervalString(e.ci).c_str(),
              static_cast<long long>(e.hits), e.num_walks);
  if (json_path.empty()) return 0;
  std::string json = util::StrPrintf(
      "{\n  \"mode\": \"freq\",\n  \"hits\": %lld, \"walks\": %d, "
      "\"embeddings\": %.17g,\n  ",
      static_cast<long long>(e.hits), e.num_walks, e.embeddings);
  AppendIntervalJson("ci", e.ci, &json);
  json += "\n}\n";
  util::Status written = tools::WriteFile(json_path, json);
  if (!written.ok()) tools::Fail(written);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  tools::Flags flags(argc, argv);
  const std::string input = flags.GetString("input", "");
  const std::string mode = flags.GetString("mode", "topk");
  if (input.empty()) {
    std::fprintf(
        stderr,
        "usage: graphsig_sample --input=FILE [--format=smiles|sdf|gspan] "
        "[--mode=topk|support|freq] [--k=N] [--edges=N] [--samples=N] "
        "[--support-samples=N] [--pattern=SMILES] [--seed=N] "
        "[--confidence=P] [--threads=0 (auto)] [--json=FILE] "
        "[--metrics-out=FILE]\n");
    return 1;
  }

  constexpr int64_t kIntMax = std::numeric_limits<int>::max();
  const auto seed = tools::FlagInRange<int64_t>(
      flags, "seed", 1, 0, std::numeric_limits<int64_t>::max());
  const auto confidence = tools::FlagInRange(
      flags, "confidence", 0.95, 0.0, 1.0, /*lo_open=*/true,
      /*hi_open=*/true);
  const auto threads =
      tools::FlagInRange<int64_t>(flags, "threads", 0, 0, kIntMax);
  const auto samples =
      tools::FlagInRange<int64_t>(flags, "samples", 2000, 1, kIntMax);
  const auto k = tools::FlagInRange<int64_t>(flags, "k", 10, 1, kIntMax);
  const auto edges =
      tools::FlagInRange<int64_t>(flags, "edges", 3, 1, kIntMax);
  const auto support_samples = tools::FlagInRange<int64_t>(
      flags, "support-samples", 128, 1, kIntMax);
  if (!seed || !confidence || !threads || !samples || !k || !edges ||
      !support_samples) {
    return 1;
  }

  auto db = tools::LoadDatabase(input, flags.GetString("format", "smiles"));
  if (!db.ok()) tools::Fail(db.status());

  const std::string json_path = flags.GetString("json", "");
  const std::string pattern_smiles = flags.GetString("pattern", "");

  graph::Graph pattern;
  if (mode == "support" || mode == "freq") {
    if (pattern_smiles.empty()) {
      tools::Fail(util::Status::InvalidArgument(
          "--mode=" + mode + " needs --pattern=SMILES"));
    }
    auto parsed = data::ParseSmiles(pattern_smiles);
    if (!parsed.ok()) tools::Fail(parsed.status());
    pattern = std::move(parsed).value();
  }

  const int num_threads = tools::ResolveThreads(*threads);
  int exit_code = 0;
  if (mode == "topk") {
    approx::TopKConfig config;
    config.seed = static_cast<uint64_t>(*seed);
    config.k = static_cast<int32_t>(*k);
    config.subgraph_edges = static_cast<int32_t>(*edges);
    config.num_samples = static_cast<int32_t>(*samples);
    config.support_samples = static_cast<int32_t>(*support_samples);
    config.confidence = *confidence;
    config.num_threads = num_threads;
    exit_code = RunTopK(db.value(), config, json_path);
  } else if (mode == "support") {
    approx::SupportConfig config;
    config.seed = static_cast<uint64_t>(*seed);
    config.num_samples = static_cast<int32_t>(*samples);
    config.confidence = *confidence;
    config.num_threads = num_threads;
    exit_code = RunSupport(db.value(), pattern, config, json_path);
  } else if (mode == "freq") {
    approx::FrequencyConfig config;
    config.seed = static_cast<uint64_t>(*seed);
    config.num_walks = static_cast<int32_t>(*samples);
    config.confidence = *confidence;
    config.num_threads = num_threads;
    exit_code = RunFrequency(db.value(), pattern, config, json_path);
  } else {
    tools::Fail(util::Status::InvalidArgument(
        "unknown mode: " + mode + " (want topk|support|freq)"));
  }

  const std::string metrics_path = flags.GetString("metrics-out", "");
  if (!metrics_path.empty()) {
    util::Status written = tools::WriteMetricsJson(metrics_path);
    if (!written.ok()) tools::Fail(written);
  }
  return exit_code;
}
