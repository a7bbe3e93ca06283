// graphsig_query: the online half of the serving split. Loads a model
// artifact produced by graphsig_index and answers per-molecule queries —
// matched significant patterns (exact subgraph isomorphism behind the
// anchor-label inverted index and signature pruning) plus the k-NN
// activity score — without re-mining anything.
//
//   graphsig_query --model=model.gsig [--input=FILE (default: stdin)]
//                  [--format=smiles|sdf|gspan] [--threads=0 (auto)]
//                  [--csv=FILE] [--no-matches] [--no-score] [--quiet]
//
// Molecules stream from --input or stdin. Per-molecule results go to
// stdout as text, or to --csv as one row per molecule. A latency and
// throughput summary (p50/p95/max per-query latency, wall time, QPS)
// prints at exit.

#include <cstdio>

#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>

#include "data/smiles.h"
#include "model/artifact.h"
#include "serve/pattern_catalog.h"
#include "tools/tool_util.h"
#include "util/strings.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace graphsig;
  tools::Flags flags(argc, argv);
  const std::string model_path = flags.GetString("model", "");
  if (model_path.empty()) {
    std::fprintf(stderr,
                 "usage: graphsig_query --model=FILE [--input=FILE "
                 "(default: stdin)] [--format=smiles|sdf|gspan] "
                 "[--threads=N (0 = auto)] [--csv=FILE] [--no-matches] "
                 "[--no-score] [--quiet]\n");
    return 1;
  }
  const std::optional<int64_t> threads = tools::FlagInRange<int64_t>(
      flags, "threads", 0, 0, std::numeric_limits<int>::max());
  if (!threads) return 1;

  util::WallTimer load_timer;
  auto catalog = serve::PatternCatalog::LoadFromFile(model_path);
  if (!catalog.ok()) tools::Fail(catalog.status());
  const serve::PatternCatalog& serving = catalog.value();
  std::fprintf(stderr,
               "loaded %s in %.2fs: %zu graphs indexed, %zu significant "
               "patterns, classifier: %s\n",
               model_path.c_str(), load_timer.ElapsedSeconds(),
               serving.artifact().database.size(), serving.num_patterns(),
               serving.has_classifier() ? "yes" : "no");

  // Load the query molecules from the input file or stdin.
  const std::string format = flags.GetString("format", "smiles");
  const std::string input = flags.GetString("input", "");
  graph::GraphDatabase queries;
  if (!input.empty()) {
    auto loaded = tools::LoadDatabase(input, format);
    if (!loaded.ok()) tools::Fail(loaded.status());
    queries = std::move(loaded).value();
  } else {
    std::ostringstream buffer;
    buffer << std::cin.rdbuf();
    const std::string text = buffer.str();
    util::Result<graph::GraphDatabase> parsed =
        format == "smiles" ? data::ParseSmilesLines(text)
        : format == "sdf"  ? data::ParseSdf(text)
        : format == "gspan"
            ? graph::ParseGSpanText(text, nullptr, nullptr)
            : util::Result<graph::GraphDatabase>(
                  util::Status::InvalidArgument("unknown format: " + format));
    if (!parsed.ok()) tools::Fail(parsed.status());
    queries = std::move(parsed).value();
  }
  if (queries.empty()) {
    std::fprintf(stderr, "error: no query molecules\n");
    return 1;
  }

  serve::CatalogQueryConfig config;
  config.num_threads = tools::ResolveThreads(*threads);
  config.compute_matches = !flags.GetBool("no-matches");
  config.compute_score = !flags.GetBool("no-score");

  util::WallTimer batch_timer;
  const std::vector<serve::QueryResult> results =
      serving.QueryBatch(queries.graphs(), config);
  const double wall_seconds = batch_timer.ElapsedSeconds();

  const bool quiet = flags.GetBool("quiet");
  std::string csv;
  const std::string csv_path = flags.GetString("csv", "");
  if (!csv_path.empty()) {
    csv = "index,id,tag,score,prediction,num_matches,matched_patterns\n";
  }
  for (size_t i = 0; i < results.size(); ++i) {
    const serve::QueryResult& r = results[i];
    const graph::Graph& g = queries.graph(i);
    std::string matches;
    for (size_t m = 0; m < r.matched_patterns.size(); ++m) {
      if (m > 0) matches += ';';
      matches += std::to_string(r.matched_patterns[m]);
    }
    if (!csv_path.empty()) {
      csv += util::StrPrintf(
          "%zu,%lld,%d,%.6f,%d,%zu,%s\n", i,
          static_cast<long long>(g.id()), g.tag(), r.score,
          r.has_score && r.score > 0.0 ? 1 : 0, r.matched_patterns.size(),
          matches.c_str());
    }
    if (!quiet) {
      std::string line = util::StrPrintf(
          "#%zu id=%lld", i, static_cast<long long>(g.id()));
      if (r.has_score) {
        line += util::StrPrintf(" score=%+.4f prediction=%s", r.score,
                                r.score > 0.0 ? "active" : "inactive");
      }
      if (config.compute_matches) {
        line += util::StrPrintf(" patterns=%zu", r.matched_patterns.size());
        if (!matches.empty()) line += " [" + matches + "]";
      }
      std::printf("%s\n", line.c_str());
    }
  }
  if (!csv_path.empty()) {
    util::Status written = tools::WriteFile(csv_path, csv);
    if (!written.ok()) tools::Fail(written);
    std::fprintf(stderr, "csv written to %s\n", csv_path.c_str());
  }

  std::vector<double> latencies;
  latencies.reserve(results.size());
  for (const serve::QueryResult& r : results) {
    latencies.push_back(r.latency_ms);
  }
  const serve::LatencySummary summary =
      serve::SummarizeLatencies(std::move(latencies), wall_seconds);
  std::fprintf(stderr,
               "served %zu queries in %.3fs | %.1f QPS | latency p50 "
               "%.3fms p95 %.3fms max %.3fms | threads %d\n",
               summary.count, summary.wall_seconds, summary.qps,
               summary.p50_ms, summary.p95_ms, summary.max_ms,
               config.num_threads);
  // Cumulative counters aggregated by the catalog itself (the numbers a
  // long-lived server exports through its Stats RPC); for this one-batch
  // tool they cover exactly the batch above. Snapshot() copies the whole
  // set under one lock, so the aggregates are mutually consistent.
  const serve::ServingStats stats = serving.Snapshot();
  if (config.compute_matches && serving.num_patterns() > 0) {
    const double pruned_pct =
        100.0 * static_cast<double>(stats.pruned) /
        static_cast<double>(stats.iso_calls + stats.pruned);
    std::fprintf(stderr,
                 "pattern pruning: %lld isomorphism calls, %lld candidates "
                 "pruned (%.1f%%) by the anchor index and signatures\n",
                 static_cast<long long>(stats.iso_calls),
                 static_cast<long long>(stats.pruned), pruned_pct);
  }
  std::fprintf(stderr,
               "serving counters: %lld queries | mean latency %.3fms | "
               "max %.3fms | %lld pattern matches\n",
               static_cast<long long>(stats.queries),
               stats.mean_latency_ms(), stats.max_latency_ms,
               static_cast<long long>(stats.pattern_matches));
  return 0;
}
