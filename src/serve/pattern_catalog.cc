#include "serve/pattern_catalog.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "graph/isomorphism.h"
#include "obs/metrics.h"
#include "util/parallel.h"
#include "util/strings.h"
#include "util/timer.h"

namespace graphsig::serve {

LatencySummary SummarizeLatencies(std::vector<double> latencies_ms,
                                  double wall_seconds) {
  LatencySummary summary;
  summary.count = latencies_ms.size();
  summary.wall_seconds = wall_seconds;
  if (latencies_ms.empty()) return summary;
  std::sort(latencies_ms.begin(), latencies_ms.end());
  // Nearest-rank percentile: ceil(p * n) elements at or below the value.
  auto rank = [&](double p) {
    size_t r = static_cast<size_t>(
        std::ceil(p * static_cast<double>(latencies_ms.size())));
    if (r == 0) r = 1;
    return latencies_ms[r - 1];
  };
  summary.p50_ms = rank(0.50);
  summary.p95_ms = rank(0.95);
  summary.max_ms = latencies_ms.back();
  if (wall_seconds > 0.0) {
    summary.qps = static_cast<double>(latencies_ms.size()) / wall_seconds;
  }
  return summary;
}

util::Result<PatternCatalog> PatternCatalog::FromArtifact(
    model::ModelArtifact artifact) {
  PatternCatalog catalog;
  catalog.artifact_ = std::move(artifact);
  if (!catalog.artifact_.classifier.empty()) {
    catalog.classifier_ = classify::GraphSigClassifier::FromModel(
        catalog.artifact_.classifier);
  }

  // Anchor selection ranks labels by database frequency so each pattern
  // is indexed under its most selective label; labels the database never
  // saw rank rarest of all.
  const std::map<graph::Label, int64_t> db_counts =
      catalog.artifact_.database.VertexLabelCounts();
  auto db_count = [&](graph::Label label) -> int64_t {
    auto it = db_counts.find(label);
    return it == db_counts.end() ? 0 : it->second;
  };

  catalog.signatures_.reserve(catalog.artifact_.catalog.size());
  for (size_t i = 0; i < catalog.artifact_.catalog.size(); ++i) {
    const graph::Graph& pattern = catalog.artifact_.catalog[i].subgraph;
    if (pattern.num_vertices() == 0) {
      return util::Status::FailedPrecondition(
          "catalog contains an empty pattern graph");
    }
    catalog.signatures_.push_back(graph::SignatureOf(pattern));
    graph::Label anchor = pattern.vertex_label(0);
    for (graph::VertexId v = 1; v < pattern.num_vertices(); ++v) {
      const graph::Label label = pattern.vertex_label(v);
      if (db_count(label) < db_count(anchor) ||
          (db_count(label) == db_count(anchor) && label < anchor)) {
        anchor = label;
      }
    }
    catalog.patterns_by_anchor_[anchor].push_back(static_cast<int32_t>(i));
  }
  return catalog;
}

util::Result<PatternCatalog> PatternCatalog::LoadFromFile(
    const std::string& path) {
  auto artifact = model::LoadArtifact(path);
  if (!artifact.ok()) return artifact.status();
  return FromArtifact(std::move(artifact).value());
}

PatternCatalog::AnchorMatches PatternCatalog::MatchAnchors(
    const graph::Graph& query, const QueryProfile& profile,
    const std::map<graph::Label, std::vector<int32_t>>& anchors) const {
  AnchorMatches out;
  for (const graph::ContainmentSignature::LabelRun& run : profile.labels) {
    auto it = anchors.find(run.label);
    if (it == anchors.end()) continue;
    for (int32_t pattern_id : it->second) {
      if (!graph::SignatureAdmits(signatures_[pattern_id], profile)) continue;
      ++out.iso_calls;
      if (graph::IsSubgraphIsomorphic(artifact_.catalog[pattern_id].subgraph,
                                      query)) {
        out.matched_patterns.push_back(pattern_id);
      }
    }
  }
  return out;
}

QueryResult PatternCatalog::Query(const graph::Graph& query,
                                  const CatalogQueryConfig& config) const {
  util::WallTimer timer;
  QueryResult result;
  if (config.compute_matches && !signatures_.empty()) {
    const graph::ContainmentSignature profile = graph::SignatureOf(query);
    AnchorMatches matches = MatchAnchors(query, profile, patterns_by_anchor_);
    result.matched_patterns = std::move(matches.matched_patterns);
    result.iso_calls = matches.iso_calls;
    // Patterns whose anchor label the query lacks count as pruned too:
    // the index skipped them without even touching their signature.
    result.pruned =
        static_cast<int32_t>(signatures_.size()) - result.iso_calls;
    std::sort(result.matched_patterns.begin(),
              result.matched_patterns.end());
  }
  if (config.compute_score && has_classifier()) {
    result.score = classifier_.Score(query);
    result.has_score = true;
  }
  result.latency_ms = timer.ElapsedMillis();
  {
    // Per-query totals are pure functions of (query, catalog), so the
    // registry copies are deterministic work counters; the latency
    // histogram is advisory (DESIGN.md §12).
    auto& registry = obs::MetricsRegistry::Global();
    static obs::Counter* const queries =
        registry.GetCounter("serve/queries");
    static obs::Counter* const iso_calls =
        registry.GetCounter("serve/iso_calls");
    static obs::Counter* const pruned = registry.GetCounter("serve/pruned");
    static obs::Counter* const matches =
        registry.GetCounter("serve/pattern_matches");
    static obs::Histogram* const latency_us = registry.GetHistogram(
        "serve/query_latency_us",
        {50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000, 100000,
         500000});
    queries->Increment();
    iso_calls->Add(static_cast<uint64_t>(result.iso_calls));
    pruned->Add(static_cast<uint64_t>(result.pruned));
    matches->Add(result.matched_patterns.size());
    latency_us->Observe(static_cast<uint64_t>(result.latency_ms * 1000.0));
  }
  AggregateServingStats(result);
  return result;
}

void PatternCatalog::AggregateServingStats(const QueryResult& result) const {
  util::MutexLock lock(&counters_->mutex);
  ServingStats& stats = counters_->stats;
  ++stats.queries;
  stats.total_latency_ms += result.latency_ms;
  stats.max_latency_ms = std::max(stats.max_latency_ms, result.latency_ms);
  stats.iso_calls += result.iso_calls;
  stats.pruned += result.pruned;
  stats.pattern_matches +=
      static_cast<int64_t>(result.matched_patterns.size());
}

util::Result<ApproxResult> PatternCatalog::ApproxQuery(
    const graph::Graph& pattern, const ApproxQueryConfig& config) const {
  if (config.samples > kMaxApproxSamplesPerQuery) {
    return util::Status::InvalidArgument(util::StrPrintf(
        "approx sample count %d exceeds per-query cap %d", config.samples,
        kMaxApproxSamplesPerQuery));
  }
  ApproxResult result;
  result.mode = config.mode;
  result.samples = config.samples;
  result.db_size = artifact_.database.size();
  switch (config.mode) {
    case approx::ApproxMode::kSupport: {
      approx::SupportConfig support;
      support.seed = config.seed;
      support.num_samples = config.samples;
      support.confidence = config.confidence;
      support.num_threads = config.num_threads;
      GS_ASSIGN_OR_RETURN(
          const approx::SupportEstimate estimate,
          approx::EstimateSupport(artifact_.database, pattern, support));
      result.estimate = estimate.support;
      result.ci = estimate.support_ci;
      result.hits = estimate.hits;
      break;
    }
    case approx::ApproxMode::kFrequency: {
      approx::FrequencyConfig frequency;
      frequency.seed = config.seed;
      frequency.num_walks = config.samples;
      frequency.confidence = config.confidence;
      frequency.num_threads = config.num_threads;
      GS_ASSIGN_OR_RETURN(
          const approx::FrequencyEstimate estimate,
          approx::EstimateFrequency(artifact_.database, pattern, frequency));
      result.estimate = estimate.embeddings;
      result.ci = estimate.ci;
      result.hits = estimate.hits;
      break;
    }
  }
  // Only successful estimates count: the smoke script cross-checks this
  // counter against the loadgen's per-class OK totals.
  static obs::Counter* const approx_queries =
      obs::MetricsRegistry::Global().GetCounter("serve/approx_queries");
  approx_queries->Increment();
  return result;
}

ServingStats PatternCatalog::Snapshot() const {
  util::MutexLock lock(&counters_->mutex);
  return counters_->stats;
}

void PatternCatalog::ResetStats() const {
  util::MutexLock lock(&counters_->mutex);
  counters_->stats = ServingStats{};
}

std::vector<QueryResult> PatternCatalog::QueryBatch(
    const std::vector<graph::Graph>& queries,
    const CatalogQueryConfig& config) const {
  const int threads =
      config.num_threads == 0 ? util::HardwareThreads() : config.num_threads;
  std::vector<QueryResult> results(queries.size());
  // Each query writes only its own slot, so the batch is deterministic;
  // the claim loops run on the shared persistent pool.
  util::ParallelFor(threads, queries.size(), [&](size_t i) {
    results[i] = Query(queries[i], config);
  });
  return results;
}

}  // namespace graphsig::serve
