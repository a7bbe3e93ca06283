#ifndef GRAPHSIG_SERVE_PATTERN_CATALOG_H_
#define GRAPHSIG_SERVE_PATTERN_CATALOG_H_

// The online half of the offline-index/online-query split: PatternCatalog
// loads a model artifact (src/model/) once and then answers per-molecule
// queries — "which significant patterns does this graph contain, and what
// is its k-NN activity score?" — without touching the miner.
//
// Pattern matching is exact subgraph isomorphism, but most catalog
// patterns are rejected before any isomorphism call by two cheap layers:
//   1. an inverted index keyed on each pattern's rarest vertex label
//      (rarest over the indexed database), so a query only considers
//      patterns whose anchor label it actually contains;
//   2. per-pattern graph::ContainmentSignatures — vertex/edge counts,
//      edge-type counts and per-vertex-label sorted degree sequences —
//      that graph::SignatureAdmits tests against the query's, the same
//      test the mine runs before VF2.
// Both layers are necessary conditions for containment, so the matched
// set is identical to brute-force scanning (asserted in serve tests).

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "approx/estimators.h"
#include "classify/sig_knn.h"
#include "graph/containment_signature.h"
#include "graph/graph.h"
#include "model/artifact.h"
#include "util/status.h"
#include "util/sync.h"

namespace graphsig::serve {

struct CatalogQueryConfig {
  // Worker threads for QueryBatch; 0 = util::HardwareThreads().
  int num_threads = 0;
  // Skip the pattern-matching half (score only) or the k-NN score
  // (matches only).
  bool compute_matches = true;
  bool compute_score = true;
};

// One answered query.
struct QueryResult {
  // Indices into catalog() of every pattern contained in the query,
  // ascending.
  std::vector<int32_t> matched_patterns;
  // Distance-weighted k-NN activity score (0 when the artifact has no
  // classifier or compute_score is off).
  double score = 0.0;
  bool has_score = false;
  double latency_ms = 0.0;
  // Pruning telemetry: patterns that reached the isomorphism test vs.
  // patterns rejected by the index/signature layers.
  int32_t iso_calls = 0;
  int32_t pruned = 0;
};

// Latency/throughput summary over a batch (printed by graphsig_query).
struct LatencySummary {
  size_t count = 0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double max_ms = 0.0;
  double wall_seconds = 0.0;
  double qps = 0.0;
};

// Order statistics over per-query latencies plus throughput against the
// batch wall time. Percentiles use the nearest-rank method.
LatencySummary SummarizeLatencies(std::vector<double> latencies_ms,
                                  double wall_seconds);

// The second query class: a sampling-based estimate (src/approx) over
// the INDEXED DATABASE rather than the pattern catalog. The seed is
// part of the query, so the result is a pure function of (query,
// catalog) just like exact queries.
struct ApproxQueryConfig {
  approx::ApproxMode mode = approx::ApproxMode::kSupport;
  uint64_t seed = 1;
  // Sample draws (kSupport) or walks (kFrequency); capped server-side
  // by kMaxApproxSamplesPerQuery.
  int32_t samples = 256;
  double confidence = 0.95;
  // Estimator-internal parallelism. Server handlers keep this at 1 —
  // under load, concurrency comes from concurrent requests.
  int num_threads = 1;
};

// One request's worth of estimator work is bounded so a single frame
// cannot buy unbounded CPU (mirrors the max-frame-bytes cap).
inline constexpr int32_t kMaxApproxSamplesPerQuery = 1 << 20;

struct ApproxResult {
  approx::ApproxMode mode = approx::ApproxMode::kSupport;
  // Support count (kSupport) or total embedding count (kFrequency).
  double estimate = 0.0;
  approx::ConfidenceInterval ci;
  // Hit samples (kSupport) or completed walks (kFrequency).
  int64_t hits = 0;
  int32_t samples = 0;
  uint64_t db_size = 0;
};

// Cumulative serving telemetry across every Query()/QueryBatch() call on
// one catalog — the counters a long-lived server exports. Snapshot via
// PatternCatalog::stats().
struct ServingStats {
  int64_t queries = 0;
  double total_latency_ms = 0.0;
  double max_latency_ms = 0.0;
  int64_t iso_calls = 0;
  int64_t pruned = 0;
  int64_t pattern_matches = 0;

  double mean_latency_ms() const {
    return queries > 0 ? total_latency_ms / static_cast<double>(queries)
                       : 0.0;
  }
};

class PatternCatalog {
 public:
  // A query's containment signature, built once per query and tested
  // against every candidate pattern's. QueryProfile and BuildProfile
  // name it for callers that compose Query() from its parts.
  using QueryProfile = graph::ContainmentSignature;

  // The match work over a set of anchors: pattern ids that passed the
  // exact isomorphism test (in anchor iteration order, NOT sorted) plus
  // how many isomorphism calls that cost.
  struct AnchorMatches {
    std::vector<int32_t> matched_patterns;
    int32_t iso_calls = 0;
  };

  // Builds the serving indexes from a loaded artifact (moves it in).
  // Fails if the artifact's catalog contains an empty-graph pattern
  // (nothing in the pipeline produces one; treat as corruption).
  static util::Result<PatternCatalog> FromArtifact(
      model::ModelArtifact artifact);
  // LoadArtifact + FromArtifact.
  static util::Result<PatternCatalog> LoadFromFile(const std::string& path);

  // graph::SignatureOf(g).
  static QueryProfile BuildProfile(const graph::Graph& g) {
    return graph::SignatureOf(g);
  }

  // Runs the index/signature/isomorphism cascade for the patterns in
  // `anchors` only (patterns_by_anchor() or any subset of it). Pure —
  // no counters, no stats; Query() aggregates and flushes. Thread-safe.
  AnchorMatches MatchAnchors(
      const graph::Graph& query, const QueryProfile& profile,
      const std::map<graph::Label, std::vector<int32_t>>& anchors) const;

  // Distance-weighted k-NN activity score. Requires has_classifier().
  double ClassifierScore(const graph::Graph& query) const {
    return classifier_.Score(query);
  }

  // Answers one query. Thread-safe: the catalog is immutable after
  // construction.
  QueryResult Query(const graph::Graph& query,
                    const CatalogQueryConfig& config = {}) const;

  // Answers a batch in parallel (util::ParallelFor over queries, which
  // fans out on the persistent global ThreadPool — back-to-back batches
  // pay no thread spawn/join cost). Results are positionally aligned
  // with `queries` and identical to serial Query() calls.
  std::vector<QueryResult> QueryBatch(
      const std::vector<graph::Graph>& queries,
      const CatalogQueryConfig& config = {}) const;

  // Answers one approximate query (the wire's ApproxQuery class) over
  // the indexed database. Deterministic for a fixed config; increments
  // the serve/approx_queries work counter on success. Thread-safe.
  util::Result<ApproxResult> ApproxQuery(
      const graph::Graph& pattern, const ApproxQueryConfig& config) const;

  // Atomic snapshot of the cumulative counters: one lock acquisition
  // copies the whole aggregate set, so a reader interleaving with
  // concurrent Query() writers can never observe a torn mix (e.g. a new
  // `queries` count with an old `total_latency_ms`). Both the
  // graphsig_query exit summary and the server's Stats RPC read through
  // this.
  ServingStats Snapshot() const;
  void ResetStats() const;

  size_t num_patterns() const { return artifact_.catalog.size(); }
  bool has_classifier() const { return !artifact_.classifier.empty(); }
  // Ingest-log generation the artifact was mined at; 0 for batch
  // (non-streaming) artifacts. Reported by the server's Stats RPC so
  // clients can observe catalog hot-swaps.
  uint64_t generation() const { return artifact_.generation; }
  const std::vector<core::SignificantSubgraph>& catalog() const {
    return artifact_.catalog;
  }
  const model::ModelArtifact& artifact() const { return artifact_; }
  // The full anchor index (what Query() passes to MatchAnchors).
  const std::map<graph::Label, std::vector<int32_t>>& patterns_by_anchor()
      const {
    return patterns_by_anchor_;
  }

 private:
  PatternCatalog() = default;

  // Folds one finished query into the cumulative ServingStats (the
  // mutex-guarded aggregate Snapshot() reads).
  void AggregateServingStats(const QueryResult& result) const;

  // Heap-allocated so PatternCatalog stays movable (util::Mutex is not);
  // concurrent QueryBatch workers all aggregate into this one object.
  struct Counters {
    mutable util::Mutex mutex;
    ServingStats stats GS_GUARDED_BY(mutex);
  };

  model::ModelArtifact artifact_;
  classify::GraphSigClassifier classifier_;
  std::vector<graph::ContainmentSignature> signatures_;
  // Inverted index: anchor label (the pattern's rarest vertex label in
  // the indexed database) -> catalog indices, ascending.
  std::map<graph::Label, std::vector<int32_t>> patterns_by_anchor_;
  std::shared_ptr<Counters> counters_ = std::make_shared<Counters>();
};

}  // namespace graphsig::serve

#endif  // GRAPHSIG_SERVE_PATTERN_CATALOG_H_
