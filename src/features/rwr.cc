#include "features/rwr.h"

#include <cmath>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/parallel.h"

namespace graphsig::features {
namespace {

// Work counters for the power iteration (DESIGN.md §12). All three are
// deterministic: iteration counts and the float-op tally depend only on
// the graph and the config, never on scheduling. Hot loops accumulate
// into locals and flush once per source to keep the per-step cost zero.
struct RwrMetrics {
  obs::Counter* sources;
  obs::Counter* iterations;
  obs::Counter* float_ops;

  static const RwrMetrics& Get() {
    static const RwrMetrics m = {
        obs::MetricsRegistry::Global().GetCounter("rwr/sources"),
        obs::MetricsRegistry::Global().GetCounter("rwr/power_iterations"),
        obs::MetricsRegistry::Global().GetCounter("rwr/float_ops")};
    return m;
  }

  void Flush(uint64_t iters, uint64_t flops) const {
    sources->Increment();
    iterations->Add(iters);
    float_ops->Add(flops);
  }
};

// Accumulates per-feature mass from a stationary node distribution.
std::vector<double> AccumulateFeatureMass(const graph::Graph& g,
                                          const std::vector<double>& p,
                                          const FeatureSpace& features) {
  std::vector<double> mass(features.size(), 0.0);
  for (const graph::EdgeRecord& e : g.edges()) {
    const double rate_uv =
        g.degree(e.u) > 0 ? p[e.u] / g.degree(e.u) : 0.0;
    const double rate_vu =
        g.degree(e.v) > 0 ? p[e.v] / g.degree(e.v) : 0.0;
    const graph::Label lu = g.vertex_label(e.u);
    const graph::Label lv = g.vertex_label(e.v);
    const int edge_slot = features.EdgeFeature(lu, lv, e.label);
    if (edge_slot >= 0) {
      // Feature edge: traversal in either direction feeds the edge slot.
      mass[edge_slot] += rate_uv + rate_vu;
    } else {
      // Non-feature edge: arrivals feed the destination's atom slot
      // (Section II-B: "an atom-based feature is updated only when the
      // edge-type traversed is not in F").
      const int slot_v = features.VertexFeature(lv);
      if (slot_v >= 0) mass[slot_v] += rate_uv;
      const int slot_u = features.VertexFeature(lu);
      if (slot_u >= 0) mass[slot_u] += rate_vu;
    }
  }
  double total = 0.0;
  for (double m : mass) total += m;
  if (total > 0.0) {
    for (double& m : mass) m /= total;
  }
  return mass;
}

}  // namespace

// The power iteration over the whole graph. This is the hot loop of both
// GraphSig featurization and query-time classification. It accumulates
// floats in neighbor order (Graph::neighbors), so that order is part of
// every output byte.
std::vector<double> RwrStationaryDistribution(const graph::Graph& g,
                                              graph::VertexId source,
                                              const RwrConfig& config) {
  GS_CHECK_GE(source, 0);
  GS_CHECK_LT(source, g.num_vertices());
  GS_CHECK_GT(config.restart_prob, 0.0);
  GS_CHECK_LE(config.restart_prob, 1.0);
  const double alpha = config.restart_prob;
  std::vector<double> p(g.num_vertices(), 0.0);
  p[source] = 1.0;
  std::vector<double> next(g.num_vertices(), 0.0);
  uint64_t iters = 0, flops = 0;
  for (int iter = 0; iter < kRwrMaxIterations; ++iter) {
    ++iters;
    std::fill(next.begin(), next.end(), 0.0);
    double dangling = 0.0;
    for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
      if (p[v] == 0.0) continue;
      const int degree = g.degree(v);
      if (degree == 0) {
        dangling += p[v];
        ++flops;
        continue;
      }
      const double share = (1.0 - alpha) * p[v] / degree;
      flops += 2 + static_cast<uint64_t>(degree);
      for (const graph::AdjEntry& adj : g.neighbors(v)) {
        next[adj.to] += share;
      }
    }
    next[source] += alpha * (1.0 - dangling) + dangling;
    double delta = 0.0;
    for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
      delta += std::abs(next[v] - p[v]);
    }
    flops += 2 * static_cast<uint64_t>(g.num_vertices());
    p.swap(next);
    if (delta < kRwrEpsilon) break;
  }
  RwrMetrics::Get().Flush(iters, flops);
  return p;
}

std::vector<double> RwrFeatureDistribution(const graph::Graph& g,
                                           graph::VertexId source,
                                           const FeatureSpace& features,
                                           const RwrConfig& config) {
  std::vector<double> p = RwrStationaryDistribution(g, source, config);
  return AccumulateFeatureMass(g, p, features);
}

std::vector<double> CountFeatureDistribution(const graph::Graph& g,
                                             const FeatureSpace& features) {
  std::vector<double> mass(features.size(), 0.0);
  for (const graph::EdgeRecord& e : g.edges()) {
    const graph::Label lu = g.vertex_label(e.u);
    const graph::Label lv = g.vertex_label(e.v);
    const int edge_slot = features.EdgeFeature(lu, lv, e.label);
    if (edge_slot >= 0) {
      mass[edge_slot] += 1.0;
    } else {
      const int slot_u = features.VertexFeature(lu);
      if (slot_u >= 0) mass[slot_u] += 1.0;
      const int slot_v = features.VertexFeature(lv);
      if (slot_v >= 0) mass[slot_v] += 1.0;
    }
  }
  double total = 0.0;
  for (double m : mass) total += m;
  if (total > 0.0) {
    for (double& m : mass) m /= total;
  }
  return mass;
}

FeatureVec Discretize(const std::vector<double>& distribution, int bins) {
  GS_CHECK_GT(bins, 0);
  FeatureVec out(distribution.size(), 0);
  for (size_t i = 0; i < distribution.size(); ++i) {
    GS_CHECK_GE(distribution[i], -1e-12);
    int v = static_cast<int>(std::lround(distribution[i] * bins));
    if (v < 0) v = 0;
    if (v > bins) v = bins;
    out[i] = static_cast<int16_t>(v);
  }
  return out;
}

std::vector<NodeVector> GraphToVectors(const graph::Graph& g,
                                       int32_t graph_index,
                                       const FeatureSpace& features,
                                       const RwrConfig& config) {
  std::vector<NodeVector> out;
  out.reserve(g.num_vertices());
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    NodeVector nv;
    nv.graph_index = graph_index;
    nv.node = v;
    nv.node_label = g.vertex_label(v);
    const std::vector<double> distribution =
        config.featurizer == Featurizer::kRwr
            ? RwrFeatureDistribution(g, v, features, config)
            : CountFeatureDistribution(g, features);
    nv.values = Discretize(distribution, config.bins);
    out.push_back(std::move(nv));
  }
  return out;
}

std::vector<NodeVector> DatabaseToVectors(const graph::GraphDatabase& db,
                                          const FeatureSpace& features,
                                          const RwrConfig& config,
                                          int num_threads) {
  GS_TRACE_SPAN_NAMED(span, "features/vectorize");
  // Pre-size the output so each graph writes a disjoint slice and the
  // result is independent of scheduling.
  std::vector<size_t> offsets(db.size() + 1, 0);
  for (size_t i = 0; i < db.size(); ++i) {
    offsets[i + 1] = offsets[i] + db.graph(i).num_vertices();
  }
  std::vector<NodeVector> out(offsets.back());
  util::ParallelFor(num_threads, db.size(), [&](size_t i) {
    auto vectors = GraphToVectors(db.graph(i), static_cast<int32_t>(i),
                                  features, config);
    for (size_t k = 0; k < vectors.size(); ++k) {
      out[offsets[i] + k] = std::move(vectors[k]);
    }
  });
  span.AddWork(offsets.back());  // one unit per node vector produced
  return out;
}

}  // namespace graphsig::features
