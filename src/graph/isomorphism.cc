#include "graph/isomorphism.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"
#include "util/check.h"

namespace graphsig::graph {
namespace {

// Shared backtracking state for one (pattern, target) match run. Holds
// references to both graphs; the caller keeps them alive for the run.
class Matcher {
 public:
  Matcher(const Graph& pattern, const Graph& target, uint64_t limit)
      : pattern_(pattern),
        target_(target),
        limit_(limit),
        pattern_to_target_(pattern.num_vertices(), -1),
        target_used_(target.num_vertices(), false) {
    BuildOrder();
  }

  // Runs the search. Returns the number of embeddings found (up to the
  // limit). If `capture` is non-null, the first embedding is stored there.
  // If `collect` is non-null, every embedding found is appended to it.
  uint64_t Run(std::vector<VertexId>* capture,
               std::vector<std::vector<VertexId>>* collect = nullptr) {
    capture_ = capture;
    collect_ = collect;
    found_ = 0;
    if (pattern_.num_vertices() == 0) {
      // Empty pattern: one trivial embedding.
      if (capture_ != nullptr) capture_->clear();
      if (collect_ != nullptr) collect_->emplace_back();
      return 1;
    }
    Extend(0);
    // Deterministic work counter (DESIGN.md §12): the candidate pairs
    // examined depend only on the two graphs, so the tally is
    // byte-identical for any thread count. Flushed once per run.
    static obs::Counter* const feasibility_checks =
        obs::MetricsRegistry::Global().GetCounter(
            "graph/vf2_feasibility_checks");
    feasibility_checks->Add(feasibility_checks_);
    return found_;
  }

 private:
  // Chooses a connected visit order over pattern vertices, seeded at the
  // vertex whose label is rarest in the target (cheapest first branch).
  // Disconnected patterns continue with a fresh rare seed per component.
  void BuildOrder() {
    const int n = pattern_.num_vertices();
    // Rarity of each pattern vertex: the target's count of its label,
    // tallied for the pattern's few distinct labels only.
    std::vector<std::pair<Label, int>> label_count;
    for (Label l : pattern_.vertex_labels()) {
      if (std::none_of(label_count.begin(), label_count.end(),
                       [l](const auto& lc) { return lc.first == l; })) {
        label_count.push_back({l, 0});
      }
    }
    for (Label l : target_.vertex_labels()) {
      for (auto& [label, count] : label_count) {
        if (label == l) {
          ++count;
          break;
        }
      }
    }
    std::vector<int> rarity(n, 0);
    for (VertexId v = 0; v < n; ++v) {
      for (const auto& [label, count] : label_count) {
        if (label == pattern_.vertex_label(v)) rarity[v] = count;
      }
    }

    std::vector<bool> placed(n, false);
    order_.reserve(n);
    while (static_cast<int>(order_.size()) < n) {
      // Prefer a frontier vertex (adjacent to placed ones) with max
      // placed-degree, tie-broken by rarity; otherwise seed a component.
      VertexId best = -1;
      int best_attached = -1;
      int best_rarity = INT32_MAX;
      for (VertexId v = 0; v < n; ++v) {
        if (placed[v]) continue;
        int attached = 0;
        for (const AdjEntry& e : pattern_.neighbors(v)) {
          if (placed[e.to]) ++attached;
        }
        if (!order_.empty() && attached == 0) continue;
        int r = rarity[v];
        if (attached > best_attached ||
            (attached == best_attached && r < best_rarity)) {
          best = v;
          best_attached = attached;
          best_rarity = r;
        }
      }
      if (best < 0) {
        // All remaining vertices are in untouched components; seed one.
        for (VertexId v = 0; v < n; ++v) {
          if (!placed[v]) {
            int r = rarity[v];
            if (best < 0 || r < best_rarity) {
              best = v;
              best_rarity = r;
            }
          }
        }
      }
      placed[best] = true;
      order_.push_back(best);
    }
  }

  // Can pattern vertex `pv` map to target vertex `tv` given current map?
  bool Feasible(VertexId pv, VertexId tv) {
    ++feasibility_checks_;
    if (target_used_[tv]) return false;
    if (pattern_.vertex_label(pv) != target_.vertex_label(tv)) return false;
    if (target_.degree(tv) < pattern_.degree(pv)) return false;
    for (const AdjEntry& e : pattern_.neighbors(pv)) {
      VertexId mapped = pattern_to_target_[e.to];
      if (mapped < 0) continue;
      if (target_.EdgeLabelBetween(tv, mapped) != e.label) return false;
    }
    return true;
  }

  void Extend(size_t depth) {
    if (found_ >= limit_) return;
    if (depth == order_.size()) {
      ++found_;
      if (capture_ != nullptr && found_ == 1) {
        *capture_ = pattern_to_target_;
      }
      if (collect_ != nullptr) collect_->push_back(pattern_to_target_);
      return;
    }
    const VertexId pv = order_[depth];

    // Candidate set: neighbors of an already-mapped pattern neighbor, or
    // (for component seeds) all target vertices.
    VertexId anchor_target = -1;
    for (const AdjEntry& e : pattern_.neighbors(pv)) {
      if (pattern_to_target_[e.to] >= 0) {
        anchor_target = pattern_to_target_[e.to];
        break;
      }
    }
    if (anchor_target >= 0) {
      for (const AdjEntry& e : target_.neighbors(anchor_target)) {
        TryMap(pv, e.to, depth);
        if (found_ >= limit_) return;
      }
    } else {
      for (VertexId tv = 0; tv < target_.num_vertices(); ++tv) {
        TryMap(pv, tv, depth);
        if (found_ >= limit_) return;
      }
    }
  }

  void TryMap(VertexId pv, VertexId tv, size_t depth) {
    if (!Feasible(pv, tv)) return;
    pattern_to_target_[pv] = tv;
    target_used_[tv] = true;
    Extend(depth + 1);
    pattern_to_target_[pv] = -1;
    target_used_[tv] = false;
  }

  const Graph& pattern_;
  const Graph& target_;
  const uint64_t limit_;
  std::vector<VertexId> order_;
  std::vector<VertexId> pattern_to_target_;
  std::vector<bool> target_used_;
  std::vector<VertexId>* capture_ = nullptr;
  std::vector<std::vector<VertexId>>* collect_ = nullptr;
  uint64_t found_ = 0;
  // Local tally, flushed once in Run().
  uint64_t feasibility_checks_ = 0;
};

}  // namespace

bool IsSubgraphIsomorphic(const Graph& pattern, const Graph& target) {
  if (pattern.num_vertices() > target.num_vertices()) return false;
  if (pattern.num_edges() > target.num_edges()) return false;
  Matcher matcher(pattern, target, /*limit=*/1);
  return matcher.Run(nullptr) > 0;
}

std::optional<std::vector<VertexId>> FindEmbedding(const Graph& pattern,
                                                   const Graph& target) {
  if (pattern.num_vertices() > target.num_vertices()) return std::nullopt;
  if (pattern.num_edges() > target.num_edges()) return std::nullopt;
  std::vector<VertexId> embedding;
  Matcher matcher(pattern, target, /*limit=*/1);
  if (matcher.Run(&embedding) == 0) return std::nullopt;
  return embedding;
}

uint64_t CountEmbeddings(const Graph& pattern, const Graph& target,
                         uint64_t limit) {
  if (pattern.num_vertices() > target.num_vertices()) return 0;
  if (pattern.num_edges() > target.num_edges()) return 0;
  Matcher matcher(pattern, target, limit);
  return matcher.Run(nullptr);
}

std::vector<std::vector<VertexId>> FindAllEmbeddings(const Graph& pattern,
                                                     const Graph& target,
                                                     uint64_t limit) {
  std::vector<std::vector<VertexId>> out;
  if (pattern.num_vertices() > target.num_vertices()) return out;
  if (pattern.num_edges() > target.num_edges()) return out;
  Matcher matcher(pattern, target, limit);
  matcher.Run(nullptr, &out);
  return out;
}

bool AreIsomorphic(const Graph& a, const Graph& b) {
  if (a.num_vertices() != b.num_vertices()) return false;
  if (a.num_edges() != b.num_edges()) return false;
  return IsSubgraphIsomorphic(a, b);
}

}  // namespace graphsig::graph
