#include "features/selection.h"

#include <algorithm>
#include <limits>

#include "util/check.h"

namespace graphsig::features {

std::vector<AtomCoverage> CumulativeAtomCoverage(
    const graph::GraphDatabase& db) {
  auto counts = db.VertexLabelCounts();
  std::vector<AtomCoverage> out;
  int64_t total = 0;
  for (const auto& [label, count] : counts) {
    out.push_back({label, count, 0.0});
    total += count;
  }
  std::sort(out.begin(), out.end(),
            [](const AtomCoverage& a, const AtomCoverage& b) {
              if (a.count != b.count) return a.count > b.count;
              return a.label < b.label;
            });
  int64_t running = 0;
  for (AtomCoverage& row : out) {
    running += row.count;
    row.cumulative_percent =
        total > 0 ? 100.0 * static_cast<double>(running) / total : 0.0;
  }
  return out;
}

std::vector<graph::Label> TopKAtoms(const graph::GraphDatabase& db, int k) {
  auto coverage = CumulativeAtomCoverage(db);
  std::vector<graph::Label> out;
  for (int i = 0; i < k && i < static_cast<int>(coverage.size()); ++i) {
    out.push_back(coverage[i].label);
  }
  return out;
}

std::vector<size_t> GreedySelect(
    size_t num_candidates, int k,
    const std::function<double(size_t)>& importance,
    const std::function<double(size_t, size_t)>& similarity, double w1,
    double w2) {
  GS_CHECK_GE(k, 0);
  std::vector<size_t> chosen;
  std::vector<bool> used(num_candidates, false);
  while (chosen.size() < static_cast<size_t>(k) &&
         chosen.size() < num_candidates) {
    double best_score = -std::numeric_limits<double>::infinity();
    size_t best = num_candidates;
    for (size_t f = 0; f < num_candidates; ++f) {
      if (used[f]) continue;
      double penalty = 0.0;
      if (!chosen.empty()) {
        for (size_t prior : chosen) penalty += similarity(prior, f);
        penalty *= w2 / static_cast<double>(chosen.size());
      }
      const double score = w1 * importance(f) - penalty;
      if (score > best_score) {
        best_score = score;
        best = f;
      }
    }
    GS_CHECK_LT(best, num_candidates);
    used[best] = true;
    chosen.push_back(best);
  }
  return chosen;
}

std::vector<fsm::Pattern> SelectSubgraphFeatures(
    const graph::GraphDatabase& db, const SubgraphFeatureOptions& options) {
  fsm::MinerConfig miner_config;
  miner_config.min_support =
      fsm::SupportFromPercent(options.min_support_percent, db.size());
  miner_config.max_edges = options.max_edges;
  miner_config.max_patterns = options.max_candidates;
  fsm::MineResult mined = fsm::MineFrequentGSpan(db, miner_config);
  if (mined.patterns.empty()) return {};

  auto importance = [&](size_t i) {
    return static_cast<double>(mined.patterns[i].support) /
           static_cast<double>(db.size());
  };
  auto similarity = [&](size_t a, size_t b) {
    const std::vector<int32_t>& sa = mined.patterns[a].supporting;
    const std::vector<int32_t>& sb = mined.patterns[b].supporting;
    std::vector<int32_t> common;
    std::set_intersection(sa.begin(), sa.end(), sb.begin(), sb.end(),
                          std::back_inserter(common));
    const size_t unions = sa.size() + sb.size() - common.size();
    return unions == 0
               ? 0.0
               : static_cast<double>(common.size()) / unions;
  };
  std::vector<size_t> chosen =
      GreedySelect(mined.patterns.size(), options.k, importance, similarity,
                   options.w1, options.w2);
  std::vector<fsm::Pattern> out;
  out.reserve(chosen.size());
  for (size_t i : chosen) out.push_back(mined.patterns[i]);
  return out;
}

}  // namespace graphsig::features
