#include "fvmine/fvmine.h"

#include <algorithm>
#include <deque>
#include <span>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"

namespace graphsig::fvmine {
namespace {

using features::FeatureVec;
using features::PackedSlice;
using features::PackedVectorSet;

// Deterministic work counters for the closed-vector search (DESIGN.md
// §12). The recursion accumulates into Searcher locals and flushes once
// per FvMine() call — the hot path never touches an atomic.
struct FvMineMetrics {
  obs::Counter* expansions;       // Search() states entered
  obs::Counter* support_checks;   // S' supporting-set scans
  obs::Counter* ceiling_prunes;   // subtrees cut by the optimistic bound
  obs::Counter* duplicate_prunes; // states reachable from earlier branches
  obs::Counter* significant;      // vectors emitted

  static const FvMineMetrics& Get() {
    auto& registry = obs::MetricsRegistry::Global();
    static const FvMineMetrics m = {
        registry.GetCounter("fvmine/expansions"),
        registry.GetCounter("fvmine/support_checks"),
        registry.GetCounter("fvmine/ceiling_prunes"),
        registry.GetCounter("fvmine/duplicate_prunes"),
        registry.GetCounter("fvmine/significant_vectors")};
    return m;
  }
};

class Searcher {
 public:
  Searcher(const PackedVectorSet& population,
           const stats::FeaturePriors& priors, const FvMineConfig& config)
      : population_(population), priors_(priors), config_(config) {
    GS_CHECK(!population.empty());
    GS_CHECK_EQ(priors.population_size(),
                static_cast<int64_t>(population.size()));
    width_ = population.width();
    words_ = population.words_per_vector();
    ceiling_buffer_.resize(words_);
    tarone_ = config_.tarone_alpha > 0.0;
    emit_bound_ = tarone_
                      ? std::min(config_.max_pvalue, config_.tarone_alpha)
                      : config_.max_pvalue;
  }

  FvMineResult Run() {
    GS_TRACE_SPAN_NAMED(span, "mine/fvmine");
    const size_t n = population_.size();
    std::vector<int32_t> all(n);
    for (size_t i = 0; i < n; ++i) all[i] = static_cast<int32_t>(i);
    std::vector<uint64_t> x(words_);
    population_.FloorInto(all, x.data(), &ops_);
    if (static_cast<int64_t>(n) >= config_.min_support) {
      Search(x.data(), all, 0, 0);
    }
    span.AddWork(static_cast<uint64_t>(result_.states_explored));
    const FvMineMetrics& m = FvMineMetrics::Get();
    m.expansions->Add(static_cast<uint64_t>(result_.states_explored));
    m.support_checks->Add(support_checks_);
    m.ceiling_prunes->Add(ceiling_prunes_);
    m.duplicate_prunes->Add(duplicate_prunes_);
    m.significant->Add(result_.vectors.size());
    features::FlushPackedOpStats(ops_);
    return std::move(result_);
  }

 private:
  double Evaluate(const uint64_t* x, int64_t support) const {
    return priors_.PValue(PackedSlice{x, width_}, support);
  }

  // Scratch for the children of one search depth: S' and x' of the
  // branch being tried. Every sibling branch at that depth reuses it.
  struct Level {
    std::vector<int32_t> support;
    std::vector<uint64_t> floor;
  };

  // The level for the children of a state at `depth`. A deque, so
  // growing it keeps every level, and the spans into it, in place.
  Level& LevelAt(size_t depth) {
    while (levels_.size() <= depth) {
      levels_.push_back({{}, std::vector<uint64_t>(words_)});
    }
    return levels_[depth];
  }

  // Algorithm 1: x is the current closed vector (floor of S, packed), S
  // its supporting set, b the first feature position allowed to grow,
  // and `depth` the number of growth steps from the root.
  void Search(const uint64_t* x, std::span<const int32_t> s, size_t b,
              size_t depth) {
    ++result_.states_explored;

    if (tarone_) {
      // Every evaluated state joins the testability family.
      result_.candidate_psis.push_back(
          priors_.MinAchievablePValue(PackedSlice{x, width_}));
    }
    const double p_value = Evaluate(x, static_cast<int64_t>(s.size()));
    if (p_value <= emit_bound_) {
      SignificantVector sv;
      sv.vector = features::UnpackWords(x, width_);
      sv.supporting.assign(s.begin(), s.end());
      sv.support = static_cast<int64_t>(s.size());
      sv.p_value = p_value;
      result_.vectors.push_back(std::move(sv));
    }

    // Every S' is a subset of S, so one buffer of |S| slots serves them
    // all; it only ever grows.
    Level& level = LevelAt(depth);
    if (level.support.size() < s.size()) level.support.resize(s.size());
    int32_t* s_prime = level.support.data();
    uint64_t* x_prime = level.floor.data();
    for (size_t i = b; i < width_; ++i) {
      // S' = vectors of S strictly above x on feature i.
      ++support_checks_;
      size_t s_prime_size = 0;
      const int16_t x_i = PackedSlice{x, width_}.slot(i);
      for (int32_t idx : s) {
        if (population_.at(idx, i) > x_i) s_prime[s_prime_size++] = idx;
      }
      if (static_cast<int64_t>(s_prime_size) < config_.min_support) continue;
      population_.FloorInto({s_prime, s_prime_size}, x_prime, &ops_);
      // Duplicate state: if the floor also rose on a feature before i,
      // this state is reachable from an earlier branch. Since S' ⊆ S,
      // x' >= x lane-wise, so "rose" is just "differs" — one XOR per
      // word covers 16 slots.
      bool duplicate = false;
      const size_t full_words = i / features::kPackedSlotsPerWord;
      for (size_t w = 0; w < full_words; ++w) {
        ++ops_.words_compared;
        if (x_prime[w] != x[w]) {
          duplicate = true;
          break;
        }
      }
      const size_t partial = i % features::kPackedSlotsPerWord;
      if (!duplicate && partial != 0) {
        ++ops_.words_compared;
        const uint64_t mask = features::PackedLowSlotsMask(partial);
        duplicate = ((x_prime[full_words] ^ x[full_words]) & mask) != 0;
      }
      if (duplicate) {
        ++duplicate_prunes_;
        continue;
      }
      if (config_.use_ceiling_prune) {
        // Optimistic bound: no descendant can beat the ceiling's p-value
        // at the current support. The ceiling is consumed immediately,
        // so one buffer serves every Search call.
        population_.CeilingInto({s_prime, s_prime_size},
                                ceiling_buffer_.data(), &ops_);
        if (tarone_) {
          // Tarone prune: psi is monotone under vector growth, so the
          // ceiling's psi lower-bounds every descendant's. A subtree
          // whose ceiling is untestable at alpha holds no testable (or
          // reportable) state and may leave the family uncounted.
          const double psi_ceiling = priors_.MinAchievablePValue(
              PackedSlice{ceiling_buffer_.data(), width_});
          if (psi_ceiling > config_.tarone_alpha) {
            ++ceiling_prunes_;
            continue;
          }
        } else {
          const double best_possible =
              Evaluate(ceiling_buffer_.data(),
                       static_cast<int64_t>(s_prime_size));
          if (best_possible >= config_.max_pvalue) {
            ++ceiling_prunes_;
            continue;
          }
        }
      }
      // The child's own level sits deeper, so S' and x' stay put while
      // its subtree runs.
      Search(x_prime, {s_prime, s_prime_size}, i, depth + 1);
    }
  }

  const PackedVectorSet& population_;
  const stats::FeaturePriors& priors_;
  const FvMineConfig config_;
  size_t width_;
  size_t words_;
  FvMineResult result_;
  std::deque<Level> levels_;  // levels_[d]: children of a depth-d state
  std::vector<uint64_t> ceiling_buffer_;
  bool tarone_ = false;
  double emit_bound_ = 1.0;
  // Local work tallies, flushed to the registry once in Run().
  uint64_t support_checks_ = 0;
  uint64_t ceiling_prunes_ = 0;
  uint64_t duplicate_prunes_ = 0;
  features::PackedOpStats ops_;
};

}  // namespace

FvMineResult FvMine(const features::PackedVectorSet& population,
                    const stats::FeaturePriors& priors,
                    const FvMineConfig& config) {
  Searcher searcher(population, priors, config);
  return searcher.Run();
}

}  // namespace graphsig::fvmine
