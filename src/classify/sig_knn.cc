#include "classify/sig_knn.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <queue>
#include <utility>

#include "features/rwr.h"
#include "util/check.h"

namespace graphsig::classify {

double MinDistToSubVector(const features::FeatureVec& x,
                          const std::vector<features::FeatureVec>& set) {
  double best = std::numeric_limits<double>::infinity();
  for (const features::FeatureVec& v : set) {
    GS_CHECK_EQ(v.size(), x.size());
    double dist = 0.0;
    bool sub = true;
    for (size_t i = 0; i < v.size(); ++i) {
      if (v[i] > x[i]) {
        sub = false;
        break;
      }
      dist += static_cast<double>(x[i] - v[i]);
    }
    if (sub && dist < best) best = dist;
  }
  return best;
}

SubVectorIndex::SubVectorIndex(
    const std::vector<features::FeatureVec>& vectors) {
  if (vectors.empty()) return;
  width_ = vectors.front().size();
  words_ = (width_ + 63) / 64;
  std::vector<std::pair<int64_t, const features::FeatureVec*>> rows;
  rows.reserve(vectors.size());
  for (const features::FeatureVec& v : vectors) {
    GS_CHECK_EQ(v.size(), width_);
    int64_t sum = 0;
    for (int16_t slot : v) sum += slot;
    rows.emplace_back(sum, &v);
  }
  // Sum descending, equal sums in lexicographic order; duplicates end up
  // adjacent and only the first is kept.
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return *a.second < *b.second;
  });
  rows.erase(std::unique(rows.begin(), rows.end(),
                         [](const auto& a, const auto& b) {
                           return *a.second == *b.second;
                         }),
             rows.end());
  sums_.reserve(rows.size());
  masks_.assign(rows.size() * words_, 0);
  slots_.reserve(rows.size() * width_);
  for (size_t r = 0; r < rows.size(); ++r) {
    const features::FeatureVec& v = *rows[r].second;
    sums_.push_back(rows[r].first);
    slots_.insert(slots_.end(), v.begin(), v.end());
    uint64_t* mask = masks_.data() + r * words_;
    for (size_t s = 0; s < width_; ++s) {
      if (v[s] > 0) mask[s / 64] |= uint64_t{1} << (s % 64);
    }
  }
}

double SubVectorIndex::MinDist(const features::FeatureVec& x) const {
  constexpr double kNone = std::numeric_limits<double>::infinity();
  if (sums_.empty()) return kNone;
  GS_CHECK_EQ(x.size(), width_);
  // x's sum and positive-slot mask; masks of up to 256 slots stay on the
  // stack.
  std::array<uint64_t, 4> small_mask{};
  std::vector<uint64_t> large_mask;
  uint64_t* x_mask = small_mask.data();
  if (words_ > small_mask.size()) {
    large_mask.assign(words_, 0);
    x_mask = large_mask.data();
  }
  int64_t x_sum = 0;
  for (size_t s = 0; s < width_; ++s) {
    x_sum += x[s];
    if (x[s] > 0) x_mask[s / 64] |= uint64_t{1} << (s % 64);
  }
  const size_t first = static_cast<size_t>(
      std::partition_point(sums_.begin(), sums_.end(),
                           [x_sum](int64_t sum) { return sum > x_sum; }) -
      sums_.begin());
  for (size_t r = first; r < sums_.size(); ++r) {
    const uint64_t* mask = masks_.data() + r * words_;
    size_t w = 0;
    while (w < words_ && (mask[w] & ~x_mask[w]) == 0) ++w;
    if (w < words_) continue;
    const int16_t* row = slots_.data() + r * width_;
    size_t s = 0;
    while (s < width_ && row[s] <= x[s]) ++s;
    if (s == width_) return static_cast<double>(x_sum - sums_[r]);
  }
  return kNone;
}

void GraphSigClassifier::Train(const graph::GraphDatabase& training) {
  graph::GraphDatabase positives = training.FilterByTag(1);
  graph::GraphDatabase negatives = training.FilterByTag(0);
  GS_CHECK(!positives.empty());
  GS_CHECK(!negatives.empty());

  // One shared feature space so class vectors and queries line up.
  space_ = features::FeatureSpace::ForChemicalDatabase(
      training, config_.mining.top_k_atoms);

  core::GraphSig miner(config_.mining);
  positive_.clear();
  negative_.clear();
  for (const auto& [label, sv] :
       miner.MineSignificantVectors(positives, nullptr, &space_)) {
    positive_.push_back(sv.vector);
  }
  for (const auto& [label, sv] :
       miner.MineSignificantVectors(negatives, nullptr, &space_)) {
    negative_.push_back(sv.vector);
  }
  positive_index_ = SubVectorIndex(positive_);
  negative_index_ = SubVectorIndex(negative_);
}

SigKnnModel GraphSigClassifier::ExportModel() const {
  GS_CHECK_GT(space_.size(), 0u);  // must be trained
  SigKnnModel model;
  model.k = config_.k;
  model.delta = config_.delta;
  model.rwr = config_.mining.rwr;
  model.space = space_;
  model.positive = positive_;
  model.negative = negative_;
  return model;
}

GraphSigClassifier GraphSigClassifier::FromModel(const SigKnnModel& model) {
  SigKnnConfig config;
  config.k = model.k;
  config.delta = model.delta;
  config.mining.rwr = model.rwr;
  GraphSigClassifier classifier(config);
  classifier.space_ = model.space;
  classifier.positive_ = model.positive;
  classifier.negative_ = model.negative;
  classifier.positive_index_ = SubVectorIndex(model.positive);
  classifier.negative_index_ = SubVectorIndex(model.negative);
  return classifier;
}

double GraphSigClassifier::Score(const graph::Graph& query) const {
  GS_CHECK_GT(space_.size(), 0u);  // must be trained
  auto node_vectors = features::GraphToVectors(query, /*graph_index=*/-1,
                                               space_, config_.mining.rwr);
  // Keep the k globally smallest (distance, class) pairs (Algorithm 3's
  // priority queue): a max-heap holding at most k entries.
  using Entry = std::pair<double, int>;  // distance, +1 / -1
  std::priority_queue<Entry> heap;
  for (const features::NodeVector& nv : node_vectors) {
    const double pos_dist = positive_index_.MinDist(nv.values);
    const double neg_dist = negative_index_.MinDist(nv.values);
    if (std::isinf(pos_dist) && std::isinf(neg_dist)) continue;
    Entry entry = neg_dist < pos_dist ? Entry{neg_dist, -1}
                                      : Entry{pos_dist, +1};
    heap.push(entry);
    if (heap.size() > static_cast<size_t>(config_.k)) heap.pop();
  }
  double score = 0.0;
  while (!heap.empty()) {
    const auto& [dist, cls] = heap.top();
    score += static_cast<double>(cls) / (dist + config_.delta);
    heap.pop();
  }
  return score;
}

}  // namespace graphsig::classify
