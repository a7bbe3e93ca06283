#ifndef GRAPHSIG_CLASSIFY_SIG_KNN_H_
#define GRAPHSIG_CLASSIFY_SIG_KNN_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "classify/classifier.h"
#include "core/graphsig.h"
#include "features/feature_space.h"
#include "features/feature_vector.h"

namespace graphsig::classify {

// Algorithm 4: distance from vector x to the closest sub-feature vector
// in `set`. A member v contributes sum_i (x_i - v_i) if v ⊆ x, else
// infinity. Returns infinity when no member is a sub-vector of x.
double MinDistToSubVector(const features::FeatureVec& x,
                          const std::vector<features::FeatureVec>& set);

// Algorithm 4 over a fixed vector set, indexed for the k-NN scan. The
// distinct vectors are kept in descending slot-sum order. For any
// sub-vector v of x, dist(x, v) = sum(x) - sum(v), so the first
// sub-vector in that order is the closest and the scan stops there.
// Two necessary conditions for v ⊆ x skip rows without a slot compare:
//   * sum(v) <= sum(x): a binary search starts the scan at the first
//     such row instead of walking the prefix of larger sums;
//   * every slot > 0 in v is > 0 in x (v_s > 0 and v_s <= x_s give
//     x_s > 0): a positive-slot bitmask per row, ceil(width / 64) words,
//     must be a subset of x's before the slots are compared.
// Neither test rejects a true sub-vector, whatever the slot signs, so
// the answer is that of the brute-force scan.
class SubVectorIndex {
 public:
  SubVectorIndex() = default;
  // All vectors must have the same width.
  explicit SubVectorIndex(const std::vector<features::FeatureVec>& vectors);

  // Equal, bit for bit, to MinDistToSubVector(x, vectors) over the
  // vectors the index was built from, +inf included. When the index is
  // non-empty, x must have the index's width.
  double MinDist(const features::FeatureVec& x) const;

 private:
  size_t width_ = 0;
  size_t words_ = 0;             // mask words per row: ceil(width / 64)
  std::vector<int64_t> sums_;    // one per row, descending
  std::vector<uint64_t> masks_;  // words_ per row; bit s iff slot s > 0
  std::vector<int16_t> slots_;   // width_ per row, row-major
};

struct SigKnnConfig {
  // Feature-phase thresholds used to mine the significant vectors from
  // each training class.
  core::GraphSigConfig mining;
  int k = 9;            // paper's value in Section VI-D
  double delta = 1e-3;  // the small additive before inverting distances
};

// The trained state of GraphSigClassifier, detached from the class so it
// can be serialized into a model artifact (src/model/) and rebuilt in a
// query-serving process without re-mining. Everything Score() depends on
// is here: the k-NN parameters, the RWR featurization config that query
// vectors must be computed with, the shared feature space, and the
// significant sub-feature vectors of both classes.
struct SigKnnModel {
  int32_t k = 9;
  double delta = 1e-3;
  features::RwrConfig rwr;
  features::FeatureSpace space;
  std::vector<features::FeatureVec> positive;
  std::vector<features::FeatureVec> negative;

  // A model with no feature space cannot score anything.
  bool empty() const { return space.size() == 0; }
};

// The classifier of Section V (Algorithm 3): mine significant
// sub-feature vectors from the positive and the negative training
// graphs, then classify a query by a distance-weighted vote of the k
// globally closest significant vectors over the query's node vectors.
class GraphSigClassifier : public GraphClassifier {
 public:
  explicit GraphSigClassifier(SigKnnConfig config = {}) : config_(config) {}

  void Train(const graph::GraphDatabase& training) override;
  double Score(const graph::Graph& query) const override;
  std::string name() const override { return "GraphSig"; }

  // Snapshot of the trained state for serialization. Requires a trained
  // (or imported) classifier.
  SigKnnModel ExportModel() const;
  // Rebuilds a ready-to-score classifier from a snapshot; the
  // SubVectorIndexes are reconstructed, so FromModel(ExportModel())
  // scores identically to the original. Every model vector must have
  // the space's width (DecodeArtifact rejects a model that does not).
  static GraphSigClassifier FromModel(const SigKnnModel& model);

  const features::FeatureSpace& feature_space() const { return space_; }
  const std::vector<features::FeatureVec>& positive_vectors() const {
    return positive_;
  }
  const std::vector<features::FeatureVec>& negative_vectors() const {
    return negative_;
  }

 private:
  SigKnnConfig config_;
  features::FeatureSpace space_;
  std::vector<features::FeatureVec> positive_;
  std::vector<features::FeatureVec> negative_;
  SubVectorIndex positive_index_;
  SubVectorIndex negative_index_;
};

}  // namespace graphsig::classify

#endif  // GRAPHSIG_CLASSIFY_SIG_KNN_H_
