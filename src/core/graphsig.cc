#include "core/graphsig.h"

#include <utility>

#include "core/mine_pipeline.h"

namespace graphsig::core {

// Both entry points run the pipeline in core/mine_pipeline.h.

std::vector<std::pair<graph::Label, fvmine::SignificantVector>>
GraphSig::MineSignificantVectors(const graph::GraphDatabase& db,
                                 GraphSigProfile* profile,
                                 const features::FeatureSpace* space) const {
  GraphSigResult result;
  pipeline::FeatureHalfOutput half =
      pipeline::MineFeatureHalf(config_, db, space, &result);
  if (profile != nullptr) {
    *profile = result.profile;
    profile->total_seconds =
        result.profile.rwr_seconds + result.profile.feature_seconds;
  }
  return std::move(half.significant);
}

GraphSigResult GraphSig::Mine(const graph::GraphDatabase& db) const {
  return pipeline::Mine(config_, db);
}

}  // namespace graphsig::core
