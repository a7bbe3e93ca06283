#include "stream/incremental.h"

#include <algorithm>
#include <utility>

#include "core/mine_pipeline.h"
#include "obs/metrics.h"
#include "util/check.h"

namespace graphsig::stream {

IncrementalMiner::IncrementalMiner(core::GraphSigConfig config)
    : config_(std::move(config)) {
  state_.config_fingerprint = ConfigFingerprint(config_);
}

util::Result<bool> IncrementalMiner::Restore(std::string_view checkpoint) {
  auto decoded = DecodeMineState(checkpoint);
  if (!decoded.ok()) {
    if (decoded.status().code() == util::StatusCode::kFailedPrecondition) {
      return false;  // version from another build: start cold
    }
    return decoded.status();
  }
  if (decoded.value().config_fingerprint != state_.config_fingerprint) {
    return false;  // mined under a different config: start cold
  }
  state_ = std::move(decoded.value());
  return true;
}

core::GraphSigResult IncrementalMiner::Mine(
    const graph::GraphDatabase& db,
    const std::vector<uint64_t>& graph_generations, uint64_t generation,
    IncrementalMineStats* mine_stats) {
  GS_CHECK_EQ(graph_generations.size(), db.size());
  IncrementalMineStats local_stats;
  IncrementalMineStats& acct = mine_stats ? *mine_stats : local_stats;

  // The state is only reusable against the same database lineage,
  // extended append-only: its generation stamps must prefix the log's.
  const std::vector<uint64_t>& stamps = state_.graph_generations;
  if (stamps.size() > graph_generations.size() ||
      !std::equal(stamps.begin(), stamps.end(), graph_generations.begin())) {
    state_.node_vectors.clear();
    state_.featurize_deltas.clear();
    state_.groups.clear();
    state_.feature_space = features::FeatureSpace();
    cut_cache_.Clear();
  }
  state_.graph_generations = graph_generations;

  // Feature selection is global: an append can change the top-k atom
  // set, which re-shapes every vector. Recompute and compare — a change
  // invalidates vectors and groups, but not region cuts (cuts depend
  // only on graph content).
  features::FeatureSpace space =
      features::FeatureSpace::ForChemicalDatabase(db, config_.top_k_atoms);
  if (!state_.node_vectors.empty() && !(space == state_.feature_space)) {
    state_.node_vectors.clear();
    state_.featurize_deltas.clear();
    state_.groups.clear();
    acct.invalidated_feature_space = true;
  }
  state_.feature_space = std::move(space);

  core::GraphSigResult result = core::pipeline::Mine(
      config_, db, &state_.feature_space, &state_, &cut_cache_, &acct);
  state_.generation = generation;

  // Ingest-side accounting: stream/* counters are the documented
  // exception to cold-mine counter equivalence (they only exist on the
  // incremental path). Bumped here, outside any capture frame, so they
  // can never leak into a cached delta.
  auto& registry = obs::MetricsRegistry::Global();
  static obs::Counter* const graphs_featurized =
      registry.GetCounter("stream/inc_graphs_featurized");
  static obs::Counter* const graphs_reused =
      registry.GetCounter("stream/inc_graphs_reused");
  static obs::Counter* const groups_mined =
      registry.GetCounter("stream/inc_groups_mined");
  static obs::Counter* const groups_reused =
      registry.GetCounter("stream/inc_groups_reused");
  static obs::Counter* const fsm_mined =
      registry.GetCounter("stream/inc_fsm_mined");
  static obs::Counter* const fsm_replayed =
      registry.GetCounter("stream/inc_fsm_replayed");
  static obs::Counter* const cuts_computed =
      registry.GetCounter("stream/inc_cuts_computed");
  static obs::Counter* const cuts_reused =
      registry.GetCounter("stream/inc_cuts_reused");
  graphs_featurized->Add(static_cast<uint64_t>(acct.graphs_featurized));
  graphs_reused->Add(static_cast<uint64_t>(acct.graphs_reused));
  groups_mined->Add(static_cast<uint64_t>(acct.groups_mined));
  groups_reused->Add(static_cast<uint64_t>(acct.groups_reused));
  fsm_mined->Add(static_cast<uint64_t>(acct.fsm_tasks_mined));
  fsm_replayed->Add(static_cast<uint64_t>(acct.fsm_tasks_replayed));
  cuts_computed->Add(static_cast<uint64_t>(acct.cuts_computed));
  cuts_reused->Add(static_cast<uint64_t>(acct.cuts_reused));
  return result;
}

}  // namespace graphsig::stream
