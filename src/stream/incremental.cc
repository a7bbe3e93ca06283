#include "stream/incremental.h"

#include <utility>

#include "util/strings.h"

namespace graphsig::stream {
namespace {

std::string ConfigFingerprint(const core::GraphSigConfig& config) {
  // num_threads is deliberately absent: output is thread-invariant.
  return util::StrPrintf(
      "v2|rwr=%.17g,%.17g,%d,%d,%d,%d|topk=%d|pv=%.17g|freq=%.17g|"
      "radius=%d|fsg=%.17g|maxe=%d|ceil=%d|tarone=%.17g|dbfreq=%d",
      config.rwr.restart_prob, config.rwr.epsilon,
      config.rwr.max_iterations, config.rwr.bins, config.rwr.radius,
      static_cast<int>(config.rwr.featurizer), config.top_k_atoms,
      config.max_pvalue, config.min_freq_percent, config.cutoff_radius,
      config.fsg_freq_percent, config.fsm_max_edges,
      config.use_ceiling_prune ? 1 : 0, config.tarone_alpha,
      config.compute_db_frequency ? 1 : 0);
}

}  // namespace

IncrementalMiner::IncrementalMiner(core::GraphSigConfig config)
    : config_(std::move(config)) {}

util::Result<bool> IncrementalMiner::Restore(
    std::string_view checkpoint) const {
  return checkpoint == Checkpoint();
}

std::string IncrementalMiner::Checkpoint() const {
  return ConfigFingerprint(config_);
}

core::GraphSigResult IncrementalMiner::Mine(
    const graph::GraphDatabase& db,
    const std::vector<uint64_t>& /*graph_generations*/,
    uint64_t /*generation*/, IncrementalMineStats* mine_stats) const {
  core::GraphSigResult result = core::GraphSig(config_).Mine(db);
  if (mine_stats != nullptr) {
    *mine_stats = {.graphs_featurized = static_cast<int64_t>(db.size()),
                   .fsm_tasks_mined = result.stats.num_sets_mined,
                   .cuts_computed = result.stats.num_unique_regions};
  }
  return result;
}

}  // namespace graphsig::stream
