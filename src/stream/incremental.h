#ifndef GRAPHSIG_STREAM_INCREMENTAL_H_
#define GRAPHSIG_STREAM_INCREMENTAL_H_

// Incremental GraphSig mining over an append-only database
// (DESIGN.md §16).
//
// There is one mining driver (core/mine_pipeline.h). core::GraphSig::Mine
// is its null-state run; this miner carries a MineState between calls
// and passes it in, so the driver reuses work at every level:
//
//   * featurization — RWR vectors are computed only for graphs appended
//     since the last mine; earlier graphs replay their captured
//     work-counter deltas,
//   * FVMine — only anchor-label groups whose member lists (and hence
//     priors) changed are re-mined; unchanged groups reuse their cached
//     candidates, psi family, and delta,
//   * region mining — per-candidate FSM outputs are cached keyed by
//     (group, candidate index); region cuts are cached keyed by
//     (generation, graph, node) (stream/region_cut_cache.h).
//
// The miner's own steps are only the stream-specific ones around that
// call: the lineage check, feature-space invalidation, and the stream/inc_*
// accounting counters.
//
// The headline guarantee, asserted by tests/stream_test.cc: a mine
// after N appends produces an artifact, GraphSigStats AND a
// deterministic work-counter dump identical to a cold
// core::GraphSig::Mine of the final database, at any thread count.
// Counter transparency comes from obs/work_capture.h — every cached
// unit replays the exact metric contributions its original computation
// made. The stream/inc_* counters this module bumps for its own
// accounting (graphs featurized, groups reused, ...) are ingest-side
// observability and are the one documented exception to that
// equivalence: a cold mine never touches them.
//
// Invalidation: a changed config fingerprint or a restored state whose
// per-graph generation stamps disagree with the log's discards
// everything; a changed feature space (appends shifted the top-k atom
// set) discards vectors and groups but keeps region cuts, which depend
// only on graph content.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/graphsig.h"
#include "graph/graph_database.h"
#include "stream/mine_state.h"
#include "stream/region_cut_cache.h"
#include "util/status.h"

namespace graphsig::stream {

// Per-mine reuse accounting (also exported as stream/* counters).
struct IncrementalMineStats {
  int64_t graphs_featurized = 0;
  int64_t graphs_reused = 0;
  int64_t groups_mined = 0;
  int64_t groups_reused = 0;
  int64_t fsm_tasks_mined = 0;
  int64_t fsm_tasks_replayed = 0;
  int64_t cuts_computed = 0;
  int64_t cuts_reused = 0;
  bool invalidated_feature_space = false;
};

class IncrementalMiner {
 public:
  explicit IncrementalMiner(core::GraphSigConfig config);

  // Restores cached state from a checkpoint (mine_state.h). Returns
  // false — with the miner left cold — when the checkpoint was written
  // under a different config fingerprint or an unsupported version;
  // errors only on corrupt bytes.
  util::Result<bool> Restore(std::string_view checkpoint);

  // Serializes the current state for IngestLog::AppendCheckpoint.
  std::string Checkpoint() const { return EncodeMineState(state_); }

  // Mines the full current database. `graph_generations[i]` is the
  // ingest generation that introduced db graph i (parallel to db);
  // `generation` is the log's last generation and is recorded in the
  // state. The database must extend the one previously mined — same
  // graphs, same order, new ones appended.
  core::GraphSigResult Mine(const graph::GraphDatabase& db,
                            const std::vector<uint64_t>& graph_generations,
                            uint64_t generation,
                            IncrementalMineStats* mine_stats = nullptr);

  const MineState& state() const { return state_; }
  const core::GraphSigConfig& config() const { return config_; }

 private:
  core::GraphSigConfig config_;
  MineState state_;
  RegionCutCache cut_cache_;  // in-memory only, rebuilt on restart
};

}  // namespace graphsig::stream

#endif  // GRAPHSIG_STREAM_INCREMENTAL_H_
