#ifndef GRAPHSIG_STREAM_INCREMENTAL_H_
#define GRAPHSIG_STREAM_INCREMENTAL_H_

// The streaming tier mines cold: every mine is core::GraphSig::Mine of
// the log's whole database (DESIGN.md §16). IncrementalMiner keeps its
// signatures only because perfbench/ingest_append.cc calls them, and
// goes when that workload mines through GraphSig::Mine directly
// (ROADMAP item 1).
//
//   * Mine is a cold mine, whatever the generations say.
//   * Checkpoint() is the config fingerprint: every output-affecting
//     GraphSigConfig field except num_threads, so a checkpoint written at
//     one thread count restores at any other.
//   * Restore(bytes) is true iff `bytes` is this config's fingerprint.
//     Any other bytes, a checkpoint from the old miner included, give
//     false, never an error.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/graphsig.h"
#include "graph/graph_database.h"
#include "util/status.h"

namespace graphsig::stream {

// What one mine did. Nothing is reused, so the *_reused and *_replayed
// fields stay 0.
struct IncrementalMineStats {
  int64_t graphs_featurized = 0;
  int64_t graphs_reused = 0;
  int64_t fsm_tasks_mined = 0;
  int64_t fsm_tasks_replayed = 0;
  int64_t cuts_computed = 0;
  int64_t cuts_reused = 0;
};

class IncrementalMiner {
 public:
  explicit IncrementalMiner(core::GraphSigConfig config);

  util::Result<bool> Restore(std::string_view checkpoint) const;
  std::string Checkpoint() const;

  // Mines `db` cold. The generation arguments are accepted and ignored.
  core::GraphSigResult Mine(const graph::GraphDatabase& db,
                            const std::vector<uint64_t>& graph_generations,
                            uint64_t generation,
                            IncrementalMineStats* mine_stats = nullptr) const;

 private:
  core::GraphSigConfig config_;
};

}  // namespace graphsig::stream

#endif  // GRAPHSIG_STREAM_INCREMENTAL_H_
