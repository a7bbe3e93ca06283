#ifndef GRAPHSIG_FSM_MAXIMAL_H_
#define GRAPHSIG_FSM_MAXIMAL_H_

#include <vector>

#include "fsm/miner.h"

namespace graphsig::fsm {

// Keeps only the maximal patterns of a frequent-pattern set: those not
// subgraph-isomorphic to any other pattern in the set. Supports are
// preserved. Quadratic in the set size (fine at GraphSig's high
// per-set thresholds, where sets are small).
std::vector<Pattern> FilterMaximal(std::vector<Pattern> patterns);

// Convenience used by GraphSig's last stage (Algorithm 2, line 13):
// complete gSpan mining followed by the maximality filter.
MineResult MineMaximalGSpan(const graph::GraphDatabase& db,
                            const MinerConfig& config);

}  // namespace graphsig::fsm

#endif  // GRAPHSIG_FSM_MAXIMAL_H_
