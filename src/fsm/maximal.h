#ifndef GRAPHSIG_FSM_MAXIMAL_H_
#define GRAPHSIG_FSM_MAXIMAL_H_

#include <span>
#include <vector>

#include "fsm/miner.h"

namespace graphsig::fsm {

// Keeps only the maximal patterns of a frequent-pattern set: those not
// subgraph-isomorphic to any other pattern in the set. Supports are
// preserved. Quadratic in the set size, but each pair is first tested
// with graph::SignatureAdmits, so VF2 runs only on the pairs it admits.
std::vector<Pattern> FilterMaximal(std::vector<Pattern> patterns);

// GraphSig's last stage (Algorithm 2, line 13): the maximal frequent
// patterns of `db`, whose graphs it borrows. gSpan builds no pattern
// that has a frequent child, since that child contains it, and the
// maximality filter runs on the rest; on a complete run the result
// equals FilterMaximal(MineFrequentGSpan(...).patterns). Every frequent
// pattern counts toward max_patterns, built or not, so a capped run
// stops at the same search state as MineFrequentGSpan; its maximal set
// is taken over the patterns it visited. Defined in gspan.cc.
MineResult MineMaximalGSpan(std::span<const graph::Graph* const> db,
                            const MinerConfig& config);

}  // namespace graphsig::fsm

#endif  // GRAPHSIG_FSM_MAXIMAL_H_
