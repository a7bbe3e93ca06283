#include "core/report.h"

#include "data/elements.h"
#include "data/smiles.h"
#include "util/strings.h"
#include "util/table.h"

namespace graphsig::core {

void WriteReport(const GraphSigResult& result, size_t db_size,
                 std::ostream& os, size_t max_patterns) {
  os << util::StrPrintf(
      "GraphSig result: %zu significant subgraphs\n"
      "vectors=%lld groups=%lld significant-vectors=%lld "
      "sets-mined=%lld sets-filtered=%lld sets-capped=%lld\n"
      "time: total=%.3fs rwr=%.3fs feature=%.3fs fsm=%.3fs\n\n",
      result.subgraphs.size(),
      static_cast<long long>(result.stats.num_vectors),
      static_cast<long long>(result.stats.num_groups),
      static_cast<long long>(result.stats.num_significant_vectors),
      static_cast<long long>(result.stats.num_sets_mined),
      static_cast<long long>(result.stats.num_sets_filtered),
      static_cast<long long>(result.stats.num_sets_capped),
      result.profile.total_seconds, result.profile.rwr_seconds,
      result.profile.feature_seconds, result.profile.fsm_seconds);
  size_t shown = 0;
  for (const SignificantSubgraph& sg : result.subgraphs) {
    if (shown >= max_patterns) break;
    os << util::StrPrintf("#%zu p=%.3e anchor=%s set=%lld/%lld", shown,
                          sg.vector_pvalue,
                          data::AtomSymbol(sg.anchor_label).c_str(),
                          static_cast<long long>(sg.set_support),
                          static_cast<long long>(sg.set_size));
    if (sg.db_frequency >= 0 && db_size > 0) {
      os << util::StrPrintf(" freq=%lld/%zu (%.2f%%)",
                            static_cast<long long>(sg.db_frequency),
                            db_size,
                            100.0 * static_cast<double>(sg.db_frequency) /
                                static_cast<double>(db_size));
    }
    os << "\n  " << data::WriteSmiles(sg.subgraph) << "\n";
    for (const graph::EdgeRecord& e : sg.subgraph.edges()) {
      os << util::StrPrintf(
          "  %s(%d) %s %s(%d)\n",
          data::AtomSymbol(sg.subgraph.vertex_label(e.u)).c_str(), e.u,
          data::BondSymbol(e.label).c_str(),
          data::AtomSymbol(sg.subgraph.vertex_label(e.v)).c_str(), e.v);
    }
    os << "\n";
    ++shown;
  }
}

void WriteCsv(const GraphSigResult& result, std::ostream& os) {
  util::CsvWriter csv(os);
  csv.WriteRow({"rank", "p_value", "anchor", "vector_support",
                "set_support", "set_size", "db_frequency", "edges",
                "vertices", "smiles"});
  size_t rank = 0;
  for (const SignificantSubgraph& sg : result.subgraphs) {
    csv.WriteRow({std::to_string(rank),
                  util::StrPrintf("%.6e", sg.vector_pvalue),
                  data::AtomSymbol(sg.anchor_label),
                  std::to_string(sg.vector_support),
                  std::to_string(sg.set_support),
                  std::to_string(sg.set_size),
                  std::to_string(sg.db_frequency),
                  std::to_string(sg.subgraph.num_edges()),
                  std::to_string(sg.subgraph.num_vertices()),
                  data::WriteSmiles(sg.subgraph)});
    ++rank;
  }
}

}  // namespace graphsig::core
