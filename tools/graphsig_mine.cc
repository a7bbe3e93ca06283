// graphsig_mine: mine significant subgraphs from a graph database file.
//
//   graphsig_mine --input=actives.smi [--format=smiles|sdf|gspan]
//                 [--active-only] [--max-pvalue=0.1] [--min-freq=0.1]
//                 [--radius=8] [--fsg-freq=80] [--threads=1 (0 = auto)]
//                 [--top=20] [--no-frequency] [--metrics-out=metrics.json]
//
// Prints one block per significant subgraph: p-value, supports, global
// frequency, and the pattern as SMILES plus an edge list.

#include <cstdio>
#include <limits>
#include <optional>
#include <sstream>

#include "core/graphsig.h"
#include "core/report.h"
#include "data/elements.h"
#include "data/smiles.h"
#include "graph/statistics.h"
#include "tools/tool_util.h"

int main(int argc, char** argv) {
  using namespace graphsig;
  tools::Flags flags(argc, argv);
  const std::string input = flags.GetString("input", "");
  if (input.empty()) {
    std::fprintf(stderr,
                 "usage: graphsig_mine --input=FILE [--format=smiles|sdf|"
                 "gspan] [--active-only] [--max-pvalue=P] [--min-freq=F%%]"
                 " [--radius=R] [--fsg-freq=F%%] [--threads=N (0 = auto)]"
                 " [--top=K] [--no-frequency] [--csv=FILE]"
                 " [--metrics-out=FILE]\n");
    return 1;
  }
  const std::optional<core::GraphSigConfig> config =
      tools::MiningConfigFromFlags(flags);
  const std::optional<int64_t> top = tools::FlagInRange<int64_t>(
      flags, "top", 20, 0, std::numeric_limits<int64_t>::max());
  if (!config || !top) return 1;
  auto loaded =
      tools::LoadDatabase(input, flags.GetString("format", "smiles"));
  if (!loaded.ok()) tools::Fail(loaded.status());
  graph::GraphDatabase db = std::move(loaded).value();
  if (flags.GetBool("active-only")) db = db.FilterByTag(1);
  if (db.empty()) {
    std::fprintf(stderr, "error: no graphs to mine\n");
    return 1;
  }
  std::printf("mining %s\n", graph::DescribeDatabase(db).c_str());

  core::GraphSigResult result = core::GraphSig(*config).Mine(db);
  std::printf(
      "done in %.2fs (RWR %.2fs, feature analysis %.2fs, FSM %.2fs)\n",
      result.profile.total_seconds, result.profile.rwr_seconds,
      result.profile.feature_seconds, result.profile.fsm_seconds);
  std::printf("%lld vectors | %lld significant vectors | %zu significant "
              "subgraphs (%lld region sets, %lld filtered, %lld capped)\n\n",
              static_cast<long long>(result.stats.num_vectors),
              static_cast<long long>(result.stats.num_significant_vectors),
              result.subgraphs.size(),
              static_cast<long long>(result.stats.num_sets_mined),
              static_cast<long long>(result.stats.num_sets_filtered),
              static_cast<long long>(result.stats.num_sets_capped));

  const auto shown = static_cast<size_t>(*top);
  for (size_t i = 0; i < result.subgraphs.size() && i < shown; ++i) {
    const core::SignificantSubgraph& sg = result.subgraphs[i];
    std::printf("#%zu  p-value %.3e  anchor %s  set %lld/%lld", i,
                sg.vector_pvalue,
                data::AtomSymbol(sg.anchor_label).c_str(),
                static_cast<long long>(sg.set_support),
                static_cast<long long>(sg.set_size));
    if (sg.db_frequency >= 0) {
      std::printf("  frequency %lld/%zu (%.2f%%)",
                  static_cast<long long>(sg.db_frequency), db.size(),
                  100.0 * static_cast<double>(sg.db_frequency) / db.size());
    }
    std::printf("\n  smiles: %s\n", data::WriteSmiles(sg.subgraph).c_str());
    for (const graph::EdgeRecord& e : sg.subgraph.edges()) {
      std::printf("  %s(%d) %s %s(%d)\n",
                  data::AtomSymbol(sg.subgraph.vertex_label(e.u)).c_str(),
                  e.u, data::BondSymbol(e.label).c_str(),
                  data::AtomSymbol(sg.subgraph.vertex_label(e.v)).c_str(),
                  e.v);
    }
    std::printf("\n");
  }

  const std::string csv_path = flags.GetString("csv", "");
  if (!csv_path.empty()) {
    std::ostringstream csv;
    core::WriteCsv(result, csv);
    util::Status written = tools::WriteFile(csv_path, csv.str());
    if (!written.ok()) tools::Fail(written);
    std::printf("csv written to %s\n", csv_path.c_str());
  }

  const std::string metrics_path = flags.GetString("metrics-out", "");
  if (!metrics_path.empty()) {
    util::Status written = tools::WriteMetricsJson(metrics_path);
    if (!written.ok()) tools::Fail(written);
    std::printf("metrics written to %s\n", metrics_path.c_str());
  }
  return 0;
}
