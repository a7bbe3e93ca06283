// Feature-space explorer (the paper's Section II): inspect how a graph
// database turns into GraphSig's feature space — the Fig. 4 atom-
// coverage analysis, the selected feature set, and the RWR vector of a
// single molecule's nodes, side by side with the plain feature-count
// ablation.
//
//   $ ./feature_explorer [--size=N]

#include <cstdio>
#include <iostream>
#include <string>

#include "data/datasets.h"
#include "data/elements.h"
#include "features/feature_space.h"
#include "features/rwr.h"
#include "features/selection.h"
#include "util/strings.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace graphsig;
  size_t size = 500;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (util::StartsWith(arg, "--size=")) {
      auto v = util::ParseInt(std::string(arg.substr(7)));
      if (v.ok()) size = static_cast<size_t>(v.value());
    }
  }

  data::DatasetOptions options;
  options.size = size;
  options.seed = 5;
  graph::GraphDatabase db = data::MakeAidsLike(options);

  // --- Fig. 4-style coverage analysis.
  auto coverage = features::CumulativeAtomCoverage(db);
  std::printf("atom types: %zu\n", coverage.size());
  util::TablePrinter coverage_table({"rank", "atom", "count", "cum %"});
  for (size_t i = 0; i < coverage.size() && i < 8; ++i) {
    coverage_table.AddRow(
        {std::to_string(i + 1), data::AtomSymbol(coverage[i].label),
         std::to_string(coverage[i].count),
         util::TablePrinter::Num(coverage[i].cumulative_percent, 2)});
  }
  coverage_table.Print(std::cout);

  // --- The selected feature set (Section II-B recipe).
  features::FeatureSpace fs = features::FeatureSpace::ForChemicalDatabase(
      db, /*top_k_atoms=*/5);
  std::printf("\nfeature set: %zu features (%zu atom features + %zu edge "
              "features between the top-5 atoms)\n",
              fs.size(), fs.num_vertex_features(), fs.num_edge_features());
  std::printf("edge features:");
  for (size_t s = fs.num_vertex_features(); s < fs.size(); ++s) {
    std::printf(" %s", fs.FeatureName(s).c_str());
  }
  std::printf("\n\n");

  // --- RWR vectors of one molecule vs the counting ablation.
  const graph::Graph& molecule = db.graph(0);
  std::printf("molecule 0: %d atoms, %d bonds\n", molecule.num_vertices(),
              molecule.num_edges());
  features::RwrConfig rwr;
  features::RwrConfig counting = rwr;
  counting.featurizer = features::Featurizer::kWindowCount;

  util::TablePrinter vec_table({"node", "atom", "RWR vector (non-zero)",
                                "count vector (non-zero)"});
  auto rwr_vectors = features::GraphToVectors(molecule, 0, fs, rwr);
  auto cnt_vectors = features::GraphToVectors(molecule, 0, fs, counting);
  auto summarize = [&](const features::FeatureVec& v) {
    std::string out;
    for (size_t s = 0; s < v.size(); ++s) {
      if (v[s] > 0) {
        out += util::StrPrintf("%s=%d ", fs.FeatureName(s).c_str(), v[s]);
      }
    }
    return out.empty() ? std::string("-") : out;
  };
  for (graph::VertexId v = 0; v < molecule.num_vertices() && v < 6; ++v) {
    vec_table.AddRow({std::to_string(v),
                      data::AtomSymbol(molecule.vertex_label(v)),
                      summarize(rwr_vectors[v].values),
                      summarize(cnt_vectors[v].values)});
  }
  vec_table.Print(std::cout);
  std::printf(
      "\nNote how the RWR vector weights nearby features more than distant\n"
      "ones, while the count vector counts the whole molecule and so is\n"
      "the same for every node — the structure loss the paper's Table II\n"
      "discussion points out.\n");
  return 0;
}
