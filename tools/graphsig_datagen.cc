// graphsig_datagen: generate the synthetic chemical screens to a file.
//
//   graphsig_datagen --screen=AIDS|MCF-7|... --size=2000 [--seed=1]
//                    [--active-fraction=0.05] [--format=smiles|sdf|gspan]
//                    --output=FILE

#include <cstdio>
#include <limits>

#include "data/datasets.h"
#include "tools/tool_util.h"

int main(int argc, char** argv) {
  using namespace graphsig;
  tools::Flags flags(argc, argv);
  const std::string output = flags.GetString("output", "");
  const std::string screen = flags.GetString("screen", "AIDS");
  if (output.empty()) {
    std::fprintf(stderr,
                 "usage: graphsig_datagen --screen=NAME --size=N "
                 "--output=FILE [--seed=S] [--active-fraction=F] "
                 "[--format=smiles|sdf|gspan]\n       screens: AIDS");
    for (const std::string& name : data::CancerScreenNames()) {
      std::fprintf(stderr, " %s", name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 1;
  }

  data::DatasetOptions options;
  const auto size = tools::FlagInRange<int64_t>(
      flags, "size", 2000, 1, std::numeric_limits<int>::max());
  const auto seed = tools::FlagInRange<int64_t>(
      flags, "seed", 1, 0, std::numeric_limits<int64_t>::max());
  const auto active_fraction = tools::FlagInRange(
      flags, "active-fraction", options.active_fraction, 0.0, 1.0);
  if (!size || !seed || !active_fraction) return 1;
  options.size = static_cast<size_t>(*size);
  options.seed = static_cast<uint64_t>(*seed);
  options.active_fraction = *active_fraction;

  graph::GraphDatabase db;
  if (screen == "AIDS") {
    db = data::MakeAidsLike(options);
  } else {
    bool known = false;
    for (const std::string& name : data::CancerScreenNames()) {
      known |= (name == screen);
    }
    if (!known) {
      std::fprintf(stderr, "error: unknown screen '%s'\n", screen.c_str());
      return 1;
    }
    db = data::MakeCancerScreen(screen, options);
  }

  auto serialized =
      tools::SerializeDatabase(db, flags.GetString("format", "smiles"));
  if (!serialized.ok()) tools::Fail(serialized.status());
  util::Status written = tools::WriteFile(output, serialized.value());
  if (!written.ok()) tools::Fail(written);

  std::printf("wrote %zu molecules (%zu active) to %s\n", db.size(),
              db.FilterByTag(1).size(), output.c_str());
  return 0;
}
