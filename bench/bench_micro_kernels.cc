// Google-benchmark microbenchmarks of GraphSig's inner kernels: RWR
// featurization, subgraph isomorphism, canonical codes, FVMine, the
// p-value model, and the Hungarian assignment. These are the unit costs
// the figure-level benches compose.
//
// Besides the timed benchmarks, the binary has a deterministic
// counter-phase mode used by CI:
//
//   bench_micro_kernels --smoke                  # run phases, print totals
//   bench_micro_kernels --counters-out=FILE      # also dump metrics JSON
//
// The phases exercise the hot kernels on fixed seeds and emit work
// counters (micro/*, fv/*, graph/*, fvmine/*) that
// scripts/check_counters.py gates against bench/baselines/
// counters_baseline.json. Wall clock never enters the gate. Each phase
// also cross-checks the word-parallel kernels against their scalar
// references, so the ASan CI job doubles as a correctness smoke test.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <string>
#include <vector>

#include "classify/hungarian.h"
#include "core/graphsig.h"
#include "data/datasets.h"
#include "features/packed_vector_set.h"
#include "features/rwr.h"
#include "fsm/dfs_code.h"
#include "fvmine/fvmine.h"
#include "graph/isomorphism.h"
#include "obs/metrics.h"
#include "stats/pvalue_model.h"
#include "util/rng.h"

namespace {

// --- Global allocation interposition ----------------------------------
// Counts every operator-new call made while a CountAllocs scope is
// active. This is how the FVMine phase guards the per-depth scratch
// reuse: the heap allocations of one mining call (micro/fvmine/mallocs)
// grow with the search depth and the vectors emitted, not with the
// states explored (fvmine/expansions).
std::atomic<uint64_t> g_news{0};
std::atomic<bool> g_count_news{false};

class CountAllocs {
 public:
  CountAllocs() {
    g_news.store(0, std::memory_order_relaxed);
    g_count_news.store(true, std::memory_order_relaxed);
  }
  ~CountAllocs() { g_count_news.store(false, std::memory_order_relaxed); }
  uint64_t count() const { return g_news.load(std::memory_order_relaxed); }
};

}  // namespace

void* operator new(std::size_t size) {
  if (g_count_news.load(std::memory_order_relaxed)) {
    g_news.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) { return operator new(size); }
// GCC inlines these into library code, sees free() on memory from
// operator new and flags a mismatch; the operator new above mallocs it.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace {

using namespace graphsig;

graph::GraphDatabase SmallDb(size_t size) {
  data::DatasetOptions options;
  options.size = size;
  options.seed = 42;
  return data::MakeAidsLike(options);
}

// Scalar reference dominance check that counts every slot it touches —
// the "generic" side of the packed-vs-generic comparison.
bool ScalarDominates(const features::FeatureVec& x,
                     const features::FeatureVec& y, uint64_t* slot_checks) {
  for (size_t i = 0; i < x.size(); ++i) {
    ++*slot_checks;
    if (x[i] > y[i]) return false;
  }
  return true;
}

// The dominance workload: a seeded population plus FVMine-shaped floor
// queries (floors of random subsets checked against every row — mostly
// deep scans, exactly the hot loop of the miner).
struct DominanceWorkload {
  std::vector<features::FeatureVec> population;
  std::vector<features::FeatureVec> floors;
};

DominanceWorkload MakeDominanceWorkload() {
  util::Rng rng(21);
  DominanceWorkload w;
  for (int i = 0; i < 400; ++i) {
    features::FeatureVec v(40);
    for (auto& x : v) {
      x = rng.NextBernoulli(0.3)
              ? static_cast<int16_t>(1 + rng.NextBounded(9))
              : 0;
    }
    w.population.push_back(std::move(v));
  }
  // Floors of small subsets: mostly zero with a few surviving slots, so
  // the dominance checks split realistically between deep full scans
  // (row supported), mid-scan failures, and word-level early prunes.
  for (int q = 0; q < 64; ++q) {
    std::vector<int32_t> subset;
    for (int k = 0; k < 3; ++k) {
      subset.push_back(
          static_cast<int32_t>(rng.NextBounded(w.population.size())));
    }
    features::FeatureVec floor;
    features::FloorInto(w.population.data(), subset, &floor);
    w.floors.push_back(std::move(floor));
  }
  return w;
}

// Phase 1: packed vs generic dominance over the same queries. The packed
// side reports into fv/words_compared / fv/vectors_pruned_wordwise; the
// scalar side into micro/dominance/scalar_slot_checks. Their ratio is
// the word-parallel speedup the baseline pins.
void RunDominancePhase() {
  DominanceWorkload w = MakeDominanceWorkload();
  auto packed = features::PackedVectorSet::FromVectors(w.population);
  auto packed_floors = features::PackedVectorSet::FromVectors(w.floors);

  uint64_t scalar_slot_checks = 0;
  uint64_t matches = 0;
  features::PackedOpStats ops;
  for (size_t f = 0; f < w.floors.size(); ++f) {
    for (size_t i = 0; i < w.population.size(); ++i) {
      const bool scalar =
          ScalarDominates(w.floors[f], w.population[i], &scalar_slot_checks);
      const bool word = packed.Dominates(
          packed_floors.row(static_cast<int32_t>(f)),
          static_cast<int32_t>(i), &ops);
      if (scalar != word) {
        std::fprintf(stderr,
                     "FATAL: packed dominance disagrees with scalar "
                     "reference (floor %zu, row %zu)\n",
                     f, i);
        std::abort();
      }
      matches += word;
    }
  }
  features::FlushPackedOpStats(ops);

  auto& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("micro/dominance/pairs")
      ->Add(w.floors.size() * w.population.size());
  registry.GetCounter("micro/dominance/scalar_slot_checks")
      ->Add(scalar_slot_checks);
  registry.GetCounter("micro/dominance/supported")->Add(matches);
}

// Phase 2: VF2. CountEmbeddings drives the matcher over each graph's
// own adjacency lists; the library flushes graph/vf2_feasibility_checks,
// this phase adds the workload shape.
void RunVf2Phase() {
  graph::GraphDatabase db = SmallDb(64);
  graph::Graph motif = data::AztCoreMotif();
  uint64_t embeddings = 0;
  for (size_t i = 0; i < db.size(); ++i) {
    // The fixed motif exercises the mostly-reject path; each graph's own
    // leading induced subgraph guarantees hits, so both the feasibility
    // fast-fails and the full backtracking depth get counted.
    embeddings += graph::CountEmbeddings(motif, db.graph(i), 1000);
    std::vector<graph::VertexId> keep;
    for (graph::VertexId v = 0;
         v < std::min<graph::VertexId>(4, db.graph(i).num_vertices()); ++v) {
      keep.push_back(v);
    }
    graph::Graph self = db.graph(i).InducedSubgraph(keep);
    embeddings += graph::CountEmbeddings(self, db.graph(i), 1000);
  }
  auto& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("micro/vf2/targets")->Add(db.size());
  registry.GetCounter("micro/vf2/embeddings_found")->Add(embeddings);
}

// Phase 3: one FVMine group mined end to end with the global allocation
// counter armed. micro/fvmine/mallocs is the heap traffic of the whole
// mining call: the emitted vectors plus one scratch level per search
// depth, reused by every state at that depth.
void RunFvMineAllocPhase() {
  util::Rng rng(11);
  std::vector<features::FeatureVec> population;
  for (int i = 0; i < 200; ++i) {
    features::FeatureVec v(20);
    for (auto& x : v) {
      x = rng.NextBernoulli(0.25)
              ? static_cast<int16_t>(1 + rng.NextBounded(4))
              : 0;
    }
    population.push_back(std::move(v));
  }
  auto packed = features::PackedVectorSet::FromVectors(population);
  stats::FeaturePriors priors(population, 10);
  fvmine::FvMineConfig config;
  config.min_support = 10;
  config.max_pvalue = 0.05;

  // Warm-up run so lazily-initialized statics don't count as mining
  // allocations; then the measured run.
  (void)fvmine::FvMine(packed, priors, config);
  uint64_t mallocs = 0;
  size_t mined = 0;
  {
    CountAllocs scope;
    auto result = fvmine::FvMine(packed, priors, config);
    mallocs = scope.count();
    mined = result.vectors.size();
  }
  auto& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("micro/fvmine/mallocs")->Add(mallocs);
  registry.GetCounter("micro/fvmine/vectors")->Add(mined);
}

int RunCounterPhases(const std::string& counters_out) {
  auto& registry = obs::MetricsRegistry::Global();
  registry.Reset();
  RunDominancePhase();
  RunVf2Phase();
  RunFvMineAllocPhase();

  const auto values = registry.WorkValues();
  for (const auto& [name, value] : values) {
    std::printf("%-40s %llu\n", name.c_str(),
                static_cast<unsigned long long>(value));
  }
  if (!counters_out.empty()) {
    obs::DumpOptions options;
    options.include_advisory = false;
    std::ofstream out(counters_out);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", counters_out.c_str());
      return 1;
    }
    out << registry.DumpJson(options);
    if (!out.flush()) {
      std::fprintf(stderr, "write failed: %s\n", counters_out.c_str());
      return 1;
    }
  }
  return 0;
}

void BM_RwrPerGraph(benchmark::State& state) {
  graph::GraphDatabase db = SmallDb(32);
  auto fs = features::FeatureSpace::ForChemicalDatabase(db, 5);
  features::RwrConfig config;
  size_t i = 0;
  for (auto _ : state) {
    auto vectors = features::GraphToVectors(
        db.graph(i % db.size()), static_cast<int32_t>(i % db.size()), fs,
        config);
    benchmark::DoNotOptimize(vectors);
    ++i;
  }
}
BENCHMARK(BM_RwrPerGraph);

void BM_SubgraphIsomorphism(benchmark::State& state) {
  graph::GraphDatabase db = SmallDb(64);
  graph::Graph motif = data::AztCoreMotif();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        graph::IsSubgraphIsomorphic(motif, db.graph(i % db.size())));
    ++i;
  }
}
BENCHMARK(BM_SubgraphIsomorphism);

void BM_DominancePacked(benchmark::State& state) {
  DominanceWorkload w = MakeDominanceWorkload();
  auto packed = features::PackedVectorSet::FromVectors(w.population);
  auto packed_floors = features::PackedVectorSet::FromVectors(w.floors);
  features::PackedOpStats ops;
  for (auto _ : state) {
    uint64_t supported = 0;
    for (size_t f = 0; f < w.floors.size(); ++f) {
      for (size_t i = 0; i < w.population.size(); ++i) {
        supported += packed.Dominates(
            packed_floors.row(static_cast<int32_t>(f)),
            static_cast<int32_t>(i), &ops);
      }
    }
    benchmark::DoNotOptimize(supported);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(w.floors.size() *
                                               w.population.size()));
}
BENCHMARK(BM_DominancePacked);

void BM_DominanceScalar(benchmark::State& state) {
  DominanceWorkload w = MakeDominanceWorkload();
  uint64_t slots = 0;
  for (auto _ : state) {
    uint64_t supported = 0;
    for (const auto& floor : w.floors) {
      for (const auto& row : w.population) {
        supported += ScalarDominates(floor, row, &slots);
      }
    }
    benchmark::DoNotOptimize(supported);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(w.floors.size() *
                                               w.population.size()));
}
BENCHMARK(BM_DominanceScalar);

void BM_CanonicalCode(benchmark::State& state) {
  graph::GraphDatabase db = SmallDb(64);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fsm::CanonicalCode(db.graph(i % db.size())));
    ++i;
  }
}
BENCHMARK(BM_CanonicalCode);

void BM_PValue(benchmark::State& state) {
  util::Rng rng(7);
  std::vector<features::FeatureVec> population;
  for (int i = 0; i < 500; ++i) {
    features::FeatureVec v(40);
    for (auto& x : v) {
      x = rng.NextBernoulli(0.3)
              ? static_cast<int16_t>(1 + rng.NextBounded(9))
              : 0;
    }
    population.push_back(std::move(v));
  }
  stats::FeaturePriors priors(population, 10);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        priors.PValue(population[i % population.size()], 25));
    ++i;
  }
}
BENCHMARK(BM_PValue);

void BM_FvMineGroup(benchmark::State& state) {
  util::Rng rng(11);
  std::vector<features::FeatureVec> population;
  for (int i = 0; i < 200; ++i) {
    features::FeatureVec v(20);
    for (auto& x : v) {
      x = rng.NextBernoulli(0.25)
              ? static_cast<int16_t>(1 + rng.NextBounded(4))
              : 0;
    }
    population.push_back(std::move(v));
  }
  auto packed = features::PackedVectorSet::FromVectors(population);
  stats::FeaturePriors priors(population, 10);
  fvmine::FvMineConfig config;
  config.min_support = 10;
  config.max_pvalue = 0.05;
  for (auto _ : state) {
    auto result = fvmine::FvMine(packed, priors, config);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_FvMineGroup);

void BM_Hungarian(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  util::Rng rng(13);
  std::vector<std::vector<double>> scores(n, std::vector<double>(n));
  for (auto& row : scores) {
    for (double& x : row) x = rng.NextDouble();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(classify::MaxWeightAssignment(scores));
  }
}
BENCHMARK(BM_Hungarian)->Arg(10)->Arg(25)->Arg(50);

void BM_GraphSigEndToEnd(benchmark::State& state) {
  graph::GraphDatabase db = SmallDb(static_cast<size_t>(state.range(0)));
  core::GraphSigConfig config;
  config.cutoff_radius = 4;
  config.compute_db_frequency = false;
  core::GraphSig miner(config);
  for (auto _ : state) {
    auto result = miner.Mine(db);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(db.size()));
}
BENCHMARK(BM_GraphSigEndToEnd)->Arg(50)->Arg(100);

}  // namespace

int main(int argc, char** argv) {
  bool counter_mode = false;
  std::string counters_out;
  std::vector<char*> bench_argv = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      counter_mode = true;
    } else if (arg.rfind("--counters-out=", 0) == 0) {
      counter_mode = true;
      counters_out = arg.substr(std::string("--counters-out=").size());
    } else {
      bench_argv.push_back(argv[i]);
    }
  }
  if (counter_mode) return RunCounterPhases(counters_out);

  int bench_argc = static_cast<int>(bench_argv.size());
  benchmark::Initialize(&bench_argc, bench_argv.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_argv.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
