#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

#include "classify/oa_kernel.h"
#include "core/graphsig.h"
#include "data/datasets.h"
#include "features/rwr.h"
#include "util/parallel.h"

namespace graphsig::util {
namespace {

TEST(ParallelForTest, VisitsEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 4, 7}) {
    std::vector<std::atomic<int>> hits(257);
    for (auto& h : hits) h = 0;
    ParallelFor(threads, hits.size(), [&](size_t i) { ++hits[i]; });
    for (size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "threads=" << threads << " i=" << i;
    }
  }
}

TEST(ParallelForTest, ZeroAndOneCountWork) {
  int calls = 0;
  ParallelFor(4, 0, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  ParallelFor(4, 1, [&](size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelForTest, MoreThreadsThanWork) {
  std::atomic<int64_t> sum{0};
  ParallelFor(16, 5, [&](size_t i) { sum += static_cast<int64_t>(i); });
  EXPECT_EQ(sum.load(), 10);
}

TEST(ParallelForTest, HardwareThreadsPositive) {
  EXPECT_GE(HardwareThreads(), 1);
}

TEST(ParallelFeaturizationTest, ThreadedMatchesSerial) {
  data::DatasetOptions options;
  options.size = 40;
  options.seed = 77;
  graph::GraphDatabase db = data::MakeAidsLike(options);
  auto fs = features::FeatureSpace::ForChemicalDatabase(db, 5);
  features::RwrConfig config;
  auto serial = features::DatabaseToVectors(db, fs, config, 1);
  auto threaded = features::DatabaseToVectors(db, fs, config, 4);
  ASSERT_EQ(serial.size(), threaded.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].graph_index, threaded[i].graph_index);
    EXPECT_EQ(serial[i].node, threaded[i].node);
    EXPECT_EQ(serial[i].values, threaded[i].values);
  }
}

// The acceptance bar for the parallel pipeline: Mine() is bit-identical
// for every thread count, across every field of every report, in the
// same order. Exercises parallel FVMine groups, the region-cut cache,
// per-vector graph-space tasks, and the deterministic merges.
TEST(ParallelFeaturizationTest, MineBitIdenticalAcrossThreadCounts) {
  data::DatasetOptions options;
  options.size = 60;
  options.seed = 78;
  options.active_fraction = 0.2;
  graph::GraphDatabase db = data::MakeAidsLike(options);
  core::GraphSigConfig config;
  config.cutoff_radius = 3;
  config.min_freq_percent = 2.0;
  core::GraphSigResult serial = core::GraphSig(config).Mine(db);
  EXPECT_GT(serial.subgraphs.size(), 0u);
  for (int threads : {4, 8}) {
    config.num_threads = threads;
    core::GraphSigResult threaded = core::GraphSig(config).Mine(db);
    ASSERT_EQ(serial.subgraphs.size(), threaded.subgraphs.size())
        << "threads=" << threads;
    for (size_t i = 0; i < serial.subgraphs.size(); ++i) {
      const core::SignificantSubgraph& a = serial.subgraphs[i];
      const core::SignificantSubgraph& b = threaded.subgraphs[i];
      EXPECT_EQ(a.subgraph, b.subgraph) << "threads=" << threads;
      EXPECT_EQ(a.vector, b.vector);
      EXPECT_EQ(a.vector_pvalue, b.vector_pvalue);
      EXPECT_EQ(a.vector_support, b.vector_support);
      EXPECT_EQ(a.anchor_label, b.anchor_label);
      EXPECT_EQ(a.set_size, b.set_size);
      EXPECT_EQ(a.set_support, b.set_support);
      EXPECT_EQ(a.db_frequency, b.db_frequency);
    }
    EXPECT_EQ(serial.stats.num_vectors, threaded.stats.num_vectors);
    EXPECT_EQ(serial.stats.num_groups, threaded.stats.num_groups);
    EXPECT_EQ(serial.stats.num_significant_vectors,
              threaded.stats.num_significant_vectors);
    EXPECT_EQ(serial.stats.num_sets_mined, threaded.stats.num_sets_mined);
    EXPECT_EQ(serial.stats.num_sets_filtered,
              threaded.stats.num_sets_filtered);
    EXPECT_EQ(serial.stats.num_sets_capped, threaded.stats.num_sets_capped);
    EXPECT_EQ(serial.stats.num_region_requests,
              threaded.stats.num_region_requests);
    EXPECT_EQ(serial.stats.num_unique_regions,
              threaded.stats.num_unique_regions);
  }
  // The cache only pays off if cuts are actually shared across vectors.
  EXPECT_LT(serial.stats.num_unique_regions,
            serial.stats.num_region_requests);
}

TEST(ParallelOaTest, ThreadedGramMatchesSerial) {
  data::DatasetOptions options;
  options.size = 40;
  options.seed = 79;
  options.active_fraction = 0.3;
  graph::GraphDatabase db = data::MakeAidsLike(options);

  classify::OaKernelConfig serial_config;
  classify::OaKernelClassifier serial(serial_config);
  serial.Train(db);

  classify::OaKernelConfig threaded_config;
  threaded_config.num_threads = 4;
  classify::OaKernelClassifier threaded(threaded_config);
  threaded.Train(db);

  for (size_t i = 0; i < db.size(); i += 7) {
    EXPECT_DOUBLE_EQ(serial.Score(db.graph(i)),
                     threaded.Score(db.graph(i)));
  }
}

}  // namespace
}  // namespace graphsig::util
