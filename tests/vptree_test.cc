#include "vptree/vp_tree.h"

#include <gtest/gtest.h>

#include <tuple>

#include "dataset/vector_gen.h"
#include "dataset/words.h"
#include "metric/counting.h"
#include "metric/edit_distance.h"
#include "metric/lp.h"
#include "scan/linear_scan.h"

namespace mvp::vptree {
namespace {

using metric::L2;
using metric::Vector;
using VecTree = VpTree<Vector, L2>;

VecTree MustBuild(std::vector<Vector> data, VecTree::Options options = {}) {
  auto result = VecTree::Build(std::move(data), L2(), options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).ValueOrDie();
}

TEST(VpTreeTest, RejectsBadOptions) {
  VecTree::Options options;
  options.order = 1;
  EXPECT_EQ(VecTree::Build({}, L2(), options).status().code(),
            StatusCode::kInvalidArgument);
  options.order = 2;
  options.leaf_capacity = 0;
  EXPECT_EQ(VecTree::Build({}, L2(), options).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(VpTreeTest, EmptyTree) {
  auto tree = MustBuild({});
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_TRUE(tree.RangeSearch({0, 0}, 1.0).empty());
  EXPECT_TRUE(tree.KnnSearch({0, 0}, 3).empty());
  EXPECT_EQ(tree.Stats().height, 0u);
}

TEST(VpTreeTest, SinglePoint) {
  auto tree = MustBuild({{1, 1}});
  const auto hit = tree.RangeSearch({1, 1}, 0.0);
  ASSERT_EQ(hit.size(), 1u);
  EXPECT_EQ(hit[0].id, 0u);
  EXPECT_TRUE(tree.RangeSearch({5, 5}, 1.0).empty());
}

TEST(VpTreeTest, AllIdenticalPoints) {
  std::vector<Vector> data(50, Vector{2, 2, 2});
  auto tree = MustBuild(data);
  EXPECT_EQ(tree.RangeSearch({2, 2, 2}, 0.0).size(), 50u);
  EXPECT_EQ(tree.RangeSearch({2, 2, 2.5}, 0.4).size(), 0u);
  EXPECT_EQ(tree.KnnSearch({0, 0, 0}, 7).size(), 7u);
}

TEST(VpTreeTest, VantagePointsAreDataPointsAndSearchable) {
  // Every data point, including those consumed as vantage points, must be
  // reported by a search that covers it.
  const auto data = dataset::UniformVectors(100, 4, 3);
  auto tree = MustBuild(data);
  const auto all = tree.RangeSearch(Vector{0.5, 0.5, 0.5, 0.5}, 100.0);
  EXPECT_EQ(all.size(), 100u);
}

struct SweepParam {
  int order;
  int leaf_capacity;
  std::size_t n;
  std::size_t dim;
  bool exact_bounds;
};

class VpTreeSweepTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(VpTreeSweepTest, RangeSearchMatchesLinearScan) {
  const auto p = GetParam();
  const auto data = dataset::UniformVectors(p.n, p.dim, 7);
  VecTree::Options options;
  options.order = p.order;
  options.leaf_capacity = p.leaf_capacity;
  options.store_exact_bounds = p.exact_bounds;
  options.seed = 99;
  auto tree = MustBuild(data, options);
  scan::LinearScan<Vector, L2> reference(data, L2());

  const auto queries = dataset::UniformQueryVectors(10, p.dim, 13);
  for (const auto& q : queries) {
    for (const double radius : {0.0, 0.3, 0.8, 1.5, 4.0}) {
      const auto got = tree.RangeSearch(q, radius);
      const auto expected = reference.RangeSearch(q, radius);
      ASSERT_EQ(got.size(), expected.size())
          << "radius " << radius << " order " << p.order;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].id, expected[i].id);
        EXPECT_DOUBLE_EQ(got[i].distance, expected[i].distance);
      }
    }
  }
}

TEST_P(VpTreeSweepTest, KnnMatchesLinearScan) {
  const auto p = GetParam();
  const auto data = dataset::UniformVectors(p.n, p.dim, 17);
  VecTree::Options options;
  options.order = p.order;
  options.leaf_capacity = p.leaf_capacity;
  options.store_exact_bounds = p.exact_bounds;
  auto tree = MustBuild(data, options);
  scan::LinearScan<Vector, L2> reference(data, L2());

  const auto queries = dataset::UniformQueryVectors(8, p.dim, 19);
  for (const auto& q : queries) {
    for (const std::size_t k : {1u, 3u, 10u}) {
      const auto got = tree.KnnSearch(q, k);
      const auto expected = reference.KnnSearch(q, k);
      ASSERT_EQ(got.size(), expected.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].id, expected[i].id) << "k=" << k << " i=" << i;
      }
    }
  }
}

TEST_P(VpTreeSweepTest, StatsAreConsistent) {
  const auto p = GetParam();
  const auto data = dataset::UniformVectors(p.n, p.dim, 23);
  VecTree::Options options;
  options.order = p.order;
  options.leaf_capacity = p.leaf_capacity;
  auto tree = MustBuild(data, options);
  const auto stats = tree.Stats();
  // Every data point is either a vantage point or in a leaf bucket.
  EXPECT_EQ(stats.num_vantage_points + stats.num_leaf_points, p.n);
  EXPECT_EQ(stats.num_vantage_points, stats.num_internal_nodes);
  EXPECT_GT(stats.construction_distance_computations, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, VpTreeSweepTest,
    ::testing::Values(SweepParam{2, 1, 300, 4, false},
                      SweepParam{2, 1, 300, 4, true},
                      SweepParam{2, 8, 500, 8, false},
                      SweepParam{3, 1, 300, 4, false},
                      SweepParam{3, 5, 500, 8, true},
                      SweepParam{4, 1, 200, 3, false},
                      SweepParam{5, 13, 431, 6, false},
                      SweepParam{2, 1, 63, 2, false},
                      SweepParam{7, 3, 100, 20, false}));

TEST(VpTreeTest, MaxSpreadSelectionStaysCorrect) {
  const auto data = dataset::UniformVectors(400, 6, 29);
  VecTree::Options options;
  options.order = 3;
  options.selection.strategy = VpSelection::kMaxSpread;
  auto tree = MustBuild(data, options);
  scan::LinearScan<Vector, L2> reference(data, L2());
  const auto queries = dataset::UniformQueryVectors(5, 6, 31);
  for (const auto& q : queries) {
    EXPECT_EQ(tree.RangeSearch(q, 0.9).size(),
              reference.RangeSearch(q, 0.9).size());
  }
}

TEST(VpTreeTest, SearchStatsCountDistancesExactly) {
  const auto data = dataset::UniformVectors(500, 8, 37);
  metric::DistanceCounter counter;
  auto counted = metric::MakeCounting(L2(), counter);
  using CountedTree = VpTree<Vector, metric::CountingMetric<L2>>;
  auto result = CountedTree::Build(data, counted, {});
  ASSERT_TRUE(result.ok());
  auto& tree = result.value();
  counter.Reset();
  SearchStats stats;
  tree.RangeSearch(data[0], 0.5, &stats);
  EXPECT_EQ(stats.distance_computations, counter.count());
}

TEST(VpTreeTest, PrunesComparedToLinearScan) {
  // On a moderate dataset with a small radius the vp-tree must beat n
  // distance computations (the entire point of the structure).
  const auto data = dataset::UniformVectors(2000, 8, 41);
  auto tree = MustBuild(data, {});
  SearchStats stats;
  tree.RangeSearch(data[42], 0.1, &stats);
  EXPECT_LT(stats.distance_computations, 2000u);
}

TEST(VpTreeTest, ConstructionCostScalesAsNLogN) {
  // O(n log_m n) distance computations (§3.3): for n=1024, order 2 with
  // leaf capacity 1, each level costs ~n and there are ~log2(n) levels.
  const auto data = dataset::UniformVectors(1024, 4, 43);
  auto tree = MustBuild(data, {});
  const auto cost = tree.Stats().construction_distance_computations;
  EXPECT_GT(cost, 1024u * 5u);
  EXPECT_LT(cost, 1024u * 20u);
}

TEST(VpTreeTest, WorksWithEditDistance) {
  auto words = dataset::SyntheticWords(300, 47);
  using WordTree = VpTree<std::string, metric::Levenshtein>;
  WordTree::Options options;
  options.order = 3;
  auto result = WordTree::Build(words, metric::Levenshtein(), options);
  ASSERT_TRUE(result.ok());
  auto& tree = result.value();
  scan::LinearScan<std::string, metric::Levenshtein> reference(
      words, metric::Levenshtein());
  const std::string query = dataset::MutateWord(words[5], 1, 3);
  for (const double r : {0.0, 1.0, 2.0, 4.0}) {
    EXPECT_EQ(tree.RangeSearch(query, r).size(),
              reference.RangeSearch(query, r).size());
  }
}

TEST(VpTreeTest, DeterministicForFixedSeed) {
  const auto data = dataset::UniformVectors(200, 5, 53);
  VecTree::Options options;
  options.seed = 5;
  auto a = MustBuild(data, options);
  auto b = MustBuild(data, options);
  SearchStats sa, sb;
  a.RangeSearch(data[0], 0.4, &sa);
  b.RangeSearch(data[0], 0.4, &sb);
  EXPECT_EQ(sa.distance_computations, sb.distance_computations);
}

}  // namespace
}  // namespace mvp::vptree
