#include "baselines/gh_tree.h"

#include <gtest/gtest.h>

#include <array>
#include <type_traits>

#include "dataset/vector_gen.h"
#include "dataset/words.h"
#include "metric/counting.h"
#include "metric/edit_distance.h"
#include "metric/lp.h"
#include "scan/linear_scan.h"

namespace mvp::baselines {
namespace {

using metric::L2;
using metric::Vector;
using VecGh = GhTree<Vector, L2>;

TEST(GhTreeTest, RejectsBadOptions) {
  VecGh::Options options;
  options.leaf_capacity = 0;
  EXPECT_FALSE(VecGh::Build({}, L2(), options).ok());
}

TEST(GhTreeTest, EmptyAndTiny) {
  auto empty = VecGh::Build({}, L2(), {});
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty.value().RangeSearch({0, 0}, 5.0).empty());
  auto two = VecGh::Build({{0, 0}, {1, 1}}, L2(), {});
  ASSERT_TRUE(two.ok());
  EXPECT_EQ(two.value().RangeSearch({0, 0}, 5.0).size(), 2u);
}

// gtest names each case after the bytes of its GhParam, so the struct has no
// implicit padding: `reserved` zero-fills the bytes after `far_apart`, which
// otherwise held stack garbage and changed the test names from run to run.
struct GhParam {
  int leaf_capacity;
  bool far_apart;
  std::array<char, 3> reserved{};
  std::size_t n;
  std::size_t dim;
};
static_assert(std::has_unique_object_representations_v<GhParam>);

class GhTreeSweepTest : public ::testing::TestWithParam<GhParam> {};

TEST_P(GhTreeSweepTest, RangeSearchMatchesLinearScan) {
  const auto p = GetParam();
  const auto data = dataset::UniformVectors(p.n, p.dim, 11);
  VecGh::Options options;
  options.leaf_capacity = p.leaf_capacity;
  options.far_apart_pivots = p.far_apart;
  auto built = VecGh::Build(data, L2(), options);
  ASSERT_TRUE(built.ok());
  scan::LinearScan<Vector, L2> reference(data, L2());
  const auto queries = dataset::UniformQueryVectors(8, p.dim, 13);
  for (const auto& q : queries) {
    for (const double r : {0.0, 0.25, 0.7, 1.5}) {
      const auto got = built.value().RangeSearch(q, r);
      const auto expected = reference.RangeSearch(q, r);
      ASSERT_EQ(got.size(), expected.size()) << "r=" << r;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].id, expected[i].id);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GhTreeSweepTest,
    ::testing::Values(
        GhParam{.leaf_capacity = 4, .far_apart = true, .n = 400, .dim = 6},
        GhParam{.leaf_capacity = 1, .far_apart = true, .n = 300, .dim = 4},
        GhParam{.leaf_capacity = 4, .far_apart = false, .n = 400, .dim = 6},
        GhParam{.leaf_capacity = 10, .far_apart = true, .n = 500, .dim = 10},
        GhParam{.leaf_capacity = 4, .far_apart = true, .n = 20, .dim = 3}));

TEST_P(GhTreeSweepTest, KnnMatchesLinearScan) {
  const auto p = GetParam();
  const auto data = dataset::UniformVectors(p.n, p.dim, 21);
  VecGh::Options options;
  options.leaf_capacity = p.leaf_capacity;
  options.far_apart_pivots = p.far_apart;
  auto built = VecGh::Build(data, L2(), options);
  ASSERT_TRUE(built.ok());
  scan::LinearScan<Vector, L2> reference(data, L2());
  const auto queries = dataset::UniformQueryVectors(6, p.dim, 23);
  for (const auto& q : queries) {
    for (const std::size_t k : {1u, 4u, 15u}) {
      const auto got = built.value().KnnSearch(q, k);
      const auto expected = reference.KnnSearch(q, k);
      ASSERT_EQ(got.size(), expected.size()) << "k=" << k;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].id, expected[i].id) << "k=" << k << " i=" << i;
      }
    }
  }
}

TEST(GhTreeTest, DuplicatesDoNotInfinitelyRecurse) {
  std::vector<Vector> data(500, Vector{3, 3});
  auto built = VecGh::Build(data, L2(), {});
  ASSERT_TRUE(built.ok());
  EXPECT_EQ(built.value().RangeSearch({3, 3}, 0.0).size(), 500u);
  EXPECT_LE(built.value().Stats().height, 66u);
}

TEST(GhTreeTest, AllPointsAccounted) {
  const auto data = dataset::UniformVectors(333, 5, 17);
  auto built = VecGh::Build(data, L2(), {});
  ASSERT_TRUE(built.ok());
  EXPECT_EQ(built.value().RangeSearch(Vector(5, 0.5), 1e9).size(), 333u);
  const auto stats = built.value().Stats();
  EXPECT_EQ(stats.num_vantage_points + stats.num_leaf_points, 333u);
}

TEST(GhTreeTest, SearchStatsMatchCountingMetric) {
  const auto data = dataset::UniformVectors(300, 6, 19);
  metric::DistanceCounter counter;
  auto counted = metric::MakeCounting(L2(), counter);
  auto built =
      GhTree<Vector, metric::CountingMetric<L2>>::Build(data, counted, {});
  ASSERT_TRUE(built.ok());
  counter.Reset();
  SearchStats stats;
  built.value().RangeSearch(data[7], 0.5, &stats);
  EXPECT_EQ(stats.distance_computations, counter.count());
}

TEST(GhTreeTest, WorksWithEditDistance) {
  auto words = dataset::SyntheticWords(250, 29);
  using WordGh = GhTree<std::string, metric::Levenshtein>;
  auto built = WordGh::Build(words, metric::Levenshtein(), {});
  ASSERT_TRUE(built.ok());
  scan::LinearScan<std::string, metric::Levenshtein> reference(
      words, metric::Levenshtein());
  const std::string q = dataset::MutateWord(words[31], 2, 7);
  for (const double r : {1.0, 2.0, 4.0}) {
    EXPECT_EQ(built.value().RangeSearch(q, r).size(),
              reference.RangeSearch(q, r).size());
  }
}

}  // namespace
}  // namespace mvp::baselines
