// Tests for the paper's §2 "farthest" query forms on the mvp-tree: all
// objects farther than a range, and the k farthest objects.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/codec.h"
#include "common/serialize.h"
#include "core/mvp_tree.h"
#include "dataset/vector_gen.h"
#include "metric/lp.h"
#include "scan/linear_scan.h"
#include "snapshot/flat_tree.h"

namespace mvp::core {
namespace {

using metric::L2;
using metric::Vector;
using VecTree = MvpTree<Vector, L2>;

VecTree MustBuild(std::vector<Vector> data, VecTree::Options options = {}) {
  auto result = VecTree::Build(std::move(data), L2(), options);
  EXPECT_TRUE(result.ok());
  return std::move(result).ValueOrDie();
}

TEST(MvpTreeFarthestTest, KFarthestMatchesLinearScan) {
  const auto data = dataset::UniformVectors(600, 8, 7);
  auto tree = MustBuild(data);
  scan::LinearScan<Vector, L2> reference(data, L2());
  const auto queries = dataset::UniformQueryVectors(8, 8, 11);
  for (const auto& q : queries) {
    for (const std::size_t k : {1u, 5u, 20u}) {
      const auto got = tree.FarthestSearch(q, k);
      const auto expected = reference.FarthestSearch(q, k);
      ASSERT_EQ(got.size(), expected.size()) << "k=" << k;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].id, expected[i].id) << "k=" << k << " i=" << i;
        EXPECT_DOUBLE_EQ(got[i].distance, expected[i].distance);
      }
    }
  }
}

TEST(MvpTreeFarthestTest, FarthestRangeMatchesBruteForce) {
  const auto data = dataset::UniformVectors(500, 6, 13);
  auto tree = MustBuild(data);
  L2 d;
  const auto queries = dataset::UniformQueryVectors(6, 6, 17);
  for (const auto& q : queries) {
    for (const double r : {1.0, 1.4, 1.8, 2.4}) {
      const auto got = tree.FarthestRangeSearch(q, r);
      std::size_t expected = 0;
      for (const auto& x : data) expected += d(q, x) >= r ? 1 : 0;
      ASSERT_EQ(got.size(), expected) << "r=" << r;
      // Sorted by decreasing distance, all >= r.
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_GE(got[i].distance, r);
        if (i > 0) {
          EXPECT_LE(got[i].distance, got[i - 1].distance);
        }
      }
    }
  }
}

TEST(MvpTreeFarthestTest, FarthestRangeZeroReturnsEverything) {
  const auto data = dataset::UniformVectors(100, 4, 19);
  auto tree = MustBuild(data);
  EXPECT_EQ(tree.FarthestRangeSearch(Vector(4, 0.5), 0.0).size(), 100u);
}

TEST(MvpTreeFarthestTest, KLargerThanDataset) {
  const auto data = dataset::UniformVectors(30, 4, 23);
  auto tree = MustBuild(data);
  EXPECT_EQ(tree.FarthestSearch(Vector(4, 0.5), 100).size(), 30u);
}

TEST(MvpTreeFarthestTest, EmptyTree) {
  auto tree = MustBuild({});
  EXPECT_TRUE(tree.FarthestSearch({1, 2}, 3).empty());
  EXPECT_TRUE(tree.FarthestRangeSearch({1, 2}, 0.5).empty());
}

TEST(MvpTreeFarthestTest, PrunesComparedToScan) {
  const auto data = dataset::UniformVectors(8000, 20, 29);
  auto tree = MustBuild(data);
  SearchStats stats;
  // The farthest points from a corner query are well separated from the
  // bulk; the upper-bound pruning must beat the scan.
  tree.FarthestSearch(Vector(20, 0.0), 1, &stats);
  EXPECT_LT(stats.distance_computations, 8000u);
}

TEST(MvpTreeFarthestTest, WorksAcrossParameterSettings) {
  const auto data = dataset::UniformVectors(400, 5, 31);
  scan::LinearScan<Vector, L2> reference(data, L2());
  const Vector q(5, 0.2);
  const auto expected = reference.FarthestSearch(q, 10);
  for (const int m : {2, 3, 4}) {
    for (const int k : {1, 10, 60}) {
      VecTree::Options options;
      options.order = m;
      options.leaf_capacity = k;
      options.num_path_distances = 4;
      auto tree = MustBuild(data, options);
      const auto got = tree.FarthestSearch(q, 10);
      ASSERT_EQ(got.size(), expected.size()) << "m=" << m << " k=" << k;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].id, expected[i].id) << "m=" << m << " k=" << k;
      }
    }
  }
}

/// Uniform points where every 3rd and every 5th one is stored again (every
/// 15th three times), so exact ties sit at many k-th distances and radii.
std::vector<Vector> WithDuplicates(std::size_t count, std::size_t dim,
                                   std::uint64_t seed) {
  std::vector<Vector> data;
  for (const Vector& v : dataset::UniformVectors(count, dim, seed)) {
    const std::size_t i = data.size();
    data.push_back(v);
    if (i % 3 == 0) data.push_back(v);
    if (i % 5 == 0) data.push_back(v);
  }
  return data;
}

/// Queries for the tie tests: stored points (each at distance 0 from its
/// own duplicates) and uniform points.
std::vector<Vector> TieQueries(const std::vector<Vector>& data) {
  std::vector<Vector> queries = dataset::UniformQueryVectors(3, 4, 43);
  for (std::size_t i = 0; i < data.size(); i += 97) queries.push_back(data[i]);
  return queries;
}

void ExpectSameStats(const SearchStats& a, const SearchStats& b) {
  EXPECT_EQ(a.distance_computations, b.distance_computations);
  EXPECT_EQ(a.nodes_visited, b.nodes_visited);
  EXPECT_EQ(a.leaf_points_seen, b.leaf_points_seen);
  EXPECT_EQ(a.leaf_points_filtered, b.leaf_points_filtered);
}

/// Runs `fn(tree)` on a tree over `data` for every m in {2, 3} and leaf
/// capacity in {1, 8, 80}.
template <typename Fn>
void ForEachShape(const std::vector<Vector>& data, Fn&& fn) {
  for (const int m : {2, 3}) {
    for (const int capacity : {1, 8, 80}) {
      VecTree::Options options;
      options.order = m;
      options.leaf_capacity = capacity;
      SCOPED_TRACE(::testing::Message()
                   << "m=" << m << " leaf_capacity=" << capacity);
      fn(MustBuild(data, options));
    }
  }
}

TEST(MvpTreeFarthestTest, KFarthestKeepsLowestIdsAmongTies) {
  const auto data = WithDuplicates(300, 4, 37);
  scan::LinearScan<Vector, L2> reference(data, L2());
  ForEachShape(data, [&](const VecTree& tree) {
    for (const Vector& q : TieQueries(data)) {
      for (const std::size_t k : {std::size_t{1}, std::size_t{2},
                                  std::size_t{3}, std::size_t{7},
                                  std::size_t{40}, data.size() + 5}) {
        EXPECT_EQ(tree.FarthestSearch(q, k), reference.FarthestSearch(q, k))
            << "k=" << k;
      }
    }
  });
}

TEST(MvpTreeFarthestTest, FarthestRangeAtStoredDistancesMatchesScan) {
  const auto data = WithDuplicates(300, 4, 41);
  scan::LinearScan<Vector, L2> reference(data, L2());
  ForEachShape(data, [&](const VecTree& tree) {
    for (const Vector& q : TieQueries(data)) {
      const auto all = reference.FarthestSearch(q, data.size());
      // Radii equal to stored distances: the farthest, six in between and
      // the nearest, each a closed bound.
      std::vector<double> radii;
      for (std::size_t i = 0; i < all.size(); i += all.size() / 7) {
        radii.push_back(all[i].distance);
      }
      radii.push_back(all.back().distance);
      for (const double r : radii) {
        std::vector<Neighbor> expected;
        for (const Neighbor& n : all) {
          if (n.distance >= r) expected.push_back(n);
        }
        EXPECT_EQ(tree.FarthestRangeSearch(q, r), expected) << "r=" << r;
      }
    }
  });
}

TEST(MvpTreeFarthestTest, FlatTreeMatchesHeapTreeAndStats) {
  const auto data = WithDuplicates(300, 4, 47);
  ForEachShape(data, [&](const VecTree& heap) {
    BinaryWriter stream;
    ASSERT_TRUE(heap.Serialize(&stream, VectorCodec{}).ok());
    auto arena = snapshot::flat::BuildFlatArena(stream.buffer().data(),
                                                stream.buffer().size());
    ASSERT_TRUE(arena.ok()) << arena.status().ToString();
    const std::vector<std::uint8_t> bytes = std::move(arena).ValueOrDie();
    auto flat =
        snapshot::flat::OpenTree(bytes.data(), bytes.size(), L2(), nullptr);
    ASSERT_TRUE(flat.ok()) << flat.status().ToString();
    for (const Vector& q : TieQueries(data)) {
      for (const std::size_t k : {std::size_t{1}, std::size_t{10}}) {
        SearchStats a, b;
        EXPECT_EQ(heap.FarthestSearch(q, k, &a),
                  flat.value().FarthestSearch(q, k, &b));
        ExpectSameStats(a, b);
      }
      for (const double r : {0.3, 0.8, 1.2}) {
        SearchStats a, b;
        EXPECT_EQ(heap.FarthestRangeSearch(q, r, &a),
                  flat.value().FarthestRangeSearch(q, r, &b));
        ExpectSameStats(a, b);
      }
    }
  });
}

}  // namespace
}  // namespace mvp::core
