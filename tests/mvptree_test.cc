#include "core/mvp_tree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "dataset/image.h"
#include "dataset/image_gen.h"
#include "dataset/vector_gen.h"
#include "dataset/words.h"
#include "metric/counting.h"
#include "metric/edit_distance.h"
#include "metric/lp.h"
#include "scan/linear_scan.h"
#include "serve/cancel.h"
#include "serve/executor.h"

namespace mvp::core {
namespace {

using metric::L2;
using metric::Vector;
using VecTree = MvpTree<Vector, L2>;

VecTree MustBuild(std::vector<Vector> data, VecTree::Options options = {}) {
  auto result = VecTree::Build(std::move(data), L2(), options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).ValueOrDie();
}

TEST(MvpTreeTest, RejectsBadOptions) {
  VecTree::Options options;
  options.order = 1;
  EXPECT_EQ(VecTree::Build({}, L2(), options).status().code(),
            StatusCode::kInvalidArgument);
  options = {};
  options.leaf_capacity = 0;
  EXPECT_EQ(VecTree::Build({}, L2(), options).status().code(),
            StatusCode::kInvalidArgument);
  options = {};
  options.num_path_distances = -1;
  EXPECT_EQ(VecTree::Build({}, L2(), options).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(MvpTreeTest, RejectsRaggedAndZeroDimensionVectors) {
  // A vector tree stores one row-major slab, so every vector must share
  // one dimension of at least 1.
  EXPECT_EQ(VecTree::Build({{1, 2}, {3, 4}, {5}}, L2()).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(VecTree::Build({{}, {}}, L2()).status().code(),
            StatusCode::kInvalidArgument);
  auto built = VecTree::Build({{1, 2}, {3, 4}, {5, 6}}, L2());
  ASSERT_TRUE(built.ok());
  EXPECT_EQ(built.value().dim(), 2u);
  // The slab is in the tree's row order: object id at row row_of(id).
  const auto rows = built.value().rows();
  ASSERT_EQ(rows.size(), 6u);
  const std::vector<Vector> data = {{1, 2}, {3, 4}, {5, 6}};
  for (std::size_t id = 0; id < data.size(); ++id) {
    const auto at = rows.begin() +
                    static_cast<std::ptrdiff_t>(2 * built.value().row_of(id));
    EXPECT_EQ(Vector(at, at + 2), data[id]);
    EXPECT_EQ(Vector(built.value().object(id)), data[id]);
  }
}

TEST(MvpTreeTest, EmptyTree) {
  auto tree = MustBuild({});
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_TRUE(tree.RangeSearch({0, 0}, 1.0).empty());
  EXPECT_TRUE(tree.KnnSearch({0, 0}, 3).empty());
}

TEST(MvpTreeTest, SinglePointBecomesVantagePoint) {
  auto tree = MustBuild({{1, 2}});
  const auto hits = tree.RangeSearch({1, 2}, 0.5);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].id, 0u);
  const auto stats = tree.Stats();
  EXPECT_EQ(stats.num_vantage_points, 1u);
  EXPECT_EQ(stats.num_leaf_points, 0u);
}

TEST(MvpTreeTest, TwoPointsBothVantagePoints) {
  auto tree = MustBuild({{0, 0}, {5, 5}});
  EXPECT_EQ(tree.RangeSearch({0, 0}, 10.0).size(), 2u);
  const auto stats = tree.Stats();
  EXPECT_EQ(stats.num_vantage_points, 2u);
  EXPECT_EQ(stats.num_leaf_points, 0u);
}

TEST(MvpTreeTest, ThreePointsOneLeafPoint) {
  auto tree = MustBuild({{0, 0}, {5, 5}, {1, 1}});
  EXPECT_EQ(tree.RangeSearch({0, 0}, 10.0).size(), 3u);
  const auto stats = tree.Stats();
  EXPECT_EQ(stats.num_vantage_points, 2u);
  EXPECT_EQ(stats.num_leaf_points, 1u);
}

TEST(MvpTreeTest, AllIdenticalPoints) {
  std::vector<Vector> data(100, Vector{1, 1});
  auto tree = MustBuild(data);
  EXPECT_EQ(tree.RangeSearch({1, 1}, 0.0).size(), 100u);
  EXPECT_TRUE(tree.RangeSearch({9, 9}, 1.0).empty());
  EXPECT_EQ(tree.KnnSearch({3, 3}, 11).size(), 11u);
}

TEST(MvpTreeTest, DuplicateHeavyDataset) {
  // Half the points identical, half unique: exercises cutoff ties.
  auto data = dataset::UniformVectors(100, 3, 61);
  for (int i = 0; i < 100; ++i) data.push_back(Vector{0.5, 0.5, 0.5});
  auto tree = MustBuild(data);
  scan::LinearScan<Vector, L2> reference(data, L2());
  const auto queries = dataset::UniformQueryVectors(10, 3, 67);
  for (const auto& q : queries) {
    for (const double r : {0.0, 0.2, 0.5, 1.0}) {
      EXPECT_EQ(tree.RangeSearch(q, r).size(),
                reference.RangeSearch(q, r).size());
    }
  }
  EXPECT_EQ(tree.RangeSearch({0.5, 0.5, 0.5}, 0.0).size(), 100u);
}

TEST(MvpTreeTest, EveryPointRetrievableIncludingInternalVantagePoints) {
  const auto data = dataset::UniformVectors(777, 6, 71);
  auto tree = MustBuild(data);
  const auto all = tree.RangeSearch(Vector(6, 0.5), 1e6);
  ASSERT_EQ(all.size(), 777u);
  // ids must be a permutation of 0..n-1
  std::vector<bool> seen(777, false);
  for (const auto& n : all) {
    EXPECT_FALSE(seen[n.id]);
    seen[n.id] = true;
  }
}

TEST(MvpTreeTest, ReportedDistancesAreExact) {
  const auto data = dataset::UniformVectors(200, 5, 73);
  auto tree = MustBuild(data);
  const Vector q(5, 0.3);
  L2 d;
  for (const auto& hit : tree.RangeSearch(q, 0.7)) {
    EXPECT_DOUBLE_EQ(hit.distance, d(q, data[hit.id]));
  }
}

TEST(MvpTreeTest, SearchStatsMatchCountingMetric) {
  const auto data = dataset::UniformVectors(800, 8, 79);
  metric::DistanceCounter counter;
  auto counted = metric::MakeCounting(L2(), counter);
  using CountedTree = MvpTree<Vector, metric::CountingMetric<L2>>;
  auto result = CountedTree::Build(data, counted, {});
  ASSERT_TRUE(result.ok());
  auto& tree = result.value();
  // Construction cost is tracked too.
  EXPECT_EQ(tree.Stats().construction_distance_computations, counter.count());
  counter.Reset();
  SearchStats stats;
  tree.RangeSearch(data[3], 0.4, &stats);
  EXPECT_EQ(stats.distance_computations, counter.count());
  counter.Reset();
  stats = {};
  tree.KnnSearch(data[3], 10, &stats);
  EXPECT_EQ(stats.distance_computations, counter.count());
}

TEST(MvpTreeTest, LeafFilteringRejectsWithoutComputing) {
  // For a tiny radius nearly every leaf point must be rejected by the
  // stored D1/D2/PATH distances, i.e. filtered > 0 and far fewer distance
  // computations than points seen.
  const auto data = dataset::UniformVectors(5000, 20, 83);
  auto tree = MustBuild(data);
  SearchStats stats;
  tree.RangeSearch(dataset::UniformQueryVectors(1, 20, 5)[0], 0.15, &stats);
  EXPECT_GT(stats.leaf_points_filtered, 0u);
  EXPECT_LT(stats.distance_computations,
            stats.leaf_points_seen + 2 * stats.nodes_visited);
}

TEST(MvpTreeTest, BeatsLinearScanOnModerateRadius) {
  const auto data = dataset::UniformVectors(5000, 20, 89);
  auto tree = MustBuild(data);
  SearchStats stats;
  tree.RangeSearch(dataset::UniformQueryVectors(1, 20, 7)[0], 0.3, &stats);
  EXPECT_LT(stats.distance_computations, 5000u);
}

TEST(MvpTreeTest, HigherLeafCapacityUsesFewerDistances) {
  // §5.2's headline observation: mvpt(3,80) dominates mvpt(3,9) at small
  // query ranges. Note the dataset size matters: with fanout m^2 = 9 the
  // subtree sizes at successive levels jump by ~9x, so k=9 and k=80 only
  // produce different trees when some level's subtree size falls inside
  // (k_small+2, k_big+2]; 30000 -> ~3333 -> ~370 -> ~41 does.
  const auto data = dataset::UniformVectors(30000, 20, 97);
  VecTree::Options small_leaf;
  small_leaf.order = 3;
  small_leaf.leaf_capacity = 9;
  small_leaf.num_path_distances = 5;
  VecTree::Options big_leaf = small_leaf;
  big_leaf.leaf_capacity = 80;
  auto tree_small = MustBuild(data, small_leaf);
  auto tree_big = MustBuild(data, big_leaf);
  // The structures must actually differ (see the note above).
  EXPECT_LT(tree_big.Stats().num_leaf_nodes,
            tree_small.Stats().num_leaf_nodes);
  EXPECT_GT(tree_big.Stats().num_leaf_points,
            tree_small.Stats().num_leaf_points);

  const auto queries = dataset::UniformQueryVectors(20, 20, 11);
  std::uint64_t cost_small = 0, cost_big = 0;
  for (const auto& q : queries) {
    SearchStats a, b;
    tree_small.RangeSearch(q, 0.2, &a);
    tree_big.RangeSearch(q, 0.2, &b);
    cost_small += a.distance_computations;
    cost_big += b.distance_computations;
  }
  EXPECT_LT(cost_big, cost_small);
}

TEST(MvpTreeTest, PathDistancesImproveFiltering) {
  // Observation 2: keeping PATH distances must reduce distance
  // computations relative to p=0 on the same tree shape.
  const auto data = dataset::UniformVectors(8000, 20, 101);
  VecTree::Options with_path;
  with_path.num_path_distances = 5;
  VecTree::Options no_path = with_path;
  no_path.num_path_distances = 0;
  auto tree_path = MustBuild(data, with_path);
  auto tree_bare = MustBuild(data, no_path);

  const auto queries = dataset::UniformQueryVectors(20, 20, 13);
  std::uint64_t cost_path = 0, cost_bare = 0;
  for (const auto& q : queries) {
    SearchStats a, b;
    tree_path.RangeSearch(q, 0.25, &a);
    tree_bare.RangeSearch(q, 0.25, &b);
    cost_path += a.distance_computations;
    cost_bare += b.distance_computations;
  }
  EXPECT_LT(cost_path, cost_bare);
}

TEST(MvpTreeTest, StatsAccountForEveryPoint) {
  for (const std::size_t n : {1u, 2u, 3u, 10u, 100u, 1000u}) {
    const auto data = dataset::UniformVectors(n, 4, 103 + n);
    auto tree = MustBuild(data);
    const auto stats = tree.Stats();
    EXPECT_EQ(stats.num_vantage_points + stats.num_leaf_points, n)
        << "n=" << n;
  }
}

TEST(MvpTreeTest, FullTreeMatchesPaperFormulas) {
  // §4.2: a full mvp-tree of height h has 2*(m^2h - 1)/(m^2-1) vantage
  // points and m^(2(h-1))*k leaf points. Build an exactly-full tree:
  // m=2, k=2, height 2: internal root (2 vps) + 4 leaves of (2 vps + 2
  // points) = 2 + 4*2 = 10 vantage points, 8 leaf points, n = 18.
  // Height-2 fullness requires each leaf to get exactly k+2 = 4 points:
  // root consumes 2, leaving 16 = 4*4.
  const auto data = dataset::UniformVectors(18, 3, 107);
  VecTree::Options options;
  options.order = 2;
  options.leaf_capacity = 2;
  options.num_path_distances = 2;
  auto tree = MustBuild(data, options);
  const auto stats = tree.Stats();
  EXPECT_EQ(stats.height, 2u);
  EXPECT_EQ(stats.num_internal_nodes, 1u);
  EXPECT_EQ(stats.num_leaf_nodes, 4u);
  EXPECT_EQ(stats.num_vantage_points, 10u);  // 2*(2^4-1)/(2^2-1) = 10
  EXPECT_EQ(stats.num_leaf_points, 8u);      // 2^(2*(2-1)) * k = 4*2
}

TEST(MvpTreeTest, ApproximateKnnWithInfiniteBudgetIsExact) {
  const auto data = dataset::UniformVectors(1500, 8, 301);
  auto tree = MustBuild(data);
  const auto queries = dataset::UniformQueryVectors(6, 8, 303);
  for (const auto& q : queries) {
    const auto exact = tree.KnnSearch(q, 10);
    const auto approx = tree.KnnSearchApproximate(
        q, 10, std::numeric_limits<std::uint64_t>::max());
    ASSERT_EQ(approx.size(), exact.size());
    for (std::size_t i = 0; i < exact.size(); ++i) {
      EXPECT_EQ(approx[i].id, exact[i].id);
    }
  }
}

TEST(MvpTreeTest, ApproximateKnnRespectsBudget) {
  const auto data = dataset::UniformVectors(3000, 10, 307);
  auto tree = MustBuild(data);
  const auto q = dataset::UniformQueryVectors(1, 10, 309)[0];
  SearchStats unbudgeted;
  tree.KnnSearch(q, 5, &unbudgeted);
  for (const std::uint64_t budget : {1ull, 10ull, 100ull, 500ull}) {
    SearchStats stats;
    tree.KnnSearchApproximate(q, 5, budget, &stats);
    // The search spends its whole budget unless it finishes first.
    EXPECT_EQ(stats.distance_computations,
              std::min(budget, unbudgeted.distance_computations))
        << "budget " << budget;
  }
  // Zero budget: empty result, zero computations.
  SearchStats stats;
  const auto none = tree.KnnSearchApproximate(q, 5, 0, &stats);
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(stats.distance_computations, 0u);
}

TEST(MvpTreeTest, ApproximateKnnRecallGrowsWithBudget) {
  // On clustered data (meaningful neighbors) recall should climb quickly
  // and monotonically-ish with the budget; verify endpoints.
  dataset::ClusterParams params;
  params.count = 5000;
  params.dim = 10;
  params.cluster_size = 500;
  const auto data = dataset::ClusteredVectors(params, 311);
  auto tree = MustBuild(data);
  Vector q = data[123];
  for (auto& x : q) x += 0.01;

  const auto exact = tree.KnnSearch(q, 10);
  auto recall_at = [&](std::uint64_t budget) {
    const auto approx = tree.KnnSearchApproximate(q, 10, budget);
    std::size_t hits = 0;
    for (const auto& a : approx) {
      for (const auto& e : exact) hits += a.id == e.id ? 1 : 0;
    }
    return static_cast<double>(hits) / static_cast<double>(exact.size());
  };
  EXPECT_LT(recall_at(5), 1.0);  // tiny budget cannot finish
  EXPECT_GT(recall_at(200), 0.5);
  EXPECT_DOUBLE_EQ(recall_at(1000000), 1.0);
}

// A budgeted k-NN is the served k-NN under a distance budget: over a
// CancelChecked metric, a serial RunBatch query with
// max_distance_computations = B stops at the same evaluation. The serving
// layer checks its budget every 64 evaluations, so B is a multiple of 64.
TEST(MvpTreeTest, ApproximateKnnMatchesServedBudget) {
  using Checked = serve::CancelChecked<L2>;
  dataset::ClusterParams params;
  params.count = 5000;
  params.dim = 10;
  params.cluster_size = 250;
  auto built = MvpTree<Vector, Checked>::Build(
      dataset::ClusteredVectors(params, 313), Checked(L2()));
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const auto& tree = built.value();
  const auto queries = dataset::UniformQueryVectors(20, 10, 317);
  for (const std::uint64_t budget : {64ull, 128ull, 640ull, 1280ull}) {
    std::vector<serve::BatchQuery<Vector>> batch(queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      batch[i].kind = serve::BatchQuery<Vector>::Kind::kKnn;
      batch[i].object = queries[i];
      batch[i].k = 10;
      batch[i].max_distance_computations = budget;
    }
    const auto served = serve::RunBatch(tree, batch, /*pool=*/nullptr);
    std::size_t cut = 0;
    for (std::size_t i = 0; i < queries.size(); ++i) {
      SearchStats stats;
      const auto approx =
          tree.KnnSearchApproximate(queries[i], 10, budget, &stats);
      const auto& want = served[i];
      ASSERT_EQ(approx.size(), want.neighbors.size())
          << "budget " << budget << " query " << i;
      for (std::size_t j = 0; j < approx.size(); ++j) {
        EXPECT_EQ(approx[j].id, want.neighbors[j].id);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(approx[j].distance),
                  std::bit_cast<std::uint64_t>(want.neighbors[j].distance));
      }
      EXPECT_EQ(stats.distance_computations,
                want.search.distance_computations);
      EXPECT_EQ(stats.nodes_visited, want.search.nodes_visited);
      EXPECT_EQ(stats.leaf_points_seen, want.search.leaf_points_seen);
      EXPECT_EQ(stats.leaf_points_filtered, want.search.leaf_points_filtered);
      cut += want.partial ? 1 : 0;
    }
    EXPECT_GT(cut, 0u) << "budget " << budget << " never cut a search";
  }
}

TEST(MvpTreeTest, FreshTreesPassValidation) {
  for (const std::size_t n : {0u, 1u, 2u, 5u, 50u, 500u}) {
    const auto data = dataset::UniformVectors(n, 5, 211 + n);
    auto tree = MustBuild(data);
    EXPECT_TRUE(tree.ValidateInvariants().ok()) << "n=" << n;
  }
  // Across parameter settings too.
  const auto data = dataset::UniformVectors(400, 6, 213);
  for (const int m : {2, 4}) {
    for (const int p : {0, 3, 9}) {
      VecTree::Options options;
      options.order = m;
      options.leaf_capacity = 7;
      options.num_path_distances = p;
      auto tree = MustBuild(data, options);
      EXPECT_TRUE(tree.ValidateInvariants().ok()) << "m=" << m << " p=" << p;
    }
  }
}

TEST(MvpTreeTest, ValidationSurvivesSerializationRoundTrip) {
  const auto data = dataset::UniformVectors(300, 5, 217);
  auto tree = MustBuild(data);
  BinaryWriter writer;
  ASSERT_TRUE(tree.Serialize(&writer, VectorCodec()).ok());
  BinaryReader reader(writer.buffer());
  auto loaded = VecTree::Deserialize(&reader, L2(), VectorCodec());
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded.value().ValidateInvariants().ok());
}

TEST(MvpTreeTest, ValidationCatchesTamperedDistances) {
  // Flip bytes in the serialized stored-distance region: structurally valid
  // trees with lying D1/D2/PATH values must fail deep validation (while
  // Deserialize alone cannot catch them).
  const auto data = dataset::UniformVectors(200, 4, 219);
  auto tree = MustBuild(data);
  BinaryWriter writer;
  ASSERT_TRUE(tree.Serialize(&writer, VectorCodec()).ok());
  auto bytes = writer.TakeBuffer();
  int tampered_but_loaded = 0, caught = 0;
  for (std::size_t pos = bytes.size() * 3 / 4; pos + 8 < bytes.size();
       pos += 53) {
    auto corrupted = bytes;
    corrupted[pos] ^= 0x3f;
    BinaryReader reader(corrupted);
    auto loaded = VecTree::Deserialize(&reader, L2(), VectorCodec());
    if (!loaded.ok()) continue;  // structural validation already caught it
    ++tampered_but_loaded;
    if (!loaded.value().ValidateInvariants().ok()) ++caught;
  }
  // At least some flips must have landed in distance payloads and been
  // caught by the deep check.
  ASSERT_GT(tampered_but_loaded, 0);
  EXPECT_GT(caught, 0);
}

/// Serializes `tree`, overwrites the one stored copy of the double `value`
/// in the stream with NaN, and deep-validates what Deserialize reads back.
/// Fails the test if `value` is not in the stream exactly once.
Status ValidateWithNanAt(const VecTree& tree, double value) {
  BinaryWriter writer;
  EXPECT_TRUE(tree.Serialize(&writer, VectorCodec()).ok());
  auto bytes = writer.TakeBuffer();
  std::uint8_t pattern[sizeof(double)];
  std::memcpy(pattern, &value, sizeof(double));
  std::vector<std::size_t> hits;
  for (std::size_t pos = 0; pos + sizeof(double) <= bytes.size(); ++pos) {
    if (std::memcmp(bytes.data() + pos, pattern, sizeof(double)) == 0) {
      hits.push_back(pos);
    }
  }
  EXPECT_EQ(hits.size(), 1u) << "value " << value << " not unique";
  if (hits.size() != 1) return Status::OK();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::memcpy(bytes.data() + hits[0], &nan, sizeof(double));
  BinaryReader reader(bytes);
  auto loaded = VecTree::Deserialize(&reader, L2(), VectorCodec());
  EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
  if (!loaded.ok()) return Status::OK();
  return loaded.value().ValidateInvariants();
}

TEST(MvpTreeTest, ValidationRejectsNanStoredDistances) {
  const auto data = dataset::UniformVectors(500, 5, 223);
  const auto tree = MustBuild(data);
  // The stream carries the double columns a built tree keeps.
  const TreeLayout& a = tree.layout();
  ASSERT_GT(a.ids.size(), 0u);
  ASSERT_GT(a.path.size(), 0u);
  EXPECT_EQ(ValidateWithNanAt(tree, a.d1[0]).code(), StatusCode::kCorruption);
  EXPECT_EQ(ValidateWithNanAt(tree, a.d2[0]).code(), StatusCode::kCorruption);
  // A PATH value may repeat as an ancestor's shell cutoff; take the last
  // one the stream holds once.
  std::size_t j = a.path.size();
  while (j-- > 0) {
    const double v = a.path[j];
    if (std::count(a.path.begin(), a.path.end(), v) == 1 &&
        std::count(a.bounds.begin(), a.bounds.end(), v) == 0) {
      break;
    }
  }
  ASSERT_LT(j, a.path.size());
  EXPECT_EQ(ValidateWithNanAt(tree, a.path[j]).code(),
            StatusCode::kCorruption);
}

TEST(MvpTreeTest, TreeOverNanCoordinateStillValidates) {
  auto data = dataset::UniformVectors(500, 5, 227);
  data[17][2] = std::numeric_limits<double>::quiet_NaN();
  const auto tree = MustBuild(data);
  EXPECT_TRUE(tree.ValidateInvariants().ok())
      << tree.ValidateInvariants().ToString();
}

TEST(MvpTreeTest, DeterministicForFixedSeed) {
  const auto data = dataset::UniformVectors(500, 6, 109);
  VecTree::Options options;
  options.seed = 31;
  auto a = MustBuild(data, options);
  auto b = MustBuild(data, options);
  SearchStats sa, sb;
  const Vector q(6, 0.4);
  const auto ra = a.RangeSearch(q, 0.5, &sa);
  const auto rb = b.RangeSearch(q, 0.5, &sb);
  EXPECT_EQ(sa.distance_computations, sb.distance_computations);
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) EXPECT_EQ(ra[i].id, rb[i].id);
}

TEST(MvpTreeTest, DifferentSeedsStillCorrect) {
  const auto data = dataset::UniformVectors(400, 5, 113);
  scan::LinearScan<Vector, L2> reference(data, L2());
  const Vector q(5, 0.6);
  const auto expected = reference.RangeSearch(q, 0.4);
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    VecTree::Options options;
    options.seed = seed;
    auto tree = MustBuild(data, options);
    const auto got = tree.RangeSearch(q, 0.4);
    ASSERT_EQ(got.size(), expected.size()) << "seed " << seed;
  }
}

TEST(MvpTreeTest, WorksWithLInfAndFractionlessLp) {
  const auto data = dataset::UniformVectors(400, 6, 121);
  const auto queries = dataset::UniformQueryVectors(5, 6, 123);
  {
    using TreeInf = MvpTree<Vector, metric::LInf>;
    auto tree = TreeInf::Build(data, metric::LInf(), {});
    ASSERT_TRUE(tree.ok());
    scan::LinearScan<Vector, metric::LInf> reference(data, metric::LInf());
    for (const auto& q : queries) {
      for (const double r : {0.1, 0.3, 0.6}) {
        EXPECT_EQ(tree.value().RangeSearch(q, r).size(),
                  reference.RangeSearch(q, r).size());
      }
    }
  }
  {
    using TreeLp = MvpTree<Vector, metric::Lp>;
    auto tree = TreeLp::Build(data, metric::Lp(3.0), {});
    ASSERT_TRUE(tree.ok());
    scan::LinearScan<Vector, metric::Lp> reference(data, metric::Lp(3.0));
    for (const auto& q : queries) {
      for (const double r : {0.2, 0.5, 1.0}) {
        EXPECT_EQ(tree.value().RangeSearch(q, r).size(),
                  reference.RangeSearch(q, r).size());
      }
    }
  }
}

TEST(MvpTreeTest, WorksWithEditDistance) {
  auto words = dataset::SyntheticWords(400, 127);
  using WordTree = MvpTree<std::string, metric::Levenshtein>;
  WordTree::Options options;
  options.order = 2;
  options.leaf_capacity = 10;
  options.num_path_distances = 4;
  auto result = WordTree::Build(words, metric::Levenshtein(), options);
  ASSERT_TRUE(result.ok());
  auto& tree = result.value();
  scan::LinearScan<std::string, metric::Levenshtein> reference(
      words, metric::Levenshtein());
  for (const auto& probe : {words[0], words[100], words[399]}) {
    const std::string query = dataset::MutateWord(probe, 2, 5);
    for (const double r : {1.0, 2.0, 3.0}) {
      const auto got = tree.RangeSearch(query, r);
      const auto expected = reference.RangeSearch(query, r);
      ASSERT_EQ(got.size(), expected.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].id, expected[i].id);
      }
    }
  }
}

TEST(MvpTreeTest, WorksWithImages) {
  dataset::MriParams params;
  params.count = 60;
  params.subjects = 6;
  params.width = params.height = 24;
  const auto scans = dataset::MriPhantoms(params, 131);
  using ImgTree = MvpTree<dataset::Image, dataset::ImageL1>;
  ImgTree::Options options;
  options.order = 2;
  options.leaf_capacity = 5;
  options.num_path_distances = 4;
  auto result = ImgTree::Build(scans, dataset::ImageL1(), options);
  ASSERT_TRUE(result.ok());
  auto& tree = result.value();
  scan::LinearScan<dataset::Image, dataset::ImageL1> reference(
      scans, dataset::ImageL1());
  const auto query = dataset::MriPhantomScan(params, 131, 3, 500);
  for (const double r : {5.0, 20.0, 60.0}) {
    EXPECT_EQ(tree.RangeSearch(query, r).size(),
              reference.RangeSearch(query, r).size());
  }
}

TEST(MvpTreeTest, KnnFindsClusterScans) {
  dataset::MriParams params;
  params.count = 50;
  params.subjects = 10;
  params.width = params.height = 24;
  const auto scans = dataset::MriPhantoms(params, 137);
  using ImgTree = MvpTree<dataset::Image, dataset::ImageL2>;
  auto result = ImgTree::Build(scans, dataset::ImageL2(), {});
  ASSERT_TRUE(result.ok());
  const auto query = dataset::MriPhantomScan(params, 137, 4, 77);
  const auto nn = result.value().KnnSearch(query, 3);
  ASSERT_EQ(nn.size(), 3u);
  // All three nearest scans should be of subject 4 (round-robin layout).
  for (const auto& hit : nn) EXPECT_EQ(hit.id % params.subjects, 4u);
}

}  // namespace
}  // namespace mvp::core
