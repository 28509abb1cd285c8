#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/query.h"
#include "core/mvp_tree.h"
#include "core/search_shared.h"
#include "core/tree_layout.h"
#include "dataset/vector_gen.h"
#include "metric/counting.h"
#include "metric/kernels/kernels.h"
#include "metric/lp.h"
#include "serve/cancel.h"
#include "serve/executor.h"
#include "serve/sharded_index.h"
#include "snapshot/flat_tree.h"
#include "snapshot/snapshot_store.h"

/// Gathered range evaluation against per-call evaluation, cut at every
/// point. A range search over an Lp metric computes the vantage points of
/// the children a node enters, and then the survivors of all of its entered
/// leaf children, in one batch-kernel call each, then charges the values one
/// by one where the per-call search evaluates them (core/search_shared.h).
/// Two trees built from the same data and seed — one over L2, which
/// gathers, and one over a local L2 wrapper with no batch-kernel family,
/// which evaluates per call — must therefore agree on results and all four
/// SearchStats counters at every DistanceBudget limit and every CancelScope
/// budget, on heap-built and flat-opened trees alike. Besides the default
/// shape, trees keeping no PATH distances (p = 0), more than a leaf mask
/// tests in one kernel call (p = 9), a root that is a leaf, and a shape
/// whose nodes enter leaf and internal children together are cut the same
/// way.

namespace mvp {
namespace {

using metric::L2;
using metric::Vector;

/// L2 without a metric::kernels::FamilyFor: a tree over it evaluates every
/// distance through operator(), one call each.
struct PerCallL2 {
  template <typename A, typename B>
  double operator()(const A& a, const B& b) const {
    return L2()(a, b);
  }
};

using GatheredMetric = metric::CountingMetric<serve::CancelChecked<L2>>;
using PerCallMetric = metric::CountingMetric<serve::CancelChecked<PerCallL2>>;
static_assert(metric::kernels::UnwrappedFamilyFor<GatheredMetric>::available);
static_assert(!metric::kernels::UnwrappedFamilyFor<PerCallMetric>::available);

template <typename Metric>
using Tree = core::MvpTree<Vector, Metric>;

constexpr std::size_t kDim = 8;
constexpr double kRadius = 0.55;

core::MvpTreeOptions TreeOptions(int order = 3, int leaf_capacity = 24,
                                 int path_distances = 4) {
  core::MvpTreeOptions options;
  options.order = order;
  options.leaf_capacity = leaf_capacity;
  options.num_path_distances = path_distances;
  options.seed = 17;
  return options;
}

/// No PATH distances; nine, reached by order-2 trees 1500 points deep:
/// more columns than one leaf-mask kernel call takes; and a root that is a
/// leaf, swept as an only child.
std::vector<core::MvpTreeOptions> OtherShapes() {
  return {TreeOptions(3, 24, 0), TreeOptions(2, 4, 9), TreeOptions(3, 2000, 4)};
}
/// Second-level partitions straddle the leaf capacity, so some become
/// leaves and their siblings internal nodes.
core::MvpTreeOptions MixedChildrenOptions() { return TreeOptions(3, 16, 4); }

template <typename Metric>
Tree<Metric> BuildTree(const std::vector<Vector>& data, Metric metric,
                       const core::MvpTreeOptions& options) {
  auto built = Tree<Metric>::Build(data, std::move(metric), options);
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  return std::move(built).ValueOrDie();
}

/// The same tree again, opened over its flat arena.
template <typename Metric>
Tree<Metric> OpenFlat(const Tree<Metric>& tree, Metric metric) {
  auto arena = std::make_shared<const std::vector<std::uint8_t>>(
      snapshot::flat::BuildFlatArena(tree.options(), tree.rows(), tree.dim(),
                                     tree.arrays()));
  auto opened = snapshot::flat::OpenTree(arena->data(), arena->size(),
                                         std::move(metric), arena);
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  return std::move(opened).ValueOrDie();
}

struct Cut {
  std::vector<Neighbor> hits;  ///< in the order the search appended them
  SearchStats stats;
  bool exhausted = false;
  std::uint64_t counted = 0;  ///< the metric's own counter
};

/// One range search through the shared traversal, cut by a DistanceBudget.
template <typename Metric>
Cut RangeUnderBudget(const Tree<Metric>& tree, const Vector& query,
                     std::uint64_t limit) {
  Cut cut;
  const std::uint64_t before = tree.metric().counter().count();
  try {
    core::Traversal(core::TreeNodes<Tree<Metric>>{&tree, tree.arrays()},
                    query, cut.stats, core::DistanceBudget{limit})
        .Range(kRadius, &cut.hits);
  } catch (const core::DistanceBudget::Exhausted&) {
    cut.exhausted = true;
  }
  cut.counted = tree.metric().counter().count() - before;
  return cut;
}

void ExpectSameNeighbors(const std::vector<Neighbor>& a,
                         const std::vector<Neighbor>& b,
                         const std::string& ctx) {
  ASSERT_EQ(a.size(), b.size()) << ctx;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id) << ctx << " hit " << i;
    EXPECT_EQ(std::memcmp(&a[i].distance, &b[i].distance, sizeof(double)), 0)
        << ctx << " hit " << i;
  }
}

void ExpectSameStats(const SearchStats& a, const SearchStats& b,
                     const std::string& ctx) {
  EXPECT_EQ(a.distance_computations, b.distance_computations) << ctx;
  EXPECT_EQ(a.nodes_visited, b.nodes_visited) << ctx;
  EXPECT_EQ(a.leaf_points_seen, b.leaf_points_seen) << ctx;
  EXPECT_EQ(a.leaf_points_filtered, b.leaf_points_filtered) << ctx;
}

/// The tree's node accessor, noting for every internal node a search
/// enters whether it enters an internal child (bit 0) and, after one in
/// slot order, a leaf child (bit 1).
template <typename Metric>
struct ChildKindsNoted : core::TreeNodes<Tree<Metric>> {
  std::map<const core::NodeRec*, unsigned>* kinds;

  const core::NodeRec* Child(const core::NodeRec* n, std::size_t c) const {
    const core::NodeRec* child = core::TreeNodes<Tree<Metric>>::Child(n, c);
    if (child != nullptr) {
      unsigned& k = (*kinds)[n];
      if (!this->IsLeaf(child)) {
        k |= 1u;
      } else if ((k & 1u) != 0) {
        k |= 2u;
      }
    }
    return child;
  }
};

/// Whether a range search for `query` enters some node's internal child
/// and, after it in slot order, a leaf child: a sweep whose leaf survivors
/// must outlast a recursion.
template <typename Metric>
bool EntersLeafAfterInternalChild(const Tree<Metric>& tree,
                                  const Vector& query) {
  std::map<const core::NodeRec*, unsigned> kinds;
  SearchStats stats;
  std::vector<Neighbor> hits;
  core::Traversal(ChildKindsNoted<Metric>{{&tree, tree.arrays()}, &kinds},
                  query, stats)
      .Range(kRadius, &hits);
  return std::any_of(kinds.begin(), kinds.end(),
                     [](const auto& kind) { return (kind.second & 2u) != 0; });
}

class RangeCutEquivalenceTest : public ::testing::TestWithParam<bool> {
 protected:
  /// Builds the gathered and the per-call tree of `options` over the same
  /// data, opened flat when the parameter says so, and checks that they
  /// agree at every DistanceBudget limit. `mixed`: some query must enter
  /// a node's internal child and, after it, a leaf child.
  void ExpectEveryLimitAgrees(const core::MvpTreeOptions& options,
                              bool mixed = false) {
    const auto data = dataset::UniformVectors(1500, kDim, 41);
    const GatheredMetric gathered{serve::CancelChecked<L2>(L2()),
                                  metric::DistanceCounter()};
    const PerCallMetric per_call{serve::CancelChecked<PerCallL2>(PerCallL2()),
                                 metric::DistanceCounter()};
    std::optional<Tree<GatheredMetric>> gathered_tree;
    std::optional<Tree<PerCallMetric>> per_call_tree;
    gathered_tree.emplace(BuildTree(data, gathered, options));
    per_call_tree.emplace(BuildTree(data, per_call, options));
    if (GetParam()) {
      gathered_tree.emplace(OpenFlat(*gathered_tree, gathered));
      per_call_tree.emplace(OpenFlat(*per_call_tree, per_call));
    }
    const auto queries = dataset::UniformQueryVectors(4, kDim, 43);
    if (mixed) {
      EXPECT_TRUE(std::any_of(queries.begin(), queries.end(),
                              [&](const Vector& query) {
                                return EntersLeafAfterInternalChild(
                                    *gathered_tree, query);
                              }))
          << "no query enters a leaf child after an internal one";
    }
    for (std::size_t q = 0; q < queries.size(); ++q) {
      const Cut full =
          RangeUnderBudget(*per_call_tree, queries[q],
                           std::numeric_limits<std::uint64_t>::max());
      ASSERT_FALSE(full.exhausted);
      ASSERT_FALSE(full.hits.empty()) << "query " << q << " finds nothing";
      const std::uint64_t total = full.stats.distance_computations;
      for (std::uint64_t limit = 1; limit <= total; ++limit) {
        const std::string ctx =
            "query " + std::to_string(q) + " limit " + std::to_string(limit);
        const Cut want = RangeUnderBudget(*per_call_tree, queries[q], limit);
        const Cut got = RangeUnderBudget(*gathered_tree, queries[q], limit);
        EXPECT_EQ(want.exhausted, got.exhausted) << ctx;
        EXPECT_EQ(got.exhausted, limit < total) << ctx;
        ExpectSameNeighbors(want.hits, got.hits, ctx);
        ExpectSameStats(want.stats, got.stats, ctx);
        // Each metric's counter saw exactly the distances the search
        // charged.
        EXPECT_EQ(want.counted, want.stats.distance_computations) << ctx;
        EXPECT_EQ(got.counted, got.stats.distance_computations) << ctx;
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
};

TEST_P(RangeCutEquivalenceTest, EveryDistanceBudgetLimit) {
  ExpectEveryLimitAgrees(TreeOptions());
}

TEST_P(RangeCutEquivalenceTest, EveryDistanceBudgetLimitAtOtherShapes) {
  for (const core::MvpTreeOptions& options : OtherShapes()) {
    ExpectEveryLimitAgrees(options);
  }
}

TEST_P(RangeCutEquivalenceTest, EveryDistanceBudgetLimitWithMixedChildren) {
  ExpectEveryLimitAgrees(MixedChildrenOptions(), /*mixed=*/true);
}

INSTANTIATE_TEST_SUITE_P(HeapAndFlat, RangeCutEquivalenceTest,
                         ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return std::string(info.param ? "Flat" : "Heap");
                         });

/// A shared tally of how a tree's distances arrive: through operator(), or
/// computed by a batch kernel and charged through CountPrimed().
struct Arrivals {
  std::uint64_t calls = 0;
  std::uint64_t primed = 0;
};

class TalliedL2 {
 public:
  explicit TalliedL2(std::shared_ptr<Arrivals> arrivals)
      : arrivals_(std::move(arrivals)) {}
  template <typename A, typename B>
  double operator()(const A& a, const B& b) const {
    ++arrivals_->calls;
    return inner_(a, b);
  }
  void CountPrimed() const { ++arrivals_->primed; }
  const L2& inner() const { return inner_; }

 private:
  L2 inner_;
  std::shared_ptr<Arrivals> arrivals_;
};

TEST(GatheredRangeTest, RangeSearchesGatherAndKnnEvaluatesPerCall) {
  const auto data = dataset::UniformVectors(1500, kDim, 41);
  const auto arrivals = std::make_shared<Arrivals>();
  const Tree<TalliedL2> heap =
      BuildTree(data, TalliedL2(arrivals), TreeOptions());
  const Tree<TalliedL2> flat = OpenFlat(heap, TalliedL2(arrivals));
  const auto queries = dataset::UniformQueryVectors(4, kDim, 43);
  for (const Tree<TalliedL2>* tree : {&heap, &flat}) {
    for (const Vector& query : queries) {
      *arrivals = Arrivals{};
      SearchStats range;
      tree->RangeSearch(query, kRadius, &range);
      EXPECT_EQ(arrivals->calls, 0u);
      EXPECT_EQ(arrivals->primed, range.distance_computations);

      *arrivals = Arrivals{};
      SearchStats knn;
      tree->KnnSearch(query, 5, &knn);
      EXPECT_EQ(arrivals->calls, knn.distance_computations);
      EXPECT_EQ(arrivals->primed, 0u);
    }
  }
}

/// RunBatch's door: a CancelScope budget cuts a range query at a stride
/// boundary of its cross-thread count. The L2 index gathers; the per-call
/// one does not.
class RunBatchCutEquivalenceTest : public ::testing::TestWithParam<bool> {
 protected:
  template <typename Metric>
  using Index = serve::ShardedMvpIndex<Vector, Metric>;

  template <typename Metric>
  Index<Metric> Make(const std::vector<Vector>& data, Metric metric,
                     const core::MvpTreeOptions& tree,
                     const std::string& name) {
    typename Index<Metric>::Options options;
    options.num_shards = 3;
    options.tree = tree;
    auto built = Index<Metric>::Build(data, metric, options);
    EXPECT_TRUE(built.ok()) << built.status().ToString();
    if (!GetParam()) return std::move(built).ValueOrDie();
    const std::string dir = ::testing::TempDir() + "/range_cut_" + name;
    std::filesystem::remove_all(dir);
    dirs_.push_back(dir);
    snapshot::SnapshotStore store(dir);
    EXPECT_TRUE(store.SaveFlat(built.value()).ok());
    auto opened = store.OpenFlat(std::move(metric));
    EXPECT_TRUE(opened.ok()) << opened.status().ToString();
    return std::move(opened).ValueOrDie().index;
  }

  void TearDown() override {
    for (const std::string& dir : dirs_) std::filesystem::remove_all(dir);
  }

  /// Checks that an L2 index and a per-call index of `tree` agree at every
  /// CancelScope budget.
  void ExpectEveryBudgetAgrees(const core::MvpTreeOptions& tree,
                               const std::string& name) {
    const auto data = dataset::UniformVectors(1500, kDim, 41);
    const auto gathered = Make(data, L2(), tree, name + "_gathered");
    const auto per_call = Make(data, PerCallL2(), tree, name + "_per_call");
    const auto queries = dataset::UniformQueryVectors(4, kDim, 43);

    std::vector<serve::BatchQuery<Vector>> batch(queries.size());
    for (std::size_t q = 0; q < queries.size(); ++q) {
      batch[q].object = queries[q];
      batch[q].radius = kRadius;
    }
    std::uint64_t total = 0;
    for (const serve::QueryOutcome& o :
         serve::RunBatch(per_call, batch, nullptr)) {
      ASSERT_TRUE(o.status.ok()) << o.status.ToString();
      total = std::max(total, o.distance_computations);
    }
    std::size_t partials = 0;
    for (std::uint64_t budget = 1; budget <= total; ++budget) {
      for (auto& query : batch) query.max_distance_computations = budget;
      const auto want = serve::RunBatch(per_call, batch, nullptr);
      const auto got = serve::RunBatch(gathered, batch, nullptr);
      for (std::size_t q = 0; q < batch.size(); ++q) {
        const std::string ctx = name + " query " + std::to_string(q) +
                                " budget " + std::to_string(budget);
        EXPECT_EQ(want[q].status.code(), got[q].status.code()) << ctx;
        EXPECT_EQ(want[q].partial, got[q].partial) << ctx;
        EXPECT_EQ(want[q].distance_computations, got[q].distance_computations)
            << ctx;
        ExpectSameNeighbors(want[q].neighbors, got[q].neighbors, ctx);
        ExpectSameStats(want[q].search, got[q].search, ctx);
        if (got[q].partial) ++partials;
      }
      if (::testing::Test::HasFailure()) return;
    }
    EXPECT_GT(partials, 0u) << name;
  }

  std::vector<std::string> dirs_;
};

TEST_P(RunBatchCutEquivalenceTest, EveryCancelScopeBudget) {
  ExpectEveryBudgetAgrees(TreeOptions(), "default");
}

TEST_P(RunBatchCutEquivalenceTest, EveryCancelScopeBudgetAtOtherShapes) {
  const std::vector<core::MvpTreeOptions> shapes = OtherShapes();
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    ExpectEveryBudgetAgrees(shapes[i], "shape" + std::to_string(i));
  }
}

TEST_P(RunBatchCutEquivalenceTest, EveryCancelScopeBudgetWithMixedChildren) {
  ExpectEveryBudgetAgrees(MixedChildrenOptions(), "mixed");
}

INSTANTIATE_TEST_SUITE_P(HeapAndFlat, RunBatchCutEquivalenceTest,
                         ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return std::string(info.param ? "Flat" : "Heap");
                         });

}  // namespace
}  // namespace mvp
