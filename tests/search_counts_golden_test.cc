#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/codec.h"
#include "common/query.h"
#include "common/serialize.h"
#include "core/generalized_mvp_tree.h"
#include "core/mvp_tree.h"
#include "core/search_shared.h"
#include "dataset/vector_gen.h"
#include "metric/lp.h"
#include "serve/sharded_index.h"
#include "snapshot/flat_tree.h"
#include "snapshot/snapshot_store.h"

/// Golden counts for the mvp-tree search traversal: every case's four
/// SearchStats totals plus a hash over its results' (id, distance bits) are
/// COMMITTED under tests/testdata/search_counts/, and this suite recomputes
/// them over the heap tree, the flat (v2) arena built from the same tree,
/// GeneralizedMvpTree at several v, and the sharded index's shells (heap
/// and flat shards), so shard-level pruning is pinned too.
///
/// flat_equivalence_test proves the representations agree with each other;
/// it cannot see a change that moves all of them the same way, because they
/// share one traversal. This suite can: any change to pruning, leaf
/// filtering, child order, exclusion or budget handling moves a count or a
/// hash here. A change that means to move them re-blesses and says why.
///
/// Re-bless (after an INTENTIONAL change to what searches compute):
///   MVPT_BLESS_GOLDEN=1 ./search_counts_golden_test
/// then commit the rewritten tests/testdata/search_counts/ files.

namespace mvp {
namespace {

using metric::L2;
using metric::Vector;
using HeapTree = core::MvpTree<Vector, L2>;

#ifndef MVPT_TESTDATA_DIR
#error "search_counts_golden_test requires the MVPT_TESTDATA_DIR definition"
#endif

bool BlessMode() {
  const char* env = std::getenv("MVPT_BLESS_GOLDEN");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

std::string GoldenPath(const std::string& name) {
  return std::string(MVPT_TESTDATA_DIR) + "/search_counts/" + name + ".txt";
}

/// Totals over one case's queries: the four SearchStats counters, the
/// result count and an FNV-1a hash over every result's id and distance bits
/// in presentation order.
struct CaseTotals {
  SearchStats stats;
  std::uint64_t results = 0;
  std::uint64_t hash = 0xcbf29ce484222325ull;

  void Mix(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      hash ^= (v >> (8 * b)) & 0xff;
      hash *= 0x100000001b3ull;
    }
  }
  void Add(const std::vector<Neighbor>& hits, const SearchStats& s) {
    core::MergeSearchStats(&stats, s);
    results += hits.size();
    Mix(hits.size());
    for (const Neighbor& n : hits) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &n.distance, sizeof(bits));
      Mix(n.id);
      Mix(bits);
    }
  }
  std::string Line(const std::string& rep, const std::string& name) const {
    std::ostringstream os;
    os << rep << ' ' << name << " dist=" << stats.distance_computations
       << " nodes=" << stats.nodes_visited
       << " seen=" << stats.leaf_points_seen
       << " filtered=" << stats.leaf_points_filtered
       << " results=" << results << " hash=" << std::hex << hash;
    return os.str();
  }
};

/// One golden recipe: a seeded dataset, its queries, a build configuration
/// and the radii its range cases use (chosen per dataset so results are
/// non-trivial).
struct Recipe {
  std::string name;
  std::vector<Vector> data;
  std::vector<Vector> queries;
  std::vector<double> radii;
  HeapTree::Options options;
};

/// Queries near the data: every `stride`-th stored point, shifted by
/// `offset` in each coordinate.
std::vector<Vector> NearDataQueries(const std::vector<Vector>& data,
                                    std::size_t stride, double offset) {
  std::vector<Vector> queries;
  for (std::size_t i = 0; i < data.size(); i += stride) {
    queries.push_back(data[i]);
    for (double& x : queries.back()) x += offset;
  }
  return queries;
}

std::vector<Vector> Clustered(std::size_t count, std::size_t dim,
                              std::uint64_t seed) {
  dataset::ClusterParams params;
  params.count = count;
  params.dim = dim;
  params.cluster_size = 100;
  return dataset::ClusteredVectors(params, seed);
}

/// The search output of every case over one representation, one line per
/// case. `approximate` is null for representations without a budgeted
/// search.
template <typename Tree>
void AppendRangeCases(const std::string& rep, const Tree& tree,
                      const Recipe& recipe, std::vector<std::string>* lines) {
  for (const double r : recipe.radii) {
    CaseTotals t;
    for (const Vector& q : recipe.queries) {
      SearchStats s;
      t.Add(tree.RangeSearch(q, r, &s), s);
    }
    std::ostringstream name;
    name << "range(r=" << r << ")";
    lines->push_back(t.Line(rep, name.str()));
  }
}

template <typename Tree>
std::vector<std::string> RunCases(
    const std::string& rep, const Tree& tree, const Recipe& recipe,
    const std::function<std::vector<Neighbor>(const Vector&, std::size_t,
                                              std::uint64_t, SearchStats*)>*
        approximate) {
  std::vector<std::string> lines;
  AppendRangeCases(rep, tree, recipe, &lines);
  // Every id congruent to 3 mod 7: a dense, deterministic stand-in for a
  // dynamic layer's tombstones.
  const auto is_erased = [](std::size_t id) { return id % 7 == 3; };
  const auto erased = core::Exclusion::Of(is_erased);
  for (const std::size_t k : {std::size_t{1}, std::size_t{10}}) {
    for (const bool exclude : {false, true}) {
      CaseTotals t;
      for (const Vector& q : recipe.queries) {
        SearchStats s;
        t.Add(tree.KnnSearch(q, k, &s, exclude ? erased : core::Exclusion{}),
              s);
      }
      lines.push_back(t.Line(rep, "knn(k=" + std::to_string(k) +
                                      (exclude ? ",exclude)" : ")")));
    }
  }
  if (approximate != nullptr) {
    constexpr std::uint64_t kInf = std::numeric_limits<std::uint64_t>::max();
    for (const std::uint64_t b : {std::uint64_t{0}, std::uint64_t{1},
                                  std::uint64_t{25}, std::uint64_t{64},
                                  std::uint64_t{100}, std::uint64_t{640},
                                  kInf}) {
      CaseTotals t;
      for (const Vector& q : recipe.queries) {
        SearchStats s;
        t.Add((*approximate)(q, 10, b, &s), s);
      }
      lines.push_back(t.Line(
          rep, "approx(k=10,B=" + (b == kInf ? std::string("inf")
                                              : std::to_string(b)) + ")"));
    }
  }
  return lines;
}

std::vector<std::string> ComputeLines(const Recipe& recipe) {
  auto built = HeapTree::Build(recipe.data, L2(), recipe.options);
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  const HeapTree heap = std::move(built).ValueOrDie();

  std::function<std::vector<Neighbor>(const Vector&, std::size_t,
                                      std::uint64_t, SearchStats*)>
      approximate = [&](const Vector& q, std::size_t k, std::uint64_t b,
                        SearchStats* s) {
        return heap.KnnSearchApproximate(q, k, b, s);
      };
  std::vector<std::string> lines =
      RunCases("heap", heap, recipe, &approximate);

  BinaryWriter stream;
  EXPECT_TRUE(heap.Serialize(&stream, VectorCodec{}).ok());
  auto arena = snapshot::flat::BuildFlatArena(stream.buffer().data(),
                                              stream.buffer().size());
  EXPECT_TRUE(arena.ok()) << arena.status().ToString();
  const std::vector<std::uint8_t> bytes = std::move(arena).ValueOrDie();
  auto view = snapshot::flat::OpenTree(bytes.data(), bytes.size(), L2(),
                                       nullptr);
  EXPECT_TRUE(view.ok()) << view.status().ToString();
  const auto more = RunCases("flat_v2", view.value(), recipe, nullptr);
  lines.insert(lines.end(), more.begin(), more.end());
  return lines;
}

void CheckGolden(const std::string& name,
                 const std::vector<std::string>& lines) {
  const std::string path = GoldenPath(name);
  if (BlessMode()) {
    std::filesystem::create_directories(
        std::filesystem::path(path).parent_path());
    std::ofstream out(path);
    for (const std::string& line : lines) out << line << '\n';
    ASSERT_TRUE(out.good()) << path;
    GTEST_SKIP() << "blessed " << path;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path
                         << " missing (run with MVPT_BLESS_GOLDEN=1 to create)";
  std::vector<std::string> want;
  for (std::string line; std::getline(in, line);) want.push_back(line);
  ASSERT_EQ(want.size(), lines.size()) << path << ": case list drifted";
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(want[i], lines[i]) << path << " line " << i + 1;
  }
}

void CheckGolden(const Recipe& recipe) {
  CheckGolden(recipe.name, ComputeLines(recipe));
}

Recipe UniformRecipe() {
  return Recipe{"uniform", dataset::UniformVectors(2000, 10, 17),
                dataset::UniformQueryVectors(25, 10, 4242), {0.5, 0.7, 0.9},
                {}};
}

Recipe ClusteredRecipe() {
  const auto data = Clustered(2000, 10, 23);
  return Recipe{"clustered", data, NearDataQueries(data, 80, 0.02),
                {0.1, 0.25, 0.5}, {}};
}

TEST(SearchCountsGoldenTest, UniformPaperDefaults) {
  CheckGolden(UniformRecipe());
}

TEST(SearchCountsGoldenTest, ClusteredPaperDefaults) {
  CheckGolden(ClusteredRecipe());
}

/// ShardedMvpIndex at K = 4 over the uniform and clustered recipes: range
/// and k-NN (with and without the exclusion), on heap shards and on the
/// flat shards SaveFlat writes for them. The counts include d(q, v) and
/// move with any change to how shards are partitioned, ordered or pruned.
TEST(SearchCountsGoldenTest, ShardedShells) {
  using Sharded = serve::ShardedMvpIndex<Vector, L2>;
  const auto is_erased = [](std::size_t id) { return id % 7 == 3; };
  const auto erased = core::Exclusion::Of(is_erased);
  std::vector<std::string> lines;
  for (const Recipe& recipe : {UniformRecipe(), ClusteredRecipe()}) {
    Sharded::Options options;
    options.num_shards = 4;
    options.tree = recipe.options;
    auto built = Sharded::Build(recipe.data, L2(), options);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    const std::string dir =
        ::testing::TempDir() + "/search_counts_sharded_" + recipe.name;
    std::filesystem::remove_all(dir);
    snapshot::SnapshotStore store(dir);
    ASSERT_TRUE(store.SaveFlat(built.value()).ok());
    auto flat = store.OpenFlat(L2());
    ASSERT_TRUE(flat.ok()) << flat.status().ToString();
    for (const auto& [leg, index] :
         {std::pair<std::string, const Sharded*>{"heap", &built.value()},
          std::pair<std::string, const Sharded*>{"flat",
                                                 &flat.value().index}}) {
      const std::string rep = "sharded4_" + leg + " " + recipe.name;
      AppendRangeCases(rep, *index, recipe, &lines);
      for (const std::size_t k : {std::size_t{1}, std::size_t{10}}) {
        for (const bool exclude : {false, true}) {
          CaseTotals t;
          for (const Vector& q : recipe.queries) {
            SearchStats s;
            t.Add(index->KnnSearch(q, k, &s, nullptr,
                                   exclude ? erased : core::Exclusion{}),
                  s);
          }
          lines.push_back(t.Line(rep, "knn(k=" + std::to_string(k) +
                                          (exclude ? ",exclude)" : ")")));
        }
      }
    }
    std::filesystem::remove_all(dir);
  }
  CheckGolden("sharded", lines);
}

/// Small leaves, a short PATH and exact shell bounds: many more internal
/// nodes, so child ranking and shell pruning carry more of the counts.
TEST(SearchCountsGoldenTest, UniformSmallLeavesExactBounds) {
  const auto data = dataset::UniformVectors(1500, 6, 29);
  Recipe recipe{"uniform_small_leaves", data, NearDataQueries(data, 60, 0.05),
                {0.15, 0.3, 0.45}, {}};
  recipe.options.order = 2;
  recipe.options.leaf_capacity = 9;
  recipe.options.num_path_distances = 3;
  recipe.options.store_exact_bounds = true;
  CheckGolden(recipe);
}

/// GeneralizedMvpTree keeps v vantage points per node (fanout m^v): v = 1,
/// 2, 3 at the paper's mvpt(3,80) with p = 5, and v = 4 with small leaves
/// so four shell levels carry the pruning. It takes no exclusion or budget,
/// so its cases are range and plain k-NN.
TEST(SearchCountsGoldenTest, GeneralizedVantagePointsPerNode) {
  using GenTree = core::GeneralizedMvpTree<Vector, L2>;
  const Recipe recipe{"generalized", dataset::UniformVectors(2000, 10, 17),
                      dataset::UniformQueryVectors(25, 10, 4242),
                      {0.5, 0.7, 0.9}, {}};
  struct Shape {
    int m, v, k, p;
  };
  std::vector<std::string> lines;
  for (const Shape shape : {Shape{3, 1, 80, 5}, Shape{3, 2, 80, 5},
                            Shape{3, 3, 80, 5}, Shape{2, 4, 9, 3}}) {
    GenTree::Options options;
    options.order = shape.m;
    options.vantage_points = shape.v;
    options.leaf_capacity = shape.k;
    options.num_path_distances = shape.p;
    auto built = GenTree::Build(recipe.data, L2(), options);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    const GenTree& tree = built.value();
    std::ostringstream rep;
    rep << "gen(m=" << shape.m << ",v=" << shape.v << ",k=" << shape.k
        << ",p=" << shape.p << ")";
    AppendRangeCases(rep.str(), tree, recipe, &lines);
    for (const std::size_t k : {std::size_t{1}, std::size_t{10}}) {
      CaseTotals t;
      for (const Vector& q : recipe.queries) {
        SearchStats s;
        t.Add(tree.KnnSearch(q, k, &s), s);
      }
      lines.push_back(t.Line(rep.str(), "knn(k=" + std::to_string(k) + ")"));
    }
  }
  CheckGolden(recipe.name, lines);
}

}  // namespace
}  // namespace mvp
