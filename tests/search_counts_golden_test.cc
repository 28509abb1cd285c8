#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iomanip>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/codec.h"
#include "common/query.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "core/generalized_mvp_tree.h"
#include "core/mvp_tree.h"
#include "core/search_shared.h"
#include "core/tree_layout.h"
#include "dataset/vector_gen.h"
#include "dynamic/dynamic_overlay.h"
#include "dynamic/mvp_forest.h"
#include "metric/lp.h"
#include "serve/sharded_index.h"
#include "snapshot/flat_tree.h"
#include "snapshot/snapshot_store.h"
#include "vptree/vp_tree.h"

/// Golden counts for the mvp-tree search traversal: every case's four
/// SearchStats totals plus a hash over its results' (id, distance bits) are
/// COMMITTED under tests/testdata/search_counts/, and this suite recomputes
/// them over the heap tree, the flat (v2) arena built from the same tree
/// (range, k-NN, budgeted k-NN and the two farthest query forms),
/// GeneralizedMvpTree at several v, the vp-tree (with every TreeStats
/// field of both comparison trees), and the sharded index's shells (heap
/// and flat shards), so shard-level pruning is pinned too, and the dynamic
/// layers (MvpForest, and DynamicOverlay over a flat base). knn_order.txt
/// goes further for k-NN: the sequence of ids each query's search asks the
/// metric for, so a reordering that keeps every total still shows.
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
    MergeSearchStats(&stats, s);
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
        t.Add(core::Answer(tree,
                           core::SearchRequest<Vector>{
                               .kind = core::SearchKind::kKnn,
                               .object = q,
                               .k = k,
                               .exclude = exclude ? erased : core::Exclusion{}},
                           &s),
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

/// Builds the recipe's heap tree over `metric` and opens the flat (v2)
/// arena serialized from it, and hands each to `fn(rep, tree)`: "heap",
/// then "flat_v2".
template <typename Fn, typename Metric = L2>
void ForEachRepresentation(const Recipe& recipe, Fn&& fn,
                           const Metric& metric = Metric()) {
  using Tree = core::MvpTree<Vector, Metric>;
  auto built = Tree::Build(recipe.data, metric, recipe.options);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const Tree heap = std::move(built).ValueOrDie();
  fn("heap", heap);

  BinaryWriter stream;
  ASSERT_TRUE(heap.Serialize(&stream, VectorCodec{}).ok());
  auto arena = snapshot::flat::BuildFlatArena(stream.buffer().data(),
                                              stream.buffer().size());
  ASSERT_TRUE(arena.ok()) << arena.status().ToString();
  const std::vector<std::uint8_t> bytes = std::move(arena).ValueOrDie();
  auto view = snapshot::flat::OpenTree(bytes.data(), bytes.size(), metric,
                                       nullptr);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  fn("flat_v2", view.value());
}

std::vector<std::string> ComputeLines(const Recipe& recipe) {
  std::vector<std::string> lines;
  ForEachRepresentation(recipe, [&](const std::string& rep,
                                    const HeapTree& tree) {
    std::function<std::vector<Neighbor>(const Vector&, std::size_t,
                                        std::uint64_t, SearchStats*)>
        approximate = [&](const Vector& q, std::size_t k, std::uint64_t b,
                          SearchStats* s) {
          return tree.KnnSearchApproximate(q, k, b, s);
        };
    const auto more =
        RunCases(rep, tree, recipe, rep == "heap" ? &approximate : nullptr);
    lines.insert(lines.end(), more.begin(), more.end());
  });
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
            t.Add(core::Answer(
                      *index,
                      core::SearchRequest<Vector>{
                          .kind = core::SearchKind::kKnn,
                          .object = q,
                          .k = k,
                          .exclude = exclude ? erased : core::Exclusion{}},
                      &s),
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

/// Range at the recipe's radii and k-NN at k = 1 and 10 over any index
/// layer, into one line per case.
template <typename Index>
void AppendLayerCases(const std::string& rep, const Index& index,
                      const Recipe& recipe, std::vector<std::string>* lines) {
  AppendRangeCases(rep, index, recipe, lines);
  for (const std::size_t k : {std::size_t{1}, std::size_t{10}}) {
    CaseTotals t;
    for (const Vector& q : recipe.queries) {
      SearchStats s;
      t.Add(index.KnnSearch(q, k, &s), s);
    }
    lines->push_back(t.Line(rep, "knn(k=" + std::to_string(k) + ")"));
  }
}

/// The dynamic layers over the uniform and clustered recipes. An MvpForest
/// holds every point, with each id congruent to 3 mod 7 erased: its levels
/// carry tombstones and its buffer keeps the last few inserts. A
/// DynamicOverlay serves the first 1500 points from a 4-shard SaveFlat
/// base, with the same ids erased there, and takes the other 500 into its
/// memtable, which erases every id congruent to 5 mod 11 and keeps a
/// non-empty buffer over several levels. Results are in stable ids.
TEST(SearchCountsGoldenTest, DynamicLayers) {
  using Forest = dynamic::MvpForest<Vector, L2>;
  using Overlay = dynamic::DynamicOverlay<Vector, L2, VectorCodec>;
  constexpr std::size_t kBase = 1500;
  std::vector<std::string> lines;
  for (const Recipe& recipe : {UniformRecipe(), ClusteredRecipe()}) {
    Forest::Options forest_options;
    forest_options.tree = recipe.options;
    Forest forest(L2(), forest_options);
    for (const Vector& v : recipe.data) forest.Insert(v);
    for (std::size_t id = 3; id < recipe.data.size(); id += 7) {
      ASSERT_TRUE(forest.Erase(id).ok());
    }
    ASSERT_GT(forest.num_trees(), 0u);
    ASSERT_GT(forest.buffered(), 0u);
    AppendLayerCases("forest " + recipe.name, forest, recipe, &lines);

    const std::string dir =
        ::testing::TempDir() + "/search_counts_dynamic_" + recipe.name;
    std::filesystem::remove_all(dir);
    Overlay::Options options;
    options.memtable = forest_options;
    options.rebuild.num_shards = 4;
    options.rebuild.tree = recipe.options;
    {
      auto base = serve::ShardedMvpIndex<Vector, L2>::Build(
          std::vector<Vector>(recipe.data.begin(),
                              recipe.data.begin() + kBase),
          L2(), options.rebuild);
      ASSERT_TRUE(base.ok()) << base.status().ToString();
      ASSERT_TRUE(snapshot::SnapshotStore(dir).SaveFlat(base.value()).ok());
    }
    auto opened = Overlay::Open(dir, L2(), VectorCodec{}, options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    Overlay& overlay = *opened.value();
    for (std::size_t id = 3; id < kBase; id += 7) {
      ASSERT_TRUE(overlay.Erase(id).ok());
    }
    for (std::size_t i = kBase; i < recipe.data.size(); ++i) {
      auto id = overlay.Insert(recipe.data[i]);
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      ASSERT_EQ(id.value(), i);
    }
    for (std::size_t id = kBase + 5; id < recipe.data.size(); id += 11) {
      ASSERT_TRUE(overlay.Erase(id).ok());
    }
    AppendLayerCases("overlay_flat " + recipe.name, overlay, recipe, &lines);
    opened.value().reset();
    std::filesystem::remove_all(dir);
  }
  CheckGolden("dynamic", lines);
}

/// An insert-fed MvpForest against MvpTree::Build of the same points, over
/// the uniform and clustered recipes: one forest takes the points in
/// generated order, another in a seeded shuffle, and the static tree is
/// built over the points in that same order, so both answer in the same
/// ids. A DynamicOverlay does the same from a 4-shard SaveFlat base of the
/// first 1500 points with the rest inserted (overlay_dist). Range at the
/// recipe's first two radii and k-NN at k = 1 and 10; each line holds both
/// indexes' distance totals and their ratio, and the two answers must
/// match.
TEST(SearchCountsGoldenTest, ForestAgainstStatic) {
  using Forest = dynamic::MvpForest<Vector, L2>;
  using Overlay = dynamic::DynamicOverlay<Vector, L2, VectorCodec>;
  constexpr std::size_t kBase = 1500;
  std::vector<std::string> lines;
  for (const Recipe& recipe : {UniformRecipe(), ClusteredRecipe()}) {
    for (const bool shuffled : {false, true}) {
      std::vector<Vector> data = recipe.data;
      if (shuffled) Rng(91).Shuffle(data);
      Forest::Options forest_options;
      forest_options.tree = recipe.options;
      Forest forest(L2(), forest_options);
      for (const Vector& v : data) forest.Insert(v);
      auto built = HeapTree::Build(data, L2(), recipe.options);
      ASSERT_TRUE(built.ok()) << built.status().ToString();
      const HeapTree& tree = built.value();
      const std::string rep =
          recipe.name + (shuffled ? " shuffled" : " generated");
      const auto line = [&](const std::string& label, const auto& dynamic,
                            const std::string& name, const auto& search) {
        CaseTotals f, s;
        for (const Vector& q : recipe.queries) {
          SearchStats fs, ss;
          const std::vector<Neighbor> fhits = search(dynamic, q, &fs);
          const std::vector<Neighbor> shits = search(tree, q, &ss);
          EXPECT_EQ(fhits, shits) << rep << ' ' << label << ' ' << name;
          f.Add(fhits, fs);
          s.Add(shits, ss);
        }
        const std::uint64_t fd = f.stats.distance_computations;
        const std::uint64_t sd = s.stats.distance_computations;
        std::ostringstream os;
        os << rep << ' ' << name << ' ' << label << "_dist=" << fd
           << " static_dist=" << sd << " ratio=" << std::fixed
           << std::setprecision(2)
           << static_cast<double>(fd) / static_cast<double>(sd)
           << " results=" << f.results << " hash=" << std::hex << f.hash;
        lines.push_back(os.str());
      };
      const auto cases = [&](const std::string& label, const auto& dynamic) {
        for (std::size_t i = 0; i < 2; ++i) {
          const double r = recipe.radii[i];
          std::ostringstream name;
          name << "range(r=" << r << ")";
          line(label, dynamic, name.str(),
               [r](const auto& index, const Vector& q, SearchStats* stats) {
                 return index.RangeSearch(q, r, stats);
               });
        }
        for (const std::size_t k : {std::size_t{1}, std::size_t{10}}) {
          line(label, dynamic, "knn(k=" + std::to_string(k) + ")",
               [k](const auto& index, const Vector& q, SearchStats* stats) {
                 return index.KnnSearch(q, k, stats);
               });
        }
      };
      cases("forest", forest);

      const std::string dir = ::testing::TempDir() +
                              "/search_counts_overlay_static_" + recipe.name +
                              (shuffled ? "_shuffled" : "_generated");
      std::filesystem::remove_all(dir);
      Overlay::Options options;
      options.memtable = forest_options;
      options.rebuild.num_shards = 4;
      options.rebuild.tree = recipe.options;
      {
        auto base = serve::ShardedMvpIndex<Vector, L2>::Build(
            std::vector<Vector>(data.begin(), data.begin() + kBase), L2(),
            options.rebuild);
        ASSERT_TRUE(base.ok()) << base.status().ToString();
        ASSERT_TRUE(snapshot::SnapshotStore(dir).SaveFlat(base.value()).ok());
      }
      auto opened = Overlay::Open(dir, L2(), VectorCodec{}, options);
      ASSERT_TRUE(opened.ok()) << opened.status().ToString();
      for (std::size_t i = kBase; i < data.size(); ++i) {
        auto id = opened.value()->Insert(data[i]);
        ASSERT_TRUE(id.ok()) << id.status().ToString();
        ASSERT_EQ(id.value(), i);
      }
      cases("overlay", *opened.value());
      opened.value().reset();
      std::filesystem::remove_all(dir);
    }
  }
  CheckGolden("forest_static", lines);
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

/// The paper's §2 farthest query forms over the uniform and clustered
/// recipes, on the heap tree and its flat (v2) arena: FarthestRangeSearch at
/// three radii, the smallest of which returns nearly every point, and
/// FarthestSearch at k = 1, 10 and 50.
TEST(SearchCountsGoldenTest, FarthestQueries) {
  std::vector<std::string> lines;
  for (const auto& [recipe, radii] :
       {std::pair{UniformRecipe(), std::vector<double>{0.5, 1.3, 1.7}},
        std::pair{ClusteredRecipe(), std::vector<double>{0.2, 1.0, 1.6}}}) {
    ForEachRepresentation(recipe, [&](const std::string& leg,
                                      const HeapTree& tree) {
      const std::string rep = leg + " " + recipe.name;
      for (const double r : radii) {
        CaseTotals t;
        for (const Vector& q : recipe.queries) {
          SearchStats s;
          t.Add(tree.FarthestRangeSearch(q, r, &s), s);
        }
        std::ostringstream name;
        name << "farthest_range(r=" << r << ")";
        lines.push_back(t.Line(rep, name.str()));
      }
      for (const std::size_t k :
           {std::size_t{1}, std::size_t{10}, std::size_t{50}}) {
        CaseTotals t;
        for (const Vector& q : recipe.queries) {
          SearchStats s;
          t.Add(tree.FarthestSearch(q, k, &s), s);
        }
        lines.push_back(
            t.Line(rep, "farthest(k=" + std::to_string(k) + ")"));
      }
    });
  }
  CheckGolden("farthest", lines);
}

/// The order k-NN asks for its distances. LoggedL2 is L2 that notes every
/// row it measures the query against, as a key of the row's coordinate
/// bits; it has no batch-kernel family, so every distance arrives through
/// operator(), one call each. RowIds turns the keys back into dataset ids.
using CallLog = std::vector<std::uint64_t>;

template <typename Row>
std::uint64_t RowKey(const Row& row) {
  std::uint64_t key = 0xcbf29ce484222325ull;
  for (const double x : row) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof(bits));
    key = (key ^ bits) * 0x100000001b3ull;
  }
  return key;
}

class LoggedL2 {
 public:
  explicit LoggedL2(std::shared_ptr<CallLog> log) : log_(std::move(log)) {}
  template <typename A, typename B>
  double operator()(const A& a, const B& b) const {
    log_->push_back(RowKey(b));
    return L2()(a, b);
  }

 private:
  std::shared_ptr<CallLog> log_;
};

class RowIds {
 public:
  explicit RowIds(const std::vector<Vector>& data) {
    for (std::size_t id = 0; id < data.size(); ++id) {
      ids_.emplace(RowKey(data[id]), id);
    }
    EXPECT_EQ(ids_.size(), data.size()) << "two rows share a key";
  }

  /// The ids a log names, in call order.
  std::vector<std::size_t> Ids(const CallLog& log) const {
    std::vector<std::size_t> ids;
    for (const std::uint64_t key : log) {
      const auto it = ids_.find(key);
      EXPECT_NE(it, ids_.end()) << "a logged row is not in the dataset";
      ids.push_back(it == ids_.end() ? ~std::size_t{0} : it->second);
    }
    return ids;
  }

 private:
  std::unordered_map<std::uint64_t, std::size_t> ids_;
};

/// One golden line per query: how many distances the search asked for and
/// an FNV-1a hash over their ids in call order.
std::string OrderLine(const std::string& rep, const std::string& name,
                      std::size_t q, const std::vector<std::size_t>& ids) {
  CaseTotals t;
  for (const std::size_t id : ids) t.Mix(id);
  std::ostringstream os;
  os << rep << ' ' << name << " q=" << q << " calls=" << ids.size()
     << " hash=" << std::hex << t.hash;
  return os.str();
}

/// The four k-NN forms the order golden and the cut test cover: Nearest and
/// Farthest, each with and without the every-7th-id exclusion.
struct KnnForm {
  std::string name;
  bool farthest;
  bool exclude;
};
std::vector<KnnForm> KnnForms() {
  return {{"knn(k=10)", false, false},
          {"knn(k=10,exclude)", false, true},
          {"farthest(k=10)", true, false},
          {"farthest(k=10,exclude)", true, true}};
}

/// One 10-NN search of `form` over the tree's accessor, cut after `limit`
/// distances.
template <typename Tree>
void RunKnnForm(const Tree& tree, const KnnForm& form, const Vector& query,
                std::uint64_t limit) {
  static const auto is_erased = [](std::size_t id) { return id % 7 == 3; };
  const core::Exclusion exclude =
      form.exclude ? core::Exclusion::Of(is_erased) : core::Exclusion{};
  std::vector<Neighbor> heap;
  SearchStats stats;
  core::Traversal traversal(core::TreeNodes<Tree>{&tree, tree.arrays()},
                            query, stats, core::DistanceBudget{limit},
                            exclude);
  try {
    if (form.farthest) {
      traversal.template Knn<core::Farthest>(10, &heap);
    } else {
      traversal.Knn(10, &heap);
    }
  } catch (const core::DistanceBudget::Exhausted&) {
    // Cut at the budget: the log holds the calls made before it.
  }
}

/// The id sequence of every k-NN query, on the heap tree and its flat arena
/// over the uniform and clustered recipes, and on a 3-shard index over the
/// uniform one. The totals goldens above cannot see a reordering inside a
/// leaf; this one can, so a change meant to keep evaluation order (a
/// prefetch, a mask computed ahead) must leave it byte-identical.
TEST(SearchCountsGoldenTest, KnnEvaluationOrder) {
  constexpr std::uint64_t kUnlimited =
      std::numeric_limits<std::uint64_t>::max();
  const auto log = std::make_shared<CallLog>();
  const LoggedL2 metric(log);
  std::vector<std::string> lines;
  for (const Recipe& recipe : {UniformRecipe(), ClusteredRecipe()}) {
    const RowIds ids(recipe.data);
    ForEachRepresentation(
        recipe,
        [&](const std::string& leg, const core::MvpTree<Vector, LoggedL2>& tree) {
          for (const KnnForm& form : KnnForms()) {
            for (std::size_t q = 0; q < recipe.queries.size(); ++q) {
              log->clear();
              RunKnnForm(tree, form, recipe.queries[q], kUnlimited);
              lines.push_back(OrderLine(leg + " " + recipe.name, form.name, q,
                                        ids.Ids(*log)));
            }
          }
        },
        metric);
  }
  using Sharded = serve::ShardedMvpIndex<Vector, LoggedL2>;
  const Recipe recipe = UniformRecipe();
  const RowIds ids(recipe.data);
  Sharded::Options options;
  options.num_shards = 3;
  options.tree = recipe.options;
  auto built = Sharded::Build(recipe.data, metric, options);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const auto is_erased = [](std::size_t id) { return id % 7 == 3; };
  for (const bool exclude : {false, true}) {
    for (std::size_t q = 0; q < recipe.queries.size(); ++q) {
      log->clear();
      core::Answer(built.value(),
                   core::SearchRequest<Vector>{
                       .kind = core::SearchKind::kKnn,
                       .object = recipe.queries[q],
                       .k = 10,
                       .exclude = exclude ? core::Exclusion::Of(is_erased)
                                          : core::Exclusion{}},
                   nullptr);
      lines.push_back(OrderLine("sharded3 uniform",
                                exclude ? "knn(k=10,exclude)" : "knn(k=10)", q,
                                ids.Ids(*log)));
    }
  }
  CheckGolden("knn_order", lines);
}

/// A k-NN search cut by a DistanceBudget of B asks for exactly the first B
/// distances of the full search, at every B, in both directions and with
/// and without an exclusion, on the heap tree and its flat arena.
TEST(SearchCountsGoldenTest, KnnBudgetCutIsPrefixOfOrder) {
  const auto log = std::make_shared<CallLog>();
  Recipe recipe = UniformRecipe();
  recipe.queries.resize(3);
  ForEachRepresentation(
      recipe,
      [&](const std::string& leg, const core::MvpTree<Vector, LoggedL2>& tree) {
        for (const KnnForm& form : KnnForms()) {
          for (std::size_t q = 0; q < recipe.queries.size(); ++q) {
            log->clear();
            RunKnnForm(tree, form, recipe.queries[q],
                       std::numeric_limits<std::uint64_t>::max());
            const CallLog full = *log;
            ASSERT_FALSE(full.empty());
            for (std::uint64_t b = 1; b <= full.size(); ++b) {
              log->clear();
              RunKnnForm(tree, form, recipe.queries[q], b);
              ASSERT_EQ(*log, CallLog(full.begin(), full.begin() + b))
                  << leg << ' ' << form.name << " query " << q << " budget "
                  << b;
            }
          }
        }
      },
      LoggedL2(log));
}

/// One line with every TreeStats field of a built tree.
std::string BuildLine(const std::string& rep, const TreeStats& s) {
  std::ostringstream os;
  os << rep << " build internal=" << s.num_internal_nodes
     << " leaves=" << s.num_leaf_nodes << " vps=" << s.num_vantage_points
     << " leaf_points=" << s.num_leaf_points << " height=" << s.height
     << " construction_dist=" << s.construction_distance_computations;
  return os.str();
}

/// vptree::VpTree over the generalized recipe: vpt(2) and vpt(3) at the
/// paper's leaf capacity 1, m = 3 with leaf capacity 8 and exact shell
/// bounds, and a tree whose root is one leaf holding every point. Each
/// setup gets range and k-NN lines and a build line; the build lines of the
/// GeneralizedMvpTree shapes above follow, since both trees' structural
/// statistics come from the same node walk.
TEST(SearchCountsGoldenTest, VpTreeAndBuildStats) {
  using VpTree = vptree::VpTree<Vector, L2>;
  using GenTree = core::GeneralizedMvpTree<Vector, L2>;
  const Recipe recipe{"vptree", dataset::UniformVectors(2000, 10, 17),
                      dataset::UniformQueryVectors(25, 10, 4242),
                      {0.5, 0.7, 0.9}, {}};
  struct Setup {
    int m, k;
    bool exact;
  };
  std::vector<std::string> lines;
  for (const Setup setup : {Setup{2, 1, false}, Setup{3, 1, false},
                            Setup{3, 8, true}, Setup{2, 2000, false}}) {
    VpTree::Options options;
    options.order = setup.m;
    options.leaf_capacity = setup.k;
    options.store_exact_bounds = setup.exact;
    auto built = VpTree::Build(recipe.data, L2(), options);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    const VpTree& tree = built.value();
    std::ostringstream rep;
    rep << "vpt(m=" << setup.m << ",k=" << setup.k
        << (setup.exact ? ",exact)" : ")");
    lines.push_back(BuildLine(rep.str(), tree.Stats()));
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
  struct Shape {
    int m, v, k, p;
  };
  for (const Shape shape : {Shape{3, 1, 80, 5}, Shape{3, 2, 80, 5},
                            Shape{3, 3, 80, 5}, Shape{2, 4, 9, 3}}) {
    GenTree::Options options;
    options.order = shape.m;
    options.vantage_points = shape.v;
    options.leaf_capacity = shape.k;
    options.num_path_distances = shape.p;
    auto built = GenTree::Build(recipe.data, L2(), options);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    std::ostringstream rep;
    rep << "gen(m=" << shape.m << ",v=" << shape.v << ",k=" << shape.k
        << ",p=" << shape.p << ")";
    lines.push_back(BuildLine(rep.str(), built.value().Stats()));
  }
  CheckGolden(recipe.name, lines);
}

}  // namespace
}  // namespace mvp
