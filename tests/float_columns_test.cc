#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/mvp_tree.h"
#include "core/search_shared.h"
#include "core/tree_layout.h"
#include "metric/lp.h"
#include "scan/linear_scan.h"

/// The float leaf columns against the double ones they were narrowed from
/// (core/tree_layout.h). A tree keeps only the floats, and its searches
/// read them at a radius that admits every entry the double test admits
/// (metric::kernels::ColumnRadius, ColumnUpper). Here the same heap tree
/// searches twice — once as served, on its float columns, and once through
/// a test-only accessor whose leaf cursor reads double columns, recomputed
/// here as the build computed them, with the exact double tests — on a
/// boundary recipe: points on a
/// few lines, duplicates, queries at stored points and radii equal to
/// stored distances. The float search must return what the double search
/// returns and evaluate at least the same distances, within 0.1% more.
///
/// The double search is the search as it was before the columns were
/// narrowed, and it can miss a point at distance exactly r: when q, a
/// vantage point and x are collinear, |d(q,v) - d(x,v)| can exceed d(q,x)
/// by an ulp in double. The float test's wider radius keeps such a point
/// at the leaves, so there the float search may find more. Every such
/// difference must be a point the linear scan returns and the double
/// search misses; anything else fails.

namespace mvp {
namespace {

using metric::L2;
using metric::Vector;
using Tree = core::MvpTree<Vector, L2>;

/// A tree's leaf distances in double, at its float columns' offsets.
struct WideColumns {
  std::vector<double> d1, d2, path;
};

/// Fills `wide` for the subtree at `node`, whose root path passes the
/// vantage points at rows `ancestors` (at most p): each distance computed
/// as the build computed it, vantage point first — D1 and D2 to the leaf's
/// vantage points, PATH[j] to ancestors[j].
void Recompute(const Tree& tree, const core::NodeRec* node,
               std::vector<std::size_t>& ancestors, WideColumns* wide) {
  const core::TreeArrays& t = tree.arrays();
  const auto distance = [&](std::size_t vp, std::size_t row) {
    return tree.metric()(tree.object_at_row(vp), tree.object_at_row(row));
  };
  if ((node->flags & core::kNodeLeaf) != 0) {
    const core::LeafPathRec& lp = t.leafpaths[node - t.nodes];
    for (std::size_t i = 0; i < node->count; ++i) {
      const std::size_t row = node->begin + i;
      wide->d1[row] = distance(node->vp_row, row);
      if (core::VpCount(*node) == 2) {
        wide->d2[row] = distance(node->vp_row + 1, row);
      }
      for (std::size_t j = 0; j < lp.path_length; ++j) {
        wide->path[lp.slab_offset + j * node->count + i] =
            distance(ancestors[j], row);
      }
    }
    return;
  }
  core::PathScope<std::size_t> path(
      ancestors, t.path_distances,
      std::array<std::size_t, 2>{node->vp_row, node->vp_row + 1});
  for (std::size_t c = 0; c < t.order * t.order; ++c) {
    const std::uint32_t child = t.children[node->children + c];
    if (child != core::kNullChild) {
      Recompute(tree, t.nodes + child, ancestors, wide);
    }
  }
}

WideColumns Recompute(const Tree& tree) {
  const core::TreeArrays& t = tree.arrays();
  WideColumns wide{std::vector<double>(t.entry_count),
                   std::vector<double>(t.entry_count),
                   std::vector<double>(t.path_count)};
  std::vector<std::size_t> ancestors;
  if (t.node_count > 0) Recompute(tree, t.nodes, ancestors, &wide);
  return wide;
}

/// The served accessor, with a leaf cursor over double columns instead of
/// the tree's float ones.
struct WideNodes : core::TreeNodes<Tree> {
  const WideColumns* wide;

  core::SoaLeafOf<double> Leaf(const core::NodeRec* n) const {
    const core::LeafPathRec& lp = t.leafpaths[n - t.nodes];
    return {t.ids + n->begin,
            wide->d1.data() + n->begin,
            wide->d2.data() + n->begin,
            wide->path.data() + lp.slab_offset,
            n->count,
            lp.path_length,
            n->begin};
  }
};

WideNodes Wide(const Tree& tree, const WideColumns& wide) {
  return WideNodes{{&tree, tree.arrays()}, &wide};
}

/// `count` points of `dim` coordinates on `lines` random lines through the
/// unit cube, every 7th a copy of an earlier point.
std::vector<Vector> PointsOnLines(std::size_t count, std::size_t dim,
                                  std::size_t lines, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Vector> origins(lines, Vector(dim));
  std::vector<Vector> directions(lines, Vector(dim));
  for (std::size_t l = 0; l < lines; ++l) {
    for (std::size_t i = 0; i < dim; ++i) {
      origins[l][i] = rng.NextDouble();
      directions[l][i] = rng.NextDouble() - 0.5;
    }
  }
  std::vector<Vector> points;
  for (std::size_t p = 0; p < count; ++p) {
    if (p % 7 == 6) {
      points.push_back(points[rng.NextIndex(points.size())]);
      continue;
    }
    const std::size_t l = rng.NextIndex(lines);
    const double t = 2 * rng.NextDouble() - 1;
    Vector v(dim);
    for (std::size_t i = 0; i < dim; ++i) {
      v[i] = origins[l][i] + t * directions[l][i];
    }
    points.push_back(std::move(v));
  }
  return points;
}

std::vector<Neighbor> Sorted(std::vector<Neighbor> hits,
                             bool farthest = false) {
  std::sort(hits.begin(), hits.end(),
            farthest ? NeighborFarther : NeighborLess);
  return hits;
}

struct Totals {
  std::uint64_t float_dists = 0;
  std::uint64_t double_dists = 0;
  std::size_t recovered = 0;  ///< scan results only the float search found
};

/// The float answer equals the double answer, or adds only points the
/// double search missed and the linear scan returns.
void ExpectSameOrRecovered(const std::vector<Neighbor>& fl,
                           const std::vector<Neighbor>& db,
                           const std::vector<Neighbor>& scan,
                           const std::string& what, Totals* totals) {
  if (fl == db) return;
  EXPECT_EQ(fl, scan) << what << ": the float search differs from the "
                             "double search and from the scan";
  EXPECT_NE(db, scan) << what;
  ++totals->recovered;
}

TEST(FloatColumnsTest, SameAnswersAsDoubleColumnsOnBoundaryRecipe) {
  Tree::Options options;
  options.order = 3;
  options.leaf_capacity = 20;
  options.num_path_distances = 5;
  Totals totals;
  std::size_t queries = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const std::vector<Vector> data = PointsOnLines(1200, 20, 5, seed);
    options.seed = seed;
    auto built = Tree::Build(data, L2(), options);
    ASSERT_TRUE(built.ok());
    const Tree& tree = built.value();
    ASSERT_TRUE(tree.ValidateInvariants().ok());
    const WideColumns wide = Recompute(tree);
    const scan::LinearScan<Vector, L2> oracle(data, L2());
    Rng rng(seed * 1000 + 7);
    for (std::size_t q = 0; q < 100; ++q, ++queries) {
      const Vector& query = data[rng.NextIndex(data.size())];
      const double r = L2()(query, data[rng.NextIndex(data.size())]);
      const std::size_t k = 1 + rng.NextIndex(20);
      const std::string what = "seed " + std::to_string(seed) + " query " +
                               std::to_string(q);

      SearchStats fs, ds;
      const auto range = tree.RangeSearch(query, r, &fs);
      std::vector<Neighbor> wide_range;
      core::Traversal(Wide(tree, wide), query, ds).Range(r, &wide_range);
      ExpectSameOrRecovered(range, Sorted(wide_range),
                            oracle.RangeSearch(query, r), what + " range",
                            &totals);
      EXPECT_GE(fs.distance_computations, ds.distance_computations) << what;

      SearchStats fks, dks;
      const auto knn = tree.KnnSearch(query, k, &fks);
      std::vector<Neighbor> wide_knn;
      core::Traversal(Wide(tree, wide), query, dks).Knn(k, &wide_knn);
      ExpectSameOrRecovered(knn, Sorted(wide_knn),
                            oracle.KnnSearch(query, k), what + " k-NN",
                            &totals);

      SearchStats ffs, dfs;
      const auto far = tree.FarthestSearch(query, k, &ffs);
      std::vector<Neighbor> wide_far;
      core::Traversal(Wide(tree, wide), query, dfs)
          .template Knn<core::Farthest>(k, &wide_far);
      EXPECT_EQ(far, Sorted(wide_far, /*farthest=*/true)) << what;

      for (const SearchStats* s : {&fs, &fks, &ffs}) {
        totals.float_dists += s->distance_computations;
      }
      for (const SearchStats* s : {&ds, &dks, &dfs}) {
        totals.double_dists += s->distance_computations;
      }
      if (::testing::Test::HasFailure()) return;
    }
  }
  EXPECT_GE(totals.float_dists, totals.double_dists);
  EXPECT_LE(static_cast<double>(totals.float_dists),
            1.001 * static_cast<double>(totals.double_dists));
  std::printf("%zu queries x 3 searches: %llu float vs %llu double "
              "distances, %zu answers recovered\n",
              queries, static_cast<unsigned long long>(totals.float_dists),
              static_cast<unsigned long long>(totals.double_dists),
              totals.recovered);
}

}  // namespace
}  // namespace mvp
