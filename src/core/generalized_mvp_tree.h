#ifndef MVPTREE_CORE_GENERALIZED_MVP_TREE_H_
#define MVPTREE_CORE_GENERALIZED_MVP_TREE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/query.h"
#include "common/rng.h"
#include "common/status.h"
#include "core/search_shared.h"
#include "metric/metric.h"
#include "vptree/vp_select.h"

/// \file
/// The §4.2 generalization the paper sketches but does not evaluate: "The
/// mvp-tree construction can be modified easily so that more than 2 vantage
/// points can be kept in one node. Also, higher fanouts at the internal
/// nodes are also possible, and may be more favorable in most cases."
///
/// GeneralizedMvpTree keeps `v` vantage points per node (fanout m^v). v = 2
/// recovers the paper's mvp-tree (construction order of vantage points
/// differs slightly: here every subsequent vantage point is the farthest
/// point from the previous one, the rule §4.2 justifies for leaves). v = 1
/// is an m-way vp-tree *plus* the mvp-tree's stored leaf distances — the
/// configuration that isolates Observation 2 (pre-computed distances) from
/// Observation 1 (shared vantage points); bench/abl_vps_per_node uses it.
///
/// The canonical, paper-exact structure remains core::MvpTree; this class
/// exists for the v sweep and mirrors its API (range, k-NN, stats). Its
/// searches are the one mvp-tree traversal (core/search_shared.h): the
/// class supplies only a node accessor with v shell levels and a leaf cursor
/// over its stored distances, so range and k-NN prune exactly as the
/// mvp-tree does, with v levels of shells where the mvp-tree has two.

namespace mvp::core {

template <typename Object, metric::MetricFor<Object> Metric>
class GeneralizedMvpTree {
 public:
  struct Options {
    int order = 3;             ///< m: partitions per vantage point
    int vantage_points = 2;    ///< v: vantage points per node (fanout m^v)
    int leaf_capacity = 80;    ///< k
    int num_path_distances = 5;///< p
    vptree::VpSelectOptions selection;  ///< first-vantage-point picker
    std::uint64_t seed = 0;
  };

  static Result<GeneralizedMvpTree> Build(std::vector<Object> objects,
                                          Metric metric,
                                          const Options& options = Options{}) {
    if (options.order < 2) {
      return Status::InvalidArgument("order (m) must be >= 2");
    }
    if (options.vantage_points < 1 ||
        options.vantage_points > static_cast<int>(kMaxVantagePoints)) {
      return Status::InvalidArgument("vantage points per node must be 1..8");
    }
    if (options.leaf_capacity < 1) {
      return Status::InvalidArgument("leaf capacity (k) must be >= 1");
    }
    if (options.num_path_distances < 0) {
      return Status::InvalidArgument("path distances (p) must be >= 0");
    }
    const double fanout = std::pow(options.order, options.vantage_points);
    if (fanout > 4096) {
      return Status::InvalidArgument("fanout m^v too large (> 4096)");
    }
    GeneralizedMvpTree tree(std::move(objects), std::move(metric), options);
    tree.BuildTree();
    return tree;
  }

  /// All objects within `radius` of `query`, sorted by distance then id.
  std::vector<Neighbor> RangeSearch(const Object& query, double radius,
                                    SearchStats* stats = nullptr) const {
    MVP_DCHECK(radius >= 0);
    std::vector<Neighbor> result;
    SearchStats local;
    Traversal(Nodes{this}, query, local).Range(radius, &result);
    std::sort(result.begin(), result.end(), NeighborLess);
    if (stats != nullptr) MergeSearchStats(stats, local);
    return result;
  }

  /// The k nearest objects (shrinking-radius branch-and-bound).
  std::vector<Neighbor> KnnSearch(const Object& query, std::size_t k,
                                  SearchStats* stats = nullptr) const {
    std::vector<Neighbor> heap;
    SearchStats local;
    Traversal(Nodes{this}, query, local).Knn(k, &heap);
    std::sort_heap(heap.begin(), heap.end(), NeighborLess);
    if (stats != nullptr) MergeSearchStats(stats, local);
    return heap;
  }

  std::size_t size() const { return objects_.size(); }
  const Object& object(std::size_t id) const {
    MVP_DCHECK(id < objects_.size());
    return objects_[id];
  }
  const Options& options() const { return options_; }

  TreeStats Stats() const {
    TreeStats stats;
    stats.construction_distance_computations = construction_distances_;
    if (root_ != nullptr) CollectStats(*root_, 1, stats);
    return stats;
  }

 private:
  struct LeafEntry {
    std::size_t id = 0;
    std::uint32_t d_offset = 0;     ///< leaf-vp distances, one per leaf vp
    std::uint32_t path_offset = 0;  ///< slice of ancestor PATH distances
    std::uint32_t path_length = 0;
  };

  struct Node {
    bool is_leaf = false;
    std::vector<std::size_t> vp_ids;  // v' <= v vantage points
    // Internal: per vantage-point level l, shell bounds for each of the
    // m^(l+1) partition prefixes.
    std::vector<std::vector<double>> lower, upper;
    std::vector<std::unique_ptr<Node>> children;  // m^v
    std::vector<LeafEntry> bucket;
  };

  /// Construction working entry: distances to the current node's vantage
  /// points plus the accumulated PATH.
  struct Entry {
    std::size_t id = 0;
    std::vector<double> dists;  // size v while partitioning a node
    std::vector<double> path;
  };

  GeneralizedMvpTree(std::vector<Object> objects, Metric metric,
                     const Options& options)
      : objects_(std::move(objects)),
        metric_(std::move(metric)),
        options_(options) {}

  double Distance(const Object& a, const Object& b) {
    ++construction_distances_;
    return metric_(a, b);
  }

  void BuildTree() {
    Rng rng(options_.seed);
    std::vector<Entry> entries(objects_.size());
    for (std::size_t i = 0; i < objects_.size(); ++i) entries[i].id = i;
    root_ = BuildNode(entries, 0, entries.size(), rng);
  }

  std::unique_ptr<Node> BuildNode(std::vector<Entry>& entries,
                                  std::size_t begin, std::size_t end,
                                  Rng& rng) {
    if (begin == end) return nullptr;
    const std::size_t count = end - begin;
    const std::size_t v = static_cast<std::size_t>(options_.vantage_points);
    const std::size_t m = static_cast<std::size_t>(options_.order);
    const std::size_t p =
        static_cast<std::size_t>(options_.num_path_distances);

    auto node = std::make_unique<Node>();

    // --- choose vantage points: first by the selection strategy, each
    // subsequent one the farthest point from the previous (the §4.2 rule).
    // Chosen points are swapped to the front [begin, begin+v').
    const std::size_t num_vps = std::min(v, count);
    for (std::size_t l = 0; l < num_vps; ++l) {
      const std::size_t range_begin = begin + l;
      std::size_t pick = range_begin;
      if (l == 0) {
        pick = vptree::SelectVantagePoint(
            range_begin, end,
            [&](std::size_t i) -> const Object& {
              return objects_[entries[i].id];
            },
            metric_, rng, options_.selection, &construction_distances_);
      } else {
        // Farthest from the previous vantage point; distances to the
        // previous vp were just computed into dists[l-1].
        for (std::size_t i = range_begin + 1; i < end; ++i) {
          if (entries[i].dists[l - 1] > entries[pick].dists[l - 1]) pick = i;
        }
      }
      std::swap(entries[range_begin], entries[pick]);
      node->vp_ids.push_back(entries[range_begin].id);
      // Distances from this vantage point to every remaining point.
      const Object& vp = objects_[node->vp_ids.back()];
      for (std::size_t i = range_begin + 1; i < end; ++i) {
        if (entries[i].dists.size() <= l) entries[i].dists.resize(num_vps);
        entries[i].dists[l] = Distance(vp, objects_[entries[i].id]);
      }
    }

    const std::size_t data_begin = begin + num_vps;
    if (count <= static_cast<std::size_t>(options_.leaf_capacity) + v) {
      // --- leaf: store exact distances to the leaf's vantage points.
      node->is_leaf = true;
      node->bucket.reserve(end - data_begin);
      for (std::size_t i = data_begin; i < end; ++i) {
        LeafEntry e;
        e.id = entries[i].id;
        e.d_offset = static_cast<std::uint32_t>(d_pool_.size());
        for (std::size_t l = 0; l < num_vps; ++l) {
          d_pool_.push_back(entries[i].dists[l]);
        }
        e.path_offset = static_cast<std::uint32_t>(path_pool_.size());
        e.path_length = static_cast<std::uint32_t>(entries[i].path.size());
        path_pool_.insert(path_pool_.end(), entries[i].path.begin(),
                          entries[i].path.end());
        node->bucket.push_back(e);
      }
      return node;
    }

    // --- internal: extend PATH, then partition recursively per level.
    for (std::size_t i = data_begin; i < end; ++i) {
      for (std::size_t l = 0; l < num_vps && entries[i].path.size() < p; ++l) {
        entries[i].path.push_back(entries[i].dists[l]);
      }
    }
    node->lower.resize(v);
    node->upper.resize(v);
    std::size_t width = 1;
    for (std::size_t l = 0; l < v; ++l) {
      width *= m;
      node->lower[l].assign(width, 0.0);
      node->upper[l].assign(width, std::numeric_limits<double>::infinity());
    }
    node->children.resize(width);  // width == m^v here
    Partition(entries, data_begin, end, 0, 0, *node, rng);
    return node;
  }

  /// Splits [b, e) on distance level `l` into m groups, records the shell
  /// bounds at partition prefix `prefix`, and recurses to level l+1; at
  /// l == v the group becomes child subtree `prefix`.
  void Partition(std::vector<Entry>& entries, std::size_t b, std::size_t e,
                 std::size_t l, std::size_t prefix, Node& node, Rng& rng) {
    const std::size_t v = static_cast<std::size_t>(options_.vantage_points);
    const std::size_t m = static_cast<std::size_t>(options_.order);
    if (l == v) {
      node.children[prefix] = BuildNode(entries, b, e, rng);
      return;
    }
    std::sort(entries.begin() + static_cast<std::ptrdiff_t>(b),
              entries.begin() + static_cast<std::ptrdiff_t>(e),
              [l](const Entry& x, const Entry& y) {
                return x.dists[l] < y.dists[l];
              });
    const std::size_t points = e - b;
    double prev_cutoff = 0.0;
    for (std::size_t s = 0; s < m; ++s) {
      const std::size_t sb = b + points * s / m;
      const std::size_t se = b + points * (s + 1) / m;
      const std::size_t idx = prefix * m + s;
      if (sb < se) {
        // Paper-style cutoff bounds: previous sibling's max below, own max
        // above, open at the ends.
        node.lower[l][idx] = s == 0 ? 0.0 : prev_cutoff;
        node.upper[l][idx] = s + 1 == m
                                 ? std::numeric_limits<double>::infinity()
                                 : entries[se - 1].dists[l];
        prev_cutoff = entries[se - 1].dists[l];
      }
      Partition(entries, sb, se, l + 1, idx, node, rng);
    }
  }

  // ---------------------------------------------------------------- search

  /// Leaf cursor: each entry's distances to the leaf's vantage points are a
  /// d_offset slice of d_pool_, its PATH a path_offset slice of path_pool_.
  struct LeafCursor {
    const LeafEntry* entries;
    std::size_t count;
    const double* dists;
    const double* path;

    std::size_t size() const { return count; }
    std::size_t id(std::size_t i) const { return entries[i].id; }
    bool Passes(std::size_t i, const LeafQuery& q, double r) const {
      const LeafEntry& x = entries[i];
      return q.Admits<kMaxVantagePoints>(
          [&](std::size_t l) { return dists[x.d_offset + l]; },
          path + x.path_offset, 1, x.path_length, r);
    }
  };

  /// The node accessor the shared §4.3 traversal (core/search_shared.h)
  /// runs on: v shell levels, Partition's prefixes indexing each level.
  struct Nodes {
    const GeneralizedMvpTree* tree;

    const Node* Root() const { return tree->root_.get(); }
    std::size_t Order() const {
      return static_cast<std::size_t>(tree->options_.order);
    }
    std::size_t Levels() const {
      return static_cast<std::size_t>(tree->options_.vantage_points);
    }
    std::size_t PathDistances() const {
      return static_cast<std::size_t>(tree->options_.num_path_distances);
    }
    bool IsLeaf(const Node* n) const { return n->is_leaf; }
    std::size_t VpCount(const Node* n) const { return n->vp_ids.size(); }
    std::size_t Vp(const Node* n, std::size_t l) const { return n->vp_ids[l]; }
    ShellBounds Shells(const Node* n, std::size_t l) const {
      return {n->lower[l].data(), n->upper[l].data()};
    }
    const Node* Child(const Node* n, std::size_t c) const {
      return n->children[c].get();
    }
    LeafCursor Leaf(const Node* n) const {
      return {n->bucket.data(), n->bucket.size(), tree->d_pool_.data(),
              tree->path_pool_.data()};
    }
    const Metric& metric() const { return tree->metric_; }
    const Object& object(std::size_t id) const { return tree->objects_[id]; }
  };

  void CollectStats(const Node& node, std::size_t depth,
                    TreeStats& stats) const {
    stats.height = std::max(stats.height, depth);
    stats.num_vantage_points += node.vp_ids.size();
    if (node.is_leaf) {
      ++stats.num_leaf_nodes;
      stats.num_leaf_points += node.bucket.size();
      return;
    }
    ++stats.num_internal_nodes;
    for (const auto& child : node.children) {
      if (child != nullptr) CollectStats(*child, depth + 1, stats);
    }
  }

  std::vector<Object> objects_;
  Metric metric_;
  Options options_;
  std::unique_ptr<Node> root_;
  std::vector<double> d_pool_;
  std::vector<double> path_pool_;
  std::uint64_t construction_distances_ = 0;
};

}  // namespace mvp::core

#endif  // MVPTREE_CORE_GENERALIZED_MVP_TREE_H_
