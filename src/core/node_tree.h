#ifndef MVPTREE_CORE_NODE_TREE_H_
#define MVPTREE_CORE_NODE_TREE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/query.h"
#include "core/search_shared.h"
#include "metric/metric.h"

/// \file
/// The node store and search front shared by the comparison trees that are
/// not the paper-exact mvp-tree: GeneralizedMvpTree
/// (core/generalized_mvp_tree.h, v vantage points per node) and the
/// vp-tree (vptree/vp_tree.h, one vantage point per internal node, bucket
/// leaves without one). A derived class only builds: it fills root_ with
/// Nodes and each leaf through AddLeafEntry. Range and k-NN search run the
/// one §4.3 traversal (core/search_shared.h) over the Nodes accessor below,
/// and Stats walks the same nodes (core::CollectStats), so both trees
/// prune, count and report exactly as the traversal defines.
///
/// An internal node keeps Levels() vantage points and, for each level l,
/// the shell bounds of its m^(l+1) partition prefixes; its m^Levels()
/// children are indexed by slot. A leaf keeps 0..Levels() vantage points,
/// and each entry's distances to them and its PATH are slices of two
/// pools. A leaf without vantage points and an empty PATH admits every
/// entry, so the search evaluates its whole bucket.

namespace mvp::core {

template <typename Object, metric::MetricFor<Object> Metric>
class NodeTree {
 public:
  /// All objects within `radius` of `query` (closed ball), sorted by
  /// distance then id.
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

  /// The k nearest objects (shrinking-radius branch-and-bound), sorted by
  /// distance then id.
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

  /// Structural statistics (node/vantage-point counts, height,
  /// construction cost in distance computations).
  TreeStats Stats() const {
    TreeStats stats = CollectStats(Nodes{this});
    stats.construction_distance_computations = construction_distances_;
    return stats;
  }

 protected:
  struct LeafEntry {
    std::size_t id = 0;
    std::uint32_t d_offset = 0;     ///< leaf-vp distances, one per leaf vp
    std::uint32_t path_offset = 0;  ///< slice of ancestor PATH distances
    std::uint32_t path_length = 0;
  };

  struct Node {
    bool is_leaf = false;
    std::vector<std::size_t> vp_ids;
    // Internal: per vantage-point level l, shell bounds for each of the
    // m^(l+1) partition prefixes.
    std::vector<std::vector<double>> lower, upper;
    std::vector<std::unique_ptr<Node>> children;  // m^Levels()
    std::vector<LeafEntry> bucket;
  };

  /// `levels` vantage points per internal node, `order` partitions per
  /// level, and at most `path_distances` PATH distances per leaf entry.
  NodeTree(std::vector<Object> objects, Metric metric, std::size_t order,
           std::size_t levels, std::size_t path_distances)
      : metric_(std::move(metric)),
        objects_(std::move(objects)),
        order_(order),
        levels_(levels),
        path_distances_(path_distances) {}

  /// Appends object `id` to `leaf`, with its distances to the leaf's
  /// vantage points (in level order) and its PATH.
  void AddLeafEntry(Node& leaf, std::size_t id, std::span<const double> dists,
                    std::span<const double> path) {
    leaf.bucket.push_back(
        LeafEntry{id, static_cast<std::uint32_t>(d_pool_.size()),
                  static_cast<std::uint32_t>(path_pool_.size()),
                  static_cast<std::uint32_t>(path.size())});
    d_pool_.insert(d_pool_.end(), dists.begin(), dists.end());
    path_pool_.insert(path_pool_.end(), path.begin(), path.end());
  }

  Metric metric_;
  std::unique_ptr<Node> root_;
  std::uint64_t construction_distances_ = 0;

 private:
  /// Leaf cursor: each entry's distances to the leaf's vantage points are a
  /// d_offset slice of d_pool_, its PATH a path_offset slice of path_pool_.
  struct LeafCursor {
    const LeafEntry* entries;
    std::size_t count;
    const double* dists;
    const double* path;

    std::size_t size() const { return count; }
    std::size_t id(std::size_t i) const { return entries[i].id; }
    std::size_t row(std::size_t i) const { return entries[i].id; }
    bool Passes(std::size_t i, const LeafQuery& q, double r) const {
      const LeafEntry& x = entries[i];
      return q.Admits<kMaxVantagePoints>(
          [&](std::size_t l) { return dists[x.d_offset + l]; },
          path + x.path_offset, 1, x.path_length, r);
    }
  };

  /// The node accessor the shared §4.3 traversal (core/search_shared.h)
  /// runs on: Levels() shell levels, slot prefixes indexing each level.
  /// Objects stay in id order, so an object's row is its id.
  struct Nodes {
    const NodeTree* tree;

    const Node* Root() const { return tree->root_.get(); }
    std::size_t Order() const { return tree->order_; }
    std::size_t Levels() const { return tree->levels_; }
    std::size_t PathDistances() const { return tree->path_distances_; }
    bool IsLeaf(const Node* n) const { return n->is_leaf; }
    std::size_t VpCount(const Node* n) const { return n->vp_ids.size(); }
    std::size_t Vp(const Node* n, std::size_t l) const { return n->vp_ids[l]; }
    std::size_t VpRow(const Node* n, std::size_t l) const {
      return n->vp_ids[l];
    }
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
    const Object& At(std::size_t row) const { return tree->objects_[row]; }
  };

  std::vector<Object> objects_;
  std::size_t order_;
  std::size_t levels_;
  std::size_t path_distances_;
  std::vector<double> d_pool_;
  std::vector<double> path_pool_;
};

}  // namespace mvp::core

#endif  // MVPTREE_CORE_NODE_TREE_H_
