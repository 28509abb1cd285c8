#ifndef MVPTREE_BASELINES_GH_TREE_H_
#define MVPTREE_BASELINES_GH_TREE_H_

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/query.h"
#include "common/rng.h"
#include "common/status.h"
#include "metric/metric.h"

/// \file
/// The generalized hyperplane tree [Uhl91], reviewed by the paper in §3.2:
/// "At the top node, two points are picked and the remaining points are
/// divided into two groups depending on which of these two points they are
/// closer to. The two branches ... are built recursively in the same way.
/// Unlike the vp-trees, the branching factor can only be two."
///
/// Pruning uses the hyperplane margin: if d(Q,p1) - d(Q,p2) > 2r, no point
/// closer to p1 than to p2 can be within r of Q (and symmetrically), a
/// direct consequence of the triangle inequality.

namespace mvp::baselines {

template <typename Object, metric::MetricFor<Object> Metric>
class GhTree {
 public:
  struct Options {
    /// Buckets of at most this size stop the recursion.
    int leaf_capacity = 4;
    /// Pivot choice: pick the first pivot randomly, the second as the point
    /// farthest from the first within a sample ("if the two pivot points
    /// are well-selected ... the gh-tree tends to be a well-balanced
    /// structure") — or fully random when false.
    bool far_apart_pivots = true;
    std::uint64_t seed = 0;
  };

  static Result<GhTree> Build(std::vector<Object> objects, Metric metric,
                              const Options& options = Options{}) {
    if (options.leaf_capacity < 1) {
      return Status::InvalidArgument("gh-tree leaf capacity must be >= 1");
    }
    GhTree tree(std::move(objects), std::move(metric), options);
    tree.BuildTree();
    return tree;
  }

  std::vector<Neighbor> RangeSearch(const Object& query, double radius,
                                    SearchStats* stats = nullptr) const {
    MVP_DCHECK(radius >= 0);
    std::vector<Neighbor> result;
    SearchStats local;
    if (root_ != nullptr) {
      RangeSearchNode(*root_, query, radius, result, local);
    }
    std::sort(result.begin(), result.end(), NeighborLess);
    if (stats != nullptr) MergeSearchStats(stats, local);
    return result;
  }

  /// The k nearest objects via shrinking-radius branch-and-bound: the
  /// hyperplane margin (d1 - d2)/2 lower-bounds the distance to the far
  /// side, and the closer side is searched first.
  std::vector<Neighbor> KnnSearch(const Object& query, std::size_t k,
                                  SearchStats* stats = nullptr) const {
    std::vector<Neighbor> heap;
    SearchStats local;
    if (root_ != nullptr && k > 0) {
      KnnSearchNode(*root_, query, k, heap, local);
    }
    std::sort_heap(heap.begin(), heap.end(), NeighborLess);
    if (stats != nullptr) MergeSearchStats(stats, local);
    return heap;
  }

  std::size_t size() const { return objects_.size(); }
  const Object& object(std::size_t id) const {
    MVP_DCHECK(id < objects_.size());
    return objects_[id];
  }

  TreeStats Stats() const {
    TreeStats stats;
    stats.construction_distance_computations = construction_distances_;
    if (root_ != nullptr) CollectStats(*root_, 1, stats);
    return stats;
  }

 private:
  struct Node {
    bool is_leaf = false;
    std::vector<std::size_t> bucket;  // leaf payload
    std::size_t pivot1 = 0;
    std::size_t pivot2 = 0;
    std::unique_ptr<Node> left;   // points closer to pivot1
    std::unique_ptr<Node> right;  // points closer to pivot2
  };

  GhTree(std::vector<Object> objects, Metric metric, const Options& options)
      : objects_(std::move(objects)),
        metric_(std::move(metric)),
        options_(options) {}

  double Distance(const Object& a, const Object& b) {
    ++construction_distances_;
    return metric_(a, b);
  }

  void BuildTree() {
    Rng rng(options_.seed);
    std::vector<std::size_t> ids(objects_.size());
    for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = i;
    root_ = BuildNode(std::move(ids), rng, 0);
  }

  std::unique_ptr<Node> BuildNode(std::vector<std::size_t> ids, Rng& rng,
                                  int depth) {
    if (ids.empty()) return nullptr;
    auto node = std::make_unique<Node>();
    // Degenerate splits (all points equidistant / duplicates) could recurse
    // forever; the depth guard turns pathological inputs into fat leaves.
    if (ids.size() <= static_cast<std::size_t>(options_.leaf_capacity) + 2 ||
        depth > 64) {
      node->is_leaf = true;
      node->bucket = std::move(ids);
      return node;
    }

    const std::size_t p1_off = rng.NextIndex(ids.size());
    std::swap(ids[0], ids[p1_off]);
    std::size_t p2_off = 1 + rng.NextIndex(ids.size() - 1);
    if (options_.far_apart_pivots) {
      // Farthest-from-p1 among a bounded sample.
      const std::size_t sample =
          std::min<std::size_t>(ids.size() - 1, 16);
      double best = -1.0;
      for (std::size_t s = 0; s < sample; ++s) {
        const std::size_t off = 1 + rng.NextIndex(ids.size() - 1);
        const double d = Distance(objects_[ids[0]], objects_[ids[off]]);
        if (d > best) {
          best = d;
          p2_off = off;
        }
      }
    }
    std::swap(ids[1], ids[p2_off]);
    node->pivot1 = ids[0];
    node->pivot2 = ids[1];

    std::vector<std::size_t> left_ids, right_ids;
    for (std::size_t i = 2; i < ids.size(); ++i) {
      const double d1 = Distance(objects_[node->pivot1], objects_[ids[i]]);
      const double d2 = Distance(objects_[node->pivot2], objects_[ids[i]]);
      (d1 <= d2 ? left_ids : right_ids).push_back(ids[i]);
    }
    node->left = BuildNode(std::move(left_ids), rng, depth + 1);
    node->right = BuildNode(std::move(right_ids), rng, depth + 1);
    return node;
  }

  void RangeSearchNode(const Node& node, const Object& query, double radius,
                       std::vector<Neighbor>& result,
                       SearchStats& stats) const {
    ++stats.nodes_visited;
    if (node.is_leaf) {
      stats.leaf_points_seen += node.bucket.size();
      for (const std::size_t id : node.bucket) {
        const double d = metric_(query, objects_[id]);
        ++stats.distance_computations;
        if (d <= radius) result.push_back(Neighbor{id, d});
      }
      return;
    }
    const double d1 = metric_(query, objects_[node.pivot1]);
    const double d2 = metric_(query, objects_[node.pivot2]);
    stats.distance_computations += 2;
    if (d1 <= radius) result.push_back(Neighbor{node.pivot1, d1});
    if (d2 <= radius) result.push_back(Neighbor{node.pivot2, d2});
    // Hyperplane pruning: the left subtree holds points x with
    // d(x,p1) <= d(x,p2); for such x, d(Q,x) >= (d(Q,p1) - d(Q,p2)) / 2,
    // so the subtree is empty of answers when d1 - d2 > 2r.
    if (node.left != nullptr && d1 - d2 <= 2 * radius) {
      RangeSearchNode(*node.left, query, radius, result, stats);
    }
    if (node.right != nullptr && d2 - d1 <= 2 * radius) {
      RangeSearchNode(*node.right, query, radius, result, stats);
    }
  }

  void KnnSearchNode(const Node& node, const Object& query, std::size_t k,
                     std::vector<Neighbor>& heap, SearchStats& stats) const {
    ++stats.nodes_visited;
    if (node.is_leaf) {
      stats.leaf_points_seen += node.bucket.size();
      for (const std::size_t id : node.bucket) {
        const double d = metric_(query, objects_[id]);
        ++stats.distance_computations;
        KnnOffer(heap, k, Neighbor{id, d});
      }
      return;
    }
    const double d1 = metric_(query, objects_[node.pivot1]);
    const double d2 = metric_(query, objects_[node.pivot2]);
    stats.distance_computations += 2;
    KnnOffer(heap, k, Neighbor{node.pivot1, d1});
    KnnOffer(heap, k, Neighbor{node.pivot2, d2});
    // Closer half first; the far half only if the hyperplane margin still
    // allows an answer within the current pruning radius.
    const Node* first = node.left.get();
    const Node* second = node.right.get();
    double margin = (d2 - d1) / 2;  // lower bound on d(Q, right side)
    if (d2 < d1) {
      std::swap(first, second);
      margin = (d1 - d2) / 2;
    }
    if (first != nullptr) KnnSearchNode(*first, query, k, heap, stats);
    if (second != nullptr && margin <= KnnTau(heap, k)) {
      KnnSearchNode(*second, query, k, heap, stats);
    }
  }

  void CollectStats(const Node& node, std::size_t depth,
                    TreeStats& stats) const {
    stats.height = std::max(stats.height, depth);
    if (node.is_leaf) {
      ++stats.num_leaf_nodes;
      stats.num_leaf_points += node.bucket.size();
      return;
    }
    ++stats.num_internal_nodes;
    stats.num_vantage_points += 2;
    if (node.left != nullptr) CollectStats(*node.left, depth + 1, stats);
    if (node.right != nullptr) CollectStats(*node.right, depth + 1, stats);
  }

  std::vector<Object> objects_;
  Metric metric_;
  Options options_;
  std::unique_ptr<Node> root_;
  std::uint64_t construction_distances_ = 0;
};

}  // namespace mvp::baselines

#endif  // MVPTREE_BASELINES_GH_TREE_H_
