#ifndef MVPTREE_BASELINES_BALL_PARTITION_TREE_H_
#define MVPTREE_BASELINES_BALL_PARTITION_TREE_H_

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/query.h"
#include "common/rng.h"
#include "common/status.h"
#include "metric/metric.h"

/// \file
/// The second Burkhard-Keller method, as the paper summarizes it (§3.2):
/// "they partition the space into a number of sets of keys. For each set,
/// they arbitrarily pick a center key, and calculate the radius which is
/// the maximum distance between the center and any other key in the set.
/// The keys in a set are partitioned into other sets recursively creating a
/// multi-way tree. Each node in the tree keeps the centers and the radii
/// for the sets of keys indexed below. The strategy for partitioning the
/// keys into sets was not discussed and was left as a parameter."
///
/// This implementation uses closest-center assignment as that open
/// partitioning parameter (random centers, [BK73]'s "arbitrarily pick").
/// Search prunes a set whenever d(Q, center) - radius > r — the covering-
/// ball bound from the triangle inequality.

namespace mvp::baselines {

template <typename Object, metric::MetricFor<Object> Metric>
class BallPartitionTree {
 public:
  struct Options {
    /// Sets per node (the multi-way fanout).
    int fanout = 4;
    /// Sets of at most this size become leaf buckets.
    int leaf_capacity = 8;
    std::uint64_t seed = 0;
  };

  static Result<BallPartitionTree> Build(std::vector<Object> objects,
                                         Metric metric,
                                         const Options& options = Options{}) {
    if (options.fanout < 2) {
      return Status::InvalidArgument("ball-partition fanout must be >= 2");
    }
    if (options.leaf_capacity < 1) {
      return Status::InvalidArgument(
          "ball-partition leaf capacity must be >= 1");
    }
    BallPartitionTree tree(std::move(objects), std::move(metric), options);
    tree.BuildTree();
    return tree;
  }

  /// All objects within `radius` of `query`, sorted by distance then id.
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

  /// The k nearest objects: best-first over covering balls, pruning sets
  /// whose lower bound max(0, d(Q,c) - radius) exceeds the k-th best.
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
    std::vector<std::size_t> bucket;     // leaf payload
    std::vector<std::size_t> center_ids; // per set: its center key
    std::vector<double> radii;           // per set: covering radius
    std::vector<std::unique_ptr<Node>> children;
  };

  BallPartitionTree(std::vector<Object> objects, Metric metric,
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
    std::vector<std::size_t> ids(objects_.size());
    for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = i;
    root_ = BuildNode(std::move(ids), rng, 0);
  }

  std::unique_ptr<Node> BuildNode(std::vector<std::size_t> ids, Rng& rng,
                                  int depth) {
    if (ids.empty()) return nullptr;
    auto node = std::make_unique<Node>();
    // Duplicate-heavy inputs can refuse to split (all keys equidistant from
    // every center); the depth guard caps that at a fat leaf.
    if (ids.size() <= static_cast<std::size_t>(options_.leaf_capacity) ||
        depth > 64) {
      node->is_leaf = true;
      node->bucket = std::move(ids);
      return node;
    }

    // Arbitrary (random, distinct) centers; each remaining key joins its
    // closest center's set; the radius covers the set.
    const std::size_t fanout = std::min<std::size_t>(
        static_cast<std::size_t>(options_.fanout), ids.size());
    rng.Shuffle(ids);
    std::vector<std::vector<std::size_t>> sets(fanout);
    node->center_ids.assign(ids.begin(),
                            ids.begin() + static_cast<std::ptrdiff_t>(fanout));
    node->radii.assign(fanout, 0.0);
    for (std::size_t i = fanout; i < ids.size(); ++i) {
      std::size_t closest = 0;
      double best = std::numeric_limits<double>::infinity();
      for (std::size_t c = 0; c < fanout; ++c) {
        const double d =
            Distance(objects_[node->center_ids[c]], objects_[ids[i]]);
        if (d < best) {
          best = d;
          closest = c;
        }
      }
      sets[closest].push_back(ids[i]);
      node->radii[closest] = std::max(node->radii[closest], best);
    }
    node->children.resize(fanout);
    for (std::size_t c = 0; c < fanout; ++c) {
      node->children[c] = BuildNode(std::move(sets[c]), rng, depth + 1);
    }
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
    for (std::size_t c = 0; c < node.center_ids.size(); ++c) {
      const double d = metric_(query, objects_[node.center_ids[c]]);
      ++stats.distance_computations;
      if (d <= radius) result.push_back(Neighbor{node.center_ids[c], d});
      // Covering-ball bound: every key of set c is within radii[c] of the
      // center, so its distance to Q is at least d - radii[c].
      if (node.children[c] != nullptr && d - node.radii[c] <= radius) {
        RangeSearchNode(*node.children[c], query, radius, result, stats);
      }
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
    struct Ranked {
      double bound;
      std::size_t child;
    };
    std::vector<Ranked> ranked;
    for (std::size_t c = 0; c < node.center_ids.size(); ++c) {
      const double d = metric_(query, objects_[node.center_ids[c]]);
      ++stats.distance_computations;
      KnnOffer(heap, k, Neighbor{node.center_ids[c], d});
      if (node.children[c] != nullptr) {
        ranked.push_back(Ranked{std::max(0.0, d - node.radii[c]), c});
      }
    }
    std::sort(ranked.begin(), ranked.end(),
              [](const Ranked& a, const Ranked& b) { return a.bound < b.bound; });
    for (const Ranked& r : ranked) {
      if (r.bound > KnnTau(heap, k)) break;
      KnnSearchNode(*node.children[r.child], query, k, heap, stats);
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
    stats.num_vantage_points += node.center_ids.size();
    for (const auto& child : node.children) {
      if (child != nullptr) CollectStats(*child, depth + 1, stats);
    }
  }

  std::vector<Object> objects_;
  Metric metric_;
  Options options_;
  std::unique_ptr<Node> root_;
  std::uint64_t construction_distances_ = 0;
};

}  // namespace mvp::baselines

#endif  // MVPTREE_BASELINES_BALL_PARTITION_TREE_H_
