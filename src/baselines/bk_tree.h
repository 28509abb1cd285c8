#ifndef MVPTREE_BASELINES_BK_TREE_H_
#define MVPTREE_BASELINES_BK_TREE_H_

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/query.h"
#include "common/status.h"
#include "metric/metric.h"

/// \file
/// The Burkhard-Keller tree [BK73] — the earliest structure the paper
/// reviews (§3.2, "their first method is a hierarchical multi-way tree
/// decomposition"): pick an element, group the remaining keys by their
/// (discrete, integer-valued) distance to it — "keys that are of the same
/// distance from that key get into the same group" — and recurse per group.
///
/// Unlike the other structures in this library, the BK-tree REQUIRES a
/// discrete metric (integer distances), e.g. edit or Hamming distance;
/// Build rejects datasets that produce non-integer distances.

namespace mvp::baselines {

template <typename Object, metric::MetricFor<Object> Metric>
class BkTree {
 public:
  /// Builds incrementally (the classic BK insertion, which also makes this
  /// the one naturally-dynamic structure of the era). Fails with
  /// InvalidArgument on the first non-integer distance encountered.
  static Result<BkTree> Build(std::vector<Object> objects, Metric metric) {
    BkTree tree(std::move(metric));
    for (auto& obj : objects) {
      MVP_RETURN_NOT_OK(tree.Insert(std::move(obj)));
    }
    return tree;
  }

  explicit BkTree(Metric metric) : metric_(std::move(metric)) {}

  /// Inserts one object. O(depth) distance computations.
  Status Insert(Object obj) {
    const std::size_t id = objects_.size();
    objects_.push_back(std::move(obj));
    if (root_ == nullptr) {
      root_ = std::make_unique<Node>(Node{id, {}});
      return Status::OK();
    }
    Node* node = root_.get();
    for (;;) {
      const double d = metric_(objects_[id], objects_[node->id]);
      ++construction_distances_;
      if (!IsDiscrete(d)) {
        objects_.pop_back();
        return Status::InvalidArgument(
            "BK-tree requires an integer-valued (discrete) metric");
      }
      const long key = std::lround(d);
      auto [it, inserted] = node->children.try_emplace(key, nullptr);
      if (inserted || it->second == nullptr) {
        it->second = std::make_unique<Node>(Node{id, {}});
        return Status::OK();
      }
      node = it->second.get();
    }
  }

  /// All objects within `radius` of `query`. The classic BK recursion:
  /// only child edges with |edge - d(Q,node)| <= radius can hold answers.
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

  /// The k nearest objects ("finding best matching keys", the original
  /// [BK73] problem) via shrinking-radius DFS: children are visited in
  /// order of |edge - d(Q,node)| and pruned against the current k-th best.
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
    std::size_t id;
    // Sparse discrete children keyed by integer distance; std::map keeps
    // range scans over [d-r, d+r] cheap.
    std::map<long, std::unique_ptr<Node>> children;
  };

  static bool IsDiscrete(double d) {
    return std::abs(d - static_cast<double>(std::lround(d))) < 1e-9;
  }

  void RangeSearchNode(const Node& node, const Object& query, double radius,
                       std::vector<Neighbor>& result,
                       SearchStats& stats) const {
    ++stats.nodes_visited;
    const double d = metric_(query, objects_[node.id]);
    ++stats.distance_computations;
    if (d <= radius) result.push_back(Neighbor{node.id, d});
    const long lo = std::lround(std::ceil(d - radius));
    const long hi = std::lround(std::floor(d + radius));
    for (auto it = node.children.lower_bound(lo);
         it != node.children.end() && it->first <= hi; ++it) {
      RangeSearchNode(*it->second, query, radius, result, stats);
    }
  }

  void KnnSearchNode(const Node& node, const Object& query, std::size_t k,
                     std::vector<Neighbor>& heap, SearchStats& stats) const {
    ++stats.nodes_visited;
    const double d = metric_(query, objects_[node.id]);
    ++stats.distance_computations;
    KnnOffer(heap, k, Neighbor{node.id, d});
    // Children by |edge - d| ascending so the pruning radius tightens fast.
    struct Ranked {
      double bound;
      const Node* child;
    };
    std::vector<Ranked> ranked;
    ranked.reserve(node.children.size());
    for (const auto& [edge, child] : node.children) {
      ranked.push_back(
          Ranked{std::abs(static_cast<double>(edge) - d), child.get()});
    }
    std::sort(ranked.begin(), ranked.end(),
              [](const Ranked& a, const Ranked& b) { return a.bound < b.bound; });
    for (const Ranked& r : ranked) {
      if (r.bound > KnnTau(heap, k)) break;
      KnnSearchNode(*r.child, query, k, heap, stats);
    }
  }

  void CollectStats(const Node& node, std::size_t depth,
                    TreeStats& stats) const {
    stats.height = std::max(stats.height, depth);
    stats.num_vantage_points += 1;  // every node's element is a pivot
    if (node.children.empty()) {
      ++stats.num_leaf_nodes;
    } else {
      ++stats.num_internal_nodes;
    }
    for (const auto& [key, child] : node.children) {
      CollectStats(*child, depth + 1, stats);
    }
  }

  Metric metric_;
  std::vector<Object> objects_;
  std::unique_ptr<Node> root_;
  std::uint64_t construction_distances_ = 0;
};

}  // namespace mvp::baselines

#endif  // MVPTREE_BASELINES_BK_TREE_H_
