#ifndef MVPTREE_BASELINES_CLIQUE_TREE_H_
#define MVPTREE_BASELINES_CLIQUE_TREE_H_

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
/// The third Burkhard-Keller method, per the paper's §3.2 summary: "similar
/// to the second one, but there is the requirement that the diameter (the
/// maximum distance between any two points in a group) of any group should
/// be less than a given constant k, where the value of k is different at
/// each level. The group satisfying this criterion is called a clique.
/// This method relies on finding the set of maximal cliques at each level,
/// and keeping their representatives in the nodes to trim the search."
///
/// Exact maximal-clique enumeration is exponential; [BK73] itself used
/// heuristics. This implementation uses the standard greedy cover: seed a
/// clique with an unassigned key, grow it with keys whose distance to every
/// current member stays below the level's diameter, repeat. Each clique
/// keeps a representative (its seed); the diameter bound gives the pruning
/// rule  d(Q, rep) - diameter > r  =>  no member can be an answer. Levels
/// shrink the diameter geometrically until cliques are singletons/buckets.

namespace mvp::baselines {

template <typename Object, metric::MetricFor<Object> Metric>
class CliqueTree {
 public:
  struct Options {
    /// Diameter of top-level cliques, as a fraction of an estimated dataset
    /// diameter (sampled at build time).
    double initial_diameter_fraction = 0.5;
    /// Diameter shrink factor per level.
    double shrink = 0.5;
    /// Cliques of at most this many members become leaf buckets.
    int leaf_capacity = 8;
    /// Hard cap on levels (guards degenerate metrics).
    int max_depth = 24;
    std::uint64_t seed = 0;
  };

  static Result<CliqueTree> Build(std::vector<Object> objects, Metric metric,
                                  const Options& options = Options{}) {
    if (options.initial_diameter_fraction <= 0 || options.shrink <= 0 ||
        options.shrink >= 1) {
      return Status::InvalidArgument(
          "clique-tree needs positive diameter fraction and shrink in (0,1)");
    }
    if (options.leaf_capacity < 1) {
      return Status::InvalidArgument("clique-tree leaf capacity must be >= 1");
    }
    CliqueTree tree(std::move(objects), std::move(metric), options);
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
    std::vector<std::size_t> bucket;   // leaf: member ids
    // Internal: one entry per clique found at this level.
    std::vector<std::size_t> rep_ids;  // representatives
    double diameter = 0.0;             // the level's diameter bound
    std::vector<std::unique_ptr<Node>> children;
  };

  CliqueTree(std::vector<Object> objects, Metric metric,
             const Options& options)
      : objects_(std::move(objects)),
        metric_(std::move(metric)),
        options_(options) {}

  double Distance(const Object& a, const Object& b) {
    ++construction_distances_;
    return metric_(a, b);
  }

  void BuildTree() {
    if (objects_.empty()) return;
    // Estimate the dataset diameter from a sample of pairs.
    Rng rng(options_.seed);
    double estimate = 0.0;
    const std::size_t probes = std::min<std::size_t>(64, objects_.size());
    for (std::size_t i = 0; i < probes; ++i) {
      const auto a = rng.NextIndex(objects_.size());
      const auto b = rng.NextIndex(objects_.size());
      estimate = std::max(estimate, Distance(objects_[a], objects_[b]));
    }
    std::vector<std::size_t> ids(objects_.size());
    for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = i;
    root_ = BuildNode(std::move(ids),
                      std::max(estimate, 1e-12) *
                          options_.initial_diameter_fraction,
                      rng, 0);
  }

  std::unique_ptr<Node> BuildNode(std::vector<std::size_t> ids,
                                  double diameter, Rng& rng, int depth) {
    if (ids.empty()) return nullptr;
    auto node = std::make_unique<Node>();
    if (ids.size() <= static_cast<std::size_t>(options_.leaf_capacity) ||
        depth >= options_.max_depth) {
      node->is_leaf = true;
      node->bucket = std::move(ids);
      return node;
    }

    node->diameter = diameter;
    // Greedy clique cover: the seed of each clique is its representative.
    rng.Shuffle(ids);
    std::vector<bool> assigned(ids.size(), false);
    std::vector<std::vector<std::size_t>> cliques;
    for (std::size_t s = 0; s < ids.size(); ++s) {
      if (assigned[s]) continue;
      assigned[s] = true;
      std::vector<std::size_t> members{ids[s]};
      for (std::size_t i = s + 1; i < ids.size(); ++i) {
        if (assigned[i]) continue;
        bool fits = true;
        for (const std::size_t member : members) {
          if (Distance(objects_[member], objects_[ids[i]]) > diameter) {
            fits = false;
            break;
          }
        }
        if (fits) {
          members.push_back(ids[i]);
          assigned[i] = true;
        }
      }
      node->rep_ids.push_back(members.front());
      cliques.push_back(std::move(members));
    }
    if (cliques.size() == 1) {
      // The diameter failed to split anything; recurse with a smaller one
      // on the same id set (without materializing a useless level).
      return BuildNode(std::move(cliques.front()), diameter * options_.shrink,
                       rng, depth + 1);
    }
    node->children.resize(cliques.size());
    for (std::size_t c = 0; c < cliques.size(); ++c) {
      node->children[c] = BuildNode(std::move(cliques[c]),
                                    diameter * options_.shrink, rng, depth + 1);
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
    for (std::size_t c = 0; c < node.rep_ids.size(); ++c) {
      const double d = metric_(query, objects_[node.rep_ids[c]]);
      ++stats.distance_computations;
      // The representative is a member of its clique and is re-examined in
      // the child; to avoid double-reporting, only the child reports it.
      // Prune the whole clique when even the closest possible member (the
      // diameter bound from the representative) is out of reach.
      if (node.children[c] != nullptr && d - node.diameter <= radius) {
        RangeSearchNode(*node.children[c], query, radius, result, stats);
      }
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
    // Representatives stay members of their cliques (they are re-examined
    // in the children), so they are not "consumed" vantage points; every
    // point is accounted for exactly once via the leaf buckets.
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

#endif  // MVPTREE_BASELINES_CLIQUE_TREE_H_
