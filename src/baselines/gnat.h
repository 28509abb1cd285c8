#ifndef MVPTREE_BASELINES_GNAT_H_
#define MVPTREE_BASELINES_GNAT_H_

#include <algorithm>
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
/// GNAT — Geometric Near-neighbor Access Tree [Bri95], reviewed by the paper
/// in §3.2: "A k number of split points are chosen at the top level. Each
/// one of the remaining points are associated with one of the k datasets ...
/// depending on which split point they are closest to. For each split point,
/// the minimum and maximum distances from the points in the datasets of
/// other split points are recorded."
///
/// Search computes d(Q, split point) one split point at a time and discards
/// every sibling dataset whose recorded [min,max] range cannot intersect the
/// query ball (triangle inequality). Split points are chosen greedily
/// far-apart from a random sample (Brin's 3k-candidate heuristic).

namespace mvp::baselines {

template <typename Object, metric::MetricFor<Object> Metric>
class Gnat {
 public:
  struct Options {
    /// Split points per node (Brin parametrizes this per dataset size; a
    /// fixed default keeps the reproduction simple and is what the paper's
    /// summary describes).
    int split_points = 8;
    /// Datasets of at most this size become leaf buckets.
    int leaf_capacity = 16;
    /// Candidate-sampling factor for the far-apart heuristic (Brin uses 3).
    int candidate_factor = 3;
    std::uint64_t seed = 0;
  };

  static Result<Gnat> Build(std::vector<Object> objects, Metric metric,
                            const Options& options = Options{}) {
    if (options.split_points < 2) {
      return Status::InvalidArgument("GNAT needs >= 2 split points");
    }
    if (options.leaf_capacity < 1) {
      return Status::InvalidArgument("GNAT leaf capacity must be >= 1");
    }
    if (options.candidate_factor < 1) {
      return Status::InvalidArgument("GNAT candidate factor must be >= 1");
    }
    Gnat tree(std::move(objects), std::move(metric), options);
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

  /// The k nearest objects via shrinking-radius branch-and-bound over the
  /// same range-elimination rule as RangeSearch.
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
  struct Range {
    double min = std::numeric_limits<double>::infinity();
    double max = -std::numeric_limits<double>::infinity();

    void Extend(double d) {
      min = std::min(min, d);
      max = std::max(max, d);
    }
    bool Intersects(double d, double r) const {
      return min <= max && d - r <= max && d + r >= min;
    }
  };

  struct Node {
    bool is_leaf = false;
    std::vector<std::size_t> bucket;  // leaf: plain point ids
    // Internal: k split points; ranges[i][j] = [min,max] of d(split_i, x)
    // over dataset j (including j == i's own dataset).
    std::vector<std::size_t> split_ids;
    std::vector<std::vector<Range>> ranges;
    std::vector<std::unique_ptr<Node>> children;
  };

  Gnat(std::vector<Object> objects, Metric metric, const Options& options)
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
    root_ = BuildNode(std::move(ids), rng);
  }

  std::unique_ptr<Node> BuildNode(std::vector<std::size_t> ids, Rng& rng) {
    if (ids.empty()) return nullptr;
    auto node = std::make_unique<Node>();
    if (ids.size() <=
        static_cast<std::size_t>(options_.leaf_capacity)) {
      node->is_leaf = true;
      node->bucket = std::move(ids);
      return node;
    }

    // Far-apart split points: sample 3k candidates, greedily keep the one
    // maximizing the minimum distance to already-chosen split points.
    const std::size_t k = std::min<std::size_t>(
        static_cast<std::size_t>(options_.split_points), ids.size());
    const std::size_t num_candidates = std::min(
        ids.size(),
        k * static_cast<std::size_t>(options_.candidate_factor));
    std::vector<std::size_t> cand_offsets =
        rng.SampleIndices(ids.size(), num_candidates);

    std::vector<std::size_t> split_offsets;
    split_offsets.push_back(cand_offsets[0]);
    std::vector<double> best_dist(num_candidates,
                                  std::numeric_limits<double>::infinity());
    while (split_offsets.size() < k) {
      const std::size_t last = split_offsets.back();
      std::size_t arg_best = num_candidates;
      double best = -1.0;
      for (std::size_t c = 0; c < num_candidates; ++c) {
        const std::size_t off = cand_offsets[c];
        if (std::find(split_offsets.begin(), split_offsets.end(), off) !=
            split_offsets.end()) {
          continue;
        }
        best_dist[c] = std::min(
            best_dist[c], Distance(objects_[ids[off]], objects_[ids[last]]));
        if (best_dist[c] > best) {
          best = best_dist[c];
          arg_best = c;
        }
      }
      if (arg_best == num_candidates) break;  // ran out of candidates
      split_offsets.push_back(cand_offsets[arg_best]);
    }

    node->split_ids.reserve(split_offsets.size());
    for (const std::size_t off : split_offsets) {
      node->split_ids.push_back(ids[off]);
    }
    // Remove split points from the id set (mark + filter).
    std::sort(split_offsets.begin(), split_offsets.end());
    std::vector<std::size_t> remaining;
    remaining.reserve(ids.size() - split_offsets.size());
    std::size_t next_split = 0;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (next_split < split_offsets.size() && i == split_offsets[next_split]) {
        ++next_split;
        continue;
      }
      remaining.push_back(ids[i]);
    }

    // Associate every remaining point with its closest split point and
    // record min/max ranges from every split point to every dataset. The
    // range for dataset t also covers split point t itself, so that range
    // elimination of subtree t soundly covers its split point (which would
    // otherwise never get its distance computed).
    const std::size_t num_splits = node->split_ids.size();
    std::vector<std::vector<std::size_t>> datasets(num_splits);
    node->ranges.assign(num_splits, std::vector<Range>(num_splits));
    for (std::size_t s = 0; s < num_splits; ++s) {
      for (std::size_t t = s + 1; t < num_splits; ++t) {
        const double d =
            Distance(objects_[node->split_ids[s]], objects_[node->split_ids[t]]);
        node->ranges[s][t].Extend(d);
        node->ranges[t][s].Extend(d);
      }
    }
    std::vector<double> dists(num_splits);
    for (const std::size_t id : remaining) {
      std::size_t closest = 0;
      for (std::size_t s = 0; s < num_splits; ++s) {
        dists[s] = Distance(objects_[node->split_ids[s]], objects_[id]);
        if (dists[s] < dists[closest]) closest = s;
      }
      datasets[closest].push_back(id);
      for (std::size_t s = 0; s < num_splits; ++s) {
        node->ranges[s][closest].Extend(dists[s]);
      }
    }

    node->children.resize(num_splits);
    for (std::size_t s = 0; s < num_splits; ++s) {
      node->children[s] = BuildNode(std::move(datasets[s]), rng);
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

    // Brin's search: process split points in turn; each computed distance
    // both reports the split point and eliminates sibling datasets.
    const std::size_t num_splits = node.split_ids.size();
    std::vector<bool> alive(num_splits, true);
    for (std::size_t s = 0; s < num_splits; ++s) {
      // An eliminated branch needs no distance computation at all: its
      // recorded range covers both its dataset and its split point.
      if (!alive[s]) continue;
      const double d = metric_(query, objects_[node.split_ids[s]]);
      ++stats.distance_computations;
      if (d <= radius) result.push_back(Neighbor{node.split_ids[s], d});
      for (std::size_t t = 0; t < num_splits; ++t) {
        if (t == s || !alive[t]) continue;
        // Branch t (its dataset and its split point) lies within [min,max]
        // of split point s; if the query ball cannot reach that band, the
        // whole branch is out (triangle inequality).
        if (!node.ranges[s][t].Intersects(d, radius)) alive[t] = false;
      }
    }
    for (std::size_t s = 0; s < num_splits; ++s) {
      if (!alive[s] || node.children[s] == nullptr) continue;
      RangeSearchNode(*node.children[s], query, radius, result, stats);
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
    // Compute all split-point distances with range elimination against the
    // current pruning radius, then descend the surviving branches in order
    // of their distance lower bound.
    const std::size_t num_splits = node.split_ids.size();
    std::vector<bool> alive(num_splits, true);
    std::vector<double> dist(num_splits, 0.0);
    std::vector<bool> computed(num_splits, false);
    for (std::size_t s = 0; s < num_splits; ++s) {
      if (!alive[s]) continue;
      dist[s] = metric_(query, objects_[node.split_ids[s]]);
      computed[s] = true;
      ++stats.distance_computations;
      KnnOffer(heap, k, Neighbor{node.split_ids[s], dist[s]});
      const double tau = KnnTau(heap, k);
      for (std::size_t t = 0; t < num_splits; ++t) {
        if (t == s || !alive[t]) continue;
        if (!node.ranges[s][t].Intersects(dist[s], tau)) alive[t] = false;
      }
    }
    struct Ranked {
      double bound;
      std::size_t child;
    };
    std::vector<Ranked> ranked;
    for (std::size_t s = 0; s < num_splits; ++s) {
      if (!alive[s] || !computed[s] || node.children[s] == nullptr) continue;
      // Lower bound on distances within dataset s: the query ball around
      // the split point reaches its dataset shell [min,max].
      const double lo = std::max(
          {0.0, node.ranges[s][s].min - dist[s], dist[s] - node.ranges[s][s].max});
      ranked.push_back(Ranked{lo, s});
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
    stats.num_vantage_points += node.split_ids.size();
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

#endif  // MVPTREE_BASELINES_GNAT_H_
