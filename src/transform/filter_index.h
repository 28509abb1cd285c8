#ifndef MVPTREE_TRANSFORM_FILTER_INDEX_H_
#define MVPTREE_TRANSFORM_FILTER_INDEX_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/query.h"
#include "common/status.h"
#include "core/mvp_tree.h"
#include "metric/metric.h"

/// \file
/// Distance-preserving transformations (§3.1 of the paper) as a two-stage
/// filter index.
///
/// "A distance preserving transformation is a mapping from a
/// high-dimensional domain to a lower-dimensional domain where the distances
/// between objects before the transformation (in the actual space) are
/// greater than or equal to the distances after the transformation. ...
/// Similarity queries ... are answered by first using the index on the
/// [transformed objects] as the major filtering step, and then refining the
/// result by actual computations of [the real] distances." (QBIC's average
/// color is the paper's worked example.)
///
/// FilterIndex runs that pipeline over any contractive transform: an
/// mvp-tree indexes the transformed (cheap) objects; a range query first
/// collects every object whose transformed distance is within r — a
/// superset of the true answer, by the contraction property — then verifies
/// each candidate with one real distance computation. The paper's §3.1
/// caveat also holds here and is measurable with bench/ext_transform: a
/// transform that preserves little distance information (e.g. coordinate
/// prefixes of uncorrelated uniform vectors) filters almost nothing.

namespace mvp::transform {

/// A transform usable by FilterIndex: maps Object to a low-cost LowObject.
/// CONTRACT: for the metric pair (Metric, LowMetric) used with it,
///   low_metric(t(a), t(b)) <= metric(a, b)   for all a, b.
/// Validate unfamiliar transforms with CheckContractive before indexing.
template <typename T, typename Object>
concept TransformFor = std::copy_constructible<T> &&
    requires(const T& t, const Object& obj) {
      { t(obj) };
    };

/// Per-query cost breakdown of the two-stage pipeline. The whole point of
/// the §3.1 technique is that `high_distance_computations` (expensive) is a
/// small fraction of n while `low_distance_computations` (cheap) do the
/// bulk of the work.
struct FilterSearchStats {
  std::uint64_t low_distance_computations = 0;   ///< transformed-space
  std::uint64_t high_distance_computations = 0;  ///< actual metric
  std::uint64_t candidates = 0;                  ///< survived the filter
};

/// Verifies the contraction property of (transform, low_metric) against
/// (metric) on all pairs of a sample; returns InvalidArgument naming the
/// first violating pair. This is the property the correctness of
/// FilterIndex::RangeSearch rests on.
template <typename Object, metric::MetricFor<Object> Metric,
          TransformFor<Object> Transform, typename LowMetric>
Status CheckContractive(const std::vector<Object>& sample,
                        const Metric& metric, const Transform& transform,
                        const LowMetric& low_metric,
                        double tolerance = 1e-9) {
  using LowObject = decltype(transform(sample[0]));
  std::vector<LowObject> low;
  low.reserve(sample.size());
  for (const Object& obj : sample) low.push_back(transform(obj));
  for (std::size_t i = 0; i < sample.size(); ++i) {
    for (std::size_t j = i + 1; j < sample.size(); ++j) {
      const double high = metric(sample[i], sample[j]);
      const double lo = low_metric(low[i], low[j]);
      if (lo > high + tolerance) {
        char msg[128];
        std::snprintf(msg, sizeof(msg),
                      "transform not contractive at pair (%zu,%zu): "
                      "%.6f > %.6f",
                      i, j, lo, high);
        return Status::InvalidArgument(msg);
      }
    }
  }
  return Status::OK();
}

/// The §3.1 two-stage pipeline: an mvp-tree over transformed objects as the
/// major filtering step, exact verification as the refinement step.
template <typename Object, metric::MetricFor<Object> Metric,
          TransformFor<Object> Transform,
          typename LowMetric>
class FilterIndex {
 public:
  using LowObject = std::decay_t<decltype(std::declval<const Transform&>()(
      std::declval<const Object&>()))>;
  using LowTree = core::MvpTree<LowObject, LowMetric>;

  struct Options {
    /// Construction options for the low-dimensional mvp-tree.
    typename LowTree::Options tree;
  };

  /// Builds the filter index. The contraction property is NOT validated
  /// here (it is a semantic contract; use CheckContractive on a sample).
  static Result<FilterIndex> Build(std::vector<Object> objects, Metric metric,
                                   Transform transform, LowMetric low_metric,
                                   const Options& options = Options{}) {
    std::vector<LowObject> low;
    low.reserve(objects.size());
    for (const Object& obj : objects) low.push_back(transform(obj));
    auto tree =
        LowTree::Build(std::move(low), std::move(low_metric), options.tree);
    if (!tree.ok()) return tree.status();
    return FilterIndex(std::move(objects), std::move(metric),
                       std::move(transform), std::move(tree).ValueOrDie());
  }

  /// All objects within `radius` of `query` under the REAL metric. Exact:
  /// the transformed-space query (same radius — distances only shrink)
  /// over-approximates the answer set and every candidate is verified.
  std::vector<Neighbor> RangeSearch(const Object& query, double radius,
                                    FilterSearchStats* stats = nullptr) const {
    MVP_DCHECK(radius >= 0);
    SearchStats low_stats;
    const auto candidates =
        low_tree_.RangeSearch(transform_(query), radius, &low_stats);
    std::vector<Neighbor> result;
    for (const Neighbor& candidate : candidates) {
      const double d = metric_(query, objects_[candidate.id]);
      if (d <= radius) result.push_back(Neighbor{candidate.id, d});
    }
    std::sort(result.begin(), result.end(), NeighborLess);
    if (stats != nullptr) {
      stats->low_distance_computations += low_stats.distance_computations;
      stats->high_distance_computations += candidates.size();
      stats->candidates += candidates.size();
    }
    return result;
  }

  /// k-NN under the real metric: fetch candidates from the low space in
  /// expanding batches; the low-space distance of the next unseen candidate
  /// lower-bounds its real distance, giving a sound stopping rule.
  std::vector<Neighbor> KnnSearch(const Object& query, std::size_t k,
                                  FilterSearchStats* stats = nullptr) const {
    if (k == 0 || objects_.empty()) return {};
    const LowObject low_query = transform_(query);
    // Fetch low-space neighbors in one call with a generous batch, then
    // expand if the stopping rule has not fired. Simple doubling schedule.
    std::size_t fetch = std::min(objects_.size(), std::max<std::size_t>(4 * k, 16));
    for (;;) {
      SearchStats low_stats;
      const auto candidates = low_tree_.KnnSearch(low_query, fetch, &low_stats);
      std::vector<Neighbor> verified;
      verified.reserve(candidates.size());
      std::uint64_t high = 0;
      std::vector<Neighbor> heap;
      bool done = false;
      for (std::size_t i = 0; i < candidates.size(); ++i) {
        // Stopping rule: if the k-th best real distance so far is below the
        // low-space distance of every remaining candidate, no remaining
        // object can improve the answer (real >= low).
        if (heap.size() == k &&
            heap.front().distance < candidates[i].distance) {
          done = true;
          break;
        }
        const double d = metric_(query, objects_[candidates[i].id]);
        ++high;
        KnnOffer(heap, k, Neighbor{candidates[i].id, d});
      }
      if (stats != nullptr) {
        stats->low_distance_computations += low_stats.distance_computations;
        stats->high_distance_computations += high;
        stats->candidates += candidates.size();
      }
      if (done || fetch >= objects_.size()) {
        std::sort(heap.begin(), heap.end(), NeighborLess);
        return heap;
      }
      fetch = std::min(objects_.size(), fetch * 2);
    }
  }

  std::size_t size() const { return objects_.size(); }
  const Object& object(std::size_t id) const {
    MVP_DCHECK(id < objects_.size());
    return objects_[id];
  }
  const LowTree& low_tree() const { return low_tree_; }

 private:
  FilterIndex(std::vector<Object> objects, Metric metric, Transform transform,
              LowTree low_tree)
      : objects_(std::move(objects)),
        metric_(std::move(metric)),
        transform_(std::move(transform)),
        low_tree_(std::move(low_tree)) {}

  std::vector<Object> objects_;
  Metric metric_;
  Transform transform_;
  LowTree low_tree_;
};

}  // namespace mvp::transform

#endif  // MVPTREE_TRANSFORM_FILTER_INDEX_H_
