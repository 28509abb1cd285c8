#ifndef MVPTREE_BASELINES_DISTANCE_MATRIX_H_
#define MVPTREE_BASELINES_DISTANCE_MATRIX_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/query.h"
#include "common/status.h"
#include "metric/metric.h"

/// \file
/// The pre-computed distance-table approach of [SW90] (Shasha & Wang),
/// reviewed by the paper in §3.2: "a table of size O(n^2) keeps the
/// distances between data objects ... pre-computed distances [are] used to
/// efficiently answer similarity search queries. The aim is to minimize the
/// number of distance computations as much as possible ... Search
/// algorithms of O(n) or even O(n log n) ... are acceptable if they
/// minimize the number [of] distance computations."
///
/// This implementation follows the AESA refinement of the idea: at query
/// time, repeatedly (1) pick the undecided object with the smallest current
/// lower bound, (2) compute its real distance, (3) use the stored row of
/// pairwise distances to tighten every other object's lower/upper interval
/// via the triangle inequality, deciding objects whose interval falls
/// entirely inside or outside the query ball without computing anything.
///
/// The paper's caveat is architectural and shows up immediately at scale:
/// "the space requirements and the search complexity become overwhelming
/// for larger domains" — O(n^2) doubles of storage and O(n) bookkeeping per
/// distance computation. Build rejects n above an explicit limit.

namespace mvp::baselines {

template <typename Object, metric::MetricFor<Object> Metric>
class DistanceMatrixIndex {
 public:
  struct Options {
    /// Hard cap on the indexed cardinality (the O(n^2) table is the whole
    /// point and the whole problem).
    std::size_t max_objects = 20000;
  };

  /// Builds the full pairwise table: exactly n*(n-1)/2 distance
  /// computations.
  static Result<DistanceMatrixIndex> Build(std::vector<Object> objects,
                                           Metric metric,
                                           const Options& options = Options{}) {
    if (objects.size() > options.max_objects) {
      return Status::InvalidArgument(
          "dataset exceeds the distance-matrix cardinality cap (the O(n^2) "
          "table is only viable for small domains, as the paper notes)");
    }
    DistanceMatrixIndex index(std::move(objects), std::move(metric));
    index.BuildTable();
    return index;
  }

  /// All objects within `radius` of `query`. Exact; typically needs far
  /// fewer distance computations than any tree (every computed distance
  /// updates ALL undecided objects' bounds).
  std::vector<Neighbor> RangeSearch(const Object& query, double radius,
                                    SearchStats* stats = nullptr) const {
    MVP_DCHECK(radius >= 0);
    const std::size_t n = objects_.size();
    std::vector<Neighbor> result;
    if (n == 0) return result;

    constexpr double kInf = std::numeric_limits<double>::infinity();
    std::vector<double> lower(n, 0.0), upper(n, kInf);
    std::vector<bool> decided(n, false);
    std::size_t remaining = n;
    std::uint64_t computed = 0;

    while (remaining > 0) {
      // Next pivot: undecided object with the smallest lower bound (the
      // AESA selection rule — most likely to be an answer and to tighten
      // its neighborhood).
      std::size_t pivot = n;
      double best = kInf;
      for (std::size_t i = 0; i < n; ++i) {
        if (!decided[i] && lower[i] < best) {
          best = lower[i];
          pivot = i;
        }
      }
      MVP_DCHECK(pivot < n);
      const double d = metric_(query, objects_[pivot]);
      ++computed;
      decided[pivot] = true;
      --remaining;
      if (d <= radius) result.push_back(Neighbor{pivot, d});

      for (std::size_t i = 0; i < n; ++i) {
        if (decided[i]) continue;
        const double pair = TableAt(pivot, i);
        lower[i] = std::max(lower[i], std::abs(d - pair));
        upper[i] = std::min(upper[i], d + pair);
        if (upper[i] <= radius) {
          // Provably an answer — but its exact distance must be reported,
          // and this library reports true distances, so compute it now
          // (re-checking the ball test to stay exact under floating-point
          // rounding of the upper bound).
          const double exact = metric_(query, objects_[i]);
          ++computed;
          decided[i] = true;
          --remaining;
          if (exact <= radius) result.push_back(Neighbor{i, exact});
        } else if (lower[i] > radius) {
          decided[i] = true;  // provably out, no computation ever
          --remaining;
        }
      }
    }
    std::sort(result.begin(), result.end(), NeighborLess);
    if (stats != nullptr) stats->distance_computations += computed;
    return result;
  }

  /// The k nearest objects, AESA-style: shrinking radius = current k-th
  /// best upper bound.
  std::vector<Neighbor> KnnSearch(const Object& query, std::size_t k,
                                  SearchStats* stats = nullptr) const {
    const std::size_t n = objects_.size();
    std::vector<Neighbor> heap;
    if (n == 0 || k == 0) return heap;

    constexpr double kInf = std::numeric_limits<double>::infinity();
    std::vector<double> lower(n, 0.0);
    std::vector<bool> decided(n, false);
    std::size_t remaining = n;
    std::uint64_t computed = 0;

    auto tau = [&]() {
      return heap.size() < k ? kInf : heap.front().distance;
    };
    while (remaining > 0) {
      std::size_t pivot = n;
      double best = kInf;
      for (std::size_t i = 0; i < n; ++i) {
        if (!decided[i] && lower[i] < best) {
          best = lower[i];
          pivot = i;
        }
      }
      if (pivot == n || best > tau()) break;  // nothing can improve
      const double d = metric_(query, objects_[pivot]);
      ++computed;
      decided[pivot] = true;
      --remaining;
      KnnOffer(heap, k, Neighbor{pivot, d});
      for (std::size_t i = 0; i < n; ++i) {
        if (decided[i]) continue;
        lower[i] = std::max(lower[i], std::abs(d - TableAt(pivot, i)));
        if (lower[i] > tau()) {
          decided[i] = true;
          --remaining;
        }
      }
    }
    std::sort_heap(heap.begin(), heap.end(), NeighborLess);
    if (stats != nullptr) stats->distance_computations += computed;
    return heap;
  }

  std::size_t size() const { return objects_.size(); }
  const Object& object(std::size_t id) const {
    MVP_DCHECK(id < objects_.size());
    return objects_[id];
  }

  /// O(n^2) table entries; constructions costs exactly n*(n-1)/2 distances.
  TreeStats Stats() const {
    TreeStats stats;
    stats.construction_distance_computations = construction_distances_;
    return stats;
  }

 private:
  DistanceMatrixIndex(std::vector<Object> objects, Metric metric)
      : objects_(std::move(objects)), metric_(std::move(metric)) {}

  void BuildTable() {
    const std::size_t n = objects_.size();
    table_.assign(n * n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        const double d = metric_(objects_[i], objects_[j]);
        ++construction_distances_;
        table_[i * n + j] = d;
        table_[j * n + i] = d;
      }
    }
  }

  double TableAt(std::size_t i, std::size_t j) const {
    return table_[i * objects_.size() + j];
  }

  std::vector<Object> objects_;
  Metric metric_;
  std::vector<double> table_;
  std::uint64_t construction_distances_ = 0;
};

}  // namespace mvp::baselines

#endif  // MVPTREE_BASELINES_DISTANCE_MATRIX_H_
