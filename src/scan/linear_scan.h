#ifndef MVPTREE_SCAN_LINEAR_SCAN_H_
#define MVPTREE_SCAN_LINEAR_SCAN_H_

#include <algorithm>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/query.h"
#include "metric/metric.h"

/// \file
/// Brute-force similarity search: exactly n distance computations per query.
/// Serves as (a) the ground truth every index is tested against, and (b) the
/// baseline the paper's worst-case discussion compares to ("even in the
/// worst case, the number of distance computations made by the search
/// algorithm is far less than N, making it a significant improvement over
/// linear search", §4.3).

namespace mvp::scan {

template <typename Object, metric::MetricFor<Object> Metric>
class LinearScan {
 public:
  /// Takes ownership of the objects; ids are positions in `objects`.
  LinearScan(std::vector<Object> objects, Metric metric)
      : objects_(std::move(objects)), metric_(std::move(metric)) {}

  /// All objects within `radius` of `query` (closed ball, as in the paper's
  /// near-neighbor query definition: d(Xi, Y) <= r). Sorted by distance.
  std::vector<Neighbor> RangeSearch(const Object& query, double radius,
                                    SearchStats* stats = nullptr) const {
    MVP_DCHECK(radius >= 0);
    std::vector<Neighbor> result;
    for (std::size_t id = 0; id < objects_.size(); ++id) {
      const double d = metric_(query, objects_[id]);
      if (d <= radius) result.push_back(Neighbor{id, d});
    }
    std::sort(result.begin(), result.end(), NeighborLess);
    if (stats != nullptr) {
      stats->distance_computations += objects_.size();
    }
    return result;
  }

  /// The k closest objects (all of them if k >= size). Sorted by distance,
  /// ties broken by id.
  std::vector<Neighbor> KnnSearch(const Object& query, std::size_t k,
                                  SearchStats* stats = nullptr) const {
    std::vector<Neighbor> all(objects_.size());
    for (std::size_t id = 0; id < objects_.size(); ++id) {
      all[id] = Neighbor{id, metric_(query, objects_[id])};
    }
    if (stats != nullptr) {
      stats->distance_computations += objects_.size();
    }
    if (k < all.size()) {
      std::nth_element(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(k),
                       all.end(), NeighborLess);
      all.resize(k);
    }
    std::sort(all.begin(), all.end(), NeighborLess);
    return all;
  }

  /// The k objects farthest from `query` (the paper's "farthest, or the k
  /// farthest objects" query form, §2). Sorted by decreasing distance.
  std::vector<Neighbor> FarthestSearch(const Object& query, std::size_t k,
                                       SearchStats* stats = nullptr) const {
    std::vector<Neighbor> all(objects_.size());
    for (std::size_t id = 0; id < objects_.size(); ++id) {
      all[id] = Neighbor{id, metric_(query, objects_[id])};
    }
    if (stats != nullptr) {
      stats->distance_computations += objects_.size();
    }
    if (k < all.size()) {
      std::nth_element(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(k),
                       all.end(), NeighborFarther);
      all.resize(k);
    }
    std::sort(all.begin(), all.end(), NeighborFarther);
    return all;
  }

  std::size_t size() const { return objects_.size(); }
  const Object& object(std::size_t id) const {
    MVP_DCHECK(id < objects_.size());
    return objects_[id];
  }

  /// A scan has no index structure; all-zero stats keep it usable wherever
  /// the harness expects an index (e.g. as the baseline row of a sweep).
  TreeStats Stats() const { return TreeStats{}; }

 private:
  std::vector<Object> objects_;
  Metric metric_;
};

}  // namespace mvp::scan

#endif  // MVPTREE_SCAN_LINEAR_SCAN_H_
