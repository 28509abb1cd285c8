#ifndef MVPTREE_COMMON_QUERY_H_
#define MVPTREE_COMMON_QUERY_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

/// \file
/// Result and instrumentation types, the two result orders, and the best-k
/// candidate-heap helpers (nearest or farthest first),
/// shared by every index structure.

namespace mvp {

/// One query answer: the id a point was inserted with (its index in the
/// vector passed to Build) and its exact distance to the query object.
struct Neighbor {
  std::size_t id = 0;
  double distance = 0.0;

  friend bool operator==(const Neighbor&, const Neighbor&) = default;
};

/// Deterministic result order: by distance, ties by id.
inline bool NeighborLess(const Neighbor& a, const Neighbor& b) {
  if (a.distance != b.distance) return a.distance < b.distance;
  return a.id < b.id;
}

/// Farthest-first result order: by decreasing distance, ties by id.
inline bool NeighborFarther(const Neighbor& a, const Neighbor& b) {
  if (a.distance != b.distance) return a.distance > b.distance;
  return a.id < b.id;
}

/// Per-query instrumentation, filled by the search routines when a non-null
/// pointer is supplied. `distance_computations` is the paper's cost measure
/// and always equals the number of metric invocations the query performed.
struct SearchStats {
  std::uint64_t distance_computations = 0;
  std::uint64_t nodes_visited = 0;       ///< internal + leaf nodes entered
  std::uint64_t leaf_points_seen = 0;    ///< leaf points considered
  std::uint64_t leaf_points_filtered = 0;///< rejected by stored distances
                                         ///< without a distance computation
};

/// Accumulates one search's counters into an aggregate.
inline void MergeSearchStats(SearchStats* out, const SearchStats& in) {
  out->distance_computations += in.distance_computations;
  out->nodes_visited += in.nodes_visited;
  out->leaf_points_seen += in.leaf_points_seen;
  out->leaf_points_filtered += in.leaf_points_filtered;
}

/// The pruning radius of a best-k search whose candidates form a max-heap
/// under `Order` — NeighborLess keeps the k nearest, NeighborFarther the k
/// farthest — before it holds k of them: a distance no candidate fails,
/// +infinity nearest-first and 0 farthest-first.
template <auto Order>
inline constexpr double kOpenTau = std::numeric_limits<double>::infinity();
template <>
inline constexpr double kOpenTau<NeighborFarther> = 0.0;

/// Current pruning radius of that search: the k-th best distance so far, or
/// kOpenTau while the heap holds fewer than k.
template <auto Order = NeighborLess>
inline double KnnTau(const std::vector<Neighbor>& heap, std::size_t k) {
  return heap.size() < k ? kOpenTau<Order> : heap.front().distance;
}

/// Offers a candidate to the max-heap (under `Order`) of the best k.
template <auto Order = NeighborLess>
inline void KnnOffer(std::vector<Neighbor>& heap, std::size_t k, Neighbor n) {
  if (heap.size() < k) {
    heap.push_back(n);
    std::push_heap(heap.begin(), heap.end(), Order);
  } else if (Order(n, heap.front())) {
    std::pop_heap(heap.begin(), heap.end(), Order);
    heap.back() = n;
    std::push_heap(heap.begin(), heap.end(), Order);
  }
}

/// Structural statistics of a built tree.
struct TreeStats {
  std::size_t num_internal_nodes = 0;
  std::size_t num_leaf_nodes = 0;
  std::size_t num_vantage_points = 0;  ///< data points used as vantage points
  std::size_t num_leaf_points = 0;     ///< data points stored in leaves
  std::size_t height = 0;              ///< nodes on the longest root-leaf path
  std::uint64_t construction_distance_computations = 0;
};

}  // namespace mvp

#endif  // MVPTREE_COMMON_QUERY_H_
