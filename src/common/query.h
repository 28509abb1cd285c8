#ifndef MVPTREE_COMMON_QUERY_H_
#define MVPTREE_COMMON_QUERY_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

/// \file
/// Result and instrumentation types, and the k-NN candidate-heap helpers,
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

/// Current k-NN pruning radius: the k-th best distance so far, or infinity
/// while the candidate heap is not yet full.
inline double KnnTau(const std::vector<Neighbor>& heap, std::size_t k) {
  return heap.size() < k ? std::numeric_limits<double>::infinity()
                         : heap.front().distance;
}

/// Offers a candidate to the max-heap (under NeighborLess) of the best k.
inline void KnnOffer(std::vector<Neighbor>& heap, std::size_t k, Neighbor n) {
  if (heap.size() < k) {
    heap.push_back(n);
    std::push_heap(heap.begin(), heap.end(), NeighborLess);
  } else if (NeighborLess(n, heap.front())) {
    std::pop_heap(heap.begin(), heap.end(), NeighborLess);
    heap.back() = n;
    std::push_heap(heap.begin(), heap.end(), NeighborLess);
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
