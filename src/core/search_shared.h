#ifndef MVPTREE_CORE_SEARCH_SHARED_H_
#define MVPTREE_CORE_SEARCH_SHARED_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/query.h"

/// \file
/// Search primitives shared by every representation of an mvp-tree.
///
/// The heap tree (core/mvp_tree.h) and the flat mmap-native view
/// (snapshot/flat_tree.h) must return bit-identical results for the same
/// logical tree — the equivalence suite asserts it query by query. The
/// pruning and candidate-set arithmetic both traversals rely on therefore
/// lives here, once: an annulus/shell intersection test, the k-NN
/// shrinking-radius bookkeeping, and stats merging. Keeping these shared
/// makes "the two representations agree" a structural property instead of
/// a discipline.

namespace mvp::core {

/// Does the query annulus [d-r, d+r] intersect the shell [lo, hi]?
inline bool ShellIntersects(double d, double r, double lo, double hi) {
  return d - r <= hi && d + r >= lo;
}

/// Current k-NN pruning radius: the k-th best distance so far, or infinity
/// while the candidate heap is not yet full.
inline double KnnTau(const std::vector<Neighbor>& heap, std::size_t k) {
  return heap.size() < k ? std::numeric_limits<double>::infinity()
                         : heap.front().distance;
}

/// Ids a k-NN search must never return — the erased objects of a dynamic
/// layer. Non-owning: `excluded(context, id)` answers for an id in the
/// searched structure's own id space. A default-constructed value excludes
/// nothing, and a search passed it is exactly the unexcluded search.
///
/// The rule, the same in every representation: an excluded vantage point
/// is still evaluated (its distance drives pruning and PATH) but never
/// offered to the heap; an excluded leaf entry is never evaluated and
/// counts as seen and filtered. Leaf filters test the exclusion after the
/// annulus tests, which reject most entries more cheaply; the order
/// changes neither results nor SearchStats.
struct Exclusion {
  const void* context = nullptr;
  bool (*excluded)(const void*, std::size_t) = nullptr;

  /// Wraps a callable `bool(std::size_t)`, which must outlive the search.
  template <typename Fn>
  static Exclusion Of(const Fn& fn) {
    return Exclusion{&fn, [](const void* c, std::size_t id) -> bool {
                       return (*static_cast<const Fn*>(c))(id);
                     }};
  }

  bool operator()(std::size_t id) const {
    return excluded != nullptr && excluded(context, id);
  }
  explicit operator bool() const { return excluded != nullptr; }
};

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

/// Chunk width of the two-phase range-search leaf filter. 64 entries = one
/// pass/fail bit per position in a std::uint64_t mask, which is also what
/// metric::kernels::AnnulusMask produces per sweep.
inline constexpr std::size_t kLeafFilterChunk = 64;

/// The range-search leaf filter, shared by every representation.
///
/// Leaves are processed in kLeafFilterChunk-entry chunks, two phases per
/// chunk: `mask_of(base, n)` computes an n-bit pass mask using only the
/// precomputed D1/D2/PATH arrays (no metric calls — the flat SoA layout runs
/// this as branchless compare+mask sweeps), then the chunk's seen/filtered
/// counters are charged, then `eval(i)` runs the real metric on each
/// surviving entry in ascending order (each call is a cancellation point).
/// The heap tree and both flat arena versions all funnel through this one
/// structure, so the interleaving of counter updates and metric calls — and
/// therefore SearchStats at any mid-leaf budget cancellation — is identical
/// across representations by construction.
///
/// `mask_of` must leave bits >= n clear.
template <typename MaskFn, typename EvalFn>
void ChunkedRangeFilter(std::size_t count, MaskFn&& mask_of, EvalFn&& eval,
                        SearchStats& stats) {
  for (std::size_t base = 0; base < count; base += kLeafFilterChunk) {
    const std::size_t n = std::min(kLeafFilterChunk, count - base);
    std::uint64_t mask = mask_of(base, n);
    stats.leaf_points_seen += n;
    stats.leaf_points_filtered += n - static_cast<std::size_t>(
        std::popcount(mask));
    while (mask != 0) {
      const unsigned bit = static_cast<unsigned>(std::countr_zero(mask));
      mask &= mask - 1;
      eval(base + bit);
    }
  }
}

/// Precomputed root vantage-point distances for one query of a batch
/// (serve::RunBatch amortises a root's vp distances across co-arriving
/// queries with the many-queries-one-vantage-point kernel shape). A consumer
/// substitutes d1/d2 for its own root metric calls; the values are
/// bit-identical to what those calls would return, and the consumer still
/// charges SearchStats (and the cancellation budget) for each one, so primed
/// and unprimed searches are indistinguishable in results and stats.
struct RootPrime {
  double d1 = 0.0;
  double d2 = 0.0;
  bool has_d1 = false;
  bool has_d2 = false;
};

/// Charges one primed (already-evaluated) distance to the active
/// cancellation budget, if the metric participates in budget accounting.
template <typename Metric>
inline void ConsumePrimedDistance(const Metric& metric) {
  if constexpr (requires { metric.CountPrimed(); }) {
    metric.CountPrimed();
  }
}

/// Accumulates one search's counters into an aggregate.
inline void MergeSearchStats(SearchStats* out, const SearchStats& in) {
  out->distance_computations += in.distance_computations;
  out->nodes_visited += in.nodes_visited;
  out->leaf_points_seen += in.leaf_points_seen;
  out->leaf_points_filtered += in.leaf_points_filtered;
}

}  // namespace mvp::core

#endif  // MVPTREE_CORE_SEARCH_SHARED_H_
