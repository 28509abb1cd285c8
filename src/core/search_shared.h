#ifndef MVPTREE_CORE_SEARCH_SHARED_H_
#define MVPTREE_CORE_SEARCH_SHARED_H_

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/query.h"

/// \file
/// The mvp-tree search of §4.3, written once for every representation.
///
/// The mvp-tree (core/mvp_tree.h) — built, deserialized or opened over a
/// flat arena (snapshot/flat_tree.h) — searches through one node accessor,
/// core::TreeNodes (core/tree_layout.h); GeneralizedMvpTree
/// (core/generalized_mvp_tree.h) keeps v vantage points per node instead of
/// two and supplies its own. The range and k-NN recursions below run on an
/// accessor. Everything that decides results and SearchStats lives here
/// once — the order of metric calls, the counters, root priming, the
/// exclusion rule, PATH bookkeeping, shell pruning, child ranking and leaf
/// filtering — and tests/search_counts_golden_test.cc pins the counts.
///
/// A node accessor is a cheap value with, for a node handle `NodeRef` (a
/// pointer; null means "no node"):
///
///   NodeRef Root() const;                  null for an empty tree
///   std::size_t Order() const;             m
///   std::size_t Levels() const;            v, vantage points per internal
///                                          node (a static constexpr 2 for
///                                          the mvp-trees, so their shell
///                                          loops keep a constant bound)
///   std::size_t PathDistances() const;     p
///   bool IsLeaf(NodeRef) const;
///   std::size_t VpCount(NodeRef) const;    Levels() for an internal node,
///                                          1..Levels() for a leaf
///   std::size_t Vp(NodeRef, std::size_t l) const;   id of vantage point l
///   ShellBounds Shells(NodeRef, std::size_t l) const;   internal nodes:
///                                          level l's m^(l+1) shells around
///                                          vantage point l
///   NodeRef Child(NodeRef, std::size_t c) const;   slot c < m^v, which
///                                          reads its level-l shell at
///                                          c / m^(v-1-l)
///   Leaf Leaf(NodeRef) const;              leaf nodes, a cursor (below)
///   const Metric& metric() const;          Object object(std::size_t) const;
///
/// For v = 2, level 0 is the m shells around the first vantage point and
/// level 1 the m per first-level partition around the second, slot
/// c = g*m + s: the paper's mvp-tree node.
///
/// A leaf cursor has size(), id(i), the per-entry annulus test
/// Passes(i, LeafQuery, r) used against k-NN's shrinking radius, and
/// optionally a 64-wide range-mode mask Mask(base, n, LeafQuery, r); a
/// cursor without one (GeneralizedMvpTree's) is masked entry by entry.

namespace mvp::core {

/// Most vantage points one node may keep: GeneralizedMvpTree's bound on v,
/// and the size of the traversal's per-node distance array.
inline constexpr std::size_t kMaxVantagePoints = 8;

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
/// The rule: an excluded vantage point is still evaluated (its distance
/// drives pruning and PATH) but never offered to the heap; an excluded leaf
/// entry is never evaluated and counts as seen and filtered. The leaf
/// filter tests the exclusion after the annulus tests, which reject most
/// entries more cheaply; the order changes neither results nor SearchStats.
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

/// Precomputed root vantage-point distances for one query of a batch
/// (serve::RunBatch amortises a root's vp distances across co-arriving
/// queries with the many-queries-one-vantage-point kernel shape). The
/// traversal substitutes d1/d2 for its own root metric calls; the values
/// are bit-identical to what those calls would return, and each one is
/// still charged to SearchStats and to the metric's cancellation budget,
/// so primed and unprimed searches are indistinguishable.
struct RootPrime {
  double d1 = 0.0;
  double d2 = 0.0;
  bool has_d1 = false;
  bool has_d2 = false;

  /// The primed distance to the root's vantage point l, or null.
  const double* At(std::size_t l) const {
    if (l == 0) return has_d1 ? &d1 : nullptr;
    return l == 1 && has_d2 ? &d2 : nullptr;
  }
};

/// Accumulates one search's counters into an aggregate.
inline void MergeSearchStats(SearchStats* out, const SearchStats& in) {
  out->distance_computations += in.distance_computations;
  out->nodes_visited += in.nodes_visited;
  out->leaf_points_seen += in.leaf_points_seen;
  out->leaf_points_filtered += in.leaf_points_filtered;
}

/// Step 3.1 of §4.3 while descending: appends a node's vantage-point
/// values, in level order, to a PATH while it holds fewer than p, and takes
/// them off again when the scope ends. Searches keep the query's distances
/// (qpath); validation keeps the ancestor vantage points themselves.
template <typename T>
class PathScope {
 public:
  PathScope(std::vector<T>& path, std::size_t p, std::span<const T> values)
      : path_(path), size_(path.size()) {
    for (std::size_t l = 0; l < values.size() && path.size() < p; ++l) {
      path.push_back(values[l]);
    }
  }
  ~PathScope() { path_.resize(size_); }
  PathScope(const PathScope&) = delete;
  PathScope& operator=(const PathScope&) = delete;

 private:
  std::vector<T>& path_;
  std::size_t size_;
};

/// One level of an internal node's shells, indexed by slot prefix.
struct ShellBounds {
  const double* lower;
  const double* upper;
};

/// What a leaf's annulus tests compare against: the query's distances to
/// the leaf's vantage points (d[l] for l < vps) and to its ancestors'
/// (qpath).
struct LeafQuery {
  const double* d;
  std::size_t vps;
  const std::vector<double>& qpath;

  /// Step 2 of §4.3 for one entry: it survives radius r iff its distance to
  /// each of the leaf's vantage points (stored(l)) and its first `checks`
  /// PATH distances (xpath[j * stride]) each lie within r of the query's
  /// distance to the same vantage point. A cursor storing a fixed number of
  /// distances per entry passes it as kColumns, a constant loop bound.
  template <std::size_t kColumns, typename Stored>
  bool Admits(const Stored& stored, const double* xpath, std::size_t stride,
              std::size_t checks, double r) const {
    for (std::size_t l = 0; l < kColumns && l < vps; ++l) {
      if (!(std::abs(d[l] - stored(l)) <= r)) return false;
    }
    for (std::size_t j = 0; j < checks; ++j) {
      if (std::abs(qpath[j] - xpath[j * stride]) > r) return false;
    }
    return true;
  }
};

/// Distance-evaluation policies of a Traversal. NoBudget compiles to
/// nothing. DistanceBudget throws Exhausted at the first metric evaluation
/// past `limit` (counted in the search's own SearchStats), unwinding the
/// search the way serve::CancelChecked does; the caller catches it and
/// keeps what the result vector holds.
struct NoBudget {
  void Charge(const SearchStats&) const {}
};
struct DistanceBudget {
  struct Exhausted {};
  std::uint64_t limit = 0;
  void Charge(const SearchStats& stats) const {
    if (stats.distance_computations >= limit) throw Exhausted{};
  }
};

/// One search over a node accessor: the §4.3 range recursion and the
/// shrinking-radius k-NN recursion. Counts into the caller's `stats` as it
/// goes, so a search cut short by an exception (cancellation, budget)
/// leaves both its results so far and exact stats at the cut.
template <typename Nodes, typename Query, typename Budget = NoBudget>
class Traversal {
 public:
  Traversal(Nodes nodes, const Query& query, SearchStats& stats,
            Budget budget = {})
      : nodes_(nodes), query_(query), stats_(stats), budget_(budget) {
    // A flat arena's p is an unchecked header field, so the reserve is
    // capped; qpath_ still grows to p when a deep search needs it.
    qpath_.reserve(std::min(nodes_.PathDistances(), kQpathReserve));
  }

  /// Appends every object within `radius` (closed ball) to `*out`,
  /// unsorted. `prime` optionally supplies the root's distances.
  void Range(double radius, std::vector<Neighbor>* out,
             const RootPrime* prime = nullptr) {
    if (const NodeRef root = nodes_.Root(); root != nullptr) {
      RangeNode(root, radius, *out, prime);
    }
  }

  /// Keeps the k nearest objects `exclude` does not name in `*heap`, a
  /// max-heap under NeighborLess (pass it empty). Children are visited in
  /// order of their distance lower bound over all vantage points. `bound`
  /// caps the pruning radius at a k-th distance already known elsewhere
  /// (another shard or level of the same answer): candidates strictly
  /// farther cannot make that answer, so they may be skipped, and ties
  /// survive. +infinity is the plain search.
  void Knn(std::size_t k, std::vector<Neighbor>* heap, Exclusion exclude = {},
           const RootPrime* prime = nullptr,
           double bound = std::numeric_limits<double>::infinity()) {
    bound_ = bound;
    if (const NodeRef root = nodes_.Root(); root != nullptr && k > 0) {
      KnnNode(root, k, *heap, exclude, prime);
    }
  }

 private:
  static constexpr std::size_t kQpathReserve = 64;
  using NodeRef = decltype(std::declval<const Nodes&>().Root());
  using Distances = std::array<double, kMaxVantagePoints>;
  static constexpr std::size_t kChunk = 64;  // one mask bit per entry

  struct Ranked {
    double bound;
    NodeRef child;
  };

  /// The single distance-evaluation point: every metric call (or primed
  /// value standing in for one) passes the budget and is counted here.
  double Distance(std::size_t id, const double* primed = nullptr) {
    budget_.Charge(stats_);
    double d;
    if (primed != nullptr) {
      if constexpr (requires { nodes_.metric().CountPrimed(); }) {
        nodes_.metric().CountPrimed();
      }
      d = *primed;
    } else {
      d = nodes_.metric()(query_, nodes_.object(id));
    }
    ++stats_.distance_computations;
    return d;
  }

  /// Step 1 of §4.3: enters `node` and evaluates its vantage points into
  /// d in level order, handing each to `take(id, d)` before the next is
  /// evaluated. Returns how many the node has.
  template <typename Take>
  std::size_t VantagePoints(NodeRef node, const RootPrime* prime,
                            Distances& d, Take&& take) {
    ++stats_.nodes_visited;
    const std::size_t vps = nodes_.VpCount(node);
    MVP_DCHECK(vps <= kMaxVantagePoints);
    for (std::size_t l = 0; l < vps; ++l) {
      const std::size_t id = nodes_.Vp(node, l);
      d[l] = Distance(id, prime != nullptr ? prime->At(l) : nullptr);
      take(id, d[l]);
    }
    return vps;
  }

  void RangeNode(NodeRef node, double radius, std::vector<Neighbor>& out,
                 const RootPrime* prime) {
    Distances d;
    const std::size_t vps =
        VantagePoints(node, prime, d, [&](std::size_t id, double dist) {
          if (dist <= radius) out.push_back(Neighbor{id, dist});
        });
    if (nodes_.IsLeaf(node)) {
      RangeLeaf(nodes_.Leaf(node), LeafQuery{d.data(), vps, qpath_}, radius,
                out);
      return;
    }
    PathScope<double> path(qpath_, nodes_.PathDistances(), {d.data(), vps});
    RangeShells(node, d, radius, 0, 0, out);
  }

  /// Steps 3.2/3.3 generalized: descends shell level l below slot prefix
  /// `prefix` in slot order, and enters a child iff the query annulus
  /// around every vantage point intersects the child's shell on its level.
  void RangeShells(NodeRef node, const Distances& d, double radius,
                   std::size_t l, std::size_t prefix,
                   std::vector<Neighbor>& out) {
    if (l == nodes_.Levels()) {
      if (const NodeRef child = nodes_.Child(node, prefix); child != nullptr) {
        RangeNode(child, radius, out, nullptr);
      }
      return;
    }
    const std::size_t m = nodes_.Order();
    const ShellBounds b = nodes_.Shells(node, l);
    for (std::size_t s = 0; s < m; ++s) {
      const std::size_t idx = prefix * m + s;
      if (ShellIntersects(d[l], radius, b.lower[idx], b.upper[idx])) {
        RangeShells(node, d, radius, l + 1, idx, out);
      }
    }
  }

  /// Range-mode leaf filter. The radius is fixed, so each 64-entry chunk
  /// gets its pass mask from the stored distances alone, is charged to the
  /// seen/filtered counters, and only then evaluates its survivors in
  /// ascending order — so stats at a mid-leaf cut are chunk-exact.
  template <typename Leaf>
  void RangeLeaf(const Leaf& leaf, const LeafQuery& q, double radius,
                 std::vector<Neighbor>& out) {
    for (std::size_t base = 0; base < leaf.size(); base += kChunk) {
      const std::size_t n = std::min(kChunk, leaf.size() - base);
      std::uint64_t mask = 0;
      if constexpr (requires { leaf.Mask(base, n, q, radius); }) {
        mask = leaf.Mask(base, n, q, radius);
      } else {
        for (std::size_t i = 0; i < n; ++i) {
          if (leaf.Passes(base + i, q, radius)) mask |= std::uint64_t{1} << i;
        }
      }
      stats_.leaf_points_seen += n;
      stats_.leaf_points_filtered +=
          n - static_cast<std::size_t>(std::popcount(mask));
      while (mask != 0) {
        const std::size_t id = leaf.id(base + std::countr_zero(mask));
        mask &= mask - 1;
        const double d = Distance(id);
        if (d <= radius) out.push_back(Neighbor{id, d});
      }
    }
  }

  /// k-NN's pruning radius: the heap's k-th best, capped by bound_.
  double Tau(const std::vector<Neighbor>& heap, std::size_t k) const {
    return std::min(KnnTau(heap, k), bound_);
  }

  void KnnNode(NodeRef node, std::size_t k, std::vector<Neighbor>& heap,
               Exclusion exclude, const RootPrime* prime) {
    Distances d;
    const std::size_t vps =
        VantagePoints(node, prime, d, [&](std::size_t id, double dist) {
          if (!exclude(id)) KnnOffer(heap, k, Neighbor{id, dist});
        });
    if (nodes_.IsLeaf(node)) {
      // tau shrinks with every offer, so the filter stays per-entry: a
      // chunk-wide mask would use a stale radius.
      const auto leaf = nodes_.Leaf(node);
      const LeafQuery q{d.data(), vps, qpath_};
      for (std::size_t i = 0; i < leaf.size(); ++i) {
        ++stats_.leaf_points_seen;
        if (!leaf.Passes(i, q, Tau(heap, k)) || exclude(leaf.id(i))) {
          ++stats_.leaf_points_filtered;
          continue;
        }
        const std::size_t id = leaf.id(i);
        KnnOffer(heap, k, Neighbor{id, Distance(id)});
      }
      return;
    }
    // Children in increasing order of their lower bound; stop as soon as
    // the bound exceeds the current k-th best.
    PathScope<double> path(qpath_, nodes_.PathDistances(), {d.data(), vps});
    std::size_t fanout = 1;
    for (std::size_t l = 0; l < nodes_.Levels(); ++l) fanout *= nodes_.Order();
    std::vector<Ranked> ranked;
    ranked.reserve(fanout);
    RankShells(node, d, 0, 0, 0.0, ranked);
    std::sort(ranked.begin(), ranked.end(),
              [](const Ranked& a, const Ranked& b) { return a.bound < b.bound; });
    for (const Ranked& r : ranked) {
      if (r.bound > Tau(heap, k)) break;
      KnnNode(r.child, k, heap, exclude, nullptr);
    }
  }

  /// Appends the children below slot prefix `prefix` of shell level l in
  /// slot order, each with its distance lower bound: the largest, over its
  /// levels, of the query's distance from that level's shell.
  void RankShells(NodeRef node, const Distances& d, std::size_t l,
                  std::size_t prefix, double bound,
                  std::vector<Ranked>& ranked) {
    if (l == nodes_.Levels()) {
      if (const NodeRef child = nodes_.Child(node, prefix); child != nullptr) {
        ranked.push_back(Ranked{bound, child});
      }
      return;
    }
    const std::size_t m = nodes_.Order();
    const ShellBounds b = nodes_.Shells(node, l);
    for (std::size_t s = 0; s < m; ++s) {
      const std::size_t idx = prefix * m + s;
      RankShells(node, d, l + 1, idx,
                 std::max({bound, b.lower[idx] - d[l], d[l] - b.upper[idx]}),
                 ranked);
    }
  }

  Nodes nodes_;
  const Query& query_;
  SearchStats& stats_;
  [[no_unique_address]] Budget budget_;
  double bound_ = std::numeric_limits<double>::infinity();
  std::vector<double> qpath_;
};

}  // namespace mvp::core

#endif  // MVPTREE_CORE_SEARCH_SHARED_H_
