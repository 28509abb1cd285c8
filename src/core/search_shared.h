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
#include <type_traits>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/query.h"
#include "metric/kernels/kernels.h"
#include "metric/lp.h"

/// \file
/// The mvp-tree search of §4.3, written once for every representation.
///
/// The mvp-tree (core/mvp_tree.h) — built, deserialized or opened over a
/// flat arena (snapshot/flat_tree.h) — searches through one node accessor,
/// core::TreeNodes (core/tree_layout.h). The other two trees of the
/// comparison share one node store, core::NodeTree (core/node_tree.h), and
/// its accessor: GeneralizedMvpTree (core/generalized_mvp_tree.h) keeps v
/// vantage points per node instead of two, and the vp-tree
/// (vptree/vp_tree.h) one per internal node and none in its bucket leaves.
/// The range and best-k recursions below run on an accessor. Everything
/// that decides results and SearchStats lives here once — the order of
/// metric calls, the counters, gathered evaluation, the exclusion rule, PATH
/// bookkeeping, shell pruning, child ranking and leaf filtering — and
/// tests/search_counts_golden_test.cc pins the counts. Every tree's Stats()
/// walks the same accessor too (CollectStats).
///
/// Query forms. Range is §4.3's fixed-radius recursion. Knn is the
/// shrinking-radius branch-and-bound, compiled in one of two directions:
/// Nearest gives the k nearest, and Farthest the k farthest of §2 and,
/// with no k limit and tau floored at r, its "farther than a given range"
/// (MvpTree::FarthestSearch, MvpTree::FarthestRangeSearch). The directions
/// are the two triangle-inequality bounds on the same stored distances:
/// Nearest ranks children and filters leaf entries on |d(q,v) - d(x,v)|,
/// Farthest on d(q,v) + d(x,v).
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
///                                          0..Levels() for a leaf (0: the
///                                          vp-tree's buckets, whose entries
///                                          all pass the annulus tests)
///   std::size_t Vp(NodeRef, std::size_t l) const;   id of vantage point l
///   std::size_t VpRow(NodeRef, std::size_t l) const;   its row
///   ShellBounds Shells(NodeRef, std::size_t l) const;   internal nodes:
///                                          level l's m^(l+1) shells around
///                                          vantage point l
///   NodeRef Child(NodeRef, std::size_t c) const;   slot c < m^v, which
///                                          reads its level-l shell at
///                                          c / m^(v-1-l)
///   Leaf Leaf(NodeRef) const;              leaf nodes, a cursor (below)
///   const Metric& metric() const;          Object At(std::size_t row) const;
///   void Prefetch(NodeRef) const;          optional: requests the cache
///                                          lines k-NN reads on entering the
///                                          node (core::TreeNodes' requests a
///                                          leaf's id, D1, D2 and PATH runs)
///
/// For v = 2, level 0 is the m shells around the first vantage point and
/// level 1 the m per first-level partition around the second, slot
/// c = g*m + s: the paper's mvp-tree node.
///
/// Rows. The traversal evaluates every object at its row, At(VpRow(node,
/// l)) or At(leaf.row(i)), and reads an id (Vp, leaf.id) only to offer,
/// exclude or report it. core::TreeNodes' rows are the mvp-tree's row order
/// (core/tree_layout.h: a leaf's entries are one block of rows, and a
/// node's vantage points sit at the row it records), so the search makes no
/// id -> row lookup; core::NodeTree's row is the id.
///
/// A leaf cursor has size(), id(i), row(i), the per-entry annulus test
/// Passes(i, LeafQuery, r) used against k-NN's shrinking radius, for the
/// Farthest direction the upper-bound test Reaches(i, LeafQuery, tau)
/// (core::SoaLeaf's), and optionally a 64-wide range-mode mask
/// Mask(base, n, LeafQuery, r) over all of the leaf's columns at once
/// (core::SoaLeaf's, one fused metric::kernels::AnnulusMask call); a
/// cursor without one (core::NodeTree's) is masked entry by entry. The
/// tests read the leaf's stored distances: core::NodeTree's in double,
/// tested exactly, and the mvp-tree's as floats, tested at LeafRadius and
/// LeafUpper (metric::kernels::ColumnRadius and ColumnUpper), which keep
/// every entry the double tests keep.
///
/// Gathered evaluation. A range search's radius is fixed, so it knows which
/// distances it will need before it needs them: the vantage points of every
/// child an internal node enters, and then the mask survivors of every
/// leaf among those children. When the accessor hands out rows
/// (metric::VectorView, the mvp-tree's) of the query's dimension and the
/// metric unwraps to a batch-kernel family
/// (metric::kernels::UnwrappedFamilyFor), each of the two sets is evaluated
/// in one lane-parallel metric::kernels::OneToRows call, bit-identical to
/// the per-call metric, so a range search waits on memory about twice per
/// node rather than once per leaf chunk. The values are then consumed one
/// by one through the primed path of Distance() — a child's through
/// RootPrime — at exactly the points the per-call path evaluates them. So
/// results, SearchStats, a DistanceBudget cut and the metric's own counting
/// and cancellation are the same either way: a complete search consumes
/// everything it computed, and a search cut short may have computed, but
/// never charged, for each node on the path from the root to the cut, its
/// entered children's vantage points and its entered leaf children's
/// survivors. Other metrics, other accessors and a query of another length
/// than the rows evaluate per call.
///
/// k-NN evaluates per call too, since tau moves with every offer, but it
/// requests what it is about to read before it reads it. Once a node's
/// children are ranked, it requests the vantage-point rows of every child
/// whose bound does not lose to the current tau, and the accessor's
/// Prefetch of each. On entering a leaf it takes each chunk's mask once, at
/// the entry tau, and requests every survivor's row as it finds it. tau
/// only tightens — Nearest's only falls and Farthest's only rises — so a
/// mask at the entry tau keeps a superset of the entries that pass later:
/// the walk treats a clear bit as filtered, re-tests a set one once tau has
/// moved, and charges every entry, in order, where the per-entry filter
/// would. Row requests (metric::kernels::PrefetchBytes) apply wherever the
/// accessor hands out metric::VectorView rows. None of this changes a
/// result, a count or a budget cut; tests/testdata/search_counts/
/// knn_order.txt pins the order of k-NN's metric calls one by one.

namespace mvp::core {

/// Most vantage points one node may keep: GeneralizedMvpTree's bound on v,
/// and the size of the traversal's per-node distance array.
inline constexpr std::size_t kMaxVantagePoints = 8;

/// Does the query annulus [d-r, d+r] intersect the shell [lo, hi]?
inline bool ShellIntersects(double d, double r, double lo, double hi) {
  return d - r <= hi && d + r >= lo;
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

/// Precomputed vantage-point distances of a node a gathering range search
/// enters: the root's, or a child's evaluated with its siblings' in one
/// kernel call. The traversal substitutes d1/d2 for its own metric calls;
/// the values are bit-identical to what those calls would return, and each
/// one is still charged to SearchStats and to the metric's cancellation
/// budget (CountPrimed), so gathered and per-call searches are
/// indistinguishable.
struct RootPrime {
  double d1 = 0.0;
  double d2 = 0.0;
  bool has_d1 = false;
  bool has_d2 = false;

  /// The precomputed distance to the node's vantage point l, or null.
  const double* At(std::size_t l) const {
    if (l == 0) return has_d1 ? &d1 : nullptr;
    return l == 1 && has_d2 ? &d2 : nullptr;
  }
};

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

/// The radius a leaf test of stored distances of type T takes for radius r
/// around the query's distance c: r itself for a double column, which holds
/// the distance as computed, and metric::kernels::ColumnRadius(c, r) for a
/// float column, which holds its narrowing and must keep every entry the
/// double test keeps.
template <typename T>
double LeafRadius(double c, double r) {
  if constexpr (std::is_same_v<T, float>) {
    return metric::kernels::ColumnRadius(c, r);
  } else {
    return r;
  }
}

/// The largest distance a stored value may stand for: itself in a double
/// column, metric::kernels::ColumnUpper of it in a float one.
inline double LeafUpper(double stored) { return stored; }
inline double LeafUpper(float stored) {
  return metric::kernels::ColumnUpper(stored);
}

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
  /// distance to the same vantage point — within LeafRadius for the stored
  /// type T, for float columns a little more. A cursor storing a fixed
  /// number of distances per entry passes it as kColumns, a constant loop
  /// bound.
  template <std::size_t kColumns, typename Stored, typename T>
  bool Admits(const Stored& stored, const T* xpath, std::size_t stride,
              std::size_t checks, double r) const {
    for (std::size_t l = 0; l < kColumns && l < vps; ++l) {
      const double x = stored(l);
      if (!(std::abs(d[l] - x) <= LeafRadius<T>(d[l], r))) return false;
    }
    for (std::size_t j = 0; j < checks; ++j) {
      const double x = xpath[j * stride];
      if (std::abs(qpath[j] - x) > LeafRadius<T>(qpath[j], r)) return false;
    }
    return true;
  }

  /// The farthest-first test for one entry, from the same stored distances:
  /// it may lie at tau or farther only if the query's distance to each of
  /// those vantage points plus the entry's own (LeafUpper of what is
  /// stored) reaches tau, since d(q,x) <= d(q,v) + d(x,v).
  template <std::size_t kColumns, typename Stored, typename T>
  bool Reaches(const Stored& stored, const T* xpath, std::size_t stride,
               std::size_t checks, double tau) const {
    for (std::size_t l = 0; l < kColumns && l < vps; ++l) {
      if (d[l] + LeafUpper(stored(l)) < tau) return false;
    }
    for (std::size_t j = 0; j < checks; ++j) {
      if (qpath[j] + LeafUpper(xpath[j * stride]) < tau) return false;
    }
    return true;
  }
};

/// The two directions of Traversal::Knn: the two bounds of one pivot
/// filtering lemma, |d(q,v) - d(x,v)| <= d(q,x) <= d(q,v) + d(x,v) for any
/// vantage point v. Nearest keeps the k nearest under NeighborLess and
/// prunes on the lower bound; Farthest keeps the k farthest under
/// NeighborFarther and prunes on the upper one. Before(a, b): distance a
/// ranks strictly ahead of b. A child's bound starts at kLoose and Fold
/// takes in one shell level [lo, hi] at the query's distance d to that
/// level's vantage point. MayBeat: leaf entry i is not ruled out by tau.
struct Nearest {
  static constexpr auto kOrder = NeighborLess;
  static constexpr double kLoose = 0.0;
  static bool Before(double a, double b) { return a < b; }
  static double Fold(double bound, double d, double lo, double hi) {
    return std::max({bound, lo - d, d - hi});
  }
  template <typename Leaf>
  static bool MayBeat(const Leaf& leaf, std::size_t i, const LeafQuery& q,
                      double tau) {
    return leaf.Passes(i, q, tau);
  }
};
struct Farthest {
  static constexpr auto kOrder = NeighborFarther;
  static constexpr double kLoose = std::numeric_limits<double>::infinity();
  static bool Before(double a, double b) { return a > b; }
  static double Fold(double bound, double d, double /*lo*/, double hi) {
    return std::min(bound, d + hi);
  }
  template <typename Leaf>
  static bool MayBeat(const Leaf& leaf, std::size_t i, const LeafQuery& q,
                      double tau) {
    return leaf.Reaches(i, q, tau);
  }
};

/// Child slots per internal node: m^Levels().
template <typename Nodes>
std::size_t Fanout(const Nodes& nodes) {
  std::size_t fanout = 1;
  for (std::size_t l = 0; l < nodes.Levels(); ++l) fanout *= nodes.Order();
  return fanout;
}

template <typename Nodes, typename NodeRef>
void CollectStats(const Nodes& nodes, NodeRef node, std::size_t depth,
                  TreeStats& stats) {
  stats.height = std::max(stats.height, depth);
  stats.num_vantage_points += nodes.VpCount(node);
  if (nodes.IsLeaf(node)) {
    ++stats.num_leaf_nodes;
    stats.num_leaf_points += nodes.Leaf(node).size();
    return;
  }
  ++stats.num_internal_nodes;
  const std::size_t slots = Fanout(nodes);
  for (std::size_t c = 0; c < slots; ++c) {
    if (const NodeRef child = nodes.Child(node, c); child != nullptr) {
      CollectStats(nodes, child, depth + 1, stats);
    }
  }
}

/// The structural statistics of the tree behind a node accessor, all but
/// the construction cost: node, vantage-point and leaf-entry counts, and
/// the height in nodes.
template <typename Nodes>
TreeStats CollectStats(const Nodes& nodes) {
  TreeStats stats;
  if (const auto root = nodes.Root(); root != nullptr) {
    CollectStats(nodes, root, 1, stats);
  }
  return stats;
}

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
  /// unsorted.
  void Range(double radius, std::vector<Neighbor>* out) {
    const NodeRef root = nodes_.Root();
    if (root == nullptr) return;
    if constexpr (kGathers) {
      gather_ = query_.size() == nodes_.At(nodes_.VpRow(root, 0)).size();
    }
    // The root is swept like a node's only entered child.
    entered_.assign(1, root);
    primes_.assign(1, RootPrime{});
    if (gather_) PrimeVantagePoints(&root, 1, primes_.data());
    RangeChildren(0, 1, radius, *out);
  }

  /// Keeps the k best objects `exclude` does not name in `*heap`, a
  /// max-heap under Dir::kOrder (pass it empty): the k nearest, or with
  /// Farthest the k farthest. Children are visited best bound first, each
  /// bound taken over all vantage points. `bound` tightens tau to a k-th
  /// distance already known elsewhere (another shard or level of the same
  /// answer): candidates strictly behind it cannot make that answer, so
  /// they may be skipped, and ties survive. Nearest caps tau with it,
  /// Farthest floors tau with it; kOpenTau, the default, is the plain
  /// search.
  template <typename Dir = Nearest>
  void Knn(std::size_t k, std::vector<Neighbor>* heap, Exclusion exclude = {},
           double bound = kOpenTau<Dir::kOrder>) {
    bound_ = bound;
    if (const NodeRef root = nodes_.Root(); root != nullptr && k > 0) {
      KnnNode<Dir>(root, k, *heap, exclude);
    }
  }

 private:
  static constexpr std::size_t kQpathReserve = 64;
  using NodeRef = decltype(std::declval<const Nodes&>().Root());
  using Distances = std::array<double, kMaxVantagePoints>;
  static constexpr std::size_t kChunk = 64;  // one mask bit per entry
  using Family = metric::kernels::UnwrappedFamilyFor<
      std::remove_cvref_t<decltype(std::declval<const Nodes&>().metric())>>;
  /// Whether the accessor hands out rows, which k-NN requests ahead.
  static constexpr bool kRows =
      std::is_same_v<std::remove_cvref_t<decltype(std::declval<const Nodes&>()
                                                      .At(0))>,
                     metric::VectorView>;
  /// Whether range searches may gather (see the file comment); Range then
  /// checks the query's length against the rows'.
  static constexpr bool kGathers =
      kRows && Family::available && metric::internal::DenseDoubleRange<Query>;
  /// Whether the accessor requests a node's own cache lines (Prefetch).
  static constexpr bool kPrefetchesNodes =
      requires(const Nodes& nodes, NodeRef node) { nodes.Prefetch(node); };

  struct Ranked {
    double bound;
    NodeRef child;
  };

  /// The single distance-evaluation point: every metric call (or primed
  /// value standing in for one) passes the budget and is counted here.
  double Distance(std::size_t row, const double* primed = nullptr) {
    budget_.Charge(stats_);
    double d;
    if (primed != nullptr) {
      if constexpr (requires { nodes_.metric().CountPrimed(); }) {
        nodes_.metric().CountPrimed();
      }
      d = *primed;
    } else {
      d = nodes_.metric()(query_, nodes_.At(row));
    }
    ++stats_.distance_computations;
    return d;
  }

  /// Step 1 of §4.3: enters `node` and evaluates its vantage points into
  /// d in level order, handing each to `take(id, d)` before the next is
  /// evaluated; a distance `known` holds is taken from it. Returns how many
  /// the node has.
  template <typename Take>
  std::size_t VantagePoints(NodeRef node, const RootPrime& known,
                            Distances& d, Take&& take) {
    ++stats_.nodes_visited;
    const std::size_t vps = nodes_.VpCount(node);
    MVP_DCHECK(vps <= kMaxVantagePoints);
    for (std::size_t l = 0; l < vps; ++l) {
      d[l] = Distance(nodes_.VpRow(node, l), known.At(l));
      take(nodes_.Vp(node, l), d[l]);
    }
    return vps;
  }

  /// Enters the nodes at entered_[begin, end) — one node's entered
  /// children in slot order, or the root — as one sweep. When the search
  /// gathers, the chunk masks of every leaf among them come first, from the
  /// stored distances and the primed vantage-point distances, and all their
  /// survivors' rows are evaluated in one kernel call. Then the nodes are
  /// walked in order and charged where the per-call search charges them:
  /// nodes_visited and the vantage points on entry; a leaf chunk by chunk,
  /// its seen/filtered counts and then its survivors in ascending order, so
  /// stats at a mid-leaf cut are chunk-exact; an internal node's subtree by
  /// recursion. Without gathering a leaf's vantage-point distances are
  /// unknown until charged, so its masks are computed once it is entered.
  /// When gathering, primes_[begin, end) hold the nodes' vantage-point
  /// distances.
  void RangeChildren(std::size_t begin, std::size_t end, double radius,
                     std::vector<Neighbor>& out) {
    // masks_ and values_ are stacks like entered_: this sweep's entries sit
    // above their sizes on entry while deeper sweeps push and pop.
    const std::size_t mask_base = masks_.size();
    const std::size_t value_base = values_.size();
    if (gather_) {
      for (std::size_t i = begin; i < end; ++i) {
        if (!nodes_.IsLeaf(entered_[i])) continue;
        Distances d{};
        const std::size_t vps = nodes_.VpCount(entered_[i]);
        for (std::size_t l = 0; l < vps; ++l) d[l] = *primes_[i].At(l);
        AppendMasks(nodes_.Leaf(entered_[i]), LeafQuery{d.data(), vps, qpath_},
                    radius);
      }
      rows_.clear();
      std::size_t next = mask_base;
      for (std::size_t i = begin; i < end; ++i) {
        if (!nodes_.IsLeaf(entered_[i])) continue;
        const auto leaf = nodes_.Leaf(entered_[i]);
        for (std::size_t base = 0; base < leaf.size(); base += kChunk) {
          for (std::uint64_t m = masks_[next++]; m != 0; m &= m - 1) {
            GatherRow(leaf.row(base + std::countr_zero(m)));
          }
        }
      }
      values_.resize(value_base + rows_.size());
      EvaluateRows(values_.data() + value_base);
    }
    std::size_t next_mask = mask_base;
    std::size_t next_value = value_base;
    for (std::size_t i = begin; i < end; ++i) {
      const NodeRef node = entered_[i];
      // A copy, because deeper calls may grow primes_.
      const RootPrime prime = gather_ ? primes_[i] : RootPrime{};
      Distances d;
      const std::size_t vps =
          VantagePoints(node, prime, d, [&](std::size_t id, double dist) {
            if (dist <= radius) out.push_back(Neighbor{id, dist});
          });
      if (!nodes_.IsLeaf(node)) {
        PathScope<double> path(qpath_, nodes_.PathDistances(), {d.data(), vps});
        // entered_ is a stack shared down the recursion: this node's
        // children sit at [child_begin, child_end) while deeper calls push
        // and pop above them.
        const std::size_t child_begin = entered_.size();
        EnterShells(node, d, radius, 0, 0);
        const std::size_t child_end = entered_.size();
        if (gather_) {
          primes_.resize(child_end);
          PrimeVantagePoints(entered_.data() + child_begin,
                             child_end - child_begin,
                             primes_.data() + child_begin);
        }
        RangeChildren(child_begin, child_end, radius, out);
        entered_.resize(child_begin);
        continue;
      }
      const auto leaf = nodes_.Leaf(node);
      if (!gather_) {
        next_mask = masks_.size();
        AppendMasks(leaf, LeafQuery{d.data(), vps, qpath_}, radius);
      }
      for (std::size_t base = 0; base < leaf.size(); base += kChunk) {
        const std::size_t n = std::min(kChunk, leaf.size() - base);
        std::uint64_t mask = masks_[next_mask++];
        stats_.leaf_points_seen += n;
        stats_.leaf_points_filtered +=
            n - static_cast<std::size_t>(std::popcount(mask));
        for (; mask != 0; mask &= mask - 1) {
          const std::size_t i = base + std::countr_zero(mask);
          const double dist =
              Distance(leaf.row(i), gather_ ? &values_[next_value++] : nullptr);
          if (dist <= radius) out.push_back(Neighbor{leaf.id(i), dist});
        }
      }
    }
    masks_.resize(mask_base);
    values_.resize(value_base);
  }

  /// Step 2 of §4.3 in range mode: appends to masks_ the pass mask of each
  /// of `leaf`'s 64-entry chunks under the fixed radius, from the stored
  /// distances alone.
  template <typename Leaf>
  void AppendMasks(const Leaf& leaf, const LeafQuery& q, double radius) {
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
      masks_.push_back(mask);
    }
  }

  /// Steps 3.2/3.3 generalized: descends shell level l below slot prefix
  /// `prefix` in slot order, and pushes a child onto entered_ iff the query
  /// annulus around every vantage point intersects the child's shell on its
  /// level.
  void EnterShells(NodeRef node, const Distances& d, double radius,
                   std::size_t l, std::size_t prefix) {
    if (l == nodes_.Levels()) {
      if (const NodeRef child = nodes_.Child(node, prefix); child != nullptr) {
        entered_.push_back(child);
      }
      return;
    }
    const std::size_t m = nodes_.Order();
    const ShellBounds b = nodes_.Shells(node, l);
    for (std::size_t s = 0; s < m; ++s) {
      const std::size_t idx = prefix * m + s;
      if (ShellIntersects(d[l], radius, b.lower[idx], b.upper[idx])) {
        EnterShells(node, d, radius, l + 1, idx);
      }
    }
  }

  /// Gathered evaluation (gather_ only): the vantage points of `count`
  /// nodes, in order, in one kernel call, into one RootPrime per node.
  void PrimeVantagePoints(const NodeRef* nodes, std::size_t count,
                          RootPrime* primes) {
    rows_.clear();
    for (std::size_t i = 0; i < count; ++i) {
      MVP_DCHECK(nodes_.VpCount(nodes[i]) <= 2);  // RootPrime's d1, d2
      for (std::size_t l = 0; l < nodes_.VpCount(nodes[i]); ++l) {
        GatherRow(nodes_.VpRow(nodes[i], l));
      }
    }
    // Scratch above the top of the values_ stack.
    const std::size_t top = values_.size();
    values_.resize(top + rows_.size());
    EvaluateRows(values_.data() + top);
    const double* v = values_.data() + top;
    for (std::size_t i = 0; i < count; ++i) {
      RootPrime& p = primes[i];
      p = RootPrime{};
      p.d1 = *v++;
      p.has_d1 = true;
      if (nodes_.VpCount(nodes[i]) == 2) {
        p.d2 = *v++;
        p.has_d2 = true;
      }
    }
    values_.resize(top);
  }

  /// Appends row `row`'s data to rows_ (gather_ only).
  void GatherRow(std::size_t row) {
    if constexpr (kGathers) rows_.push_back(nodes_.At(row).data());
  }

  /// Requests row `row` ahead of its evaluation (k-NN, kRows only).
  void RequestRow(std::size_t row) const {
    if constexpr (kRows) {
      const metric::VectorView view = nodes_.At(row);
      metric::kernels::PrefetchBytes(view.data(), view.size() * sizeof(double));
    }
  }

  /// out[i] = d(query, rows_[i]) for every gathered row, in one kernel call
  /// bit-identical to the per-call metric (gather_ only).
  void EvaluateRows(double* out) const {
    if constexpr (kGathers) {
      metric::kernels::OneToRows(Family::family, query_.data(), rows_.data(),
                                 rows_.size(), query_.size(), out);
    }
  }

  /// Best-k pruning radius: the heap's k-th best, tightened to bound_.
  template <typename Dir>
  double Tau(const std::vector<Neighbor>& heap, std::size_t k) const {
    const double tau = KnnTau<Dir::kOrder>(heap, k);
    return Dir::Before(bound_, tau) ? bound_ : tau;
  }

  template <typename Dir>
  void KnnNode(NodeRef node, std::size_t k, std::vector<Neighbor>& heap,
               Exclusion exclude) {
    Distances d;
    const std::size_t vps =
        VantagePoints(node, RootPrime{}, d, [&](std::size_t id, double dist) {
          if (!exclude(id)) KnnOffer<Dir::kOrder>(heap, k, Neighbor{id, dist});
        });
    if (nodes_.IsLeaf(node)) {
      KnnLeaf<Dir>(nodes_.Leaf(node), LeafQuery{d.data(), vps, qpath_}, k,
                   heap, exclude);
      return;
    }
    // Children best bound first; stop as soon as tau ranks ahead of a
    // bound. ranked_ is a stack like entered_: this node's children sit at
    // [begin, end) while deeper calls push and pop above them.
    PathScope<double> path(qpath_, nodes_.PathDistances(), {d.data(), vps});
    const std::size_t begin = ranked_.size();
    RankShells<Dir>(node, d, 0, 0, Dir::kLoose);
    const std::size_t end = ranked_.size();
    std::sort(ranked_.begin() + begin, ranked_.begin() + end,
              [](const Ranked& a, const Ranked& b) {
                return Dir::Before(a.bound, b.bound);
              });
    RequestChildren<Dir>(begin, end, Tau<Dir>(heap, k));
    for (std::size_t i = begin; i < end; ++i) {
      if (Dir::Before(Tau<Dir>(heap, k), ranked_[i].bound)) break;
      KnnNode<Dir>(ranked_[i].child, k, heap, exclude);
    }
    ranked_.resize(begin);
  }

  /// Requests what entering the ranked children at [begin, end) reads
  /// first — their vantage-point rows and the accessor's Prefetch of each —
  /// for every child whose bound does not lose to `tau`, in rank order.
  template <typename Dir>
  void RequestChildren(std::size_t begin, std::size_t end, double tau) const {
    if constexpr (kRows || kPrefetchesNodes) {
      for (std::size_t i = begin; i < end; ++i) {
        if (Dir::Before(tau, ranked_[i].bound)) break;
        const NodeRef child = ranked_[i].child;
        if constexpr (kPrefetchesNodes) nodes_.Prefetch(child);
        if constexpr (kRows) {
          for (std::size_t l = 0; l < nodes_.VpCount(child); ++l) {
            RequestRow(nodes_.VpRow(child, l));
          }
        }
      }
    }
  }

  /// Step 2 of §4.3 against the shrinking radius. Each 64-entry chunk's
  /// mask is taken once, at the entry tau, entry by entry with Dir's test,
  /// and every survivor's row is requested as it is found; then the
  /// entries are walked in order. tau only tightens, so a clear bit is an
  /// entry the per-entry filter would reject now too (seen and filtered),
  /// and a set bit is re-tested once tau has moved, then checked against the
  /// exclusion, before it is evaluated and offered.
  template <typename Dir, typename Leaf>
  void KnnLeaf(const Leaf& leaf, const LeafQuery& q, std::size_t k,
               std::vector<Neighbor>& heap, Exclusion exclude) {
    const double entry_tau = Tau<Dir>(heap, k);
    masks_.clear();
    for (std::size_t base = 0; base < leaf.size(); base += kChunk) {
      const std::size_t n = std::min(kChunk, leaf.size() - base);
      std::uint64_t mask = 0;
      for (std::size_t i = base; i < base + n; ++i) {
        if (!Dir::MayBeat(leaf, i, q, entry_tau)) continue;
        mask |= std::uint64_t{1} << (i - base);
        RequestRow(leaf.row(i));
      }
      masks_.push_back(mask);
    }
    for (std::size_t c = 0; c < masks_.size(); ++c) {
      const std::size_t base = c * kChunk;
      // Entries of this chunk before `next` are charged.
      std::size_t next = base;
      for (std::uint64_t m = masks_[c]; m != 0; m &= m - 1) {
        const std::size_t i = base + std::countr_zero(m);
        stats_.leaf_points_seen += i + 1 - next;
        stats_.leaf_points_filtered += i - next;
        next = i + 1;
        const double tau = Tau<Dir>(heap, k);
        if ((tau != entry_tau && !Dir::MayBeat(leaf, i, q, tau)) ||
            exclude(leaf.id(i))) {
          ++stats_.leaf_points_filtered;
          continue;
        }
        const double dist = Distance(leaf.row(i));
        KnnOffer<Dir::kOrder>(heap, k, Neighbor{leaf.id(i), dist});
      }
      const std::size_t stop = std::min(base + kChunk, leaf.size());
      stats_.leaf_points_seen += stop - next;
      stats_.leaf_points_filtered += stop - next;
    }
  }

  /// Pushes onto ranked_ the children below slot prefix `prefix` of shell
  /// level l in slot order, each with its bound folded over its levels:
  /// Nearest's lower bound, the largest distance from the query to a shell,
  /// or Farthest's upper bound, the smallest d[l] + upper.
  template <typename Dir>
  void RankShells(NodeRef node, const Distances& d, std::size_t l,
                  std::size_t prefix, double bound) {
    if (l == nodes_.Levels()) {
      if (const NodeRef child = nodes_.Child(node, prefix); child != nullptr) {
        ranked_.push_back(Ranked{bound, child});
      }
      return;
    }
    const std::size_t m = nodes_.Order();
    const ShellBounds b = nodes_.Shells(node, l);
    for (std::size_t s = 0; s < m; ++s) {
      const std::size_t idx = prefix * m + s;
      RankShells<Dir>(node, d, l + 1, idx,
                      Dir::Fold(bound, d[l], b.lower[idx], b.upper[idx]));
    }
  }

  Nodes nodes_;
  const Query& query_;
  SearchStats& stats_;
  [[no_unique_address]] Budget budget_;
  double bound_ = std::numeric_limits<double>::infinity();
  std::vector<double> qpath_;
  bool gather_ = false;  ///< range search evaluates in gathered calls
  std::vector<NodeRef> entered_;   ///< range: children to enter, as a stack
  std::vector<Ranked> ranked_;     ///< k-NN: ranked children, as a stack
  std::vector<RootPrime> primes_;  ///< gathered: entered_[i]'s distances
  /// Leaf chunk masks: range's a stack, k-NN's the current leaf's.
  std::vector<std::uint64_t> masks_;
  std::vector<const double*> rows_;   ///< gathered: rows of one kernel call
  std::vector<double> values_;  ///< gathered: survivors' distances, a stack
};

}  // namespace mvp::core

#endif  // MVPTREE_CORE_SEARCH_SHARED_H_
