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
/// The range recursion and the best-k frontier below run on an accessor,
/// over one tree or over a list of members (SearchOver).
/// Everything that decides results and SearchStats lives here once — the
/// order of metric calls, the counters, gathered evaluation, the exclusion
/// rule, PATH bookkeeping, shell pruning, the frontier's order and leaf
/// filtering — and
/// tests/search_counts_golden_test.cc pins the counts. Every tree's Stats()
/// walks the same accessor too (CollectStats).
///
/// Query forms. Range is §4.3's fixed-radius recursion. Knn is a best-first
/// branch-and-bound over one frontier, compiled in one of two directions:
/// Nearest gives the k nearest, and Farthest the k farthest of §2 and, with
/// no k limit and tau floored at r, its "farther than a given range"
/// (MvpTree::FarthestSearch, MvpTree::FarthestRangeSearch). The directions
/// are the two triangle-inequality bounds on the same stored distances:
/// Nearest bounds subtrees and filters leaf entries on |d(q,v) - d(x,v)|,
/// Farthest on d(q,v) + d(x,v).
///
/// Members. Every layer turns a request into one list of members (Member):
/// trees of one accessor type, each with its own exclusion, id map and a
/// bound on its whole contents. A lone tree is one member at Dir::kLoose; a
/// sharded index hands its shards at their shell bounds and a forest its
/// levels at kLoose, and an overlay its base's shards and its memtable's
/// levels together. SearchOver searches the list for both kinds: range
/// runs every member whose bound is at most r, in list order; k-NN runs
/// them all as one frontier.
///
/// The k-NN frontier is one binary heap of (bound, member, preorder node,
/// PATH slice) over the members, so the search enters nodes across trees in
/// bound order and tau tightens from the most promising subtree anywhere.
/// Each member's root is seeded at the member's bound; the search pops the
/// best entry and stops when tau ranks strictly ahead of it, so ties at tau
/// survive; equal bounds pop in (member, preorder node) order. Expanding a
/// node offers its vantage points and then pushes each child at its shells
/// folded onto the node's own bound (Dir::Fold), unless tau already rules
/// the child out; a leaf is filtered and evaluated entry by entry against
/// the moving tau.
/// An entry's query PATH is a slice of one arena: a node's children share
/// the slice of its ancestors' distances and its own, and LeafQuery reads
/// it as a span.
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
///   std::size_t Preorder(NodeRef) const;   the node's preorder index (k-NN's
///                                          tie order)
///   Leaf Leaf(NodeRef) const;              leaf nodes, a cursor (below)
///   const Metric& metric() const;          Object At(std::size_t row) const;
///   void Prefetch(NodeRef) const;          optional: requests the cache
///                                          lines k-NN reads on expanding the
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
/// requests what it is about to read before it reads it. As it pushes a
/// node onto the frontier it requests the node's vantage-point rows and the
/// accessor's Prefetch of it. On expanding a leaf it takes each chunk's mask
/// once, at the entry tau, and requests every survivor's row as it finds
/// it. tau only tightens — Nearest's only falls and Farthest's only rises —
/// so a mask at the entry tau keeps a superset of the entries that pass
/// later: the walk treats a clear bit as filtered, re-tests a set one once
/// tau has moved, and charges every entry, in order, where the per-entry
/// filter would. Row requests (metric::kernels::PrefetchBytes) apply
/// wherever the accessor hands out metric::VectorView rows. None of this
/// changes a result, a count or a budget cut; tests/testdata/search_counts/
/// knn_order.txt pins the order of k-NN's metric calls one by one.

namespace mvp::serve {
class ThreadPool;
}  // namespace mvp::serve

namespace mvp::core {

/// Most vantage points one node may keep: GeneralizedMvpTree's bound on v,
/// and the size of the traversal's per-node distance array.
inline constexpr std::size_t kMaxVantagePoints = 8;

/// Does the query annulus [d-r, d+r] intersect the shell [lo, hi]?
inline bool ShellIntersects(double d, double r, double lo, double hi) {
  return d - r <= hi && d + r >= lo;
}

/// Ids a search must never return — the erased objects of a dynamic layer.
/// Non-owning: `excluded(context, id)` answers for an id in the searched
/// structure's own id space. A default-constructed value excludes nothing,
/// and a search passed it is exactly the unexcluded search.
///
/// The rule, for range and k-NN alike: an excluded vantage point is still
/// evaluated (its distance drives pruning and PATH) but never reported; an
/// excluded leaf entry is never evaluated and counts as seen and filtered.
/// The leaf filters test the exclusion after the annulus tests, which
/// reject most entries more cheaply; the order changes neither results nor
/// SearchStats.
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

/// Where a search's hits and candidates go: the id the caller's `*out`
/// holds for an id of the searched structure. Non-owning, like Exclusion:
/// a layer that searches a part of itself maps the part's ids through its
/// own map and then through its caller's. A default-constructed value is
/// the identity.
struct IdMap {
  const void* context = nullptr;
  std::size_t (*map)(const void*, std::size_t) = nullptr;

  /// Wraps a callable `std::size_t(std::size_t)`, which must outlive the
  /// search.
  template <typename Fn>
  static IdMap Of(const Fn& fn) {
    return IdMap{&fn, [](const void* c, std::size_t id) -> std::size_t {
                   return (*static_cast<const Fn*>(c))(id);
                 }};
  }

  std::size_t operator()(std::size_t id) const {
    return map == nullptr ? id : map(context, id);
  }
};

/// A layer's request narrowed to one part of the layer — a shard, a forest
/// level — whose local id i is the layer's `part[i]`: Exclude() and Ids()
/// answer for the part's local ids through the layer's `exclude` and `ids`.
/// Non-owning: it must outlive the part's search.
struct PartIds {
  const std::vector<std::size_t>* part;
  Exclusion exclude;
  IdMap ids;

  Exclusion Exclude() const {
    if (!exclude) return {};
    return {this, [](const void* c, std::size_t local) {
              const auto& p = *static_cast<const PartIds*>(c);
              return p.exclude((*p.part)[local]);
            }};
  }
  IdMap Ids() const {
    return {this, [](const void* c, std::size_t local) {
              const auto& p = *static_cast<const PartIds*>(c);
              return p.ids((*p.part)[local]);
            }};
  }
};

/// The two exact query types of §4.3.
enum class SearchKind { kRange, kKnn };

/// One exact query, as every index layer takes it: MvpTree, MvpForest,
/// ShardedMvpIndex and DynamicOverlay each answer it in one
/// `Search(request, context, out)`. Both kinds skip the ids `exclude`
/// names (Exclusion's rule) and write into `*out` in the caller's ids,
/// through `ids`. A range search appends its hits unsorted. A k-NN search
/// takes `*out` as the caller's best-so-far heap — at most k candidates, a
/// max-heap under NeighborLess — and offers every object it evaluates into
/// it, so one heap and one shrinking k-th distance serve every layer, shard
/// and level of an answer; a lone search passes it empty. A search cut
/// short by cancellation leaves in `*out` whatever it had found.
/// Non-owning: the object must outlive the search. A layer that passes the
/// query down to a part of itself copies the request and narrows `exclude`
/// and `ids` through the part's ids, the same way for both kinds.
template <typename Object>
struct SearchRequest {
  SearchKind kind = SearchKind::kRange;
  const Object& object;
  double radius = 0.0;  ///< kRange: closed-ball radius
  std::size_t k = 0;    ///< kKnn: neighbor count
  /// Ids, in the searched layer's id space, that must not be returned.
  Exclusion exclude = {};
  /// The searched layer's ids -> the ids `*out` holds.
  IdMap ids = {};
};

/// What a search carries besides its request: the counters it adds to, and
/// the pool a sharded index may fan a range query's shards out on (null:
/// serially).
struct SearchContext {
  SearchStats stats = {};
  serve::ThreadPool* pool = nullptr;
};

/// Puts an answer Search appended into presentation order: by NeighborLess,
/// and a k-NN answer trimmed to k.
template <typename Object>
void Present(const SearchRequest<Object>& request, std::vector<Neighbor>* out) {
  std::sort(out->begin(), out->end(), NeighborLess);
  if (request.kind == SearchKind::kKnn && out->size() > request.k) {
    out->resize(request.k);
  }
}

/// Runs `request` on `index` in `context` and returns the presented answer.
template <typename Index, typename Object>
std::vector<Neighbor> Answer(const Index& index,
                             const SearchRequest<Object>& request,
                             SearchContext& context) {
  std::vector<Neighbor> out;
  index.Search(request, context, &out);
  Present(request, &out);
  return out;
}

/// The same, unpooled, adding the search's counters to `*stats` when given.
/// Every layer's RangeSearch and KnnSearch forward to it.
template <typename Index, typename Object>
std::vector<Neighbor> Answer(const Index& index,
                             const SearchRequest<Object>& request,
                             SearchStats* stats) {
  SearchContext context;
  std::vector<Neighbor> out = Answer(index, request, context);
  if (stats != nullptr) MergeSearchStats(stats, context.stats);
  return out;
}

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
  std::span<const double> qpath;

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
/// ranks strictly ahead of b. kLoose is the bound that rules nothing out,
/// and Fold tightens a child's bound, starting from its parent's, by one
/// shell level [lo, hi] at the query's distance d to that level's vantage
/// point. MayBeat: leaf entry i is not ruled out by tau.
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

/// One tree of a member list (SearchOver): its node accessor, the ids it
/// must not report (Exclusion's rule), its ids -> the ids `*out` holds, and
/// a bound on the distance from the query to any of its objects — a lower
/// bound for Nearest, an upper one for Farthest, Dir::kLoose when nothing
/// is known. A range search skips a member whose bound exceeds its radius;
/// a k-NN frontier enters its root at the bound. Non-owning, like Exclusion
/// and IdMap.
template <typename Nodes>
struct Member {
  Nodes nodes;
  Exclusion exclude = {};
  IdMap ids = {};
  double bound = 0.0;
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
/// best-first k-NN frontier, over the one tree or over a list of members
/// (re-seated on each member's accessor, exclusion and id map in turn).
/// Counts into the caller's `stats` as it goes, so a search cut short by an
/// exception (cancellation, budget) leaves both its results so far and
/// exact stats at the cut.
template <typename Nodes, typename Query, typename Budget = NoBudget>
class Traversal {
 public:
  /// Both searches skip the ids `exclude` names (Exclusion's rule) and
  /// report an object as `ids(id)`.
  Traversal(Nodes nodes, const Query& query, SearchStats& stats,
            Budget budget = {}, Exclusion exclude = {}, IdMap ids = {})
      : nodes_(nodes),
        query_(query),
        stats_(stats),
        budget_(budget),
        exclude_(exclude),
        ids_(ids) {
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

  /// The same over `members` in place of the constructor's tree, in list
  /// order, each through its own exclusion and id map. A member whose bound
  /// exceeds `radius` holds nothing within it and is skipped.
  void Range(std::span<const Member<Nodes>> members, double radius,
             std::vector<Neighbor>* out) {
    for (const Member<Nodes>& member : members) {
      if (member.bound > radius) continue;
      Seat(member);
      Range(radius, out);
    }
  }

  /// Keeps the k best objects in `*heap`, a max-heap under Dir::kOrder of
  /// at most k: the k nearest, or with Farthest the k farthest. A heap the
  /// caller seeded with its best so far (another part of the same answer)
  /// prunes from the start, and ties at the k-th distance go to the lowest
  /// id in the heap's id space. The one-member frontier: the constructor's
  /// tree at Dir::kLoose.
  template <typename Dir = Nearest>
  void Knn(std::size_t k, std::vector<Neighbor>* heap) {
    const Member<Nodes> tree{nodes_, exclude_, ids_, Dir::kLoose};
    Knn<Dir>(std::span(&tree, 1), k, heap);
  }

  /// The same over `members` in place of the constructor's tree: one
  /// frontier across all of them (the file comment), each member's objects
  /// offered through its own exclusion and id map into the one heap.
  template <typename Dir = Nearest>
  void Knn(std::span<const Member<Nodes>> members, std::size_t k,
           std::vector<Neighbor>* heap) {
    MVP_DCHECK(heap->size() <= k);
    if (k == 0) return;
    frontier_.clear();
    frontier_.reserve(kFrontierReserve);
    paths_.clear();
    paths_.reserve(kFrontierReserve);
    held_ = false;
    for (std::size_t m = 0; m < members.size(); ++m) {
      const Nodes& nodes = members[m].nodes;
      if (const NodeRef root = nodes.Root(); root != nullptr) {
        Push<Dir>(nodes, Entry{members[m].bound, Key(m, nodes.Preorder(root)),
                               root, 0, 0});
      }
    }
    std::size_t member = members.size();  // the one Seat last took
    for (;;) {
      // The best entry: the held one, unless the heap's top pops first.
      if (held_ && !frontier_.empty() &&
          PopsAfter<Dir>{}(next_, frontier_.front())) {
        HeapPush<Dir>(next_);
        held_ = false;
      }
      if (!held_) {
        if (frontier_.empty()) break;
        next_ = frontier_.front();
        std::pop_heap(frontier_.begin(), frontier_.end(), PopsAfter<Dir>{});
        frontier_.pop_back();
      }
      held_ = false;
      const Entry top = next_;  // Expand may hold a child in next_
      if (Dir::Before(Tau<Dir>(*heap, k), top.bound)) break;
      if (const std::size_t m = top.key >> 32; m != member) {
        member = m;
        Seat(members[m]);
      }
      Expand<Dir>(top, k, *heap);
    }
  }

  /// §2's "farther than a given range": the Farthest search with no k
  /// limit and tau held at `radius`. Appends to `*out` every object it
  /// evaluates, a superset of those at distance >= `radius`.
  void FarthestRange(double radius, std::vector<Neighbor>* out) {
    floor_ = radius;
    Knn<Farthest>(std::numeric_limits<std::size_t>::max(), out);
  }

 private:
  static constexpr std::size_t kQpathReserve = 64;
  /// k-NN's first allocation of frontier entries and of PATH values.
  static constexpr std::size_t kFrontierReserve = 64;
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

  /// A k-NN frontier entry: a node of member key >> 32, at preorder index
  /// key & 0xffffffff, its bound, and its query PATH, paths_[path,
  /// path + path_size).
  struct Entry {
    double bound;
    std::uint64_t key;
    NodeRef node;
    std::uint32_t path;
    std::uint32_t path_size;
  };

  /// Searches `member`'s tree from here on, through its exclusion and id map.
  void Seat(const Member<Nodes>& member) {
    nodes_ = member.nodes;
    exclude_ = member.exclude;
    ids_ = member.ids;
  }

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
            if (dist <= radius && !exclude_(id)) {
              out.push_back(Neighbor{ids_(id), dist});
            }
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
          if (dist <= radius) out.push_back(Neighbor{ids_(leaf.id(i)), dist});
        }
      }
    }
    masks_.resize(mask_base);
    values_.resize(value_base);
  }

  /// Step 2 of §4.3 in range mode: appends to masks_ the pass mask of each
  /// of `leaf`'s 64-entry chunks under the fixed radius, from the stored
  /// distances alone, with the excluded entries' bits cleared.
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
      if (exclude_) {
        for (std::uint64_t m = mask; m != 0; m &= m - 1) {
          const int bit = std::countr_zero(m);
          if (exclude_(leaf.id(base + bit))) mask &= ~(std::uint64_t{1} << bit);
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

  /// Requests `nodes`' row `row` ahead of its evaluation (k-NN, kRows
  /// only).
  static void RequestRow(const Nodes& nodes, std::size_t row) {
    if constexpr (kRows) {
      const metric::VectorView view = nodes.At(row);
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

  /// Best-k pruning radius: the heap's k-th best, and for FarthestRange
  /// never below its radius.
  template <typename Dir>
  double Tau(const std::vector<Neighbor>& heap, std::size_t k) const {
    const double tau = KnnTau<Dir::kOrder>(heap, k);
    if constexpr (std::is_same_v<Dir, Farthest>) return std::max(tau, floor_);
    return tau;
  }

  /// Offers object `id` at `dist` to the heap as ids_(id). A candidate
  /// strictly behind a full heap's k-th distance cannot enter whatever its
  /// id, so it is turned away before its id is mapped.
  template <typename Dir>
  void Offer(std::vector<Neighbor>& heap, std::size_t k, std::size_t id,
             double dist) const {
    if (heap.size() == k && Dir::Before(heap.front().distance, dist)) return;
    KnnOffer<Dir::kOrder>(heap, k, Neighbor{ids_(id), dist});
  }

  static std::uint64_t Key(std::size_t member, std::size_t preorder) {
    MVP_DCHECK(member <= 0xffffffff && preorder <= 0xffffffff);
    return (std::uint64_t{member} << 32) | preorder;
  }

  /// The frontier's order, as a max-heap's less: entry a pops after b.
  template <typename Dir>
  struct PopsAfter {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.bound != b.bound) return Dir::Before(b.bound, a.bound);
      return a.key > b.key;
    }
  };

  /// Pushes `e`, a node of `nodes`, onto the frontier and requests what
  /// expanding it reads first: its vantage-point rows and the accessor's
  /// Prefetch of it. The best entry pushed since the last pop is held in
  /// next_ rather than the heap, so a node whose child pops next costs no
  /// heap push and pop.
  template <typename Dir>
  void Push(const Nodes& nodes, const Entry& e) {
    if constexpr (kPrefetchesNodes) nodes.Prefetch(e.node);
    if constexpr (kRows) {
      for (std::size_t l = 0; l < nodes.VpCount(e.node); ++l) {
        RequestRow(nodes, nodes.VpRow(e.node, l));
      }
    }
    if (!held_) {
      next_ = e;
      held_ = true;
    } else if (PopsAfter<Dir>{}(e, next_)) {
      HeapPush<Dir>(e);
    } else {
      HeapPush<Dir>(next_);
      next_ = e;
    }
  }

  template <typename Dir>
  void HeapPush(const Entry& e) {
    frontier_.push_back(e);
    std::push_heap(frontier_.begin(), frontier_.end(), PopsAfter<Dir>{});
  }

  /// Expands a popped entry of the current member: offers its node's
  /// vantage points, then runs a leaf, or pushes an internal node's
  /// children with its query PATH extended by those distances.
  template <typename Dir>
  void Expand(const Entry& e, std::size_t k, std::vector<Neighbor>& heap) {
    Distances d;
    const std::size_t vps =
        VantagePoints(e.node, RootPrime{}, d, [&](std::size_t id, double dist) {
          if (!exclude_(id)) Offer<Dir>(heap, k, id, dist);
        });
    if (nodes_.IsLeaf(e.node)) {
      const std::span<const double> qpath(paths_.data() + e.path, e.path_size);
      KnnLeaf<Dir>(nodes_.Leaf(e.node), LeafQuery{d.data(), vps, qpath}, k,
                   heap);
      return;
    }
    // Step 3.1: the children's PATH is this one plus the node's distances,
    // while it holds fewer than p; a full PATH is shared as it is.
    Entry child{e.bound, e.key & ~std::uint64_t{0xffffffff}, nullptr, e.path,
                e.path_size};
    const std::size_t size =
        std::min(nodes_.PathDistances(), e.path_size + vps);
    if (size > e.path_size) {
      child.path = static_cast<std::uint32_t>(paths_.size());
      child.path_size = static_cast<std::uint32_t>(size);
      paths_.resize(paths_.size() + size);
      std::copy_n(paths_.begin() + e.path, e.path_size,
                  paths_.begin() + child.path);
      std::copy_n(d.begin(), size - e.path_size,
                  paths_.begin() + child.path + e.path_size);
    }
    PushShells<Dir>(e.node, d, Tau<Dir>(heap, k), 0, 0, e.bound, child);
  }

  /// Pushes the children below slot prefix `prefix` of shell level l in
  /// slot order, each like `child` at `bound` folded on over its levels —
  /// Nearest's largest distance from the query to a shell, Farthest's
  /// smallest d[l] + upper — unless `tau` ranks strictly ahead of it.
  template <typename Dir>
  void PushShells(NodeRef node, const Distances& d, double tau, std::size_t l,
                  std::size_t prefix, double bound, const Entry& child) {
    if (l == nodes_.Levels()) {
      const NodeRef c = nodes_.Child(node, prefix);
      if (c == nullptr || Dir::Before(tau, bound)) return;
      Push<Dir>(nodes_, Entry{bound, child.key | nodes_.Preorder(c), c,
                              child.path, child.path_size});
      return;
    }
    const std::size_t m = nodes_.Order();
    const ShellBounds b = nodes_.Shells(node, l);
    for (std::size_t s = 0; s < m; ++s) {
      const std::size_t idx = prefix * m + s;
      PushShells<Dir>(node, d, tau, l + 1, idx,
                      Dir::Fold(bound, d[l], b.lower[idx], b.upper[idx]),
                      child);
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
               std::vector<Neighbor>& heap) {
    const double entry_tau = Tau<Dir>(heap, k);
    masks_.clear();
    for (std::size_t base = 0; base < leaf.size(); base += kChunk) {
      const std::size_t n = std::min(kChunk, leaf.size() - base);
      std::uint64_t mask = 0;
      for (std::size_t i = base; i < base + n; ++i) {
        if (!Dir::MayBeat(leaf, i, q, entry_tau)) continue;
        mask |= std::uint64_t{1} << (i - base);
        RequestRow(nodes_, leaf.row(i));
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
            exclude_(leaf.id(i))) {
          ++stats_.leaf_points_filtered;
          continue;
        }
        const double dist = Distance(leaf.row(i));
        Offer<Dir>(heap, k, leaf.id(i), dist);
      }
      const std::size_t stop = std::min(base + kChunk, leaf.size());
      stats_.leaf_points_seen += stop - next;
      stats_.leaf_points_filtered += stop - next;
    }
  }

  Nodes nodes_;
  const Query& query_;
  SearchStats& stats_;
  [[no_unique_address]] Budget budget_;
  Exclusion exclude_;  ///< ids never reported
  IdMap ids_;          ///< what `*out` holds for an id
  double floor_ = 0.0;  ///< FarthestRange's radius (0: Farthest's open tau)
  std::vector<double> qpath_;
  bool gather_ = false;  ///< range search evaluates in gathered calls
  std::vector<NodeRef> entered_;   ///< range: children to enter, as a stack
  std::vector<Entry> frontier_;    ///< k-NN: a binary heap under PopsAfter
  Entry next_{};                   ///< k-NN: the best entry, when held_
  bool held_ = false;              ///< k-NN: next_ is not in frontier_
  std::vector<double> paths_;      ///< k-NN: the entries' PATH slices
  std::vector<RootPrime> primes_;  ///< gathered: entered_[i]'s distances
  /// Leaf chunk masks: range's a stack, k-NN's the current leaf's.
  std::vector<std::uint64_t> masks_;
  std::vector<const double*> rows_;   ///< gathered: rows of one kernel call
  std::vector<double> values_;  ///< gathered: survivors' distances, a stack
};

/// Runs `request` over `members` into `*out`, counting into
/// `context.stats`: range visits each member whose bound is at most the
/// radius, in list order, and k-NN runs every member as one best-first
/// frontier into the caller's heap. How every layer searches its trees — a
/// lone tree, a sharded index's shards, a forest's levels, an overlay's
/// base shards and memtable levels. The members' exclusions and id maps
/// replace the request's.
template <typename Nodes, typename Object>
void SearchOver(const std::vector<Member<Nodes>>& members,
                const SearchRequest<Object>& request, SearchContext& context,
                std::vector<Neighbor>* out) {
  MVP_DCHECK(request.kind == SearchKind::kKnn || request.radius >= 0);
  if (members.empty()) return;
  Traversal<Nodes, Object> traversal(members.front().nodes, request.object,
                                     context.stats);
  if (request.kind == SearchKind::kRange) {
    traversal.Range(members, request.radius, out);
  } else {
    traversal.Knn(members, request.k, out);
  }
}

}  // namespace mvp::core

#endif  // MVPTREE_CORE_SEARCH_SHARED_H_
