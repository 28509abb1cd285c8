#ifndef MVPTREE_CORE_MVP_TREE_H_
#define MVPTREE_CORE_MVP_TREE_H_

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/codec.h"
#include "common/macros.h"
#include "common/query.h"
#include "common/rng.h"
#include "common/status.h"
#include "core/search_shared.h"
#include "core/tree_layout.h"
#include "metric/lp.h"
#include "metric/metric.h"
#include "vptree/vp_select.h"

/// \file
/// The multi-vantage-point tree — the paper's contribution (§4).
///
/// An mvp-tree node uses TWO vantage points (each node is "two levels of a
/// vantage point tree where all the children nodes at the lower level use
/// the same vantage point"), giving fanout m² from m partitions per vantage
/// point, and exploits two observations:
///
///  * Observation 1: a vantage point can partition regions it does not
///    belong to, so one second-level vantage point is shared by all m
///    first-level partitions — a search that descends into several branches
///    pays ONE distance computation where a vp-tree pays one per branch.
///  * Observation 2: the distances between a data point and the vantage
///    points on its root→leaf path are computed during construction anyway;
///    keeping the first p of them (PATH[1..p]) lets the search filter leaf
///    points through the triangle inequality before any distance
///    computation.
///
/// Leaves hold up to k points with their exact distances D1/D2 to the leaf's
/// own vantage points plus their PATH arrays; "the major filtering step ...
/// is delayed to the leaf level" where those stored distances make most
/// candidate points free to reject.
///
/// The tree keeps its structure in the layout of core/tree_layout.h —
/// preorder node records, an m*m child slot table, one bounds pool and
/// per-leaf id/D1/D2 columns with column-major PATH slabs: the very arrays a
/// flat arena holds. Searches read the leaf distances as floats, at a radius
/// that keeps every entry the double test would (tree_layout.h), and the
/// floats are the only copy a tree keeps: Serialize recomputes the doubles
/// the MVPT stream carries. A tree over dense vectors keeps its objects as
/// one row-major slab of doubles, the rows of a flat arena's objects
/// section, and evaluates them in place as metric::VectorView; any other
/// object type is kept in a std::vector<Object> (ObjectStore). Either way
/// the objects sit in the layout's row order, not by id: a leaf's entries
/// are one contiguous block of rows, and the vantage points follow in node
/// preorder, so a search reads every object at a position its node or leaf
/// names. Build and Deserialize put their input into that order in place
/// (core::PermuteInPlace) and give a tree its own arrays and rows; Borrow
/// gives a vector tree a validated arena's (snapshot::flat::OpenTree), kept
/// alive by a shared owner. Searches read one TreeArrays view either way, so
/// there is one tree type and one code path. An id -> row map (4 bytes per
/// object) serves object(id) outside search. Ids are u32, so a tree holds at
/// most 2^32-1 objects.
///
/// Template parameters mirror the paper's setting: any object domain with a
/// metric distance function and nothing else.
///
/// Thread safety: the tree is immutable once built or opened, so const member
/// functions (all searches, Stats, Serialize, ValidateInvariants) may be
/// called concurrently from any number of threads, provided the metric's
/// operator() is itself const-thread-safe (all bundled metrics are;
/// CountingMetric's shared counter is not — use AtomicCountingMetric when
/// counting across threads). src/serve/ builds a concurrent query engine
/// on exactly this guarantee.

namespace mvp::core {

/// Construction parameters of an mvp-tree — the paper's (m, k, p) triple
/// plus reproduction knobs. MvpTree<Object, Metric>::Options names it.
struct MvpTreeOptions {
  /// m: "the number of partitions created by each vantage point". Fanout
  /// of an internal node is m². Paper: "order 3 (m) gives the most
  /// reasonable results".
  int order = 3;
  /// k: "the maximum fanout for the leaf nodes". The paper's best
  /// configurations use large leaves (e.g. mvpt(3,80)): "It is a good
  /// idea to keep k large so that most of the data items are kept in the
  /// leaves."
  int leaf_capacity = 80;
  /// p: "the number of distances for the data points at the leaves to be
  /// kept". Paper uses 5 for the vector experiments, 4 for images.
  int num_path_distances = 5;
  /// First-vantage-point picker (paper default: random; §4.2 notes any
  /// vp-tree selection heuristic applies).
  vptree::VpSelectOptions selection;
  /// Seed for random choices.
  std::uint64_t seed = 0;
  /// Ablation: store exact per-child [min,max] distance bounds instead of
  /// the paper's m-1 cutoff values per vantage point.
  bool store_exact_bounds = false;
};

/// Where an MvpTree keeps its objects, chosen by the object type alone: one
/// std::vector<Object>, indexed by row. From takes the build input and
/// Read the objects part of the MVPT stream, one codec record per object,
/// both in id order; PutInRowOrder then moves them into the tree's rows.
template <typename Object>
class ObjectStore {
 public:
  static Result<ObjectStore> From(std::vector<Object> objects) {
    ObjectStore store;
    store.objects_ = std::move(objects);
    return store;
  }

  std::size_t size() const { return objects_.size(); }
  const Object& operator[](std::size_t row) const { return objects_[row]; }

  /// Moves the objects from id order into the row order of `t`.
  void PutInRowOrder(const TreeArrays& t) {
    Object spare{};
    PermuteInPlace(
        t, objects_.size(),
        [&](std::size_t i) { spare = std::move(objects_[i]); },
        [&](std::size_t from, std::size_t to) {
          objects_[to] = std::move(objects_[from]);
        },
        [&](std::size_t to) { objects_[to] = std::move(spare); });
  }

  template <typename Codec>
  static Result<ObjectStore> Read(BinaryReader* reader, std::uint64_t count,
                                  const Codec& codec) {
    ObjectStore store;
    store.objects_.resize(static_cast<std::size_t>(count));
    for (auto& obj : store.objects_) {
      MVP_RETURN_NOT_OK(codec.Read(*reader, &obj));
    }
    return store;
  }

 private:
  std::vector<Object> objects_;
};

/// Vectors as one row-major slab: `values` holds `dim` doubles per object,
/// object i in row i. What a vector tree keeps its objects in, and what
/// serve::ShardedMvpIndex::Build fills for each shard tree
/// (MvpTree::BuildRows), so each vector is copied once.
struct RowSlab {
  std::vector<double> values;
  std::size_t dim = 0;
};

/// Dense vectors: one row-major slab of `dim` doubles per object, handed
/// out as metric::VectorView. The slab is either owned (From, Read) or
/// borrowed from a flat arena's objects section (Borrow); either way the
/// row base is resolved once, so row access is one multiply-add. Every
/// object has the same dimension, at least 1 and at most u32's range (the
/// arena's dim field): From rejects anything else as InvalidArgument, Read
/// as Corruption. Move-only, so no copy can keep pointing into a slab it
/// does not own.
template <>
class ObjectStore<metric::Vector> {
 public:
  ObjectStore() = default;
  ObjectStore(ObjectStore&&) = default;
  ObjectStore& operator=(ObjectStore&&) = default;
  ObjectStore(const ObjectStore&) = delete;
  ObjectStore& operator=(const ObjectStore&) = delete;

  /// The one dimension all of `objects` share, 0 when there are none:
  /// InvalidArgument when they differ, or when it is not 1 to 2^32-1.
  static Result<std::size_t> CommonDim(
      const std::vector<metric::Vector>& objects) {
    if (objects.empty()) return std::size_t{0};
    const std::size_t dim = objects[0].size();
    for (const metric::Vector& v : objects) {
      if (v.size() != dim) {
        return Status::InvalidArgument(
            "mvp-tree vectors must all have one dimension");
      }
    }
    if (!ValidDim(dim)) {
      return Status::InvalidArgument(
          "mvp-tree vector dimension must be 1 to 2^32-1");
    }
    return dim;
  }

  /// Takes `slab` as the store's rows, in id order, without copying them.
  /// InvalidArgument unless it holds whole rows of a dimension of 1 to
  /// 2^32-1; an empty slab is an empty store.
  static Result<ObjectStore> From(RowSlab slab) {
    ObjectStore store;
    if (slab.values.empty()) return store;
    if (!ValidDim(slab.dim)) {
      return Status::InvalidArgument(
          "mvp-tree vector dimension must be 1 to 2^32-1");
    }
    if (slab.values.size() % slab.dim != 0) {
      return Status::InvalidArgument("mvp-tree row slab ends mid-row");
    }
    store.owned_ = std::move(slab.values);
    store.Own(slab.dim);
    return store;
  }

  /// Copies the vectors into one slab and takes it (the form above). The
  /// input is released as a whole when From returns, before a tree is built
  /// over the slab.
  static Result<ObjectStore> From(std::vector<metric::Vector> objects) {
    auto dim = CommonDim(objects);
    if (!dim.ok()) return dim.status();
    RowSlab slab{{}, dim.value()};
    slab.values.reserve(objects.size() * slab.dim);
    for (const metric::Vector& v : objects) {
      slab.values.insert(slab.values.end(), v.begin(), v.end());
    }
    return From(std::move(slab));
  }

  /// Views `count` rows of `dim` doubles at `rows`, which the caller keeps
  /// alive and unmodified for the store's lifetime.
  static ObjectStore Borrow(const double* rows, std::size_t count,
                            std::size_t dim) {
    ObjectStore store;
    store.rows_ = rows;
    store.count_ = count;
    store.dim_ = count == 0 ? 0 : dim;
    return store;
  }

  std::size_t size() const { return count_; }
  metric::VectorView operator[](std::size_t row) const {
    return {rows_ + row * dim_, dim_};
  }
  std::span<const double> rows() const { return {rows_, count_ * dim_}; }
  std::size_t dim() const { return dim_; }

  /// The dimensions a store can hold: 1 to u32's range (the arena's dim
  /// field). Collections that feed vector trees (dynamic::DynamicOverlay)
  /// admit vectors by the same rule.
  static bool ValidDim(std::size_t dim) {
    return dim >= 1 && dim <= std::numeric_limits<std::uint32_t>::max();
  }

  /// Moves the owned rows from id order into the row order of `t`.
  void PutInRowOrder(const TreeArrays& t) {
    MVP_DCHECK(owned_.data() == rows_);
    PermuteRows(t, owned_.data(), count_, dim_ * sizeof(double));
  }

  /// Decodes each record into one reused vector and appends it to the
  /// slab, reserved for `count` rows, or for as many as the rest of the
  /// buffer can hold when that is fewer.
  template <typename Codec>
  static Result<ObjectStore> Read(BinaryReader* reader, std::uint64_t count,
                                  const Codec& codec) {
    ObjectStore store;
    metric::Vector row;
    std::size_t dim = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
      MVP_RETURN_NOT_OK(codec.Read(*reader, &row));
      if (i == 0) {
        if (!ValidDim(row.size())) {
          return Status::Corruption(
              "mvp-tree stream vector dimension is 0 or exceeds u32");
        }
        dim = row.size();
        const std::uint64_t fit =
            reader->remaining() / (sizeof(double) * dim) + 1;
        store.owned_.reserve(
            static_cast<std::size_t>(std::min(count, fit) * dim));
      } else if (row.size() != dim) {
        return Status::Corruption(
            "mvp-tree stream holds vectors of unequal dimension");
      }
      store.owned_.insert(store.owned_.end(), row.begin(), row.end());
    }
    store.Own(dim);
    return store;
  }

 private:
  /// Points the row base at the owned slab of `dim`-double rows.
  void Own(std::size_t dim) {
    rows_ = owned_.data();
    dim_ = owned_.empty() ? 0 : dim;
    count_ = owned_.empty() ? 0 : owned_.size() / dim;
  }

  std::vector<double> owned_;  ///< the slab; empty when borrowed
  const double* rows_ = nullptr;
  std::size_t count_ = 0;
  std::size_t dim_ = 0;  ///< 0 only for an empty store
};

template <typename Object, metric::MetricFor<Object> Metric>
class MvpTree {
  /// Vector trees store rows (ObjectStore<metric::Vector>).
  static constexpr bool kRows = std::is_same_v<Object, metric::Vector>;
  static_assert(!kRows || metric::RowMetric<Metric>,
                "a vector MvpTree's metric must be a metric::RowMetric: "
                "callable on (Vector, VectorView) and (VectorView, "
                "VectorView)");

 public:
  using Options = MvpTreeOptions;
  using Request = SearchRequest<Object>;
  using Member = core::Member<TreeNodes<MvpTree>>;

  /// Builds an mvp-tree over `objects`; ids are positions in the input.
  /// Returns InvalidArgument for unusable options, more than 2^32-1
  /// objects, or vectors that do not share one dimension of 1 to 2^32-1.
  /// Empty input is valid. Coordinates are not checked: the caller must
  /// supply finite ones, since a vantage point at infinity makes every
  /// shell test below it NaN and hides finite points from searches
  /// (DynamicOverlay::Insert refuses such vectors; library callers of
  /// Build are on their own).
  static Result<MvpTree> Build(std::vector<Object> objects, Metric metric,
                               const Options& options = Options{}) {
    MVP_RETURN_NOT_OK(CheckBuild(options, objects.size()));
    return Grow(Store::From(std::move(objects)), std::move(metric), options);
  }

  /// Builds a vector tree over `rows`, object i in row i, keeping the slab
  /// as its own: Build without the copy into a slab. The same
  /// InvalidArgument cases, and one more for a slab that ends mid-row.
  static Result<MvpTree> BuildRows(RowSlab rows, Metric metric,
                                   const Options& options = Options{})
    requires kRows
  {
    const std::size_t count =
        rows.dim == 0 ? rows.values.size() : rows.values.size() / rows.dim;
    MVP_RETURN_NOT_OK(CheckBuild(options, count));
    return Grow(Store::From(std::move(rows)), std::move(metric), options);
  }

  /// A vector tree over borrowed arrays and rows: `count` rows of `dim`
  /// doubles at `rows`, in the row order of `arrays` (order and p as in
  /// `options`), all of which `owner` keeps alive and unmodified for the
  /// tree's lifetime and every move of it, and `row_of`, their id -> row
  /// map (core::RowMap). The caller has validated them as a flat arena's
  /// sections (snapshot::flat::ParseFlatArena), so the tree does not.
  static MvpTree Borrow(const Options& options, const double* rows,
                        std::size_t count, std::size_t dim,
                        const TreeArrays& arrays,
                        std::vector<std::uint32_t> row_of, Metric metric,
                        std::shared_ptr<const void> owner)
    requires kRows
  {
    MvpTree tree(Store::Borrow(rows, count, dim), std::move(metric), options);
    tree.arrays_ = arrays;
    tree.row_of_ = std::move(row_of);
    tree.owner_ = std::move(owner);
    return tree;
  }

  /// Move-only: a copy of a tree over its own arrays would still view the
  /// source's. Moving keeps every array and row where it is.
  MvpTree(MvpTree&&) = default;
  MvpTree& operator=(MvpTree&&) = default;
  MvpTree(const MvpTree&) = delete;
  MvpTree& operator=(const MvpTree&) = delete;

  /// All objects within `radius` of `query` (closed ball: d(Xi, Y) <= r),
  /// sorted by distance then id. Implements the depth-first search of §4.3
  /// with the PATH[] query-distance array and leaf filtering.
  std::vector<Neighbor> RangeSearch(const Object& query, double radius,
                                    SearchStats* stats = nullptr) const {
    return Answer(*this, Request{.object = query, .radius = radius}, stats);
  }

  /// The k nearest objects via best-first branch-and-bound; nodes are
  /// expanded in order of their distance lower bound (combining every
  /// vantage point on their path) and leaf points are pre-filtered through
  /// D1/D2/PATH, so the mvp-tree's leaf-level filtering carries over to
  /// k-NN.
  std::vector<Neighbor> KnnSearch(const Object& query, std::size_t k,
                                  SearchStats* stats = nullptr) const {
    return Answer(*this,
                  Request{.kind = SearchKind::kKnn, .object = query, .k = k},
                  stats);
  }

  /// The harvest form of both (core::SearchRequest): core::SearchOver of
  /// this tree as its one member, counting into `context.stats` as it
  /// goes. Both kinds write into `*out` as
  /// `request.ids` maps their ids and never report an id `request.exclude`
  /// names. A range search appends its hits; each is a true member of the
  /// full answer, since it passed the d(Q, Xi) <= r test with an exact
  /// metric value. A k-NN search offers its candidates into the caller's
  /// best-so-far max-heap under NeighborLess, empty for a lone search, whose
  /// k-th distance prunes from the first node on. So a search cancelled
  /// mid-way (see serve/cancel.h) leaves in `*out` the hits, or the best
  /// <= k candidates, found so far.
  void Search(const Request& request, SearchContext& context,
              std::vector<Neighbor>* out) const {
    SearchOver(std::vector{AsMember(request.exclude, request.ids,
                                    Nearest::kLoose)},
               request, context, out);
  }

  /// This tree as one member of a member list (core::Member), which reports
  /// through `ids`, skips what `exclude` names and is bounded by `bound`: a
  /// layer hands all its trees to core::SearchOver together.
  Member AsMember(Exclusion exclude, IdMap ids, double bound) const {
    return {Access(), exclude, ids, bound};
  }

  /// Budgeted (approximate) k-NN: identical to KnnSearch but stops after
  /// `max_distance_computations` metric evaluations, returning the best k
  /// found so far. Because nodes are expanded best-bound-first and leaf
  /// candidates are pre-filtered through D1/D2/PATH, small budgets already
  /// reach high recall; an infinite budget gives the exact answer. The
  /// standard time/quality knob for expensive metrics.
  std::vector<Neighbor> KnnSearchApproximate(
      const Object& query, std::size_t k,
      std::uint64_t max_distance_computations,
      SearchStats* stats = nullptr) const {
    std::vector<Neighbor> heap;
    SearchStats local;
    if (max_distance_computations > 0) {
      try {
        Traversal(Access(), query, local,
                  DistanceBudget{max_distance_computations})
            .Knn(k, &heap);
      } catch (const DistanceBudget::Exhausted&) {
        // Cut at the budget: the heap holds the best k evaluated so far.
      }
    }
    std::sort_heap(heap.begin(), heap.end(), NeighborLess);
    if (stats != nullptr) MergeSearchStats(stats, local);
    return heap;
  }

  /// All objects at distance >= `radius` from `query` ("objects that are
  /// farther than a given range from a query object can also be asked",
  /// §2), sorted by decreasing distance then id. The farthest-first
  /// search of FarthestSearch with no k limit and tau floored at
  /// `radius`: a leaf entry is evaluated only if d(Q,sv) + D(x,sv) reaches
  /// the radius for every stored vantage point, and a child only if
  /// d(Q,vp) + shell_upper does for both of its shells.
  std::vector<Neighbor> FarthestRangeSearch(const Object& query, double radius,
                                            SearchStats* stats = nullptr) const {
    std::vector<Neighbor> result;
    SearchStats local;
    Traversal(Access(), query, local).FarthestRange(radius, &result);
    std::erase_if(result, [radius](const Neighbor& n) {
      return !(n.distance >= radius);
    });
    std::sort(result.begin(), result.end(), NeighborFarther);
    if (stats != nullptr) MergeSearchStats(stats, local);
    return result;
  }

  /// The k objects farthest from `query` (§2's "the farthest, or the k
  /// farthest objects"), sorted by decreasing distance then id, so ties at
  /// the k-th distance keep the lowest ids. The k-NN search run in
  /// reverse (core::Farthest): tau is the k-th farthest distance so far,
  /// nodes are expanded in decreasing order of their distance upper bound,
  /// and leaf entries are filtered on D1/D2/PATH upper bounds.
  std::vector<Neighbor> FarthestSearch(const Object& query, std::size_t k,
                                       SearchStats* stats = nullptr) const {
    std::vector<Neighbor> heap;
    SearchStats local;
    Traversal(Access(), query, local).template Knn<Farthest>(k, &heap);
    std::sort_heap(heap.begin(), heap.end(), NeighborFarther);
    if (stats != nullptr) MergeSearchStats(stats, local);
    return heap;
  }

  std::size_t size() const { return store_.size(); }
  /// The object with id `id`: a const Object&, or for a vector tree a
  /// metric::VectorView of its row (convert it to Vector for an owned copy).
  /// Looks its row up in the id -> row map; searches read rows directly.
  decltype(auto) object(std::size_t id) const {
    return object_at_row(row_of(id));
  }
  /// The row that holds object `id` (row order: core/tree_layout.h).
  std::size_t row_of(std::size_t id) const {
    MVP_DCHECK(id < size());
    return row_of_[id];
  }
  /// The object at row `row`.
  decltype(auto) object_at_row(std::size_t row) const {
    MVP_DCHECK(row < size());
    return store_[row];
  }
  const Metric& metric() const { return metric_; }
  const Options& options() const { return options_; }
  /// A vector tree's row-major slab in row order (the object at row r at
  /// rows()[r * dim()]; leaf entry e is row e and a node's vantage points
  /// sit at its vp_row), its dimension (0 when empty) and the tree's
  /// arrays: what a flat arena is laid out from
  /// (snapshot::flat::BuildFlatArena).
  std::span<const double> rows() const
    requires kRows
  {
    return store_.rows();
  }
  std::size_t dim() const
    requires kRows
  {
    return store_.dim();
  }
  const TreeArrays& arrays() const { return arrays_; }

  /// Structural statistics. For a full mvp-tree of height h the paper gives
  /// 2*(m^(2h) - 1)/(m^2 - 1) vantage points and m^(2(h-1))*k leaf points;
  /// tests validate these formulas against this accounting.
  TreeStats Stats() const {
    TreeStats stats = CollectStats(Access());
    stats.construction_distance_computations = construction_distances_;
    return stats;
  }

  /// Deep consistency check (O(n log n) distance computations): verifies
  /// the row order — leaf entry e at row e, every node's vantage points at
  /// its vp rows, those tiling the rows after the entries in preorder, and
  /// the id -> row map agreeing with all of them, so every point is stored
  /// exactly once; that every leaf's D1/D2 and PATH entries equal the
  /// narrowing (metric::kernels::NarrowDistance) of the actual distances to
  /// the leaf's own and ancestor vantage points exactly, or are NaN where
  /// the actual one is NaN; and that every point's distance to each
  /// ancestor vantage point lies inside its child's recorded shell. Returns
  /// Corruption naming the first violated invariant — useful after
  /// deserializing untrusted bytes or when developing custom metrics.
  Status ValidateInvariants() const {
    const auto nodes = Access();
    const NodeRec* root = nodes.Root();
    if (root == nullptr) {
      return size() == 0 ? Status::OK()
                         : Status::Corruption("non-empty tree has no root");
    }
    MVP_RETURN_NOT_OK(ValidateRows());
    std::vector<std::size_t> ancestors;  // vantage point rows
    return ValidateNode(nodes, root, ancestors);
  }

  /// Serializes the tree (options, objects via `codec`, structure, stored
  /// distances) into the versioned little-endian format described in
  /// DESIGN.md §5.6. The metric itself is NOT serialized; Deserialize must
  /// be handed the same metric the tree was built with. The stream carries
  /// the leaf distances in double, which no tree keeps: each is recomputed
  /// (core::WriteStructure) exactly as Build computed it, so a tree —
  /// built, deserialized or opened from a flat arena — writes the stream
  /// its build wrote. Costs (2 + p) distance computations per leaf entry.
  template <CodecFor<Object> Codec>
  Status Serialize(BinaryWriter* writer, const Codec& codec) const {
    writer->Write<std::uint32_t>(kMagic);
    writer->Write<std::uint32_t>(kFormatVersion);
    writer->Write<std::int32_t>(options_.order);
    writer->Write<std::int32_t>(options_.leaf_capacity);
    writer->Write<std::int32_t>(options_.num_path_distances);
    writer->Write<std::uint8_t>(options_.store_exact_bounds ? 1 : 0);
    writer->Write<std::uint64_t>(size());
    for (std::size_t id = 0; id < size(); ++id) {
      codec.Write(*writer, object(id));
    }
    WriteStructure(writer, arrays_, [this](std::size_t vp, std::size_t row) {
      return metric_(store_[vp], store_[row]);
    });
    return Status::OK();
  }

  /// Reconstructs a tree serialized by Serialize. `metric` must equal the
  /// build-time metric (stored distances are trusted, not recomputed).
  /// Corrupted or truncated input yields a Corruption status, never UB —
  /// vectors of unequal or zero dimension included, and a structure that
  /// does not store every object exactly once; more than 2^32-1 objects is
  /// InvalidArgument. TreeLayout::Read parses the structure, for flat
  /// arenas too, and the objects, read in id order, are put into row order
  /// in place.
  template <CodecFor<Object> Codec>
  static Result<MvpTree> Deserialize(BinaryReader* reader, Metric metric,
                                     const Codec& codec) {
    std::uint32_t magic = 0, version = 0;
    MVP_RETURN_NOT_OK(reader->Read<std::uint32_t>(&magic));
    if (magic != kMagic) return Status::Corruption("bad mvp-tree magic");
    MVP_RETURN_NOT_OK(reader->Read<std::uint32_t>(&version));
    if (version != kFormatVersion) {
      return Status::NotSupported("unknown mvp-tree format version");
    }
    Options options;
    std::uint8_t bounds_flag = 0;
    MVP_RETURN_NOT_OK(reader->Read<std::int32_t>(&options.order));
    MVP_RETURN_NOT_OK(reader->Read<std::int32_t>(&options.leaf_capacity));
    MVP_RETURN_NOT_OK(reader->Read<std::int32_t>(&options.num_path_distances));
    MVP_RETURN_NOT_OK(reader->Read<std::uint8_t>(&bounds_flag));
    options.store_exact_bounds = bounds_flag != 0;
    if (options.order < 2 || options.leaf_capacity < 1 ||
        options.num_path_distances < 0) {
      return Status::Corruption("mvp-tree options out of range");
    }
    std::uint64_t count = 0;
    MVP_RETURN_NOT_OK(reader->Read<std::uint64_t>(&count));
    if (count > kMaxTreeObjects) {
      return Status::InvalidArgument("mvp-trees hold at most 2^32-1 objects");
    }
    if (count > reader->remaining()) {
      // Every serialized object occupies at least one byte; cheap guard
      // against allocating from a corrupt count.
      return Status::Corruption("object count exceeds buffer");
    }
    auto store = Store::Read(reader, count, codec);
    if (!store.ok()) return store.status();

    MvpTree tree(std::move(store).ValueOrDie(), std::move(metric), options);
    MVP_RETURN_NOT_OK(
        tree.layout_.Read(reader, count, tree.Order(), tree.PathDistances()));
    MVP_RETURN_NOT_OK(tree.OrderRows());
    return tree;
  }

  /// On-disk stream identity, public so other readers of the serialized
  /// stream (the snapshot store's fail-fast options peek) share one
  /// definition instead of re-declaring magics.
  static constexpr std::uint32_t kMagic = 0x5450564d;  // "MVPT"
  static constexpr std::uint32_t kFormatVersion = 1;

 private:
  using Store = ObjectStore<Object>;

  /// Construction working entry, 24 bytes; BuildNode permutes these.
  struct Entry {
    std::size_t id = 0;
    double d1 = 0.0;
    double d2 = 0.0;
  };

  /// Construction working set: the entries, and each object's PATH
  /// distances to its ancestors' vantage points at path[id * stride + j],
  /// narrowed as the leaf columns keep them. Every entry of a node passed
  /// the same ancestors, so BuildNode passes their common PATH length down
  /// instead of storing one per entry.
  struct Working {
    std::vector<Entry> entries;
    std::vector<float> path;
    std::size_t stride = 0;
    Rng rng;
  };

  MvpTree(Store store, Metric metric, const Options& options)
      : store_(std::move(store)),
        metric_(std::move(metric)),
        options_(options) {}

  /// The checks Build makes before it touches the `count` objects.
  static Status CheckBuild(const Options& options, std::size_t count) {
    if (options.order < 2) {
      return Status::InvalidArgument("mvp-tree order (m) must be >= 2");
    }
    if (options.leaf_capacity < 1) {
      return Status::InvalidArgument("mvp-tree leaf capacity (k) must be >= 1");
    }
    if (options.num_path_distances < 0) {
      return Status::InvalidArgument("mvp-tree path distances (p) must be >= 0");
    }
    if (count > kMaxTreeObjects) {
      return Status::InvalidArgument("mvp-trees hold at most 2^32-1 objects");
    }
    return Status::OK();
  }

  /// Builds the tree over `store`, or passes its error on.
  static Result<MvpTree> Grow(Result<Store> store, Metric metric,
                              const Options& options) {
    if (!store.ok()) return store.status();
    MvpTree tree(std::move(store).ValueOrDie(), std::move(metric), options);
    tree.BuildTree();
    [[maybe_unused]] const Status ordered = tree.OrderRows();
    MVP_DCHECK(ordered.ok());
    return tree;
  }

  std::size_t Order() const { return static_cast<std::size_t>(options_.order); }
  std::size_t PathDistances() const {
    return static_cast<std::size_t>(options_.num_path_distances);
  }

  /// The node accessor the shared §4.3 traversal (core/search_shared.h) and
  /// every walk below run on.
  TreeNodes<MvpTree> Access() const { return {this, arrays_}; }

  /// The last step of Build and Deserialize: records the vantage points'
  /// rows, the id -> row map and the arrays view, then moves the objects,
  /// still in id order, into row order in place. Corruption when the
  /// structure does not store every object exactly once.
  Status OrderRows() {
    layout_.AssignRows();
    arrays_ = layout_.Arrays(Order(), PathDistances());
    auto map = RowMap(arrays_, size());
    if (!map.ok()) return map.status();
    row_of_ = std::move(map).ValueOrDie();
    store_.PutInRowOrder(arrays_);
    return Status::OK();
  }

  template <typename A, typename B>
  double Distance(const A& a, const B& b) {
    ++construction_distances_;
    return metric_(a, b);
  }

  void BuildTree() {
    const std::size_t n = size();
    // An internal node holds at least 4 points and each child at most half
    // of its parent's, so no point passes more than log2(n) internal nodes
    // and keeps more than 2*log2(n) PATH distances.
    const auto depth = static_cast<std::size_t>(std::bit_width(n));
    Working w{std::vector<Entry>(n), {}, std::min(PathDistances(), 2 * depth),
              Rng(options_.seed)};
    w.path.resize(n * w.stride);
    for (std::size_t i = 0; i < n; ++i) w.entries[i].id = i;
    // Leaf entries and their PATH slabs fit in these: no regrowth copies.
    layout_.ids.reserve(n);
    layout_.d1_f32.reserve(n);
    layout_.d2_f32.reserve(n);
    layout_.path_f32.reserve(n * w.stride);
    BuildNode(w, 0, n, 0);
  }

  /// Records distance `d`, narrowed, as PATH[j] of object `id` while j < p.
  void RecordPath(Working& w, std::size_t id, std::size_t j, double d) const {
    if (j >= PathDistances()) return;
    MVP_DCHECK(j < w.stride);
    w.path[id * w.stride + j] = metric::kernels::NarrowDistance(d);
  }

  /// §4.2's construction, generalized from m=2 to any m: the first vantage
  /// point partitions the node's points into m groups of equal cardinality;
  /// the second vantage point — drawn from the partition farthest from the
  /// first ("If the two vantage points were close to each other, they would
  /// not be able to effectively partition the dataset") — splits each group
  /// into m subgroups. Appends the subtree to layout_ in preorder and
  /// returns its root's index, kNullChild for an empty range. Each entry
  /// of the range keeps `path_length` PATH distances so far.
  std::uint32_t BuildNode(Working& w, std::size_t begin, std::size_t end,
                          std::size_t path_length) {
    if (begin == end) return kNullChild;
    const std::size_t count = end - begin;
    std::vector<Entry>& entries = w.entries;

    if (count <= static_cast<std::size_t>(options_.leaf_capacity) + 2) {
      return BuildLeaf(w, begin, end, path_length);
    }

    const std::size_t m = Order();

    // -- First vantage point.
    const std::size_t vp1_pos = vptree::SelectVantagePoint(
        begin, end,
        [&](std::size_t i) -> decltype(auto) { return store_[entries[i].id]; },
        metric_, w.rng, options_.selection, &construction_distances_);
    std::swap(entries[begin], entries[vp1_pos]);
    const std::size_t vp1_id = entries[begin].id;
    const auto& vp1 = store_[vp1_id];

    // d(Si, Sv1) for every remaining point; record in PATH while room.
    for (std::size_t i = begin + 1; i < end; ++i) {
      entries[i].d1 = Distance(vp1, store_[entries[i].id]);
      RecordPath(w, entries[i].id, path_length, entries[i].d1);
    }
    std::sort(entries.begin() + static_cast<std::ptrdiff_t>(begin) + 1,
              entries.begin() + static_cast<std::ptrdiff_t>(end),
              [](const Entry& a, const Entry& b) { return a.d1 < b.d1; });

    // Positional split of the count-1 points into m equal groups.
    const std::size_t first = begin + 1;
    const std::size_t points = count - 1;
    std::vector<std::size_t> group_begin(m + 1);
    for (std::size_t g = 0; g <= m; ++g) {
      group_begin[g] = first + points * g / m;
    }

    // -- Second vantage point: arbitrary point of the farthest (last)
    // partition, removed from it. Swapping within the last group is safe:
    // each group is re-sorted by d2 below.
    const std::size_t last_begin = group_begin[m - 1];
    MVP_DCHECK(last_begin < end);  // count >= k+3 >= 4 ensures non-empty
    const std::size_t vp2_pos = last_begin + w.rng.NextIndex(end - last_begin);
    std::swap(entries[vp2_pos], entries[end - 1]);
    const std::size_t vp2_id = entries[end - 1].id;
    const auto& vp2 = store_[vp2_id];
    const std::size_t shrunk_end = end - 1;  // vp2 no longer a data point

    // d(Sj, Sv2) for every remaining point; record in PATH while room.
    for (std::size_t i = first; i < shrunk_end; ++i) {
      entries[i].d2 = Distance(vp2, store_[entries[i].id]);
      RecordPath(w, entries[i].id, path_length + 1, entries[i].d2);
    }
    const std::size_t child_path_length =
        std::min(PathDistances(), path_length + 2);

    // The node precedes its children (preorder). Shells start open, and
    // an empty partition keeps them so: lower 0, upper +inf.
    const std::uint32_t index = layout_.AddInternal(
        static_cast<std::uint32_t>(vp1_id), static_cast<std::uint32_t>(vp2_id),
        m);
    const std::size_t lower1 = layout_.nodes[index].begin;
    const std::size_t upper1 = lower1 + m;
    const std::size_t lower2 = upper1 + m;
    const std::size_t upper2 = lower2 + m * m;
    const std::size_t slots = layout_.nodes[index].children;
    std::vector<double>& bounds = layout_.bounds;

    double prev_cutoff1 = 0.0;
    for (std::size_t g = 0; g < m; ++g) {
      const std::size_t g_begin = group_begin[g];
      const std::size_t g_end = std::min(group_begin[g + 1], shrunk_end);
      if (g_begin >= g_end) continue;  // tiny node: empty partition

      // Shell bounds around vp1 for this group.
      auto [mn, mx] = MinMaxD1(entries, g_begin, g_end);
      if (options_.store_exact_bounds) {
        bounds[lower1 + g] = mn;
        bounds[upper1 + g] = mx;
      } else {
        bounds[lower1 + g] = g == 0 ? 0.0 : prev_cutoff1;
        bounds[upper1 + g] =
            g + 1 == m ? std::numeric_limits<double>::infinity() : mx;
        prev_cutoff1 = mx;
      }

      // Split this group into m subgroups by d2.
      std::sort(entries.begin() + static_cast<std::ptrdiff_t>(g_begin),
                entries.begin() + static_cast<std::ptrdiff_t>(g_end),
                [](const Entry& a, const Entry& b) { return a.d2 < b.d2; });
      const std::size_t sub_points = g_end - g_begin;
      double prev_cutoff2 = 0.0;
      for (std::size_t s = 0; s < m; ++s) {
        const std::size_t s_begin = g_begin + sub_points * s / m;
        const std::size_t s_end = g_begin + sub_points * (s + 1) / m;
        if (s_begin >= s_end) continue;
        const std::size_t c = g * m + s;
        if (options_.store_exact_bounds) {
          bounds[lower2 + c] = entries[s_begin].d2;
          bounds[upper2 + c] = entries[s_end - 1].d2;
        } else {
          bounds[lower2 + c] = s == 0 ? 0.0 : prev_cutoff2;
          bounds[upper2 + c] = s + 1 == m
                                   ? std::numeric_limits<double>::infinity()
                                   : entries[s_end - 1].d2;
          prev_cutoff2 = entries[s_end - 1].d2;
        }
        const std::uint32_t child =
            BuildNode(w, s_begin, s_end, child_path_length);
        layout_.children[slots + c] = child;
      }
    }
    return index;
  }

  std::uint32_t BuildLeaf(Working& w, std::size_t begin, std::size_t end,
                          std::size_t path_length) {
    const std::size_t count = end - begin;
    std::vector<Entry>& entries = w.entries;

    // First vantage point: arbitrary (2.1).
    const std::size_t vp1_pos = begin + w.rng.NextIndex(count);
    std::swap(entries[begin], entries[vp1_pos]);
    const auto vp1_id = static_cast<std::uint32_t>(entries[begin].id);
    if (count == 1) {  // single point: vantage point only
      return layout_.AddLeaf(vp1_id, 0, false, 0, 0);
    }
    const auto& vp1 = store_[vp1_id];

    // D1 for the rest (2.3); second vantage point = farthest from the first
    // (2.4: "the farthest point may very well be the best candidate").
    std::size_t farthest = begin + 1;
    for (std::size_t i = begin + 1; i < end; ++i) {
      entries[i].d1 = Distance(vp1, store_[entries[i].id]);
      if (entries[i].d1 > entries[farthest].d1) farthest = i;
    }
    std::swap(entries[begin + 1], entries[farthest]);
    const auto vp2_id = static_cast<std::uint32_t>(entries[begin + 1].id);
    const auto& vp2 = store_[vp2_id];

    // D2 for the data points (2.6), then the leaf's columns and PATH slab.
    const std::size_t n = count - 2;
    if (n == 0) path_length = 0;
    for (std::size_t i = begin + 2; i < end; ++i) {
      entries[i].d2 = Distance(vp2, store_[entries[i].id]);
      layout_.ids.push_back(static_cast<std::uint32_t>(entries[i].id));
      layout_.d1_f32.push_back(metric::kernels::NarrowDistance(entries[i].d1));
      layout_.d2_f32.push_back(metric::kernels::NarrowDistance(entries[i].d2));
    }
    const std::uint32_t index =
        layout_.AddLeaf(vp1_id, vp2_id, true, n, path_length);
    float* slab =
        layout_.path_f32.data() + layout_.leafpaths[index].slab_offset;
    for (std::size_t i = 0; i < n; ++i) {
      const float* path = w.path.data() + entries[begin + 2 + i].id * w.stride;
      for (std::size_t j = 0; j < path_length; ++j) slab[j * n + i] = path[j];
    }
    return index;
  }

  static std::pair<double, double> MinMaxD1(const std::vector<Entry>& entries,
                                            std::size_t begin,
                                            std::size_t end) {
    // Groups are d1-sorted when this is called right after the d1 sort, but
    // the last group may have had vp2 swapped out, so scan defensively.
    double mn = entries[begin].d1;
    double mx = entries[begin].d1;
    for (std::size_t i = begin + 1; i < end; ++i) {
      mn = std::min(mn, entries[i].d1);
      mx = std::max(mx, entries[i].d1);
    }
    return {mn, mx};
  }

  // --------------------------------------------------------- validation

  /// The row order and the id -> row map: leaf entry e at row e, each
  /// node's vantage points at vp_row and vp_row + 1, those rows tiling
  /// [entry_count, size()) in preorder, and row_of_ naming the same row for
  /// every id. Since row_of_ is one row per id, no id is stored twice.
  Status ValidateRows() const {
    const TreeArrays& t = arrays_;
    const auto check = [&](std::size_t id, std::size_t row,
                           const char* what) -> Status {
      if (id >= size() || row_of_[id] != row) {
        return Status::Corruption(std::string(what) + " " +
                                  std::to_string(id) + " is not at row " +
                                  std::to_string(row));
      }
      return Status::OK();
    };
    for (std::size_t e = 0; e < t.entry_count; ++e) {
      MVP_RETURN_NOT_OK(check(t.ids[e], e, "leaf entry"));
    }
    std::size_t row = t.entry_count;
    for (std::size_t i = 0; i < t.node_count; ++i) {
      const NodeRec& node = t.nodes[i];
      if (node.vp_row != row) {
        return Status::Corruption("node " + std::to_string(i) +
                                  " vantage point rows out of preorder");
      }
      MVP_RETURN_NOT_OK(check(node.vp1, row++, "vantage point"));
      if (VpCount(node) == 2) {
        MVP_RETURN_NOT_OK(check(node.vp2, row++, "vantage point"));
      }
    }
    if (row != size()) {
      return Status::Corruption("tree rows do not cover its " +
                                std::to_string(size()) + " objects");
    }
    return Status::OK();
  }

  /// How validation names an object in a Corruption message.
  static std::string RowName(std::size_t id, std::size_t row) {
    return "object " + std::to_string(id) + " at row " + std::to_string(row);
  }

  Status ValidateNode(const TreeNodes<MvpTree>& nodes, const NodeRec* node,
                      std::vector<std::size_t>& ancestors) const {
    const bool has_vp2 = nodes.VpCount(node) == 2;
    const std::size_t vp1 = nodes.VpRow(node, 0);
    const std::size_t vp2 = has_vp2 ? nodes.VpRow(node, 1) : 0;
    // Distances are recomputed with the vantage point first, as the build
    // computed them. A column value is their narrowing, bit for bit, or NaN
    // where that is NaN: a tree built over a vector with a NaN coordinate
    // stores NaN on purpose.
    const auto narrowed = [](double actual, float stored) {
      const float want = metric::kernels::NarrowDistance(actual);
      return std::memcmp(&want, &stored, sizeof(float)) == 0 ||
             (std::isnan(want) && std::isnan(stored));
    };

    if (nodes.IsLeaf(node)) {
      const SoaLeaf leaf = nodes.Leaf(node);
      const std::size_t expect_path =
          std::min(ancestors.size(), PathDistances());
      if (leaf.size() > 0 && leaf.path_length != expect_path) {
        return Status::Corruption("leaf PATH length mismatch");
      }
      for (std::size_t i = 0; i < leaf.size(); ++i) {
        const auto& obj = store_[leaf.row(i)];
        const auto mismatch = [&](const char* what) {
          return Status::Corruption(RowName(leaf.id(i), leaf.row(i)) + ": " +
                                    what + " mismatches actual distance");
        };
        const double d1 = metric_(store_[vp1], obj);
        if (!narrowed(d1, leaf.d1s[i])) return mismatch("leaf D1");
        if (has_vp2) {
          const double d2 = metric_(store_[vp2], obj);
          if (!narrowed(d2, leaf.d2s[i])) return mismatch("leaf D2");
        }
        for (std::size_t j = 0; j < leaf.path_length; ++j) {
          const double d = metric_(store_[ancestors[j]], obj);
          if (!narrowed(d, leaf.slab[j * leaf.count + i])) {
            return mismatch("leaf PATH distance");
          }
        }
      }
      return Status::OK();
    }

    const std::size_t m = Order();
    PathScope<std::size_t> path(ancestors, PathDistances(),
                                std::array{vp1, vp2});
    const ShellBounds shells1 = nodes.Shells(node, 0);
    const ShellBounds shells2 = nodes.Shells(node, 1);
    Status status;
    for (std::size_t g = 0; g < m && status.ok(); ++g) {
      for (std::size_t s = 0; s < m && status.ok(); ++s) {
        const std::size_t c = g * m + s;
        const NodeRec* child = nodes.Child(node, c);
        if (child == nullptr) continue;
        status = ValidateShell(nodes, child, vp1, shells1.lower[g],
                               shells1.upper[g]);
        if (status.ok() && has_vp2) {
          status = ValidateShell(nodes, child, vp2, shells2.lower[c],
                                 shells2.upper[c]);
        }
        if (status.ok()) status = ValidateNode(nodes, child, ancestors);
      }
    }
    return status;
  }

  /// Every point of `subtree` must lie in [lo, hi] around the vantage point
  /// at row `vp`.
  Status ValidateShell(const TreeNodes<MvpTree>& nodes, const NodeRec* subtree,
                       std::size_t vp, double lo, double hi) const {
    constexpr double kTol = 1e-9;
    auto check = [&](std::size_t id, std::size_t row) -> Status {
      const double d = metric_(store_[row], store_[vp]);
      if (d < lo - kTol || d > hi + kTol) {
        return Status::Corruption(RowName(id, row) +
                                  " lies outside its recorded shell");
      }
      return Status::OK();
    };
    for (std::size_t l = 0; l < nodes.VpCount(subtree); ++l) {
      MVP_RETURN_NOT_OK(
          check(nodes.Vp(subtree, l), nodes.VpRow(subtree, l)));
    }
    if (nodes.IsLeaf(subtree)) {
      const SoaLeaf leaf = nodes.Leaf(subtree);
      for (std::size_t i = 0; i < leaf.size(); ++i) {
        MVP_RETURN_NOT_OK(check(leaf.id(i), leaf.row(i)));
      }
      return Status::OK();
    }
    for (std::size_t c = 0; c < Order() * Order(); ++c) {
      if (const NodeRec* child = nodes.Child(subtree, c); child != nullptr) {
        MVP_RETURN_NOT_OK(ValidateShell(nodes, child, vp, lo, hi));
      }
    }
    return Status::OK();
  }

  Store store_;
  Metric metric_;
  Options options_;
  /// The arrays Build and Deserialize write; empty for a borrowing tree.
  TreeLayout layout_;
  /// What every search and walk reads: layout_'s arrays or the arena's.
  TreeArrays arrays_;
  /// The id -> row map: object id sits at row row_of_[id].
  std::vector<std::uint32_t> row_of_;
  /// Keeps a borrowing tree's arena alive; null otherwise.
  std::shared_ptr<const void> owner_;
  std::uint64_t construction_distances_ = 0;
};

}  // namespace mvp::core

#endif  // MVPTREE_CORE_MVP_TREE_H_
