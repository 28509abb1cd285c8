#ifndef MVPTREE_CORE_MVP_TREE_H_
#define MVPTREE_CORE_MVP_TREE_H_

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "common/codec.h"
#include "common/macros.h"
#include "common/query.h"
#include "common/rng.h"
#include "common/status.h"
#include "core/search_shared.h"
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
/// Template parameters mirror the paper's setting: any object domain with a
/// metric distance function and nothing else.
///
/// Thread safety: the tree is immutable after Build, so const member
/// functions (all searches, Stats, Serialize, ValidateInvariants) may be
/// called concurrently from any number of threads, provided the metric's
/// operator() is itself const-thread-safe (all bundled metrics are;
/// CountingMetric's shared counter is not — use AtomicCountingMetric when
/// counting across threads). src/serve/ builds a concurrent query engine
/// on exactly this guarantee.

namespace mvp::core {

template <typename Object, metric::MetricFor<Object> Metric>
class MvpTree {
 public:
  /// Construction parameters — the paper's (m, k, p) triple plus
  /// reproduction knobs.
  struct Options {
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

  /// Builds an mvp-tree over `objects`; ids are positions in the input.
  /// Returns InvalidArgument for unusable options. Empty input is valid.
  static Result<MvpTree> Build(std::vector<Object> objects, Metric metric,
                               const Options& options = Options{}) {
    if (options.order < 2) {
      return Status::InvalidArgument("mvp-tree order (m) must be >= 2");
    }
    if (options.leaf_capacity < 1) {
      return Status::InvalidArgument("mvp-tree leaf capacity (k) must be >= 1");
    }
    if (options.num_path_distances < 0) {
      return Status::InvalidArgument("mvp-tree path distances (p) must be >= 0");
    }
    MvpTree tree(std::move(objects), std::move(metric), options);
    tree.BuildTree();
    return tree;
  }

  /// All objects within `radius` of `query` (closed ball: d(Xi, Y) <= r),
  /// sorted by distance then id. Implements the depth-first search of §4.3
  /// with the PATH[] query-distance array and leaf filtering.
  std::vector<Neighbor> RangeSearch(const Object& query, double radius,
                                    SearchStats* stats = nullptr) const {
    std::vector<Neighbor> result;
    SearchStats local;
    RangeSearchInto(query, radius, &result, &local);
    std::sort(result.begin(), result.end(), NeighborLess);
    if (stats != nullptr) MergeSearchStats(stats, local);
    return result;
  }

  /// RangeSearch appending unsorted hits into the caller-owned `*out` and
  /// accounting into the caller-owned `*stats` as the search progresses.
  /// Because both outlive an exception unwind, a search cancelled mid-way
  /// (see serve/cancel.h) leaves in `*out` exactly the hits found so far —
  /// each one a true member of the full answer, since every appended
  /// neighbor passed the d(Q, Xi) <= r test with an exact metric value.
  /// This is what the serving layer's partial-results harvest builds on.
  void RangeSearchInto(const Object& query, double radius,
                       std::vector<Neighbor>* out,
                       SearchStats* stats = nullptr) const {
    MVP_DCHECK(radius >= 0);
    MVP_DCHECK(out != nullptr);
    SearchStats local;
    Traversal(Nodes{this}, query, stats != nullptr ? *stats : local)
        .Range(radius, out);
  }

  /// The k nearest objects via shrinking-radius branch-and-bound; children
  /// are visited in order of their distance lower bound (combining both
  /// vantage points) and leaf points are pre-filtered through D1/D2/PATH,
  /// so the mvp-tree's leaf-level filtering carries over to k-NN. Ids that
  /// `exclude` names are never returned (core::Exclusion): the answer is
  /// the k nearest among the rest.
  std::vector<Neighbor> KnnSearch(const Object& query, std::size_t k,
                                  SearchStats* stats = nullptr,
                                  Exclusion exclude = {}) const {
    std::vector<Neighbor> heap;
    SearchStats local;
    KnnSearchInto(query, k, &heap, &local, exclude);
    std::sort_heap(heap.begin(), heap.end(), NeighborLess);
    if (stats != nullptr) MergeSearchStats(stats, local);
    return heap;
  }

  /// KnnSearch maintaining its candidate set in the caller-owned `*heap`
  /// (a max-heap under NeighborLess; pass it empty) and accounting into the
  /// caller-owned `*stats`. On a mid-search cancellation the heap holds the
  /// best <= k neighbors among the points evaluated so far — a valid
  /// degraded answer, though not necessarily the true top-k. Callers
  /// sort (std::sort or std::sort_heap) before presenting.
  void KnnSearchInto(const Object& query, std::size_t k,
                     std::vector<Neighbor>* heap,
                     SearchStats* stats = nullptr,
                     Exclusion exclude = {}) const {
    MVP_DCHECK(heap != nullptr);
    SearchStats local;
    Traversal(Nodes{this}, query, stats != nullptr ? *stats : local)
        .Knn(k, heap, exclude);
  }

  /// Budgeted (approximate) k-NN: identical to KnnSearch but stops after
  /// `max_distance_computations` metric evaluations, returning the best k
  /// found so far. Because children are visited best-bound-first and leaf
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
        Traversal(Nodes{this}, query, local,
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
  /// §2), sorted by decreasing distance. Uses the dual pruning rule: a
  /// subtree is skipped when d(Q,vp) + shell_upper < radius proves every
  /// point is too close.
  std::vector<Neighbor> FarthestRangeSearch(const Object& query, double radius,
                                            SearchStats* stats = nullptr) const {
    std::vector<Neighbor> result;
    SearchStats local;
    if (root_ != nullptr) {
      std::vector<double> qpath;
      FarthestRangeNode(*root_, query, radius, qpath, result, local);
    }
    std::sort(result.begin(), result.end(), FartherFirst);
    if (stats != nullptr) MergeSearchStats(stats, local);
    return result;
  }

  /// The k objects farthest from `query` (§2's "the farthest, or the k
  /// farthest objects"), sorted by decreasing distance.
  std::vector<Neighbor> FarthestSearch(const Object& query, std::size_t k,
                                       SearchStats* stats = nullptr) const {
    std::vector<Neighbor> heap;  // min-heap on distance (worst of the best k)
    SearchStats local;
    if (root_ != nullptr && k > 0) {
      std::vector<double> qpath;
      FarthestKnnNode(*root_, query, k, qpath, heap, local);
    }
    std::sort(heap.begin(), heap.end(), FartherFirst);
    if (stats != nullptr) MergeSearchStats(stats, local);
    return heap;
  }

  std::size_t size() const { return objects_.size(); }
  const Object& object(std::size_t id) const {
    MVP_DCHECK(id < objects_.size());
    return objects_[id];
  }
  const Metric& metric() const { return metric_; }
  const Options& options() const { return options_; }

  /// Structural statistics. For a full mvp-tree of height h the paper gives
  /// 2*(m^(2h) - 1)/(m^2 - 1) vantage points and m^(2(h-1))*k leaf points;
  /// tests validate these formulas against this accounting.
  TreeStats Stats() const {
    TreeStats stats;
    stats.construction_distance_computations = construction_distances_;
    if (root_ != nullptr) CollectStats(*root_, 1, stats);
    return stats;
  }

  /// Deep consistency check (O(n log n) distance computations): verifies
  /// that every point is stored exactly once; that every leaf's D1/D2 and
  /// PATH entries equal the actual distances to the leaf's own and ancestor
  /// vantage points; and that every point's distance to each ancestor
  /// vantage point lies inside its child's recorded shell. Returns
  /// Corruption naming the first violated invariant — useful after
  /// deserializing untrusted bytes or when developing custom metrics.
  Status ValidateInvariants() const {
    std::vector<bool> seen(objects_.size(), false);
    if (root_ == nullptr) {
      return objects_.empty()
                 ? Status::OK()
                 : Status::Corruption("non-empty tree has no root");
    }
    std::vector<const Object*> ancestors;
    MVP_RETURN_NOT_OK(ValidateNode(*root_, ancestors, seen));
    for (std::size_t id = 0; id < seen.size(); ++id) {
      if (!seen[id]) {
        return Status::Corruption("object " + std::to_string(id) +
                                  " missing from tree");
      }
    }
    return Status::OK();
  }

  /// Serializes the tree (options, objects via `codec`, structure, stored
  /// distances) into the versioned little-endian format described in
  /// DESIGN.md §5.6. The metric itself is NOT serialized; Deserialize must
  /// be handed the same metric the tree was built with.
  template <CodecFor<Object> Codec>
  Status Serialize(BinaryWriter* writer, const Codec& codec) const {
    writer->Write<std::uint32_t>(kMagic);
    writer->Write<std::uint32_t>(kFormatVersion);
    writer->Write<std::int32_t>(options_.order);
    writer->Write<std::int32_t>(options_.leaf_capacity);
    writer->Write<std::int32_t>(options_.num_path_distances);
    writer->Write<std::uint8_t>(options_.store_exact_bounds ? 1 : 0);
    writer->Write<std::uint64_t>(objects_.size());
    for (const Object& obj : objects_) codec.Write(*writer, obj);
    writer->WriteVector(path_pool_);
    WriteNode(writer, root_.get());
    return Status::OK();
  }

  /// Reconstructs a tree serialized by Serialize. `metric` must equal the
  /// build-time metric (stored distances are trusted, not recomputed).
  /// Corrupted or truncated input yields a Corruption status, never UB.
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
    if (count > reader->remaining()) {
      // Every serialized object occupies at least one byte; cheap guard
      // against allocating from a corrupt count.
      return Status::Corruption("object count exceeds buffer");
    }
    std::vector<Object> objects(static_cast<std::size_t>(count));
    for (auto& obj : objects) MVP_RETURN_NOT_OK(codec.Read(*reader, &obj));

    MvpTree tree(std::move(objects), std::move(metric), options);
    MVP_RETURN_NOT_OK(reader->ReadVector(&tree.path_pool_));
    auto root = ReadNode(reader, tree, 0);
    if (!root.ok()) return root.status();
    tree.root_ = std::move(root).ValueOrDie();
    return tree;
  }

  /// On-disk stream identity, public so other readers of the serialized
  /// stream (the flat-arena transcoder, the snapshot store's fail-fast
  /// options peek) share one definition instead of re-declaring magics.
  static constexpr std::uint32_t kMagic = 0x5450564d;  // "MVPT"
  static constexpr std::uint32_t kFormatVersion = 1;
  static constexpr std::size_t kMaxDeserializeDepth = 512;

 private:
  /// One data point stored in a leaf: its id, exact distances to the leaf's
  /// two vantage points (the paper's D1[i], D2[i] arrays), and its PATH
  /// distances to the first p ancestor vantage points, stored in a shared
  /// flat pool to keep leaves cache-friendly.
  struct LeafEntry {
    std::size_t id = 0;
    double d1 = 0.0;
    double d2 = 0.0;
    std::uint32_t path_offset = 0;
    std::uint32_t path_length = 0;
  };

  struct Node {
    bool is_leaf = false;
    std::size_t vp1_id = 0;
    std::size_t vp2_id = 0;
    bool has_vp2 = false;
    // Internal nodes: m shells around vp1 and, per first-level partition,
    // m shells around vp2 — flattened as child index c = i*m + j.
    std::vector<double> lower1, upper1;  // size m
    std::vector<double> lower2, upper2;  // size m*m
    std::vector<std::unique_ptr<Node>> children;  // size m*m
    // Leaf nodes:
    std::vector<LeafEntry> bucket;
  };

  /// Construction working entry; `path` accumulates ancestor distances.
  struct Entry {
    std::size_t id = 0;
    double d1 = 0.0;
    double d2 = 0.0;
    std::vector<double> path;
  };

  MvpTree(std::vector<Object> objects, Metric metric, const Options& options)
      : objects_(std::move(objects)),
        metric_(std::move(metric)),
        options_(options) {}

  double Distance(const Object& a, const Object& b) {
    ++construction_distances_;
    return metric_(a, b);
  }

  void BuildTree() {
    Rng rng(options_.seed);
    std::vector<Entry> entries(objects_.size());
    for (std::size_t i = 0; i < objects_.size(); ++i) entries[i].id = i;
    root_ = BuildNode(entries, 0, entries.size(), rng);
  }

  /// §4.2's construction, generalized from m=2 to any m: the first vantage
  /// point partitions the node's points into m groups of equal cardinality;
  /// the second vantage point — drawn from the partition farthest from the
  /// first ("If the two vantage points were close to each other, they would
  /// not be able to effectively partition the dataset") — splits each group
  /// into m subgroups.
  std::unique_ptr<Node> BuildNode(std::vector<Entry>& entries,
                                  std::size_t begin, std::size_t end,
                                  Rng& rng) {
    if (begin == end) return nullptr;
    const std::size_t count = end - begin;
    const std::size_t p =
        static_cast<std::size_t>(options_.num_path_distances);

    if (count <= static_cast<std::size_t>(options_.leaf_capacity) + 2) {
      return BuildLeaf(entries, begin, end, rng);
    }

    auto node = std::make_unique<Node>();
    const std::size_t m = static_cast<std::size_t>(options_.order);

    // -- First vantage point.
    const std::size_t vp1_pos = vptree::SelectVantagePoint(
        begin, end,
        [&](std::size_t i) -> const Object& { return objects_[entries[i].id]; },
        metric_, rng, options_.selection, &construction_distances_);
    std::swap(entries[begin], entries[vp1_pos]);
    node->vp1_id = entries[begin].id;
    const Object& vp1 = objects_[node->vp1_id];

    // d(Si, Sv1) for every remaining point; record in PATH while room.
    for (std::size_t i = begin + 1; i < end; ++i) {
      entries[i].d1 = Distance(vp1, objects_[entries[i].id]);
      if (entries[i].path.size() < p) entries[i].path.push_back(entries[i].d1);
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
    const std::size_t vp2_pos = last_begin + rng.NextIndex(end - last_begin);
    std::swap(entries[vp2_pos], entries[end - 1]);
    node->vp2_id = entries[end - 1].id;
    node->has_vp2 = true;
    const Object& vp2 = objects_[node->vp2_id];
    const std::size_t shrunk_end = end - 1;  // vp2 no longer a data point

    // d(Sj, Sv2) for every remaining point; record in PATH while room.
    for (std::size_t i = first; i < shrunk_end; ++i) {
      entries[i].d2 = Distance(vp2, objects_[entries[i].id]);
      if (entries[i].path.size() < p) entries[i].path.push_back(entries[i].d2);
    }

    node->children.resize(m * m);
    node->lower1.assign(m, 0.0);
    node->upper1.assign(m, std::numeric_limits<double>::infinity());
    node->lower2.assign(m * m, 0.0);
    node->upper2.assign(m * m, std::numeric_limits<double>::infinity());

    double prev_cutoff1 = 0.0;
    for (std::size_t g = 0; g < m; ++g) {
      const std::size_t g_begin = group_begin[g];
      const std::size_t g_end = std::min(group_begin[g + 1], shrunk_end);
      if (g_begin >= g_end) continue;  // tiny node: empty partition

      // Shell bounds around vp1 for this group.
      if (options_.store_exact_bounds) {
        auto [mn, mx] = MinMaxD1(entries, g_begin, g_end);
        node->lower1[g] = mn;
        node->upper1[g] = mx;
      } else {
        auto [mn, mx] = MinMaxD1(entries, g_begin, g_end);
        node->lower1[g] = g == 0 ? 0.0 : prev_cutoff1;
        node->upper1[g] =
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
          node->lower2[c] = entries[s_begin].d2;
          node->upper2[c] = entries[s_end - 1].d2;
        } else {
          node->lower2[c] = s == 0 ? 0.0 : prev_cutoff2;
          node->upper2[c] = s + 1 == m
                                ? std::numeric_limits<double>::infinity()
                                : entries[s_end - 1].d2;
          prev_cutoff2 = entries[s_end - 1].d2;
        }
        node->children[c] = BuildNode(entries, s_begin, s_end, rng);
      }
    }
    return node;
  }

  std::unique_ptr<Node> BuildLeaf(std::vector<Entry>& entries,
                                  std::size_t begin, std::size_t end,
                                  Rng& rng) {
    auto leaf = std::make_unique<Node>();
    leaf->is_leaf = true;
    const std::size_t count = end - begin;

    // First vantage point: arbitrary (2.1).
    const std::size_t vp1_pos = begin + rng.NextIndex(count);
    std::swap(entries[begin], entries[vp1_pos]);
    leaf->vp1_id = entries[begin].id;
    const Object& vp1 = objects_[leaf->vp1_id];
    if (count == 1) return leaf;  // single point: vantage point only

    // D1 for the rest (2.3); second vantage point = farthest from the first
    // (2.4: "the farthest point may very well be the best candidate").
    std::size_t farthest = begin + 1;
    for (std::size_t i = begin + 1; i < end; ++i) {
      entries[i].d1 = Distance(vp1, objects_[entries[i].id]);
      if (entries[i].d1 > entries[farthest].d1) farthest = i;
    }
    std::swap(entries[begin + 1], entries[farthest]);
    leaf->vp2_id = entries[begin + 1].id;
    leaf->has_vp2 = true;
    const Object& vp2 = objects_[leaf->vp2_id];

    // D2 for the data points (2.6) and bucket materialization.
    leaf->bucket.reserve(count - 2);
    for (std::size_t i = begin + 2; i < end; ++i) {
      entries[i].d2 = Distance(vp2, objects_[entries[i].id]);
      LeafEntry e;
      e.id = entries[i].id;
      e.d1 = entries[i].d1;
      e.d2 = entries[i].d2;
      e.path_offset = static_cast<std::uint32_t>(path_pool_.size());
      e.path_length = static_cast<std::uint32_t>(entries[i].path.size());
      path_pool_.insert(path_pool_.end(), entries[i].path.begin(),
                        entries[i].path.end());
      leaf->bucket.push_back(e);
    }
    return leaf;
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

  // ---------------------------------------------------------------- search

  /// The node accessor the shared §4.3 traversal (core/search_shared.h)
  /// runs on; the flat views supply the same interface over arena bytes.
  struct Nodes {
    const MvpTree* tree;

    const Node* Root() const { return tree->root_.get(); }
    std::size_t Order() const {
      return static_cast<std::size_t>(tree->options_.order);
    }
    std::size_t PathDistances() const {
      return static_cast<std::size_t>(tree->options_.num_path_distances);
    }
    static constexpr std::size_t Levels() { return 2; }
    bool IsLeaf(const Node* n) const { return n->is_leaf; }
    std::size_t VpCount(const Node* n) const { return n->has_vp2 ? 2 : 1; }
    std::size_t Vp(const Node* n, std::size_t l) const {
      return l == 0 ? n->vp1_id : n->vp2_id;
    }
    ShellBounds Shells(const Node* n, std::size_t l) const {
      return l == 0 ? ShellBounds{n->lower1.data(), n->upper1.data()}
                    : ShellBounds{n->lower2.data(), n->upper2.data()};
    }
    const Node* Child(const Node* n, std::size_t c) const {
      return n->children[c].get();
    }
    AosLeaf<LeafEntry> Leaf(const Node* n) const {
      return {n->bucket.data(), n->bucket.size(), tree->path_pool_.data()};
    }
    const Metric& metric() const { return tree->metric_; }
    const Object& object(std::size_t id) const { return tree->objects_[id]; }
  };

  // --------------------------------------------------------- validation

  Status ValidateNode(const Node& node, std::vector<const Object*>& ancestors,
                      std::vector<bool>& seen) const {
    auto mark = [&](std::size_t id) -> Status {
      if (id >= objects_.size()) {
        return Status::Corruption("id out of range");
      }
      if (seen[id]) {
        return Status::Corruption("object " + std::to_string(id) +
                                  " stored twice");
      }
      seen[id] = true;
      return Status::OK();
    };
    MVP_RETURN_NOT_OK(mark(node.vp1_id));
    if (node.has_vp2) MVP_RETURN_NOT_OK(mark(node.vp2_id));

    const Object& vp1 = objects_[node.vp1_id];
    const Object* vp2 = node.has_vp2 ? &objects_[node.vp2_id] : nullptr;
    constexpr double kTol = 1e-9;

    if (node.is_leaf) {
      for (const LeafEntry& x : node.bucket) {
        MVP_RETURN_NOT_OK(mark(x.id));
        const Object& obj = objects_[x.id];
        if (std::abs(metric_(obj, vp1) - x.d1) > kTol) {
          return Status::Corruption("leaf D1 mismatches actual distance");
        }
        if (vp2 != nullptr && std::abs(metric_(obj, *vp2) - x.d2) > kTol) {
          return Status::Corruption("leaf D2 mismatches actual distance");
        }
        const std::size_t expect_path = std::min(
            ancestors.size(),
            static_cast<std::size_t>(options_.num_path_distances));
        if (x.path_length != expect_path) {
          return Status::Corruption("leaf PATH length mismatch");
        }
        for (std::size_t j = 0; j < x.path_length; ++j) {
          if (std::abs(metric_(obj, *ancestors[j]) -
                       path_pool_[x.path_offset + j]) > kTol) {
            return Status::Corruption("leaf PATH distance mismatch");
          }
        }
      }
      return Status::OK();
    }

    const std::size_t m = static_cast<std::size_t>(options_.order);
    if (node.children.size() != m * m) {
      return Status::Corruption("internal node child count mismatch");
    }
    const Object* const vps[] = {&vp1, vp2};
    PathScope<const Object*> path(
        ancestors, static_cast<std::size_t>(options_.num_path_distances), vps);
    Status status;
    for (std::size_t g = 0; g < m && status.ok(); ++g) {
      for (std::size_t s = 0; s < m && status.ok(); ++s) {
        const std::size_t c = g * m + s;
        if (node.children[c] == nullptr) continue;
        status = ValidateShell(*node.children[c], vp1, node.lower1[g],
                               node.upper1[g]);
        if (status.ok() && vp2 != nullptr) {
          status = ValidateShell(*node.children[c], *vp2, node.lower2[c],
                                 node.upper2[c]);
        }
        if (status.ok()) {
          status = ValidateNode(*node.children[c], ancestors, seen);
        }
      }
    }
    return status;
  }

  /// Every point of `subtree` must lie in [lo, hi] around `vp`.
  Status ValidateShell(const Node& subtree, const Object& vp, double lo,
                       double hi) const {
    constexpr double kTol = 1e-9;
    auto check = [&](std::size_t id) -> Status {
      const double d = metric_(objects_[id], vp);
      if (d < lo - kTol || d > hi + kTol) {
        return Status::Corruption("point outside its recorded shell");
      }
      return Status::OK();
    };
    MVP_RETURN_NOT_OK(check(subtree.vp1_id));
    if (subtree.has_vp2) MVP_RETURN_NOT_OK(check(subtree.vp2_id));
    if (subtree.is_leaf) {
      for (const LeafEntry& x : subtree.bucket) MVP_RETURN_NOT_OK(check(x.id));
      return Status::OK();
    }
    for (const auto& child : subtree.children) {
      if (child != nullptr) MVP_RETURN_NOT_OK(ValidateShell(*child, vp, lo, hi));
    }
    return Status::OK();
  }

  // ------------------------------------------------------- serialization

  static void WriteNode(BinaryWriter* writer, const Node* node) {
    if (node == nullptr) {
      writer->Write<std::uint8_t>(0);
      return;
    }
    writer->Write<std::uint8_t>(node->is_leaf ? 1 : 2);
    writer->Write<std::uint64_t>(node->vp1_id);
    writer->Write<std::uint8_t>(node->has_vp2 ? 1 : 0);
    writer->Write<std::uint64_t>(node->vp2_id);
    if (node->is_leaf) {
      writer->Write<std::uint64_t>(node->bucket.size());
      for (const LeafEntry& e : node->bucket) {
        writer->Write<std::uint64_t>(e.id);
        writer->Write<double>(e.d1);
        writer->Write<double>(e.d2);
        writer->Write<std::uint32_t>(e.path_offset);
        writer->Write<std::uint32_t>(e.path_length);
      }
      return;
    }
    writer->WriteVector(node->lower1);
    writer->WriteVector(node->upper1);
    writer->WriteVector(node->lower2);
    writer->WriteVector(node->upper2);
    for (const auto& child : node->children) WriteNode(writer, child.get());
  }

  static Result<std::unique_ptr<Node>> ReadNode(BinaryReader* reader,
                                                const MvpTree& tree,
                                                std::size_t depth) {
    if (depth > kMaxDeserializeDepth) {
      return Status::Corruption("mvp-tree nesting too deep");
    }
    std::uint8_t tag = 0;
    MVP_RETURN_NOT_OK(reader->Read<std::uint8_t>(&tag));
    if (tag == 0) return std::unique_ptr<Node>();
    if (tag > 2) return Status::Corruption("bad mvp-tree node tag");

    auto node = std::make_unique<Node>();
    node->is_leaf = tag == 1;
    std::uint64_t vp1 = 0, vp2 = 0;
    std::uint8_t has_vp2 = 0;
    MVP_RETURN_NOT_OK(reader->Read<std::uint64_t>(&vp1));
    MVP_RETURN_NOT_OK(reader->Read<std::uint8_t>(&has_vp2));
    MVP_RETURN_NOT_OK(reader->Read<std::uint64_t>(&vp2));
    const std::size_t n = tree.objects_.size();
    if (vp1 >= n || (has_vp2 != 0 && vp2 >= n)) {
      return Status::Corruption("vantage point id out of range");
    }
    if (!node->is_leaf && has_vp2 == 0) {
      return Status::Corruption(
          "internal mvp-tree node lacks a second vantage point");
    }
    node->vp1_id = static_cast<std::size_t>(vp1);
    node->vp2_id = static_cast<std::size_t>(vp2);
    node->has_vp2 = has_vp2 != 0;

    if (node->is_leaf) {
      std::uint64_t bucket_size = 0;
      MVP_RETURN_NOT_OK(reader->Read<std::uint64_t>(&bucket_size));
      if (bucket_size > reader->remaining()) {
        return Status::Corruption("leaf bucket size exceeds buffer");
      }
      node->bucket.resize(static_cast<std::size_t>(bucket_size));
      for (LeafEntry& e : node->bucket) {
        std::uint64_t id = 0;
        MVP_RETURN_NOT_OK(reader->Read<std::uint64_t>(&id));
        MVP_RETURN_NOT_OK(reader->Read<double>(&e.d1));
        MVP_RETURN_NOT_OK(reader->Read<double>(&e.d2));
        MVP_RETURN_NOT_OK(reader->Read<std::uint32_t>(&e.path_offset));
        MVP_RETURN_NOT_OK(reader->Read<std::uint32_t>(&e.path_length));
        if (id >= n) return Status::Corruption("leaf point id out of range");
        if (static_cast<std::size_t>(e.path_offset) + e.path_length >
            tree.path_pool_.size()) {
          return Status::Corruption("leaf PATH slice out of pool range");
        }
        e.id = static_cast<std::size_t>(id);
      }
      return node;
    }

    const std::size_t m = static_cast<std::size_t>(tree.options_.order);
    MVP_RETURN_NOT_OK(reader->ReadVector(&node->lower1));
    MVP_RETURN_NOT_OK(reader->ReadVector(&node->upper1));
    MVP_RETURN_NOT_OK(reader->ReadVector(&node->lower2));
    MVP_RETURN_NOT_OK(reader->ReadVector(&node->upper2));
    if (node->lower1.size() != m || node->upper1.size() != m ||
        node->lower2.size() != m * m || node->upper2.size() != m * m) {
      return Status::Corruption("internal node bound arrays malformed");
    }
    node->children.resize(m * m);
    for (auto& child : node->children) {
      auto sub = ReadNode(reader, tree, depth + 1);
      if (!sub.ok()) return sub.status();
      child = std::move(sub).ValueOrDie();
    }
    return node;
  }

  // ------------------------------------------------------ farthest search

  static bool FartherFirst(const Neighbor& a, const Neighbor& b) {
    if (a.distance != b.distance) return a.distance > b.distance;
    return a.id < b.id;
  }

  /// Upper bound on d(Q, x) for a leaf entry from the stored distances:
  /// d(Q,x) <= d(Q,sv) + d(x,sv) for every stored vantage point.
  double LeafUpperBound(const Node& node, const LeafEntry& x, double d1,
                        double d2, const std::vector<double>& qpath) const {
    double ub = d1 + x.d1;
    if (node.has_vp2) ub = std::min(ub, d2 + x.d2);
    const std::size_t checks =
        std::min(qpath.size(), static_cast<std::size_t>(x.path_length));
    for (std::size_t j = 0; j < checks; ++j) {
      ub = std::min(ub, qpath[j] + path_pool_[x.path_offset + j]);
    }
    return ub;
  }

  void FarthestRangeNode(const Node& node, const Object& query, double radius,
                         std::vector<double>& qpath,
                         std::vector<Neighbor>& result,
                         SearchStats& stats) const {
    ++stats.nodes_visited;
    const double d1 = metric_(query, objects_[node.vp1_id]);
    ++stats.distance_computations;
    if (d1 >= radius) result.push_back(Neighbor{node.vp1_id, d1});
    double d2 = 0.0;
    if (node.has_vp2) {
      d2 = metric_(query, objects_[node.vp2_id]);
      ++stats.distance_computations;
      if (d2 >= radius) result.push_back(Neighbor{node.vp2_id, d2});
    }
    if (node.is_leaf) {
      for (const LeafEntry& x : node.bucket) {
        ++stats.leaf_points_seen;
        if (LeafUpperBound(node, x, d1, d2, qpath) < radius) {
          ++stats.leaf_points_filtered;
          continue;
        }
        const double d = metric_(query, objects_[x.id]);
        ++stats.distance_computations;
        if (d >= radius) result.push_back(Neighbor{x.id, d});
      }
      return;
    }
    PathScope<double> path(
        qpath, static_cast<std::size_t>(options_.num_path_distances),
        std::array{d1, d2});
    const std::size_t m = static_cast<std::size_t>(options_.order);
    for (std::size_t g = 0; g < m; ++g) {
      // Max possible distance within shell g: d1 + upper1[g].
      if (d1 + node.upper1[g] < radius) continue;
      for (std::size_t s = 0; s < m; ++s) {
        const std::size_t c = g * m + s;
        if (node.children[c] == nullptr) continue;
        if (d2 + node.upper2[c] < radius) continue;
        FarthestRangeNode(*node.children[c], query, radius, qpath, result,
                          stats);
      }
    }
  }

  /// Current farthest-k pruning threshold: the k-th farthest so far.
  static double FarTau(const std::vector<Neighbor>& heap, std::size_t k) {
    return heap.size() < k ? 0.0 : heap.front().distance;
  }

  static void OfferFar(std::vector<Neighbor>& heap, std::size_t k,
                       Neighbor n) {
    // Heap maximum under FartherFirst = the closest (least good) of the
    // kept k — the element evicted when something farther arrives. Mirrors
    // core::KnnOffer, whose NeighborLess-heap keeps the farthest at the front.
    if (heap.size() < k) {
      heap.push_back(n);
      std::push_heap(heap.begin(), heap.end(), FartherFirst);
    } else if (FartherFirst(n, heap.front())) {
      std::pop_heap(heap.begin(), heap.end(), FartherFirst);
      heap.back() = n;
      std::push_heap(heap.begin(), heap.end(), FartherFirst);
    }
  }

  void FarthestKnnNode(const Node& node, const Object& query, std::size_t k,
                       std::vector<double>& qpath,
                       std::vector<Neighbor>& heap,
                       SearchStats& stats) const {
    ++stats.nodes_visited;
    const double d1 = metric_(query, objects_[node.vp1_id]);
    ++stats.distance_computations;
    OfferFar(heap, k, Neighbor{node.vp1_id, d1});
    double d2 = 0.0;
    if (node.has_vp2) {
      d2 = metric_(query, objects_[node.vp2_id]);
      ++stats.distance_computations;
      OfferFar(heap, k, Neighbor{node.vp2_id, d2});
    }
    if (node.is_leaf) {
      for (const LeafEntry& x : node.bucket) {
        ++stats.leaf_points_seen;
        if (LeafUpperBound(node, x, d1, d2, qpath) < FarTau(heap, k)) {
          ++stats.leaf_points_filtered;
          continue;
        }
        const double d = metric_(query, objects_[x.id]);
        ++stats.distance_computations;
        OfferFar(heap, k, Neighbor{x.id, d});
      }
      return;
    }
    PathScope<double> path(
        qpath, static_cast<std::size_t>(options_.num_path_distances),
        std::array{d1, d2});
    // Visit children in decreasing order of their distance upper bound.
    struct Ranked {
      double bound;
      std::size_t child;
    };
    const std::size_t m = static_cast<std::size_t>(options_.order);
    std::vector<Ranked> ranked;
    ranked.reserve(m * m);
    for (std::size_t g = 0; g < m; ++g) {
      for (std::size_t s = 0; s < m; ++s) {
        const std::size_t c = g * m + s;
        if (node.children[c] == nullptr) continue;
        ranked.push_back(Ranked{
            std::min(d1 + node.upper1[g], d2 + node.upper2[c]), c});
      }
    }
    std::sort(ranked.begin(), ranked.end(),
              [](const Ranked& a, const Ranked& b) { return a.bound > b.bound; });
    for (const Ranked& r : ranked) {
      if (r.bound < FarTau(heap, k)) break;
      FarthestKnnNode(*node.children[r.child], query, k, qpath, heap, stats);
    }
  }

  void CollectStats(const Node& node, std::size_t depth,
                    TreeStats& stats) const {
    stats.height = std::max(stats.height, depth);
    stats.num_vantage_points += node.has_vp2 ? 2 : 1;
    if (node.is_leaf) {
      ++stats.num_leaf_nodes;
      stats.num_leaf_points += node.bucket.size();
      return;
    }
    ++stats.num_internal_nodes;
    for (const auto& child : node.children) {
      if (child != nullptr) CollectStats(*child, depth + 1, stats);
    }
  }

  std::vector<Object> objects_;
  Metric metric_;
  Options options_;
  std::unique_ptr<Node> root_;
  std::vector<double> path_pool_;
  std::uint64_t construction_distances_ = 0;
};

}  // namespace mvp::core

#endif  // MVPTREE_CORE_MVP_TREE_H_
