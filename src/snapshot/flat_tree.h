#ifndef MVPTREE_SNAPSHOT_FLAT_TREE_H_
#define MVPTREE_SNAPSHOT_FLAT_TREE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/query.h"
#include "common/status.h"
#include "core/mvp_tree.h"
#include "core/search_shared.h"
#include "core/tree_layout.h"
#include "metric/lp.h"

/// \file
/// The flat mvp-tree: a position-independent, offset-based encoding of one
/// shard tree in a single contiguous arena, searched directly out of the
/// mmap'd snapshot container — zero deserialization, zero per-load
/// allocation. Where the heap tree pays an object decode and a structure
/// parse before its first query, opening a flat arena is: map the file, CRC
/// the chunk, validate the arena's offsets once, and search.
///
/// The arena's sections are the arrays of core/tree_layout.h byte for byte,
/// the same ones a heap tree owns in vectors, behind a header and the
/// stored vectors — the row-major slab a heap vector tree owns, which both
/// hand out as metric::VectorView (all integers little-endian;
/// docs/index_format.md has the byte-level diagrams; every section starts
/// on an 8-byte boundary within the arena, and the snapshot writer
/// 8-aligns the arena's file offset so in-memory records are naturally
/// aligned under both mmap and the heap fallback). Version 2 is the only
/// layout a view serves:
///
///   FlatHeaderRec + FlatHeaderExtRec   fixed 192 bytes
///   objects   f64[object_count * dim]     vectors, row-major, viewed in
///                                         place
///   path      f64[path_count]             the column-major PATH slabs
///   bounds    f64[bounds_count]           the shell bounds pool
///   ids       u32[entry_count]            at entries_offset
///   d1, d2    f64[entry_count]            the D1[]/D2[] columns
///   leafpaths LeafPathRec[node_count]     per-node PATH slab records
///   nodes     NodeRec[node_count]         preorder; root is node 0
///   children  u32[children_count]         m*m slots per internal node
///
/// Slabs are canonical: laid end to end in node order with no gaps or
/// overlap, which ParseFlatArena enforces, so a hostile arena cannot alias
/// slabs or leave them misaligned.
///
/// Version 1 is read only as upgrade input. It has the same 144-byte header
/// prefix with no extension, one shared PATH pool, and array-of-structs
/// leaf entries (FlatLeafEntryRec: id, D1, D2 and a PATH slice) at
/// entries_offset. FlatTreeView::Open validates a v1 arena, transcodes it
/// with UpgradeFlatArena into a v2 arena it owns, and serves that.
///
/// Safety: the arena is untrusted bytes. ParseFlatArena bounds-checks every
/// offset/count, and a structural pass enforces that child links point
/// strictly forward (preorder), that every node is referenced exactly once,
/// and that depth stays within core::kMaxTreeDepth — so a corrupted arena
/// yields Status::Corruption at open, never a crash or an unterminated
/// traversal. A view searches through core::TreeNodes, the accessor the
/// heap tree uses, so results and every SearchStats counter are
/// bit-identical to the heap tree by construction, and
/// tests/search_counts_golden_test.cc pins the counts.

namespace mvp::snapshot::flat {

inline constexpr std::uint32_t kFlatMagic = 0x5a50564d;  // "MVPZ"
inline constexpr std::uint32_t kFlatVersionV1 = 1;
inline constexpr std::uint32_t kFlatVersionV2 = 2;  ///< the one written
inline constexpr std::uint64_t kNoNode = ~std::uint64_t{0};  ///< empty root
inline constexpr std::size_t kFlatAlignment = 8;

/// Fixed arena header. POD with explicit field order chosen so the struct
/// has no padding; written/read by memcpy on the (little-endian,
/// byte-addressable) targets this library supports.
struct FlatHeaderRec {
  std::uint32_t magic = kFlatMagic;
  std::uint32_t version = kFlatVersionV2;
  std::uint32_t order = 0;               ///< m
  std::uint32_t leaf_capacity = 0;       ///< k
  std::uint32_t num_path_distances = 0;  ///< p
  std::uint32_t flags = 0;               ///< bit0 = store_exact_bounds
  std::uint32_t dim = 0;                 ///< dimensions per stored vector
  std::uint32_t reserved = 0;
  std::uint64_t object_count = 0;
  std::uint64_t node_count = 0;
  std::uint64_t root = kNoNode;
  std::uint64_t objects_offset = 0;
  std::uint64_t path_offset = 0;
  std::uint64_t path_count = 0;
  std::uint64_t bounds_offset = 0;
  std::uint64_t bounds_count = 0;
  std::uint64_t entries_offset = 0;
  std::uint64_t entry_count = 0;
  std::uint64_t nodes_offset = 0;
  std::uint64_t children_offset = 0;
  std::uint64_t children_count = 0;
  std::uint64_t arena_bytes = 0;
};
static_assert(sizeof(FlatHeaderRec) == 144, "header layout drifted");

/// v2 header extension, immediately after FlatHeaderRec. The 144-byte prefix
/// keeps its exact v1 layout (entries_offset holds the ids section,
/// path_offset/path_count hold the slab pool), so offset-based tooling and
/// the corruption sweep's fixed pokes stay meaningful across versions.
struct FlatHeaderExtRec {
  std::uint64_t d1_offset = 0;
  std::uint64_t d2_offset = 0;
  std::uint64_t leafpaths_offset = 0;
  std::uint64_t reserved0 = 0;
  std::uint64_t reserved1 = 0;
  std::uint64_t reserved2 = 0;
};
static_assert(sizeof(FlatHeaderExtRec) == 48, "header ext layout drifted");

inline constexpr std::size_t kFlatHeaderBytesV1 = sizeof(FlatHeaderRec);
inline constexpr std::size_t kFlatHeaderBytesV2 =
    sizeof(FlatHeaderRec) + sizeof(FlatHeaderExtRec);

inline constexpr std::uint32_t kHeaderExactBounds = 1u << 0;

/// One v1 leaf point, 32 bytes: the paper's D1[i]/D2[i] plus its PATH slice.
struct FlatLeafEntryRec {
  std::uint32_t id = 0;
  std::uint32_t path_offset = 0;
  std::uint32_t path_length = 0;
  std::uint32_t reserved = 0;
  double d1 = 0.0;
  double d2 = 0.0;
};
static_assert(sizeof(FlatLeafEntryRec) == 32, "leaf entry layout drifted");

/// Lays out a heap tree over vectors as a v2 flat arena, straight from its
/// arrays: the row-major slab of `dim`-double rows (core::MvpTree::rows()
/// and dim(), which the tree keeps within the header's u32) and layout().
std::vector<std::uint8_t> BuildFlatArena(const core::MvpTreeOptions& options,
                                         std::span<const double> rows,
                                         std::size_t dim,
                                         const core::TreeLayout& layout);

/// The v2 arena of one serialized MvpTree stream (the exact bytes
/// MvpTree::Serialize + VectorCodec emit): MvpTree::Deserialize, which
/// parses the structure for both representations, then the overload
/// above. Also Corruption for bytes after the stream.
Result<std::vector<std::uint8_t>> BuildFlatArena(const std::uint8_t* stream,
                                                 std::size_t length);

/// A bounds-checked, structurally validated view into a flat arena. All
/// pointers alias the caller's bytes, which must outlive the view. For v1,
/// `tree` has no ids/d1/d2/leafpaths and its path is the shared pool.
struct FlatArenaParts {
  FlatHeaderRec header;
  const double* objects = nullptr;
  const FlatLeafEntryRec* entries = nullptr;  ///< v1 only
  core::TreeArrays tree;
};

/// Parses + validates an arena (untrusted bytes): header sanity, section
/// bounds, id ranges, PATH slices, preorder child links, depth cap. Every
/// corrupt offset yields Corruption; a returned view is safe to traverse.
/// For v1 it also rejects leaves that share entries and entries that share
/// PATH slices, so UpgradeFlatArena's work and output stay proportional
/// to the arena's size.
Result<FlatArenaParts> ParseFlatArena(const std::uint8_t* data,
                                      std::size_t size);

/// Transcodes a v1 arena, as validated by ParseFlatArena, into the v2 arena
/// BuildFlatArena writes for the same tree, byte for byte. Corruption if a
/// leaf mixes PATH lengths, which v2's per-leaf slabs cannot hold.
Result<std::vector<std::uint8_t>> UpgradeFlatArena(const FlatArenaParts& v1);

/// Read-only mvp-tree over a validated flat arena. Query objects are dense
/// real vectors; `Metric` must accept (query, metric::VectorView), as a
/// heap vector tree's does (metric::RowMetric) — all bundled Lp metrics
/// (and the counting and serve::CancelChecked wrappers of them) do.
///
/// Search results, their order of discovery, and every SearchStats counter
/// are bit-identical to core::MvpTree over the same logical tree: both run
/// core::Traversal on core::TreeNodes over the same arrays and differ only
/// in who owns the bytes (tests/flat_equivalence_test.cc holds this to 1k+
/// random queries).
/// Thread safety: immutable after Open; const searches are freely
/// concurrent (same contract as MvpTree).
template <typename Metric>
class FlatTreeView {
 public:
  /// Validates `data` and binds the view. The bytes must stay alive and
  /// unmodified for the view's lifetime (the snapshot path guarantees this
  /// by keeping the MmapFile alive alongside the index). A v1 arena is
  /// upgraded into a v2 copy that the view and its copies share.
  static Result<FlatTreeView> Open(const std::uint8_t* data, std::size_t size,
                                   Metric metric) {
    auto parts = ParseFlatArena(data, size);
    if (!parts.ok()) return parts.status();
    std::shared_ptr<const std::vector<std::uint8_t>> upgraded;
    if (parts.value().header.version != kFlatVersionV2) {
      auto v2 = UpgradeFlatArena(parts.value());
      if (!v2.ok()) return v2.status();
      upgraded = std::make_shared<const std::vector<std::uint8_t>>(
          std::move(v2).ValueOrDie());
      parts = ParseFlatArena(upgraded->data(), upgraded->size());
      if (!parts.ok()) return parts.status();
    }
    return FlatTreeView(std::move(parts).ValueOrDie(), std::move(upgraded),
                        std::move(metric));
  }

  std::size_t size() const {
    return static_cast<std::size_t>(p_.header.object_count);
  }
  int order() const { return static_cast<int>(p_.header.order); }
  int leaf_capacity() const {
    return static_cast<int>(p_.header.leaf_capacity);
  }
  int num_path_distances() const {
    return static_cast<int>(p_.header.num_path_distances);
  }
  bool store_exact_bounds() const {
    return (p_.header.flags & kHeaderExactBounds) != 0;
  }
  std::size_t dim() const { return p_.header.dim; }
  std::size_t node_count() const {
    return static_cast<std::size_t>(p_.header.node_count);
  }
  std::uint32_t version() const { return p_.header.version; }
  const Metric& metric() const { return metric_; }

  /// Root vantage-point vectors, for batch priming (core::RootPrime):
  /// returns false on an empty tree; *vp2 is null when the root has a single
  /// vantage point. Pointers alias the arena.
  bool RootVantagePoints(const double** vp1, const double** vp2) const {
    if (p_.header.root == kNoNode) return false;
    const core::NodeRec& root = p_.tree.nodes[0];
    *vp1 = p_.objects + root.vp1 * static_cast<std::size_t>(p_.header.dim);
    *vp2 = (root.flags & core::kNodeHasVp2) != 0
               ? p_.objects + root.vp2 * static_cast<std::size_t>(p_.header.dim)
               : nullptr;
    return true;
  }

  metric::VectorView object(std::size_t id) const {
    MVP_DCHECK(id < p_.header.object_count);
    return metric::VectorView(p_.objects + id * p_.header.dim, p_.header.dim);
  }

  /// Mirrors MvpTree::RangeSearch (sorted by distance then id).
  template <typename Query>
  std::vector<Neighbor> RangeSearch(const Query& query, double radius,
                                    SearchStats* stats = nullptr) const {
    std::vector<Neighbor> result;
    SearchStats local;
    RangeSearchInto(query, radius, &result, &local);
    std::sort(result.begin(), result.end(), NeighborLess);
    if (stats != nullptr) core::MergeSearchStats(stats, local);
    return result;
  }

  /// Mirrors MvpTree::RangeSearchInto — unsorted append into `*out`; a
  /// cancellation unwinding mid-search leaves the hits found so far.
  /// `root_prime` optionally substitutes precomputed root vantage-point
  /// distances (serve::RunBatch priming); results and stats are bit-identical
  /// with or without it.
  template <typename Query>
  void RangeSearchInto(const Query& query, double radius,
                       std::vector<Neighbor>* out,
                       SearchStats* stats = nullptr,
                       const core::RootPrime* root_prime = nullptr) const {
    MVP_DCHECK(radius >= 0);
    MVP_DCHECK(out != nullptr);
    SearchStats local;
    SearchStats& sink = stats != nullptr ? *stats : local;
    core::Traversal(Access(), query, sink).Range(radius, out, root_prime);
  }

  /// Mirrors MvpTree::KnnSearch (sorted by distance then id), including
  /// its `exclude` rule (core::Exclusion).
  template <typename Query>
  std::vector<Neighbor> KnnSearch(const Query& query, std::size_t k,
                                  SearchStats* stats = nullptr,
                                  core::Exclusion exclude = {}) const {
    std::vector<Neighbor> heap;
    SearchStats local;
    KnnSearchInto(query, k, &heap, &local, nullptr, exclude);
    std::sort_heap(heap.begin(), heap.end(), NeighborLess);
    if (stats != nullptr) core::MergeSearchStats(stats, local);
    return heap;
  }

  /// Mirrors MvpTree::KnnSearchInto — `*heap` is a max-heap under
  /// NeighborLess holding the best <= k seen so far, and `bound` caps the
  /// pruning radius.
  template <typename Query>
  void KnnSearchInto(const Query& query, std::size_t k,
                     std::vector<Neighbor>* heap,
                     SearchStats* stats = nullptr,
                     const core::RootPrime* root_prime = nullptr,
                     core::Exclusion exclude = {},
                     double bound =
                         std::numeric_limits<double>::infinity()) const {
    MVP_DCHECK(heap != nullptr);
    SearchStats local;
    SearchStats& sink = stats != nullptr ? *stats : local;
    core::Traversal(Access(), query, sink)
        .Knn(k, heap, exclude, root_prime, bound);
  }

 private:
  FlatTreeView(FlatArenaParts parts,
               std::shared_ptr<const std::vector<std::uint8_t>> upgraded,
               Metric metric)
      : p_(parts), upgraded_(std::move(upgraded)), metric_(std::move(metric)) {}

  /// The node accessor core::Traversal runs on: the heap tree's, over the
  /// arena's sections.
  core::TreeNodes<FlatTreeView> Access() const { return {this, p_.tree}; }

  FlatArenaParts p_;
  /// Owns the bytes p_ points into when Open upgraded a v1 arena.
  std::shared_ptr<const std::vector<std::uint8_t>> upgraded_;
  Metric metric_;
};

}  // namespace mvp::snapshot::flat

#endif  // MVPTREE_SNAPSHOT_FLAT_TREE_H_
