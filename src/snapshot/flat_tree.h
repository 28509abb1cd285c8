#ifndef MVPTREE_SNAPSHOT_FLAT_TREE_H_
#define MVPTREE_SNAPSHOT_FLAT_TREE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/query.h"
#include "common/status.h"
#include "core/search_shared.h"
#include "metric/kernels/kernels.h"

/// \file
/// The flat mvp-tree: a position-independent, offset-based encoding of one
/// shard tree in a single contiguous arena, searched directly out of the
/// mmap'd snapshot container — zero deserialization, zero per-load
/// allocation. Where the heap tree pays a full pointer-tree reconstruction
/// (object decode, node allocation, bound-vector copies) before its first
/// query, opening a flat arena is: map the file, CRC the chunk, validate
/// the arena's offsets once, and search.
///
/// Layout (all integers little-endian; docs/index_format.md has the
/// byte-level diagrams; every section starts on an 8-byte boundary within
/// the arena, and the snapshot writer 8-aligns the arena's file offset so
/// in-memory records are naturally aligned under both mmap and the heap
/// fallback).
///
/// Version 2 is the only layout a view serves:
///
///   FlatHeaderRec + FlatHeaderExtRec   fixed 192 bytes
///   objects   f64[object_count * dim]     vectors, row-major, viewed in
///                                         place
///   path      f64[path_count]             per-leaf *column-major* PATH
///                                         slabs: leaf slabs in node order,
///                                         slab[j*count + i] = PATH[j] of
///                                         entry i — a contiguous run per
///                                         vantage point, swept 64 wide
///   bounds    f64[bounds_count]           per internal node at `begin`:
///                                         lower1[m] upper1[m]
///                                         lower2[m*m] upper2[m*m]
///   ids       u32[entry_count]            at entries_offset: leaf point ids
///   d1        f64[entry_count]            contiguous D1[] column
///   d2        f64[entry_count]            contiguous D2[] column
///   leafpaths FlatLeafPathRec[node_count] per-node slab offset + length
///                                         (zeroed for internal nodes)
///   nodes     FlatNodeRec[node_count]     preorder; root is node 0
///   children  u32[children_count]         m*m slots per internal node;
///                                         0xFFFFFFFF = absent child
///
/// The SoA leaf columns let range-search leaf filtering run as branchless
/// SIMD compare+mask sweeps straight off the mmap (metric/kernels/kernels.h).
///
/// ids/d1/d2 are parallel arrays indexed by a leaf's `begin..begin+count`.
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
/// and that depth stays within the same cap as heap deserialization — so a
/// corrupted arena yields Status::Corruption at open, never a crash or an
/// unterminated traversal. Searching runs the one mvp-tree traversal in
/// core/search_shared.h, the same one the heap tree runs: a view supplies
/// only a node accessor over the arena, so results and every SearchStats
/// counter are bit-identical to the heap tree built from the same stream by
/// construction, and tests/search_counts_golden_test.cc pins the counts.

namespace mvp::snapshot::flat {

inline constexpr std::uint32_t kFlatMagic = 0x5a50564d;  // "MVPZ"
inline constexpr std::uint32_t kFlatVersionV1 = 1;
inline constexpr std::uint32_t kFlatVersionV2 = 2;  ///< the one written
inline constexpr std::uint64_t kNoNode = ~std::uint64_t{0};
inline constexpr std::uint32_t kNullChild = 0xffffffffu;
inline constexpr std::size_t kFlatAlignment = 8;
/// Same nesting cap as MvpTree deserialization.
inline constexpr std::size_t kMaxFlatDepth = 512;

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

/// One tree node, 32 bytes. Leaves: `begin`/`count` select a run of leaf
/// entries. Internal nodes: `begin` indexes the bounds pool (2m + 2m*m
/// doubles), `children` indexes m*m slots in the children pool.
struct FlatNodeRec {
  std::uint32_t flags = 0;  ///< bit0 = leaf, bit1 = has_vp2
  std::uint32_t vp1 = 0;
  std::uint32_t vp2 = 0;
  std::uint32_t count = 0;
  std::uint64_t begin = 0;
  std::uint64_t children = 0;
};
static_assert(sizeof(FlatNodeRec) == 32, "node layout drifted");

inline constexpr std::uint32_t kNodeLeaf = 1u << 0;
inline constexpr std::uint32_t kNodeHasVp2 = 1u << 1;

/// One v1 leaf point, 32 bytes: the paper's D1[i]/D2[i] plus its PATH slice.
/// Also the transcoder's intermediate record for every leaf entry.
struct FlatLeafEntryRec {
  std::uint32_t id = 0;
  std::uint32_t path_offset = 0;
  std::uint32_t path_length = 0;
  std::uint32_t reserved = 0;
  double d1 = 0.0;
  double d2 = 0.0;
};
static_assert(sizeof(FlatLeafEntryRec) == 32, "leaf entry layout drifted");

/// One v2 per-node PATH slab descriptor, 16 bytes. For a leaf,
/// `slab_offset` indexes the path pool and the slab holds
/// `path_length * count` doubles column-major (slab[j*count + i]); every
/// entry of a leaf shares one path_length. Zeroed for internal nodes.
struct FlatLeafPathRec {
  std::uint64_t slab_offset = 0;
  std::uint32_t path_length = 0;
  std::uint32_t reserved = 0;
};
static_assert(sizeof(FlatLeafPathRec) == 16, "leaf path layout drifted");

/// Zero-copy view of one stored vector inside the arena. Duck-compatible
/// with std::vector<double> for the Lp metrics' templated operator(), so
/// d(query, stored) runs on the mapped bytes with no materialization.
class VectorView {
 public:
  VectorView(const double* data, std::size_t dim) : data_(data), dim_(dim) {}
  std::size_t size() const { return dim_; }
  double operator[](std::size_t i) const { return data_[i]; }
  const double* data() const { return data_; }

 private:
  const double* data_;
  std::size_t dim_;
};

/// Transcodes one serialized MvpTree stream (the exact bytes
/// MvpTree::Serialize + VectorCodec emit — vector objects only) into a
/// self-contained v2 flat arena. Validates the stream as strictly as
/// MvpTree::Deserialize does; the result is byte-stable for a given stream.
Result<std::vector<std::uint8_t>> BuildFlatArena(const std::uint8_t* stream,
                                                 std::size_t length);

/// A bounds-checked, structurally validated view into a flat arena. All
/// pointers alias the caller's bytes, which must outlive the view.
struct FlatArenaParts {
  FlatHeaderRec header;
  const double* objects = nullptr;
  const double* path = nullptr;
  const double* bounds = nullptr;
  const FlatLeafEntryRec* entries = nullptr;  ///< v1 only
  const FlatNodeRec* nodes = nullptr;
  const std::uint32_t* children = nullptr;
  // v2 structure-of-arrays leaf sections (null for v1 arenas).
  const std::uint32_t* ids = nullptr;
  const double* d1 = nullptr;
  const double* d2 = nullptr;
  const FlatLeafPathRec* leafpaths = nullptr;
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
/// real vectors; `Metric` must accept (query, VectorView) — all bundled Lp
/// metrics (and serve::CancelChecked wrappers of them) do.
///
/// Search results, their order of discovery, and every SearchStats counter
/// are bit-identical to core::MvpTree over the same logical tree: both run
/// core::Traversal and differ only in their node accessor
/// (tests/flat_equivalence_test.cc holds this to 1k+ random queries).
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
    const FlatNodeRec& root = p_.nodes[p_.header.root];
    *vp1 = p_.objects + root.vp1 * static_cast<std::size_t>(p_.header.dim);
    *vp2 = (root.flags & kNodeHasVp2) != 0
               ? p_.objects + root.vp2 * static_cast<std::size_t>(p_.header.dim)
               : nullptr;
    return true;
  }

  VectorView object(std::size_t id) const {
    MVP_DCHECK(id < p_.header.object_count);
    return VectorView(p_.objects + id * p_.header.dim, p_.header.dim);
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
    core::Traversal(Nodes{this}, query, sink).Range(radius, out, root_prime);
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
  /// NeighborLess holding the best <= k seen so far.
  template <typename Query>
  void KnnSearchInto(const Query& query, std::size_t k,
                     std::vector<Neighbor>* heap,
                     SearchStats* stats = nullptr,
                     const core::RootPrime* root_prime = nullptr,
                     core::Exclusion exclude = {}) const {
    MVP_DCHECK(heap != nullptr);
    SearchStats local;
    SearchStats& sink = stats != nullptr ? *stats : local;
    core::Traversal(Nodes{this}, query, sink).Knn(k, heap, exclude, root_prime);
  }

 private:
  FlatTreeView(FlatArenaParts parts,
               std::shared_ptr<const std::vector<std::uint8_t>> upgraded,
               Metric metric)
      : p_(parts), upgraded_(std::move(upgraded)), metric_(std::move(metric)) {}

  /// Leaf cursor: contiguous id/D1/D2 columns and a column-major PATH
  /// slab (slab[j*count + i] = PATH[j] of entry i). Range masks sweep them
  /// 64 wide with the branchless AnnulusMask kernel, whose pass bits equal
  /// the scalar per-entry tests.
  struct SoaLeaf {
    const std::uint32_t* ids;
    const double* d1s;
    const double* d2s;
    const double* slab;
    std::size_t count;
    std::size_t path_length;

    std::size_t size() const { return count; }
    std::size_t id(std::size_t i) const { return ids[i]; }
    std::size_t Checks(const core::LeafQuery& q) const {
      return std::min(q.qpath.size(), path_length);
    }
    std::uint64_t Mask(std::size_t base, std::size_t n,
                       const core::LeafQuery& q, double r) const {
      std::uint64_t mask =
          metric::kernels::AnnulusMask(q.d[0], d1s + base, n, r);
      if (q.vps > 1 && mask != 0) {
        mask &= metric::kernels::AnnulusMask(q.d[1], d2s + base, n, r);
      }
      for (std::size_t j = 0; j < Checks(q) && mask != 0; ++j) {
        mask &= metric::kernels::AnnulusMask(q.qpath[j],
                                             slab + j * count + base, n, r);
      }
      return mask;
    }
    bool Passes(std::size_t i, const core::LeafQuery& q, double r) const {
      return q.Admits<2>(
          [this, i](std::size_t l) { return l == 0 ? d1s[i] : d2s[i]; },
          slab + i, count, Checks(q), r);
    }
  };

  /// The node accessor core::Traversal runs on, over the arena's preorder
  /// nodes.
  struct Nodes {
    const FlatTreeView* view;

    const FlatNodeRec* Root() const {
      const FlatArenaParts& p = view->p_;
      return p.header.root == kNoNode ? nullptr : p.nodes + p.header.root;
    }
    std::size_t Order() const { return view->p_.header.order; }
    std::size_t PathDistances() const {
      return view->p_.header.num_path_distances;
    }
    static constexpr std::size_t Levels() { return 2; }
    bool IsLeaf(const FlatNodeRec* n) const {
      return (n->flags & kNodeLeaf) != 0;
    }
    std::size_t VpCount(const FlatNodeRec* n) const {
      return (n->flags & kNodeHasVp2) != 0 ? 2 : 1;
    }
    std::size_t Vp(const FlatNodeRec* n, std::size_t l) const {
      return l == 0 ? n->vp1 : n->vp2;
    }
    core::ShellBounds Shells(const FlatNodeRec* n, std::size_t l) const {
      const std::size_t m = Order();
      const double* lower1 = view->p_.bounds + n->begin;
      return l == 0 ? core::ShellBounds{lower1, lower1 + m}
                    : core::ShellBounds{lower1 + 2 * m, lower1 + 2 * m + m * m};
    }
    const FlatNodeRec* Child(const FlatNodeRec* n, std::size_t c) const {
      const std::uint32_t child = view->p_.children[n->children + c];
      return child == kNullChild ? nullptr : view->p_.nodes + child;
    }
    SoaLeaf Leaf(const FlatNodeRec* n) const {
      const FlatArenaParts& p = view->p_;
      const FlatLeafPathRec& lp = p.leafpaths[n - p.nodes];
      return SoaLeaf{p.ids + n->begin, p.d1 + n->begin, p.d2 + n->begin,
                     p.path + lp.slab_offset, n->count, lp.path_length};
    }
    const Metric& metric() const { return view->metric_; }
    VectorView object(std::size_t id) const { return view->object(id); }
  };

  FlatArenaParts p_;
  /// Owns the bytes p_ points into when Open upgraded a v1 arena.
  std::shared_ptr<const std::vector<std::uint8_t>> upgraded_;
  Metric metric_;
};

}  // namespace mvp::snapshot::flat

#endif  // MVPTREE_SNAPSHOT_FLAT_TREE_H_
