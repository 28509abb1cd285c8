#ifndef MVPTREE_SNAPSHOT_FLAT_TREE_H_
#define MVPTREE_SNAPSHOT_FLAT_TREE_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
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
/// Version 1 (still read; writers emit v2):
///
///   FlatHeaderRec          fixed 144 bytes
///   objects   f64[object_count * dim]   vectors, row-major, viewed in place
///   path      f64[path_count]           the tree's shared PATH pool
///   bounds    f64[bounds_count]         per internal node at `begin`:
///                                       lower1[m] upper1[m]
///                                       lower2[m*m] upper2[m*m]
///   entries   FlatLeafEntryRec[entry_count]   leaf points (D1/D2 + PATH ref)
///   nodes     FlatNodeRec[node_count]         preorder; root is node 0
///   children  u32[children_count]       m*m slots per internal node;
///                                       0xFFFFFFFF = absent child
///
/// Version 2 keeps the 144-byte header prefix byte-compatible (same fields,
/// same offsets) and appends a 48-byte extension, then swaps the leaf
/// encoding from array-of-structs to structure-of-arrays so range-search
/// leaf filtering runs as branchless SIMD compare+mask sweeps straight off
/// the mmap (metric/kernels/kernels.h):
///
///   FlatHeaderRec + FlatHeaderExtRec   fixed 192 bytes
///   objects   f64[object_count * dim]     unchanged
///   path      f64[path_count]             now per-leaf *column-major* PATH
///                                         slabs: leaf slabs in node order,
///                                         slab[j*count + i] = PATH[j] of
///                                         entry i — a contiguous run per
///                                         vantage point, swept 64 wide
///   bounds    f64[bounds_count]           unchanged
///   ids       u32[entry_count]            at entries_offset: leaf point ids
///   d1        f64[entry_count]            contiguous D1[] column
///   d2        f64[entry_count]            contiguous D2[] column
///   leafpaths FlatLeafPathRec[node_count] per-node slab offset + length
///                                         (zeroed for internal nodes)
///   nodes     FlatNodeRec[node_count]     unchanged
///   children  u32[children_count]         unchanged
///
/// ids/d1/d2 are parallel arrays indexed by a leaf's `begin..begin+count`.
/// Slabs are canonical: laid end to end in node order with no gaps or
/// overlap, which ParseFlatArena enforces, so a hostile arena cannot alias
/// slabs or leave them misaligned.
///
/// Safety: the arena is untrusted bytes. ParseFlatArena bounds-checks every
/// offset/count, and a structural pass enforces that child links point
/// strictly forward (preorder), that every node is referenced exactly once,
/// and that depth stays within the same cap as heap deserialization — so a
/// corrupted arena yields Status::Corruption at open, never a crash or an
/// unterminated traversal. The searches mirror core::MvpTree statement for
/// statement (sharing core/search_shared.h) so results and
/// distance-computation counts are bit-identical to the heap tree built
/// from the same stream.

namespace mvp::snapshot::flat {

inline constexpr std::uint32_t kFlatMagic = 0x5a50564d;  // "MVPZ"
inline constexpr std::uint32_t kFlatVersionV1 = 1;
inline constexpr std::uint32_t kFlatVersionV2 = 2;
inline constexpr std::uint32_t kFlatVersionLatest = kFlatVersionV2;
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
  std::uint32_t version = kFlatVersionLatest;
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
/// self-contained flat arena. Validates the stream as strictly as
/// MvpTree::Deserialize does; the result is byte-stable for a given stream
/// and version. Writes kFlatVersionLatest; the explicit-version overload
/// exists so tests and corpus generators can still produce v1 arenas.
Result<std::vector<std::uint8_t>> BuildFlatArena(const std::uint8_t* stream,
                                                 std::size_t length);
Result<std::vector<std::uint8_t>> BuildFlatArena(const std::uint8_t* stream,
                                                 std::size_t length,
                                                 std::uint32_t version);

/// A bounds-checked, structurally validated view into a flat arena. All
/// pointers alias the caller's bytes, which must outlive the view.
struct FlatArenaParts {
  FlatHeaderRec header;
  FlatHeaderExtRec ext;  ///< zeroed for v1 arenas
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
Result<FlatArenaParts> ParseFlatArena(const std::uint8_t* data,
                                      std::size_t size);

/// Read-only mvp-tree over a validated flat arena. Query objects are dense
/// real vectors; `Metric` must accept (query, VectorView) — all bundled Lp
/// metrics (and serve::CancelChecked wrappers of them) do.
///
/// Search results, their order of discovery, and every SearchStats counter
/// are bit-identical to core::MvpTree over the same logical tree: both
/// traversals evaluate the same metric calls in the same sequence
/// (tests/flat_equivalence_test.cc holds this to 1k+ random queries).
/// Thread safety: immutable after Open; const searches are freely
/// concurrent (same contract as MvpTree).
template <typename Metric>
class FlatTreeView {
 public:
  /// Validates `data` and binds the view. The bytes must stay alive and
  /// unmodified for the view's lifetime (the snapshot path guarantees this
  /// by keeping the MmapFile alive alongside the index).
  static Result<FlatTreeView> Open(const std::uint8_t* data, std::size_t size,
                                   Metric metric) {
    auto parts = ParseFlatArena(data, size);
    if (!parts.ok()) return parts.status();
    return FlatTreeView(std::move(parts).ValueOrDie(), std::move(metric));
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
    *vp2 = HasVp2(root) ? p_.objects +
                              root.vp2 * static_cast<std::size_t>(p_.header.dim)
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
    if (p_.header.root != kNoNode) {
      std::vector<double> qpath;
      qpath.reserve(p_.header.num_path_distances);
      RangeSearchNode(p_.header.root, query, radius, qpath, *out, sink,
                      root_prime);
    }
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
    if (p_.header.root != kNoNode && k > 0) {
      std::vector<double> qpath;
      qpath.reserve(p_.header.num_path_distances);
      KnnSearchNode(p_.header.root, query, k, qpath, *heap, sink, exclude,
                    root_prime);
    }
  }

 private:
  FlatTreeView(FlatArenaParts parts, Metric metric)
      : p_(parts), metric_(std::move(metric)) {}

  bool IsLeaf(const FlatNodeRec& n) const { return (n.flags & kNodeLeaf) != 0; }
  bool HasVp2(const FlatNodeRec& n) const {
    return (n.flags & kNodeHasVp2) != 0;
  }

  // The traversals below are line-for-line transcriptions of
  // MvpTree::RangeSearchNode / KnnSearchNode / FilterLeaf with pointer
  // dereferences replaced by arena index arithmetic. Keep them in lockstep
  // with core/mvp_tree.h: any divergence is a bug the equivalence suite
  // is designed to catch.

  template <typename Query>
  void RangeSearchNode(std::uint64_t ni, const Query& query, double radius,
                       std::vector<double>& qpath,
                       std::vector<Neighbor>& result, SearchStats& stats,
                       const core::RootPrime* prime = nullptr) const {
    const FlatNodeRec& node = p_.nodes[ni];
    ++stats.nodes_visited;
    // A primed distance replaces the metric call with its precomputed
    // (bit-identical) value but is still charged to the stats and the
    // cancellation budget, so batched and unbatched searches agree exactly.
    double d1;
    if (prime != nullptr && prime->has_d1) {
      core::ConsumePrimedDistance(metric_);
      d1 = prime->d1;
    } else {
      d1 = metric_(query, object(node.vp1));
    }
    ++stats.distance_computations;
    if (d1 <= radius) result.push_back(Neighbor{node.vp1, d1});
    double d2 = 0.0;
    if (HasVp2(node)) {
      if (prime != nullptr && prime->has_d2) {
        core::ConsumePrimedDistance(metric_);
        d2 = prime->d2;
      } else {
        d2 = metric_(query, object(node.vp2));
      }
      ++stats.distance_computations;
      if (d2 <= radius) result.push_back(Neighbor{node.vp2, d2});
    }

    if (IsLeaf(node)) {
      FilterLeaf(node, query, radius, d1, d2, qpath, &result, nullptr, 0,
                 stats, core::Exclusion{});
      return;
    }

    const std::size_t p = p_.header.num_path_distances;
    std::size_t pushed = 0;
    if (qpath.size() < p) {
      qpath.push_back(d1);
      ++pushed;
      if (qpath.size() < p) {
        qpath.push_back(d2);
        ++pushed;
      }
    }

    const std::size_t m = p_.header.order;
    const double* lower1 = p_.bounds + node.begin;
    const double* upper1 = lower1 + m;
    const double* lower2 = upper1 + m;
    const double* upper2 = lower2 + m * m;
    const std::uint32_t* kids = p_.children + node.children;
    for (std::size_t g = 0; g < m; ++g) {
      if (!core::ShellIntersects(d1, radius, lower1[g], upper1[g])) continue;
      for (std::size_t s = 0; s < m; ++s) {
        const std::size_t c = g * m + s;
        if (kids[c] == kNullChild) continue;
        if (!core::ShellIntersects(d2, radius, lower2[c], upper2[c])) continue;
        RangeSearchNode(kids[c], query, radius, qpath, result, stats);
      }
    }
    qpath.resize(qpath.size() - pushed);
  }

  template <typename Query>
  void FilterLeaf(const FlatNodeRec& node, const Query& query, double radius,
                  double d1, double d2, const std::vector<double>& qpath,
                  std::vector<Neighbor>* range_out,
                  std::vector<Neighbor>* heap_out, std::size_t k,
                  SearchStats& stats, core::Exclusion exclude) const {
    if (p_.header.version >= kFlatVersionV2) {
      FilterLeafV2(node, query, radius, d1, d2, qpath, range_out, heap_out, k,
                   stats, exclude);
      return;
    }
    const FlatLeafEntryRec* bucket = p_.entries + node.begin;
    const bool has_vp2 = HasVp2(node);
    if (range_out != nullptr) {
      // Same chunked two-phase structure as the heap tree (see
      // core::ChunkedRangeFilter); the per-entry tests run scalar over the
      // v1 AoS records.
      core::ChunkedRangeFilter(
          node.count,
          [&](std::size_t base, std::size_t n) {
            std::uint64_t mask = 0;
            for (std::size_t i = 0; i < n; ++i) {
              const FlatLeafEntryRec& x = bucket[base + i];
              bool pass = std::abs(d1 - x.d1) <= radius &&
                          (!has_vp2 || std::abs(d2 - x.d2) <= radius);
              if (pass) {
                const std::size_t checks = std::min(
                    qpath.size(), static_cast<std::size_t>(x.path_length));
                for (std::size_t j = 0; j < checks; ++j) {
                  if (std::abs(qpath[j] - p_.path[x.path_offset + j]) >
                      radius) {
                    pass = false;
                    break;
                  }
                }
              }
              if (pass) mask |= std::uint64_t{1} << i;
            }
            return mask;
          },
          [&](std::size_t i) {
            const FlatLeafEntryRec& x = bucket[i];
            const double d = metric_(query, object(x.id));
            ++stats.distance_computations;
            if (d <= radius) range_out->push_back(Neighbor{x.id, d});
          },
          stats);
      return;
    }
    for (std::uint32_t i = 0; i < node.count; ++i) {
      const FlatLeafEntryRec& x = bucket[i];
      ++stats.leaf_points_seen;
      const double r = core::KnnTau(*heap_out, k);
      bool pass = std::abs(d1 - x.d1) <= r &&
                  (!has_vp2 || std::abs(d2 - x.d2) <= r);
      if (pass) {
        const std::size_t checks =
            std::min(qpath.size(), static_cast<std::size_t>(x.path_length));
        for (std::size_t j = 0; j < checks; ++j) {
          if (std::abs(qpath[j] - p_.path[x.path_offset + j]) > r) {
            pass = false;
            break;
          }
        }
      }
      if (!pass || exclude(x.id)) {
        ++stats.leaf_points_filtered;
        continue;
      }
      const double d = metric_(query, object(x.id));
      ++stats.distance_computations;
      core::KnnOffer(*heap_out, k, Neighbor{x.id, d});
    }
  }

  /// v2 structure-of-arrays leaf filter. Range mode sweeps the contiguous
  /// D1/D2 columns and the column-major PATH slab with the branchless
  /// compare+mask kernel (metric::kernels::AnnulusMask), 64 entries per
  /// chunk; the pass bits are identical to the scalar per-entry tests, so
  /// results and SearchStats match the heap tree and the v1 view exactly.
  template <typename Query>
  void FilterLeafV2(const FlatNodeRec& node, const Query& query, double radius,
                    double d1, double d2, const std::vector<double>& qpath,
                    std::vector<Neighbor>* range_out,
                    std::vector<Neighbor>* heap_out, std::size_t k,
                    SearchStats& stats, core::Exclusion exclude) const {
    const std::uint64_t ni =
        static_cast<std::uint64_t>(&node - p_.nodes);
    const std::uint32_t* ids = p_.ids + node.begin;
    const double* d1s = p_.d1 + node.begin;
    const double* d2s = p_.d2 + node.begin;
    const FlatLeafPathRec& lp = p_.leafpaths[ni];
    const double* slab = p_.path + lp.slab_offset;
    const std::size_t count = node.count;
    const std::size_t checks =
        std::min(qpath.size(), static_cast<std::size_t>(lp.path_length));
    const bool has_vp2 = HasVp2(node);
    if (range_out != nullptr) {
      core::ChunkedRangeFilter(
          count,
          [&](std::size_t base, std::size_t n) {
            std::uint64_t mask =
                metric::kernels::AnnulusMask(d1, d1s + base, n, radius);
            if (has_vp2 && mask != 0) {
              mask &= metric::kernels::AnnulusMask(d2, d2s + base, n, radius);
            }
            for (std::size_t j = 0; j < checks && mask != 0; ++j) {
              mask &= metric::kernels::AnnulusMask(
                  qpath[j], slab + j * count + base, n, radius);
            }
            return mask;
          },
          [&](std::size_t i) {
            const double d = metric_(query, object(ids[i]));
            ++stats.distance_computations;
            if (d <= radius) range_out->push_back(Neighbor{ids[i], d});
          },
          stats);
      return;
    }
    // k-NN mode stays per-entry (tau shrinks with every offer), reading the
    // SoA columns scalar-wise.
    for (std::size_t i = 0; i < count; ++i) {
      ++stats.leaf_points_seen;
      const double r = core::KnnTau(*heap_out, k);
      bool pass = std::abs(d1 - d1s[i]) <= r &&
                  (!has_vp2 || std::abs(d2 - d2s[i]) <= r);
      if (pass) {
        for (std::size_t j = 0; j < checks; ++j) {
          if (std::abs(qpath[j] - slab[j * count + i]) > r) {
            pass = false;
            break;
          }
        }
      }
      if (!pass || exclude(ids[i])) {
        ++stats.leaf_points_filtered;
        continue;
      }
      const double d = metric_(query, object(ids[i]));
      ++stats.distance_computations;
      core::KnnOffer(*heap_out, k, Neighbor{ids[i], d});
    }
  }

  template <typename Query>
  void KnnSearchNode(std::uint64_t ni, const Query& query, std::size_t k,
                     std::vector<double>& qpath, std::vector<Neighbor>& heap,
                     SearchStats& stats, core::Exclusion exclude,
                     const core::RootPrime* prime = nullptr) const {
    const FlatNodeRec& node = p_.nodes[ni];
    ++stats.nodes_visited;
    double d1;
    if (prime != nullptr && prime->has_d1) {
      core::ConsumePrimedDistance(metric_);
      d1 = prime->d1;
    } else {
      d1 = metric_(query, object(node.vp1));
    }
    ++stats.distance_computations;
    if (!exclude(node.vp1)) core::KnnOffer(heap, k, Neighbor{node.vp1, d1});
    double d2 = 0.0;
    if (HasVp2(node)) {
      if (prime != nullptr && prime->has_d2) {
        core::ConsumePrimedDistance(metric_);
        d2 = prime->d2;
      } else {
        d2 = metric_(query, object(node.vp2));
      }
      ++stats.distance_computations;
      if (!exclude(node.vp2)) core::KnnOffer(heap, k, Neighbor{node.vp2, d2});
    }

    if (IsLeaf(node)) {
      FilterLeaf(node, query, 0.0, d1, d2, qpath, nullptr, &heap, k, stats,
                 exclude);
      return;
    }

    const std::size_t p = p_.header.num_path_distances;
    std::size_t pushed = 0;
    if (qpath.size() < p) {
      qpath.push_back(d1);
      ++pushed;
      if (qpath.size() < p) {
        qpath.push_back(d2);
        ++pushed;
      }
    }

    struct Ranked {
      double bound;
      std::size_t child;
    };
    const std::size_t m = p_.header.order;
    const double* lower1 = p_.bounds + node.begin;
    const double* upper1 = lower1 + m;
    const double* lower2 = upper1 + m;
    const double* upper2 = lower2 + m * m;
    const std::uint32_t* kids = p_.children + node.children;
    std::vector<Ranked> ranked;
    ranked.reserve(m * m);
    for (std::size_t g = 0; g < m; ++g) {
      const double b1 = std::max({0.0, lower1[g] - d1, d1 - upper1[g]});
      for (std::size_t s = 0; s < m; ++s) {
        const std::size_t c = g * m + s;
        if (kids[c] == kNullChild) continue;
        const double b2 = std::max({0.0, lower2[c] - d2, d2 - upper2[c]});
        ranked.push_back(Ranked{std::max(b1, b2), c});
      }
    }
    std::sort(ranked.begin(), ranked.end(),
              [](const Ranked& a, const Ranked& b) { return a.bound < b.bound; });
    for (const Ranked& r : ranked) {
      if (r.bound > core::KnnTau(heap, k)) break;
      KnnSearchNode(kids[r.child], query, k, qpath, heap, stats, exclude);
    }
    qpath.resize(qpath.size() - pushed);
  }

  FlatArenaParts p_;
  Metric metric_;
};

}  // namespace mvp::snapshot::flat

#endif  // MVPTREE_SNAPSHOT_FLAT_TREE_H_
