#ifndef MVPTREE_SNAPSHOT_FLAT_TREE_H_
#define MVPTREE_SNAPSHOT_FLAT_TREE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/mvp_tree.h"
#include "core/tree_layout.h"
#include "metric/lp.h"

/// \file
/// The flat mvp-tree: a position-independent, offset-based encoding of one
/// shard tree in a single contiguous arena, searched directly out of the
/// mmap'd snapshot container — zero deserialization, zero per-load
/// allocation. Where Deserialize pays an object decode and a structure
/// parse before the first query, opening a flat arena is: map the file, CRC
/// the chunk, validate the arena's offsets once, and search. OpenTree
/// returns the same core::MvpTree that Build and Deserialize do, borrowing
/// the arena's sections instead of owning copies.
///
/// The arena's sections are the arrays of core/tree_layout.h byte for byte,
/// the ones a built tree searches, behind a header and the stored vectors —
/// the row-major slab a built vector tree owns, in the tree's row order,
/// handed out as metric::VectorView (all integers little-endian;
/// docs/index_format.md has the byte-level diagrams; every section starts
/// on an 8-byte boundary within the arena, and the snapshot writer
/// 8-aligns the arena's file offset so in-memory records are naturally
/// aligned under both mmap and the heap fallback). Version 4 is the only
/// layout a tree borrows and the only one written:
///
///   FlatHeaderRec + FlatHeaderExtRec   fixed 192 bytes
///   objects   f64[object_count * dim]     vectors, row-major, in row order,
///                                         viewed in place
///   path      f32[path_count]             the column-major PATH slabs
///   bounds    f64[bounds_count]           the shell bounds pool
///   ids       u32[entry_count]            at entries_offset
///   d1, d2    f32[entry_count]            the D1[]/D2[] columns
///   leafpaths LeafPathRec[node_count]     per-node PATH slab records
///   nodes     NodeRec[node_count]         40 bytes each, preorder; root is
///                                         node 0
///   children  u32[children_count]         m*m slots per internal node
///
/// The leaf columns (path, d1, d2) hold each distance's saturating float
/// narrowing (metric::kernels::NarrowDistance), padded to the 8-byte
/// section boundary; the searches widen them at a radius that keeps every
/// entry the double distances would (core/tree_layout.h).
///
/// Row order (core/tree_layout.h): row e of the objects holds leaf entry e,
/// object ids[e], so a leaf's entries are one contiguous block of rows, and
/// rows [entry_count, object_count) hold the vantage points in node
/// preorder, vp1 then vp2, at the row each NodeRec records. ParseFlatArena
/// enforces that the vp rows tile that range in preorder, and OpenTree that
/// the ids and vantage points name every object exactly once.
///
/// Slabs are canonical: laid end to end in node order with no gaps or
/// overlap, which ParseFlatArena enforces, so a hostile arena cannot alias
/// slabs or leave them misaligned. So are the leaves' entry runs.
///
/// Versions 1 to 3 are read only as upgrade input, and each keeps its leaf
/// columns in double. Version 3 has v4's sections otherwise. Version 2 also
/// keeps the objects in id order and 32-byte node records without a vp row
/// (FlatNodeRecV2). Version 1 has the same 144-byte header prefix with no
/// extension, one shared PATH pool, and array-of-structs leaf entries
/// (FlatLeafEntryRec: id, D1, D2 and a PATH slice) at entries_offset.
/// OpenTree validates a v1, v2 or v3 arena, transcodes it with
/// UpgradeFlatArena, the one upgrade path, into a v4 buffer, and returns a
/// tree that owns that buffer.
///
/// Safety: the arena is untrusted bytes. ParseFlatArena bounds-checks every
/// offset/count, and a structural pass enforces that child links point
/// strictly forward (preorder), that every node is referenced exactly once,
/// and that depth stays within core::kMaxTreeDepth — so a corrupted arena
/// yields Status::Corruption at open, never a crash or an unterminated
/// traversal. An opened tree is an MvpTree, so results and every
/// SearchStats counter equal those of the tree the arena was laid out from
/// by construction, and tests/search_counts_golden_test.cc pins the counts.

namespace mvp::snapshot::flat {

inline constexpr std::uint32_t kFlatMagic = 0x5a50564d;  // "MVPZ"
inline constexpr std::uint32_t kFlatVersionV1 = 1;
inline constexpr std::uint32_t kFlatVersionV2 = 2;
inline constexpr std::uint32_t kFlatVersionV3 = 3;
inline constexpr std::uint32_t kFlatVersionV4 = 4;  ///< the one written
inline constexpr std::uint64_t kNoNode = ~std::uint64_t{0};  ///< empty root
inline constexpr std::size_t kFlatAlignment = 8;

/// Fixed arena header. POD with explicit field order chosen so the struct
/// has no padding; written/read by memcpy on the (little-endian,
/// byte-addressable) targets this library supports.
struct FlatHeaderRec {
  std::uint32_t magic = kFlatMagic;
  std::uint32_t version = kFlatVersionV4;
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

/// v2 to v4 header extension, immediately after FlatHeaderRec. The
/// 144-byte prefix keeps its exact v1 layout (entries_offset holds the ids
/// section, path_offset/path_count hold the slab pool), so offset-based
/// tooling and the corruption sweep's fixed pokes stay meaningful across
/// versions.
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
/// The header of v2 to v4 arenas.
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

/// One v1 or v2 node, 32 bytes: core::NodeRec without the vp row.
struct FlatNodeRecV2 {
  std::uint32_t flags = 0;
  std::uint32_t vp1 = 0;
  std::uint32_t vp2 = 0;
  std::uint32_t count = 0;
  std::uint64_t begin = 0;
  std::uint64_t children = 0;
};
static_assert(sizeof(FlatNodeRecV2) == 32, "v2 node layout drifted");

/// A v4 arena as the bytes it is made of, copying none of the tree: the
/// header, then `body`, the rest of the arena in order — each section
/// (rows, PATH, bounds, ids, D1, D2, leaf paths, nodes, children) as a span
/// over the memory of the tree it was laid out from, each followed by the
/// zero padding to the next 8-byte boundary (spans of a static zero block;
/// an empty section, or one that ends aligned, adds no span for it). The
/// sections stay valid as long as the tree does. The snapshot writer
/// streams `body` to the file; BuildFlatArena copies it into one buffer.
struct FlatArenaLayout {
  /// FlatHeaderRec then FlatHeaderExtRec: the first kFlatHeaderBytesV2
  /// bytes.
  std::vector<std::uint8_t> header;
  std::vector<std::span<const std::uint8_t>> body;
  std::size_t size = 0;  ///< bytes in the arena, the header's included
};

/// Lays out a tree over vectors as a v4 flat arena, straight from its
/// arrays: the row-major slab of `dim`-double rows in the arrays' row order
/// (core::MvpTree::rows() and dim(), which the tree keeps within the
/// header's u32) and arrays(). A tree opened from an arena lays out that
/// arena's bytes again.
FlatArenaLayout LayOutFlatArena(const core::MvpTreeOptions& options,
                                std::span<const double> rows,
                                std::size_t dim,
                                const core::TreeArrays& arrays);

/// LayOutFlatArena, flattened: the arena in one buffer, for tests, arena
/// upgrades and tools.
std::vector<std::uint8_t> BuildFlatArena(const core::MvpTreeOptions& options,
                                         std::span<const double> rows,
                                         std::size_t dim,
                                         const core::TreeArrays& arrays);

/// The v4 arena of one serialized MvpTree stream (the exact bytes
/// MvpTree::Serialize + VectorCodec emit): MvpTree::Deserialize, the one
/// stream parser, then the overload above. Also Corruption for bytes after
/// the stream.
Result<std::vector<std::uint8_t>> BuildFlatArena(const std::uint8_t* stream,
                                                 std::size_t length);

/// A bounds-checked, structurally validated view into a flat arena. All
/// pointers alias the caller's bytes, which must outlive the view. Before
/// v4, `tree` has no leaf columns: they are the double wide_* columns.
/// For v1 and v2, `tree` has no nodes either (they are legacy_nodes); for
/// v1, it has no ids/leafpaths, wide_d1/wide_d2 are null (D1/D2 are in the
/// entries), and wide_path is the shared pool.
struct FlatArenaParts {
  FlatHeaderRec header;
  const double* objects = nullptr;
  const FlatLeafEntryRec* entries = nullptr;   ///< v1 only
  const FlatNodeRecV2* legacy_nodes = nullptr;  ///< v1 and v2 only
  const double* wide_d1 = nullptr;    ///< v2 and v3 only
  const double* wide_d2 = nullptr;    ///< v2 and v3 only
  const double* wide_path = nullptr;  ///< v1 to v3 only
  core::TreeArrays tree;
};

/// Parses + validates an arena (untrusted bytes): header sanity, section
/// bounds, id ranges, PATH slices, preorder child links, depth cap, and
/// from v3 on the vantage-point rows: each in [entry_count, object_count),
/// and all of them tiling that range in node preorder. Every corrupt offset
/// yields Corruption; a returned view is safe to traverse, and to write as
/// an MVPT stream (a leaf keeps no more PATH distances than there are
/// vantage points above it). The leaves must tile the entries in node
/// order, and in v1 entries must not share PATH slices, so the work and
/// output of UpgradeFlatArena and of laying the opened tree out again stay
/// proportional to the arena's size.
Result<FlatArenaParts> ParseFlatArena(const std::uint8_t* data,
                                      std::size_t size);

/// Transcodes a v1, v2 or v3 arena, as validated by ParseFlatArena, into
/// the v4 arena BuildFlatArena writes for the same tree, byte for byte:
/// each double leaf distance is narrowed as a build narrows it
/// (metric::kernels::NarrowDistance), and v1 and v2 objects are copied in id
/// order and put into row order in place (core::PermuteRows). Corruption
/// if a v1 leaf mixes PATH lengths, which per-leaf slabs cannot hold, or if
/// the ids and vantage points do not name every object exactly once.
Result<std::vector<std::uint8_t>> UpgradeFlatArena(
    const FlatArenaParts& legacy);

/// The tree options an arena's header records; the seed is not stored.
core::MvpTreeOptions HeaderOptions(const FlatHeaderRec& header);

/// Validates `data` (ParseFlatArena, then core::RowMap, which builds the
/// tree's id -> row map and rejects ids that do not name every object
/// exactly once) and returns the mvp-tree over it: a core::MvpTree whose
/// arrays and rows are the arena's sections, kept alive by `owner`, which
/// must hold the bytes unmodified (the snapshot path passes the mapping;
/// null when the caller outlives the tree itself). A v1, v2 or v3 arena is
/// upgraded into a v4 buffer, which then becomes the tree's owner in place
/// of `owner`. Query objects are dense real vectors; `Metric` must be a
/// metric::RowMetric, as every vector tree's is.
template <typename Metric>
Result<core::MvpTree<metric::Vector, Metric>> OpenTree(
    const std::uint8_t* data, std::size_t size, Metric metric,
    std::shared_ptr<const void> owner) {
  auto parts = ParseFlatArena(data, size);
  if (!parts.ok()) return parts.status();
  if (parts.value().header.version != kFlatVersionV4) {
    auto v4 = UpgradeFlatArena(parts.value());
    if (!v4.ok()) return v4.status();
    auto upgraded = std::make_shared<const std::vector<std::uint8_t>>(
        std::move(v4).ValueOrDie());
    parts = ParseFlatArena(upgraded->data(), upgraded->size());
    if (!parts.ok()) return parts.status();
    owner = std::move(upgraded);
  }
  const FlatArenaParts& p = parts.value();
  const auto count = static_cast<std::size_t>(p.header.object_count);
  auto row_of = core::RowMap(p.tree, count);
  if (!row_of.ok()) return row_of.status();
  return core::MvpTree<metric::Vector, Metric>::Borrow(
      HeaderOptions(p.header), p.objects, count, p.header.dim, p.tree,
      std::move(row_of).ValueOrDie(), std::move(metric), std::move(owner));
}

}  // namespace mvp::snapshot::flat

#endif  // MVPTREE_SNAPSHOT_FLAT_TREE_H_
