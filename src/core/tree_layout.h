#ifndef MVPTREE_CORE_TREE_LAYOUT_H_
#define MVPTREE_CORE_TREE_LAYOUT_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/serialize.h"
#include "common/status.h"
#include "core/search_shared.h"
#include "metric/kernels/kernels.h"

/// \file
/// The one mvp-tree layout (§4): structure-of-arrays nodes and leaves. A
/// built or deserialized tree (core/mvp_tree.h) owns these arrays in
/// vectors, a flat arena (snapshot/flat_tree.h) holds the same arrays byte
/// for byte in its sections, and a tree searches either through one
/// TreeArrays view, the node accessor and the leaf cursor below.
///
///   nodes      NodeRec[]       preorder; the root is node 0
///   children   u32[]           m*m slots per internal node; kNullChild =
///                              absent child
///   bounds     f64[]           per internal node at `begin`: lower1[m]
///                              upper1[m] lower2[m*m] upper2[m*m]
///   ids d1 d2  u32/f64/f64[]   leaf entries, a leaf's at begin..begin+count:
///                              the point id and the paper's D1[i]/D2[i]
///   leafpaths  LeafPathRec[]   per node, the leaf's PATH slab (zero for
///                              internal nodes)
///   path       f64[]           the slabs end to end in node order. A slab is
///                              column-major, slab[j*count + i] = PATH[j] of
///                              entry i, so a 64-entry chunk's PATH values
///                              are one contiguous run per column, which a
///                              range mask reads with its D1 and D2 runs in
///                              one AnnulusMask call (SoaLeaf::Mask)
///
/// Ids and node indices are u32, so one tree holds at most kMaxTreeObjects
/// objects. TreeLayout::Read is the only parser of the MVPT stream's
/// structure (MvpTree::Deserialize calls it, and BuildFlatArena goes through
/// MvpTree::Deserialize); TreeArrays::Write emits it back byte for byte,
/// from owned arrays and arena sections alike.

namespace mvp::core {

inline constexpr std::uint32_t kNodeLeaf = 1u << 0;
inline constexpr std::uint32_t kNodeHasVp2 = 1u << 1;
inline constexpr std::uint32_t kNullChild = 0xffffffffu;
inline constexpr std::uint64_t kMaxTreeObjects = 0xffffffffu;
/// Deepest nesting a parsed stream or arena may have.
inline constexpr std::size_t kMaxTreeDepth = 512;

/// One tree node, 32 bytes. Leaves: `begin`/`count` select a run of leaf
/// entries. Internal nodes: `begin` indexes the bounds (2m + 2m*m doubles),
/// `children` the first of m*m child slots.
struct NodeRec {
  std::uint32_t flags = 0;  ///< kNodeLeaf | kNodeHasVp2
  std::uint32_t vp1 = 0;
  std::uint32_t vp2 = 0;    ///< 0 without a second vantage point
  std::uint32_t count = 0;
  std::uint64_t begin = 0;
  std::uint64_t children = 0;
};
static_assert(sizeof(NodeRec) == 32, "node layout drifted");

/// One node's PATH slab, 16 bytes: `path_length * count` doubles at
/// `slab_offset`. Every entry of a leaf keeps the same number of PATH
/// distances.
struct LeafPathRec {
  std::uint64_t slab_offset = 0;
  std::uint32_t path_length = 0;
  std::uint32_t reserved = 0;
};
static_assert(sizeof(LeafPathRec) == 16, "leaf path layout drifted");

/// Non-owning view of one tree's arrays, with its m and p and the length
/// of each array (entry_count for ids, d1 and d2; node_count for nodes and
/// leafpaths).
struct TreeArrays {
  std::size_t order = 0;
  std::size_t path_distances = 0;
  std::size_t node_count = 0;
  std::size_t children_count = 0;
  std::size_t bounds_count = 0;
  std::size_t entry_count = 0;
  std::size_t path_count = 0;
  const NodeRec* nodes = nullptr;
  const std::uint32_t* children = nullptr;
  const double* bounds = nullptr;
  const std::uint32_t* ids = nullptr;
  const double* d1 = nullptr;
  const double* d2 = nullptr;
  const LeafPathRec* leafpaths = nullptr;
  const double* path = nullptr;

  /// Writes the structure part of the MVPT stream TreeLayout::Read parses.
  void Write(BinaryWriter* writer) const;
};

/// The arrays, owned: what a heap tree holds and a flat arena is laid out
/// from.
struct TreeLayout {
  std::vector<NodeRec> nodes;
  std::vector<std::uint32_t> children;
  std::vector<double> bounds;
  std::vector<std::uint32_t> ids;
  std::vector<double> d1;
  std::vector<double> d2;
  std::vector<LeafPathRec> leafpaths;
  std::vector<double> path;

  TreeArrays Arrays(std::size_t order, std::size_t p) const {
    return {order, p, nodes.size(), children.size(), bounds.size(),
            ids.size(), path.size(), nodes.data(), children.data(),
            bounds.data(), ids.data(), d1.data(), d2.data(),
            leafpaths.data(), path.data()};
  }

  /// Appends an internal node whose m*m children are absent and whose
  /// shells are all [0, +inf); returns its index.
  std::uint32_t AddInternal(std::uint32_t vp1, std::uint32_t vp2,
                            std::size_t m);
  /// Appends a leaf over the last `count` entries of ids/d1/d2, with a
  /// zeroed slab of `path_length` PATH distances per entry for the caller
  /// to fill; returns its index.
  std::uint32_t AddLeaf(std::uint32_t vp1, std::uint32_t vp2, bool has_vp2,
                        std::size_t count, std::size_t path_length);

  /// Parses the structure part of an MVPT stream — the PATH pool, then the
  /// preorder nodes — into this empty layout, for a tree of `objects`
  /// objects with order m and p PATH distances. Corruption for anything a
  /// writer cannot produce: ids out of range, malformed bounds, nesting past
  /// kMaxTreeDepth, no root under objects, an entry keeping more than p
  /// PATH distances, a leaf mixing PATH lengths, or PATH slices that do not
  /// tile the pool in stream order.
  Status Read(BinaryReader* reader, std::uint64_t objects, std::size_t m,
              std::size_t p);
};

/// Leaf cursor: contiguous id/D1/D2 columns and a column-major PATH slab.
/// A range mask tests one 64-entry chunk against all of the leaf's columns
/// in one branchless AnnulusMask call — D1, D2 and PATH[0..checks), up to
/// kMaskColumns per call, so one call whenever p <= 6 — and its pass bits
/// equal the scalar per-entry tests.
struct SoaLeaf {
  /// Columns per AnnulusMask call: D1, D2 and six PATH columns.
  static constexpr std::size_t kMaskColumns = 8;

  const std::uint32_t* ids;
  const double* d1s;
  const double* d2s;
  const double* slab;
  std::size_t count;
  std::size_t path_length;

  std::size_t size() const { return count; }
  std::size_t id(std::size_t i) const { return ids[i]; }
  std::size_t Checks(const std::vector<double>& qpath) const {
    return std::min(qpath.size(), path_length);
  }
  std::uint64_t Mask(std::size_t base, std::size_t n, const LeafQuery& q,
                     double r) const {
    std::array<double, kMaskColumns> centers{};
    std::array<const double*, kMaskColumns> columns{};
    std::size_t k = 0;
    std::uint64_t mask = ~std::uint64_t{0};
    const auto add = [&](double center, const double* column) {
      if (k == kMaskColumns) {
        mask &= metric::kernels::AnnulusMask(centers.data(), columns.data(), k,
                                             n, r);
        k = 0;
      }
      centers[k] = center;
      columns[k++] = column + base;
    };
    add(q.d[0], d1s);
    if (q.vps > 1) add(q.d[1], d2s);
    for (std::size_t j = 0; j < Checks(q.qpath); ++j) {
      add(q.qpath[j], slab + j * count);
    }
    return mask &
           metric::kernels::AnnulusMask(centers.data(), columns.data(), k, n, r);
  }
  /// Entry i's distance to the leaf's vantage point l.
  auto Stored(std::size_t i) const {
    return [this, i](std::size_t l) { return l == 0 ? d1s[i] : d2s[i]; };
  }
  bool Passes(std::size_t i, const LeafQuery& q, double r) const {
    return q.Admits<2>(Stored(i), slab + i, count, Checks(q.qpath), r);
  }
  bool Reaches(std::size_t i, const LeafQuery& q, double tau) const {
    return q.Reaches<2>(Stored(i), slab + i, count, Checks(q.qpath), tau);
  }
};

/// The node accessor core::Traversal runs on (core/search_shared.h), over
/// one tree's arrays. `Owner` supplies metric() and object(id): the tree's
/// stored objects (metric::VectorView rows for vectors, owned or mapped).
template <typename Owner>
struct TreeNodes {
  const Owner* owner;
  TreeArrays t;

  const NodeRec* Root() const { return t.node_count == 0 ? nullptr : t.nodes; }
  std::size_t Order() const { return t.order; }
  std::size_t PathDistances() const { return t.path_distances; }
  static constexpr std::size_t Levels() { return 2; }
  bool IsLeaf(const NodeRec* n) const { return (n->flags & kNodeLeaf) != 0; }
  std::size_t VpCount(const NodeRec* n) const {
    return (n->flags & kNodeHasVp2) != 0 ? 2 : 1;
  }
  std::size_t Vp(const NodeRec* n, std::size_t l) const {
    return l == 0 ? n->vp1 : n->vp2;
  }
  ShellBounds Shells(const NodeRec* n, std::size_t l) const {
    const std::size_t m = t.order;
    const double* lower1 = t.bounds + n->begin;
    return l == 0 ? ShellBounds{lower1, lower1 + m}
                  : ShellBounds{lower1 + 2 * m, lower1 + 2 * m + m * m};
  }
  const NodeRec* Child(const NodeRec* n, std::size_t c) const {
    const std::uint32_t child = t.children[n->children + c];
    return child == kNullChild ? nullptr : t.nodes + child;
  }
  SoaLeaf Leaf(const NodeRec* n) const {
    const LeafPathRec& lp = t.leafpaths[n - t.nodes];
    return SoaLeaf{t.ids + n->begin, t.d1 + n->begin, t.d2 + n->begin,
                   t.path + lp.slab_offset, n->count, lp.path_length};
  }
  /// Requests the columns a k-NN search reads on entering leaf n: its id,
  /// D1 and D2 runs and its PATH slab. Internal nodes request nothing.
  void Prefetch(const NodeRec* n) const {
    if (!IsLeaf(n)) return;
    const SoaLeaf leaf = Leaf(n);
    using metric::kernels::PrefetchBytes;
    PrefetchBytes(leaf.ids, leaf.count * sizeof(*leaf.ids));
    PrefetchBytes(leaf.d1s, leaf.count * sizeof(double));
    PrefetchBytes(leaf.d2s, leaf.count * sizeof(double));
    PrefetchBytes(leaf.slab, leaf.path_length * leaf.count * sizeof(double));
  }
  decltype(auto) metric() const { return owner->metric(); }
  decltype(auto) object(std::size_t id) const { return owner->object(id); }
};

}  // namespace mvp::core

#endif  // MVPTREE_CORE_TREE_LAYOUT_H_
