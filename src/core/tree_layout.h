#ifndef MVPTREE_CORE_TREE_LAYOUT_H_
#define MVPTREE_CORE_TREE_LAYOUT_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <type_traits>
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
///   ids d1 d2  u32/f32/f32[]   leaf entries, a leaf's at begin..begin+count:
///                              the point id and the paper's D1[i]/D2[i]
///   leafpaths  LeafPathRec[]   per node, the leaf's PATH slab (zero for
///                              internal nodes)
///   path       f32[]           the slabs end to end in node order. A slab is
///                              column-major, slab[j*count + i] = PATH[j] of
///                              entry i, so a 64-entry chunk's PATH values
///                              are one contiguous run per column, which a
///                              range mask reads with its D1 and D2 runs in
///                              one AnnulusMask call (SoaLeaf::Mask)
///
/// Leaf columns. D1, D2 and PATH are floats: each is the saturating
/// narrowing (metric::kernels::NarrowDistance) of the distance the build
/// computed in double. A leaf test compares the query's double distance
/// with the widened float at a radius that admits every entry the test on
/// the double distance admits (metric::kernels::ColumnRadius and
/// ColumnUpper, through LeafQuery), so the answer stays exact and a search
/// reads half the bytes. They are the only copy of the leaf distances a
/// tree keeps: the MVPT stream carries them in double, and WriteStructure
/// recomputes each one from the tree's objects as the build computed it.
///
/// Row order. A tree stores its objects by row, not by id. Rows
/// [0, entry_count) are the leaf entries in entry order, which is preorder
/// leaf order, so entry e lives at row e and a leaf's entries are one
/// contiguous block of rows. Rows [entry_count, n) are the vantage points in
/// node preorder, each node's vp1 and then its vp2, at the row its NodeRec
/// records (vp_row). The search evaluates objects by row; ids (the ids
/// column, vp1 and vp2) only name the objects it offers, excludes or
/// reports. AssignRows gives a layout its vantage-point rows, RowMap inverts
/// the order into an id -> row map, and PermuteRows puts objects held in id
/// order into row order in place.
///
/// Ids and node indices are u32, so one tree holds at most kMaxTreeObjects
/// objects. TreeLayout::Read is the only parser of the MVPT stream's
/// structure (MvpTree::Deserialize calls it, and BuildFlatArena goes through
/// MvpTree::Deserialize); WriteStructure is its only writer.

namespace mvp::core {

inline constexpr std::uint32_t kNodeLeaf = 1u << 0;
inline constexpr std::uint32_t kNodeHasVp2 = 1u << 1;
inline constexpr std::uint32_t kNullChild = 0xffffffffu;
inline constexpr std::uint64_t kMaxTreeObjects = 0xffffffffu;
/// Deepest nesting a parsed stream or arena may have.
inline constexpr std::size_t kMaxTreeDepth = 512;

/// One tree node, 40 bytes. Leaves: `begin`/`count` select a run of leaf
/// entries, which are also rows begin..begin+count. Internal nodes: `begin`
/// indexes the bounds (2m + 2m*m doubles), `children` the first of m*m
/// child slots. vp1 and vp2 are ids; `vp_row` is vp1's row, and vp2's is
/// the next one.
struct NodeRec {
  std::uint32_t flags = 0;  ///< kNodeLeaf | kNodeHasVp2
  std::uint32_t vp1 = 0;
  std::uint32_t vp2 = 0;    ///< 0 without a second vantage point
  std::uint32_t count = 0;
  std::uint64_t begin = 0;
  std::uint64_t children = 0;
  std::uint32_t vp_row = 0;
  std::uint32_t reserved = 0;
};
static_assert(sizeof(NodeRec) == 40, "node layout drifted");

/// A node's vantage points: 2 with kNodeHasVp2, else 1.
inline std::size_t VpCount(const NodeRec& n) {
  return (n.flags & kNodeHasVp2) != 0 ? 2 : 1;
}

/// One node's PATH slab, 16 bytes: `path_length * count` values at
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
/// leafpaths): what every search and walk reads, with the float leaf
/// columns.
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
  const float* d1 = nullptr;
  const float* d2 = nullptr;
  const LeafPathRec* leafpaths = nullptr;
  const float* path = nullptr;
};

/// The arrays, owned: what a heap tree holds and a flat arena is laid out
/// from. The leaf columns hold each leaf distance narrowed as it is
/// recorded (metric::kernels::NarrowDistance).
struct TreeLayout {
  std::vector<NodeRec> nodes;
  std::vector<std::uint32_t> children;
  std::vector<double> bounds;
  std::vector<std::uint32_t> ids;
  std::vector<float> d1_f32;
  std::vector<float> d2_f32;
  std::vector<LeafPathRec> leafpaths;
  std::vector<float> path_f32;

  /// The search view.
  TreeArrays Arrays(std::size_t order, std::size_t p) const {
    return {order, p, nodes.size(), children.size(), bounds.size(),
            ids.size(), path_f32.size(), nodes.data(), children.data(),
            bounds.data(), ids.data(), d1_f32.data(), d2_f32.data(),
            leafpaths.data(), path_f32.data()};
  }

  /// Appends an internal node whose m*m children are absent and whose
  /// shells are all [0, +inf); returns its index.
  std::uint32_t AddInternal(std::uint32_t vp1, std::uint32_t vp2,
                            std::size_t m);
  /// Appends a leaf over the last `count` entries of the ids, D1 and D2
  /// columns, with a zeroed slab of `path_length` PATH distances per entry
  /// for the caller to fill; returns its index.
  std::uint32_t AddLeaf(std::uint32_t vp1, std::uint32_t vp2, bool has_vp2,
                        std::size_t count, std::size_t path_length);
  /// Records every node's vp_row: the vantage points' rows in node
  /// preorder, after the entries' rows (row order, above).
  void AssignRows();

  /// Parses the structure part of an MVPT stream — the PATH pool, then the
  /// preorder nodes — into this empty layout, for a tree of `objects`
  /// objects with order m and p PATH distances, narrowing each leaf
  /// distance as it reads it. Corruption for anything a writer cannot
  /// produce: ids out of range, malformed bounds, nesting past
  /// kMaxTreeDepth, no root under objects, an entry keeping more than p
  /// PATH distances or more than the two per internal node above its leaf,
  /// a leaf mixing PATH lengths, or PATH slices that do not tile the pool
  /// in stream order.
  Status Read(BinaryReader* reader, std::uint64_t objects, std::size_t m,
              std::size_t p);
};

/// Recomputes one leaf distance: `distance(vp_row, row)` is the metric
/// between the objects at rows vp_row and row, vantage point first.
using LeafDistance = std::function<double(std::size_t, std::size_t)>;

/// Writes the structure part of the MVPT stream TreeLayout::Read parses for
/// tree `t`: the PATH pool, then the nodes in preorder. The stream carries
/// the leaf distances in double, so each one is recomputed with `distance`
/// — D1 and D2 to the leaf's vantage points, PATH[j] to the j-th vantage
/// point on the root path — exactly as the build computed it, which makes
/// the bytes the build's. (2 + p) distance computations per leaf entry.
/// `t`'s leaf PATH lengths must not exceed the vantage points above each
/// leaf, which Read and snapshot::flat::ParseFlatArena enforce.
void WriteStructure(BinaryWriter* writer, const TreeArrays& t,
                    const LeafDistance& distance);

/// The ids of rows [entry_count, entry_count + vantage points) of `t`: every
/// node's vantage points in preorder, vp1 before vp2.
std::vector<std::uint32_t> VantagePointIds(const TreeArrays& t);

/// The id -> row map of a tree over `objects` objects: map[id] is the row
/// holding object id. `t`'s vp rows must tile [entry_count, objects) in
/// preorder (AssignRows; ParseFlatArena checks an arena's). Corruption when
/// the leaf entries and vantage points do not name every id below
/// `objects` exactly once.
Result<std::vector<std::uint32_t>> RowMap(const TreeArrays& t,
                                          std::size_t objects);

/// Puts the objects of a tree, held in id order, into row order in place:
/// the object at position id moves to row map[id]. It follows each cycle of
/// the permutation with one spare object — `hold(i)` copies position i into
/// the spare, `move(from, to)` copies position `from` to position `to`, and
/// `release(to)` copies the spare to position `to` — and marks finished
/// positions in one bit per object, so it never holds a second copy of the
/// objects. `t`'s ids must be a permutation (RowMap succeeded on them).
template <typename Hold, typename Move, typename Release>
void PermuteInPlace(const TreeArrays& t, std::size_t objects, Hold&& hold,
                    Move&& move, Release&& release) {
  const std::vector<std::uint32_t> vps = VantagePointIds(t);
  const auto id_at = [&](std::size_t row) -> std::size_t {
    return row < t.entry_count ? t.ids[row] : vps[row - t.entry_count];
  };
  std::vector<bool> done(objects, false);
  for (std::size_t start = 0; start < objects; ++start) {
    if (done[start]) continue;
    done[start] = true;
    std::size_t from = id_at(start);
    if (from == start) continue;
    // Row `to` takes the object still at position id_at(to), until the
    // cycle comes back to the held one.
    hold(start);
    std::size_t to = start;
    while (from != start) {
      move(from, to);
      to = from;
      done[to] = true;
      from = id_at(to);
    }
    release(to);
  }
}

/// PermuteInPlace over a slab of `objects` rows of `row_bytes` bytes each,
/// such as a vector tree's row-major doubles.
void PermuteRows(const TreeArrays& t, void* rows, std::size_t objects,
                 std::size_t row_bytes);

/// Leaf cursor: contiguous id/D1/D2 columns and a column-major PATH slab of
/// stored type T. The tree's cursor, SoaLeaf, reads the float columns; a
/// cursor over double columns runs the exact double tests, entry by entry.
/// A float cursor's range mask tests one 64-entry chunk against all of the
/// leaf's columns in one branchless AnnulusMask call — D1, D2 and
/// PATH[0..checks), up to kMaskColumns per call, so one call whenever
/// p <= 6 — each column at its own metric::kernels::ColumnRadius, and its
/// pass bits equal the scalar per-entry tests.
template <typename T>
struct SoaLeafOf {
  /// Columns per AnnulusMask call: D1, D2 and six PATH columns.
  static constexpr std::size_t kMaskColumns = 8;

  const std::uint32_t* ids;
  const T* d1s;
  const T* d2s;
  const T* slab;
  std::size_t count;
  std::size_t path_length;
  std::size_t first_row;  ///< entry 0's row: the leaf's entry offset

  std::size_t size() const { return count; }
  std::size_t id(std::size_t i) const { return ids[i]; }
  std::size_t row(std::size_t i) const { return first_row + i; }
  std::size_t Checks(std::span<const double> qpath) const {
    return std::min(qpath.size(), path_length);
  }
  std::uint64_t Mask(std::size_t base, std::size_t n, const LeafQuery& q,
                     double r) const
    requires std::is_same_v<T, float>
  {
    std::array<double, kMaskColumns> centers{};
    std::array<double, kMaskColumns> radii{};
    std::array<const float*, kMaskColumns> columns{};
    std::size_t k = 0;
    std::uint64_t mask = ~std::uint64_t{0};
    const auto add = [&](double center, const float* column) {
      if (k == kMaskColumns) {
        mask &= metric::kernels::AnnulusMask(centers.data(), radii.data(),
                                             columns.data(), k, n);
        k = 0;
      }
      centers[k] = center;
      radii[k] = metric::kernels::ColumnRadius(center, r);
      columns[k++] = column + base;
    };
    add(q.d[0], d1s);
    if (q.vps > 1) add(q.d[1], d2s);
    for (std::size_t j = 0; j < Checks(q.qpath); ++j) {
      add(q.qpath[j], slab + j * count);
    }
    return mask & metric::kernels::AnnulusMask(centers.data(), radii.data(),
                                               columns.data(), k, n);
  }
  /// Entry i's stored distance to the leaf's vantage point l.
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
using SoaLeaf = SoaLeafOf<float>;

/// The node accessor core::Traversal runs on (core/search_shared.h), over
/// one tree's arrays. `Owner` supplies metric() and object_at_row(row): the
/// tree's stored objects by row (metric::VectorView rows for vectors, owned
/// or mapped).
template <typename Owner>
struct TreeNodes {
  const Owner* owner;
  TreeArrays t;

  const NodeRec* Root() const { return t.node_count == 0 ? nullptr : t.nodes; }
  std::size_t Order() const { return t.order; }
  std::size_t PathDistances() const { return t.path_distances; }
  static constexpr std::size_t Levels() { return 2; }
  bool IsLeaf(const NodeRec* n) const { return (n->flags & kNodeLeaf) != 0; }
  std::size_t VpCount(const NodeRec* n) const { return core::VpCount(*n); }
  std::size_t Vp(const NodeRec* n, std::size_t l) const {
    return l == 0 ? n->vp1 : n->vp2;
  }
  std::size_t VpRow(const NodeRec* n, std::size_t l) const {
    return n->vp_row + l;
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
  std::size_t Preorder(const NodeRec* n) const {
    return static_cast<std::size_t>(n - t.nodes);
  }
  SoaLeaf Leaf(const NodeRec* n) const {
    const LeafPathRec& lp = t.leafpaths[n - t.nodes];
    return SoaLeaf{t.ids + n->begin, t.d1 + n->begin, t.d2 + n->begin,
                   t.path + lp.slab_offset, n->count, lp.path_length,
                   n->begin};
  }
  /// Requests the columns a k-NN search reads on entering leaf n: its id,
  /// D1 and D2 runs and its PATH slab. Internal nodes request nothing.
  void Prefetch(const NodeRec* n) const {
    if (!IsLeaf(n)) return;
    const SoaLeaf leaf = Leaf(n);
    using metric::kernels::PrefetchBytes;
    PrefetchBytes(leaf.ids, leaf.count * sizeof(*leaf.ids));
    PrefetchBytes(leaf.d1s, leaf.count * sizeof(float));
    PrefetchBytes(leaf.d2s, leaf.count * sizeof(float));
    PrefetchBytes(leaf.slab, leaf.path_length * leaf.count * sizeof(float));
  }
  decltype(auto) metric() const { return owner->metric(); }
  decltype(auto) At(std::size_t row) const {
    return owner->object_at_row(row);
  }
};

}  // namespace mvp::core

#endif  // MVPTREE_CORE_TREE_LAYOUT_H_
