#include "snapshot/flat_tree.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <span>
#include <string>

#include "common/codec.h"
#include "common/serialize.h"
#include "metric/lp.h"

/// \file
/// Flat-arena layout (a heap tree's arrays, a serialized MvpTree stream or
/// a v1, v2 or v3 arena -> v4 arena) and untrusted-arena validation.
/// Non-template code: the arena layout is object-type-specific (dense real
/// vectors), which is what makes the in-place VectorView serving possible
/// at all.

namespace mvp::snapshot::flat {
namespace {

std::uint64_t Align8(std::uint64_t v) { return (v + 7) & ~std::uint64_t{7}; }

/// The zero bytes every padding span views (padding is under 8 bytes).
constexpr std::uint8_t kZeroPadding[kFlatAlignment] = {};

/// Appends `count` records at `values` as the next section of `layout`,
/// then the zero padding to the next 8-byte boundary, and returns the
/// section's offset.
template <typename T>
std::uint64_t AddSection(FlatArenaLayout* layout, const T* values,
                         std::size_t count) {
  const std::uint64_t offset = layout->size;
  const auto bytes = ByteSpan(std::span(values, count));
  if (bytes.empty()) return offset;
  layout->body.push_back(bytes);
  const std::uint64_t end = offset + bytes.size();
  const auto pad = static_cast<std::size_t>(Align8(end) - end);
  if (pad != 0) layout->body.emplace_back(kZeroPadding, pad);
  layout->size = static_cast<std::size_t>(Align8(end));
  return offset;
}

/// Lays out `t` as a v4 arena behind header `h` (options, dim and object
/// count filled) and the row-major `objects`. Every section offset stays
/// 8-aligned (the u32 ids and the f32 leaf columns can end off an 8-byte
/// boundary, hence the padding after each section).
FlatArenaLayout LayOut(FlatHeaderRec h, std::span<const double> objects,
                       const core::TreeArrays& t) {
  h.version = kFlatVersionV4;
  h.reserved = 0;
  h.node_count = t.node_count;
  h.root = t.node_count == 0 ? kNoNode : 0;
  h.path_count = t.path_count;
  h.bounds_count = t.bounds_count;
  h.entry_count = t.entry_count;
  h.children_count = t.children_count;
  FlatHeaderExtRec ext;
  FlatArenaLayout layout;
  layout.size = kFlatHeaderBytesV2;
  h.objects_offset = AddSection(&layout, objects.data(), objects.size());
  h.path_offset = AddSection(&layout, t.path, t.path_count);
  h.bounds_offset = AddSection(&layout, t.bounds, t.bounds_count);
  h.entries_offset = AddSection(&layout, t.ids, t.entry_count);  // ids
  ext.d1_offset = AddSection(&layout, t.d1, t.entry_count);
  ext.d2_offset = AddSection(&layout, t.d2, t.entry_count);
  ext.leafpaths_offset = AddSection(&layout, t.leafpaths, t.node_count);
  h.nodes_offset = AddSection(&layout, t.nodes, t.node_count);
  h.children_offset = AddSection(&layout, t.children, t.children_count);
  h.arena_bytes = layout.size;
  layout.header.resize(kFlatHeaderBytesV2);
  std::memcpy(layout.header.data(), &h, sizeof(h));
  std::memcpy(layout.header.data() + sizeof(h), &ext, sizeof(ext));
  return layout;
}

/// The bytes of `layout` in one buffer.
std::vector<std::uint8_t> FlattenFlatArena(const FlatArenaLayout& layout) {
  std::vector<std::uint8_t> arena(layout.size);
  std::memcpy(arena.data(), layout.header.data(), layout.header.size());
  std::size_t at = layout.header.size();
  for (const auto piece : layout.body) {
    std::memcpy(arena.data() + at, piece.data(), piece.size());
    at += piece.size();
  }
  return arena;
}

}  // namespace

FlatArenaLayout LayOutFlatArena(const core::MvpTreeOptions& options,
                                std::span<const double> rows,
                                std::size_t dim,
                                const core::TreeArrays& arrays) {
  FlatHeaderRec h;
  h.order = static_cast<std::uint32_t>(options.order);
  h.leaf_capacity = static_cast<std::uint32_t>(options.leaf_capacity);
  h.num_path_distances =
      static_cast<std::uint32_t>(options.num_path_distances);
  if (options.store_exact_bounds) h.flags |= kHeaderExactBounds;
  h.dim = static_cast<std::uint32_t>(dim);
  h.object_count = dim == 0 ? 0 : rows.size() / dim;
  return LayOut(h, rows, arrays);
}

std::vector<std::uint8_t> BuildFlatArena(const core::MvpTreeOptions& options,
                                         std::span<const double> rows,
                                         std::size_t dim,
                                         const core::TreeArrays& arrays) {
  return FlattenFlatArena(LayOutFlatArena(options, rows, dim, arrays));
}

Result<std::vector<std::uint8_t>> BuildFlatArena(const std::uint8_t* stream,
                                                 std::size_t length) {
  BinaryReader reader(stream, length);
  auto tree = core::MvpTree<metric::Vector, metric::L2>::Deserialize(
      &reader, metric::L2{}, VectorCodec{});
  if (!tree.ok()) return tree.status();
  if (!reader.AtEnd()) {
    return Status::Corruption("trailing bytes after mvp-tree stream");
  }
  return BuildFlatArena(tree.value().options(), tree.value().rows(),
                        tree.value().dim(), tree.value().arrays());
}

core::MvpTreeOptions HeaderOptions(const FlatHeaderRec& header) {
  core::MvpTreeOptions options;
  options.order = static_cast<int>(header.order);
  options.leaf_capacity = static_cast<int>(header.leaf_capacity);
  options.num_path_distances = static_cast<int>(header.num_path_distances);
  options.store_exact_bounds = (header.flags & kHeaderExactBounds) != 0;
  return options;
}

namespace {

/// Node i of a validated arena, as a NodeRec (v1 and v2 nodes get vp_row 0).
core::NodeRec NodeAt(const FlatArenaParts& parts, std::size_t i) {
  if (parts.legacy_nodes == nullptr) return parts.tree.nodes[i];
  const FlatNodeRecV2& in = parts.legacy_nodes[i];
  core::NodeRec node;
  node.flags = in.flags;
  node.vp1 = in.vp1;
  node.vp2 = in.vp2;
  node.count = in.count;
  node.begin = in.begin;
  node.children = in.children;
  return node;
}

}  // namespace

Result<std::vector<std::uint8_t>> UpgradeFlatArena(
    const FlatArenaParts& legacy) {
  const FlatHeaderRec& in = legacy.header;
  if (in.version != kFlatVersionV1 && in.version != kFlatVersionV2 &&
      in.version != kFlatVersionV3) {
    return Status::InvalidArgument("not a v1, v2 or v3 flat arena");
  }
  // Children and bounds carry over, and v1 and v2 nodes gain their vp rows
  // (v3's already hold the same ones). v2's and v3's leaf columns and slabs
  // carry over too; v1's AoS entries split into the id/D1/D2 columns, and
  // each leaf's PATH slices into its slab. Every leaf distance is narrowed
  // as it is copied.
  using metric::kernels::NarrowDistance;
  const auto narrow = [](const double* in, std::size_t count) {
    std::vector<float> out(count);
    std::transform(in, in + count, out.begin(), NarrowDistance);
    return out;
  };
  const core::TreeArrays& a = legacy.tree;
  core::TreeLayout t;
  for (std::size_t i = 0; i < in.node_count; ++i) {
    t.nodes.push_back(NodeAt(legacy, i));
  }
  t.children.assign(a.children, a.children + in.children_count);
  t.bounds.assign(a.bounds, a.bounds + in.bounds_count);
  if (in.version != kFlatVersionV1) {
    t.ids.assign(a.ids, a.ids + in.entry_count);
    t.d1_f32 = narrow(legacy.wide_d1, in.entry_count);
    t.d2_f32 = narrow(legacy.wide_d2, in.entry_count);
    t.leafpaths.assign(a.leafpaths, a.leafpaths + in.node_count);
    t.path_f32 = narrow(legacy.wide_path, in.path_count);
  } else {
    for (const FlatLeafEntryRec& e :
         std::span(legacy.entries, in.entry_count)) {
      t.ids.push_back(e.id);
      t.d1_f32.push_back(NarrowDistance(e.d1));
      t.d2_f32.push_back(NarrowDistance(e.d2));
    }
    t.leafpaths.resize(t.nodes.size());
    for (std::size_t ni = 0; ni < t.nodes.size(); ++ni) {
      const core::NodeRec& node = t.nodes[ni];
      if ((node.flags & core::kNodeLeaf) == 0) continue;
      const FlatLeafEntryRec* entries = legacy.entries + node.begin;
      core::LeafPathRec& lp = t.leafpaths[ni];
      lp.slab_offset = t.path_f32.size();
      lp.path_length = node.count > 0 ? entries[0].path_length : 0;
      for (std::uint32_t i = 0; i < node.count; ++i) {
        if (entries[i].path_length != lp.path_length) {
          // A heap tree records one PATH prefix length per leaf; mixed
          // lengths in a leaf have no slab representation.
          return Status::Corruption(
              "leaf PATH lengths inconsistent in a leaf");
        }
      }
      for (std::uint32_t j = 0; j < lp.path_length; ++j) {
        for (std::uint32_t i = 0; i < node.count; ++i) {
          t.path_f32.push_back(NarrowDistance(
              legacy.wide_path[std::size_t{entries[i].path_offset} + j]));
        }
      }
    }
  }
  t.AssignRows();
  const core::TreeArrays arrays = t.Arrays(in.order, in.num_path_distances);
  const auto count = static_cast<std::size_t>(in.object_count);
  // The in-place reorder needs every object named exactly once.
  if (auto map = core::RowMap(arrays, count); !map.ok()) return map.status();
  std::vector<std::uint8_t> arena =
      FlattenFlatArena(LayOut(in, {legacy.objects, count * in.dim}, arrays));
  if (in.version != kFlatVersionV3) {
    // The objects section sits right behind the header.
    core::PermuteRows(arrays, arena.data() + kFlatHeaderBytesV2, count,
                      std::size_t{in.dim} * sizeof(double));
  }
  return arena;
}

namespace {

Status SectionInBounds(std::uint64_t offset, std::uint64_t count,
                       std::uint64_t element_size, std::uint64_t size,
                       const char* what) {
  if (offset % kFlatAlignment != 0) {
    return Status::Corruption(std::string("flat arena ") + what +
                              " section misaligned");
  }
  if (offset > size) {
    return Status::Corruption(std::string("flat arena ") + what +
                              " section out of bounds");
  }
  if (element_size == 0) {
    // Only the objects section of an empty arena (dim == 0) has zero-size
    // elements; any element would make the section unbounded, and the
    // division below would be undefined.
    if (count != 0) {
      return Status::Corruption(std::string("flat arena ") + what +
                                " section out of bounds");
    }
    return Status::OK();
  }
  if (count > (size - offset) / element_size) {
    return Status::Corruption(std::string("flat arena ") + what +
                              " section out of bounds");
  }
  return Status::OK();
}

}  // namespace

Result<FlatArenaParts> ParseFlatArena(const std::uint8_t* data,
                                      std::size_t size) {
  if (reinterpret_cast<std::uintptr_t>(data) % kFlatAlignment != 0) {
    return Status::InvalidArgument("flat arena base address misaligned");
  }
  if (size < kFlatHeaderBytesV1) {
    return Status::Corruption("flat arena smaller than its header");
  }
  FlatHeaderRec h;
  std::memcpy(&h, data, sizeof(h));
  if (h.magic != kFlatMagic) {
    return Status::Corruption("bad flat arena magic");
  }
  if (h.version < kFlatVersionV1 || h.version > kFlatVersionV4) {
    return Status::NotSupported("unknown flat arena version " +
                                std::to_string(h.version));
  }
  // v2 to v4 share the header extension and the SoA leaf sections; v3 adds
  // the row order and the vp row in each node record, and v4 narrows the
  // leaf columns to f32.
  const bool v2 = h.version != kFlatVersionV1;
  const bool v3 = h.version >= kFlatVersionV3;
  const bool v4 = h.version == kFlatVersionV4;
  const std::uint64_t column_bytes = v4 ? sizeof(float) : sizeof(double);
  FlatHeaderExtRec ext;
  if (v2) {
    if (size < kFlatHeaderBytesV2) {
      return Status::Corruption("flat arena smaller than its header");
    }
    std::memcpy(&ext, data + sizeof(h), sizeof(ext));
    if (ext.reserved0 != 0 || ext.reserved1 != 0 || ext.reserved2 != 0) {
      return Status::Corruption("flat arena header reserved bytes nonzero");
    }
  }
  constexpr std::uint32_t kMaxI32 = 0x7fffffffu;
  if (h.order < 2 || h.order > kMaxI32 || h.leaf_capacity < 1 ||
      h.leaf_capacity > kMaxI32 || h.num_path_distances > kMaxI32 ||
      (h.flags & ~kHeaderExactBounds) != 0) {
    return Status::Corruption("flat arena options out of range");
  }
  if (h.arena_bytes != size) {
    return Status::Corruption("flat arena size mismatches header");
  }
  if (h.object_count > std::numeric_limits<std::uint32_t>::max()) {
    return Status::Corruption("flat arena object count out of range");
  }
  if (h.dim == 0 && h.object_count != 0) {
    return Status::Corruption("flat arena stores objects but dim is zero");
  }

  // Section bounds. Objects need count*dim doubles; guard the product.
  const std::uint64_t m = h.order;
  MVP_RETURN_NOT_OK(SectionInBounds(h.objects_offset, h.object_count,
                                    sizeof(double) * std::uint64_t{h.dim},
                                    size, "objects"));
  MVP_RETURN_NOT_OK(SectionInBounds(h.path_offset, h.path_count,
                                    column_bytes, size, "path"));
  MVP_RETURN_NOT_OK(SectionInBounds(h.bounds_offset, h.bounds_count,
                                    sizeof(double), size, "bounds"));
  if (v2) {
    // In v2 the entries section holds u32 ids; D1/D2/leafpaths live behind
    // the header extension.
    MVP_RETURN_NOT_OK(SectionInBounds(h.entries_offset, h.entry_count,
                                      sizeof(std::uint32_t), size, "ids"));
    MVP_RETURN_NOT_OK(SectionInBounds(ext.d1_offset, h.entry_count,
                                      column_bytes, size, "d1"));
    MVP_RETURN_NOT_OK(SectionInBounds(ext.d2_offset, h.entry_count,
                                      column_bytes, size, "d2"));
    MVP_RETURN_NOT_OK(SectionInBounds(ext.leafpaths_offset, h.node_count,
                                      sizeof(core::LeafPathRec), size,
                                      "leafpaths"));
  } else {
    MVP_RETURN_NOT_OK(SectionInBounds(h.entries_offset, h.entry_count,
                                      sizeof(FlatLeafEntryRec), size,
                                      "entries"));
  }
  MVP_RETURN_NOT_OK(SectionInBounds(
      h.nodes_offset, h.node_count,
      v3 ? sizeof(core::NodeRec) : sizeof(FlatNodeRecV2), size, "nodes"));
  MVP_RETURN_NOT_OK(SectionInBounds(h.children_offset, h.children_count,
                                    sizeof(std::uint32_t), size, "children"));

  FlatArenaParts parts;
  parts.header = h;
  parts.objects = reinterpret_cast<const double*>(data + h.objects_offset);
  core::TreeArrays& t = parts.tree;
  t.order = h.order;
  t.path_distances = h.num_path_distances;
  t.node_count = static_cast<std::size_t>(h.node_count);
  t.children_count = static_cast<std::size_t>(h.children_count);
  t.bounds_count = static_cast<std::size_t>(h.bounds_count);
  t.path_count = static_cast<std::size_t>(h.path_count);
  if (v4) {
    t.path = reinterpret_cast<const float*>(data + h.path_offset);
  } else {
    parts.wide_path = reinterpret_cast<const double*>(data + h.path_offset);
  }
  t.bounds = reinterpret_cast<const double*>(data + h.bounds_offset);
  if (v3) {
    t.nodes = reinterpret_cast<const core::NodeRec*>(data + h.nodes_offset);
  } else {
    parts.legacy_nodes =
        reinterpret_cast<const FlatNodeRecV2*>(data + h.nodes_offset);
  }
  t.children = reinterpret_cast<const std::uint32_t*>(data + h.children_offset);
  if (v2) {
    t.entry_count = static_cast<std::size_t>(h.entry_count);
    t.ids = reinterpret_cast<const std::uint32_t*>(data + h.entries_offset);
    if (v4) {
      t.d1 = reinterpret_cast<const float*>(data + ext.d1_offset);
      t.d2 = reinterpret_cast<const float*>(data + ext.d2_offset);
    } else {
      parts.wide_d1 = reinterpret_cast<const double*>(data + ext.d1_offset);
      parts.wide_d2 = reinterpret_cast<const double*>(data + ext.d2_offset);
    }
    t.leafpaths =
        reinterpret_cast<const core::LeafPathRec*>(data + ext.leafpaths_offset);
  } else {
    parts.entries =
        reinterpret_cast<const FlatLeafEntryRec*>(data + h.entries_offset);
  }

  // Every leaf entry's id (and, v1, its PATH slice), in one linear pass.
  // The objects section is in row order from v3 on and in id order before,
  // but the ids mean the same in every version.
  for (std::uint64_t i = 0; i < h.entry_count; ++i) {
    if ((v2 ? t.ids[i] : parts.entries[i].id) >= h.object_count) {
      return Status::Corruption("flat leaf entry id out of range");
    }
    if (v2) continue;
    const FlatLeafEntryRec& e = parts.entries[i];
    if (e.path_length > h.num_path_distances) {
      return Status::Corruption("flat leaf PATH length exceeds header p");
    }
    if (std::uint64_t{e.path_offset} + e.path_length > h.path_count) {
      return Status::Corruption("flat leaf PATH slice out of pool range");
    }
  }

  // Structural pass over the nodes. Preorder is the invariant that makes
  // one forward scan sufficient AND guarantees traversal termination:
  // every child index must point strictly forward, every non-root node
  // must have been referenced by an earlier parent (exactly once), and
  // depth — assigned parent-before-child — must stay under the cap.
  if (h.node_count == 0) {
    if (h.root != kNoNode || h.object_count != 0) {
      return Status::Corruption("flat arena root mismatches empty tree");
    }
    if (v2 && h.path_count != 0) {
      return Status::Corruption("flat arena PATH slab pool not canonical");
    }
    return parts;
  }
  if (h.root != 0) {
    return Status::Corruption("flat arena root must be the first node");
  }
  // v2+ slab canonicality: leaf slabs must tile the PATH pool exactly, in
  // node order, with no gaps or overlap — so no two leaves can alias slab
  // values and every slab is in bounds by construction. In v1, next_slab
  // totals the slab the upgrade will emit. In both, the leaves must tile
  // the entries the same way (leaf_entries is the begin the next leaf must
  // have): a writer gives every leaf its own entries (and in v1 every entry
  // its own PATH slice), so the totals stay within their sections, which
  // bounds the upgrade's and a re-serialization's work and memory by the
  // arena's size, and every entry is in exactly one leaf, as in the MVPT
  // stream. A leaf keeps at most two PATH distances per internal node above
  // it (depth counts the root as 1): the vantage points a stream writer
  // recomputes them from.
  // From v3 on, next_row is the row the next node's vp1 must sit at: the
  // vp rows tile [entry_count, object_count) in node order.
  std::uint64_t next_slab = 0;
  std::uint64_t leaf_entries = 0;
  std::uint64_t next_row = h.entry_count;
  std::vector<std::uint32_t> depth(static_cast<std::size_t>(h.node_count), 0);
  depth[0] = 1;
  for (std::uint64_t i = 0; i < h.node_count; ++i) {
    const core::NodeRec node = NodeAt(parts, static_cast<std::size_t>(i));
    if (depth[static_cast<std::size_t>(i)] == 0) {
      return Status::Corruption("flat arena node unreachable from root");
    }
    if ((node.flags & ~(core::kNodeLeaf | core::kNodeHasVp2)) != 0) {
      return Status::Corruption("flat arena node has unknown flags");
    }
    if (node.vp1 >= h.object_count ||
        ((node.flags & core::kNodeHasVp2) != 0 && node.vp2 >= h.object_count)) {
      return Status::Corruption("flat arena vantage point id out of range");
    }
    if (v3) {
      if (node.reserved != 0) {
        return Status::Corruption("flat arena node record malformed");
      }
      const std::uint64_t vps = core::VpCount(node);
      if (node.vp_row < h.entry_count ||
          node.vp_row + vps > h.object_count) {
        return Status::Corruption("flat arena vantage point row out of range");
      }
      if (node.vp_row != next_row) {
        return Status::Corruption(
            "flat arena vantage point rows out of preorder");
      }
      next_row += vps;
    }
    if ((node.flags & core::kNodeLeaf) != 0) {
      if (node.begin > h.entry_count ||
          node.count > h.entry_count - node.begin) {
        return Status::Corruption("flat arena leaf entry range out of bounds");
      }
      if (node.begin != leaf_entries) {
        return Status::Corruption(
            "flat arena leaves share leaf entries or skip some");
      }
      leaf_entries += node.count;
      // v1 keeps a PATH length per entry; the upgrade refuses a leaf that
      // mixes them.
      std::uint64_t path_length = 0;
      if (v2) {
        const core::LeafPathRec& lp =
            t.leafpaths[static_cast<std::size_t>(i)];
        if (lp.reserved != 0) {
          return Status::Corruption("flat arena leaf path record malformed");
        }
        if (lp.slab_offset != next_slab) {
          return Status::Corruption("flat arena leaf PATH slab not canonical");
        }
        path_length = lp.path_length;
      } else if (node.count > 0) {
        path_length = parts.entries[node.begin].path_length;
      }
      const std::uint64_t above = 2 * (depth[static_cast<std::size_t>(i)] - 1);
      if (path_length > std::min<std::uint64_t>(h.num_path_distances, above)) {
        return Status::Corruption(
            "flat arena leaf PATH length exceeds header p or the vantage "
            "points above its leaf");
      }
      const std::uint64_t slab_len = path_length * node.count;
      if (slab_len > h.path_count - next_slab) {
        return Status::Corruption(
            v2 ? "flat arena leaf PATH slab out of pool range"
               : "flat arena leaves share PATH slices");
      }
      next_slab += slab_len;
      continue;
    }
    if ((node.flags & core::kNodeHasVp2) == 0) {
      return Status::Corruption(
          "flat arena internal node lacks a second vantage point");
    }
    if (v2) {
      const core::LeafPathRec& lp = t.leafpaths[static_cast<std::size_t>(i)];
      if (lp.slab_offset != 0 || lp.path_length != 0 || lp.reserved != 0) {
        return Status::Corruption(
            "flat arena internal node has a PATH slab record");
      }
    }
    const std::uint64_t bounds_needed = 2 * m + 2 * m * m;
    if (node.begin > h.bounds_count ||
        bounds_needed > h.bounds_count - node.begin) {
      return Status::Corruption("flat arena bounds range out of bounds");
    }
    if (node.children > h.children_count ||
        m * m > h.children_count - node.children) {
      return Status::Corruption("flat arena children range out of bounds");
    }
    if (depth[static_cast<std::size_t>(i)] >= core::kMaxTreeDepth) {
      return Status::Corruption("flat tree nesting too deep");
    }
    for (std::uint64_t c = 0; c < m * m; ++c) {
      const std::uint32_t child =
          t.children[static_cast<std::size_t>(node.children + c)];
      if (child == core::kNullChild) continue;
      if (child >= h.node_count || child <= i) {
        return Status::Corruption("flat arena child link is not preorder");
      }
      if (depth[child] != 0) {
        return Status::Corruption("flat arena node referenced twice");
      }
      depth[child] = depth[static_cast<std::size_t>(i)] + 1;
    }
  }
  if (leaf_entries != h.entry_count) {
    return Status::Corruption("flat arena leaves skip leaf entries");
  }
  if (v2 && next_slab != h.path_count) {
    return Status::Corruption("flat arena PATH slab pool not canonical");
  }
  if (v3 && next_row != h.object_count) {
    return Status::Corruption("flat arena rows do not tile its objects");
  }
  return parts;
}

}  // namespace mvp::snapshot::flat
