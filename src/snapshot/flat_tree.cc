#include "snapshot/flat_tree.h"

#include <cstring>
#include <span>
#include <string>

#include "common/codec.h"
#include "common/serialize.h"
#include "metric/lp.h"

/// \file
/// Flat-arena layout (a heap tree's arrays, a serialized MvpTree stream or
/// a v1 arena -> v2 arena) and untrusted-arena validation. Non-template
/// code: the arena layout is object-type-specific (dense real vectors),
/// which is what makes the in-place VectorView serving possible at all.

namespace mvp::snapshot::flat {
namespace {

std::uint64_t Align8(std::uint64_t v) { return (v + 7) & ~std::uint64_t{7}; }

/// Copies a vector or span of trivially copyable records to `offset`.
template <typename Section>
void CopySection(std::vector<std::uint8_t>* arena, std::uint64_t offset,
                 const Section& values) {
  if (values.empty()) return;
  std::memcpy(arena->data() + offset, values.data(),
              values.size() * sizeof(values[0]));
}

/// Lays out `t` as a v2 arena behind header `h` (options, dim and object
/// count filled) and the row-major `objects`. Every section offset stays
/// 8-aligned (the u32 ids section can end off an 8-byte boundary, hence the
/// explicit Align8 between sections).
std::vector<std::uint8_t> EmitArena(FlatHeaderRec h,
                                    std::span<const double> objects,
                                    const core::TreeLayout& t) {
  h.version = kFlatVersionV2;
  h.reserved = 0;
  h.node_count = t.nodes.size();
  h.root = t.nodes.empty() ? kNoNode : 0;
  FlatHeaderExtRec ext;
  std::uint64_t offset = kFlatHeaderBytesV2;
  h.objects_offset = offset;
  offset = Align8(offset + objects.size() * sizeof(double));
  h.path_offset = offset;
  h.path_count = t.path.size();
  offset = Align8(offset + t.path.size() * sizeof(double));
  h.bounds_offset = offset;
  h.bounds_count = t.bounds.size();
  offset = Align8(offset + t.bounds.size() * sizeof(double));
  h.entries_offset = offset;  // ids section in v2
  h.entry_count = t.ids.size();
  offset = Align8(offset + t.ids.size() * sizeof(std::uint32_t));
  ext.d1_offset = offset;
  offset = Align8(offset + t.d1.size() * sizeof(double));
  ext.d2_offset = offset;
  offset = Align8(offset + t.d2.size() * sizeof(double));
  ext.leafpaths_offset = offset;
  offset = Align8(offset + t.leafpaths.size() * sizeof(core::LeafPathRec));
  h.nodes_offset = offset;
  offset = Align8(offset + t.nodes.size() * sizeof(core::NodeRec));
  h.children_offset = offset;
  h.children_count = t.children.size();
  offset = Align8(offset + t.children.size() * sizeof(std::uint32_t));
  h.arena_bytes = offset;

  std::vector<std::uint8_t> arena(static_cast<std::size_t>(offset), 0);
  std::memcpy(arena.data(), &h, sizeof(h));
  std::memcpy(arena.data() + sizeof(h), &ext, sizeof(ext));
  CopySection(&arena, h.objects_offset, objects);
  CopySection(&arena, h.path_offset, t.path);
  CopySection(&arena, h.bounds_offset, t.bounds);
  CopySection(&arena, h.entries_offset, t.ids);
  CopySection(&arena, ext.d1_offset, t.d1);
  CopySection(&arena, ext.d2_offset, t.d2);
  CopySection(&arena, ext.leafpaths_offset, t.leafpaths);
  CopySection(&arena, h.nodes_offset, t.nodes);
  CopySection(&arena, h.children_offset, t.children);
  return arena;
}

}  // namespace

std::vector<std::uint8_t> BuildFlatArena(const core::MvpTreeOptions& options,
                                         std::span<const double> rows,
                                         std::size_t dim,
                                         const core::TreeLayout& layout) {
  FlatHeaderRec h;
  h.order = static_cast<std::uint32_t>(options.order);
  h.leaf_capacity = static_cast<std::uint32_t>(options.leaf_capacity);
  h.num_path_distances =
      static_cast<std::uint32_t>(options.num_path_distances);
  if (options.store_exact_bounds) h.flags |= kHeaderExactBounds;
  h.dim = static_cast<std::uint32_t>(dim);
  h.object_count = dim == 0 ? 0 : rows.size() / dim;
  return EmitArena(h, rows, layout);
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
                        tree.value().dim(), tree.value().layout());
}

Result<std::vector<std::uint8_t>> UpgradeFlatArena(const FlatArenaParts& v1) {
  const FlatHeaderRec& in = v1.header;
  if (in.version != kFlatVersionV1) {
    return Status::InvalidArgument("not a v1 flat arena");
  }
  // Nodes, children and bounds carry over; the AoS entries split into the
  // id/D1/D2 columns, and each leaf's PATH slices into its slab.
  const core::TreeArrays& a = v1.tree;
  core::TreeLayout t;
  t.nodes.assign(a.nodes, a.nodes + in.node_count);
  t.children.assign(a.children, a.children + in.children_count);
  t.bounds.assign(a.bounds, a.bounds + in.bounds_count);
  for (const FlatLeafEntryRec& e : std::span(v1.entries, in.entry_count)) {
    t.ids.push_back(e.id);
    t.d1.push_back(e.d1);
    t.d2.push_back(e.d2);
  }
  t.leafpaths.resize(t.nodes.size());
  for (std::size_t ni = 0; ni < t.nodes.size(); ++ni) {
    const core::NodeRec& node = t.nodes[ni];
    if ((node.flags & core::kNodeLeaf) == 0) continue;
    const FlatLeafEntryRec* entries = v1.entries + node.begin;
    core::LeafPathRec& lp = t.leafpaths[ni];
    lp.slab_offset = t.path.size();
    lp.path_length = node.count > 0 ? entries[0].path_length : 0;
    for (std::uint32_t i = 0; i < node.count; ++i) {
      if (entries[i].path_length != lp.path_length) {
        // A heap tree records one PATH prefix length per leaf; mixed
        // lengths in a leaf have no slab representation.
        return Status::Corruption("leaf PATH lengths inconsistent in a leaf");
      }
    }
    for (std::uint32_t j = 0; j < lp.path_length; ++j) {
      for (std::uint32_t i = 0; i < node.count; ++i) {
        t.path.push_back(a.path[std::size_t{entries[i].path_offset} + j]);
      }
    }
  }
  return EmitArena(in, {v1.objects, in.object_count * in.dim}, t);
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
  if (h.version != kFlatVersionV1 && h.version != kFlatVersionV2) {
    return Status::NotSupported("unknown flat arena version " +
                                std::to_string(h.version));
  }
  const bool v2 = h.version == kFlatVersionV2;
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
                                    sizeof(double), size, "path"));
  MVP_RETURN_NOT_OK(SectionInBounds(h.bounds_offset, h.bounds_count,
                                    sizeof(double), size, "bounds"));
  if (v2) {
    // In v2 the entries section holds u32 ids; D1/D2/leafpaths live behind
    // the header extension.
    MVP_RETURN_NOT_OK(SectionInBounds(h.entries_offset, h.entry_count,
                                      sizeof(std::uint32_t), size, "ids"));
    MVP_RETURN_NOT_OK(SectionInBounds(ext.d1_offset, h.entry_count,
                                      sizeof(double), size, "d1"));
    MVP_RETURN_NOT_OK(SectionInBounds(ext.d2_offset, h.entry_count,
                                      sizeof(double), size, "d2"));
    MVP_RETURN_NOT_OK(SectionInBounds(ext.leafpaths_offset, h.node_count,
                                      sizeof(core::LeafPathRec), size,
                                      "leafpaths"));
  } else {
    MVP_RETURN_NOT_OK(SectionInBounds(h.entries_offset, h.entry_count,
                                      sizeof(FlatLeafEntryRec), size,
                                      "entries"));
  }
  MVP_RETURN_NOT_OK(SectionInBounds(h.nodes_offset, h.node_count,
                                    sizeof(core::NodeRec), size, "nodes"));
  MVP_RETURN_NOT_OK(SectionInBounds(h.children_offset, h.children_count,
                                    sizeof(std::uint32_t), size, "children"));

  FlatArenaParts parts;
  parts.header = h;
  parts.objects = reinterpret_cast<const double*>(data + h.objects_offset);
  core::TreeArrays& t = parts.tree;
  t.order = h.order;
  t.path_distances = h.num_path_distances;
  t.node_count = static_cast<std::size_t>(h.node_count);
  t.path = reinterpret_cast<const double*>(data + h.path_offset);
  t.bounds = reinterpret_cast<const double*>(data + h.bounds_offset);
  t.nodes = reinterpret_cast<const core::NodeRec*>(data + h.nodes_offset);
  t.children = reinterpret_cast<const std::uint32_t*>(data + h.children_offset);
  if (v2) {
    t.ids = reinterpret_cast<const std::uint32_t*>(data + h.entries_offset);
    t.d1 = reinterpret_cast<const double*>(data + ext.d1_offset);
    t.d2 = reinterpret_cast<const double*>(data + ext.d2_offset);
    t.leafpaths =
        reinterpret_cast<const core::LeafPathRec*>(data + ext.leafpaths_offset);
  } else {
    parts.entries =
        reinterpret_cast<const FlatLeafEntryRec*>(data + h.entries_offset);
  }

  // Every leaf entry's id (and, v1, its PATH slice), in one linear pass.
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
  // v2 slab canonicality: leaf slabs must tile the PATH pool exactly, in
  // node order, with no gaps or overlap — so no two leaves can alias slab
  // doubles and every slab is in bounds by construction. In v1, next_slab
  // totals the slab the upgrade will emit and leaf_entries the entries it
  // will walk: a writer gives every leaf its own entries and every entry
  // its own PATH slice, so both stay within their sections, which bounds
  // the upgrade's work and memory by the arena's size.
  std::uint64_t next_slab = 0;
  std::uint64_t leaf_entries = 0;
  std::vector<std::uint32_t> depth(static_cast<std::size_t>(h.node_count), 0);
  depth[0] = 1;
  for (std::uint64_t i = 0; i < h.node_count; ++i) {
    const core::NodeRec& node = t.nodes[i];
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
    if ((node.flags & core::kNodeLeaf) != 0) {
      if (node.begin > h.entry_count ||
          node.count > h.entry_count - node.begin) {
        return Status::Corruption("flat arena leaf entry range out of bounds");
      }
      if (v2) {
        const core::LeafPathRec& lp =
            t.leafpaths[static_cast<std::size_t>(i)];
        if (lp.reserved != 0) {
          return Status::Corruption("flat arena leaf path record malformed");
        }
        if (lp.path_length > h.num_path_distances) {
          return Status::Corruption(
              "flat arena leaf PATH length exceeds header p");
        }
        if (lp.slab_offset != next_slab) {
          return Status::Corruption("flat arena leaf PATH slab not canonical");
        }
        const std::uint64_t slab_len =
            std::uint64_t{lp.path_length} * node.count;
        if (slab_len > h.path_count - next_slab) {
          return Status::Corruption(
              "flat arena leaf PATH slab out of pool range");
        }
        next_slab += slab_len;
      } else if (node.count > 0) {
        leaf_entries += node.count;
        if (leaf_entries > h.entry_count) {
          return Status::Corruption("flat arena leaves share leaf entries");
        }
        const std::uint64_t slab_len =
            std::uint64_t{parts.entries[node.begin].path_length} * node.count;
        if (slab_len > h.path_count - next_slab) {
          return Status::Corruption("flat arena leaves share PATH slices");
        }
        next_slab += slab_len;
      }
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
  if (v2 && next_slab != h.path_count) {
    return Status::Corruption("flat arena PATH slab pool not canonical");
  }
  return parts;
}

}  // namespace mvp::snapshot::flat
