#include "snapshot/flat_tree.h"

#include <cstring>
#include <limits>
#include <span>
#include <string>

#include "common/serialize.h"
#include "core/mvp_tree.h"
#include "metric/lp.h"

/// \file
/// Flat-arena transcoding (serialized MvpTree stream or v1 arena -> v2
/// arena) and untrusted-arena validation. Non-template code: the arena
/// layout is object-type-specific (dense real vectors), which is what makes
/// the in-place VectorView serving possible at all.

namespace mvp::snapshot::flat {
namespace {

// The stream being transcoded is exactly what MvpTree::Serialize emits;
// share its identity constants (any instantiation carries the same values).
using SourceTree = core::MvpTree<metric::Vector, metric::L2>;

std::uint64_t Align8(std::uint64_t v) { return (v + 7) & ~std::uint64_t{7}; }

/// A v1-shaped arena that EmitArena lays out as v2: the header's options,
/// dim, object count and root, and spans that are exactly a v1 arena's
/// sections. They view an ArenaBuilder's vectors, or a validated v1 arena
/// in place, so the upgrade copies nothing before emitting.
struct ArenaSections {
  FlatHeaderRec header;
  std::span<const double> objects;
  std::span<const double> path;
  std::span<const double> bounds;
  std::span<const FlatLeafEntryRec> entries;
  std::span<const FlatNodeRec> nodes;
  std::span<const std::uint32_t> children;
};

/// Mutable arena-in-progress, appended during the preorder walk of a
/// stream; Sections() views it for EmitArena.
struct ArenaBuilder {
  FlatHeaderRec header;
  std::vector<double> objects;
  std::vector<double> path;
  std::vector<double> bounds;
  std::vector<FlatLeafEntryRec> entries;
  std::vector<FlatNodeRec> nodes;
  std::vector<std::uint32_t> children;

  ArenaSections Sections() const {
    return {header, objects, path, bounds, entries, nodes, children};
  }
};

/// Transcodes one serialized node (and, preorder, its subtree). Returns the
/// flat node index, or kNoNode for a null child. Mirrors the validation of
/// MvpTree::ReadNode so a stream the heap path would reject is rejected
/// here too.
Result<std::uint64_t> TranscodeNode(BinaryReader* reader, ArenaBuilder* b,
                                    std::size_t m, std::size_t depth) {
  if (depth > kMaxFlatDepth) {
    return Status::Corruption("mvp-tree nesting too deep");
  }
  std::uint8_t tag = 0;
  MVP_RETURN_NOT_OK(reader->Read<std::uint8_t>(&tag));
  if (tag == 0) return kNoNode;
  if (tag > 2) return Status::Corruption("bad mvp-tree node tag");

  std::uint64_t vp1 = 0, vp2 = 0;
  std::uint8_t has_vp2 = 0;
  MVP_RETURN_NOT_OK(reader->Read<std::uint64_t>(&vp1));
  MVP_RETURN_NOT_OK(reader->Read<std::uint8_t>(&has_vp2));
  MVP_RETURN_NOT_OK(reader->Read<std::uint64_t>(&vp2));
  const std::uint64_t object_count = b->header.object_count;
  if (vp1 >= object_count || (has_vp2 != 0 && vp2 >= object_count)) {
    return Status::Corruption("vantage point id out of range");
  }
  if (tag == 2 && has_vp2 == 0) {
    return Status::Corruption(
        "internal mvp-tree node lacks a second vantage point");
  }

  const std::uint64_t index = b->nodes.size();
  if (index >= kNullChild) {
    return Status::Corruption("flat tree node count exceeds format limit");
  }
  b->nodes.emplace_back();  // filled below; children recurse after it
  FlatNodeRec rec;
  rec.vp1 = static_cast<std::uint32_t>(vp1);
  rec.vp2 = static_cast<std::uint32_t>(vp2);
  if (has_vp2 != 0) rec.flags |= kNodeHasVp2;

  if (tag == 1) {  // leaf
    rec.flags |= kNodeLeaf;
    std::uint64_t bucket_size = 0;
    MVP_RETURN_NOT_OK(reader->Read<std::uint64_t>(&bucket_size));
    if (bucket_size > reader->remaining()) {
      return Status::Corruption("leaf bucket size exceeds buffer");
    }
    rec.begin = b->entries.size();
    rec.count = static_cast<std::uint32_t>(bucket_size);
    for (std::uint64_t i = 0; i < bucket_size; ++i) {
      FlatLeafEntryRec e;
      std::uint64_t id = 0;
      MVP_RETURN_NOT_OK(reader->Read<std::uint64_t>(&id));
      MVP_RETURN_NOT_OK(reader->Read<double>(&e.d1));
      MVP_RETURN_NOT_OK(reader->Read<double>(&e.d2));
      MVP_RETURN_NOT_OK(reader->Read<std::uint32_t>(&e.path_offset));
      MVP_RETURN_NOT_OK(reader->Read<std::uint32_t>(&e.path_length));
      if (id >= object_count) {
        return Status::Corruption("leaf point id out of range");
      }
      if (static_cast<std::size_t>(e.path_offset) + e.path_length >
          b->path.size()) {
        return Status::Corruption("leaf PATH slice out of pool range");
      }
      e.id = static_cast<std::uint32_t>(id);
      b->entries.push_back(e);
    }
    b->nodes[static_cast<std::size_t>(index)] = rec;
    return index;
  }

  // Internal node: bounds arrays, then m*m children, preorder.
  std::vector<double> lower1, upper1, lower2, upper2;
  MVP_RETURN_NOT_OK(reader->ReadVector(&lower1));
  MVP_RETURN_NOT_OK(reader->ReadVector(&upper1));
  MVP_RETURN_NOT_OK(reader->ReadVector(&lower2));
  MVP_RETURN_NOT_OK(reader->ReadVector(&upper2));
  if (lower1.size() != m || upper1.size() != m || lower2.size() != m * m ||
      upper2.size() != m * m) {
    return Status::Corruption("internal node bound arrays malformed");
  }
  rec.begin = b->bounds.size();
  b->bounds.insert(b->bounds.end(), lower1.begin(), lower1.end());
  b->bounds.insert(b->bounds.end(), upper1.begin(), upper1.end());
  b->bounds.insert(b->bounds.end(), lower2.begin(), lower2.end());
  b->bounds.insert(b->bounds.end(), upper2.begin(), upper2.end());
  rec.children = b->children.size();
  b->children.insert(b->children.end(), m * m, kNullChild);
  b->nodes[static_cast<std::size_t>(index)] = rec;

  for (std::size_t c = 0; c < m * m; ++c) {
    auto child = TranscodeNode(reader, b, m, depth + 1);
    if (!child.ok()) return child.status();
    const std::uint64_t ci = child.value();
    b->children[static_cast<std::size_t>(rec.children) + c] =
        ci == kNoNode ? kNullChild : static_cast<std::uint32_t>(ci);
  }
  return index;
}

/// Copies a vector or span of trivially copyable records to `offset`.
template <typename Section>
void CopySection(std::vector<std::uint8_t>* arena, std::uint64_t offset,
                 const Section& values) {
  if (values.empty()) return;
  std::memcpy(arena->data() + offset, values.data(),
              values.size() * sizeof(values[0]));
}

/// v2 structure-of-arrays leaf sections, derived from the AoS entries the
/// transcoder collected. Slabs are emitted leaf by leaf in node (preorder)
/// order, so their offsets are the canonical gap-free sequence
/// ParseFlatArena later enforces.
struct SoaSections {
  std::vector<std::uint32_t> ids;
  std::vector<double> d1;
  std::vector<double> d2;
  std::vector<double> slab;  ///< replaces the v1 PATH pool
  std::vector<FlatLeafPathRec> leafpaths;
};

Status BuildSoaSections(const ArenaSections& b, SoaSections* soa) {
  soa->ids.reserve(b.entries.size());
  soa->d1.reserve(b.entries.size());
  soa->d2.reserve(b.entries.size());
  for (const FlatLeafEntryRec& e : b.entries) {
    soa->ids.push_back(e.id);
    soa->d1.push_back(e.d1);
    soa->d2.push_back(e.d2);
  }
  soa->leafpaths.resize(b.nodes.size());
  for (std::size_t ni = 0; ni < b.nodes.size(); ++ni) {
    const FlatNodeRec& node = b.nodes[ni];
    if ((node.flags & kNodeLeaf) == 0) continue;
    const std::size_t begin = static_cast<std::size_t>(node.begin);
    FlatLeafPathRec lp;
    lp.slab_offset = soa->slab.size();
    lp.path_length = node.count > 0 ? b.entries[begin].path_length : 0;
    for (std::uint32_t i = 0; i < node.count; ++i) {
      if (b.entries[begin + i].path_length != lp.path_length) {
        // The heap tree records one PATH prefix length per leaf; a stream
        // with mixed lengths in a leaf has no SoA slab representation.
        return Status::Corruption("leaf PATH lengths inconsistent in a leaf");
      }
    }
    for (std::uint32_t j = 0; j < lp.path_length; ++j) {
      for (std::uint32_t i = 0; i < node.count; ++i) {
        soa->slab.push_back(b.path[b.entries[begin + i].path_offset + j]);
      }
    }
    soa->leafpaths[ni] = lp;
  }
  return Status::OK();
}

/// Lays out `b` as a v2 arena. Every section offset stays 8-aligned (the
/// u32 ids section can end off an 8-byte boundary, hence the explicit
/// Align8 between sections).
Result<std::vector<std::uint8_t>> EmitArena(const ArenaSections& b) {
  SoaSections soa;
  MVP_RETURN_NOT_OK(BuildSoaSections(b, &soa));

  FlatHeaderRec h = b.header;
  h.version = kFlatVersionV2;
  h.node_count = b.nodes.size();
  FlatHeaderExtRec ext;
  std::uint64_t offset = kFlatHeaderBytesV2;
  h.objects_offset = offset;
  offset = Align8(offset + b.objects.size() * sizeof(double));
  h.path_offset = offset;
  h.path_count = soa.slab.size();
  offset = Align8(offset + soa.slab.size() * sizeof(double));
  h.bounds_offset = offset;
  h.bounds_count = b.bounds.size();
  offset = Align8(offset + b.bounds.size() * sizeof(double));
  h.entries_offset = offset;  // ids section in v2
  h.entry_count = soa.ids.size();
  offset = Align8(offset + soa.ids.size() * sizeof(std::uint32_t));
  ext.d1_offset = offset;
  offset = Align8(offset + soa.d1.size() * sizeof(double));
  ext.d2_offset = offset;
  offset = Align8(offset + soa.d2.size() * sizeof(double));
  ext.leafpaths_offset = offset;
  offset = Align8(offset + soa.leafpaths.size() * sizeof(FlatLeafPathRec));
  h.nodes_offset = offset;
  offset = Align8(offset + b.nodes.size() * sizeof(FlatNodeRec));
  h.children_offset = offset;
  h.children_count = b.children.size();
  offset = Align8(offset + b.children.size() * sizeof(std::uint32_t));
  h.arena_bytes = offset;

  std::vector<std::uint8_t> arena(static_cast<std::size_t>(offset), 0);
  std::memcpy(arena.data(), &h, sizeof(h));
  std::memcpy(arena.data() + sizeof(h), &ext, sizeof(ext));
  CopySection(&arena, h.objects_offset, b.objects);
  CopySection(&arena, h.path_offset, soa.slab);
  CopySection(&arena, h.bounds_offset, b.bounds);
  CopySection(&arena, h.entries_offset, soa.ids);
  CopySection(&arena, ext.d1_offset, soa.d1);
  CopySection(&arena, ext.d2_offset, soa.d2);
  CopySection(&arena, ext.leafpaths_offset, soa.leafpaths);
  CopySection(&arena, h.nodes_offset, b.nodes);
  CopySection(&arena, h.children_offset, b.children);
  return arena;
}

}  // namespace

Result<std::vector<std::uint8_t>> BuildFlatArena(const std::uint8_t* stream,
                                                 std::size_t length) {
  BinaryReader reader(stream, length);
  std::uint32_t magic = 0, stream_version = 0;
  MVP_RETURN_NOT_OK(reader.Read<std::uint32_t>(&magic));
  if (magic != SourceTree::kMagic) {
    return Status::Corruption("bad mvp-tree magic");
  }
  MVP_RETURN_NOT_OK(reader.Read<std::uint32_t>(&stream_version));
  if (stream_version != SourceTree::kFormatVersion) {
    return Status::NotSupported("unknown mvp-tree format version");
  }
  std::int32_t order = 0, leaf_capacity = 0, num_paths = 0;
  std::uint8_t bounds_flag = 0;
  MVP_RETURN_NOT_OK(reader.Read<std::int32_t>(&order));
  MVP_RETURN_NOT_OK(reader.Read<std::int32_t>(&leaf_capacity));
  MVP_RETURN_NOT_OK(reader.Read<std::int32_t>(&num_paths));
  MVP_RETURN_NOT_OK(reader.Read<std::uint8_t>(&bounds_flag));
  if (order < 2 || leaf_capacity < 1 || num_paths < 0) {
    return Status::Corruption("mvp-tree options out of range");
  }

  std::uint64_t count = 0;
  MVP_RETURN_NOT_OK(reader.Read<std::uint64_t>(&count));
  if (count > reader.remaining()) {
    return Status::Corruption("object count exceeds buffer");
  }
  if (count > std::numeric_limits<std::uint32_t>::max()) {
    return Status::InvalidArgument(
        "flat arenas hold at most 2^32-1 objects per shard");
  }

  ArenaBuilder b;
  FlatHeaderRec& h = b.header;
  h.order = static_cast<std::uint32_t>(order);
  h.leaf_capacity = static_cast<std::uint32_t>(leaf_capacity);
  h.num_path_distances = static_cast<std::uint32_t>(num_paths);
  if (bounds_flag != 0) h.flags |= kHeaderExactBounds;
  h.object_count = count;
  std::size_t dim = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    std::vector<double> v;
    MVP_RETURN_NOT_OK(reader.ReadVector(&v));
    if (i == 0) {
      dim = v.size();
    } else if (v.size() != dim) {
      return Status::InvalidArgument(
          "flat arenas require equal-dimension vectors");
    }
    b.objects.insert(b.objects.end(), v.begin(), v.end());
  }
  if (dim > std::numeric_limits<std::uint32_t>::max()) {
    return Status::InvalidArgument("vector dimension exceeds format limit");
  }
  h.dim = static_cast<std::uint32_t>(dim);
  MVP_RETURN_NOT_OK(reader.ReadVector(&b.path));

  auto root = TranscodeNode(&reader, &b, static_cast<std::size_t>(order), 0);
  if (!root.ok()) return root.status();
  if (!reader.AtEnd()) {
    return Status::Corruption("trailing bytes after mvp-tree stream");
  }
  if (root.value() == kNoNode && count != 0) {
    return Status::Corruption("non-empty tree has no root");
  }
  h.root = root.value();
  return EmitArena(b.Sections());
}

Result<std::vector<std::uint8_t>> UpgradeFlatArena(const FlatArenaParts& v1) {
  const FlatHeaderRec& in = v1.header;
  if (in.version != kFlatVersionV1) {
    return Status::InvalidArgument("not a v1 flat arena");
  }
  // EmitArena rewrites the version and every section offset and count.
  ArenaSections b{in,
                  {v1.objects, in.object_count * in.dim},
                  {v1.path, in.path_count},
                  {v1.bounds, in.bounds_count},
                  {v1.entries, in.entry_count},
                  {v1.nodes, in.node_count},
                  {v1.children, in.children_count}};
  b.header.reserved = 0;
  return EmitArena(b);
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
                                      sizeof(FlatLeafPathRec), size,
                                      "leafpaths"));
  } else {
    MVP_RETURN_NOT_OK(SectionInBounds(h.entries_offset, h.entry_count,
                                      sizeof(FlatLeafEntryRec), size,
                                      "entries"));
  }
  MVP_RETURN_NOT_OK(SectionInBounds(h.nodes_offset, h.node_count,
                                    sizeof(FlatNodeRec), size, "nodes"));
  MVP_RETURN_NOT_OK(SectionInBounds(h.children_offset, h.children_count,
                                    sizeof(std::uint32_t), size, "children"));

  FlatArenaParts parts;
  parts.header = h;
  parts.objects = reinterpret_cast<const double*>(data + h.objects_offset);
  parts.path = reinterpret_cast<const double*>(data + h.path_offset);
  parts.bounds = reinterpret_cast<const double*>(data + h.bounds_offset);
  parts.nodes = reinterpret_cast<const FlatNodeRec*>(data + h.nodes_offset);
  parts.children =
      reinterpret_cast<const std::uint32_t*>(data + h.children_offset);
  if (v2) {
    parts.ids = reinterpret_cast<const std::uint32_t*>(data + h.entries_offset);
    parts.d1 = reinterpret_cast<const double*>(data + ext.d1_offset);
    parts.d2 = reinterpret_cast<const double*>(data + ext.d2_offset);
    parts.leafpaths =
        reinterpret_cast<const FlatLeafPathRec*>(data + ext.leafpaths_offset);
  } else {
    parts.entries =
        reinterpret_cast<const FlatLeafEntryRec*>(data + h.entries_offset);
  }

  // Every leaf entry's id (and, v1, its PATH slice), in one linear pass.
  for (std::uint64_t i = 0; i < h.entry_count; ++i) {
    if ((v2 ? parts.ids[i] : parts.entries[i].id) >= h.object_count) {
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
    const FlatNodeRec& node = parts.nodes[i];
    if (depth[static_cast<std::size_t>(i)] == 0) {
      return Status::Corruption("flat arena node unreachable from root");
    }
    if ((node.flags & ~(kNodeLeaf | kNodeHasVp2)) != 0) {
      return Status::Corruption("flat arena node has unknown flags");
    }
    if (node.vp1 >= h.object_count ||
        ((node.flags & kNodeHasVp2) != 0 && node.vp2 >= h.object_count)) {
      return Status::Corruption("flat arena vantage point id out of range");
    }
    if ((node.flags & kNodeLeaf) != 0) {
      if (node.begin > h.entry_count ||
          node.count > h.entry_count - node.begin) {
        return Status::Corruption("flat arena leaf entry range out of bounds");
      }
      if (v2) {
        const FlatLeafPathRec& lp =
            parts.leafpaths[static_cast<std::size_t>(i)];
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
    if ((node.flags & kNodeHasVp2) == 0) {
      return Status::Corruption(
          "flat arena internal node lacks a second vantage point");
    }
    if (v2) {
      const FlatLeafPathRec& lp = parts.leafpaths[static_cast<std::size_t>(i)];
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
    if (depth[static_cast<std::size_t>(i)] >= kMaxFlatDepth) {
      return Status::Corruption("flat tree nesting too deep");
    }
    for (std::uint64_t c = 0; c < m * m; ++c) {
      const std::uint32_t child =
          parts.children[static_cast<std::size_t>(node.children + c)];
      if (child == kNullChild) continue;
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
